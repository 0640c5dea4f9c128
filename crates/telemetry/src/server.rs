//! The TCP ingestion server.
//!
//! Thread layout:
//!
//! ```text
//! acceptor ──► round-robin hand-off to a FIXED pool of I/O workers,
//!                 │  then rings that worker's doorbell
//!                 ▼
//!   io worker: blocks in poll(2) on its sockets + its doorbell;
//!              readable → decode each frame and handle it at once:
//!              an upload locks shard fnv(app, device) % shards,
//!              WAL-appends and merges, and its ACK goes straight
//!              into the connection's write buffer
//! ```
//!
//! All connections are multiplexed over a fixed I/O worker pool on
//! nonblocking sockets. A worker sleeps in `poll` until one of its
//! sockets is ready or its **doorbell** rings — a byte on a Unix socket
//! pair whose read end sits in the poll set. Readable sockets are read,
//! *every* complete frame is carved out in one pass ([`drain_requests`]),
//! and each request is handled to the end as it decodes, before the
//! next: an upload is applied under its shard's lock by the worker that
//! decoded it, so every response is ready as soon as its request is
//! handled. Pipelined clients keep dozens of batches in flight on one
//! connection, and an upload wakes one thread. An idle server makes no
//! wake-ups at all.
//!
//! The doorbell rings when another thread has handed the worker
//! something: the acceptor after each new connection, and `Shutdown`
//! and [`TelemetryServer::kill`] for every worker.
//!
//! One peer cannot make the server hold unbounded state: a connection
//! stops handling requests once it holds 1 MiB of responses the peer
//! has not taken, and is neither read nor handled again until the
//! socket takes enough of them. Requests already read wait in its read
//! buffer, so it never holds more than the cap plus one answer.
//!
//! Properties that carry the correctness argument:
//!
//! * **Per-device ordering.** A device's batches arrive on one
//!   connection (decoded in arrival order by one io worker) and all
//!   hash to one shard, so they apply in upload order.
//! * **Per-connection order.** An io worker finishes each request of a
//!   connection, an upload WAL-appended and merged, before it handles
//!   the next one, and responses leave in request order. So a `Query`
//!   or `Export` sees every upload its own connection was ACKed for
//!   before it, pipelined or not, and a client that has its ACKs can
//!   query on any connection and see its own writes.
//! * **Sharded state.** Each shard is an [`AggregationStore`]
//!   partition. The server keeps one [`ReportView`]: each app's report
//!   rows joined across the partitions. A query takes every shard's
//!   lock in index order, then the view's, drains the apps each
//!   partition changed since the last query (a partition marks an app
//!   only when an upload changed its report or added a device to it),
//!   re-joins only those straight from the partitions, and ranks the
//!   kept rows. A root cause's action may have executions in a shard
//!   whose devices never hung on it, so a join needs every partition at
//!   once; holding all the locks also makes the answer one consistent
//!   cut. The last answer's encoded frame is kept beside the view with
//!   its `top_n` and dialect, and dropped whenever the view re-joins an
//!   app: a query that follows no change, asking the same, writes the
//!   kept bytes and ranks and encodes nothing. `Export` folds the
//!   partitions' snapshots through the CRDT merge
//!   ([`AggregationStore::absorb`]) — the same fold the cluster
//!   coordinator runs across nodes.
//! * **Durability.** With a WAL directory configured, every batch is
//!   appended to the shard's log *before* it merges, under the same
//!   lock, so kill-and-restart replays to the identical aggregate
//!   (`tests/wal.rs`, and hd-bench's cluster differential). The record
//!   is spliced around the batch's JSON as it arrived when the frame was
//!   canonical ([`wal::encode_batch_record`]); the fingerprint hashes
//!   the same bytes, and only a non-canonical frame encodes the batch,
//!   once, for both.
//!
//! The server never sheds an upload: there is no queue to fill. A
//! [`Response::Nack`] stays in the protocol, and the uploaders still
//! honour one, but this server sends none.

use std::ffi::{c_int, c_short};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use serde::{Deserialize, Serialize};

use hd_control::FleetController;

use crate::error::TelemetryError;
use crate::fingerprint::{fnv1a, shard_for};
use crate::store::{AggregationStore, IngestOutcome, IngestStats, ReportView, StoreSnapshot};
use crate::wal::{self, Wal};
use crate::wire::{
    drain_requests, encode_frame_in, Request, Response, UploadBatch, WireVersion, SUPPORTED_SCHEMAS,
};

/// Server tuning knobs. Construct via [`TelemetryServer::builder`],
/// which validates every field.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Store partitions (shards); each has its own lock and WAL.
    pub shards: usize,
    /// The backoff hint a [`Response::Nack`] would carry, ms. The
    /// server sends no NACKs and no builder method sets this; it stays
    /// because perfbench's ACK check builds the NACK frame it compares
    /// answers against from it.
    pub nack_retry_ms: u64,
    /// I/O workers multiplexing the connections.
    pub io_workers: usize,
    /// Durability directory for per-shard WALs and snapshots; `None`
    /// runs in-memory only.
    pub wal_dir: Option<String>,
    /// This node's id (recorded in WAL headers; the cluster routing
    /// table index).
    pub node_id: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 4,
            nack_retry_ms: 1,
            io_workers: 2,
            wal_dir: None,
            node_id: 0,
        }
    }
}

/// Validating builder for [`TelemetryServer`] — mirrors the
/// `HangDoctorConfig::builder()` pattern. Invalid values are rejected
/// with typed [`TelemetryError::Config`] errors at [`start`], never
/// silently clamped.
///
/// [`start`]: TelemetryServerBuilder::start
#[derive(Clone, Debug)]
pub struct TelemetryServerBuilder {
    addr: String,
    cfg: ServerConfig,
}

impl TelemetryServerBuilder {
    /// Sets the bind address (use `127.0.0.1:0` for an ephemeral test
    /// port).
    pub fn addr(mut self, addr: &str) -> Self {
        self.addr = addr.to_string();
        self
    }

    /// Sets the number of shards (store partitions).
    pub fn shards(mut self, v: usize) -> Self {
        self.cfg.shards = v;
        self
    }

    /// Sets the number of I/O workers multiplexing connections.
    pub fn io_workers(mut self, v: usize) -> Self {
        self.cfg.io_workers = v;
        self
    }

    /// Enables durability: per-shard WALs and snapshots under `dir`.
    pub fn wal_dir(mut self, dir: impl Into<String>) -> Self {
        self.cfg.wal_dir = Some(dir.into());
        self
    }

    /// Sets this node's id (WAL headers, cluster routing).
    pub fn node_id(mut self, v: u64) -> Self {
        self.cfg.node_id = v;
        self
    }

    /// Validates the configuration, binds the listener, recovers any
    /// WAL state, and starts the worker threads.
    pub fn start(self) -> Result<TelemetryServer, TelemetryError> {
        if self.cfg.shards == 0 {
            return Err(TelemetryError::Config {
                field: "shards",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.cfg.io_workers == 0 {
            return Err(TelemetryError::Config {
                field: "io_workers",
                reason: "must be at least 1".to_string(),
            });
        }
        if let Some(dir) = &self.cfg.wal_dir {
            let orphans = wal::shard_files_beyond(Path::new(dir), self.cfg.shards)?;
            if let Some((last, _)) = orphans.last() {
                let names: Vec<&str> = orphans.iter().map(|(_, name)| name.as_str()).collect();
                return Err(TelemetryError::Config {
                    field: "shards",
                    reason: format!(
                        "{dir} holds {}, left by a server with more shards; with {} \
                         shard(s) the ACKed batches in them would not be recovered \
                         (start with at least {} shards)",
                        names.join(", "),
                        self.cfg.shards,
                        last + 1
                    ),
                });
            }
        }
        TelemetryServer::launch(&self.addr, self.cfg)
    }
}

/// Counters the server exports after (or during) a run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Always 0: the server applies every upload it decodes and sends
    /// no NACKs. The field stays because perfbench reports it as
    /// `telemetry.server.nacks`.
    pub nacks_sent: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Batches recovered from WAL/snapshot replay at startup.
    pub batches_recovered: u64,
    /// Ingest counters folded across the shard stores.
    pub ingest: IngestStats,
}

/// Response bytes a connection may leave untaken before its requests
/// are no longer read or handled.
const MAX_WBUF: usize = 1 << 20;

/// What other threads hand one io worker, and the doorbell that wakes
/// it to look.
struct Inbox {
    /// Accepted connections, from the acceptor.
    conns: Mutex<Vec<TcpStream>>,
    /// Write end of the doorbell.
    bell: UnixStream,
    /// Read end of the doorbell, in the worker's poll set.
    wake: UnixStream,
}

impl Inbox {
    fn new() -> io::Result<Inbox> {
        let (bell, wake) = UnixStream::pair()?;
        bell.set_nonblocking(true)?;
        wake.set_nonblocking(true)?;
        Ok(Inbox {
            conns: Mutex::new(Vec::new()),
            bell,
            wake,
        })
    }

    /// Wakes the worker out of `poll`, or makes its next `poll` return
    /// at once. A write that would block is ignored: the bytes already
    /// pending wake the worker just the same.
    fn ring(&self) {
        let _ = (&self.bell).write(&[1]);
    }

    /// Consumes the doorbell's pending bytes.
    fn silence(&self) {
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.wake).read(&mut buf) {
            if n < buf.len() {
                break;
            }
        }
    }

    /// Takes the connections handed over since the last call.
    fn take_conns(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.conns.lock().expect("inbox lock"))
    }
}

/// One shard: a store partition and, with a WAL directory, its log.
/// One lock covers both, so a batch's append and its merge, and a
/// compaction's snapshot and log reset, happen with nothing in between.
struct Shard {
    store: AggregationStore,
    wal: Option<Wal>,
}

/// The Hang Bug Report as of the last `Query`, and that Query's answer.
#[derive(Default)]
struct QueryView {
    report: ReportView,
    /// The last answer, replaced when `report` re-joins an app or a
    /// Query asks another `top_n` or dialect.
    kept: Option<KeptAnswer>,
}

/// An encoded `Query` answer and what it answered.
struct KeptAnswer {
    top_n: usize,
    version: WireVersion,
    frame: Vec<u8>,
}

struct Shared {
    /// The bound listener address.
    addr: SocketAddr,
    /// One partition per shard. Lock order: shards, then `view`. A
    /// `Query` takes every shard lock, in index order, then the view's,
    /// and holds them all while it re-joins the changed apps; every
    /// other holder (an io worker applying a batch, compaction,
    /// `stats`, `Export`) holds one shard lock at a time and takes no
    /// other lock under it. So no two threads can each wait for a lock
    /// the other holds.
    shards: Vec<Mutex<Shard>>,
    /// The Hang Bug Report as of the last `Query`. Only
    /// [`Shared::query`] drains the stores' changed apps, so the view
    /// has seen every change but those it re-joins next.
    view: Mutex<QueryView>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    killed: AtomicBool,
    connections: AtomicU64,
    decode_errors: AtomicU64,
    batches_recovered: AtomicU64,
    /// The embedded control plane. Control frames are rare and cheap
    /// relative to ingest, so one mutex — never touched by the upload
    /// path — is plenty.
    controller: Mutex<FleetController>,
    /// One per io worker.
    inboxes: Vec<Inbox>,
}

impl Shared {
    /// Applies one upload on the calling thread: under its shard's
    /// lock, a batch the store has not seen is WAL-appended, then
    /// merged; a duplicate is absorbed without touching the log.
    /// `wire_json` is the batch's JSON as it arrived, when the frame was
    /// canonical; `None` encodes the batch. The fingerprint hashes those
    /// bytes and the log record is spliced around them.
    fn apply(
        &self,
        batch: &UploadBatch,
        wire_json: Option<&[u8]>,
    ) -> Result<IngestOutcome, String> {
        let encoded;
        let json = match wire_json {
            Some(json) => json,
            None => {
                encoded = serde_json::to_string(batch).expect("batch serializes");
                encoded.as_bytes()
            }
        };
        let fingerprint = fnv1a(json);
        let index = shard_for(&batch.app, batch.device, self.shards.len());
        let mut shard = self.shards[index].lock().expect("shard lock");
        let Shard { store, wal } = &mut *shard;
        if !store.contains(fingerprint) {
            // WAL-append BEFORE the merge: a crash after the append
            // replays the batch; a crash before it loses an un-ACKed
            // batch the uploader will retry.
            if let Some(wal) = wal {
                wal.append_json(fingerprint, json)
                    .map_err(|e| format!("wal append failed: {e}"))?;
            }
        }
        Ok(store.ingest_prehashed(batch, fingerprint))
    }

    /// Folds every shard partition's snapshot through the CRDT merge —
    /// the full state, fingerprint set included.
    fn fold_stores(&self) -> AggregationStore {
        let mut folded = AggregationStore::new();
        for shard in &self.shards {
            folded.absorb(&shard.lock().expect("shard lock").store.snapshot());
        }
        folded
    }

    /// Answers `Query { top_n }` in `version` into `out`: the top-N
    /// report over every shard partition. Under every shard's lock at
    /// once and then the view's (the lock order above), the view
    /// re-joins the apps the shards changed since the last query, so the
    /// answer is one consistent cut across the shards. The shards are
    /// released before the kept rows are ranked and encoded. When
    /// nothing was re-joined and the last answer asked the same, its
    /// kept frame is the answer.
    fn query(&self, top_n: usize, version: WireVersion, out: &mut Vec<u8>) {
        let mut guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock"))
            .collect();
        let mut view = self.view.lock().expect("view lock");
        let mut parts: Vec<&mut AggregationStore> =
            guards.iter_mut().map(|g| &mut g.store).collect();
        let QueryView { report, kept } = &mut *view;
        let rejoined = report.update(&mut parts);
        drop(parts);
        drop(guards);
        let stale = |k: &KeptAnswer| rejoined || (k.top_n, k.version) != (top_n, version);
        if kept.as_ref().is_some_and(stale) {
            *kept = None;
        }
        let kept = kept.get_or_insert_with(|| KeptAnswer {
            top_n,
            version,
            frame: encode_frame_in(version, &Response::Report(report.report(top_n))),
        });
        out.extend_from_slice(&kept.frame);
    }

    /// Sets the stop flags and wakes every thread that waits to see
    /// them: each io worker by its doorbell, the acceptor by a
    /// connection out of its blocking accept.
    fn stop(&self, kill: bool) {
        if kill {
            self.killed.store(true, Ordering::SeqCst);
        }
        self.shutdown.store(true, Ordering::SeqCst);
        for inbox in &self.inboxes {
            inbox.ring();
        }
        let _ = TcpStream::connect(self.addr);
    }
}

/// `struct pollfd` of `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
/// Conditions `poll` reports whether asked or not: error, hang-up and
/// an invalid descriptor.
const POLL_GONE: c_short = 0x8 | 0x10 | 0x20;

#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

// SAFETY: matches `int poll(struct pollfd *fds, nfds_t nfds, int
// timeout)` of `<poll.h>` in the C library std already links, with
// `PollFd` laid out as `struct pollfd` and `NfdsT` as the platform's
// `nfds_t`; `wait_ready` is its only caller.
extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready and fills in every
/// `revents`. An interrupted `poll` is retried. Any other failure
/// (out of kernel memory) marks every descriptor ready for what it
/// asked, so the caller's next pass tries its I/O instead of stalling.
fn wait_ready(fds: &mut [PollFd]) {
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `fds.len()`
        // initialized records with the layout of `struct pollfd`
        // (`repr(C)`: int, short, short); `poll` writes only their
        // `revents` fields, within that length, and keeps no pointer
        // after it returns.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, -1) };
        if rc >= 0 {
            return;
        }
        if io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
            for fd in fds.iter_mut() {
                fd.revents = fd.events;
            }
            return;
        }
    }
}

/// A running ingestion server. Dropping it without [`join`] leaves the
/// threads running; call [`join`] (after a client sent `Shutdown`) for
/// an orderly stop, or [`kill`] to simulate a crash.
///
/// [`join`]: TelemetryServer::join
/// [`kill`]: TelemetryServer::kill
pub struct TelemetryServer {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    io_workers: Vec<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> TelemetryServerBuilder {
        TelemetryServerBuilder {
            addr: "127.0.0.1:0".to_string(),
            cfg: ServerConfig::default(),
        }
    }

    fn launch(addr: &str, cfg: ServerConfig) -> Result<TelemetryServer, TelemetryError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;

        // Recover (or freshly create) every shard partition. With no
        // WAL directory the stores start empty and nothing touches
        // disk.
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut recovered = 0u64;
        for index in 0..cfg.shards {
            let shard = match &cfg.wal_dir {
                Some(dir) => {
                    let (store, wal, replayed) =
                        wal::recover_shard(Path::new(dir), cfg.node_id, index)?;
                    recovered += replayed;
                    Shard {
                        store,
                        wal: Some(wal),
                    }
                }
                None => Shard {
                    store: AggregationStore::new(),
                    wal: None,
                },
            };
            shards.push(Mutex::new(shard));
        }
        let inboxes = (0..cfg.io_workers)
            .map(|_| Inbox::new())
            .collect::<io::Result<Vec<_>>>()?;

        let shared = Arc::new(Shared {
            addr: local,
            shards,
            view: Mutex::new(QueryView::default()),
            cfg: cfg.clone(),
            shutdown: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            batches_recovered: AtomicU64::new(recovered),
            controller: Mutex::new(FleetController::new()),
            inboxes,
        });

        let io_workers = (0..cfg.io_workers)
            .map(|index| {
                let worker = IoWorker {
                    index,
                    shared: Arc::clone(&shared),
                };
                thread::Builder::new()
                    .name(format!("hd-telemetry-io-{index}"))
                    .spawn(move || worker.run())
                    .expect("spawn io worker")
            })
            .collect();

        let acceptor = {
            let shared_a = Arc::clone(&shared);
            thread::Builder::new()
                .name("hd-telemetry-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, shared_a))
                .expect("spawn acceptor")
        };

        Ok(TelemetryServer {
            shared,
            acceptor: Some(acceptor),
            io_workers,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The configuration the server runs under.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.cfg
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        let mut ingest = IngestStats::default();
        for shard in &self.shared.shards {
            ingest.merge(shard.lock().expect("shard lock").store.stats());
        }
        ServerStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            nacks_sent: 0,
            decode_errors: self.shared.decode_errors.load(Ordering::Relaxed),
            batches_recovered: self.shared.batches_recovered.load(Ordering::Relaxed),
            ingest,
        }
    }

    /// The node's full aggregation state (all shard partitions folded)
    /// — what the wire `Export` request returns.
    pub fn export_state(&self) -> StoreSnapshot {
        self.shared.fold_stores().snapshot()
    }

    /// Compacts every shard on the calling thread: under the shard's
    /// lock, snapshots the store, writes the snapshot durably, then
    /// truncates the WAL. The lock is held throughout, so no append can
    /// land between the snapshot and the truncation. No-op (still `Ok`)
    /// without a WAL directory.
    pub fn compact(&self) -> Result<(), TelemetryError> {
        for (index, shard) in self.shared.shards.iter().enumerate() {
            let mut shard = shard.lock().expect("shard lock");
            let Shard { store, wal } = &mut *shard;
            if let Some(wal) = wal {
                // The snapshot lands before the WAL reset, so a crash in
                // between replays snapshot + stale records, which the
                // snapshot's fingerprint set absorbs as duplicates.
                let dir = wal.path().parent().unwrap_or(Path::new("."));
                wal::write_snapshot(&wal::snapshot_path(dir, index), &store.snapshot())?;
                wal.reset(self.shared.cfg.node_id, index)?;
            }
        }
        Ok(())
    }

    /// Simulates a crash: stops every thread as fast as possible
    /// WITHOUT snapshotting or notifying clients. In-memory state is
    /// discarded; the WAL (if configured) is all that survives —
    /// restarting over the same directory must replay to the identical
    /// aggregate.
    pub fn kill(mut self) {
        self.shared.stop(true);
        self.join_threads();
    }

    /// Waits for the acceptor and the io workers to exit, then returns
    /// the final stats. Requires a client to have sent
    /// [`Request::Shutdown`] first; connections still open at that
    /// point must close before the io workers can drain.
    pub fn join(mut self) -> ServerStats {
        self.join_threads();
        self.stats()
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.io_workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn acceptor_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut rr = 0usize;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let inbox = &shared.inboxes[rr % shared.inboxes.len()];
        inbox.conns.lock().expect("inbox lock").push(stream);
        inbox.ring();
        rr = rr.wrapping_add(1);
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Encoded responses, in request order, not yet taken by the socket.
    wbuf: Vec<u8>,
    /// Handling stopped at [`MAX_WBUF`], so complete requests may wait
    /// in `rbuf`; set while `wbuf` holds at least the cap.
    paused: bool,
    /// Dialect of the most recent request (responses echo it).
    version: WireVersion,
    /// Stop reading (clean EOF or poisoned by a decode error).
    closed_read: bool,
    /// Close the socket once every response has flushed.
    close_after_flush: bool,
    /// What the last `poll` reported for the socket.
    ready: c_short,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::with_capacity(16 * 1024),
            wbuf: Vec::new(),
            paused: false,
            version: WireVersion::V2,
            closed_read: false,
            close_after_flush: false,
            ready: 0,
        }
    }

    /// Queues `response` behind the ones before it, in the dialect of
    /// the request it answers.
    fn respond(&mut self, response: &Response) {
        self.wbuf
            .extend_from_slice(&encode_frame_in(self.version, response));
    }

    /// Whether to read more requests: not after EOF, and not while the
    /// peer leaves too many response bytes untaken.
    fn wants_read(&self) -> bool {
        !self.closed_read && self.wbuf.len() < MAX_WBUF
    }

    /// The `poll` events this connection waits for.
    fn interest(&self) -> c_short {
        let mut events = 0;
        if self.wants_read() {
            events |= POLLIN;
        }
        if !self.wbuf.is_empty() {
            events |= POLLOUT;
        }
        events
    }
}

/// One io worker's fixed context.
struct IoWorker {
    /// Which of `shared.inboxes` is this worker's.
    index: usize,
    shared: Arc<Shared>,
}

impl IoWorker {
    /// The multiplex loop: adopts new connections, serves every
    /// connection once, then blocks in `poll` until a socket is ready or
    /// the doorbell rings.
    fn run(self) {
        let shared = &*self.shared;
        let inbox = &shared.inboxes[self.index];
        let mut conns: Vec<Conn> = Vec::new();
        let mut scratch = [0u8; 64 * 1024];
        // The poll set: the doorbell, then one entry per connection in
        // `conns` order.
        let mut fds: Vec<PollFd> = Vec::new();
        loop {
            if shared.killed.load(Ordering::SeqCst) {
                return; // crash simulation: drop everything on the floor
            }
            conns.extend(inbox.take_conns().into_iter().map(Conn::new));
            conns.retain_mut(|conn| self.serve(conn, &mut scratch));
            if shared.shutdown.load(Ordering::SeqCst)
                && conns.is_empty()
                && inbox.conns.lock().expect("inbox lock").is_empty()
            {
                return;
            }

            fds.clear();
            fds.push(PollFd {
                fd: inbox.wake.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            fds.extend(conns.iter().map(|conn| PollFd {
                fd: conn.stream.as_raw_fd(),
                events: conn.interest(),
                revents: 0,
            }));
            // A hand-off after `take_conns` above rang the doorbell,
            // so this returns at once.
            wait_ready(&mut fds);
            if fds[0].revents != 0 {
                inbox.silence();
            }
            for (fd, conn) in fds[1..].iter().zip(&mut conns) {
                conn.ready = fd.revents;
            }
        }
    }

    /// One pass over a connection: reads once if `poll` reported it
    /// readable and it may read, handles complete frames up to the
    /// response cap, and writes what the socket takes of the responses.
    /// Requests left behind at the cap are handled in the same pass once
    /// the socket has taken enough. Returns whether to keep it.
    fn serve(&self, conn: &mut Conn, scratch: &mut [u8]) -> bool {
        let ready = std::mem::take(&mut conn.ready);
        if ready & (POLLIN | POLL_GONE) != 0 && conn.wants_read() {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.closed_read = true;
                    conn.close_after_flush = true;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    self.dispatch(conn);
                }
                Err(e) if is_transient(&e) => {}
                Err(_) => return false,
            }
        } else if ready & POLL_GONE != 0 {
            // Reset or closed with nothing more to read: the owed
            // responses can no longer be delivered.
            return false;
        }

        if !conn.wbuf.is_empty() {
            match conn.stream.write(&conn.wbuf) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.wbuf.drain(..n);
                }
                Err(e) if is_transient(&e) => {}
                Err(_) => return false,
            }
        }
        if conn.paused && conn.wbuf.len() < MAX_WBUF {
            self.dispatch(conn);
        }
        !(conn.close_after_flush && conn.wbuf.is_empty())
    }

    /// Decodes the complete frames in the read buffer and handles each
    /// as it decodes, while an upload's wire bytes are still in hand:
    /// the apply fingerprints and logs them instead of re-encoding the
    /// batch. Stops once the responses reach [`MAX_WBUF`], leaving the
    /// rest in the read buffer.
    fn dispatch(&self, conn: &mut Conn) {
        let mut rbuf = std::mem::take(&mut conn.rbuf);
        conn.paused = false;
        let drained = drain_requests(&mut rbuf, |request, version, batch_json| {
            conn.version = version;
            self.handle_request(request, batch_json, conn);
            conn.paused = conn.wbuf.len() >= MAX_WBUF;
            if conn.paused {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        conn.rbuf = rbuf;
        if let Err(err) = drained {
            self.shared.decode_errors.fetch_add(1, Ordering::Relaxed);
            conn.respond(&Response::Error(err.to_string()));
            conn.closed_read = true;
            conn.close_after_flush = true;
        }
    }

    fn handle_request(&self, request: Request, batch_json: Option<&[u8]>, conn: &mut Conn) {
        let shared = &*self.shared;
        let response = match request {
            Request::Upload(batch) => match shared.apply(&batch, batch_json) {
                Ok(outcome) => Response::Ack {
                    fingerprint: outcome.fingerprint,
                    duplicate: outcome.duplicate,
                },
                Err(e) => Response::Error(e),
            },
            // Written as encoded, the kept frame when nothing changed.
            Request::Query { top_n } => {
                shared.query(top_n, conn.version, &mut conn.wbuf);
                return;
            }
            Request::Export => Response::State(shared.fold_stores().snapshot()),
            Request::Hello { supported } => match WireVersion::negotiate(&supported) {
                Some(version) => {
                    conn.version = version;
                    Response::Welcome {
                        schema: version.tag().to_string(),
                    }
                }
                None => Response::Error(format!(
                    "no common dialect: server speaks {SUPPORTED_SCHEMAS:?}"
                )),
            },
            Request::Control(creq) => Response::Control(
                shared
                    .controller
                    .lock()
                    .expect("controller lock")
                    .handle(creq),
            ),
            Request::Shutdown => {
                conn.close_after_flush = true;
                shared.stop(false);
                Response::Bye
            }
        };
        conn.respond(&response);
    }
}

/// Errors after which the same I/O may succeed on a later pass.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, read_frame, write_frame, TelemetryItem};
    use hangdoctor::{HangBugReport, RootCause, RootKind};
    use hd_simrt::ActionUid;

    fn upload_once(addr: SocketAddr, batch: &UploadBatch) -> Response {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let frame = encode_frame(&Request::Upload(batch.clone()));
        write_frame(&mut stream, &frame).expect("write");
        read_frame(&mut stream).expect("response")
    }

    fn shutdown(addr: SocketAddr) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let frame = encode_frame(&Request::Shutdown);
        write_frame(&mut stream, &frame).expect("write");
        let resp: Response = read_frame(&mut stream).expect("bye");
        assert!(matches!(resp, Response::Bye));
    }

    #[test]
    fn upload_query_shutdown_cycle() {
        let server = TelemetryServer::builder().start().unwrap();
        let addr = server.local_addr();

        let batch = UploadBatch {
            app: "app".to_string(),
            device: 1,
            seq: 0,
            items: vec![TelemetryItem::Report(HangBugReport::new("app"))],
        };
        match upload_once(addr, &batch) {
            Response::Ack { duplicate, .. } => assert!(!duplicate),
            other => panic!("expected Ack, got {other:?}"),
        }
        // Same batch again: absorbed as a duplicate.
        match upload_once(addr, &batch) {
            Response::Ack { duplicate, .. } => assert!(duplicate),
            other => panic!("expected Ack, got {other:?}"),
        }

        let mut stream = TcpStream::connect(addr).unwrap();
        let frame = encode_frame(&Request::Query { top_n: 5 });
        write_frame(&mut stream, &frame).unwrap();
        match read_frame::<Response>(&mut stream).unwrap() {
            Response::Report(report) => {
                assert_eq!(report.devices, 1);
                assert_eq!(report.apps, 1);
            }
            other => panic!("expected Report, got {other:?}"),
        }
        drop(stream);

        shutdown(addr);
        let stats = server.join();
        assert_eq!(stats.ingest.batches_applied, 1);
        assert_eq!(stats.ingest.duplicates_absorbed, 1);
        assert_eq!(stats.nacks_sent, 0);
    }

    #[test]
    fn malformed_frame_gets_a_typed_error_response() {
        let server = TelemetryServer::builder().start().unwrap();
        let addr = server.local_addr();

        let query = encode_frame(&Request::Query { top_n: 1 });
        let mut bad_magic = query.clone();
        bad_magic[0] = b'Z';
        // The retired v1 dialect: same length, so the frame header stays
        // valid and only the envelope tag is rejected.
        let v1 = String::from_utf8(query.clone())
            .unwrap()
            .replace(crate::wire::SCHEMA, "hang-doctor/telemetry/v1")
            .into_bytes();
        assert_eq!(v1.len(), query.len());
        let cases: [(&[u8], &str); 2] = [
            (&bad_magic, "magic"),
            (&v1, "unexpected schema tag `hang-doctor/telemetry/v1`"),
        ];
        for (seen, (frame, want)) in cases.into_iter().enumerate() {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(&mut stream, frame).unwrap();
            match read_frame::<Response>(&mut stream).unwrap() {
                Response::Error(msg) => assert!(msg.contains(want), "got: {msg}"),
                other => panic!("expected Error, got {other:?}"),
            }
            drop(stream);
            assert_eq!(server.stats().decode_errors, seen as u64 + 1);
            // The server keeps serving the next connection.
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(&mut stream, &query).unwrap();
            assert!(matches!(
                read_frame::<Response>(&mut stream).unwrap(),
                Response::Report(_)
            ));
        }

        shutdown(addr);
        let stats = server.join();
        assert_eq!(stats.decode_errors, cases.len() as u64);
    }

    #[test]
    fn builder_rejects_zero_shards_and_zero_queue_with_typed_errors() {
        let rejected_field = |r: Result<TelemetryServer, TelemetryError>| match r {
            Err(TelemetryError::Config { field, .. }) => field,
            Err(other) => panic!("expected Config error, got {other:?}"),
            Ok(_) => panic!("expected Config error, got a running server"),
        };
        let field = rejected_field(TelemetryServer::builder().shards(0).start());
        assert_eq!(field, "shards");
        let field = rejected_field(TelemetryServer::builder().io_workers(0).start());
        assert_eq!(field, "io_workers");
    }

    #[test]
    fn hello_negotiates_the_newest_common_dialect() {
        let server = TelemetryServer::builder().start().unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = Request::Hello {
            supported: vec![
                "hang-doctor/telemetry/v99".to_string(),
                crate::wire::SCHEMA.to_string(),
            ],
        };
        write_frame(&mut stream, &encode_frame(&hello)).unwrap();
        match read_frame::<Response>(&mut stream).unwrap() {
            Response::Welcome { schema } => assert_eq!(schema, crate::wire::SCHEMA),
            other => panic!("expected Welcome, got {other:?}"),
        }
        drop(stream);
        shutdown(addr);
        server.join();
    }

    #[test]
    fn pipelined_uploads_ack_in_request_order() {
        let server = TelemetryServer::builder().shards(2).start().unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        // Fire 8 uploads without reading a single response.
        let mut fingerprints = Vec::new();
        for seq in 0..8u64 {
            let batch = UploadBatch {
                app: "pipeline".to_string(),
                device: 9,
                seq,
                items: vec![TelemetryItem::Report(HangBugReport::new("pipeline"))],
            };
            fingerprints.push(crate::fingerprint::batch_fingerprint(&batch));
            write_frame(&mut stream, &encode_frame(&Request::Upload(batch))).unwrap();
        }
        // Responses come back in request order.
        for fp in fingerprints {
            match read_frame::<Response>(&mut stream).unwrap() {
                Response::Ack { fingerprint, .. } => assert_eq!(fingerprint, fp),
                other => panic!("expected Ack, got {other:?}"),
            }
        }
        drop(stream);
        shutdown(addr);
        let stats = server.join();
        assert_eq!(stats.ingest.batches_applied, 8);
    }

    #[test]
    fn pipelined_answers_stay_within_the_response_cap() {
        let server = TelemetryServer::builder().start().unwrap();
        let shared = Arc::clone(&server.shared);
        for device in 0..64 {
            let mut report = HangBugReport::new("cap");
            report.note_execution(device, ActionUid(1), "onOpen");
            let root = RootCause {
                symbol: format!("java.io.File.read{}", device % 8),
                file: "Open.java".to_string(),
                line: 12,
                occurrence_factor: 1.0,
                kind: RootKind::BlockingApi,
            };
            report.record_bug(device, ActionUid(1), &root, 150_000_000);
            let batch = UploadBatch {
                app: "cap".to_string(),
                device,
                seq: 0,
                items: vec![TelemetryItem::Report(report)],
            };
            shared.apply(&batch, None).unwrap();
        }
        let snapshot = server.export_state();
        let state = encode_frame(&Response::State(snapshot.clone()));
        let report = AggregationStore::from_snapshot(&snapshot).report(5);
        let answers = [state, encode_frame(&Response::Report(report))];
        let requests = [
            encode_frame(&Request::Export),
            encode_frame(&Request::Query { top_n: 5 }),
        ];

        // A peer pipelines 64 KiB of Export and Query frames and reads
        // nothing.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(stream);
        let mut want = Vec::new();
        let mut i = 0;
        while conn.rbuf.len() < 64 * 1024 {
            conn.rbuf.extend_from_slice(&requests[i % 2]);
            want.extend_from_slice(&answers[i % 2]);
            i += 1;
        }
        assert!(want.len() > 2 * MAX_WBUF, "{} answer bytes", want.len());
        let bound = MAX_WBUF + answers[0].len();
        let worker = IoWorker { index: 0, shared };
        let mut scratch = vec![0u8; 64 * 1024];
        worker.dispatch(&mut conn);
        assert!(conn.wbuf.len() <= bound, "queued {} bytes", conn.wbuf.len());
        for _ in 0..16 {
            assert!(worker.serve(&mut conn, &mut scratch));
            assert!(conn.wbuf.len() <= bound, "queued {} bytes", conn.wbuf.len());
        }

        // Once the peer reads, every answer arrives, in request order.
        let len = want.len();
        let reader = thread::spawn(move || {
            let mut got = vec![0u8; len];
            peer.read_exact(&mut got).unwrap();
            got
        });
        while !reader.is_finished() {
            assert!(worker.serve(&mut conn, &mut scratch));
            assert!(conn.wbuf.len() <= bound, "queued {} bytes", conn.wbuf.len());
            thread::yield_now();
        }
        assert!(
            reader.join().unwrap() == want,
            "answers out of order or wrong"
        );
        assert!(conn.rbuf.is_empty() && conn.wbuf.is_empty());
        shutdown(server.local_addr());
        server.join();
    }
}
