//! The TCP ingestion server.
//!
//! Thread layout:
//!
//! ```text
//! acceptor ──► round-robin hand-off to a FIXED pool of I/O workers,
//!                 │  then rings that worker's doorbell
//!                 ▼
//!   io worker: blocks in poll(2) on its sockets + its doorbell;
//!              readable → batch frame decode → dispatch
//!                 │  shard = fnv(app, device) % shards
//!                 ▼
//!          bounded crossbeam channel per shard   ◄── explicit backpressure:
//!                 │                                  try_send Full → NACK
//!                 ▼
//!          shard worker ──► WAL append ──► owned shard store
//!                 │
//!                 └──► completion queue (+ doorbell if the io worker
//!                      is parked) → io worker flushes ACK
//! ```
//!
//! All connections are multiplexed over a fixed I/O worker pool on
//! nonblocking sockets. A worker sleeps in `poll` until one of its
//! sockets is ready or its **doorbell** rings — a byte on a Unix socket
//! pair whose read end sits in the poll set. Readable sockets are read,
//! *every* complete frame is carved out in one pass ([`drain_frames`]),
//! batches are dispatched, and responses flush as shard completions
//! arrive, so pipelined clients keep dozens of batches in flight on one
//! connection. An idle server makes no wake-ups at all.
//!
//! The doorbell rings when another thread has handed the worker
//! something: the acceptor after each new connection, `Shutdown` and
//! [`TelemetryServer::kill`] for every worker, and a shard worker after
//! a completion — but only when the io worker is *parked*. The worker
//! raises its parked flag, re-checks its completion and new-connection
//! queues, and only then polls; a shard worker swaps the flag back down
//! after queueing its completion and rings only if it was up (`SeqCst`
//! on both sides). A busy worker, which finds the completion on its next
//! pass anyway, is never rung.
//!
//! One peer cannot make the server hold unbounded state: a connection
//! owing 1,024 responses, or holding 1 MiB of responses the peer has not
//! taken, is not read again until it drains.
//!
//! Properties that carry the correctness argument:
//!
//! * **Per-device ordering.** A device's batches arrive on one
//!   connection (decoded in arrival order by one io worker) and all
//!   hash to one shard, so the shard worker applies them in upload
//!   order.
//! * **ACK after apply.** A response slot only becomes ready once the
//!   shard worker has WAL-appended and merged the batch, so a client
//!   that has its ACKs can immediately query and see its own writes.
//!   Responses flush in request order per connection, which is what
//!   lets clients pipeline.
//! * **Sharded state.** Each shard worker owns an
//!   [`AggregationStore`] partition. The server keeps one
//!   [`ReportView`]: each app's report rows joined across the
//!   partitions. A query takes every shard's lock in index order, then
//!   the view's, drains the apps each partition changed since the last
//!   query, re-joins only those straight from the partitions, and ranks
//!   the kept rows. A root cause's action may have executions in a shard
//!   whose devices never hung on it, so a join needs every partition at
//!   once; holding all the locks also makes the answer one consistent
//!   cut. `Export` folds the partitions' snapshots through the CRDT
//!   merge ([`AggregationStore::absorb`]) — the same fold the cluster
//!   coordinator runs across nodes.
//! * **Durability.** With a WAL directory configured, every batch is
//!   appended to the shard's log *before* it merges, so
//!   kill-and-restart replays to the identical aggregate
//!   (`tests/wal.rs`, and hd-bench's cluster differential).
//!
//! Backpressure is explicit and non-blocking: when a shard queue is
//! full the io worker answers a retryable [`Response::Nack`] instead of
//! stalling the connection, and the batch is **not** applied.

use std::collections::{HashMap, VecDeque};
use std::ffi::{c_int, c_short};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use crossbeam::queue::SegQueue;
use serde::{Deserialize, Serialize};

use hd_control::FleetController;

use crate::error::TelemetryError;
use crate::fingerprint::{batch_fingerprint, shard_for};
use crate::store::{AggregationStore, IngestOutcome, IngestStats, ReportView, StoreSnapshot};
use crate::wal::{self, Wal};
use crate::wire::{
    drain_frames_with, encode_frame_in, upload_fingerprint_from_payload, Request, Response,
    UploadBatch, WireVersion, SUPPORTED_SCHEMAS,
};

/// Server tuning knobs. Construct via [`TelemetryServer::builder`],
/// which validates every field.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Shard workers (ingest parallelism); each owns a store partition.
    pub shards: usize,
    /// Bounded queue depth per shard; a full queue NACKs.
    pub queue_capacity: usize,
    /// Backoff hint carried by NACKs, ms.
    pub nack_retry_ms: u64,
    /// I/O workers multiplexing the connections.
    pub io_workers: usize,
    /// Durability directory for per-shard WALs and snapshots; `None`
    /// runs in-memory only.
    pub wal_dir: Option<String>,
    /// This node's id (recorded in WAL headers; the cluster routing
    /// table index).
    pub node_id: u64,
    /// Auto-compact a shard after this many applied batches
    /// (0 = compaction only via [`TelemetryServer::compact`]).
    pub snapshot_every: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 4,
            queue_capacity: 64,
            nack_retry_ms: 1,
            io_workers: 2,
            wal_dir: None,
            node_id: 0,
            snapshot_every: 0,
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

    /// Sets the number of shard workers (store partitions).
    pub fn shards(mut self, v: usize) -> Self {
        self.cfg.shards = v;
        self
    }

    /// Sets the bounded queue depth per shard.
    pub fn queue_capacity(mut self, v: usize) -> Self {
        self.cfg.queue_capacity = v;
        self
    }

    /// Sets the backoff hint carried by NACKs, ms.
    pub fn nack_retry_ms(mut self, v: u64) -> Self {
        self.cfg.nack_retry_ms = v;
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

    /// Auto-compacts a shard after `v` applied batches (0 disables).
    pub fn snapshot_every(mut self, v: u64) -> Self {
        self.cfg.snapshot_every = v;
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
        if self.cfg.queue_capacity == 0 {
            return Err(TelemetryError::Config {
                field: "queue_capacity",
                reason: "must be at least 1 (a zero-depth queue NACKs everything)".to_string(),
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
    /// Upload batches accepted into a shard queue.
    pub batches_accepted: u64,
    /// Retryable NACKs sent on queue-full backpressure.
    pub nacks_sent: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Batches recovered from WAL/snapshot replay at startup.
    pub batches_recovered: u64,
    /// Ingest counters folded across the shard stores.
    pub ingest: IngestStats,
}

/// A completed shard apply, routed back to the owning io worker.
struct Completion {
    conn: u64,
    slot: u64,
    result: Result<IngestOutcome, String>,
}

/// One unit of shard work.
enum ShardJob {
    /// Apply a batch (WAL-append first), then complete `(conn, slot)`
    /// on io worker `io`.
    Ingest {
        batch: UploadBatch,
        /// Ingest fingerprint recovered from the wire bytes, when the
        /// frame was canonical; `None` makes the shard worker
        /// re-serialize.
        fingerprint: Option<u64>,
        io: usize,
        conn: u64,
        slot: u64,
    },
    /// Snapshot the shard store and truncate its WAL.
    Compact {
        done: mpsc::Sender<Result<(), String>>,
    },
}

/// Responses a connection may owe before it is no longer read: far
/// above any pipelining window a client keeps in flight (at most 32),
/// so only a peer that sends without reading reaches it.
const MAX_PENDING: usize = 1024;

/// Response bytes a connection may leave untaken before it is no longer
/// read.
const MAX_WBUF: usize = 1 << 20;

/// What other threads hand one io worker, and the doorbell that wakes
/// it to look.
struct Inbox {
    /// Accepted connections, from the acceptor.
    conns: SegQueue<TcpStream>,
    /// Applied batches of this worker's connections, from the shards.
    done: Sender<Completion>,
    /// Write end of the doorbell.
    bell: UnixStream,
    /// Read end of the doorbell, in the worker's poll set.
    wake: UnixStream,
    /// Up while the worker is in, or about to enter, `poll`.
    parked: AtomicBool,
}

impl Inbox {
    fn new(done: Sender<Completion>) -> io::Result<Inbox> {
        let (bell, wake) = UnixStream::pair()?;
        bell.set_nonblocking(true)?;
        wake.set_nonblocking(true)?;
        Ok(Inbox {
            conns: SegQueue::new(),
            done,
            bell,
            wake,
            parked: AtomicBool::new(false),
        })
    }

    /// Wakes the worker out of `poll`, or makes its next `poll` return
    /// at once. A write that would block is ignored: the bytes already
    /// pending wake the worker just the same.
    fn ring(&self) {
        let _ = (&self.bell).write(&[1]);
    }

    /// Rings only if the worker is parked — a worker still running its
    /// pass sees the caller's completion without one.
    fn ring_if_parked(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            self.ring();
        }
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
}

struct Shared {
    /// The bound listener address.
    addr: SocketAddr,
    /// One partition per shard. Lock order: stores, then `view`. A
    /// `Query` takes every store lock, in index order, then the view's,
    /// and holds them all while it re-joins the changed apps; every
    /// other holder (a shard worker applying a batch, compaction,
    /// `stats`, `Export`) holds one store lock at a time and takes no
    /// other lock under it. So no two threads can each wait for a lock
    /// the other holds.
    stores: Vec<Mutex<AggregationStore>>,
    /// The Hang Bug Report as of the last `Query`. Only
    /// [`Shared::report`] drains the stores' changed apps, so the view
    /// has seen every change but those it re-joins next.
    view: Mutex<ReportView>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    killed: AtomicBool,
    connections: AtomicU64,
    batches_accepted: AtomicU64,
    nacks_sent: AtomicU64,
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
    /// Folds every shard partition's snapshot through the CRDT merge —
    /// the full state, fingerprint set included.
    fn fold_stores(&self) -> AggregationStore {
        let mut folded = AggregationStore::new();
        for store in &self.stores {
            folded.absorb(&store.lock().expect("store lock").snapshot());
        }
        folded
    }

    /// The top-N report over every shard partition. Under every shard's
    /// lock at once and then the view's (the lock order above), the view
    /// re-joins the apps the shards changed since the last query, so the
    /// answer is one consistent cut across the shards. The stores are
    /// released before the kept rows are ranked.
    fn report(&self, top_n: usize) -> crate::report::TelemetryReport {
        let mut guards: Vec<_> = self
            .stores
            .iter()
            .map(|s| s.lock().expect("store lock"))
            .collect();
        let mut view = self.view.lock().expect("view lock");
        let mut parts: Vec<&mut AggregationStore> = guards.iter_mut().map(|g| &mut **g).collect();
        view.update(&mut parts);
        drop(parts);
        drop(guards);
        view.report(top_n)
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
    senders: Vec<Sender<ShardJob>>,
    acceptor: Option<JoinHandle<()>>,
    io_workers: Vec<JoinHandle<()>>,
    shard_workers: Vec<JoinHandle<()>>,
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
        let mut stores = Vec::with_capacity(cfg.shards);
        let mut wals: Vec<Option<Wal>> = Vec::with_capacity(cfg.shards);
        let mut recovered = 0u64;
        for shard in 0..cfg.shards {
            match &cfg.wal_dir {
                Some(dir) => {
                    let dir = PathBuf::from(dir);
                    let (store, wal, replayed) = wal::recover_shard(&dir, cfg.node_id, shard)?;
                    recovered += replayed;
                    stores.push(Mutex::new(store));
                    wals.push(Some(wal));
                }
                None => {
                    stores.push(Mutex::new(AggregationStore::new()));
                    wals.push(None);
                }
            }
        }

        // An inbox per io worker, with a completion channel whose
        // capacity covers every slot the shards can hold plus slack, so
        // shard workers never stall on it.
        let completion_cap = cfg.shards * cfg.queue_capacity + 64;
        let mut inboxes = Vec::with_capacity(cfg.io_workers);
        let mut completions = Vec::with_capacity(cfg.io_workers);
        for _ in 0..cfg.io_workers {
            let (done_tx, done_rx) = bounded(completion_cap);
            inboxes.push(Inbox::new(done_tx)?);
            completions.push(done_rx);
        }

        let shared = Arc::new(Shared {
            addr: local,
            stores,
            view: Mutex::new(ReportView::new()),
            cfg: cfg.clone(),
            shutdown: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            batches_accepted: AtomicU64::new(0),
            nacks_sent: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            batches_recovered: AtomicU64::new(recovered),
            controller: Mutex::new(FleetController::new()),
            inboxes,
        });

        let mut senders = Vec::with_capacity(cfg.shards);
        let mut shard_workers = Vec::with_capacity(cfg.shards);
        for (shard, wal) in wals.into_iter().enumerate() {
            let (tx, rx): (Sender<ShardJob>, Receiver<ShardJob>) = bounded(cfg.queue_capacity);
            let shared_w = Arc::clone(&shared);
            shard_workers.push(
                thread::Builder::new()
                    .name(format!("hd-telemetry-shard-{shard}"))
                    .spawn(move || shard_worker(shard, rx, wal, shared_w))
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }

        let mut io_workers = Vec::with_capacity(cfg.io_workers);
        for (index, done_rx) in completions.into_iter().enumerate() {
            let worker = IoWorker {
                index,
                senders: senders.clone(),
                shared: Arc::clone(&shared),
                next_slot: 0,
            };
            io_workers.push(
                thread::Builder::new()
                    .name(format!("hd-telemetry-io-{index}"))
                    .spawn(move || worker.run(done_rx))
                    .expect("spawn io worker"),
            );
        }

        let acceptor = {
            let shared_a = Arc::clone(&shared);
            thread::Builder::new()
                .name("hd-telemetry-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, shared_a))
                .expect("spawn acceptor")
        };

        Ok(TelemetryServer {
            shared,
            senders,
            acceptor: Some(acceptor),
            io_workers,
            shard_workers,
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
        for store in &self.shared.stores {
            ingest.merge(store.lock().expect("store lock").stats());
        }
        ServerStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            batches_accepted: self.shared.batches_accepted.load(Ordering::Relaxed),
            nacks_sent: self.shared.nacks_sent.load(Ordering::Relaxed),
            decode_errors: self.shared.decode_errors.load(Ordering::Relaxed),
            batches_recovered: self.shared.batches_recovered.load(Ordering::Relaxed),
            ingest,
        }
    }

    /// The aggregated top-N report over everything ingested so far
    /// (all shard partitions folded).
    pub fn report(&self, top_n: usize) -> crate::report::TelemetryReport {
        self.shared.report(top_n)
    }

    /// The node's full aggregation state (all shard partitions folded)
    /// — what the wire `Export` request returns.
    pub fn export_state(&self) -> StoreSnapshot {
        self.shared.fold_stores().snapshot()
    }

    /// Compacts every shard: snapshots the store, then truncates the
    /// WAL. No-op (still `Ok`) without a WAL directory.
    pub fn compact(&self) -> Result<(), TelemetryError> {
        let mut waits = Vec::with_capacity(self.senders.len());
        for tx in &self.senders {
            let (done_tx, done_rx) = mpsc::channel();
            if tx.send(ShardJob::Compact { done: done_tx }).is_err() {
                return Err(TelemetryError::Io("shard worker gone".to_string()));
            }
            waits.push(done_rx);
        }
        for rx in waits {
            match rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(TelemetryError::Io(e)),
                Err(_) => return Err(TelemetryError::Io("shard worker gone".to_string())),
            }
        }
        Ok(())
    }

    /// Simulates a crash: stops every thread as fast as possible
    /// WITHOUT snapshotting, flushing queues gracefully, or notifying
    /// clients. In-memory state is discarded; the WAL (if configured)
    /// is all that survives — restarting over the same directory must
    /// replay to the identical aggregate.
    pub fn kill(mut self) {
        self.shared.stop(true);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.io_workers.drain(..) {
            let _ = w.join();
        }
        self.senders.clear();
        for w in self.shard_workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Waits for the acceptor, io workers, and shard workers to exit,
    /// then returns the final stats. Requires a client to have sent
    /// [`Request::Shutdown`] first; connections still open at that
    /// point must close before the io workers can drain.
    pub fn join(mut self) -> ServerStats {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.io_workers.drain(..) {
            let _ = w.join();
        }
        // Release the server's own queue handles; the shard workers
        // exit once the last io-worker clone is gone and the queue is
        // empty.
        self.senders.clear();
        for w in self.shard_workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
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
        inbox.conns.push(stream);
        inbox.ring();
        rr = rr.wrapping_add(1);
    }
}

/// One queued response on a connection. Responses flush strictly in
/// request order.
struct PendingEntry {
    response: Pending,
    version: WireVersion,
}

enum Pending {
    /// Waits for the shard completion of this slot.
    Slot(u64),
    Ready(Response),
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    pending: VecDeque<PendingEntry>,
    /// Dialect of the most recent request (responses echo it).
    version: WireVersion,
    /// Stop reading (clean EOF or poisoned by a decode error).
    closed_read: bool,
    /// Close the socket once everything queued has flushed.
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
            pending: VecDeque::new(),
            version: WireVersion::V2,
            closed_read: false,
            close_after_flush: false,
            ready: 0,
        }
    }

    fn push_ready(&mut self, response: Response) {
        self.pending.push_back(PendingEntry {
            response: Pending::Ready(response),
            version: self.version,
        });
    }

    fn push_waiting(&mut self, slot: u64) {
        self.pending.push_back(PendingEntry {
            response: Pending::Slot(slot),
            version: self.version,
        });
    }

    fn complete(&mut self, slot: u64, result: Result<IngestOutcome, String>) {
        let waiting = self
            .pending
            .iter_mut()
            .find(|e| matches!(e.response, Pending::Slot(s) if s == slot));
        if let Some(entry) = waiting {
            entry.response = Pending::Ready(match result {
                Ok(outcome) => Response::Ack {
                    fingerprint: outcome.fingerprint,
                    duplicate: outcome.duplicate,
                },
                Err(e) => Response::Error(e),
            });
        }
    }

    /// Whether to read more requests: not after EOF, and not while the
    /// peer leaves too many responses owed or untaken.
    fn wants_read(&self) -> bool {
        !self.closed_read && self.pending.len() < MAX_PENDING && self.wbuf.len() < MAX_WBUF
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
    senders: Vec<Sender<ShardJob>>,
    shared: Arc<Shared>,
    next_slot: u64,
}

impl IoWorker {
    /// The multiplex loop: adopts new connections, applies shard
    /// completions, serves every connection once, then blocks in `poll`
    /// until a socket is ready or the doorbell rings.
    fn run(mut self, done_rx: Receiver<Completion>) {
        let shared = Arc::clone(&self.shared);
        let inbox = &shared.inboxes[self.index];
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_conn_id = 0u64;
        let mut scratch = [0u8; 64 * 1024];
        // The poll set: the doorbell, then one entry per connection in
        // `ids` order.
        let mut fds: Vec<PollFd> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        loop {
            if shared.killed.load(Ordering::SeqCst) {
                return; // crash simulation: drop everything on the floor
            }
            while let Some(stream) = inbox.conns.pop() {
                conns.insert(next_conn_id, Conn::new(stream));
                next_conn_id += 1;
            }
            while let Ok(done) = done_rx.try_recv() {
                if let Some(conn) = conns.get_mut(&done.conn) {
                    conn.complete(done.slot, done.result);
                }
            }
            conns.retain(|&id, conn| self.serve(id, conn, &mut scratch));
            if shared.shutdown.load(Ordering::SeqCst) && conns.is_empty() && inbox.conns.is_empty()
            {
                return;
            }

            fds.clear();
            ids.clear();
            fds.push(PollFd {
                fd: inbox.wake.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            for (&id, conn) in &conns {
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events: conn.interest(),
                    revents: 0,
                });
                ids.push(id);
            }
            // Park. A shard worker queueing a completion after the
            // re-check below finds the flag up and rings.
            inbox.parked.store(true, Ordering::SeqCst);
            if !done_rx.is_empty() || !inbox.conns.is_empty() {
                inbox.parked.store(false, Ordering::SeqCst);
                continue;
            }
            wait_ready(&mut fds);
            inbox.parked.store(false, Ordering::SeqCst);
            if fds[0].revents != 0 {
                inbox.silence();
            }
            for (fd, id) in fds[1..].iter().zip(&ids) {
                if let Some(conn) = conns.get_mut(id) {
                    conn.ready = fd.revents;
                }
            }
        }
    }

    /// One pass over a connection: reads once if `poll` reported it
    /// readable and it may read, dispatches every complete frame, moves
    /// the ready prefix of its responses into the write buffer and
    /// writes what the socket takes. Returns whether to keep it.
    fn serve(&mut self, id: u64, conn: &mut Conn, scratch: &mut [u8]) -> bool {
        let ready = std::mem::take(&mut conn.ready);
        if ready & (POLLIN | POLL_GONE) != 0 && conn.wants_read() {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.closed_read = true;
                    conn.close_after_flush = true;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    self.dispatch(id, conn);
                }
                Err(e) if is_transient(&e) => {}
                Err(_) => return false,
            }
        } else if ready & POLL_GONE != 0 {
            // Reset or closed with nothing more to read: the owed
            // responses can no longer be delivered.
            return false;
        }

        // Responses flush in request order: only the ready prefix moves.
        while let Some(PendingEntry {
            response: Pending::Ready(response),
            version,
        }) = conn.pending.front()
        {
            conn.wbuf
                .extend_from_slice(&encode_frame_in(*version, response));
            conn.pending.pop_front();
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
        !(conn.close_after_flush && conn.wbuf.is_empty() && conn.pending.is_empty())
    }

    /// Decodes every complete frame in the read buffer and handles each.
    fn dispatch(&mut self, id: u64, conn: &mut Conn) {
        // Fingerprint upload bodies straight off the wire while the
        // payload bytes are still in hand — the shard worker then skips
        // re-serializing the batch.
        let drained =
            drain_frames_with::<Request, _>(&mut conn.rbuf, |payload, req, version| match req {
                Request::Upload(_) => upload_fingerprint_from_payload(payload, version),
                _ => None,
            });
        match drained {
            Ok(requests) => {
                for (request, version, fingerprint) in requests {
                    conn.version = version;
                    self.handle_request(request, fingerprint, id, conn);
                }
            }
            Err(err) => {
                self.shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                conn.push_ready(Response::Error(err.to_string()));
                conn.closed_read = true;
                conn.close_after_flush = true;
            }
        }
    }

    fn handle_request(
        &mut self,
        request: Request,
        wire_fingerprint: Option<u64>,
        conn_id: u64,
        conn: &mut Conn,
    ) {
        let shared = &*self.shared;
        match request {
            Request::Upload(batch) => {
                let shard = shard_for(&batch.app, batch.device, self.senders.len());
                let slot = self.next_slot;
                self.next_slot += 1;
                match self.senders[shard].try_send(ShardJob::Ingest {
                    batch,
                    fingerprint: wire_fingerprint,
                    io: self.index,
                    conn: conn_id,
                    slot,
                }) {
                    Ok(()) => {
                        shared.batches_accepted.fetch_add(1, Ordering::Relaxed);
                        conn.push_waiting(slot);
                    }
                    Err(TrySendError::Full(_)) => {
                        shared.nacks_sent.fetch_add(1, Ordering::Relaxed);
                        conn.push_ready(Response::Nack {
                            retry_after_ms: shared.cfg.nack_retry_ms,
                        });
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        conn.push_ready(Response::Error("shard worker gone".to_string()));
                    }
                }
            }
            Request::Query { top_n } => {
                conn.push_ready(Response::Report(shared.report(top_n)));
            }
            Request::Export => {
                let snapshot = shared.fold_stores().snapshot();
                conn.push_ready(Response::State(snapshot));
            }
            Request::Hello { supported } => match WireVersion::negotiate(&supported) {
                Some(version) => {
                    conn.version = version;
                    conn.push_ready(Response::Welcome {
                        schema: version.tag().to_string(),
                    });
                }
                None => {
                    conn.push_ready(Response::Error(format!(
                        "no common dialect: server speaks {SUPPORTED_SCHEMAS:?}"
                    )));
                }
            },
            Request::Control(creq) => {
                let response = shared
                    .controller
                    .lock()
                    .expect("controller lock")
                    .handle(creq);
                conn.push_ready(Response::Control(response));
            }
            Request::Shutdown => {
                conn.push_ready(Response::Bye);
                conn.close_after_flush = true;
                shared.stop(false);
            }
        }
    }
}

/// Errors after which the same I/O may succeed on a later pass.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    )
}

fn shard_worker(shard: usize, rx: Receiver<ShardJob>, mut wal: Option<Wal>, shared: Arc<Shared>) {
    let mut since_snapshot = 0u64;
    while let Ok(job) = rx.recv() {
        match job {
            ShardJob::Ingest {
                batch,
                fingerprint,
                io,
                conn,
                slot,
            } => {
                let fingerprint = fingerprint.unwrap_or_else(|| batch_fingerprint(&batch));
                let mut store = shared.stores[shard].lock().expect("store lock");
                let result = if store.contains(fingerprint) {
                    Ok(store.ingest_prehashed(&batch, fingerprint))
                } else {
                    // WAL-append BEFORE the merge: a crash after the
                    // append replays the batch; a crash before it loses
                    // an un-ACKed batch the uploader will retry.
                    match wal.as_mut().map(|w| w.append(fingerprint, &batch)) {
                        Some(Err(e)) => Err(format!("wal append failed: {e}")),
                        _ => {
                            since_snapshot += 1;
                            Ok(store.ingest_prehashed(&batch, fingerprint))
                        }
                    }
                };
                drop(store);
                // The io worker may have dropped the connection; the
                // apply above still counts.
                let inbox = &shared.inboxes[io];
                let _ = inbox.done.send(Completion { conn, slot, result });
                inbox.ring_if_parked();

                if let Some(w) = wal.as_mut() {
                    if shared.cfg.snapshot_every > 0
                        && since_snapshot >= shared.cfg.snapshot_every
                        && compact_shard(shard, w, &shared).is_ok()
                    {
                        since_snapshot = 0;
                    }
                }
            }
            ShardJob::Compact { done } => {
                let result = match wal.as_mut() {
                    Some(w) => compact_shard(shard, w, &shared).map_err(|e| e.to_string()),
                    None => Ok(()),
                };
                if result.is_ok() {
                    since_snapshot = 0;
                }
                let _ = done.send(result);
            }
        }
    }
}

/// Snapshot-then-truncate. The snapshot rename lands before the WAL
/// reset, so a crash in between replays snapshot + stale records —
/// which the snapshot's fingerprint set absorbs as duplicates.
fn compact_shard(shard: usize, wal: &mut Wal, shared: &Shared) -> Result<(), TelemetryError> {
    let snapshot = shared.stores[shard].lock().expect("store lock").snapshot();
    let dir = wal
        .path()
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    wal::write_snapshot(&wal::snapshot_path(&dir, shard), &snapshot)?;
    wal.reset(shared.cfg.node_id, shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, read_frame, write_frame, TelemetryItem};
    use hangdoctor::HangBugReport;

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
        let field = rejected_field(TelemetryServer::builder().queue_capacity(0).start());
        assert_eq!(field, "queue_capacity");
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
        assert_eq!(stats.batches_accepted, 8);
    }
}
