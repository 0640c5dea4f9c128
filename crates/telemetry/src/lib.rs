//! # hd-telemetry — networked hang-report ingestion and aggregation
//!
//! Hang Doctor's runtime detectors produce per-device
//! [`HangBugReport`](hangdoctor::HangBugReport)s; the paper's workflow
//! has developers triage them fleet-wide. This crate is that backend:
//! a TCP ingestion cluster, a device-side uploader, and a cross-device
//! aggregation store that clusters reports into hang groups keyed
//! `(app, action, root-cause API)` and exports the top-N ranked
//! [`TelemetryReport`].
//!
//! Built entirely on `std::net` and `std::sync` — no external service
//! dependencies. Unix-only: the server's io workers block in `poll(2)`,
//! declared in `server.rs` (the crate's one `unsafe` call).
//!
//! Module map:
//!
//! * [`wire`] — the `hang-doctor/telemetry/v2` frame protocol:
//!   length-prefixed JSON frames, typed [`FrameError`]s, explicit
//!   version negotiation;
//! * [`error`] — the one typed [`TelemetryError`] every public API
//!   returns;
//! * [`fingerprint`] — FNV-1a content fingerprints (idempotent-ingest
//!   keys), `(app, device)` shard routing, and the cluster routing
//!   table generalization [`node_for`];
//! * [`store`] — the idempotent [`AggregationStore`] built on the
//!   report semilattice join, with canonical [`StoreSnapshot`]s, the
//!   CRDT fold [`AggregationStore::absorb`], and the [`ReportView`] a
//!   server keeps between queries;
//! * [`wal`] — per-shard append-only write-ahead logs (CRC-framed
//!   canonical JSON) plus compacted snapshots; kill-and-restart replays
//!   to the identical aggregate;
//! * [`server`] — builder-validated server: acceptor → `poll`-driven
//!   multiplexed I/O workers woken by doorbells, each decoding a batch
//!   of frames and applying every upload itself under its shard's lock
//!   (WAL append, then merge), so responses leave in request order and
//!   a query sees every upload its connection was ACKed for, answered
//!   from the last answer's kept frame when nothing changed; a cap,
//!   checked per request, on the response bytes a peer leaves untaken;
//! * [`client`] — the retrying [`Uploader`] with deterministic
//!   exponential backoff and `hd-faults` transport-fault injection,
//!   the windowed [`PipelinedUploader`] throughput path, and the
//!   idempotency-hardened [`ControlClient`] for the
//!   `hang-doctor/control/v1` dialect (live probes, diagnosis toggles,
//!   canaried threshold rollout — see `hd-control`);
//! * [`cluster`] — N-node partitioning, the stateless coordinator fold,
//!   and kill-and-restart over the WAL.
//!
//! The `perfbench` workspace measures this crate's upload, query and
//! control paths against a loopback server (its `ingest-durable` and
//! `ops-mixed` workloads).
//!
//! ## End-to-end invariant
//!
//! For any set of device reports, uploading them through the real TCP
//! path — one node or a cluster of them, with or without a crash and
//! WAL-replay restart in the middle — and folding the aggregation
//! yields a [`TelemetryReport`] that is **byte-identical** to the
//! in-process merge. Ingest is idempotent (content-fingerprint dedup),
//! the merge is a semilattice join (order-independent, partition-
//! independent), and serialization is canonical (sorted maps,
//! declaration-order fields). The loopback and cluster differentials
//! that check this against a fleet run live in `hd-bench`, as does the
//! test pinning `tests/fixtures/telemetry_table1.json`.

#[cfg(not(unix))]
compile_error!("hd-telemetry's server blocks in poll(2) on Unix sockets; it builds on Unix only");

pub mod client;
pub mod cluster;
pub mod error;
pub mod fingerprint;
pub mod report;
pub mod server;
pub mod store;
pub mod wal;
pub mod wire;

pub use client::{ControlClient, PipelinedUploader, UploadReceipt, Uploader, UploaderConfig};
pub use cluster::{Cluster, ClusterConfig};
pub use error::TelemetryError;
pub use fingerprint::{batch_fingerprint, fnv1a, node_for, shard_for};
pub use report::{HangGroup, TelemetryReport};
pub use server::{ServerConfig, ServerStats, TelemetryServer, TelemetryServerBuilder};
pub use store::{
    AggregationStore, IngestOutcome, IngestStats, ReportView, StoreSnapshot, SNAPSHOT_SCHEMA,
};
pub use wal::{Wal, WalHeader, WalRecord, WalReplay, WAL_MAGIC, WAL_SCHEMA};
pub use wire::{
    decode_frame, drain_frames, encode_frame, encode_frame_in, read_frame, write_frame, FrameError,
    Request, Response, TelemetryItem, UploadBatch, WireVersion, MAGIC, MAX_FRAME, SCHEMA,
    SUPPORTED_SCHEMAS,
};
