//! Loopback ingest benchmark — the schema of `BENCH_telemetry.json` —
//! and the one pipelined upload loop it shares with the control bench.
//!
//! Concurrent synthetic uploaders hammer a loopback server, each keeping
//! a **window** of batches in flight on one connection
//! ([`PipelinedUploader`]). Pipelining is what moved the bench from
//! ~29k reports/s (one synchronous round trip per batch) past 100k: on a
//! small machine the bottleneck is syscalls and turnaround, not
//! CPU-parallel ingest, so the win comes from many frames per read,
//! batch decode on the server, and ACKs streaming back while later
//! batches are still in the socket. Per-batch upload latency is
//! measured send → ACK. The server applies every upload it decodes, so
//! any answer but a fresh ACK fails the run.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::thread;
use std::time::Instant;

use hangdoctor::{HangBugReport, RootCause, RootKind};
use hd_metrics::percentile_u64;
use hd_simrt::ActionUid;
use hd_telemetry::{PipelinedUploader, TelemetryItem, TelemetryServer, UploadBatch, Uploader};
use serde::{Deserialize, Serialize};

/// Schema tag of `BENCH_telemetry.json`.
pub const TELEMETRY_BENCH_SCHEMA: &str = "hang-doctor/telemetry-bench/v3";

/// Bench parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchSpec {
    /// Concurrent uploader threads.
    pub clients: usize,
    /// Batches each client delivers.
    pub batches_per_client: usize,
    /// Reports packed into each batch.
    pub reports_per_batch: usize,
    /// Batches each client keeps in flight on its connection.
    pub window: usize,
    /// Server shards (store partitions).
    pub shards: usize,
    /// Server I/O workers.
    pub io_workers: usize,
}

impl Default for BenchSpec {
    fn default() -> BenchSpec {
        BenchSpec {
            clients: 2,
            batches_per_client: 256,
            reports_per_batch: 32,
            window: 32,
            shards: 4,
            io_workers: 2,
        }
    }
}

/// Machine-readable result of one loopback load run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TelemetryBench {
    /// Schema tag, bumped on incompatible changes.
    pub schema: String,
    /// Concurrent uploader threads.
    pub clients: usize,
    /// Pipeline window per client.
    pub window: usize,
    /// Server shards.
    pub shards: usize,
    /// Server I/O workers.
    pub io_workers: usize,
    /// Unique batches delivered.
    pub batches: u64,
    /// Individual hang reports ingested.
    pub reports: u64,
    /// End-to-end wall time, ms.
    pub wall_ms: u64,
    /// Ingest throughput, reports per wall second.
    pub reports_per_second: f64,
    /// Median per-batch ingest latency, µs (send → ACK).
    pub p50_upload_us: u64,
    /// 99th-percentile per-batch ingest latency, µs.
    pub p99_upload_us: u64,
}

/// Builds one synthetic batch. Content varies with `(client, seq)` so
/// every batch has a distinct fingerprint, while staying deterministic
/// run-to-run.
fn synthetic_batch(client: usize, seq: u64, reports_per_batch: usize) -> UploadBatch {
    let app = format!("bench-app-{}", client % 4);
    let device = client as u32 + 1;
    let mut items = Vec::with_capacity(reports_per_batch);
    for r in 0..reports_per_batch {
        let mut report = HangBugReport::new(&app);
        let uid = ActionUid(r as u64 % 3);
        for _ in 0..4 {
            report.note_execution(device, uid, "onRefresh");
        }
        report.record_bug(
            device,
            uid,
            &RootCause {
                symbol: format!("java.net.Socket.connect#{}", r % 5),
                file: "Sync.java".to_string(),
                line: 100 + (r as u32 % 5),
                occurrence_factor: 1.0,
                kind: RootKind::BlockingApi,
            },
            (50 + seq % 50) * 1_000_000,
        );
        items.push(TelemetryItem::Report(report));
    }
    UploadBatch {
        app,
        device,
        seq,
        items,
    }
}

/// Pre-encodes `batches_per_client` synthetic batches for each client,
/// so a bench clock measures the wire, not the harness's serialization
/// (the way a spooling device re-sends pre-encoded frames).
pub fn synthetic_frames(
    clients: usize,
    batches_per_client: usize,
    reports_per_batch: usize,
) -> Vec<Vec<Vec<u8>>> {
    (0..clients)
        .map(|client| {
            (0..batches_per_client as u64)
                .map(|seq| {
                    PipelinedUploader::encode_upload(&synthetic_batch(
                        client,
                        seq,
                        reports_per_batch,
                    ))
                })
                .collect()
        })
        .collect()
}

/// One pipelined client: keeps up to `window` of the pre-encoded
/// upload `frames` in flight on one connection and returns each
/// batch's send → ACK latency, µs, in send order. Responses are FIFO per
/// connection, so each ACK answers the oldest batch in flight.
///
/// # Panics
///
/// On any transport failure and on any answer but a fresh ACK: the
/// frames are unique, and the server applies every upload it decodes.
pub fn pipelined_client(addr: SocketAddr, frames: &[Vec<u8>], window: usize) -> Vec<u64> {
    let mut up = PipelinedUploader::connect(addr)
        .unwrap_or_else(|e| panic!("bench uploader connect failed: {e}"));
    let window = window.max(1);
    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut latencies = Vec::with_capacity(frames.len());
    let mut unsent = frames.iter();
    while latencies.len() < frames.len() {
        while in_flight.len() < window {
            let Some(frame) = unsent.next() else { break };
            up.send_encoded(frame)
                .unwrap_or_else(|e| panic!("bench send failed: {e}"));
            in_flight.push_back(Instant::now());
        }
        let receipt = up
            .recv()
            .unwrap_or_else(|e| panic!("bench upload failed: {e}"));
        assert!(!receipt.duplicate, "bench batches are unique");
        let sent = in_flight
            .pop_front()
            .expect("an ACK answers a batch in flight");
        latencies.push(sent.elapsed().as_micros() as u64);
    }
    latencies
}

/// Runs the loopback load bench and returns its machine-readable
/// summary. The bench measures ingest (wire → decode → fingerprint →
/// WAL-less merge → ACK) over frames encoded before the clock starts.
pub fn run_telemetry_bench(spec: &BenchSpec) -> TelemetryBench {
    let server = TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(spec.shards)
        .io_workers(spec.io_workers)
        .start()
        .expect("bind loopback bench server");
    let addr = server.local_addr();
    let frames = synthetic_frames(
        spec.clients,
        spec.batches_per_client,
        spec.reports_per_batch,
    );

    let started = Instant::now();
    let latencies: Vec<u64> = thread::scope(|scope| {
        let handles: Vec<_> = frames
            .iter()
            .map(|frames| scope.spawn(move || pipelined_client(addr, frames, spec.window)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bench client"))
            .collect()
    });
    let wall = started.elapsed();

    let mut client = Uploader::plain(addr);
    client.shutdown().expect("bench shutdown");
    let stats = server.join();

    let reports = stats.ingest.reports_ingested;
    TelemetryBench {
        schema: TELEMETRY_BENCH_SCHEMA.to_string(),
        clients: spec.clients,
        window: spec.window,
        shards: spec.shards,
        io_workers: spec.io_workers,
        batches: stats.ingest.batches_applied,
        reports,
        wall_ms: wall.as_millis() as u64,
        reports_per_second: reports as f64 / wall.as_secs_f64().max(1e-9),
        p50_upload_us: percentile_u64(&latencies, 50.0),
        p99_upload_us: percentile_u64(&latencies, 99.0),
    }
}

impl TelemetryBench {
    /// Renders a human-readable summary line.
    pub fn render(&self) -> String {
        format!(
            "telemetry bench: {} clients × window {} → {} shards ({} io) — \
             {} reports in {} ms ({:.0} reports/s), ingest p50 {} µs p99 {} µs",
            self.clients,
            self.window,
            self.shards,
            self.io_workers,
            self.reports,
            self.wall_ms,
            self.reports_per_second,
            self.p50_upload_us,
            self.p99_upload_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_clients_land_every_batch_exactly_once() {
        // Four clients with enough in-flight batches to contend for two
        // io workers and two shards: every unique batch must land
        // exactly once.
        let spec = BenchSpec {
            clients: 4,
            batches_per_client: 16,
            reports_per_batch: 2,
            window: 8,
            shards: 2,
            io_workers: 2,
        };
        let bench = run_telemetry_bench(&spec);
        assert_eq!(bench.schema, TELEMETRY_BENCH_SCHEMA);
        assert_eq!(
            bench.batches,
            (spec.clients * spec.batches_per_client) as u64
        );
        assert_eq!(
            bench.reports,
            (spec.clients * spec.batches_per_client * spec.reports_per_batch) as u64
        );
        assert!(bench.reports_per_second > 0.0);
    }
}
