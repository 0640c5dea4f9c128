//! `ingest-durable`: device uploads against a WAL-enabled server
//! (`ServerConfig::default()` plus a fresh `wal_dir` per run).
//!
//! Two connections each send [`RATE`] uploads per second on a fixed
//! schedule, with at most [`WINDOW`] unanswered per connection — never
//! more in flight than one shard queue holds, so no upload can be
//! NACKed. Payloads are real per-device `HangBugReport`s from a seeded
//! set-up fleet, one report per batch as `repro upload` sends them, each
//! device re-uploading under increasing `seq`, so every batch is unique
//! and takes the full decode → fingerprint → shard queue → WAL append →
//! merge → ACK path.
//!
//! The load is a fixed rate rather than as many uploads as the server
//! takes: at saturation the server's I/O loop polls without pause, so its
//! CPU time per upload and its throughput both follow whatever share of
//! the CPUs a shared host leaves it and swing by more than twice between
//! runs. At a fixed rate the upload volume, and with it peak memory, is
//! the same in every run, and the server's CPU time per upload measures
//! its work.

use std::path::Path;
use std::time::Instant;

use hd_telemetry::wal::recover_shard;
use hd_telemetry::wire::upload_fingerprint_from_payload;
use hd_telemetry::{
    decode_frame, encode_frame, shard_for, AggregationStore, PipelinedUploader, Request, Response,
    ServerConfig, TelemetryServer, Wal, WireVersion,
};

use crate::loadgen::{self, OpenLoop, Planned, UploadLog, UploadTemplate};
use crate::report::{Better, RunReport};
use crate::stats::{median, Tail};
use crate::trace::Tracer;
use crate::Args;

/// Set-up fleet devices per app (one upload stream per device).
pub const DEVICES_PER_APP: u32 = 1;
/// Executions per action in the set-up fleet.
pub const EXECUTIONS_PER_ACTION: usize = 4;
/// Load-generator connections.
pub const CONNECTIONS: usize = 2;
/// Uploads per second on each connection.
pub const RATE: f64 = 2_000.0;
/// Most uploads unanswered on one connection at a time.
pub const WINDOW: usize = 16;
/// Warm-up window before the measured one, s.
const WARMUP_SECONDS: f64 = 1.0;
/// Groups requested by the final `Query`.
const TOP_N: usize = 1_000;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Threads the WAL-recovery check runs on, after the measured window.
const CHECK_THREADS: usize = 2;
/// Frames replayed in-process by the traced run.
const REPLAY_FRAMES: usize = 20_000;

/// The set-up state of one run.
struct Setup {
    templates: Vec<UploadTemplate>,
    server: TelemetryServer,
    wal_dir: std::path::PathBuf,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let jobs = loadgen::setup_reports(seed, DEVICES_PER_APP, EXECUTIONS_PER_ACTION);
    let templates = jobs
        .iter()
        .map(UploadTemplate::new)
        .collect::<Result<Vec<_>, _>>()?;
    let wal_dir = crate::env::fresh_dir("wal").map_err(|e| e.to_string())?;
    let server = TelemetryServer::builder()
        .wal_dir(wal_dir.to_string_lossy().into_owned())
        .start()
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        templates,
        server,
        wal_dir,
    })
}

fn teardown(s: Setup) -> Result<(), String> {
    loadgen::shutdown(s.server)?;
    std::fs::remove_dir_all(&s.wal_dir).map_err(|e| e.to_string())
}

/// Sends [`RATE`] uploads per second on each connection for `seconds`,
/// from `first_seq` on; returns what each connection sent and got back,
/// its timings, its tracer, and the server's CPU time.
fn drive(s: &Setup, first_seq: u64, seconds: f64, traced: bool) -> Result<Drive, String> {
    let addr = s.server.local_addr();
    let epoch = Instant::now();
    let cpu = crate::env::process_cpu_s();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let log = UploadLog {
                    mine: (c..s.templates.len()).step_by(CONNECTIONS).collect(),
                    first_seq,
                    ..UploadLog::default()
                };
                let templates = &s.templates;
                scope.spawn(move || {
                    let plan = plan(c, seconds);
                    let mut tracer = Tracer::new(epoch);
                    let stream = loadgen::connect(addr)?;
                    let out = loadgen::open_loop(
                        stream,
                        &plan,
                        Some(WINDOW),
                        |p, f| {
                            let (t, seq) = log.upload(p.arg);
                            templates[t].frame(seq, f);
                        },
                        traced.then_some(&mut tracer),
                    )?;
                    Ok::<_, std::io::Error>((log, plan, out, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator panicked"))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| e.to_string())?;
    let mut d = Drive {
        logs: Vec::new(),
        plans: Vec::new(),
        loops: Vec::new(),
        tracers: Vec::new(),
        server_cpu_s: crate::env::process_cpu_s() - cpu,
    };
    for (mut log, plan, out, tracer) in results {
        log.sent = out.sent_ns.len();
        for i in 0..out.responses.len() {
            log.answer(out.responses.frame(i));
        }
        d.server_cpu_s -= out.cpu_s;
        d.logs.push(log);
        d.plans.push(plan);
        d.loops.push(out);
        d.tracers.push(tracer);
    }
    Ok(d)
}

/// Connection `c`'s schedule for `seconds`: upload `k` is due at
/// `k / RATE`, the connections offset from each other by half a period.
fn plan(c: usize, seconds: f64) -> Vec<Planned> {
    let period_ns = 1e9 / RATE;
    let offset_ns = period_ns * c as f64 / CONNECTIONS as f64;
    (0..(RATE * seconds).round() as usize)
        .map(|k| Planned {
            due_ns: (offset_ns + k as f64 * period_ns) as u64,
            kind: 0,
            arg: k,
        })
        .collect()
}

/// A `seq` past every one the logs used, so later uploads are new.
fn next_seq(logs: &[UploadLog]) -> u64 {
    1 + logs
        .iter()
        .map(|l| l.first_seq + l.sent as u64)
        .max()
        .unwrap_or(0)
}

/// What [`drive`] returns, one entry per connection in each list.
struct Drive {
    logs: Vec<UploadLog>,
    plans: Vec<Vec<Planned>>,
    loops: Vec<OpenLoop>,
    tracers: Vec<Tracer>,
    /// CPU time of the process minus the load generator's threads: the
    /// server's, s.
    server_cpu_s: f64,
}

impl Drive {
    /// Uploads answered.
    fn answered(&self) -> usize {
        self.loops.iter().map(|l| l.recv_ns.len()).sum()
    }

    /// CPU time of the whole process — server and load generator — per
    /// answered upload, s.
    fn process_cpu_per_op(&self) -> f64 {
        let generator_s: f64 = self.loops.iter().map(|l| l.cpu_s).sum();
        (self.server_cpu_s + generator_s) / self.answered().max(1) as f64
    }

    /// Due-time-to-ACK latencies of every answered upload.
    fn latency(&self) -> Option<Tail> {
        let all: Vec<f64> = self
            .loops
            .iter()
            .zip(&self.plans)
            .flat_map(|(l, p)| (0..l.recv_ns.len()).map(move |i| l.latency_us(p, i)))
            .collect();
        Tail::of(&all)
    }
}

/// Checks that every upload was answered by the ACK of its own
/// fingerprint, never as a duplicate, and that no two uploads share a
/// fingerprint — so every unique batch was ACKed exactly once. Returns
/// the verdict and the number of NACKs (refused attempts).
pub fn check_acks(
    loops: &[UploadLog],
    templates: &[UploadTemplate],
) -> (Result<String, String>, u64) {
    let frame_hash = |r: &Response| hd_telemetry::fnv1a(&encode_frame(r));
    let nack = frame_hash(&Response::Nack {
        retry_after_ms: ServerConfig::default().nack_retry_ms,
    });
    let mut fingerprints = std::collections::HashSet::new();
    let (mut nacks, mut first_error) = (0u64, None);
    for (c, l) in loops.iter().enumerate() {
        if l.answers.len() != l.sent {
            first_error.get_or_insert(format!(
                "connection {c}: {} uploads sent, {} answered",
                l.sent,
                l.answers.len()
            ));
        }
        for (k, &answer) in l.answers.iter().enumerate() {
            let (t, seq) = l.upload(k);
            let fingerprint = templates[t].fingerprint(seq);
            if !fingerprints.insert(fingerprint) {
                first_error.get_or_insert(format!("fingerprint {fingerprint:016x} sent twice"));
            }
            if answer
                == frame_hash(&Response::Ack {
                    fingerprint,
                    duplicate: false,
                })
            {
                continue;
            }
            let what = if answer == nack {
                nacks += 1;
                "a NACK"
            } else if answer
                == frame_hash(&Response::Ack {
                    fingerprint,
                    duplicate: true,
                })
            {
                "a duplicate ACK"
            } else {
                "something else"
            };
            first_error.get_or_insert(format!(
                "connection {c} upload {k}: expected the ACK of {fingerprint:016x}, got {what}"
            ));
        }
    }
    let verdict = match first_error {
        Some(e) => Err(e),
        None => Ok(format!(
            "{} unique batches ACKed once each",
            fingerprints.len()
        )),
    };
    (verdict, nacks)
}

/// Feeds every sent batch to a fresh in-process store.
fn in_process_store(loops: &[UploadLog], templates: &[UploadTemplate]) -> AggregationStore {
    let mut store = AggregationStore::new();
    for l in loops {
        for k in 0..l.sent {
            let (t, seq) = l.upload(k);
            store.ingest_prehashed(&templates[t].batch, templates[t].fingerprint(seq));
        }
    }
    store
}

/// Folds every shard's WAL under `dir` through `recover_shard`. The
/// replay is the slowest check, so [`CHECK_THREADS`] threads share the
/// shards; the snapshots are folded in shard order.
fn recovered_store(dir: &Path, shards: usize) -> Result<AggregationStore, String> {
    let recovered = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CHECK_THREADS)
            .map(|w| {
                scope.spawn(move || {
                    (w..shards)
                        .step_by(CHECK_THREADS)
                        .map(|shard| {
                            let (store, _wal, _replayed) =
                                recover_shard(dir, 0, shard).map_err(|e| e.to_string())?;
                            Ok((shard, store.snapshot()))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("WAL recovery panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut snapshots: Vec<_> = recovered.into_iter().flatten().collect();
    snapshots.sort_by_key(|(shard, _)| *shard);
    let mut folded = AggregationStore::new();
    for (_, snapshot) in &snapshots {
        folded.absorb(snapshot);
    }
    Ok(folded)
}

fn snapshot_json(store: &AggregationStore) -> String {
    serde_json::to_string(&store.snapshot()).expect("snapshot serializes")
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut RunReport) {
    if let Err(e) = run_inner(args, report) {
        report.check("ingest-durable: run completed", Err(e));
    }
}

fn run_inner(args: &Args, report: &mut RunReport) -> Result<(), String> {
    // One set-up serves the run. The other `setup_s` repetitions come
    // after the checks, so their allocator churn cannot raise peak memory.
    let mut setup_times = crate::SetupTimes::default();
    let s = setup_times.time(|| setup(args.seed))?;
    let shards = ServerConfig::default().shards;
    report.note("ingest", format!(
        "{} devices (set-up fleet {} apps x {DEVICES_PER_APP}, {EXECUTIONS_PER_ACTION} executions/action), \
         {CONNECTIONS} connections x {RATE} uploads/s, at most {WINDOW} unanswered per connection, \
         1 report per batch, server {shards} shards, WAL on; {WARMUP_SECONDS} s warm-up",
        s.templates.len(),
        s.templates.len() / DEVICES_PER_APP as usize,
    ));

    let warm = drive(&s, 1, WARMUP_SECONDS, false)?;
    let mut loops = warm.logs;
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut untraced = drive(&s, next_seq(&loops), window, false)?;
    // The upload volume is fixed, so this peak does not grow with the
    // server's speed; the checks that follow replay the WAL and are not
    // the workload.
    let peak_rss = crate::env::peak_rss_mb();
    let acked = untraced.answered();
    let cpu_us_per_op = untraced.server_cpu_s * 1e6 / acked.max(1) as f64;
    let latency = untraced.latency().ok_or("no upload answered")?;
    loops.extend(std::mem::take(&mut untraced.logs));
    let mut traced = None;
    if args.trace {
        let mut t = drive(&s, next_seq(&loops), window, true)?;
        loops.extend(std::mem::take(&mut t.logs));
        traced = Some(t);
    }

    let (verdict, nacks) = check_acks(&loops, &s.templates);
    report.check(
        "ingest-durable: every unique batch ACKed exactly once, never as duplicate",
        verdict,
    );
    let sent: u64 = loops.iter().map(|l| l.sent as u64).sum();
    let answered: u64 = loops.iter().map(|l| l.answers.len() as u64).sum();
    report.attempted += sent;
    report.failed += nacks + (sent - answered);

    let expected = in_process_store(&loops, &s.templates);
    let query = loadgen::round_trip(
        s.server.local_addr(),
        &encode_frame(&Request::Query { top_n: TOP_N }),
    )?;
    report.attempted += 1;
    let served = match query {
        Response::Report(r) => r.to_json(),
        other => {
            report.failed += 1;
            format!("{other:?}")
        }
    };
    report.check(
        "ingest-durable: server Query equals an in-process store fed the same batches",
        crate::check_identical("server report", &served, &expected.report(TOP_N).to_json()),
    );
    let Setup {
        templates,
        server,
        wal_dir,
    } = s;
    let stats = loadgen::shutdown(server)?;
    let recovered = recovered_store(&wal_dir, shards)?;
    std::fs::remove_dir_all(&wal_dir).map_err(|e| e.to_string())?;
    report.check(
        "ingest-durable: recover_shard replay of the WAL folds to the same aggregate",
        crate::check_identical(
            "recovered snapshot",
            &snapshot_json(&recovered),
            &snapshot_json(&expected),
        ),
    );

    if !args.trace {
        for _ in 1..SETUP_REPS {
            let extra = setup_times.time(|| setup(args.seed))?;
            teardown(extra)?;
        }
        setup_times.report(report);
        report.metric(
            "cpu_us_per_op",
            "us",
            Better::Lower,
            cpu_us_per_op,
            acked as u64,
        );
        report.metric("peak_rss_mb", "MB", Better::Lower, peak_rss, 1);
    }
    // Latency drifts between runs like every wall-clock figure here, so
    // it is a per-layer metric.
    for (pct, v) in [("p50", latency.p50), ("p99", latency.p99)] {
        let metric = format!("upload_{pct}_us");
        if args.trace {
            report.metric(&metric, "us", Better::Lower, v, latency.n as u64);
        } else {
            report.text_metric(&metric, "us", Better::Lower, v, latency.n as u64);
        }
    }
    report.note(
        "upload_samples",
        format!("{} ({} beyond p99)", latency.n, latency.beyond_p99),
    );
    if !args.trace {
        return Ok(());
    }

    let traced = traced.expect("traced run drove a traced window");
    loadgen::report_health(
        report,
        [&untraced, &traced]
            .into_iter()
            .flat_map(|d| d.plans.iter().map(|p| &p[..]).zip(&d.loops)),
    );
    let self_us = replay_layers(&loops, &templates, report)?;
    // The untraced window's median upload round trip minus the
    // in-process calls: socket, wake-up and hand-off cost.
    report.metric(
        "telemetry.server.unattributed_us",
        "us",
        Better::Lower,
        latency.p50 - self_us,
        latency.n as u64,
    );
    let mut per_shard = vec![0u64; shards];
    for l in &loops {
        for k in 0..l.sent {
            let b = &templates[l.upload(k).0].batch;
            per_shard[shard_for(&b.app, b.device, shards)] += 1;
        }
    }
    let mean = per_shard.iter().sum::<u64>() as f64 / shards as f64;
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    report.metric(
        "telemetry.server.shard_skew",
        "ratio",
        Better::Lower,
        max / mean,
        shards as u64,
    );
    server_stats(report, &stats);
    // Spans are recorded by the load generator, so their cost is CPU
    // time per upload of the whole process; latency drifts too much
    // between windows to show it.
    crate::trace_overhead(
        report,
        &[untraced.process_cpu_per_op()],
        &[traced.process_cpu_per_op()],
    );
    let mut tracer = Tracer::new(Instant::now());
    for t in traced.tracers {
        tracer.absorb(t);
    }
    crate::write_trace(args, &tracer, report);
    Ok(())
}

/// Server counters every telemetry workload reports.
pub fn server_stats(report: &mut RunReport, stats: &hd_telemetry::ServerStats) {
    report.metric(
        "telemetry.server.nacks",
        "count",
        Better::Lower,
        stats.nacks_sent as f64,
        1,
    );
    report.metric(
        "telemetry.server.decode_errors",
        "count",
        Better::Lower,
        stats.decode_errors as f64,
        1,
    );
    report.metric(
        "telemetry.server.batches_applied",
        "count",
        Better::Higher,
        stats.ingest.batches_applied as f64,
        1,
    );
}

/// Replays up to [`REPLAY_FRAMES`] of the sent uploads: re-encodes each
/// batch with `PipelinedUploader::encode_upload` (what set-up does once
/// per device), then replays its frame through the in-process calls with
/// a WAL in a scratch directory, and reports the WAL's bytes per batch.
/// Returns an upload's in-process self time, µs.
fn replay_layers(
    loops: &[UploadLog],
    templates: &[UploadTemplate],
    report: &mut RunReport,
) -> Result<f64, String> {
    let dir = crate::env::fresh_dir("wal-replay").map_err(|e| e.to_string())?;
    let (mut wal, _) = Wal::open(&dir.join("shard-0.wal"), 0, 0).map_err(|e| e.to_string())?;
    let wal_len = |w: &Wal| {
        std::fs::metadata(w.path())
            .map(|m| m.len())
            .map_err(|e| e.to_string())
    };
    let start = wal_len(&wal)?;
    let uploads: Vec<(usize, u64)> = loops
        .iter()
        .flat_map(|l| (0..l.sent).map(|k| l.upload(k)))
        .take(REPLAY_FRAMES)
        .collect();
    let mut tracer = Tracer::new(Instant::now());
    for (req, &(t, seq)) in uploads.iter().enumerate() {
        let mut batch = templates[t].batch.clone();
        batch.seq = seq;
        let span = tracer.open("telemetry.wire.encode", None, req as u64);
        let frame = PipelinedUploader::encode_upload(&batch);
        tracer.close(span);
        std::hint::black_box(frame);
    }
    let encode_ns = tracer.durations("telemetry.wire.encode");
    if !encode_ns.is_empty() {
        report.metric(
            "telemetry.wire.encode_us",
            "us",
            Better::Lower,
            median(&encode_ns) / 1e3,
            encode_ns.len() as u64,
        );
    }
    let uploads = uploads.into_iter().map(|(t, seq)| (&templates[t], seq));
    let mut parts = [AggregationStore::new()];
    let (self_us, frames) = replay_uploads(uploads, &mut parts, Some(&mut wal), report)?;
    let wal_bytes = wal_len(&wal)? - start;
    drop(wal);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    report.metric(
        "telemetry.wal.bytes_per_batch",
        "B",
        Better::Lower,
        wal_bytes as f64 / frames.max(1) as f64,
        frames,
    );
    Ok(self_us)
}

/// Replays upload frames through the calls the server makes for each —
/// `decode_frame`, `upload_fingerprint_from_payload`, then (with a WAL)
/// `Wal::append`, and `AggregationStore::ingest_prehashed` into the
/// frame's shard partition of `parts` — one span per call, and reports
/// each call's median and the median frame size. Returns the summed
/// medians, µs (an upload's in-process self time), and the frame count.
pub fn replay_uploads<'a>(
    uploads: impl Iterator<Item = (&'a UploadTemplate, u64)>,
    parts: &mut [AggregationStore],
    mut wal: Option<&mut Wal>,
    report: &mut RunReport,
) -> Result<(f64, u64), String> {
    let mut tracer = Tracer::new(Instant::now());
    let (mut frame, mut sizes) = (Vec::new(), Vec::new());
    for (req, (template, seq)) in uploads.enumerate() {
        let req = req as u64;
        template.frame(seq, &mut frame);
        sizes.push(frame.len() as f64);
        let span = tracer.open("telemetry.wire.decode", None, req);
        let decoded = decode_frame::<Request>(&frame);
        tracer.close(span);
        let Ok(Request::Upload(batch)) = decoded else {
            return Err(format!("replayed frame {req} did not decode to an upload"));
        };
        let span = tracer.open("telemetry.wire.fingerprint", None, req);
        let fp = upload_fingerprint_from_payload(&frame[8..], WireVersion::V2);
        tracer.close(span);
        let fp = fp.ok_or("replayed frame is not canonical")?;
        if let Some(w) = wal.as_deref_mut() {
            let span = tracer.open("telemetry.wal.append", None, req);
            w.append(fp, &batch).map_err(|e| e.to_string())?;
            tracer.close(span);
        }
        let part = &mut parts[shard_for(&batch.app, batch.device, parts.len())];
        let span = tracer.open("telemetry.store.ingest", None, req);
        part.ingest_prehashed(&batch, fp);
        tracer.close(span);
    }
    let mut self_us = 0.0;
    for (name, metric) in [
        ("telemetry.wire.decode", "telemetry.wire.decode_us"),
        (
            "telemetry.wire.fingerprint",
            "telemetry.wire.fingerprint_us",
        ),
        ("telemetry.wal.append", "telemetry.wal.append_us"),
        ("telemetry.store.ingest", "telemetry.store.ingest_us"),
    ] {
        let d = tracer.durations(name);
        if !d.is_empty() {
            let us = median(&d) / 1e3;
            self_us += us;
            report.metric(metric, "us", Better::Lower, us, d.len() as u64);
        }
    }
    let frames = sizes.len() as u64;
    if frames > 0 {
        report.metric(
            "telemetry.wire.frame_bytes",
            "B",
            Better::Lower,
            median(&sizes),
            frames,
        );
    }
    Ok((self_us, frames))
}
