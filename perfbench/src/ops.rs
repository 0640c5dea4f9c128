//! `ops-mixed`: open-loop reads beside writes against an in-memory
//! server (`ServerConfig::default()`, no WAL) whose store set-up fills
//! with a fleet-sized aggregate.
//!
//! Connection 1 sends device uploads at [`UPLOAD_RATE`]. Connection 2
//! sends operator `Query{top_n}` at [`QUERY_RATE`] and, at
//! [`CONTROL_RATE`], control `QueryState`, `PullStack` and device `Sync`
//! requests in turn; syncs carry the real state tables set-up harvested
//! with `ControlAgent`. Every request goes out at its due time whether
//! or not earlier ones were answered, and its latency counts from that
//! due time. Uploads re-send set-up devices' reports under new `seq`s,
//! so every query must return exactly the set-up aggregate.

use std::time::Instant;

use hd_control::{ControlAgent, ControlRequest, ControlResponse, FleetController, SyncReport};
use hd_telemetry::{
    encode_frame, encode_frame_in, shard_for, AggregationStore, PipelinedUploader, Request,
    Response, ServerConfig, TelemetryServer, WireVersion,
};

use crate::loadgen::{self, OpenLoop, Planned, UploadTemplate};
use crate::report::{Better, RunReport};
use crate::stats::{median, Tail};
use crate::trace::Tracer;
use crate::{digest, Args};

/// Set-up fleet devices per app: 9 × 118 apps = 1,062 devices.
pub const DEVICES_PER_APP: u32 = 9;
/// Executions per action in the set-up fleet.
pub const EXECUTIONS_PER_ACTION: usize = 1;
/// Devices whose live state set-up syncs to the control plane.
pub const CONTROL_DEVICES: usize = 64;
/// Device uploads per second on connection 1.
pub const UPLOAD_RATE: f64 = 100.0;
/// Operator queries per second on connection 2.
pub const QUERY_RATE: f64 = 50.0;
/// Control requests per second on connection 2 (QueryState, PullStack
/// and Sync in turn).
pub const CONTROL_RATE: f64 = 75.0;
/// Groups each operator query asks for.
pub const TOP_N: usize = 10;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Repetitions of each in-process store call in the traced run.
const STORE_REPS: usize = 50;

/// Request kinds ([`Planned::kind`]).
pub const UPLOAD: usize = 0;
/// Operator `Query{top_n}`.
pub const QUERY: usize = 1;
/// Control `QueryState`.
pub const QUERY_STATE: usize = 2;
/// Control `PullStack`.
pub const PULL_STACK: usize = 3;
/// Device `Sync`.
pub const SYNC: usize = 4;

/// One control device's set-up harvest.
struct ControlDevice {
    sync: SyncReport,
    frames: [Vec<u8>; 3],
}

struct Setup {
    templates: Vec<UploadTemplate>,
    controls: Vec<ControlDevice>,
    server: TelemetryServer,
    expected: AggregationStore,
}

fn control_frame(req: ControlRequest) -> Vec<u8> {
    encode_frame_in(WireVersion::Control, &Request::Control(req))
}

fn setup(seed: u64) -> Result<Setup, String> {
    let jobs = loadgen::setup_reports(seed, DEVICES_PER_APP, EXECUTIONS_PER_ACTION);
    let templates = jobs
        .iter()
        .map(UploadTemplate::new)
        .collect::<Result<Vec<_>, _>>()?;

    // Live state for the control plane: the first devices of the same
    // set-up fleet, re-run to harvest their Hang Doctor output.
    let mut spec = crate::fleet::spec(seed);
    spec.devices_per_app = DEVICES_PER_APP;
    spec.executions_per_action = EXECUTIONS_PER_ACTION;
    let mut controls = Vec::with_capacity(CONTROL_DEVICES);
    let mut compiled: Option<(usize, hd_appmodel::CompiledApp)> = None;
    for index in 0..CONTROL_DEVICES {
        let app_idx = index / DEVICES_PER_APP as usize;
        if compiled.as_ref().map(|(a, _)| *a) != Some(app_idx) {
            compiled = Some((
                app_idx,
                hd_appmodel::CompiledApp::new(spec.apps[app_idx].clone()),
            ));
        }
        let (_, app) = compiled.as_ref().expect("just compiled");
        let run = crate::fleet::run_device(&spec, app, index, None, None);
        let device = index as u32 + 1;
        let mut agent = ControlAgent::new(device, &app.app().name, spec.config.clone());
        agent.observe(&run.hd);
        let sync = agent.sync_report();
        let frames = [
            control_frame(ControlRequest::QueryState { device }),
            control_frame(ControlRequest::PullStack { device }),
            control_frame(ControlRequest::Sync(sync.clone())),
        ];
        controls.push(ControlDevice { sync, frames });
    }

    let server = TelemetryServer::builder()
        .start()
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let mut expected = AggregationStore::new();
    let mut up = PipelinedUploader::connect(addr).map_err(|e| e.to_string())?;
    let mut frame = Vec::new();
    for (i, t) in templates.iter().enumerate() {
        t.frame(0, &mut frame);
        up.send_encoded(&frame).map_err(|e| e.to_string())?;
        expected.ingest_prehashed(&t.batch, t.fingerprint(0));
        if up.inflight() >= 32 || i + 1 == templates.len() {
            while up.inflight() > 0 {
                let r = up.recv().map_err(|e| e.to_string())?;
                if r.duplicate {
                    return Err("a set-up upload was absorbed as a duplicate".to_string());
                }
            }
        }
    }
    drop(up);
    for c in &controls {
        match loadgen::round_trip(addr, &c.frames[2])? {
            Response::Control(ControlResponse::Directives(_)) => {}
            other => return Err(format!("set-up sync answered with {other:?}")),
        }
    }
    Ok(Setup {
        templates,
        controls,
        server,
        expected,
    })
}

/// The two connections' schedules for a window of `seconds`. Uploads
/// cycle over the devices in an order drawn from `seed`; control
/// requests cycle over the control devices.
pub fn plans(
    seed: u64,
    seconds: f64,
    devices: usize,
    controls: usize,
) -> (Vec<Planned>, Vec<Planned>) {
    let periodic = |rate: f64, kind: usize, phase_ns: u64| {
        let n = (rate * seconds).round() as usize;
        let period = 1e9 / rate;
        (0..n).map(move |k| Planned {
            due_ns: phase_ns + (k as f64 * period) as u64,
            kind,
            arg: k,
        })
    };
    let mut rng = hd_simrt::SimRng::seed_from_u64(seed ^ 0x6f70_732d_6d69_7865);
    let offset = rng.uniform_u64(0, devices as u64 - 1) as usize;
    let uploads: Vec<Planned> = periodic(UPLOAD_RATE, UPLOAD, 0)
        .map(|p| Planned {
            arg: (p.arg * 7919 + offset) % devices,
            ..p
        })
        .collect();
    let mut conn2: Vec<Planned> = periodic(QUERY_RATE, QUERY, 1_000_000)
        .chain(
            periodic(CONTROL_RATE, QUERY_STATE, 500_000).map(|p| Planned {
                kind: QUERY_STATE + p.arg % 3,
                arg: (p.arg / 3 + offset) % controls,
                ..p
            }),
        )
        .collect();
    conn2.sort_by_key(|p| p.due_ns);
    (uploads, conn2)
}

/// What the two open loops did.
struct Drive {
    uploads: Vec<Planned>,
    conn2: Vec<Planned>,
    up: OpenLoop,
    ops: OpenLoop,
    tracer: Tracer,
    /// `seq` of the first upload of this window.
    first_seq: u64,
    /// CPU time of the process minus the load generator's threads: the
    /// server's, s.
    server_cpu_s: f64,
}

impl Drive {
    /// Requests answered on both connections.
    fn answered(&self) -> usize {
        self.up.recv_ns.len() + self.ops.recv_ns.len()
    }

    /// CPU time of the whole process — server and load generator — per
    /// answered request, s.
    fn process_cpu_per_op(&self) -> f64 {
        (self.server_cpu_s + self.up.cpu_s + self.ops.cpu_s) / self.answered().max(1) as f64
    }
}

fn drive(
    s: &Setup,
    seed: u64,
    seconds: f64,
    first_seq: u64,
    traced: bool,
) -> Result<Drive, String> {
    let (uploads, conn2) = plans(seed, seconds, s.templates.len(), s.controls.len());
    let addr = s.server.local_addr();
    let query = encode_frame(&Request::Query { top_n: TOP_N });
    let epoch = Instant::now();
    let cpu = crate::env::process_cpu_s();
    let (up, ops, tracer) = std::thread::scope(|scope| {
        let uploads = &uploads;
        let templates = &s.templates;
        let up = scope.spawn(move || {
            let mut t = Tracer::new(epoch);
            let stream = loadgen::connect(addr)?;
            // Frames are built in plan order, so the k-th upload carries
            // seq `first_seq + k`.
            let mut k = 0u64;
            let out = loadgen::open_loop(
                stream,
                uploads,
                None,
                |p, f| {
                    templates[p.arg].frame(first_seq + k, f);
                    k += 1;
                },
                traced.then_some(&mut t),
            )?;
            Ok::<_, std::io::Error>((out, t))
        });
        let conn2 = &conn2;
        let controls = &s.controls;
        let query = &query;
        let ops = scope.spawn(move || {
            let mut t = Tracer::new(epoch);
            let stream = loadgen::connect(addr)?;
            let out = loadgen::open_loop(
                stream,
                conn2,
                None,
                |p, f| {
                    f.clear();
                    match p.kind {
                        QUERY => f.extend_from_slice(query),
                        k => f.extend_from_slice(&controls[p.arg].frames[k - QUERY_STATE]),
                    }
                },
                traced.then_some(&mut t),
            )?;
            Ok::<_, std::io::Error>((out, t))
        });
        let (up, mut t1) = up.join().expect("upload generator panicked")?;
        let (ops, t2) = ops.join().expect("operator generator panicked")?;
        t1.absorb(t2);
        Ok::<_, std::io::Error>((up, ops, t1))
    })
    .map_err(|e| e.to_string())?;
    let server_cpu_s = crate::env::process_cpu_s() - cpu - up.cpu_s - ops.cpu_s;
    Ok(Drive {
        uploads,
        conn2,
        up,
        ops,
        tracer,
        first_seq,
        server_cpu_s,
    })
}

/// Named check outcomes.
pub type Verdicts = Vec<(&'static str, Result<String, String>)>;

/// Checks every response of a window; returns (verdicts, failed).
pub fn check_responses(
    up: &[Result<Response, String>],
    want_upload_fp: impl Fn(usize) -> u64,
    conn2: &[Planned],
    ops: &[Result<Response, String>],
    want_report: &str,
    syncs: &[SyncReport],
) -> (Verdicts, u64) {
    let mut failed = 0u64;
    let mut first = [None::<String>, None, None, None, None];
    let mut ok = [0u64; 5];
    for (i, r) in up.iter().enumerate() {
        let want = want_upload_fp(i);
        match r {
            Ok(Response::Ack {
                fingerprint,
                duplicate: false,
            }) if *fingerprint == want => ok[UPLOAD] += 1,
            other => {
                failed += 1;
                first[UPLOAD].get_or_insert(format!(
                    "upload {i}: expected ACK of {want:016x}, got {other:?}"
                ));
            }
        }
    }
    for (i, (p, r)) in conn2.iter().zip(ops).enumerate() {
        let good = match (p.kind, r) {
            (QUERY, Ok(Response::Report(rep))) => rep.to_json() == want_report,
            (
                QUERY_STATE,
                Ok(Response::Control(ControlResponse::StateTable { device, states })),
            ) => *device == syncs[p.arg].device && *states == syncs[p.arg].states,
            (PULL_STACK, Ok(Response::Control(ControlResponse::Stack { device, stack }))) => {
                *device == syncs[p.arg].device && *stack == syncs[p.arg].stack
            }
            (SYNC, Ok(Response::Control(ControlResponse::Directives(_)))) => true,
            _ => false,
        };
        if good {
            ok[p.kind] += 1;
        } else {
            failed += 1;
            first[p.kind]
                .get_or_insert(format!("request {i} (kind {}): {r:?}", KIND_NAMES[p.kind]));
        }
    }
    let mut verdict = |k: usize| match first[k].take() {
        Some(e) => Err(e),
        None => Ok(format!("{} answered correctly", ok[k])),
    };
    (
        vec![
            (
                "ops-mixed: every upload ACKed once with its fingerprint, never as duplicate",
                verdict(UPLOAD),
            ),
            (
                "ops-mixed: every Query returns exactly the set-up aggregate",
                verdict(QUERY),
            ),
            (
                "ops-mixed: every QueryState returns the state table that was synced",
                verdict(QUERY_STATE),
            ),
            (
                "ops-mixed: every PullStack returns the stack that was synced",
                verdict(PULL_STACK),
            ),
            ("ops-mixed: every Sync returns directives", verdict(SYNC)),
        ],
        failed,
    )
}

const KIND_NAMES: [&str; 5] = ["upload", "query", "query_state", "pull_stack", "sync"];

/// Latency samples (µs from due time) of the answered requests whose
/// kind is in `kinds`.
fn latencies(plan: &[Planned], out: &OpenLoop, kinds: &[usize]) -> Vec<f64> {
    (0..out.recv_ns.len())
        .filter(|&i| kinds.contains(&plan[i].kind))
        .map(|i| out.latency_us(plan, i))
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut RunReport) {
    if let Err(e) = run_inner(args, report) {
        report.check("ops-mixed: run completed", Err(e));
    }
}

fn run_inner(args: &Args, report: &mut RunReport) -> Result<(), String> {
    // One set-up serves the run. The other `setup_s` repetitions come
    // after the checks, so their allocator churn cannot raise peak memory.
    let mut setup_times = crate::SetupTimes::default();
    let s = setup_times.time(|| setup(args.seed))?;
    let want_report = s.expected.report(TOP_N).to_json();
    report.note("ops", format!(
        "{} devices in the store ({} apps x {DEVICES_PER_APP}, {EXECUTIONS_PER_ACTION} execution/action), \
         {} control devices; open loop: conn 1 uploads {UPLOAD_RATE}/s; conn 2 Query(top {TOP_N}) {QUERY_RATE}/s + \
         control {CONTROL_RATE}/s (QueryState, PullStack, Sync in turn); server {} shards, no WAL",
        s.expected.device_count(),
        s.templates.len() / DEVICES_PER_APP as usize,
        s.controls.len(),
        ServerConfig::default().shards
    ));

    // The untraced window is the timed run's in both modes, so every
    // recorded latency rests on the same sample counts; a traced run adds
    // a half-length traced window for the overhead comparison and spans.
    let mut windows = vec![drive(&s, args.seed, args.seconds, 1, false)?];
    // The open loop's volume is fixed by its rates, so this peak does not
    // grow with the server's speed.
    let peak_rss = crate::env::peak_rss_mb();
    if args.trace {
        let next = 1 + windows[0].uploads.len() as u64;
        windows.push(drive(&s, args.seed, args.seconds / 2.0, next, true)?);
    }

    let mut failed = 0u64;
    let syncs: Vec<SyncReport> = s.controls.iter().map(|c| c.sync.clone()).collect();
    for (w, d) in windows.iter().enumerate() {
        let up: Vec<_> = (0..d.up.responses.len())
            .map(|i| d.up.responses.decode(i))
            .collect();
        let ops: Vec<_> = (0..d.ops.responses.len())
            .map(|i| d.ops.responses.decode(i))
            .collect();
        let (checks, f) = check_responses(
            &up,
            |i| s.templates[d.uploads[i].arg].fingerprint(d.first_seq + i as u64),
            &d.conn2,
            &ops,
            &want_report,
            &syncs,
        );
        for (name, verdict) in checks {
            report.check(&format!("{name} (window {w})"), verdict);
        }
        let sent = (d.uploads.len() + d.conn2.len()) as u64;
        let backlog = (d.up.backlog() + d.ops.backlog()) as u64;
        report.attempted += sent;
        failed += f + backlog;
        report.check(
            &format!("ops-mixed: no request left unanswered (window {w})"),
            if backlog == 0 {
                Ok(format!("{sent} requests answered"))
            } else {
                Err(format!("{backlog} unanswered"))
            },
        );
    }
    report.failed += failed;

    let d = &windows[0];
    let upload = Tail::of(&latencies(&d.uploads, &d.up, &[UPLOAD])).ok_or("no uploads answered")?;
    let query = Tail::of(&latencies(&d.conn2, &d.ops, &[QUERY])).ok_or("no queries answered")?;
    let control = Tail::of(&latencies(
        &d.conn2,
        &d.ops,
        &[QUERY_STATE, PULL_STACK, SYNC],
    ))
    .ok_or("no control answered")?;
    // Latencies drift by about a fifth between runs on a shared two-CPU
    // host, more than any bound allows, so they are per-layer metrics:
    // printed here, summarized by the traced run.
    for (name, t) in [("upload", upload), ("query", query), ("control", control)] {
        for (pct, v) in [("p50", t.p50), ("p99", t.p99)] {
            let metric = format!("{name}_{pct}_us");
            if args.trace {
                report.metric(&metric, "us", Better::Lower, v, t.n as u64);
            } else {
                report.text_metric(&metric, "us", Better::Lower, v, t.n as u64);
            }
        }
        report.note(
            &format!("{name}_samples"),
            format!("{} ({} beyond p99)", t.n, t.beyond_p99),
        );
    }
    if !args.trace {
        loadgen::shutdown(s.server)?;
        for _ in 1..SETUP_REPS {
            let extra = setup_times.time(|| setup(args.seed))?;
            loadgen::shutdown(extra.server)?;
        }
        setup_times.report(report);
        report.metric(
            "cpu_us_per_op",
            "us",
            Better::Lower,
            d.server_cpu_s * 1e6 / d.answered().max(1) as f64,
            d.answered() as u64,
        );
        report.metric("peak_rss_mb", "MB", Better::Lower, peak_rss, 1);
        return Ok(());
    }

    loadgen::report_health(
        report,
        windows
            .iter()
            .flat_map(|d| [(&d.uploads[..], &d.up), (&d.conn2[..], &d.ops)]),
    );
    // The layers replay the untraced window's requests, and its round
    // trips are what their self times are subtracted from.
    let upload_self_us = store_layers(&s, d, report)?;
    report.metric(
        "telemetry.server.unattributed_us",
        "us",
        Better::Lower,
        upload.p50 - upload_self_us,
        upload.n as u64,
    );
    let handle_p99 = control_layers(&s, d, report);
    report.metric(
        "control.rtt_gap_us",
        "us",
        Better::Lower,
        control.p99 - handle_p99,
        control.n as u64,
    );
    let stats = loadgen::shutdown(s.server)?;
    crate::ingest::server_stats(report, &stats);
    // Spans are recorded by the load generator, so their cost is CPU
    // time per request of the whole process; latency drifts too much
    // between windows to show it.
    crate::trace_overhead(
        report,
        &[windows[0].process_cpu_per_op()],
        &[windows[1].process_cpu_per_op()],
    );
    let mut tracer = Tracer::new(Instant::now());
    for d in windows {
        tracer.absorb(d.tracer);
    }
    crate::write_trace(args, &tracer, report);
    Ok(())
}

/// Replays a window's uploads and the set-up aggregate through
/// the in-process wire and store calls. Returns the summed per-upload
/// medians of decode, fingerprint and ingest, µs.
fn store_layers(s: &Setup, d: &Drive, report: &mut RunReport) -> Result<f64, String> {
    let shards = ServerConfig::default().shards;
    let mut parts: Vec<AggregationStore> = (0..shards).map(|_| AggregationStore::new()).collect();
    for t in &s.templates {
        parts[shard_for(&t.batch.app, t.batch.device, shards)]
            .ingest_prehashed(&t.batch, t.fingerprint(0));
    }
    let uploads = d
        .uploads
        .iter()
        .enumerate()
        .map(|(i, p)| (&s.templates[p.arg], d.first_seq + i as u64));
    let (self_us, _) = crate::ingest::replay_uploads(uploads, &mut parts, None, report)?;
    let mut tracer = Tracer::new(Instant::now());
    let mut folded = AggregationStore::new();
    for rep in 0..STORE_REPS {
        let span = tracer.open("telemetry.store.fold", None, rep as u64);
        let mut f = AggregationStore::new();
        for part in &parts {
            f.absorb(&part.snapshot());
        }
        tracer.close(span);
        folded = f;
    }
    let mut last = None;
    for rep in 0..STORE_REPS {
        let span = tracer.open("telemetry.store.report", None, rep as u64);
        last = Some(folded.report(TOP_N));
        tracer.close(span);
    }
    for (name, metric) in [
        ("telemetry.store.fold", "telemetry.store.fold_us"),
        ("telemetry.store.report", "telemetry.store.report_us"),
    ] {
        let ds = tracer.durations(name);
        report.metric(
            metric,
            "us",
            Better::Lower,
            median(&ds) / 1e3,
            ds.len() as u64,
        );
    }
    report.metric(
        "telemetry.store.devices",
        "count",
        Better::Higher,
        folded.device_count() as f64,
        1,
    );
    let report_frame = encode_frame(&Response::Report(last.expect("STORE_REPS > 0")));
    report.metric(
        "telemetry.wire.report_bytes",
        "B",
        Better::Lower,
        report_frame.len() as f64,
        1,
    );
    report.note(
        "store_digest",
        digest(folded.report(TOP_N).to_json().as_bytes()),
    );
    Ok(self_us)
}

/// Replays a window's control requests through
/// `FleetController::handle`, directly, after the same set-up syncs.
/// Returns the p99 handle time over every verb, µs.
fn control_layers(s: &Setup, d: &Drive, report: &mut RunReport) -> f64 {
    let mut controller = FleetController::new();
    for c in &s.controls {
        controller.handle(ControlRequest::Sync(c.sync.clone()));
    }
    let mut tracer = Tracer::new(Instant::now());
    for (i, p) in d.conn2.iter().enumerate().filter(|(_, p)| p.kind != QUERY) {
        let sync = &s.controls[p.arg].sync;
        let (name, req) = match p.kind {
            QUERY_STATE => (
                "control.handle.query_state",
                ControlRequest::QueryState {
                    device: sync.device,
                },
            ),
            PULL_STACK => (
                "control.handle.pull_stack",
                ControlRequest::PullStack {
                    device: sync.device,
                },
            ),
            SYNC => ("control.handle.sync", ControlRequest::Sync(sync.clone())),
            _ => continue,
        };
        let span = tracer.open(name, None, i as u64);
        std::hint::black_box(controller.handle(req));
        tracer.close(span);
    }
    let mut all = Vec::new();
    for (name, metric) in [
        (
            "control.handle.query_state",
            "control.handle_query_state_us",
        ),
        ("control.handle.pull_stack", "control.handle_pull_stack_us"),
        ("control.handle.sync", "control.handle_sync_us"),
    ] {
        let ds = tracer.durations(name);
        report.metric(
            metric,
            "us",
            Better::Lower,
            median(&ds) / 1e3,
            ds.len() as u64,
        );
        all.extend(ds);
    }
    Tail::of(&all).map_or(0.0, |t| t.p99 / 1e3)
}
