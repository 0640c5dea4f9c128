//! `fleet-study`: closed batch of `hd_fleet::run_fleet` over the full
//! 114-app study corpus plus the async-hang apps.
//!
//! The timed half calls `run_fleet` repeatedly for the run's duration.
//! A serial replay then re-runs every device job through the same public
//! calls `run_fleet` makes (`CompiledApp::new`, `generate_schedule`,
//! `build_run`, `hd_baselines::install`, `Simulator::run`, the two
//! report merges). The replay's merged output must serialize
//! byte-identically to the fleet's, and it is where the per-device
//! overhead (`OverheadReport`) and, in the traced run, every layer span
//! come from.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hangdoctor::{shared, BlockingApiDb, HangBugReport, HangDoctor, HdOutput};
use hd_appmodel::corpus::{async_hang_apps, full_corpus};
use hd_appmodel::{build_run, generate_schedule, CompiledApp, TraceParams};
use hd_baselines::{install, Detector, DetectorOutput};
use hd_faults::FaultPlan;
use hd_fleet::{device_seed, run_fleet, FleetSpec, MergedFleet};
use hd_metrics::OverheadReport;
use hd_simrt::{
    ActionInfo, ActionRecord, MessageInfo, MonitorCost, Probe, ProbeCtx, RunSummary, SimConfig,
    SimRng,
};

use crate::report::{Better, RunReport};
use crate::trace::{SpanId, Tracer};
use crate::Args;

/// Simulated devices per app.
pub const DEVICES_PER_APP: u32 = 2;
/// Fleet worker threads.
pub const THREADS: usize = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// The workload's fleet spec: the full study corpus (seeded generated
/// apps) plus the async-hang apps, paper-default detector settings.
pub fn spec(seed: u64) -> FleetSpec {
    let mut apps = full_corpus(seed);
    apps.extend(async_hang_apps());
    FleetSpec {
        apps,
        ..FleetSpec::study(DEVICES_PER_APP, THREADS, seed)
    }
}

/// The part of a fleet's merged output the replay must reproduce: the
/// per-app reports and the fleet-wide API database, serialized.
pub fn merged_bytes(apps: &[&HangBugReport], apidb: &BlockingApiDb) -> String {
    let mut out = String::new();
    for report in apps {
        out.push_str(&serde_json::to_string(*report).expect("report serializes"));
        out.push('\n');
    }
    out.push_str(&serde_json::to_string(apidb).expect("apidb serializes"));
    out
}

/// [`merged_bytes`] of a `run_fleet` result.
pub fn fleet_bytes(merged: &MergedFleet) -> String {
    let apps: Vec<&HangBugReport> = merged.apps.iter().map(|a| &a.report).collect();
    merged_bytes(&apps, &merged.apidb)
}

/// Counts the replay gathers from the program's own outputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Action executions completed (`RunSummary::actions_completed`).
    pub actions: u64,
    /// S-Checker filter evaluations.
    pub schecker_checks: u64,
    /// S-Checker verdicts that marked an action Suspicious.
    pub suspicious_marks: u64,
    /// Deep analyses (Diagnoser runs).
    pub detections: u64,
    /// Deep analyses that ended in a HangBug diagnosis.
    pub bug_diagnoses: u64,
    /// Monitoring cost charged by the probes.
    pub monitor: MonitorCost,
}

/// What a replay of the whole fleet produced.
pub struct Replay {
    /// Merged output, as [`merged_bytes`].
    pub bytes: String,
    /// Fig. 8c average overhead, summed over devices, %.
    pub overhead_pct: f64,
    /// Simulated device time, ns.
    pub simulated_ns: u64,
    /// Device jobs run.
    pub jobs: u64,
    /// Program-reported counts.
    pub counts: Counts,
    /// Wall time of the replay.
    pub wall: Duration,
}

/// A timing [`Detector`] around Hang Doctor: every hook becomes a span
/// under the device's `simrt.run` span.
struct TimedDoctor {
    inner: HangDoctor,
    tracer: Rc<RefCell<Tracer>>,
    parent: SpanId,
    req: u64,
}

impl TimedDoctor {
    fn timed(&mut self, name: &'static str, hook: impl FnOnce(&mut HangDoctor)) {
        let start = self.tracer.borrow().now_ns();
        hook(&mut self.inner);
        let mut t = self.tracer.borrow_mut();
        let end = t.now_ns();
        t.push(name, Some(self.parent), self.req, start, end);
    }
}

impl Probe for TimedDoctor {
    fn on_action_begin(&mut self, ctx: &mut ProbeCtx<'_>, info: &ActionInfo) {
        self.timed("hangdoctor.action", |d| d.on_action_begin(ctx, info));
    }

    fn on_dispatch_begin(&mut self, ctx: &mut ProbeCtx<'_>, info: &MessageInfo) {
        self.timed("hangdoctor.dispatch_begin", |d| {
            d.on_dispatch_begin(ctx, info)
        });
    }

    fn on_dispatch_end(&mut self, ctx: &mut ProbeCtx<'_>, info: &MessageInfo, response_ns: u64) {
        self.timed("hangdoctor.schecker", |d| {
            d.on_dispatch_end(ctx, info, response_ns)
        });
    }

    fn on_action_end(&mut self, ctx: &mut ProbeCtx<'_>, record: &ActionRecord) {
        self.timed("hangdoctor.action", |d| d.on_action_end(ctx, record));
    }

    fn on_timer(&mut self, ctx: &mut ProbeCtx<'_>, token: u64) {
        self.timed("hangdoctor.sampler", |d| d.on_timer(ctx, token));
    }

    // Once per device; counted with the dispatch-begin hook, the other
    // hook outside the S-Checker, sampler and action buckets.
    fn on_sim_end(&mut self, ctx: &mut ProbeCtx<'_>) {
        self.timed("hangdoctor.dispatch_begin", |d| d.on_sim_end(ctx));
    }
}

impl Detector for TimedDoctor {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn finish(self: Box<Self>) -> DetectorOutput {
        Box::new(self.inner).finish()
    }
}

/// What one device job produced.
pub struct DeviceRun {
    /// Hang Doctor's artifact.
    pub hd: HdOutput,
    /// The device's blocking-API database after the run.
    pub db: BlockingApiDb,
    /// The simulator's summary.
    pub summary: RunSummary,
    /// Monitoring cost the probes charged.
    pub monitor: MonitorCost,
    /// Fig. 8c average overhead of this device, %.
    pub overhead_pct: f64,
}

/// Runs device job `index` of `spec` exactly as `run_fleet` runs it.
/// With a tracer, `build_run` and `Simulator::run` become spans under
/// `job`, and every Hang Doctor hook a span under the latter.
pub fn run_device(
    spec: &FleetSpec,
    compiled: &CompiledApp,
    index: usize,
    tracer: Option<&Rc<RefCell<Tracer>>>,
    job: Option<SpanId>,
) -> DeviceRun {
    let req = index as u64;
    let open = |name| tracer.map(|t| t.borrow_mut().open(name, job, req));
    let close = |id: Option<SpanId>| {
        if let (Some(t), Some(id)) = (tracer, id) {
            t.borrow_mut().close(id);
        }
    };
    let app = compiled.app();
    let dpa = spec.devices_per_app as usize;
    let profile = &spec.profiles[(index % dpa) % spec.profiles.len()];
    let seed = device_seed(spec.root_seed, req);

    let span = open("appmodel.build_run");
    let mut rng = SimRng::seed_from_u64(seed);
    let schedule = generate_schedule(
        app,
        TraceParams {
            actions: spec.executions_per_action * app.actions.len(),
            ..TraceParams::default()
        },
        &mut rng,
    );
    let sim_cfg = SimConfig {
        cores: profile.cores,
        workers: profile.workers,
        ..SimConfig::default()
    };
    let mut run = build_run(compiled, &schedule, sim_cfg, seed);
    close(span);

    let db = shared(BlockingApiDb::documented(spec.apidb_year));
    let (mut doctor, _handle) = HangDoctor::new(
        spec.config.clone(),
        &app.name,
        &app.package,
        index as u32 + 1,
        Some(db.clone()),
    );
    doctor.inject_faults(FaultPlan::for_job(spec.faults, spec.root_seed, req));
    let sim_span = open("simrt.run");
    let installed = match (tracer, sim_span) {
        (Some(t), Some(parent)) => install(
            Box::new(TimedDoctor {
                inner: doctor,
                tracer: Rc::clone(t),
                parent,
                req,
            }),
            &mut run.sim,
        ),
        _ => install(Box::new(doctor), &mut run.sim),
    };
    let summary = run.sim.run();
    close(sim_span);

    let hd = installed
        .finish()
        .into_hang_doctor()
        .expect("the harness installs Hang Doctor");
    let db = db.lock().clone();
    DeviceRun {
        hd,
        db,
        summary,
        monitor: run.sim.monitor_cost(),
        overhead_pct: OverheadReport::from_sim(&run.sim).avg_pct(),
    }
}

/// Re-runs every device job of `spec` serially with [`run_device`],
/// folding the results in job order. With a tracer, each call into a
/// layer becomes a span (request id = job index).
pub fn replay(spec: &FleetSpec, tracer: Option<&Rc<RefCell<Tracer>>>) -> Replay {
    let started = Instant::now();
    let open = |name, req| tracer.map(|t| t.borrow_mut().open(name, None, req));
    let close = |id: Option<SpanId>| {
        if let (Some(t), Some(id)) = (tracer, id) {
            t.borrow_mut().close(id);
        }
    };

    let compiled: Vec<CompiledApp> = spec
        .apps
        .iter()
        .enumerate()
        .map(|(i, app)| {
            let span = open("appmodel.compile", i as u64);
            let c = CompiledApp::new(app.clone());
            close(span);
            c
        })
        .collect();

    let mut reports: Vec<HangBugReport> = spec
        .apps
        .iter()
        .map(|a| HangBugReport::new(&a.name))
        .collect();
    let mut apidb = BlockingApiDb::documented(spec.apidb_year);
    let mut counts = Counts::default();
    let (mut overhead_pct, mut simulated_ns) = (0.0, 0u64);
    for index in 0..spec.jobs() {
        let job = open("fleet.device", index as u64);
        let app_idx = index / spec.devices_per_app as usize;
        let d = run_device(spec, &compiled[app_idx], index, tracer, job);
        counts.actions += d.summary.actions_completed as u64;
        counts.schecker_checks += d.hd.schecker_checks;
        counts.suspicious_marks += d.hd.suspicious_marks;
        counts.detections += d.hd.detections.len() as u64;
        counts.bug_diagnoses += d.hd.detections.iter().filter(|x| x.is_bug()).count() as u64;
        counts.monitor.merge(&d.monitor);
        overhead_pct += d.overhead_pct;
        simulated_ns += d.summary.ended_at.0;

        let span = tracer.map(|t| t.borrow_mut().open("fleet.merge", job, index as u64));
        reports[app_idx].merge(&d.hd.report);
        apidb.merge(&d.db);
        close(span);
        close(job);
    }
    let wall = started.elapsed();
    let refs: Vec<&HangBugReport> = reports.iter().collect();
    Replay {
        bytes: merged_bytes(&refs, &apidb),
        overhead_pct,
        simulated_ns,
        jobs: spec.jobs() as u64,
        counts,
        wall,
    }
}

fn device_hours(simulated_ns: u64) -> f64 {
    simulated_ns as f64 / 3.6e12
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut RunReport) {
    let mut setup = crate::SetupTimes::default();
    let mut spec = None;
    for _ in 0..SETUP_REPS {
        // Set-up builds the corpus and spec, then one warm-up fleet run
        // lets the allocator and lazy state settle.
        spec = Some(setup.time(|| spec_and_warmup(args.seed)));
    }
    let spec = spec.expect("SETUP_REPS > 0");
    report.note(
        "fleet",
        format!(
            "{} apps x {} devices = {} jobs, {} executions/action, threads {}",
            spec.apps.len(),
            spec.devices_per_app,
            spec.jobs(),
            spec.executions_per_action,
            spec.threads
        ),
    );

    // Timed half: untraced fleet runs, each one sample of the program's
    // CPU time per device job and of simulated device-hours per second.
    // A traced run spends half its time here and the rest in the replays.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (mut rates, mut first, mut shards) = (Vec::new(), None::<String>, Vec::new());
    let mut cpu_us = Vec::new();
    let mut deterministic = true;
    let t0 = Instant::now();
    while rates.is_empty() || t0.elapsed().as_secs_f64() < budget {
        let (t, cpu) = (Instant::now(), crate::env::process_cpu_s());
        let fleet = run_fleet(&spec);
        let wall = t.elapsed().as_secs_f64();
        cpu_us.push((crate::env::process_cpu_s() - cpu) * 1e6 / fleet.merged.jobs.max(1) as f64);
        rates.push(device_hours(fleet.merged.simulated_ns) / wall);
        report.attempted += fleet.merged.jobs as u64;
        shards = fleet
            .timing
            .shards
            .iter()
            .map(|s| s.busy_ms as f64)
            .collect();
        let bytes = fleet_bytes(&fleet.merged);
        match &first {
            None => first = Some(bytes),
            Some(f) => deterministic &= *f == bytes,
        }
    }
    // Peak memory over set-up and the measured window; the replays that
    // follow are checks, not the workload.
    let peak_rss = crate::env::peak_rss_mb();
    let fleet_out = first.expect("at least one fleet run");
    report.check(
        "fleet-study: every run_fleet call merges to the same bytes",
        if deterministic {
            Ok(format!("{} runs", rates.len()))
        } else {
            Err("merged output changed between identical runs".to_string())
        },
    );

    let untraced = replay(&spec, None);
    report.attempted += untraced.jobs;
    report.check(
        "fleet-study: serial replay serializes byte-identically to run_fleet merged",
        crate::check_identical("serial replay", &untraced.bytes, &fleet_out),
    );

    if !args.trace {
        setup.report(report);
        report.median_metric("cpu_us_per_op", "us", Better::Lower, &cpu_us);
        report.metric("peak_rss_mb", "MB", Better::Lower, peak_rss, 1);
        report.text_median("device_hours_per_s", "h/s", Better::Higher, &rates);
        report.text_metric(
            "hd_overhead_pct",
            "%",
            Better::Lower,
            untraced.overhead_pct,
            untraced.jobs,
        );
        return;
    }
    report.median_metric("fleet.device_hours_per_s", "h/s", Better::Higher, &rates);
    report.metric(
        "hangdoctor.overhead_pct",
        "%",
        Better::Lower,
        untraced.overhead_pct,
        untraced.jobs,
    );

    let tracer = Rc::new(RefCell::new(Tracer::new(Instant::now())));
    let traced = replay(&spec, Some(&tracer));
    // A second untraced replay right after the traced one, so the
    // overhead comparison does not rest on a single pair.
    let again = replay(&spec, None);
    report.attempted += traced.jobs;
    report.check(
        "fleet-study: traced replay serializes byte-identically to run_fleet merged",
        crate::check_identical("traced replay", &traced.bytes, &fleet_out),
    );
    let tracer = Rc::try_unwrap(tracer)
        .expect("replay released the tracer")
        .into_inner();
    report.attempted += again.jobs;
    layer_metrics(report, &tracer, &traced, &shards);
    crate::trace_overhead(
        report,
        &[untraced.wall.as_secs_f64(), again.wall.as_secs_f64()],
        &[traced.wall.as_secs_f64()],
    );
    crate::write_trace(args, &tracer, report);
}

fn spec_and_warmup(seed: u64) -> FleetSpec {
    let spec = spec(seed);
    std::hint::black_box(run_fleet(&spec));
    spec
}

fn layer_metrics(report: &mut RunReport, tracer: &Tracer, traced: &Replay, shards: &[f64]) {
    let totals = tracer.totals();
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.count);
    let jobs = traced.jobs;
    let c = traced.counts;

    report.metric(
        "appmodel.compile_ms",
        "ms",
        Better::Lower,
        ms("appmodel.compile"),
        calls("appmodel.compile"),
    );
    report.metric(
        "appmodel.build_run_ms",
        "ms",
        Better::Lower,
        ms("appmodel.build_run"),
        jobs,
    );
    let sim_self_ns = totals.get("simrt.run").map_or(0, |t| t.self_ns) as f64;
    report.metric(
        "simrt.self_ms",
        "ms",
        Better::Lower,
        sim_self_ns / 1e6,
        jobs,
    );
    report.metric(
        "simrt.actions",
        "count",
        Better::Higher,
        c.actions as f64,
        jobs,
    );
    report.metric(
        "simrt.host_ns_per_action",
        "ns",
        Better::Lower,
        sim_self_ns / c.actions.max(1) as f64,
        c.actions,
    );
    report.metric(
        "hangdoctor.schecker_ms",
        "ms",
        Better::Lower,
        ms("hangdoctor.schecker"),
        calls("hangdoctor.schecker"),
    );
    report.metric(
        "hangdoctor.schecker_calls",
        "count",
        Better::Lower,
        calls("hangdoctor.schecker") as f64,
        jobs,
    );
    report.metric(
        "hangdoctor.sampler_ms",
        "ms",
        Better::Lower,
        ms("hangdoctor.sampler"),
        calls("hangdoctor.sampler"),
    );
    report.metric(
        "hangdoctor.sampler_calls",
        "count",
        Better::Lower,
        calls("hangdoctor.sampler") as f64,
        jobs,
    );
    report.metric(
        "hangdoctor.action_ms",
        "ms",
        Better::Lower,
        ms("hangdoctor.action"),
        calls("hangdoctor.action"),
    );
    report.metric(
        "hangdoctor.dispatch_begin_ms",
        "ms",
        Better::Lower,
        ms("hangdoctor.dispatch_begin"),
        calls("hangdoctor.dispatch_begin"),
    );
    report.metric(
        "hangdoctor.schecker_checks",
        "count",
        Better::Lower,
        c.schecker_checks as f64,
        jobs,
    );
    report.metric(
        "hangdoctor.suspicious_marks",
        "count",
        Better::Lower,
        c.suspicious_marks as f64,
        jobs,
    );
    report.metric(
        "hangdoctor.detections",
        "count",
        Better::Lower,
        c.detections as f64,
        jobs,
    );
    report.metric(
        "hangdoctor.diagnoses_bug_frac",
        "ratio",
        Better::Higher,
        c.bug_diagnoses as f64 / c.detections.max(1) as f64,
        c.detections,
    );
    report.metric(
        "perfmon.counter_reads",
        "count",
        Better::Lower,
        c.monitor.counter_reads as f64,
        jobs,
    );
    report.metric(
        "perfmon.stack_samples",
        "count",
        Better::Lower,
        c.monitor.stack_samples as f64,
        jobs,
    );
    report.metric(
        "perfmon.timer_fires",
        "count",
        Better::Lower,
        c.monitor.timer_fires as f64,
        jobs,
    );
    report.metric(
        "fleet.merge_ms",
        "ms",
        Better::Lower,
        ms("fleet.merge"),
        jobs,
    );
    let max = shards.iter().copied().fold(0.0, f64::max);
    let sum: f64 = shards.iter().sum();
    report.metric(
        "fleet.shard_busy_max_ms",
        "ms",
        Better::Lower,
        max,
        shards.len() as u64,
    );
    report.metric(
        "fleet.shard_busy_sum_ms",
        "ms",
        Better::Lower,
        sum,
        shards.len() as u64,
    );
    let mean = sum / shards.len().max(1) as f64;
    report.metric(
        "fleet.imbalance",
        "ratio",
        Better::Lower,
        if mean > 0.0 { max / mean } else { 1.0 },
        shards.len() as u64,
    );

    // The replay is single-threaded, so root spans (compile + device
    // jobs) should account for nearly all of its wall time.
    let coverage = tracer.root_ns() as f64 / traced.wall.as_nanos().max(1) as f64;
    report.metric("trace.coverage", "ratio", Better::Higher, coverage, 1);
    report.check(
        "fleet-study: spans cover >= 95% of the traced replay's wall time",
        if coverage >= 0.95 {
            Ok(format!("{:.4}", coverage))
        } else {
            Err(format!("coverage {:.4} < 0.95", coverage))
        },
    );
    report.note(
        "trace",
        format!("serial replay, {} spans", tracer.spans().len()),
    );
}
