//! # hd-fleet — the sharded parallel fleet engine
//!
//! The paper's field study (Section 4.3) runs Hang Doctor on many
//! devices at once and aggregates what they report. This crate scales
//! that story to a simulated fleet: a **corpus × device-profile ×
//! user-trace matrix** is enumerated into independent jobs, the jobs are
//! partitioned into **strided thread-per-core shards** (shard `s` of `T`
//! owns jobs `s, s+T, s+2T, …`), and each shard folds its own
//! [`MergedFleet`]-shaped partial as it runs; shard partials then fold
//! once more, in shard order, into the fleet artifact. The stride
//! interleaves each app's consecutive device indices across shards, so
//! every shard sees a balanced app mix without any shared queue, and a
//! shard reuses its hot `Arc<CompiledApp>` across the consecutive
//! devices of an app it owns.
//!
//! ## Determinism
//!
//! The merged half of a [`FleetReport`] is **bit-identical across thread
//! counts**:
//!
//! * every device's seed derives only from the fleet's root seed and the
//!   device's stable index (see [`device_seed`]) — never from scheduling;
//! * per-device runs share nothing mutable — each job gets its own
//!   simulator, its own Hang Doctor, and its own blocking-API database;
//! * the merge operators ([`HangBugReport::merge`],
//!   [`BlockingApiDb::merge`]) are associative, commutative, and
//!   idempotent **joins** (per-device counters join by max, conflicts
//!   resolve to the least element), and the scalar tallies are sums —
//!   so folding per-shard partials in any grouping produces the same
//!   value as the serial index-order fold, whatever the thread count.
//!
//! Wall-clock measurements live in the separate [`FleetTiming`] half,
//! which is excluded from determinism comparisons by construction.
//! Nothing guards them: perfbench's `fleet-study` workload measures
//! [`run_fleet`] by the CPU time it spends per device job, and counts
//! the work its detectors do.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use hangdoctor::{shared, BlockingApiDb, HangBugReport, HangDoctor, HangDoctorConfig};
use hd_appmodel::{build_run, generate_schedule, App, CompiledApp, TraceParams};
use hd_baselines::install;
use hd_faults::{FaultConfig, FaultPlan, FaultTally, NetFaultTally};
use hd_metrics::{score, Confusion};
use hd_simrt::{strided_map, ExecId, SimConfig, SimRng};
use serde::{Deserialize, Serialize};

/// A simulated device class (the device-profile axis of the matrix).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Profile name (e.g. `"low-end"`).
    pub name: String,
    /// CPU cores of the device.
    pub cores: usize,
    /// Background worker threads the app gets on this device.
    pub workers: usize,
}

impl DeviceProfile {
    /// The default three-tier fleet mix: low-end, mid-range, flagship.
    pub fn default_set() -> Vec<DeviceProfile> {
        vec![
            DeviceProfile {
                name: "low-end".into(),
                cores: 2,
                workers: 1,
            },
            DeviceProfile {
                name: "mid-range".into(),
                cores: 4,
                workers: 2,
            },
            DeviceProfile {
                name: "flagship".into(),
                cores: 8,
                workers: 4,
            },
        ]
    }
}

/// What to run: the full matrix and how to run it.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// The app corpus.
    pub apps: Vec<App>,
    /// Device profiles, assigned round-robin over each app's devices.
    pub profiles: Vec<DeviceProfile>,
    /// Simulated devices per app.
    pub devices_per_app: u32,
    /// User-trace length: executions per action per device.
    pub executions_per_action: usize,
    /// Root seed; every per-device seed derives from it.
    pub root_seed: u64,
    /// Worker threads (1 = serial reference).
    pub threads: usize,
    /// Hang Doctor configuration installed on every device.
    pub config: HangDoctorConfig,
    /// Vintage of the documented blocking-API database each device
    /// starts from.
    pub apidb_year: u16,
    /// Fault-injection configuration installed on every device (chaos
    /// mode). Each job derives its own deterministic [`FaultPlan`] from
    /// `(root_seed, job index)`; the all-zero default injects nothing
    /// and leaves the fleet bit-exact with a fault-free build.
    pub faults: FaultConfig,
}

impl FleetSpec {
    /// A spec over the Table 5 study corpus with paper-default settings.
    pub fn study(devices_per_app: u32, threads: usize, root_seed: u64) -> FleetSpec {
        FleetSpec {
            apps: hd_appmodel::corpus::table5::apps(),
            profiles: DeviceProfile::default_set(),
            devices_per_app,
            executions_per_action: 4,
            root_seed,
            threads,
            config: HangDoctorConfig::default(),
            apidb_year: 2017,
            faults: FaultConfig::none(),
        }
    }

    /// Total number of jobs (= devices) in the matrix.
    pub fn jobs(&self) -> usize {
        self.apps.len() * self.devices_per_app as usize
    }
}

/// Derives the seed of the device with stable index `index`.
///
/// One SplitMix64 scramble of `root_seed` offset by the golden-ratio
/// increment per index: consecutive indices land far apart in the seed
/// space, and the result depends on nothing but `(root_seed, index)` —
/// the cornerstone of thread-count-independent results.
pub fn device_seed(root_seed: u64, index: u64) -> u64 {
    let mut z =
        root_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one device run produced (one cell of the matrix).
struct JobResult {
    index: usize,
    app_idx: usize,
    report: HangBugReport,
    confusion: Confusion,
    detections: u64,
    hangs_observed: u64,
    simulated_ns: u64,
    db: BlockingApiDb,
    faults: FaultTally,
}

/// Per-app slice of the merged fleet results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AppFleetSummary {
    /// App name.
    pub app: String,
    /// Devices that ran this app.
    pub devices: u32,
    /// Losslessly merged hang bug report over all devices.
    pub report: HangBugReport,
    /// Summed confusion counts over the app's devices.
    pub confusion: Confusion,
    /// Deep analyses across the app's devices.
    pub detections: u64,
}

/// The deterministic half of a [`FleetReport`]: everything here is
/// bit-identical for a given spec regardless of thread count.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MergedFleet {
    /// Root seed the fleet derived from.
    pub root_seed: u64,
    /// Devices per app.
    pub devices_per_app: u32,
    /// Total jobs run.
    pub jobs: usize,
    /// Per-app summaries, corpus order.
    pub apps: Vec<AppFleetSummary>,
    /// Fleet-wide blocking-API database after merging every device's
    /// discoveries (the Figure 2(a) feedback loop at fleet scale).
    pub apidb: BlockingApiDb,
    /// Fleet-wide confusion totals.
    pub confusion: Confusion,
    /// Deep analyses across the fleet.
    pub detections: u64,
    /// Soft hangs observed across the fleet.
    pub hangs_observed: u64,
    /// Total simulated device time, ns.
    pub simulated_ns: u64,
}

/// Per-worker (shard) execution statistics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardStat {
    /// Worker index.
    pub worker: usize,
    /// Jobs this worker pulled from the queue.
    pub jobs: usize,
    /// Time the worker spent running jobs, ms.
    pub busy_ms: u64,
}

/// The wall-clock half of a [`FleetReport`]; varies run to run and is
/// excluded from determinism comparisons.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetTiming {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time, ms.
    pub wall_ms: u64,
    /// Simulated device-hours completed per wall-clock second — the
    /// fleet's throughput.
    pub device_hours_per_wall_second: f64,
    /// Per-worker statistics.
    pub shards: Vec<ShardStat>,
}

/// Fault-injection outcome of a chaos fleet run: the configuration in
/// force and the fleet-wide merged tally (job-index fold order, so it is
/// deterministic like the merged half).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosReport {
    /// The fault configuration every device ran under.
    pub config: FaultConfig,
    /// Per-category fault and recovery counts summed over the fleet.
    pub tally: FaultTally,
    /// Network transport fault/recovery counts (telemetry path). All
    /// zero for in-process fleets; the `hd-telemetry` loopback runner
    /// fills it from the per-device uploader tallies, merged in device
    /// order.
    pub net: NetFaultTally,
}

/// Everything a fleet run produced.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetReport {
    /// Deterministic merged results.
    pub merged: MergedFleet,
    /// Chaos-mode fault accounting; `None` when faults are disabled, so
    /// clean reports are byte-identical to a fault-free build's.
    pub chaos: Option<ChaosReport>,
    /// Wall-clock measurements.
    pub timing: FleetTiming,
}

impl FleetReport {
    /// Renders a human-readable fleet summary.
    pub fn render(&self) -> String {
        let m = &self.merged;
        let t = &self.timing;
        let mut out = format!(
            "Fleet — {} apps x {} devices = {} jobs on {} thread(s)\n\
             wall {:.1} s, {:.2} simulated device-hours ({:.2} device-hours/s)\n\
             confusion: tp={} fp={} fn={} tn={} (recall {:.2}, precision {:.2})\n\
             deep analyses: {}; hangs observed: {}; APIs discovered fleet-wide: {}\n",
            m.apps.len(),
            m.devices_per_app,
            m.jobs,
            t.threads,
            t.wall_ms as f64 / 1e3,
            m.simulated_ns as f64 / 3.6e12,
            t.device_hours_per_wall_second,
            m.confusion.tp,
            m.confusion.fp,
            m.confusion.fn_,
            m.confusion.tn,
            m.confusion.recall(),
            m.confusion.precision(),
            m.detections,
            m.hangs_observed,
            m.apidb.discovered().len(),
        );
        if let Some(chaos) = &self.chaos {
            let tally = &chaos.tally;
            out.push_str(&format!(
                "chaos: {} faults injected, {} degradation actions\n\
                 \x20 counter reads: {} failed, {} retried, {} recovered, {} lost; {} stale\n\
                 \x20 samples: {} dropped, {} truncated; {} late windows; {} jittered timers\n\
                 \x20 recovery: {} degraded verdicts, {} checks abandoned, {} sessions aborted\n",
                tally.injected(),
                tally.recovered(),
                tally.counter_read_failures,
                tally.counter_read_retries,
                tally.counter_reads_recovered,
                tally.counter_reads_lost,
                tally.stale_snapshots,
                tally.samples_dropped,
                tally.samples_truncated,
                tally.sampler_delays,
                tally.clock_jitters,
                tally.degraded_verdicts,
                tally.checks_abandoned,
                tally.sessions_aborted,
            ));
            if !chaos.net.is_empty() {
                let net = &chaos.net;
                out.push_str(&format!(
                    "\x20 network: {} connections dropped, {} deliveries delayed, {} frames duplicated\n\
                     \x20 network recovery: {} upload retries, {} NACKs, {} duplicates absorbed\n",
                    net.connections_dropped,
                    net.deliveries_delayed,
                    net.frames_duplicated,
                    net.upload_retries,
                    net.nacks_received,
                    net.duplicates_absorbed,
                ));
            }
        }
        for shard in &t.shards {
            out.push_str(&format!(
                "  worker {}: {} jobs, busy {} ms\n",
                shard.worker, shard.jobs, shard.busy_ms
            ));
        }
        for app in &m.apps {
            let bugs = app.report.entries().len();
            out.push_str(&format!(
                "  {:<24} devices={:<3} bugs={:<3} tp={:<4} fp={:<4}\n",
                app.app, app.devices, bugs, app.confusion.tp, app.confusion.fp
            ));
        }
        out
    }
}

/// Compiles every app of the corpus exactly once, fanning the work out
/// over `threads` workers; the result is the fleet's immutable
/// compile-once cache, indexed like `apps`.
fn compile_corpus(apps: &[App], threads: usize) -> Vec<Arc<CompiledApp>> {
    strided_map(apps, threads, |app| Arc::new(CompiledApp::new(app.clone())))
}

fn add_confusion(into: &mut Confusion, c: &Confusion) {
    into.tp += c.tp;
    into.fp += c.fp;
    into.fn_ += c.fn_;
    into.tn += c.tn;
}

/// Runs one cell of the matrix: the already-compiled
/// `spec.apps[app_idx]` on the device with stable index `index`.
///
/// `compiled` comes from the fleet's compile-once cache: the same
/// immutable `Arc<CompiledApp>` is shared read-only by every device of
/// the app, so no job ever re-clones or re-compiles the app model.
fn run_job(
    spec: &FleetSpec,
    compiled: &CompiledApp,
    index: usize,
    app_idx: usize,
    overridden: Option<&DeviceOverride>,
) -> JobResult {
    let app = compiled.app();
    let device_in_app = index % spec.devices_per_app as usize;
    let profile = &spec.profiles[device_in_app % spec.profiles.len()];
    let seed = device_seed(spec.root_seed, index as u64);
    // Device ids are 1-based and globally unique, so the merged report's
    // per-device evidence cells never collide across the fleet.
    let device_id = index as u32 + 1;
    let config = overridden
        .and_then(|o| o.config.clone())
        .unwrap_or_else(|| spec.config.clone());
    let faults = overridden.and_then(|o| o.faults).unwrap_or(spec.faults);

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

    let db = shared(BlockingApiDb::documented(spec.apidb_year));
    let (mut doctor, _handle) =
        HangDoctor::new(config, &app.name, &app.package, device_id, Some(db.clone()));
    // Every job gets its own deterministic fault schedule, derived like
    // the device seed from (root_seed, index) — a disabled config makes
    // the plan inert, so clean fleets are untouched.
    doctor.inject_faults(FaultPlan::for_job(faults, spec.root_seed, index as u64));
    let installed = install(Box::new(doctor), &mut run.sim);
    let summary = run.sim.run();

    let hd = installed
        .finish()
        .into_hang_doctor()
        .expect("fleet installs Hang Doctor");
    let flagged: HashSet<ExecId> = hd.detections.iter().map(|d| d.exec_id).collect();
    let confusion = score(run.sim.records(), &run.truths, &flagged);
    let db = db.lock().clone();
    JobResult {
        index,
        app_idx,
        report: hd.report,
        confusion,
        detections: hd.detections.len() as u64,
        hangs_observed: hd.hangs_observed,
        simulated_ns: summary.ended_at.0,
        db,
        faults: hd.faults,
    }
}

/// A shard's running fold of its job results: the [`MergedFleet`] shape
/// plus the chaos tally and (optionally) the per-device upload units.
/// Each worker absorbs every job it owns the moment the job finishes —
/// individual [`JobResult`]s never outlive their shard — and the shard
/// partials fold once more, in shard order, at the end. Because the
/// merge operators are commutative joins and the scalars are sums, any
/// shard grouping folds to the same value as the serial index-order
/// fold.
struct FleetAccum {
    jobs: usize,
    apps: Vec<AppFleetSummary>,
    apidb: BlockingApiDb,
    confusion: Confusion,
    detections: u64,
    hangs_observed: u64,
    simulated_ns: u64,
    faults: FaultTally,
    reports: Vec<JobReport>,
}

impl FleetAccum {
    fn new(spec: &FleetSpec) -> FleetAccum {
        FleetAccum {
            jobs: 0,
            apps: spec
                .apps
                .iter()
                .map(|app| AppFleetSummary {
                    app: app.name.clone(),
                    devices: 0,
                    report: HangBugReport::new(&app.name),
                    confusion: Confusion::default(),
                    detections: 0,
                })
                .collect(),
            apidb: BlockingApiDb::documented(spec.apidb_year),
            confusion: Confusion::default(),
            detections: 0,
            hangs_observed: 0,
            simulated_ns: 0,
            faults: FaultTally::default(),
            reports: Vec::new(),
        }
    }

    fn absorb(&mut self, spec: &FleetSpec, result: JobResult, collect_reports: bool) {
        self.jobs += 1;
        let slot = &mut self.apps[result.app_idx];
        slot.devices += 1;
        slot.report.merge(&result.report);
        add_confusion(&mut slot.confusion, &result.confusion);
        slot.detections += result.detections;
        self.apidb.merge(&result.db);
        add_confusion(&mut self.confusion, &result.confusion);
        self.detections += result.detections;
        self.hangs_observed += result.hangs_observed;
        self.simulated_ns += result.simulated_ns;
        self.faults.merge(&result.faults);
        if collect_reports {
            self.reports.push(JobReport {
                index: result.index,
                app: spec.apps[result.app_idx].name.clone(),
                device: result.index as u32 + 1,
                report: result.report,
                faults: result.faults,
            });
        }
    }

    fn fold(&mut self, other: FleetAccum) {
        self.jobs += other.jobs;
        for (slot, theirs) in self.apps.iter_mut().zip(&other.apps) {
            slot.devices += theirs.devices;
            slot.report.merge(&theirs.report);
            add_confusion(&mut slot.confusion, &theirs.confusion);
            slot.detections += theirs.detections;
        }
        self.apidb.merge(&other.apidb);
        add_confusion(&mut self.confusion, &other.confusion);
        self.detections += other.detections;
        self.hangs_observed += other.hangs_observed;
        self.simulated_ns += other.simulated_ns;
        self.faults.merge(&other.faults);
        self.reports.extend(other.reports);
    }

    fn into_merged(self, spec: &FleetSpec) -> (MergedFleet, FaultTally, Vec<JobReport>) {
        let merged = MergedFleet {
            root_seed: spec.root_seed,
            devices_per_app: spec.devices_per_app,
            jobs: self.jobs,
            apps: self.apps,
            apidb: self.apidb,
            confusion: self.confusion,
            detections: self.detections,
            hangs_observed: self.hangs_observed,
            simulated_ns: self.simulated_ns,
        };
        (merged, self.faults, self.reports)
    }
}

/// One device's end-of-run upload unit: what the telemetry layer ships
/// off-device. `index` is the job's stable fleet index and `device` the
/// globally unique 1-based device id the report's evidence cells use.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobReport {
    /// Stable job index in the fleet matrix.
    pub index: usize,
    /// App the device ran.
    pub app: String,
    /// Globally unique device id (`index + 1`).
    pub device: u32,
    /// The device's accumulated hang bug report.
    pub report: HangBugReport,
    /// What fault injection did to this device's run (all-zero on clean
    /// fleets) — the control plane's per-device health signal.
    pub faults: FaultTally,
}

/// Per-device departures from the fleet-wide spec, keyed by 1-based
/// device id. This is how the control plane materializes its directives:
/// a pushed threshold or a targeted fault campaign overrides only the
/// devices it names, and every other device keeps the spec's settings —
/// so an empty override map reproduces `run_fleet_with_reports`
/// byte-for-byte.
#[derive(Clone, Debug, Default)]
pub struct DeviceOverride {
    /// Replacement Hang Doctor configuration for this device.
    pub config: Option<HangDoctorConfig>,
    /// Replacement fault-injection configuration for this device.
    pub faults: Option<FaultConfig>,
}

/// Runs the fleet: enumerates the matrix, executes every job on the
/// worker pool, and merges the results.
///
/// # Panics
///
/// Panics if the spec has no apps, no profiles, or zero devices.
pub fn run_fleet(spec: &FleetSpec) -> FleetReport {
    run_fleet_inner(spec, false, &BTreeMap::new()).0
}

/// Like [`run_fleet`], but additionally hands back every device's
/// individual [`JobReport`] in stable job-index order — the per-device
/// artifacts a networked telemetry path uploads instead of merging
/// in-process. The [`FleetReport`] half is identical to what
/// [`run_fleet`] returns for the same spec.
pub fn run_fleet_with_reports(spec: &FleetSpec) -> (FleetReport, Vec<JobReport>) {
    run_fleet_inner(spec, true, &BTreeMap::new())
}

/// Like [`run_fleet_with_reports`], but devices named in `overrides` run
/// with their [`DeviceOverride`] settings instead of the spec's. An empty
/// map is byte-identical to [`run_fleet_with_reports`]; overrides keep
/// every determinism property (they are a pure function of the device
/// id, independent of shard assignment and thread count).
pub fn run_fleet_with_reports_overridden(
    spec: &FleetSpec,
    overrides: &BTreeMap<u32, DeviceOverride>,
) -> (FleetReport, Vec<JobReport>) {
    run_fleet_inner(spec, true, overrides)
}

fn run_fleet_inner(
    spec: &FleetSpec,
    collect_reports: bool,
    overrides: &BTreeMap<u32, DeviceOverride>,
) -> (FleetReport, Vec<JobReport>) {
    assert!(!spec.apps.is_empty(), "fleet needs at least one app");
    assert!(
        !spec.profiles.is_empty(),
        "fleet needs at least one profile"
    );
    assert!(spec.devices_per_app > 0, "fleet needs at least one device");
    let threads = spec.threads.max(1);
    let total_jobs = spec.jobs();
    let started = Instant::now();

    // Compile-once corpus cache: each app is compiled exactly once per
    // fleet run (in parallel on the same pool the jobs use) and shared
    // read-only as an `Arc<CompiledApp>` across all of its device×trace
    // jobs. Compilation is a pure function of the app, so the cache
    // cannot perturb determinism.
    let compiled = compile_corpus(&spec.apps, threads);

    // Sharded thread-per-core execution: shard `s` owns the strided job
    // set {s, s+T, s+2T, …}. Consecutive fleet indices run the same app
    // (the matrix enumerates an app's devices contiguously), so the
    // stride deals every app's devices round-robin across shards — a
    // balanced app mix per shard with zero shared scheduling state. Each
    // shard keeps the `Arc<CompiledApp>` of the app it is currently
    // working through hot in a local slot and folds its results into its
    // own partial as it goes, so no `JobResult` survives its shard.
    let devices_per_app = spec.devices_per_app as usize;
    let mut shards: Vec<ShardStat> = Vec::with_capacity(threads);
    let mut folded: Option<FleetAccum> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let compiled = &compiled;
            handles.push(scope.spawn(move || {
                let begun = Instant::now();
                let mut accum = FleetAccum::new(spec);
                let mut hot: Option<(usize, Arc<CompiledApp>)> = None;
                let mut index = worker;
                while index < total_jobs {
                    let app_idx = index / devices_per_app;
                    if hot.as_ref().map(|(a, _)| *a) != Some(app_idx) {
                        hot = Some((app_idx, Arc::clone(&compiled[app_idx])));
                    }
                    let (_, app) = hot.as_ref().expect("hot slot just filled");
                    let result = run_job(
                        spec,
                        app,
                        index,
                        app_idx,
                        overrides.get(&(index as u32 + 1)),
                    );
                    accum.absorb(spec, result, collect_reports);
                    index += threads;
                }
                (
                    ShardStat {
                        worker,
                        jobs: accum.jobs,
                        busy_ms: begun.elapsed().as_millis() as u64,
                    },
                    accum,
                )
            }));
        }
        // Shard partials fold in worker order; the merge operators are
        // commutative joins, so the grouping cannot change the value.
        for handle in handles {
            let (stat, accum) = handle.join().expect("fleet worker panicked");
            shards.push(stat);
            match &mut folded {
                Some(all) => all.fold(accum),
                None => folded = Some(accum),
            }
        }
    });

    let folded = folded.expect("at least one shard ran");
    debug_assert_eq!(folded.jobs, total_jobs);
    let (merged, fault_tally, mut job_reports) = folded.into_merged(spec);
    let chaos = if spec.faults.enabled() {
        Some(ChaosReport {
            config: spec.faults,
            tally: fault_tally,
            net: NetFaultTally::default(),
        })
    } else {
        None
    };
    // Shards collected their (already index-ascending) report lists
    // independently; one sort restores global stable index order.
    job_reports.sort_by_key(|r| r.index);
    let wall = started.elapsed();
    let wall_seconds = wall.as_secs_f64().max(1e-9);
    let device_hours = merged.simulated_ns as f64 / 3.6e12;
    let report = FleetReport {
        merged,
        chaos,
        timing: FleetTiming {
            threads,
            wall_ms: wall.as_millis() as u64,
            device_hours_per_wall_second: device_hours / wall_seconds,
            shards,
        },
    };
    (report, job_reports)
}

/// Ground-truth bugs of `app` that the fleet's merged runtime report
/// attributes a root cause to.
///
/// A report entry matches a bug when its root-cause symbol is the bug's
/// API symbol and its action is the bug's action (by name). This reads
/// only already-merged [`AppFleetSummary`] fields, so static↔runtime
/// differentials can be scored from an archived fleet artifact without
/// re-running any device.
pub fn bugs_reported(summary: &AppFleetSummary, app: &App) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for entry in summary.report.entries() {
        for bug in &app.bugs {
            if app.api(bug.api).symbol == entry.symbol
                && app
                    .action(bug.action)
                    .is_some_and(|a| a.name == entry.action)
            {
                out.insert(bug.id.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_appmodel::corpus::table5;

    fn small_spec(threads: usize) -> FleetSpec {
        FleetSpec {
            apps: vec![table5::k9mail(), table5::omninotes()],
            profiles: DeviceProfile::default_set(),
            devices_per_app: 3,
            executions_per_action: 2,
            root_seed: 42,
            threads,
            config: HangDoctorConfig::default(),
            apidb_year: 2017,
            faults: FaultConfig::none(),
        }
    }

    #[test]
    fn device_seeds_are_distinct_and_stable_across_calls() {
        assert_eq!(device_seed(42, 0), device_seed(42, 0));
        assert_ne!(device_seed(42, 0), device_seed(42, 1));
        assert_ne!(device_seed(42, 0), device_seed(43, 0));
        let seeds: std::collections::HashSet<u64> = (0..1_000).map(|i| device_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1_000, "seeds must not collide");
    }

    #[test]
    fn fleet_runs_and_detects() {
        let report = run_fleet(&small_spec(1));
        assert_eq!(report.merged.jobs, 6);
        assert_eq!(report.merged.apps.len(), 2);
        assert!(
            report.merged.confusion.tp > 0,
            "{:?}",
            report.merged.confusion
        );
        assert!(report.merged.detections > 0);
        assert!(report.merged.simulated_ns > 0);
        assert!(report.timing.device_hours_per_wall_second > 0.0);
        let k9 = &report.merged.apps[0];
        assert_eq!(k9.app, "K9-mail");
        assert_eq!(k9.devices, 3);
        assert!(!k9.report.entries().is_empty(), "K9 bugs must be reported");
        // K9's HtmlCleaner bug is not documented: the fleet discovers it.
        assert!(report
            .merged
            .apidb
            .discovered()
            .iter()
            .any(|(sym, _)| sym.contains("HtmlCleaner")));
    }

    #[test]
    fn bugs_reported_maps_entries_back_to_ground_truth() {
        let spec = small_spec(1);
        let report = run_fleet(&spec);
        let k9 = &report.merged.apps[0];
        let found = bugs_reported(k9, &spec.apps[0]);
        assert!(
            found.iter().any(|b| b.contains("clean")),
            "the HtmlCleaner bug must be attributed: {found:?}"
        );
        for id in &found {
            assert!(spec.apps[0].bug(id).is_some(), "{id} is not a K9 bug");
        }
    }

    #[test]
    fn shards_cover_all_jobs() {
        let report = run_fleet(&small_spec(3));
        assert_eq!(report.timing.shards.len(), 3);
        let pulled: usize = report.timing.shards.iter().map(|s| s.jobs).sum();
        assert_eq!(pulled, report.merged.jobs);
    }

    #[test]
    fn render_mentions_throughput() {
        let report = run_fleet(&small_spec(2));
        let s = report.render();
        assert!(s.contains("device-hours"));
        assert!(s.contains("K9-mail"));
        assert!(!s.contains("chaos"), "clean runs must not mention chaos");
    }

    #[test]
    fn clean_fleet_reports_no_chaos() {
        let report = run_fleet(&small_spec(2));
        assert!(report.chaos.is_none());
    }

    #[test]
    fn chaos_fleet_completes_and_tallies_per_category() {
        let mut spec = small_spec(2);
        spec.faults = FaultConfig::chaos(0.05);
        let report = run_fleet(&spec);
        let chaos = report.chaos.as_ref().expect("chaos report present");
        assert_eq!(chaos.config, FaultConfig::chaos(0.05));
        let t = &chaos.tally;
        assert!(t.injected() > 0, "{t:?}");
        // At 5% every category must have fired somewhere in 6 jobs.
        assert!(t.counter_read_failures > 0, "{t:?}");
        assert!(t.stale_snapshots > 0, "{t:?}");
        assert!(t.samples_dropped > 0, "{t:?}");
        assert!(t.clock_jitters > 0, "{t:?}");
        // And the fleet still detects despite the faults.
        assert!(report.merged.detections > 0);
        assert!(report.render().contains("chaos"));
    }

    #[test]
    fn job_reports_merge_to_the_fleet_report() {
        let spec = small_spec(2);
        let (fleet, jobs) = run_fleet_with_reports(&spec);
        assert_eq!(jobs.len(), fleet.merged.jobs);
        assert!(jobs.windows(2).all(|w| w[0].index < w[1].index));
        assert!(jobs.iter().all(|j| j.device == j.index as u32 + 1));
        // Re-merging the per-job reports app by app reproduces the
        // in-process merged per-app reports byte-for-byte — the invariant
        // the networked telemetry path relies on.
        for summary in &fleet.merged.apps {
            let mut merged = HangBugReport::new(&summary.app);
            for job in jobs.iter().filter(|j| j.app == summary.app) {
                merged.merge(&job.report);
            }
            assert_eq!(
                serde_json::to_string(&merged).unwrap(),
                serde_json::to_string(&summary.report).unwrap()
            );
        }
        // And the fleet half is identical to a plain run.
        let plain = run_fleet(&spec);
        assert_eq!(
            serde_json::to_string(&plain.merged).unwrap(),
            serde_json::to_string(&fleet.merged).unwrap()
        );
    }

    #[test]
    fn empty_overrides_are_byte_identical_to_the_plain_run() {
        let spec = small_spec(2);
        let (plain, plain_jobs) = run_fleet_with_reports(&spec);
        let (overridden, jobs) = run_fleet_with_reports_overridden(&spec, &BTreeMap::new());
        assert_eq!(
            serde_json::to_string(&plain.merged).unwrap(),
            serde_json::to_string(&overridden.merged).unwrap()
        );
        assert_eq!(plain_jobs.len(), jobs.len());
        for (a, b) in plain_jobs.iter().zip(&jobs) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
    }

    #[test]
    fn overrides_touch_only_the_named_device() {
        let spec = small_spec(2);
        let (_, baseline) = run_fleet_with_reports(&spec);
        // Device 2 alone runs under heavy dropped-sample faults; every
        // other device must reproduce its baseline report byte-for-byte.
        let mut overrides = BTreeMap::new();
        overrides.insert(
            2,
            DeviceOverride {
                config: None,
                faults: Some(FaultConfig::only(
                    hd_faults::FaultCategory::DroppedSample,
                    1.0,
                )),
            },
        );
        let (_, jobs) = run_fleet_with_reports_overridden(&spec, &overrides);
        assert_eq!(baseline.len(), jobs.len());
        for (a, b) in baseline.iter().zip(&jobs) {
            if a.device == 2 {
                assert!(
                    b.faults.samples_dropped > 0,
                    "override must inject on device 2: {:?}",
                    b.faults
                );
            } else {
                assert_eq!(
                    serde_json::to_string(a).unwrap(),
                    serde_json::to_string(b).unwrap(),
                    "device {} must be untouched",
                    a.device
                );
            }
        }
    }

    #[test]
    fn chaos_tally_is_thread_count_independent() {
        let mut serial = small_spec(1);
        serial.faults = FaultConfig::chaos(0.1);
        let mut parallel = small_spec(4);
        parallel.faults = FaultConfig::chaos(0.1);
        let a = run_fleet(&serial);
        let b = run_fleet(&parallel);
        assert_eq!(
            a.chaos.as_ref().unwrap().tally,
            b.chaos.as_ref().unwrap().tally
        );
    }
}
