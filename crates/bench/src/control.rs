//! Control-plane differential (`CONTROL_differential.json`) and the
//! live-server probe and push commands.
//!
//! The whole point of the control plane is that a threshold pushed over
//! the wire is *the same configuration* as one a developer bakes into
//! the build. Three arms run the identical fleet matrix: `local`
//! configures the retrained [`SymptomThresholds`] in the [`FleetSpec`];
//! `pushed` starts from the paper defaults and walks a full canary →
//! expanded → full rollout through a real loopback [`TelemetryServer`]
//! in the `hang-doctor/control/v1` dialect; `defaults` keeps the paper
//! defaults untouched. The detection outcomes (the merged fleet plus
//! every per-device report; wall-clock timing excluded) of `pushed` and
//! `local` must serialize to the **same bytes**, and `defaults` must
//! *differ*, so the gate cannot pass on a threshold that changes
//! nothing.
//!
//! At a nonzero chaos rate the `pushed` arm's control client loses,
//! delays, and duplicates frames ([`CtrlFaultConfig::chaos`]): its
//! resend/absorb recovery plus the controller's idempotent request
//! semantics must deliver the byte-identical outcome anyway.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use hangdoctor::{FaultConfig, HangDoctorConfig, SymptomThresholds};
use hd_control::{ControlAgent, RolloutSpec, RolloutStage};
use hd_faults::CtrlFaultConfig;
use hd_fleet::{run_fleet_with_reports_overridden, DeviceOverride, FleetSpec};
use hd_telemetry::{ControlClient, TelemetryError, TelemetryServer};
use serde::{Deserialize, Serialize};

use crate::common::{trio, trio_fleet};
use crate::differential::{Arm, Differential, DifferentialReport};

/// The retrained thresholds the differential pushes: a
/// stricter-precision filter than the paper default (every counter cut
/// raised), aggressive enough to move detection outcomes on the study
/// corpus (the `defaults-differ-from-local` invariant checks it does).
pub fn retrained_thresholds() -> SymptomThresholds {
    SymptomThresholds {
        context_switch_diff: 12.0,
        task_clock_diff: 2.5e8,
        page_fault_diff: 800.0,
    }
}

/// A fleet arm: the spec's detection outcome — the merged fleet plus
/// every per-device job report, wall-clock timing excluded — as the
/// canonical `outcome` output, under per-device config overrides.
pub fn fleet_arm(spec: &FleetSpec, overrides: &BTreeMap<u32, DeviceOverride>) -> Arm {
    let (report, jobs) = run_fleet_with_reports_overridden(spec, overrides);
    Arm::default().output("outcome", &(&report.merged, &jobs))
}

/// The pushed arm: push `thresholds` through a loopback server as a
/// full staged rollout — every device syncing once per stage — then run
/// `spec` with each device's final directives as its config.
fn pushed_arm(spec: &FleetSpec, thresholds: SymptomThresholds, chaos_rate: f64) -> Arm {
    let server = TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .io_workers(1)
        .start()
        .expect("bind loopback control server");
    let cfg = if chaos_rate > 0.0 {
        CtrlFaultConfig::chaos(chaos_rate)
    } else {
        CtrlFaultConfig::none()
    };
    // One client drives the whole fleet's sync traffic; device 0 keys
    // its fault stream (faults hit the shared control connection).
    let mut ctl = ControlClient::with_faults(server.local_addr(), cfg, spec.root_seed, 0);
    let mut agents: Vec<ControlAgent> = spec
        .apps
        .iter()
        .flat_map(|app| (0..spec.devices_per_app).map(move |_| app))
        .enumerate()
        .map(|(index, app)| ControlAgent::new(index as u32 + 1, &app.name, spec.config.clone()))
        .collect();
    ctl.push_thresholds(RolloutSpec {
        thresholds,
        baseline: spec.config.thresholds,
    })
    .expect("push rollout");
    // Stage by stage: advance, then one healthy sync round so every
    // covered device picks up its directives.
    let mut stages = 0;
    for stage in RolloutStage::ALL {
        let status = if stage == RolloutStage::Canary {
            // PushThresholds starts the rollout at canary.
            ctl.rollout_status().expect("rollout status")
        } else {
            ctl.advance_rollout(stage).expect("advance rollout")
        };
        assert!(!status.rolled_back, "healthy fleet must not roll back");
        stages += 1;
        for agent in &mut agents {
            let directives = ctl.sync(agent.sync_report()).expect("sync device");
            agent
                .apply(&directives)
                .expect("pushed thresholds pass builder validation");
        }
    }
    let tally = ctl.tally();
    ctl.shutdown().expect("server shutdown");
    server.join();

    // Materialize the final directives as per-device overrides.
    let base = serde_json::to_string(&spec.config).expect("config serializes");
    let overrides: BTreeMap<u32, DeviceOverride> = agents
        .iter()
        .filter(|a| serde_json::to_string(a.config()).expect("config serializes") != base)
        .map(|a| {
            let config = Some(a.config().clone());
            (
                a.device(),
                DeviceOverride {
                    config,
                    faults: None,
                },
            )
        })
        .collect();
    fleet_arm(spec, &overrides)
        .tally("stages", stages)
        .tally("directed", overrides.len() as u64)
        .tally("frames-lost", tally.frames_lost)
        .tally("frames-delayed", tally.frames_delayed)
        .tally("frames-duplicated", tally.frames_duplicated)
        .tally("resends", tally.resends)
        .tally("duplicates-absorbed", tally.duplicates_absorbed)
}

/// The pushed-vs-local differential at the given control-frame chaos
/// rate (0 = clean).
pub fn differential(seed: u64, chaos_rate: f64) -> Differential<'static> {
    let spec = trio_fleet(seed, 4, FaultConfig::none());
    let pushed = retrained_thresholds();
    let mut local = spec.clone();
    local.config = HangDoctorConfig::builder()
        .thresholds(pushed)
        .build()
        .expect("retrained thresholds pass builder validation");
    let defaults = spec.clone();
    Differential::new("control-diff", seed)
        .param("chaos_rate", chaos_rate)
        .param("devices", spec.jobs() as f64)
        .param("pushed.context_switch_diff", pushed.context_switch_diff)
        .param("pushed.task_clock_diff", pushed.task_clock_diff)
        .param("pushed.page_fault_diff", pushed.page_fault_diff)
        .arm("local", move || fleet_arm(&local, &BTreeMap::new()))
        .arm("pushed", move || pushed_arm(&spec, pushed, chaos_rate))
        .arm("defaults", move || fleet_arm(&defaults, &BTreeMap::new()))
        .invariant("pushed-matches-local", |r| {
            r.arm("pushed").out("outcome") == r.arm("local").out("outcome")
        })
        .invariant("defaults-differ-from-local", |r| {
            r.arm("defaults").out("outcome") != r.arm("local").out("outcome")
        })
}

/// Renders the differential's summary.
pub fn render(r: &DifferentialReport) -> String {
    let pushed = r.arm("pushed");
    let stages: Vec<&str> = RolloutStage::ALL
        .iter()
        .take(pushed.count("stages") as usize)
        .map(|s| s.name())
        .collect();
    format!(
        "control differential (seed {}, chaos {:.2}): {} devices, rollout {} → \
         {} directed — pushed {} local arm, baseline {} \
         (lost {} / delayed {} / duplicated {} frames; {} resends, {} dup ACKs absorbed)",
        r.seed,
        r.param("chaos_rate"),
        r.param("devices"),
        stages.join(" → "),
        pushed.count("directed"),
        if r.holds("pushed-matches-local") {
            "byte-identical to"
        } else {
            "DIVERGED from"
        },
        if r.holds("defaults-differ-from-local") {
            "differs (thresholds are live)"
        } else {
            "IDENTICAL (vacuous push)"
        },
        pushed.count("frames-lost"),
        pushed.count("frames-delayed"),
        pushed.count("frames-duplicated"),
        pushed.count("resends"),
        pushed.count("duplicates-absorbed"),
    )
}

/// Machine-readable result of one live-probe session (`repro control`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ControlProbeOutcome {
    /// Wire dialect the probe negotiated.
    pub dialect: String,
    /// Devices whose harvested runs were synced to the server.
    pub devices_synced: usize,
    /// The device the state-table query and stack pull targeted.
    pub device: u32,
    /// The queried per-action S-Checker state table.
    pub states: Vec<(u64, hangdoctor::ActionState, u32)>,
    /// The on-demand stack dump, if the device had a hung action.
    pub stack: Option<hd_control::StackDump>,
    /// App whose diagnosis was toggled off and back on.
    pub toggled_app: String,
    /// Rollout status, if a threshold rollout is in progress.
    pub rollout: Option<hd_control::RolloutStatusInfo>,
}

impl ControlProbeOutcome {
    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "control probe ({}): synced {} device runs; device {} state table has {} actions\n",
            self.dialect,
            self.devices_synced,
            self.device,
            self.states.len()
        );
        for (uid, state, executions) in &self.states {
            out.push_str(&format!(
                "  action {uid}: {state:?} after {executions} executions\n"
            ));
        }
        match &self.stack {
            Some(stack) => out.push_str(&format!(
                "stack dump from '{}' ({} ms response):\n  {}\n",
                stack.action,
                stack.response_ns / 1_000_000,
                stack.frames.join("\n  ")
            )),
            None => out.push_str(&format!(
                "device {} has no hung action to dump\n",
                self.device
            )),
        }
        out.push_str(&format!(
            "diagnosis toggled off and back on for '{}'\n",
            self.toggled_app
        ));
        match &self.rollout {
            Some(s) => out.push_str(&format!(
                "rollout: {} (cohort {}/{} bad, rest {}/{} bad)\n",
                s.stage, s.cohort_bad, s.cohort_devices, s.rest_bad, s.rest_devices
            )),
            None => out.push_str("no threshold rollout in progress\n"),
        }
        out
    }
}

/// Builds a control client for `addr`, with chaos-rate fault injection
/// when requested.
fn control_client(addr: SocketAddr, seed: u64, chaos: Option<f64>) -> ControlClient {
    match chaos {
        Some(rate) if rate > 0.0 => {
            ControlClient::with_faults(addr, CtrlFaultConfig::chaos(rate), seed, 0)
        }
        _ => ControlClient::connect(addr),
    }
}

/// Live-probes a running server: harvests one real Hang Doctor run per
/// study app through a [`ControlAgent`], syncs the agents' state tables
/// up, then exercises every probe verb — state-table query, on-demand
/// stack pull, per-app diagnosis toggle, rollout status.
pub fn run_control_probe(
    addr: SocketAddr,
    seed: u64,
    executions: usize,
    chaos: Option<f64>,
    device: u32,
) -> Result<ControlProbeOutcome, TelemetryError> {
    use hangdoctor::HangDoctor;
    use hd_appmodel::{build_run, round_robin_schedule, CompiledApp};
    use hd_simrt::SimConfig;

    let mut ctl = control_client(addr, seed, chaos);
    let apps = trio();
    let mut synced = 0usize;
    for (i, app) in apps.iter().enumerate() {
        let dev = i as u32 + 1;
        let compiled = CompiledApp::new(app.clone());
        let sched = round_robin_schedule(app, executions, 3_000);
        let mut run = build_run(
            &compiled,
            &sched,
            SimConfig::default(),
            seed.wrapping_add(i as u64),
        );
        let (probe, out) = HangDoctor::new(
            HangDoctorConfig::default(),
            &app.name,
            &app.package,
            dev,
            None,
        );
        run.sim.add_probe(Box::new(probe));
        run.sim.run();
        let out = out.borrow();
        let mut agent = ControlAgent::new(dev, &app.name, HangDoctorConfig::default());
        agent.observe(&out);
        let directives = ctl.sync(agent.sync_report())?;
        agent
            .apply(&directives)
            .expect("server directives pass builder validation");
        synced += 1;
    }

    let states = ctl.query_state(device)?;
    let stack = ctl.pull_stack(device)?;
    let toggled_app = apps[0].name.clone();
    ctl.toggle_diagnosis(&toggled_app, false)?;
    ctl.toggle_diagnosis(&toggled_app, true)?;
    // No rollout in progress is a normal answer, not a probe failure.
    let rollout = ctl.rollout_status().ok();

    Ok(ControlProbeOutcome {
        dialect: hd_control::CONTROL_SCHEMA.to_string(),
        devices_synced: synced,
        device,
        states,
        stack,
        toggled_app,
        rollout,
    })
}

/// Machine-readable result of one retrain-and-push session
/// (`repro push-thresholds`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PushOutcome {
    /// Whether the heavy (exhaustive) adaptation pass produced the push.
    pub heavy: bool,
    /// Training confusion before adaptation: `(tp, fp, fn, tn)`.
    pub before: (usize, usize, usize, usize),
    /// Training confusion after.
    pub after: (usize, usize, usize, usize),
    /// The thresholds the retrain derived and pushed.
    pub thresholds: SymptomThresholds,
    /// Rollout status after each stage, canary first.
    pub statuses: Vec<hd_control::RolloutStatusInfo>,
}

impl PushOutcome {
    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} retrain: confusion {:?} → {:?}; pushed thresholds \
             cs {:.1} / tc {:.2e} / pf {:.1}\n",
            if self.heavy { "heavy" } else { "light" },
            self.before,
            self.after,
            self.thresholds.context_switch_diff,
            self.thresholds.task_clock_diff,
            self.thresholds.page_fault_diff,
        );
        for s in &self.statuses {
            out.push_str(&format!(
                "  stage {}: cohort {}/{} bad, rest {}/{} bad{}\n",
                s.stage,
                s.cohort_bad,
                s.cohort_devices,
                s.rest_bad,
                s.rest_devices,
                if s.rolled_back {
                    " — ROLLED BACK"
                } else {
                    ""
                },
            ));
        }
        out
    }
}

/// Retrains thresholds on the labeled training set (`hd-core::trainer`
/// plus the light or heavy adaptation pass) and pushes them to a
/// running server as a full staged rollout, reporting cohort health
/// after every stage.
pub fn run_push_thresholds(
    addr: SocketAddr,
    seed: u64,
    executions: usize,
    heavy: bool,
    chaos: Option<f64>,
) -> Result<PushOutcome, TelemetryError> {
    use hangdoctor::{
        collect_samples, heavy_adaptation, light_adaptation, paper_filter, thresholds_from_filter,
        training_set, DiffMode,
    };

    let samples = collect_samples(&training_set(), executions, seed);
    let base = SymptomThresholds::default();
    let out = if heavy {
        heavy_adaptation(&samples, DiffMode::MainMinusRender, 3)
    } else {
        light_adaptation(&paper_filter(base), &samples, DiffMode::MainMinusRender)
    };
    let thresholds = thresholds_from_filter(&out.filter, base);

    let mut ctl = control_client(addr, seed, chaos);
    let mut statuses = Vec::new();
    statuses.push(ctl.push_thresholds(RolloutSpec {
        thresholds,
        baseline: base,
    })?);
    for stage in [RolloutStage::Expanded, RolloutStage::Full] {
        let status = ctl.advance_rollout(stage)?;
        let rolled_back = status.rolled_back;
        statuses.push(status);
        if rolled_back {
            break;
        }
    }
    Ok(PushOutcome {
        heavy,
        before: out.before,
        after: out.after,
        thresholds,
        statuses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_control::{device_bucket, CohortHealth, ControlRequest, ControlResponse, SyncReport};
    use hd_faults::FaultCategory;

    #[test]
    fn clean_differential_is_byte_identical_and_non_vacuous() {
        let r = differential(42, 0.0).run();
        assert!(r.passed(), "{}", render(&r));
        let pushed = r.arm("pushed");
        assert_eq!(pushed.count("stages"), RolloutStage::ALL.len() as u64);
        assert_eq!(pushed.count("directed") as f64, r.param("devices"));
        assert_eq!(pushed.count("frames-lost"), 0);
        assert!(render(&r).contains("canary → expanded → full"));
    }

    #[test]
    fn chaotic_differential_recovers_to_the_same_bytes() {
        let r = differential(42, 0.4).run();
        assert!(r.passed(), "{}", render(&r));
        let pushed = r.arm("pushed");
        assert!(
            pushed.count("frames-lost")
                + pushed.count("frames-delayed")
                + pushed.count("frames-duplicated")
                > 0,
            "chaos at 0.4 must actually injure the control stream"
        );
        assert!(pushed.count("resends") >= pushed.count("frames-lost"));
    }

    #[test]
    fn fault_injected_canary_regression_rolls_back_end_to_end() {
        // A one-app fleet sized so device 20 — the smallest id hashing
        // into the 1% canary cohort — exists, with total sample loss
        // injected on that device alone. Its aborted diagnosis sessions
        // are the regression signal; every other device stays clean.
        let canary = (1u32..10_000)
            .find(|&d| device_bucket(d) < RolloutStage::Canary.cutoff())
            .expect("some device hashes into the canary cohort");
        let mut spec = trio_fleet(7, 4, FaultConfig::none());
        spec.apps = vec![hd_appmodel::corpus::table5::k9mail()];
        spec.devices_per_app = canary + 4;
        spec.threads = 4;
        spec.executions_per_action = 3;
        let mut overrides = BTreeMap::new();
        overrides.insert(
            canary,
            DeviceOverride {
                config: None,
                faults: Some(FaultConfig::only(FaultCategory::DroppedSample, 1.0)),
            },
        );
        let (_, jobs) = run_fleet_with_reports_overridden(&spec, &overrides);
        let bad = jobs[canary as usize - 1].faults.sessions_aborted;
        assert!(bad >= 2, "total sample loss must abort sessions, got {bad}");

        // Feed the fleet's real health tallies through the wire.
        let server = TelemetryServer::builder()
            .addr("127.0.0.1:0")
            .shards(2)
            .io_workers(1)
            .start()
            .expect("bind loopback control server");
        let mut ctl = ControlClient::connect(server.local_addr());
        ctl.push_thresholds(RolloutSpec {
            thresholds: retrained_thresholds(),
            baseline: SymptomThresholds::default(),
        })
        .expect("push rollout");
        for job in &jobs {
            let directives = ctl
                .sync(SyncReport {
                    device: job.device,
                    app: job.app.clone(),
                    states: vec![],
                    stack: None,
                    health: CohortHealth {
                        uploads: 1,
                        nacks: 0,
                        aborts: job.faults.sessions_aborted,
                    },
                })
                .expect("sync device");
            // Post-rollback syncs are pinned to the baseline; the
            // faulted canary device itself never keeps the new
            // thresholds past its own regression report.
            if let Some(t) = directives.thresholds {
                if device_bucket(job.device) >= RolloutStage::Canary.cutoff()
                    || job.device != canary
                {
                    assert_eq!(t, SymptomThresholds::default());
                }
            }
        }
        let status = ctl.rollout_status().expect("rollout status");
        assert!(status.rolled_back, "{status:?}");
        assert_eq!(status.stage, "rolled-back");
        // A late advance cannot resurrect the rollout, and every
        // device — cohort or not — now gets the baseline.
        let resurrect = ctl
            .request(&ControlRequest::AdvanceRollout {
                stage: RolloutStage::Full,
            })
            .expect("advance after rollback");
        match resurrect {
            ControlResponse::Rollout(s) => assert!(s.rolled_back),
            other => panic!("unexpected {other:?}"),
        }
        let directives = ctl
            .sync(SyncReport {
                device: canary + 1,
                app: "k9mail".to_string(),
                states: vec![],
                stack: None,
                health: CohortHealth::default(),
            })
            .expect("post-rollback sync");
        assert_eq!(directives.thresholds, Some(SymptomThresholds::default()));
        ctl.shutdown().expect("server shutdown");
        server.join();
    }

    #[test]
    fn probe_and_push_drive_a_loopback_server() {
        let server = TelemetryServer::builder()
            .addr("127.0.0.1:0")
            .shards(2)
            .io_workers(1)
            .start()
            .expect("bind loopback control server");
        let addr = server.local_addr();

        let probe = run_control_probe(addr, 21, 2, None, 1).expect("control probe");
        assert_eq!(probe.dialect, "hang-doctor/control/v1");
        assert_eq!(probe.devices_synced, 3);
        assert!(!probe.states.is_empty(), "k9mail run must record actions");
        assert!(probe.rollout.is_none());

        let push = run_push_thresholds(addr, 21, 2, false, None).expect("push thresholds");
        assert_eq!(push.statuses.len(), 3);
        assert_eq!(push.statuses[0].stage, "canary");
        assert_eq!(push.statuses[2].stage, "full");
        assert!(push.statuses.iter().all(|s| !s.rolled_back));

        // The probe again now sees the rollout.
        let probe = run_control_probe(addr, 21, 2, None, 1).expect("second probe");
        let rollout = probe.rollout.expect("rollout visible after push");
        assert_eq!(rollout.stage, "full");

        let mut ctl = ControlClient::connect(addr);
        ctl.shutdown().expect("server shutdown");
        server.join();
    }
}
