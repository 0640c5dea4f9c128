//! Every differential gate can fail: each case swaps one broken arm
//! into a real differential — one case per differential, plus the
//! precision differential's no-lost-true-positive claim — and asserts
//! that the named invariant fails and that the command's exit status
//! (`DifferentialReport::gate`) would be nonzero.

use std::collections::BTreeMap;

use hangdoctor::{HangDoctorConfig, SymptomThresholds};
use hd_appmodel::corpus::differential_corpus;
use hd_bench::common::trio_fleet;
use hd_bench::differential::{Arm, DifferentialReport};
use hd_bench::{async_diff, chaos, control, sast, telemetry};
use hd_faults::{FaultConfig, NetFaultConfig, NodeCrashPlan};
use hd_fleet::run_fleet_with_reports;
use hd_sast::RuleProfile;
use hd_telemetry::AggregationStore;

/// Runs a real differential with one arm broken.
type Broken = fn() -> DifferentialReport;

/// One case per differential: the invariant its broken arm must fail,
/// and the run.
const CASES: &[(&str, Broken)] = &[
    // sast-prec-diff: the contextual arm is replaced by the
    // context-insensitive scan.
    ("contextual-removes-false-positives", || {
        let diff = sast::precision_differential(42, 4, 2017);
        let truth = diff.ground_truth().clone();
        diff.arm("contextual", move || {
            sast::scan_arm(&differential_corpus(), &truth, RuleProfile::Full, 2017)
        })
        .run()
    }),
    // sast-prec-diff again: a contextual arm that reports nothing loses
    // every fleet-confirmed bug the full arm catches.
    ("contextual-loses-no-true-positive", || {
        sast::precision_differential(42, 4, 2017)
            .arm("contextual", Arm::default)
            .run()
    }),
    // async-diff: the causal arm runs with the blame walk off.
    ("causal-blames-every-culprit", || {
        let diff = async_diff::differential(42, 4, 2017);
        let truth = diff.ground_truth().clone();
        diff.arm("causal", move || {
            async_diff::fleet_arm(&truth, 42, 4, 2017, false)
        })
        .run()
    }),
    // sast-diff: the runtime arm is replaced by the static scan.
    ("failure-modes-runtime-only", || {
        let diff = sast::static_runtime_differential(42, 4, 2017);
        let truth = diff.ground_truth().clone();
        diff.arm("runtime", move || {
            sast::scan_arm(&differential_corpus(), &truth, RuleProfile::Full, 2017)
        })
        .run()
    }),
    // control-diff: the pushed arm skips the rollout, so every device
    // keeps the defaults.
    ("pushed-matches-local", || {
        let defaults = trio_fleet(42, 4, FaultConfig::none());
        control::differential(42, 0.0)
            .arm("pushed", move || {
                control::fleet_arm(&defaults, &BTreeMap::new())
            })
            .run()
    }),
    // loopback: one device's upload is dropped.
    ("networked-matches-in-process", || {
        let (fleet, jobs) = run_fleet_with_reports(&trio_fleet(31, 2, FaultConfig::none()));
        let net = NetFaultConfig::none();
        telemetry::loopback_differential(&fleet, &jobs, 2, net, 31, 25)
            .arm("networked", || {
                telemetry::networked_arm(&jobs[1..], 2, net, 31, 25)
            })
            .run()
    }),
    // cluster: node 0's export is left out of the coordinator fold.
    ("fold-report-matches-single-store", || {
        let (_, jobs) = run_fleet_with_reports(&trio_fleet(31, 2, FaultConfig::none()));
        let (net, crash) = (NetFaultConfig::none(), NodeCrashPlan::none(1));
        telemetry::cluster_differential(&jobs, 3, net, 31, 25, &crash)
            .arm("cluster", || {
                let ingest = telemetry::ingest_cluster(&jobs, 3, net, 31, &crash);
                let mut folded = AggregationStore::new();
                for node in 1..3 {
                    folded.absorb(&ingest.cluster().export(node).expect("node export"));
                }
                ingest.arm(&folded, 25)
            })
            .run()
    }),
    // chaos: the clean arm detects nothing (no symptom threshold is ever
    // crossed), so tp = 0.
    ("clean-arm-detects-bugs", || {
        let mut blind = trio_fleet(42, 2, FaultConfig::none());
        blind.config = HangDoctorConfig::builder()
            .thresholds(SymptomThresholds {
                context_switch_diff: 1e12,
                task_clock_diff: 1e18,
                page_fault_diff: 1e12,
            })
            .build()
            .expect("finite positive thresholds are valid");
        chaos::differential(42, 0.3, 2)
            .arm("clean", move || chaos::fleet_arm(&blind))
            .run()
    }),
];

#[test]
fn every_gate_fails_on_a_broken_arm() {
    for &(invariant, run) in CASES {
        let report = run();
        assert!(
            !report.holds(invariant),
            "{}: '{invariant}' held with a broken arm: {:?}",
            report.command,
            report.invariants
        );
        let err = report
            .gate()
            .expect_err("a failed invariant must fail the gate");
        assert!(err.contains(invariant), "{err}");
    }
}
