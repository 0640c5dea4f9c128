//! The networked differentials: routing every fleet job's report
//! through the real uploader → TCP server → aggregation path, on one
//! node (loopback) or partitioned across N nodes and folded by the
//! coordinator (cluster), must reproduce the in-process merge
//! **byte-for-byte** — clean, under transport chaos whose duplicate
//! deliveries the idempotent ingest absorbs, and across deterministic
//! kill-and-restart schedules — and over the Table 1 corpus the
//! networked report is pinned by a golden fixture.

use std::ops::ControlFlow;

use hangdoctor::HangDoctorConfig;
use hd_appmodel::corpus::{async_hang_apps, full_corpus, table1, table5};
use hd_bench::differential::DifferentialReport;
use hd_bench::telemetry::{batch_of, cluster_differential, loopback_differential};
use hd_faults::{FaultConfig, NetFaultConfig, NetFaultTally, NodeCrashPlan};
use hd_fleet::{run_fleet_with_reports, DeviceProfile, FleetReport, FleetSpec};
use hd_telemetry::wal::{encode_batch_record, encode_record, WalBatch};
use hd_telemetry::wire::drain_requests;
use hd_telemetry::{batch_fingerprint, encode_frame, fnv1a, Request, TelemetryReport, WalRecord};

fn spec(root_seed: u64, faults: FaultConfig) -> FleetSpec {
    FleetSpec {
        apps: vec![table5::k9mail(), table5::omninotes(), table5::andstatus()],
        profiles: DeviceProfile::default_set(),
        devices_per_app: 3,
        executions_per_action: 2,
        root_seed,
        threads: 3,
        config: HangDoctorConfig::default(),
        apidb_year: 2017,
        faults,
    }
}

fn loopback(spec: &FleetSpec, net: NetFaultConfig) -> (FleetReport, DifferentialReport) {
    let (fleet, jobs) = run_fleet_with_reports(spec);
    let report = loopback_differential(&fleet, &jobs, spec.threads, net, spec.root_seed, 50).run();
    (fleet, report)
}

fn cluster(
    net: NetFaultConfig,
    nodes: usize,
    top_n: usize,
    crash: NodeCrashPlan,
) -> DifferentialReport {
    let spec = spec(29, FaultConfig::none());
    let (_, jobs) = run_fleet_with_reports(&spec);
    cluster_differential(&jobs, nodes, net, spec.root_seed, top_n, &crash).run()
}

#[test]
fn clean_loopback_matches_in_process_merge_byte_for_byte() {
    let small = FleetSpec {
        apps: vec![table5::k9mail(), table5::omninotes()],
        devices_per_app: 2,
        threads: 2,
        ..spec(11, FaultConfig::none())
    };
    for spec in [spec(23, FaultConfig::none()), small] {
        let (fleet, r) = loopback(&spec, NetFaultConfig::none());
        // The invariants: byte-identical report, every job's batch
        // applied exactly once, duplicates absorbed rather than merged.
        assert!(r.passed(), "{:?}", r.invariants);
        let networked = r.arm("networked");
        assert_eq!(networked.count("duplicates-absorbed"), 0);
        assert_eq!(networked.count("nacks"), 0);
        // Clean runs must not grow chaos accounting.
        assert!(fleet.chaos.is_none());
        let report: TelemetryReport = networked.decode("report");
        assert_eq!(report.devices, fleet.merged.jobs);
    }
}

/// Golden fixture: the aggregated top-N hang groups over the Table 1
/// corpus, produced by the loopback differential and checked in
/// byte-for-byte beside the telemetry crate whose aggregation it pins.
/// Any drift means the cross-device aggregation — or the wire schema
/// feeding it — changed. Regenerate (only when a deliberate behavior
/// change lands) with `GOLDEN_REGEN=1 cargo test -p hd-bench --test
/// telemetry`.
/// The server logs each upload by splicing its wire bytes into a WAL
/// record. For every device upload of the benchmark's fleet-study
/// fleet (the study corpus plus the async apps, two devices each, seed
/// 42), the bytes the server's read path hands on are the batch's
/// canonical JSON, their fingerprint is the batch's, and the spliced
/// record is byte for byte the encoded one.
#[test]
fn spliced_wal_records_equal_encoded_ones_for_every_fleet_upload() {
    let mut apps = full_corpus(42);
    apps.extend(async_hang_apps());
    let spec = FleetSpec {
        apps,
        ..FleetSpec::study(2, 2, 42)
    };
    let (_, jobs) = run_fleet_with_reports(&spec);
    assert_eq!(jobs.len(), spec.jobs());
    for job in &jobs {
        let batch = batch_of(job);
        let mut frame = encode_frame(&Request::Upload(batch.clone()));
        let mut wire = None;
        drain_requests(&mut frame, |_, _, json| {
            wire = json.map(<[u8]>::to_vec);
            ControlFlow::Continue(())
        })
        .unwrap();
        let json = wire.expect("our own upload frames are canonical");
        let fingerprint = fnv1a(&json);
        assert_eq!(fingerprint, batch_fingerprint(&batch));
        let encoded = encode_record(&WalRecord::Batch(WalBatch { fingerprint, batch }));
        assert_eq!(
            encode_batch_record(fingerprint, &json),
            encoded,
            "{}",
            job.app
        );
    }
}

#[test]
fn table1_aggregation_matches_checked_in_fixture() {
    const FIXTURE: &str = include_str!("../../telemetry/tests/fixtures/telemetry_table1.json");
    let spec = FleetSpec {
        apps: table1::apps(),
        devices_per_app: 2,
        threads: 4,
        ..spec(17, FaultConfig::none())
    };
    let (fleet, jobs) = run_fleet_with_reports(&spec);
    let net = NetFaultConfig::none();
    let r = loopback_differential(&fleet, &jobs, spec.threads, net, spec.root_seed, 25).run();
    assert!(
        r.passed(),
        "loopback path diverged from the in-process merge: {:?}",
        r.invariants
    );
    let report: TelemetryReport = r.arm("networked").decode("report");
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    let rendered = format!("{json}\n");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../telemetry/tests/fixtures/telemetry_table1.json"
        );
        std::fs::write(path, rendered).expect("write fixture");
        return;
    }
    assert_eq!(
        rendered, FIXTURE,
        "telemetry_table1.json drifted from the golden fixture; if the \
         change is intentional, regenerate with GOLDEN_REGEN=1"
    );
}

#[test]
fn chaos_loopback_stays_byte_identical_with_duplicates_absorbed() {
    let (_, r) = loopback(
        &spec(23, FaultConfig::chaos(0.2)),
        NetFaultConfig::chaos(0.5),
    );
    assert!(
        r.passed(),
        "chaos broke the differential: {:?}",
        r.invariants
    );
    let net: NetFaultTally = r.arm("networked").decode("net");
    assert!(
        net.frames_duplicated > 0,
        "a 50% duplicate rate over 9 devices should fire at least once"
    );
}

/// The chaos transport tally is deterministic: same spec, same bytes —
/// scheduling, retries, and server timing cannot perturb it.
#[test]
fn chaos_net_tally_is_deterministic() {
    let net = || {
        let (_, r) = loopback(
            &spec(23, FaultConfig::chaos(0.1)),
            NetFaultConfig::chaos(0.4),
        );
        assert!(r.passed());
        r.arm("networked").out("net").to_string()
    };
    assert_eq!(net(), net());
}

#[test]
fn three_node_fold_matches_single_store_byte_for_byte() {
    let r = cluster(NetFaultConfig::none(), 3, 50, NodeCrashPlan::none(1));
    assert!(r.passed(), "cluster fold diverged: {:?}", r.invariants);
    let cluster = r.arm("cluster");
    assert_eq!(cluster.count("kill-restarts"), 0);
    assert_eq!(cluster.count("batches-recovered"), 0);
    // Partitioning is real: with 9 devices over 3 nodes, more than one
    // node must have ingested something.
    assert!(
        cluster.count("busy-nodes") > 1,
        "all batches landed on one node"
    );
}

#[test]
fn kill_and_restart_mid_upload_keeps_the_fold_identical() {
    // Three waves; node 1 is killed and WAL-restarted after wave 0.
    let r = cluster(
        NetFaultConfig::none(),
        3,
        50,
        NodeCrashPlan::pinned(3, 0, 1),
    );
    assert!(r.passed(), "restart broke the fold: {:?}", r.invariants);
    let cluster = r.arm("cluster");
    assert_eq!(
        cluster.decode::<Vec<(usize, usize)>>("crashes"),
        vec![(0, 1)]
    );
    // The victim had ingested wave-0 batches before dying; they must
    // have come back through WAL replay, not been silently lost.
    assert!(
        cluster.count("batches-recovered") > 0,
        "the killed node replayed nothing — the differential passed vacuously"
    );
}

#[test]
fn chaos_plus_random_crashes_stay_identical_with_duplicates_absorbed() {
    let crash = NodeCrashPlan::for_cluster(1.0, 3, 4, 29);
    let r = cluster(NetFaultConfig::chaos(0.5), 3, 50, crash);
    assert!(r.passed(), "chaos broke the fold: {:?}", r.invariants);
    let cluster = r.arm("cluster");
    assert!(
        cluster.count("kill-restarts") > 0,
        "a certain crash rate must fire at least once"
    );
    assert!(
        cluster.count("duplicates-absorbed") > 0,
        "a 50% duplicate rate over 9 devices should fire at least once"
    );
}

/// Same spec, same bytes: the whole cluster run — routing, chaos
/// streams, crash schedule, recovery — is deterministic.
#[test]
fn cluster_outcome_is_deterministic() {
    let once = || {
        let r = cluster(
            NetFaultConfig::chaos(0.3),
            2,
            25,
            NodeCrashPlan::pinned(2, 0, 0),
        );
        assert!(r.passed());
        let cluster = r.arm("cluster");
        (
            cluster.out("report").to_string(),
            cluster.out("crashes").to_string(),
            cluster.count("batches-recovered"),
        )
    };
    assert_eq!(once(), once());
}
