//! Golden fixtures: the merged report of a small fleet run (clean and
//! chaos mode), checked in byte-for-byte. Any change to these bytes
//! means the science changed — performance work must leave them
//! untouched, and the fault-injection layer must leave the *clean*
//! fixture untouched even as code paths gain fault hooks.
//!
//! Every fixture starts with a one-line schema header carrying
//! [`FIXTURE_SCHEMA`]. The tag versions the *sampled randomness*, not
//! the report format: optimizations that keep the simulator's RNG draw
//! sequence intact must reproduce the fixture bytes under the same tag,
//! while a deliberate redesign of the draw order bumps the tag and
//! re-pins the bytes.
//!
//! Regenerate (only when a deliberate behavior change lands) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p hd-fleet --test golden
//! ```

use hangdoctor::{FaultConfig, HangDoctorConfig};
use hd_fleet::{run_fleet, DeviceProfile, FleetSpec};

/// Fixture schema tag, bumped when a deliberate behavior change re-pins
/// the fleet goldens. v2: the second hot-loop campaign's batched accrual
/// kernel (one fanned parent draw per accrue) and the system-pulse fast
/// path (one fanned parent draw per pulse cycle) replaced the v1
/// per-event draw chain. v3: each core's kworker pulse train draws its
/// cycles from its own SplitMix64 stream, seeded once when the simulator
/// is built, instead of from the world stream app work draws from; app
/// draws no longer depend on how many pulses fired before them, and idle
/// gaps advance each core in an integer loop.
const FIXTURE_SCHEMA: &str = "hang-doctor/fleet-golden/v3";

/// Prefixes the payload with the one-line schema header.
fn tagged(payload: String) -> String {
    format!("{{\"fixture_schema\": \"{FIXTURE_SCHEMA}\"}}\n{payload}")
}

fn spec() -> FleetSpec {
    FleetSpec {
        apps: vec![
            hd_appmodel::corpus::table5::k9mail(),
            hd_appmodel::corpus::table5::omninotes(),
        ],
        profiles: DeviceProfile::default_set(),
        devices_per_app: 2,
        executions_per_action: 2,
        root_seed: 7,
        threads: 2,
        config: HangDoctorConfig::default(),
        apidb_year: 2017,
        faults: FaultConfig::none(),
    }
}

const FIXTURE: &str = include_str!("fixtures/fleet_small.json");
const CHAOS_FIXTURE: &str = include_str!("fixtures/fleet_chaos.json");
const ASYNC_FIXTURE: &str = include_str!("fixtures/fleet_async.json");

fn check_or_regen(rendered: String, fixture: &str, name: &str) {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, rendered).expect("write fixture");
        return;
    }
    assert_eq!(
        rendered, fixture,
        "{name} drifted from the golden fixture; if the change is \
         intentional, regenerate with GOLDEN_REGEN=1"
    );
}

#[test]
fn merged_report_matches_checked_in_fixture() {
    let report = run_fleet(&spec());
    assert!(report.chaos.is_none(), "clean run must carry no chaos data");
    let json = serde_json::to_string_pretty(&report.merged).expect("serializable report");
    check_or_regen(tagged(format!("{json}\n")), FIXTURE, "fleet_small.json");
}

#[test]
fn async_report_matches_checked_in_fixture() {
    // The async hang corpus under the same small matrix: wait-edge
    // scheduling (pool queues, serial convoys, join blocks) and the
    // causal blame walk are pinned byte-for-byte.
    // Four executions per action: enough for every hang shape (the
    // pool-starvation app needs more observations than the tiny default
    // matrix grants before its diagnosis crosses the report threshold).
    let async_spec = FleetSpec {
        apps: hd_appmodel::corpus::async_hang_apps(),
        executions_per_action: 4,
        ..spec()
    };
    let report = run_fleet(&async_spec);
    assert!(report.chaos.is_none(), "clean run must carry no chaos data");
    let json = serde_json::to_string_pretty(&report.merged).expect("serializable report");
    check_or_regen(
        tagged(format!("{json}\n")),
        ASYNC_FIXTURE,
        "fleet_async.json",
    );
}

#[test]
fn chaos_report_matches_checked_in_fixture() {
    // Same matrix, 5% chaos: the merged science under faults AND the
    // per-category fault/recovery tallies are both pinned.
    let mut chaos_spec = spec();
    chaos_spec.faults = FaultConfig::chaos(0.05);
    let report = run_fleet(&chaos_spec);
    let chaos = report.chaos.as_ref().expect("chaos run carries tallies");
    assert!(chaos.tally.injected() > 0, "{:?}", chaos.tally);
    let merged = serde_json::to_string_pretty(&report.merged).expect("serializable report");
    let tallies = serde_json::to_string_pretty(chaos).expect("serializable chaos report");
    check_or_regen(
        tagged(format!("{merged}\n{tallies}\n")),
        CHAOS_FIXTURE,
        "fleet_chaos.json",
    );
}
