//! Golden fixtures: the full-profile analyzer reports over the Table 1
//! corpus, checked in byte-for-byte. Any change to these bytes means the
//! analysis changed — rule renames, severity regrades, summary-
//! propagation tweaks, and schema drift all surface here. CI greps the
//! same artifact, so this fixture is the machine-checkable contract of
//! `repro sast`. A second fixture pins, per profile, the size and digest
//! of every report over the corpus perfbench's `sast-corpus` workload
//! scans.
//!
//! Regenerate (only when a deliberate behavior change lands) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p hd-sast --test golden
//! ```

use hangdoctor::BlockingApiDb;
use hd_appmodel::corpus::{differential_corpus, synth};
use hd_sast::{analyze, scan_corpus, RuleProfile, SastConfig, SastReport, SAST_SCHEMA};

const FIXTURE: &str = include_str!("fixtures/sast_table1.json");
const CORPUS_FIXTURE: &str = include_str!("fixtures/sast_corpus.txt");

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
fn table1_full_profile_reports_match_checked_in_fixture() {
    let reports: Vec<SastReport> = hd_appmodel::corpus::table1::apps()
        .iter()
        .map(|app| analyze(app, &SastConfig::default()))
        .collect();
    assert!(reports.iter().any(|r| !r.findings.is_empty()));
    let json = serde_json::to_string_pretty(&reports).expect("serializable reports");
    check_or_regen(format!("{json}\n"), FIXTURE, "sast_table1.json");
}

/// FNV-1a 64, the digest perfbench prints beside its checked outputs.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn sast_corpus_reports_match_checked_in_digests() {
    // perfbench's sast-corpus input: the differential corpus plus 4,000
    // generated apps at seed 42, scanned on 2 threads with a fresh
    // cache. One line per profile: report count, bytes and FNV-1a 64 of
    // the one-report-per-line JSON.
    let mut apps = differential_corpus();
    apps.extend(synth::apps(4_000, 42));
    let db = BlockingApiDb::documented(2017);
    let mut lines = String::new();
    for profile in [
        RuleProfile::Contextual,
        RuleProfile::Full,
        RuleProfile::PerfCheckerCompat,
    ] {
        let config = SastConfig {
            profile,
            db_year: 2017,
        };
        let scan = scan_corpus(&apps, &db, &config, 2);
        let mut bytes = String::new();
        for report in &scan.reports {
            bytes.push_str(&serde_json::to_string(report).expect("serializable report"));
            bytes.push('\n');
        }
        lines.push_str(&format!(
            "{} {} {} {:016x}\n",
            profile.as_str(),
            scan.reports.len(),
            bytes.len(),
            fnv1a(bytes.as_bytes())
        ));
    }
    check_or_regen(lines, CORPUS_FIXTURE, "sast_corpus.txt");
}

#[test]
fn fixture_schema_keys_are_stable() {
    // The drift guard CI relies on: the checked-in artifact must carry
    // the schema tag and the SARIF-like per-finding keys.
    for key in [
        SAST_SCHEMA,
        "\"rule\"",
        "\"severity\"",
        "\"file\"",
        "\"line\"",
        "\"message\"",
        "\"est_blocking_ns\"",
        "\"db_year\"",
        "\"site\"",
        "\"context\"",
        "\"context_pairs\"",
        "\"app_fingerprint\"",
    ] {
        assert!(FIXTURE.contains(key), "fixture lost {key}");
    }
}
