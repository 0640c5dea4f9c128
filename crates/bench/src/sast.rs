//! Static analysis experiments: the corpus-wide `hd-sast` scan, the
//! static↔runtime differential and the three-arm precision differential.
//!
//! The scan runs the interprocedural analyzer over every corpus app and
//! packages the per-app reports (the `repro sast` artifact). The
//! static↔runtime differential (`repro sast-diff`) races the
//! full-profile static scan against a Hang Doctor fleet on the same
//! corpus and scores both arms against ground truth per bug class: the
//! paper's three offline failure modes — unknown APIs, closed-source
//! libraries, self-developed lengthy operations — must fall out as
//! exactly the classes static analysis misses while runtime detection
//! catches them. The precision differential (`repro sast-prec-diff`)
//! scores all three rule profiles against fleet-confirmed ground truth:
//! the contextual arm must remove false positives versus `full` and
//! lose no true positive.

use std::collections::BTreeSet;
use std::rc::Rc;

use hangdoctor::{BlockingApiDb, FaultConfig, HangDoctorConfig};
use hd_appmodel::corpus::differential_corpus;
use hd_appmodel::App;
use hd_fleet::{bugs_reported, run_fleet, DeviceProfile, FleetReport, FleetSpec};
use hd_metrics::{ArmScore, Truth};
use hd_sast::{
    analyze_with_db, classify_bug, scan_corpus, RuleProfile, SastConfig, SastReport, Severity,
};
use serde::{Deserialize, Serialize};

use crate::common::render_table;
use crate::differential::{Arm, Differential, DifferentialReport};

/// The corpus-wide scan artifact `repro sast` emits: one analyzer
/// report per app (each carrying the `hang-doctor/sast/v1` schema tag).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SastScan {
    /// Rule profile the scan ran under.
    pub profile: String,
    /// Vintage of the blocking-API database.
    pub db_year: u16,
    /// Per-app reports, corpus order.
    pub reports: Vec<SastReport>,
}

impl SastScan {
    /// Total findings across the corpus.
    pub fn total_findings(&self) -> usize {
        self.reports.iter().map(|r| r.findings.len()).sum()
    }

    /// Findings tagged with a ground-truth bug id.
    pub fn confirmed(&self) -> usize {
        self.reports
            .iter()
            .flat_map(|r| &r.findings)
            .filter(|f| f.bug_id.is_some())
            .count()
    }

    /// Renders the per-app scan table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .reports
            .iter()
            .filter(|r| !r.findings.is_empty())
            .map(|r| {
                let errors = r
                    .findings
                    .iter()
                    .filter(|f| f.severity == Severity::Error)
                    .count();
                let nested = r.findings.iter().filter(|f| f.depth > 0).count();
                vec![
                    r.app.clone(),
                    r.findings.len().to_string(),
                    errors.to_string(),
                    nested.to_string(),
                    r.bug_ids().len().to_string(),
                ]
            })
            .collect();
        format!(
            "hd-sast scan — profile {}, db {} over {} apps\n{}\nTotal: {} findings, {} on ground-truth bugs\n",
            self.profile,
            self.db_year,
            self.reports.len(),
            render_table(&["app", "findings", "errors", "nested", "bugs"], &rows),
            self.total_findings(),
            self.confirmed(),
        )
    }
}

/// Scans the differential corpus under `profile` against a documented
/// database of the given vintage, with `threads` strided-shard workers.
/// The artifact is byte-identical at every thread count.
pub fn run_scan(profile: RuleProfile, db_year: u16, threads: usize) -> SastScan {
    let db = BlockingApiDb::documented(db_year);
    let config = SastConfig { profile, db_year };
    SastScan {
        profile: profile.as_str().to_string(),
        db_year,
        reports: scan_corpus(&differential_corpus(), &db, &config, threads).reports,
    }
}

/// Every ground-truth bug of `corpus` → its offline-failure-mode class.
pub fn corpus_truth(corpus: &[App], db_year: u16) -> Truth {
    corpus
        .iter()
        .flat_map(|app| {
            app.bugs.iter().map(move |bug| {
                let class = classify_bug(app, bug, db_year).as_str().to_string();
                (bug.id.clone(), class)
            })
        })
        .collect()
}

/// A scanner arm: `profile` scans `corpus`; a finding is a true flag
/// when it names a bug in `truth`.
pub fn scan_arm(corpus: &[App], truth: &Truth, profile: RuleProfile, db_year: u16) -> Arm {
    let db = BlockingApiDb::documented(db_year);
    let config = SastConfig { profile, db_year };
    let (mut flagged, mut true_flags) = (0, 0);
    let mut found = BTreeSet::new();
    for app in corpus {
        let report = analyze_with_db(app, &db, &config);
        flagged += report.findings.len();
        true_flags += report
            .findings
            .iter()
            .filter(|f| f.bug_id.as_ref().is_some_and(|id| truth.contains_key(id)))
            .count();
        found.extend(report.bug_ids());
    }
    Arm::scored(ArmScore::of_bugs(truth, &found, flagged, true_flags))
}

/// The Hang Doctor fleet the sast and async differentials run over
/// `corpus`: three devices per app, two workers.
pub(crate) fn corpus_fleet(
    corpus: &[App],
    seed: u64,
    executions: usize,
    db_year: u16,
    config: HangDoctorConfig,
) -> FleetReport {
    run_fleet(&FleetSpec {
        apps: corpus.to_vec(),
        profiles: DeviceProfile::default_set(),
        devices_per_app: 3,
        executions_per_action: executions,
        root_seed: seed,
        threads: 2,
        config,
        apidb_year: db_year,
        faults: FaultConfig::none(),
    })
}

/// The bugs each app's merged fleet report attributes, corpus-wide.
fn fleet_found(corpus: &[App], fleet: &FleetReport) -> BTreeSet<String> {
    corpus
        .iter()
        .zip(&fleet.merged.apps)
        .flat_map(|(app, summary)| bugs_reported(summary, app))
        .collect()
}

/// The runtime arm: a Hang Doctor fleet over `corpus`, flagging action
/// executions and reporting the bugs its merged report attributes.
fn runtime_arm(corpus: &[App], truth: &Truth, seed: u64, executions: usize, db_year: u16) -> Arm {
    let fleet = corpus_fleet(
        corpus,
        seed,
        executions,
        db_year,
        HangDoctorConfig::default(),
    );
    let c = &fleet.merged.confusion;
    Arm::scored(ArmScore::of_bugs(
        truth,
        &fleet_found(corpus, &fleet),
        c.tp + c.fp,
        c.tp,
    ))
}

/// The offline failure modes static analysis structurally misses.
const FAILURE_MODES: [&str; 3] = ["unknown-api", "closed-source", "self-developed"];

/// The static↔runtime differential: the full-profile scan (`static`)
/// and a Hang Doctor fleet (`runtime`) over the differential corpus,
/// scored per bug class.
pub fn static_runtime_differential(
    seed: u64,
    executions: usize,
    db_year: u16,
) -> Differential<'static> {
    let corpus = Rc::new(differential_corpus());
    let truth = corpus_truth(&corpus, db_year);
    let (scan_corpus, scan_truth) = (corpus.clone(), truth.clone());
    let run_truth = truth.clone();
    Differential::new("sast-diff", seed)
        .param("db_year", db_year as f64)
        .param("executions", executions as f64)
        .truth(truth)
        .arm("static", move || {
            scan_arm(&scan_corpus, &scan_truth, RuleProfile::Full, db_year)
        })
        .arm("runtime", move || {
            runtime_arm(&corpus, &run_truth, seed, executions, db_year)
        })
        .invariant("known-bugs-found-statically", |r| {
            let known = r.arm("static").score.class("known");
            known.total > 0 && known.found == known.total
        })
        .invariant("failure-modes-runtime-only", |r| {
            FAILURE_MODES.iter().all(|class| {
                r.arm("static").score.class(class).found == 0
                    && r.arm("runtime").score.class(class).found > 0
            })
        })
}

/// The three-arm precision differential: every rule profile scans the
/// differential corpus and is scored against the bugs a Hang Doctor
/// fleet confirms on the same corpus (the fleet runs here, up front:
/// it is the ground truth, not an arm).
pub fn precision_differential(seed: u64, executions: usize, db_year: u16) -> Differential<'static> {
    let corpus = Rc::new(differential_corpus());
    let confirmed = fleet_found(
        &corpus,
        &corpus_fleet(
            &corpus,
            seed,
            executions,
            db_year,
            HangDoctorConfig::default(),
        ),
    );
    let truth: Truth = corpus_truth(&corpus, db_year)
        .into_iter()
        .filter(|(id, _)| confirmed.contains(id))
        .collect();
    let mut diff = Differential::new("sast-prec-diff", seed)
        .param("db_year", db_year as f64)
        .param("executions", executions as f64)
        .truth(truth.clone());
    for profile in RuleProfile::ALL {
        let (corpus, truth) = (corpus.clone(), truth.clone());
        diff = diff.arm(profile.as_str(), move || {
            scan_arm(&corpus, &truth, profile, db_year)
        });
    }
    diff.invariant("contextual-removes-false-positives", |r| {
        r.arm("contextual").score.false_flags() < r.arm("full").score.false_flags()
    })
    .invariant("contextual-loses-no-true-positive", |r| {
        let ctx = &r.arm("contextual").score.found;
        r.arm("full").score.found.is_subset(ctx)
    })
    .invariant("contextual-covers-compat", |r| {
        let ctx = &r.arm("contextual").score.found;
        r.arm("perfchecker-compat").score.found.is_subset(ctx)
    })
}

/// Renders the per-arm precision table.
pub fn render_precision(r: &DifferentialReport) -> String {
    let rows: Vec<Vec<String>> = r
        .arms
        .iter()
        .map(|arm| {
            let s = &arm.score;
            vec![
                arm.name.clone(),
                s.flagged.to_string(),
                s.true_flags.to_string(),
                s.false_flags().to_string(),
                format!("{:.3}", s.precision()),
                s.found.len().to_string(),
            ]
        })
        .collect();
    let full = &r.arm("full").score;
    let ctx = &r.arm("contextual").score;
    let compat = &r.arm("perfchecker-compat").score;
    format!(
        "Three-arm precision differential — db {}, {} fleet-confirmed bugs\n{}\ncontextual vs full: {} false positives removed, {} true positives lost\ncontextual vs compat: {} additional confirmed bugs\n",
        r.param("db_year"),
        r.truth.len(),
        render_table(
            &["arm", "flagged", "true", "false", "precision", "bugs"],
            &rows
        ),
        full.false_flags().saturating_sub(ctx.false_flags()),
        full.found.difference(&ctx.found).count(),
        ctx.found.difference(&compat.found).count(),
    )
}

/// Renders the per-class static↔runtime table.
pub fn render_differential(r: &DifferentialReport) -> String {
    let stat = &r.arm("static").score;
    let run = &r.arm("runtime").score;
    let rows: Vec<Vec<String>> = stat
        .classes
        .keys()
        .map(|class| {
            // Overlap and complement counts: both, static-only,
            // runtime-only, neither.
            let mut split = [0usize; 4];
            for id in r
                .truth
                .iter()
                .filter(|(_, c)| *c == class)
                .map(|(id, _)| id)
            {
                let slot = match (stat.found.contains(id), run.found.contains(id)) {
                    (true, true) => 0,
                    (true, false) => 1,
                    (false, true) => 2,
                    (false, false) => 3,
                };
                split[slot] += 1;
            }
            let (s, t) = (stat.class(class), run.class(class));
            let mut row = vec![
                class.clone(),
                s.total.to_string(),
                format!("{:.2}", s.recall()),
                format!("{:.2}", t.recall()),
            ];
            row.extend(split.iter().map(|n| n.to_string()));
            row.push(format!("{:+.2}", t.recall() - s.recall()));
            row
        })
        .collect();
    format!(
        "Static↔runtime differential — db {}\n{}\nprecision: static {:.3} ({}/{} findings), runtime {:.3} ({}/{} flags), Δ {:+.3}\noverall Δrecall {:+.3}; runtime-only bugs: {}\n",
        r.param("db_year"),
        render_table(
            &[
                "class",
                "bugs",
                "static-recall",
                "runtime-recall",
                "both",
                "static-only",
                "runtime-only",
                "neither",
                "Δrecall",
            ],
            &rows
        ),
        stat.precision(),
        stat.true_flags,
        stat.flagged,
        run.precision(),
        run.true_flags,
        run.flagged,
        run.precision() - stat.precision(),
        run.recall() - stat.recall(),
        run.found.difference(&stat.found).count(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_covers_the_corpus_under_both_profiles() {
        let full = run_scan(RuleProfile::Full, 2017, 1);
        let compat = run_scan(RuleProfile::PerfCheckerCompat, 2017, 1);
        assert_eq!(full.reports.len(), compat.reports.len());
        assert!(full.total_findings() > 0);
        // The full profile subsumes the compat profile: the summary walk
        // sees at least every direct known-API call the legacy scan sees.
        assert!(
            full.confirmed() >= compat.confirmed(),
            "full {} < compat {}",
            full.confirmed(),
            compat.confirmed()
        );
        // The vendored closed-source bugs stay invisible to both.
        for scan in [&full, &compat] {
            let trackpro = scan.reports.iter().find(|r| r.app == "TrackPro").unwrap();
            let ids = trackpro.bug_ids();
            assert!(ids.contains("trackpro-3-commit"), "{ids:?}");
            assert!(!ids.contains("trackpro-7-flush"), "{ids:?}");
            assert!(!ids.contains("trackpro-9-preload"), "{ids:?}");
        }
        let text = full.render();
        assert!(text.contains("TrackPro"));
        assert!(text.contains("findings"));
    }

    #[test]
    fn differential_shows_the_three_failure_modes() {
        // The invariants carry the claim: known bugs are all found
        // statically; the three failure modes only at runtime.
        let r = static_runtime_differential(42, 4, 2017).run();
        assert!(r.passed(), "{}", render_differential(&r));
        let runtime_only = &r.arm("runtime").score.found - &r.arm("static").score.found;
        assert!(!runtime_only.is_empty());
        let text = render_differential(&r);
        assert!(text.contains("closed-source"));
        assert!(text.contains("Δrecall"));
    }

    #[test]
    fn threaded_scan_is_byte_identical_to_serial() {
        for profile in [RuleProfile::Contextual, RuleProfile::Full] {
            let serial = serde_json::to_string(&run_scan(profile, 2017, 1)).unwrap();
            for threads in [8, 16, 32] {
                assert_eq!(
                    serde_json::to_string(&run_scan(profile, 2017, threads)).unwrap(),
                    serial,
                    "{profile:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn precision_differential_removes_false_positives_without_recall_loss() {
        // The invariants carry the acceptance bar: contextual removes
        // false positives versus full, loses no fleet-confirmed bug, and
        // covers everything the legacy scanner catches.
        let r = precision_differential(42, 4, 2017).run();
        assert!(r.passed(), "{}", render_precision(&r));
        // The shared-wrapper apps' bugs are runtime-confirmed and caught
        // by every arm (their chains are fully open).
        for bug in ["notekeeper-4-sync", "photobox-11-export"] {
            assert!(r.truth.contains_key(bug), "{bug} not confirmed");
            for arm in &r.arms {
                assert!(arm.score.found.contains(bug), "{} missed {bug}", arm.name);
            }
        }
        let ctx = &r.arm("contextual").score;
        assert!(ctx.precision() > r.arm("full").score.precision());
        let text = render_precision(&r);
        assert!(text.contains("false positives removed"));
        assert!(text.contains("contextual"));
    }
}
