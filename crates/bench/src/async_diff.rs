//! The async (wait-edge) differential: causal vs naive blame vs static.
//!
//! Runs the ground-truthed async hang corpus through three arms — a
//! Hang Doctor fleet with the causal blame walk on (`causal`), the same
//! fleet with it off (`baseline`, `causal_blame = false`, the naive
//! join-site diagnosis), and the full-profile static scanner (`static`)
//! — and scores detection and blame placement separately against
//! ground truth. The invariants are the expected shape:
//!
//! * both fleets *detect* every hang (the join block trips the
//!   context-switch symptom either way);
//! * only the causal fleet *blames* the worker-side culprit — the
//!   baseline lands on `FutureTask.get` at the join site;
//! * the static arm reports nothing: a submitted body is not part of
//!   any main-thread call chain ([`hd_sast::BugClass::AsyncHang`]);
//! * the negative-control app stays silent in both fleets.
//!
//! A runtime arm's flags are report rows; a row is a true flag only
//! when it names a ground-truth culprit at its own action — a join-site
//! diagnosis of a real hang still counts as a false flag.

use std::collections::BTreeSet;

use hangdoctor::HangDoctorConfig;
use hd_appmodel::corpus::async_hang_apps;
use hd_appmodel::{App, BugSpec};
use hd_fleet::bugs_reported;
use hd_metrics::{ArmScore, ClassRecall, Truth};
use hd_sast::RuleProfile;

use crate::common::render_table;
use crate::differential::{Arm, Differential, DifferentialReport};
use crate::sast::{corpus_fleet, corpus_truth, scan_arm};

/// The symbol of the join API in the bug's action — where the naive
/// diagnosis lands.
fn join_site(app: &App, bug: &BugSpec) -> String {
    app.action(bug.action)
        .and_then(|action| {
            action
                .calls()
                .find_map(|c| c.async_op.as_ref().and_then(|o| o.join_api()))
        })
        .map(|api| app.api(api).symbol.clone())
        .unwrap_or_default()
}

/// A fleet arm over the async corpus. Found = bugs whose culprit was
/// blamed at its own action; marks `detected` (any row at the bug's
/// action) and `join-site` (a row naming the join site there); tallies
/// `control-rows`, the rows emitted for bug-free apps.
pub fn fleet_arm(
    truth: &Truth,
    seed: u64,
    executions: usize,
    db_year: u16,
    causal_blame: bool,
) -> Arm {
    let corpus = async_hang_apps();
    let config = HangDoctorConfig::builder()
        .causal_blame(causal_blame)
        .build()
        .expect("default config with either blame mode is valid");
    let fleet = corpus_fleet(&corpus, seed, executions, db_year, config);
    let (mut flagged, mut true_flags, mut control_rows) = (0, 0, 0);
    let (mut found, mut detected, mut joined) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    for (app, summary) in corpus.iter().zip(&fleet.merged.apps) {
        debug_assert_eq!(app.name, summary.app);
        let rows: Vec<(String, String)> = summary
            .report
            .entries()
            .into_iter()
            .map(|e| (e.action, e.symbol))
            .collect();
        flagged += rows.len();
        true_flags += rows
            .iter()
            .filter(|(action, symbol)| {
                app.bugs.iter().any(|b| {
                    &app.api(b.api).symbol == symbol
                        && app.action(b.action).is_some_and(|a| &a.name == action)
                })
            })
            .count();
        if app.bugs.is_empty() {
            control_rows += rows.len() as u64;
        }
        for bug in &app.bugs {
            let action = &app.action(bug.action).expect("bug action exists").name;
            let join = join_site(app, bug);
            if rows.iter().any(|(a, _)| a == action) {
                detected.insert(bug.id.clone());
            }
            if rows.iter().any(|(a, s)| a == action && *s == join) {
                joined.insert(bug.id.clone());
            }
        }
        found.extend(bugs_reported(summary, app));
    }
    Arm::scored(ArmScore::of_bugs(truth, &found, flagged, true_flags))
        .mark("detected", detected)
        .mark("join-site", joined)
        .tally("control-rows", control_rows)
}

/// The three-arm async differential over the async hang corpus.
pub fn differential(seed: u64, executions: usize, db_year: u16) -> Differential<'static> {
    let truth = corpus_truth(&async_hang_apps(), db_year);
    let (causal, baseline, scan) = (truth.clone(), truth.clone(), truth.clone());
    Differential::new("async-diff", seed)
        .param("db_year", db_year as f64)
        .param("executions", executions as f64)
        .truth(truth)
        .arm("causal", move || {
            fleet_arm(&causal, seed, executions, db_year, true)
        })
        .arm("baseline", move || {
            fleet_arm(&baseline, seed, executions, db_year, false)
        })
        .arm("static", move || {
            scan_arm(&async_hang_apps(), &scan, RuleProfile::Full, db_year)
        })
        .invariant("both-fleets-detect-every-hang", |r| {
            ["causal", "baseline"]
                .iter()
                .all(|arm| r.arm(arm).marked("detected").len() == r.truth.len())
        })
        .invariant("causal-blames-every-culprit", |r| {
            r.arm("causal").score.hits == r.truth.len()
        })
        .invariant("baseline-lands-on-join-site", |r| {
            let baseline = r.arm("baseline");
            baseline.score.hits == 0 && baseline.marked("join-site").len() == r.truth.len()
        })
        .invariant("static-finds-nothing", |r| r.arm("static").score.hits == 0)
        .invariant("controls-stay-silent", |r| {
            r.arm("causal").count("control-rows") + r.arm("baseline").count("control-rows") == 0
        })
}

/// Renders the per-bug async differential table.
pub fn render(r: &DifferentialReport) -> String {
    let (causal, baseline) = (r.arm("causal"), r.arm("baseline"));
    let stat = &r.arm("static").score;
    let verdict = |arm: &Arm, id: &str, join: bool| {
        if arm.score.found.contains(id) {
            "culprit"
        } else if join && arm.marked("join-site").contains(id) {
            "join-site"
        } else if arm.marked("detected").contains(id) {
            "other"
        } else {
            "missed"
        }
        .to_string()
    };
    let corpus = async_hang_apps();
    let rows: Vec<Vec<String>> = corpus
        .iter()
        .flat_map(|app| {
            app.bugs.iter().map(|bug| {
                vec![
                    app.name.clone(),
                    bug.id.clone(),
                    r.truth[&bug.id].clone(),
                    if stat.found.contains(&bug.id) {
                        "found"
                    } else {
                        "-"
                    }
                    .to_string(),
                    verdict(baseline, &bug.id, true),
                    verdict(causal, &bug.id, false),
                    app.api(bug.api).symbol.clone(),
                ]
            })
        })
        .collect();
    let total = r.truth.len();
    let recall = |found: usize| ClassRecall { found, total }.recall();
    let (c, b) = (&causal.score, &baseline.score);
    format!(
        "Async differential — db {}, {} bugs over {} apps\n{}\n\
         detection: causal {:.2}, baseline {:.2}; blame: causal {:.2}, baseline {:.2} (Δ {:+.2})\n\
         blame precision: causal {:.3} ({}/{} rows), baseline {:.3} ({}/{} rows), Δ {:+.3}; static recall {:.2}\n\
         baseline join-site mis-blames: {}; control-app report rows: {}\n",
        r.param("db_year"),
        total,
        corpus.len(),
        render_table(
            &["app", "bug", "class", "static", "baseline", "causal", "culprit"],
            &rows
        ),
        recall(causal.marked("detected").len()),
        recall(baseline.marked("detected").len()),
        c.recall(),
        b.recall(),
        c.recall() - b.recall(),
        c.precision(),
        c.true_flags,
        c.flagged,
        b.precision(),
        b.true_flags,
        b.flagged,
        c.precision() - b.precision(),
        stat.recall(),
        baseline.marked("join-site").len(),
        causal.count("control-rows") + baseline.count("control-rows"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_differential_separates_detection_from_blame() {
        let r = differential(42, 4, 2017).run();
        assert!(r.passed(), "{}", render(&r));
        assert_eq!(r.truth.len(), 3, "three ground-truthed async hangs");
        // Every scored bug carries the structural class and the same
        // join site.
        for app in async_hang_apps() {
            for bug in &app.bugs {
                assert_eq!(r.truth[&bug.id], "async-hang", "{}", bug.id);
                assert_eq!(join_site(&app, bug), "java.util.concurrent.FutureTask.get");
            }
        }
        // Blame-level precision collapses without the walk.
        assert!((r.arm("causal").score.precision() - 1.0).abs() < 1e-9);
        assert!(r.arm("baseline").score.precision() < 1e-9);
        let text = render(&r);
        assert!(text.contains("join-site"));
        assert!(text.contains("async-hang"));
    }
}
