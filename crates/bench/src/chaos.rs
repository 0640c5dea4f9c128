//! Chaos-vs-clean differential: what each fault category costs.
//!
//! The fault layer (`hd-faults`) can degrade every observation Hang
//! Doctor makes; the graceful-degradation machinery (retry-with-backoff,
//! partial S-Checks, session aborts) is supposed to contain the damage.
//! This differential quantifies the containment: the same fleet matrix
//! runs as one clean arm, one arm per fault category (that category
//! alone at the given rate), and one `"all"` arm with everything at
//! once — identical corpus, seeds and schedules throughout, so
//! precision/recall movement is attributable to the injected category
//! alone.

use hangdoctor::{FaultCategory, FaultConfig};
use hd_fleet::{run_fleet, FleetSpec};
use hd_metrics::ArmScore;

use crate::common::{render_table, trio_fleet};
use crate::differential::{Arm, Differential, DifferentialReport};

/// One fleet arm: its confusion against ground truth (the score holds
/// tp/fp/fn, the `true-negatives` tally the rest) plus the faults it
/// injected and the degradation actions that answered them.
pub fn fleet_arm(spec: &FleetSpec) -> Arm {
    let report = run_fleet(spec);
    // Clean and zero-rate runs carry no chaos report.
    let tally = report.chaos.map(|c| c.tally).unwrap_or_default();
    let confusion = &report.merged.confusion;
    Arm::scored(ArmScore::of_confusion(confusion))
        .tally("true-negatives", confusion.tn as u64)
        .tally("injected", tally.injected())
        .tally("recovered", tally.recovered())
}

/// The differential: one clean arm, one arm per fault category, one
/// `"all"` arm — all on the identical [`trio_fleet`] matrix.
pub fn differential(seed: u64, rate: f64, executions: usize) -> Differential<'static> {
    let mut diff = Differential::new("chaos", seed)
        .param("rate", rate)
        .param("executions", executions as f64)
        .arm("clean", move || {
            fleet_arm(&trio_fleet(seed, executions, FaultConfig::none()))
        });
    for category in FaultCategory::ALL {
        diff = diff.arm(category.name(), move || {
            fleet_arm(&trio_fleet(
                seed,
                executions,
                FaultConfig::only(category, rate),
            ))
        });
    }
    diff.arm("all", move || {
        fleet_arm(&trio_fleet(seed, executions, FaultConfig::chaos(rate)))
    })
    // The baseline must not be vacuous: a clean fleet that detects
    // nothing makes every faulted row look lossless.
    .invariant("clean-arm-detects-bugs", |r| {
        r.arm("clean").score.true_flags > 0
    })
    // Timer jitter needs no containment response; a single-category
    // run tallies only its own category's recoveries.
    .invariant("clock-jitter-needs-no-recovery", |r| {
        r.arm("clock-jitter").count("recovered") == 0
    })
}

/// Renders the per-category table: each faulted arm against the clean
/// baseline.
pub fn render(report: &DifferentialReport) -> String {
    let clean = &report.arm("clean").score;
    let rows: Vec<Vec<String>> = report
        .arms
        .iter()
        .filter(|arm| arm.name != "clean")
        .map(|arm| {
            let s = &arm.score;
            // Movement is the negated loss against clean.
            let precision_loss = clean.precision() - s.precision();
            let recall_loss = clean.recall() - s.recall();
            vec![
                arm.name.clone(),
                arm.count("injected").to_string(),
                arm.count("recovered").to_string(),
                format!("{:.3}", s.precision()),
                format!("{:.3}", s.recall()),
                format!("{:+.3}", -precision_loss),
                format!("{:+.3}", -recall_loss),
            ]
        })
        .collect();
    format!(
        "Chaos differential at rate {:.2} — clean precision {:.3}, recall {:.3}\n{}",
        report.param("rate"),
        clean.precision(),
        clean.recall(),
        render_table(
            &[
                "category",
                "injected",
                "recovered",
                "precision",
                "recall",
                "Δprecision",
                "Δrecall",
            ],
            &rows
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_covers_every_category_plus_all() {
        let report = differential(42, 0.3, 2).run();
        assert!(report.passed(), "{}", render(&report));
        assert_eq!(report.arms.len(), FaultCategory::ALL.len() + 2);
        // High-frequency injection points must have fired.
        for name in ["counter-read", "stale-counter", "dropped-sample", "all"] {
            let injected = report.arm(name).count("injected");
            assert!(injected > 0, "{name}: {injected}");
        }
        // Counter-read failures at 30% are mostly absorbed by retries.
        assert!(report.arm("counter-read").count("recovered") > 0);
        // Rendering mentions the movement columns.
        let text = render(&report);
        assert!(text.contains("Δrecall"));
        assert!(text.contains("counter-read"));
    }

    #[test]
    fn zero_rate_differential_is_lossless() {
        let report = differential(7, 0.0, 2).run();
        let clean = report.arm("clean");
        for arm in &report.arms {
            assert_eq!(arm.count("injected"), 0, "{}", arm.name);
            assert_eq!(arm.score, clean.score, "{}", arm.name);
        }
    }
}
