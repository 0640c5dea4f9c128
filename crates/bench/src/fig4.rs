//! Figure 4: the three selected counter differences separate soft hang
//! bugs from UI operations.
//!
//! For each of context-switches, task-clock, and page-faults, report how
//! the paper's thresholds split the training samples: most hang-bug
//! samples sit above each threshold, most UI-API samples below (90%/10%
//! for context switches, ~80/20 for the other two), and the combined
//! filter catches all bugs while pruning most false positives.

use hangdoctor::{SymptomThresholds, TrainingSample};
use hd_metrics::frac_above;
use hd_simrt::HwEvent;
use serde::{Deserialize, Serialize};

use crate::common::render_table;
use crate::table3;

/// Separation statistics for one event.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EventSplit {
    /// Event name.
    pub event: String,
    /// Threshold applied to the main−render difference.
    pub threshold: f64,
    /// Fraction of hang-bug samples above the threshold.
    pub bugs_above: f64,
    /// Fraction of UI-API samples above the threshold.
    pub ui_above: f64,
    /// Sorted hang-bug differences (descending; the figure's series).
    pub bug_series: Vec<f64>,
    /// Sorted UI-API differences (descending).
    pub ui_series: Vec<f64>,
}

/// The figure's data plus the combined-filter quality.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig4 {
    /// One split per monitored event.
    pub splits: Vec<EventSplit>,
    /// Fraction of hang-bug samples caught by at least one condition
    /// (paper: 100%).
    pub filter_recall: f64,
    /// Fraction of UI-API samples pruned by the filter (paper: 64%).
    pub fp_pruned: f64,
    /// Overall accuracy (paper: 81%).
    pub accuracy: f64,
}

fn split(samples: &[TrainingSample], event: HwEvent, threshold: f64) -> EventSplit {
    let series = |label: bool| {
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.diff[event.index()])
            .collect();
        v.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        v
    };
    let bug_series = series(true);
    let ui_series = series(false);
    EventSplit {
        event: event.name().to_string(),
        threshold,
        bugs_above: frac_above(&bug_series, threshold),
        ui_above: frac_above(&ui_series, threshold),
        bug_series,
        ui_series,
    }
}

impl Fig4 {
    /// Renders the separation summary.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .splits
            .iter()
            .map(|s| {
                vec![
                    s.event.clone(),
                    format!("{:.3e}", s.threshold),
                    format!("{:.0}%", 100.0 * s.bugs_above),
                    format!("{:.0}%", 100.0 * s.ui_above),
                ]
            })
            .collect();
        format!(
            "Figure 4 — Symptom thresholds over the training set\n{}\nCombined filter: recall {:.0}%, false positives pruned {:.0}%, accuracy {:.0}%\n",
            render_table(&["event", "threshold", "bugs above", "UI above"], &rows),
            100.0 * self.filter_recall,
            100.0 * self.fp_pruned,
            100.0 * self.accuracy,
        )
    }
}

/// Runs the separation analysis with the paper's thresholds.
pub fn run(seed: u64, executions: usize) -> Fig4 {
    let samples = table3::samples(seed, executions);
    let t = SymptomThresholds::default();
    let splits = vec![
        split(&samples, HwEvent::ContextSwitches, t.context_switch_diff),
        split(&samples, HwEvent::TaskClock, t.task_clock_diff),
        split(&samples, HwEvent::PageFaults, t.page_fault_diff),
    ];
    let filter = hangdoctor::adaptation::paper_filter(t);
    let (tp, fp, fneg, tn) = filter.evaluate(&samples, hangdoctor::DiffMode::MainMinusRender);
    let bugs = tp + fneg;
    let uis = fp + tn;
    Fig4 {
        splits,
        filter_recall: if bugs == 0 {
            1.0
        } else {
            tp as f64 / bugs as f64
        },
        fp_pruned: if uis == 0 {
            1.0
        } else {
            tn as f64 / uis as f64
        },
        accuracy: if bugs + uis == 0 {
            1.0
        } else {
            (tp + tn) as f64 / (bugs + uis) as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_separate_like_the_paper() {
        let f = run(42, 6);
        let cs = &f.splits[0];
        // Figure 4(a): ~90% of bugs above zero, ~90% of UI below.
        assert!(cs.bugs_above > 0.8, "cs bugs above {:.2}", cs.bugs_above);
        assert!(cs.ui_above < 0.35, "cs ui above {:.2}", cs.ui_above);
        let tc = &f.splits[1];
        assert!(tc.ui_above < 0.3, "tc ui above {:.2}", tc.ui_above);
        // Our training set is more I/O-bound than the paper's, so the
        // page-fault channel separates about half of the bug samples
        // rather than the paper's 90% (documented in EXPERIMENTS.md).
        let pf = &f.splits[2];
        assert!(pf.bugs_above > 0.4, "pf bugs above {:.2}", pf.bugs_above);
        assert!(pf.ui_above < 0.3, "pf ui above {:.2}", pf.ui_above);
        // The combined filter: high recall, most FPs pruned. 0.95 bounds
        // the recall `repro --seed N all` reads on every seed N = 1..20.
        assert!(f.filter_recall >= 0.95, "recall {:.2}", f.filter_recall);
        assert!(f.fp_pruned > 0.4, "pruned {:.2}", f.fp_pruned);
        assert!(f.accuracy > 0.7, "accuracy {:.2}", f.accuracy);
    }

    #[test]
    fn series_are_sorted_descending() {
        let f = run(7, 4);
        for s in &f.splits {
            for w in s.bug_series.windows(2) {
                assert!(w[0] >= w[1]);
            }
            for w in s.ui_series.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }
    }
}
