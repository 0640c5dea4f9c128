//! The one arm scorer every differential shares.
//!
//! Hang Doctor's evaluation sets detection arms against each other:
//! runtime detection against offline scanning, the context-sensitive
//! scanner against its context-insensitive baseline, causal blame
//! against the naive join-site diagnosis, a faulted fleet against a
//! clean one. Every such arm reduces to the same facts — what it
//! flagged, how much of that was real, and which ground-truth items it
//! found — and [`ArmScore`] derives precision, recall and the per-class
//! rollups from them exactly once.
//!
//! Pure arithmetic over plain data: bug ids and classes are strings
//! (the analyzer's kebab-case class names), so the metrology layer
//! stays decoupled from the analyzer, fleet and fault crates.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::confusion::Confusion;

/// Ground truth an arm is scored against: bug id → class.
pub type Truth = BTreeMap<String, String>;

/// Ground-truth bugs of one class, and how many of them an arm found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassRecall {
    /// Bugs the arm found.
    pub found: usize,
    /// Bugs in the class.
    pub total: usize,
}

impl ClassRecall {
    /// Fraction of the class found (1.0 when the class is empty).
    pub fn recall(&self) -> f64 {
        ratio(self.found, self.total)
    }
}

/// One arm's score against ground truth.
///
/// Flags are the arm's own unit — call-site findings, flagged action
/// executions, report rows — so precisions compare across arms as
/// rates while raw flag counts do not. Recall is over `total`
/// ground-truth items: bugs when the arm is scored per bug, bug-hang
/// executions when it is scored per occurrence.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArmScore {
    /// Flags the arm raised.
    pub flagged: usize,
    /// Of those, flags on a real ground-truth bug.
    pub true_flags: usize,
    /// Ground-truth items the arm found.
    pub hits: usize,
    /// Ground-truth items there were to find.
    pub total: usize,
    /// Ids of the ground-truth bugs found (empty when scored per
    /// occurrence).
    pub found: BTreeSet<String>,
    /// Per-class rollup of `found`, class-name order.
    pub classes: BTreeMap<String, ClassRecall>,
}

impl ArmScore {
    /// Scores an arm per bug: `found` is clipped to the ground truth and
    /// rolled up per class; `flagged`/`true_flags` are the arm's flags.
    pub fn of_bugs(
        truth: &Truth,
        found: &BTreeSet<String>,
        flagged: usize,
        true_flags: usize,
    ) -> ArmScore {
        let mut classes: BTreeMap<String, ClassRecall> = BTreeMap::new();
        for (id, class) in truth {
            let rollup = classes.entry(class.clone()).or_default();
            rollup.total += 1;
            rollup.found += found.contains(id) as usize;
        }
        let found: BTreeSet<String> = found
            .iter()
            .filter(|id| truth.contains_key(*id))
            .cloned()
            .collect();
        ArmScore {
            flagged,
            true_flags,
            hits: found.len(),
            total: truth.len(),
            found,
            classes,
        }
    }

    /// Scores an arm per occurrence: flags are flagged executions, the
    /// items to find are the bug-hang executions.
    pub fn of_confusion(c: &Confusion) -> ArmScore {
        ArmScore {
            flagged: c.tp + c.fp,
            true_flags: c.tp,
            hits: c.tp,
            total: c.tp + c.fn_,
            ..ArmScore::default()
        }
    }

    /// Fraction of flags that were real (1.0 when nothing was flagged).
    pub fn precision(&self) -> f64 {
        ratio(self.true_flags, self.flagged)
    }

    /// Fraction of the ground truth found (1.0 when there is none).
    pub fn recall(&self) -> f64 {
        ratio(self.hits, self.total)
    }

    /// Flags on nothing real — the false positives.
    pub fn false_flags(&self) -> usize {
        self.flagged - self.true_flags
    }

    /// The rollup for `class` (empty when no ground-truth bug has it).
    pub fn class(&self, class: &str) -> ClassRecall {
        self.classes.get(class).copied().unwrap_or_default()
    }
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        return 1.0;
    }
    part as f64 / whole as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Truth {
        [
            ("a-1", "known"),
            ("a-2", "unknown-api"),
            ("b-1", "closed-source"),
            ("b-2", "known"),
            ("b-3", "self-developed"),
        ]
        .iter()
        .map(|(id, class)| (id.to_string(), class.to_string()))
        .collect()
    }

    fn ids(ids: &[&str]) -> BTreeSet<String> {
        ids.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn per_bug_scores_roll_up_per_class() {
        let stat = ArmScore::of_bugs(&truth(), &ids(&["a-1", "b-2"]), 4, 3);
        let known = stat.class("known");
        assert_eq!((known.found, known.total), (2, 2));
        assert!((known.recall() - 1.0).abs() < 1e-9);
        assert_eq!(stat.class("unknown-api").found, 0);
        assert_eq!(stat.class("missing"), ClassRecall::default());
        assert!((stat.recall() - 0.4).abs() < 1e-9);
        assert!((stat.precision() - 0.75).abs() < 1e-9);
        assert_eq!(stat.false_flags(), 1);
        let total: usize = stat.classes.values().map(|c| c.total).sum();
        assert_eq!(total, truth().len());
    }

    #[test]
    fn found_ids_outside_the_ground_truth_are_clipped() {
        let score = ArmScore::of_bugs(&truth(), &ids(&["a-1", "zz-9"]), 2, 1);
        assert_eq!(score.found, ids(&["a-1"]));
        assert_eq!(score.hits, 1);
    }

    #[test]
    fn occurrence_scores_match_the_confusion_matrix() {
        let c = Confusion {
            tp: 6,
            fp: 2,
            fn_: 4,
            tn: 8,
        };
        let score = ArmScore::of_confusion(&c);
        assert_eq!(score.precision(), c.precision());
        assert_eq!(score.recall(), c.recall());
        assert!(score.found.is_empty());
    }

    #[test]
    fn an_empty_arm_is_vacuously_perfect() {
        let empty = ArmScore::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(ClassRecall::default().recall(), 1.0);
        let none_found = ArmScore::of_bugs(&Truth::new(), &BTreeSet::new(), 0, 0);
        assert_eq!(none_found, ArmScore::default());
    }

    #[test]
    fn serde_round_trip_is_lossless() {
        let score = ArmScore::of_bugs(&truth(), &ids(&["a-2", "b-1"]), 10, 9);
        let json = serde_json::to_string(&score).unwrap();
        let back: ArmScore = serde_json::from_str(&json).unwrap();
        assert_eq!(back, score);
    }
}
