//! One runner for every arm-vs-arm differential.
//!
//! Hang Doctor's evaluation is differential: runtime detection is set
//! against offline scanning, the S-Checker against its baselines, a
//! faulted fleet against a clean one. Every differential in this crate
//! has the same shape — run some arms, score each against ground
//! truth, check named invariants over the arms, write one artifact,
//! fail when an invariant breaks — and [`Differential`] is that shape,
//! once:
//!
//! * an **arm** is a closure yielding an [`Arm`]: its [`ArmScore`]
//!   against the differential's ground truth, named tallies, named sets
//!   of ground-truth ids, and named canonical outputs that invariants
//!   compare byte-for-byte;
//! * an **invariant** is a named predicate over the finished
//!   [`DifferentialReport`];
//! * the report is the one `hang-doctor/differential/v1` artifact
//!   ([`DifferentialReport::artifact`] swaps each canonical output for
//!   its FNV-1a digest), and [`DifferentialReport::gate`] is every
//!   differential command's exit status.
//!
//! Registering an arm under a name that is already taken replaces it in
//! place — which is how the mutation tests show that each gate can fail.

use std::collections::{BTreeMap, BTreeSet};

use hd_metrics::{ArmScore, Truth};
use hd_telemetry::fnv1a;
use serde::{Deserialize, Serialize};

/// Schema tag of every differential artifact.
pub const DIFFERENTIAL_SCHEMA: &str = "hang-doctor/differential/v1";

/// What one arm produced.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Arm {
    /// Arm name, set when the arm is registered.
    pub name: String,
    /// Score against the differential's ground truth (empty for arms
    /// that are only compared byte-for-byte).
    pub score: ArmScore,
    /// Named counters: faults injected, batches applied, frames lost…
    pub tallies: BTreeMap<String, u64>,
    /// Named sets of ground-truth bug ids beyond `score.found`.
    pub marks: BTreeMap<String, BTreeSet<String>>,
    /// Named canonical JSON outputs, compared byte-for-byte (an
    /// artifact carries their FNV-1a digests instead).
    pub outputs: BTreeMap<String, String>,
}

impl Arm {
    /// An arm with the given score and nothing else yet.
    pub fn scored(score: ArmScore) -> Arm {
        Arm {
            score,
            ..Arm::default()
        }
    }

    /// Adds a named counter.
    pub fn tally(mut self, name: &str, value: u64) -> Arm {
        self.tallies.insert(name.to_string(), value);
        self
    }

    /// Adds a named set of ground-truth bug ids.
    pub fn mark(mut self, name: &str, ids: BTreeSet<String>) -> Arm {
        self.marks.insert(name.to_string(), ids);
        self
    }

    /// Adds a named output as canonical JSON.
    pub fn output<T: Serialize>(mut self, name: &str, value: &T) -> Arm {
        let json = serde_json::to_string(value).expect("arm output serializes");
        self.outputs.insert(name.to_string(), json);
        self
    }

    /// The named counter.
    ///
    /// # Panics
    ///
    /// If the arm never recorded it: an invariant over a counter that
    /// does not exist would hold vacuously.
    pub fn count(&self, name: &str) -> u64 {
        *self
            .tallies
            .get(name)
            .unwrap_or_else(|| panic!("arm has no tally '{name}'"))
    }

    /// The named id set (panics like [`Arm::count`]).
    pub fn marked(&self, name: &str) -> &BTreeSet<String> {
        self.marks
            .get(name)
            .unwrap_or_else(|| panic!("arm has no mark '{name}'"))
    }

    /// The named canonical output (panics like [`Arm::count`]).
    pub fn out(&self, name: &str) -> &str {
        self.outputs
            .get(name)
            .unwrap_or_else(|| panic!("arm has no output '{name}'"))
    }

    /// The named output decoded back into its type.
    pub fn decode<T: Deserialize>(&self, name: &str) -> T {
        serde_json::from_str(self.out(name)).expect("arm output decodes")
    }
}

type ArmFn<'a> = Box<dyn FnOnce() -> Arm + 'a>;
type Predicate<'a> = Box<dyn Fn(&DifferentialReport) -> bool + 'a>;

/// A differential under construction: arms, ground truth, invariants.
pub struct Differential<'a> {
    command: &'static str,
    seed: u64,
    params: BTreeMap<String, f64>,
    truth: Truth,
    arms: Vec<(String, ArmFn<'a>)>,
    invariants: Vec<(&'static str, Predicate<'a>)>,
}

impl<'a> Differential<'a> {
    /// An empty differential for `command` at `seed`.
    pub fn new(command: &'static str, seed: u64) -> Differential<'a> {
        Differential {
            command,
            seed,
            params: BTreeMap::new(),
            truth: Truth::new(),
            arms: Vec::new(),
            invariants: Vec::new(),
        }
    }

    /// Records a parameter the run used (rates, sizes, vintages).
    pub fn param(mut self, name: &str, value: f64) -> Differential<'a> {
        self.params.insert(name.to_string(), value);
        self
    }

    /// Sets the ground truth the arms are scored against.
    pub fn truth(mut self, truth: Truth) -> Differential<'a> {
        self.truth = truth;
        self
    }

    /// The ground truth the arms are scored against.
    pub fn ground_truth(&self) -> &Truth {
        &self.truth
    }

    /// Registers an arm; a name already registered is replaced in place.
    pub fn arm(mut self, name: &str, run: impl FnOnce() -> Arm + 'a) -> Differential<'a> {
        let run: ArmFn<'a> = Box::new(run);
        match self.arms.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = run,
            None => self.arms.push((name.to_string(), run)),
        }
        self
    }

    /// Registers a named invariant over the finished report.
    pub fn invariant(
        mut self,
        name: &'static str,
        holds: impl Fn(&DifferentialReport) -> bool + 'a,
    ) -> Differential<'a> {
        self.invariants.push((name, Box::new(holds)));
        self
    }

    /// Runs every arm in registration order, then checks every
    /// invariant.
    pub fn run(self) -> DifferentialReport {
        let mut report = DifferentialReport {
            schema: DIFFERENTIAL_SCHEMA.to_string(),
            command: self.command.to_string(),
            seed: self.seed,
            params: self.params,
            truth: self.truth,
            arms: self
                .arms
                .into_iter()
                .map(|(name, run)| Arm { name, ..run() })
                .collect(),
            invariants: Vec::new(),
        };
        report.invariants = self
            .invariants
            .iter()
            .map(|(name, holds)| Check {
                name: name.to_string(),
                holds: holds(&report),
            })
            .collect();
        report
    }
}

/// One invariant's verdict.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Check {
    /// Invariant name.
    pub name: String,
    /// Whether it held.
    pub holds: bool,
}

/// A finished differential: every arm's outcome and every invariant's
/// verdict.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DifferentialReport {
    /// Always [`DIFFERENTIAL_SCHEMA`].
    pub schema: String,
    /// The command that ran it.
    pub command: String,
    /// Root seed.
    pub seed: u64,
    /// Parameters the run used.
    pub params: BTreeMap<String, f64>,
    /// Ground truth the arms were scored against, bug id → class (empty
    /// for byte-identity differentials).
    pub truth: Truth,
    /// Arms in registration order.
    pub arms: Vec<Arm>,
    /// Invariant verdicts in registration order.
    pub invariants: Vec<Check>,
}

impl DifferentialReport {
    /// The named arm.
    ///
    /// # Panics
    ///
    /// If no arm has that name.
    pub fn arm(&self, name: &str) -> &Arm {
        self.arms
            .iter()
            .find(|arm| arm.name == name)
            .unwrap_or_else(|| panic!("{} differential has no arm '{name}'", self.command))
    }

    /// The named parameter (panics like [`DifferentialReport::arm`]).
    pub fn param(&self, name: &str) -> f64 {
        self.params[name]
    }

    /// Whether the named invariant held.
    pub fn holds(&self, invariant: &str) -> bool {
        self.invariants
            .iter()
            .find(|c| c.name == invariant)
            .unwrap_or_else(|| {
                panic!(
                    "{} differential has no invariant '{invariant}'",
                    self.command
                )
            })
            .holds
    }

    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.invariants.iter().all(|c| c.holds)
    }

    /// Names of the invariants that did not hold.
    pub fn failed(&self) -> Vec<&str> {
        self.invariants
            .iter()
            .filter(|c| !c.holds)
            .map(|c| c.name.as_str())
            .collect()
    }

    /// The command's exit status: `Err` names every failed invariant.
    pub fn gate(&self) -> Result<(), String> {
        if self.passed() {
            return Ok(());
        }
        Err(format!(
            "{} differential failed: {} did not hold",
            self.command,
            self.failed().join(", ")
        ))
    }

    /// The one-line verdict that closes every differential's text.
    pub fn verdict(&self) -> String {
        if self.passed() {
            return "verdict: PASS".to_string();
        }
        format!("verdict: FAIL ({})", self.failed().join(", "))
    }

    /// The report as an artifact: each canonical output replaced by
    /// its FNV-1a digest, which keeps byte-identity visible without
    /// carrying whole fleet outcomes.
    pub fn artifact(&self) -> DifferentialReport {
        let mut artifact = self.clone();
        for output in artifact
            .arms
            .iter_mut()
            .flat_map(|a| a.outputs.values_mut())
        {
            *output = format!("{:016x}", fnv1a(output.as_bytes()));
        }
        artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(second: u64) -> DifferentialReport {
        Differential::new("toy", 1)
            .param("rate", 0.5)
            .arm("a", || Arm::default().tally("n", 1).output("x", &[1, 2]))
            .arm("b", move || {
                Arm::default().tally("n", second).output("x", &[1, 2])
            })
            .invariant("same-output", |r| {
                r.arm("a").out("x") == r.arm("b").out("x")
            })
            .invariant("b-counts-more", |r| {
                r.arm("b").count("n") > r.arm("a").count("n")
            })
            .run()
    }

    #[test]
    fn invariants_gate_the_exit_and_name_the_failures() {
        let pass = toy(2);
        assert!(pass.passed());
        assert!(pass.gate().is_ok());
        assert_eq!(pass.verdict(), "verdict: PASS");
        let fail = toy(0);
        assert!(fail.holds("same-output"));
        assert!(!fail.holds("b-counts-more"));
        let err = fail.gate().unwrap_err();
        assert!(
            err.contains("toy differential failed: b-counts-more"),
            "{err}"
        );
        assert_eq!(fail.verdict(), "verdict: FAIL (b-counts-more)");
    }

    #[test]
    fn registering_a_taken_name_replaces_the_arm_in_place() {
        let report = Differential::new("toy", 1)
            .arm("a", || Arm::default().tally("n", 1))
            .arm("b", || Arm::default().tally("n", 2))
            .arm("a", || Arm::default().tally("n", 3))
            .run();
        let names: Vec<&str> = report.arms.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(report.arm("a").count("n"), 3);
    }

    #[test]
    fn the_artifact_digests_outputs_and_round_trips() {
        let report = toy(2);
        let artifact = report.artifact();
        assert_eq!(artifact.schema, DIFFERENTIAL_SCHEMA);
        assert!(artifact.passed());
        let a = artifact.arm("a").out("x");
        assert_eq!(a, artifact.arm("b").out("x"));
        assert_eq!(a, format!("{:016x}", fnv1a(b"[1,2]")));
        assert_eq!(report.arm("a").decode::<Vec<u32>>("x"), vec![1, 2]);
        let json = serde_json::to_string(&artifact).unwrap();
        let back: DifferentialReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.invariants, artifact.invariants);
        assert_eq!(back.arms, artifact.arms);
        assert_eq!(back.param("rate"), 0.5);
    }

    #[test]
    #[should_panic(expected = "arm has no tally 'missing'")]
    fn reading_an_unrecorded_tally_panics() {
        Arm::default().count("missing");
    }
}
