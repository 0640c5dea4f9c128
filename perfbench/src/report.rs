//! The result of one benchmark run: metrics, correctness checks and
//! provenance, printed as a readable report followed by the one-line
//! JSON summary (always the last line of standard output).
//!
//! The summary holds exactly the metrics `BENCHMARK.json` lists for the
//! run's mode — `end_to_end` for a timed run, `per_layer` for a traced
//! one — whatever the workload. The list is compiled in from that file,
//! so the two cannot drift apart.

use std::fmt::Write as _;

use serde::Value;

/// `BENCHMARK.json`, compiled in.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// A metric `BENCHMARK.json` lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Listed {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement: `lower` or `higher`.
    pub better: String,
}

/// The metrics `BENCHMARK.json` lists under `section` (`end_to_end` or
/// `per_layer`), in its order.
pub fn listed(section: &str) -> Vec<Listed> {
    let field = |v: &Value, key: &str| match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone()),
        _ => None,
    };
    let text = |v: &Value, key: &str| match field(v, key) {
        Some(Value::Str(s)) => s,
        other => panic!("BENCHMARK.json: {key} of a {section} metric is {other:?}"),
    };
    let root: Value = serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses");
    match field(&root, section) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|m| Listed {
                name: text(m, "name"),
                unit: text(m, "unit"),
                better: text(m, "better"),
            })
            .collect(),
        other => panic!("BENCHMARK.json: {section} is {other:?}"),
    }
}

/// Whether a metric improves upwards or downwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The value, with all its digits.
    pub value: f64,
    /// Samples behind the value (1 for a single exact count).
    pub samples: u64,
    /// Interquartile range over the samples as a share of the median,
    /// when the value is a median of repeated measurements.
    pub spread: Option<f64>,
}

/// One correctness check and its outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence: a digest, a count, or what differed.
    pub detail: String,
}

impl Check {
    /// A check built from an outcome.
    pub fn new(name: &str, result: Result<String, String>) -> Check {
        let (ok, detail) = match result {
            Ok(d) => (true, d),
            Err(d) => (false, d),
        };
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// Everything one run produced.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// A traced (per-layer) run rather than a timed (end-to-end) one.
    pub traced: bool,
    /// Metrics printed in the JSON summary.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the readable report only: measured in this
    /// mode, but summarized by the other one.
    pub text_only: Vec<Metric>,
    /// Correctness checks; the run is correct only if all held.
    pub checks: Vec<Check>,
    /// Operations attempted (device jobs, uploads, queries, control
    /// requests, app scans).
    pub attempted: u64,
    /// Operations that failed or were refused (NACKs included).
    pub failed: u64,
    /// Key/value provenance: host, commit, seed, sizes, rates, windows.
    pub provenance: Vec<(String, String)>,
}

impl RunReport {
    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: &str,
        unit: &'static str,
        better: Better,
        value: f64,
        samples: u64,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            better,
            value,
            samples,
            spread: None,
        });
    }

    /// Adds the median of repeated measurements, with their spread.
    pub fn median_metric(
        &mut self,
        name: &str,
        unit: &'static str,
        better: Better,
        samples: &[f64],
    ) {
        self.metrics.push(median_of(name, unit, better, samples));
    }

    /// Adds a metric to the readable report only.
    pub fn text_metric(
        &mut self,
        name: &str,
        unit: &'static str,
        better: Better,
        value: f64,
        samples: u64,
    ) {
        self.text_only.push(Metric {
            name: name.to_string(),
            unit,
            better,
            value,
            samples,
            spread: None,
        });
    }

    /// [`RunReport::median_metric`] for the readable report only.
    pub fn text_median(&mut self, name: &str, unit: &'static str, better: Better, samples: &[f64]) {
        self.text_only.push(median_of(name, unit, better, samples));
    }

    /// The `BENCHMARK.json` section this run's summary line reports.
    pub fn section(&self) -> &'static str {
        if self.traced {
            "per_layer"
        } else {
            "end_to_end"
        }
    }

    /// Holds the measured metrics against `BENCHMARK.json` as a
    /// correctness check: each is listed in this run's section, once,
    /// with the same unit and direction; a timed run measured every end-to-end metric,
    /// each positive. A traced run notes the per-layer metrics of layers
    /// its workload never calls; they read 0 in the summary line.
    pub fn seal(&mut self) {
        let section = self.section();
        let listed = listed(section);
        let mut problems = Vec::new();
        for (i, m) in self.metrics.iter().enumerate() {
            match listed.iter().find(|l| l.name == m.name) {
                None => problems.push(format!("{} is not listed", m.name)),
                Some(l) if l.unit != m.unit => {
                    problems.push(format!("{} is in {}, listed in {}", m.name, m.unit, l.unit))
                }
                Some(l) if l.better != m.better.as_str() => {
                    problems.push(format!("{} is listed as {} is better", m.name, l.better))
                }
                Some(_) if self.metrics[..i].iter().any(|p| p.name == m.name) => {
                    problems.push(format!("{} measured twice", m.name))
                }
                Some(_) => {}
            }
        }
        let missing: Vec<&str> = listed
            .iter()
            .filter(|l| !self.metrics.iter().any(|m| m.name == l.name))
            .map(|l| l.name.as_str())
            .collect();
        if self.traced {
            if !missing.is_empty() {
                let missing = missing.join(", ");
                self.note(
                    "layers this workload does not call (0 in the summary line)",
                    missing,
                );
            }
        } else {
            problems.extend(missing.iter().map(|n| format!("{n} not measured")));
            for m in &self.metrics {
                if !(m.value.is_finite() && m.value > 0.0) {
                    problems.push(format!("{} = {} is not positive", m.name, m.value));
                }
            }
        }
        self.check(
            &format!("summary line holds every {section} metric of BENCHMARK.json"),
            if problems.is_empty() {
                Ok(format!("{} metrics", listed.len()))
            } else {
                Err(problems.join("; "))
            },
        );
    }

    /// Adds a provenance entry.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Adds a correctness check.
    pub fn check(&mut self, name: &str, result: Result<String, String>) {
        self.checks.push(Check::new(name, result));
    }

    /// Whether every check held (and at least one ran).
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// Failed ÷ attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The readable report (every line but the last).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.provenance {
            let _ = writeln!(out, "# {k}: {v}");
        }
        for m in self.metrics.iter().chain(&self.text_only) {
            let spread = m
                .spread
                .map_or(String::new(), |s| format!(", within-run IQR/median {s:.4}"));
            let _ = writeln!(
                out,
                "metric {} = {} {} ({} is better, n={}{spread})",
                m.name,
                m.value,
                m.unit,
                m.better.as_str(),
                m.samples
            );
        }
        let _ = writeln!(
            out,
            "metric ops_failed_frac = {} failed/attempted (lower is better, n={}; {} of {} failed)",
            self.failed_frac(),
            self.attempted,
            self.failed,
            self.attempted
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check {}: {} ({})",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
        out
    }

    /// The JSON summary line: every metric `BENCHMARK.json` lists for
    /// this run's section, in its order and unit; one this run did not
    /// measure reads 0 (see [`RunReport::seal`]).
    pub fn render_json(&self) -> String {
        let mut metrics = String::new();
        for (i, l) in listed(self.section()).iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let value = self
                .metrics
                .iter()
                .find(|m| m.name == l.name)
                .map_or(0.0, |m| m.value);
            let _ = write!(
                metrics,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                l.name,
                json_number(value),
                l.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

fn median_of(name: &str, unit: &'static str, better: Better, samples: &[f64]) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        value: crate::stats::median(samples),
        samples: samples.len() as u64,
        spread: Some(crate::stats::relative_iqr(samples)),
    }
}

/// JSON has no NaN or infinity; a non-finite value is a harness bug.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}
