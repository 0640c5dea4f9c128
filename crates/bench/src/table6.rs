//! Table 6: which performance event recognizes each previously unknown
//! bug.
//!
//! For every bug in the validation set (the 23 missed offline), execute
//! its action repeatedly, take the S-Checker's three counter differences
//! over each bug-manifesting soft hang, and record which conditions fire
//! in the majority of those hangs. The paper's shape: context-switches
//! catches the most (18/23), task-clock and page-faults 12 each, and
//! every bug is caught by at least one.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use hangdoctor::{validation_set, CounterDiffs, SChecker, SymptomThresholds};
use hd_appmodel::{build_run, CompiledApp, Schedule};
use hd_perfmon::{CostModel, PerfSession};
use hd_simrt::{
    ActionInfo, ActionRecord, HwEvent, MessageInfo, Probe, ProbeCtx, SimConfig, SimTime, MILLIS,
};
use serde::{Deserialize, Serialize};

use crate::common::render_table;

/// Per-bug detection signature.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BugSignature {
    /// App name.
    pub app: String,
    /// Bug id.
    pub bug: String,
    /// Caught by the context-switch condition (majority of hangs).
    pub by_cs: bool,
    /// Caught by the task-clock condition.
    pub by_tc: bool,
    /// Caught by the page-fault condition.
    pub by_pf: bool,
    /// Hang samples observed.
    pub hangs: usize,
}

impl BugSignature {
    /// Caught by at least one condition.
    pub fn recognized(&self) -> bool {
        self.by_cs || self.by_tc || self.by_pf
    }
}

/// The validation result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table6 {
    /// One signature per validation bug.
    pub signatures: Vec<BugSignature>,
}

impl Table6 {
    /// `(cs, tc, pf, recognized, total)` counts.
    pub fn totals(&self) -> (usize, usize, usize, usize, usize) {
        let cs = self.signatures.iter().filter(|s| s.by_cs).count();
        let tc = self.signatures.iter().filter(|s| s.by_tc).count();
        let pf = self.signatures.iter().filter(|s| s.by_pf).count();
        let rec = self.signatures.iter().filter(|s| s.recognized()).count();
        (cs, tc, pf, rec, self.signatures.len())
    }

    /// Renders the per-app roll-up like the paper's table.
    pub fn render(&self) -> String {
        let mut per_app: BTreeMap<&str, (usize, usize, usize, usize)> = BTreeMap::new();
        for s in &self.signatures {
            let e = per_app.entry(&s.app).or_default();
            e.0 += 1;
            if s.by_cs {
                e.1 += 1;
            }
            if s.by_tc {
                e.2 += 1;
            }
            if s.by_pf {
                e.3 += 1;
            }
        }
        let rows: Vec<Vec<String>> = per_app
            .iter()
            .map(|(app, (n, cs, tc, pf))| {
                let cell = |v: usize| {
                    if v == 0 {
                        "-".to_string()
                    } else {
                        v.to_string()
                    }
                };
                vec![
                    app.to_string(),
                    n.to_string(),
                    cell(*cs),
                    cell(*tc),
                    cell(*pf),
                ]
            })
            .collect();
        let (cs, tc, pf, rec, total) = self.totals();
        format!(
            "Table 6 — Validation bugs recognized per counter\n{}\nTotals: {total} new bugs, context-switches {cs}, task-clock {tc}, page-faults {pf}; recognized {rec}/{total}\n",
            render_table(
                &["App Name", "New Bugs", "Ctx-Switches", "Task-Clock", "Page-Faults"],
                &rows
            )
        )
    }
}

struct DiffCollector {
    session: Option<PerfSession>,
    had_hang: bool,
    timeout_ns: u64,
    out: Rc<RefCell<Vec<CounterDiffs>>>,
}

impl Probe for DiffCollector {
    fn on_action_begin(&mut self, ctx: &mut ProbeCtx<'_>, _info: &ActionInfo) {
        let threads = [ctx.main_tid(), ctx.render_tid()];
        self.session = Some(PerfSession::start(
            ctx,
            &threads,
            &SymptomThresholds::EVENTS,
            CostModel::default(),
        ));
        self.had_hang = false;
    }

    fn on_dispatch_end(&mut self, _ctx: &mut ProbeCtx<'_>, _info: &MessageInfo, response_ns: u64) {
        if response_ns > self.timeout_ns {
            self.had_hang = true;
        }
    }

    fn on_action_end(&mut self, ctx: &mut ProbeCtx<'_>, _record: &ActionRecord) {
        let Some(session) = self.session.take() else {
            return;
        };
        if !self.had_hang {
            return;
        }
        let main = ctx.main_tid();
        let render = ctx.render_tid();
        self.out.borrow_mut().push(CounterDiffs {
            context_switches: session.read_diff(ctx, main, render, HwEvent::ContextSwitches),
            task_clock: session.read_diff(ctx, main, render, HwEvent::TaskClock),
            page_faults: session.read_diff(ctx, main, render, HwEvent::PageFaults),
        });
    }
}

/// Runs the validation study.
pub fn run(seed: u64, executions: usize) -> Table6 {
    let checker = SChecker::new(SymptomThresholds::default());
    let mut signatures = Vec::new();
    for (i, spec) in validation_set().iter().enumerate() {
        let compiled = CompiledApp::new(spec.app.clone());
        let mut arrivals = Vec::new();
        let mut t = SimTime::from_ms(400);
        for _ in 0..executions {
            arrivals.push((t, spec.action));
            t += 2_800 * MILLIS;
        }
        let schedule = Schedule { arrivals };
        let mut run = build_run(
            &compiled,
            &schedule,
            SimConfig::default(),
            seed.wrapping_add(31 * i as u64),
        );
        let diffs = Rc::new(RefCell::new(Vec::new()));
        run.sim.add_probe(Box::new(DiffCollector {
            session: None,
            had_hang: false,
            timeout_ns: 100 * MILLIS,
            out: diffs.clone(),
        }));
        run.sim.run();
        let diffs = diffs.borrow();
        let n = diffs.len();
        let majority = |count: usize| n > 0 && 2 * count > n;
        let fired = |f: fn(&hangdoctor::SymptomVerdict) -> bool| {
            diffs.iter().map(|d| checker.check(*d)).filter(f).count()
        };
        signatures.push(BugSignature {
            app: spec.app.name.clone(),
            bug: spec.name.clone(),
            by_cs: majority(fired(|v| v.triggered.contains(&HwEvent::ContextSwitches))),
            by_tc: majority(fired(|v| v.triggered.contains(&HwEvent::TaskClock))),
            by_pf: majority(fired(|v| v.triggered.contains(&HwEvent::PageFaults))),
            hangs: n,
        });
    }
    Table6 { signatures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_validation_bug_is_recognized() {
        let t = run(42, 8);
        let (cs, tc, pf, rec, total) = t.totals();
        assert_eq!(total, 23);
        assert_eq!(
            rec,
            total,
            "unrecognized: {:#?}",
            t.signatures
                .iter()
                .filter(|s| !s.recognized())
                .collect::<Vec<_>>()
        );
        // Paper shape: context-switches catches the most; task-clock and
        // page-faults each catch a strict subset; no single counter
        // suffices. `repro --seed N all` reads exactly 18/12/12 on every
        // seed N = 1..20, so the split is pinned, not bounded.
        assert_eq!((cs, tc, pf), (18, 12, 12), "cs {cs}, tc {tc}, pf {pf}");
    }

    #[test]
    fn omninotes_bugs_are_page_fault_only() {
        let t = run(42, 8);
        let omni: Vec<&BugSignature> = t
            .signatures
            .iter()
            .filter(|s| s.app == "Omni-Notes")
            .collect();
        assert_eq!(omni.len(), 3);
        for s in omni {
            assert!(s.by_pf, "{} not caught by page faults", s.bug);
            assert!(!s.by_cs, "{} unexpectedly cs-positive", s.bug);
        }
    }

    #[test]
    fn qksms_bugs_are_cs_and_tc() {
        let t = run(42, 8);
        let q: Vec<&BugSignature> = t.signatures.iter().filter(|s| s.app == "QKSMS").collect();
        assert_eq!(q.len(), 3);
        for s in q {
            assert!(
                s.by_cs && s.by_tc,
                "{}: cs={} tc={}",
                s.bug,
                s.by_cs,
                s.by_tc
            );
            assert!(!s.by_pf, "{} unexpectedly pf-positive", s.bug);
        }
    }
}
