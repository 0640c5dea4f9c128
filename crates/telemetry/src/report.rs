//! Cross-device aggregation output: ranked hang groups.
//!
//! A *hang group* is the paper's unit of triage — every soft hang the
//! fleet attributed to the same `(app, action, root-cause API)` triple,
//! with evidence merged across devices. [`TelemetryReport`] is the
//! query/export answer: the top-N groups ranked by occurrence
//! percentage, fleet-wide.
//!
//! [`TelemetryReport::build`] projects per-app merged reports, such as
//! an in-process fleet merge's; the networked
//! [`AggregationStore`](crate::store::AggregationStore) ranks the same
//! rows joined straight from its shard partitions
//! ([`HangBugReport::joined_entries`]), kept per app between queries by
//! a [`ReportView`](crate::store::ReportView). Both rank through one function,
//! which is how the loopback differential in `hd-bench` holds the two
//! byte-identical, and the join is order-independent, so upload order,
//! shard assignment, and duplicate deliveries cannot change a byte of
//! the output.

use hangdoctor::{HangBugReport, ReportEntry, RootKind};
use serde::{Deserialize, Serialize};

use crate::wire::SCHEMA;

/// One cross-device hang group: all hangs with the same
/// `(app, action, root-cause symbol)` key, evidence merged fleet-wide.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HangGroup {
    /// App the group belongs to.
    pub app: String,
    /// Action the bug manifests in.
    pub action: String,
    /// Root-cause symbol (the API or self-developed method at fault).
    pub symbol: String,
    /// Source location of the culprit.
    pub file: String,
    /// Line number.
    pub line: u32,
    /// Root-cause classification.
    pub kind: RootKind,
    /// Distinct devices that reported the bug.
    pub devices: usize,
    /// Soft hangs attributed to the group.
    pub hangs: u64,
    /// Executions of the affected action observed fleet-wide.
    pub action_executions: u64,
    /// Mean hang duration, ns.
    pub mean_hang_ns: u64,
    /// Ranking key: percentage of the action's executions that hung.
    pub occurrence_pct: f64,
}

impl HangGroup {
    fn from_entry(app: &str, e: &ReportEntry, occurrence_pct: f64) -> HangGroup {
        HangGroup {
            app: app.to_string(),
            action: e.action.clone(),
            symbol: e.symbol.clone(),
            file: e.file.clone(),
            line: e.line,
            kind: e.kind,
            devices: e.devices,
            hangs: e.hangs,
            action_executions: e.action_executions,
            mean_hang_ns: e.mean_hang_ns,
            occurrence_pct,
        }
    }
}

/// The aggregation backend's query/export answer: top-N hang groups
/// ranked fleet-wide, plus coverage counts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Protocol/schema tag (`hang-doctor/telemetry/v2`).
    pub schema: String,
    /// The N this report was truncated to.
    pub top_n: usize,
    /// Apps that contributed reports.
    pub apps: usize,
    /// Distinct devices that contributed reports.
    pub devices: usize,
    /// The ranked groups, best-first, at most `top_n`.
    pub groups: Vec<HangGroup>,
}

impl TelemetryReport {
    /// Builds the ranked report from per-app merged hang bug reports.
    ///
    /// `per_app` must carry each app at most once (the aggregation
    /// store's per-app map guarantees that); iteration order does not
    /// matter — the global ranking re-sorts.
    pub fn build<'a, I>(per_app: I, devices: usize, top_n: usize) -> TelemetryReport
    where
        I: IntoIterator<Item = (&'a str, &'a HangBugReport)>,
    {
        let rows: Vec<(&str, Vec<ReportEntry>)> = per_app
            .into_iter()
            .map(|(app, r)| (app, r.entries()))
            .collect();
        TelemetryReport::rank(
            rows.iter().map(|(app, rows)| (*app, rows.as_slice())),
            devices,
            top_n,
        )
    }

    /// Ranks each app's report rows fleet-wide and keeps the top N —
    /// the one projection behind [`build`](TelemetryReport::build) and
    /// the store's report view. Each app comes at most once, in any
    /// order. Rows are ranked by reference; only the kept ones are
    /// copied.
    pub(crate) fn rank<'a>(
        per_app: impl IntoIterator<Item = (&'a str, &'a [ReportEntry])>,
        devices: usize,
        top_n: usize,
    ) -> TelemetryReport {
        let mut apps = 0usize;
        let mut rows: Vec<(f64, &str, &ReportEntry)> = Vec::new();
        for (app, entries) in per_app {
            apps += 1;
            rows.extend(entries.iter().map(|e| (e.occurrence_pct(), app, e)));
        }
        // Fleet-wide ranking: occurrence percentage first (the paper's
        // Figure 2(b) order), then a total tiebreak so the ranking is
        // unambiguous for any input.
        rows.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(b.1))
                .then_with(|| a.2.action.cmp(&b.2.action))
                .then_with(|| a.2.symbol.cmp(&b.2.symbol))
        });
        let groups = rows
            .iter()
            .take(top_n)
            .map(|&(pct, app, e)| HangGroup::from_entry(app, e, pct))
            .collect();
        TelemetryReport {
            schema: SCHEMA.to_string(),
            top_n,
            apps,
            devices,
            groups,
        }
    }

    /// Canonical compact JSON — the byte string the differential test
    /// compares.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }

    /// Renders a developer-facing text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Telemetry Report — {} apps, {} devices, top {} hang groups\n",
            self.apps, self.devices, self.top_n
        );
        out.push_str(&format!(
            "{:<4} {:<14} {:<45} {:>7} {:>7} {:>9}  {}\n",
            "#", "app", "root cause", "devices", "occur%", "mean(ms)", "action"
        ));
        for (i, g) in self.groups.iter().enumerate() {
            out.push_str(&format!(
                "{:<4} {:<14} {:<45} {:>7} {:>6.1}% {:>9.1}  {}\n",
                i + 1,
                g.app,
                format!("{} ({}:{})", g.symbol, g.file, g.line),
                g.devices,
                g.occurrence_pct,
                g.mean_hang_ns as f64 / 1e6,
                g.action,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hangdoctor::RootCause;
    use hd_simrt::ActionUid;

    fn root(symbol: &str) -> RootCause {
        RootCause {
            symbol: symbol.to_string(),
            file: "App.java".to_string(),
            line: 42,
            occurrence_factor: 1.0,
            kind: RootKind::BlockingApi,
        }
    }

    fn report(app: &str, device: u32, hangs: u64, execs: u64) -> HangBugReport {
        let mut r = HangBugReport::new(app);
        let uid = ActionUid(7);
        for _ in 0..execs {
            r.note_execution(device, uid, "onClick");
        }
        for _ in 0..hangs {
            r.record_bug(device, uid, &root("java.io.File.read"), 120_000_000);
        }
        r
    }

    #[test]
    fn ranking_is_by_occurrence_then_lexicographic() {
        let hot = report("hot-app", 1, 8, 10); // 80 %
        let cold = report("cold-app", 2, 1, 10); // 10 %
        let t = TelemetryReport::build([("cold-app", &cold), ("hot-app", &hot)], 2, 10);
        assert_eq!(t.schema, SCHEMA);
        assert_eq!(t.apps, 2);
        assert_eq!(t.devices, 2);
        assert_eq!(t.groups.len(), 2);
        assert_eq!(t.groups[0].app, "hot-app");
        assert!(t.groups[0].occurrence_pct > t.groups[1].occurrence_pct);
    }

    #[test]
    fn top_n_truncates() {
        let a = report("a", 1, 2, 10);
        let b = report("b", 2, 3, 10);
        let t = TelemetryReport::build([("a", &a), ("b", &b)], 2, 1);
        assert_eq!(t.groups.len(), 1);
        assert_eq!(t.top_n, 1);
        assert_eq!(t.apps, 2);
    }

    #[test]
    fn build_is_iteration_order_independent() {
        let a = report("a", 1, 2, 10);
        let b = report("b", 2, 3, 10);
        let fwd = TelemetryReport::build([("a", &a), ("b", &b)], 2, 10);
        let rev = TelemetryReport::build([("b", &b), ("a", &a)], 2, 10);
        assert_eq!(fwd.to_json(), rev.to_json());
    }
}
