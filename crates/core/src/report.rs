//! The Hang Bug Report (Figure 2(b)).
//!
//! Per app, the report aggregates diagnosed soft hang bugs across user
//! devices: for each root cause it tracks how many devices saw it and in
//! what percentage of the affected action's executions it manifested,
//! sorted by occurrence.
//!
//! All evidence is kept **per device**, and [`HangBugReport::merge`] is
//! a join-semilattice join: for every (root cause, device) and (action,
//! device) cell it takes the element-wise maximum of the two counters.
//! Two snapshots of the same device's monotonically growing state merge
//! to the later snapshot, and reports from different devices union.
//! That makes `merge` associative, commutative, and idempotent, so the
//! fleet engine can combine shard results in any grouping/order — and
//! retry a shard — without changing the outcome. `merge` also says
//! whether it changed the report, which the maximum or minimum deciding
//! each cell already knows, so a caller can skip the work that a merge
//! adding nothing would otherwise set off.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use hd_simrt::ActionUid;
use serde::{Deserialize, Serialize};

use crate::analysis::{RootCause, RootKind};

/// One aggregated report row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReportEntry {
    /// Root-cause symbol (e.g. `org.andstatus.app.util.MyHtml.transform`).
    pub symbol: String,
    /// Source location of the culprit.
    pub file: String,
    /// Line number.
    pub line: u32,
    /// Classification (blocking API vs self-developed operation).
    pub kind: RootKind,
    /// Action the bug manifests in.
    pub action: String,
    /// Devices that reported this bug.
    pub devices: usize,
    /// Soft hangs attributed to this root cause.
    pub hangs: u64,
    /// Executions of the affected action observed (for the percentage).
    pub action_executions: u64,
    /// Mean hang duration, ns.
    pub mean_hang_ns: u64,
}

impl ReportEntry {
    /// Percentage of the action's executions that hung on this bug.
    pub fn occurrence_pct(&self) -> f64 {
        if self.action_executions == 0 {
            return 0.0;
        }
        100.0 * self.hangs as f64 / self.action_executions as f64
    }
}

/// What one device contributed to one root cause. Merging takes the
/// field-wise-lexicographic maximum (`Ord` derive), treating the larger
/// record as the later snapshot of the same device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
struct DeviceEvidence {
    hangs: u64,
    total_hang_ns: u64,
}

#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct EntryAcc {
    file: String,
    line: u32,
    kind: Option<RootKind>,
    devices: HashMap<u32, DeviceEvidence>,
}

impl EntryAcc {
    /// The site's rank when one symbol was diagnosed at two sites: the
    /// smallest wins, so merge order cannot matter. A named file beats an
    /// unnamed one, then `(file, line)` decides.
    fn site(&self) -> (bool, &str, u32) {
        (self.file.is_empty(), &self.file, self.line)
    }

    /// Semilattice join with another accumulator for the same symbol.
    /// Returns whether it changed this one.
    fn join(&mut self, other: &EntryAcc) -> bool {
        let mut changed = false;
        if other.site() < self.site() {
            self.file = other.file.clone();
            self.line = other.line;
            changed = true;
        }
        let kind = match (self.kind, other.kind) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        changed |= kind != self.kind;
        self.kind = kind;
        for (device, evidence) in &other.devices {
            changed |= join_cell(self.devices.entry(*device), *evidence);
        }
        changed
    }
}

/// Aggregated per-app hang bug report maintained for the developer.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct HangBugReport {
    /// App the report belongs to.
    pub app: String,
    entries: HashMap<String, EntryAcc>,
    action_executions: HashMap<ActionUid, HashMap<u32, u64>>,
    action_names: HashMap<ActionUid, String>,
    bug_actions: HashMap<String, ActionUid>,
}

impl HangBugReport {
    /// Creates an empty report for `app`.
    pub fn new(app: &str) -> HangBugReport {
        HangBugReport {
            app: app.to_string(),
            ..Default::default()
        }
    }

    /// Notes one execution of an action on `device` (denominator of the
    /// occurrence percentage).
    pub fn note_execution(&mut self, device: u32, uid: ActionUid, name: &str) {
        *self
            .action_executions
            .entry(uid)
            .or_default()
            .entry(device)
            .or_default() += 1;
        self.action_names
            .entry(uid)
            .or_insert_with(|| name.to_string());
    }

    /// Records one diagnosed soft hang bug occurrence from `device`.
    pub fn record_bug(&mut self, device: u32, uid: ActionUid, root: &RootCause, hang_ns: u64) {
        debug_assert!(root.is_bug(), "UI diagnoses must not be reported");
        let acc = self.entries.entry(root.symbol.clone()).or_default();
        acc.file = root.file.clone();
        acc.line = root.line;
        acc.kind = Some(root.kind);
        let evidence = acc.devices.entry(device).or_default();
        evidence.hangs += 1;
        evidence.total_hang_ns += hang_ns;
        self.bug_actions.insert(root.symbol.clone(), uid);
    }

    /// Merges another report for the same app into this one (fleet
    /// aggregation). Associative, commutative, and idempotent: every
    /// per-device counter joins by maximum, and tie-breaks (names,
    /// locations, classifications) resolve to the smallest value.
    ///
    /// Returns whether this report changed: false exactly when `other`
    /// adds nothing to it, so the serialized bytes are unchanged. Keys
    /// are cloned only for new entries.
    pub fn merge(&mut self, other: &HangBugReport) -> bool {
        let mut changed = false;
        for (uid, devices) in &other.action_executions {
            let mine = match self.action_executions.entry(*uid) {
                Entry::Occupied(occupied) => occupied.into_mut(),
                Entry::Vacant(vacant) => {
                    changed = true;
                    vacant.insert(HashMap::new())
                }
            };
            for (device, count) in devices {
                changed |= join_cell(mine.entry(*device), *count);
            }
        }
        for (uid, name) in &other.action_names {
            match self.action_names.entry(*uid) {
                Entry::Occupied(mut occupied) => {
                    if name < occupied.get() {
                        occupied.insert(name.clone());
                        changed = true;
                    }
                }
                Entry::Vacant(vacant) => {
                    vacant.insert(name.clone());
                    changed = true;
                }
            }
        }
        for (sym, acc) in &other.entries {
            match self.entries.get_mut(sym) {
                Some(mine) => changed |= mine.join(acc),
                None => {
                    self.entries.insert(sym.clone(), acc.clone());
                    changed = true;
                }
            }
        }
        for (sym, uid) in &other.bug_actions {
            match self.bug_actions.get_mut(sym) {
                Some(mine) => {
                    if uid.0 < mine.0 {
                        *mine = *uid;
                        changed = true;
                    }
                }
                None => {
                    self.bug_actions.insert(sym.clone(), *uid);
                    changed = true;
                }
            }
        }
        changed
    }

    /// Report rows ordered by occurrence percentage (Figure 2(b)).
    pub fn entries(&self) -> Vec<ReportEntry> {
        HangBugReport::joined_entries(&[self])
    }

    /// The rows of the report that [`merge`]-folding `parts` (one app's
    /// partial reports) would build, read from the parts in place: equal
    /// to the fold's [`entries`] for any split, a device in several parts
    /// included. Each root cause joins its parts' evidence by the merge
    /// rules; only the action it names joins executions and a name.
    ///
    /// [`merge`]: HangBugReport::merge
    /// [`entries`]: HangBugReport::entries
    pub fn joined_entries(parts: &[&HangBugReport]) -> Vec<ReportEntry> {
        let mut accs: Vec<(&String, &EntryAcc)> = parts.iter().flat_map(|p| &p.entries).collect();
        accs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut rows: Vec<ReportEntry> = accs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let symbol = group[0].0;
                let site = group
                    .iter()
                    .map(|(_, acc)| acc)
                    .min_by(|a, b| a.site().cmp(&b.site()))
                    .expect("chunks are non-empty");
                let (mut devices, mut hangs, mut total_hang_ns) = (0, 0u64, 0u64);
                join_per_device(group.iter().map(|(_, acc)| &acc.devices), |e| {
                    devices += 1;
                    hangs += e.hangs;
                    total_hang_ns += e.total_hang_ns;
                });
                let uid = parts.iter().filter_map(|p| p.bug_actions.get(symbol)).min();
                let mut action_executions = 0;
                if let Some(uid) = uid {
                    let runs = parts.iter().filter_map(|p| p.action_executions.get(uid));
                    join_per_device(runs, |count| action_executions += count);
                }
                let action = uid
                    .and_then(|uid| parts.iter().filter_map(|p| p.action_names.get(uid)).min())
                    .cloned()
                    .unwrap_or_default();
                ReportEntry {
                    symbol: symbol.clone(),
                    file: site.file.clone(),
                    line: site.line,
                    kind: group
                        .iter()
                        .filter_map(|(_, acc)| acc.kind)
                        .min()
                        .unwrap_or(RootKind::BlockingApi),
                    action,
                    devices,
                    hangs,
                    action_executions,
                    mean_hang_ns: total_hang_ns.checked_div(hangs).unwrap_or(0),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.occurrence_pct()
                .partial_cmp(&a.occurrence_pct())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.symbol.cmp(&b.symbol))
        });
        rows
    }

    /// Renders a developer-facing text table.
    pub fn render(&self) -> String {
        let mut out = format!("Hang Bug Report — {}\n", self.app);
        out.push_str(&format!(
            "{:<55} {:>8} {:>7} {:>9}  {}\n",
            "root cause", "devices", "occur%", "mean(ms)", "action"
        ));
        for e in self.entries() {
            out.push_str(&format!(
                "{:<55} {:>8} {:>6.1}% {:>9.1}  {}\n",
                format!("{} ({}:{})", e.symbol, e.file, e.line),
                e.devices,
                e.occurrence_pct(),
                e.mean_hang_ns as f64 / 1e6,
                e.action,
            ));
        }
        out
    }
}

/// Joins `value` into one per-device cell by maximum; returns whether
/// the cell was new or grew.
fn join_cell<V: Copy + Ord>(cell: Entry<'_, u32, V>, value: V) -> bool {
    match cell {
        Entry::Occupied(mut occupied) => {
            let grew = value > *occupied.get();
            if grew {
                occupied.insert(value);
            }
            grew
        }
        Entry::Vacant(vacant) => {
            vacant.insert(value);
            true
        }
    }
}

/// Joins per-device cells across maps by maximum, as [`HangBugReport::merge`]
/// does, and hands `visit` each device's joined cell once. A lone map
/// is read in place.
fn join_per_device<'a, V: Copy + Ord + 'a>(
    mut maps: impl Iterator<Item = &'a HashMap<u32, V>>,
    mut visit: impl FnMut(V),
) {
    let Some(first) = maps.next() else {
        return;
    };
    let Some(second) = maps.next() else {
        first.values().for_each(|v| visit(*v));
        return;
    };
    let mut joined = first.clone();
    for map in std::iter::once(second).chain(maps) {
        for (device, v) in map {
            let cell = joined.entry(*device).or_insert(*v);
            *cell = (*cell).max(*v);
        }
    }
    joined.into_values().for_each(visit);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(symbol: &str) -> RootCause {
        RootCause {
            symbol: symbol.to_string(),
            file: "X.java".into(),
            line: 10,
            occurrence_factor: 0.9,
            kind: RootKind::BlockingApi,
        }
    }

    #[test]
    fn occurrence_percentage_over_action_executions() {
        let mut r = HangBugReport::new("AndStatus");
        for _ in 0..100 {
            r.note_execution(1, ActionUid(1), "open conversation");
        }
        for _ in 0..75 {
            r.record_bug(1, ActionUid(1), &root("a.b.transform"), 200_000_000);
        }
        let rows = r.entries();
        assert_eq!(rows.len(), 1);
        assert!((rows[0].occurrence_pct() - 75.0).abs() < 1e-9);
        assert_eq!(rows[0].mean_hang_ns, 200_000_000);
        assert_eq!(rows[0].action, "open conversation");
    }

    #[test]
    fn rows_sorted_by_occurrence() {
        let mut r = HangBugReport::new("App");
        for _ in 0..10 {
            r.note_execution(1, ActionUid(1), "a1");
            r.note_execution(1, ActionUid(2), "a2");
        }
        for _ in 0..2 {
            r.record_bug(1, ActionUid(1), &root("low.occurrence"), 1);
        }
        for _ in 0..9 {
            r.record_bug(1, ActionUid(2), &root("high.occurrence"), 1);
        }
        let rows = r.entries();
        assert_eq!(rows[0].symbol, "high.occurrence");
        assert_eq!(rows[1].symbol, "low.occurrence");
    }

    #[test]
    fn merge_unions_devices_and_sums_hangs() {
        let mut a = HangBugReport::new("App");
        a.note_execution(1, ActionUid(1), "act");
        a.record_bug(1, ActionUid(1), &root("x.y.z"), 100);
        let mut b = HangBugReport::new("App");
        b.note_execution(2, ActionUid(1), "act");
        b.record_bug(2, ActionUid(1), &root("x.y.z"), 300);
        a.merge(&b);
        let rows = a.entries();
        assert_eq!(rows[0].devices, 2);
        assert_eq!(rows[0].hangs, 2);
        assert_eq!(rows[0].action_executions, 2);
        assert_eq!(rows[0].mean_hang_ns, 200);
    }

    #[test]
    fn merge_is_idempotent_per_device() {
        let mut a = HangBugReport::new("App");
        a.note_execution(1, ActionUid(1), "act");
        a.note_execution(1, ActionUid(1), "act");
        a.record_bug(1, ActionUid(1), &root("x.y.z"), 100);
        let snapshot = a.clone();
        // Merging a report with itself (same device) must change nothing:
        // it is the same evidence, not new evidence.
        a.merge(&snapshot);
        a.merge(&snapshot);
        let rows = a.entries();
        assert_eq!(rows[0].devices, 1);
        assert_eq!(rows[0].hangs, 1);
        assert_eq!(rows[0].action_executions, 2);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&snapshot).unwrap()
        );
    }

    #[test]
    fn merge_takes_later_snapshot_of_same_device() {
        let mut early = HangBugReport::new("App");
        early.note_execution(3, ActionUid(1), "act");
        early.record_bug(3, ActionUid(1), &root("x.y.z"), 100);
        let mut late = early.clone();
        late.note_execution(3, ActionUid(1), "act");
        late.record_bug(3, ActionUid(1), &root("x.y.z"), 300);
        // Merge in either order: the later snapshot wins, nothing doubles.
        let mut ab = early.clone();
        ab.merge(&late);
        let mut ba = late.clone();
        ba.merge(&early);
        assert_eq!(
            serde_json::to_string(&ab).unwrap(),
            serde_json::to_string(&ba).unwrap()
        );
        let rows = ab.entries();
        assert_eq!(rows[0].hangs, 2);
        assert_eq!(rows[0].action_executions, 2);
        assert_eq!(rows[0].mean_hang_ns, 200);
    }

    #[test]
    fn merge_resolves_unnamed_sites_order_independently() {
        let at = |line| {
            let mut r = HangBugReport::new("App");
            let site = RootCause {
                file: String::new(),
                line,
                ..root("x.y")
            };
            r.record_bug(1, ActionUid(1), &site, 10);
            r
        };
        let (a, b) = (at(5), at(3));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            serde_json::to_string(&ab).unwrap(),
            serde_json::to_string(&ba).unwrap()
        );
        assert_eq!(ab.entries()[0].line, 3);
        // A named site still beats an unnamed one, in either order.
        let mut named = HangBugReport::new("App");
        named.record_bug(2, ActionUid(1), &root("x.y"), 10);
        let mut left = named.clone();
        left.merge(&b);
        let mut right = b.clone();
        right.merge(&named);
        assert_eq!(left.entries()[0].file, "X.java");
        assert_eq!(right.entries()[0].file, "X.java");
    }

    #[test]
    fn render_contains_figure_2b_columns() {
        let mut r = HangBugReport::new("AndStatus");
        r.note_execution(7, ActionUid(1), "open conversation");
        r.record_bug(
            7,
            ActionUid(1),
            &root("org.andstatus.app.util.MyHtml.transform"),
            1_000_000,
        );
        let text = r.render();
        assert!(text.contains("devices"));
        assert!(text.contains("occur%"));
        assert!(text.contains("MyHtml.transform"));
    }

    #[test]
    fn serde_round_trip() {
        let mut r = HangBugReport::new("App");
        r.note_execution(1, ActionUid(1), "act");
        r.record_bug(1, ActionUid(1), &root("x.y.z"), 5);
        let json = serde_json::to_string(&r).unwrap();
        let back: HangBugReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries(), r.entries());
    }
}
