//! The cross-device aggregation store.
//!
//! Holds a node's (or one shard's) aggregation state: per-app hang bug
//! reports merged with the semilattice join from `hangdoctor`, the set
//! of `(app, device)` pairs that have contributed, and the fingerprints
//! of every batch ever applied. Ingest is **idempotent**: a batch whose
//! fingerprint was seen before is absorbed without touching the merged
//! state, so at-least-once delivery (uploader retries, duplicated
//! frames, replayed spools, WAL replay after a crash) converges to
//! exactly the same store as exactly-once delivery.
//!
//! Because the join is associative, commutative, and idempotent, the
//! final state is independent of batch arrival order — and because the
//! join is a semilattice, the state is a CRDT: two stores that ingested
//! *different partitions* of the same batch set merge (via
//! [`AggregationStore::absorb`]) into exactly the store a single node
//! would have built. The cluster coordinator, WAL replay, and node
//! rejoin are all the same fold.
//!
//! [`StoreSnapshot`] is the store's canonical serialized form — used
//! both as the WAL compaction snapshot on disk and as the
//! `Export`/`State` wire exchange a cluster coordinator folds.
//!
//! [`ReportView`] is the server's Hang Bug Report kept between queries:
//! each app's report rows joined across the shard partitions, re-joined
//! only for the apps a partition changed since the view last read it.
//! A partition marks an app only when a batch or an absorbed snapshot
//! changed the app's report or added a device to it, so re-sending what
//! the store already holds marks nothing, and a view whose update
//! re-joins nothing answers as before.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use hangdoctor::{HangBugReport, ReportEntry};
use serde::{Deserialize, Serialize};

use crate::fingerprint::batch_fingerprint;
use crate::report::TelemetryReport;
use crate::wire::UploadBatch;

/// Schema tag of [`StoreSnapshot`] (disk snapshots and `State` wire
/// bodies).
pub const SNAPSHOT_SCHEMA: &str = "hang-doctor/telemetry-snapshot/v1";

/// Ingest-side counters, exported with server stats.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Batches applied to the merged state.
    pub batches_applied: u64,
    /// Batches recognized as duplicates and absorbed.
    pub duplicates_absorbed: u64,
    /// Individual reports carried by applied batches.
    pub reports_ingested: u64,
}

impl IngestStats {
    /// Adds another shard's (or node's) counters into this one.
    pub fn merge(&mut self, other: &IngestStats) {
        self.batches_applied += other.batches_applied;
        self.duplicates_absorbed += other.duplicates_absorbed;
        self.reports_ingested += other.reports_ingested;
    }
}

/// What [`AggregationStore::ingest`] decided about one batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestOutcome {
    /// The batch's content fingerprint.
    pub fingerprint: u64,
    /// Whether the batch was absorbed as a duplicate.
    pub duplicate: bool,
}

/// The canonical serialized form of an [`AggregationStore`] — the WAL
/// compaction snapshot on disk, and the body of the wire `State`
/// response a cluster coordinator folds. All containers render sorted,
/// so two stores with the same logical content serialize identically.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// Snapshot schema tag ([`SNAPSHOT_SCHEMA`]).
    pub schema: String,
    /// Per-app merged hang bug reports, sorted by app.
    pub apps: Vec<(String, HangBugReport)>,
    /// Contributing `(app, device)` pairs, sorted.
    pub devices: Vec<(String, u32)>,
    /// Fingerprints of every applied batch, sorted.
    pub seen: Vec<u64>,
    /// Ingest counters at snapshot time.
    pub stats: IngestStats,
}

/// The aggregation backend state. Deterministic containers throughout
/// (`BTreeMap`/`BTreeSet` plus the sorted-serializing report maps), so
/// two stores with the same logical content serialize identically.
#[derive(Clone, Debug, Default)]
pub struct AggregationStore {
    apps: BTreeMap<String, HangBugReport>,
    /// Contributing devices per app; snapshots flatten them into sorted
    /// `(app, device)` pairs.
    devices: BTreeMap<String, BTreeSet<u32>>,
    seen: HashSet<u64>,
    stats: IngestStats,
    /// Apps whose report or device set changed since the [`ReportView`]
    /// reading this store last drained them; an upload that changes
    /// neither marks nothing. Not content: snapshots leave it out.
    changed: BTreeSet<String>,
}

impl AggregationStore {
    /// Creates an empty store.
    pub fn new() -> AggregationStore {
        AggregationStore::default()
    }

    /// Applies one upload batch, deduplicating on its content
    /// fingerprint.
    pub fn ingest(&mut self, batch: &UploadBatch) -> IngestOutcome {
        let fingerprint = batch_fingerprint(batch);
        self.ingest_prehashed(batch, fingerprint)
    }

    /// Whether a batch with this fingerprint was already applied.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.seen.contains(&fingerprint)
    }

    /// Applies one upload batch whose fingerprint the caller already
    /// computed — the hot ingest path computes it once and shares it
    /// with the WAL, so the batch is never re-serialized.
    pub fn ingest_prehashed(&mut self, batch: &UploadBatch, fingerprint: u64) -> IngestOutcome {
        if !self.seen.insert(fingerprint) {
            self.stats.duplicates_absorbed += 1;
            return IngestOutcome {
                fingerprint,
                duplicate: true,
            };
        }
        self.add_device(&batch.app, batch.device);
        for item in &batch.items {
            // An item may carry another app's report than the batch's.
            let report = item.report();
            self.merge_report(&report.app, report);
            self.stats.reports_ingested += 1;
        }
        self.stats.batches_applied += 1;
        IngestOutcome {
            fingerprint,
            duplicate: false,
        }
    }

    /// Notes that `app` changed, for the report view.
    fn mark(&mut self, app: &str) {
        if !self.changed.contains(app) {
            self.changed.insert(app.to_string());
        }
    }

    /// Merges `report` into `app`'s report, creating that, and marks the
    /// app only when its report changed.
    fn merge_report(&mut self, app: &str, report: &HangBugReport) {
        let changed = match self.apps.get_mut(app) {
            Some(mine) => mine.merge(report),
            None => {
                let mut mine = HangBugReport::new(app);
                mine.merge(report);
                self.apps.insert(app.to_string(), mine);
                true
            }
        };
        if changed {
            self.mark(app);
        }
    }

    /// Records that `device` contributed under `app`, and marks the app
    /// only when the device is new to it.
    fn add_device(&mut self, app: &str, device: u32) {
        let added = match self.devices.get_mut(app) {
            Some(devices) => devices.insert(device),
            None => {
                self.devices
                    .insert(app.to_string(), BTreeSet::from([device]));
                true
            }
        };
        if added {
            self.mark(app);
        }
    }

    /// Number of distinct `(app, device)` pairs that have contributed.
    pub fn device_count(&self) -> usize {
        self.devices.values().map(BTreeSet::len).sum()
    }

    /// Number of apps with merged state.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// Ingest counters so far.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The top-N ranked cross-device report over everything ingested.
    pub fn report(&self, top_n: usize) -> TelemetryReport {
        AggregationStore::fold_report(&[self], top_n)
    }

    /// Serializes the full store state canonically.
    pub fn snapshot(&self) -> StoreSnapshot {
        let mut seen: Vec<u64> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        StoreSnapshot {
            schema: SNAPSHOT_SCHEMA.to_string(),
            apps: self
                .apps
                .iter()
                .map(|(app, r)| (app.clone(), r.clone()))
                .collect(),
            devices: self
                .devices
                .iter()
                .flat_map(|(app, devices)| devices.iter().map(|d| (app.clone(), *d)))
                .collect(),
            seen,
            stats: self.stats.clone(),
        }
    }

    /// Rebuilds a store from a snapshot: the empty store absorbing it,
    /// so every app counts as changed and a report view's first query
    /// over the store is a full fold.
    pub fn from_snapshot(snap: &StoreSnapshot) -> AggregationStore {
        let mut store = AggregationStore::new();
        store.absorb(snap);
        store
    }

    /// The top-N report over several partitions of one store (a node's
    /// shard stores), read in place: what a fresh [`ReportView`] over
    /// every app of the parts answers. Nothing is merged or copied,
    /// fingerprint sets and counters are not read, and the answer is
    /// byte-identical to [`absorb`]-folding the partitions' snapshots,
    /// then reporting.
    ///
    /// [`absorb`]: AggregationStore::absorb
    pub fn fold_report(parts: &[&AggregationStore], top_n: usize) -> TelemetryReport {
        let mut apps: Vec<&str> = parts
            .iter()
            .flat_map(|p| p.apps.keys().chain(p.devices.keys()))
            .map(String::as_str)
            .collect();
        apps.sort_unstable();
        apps.dedup();
        let rows: Vec<(&str, AppRows)> = apps
            .into_iter()
            .map(|app| (app, AggregationStore::app_rows(parts, app)))
            .collect();
        AppRows::rank(rows.iter().map(|(app, rows)| (*app, rows)), top_n)
    }

    /// One app's share of the report over `parts`, the one projection
    /// behind [`fold_report`](AggregationStore::fold_report) and the
    /// server's view: its rows through [`HangBugReport::joined_entries`]
    /// and its distinct devices across the parts.
    fn app_rows(parts: &[&AggregationStore], app: &str) -> AppRows {
        let reports: Vec<&HangBugReport> = parts.iter().filter_map(|p| p.apps.get(app)).collect();
        let sets: Vec<&BTreeSet<u32>> = parts.iter().filter_map(|p| p.devices.get(app)).collect();
        // A device counts in the first part that holds it.
        let devices = sets
            .iter()
            .enumerate()
            .map(|(i, set)| {
                set.iter()
                    .filter(|d| !sets[..i].iter().any(|s| s.contains(d)))
                    .count()
            })
            .sum();
        AppRows {
            rows: (!reports.is_empty()).then(|| HangBugReport::joined_entries(&reports)),
            devices,
        }
    }

    /// CRDT merge: folds another store's state (typically a different
    /// shard's or node's partition) into this one. Associative,
    /// commutative, and idempotent over semilattice elements, so a
    /// coordinator folding N partitions in any order reproduces the
    /// single-node store exactly.
    pub fn absorb(&mut self, snap: &StoreSnapshot) {
        for (app, report) in &snap.apps {
            self.merge_report(app, report);
        }
        for (app, device) in &snap.devices {
            self.add_device(app, *device);
        }
        self.seen.extend(snap.seen.iter().copied());
        self.stats.merge(&snap.stats);
    }
}

/// One app's share of the Hang Bug Report, joined across partitions.
#[derive(Debug)]
struct AppRows {
    /// The app's report rows; `None` when no part holds a report for
    /// it, so it counts toward `devices` but not toward `apps`.
    rows: Option<Vec<ReportEntry>>,
    /// Distinct devices that contributed under the app.
    devices: usize,
}

impl AppRows {
    /// The top-N report over every app's share, each app once.
    fn rank<'a>(
        apps: impl Iterator<Item = (&'a str, &'a AppRows)> + Clone,
        top_n: usize,
    ) -> TelemetryReport {
        let devices = apps.clone().map(|(_, a)| a.devices).sum();
        let per_app = apps.filter_map(|(app, a)| Some((app, a.rows.as_deref()?)));
        TelemetryReport::rank(per_app, devices, top_n)
    }
}

/// The Hang Bug Report kept between queries over one set of store
/// partitions: each app's joined rows and device count. [`update`]
/// re-joins only the apps some partition changed since the view last
/// read it, and [`report`] ranks the kept rows, so a query costs the
/// apps written since the previous one rather than the whole fleet.
///
/// A store marks an app when an applied batch or an [`absorb`] changes
/// its report ([`HangBugReport::merge`] says whether it did) or adds a
/// device to it; a batch that merges nothing new marks nothing.
/// [`from_snapshot`] absorbs into an empty store, so it marks every app.
/// Marks live outside the snapshot, so the first update over stores
/// just recovered from disk is a full fold. A view is exact only while
/// it is the one reader draining its partitions' marks and sees the
/// same partitions on every update.
///
/// [`update`]: ReportView::update
/// [`report`]: ReportView::report
/// [`absorb`]: AggregationStore::absorb
/// [`from_snapshot`]: AggregationStore::from_snapshot
#[derive(Debug, Default)]
pub struct ReportView {
    apps: BTreeMap<String, AppRows>,
}

impl ReportView {
    /// A view that has read nothing yet.
    pub fn new() -> ReportView {
        ReportView::default()
    }

    /// Drains the apps each of `parts` changed since the last update and
    /// re-joins those apps across all the parts. Returns whether it
    /// re-joined any: when it did not, [`report`](ReportView::report)
    /// answers as it did before the update.
    pub fn update(&mut self, parts: &mut [&mut AggregationStore]) -> bool {
        let mut changed = BTreeSet::new();
        for part in parts.iter_mut() {
            changed.append(&mut part.changed);
        }
        let rejoined = !changed.is_empty();
        let parts: Vec<&AggregationStore> = parts.iter().map(|p| &**p).collect();
        for app in changed {
            let rows = AggregationStore::app_rows(&parts, &app);
            self.apps.insert(app, rows);
        }
        rejoined
    }

    /// The top-N report as of the last update.
    pub fn report(&self, top_n: usize) -> TelemetryReport {
        AppRows::rank(self.apps.iter().map(|(app, a)| (app.as_str(), a)), top_n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::TelemetryItem;
    use hangdoctor::{RootCause, RootKind};
    use hd_simrt::ActionUid;

    fn batch(app: &str, device: u32, seq: u64, hangs: u64) -> UploadBatch {
        let mut r = HangBugReport::new(app);
        let uid = ActionUid(3);
        for _ in 0..10 {
            r.note_execution(device, uid, "onScroll");
        }
        for _ in 0..hangs {
            r.record_bug(
                device,
                uid,
                &RootCause {
                    symbol: "android.database.sqlite.SQLiteDatabase.query".to_string(),
                    file: "Feed.java".to_string(),
                    line: 77,
                    occurrence_factor: 1.0,
                    kind: RootKind::BlockingApi,
                },
                90_000_000,
            );
        }
        UploadBatch {
            app: app.to_string(),
            device,
            seq,
            items: vec![TelemetryItem::Report(r)],
        }
    }

    #[test]
    fn ingest_merges_across_devices() {
        let mut store = AggregationStore::new();
        assert!(!store.ingest(&batch("app", 1, 0, 2)).duplicate);
        assert!(!store.ingest(&batch("app", 2, 0, 3)).duplicate);
        assert_eq!(store.device_count(), 2);
        assert_eq!(store.app_count(), 1);
        let t = store.report(10);
        assert_eq!(t.groups.len(), 1);
        assert_eq!(t.groups[0].devices, 2);
        assert_eq!(t.groups[0].hangs, 5);
    }

    #[test]
    fn duplicate_batches_are_absorbed() {
        let mut store = AggregationStore::new();
        let b = batch("app", 1, 0, 2);
        let first = store.ingest(&b);
        let second = store.ingest(&b);
        assert!(!first.duplicate);
        assert!(second.duplicate);
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(store.stats().duplicates_absorbed, 1);
        // The merged state is exactly the single-delivery state.
        let mut once = AggregationStore::new();
        once.ingest(&b);
        assert_eq!(store.report(10).to_json(), once.report(10).to_json());
    }

    #[test]
    fn arrival_order_cannot_change_the_report() {
        let batches = [
            batch("a", 1, 0, 1),
            batch("a", 2, 0, 4),
            batch("b", 3, 0, 2),
        ];
        let mut fwd = AggregationStore::new();
        let mut rev = AggregationStore::new();
        for b in &batches {
            fwd.ingest(b);
        }
        for b in batches.iter().rev() {
            rev.ingest(b);
        }
        assert_eq!(fwd.report(10).to_json(), rev.report(10).to_json());
    }

    #[test]
    fn snapshot_round_trips_the_full_state() {
        let mut store = AggregationStore::new();
        store.ingest(&batch("a", 1, 0, 2));
        store.ingest(&batch("b", 2, 0, 1));
        let snap = store.snapshot();
        assert_eq!(snap.schema, SNAPSHOT_SCHEMA);
        let back = AggregationStore::from_snapshot(&snap);
        assert_eq!(back.report(10).to_json(), store.report(10).to_json());
        assert_eq!(back.stats(), store.stats());
        // Canonical: snapshotting the restored store is byte-identical.
        assert_eq!(
            serde_json::to_string(&back.snapshot()).unwrap(),
            serde_json::to_string(&snap).unwrap()
        );
        // Idempotency state survives: re-ingesting a snapshotted batch
        // is a duplicate.
        let mut back = back;
        assert!(back.ingest(&batch("a", 1, 0, 2)).duplicate);
    }

    #[test]
    fn absorbing_partitions_equals_single_node_ingest() {
        let batches = [
            batch("a", 1, 0, 1),
            batch("a", 2, 0, 4),
            batch("b", 3, 0, 2),
            batch("b", 4, 0, 3),
            // A later upload from ("a", 1) that lands in the other
            // partition, as after a restart with a different shard count.
            batch("a", 1, 1, 6),
        ];
        // Single node ingests everything.
        let mut single = AggregationStore::new();
        for b in &batches {
            single.ingest(b);
        }
        // Two partitions split by device + seq parity, folded either
        // order.
        let mut left = AggregationStore::new();
        let mut right = AggregationStore::new();
        for b in &batches {
            if (u64::from(b.device) + b.seq) % 2 == 0 {
                left.ingest(b);
            } else {
                right.ingest(b);
            }
        }
        assert!(left.devices["a"].contains(&1));
        assert!(right.devices["a"].contains(&1));
        let mut fold_lr = AggregationStore::new();
        fold_lr.absorb(&left.snapshot());
        fold_lr.absorb(&right.snapshot());
        let mut fold_rl = AggregationStore::new();
        fold_rl.absorb(&right.snapshot());
        fold_rl.absorb(&left.snapshot());
        let want = single.report(10).to_json();
        assert_eq!(fold_lr.report(10).to_json(), want);
        assert_eq!(fold_rl.report(10).to_json(), want);
        // The in-place fold, in either order.
        let fold_report = |parts: &[&AggregationStore]| AggregationStore::fold_report(parts, 10);
        assert_eq!(fold_report(&[&left, &right]).to_json(), want);
        assert_eq!(fold_report(&[&right, &left]).to_json(), want);
        // Idempotent: absorbing a partition twice changes nothing.
        fold_lr.absorb(&left.snapshot());
        assert_eq!(fold_lr.report(10).to_json(), want);
    }
}
