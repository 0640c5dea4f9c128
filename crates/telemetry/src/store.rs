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

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::iter::Peekable;

use hangdoctor::HangBugReport;
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
    devices: BTreeSet<(String, u32)>,
    seen: HashSet<u64>,
    stats: IngestStats,
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
        self.devices.insert((batch.app.clone(), batch.device));
        for item in &batch.items {
            let report = item.report();
            self.apps
                .entry(report.app.clone())
                .or_insert_with(|| HangBugReport::new(&report.app))
                .merge(report);
            self.stats.reports_ingested += 1;
        }
        self.stats.batches_applied += 1;
        IngestOutcome {
            fingerprint,
            duplicate: false,
        }
    }

    /// Number of distinct `(app, device)` pairs that have contributed.
    pub fn device_count(&self) -> usize {
        self.devices.len()
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
            devices: self.devices.iter().cloned().collect(),
            seen,
            stats: self.stats.clone(),
        }
    }

    /// Rebuilds a store from a snapshot.
    pub fn from_snapshot(snap: &StoreSnapshot) -> AggregationStore {
        AggregationStore {
            apps: snap.apps.iter().cloned().collect(),
            devices: snap.devices.iter().cloned().collect(),
            seen: snap.seen.iter().copied().collect(),
            stats: snap.stats.clone(),
        }
    }

    /// The top-N report over several partitions of one store (a node's
    /// shard stores), read in place: each app's reports across the
    /// parts are ranked through [`HangBugReport::joined_entries`], and
    /// distinct `(app, device)` pairs are counted by walking the parts'
    /// sorted sets together. Nothing is merged or copied, fingerprint
    /// sets and counters are not read, and the answer is byte-identical
    /// to [`absorb`]-folding the partitions' snapshots, then reporting.
    ///
    /// [`absorb`]: AggregationStore::absorb
    pub fn fold_report(parts: &[&AggregationStore], top_n: usize) -> TelemetryReport {
        let mut per_app = Vec::new();
        walk_union(parts.iter().map(|p| p.apps.iter()), |app, reports| {
            per_app.push((app.as_str(), HangBugReport::joined_entries(reports)));
        });
        // A lone set is its own union; walking its thousand-odd pairs
        // would double the cost of a single store's report.
        let devices = match parts {
            [one] => one.devices.len(),
            _ => {
                let mut devices = 0;
                let sets = parts
                    .iter()
                    .map(|p| p.devices.iter().map(|pair| (pair, ())));
                walk_union(sets, |_, _| devices += 1);
                devices
            }
        };
        TelemetryReport::rank(per_app, devices, top_n)
    }

    /// CRDT merge: folds another store's state (typically a different
    /// shard's or node's partition) into this one. Associative,
    /// commutative, and idempotent over semilattice elements, so a
    /// coordinator folding N partitions in any order reproduces the
    /// single-node store exactly.
    pub fn absorb(&mut self, snap: &StoreSnapshot) {
        for (app, report) in &snap.apps {
            self.apps
                .entry(app.clone())
                .or_insert_with(|| HangBugReport::new(app))
                .merge(report);
        }
        self.devices.extend(snap.devices.iter().cloned());
        self.seen.extend(snap.seen.iter().copied());
        self.stats.merge(&snap.stats);
    }
}

/// Walks the union of key-sorted sequences with no key twice in one
/// sequence, handing `visit` each distinct key, in order, with the
/// values every sequence holding it pairs it with.
fn walk_union<'a, K: Ord + 'a, V, I: Iterator<Item = (&'a K, V)>>(
    seqs: impl Iterator<Item = I>,
    mut visit: impl FnMut(&'a K, &[V]),
) {
    let mut seqs: Vec<Peekable<I>> = seqs.map(Iterator::peekable).collect();
    let mut group = Vec::with_capacity(seqs.len());
    while let Some(key) = seqs.iter_mut().filter_map(|s| s.peek().map(|e| e.0)).min() {
        group.clear();
        group.extend(
            seqs.iter_mut()
                .filter_map(|s| s.next_if(|e| e.0 == key).map(|e| e.1)),
        );
        visit(key, &group);
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
        assert!(left.devices.contains(&("a".to_string(), 1)));
        assert!(right.devices.contains(&("a".to_string(), 1)));
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
