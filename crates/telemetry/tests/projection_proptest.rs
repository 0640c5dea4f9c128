//! Property tests of the query projection: for any split of the same
//! uploads over 1 to 4 store partitions, ranking root causes straight
//! from the partitions equals merging the partitions first, and the
//! merge gives the same bytes in any rotation of the partitions. And a
//! [`ReportView`] kept across any sequence of ingests, absorbs and
//! queries answers every query as a fresh fold of the partitions does.
//!
//! Every domain is tiny so the hard cases come up in most cases: one
//! device uploading to two partitions with reports of different sizes
//! (the restart-with-another-shard-count case), one symbol diagnosed at
//! two sites (one of them without a file), both bug kinds, one action
//! uid under conflicting names, and one symbol naming conflicting uids.

use std::collections::BTreeMap;

use proptest::prelude::*;

use hangdoctor::{HangBugReport, RootCause, RootKind};
use hd_simrt::ActionUid;
use hd_telemetry::{AggregationStore, ReportView, TelemetryItem, UploadBatch};

const APPS: [&str; 2] = ["k9mail", "omni-notes"];
const ACTIONS: [&str; 3] = ["onOpen", "onRefresh", "onScroll"];
const SYMBOLS: [&str; 3] = [
    "java.io.File.read",
    "android.database.sqlite.SQLiteDatabase.query",
    "org.k9.MessageView.render",
];
const FILES: [&str; 3] = ["", "Open.java", "View.java"];

/// One diagnosed hang: symbol, file, line, self-developed, uid, ms.
type Bug = (usize, usize, u32, bool, u64, u64);
/// One upload: partition, app, device, executions `(uid, name)`, bugs.
type Upload = (usize, usize, u32, Vec<(u64, usize)>, Vec<Bug>);

fn arb_upload() -> impl Strategy<Value = Upload> {
    (
        0usize..4,
        0usize..2,
        1u32..4,
        proptest::collection::vec((0u64..3, 0usize..3), 0..6),
        proptest::collection::vec(
            (
                0usize..3,
                0usize..3,
                1u32..4,
                any::<bool>(),
                0u64..3,
                1u64..400,
            ),
            0..4,
        ),
    )
}

/// One step of a view sequence: the operation (ingest, absorb or
/// query), the upload it may apply, the batch layout, the partition a
/// sibling absorb reads from, and the query's N.
type Step = (usize, Upload, usize, usize, usize);

fn arb_step() -> impl Strategy<Value = Step> {
    (0usize..8, arb_upload(), 0usize..3, 0usize..4, 1usize..8)
}

fn report(&(_, app, device, ref runs, ref bugs): &Upload) -> HangBugReport {
    let mut r = HangBugReport::new(APPS[app]);
    for &(uid, name) in runs {
        r.note_execution(device, ActionUid(uid), ACTIONS[name]);
    }
    for &(symbol, file, line, self_developed, uid, ms) in bugs {
        let root = RootCause {
            symbol: SYMBOLS[symbol].to_string(),
            file: FILES[file].to_string(),
            line,
            occurrence_factor: 1.0,
            kind: if self_developed {
                RootKind::SelfDeveloped
            } else {
                RootKind::BlockingApi
            },
        };
        r.record_bug(device, ActionUid(uid), &root, ms * 1_000_000);
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ranking_from_partitions_equals_ranking_their_merge(
        uploads in proptest::collection::vec(arb_upload(), 1..12),
        n_parts in 1usize..5,
        top_n in 1usize..8,
    ) {
        let mut stores: Vec<AggregationStore> =
            (0..n_parts).map(|_| AggregationStore::new()).collect();
        // Each partition's per-app report, merged as its store merges it.
        let mut merged: Vec<BTreeMap<&str, HangBugReport>> = vec![BTreeMap::new(); n_parts];
        for (seq, upload) in uploads.iter().enumerate() {
            let (part, app) = (upload.0 % n_parts, APPS[upload.1]);
            let r = report(upload);
            merged[part]
                .entry(app)
                .or_insert_with(|| HangBugReport::new(app))
                .merge(&r);
            stores[part].ingest(&UploadBatch {
                app: app.to_string(),
                device: upload.2,
                seq: seq as u64,
                items: vec![TelemetryItem::Report(r)],
            });
        }

        for app in APPS {
            let mut parts: Vec<&HangBugReport> =
                merged.iter().filter_map(|m| m.get(app)).collect();
            let fold = |parts: &[&HangBugReport]| {
                let mut merged = HangBugReport::new(app);
                for part in parts {
                    merged.merge(part);
                }
                merged
            };
            let want = fold(&parts);
            let (want_rows, want_json) = (want.entries(), serde_json::to_string(&want).unwrap());
            for _ in 0..parts.len() {
                prop_assert_eq!(HangBugReport::joined_entries(&parts), want_rows.clone());
                // The merge itself is order-independent, byte for byte.
                prop_assert_eq!(serde_json::to_string(&fold(&parts)).unwrap(), want_json.clone());
                parts.rotate_left(1);
            }
        }

        let mut absorbed = AggregationStore::new();
        for store in &stores {
            absorbed.absorb(&store.snapshot());
        }
        let want = absorbed.report(top_n).to_json();
        let mut parts: Vec<&AggregationStore> = stores.iter().collect();
        for _ in 0..n_parts {
            prop_assert_eq!(AggregationStore::fold_report(&parts, top_n).to_json(), want.clone());
            parts.rotate_left(1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_report_view_answers_as_a_fresh_fold(
        steps in proptest::collection::vec(arb_step(), 1..24),
        n_parts in 1usize..5,
    ) {
        let mut stores: Vec<AggregationStore> =
            (0..n_parts).map(|_| AggregationStore::new()).collect();
        let mut view = ReportView::new();
        let last = steps.len() - 1;
        for (seq, (op, upload, layout, from, top_n)) in steps.iter().enumerate() {
            let part = upload.0 % n_parts;
            // Layouts: the report under its own app; under the other
            // app's batch; a batch with no items.
            let app = APPS[(upload.1 + usize::from(*layout == 1)) % 2];
            let items = match layout {
                2 => Vec::new(),
                _ => vec![TelemetryItem::Report(report(upload))],
            };
            let batch = UploadBatch {
                app: app.to_string(),
                device: upload.2,
                seq: seq as u64,
                items,
            };
            match op {
                0..=4 => {
                    stores[part].ingest(&batch);
                }
                // A rejoining node's state, new to every partition.
                5 => {
                    let mut other = AggregationStore::new();
                    other.ingest(&batch);
                    stores[part].absorb(&other.snapshot());
                }
                6 => {
                    let snap = stores[from % n_parts].snapshot();
                    stores[part].absorb(&snap);
                }
                _ => {}
            }
            if *op == 7 || seq == last {
                let mut parts: Vec<&mut AggregationStore> = stores.iter_mut().collect();
                view.update(&mut parts);
                let parts: Vec<&AggregationStore> = stores.iter().collect();
                prop_assert_eq!(
                    view.report(*top_n).to_json(),
                    AggregationStore::fold_report(&parts, *top_n).to_json()
                );
            }
        }
    }
}
