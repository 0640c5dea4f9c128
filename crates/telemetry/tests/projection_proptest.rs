//! Property tests of the query projection: for any split of the same
//! uploads over 1 to 4 store partitions, ranking root causes straight
//! from the partitions equals merging the partitions first, and the
//! merge gives the same bytes in any rotation of the partitions. And a
//! [`ReportView`] kept across any sequence of ingests, re-sends, absorbs
//! and queries answers every query as a fresh fold of the partitions
//! does, and as the previous query did whenever its update re-joined
//! nothing. And the merge itself is a semilattice join, byte for byte,
//! that says exactly when it changed a report.
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

/// One step of a view sequence: the operation (ingest, absorb,
/// re-send or query), the upload it may apply, the batch layout, the
/// partition a sibling absorb reads from (and the earlier upload a
/// re-send repeats), and the query's N.
type Step = (usize, Upload, usize, usize, usize);

fn arb_step() -> impl Strategy<Value = Step> {
    (0usize..9, arb_upload(), 0usize..3, 0usize..24, 1usize..8)
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
        // Every ingested batch with its partition, and the last answer.
        let mut sent: Vec<(usize, UploadBatch)> = Vec::new();
        let mut kept: Option<(usize, String)> = None;
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
                    sent.push((part, batch));
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
                // An earlier upload again under a new seq: applied, not
                // absorbed, and it changes nothing.
                7 if !sent.is_empty() => {
                    let (part, earlier) = &sent[from % sent.len()];
                    let resent = UploadBatch {
                        seq: seq as u64,
                        ..earlier.clone()
                    };
                    prop_assert!(!stores[*part].ingest(&resent).duplicate);
                }
                _ => {}
            }
            if *op == 8 || seq == last {
                let mut parts: Vec<&mut AggregationStore> = stores.iter_mut().collect();
                let rejoined = view.update(&mut parts);
                let parts: Vec<&AggregationStore> = stores.iter().collect();
                let want = AggregationStore::fold_report(&parts, *top_n).to_json();
                prop_assert_eq!(view.report(*top_n).to_json(), want.clone());
                // The server answers with its kept frame when nothing
                // was re-joined and the query asks the same.
                if let Some((n, answer)) = &kept {
                    if !rejoined && n == top_n {
                        prop_assert_eq!(answer, &want);
                    }
                }
                kept = Some((*top_n, want));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn merge_is_a_join_and_says_exactly_when_it_changed(
        uploads in proptest::collection::vec(arb_upload(), 3..8),
    ) {
        let json = |r: &HangBugReport| serde_json::to_string(r).unwrap();
        let merged = |x: &HangBugReport, y: &HangBugReport| {
            let mut m = x.clone();
            m.merge(y);
            m
        };
        // One app's reports, so every operand joins the same report.
        let reports: Vec<HangBugReport> = uploads
            .iter()
            .map(|(part, _, device, runs, bugs)| report(&(*part, 0, *device, runs.clone(), bugs.clone())))
            .collect();
        // Idempotent: a report adds nothing to itself.
        for r in &reports {
            let mut again = r.clone();
            prop_assert!(!again.merge(&r.clone()));
            prop_assert_eq!(json(&again), json(r));
        }
        // Commutative and associative in serialized bytes.
        let (a, b, c) = (&reports[0], &reports[1], &reports[2]);
        prop_assert_eq!(json(&merged(a, b)), json(&merged(b, a)));
        prop_assert_eq!(json(&merged(&merged(a, b), c)), json(&merged(a, &merged(b, c))));
        // Exact: true when the bytes changed and only then, for every
        // ordered pair and along a fold that meets every report twice.
        for x in &reports {
            for y in &reports {
                let mut m = x.clone();
                let changed = m.merge(y);
                prop_assert_eq!(changed, json(&m) != json(x));
            }
        }
        let mut acc = HangBugReport::new(APPS[0]);
        for r in reports.iter().chain(&reports) {
            let before = json(&acc);
            let changed = acc.merge(r);
            prop_assert_eq!(changed, json(&acc) != before);
        }
    }
}
