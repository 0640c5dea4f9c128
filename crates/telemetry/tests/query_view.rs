//! The server's `Query` keeps each app's Hang Bug Report rows between
//! queries and re-joins only the apps written since the last one. These
//! tests check that view against a fresh fold over a live server, with
//! uploads whose content changes on every `seq`, so a view that missed a
//! change would answer with stale rows:
//!
//! * each device's executions and hangs grow round by round, and a new
//!   root cause appears halfway;
//! * some batches carry no items (the device counts, no report does);
//! * one device reports under two apps in one batch, the second item's
//!   app differing from the batch's (and so from its shard key).
//!
//! After every ACK the served answer must equal
//! [`AggregationStore::report`] over an in-process store fed the same
//! batches, asked twice, the second time answered from the server's
//! kept frame; so must the answers after each batch is re-sent under a
//! new `seq` (applied, but changing nothing), after a kill-and-restart
//! over the WAL, and after a restart from compaction snapshots with more
//! shards, which leaves one device's pairs in two partitions.

use std::path::PathBuf;

use hangdoctor::{HangBugReport, RootCause, RootKind};
use hd_simrt::ActionUid;
use hd_telemetry::{
    shard_for, AggregationStore, TelemetryItem, TelemetryServer, UploadBatch, Uploader,
};

const APPS: [&str; 3] = ["k9mail", "omni-notes", "antennapod"];

fn root(symbol: &str, line: u32) -> RootCause {
    RootCause {
        symbol: symbol.to_string(),
        file: "Main.java".to_string(),
        line,
        occurrence_factor: 1.0,
        kind: RootKind::BlockingApi,
    }
}

/// Device `device`'s cumulative report for `app` after `round` rounds.
fn report(app: &str, device: u32, round: u64) -> HangBugReport {
    let mut r = HangBugReport::new(app);
    for _ in 0..3 * (round + 1) {
        r.note_execution(device, ActionUid(1), "onOpen");
    }
    for _ in 0..=round {
        r.record_bug(
            device,
            ActionUid(1),
            &root("java.io.File.read", 31),
            150_000_000,
        );
    }
    if round >= 2 {
        for _ in 0..round {
            r.note_execution(device, ActionUid(2), "onScroll");
        }
        r.record_bug(
            device,
            ActionUid(2),
            &root("org.k9.MessageView.render", 88),
            90_000_000 + u64::from(device),
        );
    }
    r
}

fn batch(app: &str, device: u32, seq: u64, items: Vec<HangBugReport>) -> UploadBatch {
    UploadBatch {
        app: app.to_string(),
        device,
        seq,
        items: items.into_iter().map(TelemetryItem::Report).collect(),
    }
}

/// Round `round`'s uploads.
fn round(round: u64) -> Vec<UploadBatch> {
    let mut out: Vec<UploadBatch> = (1..=4u32)
        .map(|device| {
            let app = APPS[device as usize % 2];
            batch(app, device, round, vec![report(app, device, round)])
        })
        .collect();
    // Device 7 reports under two apps in one batch, which routes by its
    // first app only.
    out.push(batch(
        APPS[0],
        7,
        round,
        vec![report(APPS[0], 7, round), report(APPS[2], 7, round)],
    ));
    // A device that contributes but carries nothing.
    out.push(batch(APPS[2], 10 + round as u32, round, Vec::new()));
    out
}

fn temp_wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hd-query-view-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(shards: usize, wal_dir: &str) -> TelemetryServer {
    TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(shards)
        .wal_dir(wal_dir)
        .start()
        .expect("server starts")
}

/// Uploads `batches` one at a time on one connection and, after each
/// ACK, queries twice on a second connection: each answer must equal a
/// fresh fold of `expected` fed the same batches. Then the batch goes
/// again under a new `seq`, and so do the two queries.
fn upload_and_check(
    server: &TelemetryServer,
    batches: &[UploadBatch],
    expected: &mut AggregationStore,
) {
    let mut uploads = Uploader::plain(server.local_addr());
    let mut queries = Uploader::plain(server.local_addr());
    for (i, b) in batches.iter().enumerate() {
        let resent = UploadBatch {
            seq: b.seq + 1000,
            ..b.clone()
        };
        let top_n = if i % 2 == 0 { 50 } else { 3 };
        for b in [b, &resent] {
            assert!(!uploads.upload(b).expect("upload ACKed").duplicate);
            expected.ingest(b);
            for _ in 0..2 {
                assert_eq!(
                    queries.query(top_n).expect("query answered").to_json(),
                    expected.report(top_n).to_json(),
                    "after batch {i} ({} from device {}, seq {})",
                    b.app,
                    b.device,
                    b.seq
                );
            }
        }
    }
}

fn query(server: &TelemetryServer) -> String {
    Uploader::plain(server.local_addr())
        .query(50)
        .expect("query answered")
        .to_json()
}

#[test]
fn served_query_equals_a_fresh_fold_through_writes_and_restarts() {
    let dir = temp_wal_dir("restarts");
    let wal_dir = dir.to_string_lossy().to_string();
    let mut expected = AggregationStore::new();

    let server = start(4, &wal_dir);
    assert_eq!(query(&server), expected.report(50).to_json());
    let batches: Vec<UploadBatch> = (0..4).flat_map(round).collect();
    upload_and_check(&server, &batches, &mut expected);
    let want = expected.report(50).to_json();
    server.kill();

    // The first query after recovery is a full fold: here of the
    // replayed logs, then of the compaction snapshots.
    let revived = start(4, &wal_dir);
    assert_eq!(query(&revived), want);
    revived.compact().expect("compaction");
    revived.kill();

    // More shards: a device whose pair now routes to another partition
    // leaves it in two, and must still count once.
    let wider = start(8, &wal_dir);
    assert_eq!(query(&wider), want);
    let moved = (1..=4u32)
        .find(|&d| {
            let app = APPS[d as usize % 2];
            shard_for(app, d, 4) != shard_for(app, d, 8)
        })
        .expect("some device changes partition");
    let app = APPS[moved as usize % 2];
    let later = [
        batch(app, moved, 4, vec![report(app, moved, 4)]),
        batch(APPS[2], moved, 4, Vec::new()),
    ];
    upload_and_check(&wider, &later, &mut expected);
    let mut pairs: Vec<(&str, u32)> = batches
        .iter()
        .chain(&later)
        .map(|b| (b.app.as_str(), b.device))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut client = Uploader::plain(wider.local_addr());
    assert_eq!(
        client.query(50).expect("query answered").devices,
        pairs.len()
    );
    client.shutdown().expect("shutdown");
    wider.join();
    let _ = std::fs::remove_dir_all(&dir);
}
