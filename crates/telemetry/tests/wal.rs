//! Durability edge cases pinned as regressions: torn tails drop
//! cleanly, CRC corruption and records nested past the JSON reader's
//! cap are typed errors (never a panic or an abort), compaction
//! preserves replay byte-for-byte, even while uploads land, and a
//! killed-and-restarted server recovers the identical aggregate over the
//! real TCP path, also after a byte-different re-send of a batch.

use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;

use hangdoctor::{HangBugReport, RootCause, RootKind};
use hd_simrt::ActionUid;
use hd_telemetry::wal::{
    crc32, recover_shard, scan_wal, snapshot_path, wal_path, write_snapshot, Wal,
};
use hd_telemetry::{
    batch_fingerprint, encode_frame, fnv1a, read_frame, shard_for, write_frame, AggregationStore,
    PipelinedUploader, Request, Response, TelemetryError, TelemetryItem, TelemetryServer,
    UploadBatch, Uploader, MAGIC, SCHEMA, WAL_MAGIC,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hd-wal-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch(app: &str, device: u32, seq: u64, hangs: u64) -> UploadBatch {
    let mut report = HangBugReport::new(app);
    let uid = ActionUid(1);
    for _ in 0..12 {
        report.note_execution(device, uid, "onOpen");
    }
    let root = RootCause {
        symbol: "java.io.File.read".to_string(),
        file: "Open.java".to_string(),
        line: 31,
        occurrence_factor: 1.0,
        kind: RootKind::BlockingApi,
    };
    for _ in 0..hangs {
        report.record_bug(device, uid, &root, 150_000_000);
    }
    UploadBatch {
        app: app.to_string(),
        device,
        seq,
        items: vec![TelemetryItem::Report(report)],
    }
}

fn corpus() -> Vec<UploadBatch> {
    vec![
        batch("k9mail", 1, 0, 2),
        batch("k9mail", 1, 1, 3),
        batch("k9mail", 2, 0, 1),
        batch("omni-notes", 3, 0, 4),
        batch("omni-notes", 4, 0, 0),
    ]
}

fn append_corpus(wal: &mut Wal, batches: &[UploadBatch]) {
    for b in batches {
        wal.append(batch_fingerprint(b), b).unwrap();
    }
}

#[test]
fn torn_tail_is_dropped_cleanly_and_the_log_stays_appendable() {
    let dir = scratch("torn");
    let batches = corpus();
    let path = wal_path(&dir, 0);
    {
        let (mut wal, _) = Wal::open(&path, 0, 0).unwrap();
        append_corpus(&mut wal, &batches);
    }
    // Tear the last record mid-payload, as a crash mid-append would.
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - 7]).unwrap();

    let (mut wal, replay) = Wal::open(&path, 0, 0).unwrap();
    assert!(replay.torn_tail_dropped, "the torn record must be noticed");
    assert_eq!(
        replay.batches.len(),
        batches.len() - 1,
        "every complete record survives; only the torn one is dropped"
    );
    // The file was truncated back to its clean prefix, so appending
    // resumes a valid log: reopening sees all records again.
    wal.append(batch_fingerprint(&batches[4]), &batches[4])
        .unwrap();
    drop(wal);
    let (_, replay) = Wal::open(&path, 0, 0).unwrap();
    assert!(!replay.torn_tail_dropped);
    assert_eq!(replay.batches.len(), batches.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crc_corruption_is_a_typed_error_not_a_panic() {
    let dir = scratch("crc");
    let batches = corpus();
    let path = wal_path(&dir, 0);
    {
        let (mut wal, _) = Wal::open(&path, 0, 0).unwrap();
        append_corpus(&mut wal, &batches);
    }
    // Flip one payload byte in the middle of the file: in-region
    // corruption, not a torn tail.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    match Wal::open(&path, 0, 0) {
        Err(TelemetryError::WalCorrupt { offset, reason }) => {
            assert!(offset < bytes.len() as u64);
            assert!(
                reason.contains("CRC") || reason.contains("JSON") || reason.contains("magic"),
                "unhelpful corruption reason: {reason}"
            );
        }
        other => panic!("expected WalCorrupt, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_record_nested_past_the_reader_cap_is_corrupt_not_an_abort() {
    let dir = scratch("deep");
    let path = wal_path(&dir, 0);
    {
        let (mut wal, _) = Wal::open(&path, 0, 0).unwrap();
        append_corpus(&mut wal, &corpus());
    }
    // A CRC-valid batch record whose batch holds an unknown key nested
    // 20,000 levels deep: the reader must descend to skip it.
    let deep = "[".repeat(20_000) + &"]".repeat(20_000);
    let payload = format!(
        r#"{{"Batch":{{"fingerprint":1,"batch":{{"app":"a","device":1,"seq":0,"items":[],"x":{deep}}}}}}}"#
    );
    let mut bytes = std::fs::read(&path).unwrap();
    let offset = bytes.len() as u64;
    bytes.extend_from_slice(&WAL_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&crc32(payload.as_bytes()).to_be_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    std::fs::write(&path, &bytes).unwrap();

    for scanned in [
        scan_wal(&bytes).map(|_| ()),
        Wal::open(&path, 0, 0).map(|_| ()),
    ] {
        match scanned {
            Err(TelemetryError::WalCorrupt { offset: at, reason }) => {
                assert_eq!(at, offset);
                assert!(reason.contains("nesting"), "{reason}");
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch re-sent with one extra space inside a canonical envelope
/// fingerprints differently from its canonical bytes, so the server
/// applies it again instead of absorbing it. That changes no byte of
/// the aggregate (the merge is idempotent), the WAL logs the bytes as
/// they arrived, and replay after a kill folds to the same report.
#[test]
fn a_byte_different_resend_is_applied_again_and_replays_the_same() {
    let dir = scratch("resend");
    let wal_dir = dir.to_string_lossy().to_string();
    let start = || {
        TelemetryServer::builder()
            .addr("127.0.0.1:0")
            .shards(2)
            .wal_dir(wal_dir.clone())
            .start()
            .unwrap()
    };
    let batch = batch("k9mail", 1, 0, 2);
    let canonical = serde_json::to_string(&batch).unwrap();
    let spaced = canonical.replacen("\"seq\":", "\"seq\": ", 1);
    assert_ne!(spaced, canonical);
    let payload = format!(r#"{{"schema":"{SCHEMA}","body":{{"Upload":{spaced}}}}}"#);
    let mut spaced_frame = MAGIC.to_vec();
    spaced_frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    spaced_frame.extend_from_slice(payload.as_bytes());

    let server = start();
    let mut peer = TcpStream::connect(server.local_addr()).unwrap();
    let mut send = |frame: &[u8]| {
        write_frame(&mut peer, frame).unwrap();
        read_frame::<Response>(&mut peer).unwrap()
    };
    let query = |addr| Uploader::plain(addr).query(10).unwrap().to_json();
    let acked = |response: Response| match response {
        Response::Ack {
            fingerprint,
            duplicate,
        } => (fingerprint, duplicate),
        other => panic!("expected an ACK, got {other:?}"),
    };
    let first = acked(send(&encode_frame(&Request::Upload(batch.clone()))));
    assert_eq!(first, (batch_fingerprint(&batch), false));
    let report = query(server.local_addr());
    // Same batch, other bytes: a second fingerprint, applied again.
    let second = acked(send(&spaced_frame));
    assert_eq!(second, (fnv1a(spaced.as_bytes()), false));
    assert_ne!(second.0, first.0);
    // The same bytes again are a duplicate.
    assert_eq!(acked(send(&spaced_frame)), (second.0, true));
    assert_eq!(query(server.local_addr()), report, "the aggregate moved");
    drop(peer);
    server.kill();

    let log = std::fs::read(wal_path(&dir, shard_for("k9mail", 1, 2))).unwrap();
    let logged = scan_wal(&log).unwrap().batches;
    assert_eq!(logged.len(), 2, "both fingerprints are logged, once each");
    assert!(
        log.windows(spaced.len()).any(|w| w == spaced.as_bytes()),
        "the WAL logs the batch's bytes as they arrived"
    );
    let revived = start();
    assert_eq!(revived.stats().batches_recovered, 2);
    assert_eq!(query(revived.local_addr()), report);
    revived.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The compaction invariant: a snapshot covering a prefix of the log
/// plus the remaining WAL records recovers the same store — including
/// ingest counters and the fingerprint set — as replaying the whole
/// log, byte-for-byte.
#[test]
fn snapshot_plus_wal_replay_equals_pure_wal_replay_byte_for_byte() {
    let batches = corpus();
    let split = 3;

    // Pure-WAL shard: every batch logged, never compacted.
    let pure_dir = scratch("pure");
    {
        let (mut wal, _) = Wal::open(&wal_path(&pure_dir, 0), 0, 0).unwrap();
        append_corpus(&mut wal, &batches);
    }

    // Compacted shard: snapshot after `split` batches, WAL holds the
    // rest — exactly what `TelemetryServer::compact` leaves behind.
    let snap_dir = scratch("snap");
    {
        let mut store = AggregationStore::new();
        for b in &batches[..split] {
            store.ingest(b);
        }
        write_snapshot(&snapshot_path(&snap_dir, 0), &store.snapshot()).unwrap();
        let (mut wal, _) = Wal::open(&wal_path(&snap_dir, 0), 0, 0).unwrap();
        append_corpus(&mut wal, &batches[split..]);
    }

    let (pure, _, pure_replayed) = recover_shard(&pure_dir, 0, 0).unwrap();
    let (compacted, _, compacted_replayed) = recover_shard(&snap_dir, 0, 0).unwrap();
    assert_eq!(pure_replayed, batches.len() as u64);
    assert_eq!(compacted_replayed, (batches.len() - split) as u64);
    let pure_bytes = serde_json::to_string(&pure.snapshot()).unwrap();
    let compacted_bytes = serde_json::to_string(&compacted.snapshot()).unwrap();
    assert_eq!(
        pure_bytes, compacted_bytes,
        "compaction must be invisible to recovery"
    );

    // A record racing the truncation (still in the WAL although the
    // snapshot covers it) is absorbed by the snapshot's fingerprint
    // set: the aggregate is unchanged, the race shows up only as an
    // absorbed duplicate.
    let race_dir = scratch("race");
    {
        let mut store = AggregationStore::new();
        for b in &batches[..split] {
            store.ingest(b);
        }
        write_snapshot(&snapshot_path(&race_dir, 0), &store.snapshot()).unwrap();
        let (mut wal, _) = Wal::open(&wal_path(&race_dir, 0), 0, 0).unwrap();
        wal.append(batch_fingerprint(&batches[split - 1]), &batches[split - 1])
            .unwrap();
        append_corpus(&mut wal, &batches[split..]);
    }
    let (raced, _, _) = recover_shard(&race_dir, 0, 0).unwrap();
    assert_eq!(raced.report(10).to_json(), pure.report(10).to_json());
    assert_eq!(raced.stats().duplicates_absorbed, 1);

    for dir in [pure_dir, snap_dir, race_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill-and-restart over the real TCP path: a server killed without any
/// flush comes back from its WAL with the identical aggregate — with
/// and without a compaction in between.
#[test]
fn killed_server_replays_its_wal_to_the_identical_aggregate() {
    let dir = scratch("restart");
    let batches = corpus();
    let wal_dir = dir.to_string_lossy().to_string();

    let server = TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .wal_dir(wal_dir.clone())
        .start()
        .unwrap();
    let mut client = Uploader::plain(server.local_addr());
    for b in &batches {
        client.upload(b).unwrap();
    }
    let before = client.query(10).unwrap().to_json();
    drop(client);
    server.kill(); // abrupt: no flush, no snapshot, state dropped

    let revived = TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .wal_dir(wal_dir.clone())
        .start()
        .unwrap();
    assert_eq!(
        revived.stats().batches_recovered,
        batches.len() as u64,
        "every ACKed batch must replay"
    );
    let mut client = Uploader::plain(revived.local_addr());
    assert_eq!(client.query(10).unwrap().to_json(), before);

    // Compact (snapshot + truncate), kill again: recovery now folds the
    // snapshot plus an empty log, to the same bytes.
    revived.compact().unwrap();
    drop(client);
    revived.kill();

    let again = TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .wal_dir(wal_dir)
        .start()
        .unwrap();
    assert_eq!(
        again.stats().batches_recovered,
        0,
        "a compacted log has nothing left to replay"
    );
    let mut client = Uploader::plain(again.local_addr());
    assert_eq!(client.query(10).unwrap().to_json(), before);
    client.shutdown().unwrap();
    again.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction while both io workers append to both shards: every batch
/// ACKed before the kill comes back after the restart, whether its
/// record went into a snapshot or into the log after a reset.
/// Compaction holds a shard's lock from the snapshot through the log
/// reset, so no append can fall between them. Each batch is the only
/// one from its device, so a lost batch shows in the report's device
/// count.
#[test]
fn compaction_under_concurrent_ingest_loses_no_acked_batch() {
    const CONNECTIONS: u32 = 2;
    const BATCHES: u32 = 1000;
    const WINDOW: usize = 16;
    let dir = scratch("concurrent");
    let wal_dir = dir.to_string_lossy().to_string();
    let start = || {
        TelemetryServer::builder()
            .addr("127.0.0.1:0")
            .shards(2)
            .io_workers(2)
            .wal_dir(wal_dir.clone())
            .start()
            .unwrap()
    };
    let batches: Vec<Vec<UploadBatch>> = (0..CONNECTIONS)
        .map(|c| {
            (0..BATCHES)
                .map(|i| batch("k9mail", c * BATCHES + i + 1, 0, 1 + u64::from(i % 3)))
                .collect()
        })
        .collect();

    let server = start();
    let addr = server.local_addr();
    let mut compactions = 0u32;
    thread::scope(|scope| {
        // Two connections, which the acceptor hands to the two io
        // workers in turn.
        let uploaders: Vec<_> = batches
            .iter()
            .map(|mine| {
                scope.spawn(move || {
                    let mut up = PipelinedUploader::connect(addr).unwrap();
                    for b in mine {
                        up.send(b).unwrap();
                        if up.inflight() == WINDOW {
                            assert!(!up.recv().unwrap().duplicate);
                        }
                    }
                    while up.inflight() > 0 {
                        assert!(!up.recv().unwrap().duplicate);
                    }
                })
            })
            .collect();
        loop {
            server.compact().unwrap();
            compactions += 1;
            if uploaders.iter().all(|h| h.is_finished()) {
                break;
            }
        }
        for h in uploaders {
            h.join().unwrap();
        }
    });
    server.kill();

    let mut expected = AggregationStore::new();
    for b in batches.iter().flatten() {
        expected.ingest(b);
    }
    let revived = start();
    let mut client = Uploader::plain(revived.local_addr());
    let served = client.query(10).unwrap();
    assert_eq!(
        served.devices,
        (CONNECTIONS * BATCHES) as usize,
        "ACKed batches lost across {compactions} compactions"
    );
    assert_eq!(served.to_json(), expected.report(10).to_json());
    client.shutdown().unwrap();
    revived.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart with fewer shards would recover only the first shards'
/// files and silently drop the ACKed batches in the others, so it is
/// refused with a typed error naming them. The same shard count
/// recovers every batch to the same report.
#[test]
fn restart_with_fewer_shards_is_refused() {
    let dir = scratch("fewer");
    let wal_dir = dir.to_string_lossy().to_string();
    let start = |shards: usize| {
        TelemetryServer::builder()
            .addr("127.0.0.1:0")
            .shards(shards)
            .wal_dir(wal_dir.clone())
            .start()
    };

    let server = start(4).unwrap();
    let mut client = Uploader::plain(server.local_addr());
    for device in 1..=16 {
        client.upload(&batch("k9mail", device, 0, 1)).unwrap();
    }
    let before = client.query(10).unwrap();
    assert_eq!((before.devices, before.groups[0].hangs), (16, 16));
    drop(client);
    server.kill();

    match start(2) {
        Err(TelemetryError::Config { field, reason }) => {
            assert_eq!(field, "shards");
            for orphan in ["shard-2.wal", "shard-3.wal"] {
                assert!(reason.contains(orphan), "{orphan} unnamed in: {reason}");
            }
        }
        other => panic!(
            "expected a shards Config error, got {:?}",
            other.map(|_| ())
        ),
    }

    let again = start(4).unwrap();
    assert_eq!(again.stats().batches_recovered, 16);
    let mut client = Uploader::plain(again.local_addr());
    assert_eq!(client.query(10).unwrap().to_json(), before.to_json());
    client.shutdown().unwrap();
    again.join();
    let _ = std::fs::remove_dir_all(&dir);
}
