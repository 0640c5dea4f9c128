//! Byte identity of the JSON codec, pinned by a committed fixture
//! (`fixtures/codec.txt`): the canonical JSON of one value of every
//! shape this project ships — each wire message in both dialects, both
//! WAL record kinds, the stored and reported state, a pretty-printed
//! device snapshot — and of the scalar edge cases (integer map keys that
//! sort as strings, every string escape, floats and NaN).
//!
//! Each value must encode to its fixture text, and each fixture text must
//! decode back into a value that re-encodes to the same bytes. The
//! fixture is an independent reference: a serializer change that moves a
//! byte fails here even though the encoder and decoder still agree with
//! each other. Regenerate it with
//! `GOLDEN_REGEN=1 cargo test -p hd-telemetry --test codec`, only when an
//! encoding changes on purpose.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Mutex;

use hangdoctor::{
    ActionState, DeviceSnapshot, HangBugReport, RootCause, RootKind, SymptomThresholds,
};
use hd_control::{
    CohortHealth, ControlRequest, ControlResponse, Directives, RolloutSpec, RolloutStage,
    RolloutStatusInfo, StackDump, SyncReport,
};
use hd_simrt::ActionUid;
use hd_telemetry::wal::{crc32, encode_batch_record, encode_record, scan_wal, WalBatch};
use hd_telemetry::wire::SUPPORTED_SCHEMAS;
use hd_telemetry::{
    encode_frame_in, AggregationStore, Request, Response, StoreSnapshot, TelemetryItem,
    TelemetryReport, UploadBatch, WalHeader, WalRecord, WireVersion, MAGIC, SCHEMA, WAL_MAGIC,
    WAL_SCHEMA,
};
use serde::{Deserialize, Serialize};

const FIXTURE: &str = include_str!("fixtures/codec.txt");

/// What starts each entry's name line in the fixture.
const ENTRY: &str = "== ";

/// Serializes the tests' rewrites of the fixture under `GOLDEN_REGEN`.
static REGEN: Mutex<()> = Mutex::new(());

fn regen() -> bool {
    std::env::var_os("GOLDEN_REGEN").is_some()
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/codec.txt")
}

/// The committed fixture's entries, in file order.
fn fixture() -> Vec<(String, String)> {
    parse(FIXTURE)
}

fn parse(text: &str) -> Vec<(String, String)> {
    let mut entries: Vec<(String, Vec<&str>)> = Vec::new();
    for line in text.lines() {
        match line.strip_prefix(ENTRY) {
            Some(name) => entries.push((name.to_string(), Vec::new())),
            None => entries
                .last_mut()
                .expect("the fixture starts with an entry name")
                .1
                .push(line),
        }
    }
    entries
        .into_iter()
        .map(|(name, lines)| (name, lines.join("\n")))
        .collect()
}

/// Checks `(name, text)` pairs against the fixture entries of the same
/// names, or, under `GOLDEN_REGEN`, rewrites those entries.
fn check(entries: &[(String, String)]) {
    if regen() {
        let _guard = REGEN.lock().unwrap();
        let mut all = parse(&std::fs::read_to_string(fixture_path()).unwrap_or_default());
        for (name, text) in entries {
            match all.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 = text.clone(),
                None => all.push((name.clone(), text.clone())),
            }
        }
        let mut out = String::new();
        for (name, text) in &all {
            out.push_str(&format!("{ENTRY}{name}\n{text}\n"));
        }
        std::fs::write(fixture_path(), out).expect("fixture writes");
        return;
    }
    let pinned = fixture();
    for (name, text) in entries {
        let (_, want) = pinned
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("fixture has no entry `{name}`"));
        assert_eq!(
            text, want,
            "`{name}` no longer encodes to its fixture bytes"
        );
    }
}

/// The fixture text of entry `name`.
fn pinned(name: &str) -> String {
    fixture()
        .into_iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("fixture has no entry `{name}`"))
        .1
}

/// Encodes `value` compactly, and checks that its fixture text decodes
/// back to a value that re-encodes to the same bytes.
fn round_trip<T: Serialize + Deserialize>(name: &str, value: &T) -> (String, String) {
    let text = serde_json::to_string(value).unwrap();
    if !regen() {
        let want = pinned(name);
        let back: T = serde_json::from_str(&want)
            .unwrap_or_else(|e| panic!("`{name}` fixture text does not decode: {e}"));
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            want,
            "`{name}` re-encode"
        );
    }
    (name.to_string(), text)
}

fn report(app: &str) -> HangBugReport {
    let mut report = HangBugReport::new(app);
    for device in [7, 12] {
        for _ in 0..3 {
            report.note_execution(device, ActionUid(1), "onOpen");
        }
        report.note_execution(device, ActionUid(10), "onSync \"now\"");
    }
    let blocking = RootCause {
        symbol: "java.io.File.read".to_string(),
        file: "Open.java".to_string(),
        line: 31,
        occurrence_factor: 0.5,
        kind: RootKind::BlockingApi,
    };
    let own = RootCause {
        symbol: "com.example.Sync.pull".to_string(),
        file: "Sync.java".to_string(),
        line: 208,
        occurrence_factor: 1.0,
        kind: RootKind::SelfDeveloped,
    };
    report.record_bug(7, ActionUid(1), &blocking, 150_000_000);
    report.record_bug(12, ActionUid(1), &blocking, 210_000_000);
    report.record_bug(12, ActionUid(10), &own, 1_300_000_000);
    report
}

fn device_snapshot() -> DeviceSnapshot {
    DeviceSnapshot {
        app: "app".to_string(),
        device: 12,
        states: vec![
            (1, ActionState::HangBug, 0),
            (10, ActionState::Suspicious, 2),
            (11, ActionState::Normal, 7),
        ],
        report: report("app"),
    }
}

fn batch() -> UploadBatch {
    UploadBatch {
        app: "app".to_string(),
        device: 7,
        seq: 3,
        items: vec![
            TelemetryItem::Report(report("app")),
            TelemetryItem::Snapshot(device_snapshot()),
        ],
    }
}

fn store() -> AggregationStore {
    let mut store = AggregationStore::new();
    store.ingest(&batch());
    let mut other = batch();
    other.device = 12;
    other.items = vec![TelemetryItem::Report(report("other \\ app"))];
    store.ingest(&other);
    store
}

fn thresholds() -> SymptomThresholds {
    SymptomThresholds {
        context_switch_diff: 0.0,
        task_clock_diff: 1.7e8,
        page_fault_diff: 512.25,
    }
}

fn stack() -> StackDump {
    StackDump {
        device: 3,
        action: "open inbox".to_string(),
        uid: 1,
        frames: vec!["a.B.c(B.java:1)".to_string(), "main".to_string()],
        response_ns: 150_000_000,
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Upload(batch()),
        Request::Query { top_n: 10 },
        Request::Shutdown,
        Request::Hello {
            supported: SUPPORTED_SCHEMAS.iter().map(|s| s.to_string()).collect(),
        },
        Request::Export,
        Request::Control(ControlRequest::Sync(SyncReport {
            device: 3,
            app: "k9mail".to_string(),
            states: vec![(1, ActionState::Suspicious, 0), (2, ActionState::Normal, 7)],
            stack: Some(stack()),
            health: CohortHealth {
                uploads: 4,
                nacks: 1,
                aborts: 0,
            },
        })),
        Request::Control(ControlRequest::QueryState { device: 9 }),
        Request::Control(ControlRequest::PullStack { device: 9 }),
        Request::Control(ControlRequest::ToggleDiagnosis {
            app: "k9mail".to_string(),
            enabled: false,
        }),
        Request::Control(ControlRequest::PushThresholds(RolloutSpec {
            thresholds: thresholds(),
            baseline: SymptomThresholds::default(),
        })),
        Request::Control(ControlRequest::AdvanceRollout {
            stage: RolloutStage::Expanded,
        }),
        Request::Control(ControlRequest::RolloutStatus),
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Ack {
            fingerprint: u64::MAX,
            duplicate: true,
        },
        Response::Nack { retry_after_ms: 5 },
        Response::Report(store().report(10)),
        Response::Report(TelemetryReport::build([], 0, 3)),
        Response::Error("line\nbreak \"quoted\"".to_string()),
        Response::Bye,
        Response::Welcome {
            schema: SCHEMA.to_string(),
        },
        Response::State(store().snapshot()),
        Response::Control(ControlResponse::Directives(Directives {
            thresholds: Some(thresholds()),
            diagnosis_enabled: true,
        })),
        Response::Control(ControlResponse::Directives(Directives {
            thresholds: None,
            diagnosis_enabled: false,
        })),
        Response::Control(ControlResponse::StateTable {
            device: 3,
            states: vec![
                (1, ActionState::HangBug, 0),
                (5, ActionState::Uncategorized, 1),
            ],
        }),
        Response::Control(ControlResponse::Stack {
            device: 3,
            stack: Some(stack()),
        }),
        Response::Control(ControlResponse::Stack {
            device: 4,
            stack: None,
        }),
        Response::Control(ControlResponse::Ok),
        Response::Control(ControlResponse::Rollout(RolloutStatusInfo {
            stage: "canary".to_string(),
            rolled_back: false,
            cohort_devices: 2,
            cohort_bad: 0,
            rest_devices: 98,
            rest_bad: 1,
        })),
        Response::Control(ControlResponse::Err("no".to_string())),
    ]
}

/// Every message, in both dialects: each frame's header frames its
/// payload, the payload is the fixture text, and decoding the fixture's
/// frame gives back the dialect and a message that re-encodes to it.
fn frames<T: Serialize + Deserialize>(kind: &str, messages: &[T]) -> Vec<(String, String)> {
    let mut entries = Vec::new();
    for (i, message) in messages.iter().enumerate() {
        for version in [WireVersion::V2, WireVersion::Control] {
            let name = format!("{kind}/{i}/{}", version.tag());
            let frame = encode_frame_in(version, message);
            assert_eq!(&frame[..4], &MAGIC);
            assert_eq!(&frame[4..8], &((frame.len() - 8) as u32).to_be_bytes());
            let payload = std::str::from_utf8(&frame[8..]).unwrap().to_string();
            if !regen() {
                let want = pinned(&name);
                let mut pinned_frame = MAGIC.to_vec();
                pinned_frame.extend_from_slice(&(want.len() as u32).to_be_bytes());
                pinned_frame.extend_from_slice(want.as_bytes());
                let (back, got_version) =
                    hd_telemetry::wire::decode_payload_versioned::<T>(&pinned_frame[8..])
                        .unwrap_or_else(|e| panic!("`{name}` fixture frame does not decode: {e}"));
                assert_eq!(got_version, version, "`{name}` dialect");
                assert_eq!(
                    encode_frame_in(version, &back),
                    pinned_frame,
                    "`{name}` re-encode"
                );
            }
            entries.push((name, payload));
        }
    }
    entries
}

#[test]
fn frames_render_the_envelope_byte_for_byte() {
    let mut entries = frames("request", &requests());
    entries.extend(frames("response", &responses()));
    check(&entries);
}

#[test]
fn wal_records_frame_their_canonical_json() {
    let header = WalRecord::Header(WalHeader {
        schema: WAL_SCHEMA.to_string(),
        node: 3,
        shard: 1,
    });
    let logged = WalRecord::Batch(WalBatch {
        fingerprint: 0x0fbf_1ebc_653a_95c7,
        batch: batch(),
    });
    let mut entries = Vec::new();
    let mut log = Vec::new();
    // The server's splice around the batch's canonical JSON is the
    // encoded record, for a small and a large fingerprint alike.
    let json = serde_json::to_string(&batch()).unwrap();
    for fingerprint in [0, 0x0fbf_1ebc_653a_95c7, u64::MAX] {
        let record = WalRecord::Batch(WalBatch {
            fingerprint,
            batch: batch(),
        });
        assert_eq!(
            encode_batch_record(fingerprint, json.as_bytes()),
            encode_record(&record)
        );
    }
    for (name, record) in [("wal/header", &header), ("wal/batch", &logged)] {
        let framed = encode_record(record);
        let payload = &framed[12..];
        assert_eq!(&framed[..4], &WAL_MAGIC);
        assert_eq!(&framed[4..8], &(payload.len() as u32).to_be_bytes());
        assert_eq!(&framed[8..12], &crc32(payload).to_be_bytes());
        entries.push((
            name.to_string(),
            String::from_utf8(payload.to_vec()).unwrap(),
        ));
        log.extend_from_slice(&framed);
    }
    check(&entries);
    if regen() {
        return;
    }
    // The fixture's records, framed, are the log, and they scan back
    // and re-encode to it.
    let mut pinned_log = Vec::new();
    for name in ["wal/header", "wal/batch"] {
        let payload = pinned(name);
        pinned_log.extend_from_slice(&WAL_MAGIC);
        pinned_log.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        pinned_log.extend_from_slice(&crc32(payload.as_bytes()).to_be_bytes());
        pinned_log.extend_from_slice(payload.as_bytes());
    }
    assert_eq!(log, pinned_log);
    let replay = scan_wal(&pinned_log).unwrap();
    let mut again = encode_record(&WalRecord::Header(replay.header.unwrap()));
    for b in replay.batches {
        again.extend_from_slice(&encode_record(&WalRecord::Batch(b)));
    }
    assert_eq!(again, pinned_log);
}

#[test]
fn stored_and_reported_state_render_canonically() {
    let snapshot: StoreSnapshot = store().snapshot();
    let report: TelemetryReport = store().report(10);
    let device = device_snapshot();
    let mut entries = vec![
        round_trip("store/snapshot", &snapshot),
        round_trip("store/report", &report),
    ];
    // The device snapshot ships pretty-printed.
    let pretty = device.to_json();
    if !regen() {
        let want = pinned("device/snapshot-pretty");
        let back = DeviceSnapshot::from_json(&want).unwrap();
        assert_eq!(back.to_json(), want, "`device/snapshot-pretty` re-encode");
    }
    entries.push(("device/snapshot-pretty".to_string(), pretty));
    check(&entries);
}

#[test]
fn scalars_and_keys_render_like_serde_json() {
    // Integer keys render as strings and sort as strings: "10" < "2".
    let map: HashMap<u64, String> = [
        (10, "b".to_string()),
        (2, "a".to_string()),
        (7, String::new()),
    ]
    .into_iter()
    .collect();
    let nested: BTreeMap<i32, HashMap<ActionUid, bool>> = [
        (
            -4,
            [(ActionUid(30), true), (ActionUid(4), false)]
                .into_iter()
                .collect(),
        ),
        (11, HashMap::new()),
    ]
    .into_iter()
    .collect();
    let escapes =
        "q\" b\\ s/ n\n r\r t\t b\u{8} f\u{c} nul\u{0} us\u{1f} del\u{7f} é 😀".to_string();
    let floats: Vec<f64> = vec![1.0, 1e-7, f64::NAN];
    let extremes = (0.1f32, -0.0f64, 1e300f64, i64::MIN, u64::MAX, -1i8);
    let mut entries = vec![
        round_trip("map/integer-keys", &map),
        round_trip("map/nested-keys", &nested),
        round_trip("string/escapes", &escapes),
        round_trip("number/extremes", &extremes),
    ];
    // NaN renders as `null`, which reads back only as an absent number.
    let text = serde_json::to_string(&floats).unwrap();
    if !regen() {
        let back: Vec<Option<f64>> = serde_json::from_str(&pinned("number/floats")).unwrap();
        assert_eq!(back[..2], [Some(1.0), Some(1e-7)]);
        assert_eq!(back[2], None);
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            pinned("number/floats")
        );
    }
    entries.push(("number/floats".to_string(), text));
    check(&entries);
}
