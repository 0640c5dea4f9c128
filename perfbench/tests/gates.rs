//! The benchmark's correctness gates must be able to fail: each check
//! is fed a real output and then a corrupted copy of it. Also covers the
//! percentile helper and the open loop's due-time accounting.

use std::process::Command;

use hangdoctor::{FaultTally, HangBugReport};
use hd_control::{ControlResponse, Directives, SyncReport};
use hd_fleet::{run_fleet, FleetSpec, JobReport};
use hd_telemetry::{encode_frame, AggregationStore, PipelinedUploader, Response, UploadBatch};
use perfbench::loadgen::{self, OpenLoop, Planned, Responses, UploadLog, UploadTemplate};
use perfbench::report::{Better, RunReport};
use perfbench::stats::{median, nearest_rank, percentile_sorted, samples_beyond, Tail};
use perfbench::{check_identical, fleet, ingest, ops, parse_args};

fn flip_byte(s: &str, at: usize) -> String {
    let mut b = s.as_bytes().to_vec();
    b[at] = if b[at] == b'0' { b'1' } else { b'0' };
    String::from_utf8(b).expect("ascii flip keeps utf-8")
}

#[test]
fn nearest_rank_percentiles_pick_measured_samples() {
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile_sorted(&values, 50.0), 500.0);
    assert_eq!(percentile_sorted(&values, 99.0), 990.0);
    assert_eq!(percentile_sorted(&values, 100.0), 1000.0);
    assert_eq!(percentile_sorted(&values, 0.1), 1.0);
    // 1000 samples leave exactly ten beyond p99; 999 leave only nine.
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(samples_beyond(999, 99.0), 9);
    assert_eq!(nearest_rank(1, 99.0), 1);
    assert_eq!(nearest_rank(7, 50.0), 4);
    let t = Tail::of(&values.iter().rev().copied().collect::<Vec<_>>()).expect("non-empty");
    assert_eq!((t.n, t.p50, t.p99, t.beyond_p99), (1000, 500.0, 990.0, 10));
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.0);
    assert!(Tail::of(&[]).is_none());
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    let plan: Vec<Planned> = [0u64, 1_000_000, 2_000_000]
        .iter()
        .map(|&due_ns| Planned {
            due_ns,
            kind: 0,
            arg: 0,
        })
        .collect();
    // The second send stalled 4 ms past its due time; the third went
    // out right after it. Latency must include the stall.
    let mut out = OpenLoop {
        sent_ns: vec![100_000, 5_000_000, 5_100_000],
        recv_ns: vec![500_000, 6_000_000, 6_100_000],
        responses: Responses::default(),
        cpu_s: 0.0,
    };
    let lat: Vec<f64> = (0..3).map(|i| out.latency_us(&plan, i)).collect();
    assert_eq!(lat, vec![500.0, 5_000.0, 4_100.0]);
    let lag: Vec<f64> = (0..3).map(|i| out.lag_us(&plan, i)).collect();
    assert_eq!(lag, vec![100.0, 4_000.0, 3_100.0]);
    assert_eq!(out.backlog(), 0);
    out.recv_ns.pop();
    assert_eq!(out.backlog(), 1);
}

#[test]
fn open_loop_sends_on_schedule_while_the_server_stalls() {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let reply = encode_frame(&Response::Bye);
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 8];
        // Answer nothing for 60 ms, then answer all three requests.
        std::thread::sleep(std::time::Duration::from_millis(60));
        for _ in 0..3 {
            s.read_exact(&mut buf).expect("request");
            s.write_all(&reply).expect("reply");
        }
    });
    let plan: Vec<Planned> = (0..3)
        .map(|k| Planned {
            due_ns: k * 10_000_000,
            kind: 0,
            arg: 0,
        })
        .collect();
    let stream = perfbench::loadgen::connect(addr).expect("connect");
    let out = perfbench::loadgen::open_loop(stream, &plan, None, |_, f| *f = vec![7u8; 8], None)
        .expect("loop");
    server.join().expect("server");
    assert_eq!(out.backlog(), 0);
    for i in 0..3 {
        // Every request left near its due time although none was
        // answered yet, and each latency counts from that due time.
        assert!(
            out.lag_us(&plan, i) < 8_000.0,
            "request {i} sent {} us late",
            out.lag_us(&plan, i)
        );
        assert!(out.latency_us(&plan, i) >= 60_000.0 - (i as f64) * 10_000.0 - 1_000.0);
    }
    assert!(matches!(out.responses.decode(2), Ok(Response::Bye)));
}

fn small_spec() -> FleetSpec {
    let mut apps = vec![hd_appmodel::corpus::table5::k9mail()];
    apps.extend(hd_appmodel::corpus::async_hang_apps().into_iter().take(1));
    FleetSpec {
        apps,
        executions_per_action: 2,
        ..FleetSpec::study(2, 2, 7)
    }
}

#[test]
fn fleet_gate_passes_the_replay_and_fails_a_flipped_byte() {
    let spec = small_spec();
    let fleet = fleet::fleet_bytes(&run_fleet(&spec).merged);
    let replay = fleet::replay(&spec, None);
    assert!(check_identical("replay", &replay.bytes, &fleet).is_ok());
    assert!(replay.overhead_pct > 0.0);
    let at = fleet.find("\"app\"").expect("a report field") + 3;
    assert!(check_identical("replay", &flip_byte(&replay.bytes, at), &fleet).is_err());
    let mut shorter = replay.bytes.clone();
    shorter.pop();
    assert!(check_identical("replay", &shorter, &fleet).is_err());
}

#[test]
fn traced_replay_is_byte_identical_and_records_nested_spans() {
    use std::cell::RefCell;
    use std::rc::Rc;
    let spec = small_spec();
    let plain = fleet::replay(&spec, None);
    let tracer = Rc::new(RefCell::new(perfbench::trace::Tracer::new(
        std::time::Instant::now(),
    )));
    let traced = fleet::replay(&spec, Some(&tracer));
    assert_eq!(plain.bytes, traced.bytes);
    let tracer = tracer.borrow();
    let totals = tracer.totals();
    for name in [
        "appmodel.compile",
        "appmodel.build_run",
        "simrt.run",
        "fleet.device",
        "fleet.merge",
        "hangdoctor.schecker",
    ] {
        assert!(totals.contains_key(name), "no {name} span");
    }
    // Self time excludes the hook spans nested under each simrt.run.
    let sim = totals["simrt.run"];
    assert!(sim.self_ns < sim.total_ns);
    assert_eq!(totals["fleet.device"].count, spec.jobs() as u64);
}

fn job(app: &str, device: u32) -> JobReport {
    let mut report = HangBugReport::new(app);
    report.note_execution(device, hd_simrt::ActionUid(1), "onClick");
    JobReport {
        index: device as usize - 1,
        app: app.to_string(),
        device,
        report,
        faults: FaultTally::default(),
    }
}

#[test]
fn upload_template_splices_exactly_what_the_encoder_writes() {
    let t = UploadTemplate::new(&job("K9-mail", 3)).expect("template");
    for seq in [0u64, 9, 10, 123_456_789] {
        let mut spliced = Vec::new();
        t.frame(seq, &mut spliced);
        let batch = UploadBatch {
            seq,
            ..t.batch.clone()
        };
        assert_eq!(
            spliced,
            PipelinedUploader::encode_upload(&batch),
            "seq {seq}"
        );
    }
}

/// A connection that sent `sent` uploads cycling over templates 0 and 1
/// from seq 1, answered by `answers` (one response per upload, in order).
fn conn(sent: usize, answers: &[Response]) -> UploadLog {
    let mut l = UploadLog {
        mine: vec![0, 1],
        first_seq: 1,
        sent,
        ..UploadLog::default()
    };
    for r in answers {
        l.answer(&encode_frame(r));
    }
    l
}

fn ack(templates: &[UploadTemplate], l: &UploadLog, k: usize, duplicate: bool) -> Response {
    let (t, seq) = l.upload(k);
    Response::Ack {
        fingerprint: templates[t].fingerprint(seq),
        duplicate,
    }
}

#[test]
fn ingest_ack_gate_fails_on_a_dropped_duplicate_or_foreign_ack() {
    let templates = vec![
        UploadTemplate::new(&job("K9-mail", 1)).expect("template"),
        UploadTemplate::new(&job("OmniNotes", 2)).expect("template"),
    ];
    let shape = conn(4, &[]);
    let acks: Vec<Response> = (0..4).map(|k| ack(&templates, &shape, k, false)).collect();
    let (ok, nacks) = ingest::check_acks(&[conn(4, &acks)], &templates);
    assert!(ok.is_ok(), "{ok:?}");
    assert_eq!(nacks, 0);

    // A dropped ACK: four uploads, three answers.
    assert!(ingest::check_acks(&[conn(4, &acks[..3])], &templates)
        .0
        .is_err());

    // An ACK flagged as duplicate.
    let mut dup = acks.clone();
    dup[2] = ack(&templates, &shape, 2, true);
    assert!(ingest::check_acks(&[conn(4, &dup)], &templates).0.is_err());

    // ACKs answering another batch.
    let mut swapped = acks.clone();
    swapped.swap(0, 2);
    assert!(ingest::check_acks(&[conn(4, &swapped)], &templates)
        .0
        .is_err());

    // The same batches sent on two connections: not exactly once.
    assert!(
        ingest::check_acks(&[conn(4, &acks), conn(4, &acks)], &templates)
            .0
            .is_err()
    );

    // A NACK is a refused attempt: counted, and the gate fails.
    let mut nacked = acks.clone();
    nacked[1] = Response::Nack { retry_after_ms: 1 };
    let (verdict, nacks) = ingest::check_acks(&[conn(4, &nacked)], &templates);
    assert!(verdict.is_err());
    assert_eq!(nacks, 1);
}

#[test]
fn a_windowed_open_loop_never_has_more_than_its_window_unanswered() {
    use std::io::{Read, Write};
    // ingest-durable relies on the window to keep in-flight uploads
    // below one shard queue's capacity, however late the server answers.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let reply = encode_frame(&Response::Bye);
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 8];
        for _ in 0..8 {
            s.read_exact(&mut buf).expect("request");
            std::thread::sleep(std::time::Duration::from_millis(5));
            s.write_all(&reply).expect("reply");
        }
    });
    // Every request is due at once; only the window spaces them out.
    let plan: Vec<Planned> = (0..8)
        .map(|k| Planned {
            due_ns: 0,
            kind: 0,
            arg: k,
        })
        .collect();
    let stream = loadgen::connect(addr).expect("connect");
    let out =
        loadgen::open_loop(stream, &plan, Some(2), |_, f| *f = vec![7u8; 8], None).expect("loop");
    server.join().expect("server");
    assert_eq!(out.backlog(), 0);
    for i in 2..8 {
        assert!(
            out.sent_ns[i] >= out.recv_ns[i - 2],
            "request {i} left before request {} was answered",
            i - 2
        );
    }
    // Latency still counts from the due time, waiting for the window
    // included.
    assert!(out.latency_us(&plan, 7) >= 8.0 * 5_000.0 - 1_000.0);
}

#[test]
fn aggregate_gate_fails_when_one_batch_is_missing() {
    let templates: Vec<UploadTemplate> = (1..=3)
        .map(|d| UploadTemplate::new(&job("K9-mail", d)).expect("template"))
        .collect();
    let mut full = AggregationStore::new();
    let mut missing = AggregationStore::new();
    for (i, t) in templates.iter().enumerate() {
        full.ingest_prehashed(&t.batch, t.fingerprint(1));
        if i != 1 {
            missing.ingest_prehashed(&t.batch, t.fingerprint(1));
        }
    }
    let want = full.report(10).to_json();
    assert!(check_identical("report", &full.report(10).to_json(), &want).is_ok());
    assert!(check_identical("report", &missing.report(10).to_json(), &want).is_err());
}

fn sync(device: u32) -> SyncReport {
    SyncReport {
        device,
        app: "K9-mail".to_string(),
        states: vec![
            (1, hangdoctor::ActionState::Normal, 3),
            (2, hangdoctor::ActionState::Suspicious, 0),
        ],
        stack: None,
        health: Default::default(),
    }
}

#[test]
fn ops_gate_fails_on_a_wrong_state_table_or_report() {
    let syncs = vec![sync(1)];
    let conn2 = vec![
        Planned {
            due_ns: 0,
            kind: ops::QUERY,
            arg: 0,
        },
        Planned {
            due_ns: 1,
            kind: ops::QUERY_STATE,
            arg: 0,
        },
        Planned {
            due_ns: 2,
            kind: ops::PULL_STACK,
            arg: 0,
        },
        Planned {
            due_ns: 3,
            kind: ops::SYNC,
            arg: 0,
        },
    ];
    let report = AggregationStore::new().report(10);
    let want_report = report.to_json();
    let good = |states: Vec<(u64, hangdoctor::ActionState, u32)>,
                report: hd_telemetry::TelemetryReport| {
        vec![
            Ok(Response::Report(report)),
            Ok(Response::Control(ControlResponse::StateTable {
                device: 1,
                states,
            })),
            Ok(Response::Control(ControlResponse::Stack {
                device: 1,
                stack: None,
            })),
            Ok(Response::Control(ControlResponse::Directives(Directives {
                thresholds: None,
                diagnosis_enabled: true,
            }))),
        ]
    };
    let (checks, failed) = ops::check_responses(
        &[],
        |_| 0,
        &conn2,
        &good(syncs[0].states.clone(), report.clone()),
        &want_report,
        &syncs,
    );
    assert!(checks.iter().all(|(_, v)| v.is_ok()), "{checks:?}");
    assert_eq!(failed, 0);

    let mut flipped = syncs[0].states.clone();
    flipped[1].1 = hangdoctor::ActionState::Normal;
    let (checks, failed) = ops::check_responses(
        &[],
        |_| 0,
        &conn2,
        &good(flipped, report.clone()),
        &want_report,
        &syncs,
    );
    assert_eq!(failed, 1);
    assert!(checks
        .iter()
        .any(|(name, v)| name.contains("QueryState") && v.is_err()));

    let mut other = report;
    other.devices += 1;
    let (checks, failed) = ops::check_responses(
        &[],
        |_| 0,
        &conn2,
        &good(syncs[0].states.clone(), other),
        &want_report,
        &syncs,
    );
    assert_eq!(failed, 1);
    assert!(checks
        .iter()
        .any(|(name, v)| name.contains("Query returns") && v.is_err()));

    // An upload answered by an error instead of its ACK.
    let up = vec![Ok(Response::Error("shard worker gone".to_string()))];
    let (checks, failed) = ops::check_responses(&up, |_| 42, &[], &[], &want_report, &syncs);
    assert_eq!(failed, 1);
    assert!(checks[0].1.is_err());
}

#[test]
fn sast_gate_fails_on_a_flipped_byte() {
    let apps = perfbench::sast::corpus(3)
        .into_iter()
        .take(40)
        .collect::<Vec<_>>();
    let db = hangdoctor::BlockingApiDb::documented(2017);
    let cfg = perfbench::sast::config();
    let two = hd_sast::scan_corpus(&apps, &db, &cfg, 2);
    let one = hd_sast::scan_corpus(&apps, &db, &cfg, 1);
    let (a, b) = (
        perfbench::sast::reports_bytes(&two.reports),
        perfbench::sast::reports_bytes(&one.reports),
    );
    assert!(check_identical("reports", &a, &b).is_ok());
    let at = a.find("\"findings\"").expect("findings field") + 2;
    assert!(check_identical("reports", &flip_byte(&a, at), &b).is_err());
}

#[test]
fn one_failed_check_makes_the_run_incorrect() {
    let mut r = RunReport::default();
    assert!(!r.correct(), "a run with no checks proves nothing");
    r.check("a", Ok("fine".to_string()));
    assert!(r.correct());
    r.check("b", Err("corrupted".to_string()));
    assert!(!r.correct());
    assert!(r.render_json().starts_with("{\"correct\":false,"));
}

/// A timed report that measured every end-to-end metric.
fn timed_report() -> RunReport {
    let mut r = RunReport {
        attempted: 3,
        ..RunReport::default()
    };
    r.check("a", Ok(String::new()));
    r.metric("cpu_us_per_op", "us", Better::Lower, 12.5, 40);
    r.metric("setup_s", "s", Better::Lower, 0.25, 3);
    r.metric("peak_rss_mb", "MB", Better::Lower, 9.0, 1);
    r
}

#[test]
fn summary_line_has_exactly_the_contract_keys() {
    let mut r = timed_report();
    r.seal();
    assert!(r.correct(), "{:?}", r.checks);
    // Every end-to-end metric, in BENCHMARK.json's order and unit.
    assert_eq!(
        r.render_json(),
        "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
         \"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\
         \"peak_rss_mb\":{\"value\":9,\"unit\":\"MB\"},\
         \"cpu_us_per_op\":{\"value\":12.5,\"unit\":\"us\"}}}"
    );
}

#[test]
fn the_manifest_gate_fails_on_a_missing_unlisted_or_mislabelled_metric() {
    let listed = |section| -> Vec<String> {
        perfbench::report::listed(section)
            .into_iter()
            .map(|l| l.name)
            .collect()
    };
    assert_eq!(
        listed("end_to_end"),
        ["setup_s", "peak_rss_mb", "cpu_us_per_op"]
    );
    assert!(listed("per_layer").len() > 60);

    let sealed = |edit: &dyn Fn(&mut RunReport)| {
        let mut r = timed_report();
        edit(&mut r);
        r.seal();
        r.correct()
    };
    assert!(sealed(&|_| {}));
    assert!(!sealed(&|r| {
        r.metrics.retain(|m| m.name != "cpu_us_per_op");
    }));
    assert!(!sealed(&|r| r.metric(
        "device_hours_per_s",
        "h/s",
        Better::Higher,
        5.0,
        1
    )));
    assert!(!sealed(&|r| r.metrics[0].unit = "ms"));
    assert!(!sealed(&|r| r.metrics[0].better = Better::Higher));
    assert!(!sealed(&|r| r.metrics[0].value = 0.0));
    assert!(!sealed(&|r| r.metric(
        "setup_s",
        "s",
        Better::Lower,
        0.3,
        1
    )));
}

#[test]
fn a_traced_summary_holds_every_per_layer_metric_and_zero_for_unused_layers() {
    let mut r = RunReport {
        traced: true,
        attempted: 1,
        ..RunReport::default()
    };
    r.check("a", Ok(String::new()));
    r.metric("sast.apps_per_s", "apps/s", Better::Higher, 1234.5, 10);
    r.seal();
    assert!(r.correct(), "{:?}", r.checks);
    let json = r.render_json();
    for l in perfbench::report::listed("per_layer") {
        assert!(
            json.contains(&format!("\"{}\":{{\"value\":", l.name)),
            "{}",
            l.name
        );
    }
    assert!(json.contains("\"sast.apps_per_s\":{\"value\":1234.5,\"unit\":\"apps/s\"}"));
    assert!(json.contains("\"simrt.self_ms\":{\"value\":0,\"unit\":\"ms\"}"));
    assert!(!json.contains("setup_s"));
    // An end-to-end metric does not belong in a traced summary.
    r.metric("setup_s", "s", Better::Lower, 0.25, 3);
    r.checks.clear();
    r.check("a", Ok(String::new()));
    r.seal();
    assert!(!r.correct());
}

#[test]
fn arguments_parse_with_the_last_flag_winning() {
    let argv: Vec<String> = "--seed 42 --workload ops-mixed --seed 7 --seconds 10 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let a = parse_args(&argv).expect("valid");
    assert_eq!(
        (a.seed, a.seconds, a.trace, a.workload.as_str()),
        (7, 10.0, true, "ops-mixed")
    );
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload ops-mixed --seed 1 --seconds 1 --trace 2",
        "--seed 1",
    ] {
        let argv: Vec<String> = bad.split(' ').map(String::from).collect();
        assert!(parse_args(&argv).is_err(), "{bad}");
    }
}

#[test]
fn a_usage_error_exits_nonzero_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn repeated_measurements_report_their_median_and_spread() {
    let mut r = RunReport::default();
    r.median_metric(
        "cpu_us_per_op",
        "us",
        Better::Lower,
        &[10.0, 40.0, 20.0, 30.0, 25.0],
    );
    let m = &r.metrics[0];
    assert_eq!((m.value, m.samples), (25.0, 5));
    // Nearest-rank quartiles 20 and 30 around the median 25.
    assert_eq!(m.spread, Some(0.4));
}
