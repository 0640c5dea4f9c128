//! An idle server costs nothing: its io workers block in `poll` instead
//! of waking on a timer. A test binary of its own, so no other test's
//! server threads share the process whose threads it counts. It reads
//! the counts from Linux's `/proc`.
#![cfg(target_os = "linux")]

use std::fs;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use hangdoctor::HangBugReport;
use hd_telemetry::{
    encode_frame, read_frame, write_frame, Request, Response, TelemetryItem, TelemetryServer,
    UploadBatch, SCHEMA,
};

/// Voluntary context switches so far, summed over this process's io
/// worker threads (`hd-telemetry-io-N`, which the kernel's 15-byte
/// `comm` shortens to `hd-telemetry-io`).
fn io_worker_switches() -> u64 {
    let mut total = 0;
    for task in fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let dir = task.expect("task entry").path();
        let (Ok(comm), Ok(status)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("status")),
        ) else {
            continue; // the thread exited meanwhile
        };
        if !comm.starts_with("hd-telemetry-io") {
            continue;
        }
        total += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .map(|v| v.trim().parse::<u64>().expect("switch count"))
            .expect("voluntary_ctxt_switches line");
    }
    total
}

#[test]
fn an_idle_connection_costs_no_wake_ups() {
    let server = TelemetryServer::builder().start().unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // One round trip, so the connection is adopted before counting.
    let hello = Request::Hello {
        supported: vec![SCHEMA.to_string()],
    };
    write_frame(&mut stream, &encode_frame(&hello)).unwrap();
    assert!(matches!(
        read_frame::<Response>(&mut stream).unwrap(),
        Response::Welcome { .. }
    ));

    let before = io_worker_switches();
    thread::sleep(Duration::from_millis(500));
    let woke = io_worker_switches() - before;
    assert!(woke <= 10, "io workers woke {woke} times in 500 ms idle");

    // The parked worker still answers.
    let batch = UploadBatch {
        app: "idle".to_string(),
        device: 1,
        seq: 0,
        items: vec![TelemetryItem::Report(HangBugReport::new("idle"))],
    };
    write_frame(&mut stream, &encode_frame(&Request::Upload(batch))).unwrap();
    match read_frame::<Response>(&mut stream).unwrap() {
        Response::Ack { duplicate, .. } => assert!(!duplicate),
        other => panic!("expected Ack, got {other:?}"),
    }
    drop(stream);
    server.kill();
}
