//! Per-connection order: a `Query` or `Export` written right behind an
//! `Upload` on the same connection, before its ACK was read, sees that
//! upload. The server finishes each request of a connection, an upload
//! applied, before it handles the next, so the answer that follows an
//! ACK counts the ACKed batch. Each round opens a fresh connection and
//! uploads as a fresh device, so the check is exact.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};

use hangdoctor::HangBugReport;
use hd_telemetry::{
    encode_frame, read_frame, write_frame, Request, Response, TelemetryItem, TelemetryServer,
    UploadBatch,
};

const ROUNDS: u32 = 250;
const APP: &str = "same-connection";

/// Writes an upload from `device` and `follow_up` back to back, in one
/// write, without reading; returns the ACKed fingerprint and the
/// follow-up's answer.
fn upload_then(addr: SocketAddr, device: u32, follow_up: &Request) -> (u64, Response) {
    let batch = UploadBatch {
        app: APP.to_string(),
        device,
        seq: 0,
        items: vec![TelemetryItem::Report(HangBugReport::new(APP))],
    };
    let mut both = encode_frame(&Request::Upload(batch));
    both.extend_from_slice(&encode_frame(follow_up));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(&both).unwrap();
    let fingerprint = match read_frame::<Response>(&mut stream).unwrap() {
        Response::Ack {
            fingerprint,
            duplicate: false,
        } => fingerprint,
        other => panic!("device {device}: expected a fresh Ack, got {other:?}"),
    };
    (fingerprint, read_frame(&mut stream).unwrap())
}

fn shutdown(server: TelemetryServer) {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, &encode_frame(&Request::Shutdown)).unwrap();
    assert!(matches!(
        read_frame::<Response>(&mut stream).unwrap(),
        Response::Bye
    ));
    drop(stream);
    server.join();
}

#[test]
fn a_query_behind_an_upload_counts_the_acked_device() {
    let server = TelemetryServer::builder().start().unwrap();
    let mut missed = Vec::new();
    for device in 1..=ROUNDS {
        match upload_then(server.local_addr(), device, &Request::Query { top_n: 1 }) {
            (_, Response::Report(report)) => {
                if report.devices != device as usize {
                    missed.push((device, report.devices));
                }
            }
            (_, other) => panic!("device {device}: expected a Report, got {other:?}"),
        }
    }
    assert!(
        missed.is_empty(),
        "{} of {ROUNDS} Queries did not count the device ACKed just before \
         on their connection; (device, devices counted): {:?}",
        missed.len(),
        &missed[..missed.len().min(8)]
    );
    shutdown(server);
}

#[test]
fn an_export_behind_an_upload_holds_the_acked_fingerprint() {
    let server = TelemetryServer::builder().start().unwrap();
    let mut missed = Vec::new();
    for device in 1..=ROUNDS {
        match upload_then(server.local_addr(), device, &Request::Export) {
            (fingerprint, Response::State(state)) => {
                if state.seen.binary_search(&fingerprint).is_err() {
                    missed.push(device);
                }
            }
            (_, other) => panic!("device {device}: expected a State, got {other:?}"),
        }
    }
    assert!(
        missed.is_empty(),
        "{} of {ROUNDS} Exports lacked the fingerprint ACKed just before on \
         their connection; first devices: {:?}",
        missed.len(),
        &missed[..missed.len().min(8)]
    );
    shutdown(server);
}
