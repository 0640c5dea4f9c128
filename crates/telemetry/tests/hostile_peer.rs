//! A peer that pipelines uploads and never reads cannot make the server
//! hold unbounded state: once the connection leaves enough response
//! bytes untaken, the server stops reading it, so the peer's own writes
//! block. Other connections are still served, and once the peer reads,
//! every response arrives in request order. And a small frame nested
//! deeper than the JSON reader's cap is answered with an error; it
//! cannot overflow an io worker's stack and take the server down.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use hd_telemetry::{
    batch_fingerprint, drain_frames, encode_frame, read_frame, write_frame, Request, Response,
    TelemetryServer, UploadBatch, MAGIC,
};

#[test]
fn a_frame_nested_past_the_reader_cap_gets_an_error_and_the_server_lives() {
    let server = TelemetryServer::builder().shards(2).start().unwrap();
    let addr = server.local_addr();
    let deep = "[".repeat(20 << 10);
    // A frame of nothing but `[`, and the same nesting under an envelope
    // key the reader skips, where it must descend to check the syntax.
    let payloads = [
        deep.clone(),
        format!("{{\"schema\":\"hang-doctor/telemetry/v2\",\"x\":{deep}"),
    ];
    for payload in &payloads {
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload.as_bytes());
        let mut peer = TcpStream::connect(addr).unwrap();
        write_frame(&mut peer, &frame).unwrap();
        match read_frame::<Response>(&mut peer).unwrap() {
            Response::Error(e) => assert!(e.contains("malformed frame payload"), "{e}"),
            other => panic!("expected an error answer, got {other:?}"),
        }
    }
    // The server still answers, on a fresh connection.
    let mut other = TcpStream::connect(addr).unwrap();
    write_frame(&mut other, &encode_frame(&Request::Query { top_n: 1 })).unwrap();
    assert!(matches!(
        read_frame::<Response>(&mut other).unwrap(),
        Response::Report(_)
    ));
    write_frame(&mut other, &encode_frame(&Request::Shutdown)).unwrap();
    assert!(matches!(
        read_frame::<Response>(&mut other).unwrap(),
        Response::Bye
    ));
    drop(other);
    assert_eq!(server.join().decode_errors, payloads.len() as u64);
}

#[test]
fn a_peer_that_never_reads_is_not_read_until_it_drains() {
    // Bytes the peer may push before its writes block for good:
    // what the server reads before its caps stop it, plus the
    // kernel's socket buffers in both directions. A server that
    // keeps reading takes them all.
    const BOUND: usize = 48 << 20;
    // The peer writes in rounds of this many bytes and waits for the
    // server to decode each, so a server that keeps reading never goes
    // quiet for long in one big decode.
    const ROUND: usize = 16 << 10;
    // No request decoded for this long: the server stopped reading.
    const QUIET: Duration = Duration::from_millis(500);
    let server = TelemetryServer::builder().shards(2).start().unwrap();
    let addr = server.local_addr();
    // Every upload is unique, so each one decoded is one applied.
    let decoded = || server.stats().ingest.batches_applied as usize;
    // Waits until the server has decoded `frames` requests; false if
    // it went quiet first.
    let decodes = |frames: usize| {
        let (mut seen, mut since) = (decoded(), Instant::now());
        while seen < frames {
            thread::sleep(Duration::from_millis(1));
            let now = decoded();
            if now != seen {
                (seen, since) = (now, Instant::now());
            } else if since.elapsed() > QUIET {
                return false;
            }
        }
        true
    };
    let upload = |seq: u64| {
        let batch = UploadBatch {
            app: "hostile".to_string(),
            device: 7,
            seq,
            items: Vec::new(),
        };
        (
            batch_fingerprint(&batch),
            encode_frame(&Request::Upload(batch)),
        )
    };

    let mut peer = TcpStream::connect(addr).unwrap();
    peer.set_nonblocking(true).unwrap();
    // Fingerprints of every frame started, and the unsent tail of
    // the last one.
    let mut sent: Vec<u64> = Vec::new();
    let mut tail: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut server_quiet = false;
    loop {
        let (mut round, mut blocked) = (0usize, false);
        while round < ROUND {
            if tail.is_empty() {
                let (fingerprint, frame) = upload(sent.len() as u64);
                sent.push(fingerprint);
                tail = frame;
            }
            match peer.write(&tail) {
                Ok(n) => {
                    tail.drain(..n);
                    (written, round) = (written + n, round + n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    blocked = true;
                    break;
                }
                Err(e) => panic!("write: {e}"),
            }
        }
        assert!(
            written <= BOUND,
            "the server kept reading a peer that never reads ({written} bytes)"
        );
        if server_quiet && !blocked {
            continue; // fill the socket buffers without waiting
        }
        let whole = sent.len() - usize::from(!tail.is_empty());
        server_quiet = !decodes(whole);
        if server_quiet && blocked {
            break;
        }
    }

    // Another connection is still served.
    let mut other = TcpStream::connect(addr).unwrap();
    write_frame(&mut other, &encode_frame(&Request::Query { top_n: 1 })).unwrap();
    assert!(matches!(
        read_frame::<Response>(&mut other).unwrap(),
        Response::Report(_)
    ));
    drop(other);

    // Once the peer reads, every response arrives, in request order.
    let mut rbuf: Vec<u8> = Vec::new();
    let mut answered = 0usize;
    let mut chunk = [0u8; 64 * 1024];
    while answered < sent.len() {
        if !tail.is_empty() {
            match peer.write(&tail) {
                Ok(n) => {
                    tail.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("write: {e}"),
            }
        }
        match peer.read(&mut chunk) {
            Ok(0) => panic!("closed after {answered} of {} responses", sent.len()),
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("read: {e}"),
        }
        for (response, _) in drain_frames::<Response>(&mut rbuf).unwrap() {
            match response {
                Response::Ack { fingerprint, .. } => {
                    assert_eq!(fingerprint, sent[answered], "response {answered}")
                }
                other => panic!("response {answered}: expected Ack, got {other:?}"),
            }
            answered += 1;
        }
    }
    drop(peer);
    let mut bye = TcpStream::connect(addr).unwrap();
    write_frame(&mut bye, &encode_frame(&Request::Shutdown)).unwrap();
    assert!(matches!(
        read_frame::<Response>(&mut bye).unwrap(),
        Response::Bye
    ));
    let stats = server.join();
    assert_eq!(stats.ingest.batches_applied, sent.len() as u64);
}
