//! Load generation for the telemetry workloads: real per-device upload
//! payloads, pre-encoded frames, and the open-loop generator.
//!
//! Each connection has one generator thread that sends, so a workload
//! never uses more than two for its two connections, and a reader thread
//! that only timestamps answers. Responses arrive in request order on a
//! connection (the server flushes them in order), so the n-th response
//! answers the n-th request. Responses are checked only after the
//! measured window, so client-side decoding never competes with the
//! server while it is being timed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hd_fleet::{run_fleet_with_reports, JobReport};
use hd_telemetry::wire::upload_fingerprint_from_payload;
use hd_telemetry::{
    decode_frame, encode_frame, PipelinedUploader, Request, Response, TelemetryItem,
    TelemetryServer, UploadBatch, WireVersion, MAGIC,
};

use crate::report::{Better, RunReport};
use crate::stats::Tail;
use crate::trace::Tracer;

/// Per-device reports from a seeded set-up fleet over the workload
/// corpus (see [`crate::fleet::spec`]).
pub fn setup_reports(
    seed: u64,
    devices_per_app: u32,
    executions_per_action: usize,
) -> Vec<JobReport> {
    let mut spec = crate::fleet::spec(seed);
    spec.devices_per_app = devices_per_app;
    spec.executions_per_action = executions_per_action;
    run_fleet_with_reports(&spec).1
}

/// One device's upload, encoded once with `PipelinedUploader::
/// encode_upload` and split around its `seq` digits, so re-uploads under
/// increasing `seq` are produced by copying bytes, not by serializing.
#[derive(Clone, Debug)]
pub struct UploadTemplate {
    /// The batch (with `seq` 0); the store only looks at app, device and
    /// items, so it stands in for every re-upload.
    pub batch: UploadBatch,
    prefix: Vec<u8>,
    suffix: Vec<u8>,
}

impl UploadTemplate {
    /// Encodes `job`'s report as a one-report batch, as `repro upload`
    /// sends it.
    pub fn new(job: &JobReport) -> Result<UploadTemplate, String> {
        let batch = UploadBatch {
            app: job.app.clone(),
            device: job.device,
            seq: 0,
            items: vec![TelemetryItem::Report(job.report.clone())],
        };
        let frame = PipelinedUploader::encode_upload(&batch);
        let payload = &frame[8..];
        let marker = b"\"seq\":0,";
        let at = payload
            .windows(marker.len())
            .position(|w| w == marker)
            .ok_or_else(|| format!("no seq field in the upload of device {}", job.device))?;
        let template = UploadTemplate {
            prefix: payload[..at + marker.len() - 2].to_vec(),
            suffix: payload[at + marker.len() - 1..].to_vec(),
            batch,
        };
        // The splice must reproduce the encoder byte for byte.
        for seq in [1u64, 12_345] {
            let mut spliced = Vec::new();
            template.frame(seq, &mut spliced);
            let mut b = template.batch.clone();
            b.seq = seq;
            if spliced != PipelinedUploader::encode_upload(&b) {
                return Err(format!(
                    "spliced upload differs from encode_upload for seq {seq}"
                ));
            }
        }
        Ok(template)
    }

    /// Writes the complete frame for `seq` into `out` (cleared first).
    pub fn frame(&self, seq: u64, out: &mut Vec<u8>) {
        let digits = seq.to_string();
        let len = self.prefix.len() + digits.len() + self.suffix.len();
        out.clear();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&(len as u32).to_be_bytes());
        out.extend_from_slice(&self.prefix);
        out.extend_from_slice(digits.as_bytes());
        out.extend_from_slice(&self.suffix);
    }

    /// The ingest fingerprint of the upload for `seq` — what its ACK must
    /// carry.
    pub fn fingerprint(&self, seq: u64) -> u64 {
        let mut f = Vec::new();
        self.frame(seq, &mut f);
        upload_fingerprint_from_payload(&f[8..], WireVersion::V2)
            .expect("our own frames are canonical")
    }
}

/// Raw response frames of one connection, in arrival order.
#[derive(Debug, Default)]
pub struct Responses {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Responses {
    /// Responses received.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether nothing arrived.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th complete response frame.
    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Decodes the `i`-th response.
    pub fn decode(&self, i: usize) -> Result<Response, String> {
        decode_frame::<Response>(self.frame(i)).map_err(|e| e.to_string())
    }

    /// Appends one complete response frame.
    pub fn push(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
    }
}

/// Connects one load-generator connection (Nagle off: frames leave now).
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// Asks the server to stop and waits for its threads; returns its final
/// counters. Every load-generator connection must be closed first.
pub fn shutdown(server: TelemetryServer) -> Result<hd_telemetry::ServerStats, String> {
    match round_trip(server.local_addr(), &encode_frame(&Request::Shutdown))? {
        Response::Bye => Ok(server.join()),
        other => Err(format!("shutdown answered with {other:?}")),
    }
}

/// One blocking request/response round trip on a fresh connection.
pub fn round_trip(addr: SocketAddr, frame: &[u8]) -> Result<Response, String> {
    let mut s = connect(addr).map_err(|e| e.to_string())?;
    s.write_all(frame).map_err(|e| e.to_string())?;
    let (mut r, mut buf) = (Responses::default(), Vec::new());
    while r.is_empty() {
        read_frames(&mut s, &mut buf, |f| r.push(f)).map_err(|e| e.to_string())?;
    }
    r.decode(0)
}

/// Reads once from `s` and hands every frame completed by those bytes
/// to `each`; returns how many there were.
fn read_frames(
    s: &mut TcpStream,
    buf: &mut Vec<u8>,
    mut each: impl FnMut(&[u8]),
) -> std::io::Result<usize> {
    let mut chunk = [0u8; 64 * 1024];
    let n = s.read(&mut chunk)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    let (mut at, mut frames) = (0, 0);
    while buf.len() - at >= 8 {
        let len = u32::from_be_bytes(buf[at + 4..at + 8].try_into().expect("4 bytes")) as usize;
        if buf.len() - at < 8 + len {
            break;
        }
        each(&buf[at..at + 8 + len]);
        at += 8 + len;
        frames += 1;
    }
    buf.drain(..at);
    Ok(frames)
}

/// What one upload connection sent and got back. Uploads cycle over
/// the templates `mine`, each device re-uploading under the next `seq`
/// from `first_seq`, so every upload is a unique batch. Only a hash of
/// each response is kept, eight bytes per upload.
#[derive(Clone, Debug, Default)]
pub struct UploadLog {
    /// Templates this connection cycles over (indices into the caller's
    /// template list).
    pub mine: Vec<usize>,
    /// `seq` of each template's first upload on this connection.
    pub first_seq: u64,
    /// Uploads sent.
    pub sent: usize,
    /// FNV-1a of each response frame, in arrival (= request) order.
    pub answers: Vec<u64>,
}

impl UploadLog {
    /// `(template, seq)` of the `k`-th upload sent.
    pub fn upload(&self, k: usize) -> (usize, u64) {
        (
            self.mine[k % self.mine.len()],
            self.first_seq + (k / self.mine.len()) as u64,
        )
    }

    /// Records one response frame.
    pub fn answer(&mut self, frame: &[u8]) {
        self.answers.push(hd_telemetry::fnv1a(frame));
    }
}

/// One request an open-loop connection sends.
#[derive(Clone, Debug)]
pub struct Planned {
    /// When it is due, ns after the loop starts.
    pub due_ns: u64,
    /// Caller-defined request kind (index into the caller's kind list).
    pub kind: usize,
    /// Caller-defined payload selector (device, template, …).
    pub arg: usize,
}

/// What one open-loop connection did.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Actual send time of each planned request, ns after the loop
    /// started.
    pub sent_ns: Vec<u64>,
    /// Response arrival time of each request, ns after the loop started.
    pub recv_ns: Vec<u64>,
    /// The responses, in order.
    pub responses: Responses,
    /// CPU time the loop's sender and reader threads used, s.
    pub cpu_s: f64,
}

impl OpenLoop {
    /// Latency of request `i` measured from when it was due, µs — so a
    /// stall that delays later sends counts against them.
    pub fn latency_us(&self, plan: &[Planned], i: usize) -> f64 {
        (self.recv_ns[i] - plan[i].due_ns) as f64 / 1e3
    }

    /// How late request `i` was sent against its schedule, µs.
    pub fn lag_us(&self, plan: &[Planned], i: usize) -> f64 {
        self.sent_ns[i].saturating_sub(plan[i].due_ns) as f64 / 1e3
    }

    /// Requests sent but never answered when the loop gave up.
    pub fn backlog(&self) -> usize {
        self.sent_ns.len() - self.recv_ns.len()
    }
}

/// Reports the load generator's own health over open loops and their
/// plans: `loadgen.lag_p99_us`, how late sends left against their
/// schedule, and `loadgen.backlog`, requests never answered. Latencies
/// count from the due time either way; these say whether the offered
/// load was the planned one.
pub fn report_health<'a>(
    report: &mut RunReport,
    runs: impl IntoIterator<Item = (&'a [Planned], &'a OpenLoop)>,
) {
    let (mut lags, mut backlog, mut loops) = (Vec::new(), 0, 0u64);
    for (plan, run) in runs {
        lags.extend((0..run.sent_ns.len()).map(|i| run.lag_us(plan, i)));
        backlog += run.backlog();
        loops += 1;
    }
    if let Some(t) = Tail::of(&lags) {
        report.metric("loadgen.lag_p99_us", "us", Better::Lower, t.p99, t.n as u64);
    }
    report.metric(
        "loadgen.backlog",
        "count",
        Better::Lower,
        backlog as f64,
        loops,
    );
}

/// How long the reader waits for a response before giving up on the
/// rest (the server stalled or dropped them).
const SILENCE_LIMIT: Duration = Duration::from_secs(10);

/// How often a windowed sender looks again for a free slot.
const WINDOW_POLL: Duration = Duration::from_micros(20);

/// Open loop: the calling thread sends every planned request at its due
/// time, sleeping in between, whether or not earlier ones have been
/// answered; it builds each frame with `frame_for`, which must only copy
/// prepared bytes. With a `window`, a request also waits until fewer
/// than `window` are unanswered, so a stall on either side cannot turn
/// into a burst larger than the server's queues (its latency still
/// counts from the due time). A reader thread on the same connection
/// only waits in a blocking `read` and timestamps each answer as it
/// arrives — socket receive timeouts tick in scheduler jiffies, far too
/// coarse to pace sends, so sending and receiving cannot share one
/// thread.
///
/// With a tracer, every send becomes a `client.send` span and every
/// answer a `client.rtt` span from due time to arrival (request id =
/// index in `plan`); span times count from the loop's start.
pub fn open_loop(
    stream: TcpStream,
    plan: &[Planned],
    window: Option<usize>,
    mut frame_for: impl FnMut(&Planned, &mut Vec<u8>),
    tracer: Option<&mut Tracer>,
) -> std::io::Result<OpenLoop> {
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(SILENCE_LIMIT))?;
    let mut writer = stream;
    let traced = tracer.is_some();
    let start = Instant::now();
    let ns = move || start.elapsed().as_nanos() as u64;
    let cpu = crate::env::thread_cpu_s();
    // Answers so far; the reader sets `usize::MAX` when it stops, so a
    // windowed sender never waits on a reader that is gone.
    let answered = AtomicUsize::new(0);
    let (sent_ns, send_spans, received) = std::thread::scope(|scope| {
        let answered = &answered;
        let receiver = scope.spawn(move || {
            let cpu = crate::env::thread_cpu_s();
            let (mut responses, mut recv_ns, mut buf) =
                (Responses::default(), Vec::new(), Vec::new());
            while recv_ns.len() < plan.len() {
                match read_frames(&mut reader, &mut buf, |f| responses.push(f)) {
                    Ok(n) => {
                        let t = ns();
                        recv_ns.extend(std::iter::repeat_n(t, n));
                        answered.store(recv_ns.len(), Ordering::Release);
                    }
                    // Silence past the limit, or the server closed: the
                    // rest stays unanswered and shows as backlog.
                    Err(_) => break,
                }
            }
            answered.store(usize::MAX, Ordering::Release);
            (responses, recv_ns, crate::env::thread_cpu_s() - cpu)
        });
        let mut sent_ns = Vec::with_capacity(plan.len());
        let mut spans = Vec::new();
        let mut frame = Vec::new();
        for (i, p) in plan.iter().enumerate() {
            let now = ns();
            if p.due_ns > now {
                std::thread::sleep(Duration::from_nanos(p.due_ns - now));
            }
            if let Some(window) = window {
                while answered.load(Ordering::Acquire).saturating_add(window) <= i {
                    std::thread::sleep(WINDOW_POLL);
                }
            }
            frame_for(p, &mut frame);
            let sent = ns();
            if let Err(e) = writer.write_all(&frame) {
                // Unblock the reader before reporting the failure.
                let _ = writer.shutdown(std::net::Shutdown::Both);
                let _ = receiver.join();
                return Err(e);
            }
            sent_ns.push(sent);
            if traced {
                spans.push((sent, ns()));
            }
        }
        let received = receiver.join().expect("response reader panicked");
        Ok((sent_ns, spans, received))
    })?;
    let (responses, recv_ns, reader_cpu_s) = received;
    let cpu_s = crate::env::thread_cpu_s() - cpu + reader_cpu_s;
    if let Some(t) = tracer {
        for (i, &(a, b)) in send_spans.iter().enumerate() {
            t.push("client.send", None, i as u64, a, b);
        }
        for (i, &r) in recv_ns.iter().enumerate() {
            t.push("client.rtt", None, i as u64, plan[i].due_ns, r);
        }
    }
    Ok(OpenLoop {
        sent_ns,
        recv_ns,
        responses,
        cpu_s,
    })
}
