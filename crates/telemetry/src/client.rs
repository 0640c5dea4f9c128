//! The device-side uploader.
//!
//! Spools [`UploadBatch`]es to a telemetry server over TCP, surviving
//! the transport faults `hd-faults` can inject (dropped connections,
//! delayed deliveries, duplicated frames) and honouring a server's
//! NACKs, which stay in the protocol although this crate's server sends
//! none. Delivery is **at-least-once**; the server's idempotent ingest
//! turns that into exactly-once state.
//!
//! Two clients live here. [`Uploader`] is the synchronous,
//! fault-injectable device path: one batch in flight, deterministic
//! retry/backoff, a full fault tally. [`PipelinedUploader`] is the lean
//! throughput path the ingest benchmark drives: it keeps a window of
//! batches in flight on one connection and reads ACKs in request order
//! (the server guarantees per-connection FIFO responses), which is what
//! pushes a single connection past the syscall-per-batch wall.
//!
//! Determinism contract (what the chaos differential leans on): every
//! fault decision for a batch is drawn from the device's
//! [`NetFaultPlan`] *before* the first send attempt, and the
//! retry-backoff jitter draws from a separate domain-forked RNG stream.
//! NACK timing — which depends on server load — can therefore never
//! perturb the fault schedule, so the injected-fault tally for a given
//! `(root_seed, device)` is a pure function of the batch count.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use hd_faults::{NetFaultConfig, NetFaultPlan, NetFaultTally};
use hd_simrt::SimRng;

use hangdoctor::ActionState;
use hd_control::{
    ControlRequest, ControlResponse, Directives, RolloutSpec, RolloutStage, RolloutStatusInfo,
    StackDump, SyncReport, CONTROL_SCHEMA,
};
use hd_faults::{CtrlFaultConfig, CtrlFaultPlan, CtrlFaultTally};

use crate::error::TelemetryError;
use crate::report::TelemetryReport;
use crate::store::StoreSnapshot;
use crate::wire::{
    encode_frame, encode_frame_in, read_frame, write_frame, FrameError, Request, Response,
    UploadBatch, WireVersion, SCHEMA, SUPPORTED_SCHEMAS,
};

/// Uploader tuning knobs.
#[derive(Clone, Debug)]
pub struct UploaderConfig {
    /// Attempts per batch before giving up (first try included).
    pub max_attempts: u32,
    /// Base backoff unit, ms; attempt `k` waits about `base * 2^k`.
    pub base_backoff_ms: u64,
    /// Network fault injection (chaos mode); default injects nothing.
    pub net_faults: NetFaultConfig,
}

impl Default for UploaderConfig {
    fn default() -> UploaderConfig {
        UploaderConfig {
            max_attempts: 12,
            base_backoff_ms: 1,
            net_faults: NetFaultConfig::none(),
        }
    }
}

/// Receipt for one delivered batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UploadReceipt {
    /// The server-computed content fingerprint.
    pub fingerprint: u64,
    /// Whether the server absorbed the batch as a duplicate.
    pub duplicate: bool,
    /// Attempts it took (1 = first try).
    pub attempts: u32,
}

/// A device-side uploader bound to one server address.
pub struct Uploader {
    addr: SocketAddr,
    cfg: UploaderConfig,
    conn: Option<TcpStream>,
    faults: NetFaultPlan,
    backoff_rng: SimRng,
}

impl Uploader {
    /// Creates the uploader for device `device` under `root_seed`. The
    /// fault plan and backoff jitter derive deterministically from the
    /// pair, domain-separated from each other and from the simulation's
    /// own fault stream.
    pub fn new(addr: SocketAddr, device: u64, root_seed: u64, cfg: UploaderConfig) -> Uploader {
        let faults = NetFaultPlan::for_device(cfg.net_faults, root_seed, device);
        // A distinct stream for backoff jitter: retries consume from it
        // at NACK-dependent times, so it must not share state with the
        // fault schedule.
        let backoff_rng = SimRng::seed_from_u64(hd_faults::net_fault_seed(
            root_seed ^ 0xBACC_0FF5_EED0_15EA,
            device,
        ));
        Uploader {
            addr,
            cfg,
            conn: None,
            faults,
            backoff_rng,
        }
    }

    /// A fault-free uploader (production path).
    pub fn plain(addr: SocketAddr) -> Uploader {
        Uploader::new(addr, 0, 0, UploaderConfig::default())
    }

    /// The injected-fault and recovery tally so far.
    pub fn tally(&self) -> NetFaultTally {
        self.faults.tally()
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.conn.is_none() {
            self.conn = Some(TcpStream::connect(self.addr)?);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn backoff(&mut self, attempt: u32, server_hint_ms: Option<u64>) {
        let base = self.cfg.base_backoff_ms.max(1);
        let exp = base.saturating_mul(1u64 << attempt.min(10));
        let jitter = self.backoff_rng.uniform_u64(0, base);
        let wait = server_hint_ms.unwrap_or(0).max(exp) + jitter;
        thread::sleep(Duration::from_millis(wait));
    }

    /// One request/response round trip on the current connection.
    fn round_trip(&mut self, frame: &[u8]) -> Result<Response, FrameError> {
        let stream = self.connect().map_err(|e| FrameError::Io(e.to_string()))?;
        if let Err(e) = write_frame(stream, frame) {
            self.conn = None;
            return Err(FrameError::Io(e.to_string()));
        }
        match read_frame(stream) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Explicit version negotiation: tells the server every *telemetry*
    /// dialect this build speaks and returns the newest common one.
    /// Optional — a connection that skips the handshake is answered in
    /// whatever dialect its requests arrive in. The uploader never
    /// offers the control dialect; that is [`ControlClient`]'s opening
    /// move.
    pub fn negotiate(&mut self) -> Result<WireVersion, TelemetryError> {
        let hello = Request::Hello {
            supported: vec![SCHEMA.to_string()],
        };
        match self.round_trip(&encode_frame(&hello))? {
            Response::Welcome { schema } => {
                WireVersion::from_tag(&schema).ok_or(TelemetryError::SchemaDrift(schema))
            }
            Response::Error(e) => Err(TelemetryError::Protocol(e)),
            other => Err(TelemetryError::Protocol(format!(
                "hello answered with {other:?}"
            ))),
        }
    }

    /// Delivers one batch, retrying NACKs and transport errors with
    /// deterministic exponential backoff. Injects this batch's
    /// scheduled faults (drawn up front) along the way.
    pub fn upload(&mut self, batch: &UploadBatch) -> Result<UploadReceipt, TelemetryError> {
        // Draw the whole fault schedule for this batch before touching
        // the network, so retries cannot perturb it.
        let injected = self.faults.next_batch();

        if injected.drop_connection {
            // The connection "dies" before the batch goes out; the next
            // attempt transparently reconnects.
            self.conn = None;
        }
        if let Some(delay_ns) = injected.delay_ns {
            thread::sleep(Duration::from_nanos(delay_ns));
        }

        let frame = encode_frame(&Request::Upload(batch.clone()));
        let mut last_err = String::new();
        for attempt in 0..self.cfg.max_attempts {
            if attempt > 0 {
                self.faults.tally.upload_retries += 1;
            }
            match self.round_trip(&frame) {
                Ok(Response::Ack {
                    fingerprint,
                    duplicate,
                }) => {
                    if duplicate {
                        self.faults.tally.duplicates_absorbed += 1;
                    }
                    if injected.duplicate {
                        // Deliver the frame a second time to exercise
                        // idempotent ingest; keep the protocol in sync
                        // by reading (and checking) the response.
                        match self.round_trip(&frame) {
                            Ok(Response::Ack {
                                duplicate: true, ..
                            }) => self.faults.tally.duplicates_absorbed += 1,
                            Ok(Response::Nack { .. }) | Err(_) => {
                                // The duplicate was shed or lost in
                                // transport — acceptable: the original
                                // delivery already ACKed.
                            }
                            Ok(other) => {
                                return Err(TelemetryError::Protocol(format!(
                                    "duplicate delivery answered with {other:?}"
                                )))
                            }
                        }
                    }
                    return Ok(UploadReceipt {
                        fingerprint,
                        duplicate,
                        attempts: attempt + 1,
                    });
                }
                Ok(Response::Nack { retry_after_ms }) => {
                    self.faults.tally.nacks_received += 1;
                    last_err = "NACK".to_string();
                    self.backoff(attempt, Some(retry_after_ms));
                }
                Ok(Response::Error(e)) => return Err(TelemetryError::Protocol(e)),
                Ok(other) => {
                    return Err(TelemetryError::Protocol(format!(
                        "upload answered with {other:?}"
                    )))
                }
                Err(e) => {
                    last_err = e.to_string();
                    self.backoff(attempt, None);
                }
            }
        }
        Err(TelemetryError::Exhausted(last_err))
    }

    /// Queries the server's current top-N aggregation.
    pub fn query(&mut self, top_n: usize) -> Result<TelemetryReport, TelemetryError> {
        let frame = encode_frame(&Request::Query { top_n });
        match self.round_trip(&frame) {
            Ok(Response::Report(report)) => Ok(report),
            Ok(other) => Err(TelemetryError::Protocol(format!(
                "query answered with {other:?}"
            ))),
            Err(e) => Err(TelemetryError::Exhausted(e.to_string())),
        }
    }

    /// Exports the node's raw aggregation state (the semilattice
    /// elements, not the lossy top-N projection) — what the cluster
    /// coordinator folds across nodes.
    pub fn export(&mut self) -> Result<StoreSnapshot, TelemetryError> {
        let frame = encode_frame(&Request::Export);
        match self.round_trip(&frame) {
            Ok(Response::State(snapshot)) => Ok(snapshot),
            Ok(other) => Err(TelemetryError::Protocol(format!(
                "export answered with {other:?}"
            ))),
            Err(e) => Err(TelemetryError::Exhausted(e.to_string())),
        }
    }

    /// Asks the server to shut down after this connection.
    pub fn shutdown(&mut self) -> Result<(), TelemetryError> {
        let frame = encode_frame(&Request::Shutdown);
        match self.round_trip(&frame) {
            Ok(Response::Bye) => {
                self.conn = None;
                Ok(())
            }
            Ok(other) => Err(TelemetryError::Protocol(format!(
                "shutdown answered with {other:?}"
            ))),
            Err(e) => Err(TelemetryError::Exhausted(e.to_string())),
        }
    }
}

/// The lean throughput path: keeps many batches in flight on one
/// connection and reads ACKs in request order. No fault injection, no
/// internal retries. A NACK (which this crate's server never sends)
/// surfaces as [`TelemetryError::Nack`] in request order, so the caller
/// knows exactly which batch was shed.
pub struct PipelinedUploader {
    stream: TcpStream,
    inflight: usize,
}

impl PipelinedUploader {
    /// Connects to the server (Nagle off — frames should leave now).
    pub fn connect(addr: SocketAddr) -> Result<PipelinedUploader, TelemetryError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(PipelinedUploader {
            stream,
            inflight: 0,
        })
    }

    /// Batches currently awaiting an ACK.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Fires one batch without waiting for its response.
    pub fn send(&mut self, batch: &UploadBatch) -> Result<(), TelemetryError> {
        let frame = PipelinedUploader::encode_upload(batch);
        self.send_encoded(&frame)
    }

    /// Encodes an upload once, for [`PipelinedUploader::send_encoded`].
    /// A spooling device (or a benchmark harness) serializes each batch
    /// a single time and can re-send the identical bytes on retry.
    pub fn encode_upload(batch: &UploadBatch) -> Vec<u8> {
        encode_frame(&Request::Upload(batch.clone()))
    }

    /// Fires one pre-encoded upload frame without waiting for its
    /// response.
    pub fn send_encoded(&mut self, frame: &[u8]) -> Result<(), TelemetryError> {
        write_frame(&mut self.stream, frame)?;
        self.inflight += 1;
        Ok(())
    }

    /// Blocks for the next response in request order. A NACK is
    /// returned as [`TelemetryError::Nack`]; the caller owns the
    /// in-flight bookkeeping, so it knows which batch that was.
    pub fn recv(&mut self) -> Result<UploadReceipt, TelemetryError> {
        if self.inflight == 0 {
            return Err(TelemetryError::Protocol(
                "recv with nothing in flight".to_string(),
            ));
        }
        self.inflight -= 1;
        match read_frame::<Response>(&mut self.stream)? {
            Response::Ack {
                fingerprint,
                duplicate,
            } => Ok(UploadReceipt {
                fingerprint,
                duplicate,
                attempts: 1,
            }),
            Response::Nack { retry_after_ms } => Err(TelemetryError::Nack { retry_after_ms }),
            Response::Error(e) => Err(TelemetryError::Protocol(e)),
            other => Err(TelemetryError::Protocol(format!(
                "upload answered with {other:?}"
            ))),
        }
    }
}

/// The control-plane client: drives `hang-doctor/control/v1` exchanges
/// over the same framed transport the uploader uses. Both the device
/// agent loop (periodic syncs) and the operator CLI (probes, threshold
/// pushes) speak through it.
///
/// Fault tolerance leans entirely on message idempotency: every control
/// request is safe to re-send (replace-semantics syncs, target-stage
/// advances, full-desired-state responses), so a lost frame is simply
/// retried and a duplicated frame's second response is read and
/// absorbed. The injected schedule comes from a deterministic
/// [`CtrlFaultPlan`], domain-separated from every other fault stream.
pub struct ControlClient {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    faults: CtrlFaultPlan,
    max_attempts: u32,
}

impl ControlClient {
    /// A fault-free control client (production path).
    pub fn connect(addr: SocketAddr) -> ControlClient {
        ControlClient {
            addr,
            conn: None,
            faults: CtrlFaultPlan::disabled(),
            max_attempts: 12,
        }
    }

    /// A control client whose frames suffer the deterministic fault
    /// schedule derived from `(root_seed, device)`.
    pub fn with_faults(
        addr: SocketAddr,
        cfg: CtrlFaultConfig,
        root_seed: u64,
        device: u64,
    ) -> ControlClient {
        ControlClient {
            addr,
            conn: None,
            faults: CtrlFaultPlan::for_device(cfg, root_seed, device),
            max_attempts: 12,
        }
    }

    /// The injected-fault and recovery tally so far.
    pub fn tally(&self) -> CtrlFaultTally {
        self.faults.tally()
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.conn.is_none() {
            self.conn = Some(TcpStream::connect(self.addr)?);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn round_trip(&mut self, frame: &[u8]) -> Result<Response, FrameError> {
        let stream = self.stream().map_err(|e| FrameError::Io(e.to_string()))?;
        if let Err(e) = write_frame(stream, frame) {
            self.conn = None;
            return Err(FrameError::Io(e.to_string()));
        }
        match read_frame(stream) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Opens with a Hello offering the control dialect first; the server
    /// must answer in it.
    pub fn negotiate(&mut self) -> Result<WireVersion, TelemetryError> {
        let hello = Request::Hello {
            supported: SUPPORTED_SCHEMAS.iter().map(|s| s.to_string()).collect(),
        };
        let frame = encode_frame_in(WireVersion::Control, &hello);
        match self.round_trip(&frame)? {
            Response::Welcome { schema } if schema == CONTROL_SCHEMA => Ok(WireVersion::Control),
            Response::Welcome { schema } => Err(TelemetryError::SchemaDrift(schema)),
            Response::Error(e) => Err(TelemetryError::Protocol(e)),
            other => Err(TelemetryError::Protocol(format!(
                "hello answered with {other:?}"
            ))),
        }
    }

    /// One control round trip, surviving this frame's injected faults:
    /// a lost frame reconnects and re-sends, a delayed frame waits, a
    /// duplicated frame goes out twice and the extra response is read
    /// and absorbed. Safe precisely because every control message is
    /// idempotent.
    pub fn request(&mut self, req: &ControlRequest) -> Result<ControlResponse, TelemetryError> {
        let frame = encode_frame_in(WireVersion::Control, &Request::Control(req.clone()));
        // The whole fault schedule for this frame is drawn before the
        // first byte moves, so retry timing cannot perturb it.
        let injected = self.faults.next_frame();
        if injected.drop {
            // The frame dies in flight: the connection is gone and the
            // client must re-send.
            self.conn = None;
            self.faults.tally.resends += 1;
        }
        if let Some(delay_ns) = injected.delay_ns {
            thread::sleep(Duration::from_nanos(delay_ns));
        }
        let mut last_err = String::new();
        for _ in 0..self.max_attempts {
            match self.round_trip(&frame) {
                Ok(Response::Control(resp)) => {
                    if injected.duplicate {
                        // Deliver the frame a second time to exercise
                        // idempotency; read (and absorb) its response to
                        // keep the connection's request/response cadence.
                        if let Ok(Response::Control(_)) = self.round_trip(&frame) {
                            self.faults.tally.duplicates_absorbed += 1;
                        }
                    }
                    return Ok(resp);
                }
                Ok(Response::Error(e)) => return Err(TelemetryError::Protocol(e)),
                Ok(other) => {
                    return Err(TelemetryError::Protocol(format!(
                        "control request answered with {other:?}"
                    )))
                }
                Err(e) => {
                    last_err = e.to_string();
                    self.conn = None;
                }
            }
        }
        Err(TelemetryError::Exhausted(last_err))
    }

    /// Device path: reports live state, returns the server's directives.
    pub fn sync(&mut self, report: SyncReport) -> Result<Directives, TelemetryError> {
        match self.request(&ControlRequest::Sync(report))? {
            ControlResponse::Directives(d) => Ok(d),
            ControlResponse::Err(e) => Err(TelemetryError::Protocol(e)),
            other => Err(TelemetryError::Protocol(format!(
                "sync answered with {other:?}"
            ))),
        }
    }

    /// Operator probe: a synced device's live S-Checker state table.
    pub fn query_state(
        &mut self,
        device: u32,
    ) -> Result<Vec<(u64, ActionState, u32)>, TelemetryError> {
        match self.request(&ControlRequest::QueryState { device })? {
            ControlResponse::StateTable { states, .. } => Ok(states),
            ControlResponse::Err(e) => Err(TelemetryError::Protocol(e)),
            other => Err(TelemetryError::Protocol(format!(
                "state query answered with {other:?}"
            ))),
        }
    }

    /// Operator probe: a device's most recent on-demand stack dump.
    pub fn pull_stack(&mut self, device: u32) -> Result<Option<StackDump>, TelemetryError> {
        match self.request(&ControlRequest::PullStack { device })? {
            ControlResponse::Stack { stack, .. } => Ok(stack),
            ControlResponse::Err(e) => Err(TelemetryError::Protocol(e)),
            other => Err(TelemetryError::Protocol(format!(
                "stack pull answered with {other:?}"
            ))),
        }
    }

    /// Operator: enable/disable phase-2 diagnosis for one app.
    pub fn toggle_diagnosis(&mut self, app: &str, enabled: bool) -> Result<(), TelemetryError> {
        match self.request(&ControlRequest::ToggleDiagnosis {
            app: app.to_string(),
            enabled,
        })? {
            ControlResponse::Ok => Ok(()),
            ControlResponse::Err(e) => Err(TelemetryError::Protocol(e)),
            other => Err(TelemetryError::Protocol(format!(
                "toggle answered with {other:?}"
            ))),
        }
    }

    /// Operator: starts a canaried rollout of retrained thresholds.
    pub fn push_thresholds(
        &mut self,
        spec: RolloutSpec,
    ) -> Result<RolloutStatusInfo, TelemetryError> {
        self.rollout_response(&ControlRequest::PushThresholds(spec))
    }

    /// Operator: advances the rollout to `stage`.
    pub fn advance_rollout(
        &mut self,
        stage: RolloutStage,
    ) -> Result<RolloutStatusInfo, TelemetryError> {
        self.rollout_response(&ControlRequest::AdvanceRollout { stage })
    }

    /// Operator: the rollout's current status.
    pub fn rollout_status(&mut self) -> Result<RolloutStatusInfo, TelemetryError> {
        self.rollout_response(&ControlRequest::RolloutStatus)
    }

    fn rollout_response(
        &mut self,
        req: &ControlRequest,
    ) -> Result<RolloutStatusInfo, TelemetryError> {
        match self.request(req)? {
            ControlResponse::Rollout(status) => Ok(status),
            ControlResponse::Err(e) => Err(TelemetryError::Protocol(e)),
            other => Err(TelemetryError::Protocol(format!(
                "rollout request answered with {other:?}"
            ))),
        }
    }

    /// Asks the server to shut down after this connection.
    pub fn shutdown(&mut self) -> Result<(), TelemetryError> {
        let frame = encode_frame_in(WireVersion::Control, &Request::Shutdown);
        match self.round_trip(&frame) {
            Ok(Response::Bye) => {
                self.conn = None;
                Ok(())
            }
            Ok(other) => Err(TelemetryError::Protocol(format!(
                "shutdown answered with {other:?}"
            ))),
            Err(e) => Err(TelemetryError::Exhausted(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::TelemetryServer;
    use crate::wire::TelemetryItem;
    use hangdoctor::HangBugReport;

    fn batch(device: u32, seq: u64) -> UploadBatch {
        UploadBatch {
            app: "app".to_string(),
            device,
            seq,
            items: vec![TelemetryItem::Report(HangBugReport::new("app"))],
        }
    }

    #[test]
    fn uploader_delivers_and_queries() {
        let server = TelemetryServer::builder().start().unwrap();
        let mut up = Uploader::plain(server.local_addr());
        assert_eq!(up.negotiate().unwrap(), WireVersion::V2);
        let receipt = up.upload(&batch(1, 0)).unwrap();
        assert!(!receipt.duplicate);
        assert_eq!(receipt.attempts, 1);
        // Retransmission of the same batch is absorbed.
        let again = up.upload(&batch(1, 0)).unwrap();
        assert!(again.duplicate);
        assert_eq!(again.fingerprint, receipt.fingerprint);

        let report = up.query(10).unwrap();
        assert_eq!(report.devices, 1);

        // Export returns the raw semilattice state.
        let snapshot = up.export().unwrap();
        assert_eq!(snapshot.devices.len(), 1);
        assert_eq!(snapshot.stats.batches_applied, 1);

        up.shutdown().unwrap();
        let stats = server.join();
        assert_eq!(stats.ingest.batches_applied, 1);
        assert_eq!(stats.ingest.duplicates_absorbed, 1);
    }

    #[test]
    fn injected_duplicates_are_absorbed_not_double_counted() {
        let server = TelemetryServer::builder().start().unwrap();
        let cfg = UploaderConfig {
            net_faults: NetFaultConfig::chaos(1.0), // every category fires
            ..Default::default()
        };
        let mut up = Uploader::new(server.local_addr(), 7, 42, cfg);

        for seq in 0..5 {
            up.upload(&batch(7, seq)).unwrap();
        }
        let tally = up.tally();
        assert_eq!(tally.frames_duplicated, 5);
        assert_eq!(tally.connections_dropped, 5);
        assert_eq!(tally.deliveries_delayed, 5);
        assert_eq!(tally.duplicates_absorbed, 5);

        let report = up.query(10).unwrap();
        assert_eq!(report.devices, 1);
        up.shutdown().unwrap();
        let stats = server.join();
        // 5 unique batches applied; 5 duplicate deliveries absorbed.
        assert_eq!(stats.ingest.batches_applied, 5);
        assert_eq!(stats.ingest.duplicates_absorbed, 5);
    }

    fn sync_report(device: u32) -> SyncReport {
        SyncReport {
            device,
            app: "app".to_string(),
            states: vec![(1, ActionState::Suspicious, 0)],
            stack: Some(StackDump {
                device,
                action: "act".to_string(),
                uid: 1,
                frames: vec!["frame".to_string()],
                response_ns: 150_000_000,
            }),
            health: Default::default(),
        }
    }

    #[test]
    fn control_client_probes_a_live_server() {
        const UPLOADS: u64 = 64;
        const WINDOW: u64 = 8;
        let server = TelemetryServer::builder().start().unwrap();
        let addr = server.local_addr();
        // Pipelined uploads on a second connection: the first window
        // stays unanswered until the probes below are done, then the
        // rest stream while the probes repeat.
        let (sent_tx, sent_rx) = std::sync::mpsc::channel();
        let (probed_tx, probed_rx) = std::sync::mpsc::channel();
        let uploads = std::thread::spawn(move || {
            let mut up = PipelinedUploader::connect(addr).unwrap();
            let batches: Vec<UploadBatch> = (0..UPLOADS).map(|seq| batch(2, seq)).collect();
            let mut fps = batches.iter().map(crate::fingerprint::batch_fingerprint);
            let mut unsent = batches.iter();
            for b in unsent.by_ref().take(WINDOW as usize) {
                up.send(b).unwrap();
            }
            sent_tx.send(()).unwrap();
            probed_rx.recv().unwrap();
            let mut acked = 0;
            while up.inflight() > 0 {
                let receipt = up.recv().unwrap();
                assert_eq!(Some(receipt.fingerprint), fps.next());
                assert!(!receipt.duplicate);
                acked += 1;
                if let Some(b) = unsent.next() {
                    up.send(b).unwrap();
                }
            }
            acked
        });
        sent_rx.recv().unwrap();

        let mut ctl = ControlClient::connect(addr);
        assert_eq!(ctl.negotiate().unwrap(), WireVersion::Control);

        let directives = ctl.sync(sync_report(4)).unwrap();
        assert!(directives.diagnosis_enabled);
        assert_eq!(directives.thresholds, None);

        assert_eq!(
            ctl.query_state(4).unwrap(),
            vec![(1, ActionState::Suspicious, 0)]
        );
        let stack = ctl.pull_stack(4).unwrap().expect("stack present");
        assert_eq!(stack.action, "act");
        assert!(ctl.query_state(99).is_err(), "unknown device is typed");

        ctl.toggle_diagnosis("app", false).unwrap();
        let directives = ctl.sync(sync_report(4)).unwrap();
        assert!(!directives.diagnosis_enabled);

        probed_tx.send(()).unwrap();
        while !uploads.is_finished() {
            assert_eq!(
                ctl.query_state(4).unwrap(),
                vec![(1, ActionState::Suspicious, 0)]
            );
        }
        assert_eq!(uploads.join().unwrap(), UPLOADS);

        // Uploads and control frames share one server.
        let mut up = Uploader::plain(addr);
        up.upload(&batch(1, 0)).unwrap();
        drop(up); // close the upload connection so join can drain

        ctl.shutdown().unwrap();
        let stats = server.join();
        assert_eq!(stats.ingest.batches_applied, UPLOADS + 1);
    }

    #[test]
    fn control_client_survives_full_chaos() {
        use hangdoctor::SymptomThresholds;
        use hd_control::{device_bucket, RolloutStage};

        let server = TelemetryServer::builder().start().unwrap();
        let mut ctl =
            ControlClient::with_faults(server.local_addr(), CtrlFaultConfig::chaos(1.0), 42, 1);
        // Every frame is dropped once, delayed, and duplicated — the
        // outcome must match a fault-free exchange exactly.
        let spec = RolloutSpec {
            thresholds: SymptomThresholds {
                task_clock_diff: 5.0e7,
                ..SymptomThresholds::default()
            },
            baseline: SymptomThresholds::default(),
        };
        let in_cohort = (1..10_000u32)
            .find(|&d| device_bucket(d) < RolloutStage::Canary.cutoff())
            .unwrap();
        let status = ctl.push_thresholds(spec).unwrap();
        assert_eq!(status.stage, "canary");
        let d = ctl.sync(sync_report(in_cohort)).unwrap();
        assert_eq!(d.thresholds, Some(spec.thresholds));
        // Duplicate advances land on an idempotent target stage.
        let status = ctl.advance_rollout(RolloutStage::Expanded).unwrap();
        assert_eq!(status.stage, "expanded");
        let status = ctl.advance_rollout(RolloutStage::Expanded).unwrap();
        assert_eq!(status.stage, "expanded");

        let tally = ctl.tally();
        assert!(tally.frames_lost > 0, "{tally:?}");
        assert!(tally.resends >= tally.frames_lost, "{tally:?}");
        assert!(tally.duplicates_absorbed > 0, "{tally:?}");

        ctl.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn pipelined_uploader_windows_without_losing_order() {
        let server = TelemetryServer::builder().start().unwrap();
        let mut up = PipelinedUploader::connect(server.local_addr()).unwrap();
        let batches: Vec<UploadBatch> = (0..16).map(|seq| batch(3, seq)).collect();
        let fps: Vec<u64> = batches
            .iter()
            .map(crate::fingerprint::batch_fingerprint)
            .collect();
        for b in &batches {
            up.send(b).unwrap();
        }
        assert_eq!(up.inflight(), 16);
        for fp in fps {
            let receipt = up.recv().unwrap();
            assert_eq!(receipt.fingerprint, fp);
            assert!(!receipt.duplicate);
        }
        assert_eq!(up.inflight(), 0);
        drop(up);

        let mut ctl = Uploader::plain(server.local_addr());
        ctl.shutdown().unwrap();
        let stats = server.join();
        assert_eq!(stats.ingest.batches_applied, 16);
    }
}
