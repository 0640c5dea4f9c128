//! The telemetry wire protocol: length-prefixed JSON frames.
//!
//! Every message travels as one frame:
//!
//! ```text
//! +------+----------------+------------------------------------------+
//! | HDT1 | u32 BE length  | JSON envelope {"schema": ..., "body": …} |
//! +------+----------------+------------------------------------------+
//! ```
//!
//! The envelope carries a protocol tag. This build speaks two
//! dialects: telemetry ([`SCHEMA`], `hang-doctor/telemetry/v2`) and
//! control ([`CONTROL_SCHEMA`]); the server answers each connection in
//! the dialect its requests arrive in. A frame with any *other* tag —
//! including the retired `hang-doctor/telemetry/v1` — is rejected
//! with [`FrameError::Schema`] before its body is interpreted, so
//! protocol drift fails loudly at the boundary instead of corrupting
//! the aggregation store. Version negotiation is explicit: a client
//! may open with [`Request::Hello`] listing the dialects it speaks and
//! the server answers [`Response::Welcome`] with the newest common
//! one. All decode failures are typed [`FrameError`]s — a truncated,
//! corrupt, or oversized frame never panics the server.
//!
//! Encoding is canonical: the JSON writer is deterministic (struct
//! fields in declaration order, map keys sorted), so
//! `encode(decode(encode(x))) == encode(x)` byte-for-byte. The ingest
//! fingerprints of `fingerprint.rs` rely on exactly this property, and
//! they hash the *batch*, not the envelope.
//!
//! Neither direction builds a tree. Encoding writes the envelope's
//! bytes around the body's JSON; decoding reads the envelope's keys as
//! they come and the body straight into its type. The server's read
//! path ([`drain_requests`]) also hands on an upload's batch JSON as it
//! arrived, when the frame is in canonical envelope form, so the batch
//! is fingerprinted and WAL-logged from its wire bytes, never
//! re-encoded.

use std::fmt;
use std::io::{self, Read, Write};
use std::ops::{ControlFlow, Range};

use hangdoctor::{DeviceSnapshot, HangBugReport};
use hd_control::{ControlRequest, ControlResponse, CONTROL_SCHEMA};
use serde::{Deserialize, Serialize};

use crate::report::TelemetryReport;
use crate::store::StoreSnapshot;

/// Current protocol/schema tag carried by every frame envelope.
pub const SCHEMA: &str = "hang-doctor/telemetry/v2";

/// Every dialect this build speaks, newest first (the negotiation
/// preference order). The control dialect outranks the telemetry
/// dialect: a client that speaks it is a control client and wants its
/// connection answered in it, while plain uploaders never offer it.
pub const SUPPORTED_SCHEMAS: [&str; 2] = [CONTROL_SCHEMA, SCHEMA];

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"HDT1";

/// Upper bound on one frame's JSON payload, bytes.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// A protocol dialect a frame can arrive in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireVersion {
    /// `hang-doctor/telemetry/v2` — adds Hello/Welcome negotiation and
    /// the cluster Export exchange.
    V2,
    /// `hang-doctor/control/v1` — the bidirectional control plane
    /// riding the same framed transport (PR 10).
    Control,
}

impl WireVersion {
    /// The envelope tag of this dialect.
    pub fn tag(self) -> &'static str {
        match self {
            WireVersion::V2 => SCHEMA,
            WireVersion::Control => CONTROL_SCHEMA,
        }
    }

    /// Parses an envelope tag into a dialect, if supported.
    pub fn from_tag(tag: &str) -> Option<WireVersion> {
        match tag {
            SCHEMA => Some(WireVersion::V2),
            CONTROL_SCHEMA => Some(WireVersion::Control),
            _ => None,
        }
    }

    /// Picks the newest dialect both sides speak, given the peer's
    /// advertised tags.
    pub fn negotiate(peer: &[String]) -> Option<WireVersion> {
        SUPPORTED_SCHEMAS
            .iter()
            .find(|ours| peer.iter().any(|theirs| theirs == *ours))
            .and_then(|tag| WireVersion::from_tag(tag))
    }
}

/// One item of an upload batch: either a bare hang bug report or a full
/// device snapshot (whose embedded report is what gets aggregated).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum TelemetryItem {
    /// A device's accumulated hang bug report.
    Report(HangBugReport),
    /// A full persisted device snapshot.
    Snapshot(DeviceSnapshot),
}

impl TelemetryItem {
    /// The hang bug report this item contributes to aggregation.
    pub fn report(&self) -> &HangBugReport {
        match self {
            TelemetryItem::Report(r) => r,
            TelemetryItem::Snapshot(s) => &s.report,
        }
    }

    /// Number of individual reports in this item (always 1 today; kept
    /// as a method so batch accounting has one definition).
    pub fn reports(&self) -> u64 {
        1
    }
}

/// One device-side upload: a batch of items from a single `(app,
/// device)` pair. The pair is also the server's shard key, so all
/// batches of one device land on one worker in delivery order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UploadBatch {
    /// App the device runs (shard-key half; items carry their own app
    /// names for aggregation).
    pub app: String,
    /// Globally unique device id (shard-key half).
    pub device: u32,
    /// Device-local batch sequence number.
    pub seq: u64,
    /// The batch payload.
    pub items: Vec<TelemetryItem>,
}

impl UploadBatch {
    /// Total reports carried by the batch.
    pub fn reports(&self) -> u64 {
        self.items.iter().map(TelemetryItem::reports).sum()
    }
}

/// Client → server messages.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Request {
    /// Ingest a batch of hang reports.
    Upload(UploadBatch),
    /// Return the current cross-device aggregation, top-`top_n` groups.
    Query {
        /// Maximum number of hang groups to return.
        top_n: usize,
    },
    /// Stop the server after this connection closes.
    Shutdown,
    /// v2: explicit version negotiation — the client lists every
    /// dialect it speaks.
    Hello {
        /// Envelope tags the client can encode and decode.
        supported: Vec<String>,
    },
    /// v2: export the node's raw aggregation state (the semilattice
    /// elements themselves, not the lossy top-N projection) so a
    /// cluster coordinator can fold it with other nodes'.
    Export,
    /// Control dialect: a fleet-control message (device sync, operator
    /// probe, or threshold rollout command) for the server's embedded
    /// [`hd_control::FleetController`].
    Control(ControlRequest),
}

/// Server → client messages.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Response {
    /// The batch was applied to the aggregation store (or recognized as
    /// an exact duplicate and absorbed).
    Ack {
        /// Ingest fingerprint of the batch.
        fingerprint: u64,
        /// Whether idempotent ingest absorbed it as a duplicate.
        duplicate: bool,
    },
    /// The server shed the upload; retry after backing off. The batch
    /// was **not** applied. This crate's server sends none (the io
    /// worker that decodes an upload applies it), but the uploaders
    /// still honour one, and perfbench's ACK check names it.
    Nack {
        /// Suggested client backoff, ms.
        retry_after_ms: u64,
    },
    /// Answer to a query.
    Report(TelemetryReport),
    /// The request could not be served.
    Error(String),
    /// Acknowledges a shutdown request.
    Bye,
    /// v2: answer to [`Request::Hello`] — the newest dialect both
    /// sides speak.
    Welcome {
        /// The negotiated envelope tag.
        schema: String,
    },
    /// v2: answer to [`Request::Export`] — the node's full aggregation
    /// state.
    State(StoreSnapshot),
    /// Control dialect: the controller's answer to a
    /// [`Request::Control`] message.
    Control(ControlResponse),
}

/// Typed decode failure. Every malformed frame maps onto one of these —
/// never a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum FrameError {
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The stream ended before a complete frame arrived.
    Truncated {
        /// Bytes a complete frame needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The declared payload length exceeds [`MAX_FRAME`].
    TooLarge {
        /// Declared payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The envelope carries an unexpected schema tag.
    Schema(String),
    /// The payload is not valid JSON for the expected message type.
    Json(String),
    /// An I/O error interrupted the read.
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Schema(s) => write!(f, "unexpected schema tag `{s}`"),
            FrameError::Json(e) => write!(f, "malformed frame payload: {e}"),
            FrameError::Io(e) => write!(f, "i/o error mid-frame: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// What precedes the schema tag in an encoded envelope.
const ENVELOPE_HEAD: &[u8] = b"{\"schema\":\"";
/// What sits between the schema tag and the body in an encoded envelope.
const ENVELOPE_BODY: &[u8] = b"\",\"body\":";
/// What precedes the batch in the body of an encoded `Upload` request.
const UPLOAD_HEAD: &[u8] = b"{\"Upload\":";

/// Encodes `body` into a complete frame (magic + length + envelope) in
/// the current dialect.
pub fn encode_frame<T: Serialize>(body: &T) -> Vec<u8> {
    encode_frame_in(WireVersion::V2, body)
}

/// Encodes `body` into a complete frame in an explicit dialect — the
/// server answers each connection in the dialect it was addressed in.
/// The envelope `{"schema":"<tag>","body":<body>}` is written around
/// the body's canonical JSON (no tag needs escaping).
pub fn encode_frame_in<T: Serialize>(version: WireVersion, body: &T) -> Vec<u8> {
    let body = serde_json::to_string(body).expect("body serializes");
    let tag = version.tag().as_bytes();
    let len = ENVELOPE_HEAD.len() + tag.len() + ENVELOPE_BODY.len() + body.len() + 1;
    let mut frame = Vec::with_capacity(8 + len);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.extend_from_slice(ENVELOPE_HEAD);
    frame.extend_from_slice(tag);
    frame.extend_from_slice(ENVELOPE_BODY);
    frame.extend_from_slice(body.as_bytes());
    frame.push(b'}');
    frame
}

/// Decodes the JSON payload of a frame (everything after the 8-byte
/// header), returning the body and the dialect it arrived in. Every
/// supported schema tag is accepted; anything else is
/// [`FrameError::Schema`].
pub fn decode_payload_versioned<T: Deserialize>(
    payload: &[u8],
) -> Result<(T, WireVersion), FrameError> {
    decode_envelope(payload).map(|(body, version, _)| (body, version))
}

/// Decodes a frame payload's `{"schema": ..., "body": ...}` envelope
/// without a tree: it reads the keys as they come (the first of two
/// duplicates wins, unknown keys are skipped) and the body straight
/// into `T` once the tag is known to be supported. A body ahead of the
/// tag is checked, then decoded when the tag is in. An unsupported tag
/// is [`FrameError::Schema`] only when the envelope is otherwise
/// well-formed JSON, and an absent body reads as `null`. Also returns
/// where the body's JSON sits in the payload.
fn decode_envelope<T: Deserialize>(
    payload: &[u8],
) -> Result<(T, WireVersion, Range<usize>), FrameError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| FrameError::Json(format!("invalid UTF-8: {e}")))?;
    let json = |e: serde::Error| FrameError::Json(e.to_string());
    let mut r = serde::Reader::new(text);
    // The tag: the dialect when supported, the tag itself when not.
    let mut schema: Option<Result<WireVersion, String>> = None;
    // The body, unless it came ahead of a supported tag, and its span.
    let mut body: Option<(Option<T>, Range<usize>)> = None;
    r.begin_object().map_err(json)?;
    while let Some(key) = r.next_key().map_err(json)? {
        match &*key {
            "schema" if schema.is_none() => {
                let tag = r.string().map_err(json)?;
                schema = Some(WireVersion::from_tag(&tag).ok_or_else(|| tag.into_owned()));
            }
            "body" if body.is_none() => {
                // The body's span starts at its first character.
                r.peek();
                let start = r.offset();
                let value = match schema {
                    Some(Ok(_)) => Some(T::deserialize(&mut r).map_err(json)?),
                    _ => {
                        r.skip_value().map_err(json)?;
                        None
                    }
                };
                body = Some((value, start..r.offset()));
            }
            _ => r.skip_value().map_err(json)?,
        }
    }
    r.end().map_err(json)?;
    let version = match schema {
        Some(Ok(version)) => version,
        Some(Err(tag)) => return Err(FrameError::Schema(tag)),
        None => return Err(FrameError::Json("missing field `schema`".to_string())),
    };
    let (body, span) = match body {
        Some((Some(body), span)) => (body, span),
        Some((None, span)) => (
            serde_json::from_str(&text[span.clone()]).map_err(json)?,
            span,
        ),
        None => (serde_json::from_str("null").map_err(json)?, 0..0),
    };
    Ok((body, version, span))
}

/// Decodes the JSON payload of a frame, discarding the dialect.
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    decode_payload_versioned(payload).map(|(body, _)| body)
}

/// Decodes a complete in-memory frame produced by [`encode_frame`].
pub fn decode_frame<T: Deserialize>(frame: &[u8]) -> Result<T, FrameError> {
    if frame.len() < 8 {
        return Err(FrameError::Truncated {
            needed: 8,
            got: frame.len(),
        });
    }
    let magic: [u8; 4] = frame[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_be_bytes(frame[4..8].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    if frame.len() < 8 + len {
        return Err(FrameError::Truncated {
            needed: 8 + len,
            got: frame.len(),
        });
    }
    decode_payload(&frame[8..8 + len])
}

/// Writes a pre-encoded frame to `w`.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Reads and decodes one frame from `r`, returning the dialect it
/// arrived in.
pub fn read_frame_versioned<T: Deserialize>(
    r: &mut impl Read,
) -> Result<(T, WireVersion), FrameError> {
    let mut header = [0u8; 8];
    read_exact_counted(r, &mut header, 8)?;
    let magic: [u8; 4] = header[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_be_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len];
    read_exact_counted(r, &mut payload, 8 + len)?;
    decode_payload_versioned(&payload)
}

/// Reads and decodes one frame from `r`.
///
/// A clean EOF before the first header byte returns
/// `Truncated { needed: 8, got: 0 }`, which callers treat as normal
/// connection close.
pub fn read_frame<T: Deserialize>(r: &mut impl Read) -> Result<T, FrameError> {
    read_frame_versioned(r).map(|(body, _)| body)
}

/// `read_exact` that reports how much of the frame was present when the
/// stream ended early.
fn read_exact_counted(r: &mut impl Read, buf: &mut [u8], needed: usize) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    needed,
                    got: needed - (buf.len() - filled),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Carves every complete frame out of the front of `buf`, in order,
/// and hands each payload to `each`, leaving a trailing partial frame
/// in place. After a payload `each` answers with `Break`, the frames
/// behind it stay in `buf` too.
///
/// A header-level violation (bad magic, oversize) poisons the stream —
/// the caller should answer with an error and close — and stays in
/// `buf`; a payload `each` rejects is consumed with the frames before
/// it. An incomplete tail is normal and simply waits for more bytes.
fn carve(
    buf: &mut Vec<u8>,
    mut each: impl FnMut(&[u8]) -> Result<ControlFlow<()>, FrameError>,
) -> Result<(), FrameError> {
    let mut consumed = 0usize;
    let result = loop {
        let rest = &buf[consumed..];
        if rest.len() < 8 {
            break Ok(());
        }
        let magic: [u8; 4] = rest[0..4].try_into().expect("4 bytes");
        if magic != MAGIC {
            break Err(FrameError::BadMagic(magic));
        }
        let len = u32::from_be_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            break Err(FrameError::TooLarge {
                len,
                max: MAX_FRAME,
            });
        }
        if rest.len() < 8 + len {
            break Ok(());
        }
        let handled = each(&rest[8..8 + len]);
        consumed += 8 + len;
        match handled {
            Ok(ControlFlow::Continue(())) => {}
            Ok(ControlFlow::Break(())) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    buf.drain(..consumed);
    result
}

/// Incremental frame extractor for a nonblocking read path: carves
/// complete frames out of `buf`, leaving any trailing partial frame in
/// place, and returns the decoded bodies with their dialects. On a
/// malformed frame it returns the error alone ([`carve`] says what
/// stays in `buf`).
pub fn drain_frames<T: Deserialize>(
    buf: &mut Vec<u8>,
) -> Result<Vec<(T, WireVersion)>, FrameError> {
    let mut out = Vec::new();
    carve(buf, |payload| {
        out.push(decode_payload_versioned(payload)?);
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(out)
}

/// The server's read path: [`drain_frames`] over requests that hands
/// each one to `handle` as soon as it decodes, with its dialect and,
/// for an upload in canonical envelope form, its batch's JSON exactly
/// as it arrived (see [`upload_fingerprint_from_payload`]). Requests
/// ahead of a malformed frame are handled before the error returns.
/// When `handle` answers a request with `Break`, the frames behind it
/// stay in `buf`, undecoded, for a later call.
pub fn drain_requests(
    buf: &mut Vec<u8>,
    mut handle: impl FnMut(Request, WireVersion, Option<&[u8]>) -> ControlFlow<()>,
) -> Result<(), FrameError> {
    carve(buf, |payload| {
        let (request, version, body) = decode_envelope::<Request>(payload)?;
        // A decoded Upload's body holds exactly one batch value, so the
        // braces of a canonical one enclose nothing else.
        let batch = match request {
            Request::Upload(_) => canonical_batch(payload, version, body),
            _ => None,
        };
        Ok(handle(request, version, batch.map(|b| &payload[b])))
    })
}

/// The span of the batch in an upload payload in canonical envelope
/// form, `{"schema":"<tag>","body":{"Upload":<batch>}}` and no byte
/// more, given the span of its body. The caller vouches that the body
/// is one `{"Upload": ...}` object.
fn canonical_batch(
    payload: &[u8],
    version: WireVersion,
    body: Range<usize>,
) -> Option<Range<usize>> {
    let tag = version.tag().as_bytes();
    let tag_end = ENVELOPE_HEAD.len() + tag.len();
    let envelope = payload.get(..ENVELOPE_HEAD.len()) == Some(ENVELOPE_HEAD)
        && payload.get(ENVELOPE_HEAD.len()..tag_end) == Some(tag)
        && payload.get(tag_end..body.start) == Some(ENVELOPE_BODY)
        && payload.get(body.end..) == Some(b"}".as_slice());
    let batch = payload
        .get(body.clone())?
        .strip_prefix(UPLOAD_HEAD)?
        .strip_suffix(b"}")?;
    let braced = batch.first() == Some(&b'{') && batch.last() == Some(&b'}');
    (envelope && braced).then_some(body.start + UPLOAD_HEAD.len()..body.end - 1)
}

/// Recovers the ingest fingerprint of an `Upload` request straight from
/// its wire payload, without re-serializing the decoded batch: FNV-1a
/// over the batch's bytes as they arrived, when the payload is in
/// canonical envelope form (`{"schema":"<tag>","body":{"Upload":<batch>}}`
/// exactly). Returns `None` for any other payload (e.g. a foreign client
/// inserting whitespace in the envelope), and the caller falls back to
/// encoding the batch.
///
/// Only the envelope is checked for canonical form, not the batch. A
/// frame our own encoder produced carries the batch's canonical JSON,
/// so its fingerprint equals [`batch_fingerprint`]'s. A batch written
/// with, say, one extra space inside a canonical envelope fingerprints
/// differently from its canonical bytes: a byte-different re-send of a
/// batch is therefore applied again rather than absorbed as a duplicate
/// (harmless, since the merge is idempotent), and the server's WAL logs
/// the bytes as they arrived.
///
/// [`batch_fingerprint`]: crate::fingerprint::batch_fingerprint
pub fn upload_fingerprint_from_payload(payload: &[u8], version: WireVersion) -> Option<u64> {
    let body = ENVELOPE_HEAD.len() + version.tag().len() + ENVELOPE_BODY.len();
    let batch = canonical_batch(payload, version, body..payload.len().checked_sub(1)?)?;
    // Nothing decoded the body, so check that the batch is one value.
    let text = std::str::from_utf8(&payload[batch]).ok()?;
    let mut r = serde::Reader::new(text);
    r.skip_value().ok()?;
    (r.offset() == text.len()).then(|| crate::fingerprint::fnv1a(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_a_frame() {
        let req = Request::Query { top_n: 12 };
        let frame = encode_frame(&req);
        assert_eq!(&frame[0..4], &MAGIC);
        let back: Request = decode_frame(&frame).unwrap();
        match back {
            Request::Query { top_n } => assert_eq!(top_n, 12),
            other => panic!("wrong variant: {other:?}"),
        }
        // Canonical encoding: re-encoding the decoded value is
        // byte-identical.
        let back: Request = decode_frame(&frame).unwrap();
        assert_eq!(encode_frame(&back), frame);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut frame = encode_frame(&Request::Shutdown);
        frame[0] = b'X';
        match decode_frame::<Request>(&frame) {
            Err(FrameError::BadMagic(m)) => assert_eq!(m[0], b'X'),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let frame = encode_frame(&Request::Query { top_n: 3 });
        for cut in 0..frame.len() {
            match decode_frame::<Request>(&frame[..cut]) {
                Err(FrameError::Truncated { .. }) => {}
                Err(FrameError::BadMagic(_)) if cut >= 8 => {
                    panic!("magic must survive truncation of the payload")
                }
                Ok(_) => panic!("decoded from a {cut}-byte prefix"),
                Err(other) => panic!("unexpected error at cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn unsupported_schema_is_rejected() {
        let json = r#"{"schema": "hang-doctor/telemetry/v0", "body": null}"#;
        match decode_payload::<Request>(json.as_bytes()) {
            Err(FrameError::Schema(s)) => assert_eq!(s, "hang-doctor/telemetry/v0"),
            other => panic!("expected Schema error, got {other:?}"),
        }
    }

    #[test]
    fn both_supported_dialects_decode_and_report_their_version() {
        let req = Request::Query { top_n: 4 };
        let v2 = encode_frame_in(WireVersion::V2, &req);
        let control = encode_frame_in(WireVersion::Control, &req);
        assert_ne!(v2, control, "dialects must be distinguishable on the wire");
        let (_, ver2) = decode_payload_versioned::<Request>(&v2[8..]).unwrap();
        let (_, ver_ctl) = decode_payload_versioned::<Request>(&control[8..]).unwrap();
        assert_eq!(ver2, WireVersion::V2);
        assert_eq!(ver_ctl, WireVersion::Control);
    }

    #[test]
    fn negotiation_picks_the_newest_common_dialect() {
        let both = vec!["hang-doctor/telemetry/v1".to_string(), SCHEMA.to_string()];
        assert_eq!(WireVersion::negotiate(&both), Some(WireVersion::V2));
        let retired_only = vec!["hang-doctor/telemetry/v1".to_string()];
        assert_eq!(WireVersion::negotiate(&retired_only), None);
        let alien = vec!["hang-doctor/telemetry/v99".to_string()];
        assert_eq!(WireVersion::negotiate(&alien), None);
    }

    #[test]
    fn control_dialect_outranks_telemetry_in_negotiation() {
        // A control client offers both; it gets the control dialect.
        let control = vec![CONTROL_SCHEMA.to_string(), SCHEMA.to_string()];
        assert_eq!(WireVersion::negotiate(&control), Some(WireVersion::Control));
        // Plain uploaders never offer it, so they still land on v2.
        let uploader = vec![SCHEMA.to_string()];
        assert_eq!(WireVersion::negotiate(&uploader), Some(WireVersion::V2));
        assert_eq!(
            WireVersion::from_tag(CONTROL_SCHEMA),
            Some(WireVersion::Control)
        );
        assert_eq!(WireVersion::Control.tag(), "hang-doctor/control/v1");
    }

    #[test]
    fn control_frames_round_trip_in_their_own_dialect() {
        let req = Request::Control(ControlRequest::QueryState { device: 9 });
        let frame = encode_frame_in(WireVersion::Control, &req);
        let (back, version) = decode_payload_versioned::<Request>(&frame[8..]).unwrap();
        assert_eq!(version, WireVersion::Control);
        assert!(matches!(
            back,
            Request::Control(ControlRequest::QueryState { device: 9 })
        ));
        // Canonical: re-encoding the decoded value is byte-identical.
        assert_eq!(encode_frame_in(WireVersion::Control, &back), frame);
        // And control frames never produce an upload fingerprint.
        assert_eq!(
            upload_fingerprint_from_payload(&frame[8..], WireVersion::Control),
            None
        );
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        frame.extend_from_slice(b"garbage");
        match decode_frame::<Request>(&frame) {
            Err(FrameError::TooLarge { len, .. }) => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let mut stream = io::Cursor::new(frame);
        assert!(matches!(
            read_frame::<Request>(&mut stream),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn read_frame_streams_from_a_reader() {
        let a = encode_frame(&Request::Query { top_n: 1 });
        let b = encode_frame(&Request::Shutdown);
        let mut stream = io::Cursor::new([a, b].concat());
        assert!(matches!(
            read_frame::<Request>(&mut stream).unwrap(),
            Request::Query { top_n: 1 }
        ));
        assert!(matches!(
            read_frame::<Request>(&mut stream).unwrap(),
            Request::Shutdown
        ));
        // Clean EOF reads as an empty truncation.
        match read_frame::<Request>(&mut stream) {
            Err(FrameError::Truncated { needed: 8, got: 0 }) => {}
            other => panic!("expected empty truncation, got {other:?}"),
        }
    }

    #[test]
    fn drain_frames_extracts_complete_frames_and_keeps_the_tail() {
        let a = encode_frame(&Request::Query { top_n: 1 });
        let b = encode_frame_in(WireVersion::Control, &Request::Shutdown);
        let c = encode_frame(&Request::Query { top_n: 9 });
        let mut buf = [a.as_slice(), b.as_slice(), &c[..c.len() - 3]].concat();
        let got: Vec<(Request, WireVersion)> = drain_frames(&mut buf).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, WireVersion::V2);
        assert_eq!(got[1].1, WireVersion::Control);
        // The partial tail stays buffered; completing it yields frame 3.
        buf.extend_from_slice(&c[c.len() - 3..]);
        let got: Vec<(Request, WireVersion)> = drain_frames(&mut buf).unwrap();
        assert_eq!(got.len(), 1);
        assert!(buf.is_empty());
    }

    #[test]
    fn wire_fingerprint_matches_the_canonical_fingerprint() {
        use crate::fingerprint::batch_fingerprint;
        use hangdoctor::HangBugReport;
        let batch = UploadBatch {
            app: "app".to_string(),
            device: 7,
            seq: 3,
            items: vec![TelemetryItem::Report(HangBugReport::new("app"))],
        };
        let want = batch_fingerprint(&batch);
        let frame = encode_frame_in(WireVersion::V2, &Request::Upload(batch.clone()));
        assert_eq!(
            upload_fingerprint_from_payload(&frame[8..], WireVersion::V2),
            Some(want),
            "wire-byte fingerprint must equal the re-serialized one"
        );
        // A semantically equal but non-canonical payload (extra space)
        // falls back instead of producing a wrong fingerprint.
        let frame = encode_frame_in(WireVersion::V2, &Request::Upload(batch.clone()));
        let text = String::from_utf8(frame[8..].to_vec()).unwrap();
        let spaced = text.replace("\"body\":", "\"body\": ");
        assert_eq!(
            upload_fingerprint_from_payload(spaced.as_bytes(), WireVersion::V2),
            None
        );
        // So does one with a key after the body: what precedes the
        // envelope's last two braces is then not the batch alone.
        let extra = [&text[..text.len() - 1], ",\"x\":{}}"].concat();
        assert!(decode_payload::<Request>(extra.as_bytes()).is_ok());
        assert_eq!(
            upload_fingerprint_from_payload(extra.as_bytes(), WireVersion::V2),
            None
        );
        // Non-upload requests never fingerprint.
        let q = encode_frame(&Request::Query { top_n: 1 });
        assert_eq!(
            upload_fingerprint_from_payload(&q[8..], WireVersion::V2),
            None
        );
    }

    #[test]
    fn drain_frames_poisons_on_bad_magic() {
        let good = encode_frame(&Request::Shutdown);
        let mut bad = encode_frame(&Request::Shutdown);
        bad[0] = b'Z';
        let mut buf = [good, bad].concat();
        match drain_frames::<Request>(&mut buf) {
            Err(FrameError::BadMagic(m)) => assert_eq!(m[0], b'Z'),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }
}
