//! The unified error surface of the telemetry crate.
//!
//! PR 5 grew the public API with mixed return types: `io::Result` on
//! the server constructor, [`FrameError`] on the wire helpers, and a
//! separate `UploadError` on the client. [`TelemetryError`] replaces
//! that mix with one typed enum covering every failure the public
//! surface can report — frame decode, transport I/O, a NACK,
//! schema drift, WAL corruption, invalid configuration, and retry
//! exhaustion. Every conversion is non-panicking: the
//! `From` impls below mean `?` works across the whole crate without
//! `map_err` noise, and no path stringifies an error before the caller
//! has had the chance to match on it.

use std::fmt;
use std::io;

use crate::wire::FrameError;

/// Every failure the telemetry public surface can report.
#[derive(Clone, Debug, PartialEq)]
pub enum TelemetryError {
    /// A wire frame failed to decode (bad magic, truncation, oversize,
    /// malformed JSON).
    Frame(FrameError),
    /// Transport or file I/O failed. Carries the rendered
    /// `io::Error` so the variant stays `Clone`/`PartialEq`.
    Io(String),
    /// The server shed the request under backpressure; the operation
    /// was **not** applied and may be retried after the hint. Protocol:
    /// this crate's server applies every upload it decodes and sends no
    /// NACKs, but a client still surfaces one it receives.
    Nack {
        /// Server-suggested backoff, ms.
        retry_after_ms: u64,
    },
    /// A frame or stored artifact carried a schema tag this build does
    /// not speak.
    SchemaDrift(String),
    /// A write-ahead-log record failed its integrity check.
    WalCorrupt {
        /// Byte offset of the corrupt record within the WAL file.
        offset: u64,
        /// What the check found.
        reason: String,
    },
    /// A builder rejected an invalid configuration value.
    Config {
        /// The offending field.
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// The peer answered with a message the protocol does not allow at
    /// this point.
    Protocol(String),
    /// Retries were exhausted; the last underlying error is attached.
    Exhausted(String),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Frame(e) => write!(f, "frame error: {e}"),
            TelemetryError::Io(e) => write!(f, "i/o error: {e}"),
            TelemetryError::Nack { retry_after_ms } => {
                write!(f, "server NACK (retry after {retry_after_ms} ms)")
            }
            TelemetryError::SchemaDrift(s) => write!(f, "unsupported schema tag `{s}`"),
            TelemetryError::WalCorrupt { offset, reason } => {
                write!(f, "WAL corrupt at byte {offset}: {reason}")
            }
            TelemetryError::Config { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            TelemetryError::Protocol(e) => write!(f, "protocol error: {e}"),
            TelemetryError::Exhausted(e) => write!(f, "retries exhausted: {e}"),
        }
    }
}

impl std::error::Error for TelemetryError {}

impl From<FrameError> for TelemetryError {
    fn from(e: FrameError) -> TelemetryError {
        match e {
            // Schema mismatches surface as drift so callers can match
            // on the condition without digging into the frame layer.
            FrameError::Schema(tag) => TelemetryError::SchemaDrift(tag),
            FrameError::Io(io) => TelemetryError::Io(io),
            other => TelemetryError::Frame(other),
        }
    }
}

impl From<io::Error> for TelemetryError {
    fn from(e: io::Error) -> TelemetryError {
        TelemetryError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_schema_errors_become_schema_drift() {
        let e: TelemetryError = FrameError::Schema("hang-doctor/telemetry/v9".to_string()).into();
        assert_eq!(
            e,
            TelemetryError::SchemaDrift("hang-doctor/telemetry/v9".to_string())
        );
    }

    #[test]
    fn frame_io_errors_collapse_into_io() {
        let e: TelemetryError = FrameError::Io("broken pipe".to_string()).into();
        assert!(matches!(e, TelemetryError::Io(_)));
    }

    #[test]
    fn other_frame_errors_stay_frame() {
        let e: TelemetryError = FrameError::BadMagic(*b"XXXX").into();
        assert!(matches!(e, TelemetryError::Frame(FrameError::BadMagic(_))));
    }

    #[test]
    fn io_errors_convert_without_panicking() {
        let e: TelemetryError = io::Error::new(io::ErrorKind::ConnectionRefused, "nope").into();
        assert!(matches!(e, TelemetryError::Io(_)));
        assert!(e.to_string().contains("nope"));
    }
}
