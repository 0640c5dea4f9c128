//! Durable ingest: a per-shard append-only write-ahead log with
//! compacted snapshots.
//!
//! Every applied batch is framed into the shard's WAL **before** it is
//! merged into the aggregation store, so a killed-and-restarted node
//! replays to the identical aggregate. Appends are written, not synced
//! ([`Wal::append`]): "ACK ⇒ durable" holds against a process kill, not
//! against a power loss. A record is a JSON payload plus an integrity
//! word:
//!
//! ```text
//! +------+----------------+---------------+--------------+
//! | HDWL | u32 BE length  | u32 BE CRC32  | JSON payload |
//! +------+----------------+---------------+--------------+
//! ```
//!
//! The first record of every file is a [`WalHeader`] carrying the WAL
//! schema tag plus the owning `(node, shard)`; each subsequent record
//! is a [`WalBatch`] — the upload batch together with the content
//! fingerprint the live ingest deduplicated it under, so replay applies
//! exactly the fingerprints the original run did without
//! re-serializing a byte.
//!
//! A batch record is spliced around the batch's JSON
//! ([`encode_batch_record`]): `{"Batch":{"fingerprint":N,"batch":` +
//! the batch bytes + `}}`, byte for byte what encoding the
//! [`WalRecord`] writes when the bytes are the batch's canonical JSON.
//! The server splices the bytes the batch arrived in, which are
//! canonical for every upload our own encoder wrote; a batch sent with
//! non-canonical JSON inside a canonical envelope (see
//! [`upload_fingerprint_from_payload`]) is logged as it arrived, and
//! replays all the same.
//!
//! [`upload_fingerprint_from_payload`]: crate::wire::upload_fingerprint_from_payload
//!
//! Failure semantics (pinned by `tests/wal.rs`):
//!
//! * a **torn tail** — the process died mid-append — is dropped
//!   cleanly on replay, and opening the log for append ([`Wal::open`],
//!   which recovery does) truncates the file back to its last complete
//!   record; [`read_snapshot`] and [`scan_wal`] only read;
//! * a **CRC-corrupt** record inside the valid region is data loss the
//!   log cannot self-heal, and surfaces as a typed
//!   [`TelemetryError::WalCorrupt`], never a panic;
//! * **snapshot + WAL replay ≡ pure-WAL replay**, byte-for-byte:
//!   compaction snapshots the store (including its fingerprint set),
//!   truncates the log, and relies on idempotent ingest to absorb any
//!   record that races the truncation.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::error::TelemetryError;
use crate::store::{AggregationStore, StoreSnapshot};
use crate::wire::UploadBatch;

/// Magic prefix of every WAL and snapshot record.
pub const WAL_MAGIC: [u8; 4] = *b"HDWL";

/// Schema tag carried by every WAL file header.
pub const WAL_SCHEMA: &str = "hang-doctor/telemetry-wal/v1";

/// Upper bound on one WAL record's payload, bytes (same cap as the
/// wire layer).
pub const MAX_WAL_RECORD: usize = crate::wire::MAX_FRAME;

/// The first record of every WAL file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WalHeader {
    /// WAL format tag ([`WAL_SCHEMA`]).
    pub schema: String,
    /// Node the log belongs to.
    pub node: u64,
    /// Shard within the node.
    pub shard: usize,
}

/// One logged ingest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WalBatch {
    /// The content fingerprint the live ingest applied the batch under.
    pub fingerprint: u64,
    /// The batch itself.
    pub batch: UploadBatch,
}

/// A WAL record: header or batch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WalRecord {
    /// File header (first record).
    Header(WalHeader),
    /// One applied upload batch.
    Batch(WalBatch),
}

/// What scanning a WAL file recovered.
#[derive(Debug)]
pub struct WalReplay {
    /// The file header, if the file had one.
    pub header: Option<WalHeader>,
    /// Every complete, integrity-checked batch record, in append order.
    pub batches: Vec<WalBatch>,
    /// Byte length of the valid prefix (everything after it is torn).
    pub clean_len: u64,
    /// Whether a torn tail record was dropped.
    pub torn_tail_dropped: bool,
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven, no external deps.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) over a byte string.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A record buffer: magic, then room for the length and CRC that
/// [`seal`] fills in once the payload behind them is written.
fn unsealed(payload_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload_len);
    out.extend_from_slice(&WAL_MAGIC);
    out.extend_from_slice(&[0; 8]);
    out
}

/// Fills in the length and CRC of the payload behind an [`unsealed`]
/// head.
fn seal(mut record: Vec<u8>) -> Vec<u8> {
    let len = (record.len() - 12) as u32;
    let crc = crc32(&record[12..]);
    record[4..8].copy_from_slice(&len.to_be_bytes());
    record[8..12].copy_from_slice(&crc.to_be_bytes());
    record
}

/// Frames one payload: magic, length, CRC, the payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = unsealed(payload.len());
    out.extend_from_slice(payload);
    seal(out)
}

/// Frames one record: magic, length, CRC, canonical-JSON payload.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    frame(
        serde_json::to_string(record)
            .expect("WAL record serializes")
            .as_bytes(),
    )
}

/// What precedes the fingerprint in a batch record's payload.
const BATCH_HEAD: &str = "{\"Batch\":{\"fingerprint\":";
/// What sits between the fingerprint and the batch.
const BATCH_BODY: &str = ",\"batch\":";
/// What follows the batch.
const BATCH_TAIL: &str = "}}";

/// Frames the record of one applied batch around the batch's JSON,
/// taken as it is: `{"Batch":{"fingerprint":N,"batch":<batch_json>}}`.
/// When `batch_json` is the batch's canonical JSON this is byte for
/// byte `encode_record(&WalRecord::Batch(..))`, with no clone and no
/// re-encode of the batch.
pub fn encode_batch_record(fingerprint: u64, batch_json: &[u8]) -> Vec<u8> {
    let mut out = unsealed(BATCH_HEAD.len() + 20 + BATCH_BODY.len() + batch_json.len() + 2);
    out.extend_from_slice(BATCH_HEAD.as_bytes());
    out.extend_from_slice(fingerprint.to_string().as_bytes());
    out.extend_from_slice(BATCH_BODY.as_bytes());
    out.extend_from_slice(batch_json);
    out.extend_from_slice(BATCH_TAIL.as_bytes());
    seal(out)
}

/// Scans a WAL byte image into its records.
///
/// A truncated record at the very end of the image (torn write) is
/// dropped cleanly; corruption *inside* the valid region — bad magic,
/// an oversized length, a CRC mismatch, or undecodable JSON in a
/// complete record — is a typed [`TelemetryError::WalCorrupt`].
pub fn scan_wal(bytes: &[u8]) -> Result<WalReplay, TelemetryError> {
    let mut header = None;
    let mut batches = Vec::new();
    let mut offset = 0usize;
    let mut torn = false;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < 12 {
            torn = true; // partial record header at EOF
            break;
        }
        let magic: [u8; 4] = rest[0..4].try_into().expect("4 bytes");
        if magic != WAL_MAGIC {
            return Err(TelemetryError::WalCorrupt {
                offset: offset as u64,
                reason: format!("bad record magic {magic:?}"),
            });
        }
        let len = u32::from_be_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
        if len > MAX_WAL_RECORD {
            return Err(TelemetryError::WalCorrupt {
                offset: offset as u64,
                reason: format!("record length {len} exceeds the {MAX_WAL_RECORD}-byte cap"),
            });
        }
        if rest.len() < 12 + len {
            torn = true; // payload cut off at EOF
            break;
        }
        let want = u32::from_be_bytes(rest[8..12].try_into().expect("4 bytes"));
        let payload = &rest[12..12 + len];
        let got = crc32(payload);
        if got != want {
            return Err(TelemetryError::WalCorrupt {
                offset: offset as u64,
                reason: format!("CRC mismatch: stored {want:#010x}, computed {got:#010x}"),
            });
        }
        let text = std::str::from_utf8(payload).map_err(|e| TelemetryError::WalCorrupt {
            offset: offset as u64,
            reason: format!("record is not UTF-8: {e}"),
        })?;
        let record: WalRecord =
            serde_json::from_str(text).map_err(|e| TelemetryError::WalCorrupt {
                offset: offset as u64,
                reason: format!("record JSON undecodable: {e}"),
            })?;
        match record {
            WalRecord::Header(h) => {
                if h.schema != WAL_SCHEMA {
                    return Err(TelemetryError::SchemaDrift(h.schema));
                }
                header = Some(h);
            }
            WalRecord::Batch(b) => batches.push(b),
        }
        offset += 12 + len;
    }
    Ok(WalReplay {
        header,
        batches,
        clean_len: offset as u64,
        torn_tail_dropped: torn,
    })
}

/// An open, append-mode WAL file for one shard.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
}

impl Wal {
    /// Opens (or creates) the WAL at `path`, replaying whatever it
    /// holds. A torn tail is truncated away so subsequent appends
    /// extend a clean log; in-region corruption is returned as
    /// [`TelemetryError::WalCorrupt`].
    pub fn open(path: &Path, node: u64, shard: usize) -> Result<(Wal, WalReplay), TelemetryError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let replay = scan_wal(&bytes)?;
        if replay.torn_tail_dropped {
            file.set_len(replay.clean_len)?;
        }
        file.seek(SeekFrom::Start(replay.clean_len))?;
        let mut wal = Wal {
            path: path.to_path_buf(),
            file,
        };
        if replay.header.is_none() {
            wal.write_header(node, shard)?;
        }
        Ok((wal, replay))
    }

    /// The file this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes one framed record. `File::flush()` is a no-op for a
    /// `std::fs::File`: the record reaches the kernel, not the disk, so
    /// an appended record survives a killed process but not a power
    /// loss until group commit (a `sync_data` per shard a dispatch pass
    /// touched, before that pass's ACKs are written) lands.
    fn write_record(&mut self, frame: &[u8]) -> Result<(), TelemetryError> {
        self.file.write_all(frame)?;
        self.file.flush()?;
        Ok(())
    }

    /// Appends one applied batch, encoding it once
    /// ([`Wal::append_json`]).
    pub fn append(&mut self, fingerprint: u64, batch: &UploadBatch) -> Result<(), TelemetryError> {
        let json = serde_json::to_string(batch).expect("batch serializes");
        self.append_json(fingerprint, json.as_bytes())
    }

    /// Appends one applied batch given its JSON, spliced into the
    /// record as it is ([`encode_batch_record`]). The server calls this
    /// under the shard's lock, with the bytes the batch arrived in,
    /// *before* the batch is merged into the store.
    pub fn append_json(
        &mut self,
        fingerprint: u64,
        batch_json: &[u8],
    ) -> Result<(), TelemetryError> {
        self.write_record(&encode_batch_record(fingerprint, batch_json))
    }

    /// Compaction: truncates the log back to a fresh header. Called
    /// only after the covering snapshot has been durably renamed into
    /// place, so a crash between the two leaves a log whose records
    /// the snapshot's fingerprint set absorbs as duplicates.
    pub fn reset(&mut self, node: u64, shard: usize) -> Result<(), TelemetryError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.write_header(node, shard)
    }

    fn write_header(&mut self, node: u64, shard: usize) -> Result<(), TelemetryError> {
        self.write_record(&encode_record(&WalRecord::Header(WalHeader {
            schema: WAL_SCHEMA.to_string(),
            node,
            shard,
        })))
    }
}

/// Writes a compaction snapshot durably: frame (magic + length + CRC +
/// canonical JSON) to a temp file and sync it, atomically rename it over
/// `path`, then sync the directory so the rename itself survives a power
/// loss before the caller truncates the WAL.
pub fn write_snapshot(path: &Path, snapshot: &StoreSnapshot) -> Result<(), TelemetryError> {
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let json = serde_json::to_string(snapshot).expect("snapshot serializes");
    let framed = frame(json.as_bytes());
    let tmp = path.with_extension("snap.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&framed)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Reads a compaction snapshot if one exists. A missing file is
/// `Ok(None)`; a present-but-damaged file is [`TelemetryError::WalCorrupt`].
pub fn read_snapshot(path: &Path) -> Result<Option<StoreSnapshot>, TelemetryError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < 12 || bytes[0..4] != WAL_MAGIC {
        return Err(TelemetryError::WalCorrupt {
            offset: 0,
            reason: "snapshot header missing or bad magic".to_string(),
        });
    }
    let len = u32::from_be_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    if bytes.len() < 12 + len {
        return Err(TelemetryError::WalCorrupt {
            offset: 0,
            reason: format!(
                "snapshot truncated: declared {len} payload bytes, file has {}",
                bytes.len().saturating_sub(12)
            ),
        });
    }
    let want = u32::from_be_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let payload = &bytes[12..12 + len];
    let got = crc32(payload);
    if got != want {
        return Err(TelemetryError::WalCorrupt {
            offset: 0,
            reason: format!("snapshot CRC mismatch: stored {want:#010x}, computed {got:#010x}"),
        });
    }
    let text = std::str::from_utf8(payload).map_err(|e| TelemetryError::WalCorrupt {
        offset: 0,
        reason: format!("snapshot is not UTF-8: {e}"),
    })?;
    let snap: StoreSnapshot =
        serde_json::from_str(text).map_err(|e| TelemetryError::WalCorrupt {
            offset: 0,
            reason: format!("snapshot JSON undecodable: {e}"),
        })?;
    if snap.schema != crate::store::SNAPSHOT_SCHEMA {
        return Err(TelemetryError::SchemaDrift(snap.schema));
    }
    Ok(Some(snap))
}

/// The WAL file of one shard under a node's durability directory.
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

/// The snapshot file of one shard under a node's durability directory.
pub fn snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.snap"))
}

/// The shard files under `dir` (`shard-N.wal`, `shard-N.snap`) whose
/// shard index `N` is `shards` or more, sorted by index: what a server
/// with more shards left behind. A missing directory holds none.
pub(crate) fn shard_files_beyond(
    dir: &Path,
    shards: usize,
) -> Result<Vec<(usize, String)>, TelemetryError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut found = Vec::new();
    for entry in entries {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let shard = name
            .strip_prefix("shard-")
            .and_then(|rest| {
                rest.strip_suffix(".wal")
                    .or_else(|| rest.strip_suffix(".snap"))
            })
            .and_then(|index| index.parse::<usize>().ok());
        if let Some(shard) = shard.filter(|&s| s >= shards) {
            found.push((shard, name));
        }
    }
    found.sort();
    Ok(found)
}

/// Rebuilds one shard's store from what its files hold: the compaction
/// snapshot, if any, then every logged batch in append order, under the
/// fingerprint the live ingest applied it with. The recovery invariant
/// — snapshot + WAL ≡ pure WAL, byte-for-byte — holds because the
/// snapshot carries the fingerprint set, so replayed records the
/// snapshot already covers are absorbed as duplicates.
pub fn restore(snapshot: Option<&StoreSnapshot>, records: &[WalBatch]) -> AggregationStore {
    let mut store = snapshot.map_or_else(AggregationStore::new, AggregationStore::from_snapshot);
    for rec in records {
        store.ingest_prehashed(&rec.batch, rec.fingerprint);
    }
    store
}

/// Recovers one shard's store ([`restore`] over its snapshot and WAL),
/// and returns the open log ready for appends along with the number of
/// records replayed from it (snapshot-covered state is restored, not
/// replayed).
pub fn recover_shard(
    dir: &Path,
    node: u64,
    shard: usize,
) -> Result<(AggregationStore, Wal, u64), TelemetryError> {
    let snap = read_snapshot(&snapshot_path(dir, shard))?;
    let (wal, replay) = Wal::open(&wal_path(dir, shard), node, shard)?;
    let store = restore(snap.as_ref(), &replay.batches);
    Ok((store, wal, replay.batches.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Published IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn record_round_trips() {
        let rec = WalRecord::Header(WalHeader {
            schema: WAL_SCHEMA.to_string(),
            node: 3,
            shard: 1,
        });
        let framed = encode_record(&rec);
        let replay = scan_wal(&framed).unwrap();
        assert_eq!(
            replay.header,
            Some(WalHeader {
                schema: WAL_SCHEMA.to_string(),
                node: 3,
                shard: 1
            })
        );
        assert!(!replay.torn_tail_dropped);
        assert_eq!(replay.clean_len, framed.len() as u64);
    }
}
