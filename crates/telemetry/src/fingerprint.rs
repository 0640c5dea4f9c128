//! Ingest fingerprints and shard routing.
//!
//! Both are FNV-1a 64 over deterministic byte strings, so they are
//! stable across processes, platforms, and runs:
//!
//! * [`batch_fingerprint`] hashes a batch's canonical compact JSON.
//!   Because the serde shim serializes maps and sets sorted, the same
//!   logical batch always produces the same bytes, which makes the
//!   fingerprint a content address — the key the idempotent ingest
//!   dedups duplicate deliveries on.
//! * [`shard_for`] hashes the `(app, device)` pair. All batches of one
//!   device route to one shard (and arrive on one connection, handled
//!   by one io worker), preserving per-device ordering without any
//!   cross-shard coordination.

use crate::wire::UploadBatch;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Content fingerprint of an upload batch: FNV-1a 64 over its canonical
/// compact JSON. Re-sending the same batch (retry after a NACK, a
/// duplicated frame, an at-least-once uploader) reproduces the same
/// fingerprint, so the store can absorb the duplicate.
pub fn batch_fingerprint(batch: &UploadBatch) -> u64 {
    let json = serde_json::to_string(batch).expect("batch serializes");
    fnv1a(json.as_bytes())
}

/// Shard index for an `(app, device)` pair. Deterministic, so the same
/// device always lands on the same worker queue.
pub fn shard_for(app: &str, device: u32, shards: usize) -> usize {
    debug_assert!(shards > 0, "need at least one shard");
    let mut h = fnv1a(app.as_bytes());
    for b in device.to_be_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % shards as u64) as usize
}

/// Cluster node index for an `(app, device)` pair — [`shard_for`]
/// generalized to the cluster routing table. The FNV hash is passed
/// through a full avalanche finalizer (MurmurMix-style) before the
/// modulo: a salt-and-multiply alone only permutes the low bits, which
/// `% nodes` then maps back onto a pure function of the shard index —
/// an N-node cluster whose nodes run N shards would pin every batch
/// routed to node `i` onto a single shard, idling the rest of each
/// node's workers.
pub fn node_for(app: &str, device: u32, nodes: usize) -> usize {
    debug_assert!(nodes > 0, "need at least one node");
    let mut h = fnv1a(app.as_bytes());
    for b in device.to_be_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^= 0x9E37_79B9_7F4A_7C15;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    (h % nodes as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::TelemetryItem;
    use hangdoctor::HangBugReport;

    fn batch(app: &str, device: u32, seq: u64) -> UploadBatch {
        UploadBatch {
            app: app.to_string(),
            device,
            seq,
            items: vec![TelemetryItem::Report(HangBugReport::new(app))],
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_addressed() {
        let a = batch("app", 1, 0);
        assert_eq!(batch_fingerprint(&a), batch_fingerprint(&a.clone()));
        // Any field change moves the fingerprint.
        assert_ne!(
            batch_fingerprint(&a),
            batch_fingerprint(&batch("app", 2, 0))
        );
        assert_ne!(
            batch_fingerprint(&a),
            batch_fingerprint(&batch("app", 1, 1))
        );
        assert_ne!(batch_fingerprint(&a), batch_fingerprint(&batch("b", 1, 0)));
    }

    #[test]
    fn known_fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sharding_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 7, 16] {
            for device in 0..50u32 {
                let s = shard_for("app", device, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for("app", device, shards));
            }
        }
    }

    #[test]
    fn node_routing_is_decorrelated_from_shard_routing() {
        for nodes in [1usize, 2, 3, 5] {
            for device in 0..50u32 {
                let n = node_for("app", device, nodes);
                assert!(n < nodes);
                assert_eq!(n, node_for("app", device, nodes));
            }
        }
        // With nodes == shards, devices routed to one node must still
        // spread over that node's shards (the salt decorrelates the
        // two hashes).
        let n = 4usize;
        let mut shards_on_node0 = std::collections::BTreeSet::new();
        for device in 0..500u32 {
            if node_for("app", device, n) == 0 {
                shards_on_node0.insert(shard_for("app", device, n));
            }
        }
        assert!(
            shards_on_node0.len() > 1,
            "node 0's devices all collapsed onto shard(s) {shards_on_node0:?}"
        );
    }
}
