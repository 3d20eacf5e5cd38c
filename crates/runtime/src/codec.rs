//! The edge record codec: a `(key, value)` pair framed as one record,
//! `[u32 klen][key][value]`, little-endian length.
//!
//! Inter-stage data is pairs end to end — a plan edge, a cache edge and a
//! serving cascade all hand the next stage pairs through
//! [`MapFn::map_pair`](crate::job::MapFn::map_pair) — so this framing
//! exists only where a pair has to be *bytes*: for a record-oriented map
//! function downstream of an edge (`map_pair`'s default frames the pair
//! for it), on the wire (a pair split ships to a TCP worker as edge
//! records inside `NewSplit`), and at the far end of either, where
//! [`pair_map_fn`](crate::job::pair_map_fn)'s `map` turns the record back
//! into the pair.

/// Encode a `(key, value)` pair as an edge record:
/// `[u32 klen][key][value]`.
pub fn encode_pair(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(pair_len(key, value));
    append_pair(&mut rec, key, value);
    rec
}

/// Bytes [`append_pair`] appends for this pair.
pub(crate) fn pair_len(key: &[u8], value: &[u8]) -> usize {
    4 + key.len() + value.len()
}

/// [`encode_pair`] onto the end of `out`.
pub(crate) fn append_pair(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

/// Decode an edge record back into `(key, value)`.
pub fn decode_pair(record: &[u8]) -> Option<(&[u8], &[u8])> {
    if record.len() < 4 {
        return None;
    }
    let klen = u32::from_le_bytes(record[0..4].try_into().ok()?) as usize;
    if record.len() < 4 + klen {
        return None;
    }
    Some((&record[4..4 + klen], &record[4 + klen..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_codec_roundtrip() {
        let rec = encode_pair(b"key", b"value with \x00 bytes");
        let (k, v) = decode_pair(&rec).unwrap();
        assert_eq!(k, b"key");
        assert_eq!(v, b"value with \x00 bytes");
        // Empty key and value are legal.
        let rec = encode_pair(b"", b"");
        assert_eq!(decode_pair(&rec).unwrap(), (&b""[..], &b""[..]));
        // Truncated records are rejected.
        assert!(decode_pair(b"").is_none());
        assert!(decode_pair(&[200, 0, 0, 0, 1]).is_none());
    }
}
