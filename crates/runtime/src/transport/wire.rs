//! Length-prefixed frame protocol for the TCP transport.
//!
//! Every frame on the wire is `[u32 LE body length][u8 tag][fields]`.
//! Integers are little-endian `u64`s, strings and byte blobs carry a
//! `u32` length prefix. Segment payloads reuse the engine's framed
//! key/value encoding (`[u32 klen][u32 vlen][key][value]` per record — the
//! same bytes spill files hold).
//!
//! A bulk frame (`NewSplit`, `Segment`) is one buffer on each side of the
//! socket. [`Frame::encode`] writes prefix, header and
//! records into the one `Vec` the connection then writes as is;
//! [`Frame::decode`] owns the received body and hands it on as the arena
//! the task reads — [`SegmentBuf::from_framed`] over the body for framed
//! records, [`PackedRecords`] over it for a split's raw records — so no
//! record is copied between the socket and the map function or the
//! coordinator's reducers.
//!
//! A [`JobSpec`](crate::JobSpec) carries closures and cannot travel
//! whole; [`Frame::JobInit`] ships the job *name* plus the `(name, value)`
//! text pairs of the travelling rows of [`crate::knobs::KNOBS`], and the
//! worker applies them to the spec its
//! [`JobRegistry`](super::JobRegistry) rebuilt from the name. This module
//! knows nothing about individual knobs.
//!
//! `JobInit` carries [`WIRE_VERSION`]. A worker answers a `JobInit` of
//! another version, or the unversioned one (tag 1) that builds from
//! before the version sent, with a `JobRejected` naming both versions,
//! before it reads any other frame.

use std::io::Read;
use std::sync::Arc;

use onepass_core::error::{Error, Result};
use onepass_core::SegmentBuf;

use crate::codec;
use crate::knobs::KNOBS;
use crate::map_task::{MapTaskStats, PackedRecords, Split};

/// The frame set and knob text this build speaks. A peer of another
/// version is refused at `JobInit`; builds from before the version
/// existed sent `JobInit` under tag 1 and count as version 0. Version 2
/// sent `shuffle` as `pull|push`, where version 1 sent `push:RECORDS`.
/// Version 3 sends `backend` where version 2 sent `map-side` and
/// `shuffle`, and a `Segment` without its two flag bytes.
pub(crate) const WIRE_VERSION: u64 = 3;

/// Upper bound on a single frame body; a larger length prefix means the
/// stream is corrupt (or not speaking this protocol).
pub(crate) const MAX_FRAME: usize = 1 << 30;

/// Largest allocation made on the strength of a length prefix alone;
/// bodies longer than this grow as their bytes actually arrive.
const READ_CHUNK: usize = 1 << 20;

/// Upper bounds on the text in a `JobInit`, bytes: the job's or a knob's
/// name, and a knob's value (the longest is a sort-merge backend listing
/// its snapshot fractions, some 20 bytes each).
const MAX_NAME: usize = 256;
const MAX_KNOB_VALUE: usize = 64 << 10;

/// Read one frame body (`[u32 LE length][body]`) from `r`. A clean EOF
/// before the prefix is the peer hanging up (`Error::Io`); a prefix over
/// [`MAX_FRAME`], or a body that ends early, is `Error::Corrupt`.
pub(crate) fn read_body(r: &mut impl Read) -> Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(Error::Corrupt(format!("frame length {len} exceeds limit")));
    }
    let mut body = Vec::with_capacity(len.min(READ_CHUNK));
    let got = r.take(len as u64).read_to_end(&mut body)?;
    if got < len {
        return Err(Error::Corrupt(format!(
            "frame truncated: {got} of {len} bytes"
        )));
    }
    if len > READ_CHUNK {
        // The body becomes an arena that segments keep alive until their
        // reducer absorbs them: give back what doubling over-reserved.
        body.shrink_to_fit();
    }
    Ok(body)
}

/// One ordered field list per stats struct: the counters that travel (in
/// a `MapOk`) as a run of `u64`s, in wire order. CPU profiles stay
/// worker-local. A new stat is one more line here.
macro_rules! wire_stats {
    ($enc:ident, $dec:ident, $ty:ty { $($($field:ident).+),+ $(,)? }) => {
        #[allow(clippy::unnecessary_cast)]
        fn $enc(e: &mut Enc, s: &$ty) {
            $( e.u64(s.$($field).+ as u64); )+
        }
        #[allow(clippy::unnecessary_cast)]
        fn $dec(d: &mut Dec<'_>) -> Result<$ty> {
            let mut s = <$ty>::default();
            $( s.$($field).+ = d.u64()? as _; )+
            Ok(s)
        }
    };
}

wire_stats!(
    enc_map_stats,
    dec_map_stats,
    MapTaskStats {
        input_records,
        input_bytes,
        output_records,
        shuffled_records,
        shuffled_bytes,
        flushes,
    }
);

/// One protocol message. Direction is implied by the variant: the
/// coordinator sends `JobInit`/`NewSplit`/`Ping`; workers send
/// `Segment`/`MapDone`/`MapOk`/`MapFailed`/`Pong`/`JobRejected`.
#[derive(Debug, Clone)]
pub(crate) enum Frame {
    /// Instantiate the named job on the worker connection: the registry
    /// name plus `(knob, value)` text pairs (see [`crate::knobs`]). Sent
    /// as [`WIRE_VERSION`], and decoded only from it.
    JobInit {
        name: String,
        knobs: Vec<(String, String)>,
    },
    /// Dispatch one map task attempt with its input records. Every
    /// representation the split holds is sent as raw records (a cache-hit
    /// split's pairs as edge records, which remote workers decode through
    /// the stage's normal [`MapFn::map`](crate::job::MapFn) path); a
    /// received split holds them all in one [`PackedRecords`] block.
    NewSplit {
        task: u64,
        attempt: u64,
        split: Split,
    },
    /// A shuffle segment of a map attempt, for the coordinator's reducer
    /// of `partition`.
    Segment {
        map_task: u64,
        attempt: u64,
        partition: u64,
        /// Travels as framed key/value records.
        records: SegmentBuf,
    },
    /// Map attempt completed (worker → coordinator; fans out to every
    /// partition through the coordinator's fabric).
    MapDone { map_task: u64, attempt: u64 },
    /// Map attempt succeeded; its counters follow.
    MapOk {
        task: u64,
        attempt: u64,
        stats: MapTaskStats,
    },
    /// Map attempt failed (error or panic) on the worker.
    MapFailed {
        task: u64,
        attempt: u64,
        error: String,
    },
    /// Heartbeat probe (coordinator → worker).
    Ping { nonce: u64 },
    /// Heartbeat reply.
    Pong { nonce: u64 },
    /// The worker will not run the job: an unknown name or knob, or a
    /// `JobInit` it cannot read (another wire version among them).
    JobRejected { reason: String },
}

// Body tags. Tag 0 is deliberately unused so an all-zero read is corrupt;
// 3, 4, 9, 10 and 14–17 were frames of earlier versions, and stay unused.
// Tag 1 was the unversioned `JobInit`: it decodes as a refusal.
const T_JOB_INIT_UNVERSIONED: u8 = 1;
const T_NEW_SPLIT: u8 = 2;
const T_SEGMENT: u8 = 5;
const T_MAP_DONE: u8 = 6;
const T_MAP_OK: u8 = 7;
const T_MAP_FAILED: u8 = 8;
const T_PING: u8 = 11;
const T_PONG: u8 = 12;
const T_JOB_REJECTED: u8 = 13;
const T_JOB_INIT: u8 = 18;

/// Why a worker cannot read a `JobInit` of wire version `theirs`.
fn version_mismatch(theirs: u64) -> Error {
    Error::Corrupt(format!(
        "JobInit of wire version {theirs}; this worker speaks version {WIRE_VERSION}"
    ))
}

/// A frame under construction, length prefix included: the buffer
/// [`Enc::seal`] returns is what goes on the socket, unchanged.
struct Enc {
    /// `[u32 body length, patched by seal][tag][fields…]`.
    buf: Vec<u8>,
    /// Where the trailing record blob's own `u32` length sits, once
    /// [`Enc::open_blob`] has run.
    blob_at: Option<usize>,
}

impl Enc {
    fn new(tag: u8) -> Self {
        Self::with_capacity(tag, 0)
    }
    /// A frame whose fields will take `fields` bytes.
    fn with_capacity(tag: u8, fields: usize) -> Self {
        let mut buf = Vec::with_capacity(5 + fields);
        buf.extend_from_slice(&[0; 4]);
        buf.push(tag);
        Enc { buf, blob_at: None }
    }
    fn u32(&mut self, v: usize) {
        self.buf.extend_from_slice(&(v as u32).to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len());
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    /// Start the frame's last field: a blob of framed records that runs
    /// to the end of the frame, its length patched by [`Enc::seal`].
    fn open_blob(&mut self) {
        self.blob_at = Some(self.buf.len());
        self.u32(0);
    }
    /// Patch the length prefixes; the result is the whole wire frame.
    fn seal(mut self) -> Vec<u8> {
        if let Some(at) = self.blob_at {
            let n = (self.buf.len() - at - 4) as u32;
            self.buf[at..at + 4].copy_from_slice(&n.to_le_bytes());
        }
        let body = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&body.to_le_bytes());
        self.buf
    }
}

struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.b.len() - self.pos < n {
            return Err(Error::Corrupt("truncated frame".into()));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<usize> {
        Ok(u32::from_le_bytes(self.array()?) as usize)
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn blob(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()?;
        self.take(n)
    }
    /// The frame's last field, a blob that must run exactly to the end of
    /// the body: returns the offset its payload starts at.
    fn blob_to_end(&mut self) -> Result<usize> {
        let n = self.u32()?;
        if self.b.len() - self.pos != n {
            return Err(Error::Corrupt(format!(
                "{n}-byte record blob in a frame with {} bytes left",
                self.b.len() - self.pos
            )));
        }
        Ok(self.pos)
    }
    fn str(&mut self) -> Result<String> {
        utf8(self.blob()?)
    }
    /// `JobInit` text: checked against `max` before it is copied.
    fn short_str(&mut self, max: usize) -> Result<String> {
        let b = self.blob()?;
        if b.len() > max {
            return Err(Error::Corrupt(format!(
                "{}-byte job or knob text exceeds {max}",
                b.len()
            )));
        }
        utf8(b)
    }
}

fn utf8(b: &[u8]) -> Result<String> {
    String::from_utf8(b.to_vec()).map_err(|_| Error::Corrupt("non-utf8 string".into()))
}

impl Frame {
    /// Serialize the whole wire frame, length prefix included, into the
    /// one buffer the connection writes.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let e = match self {
            Frame::JobInit { name, knobs } => {
                let mut e = Enc::new(T_JOB_INIT);
                e.u64(WIRE_VERSION);
                e.str(name);
                e.u64(knobs.len() as u64);
                for (k, v) in knobs {
                    e.str(k);
                    e.str(v);
                }
                e
            }
            Frame::NewSplit {
                task,
                attempt,
                split,
            } => {
                let packed = split.records.len_prefixed();
                let pairs = split.pairs.as_ref();
                let pair_bytes = pairs.map_or(0, |p| p.payload_bytes() + 8 * p.len());
                let mut e = Enc::with_capacity(T_NEW_SPLIT, 24 + packed.len() + pair_bytes);
                e.u64(*task);
                e.u64(*attempt);
                e.u64(split.record_count() as u64);
                // The arena's layout is the wire's: one copy carries it.
                e.buf.extend_from_slice(packed);
                for (k, v) in split.pairs.iter().flat_map(|p| p.iter()) {
                    e.u32(codec::pair_len(k, v));
                    codec::append_pair(&mut e.buf, k, v);
                }
                e
            }
            Frame::Segment {
                map_task,
                attempt,
                partition,
                records,
            } => {
                let mut e = Enc::with_capacity(T_SEGMENT, 28 + records.framed_len());
                e.u64(*map_task);
                e.u64(*attempt);
                e.u64(*partition);
                e.open_blob();
                records.append_framed(&mut e.buf);
                e
            }
            Frame::MapDone { map_task, attempt } => {
                let mut e = Enc::new(T_MAP_DONE);
                e.u64(*map_task);
                e.u64(*attempt);
                e
            }
            Frame::MapOk {
                task,
                attempt,
                stats,
            } => {
                let mut e = Enc::new(T_MAP_OK);
                e.u64(*task);
                e.u64(*attempt);
                enc_map_stats(&mut e, stats);
                e
            }
            Frame::MapFailed {
                task,
                attempt,
                error,
            } => {
                let mut e = Enc::new(T_MAP_FAILED);
                e.u64(*task);
                e.u64(*attempt);
                e.str(error);
                e
            }
            Frame::Ping { nonce } => {
                let mut e = Enc::new(T_PING);
                e.u64(*nonce);
                e
            }
            Frame::Pong { nonce } => {
                let mut e = Enc::new(T_PONG);
                e.u64(*nonce);
                e
            }
            Frame::JobRejected { reason } => {
                let mut e = Enc::new(T_JOB_REJECTED);
                e.str(reason);
                e
            }
        };
        e.seal()
    }

    /// Parse a frame body (what [`encode`](Self::encode) wrote after the
    /// length prefix). The body is foreign bytes: anything that does not
    /// parse is `Error::Corrupt`. A bulk frame keeps `body` as the arena
    /// of the records it carries.
    pub(crate) fn decode(body: Vec<u8>) -> Result<Frame> {
        let mut d = Dec::new(&body);
        let frame = match d.u8()? {
            T_JOB_INIT_UNVERSIONED => return Err(version_mismatch(0)),
            T_JOB_INIT => {
                // Nothing after the version is read from another version's
                // layout.
                match d.u64()? {
                    WIRE_VERSION => {}
                    theirs => return Err(version_mismatch(theirs)),
                }
                let name = d.short_str(MAX_NAME)?;
                let n = d.u64()?;
                if n > KNOBS.len() as u64 {
                    return Err(Error::Corrupt(format!(
                        "{n} knob pairs, the table has {}",
                        KNOBS.len()
                    )));
                }
                let mut knobs = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    knobs.push((d.short_str(MAX_NAME)?, d.short_str(MAX_KNOB_VALUE)?));
                }
                Frame::JobInit { name, knobs }
            }
            T_NEW_SPLIT => {
                let (task, attempt, n) = (d.u64()?, d.u64()?, d.u64()?);
                let at = d.pos;
                let records = PackedRecords::from_len_prefixed(body, at, n)?;
                return Ok(Frame::NewSplit {
                    task,
                    attempt,
                    split: Split {
                        records,
                        ..Split::default()
                    },
                });
            }
            T_SEGMENT => {
                let (map_task, attempt, partition) = (d.u64()?, d.u64()?, d.u64()?);
                let at = d.blob_to_end()?;
                return Ok(Frame::Segment {
                    map_task,
                    attempt,
                    partition,
                    records: SegmentBuf::from_framed(Arc::new(body), at)?,
                });
            }
            T_MAP_DONE => Frame::MapDone {
                map_task: d.u64()?,
                attempt: d.u64()?,
            },
            T_MAP_OK => Frame::MapOk {
                task: d.u64()?,
                attempt: d.u64()?,
                stats: dec_map_stats(&mut d)?,
            },
            T_MAP_FAILED => Frame::MapFailed {
                task: d.u64()?,
                attempt: d.u64()?,
                error: d.str()?,
            },
            T_PING => Frame::Ping { nonce: d.u64()? },
            T_PONG => Frame::Pong { nonce: d.u64()? },
            T_JOB_REJECTED => Frame::JobRejected { reason: d.str()? },
            t => return Err(Error::Corrupt(format!("unknown frame tag {t}"))),
        };
        if d.pos != body.len() {
            return Err(Error::Corrupt("trailing bytes in frame".into()));
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn pairs() -> SegmentBuf {
        SegmentBuf::from_pairs([
            (b"key".as_slice(), b"value".as_slice()),
            (b"", b"v2"),
            (b"k3", b""),
        ])
    }

    fn new_split(task: u64, attempt: u64, split: Split) -> Frame {
        Frame::NewSplit {
            task,
            attempt,
            split,
        }
    }

    /// Decode what [`Frame::encode`] wrote, through the socket's read path.
    fn decode_wire(wire: &[u8]) -> Result<Frame> {
        Frame::decode(read_body(&mut &wire[..])?)
    }

    /// One of every variant, bulk frames in each of their representations.
    fn one_of_each() -> Vec<Frame> {
        vec![
            new_split(
                3,
                1,
                Split::new(vec![b"a b".to_vec(), vec![], b"c".to_vec()]),
            ),
            new_split(
                6,
                0,
                Split {
                    records: PackedRecords::pack(&[&b"raw"[..], b"pk1", b"", b"pack2"]),
                    pairs: Some(pairs()),
                    aligned: None,
                },
            ),
            Frame::JobInit {
                name: "wc".into(),
                knobs: vec![("a".into(), "1".into()), ("b".into(), String::new())],
            },
            // A value far longer than a name may be: 200 snapshot fractions.
            Frame::JobInit {
                name: "wc".into(),
                knobs: vec![("a".into(), "0.0123456789012345,".repeat(200))],
            },
            Frame::Segment {
                map_task: 1,
                attempt: 0,
                partition: 3,
                records: pairs(),
            },
            Frame::MapDone {
                map_task: 9,
                attempt: 2,
            },
            Frame::MapOk {
                task: 1,
                attempt: 0,
                stats: MapTaskStats {
                    input_records: 10,
                    input_bytes: 100,
                    output_records: 20,
                    shuffled_records: 21,
                    shuffled_bytes: 200,
                    flushes: 1,
                    ..Default::default()
                },
            },
            Frame::MapFailed {
                task: 1,
                attempt: 1,
                error: "boom".into(),
            },
            Frame::Ping { nonce: 42 },
            Frame::Pong { nonce: 42 },
            Frame::JobRejected {
                reason: "unknown job".into(),
            },
        ]
    }

    #[test]
    fn frames_roundtrip() {
        for f in one_of_each() {
            let wire = f.encode();
            let back = decode_wire(&wire).unwrap_or_else(|e| panic!("{f:?}: {e}"));
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(&f),
                "{f:?}"
            );
            assert_eq!(back.encode(), wire, "{f:?} re-encodes differently");
        }
    }

    #[test]
    fn stats_travel_field_for_field() {
        let Frame::MapOk { stats, .. } = decode_wire(&one_of_each()[6].encode()).unwrap() else {
            panic!("not a MapOk");
        };
        assert_eq!(
            (stats.input_records, stats.input_bytes, stats.output_records),
            (10, 100, 20)
        );
        assert_eq!(
            (stats.shuffled_records, stats.shuffled_bytes, stats.flushes),
            (21, 200, 1)
        );
    }

    // Whole wire frames as commit 26379b8's `Frame::encode` + `Conn::send`
    // wrote them (captured by running that commit). `SEGMENT` is wire
    // version 3's: that commit's bytes less the two flag bytes (`01 00`)
    // after the partition, and a body length two less.
    const NEW_SPLIT_RECORDS: &str = "290000000203000000000000000100000000000000030000000000000003000000612062000000000100000063";
    const NEW_SPLIT_PACKED: &str = "2d0000000204000000000000000000000000000000030000000000000003000000706b3100000000050000007061636b32";
    const NEW_SPLIT_PAIRS: &str = "3d000000020500000000000000020000000000000003000000000000000c000000030000006b657976616c75650600000000000000763206000000020000006b33";
    const NEW_SPLIT_MIXED: &str = "61000000020600000000000000000000000000000009000000000000000300000061206200000000010000006303000000706b3100000000050000007061636b320c000000030000006b657976616c75650600000000000000763206000000020000006b33";
    const SEGMENT: &str = "41000000050100000000000000000000000000000003000000000000002400000003000000050000006b657976616c75650000000002000000763202000000000000006b33";

    /// The single-pass encoders write the bytes the two-pass encoding
    /// wrote (a `Segment` as version 3 lays it out), so the layout is
    /// pinned byte for byte.
    #[test]
    fn bulk_frames_are_byte_identical_to_the_two_pass_encoding() {
        let raw = || vec![b"a b".to_vec(), vec![], b"c".to_vec()];
        let mixed = Split {
            records: PackedRecords::pack(&[&b"a b"[..], b"", b"c", b"pk1", b"", b"pack2"]),
            pairs: Some(pairs()),
            aligned: None,
        };
        let packed_only = Split::new(vec![b"pk1".to_vec(), vec![], b"pack2".to_vec()]);
        let segment = Frame::Segment {
            map_task: 1,
            attempt: 0,
            partition: 3,
            records: pairs(),
        };
        for (frame, golden) in [
            (new_split(3, 1, Split::new(raw())), NEW_SPLIT_RECORDS),
            (new_split(4, 0, packed_only), NEW_SPLIT_PACKED),
            (
                new_split(5, 2, Split::from_segment(pairs())),
                NEW_SPLIT_PAIRS,
            ),
            (new_split(6, 0, mixed), NEW_SPLIT_MIXED),
            (segment, SEGMENT),
        ] {
            assert_eq!(frame.encode(), hex(golden), "{frame:?}");
        }
    }

    /// A split packed where it is made and the split a worker decodes
    /// from its frame hold the same arena layout, so each encodes to the
    /// same bytes: the body a worker receives is the arena it maps.
    #[test]
    fn a_made_split_and_its_received_copy_encode_alike() {
        let made = new_split(
            7,
            1,
            Split::new(vec![b"a b".to_vec(), vec![], b"c".to_vec()]),
        );
        let wire = made.encode();
        let body = read_body(&mut &wire[..]).unwrap();
        let body_at = body.as_ptr();
        let received = Frame::decode(body).unwrap();
        assert_eq!(received.encode(), wire);
        let Frame::NewSplit { split, .. } = received else {
            panic!("not a NewSplit");
        };
        assert_eq!(
            split.records.arena().as_ptr(),
            body_at,
            "records copied out of the body"
        );
        assert_eq!(split.records.len_prefixed(), &wire[4 + 25..]);
        let got: Vec<&[u8]> = split.records.iter().collect();
        assert_eq!(got, [&b"a b"[..], b"", b"c"]);
    }

    /// `JobInit` is read only at this build's version: the unversioned tag
    /// earlier builds sent, or another version under the new tag, is
    /// corrupt, naming both versions, and nothing after the version is
    /// read.
    #[test]
    fn job_init_of_another_wire_version_is_refused_naming_both() {
        let sent = Frame::JobInit {
            name: "wc".into(),
            knobs: vec![("reducers".into(), "2".into())],
        };
        let wire = sent.encode();
        assert_eq!(wire[4], T_JOB_INIT);
        assert_eq!(wire[5..13], WIRE_VERSION.to_le_bytes());
        assert!(matches!(decode_wire(&wire), Ok(Frame::JobInit { .. })));

        let mut unversioned = Enc::new(T_JOB_INIT_UNVERSIONED);
        unversioned.str("wc");
        unversioned.u64(0);
        let mut later = Enc::new(T_JOB_INIT);
        later.u64(WIRE_VERSION + 1);
        for (body, theirs) in [(unversioned.seal(), 0), (later.seal(), WIRE_VERSION + 1)] {
            match decode_wire(&body) {
                Err(Error::Corrupt(why)) => {
                    assert!(why.contains(&format!("wire version {theirs};")), "{why}");
                    assert!(why.contains(&format!("version {WIRE_VERSION}")), "{why}");
                }
                other => panic!("version {theirs} decoded as {other:?}"),
            }
        }
    }

    /// A received segment *is* its frame body: entries point into the one
    /// buffer the socket filled, and re-encoding it copies those framed
    /// bytes as they are.
    #[test]
    fn received_segment_shares_the_frame_body_and_forwards_it_verbatim() {
        let sent = Frame::Segment {
            map_task: 1,
            attempt: 0,
            partition: 3,
            records: pairs(),
        };
        let wire = sent.encode();
        let body = read_body(&mut &wire[..]).unwrap();
        let (at, end) = (body.as_ptr() as usize, body.as_ptr() as usize + body.len());
        let Frame::Segment { records, .. } = Frame::decode(body).unwrap() else {
            panic!("not a Segment");
        };
        assert_eq!(records.len(), 3);
        assert_eq!(records.get(0), (&b"key"[..], &b"value"[..]));
        assert_eq!(records.get(2), (&b"k3"[..], &b""[..]));
        // No second allocation of payload size: every slice lies inside
        // the body the socket read filled.
        for (k, v) in records.iter() {
            for s in [k, v] {
                let p = s.as_ptr() as usize;
                assert!(
                    at <= p && p + s.len() <= end,
                    "record copied out of the body"
                );
            }
        }
        let framed = records.framed_bytes().expect("read from framed bytes");
        assert_eq!(
            framed.as_ptr() as usize,
            at + 29,
            "payload starts after the header"
        );
        assert_eq!(framed, &wire[33..]);
        // A locally built segment has no framed bytes to reuse.
        assert!(pairs().framed_bytes().is_none());
        assert!(records.sorted_by_key().framed_bytes().is_none());

        // Re-encoded, it re-addresses the header and carries the payload on.
        let forwarded = Frame::Segment {
            map_task: 1,
            attempt: 0,
            partition: 9,
            records: records.clone(),
        }
        .encode();
        assert_eq!(forwarded[33..], wire[33..]);
        assert_eq!(forwarded[21], 9);

        // A NewSplit's records stay in its body too.
        let Frame::NewSplit { split, .. } = decode_wire(&one_of_each()[1].encode()).unwrap() else {
            panic!("not a NewSplit");
        };
        assert!(split.pairs.is_none());
        let got: Vec<&[u8]> = split.records.iter().collect();
        assert_eq!(got[..4], [&b"raw"[..], b"pk1", b"", b"pack2"]);
        assert_eq!(got[4], crate::codec::encode_pair(b"key", b"value"));
        assert_eq!((split.record_count(), got.len()), (7, 7));
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        assert!(Frame::decode(vec![]).is_err());
        assert!(Frame::decode(vec![0]).is_err());
        assert!(Frame::decode(vec![99]).is_err());
        // Truncated NewSplit.
        let mut wire = new_split(1, 0, Split::new(vec![b"abc".to_vec()])).encode();
        wire.truncate(wire.len() - 1);
        assert!(Frame::decode(wire[4..].to_vec()).is_err());
        // Unassigned tags, the reduce frames of earlier versions among
        // them, decode as nothing.
        for tag in [3, 4, 9, 10, 14, 15, 16, 17, 19] {
            assert!(Frame::decode(vec![tag, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        }
        // Trailing garbage.
        let mut wire = Frame::Ping { nonce: 0 }.encode();
        wire.push(0);
        assert!(Frame::decode(wire[4..].to_vec()).is_err());

        // A JobInit claiming more pairs than the table has rows is
        // rejected before anything is sized from the count.
        let mut e = Enc::new(T_JOB_INIT);
        e.u64(WIRE_VERSION);
        e.str("wc");
        e.u64(u64::MAX);
        assert!(matches!(
            Frame::decode(e.seal()[4..].to_vec()),
            Err(Error::Corrupt(_))
        ));
        // So is one whose text is longer than any name or value could be.
        for (name, value) in [(MAX_NAME + 1, 1), (1, MAX_KNOB_VALUE + 1)] {
            let long = Frame::JobInit {
                name: "wc".into(),
                knobs: vec![("a".repeat(name), "x".repeat(value))],
            };
            assert!(matches!(
                decode_wire(&long.encode()),
                Err(Error::Corrupt(_))
            ));
        }

        // A NewSplit whose count lies — in either direction — is found by
        // the walk over its length prefixes; nothing is sized from it.
        for n in [0, 1, 3, u64::MAX] {
            let mut wire = new_split(1, 0, Split::new(vec![b"ab".to_vec(); 2])).encode();
            wire[21..29].copy_from_slice(&n.to_le_bytes());
            assert!(matches!(decode_wire(&wire), Err(Error::Corrupt(_))), "{n}");
        }
        // A record blob shorter or longer than the rest of its frame.
        for delta in [-1i32, 1] {
            let mut wire = one_of_each()[4].encode();
            let n = u32::from_le_bytes(wire[29..33].try_into().unwrap());
            wire[29..33].copy_from_slice(&n.wrapping_add_signed(delta).to_le_bytes());
            assert!(matches!(decode_wire(&wire), Err(Error::Corrupt(_))));
        }

        // The largest legal length prefix followed by a few bytes and
        // EOF: a typed error, with nothing sized from the claim.
        let mut stream = (MAX_FRAME as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(b"abc");
        assert!(matches!(
            read_body(&mut stream.as_slice()),
            Err(Error::Corrupt(_))
        ));
        // Over the limit.
        let stream = u32::MAX.to_le_bytes();
        assert!(matches!(
            read_body(&mut stream.as_slice()),
            Err(Error::Corrupt(_))
        ));
        // Peer hung up between frames: not corruption.
        assert!(matches!(read_body(&mut &[][..]), Err(Error::Io(_))));
    }

    #[test]
    fn read_body_reads_past_one_chunk_and_keeps_no_slack() {
        let body = vec![7u8; READ_CHUNK + 5];
        let mut stream = (body.len() as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&body);
        let got = read_body(&mut stream.as_slice()).unwrap();
        assert_eq!(got, body);
        assert_eq!(got.capacity(), got.len(), "a retained arena holds no slack");
    }

    /// An arbitrary frame of variant `pick`, its payload drawn from `recs`
    /// and its scalars from `nums`.
    fn arbitrary_frame(
        pick: usize,
        recs: Vec<Vec<u8>>,
        nums: (u64, u64, u64),
        flag: bool,
    ) -> Frame {
        let (a, b, c) = nums;
        let text =
            |i: usize| String::from_utf8_lossy(recs.get(i).map_or(&[][..], |r| r)).into_owned();
        let kv = || {
            SegmentBuf::from_pairs(
                recs.chunks(2)
                    .map(|c| (c[0].as_slice(), c.last().unwrap().as_slice())),
            )
        };
        match pick % 9 {
            0 => Frame::JobInit {
                name: text(0),
                knobs: (1..recs.len().min(KNOBS.len()))
                    .map(|i| (text(i), text(i - 1)))
                    .collect(),
            },
            1 => new_split(
                a,
                b,
                Split {
                    records: PackedRecords::pack(if flag { &recs[..] } else { &[] }),
                    pairs: (c % 3 == 0).then(kv),
                    aligned: None,
                },
            ),
            2 => Frame::Segment {
                map_task: a,
                attempt: b,
                partition: c,
                records: kv(),
            },
            3 => Frame::MapDone {
                map_task: a,
                attempt: b,
            },
            4 => Frame::MapOk {
                task: a,
                attempt: b,
                stats: MapTaskStats {
                    input_records: c,
                    flushes: a ^ b,
                    ..Default::default()
                },
            },
            5 => Frame::MapFailed {
                task: a,
                attempt: b,
                error: text(0),
            },
            6 => Frame::Ping { nonce: a },
            7 => Frame::Pong { nonce: a },
            _ => Frame::JobRejected { reason: text(0) },
        }
    }

    /// Every record a decoded frame carries, touched: an entry or span
    /// that pointed outside its arena would panic here.
    fn touch(frame: &Frame) -> usize {
        match frame {
            Frame::NewSplit { split, .. } => {
                split.records.iter().map(<[u8]>::len).sum::<usize>() + split.record_count()
            }
            Frame::Segment { records, .. } => records.iter().map(|(k, v)| k.len() + v.len()).sum(),
            _ => 0,
        }
    }

    fn ok_or_corrupt<T>(r: Result<T>) -> std::result::Result<Option<T>, String> {
        match r {
            Ok(v) => Ok(Some(v)),
            Err(Error::Corrupt(_)) => Ok(None),
            Err(e) => Err(format!("neither Ok nor Corrupt: {e}")),
        }
    }

    fn records() -> impl Strategy<Value = Vec<Vec<u8>>> {
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every variant round-trips; truncated, extended or bit-flipped,
        /// its body decodes to `Ok` or `Error::Corrupt` — never a panic —
        /// and whatever decodes can be read and re-encoded.
        #[test]
        fn mutated_frames_decode_or_are_corrupt(
            pick in 0usize..9,
            recs in records(),
            nums in (any::<u64>(), any::<u64>(), any::<u64>()),
            flag in any::<bool>(),
            cut in any::<usize>(),
            tail in prop::collection::vec(any::<u8>(), 1..9),
        ) {
            let frame = arbitrary_frame(pick, recs, nums, flag);
            let wire = frame.encode();
            let back = decode_wire(&wire).map_err(|e| TestCaseError::fail(format!("{frame:?}: {e}")))?;
            prop_assert_eq!(back.encode(), wire.clone(), "{:?}", frame);
            touch(&back);

            let body = &wire[4..];
            let truncated = body[..cut % body.len()].to_vec();
            let extended = [body, tail.as_slice()].concat();
            let mut flipped = body.to_vec();
            flipped[(cut / 8) % body.len()] ^= 1 << (cut % 8);
            for mutant in [truncated, extended, flipped] {
                let outcome = ok_or_corrupt(Frame::decode(mutant.clone()))
                    .map_err(|e| TestCaseError::fail(format!("{frame:?} as {mutant:?}: {e}")))?;
                // (A mutant that decodes need not re-encode alike.)
                if let Some(f) = outcome {
                    touch(&f);
                    f.encode();
                }
            }
        }

        /// `SegmentBuf::from_framed` over bytes it did not write: any
        /// `start`, any overwritten header.
        #[test]
        fn from_framed_never_trusts_a_length(
            recs in records(),
            start in 0usize..64,
            at in any::<usize>(),
            lie in any::<u32>(),
        ) {
            let mut data = Vec::new();
            SegmentBuf::from_pairs(recs.iter().map(|r| (r.as_slice(), r.as_slice())))
                .append_framed(&mut data);
            let honest = SegmentBuf::from_framed(Arc::new(data.clone()), 0).unwrap();
            prop_assert_eq!(honest.len(), recs.len());
            prop_assert_eq!(honest.framed_bytes(), Some(data.as_slice()));
            // `start` past the end is corrupt, not an empty segment whose
            // framed bytes cannot be sliced.
            let past = data.len() + 1 + start;
            prop_assert!(matches!(
                SegmentBuf::from_framed(Arc::new(data.clone()), past),
                Err(Error::Corrupt(_))
            ));
            let at = at % (data.len() - 3);
            data[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            for start in [0, start % data.len(), data.len()] {
                let seg = ok_or_corrupt(SegmentBuf::from_framed(Arc::new(data.clone()), start))
                    .map_err(TestCaseError::fail)?;
                if let Some(seg) = seg {
                    let read: usize = seg.iter().map(|(k, v)| k.len() + v.len()).sum();
                    prop_assert_eq!(read, seg.payload_bytes());
                    prop_assert_eq!(seg.framed_bytes(), Some(&data[start..]));
                }
            }
        }

        /// The packed-split walk under a lying count, start or length.
        #[test]
        fn packed_records_never_trust_a_count(
            recs in records(),
            count in any::<u64>(),
            start in 0usize..64,
            at in any::<usize>(),
            lie in any::<u32>(),
        ) {
            let refs: Vec<&[u8]> = recs.iter().map(Vec::as_slice).collect();
            let mut arena = Vec::new();
            for r in &refs {
                arena.extend_from_slice(&(r.len() as u32).to_le_bytes());
                arena.extend_from_slice(r);
            }
            let n = recs.len() as u64;
            let honest = PackedRecords::from_len_prefixed(arena.clone(), 0, n).unwrap();
            prop_assert_eq!(honest.iter().collect::<Vec<_>>(), refs);
            for lying in [count, n - 1, n + 1, (arena.len() / 4) as u64, u64::MAX] {
                prop_assert!(lying == n || matches!(
                    PackedRecords::from_len_prefixed(arena.clone(), 0, lying),
                    Err(Error::Corrupt(_))
                ));
            }
            let at = at % (arena.len() - 3);
            arena[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            for (start, count) in [(0, n), (start, n), (start, count % 16), (arena.len() + start, 0)] {
                let got = ok_or_corrupt(PackedRecords::from_len_prefixed(arena.clone(), start, count))
                    .map_err(TestCaseError::fail)?;
                if let Some(p) = got {
                    prop_assert_eq!(p.iter().count(), p.len());
                    prop_assert_eq!(p.iter().map(|r| r.len() as u64).sum::<u64>(), p.bytes());
                }
            }
        }
    }
}
