//! Length-prefixed frame protocol for the TCP transport.
//!
//! Every frame on the wire is `[u32 LE body length][u8 tag][fields]`.
//! Integers are little-endian `u64`s, strings and byte blobs carry a
//! `u32` length prefix. Segment and final-output payloads reuse the
//! engine's framed key/value encoding (`[u32 klen][u32 vlen][key][value]`
//! per record — the same bytes spill files hold), so a received payload
//! decodes zero-copy via [`SegmentBuf::from_framed`].
//!
//! A [`JobSpec`](crate::JobSpec) carries closures and cannot travel
//! whole; [`Frame::JobInit`] ships the job *name* plus the `(name, value)`
//! text pairs of the travelling rows of [`crate::knobs::KNOBS`], and the
//! worker applies them to the spec its
//! [`JobRegistry`](super::JobRegistry) rebuilt from the name. This module
//! knows nothing about individual knobs.

use std::io::Read;
use std::sync::Arc;

use onepass_core::error::{Error, Result};
use onepass_core::SegmentBuf;

use crate::knobs::KNOBS;

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
    Ok(body)
}

/// Map-task stats that travel in a [`Frame::MapOk`]. CPU profiles stay
/// worker-local; only the counters the report aggregates are shipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WireMapStats {
    pub input_records: u64,
    pub input_bytes: u64,
    pub output_records: u64,
    pub shuffled_records: u64,
    pub shuffled_bytes: u64,
    pub flushes: u64,
}

/// Reduce-task stats that travel in a [`Frame::ReduceDone`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WireReduceStats {
    pub records_in: u64,
    pub groups_out: u64,
    pub early_emits: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub runs_created: u64,
    pub runs_deleted: u64,
    pub peak_mem: u64,
    pub spills: u64,
    pub passes: u64,
    pub snapshots_taken: u64,
    pub attempts: u64,
}

/// One protocol message. Direction is implied by the variant: the
/// coordinator sends `JobInit`/`NewSplit`/`FeedClosed`/`ReduceTask`/
/// `Red*`/`Ping`; workers send `Segment`/`MapDone`/`MapOk`/`MapFailed`/
/// `FinalBatch`/`ReduceDone`/`Pong`/`JobRejected`/`Abort`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Frame {
    /// Instantiate the named job on the worker connection: the registry
    /// name plus `(knob, value)` text pairs (see [`crate::knobs`]).
    JobInit {
        name: String,
        knobs: Vec<(String, String)>,
    },
    /// Dispatch one map task attempt with its input records.
    NewSplit {
        task: u64,
        attempt: u64,
        records: Vec<Vec<u8>>,
    },
    /// No further map tasks will arrive on this connection.
    FeedClosed,
    /// Host reduce partition `partition` on the worker connection.
    ReduceTask { partition: u64 },
    /// A shuffle segment (worker → coordinator from map tasks, and
    /// coordinator → worker into hosted reduce partitions).
    Segment {
        map_task: u64,
        attempt: u64,
        partition: u64,
        sorted: bool,
        combined: bool,
        /// Framed key/value records.
        payload: Vec<u8>,
    },
    /// Map attempt completed (worker → coordinator; fans out to every
    /// partition through the coordinator's fabric).
    MapDone { map_task: u64, attempt: u64 },
    /// Map attempt succeeded; its stats follow.
    MapOk {
        task: u64,
        attempt: u64,
        stats: WireMapStats,
    },
    /// Map attempt failed (error or panic) on the worker.
    MapFailed {
        task: u64,
        attempt: u64,
        error: String,
    },
    /// A batch of reduce output records (worker → coordinator).
    /// `kind` 0 = early, 1 = final; `payload` is framed key/value records.
    FinalBatch {
        partition: u64,
        kind: u8,
        payload: Vec<u8>,
    },
    /// Hosted reduce partition finished; its stats follow.
    ReduceDone {
        partition: u64,
        stats: WireReduceStats,
    },
    /// Heartbeat probe (coordinator → worker).
    Ping { nonce: u64 },
    /// Heartbeat reply.
    Pong { nonce: u64 },
    /// The worker does not know the submitted job name.
    JobRejected { reason: String },
    /// Worker-side map tasks aborting (mirrors `ShuffleMsg::Abort`).
    Abort,
    /// Per-partition control fan-in (coordinator → the worker hosting
    /// `partition`): a map task attempt committed.
    RedMapDone {
        partition: u64,
        map_task: u64,
        attempt: u64,
    },
    /// Per-partition: final map task count is now known.
    RedInputExhausted { partition: u64, total: u64 },
    /// Per-partition: the job is aborting.
    RedAbort { partition: u64 },
}

// Body tags. Tag 0 is deliberately unused so an all-zero read is corrupt.
const T_JOB_INIT: u8 = 1;
const T_NEW_SPLIT: u8 = 2;
const T_FEED_CLOSED: u8 = 3;
const T_REDUCE_TASK: u8 = 4;
const T_SEGMENT: u8 = 5;
const T_MAP_DONE: u8 = 6;
const T_MAP_OK: u8 = 7;
const T_MAP_FAILED: u8 = 8;
const T_FINAL_BATCH: u8 = 9;
const T_REDUCE_DONE: u8 = 10;
const T_PING: u8 = 11;
const T_PONG: u8 = 12;
const T_JOB_REJECTED: u8 = 13;
const T_ABORT: u8 = 14;
const T_RED_MAP_DONE: u8 = 15;
const T_RED_INPUT_EXHAUSTED: u8 = 16;
const T_RED_ABORT: u8 = 17;

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(tag: u8) -> Self {
        Enc { buf: vec![tag] }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
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
        if self.pos + n > self.b.len() {
            return Err(Error::Corrupt("truncated frame".into()));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn blob(&mut self) -> Result<&'a [u8]> {
        let n = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
        self.take(n)
    }
    fn bytes(&mut self) -> Result<Vec<u8>> {
        Ok(self.blob()?.to_vec())
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
    /// Serialize the frame body (everything after the length prefix).
    pub(crate) fn encode(&self) -> Vec<u8> {
        match self {
            Frame::JobInit { name, knobs } => {
                let mut e = Enc::new(T_JOB_INIT);
                e.str(name);
                e.u64(knobs.len() as u64);
                for (k, v) in knobs {
                    e.str(k);
                    e.str(v);
                }
                e.buf
            }
            Frame::NewSplit {
                task,
                attempt,
                records,
            } => {
                let mut e = Enc::new(T_NEW_SPLIT);
                e.u64(*task);
                e.u64(*attempt);
                e.u64(records.len() as u64);
                for r in records {
                    e.bytes(r);
                }
                e.buf
            }
            Frame::FeedClosed => Enc::new(T_FEED_CLOSED).buf,
            Frame::ReduceTask { partition } => {
                let mut e = Enc::new(T_REDUCE_TASK);
                e.u64(*partition);
                e.buf
            }
            Frame::Segment {
                map_task,
                attempt,
                partition,
                sorted,
                combined,
                payload,
            } => {
                let mut e = Enc::new(T_SEGMENT);
                e.u64(*map_task);
                e.u64(*attempt);
                e.u64(*partition);
                e.u8(*sorted as u8);
                e.u8(*combined as u8);
                e.bytes(payload);
                e.buf
            }
            Frame::MapDone { map_task, attempt } => {
                let mut e = Enc::new(T_MAP_DONE);
                e.u64(*map_task);
                e.u64(*attempt);
                e.buf
            }
            Frame::MapOk {
                task,
                attempt,
                stats,
            } => {
                let mut e = Enc::new(T_MAP_OK);
                e.u64(*task);
                e.u64(*attempt);
                for v in [
                    stats.input_records,
                    stats.input_bytes,
                    stats.output_records,
                    stats.shuffled_records,
                    stats.shuffled_bytes,
                    stats.flushes,
                ] {
                    e.u64(v);
                }
                e.buf
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
                e.buf
            }
            Frame::FinalBatch {
                partition,
                kind,
                payload,
            } => {
                let mut e = Enc::new(T_FINAL_BATCH);
                e.u64(*partition);
                e.u8(*kind);
                e.bytes(payload);
                e.buf
            }
            Frame::ReduceDone { partition, stats } => {
                let mut e = Enc::new(T_REDUCE_DONE);
                e.u64(*partition);
                for v in [
                    stats.records_in,
                    stats.groups_out,
                    stats.early_emits,
                    stats.bytes_written,
                    stats.bytes_read,
                    stats.runs_created,
                    stats.runs_deleted,
                    stats.peak_mem,
                    stats.spills,
                    stats.passes,
                    stats.snapshots_taken,
                    stats.attempts,
                ] {
                    e.u64(v);
                }
                e.buf
            }
            Frame::Ping { nonce } => {
                let mut e = Enc::new(T_PING);
                e.u64(*nonce);
                e.buf
            }
            Frame::Pong { nonce } => {
                let mut e = Enc::new(T_PONG);
                e.u64(*nonce);
                e.buf
            }
            Frame::JobRejected { reason } => {
                let mut e = Enc::new(T_JOB_REJECTED);
                e.str(reason);
                e.buf
            }
            Frame::Abort => Enc::new(T_ABORT).buf,
            Frame::RedMapDone {
                partition,
                map_task,
                attempt,
            } => {
                let mut e = Enc::new(T_RED_MAP_DONE);
                e.u64(*partition);
                e.u64(*map_task);
                e.u64(*attempt);
                e.buf
            }
            Frame::RedInputExhausted { partition, total } => {
                let mut e = Enc::new(T_RED_INPUT_EXHAUSTED);
                e.u64(*partition);
                e.u64(*total);
                e.buf
            }
            Frame::RedAbort { partition } => {
                let mut e = Enc::new(T_RED_ABORT);
                e.u64(*partition);
                e.buf
            }
        }
    }

    /// Parse a frame body produced by [`encode`](Self::encode).
    pub(crate) fn decode(body: &[u8]) -> Result<Frame> {
        let mut d = Dec::new(body);
        let frame = match d.u8()? {
            T_JOB_INIT => {
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
                let task = d.u64()?;
                let attempt = d.u64()?;
                let n = d.u64()? as usize;
                if n > body.len() {
                    return Err(Error::Corrupt("record count exceeds frame".into()));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(d.bytes()?);
                }
                Frame::NewSplit {
                    task,
                    attempt,
                    records,
                }
            }
            T_FEED_CLOSED => Frame::FeedClosed,
            T_REDUCE_TASK => Frame::ReduceTask {
                partition: d.u64()?,
            },
            T_SEGMENT => Frame::Segment {
                map_task: d.u64()?,
                attempt: d.u64()?,
                partition: d.u64()?,
                sorted: d.u8()? != 0,
                combined: d.u8()? != 0,
                payload: d.bytes()?,
            },
            T_MAP_DONE => Frame::MapDone {
                map_task: d.u64()?,
                attempt: d.u64()?,
            },
            T_MAP_OK => Frame::MapOk {
                task: d.u64()?,
                attempt: d.u64()?,
                stats: WireMapStats {
                    input_records: d.u64()?,
                    input_bytes: d.u64()?,
                    output_records: d.u64()?,
                    shuffled_records: d.u64()?,
                    shuffled_bytes: d.u64()?,
                    flushes: d.u64()?,
                },
            },
            T_MAP_FAILED => Frame::MapFailed {
                task: d.u64()?,
                attempt: d.u64()?,
                error: d.str()?,
            },
            T_FINAL_BATCH => Frame::FinalBatch {
                partition: d.u64()?,
                kind: d.u8()?,
                payload: d.bytes()?,
            },
            T_REDUCE_DONE => Frame::ReduceDone {
                partition: d.u64()?,
                stats: WireReduceStats {
                    records_in: d.u64()?,
                    groups_out: d.u64()?,
                    early_emits: d.u64()?,
                    bytes_written: d.u64()?,
                    bytes_read: d.u64()?,
                    runs_created: d.u64()?,
                    runs_deleted: d.u64()?,
                    peak_mem: d.u64()?,
                    spills: d.u64()?,
                    passes: d.u64()?,
                    snapshots_taken: d.u64()?,
                    attempts: d.u64()?,
                },
            },
            T_PING => Frame::Ping { nonce: d.u64()? },
            T_PONG => Frame::Pong { nonce: d.u64()? },
            T_JOB_REJECTED => Frame::JobRejected { reason: d.str()? },
            T_ABORT => Frame::Abort,
            T_RED_MAP_DONE => Frame::RedMapDone {
                partition: d.u64()?,
                map_task: d.u64()?,
                attempt: d.u64()?,
            },
            T_RED_INPUT_EXHAUSTED => Frame::RedInputExhausted {
                partition: d.u64()?,
                total: d.u64()?,
            },
            T_RED_ABORT => Frame::RedAbort {
                partition: d.u64()?,
            },
            t => return Err(Error::Corrupt(format!("unknown frame tag {t}"))),
        };
        if d.pos != body.len() {
            return Err(Error::Corrupt("trailing bytes in frame".into()));
        }
        Ok(frame)
    }
}

/// Encode a [`SegmentBuf`] as framed key/value records — byte-compatible
/// with spill files and with [`SegmentBuf::from_framed`].
pub(crate) fn encode_kv(records: &SegmentBuf) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.payload_bytes() + records.len() * 8);
    for (k, v) in records.iter() {
        append_kv(&mut out, k, v);
    }
    out
}

/// Append one framed key/value record to `out`.
pub(crate) fn append_kv(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

/// Decode framed key/value records into a zero-copy [`SegmentBuf`].
pub(crate) fn decode_kv(payload: Vec<u8>) -> Result<SegmentBuf> {
    SegmentBuf::from_framed(Arc::new(payload), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_core::SegmentBufBuilder;

    fn roundtrip(f: Frame) {
        let body = f.encode();
        assert_eq!(Frame::decode(&body).unwrap(), f);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::NewSplit {
            task: 3,
            attempt: 1,
            records: vec![b"a b".to_vec(), vec![], b"c".to_vec()],
        });
        roundtrip(Frame::JobInit {
            name: "wc".into(),
            knobs: vec![("a".into(), "1".into()), ("b".into(), String::new())],
        });
        // A value far longer than a name may be: 200 snapshot fractions.
        roundtrip(Frame::JobInit {
            name: "wc".into(),
            knobs: vec![("a".into(), "0.0123456789012345,".repeat(200))],
        });
        roundtrip(Frame::FeedClosed);
        roundtrip(Frame::ReduceTask { partition: 2 });
        roundtrip(Frame::Segment {
            map_task: 1,
            attempt: 0,
            partition: 3,
            sorted: true,
            combined: false,
            payload: b"xyz".to_vec(),
        });
        roundtrip(Frame::MapDone {
            map_task: 9,
            attempt: 2,
        });
        roundtrip(Frame::MapOk {
            task: 1,
            attempt: 0,
            stats: WireMapStats {
                input_records: 10,
                input_bytes: 100,
                output_records: 20,
                shuffled_records: 20,
                shuffled_bytes: 200,
                flushes: 1,
            },
        });
        roundtrip(Frame::MapFailed {
            task: 1,
            attempt: 1,
            error: "boom".into(),
        });
        roundtrip(Frame::FinalBatch {
            partition: 0,
            kind: 1,
            payload: vec![1, 2, 3],
        });
        roundtrip(Frame::ReduceDone {
            partition: 1,
            stats: WireReduceStats {
                records_in: 5,
                groups_out: 3,
                attempts: 1,
                ..Default::default()
            },
        });
        roundtrip(Frame::Ping { nonce: 42 });
        roundtrip(Frame::Pong { nonce: 42 });
        roundtrip(Frame::JobRejected {
            reason: "unknown job".into(),
        });
        roundtrip(Frame::Abort);
        roundtrip(Frame::RedMapDone {
            partition: 1,
            map_task: 2,
            attempt: 0,
        });
        roundtrip(Frame::RedInputExhausted {
            partition: 1,
            total: 8,
        });
        roundtrip(Frame::RedAbort { partition: 0 });
    }

    #[test]
    fn kv_payload_decodes_zero_copy() {
        let mut b = SegmentBufBuilder::new();
        b.push(b"key", b"value");
        b.push(b"", b"v2");
        let seg = b.finish();
        let payload = encode_kv(&seg);
        let back = decode_kv(payload).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(0), (&b"key"[..], &b"value"[..]));
        assert_eq!(back.get(1), (&b""[..], &b"v2"[..]));
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        assert!(Frame::decode(&[]).is_err());
        assert!(Frame::decode(&[0]).is_err());
        assert!(Frame::decode(&[99]).is_err());
        // Truncated NewSplit.
        let mut body = Frame::NewSplit {
            task: 1,
            attempt: 0,
            records: vec![b"abc".to_vec()],
        }
        .encode();
        body.truncate(body.len() - 1);
        assert!(Frame::decode(&body).is_err());
        // Trailing garbage.
        let mut body = Frame::Abort.encode();
        body.push(0);
        assert!(Frame::decode(&body).is_err());

        // A JobInit claiming more pairs than the table has rows is
        // rejected before anything is sized from the count.
        let mut e = Enc::new(T_JOB_INIT);
        e.str("wc");
        e.u64(u64::MAX);
        assert!(matches!(Frame::decode(&e.buf), Err(Error::Corrupt(_))));
        // So is one whose text is longer than any name or value could be.
        for (name, value) in [(MAX_NAME + 1, 1), (1, MAX_KNOB_VALUE + 1)] {
            let long = Frame::JobInit {
                name: "wc".into(),
                knobs: vec![("a".repeat(name), "x".repeat(value))],
            };
            assert!(matches!(
                Frame::decode(&long.encode()),
                Err(Error::Corrupt(_))
            ));
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
    fn read_body_reads_past_one_chunk() {
        let body = vec![7u8; READ_CHUNK + 5];
        let mut stream = (body.len() as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&body);
        assert_eq!(read_body(&mut stream.as_slice()).unwrap(), body);
    }
}
