//! Framed TCP connection shared by coordinator and workers.
//!
//! A [`Conn`] wraps one socket with independently locked read and write
//! halves, so a reader thread can block in [`Conn::recv`] while other
//! threads interleave whole frames through [`Conn::send`]. Frames are
//! `[u32 LE length][body]`, encoded once into the buffer that is written
//! and received once into the buffer that is decoded; flow control is
//! TCP's own (a slow receiver backpressures senders through the socket
//! buffer, the distributed analogue of the in-proc bounded channels).

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;

use onepass_core::error::{Error, Result};
use onepass_core::obs::Counter;

use super::wire::{read_body, Frame, MAX_FRAME};
use super::SegmentSink;
use crate::shuffle::{Segment, ShuffleTx};

/// One framed, bidirectional connection.
pub(crate) struct Conn {
    peer: String,
    writer: Mutex<TcpStream>,
    reader: Mutex<BufReader<TcpStream>>,
    /// Kept solely so either side can force-unblock the reader.
    raw: TcpStream,
    /// Bytes written and read, length prefixes included: the cells of
    /// `onepass_transport_bytes_total{dir}` when the coordinator dialled
    /// with metrics on, detached cells otherwise.
    tx_bytes: Counter,
    rx_bytes: Counter,
}

/// A panic while one of this connection's locks was held: the stream may
/// hold half a frame, so the connection is as good as lost.
fn poisoned<T>(_: std::sync::PoisonError<T>) -> Error {
    Error::InvalidState("connection lock poisoned by a panicked thread".into())
}

impl Conn {
    /// Wrap an established socket. `peer` is used in error messages;
    /// `tx_bytes` / `rx_bytes` count what crosses it.
    pub(crate) fn new(
        stream: TcpStream,
        peer: String,
        tx_bytes: Counter,
        rx_bytes: Counter,
    ) -> Result<Self> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let reader = stream.try_clone()?;
        Ok(Conn {
            peer,
            writer: Mutex::new(writer),
            reader: Mutex::new(BufReader::new(reader)),
            raw: stream,
            tx_bytes,
            rx_bytes,
        })
    }

    /// Dial `addr` and wrap the socket.
    pub(crate) fn connect(addr: &str, tx_bytes: Counter, rx_bytes: Counter) -> Result<Self> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| Error::Io(std::io::Error::new(e.kind(), format!("{addr}: {e}"))))?;
        Conn::new(stream, addr.to_string(), tx_bytes, rx_bytes)
    }

    /// The remote address this connection talks to.
    pub(crate) fn peer(&self) -> &str {
        &self.peer
    }

    /// Encode `frame` and write it.
    pub(crate) fn send(&self, frame: &Frame) -> Result<()> {
        self.send_encoded(&frame.encode())
    }

    /// Write one whole encoded frame — length prefix included, as
    /// [`Frame::encode`] or the wire module's `Enc::seal` built it — with
    /// a single `write_all` of that buffer.
    pub(crate) fn send_encoded(&self, buf: &[u8]) -> Result<()> {
        if buf.len() > 4 + MAX_FRAME {
            return Err(Error::InvalidState(format!(
                "{}-byte frame exceeds the {MAX_FRAME}-byte body limit",
                buf.len()
            )));
        }
        self.writer.lock().map_err(poisoned)?.write_all(buf)?;
        self.tx_bytes.inc(buf.len() as u64);
        Ok(())
    }

    /// Block until one whole frame arrives (or the peer hangs up). The
    /// received body is handed to the decoder, which keeps it as the
    /// arena of any records the frame carries.
    pub(crate) fn recv(&self) -> Result<Frame> {
        let body = read_body(&mut *self.reader.lock().map_err(poisoned)?)?;
        self.rx_bytes.inc(4 + body.len() as u64);
        Frame::decode(body)
    }

    /// Bytes written so far (frames included, length prefixes included).
    #[cfg(test)]
    pub(crate) fn tx_bytes(&self) -> u64 {
        self.tx_bytes.value()
    }

    /// Bytes read so far.
    #[cfg(test)]
    pub(crate) fn rx_bytes(&self) -> u64 {
        self.rx_bytes.value()
    }

    /// Force-close both directions; any blocked `recv`/`send` unblocks
    /// with an error.
    pub(crate) fn shutdown(&self) {
        let _ = self.raw.shutdown(std::net::Shutdown::Both);
    }
}

/// Worker-side shuffle sink: map tasks on a worker process push their
/// segments into this, which frames them back to the coordinator. The
/// coordinator's own fabric then routes them (and does the accounting —
/// the worker's counts travel separately in `MapOk` stats).
pub(crate) struct TcpSink {
    conn: std::sync::Arc<Conn>,
}

impl TcpSink {
    pub(crate) fn new(conn: std::sync::Arc<Conn>) -> Self {
        TcpSink { conn }
    }

    /// A [`ShuffleTx`] whose fabric is this connection.
    pub(crate) fn shuffle_tx(conn: std::sync::Arc<Conn>) -> ShuffleTx {
        ShuffleTx::over(std::sync::Arc::new(TcpSink::new(conn)))
    }
}

impl SegmentSink for TcpSink {
    fn send_segment(&self, seg: Segment) {
        // Send errors mean the coordinator hung up (job over or this
        // worker was declared dead); the map task keeps running and its
        // MapOk/MapFailed send will fail the same way.
        let _ = self.conn.send(&Frame::Segment {
            map_task: seg.map_task as u64,
            attempt: seg.attempt as u64,
            partition: seg.partition as u64,
            records: seg.records,
        });
    }

    fn map_done(&self, map_task: usize, attempt: usize) {
        let _ = self.conn.send(&Frame::MapDone {
            map_task: map_task as u64,
            attempt: attempt as u64,
        });
    }

    /// Sever the connection: the coordinator's worker-loss path fails
    /// this worker's in-flight attempts.
    fn abort(&self) {
        self.conn.shutdown();
    }

    fn input_exhausted(&self, _total_map_tasks: usize) {
        // Workers never learn the job-wide task total; the coordinator's
        // reducers do.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn conn_roundtrips_frames_and_counts_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let conn =
                Conn::new(s, "client".into(), Counter::detached(), Counter::detached()).unwrap();
            let f = conn.recv().unwrap();
            conn.send(&f).unwrap(); // echo
            conn.recv().unwrap_err(); // peer shut down
        });

        let conn = Conn::connect(&addr, Counter::detached(), Counter::detached()).unwrap();
        let sent = Frame::Ping { nonce: 7 };
        conn.send(&sent).unwrap();
        assert!(matches!(conn.recv().unwrap(), Frame::Ping { nonce: 7 }));
        assert!(conn.tx_bytes() > 0);
        assert_eq!(conn.tx_bytes(), conn.rx_bytes(), "echo is symmetric");
        conn.shutdown();
        server.join().unwrap();
    }

    /// The bytes of a `NewSplit` are written once: prefix, 25-byte header
    /// and each record behind its length, nothing sent twice or padded.
    #[test]
    fn new_split_goes_out_as_exactly_its_encoding() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let records: Vec<Vec<u8>> = (0..1000u32)
            .map(|i| format!("click {i} of a thousand").into_bytes())
            .collect();
        let payload: u64 = records.iter().map(|r| 4 + r.len() as u64).sum();
        let want = records.clone();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let conn =
                Conn::new(s, "client".into(), Counter::detached(), Counter::detached()).unwrap();
            let Frame::NewSplit { task, split, .. } = conn.recv().unwrap() else {
                panic!("not a NewSplit");
            };
            assert_eq!(task, 7);
            let got: Vec<&[u8]> = split.records.iter().collect();
            assert_eq!(got, want);
            conn.rx_bytes()
        });
        let conn = Conn::connect(&addr, Counter::detached(), Counter::detached()).unwrap();
        conn.send(&Frame::NewSplit {
            task: 7,
            attempt: 0,
            split: crate::map_task::Split::new(records),
        })
        .unwrap();
        assert_eq!(conn.tx_bytes(), 4 + 25 + payload);
        assert_eq!(server.join().unwrap(), conn.tx_bytes());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            use std::io::Write as _;
            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
        });
        let conn = Conn::connect(&addr, Counter::detached(), Counter::detached()).unwrap();
        assert!(matches!(conn.recv(), Err(Error::Corrupt(_))));
        server.join().unwrap();
    }
}
