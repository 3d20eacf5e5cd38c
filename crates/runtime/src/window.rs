//! Tumbling-window stream processing on top of [`StreamSession`].
//!
//! The paper positions its engine as the substrate for "near real-time
//! stream processing" (§IV). Windowing is the missing piece between
//! running aggregates and stream queries: answers per time window, closed
//! by watermark progress. This module provides event-time tumbling
//! windows with bounded lateness — each window is its own incremental
//! hash session, so per-window answers are exact and early emission
//! still works inside the open window.

use std::collections::BTreeMap;
use std::sync::Arc;

use onepass_core::error::{Error, Result};

use crate::job::JobSpec;
use crate::stream::{SessionOptions, StreamAnswer, StreamSession};

/// Extracts an event-time timestamp from an input record.
/// Records yielding `None` are counted as malformed and skipped.
pub trait EventTime: Send + Sync {
    /// The record's event time, in the stream's time unit.
    fn timestamp(&self, record: &[u8]) -> Option<u64>;
}

impl<F> EventTime for F
where
    F: Fn(&[u8]) -> Option<u64> + Send + Sync,
{
    fn timestamp(&self, record: &[u8]) -> Option<u64> {
        self(record)
    }
}

/// Tumbling-window configuration.
#[derive(Debug, Clone, Copy)]
pub struct WindowConfig {
    /// Window length in event-time units (> 0).
    pub window_len: u64,
    /// How far event time may lag the watermark before a window closes.
    /// Records older than `watermark − allowed_lateness` whose window has
    /// closed are dropped (and counted).
    pub allowed_lateness: u64,
}

/// The results of one closed window.
#[derive(Debug)]
pub struct WindowResult {
    /// Window start (inclusive), event time.
    pub start: u64,
    /// Window end (exclusive), event time.
    pub end: u64,
    /// Final per-group answers for this window.
    pub answers: Vec<StreamAnswer>,
}

/// An event-time tumbling-window session.
pub struct WindowedSession {
    job: JobSpec,
    timestamper: Arc<dyn EventTime>,
    config: WindowConfig,
    /// Options applied to every per-window session (shared memory
    /// governor lease).
    options: SessionOptions,
    /// Open windows by window index (start = idx * window_len).
    windows: BTreeMap<u64, StreamSession>,
    watermark: u64,
    /// Largest window index ever closed (+1), to reject re-opens.
    closed_below: u64,
    late_dropped: u64,
    malformed: u64,
}

impl std::fmt::Debug for WindowedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedSession")
            .field("open_windows", &self.windows.len())
            .field("watermark", &self.watermark)
            .field("late_dropped", &self.late_dropped)
            .finish()
    }
}

impl WindowedSession {
    /// Create a windowed session. The job must use an incremental backend
    /// (same constraint as [`StreamSession`]).
    pub fn new(
        job: JobSpec,
        timestamper: Arc<dyn EventTime>,
        config: WindowConfig,
    ) -> Result<Self> {
        Self::with_options(job, timestamper, config, SessionOptions::default())
    }

    /// [`WindowedSession::new`] with explicit [`SessionOptions`] — every
    /// per-window session inherits them, so windows of many tenants can
    /// lease from one shared governor pool.
    pub fn with_options(
        job: JobSpec,
        timestamper: Arc<dyn EventTime>,
        config: WindowConfig,
        options: SessionOptions,
    ) -> Result<Self> {
        if config.window_len == 0 {
            return Err(Error::Config("window length must be > 0".into()));
        }
        // Validate the backend eagerly by constructing (and dropping) a
        // probe session.
        StreamSession::with_options(job.clone(), options.clone())?;
        Ok(WindowedSession {
            job,
            timestamper,
            config,
            options,
            windows: BTreeMap::new(),
            watermark: 0,
            closed_below: 0,
            late_dropped: 0,
            malformed: 0,
        })
    }

    /// Records dropped for arriving after their window closed.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Records skipped because no timestamp could be extracted.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Currently open windows.
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// Current watermark (the largest event time seen).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Feed a batch; returns any windows that closed as a consequence
    /// (in window order). Early per-group answers inside open windows are
    /// produced by the underlying sessions' early-emit policy and
    /// returned with each closed window's finals.
    pub fn feed<'r>(
        &mut self,
        records: impl IntoIterator<Item = &'r [u8]>,
    ) -> Result<Vec<WindowResult>> {
        for rec in records {
            let Some(ts) = self.timestamper.timestamp(rec) else {
                self.malformed += 1;
                continue;
            };
            self.watermark = self.watermark.max(ts);
            let idx = ts / self.config.window_len;
            if idx < self.closed_below {
                self.late_dropped += 1;
                continue;
            }
            let session = match self.windows.entry(idx) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(e) => e.insert(
                    StreamSession::with_options(self.job.clone(), self.options.clone())?,
                ),
            };
            session.feed(std::iter::once(rec))?;
        }
        self.close_ripe_windows()
    }

    /// Close every window whose end (+ lateness) is at or below the
    /// watermark.
    fn close_ripe_windows(&mut self) -> Result<Vec<WindowResult>> {
        let mut out = Vec::new();
        while let Some((&idx, _)) = self.windows.iter().next() {
            let end = (idx + 1) * self.config.window_len;
            if end + self.config.allowed_lateness > self.watermark {
                break;
            }
            let session = self.windows.remove(&idx).expect("just observed");
            let (answers, _) = session.close()?;
            self.closed_below = self.closed_below.max(idx + 1);
            out.push(WindowResult {
                start: idx * self.config.window_len,
                end,
                answers,
            });
        }
        Ok(out)
    }

    /// Close all remaining windows (end of stream), in window order.
    pub fn flush(mut self) -> Result<Vec<WindowResult>> {
        let mut out = Vec::new();
        let indices: Vec<u64> = self.windows.keys().copied().collect();
        for idx in indices {
            let session = self.windows.remove(&idx).expect("listed");
            let (answers, _) = session.close()?;
            out.push(WindowResult {
                start: idx * self.config.window_len,
                end: (idx + 1) * self.config.window_len,
                answers,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ReduceBackend;
    use onepass_groupby::{CountAgg, EmitKind};

    /// Records: `"<ts>:<key>"`.
    fn ts_of(record: &[u8]) -> Option<u64> {
        let s = std::str::from_utf8(record).ok()?;
        s.split(':').next()?.parse().ok()
    }

    fn key_map(record: &[u8], out: &mut dyn crate::job::MapEmitter) {
        if let Some(pos) = record.iter().position(|&b| b == b':') {
            out.emit(&record[pos + 1..], &[]);
        }
    }

    fn session(window_len: u64, lateness: u64) -> WindowedSession {
        let job = JobSpec::builder("windowed")
            .map_fn(Arc::new(key_map))
            .aggregate(Arc::new(CountAgg))
            .reducers(2)
            .backend(ReduceBackend::IncHash { early: None })
            .build()
            .unwrap();
        WindowedSession::new(
            job,
            Arc::new(ts_of),
            WindowConfig {
                window_len,
                allowed_lateness: lateness,
            },
        )
        .unwrap()
    }

    fn counts(result: &WindowResult) -> std::collections::BTreeMap<String, u64> {
        result
            .answers
            .iter()
            .filter(|a| a.kind == EmitKind::Final)
            .map(|a| {
                (
                    String::from_utf8(a.key.clone()).unwrap(),
                    u64::from_le_bytes(a.value.as_slice().try_into().unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn windows_close_on_watermark_with_exact_counts() {
        let mut s = session(10, 0);
        let batch: Vec<&[u8]> = vec![b"1:a", b"3:a", b"5:b", b"9:a"];
        assert!(s.feed(batch).unwrap().is_empty(), "window 0 still open");
        // ts 12 pushes the watermark past window 0's end.
        let closed = s.feed(vec![b"12:c".as_slice()]).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!((closed[0].start, closed[0].end), (0, 10));
        let c = counts(&closed[0]);
        assert_eq!(c["a"], 3);
        assert_eq!(c["b"], 1);
        let rest = s.flush().unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(counts(&rest[0])["c"], 1);
    }

    #[test]
    fn lateness_holds_windows_open() {
        let mut s = session(10, 5);
        s.feed(vec![b"1:a".as_slice(), b"12:b".as_slice()]).unwrap();
        // Watermark 12 < end(10) + lateness(5): window 0 still open.
        assert_eq!(s.open_windows(), 2);
        // A late record for window 0 is still accepted.
        let closed = s.feed(vec![b"2:a".as_slice()]).unwrap();
        assert!(closed.is_empty());
        let closed = s.feed(vec![b"15:b".as_slice()]).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(counts(&closed[0])["a"], 2);
    }

    #[test]
    fn too_late_records_are_dropped_and_counted() {
        let mut s = session(10, 0);
        s.feed(vec![b"5:a".as_slice(), b"25:b".as_slice()]).unwrap();
        assert_eq!(s.late_dropped(), 0);
        // Window 0 closed at watermark 25; ts 3 is too late.
        s.feed(vec![b"3:a".as_slice()]).unwrap();
        assert_eq!(s.late_dropped(), 1);
    }

    #[test]
    fn malformed_records_are_counted_not_fatal() {
        let mut s = session(10, 0);
        s.feed(vec![b"nottime:a".as_slice(), b"4:a".as_slice()])
            .unwrap();
        assert_eq!(s.malformed(), 1);
        let out = s.flush().unwrap();
        assert_eq!(counts(&out[0])["a"], 1);
    }

    #[test]
    fn multiple_windows_close_in_order() {
        let mut s = session(10, 0);
        let batch: Vec<&[u8]> = vec![b"5:a", b"15:b", b"25:c", b"45:d"];
        let closed = s.feed(batch).unwrap();
        assert_eq!(closed.len(), 3);
        assert!(closed.windows(2).all(|w| w[0].start < w[1].start));
        assert_eq!(s.open_windows(), 1);
    }

    #[test]
    fn zero_window_len_rejected() {
        let job = JobSpec::builder("w")
            .aggregate(Arc::new(CountAgg))
            .backend(ReduceBackend::IncHash { early: None })
            .build()
            .unwrap();
        let err = WindowedSession::new(
            job,
            Arc::new(ts_of),
            WindowConfig {
                window_len: 0,
                allowed_lateness: 0,
            },
        );
        assert!(err.is_err());
    }
}
