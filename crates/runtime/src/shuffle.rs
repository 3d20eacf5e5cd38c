//! Shuffle plumbing: how map output reaches reducers.
//!
//! Pull vs push (Table III "Shuffling"): under **pull**, a reducer sees a
//! map task's output only after the task completes — Hadoop's
//! "reducers periodically poll a centralized service asking about
//! completed mappers" (§II-A). Under **push**, mappers transmit output
//! eagerly in fine-grained batches while still running — MapReduce
//! Online's pipelining (§III-D), which is also what the paper's proposed
//! system adopts (§IV-2). Which one a job runs follows from its reduce
//! backend ([`ReduceBackend::pushes`](crate::ReduceBackend::pushes)).
//!
//! In-process, both reduce to bounded channels; the difference the engine
//! preserves is *when* data is sent (at flush/batch boundaries vs at task
//! completion) and therefore when reducers can start incremental work.
//!
//! Every message is stamped with the producing **attempt**: when the
//! driver retries a failed map task, two attempts of the same logical
//! task may both emit segments. Reducers dedup by `(map_task, attempt)`, committing exactly
//! one attempt per task (the one whose `MapDone` arrives first), so
//! re-execution never double-counts records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};
use onepass_core::governor::MemoryGovernor;
use onepass_core::obs::Counter;
use onepass_core::SegmentBuf;

/// A batch of intermediate records for one reducer partition.
///
/// Records live in a shared flat arena ([`SegmentBuf`]): cloning a segment
/// (e.g. to retain it for reduce-retry replay) bumps two `Arc`s instead of
/// copying every key and value.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Originating map task id.
    pub map_task: usize,
    /// Execution attempt of the originating map task (0 = first run).
    pub attempt: usize,
    /// Destination reducer partition.
    pub partition: usize,
    /// Not read by the engine, and `false` in every segment it makes: a
    /// reducer knows its segments are key-sorted from its job's backend
    /// ([`ReduceBackend::sorts_map_output`](crate::ReduceBackend::sorts_map_output)).
    /// Kept so that code building a `Segment` field by field compiles.
    pub sorted: bool,
    /// Not read by the engine, and `false` in every segment it makes: a
    /// reducer knows its values are combined states from its job's
    /// aggregate ([`Aggregator::combinable`](onepass_groupby::Aggregator::combinable)).
    /// Kept so that code building a `Segment` field by field compiles.
    pub combined: bool,
    /// The records, backed by a flat arena.
    pub records: SegmentBuf,
}

impl Segment {
    /// `records` for `partition` from `attempt` of `map_task`.
    pub fn new(map_task: usize, attempt: usize, partition: usize, records: SegmentBuf) -> Segment {
        Segment {
            map_task,
            attempt,
            partition,
            sorted: false,
            combined: false,
            records,
        }
    }

    /// Payload bytes in this segment.
    pub fn payload_bytes(&self) -> u64 {
        self.records.payload_bytes() as u64
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the segment carries no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Messages received by a reduce task.
#[derive(Debug, Clone)]
pub enum ShuffleMsg {
    /// A batch of records for this reducer.
    Segment(Segment),
    /// The given map task attempt has completed (sent to every reducer).
    /// A reduce task has all of its input once every map task has a
    /// committed attempt.
    MapDone {
        /// Completed map task id.
        map_task: usize,
        /// The attempt that completed; reducers commit the first attempt
        /// whose `MapDone` they see and discard segments from any other.
        attempt: usize,
    },
    /// The driver is aborting the job (retries exhausted); reducers stop
    /// immediately instead of waiting for map tasks that will never
    /// finish.
    Abort,
    /// Streamed-input jobs (pipelined plan edges) don't know their map
    /// task count up front: the scheduler broadcasts it once the upstream
    /// feed closes. Reducers treat the total as unknown until this
    /// arrives, then finish once that many `MapDone`s have committed.
    InputExhausted {
        /// Final number of map tasks in the job.
        total_map_tasks: usize,
    },
}

/// Pressure-driven shrink of the effective depth of a bounded queue: the
/// serving tier's ingest gate.
///
/// When the memory governor reports pool utilization above its high-water
/// fraction, a producer stops filling a consumer's queue to its full depth
/// and instead waits for it to drain below a shrunken depth. Consumers
/// under memory pressure are usually pressure *sources* (large in-flight
/// hash state); slowing the producer gives the governor's rebalancing and
/// shedding a chance to act before more batches pile up — MapReduce
/// Online's "wait until reducers are able to keep up again" (§III-D),
/// extended from queue-full to memory-pressure.
#[derive(Clone)]
pub struct PressureGate {
    governor: MemoryGovernor,
    /// Effective queue depth while over high water.
    shrunk_depth: usize,
    /// Admissions that stalled at least once.
    stalls: Counter,
}

impl PressureGate {
    /// Max iterations of the 50µs wait loop per admission (~50ms cap), so
    /// a stuck governor can never deadlock the producer.
    const MAX_WAIT_ITERS: u32 = 1000;

    /// Gate on `governor` pressure with a shrunken queue depth of
    /// `depth / 8` (min 1), counting each stalled admission in `stalls`.
    pub(crate) fn new(governor: MemoryGovernor, depth: usize, stalls: Counter) -> Self {
        PressureGate {
            governor,
            shrunk_depth: (depth / 8).max(1),
            stalls,
        }
    }

    /// Wait (bounded) while the pool is over high water and `sender`'s
    /// queue is at or above the shrunken depth. Counts at most one stall
    /// per admission.
    pub fn admit<T>(&self, sender: &Sender<T>) {
        let mut stalled = false;
        for _ in 0..Self::MAX_WAIT_ITERS {
            if !self.governor.over_high_water() || sender.len() < self.shrunk_depth {
                break;
            }
            if !stalled {
                stalled = true;
                self.stalls.inc(1);
            }
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
}

/// Sending side of the shuffle, shared by all map workers.
///
/// All volume accounting (records / bytes) lives here, *above*
/// the [`SegmentSink`](crate::transport::SegmentSink) that actually moves
/// the data — so `shuffled_records`/`shuffled_bytes` in a
/// [`JobReport`](crate::report::JobReport) are transport-agnostic: the
/// same job shuffles the same counted volume whether the sink is the
/// in-proc channel fabric or a TCP connection.
#[derive(Clone)]
pub struct ShuffleTx {
    sink: Arc<dyn crate::transport::SegmentSink>,
    bytes: Arc<AtomicU64>,
    records: Arc<AtomicU64>,
    /// Live byte and segment counters (detached when metrics are off; a
    /// job's own totals are read from the fields above, which no other
    /// round or same-named stage shares).
    obs: (Counter, Counter),
}

impl ShuffleTx {
    /// Wrap an arbitrary sink in fresh accounting. Used by the in-proc
    /// fabric constructor and by worker processes wiring map tasks to a
    /// TCP connection back to the coordinator.
    pub(crate) fn over(sink: Arc<dyn crate::transport::SegmentSink>) -> Self {
        ShuffleTx {
            sink,
            bytes: Arc::new(AtomicU64::new(0)),
            records: Arc::new(AtomicU64::new(0)),
            obs: (Counter::detached(), Counter::detached()),
        }
    }

    /// Mirror shuffle volume into live metrics counters. Call before
    /// cloning the tx out to map workers.
    pub(crate) fn with_metrics(mut self, bytes: Counter, segments: Counter) -> Self {
        self.obs = (bytes, segments);
        self
    }

    /// Route a segment to its partition's reducer.
    pub fn send_segment(&self, seg: Segment) {
        if seg.is_empty() {
            return;
        }
        self.bytes.fetch_add(seg.payload_bytes(), Ordering::Relaxed);
        self.records.fetch_add(seg.len() as u64, Ordering::Relaxed);
        self.obs.0.inc(seg.payload_bytes());
        self.obs.1.inc(1);
        self.sink.send_segment(seg);
    }

    /// Announce a completed map task attempt to every reducer.
    pub fn map_done(&self, map_task: usize, attempt: usize) {
        self.sink.map_done(map_task, attempt);
    }

    /// Tell every reducer the job is aborting; they unblock and return.
    pub fn abort(&self) {
        self.sink.abort();
    }

    /// Tell every reducer how many map tasks the job ended up with. Sent
    /// by the scheduler when a streamed split feed closes; reducers that
    /// started without a known total finish once this many map tasks have
    /// committed.
    pub fn input_exhausted(&self, total_map_tasks: usize) {
        self.sink.input_exhausted(total_map_tasks);
    }

    /// Total payload bytes shuffled so far.
    pub fn shuffled_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total records shuffled so far. Counted at the fabric (not per map
    /// task) so combine-table flushes are included.
    pub fn shuffled_records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }
}

/// The engine's reducer queue depth, in segments. Every caller outside
/// tests ran with this value, so it is a constant rather than a knob.
pub const CHANNEL_DEPTH: usize = 64;

/// Build the shuffle fabric for `reducers` partitions. Returns the shared
/// sender plus one receiver per reducer. `depth` bounds each reducer's
/// queue — the backpressure that makes push shuffling adaptive ("if the
/// reducers become overloaded, the mappers will [...] wait until reducers
/// are able to keep up again", §III-D).
pub fn shuffle_fabric(reducers: usize, depth: usize) -> (ShuffleTx, Vec<Receiver<ShuffleMsg>>) {
    let mut senders = Vec::with_capacity(reducers);
    let mut receivers = Vec::with_capacity(reducers);
    for _ in 0..reducers {
        let (tx, rx) = bounded(depth);
        senders.push(tx);
        receivers.push(rx);
    }
    let sink = Arc::new(crate::transport::inproc::InProcSink::new(senders));
    (ShuffleTx::over(sink), receivers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(partition: usize, n: usize) -> Segment {
        let mut b = onepass_core::SegmentBufBuilder::new();
        for i in 0..n {
            b.push(format!("k{i}").as_bytes(), b"v");
        }
        Segment::new(0, 0, partition, b.finish())
    }

    #[test]
    fn segments_route_by_partition() {
        let (tx, rxs) = shuffle_fabric(2, 16);
        tx.send_segment(seg(0, 3));
        tx.send_segment(seg(1, 5));
        match rxs[0].recv().unwrap() {
            ShuffleMsg::Segment(s) => assert_eq!(s.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
        match rxs[1].recv().unwrap() {
            ShuffleMsg::Segment(s) => assert_eq!(s.len(), 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn map_done_broadcasts_with_attempt() {
        let (tx, rxs) = shuffle_fabric(3, 4);
        tx.map_done(7, 2);
        for rx in &rxs {
            match rx.recv().unwrap() {
                ShuffleMsg::MapDone { map_task, attempt } => {
                    assert_eq!(map_task, 7);
                    assert_eq!(attempt, 2);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn abort_broadcasts() {
        let (tx, rxs) = shuffle_fabric(2, 4);
        tx.abort();
        for rx in &rxs {
            assert!(matches!(rx.recv().unwrap(), ShuffleMsg::Abort));
        }
    }

    #[test]
    fn byte_accounting() {
        let (tx, rxs) = shuffle_fabric(1, 16);
        tx.send_segment(seg(0, 4)); // keys "k0".."k3" (2 B) + "v" (1 B)
        assert_eq!(tx.shuffled_bytes(), 4 * 3);
        assert_eq!(tx.shuffled_records(), 4);
        assert!(matches!(rxs[0].try_recv(), Ok(ShuffleMsg::Segment(_))));
        // Empty segments are dropped silently: nothing reaches the reducer.
        tx.send_segment(seg(0, 0));
        assert!(rxs[0].try_recv().is_err(), "an empty segment was forwarded");
        assert_eq!(tx.shuffled_records(), 4);
    }

    /// The serving tier's use: a producer admits each batch through the
    /// gate before sending it on a bounded queue.
    #[test]
    fn pressure_gate_stalls_over_high_water_and_releases_under() {
        use onepass_core::governor::{LargestConsumer, MemoryGovernor};

        let gov = MemoryGovernor::new(1000, Arc::new(LargestConsumer));
        let stalls = Counter::detached();
        let gate = PressureGate::new(gov.clone(), 16, stalls.clone());
        let (tx, rx) = bounded::<u32>(16);
        let send = |v| {
            gate.admit(&tx);
            tx.send(v).unwrap();
        };

        // Fill the queue past the shrunken depth (16 / 8 = 2) with no
        // pressure: nothing stalls.
        (0..4).for_each(send);
        assert_eq!(stalls.value(), 0);

        // Push the pool over high water; the next admission stalls
        // (bounded) because the queue is already >= shrunk depth.
        let lease = gov.lease(900);
        assert!(lease.grant(900).is_ok());
        assert!(gov.over_high_water());
        send(4);
        assert_eq!(stalls.value(), 1);

        // Drained below the shrunken depth, the queue admits at once even
        // under pressure.
        while rx.len() > 1 {
            rx.recv().unwrap();
        }
        send(5);
        assert_eq!(stalls.value(), 1);

        // Release the pressure: sends flow freely again.
        lease.release(900);
        (6..10).for_each(send);
        assert_eq!(stalls.value(), 1);
        assert_eq!(rx.len(), 6);
    }

    #[test]
    fn backpressure_blocks_until_drained() {
        // Deterministic, no wall-clock sleeps: with a depth-1 channel the
        // first send fills the queue; a second send on a helper thread
        // must park inside the channel until this thread drains one
        // message. The barrier guarantees the helper has *started* its
        // send before we sample the queue, and the queue length (still 1)
        // proves the send hasn't gone through.
        let (tx, rxs) = shuffle_fabric(1, 1);
        tx.send_segment(seg(0, 1));
        assert_eq!(rxs[0].len(), 1, "queue full before helper starts");

        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let b2 = barrier.clone();
        let t = std::thread::spawn(move || {
            b2.wait();
            // Blocks until the main thread drains one message.
            tx.send_segment(seg(0, 1));
        });

        barrier.wait();
        // The helper is now at (or past) the blocking send; the queue can
        // only hold one message, so its segment cannot have been accepted.
        assert_eq!(rxs[0].len(), 1, "second send must not fit yet");
        let _ = rxs[0].recv().unwrap();
        // recv freed one slot; the helper's send completes and the second
        // segment becomes observable with a blocking recv.
        let _ = rxs[0].recv().unwrap();
        t.join().unwrap();
        assert!(rxs[0].is_empty());
    }
}
