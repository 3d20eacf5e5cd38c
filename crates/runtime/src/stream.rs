//! Streaming (one-pass) session API.
//!
//! The batch driver ([`Engine`](crate::Engine)) runs a job over a fixed
//! set of splits. `StreamSession` is the *data-arrives-over-time* entry
//! point the paper motivates: records are fed in batches as they arrive,
//! the map function and incremental reduce run immediately, and early
//! answers flow out of `feed` itself — "near real-time stream processing
//! that obviates the need for data loading and returns pipelined answers
//! as data arrives" (§IV).
//!
//! Only incremental backends make sense here, so the session rejects
//! blocking ones (sort-merge, hybrid hash) at construction: with those,
//! *no* answer can be produced until the stream closes, which defeats the
//! purpose (exactly Table III's point about Hadoop). Every partition is
//! therefore a [`FreqHashGrouper`] (IncHash is its gate-off spelling),
//! and that concrete operator is what a governed session asks to shed.

use std::sync::Arc;

use onepass_core::bytes_kv::KvBuf;
use onepass_core::error::{Error, Result};
use onepass_core::governor::MemoryGovernor;
use onepass_core::io::{SharedMemStore, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_groupby::{EmitKind, FreqHashGrouper, GroupBy, OpStats, Sink};

use crate::executor;
use crate::job::{HashPartitioner, JobSpec, MapEmitter, MapFn, Partitioner};

/// How a [`StreamSession`] sources its per-partition memory.
///
/// The default is the classic standalone mode: each partition owns a
/// private budget carved from the job's `reduce_budget_bytes`. Serving
/// many sessions side by side instead wants every session *leasing* from
/// one job-wide [`MemoryGovernor`] pool, so spill policies arbitrate
/// across sessions (tenants). Only the serving tier pools memory: a
/// batch reducer owns its budget.
#[derive(Clone, Default)]
pub struct SessionOptions {
    /// When set, per-partition budgets are leases from this governor's
    /// pool instead of private budgets; shed requests the governor posts
    /// are serviced at feed-batch boundaries.
    pub governor: Option<MemoryGovernor>,
    /// Initial per-partition lease (or private budget) in bytes. Defaults
    /// to `job.reduce_budget_bytes / job.reducers`, floored at 1 KiB.
    pub lease_bytes: Option<usize>,
}

impl std::fmt::Debug for SessionOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionOptions")
            .field("governed", &self.governor.is_some())
            .field("lease_bytes", &self.lease_bytes)
            .finish()
    }
}

/// An early or final answer from the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamAnswer {
    /// Group key.
    pub key: Vec<u8>,
    /// Answer value.
    pub value: Vec<u8>,
    /// Early (produced mid-stream) or final (produced at close).
    pub kind: EmitKind,
}

/// A live one-pass analytics session.
///
/// ```
/// use std::num::NonZeroU64;
/// use std::sync::Arc;
/// use onepass_runtime::{JobSpec, ReduceBackend};
/// use onepass_runtime::job::identity_map;
/// use onepass_runtime::stream::StreamSession;
/// use onepass_groupby::{CountAgg, EmitKind};
///
/// let job = JobSpec::builder("alerts")
///     .map_fn(Arc::new(identity_map))
///     .aggregate(Arc::new(CountAgg))
///     .reducers(2)
///     .backend(ReduceBackend::IncHash {
///         early_every: NonZeroU64::new(3),
///     })
///     .build()
///     .unwrap();
/// let mut session = StreamSession::new(job).unwrap();
///
/// // Early answer fires mid-stream when "x" hits 3 occurrences.
/// let answers = session
///     .feed([b"x".as_slice(), b"y", b"x", b"x"])
///     .unwrap();
/// assert_eq!(answers.len(), 1);
/// assert_eq!(answers[0].key, b"x");
/// assert_eq!(answers[0].kind, EmitKind::Early);
///
/// let (finals, _stats) = session.close().unwrap();
/// assert_eq!(finals.iter().filter(|a| a.kind == EmitKind::Final).count(), 2);
/// ```
pub struct StreamSession {
    job: JobSpec,
    groupers: Vec<FreqHashGrouper>,
    records_in: u64,
    sheds: u64,
    shed_bytes: u64,
    closed: bool,
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("partitions", &self.groupers.len())
            .field("records_in", &self.records_in)
            .field("sheds", &self.sheds)
            .field("closed", &self.closed)
            .finish()
    }
}

struct CaptureSink<'a>(&'a mut Vec<StreamAnswer>);

impl Sink for CaptureSink<'_> {
    fn emit(&mut self, key: &[u8], value: &[u8], kind: EmitKind) {
        self.0.push(StreamAnswer {
            key: key.to_vec(),
            value: value.to_vec(),
            kind,
        });
    }
}

impl StreamSession {
    /// Open a session for `job`. The backend must be incremental
    /// ([`ReduceBackend::IncHash`](crate::job::ReduceBackend::IncHash) or
    /// [`ReduceBackend::FreqHash`](crate::job::ReduceBackend::FreqHash)).
    pub fn new(job: JobSpec) -> Result<Self> {
        Self::with_options(job, SessionOptions::default())
    }

    /// Open a session with full [`SessionOptions`] — in particular, with
    /// per-partition budgets leased from a shared [`MemoryGovernor`] pool
    /// instead of private ones, so many concurrent sessions arbitrate one
    /// memory limit.
    pub fn with_options(job: JobSpec, opts: SessionOptions) -> Result<Self> {
        job.validate()?;
        let per_partition = opts
            .lease_bytes
            .unwrap_or(job.reduce_budget_bytes / job.reducers)
            .max(1024);
        let mut groupers = Vec::with_capacity(job.reducers);
        for _ in 0..job.reducers {
            let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
            let budget = match &opts.governor {
                Some(gov) => gov.lease(per_partition),
                None => MemoryBudget::new(per_partition),
            };
            let agg = Arc::clone(&job.agg);
            // Grouper construction goes through the executor's shared
            // service, which rejects blocking backends with a config
            // error: with those, no answer can be produced until the
            // stream closes, defeating the purpose.
            groupers.push(executor::build_incremental_grouper(
                &job, store, budget, agg,
            )?);
        }
        Ok(StreamSession {
            job,
            groupers,
            records_in: 0,
            sheds: 0,
            shed_bytes: 0,
            closed: false,
        })
    }

    /// Feed a batch of input records; returns any early answers the batch
    /// produced.
    pub fn feed<'r>(
        &mut self,
        records: impl IntoIterator<Item = &'r [u8]>,
    ) -> Result<Vec<StreamAnswer>> {
        self.feed_with(records, |f, record, out| f.map(record, out))
    }

    /// Feed `(key, value)` pairs through the job's own
    /// [`MapFn::map_pair`] — the door every inter-stage record enters a
    /// stage by. This is how a serving cascade pours one session's finals
    /// into the next stage's session without framing them as edge records
    /// (a record stage still sees them framed, by `map_pair`'s default).
    pub fn feed_pairs<'r>(
        &mut self,
        pairs: impl IntoIterator<Item = (&'r [u8], &'r [u8])>,
    ) -> Result<Vec<StreamAnswer>> {
        self.feed_with(pairs, |f, (key, value), out| f.map_pair(key, value, out))
    }

    /// Map every item of a batch through `apply`, then push the routed
    /// output into the groupers.
    fn feed_with<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        apply: impl Fn(&dyn MapFn, T, &mut dyn MapEmitter),
    ) -> Result<Vec<StreamAnswer>> {
        if self.closed {
            return Err(Error::InvalidState("session is closed".into()));
        }
        let mut answers = Vec::new();
        // Collect map output into one arena first (borrow rules: the
        // emitter borrows self.job fields immutably, groupers are mutated
        // after). Each record is written into the arena exactly once; the
        // per-partition segments below are views over it.
        let mut buf = KvBuf::new();
        {
            struct RouteEmitter<'a> {
                partitioner: HashPartitioner,
                reducers: usize,
                buf: &'a mut KvBuf,
            }
            impl MapEmitter for RouteEmitter<'_> {
                fn emit(&mut self, key: &[u8], value: &[u8]) {
                    let p = self.partitioner.partition(key, self.reducers) as u32;
                    self.buf.push(p, key, value);
                }
            }
            let mut emitter = RouteEmitter {
                partitioner: HashPartitioner::default(),
                reducers: self.groupers.len(),
                buf: &mut buf,
            };
            // Count into a local and commit after the whole batch maps:
            // a map panic (poison record) must leave the session exactly
            // as it was, including this counter, so the serving layer can
            // re-feed record-by-record without double counting.
            let mut mapped = 0u64;
            for item in items {
                apply(self.job.map_fn.as_ref(), item, &mut emitter);
                mapped += 1;
            }
            self.records_in += mapped;
        }
        self.push_routed(buf, &mut answers)?;
        Ok(answers)
    }

    /// Push a routed map-output buffer into the per-partition groupers on
    /// the caller's thread, then service any shed requests the governor
    /// posted on this session's leases at this batch boundary, so a
    /// session under cross-tenant pressure spills through its operators'
    /// own correctness-neutral spill paths.
    fn push_routed(&mut self, mut buf: KvBuf, answers: &mut Vec<StreamAnswer>) -> Result<()> {
        let segments = buf.freeze_into_segments(self.groupers.len());
        let mut sink = CaptureSink(answers);
        for (grouper, seg) in self.groupers.iter_mut().zip(segments) {
            grouper.push_batch(&seg, &mut sink)?;
        }
        self.service_shed_requests()
    }

    /// Check every partition lease for a governor-posted shed request and
    /// service it with [`FreqHashGrouper::shed`]: one coldest-first
    /// eviction round into the operator's own cold buckets. No-op for
    /// private (non-leased) budgets — those never carry requests.
    fn service_shed_requests(&mut self) -> Result<()> {
        for g in &mut self.groupers {
            let want = g.budget().take_shed_request();
            if want > 0 {
                let freed = g.shed(want)?;
                self.sheds += 1;
                self.shed_bytes += freed as u64;
            }
        }
        Ok(())
    }

    /// Records fed so far.
    pub fn records_in(&self) -> u64 {
        self.records_in
    }

    /// Governor-requested sheds serviced so far, and the bytes they freed.
    pub fn shed_stats(&self) -> (u64, u64) {
        (self.sheds, self.shed_bytes)
    }

    /// Sum of this session's per-partition budget limits (lease sizes in
    /// governed mode).
    pub fn budget_bytes(&self) -> usize {
        self.groupers.iter().map(|g| g.budget().limit()).sum()
    }

    /// Move every partition's budget limit by `delta` bytes (floored at
    /// 1 KiB): a serving session that pools its subscribers' fair shares
    /// grows when a tenant joins it and shrinks when one leaves.
    pub(crate) fn resize_budgets(&self, delta: isize) {
        for b in self.groupers.iter().map(FreqHashGrouper::budget) {
            b.set_limit(b.limit().saturating_add_signed(delta).max(1024));
        }
    }

    /// Close the stream: flush every group's final answer plus per-
    /// partition operator statistics.
    pub fn close(mut self) -> Result<(Vec<StreamAnswer>, Vec<OpStats>)> {
        self.closed = true;
        let mut answers = Vec::new();
        let mut stats = Vec::new();
        for g in &mut self.groupers {
            let mut sink = CaptureSink(&mut answers);
            stats.push(g.finish(&mut sink)?);
        }
        Ok((answers, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ReduceBackend;
    use onepass_groupby::CountAgg;
    use std::num::NonZeroU64;

    fn session(backend: ReduceBackend) -> StreamSession {
        let job = JobSpec::builder("stream")
            .map_fn(Arc::new(crate::job::identity_map))
            .aggregate(Arc::new(CountAgg))
            .reducers(2)
            .backend(backend)
            .build()
            .unwrap();
        StreamSession::new(job).unwrap()
    }

    #[test]
    fn early_answers_flow_mid_stream() {
        let mut s = session(ReduceBackend::IncHash {
            early_every: NonZeroU64::new(3),
        });
        let batch1: Vec<&[u8]> = vec![b"x", b"y", b"x"];
        assert!(
            s.feed(batch1).unwrap().is_empty(),
            "no threshold crossed yet"
        );
        let batch2: Vec<&[u8]> = vec![b"x", b"z"];
        let answers = s.feed(batch2).unwrap();
        assert_eq!(answers.len(), 1, "x crossed the threshold");
        assert_eq!(answers[0].key, b"x");
        assert_eq!(answers[0].kind, EmitKind::Early);
        let (finals, _) = s.close().unwrap();
        let finals: Vec<_> = finals
            .iter()
            .filter(|a| a.kind == EmitKind::Final)
            .collect();
        assert_eq!(finals.len(), 3, "x, y, z all appear at close");
    }

    #[test]
    fn blocking_backends_are_rejected() {
        let job = JobSpec::builder("stream").build().unwrap(); // sort-merge default
        let err = StreamSession::new(job);
        assert!(matches!(err, Err(Error::Config(_))));
    }

    #[test]
    fn feed_after_close_fails() {
        let s = session(ReduceBackend::FreqHash);
        let (_, stats) = s.close().unwrap();
        assert_eq!(stats.len(), 2);

        let mut s = session(ReduceBackend::IncHash { early_every: None });
        let b: Vec<&[u8]> = vec![b"a"];
        s.feed(b).unwrap();
        assert_eq!(s.records_in(), 1);
    }

    #[test]
    fn one_large_batch_over_many_partitions_stays_exact() {
        let job = JobSpec::builder("stream")
            .map_fn(Arc::new(crate::job::identity_map))
            .aggregate(Arc::new(CountAgg))
            .reducers(4)
            .backend(ReduceBackend::IncHash { early_every: None })
            .build()
            .unwrap();
        let mut s = StreamSession::new(job).unwrap();
        // One batch of 20,000 records over four partitions.
        let keys: Vec<Vec<u8>> = (0..20_000u32)
            .map(|i| format!("k{}", i % 257).into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        s.feed(refs).unwrap();
        let (answers, _) = s.close().unwrap();
        let total: u64 = answers
            .iter()
            .filter(|a| a.kind == EmitKind::Final)
            .map(|a| u64::from_le_bytes(a.value.as_slice().try_into().unwrap()))
            .sum();
        assert_eq!(total, 20_000);
        let groups = answers.iter().filter(|a| a.kind == EmitKind::Final).count();
        assert_eq!(groups, 257);
    }

    #[test]
    fn governed_sessions_share_one_pool_and_service_sheds() {
        use onepass_core::governor::{policy_by_name, MemoryGovernor};

        // Two sessions lease from one tiny pool; pushing skewed keys
        // through both must trigger governor shed requests which the
        // sessions service at feed boundaries — and the final counts stay
        // exact regardless.
        let gov = MemoryGovernor::new(64 * 1024, policy_by_name("largest-consumer").unwrap());
        let mk = || {
            let job = JobSpec::builder("gov-stream")
                .map_fn(Arc::new(crate::job::identity_map))
                .aggregate(Arc::new(CountAgg))
                .reducers(1)
                .backend(ReduceBackend::IncHash { early_every: None })
                .build()
                .unwrap();
            StreamSession::with_options(
                job,
                SessionOptions {
                    governor: Some(gov.clone()),
                    lease_bytes: Some(8 * 1024),
                },
            )
            .unwrap()
        };
        let mut a = mk();
        let mut b = mk();
        assert_eq!(gov.live_leases(), 2);
        let keys: Vec<Vec<u8>> = (0..4000u32)
            .map(|i| format!("key-{i:05}").into_bytes())
            .collect();
        for chunk in keys.chunks(500) {
            let refs: Vec<&[u8]> = chunk.iter().map(|k| k.as_slice()).collect();
            a.feed(refs.clone()).unwrap();
            b.feed(refs).unwrap();
        }
        for x in [&a, &b] {
            assert!(x.shed_stats().0 > 0, "no shed serviced: {x:?}");
        }
        let count = |s: StreamSession| {
            let (answers, _) = s.close().unwrap();
            answers.iter().filter(|x| x.kind == EmitKind::Final).count()
        };
        assert_eq!(count(a), 4000);
        assert_eq!(count(b), 4000);
    }

    #[test]
    fn feed_pairs_enters_through_the_jobs_own_map_pair() {
        // Route (key, count-le) pairs into a single bucket keyed by count
        // parity, summing counts.
        let route = |_k: &[u8], v: &[u8], out: &mut dyn MapEmitter| {
            let n = u64::from_le_bytes(v.try_into().unwrap());
            let bucket = if n % 2 == 0 { b"even" } else { b"odd\0" };
            out.emit(bucket, v);
        };
        let job = JobSpec::builder("pairs")
            .map_fn(crate::job::pair_map_fn(Arc::new(route)))
            .aggregate(Arc::new(onepass_groupby::SumAgg))
            .reducers(2)
            .backend(ReduceBackend::IncHash { early_every: None })
            .build()
            .unwrap();
        let mut s = StreamSession::new(job).unwrap();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (1..=4u64)
            .map(|n| (format!("k{n}").into_bytes(), n.to_le_bytes().to_vec()))
            .collect();
        s.feed_pairs(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
            .unwrap();
        let (answers, _) = s.close().unwrap();
        let mut sums = std::collections::BTreeMap::new();
        for a in answers.iter().filter(|a| a.kind == EmitKind::Final) {
            sums.insert(
                a.key.clone(),
                u64::from_le_bytes(a.value.as_slice().try_into().unwrap()),
            );
        }
        assert_eq!(sums[b"even".as_slice()], 6); // 2 + 4
        assert_eq!(sums[b"odd\0".as_slice()], 4); // 1 + 3
    }

    #[test]
    fn counts_are_exact_across_partitions() {
        let mut s = session(ReduceBackend::FreqHash);
        for i in 0..50u32 {
            let key = format!("k{}", i % 7);
            let batch: Vec<&[u8]> = vec![key.as_bytes()];
            s.feed(batch).unwrap();
        }
        let (answers, _) = s.close().unwrap();
        let total: u64 = answers
            .iter()
            .filter(|a| a.kind == EmitKind::Final)
            .map(|a| u64::from_le_bytes(a.value.as_slice().try_into().unwrap()))
            .sum();
        assert_eq!(total, 50);
    }
}
