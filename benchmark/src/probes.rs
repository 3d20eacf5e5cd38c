//! Layer probes of the traced pass: each times the calls into one layer's
//! public functions, from outside, over a sample of the workload's own
//! records, so `ns/rec × record count` is comparable with the end-to-end
//! figure. Every probe runs inside a span named after its metric family.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use onepass_core::bytes_kv::KvBuf;
use onepass_core::config::DEFAULT_MERGE_FACTOR;
use onepass_core::hashlib::fingerprint;
use onepass_core::io::{FileSpillStore, SharedMemStore, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_core::SegmentBuf;
use onepass_groupby::sink::CountingSink;
use onepass_groupby::{
    Aggregator, FreqHashGrouper, GroupBy, HybridHashGrouper, IncHashGrouper, MultiPassMerger,
    OpStats, SortMergeGrouper,
};
use onepass_runtime::codec::{decode_pair, encode_pair};
use onepass_runtime::job::HashPartitioner;
use onepass_runtime::shuffle::{shuffle_fabric, Segment, ShuffleMsg};
use onepass_runtime::{CacheConfig, DatasetCache, Partitioner};
use onepass_sketch::{FrequentItems, LossyCounting, MisraGries, SpaceSaving};
use onepass_workloads::clickgen::Click;

use crate::span::SpanLog;
use crate::workload::Metrics;

/// Records per probe batch: the push-shuffle granularity of the presets,
/// i.e. the batch size reducers actually receive.
pub const BATCH_RECORDS: usize = 4096;

/// Records per map-side sort: one split, as a sort-spill map task sorts.
const SORT_CHUNK_RECORDS: usize = 20_000;

/// Reducer partitions, as in every workload.
const PARTITIONS: usize = 2;

/// Sorted runs the merge probe starts from.
const MERGE_RUNS: usize = 64;

/// What the probes run on.
pub struct ProbeInput {
    /// Text click lines (parse probe).
    pub clicks: Vec<Vec<u8>>,
    /// Intermediate `(key, value)` pairs as the workload's map function
    /// emits them, in [`BATCH_RECORDS`]-record batches.
    pub pairs: Vec<SegmentBuf>,
    /// The workload's reduce aggregate (state growth sets how hard the
    /// tight-budget probes spill).
    pub agg: Arc<dyn Aggregator>,
}

impl ProbeInput {
    /// Batch `pairs` into probe input.
    pub fn new<'a>(
        clicks: Vec<Vec<u8>>,
        pairs: impl IntoIterator<Item = (&'a [u8], &'a [u8])>,
        agg: Arc<dyn Aggregator>,
    ) -> Self {
        let mut batches = Vec::new();
        let mut cur: Vec<(&[u8], &[u8])> = Vec::with_capacity(BATCH_RECORDS);
        for pair in pairs {
            cur.push(pair);
            if cur.len() == BATCH_RECORDS {
                batches.push(SegmentBuf::from_pairs(cur.drain(..)));
            }
        }
        if !cur.is_empty() {
            batches.push(SegmentBuf::from_pairs(cur.drain(..)));
        }
        ProbeInput {
            clicks,
            pairs: batches,
            agg,
        }
    }

    /// Probe input over text clicks: the pairs are what a click map
    /// function emits, key user id, value from `value`.
    pub fn from_clicks(
        clicks: Vec<Vec<u8>>,
        value: fn(&Click) -> [u8; 8],
        agg: Arc<dyn Aggregator>,
    ) -> Self {
        let emitted: Vec<([u8; 4], [u8; 8])> = clicks
            .iter()
            .map(|line| {
                let c = Click::from_text(line).expect("generated clicks parse");
                (c.user.to_le_bytes(), value(&c))
            })
            .collect();
        let pairs = emitted.iter().map(|(k, v)| (&k[..], &v[..]));
        ProbeInput::new(clicks, pairs, agg)
    }

    fn pair_count(&self) -> usize {
        self.pairs.iter().map(SegmentBuf::len).sum()
    }
}

/// The sessionization map function's value: `[u32 ts][u32 url]`.
pub fn session_value(c: &Click) -> [u8; 8] {
    let mut value = [0u8; 8];
    value[..4].copy_from_slice(&c.ts.to_le_bytes());
    value[4..].copy_from_slice(&c.url.to_le_bytes());
    value
}

fn per(ns: u128, n: usize) -> f64 {
    ns as f64 / n.max(1) as f64
}

/// Run every probe; `scratch` is a directory inside the checkout for the
/// file-store probe.
pub fn run_all(input: &ProbeInput, scratch: &Path, spans: &mut SpanLog) -> Metrics {
    let mut m = Metrics::new();
    let outer = spans.begin("probes");
    parse(input, spans, &mut m);
    let partitions = fingerprint_partition(input, spans, &mut m);
    scatter(input, &partitions, spans, &mut m);
    sort_partition_key(input, &partitions, spans, &mut m);
    io(input, scratch, spans, &mut m);
    groupby(input, spans, &mut m);
    merge(input, spans, &mut m);
    sketches(input, spans, &mut m);
    shuffle(input, spans, &mut m);
    codec(input, spans, &mut m);
    cache(input, spans, &mut m);
    spans.end(outer);
    m
}

fn parse(input: &ProbeInput, spans: &mut SpanLog, m: &mut Metrics) {
    let ns = spans.scope("workloads.parse_click", || {
        let t = Instant::now();
        let mut acc = 0u64;
        for line in &input.clicks {
            if let Some(c) = Click::from_text(black_box(line)) {
                acc = acc.wrapping_add(u64::from(c.ts ^ c.user ^ c.url));
            }
        }
        black_box(acc);
        t.elapsed().as_nanos()
    });
    m.insert(
        "workloads.parse_click_ns_per_rec",
        per(ns, input.clicks.len()),
    );
}

/// Times `fingerprint` + `partition_fp` per key and returns each record's
/// partition for the scatter and sort probes.
fn fingerprint_partition(input: &ProbeInput, spans: &mut SpanLog, m: &mut Metrics) -> Vec<u32> {
    let partitioner = HashPartitioner::default();
    let mut partitions = Vec::with_capacity(input.pair_count());
    let ns = spans.scope("hashlib.fingerprint_partition", || {
        let t = Instant::now();
        for batch in &input.pairs {
            for (key, _) in batch.iter() {
                let fp = fingerprint(black_box(key));
                partitions.push(partitioner.partition_fp(fp, key, PARTITIONS) as u32);
            }
        }
        t.elapsed().as_nanos()
    });
    m.insert(
        "hashlib.fingerprint_partition_ns_per_key",
        per(ns, partitions.len()),
    );
    partitions
}

fn scatter(input: &ProbeInput, partitions: &[u32], spans: &mut SpanLog, m: &mut Metrics) {
    let mut mem_bytes = 0usize;
    let ns = spans.scope("bytes_kv.scatter", || {
        let t = Instant::now();
        let mut parts = partitions.iter();
        for batch in &input.pairs {
            let mut buf = KvBuf::new();
            for ((key, value), &p) in batch.iter().zip(&mut parts) {
                buf.push(p, key, value);
            }
            mem_bytes += buf.mem_bytes();
            black_box(buf.freeze_into_segments(PARTITIONS));
        }
        t.elapsed().as_nanos()
    });
    let n = input.pair_count();
    m.insert("bytes_kv.scatter_ns_per_rec", per(ns, n));
    m.insert("bytes_kv.scatter_bytes_per_rec", per(mem_bytes as u128, n));
}

fn sort_partition_key(
    input: &ProbeInput,
    partitions: &[u32],
    spans: &mut SpanLog,
    m: &mut Metrics,
) {
    let ns = spans.scope("bytes_kv.sort_partition_key", || {
        let mut sort_ns = 0u128;
        let mut parts = partitions.iter();
        let mut buf = KvBuf::new();
        let mut sort = |buf: &mut KvBuf| {
            let t = Instant::now();
            buf.sort_by_partition_key();
            sort_ns += t.elapsed().as_nanos();
            black_box(buf.len());
            buf.clear();
        };
        for batch in &input.pairs {
            for ((key, value), &p) in batch.iter().zip(&mut parts) {
                buf.push(p, key, value);
                if buf.len() == SORT_CHUNK_RECORDS {
                    sort(&mut buf);
                }
            }
        }
        if !buf.is_empty() {
            sort(&mut buf);
        }
        sort_ns
    });
    m.insert(
        "bytes_kv.sort_partition_key_ns_per_rec",
        per(ns, input.pair_count()),
    );
}

/// Write every batch as one run, then read it back in 1 MiB batches.
/// Returns `(write_ns, read_ns, framed_bytes)`.
fn write_read(store: &dyn SpillStore, input: &ProbeInput) -> (u128, u128, u64) {
    let t = Instant::now();
    let mut w = store.begin_run().expect("begin run");
    for batch in &input.pairs {
        w.write_segment(batch).expect("write segment");
    }
    let meta = w.finish().expect("finish run");
    let write_ns = t.elapsed().as_nanos();
    let t = Instant::now();
    let mut r = store.open_run(meta.id).expect("open run");
    let mut read = 0usize;
    while let Some(batch) = r.read_batch(1 << 20).expect("read batch") {
        read += batch.len();
    }
    let read_ns = t.elapsed().as_nanos();
    assert_eq!(read as u64, meta.records, "run reads back whole");
    drop(r);
    store.delete_run(meta.id).expect("delete run");
    (write_ns, read_ns, meta.bytes)
}

fn io(input: &ProbeInput, scratch: &Path, spans: &mut SpanLog, m: &mut Metrics) {
    let n = input.pair_count();
    let (w, r, bytes) = spans.scope("io.mem_store", || write_read(&SharedMemStore::new(), input));
    m.insert("io.mem_write_ns_per_rec", per(w, n));
    m.insert("io.mem_read_ns_per_rec", per(r, n));
    m.insert("io.framed_bytes_per_rec", per(u128::from(bytes), n));
    let dir = scratch.join(format!("probe-io-{}", std::process::id()));
    let (w, r, _) = spans.scope("io.file_store", || {
        let store = FileSpillStore::new(&dir).expect("file store in scratch dir");
        write_read(&store, input)
    });
    let _ = std::fs::remove_dir_all(&dir);
    m.insert("io.file_write_ns_per_rec", per(w, n));
    m.insert("io.file_read_ns_per_rec", per(r, n));
}

fn drive(mut op: Box<dyn GroupBy>, input: &ProbeInput) -> (u128, OpStats) {
    let mut sink = CountingSink::default();
    let t = Instant::now();
    for batch in &input.pairs {
        op.push_batch(batch, &mut sink).expect("push_batch");
    }
    let stats = op.finish(&mut sink).expect("finish");
    let ns = t.elapsed().as_nanos();
    black_box(sink.final_);
    (ns, stats)
}

type MakeGrouper = fn(Arc<dyn SpillStore>, MemoryBudget, Arc<dyn Aggregator>) -> Box<dyn GroupBy>;

/// `(fit metric, tight metric, tight spill metric, constructor)` for the
/// four group-by backends.
const GROUPERS: [(&str, &str, &str, &str, MakeGrouper); 4] = [
    (
        "groupby.inc_hash",
        "groupby.inc_hash_fit_ns_per_rec",
        "groupby.inc_hash_tight_ns_per_rec",
        "groupby.inc_hash_tight_spill_bytes_per_rec",
        |s, b, a| Box::new(IncHashGrouper::new(s, b, a)),
    ),
    (
        "groupby.freq_hash",
        "groupby.freq_hash_fit_ns_per_rec",
        "groupby.freq_hash_tight_ns_per_rec",
        "groupby.freq_hash_tight_spill_bytes_per_rec",
        |s, b, a| Box::new(FreqHashGrouper::new(s, b, a)),
    ),
    (
        "groupby.hybrid_hash",
        "groupby.hybrid_hash_fit_ns_per_rec",
        "groupby.hybrid_hash_tight_ns_per_rec",
        "groupby.hybrid_hash_tight_spill_bytes_per_rec",
        |s, b, a| Box::new(HybridHashGrouper::new(s, b, 8, a).expect("fanout 8 is valid")),
    ),
    (
        "groupby.sortmerge",
        "groupby.sortmerge_fit_ns_per_rec",
        "groupby.sortmerge_tight_ns_per_rec",
        "groupby.sortmerge_tight_spill_bytes_per_rec",
        |s, b, a| {
            Box::new(
                SortMergeGrouper::new(s, b, DEFAULT_MERGE_FACTOR, a).expect("factor 10 is valid"),
            )
        },
    ),
];

/// Each backend twice: with a budget the state fits in, then with an
/// eighth of the resident state the first run peaked at.
fn groupby(input: &ProbeInput, spans: &mut SpanLog, m: &mut Metrics) {
    let n = input.pair_count();
    for (span, fit, tight, tight_spill, make) in GROUPERS {
        let (ns, stats) = spans.scope(&format!("{span}.fit"), || {
            let store = Arc::new(SharedMemStore::new());
            drive(
                make(store, MemoryBudget::new(usize::MAX / 4), input.agg.clone()),
                input,
            )
        });
        m.insert(fit, per(ns, n));
        let budget = (stats.peak_mem / 8).max(64 * 1024);
        let (ns, stats) = spans.scope(&format!("{span}.tight"), || {
            let store = Arc::new(SharedMemStore::new());
            drive(
                make(store, MemoryBudget::new(budget), input.agg.clone()),
                input,
            )
        });
        m.insert(tight, per(ns, n));
        m.insert(tight_spill, per(u128::from(stats.spill_traffic()), n));
    }
}

fn merge(input: &ProbeInput, spans: &mut SpanLog, m: &mut Metrics) {
    let n = input.pair_count();
    let store = Arc::new(SharedMemStore::new());
    // Untimed: cut the sample into sorted runs, as reducers spill them.
    let per_run = input.pairs.len().div_ceil(MERGE_RUNS).max(1);
    let metas: Vec<_> = input
        .pairs
        .chunks(per_run)
        .map(|chunk| {
            let run: SegmentBuf =
                SegmentBuf::from_pairs(chunk.iter().flat_map(|b| b.iter())).sorted_by_key();
            let mut w = store.begin_run().expect("begin run");
            w.write_segment(&run).expect("write run");
            w.finish().expect("finish run")
        })
        .collect();
    let (ns, passes) = spans.scope("groupby.merge_f10", || {
        let t = Instant::now();
        let mut merger =
            MultiPassMerger::new(store.clone(), DEFAULT_MERGE_FACTOR).expect("factor 10 is valid");
        for meta in metas {
            merger.add_run(meta).expect("add run");
        }
        let mut grouped = merger.into_grouped().expect("merge");
        let mut values = 0usize;
        while let Some((_, vals)) = grouped.next_group().expect("next group") {
            values += vals.len();
        }
        assert_eq!(values, n, "merge yields every record");
        (t.elapsed().as_nanos(), grouped.merge_passes())
    });
    m.insert("groupby.merge_f10_ns_per_rec", per(ns, n));
    m.insert("groupby.merge_f10_passes", passes as f64);
}

fn offer_all(mut sketch: impl FrequentItems, input: &ProbeInput) -> u128 {
    let t = Instant::now();
    for batch in &input.pairs {
        for (key, _) in batch.iter() {
            sketch.offer(black_box(key));
        }
    }
    black_box(sketch.processed());
    t.elapsed().as_nanos()
}

fn sketches(input: &ProbeInput, spans: &mut SpanLog, m: &mut Metrics) {
    let n = input.pair_count();
    let ns = spans.scope("sketch.space_saving", || {
        offer_all(SpaceSaving::new(1024), input)
    });
    m.insert("sketch.space_saving_offer_ns_per_key", per(ns, n));
    let ns = spans.scope("sketch.misra_gries", || {
        offer_all(MisraGries::new(1024), input)
    });
    m.insert("sketch.misra_gries_offer_ns_per_key", per(ns, n));
    let ns = spans.scope("sketch.lossy", || {
        offer_all(LossyCounting::new(0.001), input)
    });
    m.insert("sketch.lossy_offer_ns_per_key", per(ns, n));
}

/// Send every batch through the in-proc fabric and drain it on two
/// receiver threads: wall from first send to last drain.
fn shuffle(input: &ProbeInput, spans: &mut SpanLog, m: &mut Metrics) {
    let n = input.pair_count();
    let ns = spans.scope("shuffle.inproc", || {
        let (tx, receivers) = shuffle_fabric(PARTITIONS, 64);
        let t = Instant::now();
        let drained: usize = std::thread::scope(|s| {
            let drains: Vec<_> = receivers
                .into_iter()
                .map(|rx| {
                    s.spawn(move || {
                        let mut seen = 0usize;
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                ShuffleMsg::Segment(seg) => seen += seg.len(),
                                ShuffleMsg::MapDone { .. } => break,
                                _ => {}
                            }
                        }
                        seen
                    })
                })
                .collect();
            for (i, batch) in input.pairs.iter().enumerate() {
                tx.send_segment(Segment {
                    map_task: 0,
                    attempt: 0,
                    partition: i % PARTITIONS,
                    sorted: false,
                    combined: false,
                    records: batch.clone(),
                });
            }
            tx.map_done(0, 0);
            drains
                .into_iter()
                .map(|d| d.join().expect("drain thread"))
                .sum()
        });
        assert_eq!(drained, n, "fabric delivers every record");
        t.elapsed().as_nanos()
    });
    m.insert("shuffle.inproc_ns_per_rec", per(ns, n));
}

fn codec(input: &ProbeInput, spans: &mut SpanLog, m: &mut Metrics) {
    let n = input.pair_count();
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(n);
    let ns = spans.scope("codec.encode_pair", || {
        let t = Instant::now();
        for batch in &input.pairs {
            for (key, value) in batch.iter() {
                encoded.push(encode_pair(key, value));
            }
        }
        t.elapsed().as_nanos()
    });
    m.insert("codec.encode_pair_ns_per_rec", per(ns, n));
    let ns = spans.scope("codec.decode_pair", || {
        let t = Instant::now();
        let mut bytes = 0usize;
        for rec in &encoded {
            let (key, value) = decode_pair(black_box(rec)).expect("own encoding decodes");
            bytes += key.len() + value.len();
        }
        black_box(bytes);
        t.elapsed().as_nanos()
    });
    m.insert("codec.decode_pair_ns_per_rec", per(ns, n));
}

/// `put`, a resident `get`, then `evict_all` and the reloading `get`, on a
/// dataset of two key-sorted partitions (how reducers hand data over).
fn cache(input: &ProbeInput, spans: &mut SpanLog, m: &mut Metrics) {
    let n = input.pair_count();
    let mut halves: Vec<Vec<(&[u8], &[u8])>> = vec![Vec::new(); PARTITIONS];
    for (i, batch) in input.pairs.iter().enumerate() {
        halves[i % PARTITIONS].extend(batch.iter());
    }
    let partitions: Vec<SegmentBuf> = halves
        .into_iter()
        .map(|h| SegmentBuf::from_pairs(h).sorted_by_key())
        .collect();
    let cache = DatasetCache::new(CacheConfig::default());
    let fetched = |cache: &DatasetCache| -> usize {
        let parts = cache
            .get("probe")
            .expect("cache get")
            .expect("dataset is cached");
        parts.iter().map(SegmentBuf::len).sum()
    };
    let ns = spans.scope("cache.put", || {
        let t = Instant::now();
        cache.put("probe", partitions).expect("cache put");
        t.elapsed().as_nanos()
    });
    m.insert("cache.put_ns_per_rec", per(ns, n));
    let ns = spans.scope("cache.get_hit", || {
        let t = Instant::now();
        assert_eq!(fetched(&cache), n);
        t.elapsed().as_nanos()
    });
    m.insert("cache.get_hit_ns_per_rec", per(ns, n));
    cache.evict_all().expect("evict all");
    let ns = spans.scope("cache.reload", || {
        let t = Instant::now();
        assert_eq!(fetched(&cache), n);
        t.elapsed().as_nanos()
    });
    m.insert("cache.reload_ns_per_rec", per(ns, n));
}
