//! Multi-tenant serving: isolation, admission, poison handling.
//!
//! The serving layer's contract is that multiplexing changes *nothing*
//! about answers: every admitted tenant's final output is byte-identical
//! to running its query solo over the same records, no matter how many
//! other tenants share the governor pool, which spill policy arbitrates
//! shed pressure, or how many poison records the stream carries.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use onepass::prelude::*;
use onepass_core::obs::MetricsRegistry;
use onepass_groupby::SumAgg;
use onepass_runtime::serve::{dump_final_answers, DEFAULT_INGEST};
use onepass_runtime::stream::SessionOptions;
use onepass_workloads::serving::{
    ingest_family, standard_catalog, CatalogConfig, CLICKS_INGEST, DOCS_INGEST,
};
use onepass_workloads::tenantgen::{assign_tenants, TenantGenConfig, TenantSpec};
use onepass_workloads::{ClickGen, ClickGenConfig, DocGen, DocGenConfig};

fn click_records(n: usize) -> Vec<Vec<u8>> {
    ClickGen::new(ClickGenConfig::default()).text_records(n)
}

fn doc_records(n: usize) -> Vec<Vec<u8>> {
    DocGen::new(DocGenConfig::default()).records(n)
}

/// Run `query` solo (no governor, no multiplexing) over `records` and
/// dump its finals — the reference the serving layer must match.
fn solo_dump(catalog: &QueryCatalog, query: &str, records: &[Vec<u8>]) -> String {
    let compiled = catalog.resolve(query).expect("known query");
    let mut session = TenantSession::open(
        "solo",
        query,
        &compiled,
        &SessionOptions::default(),
        DlqConfig::default(),
    )
    .expect("open solo session");
    for chunk in records.chunks(512) {
        session.feed(chunk).expect("solo feed");
    }
    let close = session.close().expect("solo close");
    dump_final_answers(&close.answers)
}

#[test]
fn served_tenants_match_solo_batch_runs_across_all_queries() {
    let catalog = standard_catalog(CatalogConfig::default());
    let clicks = click_records(6_000);
    let docs = doc_records(80);

    let config = ServeConfig {
        pool_bytes: 8 << 20,
        shards: 3,
        ..ServeConfig::default()
    };
    let server = Server::start(config, catalog.clone(), None).expect("start server");

    // Two tenants per query so shards multiplex unlike queries.
    let mut handles = Vec::new();
    for round in 0..2 {
        for query in catalog.names() {
            let id = format!("t-{query}-{round}");
            handles.push(server.subscribe(&id, &query).expect("admit"));
        }
    }
    for chunk in clicks.chunks(512) {
        server
            .feed(CLICKS_INGEST, chunk.to_vec())
            .expect("feed clicks");
    }
    for chunk in docs.chunks(512) {
        server.feed(DOCS_INGEST, chunk.to_vec()).expect("feed docs");
    }
    server.close().expect("close server");

    for h in handles {
        let (_earlies, close) = h.wait_final().expect("final answers");
        let records: &[Vec<u8>] = if ingest_family(&h.query) == DOCS_INGEST {
            &docs
        } else {
            &clicks
        };
        assert_eq!(
            dump_final_answers(&close.answers),
            solo_dump(&catalog, &h.query, records),
            "tenant {} ({}) diverged from its solo run",
            h.id,
            h.query
        );
        assert_eq!(close.records_in, records.len() as u64);
        assert_eq!(close.dlq_poisoned, 0);
    }
}

#[test]
fn early_answers_surface_before_close() {
    let catalog = standard_catalog(CatalogConfig::default());
    let clicks = click_records(8_000);
    let server = Server::start(ServeConfig::default(), catalog, None).expect("start");
    let h = server
        .subscribe("early-bird", "page-frequency")
        .expect("admit");
    for chunk in clicks.chunks(1024) {
        server.feed(CLICKS_INGEST, chunk.to_vec()).expect("feed");
    }
    server.close().expect("close");
    let mut saw_early = false;
    loop {
        match h.events().recv().expect("event") {
            TenantEvent::Early(a) => saw_early = saw_early || !a.is_empty(),
            TenantEvent::Final(_) => break,
            TenantEvent::Error(e) => panic!("tenant failed: {e}"),
        }
    }
    assert!(
        saw_early,
        "frequent-key backend should emit early answers mid-stream"
    );
}

/// `close` returns once every shard delivered its finals, though the
/// shard threads only exit when the server drops: each tenant's `Final`
/// is already queued, with no waiting, and the closed server refuses work.
#[test]
fn close_returns_after_every_final_is_queued() {
    let catalog = standard_catalog(CatalogConfig::default());
    let clicks = click_records(3_000);
    let config = ServeConfig {
        shards: 3,
        ..ServeConfig::default()
    };
    let server = Server::start(config, catalog.clone(), None).expect("start");
    let handles: Vec<_> = ["per-user-count", "page-frequency", "sessionization"]
        .iter()
        .map(|q| server.subscribe(&format!("t-{q}"), q).expect("admit"))
        .collect();
    for chunk in clicks.chunks(512) {
        server.feed(CLICKS_INGEST, chunk.to_vec()).expect("feed");
    }
    server.close().expect("close");
    assert_eq!(server.active_tenants(), 0);
    for h in &handles {
        let close = std::iter::from_fn(|| h.events().try_recv().ok())
            .find_map(|e| match e {
                TenantEvent::Final(close) => Some(close),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{}: no final queued when close returned", h.id));
        assert_eq!(
            dump_final_answers(&close.answers),
            solo_dump(&catalog, &h.query, &clicks)
        );
    }
    assert!(server.subscribe("late", "per-user-count").is_err());
    assert!(server.feed(CLICKS_INGEST, clicks[..1].to_vec()).is_err());
    // Hangs up the lingering shard threads and joins them.
    drop(server);
    for h in &handles {
        assert!(
            h.events().recv().is_err(),
            "{}: channel open after its final",
            h.id
        );
    }
}

#[test]
fn admission_rejects_beyond_capacity_and_frees_seats_on_close() {
    let catalog = standard_catalog(CatalogConfig::default());
    let mut config = ServeConfig::default();
    config.admission.max_tenants = 2;
    config.admission.max_waiting = 0;
    let server = Server::start(config, catalog, None).expect("start");
    let _a = server.subscribe("a", "page-frequency").expect("admit a");
    let _b = server.subscribe("b", "per-user-count").expect("admit b");
    let err = server.subscribe("c", "page-frequency").unwrap_err();
    assert!(
        err.to_string().contains("rejected"),
        "expected rejection, got: {err}"
    );
    assert_eq!(server.active_tenants(), 2);
    server.close().expect("close");
    assert_eq!(server.active_tenants(), 0);
}

/// A single-stage query counting records by their first word, run
/// through `probe` first (which may panic, or count the call).
fn count_query(
    name: &str,
    probe: impl Fn(&[u8]) + Send + Sync + 'static,
) -> onepass_core::error::Result<StreamingQuery> {
    let map = move |record: &[u8], out: &mut dyn MapEmitter| {
        probe(record);
        let key = record.split(|&b| b == b' ').next().unwrap_or(b"?");
        out.emit(key, &1u64.to_le_bytes());
    };
    Ok(StreamingQuery::single(
        JobSpec::builder(name)
            .map_fn(Arc::new(map))
            .aggregate(Arc::new(SumAgg))
            .reducers(2)
            .preset_onepass()
            .build()?,
    ))
}

/// A query whose map panics on records tagged `POISON` — permanently, or
/// only for the first `transient` attempts per record (0 = always).
fn poisonable_catalog(transient: u32) -> QueryCatalog {
    let mut cat = QueryCatalog::new();
    let attempts = Arc::new(AtomicUsize::new(0));
    cat.register("poisonable-count", move || {
        let attempts = Arc::clone(&attempts);
        count_query("poisonable-count", move |record| {
            if record.starts_with(b"POISON") {
                if transient == 0 {
                    panic!("permanent poison");
                }
                let n = attempts.fetch_add(1, Ordering::SeqCst);
                if (n as u32) < transient {
                    panic!("transient poison");
                }
            }
        })
    });
    cat
}

#[test]
fn permanent_poison_is_buried_and_leaves_clean_answers() {
    let catalog = poisonable_catalog(0);
    let server = Server::start(ServeConfig::default(), catalog.clone(), None).expect("start");
    let h = server
        .subscribe("victim", "poisonable-count")
        .expect("admit");
    let mut records: Vec<Vec<u8>> = (0..500u32)
        .map(|i| format!("k{} x", i % 7).into_bytes())
        .collect();
    records.insert(100, b"POISON one".to_vec());
    records.insert(300, b"POISON two".to_vec());
    server.feed(DEFAULT_INGEST, records.clone()).expect("feed");
    server.close().expect("close");
    let (_earlies, close) = h.wait_final().expect("final");

    // The poisons died; the clean records all counted.
    assert_eq!(close.dlq_poisoned, 2);
    assert_eq!(close.dlq_dead, 2);
    assert_eq!(close.dlq_recovered, 0);
    assert_eq!(close.records_in, 500);
    let clean: Vec<Vec<u8>> = records
        .iter()
        .filter(|r| !r.starts_with(b"POISON"))
        .cloned()
        .collect();
    assert_eq!(
        dump_final_answers(&close.answers),
        solo_dump(&catalog, "poisonable-count", &clean)
    );
}

#[test]
fn transient_poison_recovers_and_is_counted() {
    // Panics on the first two attempts (the batch-level feed and the
    // per-record isolation pass); the DLQ retry sweep recovers it.
    let catalog = poisonable_catalog(2);
    let server = Server::start(ServeConfig::default(), catalog, None).expect("start");
    let h = server
        .subscribe("flaky", "poisonable-count")
        .expect("admit");
    let mut records: Vec<Vec<u8>> = (0..200u32)
        .map(|i| format!("k{}", i % 5).into_bytes())
        .collect();
    records.insert(50, b"POISON flaky".to_vec());
    server.feed(DEFAULT_INGEST, records).expect("feed");
    server.close().expect("close");
    let (_earlies, close) = h.wait_final().expect("final");
    assert_eq!(close.dlq_poisoned, 1);
    assert_eq!(close.dlq_recovered, 1);
    assert_eq!(close.dlq_dead, 0);
    // The recovered record's key appears in the finals.
    let dump = dump_final_answers(&close.answers);
    assert!(
        dump.contains("POISON\t"),
        "recovered record must contribute its key: {dump}"
    );
}

/// Poll `cond` (the shard workers act on their queues asynchronously)
/// until it holds; panics with `what` after five seconds. The sleep is
/// the poll interval, not an ordering: nothing is assumed to have happened
/// because time passed, and the deadline (three orders above the
/// millisecond a shard takes to act) only turns a hang into a failure.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The known wrong answer of ROADMAP item 9: `Server::subscribe` takes
/// its seat before its subscription is in the shard queue, so a start
/// signal read off the seat count (`active_tenants`, what `onepass serve
/// --await-tenants` polled) fires while a subscriber is still blocked on a
/// full queue — and that subscriber then opens its session a batch late.
/// With a queue one deep and the shard stalled inside the query's factory
/// the window is held open: the seat count reads 3 while exactly 2
/// subscriptions are queued, and `subscribed` must say 2.
#[test]
fn awaited_tenant_count_is_enqueued_subscriptions_not_seats() {
    use std::sync::{Condvar, Mutex};

    #[derive(Default)]
    struct Stall {
        /// `(shard is inside the factory, test let it go)`
        state: Mutex<(bool, bool)>,
        changed: Condvar,
    }
    let stall = Arc::new(Stall::default());
    let mut catalog = QueryCatalog::new();
    let in_factory = Arc::clone(&stall);
    catalog.register("gated", move || {
        let mut state = in_factory.state.lock().unwrap();
        state.0 = true;
        in_factory.changed.notify_all();
        let _released = in_factory.changed.wait_while(state, |s| !s.1).unwrap();
        count_query("gated", |_| {})
    });
    let config = ServeConfig {
        shards: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::start(config, catalog, None).expect("start"));

    // The first subscription reaches the shard, which stalls opening it.
    let first = server.subscribe("t1", "gated").expect("admit");
    drop(
        stall
            .changed
            .wait_while(stall.state.lock().unwrap(), |s| !s.0)
            .unwrap(),
    );
    // The second fills the queue; the third takes a seat and blocks.
    let second = server.subscribe("t2", "gated").expect("admit");
    let blocked = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.subscribe("t3", "gated").expect("admit"))
    };
    eventually("the third tenant's seat", || server.active_tenants() == 3);
    assert_eq!(
        server.subscribed(),
        2,
        "a seat is not a queued subscription: ingest must not start on it"
    );

    stall.state.lock().unwrap().1 = true;
    stall.changed.notify_all();
    let third = blocked.join().expect("subscriber thread");
    assert_eq!(server.subscribed(), 3);

    // Ingest started on the enqueued count: all three share one session
    // and see the stream from its first batch.
    let records: Vec<Vec<u8>> = (0..300u32)
        .map(|i| format!("k{} x", i % 7).into_bytes())
        .collect();
    for chunk in records.chunks(100) {
        server.feed(DEFAULT_INGEST, chunk.to_vec()).expect("feed");
    }
    server.close().expect("close");
    let closes: Vec<_> = [first, second, third]
        .iter()
        .map(|h| h.wait_final().expect("final").1)
        .collect();
    for close in &closes {
        assert!(Arc::ptr_eq(close, &closes[0]), "one session, one close");
        assert_eq!(close.records_in, records.len() as u64);
    }
}

/// A linear plan of *record* stages is a cascade like any other: the
/// second stage reads each upstream final as an edge record through
/// `map_pair`'s default, exactly as it does on a plan edge, and the
/// tenant's finals are the batch plan's dump.
#[test]
fn linear_plan_of_record_stages_serves_what_the_batch_plan_dumps() {
    fn chain() -> Plan {
        let job = |name: &str, reducers, map: Arc<dyn MapFn>| {
            JobSpec::builder(name)
                .map_fn(map)
                .aggregate(Arc::new(SumAgg))
                .reducers(reducers)
                .preset_onepass()
                .build()
                .expect("valid job")
        };
        let count = |record: &[u8], out: &mut dyn MapEmitter| {
            let key = record.split(|&b| b == b' ').next().unwrap_or(b"?");
            out.emit(key, &1u64.to_le_bytes());
        };
        let histogram = |record: &[u8], out: &mut dyn MapEmitter| {
            let (_key, count) = decode_pair(record).expect("an edge record");
            out.emit(count, &1u64.to_le_bytes());
        };
        Plan::linear(vec![
            job("counts", 2, Arc::new(count)),
            job("count-of-counts", 1, Arc::new(histogram)),
        ])
        .expect("valid chain")
    }
    let records: Vec<Vec<u8>> = (0..2_000u32)
        .map(|i| format!("k{} x", (i * i) % 41).into_bytes())
        .collect();

    let splits: Vec<Split> = records
        .chunks(250)
        .map(|c| Split::new(c.to_vec()))
        .collect();
    let batch = Engine::new()
        .run_plan(&chain(), splits)
        .expect("batch plan");
    let finals = batch.sorted_final_outputs();
    let want = onepass_runtime::dump_pairs(finals.iter().map(|(k, v)| (&k[..], &v[..])));
    assert!(want.lines().count() > 1, "a histogram with several bars");

    let mut catalog = QueryCatalog::new();
    catalog.register("count-of-counts", || StreamingQuery::from_plan(&chain()));
    let server = Server::start(ServeConfig::default(), catalog, None).expect("start");
    let tenant = server.subscribe("t", "count-of-counts").expect("admit");
    for chunk in records.chunks(128) {
        server.feed(DEFAULT_INGEST, chunk.to_vec()).expect("feed");
    }
    server.close().expect("close");
    let (_earlies, close) = tenant.wait_final().expect("final");
    assert_eq!(dump_final_answers(&close.answers), want);
}

/// A one-query catalog (`counted`) whose map function counts its calls.
fn counting_catalog(calls: Arc<AtomicUsize>) -> QueryCatalog {
    let mut cat = QueryCatalog::new();
    cat.register("counted", move || {
        let calls = Arc::clone(&calls);
        count_query("counted", move |_| {
            calls.fetch_add(1, Ordering::Relaxed);
        })
    });
    cat
}

#[test]
fn same_query_tenants_share_one_pass_over_the_stream() {
    let calls = Arc::new(AtomicUsize::new(0));
    let catalog = counting_catalog(Arc::clone(&calls));
    let records: Vec<Vec<u8>> = (0..3_000u32)
        .map(|i| format!("k{} x", i % 37).into_bytes())
        .collect();
    let config = ServeConfig {
        shards: 3,
        ..ServeConfig::default()
    };
    let server = Server::start(config, catalog.clone(), None).expect("start");
    let handles: Vec<TenantHandle> = (0..8)
        .map(|i| {
            server
                .subscribe(&format!("t{i}"), "counted")
                .expect("admit")
        })
        .collect();
    for chunk in records.chunks(256) {
        server.feed(DEFAULT_INGEST, chunk.to_vec()).expect("feed");
    }
    server.close().expect("close");
    // Eight tenants, one query: every record went through the map
    // function once, not eight times.
    assert_eq!(calls.load(Ordering::Relaxed), records.len());
    let solo = solo_dump(&catalog, "counted", &records);
    for h in handles {
        let (_earlies, close) = h.wait_final().expect("final");
        assert_eq!(dump_final_answers(&close.answers), solo, "tenant {}", h.id);
        assert_eq!(close.records_in, records.len() as u64);
    }
}

#[test]
fn mid_stream_subscriber_gets_its_own_session_over_the_suffix() {
    let catalog = standard_catalog(CatalogConfig::default());
    let clicks = click_records(4_096);
    let registry = MetricsRegistry::new();
    let sessions = registry.gauge("onepass_serve_sessions", &[]);
    let server =
        Server::start(ServeConfig::default(), catalog.clone(), Some(registry)).expect("start");

    let early: Vec<TenantHandle> = ["e0", "e1"]
        .iter()
        .map(|id| server.subscribe(id, "per-user-count").expect("admit"))
        .collect();
    let (head, tail) = clicks.split_at(5 * 512);
    for chunk in head.chunks(512) {
        server.feed(CLICKS_INGEST, chunk.to_vec()).expect("feed");
    }
    let late = server.subscribe("late", "per-user-count").expect("admit");
    for chunk in tail.chunks(512) {
        server.feed(CLICKS_INGEST, chunk.to_vec()).expect("feed");
    }
    // The early pair shares one session; the latecomer could not join it
    // (it had been fed), so a second one opened at its offset.
    eventually("the late tenant's session", || sessions.value() == 2.0);
    server.close().expect("close");
    assert_eq!(sessions.value(), 0.0);

    let whole = solo_dump(&catalog, "per-user-count", &clicks);
    let mut shared = Vec::new();
    for h in early {
        let (_earlies, close) = h.wait_final().expect("final");
        assert_eq!(dump_final_answers(&close.answers), whole, "tenant {}", h.id);
        assert_eq!(close.records_in, clicks.len() as u64);
        shared.push(close);
    }
    let (_earlies, close) = late.wait_final().expect("final");
    // Session-mates hold one close between them, not a copy each.
    assert!(Arc::ptr_eq(&shared[0], &shared[1]));
    assert!(!Arc::ptr_eq(&shared[0], &close));
    assert_eq!(
        dump_final_answers(&close.answers),
        solo_dump(&catalog, "per-user-count", tail)
    );
    assert_eq!(close.records_in, tail.len() as u64);
}

/// A catalog whose count queries refresh early answers often enough that
/// every batch publishes — a dropped handle is noticed at the next one.
fn chatty_catalog() -> QueryCatalog {
    standard_catalog(CatalogConfig {
        early_every: 4,
        ..CatalogConfig::default()
    })
}

#[test]
fn dropped_subscriber_frees_its_seat_and_leaves_session_mates_intact() {
    let catalog = chatty_catalog();
    let clicks = click_records(6_000);
    let registry = MetricsRegistry::new();
    let sessions = registry.gauge("onepass_serve_sessions", &[]);
    let server =
        Server::start(ServeConfig::default(), catalog.clone(), Some(registry)).expect("start");
    let stay_a = server.subscribe("stay-a", "page-frequency").expect("admit");
    let leaver = server.subscribe("leaver", "page-frequency").expect("admit");
    let stay_b = server.subscribe("stay-b", "page-frequency").expect("admit");
    assert_eq!(server.active_tenants(), 3);

    let mut chunks = clicks.chunks(256);
    for chunk in chunks.by_ref().take(4) {
        server.feed(CLICKS_INGEST, chunk.to_vec()).expect("feed");
    }
    drop(leaver);
    // The next publish finds the receiver gone and detaches the tenant.
    let mut fed_all = false;
    eventually("the leaver's seat to free", || {
        match chunks.next() {
            Some(chunk) => server.feed(CLICKS_INGEST, chunk.to_vec()).expect("feed"),
            None => fed_all = true,
        }
        server.active_tenants() == 2
    });
    assert!(!fed_all, "the seat must free mid-stream, not at the end");
    assert_eq!(sessions.value(), 1.0, "the three were one session's seats");
    for chunk in chunks {
        server.feed(CLICKS_INGEST, chunk.to_vec()).expect("feed");
    }
    server.close().expect("close");
    assert_eq!(server.active_tenants(), 0);

    let solo = solo_dump(&catalog, "page-frequency", &clicks);
    for h in [stay_a, stay_b] {
        let (_earlies, close) = h.wait_final().expect("final");
        assert_eq!(dump_final_answers(&close.answers), solo, "tenant {}", h.id);
        assert_eq!(close.records_in, clicks.len() as u64);
    }
}

#[test]
fn last_subscriber_out_drops_the_session_and_its_leases() {
    let clicks = click_records(4_000);
    let server = Server::start(ServeConfig::default(), chatty_catalog(), None).expect("start");
    let leases_before = server.governor().live_leases();
    let first = server.subscribe("first", "page-frequency").expect("admit");
    let second = server.subscribe("second", "page-frequency").expect("admit");
    let mut chunks = clicks.chunks(128);
    server
        .feed(CLICKS_INGEST, chunks.next().expect("chunk").to_vec())
        .expect("feed");
    // Two tenants, one session: one lease per partition, not per tenant.
    let partitions = CatalogConfig::default().reducers;
    eventually("the session's leases", || {
        server.governor().live_leases() == leases_before + partitions
    });

    drop(first);
    drop(second);
    eventually("both seats and every lease to free", || {
        if let Some(chunk) = chunks.next() {
            server.feed(CLICKS_INGEST, chunk.to_vec()).expect("feed");
        }
        server.active_tenants() == 0 && server.governor().live_leases() == leases_before
    });
    server.close().expect("close");
}

#[test]
fn poison_is_the_records_not_the_tenants() {
    let registry = MetricsRegistry::new();
    let server = Server::start(
        ServeConfig::default(),
        poisonable_catalog(0),
        Some(registry.clone()),
    )
    .expect("start");
    let handles: Vec<TenantHandle> = ["one", "two"]
        .iter()
        .map(|id| server.subscribe(id, "poisonable-count").expect("admit"))
        .collect();
    let mut records: Vec<Vec<u8>> = (0..400u32)
        .map(|i| format!("k{} x", i % 7).into_bytes())
        .collect();
    records.insert(50, b"POISON one".to_vec());
    records.insert(250, b"POISON two".to_vec());
    records.insert(251, b"POISON three".to_vec());
    server.feed(DEFAULT_INGEST, records).expect("feed");
    server.close().expect("close");

    // Both tenants see the session's accounting...
    for h in handles {
        let (_earlies, close) = h.wait_final().expect("final");
        assert_eq!(
            (close.dlq_poisoned, close.dlq_dead, close.dlq_recovered),
            (3, 3, 0),
            "tenant {}",
            h.id
        );
        assert_eq!(close.records_in, 400);
    }
    // ...and the registry counts each poison record once, not per tenant.
    let count = |name: &str| registry.counter(name, &[]).value();
    assert_eq!(count("onepass_serve_dlq_poisoned_total"), 3);
    assert_eq!(count("onepass_serve_dlq_dead_total"), 3);
    assert_eq!(count("onepass_serve_admitted_total"), 2);
}

/// A victim rule the engine does not ship: rotate over the loaded leases,
/// so sheds also land on sessions that are not the largest.
#[derive(Default)]
struct Rotating(AtomicUsize);

impl SpillPolicy for Rotating {
    fn name(&self) -> &'static str {
        "rotating"
    }

    fn pick_victim(
        &self,
        leases: &[onepass_core::governor::LeaseStat],
        _requester: usize,
    ) -> Option<usize> {
        let loaded: Vec<_> = leases.iter().filter(|l| l.used > 0).collect();
        let at = self.0.fetch_add(1, Ordering::Relaxed) % loaded.len().max(1);
        loaded.get(at).map(|l| l.id)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole isolation property: N concurrent tenants over a
    /// shared governor pool under shed pressure, with seeded poison in
    /// the stream, all produce finals byte-identical to their solo runs —
    /// under the shipped victim rule and a rotating one, with at least two tenants sharing a session
    /// and one subscribing mid-stream to a session of its own.
    #[test]
    fn tenant_isolation_under_pressure_and_poison(
        rotating in any::<bool>(),
        tenants in 2usize..5,
        poison_every in 40usize..90,
        records_n in 2_000usize..4_000,
        late_eighth in 1usize..8,
    ) {
        let policy: Arc<dyn SpillPolicy> = if rotating {
            Arc::new(Rotating::default())
        } else {
            policy_by_name("largest-consumer").expect("known policy")
        };
        let policy_name = policy.name();
        let catalog = standard_catalog(CatalogConfig::default());
        let clicks = click_records(records_n);

        // A tiny pool forces the governor over high water, so sheds and
        // backpressure actually engage.
        let config = ServeConfig {
            pool_bytes: 256 * 1024,
            policy,
            shards: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(config, catalog.clone(), None).expect("start");

        let queries: Vec<String> = vec![
            "page-frequency".into(),
            "per-user-count".into(),
            "sessionization".into(),
            "top-k".into(),
        ];
        let mut specs = assign_tenants(tenants, &queries, &TenantGenConfig::default());
        // Whatever the draw, the first tenant's query gets a session-mate.
        let shared_query = specs[0].query.clone();
        specs.push(TenantSpec { id: "twin".into(), query: shared_query.clone() });
        let handles: Vec<TenantHandle> = specs
            .iter()
            .map(|t| server.subscribe(&t.id, &t.query).expect("admit"))
            .collect();

        // Click maps skip malformed records, so poison here exercises the
        // graceful-skip path inside every session at once.
        let mut stream = clicks.clone();
        let mut i = poison_every;
        while i < stream.len() {
            stream.insert(i, b"\xff\xfenot a click".to_vec());
            i += poison_every;
        }
        let chunks: Vec<&[Vec<u8>]> = stream.chunks(256).collect();
        let late_at = (chunks.len() * late_eighth / 8).max(1);
        let mut late = None;
        for (n, chunk) in chunks.iter().enumerate() {
            if n == late_at {
                late = Some(server.subscribe("late", &shared_query).expect("admit"));
            }
            server.feed(CLICKS_INGEST, chunk.to_vec()).expect("feed");
        }
        server.close().expect("close");

        for (spec, h) in specs.iter().zip(handles) {
            let (_earlies, close) = h.wait_final().expect("final");
            // Malformed clicks are skipped by the map, so the solo
            // reference over the *clean* stream must match (the poisons
            // emit nothing).
            prop_assert_eq!(
                dump_final_answers(&close.answers),
                solo_dump(&catalog, &spec.query, &stream),
                "tenant {} ({}) diverged under policy {}",
                &spec.id, &spec.query, policy_name
            );
        }
        // The latecomer's answer covers exactly the batches fed after it
        // subscribed.
        let (_earlies, close) = late.expect("subscribed mid-stream").wait_final().expect("final");
        prop_assert_eq!(
            dump_final_answers(&close.answers),
            solo_dump(&catalog, &shared_query, &stream[late_at * 256..]),
            "late tenant ({}) diverged under policy {}",
            &shared_query, policy_name
        );
    }
}
