//! Online aggregation / stream processing: the one-pass API that the
//! whole paper argues MapReduce should support.
//!
//! A live click stream is fed into a [`StreamSession`] batch by batch.
//! Two incremental behaviours are demonstrated:
//!
//! 1. **threshold alerts** — "output a group as soon as the count of its
//!    items has reached the threshold" (§IV-3), via the incremental-hash
//!    early-emit policy;
//! 2. **approximate top-k at any time** — hot-page tracking with a
//!    mergeable Space-Saving summary, answers long before the stream
//!    ends.
//!
//! Run: `cargo run --release --example online_aggregation`

use std::sync::Arc;

use onepass::prelude::*;
use onepass_groupby::CountThreshold;
use onepass_workloads::top_k::TopKUrls;
use onepass_workloads::{ClickGen, ClickGenConfig};

fn main() {
    let batches = 20;
    let batch_size = 5_000;
    println!(
        "streaming {} clicks in {batches} batches of {batch_size}\n",
        batches * batch_size
    );

    // 1. Threshold alerts on per-URL counts.
    let alert_at = 2_000;
    let job = JobSpec::builder("url-alerts")
        .map_fn(Arc::new(|record: &[u8], out: &mut dyn MapEmitter| {
            if let Some(c) = onepass_workloads::clickgen::Click::from_text(record) {
                out.emit(&c.url.to_le_bytes(), &[]);
            }
        }))
        .aggregate(Arc::new(CountAgg))
        .reducers(2)
        .backend(ReduceBackend::IncHash {
            early: Some(Arc::new(CountThreshold(alert_at))),
        })
        .build()
        .unwrap();
    let mut session = StreamSession::new(job).unwrap();

    let mut gen = ClickGen::new(ClickGenConfig {
        urls: 1_000,
        url_skew: 1.3,
        ..Default::default()
    });
    let mut topk = TopKUrls::new(5, 20);
    let mut alerts = 0;

    for batch_no in 0..batches {
        let records = gen.text_records(batch_size);
        for r in &records {
            topk.observe_text(r);
        }
        let answers = session.feed(records.iter().map(|r| r.as_slice())).unwrap();
        for a in &answers {
            let url = u32::from_le_bytes(a.key.as_slice().try_into().unwrap());
            alerts += 1;
            if alerts <= 5 {
                println!(
                    "  [batch {batch_no:2}] ALERT url /page/{url} crossed {alert_at} visits \
                     (stream still running)"
                );
            }
        }
        if batch_no == batches / 2 {
            println!("\n  top-5 pages at half-stream (approximate, ±error):");
            for (url, count, err) in topk.top() {
                println!("    /page/{url:<6} ~{count} visits (±{err})");
            }
            println!();
        }
    }
    println!("  ... {alerts} alerts total while streaming\n");

    // Close: exact final counts for every URL.
    let (finals, stats) = session.close().unwrap();
    let final_answers: Vec<_> = finals
        .iter()
        .filter(|a| a.kind == EmitKind::Final)
        .collect();
    let total: u64 = final_answers
        .iter()
        .map(|a| u64::from_le_bytes(a.value.as_slice().try_into().unwrap()))
        .sum();
    assert_eq!(total, (batches * batch_size) as u64);
    println!(
        "closed: {} urls, {} clicks accounted for exactly; reduce-side spill {} B",
        final_answers.len(),
        total,
        stats.iter().map(|s| s.spill_traffic()).sum::<u64>()
    );
    println!(
        "\nEvery alert and the top-k answers arrived while data was still \
         streaming — no data load, no blocking merge (the paper's §IV goal)."
    );
    assert!(alerts > 0, "the skewed stream must trip some alerts");
}
