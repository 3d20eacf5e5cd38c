//! Ablation: the hash-function family (§V's "hash function library") —
//! multiply-shift vs the `ByteMap` hasher vs std's SipHash, on short byte
//! keys.

use std::hash::{BuildHasher, Hasher};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use onepass_core::hashlib::{FastBuildHasher, MultiplyShift};

fn keys(n: usize) -> Vec<Vec<u8>> {
    (0..n as u32)
        .map(|i| format!("user{:08x}", i.wrapping_mul(0x9e3779b9)).into_bytes())
        .collect()
}

fn hash_families(c: &mut Criterion) {
    let n = 500_000;
    let ks = keys(n);
    let mut group = c.benchmark_group("hashlib");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);

    let ms = MultiplyShift::new(42);
    group.bench_function("multiply-shift", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in &ks {
                acc ^= ms.hash(k);
            }
            acc
        })
    });

    group.bench_function("fast-hasher (ByteMap)", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in &ks {
                let mut h = FastBuildHasher.build_hasher();
                h.write(k);
                acc ^= h.finish();
            }
            acc
        })
    });

    group.bench_function("std SipHash", |b| {
        b.iter(|| {
            let s = std::collections::hash_map::RandomState::new();
            let mut acc = 0u64;
            for k in &ks {
                let mut h = s.build_hasher();
                h.write(k);
                acc ^= h.finish();
            }
            acc
        })
    });

    // Bucketing (the actual partitioning operation).
    group.bench_function("multiply-shift bucket30", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for k in &ks {
                acc += ms.bucket(k, 30);
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, hash_families);
criterion_main!(benches);
