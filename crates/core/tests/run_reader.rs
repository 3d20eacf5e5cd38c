//! A file run read in bulk: `read_batch` at any size serves exactly what
//! `next_record` does, and a corrupt or hostile header is
//! `Error::Corrupt`. (That such a header allocates nothing large is
//! counted in `crates/runtime/tests/alloc_per_key.rs`, whose allocator
//! sees every request.)

use std::path::PathBuf;

use onepass_core::error::Error;
use onepass_core::io::{FileSpillStore, RunMeta, RunReader, SpillStore};
use proptest::prelude::*;

type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

/// A directory removed on drop.
struct Dir(PathBuf);

impl std::ops::Deref for Dir {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A store in its own directory, so a test can reach the run files.
fn store() -> (FileSpillStore, Dir) {
    let dir = std::env::temp_dir().join(format!(
        "onepass-run-reader-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    (FileSpillStore::new(&dir).unwrap(), Dir(dir))
}

fn write(store: &FileSpillStore, records: &Pairs) -> RunMeta {
    let mut w = store.begin_run().unwrap();
    for (k, v) in records {
        w.write_record(k, v).unwrap();
    }
    w.finish().unwrap()
}

fn run_file(dir: &std::path::Path, meta: RunMeta) -> PathBuf {
    dir.join(format!("run-{}.bin", meta.id.0))
}

/// The run record by record, or the first error.
fn by_record(r: &mut dyn RunReader) -> Result<Pairs, Error> {
    let mut out = Vec::new();
    while let Some(rec) = r.next_record()? {
        out.push((rec.key.to_vec(), rec.value.to_vec()));
    }
    Ok(out)
}

/// The run `max_bytes` at a time, or the first error.
fn by_batch(r: &mut dyn RunReader, max_bytes: usize) -> Result<Pairs, Error> {
    let mut out = Vec::new();
    while let Some(batch) = r.read_batch(max_bytes)? {
        assert!(!batch.is_empty(), "a batch holds at least one record");
        out.extend(batch.iter().map(|(k, v)| (k.to_vec(), v.to_vec())));
    }
    Ok(out)
}

/// Alternate the two, batch first: both serve from one buffer.
fn mixed(r: &mut dyn RunReader, max_bytes: usize) -> Result<Pairs, Error> {
    let mut out = Vec::new();
    loop {
        let Some(batch) = r.read_batch(max_bytes)? else {
            return Ok(out);
        };
        out.extend(batch.iter().map(|(k, v)| (k.to_vec(), v.to_vec())));
        match r.next_record()? {
            Some(rec) => out.push((rec.key.to_vec(), rec.value.to_vec())),
            None => return Ok(out),
        }
    }
}

fn records() -> impl Strategy<Value = Pairs> {
    prop::collection::vec(
        (
            prop::collection::vec(any::<u8>(), 0..20),
            // Now and then a value larger than any batch asked for.
            (0usize..40, 0usize..10)
                .prop_map(|(len, big)| vec![0xa5; if big == 0 { 300 } else { len }]),
        ),
        0..60,
    )
}

proptest! {
    #[test]
    fn read_batch_at_any_size_serves_what_next_record_does(
        records in records(),
        max_bytes in 0usize..400,
    ) {
        let (store, _dir) = store();
        let meta = write(&store, &records);
        for mode in 0..3 {
            let before = store.stats().bytes_read;
            let mut r = store.open_run(meta.id).unwrap();
            let got = match mode {
                0 => by_record(r.as_mut()),
                1 => by_batch(r.as_mut(), max_bytes),
                _ => mixed(r.as_mut(), max_bytes),
            };
            prop_assert_eq!(&got.unwrap(), &records);
            drop(r);
            prop_assert_eq!(store.stats().bytes_read - before, meta.bytes, "bytes read per run");
        }
    }

    #[test]
    fn a_corrupt_run_is_an_error_or_reads_as_records(
        records in records(),
        truncate in any::<bool>(),
        cut in any::<usize>(),
        claim in any::<u32>(),
        at in any::<usize>(),
    ) {
        let (store, dir) = store();
        let meta = write(&store, &records);
        let path = run_file(&dir, meta);
        let mut bytes = std::fs::read(&path).unwrap();
        if bytes.is_empty() {
            return Ok(());
        }
        // Either cut the run short or rewrite one length field of the
        // record starting at a header boundary.
        let mut headers = Vec::new();
        let mut pos = 0;
        for (k, v) in &records {
            headers.push(pos);
            pos += 8 + k.len() + v.len();
        }
        if truncate {
            bytes.truncate(cut % bytes.len());
        } else {
            let field = headers[at % headers.len()] + 4 * (at / headers.len() % 2);
            bytes[field..field + 4].copy_from_slice(&claim.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        for max_bytes in [0, 64, usize::MAX] {
            let mut r = store.open_run(meta.id).unwrap();
            let by_record = by_record(r.as_mut());
            let mut r = store.open_run(meta.id).unwrap();
            let by_batch = by_batch(r.as_mut(), max_bytes);
            // A rewritten length may still frame the bytes as records,
            // and a cut at a record boundary is a shorter run; anything
            // else is corruption — and both reads agree on which.
            for result in [&by_record, &by_batch] {
                prop_assert!(matches!(result, Ok(_) | Err(Error::Corrupt(_))), "{result:?}");
            }
            prop_assert_eq!(by_record.ok(), by_batch.ok());
        }
    }
}

fn one_record_run(claim_key: u32, claim_value: u32) -> (FileSpillStore, Dir, RunMeta) {
    let (store, dir) = store();
    let meta = write(&store, &vec![(b"key".to_vec(), b"value".to_vec())]);
    let path = run_file(&dir, meta);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[..4].copy_from_slice(&claim_key.to_le_bytes());
    bytes[4..8].copy_from_slice(&claim_value.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    (store, dir, meta)
}

#[test]
fn a_header_claiming_8_gib_is_corrupt() {
    let (store, _dir, meta) = one_record_run(u32::MAX, u32::MAX);
    let mut r = store.open_run(meta.id).unwrap();
    assert!(matches!(by_record(r.as_mut()), Err(Error::Corrupt(_))));
    for max_bytes in [0, 1 << 20, usize::MAX] {
        let mut r = store.open_run(meta.id).unwrap();
        assert!(matches!(
            by_batch(r.as_mut(), max_bytes),
            Err(Error::Corrupt(_))
        ));
    }
}

#[test]
fn a_header_claiming_one_byte_too_many_is_corrupt() {
    // "key" + "value" is 8 bytes; claim 9.
    let (store, _dir, meta) = one_record_run(3, 6);
    let mut r = store.open_run(meta.id).unwrap();
    assert!(matches!(by_record(r.as_mut()), Err(Error::Corrupt(_))));
    let mut r = store.open_run(meta.id).unwrap();
    assert!(matches!(by_batch(r.as_mut(), 4), Err(Error::Corrupt(_))));
}

#[test]
fn truncated_headers_and_payloads_are_corrupt() {
    let (store, dir) = store();
    let records = vec![
        (b"k1".to_vec(), b"v1".to_vec()),
        (b"k2".to_vec(), b"v2".to_vec()),
    ];
    let meta = write(&store, &records);
    let path = run_file(&dir, meta);
    let whole = std::fs::read(&path).unwrap();
    // Mid second header, mid second payload.
    for len in [whole.len() - 8, whole.len() - 1] {
        std::fs::write(&path, &whole[..len]).unwrap();
        let mut r = store.open_run(meta.id).unwrap();
        assert!(
            matches!(by_record(r.as_mut()), Err(Error::Corrupt(_))),
            "{len}"
        );
        for max_bytes in [0, 13, usize::MAX] {
            let mut r = store.open_run(meta.id).unwrap();
            assert!(
                matches!(by_batch(r.as_mut(), max_bytes), Err(Error::Corrupt(_))),
                "{len} at {max_bytes}"
            );
        }
    }
}

#[test]
fn a_record_larger_than_the_batch_is_read_whole() {
    let (store, _dir) = store();
    let records = vec![
        (b"a".to_vec(), vec![1; 5000]),
        (b"b".to_vec(), b"small".to_vec()),
        (b"c".to_vec(), vec![3; 7000]),
    ];
    let meta = write(&store, &records);
    let mut r = store.open_run(meta.id).unwrap();
    let mut sizes = Vec::new();
    while let Some(batch) = r.read_batch(100).unwrap() {
        sizes.push(batch.len());
    }
    assert_eq!(sizes, [1, 1, 1]);
    let mut r = store.open_run(meta.id).unwrap();
    assert_eq!(by_batch(r.as_mut(), 100).unwrap(), records);
}
