//! The knob table is the only text form of a job's configuration, so its
//! `get`/`set` pairs must be exact inverses: whatever a [`Settings`] holds,
//! sending its rows as text and setting them onto a default-built spec
//! (what a TCP worker does with `JobInit`) reproduces every scalar.

use std::num::NonZeroU64;

use onepass_runtime::knobs::{apply, find, pairs, Settings, KNOBS};
use onepass_runtime::prelude::*;

/// The three systems of Table III as settings (default closures).
fn presets() -> Vec<(&'static str, Settings)> {
    let b = || JobSpec::builder("t");
    [
        ("hadoop", b().preset_hadoop()),
        ("hop", b().preset_hop()),
        ("onepass", b().preset_onepass()),
    ]
    .into_iter()
    .map(|(name, builder)| (name, fresh(builder.build().unwrap())))
    .collect()
}

fn fresh(job: JobSpec) -> Settings {
    Settings {
        job,
        engine: EngineConfig::default(),
    }
}

/// What a worker starts from: the registry's default-built spec.
fn default_built() -> Settings {
    fresh(JobSpec::builder("t").build().unwrap())
}

/// A non-default value for every row (the last pair of each entry; earlier
/// pairs put the settings in a state where that value is legal).
const PERTURBED: &[&[(&str, &str)]] = &[
    &[("reducers", "3")],
    &[("backend", "hybrid-hash")],
    &[("backend", "sort-merge+snapshots")],
    &[("backend", "inc-hash")],
    &[("budget-kb", "1.4658203125")], // 1501 bytes: not a whole KiB
    &[("collect-output", "discard")],
    &[("map-workers", "1")],
    &[("spill", "temp-files")],
    &[("retries", "5")],
];

/// Every scalar the table claims to describe, read from the fields — not
/// through `get`, which is what is under test.
fn scalars(s: &Settings) -> String {
    let (j, e) = (&s.job, &s.engine);
    format!(
        "{:?} {:?}",
        (
            j.reducers,
            &j.backend,
            j.reduce_budget_bytes,
            j.collect_output,
        ),
        (e.map_workers, e.spill, e.max_attempts)
    )
}

/// The scalars of the travelling rows only: what a map attempt reads.
fn travelling_scalars(s: &Settings) -> String {
    let mut travelled = default_built();
    travelled.job.reducers = s.job.reducers;
    travelled.job.backend = s.job.backend;
    scalars(&travelled)
}

fn set_all(s: &mut Settings, values: &[(&str, &str)]) {
    for (name, value) in values {
        find(name)
            .unwrap_or_else(|| panic!("no row {name}"))
            .set(s, value)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Every preset, alone and with each perturbation applied.
fn cases() -> Vec<(String, Settings)> {
    let mut out = Vec::new();
    for (name, base) in presets() {
        out.push((name.to_string(), base.clone()));
        for p in PERTURBED {
            let mut s = base.clone();
            set_all(&mut s, p);
            out.push((format!("{name} + {p:?}"), s));
        }
    }
    out
}

#[test]
fn perturbations_cover_every_row_and_change_it() {
    for knob in KNOBS {
        let p = PERTURBED
            .iter()
            .find(|p| p.last().unwrap().0 == knob.name)
            .unwrap_or_else(|| panic!("row {} has no perturbed value", knob.name));
        let base = default_built();
        let mut s = base.clone();
        set_all(&mut s, p);
        assert_ne!(
            knob.get(&s.job, &s.engine),
            knob.get(&base.job, &base.engine),
            "{} was not perturbed",
            knob.name
        );
        assert_ne!(scalars(&s), scalars(&base), "{} set nothing", knob.name);
    }
    let mut names: Vec<_> = KNOBS.iter().map(|k| k.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), KNOBS.len(), "row names must be unique");
}

#[test]
fn every_rows_own_text_is_accepted_and_changes_nothing() {
    for (label, s) in cases() {
        for knob in KNOBS {
            let mut again = s.clone();
            knob.set(&mut again, &knob.get(&s.job, &s.engine))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(scalars(&again), scalars(&s), "{label}: {}", knob.name);
        }
    }
}

#[test]
fn text_of_every_row_reproduces_every_scalar() {
    for (label, s) in cases() {
        let mut rebuilt = default_built();
        for knob in KNOBS {
            knob.set(&mut rebuilt, &knob.get(&s.job, &s.engine))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
        assert_eq!(scalars(&rebuilt), scalars(&s), "{label}");
    }
}

/// The wire round trip: the pairs a coordinator
/// sends, applied the way a worker applies them.
#[test]
fn travelling_pairs_applied_to_a_default_spec_reproduce_the_job() {
    for (label, s) in cases() {
        let sent = pairs(&s.job, &s.engine);
        assert!(sent.len() < KNOBS.len(), "some rows stay behind");
        let mut worker = default_built();
        apply(&mut worker, &sent).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            travelling_scalars(&worker),
            travelling_scalars(&s),
            "{label}"
        );
    }
}

#[test]
fn setting_the_backend_keeps_what_has_no_text_form_when_the_kind_matches() {
    let built = |backend| fresh(JobSpec::builder("t").backend(backend).build().unwrap());
    let backend = find("backend").unwrap();

    let mut s = built(ReduceBackend::IncHash {
        early_every: NonZeroU64::new(3),
    });
    backend.set(&mut s, "inc-hash").unwrap();
    assert_eq!(
        s.job.backend,
        ReduceBackend::IncHash {
            early_every: NonZeroU64::new(3)
        },
        "early-emit period was dropped"
    );

    let mut s = built(ReduceBackend::FreqHash);
    backend.set(&mut s, "inc-hash").unwrap();
    assert_eq!(
        s.job.backend,
        ReduceBackend::IncHash { early_every: None },
        "a different kind takes defaults"
    );
}

#[test]
fn bad_pairs_are_errors_that_name_the_knob() {
    let err = |name: &str, value: &str| {
        apply(
            &mut default_built(),
            &[(name.to_string(), value.to_string())],
        )
        .unwrap_err()
        .to_string()
    };
    assert!(err("reducers", "four").contains("reducers"));
    assert!(
        err("reducers", "four").contains("--reducers N"),
        "syntax shown"
    );
    assert!(err("reducer", "8").contains("\"reducer\""), "unknown name");
    for behind in ["map-workers", "budget-kb", "spill", "retries"] {
        let why = err(behind, "2");
        assert!(
            why.contains(&format!("{behind:?} is not one a worker takes")),
            "{why}"
        );
    }
    // The map side and the shuffle follow from the backend, and a batch
    // reducer owns its budget (the pooled governor is the serving tier's):
    // no row, so neither a worker nor a command takes one.
    for gone in ["map-side", "shuffle", "mem-policy"] {
        let why = err(gone, "push");
        assert!(
            why.contains(&format!("{gone:?} is not one a worker takes")),
            "{why}"
        );
        assert!(find(gone).is_none(), "{gone} is a row");
    }
    assert!(err("backend", "sort-merge:10").contains("backend"));
    // Rows that stay behind name themselves when set from bad text too.
    let set_err = |name: &str, value: &str| {
        find(name)
            .unwrap()
            .set(&mut default_built(), value)
            .unwrap_err()
            .to_string()
    };
    assert!(set_err("backend", "sort-merge:10").contains("backend"));
    assert!(set_err("retries", "0").contains("at least 1"));
    assert!(set_err("budget-kb", "-1").contains("budget-kb"));
    // Values that parse but make an invalid job are caught by validation.
    assert!(err("reducers", "0").contains("reducers"));
}

#[test]
fn every_listed_choice_is_accepted() {
    for knob in KNOBS {
        let literal = |c: &str| {
            c.chars()
                .all(|ch| ch.is_ascii_lowercase() || "-+".contains(ch))
        };
        if !knob.syntax.split('|').all(literal) {
            continue;
        }
        for choice in knob.syntax.split('|') {
            let mut s = default_built();
            knob.set(&mut s, choice).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(knob.get(&s.job, &s.engine), choice);
        }
    }
}

#[test]
fn job_debug_prints_the_job_rows() {
    let job = JobSpec::builder("t")
        .reducers(3)
        .preset_hop()
        .build()
        .unwrap();
    let text = format!("{job:?}");
    assert!(text.contains("reducers: 3"), "{text}");
    assert!(text.contains("backend: sort-merge+snapshots,"), "{text}");
    assert!(
        !text.contains("retries"),
        "engine rows are not the job's: {text}"
    );
}

/// What `JobInit` carries for each preset, pinned as text: the rows a map
/// attempt reads, and only those. Removing a row that does not travel
/// must leave these strings — and so the wire — untouched; a row that
/// starts or stops travelling changes what a worker is sent, which is a
/// new wire version.
#[test]
fn travelling_pairs_of_every_preset_are_pinned() {
    let sent: Vec<String> = presets()
        .iter()
        .map(|(name, s)| {
            let pairs: Vec<String> = pairs(&s.job, &s.engine)
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!("{name}: {}", pairs.join(" "))
        })
        .collect();
    let want = [
        ("hadoop", "backend=sort-merge"),
        ("hop", "backend=sort-merge+snapshots"),
        ("onepass", "backend=freq-hash"),
    ]
    .map(|(name, rest)| format!("{name}: reducers=4 {rest}"));
    assert_eq!(sent, want);
}
