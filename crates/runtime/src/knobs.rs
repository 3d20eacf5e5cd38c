//! The one table of a job's knobs.
//!
//! The paper's method is a controlled comparison: the same job with one
//! knob changed (§III Tables I–II, §V). Every scalar that can be changed
//! that way — on [`JobSpec`] or on [`EngineConfig`] — is one row of
//! [`KNOBS`]: its spelling, its value syntax, a line of help, whether it
//! travels to remote workers, which commands take it as a flag, and a
//! `get`/`set` pair converting between the field and its text form.
//! Nothing else in the repository spells a knob or parses one:
//!
//! * the CLI takes `--<name> <value>` through one loop over the rows that
//!   are flags and prints [`usage`] as its help;
//! * the TCP coordinator ships `JobInit { name, knobs }` with the
//!   [`pairs`] of the travelling rows, and the worker [`apply`]s them onto
//!   the spec its registry rebuilt from the name (closures don't travel);
//! * `--report-jsonl` leads with [`to_json`], and [`JobSpec`]'s `Debug`
//!   prints the job rows.
//!
//! A system of Table III is one row, `backend`: its map side and its
//! shuffle follow from the group-by
//! ([`ReduceBackend::sorts_map_output`], [`ReduceBackend::pushes`]), so
//! neither is a row of its own.
//!
//! A field-exhaustive destructuring at the bottom of this file names every
//! field of both structs as either a row or "not a knob", so a new field
//! does not compile until someone decides which it is.

use onepass_core::error::{Error, Result};
use onepass_core::json::escape;

use crate::driver::{EngineConfig, SpillBackend};
use crate::job::{CollectOutput, JobSpec, ReduceBackend};

/// Everything the table can read or write: one job and the engine that
/// runs it.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The job's specification.
    pub job: JobSpec,
    /// The engine's configuration.
    pub engine: EngineConfig,
}

/// Which struct a row lives on, with its `get` (field → text) and `set`
/// (text → field) functions.
#[derive(Clone, Copy)]
pub enum Access {
    /// A [`JobSpec`] scalar.
    Job(fn(&JobSpec) -> String, fn(&mut JobSpec, &str) -> Result<()>),
    /// An [`EngineConfig`] scalar.
    Engine(
        fn(&EngineConfig) -> String,
        fn(&mut EngineConfig, &str) -> Result<()>,
    ),
}

/// One settable scalar.
pub struct Knob {
    /// The knob's only spelling: `--<name>` on the CLI, `<name>` on the
    /// wire and in reports.
    pub name: &'static str,
    /// Value syntax for the usage text.
    pub syntax: &'static str,
    /// One line of help.
    pub help: &'static str,
    /// Sent to TCP workers in `JobInit`: the rows a map attempt reads.
    /// Rows that stay behind configure machinery a worker does not run —
    /// reducers and the scheduler (see DESIGN.md "Closures don't
    /// travel").
    pub travels: bool,
    /// Space-separated commands that take the row as a `--<name>` flag:
    /// `run`, `plan` (stages build their own specs, so of the job rows only
    /// `reducers`), `serve` (the catalog's `reducers`). Empty for a row with no flag: `--system`'s preset or a
    /// builder sets it, and it still travels, prints and reports by name.
    pub takers: &'static str,
    /// Where the value lives and how it converts.
    pub access: Access,
}

impl Knob {
    /// The current value in text form.
    pub fn get(&self, job: &JobSpec, engine: &EngineConfig) -> String {
        match self.access {
            Access::Job(get, _) => get(job),
            Access::Engine(get, _) => get(engine),
        }
    }

    /// Set from text. The error names the knob, the offending value and
    /// the syntax it should have had.
    pub fn set(&self, s: &mut Settings, value: &str) -> Result<()> {
        match self.access {
            Access::Job(_, set) => set(&mut s.job, value),
            Access::Engine(_, set) => set(&mut s.engine, value),
        }
        .map_err(|e| {
            let why = match e {
                Error::Config(why) => why,
                other => other.to_string(),
            };
            bad(format!(
                "knob {} cannot be {value:?} ({why}); syntax: {} {}",
                self.name,
                self.spelled(),
                self.syntax
            ))
        })
    }

    /// True when `command` (`run`, `plan` or `serve`) takes this row as a
    /// flag.
    pub fn taken_by(&self, command: &str) -> bool {
        self.takers.split(' ').any(|t| t == command)
    }

    /// `--name` for a row some command takes as a flag, else the bare name.
    fn spelled(&self) -> String {
        let dashes = if self.takers.is_empty() { "" } else { "--" };
        format!("{dashes}{}", self.name)
    }
}

/// The row spelled `name`.
pub fn find(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// `(name, value)` for every travelling row: what `JobInit` carries.
pub fn pairs(job: &JobSpec, engine: &EngineConfig) -> Vec<(String, String)> {
    KNOBS
        .iter()
        .filter(|k| k.travels)
        .map(|k| (k.name.to_string(), k.get(job, engine)))
        .collect()
}

/// Worker side of `JobInit`: set each pair onto `s`, then validate the
/// job. A name that is not a travelling row is an error, not a no-op — it
/// means the two ends disagree about the table.
pub fn apply(s: &mut Settings, pairs: &[(String, String)]) -> Result<()> {
    for (name, value) in pairs {
        let knob = find(name)
            .filter(|k| k.travels)
            .ok_or_else(|| bad(format!("knob {name:?} is not one a worker takes")))?;
        knob.set(s, value)?;
    }
    s.job.validate()
}

/// The knob section of the CLI usage text: every row once.
pub fn usage() -> String {
    let mut out = String::new();
    for k in KNOBS {
        let takers = if k.takers.is_empty() {
            "no flag"
        } else {
            k.takers
        };
        let travels = if k.travels { "; travels" } else { "" };
        out.push_str(&format!(
            "  {} {}\n        {} [{takers}{travels}]\n",
            k.spelled(),
            k.syntax,
            k.help
        ));
    }
    out
}

/// One `{"type":"knobs",…}` JSONL line holding `rows`, so a report names
/// the configuration that produced it.
pub fn to_json<'a>(s: &Settings, rows: impl IntoIterator<Item = &'a Knob>) -> String {
    let mut out = String::from("{\"type\":\"knobs\"");
    for k in rows {
        out.push_str(&format!(
            ",\"{}\":\"{}\"",
            k.name,
            escape(&k.get(&s.job, &s.engine))
        ));
    }
    out.push_str("}\n");
    out
}

fn bad(why: impl Into<String>) -> Error {
    Error::Config(why.into())
}

fn num<T: std::str::FromStr>(v: &str) -> Result<T> {
    v.parse().map_err(|_| bad("not a valid number"))
}

/// A scalar type with an exact text form.
trait Text: Sized {
    fn show(&self) -> String;
    fn read(v: &str) -> Result<Self>;
}

impl Text for usize {
    fn show(&self) -> String {
        self.to_string()
    }
    fn read(v: &str) -> Result<Self> {
        num(v)
    }
}

/// Text form of a fieldless type, spelled once: `$syntax` for the usage
/// text, an exhaustive `match` for `show` (a new variant does not compile
/// until it has a label) and a lookup for `read`.
macro_rules! choices {
    ($syntax:ident, $ty:ty { $l0:literal => $($v0:tt)::+ $(, $l:literal => $($v:tt)::+)* }) => {
        const $syntax: &str = concat!($l0 $(, "|", $l)*);
        impl Text for $ty {
            fn show(&self) -> String {
                match self {
                    $($v0)::+ => $l0,
                    $($($v)::+ => $l,)*
                }
                .to_string()
            }
            fn read(v: &str) -> Result<Self> {
                match v {
                    $l0 => Ok($($v0)::+),
                    $($l => Ok($($v)::+),)*
                    _ => Err(bad("not one of the choices")),
                }
            }
        }
    };
}

choices!(COLLECT, CollectOutput {
    "collect" => CollectOutput::Collect,
    "discard" => CollectOutput::Discard
});
choices!(SPILL, SpillBackend {
    "memory" => SpillBackend::Memory,
    "temp-files" => SpillBackend::TempFiles
});

/// The access pair of a field whose type has a [`Text`] form.
macro_rules! field {
    ($layer:ident . $($f:ident).+) => {
        $layer(
            |s| s.$($f).+.show(),
            |s, v| Text::read(v).map(|x| s.$($f).+ = x),
        )
    };
}

/// Byte counts read and print as KiB. Fractions are allowed so that every
/// byte count has an exact text form (dividing by 1024 is exact in `f64`).
fn kib_get(bytes: usize) -> String {
    (bytes as f64 / 1024.0).to_string()
}

fn kib_set(v: &str) -> Result<usize> {
    let kib: f64 = num(v)?;
    if !kib.is_finite() || kib < 0.0 {
        return Err(bad("must be a non-negative size"));
    }
    Ok((kib * 1024.0).round() as usize)
}

fn backend_get(j: &JobSpec) -> String {
    match &j.backend {
        ReduceBackend::SortMerge { snapshots: false } => "sort-merge",
        ReduceBackend::SortMerge { snapshots: true } => "sort-merge+snapshots",
        ReduceBackend::HybridHash => "hybrid-hash",
        ReduceBackend::IncHash { .. } => "inc-hash",
        ReduceBackend::FreqHash => "freq-hash",
    }
    .into()
}

fn backend_set(j: &mut JobSpec, v: &str) -> Result<()> {
    j.backend = match v {
        "sort-merge" => ReduceBackend::SortMerge { snapshots: false },
        "sort-merge+snapshots" => ReduceBackend::SortMerge { snapshots: true },
        "hybrid-hash" => ReduceBackend::HybridHash,
        // An early-emit period has no text form: a spec that already runs
        // inc-hash keeps its own; any other takes none.
        "inc-hash" if matches!(j.backend, ReduceBackend::IncHash { .. }) => return Ok(()),
        "inc-hash" => ReduceBackend::IncHash { early_every: None },
        "freq-hash" => ReduceBackend::FreqHash,
        _ => return Err(bad("not a reduce backend")),
    };
    Ok(())
}

use Access::{Engine, Job};

/// Every knob, in the order flags are applied and pairs are sent.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "reducers",
        syntax: "N",
        help: "reduce tasks, one per shuffle partition",
        travels: true,
        takers: "run plan serve",
        access: field!(Job.reducers),
    },
    Knob {
        name: "backend",
        syntax: "sort-merge|sort-merge+snapshots|hybrid-hash|inc-hash|freq-hash",
        help: "reduce-side group-by (sort-merge at F = 10, snapshots at 25/50/75%; \
               inc-hash = freq-hash with the hot-key summary off); it implies the \
               map side and the shuffle (Table III)",
        // Reducers run in the coordinator's executor on every transport,
        // but a map attempt sorts and pushes as the backend implies.
        travels: true,
        takers: "",
        access: Job(backend_get, backend_set),
    },
    Knob {
        name: "budget-kb",
        syntax: "KIB",
        help: "memory budget per reduce task",
        travels: false,
        takers: "run",
        access: Job(
            |j| kib_get(j.reduce_budget_bytes),
            |j, v| kib_set(v).map(|b| j.reduce_budget_bytes = b),
        ),
    },
    Knob {
        name: "collect-output",
        syntax: COLLECT,
        help: "keep output pairs in the report, or only count them",
        travels: false,
        takers: "",
        access: field!(Job.collect_output),
    },
    Knob {
        name: "map-workers",
        syntax: "N",
        help: "concurrent map task slots (a TCP worker sizes its own with --slots)",
        travels: false,
        takers: "",
        access: field!(Engine.map_workers),
    },
    Knob {
        name: "spill",
        syntax: SPILL,
        help: "where spill runs live",
        // Only reducers spill; a remote map never persists its output.
        travels: false,
        takers: "",
        access: field!(Engine.spill),
    },
    Knob {
        name: "retries",
        syntax: "N",
        help: "attempts allowed per task, the first included",
        // The coordinator's scheduler and reducers enforce it.
        travels: false,
        takers: "run",
        access: Engine(
            |e| e.max_attempts.to_string(),
            |e, v| match num(v)? {
                0 => Err(bad("must be at least 1")),
                n => {
                    e.max_attempts = n;
                    Ok(())
                }
            },
        ),
    },
];

/// Every field of both structs, classified. Adding a field to either
/// struct fails to compile here until it is given a row above or listed
/// as not a knob.
const _: fn(Settings) = |Settings { job, engine }| {
    let JobSpec {
        // Not knobs: the job's identity (travels as `JobInit.name`) and
        // its closures (rebuilt from the worker's registry by that name).
        name: _,
        map_fn: _,
        agg: _,
        // Rows.
        reducers: _,
        backend: _,
        reduce_budget_bytes: _,
        collect_output: _,
    } = job;
    let EngineConfig {
        // Not knobs: process-local handles (tracer, metrics registry), the
        // test-only fault schedule, and the deployment's worker addresses.
        tracer: _,
        metrics: _,
        faults: _,
        transport: _,
        // Rows.
        map_workers: _,
        spill: _,
        max_attempts: _,
    } = engine;
};
