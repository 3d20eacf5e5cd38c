//! One run of one workload: set-ups alternating with slices of the timed
//! untraced pass, the byte-for-byte verification, and — with `--trace` —
//! the traced pass, the layer probes and the trace files.

use std::path::PathBuf;
use std::time::Instant;

use crate::batch::{Batch, Kind};
use crate::inputs::Scale;
use crate::iterative::PageRank;
use crate::probes;
use crate::serving::Serve;
use crate::span::SpanLog;
use crate::spec::{self, Better, MetricSpec};
use crate::stats::{best_tail, median, summarize};
use crate::sys;
use crate::workload::{Iteration, Metrics, Pass, Workload};

/// Set-ups per untraced run, spread evenly through the timed pass;
/// `setup_s` is the fastest of them (the best tail of seven samples).
const SETUPS: usize = 7;

/// Fewest untraced/traced iteration pairs in a traced run.
const TRACED_MIN_ROUNDS: usize = 3;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed pass measures for.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
    /// Directory (inside the checkout) for trace files and scratch runs.
    pub out_dir: PathBuf,
}

/// What one invocation found.
#[derive(Debug)]
pub struct RunResult {
    /// Every operation succeeded and every output matched its reference.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics of the mode that ran, in table order.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
}

fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sessionize_constrained" => {
            Box::new(Batch::setup(Kind::SessionizeConstrained, seed, scale))
        }
        "peruser_unconstrained" => Box::new(Batch::setup(Kind::PeruserUnconstrained, seed, scale)),
        "sessionize_hadoop" => Box::new(Batch::setup(Kind::SessionizeHadoop, seed, scale)),
        "sessionize_tcp2" => Box::new(Batch::setup(Kind::SessionizeTcp2, seed, scale)),
        "pagerank_cached" => Box::new(PageRank::setup(seed, scale)),
        "serve_200" => Box::new(Serve::setup(seed, scale)),
        _ => return None,
    })
}

/// Running tally of operations across every iteration of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, it: &Iteration) {
        self.attempted += it.attempted;
        self.failures.extend(it.failures.iter().cloned());
    }
}

/// Run rounds of one iteration per entry of `passes`, in order, until
/// `seconds` have passed and `min` rounds are in. Alternating the passes
/// inside one loop puts them under the same host conditions, so their
/// ratio is not a ratio of two different minutes. Returns the iterations
/// of each pass.
fn timed_rounds(
    w: &mut dyn Workload,
    passes: &[Pass],
    seconds: f64,
    min: usize,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> Vec<Vec<Iteration>> {
    let start = Instant::now();
    let mut iterations: Vec<Vec<Iteration>> = passes.iter().map(|_| Vec::new()).collect();
    while iterations[0].len() < min || start.elapsed().as_secs_f64() < seconds {
        for (of_pass, &pass) in iterations.iter_mut().zip(passes) {
            spans.set_enabled(pass == Pass::Traced);
            let it = w.iterate(pass, spans);
            tally.absorb(&it);
            of_pass.push(it);
        }
    }
    iterations
}

fn median_of(iterations: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    median(&mut iterations.iter().map(f).collect::<Vec<_>>())
}

/// What an untraced run reports for a timing: the best tail of `f` over
/// the iterations (see [`best_tail`] for why not the median).
fn best_of(iterations: &[Iteration], better: Better, f: impl Fn(&Iteration) -> f64) -> f64 {
    best_tail(&mut iterations.iter().map(f).collect::<Vec<_>>(), better)
}

fn print_metric(m: &MetricSpec, value: f64, note: &str) {
    println!("metric {:<48} {:>18.6} {:<7} {note}", m.name, value, m.unit);
}

/// Run one workload as `opts` says and print every metric by name.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let name = opts.workload.as_str();
    if spec::workload(name).is_none() {
        return Err(format!("unknown workload {name:?}"));
    }
    println!(
        "== {name}: seed {} scale {} {} pass, {} s, {} hardware threads ==",
        opts.seed,
        if opts.scale.is_smoke() {
            "smoke (÷20)"
        } else {
            "full"
        },
        if opts.trace { "traced" } else { "untraced" },
        opts.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("calibration_ns {:.0}", sys::calibration_ns());
    if opts.trace {
        traced_run(opts)
    } else {
        untraced_run(opts)
    }
}

fn finish(tally: Tally, metrics: Vec<(&'static MetricSpec, f64)>) -> RunResult {
    for f in tally.failures.iter().take(10) {
        println!("FAILED op: {f}");
    }
    if tally.failures.len() > 10 {
        println!("FAILED op: ... and {} more", tally.failures.len() - 10);
    }
    let failed = tally.failures.len() as u64;
    println!("ops_attempted {}  ops_failed {failed}", tally.attempted);
    RunResult {
        correct: failed == 0 && metrics.iter().all(|(_, v)| v.is_finite()),
        attempted: tally.attempted.max(1),
        failed,
        metrics,
    }
}

fn untraced_run(opts: &Options) -> Result<RunResult, String> {
    let name = opts.workload.as_str();
    let mut spans = SpanLog::new(name, false);
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut iterations = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut timed = 0.0;
    // A set-up, then a seventh of the timed pass, seven times over: the
    // set-ups sample the same stretch of host time the iterations do, so
    // the fastest of them has the same chance of a quiet moment.
    for slice in 1..=SETUPS {
        // Drop the previous set-up first so peak_rss_mib holds one input.
        drop(workload.take());
        let t = Instant::now();
        let w = workload.insert(build(name, opts.seed, opts.scale).expect("name was checked"));
        setups.push(t.elapsed().as_secs_f64());
        if slice == 1 {
            println!("input_fingerprint {:#018x}", w.input_fingerprint());
            let warm = w.iterate(Pass::Untraced, &mut spans);
            tally.absorb(&warm);
        }
        let min = if opts.scale.is_smoke() {
            w.min_iterations().min(3)
        } else {
            w.min_iterations()
        };
        let t = Instant::now();
        let of_slice = timed_rounds(
            w.as_mut(),
            &[Pass::Untraced],
            opts.seconds * slice as f64 / SETUPS as f64 - timed,
            min.div_ceil(SETUPS),
            &mut spans,
            &mut tally,
        );
        timed += t.elapsed().as_secs_f64();
        iterations.extend(of_slice.into_iter().flatten());
    }
    tally.attempted += 1;
    if let Err(e) = workload.expect("set up above").verify() {
        tally.failures.push(format!("verification: {e}"));
    }

    let n = iterations.len();
    let mut firsts: Vec<f64> = iterations
        .iter()
        .map(|i| i.first_answer.as_secs_f64())
        .collect();
    let first = summarize(&mut firsts);
    let over_iterations = format!("best 5% of {n} iterations");
    let metrics: Vec<_> = spec::END_TO_END
        .iter()
        .map(|m| {
            let (value, note) = match m.name {
                "setup_s" => (
                    best_tail(&mut setups, m.better),
                    format!("fastest of {SETUPS} set-ups"),
                ),
                "records_per_s" => (
                    best_of(&iterations, m.better, |i| {
                        i.records as f64 / i.wall.as_secs_f64()
                    }),
                    over_iterations.clone(),
                ),
                "cpu_s_per_mrec" => (
                    best_of(&iterations, m.better, |i| {
                        i.cpu.as_secs_f64() * 1e6 / i.records as f64
                    }),
                    over_iterations.clone(),
                ),
                "first_answer_s" => (
                    best_of(&iterations, m.better, |i| i.first_answer.as_secs_f64()),
                    match first.tail {
                        Some((p, v)) => format!(
                            "{over_iterations}, median {:.6}, p{:.1} {v:.6}",
                            first.median,
                            p * 100.0
                        ),
                        None => format!("{over_iterations}, median {:.6}", first.median),
                    },
                ),
                "peak_rss_mib" => (sys::peak_rss_mib(), "VmHWM at exit".to_string()),
                other => unreachable!("end-to-end metric {other} is not measured"),
            };
            print_metric(m, value, &note);
            (m, value)
        })
        .collect();
    Ok(finish(tally, metrics))
}

fn traced_run(opts: &Options) -> Result<RunResult, String> {
    let name = opts.workload.as_str();
    let mut w = build(name, opts.seed, opts.scale).expect("workload name was checked");
    println!("input_fingerprint {:#018x}", w.input_fingerprint());
    let mut tally = Tally::default();

    // Untraced iterations alternate with the traced ones: they are the
    // end-to-end reference for the overhead ratio and the closure check.
    let mut spans = SpanLog::new(name, false);
    let warm = w.iterate(Pass::Untraced, &mut spans);
    tally.absorb(&warm);
    let rounds = timed_rounds(
        w.as_mut(),
        &[Pass::Untraced, Pass::Traced],
        opts.seconds,
        TRACED_MIN_ROUNDS,
        &mut spans,
        &mut tally,
    );
    let (untraced, traced) = (&rounds[0], &rounds[1]);
    let untraced_wall = median_of(untraced, |i| i.wall.as_secs_f64());
    let untraced_cpu = median_of(untraced, |i| i.cpu.as_secs_f64());
    let traced_wall = median_of(traced, |i| i.wall.as_secs_f64());
    spans.set_enabled(true);

    let scratch = opts.out_dir.join("tmp");
    let probes = probes::run_all(&w.probe_input(), &scratch, &mut spans);
    let mut values: Metrics = w.layer_metrics(&probes, untraced_cpu);
    values.extend(probes);
    values.insert("trace.overhead_ratio", traced_wall / untraced_wall);

    let trace_path = opts.out_dir.join(format!("trace_{name}.json"));
    let layers_path = opts.out_dir.join(format!("layers_{name}.jsonl"));
    std::fs::write(&trace_path, spans.chrome_trace_json())
        .and_then(|()| std::fs::write(&layers_path, spans.layers_jsonl()))
        .map_err(|e| format!("writing trace files under {}: {e}", opts.out_dir.display()))?;
    println!("trace  {}", trace_path.display());
    println!("layers {}", layers_path.display());
    println!(
        "untraced {} iterations (median wall {untraced_wall:.4} s, cpu {untraced_cpu:.4} s), traced {} iterations (median wall {traced_wall:.4} s)",
        untraced.len(),
        traced.len()
    );

    let metrics: Vec<_> = spec::PER_LAYER
        .iter()
        .map(|m| {
            // A metric this workload has no layer for reads 0.
            let value = values.get(m.name).copied().unwrap_or(0.0);
            print_metric(m, value, "");
            (m, value)
        })
        .collect();
    Ok(finish(tally, metrics))
}
