//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! onepass-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!                   [--smoke] [--selfcheck] [--out-dir DIR]
//! ```
//!
//! With `--workload` it runs that workload in this process and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Without it, it runs the whole set,
//! one child process per workload (so `peak_rss_mib` is per workload), and
//! ends with a summary whose last key is `"claim": null`.

mod batch;
mod harness;
mod inputs;
mod iterative;
mod oracle;
mod probes;
mod serving;
mod span;
mod spec;
mod stats;
mod sys;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use onepass_core::json::{escape, Json};

use harness::{Options, RunResult};
use inputs::Scale;

const USAGE: &str = "usage: onepass-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--selfcheck] [--out-dir DIR]";

/// Seconds a `--smoke` pass measures for unless `--seconds` says otherwise.
const SMOKE_SECONDS: f64 = 0.5;

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    out_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        selfcheck: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                cli.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` (driver contract) or a bare `--trace`.
                cli.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--selfcheck" => cli.selfcheck = true,
            "--out-dir" => cli.out_dir = PathBuf::from(value(&mut i, "--out-dir")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(cli)
}

impl Cli {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            spec::DEFAULT_SECONDS as f64
        })
    }
}

/// The contract's result line.
fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(m, v)| {
            // JSON has no NaN/inf; such a value already made the run incorrect.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                escape(m.name),
                escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let opts = Options {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds(),
        trace: cli.trace,
        scale: if cli.smoke { Scale::SMOKE } else { Scale::FULL },
        out_dir: cli.out_dir.clone(),
    };
    match harness::run(&opts) {
        Ok(result) => {
            println!("{}", result_json(&result));
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload's result line, parsed back.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Option<ChildResult> {
    let json = Json::parse(line).ok()?;
    let metrics = json
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some(ChildResult {
        correct: json.get("correct")?.as_bool()?,
        attempted: json.get("attempted")?.as_f64()? as u64,
        failed: json.get("failed")?.as_f64()? as u64,
        metrics,
    })
}

/// Run every workload, each in a child process of its own, echoing its
/// output. Returns the parsed result per workload, `None` where a child
/// died without one.
fn run_set(cli: &Cli) -> Vec<(&'static str, Option<ChildResult>)> {
    let exe = std::env::current_exe().expect("own executable path");
    spec::WORKLOADS
        .iter()
        .map(|w| {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds().to_string()])
                .args(["--trace", if cli.trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&cli.out_dir)
                .stdout(Stdio::piped());
            if cli.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().expect("spawn workload process");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            let (last, body) = lines.split_last().map_or(("", &[][..]), |(l, b)| (*l, b));
            for line in body {
                println!("{line}");
            }
            let result = parse_result(last);
            if result.is_none() {
                println!("{last}");
                println!(
                    "FAILED: {} exited with {} and no result line",
                    w.name, output.status
                );
            }
            println!();
            (w.name, result)
        })
        .collect()
}

fn set_ok(set: &[(&str, Option<ChildResult>)]) -> bool {
    set.iter()
        .all(|(_, r)| r.as_ref().is_some_and(|r| r.correct && r.failed == 0))
}

/// The set's summary: one JSON object, `"claim": null` last — defining
/// the benchmark claims no gain.
fn print_summary(cli: &Cli, calibration_ns: f64, set: &[(&str, Option<ChildResult>)]) {
    let table = if cli.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let workloads: Vec<String> = set
        .iter()
        .map(|(name, r)| match r {
            None => format!("\"{name}\": null"),
            Some(r) => {
                let metrics: Vec<String> = table
                    .iter()
                    .filter_map(|m| Some(format!("\"{}\": {}", m.name, r.metrics.get(m.name)?)))
                    .collect();
                format!(
                    "\"{name}\": {{\"correct\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, {}}}",
                    r.correct,
                    r.attempted,
                    r.failed,
                    metrics.join(", ")
                )
            }
        })
        .collect();
    println!(
        "{{\"seed\": {}, \"smoke\": {}, \"traced\": {}, \"calibration_ns\": {calibration_ns:.0}, \"workloads\": {{{}}}, \"claim\": null}}",
        cli.seed,
        cli.smoke,
        cli.trace,
        workloads.join(", ")
    );
}

/// Two full sets on the same build; fails if any end-to-end metric of any
/// workload moves by more than its own bound between them.
fn selfcheck(cli: &Cli) -> ExitCode {
    let anchor1 = sys::calibration_ns();
    println!("== selfcheck: set 1 (calibration_ns {anchor1:.0}) ==");
    let first = run_set(cli);
    let anchor2 = sys::calibration_ns();
    println!("== selfcheck: set 2 (calibration_ns {anchor2:.0}) ==");
    let second = run_set(cli);
    let mut ok = set_ok(&first) && set_ok(&second);
    println!("== selfcheck: set 2 against set 1, per metric ==");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        let (Some(a), Some(b)) = (a, b) else { continue };
        for m in spec::END_TO_END {
            let (Some(&x), Some(&y)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics have bounds");
            // Either set may be the slower one: take the larger ratio.
            let moved = (x - y).abs() / x.abs().min(y.abs());
            let verdict = if moved <= bound {
                "ok"
            } else {
                "OUTSIDE BOUND"
            };
            ok &= moved <= bound;
            println!(
                "{name:<24} {:<16} {x:>16.6} {y:>16.6} {:<7} moved {:>6.2}% bound {:>4.0}% {verdict}",
                m.name,
                m.unit,
                moved * 100.0,
                bound * 100.0
            );
        }
    }
    print_summary(cli, anchor1.max(anchor2), &second);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = spec::validate() {
        eprintln!("error: benchmark tables break the contract: {e}");
        return ExitCode::from(2);
    }
    // Spill runs of `SpillBackend::TempFiles` go to the system temp dir;
    // keep them inside the checkout. Set before any thread exists.
    let scratch = cli.out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let scratch = scratch.canonicalize().unwrap_or(scratch);
    std::env::set_var("TMPDIR", &scratch);

    if let Some(workload) = &cli.workload {
        return run_one(&cli, workload);
    }
    if cli.selfcheck {
        return selfcheck(&cli);
    }
    let calibration_ns = sys::calibration_ns();
    let set = run_set(&cli);
    print_summary(&cli, calibration_ns, &set);
    if set_ok(&set) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let c = cli(&[
            "--workload",
            "serve_200",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("serve_200"));
        assert_eq!((c.seed, c.seconds(), c.trace), (7, 8.0, false));
        assert!(cli(&["--trace", "1"]).unwrap().trace);
        assert!(cli(&["--trace", "--smoke"]).unwrap().trace);
        assert!(cli(&["--trace"]).unwrap().trace);
        assert_eq!(cli(&["--smoke"]).unwrap().seconds(), SMOKE_SECONDS);
        assert_eq!(cli(&[]).unwrap().seed, spec::DEFAULT_SEED);
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
        assert!(cli(&["--seed"]).is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                (&spec::END_TO_END[0], 0.8127),
                (&spec::END_TO_END[1], 1234567.891),
            ],
        };
        let line = result_json(&r);
        assert!(!line.contains('\n'));
        let back = parse_result(&line).expect("parses");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (12, 0));
        assert_eq!(back.metrics["setup_s"], 0.8127);
        assert_eq!(back.metrics["records_per_s"], 1234567.891);
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
