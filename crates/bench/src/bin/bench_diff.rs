//! `bench_diff <pr> <parent-rev> <runs-file>` — the verdict half of
//! `scripts/bench_pairs.sh`, the one way to answer "did this change move
//! performance". Run from the repo root: names and bounds come from
//! `BENCHMARK.json`, history is appended to `BENCH_HISTORY.jsonl`.
//!
//! Each line of the runs file is `<side> <workload> <result>`: side is
//! `parent`, `change` (an untraced run each; the k-th `parent` and k-th
//! `change` line of a workload form pair k) or `trace` (the change's
//! `--trace 1` run), and `<result>` is the result object `benchmark/run.sh
//! --workload W` prints last.
//!
//! Per workload × end-to-end metric it prints both medians, the change
//! of the median (Δ) next to the parent's quartile distance (IQR, linear
//! interpolation), pairs won (ties for neither side) and a verdict by the
//! `simplicity-review` rule, checked in this order:
//! `gain` (≥ 9/10 of pairs won and Δ beyond the IQR), `regression` (median
//! worse by more than the bound), `unresolved` (IQR wider than the
//! bound), else `unchanged`. Exit 1 on a regression or a larger share of
//! failed operations, 2 on unusable input.

use std::process::ExitCode;

use onepass_core::json::{escape, Json};

type Res<T> = Result<T, String>;

const HISTORY: &str = "BENCH_HISTORY.jsonl";

/// One line of the runs file.
struct Run<'a> {
    side: &'a str,
    workload: &'a str,
    /// The end-to-end metrics in `BENCHMARK.json` order (empty on `trace`).
    values: Vec<f64>,
    /// Operations `[failed, attempted]`.
    ops: [f64; 2],
    /// The result's `metrics` object.
    metrics: Json,
}

/// Member `key` of `j` as the type `as_type` extracts.
fn get<'a, T>(j: &'a Json, key: &str, as_type: fn(&'a Json) -> Option<T>) -> Res<T> {
    let v = j.get(key).and_then(as_type);
    v.ok_or_else(|| format!("`{key}` is missing or of the wrong type"))
}

fn parse_run<'a>(line: &'a str, workloads: &[&str], end_to_end: &[Json]) -> Res<Run<'a>> {
    let parts: Vec<&str> = line.splitn(3, ' ').collect();
    let &[side, workload, body] = &parts[..] else {
        return Err("want `<side> <workload> <result>`".into());
    };
    if !["parent", "change", "trace"].contains(&side) || !workloads.contains(&workload) {
        return Err(format!("unknown side or workload: {side} {workload}"));
    }
    let result = Json::parse(body).map_err(|e| e.to_string())?;
    let metrics = get(&result, "metrics", Some)?.clone();
    let mut values = Vec::new();
    for m in end_to_end.iter().filter(|_| side != "trace") {
        let got = get(&metrics, get(m, "name", Json::as_str)?, Some)?;
        values.push(get(got, "value", Json::as_f64)?);
    }
    let count = |key| get(&result, key, Json::as_f64);
    let ops = [count("failed")?, count("attempted")?];
    Ok(Run {
        side,
        workload,
        values,
        ops,
        metrics,
    })
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let lo = at.floor() as usize;
    sorted[lo] + (sorted[at.ceil() as usize] - sorted[lo]) * (at - lo as f64)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The verdict table, the history lines, and whether anything regressed.
fn diff(spec: &str, file: &str, pr: &str, parent: &str) -> Res<(String, String, bool)> {
    let spec = Json::parse(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = get(&spec, "end_to_end", Json::as_arr)?;
    let workloads = get(&spec, "workloads", Json::as_arr)?.iter();
    let workloads = workloads
        .map(|w| get(w, "name", Json::as_str))
        .collect::<Res<Vec<_>>>()?;
    let mut runs = Vec::new();
    for (n, line) in file.lines().enumerate() {
        let run = parse_run(line, &workloads, metrics);
        runs.push(run.map_err(|e| format!("runs line {}: {e}", n + 1))?);
    }
    let (pr, parent) = (escape(pr), escape(parent));

    let mut table = format!(
        "{:<24}{:<16}{:>13}{:>13}{:>8}{:>8}  {:<6}verdict\n",
        "workload", "metric", "parent", "change", "Δ", "IQR", "won"
    );
    let (mut history, mut bad) = (String::new(), false);
    for name in workloads {
        let of = |s: &'static str| {
            runs.iter()
                .filter(move |r| (r.side, r.workload) == (s, name))
        };
        let pairs = of("parent").count();
        if pairs != of("change").count() {
            return Err(format!("{name}: parent and change need the same run count"));
        } else if pairs == 0 {
            continue;
        }
        let tag = format!("{{\"pr\":\"{pr}\",\"parent\":\"{parent}\",\"workload\":\"{name}\"");
        for (i, m) in metrics.iter().enumerate() {
            let metric = get(m, "name", Json::as_str)?;
            let bound = get(m, "bound", Json::as_f64)?;
            let sign = [-1.0, 1.0][(get(m, "better", Json::as_str)? == "higher") as usize];
            let pv: Vec<f64> = of("parent").map(|r| r.values[i]).collect();
            let cv: Vec<f64> = of("change").map(|r| r.values[i]).collect();
            let (ps, cs) = (sorted(&pv), sorted(&cv));
            let (pm, cm) = (quantile(&ps, 0.5), quantile(&cs, 0.5));
            let iqr = quantile(&ps, 0.75) - quantile(&ps, 0.25);
            let won = (0..pairs).filter(|&k| sign * (cv[k] - pv[k]) > 0.0).count();
            let better_by = sign * (cm - pm);
            let verdict = if won * 10 >= pairs * 9 && better_by > iqr {
                "gain"
            } else if -better_by > bound * pm.abs() {
                "regression"
            } else if iqr > bound * pm.abs() {
                "unresolved"
            } else {
                "unchanged"
            };
            bad |= verdict == "regression";
            let prec = if pm.abs() < 1000.0 { 4 } else { 0 };
            let (delta, spread) = (100.0 * (cm - pm) / pm.abs(), 100.0 * iqr / pm.abs());
            table += &format!("{name:<24}{metric:<16}{pm:>13.prec$}{cm:>13.prec$}{delta:>+7.1}%{spread:>7.1}%  {won:>2}/{pairs:<3}{verdict}\n");
            history += &format!("{tag},\"metric\":\"{metric}\",\"verdict\":\"{verdict}\",\"parent_median\":{pm},\"change_median\":{cm},\"parent_iqr\":{iqr},\"pairs_won\":{won},\"parent_runs\":{pv:?},\"change_runs\":{cv:?}}}\n");
        }
        let ops = |side| of(side).fold([0.0, 0.0], |a, r| [a[0] + r.ops[0], a[1] + r.ops[1]]);
        let (p, c) = (ops("parent"), ops("change"));
        let more = c[0] * p[1] > p[0] * c[1];
        bad |= more;
        let flag = if more { "  MORE FAILURES" } else { "" };
        table += &format!(
            "{name:<24}ops failed: parent {}/{}, change {}/{}{flag}\n",
            p[0], p[1], c[0], c[1]
        );
        let layer = |(k, v): &(String, Json)| Some((k.clone(), v.get("value")?.clone()));
        let layers = of("trace").next_back().and_then(|r| r.metrics.as_obj());
        let layers = layers.map_or(Json::Null, |l| {
            Json::Obj(l.iter().filter_map(layer).collect())
        });
        history += &format!(
            "{tag},\"ops_failed_parent\":{p:?},\"ops_failed_change\":{c:?},\"layers\":{layers}}}\n"
        );
    }
    Ok((table, history, bad))
}

fn run(args: &[String]) -> Res<bool> {
    let [pr, parent, runs] = args else {
        return Err("usage: bench_diff <pr> <parent-rev> <runs-file>".into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (table, history, bad) = diff(&read("BENCHMARK.json")?, &read(runs)?, pr, parent)?;
    print!("{table}");
    use std::io::Write;
    let mut options = std::fs::File::options();
    let file = options.create(true).append(true).open(HISTORY);
    let appended = file.and_then(|mut f| f.write_all(history.as_bytes()));
    appended.map_err(|e| format!("{HISTORY}: {e}"))?;
    Ok(bad)
}

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(bad) => ExitCode::from(bad as u8),
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One workload, one lower-is-better and one higher-is-better metric,
    /// both bounded at 25%.
    const SPEC: &str = r#"{"workloads":[{"name":"w"}],"end_to_end":[
        {"name":"t_s","unit":"s","better":"lower","bound":0.25},
        {"name":"rate","unit":"1/s","better":"higher","bound":0.25}]}"#;

    fn result(t_s: f64, rate: f64, failed: u32) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":40,\"failed\":{failed},\"metrics\":{{\
             \"t_s\":{{\"value\":{t_s},\"unit\":\"s\"}},\"rate\":{{\"value\":{rate},\"unit\":\"1/s\"}}}}}}",
            failed == 0
        )
    }

    /// Ten alternating pairs: `parent(k)` and `change(k)` give run k's
    /// `(t_s, rate)`.
    fn pairs(parent: impl Fn(usize) -> (f64, f64), change: impl Fn(usize) -> (f64, f64)) -> String {
        let mut runs = String::new();
        for k in 0..10 {
            let ((pt, pr), (ct, cr)) = (parent(k), change(k));
            let lines = [
                format!("parent w {}\n", result(pt, pr, 0)),
                format!("change w {}\n", result(ct, cr, 0)),
            ];
            // Alternate which side's line comes first, as the script does.
            runs += &lines[k % 2];
            runs += &lines[1 - k % 2];
        }
        runs
    }

    /// A tight parent: `t_s` 1.00–1.02, `rate` 100–102.
    fn steady(k: usize) -> (f64, f64) {
        (1.0 + 0.01 * (k % 3) as f64, 100.0 + (k % 3) as f64)
    }

    /// The verdict column of the two metric rows, and the `bad` flag.
    fn verdicts(runs: &str) -> (Vec<String>, bool) {
        let (table, _, bad) = diff(SPEC, runs, "16", "abc1234").expect("usable input");
        let rows = table
            .lines()
            .filter(|l| l.starts_with("w   ") && !l.contains("ops failed"));
        let last = |l: &str| l.split_whitespace().last().unwrap_or_default().to_string();
        (rows.map(last).collect(), bad)
    }

    #[test]
    fn a_clean_gain_is_a_gain_in_each_metrics_own_direction() {
        // Lower time and higher rate, in every pair, by far more than the IQR.
        let (v, bad) = verdicts(&pairs(steady, |_| (0.8, 120.0)));
        assert_eq!(v, ["gain", "gain"]);
        assert!(!bad);
        // The same moves the other way round are not gains (and, at 10%
        // and 5%, not regressions either).
        let (v, bad) = verdicts(&pairs(steady, |_| (1.1, 95.0)));
        assert_eq!(v, ["unchanged", "unchanged"]);
        assert!(!bad);
        // Nine of ten pairs is enough; eight is not.
        let nine = |k| if k == 0 { (1.5, 90.0) } else { (0.8, 120.0) };
        assert_eq!(verdicts(&pairs(steady, nine)).0, ["gain", "gain"]);
        let eight = |k| if k < 2 { (1.5, 90.0) } else { (0.8, 120.0) };
        assert_eq!(
            verdicts(&pairs(steady, eight)).0,
            ["unchanged", "unchanged"]
        );
    }

    #[test]
    fn a_median_beyond_the_bound_is_a_regression() {
        let (v, bad) = verdicts(&pairs(steady, |_| (1.3, 70.0)));
        assert_eq!(v, ["regression", "regression"]);
        assert!(bad, "a regression must fail the run");
        // Only the metric that moved is blamed.
        let (v, bad) = verdicts(&pairs(steady, |k| (1.3, steady(k).1)));
        assert_eq!(v, ["regression", "unchanged"]);
        assert!(bad);
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = |k: usize| (1.0 + (k % 2) as f64, 100.0 + 100.0 * (k % 2) as f64);
        let (v, bad) = verdicts(&pairs(noisy, noisy));
        assert_eq!(v, ["unresolved", "unresolved"]);
        assert!(!bad);
    }

    #[test]
    fn identical_sides_are_unchanged_with_no_pair_won() {
        let runs = pairs(steady, steady);
        let (table, history, bad) = diff(SPEC, &runs, "16", "abc1234").unwrap();
        assert!(!bad);
        assert_eq!(verdicts(&runs).0, ["unchanged", "unchanged"]);
        assert!(
            table.contains("+0.0%") && table.contains(" 0/10"),
            "{table}"
        );
        assert!(
            table.contains("ops failed: parent 0/400, change 0/400\n"),
            "{table}"
        );
        // Two metric lines and one workload line, each valid JSON with the tag.
        let lines: Vec<Json> = history
            .lines()
            .map(|l| Json::parse(l).expect("valid JSON"))
            .collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert_eq!(l.get("pr").and_then(Json::as_str), Some("16"));
            assert_eq!(l.get("parent").and_then(Json::as_str), Some("abc1234"));
            assert_eq!(l.get("workload").and_then(Json::as_str), Some("w"));
        }
        assert_eq!(lines[1].get("metric").and_then(Json::as_str), Some("rate"));
        assert_eq!(
            lines[1].get("parent_median").and_then(Json::as_f64),
            Some(101.0)
        );
        assert_eq!(
            lines[1]
                .get("parent_runs")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(10)
        );
        assert!(
            lines[2].get("layers").is_some_and(Json::is_null),
            "no traced run given"
        );
    }

    #[test]
    fn the_traced_runs_layers_land_in_the_workload_line() {
        let runs = pairs(steady, steady)
            + "trace w {\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"io.x_ns_per_rec\":{\"value\":12.5,\"unit\":\"ns/rec\"}}}\n";
        let (_, history, _) = diff(SPEC, &runs, "16", "abc1234").unwrap();
        let last = Json::parse(history.lines().last().unwrap()).unwrap();
        let layer = last.get("layers").and_then(|l| l.get("io.x_ns_per_rec"));
        assert_eq!(layer.and_then(Json::as_f64), Some(12.5));
    }

    #[test]
    fn a_larger_share_of_failed_operations_is_flagged() {
        let runs = pairs(steady, steady)
            + &format!("parent w {}\n", result(1.0, 100.0, 0))
            + &format!("change w {}\n", result(1.0, 100.0, 1));
        let (table, history, bad) = diff(SPEC, &runs, "16", "abc1234").unwrap();
        assert!(bad, "more failures must fail the run");
        assert!(table.contains("change 1/440  MORE FAILURES"), "{table}");
        assert!(
            history.contains("\"ops_failed_change\":[1.0, 440.0]"),
            "{history}"
        );
        // The same failures on both sides are not the change's doing.
        let both = pairs(steady, steady)
            + &format!("parent w {}\n", result(1.0, 100.0, 1))
            + &format!("change w {}\n", result(1.0, 100.0, 1));
        let (table, _, bad) = diff(SPEC, &both, "16", "abc1234").unwrap();
        assert!(!bad && !table.contains("MORE FAILURES"), "{table}");
    }

    #[test]
    fn unusable_input_is_an_error_naming_the_line() {
        let good = pairs(steady, steady);
        for (bad_line, why) in [
            ("parent w {\"correct\":true,", "truncated JSON"),
            ("parent w", "no result"),
            ("sideways w {}", "unknown side"),
            ("parent nosuch {}", "unknown workload"),
            ("parent w {\"attempted\":1,\"failed\":0,\"metrics\":{\"t_s\":{\"value\":1}}}", "a metric missing"),
            ("parent w {\"attempted\":1,\"metrics\":{\"t_s\":{\"value\":1},\"rate\":{\"value\":1}}}", "no failed count"),
            ("", "blank line"),
        ] {
            let err = diff(SPEC, &format!("{good}{bad_line}\n"), "16", "abc1234").err();
            assert!(err.as_ref().is_some_and(|e| e.starts_with("runs line 21: ")), "{why}: {err:?}");
        }
        let uneven = good.clone() + &format!("parent w {}\n", result(1.0, 100.0, 0));
        assert!(diff(SPEC, &uneven, "16", "abc1234").is_err_and(|e| e.contains("same run count")));
        assert!(diff("{}", &good, "16", "abc1234").is_err());
        assert!(run(&["only".to_string()]).is_err_and(|e| e.starts_with("usage:")));
    }
}
