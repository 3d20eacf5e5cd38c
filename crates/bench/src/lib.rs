//! # onepass-bench
//!
//! Experiment drivers that regenerate every table and figure of the
//! paper — one binary per artefact, run together by
//! `run_all_experiments.sh`:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `exp_table1` | Table I — workloads, volumes, task counts, completion times |
//! | `exp_table2` | Table II — map-phase CPU split (map fn vs sort) |
//! | `exp_fig2` | Fig. 2(a)–(f) — sessionization timelines & utilization |
//! | `exp_fig3` | Fig. 3 — inverted-index task timeline |
//! | `exp_fig4` | Fig. 4 — MapReduce Online utilization & iowait |
//! | `exp_table3` | Table III — capability comparison matrix |
//! | `exp_section5` | §V — hash vs Hadoop: CPU, runtime, spill I/O |
//! | `exp_calibrate` | simulator cost model fitted to engine runs on this host |
//! | `exp_ablation` | sensitivity to the Hadoop knobs the study holds fixed (merge factor, shuffle buffer) |
//!
//! Every binary prints the paper-reported values next to the measured
//! ones and writes CSVs under `results/`.
//!
//! Performance is not measured here but by the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`). The crate holds its verdict tool,
//! `bench_diff` (driven by `scripts/bench_pairs.sh`), and under
//! `benches/` the two <2% probe-overhead guards, `bench_trace_overhead`
//! and `bench_metrics_overhead`, plain `main`s that assert.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fs;
use std::path::PathBuf;

use onepass_core::metrics::Series;

/// Directory experiment CSVs are written to (`results/` under the CWD).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Save `content` as `results/<name>`; prints the path. Errors are
/// reported but do not abort the experiment (the console output stands).
pub fn save(name: &str, content: &str) {
    let path = results_dir().join(name);
    match fs::write(&path, content) {
        Ok(()) => println!("  [saved {}]", path.display()),
        Err(e) => eprintln!("  [could not save {}: {e}]", path.display()),
    }
}

/// Parse `--name value` from argv; falls back to env `ONEPASS_<NAME>`.
pub fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == format!("--{name}") {
            return args.get(i + 1).cloned();
        }
    }
    std::env::var(format!("ONEPASS_{}", name.to_uppercase().replace('-', "_"))).ok()
}

/// Append JSONL job-report lines to the file named by `--report-jsonl`
/// (or `ONEPASS_REPORT_JSONL`); a no-op when the flag is absent. Lets
/// experiment binaries emit machine-readable reports alongside their
/// console tables when `run_all_experiments.sh` forwards the flag —
/// appending, so one file collects every job of a whole sweep.
pub fn append_report_jsonl(jsonl: &str) {
    let Some(path) = arg("report-jsonl") else {
        return;
    };
    use std::io::Write;
    match fs::OpenOptions::new().create(true).append(true).open(&path) {
        Ok(mut f) => {
            if f.write_all(jsonl.as_bytes()).is_ok() {
                println!("  [appended report to {path}]");
            }
        }
        Err(e) => eprintln!("  [could not append to {path}: {e}]"),
    }
}

/// Parse a numeric flag with a default.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    arg(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Parse an integer flag with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    arg(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Render a series as a fixed-width ASCII chart (the experiment binaries'
/// stand-in for the paper's plots). Downsamples x into `width` columns by
/// averaging, scales y to `height` rows.
pub fn ascii_chart(series: &Series, width: usize, height: usize) -> String {
    if series.is_empty() || width == 0 || height == 0 {
        return String::from("(empty series)\n");
    }
    let n = series.points.len();
    let cols = width.min(n).max(1);
    let per_col = (n as f64 / cols as f64).max(1.0);
    let col_vals: Vec<f64> = (0..cols)
        .map(|c| {
            let lo = (c as f64 * per_col) as usize;
            let hi = (((c + 1) as f64 * per_col) as usize).min(n).max(lo + 1);
            series.points[lo..hi].iter().map(|&(_, y)| y).sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let max = col_vals.iter().cloned().fold(0.0_f64, f64::max).max(1e-9);
    let mut out = String::new();
    for row in (1..=height).rev() {
        let threshold = max * (row as f64 - 0.5) / height as f64;
        let label = if row == height {
            format!("{max:8.1} |")
        } else {
            String::from("         |")
        };
        out.push_str(&label);
        for &v in &col_vals {
            out.push(if v >= threshold { '#' } else { ' ' });
        }
        out.push('\n');
    }
    out.push_str("         +");
    out.push_str(&"-".repeat(cols));
    out.push('\n');
    let x_max = series.points.last().map(|&(x, _)| x).unwrap_or(0.0);
    out.push_str(&format!(
        "          0{:>width$.0}  ({})\n",
        x_max,
        series.name,
        width = cols.saturating_sub(1)
    ));
    out
}

/// Format a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Line colors for multi-series SVG charts.
const SVG_COLORS: &[&str] = &[
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
];

/// Render one or more series as a standalone SVG line chart — the
/// publication-style counterpart of [`ascii_chart`] (both are emitted by
/// the figure drivers; the SVGs land in `results/`).
pub fn svg_chart(title: &str, y_label: &str, series: &[&Series], w: u32, h: u32) -> String {
    let (ml, mr, mt, mb) = (56.0, 16.0, 28.0, 40.0);
    let pw = w as f64 - ml - mr;
    let ph = h as f64 - mt - mb;
    let x_max = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x))
        .fold(1e-9_f64, f64::max);
    let y_max = series
        .iter()
        .filter_map(|s| s.max_y())
        .fold(1e-9_f64, f64::max);

    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\" font-size=\"11\">\n\
         <rect width=\"{w}\" height=\"{h}\" fill=\"white\"/>\n\
         <text x=\"{}\" y=\"18\" text-anchor=\"middle\" font-size=\"13\">{}</text>\n",
        w as f64 / 2.0,
        xml_escape(title)
    ));
    // Axes.
    svg.push_str(&format!(
        "<line x1=\"{ml}\" y1=\"{mt}\" x2=\"{ml}\" y2=\"{}\" stroke=\"black\"/>\n\
         <line x1=\"{ml}\" y1=\"{0}\" x2=\"{1}\" y2=\"{0}\" stroke=\"black\"/>\n",
        mt + ph,
        ml + pw
    ));
    // Axis labels and ticks.
    for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let y = mt + ph * (1.0 - frac);
        svg.push_str(&format!(
            "<text x=\"{}\" y=\"{:.1}\" text-anchor=\"end\">{:.0}</text>\n",
            ml - 6.0,
            y + 4.0,
            y_max * frac
        ));
        let x = ml + pw * frac;
        svg.push_str(&format!(
            "<text x=\"{x:.1}\" y=\"{}\" text-anchor=\"middle\">{:.0}</text>\n",
            mt + ph + 16.0,
            x_max * frac
        ));
    }
    svg.push_str(&format!(
        "<text x=\"14\" y=\"{:.1}\" transform=\"rotate(-90 14 {0:.1})\" \
         text-anchor=\"middle\">{}</text>\n\
         <text x=\"{:.1}\" y=\"{}\" text-anchor=\"middle\">seconds</text>\n",
        mt + ph / 2.0,
        xml_escape(y_label),
        ml + pw / 2.0,
        h as f64 - 8.0
    ));
    // Series polylines + legend.
    for (i, s) in series.iter().enumerate() {
        if s.is_empty() {
            continue;
        }
        let color = SVG_COLORS[i % SVG_COLORS.len()];
        let mut points = String::new();
        for &(x, y) in &s.points {
            let px = ml + pw * (x / x_max);
            let py = mt + ph * (1.0 - (y / y_max).min(1.0));
            points.push_str(&format!("{px:.1},{py:.1} "));
        }
        svg.push_str(&format!(
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.2\" points=\"{}\"/>\n",
            points.trim_end()
        ));
        let lx = ml + 10.0 + (i as f64) * 130.0;
        svg.push_str(&format!(
            "<line x1=\"{lx}\" y1=\"{mt}\" x2=\"{}\" y2=\"{mt}\" stroke=\"{color}\" stroke-width=\"3\"/>\n\
             <text x=\"{}\" y=\"{}\">{}</text>\n",
            lx + 18.0,
            lx + 22.0,
            mt + 4.0,
            xml_escape(&s.name)
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_chart_renders_peaks() {
        let mut s = Series::new("demo");
        for i in 0..100 {
            s.push(i as f64, if i > 40 && i < 60 { 10.0 } else { 1.0 });
        }
        let chart = ascii_chart(&s, 50, 5);
        assert!(chart.contains('#'));
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 7);
        // The top row only covers the peak columns.
        let top_hashes = lines[0].matches('#').count();
        let bottom_hashes = lines[4].matches('#').count();
        assert!(top_hashes < bottom_hashes);
    }

    #[test]
    fn ascii_chart_handles_empty() {
        let s = Series::new("empty");
        assert!(ascii_chart(&s, 10, 3).contains("empty series"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.385), "38.5%");
    }

    #[test]
    fn svg_chart_is_wellformed() {
        let mut a = Series::new("cpu");
        let mut b = Series::new("iowait");
        for i in 0..50 {
            a.push(i as f64, (i % 10) as f64 * 10.0);
            b.push(i as f64, 100.0 - (i % 10) as f64 * 10.0);
        }
        let svg = svg_chart("demo <title>", "percent", &[&a, &b], 640, 300);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("demo &lt;title&gt;"));
        // Balanced tags for the simple subset used.
        assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
    }

    #[test]
    fn svg_chart_empty_series_skipped() {
        let empty = Series::new("none");
        let svg = svg_chart("t", "y", &[&empty], 300, 200);
        assert_eq!(svg.matches("<polyline").count(), 0);
    }
}
