//! The `onepass` binary's command line is derived from the knob table:
//! its usage text names every knob exactly once, the rows that are flags
//! are its only knob flags, and a flag it cannot parse stops the run
//! instead of silently running the default.

use std::process::{Command, Output};

use onepass::runtime::knobs::KNOBS;

/// Run `onepass` with a whitespace-separated command line.
fn onepass(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_onepass"))
        .args(line.split_whitespace())
        .output()
        .expect("spawn onepass")
}

/// Occurrences of `--name` as a whole flag (not a prefix of a longer one).
fn mentions(text: &str, name: &str) -> usize {
    let flag = format!("--{name}");
    text.match_indices(&flag)
        .filter(|(at, _)| {
            !text[at + flag.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        })
        .count()
}

#[test]
fn usage_names_every_knob_exactly_once() {
    let out = onepass("");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "usage goes to stderr");
    let usage = String::from_utf8(out.stderr).unwrap();
    for knob in KNOBS {
        // A row heads one entry of the knob section, spelled as a flag
        // exactly when some command takes it as one.
        let spelled = if knob.takers.is_empty() {
            knob.name.to_string()
        } else {
            format!("--{}", knob.name)
        };
        let heads = usage
            .lines()
            .filter(|l| l.strip_prefix("  ").and_then(|l| l.split(' ').next()) == Some(&spelled))
            .count();
        assert_eq!(heads, 1, "{spelled} in the usage text:\n{usage}");
        assert_eq!(
            mentions(&usage, knob.name),
            usize::from(!knob.takers.is_empty()),
            "--{} in the usage text:\n{usage}",
            knob.name
        );
    }
}

/// README.md quotes the knob section; keep the quote a checked copy.
#[test]
fn readme_quotes_the_knob_section_verbatim() {
    let readme = include_str!("../README.md");
    assert!(
        readme.contains(&onepass::runtime::knobs::usage()),
        "README.md \"Knobs\" is stale: paste the knob section of `onepass`'s usage text"
    );
}

/// The docs, the run-all script and CI name only `exp_*`/`bench_*`
/// targets and `*.sh` scripts that exist, and EXPERIMENTS.md names every
/// target of `crates/bench` — so a deleted binary cannot live on in a
/// list, nor a new one go unlisted.
#[test]
fn docs_scripts_and_ci_name_the_targets_and_scripts_that_exist() {
    use std::path::Path;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let listing = |dir: &str| -> Vec<String> {
        let entries = std::fs::read_dir(root.join(dir)).expect(dir);
        entries
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect()
    };
    let targets: Vec<String> = ["crates/bench/src/bin", "crates/bench/benches"]
        .iter()
        .flat_map(|dir| listing(dir))
        .filter_map(|f| f.strip_suffix(".rs").map(str::to_string))
        .collect();

    let mut files: Vec<String> = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]
        .map(String::from)
        .to_vec();
    files.push("run_all_experiments.sh".into());
    let workflows = listing(".github/workflows").into_iter();
    files.extend(workflows.map(|f| format!(".github/workflows/{f}")));
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    for file in &files {
        let text = std::fs::read_to_string(root.join(file)).expect(file);
        for token in text.split(|c: char| !(ident(c) || "./-".contains(c))) {
            if let Some(script) = token.trim_end_matches('.').strip_suffix(".sh") {
                let path = format!("{}.sh", script.trim_start_matches("./"));
                assert!(root.join(&path).is_file(), "{file} names {path}");
            }
        }
        for (at, _) in text
            .match_indices("exp_")
            .chain(text.match_indices("bench_"))
        {
            // Not inside a longer word or a dot-directory (`.bench_build`).
            if text[..at].ends_with(|c: char| ident(c) || c == '.') {
                continue;
            }
            let rest = &text[at..];
            let (name, after) = rest.split_at(rest.find(|c| !ident(c)).unwrap_or(rest.len()));
            // `exp_fig*` names a family; `bench_pairs.sh` was checked above.
            let known = match after {
                a if a.starts_with(".sh") => true,
                a if a.starts_with('*') => targets.iter().any(|t| t.starts_with(name)),
                _ => targets.iter().any(|t| t == name),
            };
            assert!(
                known,
                "{file} names {name}, which crates/bench does not build"
            );
        }
    }
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    for t in &targets {
        assert!(
            experiments.contains(&format!("`{t}`")),
            "EXPERIMENTS.md omits `{t}`"
        );
    }
}

#[test]
fn malformed_and_misspelt_flags_exit_2_naming_the_flag() {
    let bad_value = onepass("run per-user-count --records 1000 --reducers four");
    assert_eq!(bad_value.status.code(), Some(2));
    let msg = String::from_utf8(bad_value.stderr).unwrap();
    assert!(
        msg.contains("reducers") && msg.contains("\"four\""),
        "{msg}"
    );
    assert!(msg.contains("--reducers N"), "value syntax shown: {msg}");

    let misspelt = onepass("run per-user-count --records 1000 --reducer 8");
    assert_eq!(misspelt.status.code(), Some(2));
    let msg = String::from_utf8(misspelt.stderr).unwrap();
    assert!(msg.contains("--reducer "), "{msg}");
    assert!(msg.contains("--reducers N"), "the knobs are listed: {msg}");

    // A knob the command does not take as a flag is a mistake too (a row
    // without a flag anywhere, a row only `run` takes), as is a switch
    // that is gone (a plan runs one way).
    for line in [
        "run per-user-count --records 1000 --backend inc-hash",
        "plan top-k --records 1000 --budget-kb 64",
        "serve --records 1000 --retries 3",
        "plan top-k --records 1000 --barrier",
    ] {
        assert_eq!(onepass(line).status.code(), Some(2), "{line}");
    }
    // What a worker would drop is refused before any worker is dialed
    // (nothing listens on the address): remote map attempts run no
    // injected faults, iterative round jobs are not registered on
    // workers, and a worker's plan stage combines with the served k.
    for (line, names) in [
        ("run page-frequency --kill-map 1", "--kill-reduce"),
        ("run page-frequency --fault-seed 3", "--kill-reduce"),
        ("plan pagerank", "round jobs"),
        ("plan top-k --k 3", "--k"),
    ] {
        let line = format!("{line} --records 1000 --workers 127.0.0.1:9");
        let out = onepass(&line);
        assert_eq!(out.status.code(), Some(2), "{line}");
        let msg = String::from_utf8(out.stderr).unwrap();
        assert!(msg.contains(names), "{line}: {msg}");
    }
    // Fixed values are no flags: the retry backoff and the pool's
    // high-water mark. Nor is engine speculation or its slow-task fault:
    // the engine never clones a map task.
    for flag in [
        "--backoff-ms 5",
        "--mem-high-water 0.5",
        "--speculate",
        "--straggle-map 0:5",
    ] {
        let out = onepass(&format!("run per-user-count --records 1000 {flag}"));
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let msg = String::from_utf8(out.stderr).unwrap();
        let name = flag.split(' ').next().unwrap();
        assert!(
            msg.contains(&format!("unknown (or repeated) flag {name} ")),
            "{msg}"
        );
    }
    // A batch reducer owns its budget, and the serving pool sheds by its
    // one policy: no command takes a memory policy.
    for line in [
        "run per-user-count --records 1000",
        "plan top-k --records 1000",
        "serve --records 1000",
    ] {
        let out = onepass(&format!("{line} --mem-policy largest-consumer"));
        assert_eq!(out.status.code(), Some(2), "{line}");
        let msg = String::from_utf8(out.stderr).unwrap();
        assert!(
            msg.contains("unknown (or repeated) flag --mem-policy "),
            "{line}: {msg}"
        );
    }

    // A workload the command does not know, or does not take, names the
    // workload and the ones it does take.
    for (line, bad, taken) in [
        ("run sessionisation", "\"sessionisation\"", "sessionization"),
        ("sim top-k", "\"top-k\"", "inverted-index"),
        ("plan per-user-count", "\"per-user-count\"", "top-k"),
    ] {
        let out = onepass(line);
        assert_eq!(out.status.code(), Some(2), "{line}");
        let msg = String::from_utf8(out.stderr).unwrap();
        assert!(msg.contains(bad) && msg.contains(taken), "{line}: {msg}");
    }
}

/// A run that fails for a reason outside its command line (here: no
/// worker listens on the address) is one `onepass:` line and exit 1, not
/// a panic.
#[test]
fn a_refused_worker_is_one_line_and_exit_1() {
    let out = onepass("run page-frequency --records 100 --workers 127.0.0.1:1");
    assert_eq!(out.status.code(), Some(1));
    let msg = String::from_utf8(out.stderr).unwrap();
    assert!(!msg.contains("panicked"), "{msg}");
    let lines: Vec<&str> = msg.lines().filter(|l| l.starts_with("onepass:")).collect();
    assert_eq!(lines.len(), 1, "{msg}");
    assert!(
        lines[0].starts_with("onepass: run page-frequency: "),
        "{msg}"
    );
    assert!(
        lines[0].contains("127.0.0.1:1"),
        "the worker is named: {msg}"
    );
}

/// The simulator still models Hadoop's speculation (`run` takes neither
/// flag: the engine never clones a map task).
#[test]
fn sim_races_a_clone_against_a_straggler() {
    let out =
        onepass("sim sessionization --system hadoop --scale 0.05 --straggle-map 0:40 --speculate");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    let attempts = stdout
        .lines()
        .find(|l| l.starts_with("attempts:"))
        .unwrap_or_else(|| panic!("no attempts line:\n{stdout}"));
    assert!(attempts.contains(" 1 speculative, 1 won"), "{attempts}");
}

#[test]
fn report_leads_with_the_knobs_that_produced_it() {
    let path = std::env::temp_dir().join(format!("onepass-cli-{}.jsonl", std::process::id()));
    let out = onepass(&format!(
        "run per-user-count --records 2000 --reducers 3 --budget-kb 512 --report-jsonl {}",
        path.display()
    ));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let report = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let first = onepass::core::json::Json::parse(report.lines().next().unwrap()).unwrap();
    assert_eq!(first.get("type").and_then(|t| t.as_str()), Some("knobs"));
    assert_eq!(first.get("reducers").and_then(|t| t.as_str()), Some("3"));
    assert_eq!(first.get("budget-kb").and_then(|t| t.as_str()), Some("512"));
    for knob in KNOBS {
        assert!(first.get(knob.name).is_some(), "{} missing", knob.name);
    }
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("job:"), "{stdout}");
}
