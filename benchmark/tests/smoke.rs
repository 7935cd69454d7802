//! The benchmark's own tests, at reduced size: every workload completes
//! with zero failures and a stable digest on the default seed and on the
//! held-out seed; the digest is identical at one and two engine threads;
//! the traced binary emits every per-layer metric and a complete span
//! file; and `BENCHMARK.json` lists exactly the metrics the binaries print.

use std::path::Path;
use std::process::Command;

use symbreak_perfbench::metrics::{computed_here, END_TO_END, PER_LAYER};
use symbreak_perfbench::workloads::Workload;
use symbreak_perfbench::DEFAULT_SEED;

/// The seed later performance claims must also hold on; no tuning uses it.
const HELD_OUT_SEED: u64 = 2021;

struct Run {
    detail: String,
    result: String,
}

fn run(exe: &str, workload: Workload, seed: u64, threads: u32, extra: &[&str]) -> Run {
    let out = Command::new(exe)
        .env_clear()
        .env("CONGEST_THREADS", threads.to_string())
        .args([
            "--workload",
            workload.name(),
            "--scale",
            "smoke",
            "--seconds",
            "0",
        ])
        .args(["--seed", &seed.to_string()])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{} {seed}: exit {}",
        workload.name(),
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "detail line then result line: {stdout}");
    Run {
        detail: lines[0].to_string(),
        result: lines[1].to_string(),
    }
}

fn untraced(workload: Workload, seed: u64, threads: u32) -> Run {
    run(
        env!("CARGO_BIN_EXE_perfbench"),
        workload,
        seed,
        threads,
        &[],
    )
}

/// The string value of `"key":"…"` in `json`.
fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":\"");
    let start = json.find(&pat).unwrap_or_else(|| panic!("{key} in {json}")) + pat.len();
    &json[start..start + json[start..].find('"').expect("closing quote")]
}

fn assert_clean(run: &Run, names: impl IntoIterator<Item = &'static str>) {
    assert!(
        run.result.starts_with(r#"{"correct":true,"#),
        "{}",
        run.result
    );
    assert!(run.result.contains(r#""failed":0,"#), "{}", run.result);
    assert!(
        run.detail.contains(r#""digest_stable":true"#),
        "{}",
        run.detail
    );
    for name in names {
        let entry = format!("\"{name}\":{{\"value\":");
        let at = run
            .result
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing"));
        let value = &run.result[at + entry.len()..];
        assert!(!value.starts_with("null"), "{name} has no value");
    }
}

#[test]
fn every_workload_completes_on_the_default_and_held_out_seeds() {
    for workload in Workload::ALL {
        let default = untraced(workload, DEFAULT_SEED, 1);
        assert_clean(&default, END_TO_END.iter().map(|(name, _)| *name));
        let held_out = untraced(workload, HELD_OUT_SEED, 1);
        assert_clean(&held_out, END_TO_END.iter().map(|(name, _)| *name));
        assert_ne!(
            field(&default.detail, "digest"),
            field(&held_out.detail, "digest")
        );
    }
}

#[test]
fn digest_is_identical_at_one_and_two_engine_threads() {
    for workload in Workload::ALL {
        let one = untraced(workload, DEFAULT_SEED, 1);
        let two = untraced(workload, DEFAULT_SEED, 2);
        assert!(one.detail.contains(r#""threads":1,"#));
        assert!(two.detail.contains(r#""threads":2,"#));
        assert_eq!(
            field(&one.detail, "digest"),
            field(&two.detail, "digest"),
            "{}: engine threads changed a simulated statistic",
            workload.name()
        );
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric_and_a_complete_span_file() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-spans");
    for workload in Workload::ALL {
        let spans = dir.join(format!("{}.json", workload.name()));
        let spans_arg = spans.to_str().expect("utf-8 path");
        let traced = run(
            env!("CARGO_BIN_EXE_perfbench-traced"),
            workload,
            DEFAULT_SEED,
            1,
            &["--spans", spans_arg],
        );
        let computed = PER_LAYER
            .iter()
            .filter(|l| computed_here(l))
            .map(|l| l.name);
        assert_clean(&traced, computed);
        assert!(traced.detail.contains(r#""per_layer_moves":{"#));
        let untraced = untraced(workload, DEFAULT_SEED, 1);
        assert_eq!(
            field(&traced.detail, "digest"),
            field(&untraced.detail, "digest")
        );
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert!(text.trim_end().ends_with("]}"), "span file is complete");
        assert!(!spans.with_extension("json.tmp").exists());
    }
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed: Vec<&str> = text
        .match_indices("\"name\": \"")
        .map(|(at, pat)| {
            let rest = &text[at + pat.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect();
    let expected: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|(name, _)| *name))
        .chain(PER_LAYER.iter().map(|l| l.name))
        .collect();
    assert_eq!(listed, expected);
    for layer in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            layer.name, layer.unit, layer.better
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
