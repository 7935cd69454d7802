//! Self-tests for `congest-lint`: every diagnostic in the catalogue must
//! fire exactly once against the fixture workspace, the tokenizer must not
//! be fooled by comments/strings, and the real workspace must lint clean.

use std::collections::BTreeMap;
use std::path::Path;

fn fixtures_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
}

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Each of the ≥ 8 catalogue diagnostics fires exactly once on the fixture
/// tree — no more (the comment/string decoys must not count), no less.
#[test]
fn every_diagnostic_fires_exactly_once_on_fixtures() {
    let outcome = lint::run_lints(fixtures_root()).expect("fixture lint run");
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &outcome.diagnostics {
        *counts.entry(d.lint).or_default() += 1;
    }
    let expected: Vec<&str> = lint::catalogue().iter().map(|(id, _)| *id).collect();
    assert!(expected.len() >= 8, "catalogue shrank below the contract");
    for id in &expected {
        assert_eq!(
            counts.get(id).copied().unwrap_or(0),
            1,
            "diagnostic `{id}` should fire exactly once on fixtures; all: {:#?}",
            outcome.diagnostics
        );
    }
    assert_eq!(
        outcome.diagnostics.len(),
        expected.len(),
        "unexpected extra findings: {:#?}",
        outcome.diagnostics
    );
}

/// The fixture findings carry the right locations.
#[test]
fn fixture_findings_have_correct_provenance() {
    let outcome = lint::run_lints(fixtures_root()).expect("fixture lint run");
    let find = |id: &str| {
        outcome
            .diagnostics
            .iter()
            .find(|d| d.lint == id)
            .unwrap_or_else(|| panic!("`{id}` missing"))
    };
    assert_eq!(find("hash-iter").path, "crates/bad/src/lib.rs");
    assert_eq!(find("wall-clock").path, "crates/bad/src/lib.rs");
    assert_eq!(find("thread-id").path, "crates/bad/src/lib.rs");
    assert_eq!(find("dbg-residue").path, "crates/bad/src/lib.rs");
    assert_eq!(find("forbid-unsafe").path, "crates/bad/src/lib.rs");
    assert_eq!(find("missing-docs").path, "crates/bad/src/lib.rs");
    // Knob names are spelled split here so this test file does not itself
    // register them as knob read sites in the real-workspace walk.
    let undocumented = format!("CONGEST_{}", "UNDOCUMENTED");
    let documented = format!("CONGEST_{}", "DOCUMENTED");
    let knob = find("env-knob-doc");
    assert_eq!(knob.path, "crates/bad/src/lib.rs");
    assert!(knob.message.contains(&undocumented), "{knob}");
    let schema = find("bench-schema");
    assert_eq!(schema.path, "BENCH_fixture.json");
    assert!(schema.message.contains("extra_key"), "{schema}");
    let stale = find("stale-allow");
    assert_eq!(stale.path, "lint.allow");
    // The live allowlist entry suppresses exactly the excused module's
    // finding.
    let suppressed: Vec<(&str, &str)> = outcome
        .suppressed
        .iter()
        .map(|(d, _)| (d.lint, d.path.as_str()))
        .collect();
    assert_eq!(
        suppressed,
        [("wall-clock", "crates/bad/src/excused.rs")],
        "{:#?}",
        outcome.suppressed
    );
    let vanished = format!("CONGEST_{}", "VANISHED");
    let row = find("stale-knob-doc");
    assert_eq!(row.path, "README.md");
    assert!(row.message.contains(&vanished), "{row}");
    assert!(!outcome.knobs.contains_key(&vanished));
    // The documented knob must be registered but not flagged.
    assert_eq!(
        outcome.knobs.get(&documented).map(|(doc, _)| *doc),
        Some(true)
    );
    assert_eq!(
        outcome.knobs.get(&undocumented).map(|(doc, _)| *doc),
        Some(false)
    );
}

/// The real workspace stays lint-clean: this makes `cargo test` itself a
/// lint gate in addition to the dedicated CI job.
#[test]
fn real_workspace_is_clean() {
    let outcome = lint::run_lints(workspace_root()).expect("workspace lint run");
    assert!(
        outcome.clean(),
        "workspace has lint findings:\n{}",
        outcome
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The machine-readable report is deterministic and carries the catalogue
/// and knob registry.
#[test]
fn report_is_deterministic_and_complete() {
    let a = lint::report_json(&lint::run_lints(fixtures_root()).expect("run"));
    let b = lint::report_json(&lint::run_lints(fixtures_root()).expect("run"));
    assert_eq!(a, b, "report must be byte-stable across runs");
    for (id, _) in lint::catalogue() {
        assert!(a.contains(&format!("\"id\": \"{id}\"")), "{id} missing");
    }
    assert!(a.contains(&format!("CONGEST_{}", "UNDOCUMENTED")));
}

/// Tokenizer unit coverage: the cases a regex-based scanner gets wrong.
#[test]
fn tokenizer_handles_comments_strings_and_lifetimes() {
    use lint::Tok;
    let src = r###"
// line comment HashMap
/* block /* nested HashSet */ still out */
const S: &str = "Instant \"quoted\" \\";
const R: &str = r#"SystemTime "raw" end"#;
fn f<'a>(x: &'a str) -> char { 'x' }
let esc = '\n';
let real = HashMap::new();
"###;
    let toks = lint::lex(src);
    let idents: Vec<&str> = toks
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    // Exactly one HashMap (the real one), zero HashSet/Instant/SystemTime.
    assert_eq!(idents.iter().filter(|s| **s == "HashMap").count(), 1);
    assert_eq!(idents.iter().filter(|s| **s == "HashSet").count(), 0);
    assert_eq!(idents.iter().filter(|s| **s == "Instant").count(), 0);
    assert_eq!(idents.iter().filter(|s| **s == "SystemTime").count(), 0);
    // String contents are decoded (escaped quote and backslash).
    let strs: Vec<&str> = toks
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    assert!(strs.contains(&"Instant \"quoted\" \\"));
    assert!(strs.contains(&"SystemTime \"raw\" end"));
    // Lifetimes vs char literals: 'a twice (decl + use), two char literals.
    let lifetimes = toks.iter().filter(|t| t.tok == Tok::Lifetime).count();
    let chars = toks.iter().filter(|t| t.tok == Tok::CharLit).count();
    assert_eq!(lifetimes, 2, "{toks:?}");
    assert_eq!(chars, 2, "{toks:?}");
}
