//! `congest-lint`: a standalone invariant linter for the symbreak workspace.
//!
//! The workspace's two central promises — *determinism* (reports are
//! bit-identical at every thread count) and *model
//! fidelity* (the CONGEST rules the reproduced theorems assume) — are
//! re-asserted by differential test suites, but nothing catches the hazards
//! at their *source*: an order-dependent `HashMap` iteration, a wall-clock
//! read on a report path, an environment knob that silently drifts out of
//! the README. This crate closes that gap with a small, fully offline
//! static-analysis pass:
//!
//! * a hand-rolled, comment/string-aware Rust **tokenizer** (no `syn`; the
//!   build environment has no registry access) that understands line and
//!   nested block comments, ordinary/raw/byte string literals, character
//!   literals vs. lifetimes, and raw identifiers;
//! * a catalogue of **deny-by-default diagnostics** (see [`catalogue`]):
//!   determinism lints (`hash-iter`, `wall-clock`, `thread-id`), hygiene
//!   lints (`forbid-unsafe`, `missing-docs`, `dbg-residue`) and doc-sync
//!   lints (`env-knob-doc`, `stale-knob-doc`, `bench-schema`);
//! * an explicit, checked-in **allowlist** (`lint.allow` at the workspace
//!   root) for the handful of justified exceptions, each carrying a
//!   one-line reason — with a `stale-allow` diagnostic so dead entries
//!   cannot linger;
//! * a machine-readable **report** ([`report_json`], emitted as
//!   `lint_report.json` by CI) carrying the lint catalogue and the registry
//!   of every `CONGEST_*`/`*_SMOKE` environment knob found in source, so
//!   future PRs can diff coverage instead of rediscovering it.
//!
//! The binary (`congest-lint`, `cargo run -p lint`) exits non-zero on any
//! non-allowlisted diagnostic and is wired up as a CI gate. The runtime
//! complement to this static pass is `symbreak_congest::audit`, which
//! checks the CONGEST model rules on live runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// Kind of one lexical token.
///
/// Only the shapes the lints inspect are distinguished; numeric literals and
/// lifetimes are kept as opaque markers so token-sequence matching stays
/// positionally honest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (raw identifiers are stored without `r#`).
    Ident(String),
    /// A string literal (ordinary, raw or byte), with simple escapes decoded.
    Str(String),
    /// A single punctuation character.
    Punct(char),
    /// A numeric literal (value not retained).
    Num,
    /// A lifetime such as `'a` (name not retained).
    Lifetime,
    /// A character or byte literal (value not retained).
    CharLit,
}

/// One token plus the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

/// Tokenizes Rust source, skipping comments and decoding string escapes.
///
/// The lexer is intentionally forgiving: malformed input never panics, it
/// just degrades into punctuation tokens. That is the right trade for a
/// linter — it must survive every file in the tree, including fixtures that
/// exist to be wrong.
pub fn lex(src: &str) -> Vec<Token> {
    let c: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    // Consumes a quoted run starting at the opening `"` (index `i`),
    // decoding the simple escapes; returns (content, next index).
    let scan_string = |start: usize, line: &mut u32| -> (String, usize) {
        let mut s = String::new();
        let mut j = start + 1;
        while j < c.len() {
            match c[j] {
                '"' => return (s, j + 1),
                '\\' if j + 1 < c.len() => {
                    match c[j + 1] {
                        'n' => s.push('\n'),
                        't' => s.push('\t'),
                        'r' => s.push('\r'),
                        '0' => s.push('\0'),
                        '\\' => s.push('\\'),
                        '"' => s.push('"'),
                        '\'' => s.push('\''),
                        '\n' => *line += 1, // line-continuation escape
                        other => {
                            // \x.., \u{..}: keep the raw spelling; no lint
                            // matches on exotic escapes.
                            s.push('\\');
                            s.push(other);
                        }
                    }
                    j += 2;
                }
                ch => {
                    if ch == '\n' {
                        *line += 1;
                    }
                    s.push(ch);
                    j += 1;
                }
            }
        }
        (s, j)
    };

    // Consumes a raw string whose `r` sits just before `start`; `start`
    // points at the first `#` or the opening quote. Returns (content, next).
    let scan_raw_string = |start: usize, line: &mut u32| -> (String, usize) {
        let mut hashes = 0usize;
        let mut j = start;
        while j < c.len() && c[j] == '#' {
            hashes += 1;
            j += 1;
        }
        if j >= c.len() || c[j] != '"' {
            return (String::new(), start); // not actually a raw string
        }
        j += 1;
        let mut s = String::new();
        while j < c.len() {
            if c[j] == '"' {
                let mut k = 0;
                while k < hashes && j + 1 + k < c.len() && c[j + 1 + k] == '#' {
                    k += 1;
                }
                if k == hashes {
                    return (s, j + 1 + hashes);
                }
            }
            if c[j] == '\n' {
                *line += 1;
            }
            s.push(c[j]);
            j += 1;
        }
        (s, j)
    };

    let is_ident_start = |ch: char| ch.is_alphabetic() || ch == '_';
    let is_ident_cont = |ch: char| ch.is_alphanumeric() || ch == '_';

    while i < c.len() {
        let ch = c[i];
        match ch {
            '\n' => {
                line += 1;
                i += 1;
            }
            ch if ch.is_whitespace() => i += 1,
            '/' if i + 1 < c.len() && c[i + 1] == '/' => {
                while i < c.len() && c[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < c.len() && c[i + 1] == '*' => {
                let mut depth = 1usize;
                i += 2;
                while i < c.len() && depth > 0 {
                    if c[i] == '/' && i + 1 < c.len() && c[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if c[i] == '*' && i + 1 < c.len() && c[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if c[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let (s, next) = scan_string(i, &mut line);
                toks.push(Token {
                    tok: Tok::Str(s),
                    line: start_line,
                });
                i = next;
            }
            '\'' => {
                // Char literal vs lifetime. An escape or a
                // single-scalar-then-quote shape is a char literal;
                // anything else is a lifetime.
                if i + 1 < c.len() && c[i + 1] == '\\' {
                    let mut j = i + 2;
                    while j < c.len() && c[j] != '\'' && c[j] != '\n' {
                        j += 1;
                    }
                    toks.push(Token {
                        tok: Tok::CharLit,
                        line,
                    });
                    i = (j + 1).min(c.len());
                } else if i + 2 < c.len() && c[i + 2] == '\'' && c[i + 1] != '\'' {
                    toks.push(Token {
                        tok: Tok::CharLit,
                        line,
                    });
                    i += 3;
                } else {
                    let mut j = i + 1;
                    while j < c.len() && is_ident_cont(c[j]) {
                        j += 1;
                    }
                    toks.push(Token {
                        tok: Tok::Lifetime,
                        line,
                    });
                    i = j.max(i + 1);
                }
            }
            'r' if i + 1 < c.len() && (c[i + 1] == '"' || c[i + 1] == '#') => {
                // Raw string r"…" / r#"…"#, or raw identifier r#ident.
                if c[i + 1] == '#' && i + 2 < c.len() && is_ident_start(c[i + 2]) {
                    let mut j = i + 2;
                    while j < c.len() && is_ident_cont(c[j]) {
                        j += 1;
                    }
                    toks.push(Token {
                        tok: Tok::Ident(c[i + 2..j].iter().collect()),
                        line,
                    });
                    i = j;
                } else {
                    let start_line = line;
                    let (s, next) = scan_raw_string(i + 1, &mut line);
                    if next == i + 1 {
                        // `r#` that was neither raw string nor raw ident.
                        toks.push(Token {
                            tok: Tok::Ident("r".into()),
                            line,
                        });
                        i += 1;
                    } else {
                        toks.push(Token {
                            tok: Tok::Str(s),
                            line: start_line,
                        });
                        i = next;
                    }
                }
            }
            'b' if i + 1 < c.len() && (c[i + 1] == '"' || c[i + 1] == '\'' || c[i + 1] == 'r') => {
                if c[i + 1] == '"' {
                    let start_line = line;
                    let (s, next) = scan_string(i + 1, &mut line);
                    toks.push(Token {
                        tok: Tok::Str(s),
                        line: start_line,
                    });
                    i = next;
                } else if c[i + 1] == '\'' {
                    let mut j = i + 2;
                    if j < c.len() && c[j] == '\\' {
                        j += 1;
                    }
                    while j < c.len() && c[j] != '\'' && c[j] != '\n' {
                        j += 1;
                    }
                    toks.push(Token {
                        tok: Tok::CharLit,
                        line,
                    });
                    i = (j + 1).min(c.len());
                } else if i + 2 < c.len() && (c[i + 2] == '"' || c[i + 2] == '#') {
                    let start_line = line;
                    let (s, next) = scan_raw_string(i + 2, &mut line);
                    if next == i + 2 {
                        toks.push(Token {
                            tok: Tok::Ident("br".into()),
                            line,
                        });
                        i += 2;
                    } else {
                        toks.push(Token {
                            tok: Tok::Str(s),
                            line: start_line,
                        });
                        i = next;
                    }
                } else {
                    // plain identifier starting with `b`
                    let mut j = i;
                    while j < c.len() && is_ident_cont(c[j]) {
                        j += 1;
                    }
                    toks.push(Token {
                        tok: Tok::Ident(c[i..j].iter().collect()),
                        line,
                    });
                    i = j;
                }
            }
            ch if is_ident_start(ch) => {
                let mut j = i;
                while j < c.len() && is_ident_cont(c[j]) {
                    j += 1;
                }
                toks.push(Token {
                    tok: Tok::Ident(c[i..j].iter().collect()),
                    line,
                });
                i = j;
            }
            ch if ch.is_ascii_digit() => {
                let mut j = i + 1;
                while j < c.len() {
                    let decimal_point = c[j] == '.'
                        && j + 1 < c.len()
                        && c[j + 1].is_ascii_digit()
                        && (j == 0 || c[j - 1] != '.');
                    if is_ident_cont(c[j]) || decimal_point {
                        j += 1;
                    } else {
                        break;
                    }
                }
                toks.push(Token {
                    tok: Tok::Num,
                    line,
                });
                i = j;
            }
            other => {
                toks.push(Token {
                    tok: Tok::Punct(other),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

// ---------------------------------------------------------------------------
// Diagnostics and catalogue
// ---------------------------------------------------------------------------

/// One lint finding, keyed by lint id and source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path relative to the linted root, with forward slashes.
    pub path: String,
    /// 1-based line number (0 for file-level findings).
    pub line: u32,
    /// Lint id from [`catalogue`].
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// The lint catalogue: `(id, what it denies and why)`.
///
/// Every id here is deny-by-default; exceptions go in `lint.allow` with a
/// one-line reason.
pub fn catalogue() -> &'static [(&'static str, &'static str)] {
    &[
        (
            "hash-iter",
            "HashMap/HashSet in simulator or report crates: iteration order is \
             nondeterministic and can leak into reports; use BTreeMap/BTreeSet or \
             sorted vectors, or allowlist a lookup-only use with a reason",
        ),
        (
            "wall-clock",
            "Instant/SystemTime outside crates/bench: wall-clock reads are \
             nondeterministic inputs to report-producing code; timing belongs in \
             the bench layer",
        ),
        (
            "thread-id",
            "thread::current (thread identity) must not influence simulator \
             output: reports are bit-identical at every thread count",
        ),
        (
            "forbid-unsafe",
            "every crate root must carry #![forbid(unsafe_code)]",
        ),
        (
            "missing-docs",
            "every crate root must carry #![warn(missing_docs)]",
        ),
        (
            "dbg-residue",
            "dbg!/todo!/unimplemented! must not ship in the workspace",
        ),
        (
            "env-knob-doc",
            "every CONGEST_*/ *_SMOKE environment knob named in source must have \
             a matching `VAR` row in the README env-knob tables",
        ),
        (
            "stale-knob-doc",
            "every README env-knob row (`CONGEST_*` / `*_SMOKE`) must name a knob \
             some scanned string literal still names: a row must not outlive its knob",
        ),
        (
            "bench-schema",
            "every committed BENCH_*.json artifact must be traceable to a bench \
             source that names it, and every key the artifact carries must appear \
             in that bench's emitted schema",
        ),
        (
            "stale-allow",
            "lint.allow entries that no longer suppress any diagnostic must be \
             removed",
        ),
    ]
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

/// One parsed `lint.allow` entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Lint id the entry suppresses.
    pub lint: String,
    /// Root-relative path the entry applies to.
    pub path: String,
    /// Mandatory one-line justification.
    pub reason: String,
    /// 1-based line in `lint.allow`.
    pub line: u32,
}

/// Parses `lint.allow`: one `lint-id path # reason` entry per line; blank
/// lines and lines starting with `#` are comments. Returns entries or a
/// parse error naming the offending line.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (head, reason) = trimmed
            .split_once('#')
            .ok_or_else(|| format!("lint.allow:{lineno}: entry is missing a `# reason`"))?;
        let reason = reason.trim();
        if reason.is_empty() {
            return Err(format!("lint.allow:{lineno}: empty reason"));
        }
        let mut parts = head.split_whitespace();
        let (Some(lint), Some(path), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!(
                "lint.allow:{lineno}: expected `lint-id path # reason`"
            ));
        };
        if !catalogue().iter().any(|(id, _)| *id == lint) {
            return Err(format!("lint.allow:{lineno}: unknown lint id `{lint}`"));
        }
        entries.push(AllowEntry {
            lint: lint.to_string(),
            path: path.to_string(),
            reason: reason.to_string(),
            line: lineno,
        });
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Directory names never descended into: build output, lint fixtures (they
/// exist to be wrong), VCS metadata.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git", ".github"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                collect_rs_files(&path, out);
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|comp| comp.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

struct SourceFile {
    rel: String,
    tokens: Vec<Token>,
}

impl SourceFile {
    /// Whether this file is a crate root (gets the hygiene-header lints).
    fn is_crate_root(&self) -> bool {
        self.rel == "src/lib.rs"
            || self.rel == "src/main.rs"
            || self.rel.ends_with("/src/lib.rs")
            || self.rel.ends_with("/src/main.rs")
    }

    /// Whether the token stream contains the inner attribute
    /// `#![outer(inner)]` — e.g. `forbid(unsafe_code)`.
    fn has_inner_attr(&self, outer: &str, inner: &str) -> bool {
        let t = &self.tokens;
        (0..t.len().saturating_sub(7)).any(|k| {
            matches!(&t[k].tok, Tok::Punct('#'))
                && matches!(&t[k + 1].tok, Tok::Punct('!'))
                && matches!(&t[k + 2].tok, Tok::Punct('['))
                && matches!(&t[k + 3].tok, Tok::Ident(id) if id == outer)
                && matches!(&t[k + 4].tok, Tok::Punct('('))
                && matches!(&t[k + 5].tok, Tok::Ident(id) if id == inner)
                && matches!(&t[k + 6].tok, Tok::Punct(')'))
                && matches!(&t[k + 7].tok, Tok::Punct(']'))
        })
    }
}

// ---------------------------------------------------------------------------
// Lint passes
// ---------------------------------------------------------------------------

/// Whether a string literal names an environment knob the README must
/// document: `CONGEST_<X>` or `<X>_SMOKE`, all `[A-Z0-9_]`.
fn is_env_knob(s: &str) -> bool {
    if s.is_empty()
        || !s
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    {
        return false;
    }
    let congest = s
        .strip_prefix("CONGEST_")
        .is_some_and(|rest| !rest.is_empty());
    let smoke = s
        .strip_suffix("_SMOKE")
        .is_some_and(|rest| rest.chars().next().is_some_and(|c| c.is_ascii_uppercase()));
    congest || smoke
}

/// Extracts `"key":`-shaped object keys from one JSON-lines artifact.
fn json_line_keys(text: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == '"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != '"' {
                if bytes[j] == '\\' {
                    j += 1;
                }
                j += 1;
            }
            let content: String = bytes[start..j.min(bytes.len())].iter().collect();
            let mut k = j + 1;
            while k < bytes.len() && bytes[k].is_whitespace() {
                k += 1;
            }
            if k < bytes.len() && bytes[k] == ':' {
                keys.insert(content);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    keys
}

/// Everything one lint run learned, beyond pass/fail.
#[derive(Debug)]
pub struct LintOutcome {
    /// Findings that survived the allowlist, sorted by (path, line, lint).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by `lint.allow`.
    pub suppressed: Vec<(Diagnostic, u32)>,
    /// Parsed allowlist entries.
    pub allowlist: Vec<AllowEntry>,
    /// Env-knob registry: knob name → (documented in README, first site).
    pub knobs: BTreeMap<String, (bool, String)>,
    /// Number of `.rs` files tokenized.
    pub files_scanned: usize,
}

impl LintOutcome {
    /// True when nothing non-allowlisted fired.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs every lint over the workspace rooted at `root`.
///
/// The walk covers `crates/`, `vendor/` and the root `src/`; README.md,
/// `BENCH_*.json` and `lint.allow` are read from `root` itself. Fixture
/// trees (any directory named `fixtures`) and build output are skipped, so
/// the linter can host its own self-test corpus without flagging it.
pub fn run_lints(root: &Path) -> Result<LintOutcome, String> {
    let mut files = Vec::new();
    for sub in ["crates", "vendor", "src"] {
        collect_rs_files(&root.join(sub), &mut files);
    }
    if files.is_empty() {
        return Err(format!(
            "no .rs files under {} — is this a workspace root?",
            root.display()
        ));
    }
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|path| {
            let text =
                fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
            Ok(SourceFile {
                rel: rel_path(root, path),
                tokens: lex(&text),
            })
        })
        .collect::<Result<_, String>>()?;

    let readme = fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut knobs: BTreeMap<String, (bool, String)> = BTreeMap::new();
    let mut knob_seen: BTreeSet<(String, String)> = BTreeSet::new();

    for file in &sources {
        lint_tokens(file, &mut raw);
        lint_crate_root(file, &mut raw);
        for t in &file.tokens {
            if let Tok::Str(s) = &t.tok {
                if is_env_knob(s) {
                    let documented = readme.contains(&format!("`{s}`"));
                    knobs
                        .entry(s.clone())
                        .or_insert_with(|| (documented, format!("{}:{}", file.rel, t.line)));
                    // One finding per (knob, file): repeated mentions in the
                    // same file add noise, not information.
                    if !documented && knob_seen.insert((file.rel.clone(), s.clone())) {
                        raw.push(Diagnostic {
                            path: file.rel.clone(),
                            line: t.line,
                            lint: "env-knob-doc",
                            message: format!(
                                "environment knob `{s}` has no `{s}` row in README.md"
                            ),
                        });
                    }
                }
            }
        }
    }
    lint_stale_knob_rows(&readme, &knobs, &mut raw);
    lint_bench_schemas(root, &sources, &mut raw);
    raw.sort();
    raw.dedup(); // two tokens on one line are one finding

    // Apply the allowlist.
    let allow_text = fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
    let allowlist = parse_allowlist(&allow_text)?;
    let mut used = vec![false; allowlist.len()];
    let mut diagnostics = Vec::new();
    let mut suppressed = Vec::new();
    for d in raw {
        match allowlist
            .iter()
            .position(|e| e.lint == d.lint && e.path == d.path)
        {
            Some(k) => {
                used[k] = true;
                let entry_line = allowlist[k].line;
                suppressed.push((d, entry_line));
            }
            None => diagnostics.push(d),
        }
    }
    for (k, entry) in allowlist.iter().enumerate() {
        if !used[k] {
            diagnostics.push(Diagnostic {
                path: "lint.allow".into(),
                line: entry.line,
                lint: "stale-allow",
                message: format!(
                    "entry `{} {}` suppresses nothing — remove it",
                    entry.lint, entry.path
                ),
            });
        }
    }
    diagnostics.sort();

    Ok(LintOutcome {
        diagnostics,
        suppressed,
        allowlist,
        knobs,
        files_scanned: sources.len(),
    })
}

/// Token-stream lints: `hash-iter`, `wall-clock`, `thread-id`,
/// `dbg-residue`.
fn lint_tokens(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let in_bench_layer = file.rel.starts_with("crates/bench/");
    let t = &file.tokens;
    for (k, tok) in t.iter().enumerate() {
        let Tok::Ident(id) = &tok.tok else { continue };
        match id.as_str() {
            "HashMap" | "HashSet" => out.push(Diagnostic {
                path: file.rel.clone(),
                line: tok.line,
                lint: "hash-iter",
                message: format!("`{id}` has nondeterministic iteration order"),
            }),
            "Instant" | "SystemTime" if !in_bench_layer => out.push(Diagnostic {
                path: file.rel.clone(),
                line: tok.line,
                lint: "wall-clock",
                message: format!("`{id}` wall-clock read outside crates/bench"),
            }),
            "thread"
                if matches!(t.get(k + 1).map(|x| &x.tok), Some(Tok::Punct(':')))
                    && matches!(t.get(k + 2).map(|x| &x.tok), Some(Tok::Punct(':')))
                    && matches!(
                        t.get(k + 3).map(|x| &x.tok),
                        Some(Tok::Ident(next)) if next == "current"
                    ) =>
            {
                out.push(Diagnostic {
                    path: file.rel.clone(),
                    line: tok.line,
                    lint: "thread-id",
                    message: "`thread::current` must not influence outputs".into(),
                });
            }
            "dbg" | "todo" | "unimplemented"
                if matches!(t.get(k + 1).map(|x| &x.tok), Some(Tok::Punct('!'))) =>
            {
                out.push(Diagnostic {
                    path: file.rel.clone(),
                    line: tok.line,
                    lint: "dbg-residue",
                    message: format!("`{id}!` must not ship"),
                });
            }
            _ => {}
        }
    }
}

/// Hygiene-header lints on crate roots.
fn lint_crate_root(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.is_crate_root() {
        return;
    }
    if !file.has_inner_attr("forbid", "unsafe_code") {
        out.push(Diagnostic {
            path: file.rel.clone(),
            line: 1,
            lint: "forbid-unsafe",
            message: "crate root lacks #![forbid(unsafe_code)]".into(),
        });
    }
    if !file.has_inner_attr("warn", "missing_docs") {
        out.push(Diagnostic {
            path: file.rel.clone(),
            line: 1,
            lint: "missing-docs",
            message: "crate root lacks #![warn(missing_docs)]".into(),
        });
    }
}

/// `stale-knob-doc`: one finding per README env-knob row (a table row whose
/// first cell is a `` `CONGEST_*` `` or `` `*_SMOKE` `` name) whose variable
/// no scanned string literal names.
fn lint_stale_knob_rows(
    readme: &str,
    knobs: &BTreeMap<String, (bool, String)>,
    out: &mut Vec<Diagnostic>,
) {
    for (i, line) in readme.lines().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("| `") else {
            continue;
        };
        let Some((var, _)) = rest.split_once('`') else {
            continue;
        };
        if is_env_knob(var) && !knobs.contains_key(var) {
            out.push(Diagnostic {
                path: "README.md".into(),
                line: i as u32 + 1,
                lint: "stale-knob-doc",
                message: format!("README row documents `{var}`, which no source names"),
            });
        }
    }
}

/// `bench-schema`: every committed `BENCH_*.json` must be named by a bench
/// source whose emitted schema covers all of the artifact's keys.
fn lint_bench_schemas(root: &Path, sources: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    let mut artifacts: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    artifacts.sort();
    for artifact in artifacts {
        let name = artifact
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        // Benches that emit this artifact: any source whose string literals
        // mention the file name (the emit site is a path literal).
        let emitters: Vec<&SourceFile> = sources
            .iter()
            .filter(|f| {
                f.tokens
                    .iter()
                    .any(|t| matches!(&t.tok, Tok::Str(s) if s.contains(&name)))
            })
            .collect();
        if emitters.is_empty() {
            out.push(Diagnostic {
                path: name.clone(),
                line: 0,
                lint: "bench-schema",
                message: "artifact is not named by any bench source — orphaned?".into(),
            });
            continue;
        }
        // The schema pool is every string literal in the emitting *crates*,
        // not just the naming files: benches routinely split the path
        // literal (a thin `benches/*.rs` driver) from the row formatting
        // (a `src/` module).
        let crate_prefixes: BTreeSet<String> = emitters
            .iter()
            .map(|f| {
                let parts: Vec<&str> = f.rel.split('/').collect();
                if parts.len() >= 2 {
                    format!("{}/{}/", parts[0], parts[1])
                } else {
                    f.rel.clone()
                }
            })
            .collect();
        let schema: String = sources
            .iter()
            .filter(|f| crate_prefixes.iter().any(|p| f.rel.starts_with(p.as_str())))
            .flat_map(|f| f.tokens.iter())
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join("\n");
        let text = fs::read_to_string(&artifact).unwrap_or_default();
        for key in json_line_keys(&text) {
            if !schema.contains(&format!("\"{key}\"")) {
                out.push(Diagnostic {
                    path: name.clone(),
                    line: 0,
                    lint: "bench-schema",
                    message: format!(
                        "artifact key \"{key}\" does not appear in the emitting bench's \
                         schema ({})",
                        emitters
                            .iter()
                            .map(|f| f.rel.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Machine-readable report
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable `lint_report.json`: the lint catalogue, the
/// env-knob registry, the allowlist in force and the diagnostic count.
/// Deterministic (sorted, no timestamps) so CI can diff it across PRs.
pub fn report_json(outcome: &LintOutcome) -> String {
    let mut s = String::from("{\n  \"catalogue\": [\n");
    let cat = catalogue();
    for (k, (id, desc)) in cat.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"description\": \"{}\"}}{}\n",
            json_escape(id),
            json_escape(desc),
            if k + 1 < cat.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"knobs\": [\n");
    let knobs: Vec<_> = outcome.knobs.iter().collect();
    for (k, (var, (documented, site))) in knobs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"var\": \"{}\", \"documented\": {}, \"first_site\": \"{}\"}}{}\n",
            json_escape(var),
            documented,
            json_escape(site),
            if k + 1 < knobs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"allowlist\": [\n");
    for (k, e) in outcome.allowlist.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"lint\": \"{}\", \"path\": \"{}\", \"reason\": \"{}\"}}{}\n",
            json_escape(&e.lint),
            json_escape(&e.path),
            json_escape(&e.reason),
            if k + 1 < outcome.allowlist.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"diagnostics\": {}\n}}\n",
        outcome.files_scanned,
        outcome.suppressed.len(),
        outcome.diagnostics.len()
    ));
    s
}
