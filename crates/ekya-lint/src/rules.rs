//! The five determinism rules, matched against the stripped token
//! stream from [`crate::lexer`].
//!
//! Each rule is grounded in a bug this repository has actually had (or
//! structurally invites — see `CHANGES.md` PR 5 and the operator guide's
//! "Determinism invariants" section):
//!
//! | rule | invariant protected |
//! |------|---------------------|
//! | `unordered-iter` | serialized/fingerprinted output must not depend on hash-map iteration order |
//! | `ambient-env` | every env read goes through `Knobs::from_env` / the knob module, so `plan.json` pinning covers it |
//! | `wallclock-in-cell` | wall-clock time never leaks into deterministic report files |
//! | `ambient-rng` | all randomness derives from a mixed cell seed |
//! | `silent-default-metric` | a missing cell metric is a hard error, never a silent `0.0` row |

use crate::lexer::{scan, Scan, Token};

/// All rule names, in diagnostic order.
pub const RULES: [&str; 5] =
    ["unordered-iter", "ambient-env", "wallclock-in-cell", "ambient-rng", "silent-default-metric"];

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Lint configuration: which whole files are exempt from which rules.
///
/// The allowlist names the *sanctioned homes* of each effect — the one
/// module where env reads, wall clocks, etc. are supposed to live — so
/// the rules stay loud everywhere else. Point fixes use inline
/// `// ekya-lint: allow(<rule>)` comments instead.
#[derive(Debug, Clone)]
pub struct Config {
    /// `(rule, workspace-relative path)` pairs exempted wholesale.
    pub path_allow: Vec<(&'static str, &'static str)>,
}

impl Config {
    /// No path exemptions at all — used by the fixture tests so every
    /// rule fires on its fixture regardless of the fixture's pretend
    /// path.
    pub fn bare() -> Self {
        Self { path_allow: Vec::new() }
    }

    fn path_allowed(&self, rule: &str, rel_path: &str) -> bool {
        self.path_allow.iter().any(|(r, p)| *r == rule && *p == rel_path)
    }
}

impl Default for Config {
    /// The workspace allowlist. Every entry is a sanctioned module with
    /// the reason recorded here, where a reviewer of the allowlist (not
    /// the module) needs it.
    fn default() -> Self {
        Self {
            path_allow: vec![
                // The single sanctioned env surface: Knobs::from_env
                // reads the documented EKYA_* grid knobs, and the knob
                // module houses the non-grid tuning knobs. Both are
                // exactly what plan.json pins.
                ("ambient-env", "crates/ekya-bench/src/harness.rs"),
                ("ambient-env", "crates/ekya-bench/src/knob.rs"),
                // results_dir() resolves EKYA_RESULTS_DIR/CARGO_MANIFEST_DIR
                // to decide *where* reports go — never what's in them.
                ("ambient-env", "crates/ekya-bench/src/lib.rs"),
                // RunStats measures harness wall time for the bins'
                // stats footer; it is reported next to, never inside,
                // cell results.
                ("wallclock-in-cell", "crates/ekya-bench/src/harness.rs"),
                // The telemetry wall-clock plane: `wall_span` /
                // `wall_gauge_max` live here by design, aggregate into
                // the `.wall.json` sidecar only, and are structurally
                // unable to reach the fingerprinted logical-plane
                // trace. This is the *one* sanctioned home for timing
                // in instrumented hot paths.
                ("wallclock-in-cell", "crates/ekya-telemetry/src/timing.rs"),
                // Orchestrator heartbeat ages and retry backoff are
                // wall-clock by nature and never reach report files.
                ("wallclock-in-cell", "crates/ekya-bench/src/orchestrate/retry.rs"),
                // Bench mains time whole passes for human-readable
                // stderr output, not for cell content.
                ("wallclock-in-cell", "crates/ekya-bench/src/bin/scheduler_runtime.rs"),
                ("wallclock-in-cell", "crates/ekya-bench/src/bin/fig10_delta.rs"),
                // ekya_loadgen times the whole fleet run for its
                // stream-windows/s throughput line; the wall-clock
                // numbers go to loadgen_metrics.json, never into the
                // deterministic serve_status.json snapshot.
                ("wallclock-in-cell", "crates/ekya-bench/src/bin/ekya_loadgen.rs"),
                // ekya_grid's status table renders Option<String> fields
                // ("-" for absent) — display formatting, not metrics.
                ("silent-default-metric", "crates/ekya-bench/src/bin/ekya_grid.rs"),
            ],
        }
    }
}

/// Lints one file's source text. `rel_path` is the workspace-relative
/// path (forward slashes) — rules use it for path allowlisting and for
/// scoping (`silent-default-metric` only applies to `src/bin/` files).
pub fn lint_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    let s = scan(src);
    let use_lines = use_statement_lines(&s.tokens);
    let mut out = Vec::new();

    if !cfg.path_allowed("unordered-iter", rel_path) && is_serialization_sensitive(&s) {
        rule_unordered_iter(rel_path, &s, &use_lines, &mut out);
    }
    if !cfg.path_allowed("ambient-env", rel_path) {
        rule_ambient_env(rel_path, &s, &mut out);
    }
    if !cfg.path_allowed("wallclock-in-cell", rel_path) {
        rule_wallclock(rel_path, &s, &mut out);
    }
    if !cfg.path_allowed("ambient-rng", rel_path) {
        rule_ambient_rng(rel_path, &s, &mut out);
    }
    if !cfg.path_allowed("silent-default-metric", rel_path) && rel_path.contains("/bin/") {
        rule_silent_default(rel_path, &s, &mut out);
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    out
}

/// A file is serialization-sensitive when its *code* (not comments or
/// strings) mentions serde derives, JSON emission, or fingerprinting —
/// i.e. when iteration order in it can reach a report file or a
/// resume fingerprint.
fn is_serialization_sensitive(s: &Scan) -> bool {
    const MARKERS: [&str; 6] =
        ["Serialize", "serde_json", "fingerprint", "write_json", "save_json", "to_json"];
    s.tokens.iter().any(|t| !s.in_test_code(t.line) && MARKERS.iter().any(|m| t.text == *m))
}

/// Lines whose first token opens a `use` declaration — importing
/// `HashMap` is fine; iterating one in a sensitive file is not.
fn use_statement_lines(tokens: &[Token]) -> Vec<usize> {
    let mut lines = Vec::new();
    let mut prev_line = 0usize;
    let mut prev_was_pub = false;
    for t in tokens {
        let first_on_line = t.line != prev_line;
        if first_on_line || prev_was_pub {
            if t.text == "use" {
                lines.push(t.line);
            }
            prev_was_pub = first_on_line && t.text == "pub";
        } else {
            prev_was_pub = false;
        }
        prev_line = t.line;
    }
    lines
}

/// Emits `v` unless the line is inside test code or inline-allowed.
fn push(
    rule: &'static str,
    path: &str,
    line: usize,
    msg: String,
    s: &Scan,
    out: &mut Vec<Violation>,
) {
    if s.in_test_code(line) || s.allowed(line, rule) {
        return;
    }
    out.push(Violation { rule, path: path.to_string(), line, message: msg });
}

fn rule_unordered_iter(path: &str, s: &Scan, use_lines: &[usize], out: &mut Vec<Violation>) {
    for t in &s.tokens {
        let map = match t.text.as_str() {
            "HashMap" => "HashMap",
            "HashSet" => "HashSet",
            _ => continue,
        };
        if use_lines.contains(&t.line) {
            continue;
        }
        push(
            "unordered-iter",
            path,
            t.line,
            format!(
                "{map} in a file that serializes/fingerprints: iteration order is \
                 nondeterministic and can leak into report bytes — use a BTree \
                 collection or sort before iterating"
            ),
            s,
            out,
        );
    }
}

fn rule_ambient_env(path: &str, s: &Scan, out: &mut Vec<Violation>) {
    for w in s.tokens.windows(3) {
        if w[0].text == "env"
            && w[1].text == "::"
            && matches!(w[2].text.as_str(), "var" | "var_os" | "vars")
        {
            push(
                "ambient-env",
                path,
                w[0].line,
                "ambient env read bypasses plan.json pinning — route it through \
                 Knobs::from_env or the ekya-bench knob module"
                    .to_string(),
                s,
                out,
            );
        }
    }
}

fn rule_wallclock(path: &str, s: &Scan, out: &mut Vec<Violation>) {
    for w in s.tokens.windows(3) {
        if matches!(w[0].text.as_str(), "Instant" | "SystemTime")
            && w[1].text == "::"
            && w[2].text == "now"
        {
            push(
                "wallclock-in-cell",
                path,
                w[0].line,
                format!(
                    "{}::now outside the sanctioned timing modules — wall-clock must \
                     not be observable from cell evaluation",
                    w[0].text
                ),
                s,
                out,
            );
        }
    }
}

fn rule_ambient_rng(path: &str, s: &Scan, out: &mut Vec<Violation>) {
    for (i, t) in s.tokens.iter().enumerate() {
        let ambient = match t.text.as_str() {
            "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng" => true,
            "random" => {
                // `rand::random()` — bare `random` idents elsewhere are fine.
                i >= 2 && s.tokens[i - 1].text == "::" && s.tokens[i - 2].text == "rand"
            }
            _ => false,
        };
        if ambient {
            push(
                "ambient-rng",
                path,
                t.line,
                format!(
                    "`{}` draws OS/thread entropy — derive every RNG from a mixed \
                     cell seed (e.g. StdRng::seed_from_u64(cell_seed(..)))",
                    t.text
                ),
                s,
                out,
            );
        }
    }
}

fn rule_silent_default(path: &str, s: &Scan, out: &mut Vec<Violation>) {
    for (i, w) in s.tokens.windows(3).enumerate() {
        if w[0].text != "." {
            continue;
        }
        let zero_default = match w[1].text.as_str() {
            "unwrap_or_default" => w[2].text == "(",
            "unwrap_or" => {
                w[2].text == "("
                    && s.tokens.get(i + 3).is_some_and(|t| is_zero_literal(&t.text))
                    && s.tokens.get(i + 4).is_some_and(|t| t.text == ")")
            }
            _ => false,
        };
        if zero_default {
            push(
                "silent-default-metric",
                path,
                w[1].line,
                format!(
                    "`.{}(..)` in a report bin silently fabricates a value for a \
                     missing cell metric — use expect(..) so a poisoned cell fails loudly",
                    w[1].text
                ),
                s,
                out,
            );
        }
    }
}

/// Is this numeric token literally zero (`0`, `0.0`, `0.`, `0usize`,
/// `0.0_f64`, …)?
fn is_zero_literal(text: &str) -> bool {
    let mut digits = String::new();
    for c in text.chars() {
        match c {
            '0'..='9' | '.' => digits.push(c),
            '_' => {}
            // First suffix letter ends the numeric part (`0f64`).
            _ => break,
        }
    }
    !digits.is_empty() && digits.chars().all(|c| c == '0' || c == '.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src, &Config::bare()).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn zero_literals() {
        for z in ["0", "0.0", "0.", "0usize", "0.0_f64", "0_0"] {
            assert!(is_zero_literal(z), "{z}");
        }
        for nz in ["1", "0.5", "10", "1.0", "x"] {
            assert!(!is_zero_literal(nz), "{nz}");
        }
    }

    #[test]
    fn unordered_iter_needs_sensitivity() {
        let body = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        assert!(lint("crates/x/src/a.rs", body).is_empty(), "no serde marker, no violation");
        let sensitive = format!("#[derive(Serialize)] struct S;\n{body}");
        assert_eq!(lint("crates/x/src/a.rs", &sensitive), vec!["unordered-iter"]);
    }

    #[test]
    fn unordered_iter_skips_use_lines() {
        let src = "use std::collections::HashMap;\n#[derive(Serialize)] struct S;\n";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn ambient_env_fires_on_any_env_var_path() {
        assert_eq!(lint("crates/x/src/a.rs", "let v = std::env::var(\"X\");"), vec!["ambient-env"]);
        assert_eq!(lint("crates/x/src/a.rs", "for (k, v) in env::vars() {}"), vec!["ambient-env"]);
        assert!(lint("crates/x/src/a.rs", "let p = env!(\"CARGO_MANIFEST_DIR\");").is_empty());
    }

    #[test]
    fn wallclock_fires_on_both_clocks() {
        assert_eq!(lint("crates/x/src/a.rs", "let t = Instant::now();"), vec!["wallclock-in-cell"]);
        assert_eq!(
            lint("crates/x/src/a.rs", "let t = std::time::SystemTime::now();"),
            vec!["wallclock-in-cell"]
        );
    }

    #[test]
    fn ambient_rng_variants() {
        for src in [
            "let mut r = rand::thread_rng();",
            "let r = StdRng::from_entropy();",
            "let r: f64 = rand::random();",
            "let r = OsRng;",
        ] {
            assert_eq!(lint("crates/x/src/a.rs", src), vec!["ambient-rng"], "{src}");
        }
        assert!(lint("crates/x/src/a.rs", "let r = StdRng::seed_from_u64(seed);").is_empty());
        assert!(lint("crates/x/src/a.rs", "let random = pick(xs);").is_empty(), "bare ident ok");
    }

    #[test]
    fn silent_default_only_in_bins_and_only_zeroish() {
        let zero = "fn main() { let a = acc.unwrap_or(0.0); }";
        assert_eq!(lint("crates/x/src/bin/t.rs", zero), vec!["silent-default-metric"]);
        assert!(lint("crates/x/src/lib.rs", zero).is_empty(), "library code out of scope");
        let default = "fn main() { let a = acc.unwrap_or_default(); }";
        assert_eq!(lint("crates/x/src/bin/t.rs", default), vec!["silent-default-metric"]);
        let nonzero = "fn main() { let a = acc.unwrap_or(1.0); }";
        assert!(lint("crates/x/src/bin/t.rs", nonzero).is_empty(), "non-zero fallback is a choice");
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[derive(Serialize)] struct S;\n#[cfg(test)]\nmod tests {\n\
                   fn f() { let m = HashMap::new(); let t = Instant::now(); }\n}\n";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn inline_allow_suppresses_exactly_its_rule() {
        let src = "#[derive(Serialize)] struct S;\n\
                   // ekya-lint: allow(unordered-iter)\n\
                   fn f() { let m = HashMap::new(); }\n\
                   fn g() { let t = Instant::now(); } // ekya-lint: allow(wallclock-in-cell)\n\
                   fn h() { let t = Instant::now(); }\n";
        assert_eq!(lint("crates/x/src/a.rs", src), vec!["wallclock-in-cell"]);
    }

    #[test]
    fn path_allowlist_exempts_whole_file() {
        let cfg = Config { path_allow: vec![("wallclock-in-cell", "crates/x/src/a.rs")] };
        let src = "fn f() { let t = Instant::now(); }";
        assert!(lint_source("crates/x/src/a.rs", src, &cfg).is_empty());
        assert_eq!(lint_source("crates/x/src/b.rs", src, &cfg).len(), 1);
    }

    #[test]
    fn violations_are_line_sorted_and_deduped() {
        let src = "fn f() { let a = Instant::now(); let b = Instant::now(); }\n\
                   fn g() { let v = std::env::var(\"X\"); }\n";
        let vs = lint_source("crates/x/src/a.rs", src, &Config::bare());
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert_eq!(vs[0].line, 1);
        assert_eq!(vs[1].line, 2);
    }
}
