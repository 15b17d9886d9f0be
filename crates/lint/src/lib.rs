//! `mlgp-lint` — the two rules of the determinism & safety contract
//! (DESIGN.md §10–§11) that clippy cannot express.
//!
//! The workspace promises **bit-identical results at any thread count**.
//! rustc and clippy enforce most of that contract through
//! `[workspace.lints]` and `crates/clippy.toml` (hash containers, the wall
//! clock, `unsafe`, library panics, reasonless suppressions). This crate
//! checks the two rules that need to see comments or an accumulator's
//! surroundings, with `file:line` diagnostics:
//!
//! | rule | checks |
//! |------|--------|
//! | `D2` | no raw floating-point `+=` / `.sum()` accumulation in kernel-crate (`part`, `graph`, `linalg`, `order`, `spectral`) modules that contain parallel kernels — reductions must route through `vecops::chunked_reduce` (the `vecops.rs` implementation itself is allowlisted) |
//! | `P2` | every `Ordering::Relaxed` must carry a `// RELAXED:` justification |
//!
//! Suppression syntax (a suppression without its reason does not
//! suppress):
//!
//! ```text
//! // RELAXED: <why relaxed ordering is sufficient>      (covers P2)
//! // LINT: allow(float_accum, <reason>)                 (covers D2)
//! ```
//!
//! An annotation covers every violating token on its own line (trailing
//! comment) or, written as a standalone comment line, every token on the
//! lines of the *contiguous* code block directly beneath it (a blank line
//! ends the covered block). The scanner is comment- and
//! string-aware: tokens inside string literals, char literals, and
//! comments never fire, and `#[cfg(test)]` modules / `#[test]` functions
//! are exempt from `D2`.

use std::fmt;
use std::path::{Path, PathBuf};

mod scanner;
pub use scanner::{strip_source, Line};

/// Crates whose kernels carry the determinism contract (D2 scope).
pub const KERNEL_CRATES: [&str; 5] = ["part", "graph", "linalg", "order", "spectral"];

/// Files (by trailing path) exempt from D2: the deterministic reduction
/// primitives themselves.
pub const FLOAT_ACCUM_ALLOWLIST: [&str; 1] = ["linalg/src/vecops.rs"];

/// Rule identifiers, as printed in diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Raw float accumulation in a parallel-kernel module.
    D2FloatAccum,
    /// `Ordering::Relaxed` without a `// RELAXED:` justification.
    P2RelaxedJustify,
}

impl Rule {
    /// Short code used in diagnostics and fixture assertions.
    pub fn code(self) -> &'static str {
        match self {
            Rule::D2FloatAccum => "D2",
            Rule::P2RelaxedJustify => "P2",
        }
    }

    /// All checkable rules, in report order.
    pub fn all() -> [Rule; 2] {
        [Rule::D2FloatAccum, Rule::P2RelaxedJustify]
    }
}

/// One finding: a rule violated at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path as reported (relative to the scan root when possible).
    pub file: PathBuf,
    /// 1-indexed line.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.code(),
            self.message
        )
    }
}

/// How a file participates in the rule set, derived from its path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// File name contains `test`: a test-only module file (D2 exempt).
    pub is_test_file: bool,
    /// Under `crates/<name>/src` for a [`KERNEL_CRATES`] member (D2 scope).
    pub is_kernel: bool,
    /// Listed in [`FLOAT_ACCUM_ALLOWLIST`] (D2 exempt).
    pub float_accum_allowed: bool,
}

impl FileClass {
    /// Classify a path of the form `…/crates/<name>/src/<rest>.rs`.
    pub fn from_path(path: &Path) -> FileClass {
        let unix: String = path
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let crate_name = unix
            .rsplit_once("/src/")
            .map(|(pre, _)| pre)
            .or_else(|| unix.rsplit_once("/src").map(|(pre, _)| pre))
            .and_then(|pre| pre.rsplit('/').next())
            .unwrap_or("");
        let file_name = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
        FileClass {
            is_test_file: file_name.contains("test"),
            is_kernel: KERNEL_CRATES.contains(&crate_name),
            float_accum_allowed: FLOAT_ACCUM_ALLOWLIST
                .iter()
                .any(|suffix| unix.ends_with(suffix)),
        }
    }
}

/// Suppressions parsed from one line's comment text. A marker without
/// its reason does not count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Annotations {
    /// `// RELAXED: <justification>` (P2).
    relaxed: bool,
    /// `// LINT: allow(float_accum, <reason>)` (D2).
    float_accum: bool,
}

impl Annotations {
    fn parse(comment: &str) -> Annotations {
        let relaxed = find_marker(comment, "RELAXED:").is_some_and(|rest| !rest.trim().is_empty());
        let float_accum = find_marker(comment, "LINT:")
            .and_then(|rest| rest.split_once("allow("))
            .and_then(|(_, body)| body.split_once(')'))
            .and_then(|(inner, _)| inner.split_once(','))
            .is_some_and(|(key, reason)| key.trim() == "float_accum" && !reason.trim().is_empty());
        Annotations {
            relaxed,
            float_accum,
        }
    }

    fn merge(&mut self, other: Annotations) {
        self.relaxed |= other.relaxed;
        self.float_accum |= other.float_accum;
    }
}

/// Find `marker` in `text` and return the remainder after it, requiring
/// the char before the marker to be a non-ident boundary.
fn find_marker<'t>(text: &'t str, marker: &str) -> Option<&'t str> {
    let mut from = 0;
    while let Some(pos) = text[from..].find(marker) {
        let at = from + pos;
        let boundary = at == 0
            || !text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return Some(&text[at + marker.len()..]);
        }
        from = at + marker.len();
    }
    None
}

/// True when `token` occurs in `code` delimited by non-identifier chars.
fn has_word(code: &str, token: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let end = at + token.len();
        let left_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = at + token.len().max(1);
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True when `code` contains a floating-point literal (`2.5`, `1e-12`).
/// Tuple indexing (`t.0`), ranges (`0..n`), and integer literals do not
/// count; hex literals are skipped via the boundary check.
fn has_float_literal(code: &str) -> bool {
    let b = code.as_bytes();
    let n = b.len();
    for i in 0..n {
        if !b[i].is_ascii_digit() {
            continue;
        }
        // Must start a numeric run: previous char not ident or '.'.
        if i > 0 && (is_ident_byte(b[i - 1]) || b[i - 1] == b'.') {
            continue;
        }
        // Walk the digit run.
        let mut j = i;
        while j < n && (b[j].is_ascii_digit() || b[j] == b'_') {
            j += 1;
        }
        if j < n && b[j] == b'.' && j + 1 < n && b[j + 1].is_ascii_digit() {
            return true; // `12.5`
        }
        if j < n && (b[j] == b'e' || b[j] == b'E') {
            let mut k = j + 1;
            if k < n && (b[k] == b'-' || b[k] == b'+') {
                k += 1;
            }
            if k < n
                && b[k].is_ascii_digit()
                && (k + 1 >= n || !is_ident_byte(b[k + 1]) || b[k + 1].is_ascii_digit())
            {
                return true; // `1e-12`
            }
        }
    }
    false
}

/// Deterministic-reduction entry points whose argument lists are exempt
/// from D2 (the sanctioned intra-chunk serial accumulation pattern).
const REDUCE_SINKS: [&str; 3] = ["chunked_reduce", "chunk_partials", "pairwise_sum"];

/// Scan one file's source text under the given classification.
pub fn scan_source(source: &str, class: &FileClass, file: &Path) -> Vec<Diagnostic> {
    let lines = strip_source(source);
    let mut out = Vec::new();

    // Per-line annotations, then effective coverage: a standalone comment
    // line extends its annotations over the contiguous code block beneath.
    let mut coverage: Vec<Annotations> = vec![Annotations::default(); lines.len()];
    let mut carried = Annotations::default();
    for (i, line) in lines.iter().enumerate() {
        let own = Annotations::parse(&line.comment);
        let standalone = line.code.trim().is_empty() && !line.comment.trim().is_empty();
        let blank = line.code.trim().is_empty() && line.comment.trim().is_empty();
        if standalone {
            carried.merge(own);
        } else if blank {
            carried = Annotations::default();
        }
        coverage[i] = own;
        if !standalone {
            coverage[i].merge(carried);
        }
    }
    // Region tracking: `#[cfg(test)]` / `#[test]` scopes (brace-balanced)
    // and `chunked_reduce(...)` argument spans (paren-balanced).
    let mut in_test_region = vec![false; lines.len()];
    let mut in_reduce_args = vec![false; lines.len()];
    {
        let mut brace_depth: i64 = 0;
        let mut test_until_depth: Option<i64> = None;
        let mut pending_test_attr = false;
        let mut reduce_until_depth: Option<i64> = None;
        let mut paren_depth: i64 = 0;
        for (i, line) in lines.iter().enumerate() {
            let code = line.code.as_str();
            if test_until_depth.is_some() {
                in_test_region[i] = true;
            }
            if reduce_until_depth.is_some() {
                in_reduce_args[i] = true;
            }
            if code.contains("#[cfg(test)]") || code.contains("#[test]") {
                pending_test_attr = true;
                in_test_region[i] = true;
            }
            for sink in REDUCE_SINKS {
                if reduce_until_depth.is_none() && has_word(code, sink) {
                    // Exempt from the call token to its closing paren.
                    in_reduce_args[i] = true;
                    let before: i64 = code[..code.find(sink).unwrap_or(0)]
                        .bytes()
                        .map(|b| match b {
                            b'(' => 1,
                            b')' => -1,
                            _ => 0,
                        })
                        .sum();
                    reduce_until_depth = Some(paren_depth + before);
                }
            }
            for b in code.bytes() {
                match b {
                    b'{' => {
                        brace_depth += 1;
                        if pending_test_attr && test_until_depth.is_none() {
                            test_until_depth = Some(brace_depth - 1);
                            pending_test_attr = false;
                            in_test_region[i] = true;
                        }
                    }
                    b'}' => {
                        brace_depth -= 1;
                        if test_until_depth.is_some_and(|d| brace_depth <= d) {
                            test_until_depth = None;
                        }
                    }
                    b'(' => paren_depth += 1,
                    b')' => {
                        paren_depth -= 1;
                        if reduce_until_depth.is_some_and(|d| paren_depth <= d) {
                            reduce_until_depth = None;
                        }
                    }
                    _ => {}
                }
            }
            // `#[cfg(test)] use …;` style items: attr consumed by a
            // braceless item terminated on the same or a later line.
            if pending_test_attr && code.trim_end().ends_with(';') {
                pending_test_attr = false;
                in_test_region[i] = true;
            }
        }
    }

    // D2 precondition: does this module contain a parallel kernel?
    let has_parallel = lines.iter().any(|l| {
        let c = &l.code;
        c.contains("par_iter")
            || c.contains("par_chunks")
            || c.contains("par_bridge")
            || c.contains("rayon::join")
            || c.contains("rayon::scope")
            || c.contains("thread::spawn")
    });

    // D2 state: names bound to float accumulators in this file.
    let mut float_vars: Vec<String> = Vec::new();

    let push = |out: &mut Vec<Diagnostic>, i: usize, rule: Rule, message: String| {
        out.push(Diagnostic {
            file: file.to_path_buf(),
            line: i + 1,
            rule,
            message,
        });
    };

    for (i, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        let cov = coverage[i];
        let in_test = in_test_region[i] || class.is_test_file;

        // ---- P2: Ordering::Relaxed needs RELAXED -------------------
        if code.contains("Ordering::Relaxed") && !cov.relaxed {
            push(
                &mut out,
                i,
                Rule::P2RelaxedJustify,
                "`Ordering::Relaxed` without a `// RELAXED:` justification".to_string(),
            );
        }

        // ---- D2: raw float accumulation in parallel modules --------
        if class.is_kernel && has_parallel && !class.float_accum_allowed && !in_test {
            let float_evidence = code.contains("f64")
                || code.contains("f32")
                || has_float_literal(code)
                || float_vars.iter().any(|v| {
                    code.contains(&format!("{v} +="))
                        || code.contains(&format!("{v}+="))
                        || code.contains(&format!("*{v} +="))
                });
            if let Some(name) = binding_name(code) {
                if code.contains("f64") || code.contains("f32") || has_float_literal(code) {
                    float_vars.push(name);
                }
            }
            let accumulates = code.contains("+=")
                || code.contains(".sum()")
                || code.contains(".sum::<f64>()")
                || code.contains(".sum::<f32>()");
            let typed_float_sum = code.contains(".sum::<f64>()") || code.contains(".sum::<f32>()");
            if accumulates
                && (float_evidence || typed_float_sum)
                && !in_reduce_args[i]
                && !cov.float_accum
            {
                push(
                    &mut out,
                    i,
                    Rule::D2FloatAccum,
                    "raw floating-point accumulation in a parallel-kernel module: float \
                     addition is non-associative — route the reduction through \
                     vecops::chunked_reduce (or justify why this accumulator is \
                     thread-invariant)"
                        .to_string(),
                );
            }
        }
    }

    out
}

/// Extract the bound name from a `let [mut] name …` line, if any.
fn binding_name(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Scan one file from disk.
pub fn scan_file(path: &Path, report_as: &Path) -> Result<Vec<Diagnostic>, String> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let class = FileClass::from_path(report_as);
    Ok(scan_source(&source, &class, report_as))
}

/// Walk `root/crates/*/src`, scanning every `.rs` file in deterministic
/// (sorted-path) order. Returns all diagnostics, paths relative to `root`.
pub fn scan_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let crates_dir = root.join("crates");
    let mut files: Vec<PathBuf> = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir failed under crates/: {e}"))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        out.extend(scan_file(f, rel)?);
    }
    Ok(out)
}

fn collect_rs(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir failed under {}: {e}", dir.display()))?;
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, files)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            files.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_class() -> FileClass {
        FileClass::from_path(Path::new("crates/part/src/kernel.rs"))
    }

    fn scan(src: &str, class: &FileClass) -> Vec<Diagnostic> {
        scan_source(src, class, Path::new("mem.rs"))
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.code()).collect()
    }

    /// A module with a parallel kernel, so D2 applies to what follows.
    const PAR: &str = "fn g(xs: &mut [f64]) { xs.par_iter_mut().for_each(|x| *x *= 2.0); }\n";

    #[test]
    fn classifies_paths() {
        let c = FileClass::from_path(Path::new("crates/part/src/refine/fm.rs"));
        assert!(c.is_kernel && !c.is_test_file && !c.float_accum_allowed);
        let b = FileClass::from_path(Path::new("crates/bench/src/bin/parallel.rs"));
        assert!(!b.is_kernel);
        let t = FileClass::from_path(Path::new("crates/part/src/kway_extra_tests.rs"));
        assert!(t.is_test_file);
        let v = FileClass::from_path(Path::new("crates/linalg/src/vecops.rs"));
        assert!(v.float_accum_allowed);
    }

    #[test]
    fn p2_requires_relaxed_annotation() {
        let class = kernel_class();
        let bad = "fn f(a: &AtomicU32) -> u32 { a.load(Ordering::Relaxed) }\n";
        assert_eq!(codes(&scan(bad, &class)), ["P2"]);
        let ok = "// RELAXED: statistic only\nfn f(a: &AtomicU32) -> u32 { a.load(Ordering::Relaxed) }\n";
        assert!(scan(ok, &class).is_empty());
        let trailing =
            "fn f(a: &AtomicU32) -> u32 { a.load(Ordering::Relaxed) } // RELAXED: stat\n";
        assert!(scan(trailing, &class).is_empty());
    }

    #[test]
    fn tokens_in_strings_and_comments_never_fire() {
        let class = kernel_class();
        let in_string = "fn f() -> &'static str { \"Ordering::Relaxed\" }\n";
        assert!(scan(in_string, &class).is_empty());
        let in_comment = "// Ordering::Relaxed would be wrong here\nfn f() {}\n";
        assert!(scan(in_comment, &class).is_empty());
    }

    #[test]
    fn d2_flags_float_accum_only_in_parallel_modules() {
        let class = kernel_class();
        let serial = "fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for x in xs { acc += x; }\n    acc\n}\n";
        assert!(scan(serial, &class).is_empty(), "no parallel kernel here");
        let parallel = format!("{PAR}{serial}");
        assert_eq!(codes(&scan(&parallel, &class)), ["D2"]);
        let elsewhere = FileClass::from_path(Path::new("crates/geom/src/lib.rs"));
        assert!(
            scan(&parallel, &elsewhere).is_empty(),
            "geom is no kernel crate"
        );
        let in_test = format!("{PAR}#[cfg(test)]\nmod tests {{\n{serial}}}\n");
        assert!(scan(&in_test, &class).is_empty(), "tests may accumulate");
    }

    #[test]
    fn d2_exempts_chunked_reduce_arguments() {
        let class = kernel_class();
        let ok = format!("{PAR}fn f(xs: &[f64]) -> f64 {{\n    chunked_reduce(xs.len(), |lo, hi| {{\n        let mut acc = 0.0;\n        for x in &xs[lo..hi] {{ acc += x; }}\n        acc\n    }})\n}}\n");
        let d = scan(&ok, &class);
        assert!(
            d.is_empty(),
            "chunked_reduce args are the sanctioned pattern: {d:?}"
        );
    }

    #[test]
    fn suppression_needs_its_reason() {
        let class = kernel_class();
        let body = "fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for x in xs { acc += x; }\n    acc\n}\n";
        let allowed = format!("{PAR}// LINT: allow(float_accum, serial by construction)\n{body}");
        assert!(scan(&allowed, &class).is_empty());
        let reasonless = format!("{PAR}// LINT: allow(float_accum)\n{body}");
        assert_eq!(codes(&scan(&reasonless, &class)), ["D2"]);
        let empty = "// RELAXED:\nfn f(a: &AtomicU32) -> u32 { a.load(Ordering::Relaxed) }\n";
        assert_eq!(codes(&scan(empty, &class)), ["P2"]);
    }

    #[test]
    fn coverage_breaks_at_blank_lines() {
        let class = kernel_class();
        let src = "// RELAXED: covered block\nfn f(a: &AtomicU32) -> u32 { a.load(Ordering::Relaxed) }\n\nfn g(a: &AtomicU32) -> u32 { a.load(Ordering::Relaxed) }\n";
        let d = scan(src, &class);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn float_literal_detector() {
        assert!(has_float_literal("let x = 2.5;"));
        assert!(has_float_literal("let x = 1e-12;"));
        assert!(!has_float_literal("let x = t.0;"));
        assert!(!has_float_literal("for i in 0..n {}"));
        assert!(!has_float_literal("let x = 42;"));
        assert!(!has_float_literal("x1e2"));
    }
}
