//! `mlgp-lint` CLI: scan `crates/*/src` and exit nonzero on violations.
//!
//! ```text
//! mlgp-lint [--root DIR]
//! ```
//!
//! With no `--root`, the workspace root is found by walking up from the
//! current directory to the first ancestor holding a `Cargo.toml` with a
//! `[workspace]` table (so `cargo run -p mlgp-lint` works from anywhere
//! in the tree). Diagnostics go to stdout as `file:line: [RULE] message`,
//! one per line, in deterministic (sorted-path) order.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("mlgp-lint: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: mlgp-lint [--root DIR]");
                println!("scans crates/*/src for raw float accumulation beside parallel");
                println!("kernels (D2) and unjustified Ordering::Relaxed (P2)");
                println!("(rules and suppression syntax: DESIGN.md §11)");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mlgp-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("mlgp-lint: no workspace root found (pass --root DIR)");
            return ExitCode::from(2);
        }
    };
    match mlgp_lint::scan_workspace(&root) {
        Ok(diags) if diags.is_empty() => {
            println!("mlgp-lint: clean ({} rules)", mlgp_lint::Rule::all().len());
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            eprintln!("mlgp-lint: {} violation(s)", diags.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("mlgp-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Walk up from the current directory to the first `Cargo.toml` declaring
/// a `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
