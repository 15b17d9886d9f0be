//! End-to-end tests of the `mlgp` command-line tool.

use std::process::Command;

fn mlgp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mlgp"))
}

#[test]
fn partition_generated_graph() {
    let out = mlgp()
        .args(["partition", "gen:4ELT@0.05", "4"])
        .output()
        .expect("spawn mlgp");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edge-cut="), "{stdout}");
    assert!(stdout.contains("k=4"));
}

#[test]
fn order_generated_graph_all_methods() {
    for method in ["mlnd", "mmd", "snd"] {
        let out = mlgp()
            .args(["order", "gen:LS34@0.2", "--method", method])
            .output()
            .expect("spawn mlgp");
        assert!(
            out.status.success(),
            "{method}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("nnz(L)="), "{method}: {stdout}");
    }
}

#[test]
fn gen_then_partition_file_round_trip() {
    let dir = std::env::temp_dir().join(format!("mlgp-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("t.graph");
    let out = mlgp()
        .args(["gen", "BSP10", graph.to_str().unwrap(), "--scale", "0.1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let partfile = dir.join("t.part");
    let out = mlgp()
        .args([
            "partition",
            graph.to_str().unwrap(),
            "2",
            "--out",
            partfile.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let labels = std::fs::read_to_string(&partfile).unwrap();
    let count = labels.lines().count();
    assert!(count > 100, "partition vector too short: {count}");
    assert!(labels.lines().all(|l| l == "0" || l == "1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bare_report_flag_is_boolean() {
    let out = mlgp()
        .args(["partition", "gen:LS34@0.2", "2", "--report"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("comm volume"), "{stdout}");
}

#[test]
fn info_reports_structure() {
    let out = mlgp().args(["info", "gen:LS34"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("components=1"), "{stdout}");
}

#[test]
fn unknown_commands_fail_cleanly() {
    let out = mlgp().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = mlgp()
        .args(["partition", "gen:NOPE", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = mlgp()
        .args(["partition", "gen:LS34", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn non_positive_chaco_weights_are_errors_not_panics() {
    let dir = std::env::temp_dir().join(format!("mlgp-cli-weights-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in [
        ("zero-vwgt", "2 1 10\n0 2\n1 1\n"),
        ("negative-vwgt", "2 1 10\n1 2\n-1 1\n"),
        ("zero-ewgt", "2 1 1\n2 0\n1 0\n"),
    ] {
        let path = dir.join(format!("{name}.graph"));
        std::fs::write(&path, text).unwrap();
        let out = mlgp()
            .args(["partition", path.to_str().unwrap(), "2"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(stderr.contains("must be positive"), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_positive_or_non_finite_scales_are_rejected() {
    let out_file =
        std::env::temp_dir().join(format!("mlgp-cli-scale-{}.graph", std::process::id()));
    let out_file = out_file.to_str().unwrap();
    for bad in ["-1", "0", "nan", "inf", "x"] {
        for args in [
            vec!["gen", "4ELT", out_file, "--scale", bad],
            vec!["partition", &format!("gen:4ELT@{bad}"), "2"],
        ] {
            let out = mlgp().args(&args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains("bad scale"), "{args:?}: {stderr}");
        }
    }
    assert!(!std::path::Path::new(out_file).exists());
}

#[test]
fn msb_partitions_graphs_smaller_than_k() {
    let dir = std::env::temp_dir().join(format!("mlgp-cli-p3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("p3.graph");
    std::fs::write(&path, "3 2\n2\n1 3\n2\n").unwrap();
    for k in ["4", "5", "8"] {
        let out = mlgp()
            .args(["partition", path.to_str().unwrap(), k, "--method", "msb"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "k={k}: {stderr}");
        assert!(!stderr.contains("panicked"), "k={k}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `mlgp partition <graph> <k> --out <out>` plus `extra` args and
/// returns the written labels.
fn partition_labels(graph: &str, k: &str, out: &std::path::Path, extra: &[&str]) -> String {
    let result = mlgp()
        .args(["partition", graph, k, "--out", out.to_str().unwrap()])
        .args(extra)
        .output()
        .unwrap();
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    std::fs::read_to_string(out).unwrap()
}

#[test]
fn small_paths_get_no_empty_parts() {
    let dir = std::env::temp_dir().join(format!("mlgp-cli-paths-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (p3, p5) = (dir.join("p3.graph"), dir.join("p5.graph"));
    std::fs::write(&p3, "3 2\n2\n1 3\n2\n").unwrap();
    std::fs::write(&p5, "5 4\n2\n1 3\n2 4\n3 5\n4\n").unwrap();
    let (p3, p5) = (p3.to_str().unwrap(), p5.to_str().unwrap());
    let out = dir.join("labels.part");
    let cases = [
        (p3, "2", "ml", 2),
        (p3, "4", "ml", 3),
        (p5, "3", "ml", 3),
        (p5, "3", "msb", 3),
        (p5, "3", "msb-kl", 3),
        (p5, "3", "chaco", 3),
    ];
    for (graph, k, method, parts) in cases {
        let labels = partition_labels(graph, k, &out, &["--method", method]);
        let distinct: std::collections::BTreeSet<&str> = labels.lines().collect();
        assert_eq!(distinct.len(), parts, "{graph} k={k} {method}: {labels}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partition_output_is_identical_across_thread_counts() {
    let dir = std::env::temp_dir().join(format!("mlgp-cli-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = "gen:4ELT@0.2";
    let out = dir.join("labels.part");
    let reference = partition_labels(graph, "8", &out, &["--threads", "1"]);
    for threads in ["2", "8"] {
        let labels = partition_labels(graph, "8", &out, &["--threads", threads]);
        assert!(
            labels == reference,
            "--threads {threads} differs from --threads 1"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_usage() {
    let out = mlgp().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn stats_prints_phase_tree_to_stderr() {
    let out = mlgp()
        .args(["partition", "gen:4ELT@0.2", "4", "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in [
        "phase tree",
        "coarsen",
        "uncoarsen",
        "refine",
        "project",
        "fm_passes",
    ] {
        assert!(stderr.contains(needle), "missing `{needle}` in:\n{stderr}");
    }
    // The tree goes to stderr, not stdout.
    assert!(!String::from_utf8_lossy(&out.stdout).contains("phase tree"));
}

#[test]
fn trace_file_is_parseable_jsonl_with_level_records() {
    let path = std::env::temp_dir().join(format!("mlgp-trace-{}.jsonl", std::process::id()));
    let out = mlgp()
        .args([
            "partition",
            "gen:4ELT@0.2",
            "4",
            "--trace",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut kinds = std::collections::BTreeMap::new();
    for line in body.lines() {
        let v = mlgp::trace::json::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        let t = v.get("type").and_then(|t| t.as_str()).unwrap().to_string();
        *kinds.entry(t.clone()).or_insert(0usize) += 1;
        if t == "coarsen_level" {
            for f in ["level", "vertices", "edges", "matched_fraction", "edge_wgt"] {
                assert!(v.get(f).is_some(), "coarsen_level missing {f}: {line}");
            }
        }
        if t == "refine_level" {
            for f in ["level", "cut_before", "cut_after", "passes", "moves"] {
                assert!(v.get(f).is_some(), "refine_level missing {f}: {line}");
            }
        }
    }
    // One record per hierarchy level for both phases, plus spans and counters.
    assert!(
        kinds.get("coarsen_level").copied().unwrap_or(0) >= 3,
        "{kinds:?}"
    );
    assert_eq!(
        kinds.get("coarsen_level"),
        kinds.get("refine_level"),
        "{kinds:?}"
    );
    assert!(
        kinds.contains_key("span") && kinds.contains_key("counter"),
        "{kinds:?}"
    );
    assert_eq!(kinds.get("meta"), Some(&1), "{kinds:?}");
}

#[test]
fn report_json_is_a_single_parseable_object() {
    let out = mlgp()
        .args(["partition", "gen:LS34@0.2", "2", "--report-json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("no JSON object on stdout");
    let v = mlgp::trace::json::parse(json_line).unwrap();
    assert_eq!(v.get("nparts").and_then(|x| x.as_f64()), Some(2.0));
    assert!(v.get("edge_cut").and_then(|x| x.as_f64()).unwrap() >= 0.0);
    assert!(v.get("imbalance").and_then(|x| x.as_f64()).unwrap() >= 1.0);
}

#[test]
fn order_stats_reports_separator_telemetry() {
    let out = mlgp()
        .args(["order", "gen:LS34@0.2", "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["nd", "separator_vertices", "phase tree"] {
        assert!(stderr.contains(needle), "missing `{needle}` in:\n{stderr}");
    }
}
