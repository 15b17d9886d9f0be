#!/usr/bin/env python3
"""Benchmark of the mlgp workspace: three workloads, end-to-end time,
memory and quality, and per-layer self times from a traced replay.

Run from the repository root:

    python3 perfbench/run.py --workload kway-road --seed 1 --seconds 20 --trace 0

It builds `perfbench/` (a cargo package of its own) into
$CARGO_TARGET_DIR (default `.bench_build`), then starts the measuring
binary once per phase: `setup` writes the workload graph and times loading
it; with --trace 0, `memory` makes one serial call in a fresh process, whose
peak resident memory `wait4` reports, and `run` times the library calls;
with --trace 1, `trace` runs the serial replays with spans.

The second-to-last line of stdout is a report with the host context,
quartiles, sample counts and quality figures; the last line is the result
object: {"correct", "attempted", "failed", "metrics"}. Any failed check
makes the exit code nonzero. See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading

WORKLOADS = ("kway-road", "order-fem3d", "msb-grid2d")
SETUP_READS = 9
# Grace on top of --seconds for one child: loading, warm-up, and the last
# pair or round the loop lets finish.
CHILD_GRACE_S = 100
BUILD_TIMEOUT_S = 850

# The per-layer metric names, without their `.t1` / `.auto` suffix, and the
# unit of each.
LAYER_UNITS = {
    "part.matching_s": "s",
    "part.match_rounds": "count",
    "part.match_edges_scanned": "count",
    "part.match_scan_ratio": "ratio",
    "part.matched_frac": "ratio",
    "part.contract_s": "s",
    "part.contract_entries": "count",
    "part.coarsen_s": "s",
    "part.initpart_s": "s",
    "part.refine_s": "s",
    "part.project_s": "s",
    "part.fm_moves": "count",
    "part.fm_rollbacks": "count",
    "part.fm_kept_ratio": "ratio",
    "part.bisections": "count",
    "part.levels": "count",
    "graph.subgraph_s": "s",
    "order.separator_s": "s",
    "order.separator_vertices": "count",
    "order.mmd_s": "s",
    "order.analyze_s": "s",
    "linalg.rqi_s": "s",
    "linalg.lanczos_s": "s",
    "linalg.dense_s": "s",
    "linalg.spmv_calls": "count",
    "linalg.spmv_rows": "count",
    "linalg.lanczos_fallback_ratio": "ratio",
    "bench.glue_s": "s",
}
# Reported even when a replay drifts from its library call.
ALWAYS_REPORTED = ("bench.glue_s",)


def fail(msg):
    """Exit nonzero without printing a result."""
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def summary(values, unit):
    """Median, quartiles and sample count of one timing or count."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def trimmed_mean(values):
    """Mean of `values` without the lowest and the highest."""
    v = sorted(values)
    return statistics.fmean(v[1:-1] if len(v) >= 3 else v)


def build(env):
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail("build failed")


def child(binary, args, env, timeout):
    """Run one phase; return its JSON output and its peak RSS in MB."""
    p = subprocess.Popen([binary] + args, env=env, stdout=subprocess.PIPE)
    killer = threading.Timer(timeout, p.kill)
    killer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        fail(f"`{args[0]}` phase exited with {p.returncode}")
    try:
        result = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail(f"`{args[0]}` phase printed no result")
    # ru_maxrss is in KiB on Linux.
    return result, usage.ru_maxrss / 1024.0


def git_revision(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    binary = os.path.join(target, "release", "mlgp-perfbench")
    data = os.path.join(target, "perfbench-data")
    os.makedirs(data, exist_ok=True)
    graph_file = os.path.join(data, f"{a.workload}-{a.seed}.graph")
    common = ["--workload", a.workload, "--seed", str(a.seed), "--file", graph_file]
    timeout = a.seconds + CHILD_GRACE_S
    try:
        setup, _ = child(binary, ["setup"] + common + ["--reads", str(SETUP_READS)], env, timeout)
        if a.trace:
            res, _ = child(binary, ["trace"] + common + ["--seconds", str(a.seconds)], env, timeout)
        else:
            mem, peak_mb = child(binary, ["memory"] + common, env, timeout)
            res, _ = child(binary, ["run"] + common + ["--seconds", str(a.seconds)], env, timeout)
            for k in ("attempted", "failed", "errors"):
                res[k] += mem[k]
    finally:
        if os.path.exists(graph_file):
            os.remove(graph_file)

    attempted = setup["attempted"] + res["attempted"]
    failed = setup["failed"] + res["failed"]
    report = {
        "workload": a.workload,
        "seed": a.seed,
        "trace": a.trace,
        "seconds": a.seconds,
        "nproc": res["nproc"],
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(root),
        "machine": platform.machine(),
        "graph": {"vertices": setup["vertices"], "edges": setup["edges"]},
        "error_rate": failed / attempted,
        "errors": setup["errors"] + res["errors"],
    }
    if a.trace == 0:
        summaries = {
            "wall_s": summary(res["wall_s"], "s"),
            "serial_s": summary(res["serial_s"], "s"),
            "setup_s": summary(setup["setup_s"], "s"),
            "peak_rss_mb": summary([peak_mb], "MB"),
        }
        # One quality figure per partitioner seed whose output passed its
        # checks. The headline is their mean without the best and the worst
        # seed: a single seed's cut or opcount can be an outlier of up to
        # twice the others.
        quality = res["quality"]
        headline = [q.get("edge_cut", q.get("opcount")) for q in quality] or [0.0]
        summaries["quality"] = dict(summary(headline, "count"), value=trimmed_mean(headline))
        report["partitioner_seeds"] = res["seeds"]
        report["quality"] = quality
    else:
        summaries = {}
        withheld = sorted(res["mismatch"])
        for key, values in res["layers"].items():
            base, suffix = key.rsplit(".", 1)
            if suffix in withheld and base not in ALWAYS_REPORTED:
                continue
            summaries[key] = summary(values, LAYER_UNITS[base])
        overhead = statistics.median(res["traced_t1_s"]) / statistics.median(res["serial_s"])
        summaries["bench.trace_overhead"] = {"value": overhead, "unit": "ratio", "n": len(res["serial_s"])}
        if withheld:
            report["replay_mismatch"] = withheld
            print(
                f"perfbench: {a.workload}: replay differs from the library at "
                f"{', '.join(withheld)}; those per-layer numbers are withheld",
                file=sys.stderr,
            )
    report["metrics"] = summaries
    metrics = {k: {"value": s["value"], "unit": s["unit"]} for k, s in summaries.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
