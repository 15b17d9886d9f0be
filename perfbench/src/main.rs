//! `mlgp-perfbench`: the measuring side of the benchmark. `run.py` builds
//! it and starts it once per phase, so each phase's peak memory is its own:
//!
//! ```text
//! mlgp-perfbench setup --workload W --seed S --file F.graph --reads R
//! mlgp-perfbench run   --workload W --seed S --file F.graph --seconds T
//! mlgp-perfbench memory --workload W --seed S --file F.graph
//! mlgp-perfbench trace --workload W --seed S --file F.graph --seconds T
//! ```
//!
//! `setup` writes the workload graph to `F.graph` (untimed) and times `R`
//! reads of it. `run` times the library call at the default fan-out
//! (`wall_s`) and inside a 1-worker pool (`serial_s`), alternating, for
//! about `T` seconds. `memory` makes one serial call, for peak memory.
//! `trace` runs the serial replays with spans at
//! `threads = 1` (`.t1`) and at the default fan-out (`.auto`) next to the
//! library calls they must reproduce. Each prints one JSON object on
//! stdout; every output is checked and a failed check is counted, never
//! dropped.

mod check;
mod replay;
mod spans;
mod workload;

use mlgp_graph::io::{read_graph_file, write_graph_file};
use mlgp_graph::{CsrGraph, Permutation};
use spans::{self_times, Recorder};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Output, Workload};

/// Spans the replays open; each becomes a `<name>_s` self-time metric.
const SPANS: [&str; 13] = [
    "part.coarsen",
    "part.matching",
    "part.contract",
    "part.initpart",
    "part.refine",
    "part.project",
    "graph.subgraph",
    "order.separator",
    "order.mmd",
    "linalg.rqi",
    "linalg.lanczos",
    "linalg.dense",
    "bench.glue",
];

/// Counters reported as they are.
const COUNTS: [&str; 10] = [
    "part.match_rounds",
    "part.match_edges_scanned",
    "part.contract_entries",
    "part.fm_moves",
    "part.fm_rollbacks",
    "part.bisections",
    "part.levels",
    "order.separator_vertices",
    "linalg.spmv_calls",
    "linalg.spmv_rows",
];

struct Args {
    mode: String,
    name: String,
    workload: Workload,
    seed: u64,
    file: PathBuf,
    seconds: f64,
    reads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode (setup|run|memory|trace)")?;
    let mut opts = BTreeMap::new();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{key}`"))?;
        let value = it.next().ok_or(format!("`{key}` needs a value"))?;
        opts.insert(name.to_string(), value);
    }
    let get = |k: &str| opts.get(k).ok_or(format!("missing --{k}"));
    let num = |k: &str, default: &str| -> Result<f64, String> {
        let v = opts.get(k).map(String::as_str).unwrap_or(default);
        v.parse().map_err(|_| format!("bad --{k} `{v}`"))
    };
    let name = get("workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        file: PathBuf::from(get("file")?),
        seconds: num("seconds", "10")?,
        reads: num("reads", "5")? as usize,
        name: name.clone(),
        mode,
    })
}

/// Running tally of checked operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("check failed: {what}: {e}");
            self.errors.push(format!("{what}: {e}"));
        }
    }

    /// Check `out`, and that it is bit-identical to `reference` when there
    /// is one. The first output that passes becomes the reference. Returns
    /// whether `out` passed.
    fn output(
        &mut self,
        w: Workload,
        g: &CsrGraph,
        what: &str,
        out: &Output,
        reference: &mut Option<Output>,
    ) -> bool {
        let r = w.check(g, out).and_then(|()| match reference {
            Some(r) if r != out => Err("output differs from the first output of its seed".into()),
            _ => Ok(()),
        });
        let passed = r.is_ok();
        if passed && reference.is_none() {
            *reference = Some(out.clone());
        }
        self.record(what, r);
        passed
    }

    fn json(&self) -> String {
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "\"attempted\":{},\"failed\":{},\"errors\":[{}]",
            self.attempted,
            self.errors.len(),
            errors.join(",")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(","))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Write the workload graph, then time `reads` loads of it, each checked
/// against the generated graph.
fn setup(a: &Args) -> Result<String, String> {
    let g = a.workload.generate(a.seed);
    write_graph_file(&g, &a.file).map_err(|e| format!("writing {}: {e}", a.file.display()))?;
    let mut tally = Tally::default();
    let mut times = Vec::new();
    for i in 0..a.reads.max(1) {
        let t = Instant::now();
        let read = read_graph_file(&a.file);
        times.push(secs(t));
        let r = match read {
            Ok(h) if h == g => Ok(()),
            Ok(_) => Err("graph read back differs from the generated graph".into()),
            Err(e) => Err(e.to_string()),
        };
        tally.record(&format!("setup read {i}"), r);
    }
    Ok(format!(
        "{{\"vertices\":{},\"edges\":{},\"setup_s\":{},{}}}",
        g.n(),
        g.m(),
        json_list(&times),
        tally.json()
    ))
}

fn load(a: &Args) -> Result<CsrGraph, String> {
    read_graph_file(&a.file).map_err(|e| format!("reading {}: {e}", a.file.display()))
}

/// Partitioner seeds one run cycles through: `seed·SUB_SEEDS + i`, so runs
/// with different workload seeds never share one. Averaging over a few
/// seeds in each run keeps a seed that happens to need less solver work
/// from moving the run's medians.
const SUB_SEEDS: u64 = 5;

fn sub_seeds(seed: u64) -> Vec<u64> {
    (0..SUB_SEEDS)
        .map(|i| seed.wrapping_mul(SUB_SEEDS).wrapping_add(i))
        .collect()
}

/// Closed loop, one caller: a checked warm-up call at the default fan-out,
/// then pairs of serial and default calls, in alternating order and
/// cycling through the sub-seeds, until the time is spent (at least one
/// pair per sub-seed). Quality figures come from each sub-seed's first
/// output that passed its checks.
fn run(a: &Args) -> Result<String, String> {
    let w = a.workload;
    let seeds = sub_seeds(a.seed);
    let g = load(a)?;
    let mut tally = Tally::default();
    let mut references = vec![None; seeds.len()];
    let warm = w.run(&g, seeds[0], 0);
    tally.output(w, &g, "warm-up", &warm, &mut references[0]);
    let (mut wall, mut serial) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for pair in 0.. {
        let t_pair = Instant::now();
        let i = pair % seeds.len();
        for threads in if pair % 2 == 0 { [1, 0] } else { [0, 1] } {
            let t = Instant::now();
            let out = w.run(&g, seeds[i], threads);
            let s = secs(t);
            let label = if threads == 0 { "wall" } else { "serial" };
            tally.output(w, &g, &format!("{label} {pair}"), &out, &mut references[i]);
            if threads == 0 { &mut wall } else { &mut serial }.push(s);
        }
        if pair + 1 >= seeds.len() && secs(start) + secs(t_pair) > a.seconds {
            break;
        }
    }
    let quality: Vec<String> = references
        .iter()
        .flatten()
        .map(|out| {
            let q: Vec<String> = w
                .quality(&g, out)
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v:?}"))
                .collect();
            format!("{{{}}}", q.join(","))
        })
        .collect();
    Ok(format!(
        "{{\"nproc\":{},\"seeds\":{:?},\"wall_s\":{},\"serial_s\":{},\"quality\":[{}],{}}}",
        nproc(),
        seeds,
        json_list(&wall),
        json_list(&serial),
        quality.join(","),
        tally.json()
    ))
}

/// One checked serial call in a fresh process: `run.py` reads this
/// process's peak resident memory. A serial call spawns no threads, so the
/// peak is the graph plus the algorithm's own working set.
fn memory(a: &Args) -> Result<String, String> {
    let seed = sub_seeds(a.seed)[0];
    let g = load(a)?;
    let mut tally = Tally::default();
    let out = a.workload.run(&g, seed, 1);
    tally.record("memory", a.workload.check(&g, &out));
    Ok(format!("{{{}}}", tally.json()))
}

/// Per-layer metrics of one replay (without the `.t1`/`.auto` suffix).
fn layer_metrics(rec: &Recorder, analyze_s: f64) -> BTreeMap<String, f64> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let times = self_times(rec.spans());
    let mut m = BTreeMap::new();
    for name in SPANS {
        m.insert(format!("{name}_s"), times.get(name).copied().unwrap_or(0.0));
    }
    for name in COUNTS {
        m.insert(name.to_string(), rec.count(name) as f64);
    }
    let c = |k| rec.count(k);
    let ratios = [
        (
            "part.match_scan_ratio",
            ratio(c("part.match_edges_scanned"), c("part.match_entries")),
        ),
        (
            "part.matched_frac",
            ratio(c("part.matched_vertices"), c("part.match_vertices")),
        ),
        (
            "part.fm_kept_ratio",
            ratio(
                c("part.fm_moves"),
                c("part.fm_moves") + c("part.fm_rollbacks"),
            ),
        ),
        (
            "linalg.lanczos_fallback_ratio",
            ratio(c("linalg.lanczos_fallbacks"), c("linalg.rqi_solves")),
        ),
    ];
    for (k, v) in ratios {
        m.insert(k.to_string(), v);
    }
    m.insert("order.analyze_s".to_string(), analyze_s);
    m
}

/// Time `analyze_ordering` on a checked ordering output; 0 for partitions.
fn analyze_time(g: &CsrGraph, out: &Output) -> f64 {
    match out {
        Output::Order(perm) => {
            let p = Permutation::from_forward(perm.clone());
            let t = Instant::now();
            std::hint::black_box(mlgp_order::analyze_ordering(g, &p));
            secs(t)
        }
        Output::Parts(..) => 0.0,
    }
}

/// Rounds of: library call and traced replay at `threads = 1`, then both
/// at the default fan-out, until the time is spent (at least one round).
/// A replay whose output differs from its library call is reported in
/// `mismatch` rather than failing the program's checks.
fn trace(a: &Args) -> Result<String, String> {
    let (w, seed) = (a.workload, sub_seeds(a.seed)[0]);
    let g = load(a)?;
    let mut tally = Tally::default();
    let mut mismatch: Vec<&str> = Vec::new();
    let (mut serial, mut traced_t1) = (Vec::new(), Vec::new());
    let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut reference: Option<Output> = None;
    let start = Instant::now();
    for round in 0.. {
        let t_round = Instant::now();
        for (threads, suffix) in [(1, "t1"), (0, "auto")] {
            let t = Instant::now();
            let lib = w.run(&g, seed, threads);
            if threads == 1 {
                serial.push(secs(t));
            }
            let what = format!("library {suffix} {round}");
            let passed = tally.output(w, &g, &what, &lib, &mut reference);
            let mut rec = Recorder::new();
            let t = Instant::now();
            let replayed = w.replay(&g, seed, threads, &mut rec);
            if threads == 1 {
                traced_t1.push(secs(t));
            }
            if replayed != lib && !mismatch.contains(&suffix) {
                eprintln!(
                    "replay of {} at .{suffix} differs from the library call",
                    a.name
                );
                mismatch.push(suffix);
            }
            let analyze_s = if passed {
                workload::in_pool(threads, || analyze_time(&g, &lib))
            } else {
                0.0
            };
            for (k, v) in layer_metrics(&rec, analyze_s) {
                layers.entry(format!("{k}.{suffix}")).or_default().push(v);
            }
        }
        if secs(start) + secs(t_round) > a.seconds {
            break;
        }
    }
    let layers: Vec<String> = layers
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_list(v)))
        .collect();
    let mismatch: Vec<String> = mismatch.iter().map(|s| json_str(s)).collect();
    Ok(format!(
        "{{\"nproc\":{},\"serial_s\":{},\"traced_t1_s\":{},\"layers\":{{{}}},\"mismatch\":[{}],{}}}",
        nproc(),
        json_list(&serial),
        json_list(&traced_t1),
        layers.join(","),
        mismatch.join(","),
        tally.json()
    ))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| match a.mode.as_str() {
        "setup" => setup(&a),
        "run" => run(&a),
        "memory" => memory(&a),
        "trace" => trace(&a),
        m => Err(format!("unknown mode `{m}` (setup|run|memory|trace)")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mlgp-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
