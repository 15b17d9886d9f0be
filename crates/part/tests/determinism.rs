//! Differential determinism suite for the parallel coarsening kernels.
//!
//! The determinism contract (see `matching.rs` and DESIGN.md §"Parallel
//! coarsening"): with a fixed seed, the full coarsening hierarchy, the
//! final bisection, and the k-way partition are **bit-identical** for
//! every thread count. These tests run every matching scheme at
//! `threads ∈ {1, 2, 8}` and diff the complete outputs.
//!
//! The `MLGP_THREADS` environment variable (set by the CI thread-matrix
//! job) adds one extra thread count to the sweep, so the same suite
//! exercises `--threads 1` and `--threads 4` configurations.

use mlgp_graph::generators::{powerlaw, tri_mesh2d};
use mlgp_graph::rng::seeded;
use mlgp_part::{
    bisect, coarsen, kway_partition, kway_partition_refined, kway_refine_greedy, MatchingScheme,
    MlConfig,
};
use mlgp_trace::Trace;

/// Thread counts under test: the ISSUE's {1, 2, 8} plus an optional
/// `MLGP_THREADS` override from the CI matrix.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Ok(v) = std::env::var("MLGP_THREADS") {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t > 0 && !counts.contains(&t) {
                counts.push(t);
            }
        }
    }
    counts
}

fn cfg_with(matching: MatchingScheme, threads: usize) -> MlConfig {
    MlConfig {
        matching,
        threads,
        seed: 20260807,
        ..MlConfig::default()
    }
}

#[test]
fn hierarchy_is_bit_identical_across_thread_counts() {
    let g = tri_mesh2d(40, 32, 11);
    for scheme in MatchingScheme::all() {
        let reference = coarsen(&g, &cfg_with(scheme, 1), &mut seeded(3), &Trace::disabled());
        for &t in &thread_counts()[1..] {
            let h = coarsen(&g, &cfg_with(scheme, t), &mut seeded(3), &Trace::disabled());
            assert_eq!(
                h.levels(),
                reference.levels(),
                "{scheme:?}: level count differs at {t} threads"
            );
            for (lvl, (a, b)) in h.graphs.iter().zip(&reference.graphs).enumerate() {
                assert_eq!(
                    a, b,
                    "{scheme:?}: graph at level {lvl} differs at {t} threads"
                );
            }
            for (lvl, (a, b)) in h.cmaps.iter().zip(&reference.cmaps).enumerate() {
                assert_eq!(
                    a, b,
                    "{scheme:?}: cmap at level {lvl} differs at {t} threads"
                );
            }
        }
    }
}

#[test]
fn bisection_is_bit_identical_across_thread_counts() {
    let g = tri_mesh2d(36, 28, 5);
    for scheme in MatchingScheme::all() {
        let reference = bisect(&g, &cfg_with(scheme, 1));
        for &t in &thread_counts()[1..] {
            let r = bisect(&g, &cfg_with(scheme, t));
            assert_eq!(
                r.cut, reference.cut,
                "{scheme:?}: cut differs at {t} threads"
            );
            assert_eq!(
                r.part, reference.part,
                "{scheme:?}: partition differs at {t} threads"
            );
            assert_eq!(r.pwgts, reference.pwgts);
        }
    }
}

#[test]
fn kway_is_bit_identical_across_thread_counts() {
    // The k-way recursion adds a second layer of parallelism (rayon::join
    // over subproblems); the kernels must stay deterministic under it.
    let g = tri_mesh2d(32, 32, 9);
    let reference = kway_partition(&g, 8, &cfg_with(MatchingScheme::HeavyEdge, 1));
    for &t in &thread_counts()[1..] {
        let r = kway_partition(&g, 8, &cfg_with(MatchingScheme::HeavyEdge, t));
        assert_eq!(r.edge_cut, reference.edge_cut, "cut differs at {t} threads");
        assert_eq!(r.part, reference.part, "partition differs at {t} threads");
    }
}

#[test]
fn refined_pipeline_is_bit_identical_across_thread_counts() {
    // The full pipeline: coarsen → recursive bisection → round-based k-way
    // refinement. `cfg.threads` now reaches the uncoarsening kernels
    // (BisectState construction, FM queue seeding, projection, and the
    // propose/commit sweep), so the end-to-end result must stay a pure
    // function of (graph, config, seed).
    let g = tri_mesh2d(32, 28, 6);
    for scheme in [MatchingScheme::HeavyEdge, MatchingScheme::Random] {
        let reference = kway_partition_refined(&g, 8, &cfg_with(scheme, 1), &Trace::disabled());
        for &t in &thread_counts()[1..] {
            let r = kway_partition_refined(&g, 8, &cfg_with(scheme, t), &Trace::disabled());
            assert_eq!(
                r.edge_cut, reference.edge_cut,
                "{scheme:?}: refined cut differs at {t} threads"
            );
            assert_eq!(
                r.part, reference.part,
                "{scheme:?}: refined partition differs at {t} threads"
            );
        }
    }
}

#[test]
fn kway_refine_kernel_is_bit_identical_across_thread_counts() {
    // The round-based sweep in isolation, on a fixed damaged partition, at
    // explicit shard counts (which the kernel honors even below its
    // auto-parallel size floor).
    let g = tri_mesh2d(30, 26, 7);
    let base = kway_partition(&g, 8, &cfg_with(MatchingScheme::HeavyEdge, 1));
    let run = |threads: usize| {
        let mut part = base.part.clone();
        // Damage the partition deterministically so rounds have real work.
        for (i, p) in part.iter_mut().enumerate() {
            if i % 13 == 0 {
                *p = (i % 8) as u32;
            }
        }
        let opts = mlgp_part::KwayRefineOptions {
            threads,
            ..Default::default()
        };
        let (cut, _) = kway_refine_greedy(&g, &mut part, 8, &opts, &Trace::disabled());
        (part, cut)
    };
    let reference = run(1);
    for &t in &thread_counts()[1..] {
        assert_eq!(run(t), reference, "refine kernel diverged at {t} threads");
    }
}

#[test]
fn irregular_graph_hierarchy_is_thread_independent() {
    // Power-law degree graphs stress the round-bound fallback path; it
    // must be just as thread-independent as the handshake rounds.
    let g = powerlaw(4000, 4, 13);
    for scheme in [MatchingScheme::HeavyEdge, MatchingScheme::Random] {
        let reference = coarsen(&g, &cfg_with(scheme, 1), &mut seeded(8), &Trace::disabled());
        for &t in &thread_counts()[1..] {
            let h = coarsen(&g, &cfg_with(scheme, t), &mut seeded(8), &Trace::disabled());
            assert_eq!(h.graphs.len(), reference.graphs.len(), "{scheme:?}");
            for (a, b) in h.graphs.iter().zip(&reference.graphs) {
                assert_eq!(a, b, "{scheme:?} differs at {t} threads");
            }
        }
    }
}

#[test]
fn ambient_pool_cap_does_not_change_results() {
    // `mlgp partition --threads N` only installs a worker pool and leaves
    // `cfg.threads` at 0; the pool may not perturb the result.
    let g = tri_mesh2d(30, 30, 4);
    let reference = bisect(&g, &cfg_with(MatchingScheme::HeavyEdge, 0));
    for nt in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(nt)
            .build()
            .expect("pool");
        let r = pool.install(|| bisect(&g, &cfg_with(MatchingScheme::HeavyEdge, 0)));
        assert_eq!(r.part, reference.part, "pool cap {nt} changed the result");
        assert_eq!(r.cut, reference.cut);
    }
}
