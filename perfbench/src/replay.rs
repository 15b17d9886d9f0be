//! Serial replays of the three library entry points — `kway_partition`,
//! `nested_dissection` and `msb_kway` — built only from each layer's public
//! functions, with a span around every call into a layer. The recursion
//! runs serially, so spans never overlap and self times add up to the
//! replay's wall time. `main` checks every replay against the library call
//! bit for bit; a replay that drifts from the library is reported, not used.
//!
//! Span names: `part.coarsen` (with `part.matching`, `part.contract`
//! inside), `part.initpart`, `part.refine`, `part.project`,
//! `graph.subgraph`, `order.separator`, `order.mmd`, `linalg.rqi`,
//! `linalg.lanczos`, `linalg.dense`. The root span, `bench.glue`, keeps
//! whatever the replay does between layer calls.

use crate::spans::Recorder;
use mlgp_graph::rng::seeded;
use mlgp_graph::{induced_subgraph, split_by_part, CsrGraph, Permutation, Vid, Wgt};
use mlgp_linalg::{
    fiedler_dense, lanczos_fiedler_with_start, rqi_refine, LanczosOptions, Laplacian, RqiOptions,
};
use mlgp_order::{mmd_order, refine_separator, vertex_separator, SepRefineOptions};
use mlgp_order::{SEPARATOR, SIDE_A, SIDE_B};
use mlgp_part::initpart::split_by_values;
use mlgp_part::{
    compute_matching_threads, contract_threads, edge_cut_kway, initial_partition_traced,
    refine_level_stats, BalanceTargets, BisectState, Hierarchy, MatchingScheme, MlConfig,
};
use mlgp_spectral::MsbConfig;
use mlgp_trace::Trace;
use rand::Rng;

/// Level `i` of a replayed hierarchy: level 0 is the input graph itself.
fn level<'a>(h: &'a Hierarchy, g: &'a CsrGraph, i: usize) -> &'a CsrGraph {
    if i == 0 {
        g
    } else {
        &h.graphs[i]
    }
}

/// `coarsen` without its copy of level 0: `graphs[0]` is an empty
/// placeholder (only `project`'s `cmaps` and coarse levels are read), and
/// callers reach level 0 through [`level`].
fn coarsen<R: Rng>(g: &CsrGraph, cfg: &MlConfig, rng: &mut R, rec: &mut Recorder) -> Hierarchy {
    let span = rec.open("part.coarsen");
    let mut h = Hierarchy {
        graphs: vec![CsrGraph::empty()],
        cmaps: Vec::new(),
    };
    let mut cewgt = vec![0; g.n()];
    loop {
        let cur = level(&h, g, h.levels() - 1);
        let n = cur.n();
        if n <= cfg.coarsen_to.max(2) || cur.m() == 0 {
            break;
        }
        let t = rec.open("part.matching");
        let (m, ms) = compute_matching_threads(cur, cfg.matching, &cewgt, rng, cfg.threads);
        rec.close(t);
        rec.add("part.match_rounds", ms.rounds as u64);
        rec.add("part.match_edges_scanned", ms.edges_scanned.iter().sum());
        rec.add("part.match_entries", cur.nnz() as u64);
        rec.add("part.matched_vertices", 2 * m.pairs as u64);
        rec.add("part.match_vertices", n as u64);
        let (cmap, nc) = m.to_cmap();
        if nc as f64 > cfg.min_coarsen_shrink * n as f64 {
            break;
        }
        let t = rec.open("part.contract");
        let (c, cs) = contract_threads(cur, &cmap, nc, &cewgt, cfg.threads);
        rec.close(t);
        rec.add("part.contract_entries", cs.entries.iter().sum());
        cewgt = c.cewgt;
        h.graphs.push(c.graph);
        h.cmaps.push(cmap);
    }
    rec.close(span);
    h
}

/// `bisect_targets`: coarsen, partition the coarsest graph, then project
/// and refine level by level.
fn bisect(g: &CsrGraph, cfg: &MlConfig, target: [Wgt; 2], rec: &mut Recorder) -> Vec<u8> {
    rec.add("part.bisections", 1);
    if g.n() == 0 {
        return Vec::new();
    }
    let mut rng = seeded(cfg.seed);
    let bt = BalanceTargets::new(target, cfg.imbalance);
    let h = coarsen(g, cfg, &mut rng, rec);
    rec.add("part.levels", h.levels() as u64);
    let coarsest = level(&h, g, h.levels() - 1);
    let t = rec.open("part.initpart");
    let coarse_part = initial_partition_traced(
        coarsest,
        &bt,
        cfg.initial,
        cfg.trials(),
        &mut rng,
        cfg.threads,
        &Trace::disabled(),
    );
    rec.close(t);
    let t = rec.open("part.refine");
    let mut state = BisectState::with_threads(coarsest, coarse_part, cfg.threads);
    refine(&mut state, &bt, cfg, g.n(), rec);
    rec.close(t);
    let mut part = std::mem::take(&mut state.part);
    for lvl in (0..h.levels() - 1).rev() {
        let t = rec.open("part.project");
        let fine_part = h.project(lvl, &part);
        let mut state = BisectState::with_threads(level(&h, g, lvl), fine_part, cfg.threads);
        rec.close(t);
        let t = rec.open("part.refine");
        refine(&mut state, &bt, cfg, g.n(), rec);
        rec.close(t);
        part = std::mem::take(&mut state.part);
    }
    // `bisect_targets` rebuilds the level-0 state once more for the returned
    // cut and side weights.
    let t = rec.open("part.project");
    let last = BisectState::with_threads(g, part, cfg.threads);
    rec.close(t);
    last.part
}

fn refine(
    state: &mut BisectState<'_>,
    bt: &BalanceTargets,
    cfg: &MlConfig,
    n: usize,
    rec: &mut Recorder,
) {
    let s = refine_level_stats(state, bt, cfg.refinement, cfg, n);
    rec.add("part.fm_moves", s.moves as u64);
    rec.add("part.fm_rollbacks", s.rollbacks as u64);
}

/// A bisector for [`recurse`]: subgraph, side weight targets and recursion
/// salt in, 0/1 sides out.
type Bisector<'a> = dyn FnMut(&CsrGraph, [Wgt; 2], u64, &mut Recorder) -> Vec<u8> + 'a;

/// The recursive bisection shared by `kway_partition` and
/// `recursive_kway_with`, run serially.
fn recurse(
    g: &CsrGraph,
    k: usize,
    salt: u64,
    part: &mut [u32],
    rec: &mut Recorder,
    bisector: &mut Bisector<'_>,
) {
    if k <= 1 || g.n() == 0 {
        part.fill(0);
        return;
    }
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let total = g.total_vwgt();
    let t0 = ((total as i128 * k0 as i128) / k as i128) as Wgt;
    let halves = bisector(g, [t0, total - t0], salt, rec);
    if k == 2 {
        for (p, &side) in part.iter_mut().zip(&halves) {
            *p = side as u32;
        }
        return;
    }
    let halves: Vec<u32> = halves.iter().map(|&s| s as u32).collect();
    let t = rec.open("graph.subgraph");
    let subs = split_by_part(g, &halves, 2);
    rec.close(t);
    for (side, (sub, kk)) in subs.iter().zip([k0, k1]).enumerate() {
        let mut sub_part = vec![0u32; sub.graph.n()];
        recurse(
            &sub.graph,
            kk,
            salt * 2 + side as u64,
            &mut sub_part,
            rec,
            bisector,
        );
        let offset = if side == 0 { 0 } else { k0 as u32 };
        for (&orig, &p) in sub.orig.iter().zip(&sub_part) {
            part[orig as usize] = offset + p;
        }
    }
}

/// Replay of `mlgp_part::kway_partition`.
pub fn kway_partition(
    g: &CsrGraph,
    k: usize,
    cfg: &MlConfig,
    rec: &mut Recorder,
) -> (Vec<u32>, Wgt) {
    let root = rec.open("bench.glue");
    let mut part = vec![0u32; g.n()];
    recurse(g, k, 1, &mut part, rec, &mut |sub, targets, salt, rec| {
        bisect(sub, &cfg.reseed(salt), targets, rec)
    });
    let cut = edge_cut_kway(g, &part);
    rec.close(root);
    (part, cut)
}

/// Replay of `mlgp_spectral::msb_kway`.
pub fn msb_kway(g: &CsrGraph, k: usize, cfg: &MsbConfig, rec: &mut Recorder) -> Vec<u32> {
    let root = rec.open("bench.glue");
    let mut part = vec![0u32; g.n()];
    recurse(g, k, 1, &mut part, rec, &mut |sub, targets, salt, rec| {
        let mut c = *cfg;
        c.seed = cfg.seed.wrapping_add(salt);
        rec.add("part.bisections", 1);
        let bt = BalanceTargets::new(targets, c.imbalance);
        let f = msb_fiedler(sub, &c, rec);
        split_by_values(sub, &f, &bt)
    });
    rec.close(root);
    part
}

/// `msb_fiedler`: RM coarsening, a dense solve on the coarsest graph, then
/// interpolation and refinement level by level.
fn msb_fiedler(g: &CsrGraph, cfg: &MsbConfig, rec: &mut Recorder) -> Vec<f64> {
    let ml = MlConfig {
        matching: MatchingScheme::Random,
        coarsen_to: cfg.coarsen_to,
        seed: cfg.seed,
        threads: cfg.threads,
        ..MlConfig::default()
    };
    let mut rng = seeded(cfg.seed);
    let h = coarsen(g, &ml, &mut rng, rec);
    rec.add("part.levels", h.levels() as u64);
    let coarsest = level(&h, g, h.levels() - 1);
    let mut x = if coarsest.n() >= 2 {
        let t = rec.open("linalg.dense");
        let x = fiedler_dense(coarsest).1;
        rec.close(t);
        x
    } else {
        vec![0.0; coarsest.n()]
    };
    for lvl in (0..h.levels() - 1).rev() {
        let interp: Vec<f64> = h.cmaps[lvl].iter().map(|&c| x[c as usize]).collect();
        x = refine_fiedler(level(&h, g, lvl), &interp, cfg, rec);
    }
    if h.levels() == 1 && g.n() > 2 {
        x = refine_fiedler(g, &x, cfg, rec);
    }
    x
}

/// `refine_fiedler`: RQI, falling back to warm-started Lanczos when RQI
/// stalls or escapes to a higher eigenpair. The fallback's options are the
/// library's constants.
fn refine_fiedler(
    fine: &CsrGraph,
    interp: &[f64],
    cfg: &MsbConfig,
    rec: &mut Recorder,
) -> Vec<f64> {
    let lap = Laplacian::with_threads(fine, cfg.threads);
    let rho_interp = lap.rayleigh(interp);
    let rqi_opts = RqiOptions {
        threads: cfg.threads,
        ..cfg.rqi
    };
    let t = rec.open("linalg.rqi");
    let r = rqi_refine(&lap, interp, &rqi_opts);
    rec.close(t);
    rec.add("linalg.rqi_solves", 1);
    let converged = r.residual <= 10.0 * cfg.rqi.tol * lap.spectral_upper_bound();
    let not_escaped = r.lambda <= rho_interp * 1.05 + 1e-12;
    let x = if converged && not_escaped {
        r.vector
    } else {
        rec.add("linalg.lanczos_fallbacks", 1);
        let opts = LanczosOptions {
            max_steps: 60,
            max_restarts: 4,
            tol: 1e-6,
            seed: cfg.seed,
            threads: cfg.threads,
        };
        let t = rec.open("linalg.lanczos");
        let v = lanczos_fiedler_with_start(&lap, interp, &opts).vector;
        rec.close(t);
        v
    };
    rec.add("linalg.spmv_calls", lap.spmv_calls());
    rec.add("linalg.spmv_rows", lap.spmv_rows());
    x
}

/// Replay of `mlgp_order::nested_dissection` with the multilevel bisector
/// `ml`, MMD below `leaf_size` vertices and separator refinement on (the
/// `NdConfig::mlnd()` settings).
pub fn nested_dissection(
    g: &CsrGraph,
    ml: &MlConfig,
    leaf_size: usize,
    rec: &mut Recorder,
) -> Permutation {
    let root = rec.open("bench.glue");
    let mut seq = Vec::with_capacity(g.n());
    let all: Vec<Vid> = (0..g.n() as Vid).collect();
    order_rec(g, &all, ml, leaf_size, 1, &mut seq, rec);
    let p = Permutation::from_inverse(seq);
    rec.close(root);
    p
}

fn order_rec(
    sub: &CsrGraph,
    orig: &[Vid],
    ml: &MlConfig,
    leaf_size: usize,
    salt: u64,
    seq: &mut Vec<Vid>,
    rec: &mut Recorder,
) {
    let n = sub.n();
    if n == 0 {
        return;
    }
    let mmd = |rec: &mut Recorder, seq: &mut Vec<Vid>| {
        let t = rec.open("order.mmd");
        let p = mmd_order(sub);
        rec.close(t);
        seq.extend(p.iperm().iter().map(|&v| orig[v as usize]));
    };
    if n <= leaf_size {
        mmd(rec, seq);
        return;
    }
    let total = sub.total_vwgt();
    let part = bisect(sub, &ml.reseed(salt), [total / 2, total - total / 2], rec);
    let t = rec.open("order.separator");
    let mut labels = vertex_separator(sub, &part);
    refine_separator(sub, &mut labels, &SepRefineOptions::default());
    rec.close(t);
    let sep_count = labels.iter().filter(|&&l| l == SEPARATOR).count();
    rec.add("order.separator_vertices", sep_count as u64);
    if sep_count == 0 || sep_count == n {
        mmd(rec, seq);
        return;
    }
    let sel_a: Vec<bool> = labels.iter().map(|&l| l == SIDE_A).collect();
    let sel_b: Vec<bool> = labels.iter().map(|&l| l == SIDE_B).collect();
    let t = rec.open("graph.subgraph");
    let sides = [induced_subgraph(sub, &sel_a), induced_subgraph(sub, &sel_b)];
    rec.close(t);
    for (i, side) in sides.iter().enumerate() {
        let side_orig: Vec<Vid> = side.orig.iter().map(|&v| orig[v as usize]).collect();
        order_rec(
            &side.graph,
            &side_orig,
            ml,
            leaf_size,
            salt * 2 + i as u64,
            seq,
            rec,
        );
    }
    seq.extend((0..n).filter(|&v| labels[v] == SEPARATOR).map(|v| orig[v]));
}
