//! Elimination trees and symbolic Cholesky statistics.
//!
//! Given a graph (the structure of a symmetric matrix) and an elimination
//! ordering, compute the elimination tree (Liu's algorithm with path
//! compression), the exact column counts of the Cholesky factor via row
//! subtree traversal, and from them the quantities §4.3 compares: factor
//! nonzeros, factorization operation count, and elimination tree height
//! (the paper's concurrency argument for nested dissection over MMD).

use mlgp_graph::{CsrGraph, Permutation};

/// Elimination tree in elimination order: `parent[j]` is the parent of the
/// j-th eliminated vertex (also in elimination order), or `u32::MAX` for
/// roots.
pub fn elimination_tree(g: &CsrGraph, p: &Permutation) -> Vec<u32> {
    const NONE: u32 = u32::MAX;
    let n = g.n();
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for j in 0..n as u32 {
        let v = p.iperm()[j as usize]; // original vertex eliminated at step j
        for &u in g.neighbors(v) {
            // Walk from each earlier-eliminated neighbor up to its root,
            // compressing paths onto j.
            let mut i = p.perm()[u as usize];
            if i >= j {
                continue;
            }
            while ancestor[i as usize] != NONE && ancestor[i as usize] != j {
                let next = ancestor[i as usize];
                ancestor[i as usize] = j;
                i = next;
            }
            if ancestor[i as usize] == NONE {
                ancestor[i as usize] = j;
                parent[i as usize] = j;
            }
        }
    }
    parent
}

/// Exact column counts of the Cholesky factor, **excluding** the diagonal,
/// indexed by elimination step. `O(nnz(L))` row-subtree traversal.
pub fn column_counts(g: &CsrGraph, p: &Permutation, parent: &[u32]) -> Vec<u64> {
    const NONE: u32 = u32::MAX;
    let n = g.n();
    let mut counts = vec![0u64; n];
    // marker[j] == i means column j was already visited for row i.
    let mut marker = vec![NONE; n];
    for i in 0..n as u32 {
        let v = p.iperm()[i as usize];
        marker[i as usize] = i;
        for &u in g.neighbors(v) {
            let mut j = p.perm()[u as usize];
            if j >= i {
                continue;
            }
            // Climb the elimination tree from j toward i; every column on
            // the way gains a nonzero in row i (fill-path theorem).
            while marker[j as usize] != i {
                marker[j as usize] = i;
                counts[j as usize] += 1;
                let pj = parent[j as usize];
                debug_assert_ne!(pj, NONE, "etree inconsistent with ordering");
                if pj == NONE {
                    break;
                }
                j = pj;
            }
        }
    }
    counts
}

/// Height of the elimination tree (longest root-to-leaf path, in vertices).
/// Lower is better for parallel factorization.
pub fn etree_height(parent: &[u32]) -> usize {
    const NONE: u32 = u32::MAX;
    let n = parent.len();
    let mut depth = vec![0u32; n];
    let mut best = 0;
    // parent[j] > j always, so a forward sweep computes depths bottom-up
    // ... actually children come before parents in elimination order, so
    // iterate ascending and push depth to the parent.
    for j in 0..n {
        let d = depth[j] + 1;
        best = best.max(d);
        let pj = parent[j];
        if pj != NONE {
            depth[pj as usize] = depth[pj as usize].max(d);
        }
    }
    best as usize
}

/// Symbolic factorization summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SymbolicStats {
    /// Nonzeros of the Cholesky factor `L`, including the diagonal.
    pub nnz_l: u64,
    /// Factorization operation count `Σ_j ℓ_j (ℓ_j + 3) / 2` where `ℓ_j` is
    /// the off-diagonal count of column `j` (classic George-Liu opcount).
    pub opcount: f64,
    /// Elimination tree height (concurrency proxy; smaller = more
    /// parallelism).
    pub height: usize,
}

/// Analyze the fill-reducing quality of an ordering.
pub fn analyze_ordering(g: &CsrGraph, p: &Permutation) -> SymbolicStats {
    assert_eq!(g.n(), p.len());
    let parent = elimination_tree(g, p);
    let counts = column_counts(g, p, &parent);
    let nnz_l = g.n() as u64 + counts.iter().sum::<u64>();
    // Fold from +0.0: `f64::sum` starts at -0.0, which an empty graph
    // would report (and print) as a negative zero.
    let opcount = counts.iter().fold(0.0, |acc, &c| {
        let c = c as f64;
        acc + c * (c + 3.0) / 2.0
    });
    SymbolicStats {
        nnz_l,
        opcount,
        height: etree_height(&parent),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::grid2d;
    use mlgp_graph::GraphBuilder;
    use mlgp_graph::Vid;

    fn path(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as Vid, i as Vid + 1);
        }
        b.build()
    }

    #[test]
    fn path_natural_order_no_fill() {
        // Tridiagonal matrix in natural order: L is bidiagonal, zero fill.
        let g = path(6);
        let p = Permutation::identity(6);
        let s = analyze_ordering(&g, &p);
        assert_eq!(s.nnz_l, 6 + 5);
        assert_eq!(s.height, 6); // etree is a chain
        assert!((s.opcount - 5.0 * 2.0).abs() < 1e-12); // each ℓ_j = 1 => 2 ops
    }

    #[test]
    fn empty_graph_has_positive_zero_opcount() {
        let g = GraphBuilder::new(0).build();
        let s = analyze_ordering(&g, &Permutation::identity(0));
        assert_eq!(s.opcount.to_bits(), 0.0f64.to_bits());
        assert_eq!(format!("{:.3e}", s.opcount), "0.000e0");
        assert_eq!((s.nnz_l, s.height), (0, 0));
    }

    #[test]
    fn path_worst_order_fills() {
        // Eliminating the middle of a path first creates fill.
        let g = path(5);
        // Order: 2 first, then 0,1,3,4.
        let p = Permutation::from_inverse(vec![2, 0, 1, 3, 4]);
        let s = analyze_ordering(&g, &p);
        let natural = analyze_ordering(&g, &Permutation::identity(5));
        assert!(s.nnz_l > natural.nnz_l, "{} vs {}", s.nnz_l, natural.nnz_l);
    }

    #[test]
    fn star_center_last_is_optimal() {
        // Star K1,4: eliminating leaves first gives zero fill; center first
        // fills completely.
        let mut b = GraphBuilder::new(5);
        for i in 1..5 {
            b.add_edge(0, i);
        }
        let g = b.build();
        let center_last = Permutation::from_inverse(vec![1, 2, 3, 4, 0]);
        let center_first = Permutation::from_inverse(vec![0, 1, 2, 3, 4]);
        let good = analyze_ordering(&g, &center_last);
        let bad = analyze_ordering(&g, &center_first);
        assert_eq!(good.nnz_l, 5 + 4);
        // Center first: clique on remaining 4 => dense L.
        assert_eq!(bad.nnz_l, 5 + 4 + 3 + 2 + 1);
        assert!(good.opcount < bad.opcount);
        // Star ordered leaves-first has a flat etree.
        assert_eq!(good.height, 2);
    }

    #[test]
    fn etree_of_path_identity_is_chain() {
        let g = path(4);
        let parent = elimination_tree(&g, &Permutation::identity(4));
        assert_eq!(parent, vec![1, 2, 3, u32::MAX]);
    }

    #[test]
    fn counts_match_dense_simulation_on_grid() {
        // Brute-force symbolic elimination on a small grid must agree.
        let g = grid2d(4, 4);
        let p = Permutation::identity(16);
        let s = analyze_ordering(&g, &p);
        // Brute force: maintain adjacency sets, eliminate in order.
        let n = 16usize;
        let mut adj: Vec<std::collections::BTreeSet<usize>> = (0..n)
            .map(|v| g.neighbors(v as Vid).iter().map(|&u| u as usize).collect())
            .collect();
        let mut nnz = n as u64;
        let mut ops = 0.0;
        for v in 0..n {
            let higher: Vec<usize> = adj[v].iter().copied().filter(|&u| u > v).collect();
            nnz += higher.len() as u64;
            let l = higher.len() as f64;
            ops += l * (l + 3.0) / 2.0;
            for i in 0..higher.len() {
                for j in (i + 1)..higher.len() {
                    let (a, b) = (higher[i], higher[j]);
                    adj[a].insert(b);
                    adj[b].insert(a);
                }
            }
        }
        assert_eq!(s.nnz_l, nnz);
        assert!((s.opcount - ops).abs() < 1e-9, "{} vs {}", s.opcount, ops);
    }

    #[test]
    fn permutation_of_labels_does_not_change_natural_stats() {
        // Analyzing (g, p) must equal analyzing (permuted graph, identity).
        let g = grid2d(5, 3);
        let p = Permutation::from_forward((0..15u32).map(|i| (i * 7) % 15).collect());
        let s1 = analyze_ordering(&g, &p);
        let gp = mlgp_graph::permute_graph(&g, &p);
        let s2 = analyze_ordering(&gp, &Permutation::identity(15));
        assert_eq!(s1, s2);
    }
}
