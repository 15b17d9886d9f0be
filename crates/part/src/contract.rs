//! Graph contraction: build `G_{i+1}` from `G_i` and a matching, with a
//! **deterministic parallel two-pass kernel**.
//!
//! Multinode weights are the sums of their constituents' weights, parallel
//! edges fold by summing weights, and internal (contracted) edges disappear
//! from the structure but are accounted in `cewgt` so that HCM can measure
//! edge density at deeper levels. This maintains the key identity the paper
//! uses: `W(E_{i+1}) = W(E_i) − W(M_i)`, and makes the coarse edge-cut of a
//! partition equal the fine edge-cut of its projection.
//!
//! # Parallel scheme (count/fill with prefix-sum merge)
//!
//! The coarse vertex range is split into contiguous shards. **Pass 1**:
//! each shard independently builds the CSR rows it owns into private
//! buffers — per-row dedupe through a shard-local `pos` scratch, rows
//! sorted by coarse neighbor id (the canonical form the [`mlgp_graph`]
//! builder also produces). **Pass 2**: shard buffer lengths are prefix-
//! summed into global offsets and every shard copies its rows into its
//! disjoint slice of the final arrays in parallel.
//!
//! Each coarse row is a pure function of `(g, cmap)` — no cross-shard
//! state — and rows are emitted sorted, so the output is bit-identical for
//! every shard count. `contract(...)` (auto threads) and
//! [`contract_threads`] with any explicit `threads` agree exactly.

use mlgp_graph::{CsrGraph, Vid, Wgt};
use mlgp_linalg::par::shard_ranges;
use rayon::prelude::*;

/// Result of one contraction step.
#[derive(Clone, Debug)]
pub struct Contraction {
    /// The coarser graph.
    pub graph: CsrGraph,
    /// Per-coarse-vertex total weight of edges contracted inside it (input
    /// `cewgt` of both constituents plus the matched edge's weight).
    pub cewgt: Vec<Wgt>,
}

/// Telemetry from one run of the parallel contraction kernel.
#[derive(Clone, Debug, Default)]
pub struct ContractStats {
    /// Coarse-range shards the kernel fanned out to.
    pub shards: usize,
    /// Fine adjacency entries scanned, per shard.
    pub entries: Vec<u64>,
}

/// Contract `g` according to `cmap` (from [`crate::matching::Matching::to_cmap`]).
///
/// `cewgt` carries the contracted-edge weight of each fine vertex (zeros at
/// the finest level).
pub fn contract(g: &CsrGraph, cmap: &[Vid], ncoarse: usize, cewgt: &[Wgt]) -> Contraction {
    contract_threads(g, cmap, ncoarse, cewgt, 0).0
}

/// Per-shard pass-1 output: the CSR rows of one contiguous coarse range.
struct ShardRows {
    lo: usize,
    hi: usize,
    /// Row-end offsets relative to this shard's first entry (len `hi-lo`).
    xadj: Vec<u32>,
    adjncy: Vec<Vid>,
    adjwgt: Vec<Wgt>,
    cvwgt: Vec<Wgt>,
    ccewgt: Vec<Wgt>,
    entries: u64,
}

/// [`contract`] with an explicit shard count (`0` = follow the installed
/// pool, see [`shard_ranges`]) and kernel telemetry. Output is
/// bit-identical for every `threads` value.
pub fn contract_threads(
    g: &CsrGraph,
    cmap: &[Vid],
    ncoarse: usize,
    cewgt: &[Wgt],
    threads: usize,
) -> (Contraction, ContractStats) {
    let n = g.n();
    assert_eq!(cmap.len(), n);
    assert_eq!(cewgt.len(), n);
    // Constituents of each coarse vertex, in coarse order: counting sort.
    // O(n) and shared read-only by every shard.
    let mut ccount = vec![0u32; ncoarse + 1];
    for &c in cmap {
        ccount[c as usize + 1] += 1;
    }
    for i in 0..ncoarse {
        ccount[i + 1] += ccount[i];
    }
    let mut members = vec![0 as Vid; n];
    {
        let mut cursor = ccount[..ncoarse.max(1)].to_vec();
        for v in 0..n as Vid {
            let c = cmap[v as usize] as usize;
            members[cursor[c] as usize] = v;
            cursor[c] += 1;
        }
    }

    // Pass 1: every shard builds its rows privately.
    let mut shards: Vec<ShardRows> = shard_ranges(ncoarse, threads)
        .into_iter()
        .map(|r| ShardRows {
            lo: r.start,
            hi: r.end,
            xadj: Vec::with_capacity(r.len()),
            adjncy: Vec::new(),
            adjwgt: Vec::new(),
            cvwgt: vec![0; r.len()],
            ccewgt: vec![0; r.len()],
            entries: 0,
        })
        .collect();
    shards.par_iter_mut().for_each(|sh| {
        // Scratch: position of coarse neighbor `u` in the row being built,
        // or u32::MAX. Reset incrementally after each row.
        let mut pos = vec![u32::MAX; ncoarse];
        let mut row: Vec<(Vid, Wgt)> = Vec::new();
        for c in sh.lo..sh.hi {
            row.clear();
            let mut internal = 0 as Wgt;
            for &v in &members[ccount[c] as usize..ccount[c + 1] as usize] {
                sh.cvwgt[c - sh.lo] += g.vwgt()[v as usize];
                sh.ccewgt[c - sh.lo] += cewgt[v as usize];
                sh.entries += g.degree(v) as u64;
                for (u, w) in g.adj(v) {
                    let cu = cmap[u as usize];
                    if cu as usize == c {
                        internal += w; // counted from both endpoints => 2w total
                        continue;
                    }
                    let p = pos[cu as usize];
                    if p == u32::MAX {
                        pos[cu as usize] = row.len() as u32;
                        row.push((cu, w));
                    } else {
                        row[p as usize].1 += w;
                    }
                }
            }
            // Each internal edge was seen from both endpoints.
            debug_assert_eq!(internal % 2, 0);
            sh.ccewgt[c - sh.lo] += internal / 2;
            for &(u, _) in row.iter() {
                pos[u as usize] = u32::MAX;
            }
            // Canonical (sorted) row order — shard-count independent.
            row.sort_unstable_by_key(|&(u, _)| u);
            sh.adjncy.extend(row.iter().map(|&(u, _)| u));
            sh.adjwgt.extend(row.iter().map(|&(_, w)| w));
            sh.xadj.push(sh.adjncy.len() as u32);
        }
    });

    // Pass 2: prefix-sum shard lengths, then copy every shard's rows into
    // its disjoint destination slice in parallel.
    let total: usize = shards.iter().map(|sh| sh.adjncy.len()).sum();
    let mut xadj = vec![0u32; ncoarse + 1];
    let mut adjncy = vec![0 as Vid; total];
    let mut adjwgt = vec![0 as Wgt; total];
    let mut cvwgt = vec![0 as Wgt; ncoarse];
    let mut ccewgt = vec![0 as Wgt; ncoarse];
    {
        /// One shard's disjoint destination slices in the final arrays.
        struct Dest<'a> {
            xadj: &'a mut [u32],
            adjncy: &'a mut [Vid],
            adjwgt: &'a mut [Wgt],
            cvwgt: &'a mut [Wgt],
            ccewgt: &'a mut [Wgt],
            base: u32,
            src: &'a ShardRows,
        }
        let mut dests: Vec<Dest<'_>> = Vec::with_capacity(shards.len());
        let (mut xr, mut ar, mut wr, mut vr, mut cr) = (
            &mut xadj[1..],
            &mut adjncy[..],
            &mut adjwgt[..],
            &mut cvwgt[..],
            &mut ccewgt[..],
        );
        let mut base = 0u32;
        for sh in &shards {
            let rows = sh.hi - sh.lo;
            let len = sh.adjncy.len();
            let (xd, xrest) = xr.split_at_mut(rows);
            let (ad, arest) = ar.split_at_mut(len);
            let (wd, wrest) = wr.split_at_mut(len);
            let (vd, vrest) = vr.split_at_mut(rows);
            let (cd, crest) = cr.split_at_mut(rows);
            dests.push(Dest {
                xadj: xd,
                adjncy: ad,
                adjwgt: wd,
                cvwgt: vd,
                ccewgt: cd,
                base,
                src: sh,
            });
            xr = xrest;
            ar = arest;
            wr = wrest;
            vr = vrest;
            cr = crest;
            base += len as u32;
        }
        dests.par_iter_mut().for_each(|d| {
            for (i, &end) in d.src.xadj.iter().enumerate() {
                d.xadj[i] = d.base + end;
            }
            d.adjncy.copy_from_slice(&d.src.adjncy);
            d.adjwgt.copy_from_slice(&d.src.adjwgt);
            d.cvwgt.copy_from_slice(&d.src.cvwgt);
            d.ccewgt.copy_from_slice(&d.src.ccewgt);
        });
    }
    let stats = ContractStats {
        shards: shards.len(),
        entries: shards.iter().map(|sh| sh.entries).collect(),
    };
    (
        Contraction {
            graph: CsrGraph::from_parts_unchecked(xadj, adjncy, cvwgt, adjwgt),
            cewgt: ccewgt,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchingScheme;
    use crate::matching::compute_matching;
    use mlgp_graph::generators::{grid2d, tri_mesh2d};
    use mlgp_graph::rng::seeded;
    use mlgp_graph::GraphBuilder;

    #[test]
    fn contract_square_pairwise() {
        // Square 0-1-2-3-0; match (0,1) and (2,3).
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 0);
        let g = b.build();
        let cmap = vec![0, 0, 1, 1];
        let c = contract(&g, &cmap, 2, &[0; 4]);
        assert_eq!(c.graph.n(), 2);
        assert_eq!(c.graph.m(), 1);
        // Two parallel fine edges (1-2 and 3-0) fold to weight 2.
        assert_eq!(c.graph.edge_weights(0), &[2]);
        assert_eq!(c.graph.vwgt(), &[2, 2]);
        // One unit edge contracted inside each multinode.
        assert_eq!(c.cewgt, vec![1, 1]);
        assert!(c.graph.validate().is_ok());
    }

    #[test]
    fn weight_conservation_identity() {
        // W(E_{i+1}) = W(E_i) − W(M_i) for any matching-based contraction.
        let g = tri_mesh2d(10, 8, 5);
        let cewgt = vec![0; g.n()];
        for scheme in MatchingScheme::all() {
            let m = compute_matching(&g, scheme, &cewgt, &mut seeded(3));
            let matched_weight: Wgt = (0..g.n() as Vid)
                .map(|v| {
                    let p = m.partner[v as usize];
                    if p > v {
                        g.adj(v).find(|&(u, _)| u == p).unwrap().1
                    } else {
                        0
                    }
                })
                .sum();
            let (cmap, nc) = m.to_cmap();
            let c = contract(&g, &cmap, nc, &cewgt);
            assert_eq!(
                c.graph.total_adjwgt(),
                g.total_adjwgt() - matched_weight,
                "{scheme:?}"
            );
            assert_eq!(c.graph.total_vwgt(), g.total_vwgt());
            assert!(c.graph.validate().is_ok());
            // cewgt sums to the total contracted weight.
            assert_eq!(c.cewgt.iter().sum::<Wgt>(), matched_weight);
        }
    }

    #[test]
    fn projected_cut_is_preserved() {
        // A coarse partition's cut equals the projected fine partition's cut.
        let g = grid2d(8, 6);
        let cewgt = vec![0; g.n()];
        let m = compute_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(11));
        let (cmap, nc) = m.to_cmap();
        let c = contract(&g, &cmap, nc, &cewgt);
        // Arbitrary coarse bisection.
        let cpart: Vec<u8> = (0..nc).map(|i| (i % 2) as u8).collect();
        let fpart: Vec<u8> = (0..g.n()).map(|v| cpart[cmap[v] as usize]).collect();
        assert_eq!(
            crate::metrics::edge_cut_bisection(&c.graph, &cpart),
            crate::metrics::edge_cut_bisection(&g, &fpart)
        );
    }

    #[test]
    fn identity_contraction() {
        // Empty matching: coarse graph == fine graph.
        let g = grid2d(4, 4);
        let cmap: Vec<Vid> = (0..g.n() as Vid).collect();
        let c = contract(&g, &cmap, g.n(), &vec![0; g.n()]);
        assert_eq!(c.graph, g);
        assert_eq!(c.cewgt, vec![0; g.n()]);
    }

    #[test]
    fn shard_count_does_not_change_the_graph() {
        let g = tri_mesh2d(20, 16, 9);
        let cewgt = vec![0; g.n()];
        let m = compute_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(7));
        let (cmap, nc) = m.to_cmap();
        let (reference, s1) = contract_threads(&g, &cmap, nc, &cewgt, 1);
        assert_eq!(s1.shards, 1);
        for threads in [2, 3, 8] {
            let (c, st) = contract_threads(&g, &cmap, nc, &cewgt, threads);
            assert_eq!(st.shards, threads);
            assert_eq!(c.graph, reference.graph, "{threads} threads");
            assert_eq!(c.cewgt, reference.cewgt);
        }
        // The parallel kernel scanned every fine adjacency entry exactly once.
        let (_, st) = contract_threads(&g, &cmap, nc, &cewgt, 4);
        assert_eq!(st.entries.iter().sum::<u64>(), g.nnz() as u64);
    }

    #[test]
    fn rows_are_sorted() {
        let g = tri_mesh2d(14, 11, 2);
        let cewgt = vec![0; g.n()];
        let m = compute_matching(&g, MatchingScheme::Random, &cewgt, &mut seeded(4));
        let (cmap, nc) = m.to_cmap();
        let c = contract(&g, &cmap, nc, &cewgt);
        for v in 0..c.graph.n() as Vid {
            let nb = c.graph.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "row {v} not sorted");
        }
    }
}
