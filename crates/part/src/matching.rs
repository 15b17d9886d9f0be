//! Maximal matchings for coarsening (§3.1 of the paper), computed by a
//! **deterministic parallel kernel**.
//!
//! All four schemes pick, for each vertex, the unmatched neighbor that
//! maximizes a scheme-specific edge score:
//!
//! * **RM** scores edges by a seeded hash (a random maximal matching);
//! * **HEM** scores by edge weight (maximizing the matched weight `W(M)`
//!   and hence, since `W(E_{i+1}) = W(E_i) − W(M_i)`, minimizing the coarse
//!   graph's edge weight);
//! * **LEM** scores by negated weight (the contrast scheme);
//! * **HCM** scores by the *edge density* of the merged multinode,
//!   `(cewgt(u) + cewgt(v) + w(u,v)) / (s(s−1)/2)` with
//!   `s = vwgt(u) + vwgt(v)`, approximating the clique-finding coarseners.
//!
//! # The claim protocol (determinism contract)
//!
//! The kernel runs *handshake rounds* over vertex-range shards:
//!
//! 1. **Propose** — every unmatched vertex computes, in parallel, its best
//!    unmatched neighbor under the total order `(score, rmin, rmax)`, where
//!    `rmin`/`rmax` are the smaller/larger of the two endpoints' ranks in a
//!    seeded random permutation, packed into one `u128`. The key is
//!    *symmetric* (both endpoints compute the same key for the same edge)
//!    and *strict* (ranks are distinct), so the relation "u is v's best"
//!    admits no score cycles. A vertex whose previous proposal is still
//!    unmatched keeps it without scanning: within one matching the set of
//!    unmatched neighbors only shrinks and keys never change, so an argmax
//!    still in the set is still the argmax. Only vertices whose candidate
//!    was claimed by someone else rescan.
//! 2. **Claim** — mutual proposals (`proposal[v] == u && proposal[u] == v`)
//!    commit the pair: the lower-id endpoint claims both match slots with
//!    compare-and-swap. Every slot is claimed at most once per round (the
//!    mutual partner is unique), so each CAS succeeds exactly once and the
//!    resulting `partner` array is independent of thread scheduling.
//!
//! Because the globally maximal available edge is always mutual, every
//! round matches at least one pair; the loop ends when no unmatched vertex
//! has an unmatched neighbor, i.e. the matching is **maximal**. A bounded
//! round count guards pathological inputs (monotone weight chains); past
//! the bound a sequential rank-order sweep — itself thread-independent —
//! finishes the matching. The result is therefore a pure function of
//! `(graph, scheme, seed)`: same seed + any thread count → same matching.
//!
//! All schemes run in `O(|E|)` per round; on meshes the active set decays
//! geometrically, giving `O(|E| log |V|)` worst-case. Since only vertices
//! whose candidate was taken rescan, the measured total scan work (entries
//! scanned ÷ adjacency entries, the benchmark's `part.match_scan_ratio`) is
//! 4.3 passes on the `order-fem3d` workload and 1.7 on `kway-road`.

use crate::config::MatchingScheme;
use mlgp_graph::rng::random_order;
use mlgp_graph::{CsrGraph, Vid, Wgt};
use rand::Rng;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// A matching: `partner[v] == v` iff `v` is unmatched.
#[derive(Clone, Debug)]
pub struct Matching {
    /// Matched partner of each vertex (self if unmatched).
    pub partner: Vec<Vid>,
    /// Number of matched pairs.
    pub pairs: usize,
}

/// Telemetry from one run of the parallel matching kernel.
#[derive(Clone, Debug, Default)]
pub struct MatchStats {
    /// Handshake rounds executed (0 for the empty graph).
    pub rounds: usize,
    /// Vertex-range shards the kernel fanned out to.
    pub shards: usize,
    /// Whether the bounded-round sequential sweep had to finish the job.
    pub fallback: bool,
    /// Adjacency entries scanned, per shard (cumulative over rounds). A
    /// proposal kept without a rescan scans nothing.
    pub edges_scanned: Vec<u64>,
}

impl Matching {
    /// Validate matching invariants: symmetry and no double-matching.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), String> {
        if self.partner.len() != g.n() {
            return Err("partner length mismatch".into());
        }
        let mut pairs = 0;
        for v in 0..g.n() as Vid {
            let p = self.partner[v as usize];
            if p as usize >= g.n() {
                return Err(format!("partner of {v} out of range"));
            }
            if self.partner[p as usize] != v {
                return Err(format!("matching not symmetric at {v}"));
            }
            if p != v {
                if !g.neighbors(v).contains(&p) {
                    return Err(format!("matched pair ({v},{p}) is not an edge"));
                }
                if p > v {
                    pairs += 1;
                }
            }
        }
        if pairs != self.pairs {
            return Err(format!("pair count {} != recorded {}", pairs, self.pairs));
        }
        Ok(())
    }

    /// Check maximality: no edge with both endpoints unmatched.
    pub fn is_maximal(&self, g: &CsrGraph) -> bool {
        for v in 0..g.n() as Vid {
            if self.partner[v as usize] == v {
                for &u in g.neighbors(v) {
                    if self.partner[u as usize] == u {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Derive the coarse-vertex map: `(cmap, ncoarse)` where matched pairs
    /// share a coarse id. Coarse ids are assigned in fine-vertex order.
    pub fn to_cmap(&self) -> (Vec<Vid>, usize) {
        let n = self.partner.len();
        let mut cmap = vec![Vid::MAX; n];
        let mut next = 0 as Vid;
        for v in 0..n as Vid {
            if cmap[v as usize] == Vid::MAX {
                cmap[v as usize] = next;
                let p = self.partner[v as usize];
                if p != v {
                    cmap[p as usize] = next;
                }
                next += 1;
            }
        }
        (cmap, next as usize)
    }
}

/// Sentinel for "no proposal".
const NONE: u32 = u32::MAX;

/// Below this vertex count the auto-threaded kernel stays on one shard
/// (spawn overhead would dominate). Explicit thread requests are honored
/// exactly, whatever the size — the result is identical either way.
pub(crate) const MIN_PARALLEL_N: usize = 8192;

/// Hard bound on handshake rounds before the sequential sweep takes over.
fn max_rounds(n: usize) -> usize {
    2 * usize::BITS.saturating_sub(n.leading_zeros()) as usize + 8
}

/// Compute a maximal matching with the given scheme (auto thread count).
///
/// `cewgt[v]` is the total weight of edges already contracted inside
/// multinode `v` (zeros at the finest level); only HCM consults it.
pub fn compute_matching<R: Rng>(
    g: &CsrGraph,
    scheme: MatchingScheme,
    cewgt: &[Wgt],
    rng: &mut R,
) -> Matching {
    compute_matching_threads(g, scheme, cewgt, rng, 0).0
}

/// [`compute_matching`] with an explicit thread count (`0` = the rayon
/// fan-out) and kernel telemetry. The matching is bit-identical for every
/// `threads` value — parallelism only changes who computes it.
pub fn compute_matching_threads<R: Rng>(
    g: &CsrGraph,
    scheme: MatchingScheme,
    cewgt: &[Wgt],
    rng: &mut R,
    threads: usize,
) -> (Matching, MatchStats) {
    let n = g.n();
    assert_eq!(cewgt.len(), n);
    // Seeded inputs, drawn identically whatever the thread count: a rank
    // permutation (tie-breaking) and a salt (RM's edge hashing).
    let order = random_order(rng, n);
    let salt = rng.next_u64();
    let mut rank = vec![0u32; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v as usize] = i as u32;
    }
    let nshards = resolve_shards(n, threads);
    let score = Scorer {
        scheme,
        salt,
        g,
        cewgt,
    };

    let partner: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let proposal: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NONE)).collect();
    let mut shards: Vec<Shard> = shard_bounds(n, nshards)
        .into_iter()
        .map(|(lo, hi)| Shard {
            active: (lo as u32..hi as u32).collect(),
            pairs: 0,
            edges: 0,
        })
        .collect();

    let mut stats = MatchStats {
        rounds: 0,
        shards: nshards,
        fallback: false,
        edges_scanned: Vec::new(),
    };
    let bound = max_rounds(n);
    loop {
        // Propose: each shard refreshes proposals for its still-active
        // vertices; vertices with no unmatched neighbor retire for good
        // (matched neighbors never come back).
        shards
            .par_iter_mut()
            .enumerate()
            .with_min_len(1)
            .for_each(|(_, sh)| {
                let mut scanned = 0u64;
                // RELAXED: phase-local single-writer slots. During the
                // propose phase `partner` is read-only and `proposal[v]`
                // is written only by the shard that owns `v`; the
                // happens-before edge between rounds is the rayon
                // fork/join barrier, not the atomics themselves.
                sh.active.retain(|&v| {
                    if partner[v as usize].load(Ordering::Relaxed) != v {
                        proposal[v as usize].store(NONE, Ordering::Relaxed);
                        return false;
                    }
                    // A still-unmatched candidate is still the argmax: the
                    // unmatched neighbors only shrink and keys never change.
                    let prev = proposal[v as usize].load(Ordering::Relaxed);
                    if prev != NONE && partner[prev as usize].load(Ordering::Relaxed) == prev {
                        return true;
                    }
                    scanned += g.degree(v) as u64;
                    match best_candidate(g, v, &partner, &rank, &score) {
                        Some(u) => {
                            proposal[v as usize].store(u, Ordering::Relaxed);
                            true
                        }
                        None => {
                            proposal[v as usize].store(NONE, Ordering::Relaxed);
                            false
                        }
                    }
                });
                sh.edges += scanned;
            });
        let active_total: usize = shards.iter().map(|sh| sh.active.len()).sum();
        if active_total == 0 {
            break;
        }
        // Claim: commit mutual proposals. The lower-id endpoint claims both
        // slots; each CAS targets a slot no other pair can claim, so the
        // outcome is schedule-independent.
        shards
            .par_iter_mut()
            .enumerate()
            .with_min_len(1)
            .for_each(|(_, sh)| {
                // RELAXED: the proposals read here were published by the
                // propose phase's fork/join barrier. Each CAS targets a
                // slot that only the unique lower endpoint of a mutual
                // pair ever claims (so it cannot be contended), and the
                // claimed partners are next read after the round barrier.
                for &v in &sh.active {
                    let u = proposal[v as usize].load(Ordering::Relaxed);
                    if u == NONE || u <= v {
                        continue;
                    }
                    if proposal[u as usize].load(Ordering::Relaxed) == v {
                        let a = partner[v as usize].compare_exchange(
                            v,
                            u,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                        let b = partner[u as usize].compare_exchange(
                            u,
                            v,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                        debug_assert!(a.is_ok() && b.is_ok(), "claim slot contended");
                        sh.pairs += 1;
                    }
                }
            });
        stats.rounds += 1;
        // Progress is guaranteed (the max-key available edge is mutual),
        // but guard both a theory violation and pathological round counts
        // with the deterministic sequential sweep.
        let made_progress = shards.iter().any(|sh| sh.pairs > 0);
        if stats.rounds >= bound || !made_progress {
            sequential_sweep(g, &order, &partner, &rank, &score);
            stats.fallback = true;
            break;
        }
        for sh in shards.iter_mut() {
            sh.pairs = 0;
        }
    }
    stats.edges_scanned = shards.iter().map(|sh| sh.edges).collect();

    let partner: Vec<Vid> = partner.into_iter().map(AtomicU32::into_inner).collect();
    let pairs = (0..n as Vid)
        .filter(|&v| {
            let p = partner[v as usize];
            p != v && p > v
        })
        .count();
    (Matching { partner, pairs }, stats)
}

/// Per-shard kernel state: the vertices of one contiguous range that are
/// still unmatched and still have unmatched neighbors.
struct Shard {
    active: Vec<Vid>,
    pairs: u64,
    edges: u64,
}

/// Shard count: explicit requests are honored exactly (so tests can force
/// any fan-out); auto mode follows the rayon fan-out with a size floor.
pub(crate) fn resolve_shards(n: usize, threads: usize) -> usize {
    let t = if threads == 0 {
        if n < MIN_PARALLEL_N {
            1
        } else {
            rayon::current_num_threads()
        }
    } else {
        threads
    };
    t.clamp(1, n.max(1))
}

/// Even contiguous vertex ranges, one per shard.
pub(crate) fn shard_bounds(n: usize, nshards: usize) -> Vec<(usize, usize)> {
    (0..nshards)
        .map(|i| (i * n / nshards, (i + 1) * n / nshards))
        .collect()
}

/// Scheme-specific edge scoring. Scores are pure functions of the edge and
/// the seed — never of thread count or visit order.
struct Scorer<'a> {
    scheme: MatchingScheme,
    salt: u64,
    g: &'a CsrGraph,
    cewgt: &'a [Wgt],
}

impl Scorer<'_> {
    #[inline]
    fn score(&self, v: Vid, u: Vid, w: Wgt) -> f64 {
        match self.scheme {
            MatchingScheme::Random => {
                // Symmetric seeded hash → uniform in [0, 1).
                let (a, b) = (v.min(u) as u64, v.max(u) as u64);
                let h = splitmix64(self.salt ^ (a << 32 | b));
                (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
            }
            MatchingScheme::HeavyEdge => w as f64,
            MatchingScheme::LightEdge => -(w as f64),
            MatchingScheme::HeavyClique => {
                let s = (self.g.vwgt()[v as usize] + self.g.vwgt()[u as usize]) as f64;
                let max_internal = s * (s - 1.0) / 2.0;
                let internal = (self.cewgt[v as usize] + self.cewgt[u as usize] + w) as f64;
                if max_internal > 0.0 {
                    internal / max_internal
                } else {
                    0.0
                }
            }
        }
    }
}

/// SplitMix64 — the same mixer the vendored rand shim seeds with.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Order-preserving map of a non-NaN `f64` to `u64`: `a < b` iff
/// `ord_bits(a) < ord_bits(b)`, and `-0.0` folds into `+0.0` so that equal
/// floats get equal bits. Every non-NaN value maps above 0.
#[inline]
fn ord_bits(x: f64) -> u64 {
    let b = (x + 0.0).to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// Best unmatched neighbor of `v` under the symmetric edge key, or `None`.
///
/// The key of edge `(v, u)` is `(score, rmin, rmax)` packed into one
/// integer, where `rmin`/`rmax` are the smaller/larger endpoint ranks. Both
/// endpoints compute the same key, and distinct ranks make it strict, which
/// rules out proposal cycles (the globally maximal available edge is always
/// mutual). Matched neighbors get key 0, below every real key.
#[inline]
fn best_candidate(
    g: &CsrGraph,
    v: Vid,
    partner: &[AtomicU32],
    rank: &[u32],
    score: &Scorer<'_>,
) -> Option<Vid> {
    let rv = rank[v as usize];
    let (mut best, mut best_u) = (0u128, NONE);
    for (u, w) in g.adj(v) {
        let ru = rank[u as usize];
        let key = (ord_bits(score.score(v, u, w)) as u128) << 64
            | (rv.min(ru) as u128) << 32
            | rv.max(ru) as u128;
        // RELAXED: `partner` is frozen during the propose phase (claims
        // happen in the next phase, after a fork/join barrier), so this
        // read needs no ordering; in the sequential sweep there is only
        // one thread at all.
        let key = if partner[u as usize].load(Ordering::Relaxed) == u {
            key
        } else {
            0
        };
        if key > best {
            best = key;
            best_u = u;
        }
    }
    (best_u != NONE).then_some(best_u)
}

/// Deterministic sequential finisher: greedy sweep in rank order, matching
/// each still-unmatched vertex with its best available neighbor. Runs on
/// one thread whatever `threads` was, so it cannot break determinism; it
/// restores maximality whenever the round bound cuts the handshake short.
fn sequential_sweep(
    g: &CsrGraph,
    order: &[Vid],
    partner: &[AtomicU32],
    rank: &[u32],
    score: &Scorer<'_>,
) {
    for &v in order {
        // RELAXED: single-threaded finisher — it runs after the parallel
        // rounds' final join barrier, so program order alone sequences
        // every access to the `partner` slots.
        if partner[v as usize].load(Ordering::Relaxed) != v {
            continue;
        }
        if let Some(u) = best_candidate(g, v, partner, rank, score) {
            partner[v as usize].store(u, Ordering::Relaxed);
            partner[u as usize].store(v, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::{grid2d, powerlaw, tri_mesh2d};
    use mlgp_graph::rng::seeded;
    use mlgp_graph::GraphBuilder;

    fn check_all_schemes(g: &CsrGraph) {
        let cewgt = vec![0; g.n()];
        for scheme in MatchingScheme::all() {
            let mut rng = seeded(17);
            let m = compute_matching(g, scheme, &cewgt, &mut rng);
            m.validate(g).unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            assert!(m.is_maximal(g), "{scheme:?} not maximal");
        }
    }

    #[test]
    fn valid_and_maximal_on_grid() {
        check_all_schemes(&grid2d(9, 7));
    }

    #[test]
    fn valid_and_maximal_on_mesh() {
        check_all_schemes(&tri_mesh2d(12, 9, 3));
    }

    #[test]
    fn hem_prefers_heavy_edges() {
        // Star: center 0 with edges of weight 1,1,10 to 1,2,3. HEM must
        // take the weight-10 edge whatever the seed.
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1)
            .add_weighted_edge(0, 2, 1)
            .add_weighted_edge(0, 3, 10);
        let g = b.build();
        for seed in 0..8 {
            let m = compute_matching(&g, MatchingScheme::HeavyEdge, &[0; 4], &mut seeded(seed));
            assert_eq!(m.partner[0], 3, "seed {seed}");
            let l = compute_matching(&g, MatchingScheme::LightEdge, &[0; 4], &mut seeded(seed));
            assert!(l.partner[0] == 1 || l.partner[0] == 2, "seed {seed}");
        }
    }

    #[test]
    fn matched_weight_hem_ge_lem() {
        // On a weighted mesh, HEM's matched weight should (statistically)
        // dominate LEM's; with a fixed seed this is deterministic.
        let mut b = GraphBuilder::new(36);
        let g0 = grid2d(6, 6);
        for v in 0..36u32 {
            for (u, _) in g0.adj(v) {
                if u > v {
                    b.add_weighted_edge(v, u, 1 + ((v * 7 + u * 13) % 9) as i64);
                }
            }
        }
        let g = b.build();
        let cewgt = vec![0; g.n()];
        let weight_of = |m: &Matching| -> Wgt {
            (0..g.n() as Vid)
                .map(|v| {
                    let p = m.partner[v as usize];
                    if p > v {
                        g.adj(v).find(|&(u, _)| u == p).map(|(_, w)| w).unwrap_or(0)
                    } else {
                        0
                    }
                })
                .sum()
        };
        let hem = compute_matching(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(5));
        let lem = compute_matching(&g, MatchingScheme::LightEdge, &cewgt, &mut seeded(5));
        assert!(weight_of(&hem) > weight_of(&lem));
    }

    #[test]
    fn cmap_assigns_shared_ids() {
        let m = Matching {
            partner: vec![1, 0, 2, 4, 3],
            pairs: 2,
        };
        let (cmap, nc) = m.to_cmap();
        assert_eq!(nc, 3);
        assert_eq!(cmap[0], cmap[1]);
        assert_eq!(cmap[3], cmap[4]);
        assert_ne!(cmap[0], cmap[2]);
        assert!(cmap.iter().all(|&c| (c as usize) < nc));
    }

    #[test]
    fn empty_and_single_vertex() {
        let g = GraphBuilder::new(1).build();
        let m = compute_matching(&g, MatchingScheme::HeavyEdge, &[0], &mut seeded(1));
        assert_eq!(m.pairs, 0);
        let (cmap, nc) = m.to_cmap();
        assert_eq!((cmap, nc), (vec![0], 1));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid2d(8, 8);
        let cewgt = vec![0; g.n()];
        let a = compute_matching(&g, MatchingScheme::Random, &cewgt, &mut seeded(9));
        let b = compute_matching(&g, MatchingScheme::Random, &cewgt, &mut seeded(9));
        assert_eq!(a.partner, b.partner);
    }

    #[test]
    fn thread_count_does_not_change_the_matching() {
        let g = tri_mesh2d(24, 18, 7);
        let cewgt = vec![0; g.n()];
        for scheme in MatchingScheme::all() {
            let (reference, s1) = compute_matching_threads(&g, scheme, &cewgt, &mut seeded(33), 1);
            assert_eq!(s1.shards, 1);
            for threads in [2, 3, 8] {
                let (m, st) =
                    compute_matching_threads(&g, scheme, &cewgt, &mut seeded(33), threads);
                assert_eq!(st.shards, threads);
                assert_eq!(
                    m.partner, reference.partner,
                    "{scheme:?} @ {threads} threads"
                );
                assert_eq!(m.pairs, reference.pairs);
            }
        }
    }

    /// Monotone-weight path: every vertex proposes toward the heavy end,
    /// so each handshake round matches exactly one pair — the worst case
    /// that trips the round bound and exercises the sequential sweep.
    fn monotone_chain(n: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n - 1 {
            b.add_weighted_edge(v, v + 1, (v + 1) as i64);
        }
        b.build()
    }

    #[test]
    fn round_bound_fallback_still_maximal_and_deterministic() {
        let g = monotone_chain(600);
        let cewgt = vec![0; g.n()];
        let (m1, s1) =
            compute_matching_threads(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(2), 1);
        let (m4, s4) =
            compute_matching_threads(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(2), 4);
        assert!(
            s1.fallback && s4.fallback,
            "expected the round bound to trip"
        );
        assert_eq!(m1.partner, m4.partner);
        m1.validate(&g).unwrap();
        assert!(m1.is_maximal(&g));
    }

    /// The protocol without lazy re-proposal or packed keys: tuple keys
    /// compared branch by branch, and every active vertex rescans every
    /// round. Returns the partner array and the adjacency entries scanned.
    fn reference_matching(
        g: &CsrGraph,
        scheme: MatchingScheme,
        cewgt: &[Wgt],
        seed: u64,
    ) -> (Vec<Vid>, u64) {
        let n = g.n();
        let mut rng = seeded(seed);
        let order = random_order(&mut rng, n);
        let salt = rng.next_u64();
        let mut rank = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        let score = Scorer {
            scheme,
            salt,
            g,
            cewgt,
        };
        let key_gt = |a: (f64, u32, u32), b: (f64, u32, u32)| {
            a.0 > b.0 || (a.0 == b.0 && (a.1 > b.1 || (a.1 == b.1 && a.2 > b.2)))
        };
        let best = |partner: &[Vid], v: Vid| {
            let mut best: Option<((f64, u32, u32), Vid)> = None;
            for (u, w) in g.adj(v) {
                if partner[u as usize] != u {
                    continue;
                }
                let (rv, ru) = (rank[v as usize], rank[u as usize]);
                let key = (score.score(v, u, w), rv.min(ru), rv.max(ru));
                if best.is_none_or(|(bk, _)| key_gt(key, bk)) {
                    best = Some((key, u));
                }
            }
            best.map(|(_, u)| u)
        };
        let mut partner: Vec<Vid> = (0..n as Vid).collect();
        let mut proposal = vec![NONE; n];
        let mut active: Vec<Vid> = (0..n as Vid).collect();
        let (mut scanned, mut rounds) = (0u64, 0);
        loop {
            active.retain(|&v| {
                proposal[v as usize] = NONE;
                if partner[v as usize] != v {
                    return false;
                }
                scanned += g.degree(v) as u64;
                best(&partner, v)
                    .inspect(|&u| proposal[v as usize] = u)
                    .is_some()
            });
            if active.is_empty() {
                break;
            }
            let mut pairs = 0;
            for &v in &active {
                let u = proposal[v as usize];
                if u != NONE && u > v && proposal[u as usize] == v {
                    partner[v as usize] = u;
                    partner[u as usize] = v;
                    pairs += 1;
                }
            }
            rounds += 1;
            if rounds >= max_rounds(n) || pairs == 0 {
                for &v in &order {
                    if partner[v as usize] == v {
                        if let Some(u) = best(&partner, v) {
                            partner[v as usize] = u;
                            partner[u as usize] = v;
                        }
                    }
                }
                break;
            }
        }
        (partner, scanned)
    }

    #[test]
    fn lazy_packed_kernel_equals_full_rescan_reference() {
        let weighted = |g0: &CsrGraph, w: &dyn Fn(Vid, Vid) -> Wgt| {
            let mut b = GraphBuilder::new(g0.n());
            for v in 0..g0.n() as Vid {
                for (u, _) in g0.adj(v) {
                    if u > v {
                        b.add_weighted_edge(v, u, w(v, u));
                    }
                }
            }
            b
        };
        // Many tied weights: only the rank tie-break separates candidates.
        let tied = weighted(&grid2d(23, 17), &|v, u| 1 + ((v * u) % 3) as Wgt).build();
        // HCM with multinode weights and contracted edge weight.
        let mut b = weighted(&tri_mesh2d(19, 13, 4), &|v, u| 1 + ((v + 2 * u) % 5) as Wgt);
        b.set_vertex_weights((0..b.n() as Wgt).map(|v| 1 + v % 4).collect());
        let hcm = b.build();
        let hcm_cewgt: Vec<Wgt> = (0..hcm.n() as Wgt).map(|v| (v * 7) % 6).collect();
        let cases = [
            ("grid", grid2d(31, 22), None),
            ("tri-mesh", tri_mesh2d(24, 18, 7), None),
            ("power-law", powerlaw(900, 3, 5), None),
            ("tied", tied, None),
            ("hcm", hcm, Some(hcm_cewgt)),
            ("chain", monotone_chain(600), None),
        ];
        for (name, g, cewgt) in &cases {
            let cewgt = cewgt.clone().unwrap_or_else(|| vec![0; g.n()]);
            for scheme in MatchingScheme::all() {
                let (expect, ref_scanned) = reference_matching(g, scheme, &cewgt, 21);
                for threads in [1, 2, 3, 8] {
                    let (m, st) =
                        compute_matching_threads(g, scheme, &cewgt, &mut seeded(21), threads);
                    assert_eq!(m.partner, expect, "{name} {scheme:?} @ {threads} threads");
                    let scanned: u64 = st.edges_scanned.iter().sum();
                    assert!(
                        scanned <= ref_scanned,
                        "{name} {scheme:?} @ {threads}: {scanned} > {ref_scanned}"
                    );
                }
            }
        }
    }

    #[test]
    fn ord_bits_is_strictly_monotone_and_folds_signed_zero() {
        let mut xs = vec![
            f64::NEG_INFINITY,
            -1e300,
            -(u32::MAX as f64),
            -7.0,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            0.0,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
            0.5,
            2.0 / 3.0,
            5.0 / 6.0,
            1.0,
            7.0 / 6.0,
            3.0,
            (1u64 << 53) as f64,
            1e300,
            f64::INFINITY,
        ];
        // RM's hash values: `k · 2⁻⁵³` in [0, 1).
        let unit = 1.0 / (1u64 << 53) as f64;
        xs.extend(
            [1u64, 2, 3, 1 << 20, (1 << 52) - 1, 1 << 52, (1 << 53) - 1].map(|k| k as f64 * unit),
        );
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        for w in xs.windows(2) {
            assert!(w[0] < w[1]);
            assert!(ord_bits(w[0]) < ord_bits(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert!(
            ord_bits(f64::NEG_INFINITY) > 0,
            "matched neighbors' key 0 must stay lowest"
        );
        assert_eq!(ord_bits(-0.0), ord_bits(0.0));
    }

    #[test]
    fn stats_report_scanning_work() {
        let g = grid2d(40, 40);
        let cewgt = vec![0; g.n()];
        let (_, st) =
            compute_matching_threads(&g, MatchingScheme::HeavyEdge, &cewgt, &mut seeded(1), 4);
        assert_eq!(st.shards, 4);
        assert_eq!(st.edges_scanned.len(), 4);
        assert!(st.rounds >= 1);
        assert!(st.edges_scanned.iter().sum::<u64>() >= g.nnz() as u64);
    }
}
