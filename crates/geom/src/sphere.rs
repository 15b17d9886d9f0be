//! Randomized geometric separators in the spirit of Miller-Teng-Vavasis
//! (§1 of the paper): many random cut surfaces are tried and the best
//! edge-cut kept. The paper's observation — "due to the randomized nature
//! of these algorithms, multiple trials are often required to obtain
//! solutions comparable to spectral methods" — is directly visible in the
//! trials parameter.
//!
//! Two families of random surfaces are drawn: random-direction hyperplanes
//! through the weighted median, and random-center spheres through the
//! weighted median radius.

use mlgp_graph::generators::Point;
use mlgp_graph::rng::seeded;
use mlgp_graph::{CsrGraph, Vid, Wgt};
use mlgp_part::edge_cut_bisection;
use rand::{rngs::StdRng, RngExt};

/// Configuration for the randomized separator search.
#[derive(Clone, Copy, Debug)]
pub struct SphereConfig {
    /// Number of random surfaces tried per bisection (the paper's
    /// "multiple trials").
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SphereConfig {
    fn default() -> Self {
        Self {
            trials: 30,
            seed: 0x5e7a,
        }
    }
}

/// Bisect by the best of `cfg.trials` random geometric surfaces. Unlike
/// RCB/inertial, this *looks at the edges* (to score candidates), which is
/// what buys its better quality at higher cost.
pub fn sphere_bisect(g: &CsrGraph, points: &[Point], cfg: &SphereConfig) -> Vec<u8> {
    assert_eq!(points.len(), g.n());
    let n = g.n();
    if n <= 1 {
        return vec![0; n];
    }
    let mut rng = seeded(cfg.seed);
    let mut best: Option<(Wgt, Vec<u8>)> = None;
    for trial in 0..cfg.trials.max(1) {
        // Alternate hyperplane and sphere candidates.
        let values: Vec<f64> = if trial % 2 == 0 {
            let d = random_unit(&mut rng);
            points
                .iter()
                .map(|p| p[0] * d[0] + p[1] * d[1] + p[2] * d[2])
                .collect()
        } else {
            let c = points[rng.random_range(0..n)];
            points
                .iter()
                .map(|p| {
                    let dx = p[0] - c[0];
                    let dy = p[1] - c[1];
                    let dz = p[2] - c[2];
                    dx * dx + dy * dy + dz * dz
                })
                .collect()
        };
        let part = median_split(g, &values);
        let cut = edge_cut_bisection(g, &part);
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, part));
        }
    }
    #[expect(
        clippy::unwrap_used,
        reason = "the loop above runs trials.max(1) >= 1 iterations, so best is always Some"
    )]
    let (_, part) = best.unwrap();
    part
}

/// k-way partitioning by recursive randomized-separator bisection.
pub fn sphere_kway(g: &CsrGraph, points: &[Point], k: usize, cfg: &SphereConfig) -> Vec<u32> {
    let mut labels = vec![0u32; g.n()];
    rec(g, points, k, cfg, 1, &mut labels);
    labels
}

fn rec(
    g: &CsrGraph,
    points: &[Point],
    k: usize,
    cfg: &SphereConfig,
    salt: u64,
    labels: &mut [u32],
) {
    if k <= 1 || g.n() == 0 {
        return;
    }
    let k0 = k.div_ceil(2);
    let mut c = *cfg;
    c.seed = cfg.seed.wrapping_add(salt.wrapping_mul(0x9E3779B97F4A7C15));
    let part8 = sphere_bisect(g, points, &c);
    if k == 2 {
        for (l, &p) in labels.iter_mut().zip(&part8) {
            *l = p as u32;
        }
        return;
    }
    let part: Vec<u32> = part8.iter().map(|&p| p as u32).collect();
    let subs = mlgp_graph::split_by_part(g, &part, 2);
    for (side, sub) in subs.iter().enumerate() {
        let sub_pts: Vec<Point> = sub.orig.iter().map(|&v| points[v as usize]).collect();
        let sub_k = if side == 0 { k0 } else { k - k0 };
        let mut sub_labels = vec![0u32; sub.graph.n()];
        rec(
            &sub.graph,
            &sub_pts,
            sub_k,
            cfg,
            salt * 2 + side as u64,
            &mut sub_labels,
        );
        let offset = if side == 0 { 0 } else { k0 as u32 };
        for (i, &orig) in sub.orig.iter().enumerate() {
            labels[orig as usize] = offset + sub_labels[i];
        }
    }
}

fn random_unit(rng: &mut StdRng) -> [f64; 3] {
    loop {
        let v = [
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
        ];
        let norm2: f64 = v.iter().map(|x| x * x).sum();
        if norm2 > 1e-4 && norm2 <= 1.0 {
            let norm = norm2.sqrt();
            return [v[0] / norm, v[1] / norm, v[2] / norm];
        }
    }
}

/// Split at the weighted median of `values` (smaller half → part 0).
fn median_split(g: &CsrGraph, values: &[f64]) -> Vec<u8> {
    let n = g.n();
    let mut order: Vec<Vid> = (0..n as Vid).collect();
    order.sort_by(|&a, &b| {
        values[a as usize]
            .partial_cmp(&values[b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let total: Wgt = g.total_vwgt();
    let mut part = vec![1u8; n];
    let mut acc = 0;
    for &v in &order {
        if acc >= total / 2 {
            break;
        }
        part[v as usize] = 0;
        acc += g.vwgt()[v as usize];
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::{grid2d, grid2d_coords, tri_mesh2d, tri_mesh2d_coords};
    use mlgp_part::{edge_cut_kway, imbalance};

    #[test]
    fn bisects_grid_reasonably() {
        let g = grid2d(16, 16);
        let pts = grid2d_coords(16, 16);
        let part = sphere_bisect(&g, &pts, &SphereConfig::default());
        let cut = edge_cut_bisection(&g, &part);
        // Any straight cut of a 16x16 grid achieves >= 16; random surfaces
        // with 30 trials should find something close.
        assert!((16..=30).contains(&cut), "cut {cut}");
        let w0 = part.iter().filter(|&&p| p == 0).count();
        assert!((120..=136).contains(&w0), "w0 {w0}");
    }

    #[test]
    fn more_trials_never_hurt() {
        let g = tri_mesh2d(20, 20, 4);
        let pts = tri_mesh2d_coords(20, 20, 4);
        let few = sphere_bisect(&g, &pts, &SphereConfig { trials: 2, seed: 9 });
        let many = sphere_bisect(
            &g,
            &pts,
            &SphereConfig {
                trials: 40,
                seed: 9,
            },
        );
        // Trials share the seed stream, so the 40-trial run sees the
        // 2-trial candidates plus 38 more.
        assert!(edge_cut_bisection(&g, &many) <= edge_cut_bisection(&g, &few));
    }

    #[test]
    fn kway_is_balanced_and_complete() {
        let g = grid2d(20, 20);
        let pts = grid2d_coords(20, 20);
        let part = sphere_kway(&g, &pts, 8, &SphereConfig::default());
        assert!(
            imbalance(&g, &part, 8) < 1.15,
            "{}",
            imbalance(&g, &part, 8)
        );
        assert_eq!(part.iter().map(|&p| p as usize).max().unwrap(), 7);
        assert!(edge_cut_kway(&g, &part) > 0);
    }

    #[test]
    fn deterministic() {
        let g = grid2d(12, 12);
        let pts = grid2d_coords(12, 12);
        let a = sphere_bisect(&g, &pts, &SphereConfig::default());
        let b = sphere_bisect(&g, &pts, &SphereConfig::default());
        assert_eq!(a, b);
    }
}
