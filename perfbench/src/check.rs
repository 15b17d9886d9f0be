//! Output checks applied to every operation the benchmark times. They are
//! written against the graph alone, independent of the library's own
//! metric code.

use mlgp_graph::{CsrGraph, Wgt};

/// A k-way partition: labels lie in `0..k`, every part is non-empty, and,
/// when the library returned a cut, it equals the cut recounted here.
pub fn kway(g: &CsrGraph, part: &[u32], k: usize, returned_cut: Option<Wgt>) -> Result<(), String> {
    if part.len() != g.n() {
        return Err(format!("{} labels for {} vertices", part.len(), g.n()));
    }
    let mut sizes = vec![0usize; k];
    for (v, &p) in part.iter().enumerate() {
        match sizes.get_mut(p as usize) {
            Some(s) => *s += 1,
            None => return Err(format!("vertex {v} has label {p}, outside 0..{k}")),
        }
    }
    if let Some(p) = sizes.iter().position(|&s| s == 0) {
        return Err(format!("part {p} of {k} is empty"));
    }
    if let Some(cut) = returned_cut {
        let recount = edge_cut(g, part);
        if recount != cut {
            return Err(format!("returned cut {cut}, recounted {recount}"));
        }
    }
    Ok(())
}

/// An ordering's forward map (`perm[v]` = position of vertex `v`): a
/// bijection on `0..n`.
pub fn ordering(g: &CsrGraph, perm: &[u32]) -> Result<(), String> {
    if perm.len() != g.n() {
        return Err(format!("{} entries for {} vertices", perm.len(), g.n()));
    }
    let mut seen = vec![false; perm.len()];
    for (v, &x) in perm.iter().enumerate() {
        match seen.get_mut(x as usize) {
            Some(s) if !*s => *s = true,
            Some(_) => return Err(format!("entry {v} repeats position {x}")),
            None => return Err(format!("entry {v} maps to {x}, outside 0..{}", perm.len())),
        }
    }
    Ok(())
}

/// Total weight of edges whose endpoints carry different labels.
pub fn edge_cut(g: &CsrGraph, part: &[u32]) -> Wgt {
    let mut cut = 0;
    for v in 0..g.n() {
        for (u, w) in g.adj(v as u32) {
            if (u as usize) > v && part[u as usize] != part[v] {
                cut += w;
            }
        }
    }
    cut
}

/// Heaviest part weight divided by the ideal part weight `W / k`.
pub fn imbalance(g: &CsrGraph, part: &[u32], k: usize) -> f64 {
    let mut w = vec![0 as Wgt; k];
    for (&p, &vw) in part.iter().zip(g.vwgt()) {
        w[p as usize] += vw;
    }
    let max = w.iter().copied().max().unwrap_or(0);
    max as f64 * k as f64 / g.total_vwgt() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgp_graph::generators::grid2d;

    /// A 4x4 grid split into four 2x2 quadrants: cut 8.
    fn quadrants() -> (CsrGraph, Vec<u32>) {
        let g = grid2d(4, 4);
        let part = (0..16u32).map(|v| (v % 4 / 2) + 2 * (v / 8)).collect();
        (g, part)
    }

    #[test]
    fn accepts_a_valid_partition() {
        let (g, part) = quadrants();
        assert_eq!(edge_cut(&g, &part), 8);
        assert_eq!(kway(&g, &part, 4, Some(8)), Ok(()));
        assert_eq!(imbalance(&g, &part, 4), 1.0);
    }

    #[test]
    fn rejects_out_of_range_label() {
        let (g, mut part) = quadrants();
        part[5] = 4;
        let e = kway(&g, &part, 4, None).unwrap_err();
        assert!(e.contains("outside 0..4"), "{e}");
    }

    #[test]
    fn rejects_empty_part() {
        let (g, part) = quadrants();
        let merged: Vec<u32> = part.iter().map(|&p| p.min(2)).collect();
        let e = kway(&g, &merged, 4, None).unwrap_err();
        assert!(e.contains("part 3 of 4 is empty"), "{e}");
    }

    #[test]
    fn rejects_wrong_cut() {
        let (g, part) = quadrants();
        let e = kway(&g, &part, 4, Some(7)).unwrap_err();
        assert!(e.contains("returned cut 7, recounted 8"), "{e}");
    }

    #[test]
    fn rejects_wrong_length() {
        let (g, part) = quadrants();
        assert!(kway(&g, &part[..15], 4, None).is_err());
    }

    #[test]
    fn accepts_a_permutation() {
        let g = grid2d(3, 3);
        let perm: Vec<u32> = (0..9).rev().collect();
        assert_eq!(ordering(&g, &perm), Ok(()));
    }

    #[test]
    fn rejects_repeated_permutation_entry() {
        let g = grid2d(3, 3);
        let mut perm: Vec<u32> = (0..9).collect();
        perm[4] = 3;
        let e = ordering(&g, &perm).unwrap_err();
        assert!(e.contains("entry 4 repeats position 3"), "{e}");
    }

    #[test]
    fn rejects_out_of_range_permutation_entry() {
        let g = grid2d(3, 3);
        let mut perm: Vec<u32> = (0..9).collect();
        perm[0] = 9;
        assert!(ordering(&g, &perm).is_err());
        assert!(ordering(&g, &perm[..8]).is_err());
    }
}
