//! Compressed sparse row (CSR) representation of an undirected weighted graph.
//!
//! This is the representation every algorithm in the workspace operates on:
//! the adjacency structure is stored forward and backward (each undirected
//! edge appears in both endpoint rows), vertices and edges both carry integer
//! weights, and self-loops are disallowed. It matches the representation used
//! by the ICPP'95 multilevel partitioning paper (and later by METIS), where
//! coarsening sums vertex weights into multinodes and folds parallel edges by
//! summing their weights.

/// Vertex identifier. Graphs in the paper's suite top out below 300k
/// vertices; `u32` halves the memory traffic of the hot adjacency scans.
pub type Vid = u32;

/// Integer weight type for vertices and edges. Coarsening only ever *sums*
/// existing weights, so `i64` cannot overflow for any graph whose total
/// weight fits in 63 bits.
pub type Wgt = i64;

/// An undirected weighted graph in CSR form.
///
/// Invariants (checked by [`CsrGraph::validate`], maintained by all
/// constructors in this crate):
/// * `xadj.len() == n + 1`, `xadj[0] == 0`, `xadj` is non-decreasing;
/// * `adjncy.len() == adjwgt.len() == xadj[n]`;
/// * adjacency is symmetric: `(u, v)` appears iff `(v, u)` does, with equal
///   weight;
/// * no self-loops and no duplicate entries within a row;
/// * all vertex and edge weights are strictly positive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    xadj: Vec<u32>,
    adjncy: Vec<Vid>,
    vwgt: Vec<Wgt>,
    adjwgt: Vec<Wgt>,
}

impl CsrGraph {
    /// Build a graph from raw CSR parts with unit vertex and edge weights.
    ///
    /// # Panics
    /// Panics if the structure is malformed (see type invariants).
    pub fn from_adjacency(xadj: Vec<u32>, adjncy: Vec<Vid>) -> Self {
        let n = xadj.len().saturating_sub(1);
        let nnz = adjncy.len();
        let g = Self {
            xadj,
            adjncy,
            vwgt: vec![1; n],
            adjwgt: vec![1; nnz],
        };
        #[expect(
            clippy::expect_used,
            reason = "documented constructor contract: `# Panics` promises rejection of malformed CSR input"
        )]
        g.validate().expect("malformed CSR adjacency");
        g
    }

    /// Build a graph from fully specified CSR parts.
    ///
    /// # Panics
    /// Panics if the structure is malformed (see type invariants).
    pub fn from_parts(xadj: Vec<u32>, adjncy: Vec<Vid>, vwgt: Vec<Wgt>, adjwgt: Vec<Wgt>) -> Self {
        let g = Self {
            xadj,
            adjncy,
            vwgt,
            adjwgt,
        };
        #[expect(
            clippy::expect_used,
            reason = "documented constructor contract: `# Panics` promises rejection of malformed CSR input"
        )]
        g.validate().expect("malformed CSR graph");
        g
    }

    /// Like [`CsrGraph::from_parts`] but skips invariant validation.
    ///
    /// Intended for hot construction paths (contraction, subgraph
    /// extraction) that maintain the invariants themselves. Debug builds
    /// still validate.
    pub fn from_parts_unchecked(
        xadj: Vec<u32>,
        adjncy: Vec<Vid>,
        vwgt: Vec<Wgt>,
        adjwgt: Vec<Wgt>,
    ) -> Self {
        let g = Self {
            xadj,
            adjncy,
            vwgt,
            adjwgt,
        };
        debug_assert!(g.validate().is_ok(), "malformed CSR graph");
        g
    }

    /// The empty graph.
    pub fn empty() -> Self {
        Self {
            xadj: vec![0],
            adjncy: Vec::new(),
            vwgt: Vec::new(),
            adjwgt: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges (half the stored adjacency entries).
    #[inline]
    pub fn m(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Number of stored adjacency entries (`2m`), i.e. the nonzeros of the
    /// corresponding sparse matrix excluding the diagonal.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.adjncy.len()
    }

    /// CSR row pointer array (`n + 1` entries).
    #[inline]
    pub fn xadj(&self) -> &[u32] {
        &self.xadj
    }

    /// Flat adjacency array.
    #[inline]
    pub fn adjncy(&self) -> &[Vid] {
        &self.adjncy
    }

    /// Vertex weights.
    #[inline]
    pub fn vwgt(&self) -> &[Wgt] {
        &self.vwgt
    }

    /// Edge weights, parallel to [`CsrGraph::adjncy`].
    #[inline]
    pub fn adjwgt(&self) -> &[Wgt] {
        &self.adjwgt
    }

    /// Half-open range of `v`'s adjacency entries in the flat arrays.
    #[inline]
    pub fn range(&self, v: Vid) -> std::ops::Range<usize> {
        self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize
    }

    /// Neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: Vid) -> &[Vid] {
        &self.adjncy[self.range(v)]
    }

    /// Weights of the edges incident to `v`, parallel to
    /// [`CsrGraph::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: Vid) -> &[Wgt] {
        &self.adjwgt[self.range(v)]
    }

    /// Iterate `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn adj(&self, v: Vid) -> impl Iterator<Item = (Vid, Wgt)> + '_ {
        let r = self.range(v);
        self.adjncy[r.clone()]
            .iter()
            .copied()
            .zip(self.adjwgt[r].iter().copied())
    }

    /// Degree (number of neighbors) of `v`.
    #[inline]
    pub fn degree(&self, v: Vid) -> usize {
        (self.xadj[v as usize + 1] - self.xadj[v as usize]) as usize
    }

    /// Sum of the weights of the edges incident to `v`.
    #[inline]
    pub fn weighted_degree(&self, v: Vid) -> Wgt {
        self.edge_weights(v).iter().sum()
    }

    /// Sum of all vertex weights.
    pub fn total_vwgt(&self) -> Wgt {
        self.vwgt.iter().sum()
    }

    /// Sum of all edge weights, each undirected edge counted once.
    pub fn total_adjwgt(&self) -> Wgt {
        debug_assert_eq!(self.adjwgt.iter().sum::<Wgt>() % 2, 0);
        self.adjwgt.iter().sum::<Wgt>() / 2
    }

    /// Average degree (`2m / n`), 0 for the empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n() as f64
        }
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as Vid)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Decompose into raw CSR parts `(xadj, adjncy, vwgt, adjwgt)`.
    pub fn into_parts(self) -> (Vec<u32>, Vec<Vid>, Vec<Wgt>, Vec<Wgt>) {
        (self.xadj, self.adjncy, self.vwgt, self.adjwgt)
    }

    /// Verify every structural invariant; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.xadj.len().saturating_sub(1);
        if self.xadj.is_empty() {
            return Err("xadj must have at least one entry".into());
        }
        if self.xadj[0] != 0 {
            return Err("xadj[0] must be 0".into());
        }
        if self.vwgt.len() != n {
            return Err(format!("vwgt length {} != n {}", self.vwgt.len(), n));
        }
        if self.adjwgt.len() != self.adjncy.len() {
            return Err("adjwgt length != adjncy length".into());
        }
        if self.xadj[n] as usize != self.adjncy.len() {
            return Err("xadj[n] != adjncy length".into());
        }
        for w in &self.vwgt {
            if *w <= 0 {
                return Err("non-positive vertex weight".into());
            }
        }
        for i in 0..n {
            if self.xadj[i] > self.xadj[i + 1] {
                return Err(format!("xadj not monotone at {i}"));
            }
        }
        // Symmetry + weight checks via a sorted edge multiset fingerprint.
        let mut fwd: Vec<(Vid, Vid, Wgt)> = Vec::with_capacity(self.adjncy.len());
        for v in 0..n as Vid {
            let mut seen: Vec<Vid> = Vec::with_capacity(self.degree(v));
            for (u, w) in self.adj(v) {
                if u as usize >= n {
                    return Err(format!("neighbor {u} of {v} out of range"));
                }
                if u == v {
                    return Err(format!("self-loop at {v}"));
                }
                if w <= 0 {
                    return Err(format!("non-positive edge weight on ({v},{u})"));
                }
                seen.push(u);
                fwd.push((v, u, w));
            }
            seen.sort_unstable();
            if seen.windows(2).any(|p| p[0] == p[1]) {
                return Err(format!("duplicate neighbor in row {v}"));
            }
        }
        let mut rev: Vec<(Vid, Vid, Wgt)> = fwd.iter().map(|&(a, b, w)| (b, a, w)).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        if fwd != rev {
            return Err("adjacency is not symmetric with equal weights".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle with an extra pendant vertex: 0-1, 1-2, 2-0, 2-3.
    fn paw() -> CsrGraph {
        CsrGraph::from_adjacency(vec![0, 2, 4, 7, 8], vec![1, 2, 0, 2, 0, 1, 3, 2])
    }

    #[test]
    fn basic_accessors() {
        let g = paw();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.nnz(), 8);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.weighted_degree(2), 3);
        assert_eq!(g.total_vwgt(), 4);
        assert_eq!(g.total_adjwgt(), 4);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn adj_iterates_pairs() {
        let g = paw();
        let pairs: Vec<_> = g.adj(2).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 1), (3, 1)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_rejects_asymmetry() {
        let g = CsrGraph {
            xadj: vec![0, 1, 1],
            adjncy: vec![1],
            vwgt: vec![1, 1],
            adjwgt: vec![1],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_self_loop() {
        let g = CsrGraph {
            xadj: vec![0, 1],
            adjncy: vec![0],
            vwgt: vec![1],
            adjwgt: vec![1],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_weight_mismatch() {
        let g = CsrGraph {
            xadj: vec![0, 1, 2],
            adjncy: vec![1, 0],
            vwgt: vec![1, 1],
            adjwgt: vec![2, 3],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_nonpositive_weights() {
        let g = CsrGraph {
            xadj: vec![0, 1, 2],
            adjncy: vec![1, 0],
            vwgt: vec![1, 0],
            adjwgt: vec![1, 1],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn from_adjacency_panics_on_bad_input() {
        CsrGraph::from_adjacency(vec![0, 1], vec![5]);
    }

    #[test]
    fn into_parts_round_trips() {
        let g = paw();
        let g2 = g.clone();
        let (xadj, adjncy, vwgt, adjwgt) = g2.into_parts();
        let g3 = CsrGraph::from_parts(xadj, adjncy, vwgt, adjwgt);
        assert_eq!(g, g3);
    }
}
