//! Graph file I/O.
//!
//! Two formats are supported:
//!
//! * the **Chaco / METIS `.graph` format** the original systems consumed
//!   (header `n m [fmt]`, then one line of 1-indexed neighbors per vertex;
//!   `fmt` = `1` edge weights, `10` vertex weights, `11` both);
//! * **MatrixMarket** `coordinate` files (`pattern`/`real`/`integer`,
//!   `symmetric` or `general`), read as the adjacency structure of the
//!   matrix — how the paper's Harwell-Boeing test matrices are distributed
//!   today.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Vid, Wgt};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from graph parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed file contents, with a human-readable description.
    Parse(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err<T>(msg: impl Into<String>) -> Result<T, IoError> {
    Err(IoError::Parse(msg.into()))
}

/// Reject header sizes a [`CsrGraph`] cannot hold: `n` must fit a [`Vid`],
/// and `edges` undirected edges (two adjacency entries each) the `u32`
/// row offsets.
fn check_header_sizes(ln: usize, n: usize, edges: usize) -> Result<(), IoError> {
    if n >= Vid::MAX as usize {
        return parse_err(format!("line {ln}: {n} vertices exceed 32-bit vertex ids"));
    }
    if edges.checked_mul(2).is_none_or(|e| e > u32::MAX as usize) {
        return parse_err(format!(
            "line {ln}: {edges} edges exceed 32-bit row offsets"
        ));
    }
    Ok(())
}

/// Build the graph a header declared, or report that its vertex count
/// (which no file line has to back) does not fit in memory.
fn build_within_memory(b: GraphBuilder, ln: usize) -> Result<CsrGraph, IoError> {
    let n = b.n();
    b.try_build()
        .or_else(|_| parse_err(format!("line {ln}: {n} vertices do not fit in memory")))
}

/// Read a Chaco/METIS format graph from a reader.
///
/// Parse errors name the offending 1-based physical line and token, e.g.
/// `parse error: line 3: bad neighbor token `x``.
pub fn read_chaco<R: Read>(r: R) -> Result<CsrGraph, IoError> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines().enumerate();
    // Header: n m [fmt]
    let (header_ln, header) = loop {
        match lines.next() {
            None => return parse_err("empty file"),
            Some((i, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') && !t.starts_with('#') {
                    break (i + 1, t.to_string());
                }
            }
        }
    };
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 2 {
        return parse_err(format!("line {header_ln}: header must be `n m [fmt]`"));
    }
    let n: usize = head[0]
        .parse()
        .map_err(|_| IoError::Parse(format!("line {header_ln}: bad n `{}`", head[0])))?;
    let m: usize = head[1]
        .parse()
        .map_err(|_| IoError::Parse(format!("line {header_ln}: bad m `{}`", head[1])))?;
    let fmt = if head.len() > 2 { head[2] } else { "0" };
    let (has_vwgt, has_ewgt) = match fmt {
        "0" | "00" => (false, false),
        "1" | "01" => (false, true),
        "10" => (true, false),
        "11" => (true, true),
        other => return parse_err(format!("line {header_ln}: unsupported fmt `{other}`")),
    };
    check_header_sizes(header_ln, n, m)?;
    // Nothing is reserved from the header's counts: the edge list and the
    // weights grow with the lines actually read.
    let mut b = GraphBuilder::new(n);
    let mut vwgt: Vec<Wgt> = Vec::new();
    // Weights seen on the lower endpoint's line, awaiting their mirror on
    // the higher endpoint's line (BTreeMap so the first error reported for
    // an unmirrored edge is the smallest offending pair).
    let mut pending: std::collections::BTreeMap<(Vid, Vid), Vec<Wgt>> =
        std::collections::BTreeMap::new();
    let mut v = 0 as Vid;
    for (i, line) in lines {
        let ln = i + 1;
        let line = line?;
        let t = line.trim();
        if t.starts_with('%') || t.starts_with('#') {
            continue;
        }
        if v as usize >= n {
            if t.is_empty() {
                continue;
            }
            return parse_err(format!("line {ln}: more vertex lines than n = {n}"));
        }
        let mut tok = t.split_whitespace();
        if has_vwgt {
            let w = match tok.next() {
                Some(w) => w.parse().map_err(|_| {
                    IoError::Parse(format!(
                        "line {ln}: bad vertex weight `{w}` for vertex {}",
                        v + 1
                    ))
                })?,
                None => 1,
            };
            if w <= 0 {
                return parse_err(format!(
                    "line {ln}: vertex weight {w} of vertex {} must be positive",
                    v + 1
                ));
            }
            vwgt.push(w);
        }
        while let Some(u) = tok.next() {
            let u: usize = u
                .parse()
                .map_err(|_| IoError::Parse(format!("line {ln}: bad neighbor token `{u}`")))?;
            if u == 0 || u > n {
                return parse_err(format!("line {ln}: neighbor {u} out of range 1..={n}"));
            }
            let w: Wgt = if has_ewgt {
                match tok.next() {
                    Some(w) => w
                        .parse()
                        .map_err(|_| IoError::Parse(format!("line {ln}: bad edge weight `{w}`")))?,
                    None => {
                        return parse_err(format!(
                            "line {ln}: missing edge weight after neighbor {u}"
                        ))
                    }
                }
            } else {
                1
            };
            if w <= 0 {
                return parse_err(format!(
                    "line {ln}: edge weight {w} after neighbor {u} must be positive"
                ));
            }
            let u = (u - 1) as Vid;
            // Each undirected edge must appear on both endpoint lines with
            // the same weight. The lower endpoint's copy is held pending
            // (as a weight multiset, to tolerate parallel entries); the
            // higher endpoint's copy must cancel one pending weight.
            if u == v {
                return parse_err(format!("line {ln}: self-loop on vertex {}", v + 1));
            } else if v < u {
                pending.entry((v, u)).or_default().push(w);
            } else {
                let slot = pending.get_mut(&(u, v));
                let Some(ws) = slot.filter(|ws| !ws.is_empty()) else {
                    return parse_err(format!(
                        "line {ln}: edge ({}, {}) appears on vertex {}'s line but not on vertex {}'s line",
                        u + 1,
                        v + 1,
                        v + 1,
                        u + 1
                    ));
                };
                match ws.iter().position(|&pw| pw == w) {
                    Some(pos) => {
                        ws.swap_remove(pos);
                        b.add_weighted_edge(u, v, w);
                    }
                    None => {
                        return parse_err(format!(
                            "line {ln}: edge ({}, {}) has weight {} on vertex {}'s line but {} on vertex {}'s line",
                            u + 1,
                            v + 1,
                            ws[0],
                            u + 1,
                            w,
                            v + 1
                        ))
                    }
                }
            }
        }
        v += 1;
    }
    if (v as usize) < n {
        return parse_err(format!("only {v} of {n} vertex lines present"));
    }
    if let Some(((a, b_), ws)) = pending.iter().find(|(_, ws)| !ws.is_empty()) {
        debug_assert!(!ws.is_empty());
        return parse_err(format!(
            "edge ({}, {}) appears on vertex {}'s line but not on vertex {}'s line",
            a + 1,
            b_ + 1,
            a + 1,
            b_ + 1
        ));
    }
    if has_vwgt {
        b.set_vertex_weights(vwgt);
    }
    let g = build_within_memory(b, header_ln)?;
    if g.m() != m {
        return parse_err(format!("header claims {m} edges, found {}", g.m()));
    }
    Ok(g)
}

/// Write a graph in Chaco/METIS format (always emits fmt `11`).
pub fn write_chaco<W: Write>(g: &CsrGraph, w: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(w);
    writeln!(out, "{} {} 11", g.n(), g.m())?;
    for v in 0..g.n() as Vid {
        write!(out, "{}", g.vwgt()[v as usize])?;
        for (u, wgt) in g.adj(v) {
            write!(out, " {} {}", u + 1, wgt)?;
        }
        writeln!(out)?;
    }
    out.flush()
}

/// Read a MatrixMarket coordinate file as a graph: off-diagonal nonzeros
/// become unit-weight edges (values, if present, are ignored — partitioning
/// uses only the structure, as the paper does).
pub fn read_matrix_market<R: Read>(r: R) -> Result<CsrGraph, IoError> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines().enumerate();
    let banner = match lines.next() {
        Some((_, l)) => l?,
        None => return parse_err("empty file"),
    };
    let lower = banner.to_ascii_lowercase();
    if !lower.starts_with("%%matrixmarket") {
        return parse_err("missing MatrixMarket banner");
    }
    // Banner: %%MatrixMarket matrix coordinate <field> <symmetry>
    let tokens: Vec<&str> = lower.split_whitespace().collect();
    if tokens.len() < 5 {
        return parse_err("banner must be `%%MatrixMarket matrix coordinate <field> <symmetry>`");
    }
    if tokens[2] != "coordinate" {
        return parse_err("only coordinate format supported");
    }
    let pattern = tokens[3] == "pattern";
    // `symmetric` variants store each off-diagonal entry once (lower
    // triangle); `general` stores both (i,j) and (j,i), which must fold to
    // ONE unit edge — not two, which would double every edge weight.
    let symmetric = match tokens[4] {
        "general" => false,
        "symmetric" | "skew-symmetric" | "hermitian" => true,
        other => return parse_err(format!("unknown symmetry `{other}`")),
    };
    let mut size_line = None;
    for (i, line) in lines.by_ref() {
        let line = line?;
        let t = line.trim().to_string();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some((i + 1, t));
        break;
    }
    let Some((size_ln, size_line)) = size_line else {
        return parse_err("missing size line");
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|s| {
            s.parse()
                .map_err(|_| IoError::Parse(format!("line {size_ln}: bad size token `{s}`")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return parse_err(format!("line {size_ln}: size line must be `rows cols nnz`"));
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
    if rows != cols {
        return parse_err(format!(
            "line {size_ln}: matrix must be square to define a graph, got {rows}x{cols}"
        ));
    }
    check_header_sizes(size_ln, rows, nnz)?;
    let mut b = GraphBuilder::new(rows);
    // For `general` storage the structurally-mirrored entries (i,j)/(j,i)
    // describe the SAME undirected edge; collect normalized pairs and add
    // each distinct one once.
    let mut general_pairs: Vec<(Vid, Vid)> = Vec::new();
    let mut seen = 0usize;
    for (li, line) in lines {
        let ln = li + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut tok = t.split_whitespace();
        let (Some(i), Some(j)) = (tok.next(), tok.next()) else {
            return parse_err(format!("line {ln}: entry must be `row col [value]`"));
        };
        if !pattern && tok.next().is_none() {
            return parse_err(format!("line {ln}: missing value on entry line"));
        }
        let i: usize = i
            .parse()
            .map_err(|_| IoError::Parse(format!("line {ln}: bad row index `{i}`")))?;
        let j: usize = j
            .parse()
            .map_err(|_| IoError::Parse(format!("line {ln}: bad col index `{j}`")))?;
        if i == 0 || i > rows || j == 0 || j > rows {
            return parse_err(format!(
                "line {ln}: index ({i}, {j}) out of range 1..={rows}"
            ));
        }
        if i != j {
            let (a, b_) = ((i - 1) as Vid, (j - 1) as Vid);
            if symmetric {
                b.add_edge(a, b_);
            } else {
                general_pairs.push((a.min(b_), a.max(b_)));
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return parse_err(format!("header claims {nnz} entries, found {seen}"));
    }
    general_pairs.sort_unstable();
    general_pairs.dedup();
    for (a, b_) in general_pairs {
        b.add_edge(a, b_);
    }
    build_within_memory(b, size_ln)
}

/// Write a graph as a symmetric MatrixMarket pattern matrix (lower
/// triangle plus unit diagonal, the Harwell-Boeing convention for
/// structural symmetry).
pub fn write_matrix_market<W: Write>(g: &CsrGraph, w: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(w);
    writeln!(out, "%%MatrixMarket matrix coordinate pattern symmetric")?;
    writeln!(out, "% exported by mlgp-graph")?;
    writeln!(out, "{} {} {}", g.n(), g.n(), g.n() + g.m())?;
    for v in 0..g.n() as Vid {
        writeln!(out, "{} {}", v + 1, v + 1)?;
        for &u in g.neighbors(v) {
            if u < v {
                writeln!(out, "{} {}", v + 1, u + 1)?;
            }
        }
    }
    out.flush()
}

/// Read a graph file, dispatching on extension (`.mtx` → MatrixMarket,
/// anything else → Chaco/METIS).
pub fn read_graph_file(path: &Path) -> Result<CsrGraph, IoError> {
    let f = std::fs::File::open(path)?;
    if path.extension().is_some_and(|e| e == "mtx") {
        read_matrix_market(f)
    } else {
        read_chaco(f)
    }
}

/// Write a graph to a `.graph` file in Chaco/METIS format.
pub fn write_graph_file(g: &CsrGraph, path: &Path) -> std::io::Result<()> {
    write_chaco(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaco_round_trip() {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 2)
            .add_weighted_edge(1, 2, 3)
            .add_weighted_edge(2, 3, 4)
            .add_weighted_edge(3, 0, 5);
        b.set_vertex_weights(vec![1, 2, 3, 4]);
        let g = b.build();
        let mut buf = Vec::new();
        write_chaco(&g, &mut buf).unwrap();
        let g2 = read_chaco(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn reads_unweighted_chaco() {
        let text = "% comment\n3 2\n2\n1 3\n2\n";
        let g = read_chaco(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn reads_edge_weighted_chaco() {
        let text = "2 1 1\n2 7\n1 7\n";
        let g = read_chaco(text.as_bytes()).unwrap();
        assert_eq!(g.edge_weights(0), &[7]);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_chaco("3\n".as_bytes()).is_err());
        assert!(read_chaco("".as_bytes()).is_err());
        assert!(read_chaco("2 1 99\n2\n1\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_edge_count_mismatch() {
        let text = "3 5\n2\n1 3\n2\n";
        assert!(read_chaco(text.as_bytes()).is_err());
    }

    #[test]
    fn reads_matrix_market_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 4\n1 1 2.0\n2 1 -1.0\n3 2 -1.0\n3 3 2.0\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2); // diagonal entries dropped
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn reads_matrix_market_pattern_general() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n1 2\n2 1\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.m(), 1); // duplicate (1,2)/(2,1) folded...
        assert_eq!(g.edge_weights(0), &[1]); // ...to ONE unit edge, not weight 2
    }

    #[test]
    fn general_and_symmetric_encodings_read_identically() {
        // The same 4-vertex path + chord, stored both ways. `general` lists
        // every off-diagonal nonzero twice; `symmetric` lists the lower
        // triangle once. Both must produce the identical CsrGraph.
        let general = "%%MatrixMarket matrix coordinate real general\n\
                       4 4 12\n\
                       1 2 1.0\n2 1 1.0\n\
                       2 3 1.0\n3 2 1.0\n\
                       3 4 1.0\n4 3 1.0\n\
                       1 4 1.0\n4 1 1.0\n\
                       1 1 2.0\n2 2 2.0\n3 3 2.0\n4 4 2.0\n";
        let symmetric = "%%MatrixMarket matrix coordinate real symmetric\n\
                         4 4 8\n\
                         2 1 1.0\n3 2 1.0\n4 3 1.0\n4 1 1.0\n\
                         1 1 2.0\n2 2 2.0\n3 3 2.0\n4 4 2.0\n";
        let gg = read_matrix_market(general.as_bytes()).unwrap();
        let gs = read_matrix_market(symmetric.as_bytes()).unwrap();
        assert_eq!(gg.m(), 4);
        assert_eq!(gg, gs);
        assert!(gg.edge_weights(0).iter().all(|&w| w == 1));
    }

    #[test]
    fn mm_rejects_unknown_symmetry() {
        let text = "%%MatrixMarket matrix coordinate pattern banana\n2 2 1\n1 2\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("banana"), "{err}");
    }

    #[test]
    fn mm_rejects_short_banner() {
        let text = "%%MatrixMarket matrix coordinate\n2 2 1\n1 2\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn chaco_rejects_self_loop() {
        // Vertex 2's line lists vertex 2 itself.
        let text = "3 3\n2 3\n1 2 3\n1 2\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("self-loop"), "{err}");
        assert!(err.to_string().contains('2'), "{err}");
    }

    #[test]
    fn chaco_rejects_asymmetric_adjacency() {
        // Edge (1,3) appears on vertex 1's line only; header says 2 edges
        // but the file is simply inconsistent, and the error must name the
        // unmirrored pair rather than a misleading edge-count mismatch.
        let text = "3 2\n2 3\n1\n\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("(1, 3)"), "{msg}");
        assert!(!msg.contains("header claims"), "{msg}");
    }

    #[test]
    fn chaco_rejects_missing_mirror_direction() {
        // Vertex 3's line claims an edge to 1 that vertex 1 never listed.
        let text = "3 2\n2\n1 3\n2 1\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("(1, 3)"), "{msg}");
        assert!(msg.contains("vertex 1's line"), "{msg}");
    }

    #[test]
    fn chaco_rejects_non_positive_weights() {
        // Vertex weight 0, vertex weight -1, edge weight 0: each is a typed
        // parse error naming its line, never a panic in the builder.
        for (text, line) in [
            (
                "2 1 10
0 2
1 1
",
                "line 2:",
            ),
            (
                "2 1 10
1 2
-1 1
",
                "line 3:",
            ),
            (
                "2 1 1
2 0
1 0
",
                "line 2:",
            ),
        ] {
            let err = read_chaco(text.as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, IoError::Parse(_)), "{msg}");
            assert!(
                msg.contains(line) && msg.contains("must be positive"),
                "{msg}"
            );
        }
    }

    #[test]
    fn chaco_rejects_mismatched_edge_weights() {
        // Edge (1,2) has weight 7 on vertex 1's line, 9 on vertex 2's.
        let text = "2 1 1\n2 7\n1 9\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("(1, 2)"), "{msg}");
        assert!(msg.contains('7') && msg.contains('9'), "{msg}");
    }

    #[test]
    fn chaco_errors_name_line_and_token() {
        // Vertex 2's line is physical line 3 and carries a garbage token.
        let text = "3 2\n2\nx 3\n2\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("`x`"), "{msg}");
    }

    #[test]
    fn chaco_bad_header_names_line() {
        // Header is pushed to physical line 3 by a comment and a blank line.
        let text = "% comment\n\nx 2\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("`x`"), "{msg}");
    }

    #[test]
    fn chaco_weight_errors_name_line() {
        // Edge weight on vertex 2's line (physical line 3) is garbage.
        let text = "2 1 1\n2 7\n1 oops\n";
        let err = read_chaco(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("`oops`"), "{msg}");
    }

    #[test]
    fn mm_errors_name_line_and_token() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\nq 1\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "{msg}");
        assert!(msg.contains("`q`"), "{msg}");
    }

    #[test]
    fn mm_bad_size_line_names_line() {
        // Size line lands on physical line 3 behind a comment.
        let text = "%%MatrixMarket matrix coordinate pattern general\n% c\n2 2\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("rows cols nnz"), "{msg}");
    }

    #[test]
    fn matrix_market_round_trips_structure() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 4)
            .add_edge(4, 0);
        let g = b.build();
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let g2 = read_matrix_market(&buf[..]).unwrap();
        // Weights are structural (units), so the graphs are fully equal.
        assert_eq!(g, g2);
    }

    #[test]
    fn mm_rejects_rectangular() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }
}
