//! Tests for the generic recursive k-way driver.

use crate::bisect::bisect_targets;
use crate::config::MlConfig;
use crate::kway::{kway_partition, recursive_kway_with};
use crate::metrics::{edge_cut_kway, part_weights};
use mlgp_graph::generators::grid2d;
use mlgp_trace::Trace;

#[test]
fn generic_driver_matches_builtin_kway() {
    let g = grid2d(20, 20);
    let cfg = MlConfig::default();
    let generic = recursive_kway_with(&g, 4, &|sub: &mlgp_graph::CsrGraph, targets, salt| {
        bisect_targets(sub, &cfg.reseed(salt), targets, &Trace::disabled(), salt).part
    });
    let builtin = kway_partition(&g, 4, &cfg);
    assert_eq!(generic, builtin.part);
}

#[test]
fn generic_driver_with_trivial_bisector_balances() {
    // A "first half / second half" bisector by weight still yields balanced
    // parts through the recursion.
    let g = grid2d(16, 16);
    let part = recursive_kway_with(&g, 8, &|sub: &mlgp_graph::CsrGraph, targets, _| {
        let mut out = vec![1u8; sub.n()];
        let mut w = 0;
        for (o, &vw) in out.iter_mut().zip(sub.vwgt()) {
            if w >= targets[0] {
                break;
            }
            *o = 0;
            w += vw;
        }
        out
    });
    let w = part_weights(&g, &part, 8);
    assert!(w.iter().all(|&x| x == 32), "{w:?}");
    assert!(edge_cut_kway(&g, &part) > 0);
}
