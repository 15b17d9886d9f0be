//! The three workloads: their generators, the library call each one times,
//! the matching serial replay, and the check every output must pass.

use crate::check;
use crate::replay;
use crate::spans::Recorder;
use mlgp_graph::generators::{grid2d_9pt, roadnet, stiffness3d};
use mlgp_graph::{CsrGraph, Wgt};
use mlgp_order::{analyze_ordering, nested_dissection, NdBisector, NdConfig};
use mlgp_part::{kway_partition, MlConfig};
use mlgp_spectral::{msb_kway, MsbConfig};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `kway_partition(g, 64)` on the MAP stand-in `roadnet(517, 517, seed)`.
    KwayRoad,
    /// `nested_dissection(g, NdConfig::mlnd())` on the CANT stand-in
    /// `stiffness3d(38, 38, 38)`.
    OrderFem3d,
    /// `msb_kway(g, 8)` on the SHYY stand-in `grid2d_9pt(277, 276)`.
    MsbGrid2d,
}

const KWAY_PARTS: usize = 64;
const MSB_PARTS: usize = 8;

/// What one operation returned.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// Part labels, and the cut when the library returns one.
    Parts(Vec<u32>, Option<Wgt>),
    /// An ordering's forward map.
    Order(Vec<u32>),
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "kway-road" => Some(Self::KwayRoad),
            "order-fem3d" => Some(Self::OrderFem3d),
            "msb-grid2d" => Some(Self::MsbGrid2d),
            _ => None,
        }
    }

    /// The workload graph. Only `kway-road`'s generator takes the seed.
    pub fn generate(self, seed: u64) -> CsrGraph {
        match self {
            Self::KwayRoad => roadnet(517, 517, seed),
            Self::OrderFem3d => stiffness3d(38, 38, 38),
            Self::MsbGrid2d => grid2d_9pt(277, 276, false),
        }
    }

    /// The library call, as `mlgp` runs it: `threads = 0` is the default
    /// ambient fan-out, `threads = 1` runs inside a 1-worker pool like
    /// `mlgp --threads 1`.
    pub fn run(self, g: &CsrGraph, seed: u64, threads: usize) -> Output {
        in_pool(threads, || match self {
            Self::KwayRoad => {
                let r = kway_partition(g, KWAY_PARTS, &ml_config(seed, threads));
                Output::Parts(r.part, Some(r.edge_cut))
            }
            Self::OrderFem3d => {
                let cfg = NdConfig {
                    bisector: NdBisector::Multilevel(ml_config(seed, 0)),
                    threads,
                    ..NdConfig::mlnd()
                };
                Output::Order(nested_dissection(g, &cfg).perm().to_vec())
            }
            Self::MsbGrid2d => {
                Output::Parts(msb_kway(g, MSB_PARTS, &msb_config(seed, threads)), None)
            }
        })
    }

    /// The serial replay of [`Workload::run`] with spans and counters in
    /// `rec`. Kernels use `threads` as in `run`; the recursion never forks.
    pub fn replay(self, g: &CsrGraph, seed: u64, threads: usize, rec: &mut Recorder) -> Output {
        in_pool(threads, || match self {
            Self::KwayRoad => {
                let (part, cut) =
                    replay::kway_partition(g, KWAY_PARTS, &ml_config(seed, threads), rec);
                Output::Parts(part, Some(cut))
            }
            Self::OrderFem3d => {
                let leaf = NdConfig::mlnd().leaf_size;
                let p = replay::nested_dissection(g, &ml_config(seed, threads), leaf, rec);
                Output::Order(p.perm().to_vec())
            }
            Self::MsbGrid2d => Output::Parts(
                replay::msb_kway(g, MSB_PARTS, &msb_config(seed, threads), rec),
                None,
            ),
        })
    }

    /// Check one output of this workload.
    pub fn check(self, g: &CsrGraph, out: &Output) -> Result<(), String> {
        match (self, out) {
            (Self::KwayRoad, Output::Parts(p, cut)) => check::kway(g, p, KWAY_PARTS, *cut),
            (Self::MsbGrid2d, Output::Parts(p, cut)) => check::kway(g, p, MSB_PARTS, *cut),
            (Self::OrderFem3d, Output::Order(p)) => check::ordering(g, p),
            _ => Err("output of the wrong kind".into()),
        }
    }

    /// Quality figures of a checked output, as `(name, value)` pairs. The
    /// first is the workload's `quality`: edge cut, or factor opcount.
    pub fn quality(self, g: &CsrGraph, out: &Output) -> Vec<(&'static str, f64)> {
        match out {
            Output::Parts(p, _) => {
                let k = if self == Self::KwayRoad {
                    KWAY_PARTS
                } else {
                    MSB_PARTS
                };
                vec![
                    ("edge_cut", check::edge_cut(g, p) as f64),
                    ("imbalance", check::imbalance(g, p, k)),
                ]
            }
            Output::Order(perm) => {
                let p = mlgp_graph::Permutation::from_forward(perm.clone());
                let s = analyze_ordering(g, &p);
                vec![
                    ("opcount", s.opcount),
                    ("nnz_l", s.nnz_l as f64),
                    ("etree_height", s.height as f64),
                ]
            }
        }
    }
}

fn ml_config(seed: u64, threads: usize) -> MlConfig {
    MlConfig {
        seed,
        threads,
        ..MlConfig::default()
    }
}

fn msb_config(seed: u64, threads: usize) -> MsbConfig {
    MsbConfig {
        seed,
        threads,
        ..MsbConfig::default()
    }
}

/// Run `f` inside a pool of `threads` workers, or with the ambient fan-out
/// when `threads == 0`.
pub fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    if threads == 0 {
        return f();
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the advisory pool never fails to build")
        .install(f)
}
