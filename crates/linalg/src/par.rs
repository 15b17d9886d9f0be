//! The workspace's one parallelism policy: how many workers a run gets,
//! how a kernel cuts its index range into shards, and the size floors
//! below which a kernel stays serial.
//!
//! * **Workers** are the rayon pool a caller installs with [`with_fanout`].
//!   `mlgp partition --threads N` installs `min(N, hardware threads)`:
//!   workers beyond the cores only add fork overhead. The worker count
//!   changes speed, never results.
//! * **Shards** are the contiguous ranges a sharded kernel (matching,
//!   contraction, k-way refinement, `BisectState`) works on, from
//!   [`shard_ranges`]. `threads = 0` follows the installed workers above
//!   [`VERTEX_FLOOR`]; an explicit count is honoured exactly, at any size,
//!   so tests and the benchmark can force any decomposition. Every kernel
//!   is bit-identical at every shard count.

use std::ops::Range;

// The four floors keep the values of the constants they replaced; none
// was set from a measured break-even point.

/// Vertex kernels (matching, contraction, refinement state, projection,
/// metrics) stay on one shard below this many vertices.
pub const VERTEX_FLOOR: usize = 8192;

/// Recursive bisection and nested dissection fork their two subproblems
/// only at or above this many vertices; smaller subtrees recurse inline.
pub const FORK_FLOOR: usize = 4096;

/// The Laplacian SpMV shards its rows only at or above this many rows.
pub const SPMV_FLOOR: usize = 20_000;

/// Dense vector kernels (`dot`, `axpy`, ...) fan out only at or above this
/// length.
pub const VECTOR_FLOOR: usize = 1 << 16;

/// Run `f` on a pool of `threads` workers; `threads == 0` leaves the
/// ambient pool in place. Every parallel kernel invoked inside
/// `f`, nested [`rayon::join`] forks included, follows that pool.
pub fn with_fanout<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    if threads == 0 {
        return f();
    }
    #[expect(
        clippy::expect_used,
        reason = "pool construction fails only on thread-spawn resource exhaustion; no recovery is possible"
    )]
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("worker pool");
    pool.install(f)
}

/// Cut `0..n` into even contiguous shards. `threads == 0` gives one shard
/// below [`VERTEX_FLOOR`] and one per installed worker above it; any other
/// value gives exactly that many shards (at most `n`).
pub fn shard_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let shards = match threads {
        0 if n < VERTEX_FLOOR => 1,
        0 => rayon::current_num_threads(),
        t => t,
    }
    .clamp(1, n.max(1));
    (0..shards)
        .map(|i| i * n / shards..(i + 1) * n / shards)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_installs_exactly_the_requested_workers() {
        let ambient = rayon::current_num_threads();
        assert_eq!(with_fanout(0, rayon::current_num_threads), ambient);
        assert_eq!(with_fanout(1, rayon::current_num_threads), 1);
        assert_eq!(with_fanout(64, rayon::current_num_threads), 64);
    }

    #[test]
    fn shard_ranges_cover_the_range_contiguously() {
        for n in [0usize, 1, 7, 8191, 8192, 100_003] {
            for t in [0usize, 1, 2, 3, 8] {
                let r = shard_ranges(n, t);
                assert_eq!(r[0].start, 0, "n={n} t={t}");
                assert_eq!(r[r.len() - 1].end, n, "n={n} t={t}");
                assert!(r.windows(2).all(|w| w[0].end == w[1].start), "n={n} t={t}");
                if t > 0 {
                    assert_eq!(r.len(), t.min(n.max(1)), "explicit count at n={n}");
                } else if n < VERTEX_FLOOR {
                    assert_eq!(r.len(), 1, "auto count below the floor at n={n}");
                }
            }
        }
    }
}
