//! Uncoarsening-phase partition refinement (§3.3 of the paper): the KL/FM
//! move engine, gain queues, and the GR / KLR / BGR / BKLR / BKLGR policies.

pub mod fm;
pub mod queue;
pub mod state;

pub use fm::{fm_pass, refine_level, refine_level_stats, BalanceTargets, PassStats, RefineStats};
pub use queue::GainQueue;
pub use state::BisectState;
