//! `learnedftl-suite` — umbrella crate for the LearnedFTL reproduction workspace.
//!
//! This crate exists to host the workspace-level integration tests (`tests/`)
//! and runnable examples (`examples/`). It re-exports the member crates so the
//! examples can use a single import root.
//!
//! ```
//! use learnedftl_suite::prelude::*;
//!
//! let config = SsdConfig::small();
//! assert!(config.geometry.total_pages() > 0);
//! ```

pub use baselines;
pub use ftl_base;
pub use ftl_shard;
pub use harness;
pub use learned_index;
pub use learnedftl;
pub use metrics;
pub use ssd_sched;
pub use ssd_sim;
pub use workloads;

/// Convenient re-exports of the most commonly used types across the workspace.
pub mod prelude {
    pub use baselines::{Dftl, IdealFtl, LeaFtl, Tpftl};
    pub use ftl_base::{Ftl, FtlStats, HostOp, HostRequest};
    pub use ftl_shard::{ShardMap, ShardedFtl};
    pub use harness::{FtlKind, Runner, ShardedRunResult};
    pub use learnedftl::{LearnedFtl, LearnedFtlConfig};
    pub use metrics::{EnergyModel, LatencyHistogram};
    pub use ssd_sched::{IoScheduler, MultiIssuer, QueuePair, SchedConfig};
    pub use ssd_sim::{FlashDevice, SsdConfig};
    pub use workloads::{FioPattern, FioWorkload};
}
