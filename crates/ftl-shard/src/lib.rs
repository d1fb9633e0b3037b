//! # ftl-shard
//!
//! A sharded FTL frontend: static partitioning of the logical page space
//! across `N` independent per-channel-group FTL shards.
//!
//! Every FTL in this workspace is a single monolithic instance — one CMT,
//! one GTD, one allocator — so no matter how many chips the device exposes,
//! translation is fed from one serial path. Production FTLs scale the other
//! way: they partition the logical space so each partition owns a full
//! translation stack and a slice of the hardware, and partitions proceed
//! independently. This crate adds that layer on top of *any* [`ftl_base::Ftl`]:
//!
//! * [`ShardMap`] — the routing function: global LPNs stripe round-robin
//!   across shards, so sequential runs split evenly and stay sequential
//!   *within* each shard,
//! * [`ShardedFtl`] — the frontend: `N` complete FTL instances (one per
//!   channel group of the base geometry), each behind its own serial
//!   translation engine ([`ssd_sched::MultiIssuer`]), completing out of
//!   order across shards while aggregate statistics stay exact
//!   ([`ftl_base::FtlStats::merge_delta`], [`ssd_sim::DeviceStats::merge`]).
//!
//! `ShardedFtl` implements [`ftl_base::Ftl`], so the experiment harness's
//! runners and figure binaries drive it unchanged; with one shard it is a
//! transparent wrapper (bit-for-bit identical to the wrapped FTL — enforced
//! by this crate's tests). The `fig23_shard_scaling` bench sweeps shard
//! counts against queue depth.

mod map;
mod sharded;

pub use map::{ShardMap, ShardSegment};
pub use sharded::ShardedFtl;
