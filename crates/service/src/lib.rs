//! # inano-service
//!
//! The serving layer above `inano-core`: an embeddable, multi-threaded
//! query engine that turns the paper's single-threaded library
//! (§5 — "a library runnable at every peer") into something that serves
//! heavy traffic on a multicore host.
//!
//! Three pieces, separable and individually tested:
//!
//! * [`QueryEngine`] — a worker pool (std threads + channels, no
//!   external runtime) fanning [`QueryEngine::query_batch`] chunks
//!   across cores, with an inline fast path for single queries;
//! * [`ShardedCache`] — a sharded LRU over full bidirectional
//!   predictions keyed `(src_cluster, dst_cluster, epoch)`, riding the
//!   paper's observation that predictions are stable within a
//!   measurement day, with hit/miss/eviction counters;
//! * hot swap — the serving generation is an `Arc` behind a `RwLock`
//!   taken for writing only during the pointer store of a daily-delta
//!   apply ([`QueryEngine::apply_delta`] /
//!   [`QueryEngine::update`], fed by any [`inano_core::AtlasSource`],
//!   including the swarm's `SwarmSource`), so updates never stall
//!   in-flight queries.
//!
//! [`ShardRegistry`] composes engines into multi-atlas serving: a
//! [`ShardId`]-keyed set of fully independent engines (own cache,
//! epoch, worker pool, sized from one shared budget) behind a single
//! lookup, with per-shard delta application — the unit `inano-net`
//! serves behind one listener.
//!
//! Engines publish their counters one way:
//! [`QueryEngine::collect_metrics`] appends `shardN.*` entries
//! (queries, errors, cache and search-cache counters, epoch/day
//! gauges, the raw log₂ latency histogram, mirror-follow series) to an
//! [`inano_obs::MetricsDump`], which merges exactly across shards and
//! servers; `inano-bench`'s `svc_throughput` binary drives all of this
//! under a zipf query mix and emits the numbers as a BENCH JSON line.
//!
//! See DESIGN.md ("The service layer") for the full architecture
//! discussion: threading model, cache-key soundness argument, and the
//! swap protocol.

pub mod cache;
pub mod engine;
pub mod registry;
pub mod stats;

pub use cache::{CacheCounters, CacheKey, ShardedCache};
pub use engine::{AtlasSnapshot, DeltaBlob, Generation, QueryEngine, ServiceConfig, DELTA_LOG_CAP};
pub use registry::{RegistryConfig, ShardId, ShardRegistry, ShardSpec};
pub use stats::{Metrics, MirrorMetrics, MirrorStats};
