//! Service metrics: the engine's lock-free counters plus a log₂
//! latency histogram ([`inano_obs::LatencyHistogram`]), and the
//! mirror-follow registers. Readers never see these structs directly:
//! [`crate::QueryEngine::collect_metrics`] publishes them as `shardN.*`
//! entries of an [`inano_obs::MetricsDump`].

use inano_obs::LatencyHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// The engine's live metric registers.
#[derive(Debug, Default)]
pub struct Metrics {
    pub queries: AtomicU64,
    pub errors: AtomicU64,
    pub swaps: AtomicU64,
    pub latency: LatencyHistogram,
}

impl Metrics {
    pub fn record_query(&self, us: u64, ok: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record_us(us);
    }
}

/// Counters tracking how a mirror's engine follows its upstream: how
/// many deltas it applied, how often it fell back to a full resync,
/// how many fetch races it recovered from, and how far behind the
/// upstream head it last observed itself ([`MirrorStats::lag_days`]).
/// All zero on an origin that never calls `update`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MirrorStats {
    /// Deltas applied by `update` over this engine's lifetime.
    pub deltas_applied: u64,
    /// Full-atlas swaps via `replace_atlas` (broken delta chains).
    pub full_resyncs: u64,
    /// `VersionRaced`/`ChunkOutOfRange` restarts the fetch path
    /// recovered from.
    pub races_recovered: u64,
    /// Upstream head day minus local day at the last `update` — the
    /// convergence lag, ~0 on a healthy mirror.
    pub lag_days: u32,
    /// Upstream head day observed at the last `update`.
    pub upstream_day: u32,
}

/// The live registers behind [`MirrorStats`].
#[derive(Debug, Default)]
pub struct MirrorMetrics {
    pub deltas_applied: AtomicU64,
    pub full_resyncs: AtomicU64,
    pub races_recovered: AtomicU64,
    pub lag_days: AtomicU64,
    pub upstream_day: AtomicU64,
}

impl MirrorMetrics {
    pub fn snapshot(&self) -> MirrorStats {
        MirrorStats {
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            full_resyncs: self.full_resyncs.load(Ordering::Relaxed),
            races_recovered: self.races_recovered.load(Ordering::Relaxed),
            lag_days: self.lag_days.load(Ordering::Relaxed) as u32,
            upstream_day: self.upstream_day.load(Ordering::Relaxed) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_record() {
        let m = Metrics::default();
        m.record_query(100, true);
        m.record_query(200, false);
        assert_eq!(m.queries.load(Ordering::Relaxed), 2);
        assert_eq!(m.errors.load(Ordering::Relaxed), 1);
        assert_eq!(m.latency.count(), 2);
    }

    #[test]
    fn mirror_metrics_snapshot() {
        let m = MirrorMetrics::default();
        m.deltas_applied.fetch_add(3, Ordering::Relaxed);
        m.lag_days.store(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.deltas_applied, 3);
        assert_eq!(s.lag_days, 2);
        assert_eq!(s.full_resyncs, 0);
    }
}
