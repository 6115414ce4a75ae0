//! The unified metrics registry: one named map of counters, gauges and
//! latency histograms per process, snapshotted into a [`MetricsDump`]
//! that merges exactly across servers.
//!
//! ## Handles, not lookups
//!
//! The hot path never touches the registry. [`MetricsRegistry::counter`]
//! hands back a [`Counter`] — a clonable `Arc<AtomicU64>` wrapper — and
//! incrementing it is one relaxed `fetch_add`, the same cost as the
//! ad-hoc atomics it replaces. The registry's map is only walked at
//! [`MetricsRegistry::dump`] time (a scrape, once a second at most).
//!
//! ## Collectors
//!
//! Subsystems that already keep their own state (a `QueryEngine`'s
//! counters, a cache's counter snapshot) don't re-plumb every atomic:
//! they register a *collector* — a closure run at dump time that
//! appends `(name, value)` pairs from a fresh snapshot.
//!
//! ## Merge semantics
//!
//! Fleet aggregation: counters and histogram buckets sum element-wise
//! (exact — never average percentiles), while gauges take the **max** — a gauge is a level or
//! watermark (queue depth, convergence lag, peak memory), and the
//! merged fleet view reports the worst member.

use crate::hist::LatencyHistogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A named monotone counter. Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named level (queue depth, lag, watermark). Cloning shares the
/// underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is higher — the watermark pattern.
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric: the live handle the registry snapshots.
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<LatencyHistogram>),
}

impl Metric {
    fn snapshot(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        }
    }
}

/// A snapshotted metric value, as it travels in a [`MetricsDump`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone count; merges by summing.
    Counter(u64),
    /// Level or watermark; merges by max (fleet-worst).
    Gauge(u64),
    /// Raw log₂ bucket counts; merges element-wise (exact).
    Histogram(Vec<u64>),
}

/// A closure run at dump time to append snapshot-derived entries.
type Collector = Box<dyn Fn(&mut Vec<(String, MetricValue)>) + Send + Sync>;

/// The process-wide metric map. See the module docs for the contract.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
    collectors: Mutex<Vec<Collector>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use. Repeat calls
    /// (any clone holder) share one atomic. If the name is already
    /// taken by a different kind, a detached handle is returned — the
    /// registry never panics over a naming bug, the dump just won't
    /// show the detached writer.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.metrics.write().expect("metrics lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => {
                debug_assert!(false, "metric {name} registered with another kind");
                Counter::default()
            }
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.metrics.write().expect("metrics lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => {
                debug_assert!(false, "metric {name} registered with another kind");
                Gauge::default()
            }
        }
    }

    /// Register an existing histogram under `name` (histograms are
    /// usually owned by their subsystem and attached, not created
    /// through the registry).
    pub fn attach_histogram(&self, name: &str, hist: Arc<LatencyHistogram>) {
        let mut map = self.metrics.write().expect("metrics lock");
        map.insert(name.to_string(), Metric::Histogram(hist));
    }

    /// Register a dump-time collector; see the module docs.
    pub fn register_collector<F>(&self, f: F)
    where
        F: Fn(&mut Vec<(String, MetricValue)>) + Send + Sync + 'static,
    {
        self.collectors
            .lock()
            .expect("collectors lock")
            .push(Box::new(f));
    }

    /// Snapshot every registered metric plus every collector's output
    /// into a sorted, stable-named dump.
    pub fn dump(&self) -> MetricsDump {
        let mut entries: Vec<(String, MetricValue)> = {
            let map = self.metrics.read().expect("metrics lock");
            map.iter()
                .map(|(name, m)| (name.clone(), m.snapshot()))
                .collect()
        };
        for collect in self.collectors.lock().expect("collectors lock").iter() {
            collect(&mut entries);
        }
        MetricsDump::from_entries(entries)
    }
}

/// A point-in-time snapshot of a registry: sorted `(name, value)`
/// pairs, ready for the wire, the text endpoint, or a fleet merge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsDump {
    /// Sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsDump {
    /// A dump over `entries` in any order (a collector's output, a
    /// decoded wire frame): sorting here is what lets every lookup
    /// binary-search.
    pub fn from_entries(mut entries: Vec<(String, MetricValue)>) -> MetricsDump {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsDump { entries }
    }

    /// The value under `name`, if present.
    pub fn value(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The counter under `name`, or 0 (absent counters merge as 0).
    pub fn counter(&self, name: &str) -> u64 {
        match self.value(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge under `name`, or 0.
    pub fn gauge(&self, name: &str) -> u64 {
        match self.value(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Sum of every counter whose name ends with `suffix` — the fleet
    /// aggregation shorthand for per-shard names (`shard0.queries`,
    /// `shard1.queries`, ...).
    pub fn counter_sum(&self, suffix: &str) -> u64 {
        self.entries
            .iter()
            .filter_map(|(n, v)| match v {
                MetricValue::Counter(c) if n.ends_with(suffix) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Element-wise sum of every histogram whose name ends with
    /// `suffix` (`shard0.latency_us`, `shard1.latency_us`, ...) — the
    /// histogram analogue of [`MetricsDump::counter_sum`]. Empty when
    /// none match.
    pub fn histogram_sum(&self, suffix: &str) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for (name, value) in &self.entries {
            if let MetricValue::Histogram(buckets) = value {
                if name.ends_with(suffix) {
                    if out.len() < buckets.len() {
                        out.resize(buckets.len(), 0);
                    }
                    for (acc, &c) in out.iter_mut().zip(buckets) {
                        *acc = acc.saturating_add(c);
                    }
                }
            }
        }
        out
    }

    /// Merge `other` into `self` per the registry's merge semantics:
    /// counters sum, histogram buckets sum element-wise, gauges take
    /// the max. A name that is one kind here and another there keeps
    /// this dump's value — a kind mismatch is a bug, never a panic.
    pub fn merge(&mut self, other: &MetricsDump) {
        for (name, theirs) in &other.entries {
            match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => {
                    let ours = &mut self.entries[i].1;
                    match (ours, theirs) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                            *a = a.saturating_add(*b);
                        }
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                            if a.len() < b.len() {
                                a.resize(b.len(), 0);
                            }
                            for (acc, &c) in a.iter_mut().zip(b) {
                                *acc = acc.saturating_add(c);
                            }
                        }
                        _ => {} // kind mismatch: keep ours
                    }
                }
                Err(i) => self.entries.insert(i, (name.clone(), theirs.clone())),
            }
        }
    }

    /// The exact merge of many dumps (fleet members, scrape ticks).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a MetricsDump>) -> MetricsDump {
        let mut out = MetricsDump::default();
        for p in parts {
            out.merge(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_one_atomic_and_dump_sees_them() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("srv.accepted");
        let b = reg.counter("srv.accepted");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("srv.active");
        g.set(5);
        g.raise(3); // lower: no-op
        g.raise(9);
        let dump = reg.dump();
        assert_eq!(dump.counter("srv.accepted"), 3);
        assert_eq!(dump.gauge("srv.active"), 9);
        assert_eq!(dump.counter("srv.missing"), 0);
    }

    #[test]
    fn kind_mismatch_is_detached_not_a_panic() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        c.inc();
        // Release builds: a gauge request for a counter name returns a
        // detached handle and the registered counter is untouched.
        if !cfg!(debug_assertions) {
            let g = reg.gauge("x");
            g.set(99);
            assert_eq!(reg.dump().counter("x"), 1);
        }
    }

    #[test]
    fn collectors_append_at_dump_time() {
        let reg = MetricsRegistry::new();
        let live = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&live);
        reg.register_collector(move |out| {
            out.push((
                "shard0.queries".into(),
                MetricValue::Counter(seen.load(Ordering::Relaxed)),
            ));
        });
        live.store(7, Ordering::Relaxed);
        assert_eq!(reg.dump().counter("shard0.queries"), 7);
        live.store(11, Ordering::Relaxed);
        assert_eq!(reg.dump().counter("shard0.queries"), 11);
    }

    #[test]
    fn attached_histograms_dump_their_buckets() {
        let reg = MetricsRegistry::new();
        let h = Arc::new(LatencyHistogram::default());
        reg.attach_histogram("shard0.latency_us", Arc::clone(&h));
        h.record_us(10);
        h.record_us(5000);
        match reg.dump().value("shard0.latency_us") {
            Some(MetricValue::Histogram(b)) => assert_eq!(b.iter().sum::<u64>(), 2),
            other => panic!("want histogram, got {other:?}"),
        }
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_sums_buckets() {
        let a = MetricsDump {
            entries: vec![
                ("c".into(), MetricValue::Counter(3)),
                ("g".into(), MetricValue::Gauge(5)),
                ("h".into(), MetricValue::Histogram(vec![1, 0, 2])),
                ("only_a".into(), MetricValue::Counter(1)),
            ],
        };
        let b = MetricsDump {
            entries: vec![
                ("c".into(), MetricValue::Counter(4)),
                ("g".into(), MetricValue::Gauge(2)),
                ("h".into(), MetricValue::Histogram(vec![0, 1, 0, 9])),
                ("only_b".into(), MetricValue::Gauge(8)),
            ],
        };
        let m = MetricsDump::merged([&a, &b]);
        assert_eq!(m.counter("c"), 7);
        assert_eq!(m.gauge("g"), 5);
        assert_eq!(
            m.value("h"),
            Some(&MetricValue::Histogram(vec![1, 1, 2, 9]))
        );
        assert_eq!(m.counter("only_a"), 1);
        assert_eq!(m.gauge("only_b"), 8);
        // Entries stay sorted so `value` can binary-search.
        let names: Vec<_> = m.entries.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn counter_sum_aggregates_per_shard_names() {
        let d = MetricsDump {
            entries: vec![
                ("shard0.queries".into(), MetricValue::Counter(10)),
                ("shard1.queries".into(), MetricValue::Counter(5)),
                ("shard1.errors".into(), MetricValue::Counter(2)),
            ],
        };
        assert_eq!(d.counter_sum(".queries"), 15);
        assert_eq!(d.counter_sum(".errors"), 2);
    }

    #[test]
    fn histogram_sum_merges_per_shard_buckets() {
        let d = MetricsDump::from_entries(vec![
            (
                "shard1.latency_us".into(),
                MetricValue::Histogram(vec![0, 1, 0, 4]),
            ),
            (
                "shard0.latency_us".into(),
                MetricValue::Histogram(vec![2, 3]),
            ),
            ("shard0.queries".into(), MetricValue::Counter(10)),
        ]);
        assert_eq!(d.entries[0].0, "shard0.latency_us", "entries are sorted");
        assert_eq!(d.histogram_sum(".latency_us"), vec![2, 4, 0, 4]);
        assert!(d.histogram_sum(".missing").is_empty());
    }
}
