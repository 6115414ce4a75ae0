//! `fleet_scrape`: poll several `inano-serve` instances, merge their
//! per-shard engine counters into one fleet-wide view, and emit it as a
//! single BENCH JSON line.
//!
//! Both modes read the same thing: each server's unified
//! [`MetricsDump`] (the `Metrics` frame), merged with
//! [`MetricsDump::merged`] — counters sum, histograms sum element-wise,
//! gauges take the fleet max. The merge is exact, not approximate:
//! every shard's raw log₂ latency buckets are summed before p50/p99
//! are recomputed, where averaging per-server percentiles would be
//! statistically meaningless.
//!
//! One-shot (the default) emits one `fleet_scrape` record. With
//! `--interval MS` the scraper becomes a time-series poller: every tick
//! it scrapes and merges the fleet's dumps and appends one sample —
//! fleet queries, deltas applied, full resyncs, and the *fleet lag*
//! (max minus min serving day across every scraped shard, the spread a
//! mid-run delta swap opens and a mirror refresh closes). Each tick
//! also drains every server's event journal (`Events` since the
//! per-server cursor from the previous tick) and merges the new events
//! into the sample by `(t_ms, seq)`; entries a server's bounded ring
//! dropped between ticks are *counted* — the journal's `lost`
//! accounting — and surface as `events_lost`, never silently skipped.
//! The samples ship as one `fleet_timeseries` BENCH JSON line.
//!
//! Usage: `fleet_scrape --connect ADDR [--connect ADDR]...
//!         [--interval MS [--ticks T]]`
//!
//! [`MetricsDump`]: inano_obs::MetricsDump

use inano_bench::report::{bench_line, rounded};
use inano_net::cli::{arg, repeated};
use inano_net::NetClient;
use inano_obs::{quantile_from_counts, MetricValue, MetricsDump};
use serde::Serialize;
use std::time::{Duration, Instant};

/// The one-shot BENCH record.
#[derive(Serialize)]
struct Snapshot {
    bench: &'static str,
    servers: usize,
    shards: usize,
    queries: u64,
    errors: u64,
    p50_us: u64,
    p99_us: u64,
    cache_hit: f64,
    swaps: u64,
    epoch: u64,
    day: u64,
}

/// The `--interval` BENCH record.
#[derive(Serialize)]
struct Timeseries {
    bench: &'static str,
    servers: usize,
    interval_ms: u64,
    monotone: bool,
    events_lost: u64,
    ticks: Vec<Tick>,
}

/// One merged-fleet sample.
#[derive(Serialize)]
struct Tick {
    t_ms: u64,
    queries: u64,
    deltas_applied: u64,
    full_resyncs: u64,
    fleet_lag_days: u64,
    /// New journal events merged across the fleet this tick.
    events: u64,
    /// Ring entries dropped fleet-wide before this tick's scrape could
    /// read them (cumulative across the run).
    events_lost: u64,
}

/// The value of every `shardN.<series>` gauge in `dump`.
fn shard_gauges<'a>(dump: &'a MetricsDump, series: &'a str) -> impl Iterator<Item = u64> + 'a {
    dump.entries
        .iter()
        .filter_map(move |(name, value)| match (name.split_once('.'), value) {
            (Some((shard, rest)), MetricValue::Gauge(v))
                if shard.starts_with("shard") && rest == series =>
            {
                Some(*v)
            }
            _ => None,
        })
}

/// The serving-day spread across every shard of every dump: 0 when the
/// whole fleet serves the same generation, positive while a swap at
/// the origin has not yet propagated to every mirror.
fn fleet_lag_days(dumps: &[MetricsDump]) -> u64 {
    let days: Vec<u64> = dumps.iter().flat_map(|d| shard_gauges(d, "day")).collect();
    match (days.iter().min(), days.iter().max()) {
        (Some(lo), Some(hi)) => hi - lo,
        _ => 0,
    }
}

/// One client per target; panics name the address that failed.
fn connect(targets: &[(String, String)]) -> Vec<(String, NetClient)> {
    targets
        .iter()
        .map(|(_, addr)| {
            let client =
                NetClient::connect(addr).unwrap_or_else(|e| panic!("connect to {addr}: {e}"));
            (addr.clone(), client)
        })
        .collect()
}

/// Poll every server's metrics dump once; panics carry the failing
/// address so a dead fleet member is nameable from the error alone.
fn scrape(clients: &mut [(String, NetClient)]) -> Vec<MetricsDump> {
    clients
        .iter_mut()
        .map(|(addr, client)| {
            client
                .metrics()
                .unwrap_or_else(|e| panic!("metrics scrape of {addr}: {e}"))
        })
        .collect()
}

fn timeseries(targets: &[(String, String)], interval_ms: u64, ticks: usize) {
    // Per-server state: the address (for error messages), the client,
    // and the event-journal cursor — the `next_seq` of the last page,
    // so each tick only pulls events the previous tick hasn't seen.
    let mut clients = connect(targets);
    let mut cursors: Vec<u64> = vec![0; clients.len()];
    let started = Instant::now();
    let mut samples: Vec<Tick> = Vec::with_capacity(ticks);
    let mut events_lost_total = 0u64;
    for tick in 0..ticks {
        if tick > 0 {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        let dumps = scrape(&mut clients);
        let lag = fleet_lag_days(&dumps);
        let merged = MetricsDump::merged(dumps.iter());
        // Drain each server's journal since its cursor, then merge the
        // new events into one fleet-ordered slice. A non-zero `lost`
        // means the server's ring overwrote entries between ticks —
        // report the gap, don't pretend the timeline is complete.
        let mut new_events: Vec<(String, inano_obs::Event)> = Vec::new();
        for (i, (addr, client)) in clients.iter_mut().enumerate() {
            let page = client
                .events(cursors[i])
                .unwrap_or_else(|e| panic!("events scrape of {addr}: {e}"));
            events_lost_total += page.lost;
            cursors[i] = page.next_seq;
            new_events.extend(page.events.into_iter().map(|e| (addr.clone(), e)));
        }
        new_events.sort_by_key(|(_, e)| (e.t_ms, e.seq));
        for (addr, e) in &new_events {
            eprintln!(
                "  event {addr} seq={} t_ms={} {} {}",
                e.seq,
                e.t_ms,
                e.kind.name(),
                e.detail
            );
        }
        let sample = Tick {
            t_ms: started.elapsed().as_millis() as u64,
            queries: merged.counter_sum(".queries"),
            deltas_applied: merged.counter_sum(".mirror.deltas_applied"),
            full_resyncs: merged.counter_sum(".mirror.full_resyncs"),
            fleet_lag_days: lag,
            events: new_events.len() as u64,
            events_lost: events_lost_total,
        };
        eprintln!(
            "tick {tick}: t={}ms queries={} deltas_applied={} full_resyncs={} fleet_lag_days={} \
             events={} events_lost={}",
            sample.t_ms,
            sample.queries,
            sample.deltas_applied,
            sample.full_resyncs,
            sample.fleet_lag_days,
            sample.events,
            sample.events_lost
        );
        samples.push(sample);
    }
    // Counters merged from per-server dumps must never go backwards
    // tick over tick; a false here means a server restarted mid-run
    // (or the merge is broken) and the series is not comparable.
    let monotone = samples
        .windows(2)
        .all(|w| w[1].queries >= w[0].queries && w[1].deltas_applied >= w[0].deltas_applied);
    // The contract line: exactly one JSON record on stdout.
    bench_line(&Timeseries {
        bench: "fleet_timeseries",
        servers: clients.len(),
        interval_ms,
        monotone,
        events_lost: events_lost_total,
        ticks: samples,
    });
}

fn one_shot(targets: &[(String, String)]) {
    let mut clients = connect(targets);
    let dumps = scrape(&mut clients);
    for ((addr, _), dump) in clients.iter().zip(&dumps) {
        for (name, _) in dump.entries.iter().filter(|(n, _)| n.ends_with(".epoch")) {
            let shard = name.trim_end_matches(".epoch");
            let buckets = dump.histogram_sum(&format!("{shard}.latency_us"));
            eprintln!(
                "{addr} {shard}: {} queries, epoch {}, day {}, p99 {}us",
                dump.counter(&format!("{shard}.queries")),
                dump.gauge(name),
                dump.gauge(&format!("{shard}.day")),
                quantile_from_counts(&buckets, 0.99)
            );
        }
    }
    let shards = dumps.iter().map(|d| shard_gauges(d, "epoch").count()).sum();
    let fleet = MetricsDump::merged(dumps.iter());
    let latency = fleet.histogram_sum(".latency_us");
    let hits = fleet.counter_sum(".cache.hits");
    let probed = hits + fleet.counter_sum(".cache.misses");
    // The contract line: exactly one JSON record on stdout.
    bench_line(&Snapshot {
        bench: "fleet_scrape",
        servers: clients.len(),
        shards,
        queries: fleet.counter_sum(".queries"),
        errors: fleet.counter_sum(".errors"),
        p50_us: quantile_from_counts(&latency, 0.50),
        p99_us: quantile_from_counts(&latency, 0.99),
        cache_hit: rounded(hits as f64 / probed.max(1) as f64, 4),
        swaps: fleet.counter_sum(".swaps"),
        epoch: shard_gauges(&fleet, "epoch").max().unwrap_or(0),
        day: shard_gauges(&fleet, "day").max().unwrap_or(0),
    });
}

fn main() {
    let targets = repeated(&["--connect"]);
    if targets.is_empty() {
        eprintln!(
            "usage: fleet_scrape --connect ADDR [--connect ADDR]... [--interval MS [--ticks T]]"
        );
        std::process::exit(2);
    }
    let interval_ms: u64 = arg("--interval", 0);
    if interval_ms > 0 {
        let ticks: usize = arg("--ticks", 5);
        timeseries(&targets, interval_ms, ticks.max(1));
    } else {
        one_shot(&targets);
    }
}
