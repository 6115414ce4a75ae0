//! `svc_throughput`: load-generate the `inano-service` query engine and
//! report serving metrics as a single BENCH JSON line (stable keys, one
//! line, parseable by future perf-trajectory tooling).
//!
//! The workload models the paper's application studies: many clients
//! asking about few popular destinations — sources uniform, destinations
//! zipf(s=1.0) over the atlas prefixes — so the cluster-keyed result
//! cache sees a realistic skew. Halfway through, a day-1 delta is
//! applied on a separate thread to demonstrate (and time) a hot swap
//! under load.
//!
//! Usage: `svc_throughput [--queries N] [--workers W] [--scale test|experiment]`

use inano_atlas::AtlasDelta;
use inano_bench::report::{bench_line, rounded};
use inano_bench::{Scenario, ScenarioConfig};
use inano_core::PredictorConfig;
use inano_model::rng::rng_for;
use inano_model::{Ipv4, ModelError};
use inano_net::cli::arg;
use inano_obs::quantile_from_counts;
use inano_service::{QueryEngine, ServiceConfig};
use rand::Rng;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// The BENCH record.
#[derive(Serialize)]
struct Record {
    bench: &'static str,
    qps: f64,
    p50_us: u64,
    p99_us: u64,
    cache_hit: f64,
    queries: u64,
    noroute: u64,
    errors: u64,
    workers: usize,
    swaps: u64,
}

fn main() {
    let n_queries: usize = arg("--queries", 200_000);
    let workers: usize = arg("--workers", 0); // 0 = ServiceConfig default
    let scale: String = arg("--scale", "test".to_string());
    let batch = 2048usize;

    let sc = Scenario::build(match scale.as_str() {
        "experiment" => ScenarioConfig::experiment(99),
        _ => ScenarioConfig::test(99),
    });
    eprintln!("scenario: {}", sc.summary());
    let (_, atlas1) = sc.atlas_for_day(1);
    let delta = AtlasDelta::between(&sc.atlas, &atlas1);

    // One representative address per atlas prefix, deterministically
    // ordered for the zipf ranking.
    let mut by_prefix: Vec<_> = sc
        .atlas
        .prefix_as
        .iter()
        .map(|(&pid, &(prefix, _))| (pid, prefix.nth(1)))
        .collect();
    by_prefix.sort_by_key(|&(pid, _)| pid);
    let ips: Vec<Ipv4> = by_prefix.into_iter().map(|(_, ip)| ip).collect();
    assert!(ips.len() > 2, "scenario must expose prefixes to query");

    // Destination popularity: zipf(s=1.0) by prefix rank.
    let weights: Vec<f64> = (0..ips.len()).map(|r| 1.0 / (r as f64 + 1.0)).collect();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total_weight = *cumulative.last().unwrap();

    // Draw the mix. Pairs are not pre-validated: a pair the atlas
    // cannot route is a correct "no route" answer, counted in
    // `noroute` apart from faults (`errors`).
    let mut rng = rng_for(99, "svc-throughput-load");
    let pairs: Vec<(Ipv4, Ipv4)> = (0..n_queries)
        .map(|_| {
            let src = ips[rng.gen_range(0..ips.len())];
            let pick = rng.gen_range(0.0..total_weight);
            let dst = ips[cumulative.partition_point(|&c| c < pick).min(ips.len() - 1)];
            (src, dst)
        })
        .collect();

    let mut cfg = ServiceConfig {
        predictor: PredictorConfig::full(),
        ..ServiceConfig::default()
    };
    if workers > 0 {
        cfg.workers = workers;
    }
    let workers = cfg.workers;
    let engine = Arc::new(QueryEngine::new(Arc::new(sc.atlas.clone()), cfg));

    // Halfway through the load, land the day-1 delta from a separate
    // thread — the swap genuinely overlaps in-flight batches, so its
    // reported duration is a swap-under-load number.
    let swap_trigger = n_queries / 2;
    let mut issued = 0usize;
    let mut swap_thread: Option<std::thread::JoinHandle<()>> = None;

    let spawn_swap = |label: &'static str| {
        let engine = Arc::clone(&engine);
        let delta = delta.clone();
        std::thread::spawn(move || {
            let swap_t0 = Instant::now();
            let day = engine.apply_delta(&delta).expect("delta applies");
            eprintln!(
                "hot swap to day {day} in {:.1} ms ({label})",
                swap_t0.elapsed().as_secs_f64() * 1e3
            );
        })
    };

    let t0 = Instant::now();
    let mut ok = 0u64;
    let mut noroute = 0u64;
    let mut err = 0u64;
    for chunk in pairs.chunks(batch) {
        if swap_thread.is_none() && issued >= swap_trigger {
            swap_thread = Some(spawn_swap("under load"));
        }
        for r in engine.query_batch(chunk) {
            match r {
                Ok(_) => ok += 1,
                Err(ModelError::NoPath(_)) => noroute += 1,
                Err(_) => err += 1,
            }
        }
        issued += chunk.len();
    }
    // Tiny runs (one batch) never reach the mid-load spawn point; swap
    // after the load so the day-1 assertions still hold.
    swap_thread
        .unwrap_or_else(|| spawn_swap("after load"))
        .join()
        .expect("swap thread");
    let elapsed = t0.elapsed().as_secs_f64();

    let dump = engine.metrics_dump("shard0");
    let latency = dump.histogram_sum("shard0.latency_us");
    let (p50_us, p99_us) = (
        quantile_from_counts(&latency, 0.50),
        quantile_from_counts(&latency, 0.99),
    );
    let (hits, misses) = (
        dump.counter("shard0.cache.hits"),
        dump.counter("shard0.cache.misses"),
    );
    let cache_hit = hits as f64 / (hits + misses).max(1) as f64;
    let swaps = dump.counter("shard0.swaps");
    let day = dump.gauge("shard0.day");
    let qps = (ok + noroute + err) as f64 / elapsed;
    eprintln!(
        "served {} queries ({} ok, {} no route, {} err) in {:.2}s on {} workers: \
         {:.0} qps, p50 {}us, p99 {}us, cache hit rate {:.3} \
         ({} hits / {} misses / {} evictions), {} swap(s), day {}",
        dump.counter("shard0.queries"),
        ok,
        noroute,
        err,
        elapsed,
        workers,
        qps,
        p50_us,
        p99_us,
        cache_hit,
        hits,
        misses,
        dump.counter("shard0.cache.evictions"),
        swaps,
        day,
    );
    assert!(swaps >= 1, "the mid-load swap must have happened");
    assert_eq!(day, 1, "post-swap generation serves day 1");

    // The contract line: exactly one JSON record on stdout.
    bench_line(&Record {
        bench: "svc_throughput",
        qps: rounded(qps, 1),
        p50_us,
        p99_us,
        cache_hit: rounded(cache_hit, 4),
        queries: dump.counter("shard0.queries"),
        noroute,
        errors: err,
        workers,
        swaps,
    });
}
