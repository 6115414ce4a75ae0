//! The serving layer end to end: bootstrap the concurrent query engine
//! through the dissemination swarm, hammer it from several client
//! threads, and land a daily delta mid-load — queries never stop, and
//! every query issued after the swap sees the new day.
//!
//! Run with: `cargo run --release --example service_engine`

use inano::demo::DemoWorld;
use inano::model::Ipv4;
use inano::service::{QueryEngine, ServiceConfig};
use inano::swarm::{SwarmConfig, SwarmSource};
use inano_obs::quantile_from_counts;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn main() {
    println!("building a demo world and two days of measurements...");
    let world = DemoWorld::new(5);
    let day1 = world.atlas_for_day(1);
    let mut source = SwarmSource::new(
        &world.atlas,
        &[day1],
        SwarmConfig {
            n_peers: 100,
            ..SwarmConfig::default()
        },
    );

    let cfg = ServiceConfig::default();
    let workers = cfg.workers;
    let engine = Arc::new(QueryEngine::bootstrap(&mut source, cfg).expect("bootstrap via swarm"));
    println!(
        "engine up at day {} with {workers} workers (swarm median download {:.0}s)",
        engine.day(),
        source.last_fetch_secs().unwrap_or(f64::NAN)
    );

    // A client population asking about a fixed set of popular pairs.
    let hosts = world.sample_hosts(24);
    let ips: Vec<Ipv4> = hosts.iter().map(|&h| world.net.host(h).ip).collect();
    let pairs: Vec<(Ipv4, Ipv4)> = ips
        .iter()
        .flat_map(|&s| ips.iter().filter(move |&&d| d != s).map(move |&d| (s, d)))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let pairs = pairs.clone();
            thread::spawn(move || {
                let mut ok = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    ok += engine
                        .query_batch(&pairs)
                        .into_iter()
                        .filter(Result::is_ok)
                        .count() as u64;
                }
                ok
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(150));
    let applied = engine.update(&mut source).expect("daily delta applies");
    println!(
        "applied {applied} delta(s) under load; now serving day {}",
        engine.day()
    );
    thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    let answered: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let elapsed = started.elapsed().as_secs_f64();

    // The engine's counters, under the names a server publishes them.
    let stats = engine.metrics_dump("shard0");
    let queries = stats.counter("shard0.queries");
    println!(
        "\n{answered} routable answers; engine saw {queries} queries at {:.0} qps",
        queries as f64 / elapsed
    );
    let latency = stats.histogram_sum("shard0.latency_us");
    let hits = stats.counter("shard0.cache.hits");
    let probed = hits + stats.counter("shard0.cache.misses");
    println!(
        "latency p50 {}us p99 {}us; cache hit rate {:.1}% ({} evictions); epoch {}",
        quantile_from_counts(&latency, 0.50),
        quantile_from_counts(&latency, 0.99),
        hits as f64 / probed.max(1) as f64 * 100.0,
        stats.counter("shard0.cache.evictions"),
        stats.gauge("shard0.epoch")
    );
}
