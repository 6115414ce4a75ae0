//! Per-layer numbers for the traced run. Three sources:
//!
//! * the run's own inputs replayed in-process against each module's
//!   public functions, each call inside a span;
//! * the server's stage timings from the traced requests;
//! * deltas of the server's metrics dump.

use crate::inputs::{Inputs, Pair};
use crate::run::{counter_delta, histogram_delta_quantile, Phases};
use crate::spans::Spans;
use crate::stats::{mean, median, quantile, sorted};
use crate::workload::Workload;
use inano_atlas::codec;
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::{ErrorCode, Ipv4};
use inano_obs::MetricsDump;
use inano_service::{QueryEngine, ServiceConfig};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

/// Repeats of the set-up layers (decode, graph build).
const BUILD_REPEATS: usize = 3;

/// Workload pairs replayed on a fresh predictor: enough for a p99 with
/// ten samples beyond it.
const REPLAY_PAIRS: usize = 1_000;

/// Pairs that warm the in-process engine before it is timed, on the
/// pool workloads (the pool has 2,048 pairs).
const ENGINE_WARM_PAIRS: usize = 8_192;

/// Requests replayed through an in-process engine.
const ENGINE_REQUESTS: usize = 200;

pub struct Context<'a> {
    pub workload: Workload,
    pub inputs: &'a Inputs,
    pub phases: &'a Phases,
    pub published: &'a [crate::run::Published],
    pub dump_start: &'a MetricsDump,
    pub dump_end: &'a MetricsDump,
    /// `(start, pairs)` each sender issued from the stream.
    pub issued: &'a [(usize, usize)],
}

pub type Row = (&'static str, f64, &'static str);

pub fn measure(ctx: &Context<'_>, spans_path: &Path) -> Vec<Row> {
    let mut spans = Spans::new();
    let mut rows = Vec::new();
    in_process(ctx, &mut spans, &mut rows);
    server_side(ctx, &mut rows);
    load_side(ctx, &mut rows);
    if let Err(e) = spans.write(spans_path) {
        eprintln!("could not write {}: {e}", spans_path.display());
    }
    rows
}

fn in_process(ctx: &Context<'_>, spans: &mut Spans, rows: &mut Vec<Row>) {
    let inputs = ctx.inputs;
    let w = ctx.workload;

    let root = spans.open("atlas", 0, None);
    for i in 0..BUILD_REPEATS {
        spans.time("atlas.decode", i as u64, Some(root), || {
            codec::decode(&inputs.atlas_bytes).expect("the served bytes decode")
        });
    }
    spans.close(root);
    rows.push((
        "atlas.decode_ms",
        median(&spans.durations_us("atlas.decode")) / 1e3,
        "ms",
    ));

    let root = spans.open("core.build", 0, None);
    for i in 0..BUILD_REPEATS {
        spans.time("core.predictor_build", i as u64, Some(root), || {
            PathPredictor::new(Arc::clone(&inputs.atlas0), PredictorConfig::full())
        });
    }
    spans.close(root);
    rows.push((
        "core.predictor_build_ms",
        median(&spans.durations_us("core.predictor_build")) / 1e3,
        "ms",
    ));

    // The first workload pairs on a fresh predictor, then again on the
    // now-warm one.
    let pairs: Vec<Pair> = inputs.stream.iter().take(REPLAY_PAIRS).copied().collect();
    let predictor = PathPredictor::new(Arc::clone(&inputs.atlas0), PredictorConfig::full());
    let mut noroute = Vec::new();
    let root = spans.open("core.replay_cold", 0, None);
    for (i, &(s, d)) in pairs.iter().enumerate() {
        let r = spans.time("core.query_cold", i as u64, Some(root), || {
            predictor.query(s, d)
        });
        if r.as_ref().err().map(ErrorCode::from) == Some(ErrorCode::NoPath) {
            noroute.push(i as u64);
        }
    }
    spans.close(root);
    let root = spans.open("core.replay_warm", 0, None);
    for (i, &(s, d)) in pairs.iter().enumerate() {
        let _ = spans.time("core.query_warm", i as u64, Some(root), || {
            predictor.query(s, d)
        });
    }
    spans.close(root);
    let cold = sorted(spans.durations_us("core.query_cold"));
    rows.push(("core.cold_query_us", mean(&cold), "us"));
    rows.push(("core.cold_query_p99_us", quantile(&cold, 99.0).value, "us"));
    rows.push((
        "core.noroute_query_us",
        mean(&spans.durations_us_of("core.query_cold", &noroute)),
        "us",
    ));
    rows.push((
        "core.warm_query_us",
        mean(&spans.durations_us("core.query_warm")),
        "us",
    ));

    // Cache working sets of what the run actually sent.
    let issued = issued_pairs(&inputs.stream, ctx.issued);
    let dsts: HashSet<Ipv4> = issued.iter().map(|p| p.1).collect();
    let cluster_pairs: HashSet<_> = issued
        .iter()
        .filter_map(|&(s, d)| {
            Some((
                predictor.resolve(s).ok()?.cluster,
                predictor.resolve(d).ok()?.cluster,
            ))
        })
        .collect();
    rows.push(("gen.distinct_dst", dsts.len() as f64, "count"));
    rows.push((
        "gen.distinct_cluster_pairs",
        cluster_pairs.len() as f64,
        "count",
    ));

    // The engine at the workload's request size, warmed the way the
    // server was: the stream's first requests, then the next ones timed.
    let engine = QueryEngine::new(Arc::clone(&inputs.atlas0), ServiceConfig::default());
    let batch = w.batch();
    let mut requests = inputs.stream.chunks_exact(batch);
    let warm = if w == Workload::ColdUniform {
        0
    } else {
        ENGINE_WARM_PAIRS / batch
    };
    for chunk in requests.by_ref().take(warm) {
        engine.query_batch(chunk);
    }
    let root = spans.open("service.replay", 0, None);
    let mut timed_pairs = 0usize;
    for (i, chunk) in requests.take(ENGINE_REQUESTS).enumerate() {
        spans.time("service.query_batch", i as u64, Some(root), || {
            engine.query_batch(chunk)
        });
        timed_pairs += chunk.len();
    }
    spans.close(root);
    let total_us: f64 = spans.durations_us("service.query_batch").iter().sum();
    rows.push((
        "service.engine_pair_us",
        total_us / timed_pairs.max(1) as f64,
        "us",
    ));
    engine.shutdown();

    // The same deltas the origin published, on a fresh engine.
    let swap_ms = if inputs.deltas.is_empty() {
        0.0
    } else {
        let engine = QueryEngine::new(Arc::clone(&inputs.atlas0), ServiceConfig::default());
        let root = spans.open("service.replay_swaps", 0, None);
        for (k, d) in inputs.deltas.iter().enumerate() {
            spans.time("service.apply_delta", k as u64, Some(root), || {
                engine.apply_delta(d).expect("the chain applies")
            });
        }
        spans.close(root);
        engine.shutdown();
        median(&spans.durations_us("service.apply_delta")) / 1e3
    };
    rows.push(("service.swap_ms", swap_ms, "ms"));
}

/// Every stream pair the senders issued, once per position.
fn issued_pairs(stream: &[Pair], issued: &[(usize, usize)]) -> Vec<Pair> {
    let mut seen = vec![false; stream.len()];
    for &(start, n) in issued {
        for k in 0..n.min(stream.len()) {
            seen[(start + k) % stream.len()] = true;
        }
    }
    stream
        .iter()
        .zip(seen)
        .filter_map(|(p, s)| s.then_some(*p))
        .collect()
}

fn server_side(ctx: &Context<'_>, rows: &mut Vec<Row>) {
    let phases = ctx.phases;
    let traced = phases.traced.as_ref();
    let traces = traced.map(|p| p.traces.as_slice()).unwrap_or_default();
    let stage = |f: fn(&inano_obs::TraceTimings) -> u32| {
        mean(
            &traces
                .iter()
                .map(|t| f(&t.timings) as f64)
                .collect::<Vec<_>>(),
        )
    };
    rows.push(("net.srv_decode_us", stage(|t| t.decode_us), "us"));
    rows.push(("net.srv_queue_us", stage(|t| t.queue_us), "us"));
    rows.push(("net.srv_engine_us", stage(|t| t.engine_us), "us"));
    rows.push(("net.srv_encode_us", stage(|t| t.encode_us), "us"));
    rows.push((
        "net.rtt_minus_server_us",
        mean(
            &traces
                .iter()
                .map(|t| t.rtt_us - t.timings.total_us() as f64)
                .collect::<Vec<_>>(),
        ),
        "us",
    ));

    // Counters over the traced closed loop.
    if let (Some(before), Some(after), Some(p)) = (
        phases.dump_before_traced.as_ref(),
        phases.dump_after_traced.as_ref(),
        traced,
    ) {
        let hits = counter_delta(before, after, "shard0.cache.hits") as f64;
        let misses = counter_delta(before, after, "shard0.cache.misses") as f64;
        rows.push((
            "service.cache_hit",
            hits / (hits + misses).max(1.0),
            "share",
        ));
        // A no-route answer is never inserted, so it misses every time;
        // this is the hit rate over the lookups that could hit.
        let routed_misses = (misses - p.tally.noroute as f64).max(0.0);
        rows.push((
            "service.cache_hit_routed",
            hits / (hits + routed_misses).max(1.0),
            "share",
        ));
        rows.push((
            "service.cache_evictions",
            counter_delta(before, after, "shard0.cache.evictions") as f64,
            "count",
        ));
        rows.push((
            "net.srv_pair_p99_us",
            histogram_delta_quantile(before, after, "shard0.latency_us", 0.99) as f64,
            "us",
        ));
        rows.push((
            "net.loop_wakeups_per_req",
            counter_delta(before, after, "srv.loop.wakeups") as f64 / p.requests.max(1) as f64,
            "count",
        ));
    }

    let (start, end) = (ctx.dump_start, ctx.dump_end);
    rows.push((
        "net.overloaded",
        counter_delta(start, end, "srv.overloaded") as f64,
        "count",
    ));
    rows.push((
        "net.udp_shed",
        counter_delta(start, end, "srv.udp.shed") as f64,
        "count",
    ));
    rows.push((
        "mirror.deltas_applied",
        end.counter("shard0.mirror.deltas_applied") as f64,
        "count",
    ));
    rows.push((
        "mirror.full_resyncs",
        end.counter("shard0.mirror.full_resyncs") as f64,
        "count",
    ));
}

fn load_side(ctx: &Context<'_>, rows: &mut Vec<Row>) {
    let phases = ctx.phases;
    let open = &phases.open;
    let lat = sorted(open.timed.iter().map(|t| t.latency_us).collect());
    let late = sorted(open.timed.iter().map(|t| t.late_us / 1e3).collect());
    let p99 = quantile(&lat, 99.0);
    rows.push(("gen.p99_ms", p99.value / 1e3, "ms"));
    rows.push(("gen.late_p99_ms", quantile(&late, 99.0).value, "ms"));
    rows.push(("gen.requests", open.requests as f64, "count"));
    rows.push(("gen.beyond_p99", p99.beyond as f64, "count"));
    let udp = ctx.workload.udp();
    rows.push((
        "net.udp_rtt_us",
        if udp { median(&open.rtt_us) } else { 0.0 },
        "us",
    ));
    let (resends, stale) = [&phases.closed, open]
        .into_iter()
        .chain(phases.traced.as_ref())
        .fold((0, 0), |(r, s), p| (r + p.resends, s + p.stale));
    rows.push(("net.udp_resends", resends as f64, "count"));
    rows.push(("net.udp_stale", stale as f64, "count"));
    rows.push((
        "mirror.deltas_published",
        ctx.published.len() as f64,
        "count",
    ));
    rows.push((
        "mirror.propagation_ms",
        median(
            &ctx.published
                .iter()
                .map(|p| p.propagation_ms)
                .collect::<Vec<_>>(),
        ),
        "ms",
    ));
    let untraced = phases.closed.pairs_per_s();
    let traced = phases.traced.as_ref().map_or(untraced, |p| p.pairs_per_s());
    rows.push((
        "trace.overhead_pct",
        (untraced - traced) / untraced.max(1e-9) * 100.0,
        "pct",
    ));
}
