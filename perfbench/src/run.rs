//! One run of one workload: generate inputs, start the server under
//! test, drive it closed-loop then open-loop, check its answers, and
//! report. With tracing on, the same run also times each layer.

use crate::classify::Class;
use crate::inputs::{self, Inputs, Pair};
use crate::layers;
use crate::load::{self, ClosedShape, Cursor, Phase, Sender};
use crate::record::{Metric, Recorder, Summary};
use crate::serve::{status_kib, Server};
use crate::stats::{highest_supported, median, quantile, sorted};
use crate::workload::Workload;
use inano_atlas::codec;
use inano_core::{content_tag, PathPredictor, PredictedPath, PredictorConfig};
use inano_model::{ErrorCode, ModelError};
use inano_net::{NetClient, NetServer, ServerConfig, UdpQuerier, WirePath};
use inano_obs::{quantile_from_counts, MetricValue, MetricsDump};
use inano_service::{QueryEngine, ServiceConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 9;

/// Closed-loop warm-up before anything is measured, seconds.
const WARMUP_S: f64 = 1.0;

/// Share of `--seconds` spent closed-loop; the rest is open-loop.
const CLOSED_SHARE: f64 = 0.3;

/// How often the server's resident set is sampled under load.
const RSS_EVERY: Duration = Duration::from_millis(200);

/// In the traced run, every k-th TCP request carries the trace bit.
const TRACE_EVERY: usize = 16;

/// A per-source datagram rate far above anything the load generator
/// reaches: the bucket is consulted on every datagram but never sheds.
const UDP_RATE: &str = "1000000000";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// The in-process origin `swap_udp`'s mirror follows: one worker, the
/// day-0 atlas, deltas applied by the publisher.
struct Origin {
    engine: Arc<QueryEngine>,
    server: NetServer,
}

impl Origin {
    fn start(inputs: &Inputs) -> Result<Origin, String> {
        let engine = Arc::new(QueryEngine::new(
            Arc::clone(&inputs.atlas0),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        ));
        let server =
            NetServer::bind_single("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default())
                .map_err(|e| format!("bind the origin: {e}"))?;
        Ok(Origin { engine, server })
    }
}

impl Drop for Origin {
    fn drop(&mut self) {
        self.server.shutdown();
        self.server.registry().shutdown();
    }
}

/// What the publisher saw for one delta.
pub struct Published {
    pub swap_ms: f64,
    pub propagation_ms: f64,
}

pub fn run(args: &Args) -> Result<Summary, String> {
    let w = args.workload;
    let mut rec = Recorder::new(w.name(), args.seed, w.open_rate());

    // Inputs: not part of set-up.
    let t_gen = Instant::now();
    let inputs = inputs::generate(w, args.seed, args.seconds);
    rec.set_inputs_digest(inputs.digest);
    let mut r = rec.record("inputs");
    r.count("endpoints", inputs.endpoints as u64)
        .count("stream_pairs", inputs.stream.len() as u64)
        .count("coverage_pairs", inputs.coverage.len() as u64)
        .count("pool_pairs", inputs.pool.len() as u64)
        .count("validation_pairs", inputs.validation.len() as u64)
        .count("deltas", inputs.deltas.len() as u64)
        .count("atlas_bytes", inputs.atlas_bytes.len() as u64)
        .value("generate_s", t_gen.elapsed().as_secs_f64());
    rec.emit(&r);
    eprintln!(
        "{} seed {}: {}",
        w.name(),
        args.seed,
        inputs.scenario_summary
    );

    let work = args.out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = run_in(args, &rec, &inputs, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: &Args, rec: &Recorder, inputs: &Inputs, work: &Path) -> Result<Summary, String> {
    let w = args.workload;
    let origin = if w == Workload::SwapUdp {
        Some(Origin::start(inputs)?)
    } else {
        None
    };
    let serve_args: Vec<String> = match &origin {
        Some(o) => vec![
            "--port".into(),
            "0".into(),
            "--mirror".into(),
            o.server.local_addr().to_string(),
            "--udp".into(),
            "127.0.0.1:0".into(),
            "--udp-rate".into(),
            UDP_RATE.into(),
        ],
        None => {
            let path = work.join("atlas.bin");
            std::fs::write(&path, &inputs.atlas_bytes)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            vec![
                "--port".into(),
                "0".into(),
                "--atlas".into(),
                path.to_string_lossy().into_owned(),
            ]
        }
    };

    // Set-up: spawn → LISTENING, several times; the last one serves.
    let mut starts = Vec::with_capacity(SETUP_STARTS);
    let mut server = None;
    for _ in 0..SETUP_STARTS {
        drop(server.take());
        let (s, took) = Server::start(&args.serve_bin, &serve_args, w.udp())?;
        starts.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one start");
    let setup_s = median(&starts);
    let mut r = rec.record("setup");
    r.value("setup_s", setup_s)
        .count("starts", starts.len() as u64);
    for (i, s) in starts.iter().enumerate() {
        r.value(&format!("start_{i}_s"), *s);
    }
    rec.emit(&r);

    let mut observer =
        NetClient::connect(server.tcp).map_err(|e| format!("connect observer: {e}"))?;
    let dump_start = observer.metrics().map_err(|e| format!("metrics: {e}"))?;
    let mut correct = true;
    if origin.is_some() {
        // The mirror must serve exactly the generation it was fed.
        correct &= same_generation(&mut observer, &inputs.generations[0], "bootstrap");
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut senders = (0..nproc)
        .map(|_| Sender::connect(server.tcp, server.udp))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect senders: {e}"))?;
    let mut cursors: Vec<Cursor> = (0..nproc)
        .map(|t| Cursor::new(&inputs.stream, t, nproc, w.batch()))
        .collect();

    let closed_s = args.seconds * CLOSED_SHARE;
    let open_s = args.seconds - closed_s;
    // The traced run measures the closed loop twice, untraced then
    // traced, so tracing's own cost shows.
    let loop_s = WARMUP_S + closed_s * if args.trace { 2.0 } else { 1.0 } + open_s;

    let shape = ClosedShape {
        depth: w.depth(),
        trace_every: None,
    };
    let mut phases = Phases::default();
    let loading = AtomicBool::new(true);
    let pid = server.pid();
    let (published, rss_samples) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut kib = Vec::new();
            while loading.load(Ordering::SeqCst) {
                kib.extend(status_kib(pid, "VmRSS"));
                std::thread::sleep(RSS_EVERY);
            }
            kib
        });
        let publisher = origin.as_ref().map(|o| {
            let interval = loop_s / (inputs.deltas.len() + 1) as f64;
            let mirror = server.tcp;
            scope.spawn(move || publish(o, inputs, mirror, interval))
        });
        closed_phase(&mut senders, &mut cursors, shape, WARMUP_S);
        phases.closed = closed_phase(&mut senders, &mut cursors, shape, closed_s);
        if args.trace {
            phases.dump_before_traced = observer.metrics().ok();
            let traced_shape = ClosedShape {
                trace_every: Some(TRACE_EVERY),
                ..shape
            };
            phases.traced = Some(closed_phase(
                &mut senders,
                &mut cursors,
                traced_shape,
                closed_s,
            ));
            phases.dump_after_traced = observer.metrics().ok();
        }
        phases.open = open_phase(&mut senders, &mut cursors, w.open_rate(), open_s);
        let published = publisher
            .map(|h| h.join().expect("the publisher does not panic"))
            .unwrap_or_default();
        loading.store(false, Ordering::SeqCst);
        let rss = sampler.join().expect("the sampler does not panic");
        (published, rss)
    });
    drop(senders);
    let spans_issued: Vec<(usize, usize)> = cursors.iter().map(|c| c.span()).collect();

    if !published.is_empty() {
        let mut r = rec.record("publish");
        r.count("deltas", published.len() as u64);
        for (k, p) in published.iter().enumerate() {
            r.value(&format!("delta_{k}_origin_swap_ms"), p.swap_ms)
                .value(&format!("delta_{k}_propagation_ms"), p.propagation_ms);
        }
        rec.emit(&r);
    }
    emit_closed(rec, "closed", &phases.closed);
    if let Some(t) = &phases.traced {
        emit_closed(rec, "closed_traced", t);
    }
    let open_lat = sorted(
        phases
            .open
            .timed
            .iter()
            .map(|t| t.latency_us / 1e3)
            .collect(),
    );
    let open_late = sorted(phases.open.timed.iter().map(|t| t.late_us / 1e3).collect());
    let tail_p = highest_supported(open_lat.len()).unwrap_or(50.0);
    let p50 = quantile(&open_lat, 50.0);
    let p99 = quantile(&open_lat, 99.0);
    let mut r = rec.record("open");
    r.count("requests", phases.open.requests)
        .count("pairs_attempted", phases.open.tally.attempted())
        .count("pairs_failed", phases.open.tally.failed())
        .value("seconds", open_s)
        .value("tail_percentile", tail_p)
        .percentile("latency_ms", p50)
        .percentile("latency_ms", p99)
        .percentile("latency_ms", quantile(&open_lat, tail_p))
        .percentile("late_ms", quantile(&open_late, 99.0));
    rec.emit(&r);
    if tail_p < 99.0 {
        eprintln!(
            "open loop too short: {} requests leave fewer than 10 beyond p99",
            open_lat.len()
        );
        correct = false;
    }

    // Quiescent point: the publisher has returned, so the mirror shows
    // the last generation.
    let last = inputs.generations.last().expect("generation 0 exists");
    if origin.is_some() {
        correct &= same_generation(&mut observer, last, "after the last swap");
    }
    let gate = correctness_pass(&server, w, inputs, last);
    let mut r = rec.record("gate");
    let checks = [
        ("coverage", &gate.coverage),
        ("pool", &gate.pool),
        ("validation", &gate.validation),
    ];
    for (name, c) in checks {
        r.count(&format!("{name}_pairs"), c.checked)
            .count(&format!("{name}_noroute"), c.noroute)
            .count(&format!("{name}_mismatches"), c.mismatches);
        if let Some(m) = &c.first {
            eprintln!("correctness ({name}): {m}");
        }
        correct &= c.mismatches == 0;
    }
    r.count("validation_as_exact", gate.as_exact);
    rec.emit(&r);

    let dump_end = observer.metrics().map_err(|e| format!("metrics: {e}"))?;
    let peak_rss_mb = status_kib(pid, "VmHWM").unwrap_or(0) as f64 / 1024.0;
    let rss_mb = median(
        &rss_samples
            .iter()
            .map(|&k| k as f64 / 1024.0)
            .collect::<Vec<_>>(),
    );
    drop(observer);
    drop(server);
    drop(origin);

    let mut measured = phases.closed.tally;
    if let Some(t) = &phases.traced {
        measured.merge(&t.tally);
    }
    measured.merge(&phases.open.tally);

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    };
    if args.trace {
        let ctx = layers::Context {
            workload: w,
            inputs,
            phases: &phases,
            published: &published,
            dump_start: &dump_start,
            dump_end: &dump_end,
            issued: &spans_issued,
        };
        let spans_path = args
            .out_dir
            .join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        for (name, value, unit) in layers::measure(&ctx, &spans_path) {
            put(name, value, unit);
        }
    } else {
        put("setup_s", setup_s, "s");
        put("qps", phases.closed.pairs_per_s(), "pairs/s");
        put("p50_ms", p50.value, "ms");
        put(
            "ok_rate",
            measured.served() as f64 / measured.attempted().max(1) as f64,
            "share",
        );
        let uniform = [&gate.coverage, &gate.validation];
        put(
            "noroute_rate",
            uniform.iter().map(|c| c.noroute).sum::<u64>() as f64
                / uniform.iter().map(|c| c.checked).sum::<u64>().max(1) as f64,
            "share",
        );
        put(
            "as_path_acc",
            gate.as_exact as f64 / gate.validation.checked.max(1) as f64,
            "share",
        );
        put("rss_mb", rss_mb, "MiB");
    }
    let mut r = rec.record("summary");
    r.count("pairs_attempted", measured.attempted())
        .count("pairs_failed", measured.failed())
        .count("overloaded", measured.overloaded)
        .count("faults", measured.faults)
        .count("transport", measured.transport)
        .count("timeouts", measured.timeouts)
        .count("noroute", measured.noroute)
        .value(
            "fault_rate",
            measured.failed() as f64 / measured.attempted().max(1) as f64,
        )
        .value("rss_mb", rss_mb)
        .value("peak_rss_mb", peak_rss_mb)
        .count("rss_samples", rss_samples.len() as u64);
    rec.emit(&r);
    Ok(Summary {
        correct,
        attempted: measured.attempted(),
        failed: measured.failed(),
        metrics,
    })
}

/// Every phase a run measured.
#[derive(Default)]
pub struct Phases {
    pub closed: Phase,
    pub traced: Option<Phase>,
    pub open: Phase,
    pub dump_before_traced: Option<MetricsDump>,
    pub dump_after_traced: Option<MetricsDump>,
}

fn emit_closed(rec: &Recorder, name: &str, p: &Phase) {
    let mut r = rec.record(name);
    r.count("requests", p.requests)
        .count("pairs_attempted", p.tally.attempted())
        .count("pairs_failed", p.tally.failed())
        .count("noroute", p.tally.noroute)
        .count("traced_requests", p.traces.len() as u64)
        .value("seconds", p.elapsed_s)
        .value("pairs_per_s", p.pairs_per_s());
    rec.emit(&r);
}

/// Every sender closed-loop for `seconds`, in parallel.
fn closed_phase(
    senders: &mut [Sender],
    cursors: &mut [Cursor<'_>],
    shape: ClosedShape,
    seconds: f64,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = senders
            .iter_mut()
            .zip(cursors.iter_mut())
            .map(|(s, c)| scope.spawn(move || load::closed_loop(s, c, shape, start, deadline)))
            .collect();
        merge(
            handles
                .into_iter()
                .map(|h| h.join().expect("senders do not panic")),
        )
    })
}

/// Every sender open-loop at its share of `rate`, interleaved.
fn open_phase(
    senders: &mut [Sender],
    cursors: &mut [Cursor<'_>],
    rate: f64,
    seconds: f64,
) -> Phase {
    let n = senders.len() as f64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = senders
            .iter_mut()
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(t, (s, c))| {
                let offset = t as f64 / rate;
                scope.spawn(move || load::open_loop_sender(s, c, start, rate / n, offset, seconds))
            })
            .collect();
        merge(
            handles
                .into_iter()
                .map(|h| h.join().expect("senders do not panic")),
        )
    })
}

fn merge(phases: impl Iterator<Item = Phase>) -> Phase {
    phases.fold(Phase::default(), |mut acc, p| {
        acc.merge(p);
        acc
    })
}

/// The `swap_udp` publisher: apply delta k on the origin at
/// `k × interval` seconds, then wait until the mirror serves day k.
fn publish(origin: &Origin, inputs: &Inputs, mirror: SocketAddr, interval: f64) -> Vec<Published> {
    let start = Instant::now();
    let mut probe = NetClient::connect(mirror).expect("connect to the mirror");
    let mut out = Vec::new();
    for (k, delta) in inputs.deltas.iter().enumerate() {
        let due = start + Duration::from_secs_f64(interval * (k + 1) as f64);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let t0 = Instant::now();
        origin
            .engine
            .apply_delta(delta)
            .expect("each delta applies to the origin's previous generation");
        let applied = Instant::now();
        let want = inputs.generations[k + 1].day;
        let deadline = applied + Duration::from_secs(30);
        while probe.epoch().map(|(_, day)| day).unwrap_or(0) < want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        out.push(Published {
            swap_ms: (applied - t0).as_secs_f64() * 1e3,
            propagation_ms: applied.elapsed().as_secs_f64() * 1e3,
        });
    }
    out
}

/// Whether the server's shard-0 head carries exactly `atlas`.
fn same_generation(client: &mut NetClient, atlas: &inano_atlas::Atlas, when: &str) -> bool {
    let want = content_tag(&codec::encode(atlas).0);
    match client.atlas_head() {
        Ok(head) if head.epoch_tag == want && head.day == atlas.day => true,
        Ok(head) => {
            eprintln!(
                "{when}: mirror serves day {} tag {:#x}, expected day {} tag {want:#x}",
                head.day, head.epoch_tag, atlas.day
            );
            false
        }
        Err(e) => {
            eprintln!("{when}: atlas head: {e}");
            false
        }
    }
}

/// Served answers against a fresh predictor, over one set of pairs.
#[derive(Default)]
pub struct Check {
    pub checked: u64,
    pub mismatches: u64,
    pub noroute: u64,
    pub first: Option<String>,
}

pub struct Gate {
    pub coverage: Check,
    pub pool: Check,
    pub validation: Check,
    pub as_exact: u64,
}

/// The correctness pass: the coverage sample and the pool over the
/// workload's own transport, and the Fig. 5 validation pairs over TCP,
/// each compared exactly with a fresh `PathPredictor` over the
/// generation the server holds.
fn correctness_pass(
    server: &Server,
    w: Workload,
    inputs: &Inputs,
    generation: &Arc<inano_atlas::Atlas>,
) -> Gate {
    let reference = PathPredictor::new(Arc::clone(generation), PredictorConfig::full());
    let validation: Vec<Pair> = inputs.validation.iter().map(|v| v.pair).collect();
    let sets = [&inputs.coverage, &inputs.pool, &validation];
    let (served, expected) = std::thread::scope(|scope| {
        let expected = scope.spawn(|| {
            sets.map(|pairs| {
                pairs
                    .iter()
                    .map(|&(a, b)| reference.query(a, b))
                    .collect::<Vec<_>>()
            })
        });
        let served = [
            serve_workload_transport(server, w, &inputs.coverage),
            serve_workload_transport(server, w, &inputs.pool),
            load::fetch_tcp(server.tcp, &validation, 64, 4),
        ];
        (
            served,
            expected.join().expect("the reference does not panic"),
        )
    });
    let as_exact = inputs
        .validation
        .iter()
        .zip(&served[2])
        .filter(|(v, served)| {
            served.as_ref().is_ok_and(|p| {
                p.fwd_as
                    .iter()
                    .copied()
                    .eq(v.true_as_path.iter().map(|a| a.raw()))
            })
        })
        .count() as u64;
    let [coverage, pool, validation] =
        [0, 1, 2].map(|i| compare(sets[i], &served[i], &expected[i]));
    Gate {
        coverage,
        pool,
        validation,
        as_exact,
    }
}

/// Serve `pairs` over the workload's transport: single-pair datagrams
/// from two queriers for `swap_udp`, pipelined 64-pair TCP batches
/// otherwise.
fn serve_workload_transport(
    server: &Server,
    w: Workload,
    pairs: &[Pair],
) -> Vec<Result<WirePath, Class>> {
    let Some(addr) = server.udp.filter(|_| w.udp()) else {
        return load::fetch_tcp(server.tcp, pairs, 64, 4);
    };
    let half = pairs.len() / 2;
    std::thread::scope(|scope| {
        let parts: Vec<_> = [&pairs[..half], &pairs[half..]]
            .into_iter()
            .map(|part| {
                scope.spawn(move || match UdpQuerier::connect(addr) {
                    Ok(mut q) => load::fetch_udp(&mut q, part),
                    Err(_) => part.iter().map(|_| Err(Class::Transport)).collect(),
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("queriers do not panic"))
            .collect()
    })
}

fn compare(
    pairs: &[Pair],
    served: &[Result<WirePath, Class>],
    reference: &[Result<PredictedPath, ModelError>],
) -> Check {
    let mut check = Check::default();
    for ((pair, got), want) in pairs.iter().zip(served).zip(reference) {
        check.checked += 1;
        if got.as_ref().err() == Some(&Class::NoRoute) {
            check.noroute += 1;
        }
        let same = match (got, want) {
            (Ok(g), Ok(w)) => *g == WirePath::from(w),
            (Err(Class::NoRoute), Err(e)) => ErrorCode::from(e) == ErrorCode::NoPath,
            (Err(Class::Fault), Err(e)) => ErrorCode::from(e) != ErrorCode::NoPath,
            _ => false,
        };
        if !same {
            check.mismatches += 1;
            if check.first.is_none() {
                check.first = Some(format!(
                    "{:?} -> {:?}: served {got:?}, reference {want:?}",
                    pair.0, pair.1
                ));
            }
        }
    }
    check
}

/// Counter delta between two dumps.
pub fn counter_delta(before: &MetricsDump, after: &MetricsDump, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

/// Quantile of a histogram's growth between two dumps, microseconds.
pub fn histogram_delta_quantile(
    before: &MetricsDump,
    after: &MetricsDump,
    name: &str,
    q: f64,
) -> u64 {
    let counts = |d: &MetricsDump| match d.value(name) {
        Some(MetricValue::Histogram(v)) => v.clone(),
        _ => Vec::new(),
    };
    let (a, b) = (counts(before), counts(after));
    let delta: Vec<u64> = b
        .iter()
        .enumerate()
        .map(|(i, &v)| v.saturating_sub(a.get(i).copied().unwrap_or(0)))
        .collect();
    quantile_from_counts(&delta, q)
}
