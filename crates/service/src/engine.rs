//! The query engine: a worker pool fanning batches across cores, a
//! sharded result cache, and a hot-swappable predictor generation.
//!
//! ## Threading model
//!
//! `QueryEngine::new` spawns `workers` OS threads which block on a
//! shared MPMC job queue (an `mpsc` channel behind a mutex — workers
//! contend only for the *pop*, not the work). [`QueryEngine::query_batch`]
//! splits the batch into chunks, enqueues them, and reassembles replies
//! in order; [`QueryEngine::query`] serves inline on the caller's
//! thread, sharing the same cache and generation.
//! [`QueryEngine::shutdown`] (also run on drop) closes the queue,
//! drains it, and joins the pool; batches accepted before the call are
//! fully answered and later ones serve inline, so no accepted query is
//! lost.
//!
//! ## Hot swap
//!
//! The current atlas generation lives behind
//! `RwLock<Arc<Generation>>`. Queries take the read lock just long
//! enough to clone the `Arc` — they never hold it while searching — so
//! a daily-delta swap (write lock held only for the pointer store)
//! neither stalls in-flight queries nor is starved by them. Queries
//! already running finish against the generation they snapshotted; every
//! query that starts after the swap sees the new day. The heavy work
//! (delta application, graph construction) happens *before* the write
//! lock is taken.

use crate::cache::ShardedCache;
use crate::stats::{Metrics, MirrorMetrics, MirrorStats};
use inano_atlas::{codec, Atlas, AtlasDelta};
use inano_core::{
    chunk_span, content_tag, AtlasReader, AtlasSource, AtlasVersion, DeltaHandle, PathPredictor,
    PredictedPath, PredictorConfig, SearchStats,
};
use inano_model::{Ipv4, ModelError};
use inano_obs::{EventJournal, EventKind, MetricValue, MetricsDump};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// Tuning knobs for the engine.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads serving batched queries.
    pub workers: usize,
    /// Total result-cache entry budget across all shards.
    pub cache_capacity: usize,
    /// Cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Pairs per work item when fanning a batch across workers.
    pub chunk: usize,
    /// Predictor configuration used for every generation.
    pub predictor: PredictorConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let cores = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServiceConfig {
            workers: cores.max(4),
            cache_capacity: 65_536,
            cache_shards: 16,
            chunk: 64,
            predictor: PredictorConfig::full(),
        }
    }
}

/// One immutable atlas generation. Workers snapshot an `Arc` to it per
/// work item; swaps replace the pointer, never mutate.
pub struct Generation {
    /// Bumped on every applied delta; part of every cache key, so a
    /// swap implicitly invalidates the whole cache.
    pub epoch: u64,
    pub predictor: Arc<PathPredictor>,
}

impl Generation {
    pub fn day(&self) -> u32 {
        self.predictor.atlas().day
    }
}

/// Daily deltas retained for re-serving ([`QueryEngine::delta_blob`]).
/// A mirror that lags further than this refetches the full atlas; one
/// day per entry, so the cap is about a month of history.
pub const DELTA_LOG_CAP: usize = 32;

/// One generation's encoded bytes plus everything a dissemination head
/// needs: what [`QueryEngine::export`] snapshots so any server can act
/// as an atlas mirror.
pub struct AtlasSnapshot {
    /// Day of the encoded atlas.
    pub day: u32,
    /// Engine epoch the snapshot was cut at (the cache key for
    /// re-encoding; local to this engine).
    pub epoch: u64,
    /// Content tag of `bytes` ([`content_tag`]) — identical on every
    /// node of a mirror chain serving this generation, which is what
    /// makes end-to-end "same atlas?" checks one integer compare.
    pub epoch_tag: u64,
    /// The encoded atlas, shared — chunk serving never copies the body.
    pub bytes: Arc<[u8]>,
    /// Per-chunk checksums, computed lazily and keyed by the chunk
    /// size they were cut at (one server serves one chunk size) — so N
    /// mirrors fetching the body cost one hash of it, not N.
    chunk_crcs: Mutex<Option<(u32, Arc<[u64]>)>>,
}

impl AtlasSnapshot {
    /// Checksums of every `chunk_size` chunk of the body, in index
    /// order; cached after the first call per chunk size.
    pub fn chunk_crcs(&self, chunk_size: u32) -> Arc<[u64]> {
        let mut cached = self.chunk_crcs.lock();
        if let Some((cut, crcs)) = cached.as_ref() {
            if *cut == chunk_size {
                return Arc::clone(crcs);
            }
        }
        let len = self.bytes.len() as u64;
        let crcs: Arc<[u64]> = (0..inano_core::n_chunks(len, chunk_size))
            .map(|i| {
                let span = chunk_span(len, chunk_size, i).expect("index below n_chunks");
                content_tag(&self.bytes[span])
            })
            .collect();
        *cached = Some((chunk_size, Arc::clone(&crcs)));
        crcs
    }
    /// The wire-facing version descriptor for this snapshot, chunked at
    /// `chunk_size`.
    pub fn version(&self, chunk_size: u32) -> AtlasVersion {
        AtlasVersion {
            day: self.day,
            epoch_tag: self.epoch_tag,
            full_len: self.bytes.len() as u64,
            chunk_size,
        }
    }

    /// Chunk `idx` of the body at `chunk_size`, or a typed
    /// out-of-range error.
    pub fn chunk(&self, chunk_size: u32, idx: u32) -> Result<&[u8], ModelError> {
        let span = chunk_span(self.bytes.len() as u64, chunk_size, idx)?;
        Ok(&self.bytes[span])
    }
}

/// One applied daily delta, retained in encoded form so downstream
/// mirrors can fetch exactly the bytes this engine applied.
pub struct DeltaBlob {
    pub from_day: u32,
    pub to_day: u32,
    pub bytes: Arc<[u8]>,
}

impl DeltaBlob {
    /// The wire-facing handle for this delta, chunked at `chunk_size`.
    pub fn handle(&self, chunk_size: u32) -> DeltaHandle {
        DeltaHandle {
            from_day: self.from_day,
            to_day: self.to_day,
            len: self.bytes.len() as u64,
            chunk_size,
        }
    }

    /// Chunk `idx` of the delta body at `chunk_size`.
    pub fn chunk(&self, chunk_size: u32, idx: u32) -> Result<&[u8], ModelError> {
        let span = chunk_span(self.bytes.len() as u64, chunk_size, idx)?;
        Ok(&self.bytes[span])
    }
}

/// A chunk of a batch, dispatched to the worker pool.
struct Job {
    pairs: Vec<(Ipv4, Ipv4)>,
    offset: usize,
    reply: mpsc::Sender<(usize, Vec<Result<PredictedPath, ModelError>>)>,
}

/// The concurrent, hot-swappable query engine (§5 scaled up: the same
/// local-library semantics as [`inano_core::INanoClient`], behind a
/// thread pool and a result cache).
pub struct QueryEngine {
    current: Arc<RwLock<Arc<Generation>>>,
    cache: Arc<ShardedCache>,
    metrics: Arc<Metrics>,
    cfg: ServiceConfig,
    /// Serialises swap *builders*; never blocks readers.
    swap_lock: Mutex<()>,
    /// Search-cache counters of every predictor this engine has
    /// retired, folded in at the swap that retired it, so the totals
    /// [`QueryEngine::search_stats`] reports never go backwards.
    retired_search: Mutex<SearchStats>,
    /// `None` once [`QueryEngine::shutdown`] has run; batch submission
    /// takes the read lock just long enough to clone the sender.
    job_tx: RwLock<Option<mpsc::Sender<Job>>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Cached encoding of the current generation, keyed by its epoch
    /// (re-encoding a ~7MB atlas per mirror request would be the real
    /// cost of serving as a mirror; this makes it once per swap).
    export: Mutex<Option<Arc<AtlasSnapshot>>>,
    /// Encoded deltas this engine applied, oldest first, capped at
    /// [`DELTA_LOG_CAP`] — what downstream mirrors fetch.
    delta_log: Mutex<VecDeque<Arc<DeltaBlob>>>,
    /// How this engine follows its upstream (all zero on an origin);
    /// see [`MirrorStats`].
    mirror: MirrorMetrics,
    /// Where swap/delta/resync events land once a serving layer
    /// attaches its journal ([`QueryEngine::set_journal`]); the label
    /// (usually `shardN`) prefixes every detail so one journal can
    /// carry many engines. `None` (an embedded engine) costs one
    /// uncontended lock per swap — nothing on the query path.
    journal: Mutex<Option<(Arc<EventJournal>, String)>>,
}

impl QueryEngine {
    /// Build an engine over an already-decoded atlas.
    pub fn new(atlas: Arc<Atlas>, cfg: ServiceConfig) -> QueryEngine {
        let predictor = Arc::new(PathPredictor::new(atlas, cfg.predictor.clone()));
        let generation = Arc::new(Generation {
            epoch: 0,
            predictor,
        });
        let current = Arc::new(RwLock::new(generation));
        let cache = Arc::new(ShardedCache::new(cfg.cache_capacity, cfg.cache_shards));
        let metrics = Arc::new(Metrics::default());

        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&job_rx);
                let current = Arc::clone(&current);
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                thread::Builder::new()
                    .name(format!("inano-svc-{i}"))
                    .spawn(move || loop {
                        // Pop under the mutex, then release it before
                        // doing any work.
                        let job = rx.lock().recv();
                        let Ok(job) = job else {
                            return; // channel closed: engine dropped
                        };
                        let generation = Arc::clone(&current.read());
                        let results = job
                            .pairs
                            .iter()
                            .map(|&(s, d)| serve_one(&generation, &cache, &metrics, s, d))
                            .collect();
                        // The batch caller may have given up (it never
                        // does today); a dead reply port is not an error.
                        let _ = job.reply.send((job.offset, results));
                    })
                    .expect("spawn service worker")
            })
            .collect();

        QueryEngine {
            current,
            cache,
            metrics,
            cfg,
            swap_lock: Mutex::new(()),
            retired_search: Mutex::new(SearchStats::default()),
            job_tx: RwLock::new(Some(job_tx)),
            workers: Mutex::new(workers),
            export: Mutex::new(None),
            delta_log: Mutex::new(VecDeque::new()),
            mirror: MirrorMetrics::default(),
            journal: Mutex::new(None),
        }
    }

    /// Attach an event journal: from now on every generation swap,
    /// delta application, full resync and recovered race is emitted
    /// with `label` leading the detail. The serving layer calls this
    /// at bind time; attaching again (a registry fronted by a second
    /// server) just redirects future events.
    pub fn set_journal(&self, journal: Arc<EventJournal>, label: impl Into<String>) {
        *self.journal.lock() = Some((journal, label.into()));
    }

    /// Emit `kind` onto the attached journal, if any. The detail
    /// closure only runs when a journal is attached.
    fn emit(&self, kind: EventKind, detail: impl FnOnce() -> String) {
        let guard = self.journal.lock();
        if let Some((journal, label)) = guard.as_ref() {
            journal.emit(kind, format!("{label} {}", detail()));
        }
    }

    /// Bootstrap from an [`AtlasSource`] (swarm, mirror, file, ...):
    /// the body arrives chunked and validated through [`AtlasReader`].
    pub fn bootstrap(
        source: &mut dyn AtlasSource,
        cfg: ServiceConfig,
    ) -> Result<QueryEngine, ModelError> {
        let (_, bytes) = AtlasReader::default().fetch_full(source)?;
        let atlas = codec::decode(&bytes)?;
        Ok(QueryEngine::new(Arc::new(atlas), cfg))
    }

    /// The generation queries are currently served from.
    pub fn generation(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read())
    }

    /// Day of the currently-served atlas.
    pub fn day(&self) -> u32 {
        self.generation().day()
    }

    /// Current configuration epoch (one per applied delta).
    pub fn epoch(&self) -> u64 {
        self.generation().epoch
    }

    /// Serve one query inline on the caller's thread.
    pub fn query(&self, src: Ipv4, dst: Ipv4) -> Result<PredictedPath, ModelError> {
        let generation = self.generation();
        serve_one(&generation, &self.cache, &self.metrics, src, dst)
    }

    /// Serve a batch by fanning chunks across the worker pool; results
    /// come back in input order. Chunks snapshot the generation
    /// independently, so a swap mid-batch is visible from the first
    /// chunk that starts after it — exactly the freshness a client
    /// polling a daily delta would see.
    pub fn query_batch(&self, pairs: &[(Ipv4, Ipv4)]) -> Vec<Result<PredictedPath, ModelError>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        // Small batches aren't worth a channel round-trip; after
        // shutdown every batch serves inline — accepted queries are
        // still answered, just without the pool.
        let tx = if pairs.len() <= self.cfg.chunk {
            None
        } else {
            self.job_tx.read().clone()
        };
        let Some(tx) = tx else {
            let generation = self.generation();
            return pairs
                .iter()
                .map(|&(s, d)| serve_one(&generation, &self.cache, &self.metrics, s, d))
                .collect();
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut jobs = 0usize;
        for (i, chunk) in pairs.chunks(self.cfg.chunk).enumerate() {
            tx.send(Job {
                pairs: chunk.to_vec(),
                offset: i * self.cfg.chunk,
                reply: reply_tx.clone(),
            })
            .expect("workers drain the queue before exiting");
            jobs += 1;
        }
        drop(reply_tx);
        // Let a concurrent `shutdown` finish as soon as our jobs are
        // queued: workers exit when every sender is gone.
        drop(tx);
        let mut out: Vec<Option<Result<PredictedPath, ModelError>>> =
            (0..pairs.len()).map(|_| None).collect();
        for _ in 0..jobs {
            let (offset, results) = reply_rx.recv().expect("worker reply");
            for (k, r) in results.into_iter().enumerate() {
                out[offset + k] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every chunk replied"))
            .collect()
    }

    /// Apply one daily delta and swap the serving generation. All heavy
    /// work (delta application, graph construction) happens before the
    /// write lock; the lock is held only to store the new pointer.
    pub fn apply_delta(&self, delta: &AtlasDelta) -> Result<u32, ModelError> {
        let _builder = self.swap_lock.lock();
        self.swap_locked(delta, None)
    }

    /// The swap itself; caller must hold `swap_lock` so concurrent
    /// builders can't interleave between the generation read and the
    /// pointer store. `encoded` is the delta's wire form when the
    /// caller already has it (an `update` fetched it as bytes);
    /// otherwise it is re-encoded here for the delta log.
    fn swap_locked(&self, delta: &AtlasDelta, encoded: Option<Vec<u8>>) -> Result<u32, ModelError> {
        let base = self.generation();
        let next_atlas = Arc::new(delta.apply(base.predictor.atlas())?);
        let predictor = Arc::new(PathPredictor::new(next_atlas, self.cfg.predictor.clone()));
        let next = Arc::new(Generation {
            epoch: base.epoch + 1,
            predictor,
        });
        let day = next.day();
        let epoch = next.epoch;
        self.install(next);
        self.metrics.swaps.fetch_add(1, Ordering::Relaxed);
        self.emit(EventKind::GenerationSwap, || {
            format!("epoch={epoch} day={day}")
        });
        self.emit(EventKind::DeltaApplied, || {
            format!("from={} to={}", delta.from_day, delta.to_day)
        });
        // Retain the applied delta for downstream mirrors: the bytes a
        // peer fetching `delta(from_day)` from this engine receives are
        // exactly the bytes this engine applied.
        let bytes = encoded.unwrap_or_else(|| delta.encode().0);
        let mut log = self.delta_log.lock();
        if log.len() == DELTA_LOG_CAP {
            log.pop_front();
        }
        log.push_back(Arc::new(DeltaBlob {
            from_day: delta.from_day,
            to_day: delta.to_day,
            bytes: bytes.into(),
        }));
        Ok(day)
    }

    /// Snapshot the serving generation's encoded bytes + version for
    /// dissemination — what makes *any* engine an atlas origin. Cached
    /// per epoch: the first call after a swap re-encodes, later calls
    /// share the same `Arc`.
    pub fn export(&self) -> Arc<AtlasSnapshot> {
        let generation = self.generation();
        let mut cached = self.export.lock();
        if let Some(snap) = cached.as_ref() {
            if snap.epoch == generation.epoch {
                return Arc::clone(snap);
            }
        }
        let (bytes, _) = codec::encode(generation.predictor.atlas());
        let snap = Arc::new(AtlasSnapshot {
            day: generation.day(),
            epoch: generation.epoch,
            epoch_tag: content_tag(&bytes),
            bytes: bytes.into(),
            chunk_crcs: Mutex::new(None),
        });
        *cached = Some(Arc::clone(&snap));
        snap
    }

    /// The retained delta leaving `have_day`, if this engine applied
    /// one recently enough ([`DELTA_LOG_CAP`]).
    pub fn delta_blob(&self, have_day: u32) -> Option<Arc<DeltaBlob>> {
        self.delta_log
            .lock()
            .iter()
            .find(|b| b.from_day == have_day)
            .cloned()
    }

    /// Fetch and apply every delta the source has beyond the current
    /// day (the client-side daily update of §5, against the live
    /// engine). Returns how many deltas were applied.
    ///
    /// The builder lock is held across the whole chain: a concurrent
    /// `apply_delta`/`update` can't swap between this loop's day read
    /// and its apply, which would otherwise surface as a spurious
    /// wrong-base error from a delta that is simply already applied.
    /// That means the fetch itself runs under the lock — with a
    /// network-backed source (`NetClient`/`MirrorSource`), bound its
    /// I/O (`NetClient::set_io_timeout`) so a hung upstream stalls
    /// this updater with a typed error instead of wedging every
    /// builder forever. Queries are unaffected either way: they never
    /// take the builder lock.
    pub fn update(&self, source: &mut dyn AtlasSource) -> Result<usize, ModelError> {
        let _builder = self.swap_lock.lock();
        let reader = AtlasReader::default();
        let mut applied = 0;
        loop {
            let (fetched, races) = reader.fetch_delta_counted(source, self.day())?;
            if races > 0 {
                self.mirror
                    .races_recovered
                    .fetch_add(races as u64, Ordering::Relaxed);
                self.emit(EventKind::RaceRecovered, || format!("races={races}"));
            }
            let Some((_, bytes)) = fetched else { break };
            let delta = AtlasDelta::decode(&bytes)?;
            self.swap_locked(&delta, Some(bytes))?;
            applied += 1;
        }
        if applied > 0 {
            self.mirror
                .deltas_applied
                .fetch_add(applied as u64, Ordering::Relaxed);
        }
        // Best-effort convergence probe: where is the upstream head
        // relative to us now? A head the delta chain couldn't reach
        // (the chain is broken — the origin replaced its atlas) leaves
        // the lag gauge nonzero, which is the mirror-refresh loop's
        // cue to fall back to a full resync. A probe failure keeps the
        // applied deltas; the gauges just go stale until the next tick.
        if let Ok(head) = source.head() {
            self.mirror
                .upstream_day
                .store(head.day as u64, Ordering::Relaxed);
            self.mirror.lag_days.store(
                head.day.saturating_sub(self.day()) as u64,
                Ordering::Relaxed,
            );
        }
        Ok(applied)
    }

    /// Drain and stop the worker pool: every batch whose jobs were
    /// accepted before this call is still fully answered (workers only
    /// exit once the job queue is empty and closed), and every batch
    /// submitted afterwards serves inline on its caller's thread — no
    /// accepted query is ever lost. Idempotent; also run on drop.
    ///
    /// Blocks until in-flight batches have been answered and every
    /// worker thread has been joined.
    pub fn shutdown(&self) {
        let tx = self.job_tx.write().take();
        // Dropping the engine's sender closes the queue once in-flight
        // batches drop their clones; workers drain what's left, then
        // their `recv` errors and they exit.
        drop(tx);
        let mut workers = self.workers.lock();
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }

    /// True once [`QueryEngine::shutdown`] has run (queries still
    /// work — they serve inline).
    pub fn is_shut_down(&self) -> bool {
        self.job_tx.read().is_none()
    }

    /// Swap in a whole new atlas generation: a monthly full refresh at
    /// an origin, or a mirror re-bootstrapping after falling off its
    /// upstream's retained delta chain. The epoch bumps like any delta
    /// swap — caches invalidate, the export snapshot re-encodes — but
    /// no delta is logged: there is no delta that produces this
    /// generation, so downstream mirrors bridge the discontinuity the
    /// same way, by refetching the full atlas. Returns the new day.
    pub fn replace_atlas(&self, atlas: Arc<Atlas>) -> u32 {
        let _builder = self.swap_lock.lock();
        let base = self.generation();
        let predictor = Arc::new(PathPredictor::new(atlas, self.cfg.predictor.clone()));
        let next = Arc::new(Generation {
            epoch: base.epoch + 1,
            predictor,
        });
        let day = next.day();
        let epoch = next.epoch;
        self.install(next);
        self.metrics.swaps.fetch_add(1, Ordering::Relaxed);
        self.mirror.full_resyncs.fetch_add(1, Ordering::Relaxed);
        self.emit(EventKind::GenerationSwap, || {
            format!("epoch={epoch} day={day}")
        });
        self.emit(EventKind::FullResync, || format!("day={day}"));
        // A full swap puts us at the new generation's day; any lag the
        // broken delta chain accumulated is paid off.
        self.mirror.lag_days.store(0, Ordering::Relaxed);
        // The retained deltas belong to the abandoned chain; serving
        // them on would walk lagging mirrors down a dead generation
        // instead of forcing the full resync this replace demands.
        self.delta_log.lock().clear();
        day
    }

    /// Make `next` the serving generation, folding the retired
    /// predictor's search counters into the engine's running totals.
    /// The fold and the pointer store happen under one lock that
    /// [`QueryEngine::search_stats`] also takes, so a reader never sees
    /// the retired counts twice or not at all.
    fn install(&self, next: Arc<Generation>) {
        let old = {
            let mut retired = self.retired_search.lock();
            let old = std::mem::replace(&mut *self.current.write(), next);
            retired.fold(old.predictor.search_stats());
            old
        };
        // The retired generation (often its last reference) is freed
        // outside the lock.
        drop(old);
    }

    /// The predictor's search-cache counters, summed over every
    /// generation this engine has served (`bytes` is the serving
    /// generation's alone). Counters are monotone across swaps.
    pub fn search_stats(&self) -> SearchStats {
        let retired = self.retired_search.lock();
        let mut total = *retired;
        let live = self.generation().predictor.search_stats();
        total.fold(live);
        total.bytes = live.bytes;
        total
    }

    /// Append this engine's series to `out`, each name under `label`
    /// (`shardN` on a server): query, cache and search-cache counters,
    /// the serving generation's epoch and day, the latency histogram,
    /// and the mirror-follow series. A server registers this as a
    /// dump-time collector; in-process callers read the same names
    /// through [`QueryEngine::metrics_dump`].
    pub fn collect_metrics(&self, label: &str, out: &mut Vec<(String, MetricValue)>) {
        let (hits, misses, evictions, _inserts) = self.cache.counter_snapshot();
        let generation = self.generation();
        let search = self.search_stats();
        let mirror = self.mirror.snapshot();
        let m = &self.metrics;
        let (counter, gauge) = (MetricValue::Counter, MetricValue::Gauge);
        for (name, value) in [
            ("queries", counter(m.queries.load(Ordering::Relaxed))),
            ("errors", counter(m.errors.load(Ordering::Relaxed))),
            ("swaps", counter(m.swaps.load(Ordering::Relaxed))),
            ("cache.hits", counter(hits)),
            ("cache.misses", counter(misses)),
            ("cache.evictions", counter(evictions)),
            ("search.count", counter(search.searches)),
            ("search.hits", counter(search.hits)),
            ("search.evictions", counter(search.evictions)),
            ("search.bytes", gauge(search.bytes)),
            ("epoch", gauge(generation.epoch)),
            ("day", gauge(generation.day() as u64)),
            ("latency_us", MetricValue::Histogram(m.latency.snapshot())),
            ("mirror.deltas_applied", counter(mirror.deltas_applied)),
            ("mirror.full_resyncs", counter(mirror.full_resyncs)),
            ("mirror.races_recovered", counter(mirror.races_recovered)),
            ("mirror.lag_days", gauge(mirror.lag_days as u64)),
            ("mirror.upstream_day", gauge(mirror.upstream_day as u64)),
        ] {
            out.push((format!("{label}.{name}"), value));
        }
    }

    /// This engine's [`QueryEngine::collect_metrics`] series under
    /// `label`, as a dump.
    pub fn metrics_dump(&self, label: &str) -> MetricsDump {
        let mut entries = Vec::new();
        self.collect_metrics(label, &mut entries);
        MetricsDump::from_entries(entries)
    }

    /// The live mirror-follow registers (for callers, like the serve
    /// bin's resync path, that recover upstream races themselves).
    pub fn mirror_metrics(&self) -> &MirrorMetrics {
        &self.mirror
    }

    /// Snapshot of how this engine follows its upstream.
    pub fn mirror_stats(&self) -> MirrorStats {
        self.mirror.snapshot()
    }

    /// The result cache (for diagnostics and tests).
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one (src, dst) query against a snapshotted generation: resolve
/// both endpoints, consult the cluster-keyed cache, fall back to the
/// predictor, and record latency.
fn serve_one(
    generation: &Generation,
    cache: &ShardedCache,
    metrics: &Metrics,
    src: Ipv4,
    dst: Ipv4,
) -> Result<PredictedPath, ModelError> {
    let start = Instant::now();
    let result = serve_inner(generation, cache, src, dst);
    metrics.record_query(start.elapsed().as_micros() as u64, result.is_ok());
    result
}

fn serve_inner(
    generation: &Generation,
    cache: &ShardedCache,
    src: Ipv4,
    dst: Ipv4,
) -> Result<PredictedPath, ModelError> {
    let p = &generation.predictor;
    let s = p.resolve(src)?;
    let d = p.resolve(dst)?;
    // Predictions are a pure function of the cluster pair only when both
    // prefixes agree with their cluster's AS (the overwhelmingly common
    // case); anomalous prefixes bypass the cache rather than poison it.
    let cacheable = s.canonical() && d.canonical();
    let key = (s.cluster, d.cluster, generation.epoch);
    if cacheable {
        if let Some(hit) = cache.get(&key) {
            return Ok((*hit).clone());
        }
    }
    let result = p.predict(s.prefix, d.prefix)?;
    if cacheable {
        cache.insert(key, Arc::new(result.clone()));
    }
    Ok(result)
}
