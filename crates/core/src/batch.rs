//! Batched inference: a sharded prediction cache, a sequential
//! micro-batch executor over any [`PredictRow`] model, and the
//! [`BatchScheduler`] whose persistent workers are the only parallelism
//! in serving.
//!
//! Configuration spaces are finite, so both serving traffic and
//! model-guided search revisit the same feature vectors constantly; a
//! cache turns a tree-walk (or a k-NN scan) into one hash lookup. The
//! cache is sharded — each shard is its own `Mutex<HashMap>` picked by
//! key hash — so concurrent threads rarely contend on the same lock.
//!
//! The engine walks a request's rows in fixed-size micro-batches on the
//! calling thread, so response position `i` always answers request row
//! `i`. Parallelism lives one level up: the scheduler coalesces
//! submissions into lanes and splits a large lane into micro-batch
//! chunks that its idle workers run concurrently. No call spawns a
//! thread.
//!
//! This module lives in `lam-core` (not the serving crate) because
//! `lam-tune` shares its row-key convention and micro-batch size.

use crate::predict::PredictRow;
use lam_obs::{Counter, Histogram};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cache-key for one feature row: the exact bit patterns of its floats
/// (no epsilon grouping — only a bit-identical row is "the same query").
/// Public because it *is* the workspace's definition of "the same
/// configuration row" — the tuner's parameter lattice indexes rows with
/// the identical convention.
pub fn row_key(row: &[f64]) -> Box<[u64]> {
    row_bits(row).into()
}

/// The [`row_key`] of `row`, borrowed in place: lookups need no
/// allocation.
fn row_bits(row: &[f64]) -> &[u64] {
    // SAFETY: `f64` and `u64` have the same size and alignment, and every
    // bit pattern is a valid `u64`; the view borrows `row` immutably.
    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<u64>(), row.len()) }
}

/// Hit/miss counters of a [`PredictionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the model.
    pub misses: u64,
}

/// Default total entry cap of a [`PredictionCache`]. The configuration
/// spaces this workspace enumerates stay in the thousands; the cap only
/// exists so arbitrary client-supplied rows (fuzzing, jittered floats)
/// cannot grow a long-running server without bound.
pub const DEFAULT_MAX_ENTRIES: usize = 1 << 20;

/// A sharded feature-vector → prediction cache, capped at a fixed entry
/// budget (inserts beyond a full shard are dropped; predictions are then
/// simply recomputed, so the cap degrades throughput, never correctness).
pub struct PredictionCache {
    shards: Vec<Mutex<HashMap<Box<[u64]>, f64>>>,
    /// Keyed per process, like each shard's own table, so clients cannot
    /// craft rows that all land on one lock.
    shard_hasher: RandomState,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PredictionCache {
    /// Cache with `shards` independent lock domains (clamped to ≥ 1) and
    /// the [`DEFAULT_MAX_ENTRIES`] budget.
    pub fn new(shards: usize) -> Self {
        Self::with_capacity(shards, DEFAULT_MAX_ENTRIES)
    }

    /// Cache with an explicit total entry budget, split across shards.
    pub fn with_capacity(shards: usize, max_entries: usize) -> Self {
        let shards = shards.max(1);
        Self {
            per_shard_cap: max_entries.div_ceil(shards).max(1),
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &[u64]) -> &Mutex<HashMap<Box<[u64]>, f64>> {
        &self.shards[(self.shard_hasher.hash_one(key) % self.shards.len() as u64) as usize]
    }

    /// Cached prediction for `row`, if present. Counts a hit or miss.
    pub fn get(&self, row: &[f64]) -> Option<f64> {
        let key = row_bits(row);
        let found = self
            .shard(key)
            .lock()
            .expect("cache poisoned")
            .get(key)
            .copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Record a computed prediction. A full shard drops the insert
    /// (bounded memory beats caching one more row) without building an
    /// owned key; a row it already holds is still overwritten.
    pub fn insert(&self, row: &[f64], prediction: f64) {
        self.store(row, prediction, true);
    }

    /// Cache what the engine computed for a row that just missed. A full
    /// shard drops it without a second probe: the row is absent, or a
    /// concurrent miss already stored the same value.
    fn fill(&self, row: &[f64], prediction: f64) {
        self.store(row, prediction, false);
    }

    fn store(&self, row: &[f64], prediction: f64, overwrite_when_full: bool) {
        let key = row_bits(row);
        let mut shard = self.shard(key).lock().expect("cache poisoned");
        if shard.len() < self.per_shard_cap {
            shard.insert(key.into(), prediction);
        } else if overwrite_when_full {
            if let Some(slot) = shard.get_mut(key) {
                *slot = prediction;
            }
        }
    }

    /// Number of cached feature vectors.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache poisoned").len())
            .sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Outcome of one batched prediction call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One prediction per request row, in request order.
    pub predictions: Vec<f64>,
    /// How many rows were answered from the cache.
    pub cache_hits: u64,
}

/// Pre-resolved global-metrics handles of one [`BatchEngine`], interned
/// once at engine construction (label lookup never runs on the predict
/// path). The `scope` label tells engines apart: serving engines use
/// `workload/kind`, shared/anonymous engines use `"shared"`. The engine
/// runs on its caller's thread and queues nothing, so waiting is the
/// scheduler's to measure, not the engine's.
struct EngineMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    batch_rows: Arc<Histogram>,
    lookup_ns: Arc<Histogram>,
    predict_ns: Arc<Histogram>,
}

impl EngineMetrics {
    fn for_scope(scope: &str) -> Self {
        let reg = lam_obs::global();
        let labels = [("scope", scope)];
        Self {
            hits: reg.counter(
                "lam_cache_hits_total",
                "Prediction-cache lookups answered from the cache.",
                &labels,
            ),
            misses: reg.counter(
                "lam_cache_misses_total",
                "Prediction-cache lookups that fell through to the model.",
                &labels,
            ),
            batch_rows: reg.histogram("lam_batch_rows", "Rows per executed micro-batch.", &labels),
            lookup_ns: reg.histogram(
                "lam_batch_phase_ns",
                "Engine-call phase duration, nanoseconds.",
                &[("scope", scope), ("phase", "cache-lookup")],
            ),
            predict_ns: reg.histogram(
                "lam_batch_phase_ns",
                "Engine-call phase duration, nanoseconds.",
                &[("scope", scope), ("phase", "predict")],
            ),
        }
    }
}

/// Order-preserving micro-batch executor over a [`PredictionCache`].
pub struct BatchEngine {
    cache: PredictionCache,
    micro_batch: usize,
    metrics: EngineMetrics,
}

/// Micro-batch size balancing per-batch overhead against load balance;
/// also the default shard count and the chunk size in which the
/// [`BatchScheduler`] splits large lanes across its workers.
pub const DEFAULT_MICRO_BATCH: usize = 64;

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new(DEFAULT_MICRO_BATCH, DEFAULT_MICRO_BATCH)
    }
}

impl BatchEngine {
    /// Engine with explicit micro-batch size and cache shard count,
    /// reporting metrics under the anonymous `scope="shared"` label.
    pub fn new(micro_batch: usize, shards: usize) -> Self {
        Self::scoped(micro_batch, shards, "shared")
    }

    /// Engine whose metrics carry `scope` as their label (serving engines
    /// pass `workload/kind` so cache and batch telemetry is per-model).
    /// Label interning happens here, once — never on the predict path.
    pub fn scoped(micro_batch: usize, shards: usize, scope: &str) -> Self {
        Self {
            cache: PredictionCache::new(shards),
            micro_batch: micro_batch.max(1),
            metrics: EngineMetrics::for_scope(scope),
        }
    }

    /// The underlying cache.
    pub fn cache(&self) -> &PredictionCache {
        &self.cache
    }

    /// Predict one micro-batch through the cache, appending one
    /// prediction and one hit flag per row; returns the misses, counted
    /// locally (not from the global counters, which concurrent requests
    /// advance too).
    ///
    /// Misses are gathered by reference and handed to the model in **one**
    /// [`PredictRow::predict_rows_by_ref`] call, so models with a batch
    /// fast path (arena-compiled trees evaluate misses block-wise) see the
    /// whole miss set instead of a per-row callback. Duplicate rows within
    /// one micro-batch are computed together in that call; they produce
    /// identical values, so the cache still converges to one entry. When
    /// `predict_ns` is given (observability on), the model call and the
    /// fills after it are timed into it: only miss-bearing micro-batches
    /// read the clock, where model compute dwarfs it.
    fn predict_micro_batch(
        &self,
        model: &dyn PredictRow,
        batch: &[Vec<f64>],
        predictions: &mut Vec<f64>,
        hit_mask: &mut Vec<bool>,
        predict_ns: Option<&mut u64>,
    ) -> u64 {
        let base = predictions.len();
        let mut miss_rows: Vec<&[f64]> = Vec::new();
        for row in batch {
            let found = self.cache.get(row);
            predictions.push(found.unwrap_or(0.0));
            hit_mask.push(found.is_some());
            if found.is_none() {
                miss_rows.push(row);
            }
        }
        let misses = miss_rows.len() as u64;
        if misses == 0 {
            return 0;
        }
        let started = predict_ns.is_some().then(Instant::now);
        let computed = model.predict_rows_by_ref(&miss_rows);
        let miss_slots = (base..predictions.len()).filter(|&i| !hit_mask[i]);
        for ((i, row), y) in miss_slots.zip(miss_rows).zip(computed) {
            self.cache.fill(row, y);
            predictions[i] = y;
        }
        if let (Some(total), Some(t)) = (predict_ns, started) {
            *total += t.elapsed().as_nanos() as u64;
        }
        misses
    }

    /// Predict every row of the request through the cache, one
    /// micro-batch after another on the calling thread. Response order
    /// matches request order.
    pub fn predict(&self, model: &dyn PredictRow, rows: &[Vec<f64>]) -> BatchOutcome {
        let MaskedOutcome {
            predictions,
            cache_hits,
            ..
        } = self.predict_masked(model, rows);
        BatchOutcome {
            predictions,
            cache_hits,
        }
    }

    /// Like [`BatchEngine::predict`], but also returns one cache-hit flag
    /// per row. The [`BatchScheduler`] uses this to split a coalesced
    /// cross-request batch back into exact per-request `cache_hits`
    /// tallies (a proportional split would misattribute hits whenever one
    /// request's rows are warm and another's are cold).
    ///
    /// Observability costs one flag read and, when on, one clock read per
    /// call plus a few records; phase timings (model calls vs the rest of
    /// the call) are recorded only for calls that missed.
    pub fn predict_masked(&self, model: &dyn PredictRow, rows: &[Vec<f64>]) -> MaskedOutcome {
        let entered = lam_obs::enabled().then(Instant::now);
        let mut predictions = Vec::with_capacity(rows.len());
        let mut hit_mask = Vec::with_capacity(rows.len());
        let mut predict_ns = 0u64;
        let mut misses = 0u64;
        for batch in rows.chunks(self.micro_batch) {
            let timing = entered.map(|_| &mut predict_ns);
            misses +=
                self.predict_micro_batch(model, batch, &mut predictions, &mut hit_mask, timing);
            if entered.is_some() {
                self.metrics.batch_rows.record(batch.len() as u64);
            }
        }
        let cache_hits = rows.len() as u64 - misses;
        if let Some(entered) = entered {
            self.metrics.hits.add(cache_hits);
            if misses > 0 {
                self.metrics.misses.add(misses);
                let call_ns = entered.elapsed().as_nanos() as u64;
                self.metrics
                    .lookup_ns
                    .record(call_ns.saturating_sub(predict_ns));
                self.metrics.predict_ns.record(predict_ns);
            }
        }
        MaskedOutcome {
            predictions,
            hit_mask,
            cache_hits,
        }
    }
}

/// A batched prediction outcome carrying one cache-hit flag per row; see
/// [`BatchEngine::predict_masked`].
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedOutcome {
    /// One prediction per request row, in request order.
    pub predictions: Vec<f64>,
    /// `hit_mask[i]` is `true` when row `i` was answered from the cache.
    pub hit_mask: Vec<bool>,
    /// Total rows answered from the cache (`hit_mask` trues).
    pub cache_hits: u64,
}

/// Something the [`BatchScheduler`] can execute a coalesced batch
/// against. The serving layer implements this for its loaded models
/// (routing through the model's own [`BatchEngine`] and compiled
/// predictor); tests implement it directly.
pub trait BatchTarget: Send + Sync {
    /// Predict every row, returning per-row cache-hit flags so the
    /// scheduler can split the outcome back per submission.
    fn run_batch(&self, rows: &[Vec<f64>]) -> MaskedOutcome;
}

/// Why a submission was refused; the serving layer turns this into a
/// `503` + `Retry-After` (load shedding), never a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The scheduler's queued-row budget is exhausted.
    QueueFull,
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "batch queue full"),
            SubmitError::ShuttingDown => write!(f, "scheduler shutting down"),
        }
    }
}

/// Tuning knobs of a [`BatchScheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerOptions {
    /// Flush a lane once it holds at least this many rows.
    pub max_batch_rows: usize,
    /// Flush a lane this long after its first row arrived, even if it is
    /// not full — bounds the latency cost of waiting for co-batchable
    /// traffic.
    pub flush_deadline: Duration,
    /// Total rows allowed across all lanes; submissions beyond it are
    /// refused ([`SubmitError::QueueFull`]) so overload sheds instead of
    /// queueing without bound. A lone submission larger than the whole
    /// budget is still admitted while nothing else is queued.
    pub max_queued_rows: usize,
    /// Executor threads draining ready lanes; a lane larger than one
    /// [`DEFAULT_MICRO_BATCH`] runs across them in micro-batch chunks.
    pub workers: usize,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        Self {
            max_batch_rows: 256,
            flush_deadline: Duration::from_micros(200),
            max_queued_rows: 16 * 1024,
            workers: 2,
        }
    }
}

/// One queued submission: its row count (the rows themselves live in the
/// lane) plus the completion that receives its slice of the coalesced
/// outcome.
struct LaneEntry {
    rows: usize,
    enqueued: Instant,
    complete: Box<dyn FnOnce(MaskedOutcome) + Send>,
}

/// All queued submissions against one target, coalesced into the next
/// flush. The lane owns every submission's rows, in submission order.
struct Lane {
    target: Arc<dyn BatchTarget>,
    rows: Vec<Vec<f64>>,
    entries: Vec<LaneEntry>,
    opened: Instant,
}

struct SchedulerState {
    lanes: HashMap<usize, Lane>,
    /// Micro-batch chunks of flushed lanes that no worker has picked up
    /// yet, oldest first.
    chunks: VecDeque<(Arc<Flush>, usize)>,
    queued_rows: usize,
    stopping: bool,
}

/// A flushed lane in execution. Its rows run as [`DEFAULT_MICRO_BATCH`]
/// chunks that idle workers pick up concurrently; whichever worker
/// finishes the last chunk completes every submission.
struct Flush {
    target: Arc<dyn BatchTarget>,
    rows: Vec<Vec<f64>>,
    progress: Mutex<FlushProgress>,
}

struct FlushProgress {
    entries: Vec<LaneEntry>,
    /// One slot per chunk; `None` until it ran, and for a chunk whose
    /// target panicked.
    outcomes: Vec<Option<MaskedOutcome>>,
    remaining: usize,
}

impl Flush {
    /// The flush and its chunk count.
    fn new(lane: Lane) -> (Self, usize) {
        let chunks = lane.rows.len().div_ceil(DEFAULT_MICRO_BATCH).max(1);
        let flush = Self {
            target: lane.target,
            rows: lane.rows,
            progress: Mutex::new(FlushProgress {
                entries: lane.entries,
                outcomes: (0..chunks).map(|_| None).collect(),
                remaining: chunks,
            }),
        };
        (flush, chunks)
    }

    /// Run chunk `i`; the call that finishes the last chunk completes the
    /// lane's submissions. A panic inside the target loses only this
    /// lane: its completions are dropped unrun (a serving completion's
    /// responder then answers 500), and the worker lives on.
    fn run_chunk(&self, i: usize, metrics: &SchedulerMetrics) {
        let lo = (i * DEFAULT_MICRO_BATCH).min(self.rows.len());
        let hi = (lo + DEFAULT_MICRO_BATCH).min(self.rows.len());
        if i == 0 && lam_obs::enabled() {
            let started = Instant::now();
            let progress = self.progress.lock().expect("flush poisoned");
            metrics.occupancy.record(progress.entries.len() as u64);
            metrics.flush_rows.record(self.rows.len() as u64);
            for e in &progress.entries {
                let wait = (started - e.enqueued).as_nanos();
                metrics
                    .queue_wait_ns
                    .record(wait.min(u64::MAX as u128) as u64);
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.target.run_batch(&self.rows[lo..hi])
        }));
        let mut progress = self.progress.lock().expect("flush poisoned");
        progress.outcomes[i] = outcome.ok();
        progress.remaining -= 1;
        if progress.remaining > 0 {
            return;
        }
        let entries = std::mem::take(&mut progress.entries);
        let outcomes = std::mem::take(&mut progress.outcomes);
        drop(progress);
        if let Some(outcome) = merge(outcomes) {
            complete(entries, outcome);
        }
    }
}

/// Concatenate chunk outcomes in row order; `None` when any chunk failed.
fn merge(outcomes: Vec<Option<MaskedOutcome>>) -> Option<MaskedOutcome> {
    let mut outcomes = outcomes.into_iter();
    let mut merged = outcomes.next()??;
    for next in outcomes {
        let next = next?;
        merged.predictions.extend(next.predictions);
        merged.hit_mask.extend(next.hit_mask);
        merged.cache_hits += next.cache_hits;
    }
    Some(merged)
}

/// Hand each submission its slice of a lane's outcome, in row order. A
/// lone submission takes the outcome whole.
fn complete(mut entries: Vec<LaneEntry>, outcome: MaskedOutcome) {
    debug_assert_eq!(
        outcome.predictions.len(),
        entries.iter().map(|e| e.rows).sum::<usize>()
    );
    if entries.len() == 1 {
        let entry = entries.pop().expect("one entry");
        (entry.complete)(outcome);
        return;
    }
    let mut offset = 0usize;
    for entry in entries {
        let range = offset..offset + entry.rows;
        offset = range.end;
        let hit_mask = outcome.hit_mask[range.clone()].to_vec();
        (entry.complete)(MaskedOutcome {
            predictions: outcome.predictions[range].to_vec(),
            cache_hits: hit_mask.iter().filter(|&&h| h).count() as u64,
            hit_mask,
        });
    }
}

/// Pre-interned scheduler metrics: how well cross-request coalescing is
/// working. `lam_batch_occupancy` is the headline — its mean is the
/// number of independent submissions answered per executed batch (1.0
/// means no cross-request batching is forming at all).
struct SchedulerMetrics {
    occupancy: Arc<Histogram>,
    flush_rows: Arc<Histogram>,
    queue_wait_ns: Arc<Histogram>,
    shed: Arc<Counter>,
}

impl SchedulerMetrics {
    fn new() -> Self {
        let reg = lam_obs::global();
        let labels = [("scope", "sched")];
        Self {
            occupancy: reg.histogram(
                "lam_batch_occupancy",
                "Independent submissions coalesced into one executed batch.",
                &labels,
            ),
            flush_rows: reg.histogram(
                "lam_batch_flush_rows",
                "Rows per coalesced cross-request batch flush.",
                &labels,
            ),
            queue_wait_ns: reg.histogram(
                "lam_batch_queue_wait_ns",
                "Delay between a submission to the batch scheduler and its lane's execution start.",
                &labels,
            ),
            shed: reg.counter(
                "lam_requests_shed_total",
                "Requests refused to bound queueing, by shedding site.",
                &[("reason", "batch-queue")],
            ),
        }
    }
}

/// A cross-request micro-batching executor: concurrent submissions
/// against the same [`BatchTarget`] coalesce into one batched predict
/// call, so many small independent requests get ensemble-batch
/// throughput, and a large flushed lane runs in [`DEFAULT_MICRO_BATCH`]
/// chunks across the persistent workers.
///
/// Lanes (one per target) flush when any of three conditions holds:
///
/// 1. **size** — the lane reached [`SchedulerOptions::max_batch_rows`];
/// 2. **deadline** — [`SchedulerOptions::flush_deadline`] elapsed since
///    the lane opened;
/// 3. **idle producers** — the producer hint (see
///    [`BatchScheduler::producer_hint`]) reports no request handler is
///    currently working toward a submission, so waiting longer cannot
///    grow the batch. This is what keeps low-concurrency traffic at
///    native latency: a lone closed-loop client never waits out the
///    deadline.
///
/// Backpressure is explicit: a submission that would exceed
/// [`SchedulerOptions::max_queued_rows`] is refused with
/// [`SubmitError::QueueFull`] and counted in `lam_requests_shed_total`,
/// and the caller sheds (HTTP 503). Queue-wait and batch-occupancy
/// histograms record what coalescing actually formed.
pub struct BatchScheduler {
    shared: Arc<SchedulerShared>,
    workers: Vec<JoinHandle<()>>,
}

struct SchedulerShared {
    state: Mutex<SchedulerState>,
    ready: Condvar,
    opts: SchedulerOptions,
    /// Request handlers mid-flight (parsed but not yet submitted); when
    /// zero, waiting on a deadline cannot gain occupancy.
    producers: AtomicUsize,
    metrics: SchedulerMetrics,
}

impl BatchScheduler {
    /// Start `opts.workers` executor threads.
    pub fn new(opts: SchedulerOptions) -> Self {
        let shared = Arc::new(SchedulerShared {
            state: Mutex::new(SchedulerState {
                lanes: HashMap::new(),
                chunks: VecDeque::new(),
                queued_rows: 0,
                stopping: false,
            }),
            ready: Condvar::new(),
            opts: SchedulerOptions {
                max_batch_rows: opts.max_batch_rows.max(1),
                workers: opts.workers.max(1),
                ..opts
            },
            producers: AtomicUsize::new(0),
            metrics: SchedulerMetrics::new(),
        });
        let workers = (0..shared.opts.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// RAII producer-hint guard: hold one while handling a request that
    /// may submit, so the scheduler knows more rows may be coming and a
    /// short deadline wait can pay off. The guard is owned (`Arc`-backed)
    /// and `Send`, so it can ride along with a request across threads.
    pub fn producer_hint(&self) -> ProducerGuard {
        self.shared.producers.fetch_add(1, Ordering::SeqCst);
        ProducerGuard {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Reserve queue budget for an `n_rows` submission. The two-step
    /// reserve-then-[`SubmitPermit::submit`] shape lets a caller learn
    /// the shed decision *before* constructing its completion (an HTTP
    /// handler answers 503 with the response channel it would otherwise
    /// move into the closure). Refusal is the backpressure signal:
    /// beyond [`SchedulerOptions::max_queued_rows`] the caller sheds
    /// instead of queueing without bound. An empty queue admits any
    /// submission, so one larger than the whole budget is served, not
    /// refused on every try.
    pub fn try_reserve(&self, n_rows: usize) -> Result<SubmitPermit, SubmitError> {
        let mut state = self.shared.state.lock().expect("scheduler poisoned");
        if state.stopping {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queued_rows > 0 && state.queued_rows + n_rows > self.shared.opts.max_queued_rows {
            self.shared.metrics.shed.inc();
            return Err(SubmitError::QueueFull);
        }
        state.queued_rows += n_rows;
        Ok(SubmitPermit {
            shared: Arc::clone(&self.shared),
            rows: n_rows,
            consumed: false,
        })
    }

    /// Rows currently queued across all lanes.
    pub fn queued_rows(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("scheduler poisoned")
            .queued_rows
    }

    /// Flush every remaining lane, then stop and join the executors.
    /// Queued completions still run (graceful drain); new submissions are
    /// refused from the moment this is called.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .expect("scheduler poisoned")
            .stopping = true;
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A reserved slice of the scheduler's queue budget; see
/// [`BatchScheduler::try_reserve`]. Dropping an unsubmitted permit
/// releases the reservation.
pub struct SubmitPermit {
    shared: Arc<SchedulerShared>,
    rows: usize,
    consumed: bool,
}

impl SubmitPermit {
    /// Queue `rows` for a coalesced predict against `target`; `complete`
    /// receives this submission's slice of the batched outcome on an
    /// executor thread. `rows.len()` must match the reserved count.
    ///
    /// The completion is guaranteed to run exactly once: if the
    /// scheduler began stopping after this permit was reserved, the
    /// batch executes inline on the calling thread instead of being
    /// queued behind executors that may already have drained and exited.
    pub fn submit(
        mut self,
        target: Arc<dyn BatchTarget>,
        rows: Vec<Vec<f64>>,
        complete: Box<dyn FnOnce(MaskedOutcome) + Send>,
    ) {
        assert_eq!(
            rows.len(),
            self.rows,
            "permit reserved a different row count"
        );
        self.consumed = true;
        let n = rows.len();
        let key = Arc::as_ptr(&target) as *const () as usize;
        let mut state = self.shared.state.lock().expect("scheduler poisoned");
        if state.stopping {
            state.queued_rows -= n;
            drop(state);
            let outcome = target.run_batch(&rows);
            complete(outcome);
            return;
        }
        let now = Instant::now();
        let lane = state.lanes.entry(key).or_insert_with(|| Lane {
            target,
            rows: Vec::new(),
            entries: Vec::new(),
            opened: now,
        });
        if lane.rows.is_empty() {
            lane.rows = rows;
        } else {
            lane.rows.extend(rows);
        }
        lane.entries.push(LaneEntry {
            rows: n,
            enqueued: now,
            complete,
        });
        drop(state);
        // Executors sleep on a deadline-bounded wait, so one notify is
        // enough whether or not the lane is already flush-ready.
        self.shared.ready.notify_one();
    }
}

impl Drop for SubmitPermit {
    fn drop(&mut self) {
        if !self.consumed {
            let mut state = self.shared.state.lock().expect("scheduler poisoned");
            state.queued_rows -= self.rows;
        }
    }
}

/// RAII guard for the scheduler's producer hint; see
/// [`BatchScheduler::producer_hint`].
pub struct ProducerGuard {
    shared: Arc<SchedulerShared>,
}

impl Drop for ProducerGuard {
    fn drop(&mut self) {
        // The producer is done (its submission, if any, is queued): if it
        // was the last one, wake an executor so an idle-flush can fire
        // without waiting out the deadline.
        if self.shared.producers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.ready.notify_one();
        }
    }
}

/// Pop one flush-ready lane, or compute how long to wait for the nearest
/// deadline. `stopping` makes every non-empty lane ready (drain).
fn take_ready_lane(
    state: &mut SchedulerState,
    opts: &SchedulerOptions,
    producers_idle: bool,
    now: Instant,
) -> Result<Lane, Option<Duration>> {
    let mut next_deadline: Option<Duration> = None;
    let mut ready_key = None;
    for (&key, lane) in &state.lanes {
        let age = now.saturating_duration_since(lane.opened);
        if lane.rows.len() >= opts.max_batch_rows
            || age >= opts.flush_deadline
            || producers_idle
            || state.stopping
        {
            ready_key = Some(key);
            break;
        }
        let remaining = opts.flush_deadline - age;
        next_deadline = Some(match next_deadline {
            Some(d) => d.min(remaining),
            None => remaining,
        });
    }
    match ready_key {
        Some(key) => {
            let lane = state.lanes.remove(&key).expect("key just seen");
            state.queued_rows -= lane.rows.len();
            Ok(lane)
        }
        None => Err(next_deadline),
    }
}

/// Run queued chunks first (they finish requests already in flight),
/// then flush ready lanes into chunks; sleep when there is neither.
fn worker_loop(shared: &SchedulerShared) {
    let lock = || shared.state.lock().expect("scheduler poisoned");
    // `run_chunk` already contains a panicking target; this guard keeps
    // the worker alive through a panicking completion too.
    let run = |flush: &Flush, chunk| {
        let _ = catch_unwind(AssertUnwindSafe(|| flush.run_chunk(chunk, &shared.metrics)));
    };
    let mut state = lock();
    loop {
        if let Some((flush, chunk)) = state.chunks.pop_front() {
            drop(state);
            run(&flush, chunk);
            state = lock();
            continue;
        }
        let producers_idle = shared.producers.load(Ordering::SeqCst) == 0;
        match take_ready_lane(&mut state, &shared.opts, producers_idle, Instant::now()) {
            Ok(lane) => {
                drop(state);
                let (flush, chunks) = Flush::new(lane);
                let flush = Arc::new(flush);
                if chunks > 1 {
                    // Queue the rest for idle workers; this one runs the
                    // first chunk.
                    let rest = (1..chunks).map(|i| (Arc::clone(&flush), i));
                    lock().chunks.extend(rest);
                    for _ in 1..chunks.min(shared.opts.workers) {
                        shared.ready.notify_one();
                    }
                }
                run(&flush, 0);
                state = lock();
            }
            Err(next_deadline) => {
                if state.stopping && state.lanes.is_empty() {
                    return;
                }
                // No ready lane: sleep until the nearest deadline (or for
                // a notify). An empty lane set waits purely on notifies,
                // with a coarse cap so a missed wake cannot hang drain.
                let wait = next_deadline.unwrap_or(Duration::from_millis(100));
                state = shared
                    .ready
                    .wait_timeout(state, wait)
                    .expect("scheduler poisoned")
                    .0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic toy model: y = 2*x0 + x1.
    struct Toy;
    impl PredictRow for Toy {
        fn predict_row(&self, x: &[f64]) -> f64 {
            2.0 * x[0] + x.get(1).copied().unwrap_or(0.0)
        }
    }

    fn rows(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64, (i % 7) as f64]).collect()
    }

    #[test]
    fn batched_predictions_preserve_request_order() {
        let engine = BatchEngine::new(8, 4);
        let rows = rows(1000);
        let out = engine.predict(&Toy, &rows);
        assert_eq!(out.predictions.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(out.predictions[i], Toy.predict_row(row), "row {i}");
        }
    }

    #[test]
    fn second_pass_is_all_cache_hits() {
        let engine = BatchEngine::new(16, 8);
        let rows = rows(300);
        let cold = engine.predict(&Toy, &rows);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(engine.cache().len(), rows.len());
        let warm = engine.predict(&Toy, &rows);
        assert_eq!(warm.cache_hits, rows.len() as u64);
        assert_eq!(warm.predictions, cold.predictions);
    }

    #[test]
    fn cache_distinguishes_bitwise_different_rows() {
        let cache = PredictionCache::new(4);
        cache.insert(&[1.0, 2.0], 10.0);
        assert_eq!(cache.get(&[1.0, 2.0]), Some(10.0));
        assert_eq!(cache.get(&[1.0, 2.0000000000000004]), None);
        assert_eq!(cache.get(&[1.0]), None);
        // -0.0 and 0.0 differ bitwise: distinct cache entries.
        cache.insert(&[0.0], 1.0);
        assert_eq!(cache.get(&[-0.0]), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn capacity_bounds_entries_without_breaking_predictions() {
        let cache = PredictionCache::with_capacity(2, 4);
        for i in 0..100 {
            cache.insert(&[i as f64], i as f64);
        }
        assert!(cache.len() <= 4, "len {}", cache.len());
        // Overwriting an existing key still works at capacity.
        let kept: Vec<f64> = (0..100)
            .map(|i| i as f64)
            .filter(|&x| cache.get(&[x]).is_some())
            .collect();
        let k = kept[0];
        cache.insert(&[k], -1.0);
        assert_eq!(cache.get(&[k]), Some(-1.0));
    }

    #[test]
    fn empty_request_is_fine() {
        let engine = BatchEngine::default();
        let out = engine.predict(&Toy, &[]);
        assert!(out.predictions.is_empty());
        assert_eq!(out.cache_hits, 0);
        assert!(engine.cache().is_empty());
    }

    #[test]
    fn scoped_engine_feeds_the_global_metrics_registry() {
        // A unique scope keeps this test independent of every other
        // engine in the process.
        let scope = "batch-metrics-selftest";
        let engine = BatchEngine::scoped(8, 4, scope);
        let rows = rows(20);
        engine.predict(&Toy, &rows);
        engine.predict(&Toy, &rows);
        let reg = lam_obs::global();
        let labels = [("scope", scope)];
        let hits = reg.counter("lam_cache_hits_total", "", &labels).get();
        let misses = reg.counter("lam_cache_misses_total", "", &labels).get();
        assert_eq!(misses, 20, "first pass all misses");
        assert_eq!(hits, 20, "second pass all hits");
        let sizes = reg.histogram("lam_batch_rows", "", &labels).snapshot();
        // 20 rows in 8-row micro-batches = 3 batches per pass.
        assert_eq!(sizes.count(), 6);
        assert_eq!(sizes.max, 8);
        // The engine queues nothing: waiting is the scheduler's series.
        let waits = reg
            .histogram("lam_batch_queue_wait_ns", "", &labels)
            .snapshot();
        assert_eq!(waits.count(), 0);
        // Phase timings are only taken on calls that missed (the all-hit
        // path skips them), so only the first pass shows up here.
        let lookups = reg
            .histogram(
                "lam_batch_phase_ns",
                "",
                &[("scope", scope), ("phase", "cache-lookup")],
            )
            .snapshot();
        assert_eq!(lookups.count(), 1);
    }

    #[test]
    fn masked_outcome_flags_hits_per_row() {
        let engine = BatchEngine::new(4, 2);
        // Warm rows 0..3; then predict a mix of warm and cold rows.
        engine.predict(&Toy, &rows(3));
        let mixed = vec![
            vec![0.0, 0.0], // warm
            vec![50.0, 1.0],
            vec![1.0, 1.0], // warm
            vec![60.0, 4.0],
            vec![2.0, 2.0], // warm
        ];
        let out = engine.predict_masked(&Toy, &mixed);
        assert_eq!(out.hit_mask, vec![true, false, true, false, true]);
        assert_eq!(out.cache_hits, 3);
        for (i, row) in mixed.iter().enumerate() {
            assert_eq!(out.predictions[i], Toy.predict_row(row), "row {i}");
        }
    }

    /// Minimal target over a shared engine, counting executed batches.
    struct CountingTarget {
        engine: BatchEngine,
        calls: AtomicU64,
    }
    impl BatchTarget for CountingTarget {
        fn run_batch(&self, rows: &[Vec<f64>]) -> MaskedOutcome {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.engine.predict_masked(&Toy, rows)
        }
    }

    fn counting_target() -> Arc<CountingTarget> {
        Arc::new(CountingTarget {
            engine: BatchEngine::new(512, 4),
            calls: AtomicU64::new(0),
        })
    }

    fn submit_and_collect(
        sched: &BatchScheduler,
        target: Arc<CountingTarget>,
        all_rows: Vec<Vec<Vec<f64>>>,
    ) -> Vec<MaskedOutcome> {
        let results: Arc<Mutex<Vec<Option<MaskedOutcome>>>> =
            Arc::new(Mutex::new(vec![None; all_rows.len()]));
        {
            // Hold the producer hint across all submissions so the
            // scheduler waits for the whole group before flushing.
            let _hint = sched.producer_hint();
            for (i, rows) in all_rows.into_iter().enumerate() {
                let results = Arc::clone(&results);
                let target: Arc<dyn BatchTarget> = target.clone();
                let permit = sched.try_reserve(rows.len()).expect("reserve");
                permit.submit(
                    target,
                    rows,
                    Box::new(move |out| {
                        results.lock().unwrap()[i] = Some(out);
                    }),
                );
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let got = results.lock().unwrap();
                if got.iter().all(|r| r.is_some()) {
                    return got.iter().map(|r| r.clone().unwrap()).collect();
                }
            }
            assert!(Instant::now() < deadline, "scheduler never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn scheduler_coalesces_submissions_into_one_batch() {
        let sched = BatchScheduler::new(SchedulerOptions {
            flush_deadline: Duration::from_millis(50),
            workers: 1,
            ..SchedulerOptions::default()
        });
        let target = counting_target();
        let outs = submit_and_collect(
            &sched,
            target.clone(),
            (0..8).map(|i| vec![vec![i as f64, 1.0]]).collect(),
        );
        // All eight single-row submissions arrived under one producer
        // hint within one deadline window: exactly one executed batch.
        assert_eq!(target.calls.load(Ordering::SeqCst), 1);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.predictions, vec![2.0 * i as f64 + 1.0]);
            assert_eq!(out.hit_mask.len(), 1);
        }
        sched.shutdown();
    }

    #[test]
    fn scheduler_splits_cache_hits_exactly_per_submission() {
        let sched = BatchScheduler::new(SchedulerOptions {
            flush_deadline: Duration::from_millis(20),
            workers: 1,
            ..SchedulerOptions::default()
        });
        let target = counting_target();
        // Warm only the rows of the second submission.
        target.engine.predict(&Toy, &[vec![7.0, 7.0]]);
        let outs = submit_and_collect(
            &sched,
            target.clone(),
            vec![
                vec![vec![100.0, 0.0], vec![101.0, 0.0]], // cold, cold
                vec![vec![7.0, 7.0]],                     // warm
            ],
        );
        assert_eq!(outs[0].cache_hits, 0);
        assert_eq!(outs[0].hit_mask, vec![false, false]);
        assert_eq!(outs[1].cache_hits, 1);
        assert_eq!(outs[1].hit_mask, vec![true]);
        sched.shutdown();
    }

    #[test]
    fn scheduler_sheds_when_row_budget_is_exhausted() {
        let sched = BatchScheduler::new(SchedulerOptions {
            max_queued_rows: 3,
            flush_deadline: Duration::from_secs(10),
            workers: 1,
            ..SchedulerOptions::default()
        });
        let target = counting_target();
        // Keep the hint held so nothing flushes while we overfill.
        let _hint = sched.producer_hint();
        let t: Arc<dyn BatchTarget> = target.clone();
        sched.try_reserve(3).expect("within budget").submit(
            t,
            vec![vec![1.0]; 3],
            Box::new(|_| {}),
        );
        let Err(err) = sched.try_reserve(1) else {
            panic!("over-budget reserve must be refused");
        };
        assert_eq!(err, SubmitError::QueueFull);
        // A dropped (unsubmitted) permit releases its reservation.
        drop(sched.try_reserve(0).expect("zero-row reserve"));
        drop(_hint);
        sched.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_submissions() {
        let sched = BatchScheduler::new(SchedulerOptions {
            flush_deadline: Duration::from_secs(10),
            workers: 1,
            ..SchedulerOptions::default()
        });
        let target = counting_target();
        let done = Arc::new(AtomicU64::new(0));
        {
            let _hint = sched.producer_hint();
            for i in 0..4 {
                let done = Arc::clone(&done);
                let t: Arc<dyn BatchTarget> = target.clone();
                sched.try_reserve(1).expect("reserve").submit(
                    t,
                    vec![vec![i as f64, 0.0]],
                    Box::new(move |_| {
                        done.fetch_add(1, Ordering::SeqCst);
                    }),
                );
            }
            // Hint still held: with a 10s deadline nothing has flushed;
            // shutdown must drain these, not drop them.
            sched.shutdown();
        }
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn idle_producers_flush_without_waiting_out_the_deadline() {
        let sched = BatchScheduler::new(SchedulerOptions {
            flush_deadline: Duration::from_secs(10),
            workers: 1,
            ..SchedulerOptions::default()
        });
        let target = counting_target();
        let started = Instant::now();
        let outs = submit_and_collect(&sched, target, vec![vec![vec![3.0, 1.0]]]);
        // The hint dropped right after the lone submission, so the flush
        // must fire on the idle hint, far inside the 10s deadline.
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(outs[0].predictions, vec![7.0]);
        sched.shutdown();
    }

    /// Target recording the row count of every executed batch and the
    /// most batches it ever ran at once.
    struct ChunkTarget {
        engine: BatchEngine,
        sizes: Mutex<Vec<usize>>,
        running: AtomicUsize,
        max_running: AtomicUsize,
    }
    impl BatchTarget for ChunkTarget {
        fn run_batch(&self, rows: &[Vec<f64>]) -> MaskedOutcome {
            let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_running.fetch_max(now, Ordering::SeqCst);
            self.sizes.lock().unwrap().push(rows.len());
            // Hold the chunk until a second one runs beside it (or give
            // up after 2 s, which the concurrency assertion then catches).
            let waiting = Instant::now();
            while self.max_running.load(Ordering::SeqCst) < 2
                && waiting.elapsed() < Duration::from_secs(2)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            let out = self.engine.predict_masked(&Toy, rows);
            self.running.fetch_sub(1, Ordering::SeqCst);
            out
        }
    }

    #[test]
    fn large_lanes_run_as_micro_batch_chunks_across_workers() {
        let sched = BatchScheduler::new(SchedulerOptions {
            flush_deadline: Duration::from_millis(50),
            workers: 2,
            ..SchedulerOptions::default()
        });
        let target = Arc::new(ChunkTarget {
            engine: BatchEngine::new(512, 4),
            sizes: Mutex::new(Vec::new()),
            running: AtomicUsize::new(0),
            max_running: AtomicUsize::new(0),
        });
        // Warm every third row of the big submission: the hit split per
        // submission must stay exact across chunk boundaries.
        let big: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64, 3.0]).collect();
        let warm: Vec<Vec<f64>> = big.iter().step_by(3).cloned().collect();
        target.engine.predict(&Toy, &warm);
        let small = vec![vec![1000.0, 0.0], vec![3.0, 3.0]];
        let results: Arc<Mutex<Vec<Option<MaskedOutcome>>>> = Arc::new(Mutex::new(vec![None; 2]));
        {
            let _hint = sched.producer_hint();
            for (i, rows) in [big.clone(), small.clone()].into_iter().enumerate() {
                let results = Arc::clone(&results);
                let t: Arc<dyn BatchTarget> = target.clone();
                sched.try_reserve(rows.len()).expect("reserve").submit(
                    t,
                    rows,
                    Box::new(move |out| results.lock().unwrap()[i] = Some(out)),
                );
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while results.lock().unwrap().iter().any(Option::is_none) {
            assert!(Instant::now() < deadline, "scheduler never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let outs = results.lock().unwrap().clone();
        let (big_out, small_out) = (outs[0].clone().unwrap(), outs[1].clone().unwrap());
        for (rows, out) in [(&big, &big_out), (&small, &small_out)] {
            let want: Vec<f64> = rows.iter().map(|r| Toy.predict_row(r)).collect();
            assert_eq!(out.predictions, want);
        }
        let big_mask: Vec<bool> = (0..300).map(|i| i % 3 == 0).collect();
        assert_eq!(big_out.hit_mask, big_mask);
        assert_eq!(big_out.cache_hits, 100);
        assert_eq!(small_out.hit_mask, vec![false, true]);
        assert_eq!(small_out.cache_hits, 1);
        // One 302-row lane: four full 64-row chunks and a 46-row tail,
        // run by both workers at once.
        let mut sizes = target.sizes.lock().unwrap().clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![46, 64, 64, 64, 64]);
        assert_eq!(target.max_running.load(Ordering::SeqCst), 2);
        sched.shutdown();
    }

    #[test]
    fn lanes_of_one_micro_batch_run_as_one_batch() {
        let sched = BatchScheduler::new(SchedulerOptions::default());
        let target = counting_target();
        let rows: Vec<Vec<f64>> = (0..DEFAULT_MICRO_BATCH)
            .map(|i| vec![i as f64, 0.0])
            .collect();
        let outs = submit_and_collect(&sched, target.clone(), vec![rows]);
        assert_eq!(outs[0].predictions.len(), DEFAULT_MICRO_BATCH);
        assert_eq!(target.calls.load(Ordering::SeqCst), 1);
        sched.shutdown();
    }

    #[test]
    fn a_submission_larger_than_the_budget_runs_when_the_queue_is_empty() {
        let sched = BatchScheduler::new(SchedulerOptions {
            max_queued_rows: 100,
            ..SchedulerOptions::default()
        });
        let target = counting_target();
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64, 1.0]).collect();
        let outs = submit_and_collect(&sched, target, vec![rows]);
        assert_eq!(outs[0].predictions.len(), 1000);
        assert_eq!(outs[0].predictions[999], 1999.0);
        sched.shutdown();
    }

    /// Panics on any row whose first feature is negative.
    struct Fragile;
    impl BatchTarget for Fragile {
        fn run_batch(&self, rows: &[Vec<f64>]) -> MaskedOutcome {
            assert!(rows.iter().all(|r| r[0] >= 0.0), "model panicked");
            BatchEngine::new(8, 1).predict_masked(&Toy, rows)
        }
    }

    #[test]
    fn a_panicking_target_drops_its_lane_and_keeps_the_workers() {
        let opts = SchedulerOptions::default();
        let workers = opts.workers;
        let sched = BatchScheduler::new(opts);
        let target: Arc<dyn BatchTarget> = Arc::new(Fragile);
        let submit = |rows: Vec<Vec<f64>>| {
            let (tx, rx) = std::sync::mpsc::channel();
            sched.try_reserve(rows.len()).expect("reserve").submit(
                Arc::clone(&target),
                rows,
                Box::new(move |out| tx.send(out).unwrap()),
            );
            rx
        };
        // More panicking lanes than workers, one of them split in chunks.
        for i in 0..=workers {
            let n = if i == 0 { 200 } else { 1 };
            let rx = submit(vec![vec![-1.0, 0.0]; n]);
            // The completion is dropped unrun: its sender disconnects.
            assert!(rx.recv_timeout(Duration::from_secs(2)).is_err());
        }
        let rx = submit(vec![vec![2.0, 1.0]]);
        let out = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("a worker must survive the panics");
        assert_eq!(out.predictions, vec![5.0]);
        sched.shutdown();
    }

    #[test]
    fn duplicate_rows_in_one_request_hit_after_first_compute() {
        let engine = BatchEngine::new(1, 2);
        let rows = vec![vec![5.0, 1.0]; 10];
        // Micro-batches run in order on the calling thread: the first
        // occurrence computes, the other nine hit.
        let out = engine.predict(&Toy, &rows);
        assert_eq!(out.cache_hits, 9);
        assert!(out.predictions.iter().all(|&y| y == 11.0));
        assert_eq!(engine.cache().len(), 1);
    }
}
