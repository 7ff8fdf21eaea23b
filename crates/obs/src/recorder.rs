//! The flight recorder: a fixed-capacity, wait-free ring of completed
//! span records with tail-based sampling.
//!
//! Writers never block and never wait: recording claims a slot with one
//! `fetch_add`, swaps the slot's state word, and either writes (slot
//! free) or drops the record and counts it (slot momentarily owned by a
//! reader or another writer — a collision on a ring thousands of slots
//! deep, so vanishingly rare). Readers scan the ring with
//! `compare_exchange`, clone what they can, and skip what they cannot;
//! they never make a writer wait.
//!
//! ## Tail sampling
//!
//! Keeping every span of every request would evict the interesting
//! traces in milliseconds under load, so retention is decided per
//! completed span, biased toward what an operator will actually look
//! for:
//!
//! * **errors and sheds** — always kept;
//! * **slow spans** (duration ≥ the slow threshold) — always kept;
//! * **force-flagged traces** ([`crate::trace::FLAG_FORCE`]) — always
//!   kept (tests and smoke scripts use this for determinism);
//! * **everything else** — kept iff `hash(trace_id) % sample_every == 0`.
//!
//! The bulk-sampling decision hashes the *trace id*, not the span, so
//! every process in a cluster independently keeps or drops the *same*
//! traces — a sampled-in trace is complete across the gateway and all
//! backends, never a torn fragment.
//!
//! Knobs (read once when the global recorder is first touched):
//! `LAM_TRACE_CAPACITY` (slots, default 4096), `LAM_TRACE_SAMPLE`
//! (keep 1 in N bulk traces, default 64; ≤ 1 keeps all), and
//! `LAM_TRACE_SLOW_MS` (slow-trace threshold, default 50ms).

use crate::trace::{splitmix64, TraceContext, FLAG_FORCE};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default ring capacity, in span records.
pub const DEFAULT_CAPACITY: usize = 4096;
/// Default bulk sampling rate: keep 1 in this many unflagged ok-status
/// traces.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;
/// Default slow-trace threshold in nanoseconds (50ms).
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 50_000_000;

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStatus {
    /// Completed normally.
    Ok,
    /// Failed (5xx, upstream error, exhausted failover).
    Error,
    /// Load-shed (503 from a full queue or a dead cluster).
    Shed,
}

impl SpanStatus {
    /// Stable wire name (`ok` / `error` / `shed`).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Error => "error",
            SpanStatus::Shed => "shed",
        }
    }
}

/// One completed span: an operation's identity, timing, outcome, and
/// low-cardinality annotations (shard address, row count, batch
/// occupancy, resolution path, …).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u128,
    /// This span's id (never 0).
    pub span_id: u64,
    /// Parent span id; 0 for a root span.
    pub parent_id: u64,
    /// Operation name, e.g. `gateway.request` or `serve.queue`.
    pub name: &'static str,
    /// Which process recorded it (`serve` unless overridden by
    /// [`set_service`]).
    pub service: &'static str,
    /// Wall-clock start, nanoseconds since the unix epoch.
    pub start_unix_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
    /// Outcome.
    pub status: SpanStatus,
    /// Propagated trace flags (drives force-retention).
    pub flags: u8,
    /// `(key, value)` annotations, in insertion order.
    pub annotations: Vec<(&'static str, String)>,
}

/// Nanoseconds since the unix epoch, now.
pub fn unix_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

impl SpanRecord {
    /// Build a completed span for `ctx` from its monotonic start
    /// instant: duration is `started.elapsed()`, the wall-clock start is
    /// back-derived from one `SystemTime` read taken now.
    pub fn finish(
        ctx: &TraceContext,
        parent_id: u64,
        name: &'static str,
        started: Instant,
        status: SpanStatus,
    ) -> Self {
        let duration_ns = started.elapsed().as_nanos() as u64;
        Self {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id,
            name,
            service: service(),
            start_unix_ns: unix_now_ns().saturating_sub(duration_ns),
            duration_ns,
            status,
            flags: ctx.flags,
            annotations: Vec::new(),
        }
    }

    /// [`SpanRecord::finish`] for work that ended at `ended` (monotonic,
    /// not in the future) rather than now: same wall-clock start, the
    /// duration stops at `ended`.
    pub fn between(
        ctx: &TraceContext,
        parent_id: u64,
        name: &'static str,
        started: Instant,
        ended: Instant,
        status: SpanStatus,
    ) -> Self {
        let mut span = Self::finish(ctx, parent_id, name, started, status);
        span.duration_ns = ended.saturating_duration_since(started).as_nanos() as u64;
        span
    }

    /// Append one annotation (builder-style).
    pub fn annotate(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.annotations.push((key, value.into()));
        self
    }

    /// Render this span as a JSON object (ids in fixed-width hex,
    /// annotations as a string map).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "{{\"trace_id\":\"{:032x}\",\"span_id\":\"{:016x}\",\"parent_id\":\"{:016x}\",",
                self.trace_id, self.span_id, self.parent_id
            ),
        );
        out.push_str("\"name\":\"");
        crate::expose::escape_json(self.name, &mut out);
        out.push_str("\",\"service\":\"");
        crate::expose::escape_json(self.service, &mut out);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "\",\"start_unix_ns\":{},\"duration_ns\":{},\"status\":\"{}\",\"annotations\":{{",
                self.start_unix_ns,
                self.duration_ns,
                self.status.as_str()
            ),
        );
        for (i, (key, value)) in self.annotations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            crate::expose::escape_json(key, &mut out);
            out.push_str("\":\"");
            crate::expose::escape_json(value, &mut out);
            out.push('"');
        }
        out.push_str("}}");
        out
    }
}

const EMPTY: u8 = 0;
const READY: u8 = 1;
const BUSY: u8 = 2;

/// One ring slot: a state word mediating exclusive access to the record
/// behind it.
struct Slot {
    state: AtomicU8,
    data: UnsafeCell<Option<SpanRecord>>,
}

// Access to `data` is mediated by `state`: only the thread that moved
// the slot into BUSY touches the cell, and the READY/EMPTY transitions
// publish/acquire it.
unsafe impl Sync for Slot {}

/// The wait-free span ring; see the module docs. Use [`global`] for the
/// process-wide instance.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicUsize,
    sample_every: AtomicU64,
    slow_threshold_ns: AtomicU64,
    recorded: AtomicU64,
    sampled_out: AtomicU64,
    dropped: AtomicU64,
}

/// Would a bulk (ok-status, unflagged, fast) span of `trace_id` be kept
/// at sampling rate `sample_every`? Public so tests can predict the
/// exact retained set.
pub fn sampled(trace_id: u128, sample_every: u64) -> bool {
    if sample_every <= 1 {
        return true;
    }
    splitmix64((trace_id as u64) ^ ((trace_id >> 64) as u64)).is_multiple_of(sample_every)
}

impl FlightRecorder {
    /// A recorder with `capacity` slots (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity)
                .map(|_| Slot {
                    state: AtomicU8::new(EMPTY),
                    data: UnsafeCell::new(None),
                })
                .collect(),
            head: AtomicUsize::new(0),
            sample_every: AtomicU64::new(DEFAULT_SAMPLE_EVERY),
            slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS),
            recorded: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Keep 1 in `n` bulk traces (≤ 1 keeps all).
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n, Ordering::Relaxed);
    }

    /// Current bulk sampling rate.
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Spans at least this long are always retained.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// `(recorded, sampled_out, dropped)` counters: spans written to the
    /// ring, spans tail-sampling discarded, spans lost to a slot
    /// collision.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.recorded.load(Ordering::Relaxed),
            self.sampled_out.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// Does the tail-sampling policy keep this span?
    fn retains(&self, rec: &SpanRecord) -> bool {
        rec.flags & FLAG_FORCE != 0
            || rec.status != SpanStatus::Ok
            || rec.duration_ns >= self.slow_threshold_ns.load(Ordering::Relaxed)
            || sampled(rec.trace_id, self.sample_every.load(Ordering::Relaxed))
    }

    /// Record one completed span (wait-free; see the module docs).
    pub fn record(&self, mut rec: SpanRecord) {
        if !self.retains(&rec) {
            self.sampled_out.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // A full ring holds thousands of records for the process
        // lifetime: keep exact-size annotation buffers, not the spare
        // capacity the builder grew them with.
        rec.annotations.shrink_to_fit();
        let idx = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let slot = &self.slots[idx];
        if slot.state.swap(BUSY, Ordering::Acquire) == BUSY {
            // A reader (or a writer that lapped the whole ring) holds
            // this slot right now. Waiting would make the writer block
            // on the reader; dropping one record is the wait-free trade.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        unsafe { *slot.data.get() = Some(rec) };
        slot.state.store(READY, Ordering::Release);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Clone every readable record (unordered). Slots mid-write are
    /// skipped, never waited on.
    pub fn iter_records(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            if slot
                .state
                .compare_exchange(READY, BUSY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                let rec = unsafe { (*slot.data.get()).clone() };
                slot.state.store(READY, Ordering::Release);
                out.extend(rec);
            }
        }
        out
    }

    /// Every retained span of `trace_id`, ordered by start time then
    /// span id.
    pub fn find_trace(&self, trace_id: u128) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .iter_records()
            .into_iter()
            .filter(|r| r.trace_id == trace_id)
            .collect();
        spans.sort_by_key(|r| (r.start_unix_ns, r.span_id));
        spans.dedup_by_key(|r| r.span_id);
        spans
    }
}

/// Render a `/traces/{id}` body: the trace id and its span objects
/// (already-serialized JSON objects in `span_json`).
pub fn render_trace_json(trace_id: u128, span_json: &[String]) -> String {
    format!(
        "{{\"trace_id\":\"{:032x}\",\"spans\":[{}]}}",
        trace_id,
        span_json.join(",")
    )
}

/// Render a `/traces` body: per-trace summaries of `records`, newest
/// first, at most `limit` traces. Each summary carries the trace id,
/// span count, the root span's name/service/status/duration when the
/// root is retained (the longest span otherwise), and the earliest
/// start.
pub fn render_recent_json(records: &[SpanRecord], limit: usize) -> String {
    // Group by trace id: (earliest start, representative span index,
    // span count, worst status).
    let mut traces: Vec<(u128, u64, usize, usize, SpanStatus)> = Vec::new();
    for (idx, rec) in records.iter().enumerate() {
        match traces.iter_mut().find(|t| t.0 == rec.trace_id) {
            Some(t) => {
                t.1 = t.1.min(rec.start_unix_ns);
                let best = &records[t.2];
                let better_root = (rec.parent_id == 0 && best.parent_id != 0)
                    || (rec.parent_id == 0) == (best.parent_id == 0)
                        && rec.duration_ns > best.duration_ns;
                if better_root {
                    t.2 = idx;
                }
                t.3 += 1;
                if rec.status != SpanStatus::Ok {
                    t.4 = rec.status;
                }
            }
            None => traces.push((rec.trace_id, rec.start_unix_ns, idx, 1, rec.status)),
        }
    }
    traces.sort_by_key(|t| std::cmp::Reverse(t.1));
    traces.truncate(limit);
    let entries: Vec<String> = traces
        .iter()
        .map(|&(trace_id, start, idx, count, status)| {
            let root = &records[idx];
            let mut out = String::with_capacity(128);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!("{{\"trace_id\":\"{trace_id:032x}\",\"spans\":{count},\"root\":\""),
            );
            crate::expose::escape_json(root.name, &mut out);
            out.push_str("\",\"service\":\"");
            crate::expose::escape_json(root.service, &mut out);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "\",\"status\":\"{}\",\"start_unix_ns\":{start},\"duration_ns\":{}}}",
                    status.as_str(),
                    root.duration_ns
                ),
            );
            out
        })
        .collect();
    format!("{{\"traces\":[{}]}}", entries.join(","))
}

static SERVICE: OnceLock<&'static str> = OnceLock::new();

/// Name this process in every subsequent span record (first caller
/// wins; the gateway calls this with `"gateway"` at startup). Defaults
/// to `"serve"`.
pub fn set_service(name: &'static str) {
    let _ = SERVICE.set(name);
}

/// The current process's service name for span records.
pub fn service() -> &'static str {
    SERVICE.get().copied().unwrap_or("serve")
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The process-global flight recorder. First touch reads the
/// `LAM_TRACE_CAPACITY` / `LAM_TRACE_SAMPLE` / `LAM_TRACE_SLOW_MS`
/// environment knobs.
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let capacity = env_u64("LAM_TRACE_CAPACITY")
            .map(|n| n as usize)
            .unwrap_or(DEFAULT_CAPACITY);
        let recorder = FlightRecorder::with_capacity(capacity);
        if let Some(n) = env_u64("LAM_TRACE_SAMPLE") {
            recorder.set_sample_every(n);
        }
        if let Some(ms) = env_u64("LAM_TRACE_SLOW_MS") {
            recorder.set_slow_threshold_ns(ms.saturating_mul(1_000_000));
        }
        recorder
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_span(trace_id: u128, span_id: u64) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id,
            parent_id: 0,
            name: "test.op",
            service: "serve",
            start_unix_ns: span_id,
            duration_ns: 10,
            status: SpanStatus::Ok,
            flags: 0,
            annotations: Vec::new(),
        }
    }

    #[test]
    fn explicit_end_spans_time_the_window_not_the_record_call() {
        let ctx = TraceContext::root();
        let started = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ended = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let before_ns = unix_now_ns();
        let span = SpanRecord::between(&ctx, 0, "test.op", started, ended, SpanStatus::Ok);
        let window_ns = ended.duration_since(started).as_nanos() as u64;
        assert_eq!(span.duration_ns, window_ns);
        // The wall-clock start is back-derived from `started`, so it
        // precedes the record call by the whole elapsed time (>= 22 ms).
        assert!(span.start_unix_ns + 20_000_000 <= before_ns);
    }

    #[test]
    fn errors_sheds_slow_and_forced_bypass_sampling() {
        let rec = FlightRecorder::with_capacity(64);
        rec.set_sample_every(u64::MAX); // bulk sampling keeps ~nothing
        rec.set_slow_threshold_ns(1_000);

        let mut shed = ok_span(7, 1);
        shed.status = SpanStatus::Shed;
        let mut error = ok_span(7, 2);
        error.status = SpanStatus::Error;
        let mut slow = ok_span(7, 3);
        slow.duration_ns = 5_000;
        let mut forced = ok_span(7, 4);
        forced.flags = FLAG_FORCE;
        let bulk = ok_span(7, 5);

        for r in [shed, error, slow, forced, bulk] {
            rec.record(r);
        }
        let kept: Vec<u64> = rec.find_trace(7).iter().map(|r| r.span_id).collect();
        assert_eq!(kept, vec![1, 2, 3, 4], "bulk span 5 must be sampled out");
        let (recorded, sampled_out, dropped) = rec.stats();
        assert_eq!((recorded, sampled_out, dropped), (4, 1, 0));
    }

    #[test]
    fn bulk_sampling_is_deterministic_on_the_trace_id() {
        let rec = FlightRecorder::with_capacity(4096);
        rec.set_sample_every(16);
        rec.set_slow_threshold_ns(u64::MAX);
        let n = 1000u128;
        for id in 1..=n {
            rec.record(ok_span(id, 1));
        }
        let kept: Vec<u128> = (1..=n)
            .filter(|&id| !rec.find_trace(id).is_empty())
            .collect();
        let expected: Vec<u128> = (1..=n).filter(|&id| sampled(id, 16)).collect();
        assert_eq!(kept, expected, "retention must match the predicate");
        // The rate is in the right ballpark (not all, not none).
        assert!(kept.len() > 20 && kept.len() < 200, "{}", kept.len());
    }

    #[test]
    fn ring_overwrites_oldest_without_growing() {
        let rec = FlightRecorder::with_capacity(8);
        rec.set_sample_every(1); // keep everything
        for span_id in 1..=20u64 {
            rec.record(ok_span(1, span_id));
        }
        let spans = rec.find_trace(1);
        assert_eq!(spans.len(), 8, "capacity bounds retention");
        // The survivors are exactly the 8 newest.
        assert!(spans.iter().all(|r| r.span_id > 12), "{spans:?}");
        let (recorded, _, dropped) = rec.stats();
        assert_eq!(recorded, 20);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn concurrent_writers_and_readers_stay_consistent() {
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity(128));
        rec.set_sample_every(1);
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        rec.record(ok_span(u128::from(w + 1), i + 1));
                    }
                })
            })
            .collect();
        let reader = {
            let rec = std::sync::Arc::clone(&rec);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    for r in rec.iter_records() {
                        assert!(r.span_id >= 1 && r.span_id <= 2_000, "torn record");
                        assert!(r.trace_id >= 1 && r.trace_id <= 4);
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        let (recorded, sampled_out, dropped) = rec.stats();
        assert_eq!(recorded + dropped, 8_000);
        assert_eq!(sampled_out, 0);
        assert_eq!(rec.iter_records().len(), 128);
    }

    #[test]
    fn span_json_shape_and_escaping() {
        let span = SpanRecord {
            trace_id: 0xabc,
            span_id: 0x12,
            parent_id: 0,
            name: "gateway.request",
            service: "gateway",
            start_unix_ns: 1_000,
            duration_ns: 2_000,
            status: SpanStatus::Shed,
            flags: 0,
            annotations: vec![("backend", "127.0.0.1:9\"000".to_string())],
        };
        let json = span.to_json();
        assert!(json.contains("\"trace_id\":\"00000000000000000000000000000abc\""));
        assert!(json.contains("\"span_id\":\"0000000000000012\""));
        assert!(json.contains("\"parent_id\":\"0000000000000000\""));
        assert!(json.contains("\"status\":\"shed\""));
        assert!(json.contains(r#""backend":"127.0.0.1:9\"000""#), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let doc = render_trace_json(0xabc, &[json.clone(), json]);
        assert!(doc.starts_with("{\"trace_id\":\"00000000000000000000000000000abc\",\"spans\":["));
        assert_eq!(doc.matches("gateway.request").count(), 2);
    }

    #[test]
    fn recent_summaries_group_by_trace_newest_first() {
        let mut old_root = ok_span(1, 1);
        old_root.start_unix_ns = 100;
        old_root.duration_ns = 50;
        let mut old_child = ok_span(1, 2);
        old_child.parent_id = 1;
        old_child.start_unix_ns = 110;
        let mut new_root = ok_span(2, 3);
        new_root.start_unix_ns = 900;
        new_root.status = SpanStatus::Error;
        let json = render_recent_json(&[old_root, old_child, new_root], 10);
        let first = json.find("00000000000000000000000000000002").unwrap();
        let second = json.find("00000000000000000000000000000001").unwrap();
        assert!(first < second, "newest trace must lead: {json}");
        assert!(json.contains("\"spans\":2"), "{json}");
        assert!(json.contains("\"status\":\"error\""), "{json}");
    }
}
