//! The cluster gateway: one event-driven front process that
//! consistent-hash-routes `(workload, kind)` traffic across N lam-serve
//! backends, splits multi-row `/predict` bodies across the key's
//! replica set, re-merges responses preserving row order, health-checks
//! backends with failure-count ejection, and sheds `503` + `retry-after`
//! when no replica is live.
//!
//! ```text
//!                ┌─────────────────────────────┐
//!   clients ────▶│ gateway (epoll reactor +    │     /healthz probes
//!                │ handler pool, this module)  │──────────┐
//!                └──────┬──────────────────────┘          │
//!                       │ consistent hash on             ▼
//!                       │ (workload, kind)      ┌────────────────┐
//!            ┌──────────┼──────────┐            │ health ejector │
//!            ▼          ▼          ▼            └────────────────┘
//!        lam-serve  lam-serve  lam-serve
//!          :9001      :9002      :9003   ←— peers replicate .lamb
//!                                            artifacts on cold miss
//! ```
//!
//! The gateway reuses the serve stack end to end: the same epoll
//! reactor and bounded dispatch queue face the clients
//! ([`crate::http::start_engine`]); upstream requests ride non-blocking
//! keep-alive connections multiplexed on a per-handler-thread epoll
//! instance, so a scatter across R replicas overlaps its upstream I/O
//! instead of paying R round trips in sequence. A leg asks for
//! writability only while request bytes remain unwritten, so a thread
//! waiting on its backends sleeps instead of spinning.
//!
//! **Routing.** A [`HashRing`] with virtual nodes maps every
//! `(workload, kind)` to a preference permutation of all backends (see
//! [`crate::route`]). The serving set of a key is the first `replicas`
//! *healthy* entries of that permutation — ejecting a dead backend is
//! just skipping it, which leaves every other key's routing untouched.
//! The gateway never parses a float: a structural byte scan finds the
//! routing fields and each row's byte span, a multi-row `/predict`
//! splits by byte range (each sub-body is the client's body with only
//! the `rows` array cut down), and the answers merge by concatenating
//! their `predictions` arrays.
//!
//! **Failover without client errors.** An upstream failure on a
//! *reused* keep-alive connection is retried once against the same
//! backend on a fresh connection (a stale pooled connection is not
//! evidence the backend is down); a fresh-connection failure bumps the
//! backend's consecutive-failure count (ejecting it at the threshold)
//! and fails over to the next healthy candidate. Every upstream request
//! — scatter leg, passthrough `/predict`, `/tune`, proxied GET — runs
//! through the same flight machinery, so this contract has one
//! implementation. `/predict` and `/tune` are idempotent, so retries are
//! safe by construction.
//!
//! **Replication.** Backends started `--peers`-aware extend registry
//! resolution with a peer-fetch step (memo → disk → peer → train): a
//! cold backend pulls the binary `.lamb` artifact from a sibling via
//! `GET /models/{workload}/{kind}/artifact` instead of re-training it.
//! The endpoint never trains, so exactly one process ever pays the
//! training cost for a key.

use crate::http::{
    account_request, endpoint_index, error_body, query_param, start_engine, ServeConfig,
    JSON_CONTENT_TYPE, LAMB_CONTENT_TYPE, RECENT_TRACES_LIMIT,
};
use crate::proto::{
    encode_request, encode_request_traced, ParsedRequest, ParsedResponse, ResponseParser,
    ResponseStep,
};
use crate::reactor::Job;
use crate::registry::ModelKey;
use crate::route::HashRing;
use crate::ServeError;
use epoll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use lam_obs::expose::PROMETHEUS_CONTENT_TYPE;
use lam_obs::recorder::SpanStatus;
use lam_obs::trace::TraceContext;
use lam_obs::{Counter, Gauge, Histogram, SpanRecord};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gateway configuration: the serve-engine knobs plus routing,
/// replication, and health-checking.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Reactor/queue knobs for the client-facing side (bind address,
    /// handler threads, body cap, shedding).
    pub serve: ServeConfig,
    /// Backend addresses (`host:port`), the ring's identity set.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// Replicas serving each key: multi-row `/predict` bodies scatter
    /// across this many healthy backends (1 = pure sharding).
    pub replicas: usize,
    /// How often the health thread probes each backend's `/healthz`.
    pub probe_interval: Duration,
    /// Consecutive failures (probe or traffic) that eject a backend.
    pub fail_threshold: u32,
    /// Consecutive probe successes that restore an ejected backend.
    pub recover_threshold: u32,
    /// Per-exchange upstream deadline for `/predict` and proxied GETs.
    pub upstream_timeout: Duration,
    /// Upstream deadline for `/tune` (oracle evaluations run upstream,
    /// so this is minutes, not milliseconds).
    pub tune_timeout: Duration,
}

impl GatewayConfig {
    /// Defaults for a local cluster over `backends`.
    pub fn new(backends: Vec<String>) -> Self {
        Self {
            serve: ServeConfig::default(),
            backends,
            vnodes: 64,
            replicas: 1,
            probe_interval: Duration::from_millis(500),
            fail_threshold: 3,
            recover_threshold: 2,
            upstream_timeout: Duration::from_secs(10),
            tune_timeout: Duration::from_secs(120),
        }
    }
}

/// One backend's live state: health flag, consecutive-outcome counters,
/// and pre-interned per-backend metrics.
pub struct BackendState {
    /// The backend's `host:port` (the ring identity and metric label).
    pub addr: String,
    healthy: AtomicBool,
    consecutive_fails: AtomicU32,
    consecutive_oks: AtomicU32,
    /// `lam_gateway_upstream_requests_total{backend,status}` by status
    /// class, indexed 2xx/4xx/5xx/err.
    requests: [Arc<Counter>; 4],
    healthy_gauge: Arc<Gauge>,
}

/// Index into [`BackendState::requests`] for an upstream HTTP status.
fn upstream_class(status: u16) -> usize {
    match status {
        0..=399 => 0,
        400..=499 => 1,
        _ => 2,
    }
}

/// Index into [`BackendState::requests`] for a connection-level failure
/// (no HTTP status ever arrived).
const UPSTREAM_ERR: usize = 3;

impl BackendState {
    fn new(addr: String) -> Self {
        let reg = lam_obs::global();
        let counter = |class: &str| {
            reg.counter(
                "lam_gateway_upstream_requests_total",
                "Upstream requests sent by the gateway, by backend and status class.",
                &[("backend", &addr), ("status", class)],
            )
        };
        let healthy_gauge = reg.gauge(
            "lam_gateway_backend_healthy",
            "1 while the gateway considers the backend live, else 0.",
            &[("backend", &addr)],
        );
        healthy_gauge.set(1);
        let requests = [
            counter("2xx"),
            counter("4xx"),
            counter("5xx"),
            counter("err"),
        ];
        Self {
            addr,
            healthy: AtomicBool::new(true),
            consecutive_fails: AtomicU32::new(0),
            consecutive_oks: AtomicU32::new(0),
            requests,
            healthy_gauge,
        }
    }

    /// Is the backend currently in the serving rotation?
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    fn record_response(&self, status: u16) {
        self.requests[upstream_class(status)].inc();
        self.consecutive_fails.store(0, Ordering::SeqCst);
    }

    /// A connection-level failure on a *fresh* connection: count it, and
    /// eject at the threshold. (Reused-connection failures retry
    /// silently — a stale keep-alive socket says nothing about health.)
    fn record_failure(&self, fail_threshold: u32) {
        self.requests[UPSTREAM_ERR].inc();
        self.consecutive_oks.store(0, Ordering::SeqCst);
        let fails = self.consecutive_fails.fetch_add(1, Ordering::SeqCst) + 1;
        if fails >= fail_threshold && self.healthy.swap(false, Ordering::SeqCst) {
            self.healthy_gauge.set(0);
        }
    }

    /// A probe success: restore an ejected backend after enough in a row.
    fn record_probe_success(&self, recover_threshold: u32) {
        self.consecutive_fails.store(0, Ordering::SeqCst);
        let oks = self.consecutive_oks.fetch_add(1, Ordering::SeqCst) + 1;
        if !self.is_healthy()
            && oks >= recover_threshold
            && !self.healthy.swap(true, Ordering::SeqCst)
        {
            self.healthy_gauge.set(1);
        }
    }
}

/// Shared routing + health state of the gateway: the ring, every
/// backend's state, and the fan-out histogram.
pub struct ClusterState {
    /// Per-backend state, indexed as the ring indexes them.
    pub backends: Vec<BackendState>,
    /// The consistent-hash ring over `backends`.
    pub ring: HashRing,
    replicas: usize,
    fail_threshold: u32,
    recover_threshold: u32,
    fanout: Arc<Histogram>,
}

impl ClusterState {
    fn new(cfg: &GatewayConfig) -> Self {
        Self {
            backends: cfg
                .backends
                .iter()
                .cloned()
                .map(BackendState::new)
                .collect(),
            ring: HashRing::new(&cfg.backends, cfg.vnodes),
            replicas: cfg.replicas.max(1),
            fail_threshold: cfg.fail_threshold.max(1),
            recover_threshold: cfg.recover_threshold.max(1),
            fanout: lam_obs::global().histogram(
                "lam_gateway_fanout_size",
                "Upstream subrequests one client /predict fanned out into.",
                &[],
            ),
        }
    }

    /// Backends currently in the serving rotation.
    pub fn healthy_count(&self) -> usize {
        self.backends.iter().filter(|b| b.is_healthy()).count()
    }

    /// The key's healthy candidates, in ring preference order (failover
    /// walks this list).
    fn healthy_candidates(&self, workload: &str, kind: &str) -> Vec<usize> {
        self.ring
            .candidates(workload, kind)
            .into_iter()
            .filter(|&i| self.backends[i].is_healthy())
            .collect()
    }
}

/// Handle of a running gateway: the client-facing server plus the
/// health-probe thread.
pub struct GatewayHandle {
    server: crate::http::ServerHandle,
    probe_stop: Arc<AtomicBool>,
    probe: JoinHandle<()>,
    /// The routing/health state, shared for inspection (tests, CLIs).
    pub cluster: Arc<ClusterState>,
}

impl GatewayHandle {
    /// The gateway's bound client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Graceful shutdown of the server and the probe thread.
    pub fn stop(self) {
        self.probe_stop.store(true, Ordering::SeqCst);
        let _ = self.probe.join();
        self.server.stop();
    }
}

/// Start the gateway. Returns once the client-facing listener is bound;
/// routing, health probing, and upstream I/O happen on the engine's
/// threads.
pub fn start_gateway(cfg: GatewayConfig) -> Result<GatewayHandle, ServeError> {
    if cfg.backends.is_empty() {
        return Err(ServeError::Http(
            "gateway needs at least one --backend".to_string(),
        ));
    }
    // Span records from this process must be attributable to the gateway
    // when a trace is assembled across the cluster.
    lam_obs::recorder::set_service("gateway");
    let ctx = Arc::new(GatewayCtx::new(&cfg));
    let cluster = Arc::clone(&ctx.cluster);
    let server = start_engine(
        &cfg.serve,
        None,
        Arc::new(move |job| handle_gateway_job(job, &ctx)),
    )?;
    let probe_stop = Arc::new(AtomicBool::new(false));
    let probe = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&probe_stop);
        let interval = cfg.probe_interval.max(Duration::from_millis(10));
        std::thread::spawn(move || probe_loop(&cluster, &stop, interval))
    };
    Ok(GatewayHandle {
        server,
        probe_stop,
        probe,
        cluster,
    })
}

/// The health thread: probe every backend's `/healthz` each interval,
/// sleeping in small slices so shutdown is prompt.
fn probe_loop(cluster: &ClusterState, stop: &AtomicBool, interval: Duration) {
    const PROBE_TIMEOUT: Duration = Duration::from_secs(2);
    while !stop.load(Ordering::SeqCst) {
        for backend in &cluster.backends {
            match blocking_get(&backend.addr, "/healthz", PROBE_TIMEOUT, 1 << 20) {
                Ok(resp) if resp.status == 200 => {
                    backend.record_probe_success(cluster.recover_threshold)
                }
                _ => backend.record_failure(cluster.fail_threshold),
            }
        }
        let mut slept = Duration::ZERO;
        while slept < interval && !stop.load(Ordering::SeqCst) {
            let slice = (interval - slept).min(Duration::from_millis(25));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// Everything a gateway handler thread needs for one request.
struct GatewayCtx {
    cluster: Arc<ClusterState>,
    retry_after_secs: u32,
    upstream_timeout: Duration,
    tune_timeout: Duration,
    max_upstream_body: usize,
}

impl GatewayCtx {
    fn new(cfg: &GatewayConfig) -> Self {
        Self {
            cluster: Arc::new(ClusterState::new(cfg)),
            retry_after_secs: cfg.serve.retry_after_secs,
            upstream_timeout: cfg.upstream_timeout,
            tune_timeout: cfg.tune_timeout,
            max_upstream_body: cfg.serve.opts.max_body.max(1 << 20),
        }
    }
}

/// A fully-formed gateway response (status, content type, body bytes,
/// optional `retry-after`).
type GatewayResponse = (u16, &'static str, Vec<u8>, Option<u32>);

/// Map an upstream's content type onto our static label set (responder
/// completions carry `&'static str`).
fn static_content_type(ct: &str) -> &'static str {
    if ct.starts_with(PROMETHEUS_CONTENT_TYPE) {
        PROMETHEUS_CONTENT_TYPE
    } else if ct.starts_with(LAMB_CONTENT_TYPE) {
        LAMB_CONTENT_TYPE
    } else {
        JSON_CONTENT_TYPE
    }
}

/// Serve one dispatched client request on a gateway handler thread.
fn handle_gateway_job(job: Job, ctx: &GatewayCtx) {
    let Job {
        req,
        responder,
        hint,
    } = job;
    drop(hint); // the gateway schedules no rows
    let started = lam_obs::enabled().then(Instant::now);
    let endpoint = endpoint_index(&req.method, &req.path);
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    let mut trace = GatewayTrace::begin(&req, path);
    let (status, content_type, body, retry_after) = match (req.method.as_str(), path) {
        ("POST", "/predict") => gateway_predict(&req.body, ctx, trace.as_mut()),
        ("POST", "/tune") => gateway_tune(&req.body, ctx, trace.as_ref().map(|t| t.ctx)),
        ("GET", "/healthz") => gateway_healthz(ctx),
        ("GET", "/metrics") => {
            let snap = lam_obs::global()
                .snapshot()
                .retain_prefix(query_param(query, "prefix"));
            let text = lam_obs::expose::render_prometheus(&snap);
            (200, PROMETHEUS_CONTENT_TYPE, text.into_bytes(), None)
        }
        ("GET", "/metrics.json") => {
            let snap = lam_obs::global()
                .snapshot()
                .retain_prefix(query_param(query, "prefix"));
            let text = lam_obs::expose::render_json(&snap);
            (200, JSON_CONTENT_TYPE, text.into_bytes(), None)
        }
        ("GET", "/metrics/history") => {
            let text = lam_obs::history::global().render_json();
            (200, JSON_CONTENT_TYPE, text.into_bytes(), None)
        }
        ("GET", "/traces") => {
            let records = lam_obs::recorder::global().iter_records();
            let text = lam_obs::recorder::render_recent_json(&records, RECENT_TRACES_LIMIT);
            (200, JSON_CONTENT_TYPE, text.into_bytes(), None)
        }
        ("GET", p) if p.starts_with("/traces/") => {
            gateway_trace_detail(&p["/traces/".len()..], ctx)
        }
        ("GET", p)
            if p == "/models"
                || p == "/workloads"
                || p.starts_with("/workloads/")
                || crate::http::parse_artifact_path(p).is_some() =>
        {
            // Forward the original path: artifact GETs carry `?version=`.
            gateway_proxy_get(&req.path, ctx)
        }
        ("GET", "/predict") => bad(405, "use POST for /predict"),
        ("GET", "/tune") => bad(405, "use POST for /tune"),
        _ => bad(404, &format!("no route for {} {}", req.method, req.path)),
    };
    if let Some(t) = trace {
        t.finish(status);
    }
    account_request(endpoint, status, started);
    responder.send_bytes(status, content_type, body, retry_after);
}

/// Map an HTTP status onto the span outcome recorded for it.
fn span_status(status_code: u16) -> SpanStatus {
    match status_code {
        503 => SpanStatus::Shed,
        s if s >= 400 => SpanStatus::Error,
        _ => SpanStatus::Ok,
    }
}

/// The `gateway.request` root span of one traced client request.
/// Only `/predict` and `/tune` are traced: probe and scrape endpoints
/// would drown the flight recorder in uninteresting spans.
struct GatewayTrace {
    ctx: TraceContext,
    parent_id: u64,
    started: Instant,
    annotations: Vec<(&'static str, String)>,
}

impl GatewayTrace {
    fn begin(req: &ParsedRequest, path: &str) -> Option<Self> {
        if !lam_obs::enabled() || req.method != "POST" || !matches!(path, "/predict" | "/tune") {
            return None;
        }
        let (ctx, parent_id) = match req.trace.as_deref().and_then(TraceContext::parse) {
            Some(parent) => (parent.child(0), parent.span_id),
            None => (TraceContext::root(), 0),
        };
        Some(Self {
            ctx,
            parent_id,
            started: Instant::now(),
            annotations: Vec::new(),
        })
    }

    fn annotate(&mut self, key: &'static str, value: impl Into<String>) {
        self.annotations.push((key, value.into()));
    }

    fn finish(self, status_code: u16) {
        let mut record = SpanRecord::finish(
            &self.ctx,
            self.parent_id,
            "gateway.request",
            self.started,
            span_status(status_code),
        )
        .annotate("http_status", status_code.to_string());
        for (key, value) in self.annotations {
            record = record.annotate(key, value);
        }
        lam_obs::recorder::global().record(record);
    }
}

/// `GET /traces/{id}` on the gateway: merge this process's retained
/// spans for the trace with every backend's (fetched over HTTP), dedup
/// by span id (an in-process test cluster shares one recorder), order
/// by start time, and render the combined tree.
fn gateway_trace_detail(segment: &str, ctx: &GatewayCtx) -> GatewayResponse {
    let Some(trace_id) = lam_obs::trace::parse_trace_id(segment) else {
        return bad(400, "trace id must be 32 hex digits");
    };
    // (span_id, start_unix_ns, rendered span object)
    let mut spans: Vec<(u64, u64, String)> = lam_obs::recorder::global()
        .find_trace(trace_id)
        .into_iter()
        .map(|r| (r.span_id, r.start_unix_ns, r.to_json()))
        .collect();
    let path = format!("/traces/{segment}");
    for backend in &ctx.cluster.backends {
        let Ok(resp) = blocking_get(&backend.addr, &path, TRACE_FETCH_TIMEOUT, 1 << 20) else {
            continue; // a dead backend simply contributes no spans
        };
        if resp.status != 200 {
            continue; // 404 means the backend retained nothing for this id
        }
        let Ok(text) = std::str::from_utf8(&resp.body) else {
            continue;
        };
        let Ok(doc) = serde_json::from_str::<serde::Value>(text) else {
            continue;
        };
        let Some(items) = doc.get("spans").and_then(|s| s.as_array()) else {
            continue;
        };
        for item in items {
            let Some(span_id) = item
                .get("span_id")
                .and_then(|v| v.as_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok())
            else {
                continue;
            };
            let start = match item.get("start_unix_ns") {
                Some(serde::Value::Number(n)) => n.as_u64().unwrap_or(0),
                _ => 0,
            };
            let Ok(json) = serde_json::to_string(item) else {
                continue;
            };
            spans.push((span_id, start, json));
        }
    }
    if spans.is_empty() {
        return bad(404, &format!("no retained spans for trace {segment}"));
    }
    spans.sort_by_key(|s| (s.1, s.0));
    spans.dedup_by_key(|s| s.0);
    let jsons: Vec<String> = spans.into_iter().map(|s| s.2).collect();
    let body = lam_obs::recorder::render_trace_json(trace_id, &jsons);
    (200, JSON_CONTENT_TYPE, body.into_bytes(), None)
}

/// How long the gateway waits on each backend while assembling a
/// cross-process trace. Trace inspection is a debugging path; it should
/// fail towards partial trees, not hang the handler thread.
const TRACE_FETCH_TIMEOUT: Duration = Duration::from_secs(2);

fn bad(status: u16, msg: &str) -> GatewayResponse {
    (
        status,
        JSON_CONTENT_TYPE,
        error_body(msg).into_bytes(),
        None,
    )
}

/// `/healthz` response of the gateway itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatewayHealthResponse {
    /// `ok` while at least one backend is live, else `degraded`.
    pub status: String,
    /// Crate version of the gateway binary.
    pub version: String,
    /// Build profile (`debug` or `release`).
    pub profile: String,
    /// Configured backend count.
    pub backends: usize,
    /// Backends currently in the serving rotation.
    pub backends_healthy: usize,
    /// Per-backend liveness, in ring order.
    pub backend_status: Vec<GatewayBackendStatus>,
}

/// One backend's row in [`GatewayHealthResponse`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatewayBackendStatus {
    /// The backend's address.
    pub addr: String,
    /// Its current liveness.
    pub healthy: bool,
}

fn gateway_healthz(ctx: &GatewayCtx) -> GatewayResponse {
    let healthy = ctx.cluster.healthy_count();
    let resp = GatewayHealthResponse {
        status: if healthy > 0 { "ok" } else { "degraded" }.to_string(),
        version: crate::http::BUILD_VERSION.to_string(),
        profile: crate::http::BUILD_PROFILE.to_string(),
        backends: ctx.cluster.backends.len(),
        backends_healthy: healthy,
        backend_status: ctx
            .cluster
            .backends
            .iter()
            .map(|b| GatewayBackendStatus {
                addr: b.addr.clone(),
                healthy: b.is_healthy(),
            })
            .collect(),
    };
    match serde_json::to_string(&resp) {
        Ok(body) => (200, JSON_CONTENT_TYPE, body.into_bytes(), None),
        Err(e) => bad(500, &e.to_string()),
    }
}

/// Shed response when a key has no live replica.
fn all_replicas_down(ctx: &GatewayCtx) -> GatewayResponse {
    (
        503,
        JSON_CONTENT_TYPE,
        error_body("no live backend replica for this key").into_bytes(),
        Some(ctx.retry_after_secs),
    )
}

/// `/predict` through the gateway.
///
/// One structural byte scan ([`scan_body`]) finds the routing fields and
/// the byte span of every row; the gateway never parses a float. With
/// one serving backend or fewer than two rows the body forwards
/// verbatim. With replication, [`scatter_predict`] splits the rows by
/// byte range across the replica set and merges the answers by
/// concatenation. A body the scan cannot read forwards whole as well, to
/// the first healthy backend, which answers it with the canonical 4xx.
fn gateway_predict(
    body: &[u8],
    ctx: &GatewayCtx,
    trace: Option<&mut GatewayTrace>,
) -> GatewayResponse {
    let scan = scan_body(body, ctx.cluster.replicas > 1);
    let key = scan.as_ref().and_then(|s| Some((s.workload?, s.kind?)));
    let candidates = route_candidates(ctx, key);
    if candidates.is_empty() {
        return all_replicas_down(ctx);
    }
    // Rows are walked only when there is more than one backend to split
    // them across.
    let serving = ctx.cluster.replicas.min(candidates.len());
    let array = scan
        .and_then(|s| s.rows)
        .filter(|_| key.is_some() && serving > 1);
    let rows = array.clone().and_then(|a| array_elements(body, a));
    let shards = rows.as_ref().map_or(1, |r| r.len().clamp(1, serving));
    if key.is_some() {
        ctx.cluster.fanout.record(shards as u64);
    }
    let tctx = trace.map(|t| {
        if let Some(rows) = &rows {
            t.annotate("rows", rows.len().to_string());
        }
        t.annotate("shards", shards.to_string());
        t.ctx
    });
    match (array, rows) {
        (Some(array), Some(rows)) if shards > 1 => {
            let serving = &candidates[..shards];
            scatter_predict(body, array, &rows, serving, &candidates, ctx, tctx)
        }
        _ => forward_with_failover(ctx, &candidates, "POST", "/predict", body, tctx),
    }
}

/// `/tune` through the gateway: routed whole (budgets are not
/// splittable), with the kind defaulting to `hybrid` exactly as the
/// backend would default it.
fn gateway_tune(body: &[u8], ctx: &GatewayCtx, trace: Option<TraceContext>) -> GatewayResponse {
    let scan = scan_body(body, false);
    let key = scan.and_then(|s| Some((s.workload?, s.kind.unwrap_or("hybrid"))));
    forward_with_failover(
        ctx,
        &route_candidates(ctx, key),
        "POST",
        "/tune",
        body,
        trace,
    )
}

/// Proxy a GET (catalog, workloads, artifact) to a healthy backend.
/// Artifact paths route by their embedded key so the request lands on
/// the shard most likely to have the artifact; the rest go to the first
/// healthy backend (every backend can answer them).
fn gateway_proxy_get(path: &str, ctx: &GatewayCtx) -> GatewayResponse {
    let key = crate::http::parse_artifact_path(path).map(|(workload, kind, _)| (workload, kind));
    forward_with_failover(ctx, &route_candidates(ctx, key), "GET", path, &[], None)
}

/// Where a request goes: the key's healthy candidates in ring
/// preference order (failover walks this list), or every healthy backend
/// in index order for a keyless request. Empty when nothing is live.
fn route_candidates(ctx: &GatewayCtx, key: Option<(&str, &str)>) -> Vec<usize> {
    match key {
        Some((workload, kind)) => ctx.cluster.healthy_candidates(workload, kind),
        None => (0..ctx.cluster.backends.len())
            .filter(|&i| ctx.cluster.backends[i].is_healthy())
            .collect(),
    }
}

/// Send one request to the first candidate that answers, walking the
/// preference list on connection-level failures; `503` when none does.
/// An HTTP response — any status — ends the walk: statuses are
/// deterministic answers (400) or explicit backpressure (503 +
/// retry-after) that failover must not amplify into duplicated work.
/// `/tune` attempts wait up to the tune deadline, the rest up to the
/// upstream deadline.
///
/// With a trace context, each attempt gets its own `gateway.shard`
/// child span (sequence = attempt index) whose header rides to the
/// backend, so failover attempts are distinguishable in the tree.
fn forward_with_failover(
    ctx: &GatewayCtx,
    candidates: &[usize],
    method: &str,
    path: &str,
    body: &[u8],
    trace: Option<TraceContext>,
) -> GatewayResponse {
    let timeout = match path {
        "/tune" => ctx.tune_timeout,
        _ => ctx.upstream_timeout,
    };
    for (attempt, &idx) in candidates.iter().enumerate() {
        let header = trace.map(|t| t.child(attempt as u64).header_value());
        let addr = &ctx.cluster.backends[idx].addr;
        let request = encode_request_traced(method, path, addr, body, header.as_deref());
        let leg = exchange_one(ctx, idx, request, timeout);
        if let Some(root) = &trace {
            lam_obs::recorder::global().record(leg_span(root, attempt, &leg, ctx));
        }
        if let Ok(resp) = leg.result {
            let content_type = static_content_type(&resp.content_type);
            return (resp.status, content_type, resp.body, None);
        }
    }
    all_replicas_down(ctx)
}

/// The `gateway.shard` span of one upstream leg under `root`, timed from
/// the leg's send to its response (or to the moment it gave up).
fn leg_span(root: &TraceContext, seq: usize, leg: &Flight, ctx: &GatewayCtx) -> SpanRecord {
    let status = match &leg.result {
        Ok(resp) => span_status(resp.status),
        Err(_) => SpanStatus::Error,
    };
    let (span, parent) = (root.child(seq as u64), root.span_id);
    let record = SpanRecord::between(&span, parent, "gateway.shard", leg.sent, leg.done, status);
    record.annotate("backend", ctx.cluster.backends[leg.backend].addr.clone())
}

/// Scatter a multi-row `/predict` across `serving` and merge the answers.
///
/// **Split by byte range.** Chunk `s` is a contiguous run of rows, sizes
/// differing by at most one. Its sub-body is the client's body with the
/// `rows` array replaced by `[` + the run's bytes + `]`, so `workload`,
/// `kind`, `version` and any other field reach the backend verbatim.
///
/// **Merge by concatenation.** The chunks' `predictions` array texts
/// join in chunk order, which *is* the client's row order, and their
/// `cache_hits` add up. The merged body has exactly the field order and
/// number format a backend writes; backends write shortest-round-trip
/// floats, so the bytes equal those of a parse and re-encode.
///
/// A failed chunk fails over with the same sub-body to the key's
/// remaining healthy candidates before the request is given up on.
fn scatter_predict(
    body: &[u8],
    array: Range<usize>,
    rows: &[Range<usize>],
    serving: &[usize],
    candidates: &[usize],
    ctx: &GatewayCtx,
    trace: Option<TraceContext>,
) -> GatewayResponse {
    let start = Instant::now();
    let shards = serving.len();
    let (base, extra) = (rows.len() / shards, rows.len() % shards);
    // (first row, row count, sub-body) per chunk.
    let mut chunks: Vec<(usize, usize, Vec<u8>)> = Vec::with_capacity(shards);
    let mut first = 0;
    for s in 0..shards {
        let take = base + usize::from(s < extra);
        let run = rows[first].start..rows[first + take - 1].end;
        let mut sub = Vec::with_capacity(body.len() + 2);
        sub.extend_from_slice(&body[..array.start]);
        sub.push(b'[');
        sub.extend_from_slice(&body[run]);
        sub.push(b']');
        sub.extend_from_slice(&body[array.end..]);
        chunks.push((first, take, sub));
        first += take;
    }
    let request = |s: usize, idx: usize| {
        let header = trace.map(|t| t.child(s as u64).header_value());
        let addr = &ctx.cluster.backends[idx].addr;
        encode_request_traced("POST", "/predict", addr, &chunks[s].2, header.as_deref())
    };
    let subrequests = (0..shards).map(|s| (serving[s], request(s, serving[s])));
    let mut legs = exchange_parallel(ctx, subrequests.collect(), ctx.upstream_timeout);
    // Failover pass, sequential (this is the rare path). The retried leg
    // keeps its chunk's span id and send instant so the trace stays whole.
    for (s, leg) in legs.iter_mut().enumerate() {
        for &idx in candidates {
            if leg.result.is_ok() {
                break;
            }
            if idx != serving[s] && ctx.cluster.backends[idx].is_healthy() {
                let sent = leg.sent;
                *leg = exchange_one(ctx, idx, request(s, idx), ctx.upstream_timeout);
                leg.sent = sent;
            }
        }
    }
    // Spans are recorded before the merge so failed chunks still show up
    // (status error) in the trace.
    if let Some(root) = &trace {
        for (s, (leg, (first, take, _))) in legs.iter().zip(&chunks).enumerate() {
            let span = leg_span(root, s, leg, ctx).annotate("offset", first.to_string());
            lam_obs::recorder::global().record(span.annotate("rows", take.to_string()));
        }
    }
    // Any chunk still failed → 503; any upstream non-200 → forward it
    // (every chunk shares the request's validity, so the first error is
    // the request's error).
    let mut answers = Vec::with_capacity(shards);
    for leg in legs {
        match leg.result {
            Err(_) => return all_replicas_down(ctx),
            Ok(resp) if resp.status != 200 => {
                let content_type = static_content_type(&resp.content_type);
                return (resp.status, content_type, resp.body, None);
            }
            Ok(resp) => answers.push(resp.body),
        }
    }
    let mut merged = b"{\"model\":".to_vec();
    let mut cache_hits = 0u64;
    for (s, answer) in answers.iter().enumerate() {
        let Some((model, predictions, hits)) = scan_answer(answer) else {
            return bad(502, "backend predict body unparseable");
        };
        if s == 0 {
            merged.extend_from_slice(model);
            merged.extend_from_slice(b",\"predictions\":[");
        }
        if !predictions.is_empty() && merged.last() != Some(&b'[') {
            merged.push(b',');
        }
        merged.extend_from_slice(predictions);
        cache_hits += hits;
    }
    let micros = start.elapsed().as_micros();
    let _ = write!(
        merged,
        "],\"cache_hits\":{cache_hits},\"micros\":{micros}}}"
    );
    (200, JSON_CONTENT_TYPE, merged, None)
}

// ---------------------------------------------------------------------
// Structural byte scan of JSON bodies (routing, split, merge)
// ---------------------------------------------------------------------

/// What one byte scan of a `/predict` or `/tune` body found: the
/// routing fields (when they are plain strings) and the span of the
/// `rows` value. The first occurrence of a key counts, as in the
/// backend's parser; a later duplicate reaches the backend verbatim in
/// every sub-body.
struct BodyScan<'a> {
    workload: Option<&'a str>,
    kind: Option<&'a str>,
    rows: Option<Range<usize>>,
}

/// Scan a request body without parsing it, stopping once `workload`,
/// `kind` and (if `want_rows`) `rows` are found. `None` when the bytes
/// up to there are not a JSON object, or a key before there holds an
/// escape (the backend would unescape it to a name the scan cannot
/// compare).
fn scan_body(body: &[u8], want_rows: bool) -> Option<BodyScan<'_>> {
    let (mut workload, mut kind, mut rows) = (None, None, None);
    scan_members(body, |key, value| {
        let slot = match key {
            b"workload" => &mut workload,
            b"kind" => &mut kind,
            b"rows" => &mut rows,
            _ => return true,
        };
        slot.get_or_insert(value);
        workload.is_none() || kind.is_none() || (want_rows && rows.is_none())
    })?;
    // Names never contain escapes; unescaping is left to the backend.
    let plain_str = |span: Range<usize>| {
        let text = body[span].strip_prefix(b"\"")?.strip_suffix(b"\"")?;
        std::str::from_utf8(text).ok().filter(|t| !t.contains('\\'))
    };
    Some(BodyScan {
        workload: workload.and_then(plain_str),
        kind: kind.and_then(plain_str),
        rows,
    })
}

/// The pieces of a backend's `/predict` answer the merge needs: the
/// `model` string token, the text inside the `predictions` array, and
/// `cache_hits`.
fn scan_answer(body: &[u8]) -> Option<(&[u8], &[u8], u64)> {
    let (mut model, mut predictions, mut cache_hits) = (None, None, None);
    scan_members(body, |key, value| {
        let slot = match key {
            b"model" => &mut model,
            b"predictions" => &mut predictions,
            b"cache_hits" => &mut cache_hits,
            _ => return true,
        };
        slot.get_or_insert(&body[value]);
        model.is_none() || predictions.is_none() || cache_hits.is_none()
    })?;
    let model = model.filter(|m| m.starts_with(b"\""))?;
    let predictions = predictions?.strip_prefix(b"[")?.strip_suffix(b"]")?;
    let cache_hits = std::str::from_utf8(cache_hits?).ok()?.parse().ok()?;
    Some((model, predictions.trim_ascii(), cache_hits))
}

/// Index of the first non-whitespace byte at or after `i`.
fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

/// End (exclusive) of the JSON string whose opening quote is at `i`.
fn skip_string(b: &[u8], mut i: usize) -> Option<usize> {
    i += 1;
    loop {
        match b.get(i)? {
            b'"' => return Some(i + 1),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
}

/// End (exclusive) of the JSON value starting at `i`. Strings honour
/// escapes and brackets nest; everything else is taken as it comes. The
/// scan only finds boundaries: each byte of a value lands verbatim in
/// some sub-body, and the backend's parser judges it there.
fn skip_value(b: &[u8], mut i: usize) -> Option<usize> {
    let scalar = |c: &u8| c.is_ascii_alphanumeric() || matches!(c, b'+' | b'-' | b'.');
    if b.get(i).is_some_and(scalar) {
        while b.get(i).is_some_and(scalar) {
            i += 1;
        }
        return Some(i);
    }
    let mut depth = 0usize;
    loop {
        match b.get(i)? {
            b'"' => i = skip_string(b, i)?,
            b'[' | b'{' => (depth, i) = (depth + 1, i + 1),
            b']' | b'}' => (depth, i) = (depth.checked_sub(1)?, i + 1),
            _ if depth > 0 => i += 1,
            _ => return None,
        }
        if depth == 0 {
            return Some(i);
        }
    }
}

/// Walk the members of the one non-empty JSON object `b` holds
/// (surrounding whitespace allowed), calling `visit(key, value span)`
/// for each in order until it returns `false`. `None` when the bytes
/// walked are not such an object or a key holds an escape.
fn scan_members(b: &[u8], mut visit: impl FnMut(&[u8], Range<usize>) -> bool) -> Option<()> {
    let mut i = skip_ws(b, 0);
    (b.get(i) == Some(&b'{')).then_some(())?;
    loop {
        i = skip_ws(b, i + 1);
        (b.get(i) == Some(&b'"')).then_some(())?;
        let key_end = skip_string(b, i)?;
        let key = &b[i + 1..key_end - 1];
        i = skip_ws(b, key_end);
        (b.get(i) == Some(&b':') && !key.contains(&b'\\')).then_some(())?;
        let start = skip_ws(b, i + 1);
        let end = skip_value(b, start)?;
        if !visit(key, start..end) {
            return Some(());
        }
        i = skip_ws(b, end);
        match b.get(i)? {
            b',' => {}
            b'}' => return (skip_ws(b, i + 1) == b.len()).then_some(()),
            _ => return None,
        }
    }
}

/// Byte spans of the elements of the JSON array at `array` (brackets
/// included), with the separators between them checked. `None` when the
/// value is not an array or is malformed at its top level.
fn array_elements(b: &[u8], array: Range<usize>) -> Option<Vec<Range<usize>>> {
    let close = array.end - 1;
    (b[array.start] == b'[' && b[close] == b']').then_some(())?;
    let mut elements = Vec::new();
    let mut i = skip_ws(b, array.start + 1);
    if i == close {
        return Some(elements);
    }
    loop {
        let end = skip_value(b, i)?;
        elements.push(i..end);
        i = skip_ws(b, end);
        match b.get(i)? {
            b',' if i < close => i = skip_ws(b, i + 1),
            b']' if i == close => return Some(elements),
            _ => return None,
        }
    }
}

// ---------------------------------------------------------------------
// Upstream I/O: per-handler-thread keep-alive pool + epoll multiplexing
// ---------------------------------------------------------------------

thread_local! {
    /// Keep-alive upstream connections, pooled per backend address and
    /// per handler thread (no cross-thread locking on the hot path).
    /// Pooled sockets are non-blocking, as flights drive them.
    static UPSTREAM_POOL: RefCell<HashMap<String, VecDeque<TcpStream>>> =
        RefCell::new(HashMap::new());
    /// The handler thread's epoll instance for upstream flights, created
    /// once. Every exchange deregisters every fd it added before
    /// returning, so the set is empty between requests.
    static UPSTREAM_EPOLL: std::io::Result<Epoll> = Epoll::new();
}

/// Pooled keep-alive connections retained per backend per thread.
const POOL_PER_BACKEND: usize = 4;

fn pool_take(addr: &str) -> Option<TcpStream> {
    UPSTREAM_POOL.with(|p| p.borrow_mut().get_mut(addr)?.pop_front())
}

fn pool_put(addr: &str, stream: TcpStream) {
    UPSTREAM_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let slot = pool.entry(addr.to_string()).or_default();
        if slot.len() < POOL_PER_BACKEND {
            slot.push_back(stream);
        }
    });
}

const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(ErrorKind::NotFound, "address resolves to nothing"))?;
    let stream = TcpStream::connect_timeout(&resolved, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn connect_nonblocking(addr: &str) -> std::io::Result<TcpStream> {
    connect(addr).and_then(|stream| stream.set_nonblocking(true).map(|()| stream))
}

/// One upstream request/response: a one-flight [`exchange_parallel`],
/// so single requests (passthrough `/predict`, `/tune`, proxied GETs)
/// share the scatter's retry contract.
fn exchange_one(ctx: &GatewayCtx, idx: usize, request: Vec<u8>, timeout: Duration) -> Flight {
    let mut legs = exchange_parallel(ctx, vec![(idx, request)], timeout);
    legs.pop().expect("one leg per subrequest")
}

/// One upstream request: while `stream` is `Some` it is in flight, with
/// the socket registered for `interest` on the thread's epoll instance
/// (0 = not registered); `reused` while it rides a pooled connection
/// that has not failed yet. Once resolved, `result` holds the outcome,
/// `backend` the backend it ended on, and `sent`/`done` the send and
/// response-complete (or give-up) instants.
struct Flight {
    backend: usize,
    stream: Option<TcpStream>,
    interest: u32,
    reused: bool,
    request: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    parser: ResponseParser,
    sent: Instant,
    done: Instant,
    result: Result<ParsedResponse, String>,
}

/// Send each `(backend, request)` concurrently over non-blocking
/// keep-alive connections multiplexed on the thread's epoll instance,
/// under one retry contract: a failure on a *reused* pooled connection
/// retries once on a fresh one without recording a failure (a stale
/// keep-alive socket is not failure evidence); a fresh-connection
/// failure records one. Resolved flights come back indexed like
/// `subrequests`.
fn exchange_parallel(
    ctx: &GatewayCtx,
    subrequests: Vec<(usize, Vec<u8>)>,
    timeout: Duration,
) -> Vec<Flight> {
    let now = Instant::now();
    let mut flights: Vec<Flight> = subrequests
        .into_iter()
        .map(|(backend, request)| Flight {
            backend,
            stream: None,
            interest: 0,
            reused: false,
            request,
            written: 0,
            inbuf: Vec::new(),
            parser: ResponseParser::new(ctx.max_upstream_body),
            sent: now,
            done: now,
            result: Err(String::new()),
        })
        .collect();
    UPSTREAM_EPOLL.with(|epoll| match epoll {
        Ok(epoll) => run_flights(&mut flights, epoll, ctx, now + timeout),
        Err(e) => flights
            .iter_mut()
            .for_each(|f| f.result = Err(format!("epoll: {e}"))),
    });
    flights
}

/// Launch every flight and drive them to resolution or `deadline`.
/// Flights still open at the deadline are deregistered and fail.
fn run_flights(flights: &mut [Flight], epoll: &Epoll, ctx: &GatewayCtx, deadline: Instant) {
    for (token, flight) in flights.iter_mut().enumerate() {
        let addr = &ctx.cluster.backends[flight.backend].addr;
        let pooled = pool_take(addr);
        flight.reused = pooled.is_some();
        match pooled.map_or_else(|| connect_nonblocking(addr), Ok) {
            Ok(stream) => launch(flight, stream, token as u64, epoll, ctx),
            Err(e) => fail(flight, format!("connect {addr}: {e}"), ctx),
        }
    }
    let mut events = [EpollEvent::zeroed(); 16];
    while flights.iter().any(|f| f.stream.is_some()) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        let n_ev = epoll.wait(&mut events, Some(left));
        for ev in &events[..n_ev] {
            let token = ev.token();
            if let Some(flight) = flights.get_mut(token as usize) {
                if flight.stream.is_some() {
                    drive_flight(flight, token, ev.events(), epoll, ctx);
                }
            }
        }
    }
    for flight in flights.iter_mut().filter(|f| f.stream.is_some()) {
        release(flight, epoll);
        fail(flight, "upstream response timed out".to_string(), ctx);
    }
}

/// Start (or restart) `flight` on `stream`. The request is written
/// eagerly: it usually fits the socket buffer at once, and then the
/// socket registers for reads only.
fn launch(flight: &mut Flight, stream: TcpStream, token: u64, epoll: &Epoll, ctx: &GatewayCtx) {
    flight.stream = Some(stream);
    flight.written = 0;
    flight.inbuf.clear();
    flight.parser = ResponseParser::new(ctx.max_upstream_body);
    drive_flight(flight, token, 0, epoll, ctx);
}

/// Resolve `flight` as failed, counting the failure against its backend.
fn fail(flight: &mut Flight, msg: String, ctx: &GatewayCtx) {
    ctx.cluster.backends[flight.backend].record_failure(ctx.cluster.fail_threshold);
    flight.done = Instant::now();
    flight.result = Err(msg);
}

/// Deregister the flight's socket and take it.
fn release(flight: &mut Flight, epoll: &Epoll) -> Option<TcpStream> {
    let stream = flight.stream.take()?;
    if flight.interest != 0 {
        let _ = epoll.delete(stream.as_raw_fd());
        flight.interest = 0;
    }
    Some(stream)
}

/// Keep the socket's registration in step with the flight: write
/// interest only while request bytes remain unwritten, read interest
/// always. (A level-triggered `EPOLLOUT` on a flushed socket fires on
/// every wait, which would spin the thread until the backend answers.)
fn sync_interest(flight: &mut Flight, token: u64, epoll: &Epoll) -> Result<(), String> {
    let unwritten = flight.written < flight.request.len();
    let want = EPOLLIN | EPOLLRDHUP | if unwritten { EPOLLOUT } else { 0 };
    let Some(stream) = flight.stream.as_ref().filter(|_| want != flight.interest) else {
        return Ok(());
    };
    let fd = stream.as_raw_fd();
    let registered = match flight.interest {
        0 => epoll.add(fd, want, token),
        _ => epoll.modify(fd, want, token),
    };
    registered.map_err(|e| format!("epoll: {e}"))?;
    flight.interest = want;
    Ok(())
}

/// Advance one flight on readiness `bits` and settle the outcome: pool
/// the connection back on a keep-alive response, reconnect fresh once
/// when a *reused* pooled connection fails, record + resolve otherwise.
/// `token` is the flight's index, re-used when a reconnect registers the
/// new fd.
fn drive_flight(flight: &mut Flight, token: u64, bits: u32, epoll: &Epoll, ctx: &GatewayCtx) {
    let backend = &ctx.cluster.backends[flight.backend];
    match drive_flight_io(flight, bits) {
        Ok(None) => {
            // Still in flight.
            if let Err(msg) = sync_interest(flight, token, epoll) {
                retry_or_fail(flight, msg, token, epoll, ctx);
            }
        }
        Ok(Some(resp)) => {
            if let Some(stream) = release(flight, epoll).filter(|_| resp.keep_alive) {
                pool_put(&backend.addr, stream);
            }
            backend.record_response(resp.status);
            flight.done = Instant::now();
            flight.result = Ok(resp);
        }
        Err(msg) => retry_or_fail(flight, msg, token, epoll, ctx),
    }
}

/// A connection-level failure: a *reused* pooled connection reconnects
/// fresh once without recording anything; otherwise the flight fails.
fn retry_or_fail(flight: &mut Flight, msg: String, token: u64, epoll: &Epoll, ctx: &GatewayCtx) {
    release(flight, epoll);
    if std::mem::take(&mut flight.reused) {
        if let Ok(stream) = connect_nonblocking(&ctx.cluster.backends[flight.backend].addr) {
            return launch(flight, stream, token, epoll, ctx);
        }
    }
    fail(flight, msg, ctx);
}

/// The pure I/O step of one flight: flush unwritten request bytes, then
/// on read readiness drain readable bytes and poll the parser. `Ok(Some)`
/// on a complete response, `Ok(None)` while still in flight, `Err` on
/// any connection-level failure.
fn drive_flight_io(flight: &mut Flight, bits: u32) -> Result<Option<ParsedResponse>, String> {
    if bits & (EPOLLERR | EPOLLHUP) != 0 {
        return Err("upstream connection error".to_string());
    }
    let Flight {
        stream,
        request,
        written,
        inbuf,
        parser,
        ..
    } = flight;
    // `&TcpStream` implements Read + Write, so disjoint field borrows
    // let the parser state advance while the socket is being driven.
    let Some(mut stream) = stream.as_ref() else {
        return Ok(None);
    };
    while *written < request.len() {
        match stream.write(&request[*written..]) {
            Ok(0) => return Err("upstream write returned 0".to_string()),
            Ok(n) => *written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("upstream write: {e}")),
        }
    }
    if bits & (EPOLLIN | EPOLLRDHUP) == 0 {
        return Ok(None);
    }
    let mut chunk = [0u8; 16 << 10];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Err("upstream closed before a full response".to_string()),
            Ok(n) => {
                inbuf.extend_from_slice(&chunk[..n]);
                match parser.poll(inbuf) {
                    ResponseStep::Incomplete => {}
                    ResponseStep::Invalid(msg) => return Err(msg),
                    ResponseStep::Response(resp) => return Ok(Some(resp)),
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("upstream read: {e}")),
        }
    }
}

// ---------------------------------------------------------------------
// Blocking one-shot client (probes, peer artifact fetch)
// ---------------------------------------------------------------------

/// One-shot blocking GET: connect, write the request, read one response
/// under read/write timeouts and an overall deadline. No pooling — this
/// is the probe/replication path, not the hot path.
pub(crate) fn blocking_get(
    addr: &str,
    path: &str,
    timeout: Duration,
    max_body: usize,
) -> Result<ParsedResponse, String> {
    let mut stream = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_write_timeout(Some(timeout))
        .and_then(|()| stream.set_read_timeout(Some(timeout)))
        .and_then(|()| stream.write_all(&encode_request("GET", path, addr, &[])))
        .map_err(|e| e.to_string())?;
    let mut parser = ResponseParser::new(max_body);
    let (mut buf, mut chunk) = (Vec::new(), [0u8; 16 << 10]);
    let deadline = Instant::now() + timeout;
    loop {
        match parser.poll(&mut buf) {
            ResponseStep::Response(resp) => return Ok(resp),
            ResponseStep::Invalid(msg) => return Err(msg),
            ResponseStep::Incomplete if Instant::now() >= deadline => {
                return Err("upstream response timed out".to_string())
            }
            ResponseStep::Incomplete => {}
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("upstream closed before a full response".to_string()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("upstream read: {e}")),
        }
    }
}

/// Deadline and size cap for peer artifact fetches. Artifacts are a few
/// MB at most (50-tree forests); 64 MiB is generous headroom.
const ARTIFACT_FETCH_TIMEOUT: Duration = Duration::from_secs(10);
const ARTIFACT_MAX_BYTES: usize = 64 << 20;

/// Fetch a model artifact's binary bytes from a peer backend. Any
/// non-200 answer is an error (the caller moves on to the next peer or
/// trains).
pub(crate) fn fetch_artifact(addr: &str, key: ModelKey) -> Result<Vec<u8>, ServeError> {
    let path = format!(
        "/models/{}/{}/artifact?version={}",
        key.workload, key.kind, key.version
    );
    let resp = blocking_get(addr, &path, ARTIFACT_FETCH_TIMEOUT, ARTIFACT_MAX_BYTES)
        .map_err(ServeError::Http)?;
    if resp.status != 200 {
        return Err(ServeError::Http(format!(
            "peer {addr} answered {} for {key}",
            resp.status
        )));
    }
    Ok(resp.body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The routing key a `/predict` body scans to.
    fn routing_key(body: &[u8]) -> Option<(&str, &str)> {
        scan_body(body, false).and_then(|s| Some((s.workload?, s.kind?)))
    }

    /// The text of each row of a body, when its rows can be split.
    fn row_texts(body: &[u8]) -> Option<Vec<&[u8]>> {
        let array = scan_body(body, true)?.rows?;
        let rows = array_elements(body, array)?;
        Some(rows.into_iter().map(|r| &body[r]).collect())
    }

    #[test]
    fn routing_fields_scan_without_full_parse() {
        let body = br#"{"workload":"fmm-small","kind":"hybrid","rows":[[1,2,3,4]]}"#;
        assert_eq!(routing_key(body), Some(("fmm-small", "hybrid")));
        // Whitespace tolerated.
        let spaced = b"{ \"workload\" : \"spmv-suite\" ,\n \"kind\" : \"cart\" }\n";
        assert_eq!(routing_key(spaced), Some(("spmv-suite", "cart")));
        // Escapes punt to the backend's parser.
        assert_eq!(routing_key(br#"{"workload":"a\"b","kind":"c"}"#), None);
        assert!(scan_body(br#"{"work\u006coad":"a","kind":"c"}"#, false).is_none());
        // Missing or non-string fields punt.
        assert_eq!(routing_key(br#"{"kind":"cart"}"#), None);
        assert_eq!(routing_key(br#"{"workload":1,"kind":"cart"}"#), None);
        // The first occurrence counts, as in the backend's parser.
        let twice = br#"{"workload":"a","kind":"b","workload":"c"}"#;
        assert_eq!(routing_key(twice), Some(("a", "b")));
        // Not a JSON object up to the fields sought: punt.
        for bad in [&b"[1]"[..], b"{} x", b"{\"a\" 1}", b"{\"kind\":\"b\",}"] {
            assert!(
                scan_body(bad, false).is_none(),
                "{}",
                String::from_utf8_lossy(bad)
            );
        }
        assert!(scan_body(b"{\"workload\":\"a\",\"kind\":\"b\"", true).is_none());
    }

    #[test]
    fn row_spans_are_found_without_parsing_floats() {
        let body = b"{\"rows\": [ [1, -0.0,\n 1E+2] ,[\"s]\", {\"a\":[]}],[]\t], \"kind\":\"k\"}";
        assert_eq!(
            row_texts(body).expect("rows split"),
            vec![&b"[1, -0.0,\n 1E+2]"[..], b"[\"s]\", {\"a\":[]}]", b"[]"]
        );
        let array = scan_body(body, true).and_then(|s| s.rows).expect("rows");
        assert_eq!(&body[array.end..], b", \"kind\":\"k\"}");
        // Separators between rows are checked; a malformed array is not
        // split (it forwards whole and the backend rejects it).
        for bad in [
            &b"{\"rows\":[[1] [2]]}"[..],
            b"{\"rows\":[[1],]}",
            b"{\"rows\":[[1],[2]}",
            b"{\"rows\":7}",
        ] {
            assert!(row_texts(bad).is_none(), "{}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn answers_merge_from_scanned_pieces() {
        let body = br#"{"model":"fmm/hybrid/v1","predictions":[1.5,-0.0,1e300],"cache_hits":12,"micros":7}"#;
        let (model, predictions, hits) = scan_answer(body).expect("answer scan");
        assert_eq!(model, br#""fmm/hybrid/v1""#);
        assert_eq!(predictions, b"1.5,-0.0,1e300");
        assert_eq!(hits, 12);
        assert!(scan_answer(br#"{"model":"m","predictions":[1.0]}"#).is_none());
        assert!(scan_answer(br#"{"error":"bad row"}"#).is_none());
    }

    /// CPU time this thread has used: `utime + stime` from
    /// `/proc/thread-self/stat`, in USER_HZ ticks (10 ms on Linux).
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs");
        let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
        let ticks: u64 = after_comm
            .split(' ')
            .skip(11)
            .take(2)
            .map(|field| field.parse::<u64>().expect("numeric tick count"))
            .sum();
        Duration::from_millis(10 * ticks)
    }

    #[test]
    fn waiting_upstream_leg_does_not_spin() {
        // A backend stub that answers one request only after 300 ms.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("stub binds");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let stub = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("gateway connects");
            let mut request = Vec::new();
            let mut chunk = [0u8; 4096];
            while !request.ends_with(b"{}") {
                let n = conn.read(&mut chunk).expect("request read");
                assert!(n > 0, "request cut short");
                request.extend_from_slice(&chunk[..n]);
            }
            std::thread::sleep(Duration::from_millis(300));
            let body = r#"{"model":"m","predictions":[1.5],"cache_hits":0,"micros":1}"#;
            let head = format!(
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                body.len()
            );
            conn.write_all(head.as_bytes()).expect("response head");
            conn.write_all(body.as_bytes()).expect("response body");
        });
        let ctx = GatewayCtx::new(&GatewayConfig::new(vec![addr.clone()]));
        let request = encode_request("POST", "/predict", &addr, b"{}");
        let before = thread_cpu();
        let leg = exchange_one(&ctx, 0, request, Duration::from_secs(5));
        let used = thread_cpu() - before;
        stub.join().expect("stub thread");
        assert_eq!(leg.result.expect("stub answered").status, 200);
        assert!(
            used < Duration::from_millis(50),
            "waiting 300 ms on the backend cost {used:?} of this thread's CPU"
        );
    }

    #[test]
    fn upstream_status_classes_partition() {
        assert_eq!(upstream_class(200), 0);
        assert_eq!(upstream_class(404), 1);
        assert_eq!(upstream_class(500), 2);
        assert_eq!(upstream_class(503), 2);
        assert_eq!(UPSTREAM_ERR, 3);
    }

    #[test]
    fn backend_health_ejects_and_recovers() {
        let b = BackendState::new("127.0.0.1:1".to_string());
        assert!(b.is_healthy());
        b.record_failure(3);
        b.record_failure(3);
        assert!(b.is_healthy(), "below threshold");
        b.record_failure(3);
        assert!(!b.is_healthy(), "ejected at threshold");
        b.record_probe_success(2);
        assert!(!b.is_healthy(), "one probe is not recovery");
        b.record_probe_success(2);
        assert!(b.is_healthy(), "recovered after threshold probes");
        // A success resets the failure streak.
        b.record_failure(3);
        b.record_response(200);
        b.record_failure(3);
        b.record_failure(3);
        assert!(b.is_healthy(), "streak was broken by the success");
    }
}
