//! The serving workloads: fresh servers on an empty models directory,
//! driven over real sockets by [`crate::client`], every answer checked
//! bit for bit against the interpreted reference predictor.

use crate::client::{self, Conn, ConnLog, TraceFn};
use crate::inputs::{draw, Generator, Rows, KIND, WORKLOAD};
use crate::report::{median, quantile};
use crate::sys;
use lam_core::predict::PredictRow;
use lam_obs::Histogram;
use lam_serve::cluster::{GatewayConfig, GatewayHandle};
use lam_serve::http::{ServeConfig, ServerHandle, ServerOptions};
use lam_serve::persist::SavedModel;
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most untimed one-second rounds [`warm_traffic`] sends.
const FILL_ROUNDS: u64 = 60;

/// Untimed one-second rounds a hot workload sends before its window.
const HOT_WARMUP_ROUNDS: u64 = 1;

/// Requests per second per connection the client logs are sized for
/// before a window (several times what any workload reaches), so log
/// growth never lands in the window's heap figures.
const LOG_CAPACITY_PER_S: f64 = 250_000.0;

/// Most equal slices a window is cut into; the latency figures are
/// medians of the per-slice figures, so one stall moves one slice, not
/// the result.
pub const MAX_SLICES: usize = 20;

/// Fewest requests per slice: its p99 then has at least ten samples
/// beyond it.
pub const MIN_SLICE_SAMPLES: usize = 1000;

/// Connection id of the untimed warm-up request, outside every stream
/// the timed window uses.
const WARMUP_CONN: u64 = 1 << 20;

/// Server shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Clients talk to one server.
    Direct,
    /// Clients talk to a gateway over two backends, two replicas.
    Gateway,
}

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub rows: Rows,
    pub batch: usize,
    pub topology: Topology,
    /// Client connections.
    pub connections: u64,
    /// Pipelined requests in flight per connection.
    pub depth: usize,
}

/// The serving workloads by name. `row-hot` keeps 8 requests in flight
/// per connection rather than sending on a fixed schedule: at a fixed
/// rate the server idles between requests, and single-row latency then
/// tracks how fast an idle virtual CPU wakes (p50 IQR/median 0.3 across
/// seeds on 2 vCPUs) instead of the per-request cost being measured.
/// `row-hot` needs two connections for the server to coalesce across
/// them. `batch-cold` uses one: each 256-row request already fans out
/// over both cores, and a second request in flight only oversubscribes
/// them, so a slow spell of the shared host then cut its throughput by
/// 41% and raised its p90 by 150%, against 7% and 20% with one.
pub fn spec(name: &str) -> Option<Spec> {
    let (rows, batch, topology, connections, depth) = match name {
        "row-hot" => (Rows::Hot, 1, Topology::Direct, 2, 8),
        "batch-cold" => (Rows::Cold, 256, Topology::Direct, 1, 1),
        "scatter-hot" => (Rows::Hot, 64, Topology::Gateway, 2, 1),
        _ => return None,
    };
    Some(Spec {
        rows,
        batch,
        topology,
        connections,
        depth,
    })
}

/// The served model's key.
pub fn model_key() -> ModelKey {
    ModelKey::new(
        WorkloadId::get(WORKLOAD).expect("built-in scenario"),
        KIND.parse().expect("known kind"),
        1,
    )
}

/// Running servers of one topology, each backend on its own empty
/// models directory under `dir`.
pub struct Servers {
    /// Where clients connect.
    pub addr: SocketAddr,
    /// Each backend's registry.
    pub registries: Vec<Arc<ModelRegistry>>,
    backends: Vec<ServerHandle>,
    gateway: Option<GatewayHandle>,
    dir: PathBuf,
}

impl Servers {
    /// Start servers of `topology` under a fresh `dir`.
    pub fn start(topology: Topology, dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        let n = match topology {
            Topology::Direct => 1,
            Topology::Gateway => 2,
        };
        let mut registries = Vec::new();
        let mut backends = Vec::new();
        for b in 0..n {
            let registry = Arc::new(ModelRegistry::new(dir.join(format!("backend-{b}"))));
            let cfg = ServeConfig::new(ServerOptions::default());
            let handle = lam_serve::http::start_with(Arc::clone(&registry), cfg)
                .map_err(|e| format!("start server: {e}"))?;
            registries.push(registry);
            backends.push(handle);
        }
        let (addr, gateway) = match topology {
            Topology::Direct => (backends[0].local_addr(), None),
            Topology::Gateway => {
                let mut cfg = GatewayConfig::new(
                    backends
                        .iter()
                        .map(|b| b.local_addr().to_string())
                        .collect(),
                );
                cfg.replicas = 2;
                let gw = lam_serve::cluster::start_gateway(cfg)
                    .map_err(|e| format!("start gateway: {e}"))?;
                (gw.local_addr(), Some(gw))
            }
        };
        Ok(Self {
            addr,
            registries,
            backends,
            gateway,
            dir: dir.to_path_buf(),
        })
    }

    /// The reference predictor, assembled without compilation from the
    /// artifact the first backend trained and persisted.
    pub fn reference(&self) -> Result<Box<dyn PredictRow>, String> {
        let path = self.registries[0].path_for(model_key());
        let saved = SavedModel::load(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
        Ok(saved.into_interpreted_predictor())
    }

    /// Stop every server and delete the models directory.
    pub fn stop(self) {
        if let Some(gw) = self.gateway {
            gw.stop();
        }
        for b in self.backends {
            b.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Expected answers: per space row for hot workloads (computed before
/// the window), per request for cold ones (computed after it, since the
/// rows a run sends are unbounded).
pub struct Expected<'a> {
    gen: &'a Generator<'a>,
    reference: Box<dyn PredictRow>,
    hot_table: Vec<f64>,
}

impl<'a> Expected<'a> {
    /// Precompute what can be precomputed.
    pub fn new(gen: &'a Generator<'a>, reference: Box<dyn PredictRow>) -> Self {
        let hot_table = match gen.rows {
            Rows::Hot => gen
                .space
                .rows
                .iter()
                .map(|r| reference.predict_row(r))
                .collect(),
            Rows::Cold => Vec::new(),
        };
        Self {
            gen,
            reference,
            hot_table,
        }
    }

    /// Expected predictions of request `k` on connection `conn`.
    pub fn predictions(&self, conn: u64, k: u64) -> Vec<f64> {
        (0..self.gen.batch)
            .map(|i| match self.gen.rows {
                Rows::Hot => self.hot_table[self.gen.hot_index(conn, k, i)],
                Rows::Cold => self.reference.predict_row(&self.gen.row(conn, k, i)),
            })
            .collect()
    }

    /// Requests whose answer differs from the reference (failed ones
    /// are counted by the client, not here). Checked on two threads.
    pub fn mismatches(&self, logs: &[ConnLog]) -> u64 {
        let jobs: Vec<(u64, u64, u64)> = logs
            .iter()
            .enumerate()
            .flat_map(|(c, log)| {
                log.digests
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| **d != 0)
                    .map(move |(k, d)| (c as u64, k as u64, *d))
            })
            .collect();
        let half = jobs.len().div_ceil(2);
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .chunks(half.max(1))
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .filter(|(c, k, d)| client::digest(&self.predictions(*c, *k)) != *d)
                            .count() as u64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verifier"))
                .sum()
        })
    }
}

/// Server-side counters read around a window, from the registry the
/// servers' `/metrics.json` renders.
pub struct ServerView {
    phases: Vec<(&'static str, Arc<Histogram>, u64, u64)>,
    shed: u64,
}

/// Handling phases the server times per `/predict`.
pub const PHASES: [&str; 5] = ["parse", "validate", "resolve", "predict", "serialize"];

impl ServerView {
    /// Take the "before" reading.
    pub fn begin() -> Self {
        let phases = PHASES
            .iter()
            .map(|&p| {
                let h = lam_obs::global().histogram(
                    "lam_phase_duration_ns",
                    "",
                    &[("endpoint", "predict"), ("phase", p)],
                );
                let (count, sum) = (h.count(), h.sum());
                (p, h, count, sum)
            })
            .collect();
        Self {
            phases,
            shed: lam_obs::global().counter_total("lam_requests_shed_total"),
        }
    }

    /// Mean µs per request of each phase since [`ServerView::begin`],
    /// and requests shed.
    pub fn end(&self) -> (Vec<(&'static str, f64)>, u64) {
        let phases = self
            .phases
            .iter()
            .map(|(p, h, count, sum)| {
                let n = h.count() - count;
                let us = if n == 0 {
                    0.0
                } else {
                    (h.sum() - sum) as f64 / n as f64 / 1e3
                };
                (*p, us)
            })
            .collect();
        let shed = lam_obs::global().counter_total("lam_requests_shed_total") - self.shed;
        (phases, shed)
    }
}

/// Everything one timed window measured.
pub struct PassResult {
    /// Request latencies, sorted, nanoseconds (failed requests last).
    pub latency_ns: Vec<f64>,
    /// Per slice: rows per second, p50, p90 and p99 latency in ms.
    pub slices: Vec<[f64; 4]>,
    /// Requests sent.
    pub requests: u64,
    /// Untimed requests sent before the window (see [`warm_traffic`]).
    pub fill_requests: u64,
    /// Requests failed on the wire, non-200, or answered wrong, the
    /// untimed ones included.
    pub failed: u64,
    /// Of those, answers that differed from the reference.
    pub mismatched: u64,
    /// Rows answered correctly.
    pub rows: u64,
    /// Rows the servers answered from cache.
    pub cache_hits: u64,
    /// Window wall time.
    pub wall: Duration,
    /// Process CPU during the window.
    pub cpu_s: f64,
    /// Peak RSS during the window.
    pub peak_rss_mb: f64,
    /// Peak live heap during the window, less the client's logs.
    pub peak_heap_mb: f64,
    /// Generator delays (see [`ConnLog::late_ns`]), sorted.
    pub late_ns: Vec<f64>,
    /// Server phases, µs per request.
    pub phases: Vec<(&'static str, f64)>,
    /// Requests shed by the servers.
    pub shed: u64,
}

impl PassResult {
    /// Rows per second over the whole window.
    pub fn rows_per_s(&self) -> f64 {
        self.rows as f64 / self.wall.as_secs_f64()
    }

    /// Latency quantile over the whole window, milliseconds.
    pub fn latency_ms(&self, q: f64) -> f64 {
        quantile(&self.latency_ns, q) / 1e6
    }

    /// Median over slices of figure `i` (see [`PassResult::slices`]).
    pub fn slice_median(&self, i: usize) -> f64 {
        median(&self.slices.iter().map(|s| s[i]).collect::<Vec<_>>())
    }
}

/// Per-slice figures of a window: requests are binned by when they were
/// sent.
fn slices(logs: &[ConnLog], batch: usize, window: Duration) -> Vec<[f64; 4]> {
    let requests: usize = logs.iter().map(|l| l.latency_ns.len()).sum();
    let n = (requests / MIN_SLICE_SAMPLES).clamp(1, MAX_SLICES);
    let slice_ns = (window.as_nanos() as u64 / n as u64).max(1);
    let mut bins: Vec<(Vec<f64>, u64)> = vec![(Vec::new(), 0); n];
    for log in logs {
        for ((lat, at), d) in log.latency_ns.iter().zip(&log.at_ns).zip(&log.digests) {
            let bin = &mut bins[((at / slice_ns) as usize).min(n - 1)];
            if *d == 0 {
                bin.0.push(f64::INFINITY);
            } else {
                bin.0.push(*lat as f64);
                bin.1 += batch as u64;
            }
        }
    }
    bins.into_iter()
        .map(|(mut lat, rows)| {
            lat.sort_by(f64::total_cmp);
            [
                rows as f64 / (slice_ns as f64 / 1e9),
                quantile(&lat, 0.5) / 1e6,
                quantile(&lat, 0.9) / 1e6,
                quantile(&lat, 0.99) / 1e6,
            ]
        })
        .collect()
}

/// Start servers, answer one untimed warm-up request (it trains the
/// model), and return the servers with the reference predictor. Fails
/// if the warm-up answer is wrong.
pub fn warm_up(
    spec: &Spec,
    gen: &Generator,
    dir: &Path,
) -> Result<(Servers, Box<dyn PredictRow>), String> {
    let servers = Servers::start(spec.topology, dir)?;
    let mut conn = Conn::connect(servers.addr).map_err(|e| e.to_string())?;
    let answer = conn
        .call(&gen.request(WARMUP_CONN, 0, &servers.addr.to_string(), None))
        .map_err(|e| format!("warm-up request: {e}"))?;
    let reference = servers.reference()?;
    let got = (answer.status == 200)
        .then(|| client::parse_predictions(&answer.body))
        .flatten()
        .map(|(p, _)| client::digest(&p));
    let want: Vec<f64> = gen
        .rows_of(WARMUP_CONN, 0)
        .iter()
        .map(|r| reference.predict_row(r))
        .collect();
    if got != Some(client::digest(&want)) {
        return Err(format!("warm-up answer wrong: status {}", answer.status));
    }
    Ok((servers, reference))
}

/// One timed window of `spec` on fresh servers under `dir`.
pub fn run_pass(
    spec: &Spec,
    gen: &Generator,
    dir: &Path,
    window: Duration,
    trace: TraceFn,
) -> Result<(PassResult, Servers), String> {
    let (servers, reference) = warm_up(spec, gen, dir)?;
    let (fill_requests, fill_failed) = warm_traffic(spec, gen, &servers)?;
    let expected = Expected::new(gen, reference);
    let capacity = (window.as_secs_f64() * LOG_CAPACITY_PER_S) as usize;
    let live = crate::alloc::live_bytes();
    let logs: Vec<ConnLog> = (0..spec.connections)
        .map(|_| ConnLog::with_capacity(capacity))
        .collect();
    let log_bytes = crate::alloc::live_bytes() - live;
    let view = ServerView::begin();
    sys::reset_peak_rss();
    crate::alloc::reset_peak();
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let logs = client::closed_loop(servers.addr, gen, logs, spec.depth, window, trace);
    let wall = t0.elapsed();
    let cpu_s = sys::cpu_seconds() - cpu0;
    let peak_rss_mb = sys::peak_rss_mb();
    let peak_heap_mb = (crate::alloc::peak_bytes() - log_bytes) as f64 / (1 << 20) as f64;
    let (phases, shed) = view.end();
    let mismatched = expected.mismatches(&logs);
    let wire_failed: u64 = logs.iter().map(|l| l.failed).sum();
    let requests: u64 = logs.iter().map(|l| l.latency_ns.len() as u64).sum();
    let mut latency_ns: Vec<f64> = Vec::with_capacity(requests as usize);
    let mut late_ns = Vec::new();
    for log in &logs {
        for (lat, d) in log.latency_ns.iter().zip(&log.digests) {
            // A failed request misses every latency limit.
            latency_ns.push(if *d == 0 { f64::INFINITY } else { *lat as f64 });
        }
        late_ns.extend(log.late_ns.iter().map(|&l| l as f64));
    }
    latency_ns.sort_by(f64::total_cmp);
    late_ns.sort_by(f64::total_cmp);
    let answered_rows: u64 = logs.iter().map(|l| l.rows).sum();
    let result = PassResult {
        latency_ns,
        slices: slices(&logs, gen.batch, window),
        requests,
        fill_requests,
        failed: wire_failed + mismatched + fill_failed,
        mismatched,
        rows: answered_rows - mismatched * gen.batch as u64,
        cache_hits: logs.iter().map(|l| l.cache_hits).sum(),
        wall,
        cpu_s,
        peak_rss_mb,
        peak_heap_mb,
        late_ns,
        phases,
        shed,
    };
    Ok((result, servers))
}

/// Send untimed traffic before the window, in one-second rounds that
/// each draw their own seed stream. Hot workloads send [`HOT_WARMUP_ROUNDS`] rounds, so
/// the window starts with the space cached and the threads of both
/// sides running. Cold workloads send fresh rows until the served
/// model's prediction cache holds its `DEFAULT_MAX_ENTRIES` cap: the
/// window then measures the steady state of a long-running server under
/// cold traffic (every lookup misses, every insert is refused), rather
/// than a window whose first part grows the cache's hash tables and
/// whose split between the two regimes moves with throughput. Every
/// answer is verified like a timed one. Returns (requests, failed).
fn warm_traffic(spec: &Spec, gen: &Generator, servers: &Servers) -> Result<(u64, u64), String> {
    let cold_model = match spec.rows {
        Rows::Cold => Some(
            servers.registries[0]
                .get(model_key())
                .map_err(|e| e.to_string())?,
        ),
        Rows::Hot => None,
    };
    let (mut requests, mut failed) = (0, 0);
    for round in 0..FILL_ROUNDS {
        let done = match &cold_model {
            Some(model) => model.engine().cache().len() >= lam_core::batch::DEFAULT_MAX_ENTRIES,
            None => round >= HOT_WARMUP_ROUNDS,
        };
        if done {
            return Ok((requests, failed));
        }
        let fill = Generator {
            seed: draw(gen.seed, WARMUP_CONN, round, 0),
            ..*gen
        };
        let logs = (0..spec.connections)
            .map(|_| ConnLog::with_capacity(1 << 12))
            .collect();
        let logs = client::closed_loop(
            servers.addr,
            &fill,
            logs,
            spec.depth,
            Duration::from_secs(1),
            &|_, _| None,
        );
        let expected = Expected::new(&fill, servers.reference()?);
        requests += logs.iter().map(|l| l.latency_ns.len() as u64).sum::<u64>();
        failed += expected.mismatches(&logs) + logs.iter().map(|l| l.failed).sum::<u64>();
    }
    Err(format!(
        "prediction cache not full after {FILL_ROUNDS} s of cold rows"
    ))
}

/// The `setup_s` probe body: from process start (`born`) to the first
/// verified answer of fresh servers on an empty models directory.
pub fn setup_probe(spec: &Spec, gen: &Generator, dir: &Path, born: Instant) -> Result<f64, String> {
    let (servers, _) = warm_up(spec, gen, dir)?;
    let secs = born.elapsed().as_secs_f64();
    servers.stop();
    Ok(secs)
}
