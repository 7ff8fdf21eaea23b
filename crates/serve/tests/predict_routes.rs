//! One row, one answer, whichever way it is served: the same fmm rows go
//! through single-row, 63/64/65/256-row, pipelined, gateway-scattered and
//! over-budget `/predict` requests. Every route must return the bits of
//! the interpreted (uncompiled) model, and every request's `cache_hits`
//! must be exactly what a cold pass followed by a warm replay implies.
//!
//! Each route runs on fresh servers over one persisted artifact, so each
//! starts with an empty prediction cache.

use lam_analytical::traits::AnalyticalModel;
use lam_core::catalog::WorkloadCatalog;
use lam_core::workload::Workload;
use lam_serve::cluster::{start_gateway, GatewayConfig};
use lam_serve::http::{self, PredictRequest, PredictResponse, ServerOptions};
use lam_serve::loadgen::HttpClient;
use lam_serve::persist::{ModelKind, SavedModel};
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;
use std::path::Path;
use std::sync::Arc;

const ROWS: usize = 256;

fn body(rows: &[Vec<f64>]) -> String {
    serde_json::to_string(&PredictRequest {
        workload: "fmm-small".to_string(),
        kind: "hybrid".to_string(),
        version: Some(1),
        rows: rows.to_vec(),
    })
    .expect("request serializes")
}

fn parse(status: u16, body: &str) -> PredictResponse {
    assert_eq!(status, 200, "answer: {body}");
    serde_json::from_str(body).expect("answer parses")
}

/// `ROWS` distinct rows: fmm-small's 120-point space, repeated with the
/// particle count nudged off the grid on each further pass.
fn distinct_rows() -> Vec<Vec<f64>> {
    let space = WorkloadId::get("fmm-small")
        .expect("builtin")
        .feature_rows();
    (0..ROWS)
        .map(|i| {
            let mut row = space[i % space.len()].clone();
            row[1] += (i / space.len()) as f64;
            row
        })
        .collect()
}

/// A server over the artifacts under `root`, with a fresh cache.
fn backend(root: &Path) -> http::ServerHandle {
    serve(Arc::new(ModelRegistry::new(root.to_path_buf())))
}

fn serve(registry: Arc<ModelRegistry>) -> http::ServerHandle {
    http::start(
        registry,
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerOptions::default()
        },
    )
    .expect("backend binds")
}

/// Send `requests` over one connection, `depth` in flight at a time;
/// answers in request order.
fn exchange(addr: &str, requests: &[Vec<Vec<f64>>], depth: usize) -> Vec<PredictResponse> {
    let mut client = HttpClient::connect(addr).expect("connects");
    let mut answers = Vec::new();
    for group in requests.chunks(depth) {
        for rows in group {
            client.send("POST", "/predict", &body(rows)).expect("sends");
        }
        for _ in group {
            let (status, text) = client.recv().expect("answer");
            answers.push(parse(status, &text));
        }
    }
    answers
}

/// Check one pass: bits against `want`, and each request's hits.
fn check(
    route: &str,
    requests: &[Vec<Vec<f64>>],
    answers: &[PredictResponse],
    want: &dyn Fn(&[f64]) -> u64,
    hits: &dyn Fn(&[Vec<f64>]) -> u64,
) {
    assert_eq!(answers.len(), requests.len(), "{route}");
    for (i, (rows, answer)) in requests.iter().zip(answers).enumerate() {
        let got: Vec<u64> = answer.predictions.iter().map(|y| y.to_bits()).collect();
        let expected: Vec<u64> = rows.iter().map(|r| want(r)).collect();
        assert_eq!(got, expected, "{route}: request {i} predictions");
        assert_eq!(
            answer.cache_hits,
            hits(rows),
            "{route}: request {i} cache_hits"
        );
    }
}

#[test]
fn every_route_serves_the_same_bits_and_exact_cache_hits() {
    let root = std::env::temp_dir().join("lam_serve_predict_routes");
    let _ = std::fs::remove_dir_all(&root);
    let key = ModelKey::new(WorkloadId::get("fmm-small").unwrap(), ModelKind::Hybrid, 1);
    let path = {
        let registry = ModelRegistry::new(root.clone());
        registry.get(key).expect("trains and persists");
        registry.path_for(key)
    };
    let reference = SavedModel::load(&path)
        .expect("artifact loads")
        .into_interpreted_predictor();
    let want = |row: &[f64]| reference.predict_row(row).to_bits();
    let rows = distinct_rows();
    let cold = |_: &[Vec<f64>]| 0;
    let warm = |rows: &[Vec<f64>]| rows.len() as u64;

    let split =
        |size: usize| -> Vec<Vec<Vec<f64>>> { rows.chunks(size).map(<[_]>::to_vec).collect() };
    for (route, size, depth) in [
        ("1-row", 1, 1),
        ("63-row", 63, 1),
        ("64-row", 64, 1),
        ("65-row", 65, 1),
        ("256-row", 256, 1),
        ("1-row pipelined", 1, 8),
        ("33-row pipelined", 33, 8),
    ] {
        let server = backend(&root);
        let addr = server.local_addr().to_string();
        let requests = split(size);
        check(
            route,
            &requests,
            &exchange(&addr, &requests, depth),
            &want,
            &cold,
        );
        let replay = format!("{route} replay");
        check(
            &replay,
            &requests,
            &exchange(&addr, &requests, depth),
            &want,
            &warm,
        );
        server.stop();
    }

    // Pipelined requests coalesce into lanes whose chunks cut across
    // requests: with every other row warm, each request's hits are its
    // own warm rows, not a share of the lane's.
    let server = backend(&root);
    let addr = server.local_addr().to_string();
    let even: Vec<Vec<f64>> = rows.iter().step_by(2).cloned().collect();
    let warm_up = [even];
    check(
        "warm-up",
        &warm_up,
        &exchange(&addr, &warm_up, 1),
        &want,
        &cold,
    );
    let [even] = warm_up;
    let is_even = |row: &Vec<f64>| even.contains(row);
    let mixed = |rows: &[Vec<f64>]| rows.iter().filter(|r| is_even(r)).count() as u64;
    let requests = split(33);
    check(
        "mixed pipelined",
        &requests,
        &exchange(&addr, &requests, 8),
        &want,
        &mixed,
    );

    // A request over the scheduler's whole queued-row budget (16 384) is
    // served, not shed.
    let huge: Vec<Vec<f64>> = rows.iter().cycle().take(16_400).cloned().collect();
    let huge = [huge];
    check(
        "over budget",
        &huge,
        &exchange(&addr, &huge, 1),
        &want,
        &warm,
    );
    server.stop();

    // Through a gateway scattering over two backends that share one
    // registry (so one cache), each request split in two legs.
    let registry = Arc::new(ModelRegistry::new(root.clone()));
    let backends: Vec<http::ServerHandle> = (0..2).map(|_| serve(Arc::clone(&registry))).collect();
    let mut cfg = GatewayConfig::new(
        backends
            .iter()
            .map(|b| b.local_addr().to_string())
            .collect(),
    );
    cfg.replicas = 2;
    let gateway = start_gateway(cfg).expect("gateway binds");
    let addr = gateway.local_addr().to_string();
    let requests = split(64);
    check(
        "gateway",
        &requests,
        &exchange(&addr, &requests, 1),
        &want,
        &cold,
    );
    check(
        "gateway replay",
        &requests,
        &exchange(&addr, &requests, 1),
        &want,
        &warm,
    );
    gateway.stop();
    for b in backends {
        b.stop();
    }
}

/// A runtime-registered scenario whose analytical model panics on a
/// negative size, so a hybrid served for it panics inside `/predict`.
struct Fragile(Vec<u64>);

struct PanicsOnNegative;

impl AnalyticalModel for PanicsOnNegative {
    fn predict(&self, x: &[f64]) -> f64 {
        assert!(x[0] >= 0.0, "analytical model given a negative size");
        1e-3 * (1.0 + x[0])
    }
}

impl Workload for Fragile {
    type Config = u64;

    fn name(&self) -> &str {
        "fragile-demo"
    }

    fn feature_names(&self) -> Vec<String> {
        vec!["size".to_string()]
    }

    fn param_space(&self) -> &[u64] {
        &self.0
    }

    fn features(&self, cfg: &u64) -> Vec<f64> {
        vec![*cfg as f64]
    }

    fn execution_time(&self, cfg: &u64) -> f64 {
        1e-3 * (*cfg as f64).sqrt()
    }

    fn problem_size(&self, cfg: &u64) -> f64 {
        *cfg as f64
    }

    fn analytical_model(&self) -> Box<dyn AnalyticalModel> {
        Box::new(PanicsOnNegative)
    }
}

#[test]
fn a_panicking_model_answers_500_and_serving_goes_on() {
    WorkloadCatalog::global()
        .register_workload("fragile-demo", Fragile((1..=40).collect()))
        .expect("fresh name registers");
    let root = std::env::temp_dir().join("lam_serve_predict_routes_panic");
    let _ = std::fs::remove_dir_all(&root);
    let server = backend(&root);
    let mut client = HttpClient::connect(&server.local_addr().to_string()).expect("connects");
    let post = |client: &mut HttpClient, size: f64, n: usize| {
        let body = serde_json::to_string(&PredictRequest {
            workload: "fragile-demo".to_string(),
            kind: "hybrid".to_string(),
            version: Some(1),
            rows: vec![vec![size]; n],
        })
        .expect("request serializes");
        client.post("/predict", &body).expect("answered")
    };
    let (status, answer) = post(&mut client, 8.0, 1);
    assert_eq!(status, 200, "trains and serves: {answer}");
    // More panicking requests than the scheduler has workers, the first
    // split across both of them.
    for n in [200, 1, 1, 1] {
        let (status, _) = post(&mut client, -1.0, n);
        assert_eq!(status, 500, "{n}-row request with a panicking model");
    }
    for n in [1, 200] {
        let (status, answer) = post(&mut client, 8.0, n);
        assert_eq!(status, 200, "{n}-row request after the panics: {answer}");
        assert_eq!(parse(status, &answer).predictions.len(), n);
    }
    server.stop();
}
