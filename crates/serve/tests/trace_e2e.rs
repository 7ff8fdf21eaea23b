//! End-to-end distributed-tracing tests: real backends behind a real
//! gateway, driven over real sockets, asserting that one client trace id
//! produces a coherent span tree across the gateway and its shards.
//!
//! The flight recorder is process-global, so every server in this binary
//! shares one ring. Trace-tree assertions therefore use *forced* trace
//! contexts ([`lam_obs::trace::FLAG_FORCE`]) whose retention is immune
//! to the sampling knobs, and the tail-sampling test pins the global
//! knobs to values that only strengthen the forced-trace guarantees
//! (`sample_every = MAX`, `slow_threshold = MAX`: nothing extra is kept).

use lam_obs::trace::TraceContext;
use lam_serve::cluster::{start_gateway, GatewayConfig, GatewayHandle};
use lam_serve::http::{self, PredictRequest, ServerOptions};
use lam_serve::loadgen::HttpClient;
use lam_serve::persist::ModelKind;
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::workload::WorkloadId;
use std::sync::Arc;
use std::time::Duration;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lam_serve_trace_e2e_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wid(name: &str) -> WorkloadId {
    WorkloadId::get(name).expect("builtin workload")
}

fn start_backend(registry: Arc<ModelRegistry>) -> http::ServerHandle {
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

fn gateway_over(backends: Vec<String>, replicas: usize) -> GatewayHandle {
    let mut cfg = GatewayConfig::new(backends);
    cfg.serve.opts.workers = 2;
    cfg.replicas = replicas;
    cfg.probe_interval = Duration::from_millis(100);
    cfg.fail_threshold = 1;
    cfg.recover_threshold = 1;
    start_gateway(cfg).expect("gateway binds")
}

fn predict_body(workload: &str, kind: &str, rows: Vec<Vec<f64>>) -> String {
    serde_json::to_string(&PredictRequest {
        workload: workload.to_string(),
        kind: kind.to_string(),
        version: Some(1),
        rows,
    })
    .expect("request serializes")
}

/// One span of a `/traces/{id}` document: `(name, span_id, parent_id,
/// annotations)`, with ids as the fixed-width hex the endpoint emits.
type SpanTuple = (String, String, String, Vec<(String, String)>);

fn parse_spans(doc: &serde::Value) -> Vec<SpanTuple> {
    doc.get("spans")
        .and_then(|s| s.as_array())
        .expect("spans array")
        .iter()
        .map(|span| {
            let field = |name: &str| {
                span.get(name)
                    .and_then(|v| v.as_str())
                    .unwrap_or_default()
                    .to_string()
            };
            let annotations = span
                .get("annotations")
                .and_then(|a| a.as_object())
                .map(|entries| {
                    entries
                        .iter()
                        .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                        .collect()
                })
                .unwrap_or_default();
            (
                field("name"),
                field("span_id"),
                field("parent_id"),
                annotations,
            )
        })
        .collect()
}

#[test]
fn one_forced_trace_spans_gateway_and_both_shards() {
    let root = temp_root("tree");
    // Pre-train once so both backends serve the same artifact.
    let key = ModelKey::new(wid("stencil-grid"), ModelKind::Linear, 1);
    ModelRegistry::new(root.clone())
        .get(key)
        .expect("pre-train");
    let b1 = start_backend(Arc::new(ModelRegistry::new(root.clone())));
    let b2 = start_backend(Arc::new(ModelRegistry::new(root.clone())));
    let backends = vec![b1.local_addr().to_string(), b2.local_addr().to_string()];
    let gw = gateway_over(backends, 2);
    let gw_addr = gw.local_addr().to_string();

    // A forced client context: retention is deterministic regardless of
    // the sampling knobs, and the id is ours to look up afterwards.
    let client_ctx = TraceContext::root().with_force();
    let trace_hex = format!("{:032x}", client_ctx.trace_id);

    // 5 rows over 2 replicas must scatter as a 3-row and a 2-row chunk.
    let rows = wid("stencil-grid").sample_rows(5);
    let body = predict_body("stencil-grid", "linear", rows);
    let mut client = HttpClient::connect(&gw_addr).expect("gateway connection");
    client
        .send_traced("POST", "/predict", &body, Some(&client_ctx.header_value()))
        .expect("send traced predict");
    let (status, resp) = client.recv().expect("predict response");
    assert_eq!(status, 200, "traced predict failed: {resp}");

    // The whole tree is assembled by the gateway (its own spans plus the
    // backends' over HTTP). The backend queue span is recorded just
    // before its response is, so one short retry loop absorbs the race.
    let mut doc = None;
    for _ in 0..50 {
        let (status, body) = client
            .get(&format!("/traces/{trace_hex}"))
            .expect("trace fetch");
        if status == 200 {
            let parsed: serde::Value = serde_json::from_str(&body).expect("trace json");
            if parse_spans(&parsed)
                .iter()
                .any(|s| s.0.starts_with("serve."))
            {
                doc = Some(parsed);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let doc = doc.expect("trace never became visible via GET /traces/{id}");
    assert_eq!(
        doc.get("trace_id").and_then(|v| v.as_str()),
        Some(trace_hex.as_str())
    );
    let spans = parse_spans(&doc);

    // Exactly one gateway root, parented on the client's span.
    let roots: Vec<_> = spans.iter().filter(|s| s.0 == "gateway.request").collect();
    assert_eq!(roots.len(), 1, "spans: {spans:?}");
    let (_, root_span_id, root_parent, root_ann) = roots[0];
    assert_eq!(root_parent, &format!("{:016x}", client_ctx.span_id));
    let ann = |list: &[(String, String)], key: &str| {
        list.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    assert_eq!(ann(root_ann, "rows"), "5");
    assert_eq!(ann(root_ann, "shards"), "2");

    // Two shard legs under the root, annotated with the contiguous
    // row split: chunk 0 = rows [0, 3), chunk 1 = rows [3, 5).
    let shards: Vec<_> = spans.iter().filter(|s| s.0 == "gateway.shard").collect();
    assert_eq!(shards.len(), 2, "spans: {spans:?}");
    let mut chunk_layout: Vec<(String, String)> = shards
        .iter()
        .map(|(_, _, parent, ann_list)| {
            assert_eq!(parent, root_span_id, "shard leg not under the root");
            assert!(!ann(ann_list, "backend").is_empty(), "leg missing backend");
            (ann(ann_list, "offset"), ann(ann_list, "rows"))
        })
        .collect();
    chunk_layout.sort();
    assert_eq!(
        chunk_layout,
        vec![
            ("0".to_string(), "3".to_string()),
            ("3".to_string(), "2".to_string())
        ],
        "chunk annotations disagree with the contiguous row split"
    );

    // Each shard span times its own leg (send to response), inside the
    // root's window: it cannot start before the root or outlast it.
    let timing = |name: &str| -> Vec<(u64, u64)> {
        let number = |span: &serde::Value, key: &str| match span.get(key) {
            Some(serde::Value::Number(n)) => n.as_u64().expect("unsigned"),
            _ => panic!("span without {key}"),
        };
        doc.get("spans")
            .and_then(|s| s.as_array())
            .expect("spans array")
            .iter()
            .filter(|span| span.get("name").and_then(|v| v.as_str()) == Some(name))
            .map(|span| (number(span, "start_unix_ns"), number(span, "duration_ns")))
            .collect()
    };
    let (root_start, root_ns) = timing("gateway.request")[0];
    for (start, ns) in timing("gateway.shard") {
        assert!(start >= root_start, "shard starts before its root");
        assert!(
            ns < root_ns,
            "shard ({ns} ns) not shorter than its root ({root_ns} ns)"
        );
    }

    // Each backend continued its leg: every serve.request hangs off a
    // shard leg, and at least one serve.queue child (every /predict's
    // submit-to-completion span) hangs off a serve.request.
    let shard_ids: Vec<&String> = shards.iter().map(|(_, id, _, _)| id).collect();
    let serve_requests: Vec<_> = spans.iter().filter(|s| s.0 == "serve.request").collect();
    assert_eq!(serve_requests.len(), 2, "spans: {spans:?}");
    for (_, _, parent, _) in &serve_requests {
        assert!(
            shard_ids.contains(&parent),
            "serve.request parented outside the shard legs: {spans:?}"
        );
    }
    let serve_ids: Vec<&String> = serve_requests.iter().map(|(_, id, _, _)| id).collect();
    let children = spans
        .iter()
        .filter(|s| s.0 == "serve.queue")
        .filter(|(_, _, parent, _)| serve_ids.contains(&parent))
        .count();
    assert!(children >= 1, "no serve-side child spans: {spans:?}");

    // The recent-traces listing on the gateway knows this trace too.
    let (status, recent) = client.get("/traces").expect("recent traces");
    assert_eq!(status, 200);
    assert!(recent.contains(&trace_hex), "trace missing from /traces");

    gw.stop();
    b1.stop();
    b2.stop();
}

#[test]
fn shed_is_always_retained_while_bulk_is_sampled() {
    // Pin the global knobs so nothing is retained except errors, sheds,
    // and forced traces — the strictest possible sampling policy.
    lam_obs::recorder::global().set_sample_every(u64::MAX);
    lam_obs::recorder::global().set_slow_threshold_ns(u64::MAX);

    let root = temp_root("shed");
    let registry = Arc::new(ModelRegistry::new(root));
    let live = start_backend(Arc::clone(&registry));
    let live_addr = live.local_addr().to_string();

    // A healthy cluster serving a *bulk* (unforced) trace: with
    // sample_every at MAX the whole trace must be sampled out.
    let gw = gateway_over(vec![live_addr], 1);
    let gw_addr = gw.local_addr().to_string();
    let bulk_ctx = TraceContext::root();
    let body = predict_body("fmm-small", "linear", vec![vec![2.0, 8192.0, 64.0, 4.0]]);
    let mut client = HttpClient::connect(&gw_addr).expect("gateway connection");
    client
        .send_traced("POST", "/predict", &body, Some(&bulk_ctx.header_value()))
        .expect("send bulk predict");
    let (status, resp) = client.recv().expect("bulk response");
    assert_eq!(status, 200, "bulk predict failed: {resp}");
    let (status, _) = client
        .get(&format!("/traces/{:032x}", bulk_ctx.trace_id))
        .expect("bulk trace fetch");
    assert_eq!(status, 404, "a bulk ok-trace survived sample_every=MAX");
    assert!(
        !lam_obs::recorder::sampled(bulk_ctx.trace_id, u64::MAX),
        "the sampling predicate disagrees with the endpoint"
    );

    // A dead cluster shedding the same kind of unforced request: the
    // 503 gateway.request span must be retained despite the knobs.
    gw.stop();
    live.stop();
    let dead_gw = gateway_over(vec!["127.0.0.1:1".to_string()], 1);
    let dead_addr = dead_gw.local_addr().to_string();
    let shed_ctx = TraceContext::root();
    let mut client = HttpClient::connect(&dead_addr).expect("gateway connection");
    client
        .send_traced("POST", "/predict", &body, Some(&shed_ctx.header_value()))
        .expect("send shed predict");
    let (status, _) = client.recv().expect("shed response");
    assert_eq!(status, 503, "dead cluster must shed");
    let (status, body) = client
        .get(&format!("/traces/{:032x}", shed_ctx.trace_id))
        .expect("shed trace fetch");
    assert_eq!(status, 200, "the shed trace was not retained: {body}");
    assert!(body.contains("\"status\":\"shed\""), "{body}");
    assert!(body.contains("gateway.request"), "{body}");

    dead_gw.stop();
}
