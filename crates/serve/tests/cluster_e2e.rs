//! End-to-end cluster-gateway tests, fully in-process and offline: real
//! backends on random TCP ports fronted by a real gateway, driven over
//! real sockets.
//!
//! Metrics are process-global, so every server in this binary shares one
//! registry. All assertions on counters therefore use *deltas* bracketing
//! the action under test, and the peer-replication test owns the `cart`
//! model kind exclusively (no other test here may train or fetch a cart
//! model) so its no-duplicate-training assertion cannot race a sibling
//! test thread.

use lam_serve::cluster::{start_gateway, GatewayConfig, GatewayHandle, GatewayHealthResponse};
use lam_serve::http::{self, PredictRequest, PredictResponse, ServerOptions};
use lam_serve::loadgen::{HttpClient, MetricsScrape};
use lam_serve::persist::ModelKind;
use lam_serve::registry::{ModelKey, ModelRegistry};
use lam_serve::route::HashRing;
use lam_serve::workload::WorkloadId;
use std::sync::Arc;
use std::time::Duration;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lam_serve_cluster_e2e_{tag}"));
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

/// A gateway over `backends` with test-friendly timings (fast probes,
/// instant ejection on the first hard connect failure).
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

fn scrape(addr: &str) -> MetricsScrape {
    let mut c = HttpClient::connect(addr).expect("scrape connection");
    MetricsScrape::fetch(&mut c).expect("metrics scrape")
}

/// Gateway upstream 2xx count for one backend address (both labels
/// pinned — `counter_with_label` would sum across status classes).
fn upstream_2xx(s: &MetricsScrape, backend: &str) -> u64 {
    s.counters
        .iter()
        .filter(|c| c.name == "lam_gateway_upstream_requests_total")
        .filter(|c| c.labels.get("backend").is_some_and(|v| v == backend))
        .filter(|c| c.labels.get("status").is_some_and(|v| v == "2xx"))
        .map(|c| c.value.max(0) as u64)
        .sum()
}

/// Which backend absorbed the upstream delta between two scrapes.
fn delta_owner<'a>(
    before: &MetricsScrape,
    after: &MetricsScrape,
    backends: &'a [String],
) -> &'a str {
    let deltas: Vec<u64> = backends
        .iter()
        .map(|b| upstream_2xx(after, b).saturating_sub(upstream_2xx(before, b)))
        .collect();
    let total: u64 = deltas.iter().sum();
    assert!(total > 0, "no upstream traffic was recorded");
    let (idx, _) = deltas
        .iter()
        .enumerate()
        .max_by_key(|(_, &d)| d)
        .expect("non-empty backend list");
    &backends[idx]
}

#[test]
fn routing_is_deterministic_across_gateway_restarts() {
    let root = temp_root("restart");
    let registry = Arc::new(ModelRegistry::new(root));
    let b1 = start_backend(Arc::clone(&registry));
    let b2 = start_backend(Arc::clone(&registry));
    let backends = vec![b1.local_addr().to_string(), b2.local_addr().to_string()];
    let body = predict_body("fmm-small", "linear", vec![vec![2.0, 8192.0, 64.0, 4.0]]);

    let route_once = |gw_addr: &str| -> String {
        let before = scrape(gw_addr);
        let mut client = HttpClient::connect(gw_addr).expect("gateway connection");
        for _ in 0..3 {
            let (status, _) = client.post("/predict", &body).expect("predict");
            assert_eq!(status, 200);
        }
        let after = scrape(gw_addr);
        delta_owner(&before, &after, &backends).to_string()
    };

    let gw1 = gateway_over(backends.clone(), 1);
    let owner1 = route_once(&gw1.local_addr().to_string());
    gw1.stop();

    // A brand-new gateway process over the same backend list must route
    // the same key to the same backend — the ring is derived from the
    // backend addresses alone.
    let gw2 = gateway_over(backends.clone(), 1);
    let owner2 = route_once(&gw2.local_addr().to_string());
    gw2.stop();
    assert_eq!(owner1, owner2, "gateway restart moved the key");

    // And the owner is exactly what the hash ring predicts.
    let ring = HashRing::new(&backends, 64);
    let predicted = &backends[ring.primary("fmm-small", "linear").unwrap()];
    assert_eq!(&owner1, predicted, "live routing disagrees with the ring");

    b1.stop();
    b2.stop();
}

#[test]
fn scatter_gather_preserves_row_order_under_pipelining() {
    let root = temp_root("order");
    // Pre-train once; both backends load the identical artifact so any
    // chunk interleaving mistake shows up as a prediction mismatch.
    let key = ModelKey::new(wid("stencil-grid"), ModelKind::Linear, 1);
    ModelRegistry::new(root.clone())
        .get(key)
        .expect("pre-train");
    let b1 = start_backend(Arc::new(ModelRegistry::new(root.clone())));
    let b2 = start_backend(Arc::new(ModelRegistry::new(root.clone())));
    let backends = vec![b1.local_addr().to_string(), b2.local_addr().to_string()];
    let gw = gateway_over(backends, 2);
    let gw_addr = gw.local_addr().to_string();

    // Distinct row blocks; each request must scatter (5 rows over 2
    // replicas -> 3+2 chunks).
    let pool = wid("stencil-grid").sample_rows(40);
    let bodies: Vec<String> = (0..8)
        .map(|i| {
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|j| pool[(5 * i + j) % pool.len()].clone())
                .collect();
            predict_body("stencil-grid", "linear", rows)
        })
        .collect();

    // Ground truth straight from one backend.
    let direct_addr = b1.local_addr().to_string();
    let mut direct_client = HttpClient::connect(&direct_addr).expect("direct connection");
    let direct: Vec<Vec<f64>> = bodies
        .iter()
        .map(|b| {
            let (status, body) = direct_client.post("/predict", b).expect("direct predict");
            assert_eq!(status, 200);
            serde_json::from_str::<PredictResponse>(&body)
                .unwrap()
                .predictions
        })
        .collect();

    // Same bodies through the gateway, pipelined 4 deep: responses must
    // come back in order and each must carry its own request's rows.
    let mut client = HttpClient::connect(&gw_addr).expect("gateway connection");
    let depth = 4;
    let mut results: Vec<Vec<f64>> = Vec::new();
    let mut inflight = 0usize;
    let mut next = 0usize;
    while results.len() < bodies.len() {
        while inflight < depth && next < bodies.len() {
            client
                .send("POST", "/predict", &bodies[next])
                .expect("send");
            next += 1;
            inflight += 1;
        }
        let (status, body) = client.recv().expect("recv");
        assert_eq!(status, 200);
        results.push(
            serde_json::from_str::<PredictResponse>(&body)
                .unwrap()
                .predictions,
        );
        inflight -= 1;
    }
    assert_eq!(results, direct, "scatter/gather reordered rows");

    // The fan-out histogram saw multi-shard requests.
    let s = scrape(&gw_addr);
    let (count, sum) = s.histogram_totals("lam_gateway_fanout_size", None);
    assert!(
        count > 0 && sum > count,
        "no multi-shard fan-out recorded ({count}, {sum})"
    );

    gw.stop();
    b1.stop();
    b2.stop();
}

/// One `/predict` on a fresh connection (an error answer may close it).
fn post_predict(addr: &str, body: &str) -> (u16, String) {
    let mut client = HttpClient::connect(addr).expect("connection");
    client.post("/predict", body).expect("predict round trip")
}

/// The `predictions` array text and `cache_hits` of a 200 answer. Text,
/// not parsed floats: equal text is equal bits, `-0.0` and `null`
/// included.
fn answer_parts(body: &str) -> (String, u64) {
    let predictions = body
        .split_once("\"predictions\":[")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(array, _)| array.to_string())
        .unwrap_or_else(|| panic!("no predictions array in {body}"));
    let doc: serde::Value = serde_json::from_str(body).expect("answer is json");
    let hits = match doc.get("cache_hits") {
        Some(serde::Value::Number(n)) => n.as_u64(),
        _ => None,
    };
    (predictions, hits.expect("cache_hits"))
}

#[test]
fn gateway_scatter_answers_exactly_like_a_direct_backend() {
    // Both backends share one registry, so one prediction cache: a row
    // warmed on the direct path is a hit on either shard too.
    let registry = Arc::new(ModelRegistry::new(temp_root("differential")));
    let b1 = start_backend(Arc::clone(&registry));
    let b2 = start_backend(Arc::clone(&registry));
    let direct = b1.local_addr().to_string();
    let gw = gateway_over(vec![direct.clone(), b2.local_addr().to_string()], 2);
    let gw_addr = gw.local_addr().to_string();

    let text = |row: &[f64]| serde_json::to_string(row).expect("row serializes");
    let rows: Vec<String> = wid("fmm-small")
        .sample_rows(65)
        .iter()
        .map(|r| text(r))
        .collect();
    let body = |rows: &[String]| {
        format!(
            r#"{{"workload":"fmm-small","kind":"linear","version":1,"rows":[{}]}}"#,
            rows.join(",")
        )
    };
    let all_65 = body(&rows);
    let ok_bodies = [
        // Odd whitespace and newlines inside and between rows.
        format!(
            "{{\"workload\":\"fmm-small\",\"kind\":\"linear\",\"rows\":[\n  {} ,\r\n\t{},{}\n,  [ 2.0 ,8192.0,\n64.0,\t4.0 ] ]  }}\n",
            rows[0], rows[1], rows[2]
        ),
        // Fields in another order, rows first, and an unknown field that
        // nests its own `rows` key.
        format!(
            r#"{{"rows":[{},{},{}],"extra":{{"rows":[[9]]}},"kind":"linear","version":1,"workload":"fmm-small"}}"#,
            rows[3], rows[4], rows[5]
        ),
        // A repeated `rows` key: the first one counts, on both paths.
        format!(
            r#"{{"workload":"fmm-small","kind":"linear","rows":[{},{},{}],"rows":[{}]}}"#,
            rows[6], rows[7], rows[8], rows[9]
        ),
        // Float spellings the codec must carry bit for bit.
        body(&[
            "[-0.0, 8192.0, 64.0, 4.0]".into(),
            "[2.0, 1E+2, 64.0, 4.0]".into(),
            "[2.0, 8192.0, 1e300, 4.0]".into(),
            "[5e-324, 8192.0, 64.0, 2.2250738585072014E-308]".into(),
        ]),
        // 65 rows split 33/32.
        all_65.clone(),
    ];
    for (i, b) in ok_bodies.iter().enumerate() {
        let (status, _) = post_predict(&direct, b); // warms the cache
        assert_eq!(status, 200, "body {i} warm-up failed");
        let (status, want) = post_predict(&direct, b);
        assert_eq!(status, 200, "body {i} failed direct: {want}");
        let (status, got) = post_predict(&gw_addr, b);
        assert_eq!(status, 200, "body {i} failed through the gateway: {got}");
        assert_eq!(answer_parts(&got), answer_parts(&want), "body {i} differs");
    }
    let (predictions, hits) = answer_parts(&post_predict(&gw_addr, &all_65).1);
    assert_eq!(predictions.split(',').count(), 65);
    assert_eq!(hits, 65);

    let mut wrong_arity = rows[..6].to_vec();
    wrong_arity[4] = "[2.0, 8192.0, 64.0]".into(); // in the second chunk
    let error_bodies = [
        body(&wrong_arity),
        all_65[..all_65.len() / 2].to_string(), // truncated
        body(&[rows[0].clone(), rows[1].clone(), String::new()]), // trailing comma
        body(&[rows[0].clone(), r#"[2.0, "8192", 64.0, 4.0]"#.into()]),
        body(&[rows[0].clone(), r#""row""#.into()]),
    ];
    for (i, b) in error_bodies.iter().enumerate() {
        let (want, _) = post_predict(&direct, b);
        let (got, resp) = post_predict(&gw_addr, b);
        assert!(
            (400..500).contains(&want),
            "error body {i} answered {want} direct"
        );
        assert_eq!(got, want, "error body {i} through the gateway: {resp}");
    }

    gw.stop();
    b1.stop();
    b2.stop();
}

#[test]
fn killing_a_backend_fails_over_with_zero_client_errors() {
    let root = temp_root("failover");
    let registry = Arc::new(ModelRegistry::new(root));
    let b1 = start_backend(Arc::clone(&registry));
    let b2 = start_backend(Arc::clone(&registry));
    let backends = vec![b1.local_addr().to_string(), b2.local_addr().to_string()];
    let gw = gateway_over(backends.clone(), 1);
    let gw_addr = gw.local_addr().to_string();
    let body = predict_body("fmm-small", "linear", vec![vec![2.0, 8192.0, 64.0, 4.0]]);

    // Warm the key and find its owner.
    let before = scrape(&gw_addr);
    let mut client = HttpClient::connect(&gw_addr).expect("gateway connection");
    let (status, _) = client.post("/predict", &body).expect("warm predict");
    assert_eq!(status, 200);
    let after = scrape(&gw_addr);
    let owner = delta_owner(&before, &after, &backends).to_string();

    // Kill the owning backend; every subsequent request must still be
    // answered 200 by the surviving replica (connection-level failures
    // fail over inside the gateway, invisibly to the client).
    let mut handles = vec![Some(b1), Some(b2)];
    let owner_idx = backends.iter().position(|b| *b == owner).unwrap();
    handles[owner_idx].take().unwrap().stop();
    for i in 0..30 {
        // A stopped reactor closes established keep-alive sockets, so a
        // fresh client connection per request exercises the full path.
        let mut c = HttpClient::connect(&gw_addr).expect("gateway connection");
        let (status, resp) = c.post("/predict", &body).expect("failover predict");
        assert_eq!(status, 200, "request {i} failed after backend kill: {resp}");
    }

    // The gateway noticed: the dead backend is ejected from /healthz.
    let (status, health) = client.get("/healthz").expect("gateway healthz");
    assert_eq!(status, 200);
    let health: GatewayHealthResponse = serde_json::from_str(&health).unwrap();
    assert_eq!(health.backends_healthy, 1, "dead backend was not ejected");

    gw.stop();
    for handle in handles.into_iter().flatten() {
        handle.stop();
    }
}

#[test]
fn cold_backend_fetches_artifact_from_peer_instead_of_training() {
    // This test owns ModelKind::Cart in this binary (see module docs):
    // the no-duplicate-training assertion below counts global `cart`
    // training events.
    let root_a = temp_root("peer_a");
    let root_b = temp_root("peer_b");
    let key = ModelKey::new(wid("spmv-small"), ModelKind::Cart, 1);

    // Backend A trains the artifact (the one legitimate training).
    let registry_a = Arc::new(ModelRegistry::new(root_a));
    registry_a.get(key).expect("train on A");
    let a = start_backend(Arc::clone(&registry_a));
    let a_addr = a.local_addr().to_string();

    // Backend B is cold but knows A as a peer.
    let registry_b = Arc::new(ModelRegistry::with_peers(
        root_b.clone(),
        vec![a_addr.clone()],
    ));
    let b = start_backend(registry_b);
    let b_addr = b.local_addr().to_string();

    let trained_carts = |s: &MetricsScrape| {
        s.histograms
            .iter()
            .filter(|h| h.name == "lam_train_duration_ns")
            .filter(|h| h.labels.get("kind").is_some_and(|v| v == "cart"))
            .map(|h| h.count)
            .sum::<u64>()
    };
    let peer_fetches = |s: &MetricsScrape| {
        s.counter_with_label("lam_registry_resolutions_total", ("path", "peer"))
    };

    let before = scrape(&b_addr);
    let body = predict_body(
        "spmv-small",
        "cart",
        vec![wid("spmv-small").sample_rows(1)[0].clone()],
    );
    let mut client = HttpClient::connect(&b_addr).expect("connects to B");
    let (status, resp) = client.post("/predict", &body).expect("predict on B");
    assert_eq!(status, 200, "cold predict on B failed: {resp}");
    let after = scrape(&b_addr);

    assert_eq!(
        peer_fetches(&after).saturating_sub(peer_fetches(&before)),
        1,
        "the miss was not resolved via the peer path"
    );
    assert_eq!(
        trained_carts(&after).saturating_sub(trained_carts(&before)),
        0,
        "B re-trained a model its peer already had"
    );
    // The fetched artifact was persisted locally: B now serves it from
    // disk after a "restart" (fresh registry over the same root, peers
    // gone), no peer and no training involved.
    b.stop();
    let registry_b2 = Arc::new(ModelRegistry::new(root_b));
    registry_b2
        .get(key)
        .expect("artifact replicated to B's disk");

    a.stop();
}

#[test]
fn ring_spreads_builtin_catalog_within_twice_the_mean() {
    // The acceptance balance bound: >= 64 vnodes spread the full builtin
    // (workload x kind) key set to <= 2x the mean shard, no empty shard.
    let backends: Vec<String> = (0..3).map(|i| format!("10.0.0.{i}:9000")).collect();
    let ring = HashRing::new(&backends, 64);
    let mut counts = vec![0usize; backends.len()];
    let mut keys = 0usize;
    for workload in WorkloadId::all() {
        for kind in ModelKind::all() {
            counts[ring.primary(&workload.to_string(), kind.name()).unwrap()] += 1;
            keys += 1;
        }
    }
    let mean = keys as f64 / backends.len() as f64;
    for (idx, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64) <= 2.0 * mean,
            "backend {idx} owns {c} of {keys} keys (mean {mean:.1}): {counts:?}"
        );
        assert!(c > 0, "backend {idx} owns no keys: {counts:?}");
    }
}
