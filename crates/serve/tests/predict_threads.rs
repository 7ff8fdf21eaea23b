//! Serving spawns no thread per request: large `/predict` requests run on
//! the batch scheduler's persistent workers, so the process's thread
//! count after warm-up is its ceiling. Alone in its test binary (its own
//! process), because it counts every thread of the process.

use lam_serve::http::{self, PredictRequest, ServerOptions};
use lam_serve::loadgen::HttpClient;
use lam_serve::registry::ModelRegistry;
use lam_serve::workload::WorkloadId;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TASKS: &str = "/proc/self/task";

fn threads() -> usize {
    std::fs::read_dir(TASKS).expect("task dir").count()
}

#[test]
fn large_requests_spawn_no_threads() {
    if !Path::new(TASKS).is_dir() {
        eprintln!("skipped: no {TASKS} on this platform");
        return;
    }
    let root = std::env::temp_dir().join("lam_serve_predict_threads");
    let _ = std::fs::remove_dir_all(&root);
    let handle = http::start(
        Arc::new(ModelRegistry::new(root)),
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            ..ServerOptions::default()
        },
    )
    .expect("server binds");
    let body = serde_json::to_string(&PredictRequest {
        workload: "fmm-small".to_string(),
        kind: "linear".to_string(),
        version: Some(1),
        rows: WorkloadId::get("fmm-small").unwrap().sample_rows(256),
    })
    .unwrap();
    let mut client = HttpClient::connect(&handle.local_addr().to_string()).expect("connects");
    // Warm-up: trains the model and starts every long-lived thread.
    let (status, answer) = client.post("/predict", &body).expect("warm-up");
    assert_eq!(status, 200, "{answer}");

    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let baseline = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        // The sampler is running: this count includes it.
        std::thread::sleep(Duration::from_millis(20));
        let baseline = threads();
        for i in 0..1000 {
            let (status, answer) = client.post("/predict", &body).expect("round trip");
            assert_eq!(status, 200, "request {i}: {answer}");
        }
        stop.store(true, Ordering::Relaxed);
        baseline
    });
    let peak = peak.load(Ordering::Relaxed);
    assert!(
        peak <= baseline,
        "thread count rose from {baseline} to {peak} while serving"
    );
    handle.stop();
}
