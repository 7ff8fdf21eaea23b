//! The traced run's per-layer probes. Each probe calls one layer's
//! public entry point from outside, on requests of the workload's own
//! shape drawn from the workload's seed, and reports time (and, where it
//! matters, heap bytes) per call or per row. Probes run while no load is
//! applied, one at a time.

use crate::alloc;
use crate::client::{self, Conn};
use crate::inputs::{draw, Generator, KIND, WORKLOAD};
use crate::report::{median, Metrics};
use crate::serving::{model_key, ServerView, Servers, Topology};
use lam_core::batch::{BatchEngine, BatchScheduler, PredictionCache, SchedulerOptions};
use lam_core::evaluate::{evaluate_model, EvaluationConfig};
use lam_ml::metrics::mape;
use lam_ml::rng::derive_seeds;
use lam_ml::sampling::train_test_split_fraction;
use lam_obs::trace::TraceContext;
use lam_serve::http::{PredictRequest, PredictResponse};
use lam_serve::persist::SavedModel;
use lam_serve::registry::ModelRegistry;
use lam_serve::route::HashRing;
use std::hint::black_box;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Requests each probe cycles through.
const PROBE_REQUESTS: u64 = 64;
/// Connection id of the probe stream, outside every timed stream.
const PROBE_CONN: u64 = 1 << 21;
/// Least time each timing loop runs.
const MIN_PROBE: Duration = Duration::from_millis(30);
/// Forced-trace requests the cluster probe sends.
const CLUSTER_REQUESTS: u64 = 100;

/// Run `round` (which times its own inner work and reports how many
/// units it covered) until at least [`MIN_PROBE`] of timed work and
/// three rounds; nanoseconds per unit.
fn per_unit(mut round: impl FnMut() -> (Duration, u64)) -> f64 {
    let (mut spent, mut units, mut rounds) = (Duration::ZERO, 0u64, 0);
    while spent < MIN_PROBE || rounds < 3 {
        let (d, n) = round();
        spent += d;
        units += n;
        rounds += 1;
    }
    spent.as_nanos() as f64 / units.max(1) as f64
}

/// Time one pass of `f` over `items`; inputs and results go through
/// `black_box` so the measured work cannot be folded away.
fn timed<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> Duration {
    let t = Instant::now();
    for item in items {
        black_box(f(black_box(item)));
    }
    t.elapsed()
}

/// Median milliseconds of `reps` calls of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The probe's inputs: requests of the workload's shape.
struct Probe {
    bodies: Vec<String>,
    http: Vec<Vec<u8>>,
    rows: Vec<Vec<Vec<f64>>>,
    n_rows: u64,
}

impl Probe {
    fn new(gen: &Generator) -> Self {
        let ks = 0..PROBE_REQUESTS;
        let bodies: Vec<String> = ks
            .clone()
            .map(|k| {
                let mut b = String::new();
                gen.write_body(PROBE_CONN, k, &mut b);
                b
            })
            .collect();
        let http = ks
            .clone()
            .map(|k| gen.request(PROBE_CONN, k, "probe:1", None))
            .collect();
        let rows: Vec<_> = ks.map(|k| gen.rows_of(PROBE_CONN, k)).collect();
        let n_rows = rows.iter().map(|r| r.len() as u64).sum();
        Self {
            bodies,
            http,
            rows,
            n_rows,
        }
    }

    fn flat_rows(&self) -> Vec<&[f64]> {
        self.rows.iter().flatten().map(Vec::as_slice).collect()
    }
}

/// The servers' own per-phase view of the cluster probe's traffic, µs
/// per request, and the requests they shed.
pub type ProbeView = (Vec<(&'static str, f64)>, u64);

/// Serving-stack probes: wire, codec, validation, registry, persistence,
/// cache, engine, scheduler, inference, routing and the cluster.
pub fn serving_layers(gen: &Generator, dir: &Path, m: &mut Metrics) -> Result<ProbeView, String> {
    let probe = Probe::new(gen);
    let per_request_rows = gen.batch as f64;

    // serve.proto: HTTP framing in, response framing out.
    let parse_ns = per_unit(|| {
        let mut bufs = probe.http.clone();
        let mut parser = lam_serve::proto::RequestParser::new(8 << 20);
        let t = Instant::now();
        for buf in &mut bufs {
            match parser.poll(buf) {
                lam_serve::proto::ParseStep::Request(r) => drop(black_box(r)),
                _ => panic!("probe request did not parse"),
            }
        }
        (t.elapsed(), bufs.len() as u64)
    });
    m.put("serve.proto.parse_ns", parse_ns, "ns");

    // Reference answers double as the response bodies to encode.
    let key = model_key();
    let registry = ModelRegistry::new(dir.join("registry-0"));
    let cold_resolves: Vec<f64> = (0..3)
        .map(|i| {
            let fresh = ModelRegistry::new(dir.join(format!("registry-{i}")));
            let t = Instant::now();
            fresh.get(key).map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cold resolve: {e}"))?;
    m.put(
        "serve.registry.cold_resolve_ms",
        median(&cold_resolves),
        "ms",
    );
    let loaded = registry.get(key).map_err(|e| e.to_string())?;
    let path = registry.path_for(key);
    let load = || SavedModel::load(&path).map_err(|e| e.to_string());
    let interp = load()?.into_interpreted_predictor();
    let responses: Vec<String> = probe
        .rows
        .iter()
        .map(|rows| {
            serde_json::to_string(&PredictResponse {
                model: key.to_string(),
                predictions: rows.iter().map(|r| interp.predict_row(r)).collect(),
                cache_hits: 0,
                micros: 100,
            })
            .expect("response encodes")
        })
        .collect();
    let encode_ns = per_unit(|| {
        let t = timed(&responses, |body| {
            lam_serve::proto::encode_response(200, "application/json", body.as_bytes(), true, None)
        });
        (t, responses.len() as u64)
    });
    m.put("serve.proto.encode_ns", encode_ns, "ns");

    // serve.http: the JSON codec on both sides, with heap bytes.
    let mut decode_bytes = 0;
    let decode_ns = per_unit(|| {
        let before = alloc::thread_bytes();
        let t = timed(&probe.bodies, |b| {
            serde_json::from_str::<PredictRequest>(b).expect("probe body decodes")
        });
        decode_bytes = alloc::thread_bytes() - before;
        (t, probe.n_rows)
    });
    m.put("serve.http.decode_ns_per_row", decode_ns, "ns");
    m.put(
        "serve.http.decode_alloc_bytes_per_row",
        decode_bytes as f64 / probe.n_rows as f64,
        "bytes",
    );
    let decoded: Vec<PredictResponse> = responses
        .iter()
        .map(|r| serde_json::from_str(r).expect("response decodes"))
        .collect();
    let mut encode_bytes = 0;
    let encode_row_ns = per_unit(|| {
        let before = alloc::thread_bytes();
        let t = timed(&decoded, |r| serde_json::to_string(r).expect("encodes"));
        encode_bytes = alloc::thread_bytes() - before;
        (t, probe.n_rows)
    });
    m.put("serve.http.encode_ns_per_row", encode_row_ns, "ns");
    m.put(
        "serve.http.encode_alloc_bytes_per_row",
        encode_bytes as f64 / probe.n_rows as f64,
        "bytes",
    );

    // serve.batch: row validation.
    let arity = gen.space.arity();
    let validate_ns = per_unit(|| {
        let t = timed(&probe.rows, |rows| {
            lam_serve::batch::validate_rows(arity, rows).expect("probe rows valid")
        });
        (t, probe.n_rows)
    });
    m.put("serve.batch.validate_ns_per_row", validate_ns, "ns");

    // serve.registry / persist.
    let resolve_ns = per_unit(|| {
        let t = Instant::now();
        for _ in 0..1000 {
            black_box(registry.get(black_box(key)).expect("memo hit"));
        }
        (t.elapsed(), 1000)
    });
    m.put("serve.registry.resolve_ns", resolve_ns, "ns");
    let load_ms = median_ms(5, || {
        let saved = load().expect("artifact loads");
        black_box(saved.into_predictor().expect("artifact compiles"));
    });
    m.put("serve.persist.load_ms", load_ms, "ms");

    // ml / analytical inference, one row at a time.
    let flat = probe.flat_rows();
    let eval = |f: &dyn Fn(&[f64]) -> f64| {
        per_unit(|| {
            let t = timed(&flat, |r| f(r));
            (t, flat.len() as u64)
        })
    };
    m.put(
        "ml.compile.eval_ns_per_row",
        eval(&|r| loaded.predict_row_uncached(r)),
        "ns",
    );
    m.put(
        "ml.interp.eval_ns_per_row",
        eval(&|r| interp.predict_row(r)),
        "ns",
    );
    let am = key.workload.entry().workload().analytical_model();
    m.put(
        "analytical.predict_ns_per_row",
        eval(&|r| am.predict(r)),
        "ns",
    );

    // core.cache: lookups and inserts on a fresh cache.
    let hit_ns = per_unit(|| {
        let cache = PredictionCache::new(lam_core::batch::DEFAULT_MICRO_BATCH);
        for r in &flat {
            cache.insert(r, 1.0);
        }
        let t = timed(&flat, |r| cache.get(r).expect("inserted"));
        (t, flat.len() as u64)
    });
    m.put("core.cache.hit_ns_per_row", hit_ns, "ns");
    let miss_ns = per_unit(|| {
        let cache = PredictionCache::new(lam_core::batch::DEFAULT_MICRO_BATCH);
        let t = timed(&flat, |r| cache.get(r));
        (t, flat.len() as u64)
    });
    m.put("core.cache.miss_ns_per_row", miss_ns, "ns");
    let insert_ns = per_unit(|| {
        let cache = PredictionCache::new(lam_core::batch::DEFAULT_MICRO_BATCH);
        let t = timed(&flat, |r| cache.insert(r, 1.0));
        (t, flat.len() as u64)
    });
    m.put("core.cache.insert_ns_per_row", insert_ns, "ns");

    // core.batch: the engine at the workload's batch size, fresh cache.
    let compiled = load()?.into_predictor().map_err(|e| e.to_string())?;
    let mut first_stats = None;
    let mut engine_bytes = 0;
    let engine_ns = per_unit(|| {
        let engine = BatchEngine::default();
        let before = alloc::total_bytes();
        let t = timed(&probe.rows, |rows| engine.predict(&*compiled, rows));
        engine_bytes = alloc::total_bytes() - before;
        first_stats.get_or_insert((engine.cache().stats(), engine.cache().len()));
        (t, probe.n_rows)
    });
    let (stats, entries) = first_stats.expect("one round ran");
    m.put("core.batch.engine_ns_per_row", engine_ns, "ns");
    m.put(
        "core.batch.engine_alloc_bytes_per_row",
        engine_bytes as f64 / probe.n_rows as f64,
        "bytes",
    );
    m.put(
        "core.cache.hit_frac",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
    m.put("core.cache.entries", entries as f64, "count");

    scheduler_probe(&probe, &loaded, m);

    // serve.route.
    let ring = HashRing::new(&["127.0.0.1:40001".into(), "127.0.0.1:40002".into()], 64);
    let candidates_ns = per_unit(|| {
        let t = Instant::now();
        for _ in 0..1000 {
            black_box(ring.candidates(black_box(WORKLOAD), KIND));
        }
        (t.elapsed(), 1000)
    });
    m.put("serve.route.candidates_ns", candidates_ns, "ns");

    let view = cluster_probe(gen, &dir.join("cluster"), m)?;

    // Blocking-path sum of one request outside the gateway, for the
    // residual; the gateway path sums its own self time and legs.
    let predict_us = if gen.batch < lam_core::batch::DEFAULT_MICRO_BATCH {
        m_get(m, "core.scheduler.handoff_us")
    } else {
        engine_ns * per_request_rows / 1e3
    };
    let path_us = (parse_ns
        + encode_ns
        + resolve_ns
        + (decode_ns + validate_ns + encode_row_ns) * per_request_rows)
        / 1e3
        + predict_us;
    m.put("serve.direct_path_us", path_us, "us");
    Ok(view)
}

/// Value of an already recorded metric.
pub fn m_get(m: &Metrics, name: &str) -> f64 {
    m.0.iter()
        .find(|x| x.name == name)
        .map_or(f64::NAN, |x| x.value)
}

/// core.scheduler: one producer's submit → completion handoff, then two
/// concurrent producers for the coalescing histograms.
fn scheduler_probe(probe: &Probe, loaded: &Arc<lam_serve::registry::LoadedModel>, m: &mut Metrics) {
    // Warm the model's cache so the probe times the handoff, not model
    // evaluation.
    for rows in &probe.rows {
        drop(loaded.predict(rows));
    }
    let sched = BatchScheduler::new(SchedulerOptions::default());
    let target: Arc<dyn lam_core::batch::BatchTarget> = loaded.clone();
    let submit = |rows: &Vec<Vec<f64>>| {
        let rows = rows.clone();
        let (tx, rx) = mpsc::channel();
        let t = Instant::now();
        let permit = sched.try_reserve(rows.len()).expect("probe fits the queue");
        permit.submit(
            Arc::clone(&target),
            rows,
            Box::new(move |o| {
                let _ = tx.send(o.predictions.len());
            }),
        );
        rx.recv().expect("completion runs");
        t.elapsed()
    };
    let handoff_ns = per_unit(|| {
        let spent = probe.rows.iter().map(submit).sum();
        (spent, probe.rows.len() as u64)
    });
    m.put("core.scheduler.handoff_us", handoff_ns / 1e3, "us");

    let reg = lam_obs::global();
    let labels = [("scope", "sched")];
    let hists = [
        reg.histogram("lam_batch_queue_wait_ns", "", &labels),
        reg.histogram("lam_batch_occupancy", "", &labels),
        reg.histogram("lam_batch_flush_rows", "", &labels),
    ];
    let before: Vec<(u64, u64)> = hists.iter().map(|h| (h.count(), h.sum())).collect();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..4 {
                    for rows in &probe.rows {
                        submit(rows);
                    }
                }
            });
        }
    });
    let means: Vec<f64> = hists
        .iter()
        .zip(&before)
        .map(|(h, (c, s))| (h.sum() - s) as f64 / (h.count() - c).max(1) as f64)
        .collect();
    m.put("core.scheduler.queue_wait_us", means[0] / 1e3, "us");
    m.put("core.scheduler.occupancy", means[1], "count");
    m.put("core.scheduler.rows_per_flush", means[2], "count");
    sched.shutdown();
}

/// serve.cluster: requests of the workload's shape through a gateway
/// over two backends (two replicas), each with a forced trace fetched
/// back from the gateway's `/traces/{id}`.
fn cluster_probe(gen: &Generator, dir: &Path, m: &mut Metrics) -> Result<ProbeView, String> {
    let servers = Servers::start(Topology::Gateway, dir)?;
    let host = servers.addr.to_string();
    let fanout = lam_obs::global().histogram("lam_gateway_fanout_size", "", &[]);
    let mut conn = Conn::connect(servers.addr).map_err(|e| e.to_string())?;
    // Untimed: trains on both backends.
    conn.call(&gen.request(PROBE_CONN + 1, 0, &host, None))
        .map_err(|e| e.to_string())?;
    let (c0, s0) = (fanout.count(), fanout.sum());
    let view = ServerView::begin();
    let (mut shard_us, mut self_us) = (Vec::new(), Vec::new());
    for k in 0..CLUSTER_REQUESTS {
        let ctx = TraceContext::root().with_force();
        let answer = conn
            .call(&gen.request(PROBE_CONN, k, &host, Some(&ctx.header_value())))
            .map_err(|e| e.to_string())?;
        if answer.status != 200 || client::parse_predictions(&answer.body).is_none() {
            servers.stop();
            return Err(format!("cluster probe answer: status {}", answer.status));
        }
        let trace = conn
            .get(&format!("/traces/{:032x}", ctx.trace_id))
            .map_err(|e| e.to_string())?;
        let spans = span_durations(&String::from_utf8_lossy(&trace.body));
        let longest = |name: &str| {
            spans
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, d)| *d)
                .fold(None, |a: Option<f64>, d| Some(a.map_or(d, |a| a.max(d))))
        };
        if let (Some(req), Some(shard)) = (longest("gateway.request"), longest("gateway.shard")) {
            shard_us.push(shard / 1e3);
            self_us.push((req - shard) / 1e3);
        }
    }
    let legs = (fanout.sum() - s0) as f64 / (fanout.count() - c0).max(1) as f64;
    let view = view.end();
    servers.stop();
    if shard_us.is_empty() {
        return Err("cluster probe: no gateway spans retained".into());
    }
    m.put("serve.cluster.fanout", legs, "count");
    m.put("serve.cluster.shard_us", median(&shard_us), "us");
    m.put("serve.cluster.gateway_self_us", median(&self_us), "us");
    Ok(view)
}

/// `(name, duration_ns)` of every span in a `/traces/{id}` body.
fn span_durations(json: &str) -> Vec<(String, f64)> {
    json.split("{\"trace_id\"")
        .skip(1)
        .filter_map(|span| {
            let name_at = span.find("\"name\":\"")? + "\"name\":\"".len();
            let name = &span[name_at..name_at + span[name_at..].find('"')?];
            let dur_at = span.find("\"duration_ns\":")? + "\"duration_ns\":".len();
            let dur: f64 = span[dur_at..]
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()?;
            Some((name.to_string(), dur))
        })
        .collect()
}

/// Write-side probes on the serving scenario: dataset sweep, one fit of
/// each family at 4%, held-out prediction, and how well
/// `evaluate_model` keeps the cores busy.
pub fn fit_layers(seed: u64, m: &mut Metrics) {
    use crate::fitsweep::{model, Family};
    let entry = model_key().workload.entry();
    let mut data = None;
    let dataset_ms = median_ms(5, || data = Some(entry.workload().generate_dataset()));
    let data = data.expect("generated");
    m.put("data.dataset_ms", dataset_ms, "ms");
    let (train, test) = train_test_split_fraction(&data, 0.04, draw(seed, 0xF17, 1, 0));
    for family in [Family::Hybrid, Family::ExtraTrees] {
        let mut fitted = None;
        let ms = median_ms(3, || {
            let mut mdl = model(&entry, family, seed);
            mdl.fit(&train).expect("fit");
            fitted = Some(mdl);
        });
        m.put(format!("ml.fit_ms.{}", family.label()), ms, "ms");
        if family == Family::Hybrid {
            let mdl = fitted.expect("fitted");
            let ns = per_unit(|| {
                let t = Instant::now();
                let p = mdl.predict(&test);
                assert!(p.iter().all(|v| v.is_finite()));
                (t.elapsed(), test.len() as u64)
            });
            m.put("ml.predict_ns_per_row", ns, "ns");
        }
    }
    // Sequential cells against the parallel protocol on the same seeds.
    let config = EvaluationConfig::new(vec![0.02, 0.04], 4, draw(seed, 0xE7A1, 0, 0));
    let seeds = derive_seeds(config.seed, config.trials * config.train_fractions.len());
    let t = Instant::now();
    for (i, &s) in seeds.iter().enumerate() {
        let fraction = config.train_fractions[i / config.trials];
        let (tr, te) = train_test_split_fraction(&data, fraction, s);
        let mut mdl = model(&entry, Family::Hybrid, s);
        mdl.fit(&tr).expect("fit");
        let preds = mdl.predict(&te);
        assert!(mape(te.response(), &preds).is_ok());
    }
    let sequential = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(evaluate_model(&data, &config, |s| {
        model(&entry, Family::Hybrid, s)
    }));
    let parallel = t.elapsed().as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    m.put(
        "core.evaluate.parallel_efficiency",
        sequential / (parallel * cores),
        "ratio",
    );
}
