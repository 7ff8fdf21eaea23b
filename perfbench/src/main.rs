//! `lam-perfbench`: one seeded run of one benchmark workload.
//!
//! ```text
//! lam-perfbench --workload <row-hot|batch-cold|scatter-hot|fit-sweep>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! same inputs untraced and traced, then probes every layer, and prints
//! the per-layer metrics. The last line of standard output is the JSON
//! result; the lines before it are a readable report. See `README.md`.

mod alloc;
mod client;
mod fitsweep;
mod inputs;
mod layers;
mod report;
mod serving;
mod sys;

use inputs::{Generator, Rows, Space};
use layers::m_get;
use report::{median, quantile, Metrics};
use serving::Spec;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// One in this many requests of a traced window carries a forced
/// `x-lam-trace` header.
const TRACE_EVERY: u64 = 16;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["row-hot", "batch-cold", "scatter-hot", "fit-sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: time one set-up in this fresh process, in this dir.
    setup_probe: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_probe: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--setup-probe" => args.setup_probe = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// When this process started.
fn born() -> Instant {
    static BORN: OnceLock<Instant> = OnceLock::new();
    *BORN.get_or_init(Instant::now)
}

fn main() {
    born();
    let outcome = parse_args().and_then(|args| {
        let work = Path::new(".bench_build").join(format!("perfbench-{}", std::process::id()));
        let out = run(&args, &work);
        let _ = std::fs::remove_dir_all(&work);
        out
    });
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("lam-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    if let Some(dir) = &args.setup_probe {
        return setup_once(args, dir).map(|s| format!("setup_s {s:?}"));
    }
    println!("provenance {}", report::provenance());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    match serving::spec(&args.workload) {
        Some(spec) => serve_workload(args, &spec, work),
        None => fit_workload(args, work),
    }
}

/// The generator of a serving workload.
fn generator<'a>(spec: &Spec, seed: u64, space: &'a Space) -> Generator<'a> {
    Generator {
        seed,
        space,
        rows: spec.rows,
        batch: spec.batch,
    }
}

/// One set-up, in this (fresh) process: servers on an empty models
/// directory up to the first verified answer, or the sweep's datasets.
fn setup_once(args: &Args, dir: &Path) -> Result<f64, String> {
    match serving::spec(&args.workload) {
        Some(spec) => {
            let space = Space::serving();
            serving::setup_probe(&spec, &generator(&spec, args.seed, &space), dir, born())
        }
        None => {
            let scenarios = fitsweep::setup();
            let secs = born().elapsed().as_secs_f64();
            let ok = scenarios
                .iter()
                .all(|s| !s.data.is_empty() && s.data.response().iter().all(|y| *y > 0.0));
            ok.then_some(secs)
                .ok_or_else(|| "empty or non-positive dataset".into())
        }
    }
}

/// Median `setup_s` over [`SETUP_REPS`] fresh processes.
fn setup_seconds(args: &Args, work: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    for i in 0..SETUP_REPS {
        let dir = work.join(format!("setup-{i}"));
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .arg("--setup-probe")
            .arg(&dir)
            .output()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let secs = stdout
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                )
            })?;
        samples.push(secs);
    }
    println!("setup_s samples {samples:?}");
    Ok(median(&samples))
}

/// Forced-trace header for request `k` of a traced window.
fn trace_header(_conn: u64, k: u64) -> Option<String> {
    k.is_multiple_of(TRACE_EVERY).then(|| {
        lam_obs::trace::TraceContext::root()
            .with_force()
            .header_value()
    })
}

fn untraced(_conn: u64, _k: u64) -> Option<String> {
    None
}

fn print_pass(label: &str, r: &serving::PassResult) {
    println!(
        "{label}: {} requests ({} untimed before), {} rows in {:.3} s: {:.0} rows/s, p50 {:.4} ms, p99 {:.4} ms \
         (samples {}), failed {} (mismatched {}), failed_frac {:.6}, cache hit share {:.4}, \
         cpu {:.3} s, peak rss {:.1} MiB, peak heap {:.1} MiB, generator delay p99 {:.1} us, \
         shed {}",
        r.requests,
        r.fill_requests,
        r.rows,
        r.wall.as_secs_f64(),
        r.rows_per_s(),
        r.latency_ms(0.5),
        r.latency_ms(0.99),
        r.latency_ns.len(),
        r.failed,
        r.mismatched,
        r.failed as f64 / r.requests.max(1) as f64,
        r.cache_hits as f64 / (r.rows + r.mismatched).max(1) as f64,
        r.cpu_s,
        r.peak_rss_mb,
        r.peak_heap_mb,
        quantile(&r.late_ns, 0.99) / 1e3,
        r.shed,
    );
    println!(
        "{label}: per slice [rows/s, p50 ms, p90 ms, p99 ms]: {:?}",
        r.slices
    );
    let phases: Vec<String> = r
        .phases
        .iter()
        .map(|(p, us)| format!("{p} {us:.2}"))
        .collect();
    println!(
        "{label}: server phases (us/request, /metrics.json view): {}",
        phases.join(", ")
    );
}

fn serve_workload(args: &Args, spec: &Spec, work: &Path) -> Result<String, String> {
    let space = Space::serving();
    let gen = generator(spec, args.seed, &space);
    let window = Duration::from_secs_f64(args.seconds);
    let mut m = Metrics::default();
    if !args.trace {
        let setup_s = setup_seconds(args, work)?;
        let (r, servers) = serving::run_pass(spec, &gen, &work.join("servers"), window, &untraced)?;
        servers.stop();
        print_pass("window", &r);
        m.put("rows_per_s", r.slice_median(0), "1/s");
        m.put("p50_ms", r.slice_median(1), "ms");
        m.put("p90_ms", r.slice_median(2), "ms");
        m.put("cpu_us_per_row", r.cpu_s * 1e6 / r.rows.max(1) as f64, "us");
        m.put("peak_heap_mb", r.peak_heap_mb, "MiB");
        m.put("setup_s", setup_s, "s");
        let attempted = r.requests + r.fill_requests;
        return Ok(report::result_line(r.failed == 0, attempted, r.failed, &m));
    }
    // Traced run: the same inputs untraced, then traced, each on fresh
    // servers, then the layer probes while nothing else runs.
    let half = window / 2;
    let (plain, servers) = serving::run_pass(spec, &gen, &work.join("plain"), half, &untraced)?;
    servers.stop();
    print_pass("untraced", &plain);
    let (traced, servers) =
        serving::run_pass(spec, &gen, &work.join("traced"), half, &trace_header)?;
    servers.stop();
    print_pass("traced", &traced);
    layers::serving_layers(&gen, &work.join("probes"), &mut m)?;
    layers::fit_layers(args.seed, &mut m);
    let predict_us = plain
        .phases
        .iter()
        .find(|(p, _)| *p == "predict")
        .map_or(0.0, |p| p.1);
    println!(
        "server \"predict\" phase {predict_us:.2} us/request against, from outside: scheduler \
         handoff {:.2} us, cache hit {:.0} ns/row, engine {:.0} ns/row",
        m_get(&m, "core.scheduler.handoff_us"),
        m_get(&m, "core.cache.hit_ns_per_row"),
        m_get(&m, "core.batch.engine_ns_per_row"),
    );
    for (phase, us) in &plain.phases {
        m.put(format!("server.phase.{phase}_us"), *us, "us");
    }
    m.put("serve.reactor.shed", plain.shed as f64, "count");
    let path_us = match spec.topology {
        serving::Topology::Direct => m_get(&m, "serve.direct_path_us"),
        serving::Topology::Gateway => {
            m_get(&m, "serve.cluster.gateway_self_us") + m_get(&m, "serve.cluster.shard_us")
        }
    };
    m.put("residual_us", plain.latency_ms(0.5) * 1e3 - path_us, "us");
    m.put(
        "loadgen.late_p99_us",
        quantile(&plain.late_ns, 0.99) / 1e3,
        "us",
    );
    m.put("loadgen.samples", plain.latency_ns.len() as f64, "count");
    m.put("loadgen.p99_ms", plain.slice_median(3), "ms");
    m.put(
        "trace.overhead_p50_us",
        (traced.latency_ms(0.5) - plain.latency_ms(0.5)) * 1e3,
        "us",
    );
    m.put(
        "trace.overhead_rows_frac",
        1.0 - traced.rows_per_s() / plain.rows_per_s(),
        "ratio",
    );
    print_metrics(&m);
    let failed = plain.failed + traced.failed;
    let attempted = plain.requests + plain.fill_requests + traced.requests + traced.fill_requests;
    Ok(report::result_line(failed == 0, attempted, failed, &m))
}

/// One sweep window: passes, their per-fit latencies, and checks.
struct SweepWindow {
    passes: Vec<fitsweep::Pass>,
    wall: Duration,
    cpu_s: f64,
    peak_rss_mb: f64,
    peak_heap_mb: f64,
    fit_ms: Vec<f64>,
    rows: u64,
    failed: u64,
}

impl SweepWindow {
    fn run(scenarios: &[fitsweep::Scenario], seed: u64, window: Duration) -> Self {
        sys::reset_peak_rss();
        alloc::reset_peak();
        let cpu0 = sys::cpu_seconds();
        let (passes, wall) = fitsweep::run(scenarios, seed, window);
        let cpu_s = sys::cpu_seconds() - cpu0;
        let peak_rss_mb = sys::peak_rss_mb();
        let peak_heap_mb = alloc::peak_bytes() as f64 / (1 << 20) as f64;
        let cells = passes.iter().flat_map(|p| &p.cells);
        let mut fit_ms: Vec<f64> = cells
            .clone()
            .map(|c| (c.fit_ns + c.predict_ns) as f64 / 1e6)
            .collect();
        fit_ms.sort_by(f64::total_cmp);
        let rows = cells.map(|c| c.rows).sum();
        // Every pass must reproduce the first pass's scores exactly, and
        // the hybrid must win on every gated (scenario, window).
        let mut failed = 0;
        for p in &passes {
            if p.digest != passes[0].digest {
                failed += fitsweep::FITS_PER_PASS as u64;
            }
            failed += (fitsweep::claim_failures(&p.scores).len() * 2 * fitsweep::TRIALS) as u64;
        }
        Self {
            passes,
            wall,
            cpu_s,
            peak_rss_mb,
            peak_heap_mb,
            fit_ms,
            rows,
            failed,
        }
    }

    fn fits(&self) -> u64 {
        self.fit_ms.len() as u64
    }

    fn rows_per_s(&self) -> f64 {
        self.rows as f64 / self.wall.as_secs_f64()
    }

    /// Median over passes of `f`. Every pass runs the same cells, so a
    /// stall of the host moves one pass, not the result.
    fn pass_median(&self, f: impl Fn(&fitsweep::Pass) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }

    fn print(&self, label: &str) {
        println!(
            "{label}: {} passes, {} fits in {:.3} s: {:.1} fits/s, {:.0} held-out rows/s, \
             fit+predict p50 {:.3} ms p99 {:.3} ms (samples {}), failed {}, cpu {:.3} s, \
             peak rss {:.1} MiB, peak heap {:.1} MiB",
            self.passes.len(),
            self.fits(),
            self.wall.as_secs_f64(),
            self.fits() as f64 / self.wall.as_secs_f64(),
            self.rows_per_s(),
            quantile(&self.fit_ms, 0.5),
            quantile(&self.fit_ms, 0.99),
            self.fit_ms.len(),
            self.failed,
            self.cpu_s,
            self.peak_rss_mb,
            self.peak_heap_mb,
        );
        let first = &self.passes[0];
        println!("{label}: score digest {:016x}", first.digest);
        for s in &first.scores {
            println!(
                "  {:<22} {:<11} {:>4.0}%  median MAPE {:>8.2}",
                s.scenario,
                s.family.label(),
                s.fraction * 100.0,
                s.median_mape
            );
        }
        for (sc, f, hy, et) in fitsweep::claim_failures(&first.scores) {
            println!(
                "  CLAIM FAILED: {sc} at {:.0}%: hybrid {hy:.2} >= extra-trees {et:.2}",
                f * 100.0
            );
        }
    }
}

fn fit_workload(args: &Args, work: &Path) -> Result<String, String> {
    let window = Duration::from_secs_f64(args.seconds);
    let mut m = Metrics::default();
    if !args.trace {
        let setup_s = setup_seconds(args, work)?;
        let scenarios = fitsweep::setup();
        let w = SweepWindow::run(&scenarios, args.seed, window);
        w.print("window");
        m.put(
            "rows_per_s",
            w.pass_median(fitsweep::Pass::rows_per_s),
            "1/s",
        );
        m.put("p50_ms", w.pass_median(|p| p.call_ms(0.5)), "ms");
        m.put("p90_ms", w.pass_median(|p| p.call_ms(0.9)), "ms");
        m.put("cpu_us_per_row", w.cpu_s * 1e6 / w.rows.max(1) as f64, "us");
        m.put("peak_heap_mb", w.peak_heap_mb, "MiB");
        m.put("setup_s", setup_s, "s");
        return Ok(report::result_line(w.failed == 0, w.fits(), w.failed, &m));
    }
    let scenarios = fitsweep::setup();
    let plain = SweepWindow::run(&scenarios, args.seed, window / 2);
    plain.print("untraced");
    let traced = SweepWindow::run(&scenarios, args.seed, window / 2);
    traced.print("traced");
    // The serving probes run on batch-cold's request shape: the sweep
    // predicts unseen rows in bulk.
    let space = Space::serving();
    let gen = Generator {
        seed: args.seed,
        space: &space,
        rows: Rows::Cold,
        batch: 256,
    };
    // No server runs in this workload: the server-side view is that of
    // the cluster probe's backends.
    let (phases, shed) = layers::serving_layers(&gen, &work.join("probes"), &mut m)?;
    layers::fit_layers(args.seed, &mut m);
    for (phase, us) in phases {
        m.put(format!("server.phase.{phase}_us"), us, "us");
    }
    m.put("serve.reactor.shed", shed as f64, "count");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let cell_us: f64 = plain.fit_ms.iter().sum::<f64>() * 1e3 / plain.fits() as f64;
    let slot_us = plain.wall.as_secs_f64() * 1e6 * cores / plain.fits() as f64;
    m.put("residual_us", slot_us - cell_us, "us");
    let mut gaps: Vec<f64> = plain
        .passes
        .iter()
        .flat_map(|p| p.gaps_ns.iter().map(|&g| g as f64))
        .collect();
    gaps.sort_by(f64::total_cmp);
    m.put("loadgen.late_p99_us", quantile(&gaps, 0.99) / 1e3, "us");
    m.put("loadgen.samples", plain.fits() as f64, "count");
    m.put("loadgen.p99_ms", quantile(&plain.fit_ms, 0.99), "ms");
    m.put(
        "trace.overhead_p50_us",
        (quantile(&traced.fit_ms, 0.5) - quantile(&plain.fit_ms, 0.5)) * 1e3,
        "us",
    );
    m.put(
        "trace.overhead_rows_frac",
        1.0 - traced.rows_per_s() / plain.rows_per_s(),
        "ratio",
    );
    print_metrics(&m);
    let failed = plain.failed + traced.failed;
    Ok(report::result_line(
        failed == 0,
        plain.fits() + traced.fits(),
        failed,
        &m,
    ))
}

fn print_metrics(m: &Metrics) {
    for x in &m.0 {
        println!("  {:<42} {:>14.4} {}", x.name, x.value, x.unit);
    }
}
