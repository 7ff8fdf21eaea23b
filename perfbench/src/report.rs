//! Statistics over samples, the provenance block every result carries,
//! and the final one-line JSON result.

use std::fmt::Write as _;
use std::process::Command;

/// Value at quantile `q` (0..=1) of `sorted`, by linear interpolation.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// FNV-1a over a stream of 64-bit words: the digest printed for
/// outputs that must repeat exactly for a seed.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Where and how a result was produced.
pub fn provenance() -> String {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // A checkout without git metadata has no commit to name.
    let commit = run("git", &["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| run("git", &["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    let json_opt = |v: Option<String>| v.map_or("null".to_string(), |s| format!("{s:?}"));
    format!(
        "{{\"commit\":{},\"dirty\":{},\"date_utc\":{:?},\"nproc\":{},\"profile\":{:?},\"rustc\":{}}}",
        json_opt(commit),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        lam_obs::time::rfc3339(std::time::SystemTime::now()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        json_opt(run("rustc", &["-V"])),
    )
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Record `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}{:?}: {{\"value\": {value:?}, \"unit\": {:?}}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}
