//! Shared helpers: seeded mixing, order statistics, the run report, the
//! benchmark's work directory and the host context line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64 finalizer: decorrelates neighbouring inputs, so
/// `mix64(seed ^ index)` gives independent-looking operand streams.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Latency histogram with 0.1 % wide logarithmic buckets from 100 ns to
/// 1000 s: constant memory however many requests a run completes, so the
/// benchmark's own bookkeeping does not move `peak_rss_mb`.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

const HIST_MIN_NS: f64 = 100.0;
const HIST_GROWTH: f64 = 1.001;
const HIST_BUCKETS: usize = 23_030; // ln(1e10) / ln(1.001)

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        let b = ((ns as f64 / HIST_MIN_NS).max(1.0).ln() / HIST_GROWTH.ln()) as usize;
        self.counts[b.min(HIST_BUCKETS - 1)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Quantile `q` in microseconds, interpolated geometrically inside
    /// the bucket by rank; NaN when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = q * (self.total - 1) as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (below + u64::from(c)) as f64 {
                let frac = (rank - below as f64 + 0.5) / f64::from(c);
                return HIST_MIN_NS * HIST_GROWTH.powf(b as f64 + frac) / 1e3;
            }
            below += u64::from(c);
        }
        HIST_MIN_NS * HIST_GROWTH.powf(HIST_BUCKETS as f64) / 1e3
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One printed metric: name, value, unit and what it was computed from.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    basis: String,
}

/// Everything one run reports: metrics in print order, and every request
/// or check attempted with the failures among them.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Report {
    /// Records a metric; `basis` says what it was computed from (sample
    /// count, repetitions), for the human-readable line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, basis: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            basis,
        });
    }

    /// Counts `n` attempted operations (requests sent, checks made).
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation and keeps its message (the first few
    /// are printed).
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg.into());
        }
    }

    /// One attempted check that passes when `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(msg());
        }
    }

    /// Whether every output was correct and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints one line per error and metric, then the result object as the
    /// last line of standard output.
    pub fn print(&self) {
        for e in &self.errors {
            println!("error: {e}");
        }
        for m in &self.metrics {
            println!("{} = {} {} ({})", m.name, m.value, m.unit, m.basis);
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value is reported as incorrect; keep the JSON valid.
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The run's work directory, `.perfbench_work/<pid>` under the current
/// directory; removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(".perfbench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when no other run shares it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Copies the regular files of a flat directory (a server state dir).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Total bytes of the regular files in a flat directory.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The host facts every result is printed with, so numbers from different
/// hosts are never compared silently: CPU count, CPU model, kernel, rustc
/// and the source commit (when the checkout is a git repository).
pub fn host_context() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = command_line("rustc", &["--version"]);
    // Stop git at the current directory: a checkout nested in some other
    // repository must not report that repository's commit.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {cpu:?}, \"kernel\": {kernel:?}, \"rustc\": {rustc:?}, \"commit\": {commit:?}}}"
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }
}
