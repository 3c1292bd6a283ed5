//! Metric records, order statistics and process-level measurements.

use std::time::Duration;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (tracing off).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run plus the untimed counters).
    pub layers: Vec<Metric>,
    /// Operations attempted in the timed section.
    pub attempted: u64,
    /// Errors, rejections and reference mismatches.
    pub failed: u64,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a per-layer time in milliseconds.
    pub fn layer_ms(&mut self, name: &str, d: Duration) {
        self.layer(name, ms(d), "ms");
    }

    /// Counts one reference mismatch and says which.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 40 {
            self.notes.push(format!("MISMATCH {what}"));
        }
    }
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolation quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a sample in place (NaN-free input) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of durations, in seconds.
pub fn median_secs(d: &[Duration]) -> f64 {
    quantile(&sorted(d.iter().map(Duration::as_secs_f64).collect()), 0.5)
}

/// Fewest latency samples behind a reported p90: ten beyond it.
pub const MIN_P90_SAMPLES: usize = 100;

/// This process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets the peak resident set to the current one, so a workload's
/// peak excludes what ran before it in the same process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
