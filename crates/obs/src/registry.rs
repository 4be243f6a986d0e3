//! A process-wide metrics registry: named counters, gauges and
//! histograms for run-level observability.
//!
//! The simulation probes measure *what the cache did*; the registry
//! measures *what the pipeline did* — cells completed, chunks replayed,
//! per-worker busy time, bytes-read progress of the trace tools. Names
//! are dotted strings (`sweep.cells`, `worker00.busy_us`) and all maps
//! are `BTreeMap`s, so every rendering is deterministically ordered.
//!
//! Two surfaces:
//!
//! * [`MetricsRegistry`] — a plain value for unit tests and embedding.
//! * The `global_*` free functions — a `Mutex`-guarded process
//!   singleton the runner and bins update; [`snapshot`] clones it for
//!   rendering ([`MetricsRegistry::render_text`]).
//!
//! Registry updates happen at coarse boundaries only (once per cell,
//! once per progress step) — never per reference — so the lock is cold
//! and the replay fast path is untouched.

use crate::Log2Histogram;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// A named-metric store: monotonic counters, last-value gauges, and
/// log2-bucketed histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Log2Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter `name` (creating it at 0).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into the histogram `name`.
    pub fn hist_record(&mut self, name: &str, value: u64) {
        self.hists
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// The counter's current value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge's current value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram under `name`, if any sample was recorded.
    pub fn hist(&self, name: &str) -> Option<&Log2Histogram> {
        self.hists.get(name)
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// A deterministic human-readable rendering (sorted by name),
    /// suitable for an end-of-run stderr report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("metrics registry\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("  counter {name:<32} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("  gauge   {name:<32} {v:.3}\n"));
        }
        for (name, h) in &self.hists {
            out.push_str(&format!(
                "  hist    {name:<32} n={} mean={:.1}\n",
                h.total(),
                h.mean()
            ));
        }
        out
    }
}

fn global() -> &'static Mutex<MetricsRegistry> {
    static REG: OnceLock<Mutex<MetricsRegistry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(MetricsRegistry::new()))
}

/// Adds `delta` to the process-global counter `name`.
pub fn global_counter_add(name: &str, delta: u64) {
    global()
        .lock()
        .expect("registry lock")
        .counter_add(name, delta);
}

/// Sets the process-global gauge `name`.
pub fn global_gauge_set(name: &str, value: f64) {
    global()
        .lock()
        .expect("registry lock")
        .gauge_set(name, value);
}

/// Records a sample into the process-global histogram `name`.
pub fn global_hist_record(name: &str, value: u64) {
    global()
        .lock()
        .expect("registry lock")
        .hist_record(name, value);
}

/// A copy of the process-global registry.
pub fn snapshot() -> MetricsRegistry {
    global().lock().expect("registry lock").clone()
}

/// Clears the process-global registry (start of a run; tests).
pub fn reset_global() {
    *global().lock().expect("registry lock") = MetricsRegistry::new();
}

/// A step-gated progress gauge over a known total (bytes of a trace
/// file, entries of a conversion): `update` publishes the percentage
/// to the process-global gauge `name` only when a new 10% step is
/// crossed, and returns that stepped percentage so the caller can
/// print exactly one progress line per step. Long streaming commands
/// (`sact-convert`, `sac trace`) tick it per chunk — ten registry
/// writes over a multi-gigabyte run, never one per entry.
#[derive(Debug)]
pub struct ProgressGauge {
    name: String,
    total: u64,
    last_step: u64,
}

impl ProgressGauge {
    /// Step size in percent between published updates.
    pub const STEP_PCT: u64 = 10;

    /// A gauge for `current / total` progress published under `name`.
    pub fn new(name: &str, total: u64) -> Self {
        ProgressGauge {
            name: name.to_string(),
            total,
            last_step: 0,
        }
    }

    /// Records progress `current` (same unit as `total`). Returns
    /// `Some(pct)` when a new step was crossed (and the gauge was
    /// published), `None` otherwise.
    pub fn update(&mut self, current: u64) -> Option<u64> {
        let pct = 100 * current.min(self.total) / self.total.max(1);
        let step = pct / Self::STEP_PCT;
        if step <= self.last_step {
            return None;
        }
        self.last_step = step;
        let stepped = step * Self::STEP_PCT;
        global_gauge_set(&self.name, stepped as f64);
        Some(stepped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists_round_trip() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.counter_add("sweep.cells", 3);
        r.counter_add("sweep.cells", 2);
        r.gauge_set("progress_pct", 40.0);
        r.gauge_set("progress_pct", 80.0);
        r.hist_record("cell_wall_us", 100);
        r.hist_record("cell_wall_us", 300);
        assert_eq!(r.counter("sweep.cells"), 5);
        assert_eq!(r.gauge("progress_pct"), Some(80.0));
        assert_eq!(r.hist("cell_wall_us").unwrap().total(), 2);
        assert!((r.hist("cell_wall_us").unwrap().mean() - 200.0).abs() < 1e-9);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("absent"), None);
        assert!(!r.is_empty());
    }

    #[test]
    fn render_text_is_sorted_and_stable() {
        let mut r = MetricsRegistry::new();
        r.counter_add("b.second", 2);
        r.counter_add("a.first", 1);
        let text = r.render_text();
        let a = text.find("a.first").unwrap();
        let b = text.find("b.second").unwrap();
        assert!(a < b, "counters render in name order");
        assert_eq!(text, r.clone().render_text());
    }

    #[test]
    fn global_registry_accumulates_and_resets() {
        reset_global();
        global_counter_add("t.count", 1);
        global_counter_add("t.count", 1);
        global_gauge_set("t.gauge", 1.5);
        global_hist_record("t.hist", 4);
        let snap = snapshot();
        assert_eq!(snap.counter("t.count"), 2);
        assert_eq!(snap.gauge("t.gauge"), Some(1.5));
        assert_eq!(snap.hist("t.hist").unwrap().total(), 1);
        reset_global();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn progress_gauge_steps_by_ten_percent() {
        // Parallel tests share the global registry, so assert only on
        // this gauge's own key and on the returned steps.
        let mut p = ProgressGauge::new("t.progress.steps", 1000);
        assert_eq!(p.update(5), None, "below first step");
        assert_eq!(p.update(99), None);
        assert_eq!(p.update(100), Some(10));
        assert_eq!(p.update(101), None, "same step stays quiet");
        assert_eq!(p.update(349), Some(30), "skipped steps collapse");
        assert_eq!(snapshot().gauge("t.progress.steps"), Some(30.0));
        assert_eq!(p.update(2000), Some(100), "clamped past total");
        assert_eq!(p.update(u64::MAX), None, "only fires once at 100");
    }

    #[test]
    fn progress_gauge_survives_zero_total() {
        // Unknown/zero totals must not divide by zero; such a gauge
        // simply never fires (current is clamped to the total).
        let mut p = ProgressGauge::new("t.progress.zero", 0);
        assert_eq!(p.update(0), None);
        assert_eq!(p.update(1), None);
    }
}
