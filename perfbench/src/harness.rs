//! Pieces every workload shares: reported metrics, harness-side spans,
//! the output checker, and small statistics and formatting helpers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One reported number: name, value as measured, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A growing list of metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Harness-side spans around the public calls the benchmark makes. When
/// on, each call's name and duration is recorded in memory, in call
/// order.
pub struct Spans {
    on: bool,
    list: Vec<(String, Duration)>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            list: Vec::new(),
        }
    }

    pub fn run<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.timed(name, f).0
    }

    /// As [`Spans::run`], also returning the call's duration, which is
    /// measured whether or not spans are on.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        if self.on {
            self.list.push((name.to_string(), d));
        }
        (r, d)
    }

    /// Seconds spent in every recorded span.
    pub fn total_all(&self) -> f64 {
        self.list.iter().map(|(_, d)| d.as_secs_f64()).sum()
    }

    /// Seconds spent in every span named exactly `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.list
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, d)| d.as_secs_f64())
            .sum()
    }
}

/// Checks every output of a run. An operation passes when its value
/// equals (a) the recorded expected value, where the run's inputs have
/// one, (b) the value the same operation produced earlier in this run,
/// and (c) any independent oracle the caller evaluated.
pub struct Checker {
    recorded: Option<BTreeMap<String, String>>,
    seen: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Checker {
    /// `recorded` is the text of an expected-values file (one
    /// `key value` pair a line), or `None` for inputs nothing was
    /// recorded for.
    pub fn new(recorded: Option<&str>) -> Self {
        Checker {
            recorded: recorded.map(parse_recorded),
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Whether outputs are compared against recorded values.
    pub fn has_recorded(&self) -> bool {
        self.recorded.is_some()
    }

    /// Counts one operation and checks its output `value` under `key`;
    /// `oracle` is the caller's independent check (`Err` = mismatch).
    pub fn op(&mut self, key: &str, value: String, oracle: Result<(), String>) {
        self.attempted += 1;
        let mut problem = oracle.err();
        if problem.is_none() {
            if let Some(rec) = &self.recorded {
                match rec.get(key) {
                    Some(v) if *v == value => {}
                    Some(v) => problem = Some(format!("expected {v}, got {value}")),
                    None => problem = Some("no recorded value".to_string()),
                }
            }
        }
        if problem.is_none() {
            if let Some(prev) = self.seen.get(key) {
                if *prev != value {
                    problem = Some(format!("earlier in this run {prev}, now {value}"));
                }
            }
        }
        self.seen.entry(key.to_string()).or_insert(value);
        if let Some(p) = problem {
            self.fail(key, &p);
        }
    }

    /// Counts one operation that failed outright (decode error,
    /// coherence invariant broken, ...).
    pub fn op_failed(&mut self, key: &str, why: &str) {
        self.attempted += 1;
        self.fail(key, why);
    }

    fn fail(&mut self, key: &str, why: &str) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(format!("{key}: {why}"));
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Every output seen, in the expected-values file format.
    pub fn render_seen(&self) -> String {
        self.seen
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect()
    }
}

fn parse_recorded(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// 64-bit FNV-1a, the digest of rendered tables.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every counter of a simulation result, space-separated in field order.
pub fn metrics_line(m: &sac_simcache::Metrics) -> String {
    [
        m.refs,
        m.reads,
        m.writes,
        m.main_hits,
        m.aux_hits,
        m.misses,
        m.bypasses,
        m.mem_cycles,
        m.lines_fetched,
        m.words_fetched,
        m.writebacks,
        m.bounces,
        m.swaps,
        m.prefetches,
        m.useful_prefetches,
        m.stall_cycles,
    ]
    .iter()
    .map(u64::to_string)
    .collect::<Vec<_>>()
    .join(",")
}

/// The durations of the same sequence of calls over repeated rounds.
#[derive(Default)]
pub struct Rounds {
    per_call: Vec<Vec<f64>>,
    walls: Vec<f64>,
}

impl Rounds {
    /// Adds one round's call durations, in call order.
    pub fn push(&mut self, calls: &[Duration]) {
        self.per_call
            .resize_with(calls.len().max(self.per_call.len()), Vec::new);
        for (v, d) in self.per_call.iter_mut().zip(calls) {
            v.push(d.as_secs_f64());
        }
        self.walls
            .push(calls.iter().map(Duration::as_secs_f64).sum());
    }

    /// The seconds of a typical round: each call's median duration,
    /// summed over the calls. A stall that hits one call in one round
    /// moves this less than it moves the median of the round totals.
    pub fn typical(&self) -> f64 {
        self.per_call.iter().map(|v| median(v)).sum()
    }

    /// Each round's total seconds, in round order.
    pub fn walls(&self) -> &[f64] {
        &self.walls
    }
}

/// The median of `xs` (which must not be empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `median [min, max] over n` for a printed sample summary.
pub fn spread(xs: &[f64]) -> String {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let all: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
    format!(
        "median of {} samples, min {lo:.4}, max {hi:.4} [{}]",
        xs.len(),
        all.join(" ")
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: integers print without a fraction, other values with
/// every digit Rust's shortest round-trip form gives.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Calls `round` until `seconds` have passed, at least once. In a
/// traced run the rounds alternate untraced and traced, starting
/// untraced, with at least one of each, so that the span overhead is
/// measured between neighbouring rounds of the same process.
pub fn repeat(seconds: f64, traced: bool, mut round: impl FnMut(bool)) {
    let start = Instant::now();
    let mut n = 0;
    loop {
        round(traced && n % 2 == 1);
        n += 1;
        if start.elapsed().as_secs_f64() >= seconds && (!traced || n >= 2) {
            return;
        }
    }
}

/// The name-by-name mean of several lists of the same metrics.
pub fn average(lists: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    let Some(first) = lists.first() else {
        return out;
    };
    for (i, m) in first.0.iter().enumerate() {
        let sum: f64 = lists.iter().map(|l| l.0[i].value).sum();
        out.put(m.name.clone(), sum / lists.len() as f64, m.unit);
    }
    out
}
