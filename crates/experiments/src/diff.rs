//! Differential explain: lockstep replay of one trace through two
//! configurations, attributing every divergent reference to a mechanism.
//!
//! [`diff_configs`] builds both engines with an [`OutcomeProbe`] attached
//! and drives them through [`run_lockstep`], so after every chunk both
//! sides have folded exactly the same references. The per-reference
//! outcomes are paired element-wise; a pair *diverges* when the outcome
//! class differs (hit ↔ miss, different miss cause, different auxiliary
//! structure, bypass on one side) or when the same class generated
//! different event counts (extra writebacks, swaps, maintenance). Each
//! divergent pair is attributed to one [`Mechanism`] bucket and its
//! signed counter delta (side B minus side A) accumulated there.
//!
//! **Exactness.** The buckets partition the divergent pairs and
//! non-divergent pairs contribute zero delta by definition, so the
//! per-mechanism deltas must sum exactly to the difference of the two
//! sides' global [`Metrics`] on every event-backed counter. That is not
//! a hope: [`diff_configs`] reconciles (1) each side's folded outcome
//! totals against its own engine counters, (2) the mechanism delta sums
//! against the metrics difference, and (3) the probed lockstep run
//! against an unprobed twin, and refuses to return a report if any
//! check fails.
//!
//! Cycle counters (`mem_cycles`, `stall_cycles`) are not attributable
//! per reference — the engines fold hit cycles at chunk granularity — so
//! the report states their global deltas separately.

use crate::Config;
use sac_obs::{
    AuxSource, FillOrigin, LifetimeSummary, LineStats, MissCause, OutcomeClass, OutcomeProbe,
    OutcomeTotals, RefOutcome,
};
use sac_simcache::{run_lockstep, Metrics};
use sac_trace::Trace;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

/// Why one reference diverged between the two configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// One side missed, the other was served by its victim cache.
    VictimSave,
    /// One side missed, the other hit its column-associative rehash slot.
    RehashSave,
    /// One side missed, the other was served by the bounce-back cache
    /// (or main-hit a line that a bounce/swap re-injected).
    BounceSave,
    /// One side missed, the other was served by the assist cache.
    AssistSave,
    /// One side missed, the other hit the bypass line buffer.
    LineBufferSave,
    /// A prefetch covered the miss: served by a prefetch/stream buffer,
    /// or main-hit a line a prefetch promoted.
    PrefetchCovered,
    /// One side bypassed the reference (no allocation) — every knock-on
    /// difference of a non-allocating access lands here.
    BypassEffect,
    /// One side main-hit a line only resident because a virtual-line
    /// fill speculatively brought it in.
    VlineFill,
    /// One side main-hit where the other took a conflict miss: the
    /// mapping/placement difference (e.g. hint-driven allocation)
    /// avoided the interference.
    HintConflict,
    /// Both sides missed, but with a different 3C cause.
    MissClass,
    /// Same outcome class, but the writeback counts differ.
    WritebackPolicy,
    /// Same outcome class, different maintenance traffic (swaps,
    /// bounces, prefetch issues, evictions).
    Maintenance,
    /// A class divergence no specific rule covers.
    Other,
}

impl Mechanism {
    /// Every bucket, in report order.
    pub const ALL: [Mechanism; 13] = [
        Mechanism::VictimSave,
        Mechanism::RehashSave,
        Mechanism::BounceSave,
        Mechanism::AssistSave,
        Mechanism::LineBufferSave,
        Mechanism::PrefetchCovered,
        Mechanism::BypassEffect,
        Mechanism::VlineFill,
        Mechanism::HintConflict,
        Mechanism::MissClass,
        Mechanism::WritebackPolicy,
        Mechanism::Maintenance,
        Mechanism::Other,
    ];

    /// Stable snake_case label, as printed and exported.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::VictimSave => "victim_save",
            Mechanism::RehashSave => "rehash_save",
            Mechanism::BounceSave => "bounce_save",
            Mechanism::AssistSave => "assist_save",
            Mechanism::LineBufferSave => "line_buffer_save",
            Mechanism::PrefetchCovered => "prefetch_covered",
            Mechanism::BypassEffect => "bypass_effect",
            Mechanism::VlineFill => "vline_fill",
            Mechanism::HintConflict => "hint_conflict",
            Mechanism::MissClass => "miss_class",
            Mechanism::WritebackPolicy => "writeback_policy",
            Mechanism::Maintenance => "maintenance",
            Mechanism::Other => "other",
        }
    }

    fn index(self) -> usize {
        Mechanism::ALL
            .iter()
            .position(|m| *m == self)
            .expect("in ALL")
    }
}

/// Signed differences (side B minus side A) on the event-backed
/// [`Metrics`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deltas {
    /// Δ main-cache hits.
    pub main_hits: i64,
    /// Δ auxiliary hits.
    pub aux_hits: i64,
    /// Δ misses.
    pub misses: i64,
    /// Δ bypasses.
    pub bypasses: i64,
    /// Δ lines fetched (demand fills + prefetch issues).
    pub lines_fetched: i64,
    /// Δ writebacks.
    pub writebacks: i64,
    /// Δ bounce-backs.
    pub bounces: i64,
    /// Δ swaps.
    pub swaps: i64,
    /// Δ prefetches issued.
    pub prefetches: i64,
    /// Δ useful prefetches.
    pub useful_prefetches: i64,
}

impl Deltas {
    /// The per-reference counter contributions of one outcome.
    fn of_outcome(o: &RefOutcome) -> Deltas {
        let c = &o.counts;
        Deltas {
            main_hits: i64::from(o.class == OutcomeClass::MainHit),
            aux_hits: c.aux_hits as i64,
            misses: c.misses as i64,
            bypasses: c.bypasses as i64,
            lines_fetched: (c.line_fills + c.prefetch_issues) as i64,
            writebacks: c.writebacks as i64,
            bounces: c.bounces as i64,
            swaps: c.swaps as i64,
            prefetches: c.prefetch_issues as i64,
            useful_prefetches: c.prefetch_uses as i64,
        }
    }

    /// B minus A, per side's global counters.
    fn of_metrics(a: &Metrics, b: &Metrics) -> Deltas {
        let d = |x: u64, y: u64| y as i64 - x as i64;
        Deltas {
            main_hits: d(a.main_hits, b.main_hits),
            aux_hits: d(a.aux_hits, b.aux_hits),
            misses: d(a.misses, b.misses),
            bypasses: d(a.bypasses, b.bypasses),
            lines_fetched: d(a.lines_fetched, b.lines_fetched),
            writebacks: d(a.writebacks, b.writebacks),
            bounces: d(a.bounces, b.bounces),
            swaps: d(a.swaps, b.swaps),
            prefetches: d(a.prefetches, b.prefetches),
            useful_prefetches: d(a.useful_prefetches, b.useful_prefetches),
        }
    }

    fn add(&mut self, o: &Deltas) {
        for (s, v) in self.fields_mut().into_iter().zip(o.fields()) {
            *s += v.1;
        }
    }

    fn sub(&mut self, o: &Deltas) {
        for (s, v) in self.fields_mut().into_iter().zip(o.fields()) {
            *s -= v.1;
        }
    }

    /// `(name, value)` pairs in stable order.
    pub fn fields(&self) -> [(&'static str, i64); 10] {
        [
            ("main_hits", self.main_hits),
            ("aux_hits", self.aux_hits),
            ("misses", self.misses),
            ("bypasses", self.bypasses),
            ("lines_fetched", self.lines_fetched),
            ("writebacks", self.writebacks),
            ("bounces", self.bounces),
            ("swaps", self.swaps),
            ("prefetches", self.prefetches),
            ("useful_prefetches", self.useful_prefetches),
        ]
    }

    fn fields_mut(&mut self) -> [&mut i64; 10] {
        [
            &mut self.main_hits,
            &mut self.aux_hits,
            &mut self.misses,
            &mut self.bypasses,
            &mut self.lines_fetched,
            &mut self.writebacks,
            &mut self.bounces,
            &mut self.swaps,
            &mut self.prefetches,
            &mut self.useful_prefetches,
        ]
    }

    /// True when every counter delta is zero.
    pub fn is_zero(&self) -> bool {
        self.fields().iter().all(|(_, v)| *v == 0)
    }
}

/// One mechanism bucket of the report.
#[derive(Debug, Clone, Copy)]
pub struct MechanismRow {
    /// The attributed mechanism.
    pub mechanism: Mechanism,
    /// Divergent references attributed to it.
    pub count: u64,
    /// Their accumulated counter deltas (B minus A).
    pub deltas: Deltas,
}

/// One diverging line of the report, with both sides' lifetime stats.
#[derive(Debug, Clone, Copy)]
pub struct LineRow {
    /// The line number (address >> line shift).
    pub line: u64,
    /// Divergent references touching it.
    pub count: u64,
    /// Side A's lifetime stats for the line.
    pub a: LineStats,
    /// Side B's lifetime stats for the line.
    pub b: LineStats,
}

/// One diverging set of the report (set mapping of side A's geometry).
#[derive(Debug, Clone, Copy)]
pub struct SetRow {
    /// The set index.
    pub set: u64,
    /// Divergent references mapping to it.
    pub count: u64,
}

/// The reconciled result of one lockstep differential run.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Side A's label.
    pub label_a: String,
    /// Side B's label.
    pub label_b: String,
    /// Side A's configuration, rendered.
    pub config_a: String,
    /// Side B's configuration, rendered.
    pub config_b: String,
    /// Side A's final counters.
    pub metrics_a: Metrics,
    /// Side B's final counters.
    pub metrics_b: Metrics,
    /// Side A's line-lifetime summary.
    pub lifetime_a: LifetimeSummary,
    /// Side B's line-lifetime summary.
    pub lifetime_b: LifetimeSummary,
    /// References whose outcomes diverged.
    pub divergent: u64,
    /// Non-empty mechanism buckets, largest first.
    pub mechanisms: Vec<MechanismRow>,
    /// Diverging lines, most divergent first (ties: lower line first).
    pub lines: Vec<LineRow>,
    /// Diverging sets, most divergent first (ties: lower set first).
    pub sets: Vec<SetRow>,
}

/// Attributes one divergent outcome pair to its mechanism bucket.
fn attribute(a: &RefOutcome, b: &RefOutcome) -> Mechanism {
    use OutcomeClass as C;
    if a.class == b.class {
        // Same service class, different event counts.
        return if a.counts.writebacks != b.counts.writebacks {
            Mechanism::WritebackPolicy
        } else {
            Mechanism::Maintenance
        };
    }
    if a.class == C::Bypass || b.class == C::Bypass {
        return Mechanism::BypassEffect;
    }
    match (a.class, b.class) {
        // Both served by (different) auxiliary structures: no single
        // mechanism owns the difference.
        (C::Aux(_), C::Aux(_)) => Mechanism::Other,
        // One side's auxiliary structure held the line the other side
        // had to miss on (or happened to keep in its main array).
        (C::Aux(s), _) | (_, C::Aux(s)) => match s {
            AuxSource::Victim => Mechanism::VictimSave,
            AuxSource::Rehash => Mechanism::RehashSave,
            AuxSource::BounceBack => Mechanism::BounceSave,
            AuxSource::Assist => Mechanism::AssistSave,
            AuxSource::LineBuffer => Mechanism::LineBufferSave,
            AuxSource::PrefetchBuffer | AuxSource::StreamBuffer => Mechanism::PrefetchCovered,
        },
        // Hit on one side, miss on the other: ask the hit side how the
        // line got there.
        (C::MainHit, C::Miss(cause)) | (C::Miss(cause), C::MainHit) => {
            let hit_origin = if a.class == C::MainHit {
                a.origin
            } else {
                b.origin
            };
            match hit_origin {
                Some(FillOrigin::VlinePrefill) => Mechanism::VlineFill,
                Some(FillOrigin::Bounce) | Some(FillOrigin::Swap) => Mechanism::BounceSave,
                Some(FillOrigin::PrefetchPromote) => Mechanism::PrefetchCovered,
                _ if cause == MissCause::Conflict => Mechanism::HintConflict,
                _ => Mechanism::Other,
            }
        }
        // Both missed, different 3C cause.
        (C::Miss(_), C::Miss(_)) => Mechanism::MissClass,
        _ => Mechanism::Other,
    }
}

/// One side's folded outcome totals must equal its engine counters —
/// the per-reference signatures account for every event-backed bump.
fn check_side(label: &str, t: &OutcomeTotals, m: &Metrics) -> Result<(), String> {
    let pairs = [
        ("refs", t.refs, m.refs),
        ("reads", t.reads, m.reads),
        ("writes", t.writes, m.writes),
        ("main_hits", t.main_hits, m.main_hits),
        ("aux_hits", t.counts.aux_hits, m.aux_hits),
        ("misses", t.counts.misses, m.misses),
        ("bypasses", t.counts.bypasses, m.bypasses),
        ("bounces", t.counts.bounces, m.bounces),
        ("swaps", t.counts.swaps, m.swaps),
        ("prefetches", t.counts.prefetch_issues, m.prefetches),
        (
            "useful_prefetches",
            t.counts.prefetch_uses,
            m.useful_prefetches,
        ),
        ("writebacks", t.counts.writebacks, m.writebacks),
        (
            "lines_fetched",
            t.counts.line_fills + t.counts.prefetch_issues,
            m.lines_fetched,
        ),
    ];
    for (name, folded, counter) in pairs {
        if folded != counter {
            return Err(format!(
                "{label}: folded outcomes say {name}={folded}, metrics say {counter}"
            ));
        }
    }
    Ok(())
}

/// Replays `trace` through both configurations in lockstep and returns
/// the fully reconciled divergence report. `chunk` is the lockstep step
/// width (clamped to at least 1).
///
/// # Errors
///
/// Returns an error when the two configurations have different line
/// sizes (outcomes would not be pairable by line), or when any of the
/// three reconciliation checks fails — which would be an instrumentation
/// bug, never a user error.
pub fn diff_configs(
    label_a: &str,
    config_a: &Config,
    label_b: &str,
    config_b: &Config,
    trace: &Trace,
    chunk: usize,
) -> Result<DiffReport, String> {
    let chunk = chunk.max(1);
    let (geom_a, _) = config_a.shape();
    let (geom_b, _) = config_b.shape();
    if geom_a.line_bytes() != geom_b.line_bytes() {
        return Err(format!(
            "line sizes differ ({} vs {} bytes): references cannot be paired by line",
            geom_a.line_bytes(),
            geom_b.line_bytes()
        ));
    }

    let (probe_a, state_a) = OutcomeProbe::new(geom_a.lines() as usize);
    let (probe_b, state_b) = OutcomeProbe::new(geom_b.lines() as usize);
    let mut sim_a = config_a.build_probed(probe_a);
    let mut sim_b = config_b.build_probed(probe_b);

    let mut divergent = 0u64;
    let mut mech_count = [0u64; Mechanism::ALL.len()];
    let mut mech_deltas = [Deltas::default(); Mechanism::ALL.len()];
    let mut div_lines: BTreeMap<u64, u64> = BTreeMap::new();
    let mut div_sets: BTreeMap<u64, u64> = BTreeMap::new();
    let mut pair_err: Option<String> = None;

    run_lockstep(&mut *sim_a, &mut *sim_b, trace.as_slice(), chunk, |_, _| {
        if pair_err.is_some() {
            return;
        }
        let outcomes_a = state_a.borrow_mut().drain_outcomes();
        let outcomes_b = state_b.borrow_mut().drain_outcomes();
        if outcomes_a.len() != outcomes_b.len() {
            pair_err = Some(format!(
                "sides folded different reference counts in one chunk ({} vs {})",
                outcomes_a.len(),
                outcomes_b.len()
            ));
            return;
        }
        for (oa, ob) in outcomes_a.iter().zip(&outcomes_b) {
            debug_assert_eq!(oa.line, ob.line, "same trace, same line size");
            if oa.class == ob.class && oa.counts == ob.counts {
                continue;
            }
            divergent += 1;
            let mech = attribute(oa, ob).index();
            mech_count[mech] += 1;
            let mut d = Deltas::of_outcome(ob);
            d.sub(&Deltas::of_outcome(oa));
            mech_deltas[mech].add(&d);
            *div_lines.entry(oa.line).or_insert(0) += 1;
            *div_sets.entry(geom_a.set_of_line(oa.line)).or_insert(0) += 1;
        }
    });
    if let Some(e) = pair_err {
        return Err(e);
    }

    let metrics_a = *sim_a.metrics();
    let metrics_b = *sim_b.metrics();
    state_a.borrow_mut().finish();
    state_b.borrow_mut().finish();

    // Check 1: each side's folded outcomes reproduce its own counters.
    check_side(label_a, &state_a.borrow().totals(), &metrics_a)?;
    check_side(label_b, &state_b.borrow().totals(), &metrics_b)?;
    for (label, state, m) in [
        (label_a, &state_a, &metrics_a),
        (label_b, &state_b, &metrics_b),
    ] {
        let (refs, cycles) = state.borrow().last_fold();
        if (refs, cycles) != (m.refs, m.mem_cycles) {
            return Err(format!(
                "{label}: last chunk fold ({refs} refs, {cycles} cycles) != final metrics ({}, {})",
                m.refs, m.mem_cycles
            ));
        }
    }

    // Check 2: the mechanism deltas sum exactly to the metrics difference.
    let mut summed = Deltas::default();
    for d in &mech_deltas {
        summed.add(d);
    }
    let global = Deltas::of_metrics(&metrics_a, &metrics_b);
    if summed != global {
        for ((name, s), (_, g)) in summed.fields().into_iter().zip(global.fields()) {
            if s != g {
                return Err(format!(
                    "mechanism deltas sum to {name}={s}, global metrics differ by {g}"
                ));
            }
        }
    }

    // Check 3: the probed lockstep pair replays exactly like an unprobed
    // twin.
    let mut twin_a = config_a.build();
    let mut twin_b = config_b.build();
    run_lockstep(
        &mut *twin_a,
        &mut *twin_b,
        trace.as_slice(),
        chunk,
        |_, _| {},
    );
    if *twin_a.metrics() != metrics_a {
        return Err(format!(
            "{label_a}: probed lockstep diverged from unprobed twin"
        ));
    }
    if *twin_b.metrics() != metrics_b {
        return Err(format!(
            "{label_b}: probed lockstep diverged from unprobed twin"
        ));
    }

    let mut mechanisms: Vec<MechanismRow> = Mechanism::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| mech_count[*i] > 0)
        .map(|(i, m)| MechanismRow {
            mechanism: *m,
            count: mech_count[i],
            deltas: mech_deltas[i],
        })
        .collect();
    mechanisms.sort_by_key(|r| std::cmp::Reverse(r.count));

    let sa = state_a.borrow();
    let sb = state_b.borrow();
    let mut lines: Vec<LineRow> = div_lines
        .iter()
        .map(|(&line, &count)| LineRow {
            line,
            count,
            a: sa.lifetime().stats(line),
            b: sb.lifetime().stats(line),
        })
        .collect();
    lines.sort_by_key(|r| std::cmp::Reverse(r.count));
    let mut sets: Vec<SetRow> = div_sets
        .iter()
        .map(|(&set, &count)| SetRow { set, count })
        .collect();
    sets.sort_by_key(|r| std::cmp::Reverse(r.count));

    Ok(DiffReport {
        label_a: label_a.to_string(),
        label_b: label_b.to_string(),
        config_a: config_a.to_string(),
        config_b: config_b.to_string(),
        metrics_a,
        metrics_b,
        lifetime_a: sa.lifetime().summary(),
        lifetime_b: sb.lifetime().summary(),
        divergent,
        mechanisms,
        lines,
        sets,
    })
}

/// Renders the non-zero entries of a delta set as ` name+N name-N ...`.
fn render_deltas(d: &Deltas) -> String {
    let mut s = String::new();
    for (name, v) in d.fields() {
        if v != 0 {
            let _ = write!(s, " {name}{v:+}");
        }
    }
    if s.is_empty() {
        s.push_str(" (counts only)");
    }
    s
}

impl DiffReport {
    /// The textual report, listing the `top` most divergent mechanisms,
    /// lines and sets.
    pub fn render(&self, top: usize) -> String {
        let ma = &self.metrics_a;
        let mb = &self.metrics_b;
        let mut s = String::new();
        let pct = |part: f64, whole: f64| {
            if whole > 0.0 {
                100.0 * part / whole
            } else {
                0.0
            }
        };

        let _ = writeln!(s, "diff {} vs {}", self.label_a, self.label_b);
        let _ = writeln!(s, "  A            {}", self.config_a);
        let _ = writeln!(s, "  B            {}", self.config_b);
        let _ = writeln!(
            s,
            "  trace        {} refs ({} reads / {} writes)",
            ma.refs, ma.reads, ma.writes
        );
        let gain = ma.amat() - mb.amat();
        let _ = writeln!(
            s,
            "  outcome      AMAT A {:.3} -> B {:.3} ({} {:.3}); miss ratio {:.4} -> {:.4}",
            ma.amat(),
            mb.amat(),
            if gain >= 0.0 { "gain" } else { "loss" },
            gain.abs(),
            ma.miss_ratio(),
            mb.miss_ratio(),
        );
        let _ = writeln!(
            s,
            "  reconcile    mechanism deltas sum exactly to the metrics difference"
        );
        let _ = writeln!(
            s,
            "  divergence   {} of {} refs diverge ({:.2}%)",
            self.divergent,
            ma.refs,
            pct(self.divergent as f64, ma.refs as f64),
        );
        for row in self.mechanisms.iter().take(top) {
            let _ = writeln!(
                s,
                "  mechanism    {:<16} {:>8} refs {}",
                row.mechanism.name(),
                row.count,
                render_deltas(&row.deltas),
            );
        }
        let _ = writeln!(
            s,
            "  cycles       mem_cycles {:+}, stall_cycles {:+} (chunk-level, not per-mechanism)",
            mb.mem_cycles as i64 - ma.mem_cycles as i64,
            mb.stall_cycles as i64 - ma.stall_cycles as i64,
        );
        for row in self.lines.iter().take(top) {
            let _ = writeln!(
                s,
                "  line         line {:#x}: {} divergences; A {} fills / mean life {:.1} / mean dead {:.1}, B {} fills / mean life {:.1} / mean dead {:.1}",
                row.line,
                row.count,
                row.a.fills,
                row.a.mean_lifetime(),
                row.a.mean_dead(),
                row.b.fills,
                row.b.mean_lifetime(),
                row.b.mean_dead(),
            );
        }
        for row in self.sets.iter().take(top) {
            let _ = writeln!(
                s,
                "  set          set {}: {} divergences",
                row.set, row.count
            );
        }
        let la = &self.lifetime_a;
        let lb = &self.lifetime_b;
        let _ = writeln!(
            s,
            "  lifetime A   {} fills, {} evictions, {} live; mean lifetime {:.1}, dead time {:.1}, reuse {:.1}",
            la.fills, la.evictions, la.live, la.mean_lifetime, la.mean_dead, la.mean_reuse,
        );
        let _ = writeln!(
            s,
            "  lifetime B   {} fills, {} evictions, {} live; mean lifetime {:.1}, dead time {:.1}, reuse {:.1}",
            lb.fills, lb.evictions, lb.live, lb.mean_lifetime, lb.mean_dead, lb.mean_reuse,
        );
        s
    }

    /// Writes the machine-readable report as JSONL: one `diff` header,
    /// one `side` record per configuration, one `mechanism` record per
    /// non-empty bucket and the `top` most divergent `line`/`set`
    /// records. Deterministic byte-for-byte for a given run.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut impl io::Write, top: usize) -> io::Result<()> {
        writeln!(
            w,
            "{{\"type\":\"diff\",\"schema_version\":{},\"label_a\":\"{}\",\"label_b\":\"{}\",\"config_a\":\"{}\",\"config_b\":\"{}\",\"refs\":{},\"divergent\":{}}}",
            sac_obs::SCHEMA_VERSION,
            json_escape(&self.label_a),
            json_escape(&self.label_b),
            json_escape(&self.config_a),
            json_escape(&self.config_b),
            self.metrics_a.refs,
            self.divergent,
        )?;
        for (label, m, l) in [
            (&self.label_a, &self.metrics_a, &self.lifetime_a),
            (&self.label_b, &self.metrics_b, &self.lifetime_b),
        ] {
            writeln!(
                w,
                "{{\"type\":\"side\",\"label\":\"{}\",\"main_hits\":{},\"aux_hits\":{},\"misses\":{},\"bypasses\":{},\"lines_fetched\":{},\"writebacks\":{},\"bounces\":{},\"swaps\":{},\"prefetches\":{},\"useful_prefetches\":{},\"mem_cycles\":{},\"stall_cycles\":{},\"fills\":{},\"evictions\":{},\"live\":{},\"mean_lifetime\":{:.3},\"mean_dead\":{:.3},\"mean_reuse\":{:.3}}}",
                json_escape(label),
                m.main_hits,
                m.aux_hits,
                m.misses,
                m.bypasses,
                m.lines_fetched,
                m.writebacks,
                m.bounces,
                m.swaps,
                m.prefetches,
                m.useful_prefetches,
                m.mem_cycles,
                m.stall_cycles,
                l.fills,
                l.evictions,
                l.live,
                l.mean_lifetime,
                l.mean_dead,
                l.mean_reuse,
            )?;
        }
        for row in &self.mechanisms {
            let mut deltas = String::new();
            for (name, v) in row.deltas.fields() {
                let _ = write!(deltas, ",\"d_{name}\":{v}");
            }
            writeln!(
                w,
                "{{\"type\":\"mechanism\",\"name\":\"{}\",\"count\":{}{}}}",
                row.mechanism.name(),
                row.count,
                deltas,
            )?;
        }
        for row in self.lines.iter().take(top) {
            writeln!(
                w,
                "{{\"type\":\"line\",\"line\":{},\"count\":{},\"a_fills\":{},\"a_mean_lifetime\":{:.3},\"a_mean_dead\":{:.3},\"b_fills\":{},\"b_mean_lifetime\":{:.3},\"b_mean_dead\":{:.3}}}",
                row.line,
                row.count,
                row.a.fills,
                row.a.mean_lifetime(),
                row.a.mean_dead(),
                row.b.fills,
                row.b.mean_lifetime(),
                row.b.mean_dead(),
            )?;
        }
        for row in self.sets.iter().take(top) {
            writeln!(
                w,
                "{{\"type\":\"set\",\"set\":{},\"count\":{}}}",
                row.set, row.count
            )?;
        }
        Ok(())
    }
}

/// Minimal JSON string escaping (labels and config names are plain
/// ASCII, but a quote or backslash must not corrupt the record).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{miss_heavy_trace, mixed_trace};

    #[test]
    fn identical_configs_never_diverge() {
        let t = mixed_trace(20_000);
        let r = diff_configs(
            "std",
            &Config::standard(),
            "std2",
            &Config::standard(),
            &t,
            1024,
        )
        .unwrap();
        assert_eq!(r.divergent, 0);
        assert!(r.mechanisms.is_empty());
        assert!(r.lines.is_empty());
        assert_eq!(r.metrics_a, r.metrics_b);
    }

    #[test]
    fn victim_divergence_is_attributed_to_the_victim_cache() {
        let t = miss_heavy_trace(20_000);
        let r = diff_configs(
            "standard",
            &Config::standard(),
            "victim",
            &Config::standard_victim(),
            &t,
            777,
        )
        .unwrap();
        assert!(r.divergent > 0);
        let victim: u64 = r
            .mechanisms
            .iter()
            .filter(|m| m.mechanism == Mechanism::VictimSave)
            .map(|m| m.count)
            .sum();
        assert!(victim > 0, "{:?}", r.mechanisms);
        // The victim saves must show up as misses turned into aux hits.
        let row = r
            .mechanisms
            .iter()
            .find(|m| m.mechanism == Mechanism::VictimSave)
            .unwrap();
        assert!(row.deltas.misses < 0, "{:?}", row.deltas);
        assert!(row.deltas.aux_hits > 0, "{:?}", row.deltas);
    }

    #[test]
    fn soft_vs_standard_reconciles_and_renders() {
        let t = mixed_trace(30_000);
        let r = diff_configs(
            "standard",
            &Config::standard(),
            "soft",
            &Config::soft(),
            &t,
            4096,
        )
        .unwrap();
        let text = r.render(5);
        assert!(text.contains("diff standard vs soft"), "{text}");
        assert!(text.contains("mechanism deltas sum exactly"), "{text}");
        assert!(text.contains("lifetime A"), "{text}");
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf, 5).unwrap();
        let json = String::from_utf8(buf).unwrap();
        assert!(
            json.starts_with("{\"type\":\"diff\",\"schema_version\":"),
            "{json}"
        );
        assert!(json.contains("\"type\":\"side\""), "{json}");
    }

    #[test]
    fn diff_jsonl_is_deterministic() {
        let t = mixed_trace(15_000);
        let run = || {
            let r = diff_configs(
                "a",
                &Config::standard(),
                "b",
                &Config::standard_victim(),
                &t,
                512,
            )
            .unwrap();
            let mut buf = Vec::new();
            r.write_jsonl(&mut buf, 10).unwrap();
            buf
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mismatched_line_sizes_are_rejected() {
        use sac_simcache::{CacheGeometry, MemoryModel};
        let t = mixed_trace(100);
        let wide = Config::Standard {
            geom: CacheGeometry::new(8192, 64, 1),
            mem: MemoryModel::default(),
        };
        let err = diff_configs("a", &Config::standard(), "b", &wide, &t, 64).unwrap_err();
        assert!(err.contains("line sizes differ"), "{err}");
    }

    #[test]
    fn mechanism_labels_are_stable() {
        assert_eq!(Mechanism::ALL.len(), 13);
        for m in Mechanism::ALL {
            assert_eq!(Mechanism::ALL[m.index()], m);
            assert!(!m.name().is_empty());
        }
        assert_eq!(Mechanism::PrefetchCovered.name(), "prefetch_covered");
    }

    #[test]
    fn json_escape_handles_quotes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("plain"), "plain");
    }
}
