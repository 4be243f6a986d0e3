//! An independent oracle for the coherent system's false-sharing
//! classifier.
//!
//! The engine keeps each CPU's touched-word mask beside the tag slot it
//! describes (DESIGN.md §16.3). The oracle rebuilds the same masks from
//! nothing but the probe event stream, keyed by (cpu, line) in a plain
//! map:
//!
//! - `on_ref` sets the touched word's bit for the referencing CPU;
//! - `Event::Miss { victim }` clears the displaced line's mask;
//! - `InvalidateRecv` clears the invalidated copy's mask, after checking
//!   that the event's `false_sharing` flag is exactly "the victim never
//!   touched the word the current writer is writing".
//!
//! At the end the per-CPU `false_sharing_invalidations` counters must
//! equal the oracle's counts. The traces are seeded 2/3/4-CPU mixes run
//! under MESI and Dragon on four geometries: the standard cache, a
//! 2-way 1 KiB cache (LRU victim choice across ways), 24-byte lines (not
//! a power of two) and 1024-byte lines (word bits clamp at 63).

use software_assisted_caches::obs::{CoherenceOp, Event, Probe};
use software_assisted_caches::simcache::{
    CacheGeometry, CoherenceProtocol, CoherentSystem, Dragon, MemoryModel, Mesi,
};
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{interleave_round_robin, Access, Trace, WORD_BYTES};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The shared reconstruction of every CPU's word masks.
#[derive(Default)]
struct Oracle {
    line_bytes: u64,
    /// Touched-word mask per (cpu, line) currently cached.
    masks: HashMap<(usize, u64), u64>,
    /// Word bit of the reference being processed (the writer's word
    /// while its snoop invalidates remote copies).
    current_bit: u32,
    /// False-sharing invalidations received, per CPU.
    false_sharing: Vec<u64>,
    /// All invalidations received, per CPU.
    invalidations: Vec<u64>,
    /// `InvalidateRecv` events whose flag disagreed with the oracle.
    mismatches: Vec<String>,
}

impl Oracle {
    fn word_bit(&self, addr: u64) -> u32 {
        ((addr % self.line_bytes) / WORD_BYTES).min(63) as u32
    }
}

/// One CPU's view of the shared oracle.
struct OracleProbe {
    cpu: usize,
    oracle: Rc<RefCell<Oracle>>,
}

impl Probe for OracleProbe {
    fn on_ref(&mut self, addr: u64, line: u64, _is_write: bool) {
        let mut o = self.oracle.borrow_mut();
        let bit = o.word_bit(addr);
        o.current_bit = bit;
        *o.masks.entry((self.cpu, line)).or_default() |= 1 << bit;
    }

    fn on_event(&mut self, event: &Event) {
        let mut o = self.oracle.borrow_mut();
        match *event {
            Event::Miss {
                victim: Some(v), ..
            } => {
                o.masks.remove(&(self.cpu, v.line));
            }
            Event::Coherence {
                cpu,
                line,
                op: CoherenceOp::InvalidateRecv { false_sharing },
            } => {
                let cpu = cpu as usize;
                assert_eq!(cpu, self.cpu, "InvalidateRecv delivered to its victim");
                let mask = o.masks.remove(&(cpu, line)).unwrap_or(0);
                let expected = mask >> o.current_bit & 1 == 0;
                if expected != false_sharing {
                    let bit = o.current_bit;
                    o.mismatches.push(format!(
                        "cpu {cpu} line {line}: engine false_sharing={false_sharing}, \
                         oracle {expected} (mask {mask:#x}, writer bit {bit})"
                    ));
                }
                o.invalidations[cpu] += 1;
                o.false_sharing[cpu] += u64::from(expected);
            }
            _ => {}
        }
    }
}

/// A seeded stream: mostly a few hot lines every CPU shares, sometimes a
/// cold line from a range wider than the cache (forcing evictions), at
/// arbitrary byte offsets.
fn stream(seed: u64, len: usize, geom: CacheGeometry) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let line = geom.line_bytes();
    let mut t = Trace::new("oracle");
    for _ in 0..len {
        let lines = if rng.chance(0.7) { 6 } else { 3 * geom.lines() };
        let addr = rng.below(lines * line);
        let a = if rng.chance(0.4) {
            Access::write(addr)
        } else {
            Access::read(addr)
        };
        t.push(a.with_gap(rng.below(3) as u32));
    }
    t
}

/// Runs one case, checks every event and the per-CPU totals, and
/// returns (invalidations, false-sharing invalidations).
fn check<Proto: CoherenceProtocol>(
    geom: CacheGeometry,
    cpus: usize,
    seed: u64,
    len: usize,
) -> (u64, u64) {
    let oracle = Rc::new(RefCell::new(Oracle {
        line_bytes: geom.line_bytes(),
        false_sharing: vec![0; cpus],
        invalidations: vec![0; cpus],
        ..Oracle::default()
    }));
    let probes = (0..cpus)
        .map(|cpu| OracleProbe {
            cpu,
            oracle: Rc::clone(&oracle),
        })
        .collect();
    let streams: Vec<Trace> = (0..cpus as u64)
        .map(|c| stream(seed.wrapping_mul(31).wrapping_add(c), len, geom))
        .collect();
    let trace = interleave_round_robin("oracle-multi", &streams);
    let mut sys: CoherentSystem<Proto, OracleProbe> =
        CoherentSystem::with_probes(geom, MemoryModel::default(), probes);
    sys.run(&trace);
    sys.check_swmr().unwrap();

    let case = format!("{} {geom:?} cpus {cpus} seed {seed:#x}", Proto::NAME);
    let o = oracle.borrow();
    assert!(
        o.mismatches.is_empty(),
        "{case}: {} mismatches, first: {}",
        o.mismatches.len(),
        o.mismatches[0]
    );
    for (cpu, c) in sys.stats().per_cpu().iter().enumerate() {
        assert_eq!(
            c.false_sharing_invalidations, o.false_sharing[cpu],
            "{case}: cpu {cpu} false-sharing total"
        );
        assert_eq!(
            c.invalidations_received, o.invalidations[cpu],
            "{case}: cpu {cpu} invalidation total"
        );
    }
    (o.invalidations.iter().sum(), o.false_sharing.iter().sum())
}

fn geometries() -> [CacheGeometry; 4] {
    [
        CacheGeometry::standard(),
        CacheGeometry::new(1024, 32, 2),
        CacheGeometry::new(24 * 32, 24, 1),
        CacheGeometry::new(4 * 1024, 1024, 1),
    ]
}

#[test]
fn mesi_false_sharing_matches_the_oracle() {
    for geom in geometries() {
        let (mut inval, mut fs) = (0, 0);
        for cpus in 2..=4 {
            for seed in 0..3u64 {
                let (i, f) = check::<Mesi>(geom, cpus, 0xFA15E + seed, 3000);
                inval += i;
                fs += f;
            }
        }
        // Non-vacuous: both classes occur on every geometry.
        assert!(fs > 0, "{geom:?}: no false sharing classified");
        assert!(fs < inval, "{geom:?}: no true sharing classified");
    }
}

#[test]
fn dragon_false_sharing_matches_the_oracle() {
    for geom in geometries() {
        for cpus in 2..=4 {
            for seed in 0..3u64 {
                check::<Dragon>(geom, cpus, 0xD2A6 + seed, 3000);
            }
        }
    }
}
