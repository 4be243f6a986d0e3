//! Closed-form oracles for the replay engine (Majumdar & Radhakrishnan,
//! *Analytical Studies of Strategies for Utilization of Cache Memory*):
//! hit counts that follow from the reference pattern alone, checked
//! without any other engine as a reference.
//!
//! - **Uniform random.** Under the independent-reference model with `N`
//!   equally likely lines and a full cache of `C ≤ N` lines, the next
//!   reference hits with probability exactly `C/N`, whatever the cache
//!   holds: a fully-associative LRU cache holds `C` distinct lines, and a
//!   direct-mapped cache with `N` a multiple of its set count holds one
//!   of the `N/C` lines of each set. Post-warm-up hits over `M`
//!   references are therefore Binomial(`M`, `C/N`); the test accepts
//!   `|hits − M·C/N| ≤ 5σ + 1`, `σ = √(M·p·(1−p))`, which a correct
//!   engine leaves with probability below 10⁻⁶ per case.
//! - **Cyclic sweep, `N > C`.** Fully-associative LRU evicts each line
//!   just before its next use: zero hits after warm-up (and before it).
//! - **Cyclic sweep, `N ≤ C`.** Every line stays resident: every
//!   reference after the first pass hits, direct-mapped or not.
//!
//! Each case runs on the uniprocessor `StandardCache` and on a one-CPU
//! `CoherentSystem<Mesi>`, whose CPU is the same engine by construction;
//! the oracle checks both without comparing one against the other.

use software_assisted_caches::simcache::{
    CacheGeometry, CacheSim, CoherentSystem, MemoryModel, Mesi, StandardCache,
};
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{Access, Trace};

const LINE: u64 = 32;
/// Cache capacity in lines.
const C: u64 = 64;

fn direct_mapped() -> CacheGeometry {
    CacheGeometry::new(C * LINE, LINE, 1)
}

fn fully_associative() -> CacheGeometry {
    CacheGeometry::new(C * LINE, LINE, C as u32)
}

/// The two engines every oracle runs on.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Standard,
    OneCpuMesi,
}

/// Main-cache hits among the `measured` references, after `warm` ran
/// through a fresh cache of geometry `geom`.
fn post_warmup_hits(engine: Engine, geom: CacheGeometry, warm: &Trace, measured: &Trace) -> u64 {
    let mem = MemoryModel::default();
    let hits = match engine {
        Engine::Standard => {
            let mut c = StandardCache::new(geom, mem);
            c.run(warm);
            let before = c.metrics().main_hits;
            c.run(measured);
            c.metrics().main_hits - before
        }
        Engine::OneCpuMesi => {
            let mut sys: CoherentSystem<Mesi> = CoherentSystem::new(geom, mem, 1);
            sys.run(warm);
            let before = sys.metrics().main_hits;
            sys.run(measured);
            sys.check_swmr().unwrap();
            sys.metrics().main_hits - before
        }
    };
    let refs = measured.len() as u64;
    assert!(hits <= refs, "{engine:?}: {hits} hits out of {refs} refs");
    hits
}

/// `len` references drawn uniformly over lines `0..n`, at a random word
/// of the line, about a third of them writes.
fn uniform(seed: u64, n: u64, len: usize) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut t = Trace::new("uniform");
    for _ in 0..len {
        let addr = rng.below(n) * LINE + rng.below(LINE / 8) * 8;
        t.push(if rng.chance(0.3) {
            Access::write(addr)
        } else {
            Access::read(addr)
        });
    }
    t
}

/// `passes` cyclic sweeps over lines `0..n`, one reference per line.
fn sweep(n: u64, passes: u64) -> Trace {
    (0..passes * n)
        .map(|i| Access::read(i % n * LINE))
        .collect()
}

#[test]
fn uniform_random_hits_at_c_over_n() {
    const M: u64 = 40_000;
    for (name, geom) in [
        ("direct-mapped", direct_mapped()),
        ("fully-associative LRU", fully_associative()),
    ] {
        for (case, n) in [C, 2 * C, 4 * C, 16 * C].into_iter().enumerate() {
            // 20·C warm-up references leave a set empty with
            // probability about e^-20.
            let warm = uniform(0x0A7A + case as u64, n, 20 * C as usize);
            let measured = uniform(0xB17E + case as u64, n, M as usize);
            let p = C as f64 / n as f64;
            let expected = M as f64 * p;
            let bound = 5.0 * (M as f64 * p * (1.0 - p)).sqrt() + 1.0;
            for engine in [Engine::Standard, Engine::OneCpuMesi] {
                let hits = post_warmup_hits(engine, geom, &warm, &measured);
                assert!(
                    (hits as f64 - expected).abs() <= bound,
                    "{name}, {engine:?}, N = {n}: {hits} hits, expected {expected:.0} ± {bound:.0}"
                );
            }
        }
    }
}

#[test]
fn cyclic_sweep_larger_than_the_cache_never_hits_under_lru() {
    for n in [C + 1, C + 7, 2 * C, 5 * C] {
        let warm = sweep(n, 1);
        let measured = sweep(n, 20);
        for engine in [Engine::Standard, Engine::OneCpuMesi] {
            let hits = post_warmup_hits(engine, fully_associative(), &warm, &measured);
            assert_eq!(hits, 0, "{engine:?}, N = {n}: LRU must thrash");
        }
    }
}

#[test]
fn cyclic_sweep_that_fits_hits_on_every_reference() {
    for (name, geom) in [
        ("direct-mapped", direct_mapped()),
        ("fully-associative LRU", fully_associative()),
    ] {
        for n in [1, C / 2, C - 1, C] {
            let warm = sweep(n, 1);
            let measured = sweep(n, 20);
            for engine in [Engine::Standard, Engine::OneCpuMesi] {
                let hits = post_warmup_hits(engine, geom, &warm, &measured);
                assert_eq!(
                    hits,
                    measured.len() as u64,
                    "{name}, {engine:?}, N = {n}: every reference must hit"
                );
            }
        }
    }
}
