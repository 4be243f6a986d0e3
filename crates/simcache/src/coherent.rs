//! The multi-core coherent memory system: private caches on a shared
//! snoop bus.
//!
//! [`CoherentSystem`] runs one ordinary [`CacheEngine`] over a
//! [`StandardPolicy`] per CPU and drives a cpu-tagged interleaved trace
//! (see [`sac_trace::interleave_round_robin`]) through them under a
//! snooping coherence protocol — the invalidation-based [`Mesi`] by
//! default, the update-based [`crate::Dragon`] as the comparison point.
//! [`CacheEngine::begin`] counts each reference and probes the main
//! array; [`CacheEngine::finish`] charges the hit or runs the policy's
//! fill, victim choice and write-back. Between the two halves, on a miss
//! or a write hit, the driver calls the [`crate::CachePolicy::snoop`]
//! hook of every other core, asks whether a copy or a pending write-buffer
//! entry anywhere can supply the line, and prices the transaction on the
//! one shared [`SnoopBus`]. The cores also share one [`Clock`], swapped
//! into whichever core is acting. The per-line protocol state and
//! touched-word mask live in each policy's [`CoherentSlots`] sidecar;
//! the system's metrics are the cores' metrics merged.
//!
//! **Timing.** A hit costs [`crate::MAIN_HIT_CYCLES`]. A miss pays the
//! arrival stall plus one bus transaction: `t_lat + LS/w_b` when memory
//! supplies the line, [`crate::SNOOP_CYCLES`]` + LS/w_b` when another
//! cache (or a pending write-buffer entry) does. A MESI write hit on a
//! shared line pays an address-only BusUpgr ([`crate::SNOOP_CYCLES`]); a
//! dirty owner's flush in response to a remote transaction is hidden
//! behind the requester's fill and charged to bus occupancy only, with
//! the write-back itself going through the owner's write buffer. A
//! single-CPU [`CoherentSystem`] is therefore the uniprocessor
//! [`crate::StandardCache`]: no sharer ever exists, so no coherence
//! transaction is ever priced.
//!
//! **False sharing.** A remote write that invalidates a copy is
//! classified *false sharing* if the victim CPU never touched the word
//! the writer is modifying since the slot was filled — the ping-pong is
//! an artifact of line granularity, not a data dependence.

use crate::{
    BusTx, CacheEngine, CacheGeometry, CacheSim, Clock, CoherenceProtocol, FillSource, LineState,
    Lookup, MemoryModel, MemorySystem, Mesi, Metrics, Sidecar, Snoop, SnoopBus, SnoopReaction,
    SnoopReply, StandardPolicy, TagArray, WriteHitAction,
};
use sac_obs::{CoherenceOp, Event, NoopProbe, Probe};
use sac_trace::{Access, Trace, MAX_CPUS, WORD_BYTES};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// Per-CPU coherence counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuCoherence {
    /// Remote copies this CPU's writes forced out (BusRdX/BusUpgr).
    pub invalidations_sent: u64,
    /// Copies this CPU lost to remote writes.
    pub invalidations_received: u64,
    /// The subset of `invalidations_received` where this CPU had never
    /// touched the word the remote writer modified.
    pub false_sharing_invalidations: u64,
    /// Address-only ownership upgrades (MESI write hit on Shared).
    pub upgrades: u64,
    /// Misses of this CPU filled cache-to-cache by a remote holder.
    pub c2c_fills: u64,
    /// Misses of this CPU answered out of a pending write-buffer entry.
    pub wb_forwards: u64,
    /// Word updates this CPU broadcast (update-based protocols).
    pub updates: u64,
}

impl CpuCoherence {
    /// Accumulates another counter block.
    pub fn merge(&mut self, o: &CpuCoherence) {
        self.invalidations_sent += o.invalidations_sent;
        self.invalidations_received += o.invalidations_received;
        self.false_sharing_invalidations += o.false_sharing_invalidations;
        self.upgrades += o.upgrades;
        self.c2c_fills += o.c2c_fills;
        self.wb_forwards += o.wb_forwards;
        self.updates += o.updates;
    }
}

/// Coherence counters of a whole [`CoherentSystem`] run, per CPU.
#[derive(Debug, Clone, Default)]
pub struct CoherenceStats {
    per_cpu: Vec<CpuCoherence>,
}

impl CoherenceStats {
    /// The per-CPU counter blocks, indexed by CPU id.
    pub fn per_cpu(&self) -> &[CpuCoherence] {
        &self.per_cpu
    }

    /// All CPUs' counters summed.
    pub fn totals(&self) -> CpuCoherence {
        let mut t = CpuCoherence::default();
        for c in &self.per_cpu {
            t.merge(c);
        }
        t
    }
}

/// Per-slot coherence metadata of one tag-array entry.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Protocol state, kept in sync with the entry's valid/dirty bits.
    state: LineState,
    /// Bitmask of the words (word-in-line index, clamped to 63) this CPU
    /// touched since the slot was filled.
    words: u64,
}

/// The coherence [`Sidecar`] of one core's [`StandardPolicy`]: a
/// [`Slot`] per tag-array entry (same global indexing as the
/// [`TagArray`]), plus what the bus answered for the miss in progress.
#[derive(Debug, Clone)]
pub struct CoherentSlots<Proto> {
    geom: CacheGeometry,
    slots: Vec<Slot>,
    /// Whether other copies survive the snoop of the miss in progress.
    shared: bool,
    /// What the shared bus charged for that miss's fill.
    fill_cycles: u64,
    _proto: PhantomData<Proto>,
}

impl<Proto> CoherentSlots<Proto> {
    /// Word-in-line bit index of `addr` (clamped to the 64-bit mask
    /// width; lines above 512 bytes alias their tail words, which only
    /// makes the false-sharing classifier conservative).
    #[inline]
    fn word(&self, addr: u64) -> u32 {
        let line = self.geom.line_of(addr);
        ((addr - line * self.geom.line_bytes()) / WORD_BYTES).min(63) as u32
    }
}

impl<Proto: CoherenceProtocol> Sidecar for CoherentSlots<Proto> {
    #[inline]
    fn fetch(&mut self, sys: &mut MemorySystem) -> u64 {
        sys.record_fetch_traffic(1);
        self.fill_cycles
    }

    #[inline]
    fn filled(&mut self, tags: &TagArray, line: u64, way: usize, a: &Access) {
        let state = if a.kind().is_write() {
            Proto::fill_write(self.shared)
        } else {
            Proto::fill_read(self.shared)
        };
        let words = 1 << self.word(a.addr());
        self.slots[tags.index(line, way)] = Slot { state, words };
    }

    #[inline]
    fn touched(&mut self, idx: usize, a: &Access) {
        self.slots[idx].words |= 1 << self.word(a.addr());
    }

    fn snoop<P: Probe>(
        &mut self,
        tags: &mut TagArray,
        sys: &mut MemorySystem,
        probe: &mut P,
        req: &Snoop,
    ) -> SnoopReply {
        let Some(idx) = tags.peek(req.line) else {
            return SnoopReply::default();
        };
        let state = self.slots[idx].state;
        debug_assert!(state.is_valid(), "valid tag with Invalid sidecar state");
        let r = match req.tx {
            BusTx::BusRd => Proto::snoop_read(state),
            BusTx::BusUpgr if Proto::UPDATE_BASED => SnoopReaction {
                next: Proto::snoop_update(state),
                supply: false,
                flush_dirty: false,
            },
            _ => Proto::snoop_write(state),
        };
        if r.flush_dirty {
            let _ = sys.writeback_at(req.now, req.line);
            if P::ENABLED {
                probe.on_event(&Event::Writeback { line: req.line });
            }
        }
        let mut reply = SnoopReply {
            supply: r.supply,
            holds: r.next.is_valid(),
            flushed: r.flush_dirty,
            invalidated: None,
        };
        if reply.holds {
            self.slots[idx].state = r.next;
            tags.entry_at_mut(idx).dirty = r.next.is_dirty();
        } else {
            tags.invalidate(req.line);
            let words = std::mem::take(&mut self.slots[idx]).words;
            reply.invalidated = Some(words >> req.word & 1 == 0);
            if P::ENABLED {
                probe.on_event(&Event::MainEvict {
                    line: req.line,
                    dirty: false,
                });
            }
        }
        reply
    }
}

/// One CPU of a [`CoherentSystem`]: the ordinary engine over a
/// [`StandardPolicy`] carrying the coherence sidecar.
type Core<Proto, P> = CacheEngine<StandardPolicy<CoherentSlots<Proto>>, P>;

/// A multi-core memory system: one private standard cache per CPU,
/// kept coherent over a shared snoop bus by the protocol `Proto`.
///
/// ```
/// use sac_simcache::{CacheGeometry, CoherentSystem, MemoryModel, Mesi};
/// use sac_trace::{interleave_round_robin, Access, Trace};
///
/// let a: Trace = (0..64u64).map(|i| Access::read(i * 8)).collect();
/// let b: Trace = (0..64u64).map(|i| Access::write(i * 8)).collect();
/// let t = interleave_round_robin("pair", &[a, b]);
/// let mut sys: CoherentSystem<Mesi> =
///     CoherentSystem::new(CacheGeometry::standard(), MemoryModel::default(), 2);
/// sys.run(&t);
/// assert_eq!(sys.metrics().refs, 128);
/// sys.check_swmr().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct CoherentSystem<Proto: CoherenceProtocol = Mesi, P: Probe = NoopProbe> {
    cores: Vec<Core<Proto, P>>,
    bus: SnoopBus,
    /// The shared clock, while no core is acting.
    clock: Clock,
    /// The cores' metrics merged, built on the first read after an
    /// access.
    global: OnceCell<Metrics>,
    stats: CoherenceStats,
}

impl<Proto: CoherenceProtocol> CoherentSystem<Proto, NoopProbe> {
    /// A system of `cpus` private standard caches of geometry `geom` on
    /// a shared bus, unprobed.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or exceeds [`MAX_CPUS`].
    pub fn new(geom: CacheGeometry, mem: MemoryModel, cpus: usize) -> Self {
        Self::with_probes(geom, mem, (0..cpus).map(|_| NoopProbe).collect())
    }
}

impl<Proto: CoherenceProtocol, P: Probe> CoherentSystem<Proto, P> {
    /// A system with one cache and one probe per element of `probes`.
    ///
    /// # Panics
    ///
    /// Panics if `probes` is empty or longer than [`MAX_CPUS`].
    pub fn with_probes(geom: CacheGeometry, mem: MemoryModel, probes: Vec<P>) -> Self {
        assert!(!probes.is_empty(), "need at least one CPU");
        assert!(probes.len() <= MAX_CPUS, "at most {MAX_CPUS} CPUs");
        let side = CoherentSlots {
            geom,
            slots: vec![Slot::default(); geom.lines() as usize],
            shared: false,
            fill_cycles: 0,
            _proto: PhantomData,
        };
        CoherentSystem {
            stats: CoherenceStats {
                per_cpu: vec![CpuCoherence::default(); probes.len()],
            },
            cores: probes
                .into_iter()
                .map(|probe| {
                    let policy = StandardPolicy::with_sidecar(geom, side.clone());
                    let sys = MemorySystem::new(mem, geom.line_bytes());
                    CacheEngine::from_parts(policy, sys, probe)
                })
                .collect(),
            bus: SnoopBus::new(mem, geom.line_bytes()),
            clock: Clock::new(),
            global: OnceCell::new(),
        }
    }

    /// The global metrics: every CPU's metrics merged.
    pub fn metrics(&self) -> &Metrics {
        self.global
            .get_or_init(|| Metrics::merged(self.cores.iter().map(|c| c.metrics())))
    }

    /// One CPU's private metrics.
    pub fn core_metrics(&self, cpu: usize) -> &Metrics {
        self.cores[cpu].metrics()
    }

    /// The coherence counters.
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// The shared bus (transaction and occupancy totals).
    pub fn bus(&self) -> &SnoopBus {
        &self.bus
    }

    /// One CPU's probe.
    pub fn probe(&self, cpu: usize) -> &P {
        self.cores[cpu].probe()
    }

    /// Consumes the system, returning the per-CPU probes.
    pub fn into_probes(self) -> Vec<P> {
        self.cores.into_iter().map(|c| c.into_probe()).collect()
    }

    /// Runs a whole cpu-tagged trace through the system.
    ///
    /// # Panics
    ///
    /// Panics if the trace names a CPU this system does not have.
    pub fn run(&mut self, trace: &Trace) {
        for a in trace {
            self.access(a);
        }
    }

    /// Processes one reference, routed to its CPU's private cache.
    pub fn access(&mut self, a: &Access) {
        let cpu = a.cpu() as usize;
        assert!(
            cpu < self.cores.len(),
            "trace names cpu {cpu} but the system has {} CPUs",
            self.cores.len()
        );
        self.global = OnceCell::new();
        let core = &mut self.cores[cpu];
        core.sys_mut().clock_mut().swap(&mut self.clock);
        let mut look = core.begin(a);
        if look.hit.is_none() || a.kind().is_write() {
            look.bus_cycles = self.snoop(cpu, a, look);
        }
        let core = &mut self.cores[cpu];
        core.finish(a, look);
        core.sys_mut().clock_mut().swap(&mut self.clock);
    }

    /// The bus side of `cpu`'s miss or write hit, between the engine's
    /// two halves: snoops the other caches and prices the transaction.
    /// Returns the bus cycles the reference pays beyond its hit or fill.
    fn snoop(&mut self, cpu: usize, a: &Access, look: Lookup) -> u64 {
        let is_write = a.kind().is_write();
        let me = &self.cores[cpu];
        let req = Snoop {
            line: look.line,
            tx: if is_write {
                BusTx::BusRdX
            } else {
                BusTx::BusRd
            },
            word: me.policy().sidecar().word(a.addr()),
            now: me.sys().now(),
        };
        if let Some(idx) = look.hit {
            let state = me.policy().sidecar().slots[idx].state;
            // Under SWMR an M or E copy is the only copy: skip the scan.
            let shared = !matches!(state, LineState::Modified | LineState::Exclusive)
                && self
                    .cores
                    .iter()
                    .enumerate()
                    .any(|(c, core)| c != cpu && core.policy().tags().peek(req.line).is_some());
            let (next, action) = Proto::write_hit(state, shared);
            self.cores[cpu].policy_mut().sidecar_mut().slots[idx].state = next;
            return match action {
                WriteHitAction::None => 0,
                WriteHitAction::Upgrade => self.bus_upgrade(cpu, &req, CoherenceOp::Upgrade),
                WriteHitAction::Update => self.bus_upgrade(cpu, &req, CoherenceOp::Update),
            };
        }
        let (supplied, shared) = self.snoop_remotes(cpu, &req);
        // A pending write-buffer entry anywhere (own buffer included)
        // still holds the newest copy: it must answer before memory.
        let source = if supplied {
            self.stats.per_cpu[cpu].c2c_fills += 1;
            self.emit(cpu, req.line, CoherenceOp::C2CFill);
            FillSource::CacheToCache
        } else if self
            .cores
            .iter()
            .any(|c| c.sys().write_buffer_holds(req.now, req.line))
        {
            self.stats.per_cpu[cpu].wb_forwards += 1;
            self.emit(cpu, req.line, CoherenceOp::WbForward);
            FillSource::CacheToCache
        } else {
            FillSource::Memory
        };
        let side = self.cores[cpu].policy_mut().sidecar_mut();
        side.shared = shared;
        side.fill_cycles = self.bus.transaction_cycles(req.tx, source);
        // An update-based write miss fetches the line and then
        // broadcasts the written word to the surviving copies.
        if Proto::UPDATE_BASED && is_write && shared {
            self.bus_upgrade(cpu, &req, CoherenceOp::Update)
        } else {
            0
        }
    }

    /// Puts `cpu`'s BusUpgr for `req.line` on the bus: an ownership
    /// upgrade, or a word update under an update-based protocol.
    fn bus_upgrade(&mut self, cpu: usize, req: &Snoop, op: CoherenceOp) -> u64 {
        let stats = &mut self.stats.per_cpu[cpu];
        if op == CoherenceOp::Update {
            stats.updates += 1;
        } else {
            stats.upgrades += 1;
        }
        self.emit(cpu, req.line, op);
        let req = Snoop {
            tx: BusTx::BusUpgr,
            ..*req
        };
        self.snoop_remotes(cpu, &req);
        self.bus
            .transaction_cycles(BusTx::BusUpgr, FillSource::Memory)
    }

    /// Runs every other cache's snoop hook for `requester`'s
    /// transaction, books the flushes and invalidations, and returns
    /// whether any copy could supply the line and whether any survives.
    fn snoop_remotes(&mut self, requester: usize, req: &Snoop) -> (bool, bool) {
        let (mut supplied, mut shared) = (false, false);
        for c in (0..self.cores.len()).filter(|&c| c != requester) {
            let r = self.cores[c].snoop(req);
            supplied |= r.supply;
            shared |= r.holds;
            if r.flushed {
                // The owner's flush hides behind the requester's
                // transaction: bus occupancy and the owner's write
                // buffer, no requester cycles.
                let _ = self
                    .bus
                    .transaction_cycles(BusTx::Flush, FillSource::Memory);
            }
            if let Some(false_sharing) = r.invalidated {
                let victim = &mut self.stats.per_cpu[c];
                victim.invalidations_received += 1;
                victim.false_sharing_invalidations += u64::from(false_sharing);
                self.stats.per_cpu[requester].invalidations_sent += 1;
                self.emit(c, req.line, CoherenceOp::InvalidateRecv { false_sharing });
                self.emit(requester, req.line, CoherenceOp::InvalidateSent);
            }
        }
        (supplied, shared)
    }

    #[inline]
    fn emit(&mut self, cpu: usize, line: u64, op: CoherenceOp) {
        if P::ENABLED {
            self.cores[cpu].probe_mut().on_event(&Event::Coherence {
                cpu: cpu as u8,
                line,
                op,
            });
        }
    }

    /// Verifies the single-writer/multiple-reader invariant over every
    /// line currently cached anywhere: at most one owner (M/Sm), and an
    /// M or E copy is the *only* copy. Returns the first violation.
    pub fn check_swmr(&self) -> Result<(), String> {
        let mut by_line: BTreeMap<u64, Vec<(usize, LineState)>> = BTreeMap::new();
        for (c, core) in self.cores.iter().enumerate() {
            let tags = core.policy().tags();
            for (idx, slot) in core.policy().sidecar().slots.iter().enumerate() {
                let (e, s) = (tags.entry_at(idx), slot.state);
                if !e.valid {
                    continue;
                }
                if !s.is_valid() {
                    return Err(format!(
                        "cpu {c} holds line {} with Invalid protocol state",
                        e.line
                    ));
                }
                if e.dirty != s.is_dirty() {
                    return Err(format!(
                        "cpu {c} line {}: entry dirty={} but state {}",
                        e.line,
                        e.dirty,
                        s.name()
                    ));
                }
                by_line.entry(e.line).or_default().push((c, s));
            }
        }
        for (line, holders) in by_line {
            let owners = holders.iter().filter(|(_, s)| s.is_owner()).count();
            if owners > 1 {
                return Err(format!("line {line} has {owners} owners: {holders:?}"));
            }
            let exclusive = holders
                .iter()
                .filter(|(_, s)| matches!(s, LineState::Modified | LineState::Exclusive))
                .count();
            if exclusive > 0 && holders.len() > 1 {
                return Err(format!(
                    "line {line} has an exclusive copy among {} holders: {holders:?}",
                    holders.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StandardCache, MAIN_HIT_CYCLES, SNOOP_CYCLES};
    use sac_trace::interleave_round_robin;

    fn small_geom() -> CacheGeometry {
        // 8 sets, direct-mapped, 32 B lines.
        CacheGeometry::new(256, 32, 1)
    }

    /// A seeded pseudo-random single-CPU trace.
    fn random_trace(seed: u64, len: usize, lines: u64) -> Trace {
        let mut t = Trace::new("rand");
        let mut s = seed;
        for _ in 0..len {
            s = s.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let addr = ((s >> 33) % (lines * 4)) * 8;
            let a = if s & 1 == 0 {
                Access::read(addr)
            } else {
                Access::write(addr)
            };
            t.push(a.with_gap((s >> 8 & 3) as u32));
        }
        t
    }

    #[test]
    fn single_cpu_matches_standard_cache() {
        let trace = random_trace(0x5AC, 4000, 64);
        let mut std_cache = StandardCache::new(CacheGeometry::standard(), MemoryModel::default());
        for a in &trace {
            std_cache.access(a);
        }
        let mut coh: CoherentSystem<Mesi> =
            CoherentSystem::new(CacheGeometry::standard(), MemoryModel::default(), 1);
        coh.run(&trace);
        let a = std_cache.metrics();
        let b = coh.metrics();
        assert_eq!(a.refs, b.refs);
        assert_eq!(a.main_hits, b.main_hits);
        assert_eq!(a.misses, b.misses);
        assert_eq!(a.mem_cycles, b.mem_cycles, "AMAT-identical");
        assert_eq!(a.writebacks, b.writebacks);
        assert_eq!(a.stall_cycles, b.stall_cycles);
        assert_eq!(a.words_fetched, b.words_fetched);
        // And no coherence activity of any kind.
        assert_eq!(coh.stats().totals(), CpuCoherence::default());
        coh.check_swmr().unwrap();
    }

    #[test]
    fn read_sharing_then_upgrade() {
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 2);
        // Both CPUs read line 0: second fill is cache-to-cache, both S.
        sys.access(&Access::read(0).with_cpu(0));
        sys.access(&Access::read(0).with_cpu(1));
        assert_eq!(sys.stats().per_cpu()[1].c2c_fills, 1);
        sys.check_swmr().unwrap();
        // CPU 0 writes: hit on S → BusUpgr, CPU 1 invalidated.
        sys.access(&Access::write(0).with_cpu(0));
        let s = sys.stats();
        assert_eq!(s.per_cpu()[0].upgrades, 1);
        assert_eq!(s.per_cpu()[0].invalidations_sent, 1);
        assert_eq!(s.per_cpu()[1].invalidations_received, 1);
        sys.check_swmr().unwrap();
        // CPU 1 re-reads: the dirty owner supplies c2c and flushes.
        let wb_before = sys.metrics().writebacks;
        sys.access(&Access::read(0).with_cpu(1));
        assert_eq!(sys.stats().per_cpu()[1].c2c_fills, 2);
        assert_eq!(sys.metrics().writebacks, wb_before + 1, "owner flushed");
        sys.check_swmr().unwrap();
    }

    #[test]
    fn exclusive_write_hit_is_silent() {
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 2);
        sys.access(&Access::read(0).with_cpu(0)); // E, alone
        let cycles = sys.metrics().mem_cycles;
        sys.access(&Access::write(0).with_cpu(0)); // E → M, no bus
        assert_eq!(sys.metrics().mem_cycles, cycles + MAIN_HIT_CYCLES);
        assert_eq!(sys.stats().totals().upgrades, 0);
        sys.check_swmr().unwrap();
    }

    #[test]
    fn false_sharing_classified_by_word() {
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 2);
        // CPU 0 writes word 0, CPU 1 writes word 2 of the same line,
        // ping-pong: every invalidation is false sharing.
        for _ in 0..8 {
            sys.access(&Access::write(0).with_cpu(0));
            sys.access(&Access::write(16).with_cpu(1));
        }
        let t = sys.stats().totals();
        assert!(t.invalidations_received >= 14);
        assert_eq!(
            t.false_sharing_invalidations, t.invalidations_received,
            "disjoint words: all false sharing"
        );
        sys.check_swmr().unwrap();

        // Same line, same word: true sharing.
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 2);
        for _ in 0..8 {
            sys.access(&Access::write(0).with_cpu(0));
            sys.access(&Access::write(0).with_cpu(1));
        }
        let t = sys.stats().totals();
        assert!(t.invalidations_received >= 14);
        assert_eq!(t.false_sharing_invalidations, 0, "same word: all true");
    }

    #[test]
    fn dragon_updates_instead_of_ping_pong() {
        let mut sys: CoherentSystem<crate::Dragon> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 2);
        for _ in 0..8 {
            sys.access(&Access::write(0).with_cpu(0));
            sys.access(&Access::write(16).with_cpu(1));
        }
        let t = sys.stats().totals();
        assert_eq!(t.invalidations_received, 0, "Dragon never invalidates");
        assert!(t.updates > 0, "writes broadcast updates instead");
        // Both copies stay resident: after warmup every access hits.
        assert!(sys.metrics().misses <= 2);
        sys.check_swmr().unwrap();
    }

    #[test]
    fn write_buffer_forwards_before_drain() {
        // Zero-latency memory so the eviction's drain window is still
        // open when the remote read arrives.
        let mem = MemoryModel::new(0, 16);
        let mut sys: CoherentSystem<Mesi> = CoherentSystem::new(small_geom(), mem, 2);
        sys.access(&Access::write(0).with_cpu(0)); // line 0 → M
        sys.access(&Access::read(256).with_cpu(0)); // same set: evicts dirty line 0
        assert_eq!(sys.metrics().writebacks, 1);
        // Line 0 now lives only in CPU 0's write buffer; CPU 1's read
        // (issued back-to-back, gap 0) races the final drain beat and
        // must be forwarded, at c2c price.
        let cycles = sys.metrics().mem_cycles;
        sys.access(&Access::read(0).with_cpu(1).with_gap(0));
        assert_eq!(sys.stats().per_cpu()[1].wb_forwards, 1);
        assert_eq!(
            sys.metrics().mem_cycles,
            cycles + SNOOP_CYCLES + 2,
            "wb forward priced as a cache-to-cache fill"
        );
        sys.check_swmr().unwrap();
    }

    #[test]
    fn per_cpu_metrics_reconcile_with_global() {
        let streams: Vec<Trace> = (0..4u64)
            .map(|s| random_trace(0xBEEF + s, 2000, 64))
            .collect();
        let t = interleave_round_robin("mix", &streams);
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 4);
        sys.run(&t);
        let merged = Metrics::merged((0..4).map(|c| sys.core_metrics(c)));
        assert_eq!(merged, *sys.metrics());
        sys.check_swmr().unwrap();
    }

    #[test]
    fn swmr_holds_under_random_sharing() {
        // All CPUs hammer the same small line set with mixed reads and
        // writes; the invariant must hold after every access.
        let streams: Vec<Trace> = (0..3u64)
            .map(|s| random_trace(0xD0_0D + s, 600, 8))
            .collect();
        let t = interleave_round_robin("storm", &streams);
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 3);
        for a in &t {
            sys.access(a);
            sys.check_swmr().unwrap();
        }
        let total = sys.stats().totals();
        assert!(
            total.invalidations_received > 0,
            "sharing actually occurred"
        );
    }

    #[test]
    fn swmr_holds_under_dragon_too() {
        let streams: Vec<Trace> = (0..3u64).map(|s| random_trace(0xACE + s, 600, 8)).collect();
        let t = interleave_round_robin("storm", &streams);
        let mut sys: CoherentSystem<crate::Dragon> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 3);
        for a in &t {
            sys.access(a);
            sys.check_swmr().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "trace names cpu")]
    fn access_for_unknown_cpu_panics() {
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 1);
        sys.access(&Access::read(0).with_cpu(1));
    }
}
