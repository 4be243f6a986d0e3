//! The snoop bus: one arbitrated path to memory that a cache charges
//! its transfers through.
//!
//! Every [`crate::MemorySystem`] owns one and prices its line fetches on
//! it ([`SnoopBus::fetch_cycles`] is exactly `t_lat + n·LS/w_b`). A
//! [`crate::CoherentSystem`] keeps one more beside its cores and prices
//! every core's fills and coherence transactions there (BusRd, BusRdX,
//! BusUpgr, flush), telling a cache-to-cache transfer from a memory
//! fill; its cores' own buses stay idle. The bus keeps the transaction
//! and occupancy books a contention analysis can read back.

use crate::{MemoryModel, SNOOP_CYCLES};

/// The bus transactions of an invalidation-based snooping protocol
/// (MESI naming; the update-based Dragon variant reuses `BusUpgr`
/// pricing for its word updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusTx {
    /// Read miss: fetch a line with no intent to modify.
    BusRd,
    /// Write miss: fetch a line with intent to modify, invalidating
    /// remote copies.
    BusRdX,
    /// Write hit on a shared line: address-only ownership upgrade,
    /// invalidating remote copies without a data transfer.
    BusUpgr,
    /// A dirty owner pushes its line toward memory in response to a
    /// remote transaction.
    Flush,
}

/// Where the data of a miss fill came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillSource {
    /// No cache held the line: a full-latency memory fetch.
    Memory,
    /// Another cache (or a pending write-buffer entry) supplied the line
    /// over the bus without the memory round-trip.
    CacheToCache,
}

/// The shared snoop bus: [`MemoryModel`] parameters, the line size every
/// transfer is priced at, and occupancy counters.
///
/// Every memory system owns one; a [`crate::CoherentSystem`] prices all
/// its cores' transactions on one more, so counts and occupancy
/// aggregate globally.
#[derive(Debug, Clone)]
pub struct SnoopBus {
    mem: MemoryModel,
    line_bytes: u64,
    transactions: u64,
    occupancy_cycles: u64,
}

impl SnoopBus {
    /// Creates a bus for caches of `line_bytes`-byte lines.
    pub fn new(mem: MemoryModel, line_bytes: u64) -> Self {
        SnoopBus {
            mem,
            line_bytes,
            transactions: 0,
            occupancy_cycles: 0,
        }
    }

    /// The memory/bus parameters.
    #[inline]
    pub fn memory(&self) -> MemoryModel {
        self.mem
    }

    /// The physical line size transfers are priced at.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Bus cycles to move one cache line (`LS/w_b`).
    #[inline]
    pub fn line_transfer_cycles(&self) -> u64 {
        self.mem.transfer_cycles(self.line_bytes)
    }

    /// Demand-fetch cost of `lines` physical lines from memory:
    /// `t_lat + n·LS/w_b`, exactly the uniprocessor formula. The data
    /// beats are logged as bus occupancy.
    #[inline]
    pub fn fetch_cycles(&mut self, lines: u64) -> u64 {
        self.transactions += 1;
        let transfer = (lines * self.line_bytes).div_ceil(self.mem.bus_bytes());
        self.occupancy_cycles += transfer;
        self.mem.latency() + transfer
    }

    /// Cost of one coherence transaction, charged to the requester's
    /// access and logged as occupancy:
    ///
    /// * `BusRd`/`BusRdX` from [`FillSource::Memory`]: the full
    ///   `t_lat + LS/w_b` memory fetch;
    /// * `BusRd`/`BusRdX` from [`FillSource::CacheToCache`]: the snoop
    ///   lookup plus one line transfer (`SNOOP_CYCLES + LS/w_b`) — the
    ///   supplying cache answers without the memory round-trip;
    /// * `BusUpgr`: address-only, [`SNOOP_CYCLES`];
    /// * `Flush`: one line of bus beats (`LS/w_b`), hidden behind the
    ///   requester's transaction — callers charge it to occupancy only.
    pub fn transaction_cycles(&mut self, tx: BusTx, source: FillSource) -> u64 {
        self.transactions += 1;
        let cycles = match (tx, source) {
            (BusTx::BusRd | BusTx::BusRdX, FillSource::Memory) => {
                self.mem.latency() + self.line_transfer_cycles()
            }
            (BusTx::BusRd | BusTx::BusRdX, FillSource::CacheToCache) => {
                SNOOP_CYCLES + self.line_transfer_cycles()
            }
            (BusTx::BusUpgr, _) => SNOOP_CYCLES,
            (BusTx::Flush, _) => self.line_transfer_cycles(),
        };
        self.occupancy_cycles += match tx {
            // The address phase of an upgrade occupies the bus for its
            // whole cost; data transactions log only their data beats
            // (the latency part is memory wait, not bus time).
            BusTx::BusUpgr => cycles,
            BusTx::BusRd | BusTx::BusRdX => self.line_transfer_cycles(),
            BusTx::Flush => cycles,
        };
        cycles
    }

    /// Total transactions arbitrated so far.
    #[inline]
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Total cycles of bus occupancy (data beats plus address-only
    /// transactions) accumulated so far.
    #[inline]
    pub fn occupancy_cycles(&self) -> u64 {
        self.occupancy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> SnoopBus {
        SnoopBus::new(MemoryModel::default(), 32)
    }

    #[test]
    fn fetch_matches_uniprocessor_formula() {
        let mut b = bus();
        // 20-cycle latency + 32 B over a 16 B bus.
        assert_eq!(b.fetch_cycles(1), 22);
        assert_eq!(b.fetch_cycles(8), 20 + 16);
        assert_eq!(b.transactions(), 2);
        assert_eq!(b.occupancy_cycles(), 2 + 16);
    }

    #[test]
    fn cache_to_cache_is_cheaper_than_memory() {
        let mut b = bus();
        let mem = b.transaction_cycles(BusTx::BusRd, FillSource::Memory);
        let c2c = b.transaction_cycles(BusTx::BusRd, FillSource::CacheToCache);
        assert_eq!(mem, 22);
        assert_eq!(c2c, SNOOP_CYCLES + 2);
        assert!(c2c < mem);
    }

    #[test]
    fn upgrade_is_address_only() {
        let mut b = bus();
        assert_eq!(
            b.transaction_cycles(BusTx::BusUpgr, FillSource::Memory),
            SNOOP_CYCLES
        );
        assert_eq!(b.occupancy_cycles(), SNOOP_CYCLES);
    }

    #[test]
    fn flush_prices_one_line_of_beats() {
        let mut b = bus();
        assert_eq!(b.transaction_cycles(BusTx::Flush, FillSource::Memory), 2);
        assert_eq!(b.occupancy_cycles(), 2);
    }
}
