//! Cache geometry and memory-system parameters.

use std::fmt;

/// Geometry of one cache array.
///
/// The paper's *Standard* baseline matches the on-chip data caches of the
/// DEC Alpha, MIPS R4000 and Intel Pentium: 8 KB, 32-byte lines,
/// direct-mapped — see [`CacheGeometry::standard`].
///
/// ```
/// use sac_simcache::CacheGeometry;
///
/// let g = CacheGeometry::standard();
/// assert_eq!(g.sets(), 256);
/// assert_eq!(g.lines(), 256);
/// let g2 = CacheGeometry::new(16 * 1024, 64, 2);
/// assert_eq!(g2.sets(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    line_bytes: u64,
    ways: u32,
    // Derived at construction so the per-reference address mapping avoids
    // u64 division when (as in every paper configuration) sizes are powers
    // of two. Sentinels (`u32::MAX` / `u64::MAX`) select the generic
    // divide/modulo path.
    sets: u64,
    line_shift: u32,
    set_mask: u64,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes ≥ 8`, `ways ≥ 1` and
    /// `size_bytes` is a positive multiple of `line_bytes · ways`.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: u32) -> Self {
        assert!(line_bytes >= 8, "line must hold at least one word");
        assert!(ways >= 1, "at least one way");
        assert!(
            size_bytes > 0 && size_bytes.is_multiple_of(line_bytes * ways as u64),
            "cache size must be a positive multiple of line*ways"
        );
        let sets = size_bytes / (line_bytes * ways as u64);
        CacheGeometry {
            size_bytes,
            line_bytes,
            ways,
            sets,
            line_shift: if line_bytes.is_power_of_two() {
                line_bytes.trailing_zeros()
            } else {
                u32::MAX
            },
            set_mask: if sets.is_power_of_two() {
                sets - 1
            } else {
                u64::MAX
            },
        }
    }

    /// The paper's Standard configuration: 8 KB, 32-byte lines, 1-way.
    pub fn standard() -> Self {
        CacheGeometry::new(8 * 1024, 32, 1)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Physical line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Associativity.
    #[inline]
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// The line number holding a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        if self.line_shift != u32::MAX {
            addr >> self.line_shift
        } else {
            addr / self.line_bytes
        }
    }

    /// The set index of a line number.
    #[inline]
    pub fn set_of_line(&self, line: u64) -> u64 {
        if self.set_mask != u64::MAX {
            line & self.set_mask
        } else {
            line % self.sets
        }
    }
}

impl Default for CacheGeometry {
    fn default() -> Self {
        CacheGeometry::standard()
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB/{}B/{}-way",
            self.size_bytes / 1024,
            self.line_bytes,
            self.ways
        )
    }
}

/// Memory latency and bus bandwidth.
///
/// Defaults are the paper's simulation parameters: 20-cycle latency and a
/// 16-byte-per-cycle bus (as on the IBM RS/6000).
///
/// ```
/// use sac_simcache::MemoryModel;
///
/// let m = MemoryModel::default();
/// // One 32-byte line: 20 + 32/16 = 22 cycles.
/// assert_eq!(m.fetch_cycles(1, 32), 22);
/// // A 256-byte virtual line (8 lines) takes 14 more cycles than one line.
/// assert_eq!(m.fetch_cycles(8, 32) - m.fetch_cycles(1, 32), 14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryModel {
    latency: u64,
    bus_bytes: u64,
}

impl MemoryModel {
    /// Creates a memory model.
    ///
    /// # Panics
    ///
    /// Panics if `bus_bytes` is zero.
    pub fn new(latency: u64, bus_bytes: u64) -> Self {
        assert!(bus_bytes > 0, "bus width must be positive");
        MemoryModel { latency, bus_bytes }
    }

    /// Memory latency in cycles.
    #[inline]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Bus bandwidth in bytes per cycle.
    pub fn bus_bytes(&self) -> u64 {
        self.bus_bytes
    }

    /// Returns a copy with a different latency (for Figure 10b sweeps).
    pub fn with_latency(self, latency: u64) -> Self {
        MemoryModel { latency, ..self }
    }

    /// Cycles to fetch `lines` physical lines of `line_bytes` each:
    /// `t_lat + n·LS/w_b` (§2.1).
    #[inline]
    pub fn fetch_cycles(&self, lines: u64, line_bytes: u64) -> u64 {
        self.latency + (lines * line_bytes).div_ceil(self.bus_bytes)
    }

    /// Cycles to transfer one item of `bytes` over the bus.
    #[inline]
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.bus_bytes)
    }
}

impl Default for MemoryModel {
    fn default() -> Self {
        MemoryModel::new(20, 16)
    }
}

impl fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lat={} bus={}B/cy", self.latency, self.bus_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_geometry() {
        let g = CacheGeometry::standard();
        assert_eq!(g.size_bytes(), 8192);
        assert_eq!(g.line_bytes(), 32);
        assert_eq!(g.ways(), 1);
        assert_eq!(g.sets(), 256);
    }

    #[test]
    fn set_mapping_wraps() {
        let g = CacheGeometry::standard();
        assert_eq!(g.line_of(0), 0);
        assert_eq!(g.line_of(31), 0);
        assert_eq!(g.line_of(32), 1);
        // Lines 8 KB apart map to the same set.
        assert_eq!(g.set_of_line(g.line_of(0)), g.set_of_line(g.line_of(8192)));
    }

    #[test]
    fn associative_geometry() {
        let g = CacheGeometry::new(8 * 1024, 32, 2);
        assert_eq!(g.sets(), 128);
        assert_eq!(g.lines(), 256);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_size_rejected() {
        let _ = CacheGeometry::new(1000, 32, 1);
    }

    #[test]
    fn non_power_of_two_sets_fall_back_to_modulo() {
        // 96 sets: the mask fast path must not engage.
        let g = CacheGeometry::new(96 * 32, 32, 1);
        assert_eq!(g.sets(), 96);
        for line in [0u64, 1, 95, 96, 97, 191, 1000] {
            assert_eq!(g.set_of_line(line), line % 96);
        }
        // 24-byte lines: the shift fast path must not engage.
        let g = CacheGeometry::new(24 * 64, 24, 1);
        for addr in [0u64, 23, 24, 25, 47, 48, 1000] {
            assert_eq!(g.line_of(addr), addr / 24);
        }
    }

    #[test]
    fn fetch_cost_formula() {
        let m = MemoryModel::new(20, 16);
        assert_eq!(m.fetch_cycles(1, 32), 22);
        assert_eq!(m.fetch_cycles(2, 32), 24);
        assert_eq!(m.fetch_cycles(1, 64), 24);
        // Word-sized fetch rounds up to one bus beat.
        assert_eq!(m.fetch_cycles(1, 8), 21);
    }

    #[test]
    fn latency_sweep_helper() {
        let m = MemoryModel::default().with_latency(5);
        assert_eq!(m.latency(), 5);
        assert_eq!(m.bus_bytes(), 16);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CacheGeometry::standard().to_string(), "8KB/32B/1-way");
        assert_eq!(MemoryModel::default().to_string(), "lat=20 bus=16B/cy");
    }
}
