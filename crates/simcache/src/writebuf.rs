//! The write buffer: dirty victims drain to memory over the bus.

use std::collections::VecDeque;

/// A timed write buffer whose pending entries are visible to bus snoops.
///
/// Dirty victim lines are pushed here instead of stalling the processor;
/// entries retire over the bus, one line every `retire_cycles`. Pushing
/// into a full buffer stalls until the oldest entry retires — the stall is
/// returned so the engine can charge it (§2.1 notes that with a large
/// virtual line and many dirty targets, not all transfers can be hidden).
///
/// Each entry remembers its line: under snooping coherence a dirty line
/// still in the buffer is the newest copy, so a remote miss racing the
/// drain is answered from it (a *write-buffer forward*, see
/// [`WriteBuffer::snoop`]).
///
/// ```
/// use sac_simcache::WriteBuffer;
///
/// let mut wb = WriteBuffer::new(2, 2);
/// assert_eq!(wb.push(0, 7), 0);
/// assert_eq!(wb.push(0, 8), 0);
/// assert!(wb.snoop(1, 7));
/// // Buffer full; third push at cycle 0 waits for the first retire at 2.
/// assert_eq!(wb.push(0, 9), 2);
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    cap: usize,
    retire_cycles: u64,
    /// `(completion time, line)` of in-flight writes, oldest first.
    inflight: VecDeque<(u64, u64)>,
}

impl WriteBuffer {
    /// Creates a write buffer of `cap` line entries, each taking
    /// `retire_cycles` of bus time to drain.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize, retire_cycles: u64) -> Self {
        assert!(cap > 0, "write buffer needs at least one entry");
        WriteBuffer {
            cap,
            retire_cycles: retire_cycles.max(1),
            inflight: VecDeque::with_capacity(cap),
        }
    }

    /// Whether a push at `now` would stall.
    pub fn is_full(&mut self, now: u64) -> bool {
        self.drain(now);
        self.inflight.len() == self.cap
    }

    /// Enqueues the dirty line `line` at cycle `now`; returns the stall in
    /// cycles (0 unless the buffer was full).
    pub fn push(&mut self, now: u64, line: u64) -> u64 {
        self.drain(now);
        let mut stall = 0;
        let mut now = now;
        if self.inflight.len() == self.cap {
            let (head, _) = *self.inflight.front().expect("full buffer has a head");
            stall = head - now;
            now = head;
            self.inflight.pop_front();
        }
        let start = self.inflight.back().map_or(now, |&(t, _)| t).max(now);
        self.inflight.push_back((start + self.retire_cycles, line));
        stall
    }

    /// Answers a bus snoop at cycle `now`: whether a pending entry holds
    /// `line`. An entry retiring at cycle `t` occupies the bus through
    /// `t`, so the visibility boundary is inclusive: a snoop at exactly
    /// `t` still forwards (memory is only consistent from `t + 1` on).
    /// The timing side ([`WriteBuffer::push`], fullness) keeps the
    /// exclusive boundary — only snoop *visibility* extends through the
    /// final beat.
    pub fn snoop(&self, now: u64, line: u64) -> bool {
        self.inflight.iter().any(|&(t, l)| l == line && t >= now)
    }

    fn drain(&mut self, now: u64) {
        while let Some(&(head, _)) = self.inflight.front() {
            if head <= now {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_without_pressure_are_free() {
        let mut wb = WriteBuffer::new(4, 2);
        for t in [0u64, 10, 20] {
            assert_eq!(wb.push(t, 0), 0);
        }
    }

    #[test]
    fn retirement_frees_slots() {
        let mut wb = WriteBuffer::new(1, 2);
        assert_eq!(wb.push(0, 0), 0);
        // Retires at 2; pushing at 5 is free again.
        assert_eq!(wb.push(5, 0), 0);
    }

    #[test]
    fn full_buffer_stalls_until_head_retires() {
        let mut wb = WriteBuffer::new(2, 10);
        wb.push(0, 0); // retires at 10
        wb.push(0, 0); // retires at 20 (serialized on the bus)
        let stall = wb.push(0, 0);
        assert_eq!(stall, 10);
    }

    #[test]
    fn serialized_retirement_chains() {
        let mut wb = WriteBuffer::new(8, 2);
        for _ in 0..8 {
            assert_eq!(wb.push(0, 0), 0);
        }
        // Ninth push at cycle 0: head retires at 2.
        assert_eq!(wb.push(0, 0), 2);
    }

    #[test]
    fn fullness_reflects_time() {
        let mut wb = WriteBuffer::new(2, 2);
        wb.push(0, 0);
        wb.push(0, 0);
        assert!(wb.is_full(1));
        assert!(!wb.is_full(2), "the head retired at 2");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = WriteBuffer::new(0, 2);
    }

    #[test]
    fn snoop_sees_pending_line_until_drain() {
        let mut wb = WriteBuffer::new(4, 10);
        wb.push(0, 0x40);
        assert!(wb.snoop(5, 0x40), "pending entry forwards");
        assert!(!wb.snoop(5, 0x80), "other lines do not");
        // The final beat lands during cycle 10: still visible there,
        // memory consistent from 11 on.
        assert!(wb.snoop(10, 0x40));
        assert!(!wb.snoop(11, 0x40));
    }

    #[test]
    fn full_buffer_stall_frees_the_head() {
        let mut wb = WriteBuffer::new(1, 10);
        assert_eq!(wb.push(0, 1), 0);
        assert_eq!(wb.push(0, 2), 10);
        assert!(wb.is_full(10));
    }
}
