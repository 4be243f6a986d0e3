//! Cycle accounting shared by all engines.

/// The engine clock: tracks the current cycle and cache-lock windows.
///
/// ```
/// use sac_simcache::Clock;
///
/// let mut c = Clock::new();
/// assert_eq!(c.arrive(5), 0);
/// c.complete(3);
/// c.lock_for(2);
/// assert_eq!(c.arrive(1), 1); // arrives inside the lock window
/// ```
///
/// Every access first *arrives* (clock advances by the issue gap, then
/// waits out any cache lock left by a previous swap), then *completes*
/// (clock advances by the access cost).
#[derive(Debug, Clone, Copy, Default)]
pub struct Clock {
    now: u64,
    locked_until: u64,
}

impl Clock {
    /// A clock at cycle zero with no lock pending.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Advances to the access's issue time and waits out any lock.
    /// Returns the stall (cycles spent waiting on the lock).
    #[inline]
    pub fn arrive(&mut self, gap: u32) -> u64 {
        self.now += gap as u64;
        if self.now < self.locked_until {
            let stall = self.locked_until - self.now;
            self.now = self.locked_until;
            stall
        } else {
            0
        }
    }

    /// Advances past the access itself.
    #[inline]
    pub fn complete(&mut self, cost: u64) {
        self.now += cost;
    }

    /// Locks the cache for `extra` cycles beyond the current time (the
    /// post-swap lock of §2.2).
    #[inline]
    pub fn lock_for(&mut self, extra: u64) {
        self.locked_until = self.now + extra;
    }

    /// The current cycle.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Swaps state with `other` field by field: a multi-core driver
    /// moves its one shared clock in and out of the acting core on every
    /// reference, and a whole-struct swap there stores 16 bytes that the
    /// access then reloads 8 at a time, which defeats store forwarding.
    #[inline]
    pub fn swap(&mut self, other: &mut Clock) {
        std::mem::swap(&mut self.now, &mut other.now);
        std::mem::swap(&mut self.locked_until, &mut other.locked_until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrive_advances_by_gap() {
        let mut c = Clock::new();
        assert_eq!(c.arrive(5), 0);
        assert_eq!(c.now(), 5);
    }

    #[test]
    fn lock_stalls_next_arrival() {
        let mut c = Clock::new();
        c.arrive(1);
        c.complete(3);
        c.lock_for(2); // locked until 6
        assert_eq!(c.arrive(1), 1); // arrives at 5, waits 1
        assert_eq!(c.now(), 6);
    }

    #[test]
    fn lock_expired_by_late_arrival() {
        let mut c = Clock::new();
        c.lock_for(2);
        assert_eq!(c.arrive(10), 0);
    }
}
