//! Bounded, timestamped queues modelling registered channel hops.
//!
//! Every wire is a fixed ring buffer sized at construction inside the
//! [`ChannelPool`](crate::ChannelPool), which packs every ring of a channel
//! into one contiguous arena (see `pool.rs`) and never allocates after
//! `new_wire`. The queue metadata (head/len/one-push-one-pop stamps/stats)
//! lives in [`Ring`]; it alone enforces the register-per-hop semantics.

use std::error::Error;
use std::fmt;

use crate::Cycle;

/// Why a push onto a wire was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PushError {
    /// The wire's bounded queue is full — downstream backpressure.
    Full,
    /// The wire already accepted a beat this cycle (one beat per cycle).
    Busy,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Full => f.write_str("wire queue is full"),
            PushError::Busy => f.write_str("wire already accepted a beat this cycle"),
        }
    }
}

impl Error for PushError {}

/// Occupancy and throughput counters of a wire, for congestion analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WireStats {
    /// Total number of items ever pushed.
    pub total_pushed: u64,
    /// Highest queue occupancy observed.
    pub high_water: usize,
    /// Number of pushes refused because the queue was full.
    pub full_stalls: u64,
}

/// Sentinel for "no cycle recorded yet" in [`Ring`] stamps. The simulation
/// never reaches cycle `u64::MAX`, so the sentinel can share the `Cycle`
/// domain and the hot-path comparisons stay branch-free integer compares.
pub(crate) const NO_CYCLE: Cycle = Cycle::MAX;

/// Queue metadata of one ring buffer: position in the backing arena plus
/// the register-per-hop guards (one push and one pop per cycle).
///
/// The ring itself holds no items — the pool owns one slot arena per
/// channel and asks the ring which slot to read or write. Indices are `u32`: a wire capacity beyond 4
/// billion beats is not a simulation, it's a bug.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ring {
    base: u32,
    cap: u32,
    head: u32,
    len: u32,
    last_push: Cycle,
    last_pop: Cycle,
    stats: WireStats,
}

impl Ring {
    /// Creates ring metadata for `capacity` slots starting at arena index
    /// `base`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity wire could never
    /// transport anything.
    pub(crate) fn new(base: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "wire capacity must be at least 1");
        assert!(capacity <= u32::MAX as usize, "wire capacity exceeds u32");
        Self {
            base: base as u32,
            cap: capacity as u32,
            head: 0,
            len: 0,
            last_push: NO_CYCLE,
            last_pop: NO_CYCLE,
            stats: WireStats::default(),
        }
    }

    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.cap as usize
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn stats(&self) -> WireStats {
        self.stats
    }

    #[inline]
    pub(crate) fn can_push(&self, cycle: Cycle) -> bool {
        self.len < self.cap && self.last_push != cycle
    }

    /// Arena index of the slot a push would write next.
    #[inline]
    fn tail_slot(&self) -> usize {
        let mut pos = self.head + self.len;
        if pos >= self.cap {
            pos -= self.cap;
        }
        (self.base + pos) as usize
    }

    /// Arena index of the current front beat (only valid if `len > 0`).
    #[inline]
    fn front_slot(&self) -> usize {
        (self.base + self.head) as usize
    }

    /// Claims the tail slot for a push at `cycle`: enforces the
    /// one-push-per-cycle and capacity guards, stamps `last_push`, bumps
    /// stats, and returns the arena slot the caller must now fill.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] on backpressure, [`PushError::Busy`] if a beat
    /// was already pushed this cycle.
    #[inline]
    pub(crate) fn try_push(&mut self, cycle: Cycle) -> Result<usize, PushError> {
        if self.last_push == cycle {
            return Err(PushError::Busy);
        }
        if self.len >= self.cap {
            self.stats.full_stalls += 1;
            return Err(PushError::Full);
        }
        let slot = self.tail_slot();
        self.len += 1;
        self.last_push = cycle;
        self.stats.total_pushed += 1;
        if self.len as usize > self.stats.high_water {
            self.stats.high_water = self.len as usize;
        }
        Ok(slot)
    }

    /// Arena slot of the front beat if the one-pop-per-cycle guard allows
    /// a pop (or peek) at `cycle`. The caller must still check the beat's
    /// push stamp for visibility (`pushed < cycle`).
    #[inline]
    pub(crate) fn front_candidate(&self, cycle: Cycle) -> Option<usize> {
        if self.len == 0 || self.last_pop == cycle {
            None
        } else {
            Some(self.front_slot())
        }
    }

    /// Commits a pop at `cycle`: advances the head and stamps `last_pop`.
    /// Call only after `front_candidate` returned a slot whose beat is
    /// visible.
    #[inline]
    pub(crate) fn commit_pop(&mut self, cycle: Cycle) {
        self.head += 1;
        if self.head >= self.cap {
            self.head = 0;
        }
        self.len -= 1;
        self.last_pop = cycle;
    }
}

#[cfg(test)]
mod tests {
    //! The register-per-hop semantics, checked on the pool — the only
    //! owner of wires.

    use super::*;
    use crate::{ChannelPool, WireId};
    use axi4::WBeat;

    fn wire(capacity: usize) -> (ChannelPool, WireId<WBeat>) {
        let mut pool = ChannelPool::new();
        let id = pool.new_wire::<WBeat>(capacity);
        (pool, id)
    }

    fn beat(data: u64) -> WBeat {
        WBeat::full(data, false)
    }

    fn pop(pool: &mut ChannelPool, id: WireId<WBeat>, cycle: Cycle) -> Option<u64> {
        pool.pop(id, cycle).map(|b| b.data)
    }

    #[test]
    fn push_visible_next_cycle() {
        let (mut pool, w) = wire(4);
        pool.try_push(w, 5, beat(1)).unwrap();
        assert!(pool.peek(w, 5).is_none());
        assert_eq!(pool.peek(w, 6).map(|b| b.data), Some(1));
        assert_eq!(pop(&mut pool, w, 6), Some(1));
        assert!(pool.is_empty(w));
    }

    #[test]
    fn one_push_per_cycle() {
        let (mut pool, w) = wire(4);
        pool.try_push(w, 0, beat(1)).unwrap();
        assert_eq!(pool.try_push(w, 0, beat(2)), Err(PushError::Busy));
        assert!(!pool.can_push(w, 0));
        assert!(pool.can_push(w, 1));
        pool.try_push(w, 1, beat(2)).unwrap();
        assert_eq!(pool.len(w), 2);
    }

    #[test]
    fn one_pop_per_cycle() {
        let (mut pool, w) = wire(4);
        pool.try_push(w, 0, beat(1)).unwrap();
        pool.try_push(w, 1, beat(2)).unwrap();
        assert_eq!(pop(&mut pool, w, 2), Some(1));
        // Second item was pushed at cycle 1, so visible at 2 — but only one
        // pop per cycle is allowed.
        assert_eq!(pop(&mut pool, w, 2), None);
        assert!(pool.peek(w, 2).is_none());
        assert_eq!(pop(&mut pool, w, 3), Some(2));
    }

    #[test]
    fn capacity_backpressure() {
        let (mut pool, w) = wire(2);
        pool.try_push(w, 0, beat(1)).unwrap();
        pool.try_push(w, 1, beat(2)).unwrap();
        assert_eq!(pool.try_push(w, 2, beat(3)), Err(PushError::Full));
        assert!(!pool.can_push(w, 2));
        assert_eq!(pool.stats(w).full_stalls, 1);
        // Draining frees a slot.
        assert_eq!(pop(&mut pool, w, 2), Some(1));
        assert!(pool.can_push(w, 3));
    }

    #[test]
    fn stats_track_throughput() {
        let (mut pool, w) = wire(3);
        for c in 0..3 {
            pool.try_push(w, c, beat(c)).unwrap();
        }
        assert_eq!(
            pool.stats(w),
            WireStats {
                total_pushed: 3,
                high_water: 3,
                full_stalls: 0,
            }
        );
        // Pops free slots but never lower the lifetime counters.
        assert_eq!(pop(&mut pool, w, 3), Some(0));
        pool.try_push(w, 4, beat(3)).unwrap();
        assert_eq!(pool.stats(w).total_pushed, 4);
        assert_eq!(pool.stats(w).high_water, 3);
        assert_eq!(pool.total_pushes(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = wire(0);
    }

    #[test]
    fn tap_sees_every_push_exactly_once() {
        let (mut pool, w) = wire(2);
        let mut out = Vec::new();
        // Untapped: pushes are not recorded.
        pool.try_push(w, 0, beat(1)).unwrap();
        pool.drain_tap(w, &mut out);
        assert!(out.is_empty());
        assert_eq!(pop(&mut pool, w, 1), Some(1));
        pool.enable_tap(w);
        // Two identical payloads back to back — a peek-based observer would
        // dedupe them away; the tap must not.
        pool.try_push(w, 1, beat(7)).unwrap();
        pool.try_push(w, 2, beat(7)).unwrap();
        assert_eq!(pool.try_push(w, 3, beat(8)), Err(PushError::Full));
        pool.drain_tap(w, &mut out);
        assert_eq!(out, [(1, beat(7)), (2, beat(7))]);
        // Drained: nothing left, refusals never recorded.
        out.clear();
        pool.drain_tap(w, &mut out);
        assert!(out.is_empty());
        // Consumption does not disturb the tap.
        assert_eq!(pop(&mut pool, w, 3), Some(7));
        pool.try_push(w, 3, beat(9)).unwrap();
        pool.drain_tap(w, &mut out);
        assert_eq!(out, [(3, beat(9))]);
    }

    #[test]
    fn fifo_order_preserved() {
        let (mut pool, w) = wire(8);
        for c in 0..5u64 {
            pool.try_push(w, c, beat(c * 10)).unwrap();
        }
        let mut out = Vec::new();
        let mut cycle = 5;
        while let Some(v) = pop(&mut pool, w, cycle) {
            out.push(v);
            cycle += 1;
        }
        assert_eq!(out, [0, 10, 20, 30, 40]);
    }

    #[test]
    fn ring_wraps_without_reordering() {
        // Exercise head wrap-around: fill, drain, refill repeatedly on a
        // small ring and check FIFO order survives the wrap. A second wire
        // shares the channel arena, so a wrap that escaped its own slots
        // would corrupt the neighbour.
        let (mut pool, w) = wire(3);
        let neighbour = pool.new_wire::<WBeat>(2);
        pool.try_push(neighbour, 0, beat(99)).unwrap();
        let mut cycle = 0u64;
        let mut expect = 0u64;
        for round in 0..5u64 {
            for i in 0..3 {
                pool.try_push(w, cycle, beat(round * 3 + i)).unwrap();
                cycle += 1;
            }
            for _ in 0..3 {
                assert_eq!(pop(&mut pool, w, cycle), Some(expect));
                expect += 1;
                cycle += 1;
            }
            assert!(pool.is_empty(w));
        }
        assert_eq!(pool.stats(w).total_pushed, 15);
        assert_eq!(pop(&mut pool, neighbour, cycle), Some(99));
    }
}
