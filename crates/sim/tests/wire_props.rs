//! Property-based tests of the kernel's wire semantics, the foundation all
//! timing results rest on: FIFO order, register-per-hop visibility, bounded
//! capacity, and one-beat-per-cycle throughput.

use axi4::WBeat;
use axi_sim::{ChannelPool, WireId};
use proptest::prelude::*;

/// A fresh pool holding one W wire of `capacity`.
fn one_wire(capacity: usize) -> (ChannelPool, WireId<WBeat>) {
    let mut pool = ChannelPool::new();
    let id = pool.new_wire(capacity);
    (pool, id)
}

/// A random schedule of interleaved push/pop attempts over many cycles.
fn arb_schedule() -> impl Strategy<Value = Vec<(bool, bool)>> {
    prop::collection::vec((any::<bool>(), any::<bool>()), 1..200)
}

proptest! {
    /// Items come out in exactly the order they went in, regardless of the
    /// push/pop interleaving.
    #[test]
    fn fifo_order(schedule in arb_schedule(), capacity in 1usize..8) {
        let (mut pool, wire) = one_wire(capacity);
        let mut next_value = 0u64;
        let mut popped = Vec::new();
        for (cycle, &(try_push, try_pop)) in schedule.iter().enumerate() {
            let cycle = cycle as u64;
            if try_push && pool.can_push(wire, cycle) {
                pool.try_push(wire, cycle, WBeat::full(next_value, false)).expect("can_push checked");
                next_value += 1;
            }
            if try_pop {
                if let Some(beat) = pool.pop(wire, cycle) {
                    popped.push(beat.data);
                }
            }
        }
        let expected: Vec<u64> = (0..popped.len() as u64).collect();
        prop_assert_eq!(popped, expected);
    }

    /// An item is never observable in the cycle it was pushed.
    #[test]
    fn no_zero_cycle_hops(schedule in arb_schedule()) {
        let (mut pool, wire) = one_wire(4);
        for (cycle, &(try_push, try_pop)) in schedule.iter().enumerate() {
            let cycle = cycle as u64;
            let was_empty = pool.is_empty(wire);
            if try_push && pool.can_push(wire, cycle) {
                pool.try_push(wire, cycle, WBeat::full(cycle, false)).expect("can_push checked");
                if was_empty && try_pop {
                    prop_assert!(pool.pop(wire, cycle).is_none(), "cycle {} zero-hop", cycle);
                }
            }
        }
    }

    /// Occupancy never exceeds capacity, and the stats' high-water mark
    /// honours the same bound.
    #[test]
    fn capacity_bound(schedule in arb_schedule(), capacity in 1usize..6) {
        let (mut pool, wire) = one_wire(capacity);
        for (cycle, &(try_push, try_pop)) in schedule.iter().enumerate() {
            let cycle = cycle as u64;
            if try_push {
                let _ = pool.try_push(wire, cycle, WBeat::full(0, false));
            }
            if try_pop {
                let _ = pool.pop(wire, cycle);
            }
            prop_assert!(pool.len(wire) <= capacity);
        }
        prop_assert!(pool.stats(wire).high_water <= capacity);
    }

    /// At most one push and one pop succeed per cycle, however many are
    /// attempted.
    #[test]
    fn one_beat_per_cycle(attempts in 2usize..6, cycles in 1u64..50) {
        let (mut pool, wire) = one_wire(64);
        for cycle in 0..cycles {
            let mut pushes = 0;
            for _ in 0..attempts {
                if pool.try_push(wire, cycle, WBeat::full(cycle, false)).is_ok() {
                    pushes += 1;
                }
            }
            prop_assert!(pushes <= 1, "cycle {}: {} pushes", cycle, pushes);
        }
        // Drain with multiple pop attempts per cycle.
        let mut total_popped = 0u64;
        for cycle in cycles..cycles + 200 {
            let mut pops = 0;
            for _ in 0..attempts {
                if pool.pop(wire, cycle).is_some() {
                    pops += 1;
                }
            }
            prop_assert!(pops <= 1, "cycle {}: {} pops", cycle, pops);
            total_popped += pops;
        }
        prop_assert_eq!(total_popped, cycles.min(64));
    }

    /// `total_pushed` counts exactly the accepted pushes.
    #[test]
    fn stats_count_pushes(schedule in arb_schedule()) {
        let (mut pool, wire) = one_wire(3);
        let mut accepted = 0u64;
        for (cycle, &(try_push, try_pop)) in schedule.iter().enumerate() {
            let cycle = cycle as u64;
            if try_push && pool.try_push(wire, cycle, WBeat::full(0, false)).is_ok() {
                accepted += 1;
            }
            if try_pop {
                let _ = pool.pop(wire, cycle);
            }
        }
        prop_assert_eq!(pool.stats(wire).total_pushed, accepted);
    }
}
