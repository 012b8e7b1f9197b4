//! Micro-workload for the arena `ChannelPool`: the index-addressed ring
//! hot path every wire sees under load, behind the `channel_pool`
//! criterion bench.

use axi4::{BBeat, TxnId};
use axi_sim::ChannelPool;

/// Ring capacity used by every workload — the default per-wire depth the
/// simulated bundles run with.
pub const RING_CAP: usize = 8;

fn beat(k: u64) -> BBeat {
    BBeat::okay(TxnId::new((k & 0xffff) as u32))
}

/// One beat relayed per simulated cycle through a pool ring: pop the beat
/// pushed last cycle, push this cycle's — the steady-state per-cycle hot
/// path every wire sees under load. Returns a checksum over the popped
/// beats so the work cannot be elided.
pub fn ring_push_pop(ops: u64) -> u64 {
    let mut pool = ChannelPool::new();
    let wire = pool.new_wire::<BBeat>(RING_CAP);
    let mut sum = 0u64;
    for c in 0..ops {
        if let Some(b) = pool.pop(wire, c) {
            sum = sum.wrapping_add(u64::from(b.id.raw()));
        }
        pool.push(wire, c, beat(c));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring and a plain sum over the pushed ids agree: every beat but
    /// the last one pushed comes out exactly once, so the bench measures
    /// ring traffic, not a shortcut.
    #[test]
    fn variants_agree_on_the_moved_beats() {
        let expected = |ops: u64| (0..ops - 1).fold(0u64, |sum, k| sum.wrapping_add(k & 0xffff));
        assert_eq!(ring_push_pop(4096), expected(4096));
        assert_eq!(ring_push_pop(70_000), expected(70_000));
        assert_ne!(ring_push_pop(512), 0);
    }
}
