//! AXI channel bundles: one handle per channel of an AXI4 port.

use axi4::{ArBeat, AwBeat, BBeat, RBeat, WBeat};

use crate::pool::{ChannelPool, WireId};
use crate::topology::{PortDecl, PortDir};

/// Queue capacities for the five wires of an [`AxiBundle`].
///
/// The defaults model shallow register slices (two entries per channel) as
/// found between IPs in PULP-style interconnects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BundleCapacity {
    /// Write-address channel depth.
    pub aw: usize,
    /// Write-data channel depth.
    pub w: usize,
    /// Write-response channel depth.
    pub b: usize,
    /// Read-address channel depth.
    pub ar: usize,
    /// Read-data channel depth.
    pub r: usize,
}

impl BundleCapacity {
    /// Uniform depth across all five channels.
    pub const fn uniform(depth: usize) -> Self {
        Self {
            aw: depth,
            w: depth,
            b: depth,
            ar: depth,
            r: depth,
        }
    }
}

impl Default for BundleCapacity {
    fn default() -> Self {
        Self::uniform(2)
    }
}

/// Wire handles for one AXI4 port: the five channels between exactly one
/// upstream and one downstream component.
///
/// The bundle is direction-agnostic — the component that *pushes* AW/W/AR
/// and *pops* B/R is the manager side; its peer is the subordinate side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AxiBundle {
    /// Write-address channel.
    pub aw: WireId<AwBeat>,
    /// Write-data channel.
    pub w: WireId<WBeat>,
    /// Write-response channel.
    pub b: WireId<BBeat>,
    /// Read-address channel.
    pub ar: WireId<ArBeat>,
    /// Read-data channel.
    pub r: WireId<RBeat>,
}

impl AxiBundle {
    /// Allocates the five wires of a new bundle from `pool`.
    pub fn new(pool: &mut ChannelPool, capacity: BundleCapacity) -> Self {
        Self {
            aw: pool.new_wire(capacity.aw),
            w: pool.new_wire(capacity.w),
            b: pool.new_wire(capacity.b),
            ar: pool.new_wire(capacity.ar),
            r: pool.new_wire(capacity.r),
        }
    }

    /// Allocates a bundle with the default shallow capacities.
    pub fn with_defaults(pool: &mut ChannelPool) -> Self {
        Self::new(pool, BundleCapacity::default())
    }

    /// Port declarations for the wires of this bundle with explicit
    /// per-channel directions: `req` applies to AW/W/AR, `rsp` to B/R.
    fn ports_with(&self, req: PortDir, rsp: PortDir) -> Vec<PortDecl> {
        vec![
            PortDecl::new("AW", self.aw.index(), req),
            PortDecl::new("W", self.w.index(), req),
            PortDecl::new("B", self.b.index(), rsp),
            PortDecl::new("AR", self.ar.index(), req),
            PortDecl::new("R", self.r.index(), rsp),
        ]
    }

    /// Declarations for the manager side of this port: drives AW/W/AR,
    /// consumes B/R (see [`Component::ports`](crate::Component::ports)).
    pub fn manager_ports(&self) -> Vec<PortDecl> {
        self.ports_with(PortDir::Drive, PortDir::Consume)
    }

    /// Declarations for the subordinate side of this port: consumes
    /// AW/W/AR, drives B/R.
    pub fn subordinate_ports(&self) -> Vec<PortDecl> {
        self.ports_with(PortDir::Consume, PortDir::Drive)
    }

    /// Declarations for a passive observer of this port (protocol
    /// monitors): taps all five channels, sources and sinks nothing.
    pub fn observer_ports(&self) -> Vec<PortDecl> {
        self.ports_with(PortDir::Observe, PortDir::Observe)
    }

    /// Returns `true` if all five wires are empty — no beats in flight on
    /// this port.
    pub fn is_idle(&self, pool: &ChannelPool) -> bool {
        pool.is_empty(self.aw)
            && pool.is_empty(self.w)
            && pool.is_empty(self.b)
            && pool.is_empty(self.ar)
            && pool.is_empty(self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4::TxnId;

    #[test]
    fn bundle_allocates_five_wires() {
        let mut pool = ChannelPool::new();
        let b = AxiBundle::with_defaults(&mut pool);
        assert_eq!(pool.wire_count(), 5);
        assert!(b.is_idle(&pool));
    }

    #[test]
    fn capacities_apply_per_channel() {
        let mut pool = ChannelPool::new();
        let cap = BundleCapacity {
            aw: 1,
            w: 16,
            b: 2,
            ar: 8,
            r: 4,
        };
        let b = AxiBundle::new(&mut pool, cap);
        // Fill W to its larger capacity over multiple cycles.
        for c in 0..16u64 {
            assert!(pool.can_push(b.w, c));
            pool.push(b.w, c, WBeat::full(c, false));
        }
        assert!(!pool.can_push(b.w, 17));
        assert_eq!(pool.len(b.w), 16);
    }

    #[test]
    fn idle_detects_inflight_beats() {
        let mut pool = ChannelPool::new();
        let b = AxiBundle::with_defaults(&mut pool);
        pool.push(b.b, 0, BBeat::okay(TxnId::new(0)));
        assert!(!b.is_idle(&pool));
        pool.pop(b.b, 1);
        assert!(b.is_idle(&pool));
    }

    #[test]
    fn uniform_default_depth() {
        assert_eq!(BundleCapacity::default(), BundleCapacity::uniform(2));
        assert_eq!(BundleCapacity::uniform(3).r, 3);
    }
}
