//! Passive AXI4 protocol conformance checking for the simulation kernel.
//!
//! AXI-REALM's claim is that the REALM unit regulates traffic *without
//! breaking it*: a throttled, fragmented, or stalled manager must still see
//! protocol-legal, complete transactions. This crate makes that claim
//! checkable on every run:
//!
//! - A [`ProtocolMonitor`] attaches to any [`AxiBundle`](axi_sim::AxiBundle)
//!   and enforces the beat-level AXI4 rules ([`Rule`] lists all twelve):
//!   burst legality on AW/AR (including the 4 KiB boundary), WLAST/RLAST
//!   placement, one B response per write, and no response without a matching
//!   outstanding request. Monitors observe through wire taps, never touch
//!   handshakes, and therefore cannot change simulated results.
//! - A [`Scoreboard`] relates monitored ports — links through a REALM unit,
//!   the crossbar boundary — and proves end-to-end beat conservation once
//!   traffic drains.
//! - A [`ConformanceReport`] aggregates everything, including the kernel's
//!   structured [`PushRefusal`](axi_sim::PushRefusal) records, into one
//!   verdict with [`ConformanceReport::is_clean`] /
//!   [`ConformanceReport::assert_clean`].
//!
//! # Example
//!
//! ```
//! use axi4::{Addr, ArBeat, BurstKind, BurstLen, BurstSize, RBeat, TxnId};
//! use axi_conformance::{ConformanceReport, ProtocolMonitor, Scoreboard};
//! use axi_sim::{AxiBundle, Sim};
//!
//! let mut sim = Sim::new();
//! let bundle = AxiBundle::with_defaults(sim.pool_mut());
//! let mon = ProtocolMonitor::attach(&mut sim, "port", bundle);
//!
//! // A legal single-beat read, answered in kind.
//! let ar = ArBeat::new(
//!     TxnId::new(1),
//!     Addr::new(0x1000),
//!     BurstLen::ONE,
//!     BurstSize::bus64(),
//!     BurstKind::Incr,
//! );
//! sim.pool_mut().push(bundle.ar, 0, ar);
//! sim.run(1);
//! let c = sim.cycle();
//! sim.pool_mut().pop(bundle.ar, c);
//! sim.pool_mut().push(bundle.r, c, RBeat::okay(TxnId::new(1), 42, true));
//! sim.run(2);
//!
//! let report = ConformanceReport::collect(&sim, &[mon], &Scoreboard::new());
//! report.assert_clean();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod monitor;
mod report;

pub use monitor::{PortCounters, ProtocolMonitor, Rule, Violation};
pub use report::{ConformanceReport, PortReport, Scoreboard};

#[cfg(test)]
mod tests {
    use super::*;
    use axi4::{Addr, ArBeat, AwBeat, BBeat, BurstKind, BurstLen, BurstSize, RBeat, TxnId, WBeat};
    use axi_sim::{AxiBundle, Sim};

    fn aw(id: u32, addr: u64, beats: u16) -> AwBeat {
        AwBeat::new(
            TxnId::new(id),
            Addr::new(addr),
            BurstLen::new(beats).unwrap(),
            BurstSize::bus64(),
            BurstKind::Incr,
        )
    }

    fn ar(id: u32, addr: u64, beats: u16) -> ArBeat {
        ArBeat::new(
            TxnId::new(id),
            Addr::new(addr),
            BurstLen::new(beats).unwrap(),
            BurstSize::bus64(),
            BurstKind::Incr,
        )
    }

    /// Drives one legal write and one legal read by hand and expects a
    /// clean, drained monitor with exact counters.
    #[test]
    fn clean_traffic_is_clean() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        let mon = ProtocolMonitor::attach(&mut sim, "p", bundle);

        sim.pool_mut().push(bundle.aw, 0, aw(1, 0x1000, 2));
        sim.run(1);
        sim.pool_mut().push(bundle.w, 1, WBeat::full(0xa, false));
        sim.run(1);
        sim.pool_mut().push(bundle.w, 2, WBeat::full(0xb, true));
        sim.run(1);
        // Subordinate consumes and responds.
        for c in 3..6 {
            sim.pool_mut().pop(bundle.aw, c);
            sim.pool_mut().pop(bundle.w, c);
            sim.run(1);
        }
        sim.pool_mut().push(bundle.b, 6, BBeat::okay(TxnId::new(1)));
        sim.run(1);
        sim.pool_mut().pop(bundle.b, 7);
        sim.pool_mut().push(bundle.ar, 7, ar(2, 0x2000, 2));
        sim.run(1);
        sim.pool_mut().pop(bundle.ar, 8);
        sim.pool_mut()
            .push(bundle.r, 8, RBeat::okay(TxnId::new(2), 1, false));
        sim.run(1);
        sim.pool_mut().pop(bundle.r, 9);
        sim.pool_mut()
            .push(bundle.r, 9, RBeat::okay(TxnId::new(2), 2, true));
        sim.run(1);
        sim.pool_mut().pop(bundle.r, 10);
        sim.run(1);

        let m = sim.component::<ProtocolMonitor>(mon).unwrap();
        assert!(m.is_clean(), "{:?}", m.violations());
        assert!(m.is_drained());
        let c = m.counters();
        assert_eq!(c.aw_bursts, 1);
        assert_eq!(c.w_beats, 2);
        assert_eq!(c.w_lasts, 1);
        assert_eq!(c.b_resps, 1);
        assert_eq!(c.ar_bursts, 1);
        assert_eq!(c.r_beats, 2);
        assert_eq!(c.r_lasts, 1);
        assert_eq!(c.write_beats_expected, 2);
        assert_eq!(c.read_beats_expected, 2);
        assert_eq!(c.err_resps, 0);

        let report = ConformanceReport::collect(&sim, &[mon], &Scoreboard::new());
        report.assert_clean();
        assert!(report.to_string().contains("CLEAN"));
    }

    /// Interleaved reads on two IDs resolve per-ID; each burst's RLAST
    /// lands on its own final beat.
    #[test]
    fn interleaved_reads_tracked_per_id() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        let mon = ProtocolMonitor::attach(&mut sim, "p", bundle);

        sim.pool_mut().push(bundle.ar, 0, ar(1, 0x1000, 2));
        sim.run(1);
        sim.pool_mut().push(bundle.ar, 1, ar(2, 0x2000, 1));
        sim.run(1);
        for c in 2..4 {
            sim.pool_mut().pop(bundle.ar, c);
            sim.run(1);
        }
        // Interleave: id1 beat 0, id2 beat 0 (last), id1 beat 1 (last).
        let beats = [
            RBeat::okay(TxnId::new(1), 10, false),
            RBeat::okay(TxnId::new(2), 20, true),
            RBeat::okay(TxnId::new(1), 11, true),
        ];
        for beat in beats {
            let c = sim.cycle();
            sim.pool_mut().pop(bundle.r, c);
            sim.pool_mut().push(bundle.r, c, beat);
            sim.run(1);
        }
        let c = sim.cycle();
        sim.pool_mut().pop(bundle.r, c);
        sim.run(1);

        let m = sim.component::<ProtocolMonitor>(mon).unwrap();
        assert!(m.is_clean(), "{:?}", m.violations());
        assert!(m.is_drained());
        assert_eq!(m.counters().r_lasts, 2);
    }

    /// The scoreboard flags a link that "loses" beats and stays quiet on a
    /// balanced one.
    #[test]
    fn scoreboard_link_conservation() {
        let mut sim = Sim::new();
        let up = AxiBundle::with_defaults(sim.pool_mut());
        let down = AxiBundle::with_defaults(sim.pool_mut());
        let up_mon = ProtocolMonitor::attach(&mut sim, "up", up);
        let down_mon = ProtocolMonitor::attach(&mut sim, "down", down);

        // One write enters upstream and is fully forwarded downstream.
        for (bundle, start) in [(up, 0u64), (down, 2)] {
            sim.run(start.saturating_sub(sim.cycle()));
            let c = sim.cycle();
            sim.pool_mut().push(bundle.aw, c, aw(1, 0x1000, 1));
            sim.pool_mut().push(bundle.w, c, WBeat::full(1, true));
            sim.run(1);
        }
        // Drain both and respond on both.
        for bundle in [up, down] {
            let c = sim.cycle();
            sim.pool_mut().pop(bundle.aw, c);
            sim.pool_mut().pop(bundle.w, c);
            sim.pool_mut().push(bundle.b, c, BBeat::okay(TxnId::new(1)));
            sim.run(1);
            let c = sim.cycle();
            sim.pool_mut().pop(bundle.b, c);
            sim.run(1);
        }

        let board = Scoreboard::new().link("up", "down");
        let report = ConformanceReport::collect(&sim, &[up_mon, down_mon], &board);
        report.assert_clean();

        // An unknown name fails loudly instead of skipping the check.
        let bad = Scoreboard::new().link("up", "nonexistent");
        let report = ConformanceReport::collect(&sim, &[up_mon, down_mon], &bad);
        assert!(!report.is_clean());
        assert!(report.conservation[0].contains("unknown port name"));
    }

    /// Pushes one R beat of ID 5 at cycle 3 and the AR of ID 5 it might
    /// seem to answer at cycle 4 — a response a cycle before its request.
    struct EarlyResponder {
        bundle: AxiBundle,
    }

    impl axi_sim::Component for EarlyResponder {
        fn tick(&mut self, ctx: &mut axi_sim::TickCtx<'_>) {
            match ctx.cycle {
                3 => ctx
                    .pool
                    .push(self.bundle.r, 3, RBeat::okay(TxnId::new(5), 0, true)),
                4 => ctx.pool.push(self.bundle.ar, 4, ar(5, 0x1000, 1)),
                _ => {}
            }
        }
        fn ports(&self) -> Vec<axi_sim::PortDecl> {
            use axi_sim::{PortDecl, PortDir};
            vec![
                PortDecl::new("AR", self.bundle.ar.index(), PortDir::Drive),
                PortDecl::new("R", self.bundle.r.index(), PortDir::Drive),
            ]
        }
    }

    /// A monitor registered before its producers is folded over many
    /// cycles at once, yet replays them in push-cycle order: the R beat
    /// pushed a cycle before a same-ID AR is an orphan, which a replay of
    /// whole channel buffers (AR before R) would hide. Registration order,
    /// kernel and fold boundaries do not change the verdict.
    #[test]
    fn response_before_request_is_orphan_across_one_fold() {
        let run = |monitor_first: bool, mode: axi_sim::KernelMode, stepped: bool| {
            let mut sim = Sim::new();
            sim.set_kernel_mode(mode);
            let bundle = AxiBundle::with_defaults(sim.pool_mut());
            let mon = monitor_first.then(|| ProtocolMonitor::attach(&mut sim, "p", bundle));
            sim.add(EarlyResponder { bundle });
            let mon = mon.unwrap_or_else(|| ProtocolMonitor::attach(&mut sim, "p", bundle));
            if stepped {
                (0..20).for_each(|_| sim.step());
            } else {
                sim.run(20);
            }
            let m = sim.component::<ProtocolMonitor>(mon).unwrap();
            (m.violations().to_vec(), m.outstanding())
        };
        let (violations, outstanding) = run(true, axi_sim::KernelMode::Skip, false);
        assert_eq!(violations.len(), 1, "{violations:?}");
        let v = &violations[0];
        assert_eq!((v.rule, v.cycle, v.channel), (Rule::ROrphan, 3, "R"));
        assert_eq!(v.id, Some(TxnId::new(5)));
        assert_eq!(outstanding, 1, "the late AR stays outstanding");
        for monitor_first in [true, false] {
            for mode in [axi_sim::KernelMode::Skip, axi_sim::KernelMode::Step] {
                for stepped in [false, true] {
                    assert_eq!(
                        run(monitor_first, mode, stepped),
                        (violations.clone(), outstanding),
                        "monitor_first={monitor_first} {mode:?} stepped={stepped}"
                    );
                }
            }
        }
    }

    /// Rule::ALL covers each variant exactly once (mutation tests iterate
    /// it to prove per-rule coverage).
    #[test]
    fn rule_all_is_exhaustive_and_unique() {
        let mut labels: Vec<&str> = Rule::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 12);
        for r in Rule::ALL {
            assert_eq!(format!("{r}"), r.label());
        }
    }
}
