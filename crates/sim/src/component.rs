//! The component trait every simulated block implements.

use std::any::Any;

use realm_telemetry::TelemetrySink;

use crate::pool::ChannelPool;
use crate::topology::PortDecl;
use crate::Cycle;

/// Per-cycle context handed to every component: the current cycle and
/// mutable access to all wires.
#[derive(Debug)]
pub struct TickCtx<'a> {
    /// The cycle being evaluated.
    pub cycle: Cycle,
    /// All wires in the system; components address theirs by handle.
    pub pool: &'a mut ChannelPool,
}

/// A simulated hardware block, ticked once per clock cycle.
///
/// Components communicate exclusively through wires in the shared
/// [`ChannelPool`]; the register-per-hop wire semantics make the system's
/// behaviour independent of tick order (see the crate docs).
///
/// The `Any` supertrait lets a [`Sim`](crate::Sim) hand back concrete
/// component references for post-run inspection via
/// [`Sim::component`](crate::Sim::component).
///
/// # Observers
///
/// A component whose [`Component::ports`] are all
/// [`PortDir::Observe`](crate::PortDir::Observe) is an *observer* (the
/// rule [`TopoComponent::is_observer`](crate::TopoComponent::is_observer)
/// applies). The kernel never ticks an observer per cycle and never asks
/// it for a hint. Its `tick` is a *fold*, called between cycles: when the
/// pool's undrained tap records reach
/// [`TAP_HIGH_WATER`](crate::TAP_HIGH_WATER), when a run returns, and
/// after each [`Sim::step`](crate::Sim::step). A fold may only drain the
/// taps of the wires it observes (see
/// [`ChannelPool::drain_tap`](crate::ChannelPool::drain_tap)); the
/// records carry their push cycles, so the fold can replay them in order.
/// `ctx.cycle` is the first cycle not yet executed. An observer's state
/// is current between runs, but not inside a
/// [`Sim::run_until`](crate::Sim::run_until) predicate.
pub trait Component: Any {
    /// Advances the component by one clock cycle — or, for an observer,
    /// folds it over the tap records pushed since its last fold.
    fn tick(&mut self, ctx: &mut TickCtx<'_>);

    /// A short human-readable instance name for traces and diagnostics.
    fn name(&self) -> &str {
        "component"
    }

    /// The earliest cycle `>= cycle` at which ticking this component could
    /// change any state, **assuming no push or pop happens on any wire
    /// before then**.
    ///
    /// This is the wake hint behind the idle skip in
    /// [`Sim::run`](crate::Sim::run). After a cycle in which no beat moved
    /// anywhere, the kernel asks every component for its hint and jumps
    /// the whole system to the earliest one; the skipped ticks are never
    /// executed. Because nothing moves during a skipped stretch, the hint
    /// only has to cover the component's own state: timers, latency
    /// countdowns, pending work it can do without new input.
    ///
    /// Return values:
    ///
    /// - `Some(cycle)` — must be ticked right now (the conservative
    ///   default, which keeps a component exact by never letting the
    ///   system skip while it exists).
    /// - `Some(later)` — ticks strictly before `later` are no-ops absent
    ///   wire activity; the kernel may skip them.
    /// - `None` — quiescent: only wire activity can require a tick.
    ///
    /// Input parked on the component's Consume wires is covered
    /// separately by [`Component::backlog_event`]. A component that reads
    /// state outside its wires reads it in this hint too: the kernel asks
    /// every hint again after each quiet cycle, so a pending write to
    /// shared registers shows up there as "due now".
    ///
    /// Returning a hint before `cycle` is a contract violation: the kernel
    /// executes the next cycle instead of skipping and records it — see
    /// [`Sim::contract_violations`](crate::Sim::contract_violations).
    /// Components whose per-cycle tick mutates time-proportional counters
    /// must reconcile them in [`Component::on_fast_forward`].
    fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
        Some(cycle)
    }

    /// The earliest cycle `>= cycle` at which this component could take
    /// input parked on its Consume wires.
    ///
    /// The kernel asks this only while beats sit on one of the
    /// component's Consume wires (for a component without declared ports,
    /// anywhere in the pool) when it considers a skip. A consumer pops at
    /// most one beat per wire per cycle and may decline, so queued input
    /// alone does not say *when* the next pop can happen. The conservative
    /// default — "right away" — forbids skipping while the input waits,
    /// which is always exact.
    ///
    /// Components whose intake is gated on internal state can override:
    ///
    /// - `Some(later)` — intake is closed until `later` (e.g. a budget
    ///   period boundary); ticks before then would not pop.
    /// - `None` — [`Component::next_event`] already covers every state
    ///   change; queued input alone never requires a tick.
    ///
    /// The same exactness rule as [`Component::next_event`] applies: a
    /// hint must be `>= cycle`, and an override claiming `later` while a
    /// stepped run would have popped earlier diverges the kernels — the
    /// `kernel_equivalence` tests are the safety net.
    fn backlog_event(&self, cycle: Cycle) -> Option<Cycle> {
        Some(cycle)
    }

    /// The component's declared wire endpoints, for static topology
    /// analysis before cycle 0 (see [`Sim::topology`](crate::Sim::topology)
    /// and the `realm-lint` crate).
    ///
    /// The default declares nothing, which marks the component *opaque*:
    /// graph checks skip it and its wires, trading analysis coverage for
    /// zero migration effort. Components built from [`AxiBundle`]s can
    /// implement this in one line via
    /// [`AxiBundle::manager_ports`](crate::AxiBundle::manager_ports),
    /// [`AxiBundle::subordinate_ports`](crate::AxiBundle::subordinate_ports),
    /// or [`AxiBundle::observer_ports`](crate::AxiBundle::observer_ports).
    fn ports(&self) -> Vec<PortDecl> {
        Vec::new()
    }

    /// Notification that this component's ticks at cycles `from..to` were
    /// skipped and it is about to be observed or ticked at `to`.
    ///
    /// Components whose tick accumulates per-cycle state (e.g. an
    /// isolated-cycles counter) must apply the `to - from` elided ticks
    /// here so a skipping run ends in exactly the state a stepped run
    /// would. The kernel may reconcile one sleep stretch in several
    /// consecutive calls (`a..b` then `b..c`), so the accounting must
    /// compose. Components with purely event-driven state need nothing —
    /// the default is a no-op.
    fn on_fast_forward(&mut self, from: Cycle, to: Cycle) {
        let _ = (from, to);
    }

    /// Exports this component's telemetry — counters, gauges, latency
    /// histograms, and trace events — into `sink` (see
    /// [`Sim::telemetry`](crate::Sim::telemetry)).
    ///
    /// The hook is called after (or between) runs, never on the per-cycle
    /// hot path, it only re-reads state the component already maintains,
    /// and it must not mutate behaviour — telemetry on vs. off is required
    /// to be bit-identical (CI-gated like the protocol monitors). Counter
    /// and gauge keys are dotted and prefixed with the instance name
    /// (`"realm.dma.isolation_trips"`). Zero counters *should* be
    /// registered so the registry documents every signal a component
    /// exports; readers that want only what happened (the fuzz campaign's
    /// coverage signature) filter on nonzero values. The default exports
    /// nothing.
    fn telemetry(&self, sink: &mut TelemetrySink) {
        let _ = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WireId;
    use axi4::WBeat;

    struct Counter {
        out: WireId<WBeat>,
        sent: u64,
    }

    impl Component for Counter {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if ctx.pool.can_push(self.out, ctx.cycle) {
                ctx.pool
                    .push(self.out, ctx.cycle, WBeat::full(self.sent, false));
                self.sent += 1;
            }
        }

        fn name(&self) -> &str {
            "counter"
        }
    }

    #[test]
    fn component_drives_wire_through_ctx() {
        let mut pool = ChannelPool::new();
        let out = pool.new_wire::<WBeat>(4);
        let mut c = Counter { out, sent: 0 };
        for cycle in 0..3 {
            let mut ctx = TickCtx {
                cycle,
                pool: &mut pool,
            };
            c.tick(&mut ctx);
        }
        assert_eq!(c.sent, 3);
        assert_eq!(pool.pop(out, 3).map(|b| b.data), Some(0));
        assert_eq!(c.name(), "counter");
    }
}
