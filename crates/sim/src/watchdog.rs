//! A quiescence watchdog: flags systems where no beat has moved for a
//! configurable number of cycles.
//!
//! Whether silence means *done* or *wedged* is the harness's call — the
//! watchdog only reports how long the interconnect has been silent, so a
//! test can abort a deadlocked run in thousands of cycles instead of
//! burning its full `run_until` budget.

use crate::component::{Component, TickCtx};
use crate::Cycle;

/// Observes the whole channel pool's activity counter and tracks how long
/// it has been still.
///
/// ```
/// use axi_sim::{Sim, Watchdog};
///
/// let mut sim = Sim::new();
/// let dog = sim.add(Watchdog::new(100));
/// sim.run(300); // nothing pushes anything
/// let dog = sim.component::<Watchdog>(dog).expect("added above");
/// assert!(dog.is_quiet());
/// assert!(dog.idle_cycles() >= 100);
/// ```
#[derive(Debug)]
pub struct Watchdog {
    threshold: Cycle,
    last_total: u64,
    last_change: Cycle,
    idle: Cycle,
    name: String,
}

impl Watchdog {
    /// Creates a watchdog that reports quiet after `threshold` consecutive
    /// cycles without any wire push.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: Cycle) -> Self {
        assert!(threshold > 0, "a zero threshold is always quiet");
        Self {
            threshold,
            last_total: 0,
            last_change: 0,
            idle: 0,
            name: "watchdog".to_owned(),
        }
    }

    /// Consecutive cycles without any beat movement, as of the last tick.
    pub fn idle_cycles(&self) -> Cycle {
        self.idle
    }

    /// `true` once the system has been silent for at least the threshold.
    pub fn is_quiet(&self) -> bool {
        self.idle >= self.threshold
    }
}

impl Component for Watchdog {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let total = ctx.pool.total_pushes();
        if total != self.last_total {
            self.last_total = total;
            self.last_change = ctx.cycle;
        }
        self.idle = ctx.cycle - self.last_change;
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
        // The only observable transition left while the system is silent is
        // crossing the quiet threshold; past it, only new activity (which
        // implies in-flight beats) changes anything.
        if self.idle >= self.threshold {
            None
        } else {
            Some((self.last_change + self.threshold).max(cycle))
        }
    }

    fn backlog_event(&self, _cycle: Cycle) -> Option<Cycle> {
        // Beats parked in flight do not move `total_pushes`; a push is never
        // skipped over, and the threshold hint above covers every other
        // transition, so backlog alone never requires a tick.
        None
    }

    fn on_fast_forward(&mut self, _from: Cycle, to: Cycle) {
        // Reconcile the per-cycle idle counter to what the elided ticks
        // (the last at cycle `to - 1`) would have left behind. No push can
        // have happened during the skip, so `last_change` is current.
        self.idle = (to - 1).saturating_sub(self.last_change);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::AxiBundle;
    use crate::sim::Sim;
    use axi4::WBeat;

    #[test]
    fn quiet_system_trips() {
        let mut sim = Sim::new();
        let dog = sim.add(Watchdog::new(50));
        sim.run(100);
        let d = sim.component::<Watchdog>(dog).unwrap();
        assert!(d.is_quiet());
        assert!(d.idle_cycles() >= 50);
    }

    #[test]
    fn activity_resets_the_counter() {
        let mut sim = Sim::new();
        let bundle = AxiBundle::with_defaults(sim.pool_mut());
        let dog = sim.add(Watchdog::new(50));
        sim.run(40);
        let c = sim.cycle();
        sim.pool_mut().push(bundle.w, c, WBeat::full(1, true));
        sim.run(40);
        let d = sim.component::<Watchdog>(dog).unwrap();
        assert!(!d.is_quiet(), "push at cycle 40 reset the idle counter");
        sim.run(60);
        assert!(sim.component::<Watchdog>(dog).unwrap().is_quiet());
    }

    #[test]
    fn early_deadlock_detection_pattern() {
        // The intended harness use: race "done" against "quiet".
        let mut sim = Sim::new();
        let dog = sim.add(Watchdog::new(100));
        let tripped = sim.run_until(10_000, |s| {
            s.component::<Watchdog>(dog).is_some_and(Watchdog::is_quiet)
        });
        assert!(tripped, "the empty system goes quiet immediately");
        assert!(sim.cycle() < 200, "aborted early, not at the 10k budget");
    }

    #[test]
    #[should_panic(expected = "zero threshold")]
    fn zero_threshold_panics() {
        let _ = Watchdog::new(0);
    }
}
