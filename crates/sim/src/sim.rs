//! The top-level simulator: owns the wires and the components.
//!
//! One kernel drives [`Sim::run`], [`Sim::run_until`] and
//! [`Sim::run_until_clamped`]: every executed cycle ticks every component
//! once, in registration order, exactly like the reference
//! [`Sim::step`]. Observers — components whose every port is
//! [`PortDir::Observe`] — are the exception: they are never ticked per
//! cycle, only folded over their tap records in batches (see
//! [`TAP_HIGH_WATER`] and the observer contract on [`Component`]).
//!
//! On top of that the kernel skips idle time for the whole system at once.
//! After a *quiet* cycle — no wire push and no wire pop — it asks every
//! ticked component for its [`Component::next_event`] hint (and, when the
//! component holds input backlog, its [`Component::backlog_event`] hint)
//! and jumps straight to the earliest one, bounded by the run target and
//! the clamp. Elided ticks are reconciled per component through
//! [`Component::on_fast_forward`]. A component that reads state outside
//! its wires reads it in its hint too, so a pending write to shared
//! registers shows up in that scan as "due now".
//!
//! Skipping is exact: a quiet cycle leaves every wire as it was, so each
//! hint's "no wire activity before then" premise holds for the whole
//! stretch, and every skipped tick is a no-op by the hint contract. The
//! two drivers must therefore be bit-identical in every observable:
//! `REALM_KERNEL=step` forces plain stepping for differential runs, and
//! the `kernel_equivalence` integration tests assert the equivalence.

use std::any::Any;
use std::fmt;

use realm_telemetry::TelemetrySink;

use crate::pool::{
    channel_slot, ChannelPool, RawSanViolation, SanitizerKind, SanitizerTables, CHANNEL_SLOTS,
};

use crate::component::{Component, TickCtx};
use crate::topology::{observes_only, PortDir};
use crate::Cycle;

/// Undrained tap records (summed over every tap, see
/// [`ChannelPool::tap_backlog`]) at which the kernel folds its observers
/// mid-run. Checked once per executed cycle, so the backlog never exceeds
/// this mark plus one cycle's pushes. Runs and [`Sim::step`] also fold on
/// exit, so observer state is current between runs whatever the mark.
pub const TAP_HIGH_WATER: u64 = 1024;

/// Handle to a component registered with a [`Sim`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Returns the registration index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Counters describing how the kernel advanced time: executed cycles
/// versus cycles fast-forwarded over while the system was idle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KernelStats {
    /// Cycles advanced by ticking every component.
    pub ticks_executed: u64,
    /// Cycles jumped over because no component had a due event.
    pub cycles_skipped: u64,
    /// Number of fast-forward jumps taken.
    pub fast_forwards: u64,
    /// Per-cycle `Component::tick` calls across all executed cycles.
    /// Observers are never ticked per cycle, so their folds are not
    /// counted here.
    pub component_ticks: u64,
    /// Component-cycles elided by skipping. The invariant
    /// `component_ticks + component_skips == cycles_total() * n_ticked`,
    /// where `n_ticked` counts the components that are not observers,
    /// holds for a run over a fixed set of components.
    pub component_skips: u64,
}

impl KernelStats {
    /// Total simulated cycles this kernel advanced (executed + skipped).
    pub fn cycles_total(&self) -> u64 {
        self.ticks_executed + self.cycles_skipped
    }
}

/// Per-component attribution from the kernel self-profiler (see
/// [`Sim::profile`]): where the kernel actually spends its visits — and,
/// when the `self-profile` feature is enabled, its wall-time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ComponentProfile {
    /// Registration index of the component.
    pub index: usize,
    /// Its [`Component::name`].
    pub name: String,
    /// Per-cycle `tick` calls executed for this component (always 0 for an
    /// observer, which is only ever folded).
    pub visits: u64,
    /// Wall-clock nanoseconds spent inside this component's ticks (an
    /// observer's: inside its folds). Always 0
    /// unless `axi-sim` is built with the `self-profile` feature — the
    /// clock reads do not exist in a default build, keeping the simulator
    /// free of wall-time (and `detlint`-clean by construction).
    pub wall_ns: u64,
}

/// Internal per-component profiler counters (see [`ComponentProfile`]).
#[derive(Clone, Copy, Default)]
struct ProfileEntry {
    visits: u64,
    wall_ns: u64,
}

/// Which driver [`Sim::run`] and [`Sim::run_until`] use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelMode {
    /// Stepping plus whole-system idle skip (the default).
    Skip,
    /// Reference kernel: tick every component every cycle, never skip.
    /// Selected by `REALM_KERNEL=step` for differential runs.
    Step,
}

impl KernelMode {
    /// The kernel `REALM_KERNEL` selects: unset means [`KernelMode::Skip`],
    /// `step` means [`KernelMode::Step`].
    ///
    /// # Panics
    ///
    /// Panics on any other value, so a typo or a removed kernel name never
    /// silently runs a different kernel than the one asked for.
    pub fn from_env() -> Self {
        let value = std::env::var_os("REALM_KERNEL");
        let value = value.as_ref().map(|v| v.to_str().unwrap_or("<non-UTF-8>"));
        Self::parse(value).unwrap_or_else(|message| panic!("{message}"))
    }

    /// Parses a `REALM_KERNEL` value (`None` = unset).
    ///
    /// # Errors
    ///
    /// A message naming the rejected value and the accepted ones.
    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None => Ok(Self::Skip),
            Some("step") => Ok(Self::Step),
            Some(other) => Err(format!(
                "REALM_KERNEL={other:?} is not a kernel: leave REALM_KERNEL unset for the \
                 default kernel, or set REALM_KERNEL=step for the stepping reference \
                 (the event, islands and arena kernels no longer exist)"
            )),
        }
    }

    /// Short name for reports: `"skip"` or `"step"`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Skip => "skip",
            Self::Step => "step",
        }
    }
}

fn sanitize_from_env() -> bool {
    matches!(
        std::env::var("REALM_SANITIZE").as_deref(),
        Ok("1") | Ok("true") | Ok("on")
    )
}

/// How a [`ContractViolation`] was detected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// `next_event` or `backlog_event` returned a hint before the cycle it
    /// was asked about — the hint carries no information, and the kernel
    /// executes the next cycle instead of skipping.
    StaleHint,
    /// At the end of a skipped stretch, a component whose hint had promised
    /// silence beyond it claimed to be due already — its hint
    /// under-reported: it reacts to state outside its declared wires that
    /// its hint does not read, or it is missing a port declaration.
    MissedWake,
}

/// A detected breach of the [`Component::next_event`] contract (see
/// [`Sim::contract_violations`]; stale hints are reported in every build,
/// the missed-wake audit in debug builds and under the sanitizer). Results
/// stay exact for the reported cycle, but each record points at a hint
/// that cannot be trusted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ContractViolation {
    /// Registration index of the offending component.
    pub component: usize,
    /// Its [`Component::name`] at detection time.
    pub name: String,
    /// The cycle at which the violation was observed.
    pub cycle: Cycle,
    /// The hint the component returned.
    pub hint: Cycle,
    /// What went wrong.
    pub kind: ViolationKind,
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            ViolationKind::StaleHint => "stale next_event hint",
            ViolationKind::MissedWake => "missed wake (undeclared dependency?)",
        };
        write!(
            f,
            "cycle {:>8}: {} from component #{} ({}): hint {}",
            self.cycle, what, self.component, self.name, self.hint
        )
    }
}

/// An undeclared cross-component access caught by the runtime access
/// sanitizer (`REALM_SANITIZE=1`, see [`Sim::sanitizer_violations`]): a
/// push or pop that the component's declared ports do not account for, or
/// a wake its own hint did not announce. The access itself is never
/// blocked — results stay exact — but each record is a dependence the
/// static graph and the kernel's skip decision do not see.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SanitizerViolation {
    /// Registration index of the offending component.
    pub component: usize,
    /// Its [`Component::name`] at detection time.
    pub name: String,
    /// The cycle of the undeclared access.
    pub cycle: Cycle,
    /// Channel label of the touched wire (`"-"` for
    /// [`SanitizerKind::UndeclaredWake`], which has no wire).
    pub channel: &'static str,
    /// Pool-internal wire index (0 for `UndeclaredWake`).
    pub wire: usize,
    /// What kind of undeclared access.
    pub kind: SanitizerKind,
}

impl fmt::Display for SanitizerViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SanitizerKind::UndeclaredPush => write!(
                f,
                "cycle {:>8}: undeclared push on {}[{}] by component #{} ({})",
                self.cycle, self.channel, self.wire, self.component, self.name
            ),
            SanitizerKind::UndeclaredPop => write!(
                f,
                "cycle {:>8}: undeclared pop on {}[{}] by component #{} ({})",
                self.cycle, self.channel, self.wire, self.component, self.name
            ),
            SanitizerKind::UndeclaredWake => write!(
                f,
                "cycle {:>8}: undeclared wake of component #{} ({}): \
                 due inside a stretch its hint promised was silent",
                self.cycle, self.component, self.name
            ),
        }
    }
}

/// Retained [`ContractViolation`] records; further ones only bump a count.
const MAX_VIOLATIONS: usize = 64;

/// Sentinel for "no pending wake".
const NEVER: Cycle = Cycle::MAX;

/// What the skip decision needs from the components' port declarations,
/// rebuilt whenever the topology changes.
#[derive(Default)]
struct Wiring {
    /// Per component: its declared Consume wires as `(slot, wire)`, or
    /// `None` for a component that declared no ports (opaque), whose
    /// backlog is any beat anywhere in the pool.
    consume: Vec<Option<Vec<(usize, usize)>>>,
    /// `(components, wires)` the tables were built for.
    signature: (usize, usize),
}

/// A cycle-accurate simulator: a [`ChannelPool`] plus an ordered list of
/// components.
///
/// Every executed cycle ticks every component in registration order,
/// except observers, which are folded over their tap records in batches
/// instead. The run methods additionally jump over idle stretches: after
/// a quiet cycle (no push, no pop) the whole system skips to the earliest
/// [`Component::next_event`] / [`Component::backlog_event`] hint.
/// Skipping is exact — elided ticks are provable no-ops under the hint
/// contract, and components reconcile time-proportional counters in
/// [`Component::on_fast_forward`] — so a run finishes in the same state,
/// at the same cycle, as an explicitly stepped one; only wall-clock
/// changes. [`Sim::kernel_stats`] reports the split.
///
/// # Example
///
/// ```
/// use axi_sim::{Component, Sim, TickCtx};
///
/// struct Nop;
/// impl Component for Nop {
///     fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
/// }
///
/// let mut sim = Sim::new();
/// sim.add(Nop);
/// sim.run(100);
/// assert_eq!(sim.cycle(), 100);
/// ```
pub struct Sim {
    pool: ChannelPool,
    components: Vec<Box<dyn Component>>,
    /// Registration indices of the components ticked every executed cycle
    /// (every one but the observers), in registration order.
    ticked: Vec<usize>,
    /// Registration indices of the observers, folded instead of ticked.
    observers: Vec<usize>,
    cycle: Cycle,
    stats: KernelStats,
    mode: KernelMode,
    /// First cycle each component has *not* yet accounted for, via tick or
    /// `on_fast_forward`. Invariant between advances: `synced_to[i] <=
    /// cycle`, equal to `cycle` right after an executed cycle.
    synced_to: Vec<Cycle>,
    wiring: Wiring,
    /// Position in `ticked` of the component whose hint blocked the last
    /// skip attempt. The next attempt asks it first: in a stretch with no wire traffic but a busy
    /// component it is usually still due, which makes the failed attempt
    /// one hint call instead of `n`.
    blocker: usize,
    /// Per component: the hint that bounded the last jump, kept for the
    /// missed-wake audit at the jump's landing cycle.
    hints: Vec<Cycle>,
    violations: Vec<ContractViolation>,
    violations_dropped: u64,
    /// Access sanitizer (`REALM_SANITIZE=1`): when on, pool taps check
    /// every in-tick push/pop against the declared ports and the missed-
    /// wake audit runs in every build.
    sanitize: bool,
    /// `(components, wires)` the pool's sanitizer tables were built for.
    san_signature: Option<(usize, usize)>,
    san_violations: Vec<SanitizerViolation>,
    san_violations_dropped: u64,
    san_scratch: Vec<RawSanViolation>,
    /// Self-profiler counters, one entry per component (see
    /// [`Sim::profile`]). Counter maintenance is a single indexed add per
    /// visit; wall-time exists only under the `self-profile` feature.
    profile: Vec<ProfileEntry>,
}

impl Sim {
    /// Creates an empty simulator at cycle 0. The kernel honours the
    /// `REALM_KERNEL` environment variable (see [`KernelMode::from_env`]);
    /// `REALM_SANITIZE=1` arms the access sanitizer.
    ///
    /// # Panics
    ///
    /// Panics if `REALM_KERNEL` is set to anything but `step`.
    pub fn new() -> Self {
        Self {
            pool: ChannelPool::new(),
            components: Vec::new(),
            ticked: Vec::new(),
            observers: Vec::new(),
            cycle: 0,
            stats: KernelStats::default(),
            mode: KernelMode::from_env(),
            synced_to: Vec::new(),
            wiring: Wiring::default(),
            blocker: 0,
            hints: Vec::new(),
            violations: Vec::new(),
            violations_dropped: 0,
            sanitize: sanitize_from_env(),
            san_signature: None,
            san_violations: Vec::new(),
            san_violations_dropped: 0,
            san_scratch: Vec::new(),
            profile: Vec::new(),
        }
    }

    /// The wire pool, for allocating bundles before components exist.
    pub fn pool(&self) -> &ChannelPool {
        &self.pool
    }

    /// Mutable access to the wire pool.
    pub fn pool_mut(&mut self) -> &mut ChannelPool {
        &mut self.pool
    }

    /// Registers a component; components are ticked in registration order.
    /// A component whose ports are all [`PortDir::Observe`] is an observer:
    /// folded over its tap records, never ticked per cycle.
    pub fn add<C: Component>(&mut self, component: C) -> ComponentId {
        self.components.push(Box::new(component));
        self.synced_to.push(self.cycle);
        self.profile.push(ProfileEntry::default());
        ComponentId(self.components.len() - 1)
    }

    /// Returns a typed reference to a registered component, or `None` if the
    /// type does not match.
    pub fn component<C: Component>(&self, id: ComponentId) -> Option<&C> {
        let c: &dyn Component = self.components[id.0].as_ref();
        (c as &dyn Any).downcast_ref::<C>()
    }

    /// Returns a typed mutable reference to a registered component, or
    /// `None` if the type does not match.
    pub fn component_mut<C: Component>(&mut self, id: ComponentId) -> Option<&mut C> {
        let c: &mut dyn Component = self.components[id.0].as_mut();
        (c as &mut dyn Any).downcast_mut::<C>()
    }

    /// The current cycle (number of completed steps).
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Executed-tick vs. skipped-cycle counters since construction.
    pub fn kernel_stats(&self) -> KernelStats {
        self.stats
    }

    /// Which kernel [`Sim::run`]/[`Sim::run_until`] use.
    pub fn kernel_mode(&self) -> KernelMode {
        self.mode
    }

    /// Overrides the kernel selection (tests and differential tooling; the
    /// default comes from `REALM_KERNEL`).
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.mode = mode;
    }

    /// [`Component::next_event`] contract breaches detected so far. The
    /// kernel always corrects course, so these are diagnostics, not
    /// failures — but a correct system keeps this empty.
    pub fn contract_violations(&self) -> &[ContractViolation] {
        &self.violations
    }

    /// Contract violations beyond the retention bound, counted not stored.
    pub fn contract_violations_dropped(&self) -> u64 {
        self.violations_dropped
    }

    /// Whether the runtime access sanitizer is armed (from
    /// `REALM_SANITIZE=1` or [`Sim::set_sanitize`]).
    pub fn sanitize_enabled(&self) -> bool {
        self.sanitize
    }

    /// Arms or disarms the access sanitizer (the default comes from
    /// `REALM_SANITIZE`). While armed, every in-tick wire push/pop is
    /// checked against the component's declared ports, and the missed-wake
    /// audit runs in release builds too; accesses are never blocked, so
    /// results are bit-identical with the sanitizer on or off.
    pub fn set_sanitize(&mut self, on: bool) {
        self.sanitize = on;
        self.san_signature = None;
        if !on {
            self.pool.set_sanitizer(None);
        }
    }

    /// Undeclared accesses the sanitizer caught so far (bounded retention;
    /// see [`Sim::sanitizer_violations_dropped`]). Always empty while the
    /// sanitizer is off. A system whose declarations match its behaviour
    /// keeps this empty — that is the runtime proof behind the static
    /// dependence graph.
    pub fn sanitizer_violations(&self) -> &[SanitizerViolation] {
        &self.san_violations
    }

    /// Sanitizer violations beyond the retention bound, counted not stored.
    pub fn sanitizer_violations_dropped(&self) -> u64 {
        self.san_violations_dropped
    }

    /// A static snapshot of the system's structure — every component with
    /// its declared wire endpoints plus every allocated wire — for
    /// elaboration-time analysis before the first cycle runs (see the
    /// `realm-lint` crate).
    pub fn topology(&self) -> crate::Topology {
        crate::Topology::collect(&self.components, &self.pool)
    }

    /// Harvests the run's telemetry: every component's
    /// [`Component::telemetry`](crate::Component::telemetry) export, plus
    /// the kernel's own signals — `kernel.*` counters from
    /// [`KernelStats`] and instant events for every retained contract and
    /// sanitizer violation.
    ///
    /// Pull-based and side-effect free: collecting telemetry cannot
    /// perturb the simulation, so results are bit-identical whether or not
    /// anything reads the sink (CI-gated).
    ///
    /// Component counters and histograms are kernel-invariant (component
    /// state is bit-identical across kernels by construction). The
    /// `kernel.*` counters describe *how* the run was executed and differ
    /// between skipping and stepping — exporters writing kernel-comparable
    /// artifacts (`results/*.json`) must draw only on the component side.
    pub fn telemetry(&self) -> TelemetrySink {
        let mut sink = TelemetrySink::new();
        for component in &self.components {
            component.telemetry(&mut sink);
        }
        let s = &self.stats;
        sink.counter("kernel.ticks_executed", s.ticks_executed);
        sink.counter("kernel.cycles_skipped", s.cycles_skipped);
        sink.counter("kernel.fast_forwards", s.fast_forwards);
        sink.counter("kernel.component_ticks", s.component_ticks);
        sink.counter("kernel.component_skips", s.component_skips);
        sink.counter(
            "kernel.contract_violations",
            self.violations.len() as u64 + self.violations_dropped,
        );
        sink.counter(
            "kernel.contract_violations_dropped",
            self.violations_dropped,
        );
        sink.counter(
            "kernel.sanitizer_violations",
            self.san_violations.len() as u64 + self.san_violations_dropped,
        );
        sink.counter(
            "kernel.sanitizer_violations_dropped",
            self.san_violations_dropped,
        );
        for v in &self.violations {
            let kind = match v.kind {
                ViolationKind::StaleHint => "stale-hint",
                ViolationKind::MissedWake => "missed-wake",
            };
            sink.instant("kernel", &format!("contract:{kind}:{}", v.name), v.cycle);
        }
        for v in &self.san_violations {
            let kind = match v.kind {
                SanitizerKind::UndeclaredPush => "push",
                SanitizerKind::UndeclaredPop => "pop",
                SanitizerKind::UndeclaredWake => "wake",
            };
            sink.instant("kernel", &format!("sanitizer:{kind}:{}", v.name), v.cycle);
        }
        sink
    }

    /// The kernel self-profiler's per-component attribution: visits (tick
    /// calls) and — only when built with the `self-profile` feature —
    /// wall-time.
    ///
    /// Visit counters are always maintained (one indexed add per tick); the
    /// clock reads attributing wall-time are compiled out without the
    /// feature, so a default build contains no wall-clock reads at all.
    /// Profiles are *kernel-dependent* by nature (skipping elides visits)
    /// and belong in wall-clock artifacts like `BENCH_kernel.json`, never
    /// in kernel-compared `results/*.json`.
    pub fn profile(&self) -> Vec<ComponentProfile> {
        self.components
            .iter()
            .enumerate()
            .map(|(i, component)| ComponentProfile {
                index: i,
                name: component.name().to_owned(),
                visits: self.profile[i].visits,
                wall_ns: self.profile[i].wall_ns,
            })
            .collect()
    }

    /// Advances the simulation by one cycle, ticking every component once
    /// (the reference kernel), then folds the observers. Interleaves
    /// exactly with skipping runs: components a previous run left
    /// fast-forwarded are reconciled here.
    pub fn step(&mut self) {
        self.classify_new();
        self.ensure_sanitizer();
        self.step_cycle();
        self.fold_observers();
    }

    /// Sorts the components registered since the last advance into ticked
    /// components and observers (from their port declarations, read once
    /// here rather than at registration, which keeps elaboration cheap).
    fn classify_new(&mut self) {
        for index in self.ticked.len() + self.observers.len()..self.components.len() {
            if observes_only(&self.components[index].ports()) {
                self.observers.push(index);
            } else {
                self.ticked.push(index);
            }
        }
    }

    /// Executes one cycle of the reference kernel without the exit fold.
    fn step_cycle(&mut self) {
        self.tick_all();
        self.finish_cycle();
    }

    /// Ticks every ticked component, in registration order, at the
    /// current cycle. Kept out of line so that [`Sim::step`] and the
    /// skipping kernel share one copy of the hot loop.
    #[inline(never)]
    fn tick_all(&mut self) {
        let cycle = self.cycle;
        for at in 0..self.ticked.len() {
            self.tick_component(self.ticked[at], cycle);
        }
    }

    /// Folds every observer over the tap records pushed since its last
    /// fold, by calling its `tick` between cycles. A no-op while no tap
    /// record is pending. The pool owner is stamped with the observer's
    /// index, so the armed sanitizer still attributes a push or pop an
    /// observer makes.
    fn fold_observers(&mut self) {
        if self.observers.is_empty() || self.pool.tap_backlog() == 0 {
            return;
        }
        let cycle = self.cycle;
        for k in 0..self.observers.len() {
            self.call_tick(self.observers[k], cycle);
        }
        self.pool.set_owner(None);
        self.drain_sanitizer();
    }

    /// Reconciles and ticks one component at `cycle`.
    fn tick_component(&mut self, index: usize, cycle: Cycle) {
        self.flush_component(index, cycle);
        self.synced_to[index] = cycle + 1;
        self.profile[index].visits += 1;
        self.call_tick(index, cycle);
    }

    /// Calls component `index`'s `tick` at `cycle` with the pool owner
    /// stamped, attributing its wall time under `self-profile`.
    #[inline(always)]
    fn call_tick(&mut self, index: usize, cycle: Cycle) {
        self.pool.set_owner(Some(index));
        let mut ctx = TickCtx {
            cycle,
            pool: &mut self.pool,
        };
        #[cfg(feature = "self-profile")]
        let t0 = std::time::Instant::now(); // lint:allow(wall-clock) -- self-profiler, feature-gated
        self.components[index].tick(&mut ctx);
        #[cfg(feature = "self-profile")]
        {
            self.profile[index].wall_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Closes an executed cycle: clears the tick owner, advances the clock
    /// and the counters, folds the observers once the tap backlog reaches
    /// [`TAP_HIGH_WATER`], and resolves sanitizer hits.
    fn finish_cycle(&mut self) {
        self.pool.set_owner(None);
        self.cycle += 1;
        self.stats.ticks_executed += 1;
        self.stats.component_ticks += self.ticked.len() as u64;
        if self.pool.tap_backlog() >= TAP_HIGH_WATER {
            self.fold_observers();
        }
        self.drain_sanitizer();
    }

    /// Rebuilds the pool's sanitizer tables if the sanitizer is armed and
    /// the topology changed since they were last built. O(1) when nothing
    /// changed; a no-op entirely when the sanitizer is off.
    fn ensure_sanitizer(&mut self) {
        if !self.sanitize {
            return;
        }
        let signature = (self.components.len(), self.pool.wire_count());
        if self.san_signature == Some(signature) {
            return;
        }
        let counts = self.pool.wire_counts();
        let mut slot_base = [0usize; CHANNEL_SLOTS];
        let mut total_wires = 0;
        for (slot, &wires) in counts.iter().enumerate() {
            slot_base[slot] = total_wires;
            total_wires += wires;
        }
        let n = self.components.len();
        let mut tables = SanitizerTables {
            slot_base,
            total_wires,
            drive: vec![false; n * total_wires],
            consume: vec![false; n * total_wires],
            opaque: vec![false; n],
        };
        for (i, component) in self.components.iter().enumerate() {
            let ports = component.ports();
            if ports.is_empty() {
                tables.opaque[i] = true;
                continue;
            }
            for port in ports {
                let Some(slot) = channel_slot(port.channel) else {
                    continue;
                };
                if port.wire >= counts[slot] {
                    continue; // dangling declaration; realm-lint reports it
                }
                let flat = i * total_wires + slot_base[slot] + port.wire;
                match port.dir {
                    PortDir::Drive => tables.drive[flat] = true,
                    PortDir::Consume => tables.consume[flat] = true,
                    PortDir::Observe => {}
                }
            }
        }
        self.pool.set_sanitizer(Some(tables));
        self.san_signature = Some(signature);
    }

    /// Resolves raw pool sanitizer hits into named, bounded records.
    fn drain_sanitizer(&mut self) {
        if !self.pool.has_san_hits() {
            return;
        }
        let mut scratch = std::mem::take(&mut self.san_scratch);
        self.pool.drain_san_hits_into(&mut scratch);
        for raw in scratch.drain(..) {
            self.record_san_violation(raw);
        }
        self.san_scratch = scratch;
    }

    fn record_san_violation(&mut self, raw: RawSanViolation) {
        if self.san_violations.len() < MAX_VIOLATIONS {
            let name = self.components[raw.component].name().to_owned();
            self.san_violations.push(SanitizerViolation {
                component: raw.component,
                name,
                cycle: raw.cycle,
                channel: raw.channel,
                wire: raw.wire,
                kind: raw.kind,
            });
        } else {
            self.san_violations_dropped += 1;
        }
    }

    /// The instance name of the component registered at `index`, if any —
    /// resolves [`PushRefusal::component`](crate::PushRefusal) indices for
    /// reports.
    pub fn component_name(&self, index: usize) -> Option<&str> {
        self.components.get(index).map(|c| c.name())
    }

    /// Runs for `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        self.drive(cycles, None::<&mut fn(&Sim) -> bool>, None);
    }

    /// Advances until `done` returns `true` or `max_cycles` elapse; returns
    /// `true` if the predicate fired.
    ///
    /// The predicate sees the simulator between advances, so it can inspect
    /// components and wires — but not observers, which are folded only in
    /// batches and when the run returns. Idle stretches are
    /// fast-forwarded, so the predicate is evaluated per executed cycle or jump, not per skipped
    /// cycle — component state cannot change inside a skipped stretch, so
    /// no predicate flank is missed, though a predicate watching
    /// [`Sim::cycle`] itself may observe a jump past its threshold. Use
    /// [`Sim::run_until_clamped`] when the predicate watches the clock.
    pub fn run_until<F: FnMut(&Sim) -> bool>(&mut self, max_cycles: u64, mut done: F) -> bool {
        self.drive(max_cycles, Some(&mut done), None)
    }

    /// Like [`Sim::run_until`], but fast-forward jumps never cross the
    /// absolute cycle `boundary`: a jump that would overshoot lands exactly
    /// on it, so a predicate watching [`Sim::cycle`] observes the boundary
    /// even when the system is idle there.
    pub fn run_until_clamped<F: FnMut(&Sim) -> bool>(
        &mut self,
        max_cycles: u64,
        boundary: Cycle,
        mut done: F,
    ) -> bool {
        self.drive(max_cycles, Some(&mut done), Some(boundary))
    }

    /// The shared driver behind [`Sim::run`]/[`Sim::run_until`].
    fn drive<F: FnMut(&Sim) -> bool>(
        &mut self,
        max_cycles: u64,
        mut done: Option<&mut F>,
        clamp: Option<Cycle>,
    ) -> bool {
        let target = self.cycle + max_cycles;
        let skip = self.mode == KernelMode::Skip;
        self.classify_new();
        if skip {
            self.ensure_wiring();
        }
        self.ensure_sanitizer();
        // The first cycle of a run is never quiet when beats are in flight:
        // a beat pushed from outside any run becomes visible one cycle in.
        let mut settled = self.pool.total_in_flight() == 0;
        let mut quiet = false;
        loop {
            if let Some(done) = done.as_mut() {
                // Reconcile skipped ticks so the predicate observes exactly
                // the state a stepped run would show at this cycle.
                self.flush_all(self.cycle);
                if done(self) {
                    self.fold_observers();
                    return true;
                }
            }
            if self.cycle >= target {
                break;
            }
            if !skip {
                self.step_cycle();
                continue;
            }
            if std::mem::take(&mut quiet) {
                // The predicate has seen the cycle after the quiet one;
                // now jump to the earliest hint, bounded by the run target
                // and the clamp.
                let mut jump = self.next_wake().min(target);
                if let Some(boundary) = clamp {
                    if boundary > self.cycle {
                        jump = jump.min(boundary);
                    }
                }
                if jump > self.cycle {
                    self.skip_to(jump);
                    continue;
                }
            }
            quiet = self.execute_cycle(settled);
            settled = true;
        }
        self.flush_all(self.cycle);
        self.fold_observers();
        match done {
            Some(done) => done(self),
            None => false,
        }
    }

    /// Executes one cycle, ticking every non-observer in registration
    /// order, and reports whether it was quiet: no wire moved a beat.
    /// `settled` is `false` for a run's first cycle, which is never quiet.
    ///
    /// A write to state outside the wires (shared registers) needs no
    /// check here: the hint of a component that reads such state reads it
    /// too, so the hint scan after a quiet cycle sees the pending write.
    fn execute_cycle(&mut self, settled: bool) -> bool {
        let start = self.pool.moves();
        self.step_cycle();
        settled && self.pool.moves() == start
    }

    /// Whether component `i` has beats queued on a wire it consumes (any
    /// wire at all for an opaque component).
    fn has_backlog(&self, i: usize) -> bool {
        match &self.wiring.consume[i] {
            None => self.pool.total_in_flight() > 0,
            Some(wires) => wires
                .iter()
                .any(|&(slot, wire)| self.pool.slot_len(slot, wire) > 0),
        }
    }

    /// Component `i`'s wake hint at the current cycle: its `next_event`,
    /// lowered by its `backlog_event` while it holds input backlog. A hint
    /// before the current cycle is recorded as a stale-hint violation and
    /// treated as due now.
    fn hint(&mut self, i: usize) -> Cycle {
        let now = self.cycle;
        let mut at = self.checked(i, self.components[i].next_event(now));
        if at > now && self.has_backlog(i) {
            at = at.min(self.checked(i, self.components[i].backlog_event(now)));
        }
        at
    }

    fn checked(&mut self, i: usize, hint: Option<Cycle>) -> Cycle {
        match hint {
            None => NEVER,
            Some(h) if h < self.cycle => {
                self.record_violation(i, self.cycle - 1, h, ViolationKind::StaleHint);
                self.cycle
            }
            Some(h) => h,
        }
    }

    /// The earliest cycle `>= self.cycle` at which any ticked component
    /// may have work, from every such component's hint (observers have no
    /// per-cycle work to wake). Returns `self.cycle` as soon as one
    /// component is due now, starting with the one that was due at the
    /// last attempt.
    fn next_wake(&mut self) -> Cycle {
        let n = self.ticked.len();
        let now = self.cycle;
        if self.blocker >= n {
            self.blocker = 0;
        }
        let mut earliest = NEVER;
        for k in 0..n {
            let at = (self.blocker + k) % n;
            let i = self.ticked[at];
            let hint = self.hint(i);
            if hint <= now {
                self.blocker = at;
                return now;
            }
            self.hints[i] = hint;
            earliest = earliest.min(hint);
        }
        earliest
    }

    /// Jumps the whole system from the current cycle to `to`. With the
    /// audit armed (debug builds, or the sanitizer), checks at the landing
    /// cycle that the stretch really was silent: a component whose hint
    /// promised silence past `to` must not claim to be due at `to`.
    fn skip_to(&mut self, to: Cycle) {
        let skipped = to - self.cycle;
        self.stats.cycles_skipped += skipped;
        self.stats.component_skips += skipped * self.ticked.len() as u64;
        self.stats.fast_forwards += 1;
        self.cycle = to;
        if cfg!(debug_assertions) || self.sanitize {
            for k in 0..self.ticked.len() {
                let i = self.ticked[k];
                if self.hints[i] <= to {
                    continue;
                }
                if let Some(hint) = self.components[i].next_event(to) {
                    if hint <= to {
                        self.record_violation(i, to, hint, ViolationKind::MissedWake);
                        if self.sanitize {
                            self.record_san_violation(RawSanViolation {
                                component: i,
                                cycle: to,
                                channel: "-",
                                wire: 0,
                                kind: SanitizerKind::UndeclaredWake,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Rebuilds the [`Wiring`] tables if the topology changed.
    fn ensure_wiring(&mut self) {
        let n = self.components.len();
        let signature = (n, self.pool.wire_count());
        if self.wiring.signature == signature && self.hints.len() == n {
            return;
        }
        let counts = self.pool.wire_counts();
        let mut consume = Vec::with_capacity(n);
        for component in &self.components {
            let ports = component.ports();
            let mut inputs = Vec::new();
            for port in &ports {
                let Some(slot) = channel_slot(port.channel) else {
                    continue;
                };
                if port.wire >= counts[slot] {
                    continue; // dangling declaration; realm-lint reports it
                }
                let key = (slot, port.wire);
                if port.dir == PortDir::Consume && !inputs.contains(&key) {
                    inputs.push(key);
                }
            }
            consume.push((!ports.is_empty()).then_some(inputs));
        }
        self.wiring = Wiring { consume, signature };
        self.hints = vec![NEVER; n];
    }

    /// Reconciles component `index` up to (excluding) `to`.
    fn flush_component(&mut self, index: usize, to: Cycle) {
        if self.synced_to[index] < to {
            self.components[index].on_fast_forward(self.synced_to[index], to);
            self.synced_to[index] = to;
        }
    }

    /// Reconciles every ticked component up to (excluding) `to`.
    fn flush_all(&mut self, to: Cycle) {
        for k in 0..self.ticked.len() {
            self.flush_component(self.ticked[k], to);
        }
    }

    fn record_violation(
        &mut self,
        component: usize,
        cycle: Cycle,
        hint: Cycle,
        kind: ViolationKind,
    ) {
        if self.violations.len() < MAX_VIOLATIONS {
            let name = self.components[component].name().to_owned();
            self.violations.push(ContractViolation {
                component,
                name,
                cycle,
                hint,
                kind,
            });
        } else {
            self.violations_dropped += 1;
        }
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("cycle", &self.cycle)
            .field("components", &self.components.len())
            .field("wires", &self.pool.wire_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WireId;
    use crate::topology::PortDecl;
    use axi4::WBeat;

    struct Producer {
        out: WireId<WBeat>,
        sent: u64,
        limit: u64,
    }

    impl Component for Producer {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if self.sent < self.limit && ctx.pool.can_push(self.out, ctx.cycle) {
                ctx.pool
                    .push(self.out, ctx.cycle, WBeat::full(self.sent, false));
                self.sent += 1;
            }
        }
        fn name(&self) -> &str {
            "producer"
        }
        fn ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("W", self.out.index(), PortDir::Drive)]
        }
        fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
            (self.sent < self.limit).then_some(cycle)
        }
    }

    struct Consumer {
        input: WireId<WBeat>,
        received: Vec<u64>,
    }

    impl Component for Consumer {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if let Some(beat) = ctx.pool.pop(self.input, ctx.cycle) {
                self.received.push(beat.data);
            }
        }
        fn name(&self) -> &str {
            "consumer"
        }
        fn ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("W", self.input.index(), PortDir::Consume)]
        }
        fn next_event(&self, _cycle: Cycle) -> Option<Cycle> {
            None
        }
    }

    fn build() -> (Sim, ComponentId, ComponentId) {
        let mut sim = Sim::new();
        let wire = sim.pool_mut().new_wire::<WBeat>(2);
        let p = sim.add(Producer {
            out: wire,
            sent: 0,
            limit: 5,
        });
        let c = sim.add(Consumer {
            input: wire,
            received: Vec::new(),
        });
        (sim, p, c)
    }

    #[test]
    fn producer_consumer_pipeline() {
        let (mut sim, _p, c) = build();
        sim.run(10);
        let consumer = sim.component::<Consumer>(c).unwrap();
        assert_eq!(consumer.received, [0, 1, 2, 3, 4]);
    }

    /// Tick order must not change results: swap registration order.
    #[test]
    fn order_independence() {
        let mut sim = Sim::new();
        let wire = sim.pool_mut().new_wire::<WBeat>(2);
        let c = sim.add(Consumer {
            input: wire,
            received: Vec::new(),
        });
        let _p = sim.add(Producer {
            out: wire,
            sent: 0,
            limit: 5,
        });
        sim.run(10);
        let consumer = sim.component::<Consumer>(c).unwrap();
        assert_eq!(consumer.received, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_until_predicate() {
        let (mut sim, _p, c) = build();
        let fired = sim.run_until(100, |s| {
            s.component::<Consumer>(c)
                .is_some_and(|x| x.received.len() == 3)
        });
        assert!(fired);
        assert!(sim.cycle() < 100);
        // Predicate that never fires.
        assert!(!sim.run_until(5, |_| false));
    }

    #[test]
    fn downcast_type_mismatch_is_none() {
        let (sim, p, _c) = build();
        assert!(sim.component::<Consumer>(p).is_none());
        assert!(sim.component::<Producer>(p).is_some());
    }

    #[test]
    fn component_mut_allows_reconfiguration() {
        let (mut sim, p, c) = build();
        sim.run(2);
        sim.component_mut::<Producer>(p).unwrap().limit = 2;
        sim.run(10);
        assert_eq!(sim.component::<Consumer>(c).unwrap().received.len(), 2);
    }

    #[test]
    fn debug_shows_counts() {
        let (sim, ..) = build();
        let s = format!("{sim:?}");
        assert!(s.contains("components: 2"));
    }

    /// A passive observer of one W wire: each fold drains the wire's tap
    /// and counts the beats.
    struct Tally {
        wire: WireId<WBeat>,
        buf: Vec<(Cycle, WBeat)>,
        seen: Vec<u64>,
    }

    impl Tally {
        fn attach(sim: &mut Sim, wire: WireId<WBeat>) -> ComponentId {
            sim.pool_mut().enable_tap(wire);
            sim.add(Tally {
                wire,
                buf: Vec::new(),
                seen: Vec::new(),
            })
        }
    }

    impl Component for Tally {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            ctx.pool.drain_tap(self.wire, &mut self.buf);
            self.seen
                .extend(self.buf.drain(..).map(|(_, beat)| beat.data));
        }
        fn ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("W", self.wire.index(), PortDir::Observe)]
        }
    }

    /// Skipping and stepping accounting both cover every cycle, counting
    /// only the components that are ticked: an observer is folded, never
    /// ticked or skipped.
    #[test]
    fn component_tick_accounting_is_exhaustive() {
        let (mut sim, ..) = build();
        sim.run(50);
        let s = sim.kernel_stats();
        assert_eq!(s.cycles_total(), 50);
        assert_eq!(s.component_ticks + s.component_skips, 50 * 2);

        let (mut slow, ..) = build();
        slow.set_kernel_mode(KernelMode::Step);
        slow.run(50);
        let s = slow.kernel_stats();
        assert_eq!(s.ticks_executed, 50);
        assert_eq!(s.cycles_skipped, 0);
        assert_eq!(s.component_ticks, 50 * 2);
        assert_eq!(s.component_skips, 0);

        for mode in [KernelMode::Skip, KernelMode::Step] {
            let mut sim = Sim::new();
            sim.set_kernel_mode(mode);
            let wire = sim.pool_mut().new_wire::<WBeat>(2);
            let tally = Tally::attach(&mut sim, wire);
            sim.add(Producer {
                out: wire,
                sent: 0,
                limit: 5,
            });
            sim.add(Consumer {
                input: wire,
                received: Vec::new(),
            });
            sim.run(50);
            let s = sim.kernel_stats();
            assert_eq!(s.cycles_total(), 50);
            assert_eq!(s.component_ticks + s.component_skips, 50 * 2, "{mode:?}");
            assert_eq!(sim.profile()[tally.index()].visits, 0, "{mode:?}");
            let seen = &sim.component::<Tally>(tally).unwrap().seen;
            assert_eq!(seen, &[0, 1, 2, 3, 4], "folded on exit under {mode:?}");
        }
    }

    /// An observer is folded after every public step, so stepping by hand
    /// sees it current after each cycle.
    #[test]
    fn step_folds_observers() {
        let mut sim = Sim::new();
        let wire = sim.pool_mut().new_wire::<WBeat>(2);
        sim.add(Producer {
            out: wire,
            sent: 0,
            limit: 3,
        });
        let tally = Tally::attach(&mut sim, wire);
        sim.add(Consumer {
            input: wire,
            received: Vec::new(),
        });
        for expected in [1, 2, 3, 3] {
            sim.step();
            assert_eq!(sim.component::<Tally>(tally).unwrap().seen.len(), expected);
            assert_eq!(sim.pool().tap_backlog(), 0);
        }
    }

    /// Mixed driving — explicit steps between skipping runs — stays
    /// consistent: state and cycle match an all-stepped twin.
    #[test]
    fn step_and_run_interleave() {
        let (mut a, _pa, ca) = build();
        let (mut b, _pb, cb) = build();
        a.run(3);
        a.step();
        a.run(6);
        for _ in 0..10 {
            b.step();
        }
        assert_eq!(a.cycle(), b.cycle());
        assert_eq!(
            a.component::<Consumer>(ca).unwrap().received,
            b.component::<Consumer>(cb).unwrap().received
        );
    }

    /// A quiescent predicate target at an otherwise-skipped cycle: the
    /// plain run_until may jump past it, the clamped variant must not.
    #[test]
    fn run_until_clamped_observes_boundary() {
        struct Sleeper;
        impl Component for Sleeper {
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn next_event(&self, _cycle: Cycle) -> Option<Cycle> {
                None
            }
        }
        let mut sim = Sim::new();
        sim.add(Sleeper);
        // Nothing ever happens: the kernel jumps straight to the target,
        // so a `cycle == 500` predicate never observes 500…
        assert!(!sim.run_until(1_000, |s| s.cycle() == 500));
        assert_eq!(sim.cycle(), 1_000);
        // …while the clamped variant lands on the boundary exactly.
        let mut sim = Sim::new();
        sim.add(Sleeper);
        assert!(sim.run_until_clamped(1_000, 500, |s| s.cycle() == 500));
        assert_eq!(sim.cycle(), 500);
        let stats = sim.kernel_stats();
        assert!(stats.cycles_skipped >= 499, "boundary reached by jumping");
    }

    /// A component whose `next_event` returns a stale hint is reported,
    /// and the kernel keeps ticking it instead of skipping.
    #[test]
    fn stale_hint_is_reported_and_corrected() {
        struct StaleHinter {
            ticks: u64,
        }
        impl Component for StaleHinter {
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
                self.ticks += 1;
            }
            fn name(&self) -> &str {
                "stale-hinter"
            }
            fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
                // Deliberately broken: always claims a wake in the past.
                Some(cycle.saturating_sub(1))
            }
        }
        let mut sim = Sim::new();
        let id = sim.add(StaleHinter { ticks: 0 });
        sim.run(10);
        // Exactness is preserved: the component still ticked every cycle.
        assert_eq!(sim.component::<StaleHinter>(id).unwrap().ticks, 10);
        let violations = sim.contract_violations();
        assert!(!violations.is_empty(), "stale hint must be reported");
        assert_eq!(violations[0].kind, ViolationKind::StaleHint);
        assert_eq!(violations[0].name, "stale-hinter");
        assert!(violations[0].to_string().contains("stale"));
    }

    /// Shared state outside the wires (an `Rc<RefCell<…>>` side channel)
    /// stays exact under skipping when the component that reads it reads
    /// it in its hint too, whichever of writer and reader is registered
    /// first. Nothing else is declared: the write moves no beat, so only
    /// the reader's hint keeps the kernel from skipping past it.
    #[test]
    fn coupled_shared_state_matches_stepping() {
        use std::cell::RefCell;
        use std::rc::Rc;

        type Shared = Rc<RefCell<u64>>;

        /// Writes to shared state at one fixed cycle, then sleeps forever.
        /// It declares an (idle) output wire, so the kernel judges it by
        /// its hint, not as opaque.
        struct Writer {
            shared: Shared,
            out: WireId<WBeat>,
            at: Cycle,
            done: bool,
        }
        impl Component for Writer {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                if ctx.cycle == self.at {
                    *self.shared.borrow_mut() = ctx.cycle;
                    self.done = true;
                }
            }
            fn ports(&self) -> Vec<PortDecl> {
                vec![PortDecl::new("W", self.out.index(), PortDir::Drive)]
            }
            fn next_event(&self, _cycle: Cycle) -> Option<Cycle> {
                (!self.done).then_some(self.at)
            }
        }

        /// Samples the shared state every tick; its hint is "due now"
        /// exactly while the shared value differs from its last sample.
        struct Reader {
            shared: Shared,
            samples: Vec<(Cycle, u64)>,
        }
        impl Component for Reader {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                self.samples.push((ctx.cycle, *self.shared.borrow()));
            }
            fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
                let seen = self.samples.last().map(|&(_, v)| v);
                (seen != Some(*self.shared.borrow())).then_some(cycle)
            }
        }

        let run = |mode: KernelMode, reader_first: bool| {
            let shared: Shared = Rc::new(RefCell::new(0));
            let mut sim = Sim::new();
            sim.set_kernel_mode(mode);
            let reader = Reader {
                shared: Rc::clone(&shared),
                samples: Vec::new(),
            };
            let writer = Writer {
                shared: Rc::clone(&shared),
                out: sim.pool_mut().new_wire::<WBeat>(1),
                at: 400,
                done: false,
            };
            let reader = if reader_first {
                let reader = sim.add(reader);
                sim.add(writer);
                reader
            } else {
                sim.add(writer);
                sim.add(reader)
            };
            sim.run(1_000);
            let skipped = sim.kernel_stats().cycles_skipped;
            let reader = sim.component::<Reader>(reader).unwrap();
            // Keep the first sample of each distinct value: when the
            // reader first saw the write.
            let mut firsts: Vec<(Cycle, u64)> = Vec::new();
            for &(c, v) in &reader.samples {
                if firsts.last().is_none_or(|&(_, last)| last != v) {
                    firsts.push((c, v));
                }
            }
            (firsts, skipped)
        };
        // Writer first: the reader ticks after the write the same cycle.
        let (fast, skipped) = run(KernelMode::Skip, false);
        assert_eq!(fast, run(KernelMode::Step, false).0);
        assert_eq!(fast, [(0, 0), (400, 400)]);
        assert!(skipped > 900, "idle stretches are skipped: {skipped}");
        // Reader first: it sees the write one cycle later, and the kernel
        // must execute that cycle although nothing moved on a wire.
        let (fast, skipped) = run(KernelMode::Skip, true);
        assert_eq!(fast, run(KernelMode::Step, true).0);
        assert_eq!(fast, [(0, 0), (401, 400)]);
        assert!(skipped > 900, "idle stretches are skipped: {skipped}");
    }

    /// Deliberately broken hinter: always claims a wake in the past, so
    /// every processed cycle records a stale-hint violation.
    struct AlwaysStale;
    impl Component for AlwaysStale {
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        fn name(&self) -> &str {
            "always-stale"
        }
        fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
            Some(cycle.saturating_sub(1))
        }
    }

    /// Violations beyond the retention bound are counted, not stored.
    #[test]
    fn contract_violations_beyond_cap_are_counted() {
        let mut sim = Sim::new();
        sim.add(AlwaysStale);
        sim.run(MAX_VIOLATIONS as u64 + 50);
        assert_eq!(sim.contract_violations().len(), MAX_VIOLATIONS);
        assert!(
            sim.contract_violations_dropped() >= 1,
            "overflow must be counted, got {}",
            sim.contract_violations_dropped()
        );
    }

    /// Pushes an undeclared W wire every cycle while declaring only a B
    /// wire: with the sanitizer armed, every push is an UndeclaredPush.
    struct RoguePusher {
        declared: WireId<axi4::BBeat>,
        undeclared: WireId<WBeat>,
    }
    impl Component for RoguePusher {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            // Drain our own backlog so the wire never fills up.
            ctx.pool.pop(self.undeclared, ctx.cycle);
            if ctx.pool.can_push(self.undeclared, ctx.cycle) {
                ctx.pool
                    .push(self.undeclared, ctx.cycle, WBeat::full(1, true));
            }
        }
        fn name(&self) -> &str {
            "rogue"
        }
        fn ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("B", self.declared.index(), PortDir::Drive)]
        }
    }

    /// Sanitizer violations beyond the retention bound are counted, not
    /// stored — mirroring the contract-violation cap — and the stored
    /// records carry the offender's name and access kind.
    #[test]
    fn sanitizer_violations_beyond_cap_are_counted() {
        let mut sim = Sim::new();
        let declared = sim.pool_mut().new_wire::<axi4::BBeat>(2);
        let undeclared = sim.pool_mut().new_wire::<WBeat>(2);
        sim.add(RoguePusher {
            declared,
            undeclared,
        });
        sim.set_sanitize(true);
        sim.run(3 * MAX_VIOLATIONS as u64);
        let violations = sim.sanitizer_violations();
        assert_eq!(violations.len(), MAX_VIOLATIONS);
        assert!(
            sim.sanitizer_violations_dropped() >= 1,
            "overflow must be counted, got {}",
            sim.sanitizer_violations_dropped()
        );
        assert!(violations
            .iter()
            .all(|v| v.name == "rogue" && v.kind != SanitizerKind::UndeclaredWake));
        // Both reporting paths surface in the telemetry sink: a total that
        // includes the dropped tail, plus one instant per retained record.
        let sink = sim.telemetry();
        assert_eq!(
            sink.get_counter("kernel.sanitizer_violations"),
            Some(MAX_VIOLATIONS as u64 + sim.sanitizer_violations_dropped())
        );
        assert!(sink
            .instants()
            .iter()
            .filter(|i| i.name.starts_with("sanitizer:"))
            .count()
            .eq(&MAX_VIOLATIONS));
    }

    /// Contract violations surface through `Sim::telemetry` the same way.
    #[test]
    fn contract_violations_surface_in_telemetry() {
        let mut sim = Sim::new();
        sim.add(AlwaysStale);
        sim.run(10);
        let sink = sim.telemetry();
        let total = sink.get_counter("kernel.contract_violations").unwrap();
        assert_eq!(total, sim.contract_violations().len() as u64);
        assert!(total > 0);
        assert!(sink
            .instants()
            .iter()
            .any(|i| i.track == "kernel" && i.name.contains("stale-hint:always-stale")));
    }

    /// The self-profiler attributes visits per component: every executed
    /// cycle wakes every component once, so each component's visits equal
    /// the executed cycles, and skipped cycles wake none.
    #[test]
    fn profiler_attributes_visits_and_wakes() {
        let (mut sim, ..) = build();
        sim.run(50);
        let profile = sim.profile();
        let stats = sim.kernel_stats();
        assert_eq!(profile.len(), 2);
        assert!(
            stats.cycles_skipped > 0,
            "the idle tail is skipped: {stats:?}"
        );
        for p in &profile {
            assert_eq!(p.visits, stats.ticks_executed, "{profile:?}");
        }
        assert_eq!(profile[0].name, sim.component_name(0).unwrap());
        // Without the self-profile feature no wall-time is attributed.
        #[cfg(not(feature = "self-profile"))]
        assert!(profile.iter().all(|p| p.wall_ns == 0));
    }

    /// An early predicate exit out of `run_until_clamped` must not lose
    /// the violation reports accumulated before the exit.
    #[test]
    fn stale_hint_reports_survive_clamped_early_exit() {
        let mut sim = Sim::new();
        sim.add(AlwaysStale);
        let fired = sim.run_until_clamped(1_000, 500, |s| s.cycle() >= 5);
        assert!(fired);
        assert!(sim.cycle() >= 5 && sim.cycle() < 1_000, "early exit");
        let violations = sim.contract_violations();
        assert!(
            !violations.is_empty(),
            "stale-hint reports must survive the early exit"
        );
        assert!(violations
            .iter()
            .any(|v| v.kind == ViolationKind::StaleHint));
    }

    /// An observer that breaks the observer contract: its fold pushes onto
    /// the wire it only declares to observe. The pool owner is stamped
    /// with the observer during the fold, so the armed sanitizer still
    /// attributes the push to it.
    #[test]
    fn sanitizer_attributes_observer_folds() {
        struct Meddler {
            wire: WireId<WBeat>,
            buf: Vec<(Cycle, WBeat)>,
        }
        impl Component for Meddler {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                ctx.pool.drain_tap(self.wire, &mut self.buf);
                self.buf.clear();
                if ctx.pool.can_push(self.wire, ctx.cycle) {
                    ctx.pool.push(self.wire, ctx.cycle, WBeat::full(99, true));
                }
            }
            fn name(&self) -> &str {
                "meddler"
            }
            fn ports(&self) -> Vec<PortDecl> {
                vec![PortDecl::new("W", self.wire.index(), PortDir::Observe)]
            }
        }
        let mut sim = Sim::new();
        sim.set_sanitize(true);
        let wire = sim.pool_mut().new_wire::<WBeat>(2);
        sim.add(Producer {
            out: wire,
            sent: 0,
            limit: 2,
        });
        sim.add(Consumer {
            input: wire,
            received: Vec::new(),
        });
        sim.pool_mut().enable_tap(wire);
        let meddler = sim.add(Meddler {
            wire,
            buf: Vec::new(),
        });
        sim.run(10);
        let violations = sim.sanitizer_violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        let v = &violations[0];
        assert_eq!(v.kind, SanitizerKind::UndeclaredPush);
        assert_eq!((v.component, v.name.as_str()), (meddler.index(), "meddler"));
        assert_eq!(v.cycle, 10, "folded when the run returned");
        assert_eq!(
            sim.profile()[meddler.index()].visits,
            0,
            "never ticked per cycle"
        );
    }

    /// Declares one wire, touches another: the armed sanitizer flags both
    /// the push and the pop, with names resolved.
    struct Rogue {
        declared: WireId<WBeat>,
        actual: WireId<WBeat>,
    }
    impl Component for Rogue {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if ctx.pool.can_push(self.actual, ctx.cycle) {
                ctx.pool.push(self.actual, ctx.cycle, WBeat::full(9, false));
            }
            ctx.pool.pop(self.actual, ctx.cycle);
        }
        fn name(&self) -> &str {
            "rogue"
        }
        fn ports(&self) -> Vec<PortDecl> {
            vec![
                PortDecl::new("W", self.declared.index(), PortDir::Drive),
                PortDecl::new("W", self.declared.index(), PortDir::Consume),
            ]
        }
    }

    #[test]
    fn sanitizer_flags_undeclared_accesses() {
        let mut sim = Sim::new();
        let declared = sim.pool_mut().new_wire::<WBeat>(2);
        let actual = sim.pool_mut().new_wire::<WBeat>(2);
        sim.add(Rogue { declared, actual });
        sim.set_sanitize(true);
        assert!(sim.sanitize_enabled());
        sim.run(4);
        let violations = sim.sanitizer_violations();
        assert!(
            violations
                .iter()
                .any(|v| v.kind == SanitizerKind::UndeclaredPush
                    && v.channel == "W"
                    && v.wire == actual.index()),
            "push on the undeclared wire must be flagged: {violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.kind == SanitizerKind::UndeclaredPop),
            "pop on the undeclared wire must be flagged: {violations:?}"
        );
        assert_eq!(violations[0].name, "rogue");
        assert!(violations[0].to_string().contains("undeclared"));
    }

    /// Off by default: the same rogue records nothing; and a system whose
    /// declarations match its behaviour stays clean with the sanitizer on.
    #[test]
    fn sanitizer_default_off_and_declared_traffic_is_clean() {
        let mut sim = Sim::new();
        let declared = sim.pool_mut().new_wire::<WBeat>(2);
        let actual = sim.pool_mut().new_wire::<WBeat>(2);
        sim.add(Rogue { declared, actual });
        sim.run(4);
        assert!(sim.sanitizer_violations().is_empty());

        let (mut sim, ..) = build();
        sim.set_sanitize(true);
        sim.run(20);
        assert!(
            sim.sanitizer_violations().is_empty(),
            "declared producer/consumer must be sanitizer-clean: {:?}",
            sim.sanitizer_violations()
        );
        assert_eq!(sim.sanitizer_violations_dropped(), 0);
    }

    /// A component whose hint under-reports: it acts on every even cycle,
    /// but after an odd cycle it claims nothing happens for nine more. A
    /// timer bounds the skip at an even cycle, where the audit catches the
    /// component claiming to be due inside the stretch it promised was
    /// silent — a missed wake, and with the sanitizer armed (in release
    /// builds too) an undeclared wake.
    #[test]
    fn sanitizer_reports_undeclared_wake() {
        struct HalfRate;
        impl Component for HalfRate {
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn name(&self) -> &str {
                "half-rate"
            }
            fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
                Some(if cycle.is_multiple_of(2) {
                    cycle
                } else {
                    cycle + 9
                })
            }
        }
        struct Timer {
            at: Cycle,
        }
        impl Component for Timer {
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
                (cycle <= self.at).then_some(self.at)
            }
        }

        let mut sim = Sim::new();
        sim.set_sanitize(true);
        let half = sim.add(HalfRate);
        sim.add(Timer { at: 4 });
        sim.run(20);
        let missed = |v: &ContractViolation| v.kind == ViolationKind::MissedWake;
        assert!(
            sim.contract_violations().iter().any(missed),
            "missed wake must be flagged: {:?}",
            sim.contract_violations()
        );
        assert!(
            sim.sanitizer_violations()
                .iter()
                .any(|v| v.kind == SanitizerKind::UndeclaredWake && v.component == half.index()),
            "undeclared wake must be flagged: {:?}",
            sim.sanitizer_violations()
        );
    }

    /// `REALM_KERNEL` accepts `step` or nothing; every other value,
    /// including the names of removed kernels, is an error naming the
    /// accepted ones — never a silent fallback.
    #[test]
    fn kernel_env_accepts_only_step_or_unset() {
        assert_eq!(KernelMode::parse(None), Ok(KernelMode::Skip));
        assert_eq!(KernelMode::parse(Some("step")), Ok(KernelMode::Step));
        for bad in ["event", "islands", "arena", "stepped", "", "STEP"] {
            let err = KernelMode::parse(Some(bad)).unwrap_err();
            assert!(err.contains("REALM_KERNEL=step"), "{bad}: {err}");
        }
        assert_eq!(KernelMode::Skip.name(), "skip");
        assert_eq!(KernelMode::Step.name(), "step");
    }

    /// Input parked on a consumer's wire keeps the system from skipping
    /// while the consumer may still take it: a consumer that pops only on
    /// every third cycle (and has no wake hint of its own) drains exactly
    /// as it does under stepping.
    #[test]
    fn parked_input_keeps_the_consumer_ticking() {
        struct Picky {
            input: WireId<WBeat>,
            received: Vec<(Cycle, u64)>,
        }
        impl Component for Picky {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                if ctx.cycle.is_multiple_of(3) {
                    if let Some(beat) = ctx.pool.pop(self.input, ctx.cycle) {
                        self.received.push((ctx.cycle, beat.data));
                    }
                }
            }
            fn ports(&self) -> Vec<PortDecl> {
                vec![PortDecl::new("W", self.input.index(), PortDir::Consume)]
            }
            fn next_event(&self, _cycle: Cycle) -> Option<Cycle> {
                None
            }
        }
        let run = |mode: KernelMode| {
            let mut sim = Sim::new();
            sim.set_kernel_mode(mode);
            let wire = sim.pool_mut().new_wire::<WBeat>(8);
            sim.add(Producer {
                out: wire,
                sent: 0,
                limit: 5,
            });
            let c = sim.add(Picky {
                input: wire,
                received: Vec::new(),
            });
            sim.run(100);
            sim.component::<Picky>(c).unwrap().received.clone()
        };
        let fast = run(KernelMode::Skip);
        assert_eq!(fast.len(), 5, "{fast:?}");
        assert_eq!(fast, run(KernelMode::Step));
    }

    /// A steady stream through a relay chain moves a beat on every cycle,
    /// so no cycle is quiet and the skip window degenerates to zero
    /// length while the path is live — even though no component asks to
    /// be woken. Once the stream has drained, the rest of the run is
    /// skipped. Delivery order and stop cycle match stepping.
    #[test]
    fn zero_length_window_on_contended_path() {
        struct Relay {
            input: WireId<WBeat>,
            out: WireId<WBeat>,
        }
        impl Component for Relay {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                if ctx.pool.can_push(self.out, ctx.cycle) {
                    if let Some(beat) = ctx.pool.pop(self.input, ctx.cycle) {
                        ctx.pool.push(self.out, ctx.cycle, beat);
                    }
                }
            }
            fn ports(&self) -> Vec<PortDecl> {
                vec![
                    PortDecl::new("in", self.input.index(), PortDir::Consume),
                    PortDecl::new("out", self.out.index(), PortDir::Drive),
                ]
            }
            fn next_event(&self, _cycle: Cycle) -> Option<Cycle> {
                None
            }
        }
        const BEATS: u64 = 40;
        let run = |mode: KernelMode| {
            let mut sim = Sim::new();
            sim.set_kernel_mode(mode);
            let w1 = sim.pool_mut().new_wire::<WBeat>(64);
            let w2 = sim.pool_mut().new_wire::<WBeat>(8);
            // One beat per push cycle: beat `k` becomes visible at `k + 1`,
            // a stream arriving at line rate with no producer to wake.
            for k in 0..BEATS {
                sim.pool_mut().push(w1, k, WBeat::full(k, false));
            }
            sim.add(Relay { input: w1, out: w2 });
            let c = sim.add(Consumer {
                input: w2,
                received: Vec::new(),
            });
            let fired = sim.run_until(1_000, |s| {
                s.component::<Consumer>(c)
                    .is_some_and(|x| x.received.len() as u64 == BEATS)
            });
            let live = (fired, sim.cycle(), sim.kernel_stats());
            sim.run(500);
            let received = sim.component::<Consumer>(c).unwrap().received.clone();
            (live, received, sim.kernel_stats())
        };
        let ((fired, stop, live), received, total) = run(KernelMode::Skip);
        let ((fired_s, stop_s, _), received_s, _) = run(KernelMode::Step);
        assert!(fired);
        assert_eq!((fired, stop), (fired_s, stop_s), "stop cycle");
        assert_eq!(received, (0..BEATS).collect::<Vec<_>>());
        assert_eq!(received, received_s);
        assert_eq!(
            live.cycles_skipped, 0,
            "a live stream must not open a skip window: {live:?}"
        );
        assert!(
            total.cycles_skipped >= 499,
            "the drained path must be skipped: {total:?}"
        );
    }

    /// A pool tap must see every beat even when the kernel fast-forwards
    /// over the idle gaps between them. The producer sleeps 1000 cycles
    /// between beats, so almost all simulated time is jumped over; the tap
    /// still holds each beat once, stamped with the cycle it was pushed.
    #[test]
    fn fast_forward_does_not_lose_beats() {
        struct SparseProducer {
            out: WireId<WBeat>,
            sent: u64,
            next_at: Cycle,
        }
        impl Component for SparseProducer {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                if ctx.cycle >= self.next_at && self.sent < 5 {
                    ctx.pool
                        .push(self.out, ctx.cycle, WBeat::full(self.sent, false));
                    self.sent += 1;
                    self.next_at = ctx.cycle + 1000;
                }
            }
            fn ports(&self) -> Vec<PortDecl> {
                vec![PortDecl::new("W", self.out.index(), PortDir::Drive)]
            }
            fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
                (self.sent < 5).then(|| self.next_at.max(cycle))
            }
        }

        let mut sim = Sim::new();
        let wire = sim.pool_mut().new_wire::<WBeat>(2);
        sim.pool_mut().enable_tap(wire);
        sim.add(SparseProducer {
            out: wire,
            sent: 0,
            next_at: 0,
        });
        let c = sim.add(Consumer {
            input: wire,
            received: Vec::new(),
        });
        sim.run(6_000);
        assert!(
            sim.kernel_stats().fast_forwards >= 4,
            "idle gaps must be jumped: {:?}",
            sim.kernel_stats()
        );
        let mut tapped = Vec::new();
        sim.pool_mut().drain_tap(wire, &mut tapped);
        let seen: Vec<(Cycle, u64)> = tapped.iter().map(|&(c, b)| (c, b.data)).collect();
        assert_eq!(
            seen,
            [(0, 0), (1000, 1), (2000, 2), (3000, 3), (4000, 4)],
            "no beat may be lost across jumps"
        );
        assert_eq!(
            sim.component::<Consumer>(c).unwrap().received,
            [0, 1, 2, 3, 4]
        );
    }
}
