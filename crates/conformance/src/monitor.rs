//! The passive per-port protocol monitor.
//!
//! A [`ProtocolMonitor`] watches one [`AxiBundle`] through wire taps: every
//! beat accepted onto any of the port's five wires is delivered to the
//! monitor exactly once, with its push cycle, regardless of component tick
//! order, back-to-back identical payloads, or kernel fast-forward jumps.
//! Its state is a pure fold over those stamped tap records. It declares
//! only `Observe` ports, so the kernel never ticks it per cycle: it folds
//! the monitor between cycles whenever the pool's tap backlog reaches
//! [`axi_sim::TAP_HIGH_WATER`], and whenever a run or a step returns. Each
//! fold replays its records in push-cycle order, and within one cycle in
//! causal channel order, so the fold boundaries never change the verdict.
//! The monitor's state is therefore current between runs, though not
//! inside a `run_until` predicate. The monitor never pushes, pops, or
//! peeks a wire, so attaching it cannot perturb simulated behaviour.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use axi4::{ArBeat, AwBeat, BBeat, ProtocolError, RBeat, TxnId, WBeat};
use axi_sim::{AxiBundle, ChannelPool, Component, ComponentId, Cycle, Sim, TickCtx};

/// The AXI4 protocol rules a [`ProtocolMonitor`] enforces.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Rule {
    /// AW burst parameters violate the AXI4 burst rules (length, size,
    /// WRAP/FIXED constraints, exclusive-access limits).
    AwBurstIllegal,
    /// AW INCR burst crosses a 4 KiB boundary.
    AwCross4K,
    /// AR burst parameters violate the AXI4 burst rules.
    ArBurstIllegal,
    /// AR INCR burst crosses a 4 KiB boundary.
    ArCross4K,
    /// WLAST asserted before the burst's final beat.
    WlastEarly,
    /// Final W beat of a burst arrived without WLAST.
    WlastMissing,
    /// W beat with no outstanding write burst to belong to.
    WOrphan,
    /// B response with no outstanding write awaiting one.
    BOrphan,
    /// B response issued before the write's WLAST beat.
    BBeforeWlast,
    /// R beat with no outstanding read of its ID.
    ROrphan,
    /// RLAST asserted before the read burst's final beat.
    RlastEarly,
    /// Final R beat of a read burst arrived without RLAST.
    RlastMissing,
}

impl Rule {
    /// Every enforced rule, in channel order — mutation tests iterate this
    /// to prove each rule has a paired injection.
    pub const ALL: [Rule; 12] = [
        Rule::AwBurstIllegal,
        Rule::AwCross4K,
        Rule::ArBurstIllegal,
        Rule::ArCross4K,
        Rule::WlastEarly,
        Rule::WlastMissing,
        Rule::WOrphan,
        Rule::BOrphan,
        Rule::BBeforeWlast,
        Rule::ROrphan,
        Rule::RlastEarly,
        Rule::RlastMissing,
    ];

    /// Short stable identifier, used in report text.
    pub const fn label(self) -> &'static str {
        match self {
            Rule::AwBurstIllegal => "AW_BURST_ILLEGAL",
            Rule::AwCross4K => "AW_CROSS_4K",
            Rule::ArBurstIllegal => "AR_BURST_ILLEGAL",
            Rule::ArCross4K => "AR_CROSS_4K",
            Rule::WlastEarly => "WLAST_EARLY",
            Rule::WlastMissing => "WLAST_MISSING",
            Rule::WOrphan => "W_ORPHAN",
            Rule::BOrphan => "B_ORPHAN",
            Rule::BBeforeWlast => "B_BEFORE_WLAST",
            Rule::ROrphan => "R_ORPHAN",
            Rule::RlastEarly => "RLAST_EARLY",
            Rule::RlastMissing => "RLAST_MISSING",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One observed protocol violation: which rule, where, and when.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// The rule that was broken.
    pub rule: Rule,
    /// Push cycle of the offending beat.
    pub cycle: Cycle,
    /// Channel the offending beat appeared on ("AW", "W", "B", "AR", "R").
    pub channel: &'static str,
    /// Transaction ID involved, when attributable (W beats carry no ID; an
    /// orphan W beat has none).
    pub id: Option<TxnId>,
    /// Human-readable specifics (burst parameters, beat counts, …).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {:>8}: [{}] on {}",
            self.cycle, self.rule, self.channel
        )?;
        if let Some(id) = self.id {
            write!(f, " id={id}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Beat- and burst-level counters for one monitored port, the raw material
/// of the scoreboard's conservation checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PortCounters {
    /// AW bursts observed.
    pub aw_bursts: u64,
    /// AR bursts observed.
    pub ar_bursts: u64,
    /// W data beats observed.
    pub w_beats: u64,
    /// W beats with WLAST set.
    pub w_lasts: u64,
    /// R data beats observed.
    pub r_beats: u64,
    /// R beats with RLAST set.
    pub r_lasts: u64,
    /// B responses observed.
    pub b_resps: u64,
    /// Sum of AW burst lengths: W beats the port has promised.
    pub write_beats_expected: u64,
    /// Sum of AR burst lengths: R beats the port is owed.
    pub read_beats_expected: u64,
    /// Error responses (`SLVERR`/`DECERR`) on B or R.
    pub err_resps: u64,
}

/// Upper bound on retained [`Violation`] records per monitor; a pathological
/// component cannot balloon memory, further violations only count.
const MAX_VIOLATIONS: usize = 1024;

/// An in-flight write burst: AW seen, W data still arriving.
#[derive(Debug)]
struct WriteTrack {
    id: TxnId,
    len: u16,
    beats: u16,
}

/// An in-flight read burst of one ID: AR seen, R data still arriving.
#[derive(Debug)]
struct ReadTrack {
    len: u16,
    beats: u16,
}

/// A passive AXI4 protocol checker attached to one port.
///
/// Attach with [`ProtocolMonitor::new`] (which taps the bundle's wires) and
/// register it with the simulator like any component. After a run, inspect
/// [`ProtocolMonitor::violations`] and [`ProtocolMonitor::counters`], or
/// aggregate several monitors into a
/// [`ConformanceReport`](crate::ConformanceReport).
#[derive(Debug)]
pub struct ProtocolMonitor {
    name: String,
    bundle: AxiBundle,
    violations: Vec<Violation>,
    violations_dropped: u64,
    // Exact per-rule observation counts, unaffected by the MAX_VIOLATIONS
    // retention bound — the rule axis of the coverage signature.
    rule_hits: BTreeMap<Rule, u64>,
    counters: PortCounters,
    // Outstanding writes in AW order. W carries no ID in AXI4 and this
    // workspace issues AW before its W burst, so data beats attach to the
    // oldest write still missing beats.
    writes: VecDeque<WriteTrack>,
    // Writes whose data completed, per ID, awaiting exactly one B each.
    pending_b: BTreeMap<TxnId, u32>,
    // Outstanding reads per ID, oldest first: AXI4 requires same-ID read
    // data in request order, so each R beat attaches to the oldest
    // outstanding read of its ID. Same-ID reordering by the interconnect
    // surfaces as RLAST misplacement.
    reads: BTreeMap<TxnId, VecDeque<ReadTrack>>,
    // Scratch drain buffers, reused across folds to avoid reallocating.
    aw_buf: Vec<(Cycle, AwBeat)>,
    w_buf: Vec<(Cycle, WBeat)>,
    b_buf: Vec<(Cycle, BBeat)>,
    ar_buf: Vec<(Cycle, ArBeat)>,
    r_buf: Vec<(Cycle, RBeat)>,
}

impl ProtocolMonitor {
    /// Creates a monitor for `bundle`, enabling taps on its five wires.
    pub fn new(name: impl Into<String>, bundle: AxiBundle, pool: &mut ChannelPool) -> Self {
        pool.enable_tap(bundle.aw);
        pool.enable_tap(bundle.w);
        pool.enable_tap(bundle.b);
        pool.enable_tap(bundle.ar);
        pool.enable_tap(bundle.r);
        Self {
            name: name.into(),
            bundle,
            violations: Vec::new(),
            violations_dropped: 0,
            rule_hits: BTreeMap::new(),
            counters: PortCounters::default(),
            writes: VecDeque::new(),
            pending_b: BTreeMap::new(),
            reads: BTreeMap::new(),
            aw_buf: Vec::new(),
            w_buf: Vec::new(),
            b_buf: Vec::new(),
            ar_buf: Vec::new(),
            r_buf: Vec::new(),
        }
    }

    /// Creates a monitor for `bundle` and registers it with `sim` in one
    /// step, returning the handle to collect results from later.
    pub fn attach(sim: &mut Sim, name: impl Into<String>, bundle: AxiBundle) -> ComponentId {
        let monitor = Self::new(name, bundle, sim.pool_mut());
        sim.add(monitor)
    }

    /// The monitored bundle.
    pub fn bundle(&self) -> AxiBundle {
        self.bundle
    }

    /// All recorded violations, oldest first (bounded; see
    /// [`ProtocolMonitor::violations_dropped`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations beyond the retention bound, counted instead of stored.
    pub fn violations_dropped(&self) -> u64 {
        self.violations_dropped
    }

    /// `true` if no violation has been observed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.violations_dropped == 0
    }

    /// Beat and burst counters observed so far.
    pub fn counters(&self) -> PortCounters {
        self.counters
    }

    /// Transactions currently outstanding at this port: writes awaiting
    /// data or response, plus reads awaiting data.
    pub fn outstanding(&self) -> usize {
        self.writes.len()
            + self.pending_b.values().map(|&n| n as usize).sum::<usize>()
            + self.reads.values().map(VecDeque::len).sum::<usize>()
    }

    /// `true` if every observed transaction has fully completed — the
    /// precondition for the scoreboard's exact conservation equalities.
    pub fn is_drained(&self) -> bool {
        self.outstanding() == 0
    }

    /// Exact per-rule observation counts (not subject to the
    /// `MAX_VIOLATIONS` retention bound on stored records).
    pub fn rule_hits(&self) -> &BTreeMap<Rule, u64> {
        &self.rule_hits
    }

    fn record(&mut self, violation: Violation) {
        // Count before the retention bound so rule_hits stays exact even
        // when the stored-record list saturates.
        *self.rule_hits.entry(violation.rule).or_insert(0) += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(violation);
        } else {
            self.violations_dropped += 1;
        }
    }

    /// The earliest push cycle among the records at positions `at` of the
    /// AW, W, AR, B and R drain buffers; `Cycle::MAX` once all are
    /// replayed (no simulation reaches that cycle).
    fn next_cycle(&self, at: &[usize; 5]) -> Cycle {
        fn head<T>(buf: &[(Cycle, T)], at: usize) -> Cycle {
            buf.get(at).map_or(Cycle::MAX, |e| e.0)
        }
        head(&self.aw_buf, at[0])
            .min(head(&self.w_buf, at[1]))
            .min(head(&self.ar_buf, at[2]))
            .min(head(&self.b_buf, at[3]))
            .min(head(&self.r_buf, at[4]))
    }

    fn on_aw(&mut self, cycle: Cycle, beat: AwBeat) {
        self.counters.aw_bursts += 1;
        self.counters.write_beats_expected += u64::from(beat.len.beats());
        if let Err(error) = beat.validate() {
            let rule = match error {
                ProtocolError::Crosses4K { .. } => Rule::AwCross4K,
                _ => Rule::AwBurstIllegal,
            };
            self.record(Violation {
                rule,
                cycle,
                channel: "AW",
                id: Some(beat.id),
                detail: error.to_string(),
            });
        }
        self.writes.push_back(WriteTrack {
            id: beat.id,
            len: beat.len.beats(),
            beats: 0,
        });
    }

    fn on_w(&mut self, cycle: Cycle, beat: WBeat) {
        self.counters.w_beats += 1;
        if beat.last {
            self.counters.w_lasts += 1;
        }
        let Some(track) = self.writes.front_mut() else {
            self.record(Violation {
                rule: Rule::WOrphan,
                cycle,
                channel: "W",
                id: None,
                detail: "data beat with no outstanding write burst".to_owned(),
            });
            return;
        };
        track.beats += 1;
        let (id, len, beats) = (track.id, track.len, track.beats);
        // WLAST terminates the burst; so does reaching the promised length.
        // Either way the track retires and a B response becomes legal.
        if beat.last && beats < len {
            self.record(Violation {
                rule: Rule::WlastEarly,
                cycle,
                channel: "W",
                id: Some(id),
                detail: format!("WLAST on beat {beats} of {len}"),
            });
        } else if !beat.last && beats == len {
            self.record(Violation {
                rule: Rule::WlastMissing,
                cycle,
                channel: "W",
                id: Some(id),
                detail: format!("final beat {beats} of {len} without WLAST"),
            });
        }
        if beat.last || beats == len {
            self.writes.pop_front();
            *self.pending_b.entry(id).or_insert(0) += 1;
        }
    }

    fn on_ar(&mut self, cycle: Cycle, beat: ArBeat) {
        self.counters.ar_bursts += 1;
        self.counters.read_beats_expected += u64::from(beat.len.beats());
        if let Err(error) = beat.validate() {
            let rule = match error {
                ProtocolError::Crosses4K { .. } => Rule::ArCross4K,
                _ => Rule::ArBurstIllegal,
            };
            self.record(Violation {
                rule,
                cycle,
                channel: "AR",
                id: Some(beat.id),
                detail: error.to_string(),
            });
        }
        self.reads.entry(beat.id).or_default().push_back(ReadTrack {
            len: beat.len.beats(),
            beats: 0,
        });
    }

    fn on_b(&mut self, cycle: Cycle, beat: BBeat) {
        self.counters.b_resps += 1;
        if beat.resp.is_err() {
            self.counters.err_resps += 1;
        }
        if let Some(count) = self.pending_b.get_mut(&beat.id) {
            *count -= 1;
            if *count == 0 {
                self.pending_b.remove(&beat.id);
            }
            return;
        }
        if self.writes.iter().any(|t| t.id == beat.id) {
            self.record(Violation {
                rule: Rule::BBeforeWlast,
                cycle,
                channel: "B",
                id: Some(beat.id),
                detail: "write response before the burst's WLAST".to_owned(),
            });
        } else {
            self.record(Violation {
                rule: Rule::BOrphan,
                cycle,
                channel: "B",
                id: Some(beat.id),
                detail: "write response with no outstanding write".to_owned(),
            });
        }
    }

    fn on_r(&mut self, cycle: Cycle, beat: RBeat) {
        self.counters.r_beats += 1;
        if beat.last {
            self.counters.r_lasts += 1;
        }
        if beat.resp.is_err() {
            self.counters.err_resps += 1;
        }
        let Some(queue) = self.reads.get_mut(&beat.id).filter(|q| !q.is_empty()) else {
            self.record(Violation {
                rule: Rule::ROrphan,
                cycle,
                channel: "R",
                id: Some(beat.id),
                detail: "read data with no outstanding read of this ID".to_owned(),
            });
            return;
        };
        let track = queue.front_mut().expect("non-empty by filter");
        track.beats += 1;
        let (len, beats) = (track.len, track.beats);
        if beat.last || beats == len {
            queue.pop_front();
            if queue.is_empty() {
                self.reads.remove(&beat.id);
            }
        }
        if beat.last && beats < len {
            self.record(Violation {
                rule: Rule::RlastEarly,
                cycle,
                channel: "R",
                id: Some(beat.id),
                detail: format!("RLAST on beat {beats} of {len}"),
            });
        } else if !beat.last && beats == len {
            self.record(Violation {
                rule: Rule::RlastMissing,
                cycle,
                channel: "R",
                id: Some(beat.id),
                detail: format!("final beat {beats} of {len} without RLAST"),
            });
        }
    }
}

impl Component for ProtocolMonitor {
    /// The fold: drains the taps and replays the records as a merge, push
    /// cycle first, then causal channel order within a cycle — requests
    /// (AW, W, AR) before responses (B, R). No hop is zero-cycle, so a
    /// response is pushed at least a cycle after its request and this
    /// order is causal however many cycles one fold spans.
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        ctx.pool.drain_tap(self.bundle.aw, &mut self.aw_buf);
        ctx.pool.drain_tap(self.bundle.w, &mut self.w_buf);
        ctx.pool.drain_tap(self.bundle.ar, &mut self.ar_buf);
        ctx.pool.drain_tap(self.bundle.b, &mut self.b_buf);
        ctx.pool.drain_tap(self.bundle.r, &mut self.r_buf);
        // Replay positions in the AW, W, AR, B, R buffers.
        let mut at = [0usize; 5];
        loop {
            let cycle = self.next_cycle(&at);
            if cycle == Cycle::MAX {
                break;
            }
            while let Some(&(c, beat)) = self.aw_buf.get(at[0]).filter(|e| e.0 == cycle) {
                self.on_aw(c, beat);
                at[0] += 1;
            }
            while let Some(&(c, beat)) = self.w_buf.get(at[1]).filter(|e| e.0 == cycle) {
                self.on_w(c, beat);
                at[1] += 1;
            }
            while let Some(&(c, beat)) = self.ar_buf.get(at[2]).filter(|e| e.0 == cycle) {
                self.on_ar(c, beat);
                at[2] += 1;
            }
            while let Some(&(c, beat)) = self.b_buf.get(at[3]).filter(|e| e.0 == cycle) {
                self.on_b(c, beat);
                at[3] += 1;
            }
            while let Some(&(c, beat)) = self.r_buf.get(at[4]).filter(|e| e.0 == cycle) {
                self.on_r(c, beat);
                at[4] += 1;
            }
        }
        self.aw_buf.clear();
        self.w_buf.clear();
        self.b_buf.clear();
        self.ar_buf.clear();
        self.r_buf.clear();
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Vec<axi_sim::PortDecl> {
        self.bundle.observer_ports()
    }

    fn telemetry(&self, sink: &mut axi_sim::TelemetrySink) {
        let prefix = format!("conf.{}", self.name);
        sink.counter(&format!("{prefix}.aw_bursts"), self.counters.aw_bursts);
        sink.counter(&format!("{prefix}.ar_bursts"), self.counters.ar_bursts);
        sink.counter(&format!("{prefix}.w_beats"), self.counters.w_beats);
        sink.counter(&format!("{prefix}.r_beats"), self.counters.r_beats);
        sink.counter(&format!("{prefix}.b_resps"), self.counters.b_resps);
        sink.counter(&format!("{prefix}.err_resps"), self.counters.err_resps);
        // Only rules that actually fired get a row — on a clean run the
        // whole rule section is silent, which is the interesting signal.
        for (rule, hits) in &self.rule_hits {
            sink.counter(&format!("{prefix}.rule.{}", rule.label()), *hits);
        }
    }
}
