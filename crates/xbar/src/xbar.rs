//! The N×M AXI4 crossbar with burst-granular round-robin arbitration.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use axi4::{BBeat, RBeat, Resp, TxnId};
use axi_sim::{AxiBundle, Component, RoundRobin, TickCtx};

use crate::map::AddressMap;

/// Encodes the originating manager port into the transaction ID forwarded
/// downstream, as real AXI muxes do by widening the ID.
///
/// The encoding is multiplicative (`id * n_mgr + mgr`) rather than a fixed
/// bit field, so crossbars compose: a cluster crossbar's extended IDs can
/// be extended again by a system-level crossbar (the NoC-style integration
/// of the paper's Fig. 1) as long as the product stays within `u32`.
///
/// # Panics
///
/// Panics if `mgr >= n_mgr` or the extended ID would overflow `u32`.
pub fn encode_id(mgr: usize, n_mgr: usize, id: TxnId) -> TxnId {
    assert!(mgr < n_mgr, "manager index out of range");
    let extended = u64::from(id.raw()) * n_mgr as u64 + mgr as u64;
    assert!(
        extended <= u64::from(u32::MAX),
        "extended transaction ID overflows 32 bits"
    );
    TxnId::new(extended as u32)
}

/// Recovers the manager port and original ID from a downstream ID.
pub fn decode_id(id: TxnId, n_mgr: usize) -> (usize, TxnId) {
    (
        (id.raw() as usize) % n_mgr,
        TxnId::new(id.raw() / n_mgr as u32),
    )
}

/// Crossbar construction error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XbarError {
    /// The address map references more subordinates than ports were given.
    TooFewSubordinatePorts {
        /// Ports provided.
        provided: usize,
        /// Ports the map requires.
        required: usize,
    },
    /// More than 256 manager ports.
    TooManyManagers {
        /// Ports provided.
        provided: usize,
    },
    /// A fixed-priority vector whose length does not match the managers.
    BadPriorities {
        /// Priority entries provided.
        provided: usize,
        /// Manager ports to cover.
        managers: usize,
    },
}

impl fmt::Display for XbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XbarError::TooFewSubordinatePorts { provided, required } => write!(
                f,
                "address map requires {required} subordinate ports, only {provided} given"
            ),
            XbarError::TooManyManagers { provided } => {
                write!(f, "{provided} manager ports exceed the 256-manager limit")
            }
            XbarError::BadPriorities { provided, managers } => write!(
                f,
                "{provided} priority entries do not cover {managers} managers"
            ),
        }
    }
}

impl Error for XbarError {}

/// How address-channel grants are arbitrated per subordinate.
///
/// The paper's §II argues against priority-based schemes (as in
/// AXI-IC^RT / QoS-400) because they *"may lead to request starvation on
/// low-priority managers"*. [`ArbitrationPolicy::FixedPriority`] exists to
/// make that argument measurable — see the `related_work` experiment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ArbitrationPolicy {
    /// Work-conserving round robin (the default, and what AXI-REALM
    /// assumes).
    RoundRobin,
    /// Strict fixed priority: the highest value among requestors wins,
    /// ties broken by lower port index. Starvation-prone by design.
    FixedPriority(Vec<u8>),
}

/// Which address channel an arbitration decision is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Channel {
    Ar,
    Aw,
}

/// Where a manager's next write burst's data beats are headed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WriteDst {
    /// Forward to this subordinate port.
    Sub(usize),
    /// Consume and discard; answer `DECERR` after the last beat.
    DecodeErr(TxnId),
}

#[derive(Clone, Debug, Default)]
struct ErrorRead {
    id: TxnId,
    beats_left: u16,
}

/// Per-manager interconnect statistics, the raw material for interference
/// analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ManagerStats {
    /// Read bursts forwarded downstream.
    pub ar_granted: u64,
    /// Write bursts forwarded downstream.
    pub aw_granted: u64,
    /// Cycles a decodable request waited while another manager held the
    /// grant — direct interference.
    pub blocked_cycles: u64,
    /// Requests answered with `DECERR` (no subordinate at the address).
    pub decode_errors: u64,
}

/// An N-manager × M-subordinate AXI4 crossbar.
///
/// Faithful to PULP-style burst-based interconnects in the properties the
/// paper's evaluation rests on:
///
/// - **Burst-granular round-robin arbitration** per subordinate on AR and
///   AW: a grant moves one address beat; fairness is per *burst*, so long
///   bursts dominate bandwidth — the unfairness AXI-REALM's splitter fixes.
/// - **W-channel reservation**: once an AW is granted, the subordinate's W
///   channel is dedicated to that manager until `WLAST`. A manager that
///   withholds its data stalls every later writer — the DoS vector the
///   paper's write buffer removes. [`Crossbar::w_stall_cycles`] exposes how
///   long each subordinate's W channel sat reserved-but-idle.
/// - **ID-based response routing** with manager-index ID extension.
/// - **`DECERR` generation** for unmapped addresses, per the AXI4 default
///   subordinate convention.
pub struct Crossbar {
    map: AddressMap,
    mgr_ports: Vec<AxiBundle>,
    sub_ports: Vec<AxiBundle>,
    ar_arb: Vec<RoundRobin>,
    aw_arb: Vec<RoundRobin>,
    /// Per subordinate: managers whose write bursts were granted, in order.
    w_owner: Vec<VecDeque<usize>>,
    /// Per manager: destinations of its granted write bursts, in order.
    mgr_w_dst: Vec<VecDeque<WriteDst>>,
    err_reads: Vec<VecDeque<ErrorRead>>,
    err_writes: Vec<VecDeque<TxnId>>,
    stats: Vec<ManagerStats>,
    /// `interference[victim][aggressor]`: grant cycles where `victim` had a
    /// decodable request pending while `aggressor` held the grant — the
    /// per-manager attribution the paper's monitoring exposes for budget
    /// and period selection.
    interference: Vec<Vec<u64>>,
    /// Per subordinate: most recent AR grant winner (saturation attribution).
    last_ar_winner: Vec<Option<usize>>,
    /// Per subordinate: most recent AW grant winner.
    last_aw_winner: Vec<Option<usize>>,
    /// `read_outstanding[sub][mgr]`: read bursts forwarded to `sub` on
    /// behalf of `mgr` whose final beat has not returned — the basis for
    /// service-level interference attribution.
    read_outstanding: Vec<Vec<u64>>,
    policy: ArbitrationPolicy,
    w_stalls: Vec<u64>,
    /// Per subordinate: bitmask of managers requesting this cycle —
    /// rebuilt by each arbitration pass without allocating.
    req_scratch: Vec<u64>,
    name: String,
}

impl Crossbar {
    /// Builds a crossbar connecting `mgr_ports` to `sub_ports` through
    /// `map`.
    ///
    /// # Errors
    ///
    /// [`XbarError::TooFewSubordinatePorts`] if the map targets a port index
    /// beyond `sub_ports`, [`XbarError::TooManyManagers`] beyond 256
    /// managers.
    pub fn new(
        map: AddressMap,
        mgr_ports: Vec<AxiBundle>,
        sub_ports: Vec<AxiBundle>,
    ) -> Result<Self, XbarError> {
        Self::with_arbitration(map, mgr_ports, sub_ports, ArbitrationPolicy::RoundRobin)
    }

    /// Builds a crossbar with an explicit arbitration policy.
    ///
    /// # Errors
    ///
    /// As [`Crossbar::new`], plus [`XbarError::BadPriorities`] if a
    /// fixed-priority vector does not have one entry per manager.
    ///
    /// # Example
    ///
    /// ```
    /// use axi_xbar::{AddressMap, ArbitrationPolicy, Crossbar};
    /// use axi_sim::{AxiBundle, ChannelPool};
    /// use axi4::{Addr, SubordinateId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut pool = ChannelPool::new();
    /// let mgrs: Vec<_> = (0..2).map(|_| AxiBundle::with_defaults(&mut pool)).collect();
    /// let subs = vec![AxiBundle::with_defaults(&mut pool)];
    /// let mut map = AddressMap::new();
    /// map.add(Addr::new(0), 0x1000, SubordinateId::new(0))?;
    /// let xbar = Crossbar::with_arbitration(
    ///     map,
    ///     mgrs,
    ///     subs,
    ///     ArbitrationPolicy::FixedPriority(vec![7, 1]),
    /// )?;
    /// assert_eq!(xbar.manager_count(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_arbitration(
        map: AddressMap,
        mgr_ports: Vec<AxiBundle>,
        sub_ports: Vec<AxiBundle>,
        policy: ArbitrationPolicy,
    ) -> Result<Self, XbarError> {
        if let ArbitrationPolicy::FixedPriority(ref prio) = policy {
            if prio.len() != mgr_ports.len() {
                return Err(XbarError::BadPriorities {
                    provided: prio.len(),
                    managers: mgr_ports.len(),
                });
            }
        }
        if map.subordinate_count() > sub_ports.len() {
            return Err(XbarError::TooFewSubordinatePorts {
                provided: sub_ports.len(),
                required: map.subordinate_count(),
            });
        }
        if mgr_ports.len() > 256 {
            return Err(XbarError::TooManyManagers {
                provided: mgr_ports.len(),
            });
        }
        let n_mgr = mgr_ports.len();
        let n_sub = sub_ports.len();
        assert!(
            n_mgr <= 64,
            "crossbar arbitration masks support at most 64 managers"
        );
        Ok(Self {
            map,
            mgr_ports,
            sub_ports,
            ar_arb: (0..n_sub).map(|_| RoundRobin::new(n_mgr.max(1))).collect(),
            aw_arb: (0..n_sub).map(|_| RoundRobin::new(n_mgr.max(1))).collect(),
            w_owner: vec![VecDeque::new(); n_sub],
            mgr_w_dst: vec![VecDeque::new(); n_mgr],
            err_reads: vec![VecDeque::new(); n_mgr],
            err_writes: vec![VecDeque::new(); n_mgr],
            stats: vec![ManagerStats::default(); n_mgr],
            interference: vec![vec![0; n_mgr]; n_mgr],
            last_ar_winner: vec![None; n_sub],
            last_aw_winner: vec![None; n_sub],
            read_outstanding: vec![vec![0; n_mgr]; n_sub],
            policy,
            w_stalls: vec![0; n_sub],
            req_scratch: vec![0; n_sub],
            name: format!("xbar{}x{}", n_mgr, n_sub),
        })
    }

    /// Picks a winner among the managers set in `requesting` (a bitmask
    /// over manager indices) per the arbitration policy, advancing the
    /// round-robin pointer only under the RR policy.
    fn pick_winner(&mut self, arb: Channel, s: usize, requesting: u64) -> Option<usize> {
        match &self.policy {
            ArbitrationPolicy::RoundRobin => {
                let rr = match arb {
                    Channel::Ar => &mut self.ar_arb[s],
                    Channel::Aw => &mut self.aw_arb[s],
                };
                rr.grant(|m| requesting & (1u64 << m) != 0)
            }
            ArbitrationPolicy::FixedPriority(prio) => {
                let mut best: Option<usize> = None;
                let mut rem = requesting;
                while rem != 0 {
                    let m = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    // Ties on priority go to the lowest manager index, as
                    // before (max_by_key kept the Reverse(m) minimum).
                    if best.is_none_or(|b| prio[m] > prio[b]) {
                        best = Some(m);
                    }
                }
                best
            }
        }
    }

    /// Per-manager grant/block/error statistics.
    pub fn manager_stats(&self, mgr: usize) -> ManagerStats {
        self.stats[mgr]
    }

    /// Cycles subordinate `sub`'s W channel was reserved by a writer that
    /// delivered no beat — the denial-of-service observable.
    pub fn w_stall_cycles(&self, sub: usize) -> u64 {
        self.w_stalls[sub]
    }

    /// Grant cycles where `victim` had a decodable request pending while
    /// `aggressor` held the grant — the per-manager interference
    /// attribution the paper's monitoring provides for budget and period
    /// selection (extending SafeSU-style inter-core tracking to
    /// heterogeneous managers).
    pub fn interference(&self, victim: usize, aggressor: usize) -> u64 {
        self.interference[victim][aggressor]
    }

    /// The full interference matrix, indexed `[victim][aggressor]`.
    pub fn interference_matrix(&self) -> &[Vec<u64>] {
        &self.interference
    }

    /// The address map in use.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Number of manager ports.
    pub fn manager_count(&self) -> usize {
        self.mgr_ports.len()
    }

    /// Number of subordinate ports.
    pub fn subordinate_count(&self) -> usize {
        self.sub_ports.len()
    }

    fn arbitrate_ar(&mut self, ctx: &mut TickCtx<'_>) {
        // Decode each manager's front AR once, bucketing requestors into
        // per-subordinate masks — one decode per manager per cycle instead
        // of one per manager-subordinate pair, and no allocation. Unmapped
        // addresses divert into the error engine on the same peek (one wire
        // pop per cycle, like every consumer).
        self.req_scratch.iter_mut().for_each(|m| *m = 0);
        let mut any = false;
        for m in 0..self.mgr_ports.len() {
            if let Some(ar) = ctx.pool.peek(self.mgr_ports[m].ar, ctx.cycle) {
                if let Some(sub) = self.map.decode(ar.addr) {
                    self.req_scratch[sub.index()] |= 1u64 << m;
                    any = true;
                } else {
                    let ar = ctx
                        .pool
                        .pop(self.mgr_ports[m].ar, ctx.cycle)
                        .expect("peeked beat present");
                    self.err_reads[m].push_back(ErrorRead {
                        id: ar.id,
                        beats_left: ar.len.beats(),
                    });
                    self.stats[m].decode_errors += 1;
                }
            }
        }
        if !any {
            return;
        }
        for s in 0..self.sub_ports.len() {
            let requesting = self.req_scratch[s];
            if requesting == 0 {
                continue;
            }
            let winner = if ctx.pool.can_push(self.sub_ports[s].ar, ctx.cycle) {
                self.pick_winner(Channel::Ar, s, requesting)
            } else {
                None
            };
            // Interference attribution: a waiting requestor charges the
            // cycle to this cycle's winner, or — when the subordinate's
            // request channel is saturated — to its most recent occupant.
            let aggressor = winner.or(self.last_ar_winner[s]);
            let mut rem = requesting;
            while rem != 0 {
                let m = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                if Some(m) != winner {
                    self.stats[m].blocked_cycles += 1;
                    if let Some(a) = aggressor {
                        if a != m {
                            self.interference[m][a] += 1;
                        }
                    }
                }
            }
            let Some(winner) = winner else { continue };
            self.last_ar_winner[s] = Some(winner);
            self.read_outstanding[s][winner] += 1;
            let ar = ctx
                .pool
                .pop(self.mgr_ports[winner].ar, ctx.cycle)
                .expect("granted beat present");
            let fwd = ar.with_id(encode_id(winner, self.mgr_ports.len(), ar.id));
            ctx.pool.push(self.sub_ports[s].ar, ctx.cycle, fwd);
            self.stats[winner].ar_granted += 1;
        }
    }

    fn arbitrate_aw(&mut self, ctx: &mut TickCtx<'_>) {
        self.req_scratch.iter_mut().for_each(|m| *m = 0);
        let mut any = false;
        for m in 0..self.mgr_ports.len() {
            if let Some(aw) = ctx.pool.peek(self.mgr_ports[m].aw, ctx.cycle) {
                if let Some(sub) = self.map.decode(aw.addr) {
                    self.req_scratch[sub.index()] |= 1u64 << m;
                    any = true;
                } else {
                    let aw = ctx
                        .pool
                        .pop(self.mgr_ports[m].aw, ctx.cycle)
                        .expect("peeked beat present");
                    self.mgr_w_dst[m].push_back(WriteDst::DecodeErr(aw.id));
                    self.stats[m].decode_errors += 1;
                }
            }
        }
        if !any {
            return;
        }
        for s in 0..self.sub_ports.len() {
            let requesting = self.req_scratch[s];
            if requesting == 0 {
                continue;
            }
            let winner = if ctx.pool.can_push(self.sub_ports[s].aw, ctx.cycle) {
                self.pick_winner(Channel::Aw, s, requesting)
            } else {
                None
            };
            let aggressor = winner.or(self.last_aw_winner[s]);
            let mut rem = requesting;
            while rem != 0 {
                let m = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                if Some(m) != winner {
                    self.stats[m].blocked_cycles += 1;
                    if let Some(a) = aggressor {
                        if a != m {
                            self.interference[m][a] += 1;
                        }
                    }
                }
            }
            let Some(winner) = winner else { continue };
            self.last_aw_winner[s] = Some(winner);
            let aw = ctx
                .pool
                .pop(self.mgr_ports[winner].aw, ctx.cycle)
                .expect("granted beat present");
            let fwd = aw.with_id(encode_id(winner, self.mgr_ports.len(), aw.id));
            ctx.pool.push(self.sub_ports[s].aw, ctx.cycle, fwd);
            self.w_owner[s].push_back(winner);
            self.mgr_w_dst[winner].push_back(WriteDst::Sub(s));
            self.stats[winner].aw_granted += 1;
        }
    }

    /// Moves write data along the reserved W channels: each manager's beats
    /// go to the destination of its oldest granted write, in AW order on
    /// both sides.
    fn route_w(&mut self, ctx: &mut TickCtx<'_>) {
        for m in 0..self.mgr_ports.len() {
            match self.mgr_w_dst[m].front().copied() {
                Some(WriteDst::Sub(s)) => {
                    // The W channel of `s` belongs to its oldest granted
                    // writer; only that manager may stream.
                    if self.w_owner[s].front() != Some(&m) {
                        continue;
                    }
                    if !ctx.pool.can_push(self.sub_ports[s].w, ctx.cycle) {
                        continue;
                    }
                    if let Some(w) = ctx.pool.pop(self.mgr_ports[m].w, ctx.cycle) {
                        // Writers queued behind the current owner wait for
                        // every one of its beats.
                        for &v in self.w_owner[s].iter().skip(1) {
                            if v != m {
                                self.interference[v][m] += 1;
                            }
                        }
                        ctx.pool.push(self.sub_ports[s].w, ctx.cycle, w);
                        if w.last {
                            self.w_owner[s].pop_front();
                            self.mgr_w_dst[m].pop_front();
                        }
                    } else {
                        // Reserved but idle: the owner is withholding data.
                        self.w_stalls[s] += 1;
                    }
                }
                Some(WriteDst::DecodeErr(id)) => {
                    if let Some(w) = ctx.pool.pop(self.mgr_ports[m].w, ctx.cycle) {
                        if w.last {
                            self.mgr_w_dst[m].pop_front();
                            self.err_writes[m].push_back(id);
                        }
                    }
                }
                None => {}
            }
        }
    }

    /// Routes read-data beats back to their managers by decoding the
    /// extended ID; subordinates are scanned from a rotating offset so no
    /// subordinate monopolises a manager's R channel.
    fn route_r(&mut self, ctx: &mut TickCtx<'_>) {
        let n_sub = self.sub_ports.len();
        for i in 0..n_sub {
            let s = (i + ctx.cycle as usize) % n_sub;
            let Some(r) = ctx.pool.peek(self.sub_ports[s].r, ctx.cycle) else {
                continue;
            };
            let (m, orig) = decode_id(r.id, self.mgr_ports.len());
            if m < self.mgr_ports.len() && ctx.pool.can_push(self.mgr_ports[m].r, ctx.cycle) {
                let r = ctx
                    .pool
                    .pop(self.sub_ports[s].r, ctx.cycle)
                    .expect("peeked beat present");
                // Service-level interference: while `m`'s data streams out
                // of `s`, every other manager with reads outstanding there
                // waits behind it.
                for v in 0..self.mgr_ports.len() {
                    if v != m && self.read_outstanding[s][v] > 0 {
                        self.interference[v][m] += 1;
                    }
                }
                if r.last {
                    self.read_outstanding[s][m] = self.read_outstanding[s][m].saturating_sub(1);
                }
                ctx.pool.push(
                    self.mgr_ports[m].r,
                    ctx.cycle,
                    RBeat::new(orig, r.data, r.resp, r.last),
                );
            }
        }
    }

    /// Routes write responses back to their managers, same scheme as
    /// [`Crossbar::route_r`].
    fn route_b(&mut self, ctx: &mut TickCtx<'_>) {
        let n_sub = self.sub_ports.len();
        for i in 0..n_sub {
            let s = (i + ctx.cycle as usize) % n_sub;
            let Some(b) = ctx.pool.peek(self.sub_ports[s].b, ctx.cycle) else {
                continue;
            };
            let (m, orig) = decode_id(b.id, self.mgr_ports.len());
            if m < self.mgr_ports.len() && ctx.pool.can_push(self.mgr_ports[m].b, ctx.cycle) {
                let b = ctx
                    .pool
                    .pop(self.sub_ports[s].b, ctx.cycle)
                    .expect("peeked beat present");
                ctx.pool
                    .push(self.mgr_ports[m].b, ctx.cycle, BBeat::new(orig, b.resp));
            }
        }
    }

    /// Emits `DECERR` responses for unmapped requests, filling R/B cycles
    /// the normal routing left idle.
    fn emit_error_responses(&mut self, ctx: &mut TickCtx<'_>) {
        for m in 0..self.mgr_ports.len() {
            if let Some(front) = self.err_reads[m].front_mut() {
                if ctx.pool.can_push(self.mgr_ports[m].r, ctx.cycle) {
                    front.beats_left -= 1;
                    let last = front.beats_left == 0;
                    let beat = RBeat::new(front.id, 0, Resp::DecErr, last);
                    ctx.pool.push(self.mgr_ports[m].r, ctx.cycle, beat);
                    if last {
                        self.err_reads[m].pop_front();
                    }
                }
            }
            if let Some(&id) = self.err_writes[m].front() {
                if ctx.pool.can_push(self.mgr_ports[m].b, ctx.cycle) {
                    ctx.pool
                        .push(self.mgr_ports[m].b, ctx.cycle, BBeat::new(id, Resp::DecErr));
                    self.err_writes[m].pop_front();
                }
            }
        }
    }
}

impl Component for Crossbar {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        self.arbitrate_ar(ctx);
        self.arbitrate_aw(ctx);
        self.route_w(ctx);
        self.route_r(ctx);
        self.route_b(ctx);
        self.emit_error_responses(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Vec<axi_sim::PortDecl> {
        // The crossbar is the subordinate side of every manager-facing port
        // and the manager side of every subordinate-facing port.
        self.mgr_ports
            .iter()
            .flat_map(|b| b.subordinate_ports())
            .chain(self.sub_ports.iter().flat_map(|b| b.manager_ports()))
            .collect()
    }

    fn next_event(&self, cycle: axi_sim::Cycle) -> Option<axi_sim::Cycle> {
        // Queued DECERR responses want to push now; everything else reacts
        // to beats on the wires.
        let errors_pending = self.err_reads.iter().any(|q| !q.is_empty())
            || self.err_writes.iter().any(|q| !q.is_empty());
        errors_pending.then_some(cycle)
    }

    fn telemetry(&self, sink: &mut axi_sim::TelemetrySink) {
        // Per manager port: grants won on each address channel, cycles
        // spent losing arbitration, decode errors taken. Zero rows stay
        // visible, documenting every port the crossbar serves.
        for (m, stats) in self.stats.iter().enumerate() {
            let prefix = format!("{}.m{m}", self.name);
            sink.counter(&format!("{prefix}.ar_grants"), stats.ar_granted);
            sink.counter(&format!("{prefix}.aw_grants"), stats.aw_granted);
            sink.counter(&format!("{prefix}.blocked_cycles"), stats.blocked_cycles);
            sink.counter(&format!("{prefix}.decode_errors"), stats.decode_errors);
        }
        for (s, stalls) in self.w_stalls.iter().enumerate() {
            sink.counter(&format!("{}.s{s}.w_stall_cycles", self.name), *stalls);
        }
    }

    fn on_fast_forward(&mut self, from: axi_sim::Cycle, to: axi_sim::Cycle) {
        // Each elided tick would have charged one reserved-but-idle stall
        // to every subordinate whose W channel is held by a writer with no
        // beat to stream (all wires are empty during a skip).
        for s in 0..self.sub_ports.len() {
            if let Some(&m) = self.w_owner[s].front() {
                if self.mgr_w_dst[m].front() == Some(&WriteDst::Sub(s)) {
                    self.w_stalls[s] += to - from;
                }
            }
        }
    }
}

impl fmt::Debug for Crossbar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Crossbar")
            .field("managers", &self.mgr_ports.len())
            .field("subordinates", &self.sub_ports.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_encode_decode_roundtrip() {
        for n_mgr in [1usize, 2, 7, 255] {
            for mgr in [0usize, 1, 6, 254] {
                if mgr >= n_mgr {
                    continue;
                }
                for raw in [0u32, 1, 0xff_ffff] {
                    let enc = encode_id(mgr, n_mgr, TxnId::new(raw));
                    assert_eq!(decode_id(enc, n_mgr), (mgr, TxnId::new(raw)));
                }
            }
        }
    }

    #[test]
    fn id_encoding_nests_for_hierarchies() {
        // cluster (3 managers) into system (2 managers): both layers
        // recoverable in reverse order.
        let orig = TxnId::new(0x1234);
        let l1 = encode_id(2, 3, orig);
        let l2 = encode_id(1, 2, l1);
        let (sys_mgr, back1) = decode_id(l2, 2);
        assert_eq!(sys_mgr, 1);
        let (cluster_mgr, back0) = decode_id(back1, 3);
        assert_eq!(cluster_mgr, 2);
        assert_eq!(back0, orig);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_id_panics() {
        let _ = encode_id(0, 256, TxnId::new(u32::MAX / 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_mgr_panics() {
        let _ = encode_id(256, 256, TxnId::new(0));
    }

    #[test]
    fn construction_checks_ports() {
        use axi_sim::ChannelPool;
        let mut pool = ChannelPool::new();
        let mut map = AddressMap::new();
        map.add(axi4::Addr::new(0), 0x1000, axi4::SubordinateId::new(1))
            .unwrap();
        let mgr = vec![AxiBundle::with_defaults(&mut pool)];
        let sub = vec![AxiBundle::with_defaults(&mut pool)];
        let err = Crossbar::new(map, mgr, sub).unwrap_err();
        assert!(matches!(err, XbarError::TooFewSubordinatePorts { .. }));
        assert!(err.to_string().contains("subordinate"));
    }
}
