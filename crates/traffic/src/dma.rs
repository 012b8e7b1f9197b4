//! The bandwidth-hungry DSA DMA engine model.

use std::collections::VecDeque;

use axi4::{Addr, ArBeat, AwBeat, BurstKind, BurstLen, BurstSize, TxnId, WBeat};
use axi_sim::{AxiBundle, Component, Cycle, TickCtx};

/// Configuration of a [`DmaModel`].
///
/// The paper's worst-case interference pattern: *"double-buffering
/// full-length data bursts of 256 beats between the system's LLC and the
/// DSA's local SPM"*, with several transactions kept in flight.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DmaConfig {
    /// First ping-pong region (the LLC window in the Cheshire testbench).
    pub region_a: (Addr, u64),
    /// Second ping-pong region (the DSA scratchpad).
    pub region_b: (Addr, u64),
    /// Beats per burst (256 = full-length AXI4 bursts).
    pub burst_beats: u16,
    /// Maximum read bursts kept in flight.
    pub outstanding: usize,
    /// Stop after this many transfers; `None` runs forever (pure
    /// interference source).
    pub total_transfers: Option<u64>,
    /// Transaction ID used for every burst.
    pub id: TxnId,
    /// First cycle the engine may issue.
    pub start_cycle: Cycle,
}

impl DmaConfig {
    /// The paper's contention generator: endless 256-beat double-buffering
    /// with eight reads in flight.
    pub fn worst_case(llc: (Addr, u64), spm: (Addr, u64)) -> Self {
        Self {
            region_a: llc,
            region_b: spm,
            burst_beats: 256,
            outstanding: 8,
            total_transfers: None,
            id: TxnId::new(1),
            start_cycle: 0,
        }
    }
}

#[derive(Debug)]
struct Transfer {
    id: TxnId,
    dst: Addr,
    expected_beats: u16,
    data: Vec<u64>,
}

#[derive(Debug)]
enum WriteState {
    IssueAw { aw: AwBeat, data: Vec<u64> },
    Stream { data: Vec<u64>, next: usize },
}

/// A double-buffering DMA engine: reads a full burst from one region,
/// then writes it to the other, alternating directions, keeping up to
/// [`DmaConfig::outstanding`] read bursts in flight.
///
/// This is the untrusted bandwidth hog of the evaluation — the manager the
/// REALM unit fragments and budgets.
#[derive(Debug)]
pub struct DmaModel {
    cfg: DmaConfig,
    port: AxiBundle,
    issued_reads: u64,
    /// IDs not currently bound to an in-flight read. Distinct IDs per slot
    /// keep per-ID ordering trivially satisfied even though consecutive
    /// transfers target different subordinates.
    free_ids: Vec<TxnId>,
    reads_in_flight: Vec<Transfer>,
    write_queue: VecDeque<Transfer>,
    write_state: Option<WriteState>,
    /// Whether the last tick's AW/W/AR push attempt hit a full wire. A full
    /// wire only drains via a consumer pop, and the kernel never skips a
    /// cycle with a pop, so a blocked engine can report no wake instead of
    /// retrying every cycle — the refinement that lets a budget-throttled
    /// DMA quiesce.
    aw_blocked: bool,
    w_blocked: bool,
    ar_blocked: bool,
    b_outstanding: u64,
    transfers_completed: u64,
    bytes_read: u64,
    bytes_written: u64,
    name: String,
}

impl DmaModel {
    /// Creates a DMA engine on `port`.
    ///
    /// # Panics
    ///
    /// Panics if either region is smaller than one burst or the burst size
    /// would cross a 4 KiB boundary from an aligned start (i.e. burst
    /// payload > 4 KiB).
    pub fn new(cfg: DmaConfig, port: AxiBundle) -> Self {
        let burst_bytes = u64::from(cfg.burst_beats) * BurstSize::bus64().bytes();
        assert!(burst_bytes <= 4096, "burst payload must fit a 4 KiB page");
        assert!(
            cfg.region_a.1 >= burst_bytes && cfg.region_b.1 >= burst_bytes,
            "regions must hold at least one burst"
        );
        Self {
            cfg,
            port,
            issued_reads: 0,
            free_ids: (0..cfg.outstanding as u32)
                .map(|slot| TxnId::new(cfg.id.raw() + slot))
                .collect(),
            reads_in_flight: Vec::new(),
            write_queue: VecDeque::new(),
            write_state: None,
            aw_blocked: false,
            w_blocked: false,
            ar_blocked: false,
            b_outstanding: 0,
            transfers_completed: 0,
            bytes_read: 0,
            bytes_written: 0,
            name: "dma".to_owned(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DmaConfig {
        &self.cfg
    }

    /// The manager-side AXI port.
    pub fn port(&self) -> AxiBundle {
        self.port
    }

    /// Fully completed transfers (read + write + response).
    pub fn transfers_completed(&self) -> u64 {
        self.transfers_completed
    }

    /// Bytes read from the source regions.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Bytes written to the destination regions.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// `true` once the configured number of transfers has fully drained.
    pub fn is_done(&self) -> bool {
        self.cfg
            .total_transfers
            .is_some_and(|total| self.transfers_completed >= total)
    }

    fn burst_bytes(&self) -> u64 {
        u64::from(self.cfg.burst_beats) * BurstSize::bus64().bytes()
    }

    /// Source/destination of the n-th transfer: even transfers move A→B,
    /// odd ones B→A, each sliding one burst forward inside its region.
    fn route(&self, n: u64) -> (Addr, Addr) {
        let bb = self.burst_bytes();
        let slot = |region: (Addr, u64), k: u64| {
            let slots = (region.1 / bb).max(1);
            region.0 + (k % slots) * bb
        };
        if n.is_multiple_of(2) {
            (
                slot(self.cfg.region_a, n / 2),
                slot(self.cfg.region_b, n / 2),
            )
        } else {
            (
                slot(self.cfg.region_b, n / 2),
                slot(self.cfg.region_a, n / 2),
            )
        }
    }

    fn more_reads_allowed(&self) -> bool {
        match self.cfg.total_transfers {
            Some(total) => self.issued_reads < total,
            None => true,
        }
    }
}

impl Component for DmaModel {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        // Recomputed below at each push attempt; an unattempted channel is
        // unblocked by definition (its gate is tracked by `next_event`).
        self.aw_blocked = false;
        self.w_blocked = false;
        self.ar_blocked = false;

        // Collect read data, demultiplexed by transaction ID.
        if let Some(r) = ctx.pool.pop(self.port.r, ctx.cycle) {
            if let Some(idx) = self.reads_in_flight.iter().position(|t| t.id == r.id) {
                self.reads_in_flight[idx].data.push(r.data);
                self.bytes_read += 8;
                if r.last {
                    let t = self.reads_in_flight.swap_remove(idx);
                    debug_assert_eq!(t.data.len(), t.expected_beats as usize);
                    self.free_ids.push(t.id);
                    self.write_queue.push_back(t);
                }
            }
        }

        // Issue the next read burst while the window allows.
        if ctx.cycle >= self.cfg.start_cycle
            && self.more_reads_allowed()
            && self.reads_in_flight.len() < self.cfg.outstanding
        {
            if ctx.pool.can_push(self.port.ar, ctx.cycle) {
                let (src, dst) = self.route(self.issued_reads);
                let id = self.free_ids.pop().expect("in-flight below outstanding");
                let ar = ArBeat::new(
                    id,
                    src,
                    BurstLen::new(self.cfg.burst_beats).expect("validated in new"),
                    BurstSize::bus64(),
                    BurstKind::Incr,
                );
                debug_assert!(ar.validate().is_ok(), "DMA burst must be legal: {ar:?}");
                ctx.pool.push(self.port.ar, ctx.cycle, ar);
                self.reads_in_flight.push(Transfer {
                    id,
                    dst,
                    expected_beats: self.cfg.burst_beats,
                    data: Vec::with_capacity(self.cfg.burst_beats as usize),
                });
                self.issued_reads += 1;
            } else {
                self.ar_blocked = true;
            }
        }

        // Write engine: one write burst streaming at a time.
        if self.write_state.is_none() {
            if let Some(t) = self.write_queue.pop_front() {
                let aw = AwBeat::new(
                    t.id,
                    t.dst,
                    BurstLen::new(t.expected_beats).expect("validated in new"),
                    BurstSize::bus64(),
                    BurstKind::Incr,
                );
                self.write_state = Some(WriteState::IssueAw { aw, data: t.data });
            }
        }
        self.write_state = match self.write_state.take() {
            Some(WriteState::IssueAw { aw, data }) => {
                if ctx.pool.can_push(self.port.aw, ctx.cycle) {
                    ctx.pool.push(self.port.aw, ctx.cycle, aw);
                    Some(WriteState::Stream { data, next: 0 })
                } else {
                    self.aw_blocked = true;
                    Some(WriteState::IssueAw { aw, data })
                }
            }
            Some(WriteState::Stream { data, next }) => {
                if ctx.pool.can_push(self.port.w, ctx.cycle) {
                    let last = next + 1 == data.len();
                    ctx.pool
                        .push(self.port.w, ctx.cycle, WBeat::full(data[next], last));
                    self.bytes_written += 8;
                    if last {
                        self.b_outstanding += 1;
                        None
                    } else {
                        Some(WriteState::Stream {
                            data,
                            next: next + 1,
                        })
                    }
                } else {
                    self.w_blocked = true;
                    Some(WriteState::Stream { data, next })
                }
            }
            None => None,
        };

        // Drain write responses.
        if self.b_outstanding > 0 && ctx.pool.pop(self.port.b, ctx.cycle).is_some() {
            self.b_outstanding -= 1;
            self.transfers_completed += 1;
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Vec<axi_sim::PortDecl> {
        self.port.manager_ports()
    }

    fn next_event(&self, cycle: Cycle) -> Option<Cycle> {
        // The write engine wants to push — but if its last attempt hit a
        // full wire, only a consumer pop can change that, and a cycle with
        // a pop is never skipped, so a blocked engine need not spin.
        match &self.write_state {
            Some(WriteState::IssueAw { .. }) if !self.aw_blocked => return Some(cycle),
            Some(WriteState::Stream { .. }) if !self.w_blocked => return Some(cycle),
            Some(_) => {}
            None => {
                if !self.write_queue.is_empty() {
                    // Promoting a queued transfer into the engine is itself
                    // a state change.
                    return Some(cycle);
                }
            }
        }
        // An issue slot is open and more reads are wanted; before the start
        // window the engine sleeps until `start_cycle`, and behind a full
        // AR wire it sleeps until the pop that drains it.
        if self.more_reads_allowed()
            && self.reads_in_flight.len() < self.cfg.outstanding
            && !self.ar_blocked
        {
            return Some(self.cfg.start_cycle.max(cycle));
        }
        // Blocked on wire capacity or R/B beats (or fully drained): purely
        // reactive.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi_mem::{MemoryConfig, MemoryModel};
    use axi_sim::{BundleCapacity, Sim};

    const A: Addr = Addr::new(0x8000_0000);
    const B: Addr = Addr::new(0x1000_0000);

    /// Direct DMA→memory hookup where one memory covers both regions.
    fn run(cfg: DmaConfig, cycles: u64) -> (Sim, axi_sim::ComponentId, axi_sim::ComponentId) {
        let mut sim = Sim::new();
        let port = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));
        let dma = sim.add(DmaModel::new(cfg, port));
        let mem = sim.add(MemoryModel::new(
            MemoryConfig::spm(Addr::new(0), 1 << 32),
            port,
        ));
        sim.run(cycles);
        (sim, dma, mem)
    }

    fn small_cfg(transfers: u64) -> DmaConfig {
        DmaConfig {
            region_a: (A, 64 * 1024),
            region_b: (B, 64 * 1024),
            burst_beats: 16,
            outstanding: 2,
            total_transfers: Some(transfers),
            id: TxnId::new(1),
            start_cycle: 0,
        }
    }

    #[test]
    fn completes_configured_transfers() {
        let (sim, dma, _) = run(small_cfg(4), 2000);
        let d = sim.component::<DmaModel>(dma).unwrap();
        assert!(d.is_done());
        assert_eq!(d.transfers_completed(), 4);
        assert_eq!(d.bytes_read(), 4 * 16 * 8);
        assert_eq!(d.bytes_written(), 4 * 16 * 8);
    }

    #[test]
    fn copies_data_between_regions() {
        let mut sim = Sim::new();
        let port = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));
        let cfg = small_cfg(1); // single transfer A→B
        let dma = sim.add(DmaModel::new(cfg, port));
        let mem = sim.add(MemoryModel::new(
            MemoryConfig::spm(Addr::new(0), 1 << 32),
            port,
        ));
        // Preload the source burst with a recognisable pattern.
        {
            let m = sim.component_mut::<MemoryModel>(mem).unwrap();
            for i in 0..16u64 {
                m.storage_mut().write_word(A + i * 8, 0x1000 + i, 0xff);
            }
        }
        assert!(sim.run_until(2000, |s| s.component::<DmaModel>(dma).unwrap().is_done()));
        let m = sim.component::<MemoryModel>(mem).unwrap();
        for i in 0..16u64 {
            assert_eq!(m.storage().read_word(B + i * 8), 0x1000 + i, "word {i}");
        }
        let _ = sim.component::<DmaModel>(dma).unwrap().config();
    }

    #[test]
    fn endless_mode_keeps_issuing() {
        let mut cfg = small_cfg(0);
        cfg.total_transfers = None;
        let (sim, dma, _) = run(cfg, 3000);
        let d = sim.component::<DmaModel>(dma).unwrap();
        assert!(!d.is_done());
        assert!(d.transfers_completed() > 10);
    }

    #[test]
    fn start_cycle_delays_traffic() {
        let mut cfg = small_cfg(1);
        cfg.start_cycle = 500;
        let (sim, dma, _) = run(cfg, 400);
        assert_eq!(sim.component::<DmaModel>(dma).unwrap().bytes_read(), 0);
    }

    #[test]
    fn outstanding_bounds_reads_in_flight() {
        // With outstanding=1 the second read only issues after the first
        // completes; with 2 they overlap and finish sooner.
        let time_for = |outstanding: usize| {
            let mut cfg = small_cfg(6);
            cfg.outstanding = outstanding;
            let mut sim = Sim::new();
            let port = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));
            let dma = sim.add(DmaModel::new(cfg, port));
            sim.add(MemoryModel::new(
                MemoryConfig::spm(Addr::new(0), 1 << 32),
                port,
            ));
            assert!(sim.run_until(10_000, |s| s.component::<DmaModel>(dma).unwrap().is_done()));
            sim.cycle()
        };
        assert!(time_for(2) < time_for(1));
    }

    #[test]
    #[should_panic(expected = "regions must hold")]
    fn tiny_region_panics() {
        let mut sim = Sim::new();
        let port = AxiBundle::with_defaults(sim.pool_mut());
        let mut bad = small_cfg(1);
        bad.region_a = (A, 16);
        let _ = DmaModel::new(bad, port);
    }
}
