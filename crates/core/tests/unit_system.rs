//! System tests of the REALM unit: functional transparency, regulation,
//! reconfiguration, and DoS mitigation.

use axi4::{
    Addr, ArBeat, AwBeat, BurstKind, BurstLen, BurstSize, Resp, SubordinateId, TxnId, WriteTxn,
};
use axi_mem::{MemoryConfig, MemoryModel, MmioSubordinate};
use axi_realm::{
    offsets, BusGuard, DesignConfig, RealmRegFile, RealmUnit, RegionConfig, RuntimeConfig,
};
use axi_sim::{AxiBundle, BundleCapacity, ComponentId, Sim};
use axi_traffic::{Op, ScriptedManager, StallPlan, StallingManager};
use axi_xbar::{AddressMap, Crossbar};

const MEM_BASE: Addr = Addr::new(0x8000_0000);
const MEM_SIZE: u64 = 1 << 20;

fn read_op(id: u32, addr: u64, beats: u16) -> Op {
    Op::Read(ArBeat::new(
        TxnId::new(id),
        Addr::new(addr),
        BurstLen::new(beats).unwrap(),
        BurstSize::bus64(),
        BurstKind::Incr,
    ))
}

fn write_op(id: u32, addr: u64, words: &[u64]) -> Op {
    let aw = AwBeat::new(
        TxnId::new(id),
        Addr::new(addr),
        BurstLen::new(words.len() as u16).unwrap(),
        BurstSize::bus64(),
        BurstKind::Incr,
    );
    Op::Write(WriteTxn::from_words(aw, words.iter().copied()).unwrap())
}

/// manager → REALM → memory, no crossbar.
struct DirectRig {
    sim: Sim,
    mgr: ComponentId,
    realm: ComponentId,
    mem: ComponentId,
}

fn direct_rig(runtime: RuntimeConfig, script: Vec<Op>) -> DirectRig {
    let mut sim = Sim::new();
    let upstream = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));
    let downstream = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));
    let mgr = sim.add(ScriptedManager::new(upstream, script));
    let realm = sim.add(RealmUnit::new(
        DesignConfig::cheshire(),
        runtime,
        upstream,
        downstream,
    ));
    let mem = sim.add(MemoryModel::new(
        MemoryConfig::spm(MEM_BASE, MEM_SIZE),
        downstream,
    ));
    DirectRig {
        sim,
        mgr,
        realm,
        mem,
    }
}

fn run_to_done(rig: &mut DirectRig, max: u64) {
    let mgr = rig.mgr;
    assert!(
        rig.sim.run_until(max, |s| s
            .component::<ScriptedManager>(mgr)
            .unwrap()
            .is_done()),
        "script did not finish in {max} cycles"
    );
}

fn regulated(frag_len: u16, budget: u64, period: u64) -> RuntimeConfig {
    let mut rt = RuntimeConfig::open(2);
    rt.frag_len = frag_len;
    rt.regions[0] = RegionConfig {
        base: MEM_BASE,
        size: MEM_SIZE,
        budget_max: budget,
        period,
    };
    rt
}

#[test]
fn functional_transparency_across_fragmentations() {
    for frag in [1u16, 2, 7, 16, 64, 256] {
        let words: Vec<u64> = (0..64).map(|i| 0xA000 + i).collect();
        let script = vec![
            write_op(1, MEM_BASE.raw(), &words),
            read_op(2, MEM_BASE.raw(), 64),
        ];
        let mut rig = direct_rig(regulated(frag, 0, 0), script);
        run_to_done(&mut rig, 20_000);
        let mgr = rig.sim.component::<ScriptedManager>(rig.mgr).unwrap();
        assert_eq!(mgr.completions().len(), 2, "frag={frag}");
        assert_eq!(mgr.completions()[0].resp, Resp::Okay, "frag={frag}");
        assert_eq!(mgr.completions()[1].data, words, "frag={frag}");
    }
}

#[test]
fn fragments_visible_downstream() {
    // A 64-beat read at granularity 8 must reach the memory as 8 bursts.
    let script = vec![read_op(1, MEM_BASE.raw(), 64)];
    let mut rig = direct_rig(regulated(8, 0, 0), script);
    run_to_done(&mut rig, 10_000);
    let mem = rig.sim.component::<MemoryModel>(rig.mem).unwrap();
    assert_eq!(mem.reads_served(), 8);
    let realm = rig.sim.component::<RealmUnit>(rig.realm).unwrap();
    assert_eq!(realm.stats().fragments_emitted, 8);
    assert_eq!(realm.stats().txns_accepted, 1);
}

#[test]
fn budget_depletion_isolates_until_period() {
    // Budget: 64 bytes (8 beats) per 400-cycle period. Three 8-beat reads:
    // the first spends the whole budget; the rest wait for replenishment.
    let script = vec![
        read_op(1, MEM_BASE.raw(), 8),
        read_op(2, MEM_BASE.raw() + 0x40, 8),
        read_op(3, MEM_BASE.raw() + 0x80, 8),
    ];
    let mut rig = direct_rig(regulated(256, 64, 400), script);
    run_to_done(&mut rig, 10_000);
    let mgr = rig.sim.component::<ScriptedManager>(rig.mgr).unwrap();
    let finish: Vec<u64> = mgr.completions().iter().map(|c| c.finished).collect();
    assert!(
        finish[0] < 400,
        "first read inside first period: {finish:?}"
    );
    assert!(
        finish[1] >= 400 && finish[1] < 800,
        "second read must wait for period 2: {finish:?}"
    );
    assert!(finish[2] >= 800, "third read in period 3: {finish:?}");
    let realm = rig.sim.component::<RealmUnit>(rig.realm).unwrap();
    assert!(realm.stats().isolated_cycles > 500);
}

#[test]
fn unregulated_region_never_blocks() {
    let script = (0..10)
        .map(|i| read_op(i, MEM_BASE.raw() + u64::from(i) * 0x100, 16))
        .collect();
    let mut rig = direct_rig(regulated(256, 0, 0), script);
    run_to_done(&mut rig, 10_000);
    let realm = rig.sim.component::<RealmUnit>(rig.realm).unwrap();
    assert_eq!(realm.stats().isolated_cycles, 0);
    assert_eq!(realm.monitor().regions()[0].stats.bytes_total, 10 * 16 * 8);
}

#[test]
fn bandwidth_bounded_by_budget_over_periods() {
    // 80 bytes per 100-cycle period = at most 0.8 bytes/cycle sustained.
    // Budgets are spent per fragment, so at frag_len 1 the overshoot is at
    // most one 8-byte beat per period.
    let script = (0..40)
        .map(|i| read_op(i, MEM_BASE.raw() + u64::from(i) * 0x100, 8))
        .collect();
    let mut rig = direct_rig(regulated(1, 80, 100), script);
    run_to_done(&mut rig, 100_000);
    let cycles = rig.sim.cycle();
    let bytes = 40 * 8 * 8;
    let bw = bytes as f64 / cycles as f64;
    assert!(
        bw <= 0.85,
        "sustained bandwidth {bw:.2} B/cycle exceeds the 0.8 budget rate"
    );
    assert!(
        bw > 0.6,
        "regulation should not collapse throughput: {bw:.2}"
    );
}

#[test]
fn latency_and_byte_counters_track() {
    let script = vec![
        write_op(1, MEM_BASE.raw(), &[1, 2, 3, 4]),
        read_op(2, MEM_BASE.raw(), 4),
    ];
    let mut rig = direct_rig(regulated(256, 0, 0), script);
    run_to_done(&mut rig, 10_000);
    let realm = rig.sim.component::<RealmUnit>(rig.realm).unwrap();
    let stats = realm.monitor().regions()[0].stats;
    assert_eq!(stats.bytes_total, 64, "32 written + 32 read");
    assert_eq!(stats.txn_count, 2);
    assert!(stats.latency.max() > 0);
    assert_eq!(stats.latency.count(), 2);
}

#[test]
fn bypass_mode_is_transparent() {
    let mut rt = regulated(1, 0, 0);
    rt.enabled = false;
    let words: Vec<u64> = (0..16).collect();
    let script = vec![
        write_op(1, MEM_BASE.raw(), &words),
        read_op(2, MEM_BASE.raw(), 16),
    ];
    let mut rig = direct_rig(rt, script);
    run_to_done(&mut rig, 5_000);
    let mgr = rig.sim.component::<ScriptedManager>(rig.mgr).unwrap();
    assert_eq!(mgr.completions()[1].data, words);
    let realm = rig.sim.component::<RealmUnit>(rig.realm).unwrap();
    assert_eq!(realm.stats().txns_accepted, 0, "bypass does no bookkeeping");
    // Memory saw unfragmented bursts.
    let mem = rig.sim.component::<MemoryModel>(rig.mem).unwrap();
    assert_eq!(mem.reads_served(), 1);
}

#[test]
fn intrusive_reconfig_waits_for_drain() {
    let script = vec![
        read_op(1, MEM_BASE.raw(), 32),
        read_op(2, MEM_BASE.raw(), 32),
    ];
    let mut rig = direct_rig(regulated(256, 0, 0), script);
    // Change frag_len through the shared registers mid-flight.
    rig.sim.run(3);
    let regs = rig.sim.component::<RealmUnit>(rig.realm).unwrap().regs();
    regs.borrow_mut().runtime.frag_len = 4;
    run_to_done(&mut rig, 10_000);
    let realm = rig.sim.component::<RealmUnit>(rig.realm).unwrap();
    assert_eq!(realm.active_config().frag_len, 4, "applied after drain");
    let mem = rig.sim.component::<MemoryModel>(rig.mem).unwrap();
    // First read unfragmented (1 burst), second fragmented (8 bursts) —
    // unless the first had already drained before the write landed.
    assert!(
        mem.reads_served() == 9 || mem.reads_served() == 16,
        "reads_served = {}",
        mem.reads_served()
    );
}

#[test]
fn user_isolation_blocks_and_releases() {
    let script = vec![read_op(1, MEM_BASE.raw(), 4)];
    let mut rig = direct_rig(regulated(256, 0, 0), script);
    // Request isolation before any traffic.
    let regs = rig.sim.component::<RealmUnit>(rig.realm).unwrap().regs();
    regs.borrow_mut().runtime.isolate_request = true;
    rig.sim.run(200);
    let mgr = rig.sim.component::<ScriptedManager>(rig.mgr).unwrap();
    assert!(
        mgr.completions().is_empty(),
        "isolated unit accepts nothing"
    );
    let realm = rig.sim.component::<RealmUnit>(rig.realm).unwrap();
    assert!(realm.is_isolated());
    assert!(realm.is_drained());
    // Release.
    regs.borrow_mut().runtime.isolate_request = false;
    run_to_done(&mut rig, 1000);
}

/// The headline DoS ablation: behind a crossbar, a stalling writer blocks a
/// victim (proved in the xbar tests) — but with a REALM unit in front of
/// the staller, the write buffer withholds the AW until data exists, so the
/// victim proceeds unharmed.
#[test]
fn write_buffer_defuses_stalling_dos() {
    let mut sim = Sim::new();
    // Staller behind a REALM unit; victim direct.
    let staller_up = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));
    let staller_down = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));
    let victim_port = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));
    let mem_port = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));

    sim.add(StallingManager::new(
        StallPlan::forever(MEM_BASE),
        staller_up,
    ));
    sim.add(RealmUnit::new(
        DesignConfig::cheshire(),
        regulated(16, 0, 0),
        staller_up,
        staller_down,
    ));
    let victim = sim.add(ScriptedManager::new(
        victim_port,
        vec![Op::Wait(20), write_op(1, MEM_BASE.raw() + 0x100, &[42])],
    ));
    let mut map = AddressMap::new();
    map.add(MEM_BASE, MEM_SIZE, SubordinateId::new(0)).unwrap();
    let xbar =
        sim.add(Crossbar::new(map, vec![staller_down, victim_port], vec![mem_port]).unwrap());
    sim.add(MemoryModel::new(
        MemoryConfig::spm(MEM_BASE, MEM_SIZE),
        mem_port,
    ));

    assert!(
        sim.run_until(5_000, |s| s
            .component::<ScriptedManager>(victim)
            .unwrap()
            .is_done()),
        "victim must complete despite the stalling writer"
    );
    let v = sim.component::<ScriptedManager>(victim).unwrap();
    assert_eq!(v.completions()[0].resp, Resp::Okay);
    // And the crossbar's W channel never sat reserved-idle for long.
    let stalls = sim.component::<Crossbar>(xbar).unwrap().w_stall_cycles(0);
    assert!(stalls < 50, "w_stall_cycles = {stalls}");
}

/// Registers are reachable end-to-end: a manager programs the unit through
/// the bus-guarded register file over AXI.
#[test]
fn mmio_configuration_path_end_to_end() {
    let mut sim = Sim::new();
    let traffic_up = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));
    let traffic_down = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));
    let cfg_port = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));

    let realm = RealmUnit::new(
        DesignConfig::cheshire(),
        regulated(256, 0, 0),
        traffic_up,
        traffic_down,
    );
    let regs = realm.regs();
    let realm_id = sim.add(realm);
    sim.add(MemoryModel::new(
        MemoryConfig::spm(MEM_BASE, MEM_SIZE),
        traffic_down,
    ));
    let guard = BusGuard::new(RealmRegFile::new(vec![regs]));
    const CFG_BASE: u64 = 0x0200_0000;
    sim.add(MmioSubordinate::new(
        guard,
        Addr::new(CFG_BASE),
        0x1_0000,
        cfg_port,
    ));

    // The configuring manager claims the guard, sets frag_len=2, reads the
    // status register back.
    let frag_off = CFG_BASE + offsets::unit(0) + offsets::FRAG_LEN;
    let script = vec![
        write_op(5, CFG_BASE, &[0]), // claim guard (offset 0)
        write_op(5, frag_off, &[2]), // frag_len = 2
        read_op(5, frag_off, 1),     // read back
    ];
    let cfg_mgr = sim.add(ScriptedManager::new(cfg_port, script));
    assert!(sim.run_until(5_000, |s| s
        .component::<ScriptedManager>(cfg_mgr)
        .unwrap()
        .is_done()));
    let m = sim.component::<ScriptedManager>(cfg_mgr).unwrap();
    assert!(m.completions().iter().all(|c| c.resp == Resp::Okay));
    assert_eq!(m.completions()[2].data, [2]);

    // The unit adopted the new fragmentation after drain.
    sim.run(5);
    assert_eq!(
        sim.component::<RealmUnit>(realm_id)
            .unwrap()
            .active_config()
            .frag_len,
        2
    );
}

/// Without claiming the guard, configuration writes fail with SLVERR.
#[test]
fn unclaimed_guard_rejects_configuration() {
    let mut sim = Sim::new();
    let cfg_port = AxiBundle::new(sim.pool_mut(), BundleCapacity::uniform(4));
    let up = AxiBundle::with_defaults(sim.pool_mut());
    let down = AxiBundle::with_defaults(sim.pool_mut());
    let realm = RealmUnit::new(DesignConfig::cheshire(), regulated(256, 0, 0), up, down);
    let guard = BusGuard::new(RealmRegFile::new(vec![realm.regs()]));
    sim.add(realm);
    const CFG_BASE: u64 = 0x0200_0000;
    sim.add(MmioSubordinate::new(
        guard,
        Addr::new(CFG_BASE),
        0x1_0000,
        cfg_port,
    ));
    let frag_off = CFG_BASE + offsets::unit(0) + offsets::FRAG_LEN;
    let mgr = sim.add(ScriptedManager::new(
        cfg_port,
        vec![write_op(5, frag_off, &[2])],
    ));
    assert!(sim.run_until(2_000, |s| s
        .component::<ScriptedManager>(mgr)
        .unwrap()
        .is_done()));
    assert_eq!(
        sim.component::<ScriptedManager>(mgr).unwrap().completions()[0].resp,
        Resp::SlvErr
    );
}

/// The statistics-clear command zeroes every counter while budgets, periods,
/// and in-flight traffic are untouched.
#[test]
fn clear_stats_command() {
    let script = vec![
        read_op(1, MEM_BASE.raw(), 4),
        Op::Wait(300),
        read_op(2, MEM_BASE.raw() + 0x40, 4),
    ];
    let mut rig = direct_rig(regulated(256, 0, 0), script);
    // Let the first read complete (the second is still waiting), then clear.
    rig.sim.run(100);
    let regs = rig.sim.component::<RealmUnit>(rig.realm).unwrap().regs();
    assert!(
        rig.sim
            .component::<RealmUnit>(rig.realm)
            .unwrap()
            .monitor()
            .regions()[0]
            .stats
            .bytes_total
            > 0
    );
    regs.borrow_mut().clear_stats = true;
    rig.sim.run(2);
    let unit = rig.sim.component::<RealmUnit>(rig.realm).unwrap();
    assert_eq!(unit.monitor().regions()[0].stats.bytes_total, 0);
    assert_eq!(unit.stats().txns_accepted, 0);
    // Traffic continues and counts from zero.
    run_to_done(&mut rig, 10_000);
    let unit = rig.sim.component::<RealmUnit>(rig.realm).unwrap();
    assert_eq!(unit.monitor().regions()[0].stats.bytes_total, 32);
    assert_eq!(unit.monitor().regions()[0].stats.txn_count, 1);
}

/// Regression guard for the documented kernel overhead (EXPERIMENTS.md D1):
/// the REALM unit adds exactly one wire hop per direction — two cycles
/// round trip — relative to a direct connection. The paper's RTL adds one.
#[test]
fn unit_adds_exactly_two_cycles_round_trip() {
    let read_latency = |through_realm: bool| -> u64 {
        let mut sim = Sim::new();
        let cap = BundleCapacity::uniform(4);
        let up = AxiBundle::new(sim.pool_mut(), cap);
        let mem_port = if through_realm {
            let down = AxiBundle::new(sim.pool_mut(), cap);
            sim.add(RealmUnit::new(
                DesignConfig::cheshire(),
                RuntimeConfig::open(2),
                up,
                down,
            ));
            down
        } else {
            up
        };
        let mgr = sim.add(ScriptedManager::new(
            up,
            vec![read_op(1, MEM_BASE.raw(), 1)],
        ));
        sim.add(MemoryModel::new(
            MemoryConfig::spm(MEM_BASE, MEM_SIZE),
            mem_port,
        ));
        assert!(sim.run_until(1_000, |s| s
            .component::<ScriptedManager>(mgr)
            .unwrap()
            .is_done()));
        sim.component::<ScriptedManager>(mgr).unwrap().completions()[0].latency()
    };
    let direct = read_latency(false);
    let regulated = read_latency(true);
    assert_eq!(
        regulated,
        direct + 2,
        "one extra registered hop per direction"
    );
}

#[test]
fn throttling_reduces_outstanding_before_depletion() {
    // Large burst, throttle on, budget half-spent: emission slows down but
    // the run completes.
    let mut rt = regulated(1, 2048, 10_000);
    rt.throttle = true;
    let script = vec![read_op(1, MEM_BASE.raw(), 128)];
    let mut rig = direct_rig(rt, script);
    run_to_done(&mut rig, 50_000);
    let realm = rig.sim.component::<RealmUnit>(rig.realm).unwrap();
    assert_eq!(realm.monitor().regions()[0].stats.bytes_total, 1024);
}
