//! The skipping kernel's correctness contract, checked end to end:
//! `Sim::run(n)` (which may jump over idle stretches) must leave the
//! system in exactly the state that `n` explicit `Sim::step()` calls do —
//! same component states, same beat-level traces, same final cycle. Only
//! the executed-tick/skipped-cycle split may differ.

use axi4::{
    Addr, ArBeat, AwBeat, BBeat, BurstKind, BurstLen, BurstSize, RBeat, SubordinateId, TxnId,
    WBeat, WriteTxn,
};
use axi_conformance::ProtocolMonitor;
use axi_mem::{MemoryConfig, MemoryModel};
use axi_realm::{DesignConfig, RealmUnit, RegionConfig, RuntimeConfig};
use axi_sim::{AxiBundle, BundleCapacity, Component, ComponentId, KernelMode, Sim};
use axi_traffic::{FuzzSpec, Op, ScriptedManager};
use axi_xbar::{AddressMap, Crossbar};
use cheshire_soc::{Testbench, TestbenchConfig};
use proptest::prelude::*;

const MEM_BASE: Addr = Addr::new(0x8000_0000);
const MEM_SIZE: u64 = 0x1_0000;

/// A manager → REALM unit → memory rig with pool taps on the upstream
/// port: small enough to step cycle by cycle, rich enough to exercise
/// fragmentation, budgets, periods, isolation, and idle stretches.
struct Rig {
    sim: Sim,
    mgr: ComponentId,
    realm: ComponentId,
    upstream: AxiBundle,
}

fn build_rig(script: Vec<Op>, frag_len: u16, budget: u64, period: u64) -> Rig {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(4);
    let upstream = AxiBundle::new(sim.pool_mut(), cap);
    let downstream = AxiBundle::new(sim.pool_mut(), cap);

    let mut rt = RuntimeConfig::open(2);
    rt.frag_len = frag_len;
    rt.regions[0] = RegionConfig {
        base: MEM_BASE,
        size: MEM_SIZE,
        budget_max: budget,
        period,
    };

    let mgr = sim.add(ScriptedManager::new(upstream, script));
    let realm = sim.add(RealmUnit::new(
        DesignConfig::cheshire(),
        rt,
        upstream,
        downstream,
    ));
    sim.add(MemoryModel::new(
        MemoryConfig::spm(MEM_BASE, MEM_SIZE),
        downstream,
    ));
    let pool = sim.pool_mut();
    pool.enable_tap(upstream.aw);
    pool.enable_tap(upstream.w);
    pool.enable_tap(upstream.b);
    pool.enable_tap(upstream.ar);
    pool.enable_tap(upstream.r);
    Rig {
        sim,
        mgr,
        realm,
        upstream,
    }
}

/// Every `(push cycle, beat)` the upstream port carried, per channel in
/// AW/W/B/AR/R order — drained from the pool taps, so nothing is capped
/// or deduplicated.
fn upstream_beats(rig: &mut Rig) -> [String; 5] {
    fn drain<T: axi_sim::Channel + std::fmt::Debug>(
        pool: &mut axi_sim::ChannelPool,
        id: axi_sim::WireId<T>,
    ) -> String {
        let mut out = Vec::new();
        pool.drain_tap(id, &mut out);
        format!("{out:?}")
    }
    let up = rig.upstream;
    let pool = rig.sim.pool_mut();
    [
        drain(pool, up.aw),
        drain(pool, up.w),
        drain(pool, up.b),
        drain(pool, up.ar),
        drain(pool, up.r),
    ]
}

/// Everything observable about a finished rig, in comparable form. Drains
/// the upstream taps, so call it once per run.
fn observe(rig: &mut Rig) -> (u64, String, String, String, [String; 5]) {
    let beats = upstream_beats(rig);
    let mgr = rig.sim.component::<ScriptedManager>(rig.mgr).expect("mgr");
    let realm = rig.sim.component::<RealmUnit>(rig.realm).expect("realm");
    (
        rig.sim.cycle(),
        format!("{:?}", mgr.completions()),
        format!("{:?}", realm.stats()),
        format!("{:?}", realm.monitor().regions()),
        beats,
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..8, 0u64..64, 1u16..=16, 1u64..2_000).prop_map(|(kind, slot, beats, wait)| {
        let addr = MEM_BASE + slot * 256;
        let len = BurstLen::new(beats).expect("in range");
        match kind {
            0..=2 => Op::Read(ArBeat::new(
                TxnId::new(0),
                addr,
                len,
                BurstSize::bus64(),
                BurstKind::Incr,
            )),
            3..=5 => {
                let aw = AwBeat::new(
                    TxnId::new(0),
                    addr,
                    len,
                    BurstSize::bus64(),
                    BurstKind::Incr,
                );
                Op::Write(WriteTxn::from_words(aw, (0..beats).map(u64::from)).expect("legal burst"))
            }
            _ => Op::Wait(wait),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random scripts (with idle gaps) and random regulation settings,
    /// a fast-forwarded `run(n)` is indistinguishable from `n` steps.
    #[test]
    fn run_with_fast_forward_equals_stepping(
        script in prop::collection::vec(arb_op(), 1..10),
        frag_len in prop::sample::select(vec![1u16, 4, 16, 256]),
        budget in prop::sample::select(vec![0u64, 256, 4096]),
        period in prop::sample::select(vec![0u64, 300, 1024]),
        cycles in 200u64..4_000,
    ) {
        let mut fast = build_rig(script.clone(), frag_len, budget, period);
        let mut slow = build_rig(script, frag_len, budget, period);

        fast.sim.run(cycles);
        for _ in 0..cycles {
            slow.sim.step();
        }

        let a = observe(&mut fast);
        let b = observe(&mut slow);
        prop_assert_eq!(a.0, b.0, "final cycle");
        prop_assert_eq!(&a.1, &b.1, "manager completions");
        prop_assert_eq!(&a.2, &b.2, "realm stats");
        prop_assert_eq!(&a.3, &b.3, "monitor regions");
        prop_assert_eq!(&a.4, &b.4, "beat trace");

        // The kernel's accounting must cover every simulated cycle exactly.
        let fs = fast.sim.kernel_stats();
        prop_assert_eq!(fs.cycles_total(), cycles, "executed + skipped");
        let ss = slow.sim.kernel_stats();
        prop_assert_eq!(ss.ticks_executed, cycles);
        prop_assert_eq!(ss.cycles_skipped, 0);
    }
}

/// A wait-heavy script must actually trigger fast-forwarding — otherwise
/// the equivalence property above is vacuous.
#[test]
fn idle_stretches_are_skipped_not_ticked() {
    let script = vec![
        Op::Read(ArBeat::new(
            TxnId::new(0),
            MEM_BASE,
            BurstLen::new(4).expect("in range"),
            BurstSize::bus64(),
            BurstKind::Incr,
        )),
        Op::Wait(5_000),
        Op::Read(ArBeat::new(
            TxnId::new(0),
            MEM_BASE + 0x100,
            BurstLen::ONE,
            BurstSize::bus64(),
            BurstKind::Incr,
        )),
    ];
    let mut rig = build_rig(script, 16, 0, 0);
    rig.sim.run(10_000);
    let stats = rig.sim.kernel_stats();
    assert!(stats.fast_forwards > 0, "no jump taken: {stats:?}");
    assert!(
        stats.cycles_skipped > 8_000,
        "the wait and the post-script tail should dominate: {stats:?}"
    );
    assert_eq!(stats.cycles_total(), 10_000);
    let mgr = rig.sim.component::<ScriptedManager>(rig.mgr).expect("mgr");
    assert!(mgr.is_done(), "both reads completed across the jumps");
    assert_eq!(mgr.completions().len(), 2);
}

/// Two managers contending through REALM units and a crossbar for one
/// memory — the shape where the `backlog_event` overrides actually
/// matter. Tight budgets and short periods force depletion/isolation
/// windows, so beats sit parked on the units' upstream wires while the
/// kernel decides whether the system may skip.
struct ContendedRig {
    sim: Sim,
    mgrs: Vec<ComponentId>,
    realms: Vec<ComponentId>,
    xbar: ComponentId,
    monitors: Vec<ComponentId>,
}

fn build_contended_rig(
    scripts: [Vec<Op>; 2],
    frag_len: u16,
    budget: u64,
    period: u64,
) -> ContendedRig {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(4);

    let mut rt = RuntimeConfig::open(2);
    rt.frag_len = frag_len;
    rt.regions[0] = RegionConfig {
        base: MEM_BASE,
        size: MEM_SIZE,
        budget_max: budget,
        period,
    };

    let mut mgrs = Vec::new();
    let mut realms = Vec::new();
    let mut xbar_mgr_ports = Vec::new();
    let mut monitor_ports = Vec::new();
    for script in scripts {
        let upstream = AxiBundle::new(sim.pool_mut(), cap);
        let downstream = AxiBundle::new(sim.pool_mut(), cap);
        mgrs.push(sim.add(ScriptedManager::new(upstream, script)));
        realms.push(sim.add(RealmUnit::new(
            DesignConfig::cheshire(),
            rt.clone(),
            upstream,
            downstream,
        )));
        xbar_mgr_ports.push(downstream);
        monitor_ports.push(upstream);
    }

    let mem_port = AxiBundle::new(sim.pool_mut(), cap);
    let mut map = AddressMap::new();
    map.add(MEM_BASE, MEM_SIZE, SubordinateId::new(0))
        .expect("single static entry");
    let xbar = sim.add(Crossbar::new(map, xbar_mgr_ports, vec![mem_port]).expect("ports match"));
    sim.add(MemoryModel::new(
        MemoryConfig::llc(MEM_BASE, MEM_SIZE),
        mem_port,
    ));

    // Conformance monitors ride along as opaque observers: they must stay
    // beat-exact (and clean) under both kernels.
    let mut monitors = Vec::new();
    for (i, port) in monitor_ports.into_iter().enumerate() {
        monitors.push(ProtocolMonitor::attach(&mut sim, format!("mgr{i}"), port));
    }
    monitors.push(ProtocolMonitor::attach(&mut sim, "mem", mem_port));

    ContendedRig {
        sim,
        mgrs,
        realms,
        xbar,
        monitors,
    }
}

/// Everything observable about a finished contended rig, in comparable form.
fn observe_contended(rig: &ContendedRig) -> Vec<String> {
    let mut out = vec![format!("cycle={}", rig.sim.cycle())];
    for &id in &rig.mgrs {
        let mgr = rig.sim.component::<ScriptedManager>(id).expect("mgr");
        out.push(format!("{:?}", mgr.completions()));
    }
    for &id in &rig.realms {
        let realm = rig.sim.component::<RealmUnit>(id).expect("realm");
        out.push(format!("{:?}", realm.stats()));
        out.push(format!("{:?}", realm.monitor().regions()));
    }
    let xbar = rig.sim.component::<Crossbar>(rig.xbar).expect("xbar");
    for mgr in 0..xbar.manager_count() {
        out.push(format!("{:?}", xbar.manager_stats(mgr)));
    }
    out.push(format!("{:?}", xbar.interference_matrix()));
    for &id in &rig.monitors {
        let mon = rig.sim.component::<ProtocolMonitor>(id).expect("monitor");
        out.push(format!(
            "{} clean={} {:?}",
            mon.name(),
            mon.is_clean(),
            mon.violations()
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contended fuzz traffic — two managers, crossbar arbitration, active
    /// regulation with depletion windows — is bit-identical between the
    /// skipping kernel and explicit stepping, with clean monitors and no
    /// contract violations on either side.
    #[test]
    fn contended_run_equals_stepping(
        seed_a in 0u64..1_000,
        seed_b in 0u64..1_000,
        frag_len in prop::sample::select(vec![1u16, 4, 16]),
        budget in prop::sample::select(vec![256u64, 1024, 8 * 1024]),
        period in prop::sample::select(vec![200u64, 1_000]),
        cycles in 500u64..3_000,
    ) {
        let spec = FuzzSpec::new(MEM_BASE, MEM_SIZE).with_ops(12);
        let scripts = || [spec.generate(seed_a), spec.generate(seed_b)];

        let mut fast = build_contended_rig(scripts(), frag_len, budget, period);
        let mut slow = build_contended_rig(scripts(), frag_len, budget, period);

        fast.sim.run(cycles);
        for _ in 0..cycles {
            slow.sim.step();
        }

        let a = observe_contended(&fast);
        let b = observe_contended(&slow);
        prop_assert_eq!(&a, &b, "skipping kernel diverged from stepping");

        // Monitors must be clean in absolute terms, not merely identical —
        // otherwise "both kernels see the same violation" would pass.
        for rig in [&fast, &slow] {
            for &id in &rig.monitors {
                let mon = rig.sim.component::<ProtocolMonitor>(id).expect("monitor");
                prop_assert!(mon.is_clean(), "{}: {:?}", mon.name(), mon.violations());
            }
        }

        // Neither side may have tripped a stale-hint (or any other)
        // component contract violation, and every simulated cycle must be
        // accounted for exactly once.
        prop_assert_eq!(format!("{:?}", fast.sim.contract_violations()), "[]");
        prop_assert_eq!(format!("{:?}", slow.sim.contract_violations()), "[]");
        prop_assert_eq!(fast.sim.kernel_stats().cycles_total(), cycles);
        prop_assert_eq!(slow.sim.kernel_stats().cycles_total(), cycles);
    }
}

/// A pinned contended scenario big enough to hit depletion repeatedly:
/// the regression anchor for the `backlog_event` intake-closed override
/// (budget exhausted ⇒ the unit sleeps until the period boundary even with
/// beats parked upstream).
#[test]
fn contended_depletion_windows_match_stepping() {
    let spec = FuzzSpec::new(MEM_BASE, MEM_SIZE)
        .with_ops(24)
        .with_max_beats(16);
    let scripts = || [spec.generate(11), spec.generate(22)];
    const CYCLES: u64 = 12_000;

    // 256-byte budget over a 600-cycle period: a single 16-beat burst
    // (128 bytes) burns half the budget, so depletion recurs all run long.
    let mut fast = build_contended_rig(scripts(), 4, 256, 600);
    let mut slow = build_contended_rig(scripts(), 4, 256, 600);
    fast.sim.run(CYCLES);
    for _ in 0..CYCLES {
        slow.sim.step();
    }

    assert_eq!(observe_contended(&fast), observe_contended(&slow));
    assert!(fast.sim.contract_violations().is_empty());

    // The regulation must actually have bitten — otherwise this pins an
    // uncontended fast path and the depletion claim above is vacuous.
    let isolated: u64 = fast
        .realms
        .iter()
        .map(|&id| {
            let realm = fast.sim.component::<RealmUnit>(id).expect("realm");
            realm.stats().isolated_cycles
        })
        .sum();
    assert!(
        isolated > 0,
        "budget never depleted: regulation not exercised"
    );

    let fs = fast.sim.kernel_stats();
    let ss = slow.sim.kernel_stats();
    assert_eq!(fs.cycles_total(), CYCLES);
    assert_eq!(ss.ticks_executed, CYCLES);
    assert!(
        fs.cycles_skipped > 0,
        "no idle stretch skipped on a depleted run: {fs:?}"
    );
}

/// Recurring isolation trips are discrete budget transitions that no
/// skip window may span. With a budget that trips isolation all run
/// long, the kernel still skips the idle stretches between trips, yet
/// the trip count, the isolated cycles and every trace match stepping.
#[test]
fn isolation_trips_veto_batch_windows_and_match_stepping() {
    let spec = FuzzSpec::new(MEM_BASE, MEM_SIZE)
        .with_ops(24)
        .with_max_beats(16);
    let script = || spec.generate(77);
    const CYCLES: u64 = 8_000;

    // 256 bytes per 600-cycle period: isolation recurs all run long.
    let mut fast = build_rig(script(), 4, 256, 600);
    let mut slow = build_rig(script(), 4, 256, 600);
    fast.sim.run(CYCLES);
    for _ in 0..CYCLES {
        slow.sim.step();
    }
    assert_eq!(observe(&mut fast), observe(&mut slow));
    assert!(fast.sim.contract_violations().is_empty());

    let stats = fast
        .sim
        .component::<RealmUnit>(fast.realm)
        .expect("realm")
        .stats();
    assert!(
        stats.isolation_trips > 1 && stats.isolated_cycles > 0,
        "isolation must trip repeatedly: {stats:?}"
    );
    let ks = fast.sim.kernel_stats();
    assert!(ks.cycles_skipped > 0, "no stretch skipped: {ks:?}");
    assert_eq!(ks.cycles_total(), CYCLES);
}

/// A contended path: two managers with back-to-back bursts (no idle
/// gaps in their scripts) share one memory through the crossbar under
/// generous regulation. While either manager still has work, some beat
/// moves on every cycle, so no cycle is quiet and the kernel never opens
/// a skip window. The run still matches stepping, stop cycle included.
#[test]
fn contended_path_never_opens_a_window() {
    let spec = FuzzSpec {
        max_wait: 0,
        ..FuzzSpec::new(MEM_BASE, MEM_SIZE)
            .with_ops(20)
            .with_max_beats(8)
    };
    let scripts = || [spec.generate(5), spec.generate(6)];
    const CYCLES: u64 = 6_000;

    let run = |mode: KernelMode| {
        let mut rig = build_contended_rig(scripts(), 16, 8 * 1024, 1_000);
        rig.sim.set_kernel_mode(mode);
        let mgrs = rig.mgrs.clone();
        let done = rig.sim.run_until(CYCLES, |sim| {
            mgrs.iter().all(|&id| {
                sim.component::<ScriptedManager>(id)
                    .is_some_and(ScriptedManager::is_done)
            })
        });
        assert!(done, "{mode:?}: both scripts must finish");
        rig
    };
    let fast = run(KernelMode::Skip);
    let slow = run(KernelMode::Step);
    assert_eq!(observe_contended(&fast), observe_contended(&slow));
    assert!(fast.sim.contract_violations().is_empty());

    let ks = fast.sim.kernel_stats();
    assert_eq!(ks.cycles_skipped, 0, "window on a contended path: {ks:?}");
    assert_eq!(ks.cycles_total(), fast.sim.cycle());

    // Once the path falls idle the same rig does skip, so the zero above
    // is the contention's doing, not a rig that can never skip.
    let mut fast = fast;
    fast.sim.run(CYCLES);
    let ks = fast.sim.kernel_stats();
    assert!(
        ks.cycles_skipped > CYCLES / 2,
        "idle tail not skipped: {ks:?}"
    );
}

/// The same equivalence holds for the full Cheshire-like testbench with a
/// regulated, periodically-replenished DMA — the configuration the paper's
/// experiments run. Stepping 30k cycles of the full SoC is slow, so this is
/// a single pinned configuration rather than a property.
#[test]
fn testbench_run_matches_stepping() {
    use cheshire_soc::experiments::llc_regulation;
    use cheshire_soc::Regulation;

    let config = || {
        let mut cfg = TestbenchConfig::single_source(400);
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        cfg.core_regulation = Regulation::Realm(llc_regulation(1, 8 * 1024, 1_000));
        cfg.dma_regulation = Regulation::Realm(llc_regulation(1, 2 * 1024, 1_000));
        cfg
    };
    const CYCLES: u64 = 30_000;
    let mut fast = Testbench::new(config());
    fast.run(CYCLES);
    let mut slow = Testbench::new(config());
    for _ in 0..CYCLES {
        slow.sim_mut().step();
    }

    let a = fast.result();
    let b = slow.result();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.core_accesses, b.core_accesses);
    assert_eq!(
        format!("{:?}", a.core_latency),
        format!("{:?}", b.core_latency)
    );
    assert_eq!(a.dma_bytes, b.dma_bytes);
    assert_eq!(a.llc_beats, b.llc_beats);
    assert_eq!(
        format!("{:?}", fast.dma_realm().expect("regulated").stats()),
        format!("{:?}", slow.dma_realm().expect("regulated").stats()),
    );
    assert_eq!(
        format!(
            "{:?}",
            fast.dma_realm().expect("regulated").monitor().regions()
        ),
        format!(
            "{:?}",
            slow.dma_realm().expect("regulated").monitor().regions()
        ),
    );
}

/// The `sparse_regulated` benchmark shape in miniature: a periodic core
/// next to a worst-case DMA whose budget runs dry early in every period,
/// so its REALM unit isolates until the period boundary. Both fragment
/// to single beats, and the run advances in period-sized `run_until`
/// chunks. Nearly every cycle is idle, so this is where skipping does the
/// most work — and where a skip past a cycle that still mattered (a
/// shared-register write, input parked behind a closed intake gate)
/// would shift the isolation accounting. Every model statistic and
/// telemetry counter, `isolated_cycles` included, must match stepping;
/// only the `kernel.*` counters may differ.
#[test]
fn sparse_regulated_isolation_matches_stepping() {
    use cheshire_soc::experiments::llc_regulation;
    use cheshire_soc::Regulation;

    const PERIOD: u64 = 2_000;
    let run = |mode: KernelMode| {
        let mut cfg = TestbenchConfig::single_source(120);
        cfg.core.compute_cycles = 200;
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        cfg.core_regulation = Regulation::Realm(llc_regulation(1, 8 * 1024, PERIOD));
        cfg.dma_regulation = Regulation::Realm(llc_regulation(1, 512, PERIOD));
        let mut tb = Testbench::new(cfg);
        tb.sim_mut().set_kernel_mode(mode);
        let mut stops = Vec::new();
        let mut done = false;
        while !done && tb.sim().cycle() < 200_000 {
            let start = tb.sim().cycle();
            let boundary = (start / PERIOD + 1) * PERIOD;
            done = tb.run_until_core_done(boundary - start);
            stops.push(tb.sim().cycle());
        }
        assert!(done, "{mode:?}: the core must finish");
        (tb, stops)
    };
    let (fast, fast_stops) = run(KernelMode::Skip);
    let (slow, slow_stops) = run(KernelMode::Step);
    assert_eq!(fast_stops, slow_stops, "chunk stop cycles");

    let model = |tb: &Testbench| {
        let r = tb.result();
        let counters: Vec<(String, u64)> = r
            .telemetry
            .counters()
            .iter()
            .filter(|(k, _)| !k.starts_with("kernel."))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        (
            (r.cycles, r.core_accesses, r.dma_bytes, r.llc_beats),
            format!("{:?}", r.core_latency),
            counters,
            format!("{:?}", r.telemetry.histograms()),
            format!("{:?}", tb.dma_realm().expect("regulated").stats()),
            format!("{:?}", tb.core_realm().expect("regulated").stats()),
            format!(
                "{:?}",
                tb.dma_realm().expect("regulated").monitor().regions()
            ),
        )
    };
    let (a, b) = (model(&fast), model(&slow));
    assert_eq!(a.0, b.0, "run results");
    assert_eq!(a.1, b.1, "core latency");
    assert_eq!(a.2, b.2, "telemetry counters");
    assert_eq!(a.3, b.3, "telemetry histograms");
    assert_eq!(a.4, b.4, "DMA unit stats");
    assert_eq!(a.5, b.5, "core unit stats");
    assert_eq!(a.6, b.6, "DMA budget regions");
    fast.assert_conformance();
    assert!(fast.sim().contract_violations().is_empty());

    // The shape must really be sparse and really isolate — otherwise the
    // comparison above pins neither the skip nor the isolation path.
    let isolated = fast.dma_realm().expect("regulated").stats().isolated_cycles;
    let stats = fast.sim().kernel_stats();
    assert!(
        isolated > stats.cycles_total() / 2,
        "the DMA must sit isolated most of the run: {isolated} of {}",
        stats.cycles_total()
    );
    assert!(
        stats.cycles_skipped * 10 > stats.cycles_total() * 8,
        "most cycles must be skipped: {stats:?}"
    );
}

/// Software reprograms a REALM unit over the bus mid-run, the way the
/// paper's configuration flow does: the MMIO frontend writes the unit's
/// shared registers, outside every wire. The unit ticks before the
/// frontend, so it sees each write one cycle later, in a cycle that may
/// move no beat — only its own wake hint, which reads the shared registers,
/// keeps that cycle from being skipped. Rewriting the DMA's budget and
/// period, isolating and releasing it, and reading its status back must
/// all land at the cycles stepping lands them; only `kernel.*` may differ.
#[test]
fn mmio_reprogramming_matches_stepping() {
    use axi_realm::offsets;
    use cheshire_soc::experiments::llc_regulation;
    use cheshire_soc::{Regulation, CFG_BASE};

    const CFG_ID: u32 = 42;
    const CHUNK: u64 = 1_777;
    let write = |addr: u64, value: u64| {
        let aw = AwBeat::new(
            TxnId::new(CFG_ID),
            Addr::new(addr),
            BurstLen::ONE,
            BurstSize::bus64(),
            BurstKind::Incr,
        );
        Op::Write(WriteTxn::from_words(aw, [value]).expect("single-beat write"))
    };
    let read = |addr: u64| {
        Op::Read(ArBeat::new(
            TxnId::new(CFG_ID),
            Addr::new(addr),
            BurstLen::ONE,
            BurstSize::bus64(),
            BurstKind::Incr,
        ))
    };
    // The DMA is manager 1, so its unit is register block 1.
    let unit = CFG_BASE.raw() + offsets::unit(1);
    let region = CFG_BASE.raw() + offsets::region(1, 0);
    let script = vec![
        write(CFG_BASE.raw(), 0), // claim the guard
        Op::Wait(3_001),
        write(region + offsets::R_BUDGET, 1_024),
        Op::Wait(4_999),
        write(region + offsets::R_PERIOD, 3_001),
        Op::Wait(7_013),
        write(unit + offsets::CTRL, 0b101), // enable + isolate
        read(unit + offsets::STATUS),
        Op::Wait(9_001),
        write(unit + offsets::CTRL, 0b001), // enable, released
        read(unit + offsets::ISOLATED_CYCLES),
        Op::Wait(5_003),
        read(unit + offsets::STATUS),
    ];

    let run = |mode: KernelMode| {
        let mut cfg = TestbenchConfig::single_source(300);
        cfg.core.compute_cycles = 200;
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        cfg.core_regulation = Regulation::Realm(llc_regulation(1, 8 * 1024, 2_000));
        cfg.dma_regulation = Regulation::Realm(llc_regulation(1, 512, 2_000));
        cfg.config_script = script.clone();
        let mut tb = Testbench::new(cfg);
        tb.sim_mut().set_kernel_mode(mode);
        let mut done = false;
        while !done && tb.sim().cycle() < 400_000 {
            done = tb.run_until_core_done(CHUNK);
        }
        assert!(done, "{mode:?}: the core must finish");
        tb
    };
    let fast = run(KernelMode::Skip);
    let slow = run(KernelMode::Step);

    let model = |tb: &Testbench| {
        let r = tb.result();
        let counters: Vec<(String, u64)> = r
            .telemetry
            .counters()
            .iter()
            .filter(|(k, _)| !k.starts_with("kernel."))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        (
            (r.cycles, tb.sim().cycle()),
            format!("{:?}", r.core_latency),
            counters,
            format!("{:?}", r.telemetry.histograms()),
            format!("{:?}", tb.dma_realm().expect("regulated").stats()),
            format!(
                "{:?}",
                tb.config_master().expect("config script").completions()
            ),
        )
    };
    let (a, b) = (model(&fast), model(&slow));
    assert_eq!(a.0, b.0, "cycles");
    assert_eq!(a.1, b.1, "core latency");
    assert_eq!(a.2, b.2, "telemetry counters");
    assert_eq!(a.3, b.3, "telemetry histograms");
    assert_eq!(a.4, b.4, "DMA unit stats");
    assert_eq!(a.5, b.5, "config master completions");
    fast.assert_conformance();
    assert!(fast.sim().contract_violations().is_empty());

    // The script must really have run and really have reprogrammed the
    // unit, and the run must really have skipped — otherwise the
    // comparison above pins neither the register path nor the skip.
    let master = fast.config_master().expect("config script");
    assert!(master.is_done(), "the whole script ran");
    let completions = master.completions();
    assert!(completions.iter().all(|c| c.resp == axi4::Resp::Okay));
    let reads: Vec<u64> = completions
        .iter()
        .filter_map(|c| c.data.first().copied())
        .collect();
    assert_eq!(reads.len(), 3, "{completions:?}");
    assert_eq!(reads[0] & 1, 1, "STATUS reads isolated after the request");
    assert!(reads[1] > 0, "ISOLATED_CYCLES counted the isolation");
    assert_eq!(reads[2] & 1, 0, "STATUS reads released at the end");
    let config = fast.dma_realm().expect("regulated").monitor().regions()[0].config;
    assert_eq!((config.budget_max, config.period), (1_024, 3_001));
    let stats = fast.sim().kernel_stats();
    assert!(stats.cycles_skipped > 0, "{stats:?}");
}

/// A monitor's full verdict, in comparable form: counters, exact per-rule
/// hits, retained and dropped violations, outstanding transactions.
fn monitor_state(sim: &Sim, id: ComponentId) -> String {
    let mon = sim.component::<ProtocolMonitor>(id).expect("monitor");
    format!(
        "{} {:?} {:?} {:?} dropped={} outstanding={}",
        mon.name(),
        mon.counters(),
        mon.rule_hits(),
        mon.violations(),
        mon.violations_dropped(),
        mon.outstanding()
    )
}

/// A `run_until` whose predicate fires returns with every monitor folded
/// over everything pushed before the stop cycle: the monitors read
/// exactly as in a run stepped by hand to that cycle.
#[test]
fn predicate_exit_leaves_monitors_folded() {
    let spec = FuzzSpec::new(MEM_BASE, MEM_SIZE)
        .with_ops(24)
        .with_max_beats(16);
    let scripts = || [spec.generate(5), spec.generate(6)];
    let mut fast = build_contended_rig(scripts(), 4, 1024, 600);
    let mgr = fast.mgrs[0];
    let fired = fast.sim.run_until(100_000, |s| {
        s.component::<ScriptedManager>(mgr)
            .expect("mgr")
            .completions()
            .len()
            >= 10
    });
    assert!(fired);
    let stop = fast.sim.cycle();

    let mut slow = build_contended_rig(scripts(), 4, 1024, 600);
    for _ in 0..stop {
        slow.sim.step();
    }
    let busy = fast.sim.component::<ProtocolMonitor>(fast.monitors[0]);
    assert!(busy.expect("monitor").counters().r_beats > 0);
    for (&a, &b) in fast.monitors.iter().zip(&slow.monitors) {
        assert_eq!(monitor_state(&fast.sim, a), monitor_state(&slow.sim, b));
    }
    assert_eq!(observe_contended(&fast), observe_contended(&slow));
}

/// Drives and drains all five channels of one port with pseudo-random,
/// mostly illegal traffic: 128 busy cycles, then 64 idle ones the kernel
/// can skip. Every rule the monitor knows fires over a long run.
struct Chatter {
    bundle: AxiBundle,
    state: u64,
}

impl Chatter {
    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 33
    }

    fn busy(cycle: u64) -> bool {
        cycle % 192 < 128
    }
}

impl Component for Chatter {
    fn tick(&mut self, ctx: &mut axi_sim::TickCtx<'_>) {
        let (c, b) = (ctx.cycle, self.bundle);
        ctx.pool.pop(b.aw, c);
        ctx.pool.pop(b.w, c);
        ctx.pool.pop(b.b, c);
        ctx.pool.pop(b.ar, c);
        ctx.pool.pop(b.r, c);
        if !Self::busy(c) {
            return;
        }
        let id = TxnId::new((self.next() % 4) as u32);
        let addr = Addr::new((self.next() % 0x2000) & !7);
        let len = BurstLen::new(1 + (self.next() % 4) as u16).expect("1..=4 beats");
        let kind = if self.next().is_multiple_of(8) {
            BurstKind::Wrap
        } else {
            BurstKind::Incr
        };
        if ctx.pool.can_push(b.aw, c) {
            let beat = AwBeat::new(id, addr, len, BurstSize::bus64(), kind);
            ctx.pool.push(b.aw, c, beat);
        }
        if ctx.pool.can_push(b.ar, c) {
            let beat = ArBeat::new(id, addr, len, BurstSize::bus64(), kind);
            ctx.pool.push(b.ar, c, beat);
        }
        let last = self.next().is_multiple_of(3);
        if ctx.pool.can_push(b.w, c) {
            ctx.pool.push(b.w, c, WBeat::full(c, last));
        }
        let id = TxnId::new((self.next() % 4) as u32);
        if ctx.pool.can_push(b.b, c) {
            ctx.pool.push(b.b, c, BBeat::okay(id));
        }
        let last = self.next().is_multiple_of(2);
        if ctx.pool.can_push(b.r, c) {
            ctx.pool.push(b.r, c, RBeat::okay(id, c, last));
        }
    }

    fn ports(&self) -> Vec<axi_sim::PortDecl> {
        let mut ports = self.bundle.manager_ports();
        ports.extend(self.bundle.subordinate_ports());
        ports
    }

    fn next_event(&self, cycle: u64) -> Option<u64> {
        Some(if Self::busy(cycle) {
            cycle
        } else {
            cycle.next_multiple_of(192)
        })
    }
}

/// Registered last: records the largest undrained tap backlog it sees,
/// i.e. after every other component has pushed this cycle.
struct BacklogGauge {
    max: u64,
}

impl Component for BacklogGauge {
    fn tick(&mut self, ctx: &mut axi_sim::TickCtx<'_>) {
        self.max = self.max.max(ctx.pool.tap_backlog());
    }

    fn next_event(&self, _cycle: u64) -> Option<u64> {
        None
    }
}

/// Two chattering ports, one monitor registered before its producer and
/// one after, plus the backlog gauge.
fn build_chatter_rig(mode: KernelMode) -> (Sim, [ComponentId; 2], ComponentId) {
    let mut sim = Sim::new();
    sim.set_kernel_mode(mode);
    let first = AxiBundle::with_defaults(sim.pool_mut());
    let second = AxiBundle::with_defaults(sim.pool_mut());
    let early = ProtocolMonitor::attach(&mut sim, "early", first);
    sim.add(Chatter {
        bundle: first,
        state: 1,
    });
    sim.add(Chatter {
        bundle: second,
        state: 2,
    });
    let late = ProtocolMonitor::attach(&mut sim, "late", second);
    let gauge = sim.add(BacklogGauge { max: 0 });
    (sim, [early, late], gauge)
}

/// A run pushing many times the fold mark gives identical monitor
/// verdicts — counters, rule hits, violation lists — under the default
/// kernel, the stepping kernel, and a run stepped by hand (a fold after
/// every cycle). The undrained backlog never exceeds the mark plus one
/// cycle's pushes, and is below the mark between cycles.
#[test]
fn monitor_folds_match_across_kernels_and_stay_bounded() {
    const CYCLES: u64 = 3_000;
    // Ten wires, each taking at most one push per cycle.
    const PUSHES_PER_CYCLE: u64 = 10;
    let verdicts =
        |sim: &Sim, monitors: &[ComponentId; 2]| monitors.map(|id| monitor_state(sim, id));

    let (mut fast, monitors, gauge) = build_chatter_rig(KernelMode::Skip);
    let mut between = 0;
    fast.run_until(CYCLES, |s| {
        between = between.max(s.pool().tap_backlog());
        false
    });
    let expected = verdicts(&fast, &monitors);

    let (mut stepping, _, _) = build_chatter_rig(KernelMode::Step);
    stepping.run(CYCLES);
    assert_eq!(verdicts(&stepping, &monitors), expected);
    let (mut by_hand, _, _) = build_chatter_rig(KernelMode::Skip);
    for _ in 0..CYCLES {
        by_hand.step();
    }
    assert_eq!(verdicts(&by_hand, &monitors), expected);

    let pushes: u64 = monitors
        .iter()
        .map(|&id| {
            let c = fast.component::<ProtocolMonitor>(id).unwrap().counters();
            c.aw_bursts + c.w_beats + c.b_resps + c.ar_bursts + c.r_beats
        })
        .sum();
    assert!(
        pushes > 4 * axi_sim::TAP_HIGH_WATER,
        "only {pushes} tap records"
    );
    for &id in &monitors {
        let hits = fast.component::<ProtocolMonitor>(id).unwrap().rule_hits();
        assert!(hits.len() >= 6, "too few rules exercised: {hits:?}");
    }
    assert!(fast.kernel_stats().cycles_skipped > 0);
    assert!(fast.profile().iter().all(|p| {
        let observer = monitors.iter().any(|m| m.index() == p.index);
        observer == (p.visits == 0)
    }));

    let max = fast.component::<BacklogGauge>(gauge).unwrap().max;
    assert!(max >= axi_sim::TAP_HIGH_WATER, "the mark was never reached");
    assert!(max < axi_sim::TAP_HIGH_WATER + PUSHES_PER_CYCLE, "{max}");
    assert!(between < axi_sim::TAP_HIGH_WATER, "{between}");
}
