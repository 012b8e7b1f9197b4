//! Failure injection across the stack: subordinate errors must propagate
//! through the REALM unit's coalescing without corrupting bookkeeping,
//! deadlocking, or leaking into other transactions.

use axi4::{
    Addr, ArBeat, AwBeat, BurstKind, BurstLen, BurstSize, Resp, SubordinateId, TxnId, WriteTxn,
};
use axi_conformance::ProtocolMonitor;
use axi_mem::{MemoryConfig, MemoryModel};
use axi_realm::{DesignConfig, RealmUnit, RuntimeConfig};
use axi_sim::{AxiBundle, BundleCapacity, Sim};
use axi_traffic::{Op, ScriptedManager};
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

fn rig(
    error_every: u64,
    frag: u16,
    script: Vec<Op>,
) -> (Sim, axi_sim::ComponentId, axi_sim::ComponentId) {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(4);
    let up = AxiBundle::new(sim.pool_mut(), cap);
    let down = AxiBundle::new(sim.pool_mut(), cap);
    let mem_port = AxiBundle::new(sim.pool_mut(), cap);
    let mgr = sim.add(ScriptedManager::new(up, script));
    let mut rt = RuntimeConfig::open(2);
    rt.frag_len = frag;
    let realm = sim.add(RealmUnit::new(DesignConfig::cheshire(), rt, up, down));
    let mut map = AddressMap::new();
    map.add(MEM_BASE, MEM_SIZE, SubordinateId::new(0))
        .expect("map");
    sim.add(Crossbar::new(map, vec![down], vec![mem_port]).expect("ports"));
    let mut cfg = MemoryConfig::spm(MEM_BASE, MEM_SIZE);
    cfg.error_every = error_every;
    sim.add(MemoryModel::new(cfg, mem_port));
    (sim, mgr, realm)
}

/// An injected SLVERR on one fragment surfaces as exactly one errored
/// transaction; neighbouring transactions stay clean, and the system
/// drains normally afterwards.
#[test]
fn injected_errors_stay_transaction_local() {
    // Memory errors every 4th burst; fragmentation 4 turns a 16-beat write
    // into 4 fragments, so exactly one fragment of it errors.
    let script = vec![
        read_op(1, MEM_BASE.raw(), 1),        // burst 1: ok
        read_op(2, MEM_BASE.raw() + 0x40, 1), // burst 2: ok
        read_op(3, MEM_BASE.raw() + 0x80, 1), // burst 3: ok
        read_op(4, MEM_BASE.raw() + 0xc0, 1), // burst 4: SLVERR
        write_op(5, MEM_BASE.raw() + 0x100, &(0..16).collect::<Vec<_>>()), // bursts 5..8: one errs
        read_op(6, MEM_BASE.raw() + 0x200, 1), // later burst: ok again
    ];
    let (mut sim, mgr, realm) = rig(4, 4, script);
    assert!(sim.run_until(50_000, |s| s
        .component::<ScriptedManager>(mgr)
        .unwrap()
        .is_done()));
    let m = sim.component::<ScriptedManager>(mgr).unwrap();
    let resps: Vec<Resp> = m.completions().iter().map(|c| c.resp).collect();
    assert_eq!(resps[0], Resp::Okay);
    assert_eq!(resps[1], Resp::Okay);
    assert_eq!(resps[2], Resp::Okay);
    assert_eq!(resps[3], Resp::SlvErr, "the injected read error");
    assert_eq!(
        resps[4],
        Resp::SlvErr,
        "one errored fragment poisons the coalesced write response"
    );
    assert_eq!(resps[5], Resp::Okay, "errors do not stick");
    let unit = sim.component::<RealmUnit>(realm).unwrap();
    assert!(unit.is_drained(), "no bookkeeping leaked");
}

/// A run under heavy injection (every 2nd burst errors) still drains: every
/// transaction gets exactly one response.
#[test]
fn heavy_injection_never_wedges() {
    let script: Vec<Op> = (0..30)
        .map(|i| {
            if i % 3 == 0 {
                write_op(i, MEM_BASE.raw() + u64::from(i) * 0x100, &[1, 2, 3, 4])
            } else {
                read_op(i, MEM_BASE.raw() + u64::from(i) * 0x100, 4)
            }
        })
        .collect();
    // Granularity 256: transactions pass unfragmented, so exactly every
    // second burst errors.
    let (mut sim, mgr, realm) = rig(2, 256, script);
    assert!(sim.run_until(200_000, |s| s
        .component::<ScriptedManager>(mgr)
        .unwrap()
        .is_done()));
    let m = sim.component::<ScriptedManager>(mgr).unwrap();
    assert_eq!(m.completions().len(), 30);
    let errored = m.completions().iter().filter(|c| c.resp.is_err()).count();
    assert!(errored > 5, "injection actually fired: {errored}");
    assert!(errored < 30, "not everything errors");
    assert!(sim.component::<RealmUnit>(realm).unwrap().is_drained());
}

/// Protocol monitors on both sides of a REALM unit see its fragmentation:
/// one 4-beat write upstream leaves the unit as two 2-beat bursts, every
/// beat accounted for on both sides.
#[test]
fn regulated_run_fragments_one_write_into_two() {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(4);
    let up = AxiBundle::new(sim.pool_mut(), cap);
    let down = AxiBundle::new(sim.pool_mut(), cap);
    let mem_port = AxiBundle::new(sim.pool_mut(), cap);
    let up_mon = ProtocolMonitor::attach(&mut sim, "upstream", up);
    let down_mon = ProtocolMonitor::attach(&mut sim, "downstream", down);
    let mgr = sim.add(ScriptedManager::new(
        up,
        vec![
            write_op(1, MEM_BASE.raw(), &[0xA, 0xB, 0xC, 0xD]),
            read_op(2, MEM_BASE.raw(), 4),
        ],
    ));
    let mut rt = RuntimeConfig::open(2);
    rt.frag_len = 2;
    sim.add(RealmUnit::new(DesignConfig::cheshire(), rt, up, down));
    let mut map = AddressMap::new();
    map.add(MEM_BASE, MEM_SIZE, SubordinateId::new(0))
        .expect("map");
    sim.add(Crossbar::new(map, vec![down], vec![mem_port]).expect("ports"));
    sim.add(MemoryModel::new(
        MemoryConfig::spm(MEM_BASE, MEM_SIZE),
        mem_port,
    ));

    assert!(sim.run_until(10_000, |s| s
        .component::<ScriptedManager>(mgr)
        .unwrap()
        .is_done()));
    sim.run(5);

    let counters = |id| {
        let mon = sim.component::<ProtocolMonitor>(id).unwrap();
        assert!(mon.is_clean(), "{:?}", mon.violations());
        mon.counters()
    };
    let (up_c, down_c) = (counters(up_mon), counters(down_mon));
    // The downstream side saw the *fragmented* traffic.
    assert_eq!(up_c.aw_bursts, 1);
    assert_eq!(
        down_c.aw_bursts, 2,
        "4 beats at granularity 2 = 2 fragments"
    );
    assert_eq!((up_c.w_beats, down_c.w_beats), (4, 4));
    assert_eq!((up_c.b_resps, down_c.b_resps), (1, 2));
    assert_eq!(up_c.ar_bursts, 1);
    assert_eq!((up_c.r_beats, down_c.r_beats), (4, 4));
}
