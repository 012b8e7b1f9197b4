//! Extension experiment: the full memory hierarchy — a real set-associative
//! write-back LLC in front of row-buffer DRAM — replacing the paper's
//! hot-LLC approximation.
//!
//! The paper measures with a hot LLC ("accesses by CVA6 take at most eight
//! cycles ... assuming the LLC is hot"). Here the cache actually warms up:
//! the core's working set must fit, the DMA's streaming traffic thrashes
//! capacity, and REALM's fragmentation still restores the core — now with
//! measured hit rates instead of an assumption.
//!
//! ```text
//! cargo run --release -p realm-bench --bin extension_cache
//! ```

use axi4::{Addr, SubordinateId, TxnId};
use axi_mem::{CacheConfig, CacheModel, DramConfig, DramModel, MemoryConfig, MemoryModel};
use axi_realm::{DesignConfig, RealmUnit, RegionConfig, RuntimeConfig};
use axi_sim::{AxiBundle, BundleCapacity, KernelStats, Sim};
use axi_traffic::{CoreModel, CoreWorkload, DmaConfig, DmaModel};
use axi_xbar::{AddressMap, Crossbar};
use realm_bench::telemetry::maybe_export_registry;
use realm_bench::{point_row, run_sweep, ExperimentReport, MonitorRig, Row};
use realm_telemetry::TelemetrySink;

const MEM_BASE: Addr = Addr::new(0x8000_0000);
const MEM_SIZE: u64 = 16 << 20;
const SPM_BASE: Addr = Addr::new(0x1000_0000);
const SPM_SIZE: u64 = 1 << 20;

struct Outcome {
    cycles: u64,
    lat_mean: f64,
    hit_rate: f64,
    writebacks: u64,
    telemetry: TelemetrySink,
}

fn run(frag_len: Option<u16>, with_dma: bool) -> (Outcome, KernelStats) {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(4);

    let core_up = AxiBundle::new(sim.pool_mut(), cap);
    let core_down = AxiBundle::new(sim.pool_mut(), cap);
    let cache_front = AxiBundle::new(sim.pool_mut(), cap);
    let cache_back = AxiBundle::new(sim.pool_mut(), cap);
    let spm_port = AxiBundle::new(sim.pool_mut(), cap);

    let runtime = |frag: u16| {
        let mut rt = RuntimeConfig::open(2);
        rt.frag_len = frag;
        rt.regions[0] = RegionConfig {
            base: MEM_BASE,
            size: MEM_SIZE,
            budget_max: 0,
            period: 0,
        };
        rt
    };
    sim.add(
        RealmUnit::new(DesignConfig::cheshire(), runtime(256), core_up, core_down)
            .named("realm.core"),
    );

    // Core working set (64 KiB) fits the 128 KiB LLC.
    let core = sim.add(CoreModel::new(
        CoreWorkload::susan(MEM_BASE, 2_000),
        core_up,
    ));
    // The DMA path (manager, REALM unit, crossbar port) exists only in
    // contended runs — an always-present unit with no manager behind it
    // would leave its upstream wires dangling (realm-lint: wire-dangling).
    let dma_frag = frag_len.unwrap_or(256);
    let dma_ports = with_dma.then(|| {
        let dma_up = AxiBundle::new(sim.pool_mut(), cap);
        let dma_down = AxiBundle::new(sim.pool_mut(), cap);
        sim.add(
            RealmUnit::new(
                DesignConfig::cheshire(),
                runtime(dma_frag),
                dma_up,
                dma_down,
            )
            .named("realm.dma"),
        );
        let mut dma = DmaConfig::worst_case((MEM_BASE + 0x80_0000, 0x8_0000), (SPM_BASE, SPM_SIZE));
        dma.id = TxnId::new(1);
        sim.add(DmaModel::new(dma, dma_up));
        (dma_up, dma_down)
    });

    let mut mgr_ports = vec![core_down];
    if let Some((_, dma_down)) = dma_ports {
        mgr_ports.push(dma_down);
    }
    let mut map = AddressMap::new();
    map.add(MEM_BASE, MEM_SIZE, SubordinateId::new(0))
        .expect("map");
    map.add(SPM_BASE, SPM_SIZE, SubordinateId::new(1))
        .expect("map");
    sim.add(Crossbar::new(map, mgr_ports, vec![cache_front, spm_port]).expect("ports"));
    let cache = sim.add(CacheModel::new(
        CacheConfig::llc(MEM_BASE, MEM_SIZE),
        cache_front,
        cache_back,
    ));
    sim.add(DramModel::new(
        DramConfig::ddr3(MEM_BASE, MEM_SIZE),
        cache_back,
    ));
    sim.add(MemoryModel::new(
        MemoryConfig::spm(SPM_BASE, SPM_SIZE),
        spm_port,
    ));

    // Protocol monitors on every port. The cache is intentionally not a
    // scoreboard link: hits absorb traffic and writebacks create it, so
    // only its two ports' own protocol rules apply.
    let mut rig = MonitorRig::new();
    rig.port(&mut sim, "core", core_up);
    rig.port(&mut sim, "core.xbar", core_down);
    let mut boundary_mgrs = vec!["core.xbar"];
    if let Some((dma_up, dma_down)) = dma_ports {
        rig.port(&mut sim, "dma", dma_up);
        rig.port(&mut sim, "dma.xbar", dma_down);
        rig.link("dma", "dma.xbar");
        boundary_mgrs.push("dma.xbar");
    }
    rig.port(&mut sim, "llc", cache_front);
    rig.port(&mut sim, "dram", cache_back);
    rig.port(&mut sim, "spm", spm_port);
    rig.link("core", "core.xbar");
    rig.boundary(&boundary_mgrs, &["llc", "spm"]);

    // Elaboration-time analysis before the first cycle.
    let mut model = realm_lint::SystemModel::new()
        .window("llc", MEM_BASE, MEM_SIZE)
        .window("spm", SPM_BASE, SPM_SIZE)
        .bandwidth("llc", 8)
        .bandwidth("spm", 8)
        .id_space(15, if with_dma { 2 } else { 1 })
        .realm("realm.core", DesignConfig::cheshire(), runtime(256));
    if with_dma {
        model = model.realm("realm.dma", DesignConfig::cheshire(), runtime(dma_frag));
    }
    realm_lint::apply(
        "extension_cache",
        &realm_lint::analyze(&sim.topology(), &model),
    );

    assert!(sim.run_until(200_000_000, |s| s
        .component::<CoreModel>(core)
        .unwrap()
        .is_done()));
    let c = sim.component::<CoreModel>(core).unwrap();
    let k = sim.component::<CacheModel>(cache).unwrap();
    let outcome = Outcome {
        cycles: c.finished_at().expect("core done"),
        lat_mean: c.latency().mean().unwrap_or(0.0),
        hit_rate: k.stats().hit_rate().unwrap_or(0.0),
        writebacks: k.stats().writebacks,
        telemetry: sim.telemetry(),
    };
    rig.assert_clean(&sim);
    (outcome, sim.kernel_stats())
}

fn main() {
    let mut report = ExperimentReport::new(
        "Extension: cache",
        "fragmentation sweep with a real write-back LLC over DRAM (no hot-cache assumption)",
    );
    let mut points: Vec<(String, (Option<u16>, bool))> = vec![
        ("single-source".to_owned(), (None, false)),
        ("no-reservation".to_owned(), (None, true)),
    ];
    points.extend([16u16, 4, 1].map(|frag| (format!("frag={frag}"), (Some(frag), true))));
    let outcome = run_sweep(points, |&(frag, with_dma)| run(frag, with_dma));
    let base_cycles = outcome.results[0].cycles;
    let mut merged = TelemetrySink::new();
    for (o, rt) in outcome.results.iter().zip(&outcome.runtime) {
        report.push(Row::new(
            rt.label.clone(),
            vec![
                ("perf_pct", base_cycles as f64 / o.cycles as f64 * 100.0),
                ("lat_mean", o.lat_mean),
                ("llc_hit_pct", o.hit_rate * 100.0),
                ("writebacks", o.writebacks as f64),
            ],
        ));
        report.telemetry.push(point_row(&rt.label, &o.telemetry));
        merged.merge(&o.telemetry);
    }
    report.runtime = outcome.runtime_rows();
    report.note("the core's 64 KiB working set fits the 128 KiB LLC: hits dominate once warm");
    report.note("the DMA streams 512 KiB through the same cache, evicting the core's lines");
    report.note("REALM recovers the core even though contention now includes capacity misses");
    print!("{}", report.render());
    println!("{}", outcome.summary("extension_cache"));
    if let Err(e) = report.write_json("results/extension_cache.json") {
        eprintln!("could not write results/extension_cache.json: {e}");
    }
    maybe_export_registry("extension_cache", &merged);
}
