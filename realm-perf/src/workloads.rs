//! The three workloads, each a fixed list of simulated systems, and the
//! correctness check every simulation must pass.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use axi4::{Addr, SubordinateId, TxnId};
use axi_mem::{CacheConfig, CacheModel, DramConfig, DramModel, MemoryConfig, MemoryModel};
use axi_realm::{DesignConfig, RealmUnit, RegionConfig, RuntimeConfig};
use axi_sim::{AxiBundle, BundleCapacity, ComponentId, Sim};
use axi_traffic::{CoreModel, CoreWorkload, DmaConfig, DmaModel};
use axi_xbar::{AddressMap, Crossbar};
use cheshire_soc::experiments::{
    fragmentation_sweep_points, llc_regulation, DEFAULT_ACCESSES, MAX_CYCLES,
};
use cheshire_soc::{Regulation, RunResult, Testbench, TestbenchConfig};
use realm_bench::MonitorRig;

use crate::layers::{classify_all, LayerStats};
use crate::probe::Probe;

/// A named workload of the benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Fig. 6a: eleven contended systems, every cycle busy.
    Contention,
    /// A periodic core beside a budget-capped DMA: mostly idle cycles.
    SparseRegulated,
    /// The write-back LLC over row-buffer DRAM, four systems.
    CacheDram,
}

/// Every workload with its command-line name.
pub const WORKLOADS: [(&str, Workload); 3] = [
    ("contention", Workload::Contention),
    ("sparse_regulated", Workload::SparseRegulated),
    ("cache_dram", Workload::CacheDram),
];

impl Workload {
    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// The committed results file whose rows this workload must reproduce.
    fn results_file(self) -> Option<&'static str> {
        match self {
            Workload::Contention => Some("results/fig6a.json"),
            Workload::SparseRegulated => None,
            Workload::CacheDram => Some("results/extension_cache.json"),
        }
    }

    /// Loads the reference rows this workload is checked against.
    pub fn expected(self) -> Result<Expected, String> {
        match self.results_file() {
            Some(path) => Expected::load(Path::new(path)),
            None => Ok(Expected::default()),
        }
    }

    /// Builds every system of the workload once, without running it, and
    /// returns the host seconds spent building (lint gate included).
    pub fn setup_round(self) -> f64 {
        fn timed<T>(build: impl FnOnce() -> T) -> f64 {
            let t = Instant::now();
            let system = black_box(build());
            let elapsed = secs(t);
            drop(system);
            elapsed
        }
        match self {
            Workload::Contention => fig6a_points()
                .into_iter()
                .map(|(_, point)| timed(|| Testbench::new(fig6a_config(point))))
                .sum(),
            Workload::SparseRegulated => timed(|| Testbench::new(sparse_config())),
            Workload::CacheDram => cache_points()
                .into_iter()
                .map(|(_, frag)| timed(|| build_cache(frag)))
                .sum(),
        }
    }

    /// Runs one pass: every system of the workload, in order, sampling the
    /// host speed between simulation chunks.
    /// An error means the benchmark cannot attribute the run (a component
    /// it cannot classify, a counter it cannot find), not that a
    /// simulation failed.
    pub fn pass(
        self,
        expected: &Expected,
        time_lint: bool,
        probe: &mut Probe,
    ) -> Result<Vec<SystemRun>, String> {
        match self {
            Workload::Contention => contention(expected, time_lint, probe),
            Workload::SparseRegulated => Ok(vec![guarded("sparse", || {
                sparse_regulated(time_lint, probe)
            })?]),
            Workload::CacheDram => cache_dram(expected, probe),
        }
    }
}

/// Reference rows: label → (column, value).
#[derive(Clone, Debug, Default)]
pub struct Expected {
    rows: Vec<(String, Vec<(String, f64)>)>,
}

impl Expected {
    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = realm_bench::json::parse(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        let bad = || format!("{} has no rows of labelled values", path.display());
        let mut rows = Vec::new();
        for row in json.get("rows").and_then(|r| r.as_arr()).ok_or_else(bad)? {
            let label = row.get("label").and_then(|l| l.as_str()).ok_or_else(bad)?;
            let mut values = Vec::new();
            for pair in row.get("values").and_then(|v| v.as_arr()).ok_or_else(bad)? {
                match pair.as_arr() {
                    Some([k, v]) => values.push((
                        k.as_str().ok_or_else(bad)?.to_owned(),
                        v.as_f64().ok_or_else(bad)?,
                    )),
                    _ => return Err(bad()),
                }
            }
            rows.push((label.to_owned(), values));
        }
        Ok(Self { rows })
    }

    /// Compares a computed row with the committed one, value for value.
    fn check(&self, label: &str, row: &[(&str, f64)]) -> Result<(), String> {
        let (_, want) = self
            .rows
            .iter()
            .find(|(l, _)| l == label)
            .ok_or_else(|| format!("no committed row {label:?}"))?;
        let got: Vec<(String, f64)> = row.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
        if &got != want {
            return Err(format!("row {label:?} is {got:?}, committed {want:?}"));
        }
        Ok(())
    }
}

/// Host seconds spent in each phase of one simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// Building the system, including the realm-lint gate.
    pub build: f64,
    /// The lint analyzer alone (re-issued through the public API for
    /// `Testbench` systems when `time_lint` is set; timed in place for the
    /// hand-built ones).
    pub lint: f64,
    /// Inside the `Sim` run calls.
    pub run: f64,
    /// Harvesting results and telemetry.
    pub harvest: f64,
    /// The conformance, sanitizer and kernel-contract verdicts.
    pub check: f64,
}

/// One simulated system, measured and checked.
#[derive(Clone, Debug)]
pub struct SystemRun {
    /// The system's label.
    pub label: String,
    /// Host time per phase.
    pub phases: Phases,
    /// Cycle the core finished its workload.
    pub exec_cycles: u64,
    /// Per-layer counts.
    pub stats: LayerStats,
    /// A hash of the simulated statistics; equal runs hash equal.
    pub fingerprint: u64,
    /// The values compared against the committed results (also the source
    /// of the paper-error report).
    pub row: Vec<(&'static str, f64)>,
    /// Why the simulation counts as failed, if it does.
    pub failure: Option<String>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Simulated cycles per run call. Between two calls the probe may sample
/// the host speed; a call re-arms every component for its first cycles,
/// which the chunk length keeps to a negligible share of the visits.
const CHUNK: u64 = 25_000;

/// Advances a simulation chunk by chunk until `advance` reports it done
/// or `cap` cycles have passed. `advance(n)` runs at most `n` cycles and
/// returns whether the workload completed and the cycle it stopped at.
/// Returns completion and the host seconds spent inside the run calls.
fn run_chunked(
    cap: u64,
    probe: &mut Probe,
    mut advance: impl FnMut(u64) -> (bool, u64),
) -> (bool, f64) {
    let mut run_s = 0.0;
    let mut cycle = 0;
    while cycle < cap {
        let t = Instant::now();
        let (done, now) = advance(CHUNK.min(cap - cycle));
        run_s += secs(t);
        if done {
            return (true, run_s);
        }
        cycle = now;
        probe.tick();
    }
    (false, run_s)
}

/// FNV-1a over the debug rendering of the simulated statistics.
fn fingerprint(parts: &[&dyn std::fmt::Debug]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for byte in format!("{part:?}").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Runs one simulation, turning a panic anywhere inside it into a failed
/// run instead of an abort.
fn guarded(
    label: &str,
    simulate: impl FnOnce() -> Result<SystemRun, String>,
) -> Result<SystemRun, String> {
    catch_unwind(AssertUnwindSafe(simulate)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic".to_owned());
        Ok(SystemRun {
            label: label.to_owned(),
            phases: Phases::default(),
            exec_cycles: 0,
            stats: LayerStats::default(),
            fingerprint: 0,
            row: Vec::new(),
            failure: Some(format!("panicked: {msg}")),
        })
    })
}

/// The kernel-contract and sanitizer verdicts, which hold with or without
/// protocol monitors.
fn kernel_clean(sim: &Sim) -> Result<(), String> {
    let contract = sim.contract_violations().len() as u64 + sim.contract_violations_dropped();
    let sanitizer = sim.sanitizer_violations().len() as u64 + sim.sanitizer_violations_dropped();
    if contract + sanitizer > 0 {
        return Err(format!(
            "{contract} kernel-contract and {sanitizer} sanitizer violation(s)"
        ));
    }
    Ok(())
}

/// The Testbench's full verdict: monitors, scoreboard, sanitizer, kernel
/// contract.
fn testbench_clean(tb: &Testbench) -> Result<(), String> {
    kernel_clean(tb.sim())?;
    let report = tb.conformance_report();
    if !report.is_clean() {
        return Err(format!("conformance: {report}"));
    }
    Ok(())
}

/// Combines verdicts, keeping the first failure.
fn verdict(checks: &[Result<(), String>]) -> Option<String> {
    checks.iter().find_map(|c| c.clone().err())
}

/// Builds a Testbench, optionally re-timing the lint analyzer its
/// construction runs.
fn build_testbench(cfg: TestbenchConfig, time_lint: bool, phases: &mut Phases) -> Testbench {
    let t = Instant::now();
    let tb = Testbench::new(cfg);
    phases.build = secs(t);
    if time_lint {
        let t = Instant::now();
        black_box(tb.lint_report());
        black_box(tb.partition());
        phases.lint = secs(t);
    }
    tb
}

/// Harvests a finished Testbench: the result snapshot (whose telemetry
/// walk is the bulk of it) and the layer counts.
fn harvest_testbench(
    tb: &Testbench,
    phases: &mut Phases,
) -> Result<(RunResult, LayerStats), String> {
    let t = Instant::now();
    let result = tb.result();
    phases.harvest = secs(t);
    let layers = classify_all(&tb.sim().topology())?;
    let stats = LayerStats::collect(
        &layers,
        &tb.sim().profile(),
        &result.kernel,
        &result.telemetry,
    )?;
    Ok((result, stats))
}

fn testbench_fingerprint(tb: &Testbench, r: &RunResult) -> u64 {
    let visits: Vec<u64> = tb.sim().profile().iter().map(|p| p.visits).collect();
    fingerprint(&[
        &r.cycles,
        &r.core_latency,
        &r.core_histogram,
        &r.core_accesses,
        &r.dma_bytes,
        &r.llc_beats,
        &r.kernel,
        &visits,
        r.telemetry.counters(),
        r.telemetry.histograms(),
    ])
}

// ---------------------------------------------------------------------------
// contention: Fig. 6a

/// One Fig. 6a point.
#[derive(Clone, Copy)]
enum Point {
    Single,
    NoReservation,
    Frag(u16),
}

/// The Fig. 6a configuration `experiments` defines for a point, with the
/// monitors pinned on.
fn fig6a_config(point: Point) -> TestbenchConfig {
    let mut cfg = TestbenchConfig::single_source(DEFAULT_ACCESSES);
    cfg.monitors = true;
    let frag = match point {
        Point::Single | Point::NoReservation => 256,
        Point::Frag(f) => f,
    };
    cfg.core_regulation = Regulation::Realm(llc_regulation(frag, 0, 0));
    if !matches!(point, Point::Single) {
        cfg.dma = Some(TestbenchConfig::worst_case_dma());
        cfg.dma_regulation = Regulation::Realm(llc_regulation(frag, 0, 0));
    }
    cfg
}

/// The `results/fig6a.json` row of a run, computed as the fig6a binary
/// computes it.
fn fig6a_row(r: &RunResult, base_cycles: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("perf_pct", base_cycles as f64 / r.cycles as f64 * 100.0),
        ("exec_cycles", r.cycles as f64),
        ("lat_min", r.core_latency.min().unwrap_or(0) as f64),
        ("lat_mean", r.core_latency.mean().unwrap_or(0.0)),
        ("lat_max", r.core_latency.max().unwrap_or(0) as f64),
        (
            "lat_p99_bound",
            r.core_histogram.percentile_bound(0.99).unwrap_or(0) as f64,
        ),
    ]
}

/// The eleven Fig. 6a points, in the fig6a binary's order.
fn fig6a_points() -> Vec<(String, Point)> {
    let mut points = vec![
        ("single-source".to_owned(), Point::Single),
        ("no-reservation".to_owned(), Point::NoReservation),
    ];
    points.extend(
        fragmentation_sweep_points()
            .into_iter()
            .map(|f| (format!("frag={f}"), Point::Frag(f))),
    );
    points
}

fn contention(
    expected: &Expected,
    time_lint: bool,
    probe: &mut Probe,
) -> Result<Vec<SystemRun>, String> {
    let points = fig6a_points();
    let mut base_cycles = None;
    let mut runs = Vec::with_capacity(points.len());
    for (label, point) in points {
        let run = guarded(&label, || {
            let mut phases = Phases::default();
            let mut tb = build_testbench(fig6a_config(point), time_lint, &mut phases);
            let (completed, run_s) = run_chunked(MAX_CYCLES, probe, |n| {
                (tb.run_until_core_done(n), tb.sim().cycle())
            });
            phases.run = run_s;
            let (result, stats) = harvest_testbench(&tb, &mut phases)?;
            let t = Instant::now();
            let clean = testbench_clean(&tb);
            phases.check = secs(t);
            if matches!(point, Point::Single) && completed {
                base_cycles = Some(result.cycles);
            }
            let row = fig6a_row(&result, base_cycles.unwrap_or(0));
            let failure = verdict(&[
                completed
                    .then_some(())
                    .ok_or_else(|| format!("overran {MAX_CYCLES} cycles")),
                clean,
                base_cycles
                    .map(|_| ())
                    .ok_or_else(|| "no single-source baseline".to_owned()),
                expected.check(&label, &row),
            ]);
            Ok(SystemRun {
                exec_cycles: result.cycles,
                fingerprint: testbench_fingerprint(&tb, &result),
                label: label.clone(),
                phases,
                stats,
                row,
                failure,
            })
        })?;
        runs.push(run);
    }
    Ok(runs)
}

// ---------------------------------------------------------------------------
// sparse_regulated: a periodic core beside a budget-capped accelerator

/// Core accesses of the periodic control loop.
pub const SPARSE_ACCESSES: u64 = 100_000;
/// Compute cycles between two core accesses.
const SPARSE_COMPUTE_CYCLES: u64 = 200;
/// Regulation period of both managers, in cycles.
const SPARSE_PERIOD: u64 = 10_000;
/// The core's LLC budget per period, in bytes.
const SPARSE_CORE_BUDGET: u64 = 8 * 1024;
/// The DMA's LLC budget per period, in bytes.
pub const SPARSE_DMA_BUDGET: u64 = 2 * 1024;
/// Bytes of one single-beat fragment. A REALM unit tests depletion once
/// per cycle, so a read and a write fragment issued in the cycle the
/// budget runs out can overshoot it by one fragment; the check allows
/// exactly that and no more.
const SPARSE_FRAGMENT_BYTES: u64 = 8;

/// The Fig. 6 testbench as a periodic control loop beside a budget-capped
/// worst-case DMA, both fragmenting to single beats.
fn sparse_config() -> TestbenchConfig {
    let mut cfg = TestbenchConfig::single_source(SPARSE_ACCESSES);
    cfg.monitors = true;
    cfg.core.compute_cycles = SPARSE_COMPUTE_CYCLES;
    cfg.dma = Some(TestbenchConfig::worst_case_dma());
    cfg.core_regulation = Regulation::Realm(llc_regulation(1, SPARSE_CORE_BUDGET, SPARSE_PERIOD));
    cfg.dma_regulation = Regulation::Realm(llc_regulation(1, SPARSE_DMA_BUDGET, SPARSE_PERIOD));
    cfg
}

fn sparse_regulated(time_lint: bool, probe: &mut Probe) -> Result<SystemRun, String> {
    let mut phases = Phases::default();
    let mut tb = build_testbench(sparse_config(), time_lint, &mut phases);
    // Run period by period and read the DMA's LLC charge at every period
    // boundary: the budget bounds each period's delta.
    let dma_charged = |tb: &Testbench| {
        tb.dma_realm()
            .expect("the DMA is regulated")
            .monitor()
            .regions()[0]
            .stats
            .bytes_total
    };
    let mut worst_period = 0;
    let mut charged = 0;
    let mut completed = false;
    let mut off_grid = None;
    while !completed && tb.sim().cycle() < MAX_CYCLES {
        let start = tb.sim().cycle();
        let boundary = (start / SPARSE_PERIOD + 1) * SPARSE_PERIOD;
        let t = Instant::now();
        completed = tb.run_until_core_done(boundary - start);
        phases.run += secs(t);
        probe.tick();
        let now = dma_charged(&tb);
        worst_period = worst_period.max(now - charged);
        charged = now;
        if !completed && tb.sim().cycle() != boundary {
            off_grid.get_or_insert(tb.sim().cycle());
        }
    }
    let (result, stats) = harvest_testbench(&tb, &mut phases)?;
    let t = Instant::now();
    let clean = testbench_clean(&tb);
    phases.check = secs(t);
    let failure = verdict(&[
        completed
            .then_some(())
            .ok_or_else(|| format!("overran {MAX_CYCLES} cycles")),
        off_grid.map_or(Ok(()), |c| {
            Err(format!("a period chunk stopped at cycle {c}"))
        }),
        (result.core_accesses == SPARSE_ACCESSES)
            .then_some(())
            .ok_or_else(|| {
                format!(
                    "core completed {} of {SPARSE_ACCESSES} accesses",
                    result.core_accesses
                )
            }),
        (worst_period <= SPARSE_DMA_BUDGET + SPARSE_FRAGMENT_BYTES)
            .then_some(())
            .ok_or_else(|| {
                format!(
                    "DMA charged {worst_period} B in one period, budget {SPARSE_DMA_BUDGET} B \
                     plus one {SPARSE_FRAGMENT_BYTES} B fragment"
                )
            }),
        clean,
    ]);
    Ok(SystemRun {
        exec_cycles: result.cycles,
        fingerprint: testbench_fingerprint(&tb, &result),
        label: "sparse".to_owned(),
        phases,
        stats,
        row: vec![
            ("exec_cycles", result.cycles as f64),
            ("dma_worst_period_bytes", worst_period as f64),
        ],
        failure,
    })
}

// ---------------------------------------------------------------------------
// cache_dram: the extension_cache system

const MEM_BASE: Addr = Addr::new(0x8000_0000);
const MEM_SIZE: u64 = 16 << 20;
const SPM_BASE: Addr = Addr::new(0x1000_0000);
const SPM_SIZE: u64 = 1 << 20;
/// The extension_cache binary's cycle cap.
const CACHE_MAX_CYCLES: u64 = 200_000_000;

fn cache_runtime(frag: u16) -> RuntimeConfig {
    let mut rt = RuntimeConfig::open(2);
    rt.frag_len = frag;
    rt.regions[0] = RegionConfig {
        base: MEM_BASE,
        size: MEM_SIZE,
        budget_max: 0,
        period: 0,
    };
    rt
}

/// A built extension_cache system, ready to run.
struct CacheSystem {
    sim: Sim,
    rig: MonitorRig,
    core: ComponentId,
    cache: ComponentId,
    lint: realm_lint::Report,
}

/// Assembles the write-back LLC over DRAM exactly as the extension_cache
/// binary does, lint gate included; `frag` is `None` for the
/// single-source system. Returns the system and the lint share of the
/// build time.
fn build_cache(frag: Option<u16>) -> (CacheSystem, f64) {
    let mut sim = Sim::new();
    let cap = BundleCapacity::uniform(4);
    let core_up = AxiBundle::new(sim.pool_mut(), cap);
    let core_down = AxiBundle::new(sim.pool_mut(), cap);
    let cache_front = AxiBundle::new(sim.pool_mut(), cap);
    let cache_back = AxiBundle::new(sim.pool_mut(), cap);
    let spm_port = AxiBundle::new(sim.pool_mut(), cap);
    sim.add(
        RealmUnit::new(
            DesignConfig::cheshire(),
            cache_runtime(256),
            core_up,
            core_down,
        )
        .named("realm.core"),
    );
    let core = sim.add(CoreModel::new(
        CoreWorkload::susan(MEM_BASE, DEFAULT_ACCESSES),
        core_up,
    ));
    let dma_ports = frag.map(|frag| {
        let dma_up = AxiBundle::new(sim.pool_mut(), cap);
        let dma_down = AxiBundle::new(sim.pool_mut(), cap);
        sim.add(
            RealmUnit::new(
                DesignConfig::cheshire(),
                cache_runtime(frag),
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
    mgr_ports.extend(dma_ports.map(|(_, down)| down));
    let mut map = AddressMap::new();
    map.add(MEM_BASE, MEM_SIZE, SubordinateId::new(0))
        .expect("static map");
    map.add(SPM_BASE, SPM_SIZE, SubordinateId::new(1))
        .expect("static map");
    sim.add(Crossbar::new(map, mgr_ports, vec![cache_front, spm_port]).expect("static ports"));
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

    let t = Instant::now();
    let mut model = realm_lint::SystemModel::new()
        .window("llc", MEM_BASE, MEM_SIZE)
        .window("spm", SPM_BASE, SPM_SIZE)
        .bandwidth("llc", 8)
        .bandwidth("spm", 8)
        .id_space(15, if frag.is_some() { 2 } else { 1 })
        .realm("realm.core", DesignConfig::cheshire(), cache_runtime(256));
    if let Some(frag) = frag {
        model = model.realm("realm.dma", DesignConfig::cheshire(), cache_runtime(frag));
    }
    let lint = realm_lint::analyze(&sim.topology(), &model);
    let lint_s = secs(t);
    let system = CacheSystem {
        sim,
        rig,
        core,
        cache,
        lint,
    };
    (system, lint_s)
}

/// Builds, runs and checks one extension_cache system.
fn cache_system(
    label: &str,
    frag: Option<u16>,
    base_cycles: Option<u64>,
    expected: &Expected,
    probe: &mut Probe,
) -> Result<SystemRun, String> {
    let mut phases = Phases::default();
    let t = Instant::now();
    let (system, lint_s) = build_cache(frag);
    phases.build = secs(t);
    phases.lint = lint_s;
    let CacheSystem {
        mut sim,
        rig,
        core,
        cache,
        lint,
    } = system;

    let (completed, run_s) = run_chunked(CACHE_MAX_CYCLES, probe, |n| {
        let done = sim.run_until(n, |s| {
            s.component::<CoreModel>(core).expect("core").is_done()
        });
        (done, sim.cycle())
    });
    phases.run = run_s;

    let t = Instant::now();
    let telemetry = sim.telemetry();
    let kernel = sim.kernel_stats();
    let profile = sim.profile();
    phases.harvest = secs(t);
    let layers = classify_all(&sim.topology())?;
    let stats = LayerStats::collect(&layers, &profile, &kernel, &telemetry)?;

    let t = Instant::now();
    let clean = kernel_clean(&sim).and_then(|()| {
        catch_unwind(AssertUnwindSafe(|| rig.assert_clean(&sim)))
            .map_err(|_| "conformance: the monitor rig reported violations".to_owned())
    });
    phases.check = secs(t);

    let c = sim.component::<CoreModel>(core).expect("core");
    let k = sim.component::<CacheModel>(cache).expect("cache").stats();
    let cycles = c.finished_at().unwrap_or_else(|| sim.cycle());
    let base = if frag.is_some() {
        base_cycles
    } else {
        Some(cycles)
    };
    let row = vec![
        ("perf_pct", base.unwrap_or(0) as f64 / cycles as f64 * 100.0),
        ("lat_mean", c.latency().mean().unwrap_or(0.0)),
        ("llc_hit_pct", k.hit_rate().unwrap_or(0.0) * 100.0),
        ("writebacks", k.writebacks as f64),
    ];
    let visits: Vec<u64> = profile.iter().map(|p| p.visits).collect();
    let failure = verdict(&[
        completed
            .then_some(())
            .ok_or_else(|| format!("overran {CACHE_MAX_CYCLES} cycles")),
        (lint.error_count() == 0)
            .then_some(())
            .ok_or_else(|| format!("realm-lint: {} error(s)", lint.error_count())),
        clean,
        base.map(|_| ())
            .ok_or_else(|| "no single-source baseline".to_owned()),
        expected.check(label, &row),
    ]);
    Ok(SystemRun {
        exec_cycles: cycles,
        fingerprint: fingerprint(&[
            &cycles,
            &c.latency(),
            &k,
            &kernel,
            &visits,
            telemetry.counters(),
            telemetry.histograms(),
        ]),
        label: label.to_owned(),
        phases,
        stats,
        row,
        failure,
    })
}

/// The extension_cache points the workload runs: single-source and three
/// fragmentations (its 13.7 M-cycle no-reservation point is left out).
fn cache_points() -> Vec<(String, Option<u16>)> {
    let mut points = vec![("single-source".to_owned(), None)];
    points.extend([16u16, 4, 1].map(|f| (format!("frag={f}"), Some(f))));
    points
}

fn cache_dram(expected: &Expected, probe: &mut Probe) -> Result<Vec<SystemRun>, String> {
    let points = cache_points();
    let mut base_cycles = None;
    let mut runs = Vec::with_capacity(points.len());
    for (label, frag) in points {
        let run = guarded(&label, || {
            cache_system(&label, frag, base_cycles, expected, probe)
        })?;
        if frag.is_none() && run.failure.is_none() {
            base_cycles = Some(run.exec_cycles);
        }
        runs.push(run);
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Layer, LAYERS};

    /// Every component of every system the three workloads build has a
    /// layer, and every layer is present somewhere.
    #[test]
    fn classifier_covers_every_workload_component() {
        let mut topologies: Vec<axi_sim::Topology> = fig6a_points()
            .into_iter()
            .map(|(_, point)| Testbench::new(fig6a_config(point)).sim().topology())
            .collect();
        topologies.push(Testbench::new(sparse_config()).sim().topology());
        topologies.extend(
            cache_points()
                .into_iter()
                .map(|(_, frag)| build_cache(frag).0.sim.topology()),
        );
        assert_eq!(topologies.len(), 16);
        let mut seen: Vec<Layer> = Vec::new();
        for topology in &topologies {
            let layers = classify_all(topology).expect("every component has a layer");
            for (component, layer) in topology.components.iter().zip(&layers) {
                assert_eq!(
                    component.is_observer(),
                    *layer == Layer::Conformance,
                    "{} is classified {layer:?}",
                    component.name
                );
            }
            seen.extend(layers);
        }
        for layer in LAYERS {
            assert!(seen.contains(&layer), "no component in layer {layer:?}");
        }
    }
}
