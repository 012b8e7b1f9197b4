//! realm-perf: the simulator's end-to-end and per-layer benchmark.
//!
//! Runs one named workload, one simulation at a time on the calling
//! thread, for at least `--seconds` of host time, checks every
//! simulation's output, and prints each metric by name and unit. The last
//! line of standard output is one JSON object that `run.py` combines into
//! the benchmark's result. See README.md for the metrics and workloads.
//!
//! ```text
//! realm-perf --workload contention --mode e2e --seconds 20
//! ```
//!
//! Modes: `e2e` (the end-to-end metrics), `layers` (per-layer counts and
//! the timed public calls) and `traced` (the per-layer tick times; needs a
//! build with the `self-profile` feature).

mod layers;
mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use layers::{share, LayerStats, LAYERS};
use probe::{Probe, SLICE_NOMINAL_S};
use workloads::{SystemRun, Workload, SPARSE_ACCESSES, SPARSE_DMA_BUDGET, WORKLOADS};

/// What one invocation measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    EndToEnd,
    Layers,
    Traced,
}

/// Passes an end-to-end run makes at least, so that every reported time
/// pools several.
const MIN_E2E_PASSES: usize = 3;

/// Build-only rounds behind `setup_s` / `soc.build_s`.
const SETUP_ROUNDS: usize = 101;

/// Iterations of one clock-cost calibration round.
const CALIBRATION_ITERS: u32 = 1_000_000;

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("realm-perf: {e}");
            std::process::exit(2);
        }
    }
}

struct Args {
    workload: Workload,
    mode: Mode,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: realm-perf --workload <contention|sparse_regulated|cache_dram> \
                 --mode <e2e|layers|traced> --seconds <s>";
    let mut workload = None;
    let mut mode = None;
    let mut seconds = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {usage}"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}; one of {names:?}"))?,
                );
            }
            "--mode" => {
                mode = Some(match value.as_str() {
                    "e2e" => Mode::EndToEnd,
                    "layers" => Mode::Layers,
                    "traced" => Mode::Traced,
                    _ => return Err(format!("unknown mode {value:?}; {usage}")),
                });
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag:?}; {usage}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(usage)?,
        mode: mode.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
    })
}

/// The measured program runs at its defaults: every `REALM_*` knob
/// (kernel choice, monitors, lint, sanitizer, trace export) stays unset.
fn refuse_realm_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("REALM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {set:?} set: unset every REALM_* variable"
        ))
    }
}

/// One pass over the workload: its systems, its wall time without the
/// probe's slices, and the host speed factor the probe measured during it.
struct Pass {
    wall_s: f64,
    speed_factor: f64,
    systems: Vec<SystemRun>,
}

impl Pass {
    /// A phase's host seconds summed over the pass's systems.
    fn sum(&self, phase: impl Fn(&SystemRun) -> f64) -> f64 {
        self.systems.iter().map(phase).sum()
    }

    fn stats(&self) -> LayerStats {
        let mut total = LayerStats::default();
        for s in &self.systems {
            total.add(&s.stats);
        }
        total
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The process's peak resident set, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Host nanoseconds the self-profiler's clock pair adds to every measured
/// visit: the time between two back-to-back reads around an empty body,
/// median of five rounds.
fn calibrate_visit_cost_ns() -> f64 {
    let rounds = (0..5)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..CALIBRATION_ITERS {
                let t0 = Instant::now();
                std::hint::black_box(());
                total += t0.elapsed().as_nanos();
            }
            total as f64 / f64::from(CALIBRATION_ITERS)
        })
        .collect();
    median(rounds)
}

/// Metrics in report order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    refuse_realm_env()?;
    let traced_build = cfg!(feature = "self-profile");
    match (args.mode, traced_build) {
        (Mode::Traced, false) => {
            return Err("--mode traced needs a build with --features self-profile".into())
        }
        (Mode::EndToEnd | Mode::Layers, true) => {
            return Err("untraced modes need a build without the self-profile feature".into())
        }
        _ => {}
    }
    let expected = args.workload.expected()?;
    let visit_cost_ns = (args.mode == Mode::Traced).then(calibrate_visit_cost_ns);

    // Each build round is scaled by a slice taken right after it.
    let mut setup_probe = Probe::new();
    let setup: Vec<f64> = (0..SETUP_ROUNDS)
        .map(|_| args.workload.setup_round() * SLICE_NOMINAL_S / setup_probe.sample())
        .collect();

    let min_passes = if args.mode == Mode::EndToEnd {
        MIN_E2E_PASSES
    } else {
        1
    };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let mut probe = Probe::new();
        let t = Instant::now();
        let systems = args
            .workload
            .pass(&expected, args.mode == Mode::Layers, &mut probe)?;
        let wall_s = t.elapsed().as_secs_f64() - probe.slice_s();
        let speed_factor = probe.speed_factor();
        passes.push(Pass {
            wall_s,
            speed_factor,
            systems,
        });
    }

    // An untraced build carries no clock reads in the kernel; wall time in
    // its profile means feature unification slipped the profiler in.
    if !traced_build
        && passes
            .iter()
            .any(|p| p.stats().wall_ns.iter().any(|&ns| ns > 0))
    {
        return Err(
            "the untraced build attributed profiler wall time: the self-profile \
                    feature leaked into it, so its timings are not end to end"
                .into(),
        );
    }

    // Every repetition of a system must produce the same statistics.
    let first: Vec<u64> = passes[0].systems.iter().map(|s| s.fingerprint).collect();
    for pass in passes.iter_mut().skip(1) {
        for (system, &want) in pass.systems.iter_mut().zip(&first) {
            if system.failure.is_none() && system.fingerprint != want {
                system.failure = Some("statistics differ from the first pass".into());
            }
        }
    }
    let attempted: usize = passes.iter().map(|p| p.systems.len()).sum();
    let mut failed = 0;
    for (i, pass) in passes.iter().enumerate() {
        for s in &pass.systems {
            if let Some(why) = &s.failure {
                failed += 1;
                println!("FAILED pass {i} {}: {why}", s.label);
            }
        }
    }

    // Host seconds per pass at the nominal host speed: a time summed over
    // every pass, divided by the passes' summed speed factors. Pooling the
    // passes this way averages out the slow phases the factor does not
    // fully correct, which a median over passes keeps.
    let speed_sum: f64 = passes.iter().map(|p| p.speed_factor).sum();
    let scaled = |raw: &dyn Fn(&Pass) -> f64| passes.iter().map(raw).sum::<f64>() / speed_sum;
    let phase = |phase: fn(&SystemRun) -> f64| scaled(&|p: &Pass| p.sum(phase));
    let run_s = phase(|s| s.phases.run);
    let stats = passes[0].stats();
    let mut m = Metrics::default();
    match args.mode {
        Mode::EndToEnd => {
            m.put("sim_cycles_per_s", stats.cycles as f64 / run_s, "cycles/s");
            m.put("wall_s", scaled(&|p: &Pass| p.wall_s), "s");
            m.put("setup_s", median(setup), "s");
            m.put("peak_rss_mb", peak_rss_mib()?, "MiB");
        }
        Mode::Layers => {
            let visits = stats.total_visits();
            m.put("sim.run_s", run_s, "s");
            m.put("sim.visits", visits as f64, "count");
            m.put(
                "sim.visits_per_cycle",
                visits as f64 / stats.cycles as f64,
                "visits/cycle",
            );
            m.put(
                "sim.skipped_share",
                share(stats.cycles_skipped, stats.cycles - stats.cycles_skipped),
                "ratio",
            );
            for layer in LAYERS {
                m.put(
                    &format!("{}.visits", layer.key()),
                    stats.layer_visits(layer) as f64,
                    "count",
                );
            }
            m.put("conformance.check_s", phase(|s| s.phases.check), "s");
            m.put("realm.granted_beats", stats.granted_beats as f64, "count");
            m.put(
                "realm.isolated_cycles",
                stats.isolated_cycles as f64,
                "cycles",
            );
            m.put("xbar.grants", stats.xbar_grants as f64, "count");
            m.put(
                "xbar.stall_cycles",
                stats.xbar_stall_cycles as f64,
                "cycles",
            );
            m.put("mem.beats", stats.mem_beats as f64, "count");
            m.put(
                "mem.llc_hit_share",
                share(stats.llc_hits, stats.llc_misses),
                "ratio",
            );
            m.put("mem.writebacks", stats.writebacks as f64, "count");
            m.put(
                "mem.dram_row_hit_share",
                share(stats.row_hits, stats.row_misses),
                "ratio",
            );
            m.put("lint.analyze_s", phase(|s| s.phases.lint), "s");
            m.put("soc.build_s", phase(|s| s.phases.build), "s");
            m.put("telemetry.harvest_s", phase(|s| s.phases.harvest), "s");
        }
        Mode::Traced => {
            // Each layer's profiled time less the clock pair every visit
            // carries; scaled like the run time, so the layers and the
            // kernel's remainder add up to it exactly.
            let cost = visit_cost_ns.expect("calibrated in traced mode");
            let mut layer_sum = 0.0;
            for layer in LAYERS {
                let tick_s = scaled(&|p: &Pass| {
                    let s = p.stats();
                    (s.layer_wall_ns(layer) as f64 - s.layer_visits(layer) as f64 * cost) / 1e9
                });
                layer_sum += tick_s;
                m.put(&format!("{}.tick_s", layer.key()), tick_s, "s");
            }
            m.put("sim.kernel_self_s", run_s - layer_sum, "s");
            m.put("trace.run_s", run_s, "s");
            m.put("trace.visit_cost_ns", cost, "ns");
        }
    }

    let name = WORKLOADS
        .iter()
        .find(|(_, w)| *w == args.workload)
        .map(|(n, _)| *n)
        .expect("parsed from WORKLOADS");
    println!(
        "realm-perf {name} ({:?}): {} pass(es), {attempted} simulation(s), {failed} failed",
        args.mode,
        passes.len()
    );
    for (i, p) in passes.iter().enumerate() {
        println!(
            "  pass {i}: {:.3} s wall, {:.3} s in run calls, host speed factor {:.3} \
             (raw host seconds)",
            p.wall_s,
            p.sum(|s| s.phases.run),
            p.speed_factor
        );
    }
    for (metric, value, unit) in &m.0 {
        println!("  {metric:<24} {value:>16.6} {unit}");
    }
    if args.mode == Mode::EndToEnd {
        println!("{}", paper_error(args.workload, &passes[0]));
    }

    let fingerprints: BTreeMap<&str, String> = passes[0]
        .systems
        .iter()
        .map(|s| (s.label.as_str(), format!("{:016x}", s.fingerprint)))
        .collect();
    let fingerprints = fingerprints
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"workload\": \"{name}\", \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}, \"fingerprints\": {{{fingerprints}}}}}",
        m.json()
    );
    Ok(failed == 0)
}

/// The simulator's error against the paper's Fig. 6a numbers, printed
/// beside the speed metrics and never gated.
fn paper_error(workload: Workload, pass: &Pass) -> String {
    let value = |label: &str, column: &str| {
        pass.systems
            .iter()
            .find(|s| s.label == label)
            .and_then(|s| s.row.iter().find(|(c, _)| *c == column))
            .map(|&(_, v)| v)
    };
    match workload {
        Workload::Contention => {
            let mut out = String::from("paper error (recorded, not gated):");
            if let Some(perf) = value("frag=1", "perf_pct") {
                let _ = write!(
                    out,
                    "\n  frag=1 performance     {perf:.1} % vs paper 68.2 % ({:+.1} pp)",
                    perf - 68.2
                );
            }
            if let Some(lat) = value("no-reservation", "lat_min") {
                let _ = write!(
                    out,
                    "\n  uncontrolled min lat.  {lat:.0} vs paper 264 cycles ({:+.0})",
                    lat - 264.0
                );
            }
            if let Some(lat) = value("single-source", "lat_max") {
                let _ = write!(
                    out,
                    "\n  single-source max lat. {lat:.0} vs paper <= 8 cycles ({:+.0})",
                    lat - 8.0
                );
            }
            out
        }
        Workload::SparseRegulated => {
            let worst = value("sparse", "dma_worst_period_bytes").unwrap_or(f64::NAN);
            format!(
                "paper error: extension model, no paper reference \
                 ({SPARSE_ACCESSES} accesses; DMA worst period {worst:.0} B of a {SPARSE_DMA_BUDGET} B budget)"
            )
        }
        Workload::CacheDram => "paper error: extension model, no paper reference".into(),
    }
}
