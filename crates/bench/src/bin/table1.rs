//! Reproduces **Table I**: the area decomposition of the Cheshire SoC with
//! three REALM units.
//!
//! The non-REALM block areas are the paper's published synthesis results
//! (we have no 12 nm flow); the REALM contributions are *recomputed* from
//! the Table II area model at the Cheshire parameter point and printed next
//! to the published values. The per-block rows go through the sweep harness
//! like every other binary; being analytic, each point reports
//! `KernelStats::default()` (no simulator runs here).
//!
//! ```text
//! cargo run --release -p realm-bench --bin table1
//! ```

use axi_realm::area::{AreaBreakdown, AreaParams};
use axi_sim::KernelStats;
use realm_bench::{run_sweep, ExperimentReport, Row};

/// Published Table I block areas in kGE (SoC blocks other than AXI-REALM).
const PUBLISHED_BLOCKS: &[(&str, f64)] = &[
    ("CVA6", 1860.0),
    ("LLC", 1350.0),
    ("Interconnect", 206.0),
    ("Peripherals", 163.0),
    ("iDMA", 26.3),
    ("Bootrom", 12.9),
    ("IRQ subsys", 11.1),
    ("Rest", 20.5),
];

/// Published AXI-REALM contributions in kGE.
const PUBLISHED_RT_UNITS: f64 = 83.6;
const PUBLISHED_RT_CFG: f64 = 9.8;
const PUBLISHED_SOC: f64 = 3810.0;

fn main() {
    // Analytic binary: no simulator is constructed, so gate on the
    // default Cheshire system explicitly.
    cheshire_soc::startup_lint("table1");

    let breakdown = AreaBreakdown::evaluate(AreaParams::cheshire());
    let model_units = breakdown.units_ge() / 1000.0;
    let model_cfg = breakdown.config_ge() / 1000.0;

    let base_soc: f64 = PUBLISHED_BLOCKS.iter().map(|(_, kge)| kge).sum();
    let soc_total = base_soc + model_units + model_cfg;

    let mut report = ExperimentReport::new(
        "Table I",
        "area decomposition of the Cheshire SoC (kGE; published vs. area-model estimate)",
    );
    let points = PUBLISHED_BLOCKS
        .iter()
        .map(|&(name, kge)| (name.to_owned(), kge))
        .collect();
    let outcome = run_sweep(points, |&kge| (kge, KernelStats::default()));
    for (&kge, rt) in outcome.results.iter().zip(&outcome.runtime) {
        report.push(Row::new(
            rt.label.clone(),
            vec![
                ("published_kGE", kge),
                ("modelled_kGE", kge), // non-REALM blocks are taken as published
                ("pct_of_soc", kge / soc_total * 100.0),
            ],
        ));
    }
    report.push(Row::new(
        "3 RT units",
        vec![
            ("published_kGE", PUBLISHED_RT_UNITS),
            ("modelled_kGE", model_units),
            ("pct_of_soc", model_units / soc_total * 100.0),
        ],
    ));
    report.push(Row::new(
        "RT CFG",
        vec![
            ("published_kGE", PUBLISHED_RT_CFG),
            ("modelled_kGE", model_cfg),
            ("pct_of_soc", model_cfg / soc_total * 100.0),
        ],
    ));
    report.push(Row::new(
        "SoC total",
        vec![
            ("published_kGE", PUBLISHED_SOC),
            ("modelled_kGE", soc_total),
            ("pct_of_soc", 100.0),
        ],
    ));
    report.runtime = outcome.runtime_rows();

    let overhead = (model_units + model_cfg) / soc_total * 100.0;
    report.note(format!(
        "AXI-REALM overhead: modelled {overhead:.2} % of the SoC (paper: 2.45 %, 83.6 kGE units + 9.8 kGE cfg)"
    ));
    report.note(
        "RT unit parameterisation: 64 b addr/data, write buffer depth 16, 8 outstanding, 2 regions",
    );

    print!("{}", report.render());
    if let Err(e) = report.write_json("results/table1.json") {
        eprintln!("could not write results/table1.json: {e}");
    }
    // Analytic binary: no simulator ran, so the registry is empty — the
    // dump still appears under REALM_TELEMETRY so tooling sees a uniform
    // file set across all experiment binaries.
    realm_bench::telemetry::maybe_export_registry("table1", &realm_telemetry::TelemetrySink::new());
}
