//! Reproduces **Table II**: the per-sub-block area coefficients of
//! AXI-REALM, and evaluates the model across the paper's parameter ranges.
//! The parameter-range evaluation fans out through the sweep harness; the
//! model is analytic, so every point reports `KernelStats::default()`.
//!
//! ```text
//! cargo run --release -p realm-bench --bin table2
//! ```

use axi_realm::area::{block_area_ge, AreaBreakdown, AreaParams, SUB_BLOCKS};
use axi_sim::KernelStats;
use realm_bench::{run_sweep, ExperimentReport, Row};

fn main() {
    // Analytic binary: no simulator is constructed, so gate on the
    // default Cheshire system explicitly.
    cheshire_soc::startup_lint("table2");

    // Part 1: the coefficient matrix exactly as published.
    let mut coeffs = ExperimentReport::new(
        "Table II",
        "area coefficients of AXI-REALM's sub-blocks (GE per parameter unit, 1 GHz typical)",
    );
    for block in &SUB_BLOCKS {
        let co = block.coefficients;
        coeffs.push(Row::new(
            format!("{} [{}]", block.name, block.scope),
            vec![
                ("addr/bit", co.addr_width),
                ("data/bit", co.data_width),
                ("pending/elem", co.num_pending),
                ("depth/elem", co.buffer_depth),
                ("storage/kibit", co.storage_kibit),
                ("constant", co.constant),
            ],
        ));
    }
    coeffs.note("coefficients transcribed verbatim from the paper's Table II");
    coeffs.note("storage = buffer depth x data width; interpreted in kibit (see EXPERIMENTS.md)");
    print!("{}", coeffs.render());
    if let Err(e) = coeffs.write_json("results/table2_coefficients.json") {
        eprintln!("could not write results/table2_coefficients.json: {e}");
    }

    // Part 2: model evaluation across the published parameter ranges.
    let mut sweep = ExperimentReport::new(
        "Table II (evaluated)",
        "area model across the paper's parameter ranges (single unit + its config registers)",
    );
    let points = [
        ("32b/2pend/d2", 32, 32, 2, 2),
        ("32b/8pend/d8", 32, 32, 8, 8),
        ("48b/8pend/d16", 48, 48, 8, 16),
        ("64b/2pend/d2", 64, 64, 2, 2),
        ("64b/8pend/d16*", 64, 64, 8, 16), // the Cheshire point
        ("64b/16pend/d16", 64, 64, 16, 16),
    ];
    let labelled = points
        .iter()
        .map(|&(label, aw, dw, pending, depth)| {
            (
                label.to_owned(),
                AreaParams {
                    addr_width: aw,
                    data_width: dw,
                    num_pending: pending,
                    buffer_depth: depth,
                    num_regions: 2,
                    num_units: 1,
                    splitter_present: true,
                },
            )
        })
        .collect();
    let outcome = run_sweep(labelled, |&params| {
        (AreaBreakdown::evaluate(params), KernelStats::default())
    });
    for (b, rt) in outcome.results.iter().zip(&outcome.runtime) {
        sweep.push(Row::new(
            rt.label.clone(),
            vec![
                ("unit_kGE", b.units_ge() / 1000.0),
                ("cfg_kGE", b.config_ge() / 1000.0),
                ("total_kGE", b.total_ge() / 1000.0),
            ],
        ));
    }
    // Per-block detail at the Cheshire point.
    let cheshire = AreaBreakdown::evaluate(AreaParams::cheshire());
    for line in &cheshire.lines {
        sweep.push(Row::new(
            format!("  {}", line.block.name),
            vec![
                ("unit_kGE", line.per_instance_ge / 1000.0),
                ("cfg_kGE", line.instances),
                ("total_kGE", line.total_ge / 1000.0),
            ],
        ));
    }
    sweep.runtime = outcome.runtime_rows();
    sweep.note(
        "* Cheshire evaluation point (per-block rows: per-instance kGE, instance count, total kGE)",
    );
    sweep.note(format!(
        "Burst Splitter per-instance check: {:.1} GE at the Cheshire point",
        block_area_ge(&SUB_BLOCKS[6], &AreaParams::cheshire())
    ));
    print!("{}", sweep.render());
    if let Err(e) = sweep.write_json("results/table2_evaluated.json") {
        eprintln!("could not write results/table2_evaluated.json: {e}");
    }
    // Analytic binary: no simulator ran, so the registry is empty (see
    // table1).
    realm_bench::telemetry::maybe_export_registry("table2", &realm_telemetry::TelemetrySink::new());
}
