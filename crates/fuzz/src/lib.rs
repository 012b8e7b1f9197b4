//! realm-fuzz: a coverage-guided fuzzing campaign with a differential
//! bandwidth-bound oracle for the AXI-REALM reproduction.
//!
//! The pieces, bottom-up:
//!
//! - [`SystemSpec`] ([`spec`]): the campaign's genome — N scripted
//!   managers with traffic shape, address windows, fragmentation, and
//!   bandwidth reservations; validated, and serializable as plain text
//!   for the `tests/corpus/` reproducer files.
//! - [`rig`]: builds the monitored system a spec describes (manager →
//!   REALM unit → crossbar → memory, protocol monitors on every port, a
//!   conservation scoreboard across the interconnect) and harvests the
//!   run's [`Coverage`] signature ([`coverage`]): per-port protocol-rule
//!   hits and channel activity, crossbar grant decisions, REALM
//!   regulation events and latency-histogram buckets, all read from the
//!   telemetry registry, plus the topology edges the run exercised.
//! - [`oracle`]: the differential check. realm-lint's budget arithmetic
//!   decides *feasibility*; for feasible specs the paper's
//!   min-granted-bandwidth guarantee converts into an additive
//!   completion-time bound per regulated manager, and a simulated run
//!   finishing later than the bound is a real bug.
//! - [`mutate`]: validity-preserving mutation operators over specs
//!   (burst lengths, address windows, budgets, periods, fragmentation,
//!   manager add/drop, seed nudges).
//! - [`Campaign`] ([`campaign`]): the deterministic driver — corpus with
//!   mutation lineage and coverage signatures, novelty-weighted parent
//!   selection, batch protocol for parallel execution, and spec-level
//!   ddmin for violation reproducers.
//!
//! The `fuzz_campaign` bench binary wraps a [`Campaign`] in `run_sweep`
//! workers and writes `results/fuzz_campaign.json`; see EXPERIMENTS.md
//! for running campaigns and reading the coverage curve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod coverage;
pub mod mutate;
pub mod oracle;
pub mod rig;
pub mod spec;

pub use campaign::{
    minimize_spec, run_batch_serial, Campaign, CampaignConfig, CorpusEntry, CoveragePoint,
    OracleViolation,
};
pub use coverage::Coverage;
pub use mutate::{apply_op, mutate, Mutation};
pub use oracle::{check, completion_bound, ManagerCheck, OracleVerdict};
pub use rig::{lint_spec, run_spec, ManagerOutcome, RunOutcome, MAX_RUN_CYCLES};
pub use spec::{ManagerSpec, SystemSpec, TrafficProfile, MAX_MANAGERS, WINDOW_BASE, WINDOW_SIZE};
