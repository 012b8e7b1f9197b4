//! The coverage-guided campaign driver.
//!
//! A [`Campaign`] is a deterministic state machine over batches: it hands
//! out a batch of specs to run ([`Campaign::next_batch`]), the caller
//! executes them — serially via [`run_batch_serial`] or in parallel
//! (the `fuzz_campaign` bench binary reuses `run_sweep`'s work-stealing
//! workers; results come back in input order either way) — and feeds the
//! outcomes back ([`Campaign::absorb`]). Everything that influences the
//! *next* batch (parent selection, mutation draws) happens inside the
//! driver from one seeded RNG, so the campaign's trajectory is a pure
//! function of `(config, seeds)` regardless of worker count.
//!
//! Guidance: a corpus entry's weight grows with the number of coverage
//! keys it *discovered*, so seeds that found new behaviour breed more.
//! With `guided = false` the driver ignores all feedback and mutates the
//! initial seeds uniformly — the control arm the guided-beats-random
//! acceptance test compares against.

use std::collections::BTreeSet;

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::mutate::{mutate, Mutation};
use crate::oracle::{self, ManagerCheck};
use crate::rig::{run_spec, RunOutcome};
use crate::spec::SystemSpec;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed; the whole trajectory is a pure function of it.
    pub seed: u64,
    /// Specs per batch.
    pub batch: usize,
    /// Coverage feedback on (`false` = the pure-random control arm).
    pub guided: bool,
}

impl CampaignConfig {
    /// A small deterministic configuration for tests.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            batch: 8,
            guided: true,
        }
    }
}

/// One corpus entry: a spec that discovered coverage, with its lineage.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// The spec itself.
    pub spec: SystemSpec,
    /// Corpus index of the parent it was mutated from (`None` for
    /// initial seeds).
    pub parent: Option<usize>,
    /// The operator that produced it (`None` for initial seeds).
    pub op: Option<Mutation>,
    /// Coverage keys first seen by this entry's run.
    pub new_keys: u64,
    /// Signature hash of its run's coverage.
    pub signature: u64,
}

/// An oracle violation with its minimized reproducer.
#[derive(Clone, Debug)]
pub struct OracleViolation {
    /// The offending spec as fuzzed.
    pub spec: SystemSpec,
    /// The failing check (bound vs simulated finish).
    pub check: ManagerCheck,
    /// The spec after [`minimize_spec`] under the same oracle.
    pub minimized: SystemSpec,
}

/// A point on the coverage curve.
#[derive(Clone, Copy, Debug)]
pub struct CoveragePoint {
    /// Runs completed so far.
    pub runs: u64,
    /// Distinct coverage keys seen so far.
    pub keys: u64,
}

/// A spec scheduled but not yet absorbed.
struct Pending {
    spec: SystemSpec,
    parent: Option<usize>,
    op: Option<Mutation>,
}

/// The campaign state machine. See the module docs for the protocol.
pub struct Campaign {
    cfg: CampaignConfig,
    rng: StdRng,
    seeds: Vec<SystemSpec>,
    corpus: Vec<CorpusEntry>,
    seen: BTreeSet<String>,
    pending: Vec<Pending>,
    curve: Vec<CoveragePoint>,
    round: u64,
    runs: u64,
    oracle_checked: u64,
    feasible_runs: u64,
    unfinished_runs: u64,
    conformance_violations: u64,
    violations: Vec<OracleViolation>,
}

impl Campaign {
    /// Creates a campaign whose round 0 runs `seeds` verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or any seed fails validation.
    pub fn new(cfg: CampaignConfig, seeds: Vec<SystemSpec>) -> Self {
        assert!(!seeds.is_empty(), "a campaign needs at least one seed");
        for (i, seed) in seeds.iter().enumerate() {
            if let Err(e) = seed.validate() {
                panic!("campaign seed {i} is invalid: {e}");
            }
        }
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            cfg,
            rng,
            seeds,
            corpus: Vec::new(),
            seen: BTreeSet::new(),
            pending: Vec::new(),
            curve: Vec::new(),
            round: 0,
            runs: 0,
            oracle_checked: 0,
            feasible_runs: 0,
            unfinished_runs: 0,
            conformance_violations: 0,
            violations: Vec::new(),
        }
    }

    /// Produces the next batch of specs to execute. Labels are
    /// `r{round}.{index}` for progress displays. Call [`Campaign::absorb`]
    /// with the outcomes (in the same order) before the next batch.
    pub fn next_batch(&mut self) -> Vec<(String, SystemSpec)> {
        assert!(self.pending.is_empty(), "absorb the previous batch first");
        if self.round == 0 {
            self.pending = self
                .seeds
                .clone()
                .into_iter()
                .map(|spec| Pending {
                    spec,
                    parent: None,
                    op: None,
                })
                .collect();
        } else {
            for _ in 0..self.cfg.batch {
                let (spec, parent, op) = if self.cfg.guided && !self.corpus.is_empty() {
                    let parent = self.pick_weighted_parent();
                    let (spec, op) = mutate(&self.corpus[parent].spec, &mut self.rng);
                    (spec, Some(parent), Some(op))
                } else {
                    // Control arm: uniform mutation of the initial seeds,
                    // no feedback of any kind.
                    let i = self.rng.gen_range(0..self.seeds.len());
                    let (spec, op) = mutate(&self.seeds[i], &mut self.rng);
                    (spec, None, Some(op))
                };
                self.pending.push(Pending { spec, parent, op });
            }
        }
        self.pending
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("r{}.{i}", self.round), p.spec.clone()))
            .collect()
    }

    /// Weighted parent pick: `1 + 2 * min(new_keys, 32)` per entry, so
    /// discoverers breed without starving the rest of the corpus.
    fn pick_weighted_parent(&mut self) -> usize {
        let weights: Vec<u64> = self
            .corpus
            .iter()
            .map(|e| 1 + 2 * e.new_keys.min(32))
            .collect();
        let total: u64 = weights.iter().sum();
        let mut ticket = self.rng.gen_range(0..total);
        for (i, w) in weights.iter().enumerate() {
            if ticket < *w {
                return i;
            }
            ticket -= w;
        }
        self.corpus.len() - 1
    }

    /// Feeds back one batch of outcomes, in `next_batch` order: updates
    /// the corpus with coverage discoverers, tallies oracle and
    /// conformance verdicts, minimizes any oracle violation.
    pub fn absorb(&mut self, outcomes: Vec<RunOutcome>) {
        assert_eq!(
            outcomes.len(),
            self.pending.len(),
            "one outcome per scheduled spec"
        );
        for (pending, outcome) in std::mem::take(&mut self.pending).into_iter().zip(outcomes) {
            self.runs += 1;
            if !outcome.finished {
                self.unfinished_runs += 1;
            }
            self.conformance_violations += outcome.conformance.total_violations();

            let new_keys = outcome.coverage.keys().difference(&self.seen).count() as u64;
            self.seen.extend(outcome.coverage.keys().iter().cloned());
            // Corpus admission: discoverers only (guided mode reads it;
            // the control arm never will, but keeping the bookkeeping
            // identical makes the two arms differ *only* in selection).
            if new_keys > 0 {
                self.corpus.push(CorpusEntry {
                    spec: pending.spec.clone(),
                    parent: pending.parent,
                    op: pending.op,
                    new_keys,
                    signature: outcome.coverage.signature_hash(),
                });
            }

            let verdict = oracle::check(&pending.spec, &outcome);
            if verdict.feasible {
                self.feasible_runs += 1;
            }
            self.oracle_checked += verdict.checked.len() as u64;
            for check in verdict.violations() {
                let minimized = minimize_spec(&pending.spec, |candidate| {
                    let out = run_spec(candidate);
                    oracle::check(candidate, &out)
                        .violations()
                        .iter()
                        .any(|c| !c.ok)
                });
                self.violations.push(OracleViolation {
                    spec: pending.spec.clone(),
                    check,
                    minimized,
                });
            }
        }
        self.round += 1;
        self.curve.push(CoveragePoint {
            runs: self.runs,
            keys: self.seen.len() as u64,
        });
    }

    /// Runs `rounds` batches serially (round 0 = the seeds).
    pub fn run_serial(&mut self, rounds: u64) {
        for _ in 0..rounds {
            let batch = self.next_batch();
            self.absorb(run_batch_serial(&batch));
        }
    }

    /// Distinct coverage keys seen so far.
    pub fn coverage_keys(&self) -> u64 {
        self.seen.len() as u64
    }

    /// The sorted coverage-key set itself (for baseline files).
    pub fn seen_keys(&self) -> &BTreeSet<String> {
        &self.seen
    }

    /// The coverage curve, one point per absorbed batch.
    pub fn curve(&self) -> &[CoveragePoint] {
        &self.curve
    }

    /// The corpus of coverage discoverers, in admission order.
    pub fn corpus(&self) -> &[CorpusEntry] {
        &self.corpus
    }

    /// Total runs absorbed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Managers checked against the bandwidth bound.
    pub fn oracle_checked(&self) -> u64 {
        self.oracle_checked
    }

    /// Runs whose spec lint declared feasible.
    pub fn feasible_runs(&self) -> u64 {
        self.feasible_runs
    }

    /// Runs that hit the cycle cap.
    pub fn unfinished_runs(&self) -> u64 {
        self.unfinished_runs
    }

    /// Protocol-monitor violations across all runs (expected zero).
    pub fn conformance_violations(&self) -> u64 {
        self.conformance_violations
    }

    /// Oracle violations with minimized reproducers (expected empty;
    /// every entry is a real bug).
    pub fn violations(&self) -> &[OracleViolation] {
        &self.violations
    }
}

/// Executes one batch serially — the reference executor; parallel
/// executors must return the same outcomes in the same order.
pub fn run_batch_serial(batch: &[(String, SystemSpec)]) -> Vec<RunOutcome> {
    batch.iter().map(|(_, spec)| run_spec(spec)).collect()
}

/// Spec-level ddmin: greedily drops managers, then walks each manager's
/// magnitudes (ops, burst length, waits) toward minimal values, keeping
/// every step on which `still_fails` holds. The oracle runs a full
/// simulation per probe, so minimization cost scales with spec size —
/// which the structural phase shrinks first, exactly like the
/// script-level `axi_traffic::shrink`.
pub fn minimize_spec<F: FnMut(&SystemSpec) -> bool>(
    spec: &SystemSpec,
    mut still_fails: F,
) -> SystemSpec {
    let mut current = spec.clone();
    // Structural phase: drop managers while the failure persists.
    let mut i = 0;
    while current.managers.len() > 1 && i < current.managers.len() {
        let mut candidate = current.clone();
        candidate.managers.remove(i);
        if still_fails(&candidate) {
            current = candidate;
        } else {
            i += 1;
        }
    }
    // Parameter phase: shrink magnitudes per manager to a fixpoint.
    let mut progress = true;
    while progress {
        progress = false;
        for m in 0..current.managers.len() {
            let original = current.managers[m];
            for candidate_mgr in smaller_variants(&original) {
                let mut candidate = current.clone();
                candidate.managers[m] = candidate_mgr;
                if still_fails(&candidate) {
                    current = candidate;
                    progress = true;
                    break;
                }
            }
        }
    }
    current
}

/// Smaller-magnitude variants of one manager, most aggressive first.
fn smaller_variants(m: &crate::spec::ManagerSpec) -> Vec<crate::spec::ManagerSpec> {
    let mut out = Vec::new();
    for ops in [1, m.ops / 2, m.ops.saturating_sub(1)] {
        if (1..m.ops).contains(&ops) {
            let mut v = *m;
            v.ops = ops;
            out.push(v);
        }
    }
    for beats in [1, m.max_beats / 2, m.max_beats.saturating_sub(1)] {
        if (1..m.max_beats).contains(&beats) {
            let mut v = *m;
            v.max_beats = beats;
            out.push(v);
        }
    }
    if m.max_wait > 0 {
        let mut v = *m;
        v.max_wait = 0;
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds() -> Vec<SystemSpec> {
        vec![
            SystemSpec::baseline(0xA11CE),
            SystemSpec::baseline(0xB0B),
            SystemSpec::baseline(0xC0FFEE),
        ]
    }

    #[test]
    fn campaign_is_deterministic() {
        let mut a = Campaign::new(CampaignConfig::quick(42), seeds());
        let mut b = Campaign::new(CampaignConfig::quick(42), seeds());
        a.run_serial(3);
        b.run_serial(3);
        assert_eq!(a.coverage_keys(), b.coverage_keys());
        assert_eq!(a.runs(), b.runs());
        assert_eq!(a.corpus().len(), b.corpus().len());
        assert_eq!(
            a.seen_keys().iter().collect::<Vec<_>>(),
            b.seen_keys().iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn corpus_tracks_lineage_and_novelty() {
        let mut c = Campaign::new(CampaignConfig::quick(7), seeds());
        c.run_serial(3);
        assert!(c.runs() >= 3 + 2 * 8, "3 seeds + 2 mutation rounds");
        let corpus = c.corpus();
        assert!(!corpus.is_empty());
        // Round-0 seeds have no lineage; every later discoverer does.
        assert!(corpus[0].parent.is_none() && corpus[0].op.is_none());
        for entry in corpus {
            assert!(entry.new_keys > 0, "corpus admits only discoverers");
            if let Some(parent) = entry.parent {
                assert!(parent < corpus.len());
                assert!(entry.op.is_some());
            }
        }
        // The curve is monotone in both axes.
        for pair in c.curve().windows(2) {
            assert!(pair[1].runs > pair[0].runs);
            assert!(pair[1].keys >= pair[0].keys);
        }
    }

    #[test]
    fn minimize_spec_shrinks_structure_and_parameters() {
        // Failure = "has a regulated manager" — minimization must strip
        // the unregulated one and shrink the survivor's magnitudes.
        let mut spec = SystemSpec {
            managers: vec![
                crate::spec::ManagerSpec::baseline(1),
                crate::spec::ManagerSpec::baseline(2),
            ],
        };
        spec.managers[1].budget = 512;
        spec.managers[1].period = 256;
        let minimal = minimize_spec(&spec, |s| s.managers.iter().any(|m| m.regulated()));
        assert_eq!(minimal.managers.len(), 1, "structural phase drops one");
        let survivor = minimal.managers[0];
        assert!(survivor.regulated());
        assert_eq!(survivor.ops, 1, "ops minimized");
        assert_eq!(survivor.max_beats, 1, "burst length minimized");
        assert_eq!(survivor.max_wait, 0, "waits removed");
    }
}
