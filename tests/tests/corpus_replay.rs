//! Replays every checked-in fuzz-corpus entry (`tests/corpus/*.txt`)
//! through the fully monitored rig: each spec must lint clean, drain
//! without protocol violations, and hold the differential
//! bandwidth-bound oracle. Minimized campaign reproducers land here so
//! a fuzzed bug replays forever as a tier-1 test.

use std::collections::BTreeSet;
use std::path::PathBuf;

use realm_fuzz::{check, lint_spec, run_spec, SystemSpec};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Corpus entries sorted by file name — the same order the
/// `fuzz_campaign` binary seeds its round 0 with.
fn corpus() -> Vec<(String, SystemSpec)> {
    let mut paths: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|e| e == "txt")
                && p.file_name().is_some_and(|n| n != "coverage_baseline.txt")
        })
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let spec =
                SystemSpec::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            (name, spec)
        })
        .collect()
}

#[test]
fn corpus_is_nonempty_and_parses() {
    let entries = corpus();
    assert!(
        entries.len() >= 4,
        "expected the seeded corpus, found {} entries",
        entries.len()
    );
}

#[test]
fn every_corpus_entry_lints_clean() {
    for (name, spec) in corpus() {
        let report = lint_spec(&spec);
        assert_eq!(
            report.error_count(),
            0,
            "{name}: lint errors:\n{:?}",
            report.diagnostics()
        );
    }
}

#[test]
fn every_corpus_entry_replays_clean_and_holds_the_bound() {
    for (name, spec) in corpus() {
        let outcome = run_spec(&spec);
        assert!(
            outcome.finished,
            "{name}: hit the cycle cap at {}",
            outcome.cycle
        );
        assert!(
            outcome.conformance.is_clean(),
            "{name}: protocol violations:\n{}",
            outcome.conformance
        );
        let verdict = check(&spec, &outcome);
        if let Some(failed) = verdict.violations().first() {
            panic!(
                "{name}: manager {} finished at {} > bound {}",
                failed.manager, failed.finish, failed.bound
            );
        }
        // Feasible regulated entries actually exercise the oracle.
        if spec.feasible() && spec.managers.iter().any(|m| m.regulated()) {
            assert!(
                !verdict.checked.is_empty(),
                "{name}: feasible + regulated but no bound was checked"
            );
        }
    }
}

/// The checked-in coverage baseline is exactly what replaying the corpus
/// reaches: every baseline key recurs (no silent coverage regression),
/// and the file is not stale against entries that now reach more.
#[test]
fn corpus_replay_covers_the_checked_in_baseline() {
    let baseline_path = corpus_dir().join("coverage_baseline.txt");
    let text = std::fs::read_to_string(&baseline_path)
        .expect("tests/corpus/coverage_baseline.txt is checked in");
    let baseline: BTreeSet<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect();
    assert!(!baseline.is_empty(), "baseline has keys");

    let mut reached: BTreeSet<String> = BTreeSet::new();
    for (_, spec) in corpus() {
        let outcome = run_spec(&spec);
        reached.extend(outcome.coverage.keys().iter().cloned());
    }
    let missing: Vec<_> = baseline.difference(&reached).collect();
    assert!(
        missing.is_empty(),
        "coverage regression: baseline keys unreached by corpus replay: {missing:?}"
    );
    let extra: Vec<_> = reached.difference(&baseline).collect();
    assert!(
        extra.is_empty(),
        "stale baseline: corpus now reaches keys not in coverage_baseline.txt \
         (regenerate with REALM_FUZZ_WRITE_BASELINE=1): {extra:?}"
    );
}
