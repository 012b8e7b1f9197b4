//! The startup gate: how testbenches and experiment binaries consume a
//! [`Report`] at elaboration time.

use crate::diag::Report;

/// Applies a report at system startup: panics with the full report if any
/// error-severity finding exists, and stays quiet otherwise (parallel
/// sweeps construct hundreds of testbenches; the `lint_gate` binary
/// collects every finding instead).
pub fn apply(system: &str, report: &Report) {
    assert!(
        report.is_clean(),
        "realm-lint rejected system `{system}`:\n{report}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Diagnostic, Severity};

    #[test]
    fn apply_accepts_warnings() {
        let mut r = Report::new();
        r.push(Diagnostic::new("x-rule", Severity::Warning, "p", "m"));
        apply("test-system", &r); // must not panic
    }

    #[test]
    #[should_panic(expected = "realm-lint rejected system `bad-system`")]
    fn apply_panics_on_error() {
        let mut r = Report::new();
        r.push(Diagnostic::new("x-rule", Severity::Error, "p", "m"));
        apply("bad-system", &r);
    }
}
