//! Output checks that do not rely on the program's own verdicts.
//!
//! A target's exposability is decided here by two independent engines (the
//! `perple-solve` constraint solver and the `enumerate` operational
//! classifier), never read from a record's `forbidden` flag; counts are
//! cross-checked between counters; campaign passes are checked against the
//! store (`fsck`) and against each other.

use perple::campaign::{FsckReport, OutcomeRecord, RunSummary};
use perple::{classify, solve, LitmusTest, ModelId};
use perple_model::Quantifier;

use crate::layers::Layers;

/// Iterations of the prefix on which the rf count is compared with the
/// exhaustive count (`N^T_L` frames: 27M for a three-load-thread test).
pub const PREFIX_ITERATIONS: u64 = 300;

/// Static verdict on a test's target under one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// `perple-solve`: whether some outcome matching the condition is
    /// feasible; `None` when the solver abstains on one of them.
    pub solver: Option<bool>,
    /// The operational enumerator's verdict.
    pub enumerator: bool,
}

impl Verdict {
    /// Checks an observed hit count against the verdict: the two engines
    /// must agree, and a target both forbid must never fire.
    ///
    /// # Errors
    /// A description of the failed check.
    pub fn check_hits(&self, hits: u64) -> Result<(), String> {
        match self.solver {
            Some(s) if s != self.enumerator => Err(format!(
                "solver says the target is {}, the enumerator says {}",
                allowed_word(s),
                allowed_word(self.enumerator)
            )),
            Some(false) if hits > 0 => Err(format!(
                "{hits} hits on a target both engines forbid under the machine's model"
            )),
            _ => Ok(()),
        }
    }
}

fn allowed_word(allowed: bool) -> &'static str {
    if allowed {
        "allowed"
    } else {
        "forbidden"
    }
}

/// Verdicts on `test`'s target under each of `models` (one classification,
/// then solver queries per model).
pub fn verdicts(test: &LitmusTest, models: &[ModelId], layers: &mut Layers) -> Vec<Verdict> {
    let class = layers.call("bench.classify", || classify(test));
    models
        .iter()
        .map(|&m| Verdict {
            solver: solver_verdict(test, m, layers),
            enumerator: class.allowed_under(m),
        })
        .collect()
}

/// The solver's verdict on the target: allowed iff some full outcome
/// matching the condition is feasible.
fn solver_verdict(test: &LitmusTest, model: ModelId, layers: &mut Layers) -> Option<bool> {
    let cond = test.target();
    if cond.quantifier() != Quantifier::Exists || cond.inspects_memory() {
        return None;
    }
    for o in test.outcomes_matching_condition() {
        match layers.call("bench.solve", || solve::feasible(test, &o, model)) {
            Ok(true) => return Some(true),
            Ok(false) => {}
            Err(_) => return None,
        }
    }
    Some(false)
}

/// The heuristic counter examines a subset of the frames the exact counter
/// does, so it can never report more.
///
/// # Errors
/// A description of the failed check.
pub fn check_heuristic_le_exact(heuristic: u64, exact: u64) -> Result<(), String> {
    if heuristic > exact {
        return Err(format!(
            "heuristic count {heuristic} exceeds exact count {exact}"
        ));
    }
    Ok(())
}

/// The rf counter must equal the exhaustive scan on the same buffers.
///
/// # Errors
/// A description of the failed check.
pub fn check_rf_matches_exhaustive(rf: u64, exhaustive: u64) -> Result<(), String> {
    if rf != exhaustive {
        return Err(format!(
            "rf count {rf} != exhaustive count {exhaustive} on the {PREFIX_ITERATIONS}-iteration prefix"
        ));
    }
    Ok(())
}

/// A cold pass executes every item; a warm pass serves every item from the
/// cache.
///
/// # Errors
/// A description of the failed check.
pub fn check_pass(summary: &RunSummary, warm: bool) -> Result<(), String> {
    let (what, served) = if warm {
        ("cache hits", summary.hits)
    } else {
        ("executed", summary.executed)
    };
    if served != summary.items || summary.lost != 0 || summary.quarantined != 0 {
        return Err(format!(
            "{what} {served} of {} items (lost {}, quarantined {})",
            summary.items, summary.lost, summary.quarantined
        ));
    }
    Ok(())
}

/// The store must be free of defects after every pass.
///
/// # Errors
/// A description of the failed check.
pub fn check_fsck(report: &FsckReport) -> Result<(), String> {
    if !report.is_clean() {
        return Err(format!(
            "fsck found {} defect(s): {}",
            report.findings.len(),
            report.render_text().trim()
        ));
    }
    Ok(())
}

/// Slots where a pass's records differ from the reference pass's (a
/// missing record on either side counts as a difference).
pub fn differing_records(
    reference: &[Option<OutcomeRecord>],
    pass: &[Option<OutcomeRecord>],
) -> Vec<usize> {
    let len = reference.len().max(pass.len());
    (0..len)
        .filter(|&i| match (reference.get(i), pass.get(i)) {
            (Some(Some(a)), Some(Some(b))) => a != b,
            _ => true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple::campaign::{Finding, RunSummary};
    use perple::suite;

    fn summary(items: usize, hits: usize, executed: usize) -> RunSummary {
        RunSummary {
            id: "t-0001".to_owned(),
            items,
            hits,
            executed,
            lost: 0,
            quarantined: 0,
            violations: 0,
            recovered: 0,
        }
    }

    fn record(test: &str, exhaustive: u64) -> OutcomeRecord {
        OutcomeRecord {
            test: test.to_owned(),
            seed: 1,
            fingerprint: "00".to_owned(),
            forbidden: false,
            model: None,
            heuristic: 0,
            exhaustive,
            degraded: false,
            iterations: 150,
            run_complete: true,
            faults: 0,
            digest: 7,
            quarantined: false,
            fault_kind: None,
        }
    }

    #[test]
    fn a_hit_on_a_target_both_engines_forbid_fails() {
        let v = Verdict {
            solver: Some(false),
            enumerator: false,
        };
        assert!(v.check_hits(0).is_ok());
        assert!(v.check_hits(1).is_err());
    }

    #[test]
    fn engine_disagreement_fails_even_without_hits() {
        let v = Verdict {
            solver: Some(true),
            enumerator: false,
        };
        assert!(v.check_hits(0).is_err());
    }

    #[test]
    fn an_abstaining_solver_never_fails_the_check() {
        let v = Verdict {
            solver: None,
            enumerator: false,
        };
        assert!(v.check_hits(5).is_ok());
    }

    #[test]
    fn real_verdicts_forbid_sb_under_sc_and_allow_it_under_tso() {
        let mut layers = Layers::new(false);
        let v = verdicts(&suite::sb(), &[ModelId::Sc, ModelId::Tso], &mut layers);
        assert_eq!(v[0].solver, Some(false));
        assert!(!v[0].enumerator);
        assert_eq!(v[1].solver, Some(true));
        assert!(v[1].enumerator);
        assert!(
            v[0].check_hits(3).is_err(),
            "an SC machine must not show sb"
        );
        assert!(v[1].check_hits(3).is_ok());
    }

    #[test]
    fn count_checks_flag_bad_pairs() {
        assert!(check_heuristic_le_exact(3, 3).is_ok());
        assert!(check_heuristic_le_exact(4, 3).is_err());
        assert!(check_rf_matches_exhaustive(9, 9).is_ok());
        assert!(check_rf_matches_exhaustive(9, 8).is_err());
    }

    #[test]
    fn pass_checks_flag_misses_and_executions() {
        assert!(check_pass(&summary(4, 0, 4), false).is_ok());
        assert!(check_pass(&summary(4, 1, 3), false).is_err());
        assert!(check_pass(&summary(4, 4, 0), true).is_ok());
        assert!(check_pass(&summary(4, 3, 1), true).is_err());
    }

    #[test]
    fn fsck_findings_fail_the_check() {
        let mut report = FsckReport::default();
        assert!(check_fsck(&report).is_ok());
        report.findings.push(Finding {
            kind: perple::campaign::StorageKind::StaleIndex,
            path: "runs.jsonl".into(),
            detail: "torn line".to_owned(),
            repairable: true,
            repaired: false,
        });
        assert!(check_fsck(&report).is_err());
    }

    #[test]
    fn record_differences_are_found_by_slot() {
        let a = vec![Some(record("sb", 3)), Some(record("mp", 0))];
        assert!(differing_records(&a, &a).is_empty());
        let b = vec![Some(record("sb", 4)), Some(record("mp", 0))];
        assert_eq!(differing_records(&a, &b), vec![0]);
        let c = vec![Some(record("sb", 3)), None];
        assert_eq!(differing_records(&a, &c), vec![1]);
        assert_eq!(differing_records(&a, &a[..1]), vec![1]);
    }
}
