//! The result line: operation counts, the correctness verdict, and metrics.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// False iff a pass-level check failed (store damage, a cache miss on
    /// the warm pass, nondeterminism between cycles, a layer error).
    pub correct: bool,
    /// Operations attempted (items, over all cycles).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Distinct failure descriptions, for the log.
    pub failures: BTreeSet<String>,
}

impl Report {
    /// The JSON object the benchmark prints as its last line.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // Non-finite values have no JSON form; they only arise from a
            // zero denominator, which reads as "no work of this kind".
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Running tally of operations and check failures.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// See [`Report::correct`].
    pub correct: bool,
    /// See [`Report::attempted`].
    pub attempted: u64,
    /// See [`Report::failed`].
    pub failed: u64,
    /// See [`Report::failures`].
    pub failures: BTreeSet<String>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            failures: BTreeSet::new(),
        }
    }
}

impl Ledger {
    /// Records `n` operations, of which `failed` failed a check.
    pub fn attempt(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Notes why an item failed (kept once per distinct message).
    pub fn note(&mut self, item: &str, why: &str) {
        self.failures.insert(format!("{item}: {why}"));
    }

    /// A pass-level check failed: the run's figures are not trustworthy.
    pub fn broken(&mut self, what: &str, why: &str) {
        self.correct = false;
        self.note(what, why);
    }

    /// Finishes the report.
    pub fn into_report(self, metrics: Vec<Metric>) -> Report {
        Report {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            failures: self.failures,
        }
    }
}
