//! Rotating seed sets: cycle `c` of a run draws its inputs from seed set
//! `c % SEED_SETS`. The first cycle over a set is checked in full; every
//! later cycle over it must reproduce that cycle's outputs exactly, so the
//! expensive checks run once per set while the timing keeps sampling.

use crate::report::Ledger;

/// Distinct seed sets a run rotates through. Hit counts vary from seed to
/// seed; a run reports their mean over the sets it ran.
pub const SEED_SETS: usize = 4;

/// Outputs of the first cycle over one seed set.
pub struct SeedSet<K> {
    keys: Vec<K>,
    failed: Vec<bool>,
    hits: u64,
}

impl<K: PartialEq> SeedSet<K> {
    /// The checked first cycle: each item's output key, whether it failed
    /// a check, and the hits of the items that passed.
    pub fn new(keys: Vec<K>, failed: Vec<bool>, hits: u64) -> Self {
        Self { keys, failed, hits }
    }

    /// Records one cycle over this set in the ledger: an item fails where
    /// it failed the first time, or where its output differs from the first
    /// time (which also marks the run broken).
    pub fn record_cycle(&self, keys: &[K], name: impl Fn(usize) -> String, ledger: &mut Ledger) {
        let mut failed = 0;
        for (i, (key, first)) in keys.iter().zip(&self.keys).enumerate() {
            if key != first {
                ledger.broken(
                    &name(i),
                    "output differs from the first cycle over its seeds",
                );
                failed += 1;
            } else if self.failed[i] {
                failed += 1;
            }
        }
        ledger.attempt(keys.len() as u64, failed);
    }
}

/// Mean hits per cycle over the seed sets a run went through.
pub fn mean_hits<K>(sets: &[SeedSet<K>]) -> f64 {
    if sets.is_empty() {
        return 0.0;
    }
    sets.iter().map(|s| s.hits as f64).sum::<f64>() / sets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_output_fails_the_item_and_the_run() {
        let set = SeedSet::new(vec![1, 2, 3], vec![false, true, false], 7);
        let mut ledger = Ledger::default();
        set.record_cycle(&[1, 2, 3], |i| i.to_string(), &mut ledger);
        assert_eq!(
            (ledger.attempted, ledger.failed, ledger.correct),
            (3, 1, true)
        );
        set.record_cycle(&[1, 2, 4], |i| i.to_string(), &mut ledger);
        assert_eq!(
            (ledger.attempted, ledger.failed, ledger.correct),
            (6, 3, false)
        );
    }

    #[test]
    fn hits_are_averaged_over_sets() {
        let sets = [
            SeedSet::new(vec![0], vec![false], 4),
            SeedSet::new(vec![0], vec![false], 8),
        ];
        assert_eq!(mean_hits(&sets), 6.0);
    }
}
