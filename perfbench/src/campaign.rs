//! `campaign-cold` and `campaign-warm`: the generated campaign
//! (`generated.campaign`, a copy of `examples/generated.campaign` on one
//! worker) through `experiments::campaign::run_spec`.
//!
//! Cold passes each start from a fresh store and exercise the write path
//! (journal appends, cache puts, fsyncs) and classification. Warm passes
//! each start from a copy of the store one cold pass filled, so every pass
//! sees the same store and serves every item from the cache.

use std::fs;
use std::path::Path;
use std::time::Instant;

use perple::campaign::{
    fsck, ArtifactCache, CampaignItem, CampaignSpec, OutcomeRecord, RunStore, RunSummary, StoreIo,
};
use perple::experiments::campaign::{expand_items, lint_spec_tests, run_spec_observed};
use perple::{Conversion, LitmusTest};

use crate::checks;
use crate::layers::{self, Figures, Layers, Section};
use crate::report::{Ledger, Metric, Report};
use crate::{fastest, repeat_for, Options, Scale};

/// The campaign spec. Its one seed is fixed: the run's seed does not
/// change the campaign (see README, "Seeds").
const SPEC: &str = include_str!("../generated.campaign");

/// Set-ups per cold pass. A set-up is ~25 ms of CPU work and a run has
/// only two or three passes, so each pass takes many samples back to back
/// for the fastest of them to reach a quiet moment of the host.
const COLD_SETUP_REPEATS: usize = 25;

/// A parsed and expanded spec.
struct Prepared {
    spec: CampaignSpec,
    model: perple::ModelId,
    items: Vec<(LitmusTest, CampaignItem)>,
}

/// Parses and expands the spec (at tiny scale over the convertible suite
/// instead of the generated corpus).
fn prepare(scale: Scale) -> Result<Prepared, String> {
    let mut spec = CampaignSpec::parse(SPEC).map_err(|e| e.to_string())?;
    if scale == Scale::Tiny {
        spec.tests = vec!["convertible".to_owned()];
    }
    let (cfg, items) = expand_items(&spec).map_err(|e| e.to_string())?;
    Ok(Prepared {
        spec,
        model: cfg.model,
        items,
    })
}

/// One `run_spec` pass: its summary, the records in slot order, its wall,
/// and that wall cut into segments.
struct Pass {
    summary: Result<RunSummary, String>,
    records: Vec<Option<OutcomeRecord>>,
    wall: f64,
    /// The time up to the first item, between each two items reported in
    /// turn, and after the last one; they sum to `wall`. Items are
    /// reported as each chunk of the journal completes, so a chunk's time
    /// lands on its first item and the others read near zero.
    segments: Vec<f64>,
}

fn pass(spec: &CampaignSpec, root: &Path, items: usize) -> Pass {
    let mut records = vec![None; items];
    let mut marks = Vec::with_capacity(items);
    let start = Instant::now();
    // `run_spec` is this call with an observer that ignores the records.
    let summary = run_spec_observed(spec, root, false, StoreIo::unplanned(), |slot, rec| {
        marks.push(start.elapsed().as_secs_f64());
        if let Some(r) = records.get_mut(slot) {
            *r = rec.cloned();
        }
    });
    let wall = start.elapsed().as_secs_f64();
    marks.push(wall);
    let mut last = 0.0;
    let segments = marks
        .into_iter()
        .map(|m| {
            let d = m - last;
            last = m;
            d
        })
        .collect();
    Pass {
        summary,
        records,
        wall,
        segments,
    }
}

/// The pass time a run reports: the sum over segments of each segment's
/// fastest sample, as the audit and hunt workloads sum per-item fastest
/// samples. A run holds only two to four passes, so the fastest whole pass
/// depends on whether one of them met a quiet spell of the host; segment
/// by segment, each chunk only has to meet one. Falls back to the fastest
/// whole pass if passes reported items in different numbers.
fn pass_time(passes: &[Vec<f64>]) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    if passes.iter().any(|p| p.len() != first.len()) {
        let walls: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
        return fastest(&walls);
    }
    (0..first.len())
        .map(|i| fastest(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum()
}

/// Pass-level checks: the summary and a clean store. Returns false (and
/// marks the run broken) when they fail.
fn check_store(
    p: &Pass,
    root: &Path,
    warm: bool,
    layers: &mut Layers,
    ledger: &mut Ledger,
) -> bool {
    let summary = match &p.summary {
        Ok(s) => s,
        Err(e) => {
            ledger.broken("run_spec", e);
            return false;
        }
    };
    if let Err(e) = checks::check_pass(summary, warm) {
        ledger.broken("run_spec", &e);
        return false;
    }
    let report = layers.call("bench.check.fsck", || {
        let store = RunStore::open(root).map_err(|e| e.to_string())?;
        let cache = ArtifactCache::open(root).map_err(|e| e.to_string())?;
        fsck(&store, &cache, false).map_err(|e| e.to_string())
    });
    match report.and_then(|r| checks::check_fsck(&r)) {
        Ok(()) => true,
        Err(e) => {
            ledger.broken("fsck", &e);
            false
        }
    }
}

/// Copies a directory tree (regular files and directories only).
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Runs `campaign-warm` (`warm`) or `campaign-cold`.
///
/// # Errors
/// When the scratch directory cannot be created or the spec not expanded.
pub fn run(opts: &Options, warm: bool) -> Result<Report, String> {
    let work = &opts.work_dir;
    fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let out = run_in(opts, warm);
    let _ = fs::remove_dir_all(work);
    out
}

fn run_in(opts: &Options, warm: bool) -> Result<Report, String> {
    let work = &opts.work_dir;
    let Prepared {
        spec,
        model,
        items: expanded,
    } = prepare(opts.scale)?;
    let n_items = expanded.len();
    let mut ledger = Ledger::default();
    let mut off = Layers::new(false);

    // Set-up for warm passes: one cold pass fills the template store.
    let template = work.join("template");
    let mut setup_s = Vec::new();
    let mut reference = Vec::new();
    if warm {
        let start = Instant::now();
        let spec = prepare(opts.scale)?.spec;
        let cold = pass(&spec, &template, n_items);
        setup_s.push(start.elapsed().as_secs_f64());
        check_store(&cold, &template, false, &mut off, &mut ledger);
        reference = cold.records;
    }

    // Measured loop: whole passes, each checked against the store and the
    // reference records.
    let root = work.join("pass");
    let mut walls = Vec::new();
    let mut segments = Vec::new();
    let mut mismatched: Vec<Vec<usize>> = Vec::new();
    repeat_for(opts.seconds, |i| {
        let _ = fs::remove_dir_all(&root);
        let spec = if warm {
            if let Err(e) = copy_dir(&template, &root) {
                ledger.broken("store copy", &e.to_string());
            }
            spec.clone()
        } else {
            let mut prepared = spec.clone();
            for _ in 0..COLD_SETUP_REPEATS {
                let _ = fs::remove_dir_all(&root);
                let start = Instant::now();
                let opened = prepare(opts.scale).and_then(|p| {
                    RunStore::open(&root)
                        .and_then(|_| ArtifactCache::open(&root))
                        .map_err(|e| e.to_string())?;
                    Ok(p.spec)
                });
                setup_s.push(start.elapsed().as_secs_f64());
                match opened {
                    Ok(spec) => prepared = spec,
                    Err(e) => ledger.broken("set-up", &e),
                }
            }
            prepared
        };
        let p = pass(&spec, &root, n_items);
        walls.push(p.wall);
        segments.push(p.segments.clone());
        if !check_store(&p, &root, warm, &mut off, &mut ledger) {
            mismatched.push((0..n_items).collect());
        } else if !warm && i == 0 {
            mismatched.push(Vec::new());
            reference = p.records;
        } else {
            mismatched.push(checks::differing_records(&reference, &p.records));
        }
        let _ = fs::remove_dir_all(&root);
    });

    // Checks of the records (and, traced, one more pass plus direct calls
    // into each layer the pass goes through).
    let mut layers = Layers::new(opts.trace);
    let section = opts.trace.then(Section::start);
    let mut fig = Figures::default();
    let mut simulated = 0;
    if opts.trace {
        if warm {
            if let Err(e) = copy_dir(&template, &root) {
                ledger.broken("store copy", &e.to_string());
            }
        }
        let (p, counters) = layers::counters_during(|| {
            layers.call("bench.run_spec", || pass(&spec, &root, n_items))
        });
        if check_store(&p, &root, warm, &mut layers, &mut ledger)
            && !checks::differing_records(&reference, &p.records).is_empty()
        {
            ledger.broken("traced pass", "records differ from the reference pass");
        }
        fig.pass_counters = Some(counters);
        fig.store_bytes = dir_bytes(if warm { &template } else { &root });
        fig.overhead = (p.wall, walls[0]);
        if !warm {
            simulated = p.records.iter().flatten().map(|r| r.iterations).sum();
        }

        let corpus = layers.call("bench.generate", || {
            perple_model::generate::generate_corpus(6, 4)
        });
        for t in &corpus {
            let _ = layers.call("bench.convert", || Conversion::convert(t));
        }
        let mut distinct: Vec<_> = expanded.iter().map(|(t, _)| t.clone()).collect();
        distinct.sort_by(|a, b| a.name().cmp(b.name()));
        distinct.dedup_by(|a, b| a.name() == b.name());
        let _ = layers.call("bench.lint", || lint_spec_tests(&spec, &distinct));
        fig.linted_tests = distinct.len() as u64;
        match ArtifactCache::open(&root) {
            Ok(cache) => {
                for ((_, item), want) in expanded.iter().zip(&reference) {
                    let got =
                        layers.call("bench.load_result", || cache.load_result(item.fingerprint));
                    if got.as_ref() != want.as_ref() {
                        ledger.broken(&item.test, "cached record differs from the reference pass");
                    }
                }
            }
            Err(e) => ledger.broken("cache", &e.to_string()),
        }
        let _ = fs::remove_dir_all(&root);
    }

    let mut verdicts = std::collections::HashMap::new();
    for (test, _) in &expanded {
        if !verdicts.contains_key(test.name()) {
            let v = checks::verdicts(test, &[model], &mut layers)[0];
            verdicts.insert(test.name().to_owned(), v);
        }
    }
    let mut failed_slot = vec![false; n_items];
    let mut hits = 0u64;
    for (slot, ((test, _), record)) in expanded.iter().zip(&reference).enumerate() {
        let result = match record {
            None => Err("no record".to_owned()),
            Some(r) if r.quarantined => Err("quarantined".to_owned()),
            Some(r) => verdicts[test.name()]
                .check_hits(r.exhaustive)
                .and_then(|()| checks::check_heuristic_le_exact(r.heuristic, r.exhaustive))
                .map(|()| r.exhaustive),
        };
        match result {
            Ok(h) => hits += h,
            Err(e) => {
                failed_slot[slot] = true;
                ledger.note(test.name(), &e);
            }
        }
    }
    for differing in &mismatched {
        let mut failed = failed_slot.clone();
        for &slot in differing {
            failed[slot] = true;
        }
        ledger.attempt(n_items as u64, failed.iter().filter(|&&f| f).count() as u64);
    }

    let pass_s = pass_time(&segments);
    if let Some(section) = section {
        fig.hits = hits;
        let trace = layers::close_section(&mut fig, section);
        let pass_us: u64 = trace
            .spans
            .iter()
            .filter(|s| s.name == "bench.run_spec")
            .map(|s| s.dur_us)
            .sum();
        let inside = layers::nested_us(&trace, "bench.run_spec", &["convert", "simulate", "count"]);
        fig.campaign_attribution = Some((pass_us, inside));
        let sim_us = layers::nested_us(&trace, "bench.run_spec", &["simulate"]);
        fig.campaign_sim = Some((model, u128::from(sim_us) * 1000, simulated));
        fig.layers = layers;
        return Ok(ledger.into_report(fig.metrics()));
    }
    Ok(ledger.into_report(vec![
        Metric {
            name: "setup_s",
            value: fastest(&setup_s),
            unit: "s",
        },
        Metric {
            name: "items_per_s",
            value: n_items as f64 / pass_s,
            unit: "1/s",
        },
        Metric {
            name: "target_hits_per_s",
            value: hits as f64 / pass_s,
            unit: "1/s",
        },
    ]))
}

#[cfg(test)]
mod tests {
    use super::pass_time;

    #[test]
    fn pass_time_sums_each_segments_fastest_sample() {
        let passes = vec![vec![1.0, 4.0, 0.5], vec![2.0, 3.0, 0.25]];
        assert_eq!(pass_time(&passes), 1.0 + 3.0 + 0.25);
    }

    #[test]
    fn pass_time_falls_back_to_the_fastest_pass_when_segments_differ() {
        let passes = vec![vec![1.0, 4.0], vec![2.0, 1.0, 1.0]];
        assert_eq!(pass_time(&passes), 4.0);
        assert_eq!(pass_time(&[]), 0.0);
    }
}
