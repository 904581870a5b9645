//! `audit-rf`: the audit path (convert, TSO run, heuristic count, rf count)
//! over the convertible Table II tests plus four generated multi-writer
//! tests. Counting does most of the work: the two three-load-thread tests
//! (`podwr001`, `safe007`) dominate a cycle.

use std::time::Instant;

use perple::experiments::resilient::{audit_one, AuditRow};
use perple::experiments::ExperimentConfig;
use perple::{
    suite, Conversion, CountRequest, CountResult, Counter, CounterKind, ExhaustiveCounter,
    HeuristicCounter, LitmusTest, ModelId, PerpleError, PerpleRun, PerpleRunner, RfCounter,
};

use crate::checks::{self, PREFIX_ITERATIONS};
use crate::layers::{self, Figures, Layers, Section};
use crate::report::{Ledger, Metric, Report};
use crate::seeds::{mean_hits, SeedSet, SEED_SETS};
use crate::{fastest, item_seed, repeat_for, Options, Scale};

/// The generated tests with two writers on one location. Their conversion
/// is unsound (see DESIGN §5d), so each reports hits on a target every
/// model forbids and counts as a failed operation.
pub const MULTI_WRITER: [&str; 4] = [
    "dyn-PodRR-PodRR-Fre-Rfe-Fre-Rfe",
    "dyn-PodRR-PodRR-Fre-Rfe-Fre-Rfe-f0",
    "dyn-PodRR-PodRR-Fre-Rfe-Fre-Rfe-f1",
    "dyn-PodRR-PodRR-Fre-Rfe-Fre-Rfe-fall",
];

/// Simulator seed of the multi-writer items: fixed, so their failure does
/// not depend on the run's seed.
const MULTI_WRITER_SEED: u64 = 1;

/// Iterations per item.
pub fn iterations(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 2_500,
        Scale::Tiny => 300,
    }
}

/// One audited test and its simulator seed.
pub struct Item {
    /// The test.
    pub test: LitmusTest,
    /// Simulator seed.
    pub seed: u64,
}

/// The set-up of one cycle: the convertible suite plus the multi-writer
/// tests picked from a freshly generated corpus, each with its simulator
/// seed from seed set `set`.
fn setup(seed: u64, set: usize, layers: &mut Layers) -> Vec<Item> {
    let mut items: Vec<Item> = suite::convertible()
        .into_iter()
        .map(|test| Item {
            seed: item_seed(seed, &format!("{}#{set}", test.name())),
            test,
        })
        .collect();
    let corpus = layers.call("bench.generate", || {
        perple_model::generate::generate_corpus(6, 4)
    });
    for name in MULTI_WRITER {
        let test = corpus
            .iter()
            .find(|t| t.name() == name)
            .expect("the generated corpus contains the multi-writer tests")
            .clone();
        items.push(Item {
            test,
            seed: MULTI_WRITER_SEED,
        });
    }
    items
}

/// Conversion and run of one item, for checking its buffers.
fn resimulate(item: &Item, cfg: &ExperimentConfig) -> Result<(Conversion, PerpleRun), PerpleError> {
    let conv = Conversion::convert(&item.test)?;
    let run = PerpleRunner::new(cfg.sim_config(item.seed)).run_budgeted(
        &conv.perpetual,
        cfg.iterations,
        &cfg.stage_budget(),
    );
    Ok((conv, run))
}

/// The audit path, one layer call at a time, with the run kept for the
/// prefix check. Mirrors `audit_one` call for call.
struct Decomposed {
    conv: Conversion,
    run: PerpleRun,
    heuristic: CountResult,
    rf: CountResult,
}

fn decompose(
    item: &Item,
    cfg: &ExperimentConfig,
    layers: &mut Layers,
) -> Result<Decomposed, PerpleError> {
    let conv = layers.call("bench.convert", || Conversion::convert(&item.test))?;
    let mut runner = PerpleRunner::new(cfg.sim_config(item.seed));
    let run = layers.call(layers::sim_span(cfg.model), || {
        runner.run_budgeted(&conv.perpetual, cfg.iterations, &cfg.stage_budget())
    });
    let n = run.iterations;
    let bufs = run.bufs();
    let heur_budget = cfg.stage_budget();
    let heuristic = layers.call("bench.count.heuristic", || {
        HeuristicCounter::single(&conv.target_heuristic)
            .count(&CountRequest::new(&bufs, n).with_budget(&heur_budget))
    });
    let rf_budget = cfg.stage_budget();
    let rf = layers.call(layers::rf_span(item.test.load_thread_count()), || {
        RfCounter::single(&conv.target_exhaustive).count(
            &CountRequest::new(&bufs, n)
                .with_frame_cap(cfg.exhaustive_frame_cap)
                .with_budget(&rf_budget),
        )
    });
    drop(bufs);
    Ok(Decomposed {
        conv,
        run,
        heuristic,
        rf,
    })
}

/// The fields of an audit row that must repeat exactly for fixed inputs.
type RowKey = Result<(u64, u64, u64, bool, bool, u64), String>;

fn row_key(row: &Result<AuditRow, String>) -> RowKey {
    row.as_ref()
        .map(|r| {
            (
                r.heuristic,
                r.exhaustive,
                r.digest,
                r.degraded,
                r.rf_fallback,
                r.iterations,
            )
        })
        .map_err(Clone::clone)
}

/// Checks one audited item: its row against the static verdict and the
/// counter ordering, and its run's buffers (re-simulated, or taken from
/// the layer-by-layer run) against the exhaustive scan on a prefix.
/// Returns the failed checks; marks the run broken if the buffers are not
/// the ones the audit counted.
fn check_item(
    item: &Item,
    row: &AuditRow,
    conv: &Conversion,
    run: &PerpleRun,
    verdict: checks::Verdict,
    layers: &mut Layers,
    ledger: &mut Ledger,
) -> Vec<String> {
    if run.content_digest() != row.digest {
        ledger.broken(
            item.test.name(),
            "re-simulated buffers differ from the audited run",
        );
    }
    let mut errors: Vec<String> = verdict
        .check_hits(row.exhaustive)
        .err()
        .into_iter()
        .collect();
    errors.extend(checks::check_heuristic_le_exact(row.heuristic, row.exhaustive).err());
    let prefix = PREFIX_ITERATIONS.min(run.iterations);
    let bufs = run.bufs();
    let req = CountRequest::new(&bufs, prefix);
    let rf = layers.call("bench.check.rf", || {
        RfCounter::single(&conv.target_exhaustive).count(&req)
    });
    let exhaustive = layers.call("bench.check.exhaustive", || {
        ExhaustiveCounter::single(&conv.target_exhaustive).count(&req)
    });
    errors.extend(checks::check_rf_matches_exhaustive(rf.counts[0], exhaustive.counts[0]).err());
    errors
}

/// Static verdicts under `model` for every item's test.
fn verdicts(items: &[Item], model: ModelId, layers: &mut Layers) -> Vec<checks::Verdict> {
    items
        .iter()
        .map(|item| checks::verdicts(&item.test, &[model], layers)[0])
        .collect()
}

/// Runs the workload.
pub fn run(opts: &Options) -> Report {
    let cfg = ExperimentConfig::builder()
        .iterations(iterations(opts.scale))
        .counter(CounterKind::Rf)
        .model(ModelId::Tso)
        .build()
        .expect("a fixed, valid audit configuration");
    let mut ledger = Ledger::default();
    let mut off = Layers::new(false);
    let static_verdicts = verdicts(&setup(opts.seed, 0, &mut off), cfg.model, &mut off);

    // Measured loop: whole cycles over every item, each cycle re-doing the
    // set-up; per-item wall times. The first cycle over each seed set is
    // checked in full right after it, outside the timing.
    let mut setup_s = Vec::new();
    let mut samples: Vec<Vec<f64>> = Vec::new();
    let mut sets: Vec<SeedSet<RowKey>> = Vec::new();
    let mut first_cycle: Vec<Result<AuditRow, String>> = Vec::new();
    repeat_for(opts.seconds, |cycle| {
        let set = cycle % SEED_SETS;
        let t = Instant::now();
        let items = setup(opts.seed, set, &mut off);
        setup_s.push(t.elapsed().as_secs_f64());
        samples.resize(items.len(), Vec::new());
        let mut rows = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let t = Instant::now();
            let row = audit_one(&item.test, &cfg, item.seed).map_err(|e| e.to_string());
            samples[i].push(t.elapsed().as_secs_f64());
            rows.push(row);
        }
        let keys: Vec<RowKey> = rows.iter().map(row_key).collect();
        if set == sets.len() {
            let mut failed = vec![false; items.len()];
            let mut hits = 0;
            for (i, ((item, row), verdict)) in
                items.iter().zip(&rows).zip(&static_verdicts).enumerate()
            {
                let errors = match row {
                    Err(e) => vec![e.clone()],
                    Ok(row) => match resimulate(item, &cfg) {
                        Ok((conv, run)) => {
                            check_item(item, row, &conv, &run, *verdict, &mut off, &mut ledger)
                        }
                        Err(e) => vec![e.to_string()],
                    },
                };
                match row {
                    Ok(row) if errors.is_empty() => hits += row.exhaustive,
                    _ => failed[i] = true,
                }
                for e in errors {
                    ledger.note(item.test.name(), &e);
                }
            }
            sets.push(SeedSet::new(keys.clone(), failed, hits));
        }
        sets[set].record_cycle(&keys, |i| items[i].test.name().to_owned(), &mut ledger);
        if cycle == 0 {
            first_cycle = rows;
        }
    });
    let n_items = samples.len() as u64;
    let per_item: f64 = samples.iter().map(|s| fastest(s)).sum();
    let hits_per_cycle = mean_hits(&sets);

    if !opts.trace {
        return ledger.into_report(vec![
            Metric {
                name: "setup_s",
                value: fastest(&setup_s),
                unit: "s",
            },
            Metric {
                name: "items_per_s",
                value: n_items as f64 / per_item,
                unit: "1/s",
            },
            Metric {
                name: "target_hits_per_s",
                value: hits_per_cycle / per_item,
                unit: "1/s",
            },
        ]);
    }

    // Traced: the first cycle again, one layer call at a time, and its
    // checks, inside a traced section.
    let mut layers = Layers::new(true);
    let section = Section::start();
    let items = setup(opts.seed, 0, &mut layers);
    let verdicts = verdicts(&items, cfg.model, &mut layers);
    let mut fig = Figures::default();
    let mut traced_s = 0.0;
    for ((item, row), verdict) in items.iter().zip(&first_cycle).zip(verdicts) {
        let start = Instant::now();
        let dec = decompose(item, &cfg, &mut layers);
        traced_s += start.elapsed().as_secs_f64();
        let (Ok(row), Ok(dec)) = (row, dec) else {
            continue;
        };
        if (dec.heuristic.counts[0], dec.rf.counts[0]) != (row.heuristic, row.exhaustive) {
            ledger.broken(
                item.test.name(),
                "layer-by-layer counts differ from audit_one",
            );
        }
        let errors = check_item(
            item,
            row,
            &dec.conv,
            &dec.run,
            verdict,
            &mut layers,
            &mut ledger,
        );
        let tl = usize::from(item.test.load_thread_count() >= 3);
        *fig.sim_iterations.entry(cfg.model).or_default() += dec.run.iterations;
        fig.rf_iterations[tl] += dec.run.iterations;
        fig.heuristic_iterations += dec.run.iterations;
        fig.rf_frames += dec.rf.frames_examined;
        fig.heuristic_frames += dec.heuristic.frames_examined;
        fig.rf_fallbacks += u64::from(dec.rf.downgraded);
        if errors.is_empty() {
            fig.hits += row.exhaustive;
        }
    }
    layers::close_section(&mut fig, section);
    // Against the untraced first cycle: the same inputs, one sample each.
    let first_s: f64 = samples.iter().map(|s| s[0]).sum();
    fig.overhead = (traced_s, first_s);
    fig.layers = layers;
    ledger.into_report(fig.metrics())
}
