//! `hunt-models`: `Perple::run_heuristic_only` over the convertible Table II
//! tests under each memory model. Simulation does most of the work and
//! every machine path (in-order, per-location drain, out-of-order issue)
//! runs.

use std::time::Instant;

use perple::{
    suite, Conversion, CountRequest, Counter, HeuristicCounter, LitmusTest, ModelId, Perple,
    PerpleRunner, SimConfig,
};

use crate::checks;
use crate::layers::{self, Figures, Layers, Section};
use crate::report::{Ledger, Metric, Report};
use crate::seeds::{mean_hits, SeedSet, SEED_SETS};
use crate::{fastest, item_seed, repeat_for, Options, Scale};

/// The models hunted under, weakest last.
pub const MODELS: [ModelId; 4] = [ModelId::Sc, ModelId::Tso, ModelId::Pso, ModelId::Relaxed];

/// Iterations per item.
pub fn iterations(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 20_000,
        Scale::Tiny => 500,
    }
}

/// Simulator configuration of one item in seed set `set`.
fn config(seed: u64, set: usize, test: &LitmusTest, model: ModelId) -> SimConfig {
    let name = format!("{}@{}#{set}", test.name(), model.name());
    SimConfig::default()
        .with_seed(item_seed(seed, &name))
        .with_model(model)
}

/// Items left out. `rfi015` has two writers on `x`, where the perpetual
/// conversion is unsound (DESIGN §5d): on about one seed in twenty-five the
/// SC machine reports hits on its SC-forbidden target. A failure that
/// depends on the seed cannot be kept as a failed operation.
const LEFT_OUT: [(&str, ModelId); 1] = [("rfi015", ModelId::Sc)];

/// The items: (index into `tests`, model), test-major.
fn items(tests: &[LitmusTest]) -> Vec<(usize, ModelId)> {
    tests
        .iter()
        .enumerate()
        .flat_map(|(i, t)| MODELS.map(|m| (i, m, t.name())))
        .filter(|&(_, m, name)| !LEFT_OUT.contains(&(name, m)))
        .map(|(i, m, _)| (i, m))
        .collect()
}

/// Static verdicts for every item (one classification per test).
fn verdicts(
    tests: &[LitmusTest],
    items: &[(usize, ModelId)],
    layers: &mut Layers,
) -> Vec<checks::Verdict> {
    let per_test: Vec<_> = tests
        .iter()
        .map(|t| checks::verdicts(t, &MODELS, layers))
        .collect();
    items
        .iter()
        .map(|&(t, m)| per_test[t][MODELS.iter().position(|&x| x == m).unwrap_or(0)])
        .collect()
}

/// Runs the workload.
pub fn run(opts: &Options) -> Report {
    let n = iterations(opts.scale);
    let mut ledger = Ledger::default();
    let tests = suite::convertible();
    let items = items(&tests);
    let static_verdicts = verdicts(&tests, &items, &mut Layers::new(false));
    let mut first_cycle: Vec<(u64, u64)> = Vec::new();

    // Measured loop: each cycle converts every test under every model (the
    // set-up) and then runs each engine once; the first cycle over each
    // seed set is checked after it, outside the timing.
    let mut setup_s = Vec::new();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); items.len()];
    let mut sets: Vec<SeedSet<(u64, u64)>> = Vec::new();
    repeat_for(opts.seconds, |cycle| {
        let set = cycle % SEED_SETS;
        let t = Instant::now();
        let tests = suite::convertible();
        let mut engines: Vec<Perple> = items
            .iter()
            .map(|&(t, m)| {
                Perple::with_config(&tests[t], config(opts.seed, set, &tests[t], m))
                    .expect("the convertible suite converts")
            })
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        let mut keys = Vec::with_capacity(engines.len());
        for (i, engine) in engines.iter_mut().enumerate() {
            let t = Instant::now();
            let (run, count) = engine.run_heuristic_only(n);
            samples[i].push(t.elapsed().as_secs_f64());
            keys.push((run.content_digest(), count.counts[0]));
        }
        let name = |i: usize| format!("{}@{}", tests[items[i].0].name(), items[i].1.name());
        if set == sets.len() {
            let mut failed = vec![false; keys.len()];
            let mut hits = 0;
            for (i, (&(_, count), verdict)) in keys.iter().zip(&static_verdicts).enumerate() {
                match verdict.check_hits(count) {
                    Ok(()) => hits += count,
                    Err(e) => {
                        failed[i] = true;
                        ledger.note(&name(i), &e);
                    }
                }
            }
            sets.push(SeedSet::new(keys.clone(), failed, hits));
        }
        sets[set].record_cycle(&keys, name, &mut ledger);
        if cycle == 0 {
            first_cycle = keys;
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
    let mut fig = Figures::default();
    let start = Instant::now();
    for (i, &(t, m)) in items.iter().enumerate() {
        let test = &tests[t];
        let conv = layers
            .call("bench.convert", || Conversion::convert(test))
            .expect("the convertible suite converts");
        let mut runner = PerpleRunner::new(config(opts.seed, 0, test, m));
        let run = layers.call(layers::sim_span(m), || runner.run(&conv.perpetual, n));
        let bufs = run.bufs();
        let count = layers.call("bench.count.heuristic", || {
            HeuristicCounter::single(&conv.target_heuristic)
                .count(&CountRequest::new(&bufs, n).with_workers(1))
        });
        if (run.content_digest(), count.counts[0]) != first_cycle[i] {
            ledger.broken(
                test.name(),
                "layer-by-layer run differs from run_heuristic_only",
            );
        }
        *fig.sim_iterations.entry(m).or_default() += run.iterations;
        fig.heuristic_iterations += run.iterations;
        fig.heuristic_frames += count.frames_examined;
    }
    let traced_s = start.elapsed().as_secs_f64();
    for ((_, count), verdict) in first_cycle
        .iter()
        .zip(verdicts(&tests, &items, &mut layers))
    {
        if verdict.check_hits(*count).is_ok() {
            fig.hits += count;
        }
    }
    layers::close_section(&mut fig, section);
    // Against the untraced first cycle: the same inputs, one sample each.
    let first_s: f64 = samples.iter().map(|s| s[0]).sum();
    fig.overhead = (traced_s, first_s);
    fig.layers = layers;
    ledger.into_report(fig.metrics())
}
