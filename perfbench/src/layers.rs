//! Traced mode: spans around the benchmark's calls into each layer, the
//! program's existing `perple_obs` counters and spans, and the per-layer
//! metrics computed from them.
//!
//! Every layer call the benchmark makes goes through [`Layers::call`]. In
//! an untraced run that is a plain call. In a traced run it opens a
//! `perple_obs` span named `bench.<layer>` (so the program's own
//! `convert`/`simulate`/`count`/`campaign` spans nest under it) and adds the
//! call's nanoseconds to a per-name tally.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use perple::obs::metrics::{self, MetricsSnapshot};
use perple::obs::trace::{self, Trace};
use perple::ModelId;

use crate::report::Metric;

/// Time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Total nanoseconds inside the calls.
    pub ns: u128,
    /// Number of calls.
    pub calls: u64,
}

/// Layer-call wrapper; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    on: bool,
    tallies: BTreeMap<&'static str, Tally>,
}

impl Layers {
    /// A wrapper that records (`on`) or only calls through.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            tallies: BTreeMap::new(),
        }
    }

    /// Calls `f`, recording it under `name` when tracing.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let _span = trace::span(name);
        let start = Instant::now();
        let out = f();
        let t = self.tallies.entry(name).or_default();
        t.ns += start.elapsed().as_nanos();
        t.calls += 1;
        out
    }

    /// The tally of `name` (zero if never called).
    pub fn tally(&self, name: &str) -> Tally {
        self.tallies.get(name).copied().unwrap_or_default()
    }
}

/// Span name of a simulator call under `model`.
pub fn sim_span(model: ModelId) -> &'static str {
    match model {
        ModelId::Sc => "bench.sim.sc",
        ModelId::Tso => "bench.sim.tso",
        ModelId::Pso => "bench.sim.pso",
        ModelId::Relaxed => "bench.sim.relaxed",
    }
}

/// Span name of an rf-counter call on a test with `tl` load threads.
pub fn rf_span(tl: usize) -> &'static str {
    if tl >= 3 {
        "bench.count.rf.tl3"
    } else {
        "bench.count.rf.tl2"
    }
}

/// A traced section: the tracer is armed and the program's counters are
/// snapshotted from [`Section::start`] to [`Section::finish`].
pub struct Section {
    start: Instant,
    before: MetricsSnapshot,
}

impl Section {
    /// Arms the tracer and snapshots the counters.
    pub fn start() -> Self {
        trace::start();
        Self {
            start: Instant::now(),
            before: metrics::snapshot(),
        }
    }

    /// Disarms the tracer; returns the spans, the counter deltas and the
    /// section's wall time.
    pub fn finish(self) -> (Trace, MetricsSnapshot, Duration) {
        let wall = self.start.elapsed();
        let delta = metrics::snapshot().delta_from(&self.before);
        (trace::finish(), delta, wall)
    }
}

/// Counter deltas over a closure (for scoping store counters to one pass).
pub fn counters_during<R>(f: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
    let before = metrics::snapshot();
    let out = f();
    (out, metrics::snapshot().delta_from(&before))
}

/// Sum of the durations (µs) of spans named in `names` that nest, at any
/// depth, under some span named `root`, not counting spans nested under
/// another span of `names` (so nothing is counted twice).
pub fn nested_us(trace: &Trace, root: &str, names: &[&str]) -> u64 {
    let by_id: BTreeMap<u64, (&str, Option<u64>)> = trace
        .spans
        .iter()
        .map(|s| (s.id, (s.name, s.parent)))
        .collect();
    trace
        .spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .filter(|s| {
            let mut p = s.parent;
            while let Some(id) = p {
                let Some(&(name, parent)) = by_id.get(&id) else {
                    return false;
                };
                if names.contains(&name) {
                    return false;
                }
                if name == root {
                    return true;
                }
                p = parent;
            }
            false
        })
        .map(|s| s.dur_us)
        .sum()
}

/// Sum of the durations (µs) of the top-level spans: the time the traced
/// section spent inside some benchmark span.
pub fn top_level_us(trace: &Trace) -> u64 {
    trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_us)
        .sum()
}

/// The raw material of the per-layer metrics; workloads fill in what they
/// exercise and leave the rest at zero.
#[derive(Debug, Clone, Default)]
pub struct Figures {
    /// Layer-call tallies.
    pub layers: Layers,
    /// Iterations simulated, per model, by the benchmark's own simulator
    /// calls.
    pub sim_iterations: BTreeMap<ModelId, u64>,
    /// Simulator time (ns) and iterations inside a campaign pass, from the
    /// program's `simulate` spans (attributed to the spec's model).
    pub campaign_sim: Option<(ModelId, u128, u64)>,
    /// Iterations counted by rf-counter calls on two- and three-load-thread
    /// tests.
    pub rf_iterations: [u64; 2],
    /// Iterations counted by heuristic-counter calls.
    pub heuristic_iterations: u64,
    /// Frames examined by the rf counter.
    pub rf_frames: u64,
    /// Frames examined by the heuristic counter.
    pub heuristic_frames: u64,
    /// Rf counter calls that fell back to the exhaustive scan.
    pub rf_fallbacks: u64,
    /// Target hits reported by the counting calls (exact where run).
    pub hits: u64,
    /// Tests linted by the benchmark's lint calls.
    pub linted_tests: u64,
    /// Program counters over the whole traced section.
    pub section_counters: Option<MetricsSnapshot>,
    /// Program counters over the traced campaign pass.
    pub pass_counters: Option<MetricsSnapshot>,
    /// Store size after a cold pass, in bytes.
    pub store_bytes: u64,
    /// Campaign pass duration and the part of it inside the program's
    /// convert/simulate/count spans (µs).
    pub campaign_attribution: Option<(u64, u64)>,
    /// Traced section wall time and the part inside top-level spans (µs).
    pub section_attribution: (u64, u64),
    /// Wall time of the traced cycle (or pass) and of the untraced first one.
    pub overhead: (f64, f64),
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Figures {
    fn ns_per_call(&self, name: &str) -> f64 {
        let t = self.layers.tally(name);
        per(t.ns as f64, t.calls as f64)
    }

    fn sim_ns_per_iteration(&self, model: ModelId) -> f64 {
        let mut ns = self.layers.tally(sim_span(model)).ns as f64;
        let mut iterations = self.sim_iterations.get(&model).copied().unwrap_or(0);
        if let Some((m, pass_ns, pass_iterations)) = self.campaign_sim {
            if m == model {
                ns += pass_ns as f64;
                iterations += pass_iterations;
            }
        }
        per(ns, iterations as f64)
    }

    fn counter(&self, name: &str) -> f64 {
        self.section_counters
            .as_ref()
            .map_or(0.0, |c| c.get(name) as f64)
    }

    fn pass_counter(&self, name: &str) -> f64 {
        self.pass_counters
            .as_ref()
            .map_or(0.0, |c| c.get(name) as f64)
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        let sim_iterations: u64 =
            self.sim_iterations.values().sum::<u64>() + self.campaign_sim.map_or(0, |(_, _, n)| n);
        let rf_ns = |tl: usize| self.layers.tally(rf_span(tl)).ns as f64;
        let lint = self.layers.tally("bench.lint");
        let (pass_us, inside_us) = self.campaign_attribution.unwrap_or((0, 0));
        let (section_us, spanned_us) = self.section_attribution;
        vec![
            m(
                "model.generate_ms",
                self.ns_per_call("bench.generate") / 1e6,
                "ms",
            ),
            m(
                "convert.us_per_test",
                self.ns_per_call("bench.convert") / 1e3,
                "us",
            ),
            m(
                "sim.ns_per_iteration.sc",
                self.sim_ns_per_iteration(ModelId::Sc),
                "ns",
            ),
            m(
                "sim.ns_per_iteration.tso",
                self.sim_ns_per_iteration(ModelId::Tso),
                "ns",
            ),
            m(
                "sim.ns_per_iteration.pso",
                self.sim_ns_per_iteration(ModelId::Pso),
                "ns",
            ),
            m(
                "sim.ns_per_iteration.relaxed",
                self.sim_ns_per_iteration(ModelId::Relaxed),
                "ns",
            ),
            m("sim.iterations", sim_iterations as f64, "count"),
            m(
                "sim.simulated_cycles",
                self.counter("sim_scheduler_cycles"),
                "count",
            ),
            m(
                "sim.store_buffer_flushes",
                self.counter("sim_store_buffer_flushes"),
                "count",
            ),
            m(
                "count.rf.ns_per_iteration.tl2",
                per(rf_ns(2), self.rf_iterations[0] as f64),
                "ns",
            ),
            m(
                "count.rf.ns_per_iteration.tl3",
                per(rf_ns(3), self.rf_iterations[1] as f64),
                "ns",
            ),
            m(
                "count.heuristic.ns_per_iteration",
                per(
                    self.layers.tally("bench.count.heuristic").ns as f64,
                    self.heuristic_iterations as f64,
                ),
                "ns",
            ),
            m("count.frames_examined.rf", self.rf_frames as f64, "count"),
            m(
                "count.frames_examined.heuristic",
                self.heuristic_frames as f64,
                "count",
            ),
            m("count.rf_fallbacks", self.rf_fallbacks as f64, "count"),
            m(
                "count.hits_per_mframe",
                per(
                    self.hits as f64 * 1e6,
                    (self.rf_frames + self.heuristic_frames) as f64,
                ),
                "1/Mframe",
            ),
            m(
                "enumerate.classify_ms_per_test",
                self.ns_per_call("bench.classify") / 1e6,
                "ms",
            ),
            m(
                "solve.us_per_query",
                self.ns_per_call("bench.solve") / 1e3,
                "us",
            ),
            m(
                "lint.ms_per_test",
                per(lint.ns as f64 / 1e6, self.linted_tests as f64),
                "ms",
            ),
            m(
                "store.journal_appends",
                self.pass_counter("store_journal_appends"),
                "count",
            ),
            m("store.fsyncs", self.pass_counter("store_fsyncs"), "count"),
            m(
                "store.io_boundaries",
                self.pass_counter("store_io_boundaries"),
                "count",
            ),
            m("store.bytes", self.store_bytes as f64, "B"),
            m(
                "store.cache_get_us",
                self.ns_per_call("bench.load_result") / 1e3,
                "us",
            ),
            m(
                "campaign.unattributed_share",
                per(pass_us.saturating_sub(inside_us) as f64, pass_us as f64),
                "ratio",
            ),
            m(
                "unattributed_share",
                per(
                    section_us.saturating_sub(spanned_us) as f64,
                    section_us as f64,
                ),
                "ratio",
            ),
            m(
                "trace.overhead_share",
                per(self.overhead.0 - self.overhead.1, self.overhead.1),
                "ratio",
            ),
        ]
    }
}

/// Records a traced section's spans and counters into `fig`.
pub fn close_section(fig: &mut Figures, section: Section) -> Trace {
    let (trace, counters, wall) = section.finish();
    fig.section_counters = Some(counters);
    fig.section_attribution = (wall.as_micros() as u64, top_level_us(&trace));
    trace
}
