//! Tiny-scale runs of every workload, untraced and traced.
//!
//! The program's counters and tracer are process-wide, so runs are
//! serialized: a concurrent run would add its events to another's deltas.

use std::path::PathBuf;
use std::sync::Mutex;

use perple::jsonout::{self, Json};
use perple_perfbench::audit::MULTI_WRITER;
use perple_perfbench::{run, Options, Report, Scale, Workload};

static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool) -> Report {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}-{}",
        workload.name(),
        trace,
        std::process::id()
    ));
    let opts = Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        work_dir: work_dir.clone(),
    };
    let report = run(&opts).expect("the workload runs");
    assert!(!work_dir.exists(), "the scratch store is removed");
    report
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let doc = jsonout::parse(text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_owned()
        })
        .collect()
}

#[test]
fn every_workload_finishes_and_only_the_multi_writer_items_fail() {
    let mut e2e = declared("end_to_end");
    // Peak memory is measured by `run.py` from outside the process.
    e2e.retain(|m| m != "peak_rss_mb");
    for w in Workload::ALL {
        let r = tiny(w, false);
        assert!(r.correct, "{}: {:?}", w.name(), r.failures);
        assert!(r.attempted > 0, "{}", w.name());
        let names: Vec<_> = r.metrics.iter().map(|m| m.name.to_owned()).collect();
        assert_eq!(names, e2e, "{}", w.name());
        for m in &r.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
        }
        if w == Workload::AuditRf {
            // One cycle at zero seconds: each multi-writer item fails once.
            assert_eq!(r.failed, MULTI_WRITER.len() as u64, "{:?}", r.failures);
            for f in &r.failures {
                assert!(
                    MULTI_WRITER
                        .iter()
                        .any(|mw| f.starts_with(&format!("{mw}: "))),
                    "unexpected failure {f}"
                );
            }
        } else {
            assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.failures);
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_repeat_exact_counts() {
    const EXACT: [&str; 8] = [
        "sim.iterations",
        "sim.simulated_cycles",
        "sim.store_buffer_flushes",
        "count.frames_examined.rf",
        "count.frames_examined.heuristic",
        "count.rf_fallbacks",
        "store.journal_appends",
        "store.fsyncs",
    ];
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let a = tiny(w, true);
        let b = tiny(w, true);
        let names: Vec<_> = a.metrics.iter().map(|m| m.name.to_owned()).collect();
        assert_eq!(names, per_layer, "{}", w.name());
        for name in EXACT {
            assert_eq!(a.metric(name), b.metric(name), "{}: {name}", w.name());
        }
    }
}

#[test]
fn exact_counts_reflect_the_layers_each_workload_uses() {
    let audit = tiny(Workload::AuditRf, true);
    assert!(audit.metric("count.frames_examined.rf") > Some(0.0));
    assert!(audit.metric("count.rf.ns_per_iteration.tl3") > Some(0.0));
    assert_eq!(audit.metric("store.journal_appends"), Some(0.0));

    let hunt = tiny(Workload::HuntModels, true);
    assert_eq!(hunt.metric("count.frames_examined.rf"), Some(0.0));
    for m in ["sc", "tso", "pso", "relaxed"] {
        let name = format!("sim.ns_per_iteration.{m}");
        assert!(
            hunt.metrics.iter().any(|x| x.name == name && x.value > 0.0),
            "{name}"
        );
    }

    let cold = tiny(Workload::CampaignCold, true);
    let warm = tiny(Workload::CampaignWarm, true);
    let items = suite_len();
    assert_eq!(cold.metric("store.journal_appends"), Some(items));
    assert_eq!(warm.metric("store.journal_appends"), Some(0.0));
    assert_eq!(
        warm.metric("sim.iterations"),
        Some(0.0),
        "cache hits simulate nothing"
    );
    assert!(cold.metric("store.bytes") > Some(0.0));
    assert!(warm.metric("store.cache_get_us") > Some(0.0));
}

fn suite_len() -> f64 {
    perple::suite::convertible().len() as f64
}
