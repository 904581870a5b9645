//! End-to-end and per-layer benchmark of the PerpLE reproduction.
//!
//! One process runs one workload on one thread for a fixed wall-clock
//! budget, checks every output against checks that do not rely on the
//! program's own verdicts, and reports either the end-to-end metrics
//! (untraced) or the per-layer metrics (traced). See `README.md` for the
//! workloads, the metrics and the reference figures.

pub mod audit;
pub mod campaign;
pub mod checks;
pub mod hunt;
pub mod layers;
pub mod report;
pub mod seeds;

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use report::Report;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The audit path over Table II plus four multi-writer tests (rf counting).
    AuditRf,
    /// Heuristic-only runs of Table II under all four memory models.
    HuntModels,
    /// The generated campaign against a fresh store each pass.
    CampaignCold,
    /// The generated campaign against a store one cold pass filled.
    CampaignWarm,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::AuditRf,
        Workload::HuntModels,
        Workload::CampaignCold,
        Workload::CampaignWarm,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AuditRf => "audit-rf",
            Workload::HuntModels => "hunt-models",
            Workload::CampaignCold => "campaign-cold",
            Workload::CampaignWarm => "campaign-warm",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `Full` is what the benchmark measures; `Tiny` keeps every
/// code path and check but shrinks the inputs so tests finish quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration (see README).
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Wall-clock budget of the measured loop (whole cycles; at least one).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for campaign stores (created and removed here).
    pub work_dir: PathBuf,
}

/// Runs one workload and returns its report.
///
/// # Errors
/// Only for failures that leave nothing to report (the scratch directory
/// cannot be created); everything else is counted in the report.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload {
        Workload::AuditRf => Ok(audit::run(opts)),
        Workload::HuntModels => Ok(hunt::run(opts)),
        Workload::CampaignCold => campaign::run(opts, false),
        Workload::CampaignWarm => campaign::run(opts, true),
    }
}

/// Calls `cycle` repeatedly until `seconds` of wall time have passed since
/// the first call started, always finishing the cycle in progress (and
/// running at least one). Returns the number of cycles run.
pub fn repeat_for(seconds: f64, mut cycle: impl FnMut(usize)) -> usize {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut n = 0;
    loop {
        cycle(n);
        n += 1;
        if start.elapsed() >= budget {
            return n;
        }
    }
}

/// Deterministic per-item seed: a SplitMix64 finalizer over the run seed
/// and the item's name, so items are decorrelated and the same run seed
/// always yields the same inputs.
pub fn item_seed(seed: u64, name: &str) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// The fastest of a run's samples of one timing (0 if none).
///
/// On a shared host, interference only ever slows a sample down, and it
/// comes in phases of seconds to minutes; the fastest sample of the same
/// work over a whole run repeats far better from run to run than its
/// median (see README, "Statistic").
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}
