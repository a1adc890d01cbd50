//! `perfbench` — one benchmark for the umpa-rs mapping system.
//!
//! Four seeded workloads, each run from this one process:
//!
//! * `direct` — closed-loop `map_tasks_with` on machine-sized requests;
//! * `multilevel` — closed-loop multilevel engine on graphs 10–100× the
//!   allocation;
//! * `service` — open-loop `MappingService` at fixed arrival rates with
//!   churn and durability, ending in crash recovery;
//! * `link-failure` — hard link failures on Hopper under a resident job.
//!
//! An untraced run reports the end-to-end metrics; a traced run times
//! every layer from outside, around calls into its public functions,
//! and reports per-layer self times and work counters. See README.md.

#![forbid(unsafe_code)]

pub mod closed;
pub mod fixtures;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

use metrics::{Report, END_TO_END, PER_LAYER};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop direct pipeline.
    Direct,
    /// Closed-loop multilevel engine.
    Multilevel,
    /// Open-loop service with churn and recovery.
    Service,
    /// Hard link failures under a resident job.
    LinkFailure,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Direct,
        Workload::Multilevel,
        Workload::Service,
        Workload::LinkFailure,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Direct => "direct",
            Workload::Multilevel => "multilevel",
            Workload::Service => "service",
            Workload::LinkFailure => "link-failure",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured duration, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Small machines and inputs, for tests; set up once instead of
    /// three times.
    pub tiny: bool,
    /// Scratch directory for the service journal.
    pub tmp_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

impl Opts {
    /// Defaults for `workload` with the given seed and duration.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace: false,
            tiny: false,
            tmp_dir: std::env::temp_dir(),
            trace_out: None,
        }
    }

    /// The metric list this run prints.
    pub fn metric_defs(&self) -> &'static [metrics::MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Runs `setup` at least three times and, while the set-ups so far
    /// took under three seconds, up to nine (once when tiny), dropping
    /// each result before the next; records the median wall time as
    /// `setup_s` and returns the last result. A cheap set-up reads tens
    /// of ms, where one slow moment of the host moves a median of three.
    pub fn timed_setup<T>(&self, report: &mut Report, mut setup: impl FnMut() -> T) -> T {
        let (least, most) = if self.tiny { (1, 1) } else { (3, 9) };
        let mut times = Vec::new();
        let mut last = None;
        while times.len() < least || (times.len() < most && times.iter().sum::<f64>() < 3.0) {
            drop(last.take());
            let t = std::time::Instant::now();
            last = Some(setup());
            times.push(t.elapsed().as_secs_f64());
        }
        report.set("setup_s", stats::median(times));
        last.expect("at least one set-up")
    }

    /// Writes a traced run's spans to `trace_out`, if one was given.
    pub fn write_spans(&self, tracer: &trace::Tracer) {
        let Some(path) = &self.trace_out else { return };
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    match opts.workload {
        Workload::Direct => closed::run(closed::Engine::Direct, opts, &mut report),
        Workload::Multilevel => closed::run(closed::Engine::Multilevel, opts, &mut report),
        Workload::Service => serve::run(serve::Mode::Service, opts, &mut report),
        Workload::LinkFailure => serve::run(serve::Mode::LinkFailure, opts, &mut report),
    }
    report
}
