//! `perfbench`: runs one workload of the Centaur reproduction's benchmark
//! and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <sparse-batched|sparse-fifo|dense-offline> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <spans.csv>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the public entry
//! points; `--trace 1` measures the per-layer metrics, timing the calls
//! into each layer from this benchmark's own code and writing the spans to
//! `--trace-out`. `perfbench/run.py` builds this binary, pins the thread
//! budget and adds the host fingerprint; see `perfbench/README.md`.

mod common;
mod layers;
mod offline;
mod online;

use centaur::CentaurRuntime;
use common::Checks;
use perfbench::{json_string, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Error type of a run: any datapath or I/O failure ends it.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Generator lateness (p90, ms) beyond which a traced online run is
/// flagged: the schedule was not offered as specified.
const LATE_P90_LIMIT_MS: f64 = 0.25;

/// What one run measured and checked.
#[derive(Debug)]
pub struct Report {
    metrics: Metrics,
    checks: Checks,
    flags: Vec<String>,
    notes: Vec<String>,
    attempted: usize,
    failed: usize,
    kernel_backend: &'static str,
    sparse_backend: &'static str,
}

impl Report {
    /// An empty report for a run on `runtime`'s resolved backends.
    pub fn new(runtime: &CentaurRuntime) -> Self {
        Report {
            metrics: Metrics::new(),
            checks: Checks::default(),
            flags: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            kernel_backend: runtime.backend().label(),
            sparse_backend: runtime.sparse_backend().label(),
        }
    }

    /// Marks the run's numbers as taken under a condition that makes them
    /// doubtful (they are still reported).
    pub fn flag(&mut self, flag: String) {
        self.flags.push(flag);
    }

    /// Adds a line of context to the run's record.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Requires every request of a traced phase to have been answered.
    pub fn require_all_answered(&mut self, phase: &str, answers: &[Option<f32>]) {
        let missing = answers.iter().filter(|a| a.is_none()).count();
        self.checks.require(missing == 0, || {
            format!("{phase}: {missing} requests never answered")
        });
    }

    /// Flags the run when the generator fell behind its schedule.
    pub fn guard_lateness(&mut self, late_p90_ms: f64, traced_p50_ms: f64) {
        if late_p90_ms > LATE_P90_LIMIT_MS {
            self.flag(format!(
                "generator late: p90 {late_p90_ms:.3} ms behind schedule (limit {LATE_P90_LIMIT_MS} ms, \
                 traced p50 {traced_p50_ms:.3} ms)"
            ));
        }
    }

    fn to_json(&self, args: &Args) -> String {
        let list = |items: &[String]| {
            let quoted: Vec<String> = items.iter().map(|s| json_string(s)).collect();
            format!("[{}]", quoted.join(", "))
        };
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"info\": {{\
             \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"kernel_backend\": {}, \
             \"sparse_backend\": {}, \"available_parallelism\": {threads}, \"flags\": {}, \"problems\": {}, \
             \"notes\": {}}}}}",
            self.checks.problems().is_empty(),
            self.attempted.max(1),
            self.failed,
            self.metrics.to_json(),
            json_string(args.workload.name()),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            json_string(self.kernel_backend),
            json_string(self.sparse_backend),
            list(&self.flags),
            list(self.checks.problems()),
            list(&self.notes),
        )
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SparseBatched,
    SparseFifo,
    DenseOffline,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "sparse-batched" => Some(Workload::SparseBatched),
            "sparse-fifo" => Some(Workload::SparseFifo),
            "dense-offline" => Some(Workload::DenseOffline),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SparseBatched => "sparse-batched",
            Workload::SparseFifo => "sparse-fifo",
            Workload::DenseOffline => "dense-offline",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_out,
    })
}

fn run(args: &Args, process_start: Instant) -> BenchResult<Report> {
    let (seed, seconds, out) = (args.seed, args.seconds, args.trace_out.as_deref());
    match (args.workload, args.trace) {
        (Workload::SparseBatched, false) => {
            online::run_untraced(&online::sparse_batched(), seed, seconds, process_start)
        }
        (Workload::SparseBatched, true) => {
            online::run_traced(&online::sparse_batched(), seed, seconds, out)
        }
        (Workload::SparseFifo, false) => {
            online::run_untraced(&online::sparse_fifo(), seed, seconds, process_start)
        }
        (Workload::SparseFifo, true) => {
            online::run_traced(&online::sparse_fifo(), seed, seconds, out)
        }
        (Workload::DenseOffline, false) => offline::run_untraced(seed, seconds, process_start),
        (Workload::DenseOffline, true) => offline::run_traced(seed, seconds, out),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(report) => {
            for note in report.notes.iter().chain(&report.flags) {
                eprintln!("perfbench: {note}");
            }
            println!("{}", report.to_json(&args));
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {} failed: {error}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
