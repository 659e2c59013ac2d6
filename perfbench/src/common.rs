//! Pieces every workload shares: correctness checks against the oracle
//! backends, the modelled sparse/dense split, repeated set-up timing and
//! the host's peak resident memory.

use centaur::{CentaurError, CentaurRuntime};
use centaur_bench::ExperimentRunner;
use centaur_dlrm::kernel::{KernelBackend, SparseBackend};
use centaur_serve::ServeOutcome;
use centaur_workload::{IndexDistribution, RequestGenerator};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Failed correctness checks of one run, each described in one line.
#[derive(Debug, Default)]
pub struct Checks {
    problems: Vec<String>,
}

impl Checks {
    /// Records a failure described by `message` unless `ok` holds.
    pub fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(message());
        }
    }

    /// The failures recorded so far.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}

/// Runs `f` on `runtime` switched to the `Naive` GEMM and `Scalar` gather
/// oracles, then restores the backends it had.
///
/// # Errors
///
/// Whatever `f` returns.
pub fn with_oracle<T>(
    runtime: &mut CentaurRuntime,
    f: impl FnOnce(&mut CentaurRuntime) -> Result<T, CentaurError>,
) -> Result<T, CentaurError> {
    let (kernel, sparse) = (runtime.backend(), runtime.sparse_backend());
    runtime.set_backend(KernelBackend::Naive);
    runtime.set_sparse_backend(SparseBackend::Scalar);
    let result = f(runtime);
    runtime.set_backend(kernel);
    runtime.set_sparse_backend(sparse);
    result
}

/// Checks one `serve_replay_with` outcome over `generated` requests: the
/// accounting identity `generated = completed + shed + failed`, nothing
/// failed or shed, every request answered exactly once, and every probe
/// `(request index, oracle probability)` inside the phase answered with
/// the oracle's bits.
pub fn check_outcome(
    checks: &mut Checks,
    phase: &str,
    outcome: &ServeOutcome,
    generated: usize,
    probes: &[(usize, f32)],
) {
    let completed = outcome.completions.len();
    let (shed, failed) = (outcome.shed(), outcome.failed);
    checks.require(completed + shed + failed == generated, || {
        format!("{phase}: generated {generated} != completed {completed} + shed {shed} + failed {failed}")
    });
    checks.require(failed == 0, || format!("{phase}: {failed} requests failed"));
    checks.require(shed == 0, || format!("{phase}: {shed} requests shed"));
    let mut answer = vec![None; generated];
    for c in &outcome.completions {
        match answer.get_mut(c.id as usize) {
            Some(slot @ None) => *slot = Some(c.probability),
            Some(Some(_)) => checks.require(false, || {
                format!("{phase}: request {} answered twice", c.id)
            }),
            None => checks.require(false, || format!("{phase}: unknown request id {}", c.id)),
        }
    }
    check_probes(checks, phase, &answer, probes);
}

/// Compares served answers (indexed by request) with the oracle probes
/// that fall inside the phase, bit for bit.
pub fn check_probes(
    checks: &mut Checks,
    phase: &str,
    answer: &[Option<f32>],
    probes: &[(usize, f32)],
) {
    for &(index, expected) in probes.iter().filter(|(i, _)| *i < answer.len()) {
        let got = answer[index];
        checks.require(got.map(f32::to_bits) == Some(expected.to_bits()), || {
            format!("{phase}: request {index} served {got:?}, oracle {expected}")
        });
    }
}

/// Sparse share of sparse + dense time for one `batch` of `runtime`'s
/// model, as the Centaur timing model (`CentaurRuntime::estimate_latency`)
/// and the cpusim Figure 5 model (`ExperimentRunner::run_cpu`) predict it.
pub fn modelled_split(
    runtime: &mut CentaurRuntime,
    distribution: IndexDistribution,
    seed: u64,
    batch: usize,
) -> (f64, f64) {
    let config = runtime.model().config().clone();
    let trace = RequestGenerator::new(&config, distribution, seed).inference_trace(batch);
    let centaur = runtime.estimate_latency(&trace).breakdown;
    let cpu = ExperimentRunner::new()
        .with_distribution(distribution)
        .run_cpu(&config, batch)
        .breakdown;
    (
        centaur.embedding_ns / (centaur.embedding_ns + centaur.mlp_ns),
        cpu.embedding_ns / (cpu.embedding_ns + cpu.mlp_ns),
    )
}

/// Builds the workload's state [`SETUP_REPEATS`] times, keeping only the
/// last, and returns it with each build's seconds. The first build is
/// timed from `process_start`, so it carries the process start-up too.
///
/// # Errors
///
/// The first failing build's error.
pub fn repeated_setup<T>(
    process_start: Instant,
    mut build: impl FnMut() -> Result<T, CentaurError>,
) -> Result<(T, Vec<f64>), CentaurError> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        // Release the previous copy first: peak memory stays one set-up.
        drop(kept.take());
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        kept = Some(build()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Seconds to milliseconds.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Seconds to microseconds.
pub fn us(seconds: f64) -> f64 {
    seconds * 1e6
}
