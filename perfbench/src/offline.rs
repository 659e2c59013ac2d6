//! The offline workload, `dense-offline`: one caller thread scores DLRM(6)
//! batches of 64 back to back through `CentaurRuntime::infer_batch_rows_into`,
//! cycling through a pool of pre-generated batches larger than L2. It never
//! touches the serving layer.

use crate::common::{modelled_split, ms, repeated_setup, us, with_oracle, Checks};
use crate::layers::{Layer, LayerPath, Tracer};
use crate::online::{layer_metrics, row_bytes};
use crate::{BenchResult, Report};
use centaur::{CentaurError, CentaurRuntime};
use centaur_dlrm::{DlrmModel, PaperModel};
use centaur_workload::{FunctionalBatch, IndexDistribution, RequestGenerator};
use perfbench::{
    coverage, overhead, per_window, percentile, sustained, window_rates, windows, WINDOW_S,
};
use std::time::{Duration, Instant};

/// Samples per call.
pub const BATCH: usize = 64;

/// Pre-generated batches the loop cycles through: 1024 × ~5.9 KB of
/// inputs, about 6 MB, so inputs do not stay resident in L2.
const POOL_BATCHES: usize = 1024;

/// Pool batches whose first-lap answers are checked against the oracle.
const PROBE_BATCHES: usize = 8;

/// Calls made before the first timed one.
const WARM_UP_CALLS: usize = 64;

/// Per-call latency SLO for `slo_met_frac`.
const SLO: Duration = Duration::from_millis(5);

const DISTRIBUTION: IndexDistribution = IndexDistribution::Uniform;

/// Windows with fewer calls than this are left out of the per-window
/// figures.
const MIN_WINDOW_CALLS: usize = 20;

/// End-to-end figures are the value nine windows in ten meet ([`sustained`]
/// at 90%). This compute-bound loop runs 1.75× slower while the host is in
/// its contended state, which takes a share of each run that varies from
/// run to run; the median window flipped between the two states (p50
/// 0.68–1.01 ms over 8 runs) while the 90% figure tracks the contended
/// state, present in every run measured, and spread 4–8%.
const WINDOW_SHARE: f64 = 90.0;

/// `p`-th percentile of per-call `(start, seconds)` samples in each
/// [`WINDOW_S`] window, the figure nine windows in ten meet.
fn window_latency(samples: &[(f64, f64)], p: f64) -> f64 {
    let windows = windows(samples, WINDOW_S, MIN_WINDOW_CALLS);
    sustained(
        &per_window(&windows, |w| percentile(w, p)),
        WINDOW_SHARE,
        true,
    )
    .unwrap_or(0.0)
}

fn values(samples: &[(f64, f64)]) -> Vec<f64> {
    samples.iter().map(|s| s.1).collect()
}

struct Setup {
    runtime: CentaurRuntime,
    pool: Vec<FunctionalBatch>,
}

fn setup(seed: u64) -> Result<Setup, CentaurError> {
    let config = PaperModel::Dlrm6.config();
    let mut runtime = CentaurRuntime::harpv2(DlrmModel::random(&config, seed)?)?;
    let mut generator = RequestGenerator::new(&config, DISTRIBUTION, seed ^ 0x5EED_0001);
    let pool: Vec<FunctionalBatch> = (0..POOL_BATCHES)
        .map(|_| generator.functional_batch(BATCH))
        .collect();
    let mut out = [0.0f32; BATCH];
    for batch in pool.iter().cycle().take(WARM_UP_CALLS) {
        infer(&mut runtime, batch, &mut out)?;
    }
    Ok(Setup { runtime, pool })
}

fn infer(
    runtime: &mut CentaurRuntime,
    batch: &FunctionalBatch,
    out: &mut [f32],
) -> Result<(), CentaurError> {
    runtime.infer_batch_rows_into(
        batch.dense.as_slice(),
        batch.dense.cols(),
        &batch.sparse,
        out,
    )
}

/// Oracle answers of the first [`PROBE_BATCHES`] pool batches.
fn oracle(
    runtime: &mut CentaurRuntime,
    pool: &[FunctionalBatch],
) -> Result<Vec<[f32; BATCH]>, CentaurError> {
    with_oracle(runtime, |rt| {
        pool.iter()
            .take(PROBE_BATCHES)
            .map(|batch| {
                let mut out = [0.0f32; BATCH];
                infer(rt, batch, &mut out)?;
                Ok(out)
            })
            .collect()
    })
}

fn check_probe(
    checks: &mut Checks,
    phase: &str,
    index: usize,
    out: &[f32],
    expected: &[[f32; BATCH]],
) {
    if let Some(expected) = expected.get(index) {
        let same = out
            .iter()
            .zip(expected)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        checks.require(same, || {
            format!("{phase}: pool batch {index} differs from the oracle")
        });
    }
}

/// Closed loop for `seconds`: `(start, seconds)` of every call since the
/// loop began, and the loop's wall time.
fn closed_loop(
    s: &mut Setup,
    seconds: f64,
    expected: &[[f32; BATCH]],
    checks: &mut Checks,
) -> BenchResult<(Vec<(f64, f64)>, f64)> {
    let mut out = [0.0f32; BATCH];
    let mut calls = Vec::with_capacity(1 << 16);
    let start = Instant::now();
    loop {
        let began = start.elapsed().as_secs_f64();
        if began >= seconds {
            break;
        }
        let index = calls.len();
        infer(&mut s.runtime, &s.pool[index % POOL_BATCHES], &mut out)?;
        calls.push((began, start.elapsed().as_secs_f64() - began));
        check_probe(checks, "closed loop", index, &out, expected);
    }
    Ok((calls, start.elapsed().as_secs_f64()))
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(seed: u64, seconds: f64, process_start: Instant) -> BenchResult<Report> {
    let (mut s, setup_times) = repeated_setup(process_start, || setup(seed))?;
    let mut report = Report::new(&s.runtime);
    let expected = oracle(&mut s.runtime, &s.pool)?;
    let (calls, wall) = closed_loop(&mut s, seconds, &expected, &mut report.checks)?;
    let latencies = values(&calls);
    let within = latencies
        .iter()
        .filter(|&&l| l <= SLO.as_secs_f64())
        .count();
    let ends: Vec<f64> = calls.iter().map(|(began, l)| began + l).collect();
    let capacity = sustained(&window_rates(&ends, WINDOW_S), WINDOW_SHARE, false).unwrap_or(0.0)
        * BATCH as f64;

    let m = &mut report.metrics;
    m.push(
        "setup_s",
        percentile(&setup_times, 50.0).unwrap_or(0.0),
        "s",
    );
    m.push(
        "peak_rss_mb",
        crate::common::peak_rss_mb().unwrap_or(0.0),
        "MiB",
    );
    m.push("p50_ms", ms(window_latency(&calls, 50.0)), "ms");
    m.push("p90_ms", ms(window_latency(&calls, 90.0)), "ms");
    m.push("capacity_per_s", capacity, "1/s");
    let met: Vec<(f64, f64)> = calls
        .iter()
        .map(|&(began, l)| (began, f64::from(u8::from(l <= SLO.as_secs_f64()))))
        .collect();
    m.push(
        "slo_met_frac",
        sustained(
            &per_window(&windows(&met, WINDOW_S, MIN_WINDOW_CALLS), perfbench::mean),
            WINDOW_SHARE,
            false,
        )
        .unwrap_or(0.0),
        "frac",
    );
    report.attempted = calls.len();
    report.note(format!(
        "{} calls of {BATCH} samples over {wall:.3} s; whole-run p50 {:.4} ms, p90 {:.4} ms, {:.0} samples/s, {:.4} within SLO; \
         pool {POOL_BATCHES} batches; set-ups {setup_times:?} s",
        calls.len(),
        ms(percentile(&latencies, 50.0).unwrap_or(0.0)),
        ms(percentile(&latencies, 90.0).unwrap_or(0.0)),
        (calls.len() * BATCH) as f64 / wall,
        within as f64 / calls.len().max(1) as f64,
    ));
    Ok(report)
}

/// The traced run: an untraced closed loop for the overhead baseline, then
/// a traced one whose calls alternate between `infer_batch_rows_into` and
/// the layer-by-layer path.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    trace_out: Option<&std::path::Path>,
) -> BenchResult<Report> {
    let mut s = setup(seed)?;
    let mut report = Report::new(&s.runtime);
    let expected = oracle(&mut s.runtime, &s.pool)?;
    let (model_centaur, model_cpusim) = modelled_split(&mut s.runtime, DISTRIBUTION, seed, BATCH);
    let (untraced, _) = closed_loop(&mut s, seconds * 0.4, &expected, &mut report.checks)?;

    let mut path = LayerPath::new(&s.runtime)?;
    let mut tracer = Tracer::new(Instant::now(), 1 << 20);
    let mut out = [0.0f32; BATCH];
    let (mut iterations, mut covered, mut infer_s) = (vec![], vec![], vec![]);
    let mut samples = vec![];
    let mut layers = vec![];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds * 0.6 {
        let index = iterations.len();
        let batch = &s.pool[index % POOL_BATCHES];
        let id = index as u64;
        let iteration_start = tracer.now_ns();
        let layer_s = if index % 2 == 0 {
            let (result, span) =
                tracer.time(Layer::Infer, id, || infer(&mut s.runtime, batch, &mut out));
            result?;
            infer_s.push(span.secs());
            span.secs()
        } else {
            let model = s.runtime.model();
            let (dense, cols) = (batch.dense.as_slice(), batch.dense.cols());
            let times = path.run(&mut tracer, id, model, dense, cols, &batch.sparse, &mut out)?;
            let lookups = batch.sparse.iter().flatten().map(Vec::len).sum();
            layers.push((times, lookups, path.dense_flops(model, BATCH)));
            times.total_s()
        };
        let iteration = tracer.close(Layer::Iteration, id, iteration_start);
        iterations.push(iteration.secs());
        samples.push((iteration.start_ns as f64 * 1e-9, iteration.secs()));
        covered.push(layer_s);
        check_probe(&mut report.checks, "traced loop", index, &out, &expected);
    }

    let m = &mut report.metrics;
    m.push(
        "runtime.infer_us.p50",
        us(percentile(&infer_s, 50.0).unwrap_or(0.0)),
        "us",
    );
    m.push(
        "runtime.infer_us.p90",
        us(percentile(&infer_s, 90.0).unwrap_or(0.0)),
        "us",
    );
    layer_metrics(
        m,
        row_bytes(s.runtime.model().config()),
        layers.iter().copied(),
    );
    m.push("split.model_centaur_sparse_share", model_centaur, "frac");
    m.push("split.model_cpusim_sparse_share", model_cpusim, "frac");
    m.push(
        "trace.coverage",
        coverage(&covered, &iterations).unwrap_or(0.0),
        "frac",
    );
    let traced_p50 = window_latency(&samples, 50.0);
    let untraced_p50 = window_latency(&untraced, 50.0);
    m.push(
        "trace.overhead",
        overhead(traced_p50, untraced_p50).unwrap_or(0.0),
        "frac",
    );
    m.push("trace.p50_ms", ms(traced_p50), "ms");
    let untraced_lat = values(&untraced);
    m.push(
        "e2e.p99_ms",
        ms(percentile(&untraced_lat, 99.0).unwrap_or(0.0)),
        "ms",
    );
    m.push(
        "e2e.p999_ms",
        ms(percentile(&untraced_lat, 99.9).unwrap_or(0.0)),
        "ms",
    );
    report.attempted = untraced.len() + iterations.len();
    if let Some(path) = trace_out {
        crate::layers::write_spans(path, tracer.spans())?;
    }
    Ok(report)
}
