//! The two online workloads, `sparse-batched` and `sparse-fifo`: an
//! open-loop Poisson generator thread in front of one replica worker,
//! serving DLRM(1) with 1M-row tables.
//!
//! The untraced run measures through `serve_replay_with` only: one phase
//! at a fixed offered rate (latency, SLO attainment) and one saturated
//! phase (capacity). The traced run drives the same queue and stage from
//! the benchmark's own loop, timing each public call.

use crate::common::{
    check_outcome, check_probes, modelled_split, ms, repeated_setup, us, with_oracle,
};
use crate::layers::{Layer, LayerPath, LayerTimes, Staging, Tracer};
use crate::{BenchResult, Report};
use centaur::{CentaurError, CentaurRuntime};
use centaur_dlrm::{DlrmModel, InferenceRequest, ModelConfig, PaperModel};
use centaur_serve::{
    generate_requests, serve_replay_with, ArrivalQueue, BatchPolicy, QueuedRequest, ReplicaStage,
    ServeOptions, ServeOutcome,
};
use centaur_workload::{ArrivalProcess, IndexDistribution, QueryStream};
use perfbench::{
    coverage, mean, overhead, per_window, percentile, sustained, window_rates, windows, Metrics,
    WINDOW_S,
};
use std::time::{Duration, Instant};

/// Rows per embedding table: 5 tables × 1M rows × 128 B = 640 MB, over
/// twice the host's last-level cache, so gathers go to DRAM.
pub const ROWS_PER_TABLE: u64 = 1_000_000;

/// Per-request latency SLO.
pub const SLO: Duration = Duration::from_millis(5);

/// Oracle probes per run, spread evenly over the smallest phase.
const PROBES: usize = 256;

/// Distinct requests generated per run; longer phases replay them
/// cyclically under fresh ids (2^16 requests touch 2^16 × 100 rows, 800 MB
/// of row reads, before any repeats).
const DISTINCT_REQUESTS: usize = 1 << 16;

/// Windows with fewer requests than this are left out of the per-window
/// figures.
const MIN_WINDOW_REQUESTS: usize = 100;

/// End-to-end figures are the median window ([`sustained`] at 50%): the
/// 1 ms hold-open and DRAM gathers dominate these workloads, and the host
/// disturbs them with short pauses that hit a tenth to a half of the
/// windows in some runs. The 90% figure read those pauses and spread 40%
/// (p90) and 21% (capacity) between runs where the median spread 6–7%.
const WINDOW_SHARE: f64 = 50.0;

/// Batches run straight through the stage before the first timed request.
const WARM_UP_BATCHES: usize = 32;

/// One online workload.
#[derive(Debug, Clone, Copy)]
pub struct OnlineSpec {
    /// Index distribution of the requests.
    pub distribution: IndexDistribution,
    /// Batching policy of the replica worker.
    pub policy: BatchPolicy,
    /// Offered rate of the fixed-rate phase.
    pub rate_qps: f64,
    /// Expected capacity, used only to size the saturated phase.
    pub capacity_hint_qps: f64,
}

/// `sparse-batched`: uniform indices, 64-wide dynamic batches.
pub fn sparse_batched() -> OnlineSpec {
    OnlineSpec {
        distribution: IndexDistribution::Uniform,
        policy: BatchPolicy::dynamic_wave(),
        rate_qps: 60_000.0,
        capacity_hint_qps: 100_000.0,
    }
}

/// `sparse-fifo`: production-skewed indices, batch-1 FIFO. A diagnostic
/// workload, left out of `BENCHMARK.json`: its p90 follows the host's
/// steal time (see `perfbench/README.md`).
pub fn sparse_fifo() -> OnlineSpec {
    OnlineSpec {
        distribution: IndexDistribution::production_skew(),
        policy: BatchPolicy::Fifo,
        rate_qps: 40_000.0,
        capacity_hint_qps: 100_000.0,
    }
}

/// The served model's shape.
fn config() -> ModelConfig {
    PaperModel::Dlrm1
        .config()
        .with_rows_per_table(ROWS_PER_TABLE)
}

/// A freshly registered runtime, warmed on `requests`.
fn runtime(
    seed: u64,
    requests: &[InferenceRequest],
    policy: BatchPolicy,
) -> Result<CentaurRuntime, CentaurError> {
    let config = config();
    let mut runtime = CentaurRuntime::harpv2(DlrmModel::random(&config, seed)?)?;
    let mut stage = ReplicaStage::new(&config, policy.max_batch());
    for chunk in requests.chunks(policy.max_batch()).take(WARM_UP_BATCHES) {
        let refs: Vec<&InferenceRequest> = chunk.iter().collect();
        stage.run_batch(&mut runtime, &refs)?;
    }
    Ok(runtime)
}

/// Everything built before the first timed request.
struct Setup {
    runtime: CentaurRuntime,
    requests: Vec<InferenceRequest>,
    fixed: QueryStream,
    saturated: QueryStream,
}

/// Offered rate of the saturated phase: its whole request set arrives at
/// once, so a backlog stands from the first completion to the last and the
/// worker serves from a full queue.
const SATURATED_QPS: f64 = 1e9;

/// `n` requests: [`DISTINCT_REQUESTS`] generated from `seed`, then
/// repeated cyclically with ids equal to their position.
fn requests(spec: &OnlineSpec, seed: u64, n: usize) -> Vec<InferenceRequest> {
    let mut all = generate_requests(
        &config(),
        spec.distribution,
        seed ^ 0x5EED_0001,
        n.min(DISTINCT_REQUESTS),
    );
    let distinct = all.len();
    all.reserve(n - distinct);
    for id in distinct..n {
        let copy = all[id % distinct].clone().with_id(id as u64);
        all.push(copy);
    }
    all
}

fn setup(
    spec: &OnlineSpec,
    seed: u64,
    requests: usize,
    fixed: usize,
    saturated: usize,
) -> Result<Setup, CentaurError> {
    let requests = self::requests(spec, seed, requests);
    let fixed = QueryStream::generate(
        ArrivalProcess::Poisson {
            rate_qps: spec.rate_qps,
        },
        fixed,
        seed ^ 0x5EED_0002,
    );
    let saturated = QueryStream::generate(
        ArrivalProcess::Poisson {
            rate_qps: SATURATED_QPS,
        },
        saturated,
        seed ^ 0x5EED_0003,
    );
    Ok(Setup {
        runtime: runtime(seed, &requests, spec.policy)?,
        requests,
        fixed,
        saturated,
    })
}

/// Oracle probabilities of [`PROBES`] requests spread over the first
/// `span`, served one by one.
fn oracle_probes(
    runtime: &mut CentaurRuntime,
    requests: &[InferenceRequest],
    span: usize,
) -> Result<Vec<(usize, f32)>, CentaurError> {
    let cols = runtime.model().config().dense_features;
    let stride = (span.min(requests.len()) / PROBES).max(1);
    with_oracle(runtime, |rt| {
        (0..PROBES)
            .map(|k| k * stride)
            .filter(|&i| i < requests.len())
            .map(|i| {
                let mut out = [0.0f32];
                let r = &requests[i];
                rt.infer_batch_rows_into(
                    &r.dense,
                    cols,
                    std::slice::from_ref(&r.sparse),
                    &mut out,
                )?;
                Ok((i, out[0]))
            })
            .collect()
    })
}

/// Latencies of a fixed-rate outcome, in seconds.
fn latencies(outcome: &ServeOutcome) -> Vec<f64> {
    outcome.completions.iter().map(|c| c.latency_s()).collect()
}

/// `(scheduled arrival, latency)` of every completion, seconds.
fn arrival_latency(outcome: &ServeOutcome) -> Vec<(f64, f64)> {
    outcome
        .completions
        .iter()
        .map(|c| (c.arrival_s, c.latency_s()))
        .collect()
}

/// `p`-th percentile latency of a fixed-rate phase, seconds: requests
/// grouped by scheduled arrival into [`WINDOW_S`] windows, the median
/// window.
fn window_latency(samples: &[(f64, f64)], p: f64) -> f64 {
    let windows = windows(samples, WINDOW_S, MIN_WINDOW_REQUESTS);
    sustained(
        &per_window(&windows, |w| percentile(w, p)),
        WINDOW_SHARE,
        true,
    )
    .unwrap_or(0.0)
}

/// Share of the requests generated in each [`WINDOW_S`] window (by
/// scheduled arrival) that completed within [`SLO`], the median window.
/// Shed, failed and missing requests count as misses.
fn slo_met(outcome: &ServeOutcome, generated: usize, stream: &QueryStream) -> f64 {
    let arrivals = &stream.arrivals_seconds()[..generated];
    let mut met = vec![0.0f64; generated];
    for c in &outcome.completions {
        if c.latency_s() <= SLO.as_secs_f64() {
            met[c.id as usize] = 1.0;
        }
    }
    let samples: Vec<(f64, f64)> = arrivals.iter().copied().zip(met).collect();
    let windows = windows(&samples, WINDOW_S, MIN_WINDOW_REQUESTS);
    sustained(&per_window(&windows, mean), WINDOW_SHARE, false).unwrap_or(0.0)
}

/// Capacity of a saturated phase: completions per second in each full
/// [`WINDOW_S`] window, the median window. The whole request set arrives
/// at once, so a backlog stands until the last window.
fn window_capacity(done_s: &[f64]) -> f64 {
    sustained(&window_rates(done_s, WINDOW_S), WINDOW_SHARE, false).unwrap_or(0.0)
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(
    spec: &OnlineSpec,
    seed: u64,
    seconds: f64,
    process_start: Instant,
) -> BenchResult<Report> {
    let fixed_n = (spec.rate_qps * seconds * 0.45) as usize;
    let saturated_n = (spec.capacity_hint_qps * seconds * 0.25) as usize;
    let (mut s, setup_times) = repeated_setup(process_start, || {
        setup(spec, seed, fixed_n.max(saturated_n), fixed_n, saturated_n)
    })?;
    let mut report = Report::new(&s.runtime);
    let probes = oracle_probes(&mut s.runtime, &s.requests, fixed_n.min(saturated_n))?;
    let options = ServeOptions::with_slo(SLO);

    let fixed = serve_replay_with(
        vec![s.runtime],
        &s.requests[..fixed_n],
        &s.fixed,
        spec.policy,
        options,
    )?;
    check_outcome(&mut report.checks, "fixed-rate", &fixed, fixed_n, &probes);

    // The fixed-rate phase consumed the replica; register a fresh one for
    // the saturated phase (not timed, not part of set-up).
    let rebuilt = runtime(seed, &s.requests, spec.policy)?;
    let saturated = serve_replay_with(
        vec![rebuilt],
        &s.requests[..saturated_n],
        &s.saturated,
        spec.policy,
        ServeOptions::default(),
    )?;
    check_outcome(
        &mut report.checks,
        "saturated",
        &saturated,
        saturated_n,
        &probes,
    );
    let done: Vec<f64> = saturated
        .completions
        .iter()
        .map(|c| c.completed_s)
        .collect();
    let capacity = window_capacity(&done);

    let samples = arrival_latency(&fixed);
    let lat = latencies(&fixed);
    let m = &mut report.metrics;
    m.push(
        "setup_s",
        perfbench::percentile(&setup_times, 50.0).unwrap_or(0.0),
        "s",
    );
    m.push(
        "peak_rss_mb",
        crate::common::peak_rss_mb().unwrap_or(0.0),
        "MiB",
    );
    m.push("p50_ms", ms(window_latency(&samples, 50.0)), "ms");
    m.push("p90_ms", ms(window_latency(&samples, 90.0)), "ms");
    m.push("capacity_per_s", capacity, "1/s");
    m.push("slo_met_frac", slo_met(&fixed, fixed_n, &s.fixed), "frac");
    report.attempted = fixed_n + saturated_n;
    report.failed = fixed.failed + fixed.shed() + saturated.failed + saturated.shed();
    report.note(format!(
        "fixed-rate {fixed_n} requests at {:.0}/s: {} batches, mean batch {:.2}, whole-phase p50 {:.4} ms, \
         p90 {:.4} ms, within SLO {:.4}; saturated {saturated_n} requests, whole-phase capacity {:.0}/s; \
         set-ups {setup_times:?} s",
        spec.rate_qps,
        fixed.batches,
        fixed.mean_batch(),
        ms(percentile(&lat, 50.0).unwrap_or(0.0)),
        ms(percentile(&lat, 90.0).unwrap_or(0.0)),
        fixed.within_slo() as f64 / fixed_n as f64,
        saturated.achieved_qps(),
    ));
    Ok(report)
}

/// One traced batch's timings.
#[derive(Debug, Clone, Copy, Default)]
struct BatchRec {
    size: usize,
    pop_s: f64,
    complete_s: f64,
    run_batch_s: Option<f64>,
    copy_s: Option<f64>,
    infer_s: Option<f64>,
    layers: Option<LayerTimes>,
    lookups: usize,
    dense_flops: u64,
}

impl BatchRec {
    /// Seconds inside the layers that served the batch.
    fn service_s(&self) -> f64 {
        self.run_batch_s.unwrap_or(0.0)
            + self.copy_s.unwrap_or(0.0)
            + self.infer_s.unwrap_or(0.0)
            + self.layers.map_or(0.0, |l| l.total_s())
    }
}

/// What one traced serving phase recorded.
struct Traced {
    tracer: Tracer,
    /// Generator lateness behind schedule at each push, seconds.
    late_s: Vec<f64>,
    /// `ArrivalQueue::push` durations, seconds.
    push_s: Vec<f64>,
    /// Scheduled arrival to `pop_batch` return, per request.
    wait_s: Vec<f64>,
    /// Scheduled arrival to `complete_batch` return, per request.
    e2e_s: Vec<f64>,
    /// Layer time covering each request: its wait plus its batch's
    /// service and completion spans.
    covered_s: Vec<f64>,
    /// `(scheduled arrival, end-to-end)` per request, seconds.
    samples: Vec<(f64, f64)>,
    /// Completion offsets, seconds.
    done_s: Vec<f64>,
    batches: Vec<BatchRec>,
    answers: Vec<Option<f32>>,
    /// First `pop_batch` start to last `complete_batch` end, seconds.
    worker_wall_s: f64,
}

/// Replays `arrivals` open-loop through an `ArrivalQueue` and one worker
/// on this thread, timing every public call. With `rotate`, batches take
/// turns through `ReplicaStage::run_batch`, staging + `infer_batch_rows_into`,
/// and staging + the layer-by-layer path; without, every batch goes through
/// `run_batch`.
fn traced_serve(
    runtime: &mut CentaurRuntime,
    requests: &[InferenceRequest],
    arrivals: &[f64],
    policy: BatchPolicy,
    rotate: bool,
) -> Result<Traced, CentaurError> {
    let n = arrivals.len();
    let config = runtime.model().config().clone();
    let (cols, max_batch) = (config.dense_features, policy.max_batch());
    let queue = ArrivalQueue::new();
    queue.restart_clock();
    let epoch = queue.start();
    let mut tracer = Tracer::new(epoch, 8 * n + 1024);
    let mut stage = ReplicaStage::new(&config, max_batch);
    let mut staging = Staging::new(cols, config.num_tables, max_batch);
    let mut path = LayerPath::new(runtime)?;
    let mut batch: Vec<QueuedRequest> = Vec::with_capacity(max_batch);
    let mut refs: Vec<&InferenceRequest> = Vec::with_capacity(max_batch);
    let mut primary: Vec<bool> = Vec::with_capacity(max_batch);
    let mut popped_ns = vec![0u64; n];
    let mut done_ns = vec![0u64; n];
    let mut batch_of = vec![0usize; n];
    let mut answers = vec![None; n];
    let mut batches: Vec<BatchRec> = Vec::with_capacity(n);

    let (served, (gen_tracer, late_s)) = std::thread::scope(|scope| {
        let queue = &queue;
        let generator = scope.spawn(move || generate(queue, arrivals, epoch));
        let mut serve = || -> Result<(), CentaurError> {
            loop {
                let id = batches.len() as u64;
                let (more, pop) =
                    tracer.time(Layer::Pop, id, || queue.pop_batch(policy, &mut batch));
                if !more {
                    return Ok(());
                }
                let size = batch.len();
                let mut rec = BatchRec {
                    size,
                    pop_s: pop.secs(),
                    ..BatchRec::default()
                };
                match if rotate { id % 3 } else { 0 } {
                    0 => {
                        refs.clear();
                        refs.extend(batch.iter().map(|q| &requests[q.index]));
                        let out = &mut staging.out;
                        let (result, span) = tracer.time(Layer::RunBatch, id, || {
                            stage
                                .run_batch(runtime, &refs)
                                .map(|p| out[..size].copy_from_slice(p))
                        });
                        result?;
                        rec.run_batch_s = Some(span.secs());
                    }
                    class => {
                        let ((), copy) = tracer.time(Layer::Copy, id, || {
                            staging.fill(requests, batch.iter().map(|q| q.index));
                        });
                        rec.copy_s = Some(copy.secs());
                        let Staging {
                            dense, sparse, out, ..
                        } = &mut staging;
                        let (dense, sparse, out) =
                            (&dense[..size * cols], &sparse[..size], &mut out[..size]);
                        if class == 1 {
                            let (result, span) = tracer.time(Layer::Infer, id, || {
                                runtime.infer_batch_rows_into(dense, cols, sparse, out)
                            });
                            result?;
                            rec.infer_s = Some(span.secs());
                        } else {
                            let model = runtime.model();
                            rec.layers =
                                Some(path.run(&mut tracer, id, model, dense, cols, sparse, out)?);
                            rec.lookups = batch.iter().map(|q| requests[q.index].lookups()).sum();
                            rec.dense_flops = path.dense_flops(model, size);
                        }
                    }
                }
                let ((), complete) = tracer.time(Layer::Complete, id, || {
                    queue.complete_batch(&batch, false, &mut primary);
                });
                rec.complete_s = complete.secs();
                for (slot, q) in batch.iter().enumerate() {
                    popped_ns[q.index] = pop.end_ns;
                    done_ns[q.index] = complete.end_ns;
                    batch_of[q.index] = batches.len();
                    answers[q.index] = Some(staging.out[slot]);
                }
                batches.push(rec);
            }
        };
        let served = serve();
        if served.is_err() {
            queue.close_abort();
        }
        (served, generator.join().expect("generator thread panicked"))
    });
    served?;

    let worker_wall_s = match (tracer.spans().first(), tracer.spans().last()) {
        (Some(first), Some(last)) => (last.end_ns - first.start_ns) as f64 * 1e-9,
        _ => 0.0,
    };
    let push_s = gen_tracer.spans().iter().map(|s| s.secs()).collect();
    tracer.absorb(gen_tracer);
    let mut traced = Traced {
        tracer,
        late_s,
        push_s,
        wait_s: Vec::with_capacity(n),
        e2e_s: Vec::with_capacity(n),
        samples: Vec::with_capacity(n),
        covered_s: Vec::with_capacity(n),
        done_s: Vec::with_capacity(n),
        batches,
        answers,
        worker_wall_s,
    };
    for (i, &arrival_s) in arrivals.iter().enumerate() {
        if traced.answers[i].is_none() {
            continue;
        }
        let wait = popped_ns[i] as f64 * 1e-9 - arrival_s;
        let done = done_ns[i] as f64 * 1e-9;
        let rec = &traced.batches[batch_of[i]];
        traced.wait_s.push(wait);
        traced.e2e_s.push(done - arrival_s);
        traced.samples.push((arrival_s, done - arrival_s));
        traced
            .covered_s
            .push(wait + rec.service_s() + rec.complete_s);
        traced.done_s.push(done);
    }
    Ok(traced)
}

/// The open-loop generator: sleeps until each scheduled arrival (in slices,
/// as the serving harness does), pushes, and closes the queue at the end.
/// Returns its push spans and its lateness behind schedule at each push.
fn generate(queue: &ArrivalQueue, arrivals: &[f64], epoch: Instant) -> (Tracer, Vec<f64>) {
    let mut tracer = Tracer::new(epoch, arrivals.len());
    let mut late_s = Vec::with_capacity(arrivals.len());
    for (index, &arrival_s) in arrivals.iter().enumerate() {
        let target = epoch + Duration::from_secs_f64(arrival_s);
        loop {
            let now = Instant::now();
            if now >= target {
                break;
            }
            std::thread::sleep((target - now).min(Duration::from_millis(5)));
        }
        let request = QueuedRequest::new(index, arrival_s);
        let (accepted, push) = tracer.time(Layer::Push, index as u64, || queue.push(request));
        late_s.push(push.start_ns as f64 * 1e-9 - arrival_s);
        if !accepted {
            // Only a worker failure closes the queue early.
            break;
        }
    }
    queue.close();
    (tracer, late_s)
}

/// Pushes the p50 of `values` (seconds) as microseconds.
fn push_us_p(m: &mut Metrics, name: &str, values: &[f64], p: f64) {
    m.push(name, us(percentile(values, p).unwrap_or(0.0)), "us");
}

/// The traced run: every per-layer metric.
pub fn run_traced(
    spec: &OnlineSpec,
    seed: u64,
    seconds: f64,
    trace_out: Option<&std::path::Path>,
) -> BenchResult<Report> {
    let traced_n = (spec.rate_qps * seconds * 0.3) as usize;
    let untraced_n = traced_n;
    let saturated_n = (spec.capacity_hint_qps * seconds * 0.15) as usize;
    let mut s = setup(spec, seed, traced_n.max(saturated_n), traced_n, saturated_n)?;
    let mut report = Report::new(&s.runtime);
    let probes = oracle_probes(&mut s.runtime, &s.requests, traced_n.min(saturated_n))?;
    let (model_centaur, model_cpusim) = modelled_split(
        &mut s.runtime,
        spec.distribution,
        seed,
        spec.policy.max_batch(),
    );

    let fixed = traced_serve(
        &mut s.runtime,
        &s.requests,
        s.fixed.arrivals_seconds(),
        spec.policy,
        true,
    )?;
    check_probes(
        &mut report.checks,
        "traced fixed-rate",
        &fixed.answers,
        &probes,
    );
    report.require_all_answered("traced fixed-rate", &fixed.answers);
    let saturated = traced_serve(
        &mut s.runtime,
        &s.requests,
        s.saturated.arrivals_seconds(),
        spec.policy,
        false,
    )?;
    check_probes(
        &mut report.checks,
        "traced saturated",
        &saturated.answers,
        &probes,
    );
    report.require_all_answered("traced saturated", &saturated.answers);

    let stream = QueryStream::generate(
        ArrivalProcess::Poisson {
            rate_qps: spec.rate_qps,
        },
        untraced_n,
        seed ^ 0x5EED_0002,
    );
    let untraced = serve_replay_with(
        vec![s.runtime],
        &s.requests[..untraced_n],
        &stream,
        spec.policy,
        ServeOptions::with_slo(SLO),
    )?;
    check_outcome(
        &mut report.checks,
        "untraced fixed-rate",
        &untraced,
        untraced_n,
        &probes,
    );

    let m = &mut report.metrics;
    let late_p90 = ms(percentile(&fixed.late_s, 90.0).unwrap_or(0.0));
    m.push("gen.late_ms.p90", late_p90, "ms");
    push_us_p(m, "queue.push_us.p50", &fixed.push_s, 50.0);
    m.push(
        "queue.wait_ms.p50",
        ms(percentile(&fixed.wait_s, 50.0).unwrap_or(0.0)),
        "ms",
    );
    m.push(
        "queue.wait_ms.p90",
        ms(percentile(&fixed.wait_s, 90.0).unwrap_or(0.0)),
        "ms",
    );
    let pick = |f: fn(&BatchRec) -> Option<f64>| -> Vec<f64> {
        fixed.batches.iter().filter_map(f).collect()
    };
    let pops: Vec<f64> = fixed.batches.iter().map(|b| b.pop_s).collect();
    let completes: Vec<f64> = fixed.batches.iter().map(|b| b.complete_s).collect();
    let sizes: Vec<f64> = fixed.batches.iter().map(|b| b.size as f64).collect();
    push_us_p(m, "queue.pop_us.p50", &pops, 50.0);
    push_us_p(m, "queue.complete_us.p50", &completes, 50.0);
    m.push(
        "queue.batch_size.mean",
        mean(&sizes).unwrap_or(0.0),
        "count",
    );
    push_us_p(m, "stage.run_batch_us.p50", &pick(|b| b.run_batch_s), 50.0);
    push_us_p(m, "stage.copy_us.p50", &pick(|b| b.copy_s), 50.0);
    let infer = pick(|b| b.infer_s);
    push_us_p(m, "runtime.infer_us.p50", &infer, 50.0);
    push_us_p(m, "runtime.infer_us.p90", &infer, 90.0);
    layer_metrics(
        m,
        row_bytes(&config()),
        fixed
            .batches
            .iter()
            .filter_map(|b| b.layers.map(|l| (l, b.lookups, b.dense_flops))),
    );
    m.push("split.model_centaur_sparse_share", model_centaur, "frac");
    m.push("split.model_cpusim_sparse_share", model_cpusim, "frac");
    m.push(
        "trace.coverage",
        coverage(&fixed.covered_s, &fixed.e2e_s).unwrap_or(0.0),
        "frac",
    );
    let untraced_lat = latencies(&untraced);
    let traced_p50 = window_latency(&fixed.samples, 50.0);
    let untraced_p50 = window_latency(&arrival_latency(&untraced), 50.0);
    m.push(
        "trace.overhead",
        overhead(traced_p50, untraced_p50).unwrap_or(0.0),
        "frac",
    );
    m.push("trace.p50_ms", ms(traced_p50), "ms");

    let wall = saturated.worker_wall_s.max(f64::MIN_POSITIVE);
    let share = |f: fn(&BatchRec) -> f64| saturated.batches.iter().map(f).sum::<f64>() / wall;
    m.push(
        "sat.capacity_per_s",
        window_capacity(&saturated.done_s),
        "1/s",
    );
    m.push(
        "sat.run_batch_share",
        share(|b| b.run_batch_s.unwrap_or(0.0)),
        "frac",
    );
    m.push("sat.pop_share", share(|b| b.pop_s), "frac");
    m.push("sat.complete_share", share(|b| b.complete_s), "frac");
    let sat_run: Vec<f64> = saturated
        .batches
        .iter()
        .filter_map(|b| b.run_batch_s)
        .collect();
    push_us_p(m, "sat.run_batch_us.p50", &sat_run, 50.0);
    let sat_sizes: Vec<f64> = saturated.batches.iter().map(|b| b.size as f64).collect();
    m.push(
        "sat.batch_size.mean",
        mean(&sat_sizes).unwrap_or(0.0),
        "count",
    );

    m.push("serve.generated", untraced_n as f64, "count");
    m.push(
        "serve.completed",
        untraced.completions.len() as f64,
        "count",
    );
    m.push("serve.shed", untraced.shed() as f64, "count");
    m.push("serve.failed", untraced.failed as f64, "count");
    m.push("serve.batches", untraced.batches as f64, "count");
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

    report.guard_lateness(late_p90, ms(traced_p50));
    report.attempted = traced_n + saturated_n + untraced_n;
    report.failed = untraced.failed + untraced.shed();
    if let Some(path) = trace_out {
        crate::layers::write_spans(path, fixed.tracer.spans())?;
    }
    Ok(report)
}

/// Bytes in one embedding row of `config`.
pub fn row_bytes(config: &ModelConfig) -> f64 {
    (config.embedding_dim * std::mem::size_of::<f32>()) as f64
}

/// Per-layer metrics of the layer-by-layer batches: `(times, lookups,
/// dense flops)` per batch.
pub fn layer_metrics(
    m: &mut Metrics,
    row_bytes: f64,
    batches: impl Iterator<Item = (LayerTimes, usize, u64)>,
) {
    let (mut gather, mut bottom, mut interaction, mut top, mut dense) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut lookups, mut flops) = (0usize, 0u64);
    for (t, l, f) in batches {
        gather.push(t.gather_s);
        bottom.push(t.bottom_s);
        interaction.push(t.interaction_s);
        top.push(t.top_s);
        dense.push(t.dense_s());
        lookups += l;
        flops += f;
    }
    let gather_total: f64 = gather.iter().sum();
    let dense_total: f64 = dense.iter().sum();
    push_us_p(m, "sparse.gather_us.p50", &gather, 50.0);
    m.push(
        "sparse.ns_per_lookup",
        gather_total * 1e9 / lookups.max(1) as f64,
        "ns",
    );
    m.push(
        "sparse.computed_gb_per_s",
        lookups as f64 * row_bytes / gather_total.max(f64::MIN_POSITIVE) * 1e-9,
        "GB/s",
    );
    push_us_p(m, "dense.forward_us.p50", &dense, 50.0);
    push_us_p(m, "dense.bottom_mlp_us.p50", &bottom, 50.0);
    push_us_p(m, "dense.interaction_us.p50", &interaction, 50.0);
    push_us_p(m, "dense.top_mlp_us.p50", &top, 50.0);
    m.push(
        "dense.gflops",
        flops as f64 / dense_total.max(f64::MIN_POSITIVE) * 1e-9,
        "GFLOP/s",
    );
    let compute = (gather_total + dense_total).max(f64::MIN_POSITIVE);
    m.push("split.sparse_share", gather_total / compute, "frac");
    m.push("split.dense_share", dense_total / compute, "frac");
}
