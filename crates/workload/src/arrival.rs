//! Query arrival processes for service-level (SLA/QoS) studies.
//!
//! The paper motivates CPU-based deployment with firm SLA targets for
//! user-facing inference. The examples in this workspace use a Poisson
//! arrival process plus the per-request latencies predicted by the system
//! simulators to estimate tail latency under load.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inter-arrival behaviour of inference queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate_qps` queries per second (exponential
    /// inter-arrival times).
    Poisson {
        /// Mean arrival rate in queries per second.
        rate_qps: f64,
    },
    /// Deterministic arrivals exactly `1/rate_qps` apart.
    Uniform {
        /// Arrival rate in queries per second.
        rate_qps: f64,
    },
    /// Two-state Markov-modulated Poisson process: Poisson arrivals whose
    /// rate switches between a low and a high state, with exponentially
    /// distributed dwell times in each state — the classic bursty-traffic
    /// model (request floods arrive in episodes, not as a stationary
    /// stream).
    Mmpp2 {
        /// Arrival rate while in the low state, queries per second.
        rate_low_qps: f64,
        /// Arrival rate while in the high (burst) state, queries per second.
        rate_high_qps: f64,
        /// Mean dwell time in the low state, seconds.
        mean_dwell_low_s: f64,
        /// Mean dwell time in the high state, seconds.
        mean_dwell_high_s: f64,
    },
    /// On-off modulated Poisson (a square-wave "diurnal" superposition):
    /// Poisson arrivals at `rate_on_qps` during on-windows of `on_s`
    /// seconds, silence for `off_s` seconds between them, repeating from
    /// stream start.
    OnOff {
        /// Arrival rate during on-windows, queries per second.
        rate_on_qps: f64,
        /// On-window length, seconds.
        on_s: f64,
        /// Off-window length, seconds.
        off_s: f64,
    },
    /// Two-branch hyperexponential (H2) renewal arrivals: each
    /// inter-arrival gap independently draws the fast branch (rate
    /// `rate_fast_qps`) with probability `p_fast`, else the slow branch —
    /// a heavy-tailed gap distribution (squared coefficient of variation
    /// above 1, versus exactly 1 for Poisson) that clumps arrivals harder
    /// than MMPP-2's two-rate modulation while staying memoryless between
    /// gaps (no modulation state to carry).
    HyperExp {
        /// Probability an inter-arrival gap draws the fast branch.
        p_fast: f64,
        /// Fast-branch rate in queries per second.
        rate_fast_qps: f64,
        /// Slow-branch rate in queries per second.
        rate_slow_qps: f64,
    },
}

impl ArrivalProcess {
    /// Long-run mean arrival rate in queries per second.
    pub fn rate_qps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_qps } | ArrivalProcess::Uniform { rate_qps } => rate_qps,
            ArrivalProcess::Mmpp2 {
                rate_low_qps,
                rate_high_qps,
                mean_dwell_low_s,
                mean_dwell_high_s,
            } => {
                let span = mean_dwell_low_s + mean_dwell_high_s;
                (rate_low_qps * mean_dwell_low_s + rate_high_qps * mean_dwell_high_s) / span
            }
            ArrivalProcess::OnOff {
                rate_on_qps,
                on_s,
                off_s,
            } => rate_on_qps * on_s / (on_s + off_s),
            ArrivalProcess::HyperExp {
                p_fast,
                rate_fast_qps,
                rate_slow_qps,
            } => {
                // Mean gap is the probability-weighted branch means.
                let mean_gap = p_fast / rate_fast_qps + (1.0 - p_fast) / rate_slow_qps;
                1.0 / mean_gap
            }
        }
    }

    /// Short traffic-shape label for bench/report cells.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Uniform { .. } => "uniform",
            ArrivalProcess::Mmpp2 { .. } => "mmpp2",
            ArrivalProcess::OnOff { .. } => "onoff",
            ArrivalProcess::HyperExp { .. } => "hyperexp",
        }
    }

    /// Draws the next inter-arrival gap in seconds. Only defined for the
    /// memoryless (stateless) processes; the modulated shapes carry state
    /// between arrivals and must be sampled through [`ArrivalSampler`] (or
    /// [`QueryStream::generate`], which uses one internally).
    ///
    /// # Panics
    ///
    /// Panics if the configured rate is not strictly positive, or on a
    /// modulated process (`Mmpp2`, `OnOff`).
    pub fn next_gap_seconds(&self, rng: &mut StdRng) -> f64 {
        let rate = self.rate_qps();
        assert!(rate > 0.0, "arrival rate must be positive");
        match *self {
            ArrivalProcess::Poisson { .. } => exp_gap(rng, rate),
            ArrivalProcess::Uniform { .. } => 1.0 / rate,
            ArrivalProcess::HyperExp {
                p_fast,
                rate_fast_qps,
                rate_slow_qps,
            } => {
                // Each gap is an independent two-branch mixture draw — no
                // state carries between arrivals, so the renewal process
                // samples through the same path as Poisson/Uniform.
                let branch: f64 = rng.gen_range(0.0..1.0);
                let branch_rate = if branch < p_fast {
                    rate_fast_qps
                } else {
                    rate_slow_qps
                };
                exp_gap(rng, branch_rate)
            }
            ArrivalProcess::Mmpp2 { .. } | ArrivalProcess::OnOff { .. } => panic!(
                "modulated arrival processes are stateful; sample them through ArrivalSampler"
            ),
        }
    }

    /// Validates the process parameters (positive rates and dwell/window
    /// lengths where they are required).
    ///
    /// # Panics
    ///
    /// Panics on non-positive rates, dwells or window lengths (a burst
    /// state must burst; an off-window of zero is a plain Poisson stream
    /// and should be written as one).
    pub fn validate(&self) {
        match *self {
            ArrivalProcess::Poisson { rate_qps } | ArrivalProcess::Uniform { rate_qps } => {
                assert!(rate_qps > 0.0, "arrival rate must be positive");
            }
            ArrivalProcess::Mmpp2 {
                rate_low_qps,
                rate_high_qps,
                mean_dwell_low_s,
                mean_dwell_high_s,
            } => {
                assert!(
                    rate_low_qps > 0.0 && rate_high_qps > 0.0,
                    "MMPP state rates must be positive"
                );
                assert!(
                    mean_dwell_low_s > 0.0 && mean_dwell_high_s > 0.0,
                    "MMPP mean dwell times must be positive"
                );
            }
            ArrivalProcess::OnOff {
                rate_on_qps,
                on_s,
                off_s,
            } => {
                assert!(rate_on_qps > 0.0, "on-window rate must be positive");
                assert!(on_s > 0.0 && off_s > 0.0, "on/off windows must be positive");
            }
            ArrivalProcess::HyperExp {
                p_fast,
                rate_fast_qps,
                rate_slow_qps,
            } => {
                assert!(
                    rate_fast_qps > 0.0 && rate_slow_qps > 0.0,
                    "hyperexponential branch rates must be positive"
                );
                assert!(
                    p_fast > 0.0 && p_fast < 1.0,
                    "hyperexponential branch probability must be in (0, 1); \
                     a degenerate branch is a plain Poisson stream and should \
                     be written as one"
                );
            }
        }
    }
}

/// Draws one exponential gap at `rate` events per second.
fn exp_gap(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

/// Stateful arrival-time sampler: owns the seeded RNG plus whatever
/// modulation state the process carries (MMPP phase and dwell boundary),
/// and yields successive **absolute** arrival offsets in seconds from
/// stream start.
///
/// For the memoryless processes this draws exactly the same stream as the
/// historical `next_gap_seconds` loop (bit-for-bit, same RNG call
/// sequence), so pre-existing seeded Poisson/Uniform streams are unchanged.
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    rng: StdRng,
    /// Current absolute time, seconds from stream start.
    t: f64,
    /// MMPP: `true` while in the high (burst) state.
    high: bool,
    /// MMPP: absolute time the current state's dwell ends.
    dwell_until: f64,
}

impl ArrivalSampler {
    /// Creates a sampler for `process`, deterministically seeded.
    ///
    /// # Panics
    ///
    /// Panics when the process parameters are invalid
    /// (see [`ArrivalProcess::validate`]).
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        process.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        // MMPP starts in the low state with a full exponential dwell ahead
        // of it; the other processes ignore these fields.
        let dwell_until = match process {
            ArrivalProcess::Mmpp2 {
                mean_dwell_low_s, ..
            } => exp_gap(&mut rng, 1.0 / mean_dwell_low_s),
            _ => f64::INFINITY,
        };
        ArrivalSampler {
            process,
            rng,
            t: 0.0,
            high: false,
            dwell_until,
        }
    }

    /// Returns the next arrival's absolute offset in seconds from stream
    /// start (strictly non-decreasing).
    pub fn next_arrival_s(&mut self) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { .. }
            | ArrivalProcess::Uniform { .. }
            | ArrivalProcess::HyperExp { .. } => {
                self.t += self.process.next_gap_seconds(&mut self.rng);
            }
            ArrivalProcess::Mmpp2 {
                rate_low_qps,
                rate_high_qps,
                mean_dwell_low_s,
                mean_dwell_high_s,
            } => loop {
                let rate = if self.high {
                    rate_high_qps
                } else {
                    rate_low_qps
                };
                let gap = exp_gap(&mut self.rng, rate);
                if self.t + gap <= self.dwell_until {
                    self.t += gap;
                    break;
                }
                // The candidate arrival falls past the state switch: jump to
                // the switch and redraw at the new state's rate (correct by
                // memorylessness of the exponential).
                self.t = self.dwell_until;
                self.high = !self.high;
                let mean_dwell = if self.high {
                    mean_dwell_high_s
                } else {
                    mean_dwell_low_s
                };
                self.dwell_until = self.t + exp_gap(&mut self.rng, 1.0 / mean_dwell);
            },
            ArrivalProcess::OnOff {
                rate_on_qps,
                on_s,
                off_s,
            } => loop {
                let period = on_s + off_s;
                // The jump target is computed as a window-index *product*
                // rather than accumulated increments: adding `period - phase`
                // onto a large `t` can advance it by less than one ulp and
                // stall the walk. The product form has its own rounding trap —
                // right after a jump to `k·period`, `t / period` can round to
                // just below `k`, making `(window + 1)·period` land back on
                // `t` itself — so jumps bump the index until they strictly
                // advance.
                let window = (self.t / period).floor();
                let next_window_start = |mut w: f64, t: f64| loop {
                    w += 1.0;
                    let start = w * period;
                    if start > t {
                        return start;
                    }
                };
                let phase = self.t - window * period;
                if phase >= on_s {
                    // Inside an off-window: jump to the next on-window.
                    self.t = next_window_start(window, self.t);
                    continue;
                }
                let gap = exp_gap(&mut self.rng, rate_on_qps);
                if phase + gap < on_s {
                    self.t += gap;
                    break;
                }
                // Candidate lands past this on-window's end: jump to the
                // next window start and redraw (memorylessness again).
                self.t = next_window_start(window, self.t);
            },
        }
        self.t
    }
}

/// Named traffic-shape presets serving sweeps iterate over: each maps a
/// target long-run mean rate to a concrete [`ArrivalProcess`], so bench
/// cells can sweep `shape × load` with comparable offered work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficShape {
    /// Stationary Poisson at the mean rate.
    Poisson,
    /// Bursty 2-state MMPP: 75 ms low-state dwells at ⅓× the mean rate,
    /// 25 ms burst dwells at 3× — long-run mean equals the target
    /// (¾·⅓ + ¼·3 = 1), but a burst offers 3× the provisioned load.
    Bursty,
    /// On-off square wave: 50 ms on at 2× the mean rate, 50 ms silent —
    /// the diurnal/batch-ingest shape compressed to bench timescales.
    OnOff,
    /// Heavy-tailed hyperexponential renewal arrivals with a squared
    /// coefficient of variation of [`HEAVY_TAIL_CV2`] (balanced-means H2
    /// parameterization) — burstier than the MMPP-2 preset at the gap
    /// level: most gaps are short clumps, a few are long silences, with
    /// the long-run mean rate preserved exactly.
    HeavyTail,
}

/// Squared coefficient of variation of the [`TrafficShape::HeavyTail`]
/// gap distribution (Poisson gaps have CV² = 1).
pub const HEAVY_TAIL_CV2: f64 = 9.0;

impl TrafficShape {
    /// Every preset, in sweep order.
    pub fn all() -> [TrafficShape; 4] {
        [
            TrafficShape::Poisson,
            TrafficShape::Bursty,
            TrafficShape::OnOff,
            TrafficShape::HeavyTail,
        ]
    }

    /// The concrete arrival process offering `mean_qps` long-run.
    pub fn process(self, mean_qps: f64) -> ArrivalProcess {
        match self {
            TrafficShape::Poisson => ArrivalProcess::Poisson { rate_qps: mean_qps },
            TrafficShape::Bursty => ArrivalProcess::Mmpp2 {
                rate_low_qps: mean_qps / 3.0,
                rate_high_qps: mean_qps * 3.0,
                mean_dwell_low_s: 0.075,
                mean_dwell_high_s: 0.025,
            },
            TrafficShape::OnOff => ArrivalProcess::OnOff {
                rate_on_qps: mean_qps * 2.0,
                on_s: 0.05,
                off_s: 0.05,
            },
            TrafficShape::HeavyTail => {
                // Balanced-means H2 at CV² = c: each branch contributes half
                // the mean gap. p = ½(1 + √((c−1)/(c+1))), branch rates
                // 2pλ and 2(1−p)λ — the standard two-moment fit, mean gap
                // exactly 1/λ by construction.
                let c = HEAVY_TAIL_CV2;
                let p_fast = 0.5 * (1.0 + ((c - 1.0) / (c + 1.0)).sqrt());
                ArrivalProcess::HyperExp {
                    p_fast,
                    rate_fast_qps: 2.0 * p_fast * mean_qps,
                    rate_slow_qps: 2.0 * (1.0 - p_fast) * mean_qps,
                }
            }
        }
    }

    /// Short label for bench/report cells.
    pub fn label(self) -> &'static str {
        match self {
            TrafficShape::Poisson => "poisson",
            TrafficShape::Bursty => "bursty",
            TrafficShape::OnOff => "onoff",
            TrafficShape::HeavyTail => "heavytail",
        }
    }
}

/// A generated stream of query arrival timestamps (seconds from stream
/// start).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStream {
    arrivals_s: Vec<f64>,
}

impl QueryStream {
    /// Generates `count` arrivals from `process`, deterministically seeded.
    pub fn generate(process: ArrivalProcess, count: usize, seed: u64) -> Self {
        let mut sampler = ArrivalSampler::new(process, seed);
        let mut arrivals_s = Vec::with_capacity(count);
        for _ in 0..count {
            arrivals_s.push(sampler.next_arrival_s());
        }
        QueryStream { arrivals_s }
    }

    /// Arrival timestamps in seconds.
    pub fn arrivals_seconds(&self) -> &[f64] {
        &self.arrivals_s
    }

    /// Number of queries in the stream.
    pub fn len(&self) -> usize {
        self.arrivals_s.len()
    }

    /// Returns `true` when the stream holds no queries.
    pub fn is_empty(&self) -> bool {
        self.arrivals_s.is_empty()
    }

    /// Simulates a single-server queue where every query takes
    /// `service_time_s` seconds, returning each query's total latency
    /// (queueing + service) in seconds.
    pub fn simulate_fifo_latency(&self, service_time_s: f64) -> Vec<f64> {
        let mut server_free_at = 0.0_f64;
        let mut latencies = Vec::with_capacity(self.arrivals_s.len());
        for &arrival in &self.arrivals_s {
            let start = arrival.max(server_free_at);
            let finish = start + service_time_s;
            latencies.push(finish - arrival);
            server_free_at = finish;
        }
        latencies
    }

    /// Returns the `p`-th percentile (0.0–1.0) of a latency vector.
    ///
    /// Nearest-rank on the sorted values: the index is
    /// `round((len - 1) · p)`, so `p = 0` is exactly the minimum, `p = 1`
    /// exactly the maximum, and a single-element input returns that element
    /// for every `p` — behaviour pinned by unit tests because the serving
    /// tail-latency results are computed through here.
    ///
    /// # Panics
    ///
    /// Panics if `latencies` is empty, `p` is outside `[0, 1]`, or any
    /// latency is NaN.
    pub fn percentile(latencies: &[f64], p: f64) -> f64 {
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        Self::percentile_sorted(&sorted, p)
    }

    /// [`QueryStream::percentile`] over an already **ascending-sorted**
    /// slice — no copy, no re-sort; what [`LatencySummary`] uses to extract
    /// several percentiles from one sort.
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is empty or `p` is outside `[0, 1]`.
    pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
        assert!(!sorted.is_empty(), "percentile of empty latency set");
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        // `(len - 1) · p` is at most `len - 1` for p ≤ 1, so the rounded
        // index can never run past the end — p = 1.0 lands exactly on the
        // maximum and p = 0.0 exactly on the minimum.
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    }

    /// Pairs every query with its arrival offset (seconds from stream
    /// start), in arrival order — the open-loop **replay iterator** a load
    /// generator walks, sleeping until each offset and then releasing the
    /// query. Latency accounting stays tied to the *scheduled* arrival, so
    /// a generator running late inflates measured latency instead of
    /// silently thinning the offered load (open-loop semantics).
    pub fn replay(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.arrivals_s.iter().copied().enumerate()
    }
}

/// Tail-latency digest of a set of recorded per-request latencies, in
/// seconds: the helper serving experiments use to turn raw recorded
/// latencies into the p50/p95/p99 numbers the paper-adjacent serving
/// studies (RecNMP, MicroRec) report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of latencies summarized.
    pub count: usize,
    /// Arithmetic mean, in seconds.
    pub mean_s: f64,
    /// Median, in seconds.
    pub p50_s: f64,
    /// 95th percentile, in seconds.
    pub p95_s: f64,
    /// 99th percentile, in seconds.
    pub p99_s: f64,
    /// 99.9th percentile, in seconds — the deep-tail number at-load serving
    /// SLAs are actually written against (p99 hides one request in a
    /// thousand).
    pub p999_s: f64,
    /// Maximum, in seconds.
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarizes recorded latencies (one sort, every percentile from it).
    /// Returns `None` for an empty set.
    pub fn from_latencies(latencies: &[f64]) -> Option<LatencySummary> {
        if latencies.is_empty() {
            return None;
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let mean_s = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(LatencySummary {
            count: sorted.len(),
            mean_s,
            p50_s: QueryStream::percentile_sorted(&sorted, 0.50),
            p95_s: QueryStream::percentile_sorted(&sorted, 0.95),
            p99_s: QueryStream::percentile_sorted(&sorted, 0.99),
            p999_s: QueryStream::percentile_sorted(&sorted, 0.999),
            max_s: *sorted.last().expect("non-empty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_is_close() {
        let stream = QueryStream::generate(ArrivalProcess::Poisson { rate_qps: 1000.0 }, 20_000, 1);
        let span = *stream.arrivals_seconds().last().unwrap();
        let measured_rate = stream.len() as f64 / span;
        assert!((measured_rate - 1000.0).abs() / 1000.0 < 0.05);
    }

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let stream = QueryStream::generate(ArrivalProcess::Uniform { rate_qps: 100.0 }, 10, 2);
        let a = stream.arrivals_seconds();
        for w in a.windows(2) {
            assert!((w[1] - w[0] - 0.01).abs() < 1e-9);
        }
    }

    #[test]
    fn arrivals_are_monotonic() {
        let stream = QueryStream::generate(ArrivalProcess::Poisson { rate_qps: 50.0 }, 1000, 3);
        assert!(stream.arrivals_seconds().windows(2).all(|w| w[1] >= w[0]));
        assert!(!stream.is_empty());
    }

    #[test]
    fn fifo_latency_under_light_load_equals_service_time() {
        let stream = QueryStream::generate(ArrivalProcess::Uniform { rate_qps: 10.0 }, 100, 4);
        // service time 1 ms << 100 ms gap: no queueing.
        let lat = stream.simulate_fifo_latency(0.001);
        assert!(lat.iter().all(|&l| (l - 0.001).abs() < 1e-9));
    }

    #[test]
    fn fifo_latency_grows_under_overload() {
        let stream = QueryStream::generate(ArrivalProcess::Uniform { rate_qps: 1000.0 }, 100, 5);
        // service time 10 ms >> 1 ms gap: queue builds up linearly.
        let lat = stream.simulate_fifo_latency(0.010);
        assert!(lat.last().unwrap() > &0.5);
        assert!(QueryStream::percentile(&lat, 0.99) > QueryStream::percentile(&lat, 0.5));
    }

    #[test]
    fn percentile_bounds() {
        let lat = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(QueryStream::percentile(&lat, 0.0), 1.0);
        assert_eq!(QueryStream::percentile(&lat, 1.0), 4.0);
    }

    #[test]
    fn percentile_p0_and_p1_are_exact_extremes_regardless_of_order() {
        // Unsorted input with duplicates: p=0 must be the true minimum and
        // p=1 the true maximum — never an off-by-one neighbour.
        let lat = vec![5.0, 1.0, 9.0, 1.0, 7.0, 9.0, 3.0];
        assert_eq!(QueryStream::percentile(&lat, 0.0), 1.0);
        assert_eq!(QueryStream::percentile(&lat, 1.0), 9.0);
    }

    #[test]
    fn percentile_of_single_element_is_that_element_for_every_p() {
        let lat = vec![0.125];
        for p in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(QueryStream::percentile(&lat, p), 0.125);
        }
    }

    #[test]
    fn percentile_index_math_is_pinned() {
        // Nearest-rank on (len-1)·p: document the exact rank selected so
        // serving results can never drift silently. Two elements at p=0.5
        // rounds up (0.5 → index 1); four elements at p=0.5 picks index 2.
        assert_eq!(QueryStream::percentile(&[1.0, 2.0], 0.5), 2.0);
        assert_eq!(QueryStream::percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 3.0);
        // p95/p99 on 100 samples 0..100: ranks 94 and 98.
        let lat: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(QueryStream::percentile(&lat, 0.95), 94.0);
        assert_eq!(QueryStream::percentile(&lat, 0.99), 98.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty latency set")]
    fn percentile_of_empty_set_panics() {
        QueryStream::percentile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0,1]")]
    fn percentile_out_of_range_panics() {
        // Percentages (e.g. 99 for p99) are a caller bug, not a scale.
        QueryStream::percentile(&[1.0], 99.0);
    }

    #[test]
    fn percentile_sorted_skips_the_copy_but_matches() {
        let lat = vec![4.0, 1.0, 3.0, 2.0];
        let mut sorted = lat.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(
                QueryStream::percentile(&lat, p),
                QueryStream::percentile_sorted(&sorted, p)
            );
        }
    }

    #[test]
    fn latency_summary_digests_percentiles_and_mean() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64 * 0.001).collect();
        let s = LatencySummary::from_latencies(&lat).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean_s - 0.0505).abs() < 1e-9);
        assert_eq!(s.p50_s, QueryStream::percentile(&lat, 0.50));
        assert_eq!(s.p95_s, QueryStream::percentile(&lat, 0.95));
        assert_eq!(s.p99_s, QueryStream::percentile(&lat, 0.99));
        assert_eq!(s.p999_s, QueryStream::percentile(&lat, 0.999));
        assert!(s.p999_s >= s.p99_s && s.p999_s <= s.max_s);
        assert_eq!(s.max_s, 0.1);
        assert!(LatencySummary::from_latencies(&[]).is_none());
    }

    #[test]
    fn latency_summary_p999_separates_a_deep_tail_outlier() {
        // 499 fast requests and one 100 ms straggler: p99 stays at the fast
        // cohort while p99.9 lands on the straggler (nearest rank on 500
        // samples: 499·0.999 = 498.5 rounds to index 499) — the case the
        // p99.9 column exists to expose.
        let mut lat = vec![0.001; 499];
        lat.push(0.1);
        let s = LatencySummary::from_latencies(&lat).unwrap();
        assert_eq!(s.p99_s, 0.001);
        assert_eq!(s.p999_s, 0.1);
    }

    #[test]
    fn replay_yields_every_arrival_in_order() {
        let stream = QueryStream::generate(ArrivalProcess::Poisson { rate_qps: 100.0 }, 50, 11);
        let replayed: Vec<(usize, f64)> = stream.replay().collect();
        assert_eq!(replayed.len(), 50);
        assert!(replayed.iter().enumerate().all(|(i, &(id, _))| id == i));
        let offsets: Vec<f64> = replayed.iter().map(|&(_, t)| t).collect();
        assert_eq!(offsets, stream.arrivals_seconds());
        assert!(offsets.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        ArrivalProcess::Poisson { rate_qps: 0.0 }.next_gap_seconds(&mut rng);
    }

    #[test]
    fn generation_deterministic() {
        let a = QueryStream::generate(ArrivalProcess::Poisson { rate_qps: 10.0 }, 50, 9);
        let b = QueryStream::generate(ArrivalProcess::Poisson { rate_qps: 10.0 }, 50, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn modulated_generation_is_deterministic_and_monotonic() {
        for process in [
            TrafficShape::Bursty.process(5_000.0),
            TrafficShape::OnOff.process(5_000.0),
        ] {
            let a = QueryStream::generate(process, 2_000, 17);
            let b = QueryStream::generate(process, 2_000, 17);
            assert_eq!(
                a,
                b,
                "{} stream must be seed-deterministic",
                process.label()
            );
            assert!(
                a.arrivals_seconds().windows(2).all(|w| w[1] >= w[0]),
                "{} arrivals must be non-decreasing",
                process.label()
            );
            let c = QueryStream::generate(process, 2_000, 18);
            assert_ne!(a, c, "different seeds must differ");
        }
    }

    #[test]
    fn mmpp2_long_run_rate_matches_the_configured_mean() {
        let process = TrafficShape::Bursty.process(10_000.0);
        assert!((process.rate_qps() - 10_000.0).abs() < 1e-9);
        // Long stream: the measured rate converges on the configured mean.
        let stream = QueryStream::generate(process, 100_000, 3);
        let span = *stream.arrivals_seconds().last().unwrap();
        let measured = stream.len() as f64 / span;
        assert!(
            (measured - 10_000.0).abs() / 10_000.0 < 0.08,
            "measured mean rate {measured:.0} qps drifted from 10k"
        );
    }

    #[test]
    fn mmpp2_dwell_statistics_are_within_tolerance() {
        // Count arrivals in dwell-sized windows: the burst state must show
        // up as windows far above the mean rate and the low state far
        // below — i.e. the index of dispersion (var/mean of window counts)
        // is well above the ~1.0 a stationary Poisson stream would show.
        let mean_qps = 20_000.0;
        let window_s = 0.025;
        let dispersion = |process: ArrivalProcess| {
            let stream = QueryStream::generate(process, 200_000, 7);
            let span = *stream.arrivals_seconds().last().unwrap();
            let windows = (span / window_s).floor() as usize;
            let mut counts = vec![0usize; windows];
            for &t in stream.arrivals_seconds() {
                let w = (t / window_s) as usize;
                if w < windows {
                    counts[w] += 1;
                }
            }
            let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
            let var = counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / counts.len() as f64;
            var / mean
        };
        let poisson = dispersion(TrafficShape::Poisson.process(mean_qps));
        let bursty = dispersion(TrafficShape::Bursty.process(mean_qps));
        assert!(
            (0.5..2.0).contains(&poisson),
            "Poisson window counts should be near-Poisson dispersed, got {poisson:.2}"
        );
        assert!(
            bursty > 10.0,
            "MMPP burst/low states must overdisperse window counts, got {bursty:.2}"
        );
    }

    #[test]
    fn on_off_arrivals_only_land_in_on_windows_at_the_on_rate() {
        let process = ArrivalProcess::OnOff {
            rate_on_qps: 8_000.0,
            on_s: 0.05,
            off_s: 0.05,
        };
        assert!((process.rate_qps() - 4_000.0).abs() < 1e-9);
        let stream = QueryStream::generate(process, 20_000, 5);
        for &t in stream.arrivals_seconds() {
            let phase = t.rem_euclid(0.1);
            assert!(phase < 0.05, "arrival at {t:.4}s lands in an off-window");
        }
        // Within on-windows the rate is the on-rate, so the stream's mean
        // over full periods is the duty-cycled mean.
        let span = *stream.arrivals_seconds().last().unwrap();
        let measured = stream.len() as f64 / span;
        assert!(
            (measured - 4_000.0).abs() / 4_000.0 < 0.08,
            "duty-cycled mean rate {measured:.0} qps drifted from 4k"
        );
    }

    #[test]
    fn traffic_shapes_label_and_mean_preserving() {
        for shape in TrafficShape::all() {
            let process = shape.process(50_000.0);
            assert!(
                (process.rate_qps() - 50_000.0).abs() < 1e-6,
                "{} preset must preserve the mean rate",
                shape.label()
            );
        }
        assert_eq!(TrafficShape::Poisson.label(), "poisson");
        assert_eq!(TrafficShape::Bursty.label(), "bursty");
        assert_eq!(TrafficShape::OnOff.label(), "onoff");
        assert_eq!(TrafficShape::HeavyTail.label(), "heavytail");
        assert_eq!(TrafficShape::Bursty.process(1.0).label(), "mmpp2");
        assert_eq!(TrafficShape::OnOff.process(1.0).label(), "onoff");
        assert_eq!(TrafficShape::HeavyTail.process(1.0).label(), "hyperexp");
        assert_eq!(ArrivalProcess::Uniform { rate_qps: 1.0 }.label(), "uniform");
    }

    #[test]
    fn heavy_tail_preset_is_mean_preserving_and_deterministic() {
        let process = TrafficShape::HeavyTail.process(10_000.0);
        assert!(
            (process.rate_qps() - 10_000.0).abs() < 1e-9,
            "balanced-means H2 must preserve the mean rate exactly"
        );
        let a = QueryStream::generate(process, 50_000, 21);
        let b = QueryStream::generate(process, 50_000, 21);
        assert_eq!(a, b, "heavy-tail stream must be seed-deterministic");
        assert_ne!(a, QueryStream::generate(process, 50_000, 22));
        assert!(a.arrivals_seconds().windows(2).all(|w| w[1] >= w[0]));
        // Long stream: the measured rate converges on the configured mean.
        let span = *a.arrivals_seconds().last().unwrap();
        let measured = a.len() as f64 / span;
        assert!(
            (measured - 10_000.0).abs() / 10_000.0 < 0.08,
            "measured mean rate {measured:.0} qps drifted from 10k"
        );
    }

    #[test]
    fn heavy_tail_gap_statistics_are_pinned() {
        // Gap-level statistics: the H2 preset is built for CV² = 9, far
        // above Poisson's 1. Sampling noise on a 200k-gap stream keeps the
        // empirical CV² within a broad pinned band — drifting parameters
        // (a wrong branch probability or unbalanced means) land far outside.
        let cv2 = |process: ArrivalProcess| {
            let stream = QueryStream::generate(process, 200_000, 7);
            let a = stream.arrivals_seconds();
            let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let poisson = cv2(TrafficShape::Poisson.process(20_000.0));
        let heavy = cv2(TrafficShape::HeavyTail.process(20_000.0));
        assert!(
            (0.9..1.1).contains(&poisson),
            "Poisson gap CV² must sit near 1, got {poisson:.2}"
        );
        assert!(
            (6.0..12.0).contains(&heavy),
            "heavy-tail gap CV² must sit near {HEAVY_TAIL_CV2}, got {heavy:.2}"
        );
        // Window-count dispersion (the MMPP-2 test's instrument): a heavy-
        // tailed renewal stream overdisperses counts well past Poisson too.
        let dispersion = |process: ArrivalProcess| {
            let stream = QueryStream::generate(process, 200_000, 7);
            let window_s = 0.025;
            let span = *stream.arrivals_seconds().last().unwrap();
            let windows = (span / window_s).floor() as usize;
            let mut counts = vec![0usize; windows];
            for &t in stream.arrivals_seconds() {
                let w = (t / window_s) as usize;
                if w < windows {
                    counts[w] += 1;
                }
            }
            let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
            let var = counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / counts.len() as f64;
            var / mean
        };
        let heavy_dispersion = dispersion(TrafficShape::HeavyTail.process(20_000.0));
        assert!(
            heavy_dispersion > 3.0,
            "heavy-tail window counts must overdisperse, got {heavy_dispersion:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "branch probability")]
    fn hyperexp_rejects_degenerate_branch_probability() {
        ArrivalSampler::new(
            ArrivalProcess::HyperExp {
                p_fast: 1.0,
                rate_fast_qps: 10.0,
                rate_slow_qps: 1.0,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "stateful")]
    fn modulated_gap_sampling_requires_the_sampler() {
        let mut rng = StdRng::seed_from_u64(0);
        TrafficShape::Bursty
            .process(100.0)
            .next_gap_seconds(&mut rng);
    }

    #[test]
    #[should_panic(expected = "dwell times must be positive")]
    fn mmpp2_rejects_non_positive_dwells() {
        ArrivalSampler::new(
            ArrivalProcess::Mmpp2 {
                rate_low_qps: 1.0,
                rate_high_qps: 2.0,
                mean_dwell_low_s: 0.0,
                mean_dwell_high_s: 1.0,
            },
            0,
        );
    }
}
