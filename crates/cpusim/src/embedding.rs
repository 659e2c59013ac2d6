//! CPU-side embedding-gather execution model.
//!
//! Mirrors how the PyTorch/Caffe2 DLRM executes the sparse frontend on a
//! CPU: each embedding table is a separate `SparseLengthsSum` operator,
//! dispatched sequentially by the framework; inside an operator the batch is
//! divided across worker threads; each worker walks its samples' indices,
//! loading 128-byte embedding rows through the cache hierarchy and
//! accumulating them. The per-thread number of in-flight misses is bounded
//! by [`crate::CpuConfig::gather_ilp_window`], which is what keeps the
//! achieved memory bandwidth far below the DRAM peak (Section III-C of the
//! paper).

use crate::config::CpuConfig;
use centaur_dlrm::trace::{InferenceTrace, TableLayout};
use centaur_memsim::{lines_spanned, CacheHierarchy, DramModel, HierarchyStats, Throughput};
use std::collections::VecDeque;

/// Result of simulating the embedding stage of one batched request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmbeddingResult {
    /// End-to-end latency of the embedding stage in nanoseconds.
    pub latency_ns: f64,
    /// Useful embedding bytes gathered.
    pub gathered_bytes: u64,
    /// Number of embedding-row lookups performed.
    pub lookups: u64,
    /// Cache-line requests that reached DRAM.
    pub dram_requests: u64,
    /// Cache statistics accumulated during this stage only.
    pub hierarchy: HierarchyStats,
}

impl EmbeddingResult {
    /// The paper's *effective memory throughput*: useful bytes gathered over
    /// the latency of the embedding stage.
    pub fn effective_throughput(&self) -> Throughput {
        Throughput::new(self.gathered_bytes, self.latency_ns)
    }
}

/// Executes embedding gathers against a cache hierarchy + DRAM model.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmbeddingEngine;

impl EmbeddingEngine {
    /// Simulates the embedding stage of `trace` on the CPU described by
    /// `config`, using (and mutating) the provided cache hierarchy and DRAM
    /// model. Cache *contents* persist across calls so the caller controls
    /// warm-up; statistics are reset at the start of the stage and returned
    /// in the result.
    pub fn execute(
        config: &CpuConfig,
        trace: &InferenceTrace,
        hierarchy: &mut CacheHierarchy,
        dram: &mut DramModel,
    ) -> EmbeddingResult {
        hierarchy.reset_stats();
        let dram_requests_before = dram.stats().requests;

        let layout = trace.layout();
        let row_bytes = trace.config.row_bytes() as u64;
        let batch = trace.batch_size();
        let workers = config.cores.min(batch.max(1));

        let mut stage_start_ns = 0.0_f64;
        for table in 0..trace.config.num_tables {
            // Operator dispatch overhead is serial.
            stage_start_ns += config.per_table_op_overhead_ns;
            let stage_end = Self::execute_table_operator(
                config,
                trace,
                table,
                &layout,
                row_bytes,
                workers,
                stage_start_ns,
                hierarchy,
                dram,
            );
            stage_start_ns = stage_end;
        }

        let lookups = trace.gather.total_lookups() as u64;
        EmbeddingResult {
            latency_ns: stage_start_ns,
            gathered_bytes: trace.gathered_bytes(),
            lookups,
            dram_requests: dram.stats().requests - dram_requests_before,
            hierarchy: hierarchy.stats(),
        }
    }

    /// Simulates one table's `SparseLengthsSum` operator starting at
    /// `start_ns`; returns the operator's completion time.
    ///
    /// Worker threads are advanced in (approximate) global time order so
    /// that the shared DRAM model sees requests with monotonically
    /// reasonable timestamps — otherwise bank-state updates from one
    /// worker's late requests would artificially delay another worker's
    /// early requests.
    #[allow(clippy::too_many_arguments)]
    fn execute_table_operator(
        config: &CpuConfig,
        trace: &InferenceTrace,
        table: usize,
        layout: &TableLayout,
        row_bytes: u64,
        workers: usize,
        start_ns: f64,
        hierarchy: &mut CacheHierarchy,
        dram: &mut DramModel,
    ) -> f64 {
        // Per-worker FIFO of (row, end-of-sample) work items.
        let mut work: Vec<VecDeque<(u64, bool)>> = vec![VecDeque::new(); workers];
        for (sample_idx, sample) in trace.gather.samples.iter().enumerate() {
            let worker = sample_idx % workers;
            let rows = &sample.rows_per_table[table];
            for (i, &row) in rows.iter().enumerate() {
                work[worker].push_back((row, i + 1 == rows.len()));
            }
        }

        let mut worker_time = vec![0.0_f64; workers];
        let mut outstanding: Vec<VecDeque<f64>> = vec![VecDeque::new(); workers];

        // Advance the worker whose local clock is furthest behind.
        while let Some(worker) = (0..workers)
            .filter(|&w| !work[w].is_empty())
            .min_by(|&a, &b| {
                worker_time[a]
                    .partial_cmp(&worker_time[b])
                    .expect("worker times are finite")
            })
        {
            let (row, end_of_sample) = work[worker].pop_front().expect("non-empty queue");
            let mut t = worker_time[worker];

            let addr = layout.address_of(centaur_dlrm::trace::EmbeddingAccess { table, row });
            for line in lines_spanned(addr, row_bytes) {
                let level = hierarchy.access_read(line);
                if level.is_memory() {
                    // Bounded number of misses in flight per thread.
                    if outstanding[worker].len() >= config.gather_ilp_window {
                        if let Some(done) = outstanding[worker].pop_front() {
                            t = t.max(done - start_ns);
                        }
                    }
                    let completion = dram.access(line, start_ns + t);
                    outstanding[worker].push_back(completion);
                } else {
                    t += hierarchy.traversal_latency_ns(level);
                }
            }
            // Address generation + accumulate + loop bookkeeping.
            t += config.per_lookup_overhead_ns;

            // The per-sample reduction cannot retire until every gathered
            // row has arrived.
            if end_of_sample {
                while let Some(done) = outstanding[worker].pop_front() {
                    t = t.max(done - start_ns);
                }
            }
            worker_time[worker] = t;
        }

        let op_elapsed = worker_time.iter().cloned().fold(0.0, f64::max);
        start_ns + op_elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::config::PaperModel;
    use centaur_memsim::{DramConfig, HierarchyConfig};
    use centaur_workload::{IndexDistribution, RequestGenerator};

    fn simulate(model: PaperModel, batch: usize, seed: u64) -> EmbeddingResult {
        let config = CpuConfig::broadwell_xeon();
        let mut generator =
            RequestGenerator::new(&model.config(), IndexDistribution::Uniform, seed);
        let trace = generator.inference_trace(batch);
        let mut hierarchy = CacheHierarchy::new(&HierarchyConfig::broadwell_like());
        let mut dram = DramModel::new(DramConfig::ddr4_2400());
        EmbeddingEngine::execute(&config, &trace, &mut hierarchy, &mut dram)
    }

    #[test]
    fn latency_positive_and_accounts_all_lookups() {
        let r = simulate(PaperModel::Dlrm1, 4, 1);
        assert!(r.latency_ns > 0.0);
        assert_eq!(r.lookups, 4 * 5 * 20);
        assert_eq!(r.gathered_bytes, 4 * 5 * 20 * 128);
        assert!(r.dram_requests > 0);
    }

    #[test]
    fn latency_grows_with_batch() {
        let small = simulate(PaperModel::Dlrm1, 1, 2);
        let large = simulate(PaperModel::Dlrm1, 64, 2);
        assert!(large.latency_ns > small.latency_ns);
    }

    #[test]
    fn effective_throughput_grows_with_batch() {
        // The paper's key CPU observation (Figure 7a): larger batches improve
        // effective throughput because more gathers overlap.
        let b1 = simulate(PaperModel::Dlrm4, 1, 3).effective_throughput();
        let b32 = simulate(PaperModel::Dlrm4, 32, 3).effective_throughput();
        assert!(
            b32.gigabytes_per_second() > b1.gigabytes_per_second(),
            "batch 32 ({:.2} GB/s) should beat batch 1 ({:.2} GB/s)",
            b32.gigabytes_per_second(),
            b1.gigabytes_per_second()
        );
    }

    #[test]
    fn effective_throughput_is_far_below_peak() {
        // Even at batch 64 the CPU cannot get close to the 77 GB/s DRAM peak.
        let r = simulate(PaperModel::Dlrm4, 64, 4);
        let gbs = r.effective_throughput().gigabytes_per_second();
        let peak = DramConfig::ddr4_2400().peak_bandwidth_gbs();
        assert!(
            gbs < 0.45 * peak,
            "effective {gbs:.1} GB/s vs peak {peak:.1}"
        );
        assert!(
            gbs > 1.0,
            "effective throughput should still be >1 GB/s, got {gbs:.2}"
        );
    }

    #[test]
    fn batch1_small_model_is_overhead_dominated() {
        // DLRM(1) at batch 1 gathers only 100 rows (12.8 KB); per-operator
        // dispatch overheads dominate and the effective throughput collapses
        // well below 1 GB/s.
        let r = simulate(PaperModel::Dlrm1, 1, 5);
        assert!(r.effective_throughput().gigabytes_per_second() < 1.0);
    }

    #[test]
    fn uniform_gathers_mostly_miss_the_llc() {
        let r = simulate(PaperModel::Dlrm4, 16, 6);
        assert!(
            r.hierarchy.llc_miss_rate() > 0.5,
            "sparse gathers should thrash the LLC: {}",
            r.hierarchy.llc_miss_rate()
        );
    }

    #[test]
    fn deterministic_for_same_trace() {
        let a = simulate(PaperModel::Dlrm3, 8, 7);
        let b = simulate(PaperModel::Dlrm3, 8, 7);
        assert_eq!(a.latency_ns, b.latency_ns);
        assert_eq!(a.dram_requests, b.dram_requests);
    }
}
