//! Cache-behaviour profiling of the embedding and MLP stages (Figure 6 of
//! the paper: LLC miss rate and MPKI per layer type).

use crate::config::CpuConfig;
use crate::gemm::DenseEngine;
use centaur_dlrm::trace::InferenceTrace;
use centaur_memsim::{
    lines_spanned, AccessKind, CacheHierarchy, HierarchyStats, SetAssociativeCache,
    CACHE_LINE_BYTES,
};

/// Cache statistics of one layer type (embedding or MLP), in the form the
/// paper reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerProfile {
    /// Last-level-cache miss rate in `[0, 1]`.
    pub llc_miss_rate: f64,
    /// LLC misses per thousand retired instructions.
    pub llc_mpki: f64,
    /// Estimated retired instructions for the stage.
    pub instructions: u64,
    /// Raw per-level cache statistics.
    pub stats: HierarchyStats,
}

/// Combined embedding/MLP cache profile of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheProfile {
    /// Embedding-layer profile.
    pub embedding: LayerProfile,
    /// MLP-layer profile.
    pub mlp: LayerProfile,
}

/// Profiles cache behaviour by trace replay (no timing).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheProfiler;

impl CacheProfiler {
    /// Profiles the embedding and MLP stages of `trace`.
    ///
    /// The hierarchy is warmed with `warmup_trace` (a different request of
    /// the same shape — the paper measures after "sufficiently warming up
    /// the CPU's cache hierarchy") before the measured replay.
    pub fn profile(
        config: &CpuConfig,
        trace: &InferenceTrace,
        warmup_trace: &InferenceTrace,
    ) -> CacheProfile {
        CacheProfile {
            embedding: Self::profile_embedding(config, trace, warmup_trace),
            mlp: Self::profile_mlp(config, trace),
        }
    }

    fn replay_embedding(trace: &InferenceTrace, hierarchy: &mut CacheHierarchy) {
        let layout = trace.layout();
        let row_bytes = trace.config.row_bytes() as u64;
        for access in trace.gather.iter_accesses() {
            let addr = layout.address_of(access);
            for line in lines_spanned(addr, row_bytes) {
                hierarchy.access_read(line);
            }
        }
    }

    fn profile_embedding(
        config: &CpuConfig,
        trace: &InferenceTrace,
        warmup_trace: &InferenceTrace,
    ) -> LayerProfile {
        let mut hierarchy = CacheHierarchy::new(&config.hierarchy);
        // Steady-state serving leaves the LLC populated with whatever
        // fraction of the embedding tables fits. Model that by installing a
        // sample of each table (its leading rows — gathers are uniform, so
        // any sample of the right size gives the same hit probability) up to
        // ~80 % of LLC capacity, then replaying one extra request.
        let layout = trace.layout();
        let row_bytes = trace.config.row_bytes() as u64;
        let resident_budget = (config.hierarchy.llc.size_bytes as f64 * 0.8) as u64;
        let per_table_budget = resident_budget / trace.config.num_tables as u64;
        let resident_rows = (per_table_budget / row_bytes).min(trace.config.rows_per_table);
        for table in 0..trace.config.num_tables {
            for row in 0..resident_rows {
                let addr = layout.address_of(centaur_dlrm::trace::EmbeddingAccess { table, row });
                for line in lines_spanned(addr, row_bytes) {
                    hierarchy.install_all_levels(line);
                }
            }
        }
        // Warm-up pass with a *different* request mixes in recently-gathered
        // rows, as steady-state serving would.
        Self::replay_embedding(warmup_trace, &mut hierarchy);
        hierarchy.reset_stats();
        Self::replay_embedding(trace, &mut hierarchy);
        let stats = hierarchy.stats();
        let instructions =
            (trace.gather.total_lookups() as f64 * config.instructions_per_lookup) as u64;
        LayerProfile {
            llc_miss_rate: stats.llc_miss_rate(),
            llc_mpki: stats.llc_mpki(instructions),
            instructions,
            stats,
        }
    }

    fn profile_mlp(config: &CpuConfig, trace: &InferenceTrace) -> LayerProfile {
        let model = &trace.config;
        let batch = trace.batch_size().max(1);
        // The MLP working set is studied at the shared-LLC level: each core's
        // tile streams the (persistent, LLC-resident) weights and produces
        // fresh activations, so LLC traffic is dominated by weight reads that
        // hit plus a small number of cold activation lines.
        let mut llc = SetAssociativeCache::new(config.hierarchy.llc);

        // Weight base addresses live below the embedding tables in the
        // simulated address space.
        let weight_base = 0x4000_0000u64;
        let act_base = 0x7000_0000u64;

        let mut layer_dims: Vec<(usize, usize)> = Vec::new();
        for dims in [model.bottom_mlp_dims(), model.top_mlp_dims()] {
            for w in dims.windows(2) {
                layer_dims.push((w[0], w[1]));
            }
        }

        // Weights are persistent across requests and fit comfortably in the
        // LLC for every Table I model; install them as resident.
        let mut offset = weight_base;
        let mut weight_addrs: Vec<(u64, u64)> = Vec::new();
        for &(m, n) in &layer_dims {
            let bytes = (m * n + n) as u64 * 4;
            weight_addrs.push((offset, bytes));
            for line in lines_spanned(offset, bytes) {
                llc.install(line);
            }
            offset += bytes.div_ceil(4096) * 4096;
        }

        // One replay pass: tiles of up to 32 batch rows stream the weights
        // from the LLC while activations are produced and consumed layer by
        // layer. `first_input_base` is where the request's incoming data
        // (dense features / interaction output) lands.
        let tile_rows = 32usize;
        let tiles = batch.div_ceil(tile_rows);
        let replay_pass = |llc: &mut SetAssociativeCache, first_input_base: u64| {
            let mut act_offset = act_base;
            for (layer, &(m, n)) in layer_dims.iter().enumerate() {
                let (w_addr, w_bytes) = weight_addrs[layer];
                let in_bytes = (m * batch.min(tile_rows)) as u64 * 4;
                let out_bytes = (n * batch.min(tile_rows)) as u64 * 4;
                let in_addr = if layer == 0 {
                    first_input_base
                } else {
                    act_offset
                };
                let out_addr = act_offset + in_bytes;
                for _tile in 0..tiles {
                    for line in lines_spanned(w_addr, w_bytes) {
                        llc.access(line, AccessKind::Read);
                    }
                    for line in lines_spanned(in_addr, in_bytes) {
                        llc.access(line, AccessKind::Read);
                    }
                    for line in lines_spanned(out_addr, out_bytes) {
                        llc.access(line, AccessKind::Write);
                    }
                }
                act_offset += ((in_bytes + out_bytes) / CACHE_LINE_BYTES + 2) * CACHE_LINE_BYTES;
            }
        };

        // Warm-up pass (previous request): activation buffers are reused by
        // the framework allocator, so in steady state they are resident too.
        replay_pass(&mut llc, act_base + (1 << 22));
        llc.reset_stats();
        // Measured pass: only the request's fresh input data is cold.
        replay_pass(&mut llc, act_base + (1 << 23));

        let llc_stats = *llc.stats();
        let stats = HierarchyStats {
            llc: llc_stats,
            ..HierarchyStats::default()
        };
        let flops = model.dense_flops_per_sample() * batch as u64;
        let instructions = (flops as f64 * config.instructions_per_flop) as u64
            + DenseEngine::operator_count(model) as u64 * 2_000;
        LayerProfile {
            llc_miss_rate: stats.llc_miss_rate(),
            llc_mpki: stats.llc_mpki(instructions),
            instructions,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::config::PaperModel;
    use centaur_workload::{IndexDistribution, RequestGenerator};

    fn profile(model: PaperModel, batch: usize) -> CacheProfile {
        let config = CpuConfig::broadwell_xeon();
        let mut gen_a = RequestGenerator::new(&model.config(), IndexDistribution::Uniform, 10);
        let mut gen_b = RequestGenerator::new(&model.config(), IndexDistribution::Uniform, 20);
        let trace = gen_a.inference_trace(batch);
        let warmup = gen_b.inference_trace(batch);
        CacheProfiler::profile(&config, &trace, &warmup)
    }

    #[test]
    fn embedding_misses_dominate_mlp_misses() {
        // The central claim of Figure 6: EMB layers have high LLC miss rates
        // and MPKI, MLP layers do not.
        let p = profile(PaperModel::Dlrm1, 16);
        assert!(p.embedding.llc_miss_rate > p.mlp.llc_miss_rate);
        assert!(p.embedding.llc_mpki > p.mlp.llc_mpki);
    }

    #[test]
    fn mlp_llc_miss_rate_is_low() {
        for model in [PaperModel::Dlrm1, PaperModel::Dlrm6] {
            let p = profile(model, 32);
            assert!(
                p.mlp.llc_miss_rate < 0.20,
                "{model}: MLP LLC miss rate {:.2} should be <20%",
                p.mlp.llc_miss_rate
            );
        }
    }

    #[test]
    fn embedding_miss_rate_high_for_large_tables() {
        // DLRM(5) has 3.2 GB of embeddings: essentially nothing is resident.
        let p = profile(PaperModel::Dlrm5, 16);
        assert!(p.embedding.llc_miss_rate > 0.8);
    }

    #[test]
    fn smaller_tables_have_more_residency() {
        // 128 MB of tables (DLRM(1)) partially fits in the 35 MB LLC after
        // warm-up, so its miss rate is lower than the 3.2 GB DLRM(5).
        let small = profile(PaperModel::Dlrm1, 16);
        let large = profile(PaperModel::Dlrm5, 16);
        assert!(small.embedding.llc_miss_rate < large.embedding.llc_miss_rate);
    }

    #[test]
    fn mpki_values_are_in_plausible_ranges() {
        let p = profile(PaperModel::Dlrm4, 32);
        // EMB MPKI in the units-of-misses-per-kilo-instruction range.
        assert!(p.embedding.llc_mpki > 0.5 && p.embedding.llc_mpki < 50.0);
        // MLP MPKI near zero.
        assert!(p.mlp.llc_mpki < 1.0);
        assert!(p.embedding.instructions > 0);
        assert!(p.mlp.instructions > 0);
    }
}
