//! CPU system configuration (the paper's baseline: a Broadwell Xeon
//! E5-2680v4 socket with four DDR4 channels).

use centaur_memsim::{DramConfig, HierarchyConfig};

/// Parameters of the CPU-only system model.
///
/// Timing constants fall into three groups:
///
/// * **hardware** — core count, frequency, SIMD width, MSHR count, cache and
///   DRAM geometry;
/// * **software-stack overheads** — per-operator dispatch cost, per-lookup
///   bookkeeping cost and per-request framework cost, which dominate at
///   small batch sizes exactly as the paper observes;
/// * **profiling constants** — retired-instruction estimates used to convert
///   simulated misses into MPKI (Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// Human-readable name of the modelled part.
    pub name: String,
    /// Physical cores available to the inference process.
    pub cores: usize,
    /// Core clock in GHz.
    pub frequency_ghz: f64,
    /// Single-precision FLOPs per core per cycle with AVX2 FMA (2 × 8-wide).
    pub simd_flops_per_cycle: f64,
    /// MSHRs per core: the bound on distinct outstanding L1 misses.
    pub mshrs_per_core: usize,
    /// Effective number of embedding-gather loads a single thread keeps in
    /// flight; bounded by MSHRs but usually lower because of the dependent
    /// accumulate in `SparseLengthsSum` and limited out-of-order depth.
    pub gather_ilp_window: usize,
    /// Fraction of peak GEMM throughput reachable on large, cache-resident
    /// GEMMs through the framework's BLAS backend.
    pub gemm_peak_efficiency: f64,
    /// Batch size at which GEMM efficiency reaches half of its asymptote
    /// (models poor utilization of wide SIMD/multicore at tiny batches).
    pub gemm_half_batch: f64,
    /// Framework dispatch overhead per embedding-table operator, in ns.
    pub per_table_op_overhead_ns: f64,
    /// Software bookkeeping per embedding lookup (address generation,
    /// accumulate, loop overhead), in ns, serial per worker thread.
    pub per_lookup_overhead_ns: f64,
    /// Framework dispatch overhead per MLP layer, in ns.
    pub per_layer_overhead_ns: f64,
    /// Fixed per-request framework overhead (input staging, output
    /// post-processing — the paper's "Other"), in ns.
    pub request_overhead_ns: f64,
    /// Additional per-sample "Other" cost, in ns.
    pub per_sample_other_ns: f64,
    /// Estimated retired instructions per embedding lookup (framework +
    /// kernel), used for MPKI.
    pub instructions_per_lookup: f64,
    /// Estimated retired instructions per MLP FLOP (AVX2 amortized), used
    /// for MPKI.
    pub instructions_per_flop: f64,
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// DRAM organization and timing.
    pub dram: DramConfig,
}

impl CpuConfig {
    /// The paper's baseline: Broadwell Xeon E5-2680v4 (14 cores, 2.4 GHz,
    /// 35 MiB LLC) with 4 channels of DDR4-2400 (~77 GB/s).
    pub fn broadwell_xeon() -> Self {
        CpuConfig {
            name: "Intel Xeon E5-2680v4 (Broadwell)".to_string(),
            cores: 14,
            frequency_ghz: 2.4,
            simd_flops_per_cycle: 16.0,
            mshrs_per_core: 10,
            gather_ilp_window: 5,
            gemm_peak_efficiency: 0.40,
            gemm_half_batch: 64.0,
            per_table_op_overhead_ns: 2_000.0,
            per_lookup_overhead_ns: 85.0,
            per_layer_overhead_ns: 5_000.0,
            request_overhead_ns: 15_000.0,
            per_sample_other_ns: 250.0,
            instructions_per_lookup: 450.0,
            instructions_per_flop: 0.2,
            hierarchy: HierarchyConfig::broadwell_like(),
            dram: DramConfig::ddr4_2400(),
        }
    }

    /// Peak single-precision throughput of the whole socket in GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.frequency_ghz * self.simd_flops_per_cycle
    }

    /// Effective GEMM throughput in GFLOP/s for a given batch size.
    ///
    /// Small batches cannot fill the SIMD lanes or all cores, so the
    /// efficiency ramps with batch following a saturating curve.
    pub fn effective_gemm_gflops(&self, batch: usize) -> f64 {
        let batch = batch.max(1) as f64;
        let utilization = batch / (batch + self.gemm_half_batch);
        // Even batch-1 GEMV achieves a sliver of peak.
        let floor = 0.025;
        self.peak_gflops() * self.gemm_peak_efficiency * (floor + (1.0 - floor) * utilization)
    }

    /// Total MSHR-bounded outstanding misses across the socket.
    pub fn total_mshrs(&self) -> usize {
        self.cores * self.mshrs_per_core
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::broadwell_xeon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadwell_peak_flops_is_hundreds_of_gflops() {
        let c = CpuConfig::broadwell_xeon();
        let peak = c.peak_gflops();
        assert!(peak > 400.0 && peak < 700.0, "peak = {peak}");
        assert_eq!(c.total_mshrs(), 140);
    }

    #[test]
    fn effective_gemm_grows_with_batch_and_saturates() {
        let c = CpuConfig::broadwell_xeon();
        let b1 = c.effective_gemm_gflops(1);
        let b16 = c.effective_gemm_gflops(16);
        let b128 = c.effective_gemm_gflops(128);
        let b1024 = c.effective_gemm_gflops(1024);
        assert!(b1 < b16 && b16 < b128 && b128 < b1024);
        assert!(b1024 <= c.peak_gflops() * c.gemm_peak_efficiency + 1e-9);
        // Batch-1 dense work is far below peak (latency-bound GEMV).
        assert!(b1 < 0.15 * c.peak_gflops());
    }

    #[test]
    fn dram_peak_matches_paper() {
        let c = CpuConfig::broadwell_xeon();
        assert!((c.dram.peak_bandwidth_gbs() - 77.0).abs() < 1.0);
    }

    #[test]
    fn default_is_broadwell() {
        assert_eq!(CpuConfig::default(), CpuConfig::broadwell_xeon());
    }

    #[test]
    fn gather_window_no_larger_than_mshrs() {
        let c = CpuConfig::broadwell_xeon();
        assert!(c.gather_ilp_window <= c.mshrs_per_core);
    }
}
