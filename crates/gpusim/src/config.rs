//! GPU device and PCIe interconnect configuration for the CPU-GPU baseline
//! (the paper evaluates an NVIDIA DGX-1 V100 attached over PCIe).

/// PCIe link model: fixed software/DMA latency plus a bandwidth term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieConfig {
    /// Effective host→device bandwidth in GB/s (PCIe 3.0 x16 sustains
    /// ~12 GB/s of its 16 GB/s peak).
    pub bandwidth_gbs: f64,
    /// Fixed per-transfer latency in nanoseconds (driver, DMA setup).
    pub latency_ns: f64,
}

impl PcieConfig {
    /// PCIe 3.0 x16 as found in a DGX-1.
    pub fn gen3_x16() -> Self {
        PcieConfig {
            bandwidth_gbs: 12.0,
            latency_ns: 15_000.0,
        }
    }

    /// Time to move `bytes` over the link (one transfer).
    pub fn transfer_time_ns(&self, bytes: u64) -> f64 {
        self.latency_ns + bytes as f64 / self.bandwidth_gbs
    }
}

/// GPU compute model for the dense layers.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable device name.
    pub name: String,
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Fraction of peak reachable by large cuBLAS GEMMs.
    pub gemm_peak_efficiency: f64,
    /// Batch size at which utilization reaches half of its asymptote (GPUs
    /// need large batches to fill their SMs).
    pub gemm_half_batch: f64,
    /// Kernel launch + framework dispatch overhead per operator, in ns.
    pub kernel_launch_ns: f64,
    /// Host↔device interconnect.
    pub pcie: PcieConfig,
}

impl GpuConfig {
    /// An NVIDIA V100 (DGX-1 node) class device.
    pub fn dgx1_v100() -> Self {
        GpuConfig {
            name: "NVIDIA Tesla V100 (DGX-1)".to_string(),
            peak_gflops: 15_700.0,
            gemm_peak_efficiency: 0.6,
            gemm_half_batch: 256.0,
            kernel_launch_ns: 10_000.0,
            pcie: PcieConfig::gen3_x16(),
        }
    }

    /// Effective GEMM throughput in GFLOP/s for a given batch size.
    pub fn effective_gemm_gflops(&self, batch: usize) -> f64 {
        let batch = batch.max(1) as f64;
        let utilization = batch / (batch + self.gemm_half_batch);
        let floor = 0.002;
        self.peak_gflops * self.gemm_peak_efficiency * (floor + (1.0 - floor) * utilization)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::dgx1_v100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_transfer_time_has_latency_floor() {
        let p = PcieConfig::gen3_x16();
        let tiny = p.transfer_time_ns(64);
        assert!(tiny >= p.latency_ns);
        // 1.2 GB at 12 GB/s = 100 ms dominated by bandwidth.
        let big = p.transfer_time_ns(1_200_000_000);
        assert!((big - (p.latency_ns + 1e8)).abs() / big < 1e-6);
    }

    #[test]
    fn v100_peak_is_teraflops() {
        let g = GpuConfig::dgx1_v100();
        assert!(g.peak_gflops > 10_000.0);
    }

    #[test]
    fn gpu_utilization_poor_at_small_batch() {
        let g = GpuConfig::dgx1_v100();
        let b1 = g.effective_gemm_gflops(1);
        let b1024 = g.effective_gemm_gflops(1024);
        assert!(b1 < 0.01 * g.peak_gflops, "b1 = {b1}");
        assert!(b1024 > 0.4 * g.peak_gflops);
        assert!(b1 < b1024);
    }

    #[test]
    fn gpu_beats_cpu_only_at_large_batches() {
        // Sanity: the V100 model must out-GFLOP a Broadwell socket when
        // batches are large enough to fill it.
        let g = GpuConfig::dgx1_v100();
        let cpu_peak = 14.0 * 2.4 * 16.0;
        assert!(g.effective_gemm_gflops(512) > cpu_peak);
    }

    #[test]
    fn default_is_v100() {
        assert_eq!(GpuConfig::default(), GpuConfig::dgx1_v100());
    }
}
