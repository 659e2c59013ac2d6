//! End-to-end CPU-GPU inference timing: the CPU gathers and reduces the
//! embeddings (the tables do not fit in GPU memory), copies the reduced
//! embeddings and dense features to the GPU over PCIe, and the GPU executes
//! the feature interaction and MLPs.

use crate::config::GpuConfig;
use centaur_cpusim::{CpuConfig, CpuSystem, EmbeddingResult};
use centaur_dlrm::config::ModelConfig;
use centaur_dlrm::trace::InferenceTrace;

/// Latency split of a CPU-GPU inference.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuGpuBreakdown {
    /// CPU-side embedding gathers + reductions, in ns.
    pub embedding_ns: f64,
    /// Host→device copy of reduced embeddings and dense features plus the
    /// device→host copy of the results, in ns.
    pub transfer_ns: f64,
    /// GPU dense-layer execution (interaction + MLPs), in ns.
    pub gpu_dense_ns: f64,
    /// Remaining framework overhead, in ns.
    pub other_ns: f64,
}

impl CpuGpuBreakdown {
    /// Total end-to-end latency in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.embedding_ns + self.transfer_ns + self.gpu_dense_ns + self.other_ns
    }
}

/// Result of one simulated CPU-GPU batched inference.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuGpuInferenceResult {
    /// Batch size of the request.
    pub batch: usize,
    /// Latency split.
    pub breakdown: CpuGpuBreakdown,
    /// CPU-side embedding stage detail.
    pub embedding: EmbeddingResult,
    /// Dense FLOPs executed on the GPU.
    pub gpu_flops: u64,
}

impl CpuGpuInferenceResult {
    /// End-to-end latency in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.breakdown.total_ns()
    }
}

/// The CPU-GPU system model.
#[derive(Debug, Clone)]
pub struct CpuGpuSystem {
    cpu: CpuSystem,
    gpu: GpuConfig,
}

impl CpuGpuSystem {
    /// Creates a CPU-GPU system from explicit CPU and GPU configurations.
    pub fn new(cpu: CpuConfig, gpu: GpuConfig) -> Self {
        CpuGpuSystem {
            cpu: CpuSystem::new(cpu),
            gpu,
        }
    }

    /// The paper's evaluation point: Broadwell Xeon host + DGX-1 V100.
    pub fn dgx1() -> Self {
        CpuGpuSystem::new(CpuConfig::broadwell_xeon(), GpuConfig::dgx1_v100())
    }

    /// The GPU configuration in use.
    pub fn gpu_config(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The CPU configuration in use.
    pub fn cpu_config(&self) -> &CpuConfig {
        self.cpu.config()
    }

    /// Bytes that must cross PCIe to the device for one batch: the reduced
    /// embeddings (one vector per table per sample) plus the dense features.
    pub fn host_to_device_bytes(model: &ModelConfig, batch: usize) -> u64 {
        let reduced = (model.num_tables * model.embedding_dim * 4) as u64;
        (reduced + model.dense_bytes_per_sample()) * batch as u64
    }

    /// Warms the CPU cache hierarchy (embedding gathers happen on the CPU in
    /// this design too).
    pub fn warm_up(&mut self, trace: &InferenceTrace) {
        self.cpu.warm_up(trace);
    }

    /// Simulates one batched inference.
    pub fn simulate(&mut self, trace: &InferenceTrace) -> CpuGpuInferenceResult {
        let batch = trace.batch_size();
        let model = &trace.config;

        // 1. CPU-side embedding gathers + reductions (identical to CPU-only).
        let cpu_result = self.cpu.simulate(trace);
        let embedding = cpu_result.embedding;

        // 2. PCIe transfers: reduced embeddings + dense features out,
        //    probabilities back.
        let h2d_bytes = Self::host_to_device_bytes(model, batch);
        let d2h_bytes = 4 * batch as u64;
        let transfer_ns =
            self.gpu.pcie.transfer_time_ns(h2d_bytes) + self.gpu.pcie.transfer_time_ns(d2h_bytes);

        // 3. GPU dense execution: same operator count as the CPU, but each
        //    operator pays a kernel-launch overhead and runs at GPU GEMM
        //    throughput.
        let gpu_flops = model.dense_flops_per_sample() * batch.max(1) as u64;
        let operators = centaur_cpusim::DenseEngine::operator_count(model);
        let gpu_dense_ns = gpu_flops as f64 / self.gpu.effective_gemm_gflops(batch)
            + operators as f64 * self.gpu.kernel_launch_ns;

        // 4. Framework overhead on the host (same as CPU-only).
        let other_ns = cpu_result.breakdown.other_ns;

        CpuGpuInferenceResult {
            batch,
            breakdown: CpuGpuBreakdown {
                embedding_ns: embedding.latency_ns,
                transfer_ns,
                gpu_dense_ns,
                other_ns,
            },
            embedding,
            gpu_flops,
        }
    }

    /// Convenience: warm up with `warmup` then measure `trace`.
    pub fn simulate_warm(
        &mut self,
        warmup: &InferenceTrace,
        trace: &InferenceTrace,
    ) -> CpuGpuInferenceResult {
        self.warm_up(warmup);
        self.simulate(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::config::PaperModel;
    use centaur_workload::{IndexDistribution, RequestGenerator};

    fn run_both(model: PaperModel, batch: usize) -> (CpuGpuInferenceResult, f64) {
        let config = model.config();
        let mut warm_gen = RequestGenerator::new(&config, IndexDistribution::Uniform, 100);
        let mut gen = RequestGenerator::new(&config, IndexDistribution::Uniform, 200);
        let warm = warm_gen.inference_trace(batch);
        let trace = gen.inference_trace(batch);

        let mut gpu_system = CpuGpuSystem::dgx1();
        let gpu_result = gpu_system.simulate_warm(&warm, &trace);

        let mut cpu_system = CpuSystem::broadwell();
        let cpu_result = cpu_system.simulate_warm(&warm, &trace);
        (gpu_result, cpu_result.total_ns())
    }

    #[test]
    fn breakdown_components_positive() {
        let (r, _) = run_both(PaperModel::Dlrm1, 16);
        assert!(r.breakdown.embedding_ns > 0.0);
        assert!(r.breakdown.transfer_ns > 0.0);
        assert!(r.breakdown.gpu_dense_ns > 0.0);
        assert!(r.total_ns() > 0.0);
        assert!(r.gpu_flops > 0);
    }

    #[test]
    fn transfer_includes_pcie_latency_floor() {
        let (r, _) = run_both(PaperModel::Dlrm1, 1);
        assert!(r.breakdown.transfer_ns >= 2.0 * GpuConfig::dgx1_v100().pcie.latency_ns);
    }

    #[test]
    fn cpu_only_wins_for_embedding_bound_models_at_low_batch() {
        // The paper's observation: offloading the small MLPs to the GPU does
        // not pay for the PCIe copy on embedding-dominated models.
        let (gpu, cpu_total) = run_both(PaperModel::Dlrm2, 1);
        assert!(
            gpu.total_ns() > cpu_total,
            "CPU-GPU {:.0} ns should be slower than CPU-only {:.0} ns",
            gpu.total_ns(),
            cpu_total
        );
    }

    #[test]
    fn gpu_helps_mlp_heavy_model_at_large_batch() {
        // DLRM(6) at batch 128 has enough dense work for the V100 to win
        // despite the transfer.
        let (gpu, cpu_total) = run_both(PaperModel::Dlrm6, 128);
        assert!(
            gpu.total_ns() < cpu_total,
            "CPU-GPU {:.0} ns should beat CPU-only {:.0} ns on the MLP-heavy model",
            gpu.total_ns(),
            cpu_total
        );
    }

    #[test]
    fn embedding_time_matches_cpu_only_design() {
        // The embedding stage is executed by the same CPU engine in both
        // designs, so with identical state it should take identical time.
        let config = PaperModel::Dlrm3.config();
        let mut gen = RequestGenerator::new(&config, IndexDistribution::Uniform, 5);
        let trace = gen.inference_trace(8);
        let mut cpu = CpuSystem::broadwell();
        let mut hybrid = CpuGpuSystem::dgx1();
        let cpu_emb = cpu.simulate(&trace).embedding.latency_ns;
        let gpu_emb = hybrid.simulate(&trace).embedding.latency_ns;
        assert!((cpu_emb - gpu_emb).abs() < 1e-6);
    }

    #[test]
    fn host_to_device_bytes_scale_with_batch_and_tables() {
        let m = PaperModel::Dlrm2.config();
        let b1 = CpuGpuSystem::host_to_device_bytes(&m, 1);
        let b64 = CpuGpuSystem::host_to_device_bytes(&m, 64);
        assert_eq!(b64, 64 * b1);
        assert_eq!(b1, (50 * 32 * 4 + 13 * 4) as u64);
    }
}
