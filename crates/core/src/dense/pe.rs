//! A single processing engine (PE): one instance of the FPGA floating-point
//! matrix-multiply IP core, configured for 32×32 tile GEMMs (Section IV-D).

use centaur_dlrm::tensor::Matrix;

/// Static parameters of a PE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeConfig {
    /// Square tile dimension the `FP_MATRIX_MULT` core is configured for.
    pub tile_dim: usize,
    /// Single-precision FLOPs the core retires per cycle.
    pub flops_per_cycle: f64,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Minimum cycles per tile operation (pipeline fill/drain), even when
    /// the operands are much smaller than a full tile.
    pub min_pipeline_cycles: f64,
}

impl PeConfig {
    /// The paper's configuration: 32×32 tiles; 20 PEs at 200 MHz jointly
    /// deliver 313 GFLOPS, i.e. ~78 FLOP/cycle per PE.
    pub fn harpv2() -> Self {
        PeConfig {
            tile_dim: 32,
            flops_per_cycle: 78.25,
            clock_mhz: 200.0,
            min_pipeline_cycles: 64.0,
        }
    }

    /// Peak throughput of one PE in GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.flops_per_cycle * self.clock_mhz / 1000.0
    }

    /// Cycles for a (possibly partial) `m × n × k` tile GEMM on this PE.
    pub fn gemm_cycles(&self, m: usize, n: usize, k: usize) -> f64 {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        (flops / self.flops_per_cycle).max(self.min_pipeline_cycles)
    }

    /// Cycles to multiply two full `tile_dim × tile_dim` tiles.
    pub fn tile_gemm_cycles(&self) -> f64 {
        self.gemm_cycles(self.tile_dim, self.tile_dim, self.tile_dim)
    }

    /// Time for one full-tile GEMM in nanoseconds.
    pub fn tile_gemm_ns(&self) -> f64 {
        self.tile_gemm_cycles() * 1000.0 / self.clock_mhz
    }

    /// Converts cycles at this PE's clock into nanoseconds.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles * 1000.0 / self.clock_mhz
    }
}

impl Default for PeConfig {
    fn default() -> Self {
        PeConfig::harpv2()
    }
}

/// One processing engine: functional tile GEMM plus cycle accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingEngine {
    config: PeConfig,
    tiles_executed: u64,
}

impl ProcessingEngine {
    /// Creates a PE.
    pub fn new(config: PeConfig) -> Self {
        ProcessingEngine {
            config,
            tiles_executed: 0,
        }
    }

    /// The PE configuration.
    pub fn config(&self) -> &PeConfig {
        &self.config
    }

    /// Number of tile GEMMs executed so far.
    pub fn tiles_executed(&self) -> u64 {
        self.tiles_executed
    }

    /// Multiplies two tiles (`a` is `[m, k]`, `b` is `[k, n]`, with
    /// `m, n, k ≤ tile_dim`), producing the `[m, n]` partial product the
    /// output-stationary dataflow accumulates.
    ///
    /// # Panics
    ///
    /// Panics if either operand exceeds the tile dimension or the inner
    /// dimensions disagree.
    pub fn tile_matmul(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        let t = self.config.tile_dim;
        assert!(
            a.rows() <= t && a.cols() <= t && b.rows() <= t && b.cols() <= t,
            "tile operands exceed the {t}x{t} PE tile"
        );
        assert_eq!(a.cols(), b.rows(), "tile inner dimensions disagree");
        self.tiles_executed += 1;
        a.matmul(b).expect("dimensions checked above")
    }
}

impl Default for ProcessingEngine {
    fn default() -> Self {
        ProcessingEngine::new(PeConfig::harpv2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_peak_gflops_matches_paper_aggregate() {
        // 20 PEs (16 MLP + 4 feature interaction) must total ~313 GFLOPS.
        let pe = PeConfig::harpv2();
        let aggregate = 20.0 * pe.peak_gflops();
        assert!((aggregate - 313.0).abs() < 1.0, "aggregate = {aggregate}");
    }

    #[test]
    fn tile_gemm_cycles_positive_and_consistent() {
        let pe = PeConfig::harpv2();
        let cycles = pe.tile_gemm_cycles();
        assert!(cycles > 100.0 && cycles < 10_000.0);
        let ns = pe.tile_gemm_ns();
        assert!((ns - cycles * 5.0).abs() < 1e-9, "200 MHz = 5 ns per cycle");
    }

    #[test]
    fn tile_matmul_matches_reference() {
        let mut pe = ProcessingEngine::default();
        let a = Matrix::from_fn(32, 32, |r, c| ((r * 31 + c) % 7) as f32 - 3.0);
        let b = Matrix::from_fn(32, 32, |r, c| ((r + c * 13) % 5) as f32 * 0.25);
        let ours = pe.tile_matmul(&a, &b);
        let reference = a.matmul(&b).unwrap();
        assert!(ours.max_abs_diff(&reference) < 1e-5);
        assert_eq!(pe.tiles_executed(), 1);
    }

    #[test]
    fn partial_tiles_are_accepted() {
        let mut pe = ProcessingEngine::default();
        let a = Matrix::filled(5, 7, 1.0);
        let b = Matrix::filled(7, 3, 2.0);
        let out = pe.tile_matmul(&a, &b);
        assert_eq!(out.shape(), (5, 3));
        assert!((out.get(0, 0) - 14.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversized_tile_panics() {
        let mut pe = ProcessingEngine::default();
        let a = Matrix::zeros(64, 32);
        let b = Matrix::zeros(32, 32);
        pe.tile_matmul(&a, &b);
    }
}
