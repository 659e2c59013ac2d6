//! The embedding reduction unit (EB-RU): a row of scalar ALUs that reduce
//! gathered embedding vectors on the fly as they stream in from the link
//! (Figure 10).

use centaur_dlrm::tensor::Matrix;
use centaur_dlrm::ReductionOp;

/// The EB-RU: `num_alus` scalar adders running at the FPGA clock.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingReductionUnit {
    num_alus: usize,
    clock_mhz: f64,
    vectors_reduced: u64,
}

impl EmbeddingReductionUnit {
    /// Creates a reduction unit with `num_alus` scalar ALUs at `clock_mhz`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(num_alus: usize, clock_mhz: f64) -> Self {
        assert!(
            num_alus > 0 && clock_mhz > 0.0,
            "EB-RU needs ALUs and a clock"
        );
        EmbeddingReductionUnit {
            num_alus,
            clock_mhz,
            vectors_reduced: 0,
        }
    }

    /// The paper's configuration: one ALU per embedding element of a
    /// 32-wide vector, clocked at 200 MHz.
    pub fn harpv2_sized() -> Self {
        EmbeddingReductionUnit::new(32, 200.0)
    }

    /// Number of scalar ALUs.
    pub fn num_alus(&self) -> usize {
        self.num_alus
    }

    /// Vectors reduced so far.
    pub fn vectors_reduced(&self) -> u64 {
        self.vectors_reduced
    }

    /// Reduces a stream of gathered embedding vectors (rows of `gathered`)
    /// into a single vector, in place-accumulation order exactly as the
    /// vectors arrive.
    ///
    /// # Panics
    ///
    /// Panics if `gathered` is empty when `op` is [`ReductionOp::Max`]
    /// (sum/mean of an empty stream is the zero vector).
    pub fn reduce(&mut self, gathered: &Matrix, op: ReductionOp) -> Matrix {
        let dim = gathered.cols();
        let mut acc = vec![0.0f32; dim];
        match op {
            ReductionOp::Sum | ReductionOp::Mean => {
                for row in gathered.iter_rows() {
                    self.vectors_reduced += 1;
                    for (a, &v) in acc.iter_mut().zip(row) {
                        *a += v;
                    }
                }
                if op == ReductionOp::Mean && gathered.rows() > 0 {
                    let n = gathered.rows() as f32;
                    for a in &mut acc {
                        *a /= n;
                    }
                }
            }
            ReductionOp::Max => {
                assert!(gathered.rows() > 0, "max-reduction of an empty stream");
                acc.copy_from_slice(gathered.row(0));
                self.vectors_reduced += 1;
                for row in (1..gathered.rows()).map(|r| gathered.row(r)) {
                    self.vectors_reduced += 1;
                    for (a, &v) in acc.iter_mut().zip(row) {
                        if v > *a {
                            *a = v;
                        }
                    }
                }
            }
        }
        Matrix::from_vec(1, dim, acc).expect("accumulator has the right length")
    }

    /// Streams one gathered embedding vector into an accumulator (the
    /// on-the-fly reduction the EB-RU performs as rows arrive off the
    /// link), using the chunked SIMD-friendly add from the kernel layer.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn accumulate(&mut self, acc: &mut [f32], row: &[f32]) {
        self.vectors_reduced += 1;
        centaur_dlrm::kernel::add_assign(acc, row);
    }

    /// Records `vectors` reductions executed outside the per-row
    /// [`EmbeddingReductionUnit::accumulate`] entry point — the vectorized
    /// streamer path runs whole index chunks through the register-tiled
    /// kernels and bulk-updates the EB-RU's occupancy counter afterwards,
    /// keeping `vectors_reduced` equal across backends.
    pub fn record_reductions(&mut self, vectors: u64) {
        self.vectors_reduced += vectors;
    }

    /// Peak reduction throughput in elements per nanosecond.
    pub fn elements_per_ns(&self) -> f64 {
        self.num_alus as f64 * self.clock_mhz / 1000.0
    }

    /// Time to reduce `vectors` embedding vectors of width `dim`, in ns.
    pub fn reduction_time_ns(&self, vectors: u64, dim: usize) -> f64 {
        (vectors * dim as u64) as f64 / self.elements_per_ns()
    }

    /// Peak reduction bandwidth in GB/s of incoming embedding data —
    /// used to verify the EB-RU is never the streamer's bottleneck.
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        self.elements_per_ns() * 4.0
    }
}

impl Default for EmbeddingReductionUnit {
    fn default() -> Self {
        EmbeddingReductionUnit::harpv2_sized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur_dlrm::EmbeddingTable;

    #[test]
    fn reduce_matches_reference_sparse_lengths_sum() {
        let table = EmbeddingTable::from_fn(16, 8, |r, c| (r * 8 + c) as f32 * 0.5);
        let indices = [3u32, 7, 11];
        let gathered = table.gather(&indices).unwrap();
        let mut ru = EmbeddingReductionUnit::harpv2_sized();
        let ours = ru.reduce(&gathered, ReductionOp::Sum);
        let reference = table.gather_reduce(&indices, ReductionOp::Sum).unwrap();
        assert!(ours.max_abs_diff(&reference) < 1e-6);
        assert_eq!(ru.vectors_reduced(), 3);
    }

    #[test]
    fn reduce_mean_and_max() {
        let table = EmbeddingTable::from_fn(4, 4, |r, _| r as f32);
        let gathered = table.gather(&[0, 2]).unwrap();
        let mut ru = EmbeddingReductionUnit::harpv2_sized();
        let mean = ru.reduce(&gathered, ReductionOp::Mean);
        assert!((mean.get(0, 0) - 1.0).abs() < 1e-6);
        let max = ru.reduce(&gathered, ReductionOp::Max);
        assert!((max.get(0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_sum_is_zero_vector() {
        let mut ru = EmbeddingReductionUnit::harpv2_sized();
        let empty = Matrix::zeros(0, 8);
        let out = ru.reduce(&empty, ReductionOp::Sum);
        assert_eq!(out.shape(), (1, 8));
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn reduction_is_never_the_link_bottleneck() {
        // 32 ALUs at 200 MHz consume 25.6 GB/s of embedding data — more than
        // the HARPv2 link can deliver (~12 GB/s for gathers).
        let ru = EmbeddingReductionUnit::harpv2_sized();
        assert!(ru.peak_bandwidth_gbs() > 20.0);
        let link_limited_ns = (1_000_000u64 * 128) as f64 / 12.0;
        assert!(ru.reduction_time_ns(1_000_000, 32) < link_limited_ns);
    }

    #[test]
    #[should_panic(expected = "ALUs and a clock")]
    fn zero_alus_panics() {
        EmbeddingReductionUnit::new(0, 200.0);
    }
}
