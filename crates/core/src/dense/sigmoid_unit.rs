//! The sigmoid unit that converts the top-MLP output into an event
//! probability (Figure 9). A handful of pipeline stages of fixed-function
//! logic — never a performance factor, but part of the functional datapath.

use centaur_dlrm::tensor::sigmoid_scalar;

/// The sigmoid unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmoidUnit {
    pipeline_cycles: u32,
    clock_mhz: f64,
}

impl SigmoidUnit {
    /// Creates a sigmoid unit with the given pipeline depth and clock.
    pub fn new(pipeline_cycles: u32, clock_mhz: f64) -> Self {
        SigmoidUnit {
            pipeline_cycles,
            clock_mhz,
        }
    }

    /// The paper's configuration (a short pipeline at the 200 MHz fabric
    /// clock).
    pub fn harpv2() -> Self {
        SigmoidUnit::new(8, 200.0)
    }

    /// Applies the sigmoid to one pre-activation value.
    pub fn apply(&self, x: f32) -> f32 {
        sigmoid_scalar(x)
    }

    /// Applies the sigmoid to a batch of pre-activation values.
    pub fn apply_batch(&self, xs: &[f32]) -> Vec<f32> {
        xs.iter().map(|&x| self.apply(x)).collect()
    }

    /// Allocation-free [`SigmoidUnit::apply_batch`]: one vectorized sweep
    /// over the batch of logits into a caller-owned output — the unit is
    /// fully pipelined, so the batch-major datapath converts all logits in
    /// one pass.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn apply_slice(&self, xs: &[f32], out: &mut [f32]) {
        centaur_dlrm::tensor::sigmoid_into(xs, out);
    }

    /// Latency to produce `batch` probabilities, in nanoseconds (fully
    /// pipelined: fill + one value per cycle).
    pub fn latency_ns(&self, batch: usize) -> f64 {
        (self.pipeline_cycles as f64 + batch.max(1) as f64) * 1000.0 / self.clock_mhz
    }
}

impl Default for SigmoidUnit {
    fn default() -> Self {
        SigmoidUnit::harpv2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_matches_reference_and_bounds() {
        let unit = SigmoidUnit::harpv2();
        for &x in &[-10.0, -1.0, 0.0, 1.0, 10.0] {
            let y = unit.apply(x);
            assert!((y - sigmoid_scalar(x)).abs() < 1e-9);
            assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn batch_application_preserves_order() {
        let unit = SigmoidUnit::harpv2();
        let out = unit.apply_batch(&[-1.0, 0.0, 1.0]);
        assert_eq!(out.len(), 3);
        assert!(out[0] < out[1] && out[1] < out[2]);
    }

    #[test]
    fn latency_is_nanoseconds_scale() {
        let unit = SigmoidUnit::harpv2();
        assert!(unit.latency_ns(1) < 100.0);
        assert!(unit.latency_ns(128) > unit.latency_ns(1));
    }
}
