//! Sparse-index distributions controlling the locality of embedding gathers.
//!
//! The paper's characterization hinges on embedding gathers being "extremely
//! sparse with low spatial/temporal locality". A uniform distribution over a
//! multi-hundred-thousand-row table reproduces that behaviour; the Zipfian
//! and hot-set distributions let examples and ablation benches explore what
//! happens when production traffic *does* have popular items.

use rand::rngs::StdRng;
use rand::Rng;

/// How sparse indices are drawn from an embedding table.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IndexDistribution {
    /// Every row is equally likely — the paper's worst-case (and default)
    /// locality assumption.
    #[default]
    Uniform,
    /// Zipf-like popularity with exponent `s` (> 0). Larger `s` concentrates
    /// accesses on fewer rows.
    Zipfian {
        /// Skew exponent; 0.99 approximates many production popularity
        /// curves.
        exponent: f64,
    },
    /// A fraction `hot_fraction` of accesses target the first
    /// `hot_rows` rows of the table; the rest are uniform over the whole
    /// table.
    HotSet {
        /// Number of "hot" rows at the front of the table.
        hot_rows: u64,
        /// Probability that an access hits the hot set (0.0–1.0).
        hot_fraction: f64,
    },
}

impl IndexDistribution {
    /// The Zipf exponent that approximates production recommendation
    /// popularity curves (RecNMP measures s ≈ 0.9–1.0 on deployed traffic).
    pub const PRODUCTION_SKEW_EXPONENT: f64 = 0.99;

    /// A Zipfian distribution with explicit exponent — the skewed index
    /// generator benches use to exercise realistic hot-row reuse instead of
    /// the paper's worst-case uniform draw.
    pub fn zipfian(exponent: f64) -> Self {
        IndexDistribution::Zipfian { exponent }
    }

    /// The default production-like skew:
    /// [`zipfian`]([`Self::PRODUCTION_SKEW_EXPONENT`]).
    ///
    /// [`zipfian`]: Self::zipfian
    pub fn production_skew() -> Self {
        Self::zipfian(Self::PRODUCTION_SKEW_EXPONENT)
    }

    /// Short label for reports and CSV headers.
    pub fn label(&self) -> String {
        match self {
            IndexDistribution::Uniform => "uniform".to_string(),
            IndexDistribution::Zipfian { exponent } => format!("zipf(s={exponent})"),
            IndexDistribution::HotSet {
                hot_rows,
                hot_fraction,
            } => format!("hotset({hot_rows} rows, {:.0}%)", hot_fraction * 100.0),
        }
    }

    /// Draws one row index in `[0, rows)` from the distribution.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    pub fn sample(&self, rows: u64, rng: &mut StdRng) -> u64 {
        assert!(rows > 0, "cannot sample from an empty table");
        match *self {
            IndexDistribution::Uniform => rng.gen_range(0..rows),
            IndexDistribution::Zipfian { exponent } => zipf_sample(rows, exponent, rng),
            IndexDistribution::HotSet {
                hot_rows,
                hot_fraction,
            } => {
                let hot_rows = hot_rows.clamp(1, rows);
                if rng.gen_bool(hot_fraction.clamp(0.0, 1.0)) {
                    rng.gen_range(0..hot_rows)
                } else {
                    rng.gen_range(0..rows)
                }
            }
        }
    }

    /// Draws `count` independent indices.
    pub fn sample_many(&self, rows: u64, count: usize, rng: &mut StdRng) -> Vec<u64> {
        (0..count).map(|_| self.sample(rows, rng)).collect()
    }
}

/// Approximate Zipf sampling via inverse-CDF on a continuous bounded Pareto,
/// then clamping to the integer domain. Accurate enough for workload
/// locality modelling and much cheaper than building the full discrete CDF
/// for multi-hundred-thousand-row tables.
fn zipf_sample(rows: u64, exponent: f64, rng: &mut StdRng) -> u64 {
    let s = exponent.max(1e-6);
    let n = rows as f64;
    let u: f64 = rng.gen_range(0.0..1.0);
    let value = if (s - 1.0).abs() < 1e-9 {
        // CDF ∝ ln(x); invert ln-based CDF.
        (n.ln() * u).exp()
    } else {
        // CDF ∝ (x^(1-s) - 1) / (n^(1-s) - 1)
        let one_minus_s = 1.0 - s;
        ((n.powf(one_minus_s) - 1.0) * u + 1.0).powf(1.0 / one_minus_s)
    };
    (value.floor() as u64).min(rows - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn uniform_stays_in_range_and_covers_table() {
        let mut r = rng(1);
        let d = IndexDistribution::Uniform;
        let samples = d.sample_many(100, 10_000, &mut r);
        assert!(samples.iter().all(|&x| x < 100));
        let distinct: std::collections::HashSet<_> = samples.iter().collect();
        assert!(distinct.len() > 90, "uniform should cover most rows");
    }

    #[test]
    fn zipf_is_skewed_toward_low_rows() {
        let mut r = rng(2);
        let d = IndexDistribution::Zipfian { exponent: 1.2 };
        let samples = d.sample_many(10_000, 20_000, &mut r);
        assert!(samples.iter().all(|&x| x < 10_000));
        let low = samples.iter().filter(|&&x| x < 100).count();
        // With s=1.2 the head is heavily favoured; uniform would give ~1%.
        assert!(
            low as f64 / samples.len() as f64 > 0.3,
            "zipf head fraction too small: {low}"
        );
    }

    #[test]
    fn zipf_exponent_one_special_case() {
        let mut r = rng(3);
        let d = IndexDistribution::Zipfian { exponent: 1.0 };
        let samples = d.sample_many(1000, 5000, &mut r);
        assert!(samples.iter().all(|&x| x < 1000));
    }

    #[test]
    fn hotset_concentrates_accesses() {
        let mut r = rng(4);
        let d = IndexDistribution::HotSet {
            hot_rows: 10,
            hot_fraction: 0.9,
        };
        let samples = d.sample_many(100_000, 10_000, &mut r);
        let hot = samples.iter().filter(|&&x| x < 10).count();
        assert!(hot as f64 / samples.len() as f64 > 0.85);
    }

    #[test]
    fn hotset_clamps_degenerate_parameters() {
        let mut r = rng(5);
        let d = IndexDistribution::HotSet {
            hot_rows: 1_000_000, // larger than the table
            hot_fraction: 2.0,   // > 1.0
        };
        let samples = d.sample_many(50, 1000, &mut r);
        assert!(samples.iter().all(|&x| x < 50));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = IndexDistribution::Zipfian { exponent: 0.99 };
        let a = d.sample_many(1000, 100, &mut rng(42));
        let b = d.sample_many(1000, 100, &mut rng(42));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty table")]
    fn sampling_empty_table_panics() {
        IndexDistribution::Uniform.sample(0, &mut rng(0));
    }

    #[test]
    fn production_skew_is_zipfian_with_documented_exponent() {
        assert_eq!(
            IndexDistribution::production_skew(),
            IndexDistribution::Zipfian { exponent: 0.99 }
        );
        assert_eq!(
            IndexDistribution::zipfian(1.3),
            IndexDistribution::Zipfian { exponent: 1.3 }
        );
        // The skew must actually concentrate mass in the head.
        let mut r = rng(11);
        let samples = IndexDistribution::production_skew().sample_many(100_000, 10_000, &mut r);
        let head = samples.iter().filter(|&&x| x < 1000).count();
        assert!(head as f64 / samples.len() as f64 > 0.3);
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(IndexDistribution::Uniform.label(), "uniform");
        assert!(IndexDistribution::Zipfian { exponent: 0.99 }
            .label()
            .contains("0.99"));
        assert!(IndexDistribution::HotSet {
            hot_rows: 5,
            hot_fraction: 0.5
        }
        .label()
        .contains("50%"));
        assert_eq!(IndexDistribution::default(), IndexDistribution::Uniform);
    }
}
