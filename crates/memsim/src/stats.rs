//! Small shared measurement helpers (throughput accounting).

/// Bytes moved over a time window, with convenience conversions.
///
/// The paper's *effective throughput* metric is exactly this: useful bytes
/// gathered divided by the latency of the embedding stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Throughput {
    /// Useful bytes transferred.
    pub bytes: u64,
    /// Elapsed time in nanoseconds.
    pub elapsed_ns: f64,
}

impl Throughput {
    /// Creates a throughput measurement.
    pub fn new(bytes: u64, elapsed_ns: f64) -> Self {
        Throughput { bytes, elapsed_ns }
    }

    /// Throughput in gigabytes per second (returns 0 for a zero-length
    /// window).
    pub fn gigabytes_per_second(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / self.elapsed_ns
        }
    }

    /// Elapsed time in microseconds.
    pub fn elapsed_us(&self) -> f64 {
        self.elapsed_ns / 1_000.0
    }

    /// Elapsed time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ns / 1_000_000.0
    }

    /// Combines two measurements covering *disjoint, sequential* windows.
    pub fn combine(&self, other: &Throughput) -> Throughput {
        Throughput {
            bytes: self.bytes + other.bytes,
            elapsed_ns: self.elapsed_ns + other.elapsed_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbs_conversion() {
        // 77 bytes in 1 ns = 77 GB/s.
        let t = Throughput::new(77, 1.0);
        assert!((t.gigabytes_per_second() - 77.0).abs() < 1e-9);
        // 1 GiB-ish in 1 s.
        let t = Throughput::new(1_000_000_000, 1e9);
        assert!((t.gigabytes_per_second() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_is_zero_throughput() {
        assert_eq!(Throughput::new(100, 0.0).gigabytes_per_second(), 0.0);
    }

    #[test]
    fn unit_conversions() {
        let t = Throughput::new(0, 2_500_000.0);
        assert!((t.elapsed_us() - 2500.0).abs() < 1e-9);
        assert!((t.elapsed_ms() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn combine_adds_both_fields() {
        let a = Throughput::new(100, 10.0);
        let b = Throughput::new(50, 40.0);
        let c = a.combine(&b);
        assert_eq!(c.bytes, 150);
        assert!((c.elapsed_ns - 50.0).abs() < 1e-9);
        assert!((c.gigabytes_per_second() - 3.0).abs() < 1e-9);
    }
}
