//! Metric arithmetic shared by the `perfbench` binary: percentiles,
//! per-window figures and rates, trace coverage, metric-name validity and
//! the JSON rendering of one run's metrics.
//!
//! Everything here is plain arithmetic over recorded numbers, kept apart
//! from the measuring code so it can be unit-tested on known inputs.

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// value with at least `p` percent of the samples at or below it.
/// `p` is clamped to `[0, 100]`; an empty slice yields `None`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a copy of `values` ascending (NaNs are a caller bug and panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.partial_cmp(b).expect("recorded values are finite"));
    out
}

/// Nearest-rank percentile of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    percentile_sorted(&sorted(values), p)
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Width of the windows a phase is cut into: each end-to-end figure is
/// computed per window, then summarized by [`sustained`].
pub const WINDOW_S: f64 = 0.1;

/// Groups `(time_s, value)` samples into consecutive `width_s` windows by
/// time, starting at the earliest sample; windows holding fewer than
/// `min_len` samples are dropped.
pub fn windows(samples: &[(f64, f64)], width_s: f64, min_len: usize) -> Vec<Vec<f64>> {
    let Some(start) = samples.iter().map(|s| s.0).reduce(f64::min) else {
        return Vec::new();
    };
    let mut out: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        let slot = ((t - start) / width_s) as usize;
        if out.len() <= slot {
            out.resize_with(slot + 1, Vec::new);
        }
        out[slot].push(v);
    }
    out.retain(|w| w.len() >= min_len.max(1));
    out
}

/// Events per second in each full `width_s` window between the first and
/// the last of `times_s` (the partial window at the end is left out),
/// measured inside each window as `(n - 1) / (last - first)` of its own
/// events, so the rate is not quantized to multiples of `1 / width_s`.
/// Windows with fewer than two events are skipped.
pub fn window_rates(times_s: &[f64], width_s: f64) -> Vec<f64> {
    let (Some(first), Some(last)) = (
        times_s.iter().copied().reduce(f64::min),
        times_s.iter().copied().reduce(f64::max),
    ) else {
        return Vec::new();
    };
    let full = ((last - first) / width_s) as usize;
    let mut bounds = vec![(f64::INFINITY, f64::NEG_INFINITY, 0usize); full];
    for &t in times_s {
        if let Some((lo, hi, n)) = bounds.get_mut(((t - first) / width_s) as usize) {
            *lo = lo.min(t);
            *hi = hi.max(t);
            *n += 1;
        }
    }
    bounds
        .into_iter()
        .filter(|&(lo, hi, n)| n >= 2 && hi > lo)
        .map(|(lo, hi, n)| (n - 1) as f64 / (hi - lo))
        .collect()
}

/// `stat` of every window (windows where it is undefined are skipped).
pub fn per_window(windows: &[Vec<f64>], stat: impl Fn(&[f64]) -> Option<f64>) -> Vec<f64> {
    windows.iter().filter_map(|w| stat(w)).collect()
}

/// The figure `share` percent of windows meet or beat: the `share`-th
/// percentile of the per-window values when lower is better, the
/// `(100 - share)`-th when higher is better. `share = 50` is the median
/// window; a disturbance confined to fewer than `100 - share` percent of
/// the windows does not move the figure.
pub fn sustained(per_window: &[f64], share: f64, lower_is_better: bool) -> Option<f64> {
    let p = if lower_is_better {
        share
    } else {
        100.0 - share
    };
    percentile(per_window, p)
}

/// Share of traced end-to-end time that the layers' recorded self times
/// account for: `sum(layer_self) / sum(end_to_end)`. A value near 1 means
/// the spans tile the requests' time with no unexplained gaps.
pub fn coverage(layer_self_s: &[f64], end_to_end_s: &[f64]) -> Option<f64> {
    let total: f64 = end_to_end_s.iter().sum();
    (total > 0.0).then(|| layer_self_s.iter().sum::<f64>() / total)
}

/// Relative tracing overhead: `traced / untraced - 1`.
pub fn overhead(traced: f64, untraced: f64) -> Option<f64> {
    (untraced > 0.0).then(|| traced / untraced - 1.0)
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit label: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One run's named metrics, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// An empty set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds one metric.
    ///
    /// # Panics
    ///
    /// On an invalid or repeated name, an invalid unit, or a non-finite
    /// value — each is a bug in the benchmark, not in the measured program.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.get(name).is_none(),
            "metric {name} recorded twice in one run"
        );
        self.entries.push((name.to_string(), value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of each
    /// value (Rust's shortest round-trip float formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

/// Escapes `text` as a JSON string literal (quotes included).
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 99.9), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        // Order of the input does not matter.
        let reversed: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 90.0), Some(90.0));
        // Small sets: nearest rank, never interpolated.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[5.0], 99.9), Some(5.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn windows_and_sustained_figures() {
        // 24 samples, 8 per 0.25 s window (times exact in binary); the
        // middle window is slow.
        let samples: Vec<(f64, f64)> = (0..24)
            .map(|i| {
                (
                    1.0 + i as f64 * 0.03125,
                    if (8..16).contains(&i) { 2.0 } else { 1.0 },
                )
            })
            .collect();
        let w = windows(&samples, 0.25, 1);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|w| w.len() == 8));
        assert_eq!(w[1], vec![2.0; 8]);
        let medians = per_window(&w, |w| percentile(w, 50.0));
        assert_eq!(medians, vec![1.0, 2.0, 1.0]);
        assert_eq!(sustained(&medians, 90.0, true), Some(2.0));
        assert_eq!(sustained(&medians, 90.0, false), Some(1.0));
        assert_eq!(sustained(&medians, 50.0, true), Some(1.0));
        // Ten windows, one disturbed: both summaries ignore it.
        let mut ten = vec![1.0; 9];
        ten.push(50.0);
        assert_eq!(sustained(&ten, 90.0, true), Some(1.0));
        assert_eq!(sustained(&ten, 50.0, true), Some(1.0));
        // Four disturbed windows in ten move the 90% figure, not the median.
        let four: Vec<f64> = (0..10).map(|i| if i < 4 { 50.0 } else { 1.0 }).collect();
        assert_eq!(sustained(&four, 90.0, true), Some(50.0));
        assert_eq!(sustained(&four, 50.0, true), Some(1.0));
        assert_eq!(sustained(&per_window(&w, mean), 90.0, false), Some(1.0));
        // Sparse windows are dropped.
        assert_eq!(windows(&samples, 0.25, 9).len(), 0);
        assert!(windows(&[], 0.25, 1).is_empty());
    }

    #[test]
    fn capacity_from_a_synthetic_completion_log() {
        // 100 completions/s for 1 s, then 300/s for 1 s.
        let mut log: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        log.extend((0..300).map(|i| 1.0 + i as f64 / 300.0));
        let rates = window_rates(&log, 0.5);
        assert_eq!(rates.len(), 3, "{rates:?}");
        assert!(
            (rates[0] - 100.0).abs() < 1e-6 && (rates[2] - 300.0).abs() < 1e-6,
            "{rates:?}"
        );
        assert_eq!(sustained(&rates, 90.0, false), Some(rates[0]));
        assert_eq!(sustained(&rates, 50.0, false), Some(rates[1]));
        // Unordered logs (several workers) give the same rates.
        let mut shuffled = log.clone();
        shuffled.reverse();
        shuffled.swap(3, 250);
        assert_eq!(window_rates(&shuffled, 0.5), rates);
        // Too little to measure.
        assert!(window_rates(&[], 0.5).is_empty());
        assert!(window_rates(&[1.0], 0.5).is_empty());
    }

    #[test]
    fn coverage_and_overhead_arithmetic() {
        assert_eq!(coverage(&[1.0, 2.0, 1.0], &[2.0, 2.0]), Some(1.0));
        assert_eq!(coverage(&[0.5, 0.25], &[1.0]), Some(0.75));
        assert_eq!(coverage(&[1.0], &[]), None);
        assert_eq!(overhead(1.1, 1.0).map(|o| (o * 1e9).round()), Some(1e8));
        assert_eq!(overhead(1.0, 0.0), None);
    }

    #[test]
    fn name_validity() {
        for good in [
            "p50_ms",
            "queue.wait_ms.p90",
            "sparse-batched",
            "0x",
            "a",
            &"x".repeat(64),
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("GB/s"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn metrics_render_as_json_in_order() {
        let mut m = Metrics::new();
        m.push("latency_ms", 1.25, "ms");
        m.push("setup_s", 0.5, "s");
        assert_eq!(m.get("setup_s"), Some(0.5));
        assert_eq!(
            m.to_json(),
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_metric_names_are_refused() {
        let mut m = Metrics::new();
        m.push("x", 1.0, "s");
        m.push("x", 2.0, "s");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_metric_names_are_refused() {
        Metrics::new().push("bad name", 1.0, "s");
    }
}
