//! DDR4 DRAM timing model: channels, ranks, banks, open-row (row-buffer)
//! tracking and per-channel data-bus occupancy.
//!
//! The model services cache-line (64 B) requests. For each request it
//! computes a completion time given the issue time, accounting for
//! bank-level conflicts, row-buffer hits/misses and the channel bus
//! bandwidth — enough fidelity to reproduce the paper's observation that
//! sparse embedding gathers reach only a small fraction of the ~77 GB/s
//! peak bandwidth while streaming accesses can approach it.

use crate::address::AddressMapping;
use crate::CACHE_LINE_BYTES;

/// DRAM timing and organization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Address mapping / geometry.
    pub mapping: AddressMapping,
    /// Column-access latency (tCAS/tCL) in nanoseconds.
    pub t_cas_ns: f64,
    /// Row-to-column delay (tRCD) in nanoseconds.
    pub t_rcd_ns: f64,
    /// Row precharge time (tRP) in nanoseconds.
    pub t_rp_ns: f64,
    /// Time to move one 64 B line over a channel's data bus, in nanoseconds.
    pub burst_ns: f64,
    /// Fixed controller + on-chip-interconnect latency added to every
    /// request, in nanoseconds.
    pub controller_latency_ns: f64,
}

impl DramConfig {
    /// DDR4-2400-like timings on the Broadwell-Xeon-like organization used
    /// by the paper's baseline (4 channels ⇒ ~77 GB/s peak).
    pub fn ddr4_2400() -> Self {
        DramConfig {
            mapping: AddressMapping::broadwell_like(),
            t_cas_ns: 14.16,
            t_rcd_ns: 14.16,
            t_rp_ns: 14.16,
            // 64 B / (19.2 GB/s per channel) = 3.33 ns.
            burst_ns: 64.0 / 19.2,
            controller_latency_ns: 50.0,
        }
    }

    /// Peak aggregate data-bus bandwidth in GB/s.
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        self.mapping.channels as f64 * CACHE_LINE_BYTES as f64 / self.burst_ns
    }

    /// Idle (unloaded) read latency: row miss on an idle bank.
    pub fn idle_latency_ns(&self) -> f64 {
        self.controller_latency_ns + self.t_rcd_ns + self.t_cas_ns + self.burst_ns
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::ddr4_2400()
    }
}

/// Counters accumulated by the DRAM model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Total line requests serviced.
    pub requests: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that required activating a closed row.
    pub row_empty: u64,
    /// Requests that required precharging another open row first.
    pub row_conflicts: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Time of the last completion, in nanoseconds.
    pub last_completion_ns: f64,
}

impl DramStats {
    /// Fraction of requests that hit in an open row buffer.
    pub fn row_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }

    /// Achieved bandwidth in GB/s over the window `[0, last_completion]`.
    pub fn achieved_bandwidth_gbs(&self) -> f64 {
        if self.last_completion_ns <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / self.last_completion_ns
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    ready_ns: f64,
}

/// The DRAM device model.
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    banks: Vec<BankState>,
    channel_bus_free_ns: Vec<f64>,
    stats: DramStats,
}

impl DramModel {
    /// Creates an idle DRAM model.
    pub fn new(config: DramConfig) -> Self {
        let banks = vec![BankState::default(); config.mapping.total_banks()];
        let channel_bus_free_ns = vec![0.0; config.mapping.channels];
        DramModel {
            config,
            banks,
            channel_bus_free_ns,
            stats: DramStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets bank/bus state and statistics.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            *b = BankState::default();
        }
        for c in &mut self.channel_bus_free_ns {
            *c = 0.0;
        }
        self.stats = DramStats::default();
    }

    /// Services a 64 B read of the line containing `addr`, issued at
    /// `issue_ns`. Returns the completion time in nanoseconds.
    pub fn access(&mut self, addr: u64, issue_ns: f64) -> f64 {
        let loc = self.config.mapping.map(addr);
        let bank_id = self.config.mapping.flat_bank_id(loc);
        let bank = &mut self.banks[bank_id];

        let start = issue_ns.max(bank.ready_ns);
        let array_latency = match bank.open_row {
            Some(row) if row == loc.row => {
                self.stats.row_hits += 1;
                self.config.t_cas_ns
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                self.config.t_rp_ns + self.config.t_rcd_ns + self.config.t_cas_ns
            }
            None => {
                self.stats.row_empty += 1;
                self.config.t_rcd_ns + self.config.t_cas_ns
            }
        };
        bank.open_row = Some(loc.row);

        let data_ready = start + array_latency;
        let bus_free = self.channel_bus_free_ns[loc.channel];
        let bus_start = data_ready.max(bus_free);
        let bus_end = bus_start + self.config.burst_ns;
        self.channel_bus_free_ns[loc.channel] = bus_end;
        bank.ready_ns = bus_end;

        let completion = bus_end + self.config.controller_latency_ns;
        self.stats.requests += 1;
        self.stats.bytes += CACHE_LINE_BYTES;
        if completion > self.stats.last_completion_ns {
            self.stats.last_completion_ns = completion;
        }
        completion
    }

    /// Services a batch of `(issue_ns, addr)` requests in order and returns
    /// their completion times.
    pub fn access_all(&mut self, requests: &[(f64, u64)]) -> Vec<f64> {
        requests
            .iter()
            .map(|&(issue, addr)| self.access(addr, issue))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_bandwidth_matches_paper_baseline() {
        let c = DramConfig::ddr4_2400();
        // The paper quotes 77 GB/s of CPU memory bandwidth.
        assert!((c.peak_bandwidth_gbs() - 76.8).abs() < 0.5);
    }

    #[test]
    fn idle_latency_is_sub_100ns() {
        let c = DramConfig::ddr4_2400();
        assert!(c.idle_latency_ns() > 50.0 && c.idle_latency_ns() < 100.0);
    }

    #[test]
    fn single_access_latency_is_idle_latency() {
        let mut d = DramModel::new(DramConfig::ddr4_2400());
        let done = d.access(0x1234_5678, 0.0);
        assert!((done - d.config().idle_latency_ns()).abs() < 1e-9);
        assert_eq!(d.stats().requests, 1);
        assert_eq!(d.stats().row_empty, 1);
    }

    #[test]
    fn row_hit_is_faster_than_row_conflict() {
        let cfg = DramConfig::ddr4_2400();
        let mapping = cfg.mapping;
        let mut d = DramModel::new(cfg);
        // Two lines in the same row: second access is a row hit.
        let a = 0u64;
        let done_a = d.access(a, 0.0);
        let same_row = a + mapping.channels as u64
            * mapping.banks_per_rank as u64
            * mapping.ranks_per_channel as u64
            * CACHE_LINE_BYTES; // next column in same bank/row
        let done_b = d.access(same_row, done_a);
        let hit_latency = done_b - done_a;

        // A line in the same bank but a different row: row conflict.
        let mut d2 = DramModel::new(cfg);
        d2.access(a, 0.0);
        let stride = mapping.channels as u64
            * mapping.banks_per_rank as u64
            * mapping.ranks_per_channel as u64
            * CACHE_LINE_BYTES;
        let other_row = a + stride * mapping.lines_per_row();
        let t0 = d2.stats().last_completion_ns;
        let done_c = d2.access(other_row, t0);
        let conflict_latency = done_c - t0;

        assert!(hit_latency < conflict_latency);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d2.stats().row_conflicts, 1);
    }

    #[test]
    fn streaming_reads_approach_peak_bandwidth() {
        let cfg = DramConfig::ddr4_2400();
        let mut d = DramModel::new(cfg);
        // Issue a large number of sequential lines all at time 0 (a perfectly
        // pipelined stream); achieved bandwidth should be a large fraction of
        // peak.
        let n = 40_000u64;
        let requests: Vec<(f64, u64)> = (0..n).map(|i| (0.0, i * CACHE_LINE_BYTES)).collect();
        d.access_all(&requests);
        let bw = d.stats().achieved_bandwidth_gbs();
        assert!(
            bw > 0.7 * cfg.peak_bandwidth_gbs(),
            "streaming bandwidth too low: {bw:.1} GB/s"
        );
        assert!(bw <= cfg.peak_bandwidth_gbs() + 1e-6);
        assert!(d.stats().row_hit_rate() > 0.9);
    }

    #[test]
    fn serialized_random_reads_are_latency_bound() {
        let cfg = DramConfig::ddr4_2400();
        let mut d = DramModel::new(cfg);
        // One outstanding request at a time (dependent chain), random-ish
        // addresses: bandwidth collapses to ~64B / idle latency.
        let mut t = 0.0;
        let mut addr = 0x9E3779B97F4A7C15u64 % (1 << 34);
        for _ in 0..2_000 {
            t = d.access(addr, t);
            addr = addr.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345) % (1 << 34);
        }
        let bw = d.stats().achieved_bandwidth_gbs();
        assert!(
            bw < 1.5,
            "serialized random reads should be ~0.8 GB/s, got {bw:.2}"
        );
    }

    #[test]
    fn bank_conflicts_serialize_requests() {
        let cfg = DramConfig::ddr4_2400();
        let mapping = cfg.mapping;
        let mut d = DramModel::new(cfg);
        // Many simultaneous requests to different rows of the *same* bank.
        let stride = mapping.channels as u64
            * mapping.banks_per_rank as u64
            * mapping.ranks_per_channel as u64
            * CACHE_LINE_BYTES
            * mapping.lines_per_row();
        let completions: Vec<f64> = (0..8).map(|i| d.access(i * stride, 0.0)).collect();
        // Each successive completion must be strictly later: the bank is busy.
        for w in completions.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert_eq!(d.stats().row_conflicts, 7);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = DramModel::new(DramConfig::ddr4_2400());
        d.access(0, 0.0);
        d.reset();
        assert_eq!(d.stats().requests, 0);
        assert_eq!(d.stats().last_completion_ns, 0.0);
        // After reset the same access sees an empty row again.
        d.access(0, 0.0);
        assert_eq!(d.stats().row_empty, 1);
    }

    #[test]
    fn stats_rates_handle_empty() {
        let s = DramStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.achieved_bandwidth_gbs(), 0.0);
    }
}
