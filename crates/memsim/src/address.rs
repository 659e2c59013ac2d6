//! Physical-address → DRAM-coordinate mapping.
//!
//! The mapping interleaves consecutive cache lines across channels, then
//! banks, so that streaming accesses spread across the memory system — the
//! standard XOR-free open-page mapping used by Intel server memory
//! controllers at a first approximation.

use crate::CACHE_LINE_BYTES;

/// Where a physical address lands in the DRAM organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Memory channel index.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank within the rank.
    pub bank: usize,
    /// DRAM row within the bank (the unit of row-buffer locality).
    pub row: u64,
    /// Column (byte offset of the cache line within the row).
    pub column: u64,
}

/// Address-mapping configuration: the DRAM organization geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddressMapping {
    /// Number of memory channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: u64,
}

impl AddressMapping {
    /// A Broadwell-Xeon-like organization: 4 channels of DDR4, 2 ranks per
    /// channel, 16 banks per rank, 8 KiB row buffers.
    pub fn broadwell_like() -> Self {
        AddressMapping {
            channels: 4,
            ranks_per_channel: 2,
            banks_per_rank: 16,
            row_bytes: 8 * 1024,
        }
    }

    /// Total number of banks across the whole memory system.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Cache lines per DRAM row.
    pub fn lines_per_row(&self) -> u64 {
        self.row_bytes / CACHE_LINE_BYTES
    }

    /// Maps a physical address to its DRAM location.
    ///
    /// Address bits are consumed from the bottom as: line offset → channel →
    /// bank (within rank) → rank → column (line within row) → row.
    pub fn map(&self, addr: u64) -> DramLocation {
        let line = addr / CACHE_LINE_BYTES;
        let channel = (line % self.channels as u64) as usize;
        let line = line / self.channels as u64;
        let bank = (line % self.banks_per_rank as u64) as usize;
        let line = line / self.banks_per_rank as u64;
        let rank = (line % self.ranks_per_channel as u64) as usize;
        let line = line / self.ranks_per_channel as u64;
        let lines_per_row = self.lines_per_row();
        let column = (line % lines_per_row) * CACHE_LINE_BYTES;
        let row = line / lines_per_row;
        DramLocation {
            channel,
            rank,
            bank,
            row,
            column,
        }
    }

    /// Flat bank identifier (unique across channels and ranks), useful for
    /// indexing per-bank state.
    pub fn flat_bank_id(&self, loc: DramLocation) -> usize {
        (loc.channel * self.ranks_per_channel + loc.rank) * self.banks_per_rank + loc.bank
    }
}

impl Default for AddressMapping {
    fn default() -> Self {
        AddressMapping::broadwell_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadwell_geometry() {
        let m = AddressMapping::broadwell_like();
        assert_eq!(m.total_banks(), 4 * 2 * 16);
        assert_eq!(m.lines_per_row(), 128);
    }

    #[test]
    fn consecutive_lines_interleave_channels() {
        let m = AddressMapping::broadwell_like();
        let locs: Vec<_> = (0..4).map(|i| m.map(i * CACHE_LINE_BYTES)).collect();
        let channels: Vec<_> = locs.iter().map(|l| l.channel).collect();
        assert_eq!(channels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn same_line_maps_identically() {
        let m = AddressMapping::broadwell_like();
        assert_eq!(m.map(0x1_0000), m.map(0x1_0000 + 63));
        assert_ne!(m.map(0x1_0000), m.map(0x1_0000 + 64));
    }

    #[test]
    fn mapping_is_injective_over_a_window() {
        let m = AddressMapping {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 4,
            row_bytes: 1024,
        };
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let loc = m.map(i * CACHE_LINE_BYTES);
            assert!(
                seen.insert((loc.channel, loc.rank, loc.bank, loc.row, loc.column)),
                "collision at line {i}"
            );
        }
    }

    #[test]
    fn flat_bank_ids_are_dense_and_unique() {
        let m = AddressMapping::broadwell_like();
        let mut seen = std::collections::HashSet::new();
        for i in 0..m.total_banks() as u64 * 4 {
            let id = m.flat_bank_id(m.map(i * CACHE_LINE_BYTES));
            assert!(id < m.total_banks());
            seen.insert(id);
        }
        assert_eq!(seen.len(), m.total_banks());
    }

    #[test]
    fn row_changes_after_row_bytes_worth_of_lines_in_a_bank() {
        let m = AddressMapping::broadwell_like();
        // Walk addresses that stay in channel 0, bank 0, rank 0: stride =
        // channels * banks * ranks lines.
        let stride =
            (m.channels * m.banks_per_rank * m.ranks_per_channel) as u64 * CACHE_LINE_BYTES;
        let first = m.map(0);
        let lines_per_row = m.lines_per_row();
        let same_row = m.map(stride * (lines_per_row - 1));
        let next_row = m.map(stride * lines_per_row);
        assert_eq!(first.row, same_row.row);
        assert_eq!(first.row + 1, next_row.row);
        assert_eq!(first.bank, next_row.bank);
    }
}
