//! The embedding gather unit (EB-GU): a base + offset address generator
//! that turns sparse index IDs into CPU→FPGA read requests (Figure 10).

use centaur_dlrm::trace::{EmbeddingAccess, TableLayout};

/// One CPU→FPGA embedding read generated by the gather unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GatherRequest {
    /// Physical byte address of the embedding row.
    pub address: u64,
    /// Bytes to read (one embedding row).
    pub bytes: u64,
    /// Which table the row belongs to (used for reduction routing).
    pub table: usize,
}

impl GatherRequest {
    /// Number of 64-byte link transfers this request needs.
    pub fn line_transfers(&self) -> u64 {
        self.bytes.div_ceil(64)
    }
}

/// The EB-GU address generator.
///
/// The unit is almost pure combinational logic in the real design (base +
/// index × row-stride); here it is a deterministic function from index IDs
/// to [`GatherRequest`]s plus issue counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EmbeddingGatherUnit {
    requests_generated: u64,
    bytes_requested: u64,
    requests_suppressed: u64,
}

impl EmbeddingGatherUnit {
    /// Creates an idle gather unit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total requests generated so far.
    pub fn requests_generated(&self) -> u64 {
        self.requests_generated
    }

    /// Total bytes requested so far.
    pub fn bytes_requested(&self) -> u64 {
        self.bytes_requested
    }

    /// Read requests the hot-row cache short-circuited before they reached
    /// the link (a gather that hits on chip never becomes a CPU→FPGA read).
    pub fn requests_suppressed(&self) -> u64 {
        self.requests_suppressed
    }

    /// Records `count` gathers served from the hot-row cache instead of the
    /// link.
    pub fn record_suppressed(&mut self, count: u64) {
        self.requests_suppressed += count;
    }

    /// Computes the data-fetch address for one gather (the `base + offset`
    /// calculation of Figure 10) and records the issue.
    pub fn generate(&mut self, layout: &TableLayout, table: usize, row: u64) -> GatherRequest {
        let address = layout.address_of(EmbeddingAccess { table, row });
        let bytes = layout.row_bytes();
        self.requests_generated += 1;
        self.bytes_requested += bytes;
        GatherRequest {
            address,
            bytes,
            table,
        }
    }

    /// Generates the full request stream for a set of per-table indices.
    pub fn generate_all(
        &mut self,
        layout: &TableLayout,
        rows_per_table: &[Vec<u64>],
    ) -> Vec<GatherRequest> {
        let mut out = Vec::with_capacity(rows_per_table.iter().map(Vec::len).sum());
        for (table, rows) in rows_per_table.iter().enumerate() {
            for &row in rows {
                out.push(self.generate(layout, table, row));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> TableLayout {
        TableLayout::new(0x10_0000, 4, 1000, 128)
    }

    #[test]
    fn addresses_match_layout() {
        let layout = layout();
        let mut gu = EmbeddingGatherUnit::new();
        let req = gu.generate(&layout, 2, 7);
        assert_eq!(
            req.address,
            layout.address_of(EmbeddingAccess { table: 2, row: 7 })
        );
        assert_eq!(req.bytes, 128);
        assert_eq!(req.table, 2);
        assert_eq!(req.line_transfers(), 2);
    }

    #[test]
    fn counters_accumulate() {
        let layout = layout();
        let mut gu = EmbeddingGatherUnit::new();
        let reqs = gu.generate_all(&layout, &[vec![0, 1], vec![5], vec![], vec![999]]);
        assert_eq!(reqs.len(), 4);
        assert_eq!(gu.requests_generated(), 4);
        assert_eq!(gu.bytes_requested(), 4 * 128);
    }

    #[test]
    fn request_stream_preserves_table_order() {
        let layout = layout();
        let mut gu = EmbeddingGatherUnit::new();
        let reqs = gu.generate_all(&layout, &[vec![1], vec![2], vec![3], vec![4]]);
        let tables: Vec<usize> = reqs.iter().map(|r| r.table).collect();
        assert_eq!(tables, vec![0, 1, 2, 3]);
    }

    #[test]
    fn line_transfers_round_up() {
        let req = GatherRequest {
            address: 0,
            bytes: 65,
            table: 0,
        };
        assert_eq!(req.line_transfers(), 2);
        let exact = GatherRequest {
            address: 0,
            bytes: 64,
            table: 0,
        };
        assert_eq!(exact.line_transfers(), 1);
    }
}
