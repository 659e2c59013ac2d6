//! The on-FPGA SRAM array holding sparse index IDs awaiting gather
//! (`SRAM_sparseID` in Figure 9/10).
//!
//! A large index SRAM is what lets the gather unit keep many embedding
//! reads in flight: the paper's design spends over half of the sparse
//! complex's block memory on it (Table III). When a batch carries more
//! indices than fit, the streamer processes the index array in chunks,
//! double-buffering the SRAM.

use crate::error::CentaurError;

/// The sparse-index SRAM buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseIndexSram {
    capacity_indices: usize,
    contents: Vec<u32>,
    loads: u64,
}

impl SparseIndexSram {
    /// Bytes per stored index (32-bit row IDs).
    pub const INDEX_BYTES: usize = 4;

    /// Creates an SRAM able to hold `capacity_indices` row IDs.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_indices: usize) -> Self {
        assert!(capacity_indices > 0, "index SRAM needs non-zero capacity");
        SparseIndexSram {
            capacity_indices,
            contents: Vec::new(),
            loads: 0,
        }
    }

    /// The paper's configuration: ~12.2 Mbit of block RAM dedicated to
    /// sparse indices (Table III), i.e. roughly 380 K 32-bit indices.
    pub fn harpv2_sized() -> Self {
        let bits = 12_200_000u64;
        SparseIndexSram::new((bits / 8 / Self::INDEX_BYTES as u64) as usize)
    }

    /// Maximum number of indices the SRAM holds at once.
    pub fn capacity_indices(&self) -> usize {
        self.capacity_indices
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_indices * Self::INDEX_BYTES
    }

    /// Number of indices currently buffered.
    pub fn len(&self) -> usize {
        self.contents.len()
    }

    /// Returns `true` when no indices are buffered.
    pub fn is_empty(&self) -> bool {
        self.contents.is_empty()
    }

    /// How many CPU→FPGA fill operations have occurred.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Number of chunked fills needed to stream `total_indices` through
    /// this SRAM.
    pub fn chunks_needed(&self, total_indices: usize) -> usize {
        total_indices.div_ceil(self.capacity_indices)
    }

    /// Fills the SRAM with a chunk of indices (replacing the previous
    /// contents, as the hardware double-buffer would).
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::CapacityExceeded`] when the chunk does not
    /// fit.
    pub fn load(&mut self, indices: &[u32]) -> Result<(), CentaurError> {
        if indices.len() > self.capacity_indices {
            return Err(CentaurError::CapacityExceeded {
                resource: "sparse index SRAM",
                required: indices.len() as u64,
                available: self.capacity_indices as u64,
            });
        }
        self.contents.clear();
        self.contents.extend_from_slice(indices);
        self.loads += 1;
        Ok(())
    }

    /// Starts a packed fill: clears the buffer so several index lists can
    /// be appended back to back with [`SparseIndexSram::append`] and then
    /// streamed as **one** CPU→FPGA fill. This is what lets the batch path
    /// amortize the per-fill cost across every sample of a table instead of
    /// paying one fill per (table, sample).
    pub fn begin_load(&mut self) {
        self.contents.clear();
    }

    /// Appends a chunk of indices to the current packed fill, returning the
    /// offset at which the chunk landed (so callers can address each
    /// sample's segment inside the shared fill).
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::CapacityExceeded`] when the chunk does not
    /// fit in the remaining capacity; the buffered contents are unchanged.
    pub fn append(&mut self, indices: &[u32]) -> Result<usize, CentaurError> {
        if self.contents.len() + indices.len() > self.capacity_indices {
            return Err(CentaurError::CapacityExceeded {
                resource: "sparse index SRAM",
                required: (self.contents.len() + indices.len()) as u64,
                available: self.capacity_indices as u64,
            });
        }
        let start = self.contents.len();
        self.contents.extend_from_slice(indices);
        Ok(start)
    }

    /// Completes a packed fill, counting it as one CPU→FPGA load.
    pub fn finish_load(&mut self) {
        self.loads += 1;
    }

    /// Borrows the buffered indices.
    pub fn contents(&self) -> &[u32] {
        &self.contents
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harpv2_capacity_is_hundreds_of_thousands() {
        let sram = SparseIndexSram::harpv2_sized();
        assert!(sram.capacity_indices() > 300_000);
        assert!(sram.capacity_bytes() < 2 * 1024 * 1024);
    }

    #[test]
    fn load_and_read_back() {
        let mut sram = SparseIndexSram::new(8);
        sram.load(&[1, 2, 3]).unwrap();
        assert_eq!(sram.contents(), &[1, 2, 3]);
        assert_eq!(sram.len(), 3);
        assert!(!sram.is_empty());
        // A second load replaces the first (double buffering).
        sram.load(&[9]).unwrap();
        assert_eq!(sram.contents(), &[9]);
        assert_eq!(sram.loads(), 2);
    }

    #[test]
    fn overflow_is_rejected() {
        let mut sram = SparseIndexSram::new(2);
        let err = sram.load(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, CentaurError::CapacityExceeded { .. }));
        assert!(sram.is_empty());
    }

    #[test]
    fn packed_fill_appends_and_counts_one_load() {
        let mut sram = SparseIndexSram::new(8);
        sram.begin_load();
        assert_eq!(sram.append(&[1, 2, 3]).unwrap(), 0);
        assert_eq!(sram.append(&[4, 5]).unwrap(), 3);
        sram.finish_load();
        assert_eq!(sram.contents(), &[1, 2, 3, 4, 5]);
        assert_eq!(sram.loads(), 1);
        // Overfilling the remaining capacity is rejected, contents intact.
        let err = sram.append(&[6, 7, 8, 9]).unwrap_err();
        assert!(matches!(err, CentaurError::CapacityExceeded { .. }));
        assert_eq!(sram.len(), 5);
        // The next packed fill replaces the previous one.
        sram.begin_load();
        assert!(sram.is_empty());
    }

    #[test]
    fn chunks_needed_rounds_up() {
        let sram = SparseIndexSram::new(100);
        assert_eq!(sram.chunks_needed(0), 0);
        assert_eq!(sram.chunks_needed(1), 1);
        assert_eq!(sram.chunks_needed(100), 1);
        assert_eq!(sram.chunks_needed(101), 2);
        assert_eq!(sram.chunks_needed(1000), 10);
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_panics() {
        SparseIndexSram::new(0);
    }
}
