//! Base-pointer register set (`BPregs`) and the MMIO interface the host
//! uses to initialise it at boot time (Section IV-C/IV-E).
//!
//! Under the package-integrated platform's "pointer-is-a-pointer" semantics
//! the host simply writes the virtual addresses of the sparse index array,
//! the embedding tables, the MLP weights and the dense features into these
//! registers; the FPGA-side IOMMU translates them on access.

use crate::error::CentaurError;

/// Which base pointer an MMIO write targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasePointer {
    /// The sparse index array (row IDs to gather).
    SparseIndexArray,
    /// The base address of embedding table `t`.
    EmbeddingTable(usize),
    /// The MLP weight region.
    MlpWeights,
    /// The dense-feature (bottom-MLP input) region.
    DenseFeatures,
    /// Where the final event probabilities are written back.
    Output,
}

/// The base-pointer register file of the sparse accelerator complex.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BasePointerRegs {
    sparse_index_array: Option<u64>,
    embedding_tables: Vec<Option<u64>>,
    mlp_weights: Option<u64>,
    dense_features: Option<u64>,
    output: Option<u64>,
    mmio_writes: u64,
}

impl BasePointerRegs {
    /// Creates a register file sized for `num_tables` embedding tables.
    pub fn new(num_tables: usize) -> Self {
        BasePointerRegs {
            embedding_tables: vec![None; num_tables],
            ..Default::default()
        }
    }

    /// Number of embedding-table base registers.
    pub fn num_tables(&self) -> usize {
        self.embedding_tables.len()
    }

    /// Number of MMIO writes performed by the host so far.
    pub fn mmio_writes(&self) -> u64 {
        self.mmio_writes
    }

    /// Host-side MMIO write of a base pointer.
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::InvalidConfig`] when an embedding-table index
    /// is out of range.
    pub fn mmio_write(&mut self, target: BasePointer, addr: u64) -> Result<(), CentaurError> {
        self.mmio_writes += 1;
        match target {
            BasePointer::SparseIndexArray => self.sparse_index_array = Some(addr),
            BasePointer::EmbeddingTable(t) => {
                let num_tables = self.embedding_tables.len();
                let slot = self.embedding_tables.get_mut(t).ok_or_else(|| {
                    CentaurError::InvalidConfig(format!(
                        "embedding table register {t} out of range ({num_tables})"
                    ))
                })?;
                *slot = Some(addr);
            }
            BasePointer::MlpWeights => self.mlp_weights = Some(addr),
            BasePointer::DenseFeatures => self.dense_features = Some(addr),
            BasePointer::Output => self.output = Some(addr),
        }
        Ok(())
    }

    /// Reads the sparse-index-array base pointer.
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::NotInitialised`] when the host has not
    /// written it yet.
    pub fn sparse_index_array(&self) -> Result<u64, CentaurError> {
        self.sparse_index_array
            .ok_or(CentaurError::NotInitialised("sparse index array pointer"))
    }

    /// Reads embedding table `t`'s base pointer.
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::NotInitialised`] when the host has not
    /// written it yet (or the index is out of range).
    pub fn embedding_table(&self, t: usize) -> Result<u64, CentaurError> {
        self.embedding_tables
            .get(t)
            .copied()
            .flatten()
            .ok_or(CentaurError::NotInitialised("embedding table pointer"))
    }

    /// Reads the MLP-weight base pointer.
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::NotInitialised`] when the host has not
    /// written it yet.
    pub fn mlp_weights(&self) -> Result<u64, CentaurError> {
        self.mlp_weights
            .ok_or(CentaurError::NotInitialised("MLP weight pointer"))
    }

    /// Reads the dense-feature base pointer.
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::NotInitialised`] when the host has not
    /// written it yet.
    pub fn dense_features(&self) -> Result<u64, CentaurError> {
        self.dense_features
            .ok_or(CentaurError::NotInitialised("dense feature pointer"))
    }

    /// Reads the output base pointer.
    ///
    /// # Errors
    ///
    /// Returns [`CentaurError::NotInitialised`] when the host has not
    /// written it yet.
    pub fn output(&self) -> Result<u64, CentaurError> {
        self.output
            .ok_or(CentaurError::NotInitialised("output pointer"))
    }

    /// Returns `true` once every pointer needed for inference is set.
    pub fn is_fully_initialised(&self) -> bool {
        self.sparse_index_array.is_some()
            && self.mlp_weights.is_some()
            && self.dense_features.is_some()
            && self.output.is_some()
            && self.embedding_tables.iter().all(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninitialised_reads_error() {
        let regs = BasePointerRegs::new(2);
        assert!(matches!(
            regs.sparse_index_array(),
            Err(CentaurError::NotInitialised(_))
        ));
        assert!(regs.embedding_table(0).is_err());
        assert!(regs.mlp_weights().is_err());
        assert!(!regs.is_fully_initialised());
    }

    #[test]
    fn mmio_writes_then_reads_back() {
        let mut regs = BasePointerRegs::new(3);
        regs.mmio_write(BasePointer::SparseIndexArray, 0x1000)
            .unwrap();
        regs.mmio_write(BasePointer::EmbeddingTable(0), 0x2000)
            .unwrap();
        regs.mmio_write(BasePointer::EmbeddingTable(1), 0x3000)
            .unwrap();
        regs.mmio_write(BasePointer::EmbeddingTable(2), 0x4000)
            .unwrap();
        regs.mmio_write(BasePointer::MlpWeights, 0x5000).unwrap();
        regs.mmio_write(BasePointer::DenseFeatures, 0x6000).unwrap();
        regs.mmio_write(BasePointer::Output, 0x7000).unwrap();

        assert_eq!(regs.sparse_index_array().unwrap(), 0x1000);
        assert_eq!(regs.embedding_table(1).unwrap(), 0x3000);
        assert_eq!(regs.mlp_weights().unwrap(), 0x5000);
        assert_eq!(regs.dense_features().unwrap(), 0x6000);
        assert_eq!(regs.output().unwrap(), 0x7000);
        assert!(regs.is_fully_initialised());
        assert_eq!(regs.mmio_writes(), 7);
        assert_eq!(regs.num_tables(), 3);
    }

    #[test]
    fn out_of_range_table_register_rejected() {
        let mut regs = BasePointerRegs::new(1);
        assert!(regs
            .mmio_write(BasePointer::EmbeddingTable(5), 0x0)
            .is_err());
    }

    #[test]
    fn partially_initialised_is_not_ready() {
        let mut regs = BasePointerRegs::new(1);
        regs.mmio_write(BasePointer::SparseIndexArray, 1).unwrap();
        regs.mmio_write(BasePointer::MlpWeights, 2).unwrap();
        regs.mmio_write(BasePointer::DenseFeatures, 3).unwrap();
        regs.mmio_write(BasePointer::Output, 4).unwrap();
        assert!(!regs.is_fully_initialised(), "table pointer still missing");
        regs.mmio_write(BasePointer::EmbeddingTable(0), 5).unwrap();
        assert!(regs.is_fully_initialised());
    }
}
