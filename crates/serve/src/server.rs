//! The serving backend abstraction: how a replica worker turns one popped
//! batch of [`QueuedRequest`]s into probabilities.
//!
//! The queue/supervision machinery (pop, publish-in-flight, retry, restart)
//! is the same whether a replica serves one model or routes a merged
//! multi-tenant stream across several; [`BatchServer`] is the seam between
//! them. [`SoloServer`] is the single-model backend every pre-mix entry
//! point uses; `centaur_serve::mix::MixServer` is the shared-pool backend
//! that dispatches each request to its tenant's engine.

use crate::queue::QueuedRequest;
use crate::stage::ReplicaStage;
use centaur::{CentaurError, CentaurRuntime};
use centaur_dlrm::InferenceRequest;

/// One replica's serving backend: stages the requests a popped batch points
/// at, runs the accelerator path, and yields one probability per batch
/// entry.
pub trait BatchServer {
    /// Serves `batch`, writing one probability per entry into `out`
    /// (cleared first, same order as `batch`). An error fails the whole
    /// attempt — the supervised loop then re-serves request-by-request so a
    /// poison request cannot burn its co-riders' retry budgets.
    ///
    /// # Errors
    ///
    /// Returns the accelerator datapath error that failed the attempt.
    fn serve_batch(
        &mut self,
        batch: &[QueuedRequest],
        out: &mut Vec<f32>,
    ) -> Result<(), CentaurError>;

    /// The wire-level id of the pre-generated request a
    /// [`QueuedRequest::index`] refers to.
    fn request_id(&self, index: usize) -> u64;
}

/// The single-model backend: one runtime shard, one staging buffer, one
/// request set. Steady state allocates nothing once the staging buffers
/// reach their high-water marks.
#[derive(Clone)]
pub struct SoloServer<'a> {
    runtime: CentaurRuntime,
    stage: ReplicaStage,
    requests: &'a [InferenceRequest],
    staged: Vec<&'a InferenceRequest>,
}

impl<'a> SoloServer<'a> {
    /// A backend serving `requests` through `runtime`, staging up to
    /// `max_batch` requests per dispatch.
    pub fn new(
        runtime: CentaurRuntime,
        requests: &'a [InferenceRequest],
        max_batch: usize,
    ) -> Self {
        let config = runtime.model().config().clone();
        SoloServer {
            runtime,
            stage: ReplicaStage::new(&config, max_batch),
            requests,
            staged: Vec::with_capacity(max_batch),
        }
    }
}

impl BatchServer for SoloServer<'_> {
    fn serve_batch(
        &mut self,
        batch: &[QueuedRequest],
        out: &mut Vec<f32>,
    ) -> Result<(), CentaurError> {
        self.staged.clear();
        self.staged
            .extend(batch.iter().map(|q| &self.requests[q.index]));
        let probabilities = self.stage.run_batch(&mut self.runtime, &self.staged)?;
        out.clear();
        out.extend_from_slice(probabilities);
        Ok(())
    }

    fn request_id(&self, index: usize) -> u64 {
        self.requests[index].id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centaur::CentaurConfig;
    use centaur_dlrm::{DlrmModel, PaperModel};
    use centaur_workload::IndexDistribution;

    #[test]
    fn solo_server_serves_batches_and_echoes_ids() {
        let config = PaperModel::Dlrm1.config().with_rows_per_table(256);
        let model = DlrmModel::random(&config, 3).unwrap();
        let requests = crate::harness::generate_requests(&config, IndexDistribution::Uniform, 4, 8);
        let runtime = CentaurRuntime::new(model, CentaurConfig::harpv2()).unwrap();
        let mut server = SoloServer::new(runtime, &requests, 4);
        let batch: Vec<QueuedRequest> = (0..4).map(|i| QueuedRequest::new(i, 0.0)).collect();
        let mut out = Vec::new();
        server.serve_batch(&batch, &mut out).unwrap();
        assert_eq!(out.len(), 4, "one probability per batch entry");
        assert!(out.iter().all(|p| (0.0..=1.0).contains(p)));
        assert_eq!(server.request_id(3), requests[3].id);
        // A second serve reuses the buffers and can shrink the batch.
        server.serve_batch(&batch[..2], &mut out).unwrap();
        assert_eq!(out.len(), 2);
    }
}
