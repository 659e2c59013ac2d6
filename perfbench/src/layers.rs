//! Span recording and the layer-by-layer replay of one batch.
//!
//! Spans are timed from the benchmark's own code around calls into each
//! layer's public functions; nothing inside the measured program changes.
//! [`LayerPath`] runs one batch through the same public pieces the runtime
//! composes — EB-Streamer gather, bottom MLP, feature interaction, top MLP
//! and sigmoid — so each can be timed on its own. Its output must equal
//! the runtime's bit for bit, which the probe checks confirm.

use centaur::{CentaurConfig, CentaurError, CentaurRuntime, EbStreamer, BATCH_WAVE_SAMPLES};
use centaur_dlrm::kernel::{KernelBackend, Workspace};
use centaur_dlrm::tensor::sigmoid_into;
use centaur_dlrm::{DlrmError, DlrmModel, FeatureInteraction, InferenceRequest};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ArrivalQueue::push` on the generator thread.
    Push,
    /// `ArrivalQueue::pop_batch` on the worker (blocking wait included).
    Pop,
    /// `ArrivalQueue::complete_batch`.
    Complete,
    /// `ReplicaStage::run_batch` (staging copy + inference).
    RunBatch,
    /// The staging copy into batch-major buffers, as `ReplicaStage` does it.
    Copy,
    /// `CentaurRuntime::infer_batch_rows_into`.
    Infer,
    /// `EbStreamer::gather_reduce_batch_into`.
    Gather,
    /// Bottom `Mlp::forward_batch_ws`, scattered into the feature rows.
    Bottom,
    /// Reduced embeddings scattered into the feature rows, then
    /// `FeatureInteraction::interact_batch_into`.
    Interaction,
    /// Top `Mlp::forward_batch_ws` plus the sigmoid sweep.
    Top,
    /// One closed-loop iteration of the offline workload (the traced
    /// end-to-end unit there).
    Iteration,
}

impl Layer {
    /// Span label written to the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Push => "queue.push",
            Layer::Pop => "queue.pop_batch",
            Layer::Complete => "queue.complete_batch",
            Layer::RunBatch => "stage.run_batch",
            Layer::Copy => "stage.copy",
            Layer::Infer => "runtime.infer_batch_rows_into",
            Layer::Gather => "sparse.gather_reduce_batch_into",
            Layer::Bottom => "dense.bottom_mlp",
            Layer::Interaction => "dense.interaction",
            Layer::Top => "dense.top_mlp",
            Layer::Iteration => "offline.iteration",
        }
    }
}

/// One recorded span: which layer, the batch (or request) it served, and
/// its interval in nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary.
    pub layer: Layer,
    /// Batch id (request index for [`Layer::Push`]).
    pub id: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span log of one thread. Preallocated, so recording a span
/// never allocates once the capacity estimate holds.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A log timing against `epoch`, with room for `capacity` spans.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` and records it as a `layer` span for `id`; returns its
    /// result and the span.
    pub fn time<T>(&mut self, layer: Layer, id: u64, f: impl FnOnce() -> T) -> (T, Span) {
        let start_ns = self.now_ns();
        let value = f();
        let end_ns = self.now_ns();
        let span = Span {
            layer,
            id,
            start_ns,
            end_ns,
        };
        self.spans.push(span);
        (value, span)
    }

    /// Records a `layer` span for `id` from `start_ns` to now, for a span
    /// that encloses others recorded on this log.
    pub fn close(&mut self, layer: Layer, id: u64, start_ns: u64) -> Span {
        let span = Span {
            layer,
            id,
            start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.push(span);
        span
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves every span of `other` into this log.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Most spans a trace file holds; a longer phase keeps its earliest spans,
/// which bounds the file at about 20 MB.
pub const SPAN_FILE_LIMIT: usize = 500_000;

/// Writes the earliest [`SPAN_FILE_LIMIT`] of `spans` as CSV
/// (`layer,id,start_ns,end_ns`, ordered by start).
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut ordered = spans.to_vec();
    ordered.sort_by_key(|s| (s.start_ns, s.end_ns));
    ordered.truncate(SPAN_FILE_LIMIT);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "layer,id,start_ns,end_ns")?;
    for s in &ordered {
        writeln!(
            out,
            "{},{},{},{}",
            s.layer.label(),
            s.id,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Batch-major staging buffers filled exactly as `ReplicaStage::run_batch`
/// fills its own, for the paths that time the copy apart from inference.
#[derive(Debug)]
pub struct Staging {
    cols: usize,
    /// `[batch * cols]` dense features.
    pub dense: Vec<f32>,
    /// `[batch][tables]` index lists, inner buffers reused.
    pub sparse: Vec<Vec<Vec<u32>>>,
    /// One output slot per sample.
    pub out: Vec<f32>,
}

impl Staging {
    /// Buffers for up to `max_batch` samples of a `cols`-wide,
    /// `tables`-table model.
    pub fn new(cols: usize, tables: usize, max_batch: usize) -> Self {
        Staging {
            cols,
            dense: vec![0.0; max_batch * cols],
            sparse: (0..max_batch).map(|_| vec![Vec::new(); tables]).collect(),
            out: vec![0.0; max_batch],
        }
    }

    /// Copies the requests behind `indices` into the buffers.
    pub fn fill(&mut self, requests: &[InferenceRequest], indices: impl Iterator<Item = usize>) {
        for (slot, index) in indices.enumerate() {
            let request = &requests[index];
            self.dense[slot * self.cols..(slot + 1) * self.cols].copy_from_slice(&request.dense);
            for (staged, list) in self.sparse[slot].iter_mut().zip(&request.sparse) {
                staged.clear();
                staged.extend_from_slice(list);
            }
        }
    }
}

/// Seconds spent in each layer of one [`LayerPath::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// EB-Streamer gather-reduce.
    pub gather_s: f64,
    /// Bottom MLP.
    pub bottom_s: f64,
    /// Feature interaction.
    pub interaction_s: f64,
    /// Top MLP and sigmoid.
    pub top_s: f64,
}

impl LayerTimes {
    /// Dense-complex time: bottom MLP + interaction + top MLP.
    pub fn dense_s(&self) -> f64 {
        self.bottom_s + self.interaction_s + self.top_s
    }

    /// Every layer's time.
    pub fn total_s(&self) -> f64 {
        self.gather_s + self.dense_s()
    }
}

/// The runtime's batched datapath, one public layer call at a time.
#[derive(Debug)]
pub struct LayerPath {
    streamer: EbStreamer,
    backend: KernelBackend,
    interaction: FeatureInteraction,
    ws: Workspace,
    reduced: Vec<f32>,
    features: Vec<f32>,
    interact: Vec<f32>,
    tables: usize,
    dim: usize,
}

impl LayerPath {
    /// A path mirroring `runtime`'s model shape and resolved backends.
    ///
    /// # Errors
    ///
    /// When the model shape admits no feature interaction.
    pub fn new(runtime: &CentaurRuntime) -> Result<Self, CentaurError> {
        let config = runtime.model().config();
        let (tables, dim) = (config.num_tables, config.embedding_dim);
        let mut streamer = EbStreamer::new(CentaurConfig::harpv2().link);
        streamer.set_sparse_backend(runtime.sparse_backend());
        let interaction = FeatureInteraction::new(tables + 1, dim)?;
        let max = BATCH_WAVE_SAMPLES;
        Ok(LayerPath {
            streamer,
            backend: runtime.backend(),
            ws: Workspace::new(),
            reduced: vec![0.0; max * tables * dim],
            features: vec![0.0; max * (tables + 1) * dim],
            interact: vec![0.0; max * interaction.output_dim()],
            interaction,
            tables,
            dim,
        })
    }

    /// Floating-point operations of the dense complex on an `n`-sample
    /// batch of `model` (both MLPs plus the interaction dot products).
    pub fn dense_flops(&self, model: &DlrmModel, n: usize) -> u64 {
        model.bottom_mlp().flops(n) + model.top_mlp().flops(n) + self.interaction.flops() * n as u64
    }

    /// Runs one batch of at most one wave ([`BATCH_WAVE_SAMPLES`]) through
    /// gather → bottom MLP → interaction → top MLP + sigmoid, recording one
    /// span per layer under `id`, and writes one probability per sample.
    ///
    /// # Errors
    ///
    /// Any datapath error, or a batch larger than one wave.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        model: &DlrmModel,
        dense_rows: &[f32],
        cols: usize,
        batch_indices: &[Vec<Vec<u32>>],
        out: &mut [f32],
    ) -> Result<LayerTimes, CentaurError> {
        let n = batch_indices.len();
        if n > BATCH_WAVE_SAMPLES || out.len() != n {
            return Err(DlrmError::BatchMismatch {
                what: "layer path batch vs one wave",
                left: n,
                right: BATCH_WAVE_SAMPLES.min(out.len()),
            }
            .into());
        }
        let (tables, dim) = (self.tables, self.dim);
        let reduced_stride = tables * dim;
        let feature_stride = (tables + 1) * dim;
        let width = self.interaction.output_dim();
        let LayerPath {
            streamer,
            backend,
            interaction,
            ws,
            reduced,
            features,
            interact,
            ..
        } = self;
        let reduced = &mut reduced[..n * reduced_stride];
        let features = &mut features[..n * feature_stride];
        let interact = &mut interact[..n * width];

        let (gathered, gather_s) = tracer.time(Layer::Gather, id, || {
            streamer.gather_reduce_batch_into(
                model.embeddings(),
                batch_indices,
                reduced,
                reduced_stride,
                0,
            )
        });
        gathered?;
        let gather_s = gather_s.secs();

        let (bottom, bottom_s) = tracer.time(Layer::Bottom, id, || {
            let (rows, out_cols) = model
                .bottom_mlp()
                .forward_batch_ws(*backend, dense_rows, n, cols, ws)?;
            if out_cols != dim {
                return Err(DlrmError::ShapeMismatch {
                    op: "bottom MLP output vs embedding dim",
                    lhs: (n, dim),
                    rhs: (n, out_cols),
                });
            }
            for (src, dst) in rows
                .chunks_exact(dim)
                .zip(features.chunks_exact_mut(feature_stride))
            {
                dst[..dim].copy_from_slice(src);
            }
            Ok(())
        });
        bottom?;
        let bottom_s = bottom_s.secs();

        let ((), interaction_s) = tracer.time(Layer::Interaction, id, || {
            for (src, dst) in reduced
                .chunks_exact(reduced_stride)
                .zip(features.chunks_exact_mut(feature_stride))
            {
                dst[dim..].copy_from_slice(src);
            }
            interaction.interact_batch_into(features, n, interact);
        });

        let (top, top_s) = tracer.time(Layer::Top, id, || {
            let (logits, top_cols) = model
                .top_mlp()
                .forward_batch_ws(*backend, interact, n, width, ws)?;
            if top_cols == 1 {
                sigmoid_into(&logits[..n], out);
            } else {
                for (o, row) in out.iter_mut().zip(logits.chunks_exact(top_cols)) {
                    *o = centaur_dlrm::tensor::sigmoid_scalar(row[0]);
                }
            }
            Ok::<(), DlrmError>(())
        });
        top?;
        let top_s = top_s.secs();
        let interaction_s = interaction_s.secs();

        Ok(LayerTimes {
            gather_s,
            bottom_s,
            interaction_s,
            top_s,
        })
    }
}
