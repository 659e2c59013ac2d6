//! # centaur-serve
//!
//! The serving layer of the Centaur reproduction: what turns the
//! closed-loop batch kernels of the lower crates into an **at-load serving
//! system** — the scenario the paper motivates (user-facing recommendation
//! queries under firm tail-latency targets) and that RecNMP/MicroRec-style
//! evaluations report as p95/p99 versus offered QPS.
//!
//! The moving parts:
//!
//! * [`BatchPolicy`] — batch-1 FIFO (the un-batched baseline), dynamic
//!   batching (coalesce until `max_batch` fills or `max_wait` expires), or
//!   deadline-aware dynamic batching (additionally dispatch partial when
//!   the oldest held request's SLO slack runs out);
//! * [`ArrivalQueue`] — the shared arrival queue between the open-loop load
//!   generator and the replica workers, with an optional admission gate
//!   (bounded depth, shed at enqueue) and dequeue shedding of already-dead
//!   requests, both configured through [`AdmissionConfig`] /
//!   [`ServeOptions`] and always counted — never silent;
//! * [`ReplicaStage`] — per-replica staging buffers that copy a coalesced
//!   batch into batch-major form and run the accelerator's batched path,
//!   zero heap allocations in steady state;
//! * [`Supervision`] / [`FaultPlan`] — crash-tolerant serving: a
//!   supervised replica pool recovers a crashed worker's in-flight batch
//!   (requeued with its original arrival stamps against a bounded retry
//!   budget), restarts the replica up to a pool-wide budget, and lets
//!   survivors absorb the load; deterministic seeded fault plans inject
//!   crash/stall/transient events so availability under faults is
//!   measurable and reproducible;
//! * [`serve_replay_with`] — replays a seeded
//!   [`QueryStream`](centaur_workload::QueryStream) against a pool of
//!   [`CentaurRuntime`](centaur::CentaurRuntime) replica shards (one worker
//!   thread each), recording per-request end-to-end latency against
//!   *scheduled* arrivals (open-loop); [`serve_replay_faulted`] adds
//!   seeded fault injection, and both run on the same pool runner as the
//!   shared multi-tenant pool of [`run_mix_cell`];
//! * [`run_serve_cell`] / [`calibrate_fifo_capacity_qps`] — one sweep cell
//!   (offered QPS × traffic shape × policy × replicas → [`ServeReport`],
//!   now with goodput-under-SLO and shed counts) and the saturation-anchor
//!   measurement the sweeps place their loads around.
//!
//! ```no_run
//! use centaur::{CentaurConfig, CentaurRuntime};
//! use centaur_dlrm::{DlrmModel, PaperModel};
//! use centaur_serve::{generate_requests, serve_replay_with, BatchPolicy, ServeOptions};
//! use centaur_workload::{ArrivalProcess, IndexDistribution, QueryStream};
//!
//! let config = PaperModel::Dlrm1.config().with_rows_per_table(4096);
//! let model = DlrmModel::random(&config, 1).unwrap();
//! let requests = generate_requests(&config, IndexDistribution::Uniform, 1, 1000);
//! let stream = QueryStream::generate(ArrivalProcess::Poisson { rate_qps: 50_000.0 }, 1000, 2);
//! let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
//! let policy = BatchPolicy::dynamic_wave();
//! let outcome =
//!     serve_replay_with(pool, &requests, &stream, policy, ServeOptions::default()).unwrap();
//! println!(
//!     "p99 {:.2} ms at {:.0} qps",
//!     outcome.latency_summary().unwrap().p99_s * 1e3,
//!     outcome.achieved_qps()
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod env;
pub mod fault;
pub mod harness;
pub mod mix;
pub mod policy;
pub mod queue;
pub mod server;
pub mod stage;
pub mod supervisor;

pub use env::{
    parse_serve_fault_plan, parse_serve_hedge_ms, parse_serve_mix, parse_serve_mix_slo_ms,
    parse_serve_quarantine_backoff_ms, parse_serve_quarantine_strikes, parse_serve_queue_depth,
    parse_serve_restart_budget, parse_serve_retry_limit, parse_serve_slo_ms, serve_fault_plan,
    serve_hedge_ms, serve_mix, serve_mix_slo_ms, serve_quarantine_backoff_ms,
    serve_quarantine_strikes, serve_queue_depth, serve_restart_budget, serve_retry_limit,
    serve_slo_ms, DEFAULT_SERVE_QUARANTINE_BACKOFF_MS, DEFAULT_SERVE_QUARANTINE_STRIKES,
    DEFAULT_SERVE_RESTART_BUDGET, DEFAULT_SERVE_RETRY_LIMIT, DEFAULT_SERVE_SLO_MS,
    SERVE_FAULT_PLAN_VALUES, SERVE_HEDGE_MS_VALUES, SERVE_MIX_SLO_MS_VALUES, SERVE_MIX_VALUES,
    SERVE_QUARANTINE_BACKOFF_MS_VALUES, SERVE_QUARANTINE_STRIKES_VALUES, SERVE_QUEUE_DEPTH_VALUES,
    SERVE_RESTART_BUDGET_VALUES, SERVE_RETRY_LIMIT_VALUES, SERVE_SLO_MS_VALUES,
};
pub use fault::{FaultEvent, FaultGuard, FaultKind, FaultPlan, FaultSpec};
pub use harness::{
    calibrate_fifo_capacity_qps, generate_requests, run_serve_cell, serve_replay_faulted,
    serve_replay_with, Completion, HedgeConfig, ServeCell, ServeOptions, ServeOutcome, ServeReport,
};
pub use mix::{run_mix_cell, MixServer, PoolMode, TenantSpec};
pub use policy::{relative_sample_cost, scaled_service_estimate, BatchPolicy};
pub use queue::{AdmissionConfig, ArrivalQueue, DequeueOrder, QueuedRequest};
pub use server::{BatchServer, SoloServer};
pub use stage::ReplicaStage;
pub use supervisor::{requeue_or_fail, HealthBoard, InFlightSlot, ReplicaHealth, Supervision};
