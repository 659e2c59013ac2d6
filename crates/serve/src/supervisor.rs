//! The replica supervisor: crash-tolerant serving on top of the arrival
//! queue's in-flight accounting.
//!
//! Every pool runs the same worker loop. Without supervision the pool is
//! fail-stop: it has no budgets, and the first replica panic or datapath
//! error aborts the whole replay. Supervision replaces that all-or-nothing
//! contract with the production one — node loss is routine, the pool
//! degrades gracefully:
//!
//! * every batch a worker holds is **published** to an [`InFlightSlot`]
//!   before it runs, so when the worker panics the supervisor recovers the
//!   exact requests that went down with it;
//! * recovered (and datapath-failed) requests are **requeued with their
//!   original arrival stamps** against a bounded per-request retry budget —
//!   exhausted budgets surface as [`RejectReason::Failed`] rejections,
//!   never silently;
//! * the crashed replica is **restarted** from a fresh shard clone, counted
//!   against a pool-wide restart budget; a replica beyond the budget stays
//!   dead and its siblings absorb the load through the existing
//!   admission/deadline machinery;
//! * only unrecoverable states abort: when the **last** live replica dies,
//!   the run aborts with the *first* crash's original panic payload
//!   preserved, exactly like the fail-stop path.
//!
//! The accounting invariant this module exists to uphold: every request the
//! queue ever accepted ends in exactly one of completed / shed / failed.

use crate::fault::FaultGuard;
use crate::harness::Completion;
use crate::policy::BatchPolicy;
use crate::queue::{ArrivalQueue, QueuedRequest};
use crate::server::BatchServer;
use centaur::CentaurError;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How often a quarantined worker re-checks its re-admission probe (and
/// whether the replay is still running).
const QUARANTINE_PROBE_TICK: Duration = Duration::from_micros(500);

/// Clean batches a replica on probation must serve to return to
/// [`ReplicaHealth::Healthy`].
const PROBATION_CLEAN_BATCHES: u32 = 2;

/// Fault-tolerance budgets for a supervised replica pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervision {
    /// Times one request may be re-served after a replica crash or
    /// datapath error before it is failed ([`RejectReason::Failed`]).
    ///
    /// [`RejectReason::Failed`]: centaur_dlrm::RejectReason::Failed
    pub retry_limit: u32,
    /// Replica restarts the pool may spend across the whole run. A crash
    /// beyond this budget leaves the replica dead; when the *last* replica
    /// dies the run aborts with the first crash's panic payload.
    pub restart_budget: usize,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            retry_limit: 2,
            restart_budget: 2,
        }
    }
}

impl Supervision {
    /// Supervision with the given budgets.
    pub fn new(retry_limit: u32, restart_budget: usize) -> Self {
        Supervision {
            retry_limit,
            restart_budget,
        }
    }
}

/// What one worker currently holds: the published batch, when it was
/// dispatched (seconds on the replay clock), and whether the watchdog has
/// already hedged this dispatch.
#[derive(Debug)]
struct SlotState {
    batch: Vec<QueuedRequest>,
    dispatched_s: f64,
    hedged: bool,
}

/// The crash-recovery and watchdog handoff slot: a worker publishes each
/// batch here *before* running it — stamped with its dispatch time — so
/// the supervisor can recover exactly the requests that were in flight when
/// the worker panicked, and the watchdog monitor can detect a dispatch held
/// past its overdue timeout and hedge its riders to a healthy sibling.
/// Publish/clear reuse one pre-reserved buffer — the fault-free steady
/// state allocates nothing.
#[derive(Debug)]
pub struct InFlightSlot {
    slot: Mutex<SlotState>,
}

impl InFlightSlot {
    /// An empty slot pre-reserved for batches up to `capacity`.
    pub fn new(capacity: usize) -> Self {
        InFlightSlot {
            slot: Mutex::new(SlotState {
                batch: Vec::with_capacity(capacity),
                dispatched_s: 0.0,
                hedged: false,
            }),
        }
    }

    /// Records `batch` as the worker's current in-flight work, dispatched
    /// at `now_s` on the replay clock.
    pub fn publish(&self, batch: &[QueuedRequest], now_s: f64) {
        let mut slot = self.slot.lock().expect("in-flight slot poisoned");
        slot.batch.clear();
        slot.batch.extend_from_slice(batch);
        slot.dispatched_s = now_s;
        slot.hedged = false;
    }

    /// Marks the current batch fully accounted (served/requeued/failed) and
    /// returns whether the watchdog hedged it while it ran. The worker must
    /// clear **before** resolving the batch against the queue: clearing
    /// makes the monitor blind to this dispatch, so the returned flag is the
    /// final word on whether a hedge raced (or is about to race) the batch.
    pub fn clear(&self) -> bool {
        let mut slot = self.slot.lock().expect("in-flight slot poisoned");
        slot.batch.clear();
        std::mem::take(&mut slot.hedged)
    }

    /// Takes whatever was in flight plus its hedged flag — the
    /// crash-recovery path. The slot mutex is never poisoned by a worker
    /// panic: workers only hold the lock inside
    /// [`publish`](Self::publish)/[`clear`](Self::clear), which cannot
    /// unwind mid-critical-section.
    pub fn recover(&self) -> (Vec<QueuedRequest>, bool) {
        let mut slot = self.slot.lock().expect("in-flight slot poisoned");
        let batch = std::mem::take(&mut slot.batch);
        let hedged = std::mem::take(&mut slot.hedged);
        (batch, hedged)
    }

    /// Watchdog probe: the current dispatch's stamp and hedged flag, or
    /// `None` while the worker holds nothing.
    pub fn probe(&self) -> Option<(f64, bool)> {
        let slot = self.slot.lock().expect("in-flight slot poisoned");
        if slot.batch.is_empty() {
            None
        } else {
            Some((slot.dispatched_s, slot.hedged))
        }
    }

    /// Claims the current dispatch for hedging when it is overdue at
    /// `now_s` (held longer than `timeout_s`) and not already hedged:
    /// marks it hedged and copies its riders into `out` (cleared first).
    /// Returns `false` — with `out` cleared — when the slot is idle, the
    /// dispatch is on time, or it was already hedged. The occupancy and
    /// age re-check under the slot lock means a dispatch that completed
    /// (or changed) since the caller's probe is never claimed.
    pub fn overdue_riders(&self, now_s: f64, timeout_s: f64, out: &mut Vec<QueuedRequest>) -> bool {
        out.clear();
        let mut slot = self.slot.lock().expect("in-flight slot poisoned");
        if slot.batch.is_empty() || slot.hedged || now_s - slot.dispatched_s <= timeout_s {
            return false;
        }
        slot.hedged = true;
        out.extend_from_slice(&slot.batch);
        true
    }
}

/// Routes one failed serve attempt: requeue for another try while the
/// request has retry budget left (original arrival stamp preserved —
/// [`QueuedRequest::retry`] bumps only the count), otherwise fail it
/// permanently with a counted [`RejectReason::Failed`] rejection. `hedged`
/// carries the in-flight slot's flag so a hedged sibling's result is never
/// double-counted (see [`ArrivalQueue::fail`]).
///
/// [`RejectReason::Failed`]: centaur_dlrm::RejectReason::Failed
pub fn requeue_or_fail(
    queue: &ArrivalQueue,
    request: QueuedRequest,
    retry_limit: u32,
    hedged: bool,
) {
    if request.retries < retry_limit {
        queue.requeue(request.retry());
    } else {
        queue.fail(request, hedged);
    }
}

/// Per-replica health classification driving quarantine decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Serving normally.
    Healthy,
    /// Recently struck (overdue dispatch, transient, or over-timeout
    /// service) or freshly re-admitted from quarantine: still serving, but
    /// strikes now escalate to quarantine, and it takes consecutive clean
    /// batches to return to [`Healthy`](Self::Healthy).
    Probation,
    /// Pulled from rotation: the replica stops pulling work until its
    /// exponential-backoff probe delay expires, then re-admits on
    /// probation. Distinct from the crash restart budget — a quarantined
    /// replica is alive, just distrusted.
    Quarantined,
}

/// One replica's health ledger.
#[derive(Debug)]
struct HealthState {
    state: ReplicaHealth,
    strikes: u32,
    clean: u32,
    quarantined_until_s: f64,
    backoff_s: f64,
    quarantines: usize,
    readmissions: usize,
}

/// Pool-wide replica health scoring: per-replica strike counts (overdue
/// dispatches, transients, over-timeout services) feed a
/// [`ReplicaHealth`] state machine (Healthy → Probation → Quarantined).
/// Workers consult [`may_pull`](Self::may_pull) before taking work;
/// quarantined replicas re-admit via exponential-backoff probes. All state
/// is per-replica behind its own mutex — scoring never contends with the
/// arrival queue's lock.
#[derive(Debug)]
pub struct HealthBoard {
    replicas: Vec<Mutex<HealthState>>,
    timeout_s: f64,
    strike_limit: u32,
    base_backoff_s: f64,
}

impl HealthBoard {
    /// A board for `replicas` workers: a batch held or served past
    /// `timeout_s` is a strike, `strike_limit` strikes quarantine the
    /// replica, and quarantine backoff starts at `backoff` (doubling on
    /// each re-quarantine, reset when the replica earns `Healthy` back).
    pub fn new(replicas: usize, timeout_s: f64, strike_limit: u32, backoff: Duration) -> Self {
        HealthBoard {
            replicas: (0..replicas)
                .map(|_| {
                    Mutex::new(HealthState {
                        state: ReplicaHealth::Healthy,
                        strikes: 0,
                        clean: 0,
                        quarantined_until_s: 0.0,
                        backoff_s: backoff.as_secs_f64(),
                        quarantines: 0,
                        readmissions: 0,
                    })
                })
                .collect(),
            timeout_s,
            strike_limit: strike_limit.max(1),
            base_backoff_s: backoff.as_secs_f64(),
        }
    }

    /// A board that never strikes or quarantines — for pools that run the
    /// supervised loop without a watchdog (hedging disabled).
    pub fn disabled(replicas: usize) -> Self {
        HealthBoard::new(replicas, f64::INFINITY, u32::MAX, Duration::from_secs(1))
    }

    /// Records one served batch: counts a strike when service exceeded the
    /// timeout, and otherwise credits a clean batch (probation works back to
    /// healthy after [`PROBATION_CLEAN_BATCHES`] of them; healthy replicas
    /// decay one strike per clean batch).
    pub fn record_service(&self, replica: usize, service_s: f64, now_s: f64) {
        let mut s = self.replicas[replica].lock().expect("health poisoned");
        if service_s > self.timeout_s {
            self.strike(&mut s, now_s);
            return;
        }
        match s.state {
            ReplicaHealth::Healthy => s.strikes = s.strikes.saturating_sub(1),
            ReplicaHealth::Probation => {
                s.clean += 1;
                if s.clean >= PROBATION_CLEAN_BATCHES {
                    s.state = ReplicaHealth::Healthy;
                    s.strikes = 0;
                    s.clean = 0;
                    s.backoff_s = self.base_backoff_s;
                }
            }
            ReplicaHealth::Quarantined => {}
        }
    }

    /// Records a watchdog-detected overdue dispatch: one strike.
    pub fn record_overdue(&self, replica: usize, now_s: f64) {
        let mut s = self.replicas[replica].lock().expect("health poisoned");
        self.strike(&mut s, now_s);
    }

    /// Records a transient/datapath failure on the replica: one strike.
    pub fn record_transient(&self, replica: usize, now_s: f64) {
        let mut s = self.replicas[replica].lock().expect("health poisoned");
        self.strike(&mut s, now_s);
    }

    fn strike(&self, s: &mut HealthState, now_s: f64) {
        if s.state == ReplicaHealth::Quarantined {
            return;
        }
        s.strikes += 1;
        s.clean = 0;
        if s.state == ReplicaHealth::Healthy {
            s.state = ReplicaHealth::Probation;
        }
        if s.strikes >= self.strike_limit {
            s.state = ReplicaHealth::Quarantined;
            s.quarantined_until_s = now_s + s.backoff_s;
            s.backoff_s *= 2.0;
            s.quarantines += 1;
            s.strikes = 0;
        }
    }

    /// Whether the replica may pull work right now. A quarantined replica
    /// whose backoff expired re-admits here — onto probation, counted as a
    /// re-admission.
    pub fn may_pull(&self, replica: usize, now_s: f64) -> bool {
        let mut s = self.replicas[replica].lock().expect("health poisoned");
        match s.state {
            ReplicaHealth::Quarantined => {
                if now_s >= s.quarantined_until_s {
                    s.state = ReplicaHealth::Probation;
                    s.clean = 0;
                    s.readmissions += 1;
                    true
                } else {
                    false
                }
            }
            _ => true,
        }
    }

    /// The replica's current classification.
    pub fn health(&self, replica: usize) -> ReplicaHealth {
        self.replicas[replica]
            .lock()
            .expect("health poisoned")
            .state
    }

    /// Quarantine entries across the pool so far.
    pub fn quarantines(&self) -> usize {
        self.replicas
            .iter()
            .map(|s| s.lock().expect("health poisoned").quarantines)
            .sum()
    }

    /// Backoff-probe re-admissions across the pool so far.
    pub fn readmissions(&self) -> usize {
        self.replicas
            .iter()
            .map(|s| s.lock().expect("health poisoned").readmissions)
            .sum()
    }
}

/// The pool state shared by the runner, every replica worker, the watchdog
/// and the generators: recorded completions, pool-wide budgets, the abort
/// flag and the first failure of each kind. The runner assembles the
/// run's outcome from it, or re-raises the abort's cause.
pub(crate) struct SupervisorShared {
    /// Completions from every replica (pre-reserved to the request count so
    /// the recording path never allocates).
    pub completions: Mutex<Vec<Completion>>,
    /// Accelerator batches dispatched across the pool.
    pub batches: AtomicUsize,
    /// Restarts consumed from the pool-wide budget.
    pub restarts: AtomicUsize,
    /// Replicas still alive (dead = crashed beyond the restart budget).
    pub live: AtomicUsize,
    /// The first crash's original panic payload, preserved for
    /// `resume_unwind` should the run abort.
    pub payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Fail-stop only: the first stalled replica's diagnostic.
    pub stall: Mutex<Option<CentaurError>>,
    /// Fail-stop only: the first datapath error (injected transients
    /// included).
    pub error: Mutex<Option<CentaurError>>,
    /// Set once the run aborts; the generators poll it between arrivals.
    pub abort: AtomicBool,
}

impl SupervisorShared {
    pub fn new(replicas: usize, requests: usize) -> Self {
        SupervisorShared {
            completions: Mutex::new(Vec::with_capacity(requests)),
            batches: AtomicUsize::new(0),
            restarts: AtomicUsize::new(0),
            live: AtomicUsize::new(replicas),
            payload: Mutex::new(None),
            stall: Mutex::new(None),
            error: Mutex::new(None),
            abort: AtomicBool::new(false),
        }
    }

    /// Claims one restart from the pool-wide budget; `false` once spent.
    pub fn try_consume_restart(&self, budget: usize) -> bool {
        let mut used = self.restarts.load(Ordering::Relaxed);
        loop {
            if used >= budget {
                return false;
            }
            match self.restarts.compare_exchange(
                used,
                used + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => used = actual,
            }
        }
    }

    /// Records a replica death (preserving the first payload) and returns
    /// `true` when it was the last live replica — the unrecoverable state.
    pub fn replica_died(&self, payload: Box<dyn Any + Send>) -> bool {
        let mut slot = self.payload.lock().expect("payload slot poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
        drop(slot);
        self.live.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Aborts the run: flips the flag the generators poll and abort-closes
    /// the queue, so waiting workers return without draining and nobody is
    /// left waiting on a dead worker's in-flight batch.
    pub fn abort(&self, queue: &ArrivalQueue) {
        self.abort.store(true, Ordering::Relaxed);
        queue.close_abort();
    }

    /// Keeps `cause` in `slot` unless an earlier cause is already there,
    /// then aborts the run — the fail-stop answer to a datapath error or a
    /// stall.
    fn abort_with(
        &self,
        queue: &ArrivalQueue,
        slot: &Mutex<Option<CentaurError>>,
        cause: CentaurError,
    ) {
        slot.lock()
            .expect("failure slot poisoned")
            .get_or_insert(cause);
        self.abort(queue);
    }

    /// Records one served batch's completions, answered at `completed_s`, into
    /// the shared log (pre-reserved — no allocation) and counts the dispatch.
    /// `primary` is the mask [`ArrivalQueue::complete_batch`] produced:
    /// suppressed duplicates are discarded here, never recorded twice.
    fn record<S: BatchServer>(
        &self,
        server: &S,
        batch: &[QueuedRequest],
        probabilities: &[f32],
        primary: &[bool],
        completed_s: f64,
    ) {
        let mut completions = self.completions.lock().expect("completions poisoned");
        for ((queued, &probability), &keep) in batch.iter().zip(probabilities).zip(primary) {
            if !keep {
                continue;
            }
            completions.push(Completion {
                id: server.request_id(queued.index),
                arrival_s: queued.arrival_s,
                completed_s,
                probability,
            });
        }
        drop(completions);
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// The cause of an aborted run, in precedence order: a crash's panic
    /// payload is re-raised; otherwise a stall diagnostic outranks the
    /// secondary errors it caused downstream, and the first datapath error
    /// comes last.
    ///
    /// # Panics
    ///
    /// Re-raises the preserved panic payload.
    pub fn abort_cause(&self) -> CentaurError {
        let payload = self.payload.lock().expect("payload slot poisoned").take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
        let stall = self.stall.lock().expect("failure slot poisoned").take();
        let error = self.error.lock().expect("failure slot poisoned").take();
        match stall.or(error) {
            Some(cause) => cause,
            None => std::panic::resume_unwind(Box::new("serving run aborted without a cause")),
        }
    }
}

/// One replica worker: runs [`replica_loop`] under a panic guard.
/// Under `supervision`, a crash recovers the in-flight batch (requeued
/// against the retry budget), then restarts the replica with a fresh
/// `respawn()`-built backend while the pool-wide restart budget lasts; a
/// replica beyond the budget stays dead, and the death of the *last*
/// replica aborts the run. A fail-stop replica (`None`: no budgets) aborts
/// the run on its first crash, survivors included. Either way the first
/// payload is preserved for the runner to re-raise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn supervise_replica<S: BatchServer>(
    queue: &ArrivalQueue,
    mut server: S,
    respawn: &(dyn Fn() -> S + Sync),
    policy: BatchPolicy,
    start: Instant,
    supervision: Option<Supervision>,
    mut guard: FaultGuard,
    inflight: &InFlightSlot,
    health: &HealthBoard,
    shared: &SupervisorShared,
    replica: usize,
) {
    loop {
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            replica_loop(
                queue,
                &mut server,
                policy,
                start,
                supervision.map(|s| s.retry_limit),
                &mut guard,
                inflight,
                health,
                shared,
                replica,
            )
        }));
        let payload = match crashed {
            Ok(()) => return, // queue drained (or aborted); clean exit
            Err(payload) => payload,
        };
        if let Some(supervision) = supervision {
            // Crash recovery: the published batch went down with the
            // worker — requeue it (original arrival stamps) against the
            // retry budget.
            let (riders, hedged) = inflight.recover();
            for request in riders {
                requeue_or_fail(queue, request, supervision.retry_limit, hedged);
            }
            if shared.try_consume_restart(supervision.restart_budget) {
                // Fresh backend (shard clone + staging buffers): never
                // reuse state a panic unwound through.
                server = respawn();
                continue;
            }
        }
        // Fail-stop, or beyond the restart budget: this replica stays dead.
        // A supervised pool's survivors absorb the load, and only the last
        // death is unrecoverable; a fail-stop pool aborts on the first.
        if shared.replica_died(payload) || supervision.is_none() {
            shared.abort(queue);
        }
        return;
    }
}

/// One replica's serving loop: the replica's health gates every pull
/// (quarantined replicas park on backoff probes instead of taking work),
/// every batch is published in-flight — dispatch-stamped for the watchdog —
/// before anything can fail, and the fault guard is polled once per batch
/// (crash events panic here, inside the supervisor's catch). Completions
/// resolve through [`ArrivalQueue::complete_batch`] so a hedged sibling's
/// result is counted once and a straggler's duplicate answer is discarded.
///
/// With a `retry_limit`, injected transients and real datapath errors
/// strike the replica's health and requeue work against the retry budget
/// instead of killing the run, and a failing batch is re-served
/// request-by-request so one poison request cannot burn its co-riders'
/// budgets. Without one (fail-stop), the first such error aborts the run.
#[allow(clippy::too_many_arguments)]
fn replica_loop<S: BatchServer>(
    queue: &ArrivalQueue,
    server: &mut S,
    policy: BatchPolicy,
    start: Instant,
    retry_limit: Option<u32>,
    guard: &mut FaultGuard,
    inflight: &InFlightSlot,
    health: &HealthBoard,
    shared: &SupervisorShared,
    replica: usize,
) {
    let mut batch: Vec<QueuedRequest> = Vec::with_capacity(policy.max_batch());
    let mut probabilities: Vec<f32> = Vec::with_capacity(policy.max_batch());
    let mut primary: Vec<bool> = Vec::with_capacity(policy.max_batch());
    loop {
        // Quarantine gate: a distrusted replica stops pulling work until
        // its backoff probe expires (or the replay ends around it).
        while !health.may_pull(replica, start.elapsed().as_secs_f64()) {
            if queue.is_aborted() || queue.is_finished() {
                return;
            }
            std::thread::sleep(QUARANTINE_PROBE_TICK);
        }
        if !queue.pop_batch(policy, &mut batch) {
            return;
        }
        let dispatched_s = start.elapsed().as_secs_f64();
        inflight.publish(&batch, dispatched_s);
        let (error, injected) = match guard.intercept(replica, dispatched_s) {
            Err(error) => (error, true),
            Ok(()) => match server.serve_batch(&batch, &mut probabilities) {
                Err(error) => (error, false),
                Ok(()) => {
                    let served_s = start.elapsed().as_secs_f64();
                    guard.apply_degradation(Duration::from_secs_f64(served_s - dispatched_s));
                    let hedged = inflight.clear();
                    let completed_s = start.elapsed().as_secs_f64();
                    queue.complete_batch(&batch, hedged, &mut primary);
                    shared.record(&*server, &batch, &probabilities, &primary, completed_s);
                    health.record_service(replica, completed_s - dispatched_s, completed_s);
                    continue;
                }
            },
        };
        // The attempt failed without a crash.
        let hedged = inflight.clear();
        let Some(retry_limit) = retry_limit else {
            shared.abort_with(queue, &shared.error, error);
            return;
        };
        health.record_transient(replica, start.elapsed().as_secs_f64());
        if injected || batch.len() == 1 {
            // An injected transient failed the whole attempt (or the batch
            // is one request): retry or fail each rider.
            for &request in &batch {
                requeue_or_fail(queue, request, retry_limit, hedged);
            }
            continue;
        }
        // Poison isolation: one bad request failed the whole batch.
        // Re-serve request-by-request so the innocent co-riders complete
        // now and only the poison burns its retry budget.
        for &request in &batch {
            let single = std::slice::from_ref(&request);
            match server.serve_batch(single, &mut probabilities) {
                Ok(()) => {
                    let completed_s = start.elapsed().as_secs_f64();
                    queue.complete_batch(single, hedged, &mut primary);
                    shared.record(&*server, single, &probabilities, &primary, completed_s);
                }
                Err(_) => requeue_or_fail(queue, request, retry_limit, hedged),
            }
        }
    }
}

/// What the watchdog does about a dispatch held past its timeout.
#[derive(Clone, Copy)]
pub(crate) enum Overdue<'a> {
    /// Supervised pools: strike the straggler's health and, once per
    /// dispatch, clone its riders back into the queue so a healthy sibling
    /// races the stall.
    Hedge(&'a HealthBoard),
    /// Fail-stop pools: record a [`CentaurError::ReplicaStalled`]
    /// diagnostic naming the straggler and abort the run — a prompt error,
    /// not a hang until the generator closes the queue. The stalled worker
    /// is left to wake and observe the abort.
    Abort(&'a SupervisorShared),
}

/// The stall watchdog: polls every replica's [`InFlightSlot`] on a tick a
/// quarter of the timeout and acts per `action` when a published batch's
/// age crosses `timeout_s`. Ages are measured per *dispatch* (escalating
/// multiples of the timeout), so one long stall strikes repeatedly while a
/// busy-but-healthy replica is left alone. All bookkeeping is preallocated
/// before the loop: a fault-free replay runs this monitor allocation-free.
pub(crate) fn watchdog_monitor(
    queue: &ArrivalQueue,
    slots: &[InFlightSlot],
    action: Overdue<'_>,
    timeout_s: f64,
    max_batch: usize,
    start: Instant,
) {
    let tick = Duration::from_secs_f64((timeout_s / 4.0).clamp(100e-6, 50e-3));
    // Per replica: the dispatch stamp last seen and how many times that
    // same dispatch has already been struck.
    let mut book: Vec<(f64, u32)> = vec![(f64::NAN, 0); slots.len()];
    let mut riders: Vec<QueuedRequest> = Vec::with_capacity(max_batch);
    while !queue.is_aborted() && !queue.is_finished() {
        std::thread::sleep(tick);
        let now_s = start.elapsed().as_secs_f64();
        for (replica, slot) in slots.iter().enumerate() {
            let Some((dispatched_s, hedged)) = slot.probe() else {
                book[replica] = (f64::NAN, 0);
                continue;
            };
            if book[replica].0 != dispatched_s {
                book[replica] = (dispatched_s, 0);
            }
            let strikes = book[replica].1;
            if now_s - dispatched_s <= timeout_s * (strikes + 1) as f64 {
                continue;
            }
            book[replica].1 = strikes + 1;
            match action {
                Overdue::Abort(shared) => {
                    let held_ms = ((now_s - dispatched_s) * 1e3) as u64;
                    let stall = CentaurError::ReplicaStalled { replica, held_ms };
                    shared.abort_with(queue, &shared.stall, stall);
                    return;
                }
                Overdue::Hedge(health) => {
                    health.record_overdue(replica, now_s);
                    if !hedged && slot.overdue_riders(now_s, timeout_s, &mut riders) {
                        for &rider in riders.iter() {
                            queue.hedge(rider);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_slot_publishes_and_recovers_the_exact_batch() {
        let slot = InFlightSlot::new(4);
        let batch = [
            QueuedRequest::new(3, 0.001),
            QueuedRequest::new(4, 0.002).retry(),
        ];
        slot.publish(&batch, 0.01);
        let (recovered, hedged) = slot.recover();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].index, 3);
        assert_eq!(recovered[1].retries, 1, "retry metadata survives recovery");
        assert!(!hedged);
        assert!(slot.recover().0.is_empty(), "recovery drains the slot");
        slot.publish(&batch, 0.02);
        assert!(!slot.clear(), "unhedged dispatch clears without a flag");
        assert!(
            slot.recover().0.is_empty(),
            "cleared batches are not recovered"
        );
    }

    /// The watchdog handshake: an overdue dispatch is claimed exactly once,
    /// an on-time or already-hedged one never, and the worker's `clear`
    /// takes the hedged flag with it.
    #[test]
    fn overdue_riders_claims_an_overdue_dispatch_once() {
        let slot = InFlightSlot::new(4);
        let mut riders = Vec::new();
        assert!(
            !slot.overdue_riders(10.0, 0.001, &mut riders),
            "idle slot has nothing overdue"
        );
        let batch = [QueuedRequest::new(7, 0.0)];
        slot.publish(&batch, 1.0);
        assert!(
            !slot.overdue_riders(1.0005, 0.001, &mut riders),
            "on-time dispatch is not claimed"
        );
        assert!(slot.overdue_riders(1.5, 0.001, &mut riders));
        assert_eq!(riders.len(), 1);
        assert_eq!(riders[0].index, 7);
        assert!(
            !slot.overdue_riders(2.0, 0.001, &mut riders),
            "a dispatch is hedged at most once"
        );
        assert!(slot.clear(), "the worker learns its dispatch was hedged");
        slot.publish(&batch, 3.0);
        assert_eq!(
            slot.probe(),
            Some((3.0, false)),
            "fresh dispatch, fresh flag"
        );
    }

    #[test]
    fn requeue_or_fail_respects_the_retry_budget() {
        let queue = ArrivalQueue::new();
        let mut batch = Vec::new();
        // Budget 1: first failure requeues, second fails permanently.
        assert!(queue.push(QueuedRequest::new(0, 0.0)));
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        requeue_or_fail(&queue, batch[0], 1, false);
        assert_eq!(queue.depth(), 1, "first failure requeues");
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        assert_eq!(batch[0].retries, 1);
        requeue_or_fail(&queue, batch[0], 1, false);
        assert_eq!(queue.depth(), 0, "budget exhausted");
        assert_eq!(queue.failed(), 1);
        // Budget 0 fails immediately.
        assert!(queue.push(QueuedRequest::new(1, 0.0)));
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        requeue_or_fail(&queue, batch[0], 0, false);
        assert_eq!(queue.failed(), 2);
    }

    /// Walks one replica through the whole health state machine: strikes to
    /// probation, probation to quarantine, backoff re-admission, clean
    /// batches back to healthy — with the backoff doubling on a
    /// re-quarantine and resetting on recovery.
    #[test]
    fn health_board_walks_probation_quarantine_and_backoff_readmission() {
        let board = HealthBoard::new(2, 0.010, 2, Duration::from_millis(40));
        assert_eq!(board.health(0), ReplicaHealth::Healthy);
        assert!(board.may_pull(0, 0.0));
        // First strike: probation, still pulling.
        board.record_overdue(0, 0.001);
        assert_eq!(board.health(0), ReplicaHealth::Probation);
        assert!(board.may_pull(0, 0.001));
        // Second strike hits the limit: quarantined, not pulling.
        board.record_transient(0, 0.002);
        assert_eq!(board.health(0), ReplicaHealth::Quarantined);
        assert_eq!(board.quarantines(), 1);
        assert!(!board.may_pull(0, 0.010), "backoff still running");
        // Backoff expiry re-admits onto probation.
        assert!(board.may_pull(0, 0.050), "probe re-admits after 40 ms");
        assert_eq!(board.readmissions(), 1);
        assert_eq!(board.health(0), ReplicaHealth::Probation);
        // A slow batch (service over the timeout) re-strikes straight back
        // to quarantine (probation needed 2 strikes, it had 0 after reset
        // ... one over-timeout service is one strike, second strikes it out).
        board.record_service(0, 0.020, 0.051);
        board.record_service(0, 0.020, 0.052);
        assert_eq!(board.health(0), ReplicaHealth::Quarantined);
        assert_eq!(board.quarantines(), 2);
        assert!(
            !board.may_pull(0, 0.100),
            "doubled backoff (80 ms) still running at +48 ms"
        );
        assert!(board.may_pull(0, 0.140), "doubled backoff expires");
        assert_eq!(board.readmissions(), 2);
        // Two clean batches earn healthy back and reset the backoff.
        board.record_service(0, 0.002, 0.141);
        board.record_service(0, 0.002, 0.142);
        assert_eq!(board.health(0), ReplicaHealth::Healthy);
        // The sibling replica was never touched.
        assert_eq!(board.health(1), ReplicaHealth::Healthy);
        assert_eq!(board.quarantines(), 2, "counts are per-pool sums");
    }

    #[test]
    fn disabled_health_board_never_quarantines() {
        let board = HealthBoard::disabled(1);
        for i in 0..100 {
            board.record_service(0, 1e9, i as f64);
        }
        assert_eq!(
            board.health(0),
            ReplicaHealth::Healthy,
            "an infinite timeout never registers a strike"
        );
        assert!(board.may_pull(0, 1.0));
        assert_eq!(board.quarantines(), 0);
    }

    #[test]
    fn restart_budget_is_pool_wide_and_exact() {
        let shared = SupervisorShared::new(2, 0);
        assert!(shared.try_consume_restart(2));
        assert!(shared.try_consume_restart(2));
        assert!(!shared.try_consume_restart(2), "budget of 2 allows 2");
        assert_eq!(shared.restarts.load(Ordering::Relaxed), 2);
        assert!(!SupervisorShared::new(1, 0).try_consume_restart(0));
    }

    #[test]
    fn last_replica_death_is_flagged_and_first_payload_kept() {
        let shared = SupervisorShared::new(2, 0);
        assert!(
            !shared.replica_died(Box::new("first crash")),
            "one of two deaths is survivable"
        );
        assert!(
            shared.replica_died(Box::new("second crash")),
            "last death is unrecoverable"
        );
        let payload = shared.payload.lock().unwrap().take().unwrap();
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("first crash"),
            "the first crash's payload is the one preserved"
        );
    }
}
