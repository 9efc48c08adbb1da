//! The unified event-driven scheduling kernel.
//!
//! One discrete-event loop drives every execution engine in the workspace:
//! the independent-task HeteroPrio ([`crate::heteroprio()`]), the online
//! release-dates variant ([`crate::online`]) and the DAG/fault simulator
//! (`heteroprio-simulator`). The kernel owns **time** (the completion, fault
//! and retry event heaps), **worker liveness**, and **trace emission**;
//! everything it does not own is injected through two traits:
//!
//! * a [`Workload`] answers "which tasks exist and when do they become
//!   ready" — all at time zero for independent tasks, at their release
//!   dates for the online variant, on predecessor completion for a DAG;
//! * a [`KernelPolicy`] answers "which task should this idle worker run"
//!   and "which running task should this idle worker spoliate" — the
//!   paper's Algorithm 1 queue discipline, or any pluggable policy.
//!
//! The split mirrors StarPU's core/scheduler separation (§2.1 of the paper):
//! the kernel enforces the protocol (a picked task must be ready, a
//! spoliation must cross resource classes and strictly improve the task's
//! completion time) and the frontends contribute only policy.
//!
//! # Determinism
//!
//! With [`FaultModel::none`] the kernel draws no random numbers and the
//! event stream is a pure function of the workload and policy; the zero
//! fault plan is byte-identical to a fault-free run. Stochastic execution
//! (jitter, task failures) uses a seeded RNG created only when a draw can
//! actually happen.
//!
//! # Durability
//!
//! Determinism is also the recovery story: because every state transition
//! is emitted as a trace event *before* its consequences are acted on, the
//! event stream is a write-ahead journal. [`run_durable`] injects crashes
//! ([`CrashPlan`](crate::durability::CrashPlan)) and captures periodic
//! [`KernelSnapshot`]s; [`resume`]
//! rebuilds a crashed run — from a snapshot plus the journal tail, or from
//! the journal alone — verifies the replay event-for-event against the
//! journal, and continues to completion. Policies participate through
//! [`SnapshotPolicy`].

use crate::durability::{schedule_from_events, DurabilityOptions, KernelSnapshot, ResumeError};
use crate::heteroprio::WorkerOrder;
use crate::model::{ClassId, Instance, Platform, TaskId, WorkerId};
use crate::schedule::{Schedule, TaskRun};
use crate::time::{strictly_less, F64Ord};
use heteroprio_metrics::{
    CounterId, GaugeId, HistogramId, MetricsRegistry, NullRegistry, ScopedTimer,
};
use heteroprio_trace::{Decision, QueueEnd, SchedEvent, TraceSink, TraceSummary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Names under which the kernel reports its metrics, for consumers that
/// read registry snapshots by name (the CLI's `--metrics` report, the perf
/// harness, tests).
pub mod metric {
    /// Heap events dispatched by the main loop (completions + failures).
    pub const EVENTS_TOTAL: &str = "kernel_events_total";
    /// Trace events pushed through the emission funnel. Cross-checked
    /// against `TraceSummary::events_recorded` to catch dropped events.
    pub const TRACE_EVENTS_TOTAL: &str = "kernel_trace_events_total";
    /// Tasks announced into the ready set (retries re-announce).
    pub const READY_PUSHES_TOTAL: &str = "kernel_ready_pushes_total";
    /// Successful policy picks out of the ready set.
    pub const READY_POPS_TOTAL: &str = "kernel_ready_pops_total";
    /// Successful spoliation aborts.
    pub const SPOLIATIONS_TOTAL: &str = "kernel_spoliations_total";
    /// Retry backoffs scheduled after failed attempts.
    pub const RETRIES_TOTAL: &str = "kernel_retries_total";
    /// Tasks completed.
    pub const TASKS_COMPLETED_TOTAL: &str = "kernel_tasks_completed_total";
    /// Current ready-set size (snapshot also carries `…_peak`).
    pub const READY_DEPTH: &str = "kernel_ready_depth";
    /// Current completion/failure event-heap size (snapshot also carries
    /// `…_peak`).
    pub const EVENT_HEAP_DEPTH: &str = "kernel_event_heap_depth";
    /// Latency of a single `KernelPolicy::pick` call, nanoseconds.
    pub const PICK_NS: &str = "kernel_pick_ns";
    /// Wall time of one assignment fixpoint, nanoseconds.
    pub const ASSIGN_NS: &str = "kernel_assign_ns";
    /// Wall time of the whole kernel run, nanoseconds.
    pub const RUN_NS: &str = "kernel_run_ns";
}

/// A task currently executing on some worker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunningTask {
    pub task: TaskId,
    pub start: f64,
    /// Expected completion time (estimate-based even under jitter: policies
    /// and spoliation decisions compare estimates, the heap carries reality).
    pub end: f64,
}

/// Retry policy for failed task attempts: capped exponential backoff with a
/// per-task attempt budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per task (first run included). When the
    /// `max_attempts`-th attempt fails the task is abandoned.
    pub max_attempts: u32,
    /// Backoff before retry `k` is `min(backoff_cap, backoff_base · 2^(k-1))`.
    pub backoff_base: f64,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: f64,
}

impl RetryPolicy {
    pub const DEFAULT: RetryPolicy =
        RetryPolicy { max_attempts: 3, backoff_base: 1.0, backoff_cap: 64.0 };

    /// Widest doubling [`RetryPolicy::delay_after`] ever computes. The
    /// shift must be capped *before* the multiplier is built: `1u64 << 64`
    /// is undefined (a panic in debug, a wrap in release), and past 2^63
    /// the `backoff_cap` min dominates anyway.
    pub const MAX_BACKOFF_SHIFT: u32 = 63;

    /// Backoff delay after the `failures`-th failed attempt (1-based).
    /// Total for any `failures`, including `u32::MAX`: the exponent
    /// saturates at [`RetryPolicy::MAX_BACKOFF_SHIFT`] and the result is
    /// clamped to `backoff_cap`.
    pub fn delay_after(&self, failures: u32) -> f64 {
        let exp = failures.saturating_sub(1).min(Self::MAX_BACKOFF_SHIFT);
        (self.backoff_base * (1u64 << exp) as f64).min(self.backoff_cap)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::DEFAULT
    }
}

/// One expanded point on the worker-fault timeline (sorted by time; see
/// `expand_timeline` in `heteroprio-simulator`, which produces these from a
/// `FaultPlan`).
#[derive(Clone, Copy, Debug)]
pub struct TimelineEvent {
    pub time: f64,
    pub worker: u32,
    /// `true` for a recovery, `false` for a failure.
    pub up: bool,
    pub permanent: bool,
}

/// Fault machinery configuration: the pre-expanded worker down/up timeline,
/// stochastic execution noise, and the retry policy.
#[derive(Clone, Debug)]
pub struct FaultModel {
    /// Worker failures/recoveries, sorted by time (failures before
    /// recoveries at equal instants).
    pub timeline: Vec<TimelineEvent>,
    /// Per-attempt probability that a task fails mid-run.
    pub task_failure_prob: f64,
    /// Multiplicative execution-time noise `j ≥ 0`: actual durations are
    /// drawn log-uniformly from `[estimate/(1+j), estimate·(1+j)]`.
    pub exec_jitter: f64,
    /// Seed for the failure/jitter draws.
    pub seed: u64,
    /// Retry policy for failed task attempts.
    pub retry: RetryPolicy,
}

impl FaultModel {
    /// The zero model: no faults, no noise, no random draws — the kernel is
    /// then byte-identical to a fault-free run.
    pub fn none() -> Self {
        FaultModel {
            timeline: Vec::new(),
            task_failure_prob: 0.0,
            exec_jitter: 0.0,
            seed: 0,
            retry: RetryPolicy::DEFAULT,
        }
    }
}

/// Structured failure of a kernel run. The simulator converts these into its
/// public `SimError`.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// A task exhausted its attempt budget; the run cannot complete.
    TaskAbandoned { task: u32, attempts: u32, time: f64 },
    /// Every worker is down with no recovery scheduled while tasks remain.
    AllWorkersDown { time: f64, remaining: usize },
    /// An injected [`CrashPlan`](crate::durability::CrashPlan) fired: the
    /// kernel "died" at simulated time `time` after emitting `events`
    /// trace events. Recovery continues via [`resume`].
    Crashed { time: f64, events: u64 },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::TaskAbandoned { task, attempts, time } => {
                write!(f, "task {task} abandoned after {attempts} attempts at t={time}")
            }
            EngineError::AllWorkersDown { time, remaining } => {
                write!(f, "all workers down at t={time} with {remaining} tasks remaining")
            }
            EngineError::Crashed { time, events } => {
                write!(f, "injected crash at t={time} after {events} events")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Kernel knobs that are engine-shape, not policy: whether the trace
/// carries `PolicyDecision` events (the DAG simulator's vocabulary; the
/// independent-task engines speak `QueuePop` instead), and where
/// performance metrics go. The registry defaults to [`NullRegistry`], whose
/// no-op recording monomorphizes the instrumentation away entirely — the
/// metrics-off kernel is pinned byte-identical to the pre-metrics one.
pub struct KernelOptions<'m, M: MetricsRegistry + ?Sized = NullRegistry> {
    pub emit_decisions: bool,
    pub metrics: &'m M,
}

impl Default for KernelOptions<'static, NullRegistry> {
    fn default() -> Self {
        KernelOptions { emit_decisions: false, metrics: &NullRegistry }
    }
}

// Manual impls: derives would demand `M: Clone/Copy/Debug`, but only a
// shared reference to `M` is held.
impl<M: MetricsRegistry + ?Sized> Clone for KernelOptions<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M: MetricsRegistry + ?Sized> Copy for KernelOptions<'_, M> {}

impl<M: MetricsRegistry + ?Sized> std::fmt::Debug for KernelOptions<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelOptions")
            .field("emit_decisions", &self.emit_decisions)
            .field("metrics_enabled", &self.metrics.is_enabled())
            .finish()
    }
}

/// Pre-registered handles for every kernel metric, resolved once per run so
/// the hot path records through copyable ids only.
struct Meter<'m, M: MetricsRegistry + ?Sized> {
    m: &'m M,
    events_total: CounterId,
    trace_events: CounterId,
    ready_pushes: CounterId,
    ready_pops: CounterId,
    spoliations: CounterId,
    retries: CounterId,
    tasks_completed: CounterId,
    ready_depth: GaugeId,
    heap_depth: GaugeId,
    pick_ns: HistogramId,
    assign_ns: HistogramId,
    run_ns: HistogramId,
}

impl<'m, M: MetricsRegistry + ?Sized> Meter<'m, M> {
    fn new(m: &'m M) -> Self {
        Meter {
            m,
            events_total: m.counter(metric::EVENTS_TOTAL),
            trace_events: m.counter(metric::TRACE_EVENTS_TOTAL),
            ready_pushes: m.counter(metric::READY_PUSHES_TOTAL),
            ready_pops: m.counter(metric::READY_POPS_TOTAL),
            spoliations: m.counter(metric::SPOLIATIONS_TOTAL),
            retries: m.counter(metric::RETRIES_TOTAL),
            tasks_completed: m.counter(metric::TASKS_COMPLETED_TOTAL),
            ready_depth: m.gauge(metric::READY_DEPTH),
            heap_depth: m.gauge(metric::EVENT_HEAP_DEPTH),
            pick_ns: m.histogram(metric::PICK_NS),
            assign_ns: m.histogram(metric::ASSIGN_NS),
            run_ns: m.histogram(metric::RUN_NS),
        }
    }
}

impl<M: MetricsRegistry + ?Sized> Clone for Meter<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M: MetricsRegistry + ?Sized> Copy for Meter<'_, M> {}

/// What the kernel hands back after a completed run.
#[derive(Clone, Debug)]
pub struct KernelOutcome {
    pub schedule: Schedule,
    /// `T_FirstIdle`: first instant at which a worker asked for work and got
    /// none (from the trace summary).
    pub first_idle: Option<f64>,
    /// Number of successful spoliations (from the trace summary).
    pub spoliations: usize,
    /// Per-worker time accounting aggregated from the emitted event stream;
    /// already finished.
    pub summary: TraceSummary,
}

/// Task availability source: the kernel asks it which tasks exist, which are
/// ready initially, which arrive over time, and what a task costs on a
/// resource class.
pub trait Workload {
    /// Total number of tasks; the run ends when this many completed.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tasks ready at time zero, in announcement order.
    fn initial(&mut self) -> Vec<TaskId>;

    /// Time of the next externally-scheduled arrival (release date), if any.
    /// Dependency releases are *not* arrivals — they flow through
    /// [`Workload::on_complete`].
    fn next_arrival(&self) -> Option<f64> {
        None
    }

    /// Consume every arrival due at or before `now`, in announcement order.
    fn arrivals_due(&mut self, now: f64) -> Vec<TaskId> {
        let _ = now;
        Vec::new()
    }

    /// Allocation-free variant of [`Workload::arrivals_due`]: append the
    /// due arrivals to `out` (handed over empty). The kernel's steady-state
    /// loop calls this with a pooled buffer; workloads with arrivals should
    /// override it to avoid a `Vec` per event, the default delegates.
    fn arrivals_due_into(&mut self, now: f64, out: &mut Vec<TaskId>) {
        out.extend(self.arrivals_due(now));
    }

    /// `task` completed; return the tasks this makes ready (dependency
    /// release for DAG workloads, empty otherwise).
    fn on_complete(&mut self, task: TaskId) -> Vec<TaskId> {
        let _ = task;
        Vec::new()
    }

    /// Allocation-free variant of [`Workload::on_complete`]: append the
    /// released tasks to `out` (handed over empty). Called once per
    /// completion on the hot path; workloads that release successors
    /// should override it, the default delegates.
    fn on_complete_into(&mut self, task: TaskId, out: &mut Vec<TaskId>) {
        out.extend(self.on_complete(task));
    }

    /// Duration the kernel charges for `task` on class `class`. `ran_kind`
    /// records the class each completed task ran on, so DAG workloads can
    /// charge cross-class transfer penalties.
    fn duration(&self, task: TaskId, class: ClassId, ran_kind: &[Option<ClassId>]) -> f64;

    /// The tasks being scheduled (per-class times and priorities).
    fn instance(&self) -> &Instance;
}

/// Read-only view of the kernel state handed to policy callbacks.
pub struct KernelContext<'a> {
    pub now: f64,
    pub platform: &'a Platform,
    /// The tasks being scheduled.
    pub instance: &'a Instance,
    /// Indexed by worker; `None` when the worker is idle.
    pub running: &'a [Option<RunningTask>],
    /// Resource class each completed task ran on (`None` if not finished).
    pub ran_kind: &'a [Option<ClassId>],
    /// Liveness per worker: `false` while a worker is down.
    pub alive: &'a [bool],
    workload: &'a dyn Workload,
}

impl KernelContext<'_> {
    /// Duration the kernel would charge for starting `task` on `class`
    /// now, transfer penalties included. The kernel's own
    /// strict-improvement check on spoliations uses the same function, so
    /// a policy's victim test should too.
    pub fn duration(&self, task: TaskId, class: impl Into<ClassId>) -> f64 {
        self.workload.duration(task, class.into(), self.ran_kind)
    }
}

/// A successful pick: the task to start, and — when the policy implements
/// the paper's double-ended queue — which end it came off, so the kernel
/// emits the `QueuePop` trace event the auditor's pop-order rule checks.
#[derive(Clone, Copy, Debug)]
pub struct Pick {
    pub task: TaskId,
    /// `Some(end)` emits `QueuePop`; `None` (generic policies) emits only
    /// the `PolicyDecision` when [`KernelOptions::emit_decisions`] is set.
    pub queue_end: Option<QueueEnd>,
}

/// A scheduling policy driven by the kernel.
///
/// Contract: a task announced via [`KernelPolicy::on_ready`] must eventually
/// be returned (exactly once) from [`KernelPolicy::pick`], unless the kernel
/// restarts it itself after a spoliation. The kernel asserts the protocol:
/// picked tasks must be ready, spoliations must cross resource classes,
/// target a busy worker, and strictly improve the task's completion time.
pub trait KernelPolicy {
    /// New tasks whose availability condition is satisfied.
    fn on_ready(&mut self, tasks: &[TaskId], ctx: &KernelContext<'_>);

    /// An idle worker asks for work. Returning `None` leaves it idle until
    /// the next event.
    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick>;

    /// An idle worker with no pick may spoliate a task running on the
    /// *other* resource class: return the victim worker.
    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<WorkerId> {
        let _ = (worker, ctx);
        None
    }

    /// Order in which simultaneously idle workers are served.
    fn worker_order(&self) -> WorkerOrder {
        WorkerOrder::GpusFirst
    }
}

/// A [`KernelPolicy`] that can be checkpointed and restored.
///
/// The only state a kernel policy may legally hold is a function of the
/// tasks announced to it (and the public kernel context), so a snapshot
/// needs just the ready set *in the policy's internal order* — restoring
/// is re-announcing that list. Policies whose queue position depends on
/// announcement order (insertion-ordered ties, FIFO sequence numbers)
/// are exact under this protocol precisely because the order is preserved.
pub trait SnapshotPolicy: KernelPolicy {
    /// Ready tasks in the policy's internal queue order (front first).
    fn ready_order(&self) -> Vec<TaskId>;

    /// Rebuild internal state from a snapshot's ready list. The default
    /// re-announces through [`KernelPolicy::on_ready`]; override only if
    /// the policy carries state that announcement cannot reconstruct.
    fn restore(&mut self, ready: &[TaskId], ctx: &KernelContext<'_>) {
        self.on_ready(ready, ctx);
    }
}

/// Lifecycle state of one task, exposed for
/// [`KernelSnapshot`] serialization.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    Pending,
    Ready,
    Running,
    /// Lost to a worker failure or waiting out a retry backoff; will be
    /// re-announced as ready.
    Waiting,
    Done,
}

/// Drive `policy` over `workload` on `platform` to completion.
///
/// Panics on policy protocol violations: picking a task that is not ready,
/// spoliating an idle worker or one of the same class, a spoliation that
/// does not strictly improve the task's completion time, or a deadlock
/// (work remains, nothing runs, and the policy schedules nothing).
pub fn run<W: Workload, P: KernelPolicy + ?Sized, S: TraceSink, M: MetricsRegistry + ?Sized>(
    platform: &Platform,
    workload: &mut W,
    policy: &mut P,
    faults: FaultModel,
    options: KernelOptions<'_, M>,
    sink: &mut S,
) -> Result<KernelOutcome, EngineError> {
    let mut kernel = Kernel::new(platform, workload.len(), faults, options, sink);
    kernel.run(workload, policy)?;
    Ok(finish_outcome(kernel))
}

fn finish_outcome<S: TraceSink, M: MetricsRegistry + ?Sized>(
    kernel: Kernel<'_, S, M>,
) -> KernelOutcome {
    let mut summary = kernel.summary;
    summary.finish();
    KernelOutcome {
        schedule: kernel.schedule,
        first_idle: summary.first_idle,
        spoliations: summary.spoliation_count,
        summary,
    }
}

/// [`run`] with the durability plane attached: an injected
/// [`CrashPlan`](crate::durability::CrashPlan) and an optional checkpoint
/// cadence. Checkpoints are captured at quiescent points (after the
/// assignment fixpoint) and saved best-effort — the journal, fed through
/// `sink`, remains the authoritative recovery source, so a failed save is
/// latched in the store rather than aborting the run.
pub fn run_durable<W, P, S, M>(
    platform: &Platform,
    workload: &mut W,
    policy: &mut P,
    faults: FaultModel,
    options: KernelOptions<'_, M>,
    durability: DurabilityOptions<'_>,
    sink: &mut S,
) -> Result<KernelOutcome, EngineError>
where
    W: Workload,
    P: SnapshotPolicy + ?Sized,
    S: TraceSink,
    M: MetricsRegistry + ?Sized,
{
    let mut kernel = Kernel::new(platform, workload.len(), faults, options, sink);
    kernel.crash_at = durability.crash.at_event;
    kernel.checkpoint_every = durability.checkpoint_every;
    let mut store = durability.store;
    kernel.run_inner(workload, policy, None, &mut |k, p, now| {
        if let Some(store) = store.as_deref_mut() {
            let _ = store.save(&k.snapshot_of(p, now));
        }
    })?;
    Ok(finish_outcome(kernel))
}

/// Verifies the resumed kernel's emissions against the journaled record
/// while forwarding everything to the real sink. The first disagreement is
/// latched (emission itself cannot fail mid-run); [`resume`] turns it into
/// a typed [`ResumeError::Divergence`] at the end.
struct VerifySink<'v, S: TraceSink> {
    inner: &'v mut S,
    expected: &'v [SchedEvent],
    pos: usize,
    mismatch: Option<(usize, SchedEvent)>,
}

impl<S: TraceSink> TraceSink for VerifySink<'_, S> {
    fn emit(&mut self, event: SchedEvent) {
        if self.pos < self.expected.len() {
            if self.mismatch.is_none() && self.expected[self.pos] != event {
                self.mismatch = Some((self.pos, event));
            }
            self.pos += 1;
        }
        self.inner.emit(event);
    }

    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }
}

/// Rebuild a crashed run from its recovered journal (and optionally a
/// checkpoint) and drive it to completion.
///
/// The caller re-supplies the same platform, workload, policy, fault model
/// and options as the recorded run; the kernel re-derives everything else.
/// Without a snapshot the whole journaled prefix deterministically
/// re-executes; with one, execution restarts at the snapshot instant and
/// only the tail past it re-executes. Either way every re-emitted event
/// inside the journaled range is checked against the journal record —
/// a mismatch means the supplied inputs differ from the recorded run and
/// yields [`ResumeError::Divergence`] instead of silent corruption. A
/// snapshot taken *after* the last surviving journal record (its tail was
/// lost with the page cache) is unusable and is ignored in favor of
/// journal-only replay.
///
/// `sink` receives the full event stream from t = 0: the journaled prefix
/// verbatim, then the continuation's events as they are produced. When
/// appending the resumed run to the same journal, wrap it in
/// `JournalSink::resuming(journal, journal.len())` so the prefix is not
/// re-appended.
#[allow(clippy::too_many_arguments)]
pub fn resume<W, P, S, M>(
    platform: &Platform,
    workload: &mut W,
    policy: &mut P,
    faults: FaultModel,
    options: KernelOptions<'_, M>,
    snapshot: Option<&KernelSnapshot>,
    journal: &[SchedEvent],
    sink: &mut S,
) -> Result<KernelOutcome, ResumeError>
where
    W: Workload,
    P: SnapshotPolicy + ?Sized,
    S: TraceSink,
    M: MetricsRegistry + ?Sized,
{
    let snap = snapshot.filter(|s| (s.events_seen as usize) <= journal.len());
    let (prefix, tail) = match snap {
        Some(s) => journal.split_at(s.events_seen as usize),
        None => journal.split_at(0),
    };
    // The forwarded prefix counts toward the trace-event metric so the
    // counter always equals "events delivered to the sink", whether they
    // came from the journal or from live execution.
    if !prefix.is_empty() {
        let counter = options.metrics.counter(metric::TRACE_EVENTS_TOTAL);
        options.metrics.inc_by(counter, prefix.len() as u64);
    }
    for e in prefix {
        sink.emit(*e);
    }
    let mut verify = VerifySink { inner: sink, expected: tail, pos: 0, mismatch: None };
    let mut kernel = Kernel::new(platform, workload.len(), faults, options, &mut verify);
    let run_result = match snap {
        Some(s) => kernel
            .restore_from(s, prefix, workload, policy)
            .map_err(ResumeError::BadSnapshot)
            .and_then(|()| {
                kernel
                    .run_inner(workload, policy, Some(s.now), &mut |_, _, _| {})
                    .map_err(ResumeError::from)
            }),
        None => {
            kernel.run_inner(workload, policy, None, &mut |_, _, _| {}).map_err(ResumeError::from)
        }
    };
    let outcome = finish_outcome(kernel);
    let produced = prefix.len() + verify.pos;
    if let Some((i, got)) = verify.mismatch {
        return Err(ResumeError::Divergence { index: prefix.len() + i, expected: tail[i], got });
    }
    run_result?;
    if verify.pos < tail.len() {
        return Err(ResumeError::ShortReplay { produced, journaled: journal.len() });
    }
    Ok(outcome)
}

/// Pooled scratch buffers for the steady-state loop. The fixpoint's idle
/// lists, the per-completion release list and the retry/arrival batches
/// are taken from this arena and returned cleared after use, so once the
/// pool is warm the event loop stops hitting the allocator entirely
/// (previously every fixpoint iteration and every completion allocated
/// fresh `Vec`s).
#[derive(Debug, Default)]
struct Scratch {
    /// Recycled between the fixpoint's consumed `idle` list and the
    /// `still_idle` list it builds (the two rotate roles each iteration).
    workers_a: Vec<WorkerId>,
    /// Holds spoliation victims (`newly_idle`) within one fixpoint pass.
    workers_b: Vec<WorkerId>,
    /// Successors released by a completion.
    released: Vec<TaskId>,
    /// Retry expiries / workload arrivals due at the current instant.
    due: Vec<TaskId>,
}

/// The one discrete-event loop in the workspace. Owns time, the
/// completion/fault/retry heaps, worker liveness, and trace emission.
struct Kernel<'a, S: TraceSink, M: MetricsRegistry + ?Sized> {
    platform: &'a Platform,
    ran_kind: Vec<Option<ClassId>>,
    state: Vec<TaskState>,
    running: Vec<Option<RunningTask>>,
    /// Event invalidation counters (bumped when a run is aborted).
    generation: Vec<u64>,
    /// Min-heap of (completion/failure time, worker, generation).
    events: BinaryHeap<Reverse<(F64Ord, u32, u64)>>,
    idle: Vec<WorkerId>,
    completed: usize,
    schedule: Schedule,
    sink: &'a mut S,
    summary: TraceSummary,
    /// Guards duplicate `WorkerIdleBegin` across fixpoint iterations.
    idle_announced: Vec<bool>,
    /// Liveness per worker (all `true` without a fault timeline).
    alive: Vec<bool>,
    /// Whether the heap event for a worker's current run is a failure.
    will_fail: Vec<bool>,
    /// Failed attempts per task.
    failures: Vec<u32>,
    faults: FaultModel,
    /// Cursor into the sorted fault timeline.
    timeline_pos: usize,
    /// Pending retries as `(ready_time, task)`.
    retries: BinaryHeap<Reverse<(F64Ord, u32)>>,
    /// Present iff the model draws random numbers (jitter or task
    /// failures); `None` keeps the zero model byte-identical to a
    /// fault-free run.
    rng: Option<StdRng>,
    options: KernelOptions<'a, M>,
    /// Pre-registered metric handles (all no-ops under [`NullRegistry`]).
    meter: Meter<'a, M>,
    /// Current ready-set size, mirrored into the [`metric::READY_DEPTH`]
    /// gauge.
    ready_depth: u64,
    /// Trace events emitted so far (= journal length when journaling).
    emitted: u64,
    /// Injected crash point: die after this many emitted events.
    crash_at: Option<u64>,
    /// Latched once the crash point is reached; from then on the kernel
    /// emits nothing (the journal ends exactly at the crash) and the run
    /// aborts with [`EngineError::Crashed`].
    crashed: bool,
    /// Simulated time at which the crash fired.
    crashed_time: f64,
    /// Capture a snapshot every this-many emitted events.
    checkpoint_every: Option<u64>,
    /// Emission count at the last checkpoint.
    last_checkpoint: u64,
    /// Reusable buffers for the hot loop (see [`Scratch`]).
    scratch: Scratch,
}

impl<'a, S: TraceSink, M: MetricsRegistry + ?Sized> Kernel<'a, S, M> {
    fn new(
        platform: &'a Platform,
        tasks: usize,
        faults: FaultModel,
        options: KernelOptions<'a, M>,
        sink: &'a mut S,
    ) -> Self {
        let summary = if sink.is_enabled() {
            TraceSummary::with_timeline(platform.workers())
        } else {
            TraceSummary::new(platform.workers())
        };
        let stochastic = faults.exec_jitter > 0.0 || faults.task_failure_prob > 0.0;
        let rng = stochastic.then(|| StdRng::seed_from_u64(faults.seed));
        Kernel {
            platform,
            ran_kind: vec![None; tasks],
            state: vec![TaskState::Pending; tasks],
            running: vec![None; platform.workers()],
            generation: vec![0; platform.workers()],
            events: BinaryHeap::new(),
            idle: platform.all_workers().collect(),
            completed: 0,
            schedule: Schedule::new(),
            sink,
            summary,
            idle_announced: vec![false; platform.workers()],
            alive: vec![true; platform.workers()],
            will_fail: vec![false; platform.workers()],
            failures: vec![0; tasks],
            faults,
            timeline_pos: 0,
            retries: BinaryHeap::new(),
            rng,
            meter: Meter::new(options.metrics),
            options,
            ready_depth: 0,
            emitted: 0,
            crash_at: None,
            crashed: false,
            crashed_time: 0.0,
            checkpoint_every: None,
            last_checkpoint: 0,
            scratch: Scratch::default(),
        }
    }

    #[inline]
    fn emit(&mut self, event: SchedEvent) {
        // A fired crash silences the funnel: the journal holds exactly the
        // events emitted before the "process died", like a real crash.
        if self.crashed {
            return;
        }
        self.meter.m.inc(self.meter.trace_events);
        self.summary.record(&event);
        self.sink.emit(event);
        self.emitted = self.emitted.checked_add(1).expect("u64 event counter never saturates");
        if self.crash_at == Some(self.emitted) {
            self.crashed = true;
            self.crashed_time = event.time();
        }
    }

    #[inline]
    fn crash_check(&self) -> Result<(), EngineError> {
        if self.crashed {
            Err(EngineError::Crashed { time: self.crashed_time, events: self.emitted })
        } else {
            Ok(())
        }
    }

    fn context<'c, W: Workload>(&'c self, workload: &'c W, now: f64) -> KernelContext<'c> {
        KernelContext {
            now,
            platform: self.platform,
            instance: workload.instance(),
            running: &self.running,
            ran_kind: &self.ran_kind,
            alive: &self.alive,
            workload,
        }
    }

    fn announce_ready<W: Workload, P: KernelPolicy + ?Sized>(
        &mut self,
        workload: &W,
        policy: &mut P,
        tasks: &[TaskId],
        now: f64,
    ) {
        if tasks.is_empty() {
            return;
        }
        for &t in tasks {
            debug_assert!(
                matches!(self.state[t.index()], TaskState::Pending | TaskState::Waiting),
                "announcing {t} in state {:?}",
                self.state[t.index()]
            );
            self.state[t.index()] = TaskState::Ready;
            self.emit(SchedEvent::TaskReady { time: now, task: t.0 });
        }
        self.meter.m.inc_by(self.meter.ready_pushes, tasks.len() as u64);
        self.ready_depth += tasks.len() as u64;
        self.meter.m.gauge_set(self.meter.ready_depth, self.ready_depth);
        policy.on_ready(tasks, &self.context(workload, now));
    }

    fn start<W: Workload>(&mut self, workload: &W, w: WorkerId, task: TaskId, now: f64) {
        let estimate = workload.duration(task, self.platform.class_of(w), &self.ran_kind);
        let end = now + estimate;
        if self.idle_announced[w.index()] {
            self.idle_announced[w.index()] = false;
            self.emit(SchedEvent::WorkerIdleEnd { time: now, worker: w.0 });
        }
        self.emit(SchedEvent::TaskStart {
            time: now,
            task: task.0,
            worker: w.0,
            expected_end: end,
        });
        // The policy decides on the estimate; the heap event carries
        // reality: a jittered duration, cut short at the failure point if
        // this attempt is doomed. Draw order (jitter, then failure) is
        // fixed so traces are reproducible per seed.
        let mut actual = estimate;
        let mut fail_at = None;
        if let Some(rng) = self.rng.as_mut() {
            let j = self.faults.exec_jitter;
            if j > 0.0 {
                let (lo, hi) = ((1.0f64 / (1.0 + j)).ln(), (1.0f64 + j).ln());
                let u: f64 = rng.random_range(0.0..1.0);
                actual = estimate * (lo + u * (hi - lo)).exp();
            }
            let p = self.faults.task_failure_prob;
            if p > 0.0 && rng.random_bool(p) {
                let frac: f64 = rng.random_range(0.0..1.0);
                fail_at = Some(now + frac * actual);
            }
        }
        self.running[w.index()] = Some(RunningTask { task, start: now, end });
        self.will_fail[w.index()] = fail_at.is_some();
        self.state[task.index()] = TaskState::Running;
        let event_at = fail_at.unwrap_or(now + actual);
        self.events.push(Reverse((F64Ord::new(event_at), w.0, self.generation[w.index()])));
        self.meter.m.gauge_set(self.meter.heap_depth, self.events.len() as u64);
    }

    fn worker_sort_key(&self, order: WorkerOrder, w: WorkerId) -> (u16, u32) {
        let class = self.platform.class_of(w);
        // Class rank generalizes the two-class keys exactly: GpusFirst is
        // descending class index (accelerators first — on k = 2 the GPU
        // pool), CpusFirst ascending.
        let rank = match order {
            WorkerOrder::GpusFirst => (self.platform.k() - 1 - class.index()) as u16,
            WorkerOrder::CpusFirst => class.index() as u16,
            WorkerOrder::ById => 0,
        };
        (rank, w.0)
    }

    fn assign_fixpoint<W: Workload, P: KernelPolicy + ?Sized>(
        &mut self,
        workload: &W,
        policy: &mut P,
        now: f64,
    ) {
        let meter = self.meter;
        let _assign_span = ScopedTimer::start(meter.m, meter.assign_ns);
        loop {
            let order = policy.worker_order();
            let mut idle = std::mem::take(&mut self.idle);
            idle.sort_by_key(|&w| self.worker_sort_key(order, w));
            let mut acted = false;
            // Arena: the consumed idle list and the still-idle list it
            // builds rotate between two pooled buffers; spoliation victims
            // borrow a third. No allocation once the pool is warm.
            let mut still_idle = std::mem::take(&mut self.scratch.workers_a);
            let mut newly_idle = std::mem::take(&mut self.scratch.workers_b);
            debug_assert!(still_idle.is_empty() && newly_idle.is_empty());
            for &w in &idle {
                // The context's shared borrows conflict with emitting, so
                // the policy is consulted first and events follow.
                let (picked, victim) = {
                    let ctx = self.context(workload, now);
                    let pick = {
                        let _pick_span = ScopedTimer::start(meter.m, meter.pick_ns);
                        policy.pick(w, &ctx)
                    };
                    match pick {
                        Some(pick) => (Some(pick), None),
                        None => (None, policy.spoliation_victim(w, &ctx)),
                    }
                };
                if let Some(pick) = picked {
                    let task = pick.task;
                    assert_eq!(
                        self.state[task.index()],
                        TaskState::Ready,
                        "policy picked {task}, which is not ready"
                    );
                    meter.m.inc(meter.ready_pops);
                    // A pop without a matching push is a kernel invariant
                    // violation (double pop / missed announce). Saturating
                    // here would silently pin the gauge at zero and hide
                    // the accounting bug, so underflow fails loudly like
                    // the other protocol asserts above.
                    self.ready_depth = self
                        .ready_depth
                        .checked_sub(1)
                        .expect("kernel invariant violated: ready_depth underflow on pop");
                    meter.m.gauge_set(meter.ready_depth, self.ready_depth);
                    if let Some(end) = pick.queue_end {
                        self.emit(SchedEvent::QueuePop {
                            time: now,
                            task: task.0,
                            worker: w.0,
                            end,
                        });
                    }
                    if self.options.emit_decisions {
                        self.emit(SchedEvent::PolicyDecision {
                            time: now,
                            worker: w.0,
                            decision: Decision::Pick(task.0),
                        });
                    }
                    self.start(workload, w, task, now);
                    acted = true;
                    continue;
                }
                // The idle transition is announced before the spoliation
                // outcome: T_FirstIdle counts the instant a worker found no
                // ready work, including workers that then steal (§2.1).
                let went_idle = !self.idle_announced[w.index()];
                if went_idle {
                    self.idle_announced[w.index()] = true;
                    self.emit(SchedEvent::WorkerIdleBegin { time: now, worker: w.0 });
                }
                if let Some(victim) = victim {
                    let my_class = self.platform.class_of(w);
                    assert_ne!(
                        self.platform.class_of(victim),
                        my_class,
                        "spoliation must cross resource classes"
                    );
                    let r = self.running[victim.index()]
                        .take()
                        .expect("policy spoliated an idle worker");
                    let new_end = now + workload.duration(r.task, my_class, &self.ran_kind);
                    assert!(
                        strictly_less(new_end, r.end),
                        "spoliation of {} must strictly improve completion ({new_end} vs {})",
                        r.task,
                        r.end
                    );
                    self.generation[victim.index()] += 1;
                    self.schedule.aborted.push(TaskRun {
                        task: r.task,
                        worker: victim,
                        start: r.start,
                        end: now,
                    });
                    if self.options.emit_decisions {
                        self.emit(SchedEvent::PolicyDecision {
                            time: now,
                            worker: w.0,
                            decision: Decision::Spoliate(victim.0),
                        });
                    }
                    self.emit(SchedEvent::Spoliation {
                        time: now,
                        task: r.task.0,
                        victim: victim.0,
                        thief: w.0,
                        wasted_work: now - r.start,
                    });
                    meter.m.inc(meter.spoliations);
                    self.start(workload, w, r.task, now);
                    newly_idle.push(victim);
                    acted = true;
                    continue;
                }
                if went_idle && self.options.emit_decisions {
                    self.emit(SchedEvent::PolicyDecision {
                        time: now,
                        worker: w.0,
                        decision: Decision::Idle,
                    });
                }
                still_idle.push(w);
            }
            self.idle = still_idle;
            self.idle.append(&mut newly_idle);
            idle.clear();
            self.scratch.workers_a = idle;
            self.scratch.workers_b = newly_idle;
            if !acted {
                return;
            }
        }
    }

    fn complete<W: Workload, P: KernelPolicy + ?Sized>(
        &mut self,
        workload: &mut W,
        policy: &mut P,
        w: WorkerId,
        now: f64,
    ) {
        let r = self.running[w.index()].take().expect("completion on idle worker");
        self.meter.m.inc(self.meter.tasks_completed);
        self.emit(SchedEvent::TaskComplete { time: now, task: r.task.0, worker: w.0 });
        self.schedule.runs.push(TaskRun { task: r.task, worker: w, start: r.start, end: now });
        self.state[r.task.index()] = TaskState::Done;
        self.ran_kind[r.task.index()] = Some(self.platform.class_of(w));
        self.completed += 1;
        self.idle.push(w);
        let mut released = std::mem::take(&mut self.scratch.released);
        debug_assert!(released.is_empty());
        workload.on_complete_into(r.task, &mut released);
        self.announce_ready(&*workload, policy, &released, now);
        released.clear();
        self.scratch.released = released;
    }

    /// A worker's current run ended: either it completed or — if the start
    /// drew a failure — the attempt failed partway through.
    fn finish_run<W: Workload, P: KernelPolicy + ?Sized>(
        &mut self,
        workload: &mut W,
        policy: &mut P,
        w: WorkerId,
        now: f64,
    ) -> Result<(), EngineError> {
        if self.will_fail[w.index()] {
            self.will_fail[w.index()] = false;
            self.task_fail(w, now)
        } else {
            self.complete(workload, policy, w, now);
            Ok(())
        }
    }

    /// A task attempt failed on `w`: progress is lost, the worker goes back
    /// to the idle pool, and the task retries after a backoff — unless its
    /// attempt budget is exhausted.
    fn task_fail(&mut self, w: WorkerId, now: f64) -> Result<(), EngineError> {
        let r = self.running[w.index()].take().expect("failure on idle worker");
        self.failures[r.task.index()] += 1;
        let attempt = self.failures[r.task.index()];
        self.emit(SchedEvent::TaskFailed {
            time: now,
            task: r.task.0,
            worker: w.0,
            lost_work: now - r.start,
            attempt,
        });
        self.schedule.aborted.push(TaskRun { task: r.task, worker: w, start: r.start, end: now });
        self.state[r.task.index()] = TaskState::Waiting;
        self.idle.push(w);
        if attempt >= self.faults.retry.max_attempts {
            return Err(EngineError::TaskAbandoned {
                task: r.task.0,
                attempts: attempt,
                time: now,
            });
        }
        let delay = self.faults.retry.delay_after(attempt);
        self.meter.m.inc(self.meter.retries);
        self.emit(SchedEvent::TaskRetry { time: now, task: r.task.0, attempt, delay });
        self.retries.push(Reverse((F64Ord::new(now + delay), r.task.0)));
        Ok(())
    }

    fn worker_down<W: Workload, P: KernelPolicy + ?Sized>(
        &mut self,
        workload: &W,
        policy: &mut P,
        e: TimelineEvent,
        now: f64,
    ) {
        let w = WorkerId(e.worker);
        if !self.alive[w.index()] {
            return;
        }
        self.alive[w.index()] = false;
        self.idle.retain(|&x| x != w);
        // The summary closes the open idle interval at the WorkerDown
        // event itself; no separate IdleEnd is emitted for a dead worker.
        self.idle_announced[w.index()] = false;
        let lost = self.running[w.index()].take();
        self.will_fail[w.index()] = false;
        self.generation[w.index()] += 1;
        self.emit(SchedEvent::WorkerDown {
            time: now,
            worker: w.0,
            lost_task: lost.map(|r| r.task.0),
            permanent: e.permanent,
        });
        if let Some(r) = lost {
            self.schedule.aborted.push(TaskRun {
                task: r.task,
                worker: w,
                start: r.start,
                end: now,
            });
            // The in-flight task re-enters the ready set immediately at its
            // original priority; lost progress is not a retry attempt.
            self.state[r.task.index()] = TaskState::Waiting;
            self.announce_ready(workload, policy, &[r.task], now);
        }
    }

    fn worker_up(&mut self, e: TimelineEvent, now: f64) {
        let w = WorkerId(e.worker);
        if self.alive[w.index()] {
            return;
        }
        self.alive[w.index()] = true;
        self.emit(SchedEvent::WorkerUp { time: now, worker: w.0 });
        self.idle.push(w);
        self.idle_announced[w.index()] = false;
    }

    /// Apply every timeline event due at or before `now`.
    fn process_faults_at<W: Workload, P: KernelPolicy + ?Sized>(
        &mut self,
        workload: &W,
        policy: &mut P,
        now: f64,
    ) {
        while let Some(&e) = self.faults.timeline.get(self.timeline_pos) {
            if e.time > now {
                break;
            }
            self.timeline_pos += 1;
            if e.up {
                self.worker_up(e, now);
            } else {
                self.worker_down(workload, policy, e, now);
            }
        }
    }

    /// Re-announce every task whose retry backoff expired at `now`.
    fn process_retries_at<W: Workload, P: KernelPolicy + ?Sized>(
        &mut self,
        workload: &W,
        policy: &mut P,
        now: f64,
    ) {
        let mut due = std::mem::take(&mut self.scratch.due);
        debug_assert!(due.is_empty());
        while let Some(&Reverse((F64Ord(t), task))) = self.retries.peek() {
            if t > now {
                break;
            }
            self.retries.pop();
            due.push(TaskId(task));
        }
        self.announce_ready(workload, policy, &due, now);
        due.clear();
        self.scratch.due = due;
    }

    /// Earliest pending instant across run completions/failures, the fault
    /// timeline, retry expiries, and workload arrivals. Stale heap entries
    /// are discarded.
    fn next_time<W: Workload>(&mut self, workload: &W) -> Option<f64> {
        while let Some(&Reverse((_, w, g))) = self.events.peek() {
            if self.generation[w as usize] == g {
                break;
            }
            self.events.pop();
        }
        let mut next: Option<f64> = self.events.peek().map(|&Reverse((F64Ord(t), _, _))| t);
        if let Some(e) = self.faults.timeline.get(self.timeline_pos) {
            next = Some(next.map_or(e.time, |t| t.min(e.time)));
        }
        if let Some(&Reverse((F64Ord(t), _))) = self.retries.peek() {
            next = Some(next.map_or(t, |x| x.min(t)));
        }
        if let Some(t) = workload.next_arrival() {
            next = Some(next.map_or(t, |x| x.min(t)));
        }
        next
    }

    fn run<W: Workload, P: KernelPolicy + ?Sized>(
        &mut self,
        workload: &mut W,
        policy: &mut P,
    ) -> Result<(), EngineError> {
        self.run_inner(workload, policy, None, &mut |_, _, _| {})
    }

    fn checkpoint_due(&self) -> bool {
        match self.checkpoint_every {
            Some(n) => !self.crashed && self.emitted.saturating_sub(self.last_checkpoint) >= n,
            None => false,
        }
    }

    /// The main loop, parameterized for durability: `resume_at` skips the
    /// t=0 prologue and picks up at a restored snapshot's time;
    /// `checkpoint` is invoked at quiescent points (post-fixpoint) when
    /// the checkpoint cadence is due.
    fn run_inner<W, P, F>(
        &mut self,
        workload: &mut W,
        policy: &mut P,
        resume_at: Option<f64>,
        checkpoint: &mut F,
    ) -> Result<(), EngineError>
    where
        W: Workload,
        P: KernelPolicy + ?Sized,
        F: FnMut(&Self, &P, f64),
    {
        let meter = self.meter;
        let _run_span = ScopedTimer::start(meter.m, meter.run_ns);
        let total = workload.len();
        let mut now = resume_at.unwrap_or(0.0);
        if resume_at.is_none() {
            let initial = workload.initial();
            self.announce_ready(&*workload, policy, &initial, now);
            self.process_faults_at(&*workload, policy, now);
            self.assign_fixpoint(workload, policy, now);
            self.crash_check()?;
            if self.checkpoint_due() {
                checkpoint(self, policy, now);
                self.last_checkpoint = self.emitted;
            }
        }
        while self.completed < total {
            let Some(t) = self.next_time(workload) else {
                if self.alive.iter().any(|&a| a) {
                    panic!("deadlock: tasks remain but nothing is running (policy bug?)");
                }
                return Err(EngineError::AllWorkersDown {
                    time: now,
                    remaining: total - self.completed,
                });
            };
            debug_assert!(t >= now);
            now = t;
            // Order at equal instants: arrivals enter the ready set first
            // (so completions at the same instant see them), then runs
            // finish (completions release successors), then workers
            // fail/recover, then retries re-enter the ready set, then idle
            // workers are offered work.
            let mut due = std::mem::take(&mut self.scratch.due);
            debug_assert!(due.is_empty());
            workload.arrivals_due_into(now, &mut due);
            self.announce_ready(&*workload, policy, &due, now);
            due.clear();
            self.scratch.due = due;
            while let Some(&Reverse((F64Ord(t2), w2, g2))) = self.events.peek() {
                if self.generation[w2 as usize] != g2 {
                    self.events.pop();
                } else if t2 == now {
                    self.events.pop();
                    meter.m.inc(meter.events_total);
                    // A crash during the dispatch outranks the engine
                    // error the dispatch may have produced: state changes
                    // past the crash point never "happened".
                    let finished = self.finish_run(workload, policy, WorkerId(w2), now);
                    self.crash_check()?;
                    finished?;
                } else {
                    break;
                }
            }
            self.process_faults_at(&*workload, policy, now);
            self.process_retries_at(&*workload, policy, now);
            self.assign_fixpoint(workload, policy, now);
            self.crash_check()?;
            if self.checkpoint_due() {
                checkpoint(self, policy, now);
                self.last_checkpoint = self.emitted;
            }
        }
        self.crash_check()
    }

    /// Capture the complete kernel state at a quiescent point. `now` is
    /// the loop's current instant (snapshots are taken post-fixpoint).
    fn snapshot_of<P: SnapshotPolicy + ?Sized>(&self, policy: &P, now: f64) -> KernelSnapshot {
        let mut heap: Vec<(f64, u32, u64)> = self
            .events
            .iter()
            .filter(|&&Reverse((_, w, g))| self.generation[w as usize] == g)
            .map(|&Reverse((F64Ord(t), w, g))| (t, w, g))
            .collect();
        heap.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut retries: Vec<(f64, u32)> =
            self.retries.iter().map(|&Reverse((F64Ord(t), task))| (t, task)).collect();
        retries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        KernelSnapshot {
            now,
            events_seen: self.emitted,
            workers: self.platform.workers(),
            tasks: self.state.len(),
            state: self.state.clone(),
            ran_kind: self.ran_kind.clone(),
            running: self.running.clone(),
            generation: self.generation.clone(),
            heap,
            idle: self.idle.iter().map(|w| w.0).collect(),
            idle_announced: self.idle_announced.clone(),
            alive: self.alive.clone(),
            will_fail: self.will_fail.clone(),
            failures: self.failures.clone(),
            timeline_pos: self.timeline_pos,
            retries,
            rng: self.rng.as_ref().map(StdRng::state),
            ready: policy.ready_order(),
        }
    }

    /// Rebuild mid-run state from a snapshot plus the journaled event
    /// prefix it corresponds to. The prefix feeds the trace summary and
    /// the schedule (both are event-derived); the snapshot supplies
    /// everything else, including the actual heap instants and RNG state.
    fn restore_from<W: Workload, P: SnapshotPolicy + ?Sized>(
        &mut self,
        snap: &KernelSnapshot,
        prefix: &[SchedEvent],
        workload: &mut W,
        policy: &mut P,
    ) -> Result<(), String> {
        snap.validate()?;
        if snap.tasks != self.state.len() {
            return Err(format!(
                "snapshot has {} tasks, workload has {}",
                snap.tasks,
                self.state.len()
            ));
        }
        if snap.workers != self.platform.workers() {
            return Err(format!(
                "snapshot has {} workers, platform has {}",
                snap.workers,
                self.platform.workers()
            ));
        }
        if prefix.len() as u64 != snap.events_seen {
            return Err(format!(
                "snapshot was taken at event {}, but {} journaled events were supplied",
                snap.events_seen,
                prefix.len()
            ));
        }
        for e in prefix {
            self.summary.record(e);
        }
        self.schedule = schedule_from_events(prefix);
        self.state = snap.state.clone();
        self.ran_kind = snap.ran_kind.clone();
        self.running = snap.running.clone();
        self.generation = snap.generation.clone();
        self.events = snap.heap.iter().map(|&(t, w, g)| Reverse((F64Ord::new(t), w, g))).collect();
        self.idle = snap.idle.iter().map(|&w| WorkerId(w)).collect();
        self.completed = snap.state.iter().filter(|&&s| s == TaskState::Done).count();
        self.idle_announced = snap.idle_announced.clone();
        self.alive = snap.alive.clone();
        self.will_fail = snap.will_fail.clone();
        self.failures = snap.failures.clone();
        self.timeline_pos = snap.timeline_pos;
        self.retries =
            snap.retries.iter().map(|&(t, task)| Reverse((F64Ord::new(t), task))).collect();
        match (snap.rng, self.rng.as_mut()) {
            (Some(words), Some(rng)) => *rng = StdRng::from_state(words),
            (None, None) => {}
            (have, _) => {
                return Err(format!(
                    "snapshot {} RNG state but the fault model {} stochastic",
                    if have.is_some() { "carries" } else { "lacks" },
                    if have.is_some() { "is not" } else { "is" },
                ))
            }
        }
        self.emitted = snap.events_seen;
        self.last_checkpoint = snap.events_seen;
        self.ready_depth = snap.ready.len() as u64;
        // Replay the workload's own cursor: everything announced before
        // the snapshot has been consumed — initial tasks, arrivals up to
        // `now`, and the dependency releases of each completed task (in
        // completion order, read off the rebuilt schedule).
        let _ = workload.initial();
        let _ = workload.arrivals_due(snap.now);
        for run in &self.schedule.runs {
            let _ = workload.on_complete(run.task);
        }
        policy.restore(&snap.ready, &self.context(&*workload, snap.now));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{CrashPlan, MemCheckpointStore};
    use crate::heteroprio::{
        heteroprio_durable, heteroprio_resume, heteroprio_traced, HeteroPrioConfig,
    };
    use crate::model::Instance;
    use heteroprio_trace::{Journal, JournalSink, MemJournal, VecSink};

    #[test]
    fn backoff_delay_is_total_and_capped() {
        let retry = RetryPolicy { max_attempts: u32::MAX, backoff_base: 0.5, backoff_cap: 1e6 };
        assert_eq!(retry.delay_after(0), 0.5);
        assert_eq!(retry.delay_after(1), 0.5);
        assert_eq!(retry.delay_after(2), 1.0);
        // Large failure counts saturate the shift (a shift of 64+ would
        // panic in debug builds) and clamp to the cap.
        for failures in [53, 63, 64, 65, 1_000, u32::MAX] {
            let d = retry.delay_after(failures);
            assert!(d.is_finite(), "delay_after({failures}) = {d}");
            assert_eq!(d, 1e6);
        }
        // Even when base · 2^63 overflows to infinity, the cap wins.
        let retry = RetryPolicy { max_attempts: 3, backoff_base: f64::MAX, backoff_cap: 7.0 };
        assert_eq!(retry.delay_after(u32::MAX), 7.0);
    }

    fn spoliation_instance() -> (Instance, Platform) {
        // Mixed affinities on 2 CPUs + 1 GPU: exercises queue pops from
        // both ends and at least one spoliation (a CPU parks on a
        // GPU-friendly 100/1 task; the GPU drains the queue and steals it).
        let inst = Instance::from_times(&[
            (100.0, 1.0),
            (100.0, 1.0),
            (100.0, 1.0),
            (1.0, 10.0),
            (2.0, 8.0),
            (90.0, 2.0),
        ]);
        (inst, Platform::new(2, 1))
    }

    #[test]
    fn every_crash_point_resumes_to_a_bit_identical_stream() {
        let (inst, plat) = spoliation_instance();
        let config = HeteroPrioConfig::new();
        let mut full = VecSink::new();
        let reference = heteroprio_traced(&inst, &plat, &config, &mut full);
        assert!(reference.spoliations > 0, "test instance should spoliate");
        let total = full.events.len() as u64;
        for crash_at in 1..=total {
            let mut journal = MemJournal::new();
            {
                let mut sink = JournalSink::new(&mut journal);
                let err = heteroprio_durable(
                    &inst,
                    &plat,
                    &config,
                    DurabilityOptions {
                        crash: CrashPlan::at_event(crash_at),
                        checkpoint_every: None,
                        store: None,
                    },
                    &mut sink,
                    &heteroprio_metrics::NullRegistry,
                )
                .expect_err("crash plan must fire");
                assert_eq!(err, EngineError::Crashed { time: err_time(&err), events: crash_at });
            }
            assert_eq!(journal.len() as u64, crash_at, "journal ends exactly at the crash");
            let prefix = journal.replay().expect("replay");
            let mut resumed = VecSink::new();
            let res = heteroprio_resume(
                &inst,
                &plat,
                &config,
                None,
                &prefix,
                &mut resumed,
                &heteroprio_metrics::NullRegistry,
            )
            .expect("resume");
            assert_eq!(resumed.events, full.events, "crash at {crash_at}");
            assert_eq!(res.schedule.runs, reference.schedule.runs);
            assert_eq!(res.schedule.aborted, reference.schedule.aborted);
        }
    }

    fn err_time(err: &EngineError) -> f64 {
        match *err {
            EngineError::Crashed { time, .. } => time,
            ref other => panic!("expected Crashed, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_resume_matches_and_survives_json_round_trip() {
        let (inst, plat) = spoliation_instance();
        let config = HeteroPrioConfig::new();
        let mut full = VecSink::new();
        let reference = heteroprio_traced(&inst, &plat, &config, &mut full);
        let total = full.events.len() as u64;
        for crash_at in 2..=total {
            let mut journal = MemJournal::new();
            let mut store = MemCheckpointStore::new();
            {
                let mut sink = JournalSink::new(&mut journal);
                heteroprio_durable(
                    &inst,
                    &plat,
                    &config,
                    DurabilityOptions {
                        crash: CrashPlan::at_event(crash_at),
                        checkpoint_every: Some(2),
                        store: Some(&mut store),
                    },
                    &mut sink,
                    &heteroprio_metrics::NullRegistry,
                )
                .expect_err("crash plan must fire");
            }
            let prefix = journal.replay().expect("replay");
            // The persisted form round-trips through JSON, like the real
            // file-backed store.
            let snapshot = store
                .latest
                .as_ref()
                .map(|s| KernelSnapshot::parse(&s.to_json()).expect("snapshot round trip"));
            let mut resumed = VecSink::new();
            let res = heteroprio_resume(
                &inst,
                &plat,
                &config,
                snapshot.as_ref(),
                &prefix,
                &mut resumed,
                &heteroprio_metrics::NullRegistry,
            )
            .expect("resume");
            assert_eq!(resumed.events, full.events, "crash at {crash_at}");
            assert_eq!(res.schedule.runs, reference.schedule.runs);
            assert_eq!(res.schedule.aborted, reference.schedule.aborted);
        }
    }

    #[test]
    fn divergent_inputs_are_reported_not_silently_accepted() {
        let (inst, plat) = spoliation_instance();
        let config = HeteroPrioConfig::new();
        let mut full = VecSink::new();
        heteroprio_traced(&inst, &plat, &config, &mut full);
        // Resume against a different instance: replay must flag the
        // divergence instead of producing a plausible-looking schedule.
        let other = Instance::from_times(&[(1.0, 8.0), (2.0, 6.0), (4.0, 4.0)]);
        let result = heteroprio_resume(
            &other,
            &plat,
            &config,
            None,
            &full.events,
            &mut heteroprio_trace::NullSink,
            &heteroprio_metrics::NullRegistry,
        );
        assert!(
            matches!(
                result,
                Err(ResumeError::Divergence { .. }) | Err(ResumeError::ShortReplay { .. })
            ),
            "got {result:?}"
        );
    }

    #[test]
    fn resume_of_a_complete_journal_reproduces_the_run() {
        let (inst, plat) = spoliation_instance();
        let config = HeteroPrioConfig::new();
        let mut full = VecSink::new();
        let reference = heteroprio_traced(&inst, &plat, &config, &mut full);
        let mut resumed = VecSink::new();
        let res = heteroprio_resume(
            &inst,
            &plat,
            &config,
            None,
            &full.events,
            &mut resumed,
            &heteroprio_metrics::NullRegistry,
        )
        .expect("resume");
        assert_eq!(resumed.events, full.events);
        assert_eq!(res.schedule.runs, reference.schedule.runs);
    }
}
