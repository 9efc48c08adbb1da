//! The discrete-event runtime engine.
//!
//! Simulates a task-based runtime system executing a [`TaskGraph`] on a
//! CPU+GPU platform under a [`KernelPolicy`]: tasks become ready when their
//! predecessors complete, idle workers ask the policy for work, and policies
//! may spoliate tasks running on the other resource class (abort and
//! restart, losing all progress — the paper's §2.1 mechanism).
//!
//! The event loop itself is the shared kernel in
//! [`heteroprio_core::kernel`], and policies implement its
//! [`KernelPolicy`] directly; this module contributes the DAG availability
//! frontend (dependency release via [`ReadyTracker`]) and the cross-class
//! transfer penalty, which policies see through
//! [`KernelContext::duration`](heteroprio_core::kernel::KernelContext::duration).

use crate::fault::{FaultPlan, SimError};
use heteroprio_core::kernel::{
    self, FaultModel, KernelOptions, KernelOutcome, KernelPolicy, SnapshotPolicy, TimelineEvent,
    Workload,
};
use heteroprio_core::{
    ClassId, DurabilityOptions, Instance, KernelSnapshot, Platform, Schedule, TaskId,
};
use heteroprio_metrics::{MetricsRegistry, NullRegistry};
use heteroprio_taskgraph::{ReadyTracker, TaskGraph};
use heteroprio_trace::{NullSink, TraceSink, TraceSummary};

/// Optional execution-cost model: a fixed penalty added to a task's
/// duration when at least one predecessor completed on a *different*
/// resource class, approximating the data-transfer cost StarPU would pay to
/// move the input tiles across the PCI bus. The paper's model sets this to
/// zero; the robustness experiments sweep it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransferModel {
    pub cross_class_penalty: f64,
}

impl TransferModel {
    pub const NONE: TransferModel = TransferModel { cross_class_penalty: 0.0 };

    pub fn new(cross_class_penalty: f64) -> Self {
        assert!(cross_class_penalty >= 0.0 && cross_class_penalty.is_finite());
        TransferModel { cross_class_penalty }
    }
}

/// Outcome of a simulated execution.
#[derive(Clone, Debug)]
pub struct SimResult {
    pub schedule: Schedule,
    /// First instant at which a worker asked for work and got none
    /// (derived from the trace summary; kept as a field for compatibility).
    pub first_idle: Option<f64>,
    /// Number of spoliations (derived from the trace summary).
    pub spoliations: usize,
    /// Per-worker time accounting and queue statistics aggregated from the
    /// event stream the engine emitted while running.
    pub summary: TraceSummary,
}

impl SimResult {
    pub fn makespan(&self) -> f64 {
        self.schedule.makespan()
    }
}

impl From<KernelOutcome> for SimResult {
    fn from(outcome: KernelOutcome) -> Self {
        SimResult {
            schedule: outcome.schedule,
            first_idle: outcome.first_idle,
            spoliations: outcome.spoliations,
            summary: outcome.summary,
        }
    }
}

/// Checked accessor for a fault entry; callers index with loop bounds.
fn fault_at(faults: &[(f64, Option<f64>)], j: usize) -> (f64, Option<f64>) {
    *faults.get(j).expect("j < faults.len() loop bound")
}

/// Expand a plan's worker faults into a sorted down/up timeline, merging
/// overlapping intervals per worker (a permanent failure swallows
/// everything after it).
fn expand_timeline(plan: &FaultPlan, workers: usize) -> Result<Vec<TimelineEvent>, SimError> {
    let mut per: Vec<Vec<(f64, Option<f64>)>> = vec![Vec::new(); workers];
    for f in &plan.worker_faults {
        if f.worker as usize >= workers {
            return Err(SimError::InvalidPlan {
                reason: format!("worker {} out of range (platform has {workers})", f.worker),
            });
        }
        per.get_mut(f.worker as usize).expect("range-checked above").push((f.at, f.down_for));
    }
    let mut out = Vec::new();
    for (w, mut faults) in per.into_iter().enumerate() {
        faults.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut i = 0;
        while i < faults.len() {
            let (start, dur) = *faults.get(i).expect("i < faults.len() loop bound");
            let mut up = dur.map(|d| start + d);
            let mut j = i + 1;
            while j < faults.len() {
                match up {
                    None => j = faults.len(),
                    Some(u) if fault_at(&faults, j).0 <= u => {
                        let (at, down_for) = fault_at(&faults, j);
                        up = down_for.map(|d| u.max(at + d));
                        j += 1;
                    }
                    Some(_) => break,
                }
            }
            out.push(TimelineEvent {
                time: start,
                worker: w as u32,
                up: false,
                permanent: up.is_none(),
            });
            if let Some(u) = up {
                out.push(TimelineEvent { time: u, worker: w as u32, up: true, permanent: false });
            }
            i = j;
        }
    }
    out.sort_by(|a, b| a.time.total_cmp(&b.time).then((a.up as u8).cmp(&(b.up as u8))));
    Ok(out)
}

/// Run `policy` over `graph` on `platform` to completion.
///
/// Panics on policy protocol violations: picking a task that is not ready,
/// spoliating an idle worker or one of the same class, a spoliation that
/// does not strictly improve the task's completion time, or a deadlock
/// (work remains, nothing runs, and the policy schedules nothing).
pub fn simulate<P: KernelPolicy + ?Sized>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
) -> SimResult {
    simulate_traced(graph, platform, policy, &TransferModel::NONE, &mut NullSink)
}

/// [`simulate`] with an explicit transfer-cost model: tasks whose inputs
/// were produced on the other resource class pay the model's penalty on top
/// of their base time.
pub fn simulate_with<P: KernelPolicy + ?Sized>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
    model: &TransferModel,
) -> SimResult {
    simulate_traced(graph, platform, policy, model, &mut NullSink)
}

/// [`simulate_with`] streaming every scheduler event into `sink`.
///
/// The engine emits [`SchedEvent`](heteroprio_trace::SchedEvent)s for
/// dependency release, starts, completions, spoliations, idle transitions,
/// and policy decisions; with [`NullSink`] the calls compile away and only
/// the cheap per-worker accounting in [`TraceSummary`] remains.
pub fn simulate_traced<P: KernelPolicy + ?Sized, S: TraceSink>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
    model: &TransferModel,
    sink: &mut S,
) -> SimResult {
    try_simulate_faulty(graph, platform, policy, model, &FaultPlan::NONE, sink)
        .expect("fault-free simulation cannot fail")
}

/// [`simulate_traced`] under a [`FaultPlan`]: injected worker failures and
/// recoveries, stochastic execution times, and task failures with retry.
///
/// With [`FaultPlan::NONE`] this draws no random numbers and reproduces
/// the fault-free event stream byte for byte. Policy protocol violations
/// still panic (they are bugs, not simulated faults); exhausted retry
/// budgets and unrecoverable platforms return a structured [`SimError`].
pub fn try_simulate_faulty<P: KernelPolicy + ?Sized, S: TraceSink>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
    model: &TransferModel,
    plan: &FaultPlan,
    sink: &mut S,
) -> Result<SimResult, SimError> {
    try_simulate_faulty_metered(graph, platform, policy, model, plan, sink, &NullRegistry)
}

/// [`try_simulate_faulty`] with a metrics registry: the kernel's perf
/// counters, queue-depth gauges and pick-latency histograms are recorded
/// into `metrics` ([`NullRegistry`] compiles the instrumentation away).
#[allow(clippy::too_many_arguments)]
pub fn try_simulate_faulty_metered<P, S, M>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
    model: &TransferModel,
    plan: &FaultPlan,
    sink: &mut S,
    metrics: &M,
) -> Result<SimResult, SimError>
where
    P: KernelPolicy + ?Sized,
    S: TraceSink,
    M: MetricsRegistry + ?Sized,
{
    let (mut workload, faults) = prepare(graph, platform, model, plan)?;
    let options = KernelOptions { emit_decisions: true, metrics };
    Ok(kernel::run(platform, &mut workload, policy, faults, options, sink)?.into())
}

/// Validate `plan` and build the kernel inputs every entry point shares.
fn prepare<'a>(
    graph: &'a TaskGraph,
    platform: &Platform,
    model: &'a TransferModel,
    plan: &FaultPlan,
) -> Result<(DagWorkload<'a>, FaultModel), SimError> {
    plan.validate()?;
    let faults = FaultModel {
        timeline: expand_timeline(plan, platform.workers())?,
        task_failure_prob: plan.task_failure_prob,
        exec_jitter: plan.exec_jitter,
        seed: plan.seed,
        retry: plan.retry,
    };
    Ok((DagWorkload { graph, tracker: ReadyTracker::new(graph), model }, faults))
}

/// DAG availability: tasks become ready when their predecessors complete,
/// and durations include the cross-class transfer penalty.
struct DagWorkload<'a> {
    graph: &'a TaskGraph,
    tracker: ReadyTracker,
    model: &'a TransferModel,
}

impl Workload for DagWorkload<'_> {
    fn len(&self) -> usize {
        self.graph.len()
    }

    fn initial(&mut self) -> Vec<TaskId> {
        self.graph.sources()
    }

    fn on_complete(&mut self, task: TaskId) -> Vec<TaskId> {
        self.tracker.complete(self.graph, task)
    }

    fn on_complete_into(&mut self, task: TaskId, out: &mut Vec<TaskId>) {
        // Hot-path override: dependency release appends straight into the
        // kernel's pooled buffer instead of allocating per completion.
        self.tracker.complete_into(self.graph, task, out);
    }

    /// Duration the engine charges for `task` on class `class` (base time
    /// plus the cross-class transfer penalty when an input was produced on
    /// a different class).
    fn duration(&self, task: TaskId, class: ClassId, ran_kind: &[Option<ClassId>]) -> f64 {
        let base = self.graph.instance().task(task).time_on(class);
        let cross =
            self.graph.predecessors(task).iter().any(
                |p| matches!(ran_kind.get(p.index()).copied().flatten(), Some(c) if c != class),
            );
        if cross {
            base + self.model.cross_class_penalty
        } else {
            base
        }
    }

    fn instance(&self) -> &Instance {
        self.graph.instance()
    }
}

/// [`try_simulate_faulty_metered`] through the durability plane: an
/// injected crash plan and optional checkpoint capture (see
/// [`kernel::run_durable`]). Journal the run by passing a
/// [`JournalSink`](heteroprio_trace::JournalSink).
#[allow(clippy::too_many_arguments)]
pub fn try_simulate_durable<P, S, M>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
    model: &TransferModel,
    plan: &FaultPlan,
    durability: DurabilityOptions<'_>,
    sink: &mut S,
    metrics: &M,
) -> Result<SimResult, SimError>
where
    P: SnapshotPolicy + ?Sized,
    S: TraceSink,
    M: MetricsRegistry + ?Sized,
{
    let (mut workload, faults) = prepare(graph, platform, model, plan)?;
    let options = KernelOptions { emit_decisions: true, metrics };
    Ok(kernel::run_durable(platform, &mut workload, policy, faults, options, durability, sink)?
        .into())
}

/// Resume a crashed [`try_simulate_durable`] run from its recovered
/// journal (and optionally a checkpoint). The caller re-supplies the same
/// graph, policy, transfer model, and fault plan as the recorded run; the
/// replay is verified event-for-event against the journal (see
/// [`kernel::resume`]) and any disagreement surfaces as
/// [`SimError::Recovery`] rather than a silently wrong schedule.
#[allow(clippy::too_many_arguments)]
pub fn try_resume_faulty<P, S, M>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
    model: &TransferModel,
    plan: &FaultPlan,
    snapshot: Option<&KernelSnapshot>,
    journal: &[heteroprio_trace::SchedEvent],
    sink: &mut S,
    metrics: &M,
) -> Result<SimResult, SimError>
where
    P: SnapshotPolicy + ?Sized,
    S: TraceSink,
    M: MetricsRegistry + ?Sized,
{
    let (mut workload, faults) = prepare(graph, platform, model, plan)?;
    let options = KernelOptions { emit_decisions: true, metrics };
    Ok(kernel::resume(platform, &mut workload, policy, faults, options, snapshot, journal, sink)?
        .into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::kernel::{KernelContext, Pick};
    use heteroprio_core::time::approx_eq;
    use heteroprio_core::{ResourceKind, WorkerId, WorkerOrder};
    use heteroprio_taskgraph::{chain, check_precedence, fork_join, DagBuilder, TaskGraph};
    use std::collections::VecDeque;

    /// Minimal FIFO policy: any idle worker takes the oldest ready task.
    struct Fifo {
        queue: VecDeque<TaskId>,
    }

    impl Fifo {
        fn new() -> Self {
            Fifo { queue: VecDeque::new() }
        }
    }

    /// Wrap a generic policy's choice: no queue-end annotation.
    fn pick(task: Option<TaskId>) -> Option<Pick> {
        task.map(|task| Pick { task, queue_end: None })
    }

    impl KernelPolicy for Fifo {
        fn on_ready(&mut self, tasks: &[TaskId], _ctx: &KernelContext<'_>) {
            self.queue.extend(tasks);
        }

        fn pick(&mut self, _worker: WorkerId, _ctx: &KernelContext<'_>) -> Option<Pick> {
            pick(self.queue.pop_front())
        }
    }

    fn run_fifo(graph: &TaskGraph, platform: &Platform) -> SimResult {
        let mut policy = Fifo::new();
        let res = simulate(graph, platform, &mut policy);
        res.schedule.validate(graph.instance(), platform).expect("valid schedule");
        check_precedence(graph, &res.schedule).expect("precedence respected");
        res
    }

    #[test]
    fn chain_executes_serially() {
        let g = chain(5, 2.0, 1.0);
        let plat = Platform::new(1, 1);
        let res = run_fifo(&g, &plat);
        // GPUs-first order: the single GPU takes every task as it readies.
        assert!(approx_eq(res.makespan(), 5.0), "{}", res.makespan());
    }

    #[test]
    fn fork_join_parallelizes_the_middle() {
        let g = fork_join(4, 1.0, 1.0);
        let plat = Platform::new(2, 2);
        let res = run_fifo(&g, &plat);
        // 1 (fork) + 1 (middle wave of 4 on 4 workers) + 1 (join).
        assert!(approx_eq(res.makespan(), 3.0), "{}", res.makespan());
    }

    #[test]
    fn independent_tasks_spread_over_workers() {
        let g = TaskGraph::independent(Instance::from_times(&[(1.0, 1.0); 8]));
        let plat = Platform::new(2, 2);
        let res = run_fifo(&g, &plat);
        assert!(approx_eq(res.makespan(), 2.0), "{}", res.makespan());
        assert_eq!(res.schedule.runs.len(), 8);
    }

    #[test]
    fn first_idle_recorded_when_starved() {
        let g = chain(3, 1.0, 1.0);
        let plat = Platform::new(1, 1);
        let res = run_fifo(&g, &plat);
        // Only one task ready at a time: someone is idle at t=0.
        assert_eq!(res.first_idle, Some(0.0));
    }

    #[test]
    fn policy_spoliation_is_checked_and_recorded() {
        /// Policy: CPU grabs the single task; the GPU then spoliates it.
        struct SpoliateOnce {
            queue: Vec<TaskId>,
        }
        impl KernelPolicy for SpoliateOnce {
            fn on_ready(&mut self, tasks: &[TaskId], _ctx: &KernelContext<'_>) {
                self.queue.extend_from_slice(tasks);
            }
            fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
                if ctx.platform.kind_of(worker) == ResourceKind::Cpu {
                    pick(self.queue.pop())
                } else {
                    None
                }
            }
            fn spoliation_victim(
                &mut self,
                worker: WorkerId,
                ctx: &KernelContext<'_>,
            ) -> Option<WorkerId> {
                let kind = ctx.platform.kind_of(worker);
                ctx.platform.workers_of(kind.other()).find(|&v| {
                    ctx.running
                        .get(v.index())
                        .copied()
                        .flatten()
                        .is_some_and(|r| ctx.now + ctx.instance.task(r.task).time_on(kind) < r.end)
                })
            }
            fn worker_order(&self) -> WorkerOrder {
                WorkerOrder::CpusFirst
            }
        }
        let g = TaskGraph::independent(Instance::from_times(&[(10.0, 1.0)]));
        let plat = Platform::new(1, 1);
        let mut policy = SpoliateOnce { queue: Vec::new() };
        let res = simulate(&g, &plat, &mut policy);
        res.schedule.validate(g.instance(), &plat).unwrap();
        assert_eq!(res.spoliations, 1);
        assert!(approx_eq(res.makespan(), 1.0));
        assert_eq!(res.schedule.aborted.len(), 1);
        assert_eq!(res.schedule.aborted[0].start, 0.0);
        assert_eq!(res.schedule.aborted[0].end, 0.0);
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn picking_unready_task_panics() {
        struct Evil;
        impl KernelPolicy for Evil {
            fn on_ready(&mut self, _tasks: &[TaskId], _ctx: &KernelContext<'_>) {}
            fn pick(&mut self, _worker: WorkerId, _ctx: &KernelContext<'_>) -> Option<Pick> {
                pick(Some(TaskId(1))) // the chain's second task is still pending
            }
        }
        let g = chain(2, 1.0, 1.0);
        let plat = Platform::new(1, 1);
        let _ = simulate(&g, &plat, &mut Evil);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn refusing_all_work_deadlocks() {
        struct Lazy;
        impl KernelPolicy for Lazy {
            fn on_ready(&mut self, _tasks: &[TaskId], _ctx: &KernelContext<'_>) {}
            fn pick(&mut self, _worker: WorkerId, _ctx: &KernelContext<'_>) -> Option<Pick> {
                None
            }
        }
        let g = chain(2, 1.0, 1.0);
        let plat = Platform::new(1, 1);
        let _ = simulate(&g, &plat, &mut Lazy);
    }

    #[test]
    fn transfer_penalty_charges_cross_class_edges() {
        // chain a → b with 2 CPUs + 1 GPU... use (1,1): FIFO + GpusFirst
        // puts both tasks on the GPU → no penalty. Force a cross by a policy
        // that alternates classes.
        struct Alternate {
            queue: VecDeque<TaskId>,
            next_cpu: bool,
        }
        impl KernelPolicy for Alternate {
            fn on_ready(&mut self, tasks: &[TaskId], _ctx: &KernelContext<'_>) {
                self.queue.extend(tasks);
            }
            fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
                let kind = ctx.platform.kind_of(worker);
                let want = if self.next_cpu { ResourceKind::Cpu } else { ResourceKind::Gpu };
                if kind == want {
                    let t = self.queue.pop_front()?;
                    self.next_cpu = !self.next_cpu;
                    pick(Some(t))
                } else {
                    None
                }
            }
        }
        let g = chain(3, 2.0, 2.0);
        let plat = Platform::new(1, 1);
        let model = TransferModel::new(0.5);
        let mut policy = Alternate { queue: VecDeque::new(), next_cpu: false };
        let res = super::simulate_with(&g, &plat, &mut policy, &model);
        // GPU, CPU (+0.5), GPU (+0.5): 2 + 2.5 + 2.5 = 7.
        assert!(approx_eq(res.makespan(), 7.0), "{}", res.makespan());
        res.schedule
            .validate_with_overhead(g.instance(), &plat, model.cross_class_penalty)
            .unwrap();
        // Strict validation must reject the stretched durations.
        assert!(res.schedule.validate(g.instance(), &plat).is_err());
    }

    #[test]
    fn zero_penalty_model_matches_default_simulate() {
        let g = fork_join(6, 2.0, 1.0);
        let plat = Platform::new(2, 2);
        let a = simulate(&g, &plat, &mut Fifo::new()).makespan();
        let b = super::simulate_with(&g, &plat, &mut Fifo::new(), &TransferModel::NONE).makespan();
        assert!(approx_eq(a, b));
    }

    #[test]
    fn duration_reports_penalty_to_policies() {
        // Observe ctx.duration from inside a policy after a pred
        // completed on the CPU.
        struct Probe {
            queue: VecDeque<TaskId>,
            observed: Vec<f64>,
        }
        impl KernelPolicy for Probe {
            fn on_ready(&mut self, tasks: &[TaskId], ctx: &KernelContext<'_>) {
                for &t in tasks {
                    self.observed.push(ctx.duration(t, ResourceKind::Gpu));
                }
                self.queue.extend(tasks);
            }
            fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
                // CPUs only, so successors always pay the GPU cross penalty.
                pick(
                    (ctx.platform.kind_of(worker) == ResourceKind::Cpu)
                        .then(|| self.queue.pop_front())
                        .flatten(),
                )
            }
        }
        let g = chain(2, 1.0, 1.0);
        let plat = Platform::new(1, 1);
        let model = TransferModel::new(0.25);
        let mut policy = Probe { queue: VecDeque::new(), observed: Vec::new() };
        let res = super::simulate_with(&g, &plat, &mut policy, &model);
        // First task: no preds → 1.0; second: pred ran on CPU → GPU time 1.25.
        assert_eq!(policy.observed, vec![1.0, 1.25]);
        assert!(res.makespan() > 0.0);
    }

    #[test]
    fn zero_fault_plan_is_byte_identical() {
        use heteroprio_trace::VecSink;
        let g = fork_join(6, 2.0, 1.0);
        let plat = Platform::new(2, 2);
        let mut base_sink = VecSink::new();
        let base =
            simulate_traced(&g, &plat, &mut Fifo::new(), &TransferModel::NONE, &mut base_sink);
        let mut fault_sink = VecSink::new();
        let faulty = super::try_simulate_faulty(
            &g,
            &plat,
            &mut Fifo::new(),
            &TransferModel::NONE,
            &FaultPlan::NONE,
            &mut fault_sink,
        )
        .unwrap();
        assert_eq!(base_sink.events, fault_sink.events);
        assert_eq!(base.schedule.runs, faulty.schedule.runs);
        assert_eq!(base.schedule.aborted, faulty.schedule.aborted);
    }

    #[test]
    fn transient_worker_failure_loses_and_reruns_the_task() {
        // One worker per class; the GPU takes T0 (GPUs first) and dies at
        // t=1 until t=3. T0 re-runs — picked up by the idle CPU at t=1.
        let g = TaskGraph::independent(Instance::from_times(&[(4.0, 2.0)]));
        let plat = Platform::new(1, 1);
        let plan = FaultPlan {
            worker_faults: vec![crate::fault::WorkerFault::transient(1, 1.0, 2.0)],
            ..FaultPlan::NONE
        };
        let res = super::try_simulate_faulty(
            &g,
            &plat,
            &mut Fifo::new(),
            &TransferModel::NONE,
            &plan,
            &mut NullSink,
        )
        .unwrap();
        // CPU run [1, 5].
        assert!(approx_eq(res.makespan(), 5.0), "{}", res.makespan());
        assert_eq!(res.schedule.aborted.len(), 1, "the lost GPU run is recorded");
        assert!(approx_eq(res.schedule.aborted[0].end, 1.0));
        assert_eq!(res.summary.worker_failures, 1);
        assert_eq!(res.summary.worker_recoveries, 1);
        assert!(approx_eq(res.summary.workers[1].downtime, 2.0));
        assert!(approx_eq(res.summary.lost_work, 1.0));
    }

    #[test]
    fn permanent_failure_of_all_gpus_degrades_to_cpus() {
        let g = TaskGraph::independent(Instance::from_times(&[(2.0, 1.0); 6]));
        let plat = Platform::new(2, 2);
        let plan = FaultPlan {
            worker_faults: vec![
                crate::fault::WorkerFault::permanent(2, 0.5),
                crate::fault::WorkerFault::permanent(3, 0.5),
            ],
            ..FaultPlan::NONE
        };
        let res = super::try_simulate_faulty(
            &g,
            &plat,
            &mut Fifo::new(),
            &TransferModel::NONE,
            &plan,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(res.schedule.runs.len(), 6, "all tasks complete despite dead GPUs");
        // Every completed run after t=0.5 is on a CPU.
        for r in &res.schedule.runs {
            if r.start >= 0.5 {
                assert!(r.worker.0 < 2, "task {} ran on dead GPU {}", r.task, r.worker.0);
            }
        }
        assert_eq!(res.summary.worker_failures, 2);
        assert_eq!(res.summary.worker_recoveries, 0);
    }

    #[test]
    fn all_workers_down_is_a_structured_error() {
        let g = TaskGraph::independent(Instance::from_times(&[(10.0, 10.0); 3]));
        let plat = Platform::new(1, 1);
        let plan = FaultPlan {
            worker_faults: vec![
                crate::fault::WorkerFault::permanent(0, 1.0),
                crate::fault::WorkerFault::permanent(1, 1.0),
            ],
            ..FaultPlan::NONE
        };
        let err = super::try_simulate_faulty(
            &g,
            &plat,
            &mut Fifo::new(),
            &TransferModel::NONE,
            &plan,
            &mut NullSink,
        )
        .unwrap_err();
        match err {
            SimError::AllWorkersDown { remaining, .. } => assert_eq!(remaining, 3),
            other => panic!("expected AllWorkersDown, got {other:?}"),
        }
    }

    #[test]
    fn certain_failure_exhausts_the_retry_budget() {
        let g = TaskGraph::independent(Instance::from_times(&[(1.0, 1.0)]));
        let plat = Platform::new(1, 1);
        let plan = FaultPlan {
            task_failure_prob: 1.0,
            retry: crate::fault::RetryPolicy {
                max_attempts: 3,
                backoff_base: 0.5,
                backoff_cap: 2.0,
            },
            ..FaultPlan::NONE
        };
        let err = super::try_simulate_faulty(
            &g,
            &plat,
            &mut Fifo::new(),
            &TransferModel::NONE,
            &plan,
            &mut NullSink,
        )
        .unwrap_err();
        match err {
            SimError::TaskAbandoned { task: 0, attempts: 3, .. } => {}
            other => panic!("expected TaskAbandoned after 3 attempts, got {other:?}"),
        }
    }

    #[test]
    fn retries_eventually_succeed_and_traces_reconcile() {
        use heteroprio_trace::VecSink;
        // Moderate failure probability: some attempts fail, the run still
        // completes, and the summary matches a replay of the event stream.
        let g = TaskGraph::independent(Instance::from_times(&[(2.0, 1.0); 10]));
        let plat = Platform::new(2, 1);
        let plan = FaultPlan {
            task_failure_prob: 0.3,
            exec_jitter: 0.2,
            seed: 42,
            retry: crate::fault::RetryPolicy {
                max_attempts: 10,
                backoff_base: 0.25,
                backoff_cap: 4.0,
            },
            ..FaultPlan::NONE
        };
        let mut sink = VecSink::new();
        let res = super::try_simulate_faulty(
            &g,
            &plat,
            &mut Fifo::new(),
            &TransferModel::NONE,
            &plan,
            &mut sink,
        )
        .unwrap();
        assert_eq!(res.schedule.runs.len(), 10);
        let replay = TraceSummary::from_events(plat.workers(), &sink.events);
        assert_eq!(replay.task_failures, res.summary.task_failures);
        assert_eq!(replay.retries, res.summary.retries);
        assert!(approx_eq(replay.lost_work, res.summary.lost_work));
        // Same seed ⇒ same makespan.
        let again = super::try_simulate_faulty(
            &g,
            &plat,
            &mut Fifo::new(),
            &TransferModel::NONE,
            &plan,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(res.makespan(), again.makespan());
    }

    #[test]
    fn diamond_wave_order_matches_dependencies() {
        let mut b = DagBuilder::new();
        let a = b.add_task(heteroprio_core::Task::new(1.0, 1.0), "a");
        let c1 = b.add_task(heteroprio_core::Task::new(2.0, 2.0), "b");
        let c2 = b.add_task(heteroprio_core::Task::new(2.0, 2.0), "c");
        let d = b.add_task(heteroprio_core::Task::new(1.0, 1.0), "d");
        b.add_edge(a, c1);
        b.add_edge(a, c2);
        b.add_edge(c1, d);
        b.add_edge(c2, d);
        let g = b.build().unwrap();
        let plat = Platform::new(1, 1);
        let res = run_fifo(&g, &plat);
        // a at [0,1], b and c in parallel [1,3], d at [3,4].
        assert!(approx_eq(res.makespan(), 4.0), "{}", res.makespan());
    }
}
