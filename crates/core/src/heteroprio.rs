//! The HeteroPrio algorithm for a set of independent tasks (Algorithm 1 of
//! the paper), including the spoliation mechanism.
//!
//! Ready tasks sit in a single queue sorted by non-increasing acceleration
//! factor ρ = p/q. An idle GPU pops from the *front* (most GPU-friendly
//! task), an idle CPU pops from the *back*. On a platform with k ≥ 3
//! classes the same batch is sorted once per class pair {a, b} by
//! ρ_ab = t_a / t_b, and a worker pops the task with its best comparative
//! advantage across the pairs that involve its class; the two-class queue
//! is the one-pair case. When the queue is empty, an idle
//! worker examines the tasks currently running on the *other* resource class
//! in decreasing order of expected completion time, and **spoliates** the
//! first one whose completion it can strictly improve: the victim run is
//! aborted (all progress lost — this is not preemption) and the task restarts
//! on the idle worker.
//!
//! Algorithm 1 leaves three choices unspecified; each tightness proof in the
//! paper resolves them adversarially ("consider the following *valid*
//! HeteroPrio schedule"), so they are explicit knobs here:
//!
//! * which idle worker acts first ([`WorkerOrder`]),
//! * the queue order among tasks with equal ρ ([`QueueTieBreak`]),
//! * the spoliation order among victims with equal completion time
//!   ([`SpoliationTieBreak`]).
//!
//! The event loop itself lives in [`crate::kernel`]; this module contributes
//! the Algorithm 1 queue discipline as a [`KernelPolicy`] over an
//! all-ready-at-zero [`Workload`].

use crate::durability::{DurabilityOptions, KernelSnapshot, ResumeError};
use crate::kernel::{
    self, EngineError, FaultModel, KernelContext, KernelOptions, KernelPolicy, Pick, RunningTask,
    SnapshotPolicy, Workload,
};
use crate::model::{ClassId, Instance, ModelError, Platform, TaskId, WorkerId};
use crate::queue::pair_index;
use crate::schedule::Schedule;
use crate::time::{strictly_less, F64Ord};
use heteroprio_metrics::{MetricsRegistry, NullRegistry};
use heteroprio_trace::{NullSink, QueueEnd, TraceSink, TraceSummary};
use std::collections::VecDeque;

/// Order in which simultaneously idle workers are given the chance to act.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WorkerOrder {
    /// GPUs pick first (the StarPU-like default: serve the scarce, fast
    /// resource first).
    #[default]
    GpusFirst,
    /// CPUs pick first.
    CpusFirst,
    /// Strictly by worker id (CPUs are ids `0..m`, so CPUs first by class).
    ById,
}

/// Ordering of the ready queue among tasks with equal acceleration factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueueTieBreak {
    /// The paper's §2.2 rule: among ties with ρ ≥ 1 the highest-priority task
    /// comes first (so GPUs, popping the front, see it first); among ties
    /// with ρ < 1 the lowest-priority task comes first (so CPUs, popping the
    /// back, see the highest priority first).
    #[default]
    Priority,
    /// Stable order: ties keep their instance order. Used by the worst-case
    /// constructions, which pick an adversarial insertion order.
    InsertionOrder,
}

impl QueueTieBreak {
    /// The secondary queue key of a task with pair ratio `rho`: under the
    /// priority rule, `−priority` on the accelerated side (`ρ ≥ 1`) and
    /// `+priority` on the other, so each end of the queue sees its highest
    /// priority first; `0` under insertion order, leaving ties to the
    /// caller's FIFO component.
    #[inline]
    pub(crate) fn key(self, rho: f64, priority: f64) -> f64 {
        match self {
            // lint: allow(float-ord): orientation branch, not arithmetic — ρ = 1 exactly
            // is a documented policy choice (the accelerated-side tie rule applies).
            QueueTieBreak::Priority if rho >= 1.0 => -priority,
            QueueTieBreak::Priority => priority,
            QueueTieBreak::InsertionOrder => 0.0,
        }
    }
}

/// Ordering among spoliation candidates with equal expected completion time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SpoliationTieBreak {
    /// Highest priority first (the paper's DAG-mode rule), then lowest id.
    #[default]
    PriorityThenId,
    /// Lowest task id first.
    IdAscending,
    /// Highest task id first.
    IdDescending,
}

/// Configuration of the unspecified choices in Algorithm 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeteroPrioConfig {
    /// Disable to obtain the pure list schedule `S_HP^NS` of the paper.
    pub disable_spoliation: bool,
    pub worker_order: WorkerOrder,
    pub queue_tie: QueueTieBreak,
    pub spoliation_tie: SpoliationTieBreak,
}

impl HeteroPrioConfig {
    /// The default configuration, with spoliation enabled.
    pub fn new() -> Self {
        HeteroPrioConfig::default()
    }

    /// The pure list-schedule variant (no spoliation) — the paper's
    /// `S_HP^NS`, and the §3 cautionary tale about list scheduling on
    /// unrelated resources.
    pub fn without_spoliation() -> Self {
        HeteroPrioConfig { disable_spoliation: true, ..Default::default() }
    }
}

/// Outcome of a HeteroPrio run.
#[derive(Clone, Debug)]
pub struct HeteroPrioResult {
    pub schedule: Schedule,
    /// `T_FirstIdle`: the first instant at which some worker found the queue
    /// empty. `None` when every worker was busy until its last completion
    /// (never happens if there are fewer tasks than workers).
    /// Derived from [`TraceSummary::first_idle`].
    pub first_idle: Option<f64>,
    /// Number of successful spoliations. Derived from
    /// [`TraceSummary::spoliation_count`].
    pub spoliations: usize,
    /// Per-worker time accounting and spoliation totals aggregated from the
    /// event stream the run emitted.
    pub summary: TraceSummary,
}

impl HeteroPrioResult {
    pub fn makespan(&self) -> f64 {
        self.schedule.makespan()
    }
}

/// Build the ready queue: non-increasing acceleration factor, ties per
/// `tie`. Exposed for reuse by the frozen seed engine in `heteroprio-bench`.
/// The sort keys are computed once per task and cached, not re-derived in
/// the comparator: on a million-task queue the comparator runs tens of
/// millions of times, and the two `accel_factor()` divisions per call used
/// to dominate the build cost. Negating a float is an exact reversal of
/// `total_cmp`'s order (the sign-bit flip mirrors the total order,
/// including ±0.0), so sorting ascending by `F64Ord(-ρ)` is bit-identical
/// to the old descending `ρ.total_cmp` comparator.
pub fn sorted_queue(instance: &Instance, ids: &[TaskId], tie: QueueTieBreak) -> VecDeque<TaskId> {
    match tie {
        QueueTieBreak::InsertionOrder => {
            // Equal-ρ tasks keep their order in `ids`: the input position
            // is part of the (total) key, so equal-ρ ties resolve to FIFO
            // under either sort algorithm — identical to the old stable
            // ρ-only comparator.
            let mut keyed: Vec<(F64Ord, usize)> = ids
                .iter()
                .enumerate()
                .map(|(pos, &id)| (F64Ord(-instance.task(id).accel_factor()), pos))
                .collect();
            sort_total(&mut keyed);
            keyed
                .into_iter()
                .map(|(_, pos)| *ids.get(pos).expect("pos from enumerate over ids"))
                .collect()
        }
        QueueTieBreak::Priority => {
            // Equal ρ: for ρ >= 1 put high priority first (GPU side), for
            // ρ < 1 put low priority first (so the back of the queue,
            // served to CPUs, holds the highest priority). Encoded in the
            // key: ascending -priority ≡ descending priority under
            // total_cmp, with TaskId as the final total tie-break.
            let mut keyed: Vec<(F64Ord, F64Ord, TaskId)> = ids
                .iter()
                .map(|&id| {
                    let t = instance.task(id);
                    let rho = t.accel_factor();
                    // lint: allow(float-ord): orientation branch, not arithmetic — ρ = 1
                    // exactly is a documented policy choice (GPU-side tie rule applies).
                    let oriented = if rho >= 1.0 { -t.priority } else { t.priority };
                    (F64Ord(-rho), F64Ord(oriented), id)
                })
                .collect();
            sort_total(&mut keyed);
            keyed.into_iter().map(|(_, _, id)| id).collect()
        }
    }
}

/// The ready order of the class pair `{a, b}` (`a < b`): ascending
/// `(−ρ_ab, tie key, id)` with `ρ_ab = t_a / t_b`, so the front holds the
/// task class `b` favours most and the back the one class `a` favours most.
///
/// Ties fall to the task id rather than the position in `ids`. The
/// independent engine announces its tasks in ascending id order, so a
/// fresh run sees exactly the FIFO order of
/// [`ClassQueue`](crate::queue::ClassQueue), and a snapshot restore
/// rebuilds every pair bit for bit whatever order the snapshot lists the
/// tasks in.
fn pair_queue(
    instance: &Instance,
    ids: &[TaskId],
    a: ClassId,
    b: ClassId,
    tie: QueueTieBreak,
) -> VecDeque<TaskId> {
    let mut keyed: Vec<(F64Ord, F64Ord, u32)> = ids
        .iter()
        .map(|&id| {
            let t = instance.task(id);
            let rho = t.try_affinity(a, b).unwrap_or_else(|e| unqueueable(id, e));
            (F64Ord(-rho), F64Ord(tie.key(rho, t.priority)), id.0)
        })
        .collect();
    sort_total(&mut keyed);
    keyed.into_iter().map(|(_, _, id)| TaskId(id)).collect()
}

/// A task whose pair ratio is not positive and finite cannot be ordered;
/// out of line so the key loop stays branch-light.
#[cold]
#[inline(never)]
fn unqueueable(id: TaskId, e: ModelError) -> ! {
    panic!("cannot queue {id}: {e}")
}

/// Sort by a total key, picking the algorithm from the input's run
/// structure. Generated instances arrive as a handful of long already-
/// sorted runs of identical tasks, which the stable merge sort detects
/// and merges in near-linear time; disordered million-task queues are
/// better served by the unstable pattern-defeating sort's smaller
/// constants and lack of a merge buffer. The key is total, so both
/// algorithms produce the same order — the dispatch is purely a
/// performance choice and cannot perturb the schedule.
fn sort_total<T: Ord>(keyed: &mut [T]) {
    const MAX_RUNS: usize = 32;
    let mut runs = 1usize;
    for w in keyed.windows(2) {
        let [a, b] = w else { unreachable!("windows(2) yields pairs") };
        if b < a {
            runs += 1;
            if runs > MAX_RUNS {
                break;
            }
        }
    }
    if runs <= MAX_RUNS {
        keyed.sort();
    } else {
        keyed.sort_unstable();
    }
}

/// The paper's spoliation victim scan for idle worker `w`: tasks running on
/// *any other* resource class, in decreasing order of expected completion
/// time (ties per `tie`), first one strictly improvable. On the canonical
/// two-class platform "any other class" is exactly the paper's "the other
/// resource class"; for `k ≥ 3` the decreasing-completion scan *is* the
/// argmax over other classes (the victim whose run the thief improves the
/// most urgently). The restart is priced with [`KernelContext::duration`],
/// the function the kernel's own strict-improvement check uses, so DAG
/// transfer penalties are counted. Shared by every HeteroPrio policy.
pub fn scan_victim(
    tie: SpoliationTieBreak,
    w: WorkerId,
    ctx: &KernelContext<'_>,
) -> Option<WorkerId> {
    let my_class = ctx.platform.class_of(w);
    // Ascending worker id (ids are class-contiguous). Plain loops: this
    // scan runs for every idle worker the queue cannot serve, and an
    // iterator chain collecting into the Vec made Fig. 7 DAGs at N <= 16
    // about 25% slower end to end (2-core Xeon), where such scans dominate.
    let mut candidates: Vec<(WorkerId, RunningTask)> = Vec::new();
    for class in ctx.platform.classes() {
        if class == my_class {
            continue;
        }
        for v in ctx.platform.workers_of(class) {
            if let Some(r) = ctx.running.get(v.index()).copied().flatten() {
                candidates.push((v, r));
            }
        }
    }
    candidates.sort_by(|(_, a), (_, b)| {
        b.end.total_cmp(&a.end).then_with(|| {
            let ta = ctx.instance.task(a.task);
            let tb = ctx.instance.task(b.task);
            match tie {
                SpoliationTieBreak::PriorityThenId => {
                    tb.priority.total_cmp(&ta.priority).then(a.task.cmp(&b.task))
                }
                SpoliationTieBreak::IdAscending => a.task.cmp(&b.task),
                SpoliationTieBreak::IdDescending => b.task.cmp(&a.task),
            }
        })
    });
    for (v, r) in candidates {
        let new_end = ctx.now + ctx.duration(r.task, my_class);
        if strictly_less(new_end, r.end) {
            return Some(v);
        }
    }
    None
}

/// All tasks of an [`Instance`] ready at time zero, no dependencies.
struct IndependentWorkload<'a> {
    instance: &'a Instance,
}

impl Workload for IndependentWorkload<'_> {
    fn len(&self) -> usize {
        self.instance.len()
    }

    fn initial(&mut self) -> Vec<TaskId> {
        self.instance.ids().collect()
    }

    fn duration(&self, task: TaskId, class: ClassId, _ran_kind: &[Option<ClassId>]) -> f64 {
        self.instance.task(task).time_on(class)
    }

    fn instance(&self) -> &Instance {
        self.instance
    }
}

/// The ready structure of the independent-task policy, for every `k`: one
/// [`pair_queue`]-sorted deque per unordered class pair `{a, b}`, built once
/// when the batch arrives, plus a per-task `queued` flag.
///
/// A worker of class `c` looks at the end of each pair involving `c` that
/// favours `c` (the front when `c` is the pair's `b` class, else the back)
/// and pops the one with the greatest advantage: the argmax of
/// [`ClassQueue::pop`](crate::queue::ClassQueue::pop) over the same keys,
/// so the drain order is the same. Only the winning pair pops the task;
/// its entries in the other pairs go stale and are dropped when they reach
/// an end (the `queued` flag tells).
///
/// At `k = 2` there is one pair, Algorithm 1's double-ended queue: GPUs pop
/// the front, CPUs the back, and nothing can go stale.
struct ReadyQueue {
    k: usize,
    /// One deque per pair `(a, b)`, `a < b`, indexed by [`pair_index`].
    pairs: Vec<VecDeque<TaskId>>,
    /// `queued[t]`: task `t` is still waiting. An entry in a pair is live
    /// iff its task is queued. The single-pair pop never reads the flag,
    /// so it never clears it either.
    queued: Vec<bool>,
}

impl ReadyQueue {
    fn new(k: usize) -> Self {
        ReadyQueue { k, pairs: Vec::new(), queued: Vec::new() }
    }

    fn is_queued(queued: &[bool], task: TaskId) -> bool {
        queued.get(task.index()).copied().unwrap_or(false)
    }

    /// Drop stale entries from one end of pair `idx`, then return the live
    /// task there.
    fn live_end(&mut self, idx: usize, front: bool) -> Option<TaskId> {
        let pair = self.pairs.get_mut(idx).expect("pair_index < pair count");
        loop {
            let task = *if front { pair.front() } else { pair.back() }?;
            if Self::is_queued(&self.queued, task) {
                return Some(task);
            }
            if front {
                pair.pop_front();
            } else {
                pair.pop_back();
            }
        }
    }

    /// Pop the task best suited to class `c`: the strictly greatest
    /// advantage `t_other / t_c` across the pairs that involve `c`, the
    /// lowest other class winning ties. Kept out of line, since the
    /// single-pair pick never calls it.
    #[inline(never)]
    fn pop_argmax(&mut self, instance: &Instance, c: usize) -> Option<TaskId> {
        let mut best: Option<(f64, usize, bool)> = None;
        for d in (0..self.k).filter(|&d| d != c) {
            let (a, b) = (c.min(d), c.max(d));
            let idx = pair_index(self.k, a, b);
            let front = c == b;
            let Some(task) = self.live_end(idx, front) else { continue };
            let rho = instance.task(task).affinity(ClassId::from(a), ClassId::from(b));
            let advantage = if front { rho } else { 1.0 / rho };
            if best.is_none_or(|(adv, ..)| advantage > adv) {
                best = Some((advantage, idx, front));
            }
        }
        let (_, idx, front) = best?;
        let pair = self.pairs.get_mut(idx).expect("pair_index < pair count");
        let task = if front { pair.pop_front() } else { pair.pop_back() }
            .expect("the winning end holds a live task");
        *self.queued.get_mut(task.index()).expect("queued sized to the instance") = false;
        Some(task)
    }
}

/// Algorithm 1's affinity-ordered queue as a [`KernelPolicy`].
struct IndependentPolicy {
    config: HeteroPrioConfig,
    queue: ReadyQueue,
}

impl IndependentPolicy {
    fn new(platform: &Platform, config: &HeteroPrioConfig) -> Self {
        IndependentPolicy { config: *config, queue: ReadyQueue::new(platform.k()) }
    }
}

impl KernelPolicy for IndependentPolicy {
    fn on_ready(&mut self, tasks: &[TaskId], ctx: &KernelContext<'_>) {
        // Independent tasks: everything arrives in one batch at t = 0 (plus
        // kernel restarts after spoliation, which re-enter through `pick`'s
        // own bookkeeping — the kernel restarts stolen tasks directly, so
        // this is called exactly once; a resumed run calls it once with the
        // snapshot's ready set).
        let q = &mut self.queue;
        q.queued.clear();
        q.queued.resize(ctx.instance.len(), false);
        for &t in tasks {
            *q.queued.get_mut(t.index()).expect("announced tasks belong to the instance") = true;
        }
        q.pairs = (0..q.k)
            .flat_map(|a| ((a + 1)..q.k).map(move |b| (a, b)))
            .map(|(a, b)| {
                let (a, b) = (ClassId::from(a), ClassId::from(b));
                pair_queue(ctx.instance, tasks, a, b, self.config.queue_tie)
            })
            .collect();
    }

    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
        let class = ctx.platform.class_of(worker).index();
        match self.queue.pairs.as_mut_slice() {
            // One pair (k = 2): Algorithm 1 verbatim — the GPU (class 1)
            // pops the front, the CPU (class 0) the back — with the
            // `QueueEnd` annotation the two-class pop-order rule audits.
            [pair] => {
                let (popped, end) = if class == 1 {
                    (pair.pop_front(), QueueEnd::Front)
                } else {
                    (pair.pop_back(), QueueEnd::Back)
                };
                popped.map(|task| Pick { task, queue_end: Some(end) })
            }
            // The auditor's pop-order rule is a two-class certificate, so
            // k ≥ 3 picks make no end claim it could misread.
            _ => self
                .queue
                .pop_argmax(ctx.instance, class)
                .map(|task| Pick { task, queue_end: None }),
        }
    }

    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<WorkerId> {
        if self.config.disable_spoliation {
            return None;
        }
        scan_victim(self.config.spoliation_tie, worker, ctx)
    }

    fn worker_order(&self) -> WorkerOrder {
        self.config.worker_order
    }
}

impl SnapshotPolicy for IndependentPolicy {
    /// Pair `(0, 1)`'s live tasks, front first. Every queued task sits in
    /// every pair, so this is the whole ready set.
    fn ready_order(&self) -> Vec<TaskId> {
        let q = &self.queue;
        q.pairs.first().map_or_else(Vec::new, |pair| {
            pair.iter().copied().filter(|&t| ReadyQueue::is_queued(&q.queued, t)).collect()
        })
    }
    // The default `restore` (re-announce via `on_ready`) is exact here:
    // every pair's key is total and ends in the task id, so re-sorting the
    // saved ready set reproduces each pair's order whatever the list order.
}

/// Run HeteroPrio (Algorithm 1) on an instance of independent tasks.
pub fn heteroprio(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
) -> HeteroPrioResult {
    heteroprio_traced(instance, platform, config, &mut NullSink)
}

/// [`heteroprio`] with a trace sink: every scheduling decision is emitted as
/// a [`SchedEvent`](heteroprio_trace::SchedEvent). The run is generic over
/// the sink, so passing [`NullSink`] compiles the tracing away entirely.
pub fn heteroprio_traced<S: TraceSink>(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    sink: &mut S,
) -> HeteroPrioResult {
    heteroprio_metered(instance, platform, config, sink, &NullRegistry)
}

/// [`heteroprio_traced`] with a metrics registry: kernel perf counters,
/// queue-depth gauges and pick-latency histograms are recorded into
/// `metrics`. [`NullRegistry`] compiles the instrumentation away, exactly
/// like [`NullSink`] does for tracing.
pub fn heteroprio_metered<S: TraceSink, M: MetricsRegistry + ?Sized>(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    sink: &mut S,
    metrics: &M,
) -> HeteroPrioResult {
    let mut workload = IndependentWorkload { instance };
    let mut policy = IndependentPolicy::new(platform, config);
    let outcome = kernel::run(
        platform,
        &mut workload,
        &mut policy,
        FaultModel::none(),
        KernelOptions { emit_decisions: false, metrics },
        sink,
    )
    .expect("fault-free run cannot fail");
    HeteroPrioResult {
        schedule: outcome.schedule,
        first_idle: outcome.first_idle,
        spoliations: outcome.spoliations,
        summary: outcome.summary,
    }
}

/// [`heteroprio_metered`] through the durability plane: crash injection and
/// checkpoint capture (see [`kernel::run_durable`]). Journaling is the
/// caller's sink choice — pass a
/// [`JournalSink`](heteroprio_trace::JournalSink).
pub fn heteroprio_durable<S: TraceSink, M: MetricsRegistry + ?Sized>(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    durability: DurabilityOptions<'_>,
    sink: &mut S,
    metrics: &M,
) -> Result<HeteroPrioResult, EngineError> {
    let mut workload = IndependentWorkload { instance };
    let mut policy = IndependentPolicy::new(platform, config);
    let outcome = kernel::run_durable(
        platform,
        &mut workload,
        &mut policy,
        FaultModel::none(),
        KernelOptions { emit_decisions: false, metrics },
        durability,
        sink,
    )?;
    Ok(HeteroPrioResult {
        schedule: outcome.schedule,
        first_idle: outcome.first_idle,
        spoliations: outcome.spoliations,
        summary: outcome.summary,
    })
}

/// Resume a crashed [`heteroprio_durable`] run from its recovered journal
/// (and optionally a checkpoint); see [`kernel::resume`] for the contract.
pub fn heteroprio_resume<S: TraceSink, M: MetricsRegistry + ?Sized>(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    snapshot: Option<&KernelSnapshot>,
    journal: &[heteroprio_trace::SchedEvent],
    sink: &mut S,
    metrics: &M,
) -> Result<HeteroPrioResult, ResumeError> {
    let mut workload = IndependentWorkload { instance };
    let mut policy = IndependentPolicy::new(platform, config);
    let outcome = kernel::resume(
        platform,
        &mut workload,
        &mut policy,
        FaultModel::none(),
        KernelOptions { emit_decisions: false, metrics },
        snapshot,
        journal,
        sink,
    )?;
    Ok(HeteroPrioResult {
        schedule: outcome.schedule,
        first_idle: outcome.first_idle,
        spoliations: outcome.spoliations,
        summary: outcome.summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ResourceKind, Task};
    use crate::time::{approx_eq, PHI};

    fn run(instance: &Instance, platform: &Platform) -> HeteroPrioResult {
        let res = heteroprio(instance, platform, &HeteroPrioConfig::new());
        res.schedule.validate(instance, platform).expect("valid schedule");
        res
    }

    #[test]
    fn single_task_runs_on_best_fit_side_of_queue() {
        // One GPU-friendly task: with one CPU and one GPU idle, GPUs-first
        // order hands it to the GPU.
        let inst = Instance::from_times(&[(10.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let res = run(&inst, &plat);
        assert!(approx_eq(res.makespan(), 1.0));
    }

    #[test]
    fn gpu_takes_front_cpu_takes_back() {
        // Two tasks, one accelerated (ρ=10), one decelerated (ρ=0.1).
        let inst = Instance::from_times(&[(10.0, 1.0), (1.0, 10.0)]);
        let plat = Platform::new(1, 1);
        let res = run(&inst, &plat);
        assert!(approx_eq(res.makespan(), 1.0));
        let gpu_run = res.schedule.run_of(TaskId(0)).unwrap();
        assert_eq!(plat.kind_of(gpu_run.worker), ResourceKind::Gpu);
        let cpu_run = res.schedule.run_of(TaskId(1)).unwrap();
        assert_eq!(plat.kind_of(cpu_run.worker), ResourceKind::Cpu);
    }

    #[test]
    fn spoliation_rescues_bad_cpu_assignment() {
        // Two tasks both much faster on GPU. The list phase puts one on the
        // CPU (it never idles while the queue is non-empty); once the GPU
        // finishes its own task it spoliates the CPU's.
        let inst = Instance::from_times(&[(100.0, 1.0), (100.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let res = run(&inst, &plat);
        assert_eq!(res.spoliations, 1);
        assert!(approx_eq(res.makespan(), 2.0), "makespan {}", res.makespan());
        assert_eq!(res.schedule.aborted.len(), 1);
    }

    #[test]
    fn without_spoliation_list_schedule_can_be_terrible() {
        // Same instance without spoliation: CPU grinds for 100 time units.
        let inst = Instance::from_times(&[(100.0, 1.0), (100.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let res = heteroprio(&inst, &plat, &HeteroPrioConfig::without_spoliation());
        res.schedule.validate(&inst, &plat).unwrap();
        assert!(approx_eq(res.makespan(), 100.0));
    }

    #[test]
    fn theorem8_instance_reaches_phi() {
        // X: (p=φ, q=1), Y: (p=1, q=1/φ); both ρ=φ. Adversarial insertion
        // order [Y, X]: GPU takes Y from the front, CPU takes X from the
        // back. GPU idles at 1/φ but spoliating X would not strictly improve
        // its completion (1/φ + 1 = φ). Makespan φ while OPT = 1.
        let inst = Instance::from_times(&[(1.0, 1.0 / PHI), (PHI, 1.0)]);
        let plat = Platform::new(1, 1);
        let cfg = HeteroPrioConfig {
            queue_tie: QueueTieBreak::InsertionOrder,
            ..HeteroPrioConfig::new()
        };
        let res = heteroprio(&inst, &plat, &cfg);
        res.schedule.validate(&inst, &plat).unwrap();
        assert!(approx_eq(res.makespan(), PHI), "makespan {}", res.makespan());
        assert_eq!(res.spoliations, 0);
    }

    #[test]
    fn theorem8_other_tie_order_is_optimal() {
        // Insertion order [X, Y] instead: GPU takes X, CPU takes Y → OPT = 1.
        let inst = Instance::from_times(&[(PHI, 1.0), (1.0, 1.0 / PHI)]);
        let plat = Platform::new(1, 1);
        let cfg = HeteroPrioConfig {
            queue_tie: QueueTieBreak::InsertionOrder,
            ..HeteroPrioConfig::new()
        };
        let res = heteroprio(&inst, &plat, &cfg);
        assert!(approx_eq(res.makespan(), 1.0));
    }

    #[test]
    fn first_idle_is_recorded() {
        let inst = Instance::from_times(&[(2.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let res = run(&inst, &plat);
        // One of the two workers has nothing to do at t=0.
        assert_eq!(res.first_idle, Some(0.0));
    }

    #[test]
    fn busy_platform_has_late_first_idle() {
        // 2 CPUs + 1 GPU, 3 equal tasks of unit length on each resource:
        // everyone busy until t=1.
        let inst = Instance::from_times(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let plat = Platform::new(2, 1);
        let res = run(&inst, &plat);
        assert_eq!(res.first_idle, Some(1.0));
        assert!(approx_eq(res.makespan(), 1.0));
    }

    #[test]
    fn priority_tie_break_orders_queue_both_ways() {
        // Accelerated ties (ρ=2): higher priority must sit closer to the
        // front. Decelerated ties (ρ=0.5): higher priority closer to the back.
        let mut inst = Instance::new();
        let a = inst.push(Task::new(2.0, 1.0).with_priority(1.0));
        let b = inst.push(Task::new(2.0, 1.0).with_priority(5.0));
        let c = inst.push(Task::new(1.0, 2.0).with_priority(1.0));
        let d = inst.push(Task::new(1.0, 2.0).with_priority(5.0));
        let q = sorted_queue(&inst, &[a, b, c, d], QueueTieBreak::Priority);
        assert_eq!(Vec::from(q), vec![b, a, c, d]);
    }

    #[test]
    fn spoliation_cascade_terminates() {
        // A pathological soup of tasks with wildly asymmetric times; mostly a
        // termination / validity smoke test.
        let inst = Instance::from_times(&[
            (50.0, 1.0),
            (50.0, 1.0),
            (1.0, 50.0),
            (1.0, 50.0),
            (10.0, 10.0),
            (3.0, 7.0),
            (7.0, 3.0),
        ]);
        let plat = Platform::new(2, 2);
        let res = run(&inst, &plat);
        assert!(res.makespan() > 0.0);
    }

    #[test]
    fn all_tasks_complete_exactly_once_many_workers() {
        let tasks: Vec<(f64, f64)> = (1..=40).map(|i| (i as f64, (41 - i) as f64)).collect();
        let inst = Instance::from_times(&tasks);
        let plat = Platform::new(6, 3);
        let res = run(&inst, &plat);
        assert_eq!(res.schedule.runs.len(), 40);
    }

    #[test]
    fn cpus_first_changes_tie_resolution() {
        // With one task and CPUs-first order, the CPU grabs it even though
        // the GPU would be faster; the GPU then spoliates immediately at t=0,
        // so makespan is still the GPU time but with one abort recorded.
        let inst = Instance::from_times(&[(10.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let cfg =
            HeteroPrioConfig { worker_order: WorkerOrder::CpusFirst, ..HeteroPrioConfig::new() };
        let res = heteroprio(&inst, &plat, &cfg);
        res.schedule.validate(&inst, &plat).unwrap();
        assert!(approx_eq(res.makespan(), 1.0));
        assert_eq!(res.spoliations, 1);
    }
}
