//! The spoliation victim memo is exact.
//!
//! Every HeteroPrio policy owns a [`VictimScan`](heteroprio::core::VictimScan)
//! that remembers, per resource class, the `(now, epoch)` at which a scan
//! found no victim. These tests pin the two facts that make that safe:
//!
//! * a memoizing policy schedules exactly like one that runs the original
//!   collect-sort-first-match scan on every call (frozen below as the
//!   oracle), under transfer penalties, worker faults, task failures and
//!   jitter, at k = 2 and k = 3;
//! * the kernel's state epoch names one state: every callback that sees an
//!   epoch sees the same running tasks, liveness and `ran_kind`, and no
//!   two kernels hand out the same epoch, so a policy reused across runs
//!   or across a crash and resume behaves like a fresh one.

use heteroprio::core::kernel::{KernelContext, KernelPolicy, Pick, RunningTask, SnapshotPolicy};
use heteroprio::core::time::strictly_less;
use heteroprio::core::{
    CheckpointStore, ClassId, CrashPlan, DurabilityOptions, HeteroPrioConfig, MemCheckpointStore,
    Platform, QueueTieBreak, SpoliationTieBreak, Task, TaskId, WorkerId, WorkerOrder,
};
use heteroprio::metrics::NullRegistry;
use heteroprio::schedulers::HeteroPrioDagPolicy;
use heteroprio::simulator::{
    try_resume_faulty, try_simulate_durable, try_simulate_faulty, FaultPlan, RetryPolicy, SimError,
    SimResult, TransferModel, WorkerFault,
};
use heteroprio::taskgraph::{
    apply_bottom_level_priorities, cholesky, qr, DagBuilder, TaskGraph, WeightScheme,
};
use heteroprio::trace::{Journal, JournalSink, MemJournal, NullSink, SchedEvent, VecSink};
use heteroprio::workloads::ChameleonTiming;
use proptest::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// The victim scan before the memo, frozen: collect every task running on
/// another class, sort by expected completion (descending) and the tie
/// rule, and return the first whose restart strictly improves it.
fn oracle_victim(
    tie: SpoliationTieBreak,
    w: WorkerId,
    ctx: &KernelContext<'_>,
) -> Option<WorkerId> {
    let my_class = ctx.platform.class_of(w);
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

/// The DAG policy's queue with the frozen oracle scan in place of its
/// memoizing one.
struct OraclePolicy {
    config: HeteroPrioConfig,
    queue: HeteroPrioDagPolicy,
}

impl OraclePolicy {
    fn new(config: HeteroPrioConfig) -> Self {
        OraclePolicy { config, queue: HeteroPrioDagPolicy::new(config) }
    }
}

impl KernelPolicy for OraclePolicy {
    fn on_ready(&mut self, tasks: &[TaskId], ctx: &KernelContext<'_>) {
        self.queue.on_ready(tasks, ctx);
    }

    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
        self.queue.pick(worker, ctx)
    }

    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<WorkerId> {
        if self.config.disable_spoliation {
            return None;
        }
        oracle_victim(self.config.spoliation_tie, worker, ctx)
    }

    fn worker_order(&self) -> WorkerOrder {
        self.config.worker_order
    }
}

type KernelState = (Vec<Option<RunningTask>>, Vec<bool>, Vec<Option<ClassId>>);

/// Wraps a policy and checks the epoch contract on every callback: the
/// first state seen under an epoch is the only one any callback may see
/// under it.
struct EpochChecked<P> {
    inner: P,
    seen: BTreeMap<u64, KernelState>,
}

impl<P> EpochChecked<P> {
    fn new(inner: P) -> Self {
        EpochChecked { inner, seen: BTreeMap::new() }
    }

    fn check(&mut self, ctx: &KernelContext<'_>) {
        let state = (ctx.running.to_vec(), ctx.alive.to_vec(), ctx.ran_kind.to_vec());
        match self.seen.entry(ctx.epoch) {
            Entry::Vacant(slot) => {
                slot.insert(state);
            }
            Entry::Occupied(first) => assert!(
                *first.get() == state,
                "epoch {} names two kernel states (t = {})",
                ctx.epoch,
                ctx.now
            ),
        }
    }
}

impl<P: KernelPolicy> KernelPolicy for EpochChecked<P> {
    fn on_ready(&mut self, tasks: &[TaskId], ctx: &KernelContext<'_>) {
        self.check(ctx);
        self.inner.on_ready(tasks, ctx);
    }

    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
        self.check(ctx);
        self.inner.pick(worker, ctx)
    }

    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<WorkerId> {
        self.check(ctx);
        self.inner.spoliation_victim(worker, ctx)
    }

    fn worker_order(&self) -> WorkerOrder {
        self.inner.worker_order()
    }
}

impl<P: SnapshotPolicy> SnapshotPolicy for EpochChecked<P> {
    fn ready_order(&self) -> Vec<TaskId> {
        self.inner.ready_order()
    }

    fn restore(&mut self, ready: &[TaskId], ctx: &KernelContext<'_>) {
        self.check(ctx);
        self.inner.restore(ready, ctx);
    }
}

/// What a run decided: the schedule, its aborted runs and the spoliation
/// count, or the error that stopped it.
type Outcome =
    Result<(Vec<heteroprio::core::TaskRun>, Vec<heteroprio::core::TaskRun>, usize), SimError>;

fn outcome(res: Result<SimResult, SimError>) -> Outcome {
    res.map(|r| (r.schedule.runs, r.schedule.aborted, r.spoliations))
}

const TIMES: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 8.0];

/// A DAG over tie-dense tasks: `k` class times from [`TIMES`] per task,
/// edges only from lower to higher index.
fn random_graph(k: usize, rows: &[(Vec<usize>, usize)], edges: &[(usize, usize)]) -> TaskGraph {
    let mut builder = DagBuilder::new();
    let ids: Vec<TaskId> = rows
        .iter()
        .map(|(times, priority)| {
            let times: Vec<f64> = times.iter().take(k).map(|&i| TIMES[i]).collect();
            builder.add_task(Task::from_times(&times).with_priority(*priority as f64), "t")
        })
        .collect();
    let n = ids.len();
    let forward: BTreeSet<(usize, usize)> =
        edges.iter().map(|&(a, b)| (a % n, b % n)).filter(|(a, b)| a < b).collect();
    for (a, b) in forward {
        builder.add_edge(ids[a], ids[b]);
    }
    builder.build().expect("forward edges are acyclic")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The memoizing scan and the frozen oracle drive the kernel to the same
    // schedule, bit for bit, under every spoliation tie rule; on the memo
    // side the epoch contract is checked on every callback. Fault times
    // sit on half-units, so recoveries often land at instants where
    // nothing else happens.
    #[test]
    fn memoized_scan_schedules_like_the_oracle(
        k in 2usize..4,
        rows in prop::collection::vec((prop::collection::vec(0usize..5, 3..4), 0usize..3), 1..24),
        edges in prop::collection::vec((0usize..24, 0usize..24), 0..40),
        counts in prop::collection::vec(1usize..4, 3..4),
        penalty in 0usize..3,
        faults in prop::collection::vec((0usize..12, 0u32..24, 0u32..12), 0..5),
        fail in 0usize..2,
        jitter in 0usize..2,
        seed in 0u64..1000,
        order in 0usize..3,
    ) {
        let graph = random_graph(k, &rows, &edges);
        let platform = Platform::from_counts(&counts[..k]);
        let workers = platform.workers();
        let plan = FaultPlan {
            worker_faults: faults
                .iter()
                .map(|&(w, at, down)| {
                    let (w, at) = ((w % workers) as u32, f64::from(at) / 2.0);
                    // One fault in twelve is permanent; the rest recover.
                    if down == 0 {
                        WorkerFault::permanent(w, at)
                    } else {
                        WorkerFault::transient(w, at, f64::from(down) / 2.0)
                    }
                })
                .collect(),
            task_failure_prob: [0.0, 0.15][fail],
            exec_jitter: [0.0, 0.2][jitter],
            seed,
            retry: RetryPolicy { max_attempts: 4, backoff_base: 0.5, backoff_cap: 4.0 },
        };
        let model = TransferModel::new([0.0, 0.5, 2.0][penalty]);
        let worker_order = [WorkerOrder::GpusFirst, WorkerOrder::CpusFirst, WorkerOrder::ById][order];
        for spoliation_tie in [
            SpoliationTieBreak::PriorityThenId,
            SpoliationTieBreak::IdAscending,
            SpoliationTieBreak::IdDescending,
        ] {
            let config = HeteroPrioConfig { spoliation_tie, worker_order, ..HeteroPrioConfig::new() };
            let mut oracle = OraclePolicy::new(config);
            let expected = outcome(try_simulate_faulty(
                &graph, &platform, &mut oracle, &model, &plan, &mut NullSink,
            ));
            let mut memo = EpochChecked::new(HeteroPrioDagPolicy::new(config));
            let got = outcome(try_simulate_faulty(
                &graph, &platform, &mut memo, &model, &plan, &mut NullSink,
            ));
            prop_assert_eq!(got, expected, "{:?}", config);
        }
    }
}

fn ranked(mut graph: TaskGraph) -> TaskGraph {
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    graph
}

/// One task on one CPU and one GPU. At t = 0 the GPU takes it (GPUs are
/// served first) and the CPU then scans for a victim: a GPU-friendly task
/// leaves it nothing to steal, a CPU-friendly one is stolen at once. Run
/// back to back, the two reach the CPU's scan at the same instant after
/// the same number of kernel state changes, so a memo whose epochs
/// restarted with each run would wrongly skip the second steal.
fn single_task(cpu: f64, gpu: f64) -> TaskGraph {
    let mut builder = DagBuilder::new();
    builder.add_task(Task::new(cpu, gpu), "only");
    builder.build().expect("one task is acyclic")
}

fn events_of<P: KernelPolicy>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
) -> (Vec<SchedEvent>, Outcome) {
    let mut sink = VecSink::new();
    let res = try_simulate_faulty(
        graph,
        platform,
        policy,
        &TransferModel::NONE,
        &FaultPlan::NONE,
        &mut sink,
    );
    (sink.events, outcome(res))
}

/// Two GPU-friendly tasks on one CPU and one GPU: the GPU takes the
/// first, the CPU the second, and at t = 1 the GPU, idle, steals the
/// second back. A GPU-friendly single task ends at t = 1 too, with the GPU
/// finding no victim, so after it a memo keyed by the instant alone would
/// skip this steal.
fn stolen_at_one() -> TaskGraph {
    let mut builder = DagBuilder::new();
    builder.add_task(Task::new(10.0, 1.0), "first");
    builder.add_task(Task::new(20.0, 5.0), "second");
    builder.build().expect("no edges")
}

#[test]
fn a_reused_policy_matches_fresh_ones_run_after_run() {
    let cases = [
        (single_task(10.0, 1.0), Platform::new(1, 1)),
        (single_task(1.0, 10.0), Platform::new(1, 1)),
        (single_task(10.0, 1.0), Platform::new(1, 1)),
        (stolen_at_one(), Platform::new(1, 1)),
        (ranked(cholesky(4, &ChameleonTiming)), Platform::new(2, 1)),
        (single_task(10.0, 1.0), Platform::new(1, 1)),
        (single_task(1.0, 10.0), Platform::new(1, 1)),
        (ranked(qr(4, &ChameleonTiming)), Platform::new(3, 2)),
        (ranked(cholesky(6, &ChameleonTiming)), Platform::new(20, 4)),
    ];
    let config = HeteroPrioConfig::new();
    let mut reused = EpochChecked::new(HeteroPrioDagPolicy::new(config));
    for (i, (graph, platform)) in cases.iter().enumerate() {
        let fresh = events_of(graph, platform, &mut HeteroPrioDagPolicy::new(config));
        let again = events_of(graph, platform, &mut reused);
        assert_eq!(again, fresh, "run {i}");
    }
    // Both traps spoliate, so they had something to catch.
    for (graph, platform) in [&cases[1], &cases[3]] {
        let (_, stolen) = events_of(graph, platform, &mut HeteroPrioDagPolicy::new(config));
        assert_eq!(stolen.expect("fault-free").2, 1);
    }
}

/// Crash `graph` at `crash_at` with a fresh policy, then resume it with
/// `policy`, from the journal alone and from the latest checkpoint.
fn crash_and_resume<P: SnapshotPolicy>(
    graph: &TaskGraph,
    platform: &Platform,
    crash_at: u64,
    policy: &mut P,
) -> Vec<(Vec<SchedEvent>, Outcome)> {
    let mut journal = MemJournal::new();
    let mut store = MemCheckpointStore::new();
    let mut sink = JournalSink::new(&mut journal);
    let crashed = try_simulate_durable(
        graph,
        platform,
        &mut HeteroPrioDagPolicy::new(HeteroPrioConfig::new()),
        &TransferModel::NONE,
        &FaultPlan::NONE,
        DurabilityOptions {
            crash: CrashPlan::at_event(crash_at),
            checkpoint_every: Some(3),
            store: Some(&mut store as &mut dyn CheckpointStore),
        },
        &mut sink,
        &NullRegistry,
    );
    assert!(matches!(crashed, Err(SimError::Crashed { .. })), "{crashed:?}");
    let prefix = journal.replay().expect("an in-memory journal replays");
    let snapshot = store.latest.take();
    [None, snapshot.as_ref()]
        .into_iter()
        .map(|snapshot| {
            let mut sink = VecSink::new();
            let res = try_resume_faulty(
                graph,
                platform,
                policy,
                &TransferModel::NONE,
                &FaultPlan::NONE,
                snapshot,
                &prefix,
                &mut sink,
                &NullRegistry,
            );
            (sink.events, outcome(res))
        })
        .collect()
}

#[test]
fn a_reused_policy_resumes_like_a_fresh_one() {
    let config = HeteroPrioConfig { queue_tie: QueueTieBreak::Priority, ..HeteroPrioConfig::new() };
    let cases = [
        (single_task(1.0, 10.0), Platform::new(1, 1)),
        (ranked(cholesky(5, &ChameleonTiming)), Platform::new(4, 2)),
    ];
    for (graph, platform) in &cases {
        let (reference, _) = events_of(graph, platform, &mut HeteroPrioDagPolicy::new(config));
        for crash_at in 1..=reference.len() as u64 {
            // Journal-only resume reruns from t = 0, so the reused policy
            // must enter it with an empty queue: each one has just finished
            // a full run of a different graph, which leaves only its memo.
            let mut reused = EpochChecked::new(HeteroPrioDagPolicy::new(config));
            let _ = events_of(&single_task(10.0, 1.0), &Platform::new(1, 1), &mut reused);
            let resumed = crash_and_resume(graph, platform, crash_at, &mut reused);
            assert_eq!(resumed[0].0, reference, "journal-only, crash at {crash_at}");
            let fresh =
                crash_and_resume(graph, platform, crash_at, &mut HeteroPrioDagPolicy::new(config));
            assert_eq!(resumed, fresh, "crash at {crash_at}");
        }
    }
}
