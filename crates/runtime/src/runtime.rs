//! The submission front-end: register data, submit tasks, run.

use crate::handles::{Access, DataHandle};
use heteroprio_bounds::dag_lower_bound;
use heteroprio_core::kernel::{KernelPolicy, SnapshotPolicy};
use heteroprio_core::{
    DurabilityOptions, HeteroPrioConfig, KernelSnapshot, Platform, Schedule, Task, TaskId,
};
use heteroprio_metrics::{MetricsRegistry, NullRegistry};
use heteroprio_schedulers::{
    heft, DualHpDagPolicy, DualHpRank, HeftVariant, HeteroPrioDagPolicy, PriorityListPolicy,
};
use heteroprio_simulator::{
    try_resume_faulty, try_simulate_durable, try_simulate_faulty_metered, FaultPlan, SimError,
    TransferModel,
};
use heteroprio_taskgraph::{
    apply_bottom_level_priorities, check_precedence, CycleError, DagBuilder, TaskGraph,
    WeightScheme,
};
use heteroprio_trace::{
    Journal, JournalSink, NullSink, SchedEvent, TeeSink, TraceSummary, VecSink,
};

/// Which scheduler executes the submitted graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scheduler {
    /// HeteroPrio with bottom-level priorities under the given scheme.
    HeteroPrio(WeightScheme),
    /// DualHP; `Priority` rank uses bottom levels under the given scheme.
    DualHp(DualHpRank, WeightScheme),
    /// Static HEFT.
    Heft(WeightScheme, HeftVariant),
    /// Plain priority list scheduling (no affinity, no spoliation).
    PriorityList(WeightScheme),
}

impl Scheduler {
    /// Whether this scheduler runs inside the event kernel and can
    /// therefore journal and resume. Static HEFT builds its schedule
    /// offline and never enters the kernel. Callers should check this
    /// *before* creating journal or checkpoint files, so a rejected run
    /// leaves nothing behind.
    pub fn supports_durable(&self) -> bool {
        !matches!(self, Scheduler::Heft(..))
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::HeteroPrio(WeightScheme::Min)
    }
}

/// Everything the runtime knows after an execution.
#[derive(Clone, Debug)]
pub struct Report {
    pub graph: TaskGraph,
    pub schedule: Schedule,
    pub makespan: f64,
    pub lower_bound: f64,
    pub spoliations: usize,
    /// Per-worker busy/idle/aborted accounting aggregated from the
    /// scheduler's event stream (or reconstructed from the schedule for
    /// static schedulers such as HEFT).
    pub summary: TraceSummary,
    /// The full event stream; empty unless the report came from
    /// [`Runtime::run_traced`].
    pub events: Vec<SchedEvent>,
    /// The fault plan the run executed under ([`FaultPlan::NONE`] for a
    /// fault-free run). Failure/retry/downtime counters live in `summary`.
    pub fault_plan: FaultPlan,
}

impl Report {
    pub fn ratio(&self) -> f64 {
        self.makespan / self.lower_bound
    }
}

/// What a durable run produced: a finished [`Report`], or the injected
/// crash point. On a crash everything emitted before the cut is already in
/// the journal, ready for [`Runtime::resume_from`].
#[derive(Debug)]
pub enum DurableOutcome {
    Completed(Box<Report>),
    Crashed { time: f64, events: u64 },
}

impl DurableOutcome {
    /// The report, if the run survived to the end.
    pub fn report(self) -> Option<Report> {
        match self {
            DurableOutcome::Completed(r) => Some(*r),
            DurableOutcome::Crashed { .. } => None,
        }
    }
}

/// Run a policy under a fault plan, optionally recording the event stream
/// and always reporting kernel metrics into `metrics` (a
/// [`NullRegistry`] compiles the instrumentation away).
fn run_policy<P: KernelPolicy + ?Sized, M: MetricsRegistry + ?Sized>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
    transfer: &TransferModel,
    plan: &FaultPlan,
    record: bool,
    metrics: &M,
) -> Result<(Schedule, TraceSummary, Vec<SchedEvent>), String> {
    if record {
        let mut sink = VecSink::new();
        let res = try_simulate_faulty_metered(
            graph, platform, policy, transfer, plan, &mut sink, metrics,
        )
        .map_err(|e| e.to_string())?;
        Ok((res.schedule, res.summary, sink.into_events()))
    } else {
        let res = try_simulate_faulty_metered(
            graph,
            platform,
            policy,
            transfer,
            plan,
            &mut NullSink,
            metrics,
        )
        .map_err(|e| e.to_string())?;
        Ok((res.schedule, res.summary, Vec::new()))
    }
}

/// A StarPU-like runtime: data registration, task submission with access
/// modes, sequential-consistency dependency inference, and execution on a
/// simulated CPU+GPU node.
///
/// ```
/// use heteroprio_runtime::{Access, Runtime, Scheduler};
/// use heteroprio_core::{Platform, Task};
///
/// let mut rt = Runtime::new(Platform::new(2, 1));
/// let a = rt.register_data("A");
/// let b = rt.register_data("B");
/// // t0 writes A; t1 reads A and writes B → t1 depends on t0.
/// rt.submit(Task::new(2.0, 1.0), "producer", &[(a, Access::Write)]);
/// rt.submit(Task::new(4.0, 1.0), "consumer", &[(a, Access::Read), (b, Access::Write)]);
/// let report = rt.run(Scheduler::default()).unwrap();
/// assert_eq!(report.makespan, 2.0); // both on the GPU, back to back
/// ```
#[derive(Debug, Default)]
pub struct Runtime {
    platform: Option<Platform>,
    builder: DagBuilder,
    data_labels: Vec<&'static str>,
    /// Per handle: the last writer and the readers since that write.
    last_writer: Vec<Option<TaskId>>,
    readers: Vec<Vec<TaskId>>,
    transfer: TransferModel,
    faults: FaultPlan,
}

impl Runtime {
    pub fn new(platform: Platform) -> Self {
        Runtime { platform: Some(platform), ..Runtime::default() }
    }

    /// Set a cross-class transfer penalty (see
    /// [`heteroprio_simulator::TransferModel`]). Zero by default.
    pub fn with_transfer_penalty(mut self, penalty: f64) -> Self {
        self.transfer = TransferModel::new(penalty);
        self
    }

    /// Execute under a fault plan (worker failures, stochastic runtimes,
    /// task-level failures with retry). Not supported by static HEFT.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Register a datum (e.g. a tile); its label is used in reports.
    pub fn register_data(&mut self, label: &'static str) -> DataHandle {
        let h = DataHandle(u32::try_from(self.data_labels.len()).expect("too many handles"));
        self.data_labels.push(label);
        self.last_writer.push(None);
        self.readers.push(Vec::new());
        h
    }

    pub fn data_count(&self) -> usize {
        self.data_labels.len()
    }

    pub fn task_count(&self) -> usize {
        self.builder.len()
    }

    /// Submit a task touching the given handles. Dependencies are inferred
    /// for sequential consistency:
    ///
    /// * a **read** depends on the handle's last writer;
    /// * a **write** depends on the last writer *and* on every reader since
    ///   that write (readers run before the value is clobbered);
    /// * concurrent reads do not order among themselves.
    pub fn submit(
        &mut self,
        task: Task,
        name: &'static str,
        accesses: &[(DataHandle, Access)],
    ) -> TaskId {
        let id = self.builder.add_task(task, name);
        for &(h, access) in accesses {
            assert!(h.index() < self.data_labels.len(), "unregistered handle {h:?}");
            let writer = *self.last_writer.get(h.index()).expect("handle range asserted above");
            if access.writes() {
                self.builder.add_edge_opt(writer, id);
                let readers = self.readers.get_mut(h.index()).expect("handle range asserted above");
                for &r in readers.iter() {
                    if r != id {
                        self.builder.add_edge(r, id);
                    }
                }
                readers.clear();
                *self.last_writer.get_mut(h.index()).expect("handle range asserted above") =
                    Some(id);
                if access.reads() {
                    // RW: the task is also the first reader of its own write;
                    // nothing to record (it cannot depend on itself).
                }
            } else {
                self.builder.add_edge_opt(writer, id);
                self.readers.get_mut(h.index()).expect("handle range asserted above").push(id);
            }
        }
        id
    }

    /// Freeze the submitted graph (without running it).
    pub fn build_graph(self) -> Result<TaskGraph, CycleError> {
        self.builder.build()
    }

    /// Execute everything submitted so far and return the report.
    /// The schedule is validated (structure + precedence) before returning.
    pub fn run(self, scheduler: Scheduler) -> Result<Report, String> {
        self.run_impl(scheduler, false, &NullRegistry)
    }

    /// [`Runtime::run`], additionally recording the scheduler's full
    /// [`SchedEvent`] stream in [`Report::events`] (for export to
    /// Chrome-trace/JSONL). Static schedulers get a stream reconstructed
    /// from the finished schedule.
    pub fn run_traced(self, scheduler: Scheduler) -> Result<Report, String> {
        self.run_impl(scheduler, true, &NullRegistry)
    }

    /// [`Runtime::run_traced`] with a metrics registry: the scheduling
    /// kernel's perf counters, queue-depth gauges and pick-latency
    /// histograms are recorded into `metrics`. Static HEFT builds its
    /// schedule outside the kernel, so it reports no kernel metrics.
    pub fn run_metered<M: MetricsRegistry + ?Sized>(
        self,
        scheduler: Scheduler,
        metrics: &M,
    ) -> Result<Report, String> {
        self.run_impl(scheduler, true, metrics)
    }

    fn run_impl<M: MetricsRegistry + ?Sized>(
        self,
        scheduler: Scheduler,
        record: bool,
        metrics: &M,
    ) -> Result<Report, String> {
        let platform = self.platform.ok_or("runtime has no platform")?;
        let transfer = self.transfer;
        let plan = self.faults;
        let mut graph = self.builder.build().map_err(|e| e.to_string())?;
        if graph.is_empty() {
            return Err("no tasks were submitted".to_string());
        }
        let (schedule, summary, events) = match scheduler {
            Scheduler::Heft(scheme, variant) => {
                if transfer != TransferModel::NONE {
                    return Err("static HEFT does not support transfer penalties".to_string());
                }
                if !plan.is_none() {
                    return Err("static HEFT does not support fault injection; \
                         use an online scheduler"
                        .to_string());
                }
                let schedule = heft(&graph, &platform, scheme, variant);
                let events = schedule.to_events(&platform);
                let summary = TraceSummary::from_events(platform.workers(), &events);
                (schedule, summary, if record { events } else { Vec::new() })
            }
            _ => {
                let mut policy = kernel_policy(scheduler, &mut graph)?;
                let policy = policy.as_mut();
                run_policy(&graph, &platform, policy, &transfer, &plan, record, metrics)?
            }
        };
        finish_report(graph, &platform, &transfer, plan, schedule, summary, events)
    }

    /// [`Runtime::run_traced`] with the event stream additionally appended
    /// to `journal` as it is emitted, and an optional crash/checkpoint plan.
    /// An injected crash ([`heteroprio_core::CrashPlan`]) cuts the run at
    /// the chosen event and returns [`DurableOutcome::Crashed`]; the journal
    /// then holds exactly the pre-crash prefix. Static HEFT builds its
    /// schedule outside the kernel and cannot journal.
    pub fn run_durable<J, M>(
        self,
        scheduler: Scheduler,
        journal: &mut J,
        durability: DurabilityOptions<'_>,
        metrics: &M,
    ) -> Result<DurableOutcome, String>
    where
        J: Journal,
        M: MetricsRegistry + ?Sized,
    {
        let platform = self.platform.ok_or("runtime has no platform")?;
        let transfer = self.transfer;
        let plan = self.faults;
        let mut graph = self.builder.build().map_err(|e| e.to_string())?;
        if graph.is_empty() {
            return Err("no tasks were submitted".to_string());
        }
        let mut policy = kernel_policy(scheduler, &mut graph)?;
        let mut events = VecSink::new();
        let mut jsink = JournalSink::new(journal);
        let res = try_simulate_durable(
            &graph,
            &platform,
            policy.as_mut(),
            &transfer,
            &plan,
            durability,
            &mut TeeSink(&mut events, &mut jsink),
            metrics,
        );
        if let Some(e) = jsink.error() {
            return Err(format!("journal append failed: {e}"));
        }
        // Commit the tail: the sync cadence only bounds loss *during* the
        // run; at completion (or at a simulated crash, whose report points
        // the user at this journal) the whole stream must be durable.
        journal.sync().map_err(|e| format!("final journal sync failed: {e}"))?;
        let res = match res {
            Ok(r) => r,
            Err(SimError::Crashed { time, events }) => {
                return Ok(DurableOutcome::Crashed { time, events })
            }
            Err(e) => return Err(e.to_string()),
        };
        let report = finish_report(
            graph,
            &platform,
            &transfer,
            plan,
            res.schedule,
            res.summary,
            events.into_events(),
        )?;
        Ok(DurableOutcome::Completed(Box::new(report)))
    }

    /// Recover an interrupted durable run: replay the journal (and apply
    /// `snapshot`, when one was checkpointed) to rebuild the exact kernel
    /// state, then continue to completion. The continuation is appended to
    /// `journal`, so after a successful resume the journal holds the full
    /// stream; [`Report::events`] holds it too. Replay is verified
    /// event-for-event — a journal from different inputs is rejected, never
    /// silently accepted.
    pub fn resume_from<J, M>(
        self,
        scheduler: Scheduler,
        snapshot: Option<&KernelSnapshot>,
        journal: &mut J,
        metrics: &M,
    ) -> Result<Report, String>
    where
        J: Journal,
        M: MetricsRegistry + ?Sized,
    {
        let platform = self.platform.ok_or("runtime has no platform")?;
        let transfer = self.transfer;
        let plan = self.faults;
        let mut graph = self.builder.build().map_err(|e| e.to_string())?;
        if graph.is_empty() {
            return Err("no tasks were submitted".to_string());
        }
        let tail = journal.replay().map_err(|e| format!("journal replay failed: {e}"))?;
        let mut policy = kernel_policy(scheduler, &mut graph)?;
        let mut events = VecSink::new();
        let mut jsink = JournalSink::resuming(journal, tail.len());
        let res = try_resume_faulty(
            &graph,
            &platform,
            policy.as_mut(),
            &transfer,
            &plan,
            snapshot,
            &tail,
            &mut TeeSink(&mut events, &mut jsink),
            metrics,
        )
        .map_err(|e| e.to_string())?;
        if let Some(e) = jsink.error() {
            return Err(format!("journal append failed: {e}"));
        }
        // After a successful resume the journal holds the full stream —
        // make the appended continuation durable before reporting success.
        journal.sync().map_err(|e| format!("final journal sync failed: {e}"))?;
        finish_report(
            graph,
            &platform,
            &transfer,
            plan,
            res.schedule,
            res.summary,
            events.into_events(),
        )
    }
}

/// Build the kernel policy for `scheduler`, applying its priority scheme
/// to `graph`. Static HEFT never enters the kernel, so it has no policy
/// (and no online state to journal).
fn kernel_policy(
    scheduler: Scheduler,
    graph: &mut TaskGraph,
) -> Result<Box<dyn SnapshotPolicy>, String> {
    Ok(match scheduler {
        Scheduler::HeteroPrio(scheme) => {
            apply_bottom_level_priorities(graph, scheme);
            Box::new(HeteroPrioDagPolicy::new(HeteroPrioConfig::new()))
        }
        Scheduler::DualHp(rank, scheme) => {
            apply_bottom_level_priorities(graph, scheme);
            Box::new(DualHpDagPolicy::new(rank))
        }
        Scheduler::PriorityList(scheme) => {
            apply_bottom_level_priorities(graph, scheme);
            Box::new(PriorityListPolicy::new())
        }
        Scheduler::Heft(..) => {
            return Err("static HEFT builds its schedule outside the kernel and cannot journal; \
                 use an online scheduler"
                .to_string())
        }
    })
}

/// Validate the finished schedule and assemble the [`Report`] (shared by
/// the plain, durable and resumed execution paths).
fn finish_report(
    graph: TaskGraph,
    platform: &Platform,
    transfer: &TransferModel,
    plan: FaultPlan,
    schedule: Schedule,
    summary: TraceSummary,
    events: Vec<SchedEvent>,
) -> Result<Report, String> {
    if plan.is_none() {
        schedule
            .validate_with_overhead(graph.instance(), platform, transfer.cross_class_penalty)
            .map_err(|e| format!("invalid schedule: {e}"))?;
    } else {
        // Jitter perturbs durations and failures truncate aborted runs,
        // so only the duration-agnostic invariants can be enforced.
        schedule
            .validate_structure(graph.instance(), platform)
            .map_err(|e| format!("invalid schedule: {e}"))?;
    }
    check_precedence(&graph, &schedule)?;
    let makespan = schedule.makespan();
    let spoliations = schedule.spoliation_count();
    let lower_bound = dag_lower_bound(&graph, platform);
    Ok(Report {
        graph,
        schedule,
        makespan,
        lower_bound,
        spoliations,
        summary,
        events,
        fault_plan: plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::time::approx_eq;

    fn unit(p: f64, q: f64) -> Task {
        Task::new(p, q)
    }

    #[test]
    fn read_after_write_orders() {
        let mut rt = Runtime::new(Platform::new(1, 1));
        let a = rt.register_data("a");
        let w = rt.submit(unit(1.0, 1.0), "w", &[(a, Access::Write)]);
        let r = rt.submit(unit(1.0, 1.0), "r", &[(a, Access::Read)]);
        let g = rt.build_graph().unwrap();
        assert_eq!(g.predecessors(r), &[w]);
    }

    #[test]
    fn reads_are_concurrent() {
        let mut rt = Runtime::new(Platform::new(2, 2));
        let a = rt.register_data("a");
        rt.submit(unit(1.0, 1.0), "w", &[(a, Access::Write)]);
        let r1 = rt.submit(unit(1.0, 1.0), "r1", &[(a, Access::Read)]);
        let r2 = rt.submit(unit(1.0, 1.0), "r2", &[(a, Access::Read)]);
        let g = rt.build_graph().unwrap();
        assert!(!g.predecessors(r2).contains(&r1));
        // Both readers depend only on the writer: 1 + 1 = 2 time units.
        let mut rt2 = Runtime::new(Platform::new(2, 2));
        let a = rt2.register_data("a");
        rt2.submit(unit(1.0, 1.0), "w", &[(a, Access::Write)]);
        rt2.submit(unit(1.0, 1.0), "r1", &[(a, Access::Read)]);
        rt2.submit(unit(1.0, 1.0), "r2", &[(a, Access::Read)]);
        let report = rt2.run(Scheduler::default()).unwrap();
        assert!(approx_eq(report.makespan, 2.0), "{}", report.makespan);
    }

    #[test]
    fn write_after_read_waits_for_readers() {
        let mut rt = Runtime::new(Platform::new(2, 2));
        let a = rt.register_data("a");
        let w1 = rt.submit(unit(1.0, 1.0), "w1", &[(a, Access::Write)]);
        let r = rt.submit(unit(5.0, 5.0), "r", &[(a, Access::Read)]);
        let w2 = rt.submit(unit(1.0, 1.0), "w2", &[(a, Access::Write)]);
        let g = rt.build_graph().unwrap();
        let mut preds = g.predecessors(w2).to_vec();
        preds.sort();
        assert_eq!(preds, vec![w1, r]);
    }

    #[test]
    fn writers_chain() {
        let mut rt = Runtime::new(Platform::new(1, 1));
        let a = rt.register_data("a");
        let ids: Vec<_> =
            (0..5).map(|_| rt.submit(unit(1.0, 2.0), "acc", &[(a, Access::ReadWrite)])).collect();
        // Each RW depends exactly on the previous RW.
        let g = rt.builder.clone().build().unwrap();
        for pair in ids.windows(2) {
            assert_eq!(g.predecessors(pair[1]), &[pair[0]]);
        }
        let mut rt = Runtime::new(Platform::new(1, 1));
        let a = rt.register_data("a");
        for _ in 0..5 {
            rt.submit(unit(1.0, 2.0), "acc", &[(a, Access::ReadWrite)]);
        }
        let report = rt.run(Scheduler::default()).unwrap();
        // Fully serial chain, CPU faster (1.0 each).
        assert!(approx_eq(report.makespan, 5.0), "{}", report.makespan);
    }

    #[test]
    fn independent_data_runs_in_parallel() {
        let mut rt = Runtime::new(Platform::new(2, 2));
        for i in 0..4 {
            let h = rt.register_data(if i % 2 == 0 { "x" } else { "y" });
            rt.submit(unit(3.0, 3.0), "job", &[(h, Access::ReadWrite)]);
        }
        let report = rt.run(Scheduler::default()).unwrap();
        assert!(approx_eq(report.makespan, 3.0), "{}", report.makespan);
    }

    #[test]
    fn all_schedulers_run_a_stencil() {
        // A small 1D stencil: u[i] ← f(u[i-1], u[i], u[i+1]) over 3 sweeps.
        let build = || {
            let mut rt = Runtime::new(Platform::new(2, 1));
            let cells: Vec<DataHandle> = (0..6).map(|_| rt.register_data("cell")).collect();
            for _sweep in 0..3 {
                for i in 0..cells.len() {
                    let mut acc = vec![(cells[i], Access::ReadWrite)];
                    if i > 0 {
                        acc.push((cells[i - 1], Access::Read));
                    }
                    if i + 1 < cells.len() {
                        acc.push((cells[i + 1], Access::Read));
                    }
                    rt.submit(unit(2.0, 1.0), "stencil", &acc);
                }
            }
            rt
        };
        for scheduler in [
            Scheduler::HeteroPrio(WeightScheme::Min),
            Scheduler::DualHp(DualHpRank::Fifo, WeightScheme::Min),
            Scheduler::DualHp(DualHpRank::Priority, WeightScheme::Avg),
            Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion),
            Scheduler::PriorityList(WeightScheme::Avg),
        ] {
            let report = build().run(scheduler).unwrap();
            assert!(report.makespan >= report.lower_bound - 1e-9, "{scheduler:?}");
            assert_eq!(report.graph.len(), 18);
        }
    }

    #[test]
    fn transfer_penalty_flows_through() {
        let mut rt = Runtime::new(Platform::new(1, 1)).with_transfer_penalty(0.5);
        let a = rt.register_data("a");
        rt.submit(unit(10.0, 1.0), "w", &[(a, Access::Write)]);
        rt.submit(unit(1.0, 10.0), "r", &[(a, Access::Read)]);
        let report = rt.run(Scheduler::HeteroPrio(WeightScheme::Min)).unwrap();
        // GPU runs the first (1.0), CPU the second (1.0 + 0.5 cross penalty).
        assert!(approx_eq(report.makespan, 2.5), "{}", report.makespan);
    }

    #[test]
    fn empty_submission_is_an_error() {
        let rt = Runtime::new(Platform::new(1, 1));
        assert!(rt.run(Scheduler::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "unregistered handle")]
    fn unknown_handle_panics() {
        let mut rt = Runtime::new(Platform::new(1, 1));
        rt.submit(unit(1.0, 1.0), "bad", &[(DataHandle(7), Access::Read)]);
    }

    #[test]
    fn faults_flow_through_the_runtime() {
        use heteroprio_simulator::{FaultPlan, WorkerFault};
        // 2 CPUs + 1 GPU; the GPU dies early, yet the chain completes.
        let build = || {
            let mut rt = Runtime::new(Platform::new(2, 1));
            let a = rt.register_data("a");
            for _ in 0..6 {
                rt.submit(unit(2.0, 1.0), "step", &[(a, Access::ReadWrite)]);
            }
            rt
        };
        let baseline = build().run(Scheduler::default()).unwrap();
        let plan = FaultPlan {
            worker_faults: vec![WorkerFault::permanent(2, 1.5)],
            ..FaultPlan::default()
        };
        let report = build().with_faults(plan.clone()).run_traced(Scheduler::default()).unwrap();
        assert_eq!(report.fault_plan, plan);
        assert_eq!(report.summary.worker_failures, 1);
        assert!(report.makespan > baseline.makespan, "losing the GPU must cost time");
        // Every task still completed exactly once.
        assert_eq!(report.schedule.runs.len(), 6);
    }

    #[test]
    fn zero_fault_plan_matches_fault_free_run() {
        use heteroprio_simulator::FaultPlan;
        let build = || {
            let mut rt = Runtime::new(Platform::new(2, 1));
            let a = rt.register_data("a");
            rt.submit(unit(2.0, 1.0), "w", &[(a, Access::Write)]);
            rt.submit(unit(3.0, 1.0), "r", &[(a, Access::ReadWrite)]);
            rt
        };
        let plain = build().run(Scheduler::default()).unwrap();
        let faulty = build().with_faults(FaultPlan::NONE).run(Scheduler::default()).unwrap();
        assert_eq!(plain.makespan, faulty.makespan);
        assert_eq!(plain.schedule.runs, faulty.schedule.runs);
    }

    #[test]
    fn crash_and_resume_matches_the_uninterrupted_run() {
        use heteroprio_core::{CrashPlan, MemCheckpointStore};
        use heteroprio_trace::MemJournal;
        let build = || {
            let mut rt = Runtime::new(Platform::new(2, 1));
            let cells: Vec<DataHandle> = (0..4).map(|_| rt.register_data("c")).collect();
            for _ in 0..3 {
                for &c in &cells {
                    rt.submit(unit(3.0, 1.0), "sweep", &[(c, Access::ReadWrite)]);
                }
            }
            rt
        };
        for scheduler in [
            Scheduler::HeteroPrio(WeightScheme::Min),
            Scheduler::DualHp(DualHpRank::Priority, WeightScheme::Min),
            Scheduler::PriorityList(WeightScheme::Min),
        ] {
            let reference = build().run_traced(scheduler).unwrap();
            let total = reference.events.len() as u64;
            for crash_at in [1, total / 2, total] {
                let mut journal = MemJournal::new();
                let mut store = MemCheckpointStore::default();
                let durability = DurabilityOptions {
                    crash: CrashPlan::at_event(crash_at),
                    checkpoint_every: Some(3),
                    store: Some(&mut store),
                };
                let outcome = build()
                    .run_durable(scheduler, &mut journal, durability, &NullRegistry)
                    .unwrap();
                assert!(
                    matches!(outcome, DurableOutcome::Crashed { events, .. } if events == crash_at)
                );
                assert_eq!(journal.len() as u64, crash_at);
                let resumed = build()
                    .resume_from(scheduler, store.latest.as_ref(), &mut journal, &NullRegistry)
                    .unwrap();
                assert_eq!(resumed.events, reference.events, "{scheduler:?} @ {crash_at}");
                assert_eq!(resumed.schedule.runs, reference.schedule.runs);
                // The journal now holds the full stream again, and both the
                // crashed run and the resume committed their tails.
                assert_eq!(journal.events(), reference.events.as_slice());
                assert!(journal.syncs() >= 2, "final syncs at crash and at resume");
            }
        }
    }

    #[test]
    fn durable_run_without_crash_completes_and_journals_everything() {
        use heteroprio_trace::MemJournal;
        let build = || {
            let mut rt = Runtime::new(Platform::new(1, 1));
            let a = rt.register_data("a");
            for _ in 0..4 {
                rt.submit(unit(2.0, 1.0), "step", &[(a, Access::ReadWrite)]);
            }
            rt
        };
        let reference = build().run_traced(Scheduler::default()).unwrap();
        let mut journal = MemJournal::new();
        let report = build()
            .run_durable(
                Scheduler::default(),
                &mut journal,
                DurabilityOptions::default(),
                &NullRegistry,
            )
            .unwrap()
            .report()
            .expect("no crash was injected");
        assert_eq!(report.events, reference.events);
        assert_eq!(journal.events(), reference.events.as_slice());
        assert_eq!(journal.syncs(), 1, "completion commits the journal tail");
        // HEFT has no kernel to journal.
        let mut journal = MemJournal::new();
        let err = build().run_durable(
            Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion),
            &mut journal,
            DurabilityOptions::default(),
            &NullRegistry,
        );
        assert!(err.unwrap_err().contains("cannot journal"));
    }

    #[test]
    fn heft_rejects_fault_injection() {
        use heteroprio_simulator::{FaultPlan, WorkerFault};
        let mut rt = Runtime::new(Platform::new(1, 1));
        let a = rt.register_data("a");
        rt.submit(unit(1.0, 1.0), "t", &[(a, Access::Write)]);
        let plan = FaultPlan {
            worker_faults: vec![WorkerFault::permanent(0, 1.0)],
            ..FaultPlan::default()
        };
        let err =
            rt.with_faults(plan).run(Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion));
        assert!(err.unwrap_err().contains("fault injection"));
    }

    #[test]
    fn heft_rejects_transfer_model() {
        let mut rt = Runtime::new(Platform::new(1, 1)).with_transfer_penalty(1.0);
        let a = rt.register_data("a");
        rt.submit(unit(1.0, 1.0), "t", &[(a, Access::Write)]);
        let err = rt.run(Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion));
        assert!(err.is_err());
    }
}
