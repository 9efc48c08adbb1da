//! DAG-mode HeteroPrio (§6.2 of the paper).
//!
//! "Since HeteroPrio is a list algorithm, HeteroPrio rule can be used to
//! assign a ready task to any idle resource. If no ready task is available
//! for an idle resource, a spoliation attempt is done on currently running
//! tasks." Priorities (bottom levels) break ties among equal acceleration
//! factors and among spoliation candidates with equal completion times.

use heteroprio_core::kernel::{KernelContext, KernelPolicy, Pick, SnapshotPolicy};
use heteroprio_core::{ClassQueue, HeteroPrioConfig, TaskId, VictimScan, WorkerId, WorkerOrder};

/// HeteroPrio as a kernel policy for the runtime engine: core's
/// [`ClassQueue`] (acceleration factor primary, the paper's priority tie
/// rule secondary, arrival order final) and core's [`VictimScan`], the
/// same queue rule and spoliation test as Algorithm 1.
pub struct HeteroPrioDagPolicy {
    config: HeteroPrioConfig,
    /// Sized to the platform's class count at the first announcement.
    queue: Option<ClassQueue>,
    victims: VictimScan,
}

impl HeteroPrioDagPolicy {
    pub fn new(config: HeteroPrioConfig) -> Self {
        HeteroPrioDagPolicy { config, queue: None, victims: VictimScan::new(config.spoliation_tie) }
    }
}

impl KernelPolicy for HeteroPrioDagPolicy {
    fn on_ready(&mut self, tasks: &[TaskId], ctx: &KernelContext<'_>) {
        let tie = self.config.queue_tie;
        let queue = self.queue.get_or_insert_with(|| ClassQueue::new(ctx.platform.k(), tie));
        for &t in tasks {
            queue.push(ctx.instance, t);
        }
    }

    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
        // A generic pick: the DAG event stream records it as a policy
        // decision, without a queue-end annotation.
        let (task, _) = self.queue.as_mut()?.pop(ctx.platform.class_of(worker))?;
        Some(Pick { task, queue_end: None })
    }

    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<WorkerId> {
        if self.config.disable_spoliation {
            return None;
        }
        self.victims.victim(worker, ctx)
    }

    fn worker_order(&self) -> WorkerOrder {
        self.config.worker_order
    }
}

impl SnapshotPolicy for HeteroPrioDagPolicy {
    // The default `restore` (re-announce through `on_ready`) is exact: the
    // class queue orders by acceleration factor, then the configured tie
    // rule, then arrival sequence, and re-pushing in `iter()` order (GPU end
    // to CPU end) assigns fresh ascending sequence numbers that reproduce
    // the original arbitration.
    fn ready_order(&self) -> Vec<TaskId> {
        self.queue.iter().flat_map(ClassQueue::iter).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::time::approx_eq;
    use heteroprio_core::{
        heteroprio, Instance, Platform, QueueTieBreak, ResourceKind, SpoliationTieBreak, Task,
    };
    use heteroprio_simulator::{simulate, simulate_with, TransferModel};
    use heteroprio_taskgraph::{check_precedence, cholesky, ConstTiming, DagBuilder, TaskGraph};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // On an edge-free graph the DAG policy must reproduce the core
        // independent-task engine bit for bit, under every configuration:
        // both queue tie rules, every worker order, every spoliation tie
        // rule, spoliation on and off. Times come from a small set so ties
        // in ρ, completion time and priority are common.
        #[test]
        fn matches_core_heteroprio_on_independent_tasks(
            rows in prop::collection::vec((0usize..5, 0usize..5, 0usize..3), 1..24),
            cpus in 1usize..4,
            gpus in 1usize..3,
        ) {
            const TIMES: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 8.0];
            let mut inst = Instance::new();
            for &(p, q, pri) in &rows {
                inst.push(Task::new(TIMES[p], TIMES[q]).with_priority(pri as f64));
            }
            let plat = Platform::new(cpus, gpus);
            let g = TaskGraph::independent(inst.clone());
            for queue_tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
                for worker_order in [WorkerOrder::GpusFirst, WorkerOrder::CpusFirst, WorkerOrder::ById] {
                    for spoliation_tie in [
                        SpoliationTieBreak::PriorityThenId,
                        SpoliationTieBreak::IdAscending,
                        SpoliationTieBreak::IdDescending,
                    ] {
                        for disable_spoliation in [false, true] {
                            let cfg = HeteroPrioConfig {
                                queue_tie,
                                worker_order,
                                spoliation_tie,
                                disable_spoliation,
                            };
                            let core = heteroprio(&inst, &plat, &cfg);
                            let dag = simulate(&g, &plat, &mut HeteroPrioDagPolicy::new(cfg));
                            prop_assert_eq!(&core.schedule.runs, &dag.schedule.runs, "{:?}", cfg);
                            prop_assert_eq!(&core.schedule.aborted, &dag.schedule.aborted, "{:?}", cfg);
                            prop_assert_eq!(core.spoliations, dag.spoliations, "{:?}", cfg);
                        }
                    }
                }
            }
        }
    }

    /// The class queue is k-aware, so the DAG policy also reproduces the
    /// core engine beyond two classes.
    #[test]
    fn matches_core_heteroprio_at_three_classes() {
        let times =
            [[4.0, 1.0, 2.0], [1.0, 3.0, 2.0], [2.0, 2.0, 1.0], [8.0, 1.0, 1.0], [1.0, 1.0, 4.0]];
        let mut inst = Instance::new();
        for (i, row) in times.iter().cycle().take(17).enumerate() {
            inst.push(Task::from_times(row).with_priority((i % 3) as f64));
        }
        let plat = Platform::from_counts(&[3, 2, 1]);
        let cfg = HeteroPrioConfig::new();
        let core = heteroprio(&inst, &plat, &cfg);
        let g = TaskGraph::independent(inst.clone());
        let dag = simulate(&g, &plat, &mut HeteroPrioDagPolicy::new(cfg));
        dag.schedule.validate(&inst, &plat).unwrap();
        assert_eq!(core.schedule.runs, dag.schedule.runs);
        assert_eq!(core.schedule.aborted, dag.schedule.aborted);
        assert_eq!(core.spoliations, dag.spoliations);
    }

    /// The victim scan prices a restart with the transfer penalty the
    /// kernel will charge. `b` follows `a`, which runs on the CPU, so `b`
    /// restarted on the GPU pays the penalty: at 1.5 the steal no longer
    /// strictly improves `b`'s completion, and the scan must skip it (the
    /// kernel panics on a non-improving spoliation).
    #[test]
    fn victim_scan_counts_the_transfer_penalty() {
        let mut builder = DagBuilder::new();
        let a = builder.add_task(Task::new(1.0, 100.0), "a");
        builder.add_task(Task::new(100.0, 2.0), "c");
        let b = builder.add_task(Task::new(4.0, 2.0), "b");
        builder.add_edge(a, b);
        let g = builder.build().unwrap();
        let plat = Platform::new(1, 1);
        let cfg = HeteroPrioConfig::new();

        let free =
            simulate_with(&g, &plat, &mut HeteroPrioDagPolicy::new(cfg), &TransferModel::NONE);
        assert_eq!(free.spoliations, 1);
        assert!(approx_eq(free.makespan(), 4.0), "{}", free.makespan());

        let model = TransferModel::new(1.5);
        let taxed = simulate_with(&g, &plat, &mut HeteroPrioDagPolicy::new(cfg), &model);
        assert_eq!(taxed.spoliations, 0);
        assert!(approx_eq(taxed.makespan(), 5.0), "{}", taxed.makespan());
        check_precedence(&g, &taxed.schedule).unwrap();
    }

    #[test]
    fn cholesky_runs_to_completion_and_respects_deps() {
        let g = cholesky(6, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let plat = Platform::new(4, 2);
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
        let res = simulate(&g, &plat, &mut policy);
        res.schedule.validate(g.instance(), &plat).unwrap();
        check_precedence(&g, &res.schedule).unwrap();
        assert!(res.makespan() > 0.0);
    }

    #[test]
    fn spoliation_disabled_config_spoliates_nothing() {
        let inst = Instance::from_times(&[(100.0, 1.0), (100.0, 1.0)]);
        let g = TaskGraph::independent(inst);
        let plat = Platform::new(1, 1);
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::without_spoliation());
        let res = simulate(&g, &plat, &mut policy);
        assert_eq!(res.spoliations, 0);
        assert!(approx_eq(res.makespan(), 100.0));
    }

    #[test]
    fn queue_serves_extremes_to_matching_resources() {
        // Four ready tasks with distinct ρ: GPU should take the highest-ρ
        // tasks, CPU the lowest.
        let inst = Instance::from_times(&[(8.0, 1.0), (4.0, 1.0), (1.0, 4.0), (1.0, 8.0)]);
        let g = TaskGraph::independent(inst.clone());
        let plat = Platform::new(2, 2);
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
        let res = simulate(&g, &plat, &mut policy);
        for r in &res.schedule.runs {
            let rho = inst.task(r.task).accel_factor();
            let kind = plat.kind_of(r.worker);
            if rho > 1.0 {
                assert_eq!(kind, ResourceKind::Gpu, "{} with rho {rho}", r.task);
            } else {
                assert_eq!(kind, ResourceKind::Cpu, "{} with rho {rho}", r.task);
            }
        }
        assert!(approx_eq(res.makespan(), 1.0));
    }
}
