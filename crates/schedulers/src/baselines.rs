//! Simple baseline policies.
//!
//! * [`PriorityListPolicy`] — a plain list scheduler: any idle worker takes
//!   the highest-priority ready task, ignoring affinity. This is the §3
//!   cautionary baseline: without spoliation, list scheduling on unrelated
//!   resources has no approximation guarantee.
//! * [`RandomPolicy`] — uniformly random ready task; a chaos monkey for the
//!   engine and a floor for the experiments.

use heteroprio_core::kernel::{KernelContext, KernelPolicy, Pick, SnapshotPolicy};
use heteroprio_core::time::F64Ord;
use heteroprio_core::{TaskId, WorkerId, WorkerOrder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Plain list scheduler: highest priority first, no affinity, no spoliation.
#[derive(Debug, Default)]
pub struct PriorityListPolicy {
    // Max-priority first: keyed by (-priority, id).
    queue: BTreeSet<(F64Ord, TaskId)>,
}

impl PriorityListPolicy {
    pub fn new() -> Self {
        PriorityListPolicy::default()
    }
}

impl KernelPolicy for PriorityListPolicy {
    fn on_ready(&mut self, tasks: &[TaskId], ctx: &KernelContext<'_>) {
        for &t in tasks {
            let pri = ctx.instance.task(t).priority;
            self.queue.insert((F64Ord::new(-pri), t));
        }
    }

    fn pick(&mut self, _worker: WorkerId, _ctx: &KernelContext<'_>) -> Option<Pick> {
        self.queue.pop_first().map(|(_, task)| Pick { task, queue_end: None })
    }

    fn worker_order(&self) -> WorkerOrder {
        WorkerOrder::ById
    }
}

impl SnapshotPolicy for PriorityListPolicy {
    // The set order is canonical (priority, id), independent of insertion
    // order, so the default re-announcing `restore` is trivially exact.
    fn ready_order(&self) -> Vec<TaskId> {
        self.queue.iter().map(|&(_, t)| t).collect()
    }
}

/// Uniformly random ready task to any idle worker. Deterministic per seed.
#[derive(Debug)]
pub struct RandomPolicy {
    ready: Vec<TaskId>,
    rng: StdRng,
}

impl RandomPolicy {
    pub fn new(seed: u64) -> Self {
        RandomPolicy { ready: Vec::new(), rng: StdRng::seed_from_u64(seed) }
    }
}

impl KernelPolicy for RandomPolicy {
    fn on_ready(&mut self, tasks: &[TaskId], _ctx: &KernelContext<'_>) {
        self.ready.extend_from_slice(tasks);
    }

    fn pick(&mut self, _worker: WorkerId, _ctx: &KernelContext<'_>) -> Option<Pick> {
        if self.ready.is_empty() {
            return None;
        }
        let i = self.rng.random_range(0..self.ready.len());
        Some(Pick { task: self.ready.swap_remove(i), queue_end: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::time::approx_eq;
    use heteroprio_core::{Instance, Platform};
    use heteroprio_simulator::simulate;
    use heteroprio_taskgraph::{check_precedence, cholesky, ConstTiming, TaskGraph};

    #[test]
    fn priority_list_serves_high_priority_first() {
        use heteroprio_core::Task;
        let mut inst = Instance::new();
        inst.push(Task::new(1.0, 1.0).with_priority(1.0));
        inst.push(Task::new(1.0, 1.0).with_priority(9.0));
        inst.push(Task::new(1.0, 1.0).with_priority(5.0));
        let g = TaskGraph::independent(inst);
        let plat = Platform::new(1, 1);
        let mut policy = PriorityListPolicy::new();
        let res = simulate(&g, &plat, &mut policy);
        res.schedule.validate(g.instance(), &plat).unwrap();
        // Highest priority (task 1) starts at t=0.
        let r = res.schedule.run_of(TaskId(1)).unwrap();
        assert_eq!(r.start, 0.0);
    }

    #[test]
    fn priority_list_never_idles_with_ready_work() {
        let g = cholesky(4, &ConstTiming { cpu: 1.0, gpu: 1.0 });
        let plat = Platform::new(2, 1);
        let mut policy = PriorityListPolicy::new();
        let res = simulate(&g, &plat, &mut policy);
        res.schedule.validate(g.instance(), &plat).unwrap();
        check_precedence(&g, &res.schedule).unwrap();
    }

    #[test]
    fn random_policy_is_reproducible() {
        let g = cholesky(4, &ConstTiming { cpu: 2.0, gpu: 1.0 });
        let plat = Platform::new(2, 2);
        let ms1 = simulate(&g, &plat, &mut RandomPolicy::new(7)).makespan();
        let ms2 = simulate(&g, &plat, &mut RandomPolicy::new(7)).makespan();
        assert!(approx_eq(ms1, ms2));
    }

    #[test]
    fn random_policy_completes_everything() {
        let g = cholesky(5, &ConstTiming { cpu: 2.0, gpu: 1.0 });
        let plat = Platform::new(2, 2);
        let res = simulate(&g, &plat, &mut RandomPolicy::new(3));
        res.schedule.validate(g.instance(), &plat).unwrap();
        check_precedence(&g, &res.schedule).unwrap();
        assert_eq!(res.schedule.runs.len(), g.len());
    }
}
