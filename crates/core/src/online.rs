//! Online HeteroPrio: independent tasks arriving over time.
//!
//! The paper analyses the clairvoyant case where the whole set is ready at
//! time zero (and its §6.2 DAG experiments release tasks through dependency
//! resolution). A third natural setting — studied for two resource classes
//! by Imreh \[14\] — is *release dates*: task `i` becomes known and ready at
//! time `r_i`. HeteroPrio extends verbatim: arrivals are inserted into the
//! ρ-sorted queue, GPUs keep popping the most accelerated end, CPUs the
//! least accelerated end, and idle workers attempt spoliation when the
//! queue is empty.
//!
//! With all `r_i = 0` this reproduces [`crate::heteroprio::heteroprio`]
//! exactly (tested below).
//!
//! Arrivals are a [`Workload`] over the shared event kernel
//! ([`crate::kernel`]); the queue discipline is the same Algorithm 1 policy
//! as the offline engine, backed by the incremental [`ClassQueue`] (the
//! offline engine sorts its one batch once instead).

use crate::heteroprio::{HeteroPrioConfig, HeteroPrioResult, VictimScan};
use crate::kernel::{self, FaultModel, KernelContext, KernelOptions, KernelPolicy, Pick, Workload};
use crate::model::{ClassId, Instance, Platform, TaskId, WorkerId};
use crate::queue::{ClassQueue, PopSide};
use crate::WorkerOrder;
use heteroprio_trace::{NullSink, QueueEnd, TraceSink};

/// Run HeteroPrio with per-task release dates (`releases[i]` for task `i`).
///
/// Panics if `releases.len() != instance.len()` or any release is negative.
pub fn heteroprio_online(
    instance: &Instance,
    releases: &[f64],
    platform: &Platform,
    config: &HeteroPrioConfig,
) -> HeteroPrioResult {
    heteroprio_online_traced(instance, releases, platform, config, &mut NullSink)
}

/// [`heteroprio_online`] with a trace sink (see
/// [`heteroprio_traced`](crate::heteroprio_traced)).
pub fn heteroprio_online_traced<S: TraceSink>(
    instance: &Instance,
    releases: &[f64],
    platform: &Platform,
    config: &HeteroPrioConfig,
    sink: &mut S,
) -> HeteroPrioResult {
    assert_eq!(releases.len(), instance.len(), "one release date per task");
    assert!(
        releases.iter().all(|&r| r >= 0.0 && r.is_finite()),
        "release dates must be non-negative and finite"
    );
    let mut workload = ReleaseWorkload::new(instance, releases);
    let mut policy = OnlineQueuePolicy {
        config: *config,
        queue: ClassQueue::new(platform.k(), config.queue_tie),
        victims: VictimScan::new(config.spoliation_tie),
    };
    let outcome = kernel::run(
        platform,
        &mut workload,
        &mut policy,
        FaultModel::none(),
        KernelOptions::default(),
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

/// Independent tasks with release dates: arrivals sorted by (release, id)
/// feed the kernel as externally-timed ready announcements.
struct ReleaseWorkload<'a> {
    instance: &'a Instance,
    releases: &'a [f64],
    /// Task ids sorted by (release, id).
    arrivals: Vec<TaskId>,
    /// Cursor into `arrivals`.
    next: usize,
}

/// Checked release-time lookup; `releases` is validated to instance size.
fn release_of(releases: &[f64], t: TaskId) -> f64 {
    *releases.get(t.index()).expect("releases sized to the instance")
}

impl<'a> ReleaseWorkload<'a> {
    fn new(instance: &'a Instance, releases: &'a [f64]) -> Self {
        let mut arrivals: Vec<TaskId> = instance.ids().collect();
        arrivals.sort_by(|&a, &b| {
            release_of(releases, a).total_cmp(&release_of(releases, b)).then(a.cmp(&b))
        });
        ReleaseWorkload { instance, releases, arrivals, next: 0 }
    }

    fn admit_until(&mut self, now: f64) -> Vec<TaskId> {
        let mut due = Vec::new();
        self.admit_until_into(now, &mut due);
        due
    }

    fn admit_until_into(&mut self, now: f64, out: &mut Vec<TaskId>) {
        while let Some(&t) = self.arrivals.get(self.next) {
            if release_of(self.releases, t) > now {
                break;
            }
            out.push(t);
            self.next += 1;
        }
    }
}

impl Workload for ReleaseWorkload<'_> {
    fn len(&self) -> usize {
        self.instance.len()
    }

    fn initial(&mut self) -> Vec<TaskId> {
        self.admit_until(0.0)
    }

    fn next_arrival(&self) -> Option<f64> {
        self.arrivals.get(self.next).map(|&t| release_of(self.releases, t))
    }

    fn arrivals_due(&mut self, now: f64) -> Vec<TaskId> {
        self.admit_until(now)
    }

    fn arrivals_due_into(&mut self, now: f64, out: &mut Vec<TaskId>) {
        // Hot-path override: admissions append straight into the kernel's
        // pooled buffer instead of allocating per event.
        self.admit_until_into(now, out);
    }

    fn duration(&self, task: TaskId, class: ClassId, _ran_kind: &[Option<ClassId>]) -> f64 {
        self.instance.task(task).time_on(class)
    }

    fn instance(&self) -> &Instance {
        self.instance
    }
}

/// Algorithm 1's queue discipline over an incrementally-maintained
/// [`ClassQueue`] (arrivals insert in O(log n) instead of re-sorting; the
/// canonical two-class platform delegates to the bucketed
/// [`AffinityQueue`](crate::queue::AffinityQueue) unchanged).
struct OnlineQueuePolicy {
    config: HeteroPrioConfig,
    queue: ClassQueue,
    victims: VictimScan,
}

impl KernelPolicy for OnlineQueuePolicy {
    fn on_ready(&mut self, tasks: &[TaskId], ctx: &KernelContext<'_>) {
        for &t in tasks {
            self.queue.push(ctx.instance, t);
        }
    }

    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
        let two_class = ctx.platform.k() == 2;
        self.queue.pop(ctx.platform.class_of(worker)).map(|(task, side)| {
            // The `QueueEnd` annotation is the two-class pop-order
            // certificate; k ≥ 3 traces leave it off (see the offline
            // policy for rationale).
            let end = two_class.then_some(match side {
                PopSide::Front => QueueEnd::Front,
                PopSide::Back => QueueEnd::Back,
            });
            Pick { task, queue_end: end }
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heteroprio::{heteroprio, heteroprio_traced, QueueTieBreak};
    use crate::model::Task;
    use crate::time::approx_eq;
    use heteroprio_trace::VecSink;
    use proptest::prelude::*;

    #[test]
    fn zero_releases_match_offline_heteroprio() {
        let times: Vec<(f64, f64)> =
            (1..=15).map(|i| (((i * 31) % 9 + 1) as f64, ((i * 17) % 5 + 1) as f64)).collect();
        let inst = Instance::from_times(&times);
        let releases = vec![0.0; inst.len()];
        for platform in [Platform::new(1, 1), Platform::new(3, 2)] {
            let cfg = HeteroPrioConfig::new();
            let offline = heteroprio(&inst, &platform, &cfg);
            let online = heteroprio_online(&inst, &releases, &platform, &cfg);
            online.schedule.validate(&inst, &platform).unwrap();
            assert!(
                approx_eq(offline.makespan(), online.makespan()),
                "offline {} vs online {}",
                offline.makespan(),
                online.makespan()
            );
            assert_eq!(offline.spoliations, online.spoliations);
        }
        // k ≥ 3: the offline engine sorts each class pair once, the online
        // one inserts into `ClassQueue`; with zero releases the two must
        // emit the same events.
        let rows: Vec<Vec<f64>> = (1..=15)
            .map(|i| (0..4).map(|c| ((i * (31 + 7 * c) + c) % 9 + 1) as f64).collect())
            .collect();
        for k in [3, 4] {
            let rows_k: Vec<&[f64]> = rows.iter().map(|r| &r[..k]).collect();
            let inst = Instance::from_class_times(&rows_k);
            let platform = Platform::from_counts(&[3, 2, 1, 1][..k]);
            assert_zero_release_parity(&inst, &platform, &HeteroPrioConfig::new());
        }
    }

    /// Offline and online runs of `inst` with all-zero releases emit the
    /// same event stream, event for event, and the same schedule.
    fn assert_zero_release_parity(inst: &Instance, platform: &Platform, cfg: &HeteroPrioConfig) {
        let mut offline = VecSink::new();
        let off = heteroprio_traced(inst, platform, cfg, &mut offline);
        let mut online = VecSink::new();
        let on = heteroprio_online_traced(inst, &vec![0.0; inst.len()], platform, cfg, &mut online);
        on.schedule.validate(inst, platform).unwrap();
        assert_eq!(online.events, offline.events, "k = {}, {cfg:?}", platform.k());
        assert_eq!(on.schedule.runs, off.schedule.runs);
        assert_eq!(on.spoliations, off.spoliations);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The route identity at k ∈ {3, 4}: random tie-dense instances,
        // both tie rules, priorities, spoliation on and off, every worker
        // order.
        #[test]
        fn zero_releases_match_offline_at_three_and_four_classes(
            k in 3usize..5,
            rows in prop::collection::vec(
                (prop::collection::vec(0usize..5, 4..5), 0usize..3), 1..30),
            counts in prop::collection::vec(1usize..4, 4..5),
            tie_by_priority in 0u8..2,
            spoliation_off in 0u8..2,
            order in 0usize..3,
        ) {
            const TIMES: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 8.0];
            let mut inst = Instance::new();
            for (times, p) in &rows {
                let row: Vec<f64> = times[..k].iter().map(|&t| TIMES[t]).collect();
                inst.push(Task::from_times(&row).with_priority(*p as f64));
            }
            let platform = Platform::from_counts(&counts[..k]);
            let cfg = HeteroPrioConfig {
                disable_spoliation: spoliation_off == 1,
                worker_order: [WorkerOrder::GpusFirst, WorkerOrder::CpusFirst, WorkerOrder::ById][order],
                queue_tie: if tie_by_priority == 1 {
                    QueueTieBreak::Priority
                } else {
                    QueueTieBreak::InsertionOrder
                },
                ..HeteroPrioConfig::new()
            };
            assert_zero_release_parity(&inst, &platform, &cfg);
        }
    }

    #[test]
    fn tasks_never_start_before_release() {
        let inst = Instance::from_times(&[(2.0, 1.0), (2.0, 1.0), (1.0, 2.0)]);
        let releases = vec![0.0, 5.0, 3.0];
        let plat = Platform::new(1, 1);
        let res = heteroprio_online(&inst, &releases, &plat, &HeteroPrioConfig::new());
        res.schedule.validate(&inst, &plat).unwrap();
        for run in res.schedule.runs.iter().chain(&res.schedule.aborted) {
            assert!(
                run.start >= releases[run.task.index()] - 1e-12,
                "{} started at {} before release {}",
                run.task,
                run.start,
                releases[run.task.index()]
            );
        }
    }

    #[test]
    fn staggered_arrivals_create_gaps() {
        // One task arriving late: the machine idles until it lands.
        let inst = Instance::from_times(&[(1.0, 1.0)]);
        let releases = vec![10.0];
        let plat = Platform::new(1, 1);
        let res = heteroprio_online(&inst, &releases, &plat, &HeteroPrioConfig::new());
        assert!(approx_eq(res.makespan(), 11.0), "{}", res.makespan());
    }

    #[test]
    fn late_gpu_friendly_task_gets_spoliated_onto_gpu() {
        // The CPU grabs a GPU-friendly task arriving while the GPU is busy;
        // when the GPU frees up it spoliates.
        let inst = Instance::from_times(&[(10.0, 2.0), (50.0, 2.0)]);
        let releases = vec![0.0, 1.0];
        let plat = Platform::new(1, 1);
        let res = heteroprio_online(&inst, &releases, &plat, &HeteroPrioConfig::new());
        res.schedule.validate(&inst, &plat).unwrap();
        assert_eq!(res.spoliations, 1);
        // GPU: T0 [0,2], then T1 spoliated to [2,4].
        assert!(approx_eq(res.makespan(), 4.0), "{}", res.makespan());
    }

    #[test]
    fn arrival_while_idle_is_picked_up_immediately() {
        let inst = Instance::from_times(&[(4.0, 4.0), (1.0, 1.0)]);
        let releases = vec![0.0, 2.0];
        let plat = Platform::new(1, 1);
        let res = heteroprio_online(&inst, &releases, &plat, &HeteroPrioConfig::new());
        let late = res.schedule.run_of(TaskId(1)).unwrap();
        assert!(approx_eq(late.start, 2.0), "{}", late.start);
    }

    #[test]
    #[should_panic(expected = "one release date per task")]
    fn mismatched_release_length_panics() {
        let inst = Instance::from_times(&[(1.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let _ = heteroprio_online(&inst, &[], &plat, &HeteroPrioConfig::new());
    }

    #[test]
    fn makespan_at_least_last_release_plus_min_time() {
        let inst = Instance::from_times(&[(3.0, 6.0), (2.0, 4.0)]);
        let releases = vec![0.0, 7.0];
        let plat = Platform::new(2, 1);
        let res = heteroprio_online(&inst, &releases, &plat, &HeteroPrioConfig::new());
        assert!(res.makespan() >= 7.0 + 2.0 - 1e-9);
    }
}
