//! DualHP — the dual-approximation scheduler of Bleuse et al. \[15\], as
//! described in the paper's §6.
//!
//! For a guess λ on the optimal makespan: any task longer than λ on one
//! resource class is forced onto the other; the remaining (flexible) tasks
//! are packed onto the GPUs by decreasing acceleration factor while the GPU
//! makespan stays within 2λ; the rest go to the CPUs, and the guess is
//! feasible iff the CPU makespan also stays within 2λ. The smallest feasible
//! λ found by binary search yields a 2-approximation for independent tasks.
//!
//! The DAG-mode variant re-runs this packing on the current ready set every
//! time the ready set changes, accounting for the load of currently
//! executing tasks (§6.2), and orders each class queue by rank (`fifo`, or
//! the bottom-level priorities already attached to the tasks).
//!
//! Performance note: the ready set is sorted once per repartition; each λ
//! probe of the binary search is then a single O(R) pass, which keeps the
//! per-ready-event cost low enough for the N=64 task graphs of Figure 7
//! (tens of thousands of ready events).

use heteroprio_core::kernel::{KernelContext, KernelPolicy, Pick, SnapshotPolicy};
use heteroprio_core::list::list_schedule;
use heteroprio_core::{
    ClassId, Instance, Platform, ResourceKind, Schedule, TaskId, TaskRun, WorkerId, WorkerOrder,
};

/// Placement of every packed task: (task, worker, start, end).
type Placements = Vec<(TaskId, WorkerId, f64, f64)>;

/// Ready tasks pre-sorted for the λ probes.
struct SortedReady {
    tasks: Vec<TaskId>,
    /// Local indices sorted by acceleration factor descending.
    by_rho_desc: Vec<usize>,
    /// Local indices sorted by CPU time descending.
    by_p_desc: Vec<usize>,
}

/// Acceleration of a task relative to the spill class (class 0): its class-0
/// time over its best time on any other class. Equal to
/// [`Task::accel_factor`](heteroprio_core::Task::accel_factor) when `k = 2`.
fn accel_over_spill(instance: &Instance, t: TaskId) -> f64 {
    let task = instance.task(t);
    let best_other =
        (1..task.k()).map(|c| task.time_on(ClassId(c as u16))).fold(f64::INFINITY, f64::min);
    task.time_on(ClassId(0)) / best_other
}

impl SortedReady {
    fn new(instance: &Instance, tasks: Vec<TaskId>) -> Self {
        let mut by_rho_desc: Vec<usize> = (0..tasks.len()).collect();
        by_rho_desc.sort_by(|&a, &b| {
            let ra = accel_over_spill(instance, tasks[a]);
            let rb = accel_over_spill(instance, tasks[b]);
            rb.total_cmp(&ra).then(tasks[a].cmp(&tasks[b]))
        });
        let mut by_p_desc: Vec<usize> = (0..tasks.len()).collect();
        by_p_desc.sort_by(|&a, &b| {
            let pa = instance.task(tasks[a]).cpu_time();
            let pb = instance.task(tasks[b]).cpu_time();
            pb.total_cmp(&pa).then(tasks[a].cmp(&tasks[b]))
        });
        SortedReady { tasks, by_rho_desc, by_p_desc }
    }
}

/// One λ probe: greedy pack within makespan 2λ. O(R · workers-per-class).
///
/// Only `alive` workers receive placements — after an injected worker
/// failure a whole class may be gone, in which case every task is forced
/// onto the surviving class (and λ grows until that is feasible).
fn try_pack(
    instance: &Instance,
    platform: &Platform,
    sorted: &SortedReady,
    lambda: f64,
    avail: &[f64],
    alive: &[bool],
    placements: &mut Placements,
) -> bool {
    placements.clear();
    let limit = 2.0 * lambda + 1e-12;
    let r = sorted.tasks.len();
    // side[i]: 0 = GPU, 1 = CPU, for local index i.
    let mut side = vec![0u8; r];

    let gpu_workers: Vec<WorkerId> =
        platform.workers_of(ResourceKind::Gpu).filter(|w| alive[w.index()]).collect();
    let cpu_workers: Vec<WorkerId> =
        platform.workers_of(ResourceKind::Cpu).filter(|w| alive[w.index()]).collect();
    let mut gpu_loads: Vec<f64> = gpu_workers.iter().map(|w| avail[w.index()]).collect();
    let mut spilling = false;
    for &i in &sorted.by_rho_desc {
        let task = instance.task(sorted.tasks[i]);
        let cpu_over = task.cpu_time() > lambda || cpu_workers.is_empty();
        let gpu_over = task.gpu_time() > lambda || gpu_workers.is_empty();
        match (cpu_over, gpu_over) {
            (true, true) => return false, // λ below the trivial bound
            (false, true) => {
                side[i] = 1; // forced CPU
                continue;
            }
            (true, false) => {
                // Forced GPU: must fit within 2λ.
                let m = min_index(&gpu_loads);
                if gpu_loads[m] + task.gpu_time() > limit {
                    return false;
                }
                let start = gpu_loads[m];
                gpu_loads[m] = start + task.gpu_time();
                placements.push((sorted.tasks[i], gpu_workers[m], start, gpu_loads[m]));
            }
            (false, false) => {
                // Flexible: GPU by decreasing ρ while it fits, then spill.
                if spilling {
                    side[i] = 1;
                    continue;
                }
                let m = min_index(&gpu_loads);
                if gpu_loads[m] + task.gpu_time() <= limit {
                    let start = gpu_loads[m];
                    gpu_loads[m] = start + task.gpu_time();
                    placements.push((sorted.tasks[i], gpu_workers[m], start, gpu_loads[m]));
                } else {
                    spilling = true;
                    side[i] = 1;
                }
            }
        }
    }

    // CPU pass: forced + spilled tasks, longest-first list schedule.
    let mut cpu_loads: Vec<f64> = cpu_workers.iter().map(|w| avail[w.index()]).collect();
    for &i in &sorted.by_p_desc {
        if side[i] == 0 {
            continue;
        }
        let task = instance.task(sorted.tasks[i]);
        let m = min_index(&cpu_loads);
        let start = cpu_loads[m];
        let end = start + task.cpu_time();
        if end > limit {
            return false;
        }
        cpu_loads[m] = end;
        placements.push((sorted.tasks[i], cpu_workers[m], start, end));
    }
    true
}

/// One λ probe on a `k ≥ 3` platform: the two-class packing generalized to
/// k resource classes with class 0 as the spill class.
///
/// A task may only run on classes where its time is ≤ λ (and that still have
/// alive workers). Tasks are scanned by decreasing acceleration over the
/// spill class; each is offered to its allowed non-spill classes fastest
/// first. A class that refuses a task latches full (monotone, like the
/// two-class `spilling` flag) and stops taking flexible tasks; a task whose
/// spill class is disallowed retries latched classes before failing. Spilled
/// tasks go to class 0 longest-first within 2λ. At `k = 2` this decision
/// procedure coincides with [`try_pack`] (the per-class latch *is* the
/// spill flag); the legacy path is kept verbatim and pinned by an equality
/// test because its output is frozen by the parity suites.
fn try_pack_general(
    instance: &Instance,
    platform: &Platform,
    sorted: &SortedReady,
    lambda: f64,
    avail: &[f64],
    alive: &[bool],
    placements: &mut Placements,
) -> bool {
    placements.clear();
    let limit = 2.0 * lambda + 1e-12;
    let k = platform.k();
    let r = sorted.tasks.len();
    let mut spill = vec![false; r];

    let workers: Vec<Vec<WorkerId>> = (0..k)
        .map(|c| platform.workers_of(ClassId(c as u16)).filter(|w| alive[w.index()]).collect())
        .collect();
    let mut loads: Vec<Vec<f64>> =
        workers.iter().map(|ws| ws.iter().map(|w| avail[w.index()]).collect()).collect();
    let mut latched = vec![false; k];

    let mut prefs: Vec<usize> = Vec::with_capacity(k - 1);
    for &i in &sorted.by_rho_desc {
        let task = instance.task(sorted.tasks[i]);
        let over = |c: usize| task.time_on(ClassId(c as u16)) > lambda || workers[c].is_empty();
        let spill_ok = !over(0);
        // Allowed non-spill classes, fastest first (ties to the lower id).
        prefs.clear();
        prefs.extend((1..k).filter(|&c| !over(c)));
        prefs.sort_by(|&a, &b| {
            task.time_on(ClassId(a as u16))
                .total_cmp(&task.time_on(ClassId(b as u16)))
                .then(a.cmp(&b))
        });
        if prefs.is_empty() && !spill_ok {
            return false; // λ below the trivial bound
        }
        let mut place = |c: usize, loads: &mut Vec<Vec<f64>>| -> bool {
            let m = min_index(&loads[c]);
            let t = task.time_on(ClassId(c as u16));
            if loads[c][m] + t > limit {
                return false;
            }
            let start = loads[c][m];
            loads[c][m] = start + t;
            placements.push((sorted.tasks[i], workers[c][m], start, loads[c][m]));
            true
        };
        let mut placed = false;
        for &c in prefs.iter() {
            if latched[c] {
                continue;
            }
            if place(c, &mut loads) {
                placed = true;
                break;
            }
            latched[c] = true;
        }
        if placed {
            continue;
        }
        if spill_ok {
            spill[i] = true;
            continue;
        }
        // No spill class: a latched class may still fit this (shorter) task.
        if !prefs.iter().filter(|&&c| latched[c]).any(|&c| place(c, &mut loads)) {
            return false;
        }
    }

    // Spill pass: class 0, longest-first list schedule within 2λ.
    let mut spill_loads: Vec<f64> = loads.first().cloned().unwrap_or_default();
    for &i in &sorted.by_p_desc {
        if !spill[i] {
            continue;
        }
        let task = instance.task(sorted.tasks[i]);
        let m = min_index(&spill_loads);
        let start = spill_loads[m];
        let end = start + task.time_on(ClassId(0));
        if end > limit {
            return false;
        }
        spill_loads[m] = end;
        placements.push((sorted.tasks[i], workers[0][m], start, end));
    }
    true
}

#[inline]
fn min_index(loads: &[f64]) -> usize {
    let mut best = 0;
    for i in 1..loads.len() {
        if loads[i] < loads[best] {
            best = i;
        }
    }
    best
}

/// Binary-search the smallest feasible λ; returns the placements of the
/// smallest feasible packing found.
fn search(
    instance: &Instance,
    platform: &Platform,
    tasks: Vec<TaskId>,
    avail: &[f64],
    alive: &[bool],
) -> Placements {
    if tasks.is_empty() || !alive.iter().any(|&a| a) {
        return Vec::new();
    }
    // Two-class platforms keep the frozen legacy probe; its behaviour is
    // pinned event-for-event by the parity and audit suites.
    let probe = if platform.k() == 2 { try_pack } else { try_pack_general };
    let sorted = SortedReady::new(instance, tasks);
    // Grow an upper bound until feasible.
    let mut hi = sorted
        .tasks
        .iter()
        .map(|&t| instance.task(t).min_time())
        .fold(0.0, f64::max)
        .max(avail.iter().copied().fold(0.0, f64::max))
        .max(1e-9);
    let mut best = Vec::new();
    let mut scratch = Vec::new();
    loop {
        if probe(instance, platform, &sorted, hi, avail, alive, &mut scratch) {
            std::mem::swap(&mut best, &mut scratch);
            break;
        }
        hi *= 2.0;
        assert!(hi.is_finite(), "DualHP upper-bound search diverged");
    }
    let mut lo = 0.0;
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        // lint: allow(float-ord): deliberate bisection convergence threshold, not a time comparison.
        if mid <= lo || mid >= hi || (hi - lo) < 1e-9 * hi {
            break;
        }
        if probe(instance, platform, &sorted, mid, avail, alive, &mut scratch) {
            hi = mid;
            std::mem::swap(&mut best, &mut scratch);
        } else {
            lo = mid;
        }
    }
    best
}

/// DualHP for a set of independent tasks: returns the packed schedule.
pub fn dualhp_independent(instance: &Instance, platform: &Platform) -> Schedule {
    let tasks: Vec<TaskId> = instance.ids().collect();
    let avail = vec![0.0; platform.workers()];
    let alive = vec![true; platform.workers()];
    let placements = search(instance, platform, tasks, &avail, &alive);
    Schedule {
        runs: placements
            .into_iter()
            .map(|(task, worker, start, end)| TaskRun { task, worker, start, end })
            .collect(),
        aborted: Vec::new(),
    }
}

/// Ranking scheme for the DAG-mode class queues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DualHpRank {
    /// Process tasks in the order they became ready.
    #[default]
    Fifo,
    /// Highest (bottom-level) priority first, as attached to the tasks.
    Priority,
}

/// DualHP as an online policy: re-partition the ready set whenever it has
/// changed, then serve each class queue in rank order. Never spoliates.
pub struct DualHpDagPolicy {
    rank: DualHpRank,
    /// Ready, not-yet-started tasks with their arrival sequence number.
    pending: Vec<(TaskId, u64)>,
    /// One serve queue per resource class, indexed by class id (sized
    /// lazily at the first repartition).
    queues: Vec<Vec<TaskId>>,
    seq: u64,
    /// Ready set changed since the last repartition.
    dirty: bool,
    /// Worker liveness at the last repartition; a change (failure or
    /// recovery) also forces a repartition, or tasks packed onto a
    /// now-dead class would never be served.
    alive_seen: Vec<bool>,
}

impl DualHpDagPolicy {
    pub fn new(rank: DualHpRank) -> Self {
        DualHpDagPolicy {
            rank,
            pending: Vec::new(),
            queues: Vec::new(),
            seq: 0,
            dirty: false,
            alive_seen: Vec::new(),
        }
    }

    fn repartition(&mut self, ctx: &KernelContext<'_>) {
        // Worker availability = remaining time of the currently running task.
        // Dead workers receive no placements, so a class wiped out by a
        // fault plan spills its whole share onto the survivors.
        let avail: Vec<f64> =
            ctx.running.iter().map(|r| r.map_or(0.0, |r| (r.end - ctx.now).max(0.0))).collect();
        let tasks: Vec<TaskId> = self.pending.iter().map(|&(t, _)| t).collect();
        let placements = search(ctx.instance, ctx.platform, tasks, &avail, ctx.alive);
        self.queues.resize(ctx.platform.k(), Vec::new());
        for q in &mut self.queues {
            q.clear();
        }
        for (task, worker, _, _) in placements {
            let class = ctx.platform.class_of(worker).index();
            self.queues.get_mut(class).expect("one queue per class").push(task);
        }
        // Serve order within each class. Queues pop from the back, so sort
        // ascending in urgency.
        let instance = ctx.instance;
        let pending = &self.pending;
        let seq_of =
            |t: TaskId| pending.iter().find(|&&(x, _)| x == t).map(|&(_, s)| s).unwrap_or(u64::MAX);
        for queue in &mut self.queues {
            match self.rank {
                DualHpRank::Fifo => {
                    queue.sort_by_key(|&t| std::cmp::Reverse(seq_of(t)));
                }
                DualHpRank::Priority => {
                    queue.sort_by(|&a, &b| {
                        instance
                            .task(a)
                            .priority
                            .total_cmp(&instance.task(b).priority)
                            .then(b.cmp(&a))
                    });
                }
            }
        }
    }
}

impl KernelPolicy for DualHpDagPolicy {
    fn on_ready(&mut self, tasks: &[TaskId], _ctx: &KernelContext<'_>) {
        for &t in tasks {
            self.pending.push((t, self.seq));
            self.seq = self.seq.checked_add(1).expect("u64 push sequence never saturates");
        }
        self.dirty = true;
    }

    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
        if self.dirty || self.alive_seen != ctx.alive {
            self.alive_seen = ctx.alive.to_vec();
            self.repartition(ctx);
            self.dirty = false;
        }
        let queue = self.queues.get_mut(ctx.platform.class_of(worker).index())?;
        let task = queue.pop()?;
        self.pending.retain(|&(t, _)| t != task);
        Some(Pick { task, queue_end: None })
    }

    fn worker_order(&self) -> WorkerOrder {
        WorkerOrder::GpusFirst
    }
}

impl SnapshotPolicy for DualHpDagPolicy {
    // `pending` holds the full ready set in announcement order (sequence
    // numbers ascend with pushes and survive `retain`). The default
    // `restore` re-announces that list, assigning fresh ascending sequence
    // numbers and marking the partition dirty, so the next pick re-runs the
    // λ search on exactly the state the original run would have had.
    fn ready_order(&self) -> Vec<TaskId> {
        self.pending.iter().map(|&(t, _)| t).collect()
    }
}

/// Upper-bound schedule used in tests: every task on its fastest class
/// (ties prefer the higher class id, matching the two-class GPU-on-tie
/// convention), longest-first list schedule per class.
pub fn faster_class_schedule(instance: &Instance, platform: &Platform) -> Schedule {
    let k = platform.k();
    let mut per_class: Vec<Vec<TaskId>> = vec![Vec::new(); k];
    for id in instance.ids() {
        let t = instance.task(id);
        let mut best = ClassId(0);
        for c in 1..k {
            let c = ClassId(c as u16);
            if t.time_on(c) <= t.time_on(best) {
                best = c;
            }
        }
        per_class[best.index()].push(id);
    }
    let mut runs = Vec::with_capacity(instance.len());
    for (c, ids) in per_class.into_iter().enumerate() {
        let class = ClassId(c as u16);
        let mut sorted = ids;
        sorted.sort_by(|&a, &b| {
            instance.task(b).time_on(class).total_cmp(&instance.task(a).time_on(class))
        });
        let durations: Vec<f64> = sorted.iter().map(|&t| instance.task(t).time_on(class)).collect();
        let ls = list_schedule(&durations, platform.count(class));
        let workers: Vec<WorkerId> = platform.workers_of(class).collect();
        for (i, &t) in sorted.iter().enumerate() {
            runs.push(TaskRun {
                task: t,
                worker: workers[ls.assignment[i]],
                start: ls.starts[i],
                end: ls.starts[i] + durations[i],
            });
        }
    }
    Schedule { runs, aborted: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_bounds::{combined_lower_bound, optimal_makespan};
    use heteroprio_core::time::approx_eq;
    use heteroprio_core::Task;
    use heteroprio_simulator::simulate;
    use heteroprio_taskgraph::{check_precedence, cholesky, ConstTiming, DagBuilder, TaskGraph};

    #[test]
    fn independent_simple_split() {
        // One GPU-friendly, one CPU-friendly task: both classes get theirs.
        let inst = Instance::from_times(&[(10.0, 1.0), (1.0, 10.0)]);
        let plat = Platform::new(1, 1);
        let sched = dualhp_independent(&inst, &plat);
        sched.validate(&inst, &plat).unwrap();
        assert!(approx_eq(sched.makespan(), 1.0), "{}", sched.makespan());
    }

    #[test]
    fn independent_within_twice_optimal() {
        // Random-ish small instances: certified 2-approximation.
        let seeds: Vec<Vec<(f64, f64)>> = vec![
            vec![(3.0, 1.0), (2.0, 5.0), (4.0, 4.0), (1.0, 2.0), (6.0, 1.0)],
            vec![(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 3.0)],
            vec![(7.0, 2.0), (2.0, 7.0), (5.0, 5.0), (1.0, 1.0), (3.0, 6.0), (6.0, 3.0)],
        ];
        for times in seeds {
            let inst = Instance::from_times(&times);
            for plat in [Platform::new(1, 1), Platform::new(2, 1), Platform::new(2, 2)] {
                let sched = dualhp_independent(&inst, &plat);
                sched.validate(&inst, &plat).unwrap();
                let opt = optimal_makespan(&inst, &plat).makespan;
                assert!(sched.makespan() <= 2.0 * opt + 1e-9, "{} > 2 × {opt}", sched.makespan());
            }
        }
    }

    #[test]
    fn independent_forced_assignment_respected() {
        // A task with enormous CPU time must land on a GPU and vice versa.
        let inst = Instance::from_times(&[(1000.0, 1.0), (1.0, 1000.0), (2.0, 2.0)]);
        let plat = Platform::new(1, 1);
        let sched = dualhp_independent(&inst, &plat);
        sched.validate(&inst, &plat).unwrap();
        let r0 = sched.run_of(TaskId(0)).unwrap();
        assert_eq!(plat.kind_of(r0.worker), ResourceKind::Gpu);
        let r1 = sched.run_of(TaskId(1)).unwrap();
        assert_eq!(plat.kind_of(r1.worker), ResourceKind::Cpu);
    }

    #[test]
    fn dag_mode_completes_and_respects_deps() {
        let g = cholesky(5, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let plat = Platform::new(3, 2);
        for rank in [DualHpRank::Fifo, DualHpRank::Priority] {
            let mut policy = DualHpDagPolicy::new(rank);
            let res = simulate(&g, &plat, &mut policy);
            res.schedule.validate(g.instance(), &plat).unwrap();
            check_precedence(&g, &res.schedule).unwrap();
            assert_eq!(res.spoliations, 0);
        }
    }

    #[test]
    fn dag_mode_on_independent_tasks_close_to_area_bound() {
        let times: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let p = 1.0 + (i % 7) as f64;
                (p, p / (1.0 + (i % 5) as f64))
            })
            .collect();
        let inst = Instance::from_times(&times);
        let plat = Platform::new(4, 2);
        let g = TaskGraph::independent(inst.clone());
        let mut policy = DualHpDagPolicy::new(DualHpRank::Fifo);
        let res = simulate(&g, &plat, &mut policy);
        res.schedule.validate(&inst, &plat).unwrap();
        // The 2-approximation is proved against OPT, not the area bound, and
        // the online DAG variant repartitions greedily — allow some slack.
        let lb = combined_lower_bound(&inst, &plat);
        assert!(res.makespan() <= 3.0 * lb + 1e-6, "{} vs lb {lb}", res.makespan());
    }

    #[test]
    fn faster_class_schedule_is_valid() {
        let inst = Instance::from_times(&[(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)]);
        let plat = Platform::new(2, 1);
        let sched = faster_class_schedule(&inst, &plat);
        sched.validate(&inst, &plat).unwrap();
    }

    #[test]
    fn general_probe_matches_legacy_on_two_classes() {
        // The k-class packer must reproduce the frozen two-class probe
        // decision-for-decision: same feasibility verdict and the same
        // placements at every λ it is asked about.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 97 + 1) as f64 / 10.0
        };
        for case in 0..60 {
            let n = 3 + case % 8;
            let times: Vec<(f64, f64)> = (0..n).map(|_| (next(), next())).collect();
            let inst = Instance::from_times(&times);
            let plat = match case % 3 {
                0 => Platform::new(1, 1),
                1 => Platform::new(3, 2),
                _ => Platform::new(2, 4),
            };
            let sorted = SortedReady::new(&inst, inst.ids().collect());
            let avail = vec![0.0; plat.workers()];
            let alive = vec![true; plat.workers()];
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for step in 1..=20 {
                let lambda = 0.5 * step as f64;
                let fa = try_pack(&inst, &plat, &sorted, lambda, &avail, &alive, &mut a);
                let fb = try_pack_general(&inst, &plat, &sorted, lambda, &avail, &alive, &mut b);
                assert_eq!(fa, fb, "feasibility diverged: case {case} λ={lambda}");
                if fa {
                    assert_eq!(a, b, "placements diverged: case {case} λ={lambda}");
                }
            }
        }
    }

    #[test]
    fn independent_three_classes_packs_validly() {
        // cpu=2, gpu=2, fpga=1: forced and flexible tasks across 3 classes.
        let inst = Instance::from_class_times(&[
            &[10.0, 1.0, 5.0],  // GPU-forced at small λ
            &[1.0, 10.0, 10.0], // CPU-friendly
            &[6.0, 3.0, 1.0],   // FPGA-friendly
            &[4.0, 4.0, 4.0],   // indifferent
            &[9.0, 2.0, 2.0],   // accelerated on either device class
        ]);
        let plat = Platform::from_counts(&[2, 2, 1]);
        let sched = dualhp_independent(&inst, &plat);
        sched.validate(&inst, &plat).unwrap();
        assert_eq!(sched.runs.len(), inst.len());
        // The λ search must beat the trivial every-task-on-class-0 pile.
        let serial: f64 = inst.ids().map(|t| inst.task(t).time_on(ClassId(0))).sum();
        assert!(sched.makespan() < serial, "{} vs serial {serial}", sched.makespan());
    }

    #[test]
    fn dag_mode_three_classes_completes() {
        // Re-time a Cholesky graph onto three classes (an FPGA twice as
        // slow as the GPU), preserving its structure.
        let g = cholesky(4, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let mut b = DagBuilder::new();
        for t in g.instance().ids() {
            let task = g.instance().task(t);
            b.add_task(
                Task::from_times(&[task.cpu_time(), task.gpu_time(), 2.0 * task.gpu_time()]),
                g.label(t),
            );
        }
        for t in g.instance().ids() {
            for &s in g.successors(t) {
                b.add_edge(t, s);
            }
        }
        let g3 = b.build().unwrap();
        let plat = Platform::from_counts(&[2, 1, 1]);
        let mut policy = DualHpDagPolicy::new(DualHpRank::Fifo);
        let res = simulate(&g3, &plat, &mut policy);
        res.schedule.validate(g3.instance(), &plat).unwrap();
        check_precedence(&g3, &res.schedule).unwrap();
    }

    #[test]
    fn packing_prefers_high_accel_tasks_on_gpu() {
        // With a tight GPU budget, the most accelerated flexible tasks must
        // be the ones packed on the GPU.
        let inst = Instance::from_times(&[
            (20.0, 1.0), // ρ=20
            (10.0, 1.0), // ρ=10
            (2.0, 1.0),  // ρ=2
            (2.0, 1.0),  // ρ=2
        ]);
        let plat = Platform::new(4, 1);
        let sched = dualhp_independent(&inst, &plat);
        sched.validate(&inst, &plat).unwrap();
        let gpu_tasks = sched.tasks_on(&plat, ResourceKind::Gpu);
        assert!(gpu_tasks.contains(&TaskId(0)), "{gpu_tasks:?}");
    }
}
