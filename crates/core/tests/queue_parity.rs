//! Parity oracles for the ready queues: a frozen copy of the pre-bucketing
//! `BTreeSet` [`AffinityQueue`], and a frozen copy of the eager-removal
//! `BTreeSet` [`ClassQueue`] for `k ≥ 3`, plus proptests sweeping
//! push/pop/snapshot-restore interleavings and asserting each live queue
//! is drain-identical to its oracle — the "bit-identical pop order"
//! guarantee the rebuilds promise.
//!
//! The snapshot-restore op replays the exact `KernelSnapshot` queue
//! protocol: the ready order captured by `SnapshotPolicy::ready_order()`
//! is the queue's GPU-to-CPU iteration order, and restore re-pushes it
//! into a fresh queue in that order with fresh sequence numbers. FIFO ties
//! (identical ρ, tie key and — for the priority rule — priority) must
//! survive any number of such round trips.

use heteroprio_core::{
    AffinityQueue, ClassId, ClassQueue, Instance, QueueTieBreak, ResourceKind, Task, TaskId,
};
use proptest::prelude::*;

/// Frozen copy of the `BTreeSet`-based `AffinityQueue` exactly as it stood
/// before the bucketed rebuild. Do not fix or modernise: this is the
/// oracle the new structure must reproduce key-for-key.
mod frozen {
    use heteroprio_core::{Instance, QueueTieBreak, ResourceKind, TaskId};
    use std::cmp::Ordering;
    use std::collections::BTreeSet;

    /// Stand-in for the crate-private `F64Ord`: total order via
    /// `f64::total_cmp`, exactly as the original keys ordered.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Ord64(pub f64);

    impl Eq for Ord64 {}

    impl PartialOrd for Ord64 {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Ord64 {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    type Key = (Ord64, Ord64, u64, TaskId);

    #[derive(Clone, Debug)]
    pub struct FrozenAffinityQueue {
        tie: QueueTieBreak,
        set: BTreeSet<Key>,
        seq: u64,
    }

    impl FrozenAffinityQueue {
        pub fn new(tie: QueueTieBreak) -> Self {
            FrozenAffinityQueue { tie, set: BTreeSet::new(), seq: 0 }
        }

        fn key(&mut self, instance: &Instance, task: TaskId) -> Key {
            let t = instance.task(task);
            let rho = t.accel_factor();
            let tie = match self.tie {
                QueueTieBreak::Priority => {
                    if rho >= 1.0 {
                        -t.priority
                    } else {
                        t.priority
                    }
                }
                QueueTieBreak::InsertionOrder => 0.0,
            };
            let seq = self.seq;
            self.seq += 1;
            (Ord64(-rho), Ord64(tie), seq, task)
        }

        pub fn push(&mut self, instance: &Instance, task: TaskId) {
            let key = self.key(instance, task);
            self.set.insert(key);
        }

        pub fn pop(&mut self, kind: ResourceKind) -> Option<TaskId> {
            let key = match kind {
                ResourceKind::Gpu => self.set.pop_first()?,
                ResourceKind::Cpu => self.set.pop_last()?,
            };
            Some(key.3)
        }

        pub fn len(&self) -> usize {
            self.set.len()
        }

        pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
            self.set.iter().map(|&(_, _, _, task)| task)
        }
    }
}

use frozen::FrozenAffinityQueue;

/// Frozen copy of the `k ≥ 3` `ClassQueue` exactly as it stood before
/// lazy deletion: one `BTreeSet` per class pair, a per-task `Vec` of keys,
/// and a pop that eagerly removes the task from every other pair. Do not
/// fix or modernise: this is the oracle the live queue must reproduce.
mod frozen_class {
    use super::frozen::Ord64;
    use heteroprio_core::queue::PopSide;
    use heteroprio_core::{ClassId, Instance, QueueTieBreak, TaskId};
    use std::collections::BTreeSet;

    type Key = (Ord64, Ord64, u64, TaskId);

    #[derive(Clone, Debug)]
    pub struct FrozenClassQueue {
        tie: QueueTieBreak,
        k: usize,
        pairs: Vec<BTreeSet<Key>>,
        keys: Vec<Option<Vec<Key>>>,
        live: usize,
        seq: u64,
    }

    impl FrozenClassQueue {
        pub fn new(k: usize, tie: QueueTieBreak) -> Self {
            assert!(k >= 3, "the frozen oracle covers the k >= 3 path");
            FrozenClassQueue {
                tie,
                k,
                pairs: vec![BTreeSet::new(); k * (k - 1) / 2],
                keys: Vec::new(),
                live: 0,
                seq: 0,
            }
        }

        fn pair_index(&self, a: usize, b: usize) -> usize {
            a * (2 * self.k - a - 1) / 2 + (b - a - 1)
        }

        fn pair_indices(k: usize) -> impl Iterator<Item = usize> {
            (0..k)
                .flat_map(move |a| ((a + 1)..k).map(move |b| a * (2 * k - a - 1) / 2 + (b - a - 1)))
        }

        pub fn push(&mut self, instance: &Instance, task: TaskId) {
            let t = instance.task(task);
            let seq = self.seq;
            self.seq += 1;
            let mut keys = Vec::with_capacity(self.k - 1);
            for a in 0..self.k {
                for b in (a + 1)..self.k {
                    let rho = t.try_affinity(ClassId::from(a), ClassId::from(b)).unwrap();
                    let tie = match self.tie {
                        QueueTieBreak::Priority => {
                            if rho >= 1.0 {
                                -t.priority
                            } else {
                                t.priority
                            }
                        }
                        QueueTieBreak::InsertionOrder => 0.0,
                    };
                    let key = (Ord64(-rho), Ord64(tie), seq, task);
                    let idx = self.pair_index(a, b);
                    self.pairs[idx].insert(key);
                    keys.push(key);
                }
            }
            if self.keys.len() <= task.index() {
                self.keys.resize(task.index() + 1, None);
            }
            self.keys[task.index()] = Some(keys);
            self.live += 1;
        }

        pub fn pop(&mut self, class: ClassId) -> Option<(TaskId, PopSide)> {
            let c = class.index();
            let mut best: Option<(f64, usize, PopSide, Key)> = None;
            for d in 0..self.k {
                if d == c {
                    continue;
                }
                let (a, b) = (c.min(d), c.max(d));
                let idx = self.pair_index(a, b);
                let set = &self.pairs[idx];
                let (key, side) = if c == b {
                    (set.first(), PopSide::Front)
                } else {
                    (set.last(), PopSide::Back)
                };
                let Some(&key) = key else { continue };
                let rho = -(key.0).0;
                let advantage = match side {
                    PopSide::Front => rho,
                    PopSide::Back => 1.0 / rho,
                };
                let better = match &best {
                    None => true,
                    Some((adv, ..)) => advantage > *adv,
                };
                if better {
                    best = Some((advantage, idx, side, key));
                }
            }
            let (_, winner_idx, side, key) = best?;
            let task = key.3;
            self.pairs[winner_idx].remove(&key);
            let keys = self.keys[task.index()].take().unwrap();
            for (idx, k) in Self::pair_indices(self.k).zip(&keys) {
                if idx != winner_idx {
                    self.pairs[idx].remove(k);
                }
            }
            self.live -= 1;
            Some((task, side))
        }

        pub fn len(&self) -> usize {
            self.live
        }

        pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
            self.pairs[0].iter().map(|&(_, _, _, task)| task)
        }
    }
}

use frozen_class::FrozenClassQueue;

/// Discrete time/priority tables: small enough that generated instances
/// are dense in ρ collisions (exact FIFO ties), same-octave neighbours
/// (the spill path) and the ρ = 1 orientation boundary.
const TIMES: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 8.0];
const PRIORITIES: [f64; 3] = [0.0, 1.0, 2.0];

fn build_instance(specs: &[(usize, usize, usize)]) -> Instance {
    let mut inst = Instance::new();
    for &(c, g, p) in specs {
        inst.push(
            Task::new(TIMES[c % TIMES.len()], TIMES[g % TIMES.len()])
                .with_priority(PRIORITIES[p % PRIORITIES.len()]),
        );
    }
    inst
}

/// Replay the `KernelSnapshot` queue protocol on the bucketed queue:
/// capture the GPU-to-CPU iteration order, re-push into a fresh queue.
fn round_trip(q: &AffinityQueue, instance: &Instance, tie: QueueTieBreak) -> AffinityQueue {
    let saved: Vec<TaskId> = q.iter().collect();
    let mut restored = AffinityQueue::new(tie);
    for t in saved {
        restored.push(instance, t);
    }
    restored
}

fn round_trip_frozen(
    q: &FrozenAffinityQueue,
    instance: &Instance,
    tie: QueueTieBreak,
) -> FrozenAffinityQueue {
    let saved: Vec<TaskId> = q.iter().collect();
    let mut restored = FrozenAffinityQueue::new(tie);
    for t in saved {
        restored.push(instance, t);
    }
    restored
}

/// Drive both queues through one op script, checking iteration order (the
/// snapshot contract) after every step and pop equality at every pop.
fn check_script(tie: QueueTieBreak, specs: &[(usize, usize, usize)], ops: &[(u8, usize)]) {
    let inst = build_instance(specs);
    let n = inst.len();
    let mut bucketed = AffinityQueue::new(tie);
    let mut oracle = FrozenAffinityQueue::new(tie);
    for (step, &(op, sel)) in ops.iter().enumerate() {
        match op {
            // Push (twice as likely as each other op, to keep queues full).
            0 | 1 => {
                let t = TaskId((sel % n) as u32);
                bucketed.push(&inst, t);
                oracle.push(&inst, t);
            }
            2 => {
                prop_assert_eq!(
                    bucketed.pop(ResourceKind::Gpu),
                    oracle.pop(ResourceKind::Gpu),
                    "GPU pop diverged at step {} ({:?})",
                    step,
                    tie
                );
            }
            3 => {
                prop_assert_eq!(
                    bucketed.pop(ResourceKind::Cpu),
                    oracle.pop(ResourceKind::Cpu),
                    "CPU pop diverged at step {} ({:?})",
                    step,
                    tie
                );
            }
            // Snapshot-restore round trip on both queues.
            _ => {
                bucketed = round_trip(&bucketed, &inst, tie);
                oracle = round_trip_frozen(&oracle, &inst, tie);
            }
        }
        prop_assert_eq!(bucketed.len(), oracle.len());
        prop_assert_eq!(
            bucketed.iter().collect::<Vec<_>>(),
            oracle.iter().collect::<Vec<_>>(),
            "iteration (snapshot) order diverged at step {} ({:?})",
            step,
            tie
        );
    }
    // Full drain from alternating ends must empty both identically.
    let mut side = ResourceKind::Gpu;
    loop {
        let (b, o) = (bucketed.pop(side), oracle.pop(side));
        prop_assert_eq!(b, o, "final drain diverged ({:?})", tie);
        if b.is_none() {
            break;
        }
        side = side.other();
    }
    prop_assert!(bucketed.is_empty());
    prop_assert_eq!(oracle.len(), 0);
}

/// A `k`-class instance over the same tables: each spec is `k` time
/// indices and a priority index.
fn build_instance_k(k: usize, specs: &[(Vec<usize>, usize)]) -> Instance {
    let mut inst = Instance::new();
    for (times, p) in specs {
        let row: Vec<f64> = (0..k).map(|c| TIMES[times[c % times.len()] % TIMES.len()]).collect();
        inst.push(Task::from_times(&row).with_priority(PRIORITIES[p % PRIORITIES.len()]));
    }
    inst
}

/// Drive the live `ClassQueue` and its frozen oracle at `k ≥ 3` through
/// one op script: pushes of tasks not currently queued (a ready set holds
/// each task once; popped tasks may come back, as after a restore), pops
/// for every class, and snapshot-restore round trips that re-push the
/// `iter()` order into fresh queues. Pops, lengths and the snapshot order
/// must agree at every step.
fn check_class_script(
    k: usize,
    tie: QueueTieBreak,
    specs: &[(Vec<usize>, usize)],
    ops: &[(u8, usize)],
) {
    let inst = build_instance_k(k, specs);
    let n = inst.len();
    let mut live = ClassQueue::new(k, tie);
    let mut oracle = FrozenClassQueue::new(k, tie);
    let mut queued = vec![false; n];
    for (step, &(op, sel)) in ops.iter().enumerate() {
        match op {
            0 | 1 => {
                let t = sel % n;
                if !queued[t] {
                    queued[t] = true;
                    live.push(&inst, TaskId(t as u32));
                    oracle.push(&inst, TaskId(t as u32));
                }
            }
            2 | 3 => {
                let class = ClassId::from(sel % k);
                let (got, want) = (live.pop(class), oracle.pop(class));
                prop_assert_eq!(
                    got,
                    want,
                    "pop for {} diverged at step {} ({:?})",
                    class,
                    step,
                    tie
                );
                if let Some((t, _)) = got {
                    queued[t.index()] = false;
                }
            }
            _ => {
                let saved: Vec<TaskId> = live.iter().collect();
                let (mut l, mut o) = (ClassQueue::new(k, tie), FrozenClassQueue::new(k, tie));
                for &t in &saved {
                    l.push(&inst, t);
                    o.push(&inst, t);
                }
                (live, oracle) = (l, o);
            }
        }
        prop_assert_eq!(live.len(), oracle.len());
        prop_assert_eq!(
            live.iter().collect::<Vec<_>>(),
            oracle.iter().collect::<Vec<_>>(),
            "iteration (snapshot) order diverged at step {} ({:?})",
            step,
            tie
        );
    }
    // Full drain, cycling the classes, must empty both identically.
    for class in (0..k).cycle() {
        let (got, want) = (live.pop(ClassId::from(class)), oracle.pop(ClassId::from(class)));
        prop_assert_eq!(got, want, "final drain diverged ({:?})", tie);
        if got.is_none() {
            break;
        }
    }
    prop_assert_eq!(oracle.len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The bucketed queue is drain-identical to the frozen `BTreeSet`
    // implementation under arbitrary push/pop/snapshot-restore
    // interleavings, for both tie-break rules.
    #[test]
    fn bucketed_queue_matches_frozen_btreeset_oracle(
        specs in prop::collection::vec((0usize..8, 0usize..8, 0usize..4), 1..24),
        ops in prop::collection::vec((0u8..5, 0usize..32), 1..160),
    ) {
        check_script(QueueTieBreak::Priority, &specs, &ops);
        check_script(QueueTieBreak::InsertionOrder, &specs, &ops);
    }

    // FIFO ties survive repeated `KernelSnapshot`-style round trips: a
    // queue of *identical* tasks (maximal tie density) must preserve its
    // exact announcement order through any number of capture/restore
    // cycles interleaved with pops.
    #[test]
    fn fifo_ties_survive_snapshot_round_trips(
        dims in (1usize..6, 2usize..16),
        trips in 1usize..5,
    ) {
        let (distinct, copies) = dims;
        // `distinct` task shapes, each duplicated `copies` times.
        let specs: Vec<(usize, usize, usize)> = (0..distinct)
            .flat_map(|d| std::iter::repeat_n((d, 0, d), copies))
            .collect();
        let inst = build_instance(&specs);
        for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            let mut bucketed = AffinityQueue::new(tie);
            let mut oracle = FrozenAffinityQueue::new(tie);
            for id in inst.ids() {
                bucketed.push(&inst, id);
                oracle.push(&inst, id);
            }
            for _ in 0..trips {
                bucketed = round_trip(&bucketed, &inst, tie);
                oracle = round_trip_frozen(&oracle, &inst, tie);
                prop_assert_eq!(
                    bucketed.iter().collect::<Vec<_>>(),
                    oracle.iter().collect::<Vec<_>>(),
                    "{:?}", tie
                );
                // Pop one from each side between trips so restores are
                // exercised on partially-drained queues too.
                prop_assert_eq!(bucketed.pop(ResourceKind::Gpu), oracle.pop(ResourceKind::Gpu));
                prop_assert_eq!(bucketed.pop(ResourceKind::Cpu), oracle.pop(ResourceKind::Cpu));
            }
        }
    }

    // The lazily-deleting `ClassQueue` is drain-identical to the frozen
    // eager-removal `BTreeSet` implementation at k = 3 and k = 4, under
    // arbitrary push/pop/snapshot-restore interleavings and both tie rules.
    #[test]
    fn class_queue_matches_frozen_eager_oracle(
        k in 3usize..5,
        specs in prop::collection::vec(
            (prop::collection::vec(0usize..8, 4..5), 0usize..4), 1..24),
        ops in prop::collection::vec((0u8..5, 0usize..32), 1..160),
    ) {
        check_class_script(k, QueueTieBreak::Priority, &specs, &ops);
        check_class_script(k, QueueTieBreak::InsertionOrder, &specs, &ops);
    }
}
