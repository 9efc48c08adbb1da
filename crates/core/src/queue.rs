//! The affinity-ordered double-ended ready queue at HeteroPrio's heart.
//!
//! Tasks are ordered by non-increasing acceleration factor; GPUs pop from
//! the front (most accelerated), CPUs from the back. Ties follow
//! [`QueueTieBreak`]: the paper's priority rule (§2.2) keeps the
//! highest-priority task closest to the end of the queue served by the
//! resource class that wants it, falling back to insertion order.
//!
//! Used by the online (release-dates) variant, through [`ClassQueue`] at
//! k = 2, and by the DAG-mode policy in `heteroprio-schedulers`. The
//! independent-task algorithm gets its whole batch at once and sorts it
//! instead (see `crate::heteroprio`).
//!
//! # Bucketed representation
//!
//! The paper only ever consumes the queue from its two ends, so a full
//! balanced-tree total order is more structure than Algorithm 1 needs.
//! Keys are instead quantized into **log-spaced acceleration buckets** —
//! one per octave of ρ, derived from the raw IEEE-754 exponent, which is
//! monotone in ρ for the positive finite values construction guarantees.
//! Each bucket is a [`VecDeque`] kept sorted by the *exact* key
//! `(−ρ, tie, seq, id)`; an occupancy bitmap finds the extreme non-empty
//! buckets in a few word scans. Pushes are an `O(1)` append whenever keys
//! arrive in within-bucket order (the common case: ready batches arrive in
//! ascending id/seq order and real workloads have few distinct ρ per
//! octave); out-of-order keys take the **exact-ρ spill path**, an ordered
//! insert that restores the sorted invariant. Pops take from the front of
//! the first or the back of the last occupied bucket.
//!
//! Because every bucket is exactly sorted and bucket index is monotone in
//! the key, the concatenation of buckets *is* the old `BTreeSet` total
//! order: pop and iteration order are bit-identical to the tree-based
//! implementation (pinned by `matches_sorted_queue_on_static_sets` below,
//! the `queue_parity` proptests, and the `kernel_parity` suite).

use crate::heteroprio::QueueTieBreak;
use crate::model::{ClassId, Instance, ResourceKind, TaskId};
use crate::time::F64Ord;
use std::collections::{BTreeSet, VecDeque};

/// Key ordering: ascending = the GPU end of the queue.
type Key = (F64Ord, F64Ord, u64, TaskId);

/// One bucket per f64 exponent value: sign (always 0 for a valid ρ) plus
/// the 11 exponent bits.
const BUCKET_BITS: u32 = 12;
/// Number of log-spaced buckets (covers every positive finite ρ).
const BUCKET_COUNT: usize = 1 << BUCKET_BITS;
/// Words in the occupancy bitmap.
const OCC_WORDS: usize = BUCKET_COUNT / 64;

/// Bucket index for an acceleration factor, **descending** in ρ so that
/// ascending bucket order matches ascending key order (the GPU end first).
///
/// For positive finite floats the IEEE-754 bit pattern is monotone in the
/// value, so the top `BUCKET_BITS` bits (sign + exponent) quantize ρ into
/// log-spaced octaves without touching `log2` (whose libm rounding is not
/// guaranteed monotone).
#[inline]
fn bucket_of(rho: f64) -> usize {
    let bits = rho.to_bits();
    let raw = (bits >> (64 - BUCKET_BITS)) as usize;
    // lint: allow(unchecked-arith): raw is the top BUCKET_BITS bits, so
    // raw <= BUCKET_COUNT - 1 by construction; const overflow is a
    // compile error.
    (BUCKET_COUNT - 1) - raw
}

/// A dynamic ready queue ordered by acceleration factor.
#[derive(Clone, Debug)]
pub struct AffinityQueue {
    tie: QueueTieBreak,
    /// `BUCKET_COUNT` sorted runs, allocated on first push (a fresh queue
    /// costs nothing). Invariant: each deque is sorted ascending by `Key`,
    /// and all keys in bucket `b` precede all keys in bucket `b + 1`.
    buckets: Vec<VecDeque<Key>>,
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupancy: [u64; OCC_WORDS],
    len: usize,
    seq: u64,
}

impl Default for AffinityQueue {
    fn default() -> Self {
        AffinityQueue::new(QueueTieBreak::default())
    }
}

impl AffinityQueue {
    pub fn new(tie: QueueTieBreak) -> Self {
        AffinityQueue { tie, buckets: Vec::new(), occupancy: [0; OCC_WORDS], len: 0, seq: 0 }
    }

    fn key(&mut self, instance: &Instance, task: TaskId) -> Key {
        let t = instance.task(task);
        // Validated construction guarantees a positive finite ρ; a task
        // smuggled in through raw public fields or an unvalidated
        // `Instance::from_tasks` is rejected here, before the poisoned
        // value can reach `F64Ord` and corrupt the queue order.
        let rho = match t.try_accel_factor() {
            Ok(rho) => rho,
            Err(e) => panic!("cannot queue {task}: {e}"),
        };
        let seq = self.seq;
        self.seq = self.seq.checked_add(1).expect("u64 push sequence never saturates");
        (F64Ord::new(-rho), F64Ord::new(self.tie.key(rho, t.priority)), seq, task)
    }

    /// Insert a ready task.
    pub fn push(&mut self, instance: &Instance, task: TaskId) {
        let key = self.key(instance, task);
        if self.buckets.is_empty() {
            self.buckets.resize_with(BUCKET_COUNT, VecDeque::new);
        }
        let b = bucket_of(-(key.0).0);
        let dq = self.buckets.get_mut(b).expect("bucket_of yields b < BUCKET_COUNT");
        match dq.back() {
            // Exact-ρ spill path: the new key lands *inside* the bucket's
            // sorted run (a finer ρ in the same octave, a higher-priority
            // tie, or a re-announced task) — an ordered insert keeps the
            // within-bucket order exact, so pop order stays bit-identical
            // to the tree-based total order.
            Some(last) if *last > key => {
                let pos = dq.partition_point(|k| k < &key);
                dq.insert(pos, key);
            }
            // Common case: FIFO arrival within a ρ/tie group appends.
            _ => dq.push_back(key),
        }
        *self.occupancy.get_mut(b / 64).expect("occupancy sized to BUCKET_COUNT/64") |=
            1 << (b % 64);
        self.len += 1;
    }

    /// Checked bucket accessor; `b` always comes from `bucket_of` or the
    /// occupancy bitmap, both bounded by `BUCKET_COUNT`.
    #[inline]
    fn bucket_mut(&mut self, b: usize) -> &mut VecDeque<Key> {
        self.buckets.get_mut(b).expect("bucket index from occupancy bitmap")
    }

    /// Lowest occupied bucket index (the GPU end), if any.
    #[inline]
    fn first_occupied(&self) -> Option<usize> {
        self.occupancy
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// Highest occupied bucket index (the CPU end), if any.
    #[inline]
    fn last_occupied(&self) -> Option<usize> {
        self.occupancy
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + 63 - w.leading_zeros() as usize)
    }

    /// Pop the task best suited to a worker of class `kind`: the most
    /// accelerated task for a GPU, the least accelerated for a CPU.
    pub fn pop(&mut self, kind: ResourceKind) -> Option<TaskId> {
        // An empty queue answers at once instead of scanning the bitmap:
        // once the ready set drains, every idle worker's pick lands here.
        if self.len == 0 {
            return None;
        }
        let (b, key) = match kind {
            ResourceKind::Gpu => {
                let b = self.first_occupied()?;
                (b, self.bucket_mut(b).pop_front().expect("occupied bucket is non-empty"))
            }
            ResourceKind::Cpu => {
                let b = self.last_occupied()?;
                (b, self.bucket_mut(b).pop_back().expect("occupied bucket is non-empty"))
            }
        };
        if self.bucket_mut(b).is_empty() {
            *self.occupancy.get_mut(b / 64).expect("occupancy sized to BUCKET_COUNT/64") &=
                !(1 << (b % 64));
        }
        self.len -= 1;
        Some(key.3)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tasks from the GPU end to the CPU end, for snapshot capture.
    /// Re-pushing them in this order reproduces the queue exactly: fresh
    /// sequence numbers are assigned ascending in iteration order, which
    /// preserves every FIFO tie.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.buckets.iter().flat_map(|dq| dq.iter().map(|&(_, _, _, task)| task))
    }
}

/// Which end of an affinity-ordered pair queue a pop came from.
///
/// `Front` is the accelerated end (the paper's GPU side of the pair),
/// `Back` the decelerated end. Reported so callers can emit the queue-end
/// trace annotation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PopSide {
    Front,
    Back,
}

/// Index of the class pair `{a, b}` (`a < b < k`) in row-major
/// upper-triangular order: `(0, 1), (0, 2), …, (1, 2), …`.
#[inline]
pub(crate) fn pair_index(k: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < k);
    a * (2 * k - a - 1) / 2 + (b - a - 1)
}

/// The ready queue generalized to `k` resource classes, for dynamic
/// arrivals (the online engine): one affinity-ordered queue per unordered
/// class pair `{a, b}`, keyed by the pair ratio `ρ_ab = t_a / t_b`. A
/// worker of class `c` pops the candidate with the largest relative
/// speedup on `c` across the `k − 1` pairs that involve `c` — the argmax
/// generalization of "GPUs pop the front, CPUs the back". (The
/// independent engine, whose tasks all arrive at once, sorts each pair
/// once instead.)
///
/// On the canonical two-class platform there is exactly one pair, and the
/// structure *is* the bucketed [`AffinityQueue`] (same keys, same pops:
/// bit-identical order, pinned by `two_class_matches_affinity_queue`
/// below). For `k ≥ 3` each pair holds an exact sorted set (`O(log n)`
/// per insert). A pop removes the task from the winning pair only; each
/// task carries the push sequence of its live entries, and entries with
/// another sequence are stale: a pop drops them when they reach an end,
/// and [`ClassQueue::iter`] skips them.
#[derive(Clone, Debug)]
pub struct ClassQueue {
    tie: QueueTieBreak,
    k: usize,
    /// `k == 2` fast path: the single pair, bucketed.
    two: Option<AffinityQueue>,
    /// `k ≥ 3`: one sorted set per pair `(a, b)`, `a < b`, indexed by
    /// [`pair_index`]. Ascending key order = class-`b` end.
    pairs: Vec<BTreeSet<Key>>,
    /// Push sequence of each queued task's live entries (by task index),
    /// `None` once popped.
    stamps: Vec<Option<u64>>,
    live: usize,
    seq: u64,
}

impl ClassQueue {
    /// A queue for platforms with `k` resource classes.
    pub fn new(k: usize, tie: QueueTieBreak) -> Self {
        assert!(k >= 2, "class queue needs at least two classes");
        let (two, pairs) = if k == 2 {
            (Some(AffinityQueue::new(tie)), Vec::new())
        } else {
            (None, vec![BTreeSet::new(); k * (k - 1) / 2])
        };
        ClassQueue { tie, k, two, pairs, stamps: Vec::new(), live: 0, seq: 0 }
    }

    /// Number of classes this queue was sized for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether `key` is its task's live entry.
    #[inline]
    fn is_live(stamps: &[Option<u64>], key: &Key) -> bool {
        stamps.get(key.3.index()).copied().flatten() == Some(key.2)
    }

    /// Insert a ready task. A task must not be pushed again while it is
    /// queued.
    pub fn push(&mut self, instance: &Instance, task: TaskId) {
        if let Some(two) = &mut self.two {
            two.push(instance, task);
            return;
        }
        let t = instance.task(task);
        let seq = self.seq;
        self.seq = self.seq.checked_add(1).expect("u64 push sequence never saturates");
        for a in 0..self.k {
            for b in (a + 1)..self.k {
                let rho = match t.try_affinity(ClassId::from(a), ClassId::from(b)) {
                    Ok(rho) => rho,
                    Err(e) => panic!("cannot queue {task}: {e}"),
                };
                let key =
                    (F64Ord::new(-rho), F64Ord::new(self.tie.key(rho, t.priority)), seq, task);
                let idx = pair_index(self.k, a, b);
                self.pairs.get_mut(idx).expect("pair_index < pair count").insert(key);
            }
        }
        if self.stamps.len() <= task.index() {
            self.stamps.resize(task.index() + 1, None);
        }
        let stamp = self.stamps.get_mut(task.index()).expect("resized above");
        debug_assert!(stamp.is_none(), "{task} pushed while already queued");
        *stamp = Some(seq);
        self.live += 1;
    }

    /// Pop the task best suited to a worker of class `class`: the argmax
    /// of the relative speedup `t_other / t_class` over every pair that
    /// involves `class` (strictly-greater comparison, lowest other-class
    /// index winning ties). Returns the chosen task and which end of its
    /// winning pair queue it came from.
    pub fn pop(&mut self, class: impl Into<ClassId>) -> Option<(TaskId, PopSide)> {
        let class = class.into();
        if let Some(two) = &mut self.two {
            return match class.index() {
                0 => two.pop(ResourceKind::Cpu).map(|t| (t, PopSide::Back)),
                1 => two.pop(ResourceKind::Gpu).map(|t| (t, PopSide::Front)),
                c => panic!("class C{c} out of range on a two-class queue"),
            };
        }
        let c = class.index();
        assert!(c < self.k, "class {class} out of range (k = {})", self.k);
        // Nothing live: skip the pair scans. Stale entries stay where they
        // are and are dropped by a later pop, as they would be anyway.
        if self.live == 0 {
            return None;
        }
        let mut best: Option<(f64, usize, PopSide, Key)> = None;
        for d in 0..self.k {
            if d == c {
                continue;
            }
            let (a, b) = (c.min(d), c.max(d));
            let idx = pair_index(self.k, a, b);
            let set = self.pairs.get_mut(idx).expect("pair_index < pair count");
            // Ascending key order is descending ρ_ab = t_a / t_b: the
            // first element favours class b most, the last class a most.
            let side = if c == b { PopSide::Front } else { PopSide::Back };
            let key = loop {
                let end = match side {
                    PopSide::Front => set.first(),
                    PopSide::Back => set.last(),
                };
                match end {
                    Some(key) if !Self::is_live(&self.stamps, key) => {
                        let _ = match side {
                            PopSide::Front => set.pop_first(),
                            PopSide::Back => set.pop_last(),
                        };
                    }
                    end => break end.copied(),
                }
            };
            let Some(key) = key else { continue };
            let rho = -(key.0).0;
            let advantage = match side {
                PopSide::Front => rho,
                PopSide::Back => 1.0 / rho,
            };
            if best.is_none_or(|(adv, ..)| advantage > adv) {
                best = Some((advantage, idx, side, key));
            }
        }
        let (_, winner_idx, side, key) = best?;
        let task = key.3;
        self.pairs.get_mut(winner_idx).expect("pair_index < pair count").remove(&key);
        *self.stamps.get_mut(task.index()).expect("a popped task was pushed") = None;
        self.live -= 1;
        Some((task, side))
    }

    pub fn len(&self) -> usize {
        match &self.two {
            Some(two) => two.len(),
            None => self.live,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tasks in snapshot order. On a two-class queue this is the exact
    /// accelerated-to-decelerated order of the underlying
    /// [`AffinityQueue`]; for `k ≥ 3` it is the `(0, 1)` pair's live
    /// order — re-pushing reproduces every pair's ρ order exactly and the
    /// `(0, 1)` pair's FIFO ties, which is the strongest order a single
    /// linear snapshot can preserve across `k−1` interleaved tie spaces.
    pub fn iter(&self) -> Box<dyn Iterator<Item = TaskId> + '_> {
        match &self.two {
            Some(two) => Box::new(two.iter()),
            None => Box::new(
                self.pairs
                    .first()
                    .expect("k >= 3 queue has pairs")
                    .iter()
                    .filter(|key| Self::is_live(&self.stamps, key))
                    .map(|&(_, _, _, task)| task),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Task;

    #[test]
    fn gpu_gets_most_accelerated_cpu_least() {
        let inst = Instance::from_times(&[(8.0, 1.0), (1.0, 8.0), (2.0, 2.0)]);
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        for id in inst.ids() {
            q.push(&inst, id);
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(ResourceKind::Gpu), Some(TaskId(0)));
        assert_eq!(q.pop(ResourceKind::Cpu), Some(TaskId(1)));
        assert_eq!(q.pop(ResourceKind::Cpu), Some(TaskId(2)));
        assert!(q.is_empty());
        assert_eq!(q.pop(ResourceKind::Gpu), None);
    }

    #[test]
    fn priority_rule_orients_ties_by_side() {
        let mut inst = Instance::new();
        let lo_acc = inst.push(Task::new(2.0, 1.0).with_priority(1.0));
        let hi_acc = inst.push(Task::new(2.0, 1.0).with_priority(9.0));
        let lo_dec = inst.push(Task::new(1.0, 2.0).with_priority(1.0));
        let hi_dec = inst.push(Task::new(1.0, 2.0).with_priority(9.0));
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        for id in inst.ids() {
            q.push(&inst, id);
        }
        // Among accelerated ties the GPU sees the high priority first;
        // among decelerated ties the CPU sees the high priority first.
        assert_eq!(q.pop(ResourceKind::Gpu), Some(hi_acc));
        assert_eq!(q.pop(ResourceKind::Gpu), Some(lo_acc));
        assert_eq!(q.pop(ResourceKind::Cpu), Some(hi_dec));
        assert_eq!(q.pop(ResourceKind::Cpu), Some(lo_dec));
    }

    #[test]
    fn insertion_order_breaks_ties_fifo_per_side() {
        let inst = Instance::from_times(&[(2.0, 1.0), (2.0, 1.0), (2.0, 1.0)]);
        let mut q = AffinityQueue::new(QueueTieBreak::InsertionOrder);
        for id in inst.ids() {
            q.push(&inst, id);
        }
        assert_eq!(q.pop(ResourceKind::Gpu), Some(TaskId(0)));
        assert_eq!(q.pop(ResourceKind::Cpu), Some(TaskId(2)));
        assert_eq!(q.pop(ResourceKind::Gpu), Some(TaskId(1)));
    }

    #[test]
    fn matches_sorted_queue_on_static_sets() {
        use crate::heteroprio::sorted_queue;
        let inst =
            Instance::from_times(&[(3.0, 1.0), (1.0, 3.0), (4.0, 4.0), (9.0, 1.0), (2.0, 5.0)]);
        let ids: Vec<TaskId> = inst.ids().collect();
        for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            let reference = sorted_queue(&inst, &ids, tie);
            let mut q = AffinityQueue::new(tie);
            for &id in &ids {
                q.push(&inst, id);
            }
            // Draining from the GPU side must reproduce the sorted order.
            let mut drained = Vec::new();
            while let Some(t) = q.pop(ResourceKind::Gpu) {
                drained.push(t);
            }
            assert_eq!(drained, Vec::from(reference), "{tie:?}");
        }
    }

    #[test]
    fn rho_exactly_one_uses_gpu_side_priority_rule_on_both_queues() {
        use crate::heteroprio::sorted_queue;
        // ρ = 1.0 exactly sits on the orientation boundary of the priority
        // tie rule. Both the static sort and the dynamic queue must apply
        // the GPU-side rule (`ρ >= 1`): highest priority closest to the
        // front. Pin the order on both so the two code paths cannot drift.
        let mut inst = Instance::new();
        let lo = inst.push(Task::new(3.0, 3.0).with_priority(1.0));
        let hi = inst.push(Task::new(3.0, 3.0).with_priority(9.0));
        let mid = inst.push(Task::new(3.0, 3.0).with_priority(5.0));
        let ids: Vec<TaskId> = inst.ids().collect();

        // Static queue: descending priority at ρ = 1.
        let sorted = sorted_queue(&inst, &ids, QueueTieBreak::Priority);
        assert_eq!(Vec::from(sorted), vec![hi, mid, lo]);

        // Dynamic queue agrees, draining from either end.
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        for &id in &ids {
            q.push(&inst, id);
        }
        assert_eq!(q.pop(ResourceKind::Gpu), Some(hi), "GPU sees the highest priority first");
        assert_eq!(q.pop(ResourceKind::Cpu), Some(lo), "CPU end holds the lowest priority");
        assert_eq!(q.pop(ResourceKind::Gpu), Some(mid));

        // Mixed ρ around the boundary: ρ = 1 tasks still group together
        // and sit between accelerated and decelerated tasks.
        let mut inst2 = Instance::new();
        let fast = inst2.push(Task::new(4.0, 1.0));
        let one_hi = inst2.push(Task::new(2.0, 2.0).with_priority(7.0));
        let one_lo = inst2.push(Task::new(2.0, 2.0).with_priority(2.0));
        let slow = inst2.push(Task::new(1.0, 4.0));
        let ids2: Vec<TaskId> = inst2.ids().collect();
        let expect = vec![fast, one_hi, one_lo, slow];
        assert_eq!(Vec::from(sorted_queue(&inst2, &ids2, QueueTieBreak::Priority)), expect);
        let mut q2 = AffinityQueue::new(QueueTieBreak::Priority);
        for &id in &ids2 {
            q2.push(&inst2, id);
        }
        let mut drained = Vec::new();
        while let Some(t) = q2.pop(ResourceKind::Gpu) {
            drained.push(t);
        }
        assert_eq!(drained, expect);
    }

    #[test]
    fn non_finite_accel_factor_is_rejected_at_the_queue_boundary() {
        // A task smuggled past validation (public fields) must be rejected
        // with the typed ModelError message, not silently mis-ordered.
        let inst = Instance::from_tasks(vec![Task::from_raw_times(&[1e308, 1e-308], 0.0)]);
        let mut q = AffinityQueue::new(QueueTieBreak::Priority);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.push(&inst, TaskId(0));
        }))
        .expect_err("push of a non-finite-rho task must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("positive and finite"), "unexpected panic message: {msg}");
    }

    #[test]
    fn interleaved_push_pop_preserves_exact_order() {
        // Exercise the spill path: push high-ρ tasks after lower-ρ ones in
        // the same octave, interleaved with pops from both ends, and check
        // against a straightforward sorted model.
        let inst = Instance::from_times(&[
            (3.0, 2.0), // ρ = 1.5
            (7.0, 4.0), // ρ = 1.75  (same octave as 1.5)
            (2.0, 1.0), // ρ = 2
            (5.0, 4.0), // ρ = 1.25  (same octave again)
            (9.0, 8.0), // ρ = 1.125
        ]);
        let mut q = AffinityQueue::new(QueueTieBreak::InsertionOrder);
        q.push(&inst, TaskId(0));
        q.push(&inst, TaskId(1)); // spill: 1.75 sorts before 1.5
        q.push(&inst, TaskId(2)); // different octave
        assert_eq!(q.pop(ResourceKind::Gpu), Some(TaskId(2)));
        q.push(&inst, TaskId(3)); // appends after 1.5
        q.push(&inst, TaskId(4)); // appends after 1.25
        let mut front_drain = Vec::new();
        while let Some(t) = q.pop(ResourceKind::Gpu) {
            front_drain.push(t);
        }
        assert_eq!(front_drain, vec![TaskId(1), TaskId(0), TaskId(3), TaskId(4)]);
    }

    #[test]
    fn two_class_matches_affinity_queue() {
        // The generalized queue at k = 2 *is* the bucketed AffinityQueue:
        // identical pops from both ends, interleaved with pushes.
        let inst = Instance::from_times(&[
            (3.0, 1.0),
            (1.0, 3.0),
            (4.0, 4.0),
            (9.0, 1.0),
            (2.0, 5.0),
            (3.0, 1.0),
            (7.0, 4.0),
        ]);
        for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            let mut reference = AffinityQueue::new(tie);
            let mut general = ClassQueue::new(2, tie);
            for id in inst.ids() {
                reference.push(&inst, id);
                general.push(&inst, id);
            }
            assert_eq!(general.len(), reference.len());
            let mut side = ResourceKind::Gpu;
            while let Some(expect) = reference.pop(side) {
                let class = ClassId::from(side);
                let got = general.pop(class);
                let want_side =
                    if side == ResourceKind::Gpu { PopSide::Front } else { PopSide::Back };
                assert_eq!(got, Some((expect, want_side)), "{tie:?}");
                side = side.other();
            }
            assert!(general.is_empty());
        }
    }

    #[test]
    fn three_class_pop_takes_argmax_relative_speedup() {
        // Times per class (cpu, gpu, fpga).
        let inst = Instance::from_class_times(&[
            &[8.0, 1.0, 4.0], // T0: best on gpu (8× vs cpu)
            &[2.0, 4.0, 1.0], // T1: best on fpga (4× vs gpu)
            &[1.0, 6.0, 6.0], // T2: best on cpu
        ]);
        let mut q = ClassQueue::new(3, QueueTieBreak::Priority);
        for id in inst.ids() {
            q.push(&inst, id);
        }
        assert_eq!(q.len(), 3);
        // The GPU's best relative speedup is T0 (ρ_cpu,gpu = 8).
        let (t, _) = q.pop(ClassId(1)).unwrap();
        assert_eq!(t, TaskId(0));
        // The FPGA's best remaining is T1 (ρ_gpu,fpga = 4).
        let (t, _) = q.pop(ClassId(2)).unwrap();
        assert_eq!(t, TaskId(1));
        // The CPU takes what favours it most.
        let (t, _) = q.pop(ClassId(0)).unwrap();
        assert_eq!(t, TaskId(2));
        assert!(q.is_empty());
        assert_eq!(q.pop(ClassId(0)), None);
    }

    #[test]
    fn three_class_pop_removes_task_from_every_pair() {
        // After a pop, the task must be gone from all pair queues: popping
        // for the other classes never yields it again, and a re-push (the
        // spoliation path) resurrects it cleanly.
        let inst = Instance::from_class_times(&[&[4.0, 1.0, 2.0], &[4.0, 2.0, 1.0]]);
        let mut q = ClassQueue::new(3, QueueTieBreak::Priority);
        q.push(&inst, TaskId(0));
        q.push(&inst, TaskId(1));
        let (first, _) = q.pop(ClassId(1)).unwrap();
        assert_eq!(first, TaskId(0), "GPU favours T0 (4x over CPU)");
        assert_eq!(q.len(), 1);
        let (second, _) = q.pop(ClassId(2)).unwrap();
        assert_eq!(second, TaskId(1), "T0 must not reappear from another pair");
        assert!(q.is_empty());
        // Spoliation re-push: the task returns and is poppable again.
        q.push(&inst, TaskId(0));
        assert_eq!(q.pop(ClassId(0)).unwrap().0, TaskId(0));
    }

    #[test]
    fn iter_order_survives_snapshot_style_rebuild() {
        // The snapshot protocol re-pushes iter() output in order with fresh
        // sequence numbers; the rebuilt queue must drain identically.
        let inst = Instance::from_times(&[
            (2.0, 1.0),
            (2.0, 1.0),
            (6.0, 4.0),
            (1.0, 2.0),
            (3.0, 3.0),
            (2.0, 1.0),
        ]);
        for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            let mut q = AffinityQueue::new(tie);
            for id in inst.ids() {
                q.push(&inst, id);
            }
            let _ = q.pop(ResourceKind::Cpu);
            let saved: Vec<TaskId> = q.iter().collect();
            let mut rebuilt = AffinityQueue::new(tie);
            for &t in &saved {
                rebuilt.push(&inst, t);
            }
            assert_eq!(rebuilt.iter().collect::<Vec<_>>(), saved, "{tie:?}");
            while let Some(expect) = q.pop(ResourceKind::Gpu) {
                assert_eq!(rebuilt.pop(ResourceKind::Gpu), Some(expect), "{tie:?}");
            }
            assert!(rebuilt.is_empty());
        }
    }
}
