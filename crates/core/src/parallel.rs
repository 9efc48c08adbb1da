//! The workspace's one sanctioned worker pool.
//!
//! Rayon (and since the offline-build fix, crossbeam too) is not part of
//! this workspace's dependency budget; a scoped-thread worker pool over
//! `std::sync::mpsc` channels covers every fan-out need so far (a few
//! dozen coarse-grained simulation jobs per sweep).
//!
//! This module and the metrics registry slab are the only places the
//! `unfenced-concurrency` lint allows threads and shared-state primitives:
//! results are reassembled in submission order, so callers stay
//! deterministic no matter how the workers interleave. ROADMAP item 2's
//! worker-parallel kernel loop is expected to grow here, inside the same
//! fence, rather than sprouting ad-hoc `thread::spawn` calls in the
//! kernel.
//!
//! It also holds the one piece of process-wide state the kernel reads: the
//! source of kernel state epochs (`epoch_block`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;

/// Values per epoch block. A kernel counts its state epoch up through one
/// block and draws the next block when it has used this many.
pub(crate) const EPOCH_BLOCK: u64 = 1 << 16;

/// Start of the next unclaimed epoch block.
static NEXT_EPOCH_BLOCK: AtomicU64 = AtomicU64::new(0);

/// Claim a fresh block of [`EPOCH_BLOCK`] kernel state epochs and return
/// its first value. Blocks are disjoint for the life of the process, so
/// two kernels never hand a policy the same epoch, whichever threads they
/// run on. The claim never wraps: after 2^48 blocks it panics rather than
/// reissue a value.
pub(crate) fn epoch_block() -> u64 {
    // Relaxed: the counter publishes no other data; the read-modify-write
    // alone makes the claimed blocks disjoint.
    NEXT_EPOCH_BLOCK
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |next| next.checked_add(EPOCH_BLOCK))
        .expect("kernel epoch space exhausted")
}

/// Map `f` over `items` in parallel, preserving order. Uses up to
/// `available_parallelism` worker threads (capped by the item count).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = thread::available_parallelism().map_or(4, |p| p.get()).min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // mpsc receivers are single-consumer, so workers share the work queue
    // through a mutex; jobs are coarse enough that contention is noise.
    let (tx_work, rx_work) = mpsc::channel::<(usize, T)>();
    let (tx_res, rx_res) = mpsc::channel::<(usize, R)>();
    for (i, item) in items.into_iter().enumerate() {
        tx_work.send((i, item)).expect("send work");
    }
    drop(tx_work);
    let rx_work = Mutex::new(rx_work);
    thread::scope(|s| {
        for _ in 0..threads {
            let rx = &rx_work;
            let tx = tx_res.clone();
            let f = &f;
            s.spawn(move || loop {
                let job = rx.lock().expect("work queue lock").try_recv();
                match job {
                    Ok((i, item)) => tx.send((i, f(item))).expect("send result"),
                    Err(_) => break, // queue drained (sender already dropped)
                }
            });
        }
        drop(tx_res);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        while let Ok((i, r)) = rx_res.recv() {
            *results.get_mut(i).expect("worker index in range") = Some(r);
        }
        results.into_iter().map(|r| r.expect("all jobs completed")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_blocks_are_disjoint_and_aligned() {
        let a = epoch_block();
        let b = epoch_block();
        assert_ne!(a, b);
        assert_eq!(a % EPOCH_BLOCK, 0);
        assert_eq!(b % EPOCH_BLOCK, 0);
    }

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), |i: i32| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_is_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = parallel_map(vec![41], |i: i32| i + 1);
        assert_eq!(out, vec![42]);
    }
}
