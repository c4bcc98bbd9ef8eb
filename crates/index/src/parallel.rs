//! Build-side thread pool: the atomic-counter work-stealing loop the
//! query path uses (`SealEngine::search_batch`), packaged for *build*
//! work — per-token `HSS-Greedy` selections, per-group staged sorts
//! inside `finalize`, and any other embarrassingly parallel fan-out.
//!
//! No external dependencies: plain `std::thread::scope` workers pulling
//! task indexes from a shared [`AtomicUsize`]. Skewed per-task costs
//! (Zipf token frequencies make some groups orders of magnitude larger
//! than others) therefore cannot idle a thread the way static chunking
//! can. With one thread (or fewer than two tasks) every helper
//! degenerates to a plain sequential loop — no threads spawned, no
//! synchronization touched — so `threads = 1` is always safe to call
//! from inside another worker.
//!
//! Determinism contract: each task index is claimed by exactly one
//! worker and the task function sees only its own index, so any
//! deterministic per-task function produces results independent of the
//! thread count — the property the parallel-build determinism tests
//! assert end to end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a requested thread count: `0` means "use every core"
/// (`std::thread::available_parallelism`), anything else is taken
/// literally. Always returns at least 1.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// The effective worker count for `tasks` parallel tasks: `requested`
/// resolves through [`resolve_threads`] (`0` = one worker per core),
/// then clamps to the task count and to at least one.
///
/// This is the **single** thread-count rule for every fan-out in the
/// workspace — the work-stealing loops below and `seal-core`'s
/// `search_batch` all route through it, so the "0 means all cores"
/// convention cannot drift between the build side and the query side
/// again.
pub fn worker_count(requested: usize, tasks: usize) -> usize {
    resolve_threads(requested).clamp(1, tasks.max(1))
}

/// Runs `task(i)` for every `i in 0..count` across `threads` workers
/// (work stealing over a shared atomic counter). Each index is claimed
/// by exactly one worker. `threads <= 1` or `count < 2` runs inline on
/// the calling thread.
pub fn for_each_index(count: usize, threads: usize, task: impl Fn(usize) + Sync) {
    let threads = worker_count(threads, count);
    if threads <= 1 || count < 2 {
        for i in 0..count {
            task(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                task(i);
            });
        }
    });
}

/// Maps `f` over `0..count` across `threads` workers and returns the
/// results in index order. The work-stealing loop guarantees every
/// index is computed exactly once, so the output is identical to the
/// sequential `(0..count).map(f).collect()` whenever `f` is
/// deterministic — only wall-clock time depends on `threads`.
pub fn map_indexed<T: Send>(count: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = worker_count(threads, count);
    if threads <= 1 || count < 2 {
        return (0..count).map(f).collect();
    }
    // Mutex<Option<T>> rather than OnceLock<T>: it is Sync for any
    // T: Send, and each slot is written exactly once by the worker
    // that claimed its index, so the locks are uncontended.
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    for_each_index(count, threads, |i| {
        *slots[i].lock().expect("slot write cannot poison") = Some(f(i));
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot write cannot poison")
                .expect("every slot filled by the work loop")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn worker_count_clamps_to_tasks() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(worker_count(0, 1000), cores.min(1000));
        assert_eq!(worker_count(8, 3), 3);
        assert_eq!(worker_count(1, 100), 1);
        assert_eq!(worker_count(4, 0), 1);
        assert_eq!(worker_count(0, 0), 1);
    }

    #[test]
    fn for_each_visits_every_index_once() {
        for threads in [1usize, 2, 8] {
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            for_each_index(hits.len(), threads, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_results_come_back_in_index_order() {
        for threads in [1usize, 3, 16] {
            let out = map_indexed(257, threads, |i| i * i);
            assert_eq!(out, (0..257).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_task_are_fine() {
        for_each_index(0, 4, |_| panic!("no tasks"));
        assert_eq!(map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 4, |i| i + 1), vec![1]);
    }
}
