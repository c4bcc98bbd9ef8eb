//! Adaptive query coalescing: group-commit batching over
//! [`QueryEngine::search_batch`].
//!
//! Concurrent `/query` requests land in one shared queue. The first
//! arrival becomes the **leader**: it drains the queue (up to
//! the configured `max_batch`) and dispatches the whole batch through the
//! engine's `search_batch`, which takes one snapshot for the batch
//! and runs the queries on work-stealing workers. Requests that arrive
//! *while* a batch executes queue up as the next batch — so the batch
//! size adapts to the offered load with no tuned time window: at idle
//! a query dispatches immediately (batch of one, zero added latency);
//! under load batches grow until the queue bound pushes back.
//! This is the group-commit / convoy pattern from write-ahead logging
//! applied to read traffic.
//!
//! Every query in a batch is answered against the engine behind one
//! [`QueryEngine::search_batch`] call — for a `LiveEngine`, one
//! consistent snapshot (generation + staged delta), which is what lets
//! the black-box concurrency tests check every wire answer against the
//! two legal snapshots of `tests/util/model.rs`'s model (the generation
//! plus the frozen-weight overlay, or the union's fresh build);
//! for a `ShardedEngine`, one consistent per-shard combination.

use seal_core::{Query, QueryEngine, SearchResult};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Poison-recovering lock: the serving tier must not panic
/// (`panic-surface` invariant), and every critical section in this
/// module is a handful of queue/option field operations that cannot
/// themselves panic — so a poisoned mutex can only mean *another*
/// slot's panic unwound elsewhere, and the protected data is still
/// consistent. Taking it as-is keeps the convoy draining instead of
/// cascading the panic into every parked request.
fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One waiting request's result cell.
struct Slot {
    result: Mutex<Option<SearchResult>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, r: SearchResult) {
        *relock(&self.result) = Some(r);
        self.ready.notify_one();
    }

    fn wait(&self) -> SearchResult {
        let mut guard = relock(&self.result);
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct BatchState {
    pending: VecDeque<(Query, Arc<Slot>)>,
    /// True while some thread is dispatching batches; new arrivals
    /// enqueue and wait instead of racing to dispatch singletons.
    leader_active: bool,
}

/// The submission outcome when the queue is saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy;

/// Shared query-coalescing front end over any [`QueryEngine`]. See
/// the [module docs](self) for the protocol.
pub struct Batcher {
    engine: Arc<dyn QueryEngine>,
    state: Mutex<BatchState>,
    /// Upper bound on one dispatched batch (bounds per-query latency
    /// under overload: a request waits at most ⌈queue/max_batch⌉
    /// dispatches).
    max_batch: usize,
    /// Queue bound: submissions beyond it are refused with [`Busy`]
    /// (the server turns that into `503 Retry-After`).
    max_queued: usize,
    /// Worker budget handed to `search_batch` (0 = one per core).
    threads: usize,
}

impl Batcher {
    /// Creates a batcher over `engine`. `threads` follows the engine
    /// convention (0 = one worker per core).
    pub fn new(
        engine: Arc<dyn QueryEngine>,
        max_batch: usize,
        max_queued: usize,
        threads: usize,
    ) -> Self {
        Batcher {
            engine,
            state: Mutex::new(BatchState {
                pending: VecDeque::new(),
                leader_active: false,
            }),
            max_batch: max_batch.max(1),
            max_queued: max_queued.max(1),
            threads,
        }
    }

    /// Queries currently queued (diagnostics / backpressure probes).
    pub fn queued(&self) -> usize {
        relock(&self.state).pending.len()
    }

    /// Submits one query and blocks until its batch completes.
    /// Returns the result plus the size of the batch that carried it.
    /// `Err(Busy)` when the queue is at capacity — the caller should
    /// shed load, not wait.
    ///
    /// `on_batch` is invoked once per dispatched batch (by whichever
    /// thread led it) with the batch size, so the server can record
    /// coalescing metrics without the batcher depending on them.
    pub fn submit(&self, query: Query, on_batch: &dyn Fn(usize)) -> Result<SearchResult, Busy> {
        let slot = Slot::new();
        {
            let mut s = relock(&self.state);
            if s.pending.len() >= self.max_queued {
                return Err(Busy);
            }
            s.pending.push_back((query, slot.clone()));
            if s.leader_active {
                // A leader exists: it (or its successor loop) will
                // drain us. Wait on our slot.
                drop(s);
                return Ok(slot.wait());
            }
            s.leader_active = true;
        }
        // Leader loop: dispatch batches until the queue is empty. Our
        // own slot is filled by the first iteration (we enqueued
        // before taking leadership), but we keep draining so late
        // followers are never stranded without a leader.
        loop {
            let batch: Vec<(Query, Arc<Slot>)> = {
                let mut s = relock(&self.state);
                if s.pending.is_empty() {
                    s.leader_active = false;
                    break;
                }
                let take = s.pending.len().min(self.max_batch);
                s.pending.drain(..take).collect()
            };
            on_batch(batch.len());
            let queries: Vec<Query> = batch.iter().map(|(q, _)| q.clone()).collect();
            let results = self.engine.search_batch(&queries, self.threads);
            for ((_, slot), result) in batch.into_iter().zip(results) {
                slot.fill(result);
            }
        }
        Ok(slot.wait())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_core::store::figure1_store;
    use seal_core::{EngineStatus, FilterKind, LiveEngine, ObjectId, RefreshStats, RoiObject};
    use seal_geom::Rect;
    use seal_text::{TokenId, TokenSet};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn live() -> (Arc<LiveEngine>, seal_core::Query) {
        let (store, q) = figure1_store();
        (
            Arc::new(LiveEngine::new(Arc::new(store), FilterKind::Token)),
            q,
        )
    }

    #[test]
    fn single_submission_matches_direct_search() {
        let (live, q) = live();
        let batcher = Batcher::new(live.clone(), 64, 256, 1);
        let direct = live.search(&q).sorted().answers;
        let got = batcher.submit(q, &|_| {}).unwrap().sorted().answers;
        assert_eq!(got, direct);
    }

    #[test]
    fn concurrent_submissions_coalesce_and_all_answer() {
        let (live, q) = live();
        let batcher = Arc::new(Batcher::new(live.clone(), 64, 256, 2));
        let expect = live.search(&q).sorted().answers;
        let max_seen = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let batcher = batcher.clone();
                let q = q.clone();
                let max_seen = max_seen.clone();
                let expect = expect.clone();
                scope.spawn(move || {
                    for _ in 0..25 {
                        let r = batcher
                            .submit(q.clone(), &|n| {
                                max_seen.fetch_max(n, Ordering::Relaxed);
                            })
                            .unwrap();
                        assert_eq!(r.sorted().answers, expect);
                    }
                });
            }
        });
        // Not asserting coalescing happened (single-core boxes may
        // serialize perfectly), only that it never exceeded the cap.
        assert!(max_seen.load(Ordering::Relaxed) <= 64);
    }

    /// A `LiveEngine` whose first `search_batch` meets the test at
    /// `gate` twice: once to say the leader is dispatching, once to be
    /// let go. Later batches run straight through.
    struct ParkFirstBatch {
        inner: Arc<LiveEngine>,
        gate: Arc<Barrier>,
        parked: AtomicBool,
    }

    impl QueryEngine for ParkFirstBatch {
        fn search(&self, q: &Query) -> SearchResult {
            self.inner.search(q)
        }
        fn search_batch(&self, queries: &[Query], threads: usize) -> Vec<SearchResult> {
            if !self.parked.swap(true, Ordering::SeqCst) {
                self.gate.wait();
                self.gate.wait();
            }
            self.inner.search_batch(queries, threads)
        }
        fn search_top_k(
            &self,
            region: Rect,
            tokens: TokenSet,
            k: usize,
            alpha: f64,
        ) -> Vec<(ObjectId, f64)> {
            self.inner.search_top_k(region, tokens, k, alpha)
        }
        fn push(&self, object: RoiObject) -> ObjectId {
            self.inner.push(object)
        }
        fn push_all(&self, objects: Vec<RoiObject>) -> Option<ObjectId> {
            self.inner.push_all(objects)
        }
        fn refresh(&self) -> RefreshStats {
            self.inner.refresh()
        }
        fn generation(&self) -> u64 {
            self.inner.generation()
        }
        fn staged_len(&self) -> usize {
            self.inner.staged_len()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn resolve_token(&self, token: &str) -> Option<TokenId> {
            QueryEngine::resolve_token(&*self.inner, token)
        }
        fn status(&self) -> EngineStatus {
            QueryEngine::status(&*self.inner)
        }
    }

    #[test]
    fn queue_bound_sheds_load() {
        let (live, q) = live();
        let expect = live.search(&q).sorted().answers;
        let gate = Arc::new(Barrier::new(2));
        let engine = Arc::new(ParkFirstBatch {
            inner: live,
            gate: gate.clone(),
            parked: AtomicBool::new(false),
        });
        let batcher = Batcher::new(engine, 1, 1, 1);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| batcher.submit(q.clone(), &|_| {}));
            // The leader has drained its own query and is dispatching.
            gate.wait();
            let follower = scope.spawn(|| batcher.submit(q.clone(), &|_| {}));
            while batcher.queued() < 1 && !follower.is_finished() {
                std::thread::yield_now();
            }
            // max_queued = 1 and the follower holds the one place: the
            // third is refused at once (a queued third would show as
            // two pending instead of hanging the test).
            let third = scope.spawn(|| batcher.submit(q.clone(), &|_| {}));
            while !third.is_finished() && batcher.queued() < 2 {
                std::thread::yield_now();
            }
            gate.wait();
            let third = third.join().expect("third submitter");
            assert!(matches!(third, Err(Busy)), "third submission queued");
            for submitter in [leader, follower] {
                let r = submitter.join().expect("submitter thread");
                assert_eq!(r.expect("within the bound").sorted().answers, expect);
            }
        });
        assert_eq!(batcher.queued(), 0);
    }

    #[test]
    fn max_batch_bounds_each_dispatch() {
        let (live, q) = live();
        let batcher = Arc::new(Batcher::new(live, 2, 256, 1));
        let ok = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let batcher = batcher.clone();
                let q = q.clone();
                let ok = ok.clone();
                scope.spawn(move || {
                    let r = batcher.submit(q, &|n| assert!(n <= 2, "batch {n} over cap"));
                    if r.is_ok() {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8, "no submission lost");
    }
}
