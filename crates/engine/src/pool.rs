//! A work-stealing thread-pool driver for batch jobs.
//!
//! Jobs are seeded round-robin into per-worker deques; an idle worker pops
//! from the front of its own deque and, when empty, steals from the back of
//! the fullest other deque. Because no job spawns further jobs, "every
//! deque empty" is a stable termination condition. Results land in a slot
//! array indexed by submission order, so the output is deterministic and
//! independent of scheduling, thread count, and completion order.
//!
//! [`run_jobs`] is the one-shot batch driver; [`ServicePool`] is its
//! long-lived sibling for the daemon: the same per-worker deques and
//! stealing discipline, but workers persist across submissions, the queue
//! is bounded (backpressure instead of unbounded growth), and
//! [`ServicePool::drain`] finishes queued work before the threads exit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Locks a mutex, recovering the guard if a panicking holder poisoned it.
/// Every mutex in the engine guards state that stays structurally valid
/// across a panic — pool queues, connection maps, cache tiers and
/// counters — so a panic in one job or connection never wedges the rest.
pub(crate) fn lock_poison_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs every item of `items` through `run` on `workers` threads and
/// returns the results in submission order. `workers` is clamped to
/// `1..=items.len()`; with one worker the pool degenerates to a sequential
/// loop (no threads are spawned).
pub fn run_jobs<T, R, F>(items: Vec<T>, workers: usize, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run(i, item))
            .collect();
    }

    // Round-robin seeding keeps the initial load balanced; stealing fixes
    // whatever imbalance job runtimes introduce.
    let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        lock_poison_ok(&queues[i % workers]).push_back((i, item));
    }
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let results = &results;
            let run = &run;
            // Named threads give trace spans (and debuggers) a stable
            // worker identity: spans recorded on this thread report
            // `weaver-worker-<n>` as their thread name.
            std::thread::Builder::new()
                .name(format!("weaver-worker-{me}"))
                .spawn_scoped(scope, move || loop {
                    // Own deque first (front), then steal (back of the
                    // fullest).
                    let next = lock_poison_ok(&queues[me]).pop_front();
                    let (index, item) = match next.or_else(|| steal(queues, me)) {
                        Some(job) => job,
                        None => {
                            // Must happen inside the closure: the scope
                            // unblocks before this thread's TLS destructors
                            // run, so a drop-time flush could lose the last
                            // buffered spans to a caller draining the trace
                            // right after the batch returns.
                            weaver_obs::span::flush_thread();
                            return;
                        }
                    };
                    let result = run(index, item);
                    *lock_poison_ok(&results[index]) = Some(result);
                })
                .expect("spawn batch worker");
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every job ran exactly once")
        })
        .collect()
}

/// Steals one item from the back of the fullest deque other than `me`.
/// The caller must not hold any queue's guard: two workers that each held
/// their own while stealing from the other would wait on each other.
fn steal<T>(queues: &[Mutex<VecDeque<T>>], me: usize) -> Option<T> {
    let mut victim: Option<usize> = None;
    let mut longest = 0usize;
    for (w, queue) in queues.iter().enumerate() {
        if w == me {
            continue;
        }
        let len = lock_poison_ok(queue).len();
        if len > longest {
            longest = len;
            victim = Some(w);
        }
    }
    lock_poison_ok(&queues[victim?]).pop_back()
}

// ---------------------------------------------------------------------------
// The persistent service pool
// ---------------------------------------------------------------------------

/// Why [`ServicePool::submit`] rejected an item; the item is handed back so
/// the caller can report structured backpressure instead of losing it.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The queue is at its bound — the caller should shed load.
    Full(T),
    /// The pool is draining and accepts no further work.
    ShuttingDown(T),
}

struct ServiceInner<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    /// Items pushed but not yet popped by a worker (the bounded quantity).
    queued: AtomicUsize,
    bound: usize,
    rr: AtomicUsize,
    stop: AtomicBool,
    /// Wakes idle workers on submit and drain. The gate mutex carries no
    /// data: `queued`/`stop` are re-checked under it so a notify between
    /// check and wait cannot be missed.
    gate: Mutex<()>,
    available: Condvar,
}

/// A long-lived work-stealing pool: `workers` persistent threads service a
/// bounded multi-queue of submitted items. Same stealing discipline as
/// [`run_jobs`]; unlike it, the pool outlives any one batch, so the daemon
/// keeps its caches hot across requests.
///
/// Results travel through whatever channel the `run` closure captures (the
/// server hands each item a reply sender) — the pool itself only schedules.
pub struct ServicePool<T> {
    inner: Arc<ServiceInner<T>>,
    run: Arc<dyn Fn(T) + Send + Sync>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<T: Send + 'static> ServicePool<T> {
    /// Spawns `workers` threads (min 1) servicing a queue bounded at
    /// `bound` items (min 1). `run` is invoked once per submitted item, on
    /// some worker thread.
    pub fn new<F>(workers: usize, bound: usize, run: F) -> ServicePool<T>
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let inner = Arc::new(ServiceInner {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            bound: bound.max(1),
            rr: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            gate: Mutex::new(()),
            available: Condvar::new(),
        });
        let run: Arc<dyn Fn(T) + Send + Sync> = Arc::new(run);
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            let inner = inner.clone();
            let run = run.clone();
            let handle = std::thread::Builder::new()
                .name(format!("weaver-service-{me}"))
                .spawn(move || service_worker(me, &inner, &*run))
                .expect("spawn service worker");
            handles.push(handle);
        }
        ServicePool {
            inner,
            run,
            handles: Mutex::new(handles),
        }
    }

    /// Enqueues `item`, or returns it inside a [`SubmitError`] when the
    /// pool is at its bound or draining.
    pub fn submit(&self, item: T) -> Result<(), SubmitError<T>> {
        if self.inner.stop.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown(item));
        }
        // Reserve a queue slot before pushing so concurrent submitters
        // cannot overshoot the bound.
        let mut depth = self.inner.queued.load(Ordering::SeqCst);
        loop {
            if depth >= self.inner.bound {
                return Err(SubmitError::Full(item));
            }
            match self.inner.queued.compare_exchange(
                depth,
                depth + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(current) => depth = current,
            }
        }
        let w = self.inner.rr.fetch_add(1, Ordering::Relaxed) % self.inner.queues.len();
        lock_poison_ok(&self.inner.queues[w]).push_back(item);
        let _gate = lock_poison_ok(&self.inner.gate);
        self.inner.available.notify_one();
        Ok(())
    }

    /// Items queued but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.queued.load(Ordering::SeqCst)
    }

    /// Whether [`ServicePool::drain`] has started.
    pub fn is_draining(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Stops accepting new work, finishes everything already queued, and
    /// joins the worker threads. Idempotent.
    pub fn drain(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        {
            let _gate = lock_poison_ok(&self.inner.gate);
            self.inner.available.notify_all();
        }
        let handles = std::mem::take(&mut *lock_poison_ok(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
        // A submit racing the shutdown can slip an item in after the
        // workers observed empty queues and exited; run it inline so every
        // accepted item is serviced.
        while let Some(item) = pop_any(&self.inner.queues) {
            self.inner.queued.fetch_sub(1, Ordering::SeqCst);
            (self.run)(item);
        }
    }
}

impl<T> Drop for ServicePool<T> {
    fn drop(&mut self) {
        // Workers hold `Arc<ServiceInner>`, so without a drain they would
        // outlive the handle and idle forever.
        self.inner.stop.store(true, Ordering::SeqCst);
        {
            let _gate = lock_poison_ok(&self.inner.gate);
            self.inner.available.notify_all();
        }
        let handles = std::mem::take(&mut *lock_poison_ok(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn service_worker<T>(me: usize, inner: &ServiceInner<T>, run: &(dyn Fn(T) + Send + Sync)) {
    loop {
        // Own deque first, in a statement of its own so its guard is
        // dropped before `steal` locks the others.
        let next = lock_poison_ok(&inner.queues[me]).pop_front();
        match next.or_else(|| steal(&inner.queues, me)) {
            Some(item) => {
                inner.queued.fetch_sub(1, Ordering::SeqCst);
                run(item);
            }
            None => {
                if inner.stop.load(Ordering::SeqCst) {
                    // Flush buffered trace spans before the thread exits
                    // (same reasoning as the batch workers above).
                    weaver_obs::span::flush_thread();
                    return;
                }
                let gate = lock_poison_ok(&inner.gate);
                if inner.queued.load(Ordering::SeqCst) == 0 && !inner.stop.load(Ordering::SeqCst) {
                    // Timeout is a backstop against a lost wakeup, not the
                    // scheduling mechanism.
                    let _ = inner
                        .available
                        .wait_timeout(gate, Duration::from_millis(100));
                }
            }
        }
    }
}

/// Pops one item from any non-empty deque.
fn pop_any<T>(queues: &[Mutex<VecDeque<T>>]) -> Option<T> {
    queues.iter().find_map(|q| lock_poison_ok(q).pop_front())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn results_are_in_submission_order() {
        for workers in [1, 2, 4, 7] {
            let items: Vec<usize> = (0..50).collect();
            let out = run_jobs(items, workers, |i, item| {
                assert_eq!(i, item);
                item * 2
            });
            assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run_jobs((0..64).collect::<Vec<usize>>(), 4, |_, item| {
            counters[item].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_jobs(vec![1, 2], 16, |_, item| item + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let out = run_jobs(Vec::<u32>::new(), 4, |_, item| item);
        assert!(out.is_empty());
    }

    #[test]
    fn service_pool_runs_everything_submitted() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let pool = {
            let seen = seen.clone();
            ServicePool::new(3, 64, move |item: usize| {
                lock_poison_ok(&seen).push(item);
            })
        };
        for i in 0..40 {
            pool.submit(i).unwrap();
        }
        pool.drain();
        let mut got = lock_poison_ok(&seen).clone();
        got.sort_unstable();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
        assert_eq!(pool.queue_depth(), 0);
        assert!(pool.is_draining());
    }

    #[test]
    fn service_pool_bounds_the_queue_and_hands_items_back() {
        let release = Arc::new(AtomicUsize::new(0));
        let pool = {
            let release = release.clone();
            ServicePool::new(1, 2, move |_item: usize| {
                while release.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            })
        };
        // One item occupies the worker; fill the queue behind it, then the
        // next submit must bounce with the item intact.
        pool.submit(0).unwrap();
        let mut bounced = None;
        for i in 1..20 {
            if let Err(SubmitError::Full(item)) = pool.submit(i) {
                bounced = Some(item);
                break;
            }
        }
        let bounced = bounced.expect("a tiny bound must bounce a flood");
        assert!(pool.queue_depth() <= 2);
        release.store(1, Ordering::SeqCst);
        pool.drain();
        assert!(matches!(
            pool.submit(bounced),
            Err(SubmitError::ShuttingDown(_))
        ));
    }

    #[test]
    fn service_pool_drain_finishes_queued_work() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = done.clone();
            ServicePool::new(2, 128, move |_item: usize| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        let mut accepted = 0;
        for i in 0..64 {
            if pool.submit(i).is_ok() {
                accepted += 1;
            }
        }
        pool.drain();
        assert_eq!(done.load(Ordering::SeqCst), accepted);
    }

    #[test]
    fn a_stealing_service_worker_does_not_hold_its_own_queue() {
        // Regression: a worker used to pop its own deque and steal in one
        // statement, keeping its own queue's guard while it locked the
        // other's, so two idle workers stealing at once waited on each
        // other forever. Here the test plays the second worker: it holds
        // the other queue while the first finishes its item and goes to
        // steal, and meanwhile keeps taking the first worker's queue.
        let (done_tx, done_rx) = mpsc::channel();
        let test = std::thread::spawn(move || {
            let (started_tx, started_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let release_rx = Mutex::new(release_rx);
            let pool = ServicePool::new(2, 8, move |()| {
                let name = std::thread::current().name().map(str::to_owned);
                started_tx.send(name).unwrap();
                lock_poison_ok(&release_rx).recv().unwrap();
            });
            pool.submit(()).unwrap();
            let me = match started_rx.recv().unwrap().as_deref() {
                Some("weaver-service-0") => 0,
                Some("weaver-service-1") => 1,
                other => panic!("unexpected worker thread {other:?}"),
            };
            let other_queue = lock_poison_ok(&pool.inner.queues[1 - me]);
            release_tx.send(()).unwrap();
            // The worker now finds its deque empty and blocks stealing
            // from the queue held here. Its own queue must stay free all
            // the while: keep taking it, yielding so the worker gets to
            // run between attempts.
            for _ in 0..10_000 {
                drop(lock_poison_ok(&pool.inner.queues[me]));
                std::thread::yield_now();
            }
            drop(other_queue);
            pool.drain();
            done_tx.send(()).unwrap();
        });
        // A deadlocked test thread never signals; it is not joined then.
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a stealing worker kept its own queue locked");
        test.join().unwrap();
    }

    #[test]
    fn idle_workers_steal_queued_jobs() {
        // Job 0 pins worker 0 for 300 ms. Jobs 2,4,6,8 sit behind it in
        // worker 0's deque, so they can only finish before job 0 does if
        // the other worker steals them.
        let done = AtomicUsize::new(0);
        let observed = run_jobs((0..9).collect::<Vec<usize>>(), 2, |i, _| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(300));
                done.load(Ordering::SeqCst)
            } else {
                done.fetch_add(1, Ordering::SeqCst);
                0
            }
        });
        assert_eq!(
            observed[0], 8,
            "all queued jobs must have been stolen and finished while job 0 slept"
        );
    }
}
