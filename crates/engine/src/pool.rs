//! The engine's thread pools: one ordered queue per pool.
//!
//! [`run_jobs`] is the one-shot batch driver: its workers take `(index,
//! item)` pairs in submission order from one shared cursor, and each result
//! lands in a slot indexed by submission order, so the output is
//! deterministic and independent of scheduling, thread count, and
//! completion order.
//!
//! [`ServicePool`] is its long-lived sibling for the daemon: workers
//! persist across submissions and take items first-in, first-out from one
//! bounded queue (backpressure instead of unbounded growth), and
//! [`ServicePool::drain`] finishes queued work before the threads exit.
//!
//! No job spawns another and each runs for milliseconds, so a single
//! ordered queue is enough to keep every worker busy.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Locks a mutex, recovering the guard if a panicking holder poisoned it.
/// Every mutex in the engine guards state that stays structurally valid
/// across a panic — pool queues, connection maps, cache tiers and
/// counters — so a panic in one job or connection never wedges the rest.
pub(crate) fn lock_poison_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs every item of `items` through `run` on `workers` threads and
/// returns the results in submission order. Items start in submission
/// order too. `workers` is clamped to `1..=items.len()`; with one worker
/// the pool degenerates to a sequential loop (no threads are spawned).
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

    let cursor = Mutex::new(items.into_iter().enumerate());
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for me in 0..workers {
            let (cursor, results, run) = (&cursor, &results, &run);
            // Named threads give trace spans (and debuggers) a stable
            // worker identity: spans recorded on this thread report
            // `weaver-worker-<n>` as their thread name.
            std::thread::Builder::new()
                .name(format!("weaver-worker-{me}"))
                .spawn_scoped(scope, move || {
                    loop {
                        // A statement of its own, so the cursor is
                        // unlocked while the job runs.
                        let next = lock_poison_ok(cursor).next();
                        let Some((index, item)) = next else { break };
                        let result = run(index, item);
                        *lock_poison_ok(&results[index]) = Some(result);
                    }
                    // Must happen inside the closure: the scope unblocks
                    // before this thread's TLS destructors run, so a
                    // drop-time flush could lose the last buffered spans
                    // to a caller draining the trace right after the batch
                    // returns.
                    weaver_obs::span::flush_thread();
                })
                .expect("spawn batch worker");
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every job ran exactly once")
        })
        .collect()
}

/// Why [`ServicePool::submit`] rejected an item; the item is handed back so
/// the caller can report structured backpressure instead of losing it.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The queue is at its bound — the caller should shed load.
    Full(T),
    /// The pool is draining and accepts no further work.
    ShuttingDown(T),
}

/// The queue and the stop flag share one lock, so no submit can land after
/// a worker has seen "stopped and empty" and exited.
struct Queue<T> {
    items: VecDeque<T>,
    stop: bool,
}

struct ServiceInner<T> {
    queue: Mutex<Queue<T>>,
    bound: usize,
    /// Signalled on every submit and on drain.
    available: Condvar,
}

impl<T> ServiceInner<T> {
    /// The oldest queued item, blocking while the queue is empty; `None`
    /// once the pool is stopping and nothing is left.
    fn next(&self) -> Option<T> {
        let queue = lock_poison_ok(&self.queue);
        self.available
            .wait_while(queue, |q| q.items.is_empty() && !q.stop)
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .pop_front()
    }
}

/// A long-lived pool: `workers` persistent threads service one bounded
/// first-in, first-out queue of submitted items. Unlike [`run_jobs`], the
/// pool outlives any one batch, so the daemon keeps its caches hot across
/// requests.
///
/// Results travel through whatever channel the `run` closure captures (the
/// server hands each item a reply sender) — the pool itself only schedules.
pub struct ServicePool<T> {
    inner: Arc<ServiceInner<T>>,
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
        let inner = Arc::new(ServiceInner {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                stop: false,
            }),
            bound: bound.max(1),
            available: Condvar::new(),
        });
        let run = Arc::new(run);
        let handles = (0..workers.max(1))
            .map(|me| {
                let (inner, run) = (inner.clone(), run.clone());
                std::thread::Builder::new()
                    .name(format!("weaver-service-{me}"))
                    .spawn(move || {
                        while let Some(item) = inner.next() {
                            run(item);
                        }
                        // Flush buffered trace spans before the thread
                        // exits (same reasoning as the batch workers).
                        weaver_obs::span::flush_thread();
                    })
                    .expect("spawn service worker")
            })
            .collect();
        ServicePool {
            inner,
            handles: Mutex::new(handles),
        }
    }
}

impl<T> ServicePool<T> {
    /// Enqueues `item`, or returns it inside a [`SubmitError`] when the
    /// pool is at its bound or draining.
    pub fn submit(&self, item: T) -> Result<(), SubmitError<T>> {
        let mut queue = lock_poison_ok(&self.inner.queue);
        if queue.stop {
            return Err(SubmitError::ShuttingDown(item));
        }
        if queue.items.len() >= self.inner.bound {
            return Err(SubmitError::Full(item));
        }
        queue.items.push_back(item);
        drop(queue);
        self.inner.available.notify_one();
        Ok(())
    }

    /// Items queued but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        lock_poison_ok(&self.inner.queue).items.len()
    }

    /// Whether [`ServicePool::drain`] has started.
    pub fn is_draining(&self) -> bool {
        lock_poison_ok(&self.inner.queue).stop
    }

    /// Stops accepting new work, finishes everything already queued, and
    /// joins the worker threads. Idempotent.
    pub fn drain(&self) {
        lock_poison_ok(&self.inner.queue).stop = true;
        self.inner.available.notify_all();
        let handles = std::mem::take(&mut *lock_poison_ok(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl<T> Drop for ServicePool<T> {
    fn drop(&mut self) {
        // Workers hold `Arc<ServiceInner>`, so without a drain they would
        // outlive the handle and idle forever.
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

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
    fn run_jobs_starts_jobs_in_submission_order() {
        // Item 0 holds its worker until items 1–3 have started, so those
        // run one after another on the other worker, in the order it takes
        // them from the queue; item 0 returns the order they reported.
        let (started_tx, started_rx) = mpsc::channel();
        let started_rx = Mutex::new(started_rx);
        let out = run_jobs((0..4).collect::<Vec<usize>>(), 2, |_, item| {
            if item == 0 {
                let started_rx = lock_poison_ok(&started_rx);
                (1..4)
                    .map(|_| {
                        started_rx
                            .recv_timeout(Duration::from_secs(10))
                            .expect("items 1–3 start while item 0 runs")
                    })
                    .collect()
            } else {
                started_tx.send(item).unwrap();
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![1, 2, 3]);
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
    fn service_pool_serves_while_a_worker_is_blocked() {
        // The first item blocks its worker until released; the second,
        // submitted once the first has started (so the other worker is
        // idle, waiting for a wakeup), must still be served.
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let (done_tx, done_rx) = mpsc::channel();
        let pool = ServicePool::new(2, 8, move |item: usize| {
            if item == 0 {
                started_tx.send(()).unwrap();
                lock_poison_ok(&release_rx).recv().unwrap();
            }
            done_tx.send(item).unwrap();
        });
        pool.submit(0).unwrap();
        let started = started_rx.recv_timeout(Duration::from_secs(10));
        pool.submit(1).unwrap();
        let served = done_rx.recv_timeout(Duration::from_secs(10));
        release_tx.send(()).unwrap();
        pool.drain();
        assert_eq!(started, Ok(()), "an idle pool must start a submitted item");
        assert_eq!(
            served,
            Ok(1),
            "an idle worker must serve the queue while another is blocked"
        );
        assert_eq!(done_rx.try_recv(), Ok(0));
    }

    #[test]
    fn idle_workers_take_queued_jobs() {
        // Job 0 pins one worker for 300 ms. Jobs 1–8 queue behind it, so
        // they can only finish before job 0 does if the other worker takes
        // them.
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
            "all queued jobs must have been taken and finished while job 0 slept"
        );
    }
}
