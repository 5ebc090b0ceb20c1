//! Bounded work queue with a fixed worker pool and backpressure.
//!
//! Connection threads do protocol work only; analysis jobs are pushed
//! here so CPU-bound work is bounded by the worker count regardless of
//! how many sockets are open. The queue is *bounded*: when it is full,
//! [`WorkQueue::submit`] refuses immediately and the server answers
//! `503` + `Retry-After` instead of letting latency grow without bound
//! (the backpressure contract in DESIGN.md §11). Worker sizing follows
//! the [`BatchAnalyzer`](actfort_core::batch::BatchAnalyzer) thread
//! pool — the same `ACTFORT_THREADS`-aware probe the batch engine uses.

use crate::obs_names;
use actfort_core::obs;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work: runs on a worker thread, sends its result through
/// whatever channel the submitter captured.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Refusal returned by [`WorkQueue::submit`] when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// How many jobs were queued at refusal time (== capacity).
    pub depth: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    draining: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    wake: Condvar,
    capacity: usize,
}

/// Fixed worker pool draining a bounded FIFO of jobs.
pub struct WorkQueue {
    shared: Arc<Shared>,
    worker_count: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkQueue {
    /// A queue holding at most `capacity` pending jobs (minimum 1),
    /// drained by `workers` threads (minimum 1).
    pub fn new(workers: usize, capacity: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), draining: false }),
            wake: Condvar::new(),
            capacity: capacity.max(1),
        });
        let worker_count = workers.max(1);
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("actfort-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Self { shared, worker_count, workers: Mutex::new(workers) }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Queue capacity (pending jobs, not counting ones being executed).
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Enqueues `job`, refusing with [`QueueFull`] when `capacity` jobs
    /// are already pending or the queue is draining.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] — the caller should shed load (HTTP 503).
    pub fn submit(&self, job: Job) -> Result<(), QueueFull> {
        let mut state = self.shared.state.lock().expect("queue lock poisoned");
        if state.draining || state.jobs.len() >= self.shared.capacity {
            obs::add(obs_names::QUEUE_REJECTED, 1);
            return Err(QueueFull { depth: state.jobs.len() });
        }
        state.jobs.push_back(job);
        obs::observe(obs_names::QUEUE_DEPTH, state.jobs.len() as u64);
        drop(state);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Stops accepting jobs, runs everything already queued to
    /// completion and joins the workers (graceful drain). Idempotent:
    /// later calls find no workers left and return immediately.
    pub fn drain(&self) {
        self.shared.state.lock().expect("queue lock poisoned").draining = true;
        self.shared.wake.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("queue lock poisoned"));
        for worker in workers {
            worker.join().expect("worker panicked");
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("queue lock poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    obs::observe(obs_names::QUEUE_DEPTH, state.jobs.len() as u64);
                    break job;
                }
                if state.draining {
                    return;
                }
                state = shared.wake.wait(state).expect("queue lock poisoned");
            }
        };
        // A panicking job must not shrink the pool; the submitter sees
        // its result channel close and reports an internal error.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn executes_jobs_and_drains_cleanly() {
        let queue = WorkQueue::new(2, 16);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let ran = Arc::clone(&ran);
            queue
                .submit(Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                }))
                .expect("capacity 16 holds 10 jobs");
        }
        queue.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn full_queue_refuses_with_backpressure() {
        // One worker, blocked on a gate; capacity one. The first job
        // occupies the worker, the second fills the queue, the third
        // must be refused.
        let queue = WorkQueue::new(1, 1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        queue
            .submit(Box::new(move || {
                started_tx.send(()).expect("test alive");
                gate_rx.recv().expect("gate");
            }))
            .expect("first job runs");
        started_rx.recv().expect("worker picked up the blocker");
        queue.submit(Box::new(|| {})).expect("second job queues");
        let refused = queue.submit(Box::new(|| {})).expect_err("third job refused");
        assert_eq!(refused.depth, 1);
        gate_tx.send(()).expect("unblock");
        queue.drain();
    }

    #[test]
    fn draining_queue_refuses_new_jobs() {
        let queue = WorkQueue::new(1, 4);
        assert_eq!(queue.workers(), 1);
        assert_eq!(queue.capacity(), 4);
        queue.shared.state.lock().expect("lock").draining = true;
        assert!(queue.submit(Box::new(|| {})).is_err());
        queue.drain();
    }
}
