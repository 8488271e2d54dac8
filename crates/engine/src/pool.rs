//! A fixed-size `std::thread` worker pool with per-thread queues, in which
//! the calling thread counts as one of the workers.
//!
//! [`WorkerPool::new`]`(workers)` spawns `workers − 1` threads: whoever hands
//! out a batch of jobs runs one share of that batch itself (the engine's
//! caller takes one lane of every batch), so a one-worker pool spawns no
//! thread at all. Jobs are boxed closures; results travel back through
//! whatever channel the closure captured. Every thread owns a private queue
//! and [`WorkerPool::execute_on`] pins a job to one of them (the engine
//! gives each busy lane of a batch its own thread, so no two threads touch
//! one shard's state at once). The pool is deliberately dumb — all ordering
//! and determinism guarantees live in the engine's dispatch logic, which
//! assigns deterministic seeds per job and applies results in session
//! order, so the pool's scheduling cannot influence served configurations.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads, each consuming its own job queue, plus
/// the calling thread as one more worker.
#[derive(Debug)]
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Sizes the pool for `workers` workers (`0` means one per available
    /// core) and spawns `workers − 1` threads; the caller is the last worker.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|cores| cores.get())
                .unwrap_or(1)
        } else {
            workers
        };
        let threads = workers - 1;
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for index in 0..threads {
            let (sender, receiver): (Sender<Job>, Receiver<Job>) = channel();
            senders.push(sender);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("svgic-engine-worker-{index}"))
                    .spawn(move || {
                        while let Ok(job) = receiver.recv() {
                            job();
                        }
                        // Queue closed: shut down.
                    })
                    .expect("failed to spawn engine worker"),
            );
        }
        WorkerPool {
            senders,
            handles,
            workers,
        }
    }

    /// Number of workers, the calling thread included (one more than the
    /// threads the pool spawned).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a job on a specific pool thread's queue (`thread` is taken
    /// modulo the thread count). Jobs pinned to the same thread run in
    /// submission order. A pool with no threads runs the job on the caller
    /// before returning.
    pub fn execute_on(&self, thread: usize, job: Job) {
        if self.senders.is_empty() {
            job();
            return;
        }
        let slot = thread % self.senders.len();
        self.senders[slot].send(job).expect("worker queue closed");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn runs_all_jobs() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for thread in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.execute_on(
                thread,
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    tx.send(()).unwrap();
                }),
            );
        }
        for _ in 0..64 {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn pinned_jobs_on_one_worker_run_in_submission_order() {
        let pool = WorkerPool::new(3);
        let (tx, rx) = channel();
        for i in 0..32u32 {
            let tx = tx.clone();
            pool.execute_on(1, Box::new(move || tx.send(i).unwrap()));
        }
        let order: Vec<u32> = (0..32).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn worker_index_wraps() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        pool.execute_on(7, Box::new(move || tx2.send(7u32).unwrap()));
        pool.execute_on(8, Box::new(move || tx.send(8u32).unwrap()));
        let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![7, 8]);
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        for workers in 1..=4 {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.workers(), workers);
            assert_eq!(pool.handles.len(), workers - 1);
        }
    }

    #[test]
    fn a_one_worker_pool_runs_jobs_on_the_caller() {
        let pool = WorkerPool::new(1);
        assert!(
            pool.handles.is_empty(),
            "a one-worker pool spawns no thread"
        );
        let ran_on = Arc::new(Mutex::new(None));
        for thread in [0, 5] {
            let slot = Arc::clone(&ran_on);
            pool.execute_on(
                thread,
                Box::new(move || *slot.lock().unwrap() = Some(std::thread::current().id())),
            );
            // The job has run by the time `execute_on` returns.
            assert_eq!(
                ran_on.lock().unwrap().take(),
                Some(std::thread::current().id())
            );
        }
    }

    #[test]
    fn zero_means_available_parallelism() {
        let cores = std::thread::available_parallelism()
            .map(|cores| cores.get())
            .unwrap_or(1);
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), cores);
        assert_eq!(pool.handles.len(), cores - 1);
    }
}
