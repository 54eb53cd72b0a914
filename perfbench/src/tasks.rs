//! Worker-pool accounting for the traced run, measured around each task
//! the harness runs: busy time, utilization and the straggler tail.

use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Start/end stamps of every task of one batch, by worker thread.
#[derive(Debug)]
pub struct TaskLog {
    origin: Instant,
    tasks: Mutex<Vec<(ThreadId, f64, f64)>>,
}

/// What a [`TaskLog`] says about one batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolStats {
    /// Summed task time over all workers, ms.
    pub busy_ms: f64,
    /// `busy / (batch wall × workers)`.
    pub utilization: f64,
    /// From the moment the first worker ran out of work to the end of the
    /// last task, ms.
    pub tail_ms: f64,
}

impl TaskLog {
    /// A log whose clock starts now (the start of the batch).
    pub fn start() -> Self {
        TaskLog {
            origin: Instant::now(),
            tasks: Mutex::new(Vec::new()),
        }
    }

    /// Runs `task`, recording its interval against this thread.
    pub fn time<T>(&self, task: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed().as_secs_f64() * 1e3;
        let out = task();
        let end = self.origin.elapsed().as_secs_f64() * 1e3;
        let me = std::thread::current().id();
        self.tasks
            .lock()
            .expect("task log poisoned")
            .push((me, start, end));
        out
    }

    /// Pool statistics for a batch run on `workers` threads that ended
    /// `wall_ms` after the log started.
    pub fn stats(&self, workers: usize, wall_ms: f64) -> PoolStats {
        let tasks = self.tasks.lock().expect("task log poisoned");
        let intervals: Vec<(usize, f64, f64)> = {
            let mut ids: Vec<ThreadId> = Vec::new();
            tasks
                .iter()
                .map(|&(id, s, e)| {
                    let w = ids.iter().position(|&x| x == id).unwrap_or_else(|| {
                        ids.push(id);
                        ids.len() - 1
                    });
                    (w, s, e)
                })
                .collect()
        };
        pool_stats(&intervals, workers, wall_ms)
    }
}

/// The arithmetic of [`TaskLog::stats`] over `(worker, start_ms, end_ms)`
/// task intervals.
pub fn pool_stats(tasks: &[(usize, f64, f64)], workers: usize, wall_ms: f64) -> PoolStats {
    if tasks.is_empty() {
        return PoolStats::default();
    }
    let busy_ms: f64 = tasks.iter().map(|&(_, s, e)| e - s).sum();
    let used = tasks.iter().map(|t| t.0).max().unwrap_or(0) + 1;
    let mut last_end = vec![0.0f64; used];
    for &(w, _, e) in tasks {
        last_end[w] = last_end[w].max(e);
    }
    let batch_end = last_end.iter().copied().fold(0.0, f64::max);
    // A worker that never got a task was idle from the start.
    let first_idle = if used < workers {
        0.0
    } else {
        last_end.iter().copied().fold(f64::INFINITY, f64::min)
    };
    PoolStats {
        busy_ms,
        utilization: busy_ms / (wall_ms * workers.max(1) as f64),
        tail_ms: batch_end - first_idle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_runs_from_first_idle_worker_to_last_end() {
        // Worker 0 finishes at 70, worker 1 at 100.
        let tasks = [
            (0, 0.0, 40.0),
            (1, 0.0, 60.0),
            (0, 40.0, 70.0),
            (1, 60.0, 100.0),
        ];
        let s = pool_stats(&tasks, 2, 100.0);
        assert_eq!(s.busy_ms, 170.0);
        assert_eq!(s.tail_ms, 30.0);
        assert!((s.utilization - 0.85).abs() < 1e-12);
    }

    #[test]
    fn an_unused_worker_is_idle_for_the_whole_batch() {
        let s = pool_stats(&[(0, 0.0, 50.0)], 2, 50.0);
        assert_eq!(s.tail_ms, 50.0);
        assert_eq!(s.utilization, 0.5);
    }

    #[test]
    fn log_records_every_task() {
        let log = TaskLog::start();
        let x = log.time(|| 2 + 2);
        assert_eq!(x, 4);
        let s = log.stats(1, 1.0);
        assert!(s.busy_ms >= 0.0 && s.tail_ms >= 0.0);
    }
}
