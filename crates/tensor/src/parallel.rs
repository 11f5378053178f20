//! Persistent worker pool with deterministic contiguous partitioning.
//!
//! The tensor kernels need exactly two parallel shapes: "split an output
//! buffer into disjoint chunks and fill each" ([`par_chunks_mut`]) and
//! "sum per-item contributions into one accumulator" ([`par_fold_sum`]).
//! Earlier revisions spawned fresh OS threads via `std::thread::scope` on
//! every call; with thousands of kernel invocations per training epoch
//! the spawn/join cost dominated small layers. This module instead keeps
//! a lazily-initialized pool of workers parked on a condvar. Jobs are
//! split with the same *static contiguous partition* as before — batch
//! elements in this workload are uniform in cost, so work stealing buys
//! nothing over a fixed split, and a fixed split keeps the f32 results of
//! every kernel bit-identical run-to-run *and across worker counts*:
//!
//! * [`par_chunks_mut`] tasks own disjoint output chunks, and each chunk
//!   is always produced by the same serial loop over the same elements,
//!   so the worker count only changes *who* computes a chunk, never what
//!   is computed;
//! * [`par_fold_sum`] always splits the items into the same
//!   [`FOLD_GROUPS`]-way partition (a constant, not the worker count) and
//!   merges the per-group partials in ascending group order, so the
//!   floating-point reduction tree is fixed no matter how many workers
//!   execute the groups.
//!
//! Worker count comes from [`num_threads`]: the `MTSR_NUM_THREADS`
//! environment variable when set (clamped to ≥ 1; CI pins it so runs are
//! reproducible across runner sizes), otherwise `available_parallelism`.
//! Tests can override it at runtime with [`set_num_threads`].
//!
//! Persistent workers also make the thread-local scratch arenas in
//! [`crate::scratch`] effective: each worker allocates its im2col/packing
//! buffers once and reuses them across layers and steps.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Runtime override installed by [`set_num_threads`] (0 = unset).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `MTSR_NUM_THREADS` (clamped to ≥ 1) or `available_parallelism`,
/// resolved once per process.
fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        std::env::var("MTSR_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Number of worker threads to use (the caller counts as one): the
/// [`set_num_threads`] override if installed, else `MTSR_NUM_THREADS`,
/// else `available_parallelism`, else 1.
pub fn num_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => configured_threads(),
        n => n,
    }
}

/// Overrides [`num_threads`] at runtime (`0` restores the default).
/// Intended for tests asserting that results are identical across worker
/// counts; training binaries should use `MTSR_NUM_THREADS` instead.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// A lifetime-erased unit of work queued on the pool.
type Task = Box<dyn FnOnce() + Send>;

/// Per-job completion latch: counts outstanding tasks and records panics.
struct Latch {
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new((count, false)),
            cv: Condvar::new(),
        }
    }

    fn complete_one(&self, panicked: bool) {
        let mut g = self.state.lock().unwrap();
        g.0 -= 1;
        g.1 |= panicked;
        if g.0 == 0 {
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().unwrap().0 == 0
    }

    fn wait(&self) {
        let mut g = self.state.lock().unwrap();
        while g.0 > 0 {
            g = self.cv.wait(g).unwrap();
        }
    }

    fn any_panicked(&self) -> bool {
        self.state.lock().unwrap().1
    }
}

struct PoolState {
    queue: VecDeque<Task>,
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                workers: 0,
            }),
            work_cv: Condvar::new(),
        })
    }

    /// Spawns workers until `target` are alive. Workers park on the
    /// condvar between jobs and live for the rest of the process.
    fn ensure_workers(&'static self, state: &mut PoolState, target: usize) {
        while state.workers < target {
            let id = state.workers;
            thread::Builder::new()
                .name(format!("mtsr-worker-{id}"))
                .spawn(move || self.worker_loop())
                .expect("failed to spawn pool worker");
            state.workers += 1;
            mtsr_telemetry::add_counter("tensor.parallel.workers_spawned", 1);
        }
    }

    fn worker_loop(&'static self) {
        IN_WORKER.with(|w| w.set(true));
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(task) = state.queue.pop_front() {
                drop(state);
                task(); // panics are caught inside the task wrapper
                state = self.state.lock().unwrap();
            } else {
                state = self.work_cv.wait(state).unwrap();
            }
        }
    }
}

thread_local! {
    /// True on pool worker threads: nested parallel calls from inside a
    /// task run serially instead of deadlocking on the shared queue.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// Runs every closure in `tasks` to completion, distributing them across
/// the pool while the calling thread also drains the queue. Returns only
/// once all tasks have finished (which is what makes handing borrowed
/// closures to the long-lived workers sound); propagates a panic if any
/// task panicked.
pub(crate) fn run_tasks(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    if n == 1 || in_worker() || num_threads() <= 1 {
        for t in tasks {
            t();
        }
        return;
    }
    mtsr_telemetry::add_counter("tensor.parallel.jobs", 1);
    mtsr_telemetry::add_counter("tensor.parallel.tasks", n as u64);
    let latch = Arc::new(Latch::new(n));
    let pool = Pool::global();
    {
        let mut state = pool.state.lock().unwrap();
        for t in tasks {
            let latch = Arc::clone(&latch);
            let wrapped: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(t));
                latch.complete_one(result.is_err());
            });
            // SAFETY: the closure may borrow the caller's stack (slices,
            // the user's `Fn`). We erase that lifetime to queue it on the
            // static pool, which is sound because this function does not
            // return until the latch reports every task finished — the
            // borrowed data outlives every use. Tasks are consumed
            // exactly once and never cloned or leaked by the workers.
            let wrapped: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(wrapped) };
            state.queue.push_back(wrapped);
        }
        // The caller participates, so `num_threads() - 1` workers suffice;
        // never shrink the pool once grown.
        let target = n.min(num_threads()).saturating_sub(1);
        let target = target.max(state.workers);
        pool.ensure_workers(&mut state, target);
        pool.work_cv.notify_all();
    }
    // Help drain the queue until this job's tasks are all done. The queue
    // may contain tasks from concurrently submitted jobs; running them
    // here is harmless and avoids idling.
    loop {
        if latch.is_done() {
            break;
        }
        let task = pool.state.lock().unwrap().queue.pop_front();
        match task {
            Some(t) => t(),
            None => latch.wait(),
        }
    }
    if latch.any_panicked() {
        panic!("mtsr-tensor pool task panicked");
    }
}

// ---------------------------------------------------------------------------
// Public parallel shapes
// ---------------------------------------------------------------------------

/// Splits `data` into consecutive chunks of `chunk_len` elements (the
/// last may be shorter) and runs `f(chunk_index, chunk)` for every chunk,
/// distributing contiguous runs of chunks across threads. Equivalent to
/// `data.chunks_mut(chunk_len).enumerate().for_each(...)` but parallel.
///
/// Falls back to the serial loop when the data is small or only one
/// thread is available.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = num_threads().min(n_chunks);
    if workers <= 1 || in_worker() {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Assign each worker a contiguous run of chunks.
    let per_worker = n_chunks.div_ceil(workers);
    let f = &f;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
    let mut rest = data;
    let mut first_chunk = 0usize;
    while !rest.is_empty() {
        let take = (per_worker * chunk_len).min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        rest = tail;
        let base = first_chunk;
        first_chunk += head.len().div_ceil(chunk_len);
        tasks.push(Box::new(move || {
            for (i, chunk) in head.chunks_mut(chunk_len).enumerate() {
                f(base + i, chunk);
            }
        }));
    }
    run_tasks(tasks);
}

/// Number of partial accumulators used by [`par_fold_sum`]. A *constant*
/// rather than the worker count: the partition of items into groups and
/// the group merge order define the floating-point reduction tree, and
/// keeping them fixed makes the result bit-identical for any
/// `MTSR_NUM_THREADS`. 16 groups cap the useful parallelism of the fold
/// at 16 workers, far above the batch-parallel speedup this workload can
/// realise.
pub const FOLD_GROUPS: usize = 16;

/// Sums per-item contributions into a single `len`-element accumulator.
///
/// The items `0..n_items` are split into at most [`FOLD_GROUPS`]
/// contiguous groups; each group owns a zeroed `vec![0.0; len]`, runs
/// `f(&mut local, item_index)` for its items in ascending order, and the
/// locals are merged serially in ascending group order. Both the
/// partition and the merge order depend only on `n_items`, never on the
/// worker count, so the reduction is deterministic across thread counts.
pub fn par_fold_sum<F>(n_items: usize, len: usize, f: F) -> Vec<f32>
where
    F: Fn(&mut [f32], usize) + Sync,
{
    let groups = FOLD_GROUPS.min(n_items.max(1));
    let per_group = n_items.div_ceil(groups);
    if groups <= 1 || num_threads() <= 1 || in_worker() {
        // Same group partition, executed serially: identical results.
        let mut acc = vec![0.0f32; len];
        if groups <= 1 {
            for i in 0..n_items {
                f(&mut acc, i);
            }
            return acc;
        }
        let mut local = vec![0.0f32; len];
        for g in 0..groups {
            local.fill(0.0);
            let start = g * per_group;
            let end = (start + per_group).min(n_items);
            for i in start..end {
                f(&mut local, i);
            }
            for (a, l) in acc.iter_mut().zip(&local) {
                *a += *l;
            }
        }
        return acc;
    }
    let f = &f;
    let mut locals = vec![vec![0.0f32; len]; groups];
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = locals
        .iter_mut()
        .enumerate()
        .map(|(g, local)| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let start = g * per_group;
                let end = (start + per_group).min(n_items);
                for i in start..end {
                    f(local, i);
                }
            });
            task
        })
        .collect();
    run_tasks(tasks);
    let mut acc = vec![0.0f32; len];
    for local in &locals {
        for (a, l) in acc.iter_mut().zip(local) {
            *a += *l;
        }
    }
    acc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes tests that override the global worker count. Poison is
    /// recovered so one failing test doesn't cascade into the others.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn lock_override() -> std::sync::MutexGuard<'static, ()> {
        OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn par_chunks_mut_matches_serial_enumeration() {
        for (len, chunk) in [
            (0usize, 3usize),
            (1, 3),
            (7, 3),
            (48, 16),
            (50, 16),
            (129, 16),
        ] {
            let mut par = vec![0.0f32; len];
            par_chunks_mut(&mut par, chunk, |i, c| {
                for (j, v) in c.iter_mut().enumerate() {
                    *v = (i * 1000 + j) as f32;
                }
            });
            let mut ser = vec![0.0f32; len];
            for (i, c) in ser.chunks_mut(chunk).enumerate() {
                for (j, v) in c.iter_mut().enumerate() {
                    *v = (i * 1000 + j) as f32;
                }
            }
            assert_eq!(par, ser, "len={len} chunk={chunk}");
        }
    }

    #[test]
    fn par_fold_sum_matches_serial_fold() {
        for n_items in [0usize, 1, 2, 9, 64] {
            let len = 5;
            let got = par_fold_sum(n_items, len, |acc, i| {
                for (k, a) in acc.iter_mut().enumerate() {
                    *a += (i + k) as f32;
                }
            });
            let mut want = vec![0.0f32; len];
            for i in 0..n_items {
                for (k, a) in want.iter_mut().enumerate() {
                    *a += (i + k) as f32;
                }
            }
            assert_eq!(got, want, "n_items={n_items}");
        }
    }

    #[test]
    fn par_chunks_mut_covers_every_element_once() {
        let mut data = vec![0u32; 1003];
        par_chunks_mut(&mut data, 7, |_, c| {
            for v in c.iter_mut() {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn pool_reuses_threads_across_jobs() {
        let _guard = lock_override();
        set_num_threads(4);
        let mut data = vec![0u32; 4096];
        let count_workers = || Pool::global().state.lock().unwrap().workers;
        let job = |data: &mut Vec<u32>| {
            par_chunks_mut(data, 64, |_, c| {
                for v in c.iter_mut() {
                    *v += 1;
                }
            });
        };
        job(&mut data);
        // Other tests share the global pool (it never shrinks), so assert
        // growth, not an absolute count: repeating an identical job must
        // not spawn any further workers.
        let after_first = count_workers();
        for _ in 0..7 {
            job(&mut data);
        }
        set_num_threads(0);
        assert!(data.iter().all(|&v| v == 8));
        assert_eq!(
            count_workers(),
            after_first,
            "identical jobs must reuse the existing workers"
        );
    }

    #[test]
    fn fold_is_bit_identical_across_worker_counts() {
        let _guard = lock_override();
        let run = || {
            par_fold_sum(37, 8, |acc, i| {
                for (k, a) in acc.iter_mut().enumerate() {
                    *a += ((i * 31 + k) as f32).sin() * 1e-3;
                }
            })
        };
        set_num_threads(1);
        let one = run();
        for workers in [2usize, 3, 8] {
            set_num_threads(workers);
            let many = run();
            assert_eq!(
                one.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                many.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
        set_num_threads(0);
    }

    #[test]
    fn worker_panic_propagates() {
        let _guard = lock_override();
        set_num_threads(2);
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0u32; 128];
            par_chunks_mut(&mut data, 8, |i, _| {
                if i == 7 {
                    panic!("boom");
                }
            });
        });
        set_num_threads(0);
        assert!(result.is_err(), "panic in a pool task must propagate");
    }

    #[test]
    fn env_override_is_clamped() {
        // Can't portably mutate the process env here (other tests read it
        // concurrently); exercise the runtime override clamp path instead.
        let _guard = lock_override();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }
}
