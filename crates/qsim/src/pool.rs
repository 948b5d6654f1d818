//! The workspace's one execution pool: persistent helper threads with
//! scoped semantics.
//!
//! [`run`] plays `job(0)`, …, `job(workers − 1)` at once and returns
//! when all of them are done, as a `std::thread::scope` spawning one
//! thread per index would — `job` may borrow from the caller's stack —
//! but spawns no thread once the pool is warm. Index 0 runs on the
//! calling thread; every other index runs on a helper taken from the
//! pool's idle list, and only the helpers that list lacks are spawned.
//! A helper that has run its index puts itself back on the list and
//! parks on its own `Condvar` until it is handed the next one; nothing
//! spins. The pool grows to the largest number of helpers ever busy at
//! once (across concurrent and nested calls) and never shrinks.
//!
//! Every index of a call runs on its own thread, at the same time as
//! the others, so a job whose workers meet at a `std::sync::Barrier`
//! (the amp-parallel replay's steps) cannot deadlock — not when calls
//! run concurrently, and not when a job calls [`run`] itself.
//!
//! A panic in any index is caught where it happens; once every index of
//! the call has finished, the caller re-raises the first one (its own
//! before a helper's). The helper that caught it stays in the pool.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

/// A panic payload, as `catch_unwind` returns it.
type Payload = Box<dyn Any + Send>;

/// The helpers parked with no index to run.
static IDLE: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());

/// Runs `job(worker)` for every `worker` in `0..workers` at once —
/// index 0 on the calling thread, each other index on its own pool
/// helper — and returns once all have returned. `workers <= 1` is
/// `job(0)` on the calling thread.
///
/// # Panics
///
/// Re-raises the first panic of any index, after every index of the
/// call has finished; panics (before any index runs) if a missing
/// helper cannot be spawned.
pub fn run<F: Fn(usize) + Sync>(workers: usize, job: F) {
    if workers <= 1 {
        job(0);
        return;
    }
    let latch = Latch {
        pending: AtomicUsize::new(workers - 1),
        caller: thread::current(),
        panic: Mutex::new(None),
    };
    let job: &(dyn Fn(usize) + Sync) = &job;
    // SAFETY: only the lifetime is erased, and the latch makes that
    // sound. A helper uses `job` and `latch` only until it counts the
    // latch down, and this call neither returns nor unwinds (`job(0)`
    // runs under `catch_unwind`) before `latch.wait()` has seen every
    // helper do so. Both borrows outlive every use made of them.
    let job: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
    {
        let mut idle = lock(&IDLE);
        // Spawn the missing helpers before handing out any index, so a
        // failed spawn leaves nothing running on this call's borrows.
        while idle.len() < workers - 1 {
            idle.push(Helper::spawn());
        }
        for worker in 1..workers {
            let helper = idle.pop().expect("reserved above");
            helper.start(Task {
                job,
                worker,
                latch: &latch,
            });
        }
    }
    let own = panic::catch_unwind(AssertUnwindSafe(|| job(0)));
    latch.wait();
    let helpers = latch
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = own.err().or(helpers) {
        panic::resume_unwind(payload);
    }
}

/// Locks `mutex`, whatever a panicking holder left in it: every value
/// the pool keeps under a lock is valid between any two statements.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one [`run`] call's caller waits on: the number of helpers still
/// running an index, and the first panic among them.
struct Latch {
    pending: AtomicUsize,
    /// The calling thread, unparked by the helper that counts the latch
    /// down to zero.
    caller: Thread,
    panic: Mutex<Option<Payload>>,
}

impl Latch {
    /// Blocks until every helper has counted the latch down. A stray
    /// unpark token only costs one more look at the count.
    fn wait(&self) {
        while self.pending.load(Ordering::Acquire) != 0 {
            thread::park();
        }
    }

    /// One helper's end: keeps its panic, if the first, then counts
    /// down — the last use of the latch, which may be freed as soon as
    /// the count reaches zero, so the caller's handle is cloned first.
    fn count_down(&self, result: Result<(), Payload>) {
        if let Err(payload) = result {
            lock(&self.panic).get_or_insert(payload);
        }
        let caller = self.caller.clone();
        // Release, paired with the Acquire load in `wait`: all this
        // helper's index wrote happens before the caller returns.
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            caller.unpark();
        }
    }
}

/// One index of one [`run`] call, handed to a helper.
struct Task {
    job: &'static (dyn Fn(usize) + Sync),
    worker: usize,
    latch: *const Latch,
}

// SAFETY: `job` is `Sync`, and the latch is shared only through its
// atomic count and its `Mutex`; the caller keeps both alive until the
// helper has counted the latch down (see `run`).
unsafe impl Send for Task {}

/// A parked pool thread and the slot it is handed its next index in.
struct Helper {
    task: Mutex<Option<Task>>,
    ready: Condvar,
}

impl Helper {
    /// A new helper thread, parked with nothing to run. It is detached
    /// on purpose: it lives as long as the process, and it catches
    /// every panic of the indices it runs for their callers to re-raise.
    fn spawn() -> Arc<Helper> {
        let helper = Arc::new(Helper {
            task: Mutex::new(None),
            ready: Condvar::new(),
        });
        let this = Arc::clone(&helper);
        thread::Builder::new()
            .name("qsim-pool".into())
            .spawn(move || this.serve())
            .expect("spawn a pool helper");
        helper
    }

    /// Hands this (reserved) helper its index.
    fn start(&self, task: Task) {
        *lock(&self.task) = Some(task);
        self.ready.notify_one();
    }

    /// The helper's life: wait for an index, run it, go back on the idle
    /// list, count the call's latch down; forever.
    fn serve(self: Arc<Self>) {
        loop {
            let task = {
                let mut slot = lock(&self.task);
                loop {
                    match slot.take() {
                        Some(task) => break task,
                        None => {
                            slot = self
                                .ready
                                .wait(slot)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| (task.job)(task.worker)));
            // Idle again before the caller can return, so its next call
            // finds this helper instead of spawning one.
            lock(&IDLE).push(Arc::clone(&self));
            // SAFETY: the caller is still in `run`, waiting on this latch.
            unsafe { &*task.latch }.count_down(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn every_index_runs_once_on_its_own_thread() {
        let seen = Mutex::new(Vec::new());
        run(4, |worker| {
            lock(&seen).push((worker, thread::current().id()))
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(worker, _)| worker);
        assert_eq!(
            seen.iter().map(|&(w, _)| w).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        assert_eq!(seen[0].1, thread::current().id());
        let threads: std::collections::HashSet<_> = seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(threads.len(), 4);
    }

    #[test]
    fn nested_calls_meet_at_their_barriers() {
        let outer = Barrier::new(3);
        let total = AtomicUsize::new(0);
        run(3, |_| {
            outer.wait();
            let inner = Barrier::new(2);
            run(2, |_| {
                inner.wait();
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.into_inner(), 6);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_after_every_index_is_done() {
        // Indices 0 and 1 meet at a barrier, so both run at once
        // whatever index 2 does.
        let (done, both) = (AtomicUsize::new(0), Barrier::new(2));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(3, |worker| {
                if worker == 2 {
                    panic!("index two");
                }
                both.wait();
                done.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = caught.expect_err("the panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"index two"));
        assert_eq!(done.load(Ordering::Relaxed), 2);
        // The pool still serves.
        let after = AtomicUsize::new(0);
        run(3, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.into_inner(), 3);
    }
}
