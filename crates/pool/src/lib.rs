//! # cubemesh-pool — persistent work-stealing executor
//!
//! The workspace's one parallel API (DESIGN.md §10): every fan-out calls
//! [`run_tasks`] (task `i` computes from index `i`) or [`run_each`] (task
//! `i` takes item `i` by value). A fixed set of worker threads is
//! spawned lazily on the first parallel region and persists for the
//! life of the process; each region distributes its task indices across
//! per-participant deques, participants pop locally and steal half a
//! victim's deque when their own runs dry, and the submitting caller
//! always participates itself so a region makes progress even when
//! every worker is busy elsewhere (which also makes nested regions
//! deadlock-free).
//!
//! Determinism: the pool never merges anything. Both entry points return
//! task results in task-index order regardless of which participant
//! executed which task; callers own all reduction/merge semantics, so
//! stealing is invisible to output bytes.
//!
//! Sizing: [`with_threads`] override > `CUBEMESH_THREADS` (clamped to
//! [`MAX_THREADS`]) > `available_parallelism()`. The override and the variable are re-read
//! at every region; the host's CPU count is read once. Tests and the
//! bench's sequential rerun use the scoped [`with_threads`] override
//! instead of mutating the (process-global) environment.
//!
//! Panics: the first worker panic is captured, remaining tasks are
//! abandoned (counted but not run), and the original payload is resumed
//! exactly once on the submitting thread.
//!
//! Unsafe code: this is the one crate with any, the type-erased region
//! runner below. `unsafe_code` is denied here and forbidden in every
//! other library crate, so each unsafe item carries an `allow` that
//! states its reason, and no other code can reach a `static mut`.

#![deny(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Instant;

use cubemesh_obs as obs;

/// Acquire a mutex, recovering the guard from a poisoned lock (a worker
/// panic mid-region must not cascade into every later region).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

thread_local! {
    /// Scoped thread-count override for the current thread; 0 = none.
    static OVERRIDE: AtomicUsize = const { AtomicUsize::new(0) };
}

/// The most threads `CUBEMESH_THREADS` asks for: a larger value is
/// read as this many, so no setting spawns thousands of OS threads. At
/// least 8, the width the repo gate checks determinism at.
pub const MAX_THREADS: usize = 256;

fn env_threads(var: &str) -> Option<usize> {
    threads_from(&std::env::var(var).ok()?)
}

/// A thread-count setting: a positive integer, clamped to
/// [`MAX_THREADS`]; anything else sets nothing.
fn threads_from(value: &str) -> Option<usize> {
    let n = value.trim().parse::<usize>().ok().filter(|&n| n > 0)?;
    Some(n.min(MAX_THREADS))
}

/// Effective parallelism for a region started on this thread right now:
/// scoped [`with_threads`] override, else `CUBEMESH_THREADS`, else
/// `available_parallelism()`. The last is read once per process: it
/// reads the cgroup files, which costs tens of microseconds a call.
pub fn effective_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    let forced = OVERRIDE.with(|o| o.load(SeqCst));
    if forced > 0 {
        return forced;
    }
    if let Some(n) = env_threads("CUBEMESH_THREADS") {
        return n;
    }
    *HOST.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run `f` with the effective thread count pinned to `n` on this thread
/// (restored on exit, including on unwind). This is the race-free test
/// equivalent of setting `CUBEMESH_THREADS=n` for one call.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.store(self.0, SeqCst));
        }
    }
    let prev = OVERRIDE.with(|o| o.swap(n.max(1), SeqCst));
    let _restore = Restore(prev);
    f()
}

/// Single source of truth for the `parallel_backend` honesty field in
/// bench baselines: which engine a region started now would run on.
pub fn backend_name() -> &'static str {
    if effective_threads() <= 1 {
        "pool-sequential"
    } else {
        "pool-steal"
    }
}

/// Type-erased pointer to the region runner living on the submitting
/// caller's stack. Sound because the caller blocks in `run_steal` until
/// `pending == 0`, and every deref happens while executing a task (so
/// strictly before the last `pending` decrement).
struct RunnerPtr {
    data: *const (),
    call: unsafe fn(*const (), usize),
}
#[allow(
    unsafe_code,
    reason = "both fields are plain addresses; the runner they name is Sync and outlives every task"
)]
unsafe impl Send for RunnerPtr {}
#[allow(
    unsafe_code,
    reason = "both fields are plain addresses; the runner they name is Sync and outlives every task"
)]
unsafe impl Sync for RunnerPtr {}

/// Monomorphized trampoline rehydrating the erased runner.
///
/// # Safety
/// `data` must point at a live `F`; guaranteed by the `run_steal`
/// blocking argument on [`RunnerPtr`].
#[allow(
    unsafe_code,
    reason = "rehydrates the erased runner; callers hold the RunnerPtr liveness argument"
)]
unsafe fn call_runner<F: Fn(usize) + Sync>(data: *const (), task: usize) {
    let f = &*(data as *const F);
    f(task);
}

fn erase_runner<F: Fn(usize) + Sync>(f: &F) -> RunnerPtr {
    RunnerPtr {
        data: f as *const F as *const (),
        call: call_runner::<F>,
    }
}

/// One parallel region: task-index deques plus completion/steal state.
struct Region {
    runner: RunnerPtr,
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Tasks still sitting in some deque (not yet popped for execution).
    unclaimed: AtomicUsize,
    /// Tasks not yet finished executing.
    pending: AtomicUsize,
    /// Next participant slot to claim; the caller pre-claims slot 0.
    claims: AtomicUsize,
    /// Telemetry: successful steals, and busy-time extrema (ns).
    stolen: AtomicUsize,
    busy_ns_max: AtomicU64,
    busy_ns_min: AtomicU64,
    done_mx: Mutex<bool>,
    done_cv: Condvar,
}

impl Region {
    fn new(runner: RunnerPtr, slots: usize, tasks: usize) -> Region {
        let mut queues = Vec::with_capacity(slots);
        // Contiguous blocks per slot: slot 0 (the caller) gets the first
        // block, which it would touch first anyway.
        let per = tasks.div_ceil(slots);
        for s in 0..slots {
            let lo = (s * per).min(tasks);
            let hi = ((s + 1) * per).min(tasks);
            queues.push(Mutex::new((lo..hi).collect::<VecDeque<usize>>()));
        }
        Region {
            runner,
            queues,
            unclaimed: AtomicUsize::new(tasks),
            pending: AtomicUsize::new(tasks),
            claims: AtomicUsize::new(1),
            stolen: AtomicUsize::new(0),
            busy_ns_max: AtomicU64::new(0),
            busy_ns_min: AtomicU64::new(u64::MAX),
            done_mx: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    /// Claim a participant slot, or `None` to roam (steal-only helper).
    fn join(&self) -> Option<usize> {
        let s = self.claims.fetch_add(1, SeqCst);
        (s < self.queues.len()).then_some(s)
    }

    fn pop_own(&self, me: usize) -> Option<usize> {
        let mut q = lock(&self.queues[me]);
        let t = q.pop_front();
        drop(q);
        if t.is_some() {
            self.unclaimed.fetch_sub(1, SeqCst);
        }
        t
    }

    /// Steal half of the first non-empty victim deque: run one of the
    /// stolen tasks now, park the rest in our own deque.
    fn steal_into(&self, me: usize, stolen: &mut usize) -> Option<usize> {
        let n = self.queues.len();
        for off in 1..n {
            let v = (me + off) % n;
            let mut q = lock(&self.queues[v]);
            let cnt = q.len();
            if cnt == 0 {
                continue;
            }
            let mut grabbed = q.split_off(cnt - cnt.div_ceil(2));
            drop(q);
            *stolen += grabbed.len();
            let task = grabbed.pop_front();
            if !grabbed.is_empty() {
                let mut own = lock(&self.queues[me]);
                own.append(&mut grabbed);
            }
            if task.is_some() {
                self.unclaimed.fetch_sub(1, SeqCst);
            }
            return task;
        }
        None
    }

    /// Roaming participant (no slot of its own): take one task at a time.
    fn steal_one(&self, stolen: &mut usize) -> Option<usize> {
        for slot in &self.queues {
            let mut q = lock(slot);
            let t = q.pop_back();
            drop(q);
            if t.is_some() {
                *stolen += 1;
                self.unclaimed.fetch_sub(1, SeqCst);
                return t;
            }
        }
        None
    }

    fn exec(&self, task: usize) {
        // SAFETY: `RunnerPtr` points at the submitting caller's stack
        // frame, which cannot unwind past `wait_done` while
        // `pending > 0`; this deref happens strictly before this task's
        // `pending` decrement below.
        #[allow(
            unsafe_code,
            reason = "calls the erased runner while its region is still pending"
        )]
        unsafe {
            (self.runner.call)(self.runner.data, task)
        };
        if self.pending.fetch_sub(1, SeqCst) == 1 {
            let mut g = lock(&self.done_mx);
            *g = true;
            drop(g);
            self.done_cv.notify_all();
        }
    }

    /// Work until the region has no claimable tasks left. Returns this
    /// participant's (busy_ns, steal count).
    fn participate(&self, me: Option<usize>) -> (u64, usize) {
        let t0 = Instant::now();
        let mut stolen = 0usize;
        loop {
            let task = match me {
                Some(s) => self.pop_own(s).or_else(|| self.steal_into(s, &mut stolen)),
                None => self.steal_one(&mut stolen),
            };
            match task {
                Some(t) => self.exec(t),
                None => break,
            }
        }
        (t0.elapsed().as_nanos() as u64, stolen)
    }

    /// Fold one participant's telemetry into the region aggregates.
    fn note(&self, busy_ns: u64, stolen: usize) {
        self.stolen.fetch_add(stolen, SeqCst);
        self.busy_ns_max.fetch_max(busy_ns, SeqCst);
        self.busy_ns_min.fetch_min(busy_ns, SeqCst);
    }

    /// Block until every task has finished executing.
    fn wait_done(&self) {
        let mut g = lock(&self.done_mx);
        while !*g {
            g = match self.done_cv.wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }
}

/// Process-wide pool state: the region injector and worker bookkeeping.
struct Shared {
    inject: Mutex<Inject>,
    work_cv: Condvar,
}

struct Inject {
    regions: Vec<Arc<Region>>,
    workers: usize,
}

fn shared() -> &'static Shared {
    static S: OnceLock<Shared> = OnceLock::new();
    S.get_or_init(|| Shared {
        inject: Mutex::new(Inject {
            regions: Vec::new(),
            workers: 0,
        }),
        work_cv: Condvar::new(),
    })
}

impl Shared {
    /// Publish a region and make sure `threads - 1` workers exist. A
    /// failed thread spawn degrades parallelism instead of erroring: the
    /// caller still participates, so the region always completes.
    fn enlist(&self, region: &Arc<Region>, threads: usize) {
        let mut inj = lock(&self.inject);
        while inj.workers + 1 < threads {
            let b = thread::Builder::new().name(format!("cubemesh-pool-{}", inj.workers));
            if b.spawn(worker_main).is_err() {
                break;
            }
            inj.workers += 1;
        }
        inj.regions.push(Arc::clone(region));
        drop(inj);
        self.work_cv.notify_all();
    }

    /// Drop a drained region from the injector.
    fn retire(&self, region: &Arc<Region>) {
        let mut inj = lock(&self.inject);
        inj.regions.retain(|r| !Arc::ptr_eq(r, region));
    }

    /// Next region with claimable work; blocks when there is none.
    fn next_region(&self) -> Arc<Region> {
        let mut inj = lock(&self.inject);
        loop {
            let found = inj
                .regions
                .iter()
                .find(|r| r.unclaimed.load(SeqCst) > 0)
                .map(Arc::clone);
            if let Some(r) = found {
                return r;
            }
            inj = match self.work_cv.wait(inj) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }
}

/// Persistent worker body: sleep on the injector, help the first region
/// with claimable work, repeat for the life of the process.
fn worker_main() {
    let sh = shared();
    loop {
        let region = sh.next_region();
        let me = region.join();
        let (busy_ns, stolen) = region.participate(me);
        region.note(busy_ns, stolen);
    }
}

/// Execute `run(0..tasks)` and return the results in task-index order.
///
/// With one effective thread (or one task) this is a plain sequential
/// loop with zero synchronization. Otherwise tasks are distributed over
/// `min(threads, tasks)` deques and executed by the caller plus up to
/// `threads - 1` persistent workers with steal-half rebalancing. If any
/// task panics, the first payload is resumed on the calling thread after
/// the region drains; remaining tasks are abandoned.
pub fn run_tasks<R, F>(tasks: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if tasks == 0 {
        return Vec::new();
    }
    let threads = effective_threads();
    if threads <= 1 || tasks == 1 {
        return (0..tasks).map(run).collect();
    }
    run_steal(tasks, threads.min(tasks), &run)
}

/// Execute `run(item)` for every item as its own task (item `i` moves
/// into task `i`, exactly once) and return the results in item order.
/// This is [`run_tasks`] for work handed out by value: owned `&mut`
/// pieces of one buffer, or iterators over disjoint ranges.
pub fn run_each<T, R, F>(items: Vec<T>, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    run_tasks(cells.len(), |i| {
        let item = lock(&cells[i]).take();
        // audit:allow(CM-L001): run_tasks runs task i once, so cell i is still full
        run(item.expect("run_each item taken twice"))
    })
}

fn run_steal<R, F>(tasks: usize, slots: usize, run: &F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let results: Vec<Mutex<Option<R>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let panic_box: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let runner = |task: usize| {
        if abort.load(SeqCst) {
            return;
        }
        match catch_unwind(AssertUnwindSafe(|| run(task))) {
            Ok(v) => {
                let mut slot = lock(&results[task]);
                *slot = Some(v);
            }
            Err(payload) => {
                abort.store(true, SeqCst);
                let mut slot = lock(&panic_box);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    };
    let region = Arc::new(Region::new(erase_runner(&runner), slots, tasks));
    let sh = shared();
    sh.enlist(&region, slots);
    let (busy_ns, stolen) = region.participate(Some(0));
    region.wait_done();
    sh.retire(&region);
    region.note(busy_ns, stolen);
    publish_telemetry(&region, tasks, slots, busy_ns);
    let first_panic = lock(&panic_box).take();
    if let Some(p) = first_panic {
        resume_unwind(p);
    }
    let mut out = Vec::with_capacity(tasks);
    for cell in results {
        let v = match cell.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        };
        if let Some(v) = v {
            out.push(v);
        }
    }
    assert!(
        out.len() == tasks,
        "pool region lost {} of {tasks} task results",
        tasks - out.len()
    );
    out
}

fn publish_telemetry(region: &Region, tasks: usize, slots: usize, caller_busy_ns: u64) {
    let stolen = region.stolen.load(SeqCst) as u64;
    obs::counter!("pool.regions").inc();
    obs::counter!("pool.tasks").add(tasks as u64);
    obs::counter!("pool.steals").add(stolen);
    obs::trace::gauge("pool.region.tasks", tasks as u64);
    obs::trace::gauge("pool.region.slots", slots as u64);
    obs::trace::gauge("pool.region.steals", stolen);
    obs::trace::gauge("pool.region.queue_depth0", tasks.div_ceil(slots) as u64);
    obs::trace::gauge("pool.region.busy_ns_caller", caller_busy_ns);
    obs::trace::gauge("pool.region.busy_ns_max", region.busy_ns_max.load(SeqCst));
    let lo = region.busy_ns_min.load(SeqCst);
    obs::trace::gauge(
        "pool.region.busy_ns_min",
        if lo == u64::MAX { 0 } else { lo },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_path_matches_map() {
        let got = with_threads(1, || run_tasks(17, |i| i * i));
        let want: Vec<usize> = (0..17).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn stealing_path_preserves_task_order() {
        for threads in [2, 3, 8] {
            let got = with_threads(threads, || run_tasks(103, |i| i as u64 * 3 + 1));
            let want: Vec<u64> = (0..103).map(|i| i as u64 * 3 + 1).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn ragged_tasks_all_complete() {
        let got = with_threads(4, || {
            run_tasks(64, |i| {
                // Ragged: task 0 does ~64x the work of task 63.
                let spin = (64 - i) * 1000;
                let mut acc = 0u64;
                for k in 0..spin {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
                }
                (i, acc)
            })
        });
        assert_eq!(got.len(), 64);
        for (i, item) in got.iter().enumerate() {
            assert_eq!(item.0, i);
        }
    }

    #[test]
    fn worker_panic_payload_resumes_on_caller() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                run_tasks(64, |i| {
                    if i == 13 {
                        panic!("boom 13");
                    }
                    i
                })
            })
        });
        let payload = match caught {
            Err(p) => p,
            Ok(_) => panic!("expected the region to panic"),
        };
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "boom 13");
    }

    #[test]
    fn inline_panic_payload_propagates_too() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(1, || {
                run_tasks(4, |i| {
                    if i == 2 {
                        panic!("seq boom");
                    }
                    i
                })
            })
        });
        assert!(caught.is_err());
    }

    /// The environment's thread count is clamped: one past the limit
    /// reads as the limit, so this checks the bound without spawning.
    #[test]
    fn thread_setting_is_clamped_at_the_limit() {
        const { assert!(MAX_THREADS >= 8) };
        assert_eq!(threads_from("8"), Some(8));
        assert_eq!(threads_from(&MAX_THREADS.to_string()), Some(MAX_THREADS));
        assert_eq!(
            threads_from(&(MAX_THREADS + 1).to_string()),
            Some(MAX_THREADS)
        );
        assert_eq!(threads_from(&usize::MAX.to_string()), Some(MAX_THREADS));
        for unset in ["0", "", "x", "-3", "99999999999999999999999"] {
            assert_eq!(threads_from(unset), None, "{unset:?}");
        }
    }

    #[test]
    fn with_threads_scopes_and_restores() {
        let outer = effective_threads();
        let inner = with_threads(6, effective_threads);
        assert_eq!(inner, 6);
        assert_eq!(effective_threads(), outer);
        assert_eq!(
            backend_name(),
            if outer <= 1 {
                "pool-sequential"
            } else {
                "pool-steal"
            }
        );
        assert_eq!(with_threads(2, backend_name), "pool-steal");
        assert_eq!(with_threads(1, backend_name), "pool-sequential");
    }

    #[test]
    fn nested_regions_complete() {
        let got = with_threads(4, || {
            run_tasks(8, |i| with_threads(2, || run_tasks(8, move |j| i * 8 + j)))
        });
        let flat: Vec<usize> = got.into_iter().flatten().collect();
        let want: Vec<usize> = (0..64).collect();
        assert_eq!(flat, want);
    }

    #[test]
    fn zero_tasks_is_empty() {
        let got: Vec<u8> = with_threads(4, || run_tasks(0, |_| 0u8));
        assert!(got.is_empty());
        let none: Vec<u8> = with_threads(4, || run_each(Vec::<u8>::new(), |x| x));
        assert!(none.is_empty());
    }

    #[test]
    fn run_each_preserves_item_order() {
        let items: Vec<String> = (0..103).map(|i| format!("item{i}")).collect();
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || run_each(items.clone(), |s| s + "!"));
            let want: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn run_each_moves_every_item_exactly_once() {
        for threads in [1, 2, 8] {
            let mut buf = vec![0u32; 1000];
            let pieces: Vec<&mut [u32]> = buf.chunks_mut(37).collect();
            let runs = AtomicUsize::new(0);
            let lens = with_threads(threads, || {
                run_each(pieces, |piece| {
                    runs.fetch_add(1, SeqCst);
                    for slot in piece.iter_mut() {
                        *slot += 1;
                    }
                    piece.len()
                })
            });
            assert_eq!(
                runs.load(SeqCst),
                1000usize.div_ceil(37),
                "threads={threads}"
            );
            assert_eq!(lens.iter().sum::<usize>(), 1000, "threads={threads}");
            assert!(buf.iter().all(|&x| x == 1), "threads={threads}");
        }
    }

    #[test]
    fn run_each_worker_panic_payload_resumes_on_caller() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                run_each((0..64u32).collect(), |x| {
                    if x == 29 {
                        panic!("each boom 29");
                    }
                    x
                })
            })
        });
        let payload = match caught {
            Err(p) => p,
            Ok(_) => panic!("expected the region to panic"),
        };
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("each boom 29")
        );
    }
}
