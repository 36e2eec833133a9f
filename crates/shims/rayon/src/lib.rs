//! Offline shim for the subset of the `rayon` API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal data-parallel facade. It covers exactly the call
//! sites in this repository: `into_par_iter()` on integer ranges (and
//! `Vec`), followed by `.map(f)` and a terminal `.sum()`,
//! `.reduce(identity, op)` or `.collect()`.
//!
//! Execution is delegated to the persistent work-stealing pool in
//! `cubemesh-pool` (DESIGN.md §10). This shim owns only the *splitting
//! policy*: an input of `n` elements becomes `min(n, threads ×
//! OVERSPLIT)` contiguous blocks, so the pool's steal-half rebalancing
//! has enough granularity to absorb ragged per-element costs (census
//! sweeps, axis-split searches, many-to-one folds) while per-task
//! overhead stays negligible. Integer ranges are split *arithmetically*
//! — block `c` of `start..end` is described by bounds, never
//! materialized — so paper-scale node ranges (hundreds of millions of
//! indices) cost no memory. `Vec` inputs are split by moving out
//! contiguous blocks.
//!
//! Worker-count resolution and the backend honesty string both come
//! from `cubemesh-pool` (`CUBEMESH_THREADS` > `available_parallelism()`,
//! re-read per region); a worker panic is resumed on the calling thread
//! with its original payload.
//!
//! Block results always come back in input order, and all reductions
//! here fold the per-block partials in block order — stealing never
//! changes output bytes (the determinism argument in DESIGN.md §10).
//!
//! # Analyzer contract
//!
//! The static analyzer (`cubemesh-audit analyze`) discovers parallel
//! regions from the fan-out API names this shim exports. The shim
//! *declares* its own surface with the annotations below, which the
//! analyzer merges with its defaults — so adding a combinator here
//! without annotating it shows up as an analysis gap in review, not as
//! a silently unscanned parallel region. `run_tasks` is the pool's
//! direct submission API: closures handed to it fan out exactly like
//! `spawn`, so it is declared as a direct fan-out for the pool crate
//! and any future caller.
//!
//! * audit: fanout-source(into_par_iter)
//! * audit: fanout-entry(map)
//! * audit: fanout-entry(sum)
//! * audit: fanout-entry(reduce)
//! * audit: fanout-entry(collect)
//! * audit: fanout-direct(spawn)
//! * audit: fanout-direct(scope)
//! * audit: fanout-direct(run_tasks)

use std::ops::{Range, RangeInclusive};
use std::sync::Mutex;

/// The number of worker threads a parallel region would use right now
/// (mirrors `rayon::current_num_threads`).
pub fn current_num_threads() -> usize {
    cubemesh_pool::effective_threads()
}

/// A stable name for the execution backend a parallel region would use
/// right now, from the pool's single source of truth: "pool-sequential"
/// (one effective thread: regions run inline on the caller) or
/// "pool-steal" (persistent work-stealing workers). Benchmarks embed
/// this so baselines recorded on a 1-core host are not mistaken for
/// multi-core numbers.
pub fn backend() -> &'static str {
    cubemesh_pool::backend_name()
}

/// Workers for an input of `len` elements. A single element runs inline
/// without asking the pool, whose width query reads the environment and
/// the host's CPU limits each time.
fn width_for(len: usize) -> usize {
    if len <= 1 {
        1
    } else {
        cubemesh_pool::effective_threads().min(len)
    }
}

/// How many contiguous blocks to cut `len` elements into for `threads`
/// workers: oversplit so stealing can rebalance ragged blocks.
fn split_count(len: usize, threads: usize) -> usize {
    len.min(threads * cubemesh_pool::OVERSPLIT)
}

/// Conversion into a (shim) parallel iterator — mirrors
/// `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Start data-parallel iteration.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

/// How a [`ParIter`] produces its elements.
enum Source<T> {
    /// An owned buffer, split into contiguous blocks.
    Items(Vec<T>),
    /// An arithmetic index space: element `i` is `make(i)`, `i < len`.
    /// Nothing is materialized until a worker produces its own block.
    Gen {
        len: usize,
        make: Box<dyn Fn(usize) -> T + Send + Sync>,
    },
}

macro_rules! impl_into_par_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                let start = self.start;
                let len = if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                };
                ParIter {
                    source: Source::Gen {
                        len,
                        make: Box::new(move |i| start + i as $t),
                    },
                }
            }
        }
        impl IntoParallelIterator for RangeInclusive<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                let (start, end) = self.into_inner();
                let len = if end >= start { (end - start) as usize + 1 } else { 0 };
                ParIter {
                    source: Source::Gen {
                        len,
                        make: Box::new(move |i| start + i as $t),
                    },
                }
            }
        }
    )*};
}

impl_into_par_range!(usize, u64, u32, i32);

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter {
            source: Source::Items(self),
        }
    }
}

/// A (shim) parallel iterator over an index space or an owned buffer.
pub struct ParIter<T> {
    source: Source<T>,
}

impl<T: Send> ParIter<T> {
    /// Map each item through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            source: self.source,
            f,
        }
    }
}

/// The result of [`ParIter::map`]; terminal operations run the map on
/// the work-stealing pool.
pub struct ParMap<T, F> {
    source: Source<T>,
    f: F,
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Apply the map across the pool, preserving input order.
    fn run(self) -> Vec<R> {
        let ParMap { source, f } = self;
        match source {
            Source::Items(items) => run_items(items, &f),
            Source::Gen { len, make } => run_gen(len, &*make, &f),
        }
    }

    /// Sum the mapped values (mirrors `ParallelIterator::sum`). Each
    /// block sums itself; only the per-block partials are combined at
    /// the end (in block order), so nothing is materialized.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R> + std::iter::Sum<S> + Send,
    {
        let ParMap { source, f } = self;
        let partials: Vec<S> = match source {
            Source::Items(items) => fold_items(items, &f, |it| it.sum()),
            Source::Gen { len, make } => fold_gen(len, &*make, &f, |it| it.sum()),
        };
        partials.into_iter().sum()
    }

    /// Fold the mapped values with an identity constructor and an
    /// associative operator (mirrors `ParallelIterator::reduce`). Each
    /// block folds itself from `identity()`; partials are folded at the
    /// end in block order.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        let ParMap { source, f } = self;
        let op = &op;
        let identity = &identity;
        let partials: Vec<R> = match source {
            Source::Items(items) => {
                fold_items(items, &f, |it| it.fold(identity(), |a, b| op(a, b)))
            }
            Source::Gen { len, make } => {
                fold_gen(len, &*make, &f, |it| it.fold(identity(), |a, b| op(a, b)))
            }
        };
        partials.into_iter().fold(identity(), |a, b| op(a, b))
    }

    /// Collect the mapped values in input order (mirrors
    /// `ParallelIterator::collect` for indexed iterators).
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<R>,
    {
        self.run().into_iter().collect()
    }
}

/// Cut an owned buffer into contiguous blocks wrapped for by-value
/// handoff to pool tasks (task `i` takes block `i` exactly once).
fn blocks_of<T: Send>(items: Vec<T>, tasks: usize) -> Vec<Mutex<Option<Vec<T>>>> {
    let per = items.len().div_ceil(tasks);
    let mut rest = items;
    let mut blocks = Vec::with_capacity(tasks);
    while !rest.is_empty() {
        let tail = rest.split_off(rest.len().min(per));
        blocks.push(Mutex::new(Some(std::mem::replace(&mut rest, tail))));
    }
    blocks
}

/// Take block `i` out of its cell (each block is taken exactly once).
fn take_block<T>(blocks: &[Mutex<Option<Vec<T>>>], i: usize) -> Vec<T> {
    blocks[i]
        .lock()
        .map(|mut g| g.take())
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Arithmetic block bounds: `tasks` contiguous sub-ranges of `0..len`.
fn bounds_of(len: usize, tasks: usize) -> Vec<(usize, usize)> {
    let per = len.div_ceil(tasks);
    (0..tasks)
        .map(|w| (w * per, ((w + 1) * per).min(len)))
        .filter(|&(lo, hi)| lo < hi)
        .collect()
}

/// Fold an owned buffer across the pool: each block reduces itself
/// through `finish`; the per-block results come back in block order.
fn fold_items<T, R, F, S, G>(items: Vec<T>, f: &F, finish: G) -> Vec<S>
where
    T: Send,
    R: Send,
    S: Send,
    F: Fn(T) -> R + Sync,
    G: Fn(&mut dyn Iterator<Item = R>) -> S + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = width_for(n);
    if threads == 1 {
        return vec![finish(&mut items.into_iter().map(f))];
    }
    let blocks = blocks_of(items, split_count(n, threads));
    let blocks = &blocks;
    cubemesh_pool::run_tasks(blocks.len(), |i| {
        finish(&mut take_block(blocks, i).into_iter().map(f))
    })
}

/// Fold an arithmetic index space across the pool (see [`fold_items`]).
/// Block boundaries are computed, not collected.
fn fold_gen<T, R, F, S, G>(
    len: usize,
    make: &(dyn Fn(usize) -> T + Send + Sync),
    f: &F,
    finish: G,
) -> Vec<S>
where
    T: Send,
    R: Send,
    S: Send,
    F: Fn(T) -> R + Sync,
    G: Fn(&mut dyn Iterator<Item = R>) -> S + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let threads = width_for(len);
    if threads == 1 {
        return vec![finish(&mut (0..len).map(|i| f(make(i))))];
    }
    let bounds = bounds_of(len, split_count(len, threads));
    let bounds = &bounds;
    cubemesh_pool::run_tasks(bounds.len(), |i| {
        let (lo, hi) = bounds[i];
        finish(&mut (lo..hi).map(|j| f(make(j))))
    })
}

/// Map an owned buffer across the pool, block per task, preserving order.
fn run_items<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = width_for(n);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    let blocks = blocks_of(items, split_count(n, threads));
    let blocks = &blocks;
    let parts: Vec<Vec<R>> = cubemesh_pool::run_tasks(blocks.len(), |i| {
        take_block(blocks, i).into_iter().map(f).collect()
    });
    parts.into_iter().flatten().collect()
}

/// Map an arithmetic index space across the pool. Block boundaries are
/// computed, not collected: task `w` owns indices `[w·⌈n/t⌉, …)`.
fn run_gen<T, R, F>(len: usize, make: &(dyn Fn(usize) -> T + Send + Sync), f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let threads = width_for(len);
    if threads == 1 {
        return (0..len).map(|i| f(make(i))).collect();
    }
    let bounds = bounds_of(len, split_count(len, threads));
    let bounds = &bounds;
    let parts: Vec<Vec<R>> = cubemesh_pool::run_tasks(bounds.len(), |i| {
        let (lo, hi) = bounds[i];
        (lo..hi).map(|j| f(make(j))).collect()
    });
    parts.into_iter().flatten().collect()
}

/// The glob-import surface (mirrors `rayon::prelude`).
pub mod prelude {
    pub use super::IntoParallelIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use cubemesh_pool::with_threads;

    #[test]
    fn map_sum_matches_sequential() {
        let par: u64 = (1u64..=1000).into_par_iter().map(|x| x * x).sum();
        let seq: u64 = (1u64..=1000).map(|x| x * x).sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn reduce_matches_sequential() {
        let par = (0usize..100)
            .into_par_iter()
            .map(|x| ([x as u64; 2], x as u64))
            .reduce(
                || ([0u64; 2], 0u64),
                |(mut a1, b1), (a2, b2)| {
                    a1[0] += a2[0];
                    a1[1] += a2[1];
                    (a1, b1 + b2)
                },
            );
        let total: u64 = (0..100u64).sum();
        assert_eq!(par, ([total; 2], total));
    }

    #[test]
    fn empty_input_is_fine() {
        let s: u64 = (0u64..0).into_par_iter().map(|x| x).sum();
        assert_eq!(s, 0);
        let v: Vec<u64> = (5u64..5).into_par_iter().map(|x| x).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn collect_preserves_order() {
        let v: Vec<usize> = (0usize..10_000).into_par_iter().map(|x| x * 2).collect();
        let seq: Vec<usize> = (0usize..10_000).map(|x| x * 2).collect();
        assert_eq!(v, seq);
        let owned: Vec<i32> = vec![3, 1, 4, 1, 5]
            .into_par_iter()
            .map(|x| x + 1)
            .collect();
        assert_eq!(owned, vec![4, 2, 5, 2, 6]);
    }

    #[test]
    fn collect_preserves_order_across_thread_counts() {
        let seq: Vec<usize> = (0usize..10_000).map(|x| x * 2).collect();
        for t in [2, 8] {
            let par: Vec<usize> = with_threads(t, || {
                (0usize..10_000).into_par_iter().map(|x| x * 2).collect()
            });
            assert_eq!(par, seq, "threads={t}");
        }
    }

    #[test]
    fn huge_range_is_not_materialized() {
        // Pre-fix, `into_par_iter()` eagerly collected the range into a
        // Vec — for this range that is 2^40 elements (8 TiB), an
        // immediate OOM. The arithmetic split makes construction O(1).
        let it = (0u64..1 << 40).into_par_iter();
        drop(it);
        // And a large-but-consumable range folds without materializing
        // (sum of worker partials only).
        let n: u64 = 1 << 22;
        let s: u64 = (0u64..n).into_par_iter().map(|x| x).sum();
        assert_eq!(s, n * (n - 1) / 2);
    }

    #[test]
    fn inclusive_range_endpoints() {
        let v: Vec<u32> = (7u32..=9).into_par_iter().map(|x| x).collect();
        assert_eq!(v, vec![7, 8, 9]);
    }

    #[test]
    fn worker_panic_surfaces_original_message() {
        // The old scope-based shim died with `join().expect("shim rayon
        // worker panicked")`, hiding the payload; the pool resumes the
        // first panic's payload on the caller.
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                let _: Vec<u64> = (0u64..256)
                    .into_par_iter()
                    .map(|x| {
                        if x == 77 {
                            panic!("worker payload 77");
                        }
                        x
                    })
                    .collect();
            })
        });
        let payload = match caught {
            Err(p) => p,
            Ok(_) => panic!("expected a propagated panic"),
        };
        let msg = payload.downcast_ref::<&str>().copied();
        assert_eq!(msg, Some("worker payload 77"));
    }
}
