//! Offline shim for the subset of `rayon` this workspace uses.
//!
//! The build environment has no registry access, so this crate provides
//! `par_iter()` / `par_chunks()` with `map(...).collect()` on slices,
//! executed on `std::thread::scope` threads (one contiguous chunk per
//! hardware thread). Results are collected **in input order**, so any
//! reduction over them is deterministic regardless of thread timing —
//! the property the mapping engine's lowest-WH-wins reductions rely on.
//!
//! A panic inside a worker reaches the caller with its original payload
//! (`resume_unwind`), as with real rayon, so `#[should_panic(expected)]`
//! tests see the same message on any core count.
//!
//! The API is call-compatible with real rayon for the patterns used
//! here; swapping the real crate back in requires no source changes.

use std::num::NonZeroUsize;
use std::panic;
use std::thread;

/// Number of worker threads to fan out over for `n` items.
fn threads_for(n: usize) -> usize {
    let hw = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(n).max(1)
}

/// Order-preserving parallel map over a slice: splits `items` into one
/// contiguous chunk per worker, maps each chunk on its own scoped
/// thread, and concatenates the per-chunk outputs in input order.
pub fn par_map_slice<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let n = items.len();
    let workers = threads_for(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let f = &f;
    let mut out: Vec<R> = Vec::with_capacity(n);
    thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            out.extend(
                h.join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload)),
            );
        }
    });
    out
}

/// `par_iter()` entry point on slices and `Vec`s.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: Sync + 'a;
    /// Borrowing parallel iterator over `&self`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a, const N: usize> IntoParallelRefIterator<'a> for [T; N] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// `par_chunks()` entry point on slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over contiguous sub-slices of length `size`.
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "par_chunks: chunk size must be non-zero");
        ParChunks { items: self, size }
    }
}

/// Borrowing parallel iterator (`slice.par_iter()`).
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Parallel map; `f` runs on worker threads.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Parallel flat-map; each produced collection is flattened into the
    /// output in input order.
    pub fn flat_map<I, F>(self, f: F) -> ParFlatMap<'a, T, F>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(&'a T) -> I + Sync,
    {
        ParFlatMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel iterator awaiting `collect()`.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Executes the map and gathers results in input order.
    pub fn collect<C>(self) -> C
    where
        C: FromParallelIterator<R>,
    {
        C::from_ordered_vec(par_map_slice(self.items, |t| (self.f)(t)))
    }
}

/// A flat-mapped parallel iterator awaiting `collect()`.
pub struct ParFlatMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, I, F> ParFlatMap<'a, T, F>
where
    T: Sync,
    I: IntoIterator,
    I::Item: Send,
    F: Fn(&'a T) -> I + Sync,
{
    /// Executes the flat-map and gathers results in input order.
    pub fn collect<C>(self) -> C
    where
        C: FromParallelIterator<I::Item>,
    {
        let nested: Vec<Vec<I::Item>> =
            par_map_slice(self.items, |t| (self.f)(t).into_iter().collect());
        C::from_ordered_vec(nested.into_iter().flatten().collect())
    }
}

/// Parallel iterator over sub-slices (`slice.par_chunks(k)`).
pub struct ParChunks<'a, T> {
    items: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    /// Parallel map over each chunk.
    pub fn map<R, F>(self, f: F) -> ParChunksMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a [T]) -> R + Sync,
    {
        ParChunksMap {
            items: self.items,
            size: self.size,
            f,
        }
    }
}

/// A mapped chunk iterator awaiting `collect()`.
pub struct ParChunksMap<'a, T, F> {
    items: &'a [T],
    size: usize,
    f: F,
}

impl<'a, T, R, F> ParChunksMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> R + Sync,
{
    /// Executes the map, one scoped thread per chunk, in input order.
    pub fn collect<C>(self) -> C
    where
        C: FromParallelIterator<R>,
    {
        let f = &self.f;
        let chunks: Vec<&[T]> = self.items.chunks(self.size).collect();
        let results = if chunks.len() <= 1 {
            chunks.into_iter().map(f).collect()
        } else {
            let mut out: Vec<R> = Vec::with_capacity(chunks.len());
            thread::scope(|s| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|part| s.spawn(move || f(part)))
                    .collect();
                for h in handles {
                    out.push(
                        h.join()
                            .unwrap_or_else(|payload| panic::resume_unwind(payload)),
                    );
                }
            });
            out
        };
        C::from_ordered_vec(results)
    }
}

/// Collection targets for `collect()` (the `Vec` subset).
pub trait FromParallelIterator<R> {
    /// Builds the collection from results already in input order.
    fn from_ordered_vec(v: Vec<R>) -> Self;
}

impl<R> FromParallelIterator<R> for Vec<R> {
    fn from_ordered_vec(v: Vec<R>) -> Self {
        v
    }
}

/// Re-exports mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelRefIterator, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::par_map_slice;
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_covers_everything_in_order() {
        let v: Vec<u32> = (0..103).collect();
        let sums: Vec<u32> = v.par_chunks(10).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.iter().sum::<u32>(), v.iter().sum::<u32>());
        assert_eq!(sums[0], (0..10).sum::<u32>());
    }

    #[test]
    fn helper_matches_sequential() {
        let v: Vec<i64> = (0..257).collect();
        assert_eq!(
            par_map_slice(&v, |&x| x * x),
            v.iter().map(|&x| x * x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let outer: Vec<u32> = (0..8).collect();
        let out: Vec<Vec<u32>> = outer
            .par_iter()
            .map(|&i| {
                let inner: Vec<u32> = (0..16).collect();
                inner.par_iter().map(|&j| i * 100 + j).collect()
            })
            .collect();
        assert_eq!(out[3][5], 305);
    }

    /// The message a worker panicked with, as seen by the caller.
    fn caller_sees(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload =
            std::panic::catch_unwind(f).expect_err("the worker panic must reach the caller");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        let v: Vec<u32> = (0..64).collect();
        let msg = caller_sees(|| {
            let _: Vec<u32> = v
                .par_iter()
                .map(|&x| {
                    if x == 63 {
                        panic!("item {x} is bad")
                    } else {
                        x
                    }
                })
                .collect();
        });
        assert_eq!(msg, "item 63 is bad");
        let msg = caller_sees(|| {
            let _: Vec<u32> = v
                .par_chunks(8)
                .map(|c| {
                    if c[0] == 56 {
                        panic!("chunk at {} is bad", c[0])
                    } else {
                        c[0]
                    }
                })
                .collect();
        });
        assert_eq!(msg, "chunk at 56 is bad");
    }

    #[test]
    fn empty_input_is_fine() {
        let v: Vec<u32> = Vec::new();
        let out: Vec<u32> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }
}
