//! Deterministic parallel execution primitives.
//!
//! Everything in this crate preserves a hard invariant: **results are
//! identical to a serial left-to-right evaluation**, independent of the
//! thread count. Parallelism only changes *when* each job runs, never
//! which jobs run or how their results are ordered:
//!
//! * [`par_map`] — an ordered fan-out over a slice. Items are split into
//!   contiguous chunks (one per worker) and the per-chunk results are
//!   concatenated in chunk order, so the output `Vec` is index-aligned
//!   with the input regardless of scheduling.
//!
//! Fan-outs pay a thread spawn per worker per call, so they suit coarse
//! jobs: annealing restart chains and experiment grid cells. The EAS
//! level scheduler and search & repair evaluate their fine-grained
//! F(i,k) trials and GTM candidates serially instead; on two CPUs a
//! per-round fan-out ran them at 0.40–0.47× the serial speed.
//!
//! # Panic isolation
//!
//! A panicking job must never take down the caller's process. Worker
//! closures run under [`std::panic::catch_unwind`]: [`try_par_map`]
//! reports the first panicking chunk (in chunk order, so the error is
//! deterministic) as a typed [`WorkerPanic`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ScopedJoinHandle;

/// A worker closure panicked during a parallel evaluation.
///
/// Carries a best-effort rendering of the panic payload (`&str` and
/// `String` payloads verbatim; anything else is labelled opaque). When
/// several workers panic in one evaluation, the first chunk in input
/// order wins, so the reported error is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Human-readable panic payload.
    pub message: String,
}

impl WorkerPanic {
    /// Renders a `catch_unwind` payload into a typed panic error — also
    /// used by downstream crates (the service engine) that isolate
    /// panics with their own `catch_unwind`.
    #[must_use]
    pub fn from_payload(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_owned()
        };
        WorkerPanic { message }
    }
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked: {}", self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Number of hardware threads available to this process (at least 1).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves a user-facing thread-count knob: `0` means "use all
/// available hardware threads", anything else is taken literally.
#[must_use]
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Splits `len` items into `parts` contiguous chunks; returns the bounds
/// of chunk `index`. Chunks tile `0..len` in ascending order, so
/// concatenating per-chunk results in index order reproduces the input
/// order.
#[must_use]
pub fn chunk_bounds(len: usize, parts: usize, index: usize) -> (usize, usize) {
    debug_assert!(parts >= 1 && index < parts);
    (index * len / parts, (index + 1) * len / parts)
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning
/// results in input order. With `threads <= 1` (or fewer than two items)
/// this is a plain serial map with zero thread overhead; the output is
/// byte-identical either way. `f` receives the item index alongside the
/// item so callers can derive per-item seeds or labels.
///
/// # Panics
///
/// If `f` panics: the panic is re-raised on the calling thread with the
/// original payload message (see [`try_par_map`] for the non-panicking
/// variant).
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_par_map(threads, items, f) {
        Ok(out) => out,
        Err(p) => panic!("par_map worker panicked: {}", p.message),
    }
}

/// [`par_map`] with typed panic handling: a panic in `f` fails *this
/// map call only* with a [`WorkerPanic`] instead of unwinding through
/// (or crashing) the caller. All scoped workers are joined before
/// returning, so no detached thread outlives the call; results computed
/// by non-panicking chunks are discarded.
///
/// `f` is run under [`AssertUnwindSafe`]: on `Err` every result is
/// dropped, so no partially-built output is ever observable, but
/// caller-supplied interior mutability updated by `f` before the panic
/// is the caller's responsibility (the workspace's schedulers only hand
/// out per-chunk scratch state, which dies with the call).
///
/// # Errors
///
/// The [`WorkerPanic`] of the first panicking chunk in input order.
pub fn try_par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len()).max(1);
    if workers <= 1 {
        return catch_unwind(AssertUnwindSafe(|| {
            items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
        }))
        .map_err(WorkerPanic::from_payload);
    }
    let chunks: Vec<Result<Vec<R>, WorkerPanic>> = std::thread::scope(|scope| {
        let handles: Vec<ScopedJoinHandle<'_, Result<Vec<R>, WorkerPanic>>> = (0..workers)
            .map(|w| {
                let f = &f;
                let (lo, hi) = chunk_bounds(items.len(), workers, w);
                let slice = &items[lo..hi];
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        slice
                            .iter()
                            .enumerate()
                            .map(|(i, t)| f(lo + i, t))
                            .collect()
                    }))
                    .map_err(WorkerPanic::from_payload)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("panics are caught inside the worker"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in chunks {
        out.append(&mut chunk?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_tile_the_range() {
        for len in [0usize, 1, 5, 16, 17, 100] {
            for parts in 1..=8 {
                let mut covered = 0;
                for i in 0..parts {
                    let (lo, hi) = chunk_bounds(len, parts, i);
                    assert_eq!(lo, covered, "len={len} parts={parts} i={i}");
                    assert!(hi >= lo);
                    covered = hi;
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn par_map_matches_serial_map_for_any_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [0usize, 1, 2, 3, 4, 7, 128] {
            let parallel = par_map(threads.max(1), &items, |_, &x| x * x + 1);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_passes_global_indices() {
        let items = vec!["a"; 37];
        let indices = par_map(4, &items, |i, _| i);
        assert_eq!(indices, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn effective_threads_resolves_zero_to_hardware() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(0), available_threads());
    }

    /// One panicking item fails only that map call — the next call on
    /// the same inputs (minus the poison) succeeds, and the error names
    /// the panic payload.
    #[test]
    fn try_par_map_isolates_a_panicking_item() {
        let items: Vec<u32> = (0..40).collect();
        for threads in [1usize, 2, 4, 7] {
            let err = try_par_map(threads, &items, |_, &x| {
                assert!(x != 17, "poison item");
                x * 2
            })
            .expect_err("item 17 panics");
            assert!(err.message.contains("poison item"), "got: {}", err.message);
            assert!(err.to_string().contains("worker panicked"));
            // The same closure without the poison works immediately after.
            let ok = try_par_map(threads, &items, |_, &x| x * 2).expect("no panic");
            assert_eq!(ok, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    /// When several chunks panic, the first chunk in input order wins,
    /// so the reported error is deterministic for every thread count.
    #[test]
    fn try_par_map_reports_the_first_panicking_chunk() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [2usize, 4, 8] {
            let err = try_par_map(threads, &items, |_, &x| -> u32 {
                panic!("boom at {x}");
            })
            .expect_err("everything panics");
            assert_eq!(err.message, "boom at 0", "threads={threads}");
        }
    }

    #[test]
    fn par_map_propagates_the_panic_message() {
        let caught = std::panic::catch_unwind(|| {
            par_map(2, &[1u32, 2, 3], |_, &x| {
                assert!(x != 2, "unlucky");
                x
            })
        })
        .expect_err("must panic");
        let msg = caught.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("unlucky"), "got: {msg}");
    }
}
