//! Thread-local, grow-only scratch buffers for kernel workspaces.
//!
//! The conv stack needs large temporary buffers on every call: an im2col
//! matrix per batch element plus the GEMM packing panels. Allocating them
//! fresh each time puts a `malloc`/`free` (and a page-fault storm on first
//! touch) on the hot path of every layer of every step. This module keeps
//! a small per-thread free-list of `Vec<f32>` buffers that are checked out
//! for the duration of a closure and returned afterwards, so in steady
//! state the conv stack performs **zero** heap allocation: the pool
//! workers in [`crate::parallel`] are persistent, so each worker's arena
//! is allocated once and reused across layers, batches and training steps.
//!
//! Ownership rules:
//! * a buffer is exclusively owned by the closure for its lifetime and
//!   returned to the *same thread's* free-list on exit (buffers never
//!   migrate between threads);
//! * checkouts nest (im2col buffer → GEMM packing panels): each nested
//!   [`with_scratch`] pops a different buffer;
//! * contents are **stale** — callers must fully overwrite the slice (the
//!   packing and im2col routines write every element, including padding);
//! * if the closure panics the buffer is dropped rather than returned,
//!   which is safe, merely unfortunate.

use std::cell::RefCell;
use std::thread::LocalKey;

thread_local! {
    /// LIFO free-list of reusable buffers for this thread.
    static FREE: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Separate free-list for the quantized kernels' `i16` workspaces
    /// (activation panels); same ownership rules as the `f32` arena.
    static FREE_I16: RefCell<Vec<Vec<i16>>> = const { RefCell::new(Vec::new()) };
    /// Free-list for `i32` workspaces (regrouped weight code words of the
    /// kd-decomposed quantized conv3d); same ownership rules.
    static FREE_I32: RefCell<Vec<Vec<i32>>> = const { RefCell::new(Vec::new()) };
}

/// Maximum number of parked buffers per thread. Checkout depth in the
/// conv stack is 3 (im2col cols → packed A → packed B); a few extra slots
/// absorb transient shapes without hoarding memory.
const MAX_PARKED: usize = 8;

/// Byte alignment of every checked-out slice: one cache line, and the
/// width of an AVX-512 register. Without it the SIMD packing panels'
/// alignment would depend on whatever the process allocated before the
/// arena grew, and so would their speed.
const ALIGN: usize = 64;

/// Pops a buffer from `free`, grows it to hold `len` elements starting
/// at an [`ALIGN`]-byte boundary, runs `f` on that slice and parks the
/// buffer again.
fn checkout<T: Copy + Default, R>(
    free: &'static LocalKey<RefCell<Vec<Vec<T>>>>,
    len: usize,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    let pad = ALIGN / std::mem::size_of::<T>() - 1;
    let mut buf = free
        .with(|free| free.borrow_mut().pop())
        .unwrap_or_default();
    if buf.len() < len + pad {
        // No telemetry counter here on purpose: growth depends on what ran
        // earlier in the process, and the telemetry layer guarantees that
        // non-timing metrics are deterministic per seed.
        buf.resize(len + pad, T::default());
    }
    // `align_offset` may decline (usize::MAX); the slice then stays
    // unaligned but in bounds.
    let off = buf.as_ptr().align_offset(ALIGN).min(pad);
    let r = f(&mut buf[off..off + len]);
    free.with(|free| {
        let mut free = free.borrow_mut();
        if free.len() < MAX_PARKED {
            free.push(buf);
        }
    });
    r
}

/// Runs `f` with a scratch slice of exactly `len` elements, reusing a
/// previously returned buffer when one exists (growing it if needed).
/// The slice starts on a 64-byte boundary.
///
/// The slice contents are unspecified; `f` must overwrite every element
/// it reads.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    checkout(&FREE, len, f)
}

/// [`with_scratch`] for `i16` workspaces: the quantized GEMM checks out
/// one panel per call for the dynamically quantized activations, so the
/// int8 inference route is also allocation-free in steady state.
pub fn with_scratch_i16<R>(len: usize, f: impl FnOnce(&mut [i16]) -> R) -> R {
    checkout(&FREE_I16, len, f)
}

/// [`with_scratch`] for `i32` workspaces: the kd-decomposed quantized
/// conv3d checks out one buffer per stage call for the regrouped weight
/// code words, keeping that route allocation-free in steady state too.
pub fn with_scratch_i32<R>(len: usize, f: impl FnOnce(&mut [i32]) -> R) -> R {
    checkout(&FREE_I32, len, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i32_checkout_reuses_buffers() {
        let p0 = with_scratch_i32(64, |s| {
            assert_eq!(s.len(), 64);
            s.as_ptr() as usize
        });
        let p1 = with_scratch_i32(32, |s| s.as_ptr() as usize);
        assert_eq!(p0, p1, "second i32 checkout must reuse the first buffer");
    }

    #[test]
    fn i16_checkout_reuses_buffers() {
        let p0 = with_scratch_i16(256, |s| {
            assert_eq!(s.len(), 256);
            s.as_ptr() as usize
        });
        let p1 = with_scratch_i16(128, |s| s.as_ptr() as usize);
        assert_eq!(p0, p1, "second i16 checkout must reuse the first buffer");
    }

    #[test]
    fn reuses_buffers_without_reallocating() {
        // Warm the arena with a large buffer, then verify a smaller
        // checkout reuses its capacity.
        let cap0 = with_scratch(1024, |s| {
            assert_eq!(s.len(), 1024);
            s.as_ptr() as usize
        });
        let cap1 = with_scratch(512, |s| {
            assert_eq!(s.len(), 512);
            s.as_ptr() as usize
        });
        assert_eq!(cap0, cap1, "second checkout must reuse the first buffer");
    }

    #[test]
    fn nested_checkouts_are_disjoint() {
        with_scratch(64, |outer| {
            outer.fill(1.0);
            with_scratch(64, |inner| {
                inner.fill(2.0);
                assert_ne!(outer.as_ptr(), inner.as_ptr());
            });
            assert!(outer.iter().all(|&v| v == 1.0));
        });
    }

    #[test]
    fn checkouts_start_on_a_cache_line() {
        for len in [1usize, 7, 100, 4096, 3] {
            with_scratch(len, |s| {
                assert_eq!(s.as_ptr() as usize % ALIGN, 0, "f32 len={len}")
            });
            with_scratch_i16(len, |s| {
                assert_eq!(s.as_ptr() as usize % ALIGN, 0, "i16 len={len}")
            });
            with_scratch_i32(len, |s| {
                assert_eq!(s.as_ptr() as usize % ALIGN, 0, "i32 len={len}")
            });
        }
        with_scratch(64, |outer| {
            with_scratch(64, |inner| assert_eq!(inner.as_ptr() as usize % ALIGN, 0));
            assert_eq!(outer.as_ptr() as usize % ALIGN, 0);
        });
    }

    #[test]
    fn zero_len_checkout_works() {
        with_scratch(0, |s| assert!(s.is_empty()));
    }
}
