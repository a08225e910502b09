//! Explicitly vectorized distance kernels behind the [`DistanceKernel`]
//! trait.
//!
//! The native (rayon) backend is the repo's wall-clock story, and its inner
//! loop is the distance evaluation: one query row against many candidate
//! rows, exactly the shape the beam kernel's 8-wide blocked accumulation
//! models on the simulated device. This module gives the host that loop in
//! three forms:
//!
//! * [`ScalarKernel`] — the **oracle**: delegates to [`crate::sq_l2`] /
//!   [`crate::dot`], the 8-wide blocked scalar loops every differential
//!   test is judged against. Also the portable fallback on targets without
//!   detected SIMD.
//! * [`SimdKernel`] — `x86_64` AVX2+FMA kernels (runtime-detected, 8-lane
//!   vectors, 4 independent accumulators = an effective 32-wide block that
//!   hides FMA latency), falling back to the scalar oracle anywhere else.
//! * [`DistanceKernel::eval_many`] — the cache-blocked one-query-vs-many
//!   form the builder's bucket pass and the graph search dispatch through:
//!   the query row stays hot in L1 while candidate rows stream past.
//!
//! # Choosing a kernel
//!
//! Call sites take [`kernel()`], which resolves once per call from the
//! process-wide [`KernelMode`]:
//!
//! * `Auto` (default) — SIMD when the CPU has it, scalar otherwise;
//! * `ForceScalar` — the oracle, everywhere (what the `simd-oracle` CI job
//!   pins to prove the fallback cannot rot);
//! * compile with the `force-scalar` cargo feature and the SIMD paths are
//!   not even compiled in — `Auto` then *is* the scalar oracle.
//!
//! # Numerics
//!
//! The AVX2 kernels reassociate the reduction (4 × 8 partial sums, combined
//! pairwise, scalar tail) while the oracle folds 8 partial sums in index
//! order. The two are therefore **not bit-identical**; they agree within a
//! ULP-scaled tolerance proved by `tests/simd_oracle.rs` across every tail
//! length. Code that needs bit-stable distances (ground truth, the
//! regression-gated deterministic bench metrics) keeps calling the scalar
//! entry points directly.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::dist::{dot as scalar_dot, sq_l2 as scalar_sq_l2, Metric};
use crate::vecs::VectorSet;

/// Process-wide kernel selection policy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Runtime-detected SIMD when available, scalar oracle otherwise.
    #[default]
    Auto,
    /// The scalar oracle everywhere (differential-test + fallback-CI mode).
    ForceScalar,
}

static KERNEL_MODE: AtomicU8 = AtomicU8::new(0);

/// Set the process-wide kernel mode. Takes effect on the next [`kernel()`]
/// call; safe to flip at any time (tests and the bench suite's
/// scalar-vs-SIMD jobs do). Returns the previous mode.
pub fn set_kernel_mode(mode: KernelMode) -> KernelMode {
    let prev = KERNEL_MODE.swap(mode as u8, Ordering::Relaxed);
    if prev == KernelMode::ForceScalar as u8 {
        KernelMode::ForceScalar
    } else {
        KernelMode::Auto
    }
}

/// The current process-wide kernel mode.
pub fn kernel_mode() -> KernelMode {
    if KERNEL_MODE.load(Ordering::Relaxed) == KernelMode::ForceScalar as u8 {
        KernelMode::ForceScalar
    } else {
        KernelMode::Auto
    }
}

/// RAII guard that pins the kernel mode for a scope and restores the
/// previous mode on drop — how tests and bench jobs run a forced-scalar
/// section without leaking the override.
///
/// Guards nest: each one restores exactly the mode it observed, so
/// lexically scoped (LIFO-dropped) pins always unwind to the outer state.
/// Dropping guards out of LIFO order restores whatever each guard saw at
/// construction — don't hold them across overlapping, non-nested scopes.
#[must_use = "the mode is un-pinned the moment the guard drops; bind it to a named local"]
pub struct KernelModeGuard {
    prev: KernelMode,
}

impl KernelModeGuard {
    /// Pin `mode` until the guard drops.
    pub fn pin(mode: KernelMode) -> KernelModeGuard {
        KernelModeGuard { prev: set_kernel_mode(mode) }
    }

    /// The mode this guard will restore on drop.
    pub fn restores_to(&self) -> KernelMode {
        self.prev
    }
}

impl Drop for KernelModeGuard {
    fn drop(&mut self) {
        set_kernel_mode(self.prev);
    }
}

/// A host distance kernel: the scalar oracle or a vectorized implementation
/// proven equivalent to it.
pub trait DistanceKernel: Sync {
    /// Kernel name for reports (`"scalar"`, `"avx2+fma"`).
    fn name(&self) -> &'static str;

    /// Squared Euclidean distance.
    fn sq_l2(&self, a: &[f32], b: &[f32]) -> f32;

    /// Inner product.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// Evaluate `metric` between two equal-length slices.
    fn eval(&self, metric: Metric, a: &[f32], b: &[f32]) -> f32 {
        match metric {
            Metric::SquaredL2 => self.sq_l2(a, b),
            Metric::NegativeDot => -self.dot(a, b),
            Metric::Cosine => {
                let na = self.dot(a, a).sqrt();
                let nb = self.dot(b, b).sqrt();
                if na == 0.0 || nb == 0.0 {
                    return 1.0;
                }
                1.0 - self.dot(a, b) / (na * nb)
            }
        }
    }

    /// One query against many indexed rows, cache-blocked: `out[i] =
    /// metric(query, vs.row(ids[i]))`. `out` is cleared and refilled — the
    /// caller keeps one scratch buffer per thread so the hot loop never
    /// allocates.
    fn eval_many(
        &self,
        metric: Metric,
        query: &[f32],
        vs: &VectorSet,
        ids: &[u32],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.extend(ids.iter().map(|&q| self.eval(metric, query, vs.row(q as usize))));
    }
}

/// The scalar oracle: [`crate::sq_l2`] / [`crate::dot`] behind the trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl DistanceKernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn sq_l2(&self, a: &[f32], b: &[f32]) -> f32 {
        scalar_sq_l2(a, b)
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        scalar_dot(a, b)
    }
}

/// The vectorized kernel: AVX2+FMA on `x86_64` CPUs that have it, the
/// scalar oracle otherwise (and always, under the `force-scalar` feature).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdKernel;

impl DistanceKernel for SimdKernel {
    fn name(&self) -> &'static str {
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        if x86::avx2_available() {
            return "avx2+fma";
        }
        "scalar"
    }

    fn sq_l2(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "sq_l2 over slices of different lengths");
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        if x86::avx2_available() {
            // SAFETY: AVX2+FMA presence was runtime-checked above; the
            // slices were length-checked.
            return unsafe { x86::sq_l2_avx2(a, b) };
        }
        scalar_sq_l2(a, b)
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot over slices of different lengths");
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        if x86::avx2_available() {
            // SAFETY: AVX2+FMA presence was runtime-checked above; the
            // slices were length-checked.
            return unsafe { x86::dot_avx2(a, b) };
        }
        scalar_dot(a, b)
    }
}

static SCALAR: ScalarKernel = ScalarKernel;
static SIMD: SimdKernel = SimdKernel;

/// The active kernel under the current [`KernelMode`]. Resolution is one
/// relaxed atomic load; hot loops may still hoist the returned reference
/// out of the loop.
pub fn kernel() -> &'static dyn DistanceKernel {
    match kernel_mode() {
        KernelMode::Auto => &SIMD,
        KernelMode::ForceScalar => &SCALAR,
    }
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
pub(crate) mod x86 {
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = unprobed, 1 = available, 2 = unavailable.
    static AVX2: AtomicU8 = AtomicU8::new(0);

    #[inline]
    pub fn avx2_available() -> bool {
        match AVX2.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let ok =
                    std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
                AVX2.store(if ok { 1 } else { 2 }, Ordering::Relaxed);
                ok
            }
        }
    }

    use core::arch::x86_64::*;

    /// Horizontal sum of one 8-lane register, pairwise (lane 0+4, 1+5, …).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
        _mm_cvtss_f32(s)
    }

    /// Squared L2 over 32-float blocks: 4 independent 8-lane FMA
    /// accumulators (hides the 4-cycle FMA latency), an 8-wide cleanup
    /// loop, then a scalar tail for `len % 8` — the tail order matches the
    /// scalar oracle's remainder loop exactly.
    ///
    /// # Safety
    /// Requires AVX2+FMA and `a.len() == b.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq_l2_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            let d1 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i + 8)), _mm256_loadu_ps(pb.add(i + 8)));
            let d2 =
                _mm256_sub_ps(_mm256_loadu_ps(pa.add(i + 16)), _mm256_loadu_ps(pb.add(i + 16)));
            let d3 =
                _mm256_sub_ps(_mm256_loadu_ps(pa.add(i + 24)), _mm256_loadu_ps(pb.add(i + 24)));
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            acc2 = _mm256_fmadd_ps(d2, d2, acc2);
            acc3 = _mm256_fmadd_ps(d3, d3, acc3);
            i += 32;
        }
        while i + 8 <= n {
            let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut sum = hsum256(_mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
        while i < n {
            let d = *pa.add(i) - *pb.add(i);
            sum += d * d;
            i += 1;
        }
        sum
    }

    /// Inner product, same blocking as [`sq_l2_avx2`].
    ///
    /// # Safety
    /// Requires AVX2+FMA and `a.len() == b.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            i += 8;
        }
        let mut sum = hsum256(_mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
        while i < n {
            sum += *pa.add(i) * *pb.add(i);
            i += 1;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_row(len: usize, seed: u64) -> Vec<f32> {
        // Deterministic, allocation-light pseudo-random floats in [-1, 1).
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32 / (1u64 << 23) as f32) - 1.0
            })
            .collect()
    }

    /// Tolerance scaled like a ULP bound: reassociating a sum of `n` terms
    /// each of magnitude ≤ `m` perturbs it by at most `n · m · ε` up to a
    /// small constant; use 8ε slack per term.
    fn tol(n: usize, magnitude: f32) -> f32 {
        8.0 * f32::EPSILON * n as f32 * magnitude.max(1.0)
    }

    #[test]
    fn simd_matches_oracle_across_tails() {
        let simd = SimdKernel;
        for dim in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 127, 257] {
            let a = pseudo_row(dim, dim as u64);
            let b = pseudo_row(dim, dim as u64 + 1000);
            let (got, want) = (simd.sq_l2(&a, &b), scalar_sq_l2(&a, &b));
            assert!((got - want).abs() <= tol(dim, want), "sq_l2 dim {dim}: {got} vs {want}");
            let (got, want) = (simd.dot(&a, &b), scalar_dot(&a, &b));
            assert!((got - want).abs() <= tol(dim, want.abs()), "dot dim {dim}: {got} vs {want}");
        }
    }

    // One test covers both the plain and the nested guard so the global
    // KERNEL_MODE is only ever manipulated from a single test thread.
    // Readers race too: any other test in this binary that resolves the
    // global `kernel()` may see the mode flip mid-test, so the others call
    // the concrete `ScalarKernel` / `SimdKernel` instead.
    #[test]
    fn mode_guard_restores_and_nests_lifo() {
        assert_eq!(kernel_mode(), KernelMode::Auto);
        {
            let _g = KernelModeGuard::pin(KernelMode::ForceScalar);
            assert_eq!(kernel_mode(), KernelMode::ForceScalar);
            assert_eq!(kernel().name(), "scalar");
        }
        assert_eq!(kernel_mode(), KernelMode::Auto);
        // Nested pins: each level restores exactly the mode it observed,
        // so the stack unwinds Auto <- ForceScalar <- Auto <- ForceScalar.
        {
            let outer = KernelModeGuard::pin(KernelMode::ForceScalar);
            assert_eq!(outer.restores_to(), KernelMode::Auto);
            {
                let middle = KernelModeGuard::pin(KernelMode::Auto);
                assert_eq!(middle.restores_to(), KernelMode::ForceScalar);
                assert_eq!(kernel_mode(), KernelMode::Auto);
                {
                    let inner = KernelModeGuard::pin(KernelMode::ForceScalar);
                    assert_eq!(inner.restores_to(), KernelMode::Auto);
                    assert_eq!(kernel_mode(), KernelMode::ForceScalar);
                    // Re-pinning the mode already in force must still
                    // round-trip (prev == pinned is not a special case).
                    let same = KernelModeGuard::pin(KernelMode::ForceScalar);
                    assert_eq!(same.restores_to(), KernelMode::ForceScalar);
                    drop(same);
                    assert_eq!(kernel_mode(), KernelMode::ForceScalar);
                }
                assert_eq!(kernel_mode(), KernelMode::Auto, "inner pin must unwind one level");
            }
            assert_eq!(kernel_mode(), KernelMode::ForceScalar, "middle pin must unwind one level");
        }
        assert_eq!(kernel_mode(), KernelMode::Auto, "the full stack must unwind to Auto");
    }

    #[test]
    fn eval_dispatches_every_metric() {
        let simd = SimdKernel;
        let scalar = ScalarKernel;
        let a = pseudo_row(40, 7);
        let b = pseudo_row(40, 8);
        for metric in [Metric::SquaredL2, Metric::NegativeDot, Metric::Cosine] {
            let (got, want) = (simd.eval(metric, &a, &b), scalar.eval(metric, &a, &b));
            assert!((got - want).abs() <= 1e-5 * (1.0 + want.abs()), "{metric:?}: {got} vs {want}");
            // The trait default must agree with Metric::eval (the oracle).
            let reference = metric.eval(&a, &b);
            assert!((want - reference).abs() <= 1e-6 * (1.0 + reference.abs()));
        }
    }

    #[test]
    fn eval_many_matches_pointwise_eval() {
        let vs = VectorSet::from_rows(&[
            pseudo_row(33, 1),
            pseudo_row(33, 2),
            pseudo_row(33, 3),
            pseudo_row(33, 4),
        ])
        .unwrap();
        let q = pseudo_row(33, 9);
        let ids = [3u32, 0, 2];
        // Each concrete kernel against itself: going through the global
        // `kernel()` twice would race the mode flips of
        // `mode_guard_restores_and_nests_lifo` on another test thread.
        for kern in [&ScalarKernel as &dyn DistanceKernel, &SimdKernel] {
            let mut out = Vec::new();
            kern.eval_many(Metric::SquaredL2, &q, &vs, &ids, &mut out);
            assert_eq!(out.len(), 3);
            for (i, &id) in ids.iter().enumerate() {
                let want = kern.eval(Metric::SquaredL2, &q, vs.row(id as usize));
                assert_eq!(out[i], want, "{}", kern.name());
            }
        }
    }

    #[test]
    fn zero_length_slices_are_zero() {
        let simd = SimdKernel;
        assert_eq!(simd.sq_l2(&[], &[]), 0.0);
        assert_eq!(simd.dot(&[], &[]), 0.0);
    }
}
