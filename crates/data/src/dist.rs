//! Distance kernels.
//!
//! w-KNNG (like FAISS) works with **squared Euclidean distance**: monotone in
//! L2, cheaper (no square root), and exactly what the GPU kernels accumulate.
//! Inner-product and cosine variants are provided for the similarity-search
//! example.

/// Distance/similarity metric selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Squared Euclidean distance (the paper's metric).
    #[default]
    SquaredL2,
    /// Negative inner product (so that smaller = closer, like a distance).
    NegativeDot,
    /// Cosine distance, `1 − cos(a, b)`.
    Cosine,
}

impl Metric {
    /// Evaluate the metric between two equal-length slices.
    #[inline]
    pub fn eval(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::SquaredL2 => sq_l2(a, b),
            Metric::NegativeDot => -dot(a, b),
            Metric::Cosine => cosine_distance(a, b),
        }
    }
}

/// Squared Euclidean distance between two equal-length slices.
///
/// Accumulates in chunks of 8 so LLVM vectorises the loop.
#[inline]
pub fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
    // A checked fault: with mismatched lengths the tail loop would index `b`
    // out of bounds or silently drop coordinates depending on which slice is
    // shorter, turning a caller bug into a wrong distance.
    assert_eq!(a.len(), b.len(), "sq_l2 over slices of different lengths");
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let (pa, pb) = (&a[c * 8..c * 8 + 8], &b[c * 8..c * 8 + 8]);
        for i in 0..8 {
            let d = pa[i] - pb[i];
            acc[i] += d * d;
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for i in chunks * 8..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Centroids per tile of [`sq_l2_block`]: eight partial sums of 64 lanes
/// are 2 KiB of stack.
const BLOCK_TILE: usize = 64;

/// Squared L2 distance from `q` to every point of a dimension-major table:
/// coordinate `j` of point `c` is `t[j * ks + c]`, and `out[c]` receives
/// the distance to point `c`.
///
/// The lanes of a tile are points side by side, each reading the column of
/// one coordinate while `q[j]` is broadcast to all of them — the layout
/// that lets PQ tables, PQ encoding and k-means assignment vectorize across
/// centroids. Each lane accumulates in exactly the order [`sq_l2`] does:
/// below 16 dimensions one running sum, from 16 up the eight strided
/// partial sums folded in order and then the tail. So `out[c]` equals
/// `sq_l2(q, point c)` bit for bit, on every path: the AVX2 build of the
/// same loops uses no FMA and reassociates nothing.
pub fn sq_l2_block(q: &[f32], t: &[f32], ks: usize, out: &mut [f32]) {
    assert_eq!(t.len(), q.len() * ks, "sq_l2_block table is not dim x ks");
    assert_eq!(out.len(), ks, "sq_l2_block output is not ks long");
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    if crate::simd::x86::avx2_available() {
        // SAFETY: AVX2 presence was runtime-checked above.
        return unsafe { sq_l2_block_avx2(q, t, ks, out) };
    }
    sq_l2_block_tiles(q, t, ks, out);
}

/// [`sq_l2_block`] compiled for AVX2: wider lanes, the same operations.
///
/// # Safety
/// Requires AVX2.
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
#[target_feature(enable = "avx2")]
unsafe fn sq_l2_block_avx2(q: &[f32], t: &[f32], ks: usize, out: &mut [f32]) {
    sq_l2_block_tiles(q, t, ks, out);
}

/// Full tiles get their own call so their width is a constant and the lane
/// loops unroll; a partial last tile takes the general width.
#[inline(always)]
fn sq_l2_block_tiles(q: &[f32], t: &[f32], ks: usize, out: &mut [f32]) {
    let full = ks - ks % BLOCK_TILE;
    for c0 in (0..full).step_by(BLOCK_TILE) {
        sq_l2_tile(q, t, ks, c0, &mut out[c0..c0 + BLOCK_TILE]);
    }
    if full < ks {
        sq_l2_tile(q, t, ks, full, &mut out[full..]);
    }
}

/// One tile of [`sq_l2_block`]: the points `c0..c0 + out.len()`.
#[inline(always)]
fn sq_l2_tile(q: &[f32], t: &[f32], ks: usize, c0: usize, out: &mut [f32]) {
    let w = out.len();
    let col = |j: usize| &t[j * ks + c0..j * ks + c0 + w];
    out.fill(0.0);
    let tail = if q.len() < 16 {
        0
    } else {
        let chunks = q.len() / 8;
        let mut acc = [[0.0f32; BLOCK_TILE]; 8];
        for (i, acc) in acc.iter_mut().enumerate() {
            for c in 0..chunks {
                let j = c * 8 + i;
                for (a, &x) in acc[..w].iter_mut().zip(col(j)) {
                    let d = q[j] - x;
                    *a += d * d;
                }
            }
        }
        for acc in &acc {
            for (o, &a) in out.iter_mut().zip(&acc[..w]) {
                *o += a;
            }
        }
        chunks * 8
    };
    for (j, &qj) in q.iter().enumerate().skip(tail) {
        for (o, &x) in out.iter_mut().zip(col(j)) {
            let d = qj - x;
            *o += d * d;
        }
    }
}

/// Inner product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot over slices of different lengths");
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let (pa, pb) = (&a[c * 8..c * 8 + 8], &b[c * 8..c * 8 + 8]);
        for i in 0..8 {
            acc[i] += pa[i] * pb[i];
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for i in chunks * 8..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine distance `1 − cos(a, b)`; zero vectors are treated as orthogonal to
/// everything (distance 1).
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_l2_basics() {
        assert_eq!(sq_l2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_l2(&[1.0; 17], &[1.0; 17]), 0.0);
        // Length 17 exercises the remainder path.
        let a: Vec<f32> = (0..17).map(|i| i as f32).collect();
        let b = vec![0.0f32; 17];
        let want: f32 = (0..17).map(|i| (i * i) as f32).sum();
        assert_eq!(sq_l2(&a, &b), want);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        let a: Vec<f32> = (1..=16).map(|i| i as f32).collect();
        assert_eq!(dot(&a, &a), (1..=16).map(|i| i * i).sum::<i32>() as f32);
    }

    #[test]
    fn cosine_identities() {
        assert!((cosine_distance(&[1.0, 0.0], &[2.0, 0.0])).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 5.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn metric_eval_dispatch() {
        let (a, b) = ([1.0, 1.0], [2.0, 3.0]);
        assert_eq!(Metric::SquaredL2.eval(&a, &b), 5.0);
        assert_eq!(Metric::NegativeDot.eval(&a, &b), -5.0);
        assert!(Metric::Cosine.eval(&a, &a).abs() < 1e-6);
        assert_eq!(Metric::default(), Metric::SquaredL2);
    }
}
