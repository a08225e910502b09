//! Lloyd's k-means — the shared clustering substrate.
//!
//! Lives in the data crate so both consumers sit above it in the dependency
//! graph: the IVF-Flat baseline's coarse quantizer
//! (`wknng_baseline::kmeans` re-exports this module verbatim) and the
//! product-quantization codebook training in [`crate::pq`], which runs one
//! k-means per subspace.
//!
//! Each Lloyd iteration lays its centroids out dimension-major once, so a
//! point's assignment is one [`sq_l2_block`] call across every centroid and
//! a strict-`<` argmin (ties keep the lowest index). The block kernel is
//! bit-identical to one [`crate::sq_l2`] per centroid, so the clustering
//! does not depend on the CPU.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::dist::{sq_l2, sq_l2_block};
use crate::vecs::VectorSet;

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct Kmeans {
    /// Row-major `nlist × dim` centroids.
    pub centroids: Vec<f32>,
    /// Dimensionality.
    pub dim: usize,
    /// Number of centroids.
    pub nlist: usize,
    /// Cluster assignment of every training point.
    pub assignment: Vec<u32>,
    /// Iterations actually executed.
    pub iterations: usize,
}

impl Kmeans {
    /// Centroid `c` as a slice.
    pub fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }

    /// Index of the centroid nearest to `row`.
    pub fn nearest(&self, row: &[f32]) -> usize {
        let mut best = (f32::INFINITY, 0usize);
        for c in 0..self.nlist {
            let d = sq_l2(row, self.centroid(c));
            if d < best.0 {
                best = (d, c);
            }
        }
        best.1
    }
}

/// Train `nlist` centroids with Lloyd iterations (k-means++-style seeding
/// simplified to distinct random picks, which FAISS also defaults to for
/// coarse quantizers). Deterministic in `seed`.
pub fn train_kmeans(vs: &VectorSet, nlist: usize, max_iters: usize, seed: u64) -> Kmeans {
    let n = vs.len();
    let dim = vs.dim();
    let nlist = nlist.clamp(1, n.max(1));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5851_F42D_4C95_7F2D);

    // Distinct random initial centers.
    let mut picks: Vec<usize> = Vec::with_capacity(nlist);
    while picks.len() < nlist {
        let c = rng.gen_range(0..n);
        if !picks.contains(&c) {
            picks.push(c);
        }
    }
    let mut centroids: Vec<f32> = picks.iter().flat_map(|&p| vs.row(p).iter().copied()).collect();
    let mut assignment = vec![0u32; n];
    let mut iterations = 0;

    for _ in 0..max_iters {
        iterations += 1;
        // Assign: one block call per point over the transposed centroids,
        // into a distance buffer each worker reuses.
        let table: Vec<f32> =
            (0..dim).flat_map(|j| centroids.iter().skip(j).step_by(dim).copied()).collect();
        let next: Vec<u32> = (0..n)
            .into_par_iter()
            .map_init(
                || vec![0.0f32; nlist],
                |dists, p| {
                    sq_l2_block(vs.row(p), &table, nlist, dists);
                    let mut best = (f32::INFINITY, 0u32);
                    for (c, &d) in dists.iter().enumerate() {
                        if d < best.0 {
                            best = (d, c as u32);
                        }
                    }
                    best.1
                },
            )
            .collect();
        let changed = next.iter().zip(&assignment).filter(|(a, b)| a != b).count();
        assignment = next;

        // Update.
        let mut sums = vec![0.0f64; nlist * dim];
        let mut counts = vec![0usize; nlist];
        for (p, &c) in assignment.iter().enumerate() {
            counts[c as usize] += 1;
            let row = vs.row(p);
            for (j, &v) in row.iter().enumerate() {
                sums[c as usize * dim + j] += v as f64;
            }
        }
        for c in 0..nlist {
            if counts[c] == 0 {
                // Re-seed an empty cluster with a random point (standard fix).
                let p = rng.gen_range(0..n);
                centroids[c * dim..(c + 1) * dim].copy_from_slice(vs.row(p));
            } else {
                for j in 0..dim {
                    centroids[c * dim + j] = (sums[c * dim + j] / counts[c] as f64) as f32;
                }
            }
        }
        if changed == 0 {
            break;
        }
    }

    Kmeans { centroids, dim, nlist, assignment, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::DatasetSpec;

    #[test]
    fn separable_blobs_are_recovered() {
        // Two blobs far apart: k-means with k=2 must split them.
        let mut rows = Vec::new();
        for i in 0..40 {
            let off = if i < 20 { 0.0 } else { 50.0 };
            rows.push(vec![off + (i % 20) as f32 * 0.01, off]);
        }
        let vs = VectorSet::from_rows(&rows).unwrap();
        let km = train_kmeans(&vs, 2, 20, 7);
        let a = km.assignment[0];
        assert!(km.assignment[..20].iter().all(|&c| c == a));
        assert!(km.assignment[20..].iter().all(|&c| c != a));
    }

    #[test]
    fn deterministic_and_bounded() {
        let vs = DatasetSpec::UniformCube { n: 60, dim: 5 }.generate(2).vectors;
        let a = train_kmeans(&vs, 8, 10, 3);
        let b = train_kmeans(&vs, 8, 10, 3);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignment, b.assignment);
        assert!(a.iterations <= 10);
        assert_eq!(a.nlist, 8);
    }

    #[test]
    fn nlist_clamped_to_n() {
        let vs = DatasetSpec::UniformCube { n: 5, dim: 2 }.generate(1).vectors;
        let km = train_kmeans(&vs, 100, 5, 0);
        assert_eq!(km.nlist, 5);
    }

    #[test]
    fn nearest_agrees_with_assignment_post_convergence() {
        let vs = DatasetSpec::GaussianClusters { n: 90, dim: 4, clusters: 3, spread: 0.05 }
            .generate(4)
            .vectors;
        let km = train_kmeans(&vs, 3, 50, 5);
        for p in 0..vs.len() {
            assert_eq!(km.nearest(vs.row(p)) as u32, km.assignment[p]);
        }
    }
}
