//! Product quantization (PQ) with asymmetric-distance (ADC) lookup tables.
//!
//! SQ8 ([`crate::quant`]) rounds every coordinate to one byte — 4× smaller,
//! but the footprint still grows with `dim`. PQ goes much further: the
//! vector is split into `m` subspaces, each subspace is k-means-clustered
//! into ≤256 centroids (reusing [`crate::kmeans`]), and a point is stored
//! as the `m` centroid ids of its subvectors — **`m` bytes per point**,
//! independent of `dim`. A 128-dim point at `m = 8` shrinks 512 → 8 bytes:
//! the layout that makes millions of vectors per shard a memory-footprint
//! non-event, and the playbook of "Large-Scale Approximate k-NN Graph
//! Construction on GPU" (PAPERS.md).
//!
//! Distances come from the **ADC** (asymmetric distance computation) side:
//! a full-precision query is compared against quantized points by first
//! tabulating, per subspace, its squared distance to all centroids — an
//! [`AdcTable`] of `m × ks` floats — after which each point's distance is
//! `m` table lookups and adds, no coordinate arithmetic at all. By
//! construction the ADC distance **equals** the exact squared L2 distance
//! between the query and the *decoded* point (up to float reassociation):
//! the differential tests pin exactly that identity, plus the triangle
//! bound `|‖q−x‖ − ‖q−x̂‖| ≤ ‖x−x̂‖` against the unquantized point.
//!
//! The centroids are stored once, **dimension-major** (coordinate `d` of
//! every centroid side by side), the layout a GPU kernel would give its
//! lanes. Tabulating one subspace of a query, and encoding one subvector,
//! is then a single [`sq_l2_block`] call across all `ks` centroids, with
//! the subvector broadcast to every lane. That kernel is bit-identical to
//! one [`crate::sq_l2`] per centroid, so tables and codes do not depend on
//! the CPU.
//!
//! Odd dimensionalities need no padding: when `m ∤ dim` the first
//! `dim mod m` subspaces are one dimension wider, so every coordinate
//! belongs to exactly one subspace and tails cannot drift.

use crate::dist::sq_l2_block;
use crate::error::DataError;
use crate::kmeans::train_kmeans;
use crate::vecs::VectorSet;

/// Training-time parameters of a PQ codebook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PqParams {
    /// Subquantizers (bytes per encoded point). Clamped to `dim` at
    /// training time — a subspace cannot be narrower than one dimension.
    pub m: usize,
    /// Lloyd iterations per subspace codebook.
    pub train_iters: usize,
    /// Most training points used per subspace k-means (a deterministic
    /// stride-sample of the set); `0` trains on everything.
    pub train_sample: usize,
    /// Seed for the per-subspace k-means runs.
    pub seed: u64,
}

impl Default for PqParams {
    fn default() -> Self {
        PqParams { m: 8, train_iters: 12, train_sample: 4096, seed: 0x9A11 }
    }
}

/// Centroids per subspace at 8-bit codes (fewer when the training set is
/// smaller).
pub const PQ_KS: usize = 256;

/// A trained PQ codebook: per-subspace centroid tables.
#[derive(Debug, Clone, PartialEq)]
pub struct PqCodebook {
    dim: usize,
    m: usize,
    ks: usize,
    /// Subspace boundaries: subspace `s` covers dims `starts[s]..starts[s+1]`.
    starts: Vec<usize>,
    /// Flat centroid storage, dimension-major: coordinate `d` of centroid
    /// `j` of the subspace covering `d` lives at `d · ks + j`, so each
    /// subspace's rows `starts[s]..starts[s+1]` are the table
    /// [`sq_l2_block`] reads.
    centroids: Vec<f32>,
}

impl PqCodebook {
    /// Train a codebook on `vs`. Deterministic in `params.seed`.
    pub fn train(vs: &VectorSet, params: &PqParams) -> Result<PqCodebook, DataError> {
        let dim = vs.dim();
        if dim == 0 {
            return Err(DataError::ZeroDimension);
        }
        if vs.is_empty() {
            return Err(DataError::EmptyTrainingSet);
        }
        let m = params.m.clamp(1, dim);

        // Deterministic stride sample of the training points.
        let train: VectorSet = if params.train_sample != 0 && vs.len() > params.train_sample {
            let step = vs.len().div_ceil(params.train_sample);
            let ids: Vec<usize> = (0..vs.len()).step_by(step).collect();
            vs.gather(&ids)
        } else {
            vs.clone()
        };
        let ks = PQ_KS.min(train.len());

        // First `dim mod m` subspaces get the extra dimension.
        let (base, extra) = (dim / m, dim % m);
        let mut starts = Vec::with_capacity(m + 1);
        let mut at = 0usize;
        starts.push(0);
        for s in 0..m {
            at += base + usize::from(s < extra);
            starts.push(at);
        }

        let mut centroids = Vec::with_capacity(dim * ks);
        for s in 0..m {
            let width = starts[s + 1] - starts[s];
            let sub: Vec<f32> = train
                .rows()
                .flat_map(|row| row[starts[s]..starts[s + 1]].iter().copied())
                .collect();
            let sub = VectorSet::new(sub, width).expect("subspace rows stay finite");
            let km = train_kmeans(&sub, ks, params.train_iters, params.seed ^ (s as u64) << 32);
            debug_assert_eq!(km.nlist, ks);
            for d in 0..width {
                centroids.extend(km.centroids.iter().skip(d).step_by(width));
            }
        }
        Ok(PqCodebook { dim, m, ks, starts, centroids })
    }

    /// Dimensionality of the vectors this codebook encodes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Subquantizers (= bytes per encoded point).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Centroids per subspace.
    pub fn ks(&self) -> usize {
        self.ks
    }

    /// Bytes held by the centroid tables (amortized across all points).
    pub fn table_bytes(&self) -> usize {
        self.centroids.len() * std::mem::size_of::<f32>()
    }

    /// Subspace `s`'s slice of `row`, and its dimension-major centroid
    /// table.
    fn subspace<'a>(&'a self, row: &'a [f32], s: usize) -> (&'a [f32], &'a [f32]) {
        let (lo, hi) = (self.starts[s], self.starts[s + 1]);
        (&row[lo..hi], &self.centroids[lo * self.ks..hi * self.ks])
    }

    /// Encode a whole set into packed codes: per point and subspace, one
    /// block distance to every centroid and an argmin (ties keep the lowest
    /// id).
    pub fn encode(&self, vs: &VectorSet) -> Result<PqCodes, DataError> {
        if vs.dim() != self.dim {
            return Err(DataError::DimMismatch { got: vs.dim(), want: self.dim });
        }
        let mut codes = vec![0u8; vs.len() * self.m];
        let mut dists = [0.0f32; PQ_KS];
        let dists = &mut dists[..self.ks];
        for (row, code) in vs.rows().zip(codes.chunks_exact_mut(self.m)) {
            for (s, byte) in code.iter_mut().enumerate() {
                let (sub, table) = self.subspace(row, s);
                sq_l2_block(sub, table, self.ks, dists);
                let mut best = (f32::INFINITY, 0usize);
                for (j, &d) in dists.iter().enumerate() {
                    if d < best.0 {
                        best = (d, j);
                    }
                }
                *byte = best.1 as u8;
            }
        }
        Ok(PqCodes { codes, n: vs.len(), m: self.m })
    }

    /// Decode one code row back to the centroid concatenation `x̂`.
    pub fn decode_row(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.m, "decode_row over the wrong code width");
        let mut out = Vec::with_capacity(self.dim);
        for (s, &c) in code.iter().enumerate() {
            let dims = self.starts[s]..self.starts[s + 1];
            out.extend(dims.map(|d| self.centroids[d * self.ks + c as usize]));
        }
        out
    }

    /// Decode a whole code set (the test oracle for the ADC identity).
    pub fn decode(&self, codes: &PqCodes) -> VectorSet {
        let mut flat = Vec::with_capacity(codes.len() * self.dim);
        for i in 0..codes.len() {
            flat.extend_from_slice(&self.decode_row(codes.row(i)));
        }
        VectorSet::new(flat, self.dim).expect("centroids are finite")
    }

    /// Build the per-query ADC lookup table (`m × ks` squared distances),
    /// one block distance call per subspace.
    pub fn adc_table(&self, query: &[f32]) -> AdcTable {
        assert_eq!(query.len(), self.dim, "adc_table over the wrong dimensionality");
        let mut lut = vec![0.0f32; self.m * self.ks];
        for (s, out) in lut.chunks_exact_mut(self.ks).enumerate() {
            let (sub, table) = self.subspace(query, s);
            sq_l2_block(sub, table, self.ks, out);
        }
        AdcTable { m: self.m, ks: self.ks, lut }
    }
}

/// Packed PQ codes: `m` bytes per point, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PqCodes {
    codes: Vec<u8>,
    n: usize,
    m: usize,
}

impl PqCodes {
    /// Number of encoded points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no points are encoded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Code row of point `i`.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.codes[i * self.m..(i + 1) * self.m]
    }

    /// Bytes per encoded point — the figure that sizes a shard.
    pub fn bytes_per_point(&self) -> usize {
        self.m
    }

    /// Total bytes held by the codes.
    pub fn code_bytes(&self) -> usize {
        self.codes.len()
    }
}

/// A per-query ADC lookup table: squared distance from the query's
/// subvectors to every centroid of every subspace. Built once per query
/// ([`PqCodebook::adc_table`]), then each candidate costs `m` lookups.
#[derive(Debug, Clone, PartialEq)]
pub struct AdcTable {
    m: usize,
    ks: usize,
    lut: Vec<f32>,
}

impl AdcTable {
    /// ADC squared distance from the tabulated query to one code row.
    #[inline]
    pub fn distance(&self, code: &[u8]) -> f32 {
        debug_assert_eq!(code.len(), self.m);
        // 4-way unrolled gather-accumulate: the whole table is small enough
        // to sit in L1/L2, so the adds are the only latency chain worth
        // breaking up.
        let mut acc = [0.0f32; 4];
        let chunks = self.m / 4;
        for c in 0..chunks {
            for (u, a) in acc.iter_mut().enumerate() {
                let s = c * 4 + u;
                *a += self.lut[s * self.ks + code[s] as usize];
            }
        }
        let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
        for (s, &b) in code.iter().enumerate().take(self.m).skip(chunks * 4) {
            sum += self.lut[s * self.ks + b as usize];
        }
        sum
    }

    /// ADC distance of every row in `codes`, appended into `out` (cleared
    /// first) — the blocked form the builder's bucket pass uses.
    pub fn distances(&self, codes: &PqCodes, ids: &[u32], out: &mut Vec<f32>) {
        out.clear();
        out.extend(ids.iter().map(|&i| self.distance(codes.row(i as usize))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sq_l2;
    use crate::synth::DatasetSpec;

    fn trained(n: usize, dim: usize, m: usize) -> (VectorSet, PqCodebook, PqCodes) {
        let vs = DatasetSpec::GaussianClusters { n, dim, clusters: 5, spread: 0.4 }
            .generate(dim as u64 + m as u64)
            .vectors;
        let params = PqParams { m, train_iters: 6, ..PqParams::default() };
        let cb = PqCodebook::train(&vs, &params).unwrap();
        let codes = cb.encode(&vs).unwrap();
        (vs, cb, codes)
    }

    #[test]
    fn adc_equals_decode_then_l2() {
        // The core ADC identity: table-summed distance == sq_l2 against the
        // decoded point, up to reassociation.
        for (dim, m) in [(16usize, 4usize), (13, 4), (7, 3), (32, 8)] {
            let (vs, cb, codes) = trained(80, dim, m);
            let dec = cb.decode(&codes);
            let q = vs.row(0).to_vec();
            let t = cb.adc_table(&q);
            for i in 0..vs.len() {
                let adc = t.distance(codes.row(i));
                let exact = sq_l2(&q, dec.row(i));
                assert!(
                    (adc - exact).abs() <= 1e-4 * (1.0 + exact),
                    "dim {dim} m {m} point {i}: adc {adc} vs decoded {exact}"
                );
            }
        }
    }

    #[test]
    fn uneven_subspaces_cover_every_dimension() {
        // dim = 13, m = 4 -> widths 4,3,3,3; decode must reproduce within
        // quantization error and never mix coordinates across subspaces.
        let (vs, cb, codes) = trained(120, 13, 4);
        let dec = cb.decode(&codes);
        assert_eq!(dec.dim(), 13);
        // Encoding the decoded points is a fixpoint: x̂ is its own nearest
        // centroid tuple.
        let recodes = cb.encode(&dec).unwrap();
        for i in 0..vs.len() {
            assert_eq!(codes.row(i), recodes.row(i), "decode/encode not a fixpoint at {i}");
        }
    }

    #[test]
    fn footprint_is_m_bytes_per_point() {
        let (vs, cb, codes) = trained(50, 32, 8);
        assert_eq!(codes.bytes_per_point(), 8);
        assert_eq!(codes.code_bytes(), 50 * 8);
        assert!(cb.table_bytes() > 0);
        assert_eq!(vs.as_flat().len() * 4, 50 * 32 * 4); // f32 baseline 16x larger
    }

    #[test]
    fn tiny_training_sets_shrink_ks() {
        let vs = DatasetSpec::UniformCube { n: 10, dim: 6 }.generate(3).vectors;
        let cb = PqCodebook::train(&vs, &PqParams { m: 2, ..PqParams::default() }).unwrap();
        assert_eq!(cb.ks(), 10);
        let codes = cb.encode(&vs).unwrap();
        assert!(codes.row(4).iter().all(|&c| (c as usize) < cb.ks()));
    }

    #[test]
    fn m_larger_than_dim_clamps() {
        let vs = DatasetSpec::UniformCube { n: 40, dim: 3 }.generate(5).vectors;
        let cb = PqCodebook::train(&vs, &PqParams { m: 16, ..PqParams::default() }).unwrap();
        assert_eq!(cb.m(), 3);
        let codes = cb.encode(&vs).unwrap();
        assert_eq!(codes.bytes_per_point(), 3);
    }

    #[test]
    fn typed_errors_on_bad_inputs() {
        let empty = VectorSet::new(vec![], 4).unwrap();
        assert_eq!(
            PqCodebook::train(&empty, &PqParams::default()),
            Err(DataError::EmptyTrainingSet)
        );
        let vs = DatasetSpec::UniformCube { n: 20, dim: 4 }.generate(1).vectors;
        let cb = PqCodebook::train(&vs, &PqParams::default()).unwrap();
        let other = DatasetSpec::UniformCube { n: 5, dim: 7 }.generate(1).vectors;
        assert_eq!(cb.encode(&other), Err(DataError::DimMismatch { got: 7, want: 4 }));
    }

    #[test]
    fn training_is_deterministic() {
        let vs = DatasetSpec::GaussianClusters { n: 100, dim: 12, clusters: 4, spread: 0.3 }
            .generate(9)
            .vectors;
        let p = PqParams { m: 4, train_iters: 5, ..PqParams::default() };
        let a = PqCodebook::train(&vs, &p).unwrap();
        let b = PqCodebook::train(&vs, &p).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.encode(&vs).unwrap(), b.encode(&vs).unwrap());
    }
}
