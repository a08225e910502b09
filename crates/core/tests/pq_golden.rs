//! Golden equivalence test for the PQ build and the k-means it trains on.
//!
//! Hashes the lists of one PQ build per subquantizer count (neighbor indices
//! and distance bits), the codes and ADC distances of one codebook per
//! count, and one d=128 k-means run (centroid bits and the assignment). At d=128, `m` = 16, 8 and 5 give subspaces 8, 16 and 26/25
//! dimensions wide, so the short-sum, strided and strided-with-tail forms of
//! the centroid distance all feed a hash. Codebook training, encoding, the
//! ADC tables of both passes and the exact rescore all sit upstream of the
//! lists, so any change to their output — not just to recall — moves them.
//!
//! The scalar kernel is pinned so the rescored distances do not depend on
//! whether the host CPU has AVX2. This test lives in its own binary because
//! the pin is process-global.

use wknng_core::{QuantMode, WknngBuilder};
use wknng_data::{
    train_kmeans, DatasetSpec, KernelMode, KernelModeGuard, Neighbor, PqCodebook, PqParams,
};

/// FNV-1a over little-endian 4-byte words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, word: u32) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// Hash every list's `(index, dist bits)` pairs, with a list separator so
/// that moving an entry between lists changes the hash.
fn hash_lists(lists: &[Vec<Neighbor>]) -> u64 {
    let mut h = Fnv::new();
    for list in lists {
        for nb in list {
            h.eat(nb.index);
            h.eat(nb.dist.to_bits());
        }
        h.eat(u32::MAX);
    }
    h.0
}

#[test]
fn pq_builds_and_kmeans_match_golden_hashes() {
    let _pin = KernelModeGuard::pin(KernelMode::ForceScalar);
    let vs =
        DatasetSpec::Manifold { n: 600, ambient_dim: 128, intrinsic_dim: 8 }.generate(77).vectors;

    for (m, golden) in [(16usize, GOLDEN_PQ16), (8, GOLDEN_PQ8), (5, GOLDEN_PQ5)] {
        let (graph, _) = WknngBuilder::new(10)
            .trees(4)
            .leaf_size(32)
            .exploration(1)
            .quant(QuantMode::Pq { m })
            .seed(5)
            .build_native(&vs)
            .unwrap();
        assert_eq!(hash_lists(&graph.lists), golden, "PQ m={m} build output moved");
    }

    // The lists only move when a last-bit change in a table entry flips a
    // decision; the codes and the ADC distances themselves carry every bit.
    let mut h = Fnv::new();
    let ids: Vec<u32> = (0..vs.len() as u32).collect();
    let mut dists = Vec::new();
    for m in [16usize, 8, 5] {
        let cb = PqCodebook::train(&vs, &PqParams { m, ..PqParams::default() }).unwrap();
        let codes = cb.encode(&vs).unwrap();
        for i in 0..codes.len() {
            codes.row(i).iter().for_each(|&c| h.eat(c.into()));
        }
        for q in (0..vs.len()).step_by(50) {
            cb.adc_table(vs.row(q)).distances(&codes, &ids, &mut dists);
            dists.iter().for_each(|d| h.eat(d.to_bits()));
        }
    }
    assert_eq!(h.0, GOLDEN_CODES_ADC, "PQ codes or ADC distances moved");

    let km = train_kmeans(&vs, 24, 10, 31);
    let mut h = Fnv::new();
    for &c in &km.centroids {
        h.eat(c.to_bits());
    }
    for &a in &km.assignment {
        h.eat(a);
    }
    h.eat(km.iterations as u32);
    assert_eq!(h.0, GOLDEN_KMEANS, "k-means centroids or assignment moved");
}

/// Recorded with the row-major centroids and one `sq_l2` call per
/// (subvector, centroid) pair; the dimension-major block kernel must
/// reproduce them exactly.
const GOLDEN_PQ16: u64 = 0xE84E_FD16_5D3C_254B;
const GOLDEN_PQ8: u64 = 0x88B5_28D9_C239_E197;
const GOLDEN_PQ5: u64 = 0xFC21_80FB_8119_C803;
const GOLDEN_KMEANS: u64 = 0x0B79_FB9E_295A_A76E;
const GOLDEN_CODES_ADC: u64 = 0x53E6_93C9_4A84_791A;
