//! # wknng-data — point sets, generators, distances and ground truth
//!
//! Data substrate for the w-KNNG reproduction:
//!
//! * [`VectorSet`] — dense row-major `n × d` point sets with validation;
//! * [`DatasetSpec`] — seeded synthetic generators standing in for the
//!   paper's real datasets (see `DESIGN.md` for the substitution argument);
//! * [`Metric`] and the distance kernels ([`sq_l2`], [`dot`],
//!   [`cosine_distance`]);
//! * [`Neighbor`] — the shared K-NNG edge record with its packed `u64`
//!   representation used by the GPU kernels;
//! * [`exact_knn`] — the brute-force oracle that recall is measured against;
//! * binary persistence ([`io`]) for caching ground truth between runs;
//! * durability primitives ([`wal`]) — the mutation write-ahead log and
//!   checkpoint manifest behind crash-consistent serving — and the
//!   deterministic crash-point injection harness ([`crash`]) that proves
//!   them.
//!
//! ```
//! use wknng_data::{exact_knn, DatasetSpec, Metric};
//!
//! let ds = DatasetSpec::sift_like(200).generate(42);
//! let truth = exact_knn(&ds.vectors, 10, Metric::SquaredL2);
//! assert_eq!(truth.len(), 200);
//! assert_eq!(truth[0].len(), 10);
//! ```

pub mod crash;
pub mod dist;
pub mod error;
pub mod groundtruth;
pub mod io;
pub mod kmeans;
pub mod neighbor;
pub mod pq;
pub mod quant;
pub mod simd;
pub mod stats;
pub mod synth;
pub mod texmex;
pub mod vecs;
pub mod wal;

pub use crash::{AppendCrash, CrashPlan, CrashScope};
pub use dist::{cosine_distance, dot, norm, sq_l2, sq_l2_block, Metric};
pub use error::DataError;
pub use groundtruth::exact_knn;
pub use kmeans::{train_kmeans, Kmeans};
pub use neighbor::{sort_neighbors, Neighbor};
pub use pq::{AdcTable, PqCodebook, PqCodes, PqParams};
pub use quant::QuantizedSet;
pub use simd::{
    kernel, kernel_mode, set_kernel_mode, DistanceKernel, KernelMode, KernelModeGuard,
    ScalarKernel, SimdKernel,
};
pub use stats::{intrinsic_dim_mle, mean_nn_distance};
pub use synth::{normal, Dataset, DatasetSpec};
pub use vecs::VectorSet;
pub use wal::{
    read_wal, CheckpointManifest, FsyncPolicy, WalOp, WalRecord, WalScan, WalWriter,
    WAL_FRAME_OVERHEAD, WAL_HEADER_LEN,
};
