//! Spatial substrate for BRACE.
//!
//! The paper's central abstraction is that a simulation tick is a *spatial
//! self-join*: each agent must see exactly the agents inside its visible
//! region. This crate supplies everything spatial that the engine and the
//! MapReduce runtime need:
//!
//! * [`index`] — the [`SpatialIndex`] abstraction with
//!   three implementations: a brute-force scan (the paper's "no indexing"
//!   baseline), a [`KdTree`] (the paper's prototype used a
//!   KD-tree, citing Bentley), and the default [`UniformGrid`], a dense
//!   counting-sort cell grid with a derived cell side whose probes stream
//!   one contiguous strip per grid row — kernel-native
//!   (`RANGE_BATCH_NATIVE`) and canonical (`RANGE_CANONICAL`), re-binned
//!   in O(n + cells) under motion.
//! * [`partition`] — the spatial partitioning function `P : L → P` of the
//!   paper's Appendix A: a rectilinear grid whose column boundaries can be
//!   moved by the load balancer, owned regions, partition visible regions
//!   and replica-target enumeration.
//! * [`join`] — reference spatial self-join implementations used to
//!   cross-validate the indexes and as the formal ground truth in tests.
//! * [`kernels`] — fixed-width lane kernels (range filter, squared
//!   distances) behind the indexes' batched probe paths
//!   (`SpatialIndex::range_batch`), proven bit-identical to the scalar
//!   loops by the kernel conformance suite in `tests/properties.rs`.

pub mod grid;
pub mod index;
pub mod join;
pub mod kdtree;
pub mod kernels;
pub mod partition;

pub use grid::UniformGrid;
pub use index::{IndexKind, ScanIndex, SpatialIndex};
pub use kdtree::KdTree;
pub use partition::{GridPartitioning, Partitioner};
