//! # sd-core
//!
//! The paper's primary contribution and all of its comparison baselines:
//! sphere-decoding MIMO signal detection with a GEMM-based partial-distance
//! evaluation and leaf-biased tree traversal.
//!
//! ## Decoders
//!
//! * [`SphereDecoder`] — **the paper's algorithm**: QR preprocessing
//!   (Eq. 4), sorted-children depth-first traversal with LIFO popping
//!   (Fig. 3, the Geosphere-style Best-First-per-level strategy), runtime
//!   sphere-radius updates at leaves, and GEMM-batched child evaluation
//!   (the compute-bound refactoring of \[1\]). Exact ML accuracy.
//! * [`BestFirstSd`] — globally best-first (priority queue) variant.
//! * [`BfsGemmSd`] — the level-synchronous breadth-first GEMM decoder of
//!   reference \[1\], the paper's GPU baseline.
//! * [`MlDetector`] — exhaustive maximum likelihood (ground truth).
//! * [`FixedComplexitySd`] — FSD baseline from the related work.
//! * [`ZfDetector`] / [`MmseDetector`] / [`MrcDetector`] — the linear
//!   baselines of Fig. 12.
//!
//! ## Engine trait
//!
//! Every decoder implements [`PreparedDetector`] ([`engine`]): one
//! scratch-reusing, budget-taking decode entry point
//! (`detect_prepared_budgeted_into`) plus small
//! policy hooks, from which the allocating conveniences and the
//! [`Detector`] / [`WorkspaceDetector`] bridges are derived. Higher
//! layers (the serve tier registry, batch drivers, benches) treat the
//! whole zoo interchangeably through it.
//!
//! ## Parallel layer
//!
//! * [`batch`] — rayon frame-level parallel decoding,
//! * [`parallel`] — the paper's future-work direction: the top tree
//!   levels are partitioned into sub-trees fanned over a persistent
//!   worker pool that shares the shrinking sphere radius through a
//!   lock-free atomic fetch-min, preserving exactness.
//!
//! All tree decoders are generic over the scalar precision
//! ([`sd_math::Float`]), enabling the paper's FP16 future-work study via
//! [`sd_math::F16`].

#![warn(missing_docs)]
#![warn(clippy::all)]
// `!(a < b)` is used deliberately as the NaN-robust form of `a >= b` in
// the pruning hot paths.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod analysis;
pub mod arena;
pub mod batch;
pub mod best_first;
pub mod bfs;
pub mod block;
pub mod detector;
pub mod dfs;
pub mod engine;
pub mod fsd;
pub mod kbest;
pub mod linear;
pub mod ml;
pub mod parallel;
pub mod pd;
pub mod preprocess;
pub mod quantized;
pub mod radius;
pub mod reference;
pub mod rvd;
pub(crate) mod select;
pub mod soft;
pub mod stat_pruning;
pub mod trace;

pub use analysis::{profile_detector, ComplexityProfile, ComplexitySample};
pub use arena::{NodeArena, SearchWorkspace};
pub use batch::{batch_stats, decode_batch, decode_batch_reused, WorkspaceDetector};
pub use best_first::BestFirstSd;
pub use bfs::{BfsGemmSd, BfsLevelTrace};
pub use block::{decode_block_budgeted_into, decode_block_fused_into};
pub use detector::{Detection, DetectionStats, Detector, SearchQuality};
pub use dfs::SphereDecoder;
pub use engine::{DecodeBudget, PreparedDetector};
pub use fsd::FixedComplexitySd;
pub use kbest::KBestSd;
pub use linear::{MmseDetector, MrcDetector, ZfDetector};
pub use ml::MlDetector;
pub use parallel::{ParallelSphereDecoder, SubtreeParallelSd};
pub use pd::EvalStrategy;
pub use preprocess::{
    prepare_channel_into, prepare_frame_block_into, prepare_with_channel_into, preprocess,
    preprocess_ordered, preprocess_ordered_into, BlockPrep, ChannelObservables, ChannelPrep,
    ColumnOrdering, PrepScratch, Prepared,
};
pub use quantized::{
    FxPrepared, QuantizedFsd, QuantizedKBestSd, QuantizedSphereDecoder, MAX_QUANT_DEGRADATION_DB,
};
pub use radius::InitialRadius;
pub use rvd::RvdSphereDecoder;
pub use sd_math::fixed::MetricKind;
pub use soft::{SoftDetection, SoftSphereDecoder};
pub use stat_pruning::StatPruningSd;
pub use trace::{LevelTelemetry, Phase, PhaseProfile, PhaseUnit, SearchTelemetry, TraceSink};
