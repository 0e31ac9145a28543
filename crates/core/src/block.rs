//! Shared-prep block decoding: serve a whole coherence block through one
//! engine.
//!
//! An OFDM frame hands the detector many receive vectors that share one
//! channel matrix. [`decode_block_budgeted_into`] decodes such a block
//! through any [`PreparedDetector`]: engines whose preparation is
//! channel-splittable ([`PreparedDetector::channel_cacheable`]) get the
//! fast path — one [`prepare_frame_block_into`] factorization plus one
//! batched `ȳ = QᴴY` apply for the whole block, then a per-subcarrier tree
//! search reusing a single workspace — while engines with bespoke
//! preparation (the linear family, the real-valued decomposition) fall
//! back to per-vector preparation. [`decode_block_fused_into`] adds the
//! cross-subcarrier fused search on top and falls back to the same loop.
//! Either way every subcarrier's detection is bit-identical to a
//! standalone `prepare_frame_into` + `detect_prepared_budgeted_into` of
//! that subcarrier, which is the contract the serve layer's frame
//! exactness tests pin down.

use crate::arena::SearchWorkspace;
use crate::detector::Detection;
use crate::engine::{DecodeBudget, PreparedDetector};
use crate::preprocess::{prepare_frame_block_into, BlockPrep, PrepScratch, Prepared};
use sd_math::Float;
use sd_wireless::FrameData;

/// Decode a coherence block — `frames` all sharing one `H` — through
/// `det` one subcarrier at a time, writing subcarrier `k`'s detection
/// into `out[k]`. Every subcarrier's search runs with the same `budget`,
/// so an anytime engine caps each tree walk independently rather than
/// racing the whole block against one pool. All state (`scratch`,
/// `block`, `prep`, `ws`) is caller-owned and reused, so the steady-state
/// path allocates nothing.
///
/// Returns the number of channel preparations performed: `1` on the
/// shared-prep path, `frames.len()` on the per-vector fallback — the
/// numerator of the serve layer's prep-amortization ratio.
///
/// # Panics
/// If `out.len() != frames.len()`, or (on the shared-prep path) if the
/// frames do not share one channel matrix.
#[allow(clippy::too_many_arguments)]
pub fn decode_block_budgeted_into<F: Float>(
    det: &dyn PreparedDetector<F>,
    frames: &[FrameData],
    budget: &DecodeBudget,
    scratch: &mut PrepScratch<F>,
    block: &mut BlockPrep<F>,
    prep: &mut Prepared<F>,
    ws: &mut SearchWorkspace<F>,
    out: &mut [Detection],
) -> usize {
    assert_eq!(
        frames.len(),
        out.len(),
        "need one Detection slot per subcarrier"
    );
    if frames.is_empty() {
        return 0;
    }
    if det.channel_cacheable() {
        prepare_frame_block_into(frames, det.ordering(), scratch, block);
    }
    decode_block_loop(det, frames, budget, scratch, block, prep, ws, out)
}

/// Cross-subcarrier *fused* block decode: one tree search — one GEMM
/// batch per tree level — for the whole coherence block, instead of
/// `frames.len()` independent searches.
///
/// Engines that implement
/// [`PreparedDetector::detect_block_prepared_budgeted_into`] (the
/// level-synchronous, data-independent ones: K-best and the quantized
/// K-best/FSD) fuse the block after the shared preparation; everything
/// else — and any decode with a trace sink installed — takes the exact
/// per-subcarrier loop of [`decode_block_budgeted_into`]. Per-subcarrier
/// results are bit-identical either way; fusion is purely a scheduling
/// change.
///
/// Returns `(prep_factors, fused)`: the channel-preparation count (as
/// [`decode_block_budgeted_into`]) and whether the fused path ran.
#[allow(clippy::too_many_arguments)]
pub fn decode_block_fused_into<F: Float>(
    det: &dyn PreparedDetector<F>,
    frames: &[FrameData],
    budget: &DecodeBudget,
    scratch: &mut PrepScratch<F>,
    block: &mut BlockPrep<F>,
    prep: &mut Prepared<F>,
    ws: &mut SearchWorkspace<F>,
    out: &mut [Detection],
) -> (usize, bool) {
    assert_eq!(
        frames.len(),
        out.len(),
        "need one Detection slot per subcarrier"
    );
    if frames.is_empty() {
        return (0, false);
    }
    if det.channel_cacheable() {
        prepare_frame_block_into(frames, det.ordering(), scratch, block);
        if det.detect_block_prepared_budgeted_into(block, frames, budget, prep, ws, out) {
            return (1, true);
        }
    }
    let prep_factors = decode_block_loop(det, frames, budget, scratch, block, prep, ws, out);
    (prep_factors, false)
}

/// The per-subcarrier loop both drivers share. A channel-cacheable `det`
/// reads each subcarrier off the already-prepared `block`; any other
/// engine prepares each subcarrier itself. Returns the preparation count.
#[allow(clippy::too_many_arguments)]
fn decode_block_loop<F: Float>(
    det: &dyn PreparedDetector<F>,
    frames: &[FrameData],
    budget: &DecodeBudget,
    scratch: &mut PrepScratch<F>,
    block: &BlockPrep<F>,
    prep: &mut Prepared<F>,
    ws: &mut SearchWorkspace<F>,
    out: &mut [Detection],
) -> usize {
    let shared = det.channel_cacheable();
    let n_rx = frames[0].h.rows();
    for (k, (f, d)) in frames.iter().zip(out.iter_mut()).enumerate() {
        if shared {
            block.fill_prepared(k, f, det.constellation(), prep);
        } else {
            det.prepare_frame_into(f, scratch, prep);
        }
        let r2 = det.initial_radius_sqr(n_rx, f.noise_variance);
        det.detect_prepared_budgeted_into(prep, r2, budget, ws, d);
    }
    if shared {
        1
    } else {
        frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KBestSd, MetricKind, MmseDetector, QuantizedFsd, QuantizedKBestSd, SphereDecoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, Constellation, Modulation};

    /// One coherence block: a single channel draw, fresh y per subcarrier.
    fn coherence_block(
        c: &Constellation,
        n: usize,
        len: usize,
        snr_db: f64,
        seed: u64,
    ) -> Vec<FrameData> {
        let sigma2 = noise_variance(snr_db, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let base = FrameData::generate(n, n, c, sigma2, &mut rng);
        (0..len)
            .map(|_| {
                let mut f = base.clone();
                let fresh = FrameData::generate(n, n, c, sigma2, &mut rng);
                f.y = fresh.y;
                f.tx = fresh.tx;
                f
            })
            .collect()
    }

    /// The block driver must reproduce the standalone per-frame decode
    /// bit-for-bit on both the shared-prep path and the fallback.
    #[test]
    fn block_decode_is_bit_identical_to_per_frame() {
        let c = Constellation::new(Modulation::Qam4);
        let dets: Vec<(&str, Box<dyn PreparedDetector<f64>>)> = vec![
            ("dfs", Box::new(SphereDecoder::new(c.clone()))),
            ("kbest", Box::new(KBestSd::new(c.clone(), 8))),
            ("kbest-fx", Box::new(QuantizedKBestSd::new(c.clone(), 8))),
            (
                "fsd-fx-linf",
                Box::new(QuantizedFsd::new(c.clone()).with_metric(MetricKind::LInf)),
            ),
            ("mmse", Box::new(MmseDetector::new(c.clone()))),
        ];
        let frames = coherence_block(&c, 6, 7, 12.0, 0xB10C_DEC0);
        let mut scratch = PrepScratch::new();
        let mut block = BlockPrep::new();
        let mut prep = Prepared::empty();
        let mut ws = SearchWorkspace::new();
        let mut out: Vec<Detection> = (0..frames.len()).map(|_| Detection::default()).collect();
        for (name, det) in &dets {
            let preps = decode_block_budgeted_into(
                &**det,
                &frames,
                &DecodeBudget::UNLIMITED,
                &mut scratch,
                &mut block,
                &mut prep,
                &mut ws,
                &mut out,
            );
            if det.channel_cacheable() {
                assert_eq!(preps, 1, "{name}: shared-prep path");
            } else {
                assert_eq!(preps, frames.len(), "{name}: per-vector fallback");
            }
            for (k, f) in frames.iter().enumerate() {
                let solo = det.detect_frame(f);
                assert_eq!(out[k], solo, "{name}: subcarrier {k} differs");
            }
        }
    }

    /// An unexhausted budget is the standalone unbudgeted decode, bit
    /// for bit; a zero budget still yields complete, flagged detections
    /// on every subcarrier.
    #[test]
    fn budgeted_block_decode_matches_unbudgeted_until_the_budget_trips() {
        let c = Constellation::new(Modulation::Qam4);
        let det = SphereDecoder::<f64>::new(c.clone());
        let frames = coherence_block(&c, 6, 5, 10.0, 0xB10C_B0D9);
        let mut scratch = PrepScratch::new();
        let mut block = BlockPrep::new();
        let mut prep = Prepared::empty();
        let mut ws = SearchWorkspace::new();
        let mut budgeted: Vec<Detection> = vec![Detection::default(); frames.len()];
        decode_block_budgeted_into(
            &det,
            &frames,
            &DecodeBudget::nodes(u64::MAX - 1),
            &mut scratch,
            &mut block,
            &mut prep,
            &mut ws,
            &mut budgeted,
        );
        for (k, f) in frames.iter().enumerate() {
            assert_eq!(budgeted[k], det.detect_frame(f), "subcarrier {k}");
        }
        decode_block_budgeted_into(
            &det,
            &frames,
            &DecodeBudget::nodes(0),
            &mut scratch,
            &mut block,
            &mut prep,
            &mut ws,
            &mut budgeted,
        );
        for d in &budgeted {
            assert_eq!(d.indices.len(), 6, "complete vector per subcarrier");
            assert!(d.stats.quality.is_truncated());
        }
    }

    #[test]
    fn empty_block_is_a_noop() {
        let c = Constellation::new(Modulation::Qam4);
        let det = SphereDecoder::<f64>::new(c);
        let mut scratch = PrepScratch::new();
        let mut block = BlockPrep::new();
        let mut prep = Prepared::empty();
        let mut ws = SearchWorkspace::new();
        let preps = decode_block_budgeted_into(
            &det,
            &[],
            &DecodeBudget::UNLIMITED,
            &mut scratch,
            &mut block,
            &mut prep,
            &mut ws,
            &mut [],
        );
        assert_eq!(preps, 0);
    }

    #[test]
    #[should_panic(expected = "one Detection slot per subcarrier")]
    fn mismatched_output_slots_panic() {
        let c = Constellation::new(Modulation::Qam4);
        let det = SphereDecoder::<f64>::new(c.clone());
        let frames = coherence_block(&c, 4, 3, 10.0, 1);
        let mut out = vec![Detection::default(); 2];
        decode_block_budgeted_into(
            &det,
            &frames,
            &DecodeBudget::UNLIMITED,
            &mut PrepScratch::new(),
            &mut BlockPrep::new(),
            &mut Prepared::empty(),
            &mut SearchWorkspace::new(),
            &mut out,
        );
    }
}
