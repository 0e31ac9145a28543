//! Statistical tree pruning (Gowaikar & Hassibi) — related-work ref \[16\].
//!
//! Instead of (or on top of) the sphere radius, prune a depth-`k` node
//! whenever its PD exceeds a *statistical* threshold: under the correct
//! hypothesis the PD is a sum of `k` squared noise terms, so
//! `E[PD_k] = k·σ²` and a node with `PD_k > α·k·σ²` is overwhelmingly
//! unlikely to lead to the transmitted vector. The paper's related work
//! notes this "shows good BER performance" but without the real-time
//! guarantee — here both sides of the trade are measurable. `α → ∞`
//! recovers the exact decoder; the fallback doubles `α` when everything
//! was pruned, so a decision is always produced.

use crate::arena::SearchWorkspace;
use crate::detector::Detection;
use crate::engine::{impl_detector_via_prepared, DecodeBudget, PreparedDetector};
use crate::pd::{eval_children, sorted_children, EvalStrategy};
use crate::preprocess::Prepared;
use sd_math::Float;
use sd_wireless::Constellation;

/// Sphere decoder with per-level statistical pruning thresholds.
#[derive(Clone, Debug)]
pub struct StatPruningSd<F: Float = f64> {
    constellation: Constellation,
    /// Threshold multiplier: prune when `PD_k > α·k·σ²`.
    pub alpha: f64,
    _precision: std::marker::PhantomData<F>,
}

impl<F: Float> StatPruningSd<F> {
    /// Statistically-pruned decoder with threshold multiplier `alpha`.
    pub fn new(constellation: Constellation, alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        StatPruningSd {
            constellation,
            alpha,
            _precision: std::marker::PhantomData,
        }
    }
}

impl<F: Float> PreparedDetector<F> for StatPruningSd<F> {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// Dual-prune sorted DFS into a caller-owned [`Detection`]. The
    /// statistical threshold replaces the sphere radius, so `radius_sqr`
    /// is ignored; the noise variance is read from the prepared problem.
    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<F>,
        _radius_sqr: f64,
        _budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        let m = prep.n_tx;
        let p = prep.order;
        let sigma2 = prep.noise_variance.max(1e-30);
        ws.prepare(p, m);
        out.stats.reset(m);
        let stats = &mut out.stats;

        let mut alpha = self.alpha;
        let (best_metric, best_path) = loop {
            let mut best_metric = f64::INFINITY;
            let mut best_path: Vec<usize> = Vec::new();
            // Sorted DFS with the dual prune: radius AND statistical
            // threshold per level.
            let mut stack: Vec<(F, Vec<usize>)> = vec![(F::ZERO, Vec::new())];
            while let Some((pd, path)) = stack.pop() {
                if pd.to_f64() >= best_metric {
                    stats.nodes_pruned += 1;
                    continue;
                }
                let depth = path.len();
                stats.nodes_expanded += 1;
                stats.flops += eval_children(prep, &path, EvalStrategy::Gemm, &mut ws.scratch);
                stats.nodes_generated += p as u64;
                stats.per_level_generated[depth] += p as u64;
                let threshold = alpha * (depth as f64 + 1.0) * sigma2;
                let children = sorted_children(&ws.scratch.increments);
                if depth + 1 == m {
                    for (inc, c) in children {
                        let metric = pd.to_f64() + inc.to_f64();
                        if metric < best_metric && metric <= threshold {
                            stats.leaves_reached += 1;
                            stats.radius_updates += 1;
                            best_metric = metric;
                            best_path = path.clone();
                            best_path.push(c);
                        } else {
                            stats.nodes_pruned += 1;
                        }
                    }
                } else {
                    for (inc, c) in children.into_iter().rev() {
                        let child_pd = pd + inc;
                        if child_pd.to_f64() <= threshold && child_pd.to_f64() < best_metric {
                            let mut child = path.clone();
                            child.push(c);
                            stack.push((child_pd, child));
                        } else {
                            stats.nodes_pruned += 1;
                        }
                    }
                }
            }
            if !best_path.is_empty() {
                break (best_metric, best_path);
            }
            // Everything pruned: the threshold was too aggressive for
            // this noise draw; relax and retry.
            alpha *= 2.0;
            stats.restarts += 1;
            assert!(stats.restarts < 64, "statistical threshold failed to relax");
        };

        stats.final_radius_sqr = best_metric;
        stats.flops += prep.prep_flops;
        prep.indices_from_path_into(&best_path, &mut out.indices);
    }
}

impl_detector_via_prepared!(StatPruningSd<F>, "SD statistical pruning [16]");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::dfs::SphereDecoder;
    use crate::ml::MlDetector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, FrameData, Modulation};

    fn frames(n: usize, snr_db: f64, count: usize, seed: u64) -> (Constellation, Vec<FrameData>) {
        let c = Constellation::new(Modulation::Qam4);
        let sigma2 = noise_variance(snr_db, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = (0..count)
            .map(|_| FrameData::generate(n, n, &c, sigma2, &mut rng))
            .collect();
        (c, f)
    }

    #[test]
    fn huge_alpha_recovers_exact_ml() {
        let (c, frames) = frames(5, 8.0, 25, 150);
        let sp: StatPruningSd<f64> = StatPruningSd::new(c.clone(), 1e9);
        let ml = MlDetector::new(c);
        for f in &frames {
            assert_eq!(sp.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn tight_alpha_prunes_more_nodes() {
        let (c, frames) = frames(8, 8.0, 20, 151);
        let exact: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let tight: StatPruningSd<f64> = StatPruningSd::new(c, 3.0);
        let n_exact: u64 = frames
            .iter()
            .map(|f| exact.detect(f).stats.nodes_generated)
            .sum();
        let n_tight: u64 = frames
            .iter()
            .map(|f| tight.detect(f).stats.nodes_generated)
            .sum();
        assert!(
            n_tight < n_exact,
            "α=3 ({n_tight}) must prune below exact ({n_exact})"
        );
    }

    #[test]
    fn ber_degrades_gracefully_not_catastrophically() {
        let (c, frames) = frames(8, 10.0, 250, 152);
        let ml: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let sp: StatPruningSd<f64> = StatPruningSd::new(c.clone(), 4.0);
        let mut e_ml = 0u64;
        let mut e_sp = 0u64;
        for f in &frames {
            e_ml += f.bit_errors(&ml.detect(f).indices, &c);
            e_sp += f.bit_errors(&sp.detect(f).indices, &c);
        }
        assert!(e_ml <= e_sp, "exact must not lose");
        assert!(
            e_sp <= e_ml * 4 + 30,
            "related-work claim: BER stays good (ml={e_ml}, sp={e_sp})"
        );
    }

    #[test]
    fn over_pruning_triggers_relaxation() {
        let (c, frames) = frames(4, 4.0, 30, 153);
        // α = 0.01 prunes virtually every branch on the first pass.
        let sp: StatPruningSd<f64> = StatPruningSd::new(c, 0.01);
        let mut restarted = false;
        for f in &frames {
            let d = sp.detect(f);
            restarted |= d.stats.restarts > 0;
            assert_eq!(d.indices.len(), 4, "must always produce a decision");
        }
        assert!(restarted, "tiny alpha must trip the relaxation path");
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn non_positive_alpha_rejected() {
        let _ = StatPruningSd::<f64>::new(Constellation::new(Modulation::Qam4), 0.0);
    }
}
