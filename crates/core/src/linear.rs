//! Linear detectors — the low-complexity / poor-BER baselines (Fig. 12).
//!
//! * **ZF** (zero forcing): `x̂ = H⁺ y`, then per-antenna slicing.
//! * **MMSE**: `x̂ = (H^H H + σ² I)⁻¹ H^H y`, balancing noise against
//!   interference.
//! * **MRC** (maximum ratio combining): per-antenna matched filter that
//!   ignores inter-stream interference entirely — cheapest, worst BER.

use crate::arena::SearchWorkspace;
use crate::detector::Detection;
use crate::engine::{impl_detector_via_prepared, DecodeBudget, PreparedDetector};
use crate::preprocess::{PrepScratch, Prepared};
use sd_math::{solve_hermitian, Complex, C64};
use sd_wireless::{Constellation, FrameData};

/// Zero-forcing detector.
#[derive(Clone, Debug)]
pub struct ZfDetector {
    constellation: Constellation,
}

impl ZfDetector {
    /// Build a ZF detector.
    pub fn new(constellation: Constellation) -> Self {
        ZfDetector { constellation }
    }
}

impl PreparedDetector<f64> for ZfDetector {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// Linear detectors skip the QR tree preprocessing: preparation is
    /// just the raw frame view (`H`, `y`, `σ²`).
    fn prepare_frame_into(
        &self,
        frame: &FrameData,
        _scratch: &mut PrepScratch<f64>,
        prep: &mut Prepared<f64>,
    ) {
        prep.load_frame(frame);
    }

    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<f64>,
        _radius_sqr: f64,
        _budget: &DecodeBudget,
        _ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        let x = sd_math::solve::least_squares(&prep.h, &prep.y);
        let (n, m) = prep.h.shape();
        out.stats.reset(0);
        out.stats.flops = crate::preprocess::qr_flops(n, m) + 4 * (m * m) as u64;
        out.indices.clear();
        out.indices
            .extend(x.iter().map(|&v| self.constellation.slice(v)));
    }
}

impl_detector_via_prepared!(ZfDetector, "ZF");

/// Minimum mean-square-error detector.
#[derive(Clone, Debug)]
pub struct MmseDetector {
    constellation: Constellation,
}

impl MmseDetector {
    /// Build an MMSE detector.
    pub fn new(constellation: Constellation) -> Self {
        MmseDetector { constellation }
    }
}

impl PreparedDetector<f64> for MmseDetector {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// See [`ZfDetector::prepare_frame_into`]: no QR, just the frame view.
    fn prepare_frame_into(
        &self,
        frame: &FrameData,
        _scratch: &mut PrepScratch<f64>,
        prep: &mut Prepared<f64>,
    ) {
        prep.load_frame(frame);
    }

    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<f64>,
        _radius_sqr: f64,
        _budget: &DecodeBudget,
        _ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        let h = &prep.h;
        let (n, m) = h.shape();
        let hh = h.hermitian();
        // Gram matrix + regularization: A = H^H H + σ² I.
        let mut a = sd_math::gemm(&hh, h, sd_math::GemmAlgo::Blocked);
        for i in 0..m {
            a[(i, i)] += Complex::new(prep.noise_variance, 0.0);
        }
        let rhs = hh.mul_vec(&prep.y);
        let x = solve_hermitian(&a, &rhs)
            .expect("H^H H + σ² I is positive definite for σ² > 0 or full-rank H");
        out.stats.reset(0);
        out.stats.flops = sd_math::gemm::gemm_flops(m, n, m) + (m * m * m) as u64 * 8 / 3;
        out.indices.clear();
        out.indices
            .extend(x.iter().map(|&v| self.constellation.slice(v)));
    }
}

impl_detector_via_prepared!(MmseDetector, "MMSE");

/// Maximum-ratio-combining detector.
#[derive(Clone, Debug)]
pub struct MrcDetector {
    constellation: Constellation,
}

impl MrcDetector {
    /// Build an MRC detector.
    pub fn new(constellation: Constellation) -> Self {
        MrcDetector { constellation }
    }
}

impl PreparedDetector<f64> for MrcDetector {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// See [`ZfDetector::prepare_frame_into`]: no QR, just the frame view.
    fn prepare_frame_into(
        &self,
        frame: &FrameData,
        _scratch: &mut PrepScratch<f64>,
        prep: &mut Prepared<f64>,
    ) {
        prep.load_frame(frame);
    }

    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<f64>,
        _radius_sqr: f64,
        _budget: &DecodeBudget,
        _ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        let h = &prep.h;
        let (n, m) = h.shape();
        out.stats.reset(0);
        out.stats.flops = 12 * (n * m) as u64;
        out.indices.clear();
        for j in 0..m {
            // x̂_j = h_j^H y / ‖h_j‖².
            let mut num = C64::zero();
            let mut den = 0.0f64;
            for i in 0..n {
                let hij = h[(i, j)];
                Complex::mul_acc(&mut num, hij.conj(), prep.y[i]);
                den += hij.norm_sqr();
            }
            let est = num.scale(1.0 / den);
            out.indices.push(self.constellation.slice(est));
        }
    }
}

impl_detector_via_prepared!(MrcDetector, "MRC");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::ml::MlDetector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_math::Matrix;
    use sd_wireless::{noise_variance, Modulation, TxFrame};

    fn noiseless_frame(c: &Constellation, seed: u64, n: usize) -> FrameData {
        let mut rng = StdRng::seed_from_u64(seed);
        FrameData::generate(n, n, c, 1e-9, &mut rng)
    }

    #[test]
    fn zf_exact_on_noiseless_channel() {
        let c = Constellation::new(Modulation::Qam16);
        let zf = ZfDetector::new(c.clone());
        for seed in 0..10 {
            let f = noiseless_frame(&c, seed, 6);
            assert_eq!(zf.detect(&f).indices, f.tx.indices);
        }
    }

    #[test]
    fn mmse_exact_on_noiseless_channel() {
        let c = Constellation::new(Modulation::Qam16);
        let mmse = MmseDetector::new(c.clone());
        for seed in 10..20 {
            let f = noiseless_frame(&c, seed, 6);
            assert_eq!(mmse.detect(&f).indices, f.tx.indices);
        }
    }

    #[test]
    fn mrc_exact_without_interference() {
        // Single transmit stream: MRC is optimal.
        let c = Constellation::new(Modulation::Qam4);
        let mrc = MrcDetector::new(c.clone());
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..10 {
            let f = FrameData::generate(8, 1, &c, 1e-6, &mut rng);
            assert_eq!(mrc.detect(&f).indices, f.tx.indices);
        }
    }

    #[test]
    fn mrc_suffers_from_interference() {
        // With many streams MRC must be clearly worse than ZF at high SNR.
        let c = Constellation::new(Modulation::Qam4);
        let mrc = MrcDetector::new(c.clone());
        let zf = ZfDetector::new(c.clone());
        let mut rng = StdRng::seed_from_u64(34);
        let sigma2 = noise_variance(30.0, 8);
        let mut mrc_err = 0u64;
        let mut zf_err = 0u64;
        for _ in 0..100 {
            let f = FrameData::generate(8, 8, &c, sigma2, &mut rng);
            mrc_err += f.symbol_errors(&mrc.detect(&f).indices);
            zf_err += f.symbol_errors(&zf.detect(&f).indices);
        }
        assert!(
            mrc_err > zf_err + 20,
            "MRC ({mrc_err}) should be much worse than ZF ({zf_err})"
        );
    }

    #[test]
    fn mmse_at_least_as_good_as_zf_at_low_snr() {
        let c = Constellation::new(Modulation::Qam4);
        let mmse = MmseDetector::new(c.clone());
        let zf = ZfDetector::new(c.clone());
        let mut rng = StdRng::seed_from_u64(35);
        let sigma2 = noise_variance(8.0, 10);
        let mut e_mmse = 0u64;
        let mut e_zf = 0u64;
        for _ in 0..300 {
            let f = FrameData::generate(10, 10, &c, sigma2, &mut rng);
            e_mmse += f.bit_errors(&mmse.detect(&f).indices, &c);
            e_zf += f.bit_errors(&zf.detect(&f).indices, &c);
        }
        assert!(
            e_mmse <= e_zf,
            "MMSE ({e_mmse}) must not lose to ZF ({e_zf}) at low SNR"
        );
    }

    #[test]
    fn linear_detectors_worse_than_ml_at_moderate_snr() {
        let c = Constellation::new(Modulation::Qam4);
        let ml = MlDetector::new(c.clone());
        let zf = ZfDetector::new(c.clone());
        let mut rng = StdRng::seed_from_u64(36);
        let sigma2 = noise_variance(8.0, 5);
        let mut e_ml = 0u64;
        let mut e_zf = 0u64;
        for _ in 0..200 {
            let f = FrameData::generate(5, 5, &c, sigma2, &mut rng);
            e_ml += f.bit_errors(&ml.detect(&f).indices, &c);
            e_zf += f.bit_errors(&zf.detect(&f).indices, &c);
        }
        assert!(
            e_ml < e_zf,
            "ML ({e_ml}) must beat ZF ({e_zf}) — the paper's core premise"
        );
    }

    #[test]
    fn identity_channel_all_detectors_agree() {
        let c = Constellation::new(Modulation::Qam4);
        let tx = TxFrame::from_indices(&[1, 2, 3, 0], &c);
        let f = FrameData {
            h: Matrix::identity(4),
            y: tx.symbols.clone(),
            noise_variance: 0.01,
            tx,
        };
        for det in [
            Box::new(ZfDetector::new(c.clone())) as Box<dyn Detector>,
            Box::new(MmseDetector::new(c.clone())),
            Box::new(MrcDetector::new(c.clone())),
        ] {
            assert_eq!(det.detect(&f).indices, vec![1, 2, 3, 0], "{}", det.name());
        }
    }
}
