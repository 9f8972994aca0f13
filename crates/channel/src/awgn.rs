//! Additive white Gaussian noise.
//!
//! §8 computes capacity *"for a wireless channel with additive white
//! Gaussian noise"*; Appendix C places a noise term `Z` of unit power at
//! every receiver. [`Awgn`] is that term: circularly-symmetric complex
//! Gaussian samples of configured power, seeded for reproducibility.

use anc_dsp::{Cplx, DspRng};

/// A seeded complex-AWGN source with configurable power.
#[derive(Debug, Clone)]
pub struct Awgn {
    rng: DspRng,
    power: f64,
}

impl Awgn {
    /// Creates a noise source of the given power (`E[|z|²] = power`).
    ///
    /// # Panics
    /// Panics if `power < 0`.
    pub fn new(power: f64, seed: u64) -> Self {
        assert!(power >= 0.0, "noise power must be non-negative");
        Awgn {
            rng: DspRng::seed_from(seed),
            power,
        }
    }

    /// Noise source from an existing RNG stream (used by [`crate::Medium`]
    /// so each receiver gets an independent fork).
    pub fn from_rng(power: f64, rng: DspRng) -> Self {
        assert!(power >= 0.0, "noise power must be non-negative");
        Awgn { rng, power }
    }

    /// Configured noise power.
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Draws one noise sample.
    #[inline]
    pub fn sample(&mut self) -> Cplx {
        if self.power == 0.0 {
            Cplx::ZERO
        } else {
            self.rng.complex_gaussian(self.power)
        }
    }

    /// Adds noise to a waveform in place.
    pub fn add_to(&mut self, signal: &mut [Cplx]) {
        if self.power == 0.0 {
            return;
        }
        for s in signal {
            *s += self.rng.complex_gaussian(self.power);
        }
    }

    /// Returns a noisy copy of a waveform.
    pub fn corrupt(&mut self, signal: &[Cplx]) -> Vec<Cplx> {
        let mut out = signal.to_vec();
        self.add_to(&mut out);
        out
    }

    /// Generates `n` samples of pure noise (the §7.1 "noise floor"
    /// between packets).
    pub fn floor(&mut self, n: usize) -> Vec<Cplx> {
        (0..n).map(|_| self.sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_realized() {
        let mut n = Awgn::new(2.5, 7);
        let p = Cplx::mean_energy(&n.floor(100_000));
        assert!((p - 2.5).abs() < 0.05, "measured {p}");
    }

    #[test]
    fn zero_power_is_silent() {
        let mut n = Awgn::new(0.0, 1);
        assert_eq!(n.sample(), Cplx::ZERO);
        let mut sig = vec![Cplx::ONE; 4];
        n.add_to(&mut sig);
        assert!(sig.iter().all(|&s| s == Cplx::ONE));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Awgn::new(1.0, 42);
        let mut b = Awgn::new(1.0, 42);
        for _ in 0..32 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn corrupt_preserves_length_and_adds_power() {
        let sig = vec![Cplx::ONE; 50_000];
        let mut n = Awgn::new(0.5, 3);
        let noisy = n.corrupt(&sig);
        assert_eq!(noisy.len(), sig.len());
        let p = Cplx::mean_energy(&noisy);
        // E[|s+z|²] = 1 + 0.5
        assert!((p - 1.5).abs() < 0.05, "measured {p}");
    }

    #[test]
    #[should_panic]
    fn negative_power_rejected() {
        let _ = Awgn::new(-1.0, 0);
    }
}
