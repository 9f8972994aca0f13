//! Moving-window energy and variance trackers.
//!
//! §7.1 of the paper detects packets and interference from streaming
//! complex samples: *"We calculate energy and energy variance over moving
//! windows of received samples."* A packet is declared when window energy
//! exceeds the noise floor by a threshold (20 dB); interference is
//! declared when the *variance* of the energy exceeds a threshold,
//! because a single MSK signal has (nearly) constant energy while two
//! interfered MSK signals swing between `(A+B)²` and `(A−B)²`.
//!
//! Both trackers keep an O(1) running sum over a flat ring buffer for
//! the mean. The variance tracker refreshes it from the ring on a fixed
//! schedule so drift over long streams stays bounded; the energy
//! tracker recomputes it only when cancellation drives it negative.
//! The variance tracker computes squared deviations *about
//! that mean* in a single buffer pass per query — unlike the naive
//! sliding `E[x²]−E[x]²`, the deviation form cannot cancel
//! catastrophically (an off-by-δ mean inflates the variance by only
//! δ², and δ is pinned to a few ulps by the refresh).

use crate::cplx::Cplx;
use std::ops::Range;

/// Sliding-window mean of sample energy `|y[n]|²`.
///
/// Backs the packet detector: compare [`EnergyWindow::mean`] against the
/// noise floor (in dB) to decide whether a transmission is present.
#[derive(Debug, Clone)]
pub struct EnergyWindow {
    /// Flat ring storage, laid out as in [`VarianceWindow`]: grows to
    /// `cap` during warmup, then wraps at `pos`. The §7.1 packet search
    /// pushes every sample of every reception through this window, so
    /// the push avoids `VecDeque`'s head/tail bookkeeping.
    ring: Vec<f64>,
    /// Next write index once the ring is full (oldest element).
    pos: usize,
    cap: usize,
    sum: f64,
}

impl EnergyWindow {
    /// Creates a window holding `cap` samples. `cap` must be ≥ 1.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "window capacity must be at least 1");
        EnergyWindow {
            ring: Vec::with_capacity(cap),
            pos: 0,
            cap,
            sum: 0.0,
        }
    }

    /// Pushes a complex sample, evicting the oldest if full.
    #[inline]
    pub fn push(&mut self, sample: Cplx) {
        self.push_energy(sample.norm_sq());
    }

    /// Pushes a precomputed energy value. Non-finite energies (NaN/±∞
    /// samples from degenerate upstream arithmetic) are recorded as
    /// zero: a single NaN through the running sum would otherwise
    /// poison the window's mean for the rest of the stream.
    #[inline]
    pub fn push_energy(&mut self, energy: f64) {
        let energy = if energy.is_finite() { energy } else { 0.0 };
        if self.ring.len() < self.cap {
            self.ring.push(energy);
        } else {
            self.sum -= self.ring[self.pos];
            self.ring[self.pos] = energy;
            self.pos += 1;
            if self.pos == self.cap {
                self.pos = 0;
            }
        }
        self.sum += energy;
        // Cancellation in the incremental sum can leave a tiny
        // negative; recompute it exactly, summing oldest to newest.
        if self.sum < 0.0 {
            let (newer, older) = self.ring.split_at(self.pos);
            self.sum = older.iter().chain(newer).sum();
        }
    }

    /// Current number of samples held (≤ capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no samples have been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// `true` once the window has been fully populated.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ring.len() == self.cap
    }

    /// Mean energy over the window; 0 when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.ring.is_empty() {
            0.0
        } else {
            (self.sum / self.ring.len() as f64).max(0.0)
        }
    }

    /// Clears the window.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.pos = 0;
        self.sum = 0.0;
    }
}

/// Sliding-window variance of sample energy.
///
/// Backs the interference detector of §7.1: when two MSK signals of
/// amplitudes A and B interfere, the per-sample energy swings between
/// `(A−B)²` and `(A+B)²`, giving an energy variance on the order of
/// `(2AB)²·…` — far above the near-zero variance of a lone MSK signal.
#[derive(Debug, Clone)]
pub struct VarianceWindow {
    /// Flat ring storage: grows to `cap` during warmup, then wraps at
    /// `pos`. A plain `Vec` ring beats `VecDeque` here because the
    /// per-sample interference mask pays for every push and every
    /// buffer walk.
    ring: Vec<f64>,
    /// Next write index once the ring is full (oldest element).
    pos: usize,
    cap: usize,
    sum: f64,
    until_refresh: usize,
}

/// Pushes between exact recomputations of a window's running sum, as a
/// multiple of its capacity. The interval bounds worst-case drift to a
/// few hundred ulps of the window's total energy — orders of magnitude
/// below anything the §7.1 thresholds could notice — while keeping the
/// refresh cost amortized O(1/interval) per push.
const REFRESH_INTERVAL_CAPS: usize = 8;

impl VarianceWindow {
    /// Creates a window holding `cap` energies. `cap` must be ≥ 2 for a
    /// variance to be meaningful.
    ///
    /// # Panics
    /// Panics if `cap < 2`.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 2, "variance window needs at least 2 samples");
        VarianceWindow {
            ring: Vec::with_capacity(cap),
            pos: 0,
            cap,
            sum: 0.0,
            until_refresh: REFRESH_INTERVAL_CAPS * cap,
        }
    }

    /// Pushes a complex sample.
    #[inline]
    pub fn push(&mut self, sample: Cplx) {
        self.push_energy(sample.norm_sq());
    }

    /// Pushes a precomputed energy value. Non-finite energies are
    /// recorded as zero — the same NaN sentinel as
    /// [`EnergyWindow::push_energy`]; a NaN entering the running sum
    /// (or the ring, via the periodic refresh) would poison every later
    /// mean and variance in the stream.
    #[inline]
    pub fn push_energy(&mut self, energy: f64) {
        let energy = if energy.is_finite() { energy } else { 0.0 };
        if self.ring.len() < self.cap {
            self.ring.push(energy);
        } else {
            self.sum -= self.ring[self.pos];
            self.ring[self.pos] = energy;
            self.pos += 1;
            if self.pos == self.cap {
                self.pos = 0;
            }
        }
        self.sum += energy;
        self.until_refresh -= 1;
        if self.until_refresh == 0 {
            self.sum = self.ring.iter().sum();
            self.until_refresh = REFRESH_INTERVAL_CAPS * self.cap;
        }
    }

    /// Number of energies currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no samples have been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// `true` once the window has been fully populated.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ring.len() == self.cap
    }

    /// Population variance of the window's energies; 0 with < 2 samples.
    ///
    /// One buffer pass over squared deviations about the running mean —
    /// the deviation form cannot cancel catastrophically (module docs).
    pub fn variance(&self) -> f64 {
        self.mean_and_variance().1
    }

    /// Mean and population variance together — bit-identical to calling
    /// [`VarianceWindow::mean`] and [`VarianceWindow::variance`]
    /// separately (all three use the same running-sum mean). The
    /// per-sample interference mask calls this once per pushed sample,
    /// so the O(1) mean and single deviation pass are hot-path wins
    /// (`#[inline]` because that caller lives in another crate: without
    /// it the per-sample query stays an opaque call at the default
    /// no-LTO release profile).
    #[inline]
    pub fn mean_and_variance(&self) -> (f64, f64) {
        let n = self.ring.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let mean = self.sum / n as f64;
        if n < 2 {
            return (mean, 0.0);
        }
        // Deviation pass over the flat ring (element order is
        // irrelevant to the sum of squared deviations). Four
        // independent accumulators keep the fused multiply-adds off one
        // serial latency chain (and let the pass vectorize); the terms
        // are all non-negative, so the fixed reassociation loses no
        // accuracy and stays deterministic.
        let mut acc = [0.0f64; 4];
        let mut chunks = self.ring.chunks_exact(4);
        for c in &mut chunks {
            for k in 0..4 {
                let d = c[k] - mean;
                acc[k] = d.mul_add(d, acc[k]);
            }
        }
        for (k, &e) in chunks.remainder().iter().enumerate() {
            let d = e - mean;
            acc[k] = d.mul_add(d, acc[k]);
        }
        let var = ((acc[0] + acc[1]) + (acc[2] + acc[3])) / n as f64;
        (mean, var.max(0.0))
    }

    /// Mean of the window's energies; 0 when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.ring.is_empty() {
            0.0
        } else {
            self.sum / self.ring.len() as f64
        }
    }

    /// Clears the window.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.pos = 0;
        self.sum = 0.0;
        self.until_refresh = REFRESH_INTERVAL_CAPS * self.cap;
    }

    /// Pushes between exact recomputations of the running sum of a
    /// window holding `cap` energies: the sum is the exact window total
    /// after every push whose count is a multiple of this.
    pub const fn refresh_period(cap: usize) -> usize {
        REFRESH_INTERVAL_CAPS * cap
    }

    /// The running sums a `VarianceWindow::new(cap)` holds while it is
    /// fed `energies` in order, at the pushes in `range`: `sums[k]` is
    /// its sum right after the push of `energies[range.start + k]`
    /// (`sums` is cleared, then filled to `range.len()`).
    ///
    /// Together with [`VarianceWindow::replay_mean_and_variance`] this
    /// answers the window's query at any position without running the
    /// O(cap) deviation pass at every earlier one. The replay starts at
    /// the last refresh before `range.start`, whose sum depends only on
    /// the window's own energies, so it costs O(1) per sample of
    /// `range` plus at most one [`VarianceWindow::refresh_period`], and
    /// is bit-identical to the live window's sums.
    ///
    /// # Panics
    /// Panics if `cap < 2` or `range.end > energies.len()`.
    pub fn replay_sums_into(
        cap: usize,
        energies: &[f64],
        range: Range<usize>,
        sums: &mut Vec<f64>,
    ) {
        assert!(cap >= 2, "variance window needs at least 2 samples");
        assert!(
            range.end <= energies.len(),
            "replay range past the energies"
        );
        let clean = |e: f64| if e.is_finite() { e } else { 0.0 };
        // A refresh falls after a multiple of `cap` pushes, when the
        // ring's storage order is oldest to newest.
        let exact = |t: usize| -> f64 { energies[t + 1 - cap..=t].iter().map(|&e| clean(e)).sum() };
        let period = Self::refresh_period(cap);
        let from = range.start - range.start % period;
        let mut sum = if from == 0 { 0.0 } else { exact(from - 1) };
        sums.clear();
        for t in from..range.end {
            if t >= cap {
                sum -= clean(energies[t - cap]);
            }
            sum += clean(energies[t]);
            if (t + 1) % period == 0 {
                sum = exact(t);
            }
            if t >= range.start {
                sums.push(sum);
            }
        }
    }

    /// [`VarianceWindow::mean_and_variance`] of a full
    /// `VarianceWindow::new(cap)` fed `energies[..=i]`, given its
    /// running sum `sum` after that push (from
    /// [`VarianceWindow::replay_sums_into`]). Bit-identical: the
    /// deviation pass visits the window's energies in the ring's
    /// storage order, with the same four accumulators.
    ///
    /// # Panics
    /// Panics if `cap < 2`, `i + 1 < cap` (the window is not yet full)
    /// or `i >= energies.len()`.
    pub fn replay_mean_and_variance(
        cap: usize,
        energies: &[f64],
        i: usize,
        sum: f64,
    ) -> (f64, f64) {
        assert!(cap >= 2, "variance window needs at least 2 samples");
        let window = &energies[i + 1 - cap..=i];
        let mean = sum / cap as f64;
        // Storage slot `t % cap` holds energy `t`, so the ring starts at
        // the window's `(i + 1) % cap` newest entries.
        let (older, newer) = window.split_at(cap - (i + 1) % cap);
        let mut acc = [0.0f64; 4];
        for (j, &e) in newer.iter().chain(older).enumerate() {
            let e = if e.is_finite() { e } else { 0.0 };
            let d = e - mean;
            acc[j % 4] = d.mul_add(d, acc[j % 4]);
        }
        let var = ((acc[0] + acc[1]) + (acc[2] + acc[3])) / cap as f64;
        (mean, var.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn energy_window_mean_constant_signal() {
        let mut w = EnergyWindow::new(8);
        for n in 0..20 {
            w.push(Cplx::from_polar(2.0, n as f64 * 0.3));
        }
        assert!(w.is_full());
        assert!((w.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn energy_window_evicts_oldest() {
        let mut w = EnergyWindow::new(2);
        w.push_energy(100.0);
        w.push_energy(1.0);
        w.push_energy(1.0);
        assert!((w.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_window_partial_fill() {
        let mut w = EnergyWindow::new(10);
        w.push_energy(3.0);
        assert_eq!(w.len(), 1);
        assert!(!w.is_full());
        assert!((w.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn energy_window_clear() {
        let mut w = EnergyWindow::new(4);
        w.push_energy(5.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    #[should_panic]
    fn energy_window_zero_capacity_panics() {
        let _ = EnergyWindow::new(0);
    }

    #[test]
    fn variance_of_constant_msk_energy_is_zero() {
        // A lone MSK signal: constant amplitude, varying phase.
        let mut w = VarianceWindow::new(16);
        for n in 0..32 {
            w.push(Cplx::from_polar(1.7, n as f64 * PI / 2.0));
        }
        assert!(w.variance() < 1e-20);
    }

    #[test]
    fn variance_of_interfered_signals_is_large() {
        // Two unit-amplitude MSK-like signals with incommensurate phase
        // ramps: energy swings between 0 and 4.
        let mut w = VarianceWindow::new(64);
        for n in 0..128 {
            let a = Cplx::cis(n as f64 * 0.7);
            let b = Cplx::cis(n as f64 * 1.3 + 0.4);
            w.push(a + b);
        }
        // Mean energy ≈ A²+B² = 2, variance ≈ 2·A²B² = 2 (for random
        // relative phase: var(2cos φ) = 2).
        assert!(w.variance() > 0.5, "variance = {}", w.variance());
    }

    #[test]
    fn variance_window_needs_two() {
        let mut w = VarianceWindow::new(4);
        w.push_energy(3.0);
        assert_eq!(w.variance(), 0.0);
        w.push_energy(5.0);
        assert!((w.variance() - 1.0).abs() < 1e-12); // population var of {3,5}
    }

    #[test]
    #[should_panic]
    fn variance_window_capacity_one_panics() {
        let _ = VarianceWindow::new(1);
    }

    #[test]
    fn running_mean_tracks_exact_mean_over_long_streams() {
        // Drive the tracker far past several refresh intervals with
        // wildly varying magnitudes; the running mean must stay within
        // ulps of an exact recompute, and the variance must agree with
        // a two-pass reference to fine relative precision.
        let mut w = VarianceWindow::new(32);
        let mut ring: Vec<f64> = Vec::new();
        for n in 0..10_000 {
            let e = if n % 97 < 3 {
                1e6 * (1.0 + (n as f64) * 1e-7)
            } else {
                (n as f64 * 0.7).sin().mul_add(0.5, 1.0)
            };
            w.push_energy(e);
            ring.push(e);
            if ring.len() > 32 {
                ring.remove(0);
            }
            if n % 501 == 0 && ring.len() >= 2 {
                let exact_mean = ring.iter().sum::<f64>() / ring.len() as f64;
                let exact_var =
                    ring.iter().map(|&x| (x - exact_mean).powi(2)).sum::<f64>() / ring.len() as f64;
                let (m, v) = w.mean_and_variance();
                assert!(
                    (m - exact_mean).abs() <= 1e-9 * exact_mean.abs().max(1.0),
                    "mean drifted at {n}: {m} vs {exact_mean}"
                );
                assert!(
                    (v - exact_var).abs() <= 1e-6 * exact_var.max(1.0),
                    "variance drifted at {n}: {v} vs {exact_var}"
                );
            }
        }
    }

    #[test]
    fn mean_and_variance_matches_separate_calls() {
        let mut w = VarianceWindow::new(16);
        for n in 0..40 {
            let a = Cplx::cis(n as f64 * 0.7);
            let b = Cplx::cis(n as f64 * 1.3 + 0.4);
            w.push(a + b);
            let (m, v) = w.mean_and_variance();
            assert_eq!(m.to_bits(), w.mean().to_bits());
            assert_eq!(v.to_bits(), w.variance().to_bits());
        }
        let empty = VarianceWindow::new(4);
        assert_eq!(empty.mean_and_variance(), (0.0, 0.0));
    }

    #[test]
    fn nan_samples_do_not_poison_the_windows() {
        // Inject NaN and ∞ samples mid-stream: both trackers must keep
        // reporting the statistics of the remaining (zero-substituted)
        // energies instead of going NaN forever.
        let mut ew = EnergyWindow::new(4);
        let mut vw = VarianceWindow::new(4);
        for e in [1.0, f64::NAN, 1.0, f64::INFINITY, 1.0, 1.0, 1.0, 1.0] {
            ew.push_energy(e);
            vw.push_energy(e);
            assert!(ew.mean().is_finite());
            let (m, v) = vw.mean_and_variance();
            assert!(m.is_finite() && v.is_finite());
        }
        // The poisoned entries have been evicted: pure signal remains.
        assert!((ew.mean() - 1.0).abs() < 1e-12);
        assert_eq!(vw.variance(), 0.0);
        // A NaN complex sample through `push` is sanitized too (NaN
        // components make `norm_sq` NaN).
        let mut vw2 = VarianceWindow::new(2);
        vw2.push(Cplx::new(f64::NAN, 0.0));
        vw2.push(Cplx::new(1.0, 0.0));
        let (m, _) = vw2.mean_and_variance();
        assert!((m - 0.5).abs() < 1e-12);
    }

    #[test]
    fn variance_window_eviction() {
        let mut w = VarianceWindow::new(2);
        w.push_energy(0.0);
        w.push_energy(0.0);
        w.push_energy(4.0);
        w.push_energy(4.0);
        assert_eq!(w.variance(), 0.0);
        assert!((w.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn windows_track_detection_contrast() {
        // End-to-end sanity for the §7.1 thresholds: the ratio between
        // interfered-energy variance and single-signal variance must be
        // enormous, which is what makes a 20 dB threshold workable.
        let mut single = VarianceWindow::new(64);
        let mut dual = VarianceWindow::new(64);
        for n in 0..64 {
            single.push(Cplx::from_polar(1.0, n as f64 * PI / 2.0));
            let a = Cplx::cis(n as f64 * 0.9);
            let b = Cplx::cis(n as f64 * 1.7 + 1.0);
            dual.push(a + b);
        }
        assert!(dual.variance() > 1e6 * single.variance().max(1e-30));
    }
}
