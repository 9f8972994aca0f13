//! Equivalence properties of the receive path's shortcuts: each fast
//! form must agree bit for bit with the slower reference it replaces.
//!
//! - `SignalDetector::interference_span` ≡ the first and last flags of
//!   the full `interference_mask_from_energies` mask, and the window
//!   replay under it ≡ a live `VarianceWindow`.
//! - The early-exit `SignalDetector::detect` ≡ a full interior scan.
//! - `Modem::demodulate` (quotient sign) ≡ `demodulate_soft` ≥ 0.
//! - The flat-ring `EnergyWindow` ≡ a `VecDeque` window.
//!
//! The references live here, next to the properties that use them.

use anc_core::detect::{ClassifiedSignal, DetectorConfig, SignalDetector};
use anc_dsp::{db_to_linear, Cplx, DspRng, EnergyWindow, VarianceWindow};
use anc_modem::{Modem, MskConfig, MskModem};
use proptest::prelude::*;
use std::collections::VecDeque;

/// An energy drawn from `code`: mostly a clean (near-constant) or an
/// interfered (swinging) level, sometimes a value the windows must
/// sanitize or survive (NaN, ±∞, 1e300, 0, a negative).
fn energy(code: u64, interfered: bool) -> f64 {
    let u = (code >> 11) as f64 / (1u64 << 53) as f64;
    match code % 211 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1e300,
        4 => 0.0,
        5 => -u,
        _ if interfered => 4.0 * u,
        _ => 1.0 + 1e-3 * u,
    }
}

/// `(onset, overlap_end)` read off the full mask: the first flag in
/// `search_from..known_last` and one past the last.
fn span_from_mask(mask: &[bool], search_from: usize, known_last: usize) -> Option<(usize, usize)> {
    let onset = mask[search_from..known_last]
        .iter()
        .position(|&m| m)
        .map(|p| p + search_from)?;
    let end = mask[onset..known_last]
        .iter()
        .rposition(|&m| m)
        .map(|p| p + onset + 1)
        .unwrap_or(known_last);
    Some((onset, end))
}

/// `SignalDetector::detect` scanning the whole region interior for the
/// variance peak, without stopping at the first window over the
/// threshold.
fn detect_full_scan(cfg: &DetectorConfig, samples: &[Cplx]) -> Option<ClassifiedSignal> {
    let w = cfg.window;
    if samples.len() < w {
        return None;
    }
    let gate = cfg.noise_floor * db_to_linear(cfg.energy_threshold_db);
    let mut ew = EnergyWindow::new(w);
    let mut start = None;
    for (i, &s) in samples.iter().enumerate() {
        ew.push(s);
        if ew.is_full() && ew.mean() > gate {
            start = Some(i + 1 - w);
            break;
        }
    }
    let start = start?;
    let mut ew = EnergyWindow::new(w);
    let mut end = samples.len();
    for (i, &s) in samples.iter().enumerate().skip(start) {
        ew.push(s);
        if ew.is_full() && ew.mean() <= gate {
            end = (i + 1).max(start + 1);
            break;
        }
    }
    let region = &samples[start..end];
    let interior = if region.len() > 2 * w {
        &region[w..region.len() - w]
    } else {
        region
    };
    let mut vw = VarianceWindow::new(w.max(8));
    let mut peak_nv: f64 = 0.0;
    for &s in interior {
        vw.push(s);
        if vw.is_full() {
            let (m, var) = vw.mean_and_variance();
            if m > 0.0 {
                peak_nv = peak_nv.max(var / (m * m));
            }
        }
    }
    Some(ClassifiedSignal {
        start,
        end,
        interfered: peak_nv > cfg.variance_threshold,
        mean_energy: Cplx::mean_energy(interior),
        peak_normalized_variance: peak_nv,
    })
}

/// An energy window on a `VecDeque`, summing oldest to newest when the
/// running sum goes negative.
struct DequeEnergyWindow {
    buf: VecDeque<f64>,
    cap: usize,
    sum: f64,
}

impl DequeEnergyWindow {
    fn new(cap: usize) -> Self {
        DequeEnergyWindow {
            buf: VecDeque::with_capacity(cap),
            cap,
            sum: 0.0,
        }
    }

    fn push_energy(&mut self, energy: f64) {
        let energy = if energy.is_finite() { energy } else { 0.0 };
        if self.buf.len() == self.cap {
            if let Some(old) = self.buf.pop_front() {
                self.sum -= old;
            }
        }
        self.buf.push_back(energy);
        self.sum += energy;
        if self.sum < 0.0 {
            self.sum = self.buf.iter().sum();
        }
    }

    fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            (self.sum / self.buf.len() as f64).max(0.0)
        }
    }
}

/// A sample component drawn from `code`, covering the degenerate values
/// the sign-only decision must treat exactly as `atan2` would.
fn component(code: u64) -> f64 {
    let u = (code >> 11) as f64 / (1u64 << 53) as f64;
    match code % 13 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::MIN_POSITIVE * u,
        6 => -f64::MIN_POSITIVE * u,
        _ => 4.0 * u - 2.0,
    }
}

proptest! {
    /// The span equals the mask's first and last flags in
    /// `search_from..known_last`, for every window length 4–64 (many
    /// not a multiple of the four variance accumulators), past several
    /// running-sum refreshes, with non-finite and huge energies, and
    /// with one sums buffer reused dirty across calls.
    #[test]
    fn interference_span_matches_mask(
        codes in proptest::collection::vec(any::<u64>(), 0..1500),
        window in 4usize..65,
        threshold in 0.001f64..1.0,
        burst_a in any::<u64>(), burst_b in any::<u64>(),
        from_code in any::<u64>(), last_code in any::<u64>(),
    ) {
        let n = codes.len();
        let (lo, hi) = if n == 0 {
            (0, 0)
        } else {
            let (a, b) = ((burst_a % n as u64) as usize, (burst_b % n as u64) as usize);
            (a.min(b), a.max(b))
        };
        let energies: Vec<f64> = codes
            .iter()
            .enumerate()
            .map(|(i, &c)| energy(c, (lo..hi).contains(&i)))
            .collect();
        let det = SignalDetector::new(DetectorConfig {
            window,
            variance_threshold: threshold,
            ..Default::default()
        });
        let mut mask = Vec::new();
        det.interference_mask_from_energies(&energies, &mut mask);
        let mut sums = vec![f64::NAN; 7];
        // Two searches per case, so the sums buffer is reused.
        for (from_code, last_code) in [(from_code, last_code), (last_code, from_code)] {
            let known_last = (last_code % (n as u64 + 1)) as usize;
            // A quarter of the searches start within the first window.
            let from_range = if from_code % 4 == 0 { window.min(known_last) } else { known_last };
            let search_from = (from_code % (from_range as u64 + 1)) as usize;
            prop_assert_eq!(
                det.interference_span(&energies, search_from, known_last, &mut sums),
                span_from_mask(&mask, search_from, known_last),
                "window {} search_from {} known_last {} n {}", window, search_from, known_last, n
            );
            // The decoder's own case: the search runs to the end.
            prop_assert_eq!(
                det.interference_span(&energies, search_from.min(n), n, &mut sums),
                span_from_mask(&mask, search_from.min(n), n)
            );
        }
    }

    /// The replayed running sums and window statistics equal a live
    /// `VarianceWindow`'s, bit for bit, over any range of pushes: from
    /// the first push or mid-stream, across refreshes, into a dirty
    /// buffer.
    #[test]
    fn variance_window_replay_matches_live_window(
        codes in proptest::collection::vec(any::<u64>(), 0..2000),
        cap in 2usize..70,
        start_code in any::<u64>(), end_code in any::<u64>(),
    ) {
        let energies: Vec<f64> = codes.iter().map(|&c| energy(c, c % 3 == 0)).collect();
        let n = energies.len() as u64;
        let end = (end_code % (n + 1)) as usize;
        let start = if start_code % 4 == 0 { 0 } else { (start_code % (end as u64 + 1)) as usize };
        let mut sums = vec![f64::NAN; 5];
        VarianceWindow::replay_sums_into(cap, &energies, start..end, &mut sums);
        prop_assert_eq!(sums.len(), end - start);
        let mut live = VarianceWindow::new(cap);
        for (i, &e) in energies[..end].iter().enumerate() {
            live.push_energy(e);
            if i < start {
                continue;
            }
            let sum = sums[i - start];
            prop_assert_eq!(
                live.mean().to_bits(),
                (sum / live.len() as f64).to_bits(),
                "cap {} sum at {}", cap, i
            );
            if live.is_full() {
                let (m, v) = live.mean_and_variance();
                let (rm, rv) = VarianceWindow::replay_mean_and_variance(cap, &energies, i, sum);
                prop_assert_eq!(m.to_bits(), rm.to_bits(), "cap {} mean at {}", cap, i);
                prop_assert_eq!(v.to_bits(), rv.to_bits(), "cap {} variance at {}", cap, i);
            }
        }
    }

    /// Early-exit detection agrees with the full interior scan on the
    /// region and the verdict. A clean region reports the same peak; an
    /// interfered one reports a value over the threshold that the full
    /// scan's peak bounds.
    #[test]
    fn early_exit_detect_matches_full_scan(
        seed in any::<u64>(),
        lead in 0usize..400, overlap in any::<bool>(),
        stagger in 0usize..300, len_a in 40usize..500, len_b in 40usize..500,
        gain_b in 0.2f64..1.5, noise_db in 10.0f64..40.0,
        window in 4usize..48, threshold in 0.005f64..0.5,
        poison in 0usize..6,
    ) {
        let mut rng = DspRng::seed_from(seed);
        let modem = MskModem::default();
        let noise = db_to_linear(-noise_db);
        let a = modem.modulate(&rng.bits(len_a));
        let b = if overlap { modem.modulate(&rng.bits(len_b)) } else { Vec::new() };
        let rb = rng.phase();
        let span = lead + (stagger + b.len()).max(a.len()) + 200;
        let mut rx: Vec<Cplx> = (0..span)
            .map(|t| {
                let mut s = rng.complex_gaussian(noise);
                if t >= lead && t - lead < a.len() {
                    s += a[t - lead];
                }
                if t >= lead + stagger && t - lead - stagger < b.len() {
                    s += b[t - lead - stagger].scale(gain_b).rotate(rb + 0.02 * t as f64);
                }
                s
            })
            .collect();
        // A few degenerate samples the windows must sanitize.
        for k in 0..poison {
            let at = (rng.next_u64() % rx.len() as u64) as usize;
            rx[at] = match k % 3 {
                0 => Cplx::new(f64::NAN, 0.0),
                1 => Cplx::new(f64::INFINITY, 1.0),
                _ => Cplx::new(1e150, 1e150),
            };
        }
        let cfg = DetectorConfig {
            window,
            variance_threshold: threshold,
            noise_floor: noise,
            ..Default::default()
        };
        let fast = SignalDetector::new(cfg).detect(&rx);
        let full = detect_full_scan(&cfg, &rx);
        match (fast, full) {
            (None, None) => {}
            (Some(f), Some(r)) => {
                prop_assert_eq!((f.start, f.end, f.interfered), (r.start, r.end, r.interfered));
                prop_assert_eq!(f.mean_energy.to_bits(), r.mean_energy.to_bits());
                if f.interfered {
                    prop_assert!(f.peak_normalized_variance > threshold);
                    prop_assert!(f.peak_normalized_variance <= r.peak_normalized_variance);
                } else {
                    prop_assert_eq!(
                        f.peak_normalized_variance.to_bits(),
                        r.peak_normalized_variance.to_bits()
                    );
                }
            }
            (f, r) => prop_assert!(false, "diverged: {:?} vs {:?}", f, r),
        }
    }

    /// The hard demodulator equals the thresholded soft one at 1, 2 and
    /// 4 samples per symbol, over ±0, NaN, ±∞ and subnormal components.
    #[test]
    fn demodulate_matches_thresholded_soft(
        codes in proptest::collection::vec(any::<u64>(), 0..300),
        sps_code in 0usize..3,
    ) {
        let modem = MskModem::new(MskConfig::oversampled([1, 2, 4][sps_code]));
        let samples: Vec<Cplx> = codes
            .chunks_exact(2)
            .map(|c| Cplx::new(component(c[0]), component(c[1])))
            .collect();
        let soft: Vec<bool> = modem
            .demodulate_soft(&samples)
            .into_iter()
            .map(|dphi| dphi >= 0.0)
            .collect();
        prop_assert_eq!(modem.demodulate(&samples), soft);
    }

    /// The flat-ring energy window reports the deque window's mean bit
    /// for bit after every push, including the recompute a negative
    /// running sum triggers and a clear halfway through.
    #[test]
    fn flat_ring_energy_window_matches_deque(
        codes in proptest::collection::vec(any::<u64>(), 0..400),
        cap in 1usize..40,
        negatives in any::<bool>(),
    ) {
        let mut ring = EnergyWindow::new(cap);
        let mut deque = DequeEnergyWindow::new(cap);
        for (i, &c) in codes.iter().enumerate() {
            if i == codes.len() / 2 {
                ring.clear();
                deque = DequeEnergyWindow::new(cap);
            }
            let e = match c % 7 {
                0 if negatives => -(energy(c >> 3, true).abs()),
                _ => energy(c >> 3, c % 2 == 1),
            };
            ring.push_energy(e);
            deque.push_energy(e);
            prop_assert_eq!(ring.len(), deque.buf.len());
            prop_assert_eq!(ring.is_full(), deque.buf.len() == cap);
            prop_assert_eq!(ring.mean().to_bits(), deque.mean().to_bits(), "push {}", i);
        }
    }
}
