//! The Eq.-2 superposition of one reception window, as a pure job.
//!
//! A caller resolves everything stateful about a window (audibility,
//! link impairments, the forked noise stream, jammer bursts) in its
//! own order and describes the result as a [`WindowJob`];
//! [`mix_window`] then computes the superposition — the expensive
//! per-sample part — into a caller-owned buffer, wherever the caller
//! runs it. Both the scenario engine's node blocks and the city's
//! region blocks mix every window through this one function. Waves
//! arrive as `Arc<Vec<Cplx>>` because one slot's transmission fans out
//! to every receiver in range.

use crate::link::Link;
use crate::medium::{Medium, TransmissionRef};
use anc_dsp::{Cplx, DspRng};
use std::sync::Arc;

/// One fully resolved reception window for the superposition stage.
/// All RNG forks already happened on the caller's side; mixing this job
/// is a pure function of its fields.
#[derive(Debug, Clone)]
pub struct WindowJob {
    /// Window length in samples.
    pub duration: usize,
    /// Receiver noise power.
    pub noise_power: f64,
    /// The receiver's forked noise stream for this window.
    pub noise: DspRng,
    /// Audible transmissions: shared waveform, start sample, resolved
    /// link (impairments and fault gains already folded in). Summed in
    /// slice order — the engine lists them in fired order.
    pub transmissions: Vec<(Arc<Vec<Cplx>>, usize, Link)>,
    /// Fault-injected stuck-carrier tones, superposed after the real
    /// transmissions, each starting at sample 0.
    pub tones: Vec<(Vec<Cplx>, Link)>,
    /// Optional jammer burst: power and its coordinate-keyed stream,
    /// injected on top of the finished mixture.
    pub jammer: Option<(f64, DspRng)>,
    /// Caller correlation tag; [`mix_window`] ignores it.
    pub tag: u64,
}

/// Mixes one job into `window` (cleared and resized to the job's
/// duration, so a reused buffer allocates nothing once grown): the
/// transmissions in slice order, then the tones, then the jammer.
pub fn mix_window(job: WindowJob, window: &mut Vec<Cplx>) {
    let WindowJob {
        duration,
        noise_power,
        noise,
        transmissions,
        tones,
        jammer,
        tag: _,
    } = job;
    let mut refs: Vec<TransmissionRef<'_>> = Vec::with_capacity(transmissions.len() + tones.len());
    for (wave, start, link) in &transmissions {
        refs.push(TransmissionRef {
            samples: wave,
            start: *start,
            link: *link,
        });
    }
    for (tone, link) in &tones {
        refs.push(TransmissionRef {
            samples: tone,
            start: 0,
            link: *link,
        });
    }
    Medium::from_rng(noise_power, noise).receive_refs_into(&refs, duration, window);
    if let Some((power, rng)) = jammer {
        Medium::inject_jammer(window, power, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, seed: u64) -> Vec<Cplx> {
        let mut rng = DspRng::seed_from(seed);
        (0..n).map(|_| Cplx::from_polar(1.0, rng.phase())).collect()
    }

    #[test]
    fn block_matches_inline_medium_path() {
        // mix_window must reproduce Medium::receive_refs_into (+ jammer)
        // bit for bit: same summation order, same noise stream — and
        // a dirty, oversized reused buffer must not leak into it.
        let w0 = Arc::new(wave(40, 1));
        let w1 = Arc::new(wave(32, 2));
        let tone = wave(64, 3);
        let links = [
            Link::new(0.9, 0.3, 0.0),
            Link::new(0.7, 1.1, 0.0),
            Link::new(0.5, 0.0, 0.0),
        ];
        let duration = 64usize;
        let noise_power = 1e-3;
        let mut rng = DspRng::seed_from(99);
        let noise = rng.fork(0);
        let jam = rng.fork(1);

        let mut expect = Vec::new();
        let refs = [
            TransmissionRef {
                samples: &w0,
                start: 4,
                link: links[0],
            },
            TransmissionRef {
                samples: &w1,
                start: 10,
                link: links[1],
            },
            TransmissionRef {
                samples: &tone,
                start: 0,
                link: links[2],
            },
        ];
        Medium::from_rng(noise_power, noise.clone()).receive_refs_into(
            &refs,
            duration,
            &mut expect,
        );
        Medium::inject_jammer(&mut expect, 0.25, jam.clone());

        let mut got = vec![Cplx::ONE; 128];
        mix_window(
            WindowJob {
                duration,
                noise_power,
                noise,
                transmissions: vec![(w0, 4, links[0]), (w1, 10, links[1])],
                tones: vec![(tone, links[2])],
                jammer: Some((0.25, jam)),
                tag: 7,
            },
            &mut got,
        );
        assert_eq!(got.len(), expect.len());
        for (a, b) in got.iter().zip(&expect) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}
