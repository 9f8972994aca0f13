//! Replays of single layers, timed from the benchmark's side of each
//! crate's public API.
//!
//! * [`replay_phy`] drives one packet exchange at a time through
//!   `anc_node::synthesize` → `anc_channel::mix_window` (uplink) →
//!   `AncDecoder::classify` + `AmplifyForward::amplify_window` (relay)
//!   → `mix_window` (downlink) → `RxChain::process` at each endpoint,
//!   and then, on the same window, the calls `process` makes inside
//!   itself (`classify`, `decode_{forward,backward}_with`,
//!   `Frame::parse_lenient`), so the receive chain's own work can be
//!   estimated by subtraction. Clean single-packet hops (the
//!   traditional scheme) take the same route without the relay and the
//!   interference decode.
//! * [`grid`] builds and queries `SpatialGrid` over city positions.
//! * [`ring_hops`] pushes items through the benchmark's own
//!   pass-through blocks on `anc-runtime` rings under either executor.

use crate::trace::Tracer;
use anc_channel::{mix_window, AmplifyForward, Link, SpatialGrid, WindowJob};
use anc_core::{AncDecoder, DecoderConfig, DecoderScratch, DetectorConfig, RouterPolicy};
use anc_dsp::{Cplx, DspRng};
use anc_frame::{Frame, FrameConfig, Header, SentPacketBuffer};
use anc_modem::{Modem, MskModem};
use anc_node::{synthesize, FrontEnd, RxChain, RxEvent, SynthJob, SynthSource, TxChain};
use anc_runtime::{
    channel, Block, BlockStatus, Consumer, DeterministicScheduler, Producer, Pump, Scheduler,
    WorkStealingScheduler,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Noise samples around every transmission in a replayed window.
const PAD: usize = 64;

/// How much PHY work to replay: sized to what one traced pass of the
/// workload executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyPlan {
    /// ANC exchanges (two packets each).
    pub exchanges: u64,
    /// Clean single-packet hops.
    pub clean_hops: u64,
    /// Payload bits per packet.
    pub payload_bits: usize,
    /// Receiver noise power.
    pub noise_power: f64,
    /// Seed of the replayed payloads, phases and noise.
    pub seed: u64,
}

/// Outcome counts of a PHY replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhyTotals {
    /// `RxChain::process` calls.
    pub rx_calls: u64,
    /// Calls that returned the expected packet (decoded or clean).
    pub rx_ok: u64,
    /// Interference decodes attempted.
    pub decode_calls: u64,
    /// Interference decodes that returned bits.
    pub decode_ok: u64,
    /// `Frame::parse_lenient` calls that failed.
    pub parse_failed: u64,
    /// `RxChain::process` time minus the same window's classify,
    /// decode and parse replayed on their own (ns).
    pub rx_self_ns: i64,
    /// Summed time of the top-level layer calls (synthesize, mix,
    /// relay classify, amplify, `RxChain::process`), in ns: what the
    /// replay attributes to the layers.
    pub layer_ns: u64,
    /// Summed `RxChain::process` time (ns).
    pub rx_ns: u64,
    /// Summed time of the endpoint decodes and their frame parses (ns):
    /// what a caller of the decoder that bypasses `RxChain` spends.
    pub decode_parse_ns: u64,
}

/// Everything the PHY replay holds across exchanges.
struct Phy {
    frame_cfg: FrameConfig,
    tx: TxChain,
    decoder: AncDecoder,
    rx: [RxChain; 2],
    buffers: [SentPacketBuffer; 2],
    empty: SentPacketBuffer,
    policy: RouterPolicy,
    modem: MskModem,
    scratch: DecoderScratch,
    window: Vec<Cplx>,
    noise_power: f64,
}

impl Phy {
    fn new(noise_power: f64) -> Phy {
        let frame_cfg = FrameConfig::default();
        let dec = DecoderConfig {
            frame: frame_cfg,
            detector: DetectorConfig {
                noise_floor: noise_power,
                ..DetectorConfig::default()
            },
            ..DecoderConfig::default()
        };
        Phy {
            frame_cfg,
            tx: TxChain::new(frame_cfg),
            decoder: AncDecoder::new(dec),
            rx: [RxChain::new(dec), RxChain::new(dec)],
            buffers: [SentPacketBuffer::new(64), SentPacketBuffer::new(64)],
            empty: SentPacketBuffer::new(1),
            policy: RouterPolicy::new(),
            modem: MskModem::default(),
            scratch: DecoderScratch::default(),
            window: Vec::new(),
            noise_power,
        }
    }

    /// Superposes `txs` (wave, start, gain) into `self.window`.
    fn mix(&mut self, t: &mut Tracer, rng: &mut DspRng, txs: Vec<(Arc<Vec<Cplx>>, usize)>) {
        let duration = txs.iter().map(|(w, s)| s + w.len()).max().unwrap_or(0) + PAD;
        let job = WindowJob {
            duration,
            noise_power: self.noise_power,
            noise: DspRng::seed_from(rng.next_u64()),
            transmissions: txs
                .into_iter()
                .map(|(w, s)| {
                    let link = Link::new(rng.uniform_range(0.7, 1.0), rng.phase(), 0.0);
                    (w, s, link)
                })
                .collect(),
            tones: Vec::new(),
            jammer: None,
            tag: 0,
        };
        let window = &mut self.window;
        t.time("channel.mix", || mix_window(job, window));
        t.samples(duration);
    }

    fn synth(&self, t: &mut Tracer, rng: &mut DspRng, frame: &Frame) -> (Arc<Vec<Cplx>>, u64) {
        let front_end = FrontEnd {
            osc_offset: rng.uniform_range(-0.03, 0.03),
            amplitude: 1.0,
        };
        let job = SynthJob {
            source: SynthSource::Frame(frame.clone()),
            carrier_phase: rng.phase(),
            cfo: 0.0,
        };
        let wave = t.time("node.synthesize", || synthesize(&self.tx, &front_end, job));
        t.samples(wave.len());
        (Arc::new(wave), t.last_ns())
    }

    /// One ANC exchange between endpoints 1 and 3 through relay 2.
    fn exchange(
        &mut self,
        t: &mut Tracer,
        rng: &mut DspRng,
        bits: usize,
        seq: u16,
        tot: &mut PhyTotals,
    ) {
        let frames = [
            Frame::new(Header::new(1, 3, seq, 0), rng.bits(bits)),
            Frame::new(Header::new(3, 1, seq, 0), rng.bits(bits)),
        ];
        let a_first = rng.bit();
        // §7.2 stagger: clear the leader's pilot and header, keep the
        // payloads overlapping.
        let gap = 192 + rng.uniform_int(0, 96) as usize;
        let (wa, na) = self.synth(t, rng, &frames[0]);
        let (wb, nb) = self.synth(t, rng, &frames[1]);
        tot.layer_ns += na + nb;
        let (sa, sb) = if a_first {
            (PAD, PAD + gap)
        } else {
            (PAD + gap, PAD)
        };
        self.mix(t, rng, vec![(wa, sa), (wb, sb)]);
        tot.layer_ns += t.last_ns();
        let region = t.time("core.classify", || self.decoder.classify(&self.window));
        t.samples(self.window.len());
        tot.layer_ns += t.last_ns();
        let Some(region) = region else {
            tot.rx_calls += 2;
            return;
        };
        let (amp, _) = t.time("channel.amplify", || {
            AmplifyForward::new(1.0).amplify_window(&self.window, region.start, region.end)
        });
        t.samples(amp.len());
        tot.layer_ns += t.last_ns();
        let amp = Arc::new(amp);
        for side in 0..2 {
            let own_first = (side == 0) == a_first;
            self.buffers[side].insert(frames[side].clone());
            self.mix(t, rng, vec![(Arc::clone(&amp), PAD)]);
            tot.layer_ns += t.last_ns();
            let (window, rx, buffer) = (&self.window, &mut self.rx[side], &self.buffers[side]);
            let event = t.time("node.rx", || rx.process(window, buffer, &self.policy));
            t.samples(window.len());
            let rx_ns = t.last_ns();
            tot.layer_ns += rx_ns;
            tot.rx_ns += rx_ns;
            tot.rx_calls += 1;
            if matches!(&event, RxEvent::AncDecoded { frame, .. } if frame.header == frames[1 - side].header)
            {
                tot.rx_ok += 1;
            }
            // The calls `process` makes, replayed on the same window.
            let mut child_ns = 0;
            t.time("core.classify", || self.decoder.classify(window));
            t.samples(window.len());
            child_ns += t.last_ns();
            let own = frames[side].to_bits(&self.frame_cfg);
            let scratch = &mut self.scratch;
            let decoded = t.time("core.decode", || {
                if own_first {
                    self.decoder.decode_forward_with(window, &own, scratch)
                } else {
                    self.decoder.decode_backward_with(window, &own, scratch)
                }
            });
            t.samples(window.len());
            child_ns += t.last_ns();
            tot.decode_parse_ns += t.last_ns();
            tot.decode_calls += 1;
            if let Ok(out) = decoded {
                tot.decode_ok += 1;
                let parsed = t.time("frame.parse", || {
                    Frame::parse_lenient(&out.bits, &self.frame_cfg)
                });
                t.samples(out.bits.len());
                child_ns += t.last_ns();
                tot.decode_parse_ns += t.last_ns();
                tot.parse_failed += u64::from(parsed.is_err());
            }
            tot.rx_self_ns += rx_ns as i64 - child_ns as i64;
        }
    }

    /// One clean hop from node 1 to node 2.
    fn hop(
        &mut self,
        t: &mut Tracer,
        rng: &mut DspRng,
        bits: usize,
        seq: u16,
        tot: &mut PhyTotals,
    ) {
        let frame = Frame::new(Header::new(1, 2, seq, 0), rng.bits(bits));
        let (wave, n) = self.synth(t, rng, &frame);
        tot.layer_ns += n;
        self.mix(t, rng, vec![(wave, PAD)]);
        tot.layer_ns += t.last_ns();
        let (window, rx) = (&self.window, &mut self.rx[0]);
        let event = t.time("node.rx", || rx.process(window, &self.empty, &self.policy));
        t.samples(window.len());
        let rx_ns = t.last_ns();
        tot.layer_ns += rx_ns;
        tot.rx_ns += rx_ns;
        tot.rx_calls += 1;
        if matches!(&event, RxEvent::Clean { frame: f, crc_ok: true } if f.header == frame.header) {
            tot.rx_ok += 1;
        }
        let mut child_ns = 0;
        let region = t.time("core.classify", || self.decoder.classify(window));
        t.samples(window.len());
        child_ns += t.last_ns();
        if let Some(region) = region {
            let bits = self.modem.demodulate(&window[region.start..region.end]);
            let parsed = t.time("frame.parse", || {
                Frame::parse_lenient(&bits, &self.frame_cfg)
            });
            t.samples(bits.len());
            child_ns += t.last_ns();
            tot.parse_failed += u64::from(parsed.is_err());
        }
        tot.rx_self_ns += rx_ns as i64 - child_ns as i64;
    }
}

/// Replays `plan`'s exchanges and hops, one traced operation each.
pub fn replay_phy(plan: &PhyPlan, t: &mut Tracer) -> PhyTotals {
    let mut phy = Phy::new(plan.noise_power);
    let mut rng = DspRng::seed_from(plan.seed);
    let mut tot = PhyTotals::default();
    for i in 0..plan.exchanges {
        let seq = (i % 65_536) as u16;
        t.op("replay.exchange", |t| {
            phy.exchange(t, &mut rng, plan.payload_bits, seq, &mut tot)
        });
    }
    for i in 0..plan.clean_hops {
        let seq = (i % 65_536) as u16;
        t.op("replay.hop", |t| {
            phy.hop(t, &mut rng, plan.payload_bits, seq, &mut tot)
        });
    }
    tot
}

/// Node positions of a city street grid with `cells` relay cells of
/// three nodes each, laid out as the city engine's urban grid (45 m
/// cells along 167-cell streets 30 m apart, ±2 m jitter).
pub fn city_positions(cells: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = DspRng::seed_from(seed);
    let mut pos = Vec::with_capacity(3 * cells);
    for cell in 0..cells {
        let (cx, cy) = ((cell % 167) as f64, (cell / 167) as f64);
        for slot in 0..3 {
            pos.push((
                cx * 45.0 + slot as f64 * 15.0 + rng.uniform_range(-2.0, 2.0),
                cy * 30.0 + rng.uniform_range(-2.0, 2.0),
            ));
        }
    }
    pos
}

/// Queries per `channel.grid.query` span (one query is far shorter
/// than the span's own timing cost).
pub const GRID_QUERY_BATCH: usize = 1024;

/// Builds the grid `builds` times over `positions`, then queries the
/// neighbourhood of every position. Returns the candidates found (a
/// checksum that keeps the work observable).
pub fn grid(positions: &[(f64, f64)], radius: f64, builds: usize, t: &mut Tracer) -> u64 {
    let subset: Vec<u32> = (0..positions.len() as u32).collect();
    let mut grid = None;
    for _ in 0..builds {
        grid = Some(t.time("channel.grid.build", || {
            SpatialGrid::build_subset(positions, &subset, radius)
        }));
        t.samples(positions.len());
    }
    let grid = grid.expect("at least one build");
    let mut found = 0u64;
    let mut out = Vec::new();
    for chunk in positions.chunks(GRID_QUERY_BATCH) {
        let n = t.time("channel.grid.query", || {
            let mut n = 0;
            for &p in chunk {
                out.clear();
                grid.candidates_into(p, &mut out);
                n += out.len() as u64;
            }
            n
        });
        t.samples(chunk.len());
        found += n;
    }
    found
}

/// A pass-through stage that counts its polls.
struct Relay {
    input: Consumer<u64>,
    output: Producer<u64>,
    staged: Option<u64>,
    polls: Arc<AtomicU64>,
    idle: Arc<AtomicU64>,
}

impl Block for Relay {
    fn name(&self) -> &str {
        "perfbench-relay"
    }

    fn poll(&mut self) -> BlockStatus {
        let mut progressed = false;
        loop {
            if let Some(v) = self.staged.take() {
                if let Err(v) = self.output.try_push(v) {
                    self.staged = Some(v);
                    break;
                }
                progressed = true;
            }
            match self.input.try_pop() {
                Some(v) => self.staged = Some(v),
                None => break,
            }
        }
        // Relaxed: statistics only, read after the scheduler joined.
        self.polls.fetch_add(1, Ordering::Relaxed);
        if progressed {
            BlockStatus::Progress
        } else {
            self.idle.fetch_add(1, Ordering::Relaxed);
            BlockStatus::Idle
        }
    }
}

/// Result of one ring-hop measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hops {
    /// Wall time per ring transfer, in ns.
    pub ns_per_hop: f64,
    /// Block polls that found nothing to do, over all block polls.
    pub idle_poll_ratio: f64,
}

/// Pushes `items` values through `stages` pass-through blocks (so
/// `stages + 1` rings of `capacity`) on the deterministic executor, or
/// on the work-stealing one with `workers` threads when `workers > 0`.
pub fn ring_hops(
    items: u64,
    stages: usize,
    capacity: usize,
    workers: usize,
) -> Result<Hops, String> {
    let polls = Arc::new(AtomicU64::new(0));
    let idle = Arc::new(AtomicU64::new(0));
    let (mut head, mut rx) = channel::<u64>(capacity);
    let mut blocks: Vec<Box<dyn Block>> = Vec::with_capacity(stages);
    for _ in 0..stages {
        let (p, c) = channel::<u64>(capacity);
        blocks.push(Box::new(Relay {
            input: rx,
            output: p,
            staged: None,
            polls: Arc::clone(&polls),
            idle: Arc::clone(&idle),
        }));
        rx = c;
    }
    let mut tail = rx;
    let controller = Box::new(move |pump: &mut dyn Pump| -> Result<(), String> {
        let (mut sent, mut got) = (0u64, 0u64);
        while got < items {
            let mut moved = false;
            if sent < items && head.try_push(sent).is_ok() {
                sent += 1;
                moved = true;
            }
            while let Some(v) = tail.try_pop() {
                if v != got {
                    return Err(format!("ring reordered: got {v}, expected {got}"));
                }
                got += 1;
                moved = true;
            }
            if !moved && !pump.pump() {
                return Err(format!("ring graph stalled after {got} of {items} items"));
            }
        }
        Ok(())
    });
    let start = Instant::now();
    let result = if workers == 0 {
        DeterministicScheduler.run(blocks, controller)
    } else {
        WorkStealingScheduler::new(workers).run(blocks, controller)
    };
    let ns = start.elapsed().as_nanos() as f64;
    result?;
    let polls = polls.load(Ordering::Relaxed) as f64;
    Ok(Hops {
        ns_per_hop: ns / (items as f64 * (stages + 1) as f64),
        idle_poll_ratio: idle.load(Ordering::Relaxed) as f64 / polls.max(1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phy_replay_decodes_what_it_sends() {
        let mut t = Tracer::new();
        let plan = PhyPlan {
            exchanges: 3,
            clean_hops: 2,
            payload_bits: 256,
            noise_power: 1e-3,
            seed: 5,
        };
        let tot = replay_phy(&plan, &mut t);
        assert_eq!(tot.rx_calls, 8);
        assert_eq!(tot.rx_ok, 8, "{tot:?}");
        assert_eq!(tot.decode_calls, 6);
        assert_eq!(tot.decode_ok, 6);
        assert_eq!(tot.parse_failed, 0);
        let stats = t.stats();
        assert_eq!(stats["node.synthesize"].calls, 8);
        assert_eq!(stats["channel.mix"].calls, 11);
        assert_eq!(stats["channel.amplify"].calls, 3);
        assert_eq!(stats["frame.parse"].calls, 8);
        assert!(tot.layer_ns > 0);
    }

    #[test]
    fn rings_deliver_every_item_under_both_executors() {
        for workers in [0, 2] {
            let h = ring_hops(5_000, 3, 8, workers).unwrap();
            assert!(h.ns_per_hop > 0.0);
            assert!((0.0..=1.0).contains(&h.idle_poll_ratio));
        }
    }

    #[test]
    fn grid_finds_every_node_near_itself() {
        let pos = city_positions(400, 3);
        let mut t = Tracer::new();
        let found = grid(&pos, 40.0, 2, &mut t);
        assert!(found >= pos.len() as u64);
        assert_eq!(t.stats()["channel.grid.build"].calls, 2);
    }
}
