//! Property-based tests for the framing substrate.

use anc_frame::crc::{append_crc16, crc16, crc8, verify_crc16};
use anc_frame::fec::ideal_redundancy_for_ber;
use anc_frame::{Frame, FrameConfig, Header, SentPacketBuffer};
use proptest::prelude::*;

proptest! {
    /// Header serialization is a bijection over all field values.
    #[test]
    fn header_bijective(
        src in any::<u8>(), dst in any::<u8>(),
        seq in any::<u16>(), len in any::<u16>(), flags in any::<u8>(),
    ) {
        let mut h = Header::new(src, dst, seq, len);
        h.flags = flags;
        let bits = h.to_bits();
        prop_assert_eq!(bits.len(), 64);
        prop_assert_eq!(Header::from_bits(&bits), Some(h));
    }

    /// Any single-bit header corruption is rejected.
    #[test]
    fn header_crc8_catches_flips(
        src in any::<u8>(), dst in any::<u8>(), seq in any::<u16>(),
        flip in 0usize..64,
    ) {
        let h = Header::new(src, dst, seq, 100);
        let mut bits = h.to_bits();
        bits[flip] = !bits[flip];
        prop_assert_eq!(Header::from_bits(&bits), None);
    }

    /// CRC-16 append/verify roundtrip; any 1–3 bit corruption caught.
    #[test]
    fn crc16_roundtrip_and_detection(
        data in proptest::collection::vec(any::<bool>(), 1..200),
        flips in proptest::collection::btree_set(0usize..100, 1..4),
    ) {
        let mut bits = data.clone();
        append_crc16(&mut bits);
        prop_assert_eq!(verify_crc16(&bits), Some(&data[..]));
        let mut corrupt = bits.clone();
        for &f in &flips {
            let idx = f % corrupt.len();
            corrupt[idx] = !corrupt[idx];
        }
        // flips are distinct positions mod len — recompute distinctness
        let distinct: std::collections::BTreeSet<usize> =
            flips.iter().map(|f| f % bits.len()).collect();
        if !distinct.is_empty() && distinct.len() == flips.len() {
            prop_assert_eq!(verify_crc16(&corrupt), None);
        }
    }

    /// crc16/crc8 are deterministic functions of the bits.
    #[test]
    fn crc_deterministic(data in proptest::collection::vec(any::<bool>(), 0..300)) {
        prop_assert_eq!(crc16(&data), crc16(&data));
        prop_assert_eq!(crc8(&data), crc8(&data));
    }

    /// Frame total length matches the config arithmetic for any payload.
    #[test]
    fn frame_length_arithmetic(payload_len in 0usize..400) {
        let cfg = FrameConfig::default();
        let f = Frame::new(Header::new(1, 2, 3, 0), vec![true; payload_len]);
        prop_assert_eq!(f.to_bits(&cfg).len(), cfg.frame_bits(payload_len));
        prop_assert_eq!(f.bit_len(&cfg), payload_len + cfg.overhead_bits());
    }

    /// locate_and_parse finds a frame planted at any offset in noise.
    #[test]
    fn frame_locates_at_any_offset(
        payload in proptest::collection::vec(any::<bool>(), 16..128),
        offset in 0usize..200,
        seed in any::<u64>(),
    ) {
        let cfg = FrameConfig::default();
        let f = Frame::new(Header::new(9, 8, 77, 0), payload);
        let mut rng = anc_dsp::DspRng::seed_from(seed);
        let mut stream = rng.bits(offset);
        stream.extend(f.to_bits(&cfg));
        stream.extend(rng.bits(64));
        let (parsed, off) = Frame::locate_and_parse(&stream, &cfg).unwrap();
        prop_assert_eq!(parsed, f);
        // The pilot may coincidentally match earlier inside random
        // bits only with ≥ best-quality correlation — for an exact
        // planted pilot the match must be exact.
        prop_assert!(off <= offset);
    }

    /// Backward parse agrees with forward parse for any frame.
    #[test]
    fn backward_equals_forward(
        payload in proptest::collection::vec(any::<bool>(), 0..128),
        src in any::<u8>(), seq in any::<u16>(),
    ) {
        let cfg = FrameConfig::default();
        let f = Frame::new(Header::new(src, 2, seq, 0), payload);
        let bits = f.to_bits(&cfg);
        let fwd = Frame::from_bits(&bits, &cfg).unwrap();
        let (bwd, _) = Frame::parse_backward(&bits, &cfg).unwrap();
        prop_assert_eq!(fwd, bwd);
    }

    /// The paper's redundancy rule is monotone and clamped.
    #[test]
    fn redundancy_rule_monotone(a in 0.0f64..0.6, b in 0.0f64..0.6) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(ideal_redundancy_for_ber(lo) <= ideal_redundancy_for_ber(hi));
        prop_assert!(ideal_redundancy_for_ber(hi) <= 1.0);
    }

    /// The sent-packet buffer never exceeds capacity and always holds
    /// the most recent insertions.
    #[test]
    fn buffer_capacity_invariant(
        cap in 1usize..16,
        seqs in proptest::collection::vec(any::<u16>(), 1..64),
    ) {
        let mut buf = SentPacketBuffer::new(cap);
        for &s in &seqs {
            buf.insert(Frame::new(Header::new(1, 2, s, 0), vec![]));
            prop_assert!(buf.len() <= cap);
        }
        // The most recently inserted key is always present.
        let last = *seqs.last().unwrap();
        let key = anc_frame::PacketKey { src: 1, dst: 2, seq: last };
        prop_assert!(buf.contains(&key));
    }
}
