//! Property-based tests for the frame codec: roundtrip identity, limit
//! enforcement, and totality on hostile input — all through
//! [`Frame::read_from`], the decoder a blocking `Connection` runs.

use proptest::prelude::*;
use tacoma_transport::{Frame, FrameKind, FrameLimits, TransportError, FRAME_HEADER_LEN};

/// Every kind on the wire today. Kinds 4 and 5 are retired.
const KINDS: [FrameKind; 8] = [
    FrameKind::Hello,
    FrameKind::Welcome,
    FrameKind::Reject,
    FrameKind::Stats,
    FrameKind::StatsReply,
    FrameKind::Bye,
    FrameKind::BriefcaseSeq,
    FrameKind::AckSeq,
];

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    (0..KINDS.len()).prop_map(|i| KINDS[i])
}

/// Decodes one frame from the front of `wire`, returning it and the
/// number of bytes consumed.
fn read_one(wire: &[u8], limits: &FrameLimits) -> Result<(Frame, usize), TransportError> {
    let mut rest = wire;
    let frame = Frame::read_from(&mut rest, limits)?;
    Ok((frame, wire.len() - rest.len()))
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (arb_kind(), prop::collection::vec(any::<u8>(), 0..2048))
        .prop_map(|(kind, payload)| Frame::new(kind, payload))
}

proptest! {
    /// encode → read is the identity and consumes exactly the encoding.
    #[test]
    fn roundtrip(frame in arb_frame()) {
        let wire = frame.encode();
        let (back, used) = read_one(&wire, &FrameLimits::default()).unwrap();
        prop_assert_eq!(back, frame);
        prop_assert_eq!(used, wire.len());
    }

    /// Stream write agrees with the buffer encoding.
    #[test]
    fn stream_roundtrip(frame in arb_frame()) {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        prop_assert_eq!(&buf, &frame.encode());
        let back = Frame::read_from(&mut buf.as_slice(), &FrameLimits::default()).unwrap();
        prop_assert_eq!(back, frame);
    }

    /// Two frames back-to-back decode in order from one buffer.
    #[test]
    fn frames_are_self_delimiting(a in arb_frame(), b in arb_frame()) {
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        let limits = FrameLimits::default();
        let (first, used) = read_one(&wire, &limits).unwrap();
        let (second, rest) = read_one(&wire[used..], &limits).unwrap();
        prop_assert_eq!(first, a);
        prop_assert_eq!(second, b);
        prop_assert_eq!(used + rest, wire.len());
    }

    /// Any payload larger than the limit is refused with `FrameTooLarge`,
    /// regardless of how much of it is actually present.
    #[test]
    fn over_limit_is_rejected(
        kind in arb_kind(),
        limit in 0u64..512,
        excess in 1u64..512,
        present in 0usize..64,
    ) {
        let declared = limit + excess;
        let mut wire = Frame::new(kind, Vec::new()).encode();
        wire[6..10].copy_from_slice(&(declared as u32).to_le_bytes());
        wire.truncate(FRAME_HEADER_LEN);
        wire.extend(std::iter::repeat_n(0u8, present));
        let err = read_one(&wire, &FrameLimits { max_frame: limit }).unwrap_err();
        prop_assert!(matches!(err, TransportError::FrameTooLarge { .. }));
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decoder_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_one(&bytes, &FrameLimits::default());
    }

    /// Corrupting any single header byte of a valid frame either still
    /// decodes (length-compatible payload flip) or yields a structured
    /// error — never a panic or an over-read.
    #[test]
    fn header_corruption_is_contained(frame in arb_frame(), idx in 0usize..FRAME_HEADER_LEN, xor in 1u8..) {
        let mut wire = frame.encode();
        wire[idx] ^= xor;
        let _ = read_one(&wire, &FrameLimits::default());
    }
}
