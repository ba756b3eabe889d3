//! Fault injection against the TCP client: dead peers, half-closed
//! connections, handshake rejection, and peers speaking the retired
//! unsequenced dialect — proving the reactor reconnects when it can and
//! reports honestly when it cannot.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use tacoma_transport::{
    build_hello, build_welcome, split_seq, BackoffPolicy, ConnectConfig, Frame, FrameKind,
    FrameLimits, ListenerConfig, ReactorConfig, ReactorTransport, Transport, TransportError,
    TransportListener, FRAME_MAGIC, FRAME_VERSION,
};

/// A reactor config that gives up quickly: fast backoff, a short ack
/// timeout, and a retry budget of a few hundred milliseconds.
fn fast_config() -> ReactorConfig {
    ReactorConfig {
        connect: ConnectConfig {
            local_host: "alpha".to_owned(),
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(2),
            ..ConnectConfig::default()
        },
        shards: 1,
        ack_timeout: Duration::from_millis(200),
        retry_budget: Duration::from_millis(300),
        backoff: BackoffPolicy::fast(),
        ..ReactorConfig::default()
    }
}

fn fast_transport() -> ReactorTransport {
    ReactorTransport::new(fast_config())
}

/// A port nothing listens on (bind, then drop).
fn dead_port() -> u16 {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    probe.local_addr().unwrap().port()
}

/// Nothing listening at all: every attempt fails, the caller gets
/// `RetriesExhausted` once the budget runs out, and the counters
/// account for every retry.
#[test]
fn dead_peer_exhausts_retries() {
    let transport = fast_transport();
    let err = transport
        .send("alpha", "127.0.0.1", dead_port(), b"payload")
        .unwrap_err();
    let TransportError::RetriesExhausted { attempts, .. } = err else {
        panic!("expected RetriesExhausted, got {err:?}");
    };
    assert!(
        attempts >= 2,
        "backoff retried within the budget: {attempts}"
    );

    let stats = transport.stats();
    assert_eq!(stats.frames_sent, 0);
    assert_eq!(stats.retry_timeouts, 1);
    assert_eq!(stats.reconnects, u64::from(attempts) - 1);
}

/// Answers the handshake on a raw socket: read HELLO, send WELCOME.
fn serve_handshake(stream: &mut TcpStream) {
    let limits = FrameLimits::default();
    let hello = Frame::read_from(stream, &limits).unwrap();
    assert_eq!(hello.kind, FrameKind::Hello);
    Frame::new(FrameKind::Welcome, build_welcome("beta"))
        .write_to(stream)
        .unwrap();
}

/// Reads one `BriefcaseSeq` frame, returning its seq and message.
fn read_seq_frame(stream: &mut TcpStream) -> (u64, bytes::Bytes) {
    let frame = Frame::read_from(stream, &FrameLimits::default()).unwrap();
    assert_eq!(frame.kind, FrameKind::BriefcaseSeq);
    split_seq(&frame.payload).unwrap()
}

/// A peer that handshakes, accepts the briefcase frame, then slams the
/// connection shut *before* acking. The buffered TCP write succeeded, so
/// only the ack protocol detects the loss; the transport must treat the
/// connection as poisoned, back off, reconnect, and succeed on the
/// healthy second connection.
#[test]
fn half_close_before_ack_reconnects_and_delivers() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();

    let server = thread::spawn(move || {
        // Connection 1: swallow the payload, never ack.
        let (mut stream, _) = listener.accept().unwrap();
        serve_handshake(&mut stream);
        let _ = read_seq_frame(&mut stream);
        drop(stream);

        // Connection 2: behave — ack the retransmit.
        let (mut stream, _) = listener.accept().unwrap();
        serve_handshake(&mut stream);
        let (seq, message) = read_seq_frame(&mut stream);
        Frame::new(FrameKind::AckSeq, seq.to_le_bytes().to_vec())
            .write_to(&mut stream)
            .unwrap();
        message
    });

    let transport = ReactorTransport::new(ReactorConfig {
        // Room for the server thread to see both connections.
        retry_budget: Duration::from_secs(5),
        ..fast_config()
    });
    transport
        .send("alpha", "127.0.0.1", port, b"survives the fault")
        .expect("retry should deliver on the second connection");

    assert_eq!(&server.join().unwrap()[..], b"survives the fault");
    let stats = transport.stats();
    assert_eq!(stats.frames_sent, 1, "counted once despite the retry");
    assert!(stats.reconnects >= 1, "the half-close forced a reconnect");
    assert_eq!(stats.retry_timeouts, 0, "the message was never given up on");
}

/// A listener that requires signed HELLOs refuses an unsigned client —
/// and the client fails *fast*: retrying the same credentials cannot
/// succeed, so no backoff attempts are burned.
#[test]
fn handshake_rejection_fails_without_retries() {
    let mut config = ListenerConfig::trusting("beta");
    config.require_signed = true;
    let listener = TransportListener::bind("127.0.0.1:0", config).unwrap();
    let port = listener.local_addr().port();

    let transport = fast_transport();
    let err = transport
        .send("alpha", "127.0.0.1", port, b"unsigned")
        .unwrap_err();
    assert!(
        matches!(err, TransportError::HandshakeFailed { .. }),
        "got {err:?}"
    );

    let stats = transport.stats();
    assert_eq!(stats.reconnects, 0, "no pointless retries after a reject");
    assert_eq!(stats.handshake_failures, 1);
    assert_eq!(listener.stats().handshake_failures, 1);
}

/// Sanity: against a healthy `TransportListener`, payloads arrive tagged
/// with the announced peer and one connection carries every send.
#[test]
fn healthy_listener_receives_on_one_connection() {
    let listener =
        TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("beta")).unwrap();
    let port = listener.local_addr().port();

    let transport = fast_transport();
    for i in 0..3u8 {
        transport.send("alpha", "127.0.0.1", port, &[i]).unwrap();
    }
    let mut payloads = Vec::new();
    for _ in 0..3 {
        let inbound = listener
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        assert_eq!(inbound.from_host, "alpha");
        payloads.extend_from_slice(&inbound.payload);
    }
    payloads.sort_unstable();
    assert_eq!(payloads, vec![0, 1, 2]);
    assert_eq!(transport.stats().connects, 1, "one connection reused");
}

/// A peer still speaking the retired unsequenced dialect — a bare
/// briefcase frame (kind 4) or bare ack (kind 5) after the handshake —
/// is hung up on, and nothing it sent is forwarded inward.
#[test]
fn retired_unsequenced_kinds_are_hung_up_on() {
    let listener =
        TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("beta")).unwrap();
    for retired in [4u8, 5] {
        let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        Frame::new(FrameKind::Hello, build_hello("alpha", None, 7))
            .write_to(&mut stream)
            .unwrap();
        let welcome = Frame::read_from(&mut stream, &FrameLimits::default()).unwrap();
        assert_eq!(welcome.kind, FrameKind::Welcome);

        let payload = b"unsequenced";
        let mut wire = FRAME_MAGIC.to_vec();
        wire.push(FRAME_VERSION);
        wire.push(retired);
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(payload);
        stream.write_all(&wire).unwrap();

        // No ack of any kind comes back: the listener closes the socket.
        let mut buf = [0u8; 64];
        let closed = match stream.read(&mut buf) {
            Ok(n) => n == 0,
            Err(e) => {
                e.kind() != std::io::ErrorKind::WouldBlock
                    && e.kind() != std::io::ErrorKind::TimedOut
            }
        };
        assert!(closed, "kind {retired} must be hung up on");
    }
    assert!(listener
        .incoming()
        .recv_timeout(Duration::from_millis(200))
        .is_err());
    assert_eq!(listener.stats().frames_received, 0);
}

/// The blocking `Connection::send_payload` is the sequenced protocol at
/// window 1: each send is the next seq on the connection, and a stale
/// cumulative ack below it does not complete the send — the covering
/// ack does.
#[test]
fn blocking_send_is_sequenced_and_waits_for_a_covering_ack() {
    let raw = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = raw.local_addr().unwrap().to_string();
    let server = thread::spawn(move || {
        let (mut stream, _) = raw.accept().unwrap();
        serve_handshake(&mut stream);
        for expected in 1..=2u64 {
            let (seq, message) = read_seq_frame(&mut stream);
            assert_eq!((seq, &message[..]), (expected, &b"hop"[..]));
            for ack in [seq - 1, seq] {
                Frame::new(FrameKind::AckSeq, ack.to_le_bytes().to_vec())
                    .write_to(&mut stream)
                    .unwrap();
            }
        }
        let bye = Frame::read_from(&mut stream, &FrameLimits::default()).unwrap();
        assert_eq!(bye.kind, FrameKind::Bye);
    });
    let config = ConnectConfig {
        local_host: "alpha".to_owned(),
        ..ConnectConfig::default()
    };
    let mut conn = tacoma_transport::Connection::establish(&addr, 1, &config).unwrap();
    conn.send_payload(b"hop").unwrap();
    conn.send_payload(b"hop").unwrap();
    conn.goodbye();
    server.join().unwrap();
}
