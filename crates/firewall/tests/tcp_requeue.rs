//! The acceptance scenario for undeliverable mail over real TCP: a
//! Deliver message whose destination daemon is down goes out
//! optimistically, fails once the transport's retry budget runs out, and
//! is then *parked* in the pending queue (never silently dropped). It
//! survives failed redelivery sweeps with its original deadline, and goes
//! out the moment the peer comes back.

use std::time::{Duration, Instant};

use tacoma_briefcase::Briefcase;
use tacoma_firewall::{Decision, Firewall, Message};
use tacoma_security::{Policy, Principal, TrustStore};
use tacoma_simnet::SimTime;
use tacoma_transport::{
    BackoffPolicy, ConnectConfig, ListenerConfig, ReactorConfig, ReactorTransport,
    TransportListener,
};

fn firewall() -> Firewall {
    Firewall::new("alpha", 4711, Policy::trusting(), TrustStore::new())
}

/// A reactor that gives up on a dead peer within a few hundred
/// milliseconds.
fn transport() -> ReactorTransport {
    ReactorTransport::new(ReactorConfig {
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
    })
}

fn dead_port() -> u16 {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    probe.local_addr().unwrap().port()
}

fn mail_to_beta() -> Message {
    let mut bc = Briefcase::new();
    bc.set_single("NOTE", "do not lose me");
    Message::deliver(
        "alpha",
        Principal::new("alice").unwrap(),
        None,
        "tacoma://beta/worker".parse().unwrap(),
        bc,
    )
}

/// Ships the mail to the (dead) beta and pumps the transport until the
/// optimistic send fails and is parked.
fn dispatch_and_park(fw: &mut Firewall, transport: &ReactorTransport, now: SimTime) {
    let decision = fw
        .dispatch_outbound(mail_to_beta(), now, transport)
        .unwrap();
    assert!(
        matches!(decision, Decision::Forwarded { .. }),
        "the nonblocking path reports Forwarded optimistically: {decision:?}"
    );
    assert_eq!(fw.transport_inflight(), 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while fw.transport_inflight() > 0 && Instant::now() < deadline {
        fw.pump_transport(now, transport);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(fw.transport_inflight(), 0, "the failure completed");
}

#[test]
fn down_peer_parks_then_requeue_delivers_when_it_returns() {
    let mut fw = firewall();
    let transport = transport();
    let now = SimTime::ZERO;

    // Phase 1: beta is down (a port nothing listens on).
    transport.add_peer("beta", format!("127.0.0.1:{}", dead_port()));
    dispatch_and_park(&mut fw, &transport, now);
    assert_eq!(fw.pending_len(), 1, "the message is parked, not dropped");
    let stats = fw.stats();
    assert_eq!(stats.queued, 1);
    assert_eq!(stats.retry_timeouts, 1);
    assert_eq!(stats.frames_sent, 0);

    // Phase 2: a sweep while beta is still down re-parks the message.
    let (delivered, reparked) = fw.redeliver_remote_pending(now, &transport);
    assert_eq!((delivered, reparked), (0, 1));
    assert_eq!(fw.pending_len(), 1);

    // Phase 3: beta comes back; the next sweep drains the queue.
    let listener =
        TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("beta")).unwrap();
    transport.add_peer("beta", listener.local_addr().to_string());

    let (delivered, reparked) = fw.redeliver_remote_pending(now, &transport);
    assert_eq!((delivered, reparked), (1, 0));
    assert_eq!(fw.pending_len(), 0);
    assert_eq!(fw.stats().frames_sent, 1);

    // The bytes that arrived at beta decode back to the parked message.
    let inbound = listener
        .incoming()
        .recv_timeout(Duration::from_secs(5))
        .unwrap();
    assert_eq!(inbound.from_host, "alpha");
    let message = Message::decode(&inbound.payload).unwrap();
    assert_eq!(
        message.briefcase.single_str("NOTE").unwrap(),
        "do not lose me"
    );
}

#[test]
fn parked_mail_still_honours_its_deadline_across_sweeps() {
    let mut fw = firewall();
    let transport = transport();
    transport.add_peer("beta", format!("127.0.0.1:{}", dead_port()));

    let start = SimTime::ZERO;
    dispatch_and_park(&mut fw, &transport, start);

    // Sweeps while down re-park but never extend the deadline.
    let mid = start + Duration::from_secs(10);
    let (_, reparked) = fw.redeliver_remote_pending(mid, &transport);
    assert_eq!(reparked, 1);

    // Past the original 30 s queue timeout the message expires instead of
    // being retried forever.
    let late = start + Duration::from_secs(40);
    let (delivered, reparked) = fw.redeliver_remote_pending(late, &transport);
    assert_eq!((delivered, reparked), (0, 0), "expired mail is not retried");
    assert_eq!(fw.expire_pending(late), 1);
    assert_eq!(fw.pending_len(), 0);
    assert_eq!(fw.stats().expired, 1);
}
