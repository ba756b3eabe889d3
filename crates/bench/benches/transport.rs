//! Transport micro-benchmarks: frame codec throughput and the full
//! ack'd round-trip over a real loopback TCP connection — the wire tax a
//! briefcase pays to leave the process.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tacoma_transport::{
    ConnectConfig, Connection, Frame, FrameKind, FrameLimits, ListenerConfig, TransportListener,
};

/// Frame encode/decode throughput across payload sizes.
fn bench_frame_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_codec");
    let limits = FrameLimits::default();
    for size in [64usize, 4_096, 262_144] {
        let frame = Frame::new(FrameKind::BriefcaseSeq, vec![0xABu8; size]);
        let wire = frame.encode();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("encode", size), &frame, |b, f| {
            b.iter(|| black_box(f.encode()));
        });
        group.bench_with_input(BenchmarkId::new("decode", size), &wire, |b, w| {
            b.iter(|| black_box(Frame::read_from(&mut w.as_slice(), &limits).unwrap()));
        });
    }
    group.finish();
}

/// One ack'd briefcase send over an established loopback connection —
/// the steady-state per-message cost of a window-1 sequenced send
/// (handshake amortized away: one connection carries every send).
fn bench_tcp_loopback_send(c: &mut Criterion) {
    let listener = TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("bench-server"))
        .expect("bind loopback");
    let addr = listener.local_addr().to_string();
    let config = ConnectConfig {
        local_host: "bench-client".to_owned(),
        ..ConnectConfig::default()
    };
    let mut conn = Connection::establish(&addr, 1, &config).expect("handshake");

    let mut group = c.benchmark_group("tcp_loopback");
    for size in [64usize, 4_096, 262_144] {
        let payload = vec![0x5Au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(
            BenchmarkId::new("send_acked", size),
            &payload,
            |b, payload| {
                b.iter(|| {
                    conn.send_payload(black_box(payload)).unwrap();
                    // Drain so the listener channel does not grow unboundedly.
                    let _ = listener.incoming().recv().unwrap();
                });
            },
        );
    }
    group.finish();
    conn.goodbye();
}

/// Connection establishment including the HELLO round-trip — what a
/// reconnect after a fault costs before backoff even starts.
fn bench_tcp_handshake(c: &mut Criterion) {
    let listener = TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("bench-server"))
        .expect("bind loopback");
    let addr = listener.local_addr().to_string();
    let config = ConnectConfig {
        local_host: "bench-client".to_owned(),
        ..ConnectConfig::default()
    };
    let mut nonce = 0u64;
    c.bench_function("tcp_connect_and_hello", |b| {
        b.iter(|| {
            nonce += 1;
            let conn = Connection::establish(&addr, nonce, &config).unwrap();
            black_box(conn).goodbye();
        });
    });
}

criterion_group!(
    benches,
    bench_frame_codec,
    bench_tcp_loopback_send,
    bench_tcp_handshake
);
criterion_main!(benches);
