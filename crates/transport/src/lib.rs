//! Real wire transport for TACOMA firewalls.
//!
//! TAX 2.0's firewalls mediate every agent transfer between hosts; until
//! now this repository only exchanged briefcases over the in-process
//! simulated network. This crate adds the real thing: a length-prefixed
//! frame codec over TCP, an authenticated HELLO handshake tied into the
//! security layer's principals and trust store, and one client backend —
//! the sharded [`ReactorTransport`], with pipelined cumulative acks,
//! reconnect, and exponential backoff — behind a [`Transport`] trait
//! that the simnet bus also implements, so the firewall routes
//! identically whether its peers share a process or a network.
//!
//! Layers, bottom up:
//!
//! - [`frame`]: the `TAXF` frame codec (magic, version, kind, u32-LE
//!   length, payload), with declared-length checks before allocation;
//!   briefcase frames carry an 8-byte seq and are acked cumulatively.
//! - [`handshake`]: the HELLO/WELCOME/REJECT exchange, optionally MAC-
//!   signed and verified against a [`tacoma_security::TrustStore`].
//! - [`conn`]: one blocking handshaken connection (`taxsh`, connector
//!   threads) — a send waits for its cumulative ack, Stats frames are
//!   answered.
//! - [`window`]: the pipelined ack-window protocol state machines.
//! - [`reactor`]: the sharded nonblocking client backend — pipelined
//!   windows, zero-copy vectored writes, bounded backpressure.
//! - [`listener`]: the sharded nonblocking server side.
//! - [`sim`]: the same [`Transport`] trait over the simulated network.
//! - [`backoff`] / [`stats`]: retry pacing and shared counters.

pub mod backoff;
pub mod conn;
pub mod error;
pub mod frame;
pub mod handshake;
pub mod listener;
pub mod reactor;
pub mod sim;
pub mod stats;
pub mod traits;
pub mod window;

pub use backoff::BackoffPolicy;
pub use conn::{ConnectConfig, Connection};
pub use error::TransportError;
pub use frame::{
    frame_header, parse_ack_seq, split_seq, Frame, FrameKind, FrameLimits, FRAME_HEADER_LEN,
    FRAME_MAGIC, FRAME_VERSION,
};
pub use handshake::{build_hello, build_welcome, parse_welcome, verify_hello, HelloInfo};
pub use listener::{Inbound, ListenerConfig, PreAckHook, TransportListener};
pub use reactor::{ReactorConfig, ReactorTransport};
pub use sim::SimTransport;
pub use stats::{TransportCounters, TransportStats};
pub use traits::{Completion, Transport};
pub use window::{RecvWindow, SendWindow};
