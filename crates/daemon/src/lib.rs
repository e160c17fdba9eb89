//! Long-running socket transport in front of the
//! [`SessionManager`](slj_serve::SessionManager): the network edge of
//! the analysis service.
//!
//! Everything below this crate is an in-process library; this crate
//! owns the boundary where uncontrolled remote clients meet it. It is
//! plain `std::net` — threads, no async runtime, matching the
//! workspace's vendored-deps philosophy — arranged as:
//!
//! * one **acceptor** thread per listener (TCP and/or Unix-domain
//!   sockets, [`Addr`]);
//! * per connection, a **reader** thread (decodes [`wire`] frames
//!   under a read deadline and a max-frame bound, forwards requests
//!   into a *bounded* channel) and a **writer** thread (serialises
//!   replies under a write deadline);
//! * one **engine** thread that owns the `SessionManager`, drains the
//!   request channel, ticks, and routes health events, backpressure
//!   replies and final analyses back to each connection's writer.
//!
//! Boundedness is end-to-end: the per-session frame queue rejects with
//! a wire-level `FRAME_ACK Overloaded` (the manager's reject-newest
//! shed), the shared request channel blocks readers (TCP backpressure,
//! never an unbounded buffer), reply channels park must-deliver
//! messages up to a cap and then disconnect the too-slow client with a
//! typed `ERROR`, and purely informational EVENT messages are dropped
//! (counted) rather than buffered. Malformed or oversized wire frames,
//! idle connections and mid-frame disconnects are all contained per
//! connection: the offending session is aborted and its slot recycled,
//! and no other session's output changes by a byte (the loopback chaos
//! suite asserts this).
//!
//! Graceful drain ([`DaemonHandle::drain`], or a wire `DRAIN` from an
//! operator client) finishes in-flight sessions, refuses new `OPEN`s
//! with a typed rejection, then shuts the listeners down.

pub mod addr;
pub mod client;
pub mod engine;
pub mod server;
pub mod wire;

pub use addr::Addr;
pub use client::{Client, ClientError, ClientOptions, RemoteAnalysis};
pub use engine::{DaemonConfig, DaemonStats, OpenRequest};
pub use server::{AcceptWake, Daemon, DaemonHandle, Listener, Stream};
pub use wire::{AckStatus, Decoder, WireError, WireMsg, DEFAULT_MAX_FRAME, WIRE_SCHEMA};
