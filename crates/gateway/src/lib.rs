//! # stisan-gateway — networked serving front-end
//!
//! A std-only (threads + `std::net`, no async runtime) TCP layer over the
//! tape-free inference engine (`stisan-serve`), built for DESIGN.md §10's
//! goals: get requests to `InferenceSession` over a socket, batch them for
//! throughput, and degrade loudly instead of collapsing under load.
//!
//! Four pillars:
//!
//! * **[`protocol`]** — a length-prefixed, CRC-checked binary frame format
//!   (versioned header, typed error frames). Encode/decode are pure byte
//!   functions; corruption of any single bit yields a typed
//!   [`protocol::DecodeError`], never a panic (the corruption suite proves
//!   it with the `stisan_nn::fault` injectors).
//! * **[`batcher`]** — work-conserving micro-batching as a pure state
//!   machine: a bounded FIFO that seals whatever is pending (up to
//!   `max_batch_size`) whenever the engine is idle, accumulates only while
//!   a batch is in flight, sheds at `queue_capacity` and closes on drain.
//!   Property-tested on a simulated clock, without real sleeps.
//! * **[`server`]** — the serving loop: bounded pending queue that sheds
//!   with `OVERLOADED` frames, per-request deadlines enforced at dequeue
//!   (`DEADLINE_EXCEEDED`), per-connection idle timeouts, and graceful
//!   drain-then-stop shutdown via [`GatewayHandle::shutdown`]. The
//!   dispatcher scores through a [`stisan_serve::EngineBackend`] — a
//!   supervised [`stisan_serve::ReplicatedEngine`] — and
//!   [`Gateway::serve_reloading`] additionally runs a hot-reload poller
//!   so new checkpoints publish with zero downtime (DESIGN.md §13).
//! * **[`client`]** — a small blocking client for tests and load
//!   generators, with an opt-in bounded [`client::RetryPolicy`]
//!   (exponential backoff + jitter, duplicate-safe re-send rules).
//!
//! Observability (`stisan-obs`): `gateway.queue_depth` (gauge),
//! `gateway.batch_fill` / `gateway.wait_us` (histograms),
//! `gateway.requests_total` / `gateway.shed_total` /
//! `gateway.deadline_exceeded_total` / `gateway.batches_total` (counters).
//! Every request additionally carries a trace id and per-stage monotonic
//! stamps (admitted → enqueued → batch-sealed → scored → written) that feed
//! `trace.*` histograms, the slowest-trace exemplar table, and the flight
//! recorder; protocol v2 frames round-trip the trace id and echo the stage
//! offsets to the client. When [`GatewayConfig::admin`] is set, an admin
//! HTTP listener ([`admin`]) exposes `GET /metrics` (Prometheus text
//! format), `/healthz`, `/flightrec`, `/traces`, and — while the [`slo`]
//! sampler is enabled — `/timeseries`, `/slo`, and `/alerts` (the windowed
//! store, objectives with burn rates, and the alert log; DESIGN.md §16).
//! The `stisan_dash` binary (`stisan-bench`) renders those three routes as
//! a live terminal dashboard.
//!
//! Responses are bit-identical to direct [`stisan_serve::InferenceSession`]
//! calls for the same inputs — the e2e suite asserts it across a real
//! socket, extending the tape/frozen parity contract of DESIGN.md §9 over
//! the wire.

pub mod admin;
pub mod batcher;
pub mod client;
pub mod protocol;
pub mod server;
pub mod slo;

pub use batcher::{BatchPolicy, MicroBatcher, Pending, Rejected};
pub use slo::{default_objectives, SloConfig};
pub use client::{ClientError, GatewayClient, RetryPolicy};
pub use protocol::{
    DecodeError, ErrorCode, ErrorFrame, Frame, ReadError, Request, Response, TraceEcho, Visit,
    VERSION, VERSION_V1,
};
pub use server::{
    request_from_instance, request_to_instance, Gateway, GatewayConfig, GatewayHandle,
    GatewayStats,
};
