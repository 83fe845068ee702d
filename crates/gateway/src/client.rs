//! A minimal blocking client for the gateway protocol, used by the e2e
//! suites and the load generators (`gateway_server --self-load`, the
//! end-to-end benchmark). One outstanding request
//! per connection (the protocol is strict request/response).
//!
//! ## Retries
//!
//! [`GatewayClient::recommend_retrying`] layers a bounded retry loop with
//! exponential backoff + deterministic jitter on top of
//! [`GatewayClient::recommend`]. The retry matrix is deliberately narrow:
//!
//! * **Retried**: `OVERLOADED` and `INTERNAL` server errors (transient by
//!   construction — shed queues drain, panicked replicas restart), and
//!   transport failures *before the request frame was fully written*
//!   (the server cannot have acted on a frame it never got).
//! * **Retried only when [`RetryPolicy::idempotent`]**: transport failures
//!   *after* a successful write (connection reset / EOF mid-response).
//!   The server may have already scored the request; re-sending is a
//!   duplicate, which only an idempotent request may tolerate.
//!   Recommendation scoring is read-only, so the bench and chaos harness
//!   set this; a client with side-effectful requests must not.
//! * **Never retried**: every other typed error (`BAD_REQUEST`,
//!   `SHUTTING_DOWN`, `DEADLINE_EXCEEDED`, `MALFORMED`,
//!   `UNSUPPORTED_VERSION`) and response decode failures — those are not
//!   transient, retrying them only hammers a server that already said no.
//!
//! Transport-level retries reconnect first (the old connection's framing
//! cannot be trusted); server-error retries reuse the live connection.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    read_frame, write_frame, ErrorCode, ErrorFrame, Frame, ReadError, Request, Response,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, timeout).
    Io(io::Error),
    /// The server's bytes did not decode as a frame.
    Protocol(ReadError),
    /// The server answered with a typed error frame (`OVERLOADED`,
    /// `DEADLINE_EXCEEDED`, ...).
    Server(ErrorFrame),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server(e) => write!(f, "server: {} ({})", e.code, e.message),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Retry policy for [`GatewayClient::recommend_retrying`]. See the module
/// docs for the exact retry matrix.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before retry k is `base << (k-1)` capped at `max`, plus
    /// deterministic jitter in `[0, base)`.
    pub base_backoff_us: u64,
    /// Cap on the exponential term, µs.
    pub max_backoff_us: u64,
    /// Seed for the deterministic jitter hash.
    pub jitter_seed: u64,
    /// Whether this request may be re-sent after a transport failure that
    /// happened *after* the request frame was fully written (the server
    /// may have already processed it). Safe for read-only scoring.
    pub idempotent: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 10_000,
            max_backoff_us: 200_000,
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
            idempotent: true,
        }
    }
}

impl RetryPolicy {
    /// Backoff before the `attempt`-th retry (attempt ≥ 1), µs.
    fn backoff_us(&self, attempt: u32) -> u64 {
        let base = self.base_backoff_us.max(1);
        // Saturating `base << (attempt-1)`: a shift past the leading zeros
        // would silently drop bits, so clamp to MAX there instead.
        let shift = attempt - 1;
        let exp = if shift > base.leading_zeros() {
            u64::MAX
        } else {
            base << shift
        };
        exp.min(self.max_backoff_us.max(base))
            + splitmix64(self.jitter_seed, attempt as u64) % base
    }
}

/// The splitmix64 finalizer — deterministic jitter without an RNG dep.
fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How far a failed attempt got, which decides whether a re-send risks a
/// duplicate.
enum WritePhase {
    /// The request frame never fully left — safe to re-send always.
    BeforeWrite,
    /// The frame was written; the failure hit while awaiting/reading the
    /// response. Re-send only if the policy says idempotent.
    AfterWrite,
}

/// A connected gateway client.
pub struct GatewayClient {
    stream: TcpStream,
    /// Resolved peer, kept so retries can reconnect.
    addr: SocketAddr,
    /// Read timeout, re-applied on reconnect.
    timeout: Option<Duration>,
}

impl GatewayClient {
    /// Connects to a gateway.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<GatewayClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        Ok(GatewayClient { stream, addr, timeout: None })
    }

    /// Bounds how long [`GatewayClient::recommend`] waits for a response.
    pub fn set_timeout(&mut self, t: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(t)?;
        self.timeout = t;
        Ok(())
    }

    /// Drops the current connection and dials the peer again.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.timeout)?;
        self.stream = stream;
        Ok(())
    }

    /// Sends one request and blocks for its response. A typed server error
    /// frame becomes [`ClientError::Server`]; the connection stays usable
    /// afterwards for the retryable codes (`OVERLOADED`,
    /// `DEADLINE_EXCEEDED`, `BAD_REQUEST`).
    ///
    /// Set `req.trace_id` to opt into request tracing (protocol v2): the
    /// response's `trace` field then echoes the id and the server-side
    /// stage offsets. Untraced requests go out as v1 frames, bit-identical
    /// to the pre-tracing protocol.
    pub fn recommend(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.recommend_phased(req).map_err(|(e, _)| e)
    }

    /// [`recommend`](GatewayClient::recommend), tagging failures with how
    /// far the attempt got.
    fn recommend_phased(
        &mut self,
        req: &Request,
    ) -> Result<Response, (ClientError, WritePhase)> {
        if let Err(e) = write_frame(&mut self.stream, &Frame::Request(req.clone())) {
            return Err((ClientError::Io(e), WritePhase::BeforeWrite));
        }
        match read_frame(&mut self.stream) {
            Ok(Frame::Response(r)) => Ok(r),
            Ok(Frame::Error(e)) => Err((ClientError::Server(e), WritePhase::AfterWrite)),
            Ok(Frame::Request(_)) => Err((
                ClientError::Protocol(ReadError::Decode(
                    crate::protocol::DecodeError::Malformed("server sent a request frame"),
                )),
                WritePhase::AfterWrite,
            )),
            Err(e) => Err((ClientError::Protocol(e), WritePhase::AfterWrite)),
        }
    }

    /// [`recommend`](GatewayClient::recommend) wrapped in the bounded
    /// retry loop described in the module docs. On success returns the
    /// response and the number of attempts used (1 = first try).
    /// On exhaustion or a non-retryable failure, returns the last error.
    pub fn recommend_retrying(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> Result<(Response, u32), ClientError> {
        let max = policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let (err, phase) = match self.recommend_phased(req) {
                Ok(r) => return Ok((r, attempt)),
                Err(e) => e,
            };
            let (retryable, needs_reconnect) = match &err {
                // Transient server states: the connection is still good.
                ClientError::Server(f) => (
                    matches!(f.code, ErrorCode::Overloaded | ErrorCode::Internal),
                    false,
                ),
                // Transport failure: the connection is dead either way;
                // whether a re-send is safe depends on the write phase.
                ClientError::Io(_) | ClientError::Protocol(ReadError::Eof)
                | ClientError::Protocol(ReadError::Io(_)) => (
                    match phase {
                        WritePhase::BeforeWrite => true,
                        WritePhase::AfterWrite => policy.idempotent,
                    },
                    true,
                ),
                // The server sent bytes we can't trust — not transient.
                ClientError::Protocol(ReadError::Decode(_)) => (false, false),
            };
            if !retryable || attempt >= max {
                return Err(err);
            }
            std::thread::sleep(Duration::from_micros(policy.backoff_us(attempt)));
            if needs_reconnect {
                // A failed dial burns an attempt too; surface the connect
                // error when the budget runs out while the peer is down.
                loop {
                    match self.reconnect() {
                        Ok(()) => break,
                        Err(ce) => {
                            attempt += 1;
                            if attempt >= max {
                                return Err(ce);
                            }
                            std::thread::sleep(Duration::from_micros(
                                policy.backoff_us(attempt),
                            ));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_us: 1_000,
            max_backoff_us: 4_000,
            jitter_seed: 1,
            idempotent: true,
        };
        let b1 = p.backoff_us(1);
        let b2 = p.backoff_us(2);
        let b3 = p.backoff_us(3);
        assert!((1_000..2_000).contains(&b1), "b1={b1}");
        assert!((2_000..3_000).contains(&b2), "b2={b2}");
        assert!((4_000..5_000).contains(&b3), "b3={b3}");
        // Huge attempt numbers must not overflow.
        let b63 = p.backoff_us(70);
        assert!((4_000..5_000).contains(&b63), "b63={b63}");
    }

    #[test]
    fn backoff_is_deterministic() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_us(3), p.backoff_us(3));
    }
}
