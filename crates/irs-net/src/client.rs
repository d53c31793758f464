//! Blocking request/response clients.

use crate::codec::FrameCodec;
use crate::NetError;
use irs_core::wire::{Request, Response, Wire};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A blocking client speaking the ledger wire protocol (works against
/// both [`crate::LedgerServer`] and [`crate::ProxyServer`], which share
/// the protocol).
///
/// The client remembers its target address and timeout so a dead stream
/// can be re-established with [`reconnect`](LedgerClient::reconnect).
/// After [`call`](LedgerClient::call) returns [`NetError::ConnectionLost`]
/// the stream is poisoned (a request may have been half-written, or a
/// response half-read, so the framing is out of sync); every further call
/// fails the same way until the caller reconnects. A
/// `Retry(Failover(TcpTransport))` stack (see [`crate::resilient`])
/// automates that recovery.
pub struct LedgerClient {
    stream: Option<TcpStream>,
    addr: SocketAddr,
    timeout: Duration,
}

impl LedgerClient {
    /// Connect with a 5 s I/O timeout.
    pub fn connect(addr: SocketAddr) -> Result<LedgerClient, NetError> {
        Self::connect_with_timeout(addr, Duration::from_secs(5))
    }

    /// Connect with an explicit I/O timeout.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<LedgerClient, NetError> {
        Ok(LedgerClient {
            stream: Some(open_stream(addr, timeout)?),
            addr,
            timeout,
        })
    }

    /// The address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the underlying stream is currently usable (i.e. the last
    /// call did not poison it).
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Drop the (possibly poisoned) stream and establish a fresh one to
    /// the same address. Safe to call whether or not the old stream was
    /// broken.
    pub fn reconnect(&mut self) -> Result<(), NetError> {
        self.stream = None; // close the old stream first
        self.stream = Some(open_stream(self.addr, self.timeout)?);
        Ok(())
    }

    /// One request/response exchange. An I/O failure mid-exchange poisons
    /// the stream and surfaces as [`NetError::ConnectionLost`]; the caller
    /// must [`reconnect`](LedgerClient::reconnect) before retrying.
    pub fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        // Encode before touching the stream: a request the wire format
        // cannot represent is the caller's bug and must not poison a
        // healthy connection.
        let payload = request.to_bytes()?;
        let Some(stream) = self.stream.as_mut() else {
            return Err(NetError::ConnectionLost);
        };
        match exchange(stream, &payload) {
            Ok(response) => Ok(response),
            Err(e) => {
                // Any failure mid-exchange leaves the stream in an unknown
                // framing state: poison it so the next call cannot read a
                // stray late response as its own answer.
                self.stream = None;
                Err(match e {
                    NetError::Io(_) | NetError::Closed => NetError::ConnectionLost,
                    other => other,
                })
            }
        }
    }
}

fn open_stream(addr: SocketAddr, timeout: Duration) -> Result<TcpStream, NetError> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

fn exchange(stream: &mut TcpStream, payload: &[u8]) -> Result<Response, NetError> {
    let codec = FrameCodec::new(FrameCodec::MAX_FRAME);
    codec.write(stream, payload)?;
    let frame = codec.read(stream)?;
    Ok(Response::from_bytes(frame)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger_server::test_server;

    #[test]
    fn connect_to_nothing_fails() {
        // Port 1 on localhost is essentially never listening.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let r = LedgerClient::connect_with_timeout(addr, Duration::from_millis(200));
        assert!(r.is_err());
    }

    #[test]
    fn dead_stream_surfaces_connection_lost_until_reconnect() {
        let server = test_server(3, "127.0.0.1:0");
        let addr = server.addr();
        let mut client =
            LedgerClient::connect_with_timeout(addr, Duration::from_millis(500)).unwrap();
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

        // Kill the server: the established stream dies.
        server.shutdown();
        assert!(matches!(
            client.call(&Request::Ping),
            Err(NetError::ConnectionLost)
        ));
        assert!(!client.is_connected());
        // Every further call fails the same way — no silent use of a
        // poisoned stream.
        assert!(matches!(
            client.call(&Request::Ping),
            Err(NetError::ConnectionLost)
        ));

        // Restart on the same port; reconnect revives the client.
        let server = test_server(3, &addr.to_string());
        client.reconnect().unwrap();
        assert!(client.is_connected());
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        server.shutdown();
    }
}
