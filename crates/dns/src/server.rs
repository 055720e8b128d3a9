//! Authoritative DNS server over UDP (tokio).
//!
//! Serves one or more [`Zone`]s on a real socket so the live-wire examples
//! and integration tests can exercise the scanner over the actual RFC 1035
//! protocol. Follows the structured-concurrency idiom from the session's
//! async guides: the server is a single task owned by its caller, shut down
//! through a watch channel rather than by detaching and forgetting.

use crate::resolver::{DnsError, DnsTransport, InMemoryAuthorities};
use crate::types::{Message, Question, Rcode};
use crate::wire;
use std::net::SocketAddr;
use std::sync::Arc;
use tokio::net::UdpSocket;
use tokio::sync::watch;

/// An authoritative UDP DNS server bound to a local address.
pub struct AuthServer {
    /// The bound address (useful when binding to port 0).
    addr: SocketAddr,
    shutdown: watch::Sender<bool>,
    handle: tokio::task::JoinHandle<()>,
}

impl AuthServer {
    /// Binds to `bind` (use port 0 for an ephemeral port) and serves the
    /// zones registered in `authorities`, as they were when handed over.
    pub async fn spawn(
        bind: SocketAddr,
        authorities: InMemoryAuthorities,
    ) -> std::io::Result<AuthServer> {
        let socket = UdpSocket::bind(bind).await?;
        let addr = socket.local_addr()?;
        let (shutdown, mut shutdown_rx) = watch::channel(false);
        let socket = Arc::new(socket);
        let handle = tokio::spawn(async move {
            let mut buf = vec![0u8; wire::MAX_UDP_PAYLOAD];
            loop {
                tokio::select! {
                    _ = shutdown_rx.changed() => break,
                    recv = socket.recv_from(&mut buf) => {
                        let Ok((n, peer)) = recv else { break };
                        if let Some(resp) = handle_datagram(&authorities, &buf[..n]) {
                            // Best effort: a lost response datagram is a
                            // normal UDP condition the client retries over.
                            let _ = socket.send_to(&resp, peer).await;
                        }
                    }
                }
            }
        });
        Ok(AuthServer {
            addr,
            shutdown,
            handle,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and waits for the task to finish.
    pub async fn shutdown(self) {
        let _ = self.shutdown.send(true);
        let _ = self.handle.await;
    }
}

/// Processes one request datagram into a response datagram.
///
/// Returns `None` for datagrams that cannot be answered at all (unparsable
/// header); malformed-but-parsable queries get FORMERR.
fn handle_datagram(authorities: &InMemoryAuthorities, datagram: &[u8]) -> Option<Vec<u8>> {
    let query = match wire::decode(datagram) {
        Ok(q) => q,
        Err(_) => {
            // Try to salvage the ID to send FORMERR; the header is the
            // first 12 bytes.
            if datagram.len() < 2 {
                return None;
            }
            let id = u16::from_be_bytes([datagram[0], datagram[1]]);
            let mut resp = Message::query(
                id,
                Question::new(
                    // Placeholder question; FORMERR responses may omit it, but
                    // keeping the message well-formed simplifies clients.
                    "invalid.query".parse().expect("static name"),
                    crate::types::RecordType::A,
                ),
            );
            resp.questions.clear();
            resp.flags.qr = true;
            resp.rcode = Rcode::FormErr;
            return Some(wire::encode(&resp));
        }
    };
    let Some(question) = query.questions.first() else {
        let mut resp = Message::response_to(&query, Rcode::FormErr);
        resp.flags.aa = false;
        return Some(wire::encode(&resp));
    };
    match authorities.query(question) {
        Ok(mut resp) => {
            resp.id = query.id;
            resp.flags.rd = query.flags.rd;
            Some(wire::encode(&resp))
        }
        Err(DnsError::NxDomain) => {
            let mut resp = Message::response_to(&query, Rcode::NxDomain);
            resp.flags.aa = false; // no authority found at all
            Some(wire::encode(&resp))
        }
        Err(_) => {
            let mut resp = Message::response_to(&query, Rcode::ServFail);
            resp.flags.aa = false;
            Some(wire::encode(&resp))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::{resolve, UdpTransport};
    use crate::types::{RecordData, RecordType};
    use crate::zone::Zone;
    use netbase::DomainName;
    use std::time::Duration as StdDuration;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn authorities() -> InMemoryAuthorities {
        let mut auth = InMemoryAuthorities::new();
        let mut z = Zone::new(n("wire.test"));
        z.add_rr(
            &n("wire.test"),
            120,
            RecordData::Mx {
                preference: 5,
                exchange: n("mx.wire.test"),
            },
        );
        z.add_rr(
            &n("mx.wire.test"),
            120,
            RecordData::A("192.0.2.2".parse().unwrap()),
        );
        z.add_rr(
            &n("_mta-sts.wire.test"),
            120,
            RecordData::Txt(vec!["v=STSv1; id=abc123;".into()]),
        );
        auth.upsert_zone(z);
        auth
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn serves_queries_over_real_udp() {
        let server = AuthServer::spawn("127.0.0.1:0".parse().unwrap(), authorities())
            .await
            .unwrap();
        let addr = server.addr();
        // The UdpTransport is blocking; run it off the async threads.
        let result = tokio::task::spawn_blocking(move || {
            let transport = UdpTransport::new(addr, StdDuration::from_secs(2));
            let mx = resolve(&transport, &n("wire.test"), RecordType::Mx)?;
            let txt = resolve(&transport, &n("_mta-sts.wire.test"), RecordType::Txt)?;
            let missing = resolve(&transport, &n("nope.wire.test"), RecordType::A);
            Ok::<_, crate::resolver::DnsError>((mx, txt, missing))
        })
        .await
        .unwrap()
        .unwrap();
        let (mx, txt, missing) = result;
        assert_eq!(mx.mx_hosts(), vec![(5, n("mx.wire.test"))]);
        assert_eq!(txt.txt_strings(), vec!["v=STSv1; id=abc123;".to_string()]);
        assert_eq!(missing, Err(DnsError::NxDomain));
        server.shutdown().await;
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn garbage_datagram_gets_formerr_or_silence() {
        let server = AuthServer::spawn("127.0.0.1:0".parse().unwrap(), authorities())
            .await
            .unwrap();
        let addr = server.addr();
        let reply = tokio::task::spawn_blocking(move || {
            let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
            sock.set_read_timeout(Some(StdDuration::from_millis(500)))
                .unwrap();
            sock.send_to(&[0xAB, 0xCD, 0xFF], addr).unwrap();
            let mut buf = [0u8; 512];
            sock.recv_from(&mut buf).map(|(n, _)| buf[..n].to_vec())
        })
        .await
        .unwrap();
        // Short garbage still has a 2-byte ID, so we expect FORMERR.
        let bytes = reply.expect("expected a FORMERR response");
        let msg = wire::decode(&bytes).unwrap();
        assert_eq!(msg.rcode, Rcode::FormErr);
        assert_eq!(msg.id, 0xABCD);
        server.shutdown().await;
    }
}
