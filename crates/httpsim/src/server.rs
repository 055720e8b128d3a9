//! A routing HTTPS server.
//!
//! Serves requests over toy-TLS, selecting certificates by SNI and routing
//! by `(host, path)`. Third-party policy hosts in the paper serve thousands
//! of customer domains from one deployment (§5, Table 2); the [`Router`]
//! mirrors that: one server, many hosts, per-host documents.

use crate::codec::{read_request, write_response};
use crate::types::{Request, Response};
use netbase::DomainName;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use tlssim::{server_handshake, ServerConfig};
use tokio::io::{AsyncRead, AsyncWrite, BufReader};
use tokio::net::TcpListener;
use tokio::sync::watch;

/// Routes requests to responses. Cloneable and shared; handlers can be
/// swapped at runtime (providers updating policies mid-study).
#[derive(Clone)]
pub struct Router {
    routes: Arc<RwLock<HashMap<(DomainName, String), Response>>>,
    /// Response for known hosts with unknown paths.
    fallback: Arc<RwLock<Response>>,
}

impl Default for Router {
    fn default() -> Router {
        Router::new()
    }
}

impl Router {
    /// An empty router whose fallback is 404.
    pub fn new() -> Router {
        Router {
            routes: Arc::new(RwLock::new(HashMap::new())),
            fallback: Arc::new(RwLock::new(Response::not_found())),
        }
    }

    /// Installs a document at `(host, path)`.
    pub fn route(&self, host: DomainName, path: &str, response: Response) {
        self.routes
            .write()
            .insert((host, path.to_string()), response);
    }

    /// Resolves a request to a response.
    pub fn respond(&self, request: &Request) -> Response {
        let Some(host) = request.host().and_then(|h| h.parse::<DomainName>().ok()) else {
            return Response::text(crate::types::StatusCode(400), "missing host header\n");
        };
        self.routes
            .read()
            .get(&(host, request.path.clone()))
            .cloned()
            .unwrap_or_else(|| self.fallback.read().clone())
    }

    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.routes.read().len()
    }

    /// True if no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.routes.read().is_empty()
    }
}

/// Serves exactly one connection: TLS handshake, one request, one response.
///
/// Errors are swallowed after the handshake reply — a misbehaving client
/// cannot take the server down, matching real servers' behaviour.
pub async fn serve_connection<S: AsyncRead + AsyncWrite + Unpin>(
    io: S,
    tls: &ServerConfig,
    router: &Router,
) {
    let Ok(mut session) = server_handshake(io, tls).await else {
        return; // alert already sent (or transport gone)
    };
    let mut reader = BufReader::new(&mut session.stream);
    let Ok(request) = read_request(&mut reader).await else {
        return;
    };
    let response = router.respond(&request);
    let _ = write_response(&mut session.stream, &response).await;
}

/// An HTTPS server on a real TCP listener.
pub struct HttpsServer {
    addr: SocketAddr,
    shutdown: watch::Sender<bool>,
    handle: tokio::task::JoinHandle<()>,
}

impl HttpsServer {
    /// Binds to `bind` (port 0 for ephemeral) and serves until shutdown.
    /// The TLS config and router are shared — certificate rotations and
    /// policy updates made later affect subsequent connections.
    pub async fn spawn(
        bind: SocketAddr,
        tls: Arc<RwLock<ServerConfig>>,
        router: Router,
    ) -> std::io::Result<HttpsServer> {
        let listener = TcpListener::bind(bind).await?;
        let addr = listener.local_addr()?;
        let (shutdown, mut shutdown_rx) = watch::channel(false);
        let handle = tokio::spawn(async move {
            loop {
                tokio::select! {
                    _ = shutdown_rx.changed() => break,
                    accepted = listener.accept() => {
                        let Ok((socket, _peer)) = accepted else { break };
                        let tls = tls.clone();
                        let router = router.clone();
                        tokio::spawn(async move {
                            let config = tls.read().clone();
                            serve_connection(socket, &config, &router).await;
                        });
                    }
                }
            }
        });
        Ok(HttpsServer {
            addr,
            shutdown,
            handle,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept loop (in-flight connections
    /// finish on their own tasks).
    pub async fn shutdown(self) {
        let _ = self.shutdown.send(true);
        let _ = self.handle.await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{fetch_policy_document, MTA_STS_WELL_KNOWN};
    use crate::types::StatusCode;
    use netbase::SimDate;
    use pkix::CertAuthority;
    use tlssim::ServerIdentity;
    use tokio::net::TcpStream;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn tls_config(hosts: &[&str]) -> ServerConfig {
        let nb = SimDate::ymd(2023, 1, 1).at_midnight();
        let na = SimDate::ymd(2026, 1, 1).at_midnight();
        let mut root = CertAuthority::new_root("Root", nb, na);
        let mut identity = ServerIdentity::empty();
        for host in hosts {
            let dn = n(host);
            identity.install(dn.clone(), vec![root.issue_leaf(&[dn], nb, na)]);
        }
        ServerConfig {
            identity,
            behavior: Default::default(),
            nonce: 9,
            dh_secret: 99,
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn serves_policies_over_tcp_by_host() {
        let router = Router::new();
        router.route(
            n("mta-sts.alpha.com"),
            MTA_STS_WELL_KNOWN,
            Response::ok("version: STSv1\nmode: enforce\nmx: mx.alpha.com\nmax_age: 86400\n"),
        );
        router.route(
            n("mta-sts.beta.com"),
            MTA_STS_WELL_KNOWN,
            Response::ok("version: STSv1\nmode: testing\nmx: mx.beta.com\nmax_age: 86400\n"),
        );
        let tls = Arc::new(RwLock::new(tls_config(&[
            "mta-sts.alpha.com",
            "mta-sts.beta.com",
        ])));
        let server = HttpsServer::spawn("127.0.0.1:0".parse().unwrap(), tls, router.clone())
            .await
            .unwrap();

        for (host, marker) in [
            ("mta-sts.alpha.com", "enforce"),
            ("mta-sts.beta.com", "testing"),
        ] {
            let socket = TcpStream::connect(server.addr()).await.unwrap();
            let fetch = fetch_policy_document(socket, &n(host), 1, 2).await.unwrap();
            assert_eq!(fetch.response.status, StatusCode::OK);
            assert!(
                fetch.response.body_text().unwrap().contains(marker),
                "{host}"
            );
        }

        // Unknown path on a known host: 404 fallback.
        let socket = TcpStream::connect(server.addr()).await.unwrap();
        let fetch = crate::client::https_get(
            socket,
            tlssim::ClientConfig::opportunistic(n("mta-sts.alpha.com"), 1, 2),
            "/other.txt",
        )
        .await
        .unwrap();
        assert_eq!(fetch.response.status, StatusCode::NOT_FOUND);
        server.shutdown().await;
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn route_updates_apply_to_new_connections() {
        let router = Router::new();
        router.route(
            n("mta-sts.alpha.com"),
            MTA_STS_WELL_KNOWN,
            Response::ok("old"),
        );
        let tls = Arc::new(RwLock::new(tls_config(&["mta-sts.alpha.com"])));
        let server = HttpsServer::spawn("127.0.0.1:0".parse().unwrap(), tls, router.clone())
            .await
            .unwrap();
        router.route(
            n("mta-sts.alpha.com"),
            MTA_STS_WELL_KNOWN,
            Response::ok("new"),
        );
        let socket = TcpStream::connect(server.addr()).await.unwrap();
        let fetch = fetch_policy_document(socket, &n("mta-sts.alpha.com"), 1, 2)
            .await
            .unwrap();
        assert_eq!(fetch.response.body_text().unwrap(), "new");
        server.shutdown().await;
    }

    #[test]
    fn router_respond_requires_host() {
        let router = Router::new();
        let mut req = Request::get("mta-sts.alpha.com", "/x");
        req.headers.remove("host");
        assert_eq!(router.respond(&req).status, StatusCode(400));
    }
}
