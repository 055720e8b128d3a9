//! Wire deployment: the same world, on real sockets.
//!
//! [`WireWorld::deploy`] takes a [`World`] and stands it up on localhost —
//! an authoritative UDP DNS server for every zone, one HTTPS policy server
//! per web endpoint, one SMTP server per MX endpoint — and provides client
//! ladders ([`WireWorld::fetch_policy`], [`WireWorld::probe_mx`]) that
//! return the *same* outcome types as the fast path, so tests can assert
//! layer-for-layer agreement between the in-memory walk and the real
//! protocol stacks. [`probe_mx_at`] is the one wire SMTP session; the
//! delivery queue's wire leg runs it against a known socket.
//!
//! Approximation: endpoints with `Reachability::Timeout` are simply not
//! deployed (localhost cannot swallow SYNs), so both timeout and refusal
//! surface as the TCP layer — the granularity Figure 5 uses anyway.

use crate::endpoint::{MxEndpoint, Reachability, TlsBehavior, WebEndpoint};
use crate::fetch::{MxProbeOutcome, PolicyFetchError, PolicyFetchOutcome, SmtpReply, TlsFailure};
use crate::world::World;
use dns::server::AuthServer;
use dns::{RecordType, UdpTransport};
use httpsim::{HttpsServer, Router, StatusCode};
use mtasts::parse_policy;
use netbase::{DomainName, SimInstant};
use parking_lot::{Mutex, RwLock};
use pkix::validate_chain;
use smtp::{MxConfig, MxServer, ProbeConfig};
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration as StdDuration;
use tlssim::{ServerBehavior, ServerConfig, ServerIdentity};
use tokio::net::TcpStream;

/// A deployed world: socket addresses per simulated IP.
pub struct WireWorld {
    /// The authoritative DNS server's address.
    pub dns_addr: SocketAddr,
    web_addrs: HashMap<Ipv4Addr, SocketAddr>,
    mx_addrs: HashMap<Ipv4Addr, SocketAddr>,
    dns_server: Option<AuthServer>,
    https_servers: Vec<HttpsServer>,
    mx_servers: Vec<MxServer>,
}

/// Builds the TLS server config for a web endpoint.
fn web_tls_config(endpoint: &WebEndpoint) -> ServerConfig {
    ServerConfig {
        identity: endpoint.identity.clone(),
        behavior: match endpoint.tls_behavior {
            TlsBehavior::Normal => ServerBehavior::Normal,
            TlsBehavior::Refuse => ServerBehavior::RefuseHandshake,
            TlsBehavior::Abort => ServerBehavior::AbruptClose,
        },
        nonce: 0x5EED,
        dh_secret: 0xD0_5EC2E7,
    }
}

/// Builds the SMTP server config for an MX endpoint.
fn mx_config(endpoint: &MxEndpoint) -> MxConfig {
    let tls = endpoint.starttls.then(|| {
        let mut identity = ServerIdentity::empty();
        identity.install(endpoint.hostname.clone(), endpoint.chain.clone());
        ServerConfig {
            identity,
            behavior: ServerBehavior::Normal,
            nonce: 0x3A11,
            dh_secret: 0x5EC2E7,
        }
    });
    let mut config = MxConfig::new(endpoint.hostname.clone(), tls);
    if endpoint.hide_starttls {
        config.behavior = smtp::MxBehavior::HideStartTls;
    }
    if endpoint.helo_only {
        config.behavior = smtp::MxBehavior::HeloOnly;
    }
    if !endpoint.reject_rcpt_domains.is_empty() {
        config.recipient_policy =
            smtp::server::RecipientPolicy::RejectDomains(endpoint.reject_rcpt_domains.clone());
    }
    config
}

impl WireWorld {
    /// Deploys every reachable endpoint of `world` onto localhost sockets.
    /// Zones and endpoints are copied as they are now: later edits to
    /// `world` do not reach the servers.
    pub async fn deploy(world: &World) -> std::io::Result<WireWorld> {
        let dns_server =
            AuthServer::spawn("127.0.0.1:0".parse().unwrap(), world.authorities.clone()).await?;
        let dns_addr = dns_server.addr();

        let mut web_addrs = HashMap::new();
        let mut https_servers = Vec::new();
        for ip in world.web_ips() {
            let endpoint = world.web_endpoint(ip).expect("listed ip exists");
            if endpoint.reachability != Reachability::Up {
                continue;
            }
            let router = Router::new();
            for (host, (status, body)) in &endpoint.documents {
                router.route(
                    host.clone(),
                    mtasts::WELL_KNOWN_PATH,
                    httpsim::Response::text(StatusCode(*status), body),
                );
            }
            let tls = Arc::new(RwLock::new(web_tls_config(endpoint)));
            let server = HttpsServer::spawn("127.0.0.1:0".parse().unwrap(), tls, router).await?;
            web_addrs.insert(ip, server.addr());
            https_servers.push(server);
        }

        let mut mx_addrs = HashMap::new();
        let mut mx_servers = Vec::new();
        for ip in world.mx_ips() {
            let endpoint = world.mx_endpoint(ip).expect("listed ip exists");
            if endpoint.reachability != Reachability::Up {
                continue;
            }
            let config = Arc::new(Mutex::new(mx_config(endpoint)));
            let server = MxServer::spawn("127.0.0.1:0".parse().unwrap(), config).await?;
            mx_addrs.insert(ip, server.addr());
            mx_servers.push(server);
        }

        Ok(WireWorld {
            dns_addr,
            web_addrs,
            mx_addrs,
            dns_server: Some(dns_server),
            https_servers,
            mx_servers,
        })
    }

    /// A copy of the whole simulated-IP → socket map for MX endpoints.
    /// Plain data (`Send`), so outbound-delivery transports can carry it
    /// onto blocking worker threads without borrowing the server handles.
    pub fn mx_addr_map(&self) -> HashMap<Ipv4Addr, SocketAddr> {
        self.mx_addrs.clone()
    }

    /// Stops every server.
    pub async fn shutdown(mut self) {
        if let Some(dns) = self.dns_server.take() {
            dns.shutdown().await;
        }
        for s in self.https_servers.drain(..) {
            s.shutdown().await;
        }
        for s in self.mx_servers.drain(..) {
            s.shutdown().await;
        }
    }

    /// Resolves a name over the real UDP DNS server.
    async fn wire_resolve(
        &self,
        name: DomainName,
        rtype: RecordType,
    ) -> Result<dns::Lookup, dns::DnsError> {
        let addr = self.dns_addr;
        tokio::task::spawn_blocking(move || {
            dns::resolve(
                &UdpTransport::new(addr, StdDuration::from_secs(2)),
                &name,
                rtype,
            )
        })
        .await
        .expect("resolver task never panics")
    }

    /// The wire-path policy fetch: same ladder, real sockets.
    pub async fn fetch_policy(
        &self,
        world: &World,
        domain: &DomainName,
        now: SimInstant,
    ) -> PolicyFetchOutcome {
        let policy_host = domain
            .prefixed(mtasts::POLICY_HOST_LABEL)
            .expect("policy host label is valid");

        // Layer 1: DNS over UDP.
        let (addrs, cname_chain) = match self.wire_resolve(policy_host.clone(), RecordType::A).await
        {
            Ok(lookup) => (lookup.a_addrs(), lookup.cname_chain),
            Err(e) => {
                let chain = self
                    .wire_resolve(policy_host.clone(), RecordType::Cname)
                    .await
                    .ok()
                    .map(|l| {
                        l.records
                            .iter()
                            .filter_map(|r| match &r.data {
                                dns::RecordData::Cname(t) => Some(t.clone()),
                                _ => None,
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                return PolicyFetchOutcome {
                    cname_chain: chain,
                    result: Err(PolicyFetchError::Dns(e.to_string())),
                };
            }
        };
        let Some(sim_ip) = addrs.first().copied() else {
            return PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Dns("no A records".to_string())),
            };
        };

        // Layer 2: TCP connect.
        let Some(&addr) = self.web_addrs.get(&sim_ip) else {
            return PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Tcp(format!(
                    "connection refused to {sim_ip}"
                ))),
            };
        };
        let socket = match TcpStream::connect(addr).await {
            Ok(s) => s,
            Err(e) => {
                return PolicyFetchOutcome {
                    cname_chain,
                    result: Err(PolicyFetchError::Tcp(e.to_string())),
                }
            }
        };

        // Layers 3-4: TLS + HTTP via the real client (opportunistic so the
        // chain is captured; validation happens offline below).
        let fetch = match httpsim::client::https_get(
            socket,
            tlssim::ClientConfig::opportunistic(policy_host.clone(), 0xC11E, 0xC11E_5EC2),
            mtasts::WELL_KNOWN_PATH,
        )
        .await
        {
            Ok(fetch) => fetch,
            Err(httpsim::client::HttpsError::Tls(e)) => {
                let failure = match &e {
                    tlssim::HandshakeError::PeerAlert(tlssim::Alert::UnrecognizedName) => {
                        TlsFailure::Cert(pkix::CertError::NoCertificate)
                    }
                    other => TlsFailure::Handshake(other.to_string()),
                };
                return PolicyFetchOutcome {
                    cname_chain,
                    result: Err(PolicyFetchError::Tls(failure)),
                };
            }
            Err(httpsim::client::HttpsError::Http(e)) => {
                return PolicyFetchOutcome {
                    cname_chain,
                    result: Err(PolicyFetchError::Tcp(format!("http transport: {e}"))),
                }
            }
        };

        // Offline strict validation, as on the fast path.
        if let Err(e) = validate_chain(
            &fetch.peer_chain,
            &policy_host,
            now,
            world.pki.trust_store(),
        ) {
            return PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Tls(TlsFailure::Cert(e))),
            };
        }
        if fetch.response.status.0 != 200 {
            return PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Http(fetch.response.status.0)),
            };
        }
        let body = fetch.response.body_text().unwrap_or_default();
        match parse_policy(body) {
            Ok(policy) => PolicyFetchOutcome {
                cname_chain,
                result: Ok((policy, body.to_string())),
            },
            Err(e) => PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Syntax(e)),
            },
        }
    }

    /// The wire-path MX session: the A lookup over UDP DNS, then
    /// [`probe_mx_at`] against the host's listener.
    pub async fn probe_mx(
        &self,
        mx_host: &DomainName,
        rcpt_to: Option<&str>,
    ) -> MxProbeOutcome<'static> {
        let Ok(lookup) = self.wire_resolve(mx_host.clone(), RecordType::A).await else {
            return MxProbeOutcome::unreachable();
        };
        let Some(&addr) = lookup
            .a_addrs()
            .first()
            .and_then(|ip| self.mx_addrs.get(ip))
        else {
            return MxProbeOutcome::unreachable();
        };
        probe_mx_at(addr, mx_host, rcpt_to).await
    }
}

/// One SMTP session over real TCP with the MX for `mx_host` listening at
/// `addr`: the instrumented client ([`smtp::probe_mx`]) read into the fast
/// path's outcome. `rcpt_to` is the recipient a sender names, as in
/// [`World::probe_mx`]; a refusal ends the session as that reply.
pub async fn probe_mx_at(
    addr: SocketAddr,
    mx_host: &DomainName,
    rcpt_to: Option<&str>,
) -> MxProbeOutcome<'static> {
    let Ok(socket) = TcpStream::connect(addr).await else {
        return MxProbeOutcome::unreachable();
    };
    let config = ProbeConfig {
        helo_name: "scanner.mta-sts-lab.example".parse().expect("static name"),
        mx_hostname: mx_host.clone(),
        nonce: 0x9806,
        dh_secret: 0x9806_5EC2,
    };
    let Ok(result) = smtp::probe_mx(socket, &config, rcpt_to).await else {
        return MxProbeOutcome::unreachable();
    };
    if let Some((code, text)) = result.reply {
        return MxProbeOutcome::ended(SmtpReply { code: code.0, text });
    }
    let (chain, tls_failure) = match result.tls {
        Some(Ok(chain)) => (Some(chain.into()), None),
        Some(Err(e)) => (None, Some(e)),
        None => (None, None),
    };
    MxProbeOutcome {
        reachable: true,
        used_helo: result.used_helo_fallback,
        starttls_offered: result.starttls_offered,
        chain,
        tls_failure,
        reply: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::CertKind;
    use dns::RecordData;
    use netbase::SimDate;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn now() -> SimInstant {
        SimDate::ymd(2024, 6, 1).at_midnight()
    }

    /// Builds a world with one valid domain and one broken-cert domain.
    fn two_domain_world() -> World {
        let mut w = World::new();
        for (domain, kind) in [
            ("good.com", CertKind::Valid),
            ("badcert.com", CertKind::SelfSigned),
        ] {
            let domain = n(domain);
            let policy_host = domain.prefixed("mta-sts").unwrap();
            let mx_host = domain.prefixed("mx").unwrap();
            w.ensure_zone(&domain);
            let mut web = WebEndpoint::up();
            web.identity.install(
                policy_host.clone(),
                w.pki
                    .issue(&kind, std::slice::from_ref(&policy_host), now()),
            );
            web.install_policy(
                policy_host.clone(),
                &format!("version: STSv1\r\nmode: enforce\r\nmx: {mx_host}\r\nmax_age: 86400\r\n"),
            );
            let web_ip = w.add_web_endpoint(web);
            let mx_chain = w.pki.issue_valid(std::slice::from_ref(&mx_host), now());
            let mx_ip = w.add_mx_endpoint(MxEndpoint::healthy(mx_host.clone(), mx_chain));
            w.with_zone(&domain, |z| {
                z.add_rr(&policy_host, 300, RecordData::A(web_ip));
                z.add_rr(&mx_host, 300, RecordData::A(mx_ip));
                z.add_rr(
                    &domain,
                    300,
                    RecordData::Mx {
                        preference: 10,
                        exchange: mx_host.clone(),
                    },
                );
                z.add_rr(
                    &domain.prefixed("_mta-sts").unwrap(),
                    300,
                    RecordData::Txt(vec!["v=STSv1; id=1;".into()]),
                );
            });
        }
        w
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn wire_and_fast_paths_agree() {
        let world = two_domain_world();
        let wire = WireWorld::deploy(&world).await.unwrap();
        for domain in ["good.com", "badcert.com"] {
            let domain = n(domain);
            let fast = world.fetch_policy(&domain, now());
            let slow = wire.fetch_policy(&world, &domain, now()).await;
            // Layer-for-layer agreement.
            match (&fast.result, &slow.result) {
                (Ok((fp, _)), Ok((sp, _))) => assert_eq!(fp, sp),
                (Err(fe), Err(se)) => assert_eq!(fe.layer(), se.layer(), "{domain}"),
                other => panic!("paths disagree for {domain}: {other:?}"),
            }
            let fast_probe = world.probe_mx(&domain.prefixed("mx").unwrap(), None, now());
            let slow_probe = wire.probe_mx(&domain.prefixed("mx").unwrap(), None).await;
            assert_eq!(fast_probe.reachable, slow_probe.reachable);
            assert_eq!(fast_probe.starttls_offered, slow_probe.starttls_offered);
            assert_eq!(fast_probe.chain, slow_probe.chain, "{domain}");
        }
        wire.shutdown().await;
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn wire_detects_cert_error_like_fast_path() {
        let world = two_domain_world();
        let wire = WireWorld::deploy(&world).await.unwrap();
        let outcome = wire.fetch_policy(&world, &n("badcert.com"), now()).await;
        assert_eq!(
            outcome.result,
            Err(PolicyFetchError::Tls(TlsFailure::Cert(
                pkix::CertError::SelfSigned
            )))
        );
        wire.shutdown().await;
    }
}
