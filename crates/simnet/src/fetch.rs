//! The fast-path error ladders: policy fetch and MX session.
//!
//! These walk the exact layer sequence the paper's taxonomy is built on
//! (§4.3.3: DNS → TCP → TLS → HTTP → policy syntax; §4.3.4: reachability →
//! STARTTLS → certificate), against the in-memory [`World`].
//! [`World::probe_mx`] is the one model of an SMTP session with a
//! simulated MX: the scanner's probe, the delivery queue's transport and
//! every simulated sender read it. The wire path in [`crate::wire`]
//! performs the same ladders over real sockets; the differential tests
//! in `tests/` assert agreement.

use crate::endpoint::{CertKind, Reachability, TlsBehavior};
use crate::faults::{AttackKind, FaultStage};
use crate::world::World;
use dns::RecordType;
use mtasts::{parse_policy, Policy, PolicyError};
use netbase::{DomainName, SimInstant};
use pkix::{validate_chain, CertError, SimCert};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// TLS-layer failure detail.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TlsFailure {
    /// Handshake never completed (refusal, abort, no TLS support).
    Handshake(String),
    /// Handshake completed but the certificate failed validation.
    Cert(CertError),
}

impl fmt::Display for TlsFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TlsFailure::Handshake(m) => write!(f, "handshake: {m}"),
            TlsFailure::Cert(e) => write!(f, "certificate: {e}"),
        }
    }
}

/// Policy retrieval failure, by layer — Figure 5's five series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyFetchError {
    /// The policy host has no usable A/AAAA (or the lookup failed).
    Dns(String),
    /// TCP connection failed (closed port or timeout).
    Tcp(String),
    /// TLS failed (handshake or certificate).
    Tls(TlsFailure),
    /// An HTTP response other than 200.
    Http(u16),
    /// Fetched but syntactically invalid.
    Syntax(PolicyError),
}

impl PolicyFetchError {
    /// The layer label used by Figure 5.
    pub fn layer(&self) -> &'static str {
        match self {
            PolicyFetchError::Dns(_) => "dns",
            PolicyFetchError::Tcp(_) => "tcp",
            PolicyFetchError::Tls(_) => "tls",
            PolicyFetchError::Http(_) => "http",
            PolicyFetchError::Syntax(_) => "policy-syntax",
        }
    }

    /// Whether this failure shape is worth retrying — the same judgment a
    /// production scanner makes from the error it observed: server
    /// failures, timeouts, resets and 5xx are plausibly transient; NXDOMAIN,
    /// refused connections, certificate and syntax errors are not. A
    /// *static* fault that happens to look transient (e.g. a permanently
    /// dropped port) simply exhausts its retries and is still classified
    /// persistent.
    pub fn is_transient(&self) -> bool {
        match self {
            PolicyFetchError::Dns(msg) => {
                msg.contains("server failure") || msg.contains("timed out")
            }
            PolicyFetchError::Tcp(msg) => msg.contains("reset") || msg.contains("timeout"),
            PolicyFetchError::Tls(TlsFailure::Handshake(msg)) => msg.contains("reset"),
            PolicyFetchError::Tls(TlsFailure::Cert(_)) => false,
            PolicyFetchError::Http(status) => *status >= 500,
            PolicyFetchError::Syntax(_) => false,
        }
    }
}

/// Whether a raw DNS error is worth retrying (SERVFAIL, timeouts and
/// transport hiccups are; NXDOMAIN and malformed answers are not).
pub fn dns_error_is_transient(e: &dns::DnsError) -> bool {
    matches!(
        e,
        dns::DnsError::ServFail(_) | dns::DnsError::Timeout | dns::DnsError::Transport(_)
    )
}

impl fmt::Display for PolicyFetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyFetchError::Dns(m) => write!(f, "dns: {m}"),
            PolicyFetchError::Tcp(m) => write!(f, "tcp: {m}"),
            PolicyFetchError::Tls(t) => write!(f, "tls: {t}"),
            PolicyFetchError::Http(s) => write!(f, "http status {s}"),
            PolicyFetchError::Syntax(e) => write!(f, "policy syntax: {e}"),
        }
    }
}

/// Everything a policy fetch observes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyFetchOutcome {
    /// CNAME chain observed at `mta-sts.<domain>` (delegation evidence,
    /// recorded even when the fetch subsequently fails).
    pub cname_chain: Vec<DomainName>,
    /// The fetch result: parsed policy + raw document, or the layered
    /// error.
    pub result: Result<(Policy, String), PolicyFetchError>,
}

impl PolicyFetchOutcome {
    /// The parsed policy, if retrieval succeeded.
    pub fn policy(&self) -> Option<&Policy> {
        self.result.as_ref().ok().map(|(p, _)| p)
    }
}

/// A non-positive SMTP reply that ended an MX session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmtpReply {
    /// The reply code: 4xx asks the client to come back, 5xx refuses.
    pub code: u16,
    /// The reply text after the code.
    pub text: String,
}

/// Everything one SMTP session with an MX observes (§4.1's instrumented
/// client: connect → EHLO → STARTTLS → certificate).
///
/// A fast-path session borrows the endpoint's installed chain; only an
/// attacker's forged chain, or one read off the wire, is owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MxProbeOutcome<'w> {
    /// Whether the SMTP endpoint was reachable at all.
    pub reachable: bool,
    /// Whether EHLO failed and HELO was used.
    pub used_helo: bool,
    /// Whether STARTTLS was advertised, as the client saw it (a stripping
    /// attacker removes it).
    pub starttls_offered: bool,
    /// The chain the upgraded session presented: `Some` exactly when a
    /// TLS session was established, and empty when the server presented
    /// no certificate.
    pub chain: Option<Cow<'w, [SimCert]>>,
    /// A handshake-level failure description, if the upgrade broke.
    pub tls_failure: Option<String>,
    /// The reply that ended the session before STARTTLS: a 450 greylist
    /// tempfail, or a 550 for a recipient the endpoint rejects.
    pub reply: Option<SmtpReply>,
}

impl MxProbeOutcome<'_> {
    /// An unreachable-host outcome.
    pub(crate) fn unreachable() -> MxProbeOutcome<'static> {
        MxProbeOutcome {
            reachable: false,
            used_helo: false,
            starttls_offered: false,
            chain: None,
            tls_failure: None,
            reply: None,
        }
    }

    /// A reachable session that `reply` ended before any upgrade.
    pub(crate) fn ended(reply: SmtpReply) -> MxProbeOutcome<'static> {
        MxProbeOutcome {
            reachable: true,
            reply: Some(reply),
            ..MxProbeOutcome::unreachable()
        }
    }

    /// Whether the probe failed in a plausibly transient way (host down or
    /// a 4xx tempfail) and is worth retrying.
    pub fn is_transient_failure(&self) -> bool {
        !self.reachable || self.reply.as_ref().is_some_and(|r| r.code / 100 == 4)
    }

    /// Validates the presented chain for `host`; `None` when no chain was
    /// retrievable (unreachable or no STARTTLS).
    pub fn cert_verdict(
        &self,
        host: &DomainName,
        now: SimInstant,
        roots: &pkix::TrustStore,
    ) -> Option<Result<(), CertError>> {
        self.chain
            .as_deref()
            .map(|chain| validate_chain(chain, host, now, roots))
    }
}

impl World {
    /// Fetches `domain`'s MTA-STS policy over the simulated HTTPS path,
    /// walking the full §4.3.3 ladder.
    pub fn fetch_policy(&self, domain: &DomainName, now: SimInstant) -> PolicyFetchOutcome {
        let policy_host = domain
            .prefixed(mtasts::POLICY_HOST_LABEL)
            .expect("policy host label is valid");

        // Active attacker: on-path interception happens before any real
        // endpoint is consulted. Either way the attacker cannot present a
        // publicly trusted certificate for `mta-sts.<domain>`, so the
        // strict (RFC 8461 §3.3) fetch fails at the TLS layer with the
        // error its forged chain draws.
        let attacker = self.attacker();
        if attacker.active(AttackKind::CnameForge, domain, now) {
            // Forged CNAME to the attacker's host, which serves its own
            // (validly issued) certificate → name mismatch.
            let attacker_host = attacker.attacker_host().clone();
            let chain = self.pki.forge(
                &CertKind::WrongName(attacker_host.clone()),
                std::slice::from_ref(&policy_host),
                now,
            );
            let err = validate_chain(&chain, &policy_host, now, self.pki.trust_store())
                .expect_err("attacker chain never validates for the victim host");
            return PolicyFetchOutcome {
                cname_chain: vec![attacker_host],
                result: Err(PolicyFetchError::Tls(TlsFailure::Cert(err))),
            };
        }
        if attacker.active(AttackKind::HttpsMitm, domain, now) {
            // MITM terminates TLS with a certificate for the *right* name
            // issued by the attacker's own CA → unknown issuer.
            let chain = self.pki.forge(
                &CertKind::UntrustedCa,
                std::slice::from_ref(&policy_host),
                now,
            );
            let err = validate_chain(&chain, &policy_host, now, self.pki.trust_store())
                .expect_err("attacker chain never validates for the victim host");
            return PolicyFetchOutcome {
                cname_chain: Vec::new(),
                result: Err(PolicyFetchError::Tls(TlsFailure::Cert(err))),
            };
        }

        // Layer 1: DNS. Resolve A; recover the CNAME chain for delegation
        // analysis even when resolution fails (provider NXDOMAIN opt-outs,
        // §5).
        let (addrs, cname_chain) = match self.resolve(&policy_host, RecordType::A, now) {
            Ok(lookup) => (lookup.a_addrs(), lookup.cname_chain),
            Err(e) => {
                let chain = self
                    .resolve(&policy_host, RecordType::Cname, now)
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
        let Some(ip) = addrs.first().copied() else {
            return PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Dns("no A records".to_string())),
            };
        };

        // Layer 2: TCP.
        let Some(endpoint) = self.web_endpoint(ip) else {
            return PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Tcp(format!("connection refused to {ip}"))),
            };
        };
        let fault_scope = format_args!("web/{ip}");
        if endpoint
            .faults
            .sample(FaultStage::Tcp, fault_scope, now)
            .is_some()
        {
            return PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Tcp(format!(
                    "connection reset by peer at {ip}"
                ))),
            };
        }
        match endpoint.reachability {
            Reachability::Up => {}
            Reachability::Refused => {
                return PolicyFetchOutcome {
                    cname_chain,
                    result: Err(PolicyFetchError::Tcp(format!("connection refused to {ip}"))),
                }
            }
            Reachability::Timeout => {
                return PolicyFetchOutcome {
                    cname_chain,
                    result: Err(PolicyFetchError::Tcp(format!("connect timeout to {ip}"))),
                }
            }
        }

        // Layer 3: TLS. SNI and Host stay `mta-sts.<domain>` even through
        // CNAME delegation (RFC 8461 §3.3).
        if endpoint
            .faults
            .sample(FaultStage::Tls, fault_scope, now)
            .is_some()
        {
            return PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Tls(TlsFailure::Handshake(
                    "connection reset during handshake".to_string(),
                ))),
            };
        }
        match endpoint.tls_behavior {
            TlsBehavior::Normal => {}
            TlsBehavior::Refuse => {
                return PolicyFetchOutcome {
                    cname_chain,
                    result: Err(PolicyFetchError::Tls(TlsFailure::Handshake(
                        "handshake_failure alert".to_string(),
                    ))),
                }
            }
            TlsBehavior::Abort => {
                return PolicyFetchOutcome {
                    cname_chain,
                    result: Err(PolicyFetchError::Tls(TlsFailure::Handshake(
                        "connection reset during handshake".to_string(),
                    ))),
                }
            }
        }
        let chain = endpoint.identity.select(&policy_host).unwrap_or_default();
        if let Err(e) = validate_chain(chain, &policy_host, now, self.pki.trust_store()) {
            return PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Tls(TlsFailure::Cert(e))),
            };
        }

        // Layer 4: HTTP.
        if endpoint
            .faults
            .sample(FaultStage::Http, fault_scope, now)
            .is_some()
        {
            return PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Http(503)),
            };
        }
        let (status, body) = match endpoint.document(&policy_host) {
            Some((status, body)) => (*status, body.as_str()),
            None => (404, ""),
        };
        if status != 200 {
            return PolicyFetchOutcome {
                cname_chain,
                result: Err(PolicyFetchError::Http(status)),
            };
        }

        // Layer 5: syntax.
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

    /// One SMTP session with `mx_host` at `now` (§4.1's instrumented
    /// client, fast path). `rcpt_to` is the envelope recipient a sender
    /// names; a scan names none.
    ///
    /// The session draws, in this order: the endpoint's TCP fault, its
    /// SMTP greylist fault, the recipient check, an on-path STARTTLS
    /// strip and a certificate substitution. A draw that ends the session
    /// stops it, so the later ones neither fire nor count; in particular
    /// a rejected recipient draws no attack window.
    pub fn probe_mx(
        &self,
        mx_host: &DomainName,
        rcpt_to: Option<&str>,
        now: SimInstant,
    ) -> MxProbeOutcome<'_> {
        let Ok(lookup) = self.resolve(mx_host, RecordType::A, now) else {
            return MxProbeOutcome::unreachable();
        };
        let Some(ip) = lookup.a_addrs().first().copied() else {
            return MxProbeOutcome::unreachable();
        };
        let Some(endpoint) = self.mx_endpoint(ip) else {
            return MxProbeOutcome::unreachable();
        };
        if endpoint.reachability != Reachability::Up {
            return MxProbeOutcome::unreachable();
        }
        let fault_scope = format_args!("mx/{ip}");
        if endpoint
            .faults
            .sample(FaultStage::Tcp, fault_scope, now)
            .is_some()
        {
            return MxProbeOutcome::unreachable();
        }
        if endpoint
            .faults
            .sample(FaultStage::Smtp, fault_scope, now)
            .is_some()
        {
            return MxProbeOutcome::ended(SmtpReply {
                code: 450,
                text: "4.7.0 greylisted, try again later".to_string(),
            });
        }
        // Almost no MX rejects a domain, so parse the recipient only for
        // one that does.
        let rejected = rcpt_to
            .filter(|_| !endpoint.reject_rcpt_domains.is_empty())
            .and_then(|to| to.rsplit_once('@'))
            .and_then(|(_, domain)| domain.parse::<DomainName>().ok())
            .filter(|domain| endpoint.reject_rcpt_domains.contains(domain));
        if let Some(domain) = rejected {
            return MxProbeOutcome::ended(SmtpReply {
                code: 550,
                text: format!("5.7.1 relaying denied for {domain}"),
            });
        }
        let used_helo = endpoint.helo_only;
        // An on-path STRIPTLS attacker filters the capability out of the
        // EHLO response; the client cannot tell stripped from never-offered.
        let stripped = self.attack_active(AttackKind::StartTlsStrip, mx_host, now);
        let starttls_offered =
            endpoint.starttls && !endpoint.hide_starttls && !endpoint.helo_only && !stripped;
        // A cert-substituting MITM terminates the upgraded session with a
        // chain from its own CA for the right name.
        let chain = starttls_offered.then(|| {
            if self.attack_active(AttackKind::MxCertSubstitute, mx_host, now) {
                Cow::Owned(self.pki.forge(
                    &CertKind::UntrustedCa,
                    std::slice::from_ref(mx_host),
                    now,
                ))
            } else {
                Cow::Borrowed(endpoint.chain.as_slice())
            }
        });
        MxProbeOutcome {
            reachable: true,
            used_helo,
            starttls_offered,
            chain,
            tls_failure: None,
            reply: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{CertKind, MxEndpoint, WebEndpoint};
    use dns::RecordData;
    use netbase::SimDate;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn now() -> SimInstant {
        SimDate::ymd(2024, 6, 1).at_midnight()
    }

    const GOOD_POLICY: &str =
        "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 604800\r\n";

    /// A world with one correctly deployed domain.
    fn good_world() -> World {
        let mut w = World::new();
        w.ensure_zone(&n("example.com"));
        let policy_host = n("mta-sts.example.com");
        let mut web = WebEndpoint::up();
        web.identity.install(
            policy_host.clone(),
            w.pki.issue_valid(std::slice::from_ref(&policy_host), now()),
        );
        web.install_policy(policy_host.clone(), GOOD_POLICY);
        let web_ip = w.add_web_endpoint(web);
        let mx_chain = w.pki.issue_valid(&[n("mx.example.com")], now());
        let mx_ip = w.add_mx_endpoint(MxEndpoint::healthy(n("mx.example.com"), mx_chain));
        w.with_zone(&n("example.com"), |z| {
            z.add_rr(&n("mta-sts.example.com"), 300, RecordData::A(web_ip));
            z.add_rr(&n("mx.example.com"), 300, RecordData::A(mx_ip));
            z.add_rr(
                &n("example.com"),
                300,
                RecordData::Mx {
                    preference: 10,
                    exchange: n("mx.example.com"),
                },
            );
            z.add_rr(
                &n("_mta-sts.example.com"),
                300,
                RecordData::Txt(vec!["v=STSv1; id=20240601;".into()]),
            );
        });
        w
    }

    #[test]
    fn healthy_domain_fetches_policy() {
        let w = good_world();
        let outcome = w.fetch_policy(&n("example.com"), now());
        let (policy, raw) = outcome.result.expect("fetch must succeed");
        assert_eq!(policy.mode, mtasts::Mode::Enforce);
        assert_eq!(raw, GOOD_POLICY);
        assert!(outcome.cname_chain.is_empty());
    }

    #[test]
    fn dns_layer_error() {
        let mut w = World::new();
        w.ensure_zone(&n("broken.com"));
        // Record exists but mta-sts has no A record.
        let outcome = w.fetch_policy(&n("broken.com"), now());
        assert!(matches!(outcome.result, Err(PolicyFetchError::Dns(_))));
        assert_eq!(outcome.result.unwrap_err().layer(), "dns");
    }

    #[test]
    fn tcp_layer_errors() {
        let mut w = good_world();
        let ip = w.web_ips()[0];
        w.with_web(ip, |ep| ep.reachability = Reachability::Refused);
        let refused = w.fetch_policy(&n("example.com"), now());
        assert!(matches!(refused.result, Err(PolicyFetchError::Tcp(_))));
        w.with_web(ip, |ep| ep.reachability = Reachability::Timeout);
        let timeout = w.fetch_policy(&n("example.com"), now());
        let Err(PolicyFetchError::Tcp(msg)) = timeout.result else {
            panic!("expected tcp error")
        };
        assert!(msg.contains("timeout"));
    }

    #[test]
    fn tls_layer_cert_errors() {
        let mut w = good_world();
        let ip = w.web_ips()[0];
        let host = n("mta-sts.example.com");
        // Swap in an expired certificate.
        let expired = w
            .pki
            .issue(&CertKind::Expired, std::slice::from_ref(&host), now());
        w.with_web(ip, |ep| ep.identity.install(host.clone(), expired));
        let outcome = w.fetch_policy(&n("example.com"), now());
        assert_eq!(
            outcome.result,
            Err(PolicyFetchError::Tls(TlsFailure::Cert(CertError::Expired)))
        );
    }

    #[test]
    fn tls_layer_no_cert_for_sni() {
        let mut w = good_world();
        let ip = w.web_ips()[0];
        w.with_web(ip, |ep| {
            ep.identity.remove(&n("mta-sts.example.com"));
        });
        let outcome = w.fetch_policy(&n("example.com"), now());
        assert_eq!(
            outcome.result,
            Err(PolicyFetchError::Tls(TlsFailure::Cert(
                CertError::NoCertificate
            )))
        );
    }

    #[test]
    fn http_layer_404() {
        let mut w = good_world();
        let ip = w.web_ips()[0];
        w.with_web(ip, |ep| {
            ep.remove_policy(&n("mta-sts.example.com"));
        });
        let outcome = w.fetch_policy(&n("example.com"), now());
        assert_eq!(outcome.result, Err(PolicyFetchError::Http(404)));
    }

    #[test]
    fn syntax_layer_error_and_empty_file() {
        let mut w = good_world();
        let ip = w.web_ips()[0];
        w.with_web(ip, |ep| {
            ep.install_policy(n("mta-sts.example.com"), "");
        });
        let outcome = w.fetch_policy(&n("example.com"), now());
        assert_eq!(
            outcome.result,
            Err(PolicyFetchError::Syntax(PolicyError::EmptyDocument))
        );
    }

    #[test]
    fn delegated_fetch_records_cname_even_on_nxdomain() {
        // PowerDMARC-style opt-out: the CNAME remains, the target is gone.
        let mut w = World::new();
        w.ensure_zone(&n("customer.com"));
        w.ensure_zone(&n("provider.net"));
        w.with_zone(&n("customer.com"), |z| {
            z.add_rr(
                &n("mta-sts.customer.com"),
                300,
                RecordData::Cname(n("customer-com.mta-sts.provider.net")),
            );
        });
        // provider.net zone exists but the target name does not → NXDOMAIN.
        let outcome = w.fetch_policy(&n("customer.com"), now());
        assert!(matches!(outcome.result, Err(PolicyFetchError::Dns(_))));
        assert_eq!(
            outcome.cname_chain,
            vec![n("customer-com.mta-sts.provider.net")]
        );
    }

    #[test]
    fn probe_healthy_mx() {
        let w = good_world();
        let probe = w.probe_mx(&n("mx.example.com"), None, now());
        assert!(probe.reachable && probe.starttls_offered);
        let verdict = probe
            .cert_verdict(&n("mx.example.com"), now(), w.pki.trust_store())
            .unwrap();
        assert_eq!(verdict, Ok(()));
    }

    /// Every `CertError` variant (must stay exhaustive: adding a variant
    /// without updating this table is a compile-time `match` error in
    /// `all_cert_errors`' sibling tests below).
    fn all_cert_errors() -> Vec<CertError> {
        vec![
            CertError::NoCertificate,
            CertError::Expired,
            CertError::NotYetValid,
            CertError::SelfSigned,
            CertError::UnknownIssuer,
            CertError::BadSignature,
            CertError::NotACa,
            CertError::IntermediateExpired,
            CertError::NameMismatch {
                wanted: n("mta-sts.a.com"),
                presented: vec!["shared.host.net".into()],
            },
            CertError::BrokenChain,
        ]
    }

    /// Every `PolicyError` variant.
    fn all_policy_errors() -> Vec<PolicyError> {
        vec![
            PolicyError::EmptyDocument,
            PolicyError::MalformedLine("junk".into()),
            PolicyError::MissingVersion,
            PolicyError::WrongVersion("STSv2".into()),
            PolicyError::MissingMode,
            PolicyError::InvalidMode("panic".into()),
            PolicyError::MissingMaxAge,
            PolicyError::InvalidMaxAge("-1".into()),
            PolicyError::MissingMx,
            PolicyError::InvalidMxPattern {
                pattern: "*.*.a".into(),
                why: "nested wildcard".into(),
            },
            PolicyError::DuplicateKey("mode".into()),
        ]
    }

    #[test]
    fn layer_is_exhaustive_over_every_error_shape() {
        // DNS / TCP / HTTP.
        assert_eq!(PolicyFetchError::Dns("no A records".into()).layer(), "dns");
        assert_eq!(PolicyFetchError::Tcp("refused".into()).layer(), "tcp");
        for status in [301, 403, 404, 500, 503] {
            assert_eq!(PolicyFetchError::Http(status).layer(), "http");
        }
        // TLS: handshake and every certificate variant.
        assert_eq!(
            PolicyFetchError::Tls(TlsFailure::Handshake("alert".into())).layer(),
            "tls"
        );
        for cert in all_cert_errors() {
            assert_eq!(PolicyFetchError::Tls(TlsFailure::Cert(cert)).layer(), "tls");
        }
        // Syntax: every policy-error variant.
        for e in all_policy_errors() {
            assert_eq!(PolicyFetchError::Syntax(e).layer(), "policy-syntax");
        }
    }

    #[test]
    fn transient_classification_over_every_error_shape() {
        // DNS: only failure shapes a resolver could emit transiently.
        assert!(PolicyFetchError::Dns("server failure (ServFail)".into()).is_transient());
        assert!(PolicyFetchError::Dns("query timed out".into()).is_transient());
        assert!(!PolicyFetchError::Dns("NXDOMAIN".into()).is_transient());
        assert!(!PolicyFetchError::Dns("no A records".into()).is_transient());
        // TCP: resets and timeouts, not refusals.
        assert!(
            PolicyFetchError::Tcp("connection reset by peer at 10.0.0.1".into()).is_transient()
        );
        assert!(PolicyFetchError::Tcp("connect timeout to 10.0.0.1".into()).is_transient());
        assert!(!PolicyFetchError::Tcp("connection refused to 10.0.0.1".into()).is_transient());
        // TLS: a torn-down handshake may recover; alerts and every
        // certificate error are configuration, not weather.
        assert!(PolicyFetchError::Tls(TlsFailure::Handshake(
            "connection reset during handshake".into()
        ))
        .is_transient());
        assert!(
            !PolicyFetchError::Tls(TlsFailure::Handshake("handshake_failure alert".into()))
                .is_transient()
        );
        for cert in all_cert_errors() {
            assert!(
                !PolicyFetchError::Tls(TlsFailure::Cert(cert.clone())).is_transient(),
                "{cert:?} must be persistent"
            );
        }
        // HTTP: the server-error range only.
        for status in [500, 502, 503, 599] {
            assert!(PolicyFetchError::Http(status).is_transient(), "{status}");
        }
        for status in [200, 301, 403, 404, 451, 499] {
            assert!(!PolicyFetchError::Http(status).is_transient(), "{status}");
        }
        // Syntax: never transient.
        for e in all_policy_errors() {
            assert!(!PolicyFetchError::Syntax(e.clone()).is_transient(), "{e:?}");
        }
        // Raw DNS errors.
        assert!(dns_error_is_transient(&dns::DnsError::ServFail(
            dns::Rcode::ServFail
        )));
        assert!(dns_error_is_transient(&dns::DnsError::Timeout));
        assert!(!dns_error_is_transient(&dns::DnsError::NxDomain));
        assert!(!dns_error_is_transient(&dns::DnsError::Malformed(
            "truncated header".into()
        )));
        assert!(!dns_error_is_transient(&dns::DnsError::CnameChainTooLong));
    }

    #[test]
    fn transient_web_faults_fire_and_clear() {
        use crate::faults::{FaultKind, FaultSchedule};
        use netbase::Duration;
        let mut w = good_world();
        let ip = w.web_ips()[0];
        let outage_end = now() + Duration::seconds(60);
        w.with_web(ip, |ep| {
            ep.faults = FaultSchedule::new(1).with_window(FaultKind::TcpReset, now(), outage_end);
        });
        // Inside the window: a reset, classified transient.
        let during = w.fetch_policy(&n("example.com"), now());
        let err = during.result.unwrap_err();
        assert_eq!(err.layer(), "tcp");
        assert!(err.is_transient());
        // After the window: the same fetch succeeds — nothing persistent
        // was recorded anywhere.
        let after = w.fetch_policy(&n("example.com"), outage_end);
        assert!(after.result.is_ok());
    }

    #[test]
    fn transient_dns_faults_fire_and_clear() {
        use crate::faults::{FaultKind, FaultSchedule};
        use netbase::Duration;
        let mut w = good_world();
        let outage_end = now() + Duration::seconds(30);
        w.set_dns_faults(FaultSchedule::new(2).with_window(
            FaultKind::DnsServfail,
            now(),
            outage_end,
        ));
        let during = w.fetch_policy(&n("example.com"), now());
        let err = during.result.unwrap_err();
        assert_eq!(err.layer(), "dns");
        assert!(err.is_transient(), "SERVFAIL must classify as transient");
        // After the window the fetch sees the real answer: the fault is
        // drawn per instant, in front of the zones, and never sticks.
        let after = w.fetch_policy(&n("example.com"), outage_end);
        assert!(after.result.is_ok());
    }

    #[test]
    fn transient_mx_greylisting_fires_and_clears() {
        use crate::faults::{FaultKind, FaultSchedule};
        use netbase::Duration;
        let mut w = good_world();
        let ip = w.mx_ips()[0];
        let outage_end = now() + Duration::seconds(45);
        w.with_mx(ip, |mx| {
            mx.faults =
                FaultSchedule::new(3).with_window(FaultKind::SmtpGreylist, now(), outage_end);
        });
        let during = w.probe_mx(&n("mx.example.com"), None, now());
        assert!(during.reachable);
        assert_eq!(during.reply.as_ref().map(|r| r.code), Some(450));
        assert!(during.is_transient_failure());
        assert!(
            during.chain.is_none(),
            "a deferred session upgrades nothing"
        );
        let after = w.probe_mx(&n("mx.example.com"), None, outage_end);
        assert!(after.reply.is_none() && after.chain.is_some());
        assert!(!after.is_transient_failure());
    }

    #[test]
    fn active_attacker_downgrade_vectors() {
        use crate::faults::{AttackKind, AttackSchedule};
        use netbase::Duration;
        let mut w = good_world();
        let victim = n("example.com");
        let window_end = now() + Duration::hours(6);
        let attack =
            |kind| AttackSchedule::new().with_window(kind, Some(victim.clone()), now(), window_end);

        // TXT stripping: the record vanishes; other domains are untouched.
        w.set_attacker(attack(AttackKind::DnsTxtStrip));
        assert_eq!(
            w.mta_sts_txts(&victim, now()).unwrap(),
            Vec::<String>::new()
        );
        assert!(!w.mta_sts_txts(&victim, window_end).unwrap().is_empty());

        // Forged CNAME: fetch fails with a name mismatch, CNAME evidence
        // recorded.
        w.set_attacker(attack(AttackKind::CnameForge));
        let forged = w.fetch_policy(&victim, now());
        assert_eq!(forged.cname_chain, vec![n("mx.attacker.example")]);
        assert!(matches!(
            forged.result,
            Err(PolicyFetchError::Tls(TlsFailure::Cert(
                CertError::NameMismatch { .. }
            )))
        ));

        // HTTPS MITM: attacker CA cert for the right name → unknown issuer.
        w.set_attacker(attack(AttackKind::HttpsMitm));
        let mitm = w.fetch_policy(&victim, now());
        assert_eq!(
            mitm.result,
            Err(PolicyFetchError::Tls(TlsFailure::Cert(
                CertError::UnknownIssuer
            )))
        );
        // Outside the window the fetch is clean again.
        assert!(w.fetch_policy(&victim, window_end).result.is_ok());

        // MX redirect: forged MX answer points at the attacker relay.
        w.set_attacker(attack(AttackKind::MxRedirect));
        assert_eq!(
            w.mx_records(&victim, now()).unwrap(),
            vec![n("mx.attacker.example")]
        );

        // STARTTLS stripping on the victim's MX.
        w.set_attacker(attack(AttackKind::StartTlsStrip));
        let strip = w.probe_mx(&n("mx.example.com"), None, now());
        assert!(strip.reachable && !strip.starttls_offered && strip.chain.is_none());
        assert!(
            w.probe_mx(&n("mx.example.com"), None, window_end)
                .starttls_offered
        );

        // Cert substitution: the chain no longer validates.
        w.set_attacker(attack(AttackKind::MxCertSubstitute));
        let subst = w.probe_mx(&n("mx.example.com"), None, now());
        assert_eq!(
            subst.cert_verdict(&n("mx.example.com"), now(), w.pki.trust_store()),
            Some(Err(CertError::UnknownIssuer))
        );
    }

    #[test]
    fn probe_mx_fault_modes() {
        let mut w = good_world();
        let ip = w.mx_ips()[0];
        // Hide STARTTLS.
        w.with_mx(ip, |mx| mx.hide_starttls = true);
        let hidden = w.probe_mx(&n("mx.example.com"), None, now());
        assert!(hidden.reachable && !hidden.starttls_offered && hidden.chain.is_none());
        // Self-signed chain.
        w.with_mx(ip, |mx| {
            mx.hide_starttls = false;
        });
        let self_signed = w
            .pki
            .issue(&CertKind::SelfSigned, &[n("mx.example.com")], now());
        w.with_mx(ip, |mx| mx.chain = self_signed);
        let probe = w.probe_mx(&n("mx.example.com"), None, now());
        assert_eq!(
            probe.cert_verdict(&n("mx.example.com"), now(), w.pki.trust_store()),
            Some(Err(CertError::SelfSigned))
        );
        // Unreachable.
        w.with_mx(ip, |mx| mx.reachability = Reachability::Timeout);
        assert!(!w.probe_mx(&n("mx.example.com"), None, now()).reachable);
        // Unresolvable host.
        assert!(!w.probe_mx(&n("mx.nowhere.org"), None, now()).reachable);
    }
}
