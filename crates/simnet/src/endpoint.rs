//! Endpoints: the hosts behind the IPs.
//!
//! A [`WebEndpoint`] is an HTTPS server (a policy host — self-managed or a
//! provider platform serving thousands of customers, one document per
//! customer host and chains selected by the same [`tlssim::ServerIdentity`]
//! the wire server serves); an [`MxEndpoint`] is an inbound MTA. Both carry
//! the reachability and TLS fault knobs the study's taxonomy requires and
//! can be deployed 1:1 onto real sockets by [`crate::wire`].

use netbase::DomainName;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The certificate situation of an endpoint for a given name — the fault
/// palette behind Figures 5 and 6.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CertKind {
    /// Properly issued, covers the right names.
    Valid,
    /// Expired (issued in the past, lapsed).
    Expired,
    /// Self-signed.
    SelfSigned,
    /// Valid chain for a *different* name (shared-hosting default cert —
    /// the CN-mismatch class dominating self-managed failures, §4.3.3).
    WrongName(DomainName),
    /// Issued by a CA outside the public trust store.
    UntrustedCa,
    /// No certificate installed for the name at all (SSL-alert class;
    /// DMARCReport's signature failure, §4.3.3).
    NoneInstalled,
}

/// Reachability of an endpoint's TCP listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Reachability {
    /// Accepting connections.
    #[default]
    Up,
    /// Port closed (RST) — "not running a web server".
    Refused,
    /// Packets dropped — connect timeout.
    Timeout,
}

/// TLS-layer behaviour of an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TlsBehavior {
    /// Complete handshakes normally.
    #[default]
    Normal,
    /// Refuse every handshake (no TLS support on the port).
    Refuse,
    /// Drop the connection mid-handshake.
    Abort,
}

/// A policy web host.
///
/// Provider platforms install one certificate chain per customer SNI (or a
/// wildcard/default) and one policy document per customer host. The chains
/// live in a [`tlssim::ServerIdentity`], so the fast-path fetch selects
/// exactly what the wire deployment's TLS server presents, and the wire
/// deployment serves each document at [`mtasts::WELL_KNOWN_PATH`].
#[derive(Debug, Clone, Default)]
pub struct WebEndpoint {
    /// TCP reachability.
    pub reachability: Reachability,
    /// TLS behaviour.
    pub tls_behavior: TlsBehavior,
    /// Certificate chains by SNI, with the shared-hosting default.
    pub identity: tlssim::ServerIdentity,
    /// Policy documents by host: `(status, body)`.
    pub documents: HashMap<DomainName, (u16, String)>,
    /// Transient-fault schedule (empty by default). Consulted by the fast
    /// path only; the wire deployment serves the static behaviour.
    pub faults: crate::faults::FaultSchedule,
}

impl WebEndpoint {
    /// A reachable endpoint with nothing installed.
    pub fn up() -> WebEndpoint {
        WebEndpoint::default()
    }

    /// Installs a policy document served with HTTP 200.
    pub fn install_policy(&mut self, host: DomainName, body: &str) {
        self.install_document(host, 200, body);
    }

    /// Installs an arbitrary `(status, body)` for `host`.
    pub fn install_document(&mut self, host: DomainName, status: u16, body: &str) {
        self.documents.insert(host, (status, body.to_string()));
    }

    /// Removes the policy document for `host`; returns whether it existed.
    pub fn remove_policy(&mut self, host: &DomainName) -> bool {
        self.documents.remove(host).is_some()
    }

    /// Looks up the document for `host`.
    pub fn document(&self, host: &DomainName) -> Option<&(u16, String)> {
        self.documents.get(host)
    }
}

/// An inbound MTA endpoint.
#[derive(Debug, Clone)]
pub struct MxEndpoint {
    /// The hostname the server announces (and the SNI key for its cert).
    pub hostname: DomainName,
    /// TCP reachability.
    pub reachability: Reachability,
    /// Whether STARTTLS is advertised and usable.
    pub starttls: bool,
    /// The certificate chain presented after STARTTLS. An empty chain
    /// still offers STARTTLS and completes the upgrade with no
    /// certificate: an opportunistic sender encrypts, and validation
    /// fails with `NoCertificate` (PKIX and DANE alike).
    pub chain: Vec<pkix::SimCert>,
    /// Whether the server hides STARTTLS (greylisting-style).
    pub hide_starttls: bool,
    /// Whether EHLO is refused (HELO-only legacy server).
    pub helo_only: bool,
    /// Recipient domains rejected with 550 (provider opt-out residue, §5).
    pub reject_rcpt_domains: Vec<DomainName>,
    /// Transient-fault schedule (empty by default). Consulted by the fast
    /// path only; the wire deployment serves the static behaviour.
    pub faults: crate::faults::FaultSchedule,
}

impl MxEndpoint {
    /// A healthy STARTTLS-capable MX presenting `chain`.
    pub fn healthy(hostname: DomainName, chain: Vec<pkix::SimCert>) -> MxEndpoint {
        MxEndpoint {
            hostname,
            reachability: Reachability::Up,
            starttls: true,
            chain,
            hide_starttls: false,
            helo_only: false,
            reject_rcpt_domains: Vec::new(),
            faults: crate::faults::FaultSchedule::default(),
        }
    }

    /// A plaintext-only MX.
    pub fn plaintext(hostname: DomainName) -> MxEndpoint {
        MxEndpoint {
            hostname,
            reachability: Reachability::Up,
            starttls: false,
            chain: Vec::new(),
            hide_starttls: false,
            helo_only: false,
            reject_rcpt_domains: Vec::new(),
            faults: crate::faults::FaultSchedule::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pki::SharedPki;
    use netbase::SimDate;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn web_endpoint_chain_selection() {
        let mut pki = SharedPki::new();
        let now = SimDate::ymd(2024, 6, 1).at_midnight();
        let mut ep = WebEndpoint::up();
        ep.identity.install(
            n("mta-sts.alpha.com"),
            pki.issue_valid(&[n("mta-sts.alpha.com")], now),
        );
        ep.identity.install(
            n("*.provider.net"),
            pki.issue_valid(&[n("*.provider.net")], now),
        );
        ep.identity
            .set_default(pki.issue_valid(&[n("shared.host.net")], now));
        // Exact.
        assert!(ep.identity.select(&n("mta-sts.alpha.com")).is_some());
        // Wildcard coverage.
        let wild = ep.identity.select(&n("a-com.provider.net")).unwrap();
        assert_eq!(wild[0].subject_cn, "*.provider.net");
        // Default for strangers.
        let def = ep.identity.select(&n("mta-sts.unknown.org")).unwrap();
        assert_eq!(def[0].subject_cn, "shared.host.net");
    }

    #[test]
    fn web_endpoint_documents() {
        let mut ep = WebEndpoint::up();
        ep.install_policy(
            n("mta-sts.alpha.com"),
            "version: STSv1\nmode: none\nmax_age: 60\n",
        );
        assert!(ep.document(&n("mta-sts.alpha.com")).is_some());
        assert!(ep.remove_policy(&n("mta-sts.alpha.com")));
        assert!(!ep.remove_policy(&n("mta-sts.alpha.com")));
    }
}
