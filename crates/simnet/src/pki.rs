//! The shared web PKI of the simulated Internet.
//!
//! One root CA ("SimNet Root CA") anchors every legitimately issued
//! certificate, mirroring the study's implicit single trust ecosystem. The
//! issuing intermediate plays the ACME CA: providers and self-hosters
//! request domain-validated leaves from it; misconfigured hosts get
//! expired, wrong-name or self-signed certificates via [`SharedPki::issue`].

use crate::endpoint::CertKind;
use netbase::{DomainName, Duration, SimInstant};
use pkix::authority::self_signed_leaf;
use pkix::{CertAuthority, SimCert, TrustStore};

/// Lifetime of a leaf outside the shared PKI (90 days, Let's
/// Encrypt-style): it dates self-signed and rogue-CA leaves, whose
/// untrusted anchor decides their verdict before any date does.
pub const LEAF_LIFETIME: Duration = Duration::days(90);

/// The shared PKI: the issuing intermediate and the public trust store
/// that holds its root.
pub struct SharedPki {
    issuing: CertAuthority,
    /// The trust store every validating client uses (cheap to clone).
    trust: TrustStore,
}

impl SharedPki {
    /// Creates the PKI with certificates valid across the whole study
    /// window (2021..2027).
    pub fn new() -> SharedPki {
        let nb = netbase::SimDate::ymd(2021, 1, 1).at_midnight();
        let na = netbase::SimDate::ymd(2027, 1, 1).at_midnight();
        let mut root = CertAuthority::new_root("SimNet Root CA", nb, na);
        let issuing = root.issue_intermediate("SimNet Issuing CA R1", nb, na);
        let mut trust = TrustStore::empty();
        trust.add_root(&root);
        SharedPki { issuing, trust }
    }

    /// The public trust store.
    pub fn trust_store(&self) -> &TrustStore {
        &self.trust
    }

    /// Issues a *valid* domain-validated chain (leaf + intermediate) for
    /// `names`, valid from `now` until the issuing CA expires, so it
    /// validates at every later date of the study window.
    pub fn issue_valid(&mut self, names: &[DomainName], now: SimInstant) -> Vec<SimCert> {
        self.issue(&CertKind::Valid, names, now)
    }

    /// Issues a chain exhibiting `kind` for `names` at `now` — the fault
    /// palette of Figures 5 and 6.
    pub fn issue(
        &mut self,
        kind: &CertKind,
        names: &[DomainName],
        now: SimInstant,
    ) -> Vec<SimCert> {
        chain_of(&mut self.issuing, kind, names, now)
    }

    /// The chain [`SharedPki::issue`] would give, from a copy of the
    /// issuing CA, so the PKI is left as it was: what an on-path attacker
    /// presents while the world is only read.
    pub fn forge(&self, kind: &CertKind, names: &[DomainName], now: SimInstant) -> Vec<SimCert> {
        chain_of(&mut self.issuing.clone(), kind, names, now)
    }
}

/// A chain exhibiting `kind` for `names` at `now`, leaves from `issuing`.
fn chain_of(
    issuing: &mut CertAuthority,
    kind: &CertKind,
    names: &[DomainName],
    now: SimInstant,
) -> Vec<SimCert> {
    match kind {
        CertKind::Valid => {
            // Valid as long as its issuer: a chain installed at one
            // study date still validates at every later one.
            let leaf = issuing.issue_leaf(names, now, issuing.cert.not_after);
            vec![leaf, issuing.cert.clone()]
        }
        CertKind::Expired => {
            // Issued long ago, expired before `now`.
            let start = now - Duration::days(180);
            let end = now - Duration::days(30);
            let leaf = issuing.issue_leaf(names, start, end);
            vec![leaf, issuing.cert.clone()]
        }
        CertKind::SelfSigned => {
            vec![self_signed_leaf(
                names,
                now - Duration::days(1),
                now + LEAF_LIFETIME,
            )]
        }
        CertKind::WrongName(other) => {
            chain_of(issuing, &CertKind::Valid, std::slice::from_ref(other), now)
        }
        CertKind::UntrustedCa => {
            let mut rogue = CertAuthority::new_root(
                "Unknown Issuing CA",
                now - Duration::days(365),
                now + Duration::days(365),
            );
            let leaf = rogue.issue_leaf(names, now - Duration::days(1), now + LEAF_LIFETIME);
            // Served without the rogue root: the validator sees an
            // unknown external issuer (vs. SelfSigned when a chain
            // terminates in an untrusted self-signed certificate).
            vec![leaf]
        }
        CertKind::NoneInstalled => Vec::new(),
    }
}

impl Default for SharedPki {
    fn default() -> SharedPki {
        SharedPki::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbase::SimDate;
    use pkix::{validate_chain, CertError};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn now() -> SimInstant {
        SimDate::ymd(2024, 6, 1).at_midnight()
    }

    /// From the first full-scan date (2023-11-07) to the last
    /// (2024-09-29): an installed chain keeps its verdict that long.
    const STUDY_SPAN: Duration = Duration::days(327);

    #[test]
    fn valid_chains_validate() {
        let mut pki = SharedPki::new();
        let host = n("mta-sts.example.com");
        let chain = pki.issue_valid(std::slice::from_ref(&host), now());
        assert_eq!(chain.len(), 2);
        for at in [now(), now() + STUDY_SPAN] {
            let got = validate_chain(&chain, &host, at, pki.trust_store());
            assert_eq!(got, Ok(()), "at {at}");
        }
    }

    #[test]
    fn fault_palette_produces_expected_errors() {
        let mut pki = SharedPki::new();
        let host = n("mta-sts.example.com");
        let cases: Vec<(CertKind, CertError)> = vec![
            (CertKind::Expired, CertError::Expired),
            (CertKind::SelfSigned, CertError::SelfSigned),
            (
                CertKind::WrongName(n("shared.provider.net")),
                CertError::NameMismatch {
                    wanted: host.clone(),
                    presented: vec!["shared.provider.net".to_string()],
                },
            ),
            (CertKind::UntrustedCa, CertError::UnknownIssuer),
            (CertKind::NoneInstalled, CertError::NoCertificate),
        ];
        for (kind, expected) in cases {
            let chain = pki.issue(&kind, std::slice::from_ref(&host), now());
            for at in [now(), now() + STUDY_SPAN] {
                let got = validate_chain(&chain, &host, at, pki.trust_store());
                assert_eq!(got, Err(expected.clone()), "kind {kind:?} at {at}");
            }
        }
    }

    #[test]
    fn issuance_advances_serials_and_forging_does_not() {
        let mut pki = SharedPki::new();
        let a = pki.issue_valid(&[n("a.example.com")], now());
        let forged = pki.forge(&CertKind::Valid, &[n("b.example.com")], now());
        let b = pki.issue_valid(&[n("b.example.com")], now());
        // Serials advance through the one issuing CA; a forged chain
        // validates like an issued one but leaves the counter alone.
        assert_ne!(a[0].serial, b[0].serial);
        assert_eq!(forged[0].serial, b[0].serial);
        assert_eq!(a[1], b[1]);
        assert_eq!(forged[1], b[1]);
        let host = n("b.example.com");
        assert!(validate_chain(&forged, &host, now(), pki.trust_store()).is_ok());
    }
}
