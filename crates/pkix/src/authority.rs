//! Simulated certificate authorities and the trust store.
//!
//! Models the slice of the WebPKI the study interacts with: root and
//! intermediate CAs issuing domain-validated leaf certificates. Policy
//! hosting providers in the paper obtain certificates for
//! `mta-sts.<customer>` via ACME (§2.5, Table 2) — [`CertAuthority::issue_leaf`]
//! is that operation's analogue.
//!
//! Key simplification: a [`KeyPair`]'s "public key" is its `key_id`, and
//! signatures are keyed digests under that id (see [`crate::digest`]).
//! Verification therefore only needs the id, exactly as real verification
//! only needs the public key. Nothing here resists a real adversary.

use crate::cert::SimCert;
use crate::digest::keyed_digest;
use netbase::{DomainName, SimInstant};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global key-id allocator; ids only need to be unique within a process.
static NEXT_KEY_ID: AtomicU64 = AtomicU64::new(1);

/// A simulated key pair (the id doubles as the public key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyPair {
    /// Public identifier.
    pub key_id: u64,
}

impl KeyPair {
    /// Generates a fresh key pair.
    pub fn generate() -> KeyPair {
        KeyPair {
            key_id: NEXT_KEY_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// A certificate authority: a key pair plus its own certificate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CertAuthority {
    /// The CA's certificate (self-signed for roots).
    pub cert: SimCert,
    /// The CA's key pair.
    pub key: KeyPair,
    /// Serial counter for issued certificates.
    next_serial: u64,
}

impl CertAuthority {
    /// Creates a self-signed root CA valid over `[not_before, not_after]`.
    pub fn new_root(name: &str, not_before: SimInstant, not_after: SimInstant) -> CertAuthority {
        Self::new_root_with_key(name, KeyPair::generate(), not_before, not_after)
    }

    /// Root CA with a caller-provided key (for deterministic ecosystems).
    pub fn new_root_with_key(
        name: &str,
        key: KeyPair,
        not_before: SimInstant,
        not_after: SimInstant,
    ) -> CertAuthority {
        let mut cert = SimCert {
            serial: 0,
            subject_cn: name.to_string(),
            san: Vec::new(),
            issuer_cn: name.to_string(),
            subject_key_id: key.key_id,
            issuer_key_id: key.key_id,
            not_before,
            not_after,
            is_ca: true,
            signature: [0; 32],
        };
        cert.signature = keyed_digest(key.key_id, &cert.tbs_bytes());
        CertAuthority {
            cert,
            key,
            next_serial: 1,
        }
    }

    /// Issues an intermediate CA signed by `self`.
    pub fn issue_intermediate(
        &mut self,
        name: &str,
        not_before: SimInstant,
        not_after: SimInstant,
    ) -> CertAuthority {
        let key = KeyPair::generate();
        let mut cert = SimCert {
            serial: self.take_serial(),
            subject_cn: name.to_string(),
            san: Vec::new(),
            issuer_cn: self.cert.subject_cn.clone(),
            subject_key_id: key.key_id,
            issuer_key_id: self.key.key_id,
            not_before,
            not_after,
            is_ca: true,
            signature: [0; 32],
        };
        cert.signature = keyed_digest(self.key.key_id, &cert.tbs_bytes());
        CertAuthority {
            cert,
            key,
            next_serial: 1,
        }
    }

    /// Issues a domain-validated leaf certificate for `names` (the first
    /// name becomes the CN). This is the ACME issuance analogue used by
    /// policy-hosting providers and mail operators.
    pub fn issue_leaf(
        &mut self,
        names: &[DomainName],
        not_before: SimInstant,
        not_after: SimInstant,
    ) -> SimCert {
        assert!(!names.is_empty(), "a leaf needs at least one name");
        let key = KeyPair::generate();
        let mut cert = SimCert {
            serial: self.take_serial(),
            subject_cn: names[0].to_string(),
            san: names.to_vec(),
            issuer_cn: self.cert.subject_cn.clone(),
            subject_key_id: key.key_id,
            issuer_key_id: self.key.key_id,
            not_before,
            not_after,
            is_ca: false,
            signature: [0; 32],
        };
        cert.signature = keyed_digest(self.key.key_id, &cert.tbs_bytes());
        cert
    }

    fn take_serial(&mut self) -> u64 {
        let s = self.next_serial;
        self.next_serial += 1;
        s
    }
}

/// Creates a self-signed leaf certificate — the misconfiguration the paper
/// repeatedly observes on self-managed policy servers and MX hosts, and the
/// June 8, 2024 third-party incident (Figure 5).
pub fn self_signed_leaf(
    names: &[DomainName],
    not_before: SimInstant,
    not_after: SimInstant,
) -> SimCert {
    assert!(!names.is_empty(), "a leaf needs at least one name");
    let key = KeyPair::generate();
    let mut cert = SimCert {
        serial: 1,
        subject_cn: names[0].to_string(),
        san: names.to_vec(),
        issuer_cn: names[0].to_string(),
        subject_key_id: key.key_id,
        issuer_key_id: key.key_id,
        not_before,
        not_after,
        is_ca: false,
        signature: [0; 32],
    };
    cert.signature = keyed_digest(key.key_id, &cert.tbs_bytes());
    cert
}

/// The set of trusted root key ids (the "system trust store").
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrustStore {
    roots: HashSet<u64>,
}

impl TrustStore {
    /// An empty store (nothing validates).
    pub fn empty() -> TrustStore {
        TrustStore::default()
    }

    /// Adds a root CA.
    pub fn add_root(&mut self, root: &CertAuthority) {
        self.roots.insert(root.key.key_id);
    }

    /// Whether `key_id` is a trusted root key.
    pub fn is_trusted_root_key(&self, key_id: u64) -> bool {
        self.roots.contains(&key_id)
    }

    /// Number of trusted roots.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True if no roots are trusted.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbase::SimDate;

    fn window() -> (SimInstant, SimInstant) {
        (
            SimDate::ymd(2021, 1, 1).at_midnight(),
            SimDate::ymd(2031, 1, 1).at_midnight(),
        )
    }

    #[test]
    fn root_is_self_signed_and_valid() {
        let (nb, na) = window();
        let root = CertAuthority::new_root("Sim Root", nb, na);
        assert!(root.cert.is_self_signed());
        assert!(root.cert.signature_valid());
        assert!(root.cert.is_ca);
    }

    #[test]
    fn issuance_chain_links_by_key_ids() {
        let (nb, na) = window();
        let mut root = CertAuthority::new_root("Sim Root", nb, na);
        let mut inter = root.issue_intermediate("Sim Intermediate", nb, na);
        let leaf = inter.issue_leaf(&["mx.example.com".parse().unwrap()], nb, na);
        assert_eq!(leaf.issuer_key_id, inter.key.key_id);
        assert_eq!(inter.cert.issuer_key_id, root.key.key_id);
        assert!(leaf.signature_valid());
        assert!(inter.cert.signature_valid());
        assert!(!leaf.is_ca);
    }

    #[test]
    fn serials_increment() {
        let (nb, na) = window();
        let mut root = CertAuthority::new_root("Sim Root", nb, na);
        let a = root.issue_leaf(&["a.example.com".parse().unwrap()], nb, na);
        let b = root.issue_leaf(&["b.example.com".parse().unwrap()], nb, na);
        assert_ne!(a.serial, b.serial);
    }

    #[test]
    fn self_signed_leaf_is_flagged() {
        let (nb, na) = window();
        let c = self_signed_leaf(&["mta-sts.example.com".parse().unwrap()], nb, na);
        assert!(c.is_self_signed());
        assert!(c.signature_valid());
        assert!(!c.is_ca);
    }

    #[test]
    fn trust_store_membership() {
        let (nb, na) = window();
        let root = CertAuthority::new_root("Sim Root", nb, na);
        let other = CertAuthority::new_root("Other Root", nb, na);
        let mut store = TrustStore::empty();
        assert!(store.is_empty());
        store.add_root(&root);
        assert!(store.is_trusted_root_key(root.key.key_id));
        assert!(!store.is_trusted_root_key(other.key.key_id));
        assert_eq!(store.len(), 1);
    }
}
