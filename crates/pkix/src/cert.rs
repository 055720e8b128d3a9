//! The simulated certificate structure and its binary codec.

use crate::digest::{keyed_digest, Digest};
use netbase::{DomainName, SimInstant};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// A simulated X.509 certificate.
///
/// Fields mirror the subset of X.509 the study's analyses read: subject
/// Common Name, Subject Alternative Names, validity window, issuer linkage
/// (by subject name + key id), a basic-constraints CA flag, and a signature
/// over the to-be-signed portion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimCert {
    /// Serial number, unique per issuing authority.
    pub serial: u64,
    /// Subject common name. For host certificates this is a DNS name and may
    /// be a wildcard pattern (`*.example.com`); for CAs it is a display name.
    pub subject_cn: String,
    /// Subject alternative names (DNS names; may include wildcards).
    pub san: Vec<DomainName>,
    /// Issuer common name (== `subject_cn` for self-signed certificates).
    pub issuer_cn: String,
    /// Public key identifier of the subject.
    pub subject_key_id: u64,
    /// Public key identifier of the issuer (== `subject_key_id` when
    /// self-signed).
    pub issuer_key_id: u64,
    /// Start of validity.
    pub not_before: SimInstant,
    /// End of validity.
    pub not_after: SimInstant,
    /// Basic constraints: whether this certificate may sign others.
    pub is_ca: bool,
    /// Signature over [`SimCert::tbs_bytes`] by the issuer key.
    pub signature: Digest,
}

impl SimCert {
    /// The "to-be-signed" serialization: everything except the signature.
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128);
        buf.extend_from_slice(&self.serial.to_be_bytes());
        push_str(&mut buf, &self.subject_cn);
        buf.extend_from_slice(&(self.san.len() as u32).to_be_bytes());
        for name in &self.san {
            push_str(&mut buf, &name.to_string());
        }
        push_str(&mut buf, &self.issuer_cn);
        buf.extend_from_slice(&self.subject_key_id.to_be_bytes());
        buf.extend_from_slice(&self.issuer_key_id.to_be_bytes());
        buf.extend_from_slice(&self.not_before.unix_secs().to_be_bytes());
        buf.extend_from_slice(&self.not_after.unix_secs().to_be_bytes());
        buf.push(u8::from(self.is_ca));
        buf
    }

    /// Whether the certificate is self-signed (issuer == subject key).
    pub fn is_self_signed(&self) -> bool {
        self.issuer_key_id == self.subject_key_id
    }

    /// Whether the signature verifies against the claimed issuer key.
    pub fn signature_valid(&self) -> bool {
        keyed_digest(self.issuer_key_id, &self.tbs_bytes()) == self.signature
    }

    /// Whether `now` falls within the validity window.
    pub fn in_validity_window(&self, now: SimInstant) -> bool {
        self.not_before <= now && now <= self.not_after
    }

    /// All DNS names this certificate claims: the SAN list, plus the CN when
    /// it parses as a DNS name *and* the SAN list is empty (legacy CN-only
    /// certificates, which the study still observes in the wild). The SAN
    /// list is borrowed; only a CN-only certificate parses and allocates.
    pub fn dns_names(&self) -> Cow<'_, [DomainName]> {
        if !self.san.is_empty() {
            return Cow::Borrowed(&self.san);
        }
        Cow::Owned(
            DomainName::parse(&self.subject_cn)
                .map(|d| vec![d])
                .unwrap_or_default(),
        )
    }

    /// Serializes to the compact binary form carried in toy-TLS frames.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = self.tbs_bytes();
        buf.extend_from_slice(&self.signature);
        buf
    }

    /// Parses the binary form produced by [`SimCert::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<SimCert, CertDecodeError> {
        let mut r = Reader { data, pos: 0 };
        let serial = r.u64()?;
        let subject_cn = r.string()?;
        let san_len = r.u32()? as usize;
        if san_len > 1024 {
            return Err(CertDecodeError("unreasonable SAN count".into()));
        }
        let mut san = Vec::with_capacity(san_len);
        for _ in 0..san_len {
            let s = r.string()?;
            san.push(DomainName::parse(&s).map_err(|e| CertDecodeError(format!("bad SAN: {e}")))?);
        }
        let issuer_cn = r.string()?;
        let subject_key_id = r.u64()?;
        let issuer_key_id = r.u64()?;
        let not_before = SimInstant::from_unix_secs(r.i64()?);
        let not_after = SimInstant::from_unix_secs(r.i64()?);
        let is_ca = r.u8()? != 0;
        let sig_bytes = r.take(crate::digest::DIGEST_LEN)?;
        let mut signature = [0u8; crate::digest::DIGEST_LEN];
        signature.copy_from_slice(sig_bytes);
        if r.pos != data.len() {
            return Err(CertDecodeError("trailing bytes".into()));
        }
        Ok(SimCert {
            serial,
            subject_cn,
            san,
            issuer_cn,
            subject_key_id,
            issuer_key_id,
            not_before,
            not_after,
            is_ca,
            signature,
        })
    }
}

/// Error decoding a certificate from bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertDecodeError(pub String);

impl fmt::Display for CertDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "certificate decode error: {}", self.0)
    }
}

impl std::error::Error for CertDecodeError {}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CertDecodeError> {
        if self.data.len() - self.pos < n {
            return Err(CertDecodeError("truncated".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CertDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CertDecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CertDecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    fn i64(&mut self) -> Result<i64, CertDecodeError> {
        Ok(self.u64()? as i64)
    }

    fn string(&mut self) -> Result<String, CertDecodeError> {
        let len = self.u32()? as usize;
        if len > 4096 {
            return Err(CertDecodeError("unreasonable string length".into()));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CertDecodeError("non-utf8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbase::SimDate;

    fn sample() -> SimCert {
        let nb = SimDate::ymd(2024, 1, 1).at_midnight();
        let na = SimDate::ymd(2024, 12, 31).at_midnight();
        let mut c = SimCert {
            serial: 42,
            subject_cn: "mta-sts.example.com".into(),
            san: vec![
                "mta-sts.example.com".parse().unwrap(),
                "*.example.com".parse().unwrap(),
            ],
            issuer_cn: "Sim Intermediate CA 1".into(),
            subject_key_id: 1001,
            issuer_key_id: 2002,
            not_before: nb,
            not_after: na,
            is_ca: false,
            signature: [0; 32],
        };
        c.signature = keyed_digest(c.issuer_key_id, &c.tbs_bytes());
        c
    }

    #[test]
    fn binary_roundtrip() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = SimCert::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let bytes = sample().to_bytes();
        for cut in [0, 4, 10, bytes.len() - 1] {
            assert!(SimCert::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(SimCert::from_bytes(&extended).is_err());
    }

    #[test]
    fn signature_verifies_and_tamper_fails() {
        let mut c = sample();
        assert!(c.signature_valid());
        c.subject_cn = "evil.example.com".into();
        assert!(!c.signature_valid());
    }

    #[test]
    fn validity_window() {
        let c = sample();
        assert!(c.in_validity_window(SimDate::ymd(2024, 6, 1).at_midnight()));
        assert!(!c.in_validity_window(SimDate::ymd(2023, 12, 31).at_midnight()));
        assert!(!c.in_validity_window(SimDate::ymd(2025, 1, 1).at_midnight()));
    }

    #[test]
    fn self_signed_detection() {
        let mut c = sample();
        assert!(!c.is_self_signed());
        c.issuer_key_id = c.subject_key_id;
        assert!(c.is_self_signed());
    }

    #[test]
    fn dns_names_prefers_san_falls_back_to_cn() {
        let c = sample();
        assert_eq!(c.dns_names().len(), 2);
        let mut cn_only = sample();
        cn_only.san.clear();
        assert_eq!(
            cn_only.dns_names(),
            vec!["mta-sts.example.com".parse::<DomainName>().unwrap()]
        );
        let mut display_cn = sample();
        display_cn.san.clear();
        display_cn.subject_cn = "Some CA Display Name".into();
        assert!(display_cn.dns_names().is_empty());
    }
}
