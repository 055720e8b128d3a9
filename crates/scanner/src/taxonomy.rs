//! The per-domain scan record and error taxonomy.

use mtasts::{MismatchKind, Mode, Policy, RecordError};
use netbase::DomainName;
use pkix::CertError;
use serde::{Deserialize, Serialize};
use simnet::PolicyFetchError;
use std::net::Ipv4Addr;

/// The layer a policy-retrieval failure occurred at (Figure 5's series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PolicyLayer {
    /// Policy host unresolvable.
    Dns,
    /// TCP connect failed.
    Tcp,
    /// TLS handshake or certificate failed.
    Tls,
    /// Non-200 HTTP response.
    Http,
    /// Document retrieved but syntactically invalid.
    Syntax,
}

impl PolicyLayer {
    /// Classifies a fetch error into its layer.
    pub fn of(error: &PolicyFetchError) -> PolicyLayer {
        match error {
            PolicyFetchError::Dns(_) => PolicyLayer::Dns,
            PolicyFetchError::Tcp(_) => PolicyLayer::Tcp,
            PolicyFetchError::Tls(_) => PolicyLayer::Tls,
            PolicyFetchError::Http(_) => PolicyLayer::Http,
            PolicyFetchError::Syntax(_) => PolicyLayer::Syntax,
        }
    }

    /// Display label matching the figures.
    pub fn label(self) -> &'static str {
        match self {
            PolicyLayer::Dns => "DNS",
            PolicyLayer::Tcp => "TCP",
            PolicyLayer::Tls => "TLS",
            PolicyLayer::Http => "HTTP",
            PolicyLayer::Syntax => "Policy Syntax",
        }
    }
}

/// Per-MX probe verdict (§4.3.4, Figure 6).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MxVerdict {
    /// The MX hostname.
    pub host: DomainName,
    /// Whether the host answered SMTP at all.
    pub reachable: bool,
    /// Whether STARTTLS was advertised.
    pub starttls: bool,
    /// The certificate verdict, when a chain was retrievable.
    pub cert: Option<Result<(), CertError>>,
}

impl MxVerdict {
    /// Whether this MX *supports TLS* but fails validation — the
    /// population Figure 6 draws from (the paper excludes MXes without
    /// any TLS from certificate analysis).
    pub fn is_invalid_tls(&self) -> bool {
        matches!(self.cert, Some(Err(_)))
    }
}

/// The aggregated misconfiguration categories of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MisconfigCategory {
    /// Invalid `_mta-sts` record.
    DnsRecord,
    /// Policy retrieval failed at any layer.
    PolicyRetrieval,
    /// At least one TLS-capable MX presented an invalid certificate.
    MxCertificate,
    /// Every component fine individually, but mx patterns don't cover the
    /// MX records.
    Inconsistency,
}

impl MisconfigCategory {
    /// All categories in Figure 4's order.
    pub const ALL: [MisconfigCategory; 4] = [
        MisconfigCategory::DnsRecord,
        MisconfigCategory::PolicyRetrieval,
        MisconfigCategory::MxCertificate,
        MisconfigCategory::Inconsistency,
    ];

    /// Display label matching Figure 4.
    pub fn label(self) -> &'static str {
        match self {
            MisconfigCategory::DnsRecord => "DNS Records",
            MisconfigCategory::PolicyRetrieval => "Policy Retrieval",
            MisconfigCategory::MxCertificate => "MX Hosts Cert.",
            MisconfigCategory::Inconsistency => "Inconsistency",
        }
    }
}

/// Attempt accounting for one scan stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageAttempts {
    /// Attempts made (≥ 1 once the stage ran; 0 = stage skipped).
    pub attempts: u32,
    /// Whether a transient failure was observed and retried away.
    pub recovered: bool,
}

impl StageAttempts {
    /// A stage that succeeded (or failed persistently) on its first try.
    pub fn clean() -> StageAttempts {
        StageAttempts {
            attempts: 1,
            recovered: false,
        }
    }
}

/// Per-stage attempt accounting for a whole domain scan — the evidence the
/// supervisor's degradation report aggregates, and the hook that keeps the
/// misconfiguration statistics honest: a failure that a retry recovered
/// never reaches the taxonomy, so only *persistent* errors are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScanAttempts {
    /// The `_mta-sts` TXT lookup.
    pub record: StageAttempts,
    /// The HTTPS policy fetch.
    pub policy: StageAttempts,
    /// The SMTP MX probes (attempts summed over hosts; `recovered` if any
    /// host recovered).
    pub mx: StageAttempts,
}

impl ScanAttempts {
    /// A scan where every stage went through on the first try.
    pub fn clean() -> ScanAttempts {
        ScanAttempts {
            record: StageAttempts::clean(),
            policy: StageAttempts::clean(),
            mx: StageAttempts::clean(),
        }
    }

    /// Retries issued beyond each stage's first attempt.
    pub fn retries_issued(&self) -> u32 {
        [self.record, self.policy, self.mx]
            .iter()
            .map(|s| s.attempts.saturating_sub(1))
            .sum()
    }

    /// Stages that saw a transient failure and recovered.
    pub fn recovered_count(&self) -> u32 {
        [self.record, self.policy, self.mx]
            .iter()
            .filter(|s| s.recovered)
            .count() as u32
    }
}

/// One domain's full-component scan result, dated by the
/// [`Snapshot`](crate::scan::Snapshot) that holds it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainScan {
    /// The scanned domain.
    pub domain: DomainName,
    /// The `_mta-sts` record evaluation.
    pub record: Result<String, RecordError>,
    /// The policy fetch: parsed policy or the layered error.
    pub policy: Result<Policy, PolicyLayerError>,
    /// CNAME chain observed at `mta-sts.<domain>` (delegation evidence).
    pub policy_cname: Vec<DomainName>,
    /// The first A record of `mta-sts.<domain>`, when it resolves: the
    /// single-administrator evidence of §4.3.1.
    pub policy_ip: Option<Ipv4Addr>,
    /// The domain's MX records in preference order.
    pub mx_records: Vec<DomainName>,
    /// The domain's NS records (DNS-hosting classification evidence).
    pub ns_records: Vec<DomainName>,
    /// Per-MX verdicts.
    pub mx_verdicts: Vec<MxVerdict>,
    /// Mismatch classes per non-matching pattern (empty when consistent
    /// or no policy).
    pub mismatches: Vec<(String, MismatchKind)>,
    /// Per-stage attempt accounting (all-1s under a single-shot config).
    pub attempts: ScanAttempts,
}

/// A layered policy error with its detail string.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyLayerError {
    /// The layer.
    pub layer: PolicyLayer,
    /// Human-readable detail.
    pub detail: String,
    /// For TLS-layer failures: the certificate error, when the handshake
    /// got that far.
    pub cert_error: Option<CertError>,
}

impl DomainScan {
    /// The policy's mode, when retrievable.
    pub fn mode(&self) -> Option<Mode> {
        self.policy.as_ref().ok().map(|p| p.mode)
    }

    /// TLS-capable MX count and invalid count (Figure 6/7 denominators).
    pub fn mx_tls_counts(&self) -> (usize, usize) {
        let capable = self.mx_verdicts.iter().filter(|v| v.cert.is_some()).count();
        let invalid = self
            .mx_verdicts
            .iter()
            .filter(|v| v.is_invalid_tls())
            .count();
        (capable, invalid)
    }

    /// Figure 7's classes: all TLS-capable MXes invalid / some invalid.
    pub fn all_mx_invalid(&self) -> bool {
        let (capable, invalid) = self.mx_tls_counts();
        capable > 0 && invalid == capable
    }

    /// At least one but not all invalid.
    pub fn partially_mx_invalid(&self) -> bool {
        let (capable, invalid) = self.mx_tls_counts();
        invalid > 0 && invalid < capable
    }

    /// Whether any MX matches the policy (sender-side test). `None` when
    /// there is no usable policy or no MX records.
    pub fn any_mx_matches(&self) -> Option<bool> {
        let policy = self.policy.as_ref().ok()?;
        if self.mx_records.is_empty() || policy.mx.is_empty() {
            return None;
        }
        Some(
            self.mx_records
                .iter()
                .any(|h| mtasts::mx_matches_policy(h, policy)),
        )
    }

    /// The misconfiguration categories this domain falls into (Figure 4;
    /// non-exclusive).
    pub fn categories(&self) -> Vec<MisconfigCategory> {
        let mut out = Vec::new();
        if self.record.is_err() {
            out.push(MisconfigCategory::DnsRecord);
        }
        if self.policy.is_err() {
            out.push(MisconfigCategory::PolicyRetrieval);
        }
        if self.mx_verdicts.iter().any(|v| v.is_invalid_tls()) {
            out.push(MisconfigCategory::MxCertificate);
        }
        if !self.mismatches.is_empty() {
            out.push(MisconfigCategory::Inconsistency);
        }
        out
    }

    /// Whether the domain counts as misconfigured (any category).
    pub fn is_misconfigured(&self) -> bool {
        !self.categories().is_empty()
    }

    /// Whether MTA-STS-validating senders would *fail to deliver* to this
    /// domain (§1: 640 domains; §4.4/Figure 7-8's enforce overlays):
    /// `enforce` mode and either no pattern matches any MX, or every
    /// TLS-capable MX presents an invalid certificate.
    pub fn delivery_failure_predicted(&self) -> bool {
        let Ok(policy) = &self.policy else {
            return false; // no usable policy ⇒ senders fall back
        };
        if policy.mode != Mode::Enforce {
            return false;
        }
        if self.any_mx_matches() == Some(false) {
            return true;
        }
        self.all_mx_invalid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtasts::MxPattern;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn base_scan() -> DomainScan {
        DomainScan {
            domain: n("example.com"),
            record: Ok("a123".to_string()),
            policy: Ok(Policy::new(
                Mode::Enforce,
                86_400,
                vec![MxPattern::parse("mx.example.com").unwrap()],
            )),
            policy_cname: vec![],
            policy_ip: None,
            mx_records: vec![n("mx.example.com")],
            ns_records: vec![n("ns1.example.com")],
            mx_verdicts: vec![MxVerdict {
                host: n("mx.example.com"),
                reachable: true,
                starttls: true,
                cert: Some(Ok(())),
            }],
            mismatches: vec![],
            attempts: ScanAttempts::clean(),
        }
    }

    #[test]
    fn clean_scan_has_no_categories() {
        let scan = base_scan();
        assert!(scan.categories().is_empty());
        assert!(!scan.is_misconfigured());
        assert!(!scan.delivery_failure_predicted());
        assert_eq!(scan.any_mx_matches(), Some(true));
    }

    #[test]
    fn categories_are_non_exclusive() {
        let mut scan = base_scan();
        scan.record = Err(RecordError::MissingId);
        scan.mx_verdicts[0].cert = Some(Err(CertError::Expired));
        scan.mismatches = vec![("x".into(), MismatchKind::Typo)];
        let cats = scan.categories();
        assert_eq!(cats.len(), 3);
        assert!(cats.contains(&MisconfigCategory::DnsRecord));
        assert!(cats.contains(&MisconfigCategory::MxCertificate));
        assert!(cats.contains(&MisconfigCategory::Inconsistency));
    }

    #[test]
    fn delivery_failure_on_enforce_mismatch() {
        let mut scan = base_scan();
        scan.policy = Ok(Policy::new(
            Mode::Enforce,
            86_400,
            vec![MxPattern::parse("mx.other.net").unwrap()],
        ));
        scan.mismatches = vec![("mx.other.net".into(), MismatchKind::CompleteDomain)];
        assert!(scan.delivery_failure_predicted());
        // Same mismatch under testing: no failure.
        scan.policy = Ok(Policy::new(
            Mode::Testing,
            86_400,
            vec![MxPattern::parse("mx.other.net").unwrap()],
        ));
        assert!(!scan.delivery_failure_predicted());
    }

    #[test]
    fn delivery_failure_on_all_invalid_mx() {
        let mut scan = base_scan();
        scan.mx_verdicts[0].cert = Some(Err(CertError::SelfSigned));
        assert!(scan.all_mx_invalid());
        assert!(scan.delivery_failure_predicted());
    }

    #[test]
    fn partial_invalid_does_not_fail_delivery() {
        let mut scan = base_scan();
        scan.mx_records.push(n("mx2.example.com"));
        scan.mx_verdicts.push(MxVerdict {
            host: n("mx2.example.com"),
            reachable: true,
            starttls: true,
            cert: Some(Err(CertError::Expired)),
        });
        // One of two invalid: partial, senders can still use the valid MX.
        assert!(scan.partially_mx_invalid());
        assert!(!scan.all_mx_invalid());
        assert!(!scan.delivery_failure_predicted());
    }

    #[test]
    fn policy_layer_of_errors() {
        use simnet::TlsFailure;
        assert_eq!(
            PolicyLayer::of(&PolicyFetchError::Dns("x".into())),
            PolicyLayer::Dns
        );
        assert_eq!(
            PolicyLayer::of(&PolicyFetchError::Tls(TlsFailure::Cert(CertError::Expired))),
            PolicyLayer::Tls
        );
        assert_eq!(
            PolicyLayer::of(&PolicyFetchError::Http(404)),
            PolicyLayer::Http
        );
    }

    #[test]
    fn tls_incapable_mx_excluded_from_cert_analysis() {
        let mut scan = base_scan();
        scan.mx_verdicts[0].starttls = false;
        scan.mx_verdicts[0].cert = None;
        assert_eq!(scan.mx_tls_counts(), (0, 0));
        assert!(!scan.all_mx_invalid());
        assert!(scan.categories().is_empty());
    }
}
