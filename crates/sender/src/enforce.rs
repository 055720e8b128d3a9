//! MTA-STS enforcement inside the delivery queue (RFC 8461 §5).
//!
//! Resolution itself — which policy governs a recipient domain — is the
//! core decision [`mtasts::classify`] / [`mtasts::conclude`] every
//! sender in the workspace shares; this module is what the *queue* adds
//! around it, shaped by the queue's determinism contract:
//!
//! - **Per-(domain, wave) resolution.** The policy for a recipient
//!   domain is resolved once per wave — at the admission instant of the
//!   wave's first message for that domain — through the queue's TOFU
//!   cache with RFC 8461 §3.3 stale fallback
//!   ([`mtasts::PolicyCache::resolve`]). Workers then see an
//!   immutable [`WavePolicies`] snapshot, so resolution order (and
//!   therefore cache state) is independent of thread count.
//! - **Typed TLS requirements.** Policy mode maps to a per-attempt
//!   [`TlsRequirement`]: `enforce` ⇒ PKIX-required, `testing` ⇒
//!   opportunistic-with-accounting, `none`/no policy ⇒ plain
//!   opportunistic. Usable TLSA records override MTA-STS entirely
//!   (RFC 7672 precedence, the kumomta `enable_mta_sts` egress rule).
//! - **Evidence, not booleans.** Each delivered attempt reports
//!   [`TlsEvidence`] so `testing` mode can account soft failures for
//!   RFC 8460 TLSRPT without refusing anything.
//! - **One TLS check.** [`TlsRequirement::check`] turns one MX session
//!   ([`simnet::World::probe_mx`], or the wire's
//!   [`simnet::wire::probe_mx_at`]) into evidence or a refusal. The
//!   queue's transports reach it through
//!   [`crate::AttemptDisposition::judge`]; the deliverability platform
//!   and the downgrade sweep's sender call it directly.
//!
//! The cache itself rides the `MTASTS-DLVQ2` checkpoint (see
//! `pipeline.rs`), so kill/resume replays the same resolution sequence
//! a straight-through run performs.

use mtasts::{Mode, StsFailure};
use netbase::{DomainName, SimInstant};
use pkix::{validate_chain, CertError, TrustStore};
use serde::{Deserialize, Serialize};
use simnet::MxProbeOutcome;
use std::collections::BTreeMap;

pub use mtasts::{report_outcome, ResolvedPolicy};

/// Queue-level enforcement knobs.
#[derive(Debug, Clone)]
pub struct EnforcementConfig {
    /// Honour DANE precedence: when usable TLSA records exist for an MX
    /// host, DANE governs that attempt and the MTA-STS policy is
    /// ignored for it (RFC 7672; kumomta's egress semantics). Disabling
    /// this makes MTA-STS authoritative even on DNSSEC-signed hosts.
    pub dane_precedence: bool,
}

impl Default for EnforcementConfig {
    fn default() -> EnforcementConfig {
        EnforcementConfig {
            dane_precedence: true,
        }
    }
}

/// The immutable per-wave resolution snapshot workers read.
pub type WavePolicies = BTreeMap<DomainName, ResolvedPolicy>;

/// How strictly one delivery attempt must treat TLS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsRequirement {
    /// Upgrade when offered; no validation (the paper's 93.2% majority).
    Opportunistic,
    /// Upgrade when offered; validate the certificate and report the
    /// verdict, but never fail the attempt (`testing`-mode accounting).
    OpportunisticAudit,
    /// STARTTLS plus a PKIX-valid certificate, or the attempt is
    /// refused (`enforce`).
    RequirePkix,
    /// DANE governs: the presented chain must validate against these
    /// TLSA records (RFC 7672).
    RequireDane(Vec<dns::TlsaRecord>),
}

impl TlsRequirement {
    /// Whether the session `probe` observed with `host` meets this
    /// requirement at `now` (RFC 8461 §4.1 and §5; RFC 7672 for DANE).
    ///
    /// A session without a presented chain (no STARTTLS, a stripped or
    /// failed upgrade, or no session at all) stays in plaintext: the
    /// opportunistic arms accept that, the required arms refuse it with
    /// [`StsFailure::StartTlsUnavailable`]. With a chain, `RequirePkix`
    /// and `RequireDane` refuse a chain that fails validation, and
    /// `OpportunisticAudit` reports the failure without refusing. The
    /// DANE arm passes the DNSSEC gate: its records come from a signed
    /// zone ([`simnet::World::tlsa_records`]).
    pub fn check(
        &self,
        probe: &MxProbeOutcome<'_>,
        host: &DomainName,
        now: SimInstant,
        roots: &TrustStore,
    ) -> Result<TlsEvidence, StsFailure> {
        let Some(chain) = probe.chain.as_deref() else {
            return match self {
                TlsRequirement::Opportunistic | TlsRequirement::OpportunisticAudit => {
                    Ok(TlsEvidence::Plaintext)
                }
                TlsRequirement::RequirePkix | TlsRequirement::RequireDane(_) => {
                    Err(StsFailure::StartTlsUnavailable)
                }
            };
        };
        match self {
            TlsRequirement::Opportunistic => Ok(TlsEvidence::Encrypted),
            TlsRequirement::OpportunisticAudit => {
                Ok(match validate_chain(chain, host, now, roots) {
                    Ok(()) => TlsEvidence::Validated,
                    Err(e) => TlsEvidence::CertFailed(e),
                })
            }
            TlsRequirement::RequirePkix => validate_chain(chain, host, now, roots)
                .map(|()| TlsEvidence::Validated)
                .map_err(StsFailure::CertInvalid),
            TlsRequirement::RequireDane(tlsa) => {
                danelite::validate_dane(tlsa, chain, true, host, now, roots)
                    .map(|_| TlsEvidence::Validated)
                    .map_err(|e| StsFailure::DaneInvalid {
                        reason: e.to_string(),
                    })
            }
        }
    }
}

/// TLS evidence from a delivered attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsEvidence {
    /// The session stayed in plaintext.
    Plaintext,
    /// TLS was used; the certificate was not examined.
    Encrypted,
    /// TLS was used and the chain validated under the requirement.
    Validated,
    /// TLS was used but the chain failed audit validation
    /// (`OpportunisticAudit` only — a hard requirement refuses instead).
    CertFailed(CertError),
}

impl TlsEvidence {
    /// Whether the session was encrypted at all.
    pub fn tls_used(&self) -> bool {
        !matches!(self, TlsEvidence::Plaintext)
    }
}

/// What governed the terminal attempt of a message — rides the ledger.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StsApplication {
    /// No policy applied (no record, invalid record, fetch failure, or
    /// enforcement disabled).
    None,
    /// DANE took precedence (usable TLSA records on the attempted MX).
    Dane,
    /// An MTA-STS policy governed the attempt.
    Sts {
        /// The policy's mode.
        mode: Mode,
        /// Whether the policy came from cache.
        from_cache: bool,
        /// Whether §3.3 stale fallback supplied it.
        stale: bool,
    },
}

impl StsApplication {
    /// `Sts`/`Dane` with `Active` resolution, for ledger assertions.
    pub fn covered(&self) -> bool {
        !matches!(self, StsApplication::None)
    }
}
