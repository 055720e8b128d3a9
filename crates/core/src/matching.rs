//! MX-record ↔ mx-pattern consistency: matching and mismatch taxonomy.
//!
//! Even when every component is individually healthy, MTA-STS fails if the
//! domain's actual MX records don't match the policy's `mx` patterns
//! (§4.4 of the paper). This module provides the sender-side match test and
//! the paper's four-way classification of mismatches:
//!
//! - **TLD mismatch** — pattern and MX differ in their top-level domain;
//! - **Complete domain mismatch** — no meaningful overlap;
//! - **Partial (3LD+) mismatch** — same effective SLD, labels diverge from
//!   the third level (often a stray `mta-sts.` label from misreading the
//!   RFC: 597 of 730 such domains in the paper's latest snapshot);
//! - **Typo** — edit distance ≤ 3 to some MX (and not a TLD mismatch).

use crate::policy::{MxPattern, Policy};
use netbase::{levenshtein_within, DomainName};
use serde::{Deserialize, Serialize};

/// Edit-distance bound for the typo class (§4.4 uses ≤ 3).
pub const TYPO_EDIT_DISTANCE: usize = 3;

/// Whether `mx_host` matches at least one pattern of `policy` (RFC 8461
/// §4.1 — the test a sender runs before opening the TLS session).
pub fn mx_matches_policy(mx_host: &DomainName, policy: &Policy) -> bool {
    policy.mx.iter().any(|p| p.matches(mx_host))
}

/// Whether *every* listed MX matches, whether *some* match, or none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoverageOutcome {
    /// Every MX host matches some pattern.
    AllMatch,
    /// At least one matches, at least one does not.
    PartialMatch,
    /// No MX host matches any pattern.
    NoneMatch,
    /// The domain has no MX hosts to check.
    NoMxHosts,
}

/// Evaluates pattern coverage over a domain's full MX set.
pub fn coverage(mx_hosts: &[DomainName], policy: &Policy) -> CoverageOutcome {
    if mx_hosts.is_empty() {
        return CoverageOutcome::NoMxHosts;
    }
    let matched = mx_hosts
        .iter()
        .filter(|h| mx_matches_policy(h, policy))
        .count();
    if matched == mx_hosts.len() {
        CoverageOutcome::AllMatch
    } else if matched > 0 {
        CoverageOutcome::PartialMatch
    } else {
        CoverageOutcome::NoneMatch
    }
}

/// The paper's mismatch classes (§4.4, Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MismatchKind {
    /// The TLDs differ.
    Tld,
    /// Entirely different domain names (different eSLDs, not a typo).
    CompleteDomain,
    /// Same effective SLD, divergence from the third label on.
    PartialThirdLabel,
    /// Within edit distance ≤ 3 of an actual MX (and not a TLD mismatch).
    Typo,
}

impl MismatchKind {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MismatchKind::Tld => "tld-mismatch",
            MismatchKind::CompleteDomain => "complete-domain-mismatch",
            MismatchKind::PartialThirdLabel => "3ld+-mismatch",
            MismatchKind::Typo => "typo",
        }
    }
}

/// Classifies why `pattern` fails to match any of `mx_hosts`.
///
/// Per the paper's definitions, the checks run in this order: typo (edit
/// distance ≤ 3 to some MX, TLD mismatches excluded), TLD mismatch, 3LD+
/// (same eSLD), complete mismatch. Returns `None` when the pattern in fact
/// matches some MX.
pub fn classify_mismatch(pattern: &MxPattern, mx_hosts: &[DomainName]) -> Option<MismatchKind> {
    if mx_hosts.iter().any(|h| pattern.matches(h)) {
        return None;
    }
    let pname = pattern.name();
    // Typo: small edit distance to some MX, where the TLD still agrees
    // ("TLD mismatches do not qualify as typos").
    let is_typo = mx_hosts.iter().any(|h| {
        h.tld() == pname.tld()
            && levenshtein_within(h.as_str(), pname.as_str(), TYPO_EDIT_DISTANCE)
                .map(|d| d > 0)
                .unwrap_or(false)
    });
    if is_typo {
        return Some(MismatchKind::Typo);
    }
    // TLD mismatch: the pattern's TLD differs from every MX's TLD.
    if !mx_hosts.is_empty() && mx_hosts.iter().all(|h| h.tld() != pname.tld()) {
        return Some(MismatchKind::Tld);
    }
    // 3LD+: shares an effective SLD with some MX but diverges above it.
    if mx_hosts.iter().any(|h| h.same_esld(pname)) {
        return Some(MismatchKind::PartialThirdLabel);
    }
    Some(MismatchKind::CompleteDomain)
}

/// Classifies a whole policy against the MX set: the dominant mismatch per
/// pattern, for Figure 8-style aggregation. Patterns that match are skipped.
pub fn classify_policy_mismatches(
    policy: &Policy,
    mx_hosts: &[DomainName],
) -> Vec<(MxPattern, MismatchKind)> {
    policy
        .mx
        .iter()
        .filter_map(|p| classify_mismatch(p, mx_hosts).map(|k| (p.clone(), k)))
        .collect()
}

/// The "stray mta-sts label" detector: the paper found 81.8% of 3LD+
/// mismatches embed the literal `mta-sts` label in the pattern, a
/// misreading of RFC 8461.
pub fn has_stray_mta_sts_label(pattern: &MxPattern) -> bool {
    pattern
        .name()
        .labels()
        .any(|l| l == "mta-sts" || l == "_mta-sts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Mode;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn pat(s: &str) -> MxPattern {
        MxPattern::parse(s).unwrap()
    }

    fn policy(patterns: &[&str]) -> Policy {
        Policy::new(
            Mode::Enforce,
            86_400,
            patterns.iter().map(|p| pat(p)).collect(),
        )
    }

    #[test]
    fn sender_match_test() {
        let p = policy(&["mx1.example.com", "*.example.net"]);
        assert!(mx_matches_policy(&n("mx1.example.com"), &p));
        assert!(mx_matches_policy(&n("in.example.net"), &p));
        assert!(!mx_matches_policy(&n("mx2.example.com"), &p));
    }

    #[test]
    fn coverage_classes() {
        let p = policy(&["mx1.example.com"]);
        assert_eq!(
            coverage(&[n("mx1.example.com")], &p),
            CoverageOutcome::AllMatch
        );
        assert_eq!(
            coverage(&[n("mx1.example.com"), n("mx2.example.com")], &p),
            CoverageOutcome::PartialMatch
        );
        assert_eq!(coverage(&[n("other.org")], &p), CoverageOutcome::NoneMatch);
        assert_eq!(coverage(&[], &p), CoverageOutcome::NoMxHosts);
    }

    #[test]
    fn match_is_not_a_mismatch() {
        assert_eq!(
            classify_mismatch(&pat("mx.example.com"), &[n("mx.example.com")]),
            None
        );
        assert_eq!(
            classify_mismatch(&pat("*.example.com"), &[n("mx.example.com")]),
            None
        );
    }

    #[test]
    fn tld_mismatch() {
        // Classic: policy says .com, MX lives under .net.
        assert_eq!(
            classify_mismatch(&pat("mx.example.com"), &[n("mx.example.net")]),
            Some(MismatchKind::Tld)
        );
    }

    #[test]
    fn complete_domain_mismatch() {
        assert_eq!(
            classify_mismatch(&pat("mx.oldprovider.com"), &[n("in.newprovider.com")]),
            Some(MismatchKind::CompleteDomain)
        );
    }

    #[test]
    fn third_label_mismatch_with_stray_mta_sts() {
        // The paper's signature error: the pattern embeds `mta-sts.`.
        let p = pat("mta-sts.example.com");
        assert_eq!(
            classify_mismatch(&p, &[n("mx.example.com")]),
            Some(MismatchKind::PartialThirdLabel)
        );
        assert!(has_stray_mta_sts_label(&p));
        assert!(!has_stray_mta_sts_label(&pat("mx.example.com")));
    }

    #[test]
    fn typo_detection() {
        // mx1 vs mx — edit distance 1, same TLD.
        assert_eq!(
            classify_mismatch(&pat("mx.example.com"), &[n("mx1.example.com")]),
            Some(MismatchKind::Typo)
        );
        // Transposition typo.
        assert_eq!(
            classify_mismatch(&pat("mial.example.com"), &[n("mail.example.com")]),
            Some(MismatchKind::Typo)
        );
    }

    #[test]
    fn tld_mismatch_never_counts_as_typo() {
        // mx.example.com vs mx.example.con — distance 1 but TLD differs.
        assert_eq!(
            classify_mismatch(&pat("mx.example.con"), &[n("mx.example.com")]),
            Some(MismatchKind::Tld)
        );
    }

    #[test]
    fn typo_takes_precedence_over_3ld() {
        // Same eSLD *and* tiny edit distance: the paper's taxonomy calls
        // this a typo (manual-entry artefact).
        assert_eq!(
            classify_mismatch(&pat("mx0.example.com"), &[n("mx1.example.com")]),
            Some(MismatchKind::Typo)
        );
    }

    #[test]
    fn wildcard_pattern_mismatch_classification() {
        // Wildcard for the wrong domain entirely.
        assert_eq!(
            classify_mismatch(&pat("*.googlemail.com"), &[n("mx.example.org")]),
            Some(MismatchKind::Tld)
        );
    }

    #[test]
    fn whole_policy_classification() {
        let p = policy(&["mx1.example.com", "mta-sts.example.com", "mx.other.net"]);
        let mx = vec![n("mx1.example.com"), n("mx2.example.com")];
        let mismatches = classify_policy_mismatches(&p, &mx);
        // First pattern matches; the other two are classified.
        assert_eq!(mismatches.len(), 2);
        assert_eq!(mismatches[0].1, MismatchKind::PartialThirdLabel);
        assert_eq!(mismatches[1].1, MismatchKind::Tld);
    }

    #[test]
    fn labels_stable() {
        assert_eq!(MismatchKind::Typo.label(), "typo");
        assert_eq!(MismatchKind::PartialThirdLabel.label(), "3ld+-mismatch");
    }
}
