//! Policy-delegation analysis (paper §2.5, §4.5, §5).
//!
//! Domain owners delegate policy hosting by pointing
//! `mta-sts.<domain>` at a provider via CNAME. This module infers, from the
//! observable DNS, (a) whether hosting is delegated and to whom, and (b)
//! whether the policy host and the email (MX) service are run by the same
//! provider — the distinction behind Figure 10's result that
//! inconsistencies are almost nonexistent with a single provider (1 domain)
//! and common across split providers (640 domains).

use netbase::DomainName;
use serde::{Deserialize, Serialize};

/// How a domain hosts its MTA-STS policy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyHosting {
    /// `mta-sts.<domain>` resolves directly (A/AAAA) with no CNAME:
    /// hosting is on infrastructure the domain controls directly.
    Direct,
    /// `mta-sts.<domain>` is a CNAME into another effective SLD.
    Delegated {
        /// The CNAME target.
        target: DomainName,
        /// The provider identity: the target's effective SLD.
        provider: DomainName,
    },
    /// CNAME within the domain's own eSLD (self-delegation; counts as
    /// direct for management purposes).
    InternalAlias {
        /// The CNAME target.
        target: DomainName,
    },
}

/// Classifies policy hosting from the CNAME chain observed when resolving
/// `mta-sts.<domain>` (empty chain = direct A/AAAA).
pub fn classify_hosting(domain: &DomainName, cname_chain: &[DomainName]) -> PolicyHosting {
    let Some(first_target) = cname_chain.first() else {
        return PolicyHosting::Direct;
    };
    if first_target.same_esld(domain) {
        return PolicyHosting::InternalAlias {
            target: first_target.clone(),
        };
    }
    let provider = first_target
        .effective_sld()
        .unwrap_or_else(|| first_target.clone());
    PolicyHosting::Delegated {
        target: first_target.clone(),
        provider,
    }
}

/// Whether two provider identities are "the same provider" per §4.5.1: they
/// share an effective SLD, or share their second label (the paper's
/// Tutanota example: `mail.tutanota.de` vs `mta-sts.tutanota.com` share
/// the label `tutanota`).
pub fn same_provider(a: &DomainName, b: &DomainName) -> bool {
    if a.same_esld(b) {
        return true;
    }
    match (brand_label(a), brand_label(b)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// The "brand" label: the leftmost label of the effective SLD
/// (`mail.tutanota.de` → `tutanota`), borrowed from the name.
fn brand_label(name: &DomainName) -> Option<&str> {
    name.esld_str()
        .map(|esld| esld.split_once('.').map_or(esld, |(brand, _)| brand))
}

/// Management split for a domain that outsources both services (§4.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProviderSplit {
    /// One provider manages both policy hosting and the MX service.
    SameProvider,
    /// Different providers manage each.
    DifferentProviders,
}

/// Infers the split from the policy-host CNAME target and an MX host name.
pub fn classify_split(policy_cname_target: &DomainName, mx_host: &DomainName) -> ProviderSplit {
    if same_provider(policy_cname_target, mx_host) {
        ProviderSplit::SameProvider
    } else {
        ProviderSplit::DifferentProviders
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn direct_hosting() {
        assert_eq!(
            classify_hosting(&n("example.com"), &[]),
            PolicyHosting::Direct
        );
    }

    #[test]
    fn internal_alias() {
        let got = classify_hosting(&n("example.com"), &[n("web.example.com")]);
        assert_eq!(
            got,
            PolicyHosting::InternalAlias {
                target: n("web.example.com")
            }
        );
    }

    #[test]
    fn delegated_to_provider() {
        let got = classify_hosting(
            &n("example.com"),
            &[n("a-com.mta-sts.dmarcinput.com"), n("edge.dmarcinput.com")],
        );
        let PolicyHosting::Delegated { provider, .. } = got else {
            panic!("expected delegation, got {got:?}")
        };
        assert_eq!(provider, n("dmarcinput.com"));
    }

    #[test]
    fn same_provider_by_esld() {
        assert!(same_provider(
            &n("mta-sts.fastmail.com"),
            &n("in1-smtp.fastmail.com")
        ));
    }

    #[test]
    fn same_provider_across_tlds_by_brand_label() {
        // The paper's Tutanota example: .de MX, .com policy host.
        assert!(same_provider(
            &n("mail.tutanota.de"),
            &n("mta-sts.tutanota.com")
        ));
    }

    #[test]
    fn different_providers() {
        assert!(!same_provider(
            &n("a-com.mta-sts.dmarcinput.com"),
            &n("mx.lucidgrow.com")
        ));
        assert_eq!(
            classify_split(&n("a-com.mta-sts.dmarcinput.com"), &n("mx.lucidgrow.com")),
            ProviderSplit::DifferentProviders
        );
    }

    #[test]
    fn split_same_provider() {
        assert_eq!(
            classify_split(&n("mta-sts.tutanota.com"), &n("mail.tutanota.de")),
            ProviderSplit::SameProvider
        );
    }
}
