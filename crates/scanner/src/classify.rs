//! Managing-entity classification (§4.3.1).
//!
//! The paper infers, from public DNS alone, whether a domain's mail and
//! policy services are self-managed or third-party:
//!
//! - **Heuristic 1 (third-party)**: an entity operating infrastructure for
//!   ≥ 50 domains is a provider — counted over MX/CNAME-target effective
//!   SLDs, with A-record IPs also consulted for mail. The *single
//!   administrator* nuance: a popular-looking MX group whose domains also
//!   share policy-hosting IPs is one person's fleet (the mxascen case),
//!   classified self-managed.
//! - **Heuristic 2 (self-managed)**: an MX/NS under the domain's own eSLD
//!   is self-managed; a policy host serving ≤ 5 domains is self-managed.
//!
//! Classification is a two-pass process: [`EntityClassifier::observe`]
//! aggregates one snapshot's scans, then [`EntityClassifier::classify`]
//! answers per domain. [`Snapshot::assemble`](crate::scan::Snapshot::assemble)
//! runs both passes once per snapshot with a classifier that lives only
//! inside the build, and keeps each domain's [`EntityClasses`] in
//! `Snapshot::classes`, parallel to its scans. Figures 5, 6 and 10 read
//! that column; they classify nothing themselves.

use crate::taxonomy::DomainScan;
use netbase::DomainName;
use serde::Serialize;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};

/// Threshold for Heuristic 1: providers serve at least this many domains.
pub const THIRD_PARTY_MIN_DOMAINS: usize = 50;
/// Threshold for Heuristic 2 on policy hosts: at most this many domains.
pub const SELF_MANAGED_MAX_DOMAINS: usize = 5;
/// Single-administrator grouping: if at least this share of an MX group's
/// domains lands on the same policy IP set, the group is one operator.
pub const SINGLE_ADMIN_SHARE: f64 = 0.9;

/// The classification outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum EntityClass {
    /// Operated by the domain owner.
    SelfManaged,
    /// Operated by a provider (≥ 50 customers).
    ThirdParty,
    /// Neither heuristic fires (the paper's unclassified remainder).
    Unclassified,
}

impl EntityClass {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EntityClass::SelfManaged => "self-managed",
            EntityClass::ThirdParty => "third-party",
            EntityClass::Unclassified => "unclassified",
        }
    }
}

/// One domain's managing entities within one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityClasses {
    /// Who runs the mail service, from the MX records (Figures 6 and 10).
    pub mail: EntityClass,
    /// Who hosts the policy, from the CNAME evidence (Figures 5 and 10).
    pub policy: EntityClass,
}

/// The domains whose MX records fall under one eSLD.
#[derive(Debug, Default)]
struct MxGroup {
    /// How many domains use the group.
    domains: usize,
    /// Of those, how many host their policy directly on each IP.
    policy_ips: HashMap<Ipv4Addr, usize>,
    /// The single-administrator verdict over the counts above, computed
    /// on first use; [`EntityClassifier::observe`] clears it whenever it
    /// changes them.
    single_admin: OnceLock<bool>,
}

impl MxGroup {
    /// Whether an apparently popular MX group is really one administrator:
    /// ≥ [`SINGLE_ADMIN_SHARE`] of its domains sit on its top two direct
    /// policy IPs.
    fn is_single_admin(&self) -> bool {
        *self.single_admin.get_or_init(|| {
            // Two shared IPs (the mxascen case) still count: look at the
            // top two IPs' combined share.
            let (mut top, mut second) = (0, 0);
            for &n in self.policy_ips.values() {
                if n > top {
                    (top, second) = (n, top);
                } else if n > second {
                    second = n;
                }
            }
            (top + second) as f64 / self.domains as f64 >= SINGLE_ADMIN_SHARE
        })
    }
}

/// Applies `f` to `esld`'s entry, creating it on first sight: the only
/// time an update by borrowed eSLD allocates.
fn update<V: Default>(map: &mut HashMap<Box<str>, V>, esld: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(esld) {
        Some(entry) => f(entry),
        None => f(map.entry(esld.into()).or_default()),
    }
}

/// Each distinct eSLD among `hosts`, in first-seen order. Host lists are
/// a handful of names long, so looking back beats building a set.
fn distinct_eslds(hosts: &[DomainName]) -> impl Iterator<Item = &str> {
    hosts.iter().enumerate().filter_map(|(i, host)| {
        let esld = host.esld_str()?;
        let repeat = hosts[..i].iter().any(|h| h.esld_str() == Some(esld));
        (!repeat).then_some(esld)
    })
}

/// Aggregated observations from one snapshot, then per-domain answers.
///
/// Counts are keyed by the eSLD's presentation form and looked up with
/// the suffix [`DomainName::esld_str`] borrows from a name.
#[derive(Debug, Default)]
pub struct EntityClassifier {
    /// MX groups by MX eSLD (Heuristic 1 and single-admin detection).
    mx_groups: HashMap<Box<str>, MxGroup>,
    /// Domains per CNAME-target eSLD (policy delegation).
    cname_esld_domains: HashMap<Box<str>, usize>,
    /// Domains per NS eSLD (DNS-hosting popularity).
    ns_esld_domains: HashMap<Box<str>, usize>,
}

impl EntityClassifier {
    /// An empty classifier.
    pub fn new() -> EntityClassifier {
        EntityClassifier::default()
    }

    /// Builds the classifier from one snapshot's scans, with policy-host
    /// resolutions supplied by the scanner.
    pub fn from_scans(
        scans: &[Arc<DomainScan>],
        policy_ips: &HashMap<DomainName, Ipv4Addr>,
    ) -> EntityClassifier {
        let mut c = EntityClassifier::new();
        for scan in scans {
            c.observe(scan, policy_ips.get(&scan.domain).copied());
        }
        c
    }

    /// Folds one domain's observations in.
    pub fn observe(&mut self, scan: &DomainScan, policy_ip: Option<Ipv4Addr>) {
        // Only *directly hosted* policy IPs (no CNAME delegation) count as
        // single-administrator evidence: a provider bundling policy hosting
        // (Tutanota) funnels every customer through one CNAME target, which
        // must not make it look like one person's fleet.
        let direct_policy_ip = scan.policy_cname.is_empty().then_some(policy_ip).flatten();
        for esld in distinct_eslds(&scan.mx_records) {
            update(&mut self.mx_groups, esld, |group| {
                group.domains += 1;
                if let Some(ip) = direct_policy_ip {
                    *group.policy_ips.entry(ip).or_default() += 1;
                }
                group.single_admin.take();
            });
        }
        if let Some(esld) = scan.policy_cname.first().and_then(DomainName::esld_str) {
            update(&mut self.cname_esld_domains, esld, |n| *n += 1);
        }
        for esld in distinct_eslds(&scan.ns_records) {
            update(&mut self.ns_esld_domains, esld, |n| *n += 1);
        }
    }

    /// How many domains use MX hosts under `esld`.
    pub fn mx_group_size(&self, esld: &DomainName) -> usize {
        self.mx_groups.get(esld.as_str()).map_or(0, |g| g.domains)
    }

    /// Classifies a domain's mail and policy hosting from its scan.
    pub fn classify(&self, scan: &DomainScan) -> EntityClasses {
        EntityClasses {
            mail: self.classify_mx(&scan.domain, &scan.mx_records),
            policy: self.classify_policy(&scan.domain, &scan.policy_cname),
        }
    }

    /// Classifies a domain's mail hosting from its MX records.
    pub fn classify_mx(&self, domain: &DomainName, mx_records: &[DomainName]) -> EntityClass {
        let Some(first) = mx_records.first() else {
            return EntityClass::Unclassified;
        };
        // Heuristic 2: MX under the domain's own eSLD.
        if first.same_esld(domain) {
            return EntityClass::SelfManaged;
        }
        match first.esld_str().and_then(|esld| self.mx_groups.get(esld)) {
            // Heuristic 1, with the single-administrator exception.
            Some(group) if group.domains >= THIRD_PARTY_MIN_DOMAINS => {
                if group.is_single_admin() {
                    EntityClass::SelfManaged
                } else {
                    EntityClass::ThirdParty
                }
            }
            _ => EntityClass::Unclassified,
        }
    }

    /// Classifies a domain's policy hosting from the CNAME evidence.
    ///
    /// Direct A records (no CNAME) are self-managed per the paper's
    /// effective treatment (the Porkbun cohort lands in the self-managed
    /// series of Figure 5); CNAME targets are classified by their
    /// provider's customer count.
    pub fn classify_policy(&self, domain: &DomainName, policy_cname: &[DomainName]) -> EntityClass {
        let Some(target) = policy_cname.first() else {
            return EntityClass::SelfManaged;
        };
        // CNAME within the domain's own eSLD: an internal alias.
        if target.same_esld(domain) {
            return EntityClass::SelfManaged;
        }
        let Some(esld) = target.esld_str() else {
            return EntityClass::Unclassified;
        };
        let size = self.cname_esld_domains.get(esld).copied().unwrap_or(0);
        if size >= THIRD_PARTY_MIN_DOMAINS {
            EntityClass::ThirdParty
        } else if size <= SELF_MANAGED_MAX_DOMAINS {
            EntityClass::SelfManaged
        } else {
            EntityClass::Unclassified
        }
    }

    /// Classifies a domain's DNS hosting from its NS records (§4.3.1:
    /// an NS under the domain's own eSLD is self-managed; NS providers
    /// serving ≥ 50 domains are third parties).
    pub fn classify_dns(&self, domain: &DomainName, ns_records: &[DomainName]) -> EntityClass {
        let Some(first) = ns_records.first() else {
            return EntityClass::Unclassified;
        };
        if first.same_esld(domain) {
            return EntityClass::SelfManaged;
        }
        let Some(esld) = first.esld_str() else {
            return EntityClass::Unclassified;
        };
        if self.ns_esld_domains.get(esld).copied().unwrap_or(0) >= THIRD_PARTY_MIN_DOMAINS {
            EntityClass::ThirdParty
        } else {
            EntityClass::Unclassified
        }
    }

    /// The provider identity (CNAME-target eSLD) for delegated domains.
    pub fn policy_provider_of(&self, policy_cname: &[DomainName]) -> Option<DomainName> {
        policy_cname.first().and_then(|t| t.effective_sld())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::DomainScan;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn scan(domain: &str, mx: &[&str], cname: &[&str]) -> DomainScan {
        DomainScan {
            domain: n(domain),
            record: Ok("id".into()),
            policy: Err(crate::taxonomy::PolicyLayerError {
                layer: crate::taxonomy::PolicyLayer::Http,
                detail: "unused".into(),
                cert_error: None,
            }),
            policy_cname: cname.iter().map(|c| n(c)).collect(),
            mx_records: mx.iter().map(|m| n(m)).collect(),
            ns_records: vec![],
            mx_verdicts: vec![],
            mismatches: vec![],
            attempts: crate::taxonomy::ScanAttempts::clean(),
        }
    }

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    #[test]
    fn self_managed_mx_by_esld() {
        let c = EntityClassifier::new();
        assert_eq!(
            c.classify_mx(&n("example.com"), &[n("mx.example.com")]),
            EntityClass::SelfManaged
        );
    }

    #[test]
    fn third_party_mx_by_popularity() {
        let mut c = EntityClassifier::new();
        for i in 0..60 {
            let s = scan(&format!("d{i}.com"), &["aspmx.l.google.com"], &[]);
            c.observe(&s, Some(ip((i % 200) as u8)));
        }
        assert_eq!(
            c.classify_mx(&n("d0.com"), &[n("aspmx.l.google.com")]),
            EntityClass::ThirdParty
        );
    }

    #[test]
    fn unpopular_mx_is_unclassified() {
        let mut c = EntityClassifier::new();
        for i in 0..10 {
            let s = scan(&format!("d{i}.com"), &["in.smallmx1.net"], &[]);
            c.observe(&s, Some(ip(i)));
        }
        assert_eq!(
            c.classify_mx(&n("d0.com"), &[n("in.smallmx1.net")]),
            EntityClass::Unclassified
        );
    }

    #[test]
    fn single_admin_group_is_self_managed() {
        // The mxascen case: 60 domains share the MX *and* two policy IPs.
        let mut c = EntityClassifier::new();
        for i in 0..60u8 {
            let s = scan(&format!("m{i}.com"), &["mx.l.mxascen.com"], &[]);
            c.observe(&s, Some(ip(i % 2)));
        }
        assert_eq!(
            c.classify_mx(&n("m0.com"), &[n("mx.l.mxascen.com")]),
            EntityClass::SelfManaged
        );
    }

    #[test]
    fn observing_after_a_verdict_recomputes_it() {
        // 60 domains on two direct policy IPs: one administrator.
        let mut c = EntityClassifier::new();
        let mx = [n("mx.l.mxascen.com")];
        for i in 0..60u8 {
            let s = scan(&format!("m{i}.com"), &["mx.l.mxascen.com"], &[]);
            c.observe(&s, Some(ip(i % 2)));
        }
        assert_eq!(c.classify_mx(&n("m0.com"), &mx), EntityClass::SelfManaged);
        // Six more on distinct IPs: 60 of 66 is still ≥ 0.9.
        for i in 0..6u8 {
            let s = scan(&format!("x{i}.com"), &["mx.l.mxascen.com"], &[]);
            c.observe(&s, Some(ip(100 + i)));
        }
        assert_eq!(c.classify_mx(&n("m0.com"), &mx), EntityClass::SelfManaged);
        // A seventh: 60 of 67 falls below, so the verdict must not stick.
        let s = scan("x6.com", &["mx.l.mxascen.com"], &[]);
        c.observe(&s, Some(ip(106)));
        assert_eq!(c.classify_mx(&n("m0.com"), &mx), EntityClass::ThirdParty);
    }

    #[test]
    fn classify_answers_both_services_at_once() {
        let mut c = EntityClassifier::new();
        for i in 0..60u8 {
            let s = scan(
                &format!("d{i}.com"),
                &["aspmx.l.google.com"],
                &[&format!("d{i}-com.mta-sts.dmarcinput.com")],
            );
            c.observe(&s, Some(ip(i)));
        }
        let s = scan(
            "d0.com",
            &["aspmx.l.google.com"],
            &["d0-com.mta-sts.dmarcinput.com"],
        );
        assert_eq!(
            c.classify(&s),
            EntityClasses {
                mail: EntityClass::ThirdParty,
                policy: EntityClass::ThirdParty,
            }
        );
        let own = scan("own.com", &["mx.own.com"], &[]);
        assert_eq!(
            c.classify(&own),
            EntityClasses {
                mail: EntityClass::SelfManaged,
                policy: EntityClass::SelfManaged,
            }
        );
    }

    #[test]
    fn repeated_eslds_count_a_domain_once() {
        let mut c = EntityClassifier::new();
        let mut s = scan("d.com", &["mx1.google.com", "mx2.google.com"], &[]);
        s.ns_records = vec![n("ns1.dnsprov.net"), n("ns2.dnsprov.net")];
        c.observe(&s, None);
        assert_eq!(c.mx_group_size(&n("google.com")), 1);
        assert_eq!(c.ns_esld_domains.get("dnsprov.net"), Some(&1));
    }

    #[test]
    fn popular_mx_with_diverse_policy_ips_stays_third_party() {
        let mut c = EntityClassifier::new();
        for i in 0..60u8 {
            let s = scan(&format!("g{i}.com"), &["aspmx.l.google.com"], &[]);
            c.observe(&s, Some(ip(i))); // 60 distinct policy IPs
        }
        assert_eq!(
            c.classify_mx(&n("g0.com"), &[n("aspmx.l.google.com")]),
            EntityClass::ThirdParty
        );
    }

    #[test]
    fn policy_classification_by_cname() {
        let mut c = EntityClassifier::new();
        // 60 domains delegate to dmarcinput.com.
        for i in 0..60 {
            let s = scan(
                &format!("d{i}.com"),
                &["aspmx.l.google.com"],
                &[&format!("d{i}-com.mta-sts.dmarcinput.com")],
            );
            c.observe(&s, None);
        }
        // 3 domains delegate to a tiny host.
        for i in 0..3 {
            let s = scan(
                &format!("t{i}.com"),
                &["aspmx.l.google.com"],
                &[&format!("t{i}.tinypol.net")],
            );
            c.observe(&s, None);
        }
        // 20 domains to a mid-size host.
        for i in 0..20 {
            let s = scan(
                &format!("u{i}.com"),
                &["aspmx.l.google.com"],
                &[&format!("u{i}.midpol.net")],
            );
            c.observe(&s, None);
        }
        assert_eq!(
            c.classify_policy(&n("d0.com"), &[n("d0-com.mta-sts.dmarcinput.com")]),
            EntityClass::ThirdParty
        );
        assert_eq!(
            c.classify_policy(&n("t0.com"), &[n("t0.tinypol.net")]),
            EntityClass::SelfManaged
        );
        assert_eq!(
            c.classify_policy(&n("u0.com"), &[n("u0.midpol.net")]),
            EntityClass::Unclassified
        );
        // No CNAME at all: self-managed.
        assert_eq!(
            c.classify_policy(&n("x.com"), &[]),
            EntityClass::SelfManaged
        );
        // Internal alias: self-managed.
        assert_eq!(
            c.classify_policy(&n("x.com"), &[n("web.x.com")]),
            EntityClass::SelfManaged
        );
    }

    #[test]
    fn provider_identity_extraction() {
        let c = EntityClassifier::new();
        assert_eq!(
            c.policy_provider_of(&[n("a-com._mta.mta-sts.tech")]),
            Some(n("mta-sts.tech"))
        );
        assert_eq!(c.policy_provider_of(&[]), None);
    }

    #[test]
    fn no_mx_records_is_unclassified() {
        let c = EntityClassifier::new();
        assert_eq!(c.classify_mx(&n("x.com"), &[]), EntityClass::Unclassified);
    }
}
