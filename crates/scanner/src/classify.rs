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
//! runs both passes over a whole snapshot and keeps each domain's
//! [`EntityClasses`] in `Snapshot::classes`, parallel to its scans.
//! Figures 5, 6 and 10 read that column; they classify nothing
//! themselves.
//!
//! The monthly campaign ([`crate::supervisor`]) keeps one classifier
//! across its dates instead: [`EntityClassifier::forget`] takes a
//! changed domain's old scan back out and `observe` folds the new one
//! in, so the counts always equal a from-scratch build over the live
//! scans. A domain whose scan did not change keeps its classes unless
//! the *verdict* of an eSLD it reads moved — what `classify` reads from
//! the counts under that eSLD, which a [`VerdictLog`] records before the
//! first forget or observe touches it.

use crate::taxonomy::DomainScan;
use netbase::DomainName;
use serde::Serialize;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
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
    direct_ips: HashMap<Ipv4Addr, usize>,
    /// The single-administrator verdict over the counts above, computed
    /// on first use; [`EntityClassifier::observe`] and
    /// [`EntityClassifier::forget`] clear it whenever they change them.
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
            for &n in self.direct_ips.values() {
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

/// Applies `f` to `key`'s entry and drops the entry once `f` reports it
/// empty: the inverse of [`update`], so no zero count outlives a forget.
fn downdate<K, Q, V>(map: &mut HashMap<K, V>, key: &Q, f: impl FnOnce(&mut V) -> bool)
where
    K: Borrow<Q> + Eq + Hash,
    Q: Eq + Hash + ?Sized,
{
    let entry = map
        .get_mut(key)
        .expect("only an observed scan is forgotten");
    if f(entry) {
        map.remove(key);
    }
}

/// Counts one domain out; `true` once none is left.
fn count_out(n: &mut usize) -> bool {
    *n -= 1;
    *n == 0
}

/// The scan's policy IP when it hosts its policy directly. Only such IPs
/// (no CNAME delegation) count as single-administrator evidence: a
/// provider bundling policy hosting (Tutanota) funnels every customer
/// through one CNAME target, which must not make it look like one
/// person's fleet.
fn direct_policy_ip(scan: &DomainScan) -> Option<Ipv4Addr> {
    scan.policy_ip.filter(|_| scan.policy_cname.is_empty())
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

/// The verdicts eSLDs carried before a run of forgets and observes first
/// touched them (see [`EntityClassifier::note_verdicts`]).
#[derive(Debug, Default)]
pub(crate) struct VerdictLog {
    /// By MX eSLD.
    mx: HashMap<Box<str>, EntityClass>,
    /// By CNAME-target eSLD.
    policy: HashMap<Box<str>, EntityClass>,
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

    /// Builds the classifier from one snapshot's scans.
    pub fn from_scans(scans: &[Arc<DomainScan>]) -> EntityClassifier {
        let mut c = EntityClassifier::new();
        for scan in scans {
            c.observe(scan);
        }
        c
    }

    /// Folds one domain's observations in.
    pub fn observe(&mut self, scan: &DomainScan) {
        let direct_ip = direct_policy_ip(scan);
        for esld in distinct_eslds(&scan.mx_records) {
            update(&mut self.mx_groups, esld, |group| {
                group.domains += 1;
                if let Some(ip) = direct_ip {
                    *group.direct_ips.entry(ip).or_default() += 1;
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

    /// Takes one domain's observations back out: the exact inverse of
    /// [`EntityClassifier::observe`] with the same scan. It drops every
    /// count it brings to zero and clears the MX groups' cached
    /// single-administrator verdicts, so forgetting every observed scan
    /// leaves an empty classifier.
    ///
    /// # Panics
    ///
    /// If `scan` was not observed: its eSLDs have no counts to take.
    pub fn forget(&mut self, scan: &DomainScan) {
        let direct_ip = direct_policy_ip(scan);
        for esld in distinct_eslds(&scan.mx_records) {
            downdate(&mut self.mx_groups, esld, |group| {
                if let Some(ip) = direct_ip {
                    downdate(&mut group.direct_ips, &ip, count_out);
                }
                group.single_admin.take();
                count_out(&mut group.domains)
            });
        }
        if let Some(esld) = scan.policy_cname.first().and_then(DomainName::esld_str) {
            downdate(&mut self.cname_esld_domains, esld, count_out);
        }
        for esld in distinct_eslds(&scan.ns_records) {
            downdate(&mut self.ns_esld_domains, esld, count_out);
        }
    }

    /// Records in `log`, for each eSLD `scan` counts toward that it holds
    /// no verdict for yet, the verdict the eSLD carries now. Called before
    /// `scan` is forgotten or observed, it keeps what the log's eSLDs
    /// carried before the first change.
    pub(crate) fn note_verdicts(&self, scan: &DomainScan, log: &mut VerdictLog) {
        // Every MX eSLD counts, not just the first: another domain's
        // first MX host may sit under any of them.
        for esld in distinct_eslds(&scan.mx_records) {
            if !log.mx.contains_key(esld) {
                log.mx.insert(esld.into(), self.mx_verdict(esld));
            }
        }
        if let Some(esld) = scan.policy_cname.first().and_then(DomainName::esld_str) {
            if !log.policy.contains_key(esld) {
                log.policy.insert(esld.into(), self.policy_verdict(esld));
            }
        }
    }

    /// Whether any eSLD in `log` carries another verdict now than the one
    /// logged, emptying the log. When none does, every domain whose scan
    /// was neither forgotten nor observed since the log began keeps its
    /// classes.
    pub(crate) fn verdicts_moved(&self, log: &mut VerdictLog) -> bool {
        let moved = log.mx.iter().any(|(esld, &v)| self.mx_verdict(esld) != v)
            || log
                .policy
                .iter()
                .any(|(esld, &v)| self.policy_verdict(esld) != v);
        log.mx.clear();
        log.policy.clear();
        moved
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
        first
            .esld_str()
            .map_or(EntityClass::Unclassified, |esld| self.mx_verdict(esld))
    }

    /// The MX group verdict: the class of every domain whose first MX
    /// host falls under `esld`, outside the domain's own eSLD. Heuristic
    /// 1 with the single-administrator exception, so it reads the group's
    /// size and, from 50 domains on, its single-admin flag.
    fn mx_verdict(&self, esld: &str) -> EntityClass {
        match self.mx_groups.get(esld) {
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
        target
            .esld_str()
            .map_or(EntityClass::Unclassified, |esld| self.policy_verdict(esld))
    }

    /// The CNAME-target verdict: the class of every domain whose policy
    /// host aliases a target under `esld`, outside the domain's own
    /// eSLD. It reads the target's size bucket (≤ 5, 6–49, ≥ 50 domains).
    fn policy_verdict(&self, esld: &str) -> EntityClass {
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
            policy_ip: None,
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

    /// `s` with its policy host resolving to `policy_ip`.
    fn at(policy_ip: Option<Ipv4Addr>, s: DomainScan) -> DomainScan {
        DomainScan { policy_ip, ..s }
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
            c.observe(&at(Some(ip((i % 200) as u8)), s));
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
            c.observe(&at(Some(ip(i)), s));
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
            c.observe(&at(Some(ip(i % 2)), s));
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
            c.observe(&at(Some(ip(i % 2)), s));
        }
        assert_eq!(c.classify_mx(&n("m0.com"), &mx), EntityClass::SelfManaged);
        // Six more on distinct IPs: 60 of 66 is still ≥ 0.9.
        for i in 0..6u8 {
            let s = scan(&format!("x{i}.com"), &["mx.l.mxascen.com"], &[]);
            c.observe(&at(Some(ip(100 + i)), s));
        }
        assert_eq!(c.classify_mx(&n("m0.com"), &mx), EntityClass::SelfManaged);
        // A seventh: 60 of 67 falls below, so the verdict must not stick.
        let s = at(Some(ip(106)), scan("x6.com", &["mx.l.mxascen.com"], &[]));
        c.observe(&s);
        assert_eq!(c.classify_mx(&n("m0.com"), &mx), EntityClass::ThirdParty);
        // Forgetting it again brings the share back up to 60 of 66.
        c.forget(&s);
        assert_eq!(c.classify_mx(&n("m0.com"), &mx), EntityClass::SelfManaged);
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
            c.observe(&at(Some(ip(i)), s));
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
        c.observe(&s);
        assert_eq!(c.mx_group_size(&n("google.com")), 1);
        assert_eq!(c.ns_esld_domains.get("dnsprov.net"), Some(&1));
    }

    #[test]
    fn popular_mx_with_diverse_direct_ips_stays_third_party() {
        let mut c = EntityClassifier::new();
        for i in 0..60u8 {
            let s = scan(&format!("g{i}.com"), &["aspmx.l.google.com"], &[]);
            c.observe(&at(Some(ip(i)), s)); // 60 distinct policy IPs
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
            c.observe(&s);
        }
        // 3 domains delegate to a tiny host.
        for i in 0..3 {
            let s = scan(
                &format!("t{i}.com"),
                &["aspmx.l.google.com"],
                &[&format!("t{i}.tinypol.net")],
            );
            c.observe(&s);
        }
        // 20 domains to a mid-size host.
        for i in 0..20 {
            let s = scan(
                &format!("u{i}.com"),
                &["aspmx.l.google.com"],
                &[&format!("u{i}.midpol.net")],
            );
            c.observe(&s);
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

    /// Domains in the threshold walk: the first `FLEET` share an MX group,
    /// the rest delegate their policy to one CNAME-target eSLD.
    const FLEET: usize = 64;
    const WALKERS: usize = 128;

    /// Walker `i`'s scan in `variant` (0..20). Fleet domains
    /// list `mx1.fleet.com` first and a backup MX under one of three other
    /// eSLDs, and host their policy directly: 18 variants of 20 on one of
    /// two shared IPs, which puts the group's top-two share near 0.9. The
    /// others run their own MX and alias their policy host to a target
    /// under `polhost.net` in 18 variants of 20, an internal alias or no
    /// alias in the other two.
    fn walker(i: usize, variant: u8) -> DomainScan {
        if i < FLEET {
            let backup = format!("mx.backup{}.net", i % 3);
            let mut s = scan(&format!("m{i}.com"), &["mx1.fleet.com", &backup], &[]);
            s.ns_records = vec![n(&format!("ns1.dnshost{}.net", i % 2))];
            let policy_ip = match variant {
                0..=8 => Some(ip(1)),
                9..=17 => Some(ip(2)),
                18 => Some(Ipv4Addr::new(10, 1, 0, i as u8)),
                _ => None,
            };
            at(policy_ip, s)
        } else {
            let d = format!("c{i}.org");
            let target = match variant {
                0..=17 => vec![format!("c{i}-org.polhost.net")],
                18 => vec![format!("web.{d}")],
                _ => vec![],
            };
            let target: Vec<&str> = target.iter().map(String::as_str).collect();
            at(Some(ip(3)), scan(&d, &[&format!("mx.{d}")], &target))
        }
    }

    /// What a from-scratch build over the live observations says.
    fn rebuilt(live: &[Option<DomainScan>]) -> EntityClassifier {
        let mut c = EntityClassifier::new();
        for s in live.iter().flatten() {
            c.observe(s);
        }
        c
    }

    #[test]
    fn forget_mirrors_observe_across_every_threshold() {
        use proptest::prelude::*;
        use proptest::test_runner::new_rng;
        use std::collections::HashSet;

        // (walker, action, variant) per step. The first half mostly
        // observes (or re-observes a live walker in a new variant), the
        // second half mostly forgets, so both groups climb past their
        // thresholds and fall back. Every 40 steps a "date" ends, and
        // dates alternate between the two groups, so a date that moves
        // one group's verdict leaves the other's alone.
        let steps = prop::collection::vec((0..WALKERS, 0u8..20, 0u8..20), 800..=800);
        let fleet = n("fleet.com");
        let sizes = |c: &EntityClassifier| {
            let polhost = c.cname_esld_domains.get("polhost.net");
            (c.mx_group_size(&fleet), polhost.copied().unwrap_or(0))
        };
        let mut crossings = HashSet::new();
        let mut batches_kept = 0;
        for seed in 0..6 {
            let mut c = EntityClassifier::new();
            let mut live: Vec<Option<DomainScan>> = vec![None; WALKERS];
            let mut log = VerdictLog::default();
            let mut before: Vec<Option<EntityClasses>> = vec![None; WALKERS];
            let mut touched = [false; WALKERS];
            let plan = steps.generate(&mut new_rng(seed));
            let half = plan.len() / 2;
            for (k, &(i, action, variant)) in plan.iter().enumerate() {
                let i = if k / 40 % 2 == 0 {
                    i % FLEET
                } else {
                    FLEET + i % (WALKERS - FLEET)
                };
                let observes = if k < half { action < 17 } else { action < 3 };
                let (mx_was, cname_was) = sizes(&c);
                let fleet_verdict = c.mx_verdict("fleet.com");
                if let Some(s) = live[i].take() {
                    c.note_verdicts(&s, &mut log);
                    c.forget(&s);
                }
                if observes {
                    let s = walker(i, variant);
                    c.note_verdicts(&s, &mut log);
                    c.observe(&s);
                    live[i] = Some(s);
                }
                touched[i] = true;

                let oracle = rebuilt(&live);
                for s in live.iter().flatten() {
                    assert_eq!(c.classify(s), oracle.classify(s), "seed {seed} step {k}");
                }
                let (mx_is, cname_is) = sizes(&c);
                let crossed = |was: usize, is: usize, at: usize| (was < at) != (is < at);
                for (crossing, was, is, at) in [
                    ("MX group at 50", mx_was, mx_is, THIRD_PARTY_MIN_DOMAINS),
                    (
                        "CNAME target at 50",
                        cname_was,
                        cname_is,
                        THIRD_PARTY_MIN_DOMAINS,
                    ),
                    (
                        "CNAME target at 6",
                        cname_was,
                        cname_is,
                        SELF_MANAGED_MAX_DOMAINS + 1,
                    ),
                ] {
                    if crossed(was, is, at) {
                        crossings.insert((crossing, was < is));
                    }
                }
                // Both verdicts from 50 domains on: the share crossed 0.9.
                let verdict = c.mx_verdict("fleet.com");
                if fleet_verdict != verdict
                    && ![fleet_verdict, verdict].contains(&EntityClass::Unclassified)
                {
                    crossings.insert(("MX share at 0.9", verdict == EntityClass::SelfManaged));
                }

                // At the end of a date, when no logged verdict moved, each
                // walker live throughout and untouched keeps the classes
                // it had when the date began.
                if k % 40 == 39 {
                    if !c.verdicts_moved(&mut log) {
                        batches_kept += 1;
                        for (j, s) in live.iter().enumerate() {
                            if let (Some(s), Some(was), false) = (s, before[j], touched[j]) {
                                assert_eq!(c.classify(s), was, "seed {seed} step {k} walker {j}");
                            }
                        }
                    }
                    for (j, s) in live.iter().enumerate() {
                        before[j] = s.as_ref().map(|s| c.classify(s));
                    }
                    touched = [false; WALKERS];
                }
            }
            for s in live.iter().flatten() {
                c.forget(s);
            }
            assert!(c.mx_groups.is_empty(), "seed {seed}: {:?}", c.mx_groups);
            assert!(c.cname_esld_domains.is_empty() && c.ns_esld_domains.is_empty());
        }
        // The walk crossed each threshold both ways.
        for crossing in [
            "MX group at 50",
            "MX share at 0.9",
            "CNAME target at 50",
            "CNAME target at 6",
        ] {
            for upward in [true, false] {
                assert!(
                    crossings.contains(&(crossing, upward)),
                    "{crossing} {upward}: {crossings:?}"
                );
            }
        }
        assert!(batches_kept > 0);
    }
}
