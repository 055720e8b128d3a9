//! Per-domain change fingerprints: the incremental engine's journal.
//!
//! A [`DomainFingerprint`] condenses everything that determines a domain's
//! deployed configuration — and therefore its scan result — *on a given
//! date* into three component hashes:
//!
//! - **record**: the `_mta-sts` TXT strings (including the RFC 8461 `id`)
//!   plus whether the TLSRPT record exists yet;
//! - **policy**: the served policy document's inputs — effective mode, mx
//!   patterns, max_age, the effective policy-server fault (incident
//!   windows included), and, for customers of a *shared* CNAME target,
//!   whether that target currently resolves to a dead edge;
//! - **mx**: the effective MX host set and the effective MX-certificate
//!   fault.
//!
//! Between two dates, a domain whose fingerprint is unchanged deploys
//! byte-identically and scans byte-identically (its certificates keep
//! their verdicts at every later study date, because a valid leaf lives
//! as long as its issuing CA, and transient faults / attack windows are
//! excluded at the cache layer, not here).
//! The component split serves the weekly series, which observes DNS
//! alone: its observation cache keys on the `(record, mx)` pair, so a
//! policy-side change (the lucidgrow incident rewriting hosted documents)
//! leaves its observations standing. The monthly campaign compares whole
//! fingerprints and rescans a domain whole when any component moved.
//!
//! Fingerprints deliberately hash *semantic values* (host names, fault
//! kinds, document inputs) rather than raw date flags, so a future
//! date-dependent knob that feeds those values is picked up without
//! remembering to extend this module.

use crate::deploy::{in_window, record_texts, Ecosystem};
use crate::providers::CnameStyle;
use crate::spec::{DomainSpec, PolicyFaultKind, PolicyHosting, LUCIDGROW_WINDOW};
use netbase::SimDate;
use obsv::health::{fnv64_extend, FNV64_OFFSET};
use std::fmt::{self, Write};

/// The per-domain configuration fingerprint at one date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainFingerprint {
    /// `_mta-sts` TXT strings + TLSRPT presence.
    pub record: u64,
    /// Policy-document inputs + effective policy-server fault.
    pub policy: u64,
    /// Effective MX host set + effective MX certificate fault.
    pub mx: u64,
}

/// Cross-domain state a fingerprint depends on, computed once per date.
///
/// The only coupling between domains in the deployed world is the A
/// record of a *shared* policy CNAME target (Table 2's tutanota style):
/// it is installed by the first adopted customer in population order, and
/// points at a dead edge iff that installer has a TCP-layer fault. When a
/// lower-indexed customer adopts — or the installer's fault windows shift
/// — the record can flip, and every customer of that provider must be
/// treated as dirty.
#[derive(Debug, Clone)]
pub struct FingerprintContext {
    /// The date the context was computed for.
    pub date: SimDate,
    /// For each shared-target policy provider key: whether the shared
    /// CNAME target currently points at the dead (TCP-faulted) edge.
    shared_dead: Vec<(&'static str, bool)>,
}

impl FingerprintContext {
    /// Assembles a context from precomputed per-provider dead states
    /// (see [`crate::timeline::ChangeTimeline::context`]).
    pub(crate) fn new(date: SimDate, shared_dead: Vec<(&'static str, bool)>) -> FingerprintContext {
        FingerprintContext { date, shared_dead }
    }

    /// Whether `key`'s shared CNAME target points at the dead edge.
    /// `false` for providers with per-customer targets (no coupling).
    pub fn shared_target_dead(&self, key: &str) -> bool {
        self.shared_dead
            .iter()
            .find(|(k, _)| *k == key)
            .is_some_and(|(_, dead)| *dead)
    }
}

impl Ecosystem {
    /// Computes the cross-domain fingerprint inputs for `date` — a binary
    /// search over the precomputed [`crate::timeline::ChangeTimeline`],
    /// not a population walk.
    pub fn fingerprint_context(&self, date: SimDate) -> FingerprintContext {
        self.timeline().context(date)
    }

    /// The semantic definition [`Ecosystem::fingerprint_context`] is
    /// derived from: an O(population) installer scan per shared provider.
    /// Kept as the oracle the timeline is tested against.
    pub fn fingerprint_context_scratch(&self, date: SimDate) -> FingerprintContext {
        let mut shared_dead = Vec::new();
        for provider in &self.policy_providers {
            if !matches!(provider.cname_style, CnameStyle::Shared(_)) {
                continue;
            }
            shared_dead.push((provider.key, self.shared_cname_dead(provider.key, date)));
        }
        FingerprintContext { date, shared_dead }
    }

    /// Whether the shared CNAME target of policy provider `key` points at
    /// the dead edge at `date`: true iff the first adopted customer in
    /// population order — the one whose installation wrote the A record —
    /// has an effective TCP-layer policy fault that date.
    pub(crate) fn shared_cname_dead(&self, key: &str, date: SimDate) -> bool {
        let installer = self.population.domains.iter().find(|d| {
            d.adopted_by(date)
                && matches!(&d.policy, PolicyHosting::Provider { key: k } if *k == key)
        });
        installer.is_some_and(|spec| {
            matches!(
                self.effective_policy_fault(spec, date),
                Some(PolicyFaultKind::TcpRefused | PolicyFaultKind::TcpTimeout)
            )
        })
    }

    /// The domain's fingerprint at the context's date, or `None` when the
    /// domain has not adopted yet (nothing deployed, nothing to scan).
    ///
    /// Each component hashes its text as it is written, so nothing is
    /// built: not the record texts, the patterns or the MX host names.
    pub fn fingerprint_at(
        &self,
        spec: &DomainSpec,
        ctx: &FingerprintContext,
    ) -> Option<DomainFingerprint> {
        let date = ctx.date;
        if !spec.adopted_by(date) {
            return None;
        }
        // Formatting into a hasher cannot fail.
        let mut h = Fnv64::new();

        // Record component: the TXT strings themselves (id included) plus
        // TLSRPT presence (the weekly series reads both).
        record_texts(spec, |text| {
            let _ = h.write_fmt(text);
            let _ = h.write_char('\n');
        });
        if spec.tlsrpt.is_some_and(|d| d <= date) {
            let _ = h.write_str("tlsrpt");
        }
        let record = h.finish();

        // Policy component: everything that shapes the served document and
        // the fetch path to it.
        let _ = write!(
            h,
            "{:?}|{:?}|{}|",
            self.effective_mode(spec, date),
            self.effective_policy_fault(spec, date),
            spec.max_age,
        );
        // Patterns vary only through the lucidgrow window, but hashing the
        // rendered set keeps this robust to future pattern logic.
        if spec.lucidgrow && in_window(date, LUCIDGROW_WINDOW) {
            let _ = h.write_str("lucid|");
        }
        self.each_policy_pattern(spec, date, |pattern| {
            let _ = write!(h, "{pattern}|");
        });
        if let PolicyHosting::Provider { key } = &spec.policy {
            if ctx.shared_target_dead(key) {
                let _ = h.write_str("shared-dead");
            }
        }
        let policy = h.finish();

        // MX component: the live host set and the certificate fault.
        self.each_mx_host(spec, date, |host| {
            let _ = write!(h, "{host}|");
        });
        let _ = write!(h, "{:?}", self.effective_mx_fault(spec, date));
        let mx = h.finish();

        Some(DomainFingerprint { record, policy, mx })
    }
}

/// FNV-1a ([`obsv::health::fnv64`]) over the text written to it, hashed
/// as it is formatted: the hash of the concatenated text, with no buffer.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64(FNV64_OFFSET)
    }

    /// The hash of everything written since the last call; starts over.
    fn finish(&mut self) -> u64 {
        std::mem::replace(&mut self.0, FNV64_OFFSET)
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv64_extend(self.0, s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{InconsistencyKind, RecordFaultKind};
    use crate::config::EcosystemConfig;
    use crate::deploy::{swap_tld, typo_of};
    use crate::providers::{MxStyle, MXASCEN_MX};
    use crate::spec::{MailHosting, JUNE8_WINDOW};
    use mtasts::MxPattern;
    use netbase::DomainName;
    use obsv::health::fnv64;

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig::paper(42, 0.02))
    }

    /// `fnv64` over one line per adopted `(domain, date, fingerprint)` at
    /// seed 42, scale 0.02, weekly dates then full-scan dates, as the
    /// string-building `fingerprint_at` computed them.
    const ALL_FINGERPRINTS_FNV64: u64 = 0x1ff0_771e_79af_1945;

    /// The string-building definition [`Ecosystem::fingerprint_at`]
    /// hashes without building: each component's text in a buffer, from
    /// record texts, patterns and MX hosts built by the `reference_*`
    /// functions below, which share no code with the emitters
    /// `fingerprint_at` writes through.
    fn fingerprint_reference(
        eco: &Ecosystem,
        spec: &DomainSpec,
        ctx: &FingerprintContext,
    ) -> Option<DomainFingerprint> {
        let date = ctx.date;
        if !spec.adopted_by(date) {
            return None;
        }
        let mut buf = String::with_capacity(160);

        for text in reference_record_texts(spec) {
            buf.push_str(&text);
            buf.push('\n');
        }
        if spec.tlsrpt.is_some_and(|d| d <= date) {
            buf.push_str("tlsrpt");
        }
        let record = fnv64(buf.as_bytes());

        buf.clear();
        let _ = write!(
            buf,
            "{:?}|{:?}|{}|",
            eco.effective_mode(spec, date),
            eco.effective_policy_fault(spec, date),
            spec.max_age,
        );
        if spec.lucidgrow && in_window(date, LUCIDGROW_WINDOW) {
            buf.push_str("lucid|");
        }
        for pattern in reference_policy_patterns(eco, spec, date) {
            let _ = write!(buf, "{pattern}|");
        }
        if let PolicyHosting::Provider { key } = &spec.policy {
            if ctx.shared_target_dead(key) {
                buf.push_str("shared-dead");
            }
        }
        let policy = fnv64(buf.as_bytes());

        buf.clear();
        for host in reference_mx_hosts(eco, spec, date) {
            let _ = write!(buf, "{host}|");
        }
        let _ = write!(buf, "{:?}", eco.effective_mx_fault(spec, date));
        let mx = fnv64(buf.as_bytes());

        Some(DomainFingerprint { record, policy, mx })
    }

    fn reference_record_texts(spec: &DomainSpec) -> Vec<String> {
        let good_id = format!("a{}", spec.adopted.days_since_epoch());
        match spec.faults.record {
            None => vec![format!("v=STSv1; id={good_id};")],
            Some(RecordFaultKind::MissingId) => vec!["v=STSv1;".to_string()],
            Some(RecordFaultKind::InvalidId) => vec![format!("v=STSv1; id={};", spec.adopted)],
            Some(RecordFaultKind::BadVersion) => vec![format!("v=STSV1; id={good_id};")],
            Some(RecordFaultKind::BadExtension) => {
                vec![format!("v=STSv1; id={good_id}; mx: a.com; mode: testing;")]
            }
            Some(RecordFaultKind::MultipleRecords) => vec![
                format!("v=STSv1; id={good_id};"),
                format!("v=STSv1; id={good_id}b;"),
            ],
        }
    }

    fn reference_mx_hosts(eco: &Ecosystem, spec: &DomainSpec, date: SimDate) -> Vec<DomainName> {
        if let Some(inc) = &spec.faults.inconsistency {
            if inc
                .stale_migration
                .is_some_and(|migration| date < migration)
            {
                return vec![reference_legacy_mx(eco, spec)];
            }
        }
        match &spec.mail {
            MailHosting::SelfManaged { mx_count } => (1..=*mx_count)
                .map(|i| spec.name.prefixed(&format!("mx{i}")).unwrap())
                .collect(),
            MailHosting::Provider { key } => vec![reference_provider_mx(eco, key, &spec.name)],
            MailHosting::Mxascen => vec![MXASCEN_MX.parse().unwrap()],
            MailHosting::SmallProvider { idx } => {
                vec![format!("in.smallmx{idx}.net").parse().unwrap()]
            }
        }
    }

    fn reference_provider_mx(eco: &Ecosystem, key: &str, customer: &DomainName) -> DomainName {
        let provider = eco.mail_providers.iter().find(|p| p.key == key).unwrap();
        match provider.mx_style {
            MxStyle::Shared(host) => host.parse().unwrap(),
            MxStyle::PerCustomerSharedIp(suffix) | MxStyle::PerCustomer(suffix) => {
                format!("{}.{suffix}", customer.as_str().replace('.', "-"))
                    .parse()
                    .unwrap()
            }
        }
    }

    fn reference_legacy_mx(eco: &Ecosystem, spec: &DomainSpec) -> DomainName {
        let new_first = match &spec.mail {
            MailHosting::SelfManaged { .. } => spec.name.clone(),
            MailHosting::Provider { key } => reference_provider_mx(eco, key, &spec.name),
            MailHosting::Mxascen => MXASCEN_MX.parse().unwrap(),
            MailHosting::SmallProvider { idx } => format!("in.smallmx{idx}.net").parse().unwrap(),
        };
        format!(
            "mx.oldhost-{}-{}.{}",
            spec.name.leftmost(),
            spec.name.tld(),
            new_first.tld()
        )
        .parse()
        .unwrap()
    }

    fn reference_policy_patterns(
        eco: &Ecosystem,
        spec: &DomainSpec,
        date: SimDate,
    ) -> Vec<MxPattern> {
        if spec.lucidgrow && in_window(date, LUCIDGROW_WINDOW) {
            return vec![MxPattern::parse("mx.lucidgrow.com").unwrap()];
        }
        let actual = reference_mx_hosts(eco, spec, date);
        let Some(inc) = &spec.faults.inconsistency else {
            return actual
                .iter()
                .map(|h| MxPattern::parse(&h.to_string()).unwrap())
                .collect();
        };
        if inc.stale_migration.is_some() {
            return vec![MxPattern::parse(&reference_legacy_mx(eco, spec).to_string()).unwrap()];
        }
        let first = actual
            .first()
            .cloned()
            .unwrap_or_else(|| reference_legacy_mx(eco, spec));
        let pattern = match inc.kind {
            InconsistencyKind::CompleteDomain => {
                format!("mx.obsolete-{}.{}", spec.name.leftmost(), first.tld())
            }
            InconsistencyKind::ThirdLabel if inc.stray_label => {
                let esld = first.effective_sld().unwrap_or_else(|| first.clone());
                format!("mta-sts.{esld}")
            }
            InconsistencyKind::ThirdLabel => format!("extra.{first}"),
            InconsistencyKind::Typo => typo_of(&first),
            InconsistencyKind::Tld => swap_tld(&first),
        };
        vec![MxPattern::parse(&pattern).unwrap()]
    }

    #[test]
    fn hashed_fingerprints_match_the_string_building_reference() {
        // Every weekly and full-scan date covers record faults, both
        // incident windows, stale migrations and the final-scan fixes.
        let eco = eco();
        let mut dates = eco.config.weekly_snapshots();
        dates.extend(eco.config.full_scan_dates());
        let mut lines = String::new();
        let mut compared = 0;
        for date in dates {
            let ctx = eco.fingerprint_context(date);
            for spec in &eco.population.domains {
                let got = eco.fingerprint_at(spec, &ctx);
                assert_eq!(
                    got,
                    fingerprint_reference(&eco, spec, &ctx),
                    "{} at {date}",
                    spec.name
                );
                if let Some(fp) = got {
                    let _ = writeln!(
                        lines,
                        "{} {date} {:016x} {:016x} {:016x}",
                        spec.name, fp.record, fp.policy, fp.mx
                    );
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 123_594, "adopted (domain, date) pairs");
        assert_eq!(
            fnv64(lines.as_bytes()),
            ALL_FINGERPRINTS_FNV64,
            "the fingerprints hash other values than they used to"
        );
    }

    #[test]
    fn unadopted_domains_have_no_fingerprint() {
        let eco = eco();
        let spec = &eco.population.domains[0];
        let before = spec.adopted.add_days(-1);
        assert!(eco
            .fingerprint_at(spec, &eco.fingerprint_context(before))
            .is_none());
        assert!(eco
            .fingerprint_at(spec, &eco.fingerprint_context(spec.adopted))
            .is_some());
    }

    #[test]
    fn stable_domains_have_stable_fingerprints() {
        let eco = eco();
        let d1 = SimDate::ymd(2024, 3, 1);
        let d2 = SimDate::ymd(2024, 4, 1);
        let (c1, c2) = (eco.fingerprint_context(d1), eco.fingerprint_context(d2));
        let mut checked = 0;
        for spec in &eco.population.domains {
            if !spec.adopted_by(d1) || spec.tlsrpt.is_some() {
                continue;
            }
            if spec
                .faults
                .inconsistency
                .as_ref()
                .is_some_and(|i| i.stale_migration.is_some())
            {
                continue;
            }
            assert_eq!(
                eco.fingerprint_at(spec, &c1),
                eco.fingerprint_at(spec, &c2),
                "{} changed with no date-dependent knob",
                spec.name
            );
            checked += 1;
        }
        assert!(checked > 100, "too few stable domains: {checked}");
    }

    #[test]
    fn lucidgrow_window_dirties_only_policy_component() {
        let eco = eco();
        let inside = eco.fingerprint_context(SimDate::ymd(2024, 1, 23));
        let outside = eco.fingerprint_context(SimDate::ymd(2024, 3, 7));
        let spec = eco
            .population
            .domains
            .iter()
            .find(|d| {
                d.lucidgrow
                    && d.adopted_by(LUCIDGROW_WINDOW.0)
                    && d.tlsrpt.is_none_or(|t| t <= LUCIDGROW_WINDOW.0)
                    && d.faults.inconsistency.is_none()
            })
            .expect("lucidgrow domains adopt early");
        let a = eco.fingerprint_at(spec, &inside).unwrap();
        let b = eco.fingerprint_at(spec, &outside).unwrap();
        assert_ne!(a.policy, b.policy);
        assert_eq!(a.record, b.record);
        assert_eq!(a.mx, b.mx);
    }

    #[test]
    fn june8_window_dirties_only_policy_component() {
        let eco = eco();
        let inside = eco.fingerprint_context(SimDate::ymd(2024, 6, 8));
        let outside = eco.fingerprint_context(SimDate::ymd(2024, 5, 1));
        let spec = eco
            .population
            .domains
            .iter()
            .find(|d| {
                d.june8_victim
                    && d.adopted_by(SimDate::ymd(2024, 5, 1))
                    && d.tlsrpt.is_none_or(|t| t <= SimDate::ymd(2024, 5, 1))
                    && d.faults.inconsistency.is_none()
            })
            .expect("june8 victims adopt before the window");
        let a = eco.fingerprint_at(spec, &inside).unwrap();
        let b = eco.fingerprint_at(spec, &outside).unwrap();
        assert_ne!(a.policy, b.policy, "{:?}", JUNE8_WINDOW);
        assert_eq!(a.record, b.record);
        assert_eq!(a.mx, b.mx);
    }

    #[test]
    fn stale_migration_dirties_only_mx_component() {
        let eco = eco();
        let spec = eco
            .population
            .domains
            .iter()
            .find(|d| {
                !d.lucidgrow
                    && !d.june8_victim
                    && d.tlsrpt.is_none()
                    && d.faults
                        .inconsistency
                        .as_ref()
                        .is_some_and(|i| i.stale_migration.is_some_and(|m| m > d.adopted))
            })
            .expect("stale-migration domains exist");
        let migration = spec
            .faults
            .inconsistency
            .as_ref()
            .unwrap()
            .stale_migration
            .unwrap();
        let before = eco.fingerprint_context(migration.add_days(-1).max(spec.adopted));
        let after = eco.fingerprint_context(migration);
        let a = eco.fingerprint_at(spec, &before).unwrap();
        let b = eco.fingerprint_at(spec, &after).unwrap();
        assert_ne!(a.mx, b.mx);
        assert_eq!(a.record, b.record);
        assert_eq!(a.policy, b.policy, "patterns stay on the legacy MX");
    }

    #[test]
    fn tlsrpt_adoption_dirties_only_record_component() {
        let eco = eco();
        let spec = eco
            .population
            .domains
            .iter()
            .find(|d| {
                !d.lucidgrow
                    && !d.june8_victim
                    && d.faults.inconsistency.is_none()
                    && d.tlsrpt.is_some_and(|t| t > d.adopted)
            })
            .expect("lagged TLSRPT adopters exist");
        let t = spec.tlsrpt.unwrap();
        let a = eco
            .fingerprint_at(spec, &eco.fingerprint_context(t.add_days(-1)))
            .unwrap();
        let b = eco
            .fingerprint_at(spec, &eco.fingerprint_context(t))
            .unwrap();
        assert_ne!(a.record, b.record);
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.mx, b.mx);
    }

    #[test]
    fn mx_fix_cohort_dirties_only_mx_component_at_the_end() {
        let eco = eco();
        let spec = eco
            .population
            .domains
            .iter()
            .find(|d| {
                d.faults.mx_cn_fixed_at_latest
                    && d.tlsrpt.is_none_or(|t| t <= eco.config.end.add_days(-1))
                    && d.faults.inconsistency.is_none()
            })
            .expect("fixed-at-latest cohort exists");
        let a = eco
            .fingerprint_at(spec, &eco.fingerprint_context(eco.config.end.add_days(-1)))
            .unwrap();
        let b = eco
            .fingerprint_at(spec, &eco.fingerprint_context(eco.config.end))
            .unwrap();
        assert_ne!(a.mx, b.mx);
        assert_eq!(a.record, b.record);
        assert_eq!(a.policy, b.policy);
    }
}
