//! Materializing the population into a [`simnet::World`].
//!
//! [`Ecosystem::world_at`] produces the Internet as it stood on a given
//! date: provider infrastructure first (mail platforms, policy-hosting
//! platforms, the Porkbun parking host, the mxascen setup), then every
//! domain whose MTA-STS record exists by that date. Scans then run against
//! the world exactly as the paper's scanner ran against the real one.
//!
//! Worlds are rebuilt per snapshot (they are cheap relative to scanning),
//! so time-varying state — incident windows, stale-policy MX migrations,
//! certificate expiry, the 270-domain CN-mismatch fix — is simply a
//! function of the date passed in.

use crate::calib::{InconsistencyKind, MxCertFaultKind, RecordFaultKind};
use crate::config::{EcosystemConfig, SnapshotDetail};
use crate::providers::{
    mail_providers, policy_providers, CnameStyle, Joined, MailProvider, MxStyle, PolicyProvider,
};
use crate::spec::{
    generate, DomainSpec, MailHosting, MxFaultScope, PolicyFaultKind, PolicyHosting, Population,
    JUNE8_WINDOW, LUCIDGROW_WINDOW,
};
use dns::{RecordData, RecordType, Zone};
use mtasts::{Mode, MxPattern, Policy};
use netbase::{DomainName, NameKey, SimDate, SimInstant};
use simnet::{CertKind, MxEndpoint, WebEndpoint, World};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::Ipv4Addr;

/// Default TTL for generated records.
pub(crate) const TTL: u32 = 3600;

/// The generated ecosystem: population plus deployment logic.
pub struct Ecosystem {
    /// The configuration it was generated from.
    pub config: EcosystemConfig,
    /// The domain population.
    pub population: Population,
    pub(crate) policy_providers: Vec<PolicyProvider>,
    pub(crate) mail_providers: Vec<MailProvider>,
    /// Names many domains' records repeat, built once.
    pub(crate) names: SharedNames,
    /// Lazily built change schedule (see [`crate::timeline`]).
    timeline: std::sync::OnceLock<crate::timeline::ChangeTimeline>,
}

// Shard workers and the longitudinal driver hold `&Ecosystem` across
// threads; the ecosystem is plain generated data (no interior
// mutability), and this assertion keeps it that way at compile time.
#[allow(dead_code)]
fn static_assert_ecosystem_is_shareable() {
    fn shareable<T: Send + Sync>() {}
    shareable::<Ecosystem>();
    shareable::<Population>();
}

/// The DNS-hosting providers (`dnshost<i>.net`) serving the domains that
/// do not run their own name servers.
const DNS_PROVIDERS: usize = 6;

/// The labels of a self-managed domain's MX hosts, `mx1`..`mx3`, and of
/// its two name servers.
const MX_LABELS: [&str; 3] = ["mx1", "mx2", "mx3"];
const NS_LABELS: [&str; 2] = ["ns1", "ns2"];

/// Names that many domains' records repeat, built once per ecosystem.
/// Every world built from it shares these instead of building a copy for
/// each record.
pub(crate) struct SharedNames {
    /// `ns1`/`ns2.dnshost<i>.net`, by DNS-hosting provider.
    dns_hosts: [[DomainName; 2]; DNS_PROVIDERS],
    /// The MX host each shared-host mail provider gives every customer,
    /// by position in `mail_providers`.
    provider_mx: Vec<Option<DomainName>>,
    /// `in.smallmx<i>.net`, by small mail provider.
    small_mx: Vec<DomainName>,
    /// The mxascen MX host.
    mxascen_mx: DomainName,
    /// The CNAME target each shared-target policy provider gives every
    /// customer, by position in `policy_providers`.
    pub(crate) policy_target: Vec<Option<DomainName>>,
}

impl SharedNames {
    fn new(
        mail: &[MailProvider],
        policy: &[PolicyProvider],
        small_mail_providers: u32,
    ) -> SharedNames {
        let name =
            |s: &str| -> DomainName { s.parse().expect("static or derived names are valid") };
        SharedNames {
            dns_hosts: std::array::from_fn(|p| {
                std::array::from_fn(|i| name(&format!("{}.dnshost{p}.net", NS_LABELS[i])))
            }),
            provider_mx: mail
                .iter()
                .map(|p| match p.mx_style {
                    MxStyle::Shared(host) => Some(name(host)),
                    MxStyle::PerCustomerSharedIp(_) | MxStyle::PerCustomer(_) => None,
                })
                .collect(),
            small_mx: (0..small_mail_providers)
                .map(|i| name(&format!("in.smallmx{i}.net")))
                .collect(),
            mxascen_mx: name(crate::providers::MXASCEN_MX),
            policy_target: policy
                .iter()
                .map(|p| match p.cname_style {
                    CnameStyle::Shared(target) => Some(name(target)),
                    _ => None,
                })
                .collect(),
        }
    }
}

/// One of a domain's MX hosts, named but not built: a fingerprint hashes
/// its text, and an install builds the name once (a shared host is a
/// clone of the ecosystem's one copy).
#[derive(Clone, Copy)]
pub(crate) enum MxHost<'a> {
    /// A host many domains share.
    Shared(&'a DomainName),
    /// `mx<n>.<domain>`, the domain's own host number `n` (from 1).
    Own(&'a DomainName, usize),
    /// `<domain, dashes for dots>.<suffix>`: a provider's host for this
    /// one customer.
    PerCustomer(&'a DomainName, &'static str),
    /// `mx.oldhost-<leftmost>-<tld>.<new tld>`: a stale-policy domain's
    /// host before its migration (see [`Ecosystem::legacy_mx_of`]).
    Legacy(&'a DomainName, &'a str),
}

impl<'a> MxHost<'a> {
    /// The host's name.
    pub(crate) fn name(self) -> DomainName {
        match self {
            MxHost::Shared(name) => name.clone(),
            MxHost::Own(domain, n) => domain.prefixed(MX_LABELS[n - 1]).expect("static label"),
            MxHost::PerCustomer(..) | MxHost::Legacy(..) => {
                self.to_string().parse().expect("derived names are valid")
            }
        }
    }

    /// The host's TLD.
    fn tld(self) -> &'a str {
        match self {
            MxHost::Shared(name) | MxHost::Own(name, _) => name.tld(),
            MxHost::PerCustomer(_, suffix) => suffix.rsplit('.').next().expect("a label"),
            MxHost::Legacy(_, tld) => tld,
        }
    }
}

impl fmt::Display for MxHost<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MxHost::Shared(name) => write!(f, "{name}"),
            MxHost::Own(domain, n) => write!(f, "{}.{domain}", MX_LABELS[n - 1]),
            MxHost::PerCustomer(domain, suffix) => write!(f, "{}.{suffix}", Joined(domain, '-')),
            MxHost::Legacy(domain, tld) => {
                write!(f, "mx.oldhost-{}-{}.{tld}", domain.leftmost(), domain.tld())
            }
        }
    }
}

/// A mail platform, as [`Infra`] keys its endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MailPlatform {
    /// A provider from [`mail_providers`], by key.
    Named(&'static str),
    /// A small mail provider, by index.
    Small(u32),
}

/// A policy-hosting platform, as [`Infra`] keys its endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PolicyPlatform {
    /// A Table 2 provider, by key.
    Named(&'static str),
    /// A mid-size third-party host, by index.
    Misc(u32),
    /// A small third-party host, by index.
    Small(u32),
}

/// Provider infrastructure handles inside one world.
///
/// Crate-visible so [`crate::incremental::IncrementalWorld`] can retain the
/// handles across snapshots instead of rebuilding them per date.
pub(crate) struct Infra {
    /// Policy web endpoint per platform (top-8, misc and small).
    pub(crate) policy_ip: HashMap<PolicyPlatform, Ipv4Addr>,
    /// An allocated IP with no listener (TCP-refused fault target).
    pub(crate) dead_ip: Ipv4Addr,
    /// Healthy MX endpoint per mail platform.
    pub(crate) mail_ip: HashMap<MailPlatform, Ipv4Addr>,
    /// Faulty MX endpoints for per-customer-hostname providers, by
    /// (platform, fault kind).
    pub(crate) mail_faulty_ip: HashMap<(MailPlatform, MxCertFaultKind), Ipv4Addr>,
    /// The two mxascen policy IPs.
    pub(crate) mxascen_web: [Ipv4Addr; 2],
    /// The Porkbun parking host.
    pub(crate) porkbun_ip: Ipv4Addr,
    /// Shared CNAME targets / shared MX hostnames already given A records.
    /// Invariant: a name is in here iff exactly one domain installed its A
    /// record through the per-customer path — which is what makes
    /// incremental uninstallation able to tell "mine to remove" from
    /// "infrastructure-owned" records.
    pub(crate) shared_a_done: HashSet<NameKey>,
}

impl Ecosystem {
    /// Generates the population for `config`.
    pub fn generate(config: EcosystemConfig) -> Ecosystem {
        let population = generate(&config);
        let policy_providers = policy_providers();
        let mail_providers = mail_providers();
        let names = SharedNames::new(
            &mail_providers,
            &policy_providers,
            population.small_mail_providers,
        );
        Ecosystem {
            config,
            population,
            policy_providers,
            mail_providers,
            names,
            timeline: std::sync::OnceLock::new(),
        }
    }

    /// The precomputed change schedule, built on first use.
    pub fn timeline(&self) -> &crate::timeline::ChangeTimeline {
        self.timeline
            .get_or_init(|| crate::timeline::ChangeTimeline::build(self))
    }

    /// Domains whose record exists at `date`.
    pub fn domains_at(&self, date: SimDate) -> impl Iterator<Item = &DomainSpec> {
        self.population
            .domains
            .iter()
            .filter(move |d| d.adopted_by(date))
    }

    /// Builds the world as it stood on `date`.
    ///
    /// Implemented as a single [`crate::incremental::IncrementalWorld`]
    /// advance, so the from-scratch and incremental construction paths are
    /// the same code by definition — the digest-equality oracle the
    /// incremental engine is tested against compares this against a world
    /// advanced date-by-date.
    pub fn world_at(&self, date: SimDate, detail: SnapshotDetail) -> World {
        let mut iw = crate::incremental::IncrementalWorld::new(detail);
        iw.advance_to(self, date);
        iw.into_world()
    }

    /// The deterministic endpoint address of population index `index`,
    /// slot `slot` (0 = policy web server, 1..=3 = MX endpoints).
    ///
    /// Derived addresses live in the reserved upper half of 10/8 (see
    /// [`simnet::DYNAMIC_IP_LIMIT`]) so they never collide with the
    /// sequential infrastructure allocator — and, crucially, never depend
    /// on how many *other* domains are installed, which is what lets a
    /// delta-built world serve byte-identical answers to a from-scratch
    /// one.
    pub(crate) fn domain_ip(index: usize, slot: u8) -> Ipv4Addr {
        debug_assert!(slot < 4, "four endpoint slots per domain");
        let v = simnet::DYNAMIC_IP_LIMIT + (index as u32) * 4 + u32::from(slot);
        assert!(v < 1 << 24, "per-domain 10/8 region exhausted");
        Ipv4Addr::new(10, (v >> 16) as u8, (v >> 8) as u8, v as u8)
    }

    /// The effective MX hosts of a domain at `date` (§4.4's migrations).
    pub fn effective_mx_hosts(&self, spec: &DomainSpec, date: SimDate) -> Vec<DomainName> {
        let mut hosts = Vec::new();
        self.each_mx_host(spec, date, |host| hosts.push(host.name()));
        hosts
    }

    /// Calls `emit` with each effective MX host of a domain at `date`, in
    /// preference order, without building their names.
    pub(crate) fn each_mx_host<'a>(
        &'a self,
        spec: &'a DomainSpec,
        date: SimDate,
        mut emit: impl FnMut(MxHost<'a>),
    ) {
        if migration_pending(spec, date) {
            return emit(self.legacy_mx(spec));
        }
        match &spec.mail {
            MailHosting::SelfManaged { mx_count } => {
                for n in 1..=usize::from(*mx_count) {
                    emit(MxHost::Own(&spec.name, n));
                }
            }
            _ => emit(self.current_mx(spec)),
        }
    }

    /// The domain's first MX host once any migration is done: its only
    /// one unless it runs its own mail.
    fn current_mx<'a>(&'a self, spec: &'a DomainSpec) -> MxHost<'a> {
        match &spec.mail {
            MailHosting::SelfManaged { .. } => MxHost::Own(&spec.name, 1),
            MailHosting::Provider { key } => {
                let i = self
                    .mail_providers
                    .iter()
                    .position(|p| p.key == *key)
                    .expect("spec references known providers");
                match (&self.names.provider_mx[i], self.mail_providers[i].mx_style) {
                    (Some(host), _) => MxHost::Shared(host),
                    (None, MxStyle::PerCustomerSharedIp(suffix) | MxStyle::PerCustomer(suffix)) => {
                        MxHost::PerCustomer(&spec.name, suffix)
                    }
                    (None, MxStyle::Shared(_)) => unreachable!("shared hosts are prebuilt"),
                }
            }
            MailHosting::Mxascen => MxHost::Shared(&self.names.mxascen_mx),
            MailHosting::SmallProvider { idx } => {
                MxHost::Shared(&self.names.small_mx[*idx as usize])
            }
        }
    }

    /// The pre-migration MX of a stale-policy domain: hosted at the old
    /// mail provider's own registrable domain, with the same TLD as the
    /// new MX so the post-migration mismatch is a *complete domain*
    /// mismatch (§4.4's dominant class), never a TLD or 3LD+ artefact.
    ///
    /// The old host's name embeds both the domain's leftmost label *and*
    /// its TLD: leftmost labels repeat across TLDs (`d000017.com` /
    /// `d000017.org`), and two stale-migration domains must never share a
    /// legacy zone — each domain owns its legacy host outright, so the
    /// incremental engine can drop the whole zone when the migration date
    /// passes.
    pub(crate) fn legacy_mx_of(&self, spec: &DomainSpec) -> DomainName {
        self.legacy_mx(spec).name()
    }

    /// [`Ecosystem::legacy_mx_of`], not yet built.
    fn legacy_mx<'a>(&'a self, spec: &'a DomainSpec) -> MxHost<'a> {
        MxHost::Legacy(&spec.name, self.current_mx(spec).tld())
    }

    /// The mx patterns the domain's policy lists at `date`.
    pub fn policy_patterns(&self, spec: &DomainSpec, date: SimDate) -> Vec<MxPattern> {
        let mut patterns = Vec::new();
        self.each_policy_pattern(spec, date, |pattern| {
            patterns.push(
                MxPattern::parse(&pattern.to_string()).expect("generated patterns are valid"),
            );
        });
        patterns
    }

    /// Calls `emit` with the text of each mx pattern the domain's policy
    /// lists at `date`, without building the patterns.
    pub(crate) fn each_policy_pattern(
        &self,
        spec: &DomainSpec,
        date: SimDate,
        mut emit: impl FnMut(&dyn fmt::Display),
    ) {
        if spec.lucidgrow && in_window(date, LUCIDGROW_WINDOW) {
            // The January incident: the DMARCReport-hosted policy lists the
            // provider's base MX, matching none of the per-customer hosts.
            return emit(&"mx.lucidgrow.com");
        }
        let Some(inc) = &spec.faults.inconsistency else {
            return self.each_mx_host(spec, date, |host| emit(&host));
        };
        if inc.stale_migration.is_some() {
            // The policy always lists the legacy MX; before the migration
            // that is also the live MX (consistent), after it the real MXes
            // moved on (Figure 9's stale share).
            return emit(&self.legacy_mx(spec));
        }
        let first = self.current_mx(spec);
        match inc.kind {
            InconsistencyKind::CompleteDomain => {
                // Keep the actual MX's TLD: the paper's complete-domain
                // class is "entirely different domain", not a TLD swap.
                emit(&format_args!(
                    "mx.obsolete-{}.{}",
                    spec.name.leftmost(),
                    first.tld()
                ))
            }
            InconsistencyKind::ThirdLabel if inc.stray_label => {
                // The paper's signature misreading: the mta-sts label
                // inside the pattern.
                let first = first.name();
                let esld = first.esld_str().unwrap_or(first.as_str());
                emit(&format_args!("mta-sts.{esld}"))
            }
            InconsistencyKind::ThirdLabel => emit(&format_args!("extra.{first}")),
            InconsistencyKind::Typo => emit(&typo_of(&first.name())),
            InconsistencyKind::Tld => emit(&swap_tld(&first.name())),
        }
    }

    /// The effective policy mode at `date`.
    pub fn effective_mode(&self, spec: &DomainSpec, date: SimDate) -> Mode {
        if spec.lucidgrow && in_window(date, LUCIDGROW_WINDOW) {
            Mode::Enforce
        } else {
            spec.mode
        }
    }

    /// The effective policy-server fault at `date` (incident windows and
    /// the Figure 6 fix cohort are date-dependent).
    pub fn effective_policy_fault(
        &self,
        spec: &DomainSpec,
        date: SimDate,
    ) -> Option<PolicyFaultKind> {
        if spec.june8_victim && in_window(date, JUNE8_WINDOW) {
            return Some(PolicyFaultKind::TlsSelfSigned);
        }
        spec.faults.policy
    }

    /// The effective MX certificate fault at `date`.
    pub fn effective_mx_fault(
        &self,
        spec: &DomainSpec,
        date: SimDate,
    ) -> Option<(MxCertFaultKind, MxFaultScope)> {
        let fault = spec.faults.mx_cert?;
        if spec.faults.mx_cn_fixed_at_latest && date >= self.config.end {
            // The 270-domain cohort fixed their mismatch by the final scan.
            return None;
        }
        Some(fault)
    }

    // ------------------------------------------------------------------
    // Infrastructure.
    // ------------------------------------------------------------------

    pub(crate) fn install_infra(
        &self,
        world: &mut World,
        now: SimInstant,
        detail: SnapshotDetail,
    ) -> Infra {
        let full = detail == SnapshotDetail::Full;
        let mut policy_ip = HashMap::new();
        let mut mail_ip = HashMap::new();
        let mut mail_faulty_ip = HashMap::new();

        // Policy-hosting platforms.
        for provider in &self.policy_providers {
            let base = provider.base_domain();
            world.ensure_zone(&base);
            let ip = if full {
                world.add_web_endpoint(WebEndpoint::up())
            } else {
                world.alloc_ip()
            };
            policy_ip.insert(PolicyPlatform::Named(provider.key), ip);
        }
        // Misc (classifiable) and small (unclassifiable) policy hosts.
        for i in 0..crate::calib::MISC_THIRD_PARTY_PROVIDERS {
            let base: DomainName = format!("polhost{i}.net").parse().expect("valid");
            world.ensure_zone(&base);
            let ip = if full {
                world.add_web_endpoint(WebEndpoint::up())
            } else {
                world.alloc_ip()
            };
            policy_ip.insert(PolicyPlatform::Misc(i as u32), ip);
        }
        for i in 0..self.population.small_policy_providers {
            let base: DomainName = format!("smallpol{i}.net").parse().expect("valid");
            world.ensure_zone(&base);
            let ip = if full {
                world.add_web_endpoint(WebEndpoint::up())
            } else {
                world.alloc_ip()
            };
            policy_ip.insert(PolicyPlatform::Small(i), ip);
        }

        // Mail platforms.
        for (provider, shared_host) in self.mail_providers.iter().zip(&self.names.provider_mx) {
            let base: DomainName = provider.base.parse().expect("static");
            world.ensure_zone(&base);
            let chain_names: Vec<DomainName> = match provider.mx_style {
                MxStyle::Shared(host) => vec![host.parse().expect("static")],
                MxStyle::PerCustomerSharedIp(suffix) | MxStyle::PerCustomer(suffix) => {
                    vec![format!("*.{suffix}").parse().expect("valid wildcard")]
                }
            };
            let ip = if full {
                let chain = world.pki.issue(&CertKind::Valid, &chain_names, now);
                world.add_mx_endpoint(MxEndpoint::healthy(chain_names[0].clone(), chain))
            } else {
                world.alloc_ip()
            };
            mail_ip.insert(MailPlatform::Named(provider.key), ip);
            // Shared hostnames get their A record now.
            if let Some(host) = shared_host {
                let zone_apex = host.effective_sld().unwrap_or_else(|| base.clone());
                world
                    .ensure_zone(&zone_apex)
                    .add_rr(host, TTL, RecordData::A(ip));
            }
            // Faulty sibling endpoints for per-customer-hostname providers.
            if full
                && matches!(
                    provider.mx_style,
                    MxStyle::PerCustomerSharedIp(_) | MxStyle::PerCustomer(_)
                )
            {
                for kind in [
                    MxCertFaultKind::CnMismatch,
                    MxCertFaultKind::SelfSigned,
                    MxCertFaultKind::Expired,
                ] {
                    let cert_kind = match kind {
                        MxCertFaultKind::CnMismatch => CertKind::WrongName(base.clone()),
                        MxCertFaultKind::SelfSigned => CertKind::SelfSigned,
                        MxCertFaultKind::Expired => CertKind::Expired,
                    };
                    let chain = world.pki.issue(&cert_kind, &chain_names, now);
                    let ip =
                        world.add_mx_endpoint(MxEndpoint::healthy(chain_names[0].clone(), chain));
                    mail_faulty_ip.insert((MailPlatform::Named(provider.key), kind), ip);
                }
            }
        }
        // Small mail providers.
        for (i, host) in (0..).zip(&self.names.small_mx) {
            let base: DomainName = format!("smallmx{i}.net").parse().expect("valid");
            let ip = if full {
                let chain = world
                    .pki
                    .issue(&CertKind::Valid, std::slice::from_ref(host), now);
                world.add_mx_endpoint(MxEndpoint::healthy(host.clone(), chain))
            } else {
                world.alloc_ip()
            };
            world
                .ensure_zone(&base)
                .add_rr(host, TTL, RecordData::A(ip));
            mail_ip.insert(MailPlatform::Small(i), ip);
            // Faulty sibling (wildcardless: a second endpoint with a bad
            // cert for the same host).
            if full {
                for kind in [
                    MxCertFaultKind::CnMismatch,
                    MxCertFaultKind::SelfSigned,
                    MxCertFaultKind::Expired,
                ] {
                    let cert_kind = match kind {
                        MxCertFaultKind::CnMismatch => CertKind::WrongName(base.clone()),
                        MxCertFaultKind::SelfSigned => CertKind::SelfSigned,
                        MxCertFaultKind::Expired => CertKind::Expired,
                    };
                    let chain = world.pki.issue(&cert_kind, std::slice::from_ref(host), now);
                    let ip = world.add_mx_endpoint(MxEndpoint::healthy(host.clone(), chain));
                    mail_faulty_ip.insert((MailPlatform::Small(i), kind), ip);
                }
            }
        }

        // mxascen: one administrator, shared MX + two shared policy IPs.
        let mxascen_host = &self.names.mxascen_mx;
        let mxascen_mx = if full {
            let chain = world
                .pki
                .issue(&CertKind::Valid, std::slice::from_ref(mxascen_host), now);
            world.add_mx_endpoint(MxEndpoint::healthy(mxascen_host.clone(), chain))
        } else {
            world.alloc_ip()
        };
        world
            .ensure_zone("mxascen.com")
            .add_rr(mxascen_host, TTL, RecordData::A(mxascen_mx));
        let mxascen_web = if full {
            [
                world.add_web_endpoint(WebEndpoint::up()),
                world.add_web_endpoint(WebEndpoint::up()),
            ]
        } else {
            [world.alloc_ip(), world.alloc_ip()]
        };

        // Porkbun parking host: serves one default certificate (its own
        // name) for every SNI — a CN mismatch for each parked domain.
        let porkbun_ip = if full {
            let mut parking = WebEndpoint::up();
            let parking_name: DomainName = "parking.porkbun-host.com".parse().expect("static");
            parking
                .identity
                .set_default(world.pki.issue(&CertKind::Valid, &[parking_name], now));
            world.add_web_endpoint(parking)
        } else {
            world.alloc_ip()
        };

        let _ = mxascen_mx; // the shared A record above is its only consumer
        Infra {
            policy_ip,
            dead_ip: world.alloc_ip(),
            mail_ip,
            mail_faulty_ip,
            mxascen_web,
            porkbun_ip,
            shared_a_done: HashSet::new(),
        }
    }

    // ------------------------------------------------------------------
    // Per-domain installation.
    // ------------------------------------------------------------------

    pub(crate) fn install_domain(
        &self,
        world: &mut World,
        infra: &mut Infra,
        spec: &DomainSpec,
        index: usize,
        date: SimDate,
        detail: SnapshotDetail,
    ) {
        let full = detail == SnapshotDetail::Full;
        let now = date.at_midnight();

        // ---- MX records and endpoints -----------------------------------
        let mx_hosts = self.effective_mx_hosts(spec, date);
        let mx_fault = self.effective_mx_fault(spec, date);
        let zone = world.ensure_zone(&spec.name);
        for (i, host) in mx_hosts.iter().enumerate() {
            zone.add_rr(
                &spec.name,
                TTL,
                RecordData::Mx {
                    preference: (i as u16 + 1) * 10,
                    exchange: host.clone(),
                },
            );
        }
        let legacy_active = migration_pending(spec, date);
        let self_hosted_mx = mx_hosts.iter().any(|h| h.is_subdomain_of(&spec.name));
        if self_hosted_mx || legacy_active {
            // Endpoints + A records, in the domain's own zone (self-hosted)
            // or the legacy provider's zone (pre-migration stale domains).
            for (i, host) in mx_hosts.iter().enumerate() {
                let faulty = match mx_fault {
                    Some((_, MxFaultScope::All)) => true,
                    Some((_, MxFaultScope::Partial)) => i == 0,
                    None => false,
                };
                // MX endpoints live in the domain's slots 1..=3.
                let ip = Self::domain_ip(index, 1 + i as u8);
                if full {
                    let cert_kind = match (faulty, mx_fault) {
                        (true, Some((MxCertFaultKind::CnMismatch, _))) => {
                            CertKind::WrongName(spec.name.clone())
                        }
                        (true, Some((MxCertFaultKind::SelfSigned, _))) => CertKind::SelfSigned,
                        (true, Some((MxCertFaultKind::Expired, _))) => CertKind::Expired,
                        _ => CertKind::Valid,
                    };
                    let chain = world.pki.issue(&cert_kind, std::slice::from_ref(host), now);
                    world.put_mx_endpoint(ip, MxEndpoint::healthy(host.clone(), chain));
                }
                let zone_apex = if host.is_subdomain_of(&spec.name) {
                    spec.name.as_str()
                } else {
                    host.esld_str().expect("legacy hosts have an eSLD")
                };
                world
                    .ensure_zone(zone_apex)
                    .add_rr(host, TTL, RecordData::A(ip));
            }
        } else {
            // Provider-hosted: per-customer hostnames need A records in the
            // provider zone, pointing at the healthy or faulty endpoint.
            let platform = match &spec.mail {
                MailHosting::Provider { key } => Some(MailPlatform::Named(key)),
                MailHosting::SmallProvider { idx } => Some(MailPlatform::Small(*idx)),
                MailHosting::Mxascen => None, // shared A already set
                MailHosting::SelfManaged { .. } => unreachable!("handled above"),
            };
            if let Some(platform) = platform {
                let target_ip = mx_fault
                    .and_then(|(kind, _)| infra.mail_faulty_ip.get(&(platform, kind)).copied())
                    .unwrap_or_else(|| infra.mail_ip[&platform]);
                for host in &mx_hosts {
                    if infra.shared_a_done.contains(host.as_str()) {
                        continue;
                    }
                    let zone =
                        world.ensure_zone(host.esld_str().expect("provider hosts have an eSLD"));
                    if !has_a(zone, host) {
                        zone.add_rr(host, TTL, RecordData::A(target_ip));
                        infra.shared_a_done.insert(NameKey(host.clone()));
                    }
                }
            }
        }

        // ---- NS records (the §4.3.1 DNS-hosting signal) -------------------
        let name_servers = if spec.dns_self_hosted {
            NS_LABELS.map(|label| spec.name.prefixed(label).expect("static label"))
        } else {
            // A handful of DNS providers, each serving many domains.
            self.names.dns_hosts[spec.name.as_str().len() % DNS_PROVIDERS].clone()
        };
        let zone = world.ensure_zone(&spec.name);
        for host in name_servers {
            zone.add_rr(&spec.name, TTL, RecordData::Ns(host));
        }

        // ---- the _mta-sts record ----------------------------------------
        let label = spec.name.prefixed("_mta-sts").expect("static label");
        record_texts(spec, |text| {
            zone.add_rr(&label, TTL, RecordData::Txt(vec![fmt::format(text)]));
        });

        // ---- TLSRPT -------------------------------------------------------
        if spec.tlsrpt.is_some_and(|d| d <= date) {
            let label = spec.name.prefixed("_smtp._tls").expect("static labels");
            let text = format!("v=TLSRPTv1; rua=mailto:tls-reports@{}", spec.name);
            zone.add_rr(&label, TTL, RecordData::Txt(vec![text]));
        }

        // ---- the policy host ---------------------------------------------
        let policy_fault = self.effective_policy_fault(spec, date);
        let policy_host = spec.name.prefixed("mta-sts").expect("static label");
        // Only the full-detail branches below serve the document, so a
        // DNS-only install never builds it.
        let document = if full {
            self.policy_document(spec, date, policy_fault)
        } else {
            None
        };

        match &spec.policy {
            PolicyHosting::SelfManaged => {
                if policy_fault == Some(PolicyFaultKind::Dns) {
                    return; // no A record at all
                }
                // The self-managed policy server is the domain's slot 0.
                let ip = Self::domain_ip(index, 0);
                if full {
                    let endpoint = self.self_web_endpoint(
                        world,
                        spec,
                        &policy_host,
                        now,
                        policy_fault,
                        &document,
                    );
                    world.put_web_endpoint(ip, endpoint);
                }
                world
                    .ensure_zone(&spec.name)
                    .add_rr(&policy_host, TTL, RecordData::A(ip));
            }
            PolicyHosting::Porkbun => {
                world.ensure_zone(&spec.name).add_rr(
                    &policy_host,
                    TTL,
                    RecordData::A(infra.porkbun_ip),
                );
            }
            PolicyHosting::Mxascen => {
                if policy_fault == Some(PolicyFaultKind::Dns) {
                    return; // no A record at all
                }
                let ip = if matches!(
                    policy_fault,
                    Some(PolicyFaultKind::TcpRefused | PolicyFaultKind::TcpTimeout)
                ) {
                    infra.dead_ip
                } else {
                    infra.mxascen_web[spec.name.as_str().len() % 2]
                };
                world
                    .ensure_zone(&spec.name)
                    .add_rr(&policy_host, TTL, RecordData::A(ip));
                if full && ip != infra.dead_ip {
                    self.install_provider_customer(
                        world,
                        ip,
                        spec,
                        &policy_host,
                        now,
                        policy_fault,
                        &document,
                    );
                }
            }
            PolicyHosting::Provider { .. }
            | PolicyHosting::MiscProvider { .. }
            | PolicyHosting::SmallProvider { .. } => {
                let delegation = self.delegation(spec).expect("a delegated policy host");
                self.install_delegation(
                    world,
                    infra,
                    spec,
                    &policy_host,
                    &delegation,
                    now,
                    policy_fault,
                    &document,
                    full,
                );
            }
        }
    }

    /// The CNAME delegation of a domain's policy host, for install and
    /// eviction alike; `None` when the domain serves its policy directly.
    pub(crate) fn delegation(&self, spec: &DomainSpec) -> Option<Delegation> {
        let (zone, platform, idx) = match spec.policy {
            PolicyHosting::Provider { key } => {
                let i = self
                    .policy_providers
                    .iter()
                    .position(|p| p.key == key)
                    .expect("known provider");
                let shared = self.names.policy_target[i].clone();
                return Some(Delegation {
                    shared: shared.is_some(),
                    target: shared
                        .unwrap_or_else(|| self.policy_providers[i].cname_target(&spec.name)),
                    platform: PolicyPlatform::Named(key),
                });
            }
            PolicyHosting::MiscProvider { idx } => ("polhost", PolicyPlatform::Misc(idx), idx),
            PolicyHosting::SmallProvider { idx } => ("smallpol", PolicyPlatform::Small(idx), idx),
            PolicyHosting::SelfManaged | PolicyHosting::Porkbun | PolicyHosting::Mxascen => {
                return None
            }
        };
        let target = format!("{}.{zone}{idx}.net", Joined(&spec.name, '-'))
            .parse()
            .expect("valid");
        Some(Delegation {
            target,
            platform,
            shared: false,
        })
    }

    /// CNAME delegation: record in the customer zone, A record for the
    /// target in the provider zone, per-customer certificate + document on
    /// the provider endpoint.
    #[allow(clippy::too_many_arguments)]
    fn install_delegation(
        &self,
        world: &mut World,
        infra: &mut Infra,
        spec: &DomainSpec,
        policy_host: &DomainName,
        delegation: &Delegation,
        now: SimInstant,
        policy_fault: Option<PolicyFaultKind>,
        document: &Option<(u16, String)>,
        full: bool,
    ) {
        let target = &delegation.target;
        world
            .ensure_zone(&spec.name)
            .add_rr(policy_host, TTL, RecordData::Cname(target.clone()));
        // TCP faults route the customer to a dead edge node.
        let endpoint_ip = if matches!(
            policy_fault,
            Some(PolicyFaultKind::TcpRefused | PolicyFaultKind::TcpTimeout)
        ) {
            infra.dead_ip
        } else {
            infra.policy_ip[&delegation.platform]
        };
        // A record for the CNAME target in the provider zone (shared
        // targets only once).
        if !infra.shared_a_done.contains(target.as_str()) {
            let zone = world.ensure_zone(target.esld_str().expect("provider targets have an eSLD"));
            if !has_a(zone, target) {
                zone.add_rr(target, TTL, RecordData::A(endpoint_ip));
                infra.shared_a_done.insert(NameKey(target.clone()));
            }
        }
        if full && endpoint_ip != infra.dead_ip {
            self.install_provider_customer(
                world,
                endpoint_ip,
                spec,
                policy_host,
                now,
                policy_fault,
                document,
            );
        }
    }

    /// Installs one customer's certificate + document on a shared endpoint.
    #[allow(clippy::too_many_arguments)]
    fn install_provider_customer(
        &self,
        world: &mut World,
        ip: Ipv4Addr,
        spec: &DomainSpec,
        policy_host: &DomainName,
        now: SimInstant,
        policy_fault: Option<PolicyFaultKind>,
        document: &Option<(u16, String)>,
    ) {
        let chain = policy_cert_kind(spec, policy_fault).map(|kind| {
            world
                .pki
                .issue(&kind, std::slice::from_ref(policy_host), now)
        });
        world.with_web(ip, |ep| {
            if let Some(chain) = chain {
                ep.identity.install(policy_host.clone(), chain);
            }
            if let Some((status, body)) = document {
                ep.install_document(policy_host.clone(), *status, body);
            }
        });
    }

    /// Builds a self-managed policy endpoint with the fault applied.
    fn self_web_endpoint(
        &self,
        world: &mut World,
        spec: &DomainSpec,
        policy_host: &DomainName,
        now: SimInstant,
        policy_fault: Option<PolicyFaultKind>,
        document: &Option<(u16, String)>,
    ) -> WebEndpoint {
        let mut endpoint = WebEndpoint::up();
        match policy_fault {
            Some(PolicyFaultKind::TcpRefused) => {
                endpoint.reachability = simnet::endpoint::Reachability::Refused;
                return endpoint;
            }
            Some(PolicyFaultKind::TcpTimeout) => {
                endpoint.reachability = simnet::endpoint::Reachability::Timeout;
                return endpoint;
            }
            _ => {}
        }
        if let Some(kind) = policy_cert_kind(spec, policy_fault) {
            let chain = world
                .pki
                .issue(&kind, std::slice::from_ref(policy_host), now);
            endpoint.identity.install(policy_host.clone(), chain);
        }
        if let Some((status, body)) = document {
            endpoint.install_document(policy_host.clone(), *status, body);
        }
        endpoint
    }

    /// The document served for a domain at `date`, or `None` for 404.
    fn policy_document(
        &self,
        spec: &DomainSpec,
        date: SimDate,
        policy_fault: Option<PolicyFaultKind>,
    ) -> Option<(u16, String)> {
        match policy_fault {
            Some(PolicyFaultKind::Http404) => return None,
            Some(PolicyFaultKind::Http500) => {
                return Some((500, "internal server error\n".to_string()))
            }
            Some(PolicyFaultKind::SyntaxEmpty) => return Some((200, String::new())),
            Some(PolicyFaultKind::SyntaxBadMx) => {
                // The paper's observed invalid patterns: an email address.
                let body = format!(
                    "version: STSv1\r\nmode: {}\r\nmx: postmaster@mx1.{}\r\nmax_age: {}\r\n",
                    self.effective_mode(spec, date),
                    spec.name,
                    spec.max_age
                );
                return Some((200, body));
            }
            _ => {}
        }
        let policy = Policy {
            mode: self.effective_mode(spec, date),
            max_age: spec.max_age,
            mx: self.policy_patterns(spec, date),
            extensions: Vec::new(),
        };
        Some((200, policy.to_document()))
    }
}

/// Calls `emit` with each `_mta-sts` TXT string of a domain, faults
/// applied (§4.3.2). An install keeps the text; a fingerprint hashes it.
pub(crate) fn record_texts(spec: &DomainSpec, mut emit: impl FnMut(fmt::Arguments<'_>)) {
    let days = spec.adopted.days_since_epoch();
    match spec.faults.record {
        None => emit(format_args!("v=STSv1; id=a{days};")),
        Some(RecordFaultKind::MissingId) => emit(format_args!("v=STSv1;")),
        Some(RecordFaultKind::InvalidId) => {
            emit(format_args!("v=STSv1; id={};", spec.adopted)) // dashes: 2024-01-31
        }
        Some(RecordFaultKind::BadVersion) => emit(format_args!("v=STSV1; id=a{days};")),
        Some(RecordFaultKind::BadExtension) => emit(format_args!(
            "v=STSv1; id=a{days}; mx: a.com; mode: testing;"
        )),
        Some(RecordFaultKind::MultipleRecords) => {
            emit(format_args!("v=STSv1; id=a{days};"));
            emit(format_args!("v=STSv1; id=a{days}b;"));
        }
    }
}

/// Whether a stale-policy domain still runs its legacy MX at `date`.
fn migration_pending(spec: &DomainSpec, date: SimDate) -> bool {
    spec.faults
        .inconsistency
        .as_ref()
        .and_then(|i| i.stale_migration)
        .is_some_and(|migration| date < migration)
}

/// Whether `zone` holds an A record at `name`.
fn has_a(zone: &Zone, name: &DomainName) -> bool {
    zone.records(name)
        .iter()
        .any(|r| r.rtype() == RecordType::A)
}

/// Mutates a hostname into a 1-edit typo within the same TLD.
pub(crate) fn typo_of(host: &DomainName) -> String {
    let mut typo = host.as_str().as_bytes().to_vec();
    // Rotate the first alphanumeric character of the leftmost label.
    let leftmost = &mut typo[..host.leftmost().len()];
    if let Some(c) = leftmost.iter_mut().find(|c| c.is_ascii_alphanumeric()) {
        *c = match *c {
            b'z' => b'a',
            b'9' => b'0',
            c => c + 1,
        };
    }
    String::from_utf8(typo).expect("names are ASCII")
}

/// Swaps the TLD of a hostname (com↔net, org↔com, se↔nu).
pub(crate) fn swap_tld(host: &DomainName) -> String {
    let tld = host.tld();
    let stem = &host.as_str()[..host.as_str().len() - tld.len()];
    match tld {
        "com" => format!("{stem}net"),
        "net" => format!("{stem}com"),
        "org" => format!("{stem}com"),
        "se" => format!("{stem}nu"),
        other => format!("{stem}x{other}"),
    }
}

/// Where a domain's policy host points (see [`Ecosystem::delegation`]).
pub(crate) struct Delegation {
    /// The CNAME target.
    pub(crate) target: DomainName,
    /// The platform serving it.
    pub(crate) platform: PolicyPlatform,
    /// Whether every customer of the platform shares the target (Table
    /// 2's tutanota style): its A record is communal, not the domain's.
    pub(crate) shared: bool,
}

/// The certificate a policy host presents under `policy_fault`, on its
/// own endpoint or a provider's; `None` installs nothing, so the
/// handshake ends in an SSL alert.
fn policy_cert_kind(spec: &DomainSpec, policy_fault: Option<PolicyFaultKind>) -> Option<CertKind> {
    match policy_fault {
        Some(PolicyFaultKind::TlsNoCert) => None,
        Some(PolicyFaultKind::TlsExpired) => Some(CertKind::Expired),
        Some(PolicyFaultKind::TlsSelfSigned) => Some(CertKind::SelfSigned),
        Some(PolicyFaultKind::TlsCnMismatch) => Some(CertKind::WrongName(spec.name.clone())),
        _ => Some(CertKind::Valid),
    }
}

/// Whether `date` falls inside an inclusive window.
pub(crate) fn in_window(date: SimDate, window: (SimDate, SimDate)) -> bool {
    date >= window.0 && date <= window.1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig::paper(42, 0.02))
    }

    #[test]
    fn world_grows_with_time() {
        let eco = eco();
        let early = eco.world_at(SimDate::ymd(2021, 10, 1), SnapshotDetail::DnsOnly);
        let late = eco.world_at(SimDate::ymd(2024, 9, 29), SnapshotDetail::DnsOnly);
        let early_count = eco.domains_at(SimDate::ymd(2021, 10, 1)).count();
        let late_count = eco.domains_at(SimDate::ymd(2024, 9, 29)).count();
        assert!(
            late_count > early_count * 3,
            "{early_count} -> {late_count}"
        );
        assert!(late.authorities.zone_count() > early.authorities.zone_count());
    }

    #[test]
    fn healthy_domain_is_fully_resolvable_and_valid() {
        let eco = eco();
        let date = SimDate::ymd(2024, 9, 29);
        let now = date.at_midnight();
        let world = eco.world_at(date, SnapshotDetail::Full);
        // Find a clean, adopted, self-managed domain.
        let spec = eco
            .population
            .domains
            .iter()
            .find(|d| {
                d.adopted_by(date)
                    && d.faults.is_clean()
                    && d.policy == PolicyHosting::SelfManaged
                    && matches!(d.mail, MailHosting::SelfManaged { .. })
            })
            .expect("a clean self-managed domain exists");
        // Record parses.
        let txts = world.mta_sts_txts(&spec.name, now).unwrap();
        let record = mtasts::evaluate_record_set(&txts).unwrap();
        assert!(!record.id.is_empty());
        // Policy fetches and matches the MX records.
        let outcome = world.fetch_policy(&spec.name, now);
        let (policy, _) = outcome.result.expect("clean domain fetch succeeds");
        let mx = world.mx_records(&spec.name, now).unwrap();
        assert!(!mx.is_empty());
        for host in &mx {
            assert!(mtasts::mx_matches_policy(host, &policy), "{host}");
            let probe = world.probe_mx(host, None, now);
            assert_eq!(
                probe.cert_verdict(host, now, world.pki.trust_store()),
                Some(Ok(())),
                "{host}"
            );
        }
    }

    #[test]
    fn faulty_domains_manifest_their_faults() {
        let eco = eco();
        let date = SimDate::ymd(2024, 9, 29);
        let now = date.at_midnight();
        let world = eco.world_at(date, SnapshotDetail::Full);
        let mut checked = 0;
        for spec in eco.domains_at(date) {
            let Some(fault) = eco.effective_policy_fault(spec, date) else {
                continue;
            };
            if checked > 50 {
                break;
            }
            let outcome = world.fetch_policy(&spec.name, now);
            let err = match outcome.result {
                Err(e) => e,
                Ok(_) => panic!("{}: fault {fault:?} did not manifest", spec.name),
            };
            let expected_layer = match fault {
                PolicyFaultKind::Dns => "dns",
                PolicyFaultKind::TcpRefused | PolicyFaultKind::TcpTimeout => "tcp",
                PolicyFaultKind::TlsCnMismatch
                | PolicyFaultKind::TlsSelfSigned
                | PolicyFaultKind::TlsExpired
                | PolicyFaultKind::TlsNoCert => "tls",
                PolicyFaultKind::Http404 | PolicyFaultKind::Http500 => "http",
                PolicyFaultKind::SyntaxBadMx | PolicyFaultKind::SyntaxEmpty => "policy-syntax",
            };
            assert_eq!(
                err.layer(),
                expected_layer,
                "{}: {fault:?} vs {err}",
                spec.name
            );
            checked += 1;
        }
        assert!(checked > 10, "too few faulty domains exercised: {checked}");
    }

    #[test]
    fn porkbun_parking_manifests_cn_mismatch() {
        let eco = eco();
        let date = SimDate::ymd(2024, 9, 29);
        let world = eco.world_at(date, SnapshotDetail::Full);
        let spec = eco
            .population
            .domains
            .iter()
            .find(|d| d.is_porkbun() && d.adopted_by(date))
            .expect("porkbun domains adopted by the end");
        let outcome = world.fetch_policy(&spec.name, date.at_midnight());
        assert!(
            matches!(
                outcome.result,
                Err(simnet::PolicyFetchError::Tls(simnet::TlsFailure::Cert(
                    pkix::CertError::NameMismatch { .. }
                )))
            ),
            "{:?}",
            outcome.result
        );
    }

    #[test]
    fn lucidgrow_incident_window_manifests() {
        let eco = eco();
        let incident = SimDate::ymd(2024, 1, 23);
        let after = SimDate::ymd(2024, 3, 7);
        let world = eco.world_at(incident, SnapshotDetail::Full);
        let spec = eco
            .population
            .domains
            .iter()
            .find(|d| d.lucidgrow && d.adopted_by(incident))
            .expect("lucidgrow domains adopted by January 2024");
        // During the window: policy mismatches the per-customer MX, enforce.
        let outcome = world.fetch_policy(&spec.name, incident.at_midnight());
        let (policy, _) = outcome.result.expect("policy is served");
        assert_eq!(policy.mode, Mode::Enforce);
        let mx = world
            .mx_records(&spec.name, incident.at_midnight())
            .unwrap();
        assert!(!mx.iter().any(|h| mtasts::mx_matches_policy(h, &policy)));
        // After the window: consistent again.
        let world2 = eco.world_at(after, SnapshotDetail::Full);
        let outcome2 = world2.fetch_policy(&spec.name, after.at_midnight());
        let (policy2, _) = outcome2.result.expect("policy is served");
        let mx2 = world2.mx_records(&spec.name, after.at_midnight()).unwrap();
        assert!(mx2.iter().all(|h| mtasts::mx_matches_policy(h, &policy2)));
    }

    #[test]
    fn stale_migration_flips_consistency() {
        let eco = eco();
        let spec = eco
            .population
            .domains
            .iter()
            .find(|d| {
                d.faults
                    .inconsistency
                    .as_ref()
                    .is_some_and(|i| i.stale_migration.is_some())
            })
            .expect("stale-policy domains exist");
        let migration = spec
            .faults
            .inconsistency
            .as_ref()
            .unwrap()
            .stale_migration
            .unwrap();
        let before = migration.add_days(-7).max(spec.adopted);
        let after = migration.add_days(7);
        if before >= migration || after > eco.config.end {
            return; // degenerate scheduling at tiny scales
        }
        let hosts_before = eco.effective_mx_hosts(spec, before);
        let patterns = eco.policy_patterns(spec, before);
        assert!(hosts_before
            .iter()
            .all(|h| patterns.iter().any(|p| p.matches(h))));
        let hosts_after = eco.effective_mx_hosts(spec, after);
        let patterns_after = eco.policy_patterns(spec, after);
        assert!(!hosts_after
            .iter()
            .any(|h| patterns_after.iter().any(|p| p.matches(h))));
    }

    #[test]
    fn delegated_domains_expose_cname_chains() {
        let eco = eco();
        let date = SimDate::ymd(2024, 9, 29);
        let world = eco.world_at(date, SnapshotDetail::Full);
        let spec = eco
            .population
            .domains
            .iter()
            .find(|d| {
                d.adopted_by(date)
                    && d.policy == (PolicyHosting::Provider { key: "dmarcreport" })
                    && d.faults.policy.is_none()
                    && !d.lucidgrow
            })
            .expect("healthy dmarcreport customers exist");
        let outcome = world.fetch_policy(&spec.name, date.at_midnight());
        assert!(outcome.result.is_ok(), "{:?}", outcome.result);
        assert!(
            outcome.cname_chain[0].is_subdomain_of(&"dmarcinput.com".parse().unwrap()),
            "{:?}",
            outcome.cname_chain
        );
    }

    #[test]
    fn dns_only_worlds_skip_endpoints_but_serve_records() {
        let eco = eco();
        let date = SimDate::ymd(2024, 9, 29);
        let world = eco.world_at(date, SnapshotDetail::DnsOnly);
        assert!(world.web_ips().is_empty());
        assert!(world.mx_ips().is_empty());
        let spec = eco
            .domains_at(date)
            .find(|d| d.faults.record.is_none())
            .unwrap();
        assert!(
            world.mta_sts_txts(&spec.name, date.at_midnight()).unwrap()[0].starts_with("v=STSv1")
        );
    }

    #[test]
    fn typo_and_tld_helpers() {
        let host: DomainName = "mx1.example.com".parse().unwrap();
        let typo = typo_of(&host);
        assert_eq!(typo, "nx1.example.com");
        assert_eq!(netbase::levenshtein(&typo, &host.to_string()), 1);
        assert_eq!(
            typo_of(&"_z9.example.com".parse().unwrap()),
            "_a9.example.com"
        );
        assert_eq!(typo_of(&"9.com".parse().unwrap()), "0.com");
        assert_eq!(swap_tld(&host), "mx1.example.net");
        assert_eq!(swap_tld(&"a.se".parse().unwrap()), "a.nu");
        assert_eq!(swap_tld(&"a.b.uk".parse().unwrap()), "a.b.xuk");
    }
}
