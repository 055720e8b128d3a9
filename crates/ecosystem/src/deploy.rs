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
use crate::providers::{mail_providers, policy_providers, MailProvider, MxStyle, PolicyProvider};
use crate::spec::{
    generate, DomainSpec, MailHosting, MxFaultScope, PolicyFaultKind, PolicyHosting, Population,
    JUNE8_WINDOW, LUCIDGROW_WINDOW,
};
use dns::RecordData;
use mtasts::{Mode, MxPattern, Policy};
use netbase::{DomainName, SimDate, SimInstant};
use simnet::{CertKind, MxEndpoint, WebEndpoint, World};
use std::collections::{HashMap, HashSet};
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

/// Provider infrastructure handles inside one world.
///
/// Crate-visible so [`crate::incremental::IncrementalWorld`] can retain the
/// handles across snapshots instead of rebuilding them per date.
pub(crate) struct Infra {
    /// Policy web endpoint per provider key (top-8 + `misc<i>` + `small<i>`).
    pub(crate) policy_ip: HashMap<String, Ipv4Addr>,
    /// An allocated IP with no listener (TCP-refused fault target).
    pub(crate) dead_ip: Ipv4Addr,
    /// Healthy MX endpoint per mail provider key.
    pub(crate) mail_ip: HashMap<String, Ipv4Addr>,
    /// Faulty MX endpoints for per-customer-hostname providers, by
    /// (provider, fault kind).
    pub(crate) mail_faulty_ip: HashMap<(String, MxCertFaultKind), Ipv4Addr>,
    /// The two mxascen policy IPs.
    pub(crate) mxascen_web: [Ipv4Addr; 2],
    /// The Porkbun parking host.
    pub(crate) porkbun_ip: Ipv4Addr,
    /// Shared CNAME targets / shared MX hostnames already given A records.
    /// Invariant: a name is in here iff exactly one domain installed its A
    /// record through the per-customer path — which is what makes
    /// incremental uninstallation able to tell "mine to remove" from
    /// "infrastructure-owned" records.
    pub(crate) shared_a_done: HashSet<DomainName>,
}

impl Ecosystem {
    /// Generates the population for `config`.
    pub fn generate(config: EcosystemConfig) -> Ecosystem {
        let population = generate(&config);
        Ecosystem {
            config,
            population,
            policy_providers: policy_providers(),
            mail_providers: mail_providers(),
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

    /// A policy provider by key.
    pub fn policy_provider(&self, key: &str) -> Option<&PolicyProvider> {
        self.policy_providers.iter().find(|p| p.key == key)
    }

    /// A mail provider by key.
    pub fn mail_provider(&self, key: &str) -> Option<&MailProvider> {
        self.mail_providers.iter().find(|p| p.key == key)
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
        if let Some(inc) = &spec.faults.inconsistency {
            if let Some(migration) = inc.stale_migration {
                if date < migration {
                    return vec![self.legacy_mx_of(spec)];
                }
            }
        }
        match &spec.mail {
            MailHosting::SelfManaged { mx_count } => (1..=*mx_count)
                .map(|i| spec.name.prefixed(&format!("mx{i}")).expect("static label"))
                .collect(),
            MailHosting::Provider { key } => self
                .mail_provider(key)
                .expect("spec references known providers")
                .mx_hosts(&spec.name),
            MailHosting::Mxascen => {
                vec![crate::providers::MXASCEN_MX.parse().expect("static")]
            }
            MailHosting::SmallProvider { idx } => {
                vec![format!("in.smallmx{idx}.net").parse().expect("valid")]
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
        let new_first = match &spec.mail {
            MailHosting::SelfManaged { .. } => spec.name.clone(),
            MailHosting::Provider { key } => self
                .mail_provider(key)
                .expect("spec references known providers")
                .mx_hosts(&spec.name)
                .remove(0),
            MailHosting::Mxascen => crate::providers::MXASCEN_MX.parse().expect("static"),
            MailHosting::SmallProvider { idx } => {
                format!("in.smallmx{idx}.net").parse().expect("valid")
            }
        };
        format!(
            "mx.oldhost-{}-{}.{}",
            spec.name.leftmost(),
            spec.name.tld(),
            new_first.tld()
        )
        .parse()
        .expect("derived names are valid")
    }

    /// The mx patterns the domain's policy lists at `date`.
    pub fn policy_patterns(&self, spec: &DomainSpec, date: SimDate) -> Vec<MxPattern> {
        if spec.lucidgrow && in_window(date, LUCIDGROW_WINDOW) {
            // The January incident: the DMARCReport-hosted policy lists the
            // provider's base MX, matching none of the per-customer hosts.
            return vec![MxPattern::parse("mx.lucidgrow.com").expect("valid")];
        }
        let actual = self.effective_mx_hosts(spec, date);
        let Some(inc) = &spec.faults.inconsistency else {
            return actual
                .iter()
                .map(|h| MxPattern::parse(&h.to_string()).expect("hosts are valid patterns"))
                .collect();
        };
        if let Some(migration) = inc.stale_migration {
            // The policy always lists the legacy MX; before the migration
            // that is also the live MX (consistent), after it the real MXes
            // moved on (Figure 9's stale share).
            let _ = migration;
            return vec![MxPattern::parse(&self.legacy_mx_of(spec).to_string()).expect("valid")];
        }
        let first = actual
            .first()
            .cloned()
            .unwrap_or_else(|| self.legacy_mx_of(spec));
        let pattern = match inc.kind {
            InconsistencyKind::CompleteDomain => {
                // Keep the actual MX's TLD: the paper's complete-domain
                // class is "entirely different domain", not a TLD swap.
                format!("mx.obsolete-{}.{}", spec.name.leftmost(), first.tld())
            }
            InconsistencyKind::ThirdLabel => {
                if inc.stray_label {
                    // The paper's signature misreading: the mta-sts label
                    // inside the pattern.
                    let esld = first.effective_sld().unwrap_or_else(|| first.clone());
                    format!("mta-sts.{esld}")
                } else {
                    format!("extra.{first}")
                }
            }
            InconsistencyKind::Typo => typo_of(&first),
            InconsistencyKind::Tld => swap_tld(&first),
        };
        vec![MxPattern::parse(&pattern).expect("generated patterns are valid")]
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
            policy_ip.insert(provider.key.to_string(), ip);
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
            policy_ip.insert(format!("misc{i}"), ip);
        }
        for i in 0..self.population.small_policy_providers {
            let base: DomainName = format!("smallpol{i}.net").parse().expect("valid");
            world.ensure_zone(&base);
            let ip = if full {
                world.add_web_endpoint(WebEndpoint::up())
            } else {
                world.alloc_ip()
            };
            policy_ip.insert(format!("small{i}"), ip);
        }

        // Mail platforms.
        for provider in &self.mail_providers {
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
            mail_ip.insert(provider.key.to_string(), ip);
            // Shared hostnames get their A record now.
            if let MxStyle::Shared(host) = provider.mx_style {
                let host: DomainName = host.parse().expect("static");
                let zone_apex = host.effective_sld().unwrap_or_else(|| base.clone());
                world.ensure_zone(&zone_apex);
                world.with_zone(&zone_apex, |z| {
                    z.add_rr(&host, TTL, RecordData::A(ip));
                });
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
                    mail_faulty_ip.insert((provider.key.to_string(), kind), ip);
                }
            }
        }
        // Small mail providers.
        for i in 0..self.population.small_mail_providers {
            let base: DomainName = format!("smallmx{i}.net").parse().expect("valid");
            world.ensure_zone(&base);
            let host = base.prefixed("in").expect("static label");
            let ip = if full {
                let chain = world
                    .pki
                    .issue(&CertKind::Valid, std::slice::from_ref(&host), now);
                world.add_mx_endpoint(MxEndpoint::healthy(host.clone(), chain))
            } else {
                world.alloc_ip()
            };
            world.with_zone(&base, |z| {
                z.add_rr(&host, TTL, RecordData::A(ip));
            });
            mail_ip.insert(format!("small{i}"), ip);
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
                    let chain = world
                        .pki
                        .issue(&cert_kind, std::slice::from_ref(&host), now);
                    let ip = world.add_mx_endpoint(MxEndpoint::healthy(host.clone(), chain));
                    mail_faulty_ip.insert((format!("small{i}"), kind), ip);
                }
            }
        }

        // mxascen: one administrator, shared MX + two shared policy IPs.
        let mxascen_base: DomainName = "mxascen.com".parse().expect("static");
        world.ensure_zone(&mxascen_base);
        let mxascen_host: DomainName = crate::providers::MXASCEN_MX.parse().expect("static");
        let mxascen_mx = if full {
            let chain = world
                .pki
                .issue(&CertKind::Valid, std::slice::from_ref(&mxascen_host), now);
            world.add_mx_endpoint(MxEndpoint::healthy(mxascen_host.clone(), chain))
        } else {
            world.alloc_ip()
        };
        world.with_zone(&mxascen_base, |z| {
            z.add_rr(&mxascen_host, TTL, RecordData::A(mxascen_mx));
        });
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
        world.ensure_zone(&spec.name);

        // ---- MX records and endpoints -----------------------------------
        let mx_hosts = self.effective_mx_hosts(spec, date);
        let mx_fault = self.effective_mx_fault(spec, date);
        world.with_zone(&spec.name, |z| {
            for (i, host) in mx_hosts.iter().enumerate() {
                z.add_rr(
                    &spec.name,
                    TTL,
                    RecordData::Mx {
                        preference: (i as u16 + 1) * 10,
                        exchange: host.clone(),
                    },
                );
            }
        });
        let legacy_active = spec
            .faults
            .inconsistency
            .as_ref()
            .and_then(|i| i.stale_migration)
            .map(|m| date < m)
            .unwrap_or(false);
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
                    spec.name.clone()
                } else {
                    host.effective_sld().expect("legacy hosts have an eSLD")
                };
                world.ensure_zone(&zone_apex);
                world.with_zone(&zone_apex, |z| {
                    z.add_rr(host, TTL, RecordData::A(ip));
                });
            }
        } else {
            // Provider-hosted: per-customer hostnames need A records in the
            // provider zone, pointing at the healthy or faulty endpoint.
            let provider_key = match &spec.mail {
                MailHosting::Provider { key } => key.to_string(),
                MailHosting::SmallProvider { idx } => format!("small{idx}"),
                MailHosting::Mxascen => String::new(), // shared A already set
                MailHosting::SelfManaged { .. } => unreachable!("handled above"),
            };
            if !provider_key.is_empty() {
                let target_ip = match mx_fault {
                    Some((kind, _)) => infra
                        .mail_faulty_ip
                        .get(&(provider_key.clone(), kind))
                        .copied()
                        .unwrap_or_else(|| infra.mail_ip[&provider_key]),
                    None => infra.mail_ip[&provider_key],
                };
                for host in &mx_hosts {
                    if infra.shared_a_done.contains(host) {
                        continue;
                    }
                    let zone_apex = host.effective_sld().expect("provider hosts have an eSLD");
                    world.ensure_zone(&zone_apex);
                    let installed = world.with_zone(&zone_apex, |z| {
                        if z.get(host, dns::RecordType::A).is_empty() {
                            z.add_rr(host, TTL, RecordData::A(target_ip));
                            true
                        } else {
                            false
                        }
                    });
                    if installed {
                        infra.shared_a_done.insert(host.clone());
                    }
                }
            }
        }

        // ---- NS records (the §4.3.1 DNS-hosting signal) -------------------
        world.with_zone(&spec.name, |z| {
            if spec.dns_self_hosted {
                for i in 1..=2u8 {
                    z.add_rr(
                        &spec.name,
                        TTL,
                        RecordData::Ns(
                            spec.name.prefixed(&format!("ns{i}")).expect("static label"),
                        ),
                    );
                }
            } else {
                // A handful of DNS providers, each serving many domains.
                let provider = spec.name.to_string().len() % 6;
                for i in 1..=2u8 {
                    z.add_rr(
                        &spec.name,
                        TTL,
                        RecordData::Ns(
                            format!("ns{i}.dnshost{provider}.net")
                                .parse()
                                .expect("valid"),
                        ),
                    );
                }
            }
        });

        // ---- the _mta-sts record ----------------------------------------
        let record_texts = record_texts(spec);
        world.with_zone(&spec.name, |z| {
            let label = spec.name.prefixed("_mta-sts").expect("static label");
            for text in &record_texts {
                z.add_rr(&label, TTL, RecordData::Txt(vec![text.clone()]));
            }
        });

        // ---- TLSRPT -------------------------------------------------------
        if spec.tlsrpt.is_some_and(|d| d <= date) {
            world.with_zone(&spec.name, |z| {
                let label = spec
                    .name
                    .prefixed("_tls")
                    .and_then(|n| n.prefixed("_smtp"))
                    .expect("static labels");
                z.add_rr(
                    &label,
                    TTL,
                    RecordData::Txt(vec![format!(
                        "v=TLSRPTv1; rua=mailto:tls-reports@{}",
                        spec.name
                    )]),
                );
            });
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
                world.with_zone(&spec.name, |z| {
                    z.add_rr(&policy_host, TTL, RecordData::A(ip));
                });
            }
            PolicyHosting::Porkbun => {
                world.with_zone(&spec.name, |z| {
                    z.add_rr(&policy_host, TTL, RecordData::A(infra.porkbun_ip));
                });
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
                    infra.mxascen_web[spec.name.to_string().len() % 2]
                };
                world.with_zone(&spec.name, |z| {
                    z.add_rr(&policy_host, TTL, RecordData::A(ip));
                });
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
            PolicyHosting::Provider { key } => {
                let provider = self.policy_provider(key).expect("known provider");
                let target = provider.cname_target(&spec.name);
                self.install_delegation(
                    world,
                    infra,
                    spec,
                    &policy_host,
                    &target,
                    key,
                    now,
                    policy_fault,
                    &document,
                    full,
                );
            }
            PolicyHosting::MiscProvider { .. } | PolicyHosting::SmallProvider { .. } => {
                let (target, key) = indexed_delegation(spec).expect("an indexed provider");
                self.install_delegation(
                    world,
                    infra,
                    spec,
                    &policy_host,
                    &target,
                    &key,
                    now,
                    policy_fault,
                    &document,
                    full,
                );
            }
        }
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
        target: &DomainName,
        provider_key: &str,
        now: SimInstant,
        policy_fault: Option<PolicyFaultKind>,
        document: &Option<(u16, String)>,
        full: bool,
    ) {
        world.with_zone(&spec.name, |z| {
            z.add_rr(policy_host, TTL, RecordData::Cname(target.clone()));
        });
        // TCP faults route the customer to a dead edge node.
        let endpoint_ip = if matches!(
            policy_fault,
            Some(PolicyFaultKind::TcpRefused | PolicyFaultKind::TcpTimeout)
        ) {
            infra.dead_ip
        } else {
            infra.policy_ip[provider_key]
        };
        // A record for the CNAME target in the provider zone (shared
        // targets only once).
        if !infra.shared_a_done.contains(target) {
            let zone_apex = target
                .effective_sld()
                .expect("provider targets have an eSLD");
            world.ensure_zone(&zone_apex);
            let installed = world.with_zone(&zone_apex, |z| {
                if z.get(target, dns::RecordType::A).is_empty() {
                    z.add_rr(target, TTL, RecordData::A(endpoint_ip));
                    true
                } else {
                    false
                }
            });
            if installed {
                infra.shared_a_done.insert(target.clone());
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

/// The record TXT strings for a domain, faults applied (§4.3.2).
pub(crate) fn record_texts(spec: &DomainSpec) -> Vec<String> {
    let good_id = format!("a{}", spec.adopted.days_since_epoch());
    match spec.faults.record {
        None => vec![format!("v=STSv1; id={good_id};")],
        Some(RecordFaultKind::MissingId) => vec!["v=STSv1;".to_string()],
        Some(RecordFaultKind::InvalidId) => {
            vec![format!("v=STSv1; id={};", spec.adopted)] // dashes: 2024-01-31
        }
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

/// Mutates a hostname into a 1-edit typo within the same TLD.
fn typo_of(host: &DomainName) -> String {
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
fn swap_tld(host: &DomainName) -> String {
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

/// The CNAME target and provider key of a misc- or small-provider
/// customer, for install and eviction alike; `None` under any other
/// policy hosting.
pub(crate) fn indexed_delegation(spec: &DomainSpec) -> Option<(DomainName, String)> {
    let (zone, key, idx) = match spec.policy {
        PolicyHosting::MiscProvider { idx } => ("polhost", "misc", idx),
        PolicyHosting::SmallProvider { idx } => ("smallpol", "small", idx),
        _ => return None,
    };
    let target = format!("{}.{zone}{idx}.net", spec.name.as_str().replace('.', "-"))
        .parse()
        .expect("valid");
    Some((target, format!("{key}{idx}")))
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
