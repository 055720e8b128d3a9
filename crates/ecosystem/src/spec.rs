//! Domain specifications: the deterministic blueprint of the population.
//!
//! [`generate`] turns an [`EcosystemConfig`] into one [`DomainSpec`] per
//! domain that ever publishes an MTA-STS record. Specs are pure data —
//! deployment into a [`simnet::World`] happens in [`crate::deploy`] — so
//! the scanner, the experiments, and the ground-truth assertions in tests
//! all read from the same source.

use crate::calib::{self, InconsistencyKind, MxCertFaultKind, RecordFaultKind};
use crate::config::EcosystemConfig;
use crate::providers::{mail_providers, policy_providers};
use crate::tld::{adoption_count, TldId, ALL_TLDS};
use mtasts::Mode;
use netbase::{DetRng, DomainName, SimDate};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Who runs the domain's inbound MTAs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum MailHosting {
    /// `mx1..mxN.<domain>` on the owner's own infrastructure.
    SelfManaged {
        /// Number of MX hosts (1-3).
        mx_count: u8,
    },
    /// A provider from [`mail_providers`], by key.
    Provider {
        /// Provider key.
        key: &'static str,
    },
    /// The single-administrator mxascen setup (§4.3.1).
    Mxascen,
    /// A small mail host (6-49 customers) invisible to both heuristics.
    SmallProvider {
        /// Index of the small provider.
        idx: u32,
    },
}

/// Who serves the domain's MTA-STS policy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum PolicyHosting {
    /// Direct A record to the owner's web server.
    SelfManaged,
    /// Porkbun-registered parked domain: direct A to the registrar's
    /// parking host with its wrong-name certificate (the Figure 4/5 tail
    /// spike).
    Porkbun,
    /// CNAME delegation to a Table-2 provider, by key.
    Provider {
        /// Provider key.
        key: &'static str,
    },
    /// CNAME to a mid-size third-party host beyond Table 2's eight
    /// (≥50 customers, classifiable).
    MiscProvider {
        /// Index of the misc provider.
        idx: u32,
    },
    /// CNAME to a small (6-49 customer) host — unclassifiable.
    SmallProvider {
        /// Index of the small provider.
        idx: u32,
    },
    /// The mxascen shared self-managed policy IPs.
    Mxascen,
}

/// How the policy fails to be served (§4.3.3's ladder), if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyFaultKind {
    /// `mta-sts.<domain>` unresolvable.
    Dns,
    /// Port closed.
    TcpRefused,
    /// Connect timeout.
    TcpTimeout,
    /// Certificate does not cover `mta-sts.<domain>`.
    TlsCnMismatch,
    /// Self-signed certificate.
    TlsSelfSigned,
    /// Expired certificate.
    TlsExpired,
    /// No certificate installed for the SNI (SSL alert).
    TlsNoCert,
    /// Document missing (404).
    Http404,
    /// Server error (500).
    Http500,
    /// Syntactically invalid mx pattern in the document.
    SyntaxBadMx,
    /// Empty document.
    SyntaxEmpty,
}

/// Whether an MX certificate fault covers every MX or only some.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MxFaultScope {
    /// Every MX presents a bad certificate (Figure 7 "all invalid").
    All,
    /// Only the first MX is bad (Figure 7 "partially invalid").
    Partial,
}

/// An injected mx-pattern inconsistency (§4.4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InconsistencySpec {
    /// The mismatch class to manifest.
    pub kind: InconsistencyKind,
    /// For stale complete mismatches: the MX migration date. Before it the
    /// policy matches (the old MX records are live); after it the real MXes
    /// change while the policy stays (Figure 9).
    pub stale_migration: Option<SimDate>,
    /// For 3LD+ mismatches: whether the pattern embeds the stray
    /// `mta-sts` label (597 of 730, §4.4).
    pub stray_label: bool,
}

/// The complete fault profile of one domain.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultProfile {
    /// DNS record syntax fault (§4.3.2).
    pub record: Option<RecordFaultKind>,
    /// Policy retrieval fault (§4.3.3).
    pub policy: Option<PolicyFaultKind>,
    /// MX certificate fault (§4.3.4).
    pub mx_cert: Option<(MxCertFaultKind, MxFaultScope)>,
    /// Member of the 270-domain CN-mismatch-fixed cohort: the fault
    /// clears at the final snapshot (Figure 6's dip).
    pub mx_cn_fixed_at_latest: bool,
    /// mx-pattern inconsistency (§4.4).
    pub inconsistency: Option<InconsistencySpec>,
}

impl FaultProfile {
    /// True when no fault of any kind is injected.
    pub fn is_clean(&self) -> bool {
        self.record.is_none()
            && self.policy.is_none()
            && self.mx_cert.is_none()
            && self.inconsistency.is_none()
    }
}

/// One domain's full blueprint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DomainSpec {
    /// The registered domain.
    pub name: DomainName,
    /// Its TLD.
    pub tld: TldId,
    /// The date its MTA-STS record first appears.
    pub adopted: SimDate,
    /// Tranco rank, when the domain is in the top 1M (Figure 3).
    pub tranco_rank: Option<u32>,
    /// Mail hosting arrangement.
    pub mail: MailHosting,
    /// Policy hosting arrangement.
    pub policy: PolicyHosting,
    /// Policy mode.
    pub mode: Mode,
    /// Policy max_age in seconds.
    pub max_age: u64,
    /// Fault profile.
    pub faults: FaultProfile,
    /// TLSRPT record adoption date, if any (Figure 12).
    pub tlsrpt: Option<SimDate>,
    /// Member of the Jan-2-2024 `.org` organizational cohort (Figure 2).
    pub org_spike: bool,
    /// DMARCReport CNAME present but never hosted there (354, §4.3.3).
    pub dmarc_never_hosted: bool,
    /// DMARCReport opted-out: empty policy file (5, §5).
    pub dmarc_empty: bool,
    /// Tutanota leftover with a stale policy host (10, of which 8 expired
    /// certificates; §5).
    pub tutanota_stale: bool,
    /// Hit by the June 8, 2024 self-signed incident (1,385; Figure 5).
    pub june8_victim: bool,
    /// lucidgrow customer (the §4.4 January incident population).
    pub lucidgrow: bool,
    /// Whether the domain runs its own authoritative DNS (NS records under
    /// its own eSLD) — the NS half of the §4.3.1 heuristics.
    pub dns_self_hosted: bool,
}

impl DomainSpec {
    /// Whether the domain's record exists at `date`.
    pub fn adopted_by(&self, date: SimDate) -> bool {
        self.adopted <= date
    }

    /// Whether this is a Porkbun parked registration.
    pub fn is_porkbun(&self) -> bool {
        self.policy == PolicyHosting::Porkbun
    }
}

/// The generated population plus derived metadata.
#[derive(Debug, Clone)]
pub struct Population {
    /// All domain specs, in deterministic order.
    pub domains: Vec<DomainSpec>,
    /// Small policy-provider count (for deploy-side naming).
    pub small_policy_providers: u32,
    /// Small mail-provider count.
    pub small_mail_providers: u32,
    /// Columnar companion to `domains` (same indices).
    pub index: PopulationIndex,
}

impl Population {
    /// Assembles a population and builds its columnar index.
    pub fn from_parts(
        domains: Vec<DomainSpec>,
        small_policy_providers: u32,
        small_mail_providers: u32,
    ) -> Population {
        let index = PopulationIndex::build(&domains);
        Population {
            domains,
            small_policy_providers,
            small_mail_providers,
            index,
        }
    }
}

/// Adoption-date columns over the population (same indices as `domains`).
///
/// Every per-date walk (`IncrementalWorld::advance_to`, the incremental
/// scanner, the supervisor) asks "who exists at date d". The
/// `adoption_order`/`adoption_dates` pair turns that from an
/// O(population) filter over 300-byte specs into a binary search plus an
/// O(adopters) slice.
#[derive(Debug, Clone, Default)]
pub struct PopulationIndex {
    /// Adoption date per population index.
    pub adopted: Vec<SimDate>,
    /// Population indices sorted by (adoption date, index).
    adoption_order: Vec<u32>,
    /// Adoption date of `adoption_order[k]` — the binary-search column.
    adoption_dates: Vec<SimDate>,
}

impl PopulationIndex {
    /// Builds the columns from a name-sorted spec slice.
    pub fn build(domains: &[DomainSpec]) -> PopulationIndex {
        let adopted: Vec<SimDate> = domains.iter().map(|d| d.adopted).collect();
        let mut order: Vec<u32> = (0..domains.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (adopted[i as usize], i));
        PopulationIndex {
            adoption_dates: order.iter().map(|&i| adopted[i as usize]).collect(),
            adoption_order: order,
            adopted,
        }
    }

    /// Number of indexed domains.
    pub fn len(&self) -> usize {
        self.adopted.len()
    }

    /// True when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.adopted.is_empty()
    }

    /// Population indices of every domain adopted on or before `date`,
    /// ordered by (adoption date, index).
    pub fn adopters_through(&self, date: SimDate) -> &[u32] {
        let end = self.adoption_dates.partition_point(|d| *d <= date);
        &self.adoption_order[..end]
    }

    /// Population indices of domains adopting in `(after, through]`.
    pub fn adopters_between(&self, after: SimDate, through: SimDate) -> &[u32] {
        let lo = self.adoption_dates.partition_point(|d| *d <= after);
        let hi = self.adoption_dates.partition_point(|d| *d <= through);
        &self.adoption_order[lo..hi]
    }
}

/// The lucidgrow incident window: every lucidgrow-customer policy is
/// wrong (3LD+ vs their unique MXes) and set to `enforce` (§4.4: observed
/// on January 23, 2024, resolved quickly).
pub const LUCIDGROW_WINDOW: (SimDate, SimDate) = (
    SimDate::from_days_since_epoch(19_743), // 2024-01-21
    SimDate::from_days_since_epoch(19_755), // 2024-02-02
);

/// The June 8, 2024 self-signed-certificate incident window (one scan).
pub const JUNE8_WINDOW: (SimDate, SimDate) = (
    SimDate::from_days_since_epoch(19_880), // 2024-06-06
    SimDate::from_days_since_epoch(19_884), // 2024-06-10
);

/// Deterministically generates the whole population, sorted by name.
pub fn generate(config: &EcosystemConfig) -> Population {
    let root = DetRng::new(config.seed).fork("ecosystem");
    let mut domains: Vec<DomainSpec> = Vec::new();

    // ------------------------------------------------------------------
    // 1. Baseline adopters per TLD with curve-driven adoption dates.
    // ------------------------------------------------------------------
    let weekly: Vec<SimDate> = config.weekly_snapshots();
    // One residual-tracking allocator across the four TLDs: the per-TLD
    // grants sum exactly to the scaled paper total at any scale.
    let mut tld_alloc = config.allocator();
    for tld in ALL_TLDS {
        // The smooth curve excludes the specials appended below.
        let final_count = tld_alloc.take(crate::tld::final_adoption(tld));
        // Precompute scaled counts per week for adoption-date assignment.
        let counts: Vec<u64> = weekly
            .iter()
            .map(|d| config.scaled(adoption_count(tld, *d)))
            .collect();
        for i in 0..final_count {
            // First week whose cumulative count exceeds i.
            let week_idx = counts.partition_point(|&c| c <= i);
            let adopted = weekly.get(week_idx).copied().unwrap_or(config.end);
            let name: DomainName = format!("d{:06}.{}", i, tld.label())
                .parse()
                .expect("generated names are valid");
            domains.push(DomainSpec {
                name,
                tld,
                adopted,
                tranco_rank: None,
                mail: MailHosting::SelfManaged { mx_count: 1 }, // assigned later
                policy: PolicyHosting::SelfManaged,             // assigned later
                mode: Mode::Testing,
                max_age: 604_800,
                faults: FaultProfile::default(),
                tlsrpt: None,
                org_spike: false,
                dmarc_never_hosted: false,
                dmarc_empty: false,
                tutanota_stale: false,
                june8_victim: false,
                lucidgrow: false,
                dns_self_hosted: false,
            });
        }
    }

    // ------------------------------------------------------------------
    // 2. Special cohorts: the .org spike and Porkbun registrations.
    // ------------------------------------------------------------------
    let spike_n = config.scaled_at_least_one(calib::ORG_SPIKE_DOMAINS);
    for i in 0..spike_n {
        domains.push(DomainSpec {
            name: format!("org-campaign{i:04}.org").parse().expect("valid"),
            tld: TldId::Org,
            adopted: SimDate::ymd(2024, 1, 2),
            tranco_rank: None,
            mail: MailHosting::SelfManaged { mx_count: 1 },
            policy: PolicyHosting::SelfManaged,
            mode: Mode::Enforce,
            max_age: 604_800,
            faults: FaultProfile::default(),
            tlsrpt: Some(SimDate::ymd(2024, 1, 2)),
            org_spike: true,
            dmarc_never_hosted: false,
            dmarc_empty: false,
            tutanota_stale: false,
            june8_victim: false,
            lucidgrow: false,
            dns_self_hosted: true,
        });
    }
    let porkbun_n = config.scaled_at_least_one(calib::PORKBUN_DOMAINS);
    let porkbun_start = SimDate::ymd(2024, 8, 1);
    let porkbun_span = config.end.days_since(porkbun_start).max(1);
    for i in 0..porkbun_n {
        let offset = (i as i64 * porkbun_span) / porkbun_n as i64;
        domains.push(DomainSpec {
            name: format!("parked{i:05}.com").parse().expect("valid"),
            tld: TldId::Com,
            adopted: porkbun_start.add_days(offset),
            tranco_rank: None,
            mail: MailHosting::Provider { key: "parkmail" },
            policy: PolicyHosting::Porkbun,
            mode: Mode::Testing,
            max_age: 86_400,
            faults: FaultProfile {
                // Every Porkbun parked domain presents the registrar's
                // parking certificate: a CN mismatch on the policy host.
                policy: Some(PolicyFaultKind::TlsCnMismatch),
                ..FaultProfile::default()
            },
            tlsrpt: None,
            org_spike: false,
            dmarc_never_hosted: false,
            dmarc_empty: false,
            tutanota_stale: false,
            june8_victim: false,
            lucidgrow: false,
            dns_self_hosted: false,
        });
    }

    // ------------------------------------------------------------------
    // 3. Policy-hosting quotas over the baseline (non-special) domains.
    // ------------------------------------------------------------------
    let baseline_count = domains
        .iter()
        .filter(|d| !d.org_spike && !d.is_porkbun())
        .count();
    let mut slots: Vec<PolicyHosting> = Vec::with_capacity(baseline_count);
    // A second residual allocator over the policy-hosting quotas: however
    // the categories round individually, their sum tracks the scaled
    // total instead of drifting by ±1 per category.
    let mut policy_alloc = config.allocator();
    for provider in policy_providers() {
        let n = policy_alloc.take_at_least_one(provider.paper_customers);
        for _ in 0..n {
            slots.push(PolicyHosting::Provider { key: provider.key });
        }
    }
    // Misc classifiable third-party hosts (≥50 customers each).
    let misc_total = policy_alloc.take(calib::MISC_THIRD_PARTY_POLICY);
    let misc_providers = calib::MISC_THIRD_PARTY_PROVIDERS.max(1);
    for i in 0..misc_total {
        // Spread round-robin; deploy names them polhost<i>.net.
        slots.push(PolicyHosting::MiscProvider {
            idx: (i % misc_providers) as u32,
        });
    }
    // Unclassifiable small hosts (6-49 customers).
    let small_total = policy_alloc.take(calib::POLICY_UNCLASSIFIED);
    let small_provider_count = (small_total / calib::SMALL_PROVIDER_MEAN_CUSTOMERS).max(1) as u32;
    for i in 0..small_total {
        slots.push(PolicyHosting::SmallProvider {
            idx: (i % u64::from(small_provider_count)) as u32,
        });
    }
    // mxascen.
    for _ in 0..policy_alloc.take(calib::MXASCEN_DOMAINS) {
        slots.push(PolicyHosting::Mxascen);
    }
    // Everyone else self-manages.
    while slots.len() < baseline_count {
        slots.push(PolicyHosting::SelfManaged);
    }
    slots.truncate(baseline_count);
    slots.shuffle(&mut root.stream_for("policy-slots"));

    let mut slot_iter = slots.into_iter();
    for spec in domains
        .iter_mut()
        .filter(|d| !d.org_spike && !d.is_porkbun())
    {
        spec.policy = slot_iter.next().expect("slots sized to baseline");
    }

    // ------------------------------------------------------------------
    // 4. Mail hosting, correlated with policy hosting.
    // ------------------------------------------------------------------
    let free_weights: Vec<(&'static str, f64)> = mail_providers()
        .iter()
        .filter(|p| p.weight > 0.0)
        .map(|p| (p.key, p.weight))
        .collect();
    let small_mail_providers = (config.scaled(calib::MX_UNCLASSIFIED)
        / calib::SMALL_PROVIDER_MEAN_CUSTOMERS)
        .max(1) as u32;
    // lucidgrow customers: carved from the DMARCReport quota.
    let mut lucid_left = config.scaled_at_least_one(calib::LUCIDGROW_DOMAINS);
    // Tutanota stale leftovers.
    let mut tutanota_stale_left = config.scaled_at_least_one(calib::TUTANOTA_STALE);
    let mut dmarc_never_left = config.scaled_at_least_one(calib::DMARCREPORT_NEVER_HOSTED);
    let mut dmarc_empty_left = config.scaled_at_least_one(calib::DMARCREPORT_EMPTY_POLICY);
    let mut june8_left = config.scaled_at_least_one(calib::JUNE8_SELFSIGNED_DOMAINS);

    for (i, spec) in domains.iter_mut().enumerate() {
        if spec.org_spike || spec.is_porkbun() {
            continue;
        }
        let rng = root.fork(&format!("mail/{}", spec.name));
        spec.mail = match &spec.policy {
            PolicyHosting::Provider { key } if *key == "tutanota" => {
                if tutanota_stale_left > 0 {
                    tutanota_stale_left -= 1;
                    spec.tutanota_stale = true;
                }
                MailHosting::Provider { key: "tutanota" }
            }
            PolicyHosting::Provider { key } if *key == "dmarcreport" => {
                if lucid_left > 0 {
                    lucid_left -= 1;
                    spec.lucidgrow = true;
                    MailHosting::Provider { key: "lucidgrow" }
                } else {
                    if dmarc_never_left > 0 {
                        dmarc_never_left -= 1;
                        spec.dmarc_never_hosted = true;
                    } else if dmarc_empty_left > 0 {
                        dmarc_empty_left -= 1;
                        spec.dmarc_empty = true;
                    }
                    draw_free_mail(&rng, &free_weights, small_mail_providers)
                }
            }
            PolicyHosting::Provider { key } if *key == "powerdmarc" => {
                if june8_left > 0 {
                    june8_left -= 1;
                    spec.june8_victim = true;
                }
                draw_free_mail(&rng, &free_weights, small_mail_providers)
            }
            PolicyHosting::Mxascen => MailHosting::Mxascen,
            _ => draw_free_mail(&rng, &free_weights, small_mail_providers),
        };
        let _ = i;
    }

    // ------------------------------------------------------------------
    // 5. Fault profiles, modes, max_age, TLSRPT, Tranco.
    // ------------------------------------------------------------------
    for spec in domains.iter_mut() {
        if spec.org_spike {
            continue; // the campaign cohort is deliberately healthy
        }
        let rng = root.fork(&format!("faults/{}", spec.name));
        assign_faults(spec, &rng, config);
        assign_mode_and_ages(spec, &rng);
        assign_tlsrpt(spec, &rng, config);
        // DNS hosting: self-managed mail correlates strongly with running
        // your own authoritative DNS; provider customers mostly use a
        // DNS provider or their registrar's servers.
        let p_self_dns = match &spec.mail {
            MailHosting::SelfManaged { .. } | MailHosting::Mxascen => 0.75,
            _ => 0.18,
        };
        spec.dns_self_hosted = rng.chance("dns-self", p_self_dns);
    }
    assign_tranco(&mut domains, &root, config);

    // Exactly one same-provider (Tutanota-both) inconsistency: the
    // laura-norman.com analogue (§4.5.2).
    if let Some(spec) = domains
        .iter_mut()
        .find(|d| d.policy == (PolicyHosting::Provider { key: "tutanota" }) && !d.tutanota_stale)
    {
        spec.faults.inconsistency = Some(InconsistencySpec {
            kind: InconsistencyKind::Typo,
            stale_migration: None,
            stray_label: false,
        });
    }

    // Every pass above runs in insertion order; the population is kept
    // in name order (a stable sort, so equal names keep that order).
    domains.sort_by(|a, b| a.name.cmp(&b.name));
    Population::from_parts(domains, small_provider_count, small_mail_providers)
}

/// Draws mail hosting for domains with no structural constraint.
fn draw_free_mail(
    rng: &DetRng,
    free_weights: &[(&'static str, f64)],
    small_mail_providers: u32,
) -> MailHosting {
    // Global split (§4.3.4): third 59.8%, self 34.6%, unclassified 5.6%.
    let class = rng.weighted_index("class", &[59.8, 34.6, 5.6]);
    match class {
        0 => {
            let weights: Vec<f64> = free_weights.iter().map(|(_, w)| *w).collect();
            let pick = rng.weighted_index("provider", &weights);
            MailHosting::Provider {
                key: free_weights[pick].0,
            }
        }
        1 => MailHosting::SelfManaged {
            mx_count: 1 + rng.index("mx-count", 3) as u8,
        },
        _ => MailHosting::SmallProvider {
            idx: rng.index("small", small_mail_providers as usize) as u32,
        },
    }
}

/// Injects record / policy / MX / inconsistency faults per the calibrated
/// rates.
fn assign_faults(spec: &mut DomainSpec, rng: &DetRng, _config: &EcosystemConfig) {
    // Record faults are uniform across hosting classes (§4.3.2: "the vast
    // majority publish a correct record, irrespective of who manages the
    // zone").
    if rng.chance("record", calib::RECORD_FAULT_RATE) {
        let weights: Vec<f64> = calib::RECORD_FAULT_MIX.iter().map(|(_, w)| *w).collect();
        let pick = rng.weighted_index("record-kind", &weights);
        spec.faults.record = Some(calib::RECORD_FAULT_MIX[pick].0);
    }

    // Policy-server faults, conditioned on the hosting arrangement.
    if spec.is_porkbun() {
        // Already set at construction (parking certificate).
    } else if spec.dmarc_never_hosted {
        spec.faults.policy = Some(PolicyFaultKind::TlsNoCert);
    } else if spec.dmarc_empty {
        spec.faults.policy = Some(PolicyFaultKind::SyntaxEmpty);
    } else if spec.tutanota_stale {
        // 8 of 10 are expired certificates; the rest 404.
        spec.faults.policy = Some(if rng.chance("tuta-expired", 0.8) {
            PolicyFaultKind::TlsExpired
        } else {
            PolicyFaultKind::Http404
        });
    } else {
        spec.faults.policy = match &spec.policy {
            PolicyHosting::SelfManaged | PolicyHosting::Mxascen => draw_policy_fault(
                rng,
                &[
                    (PolicyFaultKind::Dns, calib::SELF_POLICY_DNS_RATE),
                    (
                        PolicyFaultKind::TcpRefused,
                        calib::SELF_POLICY_TCP_RATE * 0.7,
                    ),
                    (
                        PolicyFaultKind::TcpTimeout,
                        calib::SELF_POLICY_TCP_RATE * 0.3,
                    ),
                    (
                        PolicyFaultKind::TlsCnMismatch,
                        calib::SELF_POLICY_TLS_CN_RATE,
                    ),
                    (
                        PolicyFaultKind::TlsSelfSigned,
                        calib::SELF_POLICY_TLS_OTHER_RATE * 0.6,
                    ),
                    (
                        PolicyFaultKind::TlsExpired,
                        calib::SELF_POLICY_TLS_OTHER_RATE * 0.4,
                    ),
                    (
                        PolicyFaultKind::Http404,
                        calib::SELF_POLICY_HTTP_RATE * 0.65,
                    ),
                    (
                        PolicyFaultKind::Http500,
                        calib::SELF_POLICY_HTTP_RATE * 0.35,
                    ),
                    (PolicyFaultKind::SyntaxBadMx, calib::SELF_POLICY_SYNTAX_RATE),
                ],
            ),
            PolicyHosting::Provider { .. } | PolicyHosting::MiscProvider { .. } => {
                draw_policy_fault(
                    rng,
                    &[
                        (PolicyFaultKind::TcpRefused, calib::THIRD_POLICY_TCP_RATE),
                        (
                            PolicyFaultKind::TlsExpired,
                            calib::THIRD_POLICY_TLS_RATE * 0.6,
                        ),
                        (
                            PolicyFaultKind::TlsCnMismatch,
                            calib::THIRD_POLICY_TLS_RATE * 0.4,
                        ),
                        (PolicyFaultKind::Http404, calib::THIRD_POLICY_HTTP_RATE),
                        (
                            PolicyFaultKind::SyntaxBadMx,
                            calib::THIRD_POLICY_SYNTAX_RATE,
                        ),
                    ],
                )
            }
            PolicyHosting::SmallProvider { .. } => {
                if rng.chance("uncls-fault", calib::UNCLASSIFIED_POLICY_FAULT_RATE) {
                    // Small hosts fail like self-managed ones: mostly TLS.
                    Some(
                        match rng.weighted_index("uncls-kind", &[0.70, 0.12, 0.12, 0.06]) {
                            0 => PolicyFaultKind::TlsCnMismatch,
                            1 => PolicyFaultKind::TlsSelfSigned,
                            2 => PolicyFaultKind::Http404,
                            _ => PolicyFaultKind::TcpRefused,
                        },
                    )
                } else {
                    None
                }
            }
            PolicyHosting::Porkbun => unreachable!("handled above"),
        };
    }

    // MX certificate faults.
    let mx_fault_rate = match &spec.mail {
        MailHosting::SelfManaged { .. } | MailHosting::Mxascen => calib::SELF_MX_CERT_FAULT_RATE,
        MailHosting::Provider { key } if *key == "mxrouting" => {
            calib::MXROUTING_FAULTY as f64 / calib::MXROUTING_DOMAINS as f64
        }
        MailHosting::Provider { key } if *key == "parkmail" => 0.0,
        MailHosting::Provider { .. } => calib::THIRD_MX_CERT_FAULT_RATE,
        MailHosting::SmallProvider { .. } => calib::SELF_MX_CERT_FAULT_RATE * 0.8,
    };
    if rng.chance("mx-cert", mx_fault_rate) {
        let weights: Vec<f64> = calib::MX_FAULT_MIX.iter().map(|(_, w)| *w).collect();
        let kind = calib::MX_FAULT_MIX[rng.weighted_index("mx-kind", &weights)].0;
        let scope = if rng.chance("mx-scope", calib::MX_FAULT_ALL_SCOPE_RATE) {
            MxFaultScope::All
        } else {
            MxFaultScope::Partial
        };
        spec.faults.mx_cert = Some((kind, scope));
        // The 270-domain fixed-at-latest cohort (self-hosted CN mismatches).
        if kind == MxCertFaultKind::CnMismatch
            && matches!(spec.mail, MailHosting::SelfManaged { .. })
        {
            // 270 of the (1,316 × 55% CN-mismatch) self-managed cohort
            // fix their mismatch by the final scan.
            let fixed_share = calib::SELF_MX_CN_FIXED as f64
                / (calib::SELF_MX_CERT_FAULT_RATE * 23_512.0 * 0.55).max(1.0);
            if rng.chance("mx-fixed", fixed_share.min(0.9)) {
                spec.faults.mx_cn_fixed_at_latest = true;
            }
        }
    }

    // Inconsistencies, conditioned on the provider split (Figure 10).
    let both_outsourced = matches!(
        spec.policy,
        PolicyHosting::Provider { .. }
            | PolicyHosting::MiscProvider { .. }
            | PolicyHosting::SmallProvider { .. }
    ) && matches!(
        spec.mail,
        MailHosting::Provider { .. } | MailHosting::SmallProvider { .. }
    );
    let same_provider = matches!((&spec.policy, &spec.mail),
        (PolicyHosting::Provider { key: pk }, MailHosting::Provider { key: mk }) if pk == mk);
    let rate = if same_provider {
        0.0 // the single exception is pinned in generate()
    } else if both_outsourced {
        calib::INCONSISTENCY_DIFF_PROVIDER_RATE
    } else {
        calib::INCONSISTENCY_OTHER_RATE
    };
    if rng.chance("inconsistency", rate) && !spec.lucidgrow {
        let weights: Vec<f64> = calib::INCONSISTENCY_MIX.iter().map(|(_, w)| *w).collect();
        let kind = calib::INCONSISTENCY_MIX[rng.weighted_index("inc-kind", &weights)].0;
        let stale_migration = (kind == InconsistencyKind::CompleteDomain
            && rng.chance("inc-stale", calib::COMPLETE_MISMATCH_STALE_SHARE))
        .then(|| {
            // Migration somewhere between adoption+60d and a month before
            // the end, so Figure 9's share climbs over the scan window.
            let lo = spec.adopted.add_days(60);
            let lo = lo.max(SimDate::ymd(2023, 1, 1));
            let hi = SimDate::ymd(2024, 8, 25);
            if lo >= hi {
                lo
            } else {
                let span = hi.days_since(lo);
                lo.add_days(rng.stream_for("inc-migration").gen_range(0..=span))
            }
        });
        let stray_label = kind == InconsistencyKind::ThirdLabel
            && rng.chance("inc-stray", calib::THIRD_LABEL_STRAY_SHARE);
        spec.faults.inconsistency = Some(InconsistencySpec {
            kind,
            stale_migration,
            stray_label,
        });
    }
}

/// One-of-many fault draw: each (kind, rate) is an independent Bernoulli;
/// the first hit wins (rates are small, overlaps negligible).
fn draw_policy_fault(rng: &DetRng, table: &[(PolicyFaultKind, f64)]) -> Option<PolicyFaultKind> {
    for (kind, rate) in table {
        if rng.chance(&format!("policy-{kind:?}"), *rate) {
            return Some(*kind);
        }
    }
    None
}

/// Mode and max_age, correlated with fault presence (§ Figure 7/8 enforce
/// overlays).
fn assign_mode_and_ages(spec: &mut DomainSpec, rng: &DetRng) {
    let faulty = spec.faults.mx_cert.is_some() || spec.faults.inconsistency.is_some();
    let (e, t, n) = if faulty {
        calib::MODE_SPLIT_FAULTY
    } else {
        calib::MODE_SPLIT_CLEAN
    };
    spec.mode = match rng.weighted_index("mode", &[e, t, n]) {
        0 => Mode::Enforce,
        1 => Mode::Testing,
        _ => Mode::None,
    };
    let weights: Vec<f64> = calib::MAX_AGE_MENU.iter().map(|(_, w)| *w).collect();
    spec.max_age = calib::MAX_AGE_MENU[rng.weighted_index("max-age", &weights)].0;
}

/// TLSRPT adoption (Figure 12's bottom panel).
fn assign_tlsrpt(spec: &mut DomainSpec, rng: &DetRng, config: &EcosystemConfig) {
    let u: f64 = rng.stream_for("tlsrpt").gen();
    if u < calib::TLSRPT_AT_ADOPTION {
        spec.tlsrpt = Some(spec.adopted);
    } else if u < calib::TLSRPT_EVENTUAL {
        let span = config.end.days_since(spec.adopted).max(1);
        let lag = rng.stream_for("tlsrpt-lag").gen_range(0..=span);
        spec.tlsrpt = Some(spec.adopted.add_days(lag));
    }
}

/// Tranco rank assignment (Figure 3): per-10k-bin adoption rates decline
/// linearly from 1.2% (top) to 0.4% (bottom).
fn assign_tranco(domains: &mut [DomainSpec], root: &DetRng, config: &EcosystemConfig) {
    let bins = (calib::TRANCO_UNIVERSE / calib::TRANCO_BIN) as usize;
    let mut order: Vec<usize> = (0..domains.len()).collect();
    order.shuffle(&mut root.stream_for("tranco-order"));
    let mut cursor = 0usize;
    for bin in 0..bins {
        let t = bin as f64 / (bins - 1) as f64;
        let rate = calib::TRANCO_TOP_BIN_RATE
            + t * (calib::TRANCO_BOTTOM_BIN_RATE - calib::TRANCO_TOP_BIN_RATE);
        let want = config.scaled((rate * calib::TRANCO_BIN as f64) as u64) as usize;
        for k in 0..want {
            let Some(&idx) = order.get(cursor) else {
                return;
            };
            cursor += 1;
            let rank_in_bin =
                (k as u64 * calib::TRANCO_BIN / want.max(1) as u64).min(calib::TRANCO_BIN - 1);
            domains[idx].tranco_rank =
                Some((bin as u64 * calib::TRANCO_BIN + rank_in_bin) as u32 + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> EcosystemConfig {
        EcosystemConfig::paper(42, 0.02)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a.domains, b.domains);
        // A different seed changes the population.
        let c = generate(&EcosystemConfig::paper(43, 0.02));
        assert_ne!(a.domains, c.domains);
    }

    #[test]
    fn population_size_tracks_scale() {
        let pop = generate(&small_config());
        let expected = 68_030.0 * 0.02;
        let got = pop.domains.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.1,
            "expected ≈{expected}, got {got}"
        );
    }

    #[test]
    fn adoption_dates_are_in_window_and_monotone_with_index() {
        let config = small_config();
        let pop = generate(&config);
        for d in &pop.domains {
            assert!(
                d.adopted >= config.start && d.adopted <= config.end,
                "{}",
                d.name
            );
        }
        // Baseline .com domains adopt in index order.
        let mut coms: Vec<&DomainSpec> = pop
            .domains
            .iter()
            .filter(|d| d.tld == TldId::Com && !d.is_porkbun() && !d.org_spike)
            .collect();
        coms.sort_by_key(|d| d.name.to_string());
        for w in coms.windows(2) {
            assert!(w[0].adopted <= w[1].adopted);
        }
    }

    #[test]
    fn hosting_split_matches_calibration() {
        let pop = generate(&EcosystemConfig::paper(7, 0.1));
        let n = pop.domains.len() as f64;
        let self_policy = pop
            .domains
            .iter()
            .filter(|d| {
                matches!(
                    d.policy,
                    PolicyHosting::SelfManaged | PolicyHosting::Porkbun | PolicyHosting::Mxascen
                )
            })
            .count() as f64;
        // Paper: 25,344 / 68,030 ≈ 37%.
        assert!((self_policy / n - 0.37).abs() < 0.05, "{}", self_policy / n);
        let third_mail = pop
            .domains
            .iter()
            .filter(|d| matches!(d.mail, MailHosting::Provider { .. }))
            .count() as f64;
        // ≈ 59.8% plus parkmail; allow a band.
        assert!(
            (0.5..0.75).contains(&(third_mail / n)),
            "{}",
            third_mail / n
        );
    }

    #[test]
    fn named_cohorts_exist() {
        let pop = generate(&small_config());
        assert!(pop.domains.iter().any(|d| d.lucidgrow));
        assert!(pop.domains.iter().any(|d| d.dmarc_never_hosted));
        assert!(pop.domains.iter().any(|d| d.is_porkbun()));
        assert!(pop.domains.iter().any(|d| d.org_spike));
        assert!(pop.domains.iter().any(|d| d.june8_victim));
        // Exactly one same-provider inconsistency.
        let same_provider_inconsistent = pop
            .domains
            .iter()
            .filter(|d| {
                d.faults.inconsistency.is_some()
                    && d.policy == (PolicyHosting::Provider { key: "tutanota" })
                    && d.mail == (MailHosting::Provider { key: "tutanota" })
            })
            .count();
        assert_eq!(same_provider_inconsistent, 1);
    }

    #[test]
    fn lucidgrow_customers_use_dmarcreport_policies() {
        let pop = generate(&small_config());
        for d in pop.domains.iter().filter(|d| d.lucidgrow) {
            assert_eq!(d.policy, PolicyHosting::Provider { key: "dmarcreport" });
            assert_eq!(d.mail, MailHosting::Provider { key: "lucidgrow" });
        }
    }

    #[test]
    fn porkbun_cohort_shape() {
        let pop = generate(&small_config());
        for d in pop.domains.iter().filter(|d| d.is_porkbun()) {
            assert!(d.adopted >= SimDate::ymd(2024, 8, 1));
            assert_eq!(d.faults.policy, Some(PolicyFaultKind::TlsCnMismatch));
            assert_eq!(d.tld, TldId::Com);
        }
    }

    #[test]
    fn misconfiguration_rate_is_plausible() {
        let pop = generate(&EcosystemConfig::paper(9, 0.1));
        let n = pop.domains.len() as f64;
        let faulty = pop.domains.iter().filter(|d| !d.faults.is_clean()).count() as f64;
        // Paper: 29.6% at the latest snapshot. The spec-level rate counts
        // every fault that will ever manifest, so allow a generous band.
        assert!(
            (0.20..0.40).contains(&(faulty / n)),
            "faulty share {}",
            faulty / n
        );
    }

    #[test]
    fn tranco_rates_decline_with_rank() {
        let pop = generate(&EcosystemConfig::paper(3, 0.25));
        let ranked: Vec<u32> = pop.domains.iter().filter_map(|d| d.tranco_rank).collect();
        assert!(!ranked.is_empty());
        let top = ranked.iter().filter(|r| **r <= 100_000).count();
        let bottom = ranked.iter().filter(|r| **r > 900_000).count();
        assert!(top > bottom, "top {top} vs bottom {bottom}");
        assert!(ranked.iter().all(|r| (1..=1_000_000).contains(r)));
    }

    #[test]
    fn modes_skew_testing_for_faulty_domains() {
        let pop = generate(&EcosystemConfig::paper(5, 0.1));
        let faulty_enforce = pop
            .domains
            .iter()
            .filter(|d| d.faults.inconsistency.is_some())
            .filter(|d| d.mode == Mode::Enforce)
            .count() as f64;
        let faulty_total = pop
            .domains
            .iter()
            .filter(|d| d.faults.inconsistency.is_some())
            .count() as f64;
        if faulty_total > 20.0 {
            let share = faulty_enforce / faulty_total;
            assert!((0.08..0.40).contains(&share), "enforce share {share}");
        }
    }

    #[test]
    fn tlsrpt_adoption_share() {
        let config = EcosystemConfig::paper(6, 0.1);
        let pop = generate(&config);
        let with = pop.domains.iter().filter(|d| d.tlsrpt.is_some()).count() as f64;
        let share = with / pop.domains.len() as f64;
        assert!(
            (calib::TLSRPT_EVENTUAL - 0.05..calib::TLSRPT_EVENTUAL + 0.05).contains(&share),
            "{share}"
        );
    }

    #[test]
    fn columnar_index_mirrors_the_specs() {
        let config = small_config();
        let pop = generate(&config);
        let idx = &pop.index;
        assert_eq!(idx.len(), pop.domains.len());
        for (i, d) in pop.domains.iter().enumerate() {
            assert_eq!(idx.adopted[i], d.adopted);
        }
        // The adoption walk agrees with the brute-force filter at every
        // weekly date, and slices are disjoint unions.
        let mut prev = None;
        let mut seen = 0usize;
        for date in config.weekly_snapshots() {
            let want = pop.domains.iter().filter(|d| d.adopted_by(date)).count();
            assert_eq!(idx.adopters_through(date).len(), want, "{date}");
            let fresh = match prev {
                Some(p) => idx.adopters_between(p, date),
                None => idx.adopters_through(date),
            };
            for &i in fresh {
                assert!(pop.domains[i as usize].adopted_by(date));
                if let Some(p) = prev {
                    assert!(!pop.domains[i as usize].adopted_by(p));
                }
            }
            seen += fresh.len();
            assert_eq!(seen, want);
            prev = Some(date);
        }
    }

    #[test]
    fn categories_sum_exactly_to_scaled_population() {
        // The rounding-drift satellite: at odd scales the per-TLD grants
        // must still sum to the scaled paper total, with no ±1-per-category
        // drift.
        let paper_total: u64 = ALL_TLDS
            .iter()
            .map(|t| crate::tld::final_adoption(*t))
            .sum();
        for scale in [0.05, 0.33, 1.0] {
            let config = EcosystemConfig::paper(11, scale);
            let pop = generate(&config);
            let baseline = pop
                .domains
                .iter()
                .filter(|d| !d.org_spike && !d.is_porkbun())
                .count() as u64;
            assert_eq!(baseline, config.scaled(paper_total), "scale {scale}");
        }
    }
}
