//! The provider universe: mail hosting and policy hosting services.
//!
//! Policy-hosting providers are Table 2's eight (plus a long tail);
//! mail providers are the majors the paper names (Google, Outlook, Yahoo,
//! Mail.com, Tutanota) plus the incident-bearing ones (mxrouting.net's
//! certificate problems, lucidgrow.com's unique-MX-per-customer design,
//! and the mxascen.com single-administrator pseudo-provider).

use netbase::DomainName;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// How a policy provider treats customers that opted out but left their
/// CNAME in place (Table 2's right-hand columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptOutBehavior {
    /// The provider's policy host name starts returning NXDOMAIN.
    pub returns_nxdomain: bool,
    /// The provider keeps re-issuing (valid) certificates for the name.
    pub reissues_cert: bool,
    /// What happens to the policy document.
    pub policy_update: PolicyUpdateOnOptOut,
}

/// Table 2's "Policy File Update" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyUpdateOnOptOut {
    /// Document left exactly as it was (stale).
    Unchanged,
    /// Replaced with an empty file (parse failure ⇒ behaves like `none`).
    EmptiedFile,
    /// Mode rewritten to `none`.
    ModeToNone,
}

/// A policy-hosting provider.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyProvider {
    /// Short identifier (stable across runs).
    pub key: &'static str,
    /// The provider's base domain, e.g. `dmarcinput.com`.
    pub base: &'static str,
    /// Paper customer count at the latest snapshot (Table 2).
    pub paper_customers: u64,
    /// Whether the provider also offers email hosting (Table 2: Tutanota
    /// only).
    pub email_hosting: bool,
    /// Opt-out behaviour.
    pub opt_out: OptOutBehavior,
    /// CNAME target style (how the per-customer name is derived).
    pub cname_style: CnameStyle,
}

/// The CNAME-target naming styles observed in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CnameStyle {
    /// One shared target for every customer: `_mta-sts.tutanota.de`.
    Shared(&'static str),
    /// `a-com.<suffix>`: dashes join the customer labels.
    DashJoined(&'static str),
    /// `a.com.<suffix>`: customer domain kept dotted.
    Dotted(&'static str),
    /// `a_com__mta_sts.<suffix>`: underscores (EasyDMARC).
    UnderscoreJoined(&'static str),
    /// `_mta-sts.a.com.<suffix>` (OnDMARC).
    PrefixedDotted(&'static str),
}

impl PolicyProvider {
    /// The CNAME target for a customer domain.
    pub fn cname_target(&self, customer: &DomainName) -> DomainName {
        let name = match self.cname_style {
            CnameStyle::Shared(target) => target.to_string(),
            CnameStyle::DashJoined(suffix) => format!("{}.{suffix}", Joined(customer, '-')),
            CnameStyle::Dotted(suffix) => format!("{customer}.{suffix}"),
            CnameStyle::UnderscoreJoined(suffix) => {
                format!("{}__mta_sts.{suffix}", Joined(customer, '_'))
            }
            CnameStyle::PrefixedDotted(suffix) => format!("_mta-sts.{customer}.{suffix}"),
        };
        name.parse().expect("provider patterns produce valid names")
    }

    /// The provider's base domain as a name.
    pub fn base_domain(&self) -> DomainName {
        self.base.parse().expect("static name")
    }
}

/// A domain's labels joined by a separator other than the dot, as
/// provider host names embed their customer: `a.com` → `a-com`.
pub(crate) struct Joined<'a>(pub(crate) &'a DomainName, pub(crate) char);

impl fmt::Display for Joined<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, label) in self.0.labels().enumerate() {
            if i > 0 {
                f.write_char(self.1)?;
            }
            f.write_str(label)?;
        }
        Ok(())
    }
}

/// Table 2, verbatim.
pub fn policy_providers() -> Vec<PolicyProvider> {
    vec![
        PolicyProvider {
            key: "tutanota",
            base: "tutanota.de",
            paper_customers: 7_614,
            email_hosting: true,
            opt_out: OptOutBehavior {
                returns_nxdomain: false,
                reissues_cert: false,
                policy_update: PolicyUpdateOnOptOut::Unchanged,
            },
            cname_style: CnameStyle::Shared("_mta-sts.tutanota.de"),
        },
        PolicyProvider {
            key: "dmarcreport",
            base: "dmarcinput.com",
            paper_customers: 7_293,
            email_hosting: false,
            opt_out: OptOutBehavior {
                returns_nxdomain: false,
                reissues_cert: true,
                policy_update: PolicyUpdateOnOptOut::EmptiedFile,
            },
            cname_style: CnameStyle::DashJoined("mta-sts.dmarcinput.com"),
        },
        PolicyProvider {
            key: "powerdmarc",
            base: "mta-sts.tech",
            paper_customers: 3_753,
            email_hosting: false,
            opt_out: OptOutBehavior {
                returns_nxdomain: true,
                reissues_cert: false,
                policy_update: PolicyUpdateOnOptOut::ModeToNone,
            },
            cname_style: CnameStyle::DashJoined("_mta.mta-sts.tech"),
        },
        PolicyProvider {
            key: "easydmarc",
            base: "easydmarc.pro",
            paper_customers: 2_222,
            email_hosting: false,
            opt_out: OptOutBehavior {
                returns_nxdomain: false,
                reissues_cert: true,
                policy_update: PolicyUpdateOnOptOut::Unchanged,
            },
            cname_style: CnameStyle::UnderscoreJoined("easydmarc.pro"),
        },
        PolicyProvider {
            key: "mailhardener",
            base: "mailhardener.com",
            paper_customers: 1_558,
            email_hosting: false,
            opt_out: OptOutBehavior {
                returns_nxdomain: true,
                reissues_cert: false,
                policy_update: PolicyUpdateOnOptOut::ModeToNone,
            },
            cname_style: CnameStyle::Dotted("_mta-sts.mailhardener.com"),
        },
        PolicyProvider {
            key: "uriports",
            base: "uriports.com",
            paper_customers: 1_100,
            email_hosting: false,
            opt_out: OptOutBehavior {
                returns_nxdomain: true,
                reissues_cert: false,
                policy_update: PolicyUpdateOnOptOut::Unchanged,
            },
            cname_style: CnameStyle::DashJoined("_mta-sts.uriports.com"),
        },
        PolicyProvider {
            key: "sendmarc",
            base: "sdmarc.net",
            paper_customers: 805,
            email_hosting: false,
            opt_out: OptOutBehavior {
                returns_nxdomain: false,
                reissues_cert: true,
                policy_update: PolicyUpdateOnOptOut::Unchanged,
            },
            cname_style: CnameStyle::Dotted("_mta-sts.sdmarc.net"),
        },
        PolicyProvider {
            key: "ondmarc",
            base: "ondmarc.com",
            paper_customers: 451,
            email_hosting: false,
            opt_out: OptOutBehavior {
                returns_nxdomain: false,
                reissues_cert: true,
                policy_update: PolicyUpdateOnOptOut::Unchanged,
            },
            cname_style: CnameStyle::PrefixedDotted("_mta-sts.smart.ondmarc.com"),
        },
    ]
}

/// How a mail provider names the MX host(s) serving a customer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MxStyle {
    /// One shared MX hostname for all customers (Google-style).
    Shared(&'static str),
    /// A unique hostname per customer, all resolving to shared
    /// infrastructure (Outlook-style `a-com.mail.protection.outlook.com`).
    PerCustomerSharedIp(&'static str),
    /// A unique hostname per customer with the provider's own eSLD
    /// (lucidgrow-style).
    PerCustomer(&'static str),
}

/// A mail (MX) hosting provider.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MailProvider {
    /// Short identifier.
    pub key: &'static str,
    /// Base domain.
    pub base: &'static str,
    /// MX naming style.
    pub mx_style: MxStyle,
    /// Relative weight when assigning customers (derived from the paper's
    /// provider concentration; Google ≈ 5.8% of all domains).
    pub weight: f64,
    /// Whether this provider doubles as a policy host (Tutanota).
    pub hosts_policies_too: bool,
}

/// The mail-provider universe.
pub fn mail_providers() -> Vec<MailProvider> {
    vec![
        MailProvider {
            key: "google",
            base: "google.com",
            mx_style: MxStyle::Shared("aspmx.l.google.com"),
            weight: 40.0,
            hosts_policies_too: false,
        },
        MailProvider {
            key: "outlook",
            base: "outlook.com",
            mx_style: MxStyle::PerCustomerSharedIp("mail.protection.outlook.com"),
            weight: 30.0,
            hosts_policies_too: false,
        },
        MailProvider {
            key: "yahoo",
            base: "yahoodns.net",
            mx_style: MxStyle::Shared("mx-biz.mail.am0.yahoodns.net"),
            weight: 6.0,
            hosts_policies_too: false,
        },
        MailProvider {
            key: "mailcom",
            base: "mail.com",
            mx_style: MxStyle::Shared("mx00.mail.com"),
            weight: 4.0,
            hosts_policies_too: false,
        },
        MailProvider {
            key: "tutanota",
            base: "tutanota.de",
            mx_style: MxStyle::Shared("mail.tutanota.de"),
            // Assigned explicitly: Tutanota mail customers are its policy
            // customers (bundled service).
            weight: 0.0,
            hosts_policies_too: true,
        },
        MailProvider {
            key: "mxrouting",
            base: "mxrouting.net",
            mx_style: MxStyle::PerCustomerSharedIp("mxrouting.net"),
            weight: 3.5,
            hosts_policies_too: false,
        },
        MailProvider {
            key: "lucidgrow",
            base: "lucidgrow.com",
            mx_style: MxStyle::PerCustomer("mx.lucidgrow.com"),
            // Assigned explicitly: lucidgrow customers delegate policies to
            // DMARCReport (the §4.4 incident population).
            weight: 0.0,
            hosts_policies_too: false,
        },
        MailProvider {
            // Registrar mail forwarding used by parked (Porkbun-style)
            // registrations; assigned explicitly.
            key: "parkmail",
            base: "parkmail.net",
            mx_style: MxStyle::Shared("fwd.parkmail.net"),
            weight: 0.0,
            hosts_policies_too: false,
        },
        MailProvider {
            key: "generic-host",
            base: "mailgrid.net",
            mx_style: MxStyle::Shared("in.mailgrid.net"),
            weight: 10.0,
            hosts_policies_too: false,
        },
    ]
}

/// The single-administrator pseudo-provider (§4.3.1's mxascen example):
/// thousands of domains, one operator, shared MX and shared policy IPs —
/// self-managed despite its apparent popularity.
pub const MXASCEN_MX: &str = "mx.l.mxascen.com";
/// Paper count of mxascen-style domains.
pub const MXASCEN_PAPER_COUNT: u64 = 4_722;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcosystemConfig;
    use crate::deploy::Ecosystem;
    use crate::spec::{DomainSpec, MailHosting};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn table2_roster() {
        let providers = policy_providers();
        assert_eq!(providers.len(), 8);
        let total: u64 = providers.iter().map(|p| p.paper_customers).sum();
        assert_eq!(total, 24_796);
        // Exactly three NXDOMAIN providers, four cert re-issuers.
        assert_eq!(
            providers
                .iter()
                .filter(|p| p.opt_out.returns_nxdomain)
                .count(),
            3
        );
        assert_eq!(
            providers.iter().filter(|p| p.opt_out.reissues_cert).count(),
            4
        );
        // Only Tutanota offers email hosting.
        assert_eq!(
            providers
                .iter()
                .filter(|p| p.email_hosting)
                .map(|p| p.key)
                .collect::<Vec<_>>(),
            vec!["tutanota"]
        );
    }

    #[test]
    fn cname_styles_match_table2() {
        let providers = policy_providers();
        let customer = n("a.com");
        let targets: Vec<String> = providers
            .iter()
            .map(|p| p.cname_target(&customer).to_string())
            .collect();
        assert_eq!(
            targets,
            vec![
                "_mta-sts.tutanota.de",
                "a-com.mta-sts.dmarcinput.com",
                "a-com._mta.mta-sts.tech",
                "a_com__mta_sts.easydmarc.pro",
                "a.com._mta-sts.mailhardener.com",
                "a-com._mta-sts.uriports.com",
                "a.com._mta-sts.sdmarc.net",
                "_mta-sts.a.com._mta-sts.smart.ondmarc.com",
            ]
        );
    }

    /// A customer of mail provider `key` whose MX no stale migration
    /// moves, so its MX host is the provider's.
    fn customer_of(eco: &Ecosystem, key: &'static str, name: &str) -> DomainSpec {
        let mut spec = eco.population.domains[0].clone();
        spec.name = n(name);
        spec.mail = MailHosting::Provider { key };
        spec.faults.inconsistency = None;
        spec
    }

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig::paper(42, 0.01))
    }

    #[test]
    fn mail_provider_mx_naming() {
        let eco = eco();
        for p in mail_providers() {
            let spec = customer_of(&eco, p.key, "shop.example-co.com");
            let hosts = eco.effective_mx_hosts(&spec, spec.adopted);
            let want = match p.mx_style {
                MxStyle::Shared(h) => n(h),
                MxStyle::PerCustomerSharedIp(suffix) | MxStyle::PerCustomer(suffix) => {
                    n(&format!("shop-example-co-com.{suffix}"))
                }
            };
            assert_eq!(hosts, vec![want], "{}", p.key);
        }
    }

    #[test]
    fn lucidgrow_unique_mx_per_customer() {
        let eco = eco();
        let mx = |name| {
            let spec = customer_of(&eco, "lucidgrow", name);
            eco.effective_mx_hosts(&spec, spec.adopted)
        };
        let (a, b) = (mx("alpha.com"), mx("beta.com"));
        assert_ne!(a, b);
        assert!(a[0].is_subdomain_of(&n("mx.lucidgrow.com")));
    }
}
