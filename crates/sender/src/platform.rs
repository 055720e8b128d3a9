//! The deliverability-test platform (email-security-scans.org analogue).
//!
//! The platform operates receiver domains with deliberately varied
//! MTA-STS/DANE configurations inside a [`simnet::World`]. Each sender
//! "sends an email" to every test domain; the platform infers the
//! sender's validation behaviour from which messages arrive and whether
//! TLS was used — exactly how the paper's dataset was produced (§6.1).

use crate::enforce::TlsRequirement;
use crate::profile::{SenderProfile, TlsSupport};
use danelite::tlsa_for_cert;
use dns::RecordData;
use mtasts::{DeliveryObservation, SenderAction, SenderEngine};
use netbase::{DomainName, SimDate, SimInstant};
use serde::Serialize;
use simnet::{CertKind, MxEndpoint, WebEndpoint, World};

/// The receiver configurations the platform operates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TestCase {
    /// Correct MTA-STS (enforce) with valid PKIX everywhere.
    MtaStsValid,
    /// MTA-STS (enforce) whose MX presents a self-signed certificate:
    /// validators must refuse, opportunistic senders deliver.
    MtaStsBrokenCert,
    /// DANE only: signed zone, TLSA matching a self-signed certificate.
    /// DANE validators deliver; PKIX-always senders refuse.
    DaneOnly,
    /// Both protocols, arranged to disagree: PKIX-valid certificate (so
    /// MTA-STS passes) but TLSA records that do NOT match (so DANE
    /// fails). RFC-compliant both-validators refuse; the milter bug
    /// delivers (§6.2 footnote 10).
    Conflict,
    /// No TLS at all on the MX.
    Plaintext,
}

impl TestCase {
    /// All cases.
    pub const ALL: [TestCase; 5] = [
        TestCase::MtaStsValid,
        TestCase::MtaStsBrokenCert,
        TestCase::DaneOnly,
        TestCase::Conflict,
        TestCase::Plaintext,
    ];

    /// The receiver domain operated for this case.
    pub fn domain(self) -> DomainName {
        let label = match self {
            TestCase::MtaStsValid => "recv-sts-valid",
            TestCase::MtaStsBrokenCert => "recv-sts-badcert",
            TestCase::DaneOnly => "recv-dane",
            TestCase::Conflict => "recv-conflict",
            TestCase::Plaintext => "recv-plain",
        };
        format!("{label}.test").parse().expect("static names")
    }
}

/// One recorded delivery attempt.
#[derive(Debug, Clone, Serialize)]
pub struct TestRecord {
    /// The sending domain.
    pub sender: DomainName,
    /// The sender's operator (EHLO attribution).
    pub operator: &'static str,
    /// The receiver case.
    pub case: TestCase,
    /// Whether the message was delivered.
    pub delivered: bool,
    /// Whether the session used TLS.
    pub tls_used: bool,
    /// Whether a certificate was PKIX/DANE validated before delivery.
    pub validated: bool,
}

/// The platform: a world with the receiver domains installed.
pub struct Platform {
    /// The simulated Internet.
    pub world: World,
    /// Test date.
    pub date: SimDate,
}

impl Platform {
    /// Stands the platform up at `date`.
    pub fn new(date: SimDate) -> Platform {
        let mut world = World::new();
        let now = date.at_midnight();
        for case in TestCase::ALL {
            install_case(&mut world, case, now);
        }
        Platform { world, date }
    }

    /// Runs one sender against one case, recording the outcome.
    pub fn run_test(&self, profile: &SenderProfile, case: TestCase) -> TestRecord {
        let now = self.date.at_midnight();
        let domain = case.domain();
        let world = &self.world;

        // Resolve the receiver's MX and probe it like a real sender.
        let mx_hosts = world.mx_records(&domain, now).unwrap_or_default();
        let mx = mx_hosts.first().cloned().unwrap_or_else(|| domain.clone());
        let probe = world.probe_mx(&mx, None, now);
        let roots = world.pki.trust_store();
        let starttls = probe.starttls_offered;
        let pkix = || TlsRequirement::RequirePkix.check(&probe, &mx, now, roots);

        // DANE evidence: usable TLSA records govern when the zone is signed.
        let dane_ok = world.tlsa_records(&mx, now).map(|tlsa| {
            TlsRequirement::RequireDane(tlsa)
                .check(&probe, &mx, now, roots)
                .is_ok()
        });

        // MTA-STS evidence through the real sender engine.
        let record_txts = world.mta_sts_txts(&domain, now).ok();
        let sts_applies = record_txts
            .as_ref()
            .is_some_and(|t| t.iter().any(|s| s.starts_with("v=STSv1")));
        let sts_action = profile.validates_mtasts.then(|| {
            let mut engine = SenderEngine::new();
            let (_, action) = engine.evaluate(DeliveryObservation {
                domain: &domain,
                record_txts: record_txts.as_deref(),
                fetch_policy: || {
                    world
                        .fetch_policy(&domain, now)
                        .result
                        .map(|(_, raw)| raw)
                        .map_err(|e| e.to_string())
                },
                mx_host: &mx,
                check_mx_tls: || pkix().map(drop),
                now,
            });
            action
        });

        // Combine per the profile (RFC 8461: DANE should take precedence
        // when both apply; the milter bug inverts that).
        let mut delivered = true;
        let mut tls_used = starttls && profile.tls != TlsSupport::None;
        let mut validated = false;

        match profile.tls {
            TlsSupport::None => {
                // Plaintext always; MTA-STS/DANE validation requires TLS,
                // so nothing validates.
                delivered = true;
                tls_used = false;
            }
            TlsSupport::PkixAlways => {
                let pkix_ok = pkix().is_ok();
                delivered = pkix_ok;
                validated = pkix_ok;
                tls_used = pkix_ok;
            }
            TlsSupport::Opportunistic => {
                let dane_active = profile.validates_dane && dane_ok.is_some();
                let sts_active = profile.validates_mtasts && sts_applies;
                if dane_active && sts_active {
                    if profile.prefers_mtasts_over_dane {
                        // The bug: MTA-STS verdict wins.
                        delivered = sts_action != Some(SenderAction::Refuse);
                        validated = sts_action == Some(SenderAction::Deliver);
                    } else {
                        // RFC-compliant: DANE takes precedence.
                        let ok = dane_ok == Some(true);
                        delivered = ok;
                        validated = ok;
                    }
                } else if dane_active {
                    let ok = dane_ok == Some(true);
                    delivered = ok;
                    validated = ok;
                } else if sts_active {
                    delivered = sts_action != Some(SenderAction::Refuse);
                    validated = sts_action == Some(SenderAction::Deliver);
                }
                // Pure opportunistic: deliver regardless, TLS when offered.
            }
        }

        TestRecord {
            sender: profile.domain.clone(),
            operator: profile.operator,
            case,
            delivered,
            tls_used,
            validated,
        }
    }

    /// Runs every sender in `profiles` against every test case.
    pub fn run_all(&self, profiles: &[SenderProfile]) -> Vec<TestRecord> {
        let mut out = Vec::with_capacity(profiles.len() * TestCase::ALL.len());
        for profile in profiles {
            for case in TestCase::ALL {
                out.push(self.run_test(profile, case));
            }
        }
        out
    }
}

/// Installs one receiver configuration into the world.
fn install_case(world: &mut World, case: TestCase, now: SimInstant) {
    let domain = case.domain();
    let mx_host = domain.prefixed("mx").expect("static label");
    world.ensure_zone(&domain);

    // MX record.
    world.with_zone(&domain, |z| {
        z.add_rr(
            &domain,
            300,
            RecordData::Mx {
                preference: 10,
                exchange: mx_host.clone(),
            },
        );
    });

    // The MX endpoint + certificate per case.
    let chain = match case {
        TestCase::MtaStsValid | TestCase::Conflict => {
            world
                .pki
                .issue(&CertKind::Valid, std::slice::from_ref(&mx_host), now)
        }
        TestCase::MtaStsBrokenCert | TestCase::DaneOnly => {
            world
                .pki
                .issue(&CertKind::SelfSigned, std::slice::from_ref(&mx_host), now)
        }
        TestCase::Plaintext => Vec::new(),
    };
    let endpoint = if case == TestCase::Plaintext {
        MxEndpoint::plaintext(mx_host.clone())
    } else {
        MxEndpoint::healthy(mx_host.clone(), chain.clone())
    };
    let mx_ip = world.add_mx_endpoint(endpoint);
    world.with_zone(&domain, |z| {
        z.add_rr(&mx_host, 300, RecordData::A(mx_ip));
    });

    // MTA-STS side.
    if matches!(
        case,
        TestCase::MtaStsValid | TestCase::MtaStsBrokenCert | TestCase::Conflict
    ) {
        world.with_zone(&domain, |z| {
            z.add_rr(
                &domain.prefixed("_mta-sts").expect("static"),
                300,
                RecordData::Txt(vec!["v=STSv1; id=test1;".into()]),
            );
        });
        let policy_host = domain.prefixed("mta-sts").expect("static");
        let mut web = WebEndpoint::up();
        web.identity.install(
            policy_host.clone(),
            world
                .pki
                .issue(&CertKind::Valid, std::slice::from_ref(&policy_host), now),
        );
        web.install_policy(
            policy_host.clone(),
            &format!("version: STSv1\r\nmode: enforce\r\nmx: {mx_host}\r\nmax_age: 86400\r\n"),
        );
        let web_ip = world.add_web_endpoint(web);
        world.with_zone(&domain, |z| {
            z.add_rr(&policy_host, 300, RecordData::A(web_ip));
        });
    }

    // DANE side.
    match case {
        TestCase::DaneOnly => {
            world.set_dnssec(&domain, true);
            let tlsa = tlsa_for_cert(&chain[0]);
            world.with_zone(&domain, |z| {
                z.add_rr(&danelite::tlsa_name(&mx_host), 300, RecordData::Tlsa(tlsa));
            });
        }
        TestCase::Conflict => {
            // TLSA that matches *nothing* the server presents.
            world.set_dnssec(&domain, true);
            let decoy = world
                .pki
                .issue(&CertKind::SelfSigned, std::slice::from_ref(&mx_host), now);
            let tlsa = tlsa_for_cert(&decoy[0]);
            world.with_zone(&domain, |z| {
                z.add_rr(&danelite::tlsa_name(&mx_host), 300, RecordData::Tlsa(tlsa));
            });
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{SenderPopulation, SenderProfile};

    fn platform() -> Platform {
        Platform::new(SimDate::ymd(2024, 6, 1))
    }

    fn profile(tls: TlsSupport, mtasts: bool, dane: bool, prefer: bool) -> SenderProfile {
        SenderProfile {
            domain: "sender.example".parse().unwrap(),
            tls,
            validates_mtasts: mtasts,
            validates_dane: dane,
            prefers_mtasts_over_dane: prefer,
            operator: "long-tail",
        }
    }

    #[test]
    fn opportunistic_sender_delivers_everywhere() {
        let p = platform();
        let sender = profile(TlsSupport::Opportunistic, false, false, false);
        for case in TestCase::ALL {
            let rec = p.run_test(&sender, case);
            assert!(rec.delivered, "{case:?}");
            assert_eq!(rec.tls_used, case != TestCase::Plaintext, "{case:?}");
            assert!(!rec.validated);
        }
    }

    #[test]
    fn mtasts_validator_refuses_broken_cert_only() {
        let p = platform();
        let sender = profile(TlsSupport::Opportunistic, true, false, false);
        assert!(p.run_test(&sender, TestCase::MtaStsValid).delivered);
        assert!(p.run_test(&sender, TestCase::MtaStsValid).validated);
        let broken = p.run_test(&sender, TestCase::MtaStsBrokenCert);
        assert!(!broken.delivered, "enforce + self-signed must refuse");
        // DANE-only receiver: no MTA-STS record, delivered opportunistically.
        assert!(p.run_test(&sender, TestCase::DaneOnly).delivered);
        // Conflict: MTA-STS side is valid, delivered + validated.
        let conflict = p.run_test(&sender, TestCase::Conflict);
        assert!(conflict.delivered && conflict.validated);
    }

    #[test]
    fn dane_validator_semantics() {
        let p = platform();
        let sender = profile(TlsSupport::Opportunistic, false, true, false);
        // DANE-only: self-signed cert matching TLSA → delivered, validated.
        let dane = p.run_test(&sender, TestCase::DaneOnly);
        assert!(dane.delivered && dane.validated);
        // Conflict: TLSA mismatch → refused despite the PKIX-valid cert.
        let conflict = p.run_test(&sender, TestCase::Conflict);
        assert!(!conflict.delivered, "RFC-compliant DANE must refuse");
        // No TLSA anywhere else: opportunistic delivery.
        assert!(p.run_test(&sender, TestCase::MtaStsBrokenCert).delivered);
    }

    #[test]
    fn both_validators_and_the_milter_bug() {
        let p = platform();
        let compliant = profile(TlsSupport::Opportunistic, true, true, false);
        let buggy = profile(TlsSupport::Opportunistic, true, true, true);
        // Conflict case separates them: DANE-precedence refuses, the bug
        // delivers because MTA-STS validated.
        assert!(!p.run_test(&compliant, TestCase::Conflict).delivered);
        assert!(p.run_test(&buggy, TestCase::Conflict).delivered);
        // Both refuse the broken-cert MTA-STS receiver.
        assert!(!p.run_test(&compliant, TestCase::MtaStsBrokenCert).delivered);
        assert!(!p.run_test(&buggy, TestCase::MtaStsBrokenCert).delivered);
    }

    #[test]
    fn pkix_always_sender() {
        let p = platform();
        let sender = profile(TlsSupport::PkixAlways, false, false, false);
        assert!(p.run_test(&sender, TestCase::MtaStsValid).delivered);
        // Self-signed MX: refused regardless of MTA-STS/DANE.
        assert!(!p.run_test(&sender, TestCase::MtaStsBrokenCert).delivered);
        assert!(!p.run_test(&sender, TestCase::DaneOnly).delivered);
        // Plaintext: refused (no TLS at all).
        assert!(!p.run_test(&sender, TestCase::Plaintext).delivered);
    }

    #[test]
    fn plaintext_sender_never_uses_tls() {
        let p = platform();
        let sender = profile(TlsSupport::None, false, false, false);
        for case in TestCase::ALL {
            let rec = p.run_test(&sender, case);
            assert!(rec.delivered && !rec.tls_used && !rec.validated, "{case:?}");
        }
    }

    #[test]
    fn run_all_covers_population_times_cases() {
        let p = platform();
        let pop = SenderPopulation::generate(1, 50);
        let records = p.run_all(&pop.profiles);
        assert_eq!(records.len(), 50 * TestCase::ALL.len());
    }
}
