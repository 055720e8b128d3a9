//! One MX session, one TLS check.
//!
//! [`simnet::World::probe_mx`] is the only model of an SMTP session with
//! a simulated MX, and [`TlsRequirement::check`] the only judgment of
//! what that session is worth under a sender's TLS requirement. Two
//! contracts pin that down:
//!
//! - **the verdict table**: every requirement against every session
//!   shape maps to exactly one piece of evidence or one refusal;
//! - **one model**: for one endpoint at one instant, under every
//!   transient fault and every attack kind, the queue's
//!   [`FastTransport::attempt`] reports the reachability, tempfail,
//!   STARTTLS and chain answers the scanner's probe reports, including
//!   for an endpoint with `starttls: true` and an empty chain (the rule
//!   stated on `simnet::MxEndpoint::chain`).

use danelite::{tlsa_for_cert, DaneError};
use dns::{RecordData, TlsaRecord};
use mtasts::StsFailure;
use mtasts_sender::{
    AttemptDisposition, FastTransport, MxTransport, QueuedMessage, TlsEvidence, TlsRequirement,
};
use netbase::{DomainName, Duration, SimDate, SimInstant};
use pkix::CertError;
use simnet::{
    AttackKind, AttackSchedule, CertKind, FaultKind, FaultSchedule, MxEndpoint, Reachability,
    SmtpReply, World,
};
use std::net::Ipv4Addr;

fn n(s: &str) -> DomainName {
    s.parse().unwrap()
}

fn now() -> SimInstant {
    SimDate::ymd(2024, 6, 1).at_midnight()
}

const DOMAIN: &str = "example.com";
const MX: &str = "mx.example.com";

/// `example.com` with one healthy MX presenting a PKIX-valid chain, a
/// signed zone, and a DANE-EE record pinning that chain's leaf.
fn world() -> (World, Ipv4Addr) {
    let mut w = World::new();
    let domain = n(DOMAIN);
    let mx = n(MX);
    w.ensure_zone(&domain);
    let chain = w.pki.issue_valid(std::slice::from_ref(&mx), now());
    let tlsa = tlsa_for_cert(&chain[0]);
    let ip = w.add_mx_endpoint(MxEndpoint::healthy(mx.clone(), chain));
    w.set_dnssec(&domain, true);
    w.with_zone(&domain, |z| {
        z.add_rr(&mx, 300, RecordData::A(ip));
        z.add_rr(
            &domain,
            300,
            RecordData::Mx {
                preference: 10,
                exchange: mx.clone(),
            },
        );
        z.add_rr(&danelite::tlsa_name(&mx), 300, RecordData::Tlsa(tlsa));
    });
    (w, ip)
}

/// Replaces the TLSA RRset with one record pinning `chain`'s leaf.
fn pin_tlsa(w: &mut World, chain: &[pkix::SimCert]) {
    let name = danelite::tlsa_name(&n(MX));
    w.with_zone(&n(DOMAIN), |z| {
        z.remove(&name, dns::RecordType::Tlsa);
        z.add_rr(&name, 300, RecordData::Tlsa(tlsa_for_cert(&chain[0])));
    });
}

fn attack(w: &mut World, kind: AttackKind) {
    w.set_attacker(AttackSchedule::new().with_window(
        kind,
        Some(n(DOMAIN)),
        now(),
        now() + Duration::hours(1),
    ));
}

fn fault(w: &mut World, ip: Ipv4Addr, kind: FaultKind) {
    let schedule = FaultSchedule::new(7).with_window(kind, now(), now() + Duration::hours(1));
    if kind == FaultKind::DnsServfail || kind == FaultKind::DnsDrop {
        w.set_dns_faults(schedule);
    } else {
        w.with_mx(ip, |mx| mx.faults = schedule);
    }
}

/// What one requirement should make of one session.
#[derive(Debug)]
enum Want {
    Plaintext,
    Encrypted,
    Validated,
    CertFailed(CertError),
    Refused(StsFailure),
}

impl Want {
    fn result(&self) -> Result<TlsEvidence, StsFailure> {
        match self {
            Want::Plaintext => Ok(TlsEvidence::Plaintext),
            Want::Encrypted => Ok(TlsEvidence::Encrypted),
            Want::Validated => Ok(TlsEvidence::Validated),
            Want::CertFailed(e) => Ok(TlsEvidence::CertFailed(e.clone())),
            Want::Refused(f) => Err(f.clone()),
        }
    }
}

fn no_tls() -> Want {
    Want::Refused(StsFailure::StartTlsUnavailable)
}

fn cert_invalid(e: CertError) -> Want {
    Want::Refused(StsFailure::CertInvalid(e))
}

fn dane_invalid(e: DaneError) -> Want {
    Want::Refused(StsFailure::DaneInvalid {
        reason: e.to_string(),
    })
}

/// Bends the world of [`world`] around its MX endpoint at `ip`.
type Bend = fn(&mut World, Ipv4Addr);

/// One session shape: how to bend the world, and what each of
/// `[Opportunistic, OpportunisticAudit, RequirePkix, RequireDane]`
/// makes of it.
struct Shape {
    name: &'static str,
    bend: Bend,
    want: [Want; 4],
}

fn shapes() -> Vec<Shape> {
    use Want::{CertFailed, Encrypted, Plaintext, Validated};
    let plain = || [Plaintext, Plaintext, no_tls(), no_tls()];
    vec![
        Shape {
            name: "unreachable",
            bend: |w, ip| {
                w.with_mx(ip, |mx| mx.reachability = Reachability::Timeout);
            },
            want: plain(),
        },
        Shape {
            name: "greylisted",
            bend: |w, ip| fault(w, ip, FaultKind::SmtpGreylist),
            want: plain(),
        },
        Shape {
            name: "plaintext MX",
            bend: |w, ip| {
                w.with_mx(ip, |mx| *mx = MxEndpoint::plaintext(n(MX)));
            },
            want: plain(),
        },
        Shape {
            name: "hidden STARTTLS",
            bend: |w, ip| {
                w.with_mx(ip, |mx| mx.hide_starttls = true);
            },
            want: plain(),
        },
        Shape {
            name: "HELO-only",
            bend: |w, ip| {
                w.with_mx(ip, |mx| mx.helo_only = true);
            },
            want: plain(),
        },
        Shape {
            name: "STARTTLS stripped",
            bend: |w, _| attack(w, AttackKind::StartTlsStrip),
            want: plain(),
        },
        Shape {
            name: "valid chain",
            bend: |_, _| {},
            want: [Encrypted, Validated, Validated, Validated],
        },
        Shape {
            name: "self-signed chain",
            bend: |w, ip| {
                let chain = w.pki.issue(&CertKind::SelfSigned, &[n(MX)], now());
                w.with_mx(ip, |mx| mx.chain = chain);
            },
            want: [
                Encrypted,
                CertFailed(CertError::SelfSigned),
                cert_invalid(CertError::SelfSigned),
                dane_invalid(DaneError::NoMatch),
            ],
        },
        Shape {
            name: "substituted chain",
            bend: |w, _| attack(w, AttackKind::MxCertSubstitute),
            want: [
                Encrypted,
                CertFailed(CertError::UnknownIssuer),
                cert_invalid(CertError::UnknownIssuer),
                dane_invalid(DaneError::NoMatch),
            ],
        },
        Shape {
            name: "DANE match",
            bend: |w, ip| {
                let chain = w.pki.issue(&CertKind::SelfSigned, &[n(MX)], now());
                pin_tlsa(w, &chain);
                w.with_mx(ip, |mx| mx.chain = chain);
            },
            want: [
                Encrypted,
                CertFailed(CertError::SelfSigned),
                cert_invalid(CertError::SelfSigned),
                Validated,
            ],
        },
        Shape {
            name: "DANE mismatch",
            bend: |w, _| {
                let decoy = w.pki.issue(&CertKind::SelfSigned, &[n(MX)], now());
                pin_tlsa(w, &decoy);
            },
            want: [
                Encrypted,
                Validated,
                Validated,
                dane_invalid(DaneError::NoMatch),
            ],
        },
        Shape {
            name: "STARTTLS with an empty chain",
            bend: |w, ip| {
                w.with_mx(ip, |mx| mx.chain.clear());
            },
            want: [
                Encrypted,
                CertFailed(CertError::NoCertificate),
                cert_invalid(CertError::NoCertificate),
                dane_invalid(DaneError::NoCertificate),
            ],
        },
    ]
}

#[test]
fn every_requirement_maps_every_session_shape_to_one_verdict() {
    let shapes = shapes();
    assert_eq!(shapes.len(), 12);
    for shape in &shapes {
        let (mut w, ip) = world();
        (shape.bend)(&mut w, ip);
        let mx = n(MX);
        let tlsa: Vec<TlsaRecord> = w.tlsa_records(&mx, now()).expect("the zone is signed");
        let requirements = [
            TlsRequirement::Opportunistic,
            TlsRequirement::OpportunisticAudit,
            TlsRequirement::RequirePkix,
            TlsRequirement::RequireDane(tlsa),
        ];
        let probe = w.probe_mx(&mx, None, now());
        for (requirement, want) in requirements.iter().zip(&shape.want) {
            assert_eq!(
                requirement.check(&probe, &mx, now(), w.pki.trust_store()),
                want.result(),
                "{}: {requirement:?}",
                shape.name
            );
        }
    }
}

/// The transport's answers to the four questions the probe answers.
#[derive(Debug, PartialEq)]
struct Answers {
    reachable: bool,
    reply: Option<SmtpReply>,
    starttls: bool,
    chain: Option<Result<(), CertError>>,
}

fn transport_answers(w: &World, message: &QueuedMessage) -> Answers {
    let mx = n(MX);
    let transport = FastTransport::new(w);
    let mut answers = Answers {
        reachable: true,
        reply: None,
        starttls: false,
        chain: None,
    };
    match transport.attempt(&mx, message, now(), &TlsRequirement::Opportunistic) {
        AttemptDisposition::HostUnreachable => answers.reachable = false,
        AttemptDisposition::Reply { code, text } => {
            answers.reply = Some(SmtpReply { code, text });
        }
        AttemptDisposition::Delivered { tls } => answers.starttls = tls.tls_used(),
        other => panic!("an opportunistic attempt never refuses: {other:?}"),
    }
    if answers.starttls {
        answers.chain = match transport.attempt(&mx, message, now(), &TlsRequirement::RequirePkix) {
            AttemptDisposition::Delivered {
                tls: TlsEvidence::Validated,
            } => Some(Ok(())),
            AttemptDisposition::TlsRefused {
                failure: StsFailure::CertInvalid(e),
            } => Some(Err(e)),
            other => panic!("STARTTLS was offered, yet {other:?}"),
        };
    }
    answers
}

fn probe_answers(w: &World, rcpt_to: &str) -> Answers {
    let mx = n(MX);
    let probe = w.probe_mx(&mx, Some(rcpt_to), now());
    Answers {
        reachable: probe.reachable,
        reply: probe.reply.clone(),
        starttls: probe.starttls_offered,
        chain: probe.cert_verdict(&mx, now(), w.pki.trust_store()),
    }
}

#[test]
fn transport_and_probe_agree_under_every_fault_and_attack() {
    let endpoints: [(&str, Bend); 4] = [
        ("healthy", |_, _| {}),
        ("empty chain", |w, ip| {
            w.with_mx(ip, |mx| mx.chain.clear());
        }),
        ("self-signed", |w, ip| {
            let chain = w.pki.issue(&CertKind::SelfSigned, &[n(MX)], now());
            w.with_mx(ip, |mx| mx.chain = chain);
        }),
        ("rejects the recipient", |w, ip| {
            w.with_mx(ip, |mx| mx.reject_rcpt_domains.push(n("rcpt.test")));
        }),
    ];
    let faults = [
        FaultKind::DnsServfail,
        FaultKind::DnsDrop,
        FaultKind::TcpReset,
        FaultKind::TlsHandshakeAbort,
        FaultKind::HttpServerError,
        FaultKind::SmtpGreylist,
    ];
    let conditions = std::iter::once((None, None))
        .chain(faults.map(|kind| (Some(kind), None)))
        .chain(AttackKind::ALL.map(|kind| (None, Some(kind))));
    let message = QueuedMessage::new("m0", "a@sender.test", "b@rcpt.test", "hi");
    let mut rejected = 0;
    for (endpoint, bend) in &endpoints {
        for (fault_kind, attack_kind) in conditions.clone() {
            let (mut w, ip) = world();
            bend(&mut w, ip);
            if let Some(kind) = fault_kind {
                fault(&mut w, ip, kind);
            }
            if let Some(kind) = attack_kind {
                attack(&mut w, kind);
            }
            let probe = probe_answers(&w, &message.rcpt_to);
            rejected += usize::from(probe.reply.as_ref().is_some_and(|r| r.code == 550));
            assert_eq!(
                transport_answers(&w, &message),
                probe,
                "{endpoint} under fault {fault_kind:?}, attack {attack_kind:?}"
            );
        }
    }
    assert!(rejected > 0, "the recipient check never fired");
}
