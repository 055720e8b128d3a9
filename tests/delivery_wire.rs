//! Live-wire leg of the outbound delivery pipeline: the queue drains a
//! degraded-MX scenario over **real localhost TCP** — UDP DNS is not
//! needed (routing stays on the world's resolver), but every delivery
//! attempt speaks actual SMTP to a real `MxServer` socket — and the
//! resulting ledger must be byte-identical to the in-process fast path.
//!
//! Topology note: the wire deployment only binds sockets for endpoints
//! whose reachability is `Up`, so a hard-down MX translates to a missing
//! listener (connection refused) — exactly the connection-level failure
//! the fail-over ladder and circuit breaker classify. Fault-schedule
//! degradations (flapping, greylists) are fast-path-only and excluded
//! here; `Degradation::wire_faithful` encodes that boundary.

use netbase::{DomainName, SimInstant};
use sender::scenario::{build, Degradation, ScenarioSpec};
use sender::{
    ledger_digest, AttemptDisposition, DeliveryQueue, FastTransport, MxTransport, QueueConfig,
    QueuedMessage, TlsEvidence, TlsRequirement,
};
use simnet::wire::WireWorld;
use smtp::{deliver, DeliveryOutcome, Envelope, SmtpError, TlsPolicy};
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr};

/// The wire transport: routes via the world's resolver, attempts via a
/// real TCP connection to the deployed `MxServer`. Sync by contract
/// (the queue's workers are plain threads), so each attempt drives its
/// own `block_on` — safe here because `run_wire_queue` runs on a
/// `spawn_blocking` OS thread, never on the runtime's own thread.
struct WireTransport {
    world: simnet::World,
    mx_addrs: HashMap<Ipv4Addr, SocketAddr>,
    helo: DomainName,
}

impl MxTransport for WireTransport {
    fn route(
        &self,
        domain: &DomainName,
        now: SimInstant,
    ) -> Result<Vec<(u16, DomainName)>, String> {
        self.world
            .mx_records_with_pref(domain, now)
            .map_err(|e| format!("{e:?}"))
    }

    fn attempt(
        &self,
        mx_host: &DomainName,
        message: &QueuedMessage,
        now: SimInstant,
        tls: &TlsRequirement,
    ) -> AttemptDisposition {
        let Ok(lookup) = self.world.resolve(mx_host, dns::RecordType::A, now) else {
            return AttemptDisposition::HostUnreachable;
        };
        let Some(ip) = lookup.a_addrs().first().copied() else {
            return AttemptDisposition::HostUnreachable;
        };
        // Endpoints that are not Up were never deployed: no listener, so
        // the connection-refused class is decided right here, like a
        // connect() would.
        let Some(addr) = self.mx_addrs.get(&ip).copied() else {
            return AttemptDisposition::HostUnreachable;
        };
        let policy = match tls {
            TlsRequirement::Opportunistic => TlsPolicy::Opportunistic,
            TlsRequirement::OpportunisticAudit => TlsPolicy::OpportunisticAudit {
                roots: self.world.pki.trust_store().clone(),
                now,
                host: mx_host.clone(),
            },
            TlsRequirement::RequirePkix => TlsPolicy::RequirePkix {
                roots: self.world.pki.trust_store().clone(),
                now,
                host: mx_host.clone(),
            },
            // The wire client carries no DANE verifier; DANE-governed
            // rungs are a fast-path-only concern (`wire_faithful` keeps
            // enforcement scenarios off this leg).
            TlsRequirement::RequireDane(_) => {
                return AttemptDisposition::TlsRefused {
                    failure: mtasts::StsFailure::DaneInvalid {
                        reason: "wire transport has no DANE verifier".to_string(),
                    },
                }
            }
        };
        let must_tls = matches!(policy, TlsPolicy::RequirePkix { .. });
        let envelope = Envelope::new(&message.mail_from, &message.rcpt_to, &message.body);
        let helo = self.helo.clone();
        let mx_hostname = mx_host.clone();
        tokio::runtime::block_on(async move {
            let stream = match tokio::net::TcpStream::connect(addr).await {
                Ok(s) => s,
                Err(_) => return AttemptDisposition::HostUnreachable,
            };
            match deliver(stream, &helo, &mx_hostname, &envelope, &policy, 7, 11).await {
                Ok(DeliveryOutcome::Delivered {
                    tls_used,
                    cert_validated,
                }) => AttemptDisposition::Delivered {
                    tls: match (tls_used, cert_validated) {
                        (true, true) => TlsEvidence::Validated,
                        (true, false) => TlsEvidence::Encrypted,
                        (false, _) => TlsEvidence::Plaintext,
                    },
                },
                Ok(DeliveryOutcome::Rejected { code, text, .. }) => {
                    AttemptDisposition::Reply { code: code.0, text }
                }
                // Under a mandatory-TLS policy, a refused upgrade or bad
                // chain is a policy refusal, not a dead host.
                Err(SmtpError::StartTlsNotOffered) if must_tls => AttemptDisposition::TlsRefused {
                    failure: mtasts::StsFailure::StartTlsUnavailable,
                },
                Err(SmtpError::Cert(e)) if must_tls => AttemptDisposition::TlsRefused {
                    failure: mtasts::StsFailure::CertInvalid(e),
                },
                // Transport-level SMTP errors (reset mid-dialogue,
                // protocol violations) are connection-class failures.
                Err(_) => AttemptDisposition::HostUnreachable,
            }
        })
    }
}

fn queue_cfg() -> QueueConfig {
    QueueConfig {
        threads: 1,
        wave_size: 8,
        ..QueueConfig::default()
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn wire_queue_matches_fast_path_on_degraded_scenarios() {
    for degradation in [
        Degradation::None,
        Degradation::OneMxDown,
        Degradation::TierOutage,
    ] {
        assert!(degradation.wire_faithful());
        let s = build(ScenarioSpec::small(7, degradation));

        // Fast-path reference ledger.
        let fast = DeliveryQueue::new(queue_cfg()).run(&FastTransport::new(&s.world), &s.messages);

        // Wire leg: deploy the same world onto localhost, then drain the
        // queue from a blocking thread (the queue is synchronous; the
        // runtime thread must stay free to drive the MX server tasks).
        let wire = WireWorld::deploy(&s.world).await.expect("deploys");
        let transport = WireTransport {
            world: s.world,
            mx_addrs: wire.mx_addr_map(),
            helo: "sender.test".parse().unwrap(),
        };
        let messages = s.messages.clone();
        let slow = tokio::task::spawn_blocking(move || {
            DeliveryQueue::new(queue_cfg()).run(&transport, &messages)
        })
        .await
        .expect("wire queue thread");
        wire.shutdown().await;

        assert_eq!(
            ledger_digest(&fast.records),
            ledger_digest(&slow.records),
            "{degradation:?}: wire and fast ledgers diverge"
        );
        assert_eq!(fast.stats, slow.stats, "{degradation:?}");
        if matches!(degradation, Degradation::None) {
            assert_eq!(fast.stats.delivered, s.messages.len() as u64);
        }
        // Under the degradations every message still delivers — via a
        // surviving rung — on both paths.
        assert_eq!(
            slow.stats.delivered,
            s.messages.len() as u64,
            "{degradation:?}"
        );
    }
}
