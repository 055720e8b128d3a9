//! Live-wire leg of the outbound delivery pipeline: the queue drains a
//! scenario over **real localhost TCP** — every delivery attempt runs
//! the SMTP session ([`simnet::wire::probe_mx_at`], naming the message's
//! recipient) against a real `MxServer` socket — and the resulting ledger
//! must be byte-identical to the in-process fast path. Both legs end an
//! attempt in [`AttemptDisposition::judge`]. Routing, the MTA-STS lookups
//! and the TLSA lookups stay on the world (UDP DNS and the HTTPS fetch
//! have their own parity suite, `tests/wire_parity.rs`), so only the
//! SMTP session crosses a socket.
//!
//! Topology note: the wire deployment only binds sockets for endpoints
//! whose reachability is `Up`, so a hard-down MX translates to a missing
//! listener (connection refused) — exactly the connection-level failure
//! the fail-over ladder and circuit breaker classify. Fault-schedule
//! degradations (flapping, greylists) and attack windows are
//! fast-path-only and excluded here; `Degradation::wire_faithful`
//! encodes that boundary. A static recipient refusal or a bad chain is
//! served by the wire deployment, so those worlds run on both legs.

use mtasts::Mode;
use netbase::{DomainName, SimInstant};
use sender::scenario::{build, Degradation, Scenario, ScenarioSpec};
use sender::{
    ledger_digest, AttemptDisposition, DeliveryQueue, EnforcementConfig, FastTransport,
    MxTransport, QueueConfig, QueueStats, QueuedMessage, TlsRequirement,
};
use simnet::wire::{probe_mx_at, WireWorld};
use simnet::{CertKind, World};
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr};

/// The wire transport: routes and looks policies up through the world,
/// attempts over a real TCP connection to the deployed `MxServer`. Sync
/// by contract (the queue's workers are plain threads), so each attempt
/// drives its own `block_on` — safe here because the queue runs on a
/// `spawn_blocking` OS thread, never on the runtime's own thread.
struct WireTransport {
    world: World,
    mx_addrs: HashMap<Ipv4Addr, SocketAddr>,
}

impl MxTransport for WireTransport {
    fn route(
        &self,
        domain: &DomainName,
        now: SimInstant,
    ) -> Result<Vec<(u16, DomainName)>, String> {
        FastTransport::new(&self.world).route(domain, now)
    }

    fn attempt(
        &self,
        mx_host: &DomainName,
        message: &QueuedMessage,
        now: SimInstant,
        tls: &TlsRequirement,
    ) -> AttemptDisposition {
        // Endpoints that are not Up were never deployed: no listener, so
        // the host is unreachable before any connect.
        let addr = self
            .world
            .resolve(mx_host, dns::RecordType::A, now)
            .ok()
            .and_then(|lookup| {
                let ip = lookup.a_addrs().first().copied()?;
                self.mx_addrs.get(&ip).copied()
            });
        let Some(addr) = addr else {
            return AttemptDisposition::HostUnreachable;
        };
        let probe = tokio::runtime::block_on(probe_mx_at(addr, mx_host, Some(&message.rcpt_to)));
        AttemptDisposition::judge(probe, mx_host, now, self.world.pki.trust_store(), tls)
    }

    fn sts_record(&self, domain: &DomainName, now: SimInstant) -> Option<Vec<String>> {
        FastTransport::new(&self.world).sts_record(domain, now)
    }

    fn fetch_sts_policy(&self, domain: &DomainName, now: SimInstant) -> Result<String, String> {
        FastTransport::new(&self.world).fetch_sts_policy(domain, now)
    }

    fn tlsa_records(&self, mx_host: &DomainName, now: SimInstant) -> Option<Vec<dns::TlsaRecord>> {
        FastTransport::new(&self.world).tlsa_records(mx_host, now)
    }

    fn attack_touched(&self, name: &DomainName, now: SimInstant) -> bool {
        FastTransport::new(&self.world).attack_touched(name, now)
    }
}

/// `threads: 0` reads `SCAN_THREADS`, so each CI run drains both legs
/// with that many workers; the ledger is the same for every count.
fn queue_cfg(enforcement: Option<EnforcementConfig>) -> QueueConfig {
    QueueConfig {
        threads: 0,
        wave_size: 8,
        enforcement,
        ..QueueConfig::default()
    }
}

/// Drains `s` through the fast path and through real SMTP sessions with
/// the same world deployed on localhost, asserts byte-identical ledgers
/// and equal stats, and returns the stats.
async fn drain_both_legs(s: Scenario, config: QueueConfig, case: &str) -> QueueStats {
    let fast = DeliveryQueue::new(config.clone()).run(&FastTransport::new(&s.world), &s.messages);

    // Deploy the same world onto localhost, then drain the queue from a
    // blocking thread (the queue is synchronous; the runtime thread must
    // stay free to drive the MX server tasks).
    let wire = WireWorld::deploy(&s.world).await.expect("deploys");
    let transport = WireTransport {
        mx_addrs: wire.mx_addr_map(),
        world: s.world,
    };
    let messages = s.messages;
    let slow =
        tokio::task::spawn_blocking(move || DeliveryQueue::new(config).run(&transport, &messages))
            .await
            .expect("wire queue thread");
    wire.shutdown().await;

    assert_eq!(
        ledger_digest(&fast.records),
        ledger_digest(&slow.records),
        "{case}: wire and fast ledgers diverge"
    );
    assert_eq!(fast.stats, slow.stats, "{case}");
    slow.stats
}

/// Gives every MX whose host name `pick` selects a self-signed chain.
fn self_sign(s: &mut Scenario, pick: impl Fn(&str) -> bool) {
    for ip in s.world.mx_ips() {
        let host = s.world.mx_endpoint(ip).expect("listed ip").hostname.clone();
        if pick(&host.to_string()) {
            let chain = s
                .world
                .pki
                .issue(&CertKind::SelfSigned, &[host], s.spec.epoch);
            s.world.with_mx(ip, |mx| mx.chain = chain);
        }
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
        let messages = s.messages.len() as u64;
        let stats = drain_both_legs(s, queue_cfg(None), &format!("{degradation:?}")).await;
        // Under the degradations every message still delivers — via a
        // surviving rung — on both paths.
        assert_eq!(stats.delivered, messages, "{degradation:?}");
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn wire_refused_recipient_bounces_like_the_fast_path() {
    // Every MX of d0.test refuses RCPTs for d0.test: provider opt-out.
    // The bounce text rides the ledger, so both legs must word it alike.
    let mut s = build(ScenarioSpec::small(13, Degradation::None));
    let victim: DomainName = "d0.test".parse().unwrap();
    for ip in s.world.mx_ips() {
        s.world.with_mx(ip, |mx| {
            if mx.hostname.to_string().ends_with(".d0.test") {
                mx.reject_rcpt_domains.push(victim.clone());
            }
        });
    }
    let stats = drain_both_legs(s, queue_cfg(None), "refused recipient").await;
    assert_eq!(stats.bounced_permanent, 8);
    assert_eq!(stats.delivered, 24);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn wire_testing_mode_reports_a_bad_chain_like_the_fast_path() {
    // `testing` delivers over a self-signed chain and reports it (RFC
    // 8461 §5): both legs must see the chain the MX presents.
    let mut s = build(ScenarioSpec::small(7, Degradation::None).with_sts(Mode::Testing));
    self_sign(&mut s, |host| host.ends_with(".d0.test"));
    let enforcing = queue_cfg(Some(EnforcementConfig::default()));
    let stats = drain_both_legs(s, enforcing, "testing, self-signed d0.test").await;
    assert_eq!(stats.delivered, 32);
    assert_eq!(stats.soft_fails, 8);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn wire_enforce_validates_like_the_fast_path() {
    for degradation in [Degradation::None, Degradation::OneMxDown] {
        let s = build(ScenarioSpec::small(7, degradation).with_sts(Mode::Enforce));
        let enforcing = queue_cfg(Some(EnforcementConfig::default()));
        let stats = drain_both_legs(s, enforcing, &format!("enforce, {degradation:?}")).await;
        assert_eq!(stats.delivered, 32, "{degradation:?}");
        assert_eq!(
            stats.delivered_validated, stats.delivered,
            "{degradation:?}"
        );
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn wire_enforce_refuses_self_signed_rungs_like_the_fast_path() {
    // Each `mxa` rung the shuffle tries first is refused under `enforce`
    // and the ladder falls over to `mxb`.
    let mut s = build(ScenarioSpec::small(7, Degradation::None).with_sts(Mode::Enforce));
    self_sign(&mut s, |host| host.starts_with("mxa."));
    let enforcing = queue_cfg(Some(EnforcementConfig::default()));
    let stats = drain_both_legs(s, enforcing, "enforce, self-signed mxa").await;
    assert_eq!(stats.delivered_validated, 32);
    assert_eq!(stats.policy_ladder_skips, 16);
}
