//! Concurrency and determinism suite for the shared policy-resolution
//! service (DESIGN.md "Policy-resolution service").
//!
//! Contracts under test:
//!
//! - **single-flight**: N copies of one cold domain in a batch trigger
//!   exactly one policy fetch — the first copy's row is `Fetched`, the
//!   rest coalesce onto it, at every thread count;
//! - **shard-merge determinism**: the sharded cache's snapshot is
//!   byte-identical to a single `PolicyCache`'s for every shard count
//!   (property);
//! - **oracle equivalence**: for any interleaving of stores and
//!   decisions, the sharded cache answers exactly what a single
//!   `PolicyCache` oracle answers (property);
//! - **batch determinism**: `resolve_batch`'s ledger digest is
//!   byte-identical at `SCAN_THREADS ∈ {1, 8}`, including duplicate
//!   coalescing and admission-control shedding;
//! - **outage-at-expiry regression**: a DNS outage coinciding with
//!   cache expiry keeps delivery protected through §3.3 stale fallback
//!   (the pre-fix cache erased the entry in its decision and downgraded to
//!   plaintext under an active STARTTLS strip);
//! - **/metrics**: the daemon serves the resolver counters in
//!   Prometheus text exposition over real TCP.

use mtasts::{CachedPolicy, Mode, MxPattern, Policy, PolicyCache};
use mtasts_sender::resolver::{
    resolution_digest, AdmissionConfig, DaemonConfig, Disposition, PolicyResolver, PolicySource,
    ResolverConfig, ResolverDaemon, ShardedPolicyCache,
};
use mtasts_sender::{
    AttemptDisposition, DeliveryQueue, EnforcementConfig, MxTransport, QueueConfig, QueuedMessage,
    TlsEvidence, TlsRequirement,
};
use netbase::{DomainName, Duration, SimInstant};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

fn n(s: &str) -> DomainName {
    s.parse().unwrap()
}

fn t0() -> SimInstant {
    SimInstant::from_unix_secs(1_717_200_000)
}

fn policy_text(max_age: u64) -> String {
    format!("version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: {max_age}\r\n")
}

/// A policy source that counts fetches per domain.
struct CountingSource {
    records: HashMap<DomainName, Option<Vec<String>>>,
    bodies: HashMap<DomainName, Result<String, String>>,
    fetches: Mutex<HashMap<DomainName, u64>>,
}

impl CountingSource {
    fn new() -> CountingSource {
        CountingSource {
            records: HashMap::new(),
            bodies: HashMap::new(),
            fetches: Mutex::new(HashMap::new()),
        }
    }

    fn deploy(&mut self, domain: &str, max_age: u64) {
        self.records
            .insert(n(domain), Some(vec!["v=STSv1; id=one;".to_string()]));
        self.bodies.insert(n(domain), Ok(policy_text(max_age)));
    }

    fn fetch_count(&self, domain: &str) -> u64 {
        *self.fetches.lock().unwrap().get(&n(domain)).unwrap_or(&0)
    }
}

impl PolicySource for CountingSource {
    fn record_txts(&self, domain: &DomainName, _now: SimInstant) -> Option<Vec<String>> {
        self.records
            .get(domain)
            .cloned()
            .unwrap_or(Some(Vec::new()))
    }

    fn fetch_policy(&self, domain: &DomainName, _now: SimInstant) -> Result<String, String> {
        *self
            .fetches
            .lock()
            .unwrap()
            .entry(domain.clone())
            .or_default() += 1;
        self.bodies
            .get(domain)
            .cloned()
            .unwrap_or(Err("no policy host".to_string()))
    }
}

// ---------------------------------------------------------------------
// Single-flight
// ---------------------------------------------------------------------

#[test]
fn batch_herd_fetches_each_domain_once() {
    let domains = [
        "herd.example",
        "a.example",
        "b.example",
        "c.example",
        "d.example",
    ];
    // Eight copies of each cold domain, interleaved.
    let batch: Vec<DomainName> = (0..8).flat_map(|_| domains.map(n)).collect();
    let run = |threads: usize| {
        let mut source = CountingSource::new();
        for d in domains {
            source.deploy(d, 86_400);
        }
        let cfg = ResolverConfig {
            threads,
            ..ResolverConfig::default()
        };
        let resolver = PolicyResolver::new(cfg, t0());
        let rows = resolver.resolve_batch(&source, &batch, t0());
        for d in domains {
            assert_eq!(source.fetch_count(d), 1, "{d} at {threads} threads");
            let mine: Vec<_> = rows.iter().filter(|r| r.domain == n(d)).collect();
            assert_eq!(mine.len(), 8);
            for (k, r) in mine.iter().enumerate() {
                let want = match k {
                    0 => Disposition::Fetched,
                    _ => Disposition::Coalesced,
                };
                assert_eq!(
                    (r.disposition, r.mode),
                    (want, Some(Mode::Enforce)),
                    "{r:?}"
                );
            }
        }
        let m = resolver.metrics();
        assert_eq!((m.requests, m.fetches, m.coalesced), (40, 5, 35), "{m:?}");
        rows
    };
    assert_eq!(run(1), run(8));
}

// ---------------------------------------------------------------------
// Shard-merge determinism + oracle equivalence (properties)
// ---------------------------------------------------------------------

fn arb_entry(
    domain_tag: u8,
    mode_tag: u8,
    max_age: u16,
    fetched: u16,
) -> (DomainName, CachedPolicy) {
    let domain = n(&format!("d{}.example", domain_tag % 24));
    let mode = match mode_tag % 3 {
        0 => Mode::Enforce,
        1 => Mode::Testing,
        _ => Mode::None,
    };
    let policy = Policy::new(
        mode,
        u64::from(max_age),
        vec![MxPattern::parse("mx.example.com").unwrap()],
    );
    let entry = CachedPolicy {
        policy,
        record_id: format!("id{}", mode_tag % 5),
        fetched_at: t0() + Duration::seconds(i64::from(fetched)),
    };
    (domain, entry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Snapshotting a sharded cache equals snapshotting one big
    /// `PolicyCache`, whatever the shard count — merging shards in
    /// shard order is a determinism guarantee, not an accident.
    #[test]
    fn shard_merge_matches_single_cache(
        raw in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u16>(), any::<u16>()),
            0..40,
        ),
        shards in any::<u8>(),
    ) {
        let entries: Vec<(DomainName, CachedPolicy)> = raw
            .iter()
            .map(|&(d, m, a, f)| arb_entry(d, m, a, f))
            .collect();
        // Duplicates keep the last entry in both implementations.
        let oracle = PolicyCache::from_snapshot(entries.clone()).snapshot();
        for count in [1usize, 2, usize::from(shards % 16) + 1, 64] {
            let sharded = ShardedPolicyCache::from_snapshot(entries.clone(), count);
            prop_assert_eq!(&sharded.snapshot(), &oracle, "shards={}", count);
        }
    }

    /// For any interleaving of stores and decisions, the sharded cache
    /// answers exactly what a single `PolicyCache` oracle answers, and
    /// both end with identical contents.
    #[test]
    fn sharded_decisions_match_oracle(
        ops in prop::collection::vec(
            (any::<bool>(), any::<u8>(), any::<u8>(), any::<u32>()),
            0..60,
        ),
    ) {
        let sharded = ShardedPolicyCache::new(8);
        let mut oracle = PolicyCache::new();
        for &(is_store, d, m, at) in &ops {
            let (a, t) = ((at >> 16) as u16, (at & 0xffff) as u16);
            let now = t0() + Duration::seconds(i64::from(t));
            if is_store {
                let (domain, entry) = arb_entry(d, m, a, t);
                sharded.store(domain.clone(), entry.policy.clone(), &entry.record_id, now);
                oracle.store(domain, entry.policy, &entry.record_id, now);
            } else {
                let domain = n(&format!("d{}.example", d % 24));
                let txts = match m % 3 {
                    0 => None,
                    _ => Some(vec![format!("v=STSv1; id=id{};", m % 5)]),
                };
                let got = sharded.classify(&domain, txts.as_deref(), now);
                let want = mtasts::classify(txts.as_deref(), oracle.peek(&domain), now);
                prop_assert_eq!(got, want);
            }
        }
        prop_assert_eq!(sharded.snapshot(), oracle.snapshot());
    }
}

// ---------------------------------------------------------------------
// Batch determinism
// ---------------------------------------------------------------------

/// A mixed world: deployed, undeployed, SERVFAIL, invalid-record and
/// dark-policy-host domains, plus duplicates inside the batch.
struct MixedSource;

impl PolicySource for MixedSource {
    fn record_txts(&self, domain: &DomainName, _now: SimInstant) -> Option<Vec<String>> {
        let tag = domain.leftmost();
        let k: u64 = tag
            .trim_start_matches(|c: char| !c.is_ascii_digit())
            .parse()
            .unwrap_or(0);
        match k % 5 {
            0 | 1 => Some(vec![format!("v=STSv1; id=gen{};", k % 7)]),
            2 => Some(Vec::new()),                  // undeployed
            3 => None,                              // SERVFAIL
            _ => Some(vec!["v=STSv1".to_string()]), // invalid (no id)
        }
    }

    fn fetch_policy(&self, domain: &DomainName, _now: SimInstant) -> Result<String, String> {
        let tag = domain.leftmost();
        let k: u64 = tag
            .trim_start_matches(|c: char| !c.is_ascii_digit())
            .parse()
            .unwrap_or(0);
        if k % 5 == 1 {
            Err("policy host down".to_string()) // dark host
        } else {
            Ok(policy_text(86_400))
        }
    }
}

fn mixed_batch(size: usize) -> Vec<DomainName> {
    (0..size)
        .map(|i| {
            // Every third request duplicates an earlier domain so the
            // batch exercises in-batch coalescing.
            let k = if i % 3 == 2 { i / 2 } else { i };
            n(&format!("m{k}.example"))
        })
        .collect()
}

fn batch_cfg(threads: usize) -> ResolverConfig {
    ResolverConfig {
        shards: 16,
        admission: Some(AdmissionConfig {
            rate_per_sec: 50.0,
            burst: 40,
            max_delay: Duration::seconds(2),
        }),
        threads,
    }
}

#[test]
fn batch_ledger_digest_is_thread_count_invariant() {
    let batch = mixed_batch(600);
    let run = |threads: usize| {
        let resolver = PolicyResolver::new(batch_cfg(threads), t0());
        let rows = resolver.resolve_batch(&MixedSource, &batch, t0());
        (resolution_digest(&rows), rows, resolver.metrics())
    };
    let (d1, rows1, m1) = run(1);
    let (d8, rows8, m8) = run(8);
    assert_eq!(rows1, rows8);
    assert_eq!(d1, d8, "ledger digest diverged across thread counts");
    assert_eq!(m1, m8, "service counters diverged across thread counts");

    // The batch genuinely exercised every disposition class.
    for want in [
        Disposition::Fetched,
        Disposition::Coalesced,
        Disposition::Undeployed,
        Disposition::RecordInvalid,
        Disposition::Unavailable,
        Disposition::Shed,
    ] {
        assert!(
            rows1.iter().any(|r| r.disposition == want),
            "batch never produced {want:?}"
        );
    }
    // Rows stay in submission order at every thread count.
    assert!(rows1.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
}

#[test]
fn warm_batch_is_all_hits() {
    let batch = mixed_batch(90);
    let resolver = PolicyResolver::new(batch_cfg(1), t0());
    let cold = resolver.resolve_batch(&MixedSource, &batch, t0());
    let later = t0() + Duration::minutes(5);
    let warm = resolver.resolve_batch(&MixedSource, &batch, later);
    for (c, w) in cold.iter().zip(&warm) {
        if matches!(
            c.disposition,
            Disposition::Fetched | Disposition::StaleFallback
        ) || (matches!(c.disposition, Disposition::Coalesced) && c.mode.is_some())
        {
            assert!(
                matches!(w.disposition, Disposition::Hit | Disposition::HitDespiteDns),
                "seq {}: fetched cold but {:?} warm",
                c.seq,
                w.disposition
            );
        }
    }
    // No fetch traffic on the warm pass beyond what cold left shed.
    assert_eq!(
        resolver.metrics().fetches,
        warm.iter()
            .chain(cold.iter())
            .filter(|r| r.disposition == Disposition::Fetched)
            .count() as u64
    );
}

// ---------------------------------------------------------------------
// Outage-at-expiry regression (the pre-fix cache erased the entry)
// ---------------------------------------------------------------------

/// One enforce-mode domain whose DNS goes dark exactly when the cached
/// policy expires, with a STARTTLS strip running at that moment.
struct ExpiryOutage {
    /// Unix secs at which `_mta-sts` lookups start failing.
    outage_from: i64,
    /// STARTTLS strip window `[from, to)` in unix secs.
    strip: (i64, i64),
}

impl ExpiryOutage {
    fn stripped(&self, now: SimInstant) -> bool {
        (self.strip.0..self.strip.1).contains(&now.unix_secs())
    }
}

impl MxTransport for ExpiryOutage {
    fn route(
        &self,
        _domain: &DomainName,
        _now: SimInstant,
    ) -> Result<Vec<(u16, DomainName)>, String> {
        Ok(vec![(10, n("mx.example.com"))])
    }

    fn attempt(
        &self,
        _mx_host: &DomainName,
        _message: &QueuedMessage,
        now: SimInstant,
        tls: &TlsRequirement,
    ) -> AttemptDisposition {
        if self.stripped(now) {
            // The attacker strips STARTTLS: hard requirements refuse,
            // opportunistic sessions fall back to plaintext.
            match tls {
                TlsRequirement::RequirePkix | TlsRequirement::RequireDane(_) => {
                    AttemptDisposition::TlsRefused {
                        failure: mtasts::StsFailure::StartTlsUnavailable,
                    }
                }
                _ => AttemptDisposition::Delivered {
                    tls: TlsEvidence::Plaintext,
                },
            }
        } else {
            AttemptDisposition::Delivered {
                tls: match tls {
                    TlsRequirement::Opportunistic => TlsEvidence::Encrypted,
                    _ => TlsEvidence::Validated,
                },
            }
        }
    }

    fn sts_record(&self, _domain: &DomainName, now: SimInstant) -> Option<Vec<String>> {
        if now.unix_secs() >= self.outage_from {
            None // SERVFAIL-class: the lookup failed
        } else {
            Some(vec!["v=STSv1; id=one;".to_string()])
        }
    }

    fn fetch_sts_policy(&self, _domain: &DomainName, now: SimInstant) -> Result<String, String> {
        if now.unix_secs() >= self.outage_from {
            Err("policy host unreachable".to_string())
        } else {
            Ok(policy_text(3600))
        }
    }

    fn attack_touched(&self, _name: &DomainName, now: SimInstant) -> bool {
        self.stripped(now)
    }
}

#[test]
fn dns_outage_at_expiry_keeps_delivery_protected() {
    let epoch = t0().unix_secs();
    // Message 0 admits at epoch and warms the cache (max_age 3600).
    // Message 1 admits at +7200 — past expiry, inside both the DNS
    // outage (from +3600) and a strip window around its first attempt.
    let transport = ExpiryOutage {
        outage_from: epoch + 3600,
        strip: (epoch + 7200, epoch + 7240),
    };
    let cfg = QueueConfig {
        threads: 1,
        wave_size: 1,
        admission_spacing_secs: 7200,
        enforcement: Some(EnforcementConfig::default()),
        ..QueueConfig::default()
    };
    let messages = [
        QueuedMessage::new("m0", "a@send.example", "x@example.com", "warm the cache"),
        QueuedMessage::new("m1", "a@send.example", "y@example.com", "cross the outage"),
    ];
    let out = DeliveryQueue::new(cfg).run(&transport, &messages);

    // The retained (expired) entry must keep governing: the stripped
    // attempt is refused under RequirePkix and recovers after the
    // window. Before the cache fix, the decision erased the entry, the
    // resolution fell to NotApplicable, and m1 left in plaintext
    // through the strip (intercepted = 1).
    assert_eq!(out.stats.delivered, 2, "{:?}", out.stats);
    assert_eq!(
        out.stats.intercepted, 0,
        "stale fallback failed: plaintext leaked"
    );
    assert_eq!(out.stats.delivered_validated, 2, "{:?}", out.stats);
    assert!(out.stats.stale_fallbacks >= 1, "{:?}", out.stats);
    let m1 = &out.records[1];
    assert!(m1.attempts > 1, "m1 never hit the strip window: {m1:?}");
}

// ---------------------------------------------------------------------
// /metrics
// ---------------------------------------------------------------------

#[test]
fn daemon_serves_prometheus_metrics_over_tcp() {
    use std::io::{Read as _, Write as _};

    let mut source = CountingSource::new();
    source.deploy("metrics.example", 86_400);
    let resolver = Arc::new(PolicyResolver::new(ResolverConfig::default(), t0()));
    let mut daemon = ResolverDaemon::new(DaemonConfig::default(), Arc::clone(&resolver), t0());
    let rows = daemon.tick(&source, &[n("metrics.example"), n("metrics.example")]);
    assert_eq!(rows.len(), 2);

    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = {
        let resolver = Arc::clone(&resolver);
        std::thread::spawn(move || {
            ResolverDaemon::serve_metrics(resolver, "127.0.0.1:0", Some(1), move |addr| {
                addr_tx.send(addr).unwrap();
            })
        })
    };
    let addr = addr_rx.recv().unwrap();
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    server.join().unwrap().unwrap();

    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("resolver_requests 2"), "{response}");
    assert!(response.contains("resolver_fetches 1"), "{response}");
    assert!(response.contains("resolver_coalesced 1"), "{response}");
    assert!(response.contains("resolver_cache_entries 1"), "{response}");
}

#[test]
fn daemon_serves_healthz_over_tcp() {
    use std::io::{Read as _, Write as _};

    let mut source = CountingSource::new();
    source.deploy("health.example", 86_400);
    let resolver = Arc::new(PolicyResolver::new(ResolverConfig::default(), t0()));
    let mut daemon = ResolverDaemon::new(DaemonConfig::default(), Arc::clone(&resolver), t0());
    daemon.tick(&source, &[n("health.example")]);
    daemon.tick(&source, &[n("health.example"), n("health.example")]);

    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = {
        let resolver = Arc::clone(&resolver);
        let health = daemon.health();
        std::thread::spawn(move || {
            ResolverDaemon::serve(resolver, health, "127.0.0.1:0", Some(3), move |addr| {
                addr_tx.send(addr).unwrap();
            })
        })
    };
    let addr = addr_rx.recv().unwrap();
    let fetch = |path: &str| {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    };

    let healthz = fetch("/healthz");
    assert!(healthz.starts_with("HTTP/1.1 200 OK"), "{healthz}");
    assert!(healthz.contains("application/json"), "{healthz}");
    assert!(healthz.contains("\"status\":\"ok\""), "{healthz}");
    assert!(healthz.contains("\"ticks\":2"), "{healthz}");
    assert!(healthz.contains("\"cache_entries\":1"), "{healthz}");
    // Second tick's window: two requests, nothing shed.
    assert!(healthz.contains("\"requests_last_window\":2"), "{healthz}");
    assert!(healthz.contains("\"shed_last_window\":0"), "{healthz}");
    assert!(healthz.contains("\"last_sweep_age_ticks\":2"), "{healthz}");

    // The batch latency histogram rides the same exposition.
    let metrics = fetch("/metrics");
    assert!(metrics.contains("resolver_latency_us_count"), "{metrics}");
    assert!(metrics.contains("resolver_latency_us_p95"), "{metrics}");

    let missing = fetch("/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    assert!(missing.contains("see /metrics or /healthz"), "{missing}");
    server.join().unwrap().unwrap();
}

#[test]
fn sweep_disposes_expired_entries_metrics_counted() {
    let mut source = CountingSource::new();
    source.deploy("short.example", 60);
    source.deploy("long.example", 86_400);
    let resolver = PolicyResolver::new(ResolverConfig::default(), t0());
    resolver.resolve_batch(&source, &[n("short.example"), n("long.example")], t0());
    assert_eq!(resolver.cache().len(), 2);

    let evicted = resolver.sweep(t0() + Duration::minutes(10));
    assert_eq!(evicted, 1);
    assert_eq!(resolver.cache().len(), 1);
    let m = resolver.metrics();
    assert_eq!((m.evicted, m.sweeps), (1, 1));
}
