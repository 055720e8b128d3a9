//! The policy-resolution service: "how do I deliver to domain X right
//! now?" for millions of queued messages (ROADMAP item 2; paper
//! §2.4/§3.3).
//!
//! The core's [`mtasts::SenderEngine`] answers that question for *one*
//! caller at a time over a private [`PolicyCache`]. A long-running MTA
//! answers it for batches of queued messages, and the sender-side
//! measurements ("Lazy Gatekeepers", PAPERS.md) show that *this* layer
//! — what the cache does under live traffic — decides how much
//! protection MTA-STS actually delivers. This module is that service:
//!
//! - **[`ShardedPolicyCache`]** — `RwLock`-per-shard over
//!   [`PolicyCache`], deciding with the core's [`mtasts::classify`] /
//!   [`mtasts::conclude`]. Reads (the overwhelmingly common warm-path
//!   operation) take a shard read lock and never write, so a batch's
//!   workers classify concurrently; writes touch exactly one shard.
//!   Shard assignment is FNV-1a over the domain's labels, so it is
//!   stable across runs and processes.
//! - **Single-flight refresh** — within a batch, every request for the
//!   same cold domain coalesces onto the first occurrence's fetch: N
//!   copies of one cold domain trigger exactly **one** policy fetch,
//!   and the other N−1 rows are [`Disposition::Coalesced`] with the
//!   first row's answer.
//! - **Request admission** — the HTTPS fetch leg (the part that can
//!   hammer a small policy host) is gated by a
//!   [`netbase::rate::TokenBucket`]. Each batch plans its fetches'
//!   admission instants once on that bucket's clock, as the parallel
//!   scanner plans its per-shard clocks, and sheds a request whose
//!   admission would be delayed past the configured bound.
//! - **Kumomta egress semantics** — answers are the existing
//!   [`ResolvedPolicy`] / [`crate::enforce::TlsRequirement`] types, so
//!   cached policy *mode* adjusts the effective TLS requirement and the
//!   DANE/TLSA precedence rule of the queue is untouched (DANE is
//!   per-MX-host and stays with the attempt planner).
//! - **`/metrics`** — the service's counters (hits, fetches, coalesced
//!   requests, stale fallbacks, shed requests, …) render through the
//!   `obsv` Prometheus exporter; [`ResolverDaemon`] serves them over a
//!   real TCP socket.
//!
//! # Determinism contract
//!
//! [`PolicyResolver::resolve_batch`] is the only resolution path: for a
//! fixed `(cache state, source behaviour, batch, submit instant)` its
//! resolution ledger — and therefore [`resolution_digest`] — is
//! byte-identical at every `SCAN_THREADS`, because classification is a
//! pure read phase, fetch admission is planned once on the single
//! logical bucket, and stores fold back in submission order. The
//! service state a batch mutates (counters, latency histogram,
//! admission bucket) sits behind one lock held for the whole batch, so
//! concurrent callers run one batch at a time, each against the cache
//! the previous batch left.

use crate::enforce::ResolvedPolicy;
use crate::pipeline::MxTransport;
use mtasts::{CachedPolicy, Classified, Mode, PolicyCache};
use netbase::{default_scan_threads, map_sharded, DomainName, Duration, SimInstant, TokenBucket};
use obsv::health::{fnv64, fnv64_extend};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

pub use mtasts::Disposition;

// ---------------------------------------------------------------------
// Policy source
// ---------------------------------------------------------------------

/// Where policies come from: the `_mta-sts` TXT lookup and the
/// strict-TLS HTTPS fetch. Both must be pure functions of
/// `(domain, now)` for the batch driver's determinism contract to hold.
pub trait PolicySource: Sync {
    /// The `_mta-sts.<domain>` TXT strings; `None` when the lookup
    /// failed (SERVFAIL-class), `Some(vec![])` when the name does not
    /// exist.
    fn record_txts(&self, domain: &DomainName, now: SimInstant) -> Option<Vec<String>>;

    /// Fetches the raw policy document over strict-TLS HTTPS.
    fn fetch_policy(&self, domain: &DomainName, now: SimInstant) -> Result<String, String>;
}

/// Adapts any queue transport into a [`PolicySource`], so the resolver
/// can serve the same world a delivery queue routes through.
pub struct TransportSource<'a, T: MxTransport + ?Sized>(pub &'a T);

impl<T: MxTransport + ?Sized> PolicySource for TransportSource<'_, T> {
    fn record_txts(&self, domain: &DomainName, now: SimInstant) -> Option<Vec<String>> {
        self.0.sts_record(domain, now)
    }

    fn fetch_policy(&self, domain: &DomainName, now: SimInstant) -> Result<String, String> {
        self.0.fetch_sts_policy(domain, now)
    }
}

// ---------------------------------------------------------------------
// Sharded cache
// ---------------------------------------------------------------------

/// The shard a domain maps to among `n` shards (`n` a power of two):
/// FNV-1a over each label followed by `.`, i.e. over the name and a
/// trailing `.`; stable across runs and processes.
fn shard_index_for(domain: &DomainName, n: usize) -> usize {
    let h = fnv64_extend(fnv64(domain.as_str().as_bytes()), b".");
    (h as usize) & (n - 1)
}

/// A concurrent TOFU policy cache: `RwLock`-per-shard over
/// [`PolicyCache`]. Decision logic is entirely the core's
/// ([`mtasts::classify`] / [`mtasts::conclude`] over the shard's
/// entry), so a sharded cache is observationally equivalent to one big
/// `PolicyCache` — the property the oracle cross-check proptest pins.
#[derive(Debug)]
pub struct ShardedPolicyCache {
    shards: Vec<RwLock<PolicyCache>>,
}

impl ShardedPolicyCache {
    /// A cache with `shards` shards (rounded up to a power of two,
    /// minimum 1).
    pub fn new(shards: usize) -> ShardedPolicyCache {
        let n = shards.max(1).next_power_of_two();
        ShardedPolicyCache {
            shards: (0..n).map(|_| RwLock::new(PolicyCache::new())).collect(),
        }
    }

    /// Rebuilds a cache from a [`snapshot`](ShardedPolicyCache::snapshot)
    /// (same entry format as [`PolicyCache::snapshot`], so pipeline
    /// checkpoints restore into either).
    pub fn from_snapshot(
        entries: Vec<(DomainName, CachedPolicy)>,
        shards: usize,
    ) -> ShardedPolicyCache {
        let n = shards.max(1).next_power_of_two();
        let mut per_shard: Vec<Vec<(DomainName, CachedPolicy)>> =
            (0..n).map(|_| Vec::new()).collect();
        for (domain, entry) in entries {
            per_shard[shard_index_for(&domain, n)].push((domain, entry));
        }
        ShardedPolicyCache {
            shards: per_shard
                .into_iter()
                .map(|entries| RwLock::new(PolicyCache::from_snapshot(entries)))
                .collect(),
        }
    }

    /// The shard a domain lives in: FNV-1a over its labels, stable
    /// across runs, processes, and shard-count-preserving rebuilds.
    pub fn shard_index(&self, domain: &DomainName) -> usize {
        shard_index_for(domain, self.shards.len())
    }

    /// Step one of the decision for `domain` ([`mtasts::classify`])
    /// under a shard **read** lock — the warm path: a hit clones only
    /// the `Policy`.
    pub fn classify(
        &self,
        domain: &DomainName,
        record_txts: Option<&[String]>,
        now: SimInstant,
    ) -> Classified {
        let shard = self.shards[self.shard_index(domain)]
            .read()
            .expect("shard lock poisoned");
        mtasts::classify(record_txts, shard.peek(domain), now)
    }

    /// Step two after a fetch under `record_id` ([`mtasts::conclude`],
    /// read lock): a fetched policy is stored (shard write lock; the
    /// inner cache counts the completed fetch), a failed or garbage one
    /// yields the §3.3 stale-or-unavailable answer.
    pub fn conclude(
        &self,
        domain: &DomainName,
        record_id: &str,
        fetched: Result<String, String>,
        now: SimInstant,
    ) -> (ResolvedPolicy, Disposition) {
        let concluded = {
            let shard = self.shards[self.shard_index(domain)]
                .read()
                .expect("shard lock poisoned");
            mtasts::conclude(fetched, shard.peek(domain), now)
        };
        match concluded {
            Ok(policy) => {
                self.store(domain.clone(), policy.clone(), record_id, now);
                (ResolvedPolicy::fetched(policy), Disposition::Fetched)
            }
            Err(answer) => answer,
        }
    }

    /// Stores a freshly fetched policy (shard write lock; the inner
    /// cache counts the completed fetch).
    pub fn store(
        &self,
        domain: DomainName,
        policy: mtasts::Policy,
        record_id: &str,
        now: SimInstant,
    ) {
        let idx = self.shard_index(&domain);
        self.shards[idx]
            .write()
            .expect("shard lock poisoned")
            .store(domain, policy, record_id, now);
    }

    /// Removes every expired entry across all shards; returns how many
    /// were dropped. This is the disposal path the decision deliberately
    /// does not take (stale fallback needs the entries).
    pub fn evict_expired(&self, now: SimInstant) -> usize {
        self.shards
            .iter()
            .map(|s| s.write().expect("shard lock poisoned").evict_expired(now))
            .sum()
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").len())
            .sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A canonical snapshot: every entry from every shard, sorted by
    /// domain — byte-identical to the equivalent single
    /// [`PolicyCache::snapshot`], whatever the shard count (the
    /// shard-merge determinism property).
    pub fn snapshot(&self) -> Vec<(DomainName, CachedPolicy)> {
        let mut entries: Vec<(DomainName, CachedPolicy)> = self
            .shards
            .iter()
            .flat_map(|s| s.read().expect("shard lock poisoned").snapshot())
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MetricsSnapshot {
    /// Total resolve calls answered (batch rows included).
    pub requests: u64,
    /// Decisions served from a fresh cache entry.
    pub hits: u64,
    /// Hits served through a failed record lookup (TOFU protection).
    pub hits_despite_dns: u64,
    /// Completed HTTPS policy fetches.
    pub fetches: u64,
    /// Batch rows that reused an earlier row's fetch of the same domain.
    pub coalesced: u64,
    /// RFC 8461 §3.3 stale fallbacks served.
    pub stale_fallbacks: u64,
    /// Fetches refused by admission control.
    pub shed: u64,
    /// Resolutions concluding MTA-STS does not apply.
    pub undeployed: u64,
    /// Resolutions hitting an invalid `_mta-sts` record.
    pub record_invalid: u64,
    /// Resolutions with no usable policy and no fallback.
    pub unavailable: u64,
    /// Entries dropped by expiry sweeps.
    pub evicted: u64,
    /// Expiry sweeps run.
    pub sweeps: u64,
    /// Live cache entries at snapshot time.
    pub cache_entries: u64,
}

impl MetricsSnapshot {
    fn count(&mut self, disposition: Disposition) {
        *match disposition {
            Disposition::Hit => &mut self.hits,
            Disposition::HitDespiteDns => &mut self.hits_despite_dns,
            Disposition::Fetched => &mut self.fetches,
            Disposition::Coalesced => &mut self.coalesced,
            Disposition::StaleFallback => &mut self.stale_fallbacks,
            Disposition::Shed => &mut self.shed,
            Disposition::Undeployed => &mut self.undeployed,
            Disposition::RecordInvalid => &mut self.record_invalid,
            Disposition::Unavailable => &mut self.unavailable,
        } += 1;
    }
}

/// What [`PolicyResolver::resolve_batch`] and [`PolicyResolver::sweep`]
/// mutate, behind the resolver's one service lock.
#[derive(Debug, Default)]
struct Service {
    /// The counters; [`PolicyResolver::metrics`] fills `cache_entries`.
    counters: MetricsSnapshot,
    /// Wall-clock latency per resolved row in microseconds. A service
    /// observable (the `/metrics` surface reports p50/p95/p99 from it),
    /// never part of any deterministic ledger — which is why it may
    /// hold real timings.
    latency_us: obsv::Histogram,
    /// The single logical admission bucket; `None` when admission is
    /// off.
    bucket: Option<TokenBucket>,
}

// ---------------------------------------------------------------------
// Resolver
// ---------------------------------------------------------------------

/// Admission control for the fetch leg.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Sustained fetches per second.
    pub rate_per_sec: f64,
    /// Burst capacity.
    pub burst: u32,
    /// A fetch whose planned admission instant would lie more than this
    /// far past its submit instant is shed instead of queued.
    pub max_delay: Duration,
}

/// Resolver tuning.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Cache shards (rounded up to a power of two).
    pub shards: usize,
    /// Fetch admission; `None` disables shedding entirely.
    pub admission: Option<AdmissionConfig>,
    /// Worker threads for [`PolicyResolver::resolve_batch`]
    /// (0 = [`netbase::default_scan_threads`]).
    pub threads: usize,
}

impl Default for ResolverConfig {
    fn default() -> ResolverConfig {
        ResolverConfig {
            shards: 16,
            admission: None,
            threads: 0,
        }
    }
}

impl ResolverConfig {
    fn effective_threads(&self) -> usize {
        match self.threads {
            0 => default_scan_threads(),
            n => n,
        }
    }
}

/// One row of the resolution ledger — serializable, so the batch
/// driver's output digests like the delivery ledger does.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Resolution {
    /// Submission index within the batch (stable across thread counts).
    pub seq: u64,
    /// The recipient domain resolved.
    pub domain: DomainName,
    /// How the resolution was satisfied.
    pub disposition: Disposition,
    /// The governing policy's mode, when one applies.
    pub mode: Option<Mode>,
    /// Whether §3.3 stale fallback supplied the policy.
    pub stale: bool,
    /// The instant the resolution was performed at (admission clock for
    /// fetch leaders, submit instant otherwise).
    pub resolved_unix_secs: i64,
}

/// FNV-1a 64-bit over the serialized resolution ledger — the
/// byte-identity witness the 1-vs-8-thread tests and `exp_resolver`
/// compare.
pub fn resolution_digest(rows: &[Resolution]) -> String {
    let payload = serde_json::to_string(rows).expect("ledger serializes");
    format!("{:016x}", fnv64(payload.as_bytes()))
}

/// The answer for a fetch that admission control refused.
fn shed() -> (ResolvedPolicy, Disposition) {
    (
        ResolvedPolicy::Unavailable {
            reason: "fetch shed by admission control".to_string(),
        },
        Disposition::Shed,
    )
}

fn row_for(
    seq: u64,
    domain: &DomainName,
    resolved: &ResolvedPolicy,
    disposition: Disposition,
    at: SimInstant,
) -> Resolution {
    let (mode, stale) = match resolved {
        ResolvedPolicy::Active { policy, stale, .. } => (Some(policy.mode), *stale),
        _ => (None, false),
    };
    Resolution {
        seq,
        domain: domain.clone(),
        disposition,
        mode,
        stale,
        resolved_unix_secs: at.unix_secs(),
    }
}

/// The policy-resolution service.
pub struct PolicyResolver {
    cfg: ResolverConfig,
    cache: ShardedPolicyCache,
    /// Taken once per batch and once per sweep, and held throughout.
    service: Mutex<Service>,
}

impl PolicyResolver {
    /// A resolver with an empty cache. `epoch` starts the admission
    /// bucket's clock.
    pub fn new(cfg: ResolverConfig, epoch: SimInstant) -> PolicyResolver {
        PolicyResolver::with_cache(cfg, epoch, Vec::new())
    }

    /// A resolver seeded from a cache snapshot (checkpoint resume, warm
    /// starts). Seeding never touches counters.
    pub fn with_cache(
        cfg: ResolverConfig,
        epoch: SimInstant,
        entries: Vec<(DomainName, CachedPolicy)>,
    ) -> PolicyResolver {
        let cache = ShardedPolicyCache::from_snapshot(entries, cfg.shards);
        let bucket = cfg
            .admission
            .as_ref()
            .map(|a| TokenBucket::new(a.rate_per_sec, a.burst, epoch));
        PolicyResolver {
            cfg,
            cache,
            service: Mutex::new(Service {
                bucket,
                ..Service::default()
            }),
        }
    }

    /// The underlying sharded cache (snapshots, sweeps, tests).
    pub fn cache(&self) -> &ShardedPolicyCache {
        &self.cache
    }

    /// A copy of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cache_entries: self.cache.len() as u64,
            ..self.service.lock().expect("service lock poisoned").counters
        }
    }

    /// The counters as an `obsv` collector — the `/metrics` surface
    /// renders this through [`obsv::export::prometheus_text`].
    pub fn metrics_collector(&self) -> obsv::Collector {
        let snap = self.metrics();
        let mut c = obsv::Collector::new();
        let pairs: [(&'static str, u64); 13] = [
            ("resolver.requests", snap.requests),
            ("resolver.hits", snap.hits),
            ("resolver.hits_despite_dns", snap.hits_despite_dns),
            ("resolver.fetches", snap.fetches),
            ("resolver.coalesced", snap.coalesced),
            ("resolver.stale_fallbacks", snap.stale_fallbacks),
            ("resolver.shed_requests", snap.shed),
            ("resolver.undeployed", snap.undeployed),
            ("resolver.record_invalid", snap.record_invalid),
            ("resolver.unavailable", snap.unavailable),
            ("resolver.evicted", snap.evicted),
            ("resolver.sweeps", snap.sweeps),
            ("resolver.cache_entries", snap.cache_entries),
        ];
        for (name, value) in pairs {
            *c.counters.entry(name).or_default() += value;
        }
        let service = self.service.lock().expect("service lock poisoned");
        if service.latency_us.count > 0 {
            c.histograms
                .insert("resolver.latency_us", service.latency_us.clone());
        }
        c
    }

    /// The Prometheus text exposition of the service counters.
    pub fn metrics_text(&self) -> String {
        obsv::export::prometheus_text(&self.metrics_collector())
    }

    /// Removes expired entries (the disposal path the decision logic
    /// deliberately does not take).
    pub fn sweep(&self, now: SimInstant) -> usize {
        let mut service = self.service.lock().expect("service lock poisoned");
        let evicted = self.cache.evict_expired(now);
        service.counters.sweeps += 1;
        service.counters.evicted += evicted as u64;
        obsv::counter!("resolver.sweep_evicted", evicted as u64);
        evicted
    }

    /// Deterministic batch resolution: resolves `domains` (a wave of
    /// requests submitted at `submitted`) and returns one ledger row
    /// per request, in submission order.
    ///
    /// Within the batch, duplicate cold domains coalesce onto the first
    /// occurrence's fetch (single-flight). Fetch admission instants are
    /// planned once on the logical bucket, so the ledger — and
    /// [`resolution_digest`] — is byte-identical at every thread count.
    /// The service lock is held for the whole batch: a concurrent batch
    /// waits for this one and then finds its fetched policies cached.
    pub fn resolve_batch<S: PolicySource>(
        &self,
        source: &S,
        domains: &[DomainName],
        submitted: SimInstant,
    ) -> Vec<Resolution> {
        let batch_started = std::time::Instant::now();
        let mut service = self.service.lock().expect("service lock poisoned");
        let service = &mut *service;
        let threads = self.cfg.effective_threads();
        service.counters.requests += domains.len() as u64;

        // Phase A (parallel, pure reads): record lookup + step one of
        // the decision per request. No writes happen anywhere in this
        // phase, so every thread count observes the same pre-wave cache.
        let classified: Vec<Classified> = map_sharded(threads, domains, |_, domain| {
            let txts = source.record_txts(domain, submitted);
            self.cache.classify(domain, txts.as_deref(), submitted)
        });

        // Phase B (sequential): every request a fresh entry did not
        // serve needs a leader — the first occurrence of its domain
        // leads, later occurrences coalesce. Leaders the decision sent
        // to the HTTPS leg get planned admission instants.
        let mut leader_of: HashMap<&DomainName, usize> = HashMap::new();
        let mut leaders: Vec<usize> = Vec::new();
        for (i, class) in classified.iter().enumerate() {
            if !class.is_hit() {
                leader_of.entry(&domains[i]).or_insert_with(|| {
                    leaders.push(i);
                    i
                });
            }
        }
        let fetch_leaders: Vec<usize> = leaders
            .iter()
            .copied()
            .filter(|&i| matches!(&classified[i], Classified::Fetch(_)))
            .collect();
        // Admission plan: one instant per fetch leader, from the single
        // logical bucket (deterministic per-shard clocks, PR-3 style).
        // `None` = shed.
        let admissions: Vec<Option<SimInstant>> = match (&mut service.bucket, &self.cfg.admission) {
            (Some(bucket), Some(adm)) => fetch_leaders
                .iter()
                .map(|_| {
                    let wait = bucket.time_until_available(submitted);
                    if wait > adm.max_delay {
                        None
                    } else {
                        Some(bucket.acquire_at(submitted))
                    }
                })
                .collect(),
            _ => fetch_leaders.iter().map(|_| Some(submitted)).collect(),
        };

        // Phase C (parallel, pure in `(domain, instant)`): the fetches.
        let fetch_inputs: Vec<(usize, SimInstant)> = fetch_leaders
            .iter()
            .zip(&admissions)
            .filter_map(|(&i, at)| at.map(|at| (i, at)))
            .collect();
        let fetched: Vec<Result<String, String>> =
            map_sharded(threads, &fetch_inputs, |_, &(i, at)| {
                source.fetch_policy(&domains[i], at)
            });
        let mut fetch_result: HashMap<usize, (Result<String, String>, SimInstant)> = fetch_inputs
            .iter()
            .zip(fetched)
            .map(|(&(i, at), body)| (i, (body, at)))
            .collect();
        let shed_leaders: std::collections::HashSet<usize> = fetch_leaders
            .iter()
            .zip(&admissions)
            .filter_map(|(&i, at)| at.is_none().then_some(i))
            .collect();

        // Phase D (sequential, submission order): conclude leaders,
        // fold stores into the cache, then emit rows — coalesced
        // followers reuse their leader's resolution.
        let mut leader_outcome: HashMap<usize, (ResolvedPolicy, Disposition, SimInstant)> =
            HashMap::new();
        for &i in &leaders {
            let domain = &domains[i];
            let ((resolved, disposition), at) = match &classified[i] {
                _ if shed_leaders.contains(&i) => (shed(), submitted),
                Classified::Resolved(resolved, disposition) => {
                    ((resolved.clone(), *disposition), submitted)
                }
                Classified::Fetch(record_id) => {
                    let (body, at) = fetch_result.remove(&i).expect("fetch ran for leader");
                    (self.cache.conclude(domain, record_id, body, at), at)
                }
            };
            leader_outcome.insert(i, (resolved, disposition, at));
        }

        let mut rows = Vec::with_capacity(domains.len());
        for (i, class) in classified.iter().enumerate() {
            let domain = &domains[i];
            let row = match class {
                Classified::Resolved(resolved, disposition) if disposition.is_hit() => {
                    service.counters.count(*disposition);
                    row_for(i as u64, domain, resolved, *disposition, submitted)
                }
                _ => {
                    let leader = leader_of[domain];
                    let (resolved, disposition, at) =
                        leader_outcome.get(&leader).expect("leader resolved");
                    if leader == i {
                        service.counters.count(*disposition);
                        row_for(i as u64, domain, resolved, *disposition, *at)
                    } else {
                        service.counters.count(Disposition::Coalesced);
                        row_for(i as u64, domain, resolved, Disposition::Coalesced, *at)
                    }
                }
            };
            rows.push(row);
        }
        // Latency accounting: one sample per row at the batch's mean
        // per-row wall cost (individual rows aren't separately timed —
        // they run fused inside shard workers). Service observable only;
        // the ledger above is already sealed.
        if !rows.is_empty() {
            let us = u64::try_from(batch_started.elapsed().as_micros()).unwrap_or(u64::MAX);
            let mean = us / rows.len() as u64;
            for _ in 0..rows.len() {
                service.latency_us.record(mean);
            }
        }
        rows
    }
}

// ---------------------------------------------------------------------
// Daemon loop + /metrics
// ---------------------------------------------------------------------

/// Daemon tuning.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Simulated seconds between ticks.
    pub tick: Duration,
    /// Run an expiry sweep every this many ticks (0 = never).
    pub sweep_every: u64,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            tick: Duration::minutes(1),
            sweep_every: 60,
        }
    }
}

/// Rolling daemon health, updated once per tick and served at
/// `/healthz`. Rides the flight recorder's [`obsv::timeseries::WindowSeries`]:
/// each tick folds its counter deltas into a tick-keyed window and sets
/// the cache-occupancy gauge, so "shed rate over the last window" is the
/// most recent window's delta, not a lifetime total.
#[derive(Debug, Default)]
pub struct DaemonHealth {
    /// Tick-keyed windows of per-tick counter deltas + gauges.
    pub windows: obsv::timeseries::WindowSeries,
    /// Ticks completed.
    pub ticks: u64,
    /// Ticks since the last expiry sweep ran.
    pub last_sweep_age_ticks: u64,
    /// Counter snapshot at the previous tick (delta base).
    last_shed: u64,
    last_requests: u64,
}

impl DaemonHealth {
    fn observe(&mut self, snap: &MetricsSnapshot, swept: bool) {
        let key = self.ticks as i64;
        let mut delta = obsv::timeseries::Window::default();
        let shed = snap.shed.saturating_sub(self.last_shed);
        let requests = snap.requests.saturating_sub(self.last_requests);
        if shed > 0 {
            delta.counters.insert("resolver.shed_requests", shed);
        }
        if requests > 0 {
            delta.counters.insert("resolver.requests", requests);
        }
        delta
            .gauges
            .insert("resolver.cache_entries", snap.cache_entries);
        self.windows.fold(key, &delta);
        self.last_shed = snap.shed;
        self.last_requests = snap.requests;
        self.ticks += 1;
        self.last_sweep_age_ticks = if swept {
            0
        } else {
            self.last_sweep_age_ticks + 1
        };
    }

    /// The `/healthz` body: current cache occupancy, last-window shed
    /// rate, and sweep recency, as one JSON object.
    pub fn to_json(&self) -> String {
        let last = self
            .windows
            .iter()
            .last()
            .map(|(_, w)| w.clone())
            .unwrap_or_default();
        let shed = last.counter("resolver.shed_requests");
        let requests = last.counter("resolver.requests");
        let cache_entries = last.gauge("resolver.cache_entries").unwrap_or(0);
        // Degraded when the last window shed more than half its load.
        let status = if requests > 0 && shed * 2 > requests {
            "degraded"
        } else {
            "ok"
        };
        format!(
            "{{\"status\":\"{status}\",\"ticks\":{},\"cache_entries\":{cache_entries},\
             \"shed_last_window\":{shed},\"requests_last_window\":{requests},\
             \"last_sweep_age_ticks\":{}}}\n",
            self.ticks, self.last_sweep_age_ticks
        )
    }
}

/// The long-running resolution service: a shared [`PolicyResolver`]
/// plus a deterministic tick loop (resolve the queued batch, advance
/// the clock, periodically sweep expired entries) and a `/metrics` +
/// `/healthz` endpoint pair served over TCP.
pub struct ResolverDaemon {
    cfg: DaemonConfig,
    resolver: Arc<PolicyResolver>,
    now: SimInstant,
    ticks: u64,
    health: Arc<Mutex<DaemonHealth>>,
}

impl ResolverDaemon {
    /// A daemon over an existing resolver, starting its clock at `now`.
    pub fn new(
        cfg: DaemonConfig,
        resolver: Arc<PolicyResolver>,
        now: SimInstant,
    ) -> ResolverDaemon {
        ResolverDaemon {
            cfg,
            resolver,
            now,
            ticks: 0,
            health: Arc::new(Mutex::new(DaemonHealth::default())),
        }
    }

    /// The shared resolver (hand clones to the serving thread).
    pub fn resolver(&self) -> Arc<PolicyResolver> {
        Arc::clone(&self.resolver)
    }

    /// The shared health state (hand clones to the serving thread).
    pub fn health(&self) -> Arc<Mutex<DaemonHealth>> {
        Arc::clone(&self.health)
    }

    /// The daemon's current simulated instant.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// One daemon tick: resolve the batch of requests that arrived
    /// since the last tick, advance the clock, and sweep expired
    /// entries on the configured cadence. Returns the tick's ledger.
    pub fn tick<S: PolicySource>(
        &mut self,
        source: &S,
        requests: &[DomainName],
    ) -> Vec<Resolution> {
        let rows = self.resolver.resolve_batch(source, requests, self.now);
        self.ticks += 1;
        let swept = self.cfg.sweep_every != 0 && self.ticks.is_multiple_of(self.cfg.sweep_every);
        if swept {
            self.resolver.sweep(self.now);
        }
        if let Ok(mut health) = self.health.lock() {
            health.observe(&self.resolver.metrics(), swept);
        }
        self.now += self.cfg.tick;
        rows
    }

    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves `/metrics` — the
    /// resolver's counters in Prometheus text exposition — answering up
    /// to `max_requests` connections before returning (`None` = serve
    /// forever). Returns the bound local address via the callback so
    /// callers using port 0 learn the real port before serving starts.
    pub fn serve_metrics(
        resolver: Arc<PolicyResolver>,
        addr: &str,
        max_requests: Option<usize>,
        on_bound: impl FnOnce(std::net::SocketAddr),
    ) -> std::io::Result<()> {
        ResolverDaemon::serve(resolver, Arc::default(), addr, max_requests, on_bound)
    }

    /// Binds `addr` and serves both endpoints: `/metrics` (Prometheus
    /// exposition, latency quantiles included) and `/healthz` (cache
    /// occupancy, last-window shed rate, sweep recency — the state
    /// [`ResolverDaemon::tick`] maintains in the shared
    /// [`DaemonHealth`]). Answers up to `max_requests` connections
    /// before returning (`None` = serve forever); reports the bound
    /// address via `on_bound` so port-0 callers learn the real port.
    pub fn serve(
        resolver: Arc<PolicyResolver>,
        health: Arc<Mutex<DaemonHealth>>,
        addr: &str,
        max_requests: Option<usize>,
        on_bound: impl FnOnce(std::net::SocketAddr),
    ) -> std::io::Result<()> {
        use std::io::{Read as _, Write as _};
        let listener = std::net::TcpListener::bind(addr)?;
        on_bound(listener.local_addr()?);
        let mut served = 0usize;
        for stream in listener.incoming() {
            let mut stream = stream?;
            let mut buf = [0u8; 1024];
            let n = stream.read(&mut buf).unwrap_or(0);
            let request = String::from_utf8_lossy(&buf[..n]);
            let path = request
                .lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(1))
                .unwrap_or("/");
            let (status, content_type, body) = match path {
                "/metrics" => (
                    "200 OK",
                    "text/plain; version=0.0.4",
                    resolver.metrics_text(),
                ),
                "/healthz" => {
                    let body = health
                        .lock()
                        .map(|h| h.to_json())
                        .unwrap_or_else(|_| String::from("{\"status\":\"poisoned\"}\n"));
                    ("200 OK", "application/json", body)
                }
                _ => (
                    "404 Not Found",
                    "text/plain; version=0.0.4",
                    String::from("see /metrics or /healthz\n"),
                ),
            };
            let response = format!(
                "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(response.as_bytes());
            served += 1;
            if matches!(max_requests, Some(max) if served >= max) {
                break;
            }
        }
        Ok(())
    }
}
