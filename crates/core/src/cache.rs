//! The sender-side policy cache: trust-on-first-use with `max_age` expiry
//! and `id`-triggered refresh (RFC 8461 §3.3, paper §2.4).
//!
//! Senders cache a fetched policy for up to `max_age` seconds. On each
//! delivery they look up the `_mta-sts` record; when the record's `id`
//! differs from the cached one they refetch over HTTPS. When the *record*
//! lookup fails but a non-expired cached policy exists, the cached policy
//! still applies — that property is what makes a DNS-blocking attacker
//! unable to downgrade an already-seen domain (and what makes improper
//! removal, §2.6, cause lingering delivery failures).

use crate::engine::{classify, conclude, Classified, Disposition, ResolvedPolicy};
use crate::policy::Policy;
use netbase::{DomainName, SimInstant};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A cached policy and its provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedPolicy {
    /// The policy document.
    pub policy: Policy,
    /// The record `id` in effect when the policy was fetched.
    pub record_id: String,
    /// When the policy was fetched.
    pub fetched_at: SimInstant,
}

impl CachedPolicy {
    /// When this entry expires (`fetched_at + max_age`).
    ///
    /// Saturates: a hostile or nonsensical `max_age` (up to `u64::MAX`)
    /// must clamp to "the end of simulated time", never wrap into the
    /// past — a wrapped expiry would silently drop downgrade protection.
    pub fn expires_at(&self) -> SimInstant {
        let age_secs = i64::try_from(self.policy.max_age).unwrap_or(i64::MAX);
        SimInstant::from_unix_secs(self.fetched_at.unix_secs().saturating_add(age_secs))
    }

    /// Whether the entry is still fresh at `now`. `max_age = 0` entries
    /// are never fresh (the strict `<` makes the expiry boundary
    /// exclusive), so they can never be served from cache.
    pub fn is_fresh(&self, now: SimInstant) -> bool {
        now < self.expires_at()
    }
}

/// The sender's policy cache.
///
/// Instrumented with hit/refresh counters for the `cache` benchmark and the
/// always-refetch ablation in DESIGN.md. `hits` counts resolutions served
/// from a fresh entry; `fetches` counts **completed** fetches (a
/// [`store`]) — a fetch whose HTTPS leg fails does not inflate the
/// counter, so `stats()` stays reconcilable with TLSRPT/ledger totals.
///
/// [`store`]: PolicyCache::store
#[derive(Debug, Clone, Default)]
pub struct PolicyCache {
    entries: HashMap<DomainName, CachedPolicy>,
    hits: u64,
    fetches: u64,
}

impl PolicyCache {
    /// An empty cache.
    pub fn new() -> PolicyCache {
        PolicyCache::default()
    }

    /// Resolves `domain` at `now`: the two-step decision
    /// ([`classify`], then [`conclude`] on the HTTPS `fetch` it asks
    /// for) composed with [`store`]. `record_txts` is the `_mta-sts` TXT
    /// lookup (`None` = the lookup failed). `fetch` runs only when the
    /// decision needs the policy document. Counts cache uses; a fetched
    /// policy is counted by the store.
    ///
    /// Expired entries are **never** evicted here: when a DNS outage
    /// coincides with expiry the entry is exactly what the RFC 8461 §3.3
    /// stale fallback needs, so disposal belongs to the caller
    /// ([`evict`] / [`evict_expired`]), not to the decision.
    ///
    /// [`store`]: PolicyCache::store
    /// [`evict`]: PolicyCache::evict
    /// [`evict_expired`]: PolicyCache::evict_expired
    pub fn resolve(
        &mut self,
        domain: &DomainName,
        record_txts: Option<&[String]>,
        fetch: impl FnOnce() -> Result<String, String>,
        now: SimInstant,
    ) -> (ResolvedPolicy, Disposition) {
        let record_id = match classify(record_txts, self.entries.get(domain), now) {
            Classified::Resolved(resolved, disposition) => {
                if disposition.is_hit() {
                    self.hits += 1;
                }
                return (resolved, disposition);
            }
            Classified::Fetch(record_id) => record_id,
        };
        match conclude(fetch(), self.entries.get(domain), now) {
            Ok(policy) => {
                self.store(domain.clone(), policy.clone(), &record_id, now);
                (ResolvedPolicy::fetched(policy), Disposition::Fetched)
            }
            Err(answer) => answer,
        }
    }

    /// Stores a freshly fetched policy. This is the fetch-completion
    /// point: the `fetches` counter increments here, not when a fetch is
    /// merely *recommended*, so failed HTTPS legs never inflate it.
    pub fn store(&mut self, domain: DomainName, policy: Policy, record_id: &str, now: SimInstant) {
        self.fetches += 1;
        self.entries.insert(
            domain,
            CachedPolicy {
                policy,
                record_id: record_id.to_string(),
                fetched_at: now,
            },
        );
    }

    /// Reads the raw entry (tests, instrumentation).
    pub fn peek(&self, domain: &DomainName) -> Option<&CachedPolicy> {
        self.entries.get(domain)
    }

    /// Removes the entry for `domain`.
    pub fn evict(&mut self, domain: &DomainName) -> bool {
        self.entries.remove(domain).is_some()
    }

    /// Removes every expired entry; returns how many were dropped.
    pub fn evict_expired(&mut self, now: SimInstant) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.is_fresh(now));
        before - self.entries.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(cache uses, completed fetches)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.fetches)
    }

    /// A serializable snapshot of every entry, sorted by domain so the
    /// bytes are canonical (checkpoint digests depend on it). Counters
    /// are deliberately excluded: they are run-local instrumentation,
    /// not protocol state.
    pub fn snapshot(&self) -> Vec<(DomainName, CachedPolicy)> {
        let mut entries: Vec<(DomainName, CachedPolicy)> = self
            .entries
            .iter()
            .map(|(d, e)| (d.clone(), e.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Rebuilds a cache from a [`snapshot`](PolicyCache::snapshot).
    /// Duplicate domains keep the last entry; counters start at zero.
    pub fn from_snapshot(entries: Vec<(DomainName, CachedPolicy)>) -> PolicyCache {
        PolicyCache {
            entries: entries.into_iter().collect(),
            hits: 0,
            fetches: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Mode, MxPattern, Policy};
    use netbase::{Duration, SimDate};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn policy(max_age: u64) -> Policy {
        Policy::new(
            Mode::Enforce,
            max_age,
            vec![MxPattern::parse("mx.example.com").unwrap()],
        )
    }

    fn t0() -> SimInstant {
        SimDate::ymd(2024, 6, 1).at_midnight()
    }

    fn record(id: &str) -> Vec<String> {
        vec![format!("v=STSv1; id={id};")]
    }

    /// Step one of the decision against `cache`'s entry for `domain`.
    fn decide(
        cache: &PolicyCache,
        domain: &str,
        txts: Option<&[String]>,
        now: SimInstant,
    ) -> Classified {
        classify(txts, cache.peek(&n(domain)), now)
    }

    const DOC: &str = "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 3600\r\n";

    #[test]
    fn first_contact_fetches() {
        let cache = PolicyCache::new();
        assert_eq!(
            decide(&cache, "example.com", Some(&record("id1")), t0()),
            Classified::Fetch("id1".to_string())
        );
    }

    #[test]
    fn fresh_entry_with_same_id_is_used() {
        let mut cache = PolicyCache::new();
        cache.store(n("example.com"), policy(604_800), "id1", t0());
        let later = t0() + Duration::days(3);
        let (resolved, disposition) = cache.resolve(
            &n("example.com"),
            Some(&record("id1")),
            || panic!("a fresh hit never fetches"),
            later,
        );
        assert_eq!(disposition, Disposition::Hit);
        assert_eq!(
            resolved,
            ResolvedPolicy::Active {
                policy: policy(604_800),
                from_cache: true,
                stale: false,
            }
        );
        assert_eq!(cache.peek(&n("example.com")).unwrap().record_id, "id1");
    }

    #[test]
    fn id_change_triggers_refetch() {
        let mut cache = PolicyCache::new();
        cache.store(n("example.com"), policy(604_800), "id1", t0());
        assert_eq!(
            decide(
                &cache,
                "example.com",
                Some(&record("id2")),
                t0() + Duration::hours(1)
            ),
            Classified::Fetch("id2".to_string())
        );
    }

    #[test]
    fn expiry_triggers_refetch() {
        let mut cache = PolicyCache::new();
        cache.store(n("example.com"), policy(3600), "id1", t0());
        assert_eq!(
            decide(
                &cache,
                "example.com",
                Some(&record("id1")),
                t0() + Duration::hours(2)
            ),
            Classified::Fetch("id1".to_string())
        );
    }

    #[test]
    fn dns_outage_does_not_downgrade() {
        // Record lookup fails, but the cached policy is fresh: MTA-STS
        // still applies (TOFU downgrade protection).
        let mut cache = PolicyCache::new();
        cache.store(n("example.com"), policy(604_800), "id1", t0());
        let decision = decide(&cache, "example.com", None, t0() + Duration::days(1));
        assert!(matches!(
            decision,
            Classified::Resolved(_, Disposition::HitDespiteDns)
        ));
    }

    #[test]
    fn record_lookup_failure_at_expiry_keeps_the_entry_governing() {
        // Regression (stale-fallback erasure): an old decision evicted
        // the entry when the record lookup failed past expiry, so a DNS
        // outage coinciding with expiry erased exactly the entry the
        // §3.3 stale fallback needs. The retained entry now governs as a
        // stale fallback; disposal is the caller's (`evict_expired`).
        let mut cache = PolicyCache::new();
        cache.store(n("example.com"), policy(3600), "id1", t0());
        let (resolved, disposition) = cache.resolve(
            &n("example.com"),
            None,
            || panic!("no readable record: no fetch"),
            t0() + Duration::days(1),
        );
        assert_eq!(disposition, Disposition::StaleFallback);
        assert!(matches!(
            resolved,
            ResolvedPolicy::Active {
                from_cache: true,
                stale: true,
                ..
            }
        ));
        assert!(
            cache.peek(&n("example.com")).is_some(),
            "expired entry must survive the decision for stale fallback"
        );
        // Explicit disposal still works.
        assert_eq!(cache.evict_expired(t0() + Duration::days(1)), 1);
        assert!(cache.peek(&n("example.com")).is_none());
    }

    #[test]
    fn eviction() {
        let mut cache = PolicyCache::new();
        cache.store(n("a.com"), policy(3600), "1", t0());
        cache.store(n("b.com"), policy(604_800), "1", t0());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evict_expired(t0() + Duration::hours(2)), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.evict(&n("b.com")));
        assert!(cache.is_empty());
    }

    #[test]
    fn stats_count_uses_and_completed_fetches() {
        let mut cache = PolicyCache::new();
        let a = n("a.com");
        let ok = || Ok(DOC.to_string());
        let down = || Err("tcp reset".to_string());
        let _ = cache.resolve(&a, Some(&record("1")), ok, t0()); // fetched
        let _ = cache.resolve(&a, Some(&record("1")), ok, t0()); // hit
        let _ = cache.resolve(&a, Some(&record("2")), down, t0()); // failed refresh
                                                                   // Only the completed fetch counts; the failed refresh doesn't.
        assert_eq!(cache.stats(), (1, 1));
        let _ = cache.resolve(&a, Some(&record("2")), ok, t0()); // refetched
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn failed_fetch_does_not_inflate_fetch_counter() {
        // Regression (counter drift): a fetch that fails after the
        // decision asked for one must not shift `stats()` away from the
        // TLSRPT/ledger totals — the counter moves on `store`.
        let mut cache = PolicyCache::new();
        for _ in 0..5 {
            let (resolved, disposition) = cache.resolve(
                &n("a.com"),
                Some(&record("1")),
                || Err("tcp reset".to_string()),
                t0(),
            );
            assert_eq!(disposition, Disposition::Unavailable);
            assert!(matches!(resolved, ResolvedPolicy::Unavailable { .. }));
        }
        assert_eq!(cache.stats(), (0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn max_age_zero_is_never_fresh() {
        let mut cache = PolicyCache::new();
        cache.store(n("a.com"), policy(0), "1", t0());
        // Not even at the very instant it was stored.
        assert_eq!(
            decide(&cache, "a.com", Some(&record("1")), t0()),
            Classified::Fetch("1".to_string())
        );
        // A record outage never serves it as a fresh hit: the expired
        // entry survives and governs only as a §3.3 stale fallback.
        assert!(matches!(
            decide(&cache, "a.com", None, t0()),
            Classified::Resolved(_, Disposition::StaleFallback)
        ));
        assert!(cache.peek(&n("a.com")).is_some());
    }

    #[test]
    fn huge_max_age_saturates_instead_of_overflowing() {
        // u32::MAX seconds (~136 years) and u64::MAX (which does not even
        // fit i64) must both clamp, not wrap into the past.
        for max_age in [u64::from(u32::MAX), u64::MAX] {
            let mut cache = PolicyCache::new();
            cache.store(n("a.com"), policy(max_age), "1", t0());
            let entry = cache.peek(&n("a.com")).unwrap().clone();
            assert!(
                entry.expires_at() > t0(),
                "max_age={max_age} wrapped into the past"
            );
            let far_future = t0() + Duration::days(365 * 100);
            assert!(entry.is_fresh(far_future), "max_age={max_age}");
            assert!(matches!(
                decide(&cache, "a.com", Some(&record("1")), far_future),
                Classified::Resolved(_, Disposition::Hit)
            ));
        }
    }

    #[test]
    fn expiry_boundary_is_exclusive() {
        let mut cache = PolicyCache::new();
        cache.store(n("a.com"), policy(3600), "1", t0());
        let exactly = t0() + Duration::seconds(3600);
        // At exactly max_age the entry is expired (strict <).
        assert_eq!(
            decide(&cache, "a.com", Some(&record("1")), exactly),
            Classified::Fetch("1".to_string())
        );
    }
}
