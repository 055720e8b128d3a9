//! The change-driven rescan cache: full-study cost proportional to the
//! number of per-domain *changes*, not `dates × domains`.
//!
//! The ecosystem layer already certifies what changed between snapshot
//! dates: [`ecosystem::DomainFingerprint`] hashes every scan-visible
//! input per component (DNS record set, policy side, MX side), and
//! [`ecosystem::IncrementalWorld`] rebuilds only the dirty domains. This
//! module adds the scanner half — a content-addressed cache of prior
//! [`DomainScan`]s keyed on that fingerprint, so an unchanged domain's
//! scan is reused wholesale (the cached `Arc` itself: a scan carries no
//! date) and a partially changed domain re-runs only its dirty stages.
//! The monthly campaign ([`crate::supervisor`]) scans every adopter
//! through this cache; the weekly series keeps its own observation cache
//! keyed on the `(record, mx)` components and reports the same
//! [`CacheStats`].
//!
//! # Why reuse is byte-identical
//!
//! A scan is a pure function of `(world, domain, admitted instant,
//! config)` (the determinism contract), and each stage forks its own
//! RNG scope, so stages are independently pure. The
//! fingerprint component covering a stage hashes every world input that
//! stage can observe — so "component unchanged" implies "stage output
//! unchanged", and replaying the cached output *is* re-running the
//! stage. Certificates do not break this: scan outputs only carry cert
//! *verdicts*, and an installed chain's verdict does not move with the
//! date (a valid leaf lives as long as its issuing CA, an expired one
//! stays expired, an untrusted one fails on its anchor).
//!
//! # The RFC 8461 short-circuit
//!
//! RFC 8461 §3.3 lets a sender keep applying its cached policy until
//! the record `id` changes. The scanner honours the same discipline:
//! when the record component is clean and only the MX side is dirty,
//! the HTTPS policy fetch is skipped and the cached policy reused; a
//! *changed* record id invalidates everything (the sender would
//! re-fetch, so the scanner does too).
//!
//! # When the cache must stand down
//!
//! - **Transient faults** ([`World::has_transient_faults`]): fault
//!   draws are keyed on the admitted instant, so an unchanged
//!   configuration does not imply an unchanged observation. Every scan
//!   is forced and nothing is cached.
//! - **Active attackers** ([`World::has_attacker`]): attack windows are
//!   likewise instant-keyed; a cache hit must never mask a domain
//!   inside an attack window, so the cache is bypassed entirely while
//!   an attack schedule is installed.
//! - **Throttled campaigns**: entries are keyed to the midnight
//!   admitted-instant class; the campaign is unthrottled by
//!   construction, and the cache is not consulted for any other class.

use crate::scan::{
    consistency_mismatches, mx_stage, policy_stage, resolve_policy_ip, scan_domain, stage_rng,
    ScanConfig,
};
use crate::taxonomy::{DomainScan, ScanAttempts};
use ecosystem::{DomainFingerprint, Ecosystem};
use netbase::{DomainName, SimInstant};
use serde::{Deserialize, Serialize};
use simnet::World;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Cache accounting for an incremental run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Scans reused wholesale (every fingerprint component unchanged).
    pub full_hits: u64,
    /// Scans that reused the clean stages and re-ran only dirty ones —
    /// including the RFC 8461 id short-circuit (record clean, HTTPS
    /// fetch skipped).
    pub partial_hits: u64,
    /// Full scans: first sight of a domain, or a dirty record id.
    pub misses: u64,
    /// Full scans forced past the cache (transient faults or an active
    /// attack schedule) — never inserted.
    pub forced: u64,
}

impl CacheStats {
    /// Total domains that went through the cache.
    pub fn total(&self) -> u64 {
        self.full_hits + self.partial_hits + self.misses + self.forced
    }

    pub(crate) fn count(&mut self, kind: HitKind) {
        self.count_many(kind, 1);
    }

    /// Counts `n` occurrences of `kind` at once — the O(changes) weekly
    /// driver accounts for its untouched majority in bulk instead of
    /// looping a per-domain increment.
    pub(crate) fn count_many(&mut self, kind: HitKind, n: u64) {
        match kind {
            HitKind::Full => {
                self.full_hits += n;
                obsv::counter!("cache_full_hits_total", n);
            }
            HitKind::Partial => {
                self.partial_hits += n;
                obsv::counter!("cache_partial_hits_total", n);
            }
            HitKind::Miss => {
                self.misses += n;
                obsv::counter!("cache_misses_total", n);
            }
            HitKind::Forced => {
                self.forced += n;
                obsv::counter!("cache_stand_downs_total", n);
            }
        }
    }
}

/// How one domain's scan was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HitKind {
    Full,
    Partial,
    Miss,
    Forced,
}

/// What the fingerprint diff says must re-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanPlan {
    /// Every component clean: share the cached scan.
    ReuseAll,
    /// Record clean; re-run exactly the dirty stages.
    Stages { policy: bool, mx: bool },
    /// No prior entry, or the record id changed (RFC 8461: a changed id
    /// invalidates the cached policy, so everything re-runs).
    FullScan,
}

/// Decides what to re-run for one domain. Pure — this is the property
/// the single-component-flip tests pin down.
pub(crate) fn plan_for(
    prior: Option<&DomainFingerprint>,
    current: &DomainFingerprint,
    forced: bool,
) -> ScanPlan {
    if forced {
        return ScanPlan::FullScan;
    }
    let Some(prior) = prior else {
        return ScanPlan::FullScan;
    };
    if prior.record != current.record {
        return ScanPlan::FullScan;
    }
    if prior.policy == current.policy && prior.mx == current.mx {
        return ScanPlan::ReuseAll;
    }
    ScanPlan::Stages {
        policy: prior.policy != current.policy,
        mx: prior.mx != current.mx,
    }
}

/// One cached domain observation.
#[derive(Debug, Clone)]
struct CacheEntry {
    fp: DomainFingerprint,
    scan: Arc<DomainScan>,
    policy_ip: Option<Ipv4Addr>,
}

/// The content-addressed scan cache: one slot per population index, all
/// entries keyed to one `ScanConfig` and the midnight admitted-instant
/// class.
pub(crate) struct ScanCache {
    config: ScanConfig,
    entries: Vec<Option<CacheEntry>>,
}

impl ScanCache {
    pub(crate) fn new(eco: &Ecosystem, config: ScanConfig) -> ScanCache {
        ScanCache {
            config,
            entries: vec![None; eco.population.domains.len()],
        }
    }

    /// Scans `domain` through the cache. `fp` is the domain's current
    /// fingerprint and `index` its population slot; `forced` bypasses
    /// the cache (see module docs). Returns the scan, the resolved
    /// policy IP, and how the result was satisfied.
    pub(crate) fn scan(
        &self,
        world: &World,
        index: usize,
        domain: &DomainName,
        now: SimInstant,
        fp: &DomainFingerprint,
        forced: bool,
    ) -> (Arc<DomainScan>, Option<Ipv4Addr>, HitKind) {
        let prior = self.entries[index].as_ref();
        match plan_for(prior.map(|e| &e.fp), fp, forced) {
            ScanPlan::ReuseAll => {
                let entry = prior.expect("ReuseAll implies a prior entry");
                (Arc::clone(&entry.scan), entry.policy_ip, HitKind::Full)
            }
            ScanPlan::Stages { policy, mx } => {
                let entry = prior.expect("Stages implies a prior entry");
                let rng = stage_rng(&self.config, domain);
                let (policy_result, cname, policy_attempts, ip) = if policy {
                    let stage = policy_stage(world, domain, now, &self.config, &rng);
                    let ip = resolve_policy_ip(world, domain, now, &self.config);
                    (stage.policy, stage.cname, stage.attempts, ip)
                } else {
                    (
                        entry.scan.policy.clone(),
                        entry.scan.policy_cname.clone(),
                        entry.scan.attempts.policy,
                        entry.policy_ip,
                    )
                };
                let (mx_records, ns_records, mx_verdicts, mx_attempts) = if mx {
                    let stage = mx_stage(world, domain, now, &self.config, &rng);
                    (
                        stage.mx_records,
                        stage.ns_records,
                        stage.mx_verdicts,
                        stage.attempts,
                    )
                } else {
                    (
                        entry.scan.mx_records.clone(),
                        entry.scan.ns_records.clone(),
                        entry.scan.mx_verdicts.clone(),
                        entry.scan.attempts.mx,
                    )
                };
                let mismatches = consistency_mismatches(&policy_result, &mx_records);
                let scan = DomainScan {
                    domain: domain.clone(),
                    record: entry.scan.record.clone(),
                    policy: policy_result,
                    policy_cname: cname,
                    mx_records,
                    ns_records,
                    mx_verdicts,
                    mismatches,
                    attempts: ScanAttempts {
                        record: entry.scan.attempts.record,
                        policy: policy_attempts,
                        mx: mx_attempts,
                    },
                };
                (Arc::new(scan), ip, HitKind::Partial)
            }
            ScanPlan::FullScan => {
                let scan = scan_domain(world, domain, now, &self.config);
                let ip = resolve_policy_ip(world, domain, now, &self.config);
                let kind = if forced {
                    HitKind::Forced
                } else {
                    HitKind::Miss
                };
                (Arc::new(scan), ip, kind)
            }
        }
    }

    /// Records a result, or a checkpointed one. A forced date's scans
    /// are never inserted: their observations are instant-keyed (faults,
    /// attacks) and must not outlive the instant that produced them. A
    /// full hit re-inserts the slot's own fingerprint, `Arc` and policy
    /// IP, which changes nothing.
    pub(crate) fn insert(
        &mut self,
        index: usize,
        fp: DomainFingerprint,
        scan: &Arc<DomainScan>,
        policy_ip: Option<Ipv4Addr>,
        forced: bool,
    ) {
        if forced {
            return;
        }
        self.entries[index] = Some(CacheEntry {
            fp,
            scan: Arc::clone(scan),
            policy_ip,
        });
    }
}

/// Whether the cache must be bypassed for every domain in this world
/// (see module docs: instant-keyed faults and attack windows).
pub(crate) fn cache_forced(world: &World) -> bool {
    world.has_transient_faults() || world.has_attacker()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::longitudinal::Study;
    use crate::scan::Snapshot;
    use crate::supervisor::{Campaign, SupervisedOutcome, SupervisorConfig};
    use ecosystem::{EcosystemConfig, SnapshotDetail};
    use netbase::SimDate;

    fn fp(record: u64, policy: u64, mx: u64) -> DomainFingerprint {
        DomainFingerprint { record, policy, mx }
    }

    #[test]
    fn plan_reruns_exactly_the_dirty_component() {
        let base = fp(1, 2, 3);
        // Clean: wholesale reuse.
        assert_eq!(plan_for(Some(&base), &base, false), ScanPlan::ReuseAll);
        // No prior entry: full scan.
        assert_eq!(plan_for(None, &base, false), ScanPlan::FullScan);
        // A record flip invalidates everything (RFC 8461: the sender
        // re-fetches on an id change, so the scanner must too).
        assert_eq!(
            plan_for(Some(&base), &fp(9, 2, 3), false),
            ScanPlan::FullScan
        );
        // A policy flip re-runs only the policy stage.
        assert_eq!(
            plan_for(Some(&base), &fp(1, 9, 3), false),
            ScanPlan::Stages {
                policy: true,
                mx: false
            }
        );
        // An MX flip skips the HTTPS fetch — the id short-circuit.
        assert_eq!(
            plan_for(Some(&base), &fp(1, 2, 9), false),
            ScanPlan::Stages {
                policy: false,
                mx: true
            }
        );
        // Both sides dirty, record clean: both stages, still no record
        // re-lookup.
        assert_eq!(
            plan_for(Some(&base), &fp(1, 9, 9), false),
            ScanPlan::Stages {
                policy: true,
                mx: true
            }
        );
        // Forced (transient faults / attacker): always a full scan, even
        // with a clean fingerprint.
        assert_eq!(plan_for(Some(&base), &base, true), ScanPlan::FullScan);
    }

    #[test]
    fn forced_results_never_enter_the_cache() {
        let eco = Ecosystem::generate(EcosystemConfig::paper(42, 0.01));
        let mut cache = ScanCache::new(&eco, ScanConfig::default());
        let date = SimDate::ymd(2024, 9, 29);
        let world = eco.world_at(date, SnapshotDetail::Full);
        let ctx = eco.fingerprint_context(date);
        let (index, spec) = eco
            .population
            .domains
            .iter()
            .enumerate()
            .find(|(_, d)| d.adopted_by(date))
            .unwrap();
        let fp = eco.fingerprint_at(spec, &ctx).unwrap();

        let (scan, ip, kind) = cache.scan(&world, index, &spec.name, date.at_midnight(), &fp, true);
        assert_eq!(kind, HitKind::Forced);
        cache.insert(index, fp, &scan, ip, true);
        assert!(
            cache.entries[index].is_none(),
            "a forced scan must not be cached"
        );

        // The same scan unforced is a miss, then a full hit.
        let (scan, ip, kind) =
            cache.scan(&world, index, &spec.name, date.at_midnight(), &fp, false);
        assert_eq!(kind, HitKind::Miss);
        cache.insert(index, fp, &scan, ip, false);

        // A full hit at a later date is the miss's scan itself, and
        // re-inserting it leaves the slot holding that same scan.
        let later = date.add_days(7);
        let (hit, hit_ip, kind) =
            cache.scan(&world, index, &spec.name, later.at_midnight(), &fp, false);
        assert_eq!(kind, HitKind::Full);
        assert!(Arc::ptr_eq(&hit, &scan));
        assert_eq!(hit_ip, ip);
        cache.insert(index, fp, &hit, hit_ip, false);
        let slot = cache.entries[index].as_ref().unwrap();
        assert!(Arc::ptr_eq(&slot.scan, &scan));
    }

    #[test]
    fn attack_schedule_bypasses_the_cache() {
        // A cache hit must never mask a domain inside an attack window:
        // while any attack schedule is installed, every scan is forced.
        let eco = Ecosystem::generate(EcosystemConfig::paper(42, 0.01));
        let date = SimDate::ymd(2024, 9, 29);
        let mut world = eco.world_at(date, SnapshotDetail::Full);
        assert!(!cache_forced(&world));

        let victim = eco.domains_at(date).next().unwrap().name.clone();
        let t0 = date.at_midnight();
        world.set_attacker(simnet::AttackSchedule::new().with_window(
            simnet::AttackKind::DnsTxtStrip,
            Some(victim),
            t0,
            t0 + netbase::Duration::days(1),
        ));
        assert!(cache_forced(&world));
    }

    #[test]
    fn single_component_flips_rescan_exactly_the_flipped_domains() {
        // Cohort-level property check against the real population: step
        // the campaign across the lucidgrow window boundary (two dates off
        // the monthly calendar) and verify the cache re-scans exactly the
        // domains whose fingerprint moved — and that those domains' diffs
        // are confined to the expected component.
        let eco = Ecosystem::generate(EcosystemConfig::paper(42, 0.02));
        let d1 = SimDate::ymd(2024, 1, 15); // before the window
        let d2 = SimDate::ymd(2024, 1, 23); // inside the window
        let cfg = SupervisorConfig {
            threads: 2,
            ..SupervisorConfig::default()
        };
        let mut campaign = Campaign::new(&eco, &cfg);
        campaign.scan_date(d1);
        let before = campaign.report().cache;
        assert_eq!(before.full_hits, 0, "first snapshot cannot hit");

        let ctx1 = eco.fingerprint_context(d1);
        let ctx2 = eco.fingerprint_context(d2);
        let mut expected_rescans = 0u64;
        let mut expected_hits = 0u64;
        let mut lucid_seen = 0u64;
        for spec in &eco.population.domains {
            if !spec.adopted_by(d1) {
                continue; // newly adopted domains are misses, counted below
            }
            let f1 = eco.fingerprint_at(spec, &ctx1).unwrap();
            let f2 = eco.fingerprint_at(spec, &ctx2).unwrap();
            if f1 == f2 {
                expected_hits += 1;
            } else {
                expected_rescans += 1;
                if spec.lucidgrow {
                    // The incident rewrites the hosted policy: the policy
                    // component moves, record and MX stay clean.
                    assert_eq!(f1.record, f2.record, "{}", spec.name);
                    assert_ne!(f1.policy, f2.policy, "{}", spec.name);
                    assert_eq!(f1.mx, f2.mx, "{}", spec.name);
                    lucid_seen += 1;
                }
            }
        }
        assert!(lucid_seen > 0, "scale 0.02 must include lucidgrow victims");

        campaign.scan_date(d2);
        let after = campaign.report().cache;
        assert_eq!(after.full_hits - before.full_hits, expected_hits);
        assert_eq!(
            (after.partial_hits + after.misses) - (before.partial_hits + before.misses),
            expected_rescans
                + eco
                    .population
                    .domains
                    .iter()
                    .filter(|d| d.adopted_by(d2) && !d.adopted_by(d1))
                    .count() as u64,
            "every fingerprint flip (and only those, plus new adopters) re-scans"
        );
        assert_eq!(after.forced, 0);
    }

    fn snapshots_digest(snaps: &[Snapshot]) -> String {
        snaps
            .iter()
            .map(|snap| {
                let mut ips: Vec<(String, Ipv4Addr)> = snap
                    .policy_ips
                    .iter()
                    .map(|(d, ip)| (d.to_string(), *ip))
                    .collect();
                ips.sort();
                serde_json::to_string(&(&snap.scans, ips)).expect("snapshots serialize")
            })
            .collect()
    }

    #[test]
    fn incremental_full_study_matches_scratch() {
        let study = Study::new(Ecosystem::generate(EcosystemConfig::paper(42, 0.01)));
        let scratch = study.run_full_scratch_with_threads(1);
        let outcome = study.run_full_supervised(&SupervisorConfig {
            threads: 1,
            ..SupervisorConfig::default()
        });
        let SupervisedOutcome::Complete {
            snapshots: inc,
            report,
        } = outcome
        else {
            panic!("no budget set: must complete")
        };
        let stats = report.cache;
        assert_eq!(snapshots_digest(&scratch), snapshots_digest(&inc));
        assert!(
            stats.full_hits > stats.misses,
            "most domains are unchanged month to month: {stats:?}"
        );
        assert_eq!(stats.forced, 0);
        // Every full hit is the previous snapshot's scan itself, shared
        // rather than copied, and nothing else is.
        let shared = inc
            .windows(2)
            .flat_map(|pair| {
                let prev = &pair[0];
                pair[1].scans.iter().filter(move |scan| {
                    prev.scan_of(&scan.domain)
                        .is_some_and(|old| std::ptr::eq(old, Arc::as_ptr(scan)))
                })
            })
            .count() as u64;
        assert_eq!(shared, stats.full_hits);
    }
}
