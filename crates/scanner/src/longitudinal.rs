//! The longitudinal study driver: weekly record scans (2021-09 →
//! 2024-09) and monthly full-component scans (2023-11 → 2024-09), §3.1
//! and §4.1.
//!
//! Both series run over a persistent delta-built world and a
//! change-driven cache ([`crate::incremental`]), byte-identical to the
//! from-scratch runs (`run_weekly_scratch_with_threads`,
//! `run_full_scratch_with_threads`), which are kept as the reference
//! oracles for the digest suites. The weekly loop lives here; the
//! monthly loop is [`Study::run_full_supervised`], which
//! [`Study::run_full`] runs under a default [`SupervisorConfig`].
//!
//! Each loop takes one delta step per date and starts from empty state.
//! The first advance of a persistent world rewrites every adopter, so
//! the first date is just the step at which every adopter is new:
//! neither loop primes its caches or counters in a branch of its own.

use crate::incremental::{CacheStats, HitKind};
use crate::scan::{scan_snapshot_with_threads, ScanConfig, Snapshot};
use crate::supervisor::{SupervisedOutcome, SupervisorConfig};
use ecosystem::{DomainSpec, Ecosystem, IncrementalWorld, SnapshotDetail, TldId};
use mtasts::evaluate_record_set;
use netbase::default_scan_threads;
use netbase::{map_sharded, DomainName, SimDate, SimInstant};
use serde::Serialize;
use simnet::World;
use std::collections::HashMap;
use std::sync::Arc;

/// One weekly record-level observation.
#[derive(Debug, Clone, Serialize)]
pub struct WeeklyPoint {
    /// Snapshot date.
    pub date: SimDate,
    /// Domains with a (valid) MTA-STS record, per TLD.
    pub mtasts_per_tld: HashMap<TldId, u64>,
    /// Domains with both MTA-STS and TLSRPT records, per TLD (Figure 12's
    /// bottom panel numerators).
    pub tlsrpt_among_mtasts_per_tld: HashMap<TldId, u64>,
}

impl WeeklyPoint {
    /// Total MTA-STS domains across TLDs.
    pub fn total(&self) -> u64 {
        self.mtasts_per_tld.values().sum()
    }
}

/// One collapsed MX observation: the date a distinct host set was first
/// seen and the (shared) set itself.
pub type MxObservation = (SimDate, Arc<[DomainName]>);

/// One domain's MX history: the collapsed weekly observation series plus
/// first-seen columns, so historical-host lookups are a binary search
/// over parallel vectors instead of a scan-and-dedup allocation.
#[derive(Debug, Clone, Default)]
struct DomainMx {
    /// `(date, hosts)` observations, consecutive duplicates collapsed.
    observations: Vec<MxObservation>,
    /// Date each distinct host was first observed, ascending (parallel
    /// to `first_hosts` — `record` runs in date order, so first-seen
    /// order is ascending by construction).
    first_dates: Vec<SimDate>,
    /// Distinct hosts in first-observation order.
    first_hosts: Vec<DomainName>,
}

/// MX history: per domain, the (date, MX set) observations with
/// consecutive duplicates collapsed — the raw material of Figure 9.
/// Observation sets are shared `Arc` slices (one allocation per *change*,
/// not per week), and [`MxHistory::historical_mx`] answers from borrowed
/// first-seen columns without allocating.
#[derive(Debug, Clone, Default)]
pub struct MxHistory {
    entries: HashMap<DomainName, DomainMx>,
}

impl MxHistory {
    /// Appends an observation; empty and consecutive-duplicate MX sets
    /// are no-ops. Must be called in ascending date order per domain.
    pub(crate) fn record(&mut self, name: &DomainName, date: SimDate, mx: &Arc<[DomainName]>) {
        if mx.is_empty() {
            return;
        }
        let entry = self.entries.entry(name.clone()).or_default();
        if entry.observations.last().map(|(_, prev)| &prev[..]) == Some(&mx[..]) {
            return;
        }
        entry.observations.push((date, Arc::clone(mx)));
        for host in mx.iter() {
            if !entry.first_hosts.contains(host) {
                entry.first_dates.push(date);
                entry.first_hosts.push(host.clone());
            }
        }
    }

    /// Number of domains with at least one observation.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no domain has observations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates domains with their collapsed observation series, in
    /// arbitrary order (like the map this type replaces).
    pub fn iter(&self) -> impl Iterator<Item = (&DomainName, &[MxObservation])> {
        self.entries
            .iter()
            .map(|(d, e)| (d, e.observations.as_slice()))
    }

    /// Hosts of `domain` first observed strictly before `before`, in
    /// first-observation order — a borrowed slice, no per-call work
    /// beyond one binary search.
    pub fn historical_mx(&self, domain: &DomainName, before: SimDate) -> &[DomainName] {
        let Some(entry) = self.entries.get(domain) else {
            return &[];
        };
        let k = entry.first_dates.partition_point(|d| *d < before);
        &entry.first_hosts[..k]
    }
}

/// The whole study's outputs.
pub struct LongitudinalRun {
    /// Weekly record-level series.
    pub weekly: Vec<WeeklyPoint>,
    /// Monthly full-component snapshots.
    pub full: Vec<Snapshot>,
    /// MX record history across weekly scans.
    pub mx_history: MxHistory,
}

impl LongitudinalRun {
    /// The most recent full snapshot (the paper's "latest snapshot").
    pub fn latest(&self) -> &Snapshot {
        self.full.last().expect("study produces full snapshots")
    }

    /// Historical MX hosts of `domain` observed strictly before `date`,
    /// in first-observation order (a borrowed slice of the history's
    /// first-seen column).
    pub fn historical_mx(&self, domain: &DomainName, before: SimDate) -> &[DomainName] {
        self.mx_history.historical_mx(domain, before)
    }
}

/// One domain's weekly DNS observation, or `None` when the domain has no
/// *valid* MTA-STS record that week. Validity is [`evaluate_record_set`]
/// — the same semantics the sender and the full scan apply — so a
/// malformed record, a wrong version tag, or a duplicate set never
/// inflates the adoption series (§3.1 counts working deployments).
pub(crate) type WeeklyObservation = Option<(TldId, bool, Arc<[DomainName]>)>;

pub(crate) fn weekly_observe(
    world: &World,
    spec: &DomainSpec,
    now: SimInstant,
) -> WeeklyObservation {
    let txts = world.mta_sts_txts(&spec.name, now).ok()?;
    evaluate_record_set(&txts).ok()?;
    let tlsrpt = world
        .tlsrpt_txts(&spec.name, now)
        .map(|t| t.iter().any(|s| s.starts_with("v=TLSRPTv1")))
        .unwrap_or(false);
    let mx: Arc<[DomainName]> = world.mx_records(&spec.name, now).unwrap_or_default().into();
    Some((spec.tld, tlsrpt, mx))
}

/// Folds one week's merged, input-ordered observations into the per-TLD
/// counters and the MX history. Shared by the scratch and incremental
/// drivers so they cannot drift.
fn fold_weekly(
    date: SimDate,
    domains: &[DomainSpec],
    observations: &[WeeklyObservation],
    history: &mut MxHistory,
) -> WeeklyPoint {
    let mut mtasts: HashMap<TldId, u64> = HashMap::new();
    let mut tlsrpt: HashMap<TldId, u64> = HashMap::new();
    for (spec, observed) in domains.iter().zip(observations) {
        let Some((tld, has_tlsrpt, mx)) = observed else {
            continue;
        };
        *mtasts.entry(*tld).or_default() += 1;
        if *has_tlsrpt {
            *tlsrpt.entry(*tld).or_default() += 1;
        }
        history.record(&spec.name, date, mx);
    }
    WeeklyPoint {
        date,
        mtasts_per_tld: mtasts,
        tlsrpt_among_mtasts_per_tld: tlsrpt,
    }
}

/// Increments a delta-maintained per-TLD counter.
fn counter_add(map: &mut HashMap<TldId, u64>, tld: TldId) {
    *map.entry(tld).or_default() += 1;
}

/// Decrements a delta-maintained per-TLD counter, removing the entry at
/// zero so the map stays byte-identical to a from-scratch fold (which
/// never holds zero counts).
fn counter_sub(map: &mut HashMap<TldId, u64>, tld: TldId) {
    let v = map
        .get_mut(&tld)
        .expect("decrement mirrors a prior increment");
    *v -= 1;
    if *v == 0 {
        map.remove(&tld);
    }
}

/// The study driver around a generated ecosystem.
pub struct Study {
    /// The population under study.
    pub eco: Ecosystem,
}

impl Study {
    /// Wraps an ecosystem.
    pub fn new(eco: Ecosystem) -> Study {
        Study { eco }
    }

    /// Runs the weekly record-level series, collecting MX history, on
    /// the default thread count.
    pub fn run_weekly(&self) -> (Vec<WeeklyPoint>, MxHistory) {
        let (weekly, history, _) = self.run_weekly_with_threads(default_scan_threads());
        (weekly, history)
    }

    /// The from-scratch weekly driver: one full world per week, every
    /// domain queried. Kept as the reference oracle the incremental
    /// engine is digest-checked against.
    pub fn run_weekly_scratch_with_threads(&self, threads: usize) -> (Vec<WeeklyPoint>, MxHistory) {
        let mut weekly = Vec::new();
        let mut history = MxHistory::default();
        let domains = &self.eco.population.domains;
        for date in self.eco.config.weekly_snapshots() {
            let _span = obsv::span!("snapshot.weekly");
            let world = self.eco.world_at(date, SnapshotDetail::DnsOnly);
            let now = date.at_midnight();
            // The paper queries every zone-file domain; unadopted
            // domains simply have no record yet.
            let observations = map_sharded(threads, domains, |_, spec| {
                weekly_observe(&world, spec, now)
            });
            weekly.push(fold_weekly(date, domains, &observations, &mut history));
        }
        (weekly, history)
    }

    /// [`Study::run_weekly`] with an explicit thread count, plus the
    /// observation cache's accounting. O(changes) per date: the
    /// persistent world advance reports exactly which population indices
    /// it rewrote ([`IncrementalWorld::last_dirty`]), and only those are
    /// re-keyed and re-observed. The per-TLD counters, the MX history
    /// and the cached observations are all delta-maintained, so a calm
    /// week costs O(dirty) — no per-date population sweep at all.
    /// Observations fan out across shard workers and fold in input
    /// order, so the series is byte-identical for every thread count.
    ///
    /// Policy-side changes (e.g. the lucidgrow incident rewriting hosted
    /// policy documents) deliberately do *not* invalidate weekly
    /// entries — the weekly series never looks at policies: the cache
    /// key is the (record, mx) fingerprint component pair. No transient
    /// fault or attacker ever enters this series' DNS-only world, so its
    /// cache, unlike the monthly campaign's, never stands down.
    pub fn run_weekly_with_threads(
        &self,
        threads: usize,
    ) -> (Vec<WeeklyPoint>, MxHistory, CacheStats) {
        let mut history = MxHistory::default();
        let mut stats = CacheStats::default();
        let mut engine = IncrementalWorld::new(SnapshotDetail::DnsOnly);
        let domains = &self.eco.population.domains;
        let n = domains.len();
        // Persistent per-index state: the (record, mx) fingerprint key
        // each cached observation was taken under (`None` = unadopted),
        // and the observation itself.
        type Key = Option<(u64, u64)>;
        let mut keys: Vec<Key> = vec![None; n];
        let mut obs: Vec<WeeklyObservation> = vec![None; n];
        // Running per-TLD counters mirroring `obs` (zeroed entries
        // removed — see `counter_sub`).
        let mut mtasts: HashMap<TldId, u64> = HashMap::new();
        let mut tlsrpt: HashMap<TldId, u64> = HashMap::new();
        // One date's point, inside that date's `snapshot.weekly` span.
        let mut step = |date: SimDate| -> WeeklyPoint {
            let _span = obsv::span!("snapshot.weekly");
            engine.advance_to(&self.eco, date);
            let world = engine.world();
            let now = date.at_midnight();
            // Only indices the engine rewrote on this advance (ascending,
            // each once) can have a different (record, mx) key, and only a
            // different key can change the observation. The first advance
            // rewrites every adopter, so the first date takes this step
            // too, from all-`None` keys and observations: a domain not yet
            // adopted has no observation to take.
            let changed: Vec<u32> = engine
                .last_dirty()
                .iter()
                .copied()
                .filter(|&i| {
                    let key = engine
                        .installed_fingerprint(i as usize)
                        .map(|fp| (fp.record, fp.mx));
                    keys[i as usize] != key
                })
                .collect();
            let fresh = map_sharded(threads, &changed, |_, &i| {
                weekly_observe(world, &domains[i as usize], now)
            });
            stats.count_many(HitKind::Miss, changed.len() as u64);
            stats.count_many(HitKind::Full, (n - changed.len()) as u64);
            for (&i, ob) in changed.iter().zip(&fresh) {
                let idx = i as usize;
                if let Some((tld, had_tlsrpt, _)) = &obs[idx] {
                    counter_sub(&mut mtasts, *tld);
                    if *had_tlsrpt {
                        counter_sub(&mut tlsrpt, *tld);
                    }
                }
                if let Some((tld, has_tlsrpt, _)) = ob {
                    counter_add(&mut mtasts, *tld);
                    if *has_tlsrpt {
                        counter_add(&mut tlsrpt, *tld);
                    }
                }
                keys[idx] = engine
                    .installed_fingerprint(idx)
                    .map(|fp| (fp.record, fp.mx));
                obs[idx] = ob.clone();
            }
            // Unchanged observations repeat their last recorded MX set,
            // which the dup guard would drop — record only the changed
            // ones (ascending index order, like a fold).
            for &i in &changed {
                if let Some((_, _, mx)) = &obs[i as usize] {
                    history.record(&domains[i as usize].name, date, mx);
                }
            }
            WeeklyPoint {
                date,
                mtasts_per_tld: mtasts.clone(),
                tlsrpt_among_mtasts_per_tld: tlsrpt.clone(),
            }
        };
        let dates = self.eco.config.weekly_snapshots();
        let mut weekly = Vec::with_capacity(dates.len());
        for (date_ord, &date) in dates.iter().enumerate() {
            weekly.push(step(date));
            // The date's span has closed: close its flight-recorder window
            // and tick progress, once, on the calling thread. Free when off.
            obsv::timeseries::roll(date.at_midnight().unix_secs());
            obsv::health::progress("scan.weekly", date_ord as u64 + 1, dates.len() as u64);
        }
        (weekly, history, stats)
    }

    /// Runs the monthly full-component scans on the default thread count.
    pub fn run_full(&self) -> Vec<Snapshot> {
        self.run_full_with_threads(default_scan_threads())
    }

    /// [`Study::run_full`] with an explicit thread count: the supervised
    /// campaign under a default config, so a domain whose scan panics is
    /// abandoned rather than fatal, and the report (cache accounting
    /// included) is dropped. The snapshots are byte-identical for every
    /// value.
    pub fn run_full_with_threads(&self, threads: usize) -> Vec<Snapshot> {
        let cfg = SupervisorConfig {
            threads,
            ..SupervisorConfig::default()
        };
        match self.run_full_supervised(&cfg) {
            SupervisedOutcome::Complete { snapshots, .. } => snapshots,
            SupervisedOutcome::Suspended { .. } => unreachable!("no domain budget to run out"),
        }
    }

    /// The from-scratch monthly driver: one full world per snapshot
    /// date, every adopted domain scanned end to end. Kept as the
    /// reference oracle the incremental engine is digest-checked
    /// against.
    pub fn run_full_scratch_with_threads(&self, threads: usize) -> Vec<Snapshot> {
        let mut out = Vec::new();
        for date in self.eco.config.full_scan_dates() {
            let _span = obsv::span!("snapshot.full");
            let world = self.eco.world_at(date, SnapshotDetail::Full);
            let domains: Vec<DomainName> =
                self.eco.domains_at(date).map(|d| d.name.clone()).collect();
            out.push(scan_snapshot_with_threads(
                &world,
                &domains,
                date,
                None,
                &ScanConfig::default(),
                threads,
            ));
        }
        out
    }

    /// Runs the complete study.
    pub fn run(&self) -> LongitudinalRun {
        let (weekly, mx_history) = self.run_weekly();
        let full = self.run_full();
        LongitudinalRun {
            weekly,
            full,
            mx_history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosystem::EcosystemConfig;

    fn study() -> Study {
        Study::new(Ecosystem::generate(EcosystemConfig::paper(42, 0.01)))
    }

    #[test]
    fn weekly_series_grows_and_matches_curve() {
        let study = study();
        let (weekly, history) = study.run_weekly();
        assert_eq!(weekly.len(), 160);
        let first = weekly.first().unwrap().total();
        let last = weekly.last().unwrap().total();
        assert!(last > first * 3, "{first} -> {last}");
        // The measured totals equal the adopted-domain counts minus the
        // record-faulted ones: `evaluate_record_set` (the sender's own
        // semantics) rejects every injected record fault, so a broken
        // record never counts as adoption.
        let date = weekly.last().unwrap().date;
        let expected = study
            .eco
            .domains_at(date)
            .filter(|d| d.faults.record.is_none())
            .count() as u64;
        assert_eq!(last, expected);
        // Pinned seed-42 scale-0.01 totals: the record-validity semantics
        // (`evaluate_record_set`, not a substring heuristic) are part of
        // the series' contract — a drift here is a semantics change, not
        // noise. (Re-pinned when the residual-tracking allocator fixed
        // per-category rounding drift at fractional scales.)
        assert_eq!((first, last), (149, 674));
        assert!(!history.is_empty());
    }

    #[test]
    fn weekly_scratch_and_incremental_agree() {
        let study = study();
        let (scratch_weekly, scratch_history) = study.run_weekly_scratch_with_threads(2);
        let (inc_weekly, inc_history, stats) = study.run_weekly_with_threads(2);
        // Canonical form: HashMaps iterate in arbitrary per-instance
        // order, so sort everything before comparing.
        let sorted = |m: &HashMap<TldId, u64>| {
            let mut v: Vec<_> = m.iter().map(|(t, c)| (format!("{t:?}"), *c)).collect();
            v.sort();
            v
        };
        let digest = |w: &[WeeklyPoint], h: &MxHistory| {
            let points: Vec<_> = w
                .iter()
                .map(|p| {
                    (
                        p.date,
                        sorted(&p.mtasts_per_tld),
                        sorted(&p.tlsrpt_among_mtasts_per_tld),
                    )
                })
                .collect();
            let mut hist: Vec<_> = h
                .iter()
                .map(|(d, v)| (d.to_string(), format!("{v:?}")))
                .collect();
            hist.sort();
            (points, hist)
        };
        assert_eq!(
            digest(&scratch_weekly, &scratch_history),
            digest(&inc_weekly, &inc_history)
        );
        // 160 weeks over a mostly-static population: reuse dominates.
        assert!(
            stats.full_hits > stats.misses * 10,
            "weekly reuse should dominate: {stats:?}"
        );
        assert_eq!(stats.forced, 0);
    }

    #[test]
    fn org_spike_is_visible_in_weekly_series() {
        let study = study();
        let (weekly, _) = study.run_weekly();
        // Find the week straddling 2024-01-02.
        let spike_date = SimDate::ymd(2024, 1, 2);
        let before = weekly.iter().rfind(|w| w.date < spike_date).unwrap();
        let after = weekly.iter().find(|w| w.date >= spike_date).unwrap();
        let b = before.mtasts_per_tld.get(&TldId::Org).copied().unwrap_or(0);
        let a = after.mtasts_per_tld.get(&TldId::Org).copied().unwrap_or(0);
        // At scale 0.01 the spike is ~5 domains on a base of ~50.
        assert!(a > b, "org {b} -> {a}");
    }

    #[test]
    fn full_scans_cover_the_calendar() {
        let study = study();
        let full = study.run_full();
        assert_eq!(full.len(), 11);
        assert_eq!(full.last().unwrap().date, SimDate::ymd(2024, 9, 29));
        // Later scans see more domains.
        assert!(full.last().unwrap().len() > full.first().unwrap().len());
    }

    #[test]
    fn historical_mx_lookup() {
        let study = study();
        let run = study.run();
        // Find a stale-migration domain whose migration falls inside the
        // window (and whose record is valid, so the weekly series tracks
        // it); its legacy MX must appear in history before migration.
        let stale = study.eco.population.domains.iter().find_map(|d| {
            let inc = d.faults.inconsistency.as_ref()?;
            let migration = inc.stale_migration?;
            (d.faults.record.is_none()
                && migration > d.adopted.add_days(14)
                && migration < SimDate::ymd(2024, 8, 1))
            .then_some((d, migration))
        });
        let Some((spec, migration)) = stale else {
            return; // tiny scale may not include one; other tests cover it
        };
        let hist = run.historical_mx(&spec.name, migration);
        assert!(
            hist.iter().any(|h| h.to_string().contains("oldhost-")),
            "{}: {hist:?}",
            spec.name
        );
    }
}
