//! The change-driven rescan cache: full-study cost proportional to the
//! number of per-domain *changes*, not `dates × domains`.
//!
//! The ecosystem layer already certifies what changed between snapshot
//! dates: [`ecosystem::DomainFingerprint`] hashes every scan-visible
//! input per component (DNS record set, policy side, MX side), and
//! [`ecosystem::IncrementalWorld`] rebuilds only the dirty domains. This
//! module adds the scanner half for the monthly campaign
//! ([`crate::supervisor`]): one slot per population index, holding the
//! domain's last scan, the fingerprint it was taken under and its entity
//! classes, beside the entity classifier that counts exactly those scans.
//! A domain whose fingerprint equals its slot's reuses the slot's scan
//! wholesale (the `Arc` itself: a scan carries no date); any other domain
//! is scanned whole. The weekly series keeps its own observation cache
//! keyed on the `(record, mx)` components and reports the same
//! [`CacheStats`].
//!
//! # Why reuse is byte-identical
//!
//! A scan is a pure function of `(world, domain, admitted instant,
//! config)` (the determinism contract), and the fingerprint hashes every
//! world input a scan can observe — so "fingerprint unchanged" implies
//! "scan unchanged", and returning the slot's scan *is* re-running it.
//! Certificates do not break this:
//! scan outputs only carry cert *verdicts*, and an installed chain's
//! verdict does not move with the date (a valid leaf lives as long as
//! its issuing CA, an expired one stays expired, an untrusted one fails
//! on its anchor).
//!
//! # When the cache must stand down
//!
//! - **Transient faults** ([`World::has_transient_faults`]): fault
//!   draws are keyed on the admitted instant, so an unchanged
//!   configuration does not imply an unchanged observation. Every scan
//!   is forced, and its slot keeps no fingerprint, so no later date
//!   reuses it.
//! - **Active attackers** ([`World::has_attacker`]): attack windows are
//!   likewise instant-keyed; a cache hit must never mask a domain
//!   inside an attack window, so the cache is bypassed entirely while
//!   an attack schedule is installed.
//! - **Throttled campaigns**: slots are keyed to the midnight
//!   admitted-instant class; the campaign is unthrottled by
//!   construction, and the cache is not consulted for any other class.

use crate::classify::{EntityClasses, EntityClassifier, VerdictLog};
use crate::scan::{scan_domain, ScanConfig};
use crate::taxonomy::DomainScan;
use ecosystem::DomainFingerprint;
use netbase::{DomainName, SimInstant};
use serde::{Deserialize, Serialize};
use simnet::World;
use std::sync::Arc;

/// Cache accounting for an incremental run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Scans reused wholesale (fingerprint unchanged).
    pub full_hits: u64,
    /// Fresh scans: first sight of a domain, or a changed fingerprint.
    pub misses: u64,
    /// Fresh scans forced past the cache (transient faults or an active
    /// attack schedule), which no later date reuses.
    pub forced: u64,
}

impl CacheStats {
    /// Total domains that went through the cache.
    pub fn total(&self) -> u64 {
        self.full_hits + self.misses + self.forced
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
    Miss,
    Forced,
}

/// One domain as the dates so far last observed it.
#[derive(Clone)]
struct Slot {
    /// The fingerprint `scan` was taken under; `None` for a forced scan,
    /// which no later date may reuse.
    fp: Option<DomainFingerprint>,
    scan: Arc<DomainScan>,
    /// `None` until the observing date's [`SlotTable::settle`] classifies
    /// it.
    classes: Option<EntityClasses>,
}

/// The monthly campaign's state across dates, starting empty: one slot
/// per population index, all keyed to one `ScanConfig` and the midnight
/// admitted-instant class, and the entity classifier over the slots'
/// scans. §4.3.1's heuristics count over a whole snapshot, but from one
/// monthly date to the next only the domains whose scans changed move
/// those counts, so a date forgets and re-observes just those and
/// re-classifies them alone — unless an eSLD they touched changed its
/// verdict, when every domain is re-classified. The classes equal
/// [`Snapshot::assemble`](crate::scan::Snapshot::assemble)'s at every
/// date.
pub(crate) struct SlotTable {
    config: ScanConfig,
    /// By population index.
    slots: Vec<Option<Slot>>,
    /// Counts exactly the scans in `slots`.
    classifier: EntityClassifier,
    /// The verdicts this date's forgets and observes started from.
    log: VerdictLog,
}

impl SlotTable {
    pub(crate) fn new(population: usize, config: ScanConfig) -> SlotTable {
        SlotTable {
            config,
            slots: vec![None; population],
            classifier: EntityClassifier::default(),
            log: VerdictLog::default(),
        }
    }

    /// The slot's own scan when `pop` under `fp` is a full hit: `fp` is
    /// the domain's installed fingerprint, or `None` when the cache
    /// stands down (see module docs).
    pub(crate) fn full_hit(
        &self,
        pop: usize,
        fp: Option<&DomainFingerprint>,
    ) -> Option<&Arc<DomainScan>> {
        let slot = self.slots[pop].as_ref()?;
        (fp.is_some() && slot.fp.as_ref() == fp).then_some(&slot.scan)
    }

    /// Scans `domain`, whose population index is `pop`, under `fp` (see
    /// [`SlotTable::full_hit`]). A full hit returns the slot's own scan;
    /// anything else is `saved`, a scan read back from a checkpoint, or
    /// scans the domain whole, and counts as the miss or forced scan
    /// scanning it is.
    pub(crate) fn scan(
        &self,
        world: &World,
        pop: usize,
        domain: &DomainName,
        now: SimInstant,
        fp: Option<&DomainFingerprint>,
        saved: Option<&Arc<DomainScan>>,
    ) -> (Arc<DomainScan>, HitKind) {
        if let Some(hit) = self.full_hit(pop, fp) {
            return (Arc::clone(hit), HitKind::Full);
        }
        let scan = saved.map_or_else(
            || Arc::new(scan_domain(world, domain, now, &self.config)),
            Arc::clone,
        );
        (scan, fp.map_or(HitKind::Forced, |_| HitKind::Miss))
    }

    /// Puts one of the date's scans, taken or read back under `fp`, in
    /// slot `pop`: the slot's own scan (a full hit) costs nothing, while
    /// another is observed after the slot's old scan is forgotten.
    pub(crate) fn absorb(
        &mut self,
        pop: usize,
        fp: Option<DomainFingerprint>,
        scan: &Arc<DomainScan>,
    ) {
        let SlotTable {
            slots,
            classifier,
            log,
            ..
        } = self;
        if let Some(old) = &slots[pop] {
            if Arc::ptr_eq(&old.scan, scan) {
                return;
            }
            classifier.note_verdicts(&old.scan, log);
            classifier.forget(&old.scan);
        }
        classifier.note_verdicts(scan, log);
        classifier.observe(scan);
        slots[pop] = Some(Slot {
            fp,
            scan: Arc::clone(scan),
            classes: None,
        });
    }

    /// The date's classes, parallel to `scans`, whose population indices
    /// are `pops` in ascending order, once each was absorbed. Empties the
    /// slots the date did not observe (a domain abandoned after a panic),
    /// then classifies the changed scans, or all of them when a verdict
    /// moved.
    pub(crate) fn settle(
        &mut self,
        pops: &[usize],
        scans: &[Arc<DomainScan>],
    ) -> Vec<EntityClasses> {
        let SlotTable {
            slots,
            classifier,
            log,
            ..
        } = self;
        let mut observed = pops.iter().peekable();
        for (pop, slot) in slots.iter_mut().enumerate() {
            if observed.next_if_eq(&&pop).is_some() {
                continue;
            }
            if let Some(gone) = slot.take() {
                classifier.note_verdicts(&gone.scan, log);
                classifier.forget(&gone.scan);
            }
        }
        let all = classifier.verdicts_moved(log);
        pops.iter()
            .zip(scans)
            .map(|(&pop, scan)| {
                let seen = slots[pop].as_mut().expect("observed at this date");
                match seen.classes {
                    Some(classes) if !all => classes,
                    _ => *seen.classes.insert(classifier.classify(scan)),
                }
            })
            .collect()
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
    use ecosystem::{Ecosystem, EcosystemConfig, SnapshotDetail};
    use netbase::SimDate;
    use std::collections::HashMap;

    #[test]
    fn a_slot_is_reused_whole_only_under_its_own_fingerprint() {
        let eco = Ecosystem::generate(EcosystemConfig::paper(42, 0.01));
        let mut slots = SlotTable::new(eco.population.domains.len(), ScanConfig::default());
        let date = SimDate::ymd(2024, 9, 29);
        let world = eco.world_at(date, SnapshotDetail::Full);
        let ctx = eco.fingerprint_context(date);
        let (pop, spec) = eco
            .population
            .domains
            .iter()
            .enumerate()
            .find(|(_, d)| d.adopted_by(date))
            .unwrap();
        let fp = eco.fingerprint_at(spec, &ctx).unwrap();
        let scan = |slots: &SlotTable, fp: Option<&DomainFingerprint>| {
            slots.scan(&world, pop, &spec.name, date.at_midnight(), fp, None)
        };

        // A forced scan is fresh, and its slot keeps no fingerprint, so
        // the same domain unforced is a miss.
        let (forced, kind) = scan(&slots, None);
        assert_eq!(kind, HitKind::Forced);
        slots.absorb(pop, None, &forced);
        let (fresh, kind) = scan(&slots, Some(&fp));
        assert_eq!(kind, HitKind::Miss);
        assert!(!Arc::ptr_eq(&fresh, &forced));
        slots.absorb(pop, Some(fp), &fresh);

        // Under the slot's own fingerprint: the slot's scan itself, and
        // absorbing it leaves the slot as it was. Forced, the slot's scan
        // is not reused.
        let (hit, kind) = scan(&slots, Some(&fp));
        assert_eq!(kind, HitKind::Full);
        assert!(Arc::ptr_eq(&hit, &fresh));
        slots.absorb(pop, Some(fp), &hit);
        assert!(Arc::ptr_eq(
            &slots.slots[pop].as_ref().unwrap().scan,
            &fresh
        ));
        assert_eq!(scan(&slots, None).1, HitKind::Forced);

        // A scan read back from a checkpoint stands in for a fresh one,
        // under the kind scanning would have had; a full hit keeps the
        // slot's own scan.
        let read_back = |fp: Option<&DomainFingerprint>| {
            let saved = Some(&forced);
            slots.scan(&world, pop, &spec.name, date.at_midnight(), fp, saved)
        };
        let (read, kind) = read_back(None);
        assert!(Arc::ptr_eq(&read, &forced) && kind == HitKind::Forced);
        let (hit, kind) = read_back(Some(&fp));
        assert!(Arc::ptr_eq(&hit, &fresh) && kind == HitKind::Full);
        let moved = DomainFingerprint { mx: !fp.mx, ..fp };
        let (read, kind) = read_back(Some(&moved));
        assert!(Arc::ptr_eq(&read, &forced) && kind == HitKind::Miss);

        // Any component moved: the domain is scanned whole again.
        for moved in [
            DomainFingerprint {
                record: !fp.record,
                ..fp
            },
            DomainFingerprint {
                policy: !fp.policy,
                ..fp
            },
            DomainFingerprint { mx: !fp.mx, ..fp },
        ] {
            let (again, kind) = scan(&slots, Some(&moved));
            assert_eq!(kind, HitKind::Miss);
            assert!(!Arc::ptr_eq(&again, &fresh));
            assert_eq!(
                serde_json::to_string(&again).unwrap(),
                serde_json::to_string(&fresh).unwrap()
            );
        }
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
            after.misses - before.misses,
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
            .map(|snap| serde_json::to_string(&snap.scans).expect("snapshots serialize"))
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

    #[test]
    fn a_domain_missing_from_a_delta_date_is_forgotten() {
        // A domain whose scan panics at one date and not at the next drops
        // out of a snapshot and comes back. Here a rotating third of each
        // snapshot goes missing, so at every delta date some slots are
        // emptied unobserved and others filled again.
        let study = Study::new(Ecosystem::generate(EcosystemConfig::paper(42, 0.01)));
        let eco = &study.eco;
        let pop_of: HashMap<&DomainName, usize> = eco
            .population
            .domains
            .iter()
            .enumerate()
            .map(|(i, d)| (&d.name, i))
            .collect();
        let mut slots = SlotTable::new(eco.population.domains.len(), ScanConfig::default());
        for (k, snap) in study.run_full_with_threads(1).iter().enumerate() {
            let scans: Vec<Arc<DomainScan>> = snap
                .scans
                .iter()
                .enumerate()
                .filter(|(i, _)| (i + k) % 3 != 0)
                .map(|(_, scan)| Arc::clone(scan))
                .collect();
            let pops: Vec<usize> = scans.iter().map(|scan| pop_of[&scan.domain]).collect();
            for (&pop, scan) in pops.iter().zip(&scans) {
                slots.absorb(pop, None, scan);
            }
            let classes = slots.settle(&pops, &scans);
            assert!(
                classes == Snapshot::assemble(snap.date, scans).classes,
                "{}",
                snap.date
            );
        }
    }
}
