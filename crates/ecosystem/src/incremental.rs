//! Delta world construction: advance a deployed world date-by-date.
//!
//! [`IncrementalWorld`] keeps one [`World`] alive across snapshots and, on
//! each [`IncrementalWorld::advance_to`], applies only the diff between
//! the previous and the new date:
//!
//! 1. shared CNAME targets are reconciled (their A record is owned by the
//!    first adopted customer in population order, which can change);
//! 2. every domain's [`DomainFingerprint`] at the new date is compared to
//!    the fingerprint it was installed with: unchanged domains are left
//!    alone, new adopters are installed, dirty domains are uninstalled
//!    with their *old*-date semantics and reinstalled with the new.
//!
//! An installed endpoint is never touched again, certificates included:
//! a valid leaf lives as long as its issuing CA
//! ([`simnet::SharedPki::issue_valid`]), so it validates at every later
//! study date as a fresh build's would. An expired leaf stays expired,
//! and a self-signed or rogue-CA chain fails on its anchor before any
//! date is read.
//!
//! The equivalence contract — the reason this is safe to use under the
//! digest oracle — is that [`crate::Ecosystem::world_at`] itself is a
//! single `advance_to` call, and the test suite checks that a world walked
//! through many dates serves byte-identical observations to a fresh build
//! at each date. Uninstallation is exact: a domain's records live either
//! in zones it owns outright (its own zone, its private legacy-MX zone),
//! at per-customer names inside provider zones (tracked by the
//! `shared_a_done` registry, whose invariant is "present iff exactly one
//! domain installed it"), or as per-customer chain/document entries keyed
//! by the domain's policy host on shared endpoints.

use crate::config::SnapshotDetail;
use crate::deploy::{Ecosystem, Infra, MxHost, PolicyPlatform, TTL};
use crate::fingerprint::DomainFingerprint;
use crate::spec::{DomainSpec, PolicyHosting};
use dns::{RecordData, RecordType};
use netbase::{NameKey, SimDate};
use simnet::World;

/// What one [`IncrementalWorld::advance_to`] actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceStats {
    /// Newly adopted domains installed for the first time.
    pub installed: usize,
    /// Domains whose fingerprint changed: uninstalled and reinstalled.
    pub reinstalled: usize,
    /// Adopted domains left untouched.
    pub unchanged: usize,
}

impl AdvanceStats {
    /// Domains whose deployment was (re)written this advance.
    pub fn dirty(&self) -> usize {
        self.installed + self.reinstalled
    }
}

/// A [`World`] that tracks which date it represents and advances by diff.
pub struct IncrementalWorld {
    world: World,
    detail: SnapshotDetail,
    infra: Option<Infra>,
    date: Option<SimDate>,
    /// Fingerprint each population index was installed with (`None` =
    /// not installed). Indexed by position in `population.domains`; an
    /// `IncrementalWorld` is therefore tied to one [`Ecosystem`].
    installed: Vec<Option<DomainFingerprint>>,
    /// Number of `Some` entries in `installed`.
    installed_count: usize,
    /// Indices (re)written by the last `advance_to`, ascending.
    dirty: Vec<u32>,
}

impl IncrementalWorld {
    /// An empty world, no date yet.
    pub fn new(detail: SnapshotDetail) -> IncrementalWorld {
        IncrementalWorld {
            world: World::new(),
            detail,
            infra: None,
            date: None,
            installed: Vec::new(),
            installed_count: 0,
            dirty: Vec::new(),
        }
    }

    /// The underlying world (valid for the last advanced-to date).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Applies blanket transient-fault rates to the world as it stands
    /// (see [`World::inject_transient_faults`]); the next advance keeps
    /// them on unchanged endpoints only, so re-apply after each one.
    pub fn inject_transient_faults(&mut self, cfg: &simnet::TransientFaultConfig) {
        self.world.inject_transient_faults(cfg);
    }

    /// Consumes self, returning the world.
    pub fn into_world(self) -> World {
        self.world
    }

    /// The date the world currently represents.
    pub fn date(&self) -> Option<SimDate> {
        self.date
    }

    /// The fingerprint population index `index` is currently deployed
    /// with (`None` = not installed). Scan caches key on this.
    pub fn installed_fingerprint(&self, index: usize) -> Option<DomainFingerprint> {
        self.installed.get(index).copied().flatten()
    }

    /// Population indices whose deployment was (re)written by the last
    /// [`IncrementalWorld::advance_to`], ascending. Same-date advances
    /// leave it empty. Downstream caches use this to walk only what
    /// moved instead of re-keying the whole population.
    pub fn last_dirty(&self) -> &[u32] {
        &self.dirty
    }

    /// Number of currently installed (adopted) domains.
    pub fn installed_count(&self) -> usize {
        self.installed_count
    }

    /// Advances the world to `date`, applying only the diff. Must always
    /// be called with the same `eco`, and dates must not move backwards.
    ///
    /// Cost is O(adopters + changes): the candidate set is the adoption
    /// column slice for `(prev, date]` plus the
    /// [`crate::timeline::ChangeTimeline`] events in that window — no
    /// other index can have a different fingerprint, which the oracle
    /// suites pin against full from-scratch sweeps.
    pub fn advance_to(&mut self, eco: &Ecosystem, date: SimDate) -> AdvanceStats {
        let _span = obsv::span!("ecosystem.advance");
        self.dirty.clear();
        if let Some(prev) = self.date {
            assert!(prev <= date, "incremental worlds only move forward");
            if prev == date {
                return AdvanceStats {
                    unchanged: self.installed_count,
                    ..AdvanceStats::default()
                };
            }
        }
        let first = self.infra.is_none();
        let prev = self.date;
        if first {
            self.infra = Some(eco.install_infra(&mut self.world, date.at_midnight(), self.detail));
            self.installed = vec![None; eco.population.domains.len()];
            self.installed_count = 0;
        } else {
            self.reconcile_shared_targets(eco, date);
        }
        assert_eq!(
            self.installed.len(),
            eco.population.domains.len(),
            "an IncrementalWorld is tied to one Ecosystem"
        );

        // Candidates: new adopters plus scheduled change events. Sorted
        // ascending because shared A records are first-writer-wins and
        // the install-order contract is population-index order.
        let mut candidates: Vec<u32> = match prev {
            None => eco.population.index.adopters_through(date).to_vec(),
            Some(p) => {
                let mut c = eco.population.index.adopters_between(p, date).to_vec();
                c.extend(eco.timeline().events_between(p, date));
                c
            }
        };
        candidates.sort_unstable();
        candidates.dedup();

        let ctx = eco.fingerprint_context(date);
        let infra = self.infra.as_mut().expect("installed above");
        let mut stats = AdvanceStats::default();
        for &i in &candidates {
            let index = i as usize;
            let spec = &eco.population.domains[index];
            let want = eco.fingerprint_at(spec, &ctx);
            let have = self.installed[index];
            if have == want {
                continue;
            }
            if have.is_some() {
                let prev_date = prev.expect("a deployed domain implies a prior advance");
                uninstall_domain(&mut self.world, infra, eco, spec, index, prev_date);
            }
            match want {
                Some(_) => {
                    eco.install_domain(&mut self.world, infra, spec, index, date, self.detail);
                    if have.is_some() {
                        stats.reinstalled += 1;
                    } else {
                        stats.installed += 1;
                        self.installed_count += 1;
                    }
                    self.dirty.push(i);
                }
                None => debug_assert!(have.is_none(), "adoption is monotone"),
            }
            self.installed[index] = want;
        }
        stats.unchanged = self.installed_count - stats.installed - stats.reinstalled;
        self.date = Some(date);
        obsv::counter!("ecosystem_installs_total", stats.installed as u64);
        obsv::counter!("ecosystem_reinstalls_total", stats.reinstalled as u64);
        obsv::counter!("ecosystem_unchanged_total", stats.unchanged as u64);
        // Deployed-population watermark for the flight recorder: lands
        // in the next window the driver rolls, so a recorded run shows
        // adoption growth over sim time. Free when recording is off.
        obsv::timeseries::gauge("ecosystem.installed_domains", self.installed_count as u64);
        stats
    }

    /// Rewrites the A record of each *shared* CNAME target whose desired
    /// value changed. The record's value is defined by the first adopted
    /// customer in population order (the one whose install wrote it): a
    /// TCP-layer fault on that customer points the whole target at the
    /// dead edge. New adoptions below the old installer's index — or the
    /// installer's fault windows — can flip it between snapshots.
    fn reconcile_shared_targets(&mut self, eco: &Ecosystem, date: SimDate) {
        let infra = self.infra.as_mut().expect("reconcile runs after install");
        for (provider, target) in eco.policy_providers.iter().zip(&eco.names.policy_target) {
            let Some(target) = target else {
                continue;
            };
            if !infra.shared_a_done.contains(target.as_str()) {
                continue; // no customer adopted yet; natural install handles it
            }
            let desired = if eco.timeline().shared_dead_at(provider.key, date) {
                infra.dead_ip
            } else {
                infra.policy_ip[&PolicyPlatform::Named(provider.key)]
            };
            let apex = target.esld_str().expect("provider targets have an eSLD");
            let zone = self.world.ensure_zone(apex);
            let current = zone.records(target).iter().find_map(|r| match r.data {
                RecordData::A(ip) => Some(ip),
                _ => None,
            });
            if current != Some(desired) {
                zone.remove(target, RecordType::A);
                zone.add_rr(target, TTL, RecordData::A(desired));
            }
        }
    }
}

/// Reverses [`Ecosystem::install_domain`] for a domain deployed with
/// `prev_date` semantics.
fn uninstall_domain(
    world: &mut World,
    infra: &mut Infra,
    eco: &Ecosystem,
    spec: &DomainSpec,
    index: usize,
    prev_date: SimDate,
) {
    // The domain's own zone: MX/NS/TXT/TLSRPT records, self-hosted A
    // records, and the policy host's A or CNAME record.
    world.remove_zone(&spec.name);
    // The four deterministic endpoint slots (no-ops when never deployed,
    // e.g. DNS-only detail or provider-hosted domains).
    world.remove_web_endpoint(Ecosystem::domain_ip(index, 0));
    for slot in 1..4u8 {
        world.remove_mx_endpoint(Ecosystem::domain_ip(index, slot));
    }
    // The legacy-MX zone of stale-migration domains is owned outright
    // (its name embeds this domain's leftmost label and TLD).
    if spec
        .faults
        .inconsistency
        .as_ref()
        .is_some_and(|i| i.stale_migration.is_some())
    {
        if let Some(apex) = eco.legacy_mx_of(spec).effective_sld() {
            world.remove_zone(&apex);
        }
    }
    // Per-customer MX hostnames this domain installed into provider
    // zones. The `shared_a_done` invariant makes membership the exact
    // "mine to remove" oracle. Only a per-customer host can be in it:
    // an own host lived in the domain's zone, a shared host's A record
    // belongs to the infrastructure, and a legacy host's A record went
    // unregistered into the legacy zone dropped above.
    eco.each_mx_host(spec, prev_date, |host| {
        if let MxHost::PerCustomer(..) = host {
            remove_registered_a(world, infra, &host.to_string());
        }
    });
    // The policy side: delegation targets and per-customer state on
    // shared provider endpoints.
    match &spec.policy {
        // Own zone + slot endpoint (removed above); the Porkbun parking
        // host serves its default chain, nothing per-customer.
        PolicyHosting::SelfManaged | PolicyHosting::Porkbun => {}
        PolicyHosting::Mxascen => {
            let ip = infra.mxascen_web[spec.name.as_str().len() % 2];
            remove_customer_state(world, ip, spec);
        }
        PolicyHosting::Provider { .. }
        | PolicyHosting::MiscProvider { .. }
        | PolicyHosting::SmallProvider { .. } => {
            let delegation = eco.delegation(spec).expect("a delegated policy host");
            // Shared targets are communal — other customers still resolve
            // through them; reconciliation owns their A record instead.
            if !delegation.shared {
                remove_registered_a(world, infra, delegation.target.as_str());
            }
            remove_customer_state(world, infra.policy_ip[&delegation.platform], spec);
        }
    }
}

/// Removes a per-customer A record iff this registry owns it.
fn remove_registered_a(world: &mut World, infra: &mut Infra, name: &str) {
    if let Some(NameKey(name)) = infra.shared_a_done.take(name) {
        let apex = name.esld_str().expect("registered names have an eSLD");
        world.ensure_zone(apex).remove(&name, RecordType::A);
    }
}

/// Evicts one customer's certificate chain and document from a shared
/// web endpoint (no-op when the endpoint does not exist, e.g. DNS-only,
/// where the policy host's name is not even built).
fn remove_customer_state(world: &mut World, ip: std::net::Ipv4Addr, spec: &DomainSpec) {
    world.with_web(ip, |ep| {
        let policy_host = spec.name.prefixed("mta-sts").expect("static label");
        ep.identity.remove(&policy_host);
        ep.remove_policy(&policy_host);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcosystemConfig;
    use crate::spec::PolicyFaultKind;
    use std::fmt::Write as _;

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig::paper(42, 0.02))
    }

    /// Every observation a scan makes of every adopted domain, as one
    /// comparable string: record + TLSRPT TXT sets, MX host sets, the
    /// policy fetch outcome with its CNAME chain, and each MX's STARTTLS
    /// certificate verdict.
    fn observe(world: &World, eco: &Ecosystem, date: SimDate) -> String {
        let now = date.at_midnight();
        let mut out = String::new();
        for spec in eco.domains_at(date) {
            let _ = writeln!(
                out,
                "{} txt={:?} tlsrpt={:?}",
                spec.name,
                world.mta_sts_txts(&spec.name, now),
                world.tlsrpt_txts(&spec.name, now),
            );
            let fetch = world.fetch_policy(&spec.name, now);
            let _ = writeln!(
                out,
                "  fetch={:?} cnames={:?}",
                fetch.result, fetch.cname_chain
            );
            if let Ok(hosts) = world.mx_records(&spec.name, now) {
                for host in hosts {
                    let probe = world.probe_mx(&host, None, now);
                    let _ = writeln!(
                        out,
                        "  mx {host} verdict={:?}",
                        probe.cert_verdict(&host, now, world.pki.trust_store())
                    );
                }
            }
        }
        out
    }

    /// What every web endpoint holds, by IP: the hosts it serves
    /// documents for with their status and body, and the names it holds
    /// chains for. Serials follow issue order, so names stand for chains.
    fn served(world: &World) -> String {
        let mut ips = world.web_ips();
        ips.sort();
        let mut out = String::new();
        for ip in ips {
            let ep = world.web_endpoint(ip).expect("listed ip exists");
            let mut documents: Vec<_> = ep.documents.iter().collect();
            documents.sort();
            let mut names: Vec<_> = ep.identity.names().collect();
            names.sort();
            let _ = writeln!(out, "{ip} documents={documents:?} chains={names:?}");
        }
        out
    }

    #[test]
    fn advancing_matches_from_scratch_at_every_checkpoint() {
        let mut eco = eco();
        // Two June-8 victims whose static fault leaves their provider
        // endpoint without one piece of customer state. Inside the
        // window each is re-installed with a self-signed chain and a
        // document; after it, one has no chain and the other no
        // document, so an eviction that left either behind shows.
        let mut victims = eco.population.domains.iter_mut().filter(|d| d.june8_victim);
        for fault in [PolicyFaultKind::TlsNoCert, PolicyFaultKind::Http404] {
            victims.next().expect("two June-8 victims").faults.policy = Some(fault);
        }
        let mut iw = IncrementalWorld::new(SnapshotDetail::Full);
        // Deliberately includes both incident windows (Jan 23 inside
        // lucidgrow, Jun 8 inside the June-8 outage) and the study end.
        for date in [
            SimDate::ymd(2023, 11, 7),
            SimDate::ymd(2024, 1, 23),
            SimDate::ymd(2024, 3, 7),
            SimDate::ymd(2024, 6, 8),
            SimDate::ymd(2024, 9, 29),
        ] {
            iw.advance_to(&eco, date);
            let scratch = eco.world_at(date, SnapshotDetail::Full);
            assert_eq!(
                observe(iw.world(), &eco, date),
                observe(&scratch, &eco, date),
                "divergence at {date}"
            );
            // An eviction leaves nothing behind on a shared endpoint, even
            // where no adopted domain would observe it.
            assert_eq!(
                served(iw.world()),
                served(&scratch),
                "endpoint state differs at {date}"
            );
        }
    }

    #[test]
    fn weekly_advance_touches_only_a_sliver() {
        let eco = eco();
        let mut iw = IncrementalWorld::new(SnapshotDetail::Full);
        let full = iw.advance_to(&eco, SimDate::ymd(2024, 3, 1));
        assert_eq!(full.reinstalled, 0, "first advance installs fresh");
        assert_eq!(full.unchanged, 0);
        let week = iw.advance_to(&eco, SimDate::ymd(2024, 3, 8));
        let adopted = eco.domains_at(SimDate::ymd(2024, 3, 8)).count();
        assert_eq!(week.installed + week.reinstalled + week.unchanged, adopted);
        assert!(
            week.dirty() * 5 < week.unchanged,
            "one calm week should be >80% unchanged: {week:?}"
        );
    }

    #[test]
    fn same_date_advance_is_a_noop() {
        let eco = eco();
        let date = SimDate::ymd(2024, 4, 1);
        let mut iw = IncrementalWorld::new(SnapshotDetail::Full);
        let first = iw.advance_to(&eco, date);
        let before = observe(iw.world(), &eco, date);
        let again = iw.advance_to(&eco, date);
        assert_eq!(again.dirty(), 0);
        assert_eq!(again.unchanged, first.installed);
        assert_eq!(observe(iw.world(), &eco, date), before);
    }

    #[test]
    fn installed_fingerprints_track_the_current_date() {
        let eco = eco();
        let date = SimDate::ymd(2024, 5, 1);
        let mut iw = IncrementalWorld::new(SnapshotDetail::DnsOnly);
        iw.advance_to(&eco, date);
        let ctx = eco.fingerprint_context(date);
        for (index, spec) in eco.population.domains.iter().enumerate() {
            assert_eq!(
                iw.installed_fingerprint(index),
                eco.fingerprint_at(spec, &ctx),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn event_driven_advance_matches_a_full_sweep_every_week() {
        // The O(adopters + changes) candidate walk must leave exactly the
        // state an O(population) fingerprint sweep would: every installed
        // fingerprint equals the scratch-context fingerprint at every
        // weekly date, and the dirty list matches the stats.
        let eco = eco();
        let mut iw = IncrementalWorld::new(SnapshotDetail::DnsOnly);
        for date in eco.config.weekly_snapshots() {
            let stats = iw.advance_to(&eco, date);
            assert_eq!(stats.dirty(), iw.last_dirty().len(), "{date}");
            assert!(iw.last_dirty().windows(2).all(|w| w[0] < w[1]));
            let ctx = eco.fingerprint_context_scratch(date);
            for (index, spec) in eco.population.domains.iter().enumerate() {
                assert_eq!(
                    iw.installed_fingerprint(index),
                    eco.fingerprint_at(spec, &ctx),
                    "{} at {date}",
                    spec.name
                );
            }
            assert_eq!(iw.installed_count(), eco.domains_at(date).count());
        }
    }
}
