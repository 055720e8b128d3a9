//! The world: zones, endpoints and the shared PKI under one handle.

use crate::endpoint::{MxEndpoint, WebEndpoint};
use crate::faults::{
    AttackKind, AttackSchedule, FaultKind, FaultSchedule, FaultStage, TransientFaultConfig,
};
use crate::pki::SharedPki;
use dns::{DnsError, InMemoryAuthorities, Lookup, Rcode, RecordData, RecordType, TlsaRecord, Zone};
use netbase::{DomainName, NameKey, SimInstant};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// First 10/8 offset *not* served by [`World::alloc_ip`]. The sequential
/// allocator hands out `10.0.0.1 ..` up to (exclusive) this offset; the
/// range from here to the top of 10/8 belongs to deterministic,
/// caller-derived addressing (incremental deployment derives per-domain
/// endpoint addresses from stable population indices so a domain's IPs
/// never depend on how many other domains were installed first).
pub const DYNAMIC_IP_LIMIT: u32 = 1 << 23;

/// A zone apex as [`World::ensure_zone`] takes it: a [`DomainName`], or
/// the `&str` of one, such as a host's [`DomainName::esld_str`]. The
/// zone is found by the string; only a new zone builds its apex name, a
/// clone of the `DomainName` or a parse of the `&str`.
pub trait ZoneApex {
    /// The apex in presentation form.
    fn apex_str(&self) -> &str;
    /// The apex as a name, for a new zone.
    fn apex_name(&self) -> DomainName;
}

impl ZoneApex for DomainName {
    fn apex_str(&self) -> &str {
        self.as_str()
    }

    fn apex_name(&self) -> DomainName {
        self.clone()
    }
}

impl ZoneApex for str {
    fn apex_str(&self) -> &str {
        self
    }

    fn apex_name(&self) -> DomainName {
        self.parse().expect("zone apexes are valid names")
    }
}

/// The simulated Internet: plain data. Building and editing it takes
/// `&mut self`; scans, fetches, probes and deliveries borrow `&World` and
/// read it without a lock, so no edit can land while one runs.
pub struct World {
    /// All authoritative zones.
    pub authorities: InMemoryAuthorities,
    /// The shared web PKI.
    pub pki: SharedPki,
    web: HashMap<Ipv4Addr, WebEndpoint>,
    mx: HashMap<Ipv4Addr, MxEndpoint>,
    signed_zones: HashSet<NameKey>,
    dns_faults: FaultSchedule,
    attacker: AttackSchedule,
    next_ip: u32,
}

impl World {
    /// An empty world with a fresh PKI.
    pub fn new() -> World {
        World {
            authorities: InMemoryAuthorities::new(),
            pki: SharedPki::new(),
            web: HashMap::new(),
            mx: HashMap::new(),
            signed_zones: HashSet::new(),
            dns_faults: FaultSchedule::default(),
            attacker: AttackSchedule::default(),
            // 10.0.0.0/8, skipping .0.0.0.
            next_ip: 1,
        }
    }

    /// Installs the transient-fault schedule for the resolver path.
    pub fn set_dns_faults(&mut self, schedule: FaultSchedule) {
        self.dns_faults = schedule;
    }

    /// Applies blanket transient-fault rates across the whole world: the
    /// resolver path plus every currently registered web and MX endpoint
    /// (decorrelated per endpoint by its IP). Endpoints registered later
    /// are unaffected; re-apply after deploying more.
    pub fn inject_transient_faults(&mut self, cfg: &TransientFaultConfig) {
        self.set_dns_faults(cfg.dns_schedule());
        for (ip, ep) in self.web.iter_mut() {
            ep.faults = cfg.web_schedule(u64::from(u32::from(*ip)));
        }
        for (ip, ep) in self.mx.iter_mut() {
            ep.faults = cfg.mx_schedule(u64::from(u32::from(*ip)));
        }
    }

    /// Installs the active attacker's plan. The attacker sits on-path:
    /// [`World::mta_sts_txts`], [`World::mx_records`],
    /// [`World::fetch_policy`] and [`World::probe_mx`] all consult it.
    pub fn set_attacker(&mut self, schedule: AttackSchedule) {
        self.attacker = schedule;
    }

    /// The attacker's plan.
    pub fn attacker(&self) -> &AttackSchedule {
        &self.attacker
    }

    /// Whether `kind` is active against `name` at `now`.
    pub fn attack_active(&self, kind: AttackKind, name: &DomainName, now: SimInstant) -> bool {
        self.attacker.active(kind, name, now)
    }

    /// Whether any transient-fault schedule is installed anywhere — the
    /// resolver path or any registered endpoint. Scan caches must refuse
    /// to reuse results across snapshots while this is true: fault draws
    /// are keyed on the admitted instant, so an unchanged configuration
    /// does not imply an unchanged observation.
    pub fn has_transient_faults(&self) -> bool {
        !self.dns_faults.is_empty()
            || self.web.values().any(|ep| !ep.faults.is_empty())
            || self.mx.values().any(|ep| !ep.faults.is_empty())
    }

    /// Whether any attack window is installed at all (active or not).
    pub fn has_attacker(&self) -> bool {
        !self.attacker.is_empty()
    }

    /// Drops the zone for `apex` entirely; returns whether it existed.
    pub fn remove_zone(&mut self, apex: &DomainName) -> bool {
        self.authorities.remove_zone(apex)
    }

    /// Allocates a fresh simulated IPv4 address in the dynamic half of
    /// 10/8 (below [`DYNAMIC_IP_LIMIT`]). Addresses at or above the limit
    /// are reserved for callers that derive addresses deterministically
    /// and register them via [`World::put_web_endpoint`] /
    /// [`World::put_mx_endpoint`], so the two schemes can never collide.
    pub fn alloc_ip(&mut self) -> Ipv4Addr {
        let v = self.next_ip;
        self.next_ip += 1;
        assert!(
            v < DYNAMIC_IP_LIMIT,
            "simulated dynamic 10/8 pool exhausted"
        );
        Ipv4Addr::new(10, (v >> 16) as u8, (v >> 8) as u8, v as u8)
    }

    /// The zone for `apex`, created empty if missing.
    pub fn ensure_zone<A: ZoneApex + ?Sized>(&mut self, apex: &A) -> &mut Zone {
        let key = apex.apex_str();
        if self.authorities.zone_mut(key).is_none() {
            self.authorities.upsert_zone(Zone::new(apex.apex_name()));
        }
        self.authorities.zone_mut(key).expect("ensured above")
    }

    /// Runs `f` on the zone for `apex` (which must exist).
    pub fn with_zone<R>(&mut self, apex: &DomainName, f: impl FnOnce(&mut Zone) -> R) -> R {
        let zone = self
            .authorities
            .zone_mut(apex.as_str())
            .unwrap_or_else(|| panic!("zone {apex} does not exist"));
        f(zone)
    }

    /// Marks a zone as DNSSEC-signed (the DANE gate).
    pub fn set_dnssec(&mut self, apex: &DomainName, signed: bool) {
        if signed {
            self.signed_zones.insert(NameKey(apex.clone()));
        } else {
            self.signed_zones.remove(apex.as_str());
        }
    }

    /// Whether the zone containing `name` is DNSSEC-signed (longest match
    /// by eSLD: per-domain signing in this simulation).
    pub fn is_signed(&self, name: &DomainName) -> bool {
        name.suffixes().any(|apex| self.signed_zones.contains(apex))
    }

    /// Registers a web endpoint; returns its IP.
    pub fn add_web_endpoint(&mut self, endpoint: WebEndpoint) -> Ipv4Addr {
        let ip = self.alloc_ip();
        self.put_web_endpoint(ip, endpoint);
        ip
    }

    /// Registers a web endpoint at a specific IP (tests, named incidents,
    /// deterministic per-domain addressing).
    pub fn put_web_endpoint(&mut self, ip: Ipv4Addr, endpoint: WebEndpoint) {
        self.web.insert(ip, endpoint);
    }

    /// Removes the web endpoint at `ip`; returns whether one existed.
    pub fn remove_web_endpoint(&mut self, ip: Ipv4Addr) -> bool {
        self.web.remove(&ip).is_some()
    }

    /// Mutates the web endpoint at `ip` in place.
    pub fn with_web<R>(
        &mut self,
        ip: Ipv4Addr,
        f: impl FnOnce(&mut WebEndpoint) -> R,
    ) -> Option<R> {
        self.web.get_mut(&ip).map(f)
    }

    /// The web endpoint at `ip`, borrowed. Provider hosts carry every
    /// customer's chains and documents, so the policy fetch reads them in
    /// place; no change can land while the borrow lives.
    pub fn web_endpoint(&self, ip: Ipv4Addr) -> Option<&WebEndpoint> {
        self.web.get(&ip)
    }

    /// All web endpoint IPs.
    pub fn web_ips(&self) -> Vec<Ipv4Addr> {
        self.web.keys().copied().collect()
    }

    /// Registers an MX endpoint; returns its IP.
    pub fn add_mx_endpoint(&mut self, endpoint: MxEndpoint) -> Ipv4Addr {
        let ip = self.alloc_ip();
        self.put_mx_endpoint(ip, endpoint);
        ip
    }

    /// Registers an MX endpoint at a specific IP (deterministic per-domain
    /// addressing).
    pub fn put_mx_endpoint(&mut self, ip: Ipv4Addr, endpoint: MxEndpoint) {
        self.mx.insert(ip, endpoint);
    }

    /// Removes the MX endpoint at `ip`; returns whether one existed.
    pub fn remove_mx_endpoint(&mut self, ip: Ipv4Addr) -> bool {
        self.mx.remove(&ip).is_some()
    }

    /// Mutates the MX endpoint at `ip` in place.
    pub fn with_mx<R>(&mut self, ip: Ipv4Addr, f: impl FnOnce(&mut MxEndpoint) -> R) -> Option<R> {
        self.mx.get_mut(&ip).map(f)
    }

    /// The MX endpoint at `ip`, borrowed like [`World::web_endpoint`].
    pub fn mx_endpoint(&self, ip: Ipv4Addr) -> Option<&MxEndpoint> {
        self.mx.get(&ip)
    }

    /// All MX endpoint IPs.
    pub fn mx_ips(&self) -> Vec<Ipv4Addr> {
        self.mx.keys().copied().collect()
    }

    /// Resolves `name`/`rtype` at `now` against the world's zones.
    ///
    /// Transient DNS faults are drawn *in front of* the zones, keyed on
    /// `now`: a retry at a later instant re-draws and, absent a fault,
    /// sees the real answer.
    pub fn resolve(
        &self,
        name: &DomainName,
        rtype: RecordType,
        now: SimInstant,
    ) -> Result<Lookup, DnsError> {
        let scope = format_args!("dns/{name}/{rtype:?}");
        if let Some(kind) = self.dns_faults.sample(FaultStage::Dns, scope, now) {
            return Err(match kind {
                FaultKind::DnsDrop => DnsError::Timeout,
                _ => DnsError::ServFail(Rcode::ServFail),
            });
        }
        dns::resolve(&self.authorities, name, rtype)
    }

    /// The TXT strings at `_mta-sts.<domain>`, or the DNS error.
    ///
    /// An active [`AttackKind::DnsTxtStrip`] window filters the answers:
    /// the sender sees an empty (record-less) response, exactly as if the
    /// domain never deployed MTA-STS — the first-contact downgrade the
    /// TOFU cache exists to bound.
    pub fn mta_sts_txts(
        &self,
        domain: &DomainName,
        now: SimInstant,
    ) -> Result<Vec<String>, DnsError> {
        if self.attack_active(AttackKind::DnsTxtStrip, domain, now) {
            return Ok(Vec::new());
        }
        let name = domain
            .prefixed(mtasts::RECORD_LABEL)
            .expect("record label is valid");
        Ok(self.resolve(&name, RecordType::Txt, now)?.txt_strings())
    }

    /// The TXT strings at `_smtp._tls.<domain>` (TLSRPT), or the DNS error.
    pub fn tlsrpt_txts(
        &self,
        domain: &DomainName,
        now: SimInstant,
    ) -> Result<Vec<String>, DnsError> {
        let name = domain
            .prefixed("_smtp._tls")
            .expect("static labels are valid");
        Ok(self.resolve(&name, RecordType::Txt, now)?.txt_strings())
    }

    /// The domain's MX hosts sorted by preference (empty = none published).
    ///
    /// An active [`AttackKind::MxRedirect`] window forges the answer to
    /// point at the attacker's relay — against a cached policy this is the
    /// `MxNotListed` failure RFC 8461 exists to catch.
    pub fn mx_records(
        &self,
        domain: &DomainName,
        now: SimInstant,
    ) -> Result<Vec<DomainName>, DnsError> {
        Ok(self
            .mx_records_with_pref(domain, now)?
            .into_iter()
            .map(|(_, host)| host)
            .collect())
    }

    /// The domain's MX hosts with their RFC 5321 preference values, sorted
    /// ascending by `(preference, host)` — the tiered fail-over ladder the
    /// outbound delivery pipeline walks. A forged [`AttackKind::MxRedirect`]
    /// answer carries preference 0, so the attacker's relay outranks every
    /// legitimate tier exactly as a real forged answer would.
    pub fn mx_records_with_pref(
        &self,
        domain: &DomainName,
        now: SimInstant,
    ) -> Result<Vec<(u16, DomainName)>, DnsError> {
        if self.attack_active(AttackKind::MxRedirect, domain, now) {
            return Ok(vec![(0, self.attacker.attacker_host().clone())]);
        }
        Ok(self.resolve(domain, RecordType::Mx, now)?.mx_hosts())
    }

    /// The TLSA RRset at `_25._tcp.<mx_host>` when the zone holding it is
    /// DNSSEC-signed and the set is not empty: the records DANE (RFC 7672)
    /// lets a sender use. `None` when DANE does not apply to the host.
    pub fn tlsa_records(&self, mx_host: &DomainName, now: SimInstant) -> Option<Vec<TlsaRecord>> {
        let name = danelite::tlsa_name(mx_host);
        if !self.is_signed(&name) {
            return None;
        }
        let lookup = self.resolve(&name, RecordType::Tlsa, now).ok()?;
        let records: Vec<TlsaRecord> = lookup
            .records
            .iter()
            .filter_map(|r| match &r.data {
                RecordData::Tlsa(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        (!records.is_empty()).then_some(records)
    }
}

impl Default for World {
    fn default() -> World {
        World::new()
    }
}

// The parallel scan engine hands `&World` to shard workers, which read it
// without a lock: the world is plain data (no `Rc`/`RefCell`/`Cell`), and
// endpoints are borrowed out of it, so no edit can land while a worker
// reads one. This assertion turns a future regression into a compile
// error instead of a data race.
#[allow(dead_code)]
fn static_assert_world_is_shareable() {
    fn shareable<T: Send + Sync>() {}
    shareable::<World>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::RecordData;
    use netbase::SimDate;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn now() -> SimInstant {
        SimDate::ymd(2024, 6, 1).at_midnight()
    }

    #[test]
    fn ip_allocation_is_unique_and_in_10_slash_8() {
        let mut w = World::new();
        let a = w.alloc_ip();
        let b = w.alloc_ip();
        assert_ne!(a, b);
        assert_eq!(a.octets()[0], 10);
    }

    #[test]
    fn zone_management() {
        let mut w = World::new();
        w.ensure_zone(&n("example.com"));
        w.with_zone(&n("example.com"), |z| {
            z.add_rr(
                &n("example.com"),
                300,
                RecordData::Mx {
                    preference: 10,
                    exchange: n("mx.example.com"),
                },
            );
        });
        assert_eq!(
            w.mx_records(&n("example.com"), now()).unwrap(),
            vec![n("mx.example.com")]
        );
        // ensure_zone is idempotent, and finds the zone by its string.
        w.ensure_zone(&n("example.com"));
        assert_eq!(w.ensure_zone("example.com").len(), 1);
        assert_eq!(w.mx_records(&n("example.com"), now()).unwrap().len(), 1);
        assert_eq!(w.authorities.zone_count(), 1);
    }

    #[test]
    fn zone_edits_are_visible_at_once() {
        let apex = n("example.com");
        let mut w = World::new();
        w.ensure_zone(&apex);
        let set_mx = |w: &mut World, host: &str| {
            w.with_zone(&apex, |z| {
                z.remove(&apex, RecordType::Mx);
                let exchange = n(host);
                z.add_rr(
                    &apex,
                    300,
                    RecordData::Mx {
                        preference: 10,
                        exchange,
                    },
                );
            })
        };
        // A replaced exchange shows at the same instant, well inside the
        // old record's 300 s TTL.
        set_mx(&mut w, "mx1.example.com");
        assert_eq!(
            w.mx_records(&apex, now()).unwrap(),
            vec![n("mx1.example.com")]
        );
        set_mx(&mut w, "mx2.example.com");
        assert_eq!(
            w.mx_records(&apex, now()).unwrap(),
            vec![n("mx2.example.com")]
        );
        // So does a name that answered NXDOMAIN before it was added.
        let late = n("late.example.com");
        assert_eq!(
            w.resolve(&late, RecordType::A, now()),
            Err(DnsError::NxDomain)
        );
        let ip = Ipv4Addr::new(192, 0, 2, 1);
        w.with_zone(&apex, |z| z.add_rr(&late, 300, RecordData::A(ip)));
        assert_eq!(
            w.resolve(&late, RecordType::A, now()).unwrap().a_addrs(),
            vec![ip]
        );
    }

    #[test]
    fn dnssec_flags_follow_hierarchy() {
        let mut w = World::new();
        w.set_dnssec(&n("signed.se"), true);
        assert!(w.is_signed(&n("signed.se")));
        assert!(w.is_signed(&n("mx.signed.se")));
        assert!(!w.is_signed(&n("other.se")));
        w.set_dnssec(&n("signed.se"), false);
        assert!(!w.is_signed(&n("mx.signed.se")));
    }

    #[test]
    fn record_lookups() {
        let mut w = World::new();
        w.ensure_zone(&n("example.com"));
        w.with_zone(&n("example.com"), |z| {
            z.add_rr(
                &n("_mta-sts.example.com"),
                300,
                RecordData::Txt(vec!["v=STSv1; id=1;".into()]),
            );
            z.add_rr(
                &n("_smtp._tls.example.com"),
                300,
                RecordData::Txt(vec!["v=TLSRPTv1; rua=mailto:t@example.com".into()]),
            );
        });
        assert_eq!(w.mta_sts_txts(&n("example.com"), now()).unwrap().len(), 1);
        assert_eq!(w.tlsrpt_txts(&n("example.com"), now()).unwrap().len(), 1);
        assert!(w.mta_sts_txts(&n("missing.org"), now()).is_err());
    }

    #[test]
    fn endpoint_registries() {
        let mut w = World::new();
        let web_ip = w.add_web_endpoint(WebEndpoint::up());
        assert!(w.web_endpoint(web_ip).is_some());
        w.with_web(web_ip, |ep| {
            ep.install_policy(
                n("mta-sts.example.com"),
                "version: STSv1\nmode: none\nmax_age: 60\n",
            );
        });
        assert_eq!(w.web_endpoint(web_ip).unwrap().documents.len(), 1);
        let mx_ip = w.add_mx_endpoint(MxEndpoint::plaintext(n("mx.example.com")));
        assert!(w.mx_endpoint(mx_ip).is_some());
        assert_eq!(w.web_ips().len(), 1);
        assert_eq!(w.mx_ips().len(), 1);
        // `put_*` replaces whatever sits at the address.
        w.put_web_endpoint(web_ip, WebEndpoint::up());
        assert!(w.web_endpoint(web_ip).unwrap().documents.is_empty());
        assert!(w.remove_web_endpoint(web_ip) && w.remove_mx_endpoint(mx_ip));
        assert!(w.web_endpoint(web_ip).is_none() && w.mx_endpoint(mx_ip).is_none());
        assert!(w.with_web(web_ip, |_| ()).is_none() && w.with_mx(mx_ip, |_| ()).is_none());
    }

    #[test]
    fn bulk_mutations_reach_every_endpoint() {
        let mut w = World::new();
        let web_ip = w.add_web_endpoint(WebEndpoint::up());
        let mx_ip = w.add_mx_endpoint(MxEndpoint::plaintext(n("mx.example.com")));
        assert!(!w.has_transient_faults());
        w.inject_transient_faults(&TransientFaultConfig::uniform(5, 0.1));
        assert!(w.has_transient_faults());
        assert!(!w.web_endpoint(web_ip).unwrap().faults.is_empty());
        assert!(!w.mx_endpoint(mx_ip).unwrap().faults.is_empty());
    }
}
