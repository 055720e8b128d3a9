//! Authoritative zones.
//!
//! A [`Zone`] owns all records at or below an apex name and answers
//! questions with correct RFC 1034 semantics: positive answers, CNAME
//! inclusion and restart, NODATA (empty answer + SOA in authority) and
//! NXDOMAIN (with the empty-non-terminal subtlety: a name with no records
//! but with records below it yields NODATA, not NXDOMAIN).
//!
//! Zones can be parsed from and serialized to a master-file-like textual
//! format, mirroring how the paper ingests the daily registry zone files
//! for `.com`, `.net`, `.org` and `.se` (§3.1).

use crate::types::{Question, Record, RecordData, RecordType, SoaRecord, TlsaRecord};
use netbase::DomainName;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Default TTL applied by the zone-file parser when none is given.
pub const DEFAULT_TTL: u32 = 3600;

/// The outcome of an authoritative lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneLookup {
    /// Records of the requested type exist at the name. If the name was
    /// reached through CNAMEs, the chain records precede the final answers.
    Answer(Vec<Record>),
    /// The name exists (or is an empty non-terminal) but has no records of
    /// the requested type. Contains any CNAME chain traversed before the
    /// terminal name, which is how a resolver learns partial aliases.
    NoData(Vec<Record>),
    /// The name does not exist in the zone.
    NxDomain,
    /// The question is outside this zone's authority.
    NotAuthoritative,
}

/// An authoritative zone: an apex plus a name→records map.
///
/// Sized for a world of tens of thousands of zones, most holding a few
/// owners of one record each: an owner's single record sits inline in
/// the map, and a zone that keeps the default SOA stores no SOA names at
/// all (they derive from the apex when a negative answer carries them).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Zone {
    /// Apex (origin) of the zone.
    apex: DomainName,
    /// SOA parameters given by [`Zone::set_soa`]; `None` is the default
    /// (see [`Zone::soa`]). Boxed, since almost every zone keeps it.
    soa: Option<Box<SoaRecord>>,
    /// All records, keyed by owner name.
    records: BTreeMap<DomainName, RecordSet>,
}

/// The records at one owner name, in the order they were added. One
/// record stays inline; a second moves the set into a vector, and a
/// removal that leaves one record moves it back, so equal sets have one
/// representation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum RecordSet {
    One(Record),
    Many(Vec<Record>),
}

impl RecordSet {
    fn as_slice(&self) -> &[Record] {
        match self {
            RecordSet::One(record) => std::slice::from_ref(record),
            RecordSet::Many(records) => records,
        }
    }

    fn push(&mut self, record: Record) {
        match self {
            RecordSet::Many(records) => records.push(record),
            RecordSet::One(_) => {
                let RecordSet::One(first) = std::mem::replace(self, RecordSet::Many(Vec::new()))
                else {
                    unreachable!("matched a single record")
                };
                *self = RecordSet::Many(vec![first, record]);
            }
        }
    }

    /// Drops the records of type `rtype`; returns how many went and how
    /// many are left. At zero left the set still holds a record, and the
    /// caller drops the set.
    fn remove(&mut self, rtype: RecordType) -> (usize, usize) {
        match self {
            RecordSet::One(record) if record.rtype() == rtype => (1, 0),
            RecordSet::One(_) => (0, 1),
            RecordSet::Many(records) => {
                let before = records.len();
                records.retain(|r| r.rtype() != rtype);
                let left = records.len();
                if left == 1 {
                    let last = records.pop().expect("one record left");
                    *self = RecordSet::One(last);
                }
                (before - left, left)
            }
        }
    }
}

/// The SOA a zone serves unless [`Zone::set_soa`] replaced it.
fn default_soa(apex: &DomainName) -> SoaRecord {
    SoaRecord {
        mname: apex.prefixed("ns1").expect("apex accepts ns1 label"),
        rname: apex.prefixed("hostmaster").expect("apex accepts label"),
        serial: 1,
        refresh: 7200,
        retry: 3600,
        expire: 1_209_600,
        minimum: 300,
    }
}

impl Zone {
    /// Creates an empty zone with the default SOA.
    pub fn new(apex: DomainName) -> Zone {
        Zone {
            apex,
            soa: None,
            records: BTreeMap::new(),
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &DomainName {
        &self.apex
    }

    /// The zone's SOA parameters: those [`Zone::set_soa`] gave, or the
    /// default, `ns1.<apex>` and `hostmaster.<apex>` with fixed timers,
    /// whose two names are built on each call.
    pub fn soa(&self) -> SoaRecord {
        match &self.soa {
            Some(soa) => SoaRecord::clone(soa),
            None => default_soa(&self.apex),
        }
    }

    /// Replaces the SOA parameters. The default's values store as the
    /// default, so a zone compares equal however its SOA was set.
    pub fn set_soa(&mut self, soa: SoaRecord) {
        self.soa = (soa != default_soa(&self.apex)).then(|| Box::new(soa));
    }

    /// Adds a record.
    ///
    /// # Panics
    ///
    /// Panics if the owner name is outside the zone (a configuration bug in
    /// the simulation, never a runtime input).
    pub fn add(&mut self, record: Record) {
        assert!(
            record.name.is_subdomain_of(&self.apex),
            "record {} outside zone {}",
            record.name,
            self.apex
        );
        match self.records.entry(record.name.clone()) {
            Entry::Occupied(mut set) => set.get_mut().push(record),
            Entry::Vacant(slot) => {
                slot.insert(RecordSet::One(record));
            }
        }
    }

    /// Convenience: add a record by parts.
    pub fn add_rr(&mut self, name: &DomainName, ttl: u32, data: RecordData) {
        self.add(Record::new(name.clone(), ttl, data));
    }

    /// Removes all records at `name` of type `rtype`; returns how many were
    /// removed.
    pub fn remove(&mut self, name: &DomainName, rtype: RecordType) -> usize {
        let Some(set) = self.records.get_mut(name) else {
            return 0;
        };
        let (removed, left) = set.remove(rtype);
        if left == 0 {
            self.records.remove(name);
        }
        removed
    }

    /// Removes every record at `name`.
    pub fn remove_all(&mut self, name: &DomainName) -> usize {
        self.records
            .remove(name)
            .map_or(0, |set| set.as_slice().len())
    }

    /// Every record at `name`, borrowed, in the order added.
    pub fn records(&self, name: &DomainName) -> &[Record] {
        self.records.get(name).map_or(&[], RecordSet::as_slice)
    }

    /// All records at `name` of type `rtype` (no CNAME processing).
    pub fn get(&self, name: &DomainName, rtype: RecordType) -> Vec<Record> {
        self.records(name)
            .iter()
            .filter(|r| r.rtype() == rtype)
            .cloned()
            .collect()
    }

    /// Whether any record exists at exactly `name`.
    pub fn name_exists(&self, name: &DomainName) -> bool {
        self.records.contains_key(name)
    }

    /// Whether any record exists at or below `name` (empty non-terminal
    /// detection). Zones in this study are per-domain and small, so a linear
    /// scan is fine.
    fn subtree_exists(&self, name: &DomainName) -> bool {
        self.records.keys().any(|k| k.is_subdomain_of(name))
    }

    /// Number of owner names in the zone.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the zone holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over all records.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.values().flat_map(RecordSet::as_slice)
    }

    /// The SOA as a record at the apex (for negative responses).
    pub fn soa_record(&self) -> Record {
        let soa = self.soa();
        Record::new(self.apex.clone(), soa.minimum, RecordData::Soa(soa))
    }

    /// Answers a question with RFC 1034 §4.3.2 semantics, following CNAMEs
    /// *within this zone* (up to 8 links).
    pub fn lookup(&self, q: &Question) -> ZoneLookup {
        if !q.name.is_subdomain_of(&self.apex) {
            return ZoneLookup::NotAuthoritative;
        }
        let mut chain: Vec<Record> = Vec::new();
        let mut current = &q.name;
        for _ in 0..8 {
            if let Some(set) = self.records.get(current) {
                let records = set.as_slice();
                // Exact-type match? The answer is the chain plus the hits,
                // each cloned once.
                let is_hit = |r: &&Record| r.rtype() == q.rtype;
                if records.iter().any(|r| is_hit(&r)) {
                    let mut out = chain;
                    out.extend(records.iter().filter(is_hit).cloned());
                    return ZoneLookup::Answer(out);
                }
                // CNAME present (and the query itself is not for CNAME)?
                if q.rtype != RecordType::Cname {
                    let cname = records.iter().find_map(|r| match &r.data {
                        RecordData::Cname(target) => Some((r, target)),
                        _ => None,
                    });
                    if let Some((record, target)) = cname {
                        chain.push(record.clone());
                        if target.is_subdomain_of(&self.apex) {
                            current = target;
                            continue;
                        }
                        // Target is out-of-zone: the resolver restarts there.
                        return ZoneLookup::NoData(chain);
                    }
                }
                return ZoneLookup::NoData(chain);
            }
            // Name has no records: empty non-terminal or NXDOMAIN.
            if *current == self.apex || self.subtree_exists(current) {
                return ZoneLookup::NoData(chain);
            }
            return ZoneLookup::NxDomain;
        }
        // CNAME chain too long; treat as server failure upstream.
        ZoneLookup::NoData(chain)
    }

    /// Serializes the zone to the textual format accepted by
    /// [`Zone::parse`].
    pub fn to_zonefile(&self) -> String {
        let soa = self.soa();
        let mut out = String::new();
        out.push_str(&format!("$ORIGIN {}.\n", self.apex));
        out.push_str(&format!(
            "@ {} IN SOA {}. {}. {} {} {} {} {}\n",
            soa.minimum,
            soa.mname,
            soa.rname,
            soa.serial,
            soa.refresh,
            soa.retry,
            soa.expire,
            soa.minimum
        ));
        for r in self.iter() {
            out.push_str(&format_record(r, &self.apex));
            out.push('\n');
        }
        out
    }

    /// Parses a zone from the textual format produced by
    /// [`Zone::to_zonefile`]. Lines are `name ttl IN type rdata...`;
    /// `@` denotes the origin; `$ORIGIN` sets the apex; `;` starts a
    /// comment; names without a trailing dot are relative to the origin.
    pub fn parse(text: &str) -> Result<Zone, ZoneParseError> {
        let mut origin: Option<DomainName> = None;
        let mut zone: Option<Zone> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| ZoneParseError {
                line: lineno + 1,
                message: msg.to_string(),
            };
            if let Some(rest) = line.strip_prefix("$ORIGIN") {
                let name = rest.trim().trim_end_matches('.');
                let apex = DomainName::parse(name).map_err(|e| err(&e.to_string()))?;
                origin = Some(apex.clone());
                zone = Some(Zone::new(apex));
                continue;
            }
            let origin_ref = origin
                .as_ref()
                .ok_or_else(|| err("record before $ORIGIN"))?;
            let mut parts = line.split_whitespace();
            let name_tok = parts.next().ok_or_else(|| err("missing name"))?;
            let name = parse_name_token(name_tok, origin_ref).map_err(|e| err(&e))?;
            let ttl_tok = parts.next().ok_or_else(|| err("missing ttl"))?;
            let ttl: u32 = ttl_tok.parse().map_err(|_| err("bad ttl"))?;
            let class = parts.next().ok_or_else(|| err("missing class"))?;
            if class != "IN" {
                return Err(err("only class IN supported"));
            }
            let rtype = parts.next().ok_or_else(|| err("missing type"))?;
            let rest: Vec<&str> = parts.collect();
            let zone_mut = zone.as_mut().expect("zone set alongside origin");
            match rtype {
                "SOA" => {
                    if rest.len() != 7 {
                        return Err(err("SOA needs 7 fields"));
                    }
                    let soa = SoaRecord {
                        mname: parse_name_token(rest[0], origin_ref).map_err(|e| err(&e))?,
                        rname: parse_name_token(rest[1], origin_ref).map_err(|e| err(&e))?,
                        serial: rest[2].parse().map_err(|_| err("bad serial"))?,
                        refresh: rest[3].parse().map_err(|_| err("bad refresh"))?,
                        retry: rest[4].parse().map_err(|_| err("bad retry"))?,
                        expire: rest[5].parse().map_err(|_| err("bad expire"))?,
                        minimum: rest[6].parse().map_err(|_| err("bad minimum"))?,
                    };
                    zone_mut.set_soa(soa);
                }
                "A" => {
                    let a: Ipv4Addr = rest
                        .first()
                        .ok_or_else(|| err("A needs an address"))?
                        .parse()
                        .map_err(|_| err("bad IPv4 address"))?;
                    zone_mut.add(Record::new(name, ttl, RecordData::A(a)));
                }
                "AAAA" => {
                    let a: Ipv6Addr = rest
                        .first()
                        .ok_or_else(|| err("AAAA needs an address"))?
                        .parse()
                        .map_err(|_| err("bad IPv6 address"))?;
                    zone_mut.add(Record::new(name, ttl, RecordData::Aaaa(a)));
                }
                "NS" => {
                    let t = parse_name_token(
                        rest.first().ok_or_else(|| err("NS needs a target"))?,
                        origin_ref,
                    )
                    .map_err(|e| err(&e))?;
                    zone_mut.add(Record::new(name, ttl, RecordData::Ns(t)));
                }
                "CNAME" => {
                    let t = parse_name_token(
                        rest.first().ok_or_else(|| err("CNAME needs a target"))?,
                        origin_ref,
                    )
                    .map_err(|e| err(&e))?;
                    zone_mut.add(Record::new(name, ttl, RecordData::Cname(t)));
                }
                "PTR" => {
                    let t = parse_name_token(
                        rest.first().ok_or_else(|| err("PTR needs a target"))?,
                        origin_ref,
                    )
                    .map_err(|e| err(&e))?;
                    zone_mut.add(Record::new(name, ttl, RecordData::Ptr(t)));
                }
                "MX" => {
                    if rest.len() != 2 {
                        return Err(err("MX needs preference and exchange"));
                    }
                    let preference: u16 = rest[0].parse().map_err(|_| err("bad preference"))?;
                    let exchange = parse_name_token(rest[1], origin_ref).map_err(|e| err(&e))?;
                    zone_mut.add(Record::new(
                        name,
                        ttl,
                        RecordData::Mx {
                            preference,
                            exchange,
                        },
                    ));
                }
                "TXT" => {
                    // Use the raw line from the first quote so spacing
                    // inside quoted strings survives tokenization.
                    let raw_tail = line
                        .find('"')
                        .map(|i| &line[i..])
                        .ok_or_else(|| err("TXT needs quoted strings"))?;
                    let strings =
                        parse_txt_strings(raw_tail).ok_or_else(|| err("bad TXT quoting"))?;
                    zone_mut.add(Record::new(name, ttl, RecordData::Txt(strings)));
                }
                "TLSA" => {
                    if rest.len() != 4 {
                        return Err(err("TLSA needs 4 fields"));
                    }
                    let usage: u8 = rest[0].parse().map_err(|_| err("bad usage"))?;
                    let selector: u8 = rest[1].parse().map_err(|_| err("bad selector"))?;
                    let matching_type: u8 =
                        rest[2].parse().map_err(|_| err("bad matching type"))?;
                    let data = hex_decode(rest[3]).ok_or_else(|| err("bad hex data"))?;
                    zone_mut.add(Record::new(
                        name,
                        ttl,
                        RecordData::Tlsa(TlsaRecord {
                            usage,
                            selector,
                            matching_type,
                            data,
                        }),
                    ));
                }
                other => return Err(err(&format!("unsupported record type {other}"))),
            }
        }
        zone.ok_or(ZoneParseError {
            line: 0,
            message: "no $ORIGIN found".to_string(),
        })
    }
}

/// Error from [`Zone::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneParseError {
    /// 1-based line number (0 for file-level errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ZoneParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "zone parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ZoneParseError {}

/// Strips a `;` comment, but only outside double-quoted strings — MTA-STS
/// TXT payloads (`"v=STSv1; id=...;"`) are full of semicolons.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_quotes = !in_quotes,
            ';' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Resolves a zone-file name token against the origin: `@` is the origin,
/// a trailing dot means absolute, otherwise relative.
fn parse_name_token(tok: &str, origin: &DomainName) -> Result<DomainName, String> {
    if tok == "@" {
        return Ok(origin.clone());
    }
    if let Some(absolute) = tok.strip_suffix('.') {
        return DomainName::parse(absolute).map_err(|e| e.to_string());
    }
    DomainName::parse(&format!("{tok}.{origin}")).map_err(|e| e.to_string())
}

/// Parses one or more double-quoted strings: `"a" "b"`.
fn parse_txt_strings(s: &str) -> Option<Vec<String>> {
    let mut out = Vec::new();
    let mut rest = s.trim();
    while !rest.is_empty() {
        rest = rest.strip_prefix('"')?;
        let end = rest.find('"')?;
        out.push(rest[..end].to_string());
        rest = rest[end + 1..].trim_start();
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// Decodes a lowercase/uppercase hex string.
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// Encodes bytes as lowercase hex.
fn hex_encode(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02x}")).collect()
}

/// Formats a record as one zone-file line relative to `origin`.
fn format_record(r: &Record, origin: &DomainName) -> String {
    let name = format_name(&r.name, origin);
    let rdata = match &r.data {
        RecordData::A(a) => format!("A {a}"),
        RecordData::Aaaa(a) => format!("AAAA {a}"),
        RecordData::Ns(t) => format!("NS {t}."),
        RecordData::Cname(t) => format!("CNAME {t}."),
        RecordData::Ptr(t) => format!("PTR {t}."),
        RecordData::Mx {
            preference,
            exchange,
        } => format!("MX {preference} {exchange}."),
        RecordData::Txt(strings) => format!(
            "TXT {}",
            strings
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        RecordData::Soa(_) => unreachable!("SOA emitted separately"),
        RecordData::Tlsa(t) => format!(
            "TLSA {} {} {} {}",
            t.usage,
            t.selector,
            t.matching_type,
            hex_encode(&t.data)
        ),
        RecordData::Opaque { rtype, data } => format!("TYPE{rtype} \\# {}", hex_encode(data)),
    };
    format!("{name} {} IN {rdata}", r.ttl)
}

/// Presents `name` relative to `origin` where possible.
fn format_name(name: &DomainName, origin: &DomainName) -> String {
    if name == origin {
        "@".to_string()
    } else if name.is_strict_subdomain_of(origin) {
        // The labels left of `.{origin}`.
        let keep = name.as_str().len() - origin.as_str().len() - 1;
        name.as_str()[..keep].to_string()
    } else {
        format!("{name}.")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn sample_zone() -> Zone {
        let mut z = Zone::new(n("example.com"));
        z.add_rr(
            &n("example.com"),
            300,
            RecordData::A("192.0.2.10".parse().unwrap()),
        );
        z.add_rr(
            &n("example.com"),
            300,
            RecordData::Mx {
                preference: 10,
                exchange: n("mx1.example.com"),
            },
        );
        z.add_rr(
            &n("mx1.example.com"),
            300,
            RecordData::A("192.0.2.25".parse().unwrap()),
        );
        z.add_rr(
            &n("_mta-sts.example.com"),
            300,
            RecordData::Txt(vec!["v=STSv1; id=20240101;".into()]),
        );
        z.add_rr(
            &n("mta-sts.example.com"),
            300,
            RecordData::Cname(n("mta-sts.provider.net")),
        );
        z.add_rr(
            &n("www.deep.example.com"),
            300,
            RecordData::A("192.0.2.80".parse().unwrap()),
        );
        z
    }

    #[test]
    fn positive_answer() {
        let z = sample_zone();
        let got = z.lookup(&Question::new(n("example.com"), RecordType::Mx));
        let ZoneLookup::Answer(recs) = got else {
            panic!("expected answer, got {got:?}")
        };
        assert_eq!(recs.len(), 1);
        assert!(matches!(
            recs[0].data,
            RecordData::Mx { preference: 10, .. }
        ));
    }

    #[test]
    fn nxdomain_vs_nodata() {
        let z = sample_zone();
        // Nonexistent name under the zone.
        assert_eq!(
            z.lookup(&Question::new(n("missing.example.com"), RecordType::A)),
            ZoneLookup::NxDomain
        );
        // Existing name, missing type.
        assert_eq!(
            z.lookup(&Question::new(n("mx1.example.com"), RecordType::Txt)),
            ZoneLookup::NoData(vec![])
        );
        // Empty non-terminal: deep.example.com has no records itself but
        // www.deep.example.com exists below it.
        assert_eq!(
            z.lookup(&Question::new(n("deep.example.com"), RecordType::A)),
            ZoneLookup::NoData(vec![])
        );
        // The apex always exists.
        assert_eq!(
            z.lookup(&Question::new(n("example.com"), RecordType::Txt)),
            ZoneLookup::NoData(vec![])
        );
    }

    #[test]
    fn out_of_zone_is_not_authoritative() {
        let z = sample_zone();
        assert_eq!(
            z.lookup(&Question::new(n("other.org"), RecordType::A)),
            ZoneLookup::NotAuthoritative
        );
    }

    #[test]
    fn cname_to_external_target_reports_chain() {
        let z = sample_zone();
        let got = z.lookup(&Question::new(n("mta-sts.example.com"), RecordType::A));
        let ZoneLookup::NoData(chain) = got else {
            panic!("expected NoData with chain, got {got:?}")
        };
        assert_eq!(chain.len(), 1);
        assert!(matches!(&chain[0].data, RecordData::Cname(t) if *t == n("mta-sts.provider.net")));
    }

    #[test]
    fn cname_within_zone_is_followed() {
        let mut z = sample_zone();
        z.add_rr(
            &n("alias.example.com"),
            300,
            RecordData::Cname(n("mx1.example.com")),
        );
        let got = z.lookup(&Question::new(n("alias.example.com"), RecordType::A));
        let ZoneLookup::Answer(recs) = got else {
            panic!("expected answer, got {got:?}")
        };
        assert_eq!(recs.len(), 2); // CNAME + A
        assert!(matches!(recs[0].data, RecordData::Cname(_)));
        assert!(matches!(recs[1].data, RecordData::A(_)));
    }

    #[test]
    fn cname_query_returns_cname_itself() {
        let z = sample_zone();
        let got = z.lookup(&Question::new(n("mta-sts.example.com"), RecordType::Cname));
        let ZoneLookup::Answer(recs) = got else {
            panic!("expected answer, got {got:?}")
        };
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn cname_loop_terminates() {
        let mut z = Zone::new(n("loop.test"));
        z.add_rr(&n("a.loop.test"), 60, RecordData::Cname(n("b.loop.test")));
        z.add_rr(&n("b.loop.test"), 60, RecordData::Cname(n("a.loop.test")));
        let got = z.lookup(&Question::new(n("a.loop.test"), RecordType::A));
        assert!(matches!(got, ZoneLookup::NoData(_)));
    }

    #[test]
    fn add_remove_get() {
        let mut z = sample_zone();
        assert_eq!(z.get(&n("example.com"), RecordType::Mx).len(), 1);
        assert_eq!(z.remove(&n("example.com"), RecordType::Mx), 1);
        assert_eq!(z.get(&n("example.com"), RecordType::Mx).len(), 0);
        assert!(z.name_exists(&n("example.com"))); // A record remains
        assert_eq!(z.remove_all(&n("example.com")), 1);
        assert!(!z.name_exists(&n("example.com")));
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn adding_out_of_zone_record_panics() {
        let mut z = Zone::new(n("example.com"));
        z.add_rr(
            &n("other.net"),
            60,
            RecordData::A("192.0.2.1".parse().unwrap()),
        );
    }

    #[test]
    fn zonefile_roundtrip() {
        let z = sample_zone();
        let text = z.to_zonefile();
        let back = Zone::parse(&text).unwrap();
        assert_eq!(back.apex(), z.apex());
        // All records survive (ordering within a name is preserved).
        let mut a: Vec<_> = z.iter().cloned().collect();
        let mut b: Vec<_> = back.iter().cloned().collect();
        a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        assert_eq!(a, b);
        assert_eq!(back.soa().minimum, z.soa().minimum);
    }

    #[test]
    fn zonefile_parse_errors_carry_line_numbers() {
        let bad = "$ORIGIN example.com.\n@ 300 IN MX onlyonefield\n";
        let err = Zone::parse(bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(Zone::parse("@ 1 IN A 1.2.3.4\n").is_err()); // no $ORIGIN
        assert!(Zone::parse("$ORIGIN example.com.\n@ 300 CH A 1.2.3.4\n").is_err());
    }

    #[test]
    fn zonefile_relative_and_absolute_names() {
        let text = "\
$ORIGIN example.se.
@ 300 IN MX 10 mail
mail 300 IN A 192.0.2.3
ext 300 IN CNAME mta-sts.provider.net.
; a comment line
";
        let z = Zone::parse(text).unwrap();
        let mx = z.get(&n("example.se"), RecordType::Mx);
        assert!(
            matches!(&mx[0].data, RecordData::Mx { exchange, .. } if *exchange == n("mail.example.se"))
        );
        let cn = z.get(&n("ext.example.se"), RecordType::Cname);
        assert!(matches!(&cn[0].data, RecordData::Cname(t) if *t == n("mta-sts.provider.net")));
    }

    #[test]
    fn txt_multi_string_zonefile() {
        let text = "$ORIGIN t.org.\n_mta-sts 60 IN TXT \"v=STSv1; \" \"id=1;\"\n";
        let z = Zone::parse(text).unwrap();
        let txt = z.get(&n("_mta-sts.t.org"), RecordType::Txt);
        assert_eq!(txt[0].data.txt_joined().unwrap(), "v=STSv1; id=1;");
    }

    #[test]
    fn tlsa_zonefile_roundtrip() {
        let text = "$ORIGIN d.net.\n_25._tcp.mx 60 IN TLSA 3 1 1 abcdef0123456789\n";
        let z = Zone::parse(text).unwrap();
        let recs = z.get(&n("_25._tcp.mx.d.net"), RecordType::Tlsa);
        let RecordData::Tlsa(t) = &recs[0].data else {
            panic!()
        };
        assert_eq!((t.usage, t.selector, t.matching_type), (3, 1, 1));
        assert_eq!(t.data, vec![0xab, 0xcd, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89]);
        let back = Zone::parse(&z.to_zonefile()).unwrap();
        assert_eq!(back.get(&n("_25._tcp.mx.d.net"), RecordType::Tlsa), recs);
    }

    /// The zone against a reference model: a plain name→records map with
    /// the RFC 1034 lookup written over it.
    mod model {
        use super::*;
        use proptest::prelude::*;

        type Model = BTreeMap<DomainName, Vec<Record>>;

        const APEX: &str = "zone.test";
        /// Owners at and below the apex, some below other owners.
        const NAMES: [&str; 7] = [
            "zone.test",
            "a.zone.test",
            "b.a.zone.test",
            "c.b.a.zone.test",
            "mx.zone.test",
            "d.zone.test",
            "e.d.zone.test",
        ];
        const TYPES: [RecordType; 7] = [
            RecordType::A,
            RecordType::Ns,
            RecordType::Cname,
            RecordType::Soa,
            RecordType::Mx,
            RecordType::Txt,
            RecordType::Aaaa,
        ];

        /// One edit: (operation, owner, data kind, data variant).
        type Op = (u8, usize, u8, u8);

        fn data(kind: u8, k: u8) -> RecordData {
            let target = |k: u8| match k {
                // In-zone targets, then one outside the zone.
                0..=3 => n(NAMES[usize::from(k) * 2 % NAMES.len()]),
                _ => n("ext.other.test"),
            };
            match kind {
                0 => RecordData::A(Ipv4Addr::new(192, 0, 2, k)),
                1 => RecordData::Txt(vec![format!("t{k}")]),
                2 => RecordData::Mx {
                    preference: u16::from(k) * 10,
                    exchange: target(k),
                },
                3 => RecordData::Cname(target(k)),
                _ => RecordData::Ns(target(k)),
            }
        }

        fn apply(zone: &mut Zone, model: &mut Model, (op, owner, kind, k): Op) {
            let name = n(NAMES[owner]);
            let record = Record::new(name.clone(), 300, data(kind, k));
            match op {
                0 => {
                    zone.add(record.clone());
                    model.entry(name).or_default().push(record);
                }
                1 => {
                    zone.add_rr(&name, 300, record.data.clone());
                    model.entry(name).or_default().push(record);
                }
                2 => {
                    let rtype = record.rtype();
                    let expect = model.get_mut(&name).map_or(0, |list| {
                        let before = list.len();
                        list.retain(|r| r.rtype() != rtype);
                        before - list.len()
                    });
                    if model.get(&name).is_some_and(Vec::is_empty) {
                        model.remove(&name);
                    }
                    assert_eq!(zone.remove(&name, rtype), expect, "remove {name} {rtype}");
                }
                _ => {
                    let expect = model.remove(&name).map_or(0, |list| list.len());
                    assert_eq!(zone.remove_all(&name), expect, "remove_all {name}");
                }
            }
        }

        /// RFC 1034 §4.3.2 over the model, written without the zone's
        /// inline records or borrowed answers.
        fn model_lookup(model: &Model, apex: &DomainName, q: &Question) -> ZoneLookup {
            if !q.name.is_subdomain_of(apex) {
                return ZoneLookup::NotAuthoritative;
            }
            let mut chain = Vec::new();
            let mut current = q.name.clone();
            for _ in 0..8 {
                if let Some(records) = model.get(&current) {
                    let hits: Vec<Record> = records
                        .iter()
                        .filter(|r| r.rtype() == q.rtype)
                        .cloned()
                        .collect();
                    if !hits.is_empty() {
                        chain.extend(hits);
                        return ZoneLookup::Answer(chain);
                    }
                    if q.rtype != RecordType::Cname {
                        if let Some(cname) = records.iter().find(|r| r.rtype() == RecordType::Cname)
                        {
                            chain.push(cname.clone());
                            let RecordData::Cname(target) = &cname.data else {
                                unreachable!()
                            };
                            if target.is_subdomain_of(apex) {
                                current = target.clone();
                                continue;
                            }
                            return ZoneLookup::NoData(chain);
                        }
                    }
                    return ZoneLookup::NoData(chain);
                }
                if current == *apex || model.keys().any(|k| k.is_subdomain_of(&current)) {
                    return ZoneLookup::NoData(chain);
                }
                return ZoneLookup::NxDomain;
            }
            ZoneLookup::NoData(chain)
        }

        fn check(zone: &Zone, model: &Model) {
            let apex = n(APEX);
            // Every owner and each ancestor up to the apex (the pool is
            // closed under parents within the zone), one missing name and
            // one outside the zone.
            let probes =
                NAMES
                    .iter()
                    .chain(&["missing.zone.test", "x.c.b.a.zone.test", "other.test"]);
            for name in probes.map(|s| n(s)) {
                for rtype in TYPES {
                    let q = Question::new(name.clone(), rtype);
                    assert_eq!(zone.lookup(&q), model_lookup(model, &apex, &q), "{q}");
                    let want: Vec<Record> = model
                        .get(&name)
                        .into_iter()
                        .flatten()
                        .filter(|r| r.rtype() == rtype)
                        .cloned()
                        .collect();
                    assert_eq!(zone.get(&name, rtype), want, "get {q}");
                }
                assert_eq!(
                    zone.records(&name),
                    model.get(&name).map_or(&[][..], Vec::as_slice)
                );
                assert_eq!(zone.name_exists(&name), model.contains_key(&name));
            }
            let all: Vec<&Record> = model.values().flatten().collect();
            assert_eq!(zone.iter().collect::<Vec<_>>(), all);
            assert_eq!(zone.len(), model.len());
            assert_eq!(zone.is_empty(), model.is_empty());

            // The default SOA derives from the apex, in the zone file and
            // in the record negative answers carry.
            let mut text = format!(
                "$ORIGIN {APEX}.\n@ 300 IN SOA ns1.{APEX}. hostmaster.{APEX}. 1 7200 3600 1209600 300\n"
            );
            for r in all {
                text.push_str(&format_record(r, &apex));
                text.push('\n');
            }
            assert_eq!(zone.to_zonefile(), text);
            assert_eq!(Zone::parse(&text).as_ref(), Ok(zone));
            let soa = zone.soa_record();
            assert_eq!((soa.name.as_str(), soa.ttl), (APEX, 300));
            let RecordData::Soa(soa) = soa.data else {
                panic!("an SOA record")
            };
            assert_eq!(soa.mname.as_str(), "ns1.zone.test");
            assert_eq!(soa.rname.as_str(), "hostmaster.zone.test");

            // A zone given its own SOA keeps it through the zone file.
            let mut custom = zone.clone();
            let set = SoaRecord {
                mname: n("primary.other.test"),
                rname: n("admin.zone.test"),
                serial: 7,
                minimum: 60,
                ..soa
            };
            custom.set_soa(set.clone());
            assert_ne!(&custom, zone);
            let back = Zone::parse(&custom.to_zonefile()).expect("own output parses");
            assert_eq!(back.soa(), set);
            assert_eq!(back, custom);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200))]

            #[test]
            fn zone_agrees_with_the_map_model(
                ops in prop::collection::vec((0u8..4, 0usize..NAMES.len(), 0u8..5, 0u8..5), 0..40),
            ) {
                let mut zone = Zone::new(n(APEX));
                let mut model = Model::new();
                for op in ops {
                    apply(&mut zone, &mut model, op);
                    check(&zone, &model);
                }
            }
        }
    }
}
