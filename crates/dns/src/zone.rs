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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Zone {
    /// Apex (origin) of the zone.
    apex: DomainName,
    /// SOA parameters advertised in negative answers.
    soa: SoaRecord,
    /// All records, keyed by owner name.
    records: BTreeMap<DomainName, Vec<Record>>,
}

impl Zone {
    /// Creates an empty zone with a default SOA.
    pub fn new(apex: DomainName) -> Zone {
        let soa = SoaRecord {
            mname: apex.prefixed("ns1").expect("apex accepts ns1 label"),
            rname: apex.prefixed("hostmaster").expect("apex accepts label"),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        };
        Zone {
            apex,
            soa,
            records: BTreeMap::new(),
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &DomainName {
        &self.apex
    }

    /// The zone's SOA parameters.
    pub fn soa(&self) -> &SoaRecord {
        &self.soa
    }

    /// Replaces the SOA parameters.
    pub fn set_soa(&mut self, soa: SoaRecord) {
        self.soa = soa;
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
        self.records
            .entry(record.name.clone())
            .or_default()
            .push(record);
    }

    /// Convenience: add a record by parts.
    pub fn add_rr(&mut self, name: &DomainName, ttl: u32, data: RecordData) {
        self.add(Record::new(name.clone(), ttl, data));
    }

    /// Removes all records at `name` of type `rtype`; returns how many were
    /// removed.
    pub fn remove(&mut self, name: &DomainName, rtype: RecordType) -> usize {
        let Some(list) = self.records.get_mut(name) else {
            return 0;
        };
        let before = list.len();
        list.retain(|r| r.rtype() != rtype);
        let removed = before - list.len();
        if list.is_empty() {
            self.records.remove(name);
        }
        removed
    }

    /// Removes every record at `name`.
    pub fn remove_all(&mut self, name: &DomainName) -> usize {
        self.records.remove(name).map_or(0, |v| v.len())
    }

    /// All records at `name` of type `rtype` (no CNAME processing).
    pub fn get(&self, name: &DomainName, rtype: RecordType) -> Vec<Record> {
        self.records
            .get(name)
            .map(|v| v.iter().filter(|r| r.rtype() == rtype).cloned().collect())
            .unwrap_or_default()
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
        self.records.values().flatten()
    }

    /// The SOA as a record at the apex (for negative responses).
    pub fn soa_record(&self) -> Record {
        Record::new(
            self.apex.clone(),
            self.soa.minimum,
            RecordData::Soa(self.soa.clone()),
        )
    }

    /// Answers a question with RFC 1034 §4.3.2 semantics, following CNAMEs
    /// *within this zone* (up to 8 links).
    pub fn lookup(&self, q: &Question) -> ZoneLookup {
        if !q.name.is_subdomain_of(&self.apex) {
            return ZoneLookup::NotAuthoritative;
        }
        let mut chain: Vec<Record> = Vec::new();
        let mut current = q.name.clone();
        for _ in 0..8 {
            let here = self.records.get(&current);
            if let Some(records) = here {
                // Exact-type match?
                let hits: Vec<Record> = records
                    .iter()
                    .filter(|r| r.rtype() == q.rtype)
                    .cloned()
                    .collect();
                if !hits.is_empty() {
                    let mut out = chain;
                    out.extend(hits);
                    return ZoneLookup::Answer(out);
                }
                // CNAME present (and the query itself is not for CNAME)?
                if q.rtype != RecordType::Cname {
                    if let Some(cname) = records
                        .iter()
                        .find(|r| matches!(r.data, RecordData::Cname(_)))
                    {
                        chain.push(cname.clone());
                        let RecordData::Cname(target) = &cname.data else {
                            unreachable!()
                        };
                        if target.is_subdomain_of(&self.apex) {
                            current = target.clone();
                            continue;
                        }
                        // Target is out-of-zone: the resolver restarts there.
                        return ZoneLookup::NoData(chain);
                    }
                }
                return ZoneLookup::NoData(chain);
            }
            // Name has no records: empty non-terminal or NXDOMAIN.
            if self.subtree_exists(&current) || current == self.apex {
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
        let mut out = String::new();
        out.push_str(&format!("$ORIGIN {}.\n", self.apex));
        out.push_str(&format!(
            "@ {} IN SOA {}. {}. {} {} {} {} {}\n",
            self.soa.minimum,
            self.soa.mname,
            self.soa.rname,
            self.soa.serial,
            self.soa.refresh,
            self.soa.retry,
            self.soa.expire,
            self.soa.minimum
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
}
