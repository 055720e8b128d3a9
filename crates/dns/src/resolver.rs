//! Stub resolution over a pluggable transport, with CNAME chasing.
//!
//! The paper's scanner issues all queries through public resolvers (§A.1);
//! here the equivalent abstraction is [`DnsTransport`]: [`resolve`] asks
//! *something* to answer a question and post-processes the result. Two
//! transports are provided:
//!
//! - [`UdpTransport`]: real RFC 1035 datagrams against an address, used by
//!   the live-wire examples together with [`crate::server::AuthServer`];
//! - [`InMemoryAuthorities`]: a registry of [`Zone`]s consulted directly,
//!   used at simulation scale (tens of thousands of domains × weekly
//!   snapshots) where socket round-trips would dominate.
//!
//! Both yield identical results by construction; the `scan` benchmark
//! compares their throughput (a design-choice ablation from DESIGN.md).
//! Nothing is cached: every call reads the zones as they are.

use crate::types::{Message, Question, Rcode, Record, RecordData, RecordType};
use crate::wire;
use crate::zone::{Zone, ZoneLookup};
use netbase::{DomainName, NameKey};
use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::time::Duration as StdDuration;

/// Resolution errors, mirroring the failure classes the paper's pipeline
/// distinguishes (§4.3.3 "DNS errors").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsError {
    /// The name does not exist (authenticated NXDOMAIN).
    NxDomain,
    /// The server answered with SERVFAIL or another error code.
    ServFail(Rcode),
    /// No response within the timeout.
    Timeout,
    /// The response could not be parsed.
    Malformed(String),
    /// A CNAME chain exceeded the resolver's limit.
    CnameChainTooLong,
    /// Transport-level failure (socket error, no route).
    Transport(String),
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsError::NxDomain => write!(f, "NXDOMAIN"),
            DnsError::ServFail(rc) => write!(f, "server failure ({rc:?})"),
            DnsError::Timeout => write!(f, "query timed out"),
            DnsError::Malformed(e) => write!(f, "malformed response: {e}"),
            DnsError::CnameChainTooLong => write!(f, "CNAME chain too long"),
            DnsError::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for DnsError {}

/// The result of a successful lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup {
    /// The records answering the final question (post CNAME chasing). Empty
    /// means NODATA: the name exists but has no records of this type.
    pub records: Vec<Record>,
    /// The CNAME chain traversed, in order (`mta-sts.example.com` →
    /// `mta-sts.provider.net` → ...). Policy-delegation analysis (§5) reads
    /// this.
    pub cname_chain: Vec<DomainName>,
}

impl Lookup {
    /// True if the lookup produced no records (NODATA).
    pub fn is_nodata(&self) -> bool {
        self.records.is_empty()
    }

    /// Extracts TXT payloads (joined character-strings).
    pub fn txt_strings(&self) -> Vec<String> {
        self.records
            .iter()
            .filter_map(|r| r.data.txt_joined())
            .collect()
    }

    /// Extracts MX (preference, exchange) pairs sorted by preference.
    pub fn mx_hosts(&self) -> Vec<(u16, DomainName)> {
        let mut out: Vec<(u16, DomainName)> = self
            .records
            .iter()
            .filter_map(|r| match &r.data {
                RecordData::Mx {
                    preference,
                    exchange,
                } => Some((*preference, exchange.clone())),
                _ => None,
            })
            .collect();
        out.sort();
        out
    }

    /// Extracts IPv4 addresses.
    pub fn a_addrs(&self) -> Vec<std::net::Ipv4Addr> {
        self.records
            .iter()
            .filter_map(|r| match r.data {
                RecordData::A(a) => Some(a),
                _ => None,
            })
            .collect()
    }
}

/// A transport that can answer a single DNS question with a full message.
pub trait DnsTransport: Send + Sync {
    /// Answers `question`, returning a complete response message.
    fn query(&self, question: &Question) -> Result<Message, DnsError>;
}

/// In-memory authority registry: zones consulted by longest-suffix match.
///
/// This is the simulation-scale transport: plain data, edited through
/// `&mut self` and read through `&self` without a lock, so scanner worker
/// threads share it by reference.
#[derive(Clone, Default)]
pub struct InMemoryAuthorities {
    /// Zones keyed by apex, probed by the borrowed suffixes of a name.
    zones: HashMap<NameKey, Zone>,
}

impl InMemoryAuthorities {
    /// Creates an empty registry.
    pub fn new() -> InMemoryAuthorities {
        InMemoryAuthorities::default()
    }

    /// Installs (or replaces) a zone.
    pub fn upsert_zone(&mut self, zone: Zone) {
        self.zones.insert(NameKey(zone.apex().clone()), zone);
    }

    /// Removes a zone entirely; returns whether it existed.
    pub fn remove_zone(&mut self, apex: &DomainName) -> bool {
        self.zones.remove(apex.as_str()).is_some()
    }

    /// The zone whose apex is spelled `apex`, if present, for editing.
    pub fn zone_mut(&mut self, apex: &str) -> Option<&mut Zone> {
        self.zones.get_mut(apex)
    }

    /// Number of installed zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// The zone authoritative for `name` (longest match).
    fn authority_for(&self, name: &DomainName) -> Option<&Zone> {
        name.suffixes().find_map(|suffix| self.zones.get(suffix))
    }
}

impl DnsTransport for InMemoryAuthorities {
    fn query(&self, question: &Question) -> Result<Message, DnsError> {
        let Some(zone) = self.authority_for(&question.name) else {
            // No authority at all: the public resolver would get a
            // referral failure; the paper's pipeline sees NXDOMAIN from the
            // TLD for unregistered names.
            return Err(DnsError::NxDomain);
        };
        // The query `resolve` would send, turned into its authoritative
        // response in place: one message, one copy of the question.
        let mut resp = Message::query(0, question.clone());
        resp.flags.qr = true;
        resp.flags.aa = true;
        match zone.lookup(question) {
            ZoneLookup::Answer(records) => {
                resp.answers = records;
            }
            ZoneLookup::NoData(chain) => {
                resp.answers = chain;
                resp.authorities.push(zone.soa_record());
            }
            ZoneLookup::NxDomain => {
                resp.rcode = Rcode::NxDomain;
                resp.authorities.push(zone.soa_record());
            }
            ZoneLookup::NotAuthoritative => {
                resp.rcode = Rcode::Refused;
                resp.flags.aa = false;
            }
        }
        Ok(resp)
    }
}

/// Blocking UDP transport: encodes the question, sends it to `server`, and
/// decodes the response. Used from synchronous scanner contexts; the async
/// server side lives in [`crate::server`].
pub struct UdpTransport {
    /// Authoritative/recursive server address.
    server: SocketAddr,
    /// Per-query timeout.
    timeout: StdDuration,
}

impl UdpTransport {
    /// Creates a transport querying `server` with the given timeout.
    pub fn new(server: SocketAddr, timeout: StdDuration) -> UdpTransport {
        UdpTransport { server, timeout }
    }
}

impl DnsTransport for UdpTransport {
    fn query(&self, question: &Question) -> Result<Message, DnsError> {
        use std::net::UdpSocket;
        let sock =
            UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| DnsError::Transport(e.to_string()))?;
        sock.set_read_timeout(Some(self.timeout))
            .map_err(|e| DnsError::Transport(e.to_string()))?;
        // Derive a transaction ID from the question so retries are stable
        // but concurrent queries rarely collide.
        let id = {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut h = DefaultHasher::new();
            question.hash(&mut h);
            std::process::id().hash(&mut h);
            h.finish() as u16
        };
        let msg = Message::query(id, question.clone());
        sock.send_to(&wire::encode(&msg), self.server)
            .map_err(|e| DnsError::Transport(e.to_string()))?;
        let mut buf = [0u8; wire::MAX_UDP_PAYLOAD];
        let (n, _) = sock.recv_from(&mut buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut
            {
                DnsError::Timeout
            } else {
                DnsError::Transport(e.to_string())
            }
        })?;
        let resp = wire::decode(&buf[..n]).map_err(|e| DnsError::Malformed(e.to_string()))?;
        if resp.id != id {
            return Err(DnsError::Malformed("transaction id mismatch".to_string()));
        }
        Ok(resp)
    }
}

/// Maximum CNAME links [`resolve`] follows across authorities.
pub const MAX_CNAME_LINKS: usize = 8;

/// Resolves `name`/`rtype` over `transport`, chasing CNAMEs across
/// authorities for at most [`MAX_CNAME_LINKS`] links. Every call asks the
/// transport afresh: an edit to the zones it serves shows in the next
/// answer.
pub fn resolve(
    transport: &impl DnsTransport,
    name: &DomainName,
    rtype: RecordType,
) -> Result<Lookup, DnsError> {
    let mut chain: Vec<DomainName> = Vec::new();
    let mut current = name.clone();
    for _ in 0..=MAX_CNAME_LINKS {
        let resp = transport.query(&Question::new(current.clone(), rtype))?;
        match resp.rcode {
            Rcode::NoError => {}
            Rcode::NxDomain => return Err(DnsError::NxDomain),
            other => return Err(DnsError::ServFail(other)),
        }
        let mut answers = resp.answers;
        // Follow the answer's CNAME links from `current` as far as they
        // go; of two links at one owner, the later one counts.
        while let Some(target) = answers.iter().rev().find_map(|r| match &r.data {
            RecordData::Cname(target) if r.name == current => Some(target),
            _ => None,
        }) {
            chain.push(target.clone());
            if chain.len() > MAX_CNAME_LINKS {
                return Err(DnsError::CnameChainTooLong);
            }
            current = target.clone();
        }
        let answered = !answers.is_empty();
        // What answers the question: the records of the target type at
        // any owner (post-CNAME owners differ from the query name), kept
        // in place and moved into the lookup.
        answers.retain(|r| r.rtype() == rtype);
        if !answers.is_empty() {
            return Ok(Lookup {
                records: answers,
                cname_chain: chain,
            });
        }
        if chain.last() == Some(&current) && answered {
            // The answer ended on a CNAME whose target this authority
            // does not serve: restart the query at the target.
            continue;
        }
        // NODATA: name exists, no records of this type, no further
        // aliases to chase.
        return Ok(Lookup {
            records: Vec::new(),
            cname_chain: chain,
        });
    }
    Err(DnsError::CnameChainTooLong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RecordData;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn world() -> InMemoryAuthorities {
        let mut auth = InMemoryAuthorities::new();
        let mut example = Zone::new(n("example.com"));
        example.add_rr(
            &n("example.com"),
            300,
            RecordData::Mx {
                preference: 10,
                exchange: n("mx.example.com"),
            },
        );
        example.add_rr(
            &n("mx.example.com"),
            300,
            RecordData::A("192.0.2.25".parse().unwrap()),
        );
        example.add_rr(
            &n("_mta-sts.example.com"),
            300,
            RecordData::Txt(vec!["v=STSv1; id=20240929;".into()]),
        );
        example.add_rr(
            &n("mta-sts.example.com"),
            300,
            RecordData::Cname(n("mta-sts.provider.net")),
        );
        auth.upsert_zone(example);

        let mut provider = Zone::new(n("provider.net"));
        provider.add_rr(
            &n("mta-sts.provider.net"),
            300,
            RecordData::A("198.51.100.7".parse().unwrap()),
        );
        auth.upsert_zone(provider);
        auth
    }

    #[test]
    fn resolves_mx() {
        let got = resolve(&world(), &n("example.com"), RecordType::Mx).unwrap();
        assert_eq!(got.mx_hosts(), vec![(10, n("mx.example.com"))]);
        assert!(got.cname_chain.is_empty());
    }

    #[test]
    fn resolves_txt() {
        let got = resolve(&world(), &n("_mta-sts.example.com"), RecordType::Txt).unwrap();
        assert_eq!(got.txt_strings(), vec!["v=STSv1; id=20240929;".to_string()]);
    }

    #[test]
    fn chases_cname_across_authorities() {
        let got = resolve(&world(), &n("mta-sts.example.com"), RecordType::A).unwrap();
        assert_eq!(got.cname_chain, vec![n("mta-sts.provider.net")]);
        assert_eq!(
            got.a_addrs(),
            vec!["198.51.100.7".parse::<std::net::Ipv4Addr>().unwrap()]
        );
    }

    #[test]
    fn nxdomain_for_unregistered() {
        let auth = world();
        assert_eq!(
            resolve(&auth, &n("nosuch.example.com"), RecordType::A),
            Err(DnsError::NxDomain)
        );
        assert_eq!(
            resolve(&auth, &n("unregistered.org"), RecordType::A),
            Err(DnsError::NxDomain)
        );
    }

    #[test]
    fn nodata_for_missing_type() {
        let got = resolve(&world(), &n("mx.example.com"), RecordType::Txt).unwrap();
        assert!(got.is_nodata());
    }

    #[test]
    fn dangling_cname_is_nxdomain() {
        let mut auth = world();
        auth.zone_mut("provider.net")
            .unwrap()
            .remove_all(&n("mta-sts.provider.net"));
        let got = resolve(&auth, &n("mta-sts.example.com"), RecordType::A);
        assert_eq!(got, Err(DnsError::NxDomain));
    }

    #[test]
    fn cname_loop_detected() {
        let mut auth = InMemoryAuthorities::new();
        let mut a = Zone::new(n("a.test"));
        a.add_rr(&n("x.a.test"), 60, RecordData::Cname(n("y.b.test")));
        auth.upsert_zone(a);
        let mut b = Zone::new(n("b.test"));
        b.add_rr(&n("y.b.test"), 60, RecordData::Cname(n("x.a.test")));
        auth.upsert_zone(b);
        assert_eq!(
            resolve(&auth, &n("x.a.test"), RecordType::A),
            Err(DnsError::CnameChainTooLong)
        );
    }
}
