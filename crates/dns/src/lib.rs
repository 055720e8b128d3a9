//! A small but complete DNS implementation: the first substrate of the
//! MTA-STS measurement study.
//!
//! The paper's pipeline (§3.1, §4.1) is DNS-heavy: for every second-level
//! domain in four TLD zone files it retrieves `TXT` (MTA-STS and TLSRPT
//! records), `MX`, `NS`, `A`/`AAAA` and `CNAME` records (policy-host
//! delegation), plus `PTR` for the FCrDNS setup of the instrumented SMTP
//! client, and `TLSA` for the DANE baseline.
//!
//! This crate provides:
//!
//! - [`types`]: records, questions, messages and response codes;
//! - [`wire`]: the RFC 1035 wire codec, including name compression;
//! - [`zone`]: an authoritative zone store with master-file parsing and
//!   NXDOMAIN/NODATA/CNAME semantics;
//! - [`server`]: an authoritative UDP server (tokio);
//! - [`resolver`]: stub resolution over a pluggable [`resolver::DnsTransport`]
//!   — real UDP sockets for the live-wire examples, or a direct in-memory
//!   authority registry for simulation-scale scanning — with CNAME chasing.

pub mod resolver;
pub mod server;
pub mod types;
pub mod wire;
pub mod zone;

pub use resolver::{
    resolve, DnsError, DnsTransport, InMemoryAuthorities, Lookup, UdpTransport, MAX_CNAME_LINKS,
};
pub use types::{Message, Question, Rcode, Record, RecordData, RecordType, TlsaRecord};
pub use zone::{Zone, ZoneLookup};
