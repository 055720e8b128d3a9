//! `simnet` — the simulated Internet the study scans.
//!
//! The paper measures the real `.com`/`.net`/`.org`/`.se` ecosystems; this
//! crate provides the stand-in: a world of DNS zones (via
//! [`dns::InMemoryAuthorities`]), HTTPS policy endpoints and SMTP MX
//! endpoints addressed by IPv4, all sharing one simulated web PKI.
//!
//! Two execution paths observe the *same* world:
//!
//! - the **fast path** ([`World::fetch_policy`], [`World::probe_mx`]):
//!   synchronous, allocation-light walks of the §4.3.3 error ladder
//!   (DNS → TCP → TLS → HTTP → syntax) used by the scanner at
//!   tens-of-thousands-of-domains scale. [`World::probe_mx`] is the one
//!   model of an SMTP session with a simulated MX: fault draws, the
//!   recipient check and the two SMTP-path attacks (STARTTLS strip,
//!   certificate substitution) act there, for the scanner, the delivery
//!   queue's transport and every simulated sender alike;
//! - the **wire path** ([`wire`]): the same endpoints served over real
//!   tokio TCP/UDP sockets with the full `httpsim`/`smtp`/`tlssim`
//!   protocol stacks, used by examples and differential tests that assert
//!   both paths agree. Its one SMTP session, [`wire::probe_mx_at`], reads
//!   into the fast path's [`MxProbeOutcome`], recipient refusal included.
//!
//! Fault injection is first-class: every endpoint models the reachability,
//! TLS and content failures the paper's taxonomy needs — and, through
//! [`faults::FaultSchedule`], the *transient* failures (SERVFAIL spells,
//! connection resets, greylisting) a resilient scanner must retry away.

pub mod endpoint;
pub mod faults;
pub mod fetch;
pub mod pki;
pub mod wire;
pub mod world;

pub use endpoint::{CertKind, MxEndpoint, Reachability, WebEndpoint};
pub use faults::{
    AttackKind, AttackSchedule, AttackWindow, FaultKind, FaultSchedule, FaultStage, FaultWindow,
    TransientFaultConfig,
};
pub use fetch::{
    dns_error_is_transient, MxProbeOutcome, PolicyFetchError, PolicyFetchOutcome, SmtpReply,
    TlsFailure,
};
pub use pki::SharedPki;
pub use world::{World, ZoneApex, DYNAMIC_IP_LIMIT};
