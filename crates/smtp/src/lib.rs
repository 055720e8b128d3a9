//! SMTP with STARTTLS: the mail-transport substrate.
//!
//! The paper probes every MX of every MTA-STS domain with an instrumented
//! SMTP client (§4.1): connect, EHLO (HELO fallback), check the STARTTLS
//! capability, upgrade, retrieve the certificate, quit without sending
//! mail. This crate provides both sides of that session on real sockets:
//!
//! - [`types`]: reply codes, capabilities, envelopes, error taxonomy;
//! - [`server`]: an async MX server with a correct EHLO/STARTTLS state
//!   machine, per-SNI certificates, greylisting and fault injection, and a
//!   recipient policy hook (Tutanota-style rejection of unsubscribed
//!   customers, §5);
//! - [`client`]: the instrumented probe ([`client::probe_mx`]), which
//!   can also name a sender's recipient before the upgrade; the caller
//!   judges the retrieved chain (the delivery queue's wire leg through the
//!   same TLS check as its fast path).

pub mod client;
pub mod server;
pub mod types;

pub use client::{
    probe_mx, read_reply, ProbeConfig, ProbeResult, MAX_REPLY_LINES, MAX_REPLY_LINE_LEN,
};
pub use server::{serve_connection, MxBehavior, MxConfig, MxServer};
pub use types::{Capability, Envelope, ReplyCode, SmtpError};
