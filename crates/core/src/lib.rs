//! `mtasts` — a complete implementation of SMTP MTA Strict Transport
//! Security (RFC 8461), the subject of the reproduced study.
//!
//! The paper (IMC '25, Ashiq/Fiebig/Chung) measures how MTA-STS is deployed
//! and managed in the wild. This crate is the protocol engine everything
//! else builds on:
//!
//! - [`record`]: the `_mta-sts.<domain>` TXT record — strict RFC 8461 §3.1
//!   parsing with the study's observed error classes (missing `id`,
//!   non-alphanumeric `id`, bad version prefix, bad extension fields,
//!   multiple records ⇒ not deployed);
//! - [`policy`]: the `.well-known/mta-sts.txt` document — §3.2 syntax
//!   (`version`/`mode`/`max_age`/`mx`), pattern validity (the paper finds
//!   email addresses, trailing dots and empty patterns in the wild), and
//!   empty-file handling (treated as a parse failure ⇒ sender behaves as
//!   `none`, §5);
//! - [`matching`]: MX-pattern matching (§4.1 of the RFC) and the paper's
//!   inconsistency taxonomy (TLD mismatch / complete mismatch / 3LD+ /
//!   typos with edit distance ≤ 3, §4.4);
//! - [`cache`]: the sender-side TOFU policy cache with `max_age` expiry and
//!   `id`-triggered refresh (§2.4);
//! - [`engine`]: the sender decision procedure — the one two-step
//!   policy resolution every sender shares ([`classify`] the record
//!   lookup against the cache, [`conclude`] the fetch), then MX matching,
//!   validation, and the enforce/testing/none semantics deciding delivery;
//! - [`delegation`]: CNAME-based policy-delegation analysis (§2.5, §5) and
//!   the same-provider inference of §4.5.1;
//! - [`removal`]: the RFC 8461 §8.3 removal procedure checker (§2.6);
//! - [`tlsrpt`]: SMTP TLS Reporting (RFC 8460) record parsing (Appendix B).

pub mod cache;
pub mod delegation;
pub mod engine;
pub mod matching;
pub mod policy;
pub mod record;
pub mod removal;
pub mod tlsrpt;
pub mod tlsrpt_report;

pub use cache::{CachedPolicy, PolicyCache};
pub use engine::{
    classify, conclude, report_outcome, Classified, DeliveryObservation, Disposition,
    ResolvedPolicy, SenderAction, SenderEngine, StsFailure, StsOutcome,
};
pub use matching::{
    classify_mismatch, classify_policy_mismatches, mx_matches_policy, MismatchKind,
};
pub use policy::{parse_policy, Mode, MxPattern, Policy, PolicyError};
pub use record::{evaluate_record_set, parse_record, RecordError, StsRecord};
pub use tlsrpt::{parse_tlsrpt, TlsRptError, TlsRptRecord};
pub use tlsrpt_report::{ReportBuilder, ResultType, TlsReport};

/// The DNS label under which the policy record lives (`_mta-sts.<domain>`).
pub const RECORD_LABEL: &str = "_mta-sts";
/// The DNS label of the policy host (`mta-sts.<domain>`).
pub const POLICY_HOST_LABEL: &str = "mta-sts";
/// The well-known HTTPS path of the policy document.
pub const WELL_KNOWN_PATH: &str = "/.well-known/mta-sts.txt";
/// The TLSRPT record lives at `_smtp._tls.<domain>`.
pub const TLSRPT_LABEL: &str = "_smtp._tls";
