//! `ecosystem` — the seeded synthetic Internet population.
//!
//! The paper scans 87M registered domains across `.com`, `.net`, `.org`
//! and `.se` for three years. This crate generates the stand-in
//! population: every domain that ever publishes an MTA-STS record is
//! materialized as a [`spec::DomainSpec`] (adoption date, hosting
//! arrangement, fault profile, incident memberships), while the vast
//! non-adopting majority is carried analytically as per-TLD denominators
//! ([`tld`]).
//!
//! Everything is derived deterministically from `(seed, scale)`:
//! regenerating with the same config yields byte-identical worlds, and
//! `scale` shrinks every absolute count for fast tests (experiments use
//! 1.0; unit tests use ~0.02).
//!
//! Calibration targets come straight from the paper's latest snapshot
//! (2024-09-29) and named incidents; see [`calib`] for the constants and
//! their sources, and EXPERIMENTS.md for measured-vs-paper tables.

pub mod calib;
pub mod config;
pub mod deploy;
pub mod fingerprint;
pub mod incremental;
pub mod providers;
pub mod spec;
pub mod timeline;
pub mod tld;

pub use config::{EcosystemConfig, ScaledAllocator, SnapshotDetail};
pub use deploy::Ecosystem;
pub use fingerprint::{DomainFingerprint, FingerprintContext};
pub use incremental::{AdvanceStats, IncrementalWorld};
pub use providers::{MailProvider, OptOutBehavior, PolicyProvider};
pub use spec::{DomainSpec, FaultProfile, MailHosting, PolicyHosting, Population, PopulationIndex};
pub use timeline::ChangeTimeline;
pub use tld::TldId;
