//! `scanner` — the paper's measurement pipeline.
//!
//! Everything §3-§5 does to the live Internet, done to a
//! [`simnet::World`]:
//!
//! - [`taxonomy`]: the per-domain scan record and every error category the
//!   paper reports (record errors, the policy-retrieval ladder, MX
//!   certificate verdicts, mx-pattern inconsistency classes, predicted
//!   delivery failures);
//! - [`classify`]: the managing-entity heuristics of §4.3.1 (≥50-domain
//!   third parties, same-eSLD self-management, ≤5-domain policy hosts,
//!   and the single-administrator IP-grouping nuance);
//! - [`scan`]: one full-component snapshot scan of a world, each
//!   domain's scan carrying its policy host's address as classification
//!   evidence;
//! - [`parallel`]: the deterministic parallel scan engine's determinism
//!   argument (sharding, per-shard clocks, in-order merge); its thread
//!   count is [`netbase::default_scan_threads`];
//! - [`longitudinal`]: the study — the weekly record series
//!   (retaining MX history for Figure 9) and the entry points to the
//!   monthly full scans, plus the from-scratch oracles;
//! - [`incremental`]: the change-driven rescan cache that makes the
//!   longitudinal drivers cost O(changes) instead of O(dates × domains)
//!   while staying byte-identical to from-scratch runs: the monthly
//!   campaign keeps one slot per domain (its last scan, that scan's
//!   fingerprint and its entity classes), reused whole or rescanned
//!   whole;
//! - [`supervisor`]: the monthly campaign's one date loop —
//!   checkpointing, resumable and panic-isolating, with its degradation
//!   report; `Study::run_full` is this loop under a default config;
//! - [`analysis`]: figure- and table-shaped aggregations;
//! - [`notify`]: the §4.7 responsible-disclosure campaign simulation.

pub mod analysis;
pub mod classify;
pub mod incremental;
pub mod longitudinal;
pub mod notify;
pub mod parallel;
pub mod scan;
pub mod supervisor;
pub mod taxonomy;

pub use classify::{EntityClass, EntityClassifier};
pub use incremental::CacheStats;
pub use longitudinal::{LongitudinalRun, Study};
pub use netbase::default_scan_threads;
pub use scan::{scan_domain, scan_snapshot, scan_snapshot_with_threads, ScanConfig, Snapshot};
pub use supervisor::{DegradationReport, SupervisedOutcome, SupervisorConfig};
pub use taxonomy::{
    DomainScan, MisconfigCategory, MxVerdict, PolicyLayer, ScanAttempts, StageAttempts,
};
