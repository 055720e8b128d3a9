//! Foundation types shared across the `mta-sts-lab` workspace.
//!
//! This crate provides the non-protocol building blocks the measurement
//! study rests on:
//!
//! - [`name`]: DNS domain names with label arithmetic and effective-SLD
//!   computation (needed by the managing-entity heuristics of §4.3.1 of the
//!   paper and the mx-pattern mismatch taxonomy of §4.4);
//! - [`time`]: a proleptic-Gregorian civil date/instant implementation so the
//!   2021-09-09 .. 2024-09-29 measurement timeline can be replayed
//!   deterministically without pulling in a calendar crate;
//! - [`editdist`]: Levenshtein distance (typo detection, edit distance ≤ 3,
//!   §4.4 of the paper);
//! - [`rate`]: a token-bucket rate limiter (the paper rate-limits its DNS
//!   scans to protect small authoritative servers, §3.1);
//! - [`pool`]: a scoped worker pool with contiguous, stable sharding and
//!   in-order merge — the substrate of the deterministic parallel scan
//!   engine;
//! - [`retry`]: clock-agnostic retry policies with deterministic backoff,
//!   so transient network failures are retried before anything is
//!   classified as a misconfiguration;
//! - [`rng`]: deterministic, forkable randomness so every experiment is
//!   reproducible from a single seed.

pub mod editdist;
pub mod name;
pub mod pool;
pub mod rate;
pub mod retry;
pub mod rng;
pub mod time;

pub use editdist::{levenshtein, levenshtein_within};
pub use name::{DomainName, NameError, NameKey};
pub use pool::{default_scan_threads, map_sharded, shard_bounds};
pub use rate::TokenBucket;
pub use retry::{AttemptEvent, RetryOutcome, RetryPolicy, RetryVerdict};
pub use rng::DetRng;
pub use time::{Duration, SimDate, SimInstant};
