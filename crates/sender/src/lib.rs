//! `sender` — sender-side MTA-STS/DANE validation (§6).
//!
//! The paper complements its recipient-side scans with a deliverability
//! platform (email-security-scans.org): participants send mail to test
//! domains whose MTA-STS/DANE configurations are deliberately varied, and
//! the platform infers each sender's validation behaviour from what gets
//! delivered. This crate rebuilds that apparatus:
//!
//! - [`profile`]: sender behaviour profiles calibrated to §6.2 (TLS
//!   support, opportunistic vs PKIX-always, MTA-STS and/or DANE
//!   validation, and the Postfix-milter bug preferring MTA-STS over DANE
//!   against RFC 8461's advice);
//! - [`platform`]: the test receiver domains (valid MTA-STS, broken-cert
//!   MTA-STS, DANE-only, MTA-STS/DANE conflict, plaintext) and the test
//!   harness that runs each sender against them, recording EHLO
//!   interactions with operator attribution;
//! - [`analysis`]: the §6.2 statistics over the most recent test per
//!   sender domain.
//!
//! The operational counterpart is the outbound delivery pipeline:
//!
//! - [`mx_select`]: RFC 5321 MX selection — priority tiers plus a
//!   seeded, thread-independent weight shuffle within equal-preference
//!   sets;
//! - [`breaker`]: the per-MX-host circuit breaker (open after N
//!   consecutive connection-level failures, cooldown, half-open probe);
//! - [`pipeline`]: the deterministic wave-based message queue with
//!   per-recipient envelope status, multi-MX fail-over, typed
//!   4xx-requeue / 5xx-bounce classification, and checkpoint/resume;
//! - [`enforce`]: MTA-STS enforcement *inside* the queue — per-(domain,
//!   wave) policy resolution through the core's TOFU
//!   [`mtasts::PolicyCache`] and its one RFC 8461 decision
//!   ([`mtasts::classify`] / [`mtasts::conclude`]) with §3.3 stale
//!   fallback, typed per-attempt TLS requirements, and DANE precedence
//!   (RFC 7672);
//! - [`resolver`]: the policy-resolution service — deterministic batch
//!   resolution over a sharded TOFU cache whose workers classify under
//!   shard read locks, in-batch single-flight, token-bucket fetch
//!   admission, and a Prometheus `/metrics` surface;
//! - [`scenario`]: the degraded-MX chaos worlds (hard-down, flapping,
//!   tier outage, greylisting) shared by tests, bench, and example.

pub mod analysis;
pub mod breaker;
pub mod enforce;
pub mod mx_select;
pub mod pipeline;
pub mod platform;
pub mod profile;
pub mod resolver;
pub mod scenario;

pub use analysis::{analyze, SenderStats};
pub use breaker::{Admission, BreakerBoard, BreakerConfig, BreakerState, HostEvent};
pub use enforce::{
    EnforcementConfig, ResolvedPolicy, StsApplication, TlsEvidence, TlsRequirement, WavePolicies,
};
pub use mx_select::{filter_ladder_for_policy, implicit_mx, mx_ladder, MxCandidate};
pub use pipeline::{
    ledger_digest, AttemptDisposition, BounceReason, DeliveryQueue, FastTransport, MessageRecord,
    MessageStatus, MxTransport, QueueConfig, QueueOutcome, QueueStats, QueuedMessage,
};
pub use platform::{Platform, TestCase, TestRecord};
pub use profile::{SenderPopulation, SenderProfile, TlsSupport};
pub use resolver::{
    resolution_digest, AdmissionConfig, DaemonConfig, Disposition, MetricsSnapshot, PolicyResolver,
    PolicySource, Resolution, ResolverConfig, ResolverDaemon, ShardedPolicyCache, TransportSource,
};
pub use scenario::{Degradation, Scenario, ScenarioSpec, StsDeployment};
