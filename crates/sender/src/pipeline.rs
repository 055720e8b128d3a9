//! The outbound delivery pipeline: a deterministic message queue with
//! per-recipient envelope status, multi-MX fail-over, a typed
//! retry-vs-bounce taxonomy, and per-host circuit breaking.
//!
//! The paper's sender-side story (§2.4, §6) is about what a *sending*
//! MTA does when the recipient's infrastructure misbehaves. The
//! per-message [`mtasts::SenderEngine`] answers the policy question
//! (what does MTA-STS buy?); this module answers the
//! operational one: **when an MX is down, degraded, flapping, or
//! greylisting, does the mail still flow — and at what retry cost?**
//!
//! Shape of the machine:
//!
//! - every submitted recipient becomes one [`QueuedMessage`] with its
//!   own ledger row — per-recipient envelope status, never a
//!   whole-message blur;
//! - each delivery attempt walks the RFC 5321 fail-over ladder from
//!   [`crate::mx_select::mx_ladder`]: priority tiers in order, a seeded
//!   weight shuffle within equal-preference sets, connection-level
//!   failures falling through to the next rung;
//! - SMTP replies are classified *by type*: 4xx requeues with the
//!   [`RetryPolicy`]'s backoff, 5xx bounces immediately, and
//!   connection-level failures count against the per-host
//!   [`BreakerBoard`] so a dead MX is skipped for a cooldown window
//!   instead of eating a timeout per message;
//! - the queue runs in **waves** of a fixed size: within a wave every
//!   message sees the same immutable breaker snapshot and is processed
//!   by [`netbase::map_sharded`] (pure in `(seq, message)`), and
//!   between waves the per-host events fold into the board in
//!   canonical message order. Output is therefore byte-identical for
//!   any `SCAN_THREADS`, and a killed run resumes from its checkpoint
//!   to the same ledger.

use crate::breaker::{Admission, BreakerBoard, BreakerConfig, HostEvent};
use crate::enforce::{
    EnforcementConfig, ResolvedPolicy, StsApplication, TlsEvidence, TlsRequirement, WavePolicies,
};
use crate::mx_select::{filter_ladder_for_policy, implicit_mx, mx_ladder, MxCandidate};
use mtasts::{CachedPolicy, Mode, PolicyCache, ReportBuilder, StsFailure, StsOutcome};
use netbase::AttemptEvent;
use netbase::{map_sharded, DetRng, DomainName, Duration, RetryPolicy, RetryVerdict, SimInstant};
use obsv::health::{fnv64, seal, unseal, write_atomic};
use pkix::TrustStore;
use serde::{Deserialize, Serialize};
use simnet::MxProbeOutcome;
use std::path::{Path, PathBuf};

/// One per-recipient envelope in the queue.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuedMessage {
    /// Queue-unique message id (caller-assigned; appears in the ledger).
    pub id: String,
    /// Envelope sender (MAIL FROM).
    pub mail_from: String,
    /// The single envelope recipient this queue entry tracks (RCPT TO).
    /// Multi-recipient submissions fan out into one entry per recipient
    /// so every recipient gets its own status row.
    pub rcpt_to: String,
    /// Message body.
    pub body: String,
}

impl QueuedMessage {
    /// A one-recipient message.
    pub fn new(id: &str, from: &str, to: &str, body: &str) -> QueuedMessage {
        QueuedMessage {
            id: id.to_string(),
            mail_from: from.to_string(),
            rcpt_to: to.to_string(),
            body: body.to_string(),
        }
    }

    /// The recipient's domain (routing key). `None` for a malformed
    /// address, which bounces without touching the network.
    pub fn recipient_domain(&self) -> Option<DomainName> {
        self.rcpt_to
            .rsplit_once('@')
            .and_then(|(_, d)| d.parse().ok())
    }
}

/// What one connection attempt to one MX host produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptDisposition {
    /// The message was accepted.
    Delivered {
        /// The TLS evidence the session produced.
        tls: TlsEvidence,
    },
    /// Connection-level failure: refused, timeout, reset mid-dialogue.
    /// Counts against the host's circuit breaker; the ladder falls
    /// through to the next rung.
    HostUnreachable,
    /// The server answered with a non-positive SMTP reply. The host is
    /// *alive* (no breaker damage); the code's class decides requeue
    /// (4xx) versus bounce (5xx).
    Reply {
        /// The reply code.
        code: u16,
        /// First reply line text.
        text: String,
    },
    /// The *sender* aborted the session because the attempt's
    /// [`TlsRequirement`] was unmet (no STARTTLS, bad certificate under
    /// `RequirePkix`/`RequireDane`). The host is alive — no breaker
    /// damage — but the rung is unusable under the governing policy;
    /// the ladder falls through.
    TlsRefused {
        /// What the requirement check rejected.
        failure: StsFailure,
    },
}

impl AttemptDisposition {
    /// Judges one SMTP session with `mx_host` under `tls`: the last step
    /// of every transport's attempt, whether the session was modelled
    /// ([`simnet::World::probe_mx`]) or run over a socket
    /// ([`simnet::wire::probe_mx_at`]). An unreachable host or a broken
    /// upgrade is [`AttemptDisposition::HostUnreachable`], a reply that
    /// ended the session is [`AttemptDisposition::Reply`], and the rest
    /// is [`TlsRequirement::check`]'s verdict.
    pub fn judge(
        probe: MxProbeOutcome<'_>,
        mx_host: &DomainName,
        now: SimInstant,
        roots: &TrustStore,
        tls: &TlsRequirement,
    ) -> AttemptDisposition {
        if !probe.reachable || probe.tls_failure.is_some() {
            return AttemptDisposition::HostUnreachable;
        }
        if let Some(reply) = probe.reply {
            return AttemptDisposition::Reply {
                code: reply.code,
                text: reply.text,
            };
        }
        match tls.check(&probe, mx_host, now, roots) {
            Ok(tls) => AttemptDisposition::Delivered { tls },
            Err(failure) => AttemptDisposition::TlsRefused { failure },
        }
    }
}

/// How the queue reaches recipient infrastructure. The fast path walks
/// the in-process [`simnet::World`]; the wire path (assembled in the
/// root-package tests) speaks real SMTP over localhost TCP. Both end an
/// attempt in [`AttemptDisposition::judge`], and both must be pure
/// functions of `(domain/host, message, now)` for the determinism
/// contract to hold.
pub trait MxTransport: Sync {
    /// The recipient domain's MX RRset as `(preference, host)` pairs.
    /// `Err` is treated as a transient routing failure (requeue);
    /// `Ok(vec![])` falls back to the implicit MX.
    fn route(&self, domain: &DomainName, now: SimInstant)
        -> Result<Vec<(u16, DomainName)>, String>;

    /// One delivery attempt to one MX host under `tls`.
    fn attempt(
        &self,
        mx_host: &DomainName,
        message: &QueuedMessage,
        now: SimInstant,
        tls: &TlsRequirement,
    ) -> AttemptDisposition;

    /// The `_mta-sts.<domain>` TXT strings; `None` when the lookup
    /// failed (SERVFAIL-class), `Some(vec![])` when the name does not
    /// exist. The default — no MTA-STS anywhere — keeps policy-blind
    /// transports (and the pre-enforcement behaviour) working unchanged.
    fn sts_record(&self, _domain: &DomainName, _now: SimInstant) -> Option<Vec<String>> {
        Some(Vec::new())
    }

    /// Fetches the raw policy document over strict-TLS HTTPS
    /// (RFC 8461 §3.3). Only called when a valid record demands it.
    fn fetch_sts_policy(&self, _domain: &DomainName, _now: SimInstant) -> Result<String, String> {
        Err("transport has no policy source".to_string())
    }

    /// Usable TLSA records at `_25._tcp.<mx>` when the hosting zone is
    /// DNSSEC-signed; `None` when DANE does not apply to the host.
    fn tlsa_records(
        &self,
        _mx_host: &DomainName,
        _now: SimInstant,
    ) -> Option<Vec<dns::TlsaRecord>> {
        None
    }

    /// Whether an active attack window touches `name` at `now` — the
    /// simulation's omniscient interception accounting (a real MTA
    /// cannot know this; the chaos matrix uses it to *grade* modes).
    fn attack_touched(&self, _name: &DomainName, _now: SimInstant) -> bool {
        false
    }
}

/// Why a message bounced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BounceReason {
    /// A 5xx reply: the recipient infrastructure permanently refused.
    Permanent {
        /// The 5xx code.
        code: u16,
        /// Reply text.
        text: String,
    },
    /// Transient failures (4xx, unreachable hosts, routing errors)
    /// persisted past the retry policy's attempt cap or deadline.
    RetriesExhausted {
        /// The final attempt's failure, rendered.
        last_error: String,
    },
    /// The recipient address had no parseable domain; never attempted.
    Unroutable,
    /// An `enforce`-mode MTA-STS policy (or DANE) refused every usable
    /// rung for the whole retry schedule: the ladder was fully filtered
    /// by the policy's `mx` patterns, or every surviving rung failed
    /// the TLS requirement. Distinct from [`BounceReason::Unroutable`]
    /// — the MX set existed, the *policy* forbade it.
    PolicyRefused {
        /// The last policy-level failure observed.
        failure: StsFailure,
    },
}

/// Terminal per-recipient envelope status.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MessageStatus {
    /// Accepted by an MX.
    Delivered {
        /// The host that accepted.
        mx_host: String,
        /// Whether STARTTLS protected the session.
        tls_used: bool,
        /// Whether the session was *validated* under the governing
        /// requirement (PKIX under `enforce`/`testing` audit, DANE under
        /// TLSA precedence). Always `false` without enforcement.
        validated: bool,
    },
    /// Returned to sender.
    Bounced {
        /// The typed reason.
        reason: BounceReason,
    },
}

/// One ledger row: everything the queue observed for one recipient.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageRecord {
    /// Global submission index (stable across kill/resume).
    pub seq: u64,
    /// Caller-assigned message id.
    pub id: String,
    /// The recipient.
    pub rcpt_to: String,
    /// Terminal status.
    pub status: MessageStatus,
    /// Delivery attempts made (1..=retry cap).
    pub attempts: u32,
    /// Ladder rungs fallen through after connection-level failures.
    pub failovers: u32,
    /// Rungs skipped because the host's breaker was open.
    pub breaker_skips: u32,
    /// Rungs never used because of the governing policy: filtered out
    /// by `enforce`-mode `mx` patterns before fail-over, or attempted
    /// and TLS-refused.
    pub policy_skips: u32,
    /// What governed the terminal attempt (policy mode / DANE / none).
    pub sts: StsApplication,
    /// The RFC 8460 outcome this message contributes to TLSRPT; `None`
    /// when enforcement was off, or for non-policy bounces (no TLS
    /// session concluded, nothing to report).
    pub sts_outcome: Option<StsOutcome>,
    /// Simulation-omniscient grading: the message was delivered
    /// *unvalidated* while an attack window touched its domain or the
    /// accepting MX — mail an on-path attacker could read or take.
    pub intercepted: bool,
    /// When the first attempt started (sim clock, unix seconds).
    pub admitted_unix_secs: i64,
    /// When the terminal status was reached (sim clock, unix seconds).
    pub finished_unix_secs: i64,
}

impl MessageRecord {
    /// Whether the message reached an MX.
    pub fn delivered(&self) -> bool {
        matches!(self.status, MessageStatus::Delivered { .. })
    }
}

/// Queue-wide accounting, deterministic across thread counts and
/// kill/resume cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Messages processed to a terminal status.
    pub processed: u64,
    /// Delivered.
    pub delivered: u64,
    /// Bounced on a 5xx.
    pub bounced_permanent: u64,
    /// Bounced after exhausting retries.
    pub bounced_exhausted: u64,
    /// Bounced unroutable.
    pub bounced_unroutable: u64,
    /// Bounced because the policy refused every usable rung.
    pub bounced_policy: u64,
    /// Total delivery attempts.
    pub attempts: u64,
    /// Requeues (attempts beyond each message's first).
    pub requeues: u64,
    /// Connection-level fail-overs to a lower rung.
    pub failovers: u64,
    /// Ladder rungs skipped by open breakers.
    pub breaker_skips: u64,
    /// Deliveries whose session validated under the governing
    /// requirement (PKIX or DANE).
    pub delivered_validated: u64,
    /// Deliveries carried by DANE precedence over MTA-STS.
    pub delivered_dane: u64,
    /// `testing`-mode deliveries that would have failed under `enforce`
    /// (RFC 8461 §5: report, don't refuse).
    pub soft_fails: u64,
    /// Ladder rungs filtered by policy patterns or TLS-refused.
    pub policy_ladder_skips: u64,
    /// Wave resolutions that served a fresh-enough cached policy after
    /// a failed or garbage refresh (RFC 8461 §3.3 stale fallback).
    pub stale_fallbacks: u64,
    /// Deliveries graded as intercepted (unvalidated under an active
    /// attack window).
    pub intercepted: u64,
}

impl QueueStats {
    fn absorb(&mut self, rec: &MessageRecord) {
        self.processed += 1;
        match &rec.status {
            MessageStatus::Delivered { validated, .. } => {
                self.delivered += 1;
                if *validated {
                    self.delivered_validated += 1;
                }
                if matches!(rec.sts, StsApplication::Dane) {
                    self.delivered_dane += 1;
                }
                if matches!(rec.sts_outcome, Some(StsOutcome::Failed { .. })) {
                    self.soft_fails += 1;
                }
            }
            MessageStatus::Bounced { reason } => match reason {
                BounceReason::Permanent { .. } => self.bounced_permanent += 1,
                BounceReason::RetriesExhausted { .. } => self.bounced_exhausted += 1,
                BounceReason::Unroutable => self.bounced_unroutable += 1,
                BounceReason::PolicyRefused { .. } => self.bounced_policy += 1,
            },
        }
        if rec.intercepted {
            self.intercepted += 1;
        }
        self.attempts += u64::from(rec.attempts);
        self.requeues += u64::from(rec.attempts.saturating_sub(1));
        self.failovers += u64::from(rec.failovers);
        self.breaker_skips += u64::from(rec.breaker_skips);
        self.policy_ladder_skips += u64::from(rec.policy_skips);
    }
}

/// Queue configuration.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Root seed for the MX shuffle and retry jitter.
    pub seed: u64,
    /// Worker threads (0 = [`netbase::default_scan_threads`]). The
    /// ledger is byte-identical for every value.
    pub threads: usize,
    /// Messages per wave. Wave boundaries sit at fixed multiples of
    /// this, so checkpoint/resume composes with determinism. Must be
    /// at least 1.
    pub wave_size: usize,
    /// The sim instant message 0 is admitted at.
    pub epoch: SimInstant,
    /// Seconds between consecutive admissions: message `seq` starts at
    /// `epoch + seq * admission_spacing_secs`. Decorrelates per-message
    /// fault draws (faults are keyed on `(scope, instant)`).
    pub admission_spacing_secs: i64,
    /// The retry/backoff discipline (4xx and unreachable-ladder
    /// failures requeue under it).
    pub retry: RetryPolicy,
    /// Per-host circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Where to persist the queue checkpoint; `None` disables. A run
    /// resumes only a checkpoint written under its own config and
    /// messages; any other file starts it fresh.
    pub checkpoint_path: Option<PathBuf>,
    /// Stop (with a checkpoint) at the first wave boundary after this
    /// many messages processed in this invocation — the kill hook the
    /// resume tests use.
    pub message_budget: Option<usize>,
    /// MTA-STS enforcement. `None` keeps the pre-enforcement queue:
    /// every attempt opportunistic, no policy resolution, no TLSRPT.
    pub enforcement: Option<EnforcementConfig>,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            seed: 42,
            threads: 0,
            wave_size: 32,
            epoch: SimInstant::from_unix_secs(1_717_200_000),
            admission_spacing_secs: 7,
            retry: RetryPolicy {
                max_attempts: 4,
                initial_backoff: Duration::seconds(60),
                multiplier: 4,
                max_backoff: Duration::seconds(3600),
                jitter: 0.25,
                attempt_timeout: Duration::seconds(30),
                total_deadline: Duration::seconds(48 * 3600),
            },
            breaker: BreakerConfig::default(),
            checkpoint_path: None,
            message_budget: None,
            enforcement: None,
        }
    }
}

impl QueueConfig {
    /// The effective worker-thread count (0 =
    /// [`netbase::default_scan_threads`]).
    fn effective_threads(&self) -> usize {
        match self.threads {
            0 => netbase::default_scan_threads(),
            n => n,
        }
    }

    /// The identity a checkpoint records: this config without `threads`,
    /// `checkpoint_path` and `message_budget`, which only say how a run
    /// was driven, plus the messages. The transport's world is not part
    /// of it, because the queue cannot see it.
    fn identity(&self, messages: &[QueuedMessage]) -> u64 {
        let queue = QueueConfig {
            threads: 0,
            checkpoint_path: None,
            message_budget: None,
            ..self.clone()
        };
        fnv64(format!("{queue:?}|{messages:?}").as_bytes())
    }
}

/// The outcome of one queue invocation.
#[derive(Debug, Clone)]
pub struct QueueOutcome {
    /// Per-recipient ledger, in submission order (complete prefix).
    pub records: Vec<MessageRecord>,
    /// Aggregate accounting over `records`.
    pub stats: QueueStats,
    /// Final breaker state.
    pub board: BreakerBoard,
    /// RFC 8460 TLSRPT aggregation over the ledger (deliveries and
    /// policy bounces). Rebuilt from `records` on every return, so it
    /// is identical across kill/resume splits. Empty when enforcement
    /// is off.
    pub tlsrpt: ReportBuilder,
    /// `true` when the message budget suspended the run mid-queue; the
    /// checkpoint holds the state to resume from.
    pub suspended: bool,
}

/// FNV-1a 64-bit over the serialized ledger — the byte-identity witness
/// the determinism tests and the bench compare.
pub fn ledger_digest(records: &[MessageRecord]) -> String {
    let payload = serde_json::to_string(records).expect("ledger serializes");
    format!("{:016x}", fnv64(payload.as_bytes()))
}

/// Magic tag of the queue checkpoint header line. `MTASTS-DLVQ1` files
/// recorded no queue identity.
const QUEUE_CKPT_MAGIC: &str = "MTASTS-DLVQ2";

/// The on-disk queue checkpoint: the completed ledger prefix plus the
/// folded breaker board at the wave boundary it was taken on. Same
/// integrity discipline as the scan supervisor's checkpoint: a
/// `MTASTS-DLVQ2 <len> <fnv64>` header, and any corruption starts the
/// run fresh instead of resuming wrong, as does a file another queue
/// wrote.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct QueueCheckpoint {
    /// [`QueueConfig::identity`] of the queue that wrote it.
    identity: u64,
    records: Vec<MessageRecord>,
    board: BreakerBoard,
    next_index: usize,
    stats: QueueStats,
    /// The MTA-STS policy-cache snapshot at the wave boundary, sorted
    /// by domain. Resuming restores it, so the resumed run replays the
    /// same cache decisions (and §3.3 fallbacks) the uninterrupted run
    /// makes — the determinism contract with enforcement on.
    sts_cache: Vec<(DomainName, CachedPolicy)>,
}

impl QueueCheckpoint {
    /// Loads the checkpoint the queue of `identity` wrote. A missing or
    /// corrupt file starts fresh, and so does one another queue wrote.
    fn load(path: &Path, identity: u64) -> QueueCheckpoint {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|text| QueueCheckpoint::parse(&text))
            .filter(|ckpt| ckpt.identity == identity)
            .unwrap_or(QueueCheckpoint {
                identity,
                ..QueueCheckpoint::default()
            })
    }

    fn parse(text: &str) -> Option<QueueCheckpoint> {
        serde_json::from_str(unseal(QUEUE_CKPT_MAGIC, text)?).ok()
    }

    /// Atomic store ([`write_atomic`]). I/O failure is returned, not
    /// panicked, so the queue can keep draining checkpoint-free.
    fn store(&self, path: &Path) -> std::io::Result<()> {
        let payload = serde_json::to_string(self).expect("checkpoint serializes");
        write_atomic(path, seal(QUEUE_CKPT_MAGIC, &payload).as_bytes())
    }
}

/// A dispatch-layer failure, classified for the retry policy.
#[derive(Debug, Clone)]
struct DispatchError {
    transient: bool,
    rendered: String,
    /// Set when the failure was a concrete 5xx reply.
    permanent_reply: Option<(u16, String)>,
    /// Set when the governing policy (not the network) blocked the
    /// ladder: fully filtered by `mx` patterns, or every surviving rung
    /// TLS-refused. Transient — a later retry may land outside an
    /// attack window or after a breaker re-admission — but exhaustion
    /// becomes [`BounceReason::PolicyRefused`] instead of the generic
    /// retries-exhausted bounce.
    policy_refusal: Option<StsFailure>,
}

impl DispatchError {
    fn transient(rendered: String) -> DispatchError {
        DispatchError {
            transient: true,
            rendered,
            permanent_reply: None,
            policy_refusal: None,
        }
    }
}

/// The deterministic outbound queue.
#[derive(Debug, Clone, Default)]
pub struct DeliveryQueue {
    /// Queue tuning.
    pub cfg: QueueConfig,
}

impl DeliveryQueue {
    /// A queue with the given configuration.
    pub fn new(cfg: QueueConfig) -> DeliveryQueue {
        DeliveryQueue { cfg }
    }

    /// Drains `messages` (or resumes draining them from the checkpoint)
    /// through `transport`.
    ///
    /// Determinism contract: for a fixed `(cfg.seed, messages,
    /// transport behaviour)` the returned ledger is byte-identical for
    /// every thread count and across any kill/resume split — waves sit
    /// at fixed multiples of `wave_size`, every message in a wave sees
    /// the same breaker snapshot, and per-host events fold between
    /// waves in submission order.
    pub fn run<T: MxTransport>(&self, transport: &T, messages: &[QueuedMessage]) -> QueueOutcome {
        assert!(self.cfg.wave_size >= 1, "wave_size must be at least 1");
        let threads = self.cfg.effective_threads();
        let rng = DetRng::new(self.cfg.seed);
        let mut checkpoint_path = self.cfg.checkpoint_path.clone();
        let mut ckpt = match &checkpoint_path {
            Some(path) => QueueCheckpoint::load(path, self.cfg.identity(messages)),
            None => QueueCheckpoint::default(),
        };
        // The TOFU policy cache rides the checkpoint so a resumed run
        // replays the same cache decisions the uninterrupted run makes.
        // Only the driver thread touches it, between waves. A queue
        // without enforcement has none, and its checkpoints keep the
        // loaded snapshot.
        let mut sts_cache = self
            .cfg
            .enforcement
            .is_some()
            .then(|| PolicyCache::from_snapshot(ckpt.sts_cache.clone()));
        let mut index = ckpt.next_index;
        let mut processed_here = 0usize;

        while index < messages.len() {
            if let Some(budget) = self.cfg.message_budget {
                if processed_here >= budget {
                    ckpt.next_index = index;
                    let _ = store_checkpoint(&mut ckpt, sts_cache.as_ref(), &mut checkpoint_path);
                    obsv::event!("delivery.queue_suspend");
                    let tlsrpt = fold_tlsrpt(&ckpt.records);
                    return QueueOutcome {
                        records: ckpt.records,
                        stats: ckpt.stats,
                        board: ckpt.board,
                        tlsrpt,
                        suspended: true,
                    };
                }
            }

            // Wave boundaries sit at absolute multiples of wave_size so
            // a killed-and-resumed run re-forms exactly the waves an
            // uninterrupted one had (the breaker fold points — and with
            // them the ladder decisions — depend on wave composition).
            let wave_end =
                (((index / self.cfg.wave_size) + 1) * self.cfg.wave_size).min(messages.len());
            let batch = &messages[index..wave_end];
            // Single-threaded, submission-ordered policy resolution:
            // one resolution per (domain, wave), at the admission
            // instant of the wave's first message for that domain, so
            // cache state never depends on worker interleaving.
            let wave_policies = match &mut sts_cache {
                Some(cache) => resolve_wave(
                    &self.cfg,
                    cache,
                    transport,
                    batch,
                    index as u64,
                    &mut ckpt.stats,
                ),
                None => WavePolicies::new(),
            };
            let mut wave_span = obsv::span!("delivery.wave");
            // Workers only read the board; the wave's events fold into it
            // after `map_sharded` returns.
            let board = &ckpt.board;
            let results = map_sharded(threads, batch, |j, msg| {
                process_message(
                    &self.cfg,
                    &rng,
                    board,
                    &wave_policies,
                    transport,
                    (index + j) as u64,
                    msg,
                )
            });
            wave_span.set_sim_secs(0);
            for (record, events) in results {
                for event in &events {
                    ckpt.board.apply(&self.cfg.breaker, event);
                }
                ckpt.stats.absorb(&record);
                ckpt.records.push(record);
            }
            processed_here += batch.len();
            // Close the wave's flight-recorder window (keyed by the
            // absolute wave ordinal — the queue's "sim date") and emit a
            // messages/sec progress tick. Driver thread only, after the
            // workers were absorbed; free when recording is off.
            obsv::timeseries::roll((index / self.cfg.wave_size) as i64);
            obsv::health::progress("delivery.messages", wave_end as u64, messages.len() as u64);
            index = wave_end;
            ckpt.next_index = index;
            if index < messages.len() {
                let _ = store_checkpoint(&mut ckpt, sts_cache.as_ref(), &mut checkpoint_path);
            }
        }

        let _ = store_checkpoint(&mut ckpt, sts_cache.as_ref(), &mut checkpoint_path);
        let tlsrpt = fold_tlsrpt(&ckpt.records);
        QueueOutcome {
            records: ckpt.records,
            stats: ckpt.stats,
            board: ckpt.board,
            tlsrpt,
            suspended: false,
        }
    }
}

/// Resolves each distinct recipient domain of a wave once, in
/// submission order, at the admission instant of its first message.
fn resolve_wave<T: MxTransport>(
    cfg: &QueueConfig,
    cache: &mut PolicyCache,
    transport: &T,
    batch: &[QueuedMessage],
    base_seq: u64,
    stats: &mut QueueStats,
) -> WavePolicies {
    let mut policies = WavePolicies::new();
    for (j, msg) in batch.iter().enumerate() {
        let Some(domain) = msg.recipient_domain() else {
            continue;
        };
        if policies.contains_key(&domain) {
            continue;
        }
        let now = admission_instant(cfg, base_seq + j as u64);
        let (resolved, _) = cache.resolve(
            &domain,
            transport.sts_record(&domain, now).as_deref(),
            || transport.fetch_sts_policy(&domain, now),
            now,
        );
        if matches!(resolved, ResolvedPolicy::Active { stale: true, .. }) {
            stats.stale_fallbacks += 1;
            obsv::counter!("delivery.sts_stale_fallback");
        }
        policies.insert(domain, resolved);
    }
    policies
}

/// Rebuilds the RFC 8460 aggregation from the ledger: one entry per
/// delivered message (success or typed soft failure) and per policy
/// bounce (hard failure). Non-policy bounces concluded no TLS session
/// and are not reported.
fn fold_tlsrpt(records: &[MessageRecord]) -> ReportBuilder {
    let mut builder = ReportBuilder::new();
    for rec in records {
        let Some(outcome) = &rec.sts_outcome else {
            continue;
        };
        let Some(domain) = rec
            .rcpt_to
            .rsplit_once('@')
            .and_then(|(_, d)| d.parse::<DomainName>().ok())
        else {
            continue;
        };
        let mx: DomainName = match &rec.status {
            MessageStatus::Delivered { mx_host, .. } => {
                mx_host.parse().unwrap_or_else(|_| domain.clone())
            }
            // Policy bounces report against the recipient domain — no
            // single MX concluded the failure (the whole ladder did).
            MessageStatus::Bounced { .. } => domain.clone(),
        };
        builder.record(&domain, &mx, outcome);
    }
    builder
}

/// When message `seq` is admitted (pure in `(cfg, seq)`).
fn admission_instant(cfg: &QueueConfig, seq: u64) -> SimInstant {
    SimInstant::from_unix_secs(
        cfg.epoch
            .unix_secs()
            .saturating_add(cfg.admission_spacing_secs.saturating_mul(seq as i64)),
    )
}

/// Stores the checkpoint when a path is set; the first I/O failure
/// disables checkpointing for the rest of the invocation (the queue
/// keeps draining — same degradation discipline as the supervisor).
///
/// With enforcement on, `cache` is the live policy cache: its snapshot
/// (every entry cloned and sorted) is taken here, only when a checkpoint
/// is about to be written.
fn store_checkpoint(
    ckpt: &mut QueueCheckpoint,
    cache: Option<&PolicyCache>,
    path_slot: &mut Option<PathBuf>,
) -> bool {
    let Some(path) = path_slot else { return true };
    if let Some(cache) = cache {
        ckpt.sts_cache = cache.snapshot();
    }
    if ckpt.store(path).is_err() {
        obsv::event!("delivery.checkpoint_failure");
        *path_slot = None;
        false
    } else {
        obsv::event!("delivery.checkpoint_write");
        true
    }
}

/// Processes one message to its terminal status against an immutable
/// breaker snapshot. Pure in `(cfg, seed, snapshot, transport, seq,
/// message)` — the determinism obligation `map_sharded` needs.
fn process_message<T: MxTransport>(
    cfg: &QueueConfig,
    rng: &DetRng,
    snapshot: &BreakerBoard,
    policies: &WavePolicies,
    transport: &T,
    seq: u64,
    message: &QueuedMessage,
) -> (MessageRecord, Vec<HostEvent>) {
    obsv::counter!("delivery.enqueued");
    let admitted = admission_instant(cfg, seq);

    let Some(domain) = message.recipient_domain() else {
        obsv::counter!("delivery.bounced");
        let record = MessageRecord {
            seq,
            id: message.id.clone(),
            rcpt_to: message.rcpt_to.clone(),
            status: MessageStatus::Bounced {
                reason: BounceReason::Unroutable,
            },
            attempts: 0,
            failovers: 0,
            breaker_skips: 0,
            policy_skips: 0,
            sts: StsApplication::None,
            sts_outcome: None,
            intercepted: false,
            admitted_unix_secs: admitted.unix_secs(),
            finished_unix_secs: admitted.unix_secs(),
        };
        return (record, Vec::new());
    };

    let enforcement = cfg.enforcement.as_ref();
    let resolution = enforcement.and_then(|_| policies.get(&domain));

    let mut events: Vec<HostEvent> = Vec::new();
    let mut failovers = 0u32;
    let mut breaker_skips = 0u32;
    let mut policy_skips = 0u32;

    let label = format!("delivery/{seq}/{domain}");
    let outcome = cfg.retry.run_observed(
        rng,
        &label,
        admitted,
        |e: &DispatchError| e.transient,
        |now, _attempt| {
            attempt_ladder(
                rng,
                snapshot,
                transport,
                &domain,
                message,
                now,
                resolution,
                enforcement,
                &mut events,
                &mut failovers,
                &mut breaker_skips,
                &mut policy_skips,
            )
        },
        |event| {
            if let AttemptEvent::Failure {
                transient: true,
                backoff: Some(_),
                ..
            } = event
            {
                obsv::counter!("delivery.requeue_total");
            }
        },
    );
    let finished = outcome.finished_at;

    let (status, sts, sts_outcome) = match outcome.result {
        Ok(success) => {
            obsv::counter!("delivery.delivered");
            let validated = matches!(success.evidence, TlsEvidence::Validated)
                && success.soft_failure.is_none();
            let sts_outcome = enforcement
                .map(|_| crate::enforce::report_outcome(resolution, success.soft_failure.as_ref()));
            (
                MessageStatus::Delivered {
                    mx_host: success.host,
                    tls_used: success.evidence.tls_used(),
                    validated,
                },
                success.applied,
                sts_outcome,
            )
        }
        Err(err) => {
            obsv::counter!("delivery.bounced");
            let sts = match resolution {
                Some(ResolvedPolicy::Active {
                    policy,
                    from_cache,
                    stale,
                }) => StsApplication::Sts {
                    mode: policy.mode,
                    from_cache: *from_cache,
                    stale: *stale,
                },
                _ => StsApplication::None,
            };
            let (reason, sts_outcome) = match (outcome.verdict, err.permanent_reply) {
                (RetryVerdict::Persistent, Some((code, text))) => {
                    (BounceReason::Permanent { code, text }, None)
                }
                _ => match err.policy_refusal {
                    Some(failure) => {
                        let outcome = enforcement
                            .map(|_| crate::enforce::report_outcome(resolution, Some(&failure)));
                        (BounceReason::PolicyRefused { failure }, outcome)
                    }
                    None => (
                        BounceReason::RetriesExhausted {
                            last_error: err.rendered,
                        },
                        None,
                    ),
                },
            };
            (MessageStatus::Bounced { reason }, sts, sts_outcome)
        }
    };
    obsv::histogram!("delivery.attempts", u64::from(outcome.attempts));

    // Omniscient interception grading: delivered unvalidated while an
    // attack window touched the domain or the accepting host.
    let intercepted = match &status {
        MessageStatus::Delivered {
            mx_host, validated, ..
        } => {
            !validated
                && (transport.attack_touched(&domain, finished)
                    || mx_host
                        .parse::<DomainName>()
                        .is_ok_and(|h| transport.attack_touched(&h, finished)))
        }
        MessageStatus::Bounced { .. } => false,
    };

    let record = MessageRecord {
        seq,
        id: message.id.clone(),
        rcpt_to: message.rcpt_to.clone(),
        status,
        attempts: outcome.attempts,
        failovers,
        breaker_skips,
        policy_skips,
        sts,
        sts_outcome,
        intercepted,
        admitted_unix_secs: admitted.unix_secs(),
        finished_unix_secs: finished.unix_secs(),
    };
    (record, events)
}

/// What a successful ladder walk concluded.
struct LadderSuccess {
    /// The accepting host.
    host: String,
    /// TLS evidence from the accepting session.
    evidence: TlsEvidence,
    /// What governed the attempt (policy mode / DANE / none).
    applied: StsApplication,
    /// `testing`-mode accounting: the failure that `enforce` would have
    /// refused on (MX not listed, plaintext, bad certificate).
    soft_failure: Option<StsFailure>,
}

/// Picks the TLS requirement for one rung: DANE precedence first
/// (RFC 7672), then the policy mode (RFC 8461 §5), opportunistic
/// otherwise.
fn attempt_plan<T: MxTransport + ?Sized>(
    enforcement: Option<&EnforcementConfig>,
    transport: &T,
    resolution: Option<&ResolvedPolicy>,
    host: &DomainName,
    now: SimInstant,
) -> (TlsRequirement, StsApplication) {
    let Some(enf) = enforcement else {
        return (TlsRequirement::Opportunistic, StsApplication::None);
    };
    if enf.dane_precedence {
        if let Some(tlsa) = transport.tlsa_records(host, now) {
            return (TlsRequirement::RequireDane(tlsa), StsApplication::Dane);
        }
    }
    match resolution {
        Some(ResolvedPolicy::Active {
            policy,
            from_cache,
            stale,
        }) => {
            let applied = StsApplication::Sts {
                mode: policy.mode,
                from_cache: *from_cache,
                stale: *stale,
            };
            let requirement = match policy.mode {
                Mode::Enforce => TlsRequirement::RequirePkix,
                Mode::Testing => TlsRequirement::OpportunisticAudit,
                Mode::None => TlsRequirement::Opportunistic,
            };
            (requirement, applied)
        }
        _ => (TlsRequirement::Opportunistic, StsApplication::None),
    }
}

/// `testing`-mode soft-failure typing, in engine order: MX listing
/// first, then STARTTLS, then the certificate (RFC 8461 §5).
fn soft_failure_for(
    applied: &StsApplication,
    resolution: Option<&ResolvedPolicy>,
    host: &DomainName,
    evidence: &TlsEvidence,
) -> Option<StsFailure> {
    if !matches!(
        applied,
        StsApplication::Sts {
            mode: Mode::Testing,
            ..
        }
    ) {
        return None;
    }
    let policy = resolution.and_then(|r| r.policy())?;
    if !mtasts::mx_matches_policy(host, policy) {
        return Some(StsFailure::MxNotListed);
    }
    match evidence {
        TlsEvidence::Plaintext => Some(StsFailure::StartTlsUnavailable),
        TlsEvidence::CertFailed(e) => Some(StsFailure::CertInvalid(e.clone())),
        TlsEvidence::Encrypted | TlsEvidence::Validated => None,
    }
}

/// One walk down the fail-over ladder (= one retry-policy attempt).
#[allow(clippy::too_many_arguments)]
fn attempt_ladder<T: MxTransport>(
    rng: &DetRng,
    snapshot: &BreakerBoard,
    transport: &T,
    domain: &DomainName,
    message: &QueuedMessage,
    now: SimInstant,
    resolution: Option<&ResolvedPolicy>,
    enforcement: Option<&EnforcementConfig>,
    events: &mut Vec<HostEvent>,
    failovers: &mut u32,
    breaker_skips: &mut u32,
    policy_skips: &mut u32,
) -> Result<LadderSuccess, DispatchError> {
    let records = transport
        .route(domain, now)
        .map_err(|e| DispatchError::transient(format!("MX lookup failed: {e}")))?;
    let mut ladder: Vec<MxCandidate> = if records.is_empty() {
        implicit_mx(domain)
    } else {
        mx_ladder(rng, domain, &records)
    };

    // RFC 8461 §5.1: under `enforce`, rungs matching no `mx` pattern
    // are filtered out *before* fail-over — never attempted — unless
    // DANE covers them (RFC 7672 precedence).
    if let (Some(enf), Some(ResolvedPolicy::Active { policy, .. })) = (enforcement, resolution) {
        if policy.mode == Mode::Enforce {
            let filtered = filter_ladder_for_policy(&mut ladder, policy, |h| {
                enf.dane_precedence && transport.tlsa_records(h, now).is_some()
            });
            *policy_skips += filtered;
            if filtered > 0 {
                obsv::counter!("delivery.policy_filtered_rungs");
            }
            if ladder.is_empty() {
                // The typed policy bounce, not Unroutable: the MX set
                // existed, the policy forbade all of it. Transient —
                // a forged MX answer (MxRedirect) heals when the
                // window closes.
                return Err(DispatchError {
                    transient: true,
                    rendered: format!(
                        "policy filtered all {filtered} MX rungs for {domain} under enforce"
                    ),
                    permanent_reply: None,
                    policy_refusal: Some(StsFailure::MxNotListed),
                });
            }
        }
    }

    let mut hard_failures = 0u32;
    let mut skipped = 0u32;
    let mut refusal: Option<StsFailure> = None;
    for (rung, candidate) in ladder.iter().enumerate() {
        let host = candidate.host.to_string();
        match snapshot.admission(&host, now) {
            Admission::Skip => {
                skipped += 1;
                *breaker_skips += 1;
                obsv::counter!("delivery.breaker_skip_total");
                continue;
            }
            Admission::Allowed | Admission::Probe => {}
        }
        let (requirement, applied) =
            attempt_plan(enforcement, transport, resolution, &candidate.host, now);
        match transport.attempt(&candidate.host, message, now, &requirement) {
            AttemptDisposition::Delivered { tls } => {
                events.push(HostEvent::Reachable { host: host.clone() });
                if rung > 0 {
                    obsv::counter!("delivery.failover_delivered");
                }
                let soft_failure = soft_failure_for(&applied, resolution, &candidate.host, &tls);
                return Ok(LadderSuccess {
                    host,
                    evidence: tls,
                    applied,
                    soft_failure,
                });
            }
            AttemptDisposition::HostUnreachable => {
                events.push(HostEvent::HardFailure {
                    host,
                    at_unix_secs: now.unix_secs(),
                });
                hard_failures += 1;
                *failovers += 1;
                obsv::counter!("delivery.failover_total");
                continue;
            }
            AttemptDisposition::Reply { code, text } => {
                // Any SMTP reply proves the host is up.
                events.push(HostEvent::Reachable { host });
                if (400..500).contains(&code) {
                    // Typed 4xx: requeue with backoff. Greylisting asked
                    // *this client* to come back later; hammering the
                    // rest of the ladder would multiply load, so the
                    // attempt ends here.
                    return Err(DispatchError::transient(format!(
                        "tempfail {code} from {}: {text}",
                        candidate.host
                    )));
                }
                // Typed 5xx: bounce, no retry.
                return Err(DispatchError {
                    transient: false,
                    rendered: format!("rejected {code} from {}: {text}", candidate.host),
                    permanent_reply: Some((code, text)),
                    policy_refusal: None,
                });
            }
            AttemptDisposition::TlsRefused { failure } => {
                // The host answered SMTP — alive, no breaker damage —
                // but the session could not meet the TLS requirement.
                // The rung is unusable under the policy; fall through.
                events.push(HostEvent::Reachable { host });
                *policy_skips += 1;
                obsv::counter!("delivery.tls_refused_total");
                if refusal.is_none() {
                    refusal = Some(failure);
                }
                continue;
            }
        }
    }
    if let Some(failure) = refusal {
        // At least one rung was alive but policy-refused: exhaustion of
        // this schedule is a policy bounce, not a network one.
        return Err(DispatchError {
            transient: true,
            rendered: format!(
                "TLS requirement unmet on every usable rung ({})",
                failure.label()
            ),
            permanent_reply: None,
            policy_refusal: Some(failure),
        });
    }
    // Every rung unreachable or skipped: transient — the breaker may
    // re-admit a recovered host on a later attempt.
    Err(DispatchError::transient(format!(
        "all {} MX hosts failed ({hard_failures} unreachable, {skipped} breaker-skipped)",
        ladder.len()
    )))
}

/// The fast-path transport: routes and attempts against the in-process
/// [`simnet::World`]. Each attempt is one [`simnet::World::probe_mx`]
/// session naming the message's recipient, judged by
/// [`AttemptDisposition::judge`]; the wire leg (assembled in the
/// root-package tests) runs the same session over real SMTP, ends in the
/// same judgment, and produces the same ledger wherever the world's
/// behaviour is static.
pub struct FastTransport<'a> {
    world: &'a simnet::World,
}

impl<'a> FastTransport<'a> {
    /// A transport over `world`.
    pub fn new(world: &'a simnet::World) -> FastTransport<'a> {
        FastTransport { world }
    }
}

impl MxTransport for FastTransport<'_> {
    fn route(
        &self,
        domain: &DomainName,
        now: SimInstant,
    ) -> Result<Vec<(u16, DomainName)>, String> {
        self.world
            .mx_records_with_pref(domain, now)
            .map_err(|e| format!("{e:?}"))
    }

    fn attempt(
        &self,
        mx_host: &DomainName,
        message: &QueuedMessage,
        now: SimInstant,
        tls: &TlsRequirement,
    ) -> AttemptDisposition {
        let probe = self.world.probe_mx(mx_host, Some(&message.rcpt_to), now);
        AttemptDisposition::judge(probe, mx_host, now, self.world.pki.trust_store(), tls)
    }

    fn sts_record(&self, domain: &DomainName, now: SimInstant) -> Option<Vec<String>> {
        self.world.mta_sts_txts(domain, now).ok()
    }

    fn fetch_sts_policy(&self, domain: &DomainName, now: SimInstant) -> Result<String, String> {
        self.world
            .fetch_policy(domain, now)
            .result
            .map(|(_, raw)| raw)
            .map_err(|e| e.to_string())
    }

    fn tlsa_records(&self, mx_host: &DomainName, now: SimInstant) -> Option<Vec<dns::TlsaRecord>> {
        self.world.tlsa_records(mx_host, now)
    }

    fn attack_touched(&self, name: &DomainName, now: SimInstant) -> bool {
        self.world.attacker().touches(name, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    #[test]
    fn malformed_recipient_bounces_unroutable() {
        struct NoTransport;
        impl MxTransport for NoTransport {
            fn route(
                &self,
                _domain: &DomainName,
                _now: SimInstant,
            ) -> Result<Vec<(u16, DomainName)>, String> {
                panic!("unroutable mail must never route")
            }
            fn attempt(
                &self,
                _mx: &DomainName,
                _m: &QueuedMessage,
                _now: SimInstant,
                _tls: &TlsRequirement,
            ) -> AttemptDisposition {
                panic!("unroutable mail must never attempt")
            }
        }
        let queue = DeliveryQueue::default();
        let out = queue.run(
            &NoTransport,
            &[QueuedMessage::new("m0", "a@s.test", "not-an-address", "hi")],
        );
        assert_eq!(out.stats.bounced_unroutable, 1);
        assert_eq!(out.records[0].attempts, 0);
        assert!(!out.suspended);
    }

    #[test]
    fn a_broken_upgrade_is_an_unreachable_host() {
        // Only a wire session reports a broken upgrade. It never reached
        // a mail transaction, so no requirement may read it as plaintext.
        let broken = MxProbeOutcome {
            reachable: true,
            used_helo: false,
            starttls_offered: true,
            chain: None,
            tls_failure: Some("handshake: connection reset".to_string()),
            reply: None,
        };
        let host: DomainName = "mx.d0.test".parse().unwrap();
        let now = SimInstant::from_unix_secs(1_717_200_000);
        for tls in [
            TlsRequirement::Opportunistic,
            TlsRequirement::OpportunisticAudit,
            TlsRequirement::RequirePkix,
        ] {
            let judged =
                AttemptDisposition::judge(broken.clone(), &host, now, &TrustStore::empty(), &tls);
            assert_eq!(judged, AttemptDisposition::HostUnreachable, "{tls:?}");
        }
    }

    #[test]
    fn checkpoint_corruption_starts_fresh() {
        let good = QueueCheckpoint {
            next_index: 5,
            ..QueueCheckpoint::default()
        };
        let dir = std::env::temp_dir().join(format!("mtasts-dlvq-{}-corrupt", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("queue.ckpt");
        good.store(&path).unwrap();
        assert_eq!(QueueCheckpoint::load(&path, 0).next_index, 5);
        // Another queue's identity: fresh, stamped with the loader's.
        let other = QueueCheckpoint::load(&path, 1);
        assert_eq!((other.next_index, other.identity), (0, 1));
        let stored = std::fs::read_to_string(&path).unwrap();
        for cut in 0..stored.len() {
            std::fs::write(&path, &stored[..cut]).unwrap();
            assert_eq!(QueueCheckpoint::load(&path, 0).next_index, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A mid-queue checkpoint from an enforced run, to mutate: ledger,
    /// breaker board, stats and a warm policy cache.
    fn sample_checkpoint() -> &'static [u8] {
        static TEXT: OnceLock<String> = OnceLock::new();
        TEXT.get_or_init(|| {
            use crate::scenario::{build, Degradation, ScenarioSpec};
            let s = build(ScenarioSpec::small(7, Degradation::None).with_sts(Mode::Enforce));
            let dir =
                std::env::temp_dir().join(format!("mtasts-dlvq-{}-props", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("queue.ckpt");
            let out = DeliveryQueue::new(QueueConfig {
                threads: 1,
                wave_size: 8,
                enforcement: Some(EnforcementConfig::default()),
                checkpoint_path: Some(path.clone()),
                message_budget: Some(s.messages.len() / 2),
                ..QueueConfig::default()
            })
            .run(&FastTransport::new(&s.world), &s.messages);
            assert!(out.suspended, "the budget must suspend the queue");
            let text = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            text
        })
        .as_bytes()
    }

    /// `payload` behind a header that vouches for it, as a buggy writer
    /// or a hand edit would leave it.
    fn vouched(payload: &str) -> String {
        format!(
            "{QUEUE_CKPT_MAGIC} {} {:016x}\n{payload}",
            payload.len(),
            fnv64(payload.as_bytes())
        )
    }

    /// The sample's payload, after its header line.
    fn sample_payload() -> &'static [u8] {
        let text = sample_checkpoint();
        let newline = text.iter().position(|&b| b == b'\n').unwrap();
        &text[newline + 1..]
    }

    #[test]
    fn every_truncation_of_a_real_checkpoint_is_rejected() {
        let text = sample_checkpoint();
        let whole = QueueCheckpoint::parse(std::str::from_utf8(text).unwrap())
            .expect("a stored checkpoint parses");
        assert!(!whole.records.is_empty() && !whole.sts_cache.is_empty());
        for cut in 0..text.len() {
            let prefix = String::from_utf8_lossy(&text[..cut]);
            assert!(QueueCheckpoint::parse(&prefix).is_none(), "cut at {cut}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Byte soup parses or is rejected, bare or vouched for.
        #[test]
        fn checkpoint_parse_total_over_byte_soup(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            let soup = String::from_utf8_lossy(&bytes);
            let _ = QueueCheckpoint::parse(&soup);
            let _ = QueueCheckpoint::parse(&vouched(&soup));
        }

        /// A vouched-for truncated payload is rejected, not half-loaded.
        #[test]
        fn vouched_truncations_are_rejected(cut in 0usize..1 << 20) {
            let payload = sample_payload();
            let cut = cut % payload.len();
            let prefix = String::from_utf8_lossy(&payload[..cut]);
            prop_assert!(QueueCheckpoint::parse(&vouched(&prefix)).is_none());
        }

        /// One flipped bit: the header catches it or the bytes still decode
        /// to the original; vouched for, it parses or is rejected.
        #[test]
        fn checkpoint_bit_flips_never_panic(
            pos in 0usize..1 << 20,
            bit in 0u8..8,
        ) {
            let mut text = sample_checkpoint().to_vec();
            let pos = pos % text.len();
            text[pos] ^= 1 << bit;
            let text = String::from_utf8_lossy(&text);
            if let Some(ckpt) = QueueCheckpoint::parse(&text) {
                let again = serde_json::to_string(&ckpt).unwrap();
                prop_assert_eq!(again.as_bytes(), sample_payload());
            }
            let payload = &text[text.find('\n').map_or(0, |n| n + 1)..];
            let _ = QueueCheckpoint::parse(&vouched(payload));
        }
    }
}
