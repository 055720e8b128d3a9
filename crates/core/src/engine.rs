//! The sender decision procedure: RFC 8461 §4/§5 end to end.
//!
//! Resolution — which policy, if any, governs a recipient domain right
//! now — is one pure two-step decision every sender in the workspace
//! shares: [`classify`] weighs the `_mta-sts` TXT lookup against the
//! cached entry and either settles the answer or asks for an HTTPS
//! fetch under the record's `id`; [`conclude`] turns that fetch into the
//! policy to store or the §3.3 stale-or-unavailable answer. The TOFU
//! [`PolicyCache`] composes the two steps with its store; the `sender`
//! crate's delivery queue resolves through a `PolicyCache`, and its
//! resolution service runs the steps over a sharded cache with
//! admission and in-batch single-flight.
//!
//! [`SenderEngine`] adds the MX/TLS half for one delivery: given the
//! observations a sending MTA makes — the record lookup, the policy
//! fetch, the chosen MX host, and the STARTTLS certificate verdict — it
//! produces the protocol outcome and the final action (deliver /
//! refuse). Repeated deliveries to the same domain exercise caching,
//! `id`-triggered refresh and the downgrade protections the paper
//! discusses (§2.4, §2.6).
//!
//! Everything here is transport-free: the `sender` and `simnet` crates
//! plug in real lookups; unit tests script the observations.

use crate::cache::{CachedPolicy, PolicyCache};
use crate::matching::mx_matches_policy;
use crate::policy::{parse_policy, Mode, Policy};
use crate::record::{evaluate_record_set, RecordError};
use netbase::{DomainName, SimInstant};
use pkix::CertError;
use serde::{Deserialize, Serialize};

/// Why MTA-STS validation failed for a delivery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StsFailure {
    /// The selected MX matches no `mx` pattern.
    MxNotListed,
    /// The MX does not offer STARTTLS at all.
    StartTlsUnavailable,
    /// The MX certificate failed PKIX validation.
    CertInvalid(CertError),
    /// DANE governed the attempt (TLSA records present, RFC 7672
    /// precedence) and the presented chain failed DANE validation.
    DaneInvalid {
        /// The DANE validation error, rendered.
        reason: String,
    },
}

impl StsFailure {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            StsFailure::MxNotListed => "mx-not-listed",
            StsFailure::StartTlsUnavailable => "starttls-unavailable",
            StsFailure::CertInvalid(_) => "cert-invalid",
            StsFailure::DaneInvalid { .. } => "dane-invalid",
        }
    }
}

/// The protocol-level outcome of evaluating one delivery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StsOutcome {
    /// The domain does not use MTA-STS (no record, nothing cached).
    NotApplicable,
    /// A record exists but is invalid — MTA-STS counts as not deployed
    /// (RFC 8461 §3.1), so no protection applies.
    RecordInvalid(RecordError),
    /// The record was fine but the policy could not be fetched or parsed
    /// and nothing usable was cached; the sender proceeds unprotected
    /// (this is the "TLS fallback" degradation the paper highlights).
    PolicyUnavailable {
        /// Human-readable fetch/parse failure.
        reason: String,
    },
    /// Validation ran and passed.
    Validated {
        /// The policy's mode.
        mode: Mode,
        /// Whether the policy came from cache (vs a fresh fetch).
        from_cache: bool,
    },
    /// Validation ran and failed; the action depends on the mode.
    Failed {
        /// The policy's mode.
        mode: Mode,
        /// What failed.
        failure: StsFailure,
        /// Whether the policy came from cache.
        from_cache: bool,
    },
}

/// The final action for the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SenderAction {
    /// Deliver; MTA-STS validated successfully.
    Deliver,
    /// Deliver without MTA-STS protection (no/invalid policy, or a failure
    /// under `testing`/`none`).
    DeliverUnvalidated,
    /// Do not deliver (failure under `enforce`). The message is queued or
    /// bounced — the delivery failures §4.4/Figure 7-8 quantify.
    Refuse,
}

/// Derives the action from the protocol outcome (RFC 8461 §5.3).
pub fn action_for(outcome: &StsOutcome) -> SenderAction {
    match outcome {
        StsOutcome::NotApplicable
        | StsOutcome::RecordInvalid(_)
        | StsOutcome::PolicyUnavailable { .. } => SenderAction::DeliverUnvalidated,
        StsOutcome::Validated { mode, .. } => match mode {
            // A `none` policy means "do not validate" — the successful
            // validation is vacuous, the message is simply delivered.
            Mode::None => SenderAction::DeliverUnvalidated,
            _ => SenderAction::Deliver,
        },
        StsOutcome::Failed { mode, .. } => match mode {
            Mode::Enforce => SenderAction::Refuse,
            Mode::Testing | Mode::None => SenderAction::DeliverUnvalidated,
        },
    }
}

/// Which policy governs a recipient domain, as resolution concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolvedPolicy {
    /// No `_mta-sts` record and nothing cached: MTA-STS does not apply.
    NotApplicable,
    /// A record exists but is invalid — counts as not deployed
    /// (RFC 8461 §3.1); no protection applies.
    RecordInvalid(RecordError),
    /// The record was fine but no policy could be fetched and nothing
    /// fresh was cached; delivery proceeds unprotected.
    Unavailable {
        /// Human-readable fetch/parse failure.
        reason: String,
    },
    /// A policy governs the domain.
    Active {
        /// The governing policy.
        policy: Policy,
        /// Whether it came from cache rather than a fresh fetch.
        from_cache: bool,
        /// True when a retained cached policy took over because the
        /// record lookup or the refresh failed — §3.3 stale fallback.
        stale: bool,
    },
}

impl ResolvedPolicy {
    /// The governing policy, when one applies.
    pub fn policy(&self) -> Option<&Policy> {
        match self {
            ResolvedPolicy::Active { policy, .. } => Some(policy),
            _ => None,
        }
    }

    /// A policy that was just fetched (and stored by the caller).
    pub fn fetched(policy: Policy) -> ResolvedPolicy {
        ResolvedPolicy::Active {
            policy,
            from_cache: false,
            stale: false,
        }
    }

    fn cached(entry: &CachedPolicy, stale: bool) -> ResolvedPolicy {
        ResolvedPolicy::Active {
            policy: entry.policy.clone(),
            from_cache: true,
            stale,
        }
    }
}

/// How a resolution was satisfied — the ledger-facing classification
/// behind the resolution service's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Disposition {
    /// Fresh cache entry, record id unchanged.
    Hit,
    /// Fresh cache entry despite a failed record lookup (TOFU
    /// downgrade protection).
    HitDespiteDns,
    /// A completed HTTPS fetch (in a resolver batch: the domain's first
    /// request).
    Fetched,
    /// A later request for the same domain in a resolver batch, answered
    /// with the first request's result instead of a fetch of its own.
    Coalesced,
    /// Refresh failed; a retained cached policy governs (RFC 8461 §3.3).
    StaleFallback,
    /// No record (or NXDOMAIN): MTA-STS does not apply.
    Undeployed,
    /// A record exists but is invalid (counts as not deployed, §3.1).
    RecordInvalid,
    /// Fetch failed and nothing cached could take over.
    Unavailable,
    /// Admission control refused the fetch leg (its admission would
    /// wait past the bound).
    Shed,
}

impl Disposition {
    /// Served by a fresh cache entry (`Hit` or `HitDespiteDns`).
    pub fn is_hit(self) -> bool {
        matches!(self, Disposition::Hit | Disposition::HitDespiteDns)
    }
}

/// The first decision step's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Classified {
    /// The lookup and the cache settle the answer; nothing is fetched.
    Resolved(ResolvedPolicy, Disposition),
    /// Fetch the policy over HTTPS and store it under this record `id`.
    Fetch(String),
}

impl Classified {
    /// Served by a fresh cache entry.
    pub fn is_hit(&self) -> bool {
        matches!(self, Classified::Resolved(_, d) if d.is_hit())
    }
}

/// Step one: what the `_mta-sts` TXT lookup and the cached entry settle
/// on their own. `record_txts` is `None` when the lookup failed
/// (SERVFAIL-class) and empty for NXDOMAIN / no record.
///
/// - A fresh entry governs (§3.3) unless a readable record carries a
///   new `id` (§3.1), which asks for a fetch.
/// - A failed lookup keeps any retained entry governing, even past
///   `max_age`: a sender cannot tell blocked DNS from an outage
///   (§10.2). An answered "no record" releases an expired entry (§8.3);
///   disposal of the entry itself belongs to
///   [`PolicyCache::evict_expired`], never to the decision.
/// - An invalid record counts as not deployed (§3.1).
/// - A valid record with nothing fresh cached under its `id` asks for a
///   fetch.
pub fn classify(
    record_txts: Option<&[String]>,
    cached: Option<&CachedPolicy>,
    now: SimInstant,
) -> Classified {
    let fresh = cached.filter(|entry| entry.is_fresh(now));
    let (resolved, disposition) = match (record_txts.map(evaluate_record_set), fresh) {
        (Some(Ok(record)), Some(entry)) if entry.record_id == record.id => {
            (ResolvedPolicy::cached(entry, false), Disposition::Hit)
        }
        (Some(Ok(record)), _) => return Classified::Fetch(record.id),
        (_, Some(entry)) => (
            ResolvedPolicy::cached(entry, false),
            Disposition::HitDespiteDns,
        ),
        (None, None) => match cached {
            Some(entry) => (
                ResolvedPolicy::cached(entry, true),
                Disposition::StaleFallback,
            ),
            None => (ResolvedPolicy::NotApplicable, Disposition::Undeployed),
        },
        (Some(Err(RecordError::NoRecord)), None) => {
            (ResolvedPolicy::NotApplicable, Disposition::Undeployed)
        }
        (Some(Err(e)), None) => (ResolvedPolicy::RecordInvalid(e), Disposition::RecordInvalid),
    };
    Classified::Resolved(resolved, disposition)
}

/// Step two, after the fetch [`classify`] asked for: the parsed policy,
/// which the caller stores, or the §3.3 answer for a failed or garbage
/// refresh — a still-fresh cached policy keeps governing (an attacker
/// who bumps the `id` and blocks or defaces the refresh gains nothing),
/// an expired one never resurrects.
pub fn conclude(
    fetched: Result<String, String>,
    cached: Option<&CachedPolicy>,
    now: SimInstant,
) -> Result<Policy, (ResolvedPolicy, Disposition)> {
    let reason = match fetched {
        Ok(body) => match parse_policy(&body) {
            Ok(policy) => return Ok(policy),
            Err(e) => format!("policy parse failure: {e}"),
        },
        Err(e) => format!("policy fetch failure: {e}"),
    };
    Err(match cached.filter(|entry| entry.is_fresh(now)) {
        Some(entry) => (
            ResolvedPolicy::cached(entry, true),
            Disposition::StaleFallback,
        ),
        None => (
            ResolvedPolicy::Unavailable { reason },
            Disposition::Unavailable,
        ),
    })
}

/// Maps a resolution plus the delivery's validation failure (if any) to
/// the protocol outcome a report carries.
pub fn report_outcome(
    resolution: Option<&ResolvedPolicy>,
    soft_failure: Option<&StsFailure>,
) -> StsOutcome {
    match resolution {
        None | Some(ResolvedPolicy::NotApplicable) => StsOutcome::NotApplicable,
        Some(ResolvedPolicy::RecordInvalid(e)) => StsOutcome::RecordInvalid(e.clone()),
        Some(ResolvedPolicy::Unavailable { reason }) => StsOutcome::PolicyUnavailable {
            reason: reason.clone(),
        },
        Some(ResolvedPolicy::Active {
            policy, from_cache, ..
        }) => match soft_failure {
            Some(failure) => StsOutcome::Failed {
                mode: policy.mode,
                failure: failure.clone(),
                from_cache: *from_cache,
            },
            None => StsOutcome::Validated {
                mode: policy.mode,
                from_cache: *from_cache,
            },
        },
    }
}

/// The observations the engine needs for one delivery attempt.
pub struct DeliveryObservation<'a, FetchFn, CertFn>
where
    FetchFn: FnOnce() -> Result<String, String>,
    CertFn: FnOnce() -> Result<(), StsFailure>,
{
    /// The recipient domain.
    pub domain: &'a DomainName,
    /// The TXT strings at `_mta-sts.<domain>`, or `None` when the lookup
    /// failed or the name does not exist.
    pub record_txts: Option<&'a [String]>,
    /// Fetches the policy document over HTTPS (strict TLS per the RFC).
    pub fetch_policy: FetchFn,
    /// The MX host selected for this delivery.
    pub mx_host: &'a DomainName,
    /// Establishes STARTTLS to the MX and validates its certificate.
    pub check_mx_tls: CertFn,
    /// Current time.
    pub now: SimInstant,
}

/// A stateful MTA-STS-validating sender.
#[derive(Debug, Default)]
pub struct SenderEngine {
    cache: PolicyCache,
    fetch_fallbacks: u64,
}

impl SenderEngine {
    /// A fresh engine with an empty cache.
    pub fn new() -> SenderEngine {
        SenderEngine::default()
    }

    /// How many resolutions fell back to a retained cached policy
    /// (RFC 8461 §3.3 degraded mode).
    pub fn fetch_fallbacks(&self) -> u64 {
        self.fetch_fallbacks
    }

    /// Evaluates one delivery, updating the cache, and returns the
    /// protocol outcome plus the action to take.
    pub fn evaluate<FetchFn, CertFn>(
        &mut self,
        obs: DeliveryObservation<'_, FetchFn, CertFn>,
    ) -> (StsOutcome, SenderAction)
    where
        FetchFn: FnOnce() -> Result<String, String>,
        CertFn: FnOnce() -> Result<(), StsFailure>,
    {
        let (resolved, disposition) =
            self.cache
                .resolve(obs.domain, obs.record_txts, obs.fetch_policy, obs.now);
        if disposition == Disposition::StaleFallback {
            self.fetch_fallbacks += 1;
        }
        // `none` mode validates nothing; MX pattern matching precedes the
        // TLS session (§2.4).
        let failure = match resolved.policy() {
            Some(policy) if policy.mode != Mode::None => {
                if mx_matches_policy(obs.mx_host, policy) {
                    (obs.check_mx_tls)().err()
                } else {
                    Some(StsFailure::MxNotListed)
                }
            }
            _ => None,
        };
        let outcome = report_outcome(Some(&resolved), failure.as_ref());
        let action = action_for(&outcome);
        (outcome, action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MxPattern;
    use netbase::{Duration, SimDate};
    use std::cell::Cell;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn t0() -> SimInstant {
        SimDate::ymd(2024, 6, 1).at_midnight()
    }

    fn record() -> Vec<String> {
        vec!["v=STSv1; id=20240601;".to_string()]
    }

    fn doc(mode: &str) -> String {
        format!("version: STSv1\r\nmode: {mode}\r\nmx: mx.example.com\r\nmax_age: 604800\r\n")
    }

    fn eval(
        engine: &mut SenderEngine,
        txts: Option<Vec<String>>,
        fetch: Result<String, String>,
        mx: &str,
        cert: Result<(), StsFailure>,
        now: SimInstant,
    ) -> (StsOutcome, SenderAction) {
        let domain = n("example.com");
        let mx = n(mx);
        engine.evaluate(DeliveryObservation {
            domain: &domain,
            record_txts: txts.as_deref(),
            fetch_policy: move || fetch,
            mx_host: &mx,
            check_mx_tls: move || cert,
            now,
        })
    }

    // -----------------------------------------------------------------
    // RFC 8461 conformance table for the two-step decision
    // -----------------------------------------------------------------

    /// The `_mta-sts` TXT lookup a row starts from.
    #[derive(Debug, Clone, Copy)]
    enum Txt {
        /// The lookup failed (SERVFAIL-class).
        Failed,
        /// Empty answer / NXDOMAIN.
        NoRecord,
        /// A record without an `id`.
        Invalid,
        /// A valid record with the cached `id`.
        SameId,
        /// A valid record with a new `id`.
        NewId,
    }

    /// The cached entry before the row runs.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Entry {
        Empty,
        Fresh,
        /// Past `max_age` but retained (never evicted by the decision).
        Expired,
    }

    /// What the HTTPS fetch returns, if the row reaches it.
    #[derive(Debug, Clone, Copy)]
    enum Body {
        Policy,
        Garbage,
        Down,
    }

    /// The governing answer's variant.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Want {
        NotApplicable,
        RecordInvalid,
        Unavailable,
        Active,
    }

    /// One conformance row: lookup, cache, fetch → variant,
    /// `from_cache`, `stale`, disposition, whether the fetch ran, and
    /// the RFC 8461 section the row follows.
    type Row = (
        Txt,
        Entry,
        Body,
        Want,
        bool,
        bool,
        Disposition,
        bool,
        &'static str,
    );

    const FETCHED_DOC: &str =
        "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 604800\r\n";

    fn entry_policy(max_age: u64) -> Policy {
        Policy::new(
            Mode::Enforce,
            max_age,
            vec![MxPattern::parse("mx.example.com").unwrap()],
        )
    }

    /// Every combination of record lookup × cache state × fetch result,
    /// driven through [`PolicyCache::resolve`] (classify, fetch,
    /// conclude, store), one [`Row`] each.
    #[test]
    fn rfc8461_resolution_conformance_table() {
        use Body::*;
        use Disposition as D;
        use Entry::*;
        use Txt::*;
        use Want::*;
        #[rustfmt::skip]
        let rows: [Row; 45] = [
            (Failed, Empty, Policy, NotApplicable, false, false, D::Undeployed, false, "§3.3"),
            (Failed, Empty, Garbage, NotApplicable, false, false, D::Undeployed, false, "§3.3"),
            (Failed, Empty, Down, NotApplicable, false, false, D::Undeployed, false, "§3.3"),
            (Failed, Fresh, Policy, Active, true, false, D::HitDespiteDns, false, "§3.3"),
            (Failed, Fresh, Garbage, Active, true, false, D::HitDespiteDns, false, "§3.3"),
            (Failed, Fresh, Down, Active, true, false, D::HitDespiteDns, false, "§3.3"),
            (Failed, Expired, Policy, Active, true, true, D::StaleFallback, false, "§10.2"),
            (Failed, Expired, Garbage, Active, true, true, D::StaleFallback, false, "§10.2"),
            (Failed, Expired, Down, Active, true, true, D::StaleFallback, false, "§10.2"),
            (NoRecord, Empty, Policy, NotApplicable, false, false, D::Undeployed, false, "§3.1"),
            (NoRecord, Empty, Garbage, NotApplicable, false, false, D::Undeployed, false, "§3.1"),
            (NoRecord, Empty, Down, NotApplicable, false, false, D::Undeployed, false, "§3.1"),
            (NoRecord, Fresh, Policy, Active, true, false, D::HitDespiteDns, false, "§8.3"),
            (NoRecord, Fresh, Garbage, Active, true, false, D::HitDespiteDns, false, "§8.3"),
            (NoRecord, Fresh, Down, Active, true, false, D::HitDespiteDns, false, "§8.3"),
            (NoRecord, Expired, Policy, NotApplicable, false, false, D::Undeployed, false, "§8.3"),
            (NoRecord, Expired, Garbage, NotApplicable, false, false, D::Undeployed, false, "§8.3"),
            (NoRecord, Expired, Down, NotApplicable, false, false, D::Undeployed, false, "§8.3"),
            (Invalid, Empty, Policy, RecordInvalid, false, false, D::RecordInvalid, false, "§3.1"),
            (Invalid, Empty, Garbage, RecordInvalid, false, false, D::RecordInvalid, false, "§3.1"),
            (Invalid, Empty, Down, RecordInvalid, false, false, D::RecordInvalid, false, "§3.1"),
            (Invalid, Fresh, Policy, Active, true, false, D::HitDespiteDns, false, "§3.3"),
            (Invalid, Fresh, Garbage, Active, true, false, D::HitDespiteDns, false, "§3.3"),
            (Invalid, Fresh, Down, Active, true, false, D::HitDespiteDns, false, "§3.3"),
            (Invalid, Expired, Policy, RecordInvalid, false, false, D::RecordInvalid, false, "§3.1"),
            (Invalid, Expired, Garbage, RecordInvalid, false, false, D::RecordInvalid, false, "§3.1"),
            (Invalid, Expired, Down, RecordInvalid, false, false, D::RecordInvalid, false, "§3.1"),
            (SameId, Empty, Policy, Active, false, false, D::Fetched, true, "§3.3"),
            (SameId, Empty, Garbage, Unavailable, false, false, D::Unavailable, true, "§3.3"),
            (SameId, Empty, Down, Unavailable, false, false, D::Unavailable, true, "§3.3"),
            (SameId, Fresh, Policy, Active, true, false, D::Hit, false, "§3.1"),
            (SameId, Fresh, Garbage, Active, true, false, D::Hit, false, "§3.1"),
            (SameId, Fresh, Down, Active, true, false, D::Hit, false, "§3.1"),
            (SameId, Expired, Policy, Active, false, false, D::Fetched, true, "§5.1"),
            (SameId, Expired, Garbage, Unavailable, false, false, D::Unavailable, true, "§3.3"),
            (SameId, Expired, Down, Unavailable, false, false, D::Unavailable, true, "§3.3"),
            (NewId, Empty, Policy, Active, false, false, D::Fetched, true, "§3.3"),
            (NewId, Empty, Garbage, Unavailable, false, false, D::Unavailable, true, "§3.3"),
            (NewId, Empty, Down, Unavailable, false, false, D::Unavailable, true, "§3.3"),
            (NewId, Fresh, Policy, Active, false, false, D::Fetched, true, "§3.1"),
            (NewId, Fresh, Garbage, Active, true, true, D::StaleFallback, true, "§3.3"),
            (NewId, Fresh, Down, Active, true, true, D::StaleFallback, true, "§3.3"),
            (NewId, Expired, Policy, Active, false, false, D::Fetched, true, "§5.1"),
            (NewId, Expired, Garbage, Unavailable, false, false, D::Unavailable, true, "§3.3"),
            (NewId, Expired, Down, Unavailable, false, false, D::Unavailable, true, "§3.3"),
        ];

        let domain = n("example.com");
        let now = t0();
        for (i, (txt, entry, body, want, from_cache, stale, disposition, fetches, section)) in
            rows.into_iter().enumerate()
        {
            let row = format!("row {i} ({txt:?}, {entry:?}, {body:?}; RFC 8461 {section})");
            let seeded = match entry {
                Empty => None,
                Fresh => Some(CachedPolicy {
                    policy: entry_policy(86_400),
                    record_id: "a1".to_string(),
                    fetched_at: now - Duration::hours(1),
                }),
                Expired => Some(CachedPolicy {
                    policy: entry_policy(3_600),
                    record_id: "a1".to_string(),
                    fetched_at: now - Duration::days(2),
                }),
            };
            let mut cache = PolicyCache::from_snapshot(
                seeded.iter().map(|e| (domain.clone(), e.clone())).collect(),
            );
            let txts: Option<Vec<String>> = match txt {
                Failed => None,
                NoRecord => Some(Vec::new()),
                Invalid => Some(vec!["v=STSv1".to_string()]),
                SameId => Some(vec!["v=STSv1; id=a1;".to_string()]),
                NewId => Some(vec!["v=STSv1; id=a2;".to_string()]),
            };
            let ran = Cell::new(false);
            let (resolved, got) = cache.resolve(
                &domain,
                txts.as_deref(),
                || {
                    ran.set(true);
                    match body {
                        Policy => Ok(FETCHED_DOC.to_string()),
                        Garbage => Ok("<html>defaced</html>".to_string()),
                        Down => Err("tcp reset".to_string()),
                    }
                },
                now,
            );

            assert_eq!(got, disposition, "{row}");
            assert_eq!(ran.get(), fetches, "{row}: fetch ran");
            let (variant, flags) = match &resolved {
                ResolvedPolicy::NotApplicable => (NotApplicable, (false, false)),
                ResolvedPolicy::RecordInvalid(_) => (RecordInvalid, (false, false)),
                ResolvedPolicy::Unavailable { reason } => {
                    let prefix = match body {
                        Garbage => "policy parse failure: ",
                        _ => "policy fetch failure: ",
                    };
                    assert!(reason.starts_with(prefix), "{row}: {reason}");
                    (Unavailable, (false, false))
                }
                ResolvedPolicy::Active {
                    policy,
                    from_cache,
                    stale,
                } => {
                    // A cached answer is the seeded policy; a fresh one
                    // is the fetched document (both enforce-mode).
                    let expected = if *from_cache {
                        seeded.as_ref().map(|e| e.policy.clone())
                    } else {
                        Some(parse_policy(FETCHED_DOC).unwrap())
                    };
                    assert_eq!(Some(policy.clone()), expected, "{row}");
                    (Active, (*from_cache, *stale))
                }
            };
            assert_eq!(variant, want, "{row}");
            assert_eq!(flags, (from_cache, stale), "{row}: (from_cache, stale)");

            // Only a completed fetch writes (and counts); every other
            // row leaves the entry — expired or not — exactly as seeded.
            let after = cache.peek(&domain).cloned();
            if got == D::Fetched {
                let stored = after.expect("fetch stores");
                let id = if matches!(txt, SameId) { "a1" } else { "a2" };
                assert_eq!(stored.record_id, id, "{row}");
                assert_eq!(stored.fetched_at, now, "{row}");
            } else {
                assert_eq!(after, seeded, "{row}: entry changed");
            }
            let hits = u64::from(got.is_hit());
            let stores = u64::from(got == D::Fetched);
            assert_eq!(cache.stats(), (hits, stores), "{row}: (hits, fetches)");
        }
    }

    #[test]
    fn report_outcome_types_soft_failures() {
        let active = ResolvedPolicy::Active {
            policy: Policy::new(
                Mode::Testing,
                604_800,
                vec![MxPattern::parse("mx.example.com").unwrap()],
            ),
            from_cache: true,
            stale: false,
        };
        let out = report_outcome(Some(&active), Some(&StsFailure::StartTlsUnavailable));
        assert!(matches!(
            out,
            StsOutcome::Failed {
                mode: Mode::Testing,
                failure: StsFailure::StartTlsUnavailable,
                from_cache: true,
            }
        ));
        assert!(matches!(
            report_outcome(Some(&active), None),
            StsOutcome::Validated { .. }
        ));
        assert!(matches!(
            report_outcome(None, None),
            StsOutcome::NotApplicable
        ));
    }

    // -----------------------------------------------------------------
    // The engine end to end: resolution plus the MX/TLS check
    // -----------------------------------------------------------------

    #[test]
    fn no_record_means_not_applicable() {
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(vec![]),
            Err("unused".into()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        assert_eq!(outcome, StsOutcome::NotApplicable);
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn invalid_record_means_not_deployed() {
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=2024-06-01;".to_string()]),
            Err("unused".into()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        assert!(matches!(
            outcome,
            StsOutcome::RecordInvalid(RecordError::InvalidId(_))
        ));
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn happy_path_enforce_validates_and_delivers() {
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        assert_eq!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::Enforce,
                from_cache: false
            }
        );
        assert_eq!(action, SenderAction::Deliver);
    }

    #[test]
    fn second_delivery_hits_cache() {
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        let (outcome, _) = eval(
            &mut e,
            Some(record()),
            Err("network should not be touched".into()),
            "mx.example.com",
            Ok(()),
            t0() + Duration::hours(1),
        );
        assert_eq!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::Enforce,
                from_cache: true
            }
        );
    }

    #[test]
    fn id_change_refetches() {
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        // New id, new policy says testing.
        let (outcome, _) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=20240701;".to_string()]),
            Ok(doc("testing")),
            "mx.example.com",
            Ok(()),
            t0() + Duration::hours(2),
        );
        assert_eq!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::Testing,
                from_cache: false
            }
        );
    }

    #[test]
    fn dns_blocking_cannot_downgrade_cached_domain() {
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        // Attacker blocks the record lookup; MX fails validation.
        let (outcome, action) = eval(
            &mut e,
            None,
            Err("blocked".into()),
            "evil.attacker.net",
            Ok(()),
            t0() + Duration::days(1),
        );
        assert!(matches!(
            outcome,
            StsOutcome::Failed {
                mode: Mode::Enforce,
                failure: StsFailure::MxNotListed,
                from_cache: true
            }
        ));
        assert_eq!(action, SenderAction::Refuse);
    }

    #[test]
    fn dns_blocking_at_expiry_keeps_the_retained_policy() {
        // A failed record lookup past `max_age` cannot be told apart
        // from an attacker blocking DNS, so the retained entry keeps
        // governing (the queue's and the resolver's semantics).
        let mut e = SenderEngine::new();
        let short = "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 3600\r\n";
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(short.to_string()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        let (outcome, action) = eval(
            &mut e,
            None,
            Err("blocked".into()),
            "evil.attacker.net",
            Ok(()),
            t0() + Duration::days(1),
        );
        assert_eq!(
            outcome,
            StsOutcome::Failed {
                mode: Mode::Enforce,
                failure: StsFailure::MxNotListed,
                from_cache: true
            }
        );
        assert_eq!(action, SenderAction::Refuse);
        assert_eq!(e.fetch_fallbacks(), 1);
    }

    #[test]
    fn enforce_refuses_on_bad_cert() {
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Err(StsFailure::CertInvalid(CertError::Expired)),
            t0(),
        );
        assert!(matches!(outcome, StsOutcome::Failed { .. }));
        assert_eq!(action, SenderAction::Refuse);
    }

    #[test]
    fn testing_delivers_despite_failure() {
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc("testing")),
            "mx.example.com",
            Err(StsFailure::CertInvalid(CertError::SelfSigned)),
            t0(),
        );
        assert!(matches!(
            outcome,
            StsOutcome::Failed {
                mode: Mode::Testing,
                ..
            }
        ));
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn none_mode_skips_validation() {
        let mut e = SenderEngine::new();
        let doc_none = "version: STSv1\r\nmode: none\r\nmax_age: 86400\r\n".to_string();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc_none),
            "anything.anywhere.net",
            Err(StsFailure::StartTlsUnavailable), // would fail, but never runs
            t0(),
        );
        assert_eq!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::None,
                from_cache: false
            }
        );
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn fetch_failure_means_unprotected_delivery() {
        // The degradation the paper warns about: validation failure at
        // fetch time falls back to opportunistic behaviour.
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Err("tls handshake failed: certificate expired".into()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        assert!(matches!(outcome, StsOutcome::PolicyUnavailable { .. }));
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn empty_policy_file_behaves_like_none() {
        // DMARCReport's opt-out artefact (§5): empty file → parse failure →
        // unprotected delivery.
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(String::new()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        let StsOutcome::PolicyUnavailable { reason } = &outcome else {
            panic!("expected PolicyUnavailable, got {outcome:?}")
        };
        assert_eq!(reason, "policy parse failure: policy document is empty");
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }

    #[test]
    fn mx_not_listed_under_enforce_refuses() {
        // The lucidgrow incident shape (§4.4): policy lists patterns that
        // match none of the real MXes, mode enforce → delivery failure.
        let mut e = SenderEngine::new();
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.lucidgrow-customer.com",
            Ok(()),
            t0(),
        );
        assert!(matches!(
            outcome,
            StsOutcome::Failed {
                failure: StsFailure::MxNotListed,
                ..
            }
        ));
        assert_eq!(action, SenderAction::Refuse);
    }

    #[test]
    fn starttls_unavailable_under_enforce_refuses() {
        let mut e = SenderEngine::new();
        let (_, action) = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Err(StsFailure::StartTlsUnavailable),
            t0(),
        );
        assert_eq!(action, SenderAction::Refuse);
    }

    #[test]
    fn tofu_refresh_race_keeps_old_policy() {
        // Record id changed (attacker- or operator-initiated) while the
        // HTTPS fetch is faulted. RFC 8461 §3.3: the still-fresh cached
        // policy must keep applying — the engine must NOT drop to
        // unprotected delivery.
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        // Id changed + fetch faulted + attacker-chosen MX: still refused.
        let (outcome, action) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=attacker1;".to_string()]),
            Err("tls: certificate: unknown issuer".into()),
            "evil.attacker.net",
            Ok(()),
            t0() + Duration::hours(3),
        );
        assert_eq!(action, SenderAction::Refuse);
        assert!(matches!(
            outcome,
            StsOutcome::Failed {
                mode: Mode::Enforce,
                failure: StsFailure::MxNotListed,
                from_cache: true
            }
        ));
        assert_eq!(e.fetch_fallbacks(), 1);
        // The legitimate MX still validates and delivers under the old
        // policy during the outage.
        let (outcome, action) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=attacker1;".to_string()]),
            Err("still down".into()),
            "mx.example.com",
            Ok(()),
            t0() + Duration::hours(4),
        );
        assert_eq!(action, SenderAction::Deliver);
        assert!(matches!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::Enforce,
                from_cache: true
            }
        ));
        assert_eq!(e.fetch_fallbacks(), 2);
    }

    #[test]
    fn garbage_refresh_document_keeps_old_policy() {
        // Same race, but the fetch "succeeds" with attacker-fed garbage.
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        let (outcome, _) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=attacker2;".to_string()]),
            Ok("HTTP garbage, not a policy".into()),
            "mx.example.com",
            Ok(()),
            t0() + Duration::hours(1),
        );
        assert!(matches!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::Enforce,
                from_cache: true
            }
        ));
        assert_eq!(e.fetch_fallbacks(), 1);
    }

    #[test]
    fn expired_cache_does_not_fall_back() {
        // The fallback is bounded by max_age: once the cached policy
        // expires, a failed fetch degrades to unprotected delivery — the
        // attacker has outwaited the cache.
        let mut e = SenderEngine::new();
        let short = "version: STSv1\r\nmode: enforce\r\nmx: mx.example.com\r\nmax_age: 3600\r\n";
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(short.to_string()),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        let (outcome, action) = eval(
            &mut e,
            Some(record()),
            Err("blocked".into()),
            "mx.example.com",
            Ok(()),
            t0() + Duration::hours(2),
        );
        assert!(matches!(outcome, StsOutcome::PolicyUnavailable { .. }));
        assert_eq!(action, SenderAction::DeliverUnvalidated);
        assert_eq!(e.fetch_fallbacks(), 0);
    }

    #[test]
    fn proper_removal_sequence_releases_domain() {
        // §2.6: publish none-mode policy with small max_age, new id, wait,
        // then remove everything.
        let mut e = SenderEngine::new();
        let _ = eval(
            &mut e,
            Some(record()),
            Ok(doc("enforce")),
            "mx.example.com",
            Ok(()),
            t0(),
        );
        // Step 1-2: new id, none policy, max_age one day.
        let none_doc = "version: STSv1\r\nmode: none\r\nmax_age: 86400\r\n".to_string();
        let t1 = t0() + Duration::days(1);
        let (outcome, _) = eval(
            &mut e,
            Some(vec!["v=STSv1; id=removal1;".to_string()]),
            Ok(none_doc),
            "mx.example.com",
            Ok(()),
            t1,
        );
        assert!(matches!(
            outcome,
            StsOutcome::Validated {
                mode: Mode::None,
                ..
            }
        ));
        // Step 3-4: after the old+new max_age elapsed, everything removed.
        let t2 = t1 + Duration::days(2);
        let (outcome, action) = eval(
            &mut e,
            Some(vec![]),
            Err("gone".into()),
            "mx.example.com",
            Ok(()),
            t2,
        );
        assert_eq!(outcome, StsOutcome::NotApplicable);
        assert_eq!(action, SenderAction::DeliverUnvalidated);
    }
}
