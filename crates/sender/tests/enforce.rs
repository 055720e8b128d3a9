//! Enforcement suite for the delivery queue: MTA-STS applied *inside*
//! the retry/fail-over machinery (DESIGN.md "Policy enforcement in the
//! queue").
//!
//! Contracts under test:
//!
//! - **containment**: enforce-mode domains with a warm covered cache
//!   lose nothing to STARTTLS stripping or forged-MX redirection — the
//!   attacked attempts are refused and recover via post-window retries;
//! - **typed policy bounces**: a ladder fully filtered by the policy's
//!   `mx` patterns exhausts into [`BounceReason::PolicyRefused`], never
//!   the generic `Unroutable`/`RetriesExhausted` classes;
//! - **testing-mode accounting**: mail keeps flowing through the attack
//!   while every downgraded session lands in the RFC 8460 report;
//! - **DANE precedence**: TLSA-covered rungs survive the `mx`-pattern
//!   filter and validate under DANE instead of PKIX (RFC 7672);
//! - **no cache, no downgrade**: a stripped `_mta-sts` TXT record does
//!   not disable a warm cached policy (RFC 8461 §2.6 hazard);
//! - **determinism**: ledger digests byte-identical at 1/8 worker
//!   threads and across kill/resume — including a resume landing inside
//!   an attack window — with the policy cache riding the checkpoint;
//! - **checkpoint robustness**: a corrupted policy-cache section
//!   degrades to a clean refetch, never a panic.

use dns::RecordData;
use mtasts::Mode;
use mtasts_sender::scenario::{build, Degradation, Scenario, ScenarioSpec};
use mtasts_sender::{
    ledger_digest, BounceReason, DeliveryQueue, EnforcementConfig, FastTransport, MessageStatus,
    QueueConfig, QueueOutcome, StsApplication,
};
use netbase::DomainName;
use obsv::health::fnv64;

/// The strip/redirect attack window every scenario here uses: opens at
/// +60 s — after every domain's first-wave resolution (admissions land
/// 7 s apart, so the first message of each of the four domains is
/// processed well before +60 s) has warmed the cache — and closes at
/// +660 s, inside the retry ladder's +60/+300/+1260 s span so refused
/// messages recover on their final attempt.
const WINDOW: (i64, i64) = (60, 600);

fn enforced_cfg(threads: usize) -> QueueConfig {
    QueueConfig {
        threads,
        wave_size: 8,
        enforcement: Some(EnforcementConfig::default()),
        ..QueueConfig::default()
    }
}

fn drain(s: &Scenario, cfg: QueueConfig) -> QueueOutcome {
    DeliveryQueue::new(cfg).run(&FastTransport::new(&s.world), &s.messages)
}

#[test]
fn enforce_contains_starttls_strip() {
    let s = build(
        ScenarioSpec::small(
            7,
            Degradation::StartTlsStrip {
                delay_secs: WINDOW.0,
                duration_secs: WINDOW.1,
            },
        )
        .with_sts(Mode::Enforce),
    );
    let out = drain(&s, enforced_cfg(1));
    let n = s.messages.len() as u64;
    assert_eq!(out.stats.delivered, n, "refusals must recover post-window");
    assert_eq!(
        out.stats.intercepted, 0,
        "enforce leaked plaintext to the attacker"
    );
    assert_eq!(
        out.stats.bounced_policy, 0,
        "window is shorter than the retry span"
    );
    assert_eq!(
        out.stats.soft_fails, 0,
        "enforce refuses, it does not soft-fail"
    );
    // Everything that landed was PKIX-validated under the policy.
    assert_eq!(out.stats.delivered_validated, n, "{:?}", out.stats);
    // The stripped attempts are visible as refusals that requeued.
    assert!(
        out.stats.requeues > 0,
        "no attempt ever hit the strip window"
    );
    assert!(out.records.iter().any(|r| r.attempts > 1));
    for rec in &out.records {
        assert!(rec.sts.covered(), "{}: enforcement did not apply", rec.id);
    }
}

#[test]
fn unprotected_modes_leak_during_strip_window() {
    // Mode `none` published: policy resolves but requires nothing.
    let strip = Degradation::StartTlsStrip {
        delay_secs: WINDOW.0,
        duration_secs: WINDOW.1,
    };
    let s = build(ScenarioSpec::small(7, strip).with_sts(Mode::None));
    let out = drain(&s, enforced_cfg(1));
    assert_eq!(out.stats.delivered, s.messages.len() as u64);
    assert!(
        out.stats.intercepted > 0,
        "mode=none must leave the strip window effective: {:?}",
        out.stats
    );

    // No STS deployment at all: same leak, resolution NotApplicable.
    let s = build(ScenarioSpec::small(7, strip));
    let out = drain(&s, enforced_cfg(1));
    assert_eq!(out.stats.delivered, s.messages.len() as u64);
    assert!(out.stats.intercepted > 0);
    assert!(out.records.iter().all(|r| r.sts == StsApplication::None));
}

#[test]
fn testing_mode_delivers_and_accounts_soft_failures() {
    let s = build(
        ScenarioSpec::small(
            7,
            Degradation::StartTlsStrip {
                delay_secs: WINDOW.0,
                duration_secs: WINDOW.1,
            },
        )
        .with_sts(Mode::Testing),
    );
    let out = drain(&s, enforced_cfg(1));
    let n = s.messages.len() as u64;
    assert_eq!(out.stats.delivered, n, "testing must never block mail");
    assert_eq!(out.stats.bounced_policy, 0);
    assert!(out.stats.soft_fails > 0, "{:?}", out.stats);
    assert!(
        out.stats.intercepted > 0,
        "the downgrade happened and is graded"
    );

    // The downgrades surface in the built RFC 8460 report.
    let report = out.tlsrpt.build(
        "enforce-suite",
        "tlsrpt@sender.test",
        netbase::SimDate::ymd(2024, 6, 1),
    );
    let failures: u64 = report.policies.iter().map(|p| p.total_failure).sum();
    let successes: u64 = report.policies.iter().map(|p| p.total_successful).sum();
    assert_eq!(
        out.stats.soft_fails, failures,
        "every soft-fail is reported"
    );
    assert_eq!(successes + failures, n, "every delivery is reported");
    assert!(report
        .policies
        .iter()
        .any(|p| p.failure_details.iter().any(|d| d.failed_session_count > 0)));
}

#[test]
fn fully_filtered_ladder_bounces_as_typed_policy_refusal() {
    // The redirect window covers the whole retry span, so the forged
    // pref-0 attacker relay is the *only* rung every attempt sees and
    // the `mx`-pattern filter empties the ladder each time.
    let s = build(
        ScenarioSpec::small(
            7,
            Degradation::MxRedirect {
                delay_secs: 0,
                duration_secs: 1_000_000,
            },
        )
        .with_sts(Mode::Enforce),
    );
    let out = drain(&s, enforced_cfg(1));
    let n = s.messages.len() as u64;
    assert_eq!(
        out.stats.delivered, 0,
        "nothing may reach the attacker relay"
    );
    assert_eq!(out.stats.intercepted, 0);
    assert_eq!(out.stats.bounced_policy, n, "{:?}", out.stats);
    assert_eq!(
        out.stats.bounced_unroutable, 0,
        "typed bounce, not Unroutable"
    );
    assert!(out.stats.policy_ladder_skips > 0);
    for rec in &out.records {
        match &rec.status {
            MessageStatus::Bounced {
                reason: BounceReason::PolicyRefused { failure },
            } => {
                assert_eq!(failure.label(), "mx-not-listed", "{failure:?}");
            }
            other => panic!("{}: expected PolicyRefused, got {other:?}", rec.id),
        }
        assert!(rec.policy_skips > 0, "{}: filtered rungs uncounted", rec.id);
    }
}

#[test]
fn enforce_recovers_from_bounded_mx_redirect() {
    let s = build(
        ScenarioSpec::small(
            7,
            Degradation::MxRedirect {
                delay_secs: WINDOW.0,
                duration_secs: WINDOW.1,
            },
        )
        .with_sts(Mode::Enforce),
    );
    let out = drain(&s, enforced_cfg(1));
    assert_eq!(out.stats.delivered, s.messages.len() as u64);
    assert_eq!(out.stats.intercepted, 0);
    assert_eq!(out.stats.bounced_policy, 0);
}

#[test]
fn stripped_txt_record_does_not_disable_a_warm_cache() {
    // DnsTxtStrip empties the `_mta-sts` answer. With the policy cached
    // from the pre-window waves, `UseCachedDespiteDns` keeps enforcing —
    // pair it with a STARTTLS strip and nothing may leak.
    let mut s = build(
        ScenarioSpec::small(
            7,
            Degradation::StartTlsStrip {
                delay_secs: WINDOW.0,
                duration_secs: WINDOW.1,
            },
        )
        .with_sts(Mode::Enforce),
    );
    use simnet::{AttackKind, AttackSchedule};
    let start = s.spec.epoch + netbase::Duration::seconds(WINDOW.0);
    let end = start + netbase::Duration::seconds(WINDOW.1);
    s.world.set_attacker(
        AttackSchedule::new()
            .with_window(AttackKind::StartTlsStrip, None, start, end)
            .with_window(AttackKind::DnsTxtStrip, None, start, end),
    );
    let out = drain(&s, enforced_cfg(1));
    assert_eq!(out.stats.delivered, s.messages.len() as u64);
    assert_eq!(
        out.stats.intercepted, 0,
        "TXT strip downgraded a cached policy"
    );
    assert_eq!(out.stats.bounced_policy, 0);
}

/// Rewires the built enforce scenario so every domain's policy lists
/// only `mxb`/`mxc`, while `mxa` gets a DNSSEC-signed TLSA record
/// matching its chain: unlisted but DANE-covered.
fn dane_covered_scenario() -> Scenario {
    let mut s = build(ScenarioSpec::small(7, Degradation::None).with_sts(Mode::Enforce));
    for (i, topo) in s.topologies.iter().enumerate() {
        let policy_host: DomainName = format!("mta-sts.d{i}.test").parse().unwrap();
        let web_ip = s
            .world
            .resolve(&policy_host, dns::RecordType::A, s.spec.epoch)
            .unwrap()
            .a_addrs()[0];
        s.world.with_web(web_ip, |ep| {
            ep.install_policy(
                policy_host.clone(),
                &format!(
                    "version: STSv1\r\nmode: enforce\r\nmx: mxb.d{i}.test\r\nmx: mxc.d{i}.test\r\nmax_age: 604800\r\n"
                ),
            );
        });
        let mxa: DomainName = format!("mxa.d{i}.test").parse().unwrap();
        let mxa_ip = s
            .world
            .resolve(&mxa, dns::RecordType::A, s.spec.epoch)
            .unwrap()
            .a_addrs()[0];
        let chain = s.world.mx_endpoint(mxa_ip).unwrap().chain.clone();
        s.world.set_dnssec(&topo.domain, true);
        let tlsa = danelite::tlsa_for_cert(&chain[0]);
        s.world.with_zone(&topo.domain, |z| {
            z.add_rr(&danelite::tlsa_name(&mxa), 300, RecordData::Tlsa(tlsa));
        });
    }
    s
}

#[test]
fn dane_covered_rung_survives_the_policy_filter() {
    let s = dane_covered_scenario();
    let out = drain(&s, enforced_cfg(1));
    let n = s.messages.len() as u64;
    assert_eq!(out.stats.delivered, n);
    assert_eq!(out.stats.bounced_policy, 0);
    // Some domain's seeded ladder leads with mxa: those deliveries are
    // DANE-validated despite mxa being absent from the policy.
    assert!(out.stats.delivered_dane > 0, "{:?}", out.stats);
    for rec in &out.records {
        if let MessageStatus::Delivered {
            mx_host, validated, ..
        } = &rec.status
        {
            if mx_host.starts_with("mxa.") {
                assert_eq!(rec.sts, StsApplication::Dane, "{}: {:?}", rec.id, rec.sts);
                assert!(*validated, "{}: DANE delivery must validate", rec.id);
            }
        }
    }
}

#[test]
fn disabling_dane_precedence_filters_the_unlisted_rung() {
    let s = dane_covered_scenario();
    let out = drain(
        &s,
        QueueConfig {
            enforcement: Some(EnforcementConfig {
                dane_precedence: false,
            }),
            ..enforced_cfg(1)
        },
    );
    assert_eq!(out.stats.delivered, s.messages.len() as u64);
    assert_eq!(out.stats.delivered_dane, 0, "{:?}", out.stats);
    assert!(out.stats.policy_ladder_skips > 0, "mxa was never filtered");
    for rec in &out.records {
        if let MessageStatus::Delivered { mx_host, .. } = &rec.status {
            assert!(
                !mx_host.starts_with("mxa."),
                "{}: unlisted rung used",
                rec.id
            );
        }
    }
}

/// A larger strip scenario whose admission timeline spans the attack
/// window, for the kill/resume cases.
fn resume_scenario() -> Scenario {
    build(
        ScenarioSpec {
            messages_per_domain: 40,
            ..ScenarioSpec::small(
                11,
                Degradation::StartTlsStrip {
                    delay_secs: WINDOW.0,
                    duration_secs: WINDOW.1,
                },
            )
        }
        .with_sts(Mode::Enforce),
    )
}

#[test]
fn enforcement_digest_is_thread_count_invariant() {
    let s = resume_scenario();
    let digests: Vec<String> = [1usize, 8]
        .iter()
        .map(|&t| ledger_digest(&drain(&s, enforced_cfg(t)).records))
        .collect();
    assert_eq!(digests[0], digests[1], "enforcement diverges at 8 threads");
}

#[test]
fn kill_resume_mid_attack_window_is_byte_identical() {
    let s = resume_scenario();
    let transport = FastTransport::new(&s.world);
    let reference = DeliveryQueue::new(enforced_cfg(2)).run(&transport, &s.messages);
    assert!(!reference.suspended);
    assert!(reference.stats.intercepted == 0);

    let dir = std::env::temp_dir().join(format!("mtasts-dlvq-{}-enforce", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("queue.ckpt");
    let _ = std::fs::remove_file(&path);

    // Suspend half-way: the boundary wave's admissions sit at ~560 s,
    // inside the [300, 900) attack window, so the resumed run restarts
    // with the adversary live and the cache snapshot governing.
    let killed = DeliveryQueue::new(QueueConfig {
        checkpoint_path: Some(path.clone()),
        message_budget: Some(s.messages.len() / 2),
        ..enforced_cfg(2)
    })
    .run(&transport, &s.messages);
    assert!(killed.suspended);

    let resumed = DeliveryQueue::new(QueueConfig {
        checkpoint_path: Some(path.clone()),
        ..enforced_cfg(2)
    })
    .run(&transport, &s.messages);
    assert!(!resumed.suspended);

    assert_eq!(
        ledger_digest(&reference.records),
        ledger_digest(&resumed.records),
        "kill/resume with enforcement must be byte-identical"
    );
    assert_eq!(reference.stats, resumed.stats);
    // The rebuilt TLSRPT ledger is identical too.
    let day = netbase::SimDate::ymd(2024, 6, 1);
    assert_eq!(
        serde_json::to_string(&reference.tlsrpt.build("e", "c", day)).unwrap(),
        serde_json::to_string(&resumed.tlsrpt.build("e", "c", day)).unwrap(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_section_degrades_to_clean_refetch() {
    let s = resume_scenario();
    let transport = FastTransport::new(&s.world);
    let reference = DeliveryQueue::new(enforced_cfg(2)).run(&transport, &s.messages);

    let dir = std::env::temp_dir().join(format!("mtasts-dlvq-{}-corrupt", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("queue.ckpt");
    let _ = std::fs::remove_file(&path);
    let killed = DeliveryQueue::new(QueueConfig {
        checkpoint_path: Some(path.clone()),
        message_budget: Some(s.messages.len() / 2),
        ..enforced_cfg(2)
    })
    .run(&transport, &s.messages);
    assert!(killed.suspended);

    // Corrupt ONLY the sts_cache section, then re-seal the envelope so
    // the header check passes and the damage reaches the JSON layer: the
    // key now maps to a number (type mismatch) and the real snapshot is
    // shunted under an ignored key, keeping the document valid JSON.
    let text = std::fs::read_to_string(&path).unwrap();
    let (_, payload) = text.split_once('\n').unwrap();
    assert!(
        payload.contains("\"sts_cache\""),
        "checkpoint lost its cache section"
    );
    let forged = payload.replacen("\"sts_cache\":", "\"sts_cache\":1234,\"zz_junk\":", 1);
    std::fs::write(
        &path,
        format!(
            "MTASTS-DLVQ2 {} {:016x}\n{forged}",
            forged.len(),
            fnv64(forged.as_bytes())
        ),
    )
    .unwrap();

    // The resume must not panic: the unparseable checkpoint is dropped,
    // the queue restarts from scratch, refetches every policy, and the
    // full ledger matches an uninterrupted run exactly.
    let resumed = DeliveryQueue::new(QueueConfig {
        checkpoint_path: Some(path.clone()),
        ..enforced_cfg(2)
    })
    .run(&transport, &s.messages);
    assert!(!resumed.suspended);
    assert_eq!(resumed.records.len(), s.messages.len());
    assert_eq!(
        ledger_digest(&reference.records),
        ledger_digest(&resumed.records),
        "fresh restart must equal the uninterrupted run"
    );

    // A checkpoint *missing* the section no longer parses (pre-enforcement
    // files carry the older tag anyway): the queue restarts from scratch
    // and again matches the uninterrupted run. `path` now holds the fresh
    // *final* checkpoint, so rebuild a suspended prefix first by
    // re-running the killed leg.
    let _ = std::fs::remove_file(&path);
    let killed = DeliveryQueue::new(QueueConfig {
        checkpoint_path: Some(path.clone()),
        message_budget: Some(s.messages.len() / 2),
        ..enforced_cfg(2)
    })
    .run(&transport, &s.messages);
    assert!(killed.suspended);
    let text = std::fs::read_to_string(&path).unwrap();
    let (_, payload) = text.split_once('\n').unwrap();
    // Renaming the key drops the section: the real snapshot hides under
    // an unknown key (ignored by the deserializer) and `sts_cache` is
    // missing.
    let forged = payload.replacen("\"sts_cache\":", "\"zz_dropped\":", 1);
    assert_ne!(forged, payload, "checkpoint lost its cache section");
    std::fs::write(
        &path,
        format!(
            "MTASTS-DLVQ2 {} {:016x}\n{forged}",
            forged.len(),
            fnv64(forged.as_bytes())
        ),
    )
    .unwrap();
    let resumed = DeliveryQueue::new(QueueConfig {
        checkpoint_path: Some(path.clone()),
        ..enforced_cfg(2)
    })
    .run(&transport, &s.messages);
    assert!(!resumed.suspended, "missing section must not block resume");
    assert_eq!(
        ledger_digest(&reference.records),
        ledger_digest(&resumed.records),
        "fresh restart must equal the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
