//! Determinism, fail-over, and chaos suite for the outbound delivery
//! pipeline (DESIGN.md "Delivery pipeline").
//!
//! The contracts under test:
//!
//! - **fail-over totality**: with one of N MX hosts hard-down, every
//!   message still delivers, and retry amplification stays within the
//!   policy's attempt cap;
//! - **thread invariance**: the ledger digest is byte-identical for
//!   every worker-thread count;
//! - **kill/resume**: a budget-suspended run resumed from its
//!   checkpoint produces the same ledger as an uninterrupted one, and
//!   another queue's checkpoint on the same path is not resumed;
//! - **circuit breaking**: a dead host is skipped after the threshold
//!   (throughput degrades, the queue never stalls), and a recovered
//!   host is re-admitted through a half-open probe;
//! - **typed taxonomy**: 5xx bounces immediately, 4xx requeues with
//!   backoff until the cap;
//! - **interception grading**: labelling a delivery as intercepted
//!   counts no attack traffic;
//! - **MX shuffle** (property): the seeded equal-preference shuffle is
//!   a permutation, stable per `(seed, domain)`, and independent of
//!   thread count.

use mtasts_sender::scenario::{build, Degradation, ScenarioSpec};
use mtasts_sender::{
    ledger_digest, mx_ladder, BounceReason, BreakerConfig, DeliveryQueue, FastTransport,
    MessageStatus, QueueConfig, QueueOutcome,
};
use netbase::{map_sharded, DetRng, DomainName};
use proptest::prelude::*;

fn queue_cfg(threads: usize) -> QueueConfig {
    QueueConfig {
        threads,
        wave_size: 8,
        ..QueueConfig::default()
    }
}

fn run_scenario(degradation: Degradation, threads: usize) -> QueueOutcome {
    let s = build(ScenarioSpec::small(7, degradation));
    let queue = DeliveryQueue::new(queue_cfg(threads));
    queue.run(&FastTransport::new(&s.world), &s.messages)
}

#[test]
fn one_of_n_down_delivers_everything_with_bounded_amplification() {
    let out = run_scenario(Degradation::OneMxDown, 1);
    let cap = queue_cfg(1).retry.max_attempts;
    assert!(!out.suspended);
    for rec in &out.records {
        assert!(
            rec.delivered(),
            "message {} failed to fail over: {:?}",
            rec.id,
            rec.status
        );
        assert!(
            rec.attempts <= cap,
            "retry amplification beyond the cap: {rec:?}"
        );
        // The dead host is mxa (first primary); nothing may claim
        // delivery through it.
        if let MessageStatus::Delivered { mx_host, .. } = &rec.status {
            assert!(!mx_host.starts_with("mxa."), "delivered via a dead MX");
        }
    }
    assert_eq!(out.stats.delivered, out.records.len() as u64);
    // Fail-over actually happened (some messages hit the dead rung
    // before the breaker opened).
    assert!(out.stats.failovers > 0, "{:?}", out.stats);
}

#[test]
fn ledger_digest_is_thread_count_invariant() {
    for degradation in [
        Degradation::None,
        Degradation::OneMxDown,
        Degradation::FlappingMx {
            down_secs: 120,
            up_secs: 240,
            cycles: 4,
        },
        Degradation::TierOutage,
        Degradation::Greylist { rate: 0.4 },
    ] {
        let digests: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&threads| ledger_digest(&run_scenario(degradation, threads).records))
            .collect();
        assert_eq!(
            digests[0], digests[1],
            "{degradation:?} diverges at 2 threads"
        );
        assert_eq!(
            digests[0], digests[2],
            "{degradation:?} diverges at 8 threads"
        );
    }
}

#[test]
fn killed_queue_resumes_to_the_same_ledger() {
    let s = build(ScenarioSpec::small(
        11,
        Degradation::FlappingMx {
            down_secs: 120,
            up_secs: 240,
            cycles: 4,
        },
    ));
    let transport = FastTransport::new(&s.world);

    // Reference: uninterrupted, no checkpoint file.
    let reference = DeliveryQueue::new(queue_cfg(2)).run(&transport, &s.messages);
    assert!(!reference.suspended);

    let dir = std::env::temp_dir().join(format!("mtasts-dlvq-{}-resume", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("queue.ckpt");
    let _ = std::fs::remove_file(&path);

    // Kill a third of the way in (the budget suspends at the next wave
    // boundary), then resume to completion.
    let killed = DeliveryQueue::new(QueueConfig {
        checkpoint_path: Some(path.clone()),
        message_budget: Some(s.messages.len() / 3),
        ..queue_cfg(2)
    })
    .run(&transport, &s.messages);
    assert!(killed.suspended);
    assert!(killed.records.len() < s.messages.len());

    let resumed = DeliveryQueue::new(QueueConfig {
        checkpoint_path: Some(path.clone()),
        ..queue_cfg(2)
    })
    .run(&transport, &s.messages);
    assert!(!resumed.suspended);

    assert_eq!(
        ledger_digest(&reference.records),
        ledger_digest(&resumed.records),
        "kill/resume must be byte-identical to an uninterrupted run"
    );
    assert_eq!(reference.stats, resumed.stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn another_queues_checkpoint_restarts_fresh() {
    // A queue killed halfway leaves its checkpoint behind. Another queue
    // (another seed, scenario and message list) on the same path must
    // not resume it: its ledger equals its own uninterrupted run's.
    let dir = std::env::temp_dir().join(format!("mtasts-dlvq-{}-foreign", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("queue.ckpt");
    let _ = std::fs::remove_file(&path);

    let first = build(ScenarioSpec::small(
        11,
        Degradation::FlappingMx {
            down_secs: 120,
            up_secs: 240,
            cycles: 4,
        },
    ));
    let killed = DeliveryQueue::new(QueueConfig {
        seed: 1,
        checkpoint_path: Some(path.clone()),
        message_budget: Some(16),
        ..queue_cfg(2)
    })
    .run(&FastTransport::new(&first.world), &first.messages);
    assert!(killed.suspended);
    assert_eq!((killed.records.len(), first.messages.len()), (16, 32));

    let second = build(ScenarioSpec::small(7, Degradation::OneMxDown));
    let transport = FastTransport::new(&second.world);
    let cfg = QueueConfig {
        seed: 2,
        ..queue_cfg(2)
    };
    let reference = DeliveryQueue::new(cfg.clone()).run(&transport, &second.messages);
    let resumed = DeliveryQueue::new(QueueConfig {
        checkpoint_path: Some(path.clone()),
        ..cfg
    })
    .run(&transport, &second.messages);
    assert!(!resumed.suspended);
    assert_eq!(
        ledger_digest(&reference.records),
        ledger_digest(&resumed.records),
        "another queue's checkpoint must not be resumed"
    );
    assert_eq!(reference.stats, resumed.stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn breaker_opens_on_the_dead_host_and_queue_keeps_draining() {
    // Enough load that the dead primary trips its breakers well before
    // the queue drains; later messages must skip the dead rung outright.
    let s = build(ScenarioSpec {
        seed: 3,
        domains: 2,
        messages_per_domain: 40,
        degradation: Degradation::OneMxDown,
        sts: mtasts_sender::scenario::StsDeployment::None,
        epoch: netbase::SimInstant::from_unix_secs(1_717_200_000),
    });
    let queue = DeliveryQueue::new(QueueConfig {
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_secs: 100_000,
        },
        ..queue_cfg(1)
    });
    let out = queue.run(&FastTransport::new(&s.world), &s.messages);
    assert_eq!(out.stats.delivered, out.records.len() as u64);
    assert_eq!(out.board.open_count(), 2, "one open breaker per domain");
    assert!(
        out.stats.breaker_skips > 0,
        "later messages must skip the dead rung: {:?}",
        out.stats
    );
    // Once open, the dead host stops eating connection attempts: hard
    // failures are bounded by (threshold × hosts) plus the pre-open
    // window, far below one-per-message.
    assert!(
        out.stats.failovers < out.records.len() as u64,
        "breaker failed to contain the dead host: {:?}",
        out.stats
    );
}

#[test]
fn recovered_host_is_readmitted_through_a_half_open_probe() {
    // One short down phase at the epoch; the host is healthy afterwards.
    // With a short cooldown the breaker must re-admit it and later
    // messages deliver via the (preference-shuffled) ladder normally.
    let s = build(ScenarioSpec {
        seed: 5,
        domains: 1,
        messages_per_domain: 60,
        degradation: Degradation::FlappingMx {
            down_secs: 60,
            up_secs: 100_000,
            cycles: 1,
        },
        sts: mtasts_sender::scenario::StsDeployment::None,
        epoch: netbase::SimInstant::from_unix_secs(1_717_200_000),
    });
    let queue = DeliveryQueue::new(QueueConfig {
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown_secs: 30,
        },
        ..queue_cfg(1)
    });
    let out = queue.run(&FastTransport::new(&s.world), &s.messages);
    assert_eq!(out.stats.delivered, out.records.len() as u64);
    // The breaker closed again after the probe landed.
    assert_eq!(out.board.open_count(), 0, "{:?}", out.board);
    // And the recovered primary actually carries mail again.
    let via_mxa = out
        .records
        .iter()
        .filter(|r| matches!(&r.status, MessageStatus::Delivered { mx_host, .. } if mx_host.starts_with("mxa.")))
        .count();
    assert!(via_mxa > 0, "recovered host never re-admitted");
}

#[test]
fn permanent_rejection_bounces_without_retry() {
    let mut s = build(ScenarioSpec::small(13, Degradation::None));
    // Every MX of d0.test refuses RCPTs for d0.test: provider opt-out.
    let victim: DomainName = "d0.test".parse().unwrap();
    for ip in s.world.mx_ips() {
        s.world.with_mx(ip, |e| {
            if e.hostname.to_string().ends_with(".d0.test") {
                e.reject_rcpt_domains.push(victim.clone());
            }
        });
    }
    let out = DeliveryQueue::new(queue_cfg(1)).run(&FastTransport::new(&s.world), &s.messages);
    for rec in &out.records {
        if rec.rcpt_to.ends_with("@d0.test") {
            let MessageStatus::Bounced { reason } = &rec.status else {
                panic!("550 must bounce: {rec:?}");
            };
            assert!(
                matches!(reason, BounceReason::Permanent { code: 550, .. }),
                "wrong bounce class: {reason:?}"
            );
            assert_eq!(rec.attempts, 1, "5xx must not retry: {rec:?}");
        } else {
            assert!(rec.delivered());
        }
    }
    assert_eq!(out.stats.bounced_permanent, 8);
}

#[test]
fn hard_greylisting_requeues_to_the_cap_then_bounces_typed() {
    let out = run_scenario(Degradation::Greylist { rate: 1.0 }, 1);
    let cap = queue_cfg(1).retry.max_attempts;
    for rec in &out.records {
        let MessageStatus::Bounced { reason } = &rec.status else {
            panic!("a 100% greylist world cannot deliver: {rec:?}");
        };
        let BounceReason::RetriesExhausted { last_error } = reason else {
            panic!("4xx must exhaust, not bounce permanent: {reason:?}");
        };
        assert!(last_error.contains("450"), "{last_error}");
        assert_eq!(rec.attempts, cap, "requeue must run to the cap: {rec:?}");
    }
    assert_eq!(out.stats.bounced_exhausted, out.records.len() as u64);
    assert_eq!(
        out.stats.requeues,
        out.records.len() as u64 * u64::from(cap - 1)
    );
    // Greylisting is protocol-level: the hosts are alive, no breaker
    // may open.
    assert_eq!(out.board.open_count(), 0);
}

#[test]
fn interception_grading_counts_no_attack_traffic() {
    // A policy-blind queue under a STARTTLS strip from the first
    // instant: each stripped session is one attack-window hit and one
    // intercepted delivery. Grading which deliveries the attacker
    // touched is not an attack operation and must add no hit.
    obsv::set_enabled(true);
    obsv::reset();
    let strip = Degradation::StartTlsStrip {
        delay_secs: 0,
        duration_secs: 600,
    };
    let out = run_scenario(strip, 1);
    let hits = obsv::snapshot().counter("attack_window_hits_total");
    assert!(out.stats.intercepted > 0, "{:?}", out.stats);
    assert_eq!(hits, out.stats.intercepted, "{:?}", out.stats);
}

// ---- satellite: MX weight-shuffle properties -------------------------

fn arb_records() -> impl Strategy<Value = Vec<(u16, DomainName)>> {
    proptest::collection::vec((0u16..4, 0usize..12), 1..16).prop_map(|raw| {
        raw.into_iter()
            .map(|(tier, host)| {
                let name: DomainName = format!("mx{host}.pool.example").parse().unwrap();
                (tier * 10, name)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn shuffle_is_a_permutation(records in arb_records(), seed in 0u64..1_000) {
        let domain: DomainName = "rcpt.example".parse().unwrap();
        let ladder = mx_ladder(&DetRng::new(seed), &domain, &records);
        // Same multiset in, same multiset out (duplicates preserved).
        let mut want: Vec<(u16, String)> =
            records.iter().map(|(p, h)| (*p, h.to_string())).collect();
        let mut got: Vec<(u16, String)> = ladder
            .iter()
            .map(|c| (c.preference, c.host.to_string()))
            .collect();
        want.sort();
        got.sort();
        prop_assert_eq!(want, got);
        // Preference tiers never interleave.
        for pair in ladder.windows(2) {
            prop_assert!(pair[0].preference <= pair[1].preference);
        }
    }

    #[test]
    fn shuffle_is_stable_per_seed_and_domain(records in arb_records(), seed in 0u64..1_000) {
        let domain: DomainName = "rcpt.example".parse().unwrap();
        let a = mx_ladder(&DetRng::new(seed), &domain, &records);
        let b = mx_ladder(&DetRng::new(seed), &domain, &records);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn shuffle_ignores_input_order(records in arb_records(), seed in 0u64..1_000) {
        let domain: DomainName = "rcpt.example".parse().unwrap();
        let a = mx_ladder(&DetRng::new(seed), &domain, &records);
        let mut reversed = records.clone();
        reversed.reverse();
        let b = mx_ladder(&DetRng::new(seed), &domain, &reversed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn shuffle_is_thread_count_independent(seed in 0u64..200) {
        // The same ladder computed inside 1-, 2- and 8-way sharded maps:
        // byte-identical outputs, the pipeline's core obligation.
        let rng = DetRng::new(seed);
        let records: Vec<(u16, DomainName)> = (0..6)
            .map(|i| (10 * (i as u16 / 3), format!("mx{i}.pool.example").parse().unwrap()))
            .collect();
        let domains: Vec<DomainName> = (0..16)
            .map(|i| format!("d{i}.example").parse().unwrap())
            .collect();
        let runs: Vec<Vec<String>> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                map_sharded(threads, &domains, |_, d| {
                    mx_ladder(&rng, d, &records)
                        .iter()
                        .map(|c| c.host.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                })
            })
            .collect();
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert_eq!(&runs[0], &runs[2]);
    }
}
