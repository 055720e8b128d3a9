//! Acceptance tests for the downgrade-attack simulator: the deterministic
//! claims `exp_downgrade` prints must hold exactly.

use dns::{RecordData, RecordType};
use mtasts::{Mode, ResultType, StsFailure, StsOutcome};
use mtasts_bench::downgrade::{
    build_world, run_downgrade, sweep, t0, tlsrpt_failure_coverage, DowngradeConfig, SweepSender,
    ATTACK_LEAD, STEP,
};
use netbase::Duration;
use simnet::{AttackKind, AttackSchedule};

#[test]
fn warm_cache_with_covering_max_age_loses_nothing() {
    // max_age (1 week) >= attack window (1 day) + priming lead: the
    // enforce-mode sender delivers zero messages to the attacker, turning
    // the whole window into visible refusals instead.
    let out = run_downgrade(&DowngradeConfig::new(42, 604_800, Duration::days(1)));
    assert_eq!(out.stats.intercepted, 0);
    assert_eq!(out.stats.refused, out.in_window_attempts);
    assert!(out.stats.refused > 0);
    // Outside the window the sender goes right back to validated delivery.
    assert!(out.stats.delivered_validated > 0);
    assert_eq!(out.stats.delivered_unvalidated, 0);
}

#[test]
fn cacheless_sender_loses_the_whole_window() {
    // The always-refetch ablation sees no record during the stripping
    // window, so MTA-STS silently stops applying and every in-window
    // message goes to the attacker's relay.
    let out = run_downgrade(&DowngradeConfig {
        use_cache: false,
        ..DowngradeConfig::new(42, 604_800, Duration::days(1))
    });
    assert_eq!(out.stats.intercepted, out.in_window_attempts);
    assert!(out.stats.intercepted > 0);
    assert_eq!(out.stats.refused, 0);
}

#[test]
fn short_max_age_reopens_the_attack() {
    // Once the cached policy expires mid-window the domain is released
    // and the tail of the window is lost — the paper's argument for long
    // max_age values.
    let out = run_downgrade(&DowngradeConfig::new(42, 7_200, Duration::days(1)));
    assert!(out.stats.intercepted > 0);
    assert!(
        out.stats.intercepted < out.in_window_attempts,
        "the fresh-cache head of the window must still be protected"
    );
}

#[test]
fn testing_mode_soft_fails_match_enforce_refusals() {
    // Same scenario, testing mode: every delivery enforce would refuse is
    // instead delivered unprotected and surfaces in TLSRPT with the same
    // per-type counts.
    let enforce = run_downgrade(&DowngradeConfig::new(42, 604_800, Duration::days(1)));
    let testing = run_downgrade(&DowngradeConfig {
        mode: Mode::Testing,
        ..DowngradeConfig::new(42, 604_800, Duration::days(1))
    });
    assert_eq!(testing.stats.soft_fails, enforce.stats.refused);
    assert_eq!(testing.stats.refused, 0);
    // Soft-failing hands the attacker exactly the messages enforce held.
    assert_eq!(testing.stats.intercepted, enforce.stats.refused);
    // TLSRPT failure counts agree between the two modes.
    assert_eq!(testing.tlsrpt_failures, enforce.tlsrpt_failures);
    assert_eq!(
        testing
            .tlsrpt_failures
            .get(&ResultType::ValidationFailure)
            .copied(),
        Some(enforce.stats.refused)
    );
}

#[test]
fn sweep_reproduces_the_max_age_boundary_deterministically() {
    let windows = [Duration::hours(6), Duration::days(1)];
    let max_ages = [3_600, 86_400, 604_800];
    let cells = sweep(42, &windows, &max_ages);
    assert_eq!(cells.len(), windows.len() * max_ages.len());
    for cell in &cells {
        if cell.cache_covers_window {
            assert_eq!(
                cell.warm.stats.intercepted, 0,
                "covering max_age must shut the attacker out (window={}h max_age={}s)",
                cell.window_hours, cell.max_age
            );
        } else {
            assert!(
                cell.warm.stats.intercepted > 0,
                "non-covering max_age must leak (window={}h max_age={}s)",
                cell.window_hours,
                cell.max_age
            );
        }
        // The ablation always loses the entire window.
        assert_eq!(
            cell.cacheless.stats.intercepted,
            cell.cacheless.in_window_attempts
        );
    }
    // Fixed seed, repeated run: byte-for-byte identical outcomes.
    let again = sweep(42, &windows, &max_ages);
    for (a, b) in cells.iter().zip(&again) {
        assert_eq!(a.warm, b.warm);
        assert_eq!(a.cacheless, b.cacheless);
    }
}

#[test]
fn exp_downgrade_grid_is_pinned_cell_by_cell() {
    // Every cell `exp_downgrade` prints at seed 42:
    // (window h, max_age s, warm lost, warm refused, cache-less lost, in-window).
    const GRID: [(i64, u64, u64, u64, u64, u64); 20] = [
        (1, 3_600, 3, 0, 3, 3),
        (1, 21_600, 0, 3, 3, 3),
        (1, 86_400, 0, 3, 3, 3),
        (1, 604_800, 0, 3, 3, 3),
        (1, 1_209_600, 0, 3, 3, 3),
        (6, 3_600, 18, 0, 18, 18),
        (6, 21_600, 3, 15, 18, 18),
        (6, 86_400, 0, 18, 18, 18),
        (6, 604_800, 0, 18, 18, 18),
        (6, 1_209_600, 0, 18, 18, 18),
        (24, 3_600, 72, 0, 72, 72),
        (24, 21_600, 57, 15, 72, 72),
        (24, 86_400, 3, 69, 72, 72),
        (24, 604_800, 0, 72, 72, 72),
        (24, 1_209_600, 0, 72, 72, 72),
        (72, 3_600, 216, 0, 216, 216),
        (72, 21_600, 201, 15, 216, 216),
        (72, 86_400, 147, 69, 216, 216),
        (72, 604_800, 0, 216, 216, 216),
        (72, 1_209_600, 0, 216, 216, 216),
    ];
    let windows = [
        Duration::hours(1),
        Duration::hours(6),
        Duration::days(1),
        Duration::days(3),
    ];
    let max_ages = [3_600, 21_600, 86_400, 604_800, 1_209_600];
    let cells = sweep(42, &windows, &max_ages);
    let got: Vec<_> = cells
        .iter()
        .map(|c| {
            (
                c.window_hours,
                c.max_age,
                c.warm.stats.intercepted,
                c.warm.stats.refused,
                c.cacheless.stats.intercepted,
                c.warm.in_window_attempts,
            )
        })
        .collect();
    assert_eq!(got, GRID);
}

#[test]
fn degraded_modes_cover_the_three_tlsrpt_failure_types() {
    let coverage = tlsrpt_failure_coverage(42);
    let want = [
        (ResultType::ValidationFailure, 18),
        (ResultType::StsPolicyFetchError, 1),
        (ResultType::StsWebpkiInvalid, 1),
    ];
    assert_eq!(coverage.into_iter().collect::<Vec<_>>(), want);
}

#[test]
fn in_window_deliveries_are_redirected_to_the_attacker_relay() {
    // The first in-window delivery to one victim, as each sender sees it,
    // after the same priming delivery at t0.
    let in_window = t0() + ATTACK_LEAD + STEP;
    let first_in_window = |mode: Mode, use_cache: bool| {
        let (world, victims) = build_world(&DowngradeConfig {
            mode,
            ..DowngradeConfig::new(42, 604_800, Duration::days(1))
        });
        let mut sender = SweepSender::new(use_cache);
        let primed = sender.deliver(&world, &victims[0], t0());
        assert_eq!(
            primed,
            StsOutcome::Validated {
                mode,
                from_cache: false
            }
        );
        let outcome = sender.deliver(&world, &victims[0], in_window);
        (outcome, sender)
    };

    // Warm enforce: the cached policy outlives the stripped record and
    // the redirected MX fails pattern matching, so the message is held.
    let (outcome, sender) = first_in_window(Mode::Enforce, true);
    assert_eq!(
        outcome,
        StsOutcome::Failed {
            mode: Mode::Enforce,
            failure: StsFailure::MxNotListed,
            from_cache: true,
        }
    );
    let stats = sender.stats();
    assert_eq!((stats.refused, stats.intercepted), (1, 0));

    // Cache-less: no record, so MTA-STS silently does not apply and the
    // message leaves unprotected for the attacker's relay.
    let (outcome, sender) = first_in_window(Mode::Enforce, false);
    assert_eq!(outcome, StsOutcome::NotApplicable);
    let stats = sender.stats();
    assert_eq!((stats.delivered_unvalidated, stats.intercepted), (1, 1));

    // Warm testing: the failure is observed but the message still goes
    // out, and TLSRPT names the attacker's relay as the receiving MX.
    let (outcome, sender) = first_in_window(Mode::Testing, true);
    assert_eq!(
        outcome,
        StsOutcome::Failed {
            mode: Mode::Testing,
            failure: StsFailure::MxNotListed,
            from_cache: true,
        }
    );
    let stats = sender.stats();
    assert_eq!((stats.soft_fails, stats.intercepted), (1, 1));
    let report = sender.tls_report(t0().date());
    assert_eq!(report.policies.len(), 1);
    let policy = &report.policies[0];
    assert_eq!(policy.total_failure, 1);
    assert_eq!(policy.failure_details.len(), 1);
    let detail = &policy.failure_details[0];
    assert_eq!(detail.result_type, ResultType::ValidationFailure);
    assert_eq!(detail.receiving_mx_hostname, "mx.attacker.example");
}

#[test]
fn https_mitm_on_refresh_falls_back_warm_and_leaks_cacheless() {
    let cfg = DowngradeConfig::new(42, 604_800, Duration::hours(6));
    let start = t0() + ATTACK_LEAD;
    let mitm = |victim| {
        AttackSchedule::new().with_window(
            AttackKind::HttpsMitm,
            Some(victim),
            start,
            start + Duration::hours(6),
        )
    };

    // Warm: the operator rotates the record id (forcing a refresh) while
    // an attacker MITMs the policy host. RFC 8461 §3.3: the still-fresh
    // cached policy keeps governing and the legitimate MX validates.
    let (mut world, victims) = build_world(&cfg);
    let victim = &victims[0];
    let mut sender = SweepSender::new(true);
    sender.deliver(&world, victim, t0());
    let txt_name = victim.prefixed("_mta-sts").unwrap();
    world.with_zone(victim, |z| {
        z.remove(&txt_name, RecordType::Txt);
        z.add_rr(
            &txt_name,
            300,
            RecordData::Txt(vec!["v=STSv1; id=20240701;".into()]),
        );
    });
    world.set_attacker(mitm(victim.clone()));
    let outcome = sender.deliver(&world, victim, start + STEP);
    assert_eq!(
        outcome,
        StsOutcome::Validated {
            mode: Mode::Enforce,
            from_cache: true
        }
    );
    let stats = sender.stats();
    assert_eq!(stats.stale_fallbacks, 1);
    assert_eq!(stats.delivered_validated, 2);
    assert_eq!(stats.intercepted, 0);

    // Cache-less: nothing to fall back to, so the policy is unavailable,
    // the message leaves unprotected, and TLSRPT says why.
    let (mut world, victims) = build_world(&cfg);
    world.set_attacker(mitm(victims[0].clone()));
    let mut sender = SweepSender::new(false);
    let outcome = sender.deliver(&world, &victims[0], start + STEP);
    assert!(
        matches!(outcome, StsOutcome::PolicyUnavailable { .. }),
        "{outcome:?}"
    );
    let stats = sender.stats();
    assert_eq!((stats.delivered_unvalidated, stats.intercepted), (1, 1));
    assert_eq!(
        sender
            .tlsrpt_failures(t0().date())
            .into_iter()
            .collect::<Vec<_>>(),
        [(ResultType::StsWebpkiInvalid, 1)]
    );
}
