//! Enforcement demo: drain the *same* degraded scenario — a flapping
//! primary MX plus an on-path attacker stripping STARTTLS for ten
//! minutes — under the three MTA-STS deployments (`none`, `testing`,
//! `enforce`) and print the interception and bounce ledgers side by
//! side.
//!
//! What the table shows:
//!
//! - with **no policy** (and with `mode: none`), the strip window turns
//!   every in-window delivery into intercepted plaintext — mail flows,
//!   the attacker reads it;
//! - **testing** keeps mail flowing too, but every downgraded session is
//!   counted and lands in the RFC 8460 TLSRPT report;
//! - **enforce** refuses the downgraded sessions outright: attempts
//!   inside the window requeue and recover after it closes, so nothing
//!   is intercepted and nothing bounces — at the cost of latency.
//!
//! ```sh
//! cargo run --release --example enforced_pipeline
//! ```

use mtasts::Mode;
use netbase::Duration;
use sender::scenario::{build, Degradation, Scenario, ScenarioSpec, StsDeployment};
use sender::{
    BounceReason, DeliveryQueue, EnforcementConfig, FastTransport, MessageStatus, QueueConfig,
    QueueOutcome,
};
use simnet::{AttackKind, AttackSchedule};

/// STARTTLS strip window relative to the epoch, seconds.
const STRIP: (i64, i64) = (60, 660);

fn scenario(sts: StsDeployment) -> Scenario {
    let spec = ScenarioSpec {
        messages_per_domain: 12,
        sts,
        ..ScenarioSpec::small(
            42,
            Degradation::FlappingMx {
                down_secs: 600,
                up_secs: 600,
                cycles: 3,
            },
        )
    };
    let mut s = build(spec);
    let start = s.spec.epoch + Duration::seconds(STRIP.0);
    let end = s.spec.epoch + Duration::seconds(STRIP.1);
    s.world.set_attacker(AttackSchedule::new().with_window(
        AttackKind::StartTlsStrip,
        None,
        start,
        end,
    ));
    s
}

fn drain(s: &Scenario) -> QueueOutcome {
    let cfg = QueueConfig {
        threads: 1,
        wave_size: 8,
        enforcement: Some(EnforcementConfig::default()),
        ..QueueConfig::default()
    };
    DeliveryQueue::new(cfg).run(&FastTransport::new(&s.world), &s.messages)
}

fn main() {
    let deployments = [
        ("no-policy", StsDeployment::None),
        (
            "testing",
            StsDeployment::Published {
                mode: Mode::Testing,
                max_age: 604_800,
            },
        ),
        (
            "enforce",
            StsDeployment::Published {
                mode: Mode::Enforce,
                max_age: 604_800,
            },
        ),
    ];

    println!(
        "same world three ways: mxa.* flaps 600s down/up x3, attacker strips\n\
         STARTTLS in [{}s, {}s); only the published policy differs\n",
        STRIP.0, STRIP.1
    );

    let mut outcomes = Vec::new();
    for (label, sts) in deployments {
        let s = scenario(sts);
        let out = drain(&s);
        outcomes.push((label, s, out));
    }

    println!(
        "{:<10} {:>9} {:>10} {:>12} {:>10} {:>13} {:>9}",
        "policy", "delivered", "validated", "intercepted", "soft-fail", "policy-bounce", "requeues"
    );
    for (label, s, out) in &outcomes {
        let st = &out.stats;
        println!(
            "{:<10} {:>6}/{:<2} {:>10} {:>12} {:>10} {:>13} {:>9}",
            label,
            st.delivered,
            s.messages.len(),
            st.delivered_validated,
            st.intercepted,
            st.soft_fails,
            st.bounced_policy,
            st.requeues,
        );
    }

    // The interception ledger: which messages the attacker actually read.
    println!("\nintercepted messages (attacker read the payload):");
    for (label, _, out) in &outcomes {
        let hits: Vec<&str> = out
            .records
            .iter()
            .filter(|r| r.intercepted)
            .map(|r| r.id.as_str())
            .collect();
        match hits.len() {
            0 => println!("  {label:<10} none"),
            n => println!("  {label:<10} {n} messages: {}", hits.join(", ")),
        }
    }

    // The bounce ledger: what enforcement refused for good.
    println!("\nbounced messages:");
    for (label, _, out) in &outcomes {
        let mut any = false;
        for rec in &out.records {
            if let MessageStatus::Bounced { reason } = &rec.status {
                any = true;
                let why = match reason {
                    BounceReason::PolicyRefused { failure } => {
                        format!("policy refused ({})", failure.label())
                    }
                    BounceReason::Permanent { code, text } => format!("{code}: {text}"),
                    BounceReason::RetriesExhausted { last_error } => {
                        format!("retries exhausted: {last_error}")
                    }
                    BounceReason::Unroutable => "unroutable".to_string(),
                };
                println!(
                    "  {label:<10} {} after {} attempts — {why}",
                    rec.id, rec.attempts
                );
            }
        }
        if !any {
            println!("  {label:<10} none");
        }
    }

    // Testing mode's paper trail: the downgrades feed the TLSRPT report.
    let (_, _, testing) = &outcomes[1];
    let report = testing.tlsrpt.build(
        "enforced-pipeline-demo",
        "tlsrpt@sender.test",
        netbase::SimDate::ymd(2024, 6, 1),
    );
    let failures: u64 = report.policies.iter().map(|p| p.total_failure).sum();
    let successes: u64 = report.policies.iter().map(|p| p.total_successful).sum();
    println!(
        "\ntesting-mode TLSRPT: {} successful sessions, {} failed across {} policy blocks",
        successes,
        failures,
        report.policies.len()
    );
}
