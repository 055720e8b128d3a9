//! The telemetry determinism contract (DESIGN.md "Observability"):
//! enabling the `obsv` layer must never change any scan output. Spans,
//! counters and histograms read the wall clock but feed nothing back —
//! no RNG draw, no admission clock, no classification input. This suite
//! pins that with byte-identity digests: the full monthly study and the
//! weekly series are serialized with telemetry off, then again with
//! telemetry on (collectors populated, worker harvest/absorb active),
//! at worker counts 1 and 8, and every digest must be identical.
//!
//! CI additionally re-runs the PR-3/PR-4 digest suites with `RUN_TRACE`
//! set, which enables telemetry *and* the streaming JSONL exporter for
//! those processes.

use ecosystem::{Ecosystem, EcosystemConfig, TldId};
use mtasts_scanner::longitudinal::{MxHistory, Study, WeeklyPoint};
use mtasts_scanner::Snapshot;
use std::collections::HashMap;
use std::sync::Mutex;

const THREAD_COUNTS: [usize; 2] = [1, 8];

/// Telemetry enablement is process-global; serialize the tests that
/// toggle it so they cannot observe each other's state.
static GATE: Mutex<()> = Mutex::new(());

fn study() -> Study {
    Study::new(Ecosystem::generate(EcosystemConfig::paper(42, 0.01)))
}

fn fingerprint(snapshots: &[Snapshot]) -> String {
    let digest: Vec<_> = snapshots.iter().map(|s| (s.date, &s.scans)).collect();
    serde_json::to_string(&digest).expect("snapshots serialize")
}

fn weekly_fingerprint(weekly: &[WeeklyPoint], history: &MxHistory) -> String {
    let sorted = |m: &HashMap<TldId, u64>| {
        let mut v: Vec<_> = m.iter().map(|(t, c)| (format!("{t:?}"), *c)).collect();
        v.sort();
        v
    };
    let points: Vec<_> = weekly
        .iter()
        .map(|p| {
            (
                p.date,
                sorted(&p.mtasts_per_tld),
                sorted(&p.tlsrpt_among_mtasts_per_tld),
            )
        })
        .collect();
    let mut hist: Vec<_> = history
        .iter()
        .map(|(d, v)| (d.to_string(), format!("{v:?}")))
        .collect();
    hist.sort();
    serde_json::to_string(&(points, hist)).expect("weekly series serializes")
}

#[test]
fn telemetry_never_perturbs_full_or_weekly_digests() {
    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
    let study = study();

    let mut digests: Vec<(bool, usize, String, String)> = Vec::new();
    for enabled in [false, true] {
        obsv::set_enabled(enabled);
        obsv::reset();
        for threads in THREAD_COUNTS {
            let full = fingerprint(&study.run_full_with_threads(threads));
            let (weekly, history, _) = study.run_weekly_with_threads(threads);
            digests.push((
                enabled,
                threads,
                full,
                weekly_fingerprint(&weekly, &history),
            ));
        }
    }
    obsv::set_enabled(false);

    let (_, _, want_full, want_weekly) = &digests[0];
    for (enabled, threads, full, weekly) in &digests[1..] {
        assert_eq!(
            full, want_full,
            "full digest diverges (telemetry={enabled}, threads={threads})"
        );
        assert_eq!(
            weekly, want_weekly,
            "weekly digest diverges (telemetry={enabled}, threads={threads})"
        );
    }
}

#[test]
fn enabled_telemetry_actually_collects() {
    // The identity test above would pass vacuously if telemetry never
    // recorded anything; prove the enabled runs populate the collector
    // with the advertised stage spans and counters. Runs in a dedicated
    // thread so this test's harvest starts from an empty collector.
    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
    std::thread::spawn(|| {
        obsv::set_enabled(true);
        obsv::reset();
        let study = study();
        let snapshots = study.run_full_with_threads(2);
        obsv::set_enabled(false);
        let snap = obsv::snapshot();
        let scanned: u64 = snapshots.iter().map(|s| s.len() as u64).sum();
        for stage in ["scan.record", "scan.policy", "scan.mx"] {
            assert!(
                snap.span(stage).count > 0,
                "no {stage} spans: {:?}",
                snap.spans.keys().collect::<Vec<_>>()
            );
        }
        // Every fresh scan opens exactly one record span; cache hits
        // (most of the incremental run) skip the stages entirely.
        assert!(snap.span("scan.record").count <= scanned);
        assert_eq!(snap.span("snapshot.full").count, 11);
        assert!(snap.counter("cache_full_hits_total") > 0);
        assert_eq!(
            snap.counter("cache_full_hits_total")
                + snap.counter("cache_misses_total")
                + snap.counter("cache_stand_downs_total"),
            scanned,
            "cache counters must partition the scanned population"
        );
        assert!(snap.histograms.contains_key("scan_domain_real_us"));
        // The Prometheus exporter renders the collector deterministically.
        let text = obsv::export::prometheus_text(&snap);
        assert!(text.contains("scan_record_count"));
        assert!(text.contains("cache_full_hits_total"));
    })
    .join()
    .unwrap();
}
