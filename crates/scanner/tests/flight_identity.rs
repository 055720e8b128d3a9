//! The flight recorder determinism contract (DESIGN.md "Flight
//! recorder"): turning the windowed recorder on must never change any
//! scan output. The recorder only diffs collector snapshots on the
//! orchestrating thread — no RNG draw, no sim-clock advance, no lock on
//! the scan path — so the full monthly study and the weekly series must
//! digest byte-identically with the recorder off and on, at worker
//! counts 1 and 8 (CI runs this suite at SCAN_THREADS ∈ {1, 8} as
//! well).

use ecosystem::{Ecosystem, EcosystemConfig, TldId};
use mtasts_scanner::longitudinal::{MxHistory, Study, WeeklyPoint};
use mtasts_scanner::Snapshot;
use std::collections::HashMap;
use std::sync::Mutex;

const THREAD_COUNTS: [usize; 2] = [1, 8];

/// Flight enablement is process-global; serialize the tests that toggle
/// it so they cannot observe each other's state.
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
fn flight_recorder_never_perturbs_full_or_weekly_digests() {
    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
    let study = study();

    let mut digests: Vec<(bool, usize, String, String)> = Vec::new();
    for flight in [false, true] {
        obsv::timeseries::set_flight(flight);
        obsv::set_enabled(flight);
        obsv::reset();
        obsv::timeseries::reset_flight();
        for threads in THREAD_COUNTS {
            let full = fingerprint(&study.run_full_with_threads(threads));
            let (weekly, history, _) = study.run_weekly_with_threads(threads);
            digests.push((flight, threads, full, weekly_fingerprint(&weekly, &history)));
        }
    }
    obsv::timeseries::set_flight(false);
    obsv::set_enabled(false);
    obsv::timeseries::reset_flight();

    let (_, _, want_full, want_weekly) = &digests[0];
    for (flight, threads, full, weekly) in &digests[1..] {
        assert_eq!(
            full, want_full,
            "full digest diverges (flight={flight}, threads={threads})"
        );
        assert_eq!(
            weekly, want_weekly,
            "weekly digest diverges (flight={flight}, threads={threads})"
        );
    }
}

#[test]
fn flight_recorder_actually_records_per_date_windows() {
    // The identity test above would pass vacuously if the recorder
    // never recorded; prove the enabled runs fold per-date windows —
    // and that the sim series' deterministic layer (counter and
    // span-count deltas; gauges like health.rss_kb are execution
    // observables) is *identical* across thread counts.
    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());

    let mut sims: Vec<(usize, String)> = Vec::new();
    for threads in THREAD_COUNTS {
        // Fresh study per thread count: the comparison is "same work,
        // different parallelism", not "cold cache vs primed cache".
        let study = study();
        obsv::timeseries::set_flight(true);
        obsv::reset();
        obsv::timeseries::reset_flight();
        let (weekly, _, _) = study.run_weekly_with_threads(threads);
        let recorder = obsv::timeseries::take().expect("weekly driver rolled the recorder");
        obsv::timeseries::set_flight(false);
        obsv::set_enabled(false);
        assert_eq!(
            recorder.sim.len(),
            weekly.len(),
            "one sim window per weekly date (threads={threads})"
        );
        // Each date's span closes before its window rolls, so every
        // window holds exactly its own date's span.
        let spans: Vec<u64> = recorder
            .sim
            .iter()
            .map(|(_, w)| w.counter("snapshot.weekly"))
            .collect();
        assert_eq!(
            spans.iter().sum::<u64>(),
            weekly.len() as u64,
            "every snapshot.weekly span lands in a per-date window"
        );
        assert!(
            spans.iter().all(|&n| n == 1),
            "one snapshot.weekly span per window (threads={threads}): {spans:?}"
        );
        let counters_only: Vec<(i64, Vec<(&str, u64)>)> = recorder
            .sim
            .iter()
            .map(|(k, w)| (k, w.counters.iter().map(|(n, v)| (*n, *v)).collect()))
            .collect();
        sims.push((threads, format!("{counters_only:?}")));
    }
    let (_, want) = &sims[0];
    for (threads, sim) in &sims[1..] {
        assert_eq!(
            sim, want,
            "sim-keyed counter series diverges across thread counts (threads={threads})"
        );
    }
}
