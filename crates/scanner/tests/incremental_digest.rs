//! The incremental engine's byte-identity suite (DESIGN.md "Incremental
//! engine"): every driver that goes through the change-driven rescan
//! cache must serialize *byte-identically* to its from-scratch oracle —
//! reused scans included. A cache that is merely "close" (a drifted
//! retry count, a stale policy IP, a certificate that validates
//! differently at a later date than a fresh build's) fails here, not in
//! an analysis table three crates away.
//!
//! CI runs this suite at `SCAN_THREADS=1` and `SCAN_THREADS=8` alongside
//! the parallel-determinism suite.

use ecosystem::{Ecosystem, EcosystemConfig, TldId};
use mtasts_scanner::longitudinal::{MxHistory, Study, WeeklyPoint};
use mtasts_scanner::{DegradationReport, Snapshot, SupervisedOutcome, SupervisorConfig};
use std::collections::HashMap;

const THREAD_COUNTS: [usize; 2] = [1, 8];

/// `fnv64` of the from-scratch full-scan [`fingerprint`] at seed 42,
/// scale 0.01. The incremental and from-scratch runs share the fetch and
/// probe ladders, so comparing them cannot catch a ladder change that
/// moves both sides; this constant can.
const SCRATCH_FULL_SCANS_FNV64: u64 = 0x5e8e_0db6_6c21_8f4d;

fn study() -> Study {
    Study::new(Ecosystem::generate(EcosystemConfig::paper(42, 0.01)))
}

/// A complete supervised run's snapshots and report.
fn supervised(study: &Study, cfg: &SupervisorConfig) -> (Vec<Snapshot>, DegradationReport) {
    match study.run_full_supervised(cfg) {
        SupervisedOutcome::Complete { snapshots, report } => (snapshots, report),
        SupervisedOutcome::Suspended { .. } => panic!("no budget set: must complete"),
    }
}

/// What [`Study::run_full_with_threads`] runs.
fn plain(threads: usize) -> SupervisorConfig {
    SupervisorConfig {
        threads,
        ..SupervisorConfig::default()
    }
}

/// The scans, each with its policy IP, are the full snapshot state, so
/// this digest is the byte-identity witness. The entity classes are a
/// function of them, though the campaign carries its classifier across
/// dates: the supervisor's unit tests hold each date's classes to a
/// from-scratch `Snapshot::assemble`, and `classified_figures` pins the
/// figures that read them.
fn fingerprint(snapshots: &[Snapshot]) -> String {
    let digest: Vec<_> = snapshots.iter().map(|s| (s.date, &s.scans)).collect();
    serde_json::to_string(&digest).expect("snapshots serialize")
}

/// Canonical weekly digest: per-TLD maps sorted, history sorted.
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
        .map(|(d, v)| {
            (
                d.to_string(),
                v.iter()
                    .map(|(date, mx)| (*date, mx.iter().map(|h| h.to_string()).collect::<Vec<_>>()))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    hist.sort();
    serde_json::to_string(&(points, hist)).expect("weekly serializes")
}

#[test]
fn full_scans_incremental_matches_scratch_across_thread_counts() {
    let study = study();
    let want = fingerprint(&study.run_full_scratch_with_threads(1));
    assert_eq!(
        obsv::health::fnv64(want.as_bytes()),
        SCRATCH_FULL_SCANS_FNV64,
        "the full scans observe something else than they used to"
    );
    for threads in THREAD_COUNTS {
        let (snapshots, report) = supervised(&study, &plain(threads));
        let stats = report.cache;
        assert_eq!(
            want,
            fingerprint(&snapshots),
            "incremental full scans diverge at {threads} threads"
        );
        // The engine actually reused work — this is not a vacuous pass
        // where everything fell back to full scans.
        assert!(
            stats.full_hits > stats.misses,
            "cache should dominate after the first snapshot: {stats:?}"
        );
        assert_eq!(stats.forced, 0, "no faults or attacks configured");
    }
}

#[test]
fn weekly_incremental_matches_scratch_across_thread_counts() {
    let study = study();
    let (w, h) = study.run_weekly_scratch_with_threads(1);
    let want = weekly_fingerprint(&w, &h);
    for threads in THREAD_COUNTS {
        let (w, h, stats) = study.run_weekly_with_threads(threads);
        assert_eq!(
            want,
            weekly_fingerprint(&w, &h),
            "incremental weekly series diverges at {threads} threads"
        );
        assert!(
            stats.full_hits > stats.misses * 10,
            "160 weeks over a mostly-static population must mostly hit: {stats:?}"
        );
    }
}

#[test]
fn supervised_incremental_matches_scratch() {
    // Checkpoint-sized rounds (16 domains) must not move the snapshots
    // off the from-scratch oracle, nor the cache accounting off
    // `run_full`'s single round per date: same entries, same input order.
    let study = study();
    let want = fingerprint(&study.run_full_scratch_with_threads(1));
    let (_, plain_report) = supervised(&study, &plain(1));
    for threads in THREAD_COUNTS {
        let (snapshots, report) = supervised(
            &study,
            &SupervisorConfig {
                checkpoint_every: 16,
                ..plain(threads)
            },
        );
        assert_eq!(
            want,
            fingerprint(&snapshots),
            "supervised incremental scans diverge at {threads} threads"
        );
        assert_eq!(report.cache, plain_report.cache);
    }
}
