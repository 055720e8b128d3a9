//! Determinism suite for the parallel scan engine (DESIGN.md
//! "Concurrency model"): the contract is that thread count is
//! unobservable in the output. Every test here compares serde digests —
//! byte equality, not structural equality — so a reordered vector, a
//! drifted admission instant, or a policy IP resolved at another instant
//! all fail loudly.
//!
//! CI runs this suite twice, with `SCAN_THREADS=1` and `SCAN_THREADS=8`,
//! which the default-thread tests below pick up through
//! [`mtasts_scanner::default_scan_threads`].

use ecosystem::{Ecosystem, EcosystemConfig, SnapshotDetail, TldId};
use mtasts_scanner::longitudinal::{MxHistory, Study, WeeklyPoint};
use mtasts_scanner::{
    scan_snapshot, scan_snapshot_with_threads, ScanConfig, Snapshot, SupervisedOutcome,
    SupervisorConfig,
};
use netbase::{map_sharded, DomainName, SimDate, TokenBucket};
use proptest::prelude::*;
use simnet::TransientFaultConfig;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The scans, each with its policy IP, are the full snapshot state (the
/// classifier is derived from them), so this digest is the byte-identity
/// witness used throughout the suite.
fn fingerprint(snapshots: &[Snapshot]) -> String {
    let digest: Vec<_> = snapshots.iter().map(|s| (s.date, &s.scans)).collect();
    serde_json::to_string(&digest).unwrap()
}

/// `MxHistory` flattened to sorted, serializable rows.
type HistoryRows = Vec<(String, Vec<(SimDate, Vec<String>)>)>;

/// Weekly output digest with map iteration order normalized away.
fn weekly_fingerprint(points: &[WeeklyPoint], history: &MxHistory) -> String {
    let points: Vec<_> = points
        .iter()
        .map(|p| {
            let mut per_tld: Vec<(TldId, u64)> =
                p.mtasts_per_tld.iter().map(|(t, n)| (*t, *n)).collect();
            per_tld.sort();
            let mut tlsrpt: Vec<(TldId, u64)> = p
                .tlsrpt_among_mtasts_per_tld
                .iter()
                .map(|(t, n)| (*t, *n))
                .collect();
            tlsrpt.sort();
            (p.date, per_tld, tlsrpt)
        })
        .collect();
    let mut history: HistoryRows = history
        .iter()
        .map(|(d, obs)| {
            (
                d.to_string(),
                obs.iter()
                    .map(|(date, mx)| (*date, mx.iter().map(|m| m.to_string()).collect()))
                    .collect(),
            )
        })
        .collect();
    history.sort();
    serde_json::to_string(&(points, history)).unwrap()
}

#[test]
fn snapshot_scan_is_thread_count_invariant() {
    // A faulted, rate-limited scan of the full paper population: the
    // hardest case, because both the retry layer and the admission plan
    // are time-keyed. Thread counts 1, 2 and 8 must agree byte for byte.
    let eco = Ecosystem::generate(EcosystemConfig::paper(42, 0.02));
    let date = SimDate::ymd(2024, 9, 29);
    let mut world = eco.world_at(date, SnapshotDetail::Full);
    world.inject_transient_faults(&TransientFaultConfig::uniform(7, 0.05));
    let domains: Vec<DomainName> = eco.domains_at(date).map(|d| d.name.clone()).collect();

    let run = |threads: usize| {
        let mut bucket = TokenBucket::new(100.0, 20, date.at_midnight());
        let snap = scan_snapshot_with_threads(
            &world,
            &domains,
            date,
            Some(&mut bucket),
            &ScanConfig::resilient(1, 5),
            threads,
        );
        fingerprint(std::slice::from_ref(&snap))
    };

    let sequential = run(1);
    for threads in THREAD_COUNTS {
        assert_eq!(
            sequential,
            run(threads),
            "snapshot scan diverges at {threads} threads"
        );
    }

    // The default-thread entry point (honouring `SCAN_THREADS`, which CI
    // pins to 1 and then 8) must match the explicit sequential run too.
    let mut bucket = TokenBucket::new(100.0, 20, date.at_midnight());
    let default_run = scan_snapshot(
        &world,
        &domains,
        date,
        Some(&mut bucket),
        &ScanConfig::resilient(1, 5),
    );
    assert_eq!(
        sequential,
        fingerprint(std::slice::from_ref(&default_run)),
        "scan_snapshot at SCAN_THREADS={:?} diverges from sequential",
        std::env::var("SCAN_THREADS").ok()
    );
}

#[test]
fn full_study_is_thread_count_invariant() {
    let study = Study::new(Ecosystem::generate(EcosystemConfig::paper(42, 0.01)));

    let sequential = fingerprint(&study.run_full_with_threads(1));
    for threads in THREAD_COUNTS {
        assert_eq!(
            sequential,
            fingerprint(&study.run_full_with_threads(threads)),
            "run_full diverges at {threads} threads"
        );
    }
    // Default entry point under whatever SCAN_THREADS CI exported.
    assert_eq!(sequential, fingerprint(&study.run_full()));
}

#[test]
fn weekly_study_is_thread_count_invariant() {
    let study = Study::new(Ecosystem::generate(EcosystemConfig::paper(42, 0.01)));

    let (points, history, _) = study.run_weekly_with_threads(1);
    let sequential = weekly_fingerprint(&points, &history);
    for threads in THREAD_COUNTS {
        let (points, history, _) = study.run_weekly_with_threads(threads);
        assert_eq!(
            sequential,
            weekly_fingerprint(&points, &history),
            "run_weekly diverges at {threads} threads"
        );
    }
    let (points, history) = study.run_weekly();
    assert_eq!(sequential, weekly_fingerprint(&points, &history));
}

#[test]
fn killed_parallel_run_resumes_byte_identically() {
    // The strongest cross-cutting claim: an 8-thread supervised run,
    // killed mid-campaign and resumed from its checkpoint, equals an
    // uninterrupted *sequential* run — thread count and interruption are
    // both unobservable at once.
    let study = Study::new(Ecosystem::generate(EcosystemConfig::paper(42, 0.01)));
    let dir = std::env::temp_dir().join(format!(
        "mtasts-parallel-determinism-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.json");
    let _ = std::fs::remove_file(&path);

    let base = SupervisorConfig {
        scan: ScanConfig::resilient(1, 5),
        checkpoint_path: Some(path.clone()),
        checkpoint_every: 16,
        domain_budget: None,
        transient: Some(TransientFaultConfig::uniform(7, 0.05)),
        chaos_panic_domains: Vec::new(),
        threads: 8,
    };

    // Reference: uninterrupted, sequential, checkpoint-free.
    let reference = study.run_full_supervised(&SupervisorConfig {
        checkpoint_path: None,
        threads: 1,
        ..base.clone()
    });
    let SupervisedOutcome::Complete {
        snapshots: want,
        report: want_report,
    } = reference
    else {
        panic!("reference run must complete")
    };

    // Interrupted 8-thread run: budget lands mid-snapshot, then resume.
    let killed = study.run_full_supervised(&SupervisorConfig {
        domain_budget: Some(want.iter().map(Snapshot::len).sum::<usize>() / 3),
        ..base.clone()
    });
    assert!(matches!(killed, SupervisedOutcome::Suspended { .. }));
    let resumed = study.run_full_supervised(&base);
    let SupervisedOutcome::Complete {
        snapshots: got,
        report: got_report,
    } = resumed
    else {
        panic!("resumed run must complete")
    };

    assert_eq!(
        fingerprint(&want),
        fingerprint(&got),
        "kill/resume under 8 threads must equal an uninterrupted sequential run"
    );
    assert_eq!(want_report, got_report);
    assert!(want_report.retries_issued > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shard merge is order-preserving for any population size and
    /// any thread count: mapping the identity function through
    /// `map_sharded` returns the input verbatim.
    #[test]
    fn shard_merge_preserves_input_order(len in 0usize..300, threads in 0usize..20) {
        let items: Vec<usize> = (0..len).collect();
        let out = map_sharded(threads, &items, |_, &x| x);
        prop_assert_eq!(out, items);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The O(changes) weekly driver is thread-count invariant for
    /// arbitrary seeds: 1-thread and 8-thread runs digest identically,
    /// cache accounting included.
    #[test]
    fn weekly_incremental_is_thread_invariant_over_seeds(seed in 0u64..1_000_000) {
        let study = Study::new(Ecosystem::generate(EcosystemConfig::paper(seed, 0.005)));
        let (p1, h1, s1) = study.run_weekly_with_threads(1);
        let (p8, h8, s8) = study.run_weekly_with_threads(8);
        prop_assert_eq!(weekly_fingerprint(&p1, &h1), weekly_fingerprint(&p8, &h8));
        prop_assert_eq!(s1, s8);
    }
}
