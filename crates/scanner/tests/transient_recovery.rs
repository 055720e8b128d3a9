//! Validation experiment for the transient-fault model (EXPERIMENTS.md):
//! inject a known transient-failure rate into an otherwise known-ground-
//! truth world and show that
//!
//! 1. a naive single-shot scan *inflates* the misconfiguration rate,
//! 2. the retrying scanner recovers ≥99% of the domains that hit a
//!    transient, and
//! 3. the persistent misconfiguration rates it reports match the injected
//!    ground truth (the fault-free baseline) to within a sliver.

use ecosystem::{Ecosystem, EcosystemConfig, SnapshotDetail};
use mtasts_scanner::taxonomy::MisconfigCategory;
use mtasts_scanner::{scan_snapshot, ScanConfig, Snapshot};
use netbase::{DomainName, SimDate};
use simnet::TransientFaultConfig;

const FAULT_RATE: f64 = 0.1;

fn eco() -> Ecosystem {
    Ecosystem::generate(EcosystemConfig::paper(42, 0.02))
}

fn scan(eco: &Ecosystem, faults: Option<TransientFaultConfig>, config: &ScanConfig) -> Snapshot {
    let date = SimDate::ymd(2024, 9, 29);
    let mut world = eco.world_at(date, SnapshotDetail::Full);
    if let Some(f) = &faults {
        world.inject_transient_faults(f);
    }
    let domains: Vec<DomainName> = eco.domains_at(date).map(|d| d.name.clone()).collect();
    scan_snapshot(&world, &domains, date, None, config)
}

fn category_counts(snapshot: &Snapshot) -> [usize; MisconfigCategory::ALL.len()] {
    let mut out = [0; MisconfigCategory::ALL.len()];
    for scan in &snapshot.scans {
        let cats = scan.categories();
        for (slot, cat) in out.iter_mut().zip(MisconfigCategory::ALL) {
            if cats.contains(&cat) {
                *slot += 1;
            }
        }
    }
    out
}

#[test]
fn retries_recover_injected_transients() {
    let eco = eco();
    let faults = TransientFaultConfig::uniform(99, FAULT_RATE);

    // Ground truth: the fault-free world under the seed scanner.
    let baseline = scan(&eco, None, &ScanConfig::single_shot());
    let base_misconfigured = baseline
        .scans
        .iter()
        .filter(|s| s.is_misconfigured())
        .count();

    // A naive single-shot scan of the flaky world inflates the rates: at a
    // 10% per-operation fault rate the policy fetch alone fails ~30% of
    // the time (DNS + TCP + TLS + HTTP each draw).
    let naive = scan(&eco, Some(faults), &ScanConfig::single_shot());
    let naive_misconfigured = naive.scans.iter().filter(|s| s.is_misconfigured()).count();
    assert!(
        naive_misconfigured > base_misconfigured + baseline.len() / 10,
        "naive scan must inflate: baseline {base_misconfigured}, naive {naive_misconfigured} of {}",
        baseline.len()
    );

    // The retrying scanner on the same flaky world.
    let retried = scan(&eco, Some(faults), &ScanConfig::resilient(5, 5));

    // ≥99% of the domains that actually hit a transient (issued at least
    // one retry) end up classified exactly like the baseline.
    let mut hit_transient = 0usize;
    let mut hit_and_match = 0usize;
    let mut mismatched = 0usize;
    for (scan, base) in retried.scans.iter().zip(&baseline.scans) {
        assert_eq!(scan.domain, base.domain);
        let matches = scan.categories() == base.categories();
        if scan.attempts.retries_issued() > 0 {
            hit_transient += 1;
            if matches {
                hit_and_match += 1;
            }
        }
        if !matches {
            mismatched += 1;
        }
    }
    assert!(
        hit_transient > baseline.len() / 10,
        "the injected rate must actually exercise the retry layer ({hit_transient} domains)"
    );
    let recovery = hit_and_match as f64 / hit_transient as f64;
    assert!(
        recovery >= 0.99,
        "recovery rate {recovery:.4} ({hit_and_match}/{hit_transient})"
    );

    // Aggregate persistent misconfiguration rates match the injected
    // ground truth: per category, within 1% of the population.
    let base_counts = category_counts(&baseline);
    let retried_counts = category_counts(&retried);
    let tolerance = baseline.len().div_ceil(100);
    for ((got, want), cat) in retried_counts
        .iter()
        .zip(base_counts)
        .zip(MisconfigCategory::ALL)
    {
        assert!(
            got.abs_diff(want) <= tolerance,
            "{}: baseline {want}, retried {got} (tolerance {tolerance}, {mismatched} domains differ)",
            cat.label()
        );
    }
}
