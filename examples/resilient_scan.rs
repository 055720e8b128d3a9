//! The resilient scan supervisor, end to end: a flaky world, a run
//! killed mid-snapshot, a resume from the checkpoint, and one domain
//! poisoned on purpose — with the degradation report to show for it.
//!
//! ```sh
//! cargo run --release --example resilient_scan
//! ```

use ecosystem::{Ecosystem, EcosystemConfig};
use scanner::longitudinal::Study;
use scanner::{ScanConfig, SupervisedOutcome, SupervisorConfig};
use simnet::TransientFaultConfig;

fn main() {
    let config = EcosystemConfig::paper(42, 0.01);
    println!(
        "generating ecosystem (seed {}, scale {})...",
        config.seed, config.scale
    );
    let study = Study::new(Ecosystem::generate(config));

    // One domain is made to panic mid-scan: the supervisor must abandon
    // it and keep going.
    let last_date = *study.eco.config.full_scan_dates().last().unwrap();
    let victim = study.eco.domains_at(last_date).next().unwrap().name.clone();

    // Only the file name is printed, so the output is the same whatever
    // the temp directory is.
    let checkpoint_file = "mtasts-resilient-scan.json";
    let checkpoint = std::env::temp_dir().join(checkpoint_file);
    let _ = std::fs::remove_file(&checkpoint);
    let mut cfg = SupervisorConfig {
        scan: ScanConfig::resilient(1, 5),
        checkpoint_path: Some(checkpoint.clone()),
        checkpoint_every: 25,
        // Kill the first invocation mid-campaign.
        domain_budget: Some(400),
        transient: Some(TransientFaultConfig::uniform(7, 0.08)),
        chaos_panic_domains: vec![victim.clone()],
        threads: 0,
    };

    println!(
        "running 11 monthly full scans under an 8% transient-fault rate,\n\
         dying after 400 domains (checkpoint: {checkpoint_file})..."
    );
    let mut invocations = 0;
    let outcome = loop {
        invocations += 1;
        match study.run_full_supervised(&cfg) {
            SupervisedOutcome::Suspended { report } => {
                println!(
                    "  invocation {invocations}: suspended after {} domains \
                     ({} retries so far) — resuming from checkpoint",
                    report.domains_scanned, report.retries_issued
                );
                // The "operator" restarts the campaign without the kill.
                cfg.domain_budget = None;
            }
            done @ SupervisedOutcome::Complete { .. } => break done,
        }
    };

    let SupervisedOutcome::Complete { snapshots, report } = outcome else {
        unreachable!("loop breaks on Complete");
    };
    println!("\ncampaign complete in {invocations} invocations:");
    println!("  snapshots:            {}", snapshots.len());
    println!("  domains scanned:      {}", report.domains_scanned);
    println!("  retries issued:       {}", report.retries_issued);
    println!("  transients recovered: {}", report.transients_recovered);
    // The victim is abandoned once per snapshot it appears in — every
    // other domain in those snapshots still got scanned.
    println!(
        "  domains abandoned:    {} (`{}` × {} snapshots)",
        report.domains_abandoned,
        victim,
        report.abandoned_domains.len()
    );
    assert!(report.domains_abandoned >= 1);
    assert!(report
        .abandoned_domains
        .iter()
        .all(|d| *d == victim.to_string()));

    let latest = snapshots.last().unwrap();
    let bad = latest.scans.iter().filter(|s| s.is_misconfigured()).count();
    println!(
        "\nlatest snapshot ({}): {} of {} domains misconfigured ({:.1}%) — \
         persistent errors only; every recovered transient above was kept\n\
         out of these numbers",
        latest.date,
        bad,
        latest.len(),
        100.0 * bad as f64 / latest.len() as f64
    );
    // The campaign wrote its run manifest next to the checkpoint.
    let _ = std::fs::remove_file(&checkpoint);
    let _ = std::fs::remove_file(obsv::health::RunManifest::path_for_checkpoint(&checkpoint));
}
