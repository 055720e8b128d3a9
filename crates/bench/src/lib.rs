//! Shared plumbing for the experiment binaries (`src/bin/exp_*.rs`).
//!
//! Every binary reads the same environment knobs so whole-suite runs are
//! coherent:
//!
//! - `MTASTS_SEED` (default 42): the ecosystem seed;
//! - `MTASTS_SCALE` (default 0.25): population scale. 1.0 reproduces the
//!   paper's absolute counts (~68k MTA-STS domains) at higher runtime;
//!   0.25 preserves every percentage and is the default recorded in
//!   EXPERIMENTS.md.

pub mod downgrade;

use ecosystem::{Ecosystem, EcosystemConfig};
use scanner::longitudinal::{LongitudinalRun, Study};

/// Reads the shared experiment configuration from the environment.
pub fn config_from_env() -> EcosystemConfig {
    let seed = std::env::var("MTASTS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let scale = std::env::var("MTASTS_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    EcosystemConfig::paper(seed, scale)
}

/// Generates the ecosystem for the shared configuration.
pub fn ecosystem() -> Ecosystem {
    let config = config_from_env();
    eprintln!(
        "# ecosystem: seed={} scale={} ({} domains at the final snapshot)",
        config.seed,
        config.scale,
        (68_030.0 * config.scale) as u64
    );
    Ecosystem::generate(config)
}

/// Runs the complete longitudinal study (weekly + monthly scans).
pub fn full_study() -> (Study, LongitudinalRun) {
    let study = Study::new(ecosystem());
    eprintln!("# running weekly record scans and monthly full scans...");
    let run = study.run();
    obsv::trace::flush();
    (study, run)
}

/// Runs only the monthly full-component scans.
pub fn full_scans_only() -> (Study, LongitudinalRun) {
    let study = Study::new(ecosystem());
    eprintln!("# running monthly full scans...");
    let full = study.run_full();
    let run = LongitudinalRun {
        weekly: Vec::new(),
        full,
        mx_history: Default::default(),
    };
    obsv::trace::flush();
    (study, run)
}

/// Runs only the weekly record scans.
pub fn weekly_only() -> (Study, LongitudinalRun) {
    let study = Study::new(ecosystem());
    eprintln!("# running weekly record scans...");
    let (weekly, mx_history) = study.run_weekly();
    let run = LongitudinalRun {
        weekly,
        full: Vec::new(),
        mx_history,
    };
    obsv::trace::flush();
    (study, run)
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{x:.2}%")
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_config() {
        // Environment knobs default sensibly.
        let c = super::config_from_env();
        assert!(c.scale > 0.0 && c.scale <= 1.0);
    }
}
