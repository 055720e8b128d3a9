//! §4.7: the responsible-disclosure campaign — notify every misconfigured
//! domain's postmaster, count bounces, feedback, and later remediation.
//! Paper: 20,144 notified; >5,000 bounced; 497 feedback (341 helpful,
//! 45 thanks); 2,064 (10%) remediated.

use report::Table;
use scanner::notify::run_campaign;
use scanner::scan_snapshot;

fn main() {
    let eco = mtasts_bench::ecosystem();
    let date = eco.config.end;
    eprintln!("# scanning the latest snapshot...");
    let world = eco.world_at(date, ecosystem::SnapshotDetail::Full);
    let domains: Vec<netbase::DomainName> = eco.domains_at(date).map(|d| d.name.clone()).collect();
    let snapshot = scan_snapshot(
        &world,
        &domains,
        date,
        None,
        &scanner::ScanConfig::default(),
    );
    obsv::trace::flush();
    let outcome = run_campaign(&snapshot, eco.config.seed);

    let mut table =
        Table::new(&["metric", "measured", "paper"]).with_title("Notification campaign (§4.7)");
    let mut row = |name: &str, v: String, paper: &str| {
        table.row(vec![name.to_string(), v, paper.to_string()]);
    };
    row("notified", outcome.notified.to_string(), "20,144");
    row("bounced", outcome.bounced.to_string(), ">5,000");
    row("delivered", outcome.delivered.to_string(), "~15,000");
    row("feedback", outcome.feedback.to_string(), "497");
    row(
        "  of which helpful",
        outcome.feedback_helpful.to_string(),
        "341",
    );
    row("acknowledgements", outcome.acks.to_string(), "45");
    row(
        "remediated",
        format!(
            "{} ({:.1}%)",
            outcome.remediated,
            100.0 * outcome.remediation_share()
        ),
        "2,064 (10%)",
    );
    println!("{}", table.render());
}
