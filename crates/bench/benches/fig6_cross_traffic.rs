//! **Figure 6** — empirical detection rate vs shared-link utilization
//! (CIT padding, laboratory cross traffic, n = 1000).
//!
//! Cross traffic through the lab router perturbs the padded flow
//! (σ_net² grows with utilization), pushing r toward 1: variance and
//! entropy detection decay with load; entropy stays above variance
//! (outlier robustness); sample mean stays at chance. At 40 % utilization
//! the paper still sees ~0.7 for entropy — CIT is not saved by a merely
//! busy link.

use linkpad_adversary::feature::{Feature, SampleEntropy, SampleMean, SampleVariance};
use linkpad_bench::runner::{detection_multi, Budget};
use linkpad_bench::table::{fmt_rate, Table};
use linkpad_workloads::scenario::{ScenarioBuilder, TapPosition};

fn main() {
    let budget = Budget::from_env();
    let n = 1000;
    let at = TapPosition::ReceiverIngress;

    let mut table = Table::new(
        format!("Fig 6: detection rate vs shared-link utilization (CIT, n = {n})"),
        &["utilization", "mean", "variance", "entropy"],
    );
    for &util in &[0.05, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let low = ScenarioBuilder::lab(61)
            .with_payload_rate(10.0)
            .with_uniform_utilization(util);
        let high = ScenarioBuilder::lab(62)
            .with_payload_rate(40.0)
            .with_uniform_utilization(util);
        let features: Vec<Box<dyn Feature>> = vec![
            Box::new(SampleMean),
            Box::new(SampleVariance),
            Box::new(SampleEntropy::calibrated()),
        ];
        let refs: Vec<&dyn Feature> = features.iter().map(|f| f.as_ref()).collect();
        let mut cells = vec![format!("{util:.2}")];
        for report in detection_multi(&low, &high, at, &refs, n, budget).expect("fig6 detection") {
            cells.push(fmt_rate(report.detection_rate()));
        }
        table.row(cells);
        eprintln!("fig6: utilization {util:.2} done");
    }
    table.print();
    table.save_csv("fig6_detection_vs_utilization").unwrap();
    println!(
        "\nPaper check: variance & entropy decay with utilization; entropy ≥ variance; mean ≈ 0.5 flat."
    );
}
