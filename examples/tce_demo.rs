//! Block-sparse tensor contraction (the TCE kernel), Scioto vs. the
//! original global-counter scheme, verified against a dense reference.
//!
//! ```text
//! cargo run --release --example tce_demo
//! ```

use scioto_sim::{LatencyModel, Machine, MachineConfig};
use scioto_tce::contract::reference_checksum;
use scioto_tce::{run_contraction, ContractionConfig, LoadBalance};

fn main() {
    for lb in [LoadBalance::Scioto, LoadBalance::GlobalCounter] {
        let out = Machine::run(
            MachineConfig::virtual_time(8).with_latency(LatencyModel::cluster()),
            move |ctx| {
                let mut cfg = ContractionConfig::new(lb);
                cfg.nbr = 16;
                cfg.nbk = 16;
                cfg.nbc = 16;
                let reference = reference_checksum(ctx, &cfg);
                let (report, checksum) = run_contraction(ctx, &cfg);
                (reference, checksum, report)
            },
        );
        let (reference, checksum, _) = &out.results[0];
        let tasks: Vec<u64> = out.results.iter().map(|(_, _, r)| r.tasks_executed).collect();
        let contract_ms = out
            .results
            .iter()
            .map(|(_, _, r)| r.contract_ns)
            .max()
            .unwrap() as f64
            / 1e6;
        println!(
            "{lb:?}: ||C|| = {checksum:.6} (reference {reference:.6}), \
             {contract_ms:.2} ms virtual, tasks/rank {tasks:?}"
        );
        assert!(
            (checksum - reference).abs() < 1e-9 * reference.max(1.0),
            "contraction result mismatch"
        );
    }
    println!("both schemes reproduce the dense reference.");
}
