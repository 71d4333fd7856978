//! Quickstart: build a data center scenario, run it through the wind
//! tunnel, and check it against an SLA set.
//!
//! ```sh
//! cargo run --release -p wt-bench --example quickstart
//! ```

use windtunnel::prelude::*;

fn main() {
    // A 3-rack, 30-node cluster of HDD storage servers on a 10G network,
    // storing 5,000 one-GB customer objects with 3-way replication.
    let scenario = ScenarioBuilder::new("starter-dc")
        .racks(3)
        .nodes_per_rack(10)
        .disk(catalog::hdd_7200_4t())
        .disks_per_node(12)
        .nic(catalog::nic_10g())
        .replication(3)
        .placement(Placement::Random)
        .repair(RepairPolicy::parallel(8))
        .objects(5_000)
        .object_gb(1.0)
        .horizon_years(1.0)
        .seed(42)
        .build();

    // The SLAs the provider sold: four nines, and no object ever lost.
    let slas = SlaSet::new()
        .availability(0.9999)
        .require("objects_lost", Comparison::Le, 0.0)
        .report("node_failures")
        .report("rebuilds_completed");

    // Run exactly the simulations those SLAs need.
    let tunnel = WindTunnel::new();
    let verdict = tunnel.assess(&scenario, &slas);

    let m = &verdict.metrics;
    println!("scenario            : {}", scenario.name);
    println!(
        "simulated horizon   : {:.1} days",
        scenario.horizon_years * 365.0
    );
    println!("node failures       : {}", m["node_failures"]);
    println!("rebuilds completed  : {}", m["rebuilds_completed"]);
    println!(
        "availability        : {:.6} ({:.1} nines)",
        m["availability"], m["nines"]
    );
    println!("objects lost        : {}", m["objects_lost"]);
    println!("hardware TCO        : ${:.0}/year", m["tco_usd_per_year"]);
    println!();
    if verdict.passes {
        println!("verdict: design meets all SLAs");
    } else {
        println!("verdict: SLA violations:");
        for c in slas.constraints().iter().filter(|c| !c.met_by(m)) {
            println!("  - {} {} {} not met", c.metric, c.cmp.as_str(), c.bound);
        }
    }
    println!(
        "(runs recorded in the result store: {})",
        tunnel.store().len()
    );
}
