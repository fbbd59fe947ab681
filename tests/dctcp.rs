//! DCTCP end-to-end behaviour through the whole engine: ECN-marking
//! switches plus the DCTCP estimator must keep queues shorter and drop
//! less than New Reno on identical offered load — the property that made
//! the DCTCP trace the paper's workload of choice.

use elephant::des::SimTime;
use elephant::net::{ClosParams, NetConfig, RttScope, TcpConfig};
use elephant::trace::{generate, WorkloadConfig};

fn run(ecn: bool, seed: u64) -> (u64, u64, f64, u64) {
    let mut params = ClosParams::paper_cluster(2);
    if ecn {
        params.host_link = params.host_link.with_ecn(30_000);
        params.fabric_link = params.fabric_link.with_ecn(30_000);
        params.core_link = params.core_link.with_ecn(30_000);
    }
    let horizon = SimTime::from_millis(25);
    let flows = generate(&params, &WorkloadConfig::paper_default(horizon, seed));
    let cfg = NetConfig {
        tcp: if ecn {
            TcpConfig::dctcp()
        } else {
            TcpConfig::default()
        },
        rtt_scope: RttScope::All,
        ..Default::default()
    };
    let (net, _) = elephant::core::run_ground_truth(params, cfg, None, &flows, horizon);
    let (marks, _) = net.port_totals();
    (
        net.stats.drops.total(),
        marks,
        net.stats.rtt_hist.quantile(0.99),
        net.stats.flows_completed,
    )
}

#[test]
fn dctcp_marks_instead_of_dropping() {
    let (reno_drops, reno_marks, reno_p99, reno_done) = run(false, 5);
    let (dctcp_drops, dctcp_marks, dctcp_p99, dctcp_done) = run(true, 5);

    assert_eq!(reno_marks, 0, "no ECN on plain drop-tail");
    assert!(dctcp_marks > 1_000, "ECN active: {dctcp_marks} marks");
    assert!(
        (dctcp_drops as f64) < reno_drops as f64 * 0.6,
        "DCTCP drops {dctcp_drops} well below Reno {reno_drops}"
    );
    assert!(
        dctcp_p99 < reno_p99,
        "shorter queues: p99 {dctcp_p99} < {reno_p99}"
    );
    assert!(
        dctcp_done >= reno_done * 9 / 10,
        "throughput not sacrificed"
    );
}

/// `dctcp = true` must reach the PDES engine too: the same scenario with
/// and without it runs different TCP stacks, so the fingerprints differ,
/// and the DCTCP side sees ECN marks.
#[test]
fn dctcp_reaches_pdes_partitions() {
    use elephant::des::EpochMode;
    use elephant::scenario::{compile, load, run_fingerprint, CompileOverrides};

    let mut scenario = load("scenarios/incast.toml").expect("committed scenario loads");
    let mut run = |dctcp: bool| {
        scenario.run.dctcp = dctcp;
        let run = compile(&scenario, &CompileOverrides::default())
            .run_pdes(None, EpochMode::Adaptive, None)
            .expect("PDES run completes");
        let marks: u64 = run.nets.iter().map(|n| n.port_totals().0).sum();
        (run_fingerprint(&run.nets), marks)
    };
    let (reno, reno_marks) = run(false);
    let (dctcp, dctcp_marks) = run(true);
    assert_eq!(reno_marks, 0, "no ECN on plain drop-tail");
    assert!(dctcp_marks > 0, "ECN-marking switches under DCTCP");
    assert_ne!(reno, dctcp, "PDES ignored the scenario's TCP config");
}
