//! Flows are streamed into the scheduler one `FlowStart` at a time, on the
//! arrival lane, instead of all being queued before the first event. These
//! tests pin that the stream changes no simulated bit: against flows
//! scheduled by hand, across a checkpoint taken between two arrivals, and
//! under PDES, where each partition streams its share with global ranks.

use std::sync::Arc;

use elephant::des::{EpochMode, SimTime, Simulator};
use elephant::net::{schedule_flows, NetEvent, Network, Topology};
use elephant::scenario::{compile, load, run_fingerprint, CompileOverrides, Compiled};

/// `scenarios/incast.toml`: three waves of fifteen flows, each wave
/// starting at one instant.
fn incast() -> Compiled {
    let scenario = load("scenarios/incast.toml").expect("incast scenario loads");
    compile(&scenario, &CompileOverrides::default())
}

fn network(c: &Compiled) -> Network {
    Network::new(Arc::new(Topology::clos(c.params)), c.net_config())
}

/// Fingerprint, events executed, the connection table's peak and the FCT
/// list in completion order.
fn outcome(sim: &Simulator<Network>) -> (u64, u64, usize, Vec<(u64, u64, u64)>) {
    let net = sim.world();
    let fct = (net.stats.fct.iter())
        .map(|r| (r.flow.0, r.started.as_nanos(), r.completed.as_nanos()))
        .collect();
    (
        run_fingerprint([net]),
        sim.scheduler().executed_total(),
        net.conns_peak(),
        fct,
    )
}

#[test]
fn incast_streamed_equals_hand_scheduled() {
    let c = incast();
    let mut streamed = Simulator::new(network(&c));
    schedule_flows(&mut streamed, &c.flows);
    let mut by_hand = Simulator::new(network(&c));
    for &spec in &c.flows {
        by_hand
            .scheduler_mut()
            .schedule_at(spec.start, NetEvent::FlowStart(spec));
    }
    streamed.run_until(c.horizon);
    by_hand.run_until(c.horizon);
    let want = outcome(&by_hand);
    assert!(!want.3.is_empty(), "incast flows complete");
    assert_eq!(outcome(&streamed), want);
}

/// The snapshot holds one queued `FlowStart` (the next wave's first flow)
/// and a network whose cursor points at it; the flows after it are shared,
/// not copied. Resuming from it, and rewinding to it, both finish exactly
/// as the uninterrupted run.
#[test]
fn checkpoint_between_two_arrivals_resumes_exactly() {
    let c = incast();
    let mut starts: Vec<SimTime> = c.flows.iter().map(|f| f.start).collect();
    starts.sort_unstable();
    starts.dedup();
    assert!(starts.len() >= 2, "incast has several waves");
    let between = SimTime::from_nanos((starts[0].as_nanos() + starts[1].as_nanos()) / 2);

    let fresh = || {
        let mut sim = Simulator::new(network(&c));
        schedule_flows(&mut sim, &c.flows);
        sim
    };
    let mut clean = fresh();
    clean.run_until(c.horizon);
    let want = outcome(&clean);

    let mut sim = fresh();
    sim.run_until(between);
    let snap = sim.checkpoint();
    sim.run_until(c.horizon);
    assert_eq!(outcome(&sim), want, "taking the checkpoint moved the run");
    sim.restore(&snap);
    assert_eq!(sim.now(), between);
    sim.run_until(c.horizon);
    assert_eq!(outcome(&sim), want, "the restored run diverged");
}

/// `run-scenario scenarios/incast.toml --partitions 2`, as recorded from
/// the build that still queued every flow start before the run.
#[test]
fn two_partitions_match_the_recorded_fingerprint() {
    let run = incast()
        .run_pdes(Some(2), EpochMode::Adaptive, None)
        .expect("PDES run completes");
    assert_eq!(run.nets.len(), 2);
    assert_eq!(run_fingerprint(run.nets.iter()), 0x948d_c15d_714e_fb4f);
}
