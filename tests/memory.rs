//! Known answers for full-fidelity memory: the packet store's high-water
//! slot count on one short reference run. Queued packets live in one store
//! per network, and a slot is added only when none is free, so the count
//! is the most packets the network ever held queued at once — fixed by the
//! scenario file and seed. A store that stops reusing its slots, or a port
//! that keeps packets it has sent, fails here.

use std::path::Path;

use elephant::core::{Exec, Observe, OracleCounters, PdesExec};
use elephant::des::EpochMode;
use elephant::net::RttScope;
use elephant::scenario::{compile, load, CompileOverrides};

#[test]
fn packet_store_high_water_repeats_its_known_answer() {
    let file = "benchmark/scenarios/full_websearch8.toml";
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let s = load(&path.display().to_string()).unwrap_or_else(|e| panic!("{file}: {e}"));
    let overrides = CompileOverrides {
        seed: Some(42),
        horizon_ms: Some(4.0),
        ..Default::default()
    };
    let c = compile(&s, &overrides);
    let out = c
        .run(
            None,
            Exec::Sequential,
            None,
            Observe::default(),
            RttScope::All,
        )
        .expect("the reference run succeeds");
    assert_eq!(out.meta.events, 409_208, "{file}: not the pinned run");
    let slots = out.nets[0].memory().store_slots;
    assert_eq!(slots, 780, "{file}: packet store high-water");

    // The ledger row reads the same count.
    let rows = out.metric_rows(&OracleCounters::default());
    let row = rows.iter().find(|m| m.name == "mem/packet_store/slots");
    assert_eq!(row.map(|m| m.value), Some(slots as f64));
}

/// A PDES partition holds the port state of the nodes it owns only, so
/// the partitions' port bytes add up to the sequential run's.
#[test]
fn partitions_split_the_port_state() {
    let file = "benchmark/scenarios/full_websearch8.toml";
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let s = load(&path.display().to_string()).unwrap_or_else(|e| panic!("{file}: {e}"));
    let overrides = CompileOverrides {
        seed: Some(42),
        horizon_ms: Some(1.0),
        ..Default::default()
    };
    let c = compile(&s, &overrides);
    let ports = |exec| {
        let out = c
            .run(None, exec, None, Observe::default(), RttScope::All)
            .expect("the run succeeds");
        out.nets
            .iter()
            .map(|n| n.memory().ports)
            .collect::<Vec<_>>()
    };
    let sequential = ports(Exec::Sequential);
    let partitioned = ports(Exec::Pdes(PdesExec {
        partitions: 2,
        machines: 1,
        envelope_bytes: 64,
        mode: EpochMode::Adaptive,
        faults: None,
    }));
    assert_eq!(partitioned.len(), 2);
    assert!(partitioned.iter().all(|&b| b > 0 && b < sequential[0]));
    assert_eq!(partitioned.iter().sum::<usize>(), sequential[0]);
}
