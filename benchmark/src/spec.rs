//! What the benchmark measures: the workloads and every metric's name and
//! unit. `BENCHMARK.json` at the repository root states the same lists for
//! the driver; `tests/quick.rs` asserts the two agree.

/// Which driver a workload runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Driver {
    /// `Compiled::run_sequential`: every cluster at packet fidelity.
    Full,
    /// `Compiled::run_hybrid`: one cluster at packet fidelity, the rest
    /// served by the guarded learned oracle.
    Hybrid,
    /// `Compiled::run_pdes`: conservative PDES, adaptive epochs.
    Pdes,
}

/// One named workload: `scenarios/<name>.toml` on `driver`.
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "full_websearch8",
        driver: Driver::Full,
        why: "Figure 5's denominator: des dispatch and net forwarding/TCP do all the work, the oracle none",
    },
    Workload {
        name: "hybrid_websearch8_nocache",
        driver: Driver::Hybrid,
        why: "Figure 5's numerator on the miss path: every verdict is a fresh nn inference plus core feature build",
    },
    Workload {
        name: "hybrid_websearch8_cache",
        driver: Driver::Hybrid,
        why: "same oracle layer used the other way: about two thirds of the verdicts are cache lookups, not inference",
    },
    Workload {
        name: "full_rpc8",
        driver: Driver::Full,
        why: "same net/des layers, many 3-packet flows: flow start/teardown, timers and per-flow maps dominate",
    },
    Workload {
        name: "pdes_bursty2",
        driver: Driver::Pdes,
        why: "the only workload where the des::pdes barrier, marshal and exchange paths matter (2 threads)",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric's name and unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, measured with tracing off; all lower-is-better and
/// gated by the bounds in `BENCHMARK.json`.
pub const END_TO_END: &[Metric] = &[
    m("wall_ns_per_event", "ns"),
    m("peak_rss_mb", "MB"),
    m("setup_s", "s"),
];

/// Per-layer metrics (layer = crate.module), from the traced run and the
/// stand-alone probes. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("scenario.load_compile_s", "s"),
    m("scenario.flows", "count"),
    m("des.events", "count"),
    m("des.scheduled", "count"),
    m("des.cancelled", "count"),
    m("des.dispatch_ns_per_event", "ns"),
    m("des.pending_peak", "count"),
    m("des.fel_bytes_peak", "bytes"),
    m("des.hold_ns_per_op", "ns"),
    m("net.arrive_count", "count"),
    m("net.arrive_ns", "ns"),
    m("net.arrive_busy_s", "s"),
    m("net.port_free_count", "count"),
    m("net.port_free_ns", "ns"),
    m("net.port_free_busy_s", "s"),
    m("net.timer_count", "count"),
    m("net.timer_ns", "ns"),
    m("net.timer_busy_s", "s"),
    m("net.flow_start_count", "count"),
    m("net.flow_start_ns", "ns"),
    m("net.flow_start_busy_s", "s"),
    m("net.flows_completed", "count"),
    m("net.drops", "count"),
    m("net.guard_ns_per_verdict", "ns"),
    m("net.guard_busy_s", "s"),
    m("net.guard_trips", "count"),
    m("core.verdicts", "count"),
    m("core.oracle_ns_per_verdict", "ns"),
    m("core.oracle_busy_s", "s"),
    m("core.cache_hits", "count"),
    m("core.cache_misses", "count"),
    m("core.cache_invalidations", "count"),
    m("core.cache_hit_ratio", "ratio"),
    m("core.model_load_s", "s"),
    m("core.train_s", "s"),
    m("core.train_samples", "count"),
    m("core.ledger_seal_s", "s"),
    m("core.fct_w1_ratio", "ratio"),
    m("core.fct_ks", "ratio"),
    m("core.drop_rate_err", "ratio"),
    m("nn.steps", "count"),
    m("nn.step_infer_ns", "ns"),
    m("des.pdes_work_s", "s"),
    m("des.pdes_barrier_s", "s"),
    m("des.pdes_marshal_s", "s"),
    m("des.pdes_epochs", "count"),
    m("des.pdes_jumped", "count"),
    m("des.pdes_remote_events", "count"),
    m("des.pdes_remote_bytes", "bytes"),
    m("trace.coverage", "ratio"),
    m("trace.overhead", "ratio"),
    m("traced_wall_s", "s"),
    m("calib_s", "s"),
];

/// Simulated statistics that must repeat exactly for one (workload, seed):
/// every run of a workload is checked against the first on all of them,
/// and a speed-only change can show them bit-identical between commits.
pub const SIM_COUNTS: &[&str] = &[
    "des.events",
    "scenario.flows",
    "net.flows_started",
    "net.flows_completed",
    "net.delivered_bytes",
    "net.drops_host",
    "net.drops_tor",
    "net.drops_agg",
    "net.drops_core",
    "net.drops_oracle",
    "net.oracle_deliveries",
    "net.guard_trips",
    "core.verdicts",
    "core.cache_hits",
    "core.cache_misses",
    "core.cache_invalidations",
    "des.pdes_epochs",
    "des.pdes_jumped",
    "des.pdes_remote_events",
    "des.pdes_remote_bytes",
];
