//! Declarative scenarios: experiments as data files.
//!
//! Every workload the workspace could simulate used to be a hand-coded
//! bench binary; this crate makes them TOML files instead (ROADMAP item
//! 3). A scenario file declares the topology (tiers, link physics, PDES
//! partitioning), a traffic matrix (Poisson mixes, incast storms,
//! all-reduce / all-to-all collective phases, permutations), a regime
//! schedule, a PDES fault plan, guard/oracle knobs, and sampler outputs.
//! The pipeline is:
//!
//! ```text
//! scenarios/incast.toml
//!   └─ toml::parse        line-tracked TOML tree
//!       └─ Table::set     (the CLI only: each flag value is written into
//!       │                 the tree, so the decoder judges it like the file's)
//!       └─ decode         validated [`Scenario`] (typed errors w/ lines)
//!       │                 (sweep_cells: one per `[[sweep]]` cell, each
//!       │                 cell the document plus its axes' Table::set edits)
//!           └─ compile    [`Compiled`]: ClosParams + flows + FaultPlan
//!               └─ Compiled::run ─► elephant_core::execute
//!                   └─ matrix  the experiments made of runs: one run with
//!                              its oracle stack, a truth-vs-hybrid pair,
//!                              capture + train, the sweep runner
//! ```
//!
//! Runs are deterministic by `(scenario file, seed)`: compilation is a
//! pure function, and [`run_fingerprint`] condenses a run's outcome into
//! one comparable `u64` so the contract is testable end to end. The CLI
//! (`elephant run-scenario`) and `crates/bench` binaries both load
//! scenarios through [`load`]; every experiment the CLI runs — a run, the
//! pair `compare --model` and a hybrid sweep cell share, the capture and
//! training `train`, training sweeps and the quick fallback model share,
//! a whole sweep — is a function of [`matrix`], so a test or another
//! program calls it without the binary.

pub mod compile;
pub mod decode;
pub mod matrix;
pub mod schema;
pub mod toml;

use std::fmt;
use std::path::{Path, PathBuf};

pub use compile::{
    compile, fold_fingerprints, ms_to_time, run_fingerprint, CompileOverrides, Compiled, HybridSpec,
};
pub use decode::{sweep_cells, SweepCell};
pub use schema::{
    AuditSpec, FaultSpec, GuardSpec, HostSelector, LinkSpecToml, LocalitySpec, ModelSpec,
    OracleSpec, OutputSpec, PdesSpec, ProfileSpec, RecoverySpec, RegimeWindow, RunSpec, Scenario,
    SizeSpec, SweepAxis, TopologySpec, TrafficGroup, TrafficKind, TrainSpec, SCHEMA_VERSION,
};

use elephant_core::ElephantError;

/// A scenario parse or validation failure: what is wrong and on which
/// 1-based line of the file.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioError {
    /// 1-based line of the offending value (or owning table).
    pub line: u32,
    /// Diagnostic message.
    pub detail: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// Decodes and validates a scenario from TOML text.
    pub fn from_toml_str(src: &str) -> Result<Scenario, ScenarioError> {
        decode::from_toml_str(src)
    }
}

/// Loads and validates a scenario file. I/O failures map to
/// [`ElephantError::Io`], parse/validation failures to
/// [`ElephantError::Scenario`] with the offending `file:line`.
pub fn load(path: &str) -> Result<Scenario, ElephantError> {
    let src = std::fs::read_to_string(path).map_err(|e| ElephantError::Io {
        path: path.to_string(),
        source: e,
    })?;
    Scenario::from_toml_str(&src).map_err(|e| ElephantError::Scenario {
        path: path.to_string(),
        line: e.line,
        detail: e.detail,
    })
}

/// Lists the `.toml` files under `dir`, sorted by name.
pub fn list_scenarios(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ProfileSpec, SizeSpec, TrafficKind};

    /// A small but fully populated scenario exercising every section.
    fn full_doc() -> String {
        r#"
schema = 1

[scenario]
name = "kitchen-sink"
description = "every section populated"

[topology]
clusters = 2
racks_per_cluster = 2
hosts_per_rack = 4
aggs_per_cluster = 2
cores_per_group = 2
ecmp_seed = 7

[topology.host_link]
rate_gbps = 10.0
prop_delay_us = 1.0
queue_cap_bytes = 150000

[topology.fabric_link]
rate_gbps = 40.0

[topology.core_link]
ecn_threshold_bytes = 30000

[topology.pdes]
partitions = 4
machines = 2
envelope_bytes = 64

[run]
horizon_ms = 10.0
seed = 42
dctcp = true

[[traffic]]
kind = "poisson"
name = "background"
load = 0.2
window_ms = 8.0
sizes = "web-search"
locality = "cluster-heavy"
profile = "schedule"

[[traffic]]
kind = "incast"
start_ms = 1.0
senders = { cluster = 1 }
dst = [0, 0, 0]
bytes = 20000
repeat = 2
period_ms = 4.0

[[traffic]]
kind = "all-reduce"
hosts = [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]
bytes_per_step = 65536
rounds = 2
step_gap_us = 40.0

[[traffic]]
kind = "all-to-all"
hosts = { cluster = 0, rack = 0 }
bytes = 10000

[[traffic]]
kind = "permutation"
bytes = 5000

[[regime]]
start_ms = 0.0
stop_ms = 4.0
multiplier = 1.5

[[regime]]
start_ms = 4.0
stop_ms = 8.0
multiplier = 0.5

[faults]
seed = 3
drop_prob = 0.01
dup_prob = 0.005
slow_partition = { partition = 1, ms_per_epoch = 0.2 }

[guard]
enabled = true
ceiling_ms = 50.0
tolerance = 0.2
trip_limit = 16

[recovery]
enabled = true
checkpoint_every_ms = 2.0
max_retries = 3

[audit]
enabled = true
max_drop_rate_error = 0.02
max_ks = 0.4
max_w1_ratio = 0.1

[model]
path = "models/kitchen-sink.json"
full_cluster = 0
train_fallback = true

[oracle]
cache = true
cache_cap = 1024

[outputs]
sample_every_us = 100
"#
        .to_string()
    }

    #[test]
    fn full_scenario_decodes() {
        let s = Scenario::from_toml_str(&full_doc()).expect("valid scenario");
        assert_eq!(s.name, "kitchen-sink");
        assert_eq!(s.topology.clusters, 2);
        assert_eq!(s.topology.pdes.partitions, 4);
        assert_eq!(s.traffic.len(), 5);
        assert_eq!(s.regimes.len(), 2);
        assert!(s.faults.is_some());
        assert!(s.guard.is_some());
        let r = s.recovery.as_ref().expect("[recovery] decoded");
        assert!(r.enabled);
        assert_eq!(r.checkpoint_every_ms, 2.0);
        assert_eq!(r.max_retries, 3);
        let a = s.audit.as_ref().expect("[audit] decoded");
        assert!(a.enabled);
        assert_eq!(a.max_drop_rate_error, 0.02);
        assert_eq!(a.max_ks, 0.4);
        assert_eq!(a.max_w1_ratio, 0.1);
        let m = s.model.as_ref().expect("[model] decoded");
        assert_eq!(m.path.as_deref(), Some("models/kitchen-sink.json"));
        assert_eq!(m.full_cluster, Some(0));
        assert!(m.train_fallback);
        assert!(m.path_line > 0, "path provenance recorded");
        assert!(s.oracle.cache);
        assert_eq!(s.outputs.sample_every_us, Some(100));
        match &s.traffic[0].kind {
            TrafficKind::Poisson { profile, sizes, .. } => {
                assert_eq!(*profile, ProfileSpec::Schedule);
                assert_eq!(*sizes, SizeSpec::WebSearch);
            }
            other => panic!("group 0 decoded as {other:?}"),
        }
        assert_eq!(s.traffic[1].repeat, 2);
    }

    #[test]
    fn emit_round_trips() {
        let a = Scenario::from_toml_str(&full_doc()).expect("valid scenario");
        let emitted = a.to_toml_string();
        let b = Scenario::from_toml_str(&emitted)
            .unwrap_or_else(|e| panic!("emitted TOML must re-parse: {e}\n---\n{emitted}"));
        assert_eq!(a, b, "emit → decode must round-trip");
    }

    #[test]
    fn compile_is_deterministic_and_partitions_ids() {
        let s = Scenario::from_toml_str(&full_doc()).expect("valid scenario");
        let ov = CompileOverrides::default();
        let a = compile(&s, &ov);
        let b = compile(&s, &ov);
        assert_eq!(a.flows, b.flows, "compilation is pure");
        assert!(!a.flows.is_empty());
        assert_eq!(a.seed, 42);
        assert!(a.faults.is_some());
        let policy = a.recovery.expect("[recovery] lowers to a policy");
        assert_eq!(policy.checkpoint_every.as_nanos(), 2_000_000);
        assert_eq!(policy.max_retries, 3);
        // Ids live in their group blocks and keep the direction bit clear.
        for f in &a.flows {
            assert_eq!(f.id.0 & (1 << 63), 0);
            let group = f.id.0 / compile::GROUP_STRIDE;
            assert!(group < 5, "flow id {} outside group blocks", f.id.0);
        }
        // The incast group repeats: copy 1 sits one period later.
        let incast0: Vec<_> = a
            .flows
            .iter()
            .filter(|f| f.id.0 / compile::GROUP_STRIDE == 1)
            .collect();
        let reps: std::collections::BTreeSet<u64> = incast0
            .iter()
            .map(|f| f.id.0 % compile::GROUP_STRIDE / compile::REPEAT_STRIDE)
            .collect();
        assert_eq!(reps.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn overrides_replace_seed_horizon_repeat() {
        let s = Scenario::from_toml_str(&full_doc()).expect("valid scenario");
        let c = compile(
            &s,
            &CompileOverrides {
                seed: Some(7),
                horizon_ms: Some(20.0),
                repeat: Some(3),
            },
        );
        assert_eq!(c.seed, 7);
        assert_eq!(c.horizon, ms_to_time(20.0));
        let reps: std::collections::BTreeSet<u64> = c
            .flows
            .iter()
            .filter(|f| f.id.0 / compile::GROUP_STRIDE == 1)
            .map(|f| f.id.0 % compile::GROUP_STRIDE / compile::REPEAT_STRIDE)
            .collect();
        assert_eq!(reps.len(), 3, "repeat override applies");
    }

    /// Every scenario section has a rejection test; each asserts the
    /// reported line points at the offending key.
    mod rejections {
        use super::*;

        fn expect_err(doc: &str, needle: &str) -> ScenarioError {
            match Scenario::from_toml_str(doc) {
                Err(e) => {
                    assert!(
                        e.detail.contains(needle),
                        "error `{e}` should mention `{needle}`"
                    );
                    e
                }
                Ok(_) => panic!("scenario unexpectedly valid (wanted `{needle}`)"),
            }
        }

        /// Minimal valid scenario to mutate from.
        fn base() -> String {
            "schema = 1\n\
             [scenario]\n\
             name = \"t\"\n\
             [topology]\n\
             clusters = 1\n\
             racks_per_cluster = 2\n\
             hosts_per_rack = 2\n\
             [run]\n\
             horizon_ms = 1.0\n\
             [[traffic]]\n\
             kind = \"permutation\"\n\
             bytes = 1000\n"
                .to_string()
        }

        #[test]
        fn base_is_valid() {
            Scenario::from_toml_str(&base()).expect("base fixture must be valid");
        }

        #[test]
        fn unknown_schema_version() {
            let doc = base().replace("schema = 1", "schema = 99");
            let e = expect_err(&doc, "unsupported scenario schema version 99");
            assert_eq!(e.line, 1);
        }

        #[test]
        fn bad_link_rate() {
            let doc = format!("{}\n[topology.host_link]\nrate_gbps = -2.5\n", base());
            let e = expect_err(&doc, "rate_gbps: must be > 0");
            assert_eq!(e.line, 15, "line points at the bad rate");
        }

        #[test]
        fn dangling_incast_destination() {
            let doc = base().replace(
                "kind = \"permutation\"\nbytes = 1000\n",
                "kind = \"incast\"\ndst = [0, 9, 0]\nbytes = 1000\n",
            );
            let e = expect_err(&doc, "outside the topology");
            assert_eq!(e.line, 12, "line points at dst");
        }

        #[test]
        fn dangling_collective_hosts() {
            let doc = base().replace(
                "kind = \"permutation\"\nbytes = 1000\n",
                "kind = \"all-to-all\"\nhosts = { cluster = 3 }\nbytes = 1000\n",
            );
            expect_err(&doc, "outside the topology");
        }

        #[test]
        fn overlapping_regime_windows() {
            let doc = format!(
                "{}\n[[regime]]\nstart_ms = 0.0\nstop_ms = 0.6\nmultiplier = 2.0\n\
                 \n[[regime]]\nstart_ms = 0.5\nstop_ms = 1.0\nmultiplier = 0.5\n",
                base()
            );
            let e = expect_err(&doc, "overlaps");
            assert_eq!(e.line, 19, "line points at the second window");
        }

        #[test]
        fn unknown_keys_rejected_everywhere() {
            let doc = base().replace("horizon_ms = 1.0", "horizon_ms = 1.0\nhorizn_ms = 2.0");
            expect_err(&doc, "unknown key `horizn_ms`");
        }

        #[test]
        fn bad_load_and_missing_keys() {
            let doc = base().replace(
                "kind = \"permutation\"\nbytes = 1000\n",
                "kind = \"poisson\"\nload = 1.5\n",
            );
            expect_err(&doc, "load: must be in (0, 1)");
            let doc = base().replace("name = \"t\"\n", "");
            expect_err(&doc, "missing required key `name`");
        }

        #[test]
        fn fault_partition_out_of_range() {
            let doc = format!(
                "{}\n[faults]\nstall_partition = {{ partition = 9, after_epochs = 2 }}\n",
                base()
            );
            expect_err(&doc, "partition 9 out of range");
        }

        #[test]
        fn schedule_profile_needs_regimes() {
            let doc = base().replace(
                "kind = \"permutation\"\nbytes = 1000\n",
                "kind = \"poisson\"\nload = 0.2\nprofile = \"schedule\"\n",
            );
            expect_err(&doc, "no [[regime]] windows");
        }

        #[test]
        fn pdes_more_partitions_than_racks() {
            let doc = base().replace(
                "hosts_per_rack = 2\n",
                "hosts_per_rack = 2\n[topology.pdes]\npartitions = 8\n",
            );
            expect_err(&doc, "only has 2 racks");
        }

        #[test]
        fn guard_and_oracle_ranges() {
            let doc = format!("{}\n[guard]\ntolerance = 1.5\n", base());
            expect_err(&doc, "tolerance: must be in [0, 1]");
            let doc = format!("{}\n[oracle]\nfull_cluster = 0\n", base());
            expect_err(&doc, "is [model] full_cluster");
        }

        #[test]
        fn recovery_ranges_and_typos() {
            let doc = format!("{}\n[recovery]\ncheckpoint_every_ms = 0.0\n", base());
            expect_err(&doc, "checkpoint_every_ms: must be > 0");
            let doc = format!("{}\n[recovery]\nmax_retries = 0\n", base());
            expect_err(&doc, "max_retries: must be >= 1");
            let doc = format!("{}\n[recovery]\nmax_retrys = 2\n", base());
            expect_err(&doc, "unknown key `max_retrys`");
        }

        #[test]
        fn max_retries_past_u32_is_out_of_range() {
            // Read as a u32: 2^32 once wrapped to 0 retries and passed.
            for v in ["4294967296", "-1"] {
                let doc = format!("{}\n[recovery]\nmax_retries = {v}\n", base());
                expect_err(
                    &doc,
                    &format!("recovery.max_retries: out of range, got {v}"),
                );
            }
            let doc = format!("{}\n[recovery]\nmax_retries = 4294967295\n", base());
            let s = Scenario::from_toml_str(&doc).expect("u32::MAX is in range");
            assert_eq!(s.recovery.expect("declared").max_retries, u32::MAX);
        }

        #[test]
        fn audit_ranges_and_typos() {
            let doc = format!("{}\n[audit]\nmax_ks = 1.5\n", base());
            expect_err(&doc, "max_ks: must be in [0, 1]");
            let doc = format!("{}\n[audit]\nmax_w1_ratio = 0.0\n", base());
            expect_err(&doc, "max_w1_ratio: must be > 0");
            let doc = format!("{}\n[audit]\nmax_kss = 0.2\n", base());
            expect_err(&doc, "unknown key `max_kss`");
        }

        #[test]
        fn model_rejections() {
            let doc = format!("{}\n[model]\nfull_cluster = 4\n", base());
            expect_err(&doc, "model.full_cluster: cluster 4 out of range");
            let doc = format!("{}\n[model]\npath = 7\n", base());
            expect_err(&doc, "model.path: expected a string");
            let doc = format!("{}\n[model]\npath = \"\"\n", base());
            expect_err(&doc, "model.path: must be non-empty");
            let doc = format!("{}\n[model]\npaths = \"m.json\"\n", base());
            expect_err(&doc, "unknown key `paths`");
            let doc = format!("{}\n[model]\ntrain_fallback = 1\n", base());
            expect_err(&doc, "model.train_fallback: expected a boolean");
        }

        #[test]
        fn model_section_lowers_into_hybrid_spec() {
            // No [model]: the hybrid spec still lowers [oracle]/[guard]
            // defaults but is not marked declared.
            let s = Scenario::from_toml_str(&base()).expect("valid scenario");
            let c = compile(&s, &CompileOverrides::default());
            assert!(!c.hybrid.model_declared);
            assert!(c.hybrid.model_path.is_none());
            assert_eq!(c.hybrid.full_cluster, 0);
            assert!(!c.hybrid.cache);
            let g = c.hybrid.guard.expect("guard defaults on");
            assert_eq!(g.latency_ceiling.as_nanos(), 100_000_000);

            // [model] picks the full cluster; the model path line points
            // into the document.
            let doc = format!(
                "{}\n[model]\npath = \"m.json\"\nfull_cluster = 1\n\
                 [oracle]\ncache = true\ncache_cap = 9\n",
                base().replace("clusters = 1", "clusters = 2")
            );
            let s = Scenario::from_toml_str(&doc).expect("valid scenario");
            let c = compile(&s, &CompileOverrides::default());
            assert!(c.hybrid.model_declared);
            assert_eq!(c.hybrid.model_path.as_deref(), Some("m.json"));
            assert!(c.hybrid.model_line > 0);
            assert_eq!(c.hybrid.full_cluster, 1);
            assert!(c.hybrid.cache);
            assert_eq!(c.hybrid.cache_cap, 9);
        }

        #[test]
        fn train_section_rules_and_lowering() {
            let two = base().replace("clusters = 1", "clusters = 2");
            for key in ["hidden", "layers", "epochs"] {
                let doc = format!("{two}\n[train]\n{key} = 0\n");
                let e = expect_err(&doc, &format!("train.{key}: must be >= 1"));
                assert_eq!(e.line, 15, "{e}");
            }
            for (value, needle) in [
                ("0", "train.alpha: must be in (0, 1], got 0"),
                ("-0.5", "train.alpha: must be in (0, 1], got -0.5"),
                ("1.5", "train.alpha: must be in (0, 1], got 1.5"),
                ("1e-60", "train.alpha: must be in (0, 1]"),
                ("1e400", "train.alpha: must be finite"),
                ("\"half\"", "train.alpha: expected a number"),
            ] {
                let e = expect_err(&format!("{two}\n[train]\nalpha = {value}\n"), needle);
                assert_eq!(e.line, 15, "{e}");
            }
            let e = expect_err(
                &format!("{two}\n[train]\nmacro_state = 0\n"),
                "train.macro_state: expected a boolean",
            );
            assert_eq!(e.line, 15, "{e}");
            expect_err(
                &format!("{two}\n[train]\nwidth = 8\n"),
                "unknown key `width`",
            );
            let both = format!("{two}\n[model]\ntrain_fallback = true\n[train]\n");
            expect_err(&both, "not both");
            expect_err(
                &format!("{}\n[train]\n", base()),
                "topology.clusters must be >= 2",
            );

            // Unset keys are the workspace's training defaults; the section
            // round-trips through the emitter.
            let doc = format!("{two}\n[train]\nhidden = 8\nalpha = 0.25\nmacro_state = false\n");
            let s = Scenario::from_toml_str(&doc).expect("valid scenario");
            let emitted = Scenario::from_toml_str(&s.to_toml_string()).expect("re-parses");
            assert_eq!(s, emitted, "emit → decode must round-trip");
            let opts = compile(&s, &CompileOverrides::default())
                .train
                .expect("lowered");
            let default = elephant_core::TrainingOptions::default();
            assert_eq!((opts.hidden, opts.layers, opts.epochs), (8, 2, 8));
            assert_eq!((opts.alpha, opts.macro_state), (0.25, false));
            assert_eq!((opts.window, opts.seed), (default.window, default.seed));
            let bare = Scenario::from_toml_str(&format!("{two}\n[train]\n")).expect("valid");
            let opts = compile(&bare, &CompileOverrides::default())
                .train
                .expect("lowered");
            assert_eq!((opts.alpha, opts.macro_state), (0.5, true));
            let plain = Scenario::from_toml_str(&two).expect("valid scenario");
            assert!(compile(&plain, &CompileOverrides::default())
                .train
                .is_none());
        }

        #[test]
        fn disabled_guard_lowers_to_none() {
            let doc = format!("{}\n[guard]\nenabled = false\n", base());
            let s = Scenario::from_toml_str(&doc).expect("valid scenario");
            let c = compile(&s, &CompileOverrides::default());
            assert!(c.hybrid.guard.is_none(), "disabled [guard] lowers to None");
        }

        #[test]
        fn disabled_audit_compiles_to_none() {
            let doc = format!("{}\n[audit]\nenabled = false\n", base());
            let s = Scenario::from_toml_str(&doc).expect("valid scenario");
            let c = compile(&s, &CompileOverrides::default());
            assert!(c.audit_bounds.is_none(), "disabled [audit] lowers to None");
        }

        #[test]
        fn audit_bounds_lower_into_compiled() {
            let doc = format!("{}\n[audit]\nmax_ks = 0.2\n", base());
            let s = Scenario::from_toml_str(&doc).expect("valid scenario");
            let c = compile(&s, &CompileOverrides::default());
            let b = c.audit_bounds.expect("[audit] lowers to bounds");
            assert_eq!(b.max_ks, 0.2);
            assert_eq!(b.max_drop_rate_error, 0.01, "unset bounds keep defaults");
        }

        #[test]
        fn disabled_recovery_compiles_to_none() {
            let doc = format!("{}\n[recovery]\nenabled = false\n", base());
            let s = Scenario::from_toml_str(&doc).expect("valid scenario");
            let c = compile(&s, &CompileOverrides::default());
            assert!(c.recovery.is_none(), "disabled [recovery] lowers to None");
        }

        #[test]
        fn incast_needs_senders_besides_dst() {
            // One rack of one host: the only host is the destination.
            let doc = base()
                .replace("racks_per_cluster = 2", "racks_per_cluster = 1")
                .replace("hosts_per_rack = 2", "hosts_per_rack = 1")
                .replace(
                    "kind = \"permutation\"\nbytes = 1000\n",
                    "kind = \"incast\"\ndst = [0, 0, 0]\nbytes = 1000\n",
                );
            expect_err(&doc, "no senders remain");
        }
    }
}
