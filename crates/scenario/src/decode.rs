//! Decoding + validation: parsed TOML → [`Scenario`].
//!
//! Every rejection carries the 1-based line of the offending value (or of
//! the table that should have held a missing key), so callers can report
//! `file:line` diagnostics. Validation is structural *and* semantic:
//! unknown keys, wrong types, out-of-range link physics, dangling host
//! selectors, overlapping regime windows, and schema-version mismatches
//! are all rejected here, before anything touches the engines.

use crate::schema::{
    AuditSpec, FaultSpec, GuardSpec, HostSelector, LinkSpecToml, LocalitySpec, ModelSpec,
    OracleSpec, OutputSpec, PdesSpec, ProfileSpec, RecoverySpec, RegimeWindow, RunSpec, Scenario,
    SizeSpec, SweepAxis, TopologySpec, TrafficGroup, TrafficKind, TrainSpec, SCHEMA_VERSION,
};
use crate::toml::{self, Spanned, Table, TomlValue};
use crate::ScenarioError;
use elephant_net::ClosParams;

fn err(line: u32, msg: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line,
        detail: msg.into(),
    }
}

fn type_err(s: &Spanned, what: &str, wanted: &str) -> ScenarioError {
    err(
        s.line,
        format!("{what}: expected {wanted}, found {}", s.value.type_name()),
    )
}

fn table_of<'a>(s: &'a Spanned, what: &str) -> Result<&'a Table, ScenarioError> {
    match &s.value {
        TomlValue::Table(t) => Ok(t),
        _ => Err(type_err(s, what, "a table")),
    }
}

fn array_of<'a>(s: &'a Spanned, what: &str) -> Result<&'a [Spanned], ScenarioError> {
    match &s.value {
        TomlValue::Array(items) => Ok(items),
        _ => Err(type_err(s, what, "an array")),
    }
}

fn str_of<'a>(s: &'a Spanned, what: &str) -> Result<&'a str, ScenarioError> {
    match &s.value {
        TomlValue::Str(v) => Ok(v),
        _ => Err(type_err(s, what, "a string")),
    }
}

fn bool_of(s: &Spanned, what: &str) -> Result<bool, ScenarioError> {
    match &s.value {
        TomlValue::Bool(v) => Ok(*v),
        _ => Err(type_err(s, what, "a boolean")),
    }
}

fn int_of(s: &Spanned, what: &str) -> Result<i64, ScenarioError> {
    match &s.value {
        TomlValue::Int(v) => Ok(*v),
        _ => Err(type_err(s, what, "an integer")),
    }
}

fn float_of(s: &Spanned, what: &str) -> Result<f64, ScenarioError> {
    let v = match &s.value {
        TomlValue::Float(v) => *v,
        TomlValue::Int(v) => *v as f64,
        _ => return Err(type_err(s, what, "a number")),
    };
    if v.is_finite() {
        Ok(v)
    } else {
        Err(err(s.line, format!("{what}: must be finite, got {v}")))
    }
}

fn u64_of(s: &Spanned, what: &str) -> Result<u64, ScenarioError> {
    let v = int_of(s, what)?;
    u64::try_from(v).map_err(|_| err(s.line, format!("{what}: must be non-negative, got {v}")))
}

fn u32_of(s: &Spanned, what: &str) -> Result<u32, ScenarioError> {
    let v = int_of(s, what)?;
    u32::try_from(v).map_err(|_| err(s.line, format!("{what}: out of range, got {v}")))
}

fn u16_of(s: &Spanned, what: &str) -> Result<u16, ScenarioError> {
    let v = int_of(s, what)?;
    u16::try_from(v).map_err(|_| err(s.line, format!("{what}: out of range, got {v}")))
}

fn usize_of(s: &Spanned, what: &str) -> Result<usize, ScenarioError> {
    let v = int_of(s, what)?;
    usize::try_from(v).map_err(|_| err(s.line, format!("{what}: must be non-negative, got {v}")))
}

fn req<'a>(t: &'a Table, key: &str, what: &str) -> Result<&'a Spanned, ScenarioError> {
    t.get(key)
        .ok_or_else(|| err(t.line, format!("{what}: missing required key `{key}`")))
}

/// Rejects keys outside `allowed` (typo defense: a silently ignored knob
/// is a misconfigured experiment).
fn reject_unknown(t: &Table, what: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    for (k, v) in &t.entries {
        if !allowed.contains(&k.as_str()) {
            return Err(err(
                v.line,
                format!(
                    "{what}: unknown key `{k}` (expected one of: {})",
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

fn positive(v: f64, line: u32, what: &str) -> Result<f64, ScenarioError> {
    if v > 0.0 {
        Ok(v)
    } else {
        Err(err(line, format!("{what}: must be > 0, got {v}")))
    }
}

fn non_negative(v: f64, line: u32, what: &str) -> Result<f64, ScenarioError> {
    if v >= 0.0 {
        Ok(v)
    } else {
        Err(err(line, format!("{what}: must be >= 0, got {v}")))
    }
}

fn probability(v: f64, line: u32, what: &str) -> Result<f64, ScenarioError> {
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(err(line, format!("{what}: must be in [0, 1], got {v}")))
    }
}

/// Parses, decodes and validates a scenario document.
pub fn from_toml_str(src: &str) -> Result<Scenario, ScenarioError> {
    from_table(&toml::parse(src).map_err(|e| err(e.line, e.msg))?)
}

/// Decodes and validates a parsed scenario document — the one validator:
/// the CLI applies its flags to `root` with [`Table::set`] first, so a
/// value is judged by the same rules whether a file or a flag spelled it.
pub fn from_table(root: &Table) -> Result<Scenario, ScenarioError> {
    reject_unknown(
        root,
        "scenario file",
        &[
            "schema", "scenario", "topology", "run", "traffic", "regime", "faults", "guard",
            "recovery", "audit", "model", "train", "oracle", "outputs", "sweep",
        ],
    )?;

    let schema = req(root, "schema", "scenario file")?;
    let version = int_of(schema, "schema")?;
    if version != SCHEMA_VERSION {
        return Err(err(
            schema.line,
            format!(
                "unsupported scenario schema version {version} (this build reads {SCHEMA_VERSION})"
            ),
        ));
    }

    let (name, description) = decode_scenario_header(root)?;
    let topology = decode_topology(table_of(
        req(root, "topology", "scenario file")?,
        "topology",
    )?)?;
    let run = decode_run(table_of(req(root, "run", "scenario file")?, "run")?)?;

    let traffic_items = array_of(req(root, "traffic", "scenario file")?, "traffic")?;
    if traffic_items.is_empty() {
        return Err(err(root.line, "scenario declares no [[traffic]] groups"));
    }
    let mut traffic = Vec::with_capacity(traffic_items.len());
    for (idx, item) in traffic_items.iter().enumerate() {
        let what = format!("[[traffic]] group {idx}");
        traffic.push(decode_traffic(table_of(item, &what)?, idx, &topology)?);
    }

    let regimes = match root.get("regime") {
        None => Vec::new(),
        Some(s) => decode_regimes(array_of(s, "regime")?)?,
    };
    for g in &traffic {
        if let TrafficKind::Poisson {
            profile: ProfileSpec::Schedule,
            ..
        } = g.kind
        {
            if regimes.is_empty() {
                return Err(err(
                    root.line,
                    format!(
                        "traffic group `{}` uses profile = \"schedule\" but the scenario has no \
                         [[regime]] windows",
                        g.name
                    ),
                ));
            }
        }
    }

    let faults = match root.get("faults") {
        None => None,
        Some(s) => Some(decode_faults(table_of(s, "faults")?, &topology.pdes)?),
    };
    let guard = match root.get("guard") {
        None => None,
        Some(s) => Some(decode_guard(table_of(s, "guard")?)?),
    };
    let recovery = match root.get("recovery") {
        None => None,
        Some(s) => Some(decode_recovery(table_of(s, "recovery")?)?),
    };
    let audit = match root.get("audit") {
        None => None,
        Some(s) => Some(decode_audit(table_of(s, "audit")?)?),
    };
    let model = match root.get("model") {
        None => None,
        Some(s) => Some(decode_model(table_of(s, "model")?, &topology)?),
    };
    let train = match root.get("train") {
        None => None,
        Some(s) if model.is_some() => {
            return Err(err(
                s.line,
                "[train]: a document either trains a model ([train]) or deploys one \
                 ([model]), not both",
            ))
        }
        Some(s) if topology.clusters < 2 => {
            return Err(err(
                s.line,
                "[train]: the capture records cluster 1's boundary, so topology.clusters \
                 must be >= 2",
            ))
        }
        Some(s) => Some(decode_train(table_of(s, "train")?)?),
    };
    let oracle = match root.get("oracle") {
        None => OracleSpec::default(),
        Some(s) => decode_oracle(table_of(s, "oracle")?)?,
    };
    let outputs = match root.get("outputs") {
        None => OutputSpec::default(),
        Some(s) => decode_outputs(table_of(s, "outputs")?)?,
    };
    let sweep = match root.get("sweep") {
        None => Vec::new(),
        Some(s) => decode_sweep(array_of(s, "sweep")?)?,
    };

    Ok(Scenario {
        name,
        description,
        topology,
        run,
        traffic,
        regimes,
        faults,
        guard,
        recovery,
        audit,
        model,
        train,
        oracle,
        outputs,
        sweep,
    })
}

fn decode_scenario_header(root: &Table) -> Result<(String, String), ScenarioError> {
    let t = table_of(req(root, "scenario", "scenario file")?, "scenario")?;
    reject_unknown(t, "[scenario]", &["name", "description"])?;
    let name_v = req(t, "name", "[scenario]")?;
    let name = str_of(name_v, "scenario.name")?.to_string();
    if name.is_empty() {
        return Err(err(name_v.line, "scenario.name: must be non-empty"));
    }
    let description = match t.get("description") {
        None => String::new(),
        Some(s) => str_of(s, "scenario.description")?.to_string(),
    };
    Ok((name, description))
}

fn decode_link(t: &Table, what: &str) -> Result<LinkSpecToml, ScenarioError> {
    reject_unknown(
        t,
        what,
        &[
            "rate_gbps",
            "prop_delay_us",
            "queue_cap_bytes",
            "ecn_threshold_bytes",
        ],
    )?;
    let mut link = LinkSpecToml::ten_gbe();
    if let Some(s) = t.get("rate_gbps") {
        let w = format!("{what}.rate_gbps");
        link.rate_gbps = positive(float_of(s, &w)?, s.line, &w)?;
    }
    if let Some(s) = t.get("prop_delay_us") {
        let w = format!("{what}.prop_delay_us");
        link.prop_delay_us = non_negative(float_of(s, &w)?, s.line, &w)?;
    }
    if let Some(s) = t.get("queue_cap_bytes") {
        let w = format!("{what}.queue_cap_bytes");
        let v = u64_of(s, &w)?;
        if v == 0 {
            return Err(err(s.line, format!("{w}: must be > 0")));
        }
        link.queue_cap_bytes = v;
    }
    if let Some(s) = t.get("ecn_threshold_bytes") {
        let w = format!("{what}.ecn_threshold_bytes");
        let v = u64_of(s, &w)?;
        if v == 0 {
            return Err(err(s.line, format!("{w}: must be > 0")));
        }
        link.ecn_threshold_bytes = Some(v);
    }
    Ok(link)
}

fn decode_topology(t: &Table) -> Result<TopologySpec, ScenarioError> {
    reject_unknown(
        t,
        "[topology]",
        &[
            "clusters",
            "racks_per_cluster",
            "hosts_per_rack",
            "aggs_per_cluster",
            "cores_per_group",
            "ecmp_seed",
            "host_link",
            "fabric_link",
            "core_link",
            "pdes",
        ],
    )?;
    let count = |key: &str| -> Result<Option<u16>, ScenarioError> {
        match t.get(key) {
            None => Ok(None),
            Some(s) => {
                let w = format!("topology.{key}");
                let v = u16_of(s, &w)?;
                if v == 0 {
                    return Err(err(s.line, format!("{w}: must be >= 1")));
                }
                Ok(Some(v))
            }
        }
    };
    let clusters = count("clusters")?
        .ok_or_else(|| err(t.line, "[topology]: missing required key `clusters`"))?;
    // Unspecified tier widths fall back to the paper's cluster shape.
    let base = ClosParams::paper_cluster(clusters);
    let racks_per_cluster = count("racks_per_cluster")?.unwrap_or(base.racks_per_cluster);
    let hosts_per_rack = count("hosts_per_rack")?.unwrap_or(base.hosts_per_rack);
    let aggs_per_cluster = count("aggs_per_cluster")?.unwrap_or(base.aggs_per_cluster);
    let cores_per_group = count("cores_per_group")?.unwrap_or(base.cores_per_group);
    let ecmp_seed = match t.get("ecmp_seed") {
        None => base.ecmp_seed,
        Some(s) => u64_of(s, "topology.ecmp_seed")?,
    };
    let link = |key: &str| -> Result<LinkSpecToml, ScenarioError> {
        match t.get(key) {
            None => Ok(LinkSpecToml::ten_gbe()),
            Some(s) => {
                let w = format!("[topology.{key}]");
                decode_link(table_of(s, &w)?, &w)
            }
        }
    };
    let (pdes, pdes_explicit) = match t.get("pdes") {
        None => (PdesSpec::default(), false),
        Some(s) => (decode_pdes(table_of(s, "[topology.pdes]")?)?, true),
    };
    let mut spec = TopologySpec {
        clusters,
        racks_per_cluster,
        hosts_per_rack,
        aggs_per_cluster,
        cores_per_group,
        host_link: link("host_link")?,
        fabric_link: link("fabric_link")?,
        core_link: link("core_link")?,
        ecmp_seed,
        pdes,
    };
    let racks = spec.clusters as usize * spec.racks_per_cluster as usize;
    if !pdes_explicit {
        // The implicit default should fit any topology; only an explicit
        // [topology.pdes] request can be over-partitioned.
        spec.pdes.partitions = spec.pdes.partitions.min(racks.max(1));
        spec.pdes.machines = spec.pdes.machines.min(spec.pdes.partitions);
    }
    if spec.pdes.partitions > racks {
        return Err(err(
            t.at("pdes.partitions").map_or(t.line, |s| s.line),
            format!(
                "topology.pdes.partitions: {} partitions but the topology only has {racks} racks",
                spec.pdes.partitions
            ),
        ));
    }
    Ok(spec)
}

fn decode_pdes(t: &Table) -> Result<PdesSpec, ScenarioError> {
    reject_unknown(
        t,
        "[topology.pdes]",
        &["partitions", "machines", "envelope_bytes"],
    )?;
    let mut spec = PdesSpec::default();
    let field = |key: &str, min: usize| -> Result<Option<usize>, ScenarioError> {
        match t.get(key) {
            None => Ok(None),
            Some(s) => {
                let w = format!("topology.pdes.{key}");
                let v = usize_of(s, &w)?;
                if v < min {
                    return Err(err(s.line, format!("{w}: must be >= {min}, got {v}")));
                }
                Ok(Some(v))
            }
        }
    };
    if let Some(v) = field("partitions", 1)? {
        spec.partitions = v;
    }
    if let Some(v) = field("machines", 1)? {
        spec.machines = v;
    }
    if let Some(v) = field("envelope_bytes", 0)? {
        spec.envelope_bytes = v;
    }
    if spec.machines > spec.partitions {
        return Err(err(
            t.get("machines").map_or(t.line, |s| s.line),
            format!(
                "topology.pdes: {} machines cannot host {} partitions",
                spec.machines, spec.partitions
            ),
        ));
    }
    Ok(spec)
}

fn decode_run(t: &Table) -> Result<RunSpec, ScenarioError> {
    reject_unknown(t, "[run]", &["horizon_ms", "seed", "dctcp"])?;
    let h = req(t, "horizon_ms", "[run]")?;
    let horizon_ms = positive(float_of(h, "run.horizon_ms")?, h.line, "run.horizon_ms")?;
    let seed = match t.get("seed") {
        None => 0,
        Some(s) => u64_of(s, "run.seed")?,
    };
    let dctcp = match t.get("dctcp") {
        None => false,
        Some(s) => bool_of(s, "run.dctcp")?,
    };
    Ok(RunSpec {
        horizon_ms,
        seed,
        dctcp,
    })
}

fn decode_host_triple(s: &Spanned, what: &str) -> Result<(u16, u16, u16), ScenarioError> {
    let items = array_of(s, what)?;
    if items.len() != 3 {
        return Err(err(
            s.line,
            format!(
                "{what}: expected [cluster, rack, host], got {} items",
                items.len()
            ),
        ));
    }
    let part = |i: usize, name: &str| u16_of(&items[i], &format!("{what}.{name}"));
    Ok((part(0, "cluster")?, part(1, "rack")?, part(2, "host")?))
}

fn decode_selector(s: &Spanned, what: &str) -> Result<HostSelector, ScenarioError> {
    match &s.value {
        TomlValue::Str(v) if v == "all" => Ok(HostSelector::All),
        TomlValue::Str(v) => Err(err(
            s.line,
            format!("{what}: unknown selector `{v}` (expected \"all\", a table, or a list)"),
        )),
        TomlValue::Table(t) => {
            reject_unknown(t, what, &["cluster", "rack"])?;
            let c = u16_of(req(t, "cluster", what)?, &format!("{what}.cluster"))?;
            match t.get("rack") {
                None => Ok(HostSelector::Cluster(c)),
                Some(r) => Ok(HostSelector::Rack(c, u16_of(r, &format!("{what}.rack"))?)),
            }
        }
        TomlValue::Array(items) => {
            if items.is_empty() {
                return Err(err(s.line, format!("{what}: host list is empty")));
            }
            let mut list = Vec::with_capacity(items.len());
            for item in items {
                list.push(decode_host_triple(item, what)?);
            }
            Ok(HostSelector::List(list))
        }
        _ => Err(type_err(
            s,
            what,
            "\"all\", a {cluster, rack} table, or a host list",
        )),
    }
}

/// Checks a selector resolves to in-range hosts, pointing at `line` on
/// failure.
fn check_selector(
    sel: &HostSelector,
    topo: &TopologySpec,
    line: u32,
    what: &str,
) -> Result<(), ScenarioError> {
    if let Some((c, r, h)) = sel.dangling(topo) {
        return Err(err(
            line,
            format!(
                "{what}: host [{c}, {r}, {h}] is outside the topology \
                 ({} clusters x {} racks x {} hosts)",
                topo.clusters, topo.racks_per_cluster, topo.hosts_per_rack
            ),
        ));
    }
    Ok(())
}

fn decode_sizes(s: &Spanned, what: &str) -> Result<SizeSpec, ScenarioError> {
    match &s.value {
        TomlValue::Str(v) if v == "web-search" => Ok(SizeSpec::WebSearch),
        TomlValue::Str(v) if v == "data-mining" => Ok(SizeSpec::DataMining),
        TomlValue::Str(v) => Err(err(
            s.line,
            format!(
                "{what}: unknown size distribution `{v}` \
                 (expected \"web-search\", \"data-mining\", or {{ fixed = BYTES }})"
            ),
        )),
        TomlValue::Table(t) => {
            reject_unknown(t, what, &["fixed"])?;
            let f = req(t, "fixed", what)?;
            let bytes = u64_of(f, &format!("{what}.fixed"))?;
            if bytes == 0 {
                return Err(err(f.line, format!("{what}.fixed: must be > 0")));
            }
            Ok(SizeSpec::Fixed(bytes))
        }
        _ => Err(type_err(
            s,
            what,
            "a distribution name or { fixed = BYTES }",
        )),
    }
}

fn decode_locality(s: &Spanned, what: &str) -> Result<LocalitySpec, ScenarioError> {
    match &s.value {
        TomlValue::Str(v) if v == "cluster-heavy" => Ok(LocalitySpec::cluster_heavy()),
        TomlValue::Str(v) if v == "leaf-spine" => Ok(LocalitySpec::leaf_spine()),
        TomlValue::Str(v) => Err(err(
            s.line,
            format!(
                "{what}: unknown locality mix `{v}` (expected \"cluster-heavy\" or \"leaf-spine\")"
            ),
        )),
        TomlValue::Table(t) => {
            reject_unknown(t, what, &["rack_local", "intra_cluster", "inter_cluster"])?;
            let weight = |key: &str| -> Result<f64, ScenarioError> {
                let w = format!("{what}.{key}");
                let s = req(t, key, what)?;
                non_negative(float_of(s, &w)?, s.line, &w)
            };
            let mix = LocalitySpec {
                rack_local: weight("rack_local")?,
                intra_cluster: weight("intra_cluster")?,
                inter_cluster: weight("inter_cluster")?,
            };
            if mix.rack_local + mix.intra_cluster + mix.inter_cluster <= 0.0 {
                return Err(err(s.line, format!("{what}: weights sum to zero")));
            }
            Ok(mix)
        }
        _ => Err(type_err(s, what, "a mix name or a weight table")),
    }
}

fn decode_profile(s: &Spanned, what: &str) -> Result<ProfileSpec, ScenarioError> {
    match &s.value {
        TomlValue::Str(v) if v == "constant" => Ok(ProfileSpec::Constant),
        TomlValue::Str(v) if v == "schedule" => Ok(ProfileSpec::Schedule),
        TomlValue::Str(v) => Err(err(
            s.line,
            format!(
                "{what}: unknown profile `{v}` \
                 (expected \"constant\", \"schedule\", or {{ sinusoid = ... }})"
            ),
        )),
        TomlValue::Table(t) => {
            reject_unknown(t, what, &["sinusoid"])?;
            let sin = table_of(req(t, "sinusoid", what)?, &format!("{what}.sinusoid"))?;
            let w = format!("{what}.sinusoid");
            reject_unknown(sin, &w, &["period_ms", "min", "max"])?;
            let field = |key: &str| -> Result<(f64, u32), ScenarioError> {
                let s = req(sin, key, &w)?;
                Ok((float_of(s, &format!("{w}.{key}"))?, s.line))
            };
            let (period_ms, pl) = field("period_ms")?;
            positive(period_ms, pl, &format!("{w}.period_ms"))?;
            let (min, ml) = field("min")?;
            non_negative(min, ml, &format!("{w}.min"))?;
            let (max, xl) = field("max")?;
            positive(max, xl, &format!("{w}.max"))?;
            if min > max {
                return Err(err(ml, format!("{w}: min {min} exceeds max {max}")));
            }
            Ok(ProfileSpec::Sinusoid {
                period_ms,
                min,
                max,
            })
        }
        _ => Err(type_err(s, what, "a profile name or { sinusoid = ... }")),
    }
}

fn decode_traffic(
    t: &Table,
    idx: usize,
    topo: &TopologySpec,
) -> Result<TrafficGroup, ScenarioError> {
    let what = format!("[[traffic]] group {idx}");
    let kind_v = req(t, "kind", &what)?;
    let kind_name = str_of(kind_v, &format!("{what}.kind"))?;

    let name = match t.get("name") {
        None => format!("group{idx}"),
        Some(s) => str_of(s, &format!("{what}.name"))?.to_string(),
    };
    let start_ms = match t.get("start_ms") {
        None => 0.0,
        Some(s) => {
            let w = format!("{what}.start_ms");
            non_negative(float_of(s, &w)?, s.line, &w)?
        }
    };
    let repeat = match t.get("repeat") {
        None => 1,
        Some(s) => {
            let w = format!("{what}.repeat");
            let v = u32_of(s, &w)?;
            // Upper bound keeps repeat-strided flow ids inside one group's
            // id block (see `compile::REPEAT_STRIDE`).
            if !(1..=999).contains(&v) {
                return Err(err(s.line, format!("{w}: must be in 1..=999, got {v}")));
            }
            v
        }
    };
    let period_ms = match t.get("period_ms") {
        None => {
            if repeat > 1 {
                return Err(err(
                    t.line,
                    format!("{what}: repeat = {repeat} requires `period_ms`"),
                ));
            }
            0.0
        }
        Some(s) => {
            let w = format!("{what}.period_ms");
            positive(float_of(s, &w)?, s.line, &w)?
        }
    };

    let common = &["kind", "name", "start_ms", "repeat", "period_ms"];
    let allowed = |extra: &[&'static str]| -> Vec<&'static str> {
        common.iter().chain(extra.iter()).copied().collect()
    };

    let kind = match kind_name {
        "poisson" => {
            reject_unknown(
                t,
                &what,
                &allowed(&["load", "window_ms", "sizes", "locality", "profile"]),
            )?;
            let l = req(t, "load", &what)?;
            let load = float_of(l, &format!("{what}.load"))?;
            if !(load > 0.0 && load < 1.0) {
                return Err(err(
                    l.line,
                    format!("{what}.load: must be in (0, 1), got {load}"),
                ));
            }
            let window_ms = match t.get("window_ms") {
                None => None,
                Some(w) => Some(positive(
                    float_of(w, &format!("{what}.window_ms"))?,
                    w.line,
                    &format!("{what}.window_ms"),
                )?),
            };
            let sizes = match t.get("sizes") {
                None => SizeSpec::WebSearch,
                Some(s) => decode_sizes(s, &format!("{what}.sizes"))?,
            };
            let locality = match t.get("locality") {
                None if topo.clusters > 1 => LocalitySpec::cluster_heavy(),
                None => LocalitySpec::leaf_spine(),
                Some(s) => decode_locality(s, &format!("{what}.locality"))?,
            };
            let profile = match t.get("profile") {
                None => ProfileSpec::Constant,
                Some(s) => decode_profile(s, &format!("{what}.profile"))?,
            };
            if topo.clusters == 1 && locality.inter_cluster > 0.0 {
                return Err(err(
                    t.line,
                    format!(
                        "{what}.locality: inter_cluster weight > 0 but the topology has one cluster"
                    ),
                ));
            }
            TrafficKind::Poisson {
                load,
                sizes,
                locality,
                window_ms,
                profile,
            }
        }
        "incast" => {
            reject_unknown(t, &what, &allowed(&["senders", "dst", "bytes"]))?;
            let senders = match t.get("senders") {
                None => HostSelector::All,
                Some(s) => {
                    let sel = decode_selector(s, &format!("{what}.senders"))?;
                    check_selector(&sel, topo, s.line, &format!("{what}.senders"))?;
                    sel
                }
            };
            let d = req(t, "dst", &what)?;
            let dst = decode_host_triple(d, &format!("{what}.dst"))?;
            if !topo.contains(dst.0, dst.1, dst.2) {
                return Err(err(
                    d.line,
                    format!(
                        "{what}.dst: host [{}, {}, {}] is outside the topology",
                        dst.0, dst.1, dst.2
                    ),
                ));
            }
            let b = req(t, "bytes", &what)?;
            let bytes = u64_of(b, &format!("{what}.bytes"))?;
            if bytes == 0 {
                return Err(err(b.line, format!("{what}.bytes: must be > 0")));
            }
            let n_senders = senders
                .expand(topo)
                .iter()
                .filter(|a| (a.cluster, a.rack, a.host) != dst)
                .count();
            if n_senders == 0 {
                return Err(err(
                    t.line,
                    format!("{what}: no senders remain after excluding the destination"),
                ));
            }
            TrafficKind::Incast {
                senders,
                dst,
                bytes,
            }
        }
        "all-reduce" => {
            reject_unknown(
                t,
                &what,
                &allowed(&["hosts", "bytes_per_step", "rounds", "step_gap_us"]),
            )?;
            let hosts = decode_participants(t, topo, &what)?;
            let b = req(t, "bytes_per_step", &what)?;
            let bytes_per_step = u64_of(b, &format!("{what}.bytes_per_step"))?;
            if bytes_per_step == 0 {
                return Err(err(b.line, format!("{what}.bytes_per_step: must be > 0")));
            }
            let rounds = match t.get("rounds") {
                None => 1,
                Some(s) => {
                    let w = format!("{what}.rounds");
                    let v = u32_of(s, &w)?;
                    if v == 0 {
                        return Err(err(s.line, format!("{w}: must be >= 1")));
                    }
                    v
                }
            };
            TrafficKind::AllReduce {
                hosts,
                bytes_per_step,
                rounds,
                step_gap_us: decode_step_gap(t, &what)?,
            }
        }
        "all-to-all" => {
            reject_unknown(t, &what, &allowed(&["hosts", "bytes", "step_gap_us"]))?;
            let hosts = decode_participants(t, topo, &what)?;
            let b = req(t, "bytes", &what)?;
            let bytes = u64_of(b, &format!("{what}.bytes"))?;
            if bytes == 0 {
                return Err(err(b.line, format!("{what}.bytes: must be > 0")));
            }
            TrafficKind::AllToAll {
                hosts,
                bytes,
                step_gap_us: decode_step_gap(t, &what)?,
            }
        }
        "permutation" => {
            reject_unknown(t, &what, &allowed(&["bytes"]))?;
            let b = req(t, "bytes", &what)?;
            let bytes = u64_of(b, &format!("{what}.bytes"))?;
            if bytes == 0 {
                return Err(err(b.line, format!("{what}.bytes: must be > 0")));
            }
            TrafficKind::Permutation { bytes }
        }
        other => {
            return Err(err(
                kind_v.line,
                format!(
                    "{what}.kind: unknown kind `{other}` (expected poisson, incast, \
                     all-reduce, all-to-all, or permutation)"
                ),
            ))
        }
    };

    Ok(TrafficGroup {
        name,
        start_ms,
        repeat,
        period_ms,
        kind,
    })
}

/// Decodes the `hosts` selector of a collective group and requires at
/// least two participants.
fn decode_participants(
    t: &Table,
    topo: &TopologySpec,
    what: &str,
) -> Result<HostSelector, ScenarioError> {
    let (sel, line) = match t.get("hosts") {
        None => (HostSelector::All, t.line),
        Some(s) => (decode_selector(s, &format!("{what}.hosts"))?, s.line),
    };
    check_selector(&sel, topo, line, &format!("{what}.hosts"))?;
    let n = sel.expand(topo).len();
    if n < 2 {
        return Err(err(
            line,
            format!("{what}.hosts: a collective needs >= 2 participants, got {n}"),
        ));
    }
    Ok(sel)
}

fn decode_step_gap(t: &Table, what: &str) -> Result<f64, ScenarioError> {
    match t.get("step_gap_us") {
        None => Ok(50.0),
        Some(s) => {
            let w = format!("{what}.step_gap_us");
            non_negative(float_of(s, &w)?, s.line, &w)
        }
    }
}

fn decode_regimes(items: &[Spanned]) -> Result<Vec<RegimeWindow>, ScenarioError> {
    let mut windows: Vec<(RegimeWindow, u32)> = Vec::with_capacity(items.len());
    for (idx, item) in items.iter().enumerate() {
        let what = format!("[[regime]] window {idx}");
        let t = table_of(item, &what)?;
        reject_unknown(t, &what, &["start_ms", "stop_ms", "multiplier"])?;
        let field = |key: &str| -> Result<(f64, u32), ScenarioError> {
            let s = req(t, key, &what)?;
            Ok((float_of(s, &format!("{what}.{key}"))?, s.line))
        };
        let (start_ms, sl) = field("start_ms")?;
        non_negative(start_ms, sl, &format!("{what}.start_ms"))?;
        let (stop_ms, pl) = field("stop_ms")?;
        if stop_ms <= start_ms {
            return Err(err(
                pl,
                format!("{what}: stop_ms {stop_ms} must exceed start_ms {start_ms}"),
            ));
        }
        let (multiplier, ml) = field("multiplier")?;
        positive(multiplier, ml, &format!("{what}.multiplier"))?;
        windows.push((
            RegimeWindow {
                start_ms,
                stop_ms,
                multiplier,
            },
            t.line,
        ));
    }
    // Overlap check against every earlier window (schedules are usually
    // written in order, but the check must not depend on it).
    for i in 0..windows.len() {
        for j in 0..i {
            let (a, line) = (&windows[i].0, windows[i].1);
            let b = &windows[j].0;
            if a.start_ms < b.stop_ms && b.start_ms < a.stop_ms {
                return Err(err(
                    line,
                    format!(
                        "[[regime]] window {i} [{}, {}) overlaps window {j} [{}, {})",
                        a.start_ms, a.stop_ms, b.start_ms, b.stop_ms
                    ),
                ));
            }
        }
    }
    let mut out: Vec<RegimeWindow> = windows.into_iter().map(|(w, _)| w).collect();
    out.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
    Ok(out)
}

fn decode_faults(t: &Table, pdes: &PdesSpec) -> Result<FaultSpec, ScenarioError> {
    reject_unknown(
        t,
        "[faults]",
        &[
            "seed",
            "drop_prob",
            "dup_prob",
            "corrupt_prob",
            "slow_partition",
            "stall_partition",
        ],
    )?;
    let mut spec = FaultSpec::default();
    if let Some(s) = t.get("seed") {
        spec.seed = u64_of(s, "faults.seed")?;
    }
    let prob = |key: &str| -> Result<Option<f64>, ScenarioError> {
        match t.get(key) {
            None => Ok(None),
            Some(s) => {
                let w = format!("faults.{key}");
                Ok(Some(probability(float_of(s, &w)?, s.line, &w)?))
            }
        }
    };
    if let Some(v) = prob("drop_prob")? {
        spec.drop_prob = v;
    }
    if let Some(v) = prob("dup_prob")? {
        spec.dup_prob = v;
    }
    if let Some(v) = prob("corrupt_prob")? {
        spec.corrupt_prob = v;
    }
    let partition_of = |t: &Table, what: &str| -> Result<usize, ScenarioError> {
        let s = req(t, "partition", what)?;
        let v = usize_of(s, &format!("{what}.partition"))?;
        if v >= pdes.partitions {
            return Err(err(
                s.line,
                format!(
                    "{what}.partition: partition {v} out of range (topology.pdes.partitions = {})",
                    pdes.partitions
                ),
            ));
        }
        Ok(v)
    };
    if let Some(s) = t.get("slow_partition") {
        let what = "faults.slow_partition";
        let st = table_of(s, what)?;
        reject_unknown(st, what, &["partition", "ms_per_epoch"])?;
        let p = partition_of(st, what)?;
        let m = req(st, "ms_per_epoch", what)?;
        let ms = positive(
            float_of(m, &format!("{what}.ms_per_epoch"))?,
            m.line,
            &format!("{what}.ms_per_epoch"),
        )?;
        spec.slow_partition = Some((p, ms));
    }
    if let Some(s) = t.get("stall_partition") {
        let what = "faults.stall_partition";
        let st = table_of(s, what)?;
        reject_unknown(st, what, &["partition", "after_epochs"])?;
        let p = partition_of(st, what)?;
        let e = req(st, "after_epochs", what)?;
        let epochs = u64_of(e, &format!("{what}.after_epochs"))?;
        spec.stall_partition = Some((p, epochs));
    }
    Ok(spec)
}

fn decode_guard(t: &Table) -> Result<GuardSpec, ScenarioError> {
    reject_unknown(
        t,
        "[guard]",
        &["enabled", "ceiling_ms", "tolerance", "trip_limit"],
    )?;
    let mut spec = GuardSpec::default();
    if let Some(s) = t.get("enabled") {
        spec.enabled = bool_of(s, "guard.enabled")?;
    }
    if let Some(s) = t.get("ceiling_ms") {
        spec.ceiling_ms = positive(float_of(s, "guard.ceiling_ms")?, s.line, "guard.ceiling_ms")?;
    }
    if let Some(s) = t.get("tolerance") {
        spec.tolerance = probability(float_of(s, "guard.tolerance")?, s.line, "guard.tolerance")?;
    }
    if let Some(s) = t.get("trip_limit") {
        let v = u64_of(s, "guard.trip_limit")?;
        if v == 0 {
            return Err(err(s.line, "guard.trip_limit: must be >= 1"));
        }
        spec.trip_limit = v;
    }
    Ok(spec)
}

fn decode_recovery(t: &Table) -> Result<RecoverySpec, ScenarioError> {
    reject_unknown(
        t,
        "[recovery]",
        &["enabled", "checkpoint_every_ms", "max_retries"],
    )?;
    let mut spec = RecoverySpec::default();
    if let Some(s) = t.get("enabled") {
        spec.enabled = bool_of(s, "recovery.enabled")?;
    }
    if let Some(s) = t.get("checkpoint_every_ms") {
        spec.checkpoint_every_ms = positive(
            float_of(s, "recovery.checkpoint_every_ms")?,
            s.line,
            "recovery.checkpoint_every_ms",
        )?;
    }
    if let Some(s) = t.get("max_retries") {
        let v = u32_of(s, "recovery.max_retries")?;
        if v == 0 {
            return Err(err(s.line, "recovery.max_retries: must be >= 1"));
        }
        spec.max_retries = v;
    }
    Ok(spec)
}

fn decode_audit(t: &Table) -> Result<AuditSpec, ScenarioError> {
    reject_unknown(
        t,
        "[audit]",
        &["enabled", "max_drop_rate_error", "max_ks", "max_w1_ratio"],
    )?;
    let mut spec = AuditSpec::default();
    if let Some(s) = t.get("enabled") {
        spec.enabled = bool_of(s, "audit.enabled")?;
    }
    if let Some(s) = t.get("max_drop_rate_error") {
        spec.max_drop_rate_error = probability(
            float_of(s, "audit.max_drop_rate_error")?,
            s.line,
            "audit.max_drop_rate_error",
        )?;
    }
    if let Some(s) = t.get("max_ks") {
        spec.max_ks = probability(float_of(s, "audit.max_ks")?, s.line, "audit.max_ks")?;
    }
    if let Some(s) = t.get("max_w1_ratio") {
        spec.max_w1_ratio = positive(
            float_of(s, "audit.max_w1_ratio")?,
            s.line,
            "audit.max_w1_ratio",
        )?;
    }
    Ok(spec)
}

fn decode_model(t: &Table, topo: &TopologySpec) -> Result<ModelSpec, ScenarioError> {
    reject_unknown(t, "[model]", &["path", "full_cluster", "train_fallback"])?;
    let mut spec = ModelSpec::default();
    if let Some(s) = t.get("path") {
        let p = str_of(s, "model.path")?;
        if p.is_empty() {
            return Err(err(s.line, "model.path: must be non-empty"));
        }
        spec.path = Some(p.to_string());
        spec.path_line = s.line;
    } else {
        // No path: artifact-load diagnostics point at the section header.
        spec.path_line = t.line;
    }
    if let Some(s) = t.get("full_cluster") {
        let v = u16_of(s, "model.full_cluster")?;
        if v >= topo.clusters {
            return Err(err(
                s.line,
                format!(
                    "model.full_cluster: cluster {v} out of range (topology.clusters = {})",
                    topo.clusters
                ),
            ));
        }
        spec.full_cluster = Some(v);
    }
    if let Some(s) = t.get("train_fallback") {
        spec.train_fallback = bool_of(s, "model.train_fallback")?;
    }
    Ok(spec)
}

fn decode_train(t: &Table) -> Result<TrainSpec, ScenarioError> {
    reject_unknown(
        t,
        "[train]",
        &["hidden", "layers", "epochs", "alpha", "macro_state"],
    )?;
    let mut spec = TrainSpec::default();
    for (key, slot) in [
        ("hidden", &mut spec.hidden),
        ("layers", &mut spec.layers),
        ("epochs", &mut spec.epochs),
    ] {
        if let Some(s) = t.get(key) {
            let w = format!("train.{key}");
            *slot = usize_of(s, &w)?;
            if *slot == 0 {
                return Err(err(s.line, format!("{w}: must be >= 1")));
            }
        }
    }
    if let Some(s) = t.get("alpha") {
        let v = float_of(s, "train.alpha")?;
        spec.alpha = v as f32;
        // Checked after the narrowing too: a tiny α would train as 0.
        if !(v > 0.0 && v <= 1.0 && spec.alpha > 0.0) {
            let detail = format!("train.alpha: must be in (0, 1], got {v}");
            return Err(err(s.line, detail));
        }
    }
    if let Some(s) = t.get("macro_state") {
        spec.macro_state = bool_of(s, "train.macro_state")?;
    }
    Ok(spec)
}

fn decode_oracle(t: &Table) -> Result<OracleSpec, ScenarioError> {
    if let Some(s) = t.get("full_cluster") {
        return Err(err(
            s.line,
            "[oracle] full_cluster: the cluster kept at packet fidelity is [model] full_cluster",
        ));
    }
    reject_unknown(t, "[oracle]", &["cache", "cache_cap"])?;
    let mut spec = OracleSpec::default();
    if let Some(s) = t.get("cache") {
        spec.cache = bool_of(s, "oracle.cache")?;
    }
    if let Some(s) = t.get("cache_cap") {
        let v = usize_of(s, "oracle.cache_cap")?;
        if v == 0 {
            return Err(err(s.line, "oracle.cache_cap: must be >= 1"));
        }
        spec.cache_cap = v;
    }
    Ok(spec)
}

fn decode_outputs(t: &Table) -> Result<OutputSpec, ScenarioError> {
    reject_unknown(t, "[outputs]", &["sample_every_us"])?;
    let mut spec = OutputSpec::default();
    if let Some(s) = t.get("sample_every_us") {
        let v = u64_of(s, "outputs.sample_every_us")?;
        if v == 0 {
            return Err(err(s.line, "outputs.sample_every_us: must be >= 1"));
        }
        spec.sample_every_us = Some(v);
    }
    Ok(spec)
}

fn decode_sweep(items: &[Spanned]) -> Result<Vec<SweepAxis>, ScenarioError> {
    let mut axes = Vec::with_capacity(items.len());
    for (idx, item) in items.iter().enumerate() {
        let what = format!("[[sweep]] axis {idx}");
        let t = table_of(item, &what)?;
        reject_unknown(t, &what, &["keys", "values"])?;
        let mut keys = Vec::new();
        for k in array_of(req(t, "keys", &what)?, &format!("{what}.keys"))? {
            let key = str_of(k, &format!("{what}.keys"))?;
            if key == "model" || key.starts_with("model.") {
                return Err(err(
                    t.line,
                    format!(
                        "{what}: `{key}` cannot be swept: a sweep resolves its model once, \
                         from the base document"
                    ),
                ));
            }
            keys.push(key.to_string());
        }
        let items = array_of(req(t, "values", &what)?, &format!("{what}.values"))?;
        if keys.is_empty() || items.is_empty() {
            return Err(err(
                t.line,
                format!("{what}: `keys` and `values` must be non-empty"),
            ));
        }
        // Linked keys take one value each from an array, or all the same
        // scalar.
        let mut values = Vec::with_capacity(items.len());
        for v in items {
            values.push(match &v.value {
                TomlValue::Array(tuple) if keys.len() > 1 => {
                    let (n, k) = (tuple.len(), keys.len());
                    if n != k {
                        return Err(err(t.line, format!("{what}: {n} items for {k} keys")));
                    }
                    tuple.iter().map(|x| x.value.to_string()).collect()
                }
                scalar => vec![scalar.to_string(); keys.len()],
            });
        }
        axes.push(SweepAxis {
            keys,
            values,
            line: t.line,
        });
    }
    Ok(axes)
}

/// One cell of a `[[sweep]]`: the edits that make it, and the scenario
/// they make.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// `(key, TOML text)` per swept key, first axis first.
    pub edits: Vec<(String, String)>,
    /// The document with the edits written in, decoded.
    pub scenario: Scenario,
}

/// Expands a document's `[[sweep]]` axes into their product, the first
/// axis outermost. A cell is the document, less its axes, with one
/// [`Table::set`] per swept key — the edit a flag makes — decoded by
/// [`from_table`]; a rejection names the cell, at its axis's line. A
/// document without axes is one cell.
pub fn sweep_cells(doc: &Table) -> Result<Vec<SweepCell>, ScenarioError> {
    let axes = from_table(doc)?.sweep;
    let mut base = doc.clone();
    base.entries.retain(|(k, _)| k != "sweep");
    let cells: usize = axes.iter().map(|a| a.values.len()).product();
    (0..cells)
        .map(|n| {
            // `n` in mixed radix, the last axis the fastest digit.
            let (mut rest, mut set) = (n, Vec::new());
            for a in axes.iter().rev() {
                let value = &a.values[rest % a.values.len()];
                rest /= a.values.len();
                let edits = a
                    .keys
                    .iter()
                    .zip(value)
                    .map(|(k, v)| (k.clone(), v.clone(), a.line));
                set.splice(0..0, edits);
            }
            let label: Vec<String> = set.iter().map(|(k, v, _)| format!("{k} = {v}")).collect();
            let in_cell = |line, detail| {
                err(
                    line,
                    format!("[[sweep]] cell {n} ({}): {detail}", label.join(", ")),
                )
            };
            let mut cell = base.clone();
            for (key, text, line) in &set {
                cell.set(key, text, *line)
                    .map_err(|e| in_cell(e.line, e.msg))?;
            }
            Ok(SweepCell {
                scenario: from_table(&cell).map_err(|e| in_cell(e.line, e.detail))?,
                edits: set.into_iter().map(|(k, v, _)| (k, v)).collect(),
            })
        })
        .collect()
}
