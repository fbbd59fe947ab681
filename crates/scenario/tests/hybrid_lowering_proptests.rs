//! Property tests for the hybrid lowering: any accepted scenario document
//! with `[guard]` + `[oracle]` + `[model]` sections must compile to a
//! `Compiled` whose lowered guard/cache/model settings round-trip the
//! TOML values *exactly* — no silent clamping, no default substitution.
//! Floats are emitted with `{:?}` (shortest round-tripping form), so
//! text → f64 → lowering must reproduce the generated value bit-for-bit.
//! The documents carry a `[[sweep]]` axis too, so the emitter round trip
//! covers it.

use elephant_des::SimDuration;
use elephant_scenario::{compile, CompileOverrides, Scenario};
use proptest::prelude::*;

#[allow(clippy::too_many_arguments)]
fn doc(
    clusters: u16,
    guard_enabled: bool,
    ceiling_ms: f64,
    tolerance: f64,
    trip_limit: u64,
    cache: bool,
    cache_cap: usize,
    model_cluster: Option<u16>,
    train_fallback: bool,
    sweep: &[u16],
    linked: bool,
) -> String {
    let mut s = format!(
        "schema = 1\n\
         [scenario]\n\
         name = \"prop\"\n\
         [topology]\n\
         clusters = {clusters}\n\
         racks_per_cluster = 2\n\
         hosts_per_rack = 2\n\
         [run]\n\
         horizon_ms = 1.0\n\
         [[traffic]]\n\
         kind = \"permutation\"\n\
         bytes = 1000\n\
         [guard]\n\
         enabled = {guard_enabled}\n\
         ceiling_ms = {ceiling_ms:?}\n\
         tolerance = {tolerance:?}\n\
         trip_limit = {trip_limit}\n\
         [model]\n\
         path = \"m.json\"\n\
         train_fallback = {train_fallback}\n"
    );
    if let Some(c) = model_cluster {
        s.push_str(&format!("full_cluster = {c}\n"));
    }
    s.push_str(&format!(
        "[oracle]\n\
         cache = {cache}\n\
         cache_cap = {cache_cap}\n"
    ));
    // One axis over the cache capacity: alone, or linked with the trip
    // limit through per-key tuples.
    let values: Vec<String> = sweep
        .iter()
        .map(|&v| match linked {
            true => format!("[{v}, {}]", v + 1),
            false => v.to_string(),
        })
        .collect();
    let keys = match linked {
        true => "\"oracle.cache_cap\", \"guard.trip_limit\"",
        false => "\"oracle.cache_cap\"",
    };
    s.push_str(&format!(
        "[[sweep]]\nkeys = [{keys}]\nvalues = [{}]\n",
        values.join(", ")
    ));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every generated `[guard]`/`[oracle]`/`[model]` value survives
    /// decode + compile unchanged, the full cluster is the declared
    /// `[model] full_cluster` or 0, and the `[[sweep]]` axis survives the
    /// emitter.
    #[test]
    fn lowered_hybrid_settings_round_trip_exactly(
        clusters in 2u16..6,
        guard_enabled in any::<bool>(),
        ceiling_ms in 0.001f64..500.0,
        tolerance in 0.0f64..1.0,
        trip_limit in 1u64..10_000,
        cache in any::<bool>(),
        cache_cap in 1usize..1_000_000,
        model_pick in 0u16..8,
        with_model_cluster in any::<bool>(),
        train_fallback in any::<bool>(),
        sweep in proptest::collection::vec(1u16..1000, 1..4),
        linked in any::<bool>(),
    ) {
        let model_cluster = with_model_cluster.then_some(model_pick % clusters);
        let text = doc(
            clusters,
            guard_enabled,
            ceiling_ms,
            tolerance,
            trip_limit,
            cache,
            cache_cap,
            model_cluster,
            train_fallback,
            &sweep,
            linked,
        );
        let s = Scenario::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("generated scenario must parse: {e}\n---\n{text}"));
        let c = compile(&s, &CompileOverrides::default());
        let h = &c.hybrid;

        prop_assert!(h.model_declared);
        prop_assert_eq!(h.model_path.as_deref(), Some("m.json"));
        prop_assert!(h.model_line > 0, "path line recorded");
        prop_assert_eq!(h.train_fallback, train_fallback);
        prop_assert_eq!(h.full_cluster, model_cluster.unwrap_or(0));
        prop_assert_eq!(s.sweep.len(), 1);
        prop_assert_eq!(s.sweep[0].values.len(), sweep.len());
        prop_assert_eq!(h.cache, cache);
        prop_assert_eq!(h.cache_cap, cache_cap);

        match &h.guard {
            None => prop_assert!(!guard_enabled, "guard lowered away only when disabled"),
            Some(g) => {
                prop_assert!(guard_enabled);
                // Exact — the same from_secs_f64 conversion on the same
                // f64 the document carried.
                prop_assert_eq!(
                    g.latency_ceiling,
                    SimDuration::from_secs_f64(ceiling_ms / 1e3),
                    "ceiling_ms {ceiling_ms:?} clamped or substituted"
                );
                prop_assert_eq!(g.drop_rate_tolerance.to_bits(), tolerance.to_bits());
                prop_assert_eq!(g.trip_limit, trip_limit);
                prop_assert_eq!(g.expected_drop_rate, None, "filled at run time, not compile time");
            }
        }

        // The emitter must reproduce a scenario that decodes equal and
        // lowers to the same hybrid settings.
        let emitted = s.to_toml_string();
        let s2 = Scenario::from_toml_str(&emitted)
            .unwrap_or_else(|e| panic!("emitted TOML must re-parse: {e}\n---\n{emitted}"));
        prop_assert_eq!(&s, &s2, "emit → decode round trip");
        let c2 = compile(&s2, &CompileOverrides::default());
        prop_assert_eq!(c2.hybrid.full_cluster, h.full_cluster);
        prop_assert_eq!(c2.hybrid.cache_cap, h.cache_cap);
    }
}
