//! `elephant-perf compare A.json B.json`: one row per (metric, workload)
//! with both medians, B's change against A, the bound `BENCHMARK.json`
//! fixes, and a verdict. A is the base of every ratio.
//!
//! Both sides of a comparison run the same variants of a workload (same
//! `--seed`), so the change is taken variant by variant: the ratio B/A of
//! each variant both sides ran, summarised by its median and quartiles.
//! Pairing cancels the differences between the variants' traffic draws,
//! which are larger than the effects worth detecting.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::paths;
use crate::stats::Summary;

/// Absolute bound on the hybrid accuracy figure (it is a distance near
/// zero, so a relative bound would be meaningless).
const W1_BOUND_ABS: f64 = 0.02;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The per-variant ratios are too few or too spread for their median to
    /// resolve a change of the bound's size.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// About two standard errors of the median of the per-variant ratios:
/// the median of `n` values spread with inter-quartile range `iqr` has a
/// standard error near `0.93 * iqr / sqrt(n)`.
fn noise_of(ratios: Summary) -> f64 {
    2.0 * (ratios.p75 - ratios.p25) / (ratios.n.max(1) as f64).sqrt()
}

/// Verdict for a lower-is-better metric from the per-variant ratios B/A.
pub fn judge(ratios: Summary, bound: f64) -> Verdict {
    let noise = noise_of(ratios);
    if noise > bound {
        Verdict::Unresolved
    } else if ratios.median - 1.0 > bound {
        Verdict::Regressed
    } else if 1.0 - ratios.median > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `variant → value` of `metric` over a workload's untraced runs.
fn by_variant(w: &Value, metric: &str) -> Result<BTreeMap<u64, f64>, String> {
    json::seq_of(w, "untraced_runs")?
        .iter()
        .map(|r| Ok((json::f64_of(r, "variant")? as u64, json::f64_of(r, metric)?)))
        .collect()
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let spec = json::read_file(&paths::benchmark_json())?;
    json::seq_of(&spec, "end_to_end")?
        .iter()
        .map(|m| {
            Ok((
                json::str_of(m, "name")?.to_string(),
                json::f64_of(m, "bound")?,
            ))
        })
        .collect()
}

fn workload_named<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    json::seq_of(doc, "workloads")
        .ok()?
        .iter()
        .find(|w| json::str_of(w, "workload") == Ok(name))
}

fn failed_share(w: &Value) -> Result<f64, String> {
    Ok(json::f64_of(w, "runs_failed")? / json::f64_of(w, "runs_attempted")?.max(1.0))
}

/// Prints the comparison; `Ok(true)` when nothing regressed, no count
/// differs and B's failed-run share is no higher than A's.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let a = json::read_file(a_path)?;
    let b = json::read_file(b_path)?;
    let bounds = bounds()?;
    let mut ok = true;
    println!(
        "{:<26} {:<18} {:>12} {:>12} {:>6} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "pairs", "delta", "noise", "bound"
    );
    for wa in json::seq_of(&a, "workloads")? {
        let name = json::str_of(wa, "workload")?;
        let Some(wb) = workload_named(&b, name) else {
            println!("{name:<26} missing from B");
            ok = false;
            continue;
        };
        for (metric, bound) in &bounds {
            let (va, vb) = (by_variant(wa, metric)?, by_variant(wb, metric)?);
            let ratios = Summary::of(
                va.iter()
                    .filter_map(|(variant, x)| vb.get(variant).map(|y| y / x)),
            );
            let verdict = judge(ratios, *bound);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{name:<26} {metric:<18} {:>12.6} {:>12.6} {:>6} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                Summary::of(va.values().copied()).median,
                Summary::of(vb.values().copied()).median,
                ratios.n,
                (ratios.median - 1.0) * 100.0,
                noise_of(ratios) * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
        // Host-time-free figures: accuracy within its absolute bound, and
        // every simulated count and the fingerprint bit-identical.
        let w1 = |w: &Value| -> Option<f64> {
            let m = w.get("per_layer")?.get("core.fct_w1_ratio")?;
            m.get("value")?.as_f64().filter(|v| *v > 0.0)
        };
        if let (Some(x), Some(y)) = (w1(wa), w1(wb)) {
            let verdict = if y - x > W1_BOUND_ABS {
                ok = false;
                "regressed"
            } else if y == x {
                "identical"
            } else {
                "unchanged"
            };
            println!(
                "{name:<26} {:<18} {x:>13.6} {y:>13.6} {:>+8.4} {:>6.2}  {verdict}",
                "core.fct_w1_ratio",
                y - x,
                W1_BOUND_ABS
            );
        }
        let counts_a = json::map_of(wa, "sim_counts")?;
        let differing: Vec<&str> = counts_a
            .iter()
            .filter(|(k, v)| wb.get("sim_counts").and_then(|c| c.get(k)) != Some(v))
            .map(|(k, _)| k.as_str())
            .collect();
        let same_print = json::str_of(wa, "fingerprint")? == json::str_of(wb, "fingerprint")?;
        if differing.is_empty() && same_print {
            println!(
                "{name:<26} sim_counts + fingerprint identical ({} counts)",
                counts_a.len()
            );
        } else {
            ok = false;
            println!(
                "{name:<26} SIMULATED RESULTS DIFFER: {}{}",
                differing.join(", "),
                if same_print { "" } else { " fingerprint" }
            );
        }
        let (fa, fb) = (failed_share(wa)?, failed_share(wb)?);
        if fb > fa {
            ok = false;
            println!("{name:<26} failed-run share rose from {fa:.3} to {fb:.3}");
        }
    }
    for side in [&a, &b] {
        let h = json::field(side, "header")?;
        if h.get("noisy").and_then(Value::as_bool) == Some(true) {
            println!("note: a result file was taken on a loaded machine (header.noisy)");
        }
    }
    println!("{}", if ok { "compare: OK" } else { "compare: FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratios(median: f64, p25: f64, p75: f64) -> Summary {
        Summary {
            median,
            p25,
            p75,
            min: p25,
            max: p75,
            n: 9,
        }
    }

    #[test]
    fn verdicts() {
        // n = 9: noise = 2 * iqr / 3.
        assert_eq!(judge(ratios(1.005, 0.99, 1.02), 0.1), Verdict::Unchanged);
        assert_eq!(judge(ratios(1.15, 1.14, 1.16), 0.1), Verdict::Regressed);
        assert_eq!(judge(ratios(0.85, 0.84, 0.86), 0.1), Verdict::Improved);
        // The bound cuts both ways: a smaller shift is no verdict either way.
        assert_eq!(judge(ratios(0.95, 0.94, 0.96), 0.1), Verdict::Unchanged);
        // Ratios too spread for their median to resolve the bound.
        assert_eq!(judge(ratios(1.0, 0.9, 1.1), 0.1), Verdict::Unresolved);
    }
}
