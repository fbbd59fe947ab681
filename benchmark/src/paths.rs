//! Where the benchmark keeps its files. The command runs from the root of
//! a checkout, so every path is relative to that.

use std::path::PathBuf;

use crate::bind;

const ROOT: &str = "benchmark";

/// Committed scenario file of a workload.
pub fn scenario(workload: &str) -> PathBuf {
    [ROOT, "scenarios", &format!("{workload}.toml")]
        .iter()
        .collect()
}

/// All committed scenario files' directory.
pub fn scenarios_dir() -> PathBuf {
    [ROOT, "scenarios"].iter().collect()
}

/// Scratch outputs: the model artifact, traces, the last suite result.
pub fn out_dir() -> PathBuf {
    [ROOT, "out"].iter().collect()
}

/// The trained model artifact, named by the artifact format version so a
/// format change retrains instead of failing to load.
pub fn model() -> PathBuf {
    out_dir().join(format!("model_v{}.json", bind::model_version()))
}

/// Training cost and kept feature vectors, beside the model.
pub fn model_facts() -> PathBuf {
    out_dir().join(format!("model_v{}.facts.json", bind::model_version()))
}

/// Raw trace of the last traced run of a workload.
pub fn trace(workload: &str) -> PathBuf {
    out_dir().join(format!("trace_{workload}.json"))
}

/// The driver's description of this benchmark, at the repository root.
pub fn benchmark_json() -> PathBuf {
    PathBuf::from("BENCHMARK.json")
}
