//! The workspace's typed error vocabulary.
//!
//! Hand-rolled `thiserror`-style enum (no proc-macro deps): every fallible
//! seam in the pipeline — model files on disk, capture retrieval, stream
//! alignment — reports one of these instead of `expect`-panicking, and the
//! CLI maps each family onto a distinct process exit code so scripts can
//! tell "bad model artifact" from "I/O problem" from "simulation fault".

use std::fmt;

/// Why a pipeline step failed.
#[derive(Debug)]
pub enum ElephantError {
    /// Reading or writing a file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Model JSON did not parse as a versioned artifact (truncated,
    /// mangled, not JSON, or a bare model without its header).
    ModelParse {
        /// Parser diagnostic.
        detail: String,
    },
    /// The file parsed but is not an elephant model artifact.
    ModelMagic {
        /// The magic string actually present.
        found: String,
    },
    /// The artifact's format version is not one this build understands.
    ModelVersion {
        /// Version in the file.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The weight checksum does not match the header (bit rot, truncation
    /// that still parses, or hand-editing).
    ModelChecksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed over the weights.
        actual: u64,
    },
    /// The model contains NaN or infinite weights and would poison every
    /// prediction.
    ModelNonFinite {
        /// Number of non-finite parameters found.
        count: usize,
    },
    /// A float of the model's header — a macro threshold, the latency
    /// codec or a training statistic — is NaN or infinite (JSON `null`
    /// reads as NaN), so the regime or the guard it feeds would be too.
    ModelHeader {
        /// The field, as `section.name`.
        field: &'static str,
        /// What it holds.
        value: f64,
    },
    /// The weights do not have the shapes the model's architecture implies
    /// (a matrix storing more or fewer values than `rows × cols`, layers
    /// that do not chain, a head of the wrong width), so the first verdict
    /// would index out of range.
    ModelShape {
        /// Which part, and what it holds against what it needs.
        detail: String,
    },
    /// A capture was requested from a network that was not configured to
    /// record one.
    CaptureMissing,
    /// A training capture ran but saw no packet cross cluster 1's boundary
    /// (the cluster it records), so there is nothing to train on.
    EmptyCapture {
        /// The capture's horizon.
        horizon: elephant_des::SimTime,
    },
    /// Two record streams that must advance in lockstep did not (internal
    /// invariant; indicates corrupt or inconsistent training data).
    StreamMisaligned {
        /// What diverged.
        detail: String,
    },
    /// A scenario file failed schema parsing or validation.
    Scenario {
        /// The scenario file.
        path: String,
        /// 1-based line of the offending value.
        line: u32,
        /// Diagnostic message.
        detail: String,
    },
    /// The PDES engine faulted (stall, corrupt exchange, partition panic)
    /// in an unsupervised run.
    Pdes(elephant_des::PdesError),
    /// The supervised retry ladder ran out of rungs: every retry and every
    /// degradation step failed, so the run cannot complete even degraded.
    RecoveryExhausted {
        /// What kept failing, including the last failure's diagnostics.
        detail: String,
    },
}

impl ElephantError {
    /// The process exit code the CLI uses for this error family:
    /// `3` = I/O, `4` = invalid model artifact, `5` = simulation/pipeline
    /// fault, `6` = scenario schema/validation error, `7` = recovery
    /// ladder exhausted. (`2` is reserved for usage errors, `1` for
    /// generic failure.)
    pub fn exit_code(&self) -> i32 {
        match self {
            ElephantError::Io { .. } => 3,
            ElephantError::ModelParse { .. }
            | ElephantError::ModelMagic { .. }
            | ElephantError::ModelVersion { .. }
            | ElephantError::ModelChecksum { .. }
            | ElephantError::ModelNonFinite { .. }
            | ElephantError::ModelHeader { .. }
            | ElephantError::ModelShape { .. } => 4,
            ElephantError::CaptureMissing
            | ElephantError::EmptyCapture { .. }
            | ElephantError::StreamMisaligned { .. }
            | ElephantError::Pdes(_) => 5,
            ElephantError::Scenario { .. } => 6,
            ElephantError::RecoveryExhausted { .. } => 7,
        }
    }
}

impl fmt::Display for ElephantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElephantError::Io { path, source } => write!(f, "{path}: {source}"),
            ElephantError::ModelParse { detail } => {
                write!(f, "cannot parse model file: {detail}")
            }
            ElephantError::ModelMagic { found } => write!(
                f,
                "not an elephant model file (magic {found:?}); \
                 expected a header written by `elephant train`"
            ),
            ElephantError::ModelVersion { found, expected } => write!(
                f,
                "unsupported model format version {found} (this build reads version {expected})"
            ),
            ElephantError::ModelChecksum { expected, actual } => write!(
                f,
                "model weight checksum mismatch: header says {expected:#018x}, \
                 weights hash to {actual:#018x} — the file is corrupt"
            ),
            ElephantError::ModelNonFinite { count } => write!(
                f,
                "model contains {count} non-finite weight(s); refusing to load"
            ),
            ElephantError::ModelHeader { field, value } => write!(
                f,
                "model header field `{field}` is {value}, not a finite number; refusing to load"
            ),
            ElephantError::ModelShape { detail } => {
                write!(f, "model weights do not fit its architecture: {detail}")
            }
            ElephantError::CaptureMissing => {
                write!(
                    f,
                    "no boundary capture: the run was not configured to record one"
                )
            }
            ElephantError::EmptyCapture { horizon } => write!(
                f,
                "the capture saw no packet cross cluster 1's boundary in {horizon}; \
                 nothing to train on (lengthen the horizon)"
            ),
            ElephantError::StreamMisaligned { detail } => {
                write!(f, "record streams misaligned: {detail}")
            }
            ElephantError::Scenario { path, line, detail } => {
                write!(f, "{path}:{line}: {detail}")
            }
            ElephantError::Pdes(e) => write!(f, "PDES run failed: {e}"),
            ElephantError::RecoveryExhausted { detail } => {
                write!(f, "recovery ladder exhausted: {detail}")
            }
        }
    }
}

impl std::error::Error for ElephantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ElephantError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_partition_the_families() {
        let io = ElephantError::Io {
            path: "x".into(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert_eq!(io.exit_code(), 3);
        assert_eq!(
            ElephantError::ModelParse { detail: "".into() }.exit_code(),
            4
        );
        assert_eq!(
            ElephantError::ModelVersion {
                found: 9,
                expected: 1
            }
            .exit_code(),
            4
        );
        assert_eq!(
            ElephantError::ModelShape { detail: "".into() }.exit_code(),
            4
        );
        assert_eq!(ElephantError::CaptureMissing.exit_code(), 5);
        let horizon = elephant_des::SimTime::ZERO;
        assert_eq!(ElephantError::EmptyCapture { horizon }.exit_code(), 5);
        assert_eq!(
            ElephantError::Scenario {
                path: "s.toml".into(),
                line: 3,
                detail: "bad".into()
            }
            .exit_code(),
            6
        );
    }

    #[test]
    fn scenario_errors_print_file_and_line() {
        let e = ElephantError::Scenario {
            path: "scenarios/incast.toml".into(),
            line: 12,
            detail: "load: must be in (0, 1), got 1.5".into(),
        };
        assert_eq!(
            e.to_string(),
            "scenarios/incast.toml:12: load: must be in (0, 1), got 1.5"
        );
    }

    #[test]
    fn messages_name_the_problem() {
        let e = ElephantError::ModelChecksum {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("checksum"));
        let e = ElephantError::ModelNonFinite { count: 3 };
        assert!(e.to_string().contains("3 non-finite"));
    }
}
