//! Checkpoint/restore for crash-safe runs.
//!
//! A checkpoint is a *quiescent deep copy* of everything a resumed run needs
//! to be bit-identical to an uninterrupted one:
//!
//! * **Sequential** ([`SimCheckpoint`]): the world and the scheduler — FEL
//!   contents (cancelled entries not yet reclaimed included), clock,
//!   sequence counters. Taken between [`crate::Simulator::run_until`]
//!   chunks, where the engine is parked.
//! * **PDES** ([`PdesCheckpoint`]): every partition's world, FEL, and
//!   cross-chunk progress — the `send-seq` tie-break counter, the fault-RNG
//!   stream position, and the epoch count a scripted stall measures against.
//!   Taken between [`crate::PdesRunner::run_until`] chunks, where the
//!   exchange is drained and the partitions' private state is the complete
//!   run state.
//!
//! Bit-equality holds by construction: the copies are `Clone`s of the exact
//! in-memory state, the remote tie-break key is intrinsic to each message
//! (so resumed epoch plans need not match the original's), and fault
//! progress is part of the snapshot. The counts kept in the world and the
//! scheduler are part of that state and rewind with it, so a retried run
//! reports the successful path only; what sits outside the snapshot keeps
//! an aborted attempt's contribution — the process-global *timeline*, and
//! anything a world shares across its clones (the oracle guard's and
//! verdict cache's counter handles). Verdict caches ride along inside
//! the world when their oracle is cloneable; an uncloneable oracle must be
//! rebuilt cold by the caller (documented at the driver layer).
//!
//! [`CheckpointManifest`] is the durable side-channel: a versioned,
//! FNV-checksummed header (same discipline as the model file format) that
//! records a run's recovery provenance so CI and post-mortems can verify a
//! resumed run against the plan that produced it.

use std::path::Path;

use crate::pdes::{PartitionSim, PartitionWorld};
use crate::sched::Scheduler;
use crate::sim::World;
use crate::time::SimTime;

/// Magic line identifying a checkpoint manifest.
pub const CHECKPOINT_MAGIC: &str = "ELEPHANT-CHECKPOINT";
/// Current manifest format version.
pub const CHECKPOINT_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string; the manifest's integrity check.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// A quiescent snapshot of a sequential simulation: world plus scheduler.
///
/// Captured by [`crate::Simulator::checkpoint`] and reapplied by
/// [`crate::Simulator::restore`]; resuming from it is bit-identical to never
/// having stopped.
pub struct SimCheckpoint<W: World> {
    pub(crate) world: W,
    pub(crate) sched: Scheduler<W::Event>,
}

impl<W: World> SimCheckpoint<W> {
    /// The simulated time the snapshot was taken at.
    pub fn at(&self) -> SimTime {
        self.sched.now()
    }
}

/// A quiescent snapshot of a PDES run: every partition's full state.
///
/// Captured by [`crate::PdesRunner::checkpoint`] and reapplied by
/// [`crate::PdesRunner::restore`].
pub struct PdesCheckpoint<W: PartitionWorld> {
    partitions: Vec<PartitionSim<W>>,
}

impl<W: PartitionWorld + Clone> PdesCheckpoint<W>
where
    W::Event: Clone,
{
    pub(crate) fn capture(partitions: &[PartitionSim<W>]) -> Self {
        PdesCheckpoint {
            partitions: partitions.to_vec(),
        }
    }

    pub(crate) fn restore_partitions(&self, expected: usize) -> Vec<PartitionSim<W>> {
        assert_eq!(
            self.partitions.len(),
            expected,
            "checkpoint partition count mismatch — snapshot from a different run"
        );
        self.partitions.clone()
    }

    /// Number of partitions in the snapshot.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The latest partition clock in the snapshot — the chunk boundary the
    /// checkpoint was taken at.
    pub fn at(&self) -> SimTime {
        self.partitions
            .iter()
            .map(|p| p.scheduler().now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// Typed failure from manifest parsing or IO.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file is not a checkpoint manifest (bad magic) or a field is
    /// missing or unparsable.
    Malformed(String),
    /// The manifest's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The payload hash does not match the header (bit rot, truncation,
    /// or a torn write).
    ChecksumMismatch {
        /// Checksum the header claims.
        expected: u64,
        /// Checksum of the payload actually on disk.
        actual: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint manifest IO error: {e}"),
            CheckpointError::Malformed(detail) => {
                write!(f, "malformed checkpoint manifest: {detail}")
            }
            CheckpointError::UnsupportedVersion(v) => write!(
                f,
                "unsupported checkpoint manifest version {v} (this build reads \
                 up to {CHECKPOINT_VERSION})"
            ),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint manifest checksum mismatch: header says {expected:#018x}, \
                 payload hashes to {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Durable record of a run's recovery provenance.
///
/// The manifest does not carry simulation state (checkpoints are in-memory
/// deep copies); it records *which* run the snapshots belong to and how far
/// recovery progressed, in a tamper-evident envelope: a magic + version
/// header, an FNV-1a checksum of the payload, then `key value` lines.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// Scenario or experiment name the run belongs to.
    pub scenario: String,
    /// The run's base seed.
    pub seed: u64,
    /// Driver rung the run finished on (e.g. `pdes-adaptive`, `sequential`).
    pub driver: String,
    /// Simulated time of the most recent checkpoint, in nanoseconds.
    pub sim_time_ns: u64,
    /// Checkpoints taken over the run.
    pub checkpoints_taken: u64,
    /// Restores performed over the run.
    pub restores: u64,
    /// Retry-ladder degradations performed over the run.
    pub degradations: u64,
}

impl CheckpointManifest {
    /// The `key value` payload the checksum covers.
    fn payload(&self) -> String {
        format!(
            "scenario {}\nseed {}\ndriver {}\nsim_time_ns {}\ncheckpoints_taken {}\n\
             restores {}\ndegradations {}\n",
            self.scenario,
            self.seed,
            self.driver,
            self.sim_time_ns,
            self.checkpoints_taken,
            self.restores,
            self.degradations,
        )
    }

    /// Serializes the manifest to its on-disk text form.
    pub fn to_string_form(&self) -> String {
        let payload = self.payload();
        format!(
            "{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\nchecksum {:#018x}\n{payload}",
            fnv1a(payload.as_bytes())
        )
    }

    /// Writes the manifest to `path`.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        std::fs::write(path, self.to_string_form())?;
        Ok(())
    }

    /// Parses a manifest from its on-disk text form, validating magic,
    /// version, and checksum.
    pub fn from_string_form(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| CheckpointError::Malformed("empty file".into()))?;
        let version = header
            .strip_prefix(CHECKPOINT_MAGIC)
            .and_then(|rest| rest.trim().strip_prefix('v'))
            .ok_or_else(|| CheckpointError::Malformed(format!("bad magic line {header:?}")))?
            .parse::<u32>()
            .map_err(|_| CheckpointError::Malformed("unparsable version".into()))?;
        if version > CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let checksum_line = lines
            .next()
            .ok_or_else(|| CheckpointError::Malformed("missing checksum line".into()))?;
        let expected = checksum_line
            .strip_prefix("checksum ")
            .and_then(|v| v.strip_prefix("0x"))
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| {
                CheckpointError::Malformed(format!("bad checksum line {checksum_line:?}"))
            })?;

        let mut manifest = CheckpointManifest::default();
        let mut payload = String::new();
        for line in lines {
            payload.push_str(line);
            payload.push('\n');
            let Some((key, value)) = line.split_once(' ') else {
                return Err(CheckpointError::Malformed(format!(
                    "expected `key value`, got {line:?}"
                )));
            };
            let parse_u64 = || {
                value
                    .parse::<u64>()
                    .map_err(|_| CheckpointError::Malformed(format!("bad {key} value {value:?}")))
            };
            match key {
                "scenario" => manifest.scenario = value.to_string(),
                "seed" => manifest.seed = parse_u64()?,
                "driver" => manifest.driver = value.to_string(),
                "sim_time_ns" => manifest.sim_time_ns = parse_u64()?,
                "checkpoints_taken" => manifest.checkpoints_taken = parse_u64()?,
                "restores" => manifest.restores = parse_u64()?,
                "degradations" => manifest.degradations = parse_u64()?,
                _ => {
                    return Err(CheckpointError::Malformed(format!(
                        "unknown manifest key {key:?}"
                    )))
                }
            }
        }
        let actual = fnv1a(payload.as_bytes());
        if actual != expected {
            return Err(CheckpointError::ChecksumMismatch { expected, actual });
        }
        Ok(manifest)
    }

    /// Reads and validates a manifest from `path`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_string_form(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CheckpointManifest {
        CheckpointManifest {
            scenario: "fault_drill".into(),
            seed: 42,
            driver: "pdes-adaptive".into(),
            sim_time_ns: 24_000_000,
            checkpoints_taken: 6,
            restores: 1,
            degradations: 2,
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample();
        let text = m.to_string_form();
        assert!(text.starts_with("ELEPHANT-CHECKPOINT v1\n"));
        let back = CheckpointManifest::from_string_form(&text).expect("round trip");
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_detects_bit_rot() {
        let text = sample().to_string_form();
        // Flip one digit in the payload (the seed), leaving the header alone.
        let rotted = text.replace("seed 42", "seed 43");
        match CheckpointManifest::from_string_form(&rotted) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn manifest_rejects_future_versions_and_junk() {
        let future = sample()
            .to_string_form()
            .replace("ELEPHANT-CHECKPOINT v1", "ELEPHANT-CHECKPOINT v2");
        assert!(matches!(
            CheckpointManifest::from_string_form(&future),
            Err(CheckpointError::UnsupportedVersion(2))
        ));
        assert!(matches!(
            CheckpointManifest::from_string_form("not a manifest"),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn manifest_save_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("elephant-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.txt");
        let m = sample();
        m.save(&path).expect("save");
        assert_eq!(CheckpointManifest::load(&path).expect("load"), m);
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        /// The reader never panics on a damaged manifest: every truncation
        /// short of the final newline is refused (`lines()` reads the last
        /// line the same without it), and one overwritten byte or a random
        /// string is refused or loads.
        #[test]
        fn manifest_reader_never_panics(
            seed in any::<u64>(),
            sim_time_ns in any::<u64>(),
            at in any::<usize>(),
            byte in any::<u8>(),
            junk in proptest::collection::vec(any::<u8>(), 0..=256),
        ) {
            let m = CheckpointManifest { seed, sim_time_ns, ..sample() };
            let text = m.to_string_form();
            let whole = text.len() - 1;
            prop_assert_eq!(CheckpointManifest::from_string_form(&text[..whole]).ok(), Some(m));
            for len in 0..whole {
                let loaded = CheckpointManifest::from_string_form(&text[..len]);
                prop_assert!(loaded.is_err(), "{} of {} bytes loaded", len, text.len());
            }
            let mut garbled = text.into_bytes();
            let at = at % garbled.len();
            garbled[at] = byte;
            let _ = CheckpointManifest::from_string_form(&String::from_utf8_lossy(&garbled));
            let _ = CheckpointManifest::from_string_form(&String::from_utf8_lossy(&junk));
        }
    }
}
