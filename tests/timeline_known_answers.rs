//! Known answers for the sequential `--trace-out` timeline: an FNV-1a
//! checksum of the Chrome-trace JSON two commands write. The timeline is
//! built from the finished run — sampler counter tracks, flow spans and
//! drop/oracle instants from the event trace, guard-trip instants from
//! the guard's trip log — so a change to any of them, to the order they
//! are written in, or to the JSON writer that moves one byte fails here.

use std::process::Command;

/// FNV-1a 64 over the file's bytes.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `elephant ARGS --trace-out <tmp>/NAME` and returns the file.
fn trace_out(name: &str, args: &[&str]) -> Vec<u8> {
    let dir = std::env::temp_dir().join("elephant_timeline_known_answers");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let out = Command::new(env!("CARGO_BIN_EXE_elephant"))
        .args(args)
        .arg("--trace-out")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "elephant {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(&path).expect("timeline written")
}

#[test]
fn sampled_run_timeline_repeats_its_known_answer() {
    let args = ["run", "--clusters", "2", "--horizon-ms", "4"];
    let json = trace_out(
        "run.json",
        &[&args[..], &["--sample-every", "200"]].concat(),
    );
    assert_eq!(
        (json.len(), checksum(&json)),
        (18_953, 0x6236_a670_580a_7593)
    );
}

#[test]
fn guarded_hybrid_timeline_repeats_its_known_answer() {
    let args = ["hybrid", "--clusters", "2", "--horizon-ms", "4"];
    let json = trace_out(
        "hybrid.json",
        &[&args[..], &["--fault-oracle", "nan"]].concat(),
    );
    let text = String::from_utf8_lossy(&json);
    assert_eq!(text.matches("\"guard_trip\"").count(), 64);
    assert_eq!(
        (json.len(), checksum(&json)),
        (325_344, 0xe8e3_bc58_1d4d_7c27)
    );
}
