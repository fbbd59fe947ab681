//! Replays `tests/golden_fingerprints.txt`: every committed full-fidelity
//! scenario, sequential and under PDES, plus `run` at fixed flags, must
//! print the fingerprint recorded there. The determinism suites compare
//! runs of one build with each other; this compares a build with its
//! ancestors, so a refactor that claims "every fingerprint bit-identical"
//! is checked rather than trusted.

use std::process::Command;

const TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_fingerprints.txt");

fn fingerprint_of(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_elephant"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args.split_whitespace())
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "elephant {args} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("fingerprint: ").map(str::to_string))
        .unwrap_or_else(|| panic!("elephant {args} printed no fingerprint:\n{stdout}"))
}

#[test]
fn fingerprints_match_the_recorded_table() {
    let table = std::fs::read_to_string(TABLE).expect("golden table reads");
    let (header, rows): (Vec<&str>, Vec<&str>) = table.lines().partition(|l| l.starts_with('#'));
    let mut replayed: Vec<String> = rows
        .iter()
        .map(|row| match row.split_once(" = ") {
            Some((args, _)) => args.to_string(),
            None => panic!("malformed row: {row}"),
        })
        .collect();
    // The rows are independent child processes: replay them on every core.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for chunk in replayed.chunks_mut(rows.len().div_ceil(cores)) {
            scope.spawn(move || {
                for row in chunk {
                    *row = format!("{row} = {}", fingerprint_of(row));
                }
            });
        }
    });
    if std::env::var_os("ELEPHANT_BLESS").is_some() {
        let lines: Vec<&str> = header
            .into_iter()
            .chain(replayed.iter().map(String::as_str))
            .collect();
        std::fs::write(TABLE, lines.join("\n") + "\n").expect("golden table writes");
        return;
    }
    let drifted: Vec<String> = rows
        .iter()
        .zip(&replayed)
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("recorded {want}\n     got {got}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "run fingerprints drifted from tests/golden_fingerprints.txt:\n{}",
        drifted.join("\n")
    );
}
