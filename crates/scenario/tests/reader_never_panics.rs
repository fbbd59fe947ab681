//! The scenario reader never panics: whatever the bytes, `toml::parse`
//! followed by `decode::from_table` answers `Ok` or `Err`. The inputs
//! start from every committed scenario under `scenarios/`: each of its
//! truncations, a sample of single-byte overwrites, and random strings —
//! raw bytes, and strings over TOML's own punctuation so the parser gets
//! past its first token.

use std::panic::catch_unwind;
use std::path::{Path, PathBuf};

use elephant_scenario::{decode, toml};
use proptest::prelude::*;

/// Every `*.toml` under the committed `scenarios/` directory, sorted,
/// with its text.
fn committed() -> Vec<(PathBuf, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("scenarios/ is readable") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "toml") {
                out.push(path);
            }
        }
    }
    let mut paths = Vec::new();
    walk(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios"),
        &mut paths,
    );
    paths.sort();
    let texts = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("scenario reads"));
    paths.iter().cloned().zip(texts).collect()
}

/// Reads `src` as the CLI does; a panic fails the test, naming `what`.
fn read(src: &str, what: &str) {
    let read = catch_unwind(|| {
        if let Ok(table) = toml::parse(src) {
            let _ = decode::from_table(&table);
        }
    });
    assert!(read.is_ok(), "the reader panicked on {what}:\n{src}");
}

#[test]
fn committed_scenarios_decode_and_every_truncation_is_answered() {
    let files = committed();
    assert!(files.len() >= 13, "{} committed scenarios", files.len());
    for (path, src) in &files {
        let table = toml::parse(src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Err(e) = decode::from_table(&table) {
            panic!("{}: {e}", path.display());
        }
        for len in (0..src.len()).filter(|&len| src.is_char_boundary(len)) {
            read(
                &src[..len],
                &format!("{} cut at byte {len}", path.display()),
            );
        }
    }
}

/// Characters TOML gives a meaning to, plus a few of each token class.
const TOML_CHARS: &[u8] = b"[]{}=,.\"'#\n\r\t \\_-+:0123456789eExXtfnaisu";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn overwrites_and_random_strings_are_answered(
        file in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
        junk in proptest::collection::vec(any::<u8>(), 0..=256),
        picks in proptest::collection::vec(any::<usize>(), 0..=256),
    ) {
        let files = committed();
        let (path, src) = &files[file % files.len()];
        let mut bytes = src.clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let garbled = String::from_utf8_lossy(&bytes);
        read(&garbled, &format!("{} with byte {at} set to {byte:#04x}", path.display()));
        read(&String::from_utf8_lossy(&junk), "random bytes");
        let tokens: Vec<u8> = picks.iter().map(|i| TOML_CHARS[i % TOML_CHARS.len()]).collect();
        read(&String::from_utf8_lossy(&tokens), "random TOML punctuation");
    }
}
