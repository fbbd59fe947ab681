//! The decoder's verdicts, pinned. Every committed scenario under
//! `scenarios/` is mutated one key at a time: the key dropped, misspelt,
//! given a value of the wrong type, and, for a number, set to values out
//! of every range the schema uses. Each mutated document goes through
//! `sweep_cells` (the decoder, then each sweep cell's edits through it
//! again), and its verdict — accepted, or rejected at a line with a
//! message — must equal the one recorded in `rejection_corpus.txt`. The
//! "expected one of" list of an unknown-key message is left out of the
//! record: it names the keys in the order the decoder reads them.
//! `ELEPHANT_BLESS=1 cargo test -p elephant-scenario --test
//! rejection_corpus` rewrites the record.

use std::path::{Path, PathBuf};

use elephant_scenario::toml::{self, Spanned, Table, TomlValue};
use elephant_scenario::{decode, ScenarioError};

const RECORD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/rejection_corpus.txt");

/// Every `*.toml` under `scenarios/`, sorted, relative to the repository.
fn committed() -> Vec<(String, Table)> {
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
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths = Vec::new();
    walk(&root.join("scenarios"), &mut paths);
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(p).expect("scenario reads");
            let doc = toml::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            let name = p.strip_prefix(&root).expect("under the repository");
            (name.display().to_string(), doc)
        })
        .collect()
}

/// One edit of one key: what it does, as the record names it, and the
/// new entry (`None` drops the key).
type Edit = (String, Option<(String, Spanned)>);

/// The edits of a key holding `v`.
fn edits(key: &str, v: &Spanned) -> Vec<Edit> {
    let at = |value: TomlValue| Spanned {
        value,
        line: v.line,
    };
    let mut misspelt = key.to_string();
    misspelt.pop();
    let wrong = match v.value {
        TomlValue::Str(_) => TomlValue::Int(7),
        TomlValue::Int(_) | TomlValue::Float(_) => TomlValue::Str("7".into()),
        TomlValue::Bool(_) => TomlValue::Str("true".into()),
        TomlValue::Array(_) => TomlValue::Str("x".into()),
        TomlValue::Table(_) => TomlValue::Int(7),
    };
    let mut out: Vec<Edit> = vec![
        ("drop".into(), None),
        (format!("misspell {misspelt}"), Some((misspelt, v.clone()))),
        (format!("set {wrong}"), Some((key.into(), at(wrong)))),
    ];
    let numbers: Vec<TomlValue> = match v.value {
        TomlValue::Int(_) => [-1, 0, 65_536, 4_294_967_296].map(TomlValue::Int).into(),
        TomlValue::Float(_) => [-1.0, 0.0, 1.5].map(TomlValue::Float).into(),
        _ => Vec::new(),
    };
    for n in numbers {
        out.push((format!("set {n}"), Some((key.into(), at(n)))));
    }
    out
}

/// Every single-key mutation of `doc`, each named by the dotted path of
/// the key (`traffic[1].load`) and its edit.
fn mutations(doc: &Table) -> Vec<(String, Table)> {
    fn walk(
        t: &Table,
        path: &str,
        rebuild: &dyn Fn(Table) -> Table,
        out: &mut Vec<(String, Table)>,
    ) {
        for (i, (key, v)) in t.entries.iter().enumerate() {
            let here = if path.is_empty() {
                key.clone()
            } else {
                format!("{path}.{key}")
            };
            for (what, edit) in edits(key, v) {
                let mut changed = t.clone();
                match edit {
                    None => {
                        changed.entries.remove(i);
                    }
                    Some(entry) => changed.entries[i] = entry,
                }
                out.push((format!("{here} {what}"), rebuild(changed)));
            }
            match &v.value {
                TomlValue::Table(inner) => {
                    let put = |inner: Table| {
                        let mut t = t.clone();
                        t.entries[i].1.value = TomlValue::Table(inner);
                        rebuild(t)
                    };
                    walk(inner, &here, &put, out);
                }
                TomlValue::Array(items) => {
                    for (j, item) in items.iter().enumerate() {
                        let TomlValue::Table(inner) = &item.value else {
                            continue;
                        };
                        let put = |inner: Table| {
                            let mut t = t.clone();
                            if let TomlValue::Array(items) = &mut t.entries[i].1.value {
                                items[j].value = TomlValue::Table(inner);
                            }
                            rebuild(t)
                        };
                        walk(inner, &format!("{here}[{j}]"), &put, out);
                    }
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(doc, "", &|t| t, &mut out);
    out
}

/// `ok`, or the rejection's line and message.
fn verdict(result: Result<Vec<decode::SweepCell>, ScenarioError>) -> String {
    match result {
        Ok(_) => "ok".into(),
        Err(e) => {
            let detail = e.detail.split(" (expected one of:").next().unwrap_or("");
            format!("{}: {detail}", e.line)
        }
    }
}

#[test]
fn every_mutation_of_every_committed_scenario_gets_its_recorded_verdict() {
    let mut lines = Vec::new();
    for (file, doc) in committed() {
        assert_eq!(verdict(decode::sweep_cells(&doc)), "ok", "{file}");
        lines.push(format!("# {file}"));
        for (what, mutated) in mutations(&doc) {
            let verdict = verdict(decode::sweep_cells(&mutated));
            lines.push(format!("{what} => {verdict}"));
        }
    }
    let got = lines.join("\n") + "\n";
    if std::env::var_os("ELEPHANT_BLESS").is_some() {
        std::fs::write(RECORD, &got).expect("the record writes");
        return;
    }
    let want = std::fs::read_to_string(RECORD).expect("the record reads");
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(want.len(), lines.len(), "mutation count");
    let differ: Vec<String> = want
        .iter()
        .zip(&lines)
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("recorded: {w}\n     got: {g}"))
        .collect();
    assert!(
        differ.is_empty(),
        "{} of {} verdicts differ:\n{}",
        differ.len(),
        lines.len(),
        differ.join("\n")
    );
}
