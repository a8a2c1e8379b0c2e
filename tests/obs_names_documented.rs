//! Every metric name the crates record has a row in
//! `docs/OBSERVABILITY.md`'s inventory, so the doc, `/metrics` and the
//! perf ledger speak one set of names.
//!
//! The scan reads `crates/*/src` for literal first arguments of
//! `obs::{span, time, counter_add, gauge_set, observe}`, skipping
//! comment lines (doc examples) and everything from a file's
//! `#[cfg(test)]` module on (test modules close their files here). A row
//! may hold a `<placeholder>` segment, which matches any one segment.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const RECORDERS: [&str; 5] = ["span", "time", "counter_add", "gauge_set", "observe"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Literal names recorded in `source` outside comments and test modules.
fn recorded_names(source: &str) -> Vec<String> {
    let code: String = source
        .lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let mut names = Vec::new();
    for (at, _) in code.match_indices("obs::") {
        let call = &code[at + "obs::".len()..];
        let Some(open) = call.find('(') else { continue };
        if !RECORDERS.contains(&&call[..open]) {
            continue;
        }
        let Some(arg) = call[open + 1..].trim_start().strip_prefix('"') else {
            continue; // a computed name: nothing to check statically
        };
        names.push(arg[..arg.find('"').unwrap()].to_string());
    }
    names
}

/// The backticked names in the first column of the doc's tables.
fn documented_names(doc: &str) -> Vec<String> {
    doc.lines()
        .filter_map(|line| line.strip_prefix('|')?.split('|').next())
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .map(str::to_string)
        .collect()
}

fn matches(row: &str, name: &str) -> bool {
    let (row, name): (Vec<&str>, Vec<&str>) = (row.split('.').collect(), name.split('.').collect());
    row.len() == name.len()
        && row
            .iter()
            .zip(&name)
            .all(|(r, n)| r == n || (r.starts_with('<') && r.ends_with('>') && !n.is_empty()))
}

#[test]
fn every_recorded_metric_name_has_a_doc_row() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut recorded = BTreeSet::new();
    for file in &files {
        recorded.extend(recorded_names(&fs::read_to_string(file).unwrap()));
    }
    assert!(
        recorded.contains("fleetd.admit") && recorded.len() > 50,
        "the scan found too few names: {recorded:?}"
    );

    let rows = documented_names(&fs::read_to_string(root.join("docs/OBSERVABILITY.md")).unwrap());
    let missing: Vec<&String> = recorded
        .iter()
        .filter(|name| !rows.iter().any(|row| matches(row, name)))
        .collect();
    assert!(
        missing.is_empty(),
        "metric names with no row in docs/OBSERVABILITY.md: {missing:?}"
    );
}

#[test]
fn the_scan_reads_calls_and_skips_comments_and_tests() {
    let source = "fn f() {\n    let _s = obs::span(\"a.b\");\n    obs::counter_add(\n        \"a.c\", 1);\n    obs::time(name, || ());\n    /// obs::gauge_set(\"doc.example\", 1.0);\n    obs::snapshot();\n}\n#[cfg(test)]\nmod tests { fn g() { obs::span(\"test.only\"); } }\n";
    assert_eq!(recorded_names(source), vec!["a.b", "a.c"]);
    assert!(matches("niom.<detector>.samples", "niom.hmm.samples"));
    assert!(!matches("niom.<detector>.samples", "niom.hmm.detect"));
    assert!(!matches("fleetd.admit", "fleetd.admit.samples"));
}
