//! DESIGN §8's "Census of shipped options" stays true: every public
//! `set_*` option of `Cosmos` has a row, and every `Cosmos::set_*` a
//! row names still exists. An option that no whole-system run arms
//! must at least be written down, with the item that will arm it.

use std::collections::BTreeSet;
use std::path::Path;

const DESIGN: &str = include_str!("../../../DESIGN.md");

/// The census table's rows, as the text of their first cell.
fn census_rows() -> Vec<&'static str> {
    let (_, section) = DESIGN
        .split_once("### Census of shipped options")
        .expect("DESIGN.md has the census section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| option"))
        .map(|l| l.split('|').nth(1).expect("a table row has cells"))
        .collect()
}

/// Every `Cosmos::set_NAME` a piece of text mentions.
fn setters_named(text: &str) -> BTreeSet<String> {
    text.match_indices("Cosmos::set_")
        .map(|(i, m)| {
            let rest = &text[i + m.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            format!("set_{}", &rest[..end])
        })
        .collect()
}

/// The `pub fn set_*` methods of every `impl Cosmos` block under
/// `dir`. rustfmt puts the block's header and its closing brace at
/// column 0 and its methods at four spaces.
fn setters_defined(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source directory reads") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            setters_defined(&path, out);
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("source file reads");
        let mut in_cosmos = false;
        for line in src.lines() {
            if line == "impl Cosmos {" {
                in_cosmos = true;
            } else if line == "}" {
                in_cosmos = false;
            } else if let Some(rest) = line.strip_prefix("    pub fn set_") {
                if in_cosmos {
                    let end = rest.find('(').expect("a method signature");
                    out.insert(format!("set_{}", &rest[..end]));
                }
            }
        }
    }
}

#[test]
fn every_cosmos_setter_has_a_census_row_and_every_row_a_setter() {
    let rows = census_rows();
    assert!(!rows.is_empty(), "the census table has rows");
    let listed: BTreeSet<String> = rows.iter().flat_map(|r| setters_named(r)).collect();
    let mut defined = BTreeSet::new();
    setters_defined(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut defined,
    );
    assert!(defined.contains("set_overload"), "the scan finds setters");
    let missing: Vec<_> = defined.difference(&listed).collect();
    assert!(
        missing.is_empty(),
        "Cosmos setters without a DESIGN §8 census row: {missing:?}"
    );
    let stale: Vec<_> = listed.difference(&defined).collect();
    assert!(
        stale.is_empty(),
        "DESIGN §8 census rows naming no Cosmos setter: {stale:?}"
    );
}
