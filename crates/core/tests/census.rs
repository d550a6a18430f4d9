//! DESIGN §8's "Census of shipped options" stays true: every public
//! `set_*` option of `Cosmos` and every `pub` field of `CosmosConfig`
//! has a row, and every `Cosmos::set_*` or `CosmosConfig::*` a row names
//! still exists. An option that no whole-system run arms must at least
//! be written down, with the item that will arm it.

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

/// Every identifier a piece of text mentions right after `prefix`
/// (`Cosmos::set_` names setters, `CosmosConfig::` fields), with the
/// part of the prefix after its last `::`.
fn names_after(text: &str, prefix: &str) -> BTreeSet<String> {
    let kept = &prefix[prefix.rfind("::").map_or(0, |i| i + 2)..];
    text.match_indices(prefix)
        .map(|(i, m)| {
            let rest = &text[i + m.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            format!("{kept}{}", &rest[..end])
        })
        .collect()
}

/// The `pub` fields of `pub struct CosmosConfig` in `system.rs`. rustfmt
/// puts the struct's closing brace at column 0 and its fields at four
/// spaces.
fn config_fields() -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/system.rs");
    let src = std::fs::read_to_string(path).expect("system.rs reads");
    let (_, body) = src
        .split_once("pub struct CosmosConfig {\n")
        .expect("system.rs defines CosmosConfig");
    let body = body.split("\n}").next().unwrap_or(body);
    body.lines()
        .filter_map(|l| l.strip_prefix("    pub "))
        .map(|l| l.split(':').next().expect("a field").to_string())
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
    let listed: BTreeSet<String> = (rows.iter())
        .flat_map(|r| names_after(r, "Cosmos::set_"))
        .collect();
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

#[test]
fn every_config_field_has_a_census_row_and_every_row_a_field() {
    let listed: BTreeSet<String> = (census_rows().iter())
        .flat_map(|r| names_after(r, "CosmosConfig::"))
        .collect();
    let defined = config_fields();
    assert!(defined.contains("merging_enabled"), "the scan finds fields");
    let missing: Vec<_> = defined.difference(&listed).collect();
    assert!(
        missing.is_empty(),
        "CosmosConfig fields without a DESIGN §8 census row: {missing:?}"
    );
    let stale: Vec<_> = listed.difference(&defined).collect();
    assert!(
        stale.is_empty(),
        "DESIGN §8 census rows naming no CosmosConfig field: {stale:?}"
    );
}
