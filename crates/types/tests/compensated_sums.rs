//! Float accumulation into a digest, snapshot or serde sink goes through
//! `NeumaierSum`: clippy has no rule for a bare `f64 +=`, and no sweep
//! notices one, so this test reads the first-party sources for it.

use std::path::Path;

const SINKS: [&str; 4] = [
    "routing_digest",
    "NetworkSnapshot",
    "MetricsSnapshot",
    "to_json",
];

/// A file under `crates/*/src` is a sink if it names a digest or
/// snapshot, or derives or implements serde; in one, a name declared
/// `: f64` must not meet `+=`/`-=` before the file's test module.
#[test]
fn sink_files_accumulate_floats_with_neumaier_sums() {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let serde = |l: &str| l.contains("Serialize") && (l.contains("derive(") || l.contains("impl "));
    let crates = std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("..")).unwrap();
    let mut dirs: Vec<_> = crates.map(|c| c.unwrap().path().join("src")).collect();
    let (mut sinks, mut found) = (0, Vec::new());
    while let Some(dir) = dirs.pop() {
        let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
        for path in entries.map(|e| e.path()) {
            if path.is_dir() {
                dirs.push(path);
                continue;
            } else if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let live = text.split("#[cfg(test)]\nmod ").next().unwrap();
            if !SINKS.iter().any(|s| live.contains(s)) && !live.lines().any(serde) {
                continue;
            }
            sinks += 1;
            for (i, _) in live.match_indices(": f64") {
                let name = &live[live[..i].rfind(|c| !word(c)).map_or(0, |j| j + 1)..i];
                for site in [format!("{name} +="), format!("{name} -=")] {
                    let mut at = live.match_indices(&site).map(|(j, _)| &live[..j]);
                    if !name.is_empty() && at.any(|before| !before.ends_with(word)) {
                        found.push(format!("{}: {site}", path.display()));
                    }
                }
            }
        }
    }
    let vacuous = sinks < 10;
    assert!(
        !vacuous && found.is_empty(),
        "{sinks} sink files; bare sums: {found:?}"
    );
}
