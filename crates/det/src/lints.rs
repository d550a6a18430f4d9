//! The determinism lints: token-pattern detectors over one source file.
//!
//! Each `D` code is a small heuristic over the scanner's token stream
//! (see `scan.rs`), tuned for this workspace rather than for arbitrary
//! Rust. The unifying question is always the replay contract: could
//! this construct make a digest, snapshot, or delivery order differ
//! between two runs over the same input? Findings inside
//! `#[cfg(test)]`/`#[test]` regions are dropped — tests may spawn
//! threads and hand-build interleavings; the contract binds production
//! code.

use crate::scan::{test_regions, tokenize, Tok, TokKind};
use cosmos_cql::Span;
use cosmos_lint::{codes, Diagnostic};

/// One lint finding, located for rendering.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The underlying diagnostic (code, severity, message, byte span).
    pub diag: Diagnostic,
    /// Workspace-relative path of the file (e.g. `crates/core/src/system.rs`).
    pub path: String,
    /// 1-based line of the span start.
    pub line: usize,
    /// Full text of that line (printed under the headline).
    pub line_text: String,
}

/// Collection names whose iteration order is seeded per process.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Method names that surface iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Idents that mark a file as exporting into an ordered sink: a digest,
/// a cross-process snapshot, or a serde wire format. D0101/D0501 only
/// fire in such files — unordered iteration that never leaves the
/// process (e.g. membership checks) is harmless.
const SINK_NAMES: &[&str] = &[
    "routing_digest",
    "NetworkSnapshot",
    "MetricsSnapshot",
    "to_json",
];

/// Lint one file. `rel_path` is workspace-relative; no module is
/// exempt from any lint and no finding can be suppressed.
pub fn lint_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let toks = tokenize(src);
    let skip = test_regions(src, &toks);
    let in_test = |t: &Tok| skip.iter().any(|&(s, e)| t.start >= s && t.start < e);
    let live: Vec<Tok> = toks.iter().copied().filter(|t| !in_test(t)).collect();

    let is_sink_file = live
        .iter()
        .any(|t| t.kind == TokKind::Ident && SINK_NAMES.contains(&t.text(src)))
        || has_serde_impl(src, &live);

    let hash_names = typed_names(src, &live, |ty| HASH_TYPES.contains(&ty));
    let f64_names = typed_names(src, &live, |ty| ty == "f64");

    let mut out = Vec::new();
    let mut push = |code: &'static str, msg: String, tok: &Tok| {
        let span = Span::new(tok.start, tok.end);
        out.push(locate(
            rel_path,
            src,
            Diagnostic::error(code, msg, Some(span)),
        ));
    };

    let txt = |i: usize| live.get(i).map_or("", |t| t.text(src));
    for i in 0..live.len() {
        let t = live[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(src);

        // D0101: `<hash-typed name> . iter/keys/values/…` or a for-loop
        // directly over the map (`for k in <name>` / `for (k, v) in
        // &<name>`), in a file that exports into an ordered sink.
        if is_sink_file && hash_names.iter().any(|n| n == name) {
            if txt(i + 1) == "." && ITER_METHODS.contains(&txt(i + 2)) {
                push(
                    codes::DET_HASH_ITER,
                    format!(
                        "iteration over hash-ordered `{name}` in a module that exports into a \
                         digest/snapshot/serde sink; hash iteration order is seeded per process — \
                         sort before emission or switch to BTreeMap/BTreeSet"
                    ),
                    &t,
                );
            } else if for_loop_target(src, &live, i) {
                push(
                    codes::DET_HASH_ITER,
                    format!(
                        "for-loop over hash-ordered `{name}` in a module that exports into a \
                         digest/snapshot/serde sink; hash iteration order is seeded per process — \
                         sort before emission or switch to BTreeMap/BTreeSet"
                    ),
                    &t,
                );
            }
        }

        // D0201: `Instant::now` / `SystemTime::now`.
        if (name == "Instant" || name == "SystemTime") && txt(i + 1) == "::" && txt(i + 2) == "now"
        {
            push(
                codes::DET_WALL_CLOCK,
                format!(
                    "wall clock `{name}::now`; replay requires logic to be a pure function of \
                     the input stream (clock the code from tuple timestamps)"
                ),
                &t,
            );
        }

        // D0301: ambient randomness.
        if name == "thread_rng" || name == "RandomState" {
            push(
                codes::DET_AMBIENT_RNG,
                format!(
                    "ambient randomness `{name}`; per-process entropy that no seed replays — \
                     thread an explicit seeded RNG instead"
                ),
                &t,
            );
        }
        if name == "rand" && txt(i + 1) == "::" && txt(i + 2) == "random" {
            push(
                codes::DET_AMBIENT_RNG,
                "ambient randomness `rand::random`; per-process entropy that no seed replays — \
                 thread an explicit seeded RNG instead"
                    .to_string(),
                &t,
            );
        }

        // D0401: concurrency primitives, anywhere — the workspace is
        // single-threaded by lint. Only call-shaped uses count
        // (`spawn(…)`, `select!`), so an ident named `spawn` in a doc
        // path stays quiet.
        if matches!(name, "spawn" | "try_recv" | "recv_timeout" | "select")
            && matches!(txt(i + 1), "(" | "!")
        {
            push(
                codes::DET_UNMANAGED_CONC,
                format!(
                    "concurrency primitive `{name}`; the simulator is one deterministic \
                     discrete-event driver and replay depends on it staying single-threaded"
                ),
                &t,
            );
        }

        // D0501: bare `f64 +=`/`-=` accumulation in sink files.
        if is_sink_file && f64_names.iter().any(|n| n == name) {
            let next = txt(i + 1);
            if next == "+=" || next == "-=" {
                push(
                    codes::DET_BARE_F64_ACC,
                    format!(
                        "bare `{name} {next} …` float accumulation in a module that feeds \
                         oracles; association order drifts under merging — use \
                         cosmos_types::NeumaierSum (the PR-4 compensated-summation helper)"
                    ),
                    &t,
                );
            }
        }
    }
    out
}

/// Attach path/line/line-text context to a diagnostic.
fn locate(rel_path: &str, src: &str, diag: Diagnostic) -> Finding {
    let start = diag.span.map_or(0, |s| s.start).min(src.len());
    let line = src[..start].bytes().filter(|&b| b == b'\n').count() + 1;
    let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
    let line_end = src[start..].find('\n').map_or(src.len(), |i| start + i);
    Finding {
        diag,
        path: rel_path.to_string(),
        line,
        line_text: src[line_start..line_end].to_string(),
    }
}

/// Collect names declared (or shadowed) with a matching type: binds
/// `name : [& | &mut | &'a] Type` and `name = Path::with_hash::ctor(…)`
/// patterns. Name-based rather than flow-based — good enough for this
/// workspace's style, where fields and locals are annotated.
fn typed_names(src: &str, toks: &[Tok], matches_ty: impl Fn(&str) -> bool) -> Vec<String> {
    let mut names = Vec::new();
    let txt = |i: usize| toks.get(i).map_or("", |t: &Tok| t.text(src));
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name :` — then skip refs/lifetimes/mut, then read the type
        // path; any component matching counts (`std::collections::HashMap`,
        // `FxHashMap<…>`).
        if txt(i + 1) == ":" {
            let mut j = i + 2;
            while matches!(txt(j), "&" | "mut")
                || toks.get(j).is_some_and(|t| t.kind == TokKind::Lifetime)
            {
                j += 1;
            }
            let mut matched = false;
            while let Some(t) = toks.get(j) {
                if t.kind == TokKind::Ident {
                    if matches_ty(t.text(src)) {
                        matched = true;
                    }
                    j += 1;
                    if txt(j) == "::" {
                        j += 1;
                        continue;
                    }
                }
                break;
            }
            if matched {
                names.push(txt(i).to_string());
            }
        }
        // `name = Hash…::default()` style constructor binding.
        if txt(i + 1) == "=" {
            let mut j = i + 2;
            let mut matched = false;
            while let Some(t) = toks.get(j) {
                if t.kind == TokKind::Ident {
                    if matches_ty(t.text(src)) {
                        matched = true;
                    }
                    j += 1;
                    if txt(j) == "::" || (txt(j) == "<" && matched) {
                        // Step over turbofish-ish type arguments coarsely.
                        j += 1;
                        continue;
                    }
                }
                break;
            }
            if matched && !names.iter().any(|n| n == txt(i)) {
                names.push(txt(i).to_string());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Is token `i` the target of a for-loop (`for pat in [&[mut]] name`)?
/// Scans back over at most a small window for the `in` keyword with a
/// `for` before it.
fn for_loop_target(src: &str, toks: &[Tok], i: usize) -> bool {
    let txt = |j: usize| toks.get(j).map_or("", |t: &Tok| t.text(src));
    let mut j = i;
    // Step back over `&`/`mut` sigils and `self.`/`h.` field paths
    // before the name (`for k in &self.links`).
    loop {
        if j > 0 && matches!(txt(j - 1), "&" | "mut") {
            j -= 1;
        } else if j > 1 && txt(j - 1) == "." {
            j -= 2;
        } else {
            break;
        }
    }
    if j == 0 || txt(j - 1) != "in" {
        return false;
    }
    // Look back a short window for the `for`.
    let lo = j.saturating_sub(12);
    (lo..j).any(|k| txt(k) == "for")
}

/// Does the file derive or implement serde `Serialize`/`Deserialize`?
/// A `use serde::Serialize;` import alone does not make a sink — the
/// back-scan requires `derive(…)` or `impl` context near the token.
fn has_serde_impl(src: &str, toks: &[Tok]) -> bool {
    for i in 0..toks.len() {
        let name = toks[i].text(src);
        if name != "Serialize" && name != "Deserialize" {
            continue;
        }
        let lo = i.saturating_sub(24);
        for k in (lo..i).rev() {
            match toks[k].text(src) {
                "derive" | "impl" => return true,
                "use" | ";" => break,
                _ => {}
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.diag.code).collect()
    }

    #[test]
    fn d0101_hash_iter_in_sink_file_with_span() {
        let src = "#[derive(Serialize)]\nstruct S;\nstruct H { links: FxHashMap<u32, u32> }\n\
                   fn emit(h: &H) { for (k, v) in h.links.iter() { let _ = (k, v); } }\n";
        // `links` is hash-typed and the file derives Serialize.
        let f = lint_file("crates/x/src/a.rs", src);
        assert_eq!(codes_of(&f), vec![codes::DET_HASH_ITER]);
        let span = f[0].diag.span.unwrap();
        assert_eq!(&src[span.start..span.end], "links");
        assert!(f[0].line_text.contains("for (k, v)"));
    }

    #[test]
    fn d0101_for_loop_directly_over_map() {
        let src = "fn routing_digest() {}\nstruct H { m: HashMap<u32, u32> }\n\
                   fn f(h: H) { for k in &h.m { let _ = k; } }\n";
        let f = lint_file("crates/x/src/a.rs", src);
        assert_eq!(codes_of(&f), vec![codes::DET_HASH_ITER]);
    }

    #[test]
    fn d0101_silent_without_sink() {
        let src = "struct H { m: HashMap<u32, u32> }\n\
                   fn f(h: &H) { for k in h.m.keys() { let _ = k; } }\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn d0101_silent_for_btreemap_in_sink() {
        let src = "fn routing_digest() {}\nstruct H { m: BTreeMap<u32, u32> }\n\
                   fn f(h: &H) { for k in h.m.keys() { let _ = k; } }\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn d0201_wall_clock_with_span() {
        let src = "fn f() { let t = Instant::now(); let _ = t; }";
        let f = lint_file("crates/x/src/a.rs", src);
        assert_eq!(codes_of(&f), vec![codes::DET_WALL_CLOCK]);
        let span = f[0].diag.span.unwrap();
        assert_eq!(&src[span.start..span.end], "Instant");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn d0201_system_time_too() {
        let src = "fn f() { let _ = SystemTime::now(); }";
        let f = lint_file("crates/x/src/a.rs", src);
        assert_eq!(codes_of(&f), vec![codes::DET_WALL_CLOCK]);
    }

    #[test]
    fn d0301_thread_rng_and_random_state() {
        let src = "fn f() { let r = thread_rng(); let s: RandomState = RandomState::new(); }";
        let f = lint_file("crates/x/src/a.rs", src);
        assert_eq!(
            codes_of(&f),
            vec![
                codes::DET_AMBIENT_RNG,
                codes::DET_AMBIENT_RNG,
                codes::DET_AMBIENT_RNG
            ]
        );
    }

    #[test]
    fn d0401_spawn_has_no_exempt_path() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        for path in ["crates/x/src/a.rs", "crates/core/src/parallel.rs"] {
            let f = lint_file(path, src);
            assert_eq!(codes_of(&f), vec![codes::DET_UNMANAGED_CONC], "{path}");
        }
    }

    #[test]
    fn d0401_try_recv() {
        let src = "fn f(rx: Receiver<u32>) { let _ = rx.try_recv(); }";
        let f = lint_file("crates/x/src/a.rs", src);
        assert_eq!(codes_of(&f), vec![codes::DET_UNMANAGED_CONC]);
    }

    #[test]
    fn d0501_bare_f64_accumulation_in_sink_file() {
        let src = "fn to_json() {}\nstruct A { cost: f64 }\n\
                   fn f(a: &mut A, xs: &[f64]) { for x in xs { a.cost += x; } }\n";
        let f = lint_file("crates/x/src/a.rs", src);
        assert_eq!(codes_of(&f), vec![codes::DET_BARE_F64_ACC]);
        let span = f[0].diag.span.unwrap();
        assert_eq!(&src[span.start..span.end], "cost");
    }

    #[test]
    fn d0501_silent_without_sink() {
        let src = "struct A { cost: f64 }\nfn f(a: &mut A) { a.cost += 1.0; }\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn test_regions_suppress_findings() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { \
                   std::thread::spawn(|| {}); let _ = Instant::now(); }\n}\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn serde_use_import_is_not_a_sink() {
        let src = "use serde::Serialize;\nstruct H { m: HashMap<u32, u32> }\n\
                   fn f(h: &H) { for k in h.m.keys() { let _ = k; } }\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn serde_derive_is_a_sink() {
        let src = "use serde::Serialize;\n#[derive(Serialize)]\nstruct W { x: u32 }\n\
                   struct H { m: HashMap<u32, u32> }\n\
                   fn f(h: &H) { for k in h.m.keys() { let _ = k; } }\n";
        let f = lint_file("crates/x/src/a.rs", src);
        assert_eq!(codes_of(&f), vec![codes::DET_HASH_ITER]);
    }
}
