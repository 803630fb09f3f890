//! Doc checks. Every `TraceEvent` variant must be documented in
//! OBSERVABILITY.md — the trace schema is a contract, and an event that
//! ships without documentation is unreconcilable by readers of the traces.
//! Every measurement binary, criterion bench and root `BENCH_*` or
//! `REPRODUCE_*` file must
//! have a row in EXPERIMENTS.md's "Measurement apparatus" table saying what
//! it alone measures — a second producer of a number cannot land unnoticed.

use std::path::Path;

/// Extract the variant names of `pub enum TraceEvent` from the source text.
fn trace_event_variants(src: &str) -> Vec<String> {
    let start = src
        .find("pub enum TraceEvent")
        .expect("trace.rs declares TraceEvent");
    let body = &src[start..];
    let open = body.find('{').expect("enum body");
    let mut depth = 0usize;
    let mut end = open;
    for (i, c) in body[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    let mut variants = Vec::new();
    let mut brace = 0usize;
    for line in body[open + 1..end].lines() {
        let t = line.trim();
        // Only top-level variant lines: skip doc comments, attributes, and
        // the field lines inside a struct variant's braces.
        if brace == 0
            && !t.starts_with("///")
            && !t.starts_with("//")
            && !t.starts_with('#')
            && t.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        {
            let name: String = t
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if !name.is_empty() {
                variants.push(name);
            }
        }
        brace += line.matches('{').count();
        brace = brace.saturating_sub(line.matches('}').count());
    }
    variants
}

#[test]
fn every_trace_event_variant_is_documented_in_observability_md() {
    let src = include_str!("../crates/core/src/trace.rs");
    let doc = include_str!("../OBSERVABILITY.md");
    let variants = trace_event_variants(src);
    assert!(
        variants.len() >= 20,
        "parser found only {} variants — parsing broke?",
        variants.len()
    );
    let missing: Vec<&String> = variants.iter().filter(|v| !doc.contains(v.as_str())).collect();
    assert!(
        missing.is_empty(),
        "TraceEvent variants missing from OBSERVABILITY.md: {missing:?}"
    );
}

#[test]
fn chaos_events_are_among_the_parsed_variants() {
    let src = include_str!("../crates/core/src/trace.rs");
    let variants = trace_event_variants(src);
    for v in [
        "PartitionStart",
        "PartitionHeal",
        "LeaseAcquire",
        "LeaseExpire",
        "FencedOutput",
        "FalseSuspicion",
        "ChaosDelay",
    ] {
        assert!(variants.contains(&v.to_string()), "parser misses {v}");
    }
}

/// The apparatus table's rows as `(name, kept)`: the backticked first cell
/// of each row of the `## Measurement apparatus` section, and whether its
/// second cell is `kept` (anything else marks a deleted artifact).
fn apparatus_rows(doc: &str) -> Vec<(String, bool)> {
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("Measurement apparatus"))
        .expect("EXPERIMENTS.md has a Measurement apparatus section");
    section
        .lines()
        .filter_map(|line| {
            let (name, rest) = line.strip_prefix("| `")?.split_once('`')?;
            let status = rest.split('|').nth(1)?.trim();
            Some((name.to_string(), status == "kept"))
        })
        .collect()
}

/// The artifacts the table must cover, named as the table names them:
/// `src/bin/*.rs` and `benches/*.rs` relative to `crates/bench`, and the
/// `BENCH_*` and `REPRODUCE_*` files at the repository root.
fn apparatus_on_disk(root: &Path) -> Vec<String> {
    let names = |dir: &Path| -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8 name")
            })
            .collect()
    };
    let mut found = Vec::new();
    for sub in ["src/bin", "benches"] {
        let rs = names(&root.join("crates/bench").join(sub)).into_iter();
        found.extend(
            rs.filter(|n| n.ends_with(".rs"))
                .map(|n| format!("{sub}/{n}")),
        );
    }
    found.extend(
        names(root)
            .into_iter()
            .filter(|n| n.starts_with("BENCH_") || n.starts_with("REPRODUCE_")),
    );
    found
}

/// What is wrong with the table against the files: an artifact without a
/// `kept` row, a `kept` row whose file is gone, a deleted row whose file is
/// back.
fn apparatus_gaps(rows: &[(String, bool)], on_disk: &[String]) -> Vec<String> {
    let mut gaps = Vec::new();
    for name in on_disk {
        match rows.iter().find(|(n, _)| n == name) {
            None => gaps.push(format!("{name}: no row")),
            Some((_, false)) => gaps.push(format!("{name}: on disk but its row says deleted")),
            Some(_) => {}
        }
    }
    for (name, kept) in rows {
        if *kept && !on_disk.contains(name) {
            gaps.push(format!("{name}: row says kept but no such file"));
        }
    }
    gaps
}

#[test]
fn every_measurement_artifact_has_an_apparatus_row() {
    let doc = include_str!("../EXPERIMENTS.md");
    let rows = apparatus_rows(doc);
    assert!(
        rows.len() >= 20,
        "parser found only {} rows — parsing broke?",
        rows.len()
    );
    let on_disk = apparatus_on_disk(Path::new(env!("CARGO_MANIFEST_DIR")));
    let gaps = apparatus_gaps(&rows, &on_disk);
    assert!(
        gaps.is_empty(),
        "EXPERIMENTS.md apparatus table vs disk: {gaps:?}"
    );
}

#[test]
fn apparatus_check_catches_a_bin_without_a_row() {
    let rows = apparatus_rows(include_str!("../EXPERIMENTS.md"));
    let mut on_disk: Vec<String> = rows
        .iter()
        .filter(|(_, kept)| *kept)
        .map(|(name, _)| name.clone())
        .collect();
    assert!(apparatus_gaps(&rows, &on_disk).is_empty());
    on_disk.retain(|name| name != "src/bin/reproduce.rs");
    on_disk.push("src/bin/table3.rs".into()); // its row says deleted
    on_disk.push("src/bin/new_table.rs".into());
    assert_eq!(
        apparatus_gaps(&rows, &on_disk),
        [
            "src/bin/table3.rs: on disk but its row says deleted",
            "src/bin/new_table.rs: no row",
            "src/bin/reproduce.rs: row says kept but no such file",
        ]
    );
}

/// The test citations in `doc`: every `…tests/<name>.rs` path (with the
/// `::<fn>` after it, if any) and every `--test <name>`, the latter as
/// `tests/<name>.rs`.
fn test_citations(doc: &str) -> Vec<(String, Option<String>)> {
    let ident = |s: &str| {
        let end = s
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(s.len());
        s[..end].to_string()
    };
    let mut cited = Vec::new();
    for (at, _) in doc.match_indices("tests/") {
        let name = ident(&doc[at + 6..]);
        let Some(rest) = doc[at + 6 + name.len()..].strip_prefix(".rs") else {
            continue;
        };
        let path_char = |c: char| c.is_ascii_alphanumeric() || "_-/.".contains(c);
        let start = doc[..at].rfind(|c| !path_char(c)).map_or(0, |i| i + 1);
        let path = format!("{}tests/{name}.rs", &doc[start..at]);
        cited.push((path, rest.strip_prefix("::").map(ident)));
    }
    for (at, flag) in doc.match_indices("--test ") {
        let name = ident(&doc[at + flag.len()..]);
        if !name.is_empty() {
            cited.push((format!("tests/{name}.rs"), None));
        }
    }
    cited
}

/// Every `.rs` file under `root`, as a path relative to it (build output
/// and hidden directories skipped).
fn rust_files(root: &Path) -> Vec<String> {
    let mut found = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() && name != "target" && !name.starts_with('.') {
                dirs.push(path);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).expect("under root");
                found.push(rel.to_string_lossy().into_owned());
            }
        }
    }
    found
}

/// What is wrong with `cited` against `files` (and `read`, their text): a
/// path that names no file or several, a `::name` that is no `fn` there.
fn citation_gaps(
    cited: &[(String, Option<String>)],
    files: &[String],
    read: impl Fn(&str) -> String,
) -> Vec<String> {
    let mut gaps = Vec::new();
    for (path, func) in cited {
        let hits: Vec<&String> = files
            .iter()
            .filter(|f| *f == path || f.ends_with(&format!("/{path}")))
            .collect();
        let [file] = hits[..] else {
            gaps.push(format!("{path}: {} files match", hits.len()));
            continue;
        };
        if let Some(func) = func {
            let text = read(file);
            let defined = text
                .match_indices(&format!("fn {func}"))
                .any(|(at, m)| text[at + m.len()..].starts_with(['(', '<']));
            if !defined {
                gaps.push(format!("{path}::{func}: no such fn"));
            }
        }
    }
    gaps
}

#[test]
fn every_cited_test_file_and_fn_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let docs = [
        include_str!("../DESIGN.md"),
        include_str!("../EXPERIMENTS.md"),
        include_str!("../.claude/skills/verify/SKILL.md"),
    ];
    let cited: Vec<_> = docs.iter().flat_map(|d| test_citations(d)).collect();
    assert!(
        cited.len() >= 20,
        "parser found only {} citations",
        cited.len()
    );
    let files = rust_files(root);
    let read = |f: &str| std::fs::read_to_string(root.join(f)).expect("cited file");
    let gaps = citation_gaps(&cited, &files, read);
    assert!(gaps.is_empty(), "stale test citations: {gaps:?}");
}

#[test]
fn citation_check_catches_a_missing_file_and_fn() {
    let doc = "see `tests/a.rs::kept`, tests/a.rs::gone, `crates/x/tests/b.rs`, \
               `cargo test --test c`, tests/d.rs and `tests/e.rs`";
    let cited = test_citations(doc);
    let files = [
        "tests/a.rs",
        "crates/x/tests/b.rs",
        "tests/c.rs",
        "y/tests/e.rs",
        "z/tests/e.rs",
    ]
    .map(String::from);
    let read = |_: &str| "fn kept() {}\nfn gone_too() {}".to_string();
    assert_eq!(
        citation_gaps(&cited, &files, read),
        [
            "tests/a.rs::gone: no such fn",
            "tests/d.rs: 0 files match",
            "tests/e.rs: 2 files match",
        ]
    );
}
