//! Doc checks. Every `TraceEvent` variant must be documented in
//! OBSERVABILITY.md — the trace schema is a contract, and an event that
//! ships without documentation is unreconcilable by readers of the traces —
//! and its row must list the fields the variant serializes, in order.
//! Every measurement binary, criterion bench and root `BENCH_*` or
//! `REPRODUCE_*` file must
//! have a row in EXPERIMENTS.md's "Measurement apparatus" table saying what
//! it alone measures — a second producer of a number cannot land unnoticed.
//! Every knob the prose cites as `OptimizationConfig::<name>` or
//! `opts.<name>` must be a field or method of `OptimizationConfig`.
//! Every CHANGES.md entry from `FIRST_LIMITED_PR` on stays within 1 500
//! characters.

use nilicon::TraceEvent;
use std::path::Path;

/// The text between the braces of the first item `src` opens with `head`.
fn braced_body<'a>(src: &'a str, head: &str) -> &'a str {
    let start = src.find(head).unwrap_or_else(|| panic!("no {head}"));
    let body = &src[start..];
    let open = body.find('{').expect("item body");
    let mut depth = 0usize;
    for (i, c) in body[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return &body[open + 1..open + i];
                }
            }
            _ => {}
        }
    }
    panic!("{head}: unbalanced braces")
}

/// Extract the variant names of `pub enum TraceEvent` from the source text.
fn trace_event_variants(src: &str) -> Vec<String> {
    let mut variants = Vec::new();
    let mut brace = 0usize;
    for line in braced_body(src, "pub enum TraceEvent").lines() {
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

/// One event of every `TraceEvent` variant, each field at its default. The
/// compiler holds the field lists to the enum's; the variant list is checked
/// against the parsed source below.
fn one_of_each_variant() -> Vec<TraceEvent> {
    macro_rules! each {
        ($($variant:ident $({ $($field:ident),* })?),* $(,)?) => {
            vec![$(TraceEvent::$variant $({ $($field: Default::default()),* })?),*]
        };
    }
    each![
        RunStart { name, mode },
        Exec { requests, steps },
        Freeze,
        Dump { dirty_pages },
        DumpDetail { processes, pages, sockets, fs_cache, infrequent },
        DeltaEncode { zero_pages, delta_pages, full_pages, raw_bytes, encoded_bytes },
        LocalCopy,
        DrbdShip { writes, bytes },
        CowCopy { pages, bytes },
        CowFault { faults },
        Transfer { bytes },
        BackupIngest { probes },
        Ack,
        BackupCommit { probes, disk_pages },
        OutputRelease { packets },
        ClientDeliver { responses },
        HeartbeatMiss { misses },
        OutputDiscard { packets },
        RearmStart { attempt },
        BootstrapChunk { pages, bytes },
        RearmComplete { pages, bytes },
        Failover { detection_latency, restore, arp, tcp, others },
        PartitionStart,
        PartitionHeal,
        LeaseAcquire { until },
        LeaseExpire { at },
        FencedOutput { packets },
        FalseSuspicion { suspected_for },
        ChaosDelay { extra },
        ShardCommit { shards, pages, frag_bytes },
        RepairStart { kind, attempt },
        RepairChunk { pages, bytes },
        RepairComplete { pages, bytes },
        DegradedMode { alive, need },
        LogShip { events, bytes },
        LogCommit { events, commit_latency },
        ReplayStart { epochs, events },
        ReplayComplete { events, replay_time },
        ReplayDiverge { reason },
        StageEnqueue { stage, chunk },
        StageDequeue { stage, chunk, wait },
        StageRestart { stage, chunk },
        Backpressure { stalled },
        FleetEpochStart { lane, offset },
        FairShareWait { lane, waited },
    ]
}

/// The field names `event` serializes, in order: a field-less variant is a
/// bare string, any other `{"Name":{"field":value,...}}`, and with every
/// field at its default no value holds a `,` or a `:`.
fn serialized_fields(event: &TraceEvent) -> Vec<String> {
    let json = serde_json::to_string(event).expect("serializes");
    let Some((_, body)) = json.split_once(":{") else {
        return Vec::new();
    };
    let body = body.strip_suffix("}}").expect("one nested object");
    body.split(',')
        .map(|pair| pair.split_once(':').expect("key:value").0.trim_matches('"').to_string())
        .collect()
}

/// The schema tables' rows as `(variant, fields)`: the backticked first cell
/// and the backticked names in the second (none for "—").
fn schema_rows(doc: &str) -> Vec<(String, Vec<String>)> {
    doc.lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix("| `")?.split('|');
            let name = cells.next()?.trim().strip_suffix('`')?;
            let fields = cells.next()?.split('`').skip(1).step_by(2);
            Some((name.to_string(), fields.map(String::from).collect()))
        })
        .collect()
}

/// What is wrong with the schema rows against the events: a variant without
/// a row, a row whose fields are not the serialized ones.
fn schema_gaps(rows: &[(String, Vec<String>)], events: &[TraceEvent]) -> Vec<String> {
    let mut gaps = Vec::new();
    for event in events {
        let (name, fields) = (event.name(), serialized_fields(event));
        match rows.iter().find(|(n, _)| n == name) {
            None => gaps.push(format!("{name}: no row")),
            Some((_, row)) if *row != fields => {
                gaps.push(format!("{name}: row says {row:?}, serialized {fields:?}"))
            }
            Some(_) => {}
        }
    }
    gaps
}

#[test]
fn every_schema_row_lists_the_serialized_fields_in_order() {
    let events = one_of_each_variant();
    let names: Vec<&str> = events.iter().map(TraceEvent::name).collect();
    let variants = trace_event_variants(include_str!("../crates/core/src/trace.rs"));
    assert_eq!(names, variants, "one_of_each_variant is the enum's variant list");
    let rows = schema_rows(include_str!("../OBSERVABILITY.md"));
    let gaps = schema_gaps(&rows, &events);
    assert!(gaps.is_empty(), "OBSERVABILITY.md schema rows vs serialization: {gaps:?}");
}

#[test]
fn schema_check_catches_a_doctored_row() {
    let doc = include_str!("../OBSERVABILITY.md")
        .replace("| `Exec` | `requests`, `steps` |", "| `Exec` | `steps`, `requests` |")
        .replace("| `Ack` | — |", "| `Ack` | `at` |")
        .replace("| `Freeze` |", "| `Frozen` |");
    let gaps = schema_gaps(&schema_rows(&doc), &one_of_each_variant());
    assert_eq!(
        gaps,
        [
            r#"Exec: row says ["steps", "requests"], serialized ["requests", "steps"]"#,
            "Freeze: no row",
            r#"Ack: row says ["at"], serialized []"#,
        ]
    );
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
    let ident = |s: &str| leading_ident(s).to_string();
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

/// The first identifier in `s`.
fn leading_ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// The names `OptimizationConfig` answers to: the fields of its struct and
/// the fns of its inherent impl, parsed from config.rs.
fn knob_names(src: &str) -> Vec<String> {
    let fields = braced_body(src, "pub struct OptimizationConfig")
        .lines()
        .filter_map(|l| l.trim().strip_prefix("pub "));
    let methods = braced_body(src, "impl OptimizationConfig {")
        .lines()
        .filter(|l| !l.trim().starts_with("//"))
        .filter_map(|l| l.split_once("fn ").map(|(_, rest)| rest));
    fields.chain(methods).map(|s| leading_ident(s).to_string()).collect()
}

/// The knob names `doc` cites: `OptimizationConfig::<name>`,
/// `OptimizationConfig::{<name>, ...}` and `opts.<name>`.
fn knob_citations(doc: &str) -> Vec<String> {
    let mut cited = Vec::new();
    for (at, m) in doc.match_indices("OptimizationConfig::") {
        let rest = &doc[at + m.len()..];
        match rest.strip_prefix('{').and_then(|r| r.split_once('}')) {
            Some((group, _)) => cited.extend(group.split(',').map(|n| n.trim().to_string())),
            None => cited.push(leading_ident(rest).to_string()),
        }
    }
    for (at, m) in doc.match_indices("opts.") {
        cited.push(leading_ident(&doc[at + m.len()..]).to_string());
    }
    cited
}

/// The cited names `OptimizationConfig` does not have.
fn knob_gaps(cited: &[String], names: &[String]) -> Vec<String> {
    cited.iter().filter(|c| !names.contains(c)).cloned().collect()
}

#[test]
fn every_cited_knob_is_an_optimization_config_name() {
    let names = knob_names(include_str!("../crates/core/src/config.rs"));
    for name in ["optimize_criu", "fleet_aligned", "nilicon", "validate", "dump_config"] {
        assert!(names.iter().any(|n| n == name), "parser misses {name}: {names:?}");
    }
    let docs = [
        include_str!("../DESIGN.md"),
        include_str!("../EXPERIMENTS.md"),
        include_str!("../README.md"),
        include_str!("../OBSERVABILITY.md"),
        include_str!("../.claude/skills/verify/SKILL.md"),
    ];
    let cited: Vec<String> = docs.iter().flat_map(|d| knob_citations(d)).collect();
    assert!(cited.len() >= 10, "parser found only {} knob citations", cited.len());
    let gaps = knob_gaps(&cited, &names);
    assert!(gaps.is_empty(), "docs cite knobs OptimizationConfig lacks: {gaps:?}");
}

#[test]
fn knob_check_catches_a_stale_citation() {
    let names = knob_names(include_str!("../crates/core/src/config.rs"));
    let doc = "`OptimizationConfig::{fleet, dump_threads}`, `opts.pipeline`, \
               `cfg.opts.quorum`, `opts.validate()`, `OptimizationConfig::shard_dump`";
    assert_eq!(knob_gaps(&knob_citations(doc), &names), ["dump_threads", "shard_dump"]);
}

/// The first PR whose CHANGES.md entry is held to [`ENTRY_LIMIT`].
const FIRST_LIMITED_PR: u32 = 46;
/// Characters in one CHANGES.md entry: its `- PR N` line, without the
/// `MENDED:` / `FOUND:` lines that follow it.
const ENTRY_LIMIT: usize = 1_500;

/// Every `- PR N` entry of `doc` as `(N, characters)`.
fn changes_entries(doc: &str) -> Vec<(u32, usize)> {
    doc.lines()
        .filter_map(|line| {
            let n = leading_ident(line.strip_prefix("- PR ")?).parse().ok()?;
            Some((n, line.chars().count()))
        })
        .collect()
}

/// The entries from [`FIRST_LIMITED_PR`] on that run over [`ENTRY_LIMIT`].
fn long_entries(entries: &[(u32, usize)]) -> Vec<(u32, usize)> {
    let long = |&&(n, len): &&(u32, usize)| n >= FIRST_LIMITED_PR && len > ENTRY_LIMIT;
    entries.iter().filter(long).copied().collect()
}

#[test]
fn every_recent_changes_entry_stays_within_the_limit() {
    let entries = changes_entries(include_str!("../CHANGES.md"));
    assert!(entries.len() >= 35, "parser found only {} entries", entries.len());
    assert_eq!(long_entries(&entries), [], "CHANGES.md entries over {ENTRY_LIMIT} characters");
}

#[test]
fn changes_check_catches_a_long_entry() {
    let entry = |n: u32, len: usize| {
        let head = format!("- PR {n} (simplicity): ");
        let body = "é".repeat(len - head.len());
        head + &body
    };
    // Multi-byte characters: the limit counts characters, not bytes.
    let first = FIRST_LIMITED_PR;
    let doc = [
        entry(first - 1, 3_000),
        entry(first, ENTRY_LIMIT),
        format!("MENDED: {}", "y".repeat(2_000)),
        format!("FOUND: {}", "z".repeat(2_000)),
        entry(first + 1, ENTRY_LIMIT + 1),
    ]
    .join("\n");
    assert_eq!(long_entries(&changes_entries(&doc)), [(first + 1, ENTRY_LIMIT + 1)]);
}
