//! An interactive MXQL shell over a tagged instance.
//!
//! ```text
//! cargo run --release --bin mxql                 # the Figure 1 example
//! cargo run --release --bin mxql -- --portal 100 # the Section 8 portal
//! cargo run --release --bin mxql -- --profile    # per-query EXPLAIN profile
//! ```
//!
//! Enter MXQL queries terminated by `;`. Meta-commands:
//!
//! * `.mappings` — list the mappings of the setting;
//! * `.schema <db>` — print a schema as an element tree;
//! * `.store` — dump the Figure 5 metastore relations;
//! * `.translate <query>;` — show the Section 7.3 translation;
//! * `.mode direct|translated|virtual` — switch the execution engine
//!   (`virtual` answers plain target queries over the sources, never
//!   touching the materialized instance);
//! * `.lint` — run the mapping diagnostics;
//! * `.whatif <db|mapping,...>` — impact analysis;
//! * `.save <file>` — write the annotated instance as XML;
//!   `.save wal <dir>` instead starts a *durable* session: every later
//!   `.delta` batch is committed to a write-ahead log in `<dir>` before it
//!   is applied;
//! * `.open <dir>` — recover a durable session from its write-ahead log
//!   (after a crash or a clean exit): loads the latest intact checkpoint,
//!   replays the committed delta suffix, reports torn tails as warnings;
//! * `.checkpoint` — fold the durable session's delta suffix into a fresh
//!   checkpoint segment (renormalizing the target to canonical form);
//! * `.profile [on|off|json]` — toggle or dump the `dtr-obs` profile
//!   (also enabled by `--profile` or `DTR_PROFILE=1`);
//! * `.explain <query>;` — translation EXPLAIN: every Section 7.3 rewrite
//!   step plus the final plain quer(ies), followed by the cost-based
//!   planner's logical/physical plan with estimated vs actual rows;
//! * `.analyze <query>;` — EXPLAIN ANALYZE: run the query with
//!   per-operator instrumentation and print the operator tree (actual rows
//!   in/out, wall time, guard charges per scan/bind/filter/hash-join
//!   stage); the result is byte-identical to a plain run;
//! * `.stats [on|off|json]` — dump (or toggle) the statistics catalog
//!   gathered while queries and exchanges run: per-path tuple counts,
//!   distinct-value estimates, set-cardinality histograms, and observed
//!   equality-join selectivities (on by default in this shell; also
//!   `DTR_STATS=1`);
//! * `.trace <path> [value]` — replay a target value's journal lineage
//!   (mapping → source binding → insert/merge events), cross-checked
//!   against the Section 6 where-provenance query;
//! * `.journal [on|off|json|export <file>]` — inspect or export the
//!   provenance event journal (on by default in this shell; bounded by
//!   `DTR_JOURNAL_CAP`, default 64k events);
//! * `.timeline [on|off|export <file>]` — the flight recorder: a bounded
//!   ring of timestamped span/counter/guard/exchange events (`DTR_FLIGHT=1`
//!   to capture from process start); `export` writes Chrome Trace Event
//!   JSON loadable in Perfetto or `chrome://tracing`;
//! * `.audit [on|off|last|export <file>]` — the per-request audit log: one
//!   record per query/exchange/translation with fingerprint, row counts,
//!   wall latency, and guard outcome (`DTR_AUDIT=1`); `export` writes
//!   JSONL;
//! * `.limits [off | <key> <n> ...]` — resource budget for direct and
//!   translated query execution (`deadline-ms`, `max-rows`,
//!   `max-bindings`, `max-bytes`); an exhausted budget aborts the query
//!   with a structured guard error, never a panic;
//! * `.delta <op> <path> <idx> [...]` — apply source edits through the
//!   incremental exchange engine (`del US.houses 0`, `dup US.houses 1`,
//!   `mod US.houses 0 price=1M`; chain edits with `|`); the target is
//!   maintained in place — only affected mappings re-evaluate and only
//!   touched member classes rebuild;
//! * `.rebase` — drop the incremental state and rebuild the target from
//!   the current (edited) sources with a full exchange;
//! * `.help` (the full listing), `.quit`.

use dtr::core::provenance::{provenance_of, ProvenanceKind};
use dtr::core::runner::MetaRunner;
use dtr::core::tagged::{Request, TaggedInstance};
use dtr::core::testkit;
use dtr::core::translate::{translate, translate_explained_budgeted};
use dtr::core::virtualize::answer_virtually;
use dtr::core::whatif::{impact_of_mappings, impact_of_source};
use dtr::mapping::lint::lint_mappings;
use dtr::model::schema::Schema;
use dtr::model::value::MappingName;
use dtr::portal::scenario::{tagged as portal_tagged, ScenarioConfig};
use dtr::query::parser::parse_query;
use dtr_obs::guard::Budget;
use std::io::{BufRead, Write};
use std::time::Duration;

enum Mode {
    Direct,
    Translated,
    Virtual,
}

fn load() -> TaggedInstance {
    // The journal is on by default in this interactive shell (ring-bounded,
    // so always-on capture stays safe): enabling it *before* the exchange
    // runs is what gives `.trace` its lineage. `DTR_JOURNAL=0` or
    // `.journal off` disable it.
    if std::env::var("DTR_JOURNAL").is_err() {
        dtr_obs::journal::set_enabled(true);
    }
    // Statistics collection likewise defaults on in the shell: the catalog
    // is a handful of maps updated once per run, and having the exchange's
    // instance walk in it is what makes `.stats` useful immediately.
    if std::env::var("DTR_STATS").is_err() {
        dtr_obs::stats::set_enabled(true);
    }
    let mut portal: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--portal" => {
                portal = Some(args.next().and_then(|s| s.parse().ok()).unwrap_or(100));
            }
            "--profile" => dtr_obs::set_enabled(true),
            "--no-journal" => dtr_obs::journal::set_enabled(false),
            other => eprintln!("unknown flag {other} (ignored)"),
        }
    }
    match portal {
        Some(n) => {
            eprintln!("building the Section 8 portal ({n} listings per source)...");
            portal_tagged(ScenarioConfig {
                listings_per_source: n,
                ..Default::default()
            })
        }
        None => {
            eprintln!("loading the Figure 1 running example (use --portal N for Section 8)");
            testkit::figure1()
        }
    }
}

/// Every dot-command the dispatch in `main` understands, with the
/// one-line description `.help` prints. A unit test asserts this table
/// stays in sync with the dispatch `match` — add new commands here first.
const COMMANDS: &[(&str, &str)] = &[
    (".mappings", "list the mappings of the setting"),
    (".schema", "<db> — print a schema as an element tree"),
    (".store", "dump the Figure 5 metastore relations"),
    (".translate", "<query>; — show the Section 7.3 translation"),
    (
        ".explain",
        "<query>; — translation rewrite steps, then the logical/physical plan with estimated vs actual rows",
    ),
    (
        ".analyze",
        "<query>; — EXPLAIN ANALYZE: per-operator rows, wall time, guard charges",
    ),
    (
        ".mode",
        "direct|translated|virtual — switch the execution engine",
    ),
    (".lint", "run the mapping diagnostics"),
    (".whatif", "<db|m1,m2,...> — impact analysis"),
    (
        ".save",
        "<file> — write the annotated instance as XML; `wal <dir>` starts a durable WAL-backed session",
    ),
    (
        ".open",
        "<dir> — recover a durable session from its write-ahead log",
    ),
    (
        ".checkpoint",
        "fold the durable session's delta suffix into a fresh checkpoint segment",
    ),
    (
        ".profile",
        "[on|off|json] — toggle or dump the dtr-obs profile tree",
    ),
    (
        ".stats",
        "[on|off|json|reset] — the statistics catalog (paths, joins, histograms)",
    ),
    (
        ".trace",
        "<path> [value] — replay a target value's journal lineage",
    ),
    (
        ".journal",
        "[on|off|json|export <file>] — the provenance event journal",
    ),
    (
        ".timeline",
        "[on|off|export <file>] — the flight recorder; export is Perfetto-loadable",
    ),
    (
        ".audit",
        "[on|off|last|export <file>] — the per-request audit log (JSONL)",
    ),
    (
        ".limits",
        "[off | deadline-ms N | max-rows N | max-bindings N | max-bytes N]",
    ),
    (
        ".delta",
        "del|dup|mod <path> <idx> [f=v] — incremental source edits (chain with |)",
    ),
    (
        ".rebase",
        "rebuild the target from the edited sources with a full exchange",
    ),
    (".help", "this listing"),
    (".quit", "leave the shell"),
    (".exit", "alias of .quit"),
];

fn help() {
    println!("enter an MXQL query terminated by `;`, e.g.");
    println!("  select x.hid, m from Portal.estates x, x.value@map m;");
    println!("meta commands:");
    for (name, desc) in COMMANDS {
        println!("  {name:<11} {desc}");
    }
}

/// Parses `.limits` arguments into a fresh budget: `off` clears every
/// limit; otherwise `<key> <n>` pairs tighten the current one.
fn parse_limits(rest: &str, current: &Budget) -> Result<Budget, String> {
    let args: Vec<&str> = rest.split_whitespace().collect();
    if args == ["off"] {
        return Ok(Budget::unlimited());
    }
    let mut budget = current.clone();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let value: u64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("`{key}` takes a number"))?;
        match *key {
            "deadline-ms" => budget.deadline = Some(Duration::from_millis(value)),
            "max-rows" => budget.max_rows = Some(value),
            "max-bindings" => budget.max_bindings = Some(value),
            "max-bytes" => budget.max_result_bytes = Some(value),
            other => return Err(format!("unknown limit `{other}`")),
        }
    }
    Ok(budget)
}

/// Prints the active limits (the `.limits` no-argument form).
fn show_limits(budget: &Budget) {
    if !budget.is_limited() {
        println!("limits: off (unlimited)");
        return;
    }
    let fmt = |v: Option<u64>| v.map_or("-".to_string(), |n| n.to_string());
    println!(
        "limits: deadline-ms {}  max-rows {}  max-bindings {}  max-bytes {}",
        budget
            .deadline
            .map_or("-".to_string(), |d| d.as_millis().to_string()),
        fmt(budget.max_rows),
        fmt(budget.max_bindings),
        fmt(budget.max_result_bytes),
    );
    println!("(applies to direct and translated execution; `.limits off` clears)");
}

/// Parses the `.delta` edit mini-language against the session's current
/// sources: `del <path> <idx>` removes a member, `dup <path> <idx>`
/// re-inserts a copy of one, and `mod <path> <idx> <field>=<value>`
/// replaces one atomic field of a member. Edits chain with `|` and apply
/// as one atomic batch.
fn parse_delta_edits(
    rest: &str,
    sources: &[dtr::model::instance::Instance],
) -> Result<dtr::mapping::delta::SourceDelta, String> {
    use dtr::mapping::delta::SourceDelta;
    use dtr::model::instance::Value;
    let member_value = |path: &str, idx: usize| -> Result<Value, String> {
        let mut parts = path.split('.');
        let root = parts.next().unwrap_or_default();
        let (inst, mut node) = sources
            .iter()
            .find_map(|s| s.root(root).map(|n| (s, n)))
            .ok_or_else(|| format!("no source has a root `{root}`"))?;
        for label in parts {
            node = inst
                .child_by_label(node, label)
                .ok_or_else(|| format!("`{path}`: no field `{label}`"))?;
        }
        let members = inst
            .set_members(node)
            .ok_or_else(|| format!("`{path}` is not a set"))?;
        let &m = members
            .get(idx)
            .ok_or_else(|| format!("{path}[{idx}]: set has {} member(s)", members.len()))?;
        Ok(inst.to_value(m))
    };
    let mut delta = SourceDelta::new();
    for chunk in rest.split('|') {
        let args: Vec<&str> = chunk.split_whitespace().collect();
        let parse_idx = |s: &&str| -> Result<usize, String> {
            s.parse().map_err(|_| format!("bad index `{s}`"))
        };
        match args.as_slice() {
            ["del", path, idx] => delta = delta.delete(*path, parse_idx(idx)?),
            ["dup", path, idx] => {
                let v = member_value(path, parse_idx(idx)?)?;
                delta = delta.insert(*path, v);
            }
            ["mod", path, idx, assign] => {
                let (field, value) = assign
                    .split_once('=')
                    .ok_or_else(|| format!("`{assign}` is not <field>=<value>"))?;
                let idx = parse_idx(idx)?;
                let Value::Record(mut fields) = member_value(path, idx)? else {
                    return Err(format!("{path}[{idx}] is not a record member"));
                };
                let slot = fields
                    .iter_mut()
                    .find(|(l, _)| l.as_str() == field)
                    .ok_or_else(|| format!("{path}[{idx}] has no field `{field}`"))?;
                slot.1 = Value::str(value);
                delta = delta.modify(*path, idx, Value::Record(fields));
            }
            [] => {}
            other => {
                return Err(format!(
                    "unknown edit `{}`; use del|dup|mod (see .help)",
                    other.join(" ")
                ))
            }
        }
    }
    if delta.edits.is_empty() {
        return Err("usage: .delta del|dup|mod <path> <idx> [field=value] [| ...]".into());
    }
    Ok(delta)
}

/// `.trace`: resolve the target values at `path` (optionally filtered to one
/// value), replay each one's journal lineage along its ancestor chain, and
/// cross-check the journaled mappings against the Section 6 where-provenance
/// query.
fn trace_values(tagged: &TaggedInstance, path: &str, filter: Option<&str>) {
    use dtr_obs::journal::Outcome;
    let mut values = tagged.target_values(path);
    if let Some(f) = filter {
        values.retain(|(_, v)| v.as_str() == Some(f) || v.to_string() == f);
    }
    if values.is_empty() {
        match filter {
            Some(f) => println!("no target value `{f}` at `{path}`"),
            None => println!("no target values at `{path}` (expects a canonical element path)"),
        }
        return;
    }
    const LIMIT: usize = 3;
    for (node, value) in values.iter().take(LIMIT) {
        let elem = tagged
            .element_of(*node)
            .map(|e| e.to_string())
            .unwrap_or_else(|| "?".into());
        println!("target node {} = {value}  ({elem})", node.0);
        let mappings = tagged.mappings_of(*node);
        let names: Vec<&str> = mappings.iter().map(|m| m.as_str()).collect();
        println!("  f_mp annotations: {{{}}}", names.join(", "));

        // Journal events along the ancestor chain (leaf up to the root):
        // inserts/merges land on set members, annotations on every node.
        let mut chain = vec![*node];
        let mut cur = *node;
        while let Some(p) = tagged.target().parent(cur) {
            chain.push(p);
            cur = p;
        }
        let mut events: Vec<dtr_obs::JournalEvent> = Vec::new();
        for n in &chain {
            events.extend(dtr_obs::journal::events_for(u64::from(n.0)));
        }
        events.sort_by_key(|e| e.id);
        let key_events: Vec<&dtr_obs::JournalEvent> = events
            .iter()
            .filter(|e| matches!(e.outcome, Outcome::Inserted | Outcome::PnfMerged { .. }))
            .collect();
        let ann_written = events
            .iter()
            .filter(|e| matches!(e.outcome, Outcome::AnnotationWritten))
            .count();
        let ann_suppressed = events
            .iter()
            .filter(|e| matches!(e.outcome, Outcome::AnnotationSuppressed { .. }))
            .count();
        if events.is_empty() {
            println!("  lineage: no journal events — was the journal on during the exchange?");
            println!("           (restart without --no-journal / DTR_JOURNAL=0)");
            continue;
        }
        println!(
            "  lineage: {} insert/merge event(s), {ann_written} annotation write(s), \
             {ann_suppressed} suppressed",
            key_events.len()
        );
        for e in key_events.iter().take(8) {
            println!("    {}", e.render());
        }

        // Cross-check: every annotating mapping must (a) have journal events
        // on the chain and (b) reach this value by where-provenance.
        let journaled: std::collections::BTreeSet<&str> =
            events.iter().filter_map(|e| e.mapping.as_deref()).collect();
        let mut agree = true;
        for m in mappings {
            let in_journal = journaled.contains(m.as_str());
            match provenance_of(tagged, ProvenanceKind::Where, m, *node) {
                Ok(p) => {
                    println!(
                        "  where-provenance via {m}: {} fact(s){}",
                        p.facts.len(),
                        if in_journal {
                            ", journaled"
                        } else {
                            ", NOT journaled"
                        }
                    );
                    if p.facts.is_empty() || !in_journal {
                        agree = false;
                    }
                }
                Err(e) => {
                    println!("  where-provenance via {m}: {e}");
                    agree = false;
                }
            }
        }
        println!(
            "  => lineage {} where-provenance",
            if agree {
                "agrees with"
            } else {
                "DISAGREES with"
            }
        );
    }
    if values.len() > LIMIT {
        println!(
            "... and {} more value(s); narrow with `.trace {path} <value>`",
            values.len() - LIMIT
        );
    }
}

/// Starts a WAL-backed durable session at `dir` from the shell's current
/// state: the live incremental session's (possibly edited) sources when
/// one exists, the pristine tagged sources otherwise.
fn start_durable(
    tagged: &TaggedInstance,
    session: Option<&dtr::core::incremental::IncrementalSession>,
    dir: &str,
) -> Result<dtr::core::store::DurableSession, dtr::core::tagged::MxqlError> {
    let setting = dtr::core::tagged::MappingSetting::new(
        tagged.setting().source_schemas().to_vec(),
        tagged.setting().target_schema().clone(),
        tagged.setting().mappings().to_vec(),
    )?;
    let sources = match session {
        Some(s) => s.sources().to_vec(),
        None => tagged.source_instances().to_vec(),
    };
    let vfs: std::sync::Arc<dyn dtr::mapping::durable::Vfs> =
        std::sync::Arc::new(dtr::mapping::durable::StdVfs::new("."));
    dtr::core::store::DurableSession::create(
        setting,
        sources,
        None,
        vfs,
        dir,
        dtr::core::store::DurableOptions::default(),
    )
}

/// The two-line `.delta` result summary (shared by the plain and durable
/// paths).
fn print_delta_summary(td: &dtr::mapping::delta::TargetDelta) {
    println!(
        "batch {}: {} edit(s) → +{} member(s), -{} member(s), {} class(es) rebuilt",
        td.batch,
        td.edits,
        td.inserted.len(),
        td.retracted.len(),
        td.classes_rebuilt
    );
    println!(
        "mappings: {} pruned, {} re-evaluated; rows +{}/-{}",
        td.mappings_pruned, td.mappings_reevaluated, td.rows_added, td.rows_removed
    );
}

fn main() {
    let mut tagged = load();
    let runner = MetaRunner::new(tagged.setting()).expect("metastore builds");
    let mut mode = Mode::Direct;
    let mut limits = Budget::unlimited();
    // The incremental-exchange session backing `.delta`/`.rebase`, built
    // lazily from the current tagged instance on first use.
    let mut session: Option<dtr::core::incremental::IncrementalSession> = None;
    // The WAL-backed durable session behind `.save wal`/`.open`; when
    // active, `.delta` commits through it (WAL-then-publish) instead.
    let mut durable: Option<dtr::core::store::DurableSession> = None;
    eprintln!(
        "tagged instance ready: {} target values, {} mappings. Type .help for help.",
        tagged.target().len(),
        tagged.setting().mappings().len()
    );

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    print!("mxql> ");
    let _ = std::io::stdout().flush();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            let (cmd, rest) = trimmed.split_once(' ').unwrap_or((trimmed, ""));
            // DISPATCH-BEGIN (the sync test scans this range for dot-command arms)
            match cmd {
                ".quit" | ".exit" => break,
                ".help" => help(),
                ".mappings" => {
                    for m in tagged.setting().mappings() {
                        println!("{m}\n");
                    }
                }
                ".store" => println!("{}", runner.store().render()),
                ".profile" => match rest.trim() {
                    "on" => {
                        dtr_obs::set_enabled(true);
                        dtr_obs::profile_reset();
                        println!("profiling on");
                    }
                    "off" => {
                        dtr_obs::set_enabled(false);
                        println!("profiling off");
                    }
                    "json" => println!("{}", dtr_obs::profile_snapshot().to_json_string()),
                    _ => println!("{}", dtr_obs::profile_snapshot().render()),
                },
                ".mode" => {
                    mode = match rest.trim() {
                        "translated" => {
                            println!("executing through the Section 7.3 translation");
                            Mode::Translated
                        }
                        "virtual" => {
                            println!("answering plain target queries virtually over the sources");
                            Mode::Virtual
                        }
                        _ => {
                            println!("executing with the direct Section 5 semantics");
                            Mode::Direct
                        }
                    };
                }
                ".lint" => {
                    let schemas: Vec<&Schema> = tagged.setting().source_schemas().iter().collect();
                    match lint_mappings(
                        tagged.setting().mappings(),
                        &schemas,
                        tagged.setting().target_schema(),
                    ) {
                        Ok(lints) => {
                            for l in &lints {
                                println!("  - {l}");
                            }
                            println!("({} findings)", lints.len());
                        }
                        Err(e) => println!("lint error: {e}"),
                    }
                }
                ".whatif" => {
                    let arg = rest.trim();
                    let impact = if arg.contains(',')
                        || tagged.setting().mapping(&MappingName::new(arg)).is_some()
                    {
                        let removed: Vec<MappingName> =
                            arg.split(',').map(|m| MappingName::new(m.trim())).collect();
                        impact_of_mappings(&tagged, &removed)
                    } else {
                        impact_of_source(&tagged, arg)
                    };
                    println!(
                        "lost {} values ({:.1} %), {} survive",
                        impact.lost_values,
                        100.0 * impact.lost_fraction(),
                        impact.surviving_values
                    );
                    for (path, n) in impact.lost_by_element.iter().take(8) {
                        println!("  {path}  ({n})");
                    }
                }
                ".save" => {
                    let arg = rest.trim();
                    if let Some(dir) = arg.strip_prefix("wal ").map(str::trim) {
                        if dir.is_empty() {
                            println!("usage: .save wal <dir>");
                        } else {
                            match start_durable(&tagged, session.as_ref(), dir) {
                                Ok(d) => {
                                    println!(
                                        "durable session started: checkpoint written to \
                                         {dir}/wal-{:06}.log ({} bytes committed)",
                                        d.wal_segment(),
                                        d.wal_committed_len()
                                    );
                                    session = None;
                                    durable = Some(d);
                                }
                                Err(e) => println!("cannot start durable session: {e}"),
                            }
                        }
                    } else if arg.is_empty() {
                        println!("usage: .save <file.xml> | .save wal <dir>");
                    } else {
                        let xml = dtr::xml::writer::instance_to_xml(
                            tagged.target(),
                            dtr::xml::writer::WriteOptions::annotated(),
                        );
                        match std::fs::write(arg, &xml) {
                            Ok(()) => println!("wrote {} bytes to {arg}", xml.len()),
                            Err(e) => println!("cannot write {arg}: {e}"),
                        }
                    }
                }
                ".open" => {
                    let dir = rest.trim();
                    if dir.is_empty() {
                        println!("usage: .open <dir>");
                    } else {
                        let vfs: std::sync::Arc<dyn dtr::mapping::durable::Vfs> =
                            std::sync::Arc::new(dtr::mapping::durable::StdVfs::new("."));
                        match dtr::core::store::DurableSession::open(
                            vfs,
                            dir,
                            dtr::core::store::DurableOptions::default(),
                        ) {
                            Ok((d, report)) => {
                                println!(
                                    "recovered from {dir}: segment {}, {} delta(s) replayed, \
                                     {} torn byte(s) truncated, batch {}",
                                    report.segment,
                                    report.replayed,
                                    report.truncated_bytes,
                                    d.batch()
                                );
                                for w in &report.warnings {
                                    println!("  warning: {w}");
                                }
                                match d.session().tagged() {
                                    Ok(t) => {
                                        tagged = t;
                                        session = None;
                                        durable = Some(d);
                                    }
                                    Err(e) => println!("cannot build tagged view: {e}"),
                                }
                            }
                            Err(e) => println!("cannot open {dir}: {e}"),
                        }
                    }
                }
                ".checkpoint" => match durable.as_mut() {
                    None => {
                        println!("no durable session (start one with .save wal <dir> or .open)")
                    }
                    Some(d) => match d.checkpoint() {
                        Ok(()) => {
                            println!(
                                "checkpointed: segment {} leads with batch {}",
                                d.wal_segment(),
                                d.batch()
                            );
                            match d.session().tagged() {
                                Ok(t) => tagged = t,
                                Err(e) => println!("cannot refresh tagged view: {e}"),
                            }
                        }
                        Err(e) => println!("checkpoint error: {e}"),
                    },
                },
                ".schema" => {
                    let db = rest.trim();
                    let schema = if tagged.setting().target_schema().name() == db {
                        Some(tagged.setting().target_schema())
                    } else {
                        tagged.setting().source_schema(db)
                    };
                    match schema {
                        Some(s) => {
                            for (id, el) in s.elements() {
                                println!(
                                    "  {id:>5}  {:<28} {:<7} {}",
                                    s.path(id),
                                    el.kind.name(),
                                    el.label
                                );
                            }
                        }
                        None => println!(
                            "unknown database `{db}`; try `{}` or a source name",
                            tagged.setting().target_schema().name()
                        ),
                    }
                }
                ".translate" => {
                    let text = rest.trim().trim_end_matches(';');
                    match parse_query(text) {
                        Ok(q) => {
                            let q = tagged.setting().normalize_query(&q);
                            match translate(&q, tagged.target().db()) {
                                Ok(branches) => {
                                    for (i, b) in branches.iter().enumerate() {
                                        if branches.len() > 1 {
                                            println!("-- union branch {} --", i + 1);
                                        }
                                        println!("{b}\n");
                                    }
                                }
                                Err(e) => println!("translation error: {e}"),
                            }
                        }
                        Err(e) => println!("parse error: {e}"),
                    }
                }
                ".explain" => {
                    let text = rest.trim().trim_end_matches(';');
                    match parse_query(text) {
                        Ok(q) => {
                            let q = tagged.setting().normalize_query(&q);
                            match translate_explained_budgeted(
                                &q,
                                tagged.target().db(),
                                &Budget::unlimited(),
                            ) {
                                Ok((branches, trace)) => {
                                    print!("{}", trace.render());
                                    println!(
                                        "PLAIN QUER{} ({} union branch{}):",
                                        if branches.len() == 1 { "Y" } else { "IES" },
                                        branches.len(),
                                        if branches.len() == 1 { "" } else { "es" },
                                    );
                                    for (i, b) in branches.iter().enumerate() {
                                        if branches.len() > 1 {
                                            println!("-- union branch {} --", i + 1);
                                        }
                                        println!("{b}\n");
                                    }
                                }
                                Err(e) => println!("translation error: {e}"),
                            }
                            // Cost-based planner view: logical rewrites,
                            // physical operators with estimated rows, and
                            // actual rows from one instrumented execution.
                            match tagged.plan_for(text) {
                                Ok(plan) => match tagged.execute(
                                    Request::Plan(&plan),
                                    &Budget::unlimited(),
                                    true,
                                ) {
                                    Ok((_, Some(node))) => {
                                        print!("{}", plan.render_with_actual(&node))
                                    }
                                    _ => print!("{}", plan.render()),
                                },
                                Err(e) => println!("planning error: {e}"),
                            }
                        }
                        Err(e) => println!("parse error: {e}"),
                    }
                }
                ".analyze" => {
                    let text = rest.trim().trim_end_matches(';');
                    if text.is_empty() {
                        println!("usage: .analyze <query>;");
                    } else {
                        match parse_query(text) {
                            Ok(q) => {
                                let t0 = std::time::Instant::now();
                                match tagged.execute(Request::Query(&q), &Budget::unlimited(), true)
                                {
                                    Ok((r, plan)) => {
                                        print!("{}", r.to_table());
                                        println!(
                                            "({} rows in {:.1} ms)",
                                            r.len(),
                                            t0.elapsed().as_secs_f64() * 1e3
                                        );
                                        // Analyzed runs return their tree;
                                        // the REPL is the one front-end that
                                        // publishes it for `.profile json`.
                                        if let Some(plan) = plan {
                                            print!("{}", plan.render());
                                            dtr_obs::analyze::set_last(plan);
                                        }
                                    }
                                    Err(e) => println!("error: {e}"),
                                }
                            }
                            Err(e) => println!("parse error: {e}"),
                        }
                    }
                }
                ".stats" => match rest.trim() {
                    "on" => {
                        dtr_obs::stats::set_enabled(true);
                        println!("statistics collection on");
                    }
                    "off" => {
                        dtr_obs::stats::set_enabled(false);
                        println!("statistics collection off (catalog kept; `.stats` still dumps)");
                    }
                    "json" => println!("{}", dtr_obs::stats::snapshot().to_json_string()),
                    "reset" => {
                        dtr_obs::stats::reset();
                        println!("statistics catalog cleared");
                    }
                    _ => print!("{}", dtr_obs::stats::snapshot().render()),
                },
                ".trace" => {
                    let mut parts = rest.split_whitespace();
                    let path = parts.next().unwrap_or("");
                    let filter: Option<&str> = parts.next();
                    if path.is_empty() {
                        println!("usage: .trace <element-path> [value]");
                    } else {
                        trace_values(&tagged, path, filter);
                    }
                }
                ".limits" => {
                    if rest.trim().is_empty() {
                        show_limits(&limits);
                    } else {
                        match parse_limits(rest, &limits) {
                            Ok(b) => {
                                limits = b;
                                show_limits(&limits);
                            }
                            Err(e) => {
                                println!("{e}");
                                println!(
                                    "usage: .limits [off | deadline-ms N | max-rows N | \
                                     max-bindings N | max-bytes N]"
                                );
                            }
                        }
                    }
                }
                ".journal" => {
                    let args: Vec<&str> = rest.split_whitespace().collect();
                    match args.as_slice() {
                        ["on"] => {
                            dtr_obs::journal::set_enabled(true);
                            println!("journal on (reload to capture the exchange itself)");
                        }
                        ["off"] => {
                            dtr_obs::journal::set_enabled(false);
                            println!("journal off");
                        }
                        ["json"] => print!("{}", dtr_obs::journal::to_jsonl()),
                        ["export", file] => {
                            let jsonl = dtr_obs::journal::to_jsonl();
                            match std::fs::write(file, &jsonl) {
                                Ok(()) => println!(
                                    "wrote {} events ({} bytes) to {file}",
                                    jsonl.lines().count(),
                                    jsonl.len()
                                ),
                                Err(e) => println!("cannot write {file}: {e}"),
                            }
                        }
                        _ => {
                            let s = dtr_obs::journal::summary();
                            println!(
                                "journal: {} recorded, {} retained, {} dropped (cap {})",
                                s.recorded, s.retained, s.dropped, s.cap
                            );
                            // The recorded tally survives ring eviction, so
                            // rare outcomes (guard aborts, collision splits)
                            // stay visible even after heavy churn.
                            for (kind, n) in &s.recorded_by_outcome {
                                println!("  {kind:<24} {n:>8}");
                            }
                        }
                    }
                }
                ".timeline" => {
                    let args: Vec<&str> = rest.split_whitespace().collect();
                    match args.as_slice() {
                        ["on"] => {
                            dtr_obs::recorder::set_enabled(true);
                            println!("flight recorder on (reload to capture the exchange itself)");
                        }
                        ["off"] => {
                            dtr_obs::recorder::set_enabled(false);
                            println!(
                                "flight recorder off (ring kept; `.timeline export` still works)"
                            );
                        }
                        ["export", file] => {
                            let doc = dtr_obs::chrome_trace::export_current();
                            match dtr_obs::chrome_trace::validate(&doc) {
                                Ok(s) => {
                                    let text = doc.to_string();
                                    match std::fs::write(file, &text) {
                                        Ok(()) => println!(
                                            "wrote {} trace event(s) across {} thread(s) to {file} \
                                             — load it in Perfetto or chrome://tracing",
                                            s.events, s.distinct_tids
                                        ),
                                        Err(e) => println!("cannot write {file}: {e}"),
                                    }
                                }
                                Err(e) => println!("trace export failed validation: {e}"),
                            }
                        }
                        _ => print!("{}", dtr_obs::recorder::summary().render()),
                    }
                }
                ".audit" => {
                    let args: Vec<&str> = rest.split_whitespace().collect();
                    match args.as_slice() {
                        ["on"] => {
                            dtr_obs::audit::set_enabled(true);
                            println!("audit log on (one record per query/exchange/translation)");
                        }
                        ["off"] => {
                            dtr_obs::audit::set_enabled(false);
                            println!("audit log off (ring kept; `.audit export` still works)");
                        }
                        ["last"] => match dtr_obs::audit::records().last() {
                            Some(r) => println!("{}", r.render()),
                            None => println!("audit log is empty (`.audit on` to start recording)"),
                        },
                        ["export", file] => {
                            let jsonl = dtr_obs::audit::to_jsonl();
                            match std::fs::write(file, &jsonl) {
                                Ok(()) => println!(
                                    "wrote {} record(s) ({} bytes) to {file}",
                                    jsonl.lines().count(),
                                    jsonl.len()
                                ),
                                Err(e) => println!("cannot write {file}: {e}"),
                            }
                        }
                        _ => {
                            let (recorded, retained, dropped, cap) = dtr_obs::audit::counts();
                            println!(
                                "audit: {} (recorded {recorded}, retained {retained}, \
                                 dropped {dropped}, cap {cap})",
                                if dtr_obs::audit::enabled() {
                                    "on"
                                } else {
                                    "off"
                                }
                            );
                        }
                    }
                }
                ".delta" => {
                    if let Some(d) = durable.as_mut() {
                        match parse_delta_edits(rest, d.session().sources()) {
                            Ok(delta) => match d.apply(&delta) {
                                Ok(td) => {
                                    print_delta_summary(&td);
                                    println!(
                                        "committed to WAL segment {} ({} bytes)",
                                        d.wal_segment(),
                                        d.wal_committed_len()
                                    );
                                    match d.session().tagged() {
                                        Ok(t) => tagged = t,
                                        Err(e) => println!("cannot refresh tagged view: {e}"),
                                    }
                                }
                                Err(e) => println!("delta error: {e}"),
                            },
                            Err(e) => println!("{e}"),
                        }
                    } else {
                        if session.is_none() {
                            let built = dtr::core::tagged::MappingSetting::new(
                                tagged.setting().source_schemas().to_vec(),
                                tagged.setting().target_schema().clone(),
                                tagged.setting().mappings().to_vec(),
                            )
                            .and_then(|setting| {
                                dtr::core::incremental::IncrementalSession::new(
                                    setting,
                                    tagged.source_instances().to_vec(),
                                )
                            });
                            match built {
                                Ok(s) => session = Some(s),
                                Err(e) => println!("cannot start incremental session: {e}"),
                            }
                        }
                        if let Some(s) = session.as_mut() {
                            match parse_delta_edits(rest, s.sources()) {
                                Ok(delta) => match s.apply(&delta) {
                                    Ok(td) => {
                                        print_delta_summary(&td);
                                        match s.tagged() {
                                            Ok(t) => tagged = t,
                                            Err(e) => {
                                                println!("cannot refresh tagged view: {e}")
                                            }
                                        }
                                    }
                                    Err(e) => println!("delta error: {e}"),
                                },
                                Err(e) => println!("{e}"),
                            }
                        }
                    }
                }
                ".rebase" => match session.as_mut() {
                    None => println!(
                        "no incremental session yet (apply a .delta first; durable sessions \
                         renormalize on .checkpoint instead)"
                    ),
                    Some(s) => match s.rebase() {
                        Ok(()) => {
                            println!("rebased: full re-exchange over the edited sources");
                            match s.tagged() {
                                Ok(t) => tagged = t,
                                Err(e) => println!("cannot refresh tagged view: {e}"),
                            }
                        }
                        Err(e) => println!("rebase error: {e}"),
                    },
                },
                other => println!("unknown command {other}; try .help"),
            }
            // DISPATCH-END
            print!("mxql> ");
            let _ = std::io::stdout().flush();
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if !trimmed.ends_with(';') {
            print!("  ..> ");
            let _ = std::io::stdout().flush();
            continue;
        }
        let text = buffer.trim().trim_end_matches(';').to_owned();
        buffer.clear();
        if dtr_obs::enabled() {
            dtr_obs::profile_reset();
        }
        let t0 = std::time::Instant::now();
        let result = parse_query(&text)
            .map_err(dtr::core::tagged::MxqlError::from)
            .and_then(|q| match mode {
                Mode::Direct => tagged
                    .execute(Request::Query(&q), &limits, false)
                    .map(|(r, _)| r),
                Mode::Translated => runner.run_budgeted(&tagged, &q, &limits),
                Mode::Virtual => answer_virtually(
                    tagged.setting(),
                    tagged.source_instances(),
                    &q,
                    tagged.functions(),
                ),
            });
        match result {
            Ok(r) => {
                print!("{}", r.to_table());
                println!(
                    "({} rows in {:.1} ms)",
                    r.len(),
                    t0.elapsed().as_secs_f64() * 1e3
                );
                if dtr_obs::enabled() {
                    println!("{}", dtr_obs::profile_snapshot().render());
                }
            }
            Err(e) => println!("error: {e}"),
        }
        print!("mxql> ");
        let _ = std::io::stdout().flush();
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::COMMANDS;
    use std::collections::BTreeSet;

    /// `.help` is generated from [`COMMANDS`]; this test keeps that table
    /// in lockstep with the dispatch `match` in `main` by scanning the
    /// marked source range for `".command"` string literals.
    #[test]
    fn help_listing_matches_dispatch_table() {
        let src = include_str!("mxql.rs");
        let begin = src.find("// DISPATCH-BEGIN").expect("begin marker");
        let end = src.find("// DISPATCH-END").expect("end marker");
        let body = &src[begin..end];
        // String literals are the odd chunks when splitting on `"` (the
        // dispatch range contains no escaped quotes); a dispatch arm is a
        // literal of the exact shape `.lowercaseword`.
        let dispatched: BTreeSet<&str> = body
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(|s| {
                s.len() > 1 && s.starts_with('.') && s[1..].chars().all(|c| c.is_ascii_lowercase())
            })
            .collect();
        let listed: BTreeSet<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        // `.help` appears in the unknown-command hint, not as its own arm
        // text requirement; both sets must nevertheless agree exactly.
        assert_eq!(
            dispatched, listed,
            "dispatch arms and the .help COMMANDS table diverged — \
             add the command to both"
        );
    }

    #[test]
    fn descriptions_are_single_line() {
        for (name, desc) in COMMANDS {
            assert!(!desc.contains('\n'), "{name} description spans lines");
        }
    }
}
