//! The Section 8 experiment harness.
//!
//! Regenerates every number the paper's "Experience" section reports — see
//! the experiment index in DESIGN.md and the recorded results in
//! EXPERIMENTS.md. Run with:
//!
//! ```text
//! cargo run --release --bin experiments -- --all            # paper scale (10k listings)
//! cargo run --release --bin experiments -- --quick --all    # 1/10 scale
//! cargo run --release --bin experiments -- --e2 --e5        # selected experiments
//! cargo run --release --bin experiments -- --json out.json  # also dump JSON
//! cargo run --release --bin experiments -- --all --profile  # EXPLAIN-style profile
//! ```
//!
//! `--profile` (or `DTR_PROFILE=1`) enables the `dtr-obs` span collector and
//! counter registry; the harness then prints the aggregated profile tree
//! (plus p50/p90/p99 span latency) and, with `--json`, embeds it under the
//! `"profile"` key with the percentiles under `"latency_ns"`.
//!
//! `--stats` (or `DTR_STATS=1`) enables the statistics catalog: per-path
//! tuple counts, distinct-value estimates, set-cardinality histograms, and
//! observed join selectivities collected while the exchanges and timed
//! queries run. The harness prints a summary and, with `--json`, embeds the
//! full catalog under the `"stats"` key.
//!
//! `--deadline-ms MS` and `--max-rows N` run every exchange and timed query
//! under a `dtr-obs` resource budget. An exhausted budget aborts the run
//! cleanly: the harness prints the structured guard error and exits with
//! status 3 — never a panic, never a half-written result.

use dtr_core::runner::MetaRunner;
use dtr_core::store::{DurableOptions, DurableSession};
use dtr_core::tagged::{MxqlError, Request, TaggedInstance};
use dtr_mapping::delta::SourceDelta;
use dtr_mapping::durable::MemVfs;
use dtr_mapping::exchange::ExchangeOptions;
use dtr_model::instance::Value;
use dtr_obs::guard::Budget;
use dtr_portal::nesting::nested_tagged;
use dtr_portal::scenario::{build, ScenarioConfig};
use dtr_query::parser::parse_query;
use dtr_xml::schema_xml::schema_to_xml;
use dtr_xml::writer::instance_to_xml as write_instance;
use dtr_xml::writer::{instance_to_xml, SizeReport, WriteOptions};
use serde_json::{json, Value as Json};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MB: f64 = 1024.0 * 1024.0;

struct Args {
    run: Vec<&'static str>,
    listings_per_source: usize,
    json_path: Option<String>,
    profile: bool,
    stats: bool,
    trace_out: Option<String>,
    audit_out: Option<String>,
    parallel: bool,
    workers: usize,
    budget: Budget,
}

/// Unwraps a pipeline result, turning a guard abort into a clean exit
/// (status 3, structured error on stderr) and any other error into the
/// panic it always was.
fn guard_exit<T>(result: Result<T, MxqlError>, what: &str) -> T {
    match result {
        Ok(v) => v,
        Err(e) => match e.guard() {
            Some(g) => {
                eprintln!("experiments: resource budget exhausted during {what}:");
                eprintln!("  {g}");
                eprintln!("the run aborted cleanly; raise --deadline-ms / --max-rows to complete");
                std::process::exit(3);
            }
            None => panic!("{what} failed: {e}"),
        },
    }
}

/// Reports a file error as structured data — `io error: <op> <path>:
/// <cause>` — and exits cleanly (status 4). Output sinks must never turn
/// a full disk or a bad path into a panic and a backtrace.
fn io_exit(op: &str, path: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("experiments: io error: {op} {path}: {e}");
    std::process::exit(4);
}

/// Reports a bad command-line argument and exits (status 2).
fn usage_exit(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut run = Vec::new();
    let mut quick = false;
    let mut json_path = None;
    let mut listings = 2000usize;
    let mut profile = false;
    let mut stats = false;
    let mut trace_out = None;
    let mut audit_out = None;
    let mut parallel = false;
    let mut workers = 0usize;
    let mut budget = Budget::unlimited();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => run.extend(["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"]),
            "--e1" => run.push("e1"),
            "--e2" => run.push("e2"),
            "--e3" => run.push("e3"),
            "--e4" => run.push("e4"),
            "--e5" => run.push("e5"),
            "--e6" => run.push("e6"),
            "--e7" => run.push("e7"),
            "--e8" => run.push("e8"),
            "--e9" => run.push("e9"),
            "--e10" => run.push("e10"),
            "--quick" => quick = true,
            "--scale" => {
                listings = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_exit("--scale takes a number"));
            }
            "--json" => json_path = it.next(),
            "--profile" => profile = true,
            "--stats" => stats = true,
            "--trace-out" => {
                trace_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage_exit("--trace-out takes a path")),
                )
            }
            "--parallel" => parallel = true,
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_exit("--workers takes a number"));
                parallel = true;
            }
            "--audit-out" => {
                audit_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage_exit("--audit-out takes a path")),
                )
            }
            "--deadline-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_exit("--deadline-ms takes a number"));
                budget.deadline = Some(Duration::from_millis(ms));
            }
            "--max-rows" => {
                budget.max_rows = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage_exit("--max-rows takes a number")),
                );
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if run.is_empty() {
        run.extend(["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"]);
    }
    Args {
        run,
        listings_per_source: if quick { listings / 10 } else { listings },
        json_path,
        profile,
        stats,
        trace_out,
        audit_out,
        parallel,
        workers,
        budget,
    }
}

fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / MB
}

/// Builds the default scenario once (shared by E1/E2/E4/E7/E9). The
/// exchange runs under `budget`; exhaustion exits cleanly via
/// [`guard_exit`].
fn default_tagged(
    n: usize,
    budget: &Budget,
    parallel: bool,
    workers: usize,
) -> (TaggedInstance, usize) {
    let scenario = build(ScenarioConfig {
        listings_per_source: n,
        ..Default::default()
    });
    let src_bytes = scenario.source_xml_bytes();
    let opts = ExchangeOptions {
        budget: budget.clone(),
        parallel,
        workers,
        ..ExchangeOptions::default()
    };
    let tagged = guard_exit(scenario.exchange_with(&opts), "the portal exchange");
    (tagged, src_bytes)
}

/// E1 — integrated instance slightly larger than the source data
/// (multi-mapped values: the paper's 14.3 MB → 14.5 MB).
fn e1(tagged: &TaggedInstance, src_bytes: usize) -> Json {
    banner("E1", "source size vs integrated instance size");
    let plain = instance_to_xml(tagged.target(), WriteOptions::plain()).len();
    println!(
        "  sources (plain XML):     {:>8.2} MB   (paper: 14.3 MB)",
        mb(src_bytes)
    );
    println!(
        "  integrated (plain XML):  {:>8.2} MB   (paper: 14.5 MB)",
        mb(plain)
    );
    println!(
        "  ratio integrated/source: {:>8.3}     (paper: 1.014; >1 means values were \
         represented more than once)",
        plain as f64 / src_bytes as f64
    );
    json!({"source_mb": mb(src_bytes), "integrated_mb": mb(plain),
           "ratio": plain as f64 / src_bytes as f64})
}

/// E2 — naive annotations vs PNF-suppressed annotations
/// (paper: 3 MB → 0.8 MB ≈ 5.5 %).
fn e2(tagged: &TaggedInstance) -> Json {
    banner("E2", "annotation overhead: naive vs PNF suppression");
    let r = SizeReport::measure(tagged.target());
    println!("  plain instance:      {:>8.2} MB", mb(r.plain));
    println!(
        "  naive annotations:  +{:>8.2} MB  ({:>5.1} %)   (paper: +3 MB ≈ 20.7 %)",
        mb(r.naive_annotation_bytes()),
        100.0 * r.naive_overhead()
    );
    println!(
        "  PNF suppression:    +{:>8.2} MB  ({:>5.1} %)   (paper: +0.8 MB ≈ 5.5 %)",
        mb(r.pnf_annotation_bytes()),
        100.0 * r.pnf_overhead()
    );
    println!(
        "  reduction factor:    {:>8.2}x               (paper: 3.75x)",
        r.naive_annotation_bytes() as f64 / r.pnf_annotation_bytes().max(1) as f64
    );
    json!({"plain_mb": mb(r.plain),
           "naive_overhead_pct": 100.0 * r.naive_overhead(),
           "pnf_overhead_pct": 100.0 * r.pnf_overhead()})
}

/// E3 — the PNF overhead stays flat across source data sizes
/// (paper: "approximately 5.5 % in all the cases").
fn e3(n_full: usize, budget: &Budget, parallel: bool, workers: usize) -> Json {
    banner("E3", "annotation overhead across source data sizes");
    println!("  listings/source   plain MB    PNF overhead");
    let mut rows = Vec::new();
    for frac in [8usize, 4, 2, 1] {
        let n = (n_full / frac).max(10);
        let (tagged, _) = default_tagged(n, budget, parallel, workers);
        let r = SizeReport::measure(tagged.target());
        println!(
            "  {:>14}   {:>8.2}    {:>6.2} %",
            n,
            mb(r.plain),
            100.0 * r.pnf_overhead()
        );
        rows.push(json!({"listings_per_source": n,
                         "plain_mb": mb(r.plain),
                         "pnf_overhead_pct": 100.0 * r.pnf_overhead()}));
    }
    println!("  (paper: ≈5.5 % at every size)");
    Json::Array(rows)
}

/// E4 — storing the schemas and mappings adds ≈0.3 MB.
fn e4(tagged: &TaggedInstance) -> Json {
    banner("E4", "stored schemas + mappings (metastore) size");
    let runner = MetaRunner::new(tagged.setting()).expect("metastore builds");
    let meta_xml = instance_to_xml(runner.meta_source().instance, WriteOptions::plain());
    let schema_xml: usize = tagged
        .setting()
        .source_schemas()
        .iter()
        .map(|s| schema_to_xml(s).len())
        .sum::<usize>()
        + schema_to_xml(tagged.setting().target_schema()).len();
    println!(
        "  metastore instance (7 relations): {:>8.3} MB",
        mb(meta_xml.len())
    );
    println!(
        "  schema XML (6 schemas):           {:>8.3} MB",
        mb(schema_xml)
    );
    println!(
        "  total meta-data:                  {:>8.3} MB   (paper: ≈0.3 MB)",
        mb(meta_xml.len() + schema_xml)
    );
    println!(
        "  rows: {} elements, {} bindings, {} conditions, {} correspondences",
        runner.store().elements.len(),
        runner.store().bindings.len(),
        runner.store().conditions.len(),
        runner.store().correspondences.len()
    );
    json!({"metastore_mb": mb(meta_xml.len()), "schema_xml_mb": mb(schema_xml),
           "total_mb": mb(meta_xml.len() + schema_xml)})
}

/// E5 — overlapping sources lower the annotation bytes
/// (paper: 5.5 % → 4.9 %).
fn e5(n: usize, budget: &Budget) -> Json {
    banner("E5", "annotation overhead under source overlap");
    println!("  overlap   houses   naive ann.   naive/src   PNF ann.   PNF/src");
    let mut rows = Vec::new();
    for overlap in [0.0f64, 0.1, 0.2, 0.3] {
        let scenario = build(ScenarioConfig {
            listings_per_source: n,
            overlap,
            ..Default::default()
        });
        let src = scenario.source_xml_bytes();
        let opts = ExchangeOptions {
            budget: budget.clone(),
            ..ExchangeOptions::default()
        };
        let tagged = guard_exit(scenario.exchange_with(&opts), "the overlap exchange");
        let r = SizeReport::measure(tagged.target());
        let schema = tagged.setting().target_schema();
        let member = schema
            .set_member(schema.resolve_path("/Portal/houses").unwrap())
            .unwrap();
        let houses = tagged.target().interpretation(member).len();
        println!(
            "  {:>6.0} %   {:>6}   {:>7.3} MB   {:>7.2} %   {:>5.3} MB   {:>6.2} %",
            100.0 * overlap,
            houses,
            mb(r.naive_annotation_bytes()),
            100.0 * r.naive_annotation_bytes() as f64 / src as f64,
            mb(r.pnf_annotation_bytes()),
            100.0 * r.pnf_annotation_bytes() as f64 / src as f64,
        );
        rows.push(json!({"overlap": overlap, "houses": houses,
                         "naive_annotation_mb": mb(r.naive_annotation_bytes()),
                         "naive_vs_source_pct": 100.0 * r.naive_annotation_bytes() as f64 / src as f64,
                         "pnf_annotation_mb": mb(r.pnf_annotation_bytes()),
                         "pnf_vs_source_pct": 100.0 * r.pnf_annotation_bytes() as f64 / src as f64}));
    }
    println!(
        "  (paper: overhead drops from 5.5 % to 4.9 % with overlapping sources:\n   \
         merged values share one annotation. The same amount of crawled data\n   \
         needs fewer annotation bytes when it overlaps.)"
    );
    Json::Array(rows)
}

/// E6 — deeper nesting lowers the annotation overhead.
fn e6() -> Json {
    banner("E6", "annotation overhead vs nesting depth");
    println!("  depth   width   leaves   PNF overhead");
    let mut rows = Vec::new();
    for (depth, width) in [(1usize, 4096usize), (2, 64), (3, 16), (4, 8)] {
        let tagged = nested_tagged(depth, width);
        let r = SizeReport::measure(tagged.target());
        let leaves = width.pow(depth as u32);
        println!(
            "  {:>5}   {:>5}   {:>6}   {:>6.2} %",
            depth,
            width,
            leaves,
            100.0 * r.pnf_overhead()
        );
        rows.push(json!({"depth": depth, "width": width,
                         "pnf_overhead_pct": 100.0 * r.pnf_overhead()}));
    }
    println!("  (paper: overhead 'should decrease even further if the number of\n   nested sets increases')");
    Json::Array(rows)
}

fn time_query(tagged: &TaggedInstance, text: &str, reps: usize, budget: &Budget) -> f64 {
    let q = parse_query(text).expect("query parses");
    // Warm up + median of `reps`.
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let r = guard_exit(
                tagged.execute(Request::Query(&q), budget, false),
                "a timed query",
            )
            .0;
            std::hint::black_box(r.len());
            t0.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn time_translated(
    tagged: &TaggedInstance,
    runner: &MetaRunner,
    text: &str,
    reps: usize,
    budget: &Budget,
) -> f64 {
    let q = parse_query(text).expect("query parses");
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let r = guard_exit(
                runner.run_budgeted(tagged, &q, budget),
                "a timed translated query",
            );
            std::hint::black_box(r.len());
            t0.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// E7 — MXQL queries show "no significant execution time increase" over
/// plain queries; the translated form is also measured.
fn e7(tagged: &TaggedInstance, budget: &Budget) -> Json {
    banner("E7", "query execution: plain vs MXQL vs translated MXQL");
    let runner = guard_exit(
        MetaRunner::new_budgeted(tagged.setting(), budget),
        "the metastore build",
    );
    let reps = 5;
    let plain = "select h.hid, h.price from Portal.houses h where h.price > 800000";
    let mxql_map = "select h.hid, h.price, m from Portal.houses h, h.price@map m \
                    where h.price > 800000";
    let mxql_pred = "select h.hid, m from Portal.houses h, h.price@map m \
                     where h.price > 800000 and e = h.price@elem \
                       and <'Yahoo':'/Yahoo/listings/price' -> m -> 'Portal':e>";
    let t_plain = time_query(tagged, plain, reps, budget);
    let t_map = time_query(tagged, mxql_map, reps, budget);
    let t_pred = time_query(tagged, mxql_pred, reps, budget);
    let t_tr_map = time_translated(tagged, &runner, mxql_map, reps, budget);
    let t_tr_pred = time_translated(tagged, &runner, mxql_pred, reps, budget);
    println!("  plain selection:                 {t_plain:>9.2} ms");
    println!(
        "  MXQL with @map:                  {t_map:>9.2} ms  ({:+.1} % vs plain)",
        100.0 * (t_map - t_plain) / t_plain
    );
    println!(
        "  MXQL with mapping predicate:     {t_pred:>9.2} ms  ({:+.1} % vs plain)",
        100.0 * (t_pred - t_plain) / t_plain
    );
    println!("  translated (@map):               {t_tr_map:>9.2} ms");
    println!("  translated (mapping predicate):  {t_tr_pred:>9.2} ms");
    println!("  (paper: 'no significant execution time increase')");
    json!({"plain_ms": t_plain, "mxql_map_ms": t_map, "mxql_pred_ms": t_pred,
           "translated_map_ms": t_tr_map, "translated_pred_ms": t_tr_pred})
}

/// E8 — debugging the `housesInNeighborhood` mapping.
fn e8(n: usize, budget: &Budget) -> Json {
    banner(
        "E8",
        "debugging housesInNeighborhood (buggy vs fixed self-join)",
    );
    let mut out = serde_json::Map::new();
    for buggy in [true, false] {
        let scenario = build(ScenarioConfig {
            listings_per_source: (n / 10).clamp(30, 400),
            buggy_neighborhood_join: buggy,
            ..Default::default()
        });
        let opts = ExchangeOptions {
            budget: budget.clone(),
            ..ExchangeOptions::default()
        };
        let tagged = guard_exit(scenario.exchange_with(&opts), "the debugging exchange");
        // Count cross-city "neighbors" (the misleading data).
        let all = tagged
            .query("select h.hid, h.city from Portal.houses h")
            .expect("query runs");
        let mut city_of = std::collections::HashMap::new();
        for row in all.tuples() {
            city_of.insert(row[0].to_string(), row[1].to_string());
        }
        let pairs = tagged
            .query(
                "select h.hid, h.city, b.hid
                 from Portal.houses h, h.housesInNeighborhood b",
            )
            .expect("query runs");
        let total = pairs.len();
        let cross = pairs
            .tuples()
            .iter()
            .filter(|row| {
                city_of
                    .get(&row[2].to_string())
                    .is_some_and(|c| *c != row[1].to_string())
            })
            .count();
        // The diagnostic queries of the paper's session.
        let join_elems = {
            let runner = MetaRunner::new(tagged.setting()).expect("metastore builds");
            let mut catalog = tagged.catalog();
            catalog.push(runner.meta_source());
            let q = parse_query(
                "select e.name from Mapping m, Condition c, Element e
                 where m.mid = 'hs2' and c.qid = m.forQ and c.eid = e.eid",
            )
            .unwrap();
            let r = dtr_query::eval::Evaluator::new(&catalog, tagged.functions())
                .run(&q)
                .expect("metadata query runs");
            let mut names: Vec<String> = r.tuples().iter().map(|t| t[0].to_string()).collect();
            names.sort();
            names.dedup();
            names
        };
        let label = if buggy { "buggy" } else { "fixed" };
        println!(
            "  {label:>5}: {total:>7} neighbor pairs, {cross:>6} cross-city ({:.1} %), \
             self-join on {join_elems:?}",
            100.0 * cross as f64 / total.max(1) as f64
        );
        out.insert(
            label.to_string(),
            json!({"pairs": total, "cross_city": cross, "join_elements": join_elems}),
        );
    }
    println!(
        "  (paper: neighborhoods with the same name in different states generated\n   \
         misleading data; joining on city, state and neighborhood corrected it)"
    );
    Json::Object(out)
}

/// E9 — the schoolDistrict accuracy finding.
fn e9(tagged: &TaggedInstance) -> Json {
    banner(
        "E9",
        "schoolDistrict accuracy (single source element feeds three)",
    );
    // Observation: for some houses all three districts coincide.
    let r = tagged
        .query(
            "select h.hid from Portal.houses h
             where h.schools.elementary = h.schools.middle
               and h.schools.middle = h.schools.high",
        )
        .expect("query runs");
    let equal = r.len();
    let total = tagged
        .query("select h.hid from Portal.houses h")
        .expect("query runs")
        .len();
    println!("  houses with identical elementary/middle/high districts: {equal} / {total}");
    // Diagnosis: where do the three school elements of those houses come
    // from? (The paper's MXQL query, per target element.)
    let mut origins = Vec::new();
    for target in [
        "/Portal/houses/schools/elementary",
        "/Portal/houses/schools/middle",
        "/Portal/houses/schools/high",
    ] {
        let r = tagged
            .query(&format!(
                "select e from where <'NKdb':e -> m -> 'Portal':'{target}'>"
            ))
            .expect("query runs");
        let elems: Vec<String> = r
            .distinct_tuples()
            .iter()
            .map(|t| t[0].to_string())
            .collect();
        println!("  {target} <- {elems:?}");
        origins.push(json!({"target": target, "nk_sources": elems}));
    }
    println!(
        "  (paper: 'all three elements were retrieving their values from a single\n   \
         element schoolDistrict' of the Realtors source)"
    );
    json!({"equal_district_houses": equal, "total_houses": total, "origins": origins})
}

/// E10 — durable exchange: WAL-backed commits, crash, recovery.
///
/// Builds the portal scenario behind a write-ahead log (in-memory VFS, so
/// the run leaves no files behind), commits churn batches through the
/// WAL-then-publish protocol, then simulates a crash by recovering from a
/// copy of the "disk" and verifies the recovered canonical target is
/// byte-identical to the live one.
fn e10(n: usize, budget: &Budget) -> Json {
    banner("E10", "durable exchange (WAL commit, crash, recovery)");
    let scenario = build(ScenarioConfig {
        listings_per_source: n,
        ..Default::default()
    });
    let opts = DurableOptions {
        exchange: ExchangeOptions {
            budget: budget.clone(),
            ..ExchangeOptions::default()
        },
        checkpoint_every: 0,
        ..DurableOptions::default()
    };
    let vfs = Arc::new(MemVfs::new());
    let t0 = Instant::now();
    let mut session = guard_exit(
        DurableSession::create(
            scenario.setting,
            scenario.sources,
            None,
            vfs.clone(),
            "wal",
            opts.clone(),
        ),
        "the durable exchange",
    );
    let create_s = t0.elapsed().as_secs_f64();
    // Churn: rewrite the comments of the first ~1 % of Yahoo listings,
    // one batch per round, each committed to the log before it is applied.
    const BATCHES: usize = 5;
    let t1 = Instant::now();
    for round in 0..BATCHES {
        let inst = &session.session().sources()[0];
        let root = inst.root("Yahoo").expect("Yahoo root");
        let set = inst.child_by_label(root, "listings").expect("listings set");
        let members = inst.set_members(set).expect("set members").to_vec();
        let k = (members.len() / 100).clamp(1, members.len());
        let mut delta = SourceDelta::new();
        for i in (0..k).rev() {
            let mut v = inst.to_value(members[i]);
            if let Value::Record(fields) = &mut v {
                for (l, f) in fields.iter_mut() {
                    if l.as_str() == "comments" {
                        *f = Value::str(format!("e10-round-{round}-{i}"));
                    }
                }
            }
            delta = delta.modify("Yahoo.listings", i, v);
        }
        guard_exit(session.apply(&delta), "a durable churn batch");
    }
    let apply_s = t1.elapsed().as_secs_f64();
    let wal_commit_ms = session.wal_commit_nanos() as f64 / 1e6;
    let publish_ms = session.publish_nanos() as f64 / 1e6;
    let log_bytes = session.wal_committed_len();
    let live = write_instance(
        session.session().target(),
        dtr_xml::writer::WriteOptions::annotated(),
    );
    // Crash: the writer dies; all that survives is the "disk".
    let crashed = vfs.clone_files();
    drop(session);
    let t2 = Instant::now();
    let (recovered, report) = guard_exit(
        DurableSession::open(Arc::new(crashed), "wal", opts),
        "crash recovery",
    );
    let recover_s = t2.elapsed().as_secs_f64();
    let byte_identical = recovered.pin().canonical() == live;
    println!(
        "  created durable session in {create_s:.2} s; {BATCHES} churn batches in {apply_s:.3} s \
         (log commit {wal_commit_ms:.2} ms, snapshot publish {publish_ms:.2} ms)"
    );
    println!(
        "  crash + recovery: replayed {} delta(s) from a {log_bytes}-byte log in {recover_s:.3} s; \
         recovered target byte-identical: {byte_identical}",
        report.replayed
    );
    assert!(byte_identical, "recovery drifted from the live state");
    assert_eq!(report.replayed, BATCHES);
    json!({
        "create_s": create_s,
        "batches": BATCHES,
        "apply_s": apply_s,
        "wal_commit_ms": wal_commit_ms,
        "publish_ms": publish_ms,
        "log_bytes": log_bytes,
        "recover_s": recover_s,
        "replayed": report.replayed,
        "byte_identical": byte_identical,
    })
}

fn main() {
    // `experiments health ...` is a separate mode: a fixed workload whose
    // observable shape is compared against a committed baseline.
    if std::env::args().nth(1).as_deref() == Some("health") {
        health_mode(std::env::args().skip(2).collect());
    }
    let args = parse_args();
    if args.profile {
        dtr_obs::set_enabled(true);
    }
    if args.stats {
        dtr_obs::stats::set_enabled(true);
    }
    if args.trace_out.is_some() {
        dtr_obs::recorder::set_enabled(true);
        dtr_obs::recorder::reset();
    }
    if let Some(path) = &args.audit_out {
        dtr_obs::audit::set_enabled(true);
        dtr_obs::audit::reset();
        let sink = dtr_obs::audit::FileSink::create(std::path::Path::new(path))
            .unwrap_or_else(|e| io_exit("open audit sink", path, e));
        dtr_obs::audit::set_sink(Some(Box::new(sink)));
    }
    if dtr_obs::enabled() {
        dtr_obs::profile_reset();
    }
    if dtr_obs::stats::enabled() {
        dtr_obs::stats::reset();
    }
    println!(
        "Section 8 experiment harness — {} listings per source ({} total)",
        args.listings_per_source,
        5 * args.listings_per_source
    );
    let needs_default = args
        .run
        .iter()
        .any(|e| ["e1", "e2", "e4", "e7", "e9"].contains(e));
    let shared = if needs_default {
        let t0 = Instant::now();
        let pair = default_tagged(
            args.listings_per_source,
            &args.budget,
            args.parallel,
            args.workers,
        );
        println!(
            "built + exchanged default scenario in {:.1} s ({} portal nodes)",
            t0.elapsed().as_secs_f64(),
            pair.0.target().len()
        );
        Some(pair)
    } else {
        None
    };

    let mut results = serde_json::Map::new();
    for e in &args.run {
        let value = match *e {
            "e1" => {
                let (t, src) = shared.as_ref().expect("shared scenario");
                e1(t, *src)
            }
            "e2" => e2(&shared.as_ref().expect("shared scenario").0),
            "e3" => e3(
                args.listings_per_source,
                &args.budget,
                args.parallel,
                args.workers,
            ),
            "e4" => e4(&shared.as_ref().expect("shared scenario").0),
            "e5" => e5(args.listings_per_source, &args.budget),
            "e6" => e6(),
            "e7" => e7(&shared.as_ref().expect("shared scenario").0, &args.budget),
            "e8" => e8(args.listings_per_source, &args.budget),
            "e9" => e9(&shared.as_ref().expect("shared scenario").0),
            "e10" => e10(args.listings_per_source, &args.budget),
            other => panic!("unknown experiment {other}"),
        };
        results.insert((*e).to_string(), value);
    }

    let profile = if dtr_obs::enabled() {
        let p = dtr_obs::profile_snapshot();
        println!("\n{}", p.render());
        let snap = dtr_obs::counters().span_duration_ns.snapshot();
        if let Some((p50, p90, p99)) = dtr_obs::snapshot_percentiles(&snap) {
            println!("span latency: p50 {p50} ns, p90 {p90} ns, p99 {p99} ns");
        }
        Some(p)
    } else {
        None
    };
    let stats = if dtr_obs::stats::enabled() {
        let c = dtr_obs::stats::snapshot();
        println!(
            "\nstatistics catalog: {} path(s), {} join key(s)",
            c.paths.len(),
            c.joins.len()
        );
        Some(c)
    } else {
        None
    };

    if let Some(path) = &args.trace_out {
        let doc = dtr_obs::chrome_trace::export_current();
        let summary = dtr_obs::chrome_trace::validate(&doc).expect("exported trace is valid");
        std::fs::write(path, serde_json::to_string(&doc).expect("serializable"))
            .unwrap_or_else(|e| io_exit("write trace", path, e));
        println!(
            "\nflight trace written to {path}: {} event(s) ({} duration, {} counter) \
             across {} thread(s) — load it in Perfetto or chrome://tracing",
            summary.events, summary.duration_events, summary.counter_events, summary.distinct_tids
        );
    }
    if let Some(path) = &args.audit_out {
        let (recorded, _, dropped, _) = dtr_obs::audit::counts();
        println!(
            "audit log written to {path}: {recorded} record(s) ({dropped} dropped by the ring)"
        );
    }

    if let Some(path) = args.json_path {
        if let Some(p) = &profile {
            results.insert("profile".to_string(), p.to_json());
            let snap = dtr_obs::counters().span_duration_ns.snapshot();
            if let Some((p50, p90, p99)) = dtr_obs::snapshot_percentiles(&snap) {
                results.insert(
                    "latency_ns".to_string(),
                    json!({"span_p50": p50, "span_p90": p90, "span_p99": p99}),
                );
            }
        }
        if let Some(c) = &stats {
            results.insert("stats".to_string(), c.to_json());
        }
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&Json::Object(results)).expect("serializable"),
        )
        .unwrap_or_else(|e| io_exit("write JSON results", &path, e));
        println!("\nresults written to {path}");
    }
}

/// The fixed query mix of the health workload (a subset of E7 plus a
/// metadata lookup), chosen so exchange, direct evaluation, and the
/// translated pipeline all contribute counters.
const HEALTH_QUERIES: &[&str] = &[
    "select h.hid, h.price from Portal.houses h where h.price > 800000",
    "select h.hid, h.price, m from Portal.houses h, h.price@map m where h.price > 800000",
    "select h.hid, m from Portal.houses h, h.price@map m \
     where h.price > 800000 and e = h.price@elem \
       and <'Yahoo':'/Yahoo/listings/price' -> m -> 'Portal':e>",
];

/// `experiments health`: run a deterministic sequential workload, capture
/// its observable shape (counters, statistics catalog, span latency), and
/// compare it against a committed baseline with `dtr_obs::health`.
///
/// ```text
/// experiments health --update                    # (re)write the baseline
/// experiments health                             # compare, exit 2 on fail
/// experiments health --report-only               # compare, always exit 0
/// experiments health --inject-drift              # synthetic drift (self-test)
/// ```
///
/// Exit status: 0 on `ok`/`warn` (latency checks are machine-dependent and
/// warn-only), 2 on `fail` — unless `--report-only`.
fn health_mode(argv: Vec<String>) -> ! {
    let mut baseline_path = "HEALTH_BASELINE.json".to_string();
    let mut out_path: Option<String> = None;
    let mut thresholds = dtr_obs::health::Thresholds::default();
    let mut update = false;
    let mut inject_drift = false;
    let mut report_only = false;
    let mut scale = 200usize;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => baseline_path = it.next().expect("--baseline takes a path"),
            "--out" => out_path = it.next(),
            "--warn-pct" => {
                thresholds.warn_pct = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--warn-pct takes a number");
            }
            "--fail-pct" => {
                thresholds.fail_pct = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--fail-pct takes a number");
            }
            "--update" => update = true,
            "--inject-drift" => inject_drift = true,
            "--report-only" => report_only = true,
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a number");
            }
            other => {
                eprintln!("unknown health flag {other}");
                std::process::exit(2);
            }
        }
    }

    // The workload must produce the same counters on every machine: spans
    // and stats on, sequential exchange, fixed scale and query mix.
    dtr_obs::set_enabled(true);
    dtr_obs::stats::set_enabled(true);
    dtr_obs::profile_reset();
    dtr_obs::stats::reset();
    let scenario = build(ScenarioConfig {
        listings_per_source: scale,
        ..Default::default()
    });
    let tagged = scenario
        .exchange_with(&ExchangeOptions::default())
        .expect("health exchange");
    let runner = MetaRunner::new(tagged.setting()).expect("metastore builds");
    for text in HEALTH_QUERIES {
        let q = parse_query(text).expect("health query parses");
        std::hint::black_box(tagged.run(&q).expect("health query runs").len());
    }
    // The translated pipeline exercises the metastore path too.
    let q = parse_query(HEALTH_QUERIES[1]).expect("health query parses");
    std::hint::black_box(
        runner
            .run(&tagged, &q)
            .expect("translated health query")
            .len(),
    );

    let catalog = dtr_obs::stats::snapshot();
    let mut live = dtr_obs::health::HealthSnapshot::capture(&catalog);
    if inject_drift {
        // Synthetic anomaly: the engine "did three times the work".
        for (_, v) in live.counters.iter_mut() {
            *v = *v * 3 + 1000;
        }
        live.stats_tuples = live.stats_tuples * 3 + 1000;
    }

    if update {
        std::fs::write(
            &baseline_path,
            serde_json::to_string_pretty(&live.to_json()).expect("serializable"),
        )
        .unwrap_or_else(|e| io_exit("write baseline", &baseline_path, e));
        println!(
            "health baseline written to {baseline_path}: {} counter(s), {} stats path(s)",
            live.counters.len(),
            live.stats_paths
        );
        std::process::exit(0);
    }

    let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("health: cannot read baseline {baseline_path}: {e}");
        eprintln!("run `experiments health --update` to create it");
        std::process::exit(2);
    });
    let doc: Json = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("health: baseline {baseline_path} is not JSON: {e}");
        eprintln!("run `experiments health --update` to regenerate it");
        std::process::exit(2);
    });
    let baseline = dtr_obs::health::HealthSnapshot::from_json(&doc).unwrap_or_else(|e| {
        eprintln!("health: baseline {baseline_path} has an unexpected shape: {e}");
        eprintln!("run `experiments health --update` to regenerate it");
        std::process::exit(2);
    });
    let report = dtr_obs::health::compare(&baseline, &live, &thresholds);
    println!("{}", report.render());
    if let Some(path) = out_path {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&report.to_json()).expect("serializable"),
        )
        .unwrap_or_else(|e| io_exit("write health report", &path, e));
        println!("health report written to {path}");
    }
    let code = match report.status {
        dtr_obs::health::Status::Fail if !report_only => 2,
        _ => 0,
    };
    std::process::exit(code);
}
