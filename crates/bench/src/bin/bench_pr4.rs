//! Wall-clock comparison of the PR4 performance work: hash-join binding
//! enumeration and parallel mapping evaluation versus the previous
//! nested-loop, serial configuration, measured on the Section 8 portal
//! scenario (exchange + a representative MXQL query workload).
//!
//! ```text
//! bench_pr4 [--quick] [--out PATH]
//! ```
//!
//! Emits a JSON report (default `BENCH_PR4.json`) with per-scale timings
//! and speedups. Criterion is a dev-dependency and not available to bins,
//! so this runner uses plain `std::time` with repeated runs, keeping the
//! fastest of each configuration (the usual minimum-is-signal rule).
//!
//! A fourth `instrumented` configuration runs the optimized path with the
//! statistics catalog and EXPLAIN ANALYZE enabled on every query; its
//! `stats_overhead_pct` is the cost of asking for full observability. A
//! fifth `flight` configuration runs the optimized path with the flight
//! recorder and audit log capturing; its `flight_overhead_pct` is the
//! marginal cost of the always-on time-domain tiers. A sixth `incremental`
//! configuration prices delta-driven maintenance: 1 % and 10 % modify
//! churn on `Yahoo.listings` applied through an `IncrementalSession`
//! versus a full re-exchange over the same mutated sources; the ratio at
//! 1 % churn is `delta_speedup`. A seventh `planned` configuration prices
//! the cost-based planner: the same query workload run from raw text
//! through `plan_for` + `run_plan` with a cold plan cache (cleared before
//! every pass), a warm cache, and the legacy pre-parsed evaluator path;
//! the cold/warm ratio is `plan_cache_hit_speedup`. An eighth
//! `durable` configuration prices the write-ahead log: the same churn
//! batches committed through a WAL-backed `DurableSession` (delta frame +
//! CRC + sync point + epoch publish) versus plain in-memory applies —
//! the gap is `wal_overhead_pct` — plus recovery wall time at two log
//! lengths (a full delta suffix to replay vs a fresh checkpoint).
//! Compare reports across commits with `bench_diff` (same crate).

use dtr_core::incremental::IncrementalSession;
use dtr_core::store::{DurableOptions, DurableSession};
use dtr_core::tagged::{Request, TaggedInstance};
use dtr_mapping::delta::SourceDelta;
use dtr_mapping::durable::MemVfs;
use dtr_mapping::exchange::{execute_mappings_with, ExchangeOptions};
use dtr_model::instance::Value;
use dtr_obs::guard::Budget;
use dtr_portal::scenario::{build, ScenarioConfig};
use dtr_query::ast::Query;
use dtr_query::eval::{EvalOptions, Evaluator, QueryResult, Source};
use dtr_query::functions::FunctionRegistry;
use dtr_query::parser::parse_query;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The query workload: a plain selection (engine-insensitive floor), a
/// target-side join, a nested-set join (resolving each house's
/// `housesInNeighborhood` stubs — the Section 8 debugging case — back to
/// full listings), an `@map` extension, and an MXQL mapping predicate
/// (exercising the triple index).
const QUERIES: &[&str] = &[
    "select h.hid, h.price from Portal.houses h where h.price > 800000",
    "select h.hid, a.phone from Portal.houses h, Portal.agents a where h.contact.name = a.name",
    "select h.hid, n.hid, h2.price \
     from Portal.houses h, h.housesInNeighborhood n, Portal.houses h2 \
     where n.hid = h2.hid",
    "select h.hid, h.price, m from Portal.houses h, h.price@map m where h.price > 800000",
    "select h.hid, m from Portal.houses h, h.price@map m \
     where h.price > 800000 and e = h.price@elem \
       and <'Yahoo':'/Yahoo/listings/price' -> m -> 'Portal':e>",
];

struct PathTiming {
    exchange_ms: f64,
    query_ms: f64,
    rows: usize,
    /// Per-mapping exchange wall-time percentiles `(p50, p90, p99)` in ns.
    latency_ns: Option<(u64, u64, u64)>,
}

/// What observability runs alongside a configuration.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Instrumentation compiled in but every tier gated off.
    Plain,
    /// Statistics catalog + EXPLAIN ANALYZE on every query (the PR6 cost).
    Instrumented,
    /// Optimized plus the time-domain tiers this PR adds: the flight
    /// recorder (span events feed its ring whether or not full profiling
    /// is on) and the audit log. The gap to `optimized` is
    /// `flight_overhead_pct` — the marginal cost of always-on recording.
    /// (Profile spans, the decision journal, and EXPLAIN ANALYZE have
    /// their own dedicated overhead measurements and stay off here.)
    Flight,
}

/// How many times the query workload runs against each exchanged portal.
/// A portal materializes once and then serves queries, so the path under
/// test weights the query side accordingly (and the repetition smooths
/// per-query timer noise).
const QUERY_REPS: usize = 3;

fn run_path(n: usize, opts: &ExchangeOptions, queries: &[Query], mode: Mode) -> PathTiming {
    let scenario = build(ScenarioConfig {
        listings_per_source: n,
        ..Default::default()
    });
    if mode == Mode::Instrumented {
        dtr_obs::stats::set_enabled(true);
    }
    if mode == Mode::Flight {
        dtr_obs::recorder::set_enabled(true);
        dtr_obs::audit::set_enabled(true);
    }
    let t0 = Instant::now();
    let tagged = scenario.exchange_with(opts).expect("exchange succeeds");
    let exchange_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let mut rows = 0usize;
    for _ in 0..QUERY_REPS {
        rows = 0;
        for q in queries {
            // The instrumented path is the full EXPLAIN ANALYZE mode: the
            // statistics catalog records scans/joins and every operator is
            // timed. Results are byte-identical to the plain path, which
            // the cross-config row assertion in `main` re-checks.
            // The flight path runs the same plain query through
            // `execute`, where the recorder and audit log capture it from
            // the inside, so its gap to `optimized` isolates the
            // time-domain tiers.
            rows += match mode {
                Mode::Plain => eval_with(&tagged, q, &opts.eval).len(),
                Mode::Instrumented | Mode::Flight => tagged
                    .execute(
                        Request::Query(q),
                        &opts.eval.budget,
                        mode == Mode::Instrumented,
                    )
                    .expect("query succeeds")
                    .0
                    .len(),
            };
        }
    }
    let query_ms = t1.elapsed().as_secs_f64() * 1e3;
    if mode == Mode::Instrumented {
        dtr_obs::stats::set_enabled(false);
    }
    if mode == Mode::Flight {
        dtr_obs::recorder::set_enabled(false);
        dtr_obs::audit::set_enabled(false);
        dtr_obs::recorder::reset();
        dtr_obs::audit::reset();
    }
    PathTiming {
        exchange_ms,
        query_ms,
        rows,
        latency_ns: tagged.report().latency_percentiles(),
    }
}

/// Evaluates `q` over `tagged` with an explicit engine configuration: the
/// ablation picks evaluator modes (nested-loop vs hash join), which live
/// on the `Evaluator`, not on the tagged instance's query calls.
fn eval_with(tagged: &TaggedInstance, q: &Query, eval: &EvalOptions) -> QueryResult {
    let catalog = tagged.catalog();
    Evaluator::new(&catalog, tagged.functions())
        .with_meta(tagged.setting())
        .with_options(eval.clone())
        .run(&tagged.setting().normalize_query(q))
        .expect("query succeeds")
}

/// Plans (or fetches the cached plan for) `text` and runs it; the row count.
fn run_text(tagged: &TaggedInstance, text: &str) -> usize {
    tagged
        .plan_for(text)
        .and_then(|plan| tagged.run_plan(&plan))
        .expect("planned query succeeds")
        .len()
}

/// Runs every config once per rep, interleaved, keeping each config's best
/// total. Interleaving matters: consecutive same-config reps would let a
/// slow stretch of the host (noisy neighbour, thermal dip) land entirely
/// on one config and masquerade as a real difference.
fn best_of_each(
    reps: usize,
    n: usize,
    configs: &[(&ExchangeOptions, Mode)],
    queries: &[Query],
) -> Vec<PathTiming> {
    let mut best: Vec<Option<PathTiming>> = configs.iter().map(|_| None).collect();
    for _ in 0..reps {
        for (slot, (opts, mode)) in best.iter_mut().zip(configs) {
            let t = run_path(n, opts, queries, *mode);
            let better = match slot {
                Some(b) => t.exchange_ms + t.query_ms < b.exchange_ms + b.query_ms,
                None => true,
            };
            if better {
                *slot = Some(t);
            }
        }
    }
    best.into_iter()
        .map(|b| b.expect("at least one rep"))
        .collect()
}

/// Timings for the `planned` configuration: the query workload run from
/// raw text through the cost-based planner with a cold cache (plan
/// compiled every pass), a warm cache (compiled once, structurally
/// confirmed on every hit), and the legacy pre-parsed evaluation path.
struct PlannedTiming {
    legacy_ms: f64,
    cold_ms: f64,
    cached_ms: f64,
    rows: usize,
}

/// One rep of the planned path. One exchange serves all three variants so
/// the comparison isolates query-side planning cost; each variant runs the
/// full workload `QUERY_REPS` times like `run_path` does.
fn run_planned(n: usize, opts: &ExchangeOptions, queries: &[Query]) -> PlannedTiming {
    let scenario = build(ScenarioConfig {
        listings_per_source: n,
        ..Default::default()
    });
    let tagged = scenario.exchange_with(opts).expect("exchange succeeds");
    let t0 = Instant::now();
    let mut legacy_rows = 0usize;
    for _ in 0..QUERY_REPS {
        legacy_rows = 0;
        for q in queries {
            legacy_rows += eval_with(&tagged, q, &opts.eval).len();
        }
    }
    let legacy_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let mut cold_rows = 0usize;
    for _ in 0..QUERY_REPS {
        cold_rows = 0;
        tagged.clear_plan_cache();
        for text in QUERIES {
            cold_rows += run_text(&tagged, text);
        }
    }
    let cold_ms = t1.elapsed().as_secs_f64() * 1e3;
    // The cache is warm from the last cold pass; every lookup below is a
    // (structurally confirmed) hit.
    let t2 = Instant::now();
    let mut cached_rows = 0usize;
    for _ in 0..QUERY_REPS {
        cached_rows = 0;
        for text in QUERIES {
            cached_rows += run_text(&tagged, text);
        }
    }
    let cached_ms = t2.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        legacy_rows, cold_rows,
        "planned (cold) run changed workload rows at scale {n}"
    );
    assert_eq!(
        cold_rows, cached_rows,
        "plan-cache hit changed workload rows at scale {n}"
    );
    let stats = tagged.plan_cache_stats();
    assert_eq!(stats.collisions, 0, "unexpected plan-cache collision");
    PlannedTiming {
        legacy_ms,
        cold_ms,
        cached_ms,
        rows: cached_rows,
    }
}

/// Best-of-`reps` for the planned path, keeping the rep with the best
/// combined time across the three variants.
fn best_planned(reps: usize, n: usize, opts: &ExchangeOptions, queries: &[Query]) -> PlannedTiming {
    (0..reps)
        .map(|_| run_planned(n, opts, queries))
        .min_by(|a, b| {
            (a.legacy_ms + a.cold_ms + a.cached_ms)
                .total_cmp(&(b.legacy_ms + b.cold_ms + b.cached_ms))
        })
        .expect("at least one rep")
}

/// Timings for the `incremental` configuration: delta-driven maintenance
/// at 1 % and 10 % churn versus a full re-exchange over the same mutated
/// sources.
struct IncrementalTiming {
    build_ms: f64,
    delta_1pct_ms: f64,
    delta_10pct_ms: f64,
    full_reexchange_ms: f64,
    edits_1pct: usize,
    edits_10pct: usize,
}

/// A churn batch: modifies the first `frac·n` members of `Yahoo.listings`
/// (rewriting their free-text `comments` field so every touched member is
/// a genuine change). Indices descend so each modify (a delete + append
/// under batch resolution) leaves the earlier targets in place.
fn churn_delta(session: &IncrementalSession, frac: f64, tag: &str) -> (SourceDelta, usize) {
    let inst = &session.sources()[0];
    let root = inst.root("Yahoo").expect("Yahoo root");
    let set = inst.child_by_label(root, "listings").expect("listings set");
    let members = inst.set_members(set).expect("set members").to_vec();
    let k = ((frac * members.len() as f64).ceil() as usize).clamp(1, members.len());
    let mut delta = SourceDelta::new();
    for i in (0..k).rev() {
        let mut v = inst.to_value(members[i]);
        if let Value::Record(fields) = &mut v {
            for (l, f) in fields.iter_mut() {
                if l.as_str() == "comments" {
                    *f = Value::str(format!("churn-{tag}-{i}"));
                }
            }
        }
        delta = delta.modify("Yahoo.listings", i, v);
    }
    (delta, k)
}

/// One rep of the incremental path: build the session (a full exchange plus
/// the retraction index), apply a 1 % then a 10 % churn batch, then price a
/// full re-exchange over the same mutated sources — what a non-incremental
/// pipeline pays for the identical update.
fn run_incremental(n: usize, opts: &ExchangeOptions, rep: usize) -> IncrementalTiming {
    let scenario = build(ScenarioConfig {
        listings_per_source: n,
        ..Default::default()
    });
    let t0 = Instant::now();
    let mut session =
        IncrementalSession::with_options(scenario.setting, scenario.sources, opts.clone())
            .expect("incremental session builds");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (d1, edits_1pct) = churn_delta(&session, 0.01, &format!("a{rep}"));
    let t1 = Instant::now();
    session.apply(&d1).expect("1% churn applies");
    let delta_1pct_ms = t1.elapsed().as_secs_f64() * 1e3;
    let (d10, edits_10pct) = churn_delta(&session, 0.10, &format!("b{rep}"));
    let t10 = Instant::now();
    session.apply(&d10).expect("10% churn applies");
    let delta_10pct_ms = t10.elapsed().as_secs_f64() * 1e3;
    let views: Vec<Source> = session
        .setting()
        .source_schemas()
        .iter()
        .zip(session.sources())
        .map(|(schema, instance)| Source { schema, instance })
        .collect();
    let funcs = FunctionRegistry::with_builtins();
    let tf = Instant::now();
    execute_mappings_with(
        &views,
        session.setting().target_schema(),
        session.setting().mappings(),
        &funcs,
        opts,
    )
    .expect("full re-exchange succeeds");
    let full_reexchange_ms = tf.elapsed().as_secs_f64() * 1e3;
    IncrementalTiming {
        build_ms,
        delta_1pct_ms,
        delta_10pct_ms,
        full_reexchange_ms,
        edits_1pct,
        edits_10pct,
    }
}

/// Best-of-`reps` for the incremental path, keeping the rep with the best
/// combined delta + full-re-exchange time (the two sides of the ratio).
fn best_incremental(reps: usize, n: usize, opts: &ExchangeOptions) -> IncrementalTiming {
    (0..reps)
        .map(|r| run_incremental(n, opts, r))
        .min_by(|a, b| {
            let ka = a.delta_1pct_ms + a.delta_10pct_ms + a.full_reexchange_ms;
            let kb = b.delta_1pct_ms + b.delta_10pct_ms + b.full_reexchange_ms;
            ka.total_cmp(&kb)
        })
        .expect("at least one rep")
}

/// Timings for the `durable` configuration: the same churn batches
/// committed through a WAL-backed [`DurableSession`] versus plain
/// in-memory [`IncrementalSession`] applies, plus recovery wall time at
/// two log lengths. The log lives on [`MemVfs`] so the numbers price the
/// commit protocol (delta serialization, framing, CRC, sync points,
/// epoch publish) rather than one host's disk latency.
struct DurableTiming {
    inmem_build_ms: f64,
    create_ms: f64,
    inmem_apply_ms: f64,
    wal_apply_ms: f64,
    /// Time inside the WAL commit path alone (serialize + frame + CRC +
    /// append + sync) — the marginal cost of durability. The rest of the
    /// `wal_apply_ms` − `inmem_apply_ms` gap is `publish_ms`.
    wal_commit_ms: f64,
    /// Time cloning state into epoch snapshots for concurrent readers —
    /// the cost of snapshot isolation, not of the log.
    publish_ms: f64,
    checkpoint_ms: f64,
    recovery_replay_ms: f64,
    recovery_cold_ms: f64,
    replayed: usize,
    wal_bytes: u64,
}

/// Churn batches committed per durable rep — 10 % modify churn each, so
/// the per-batch WAL cost is priced against real maintenance work,
/// amortized the way production batches are.
const DURABLE_BATCHES: usize = 6;

/// One rep of the durable path: build a plain in-memory session and a
/// WAL-backed one from the same scenario, commit identical churn batches
/// through both, then measure recovery from the resulting log twice —
/// once with the full delta suffix to replay and once right after a
/// checkpoint folded it away.
fn run_durable(n: usize, opts: &ExchangeOptions, rep: usize) -> DurableTiming {
    let scenario = build(ScenarioConfig {
        listings_per_source: n,
        ..Default::default()
    });
    let t0 = Instant::now();
    let mut inmem =
        IncrementalSession::with_options(scenario.setting, scenario.sources, opts.clone())
            .expect("in-memory session builds");
    let inmem_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let scenario = build(ScenarioConfig {
        listings_per_source: n,
        ..Default::default()
    });
    let vfs = Arc::new(MemVfs::new());
    let dopts = DurableOptions {
        exchange: opts.clone(),
        checkpoint_every: 0,
        ..DurableOptions::default()
    };
    let t1 = Instant::now();
    let mut durable = DurableSession::create(
        scenario.setting,
        scenario.sources,
        None,
        vfs.clone(),
        "wal",
        dopts.clone(),
    )
    .expect("durable session creates");
    let create_ms = t1.elapsed().as_secs_f64() * 1e3;
    let (mut inmem_apply_ms, mut wal_apply_ms) = (0.0f64, 0.0f64);
    for b in 0..DURABLE_BATCHES {
        // The delta is derived from the in-memory session's state; both
        // sessions started identical and stay identical, so the exact
        // same batch commits on both sides.
        let (delta, _) = churn_delta(&inmem, 0.10, &format!("w{rep}-{b}"));
        let t = Instant::now();
        inmem.apply(&delta).expect("in-memory churn applies");
        inmem_apply_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        durable.apply(&delta).expect("durable churn applies");
        wal_apply_ms += t.elapsed().as_secs_f64() * 1e3;
    }
    let wal_bytes = durable.wal_committed_len();
    let wal_commit_ms = durable.wal_commit_nanos() as f64 / 1e6;
    let publish_ms = durable.publish_nanos() as f64 / 1e6;
    // Recovery with the whole delta suffix still in the log.
    let image = vfs.clone_files();
    let t = Instant::now();
    let (_, report) = DurableSession::open(Arc::new(image), "wal", dopts.clone())
        .expect("recovery with replay succeeds");
    let recovery_replay_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        report.replayed, DURABLE_BATCHES,
        "every committed batch replays at scale {n}"
    );
    // Fold the suffix into a fresh checkpoint and price recovery again.
    let t = Instant::now();
    durable.checkpoint().expect("checkpoint rotates");
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let image = vfs.clone_files();
    let t = Instant::now();
    let (_, report) = DurableSession::open(Arc::new(image), "wal", dopts)
        .expect("post-checkpoint recovery succeeds");
    let recovery_cold_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.replayed, 0, "checkpoint folded the suffix");
    DurableTiming {
        inmem_build_ms,
        create_ms,
        inmem_apply_ms,
        wal_apply_ms,
        wal_commit_ms,
        publish_ms,
        checkpoint_ms,
        recovery_replay_ms,
        recovery_cold_ms,
        replayed: DURABLE_BATCHES,
        wal_bytes,
    }
}

/// Best-of-`reps` for the durable path, keeping the rep with the best
/// combined apply time on both sides of the overhead ratio.
fn best_durable(reps: usize, n: usize, opts: &ExchangeOptions) -> DurableTiming {
    (0..reps)
        .map(|r| run_durable(n, opts, r))
        .min_by(|a, b| {
            (a.wal_apply_ms + a.inmem_apply_ms).total_cmp(&(b.wal_apply_ms + b.inmem_apply_ms))
        })
        .expect("at least one rep")
}

/// The `latency_ns` fragment of one config's JSON object (empty when the
/// exchange produced no per-mapping timings).
fn latency_json(l: Option<(u64, u64, u64)>) -> String {
    match l {
        Some((p50, p90, p99)) => {
            format!(", \"latency_ns\": {{ \"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99} }}")
        }
        None => String::new(),
    }
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_PR4.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("bench_pr4: --out takes a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("bench_pr4: unknown argument `{other}`");
                eprintln!("usage: bench_pr4 [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let scales: &[usize] = if quick {
        &[25, 50]
    } else {
        &[25, 50, 100, 200, 400]
    };
    // Even quick runs take 3 interleaved reps: the overhead percentages
    // compare configs pairwise, and min-of-1 on a shared runner is pure
    // noise.
    let reps = if quick { 3 } else { 5 };

    let queries: Vec<Query> = QUERIES
        .iter()
        .map(|t| parse_query(t).expect("workload query parses"))
        .collect();
    // The pre-optimization configuration this PR replaced as the default:
    // serial exchange, nested-loop binding enumeration, and per-row member
    // construction. All three knobs remain selectable so the comparison is
    // reproducible from this tree alone.
    let baseline_opts = ExchangeOptions {
        parallel: false,
        workers: 0,
        eval: EvalOptions {
            pushdown: true,
            hash_join: false,
            ..Default::default()
        },
        member_templates: false,
        ..Default::default()
    };
    // Everything this PR turned on: hash-join evaluation, compiled member
    // templates, and parallel foreach evaluation (auto-sized; on a
    // single-core host this resolves to the serial insert path).
    let optimized_opts = ExchangeOptions {
        parallel: true,
        ..ExchangeOptions::default()
    };
    // The optimized path with a guard budget far above the workload (1 h
    // deadline, billion-row caps): measures what the PR5 resource meters
    // cost on a run that never trips — the acceptance bar is < 3 %. The
    // budget goes on both the exchange and the query workload's eval
    // options so every meter in the pipeline is armed.
    let generous = Budget {
        max_bindings: Some(1_000_000_000),
        max_rows: Some(1_000_000_000),
        max_result_bytes: Some(1 << 40),
        deadline: Some(Duration::from_secs(3600)),
        ..Budget::default()
    };
    let guarded_opts = ExchangeOptions {
        budget: generous.clone(),
        eval: EvalOptions {
            budget: generous,
            ..optimized_opts.eval.clone()
        },
        ..optimized_opts.clone()
    };

    let mut entries = Vec::new();
    for &n in scales {
        eprintln!("bench_pr4: scale {n} listings/source ({reps} rep(s) per config)");
        let mut timings = best_of_each(
            reps,
            n,
            &[
                (&baseline_opts, Mode::Plain),
                (&optimized_opts, Mode::Plain),
                (&guarded_opts, Mode::Plain),
                // The optimized configuration with the full dtr-stats
                // instrumentation on: statistics catalog collection during
                // the exchange and EXPLAIN ANALYZE per-operator timing on
                // every query. The gap between `optimized` (instrumentation
                // compiled in but disabled) and `instrumented` is what the
                // observability work costs when you ask for it; `optimized`
                // against the committed report (via bench_diff) is what it
                // costs when you don't.
                (&optimized_opts, Mode::Instrumented),
                // Optimized plus the flight recorder and audit log. The
                // gap to `optimized` is `flight_overhead_pct`.
                (&optimized_opts, Mode::Flight),
            ],
            &queries,
        );
        let flight = timings.pop().expect("flight timing");
        let instrumented = timings.pop().expect("instrumented timing");
        let guarded = timings.pop().expect("guarded timing");
        let opt = timings.pop().expect("optimized timing");
        let base = timings.pop().expect("baseline timing");
        assert_eq!(
            base.rows, opt.rows,
            "engines disagree on workload rows at scale {n}"
        );
        assert_eq!(
            opt.rows, guarded.rows,
            "guarded run changed workload rows at scale {n}"
        );
        assert_eq!(
            opt.rows, instrumented.rows,
            "EXPLAIN ANALYZE changed workload rows at scale {n}"
        );
        assert_eq!(
            opt.rows, flight.rows,
            "flight recording changed workload rows at scale {n}"
        );
        let total_base = base.exchange_ms + base.query_ms;
        let total_opt = opt.exchange_ms + opt.query_ms;
        let total_guarded = guarded.exchange_ms + guarded.query_ms;
        let total_instr = instrumented.exchange_ms + instrumented.query_ms;
        let total_flight = flight.exchange_ms + flight.query_ms;
        let guard_overhead_pct = 100.0 * (total_guarded - total_opt) / total_opt;
        let stats_overhead_pct = 100.0 * (total_instr - total_opt) / total_opt;
        let flight_overhead_pct = 100.0 * (total_flight - total_opt) / total_opt;
        // The incremental configuration: delta maintenance at 1 %/10 %
        // churn against a full re-exchange over the same mutated sources.
        let inc = best_incremental(reps.min(3), n, &optimized_opts);
        let delta_speedup = inc.full_reexchange_ms / inc.delta_1pct_ms;
        // The planned configuration: cold-plan vs cached-plan vs legacy
        // query evaluation on one shared exchange.
        let planned = best_planned(reps.min(3), n, &optimized_opts, &queries);
        let plan_cache_hit_speedup = planned.cold_ms / planned.cached_ms;
        // The durable configuration: WAL-backed applies vs in-memory
        // applies of the same churn, plus recovery at two log lengths.
        let dur = best_durable(reps.min(3), n, &optimized_opts);
        // The WAL overhead is the log-commit path alone, priced against
        // the bare engine apply; the epoch-snapshot clone is a separate
        // line item (`publish_ms`) since it buys reader isolation, not
        // durability, and is paid whether or not the log is on.
        let wal_overhead_pct = 100.0 * dur.wal_commit_ms / dur.inmem_apply_ms;
        assert_eq!(
            planned.rows, base.rows,
            "planner changed workload rows at scale {n}"
        );
        eprintln!(
            "  planned: legacy {:.1} ms; cold plans {:.1} ms; cached plans {:.1} ms \
             (plan_cache_hit_speedup {plan_cache_hit_speedup:.2}x)",
            planned.legacy_ms, planned.cold_ms, planned.cached_ms,
        );
        eprintln!(
            "  incremental: build {:.1} ms; 1% churn ({} edit(s)) {:.2} ms vs full \
             re-exchange {:.1} ms (delta_speedup {:.1}x); 10% churn ({} edit(s)) {:.2} ms",
            inc.build_ms,
            inc.edits_1pct,
            inc.delta_1pct_ms,
            inc.full_reexchange_ms,
            delta_speedup,
            inc.edits_10pct,
            inc.delta_10pct_ms,
        );
        eprintln!(
            "  durable: {} x 10% churn in-memory {:.2} ms vs WAL-backed {:.2} ms \
             (log commit {:.2} ms, wal_overhead_pct {wal_overhead_pct:+.2} %; \
             snapshot publish {:.2} ms); recovery replay({}) {:.1} ms vs \
             post-checkpoint {:.1} ms (checkpoint {:.1} ms, log {} bytes)",
            dur.replayed,
            dur.inmem_apply_ms,
            dur.wal_apply_ms,
            dur.wal_commit_ms,
            dur.publish_ms,
            dur.replayed,
            dur.recovery_replay_ms,
            dur.recovery_cold_ms,
            dur.checkpoint_ms,
            dur.wal_bytes,
        );
        eprintln!(
            "  serial+nested {total_base:.1} ms vs parallel+hash {total_opt:.1} ms \
             (speedup {:.2}x); guarded {total_guarded:.1} ms ({guard_overhead_pct:+.2} %); \
             stats+analyze {total_instr:.1} ms ({stats_overhead_pct:+.2} %); \
             flight+audit {total_flight:.1} ms ({flight_overhead_pct:+.2} %)",
            total_base / total_opt
        );
        entries.push(format!(
            "    {{\n      \"listings_per_source\": {n},\n      \"workload_rows\": {rows},\n      \
             \"baseline\": {{ \"config\": \"serial exchange + nested-loop eval + per-row member construction\", \
             \"exchange_ms\": {be:.3}, \"query_ms\": {bq:.3}, \"total_ms\": {bt:.3}{bl} }},\n      \
             \"optimized\": {{ \"config\": \"parallel exchange (auto-sized) + hash-join eval + member templates\", \
             \"exchange_ms\": {oe:.3}, \"query_ms\": {oq:.3}, \"total_ms\": {ot:.3}{ol} }},\n      \
             \"guarded\": {{ \"config\": \"optimized + generous resource budget (1h deadline, 1e9-row caps; never trips)\", \
             \"exchange_ms\": {ge:.3}, \"query_ms\": {gq:.3}, \"total_ms\": {gt:.3}{gl} }},\n      \
             \"instrumented\": {{ \"config\": \"optimized + stats catalog + EXPLAIN ANALYZE on every query\", \
             \"exchange_ms\": {ie:.3}, \"query_ms\": {iq:.3}, \"total_ms\": {it:.3}{il} }},\n      \
             \"flight\": {{ \"config\": \"optimized + flight recorder + audit log\", \
             \"exchange_ms\": {fe:.3}, \"query_ms\": {fq:.3}, \"total_ms\": {ft:.3}{fl} }},\n      \
             \"incremental\": {{ \"config\": \"delta-driven maintenance (IncrementalSession) vs full re-exchange, modify churn on Yahoo.listings\", \
             \"build_ms\": {nb:.3}, \"delta_1pct_ms\": {n1:.3}, \"delta_10pct_ms\": {n10:.3}, \
             \"full_reexchange_ms\": {nf:.3}, \"edits_1pct\": {k1}, \"edits_10pct\": {k10}, \"total_ms\": {nt:.3} }},\n      \
             \"planned\": {{ \"config\": \"cost-based planner: plan_for + run_plan from raw text, cold cache vs warm cache vs legacy pre-parsed eval\", \
             \"legacy_query_ms\": {pl:.3}, \"cold_plan_query_ms\": {pc:.3}, \"cached_plan_query_ms\": {pw:.3}, \"total_ms\": {pt:.3} }},\n      \
             \"durable\": {{ \"config\": \"WAL-backed DurableSession (MemVfs) vs in-memory applies, {db} x 10% churn batches; wal_overhead_pct prices the log-commit path, publish_ms the epoch-snapshot clone; recovery at full-suffix and post-checkpoint log lengths\", \
             \"inmem_build_ms\": {dib:.3}, \"create_ms\": {dcr:.3}, \"inmem_apply_ms\": {dia:.3}, \"wal_apply_ms\": {dwa:.3}, \
             \"wal_commit_ms\": {dwc:.3}, \"publish_ms\": {dpu:.3}, \
             \"checkpoint_ms\": {dck:.3}, \"recovery_replay_ms\": {drr:.3}, \"recovery_cold_ms\": {drc:.3}, \
             \"replayed_deltas\": {drp}, \"wal_bytes\": {dwb}, \"total_ms\": {dwa:.3} }},\n      \
             \"speedup_exchange\": {sx:.3},\n      \"speedup_query\": {sq:.3},\n      \
             \"speedup_total\": {st:.3},\n      \"delta_speedup\": {ds:.3},\n      \
             \"plan_cache_hit_speedup\": {ph:.3},\n      \"wal_overhead_pct\": {wo:.3},\n      \"guard_overhead_pct\": {gp:.3},\n      \
             \"stats_overhead_pct\": {sp:.3},\n      \"flight_overhead_pct\": {fp:.3}\n    }}",
            rows = base.rows,
            be = base.exchange_ms,
            bq = base.query_ms,
            bt = total_base,
            bl = latency_json(base.latency_ns),
            oe = opt.exchange_ms,
            oq = opt.query_ms,
            ot = total_opt,
            ol = latency_json(opt.latency_ns),
            ge = guarded.exchange_ms,
            gq = guarded.query_ms,
            gt = total_guarded,
            gl = latency_json(guarded.latency_ns),
            ie = instrumented.exchange_ms,
            iq = instrumented.query_ms,
            it = total_instr,
            il = latency_json(instrumented.latency_ns),
            fe = flight.exchange_ms,
            fq = flight.query_ms,
            ft = total_flight,
            fl = latency_json(flight.latency_ns),
            nb = inc.build_ms,
            n1 = inc.delta_1pct_ms,
            n10 = inc.delta_10pct_ms,
            nf = inc.full_reexchange_ms,
            k1 = inc.edits_1pct,
            k10 = inc.edits_10pct,
            nt = inc.delta_1pct_ms + inc.delta_10pct_ms,
            pl = planned.legacy_ms,
            pc = planned.cold_ms,
            pw = planned.cached_ms,
            pt = planned.cold_ms + planned.cached_ms,
            ph = plan_cache_hit_speedup,
            db = DURABLE_BATCHES,
            dib = dur.inmem_build_ms,
            dcr = dur.create_ms,
            dia = dur.inmem_apply_ms,
            dwa = dur.wal_apply_ms,
            dwc = dur.wal_commit_ms,
            dpu = dur.publish_ms,
            dck = dur.checkpoint_ms,
            drr = dur.recovery_replay_ms,
            drc = dur.recovery_cold_ms,
            drp = dur.replayed,
            dwb = dur.wal_bytes,
            wo = wal_overhead_pct,
            ds = delta_speedup,
            sx = base.exchange_ms / opt.exchange_ms,
            sq = base.query_ms / opt.query_ms,
            st = total_base / total_opt,
            gp = guard_overhead_pct,
            sp = stats_overhead_pct,
            fp = flight_overhead_pct,
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"PR4 hash-join + parallel exchange\",\n  \
         \"command\": \"cargo run --release -p dtr-bench --bin bench_pr4\",\n  \
         \"workload\": \"portal exchange (16 mappings, 5 sources) + {nq} MXQL queries x {qr} passes\",\n  \
         \"reps_per_config\": {reps},\n  \"query_reps\": {qr},\n  \"results\": [\n{body}\n  ]\n}}\n",
        nq = QUERIES.len(),
        qr = QUERY_REPS,
        body = entries.join(",\n"),
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_pr4: io error: write report {out}: {e}");
        std::process::exit(4);
    }
    println!("bench_pr4: wrote {out}");
}
