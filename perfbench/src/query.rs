//! `portal-query`: the read path of the paper's E7 claim.
//!
//! One closed-loop client sends seeded plain, MXQL and translated requests
//! to a portal built in set-up and waits for each reply.

use crate::exchange::{attach_exchange, exchange_counters, probe_exchange};
use crate::report::{gate, host_metrics, layers, timeline, Metric, Report, Samples};
use crate::requests::{Class, Request, RequestStream, TEMPLATES};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::{Run, EARLY_SETUPS};
use dtr_core::runner::{canonical_rows, MetaRunner};
use dtr_core::tagged::{MxqlError, TaggedInstance};
use dtr_core::translate::translate;
use dtr_mapping::exchange::ExchangeOptions;
use dtr_portal::scenario::{build, ScenarioConfig};
use dtr_query::eval::QueryResult;
use dtr_query::parser::parse_query;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

pub struct Params {
    pub scale: usize,
    /// Set-ups timed for `setup_s` (see `EARLY_SETUPS`).
    pub setups: usize,
    /// Requests sent at least, whatever `--seconds` says: enough for a p99
    /// with ten samples beyond it. Runs end on a whole request cycle.
    pub min_requests: usize,
}

/// Requests per second of `--seconds`, checks included, on the nominal
/// host (see `host`).
const REQUESTS_PER_SECOND: f64 = 100.0;

pub const FULL: Params = Params {
    scale: 400,
    setups: 5,
    min_requests: 1008,
};

/// Result rows rendered and sorted, duplicates kept.
pub fn multiset(r: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| v.value.to_string())
                .collect::<Vec<_>>()
                .join(" | ")
        })
        .collect();
    rows.sort();
    rows
}

/// Plans `text` inside the current operation, naming the span after
/// whether the plan cache hit.
pub fn planned(
    tr: &Tracer,
    tagged: &TaggedInstance,
    text: &str,
    hits_before: u64,
) -> Result<QueryResult, MxqlError> {
    let plan = tr.span("query.plan", || tagged.plan_for(text))?;
    if tr.on() {
        let hit = tagged.plan_cache_stats().hits > hits_before;
        if let Some(id) = tr.latest("query.plan") {
            tr.rename(
                id,
                if hit {
                    "query.plan_hit"
                } else {
                    "query.plan_miss"
                },
            );
        }
    }
    tr.span("query.eval", || tagged.run_plan(&plan))
}

/// What the reference path (`TaggedInstance::query`) returns for a text.
struct Expected {
    multiset: Vec<String>,
    set: Vec<String>,
}

fn expected(tr: &Tracer, tagged: &TaggedInstance, text: &str) -> Result<Expected, MxqlError> {
    let r = tr.span("query.legacy", || tagged.query(text))?;
    Ok(Expected {
        multiset: multiset(&r),
        set: canonical_rows(&r),
    })
}

fn probes(tr: &Tracer, tagged: &TaggedInstance, req: &Request, branches: &mut Vec<f64>) {
    if let Some(double) = TEMPLATES[req.template].arrow {
        if req.class == Class::Mxql {
            tr.span("core.predicate_triples", || {
                tagged.setting().predicate_triples(double)
            });
        }
    }
    if req.class == Class::Translated {
        let Some(run_span) = tr.latest("core.translated_run") else {
            return;
        };
        let Ok(q) = parse_query(&req.text) else {
            return;
        };
        let q = tagged.setting().normalize_query(&q);
        let t = Instant::now();
        if let Ok(b) = translate(&q, tagged.target().db()) {
            tr.attach(
                run_span,
                "core.translate",
                t.elapsed().as_nanos() as u64,
                false,
            );
            branches.push(b.len() as f64);
        }
    }
}

pub fn run(p: &Params, run: &Run) -> Report {
    dtr_obs::stats::reset();
    let tr = Tracer::new(run.traced, run.inject);
    let cfg = ScenarioConfig {
        listings_per_source: p.scale,
        overlap: 0.0,
        seed: run.seed,
        ..Default::default()
    };
    let set_up = || {
        tr.begin_setup();
        let probe = probe_exchange(&tr, cfg);
        let (built, ms, root) = tr.op("op.setup", || -> Result<_, MxqlError> {
            let sc = tr.span("portal.generate", || build(cfg));
            let tagged = tr.span("core.exchange", || {
                TaggedInstance::exchange_with_options(
                    sc.setting,
                    sc.sources,
                    &ExchangeOptions::default(),
                )
            })?;
            let runner = tr.span("metastore.encode", || MetaRunner::new(tagged.setting()))?;
            Ok((tagged, runner))
        });
        attach_exchange(&tr, root, "core.exchange", probe);
        (built.expect("the portal builds"), ms)
    };
    let mut setup = Samples::new(p.setups);
    let mut portal = None;
    for _ in 0..p.setups.min(EARLY_SETUPS) {
        // Drop the previous portal first, so peak memory is one portal's.
        drop(portal.take());
        let (built, ms) = set_up();
        setup.push(ms, tr.last_op(), false, 0);
        portal = Some(built);
    }
    let (tagged, runner) = portal.expect("at least one set-up");

    let mut report = Report::new("portal-query");
    let mut stream = RequestStream::new(StdRng::seed_from_u64(run.seed), true);
    let mut memo: HashMap<String, Expected> = HashMap::new();
    // Runs take whole cycles, a third of each in every class.
    let cycle = stream.cycle_len();
    let min_requests = p.min_requests.div_ceil(cycle) * cycle;
    let requests = run.work(min_requests, REQUESTS_PER_SECOND, cycle) as u64;
    let mut all = Samples::new(min_requests);
    // The gated read: direct MXQL requests, the paper's E7 number.
    let mut mxql = Samples::new(min_requests / 3);
    let mut by_class: HashMap<&str, Samples> = HashMap::new();
    let (mut rows, mut scanned, mut hash_probes) = (0u64, 0u64, 0u64);
    let (mut mxql_rows, mut triples) = (0u64, 0u64);
    let mut branches = Vec::new();
    while report.attempted < requests {
        tr.begin_step();
        let req = stream.next_request();
        report.attempted += 1;
        let hits = if tr.on() {
            tagged.plan_cache_stats().hits
        } else {
            0
        };
        let (result, ms, root) = tr.op("op.request", || match req.class {
            Class::Translated => {
                let q = tr.span("query.parse", || parse_query(&req.text))?;
                tr.span("core.translated_run", || runner.run(&tagged, &q))
            }
            Class::Plain | Class::Mxql => planned(&tr, &tagged, &req.text, hits),
        });
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("request failed: {e}: {}", req.text);
                report.failed += 1;
                continue;
            }
        };
        if root.is_some() {
            probes(&tr, &tagged, &req, &mut branches);
        }
        let at = tr.last_op();
        all.push(ms, at, root.is_some(), req.kind());
        by_class
            .entry(req.class.name())
            .or_insert_with(|| Samples::new(0))
            .push(ms, at, root.is_some(), req.kind());
        rows += r.rows.len() as u64;
        scanned += r.stats.tuples_scanned;
        hash_probes += r.stats.hash_probes;
        if req.class == Class::Mxql {
            mxql.push(ms, at, root.is_some(), req.kind());
            mxql_rows += r.rows.len() as u64;
            triples += r.stats.predicate_triples_tested;
        }

        // Output check against the reference path, outside the timed op;
        // hot texts are checked against one remembered answer.
        let mut fresh = None;
        let exp = match memo.get(&req.text) {
            Some(e) => e,
            None => match expected(&tr, &tagged, &req.text) {
                Ok(e) => fresh.insert(e),
                Err(e) => {
                    eprintln!("reference query failed: {e}: {}", req.text);
                    report.check("reference path answers", false);
                    continue;
                }
            },
        };
        match req.class {
            Class::Translated => report.check(
                "translated = direct (as sets)",
                canonical_rows(&r) == exp.set,
            ),
            _ => report.check(
                "planned = TaggedInstance::query (as multisets)",
                multiset(&r) == exp.multiset,
            ),
        }
        if let (true, Some(e)) = (req.hot, fresh) {
            memo.insert(req.text, e);
        }
    }

    let cache = tagged.plan_cache_stats();
    let (slowest, merge, suppressed) = exchange_counters(tagged.report());
    drop((tagged, runner, memo));
    for _ in EARLY_SETUPS..p.setups {
        setup.push(set_up().1, tr.last_op(), false, 0);
    }
    tr.host.finish();
    for s in [&mut setup, &mut all, &mut mxql]
        .into_iter()
        .chain(by_class.values_mut())
    {
        s.scale(&tr.host);
    }

    let total_s: f64 = all.ms.iter().sum::<f64>() / 1e3;
    let requests_per_s = ratio(all.ms.len() as f64, total_s);
    let class_p50 = |c: Class| {
        let v = by_class.get(c.name()).map_or(&[][..], |s| &s.ms[..]);
        Metric::median(&format!("{}_p50_ms", c.name()), "ms", v)
    };
    report.set_end_to_end(
        gate(&setup, &all, &mxql, requests_per_s),
        [
            Metric::median("query_p50_ms", "ms", &all.ms),
            Metric::pct("query_p99_ms", &all.ms, 99.0),
            class_p50(Class::Plain),
            class_p50(Class::Mxql),
            class_p50(Class::Translated),
        ]
        .into_iter()
        .chain(host_metrics(&tr.host, &all))
        .collect(),
    );
    if run.traced {
        let extra = vec![
            Metric::new(
                "query.plan_cache_hit_ratio",
                "ratio",
                ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
                (cache.hits + cache.misses) as usize,
            ),
            Metric::new(
                "query.scanned_per_row",
                "count",
                ratio(scanned as f64, rows as f64),
                all.ms.len(),
            ),
            Metric::new(
                "query.probes_per_row",
                "count",
                ratio(hash_probes as f64, rows as f64),
                all.ms.len(),
            ),
            Metric::new(
                "query.triples_tested_per_row",
                "count",
                ratio(triples as f64, mxql_rows as f64),
                mxql.ms.len(),
            ),
            Metric::new(
                "core.translated_branches",
                "count",
                median(&branches),
                branches.len(),
            ),
            Metric::new("mapping.slowest_mapping_ms", "ms", slowest, 1),
            Metric::new("mapping.merge_ratio", "ratio", merge, 1),
            Metric::new(
                "mapping.annotation_suppressed_ratio",
                "ratio",
                suppressed,
                1,
            ),
        ];
        report.layers = layers(&tr, extra, all.overhead_pct());
    }
    report.timeline = timeline(&tr.host, &all);
    crate::save_spans(&tr, run, report.workload);
    report
}
