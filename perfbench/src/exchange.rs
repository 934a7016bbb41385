//! `portal-exchange`: the §8 debugging loop.
//!
//! Each iteration materializes the portal from freshly generated sources
//! (exchange plus PNF-annotated XML) and then asks a few where / what /
//! why provenance requests about sampled target values. Generation stays
//! outside the timed operation.

use crate::report::{gate, host_metrics, layers, timeline, Metric, Report, Samples};
use crate::stats::ratio;
use crate::trace::{SpanId, Tracer};
use crate::{Run, EARLY_SETUPS};
use dtr_core::provenance::{provenance_of, ProvenanceKind};
use dtr_core::tagged::{MxqlError, TaggedInstance};
use dtr_mapping::exchange::{execute_mappings_with, ExchangeOptions, ExchangeReport};
use dtr_portal::scenario::{build, Scenario, ScenarioConfig};
use dtr_query::eval::Source;
use dtr_query::functions::FunctionRegistry;
use dtr_xml::writer::{instance_to_xml, WriteOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

pub struct Params {
    pub scale: usize,
    /// Set-ups timed for `setup_s` (see `EARLY_SETUPS`).
    pub setups: usize,
    /// Materializations at least, whatever `--seconds` says: enough for a
    /// p75 with ten samples beyond it.
    pub min_iterations: usize,
}

pub const FULL: Params = Params {
    scale: 1000,
    setups: 5,
    min_iterations: 40,
};

/// Materializations per second of `--seconds`, provenance included, on
/// the nominal host (see `host`).
const ITERATIONS_PER_SECOND: f64 = 1.6;

/// Share of listings the sources have in common, so PNF merges real work.
const OVERLAP: f64 = 0.2;

/// Provenance requests after each materialization: every (path, kind)
/// pair once.
const PROVENANCE_PER_ITERATION: usize = PROVENANCE_PATHS.len() * KINDS.len();

/// Target elements whose values provenance requests ask about.
const PROVENANCE_PATHS: &[&str] = &[
    "/Portal/houses/price",
    "/Portal/houses/city",
    "/Portal/houses/neighborhood",
    "/Portal/agents/phone",
];

/// Provenance kinds in the timed mix. Why-provenance is left out: on the
/// portal it returns no facts for house values (its witness query selects
/// filler fields the generated listings never populate), which would fail
/// every such request; `why_empty_pct` reports that defect instead.
const KINDS: [ProvenanceKind; 2] = [ProvenanceKind::Where, ProvenanceKind::What];

/// Share (%) of sampled house values whose why-provenance has no facts.
fn why_empty_pct(tagged: &TaggedInstance, rng: &mut StdRng) -> (f64, usize) {
    let values = tagged.target_values("/Portal/houses/price");
    let mut asked = 0;
    let mut empty = 0;
    for _ in 0..20.min(values.len()) {
        let node = values[rng.gen_range(0..values.len())].0;
        let Some(mapping) = tagged.mappings_of(node).first() else {
            continue;
        };
        asked += 1;
        let facts = provenance_of(tagged, ProvenanceKind::Why, mapping, node)
            .map_or(0, |p| p.facts.rows.len());
        empty += usize::from(facts == 0);
    }
    (100.0 * ratio(empty as f64, asked as f64), asked)
}

/// The slowest mapping's wall time (ms), the share of bindings PNF merged
/// into an existing member, and the share of annotation writes suppressed.
pub fn exchange_counters(r: &ExchangeReport) -> (f64, f64, f64) {
    let slowest = r.per_mapping.iter().map(|m| m.wall_ns).max().unwrap_or(0) as f64 / 1e6;
    let t = r.totals();
    (
        slowest,
        ratio(t.rows_merged as f64, t.bindings as f64),
        ratio(
            t.annotations_suppressed as f64,
            (t.annotations_written + t.annotations_suppressed) as f64,
        ),
    )
}

/// Times `execute_mappings_with` alone on the inputs `cfg` generates, in
/// ns. Traced steps run it just before the operation whose `core.exchange`
/// span it is attached to (see [`attach_exchange`]), on the same heap
/// state, so that span's self time is the tagging around the mappings.
pub fn probe_exchange(tr: &Tracer, cfg: ScenarioConfig) -> Option<u64> {
    if !tr.on() {
        return None;
    }
    let sc = build(cfg);
    let mut sources = sc.sources;
    for (inst, schema) in sources.iter_mut().zip(sc.setting.source_schemas()) {
        inst.annotate_elements(schema)
            .expect("generated sources annotate");
    }
    let views: Vec<Source<'_>> = sc
        .setting
        .source_schemas()
        .iter()
        .zip(&sources)
        .map(|(schema, instance)| Source { schema, instance })
        .collect();
    let funcs = FunctionRegistry::with_builtins();
    let t = Instant::now();
    let out = execute_mappings_with(
        &views,
        sc.setting.target_schema(),
        sc.setting.mappings(),
        &funcs,
        &ExchangeOptions::default(),
    );
    let ns = t.elapsed().as_nanos() as u64;
    out.is_ok().then_some(ns)
}

/// Attaches a probed `mapping.exchange` duration under the span `parent`
/// of the operation just traced (`root` is its root span, if traced).
pub fn attach_exchange(tr: &Tracer, root: Option<SpanId>, parent: &str, probe: Option<u64>) {
    if let (Some(_), Some(ns)) = (root, probe) {
        if let Some(id) = tr.latest(parent) {
            tr.attach(id, "mapping.exchange", ns, false);
        }
    }
}

fn materialize(tr: &Tracer, sc: Scenario) -> Result<(TaggedInstance, String), MxqlError> {
    let tagged = tr.span("core.exchange", || {
        TaggedInstance::exchange_with_options(sc.setting, sc.sources, &ExchangeOptions::default())
    })?;
    let doc = tr.span("xml.write", || {
        instance_to_xml(tagged.target(), WriteOptions::annotated_pnf())
    });
    Ok((tagged, doc))
}

pub fn run(p: &Params, run: &Run) -> Report {
    dtr_obs::stats::reset();
    let tr = Tracer::new(run.traced, run.inject);
    let cfg = ScenarioConfig {
        listings_per_source: p.scale,
        overlap: OVERLAP,
        seed: run.seed,
        ..Default::default()
    };
    let mut report = Report::new("portal-exchange");

    // Set-up: generate and materialize once, keeping the document as the
    // reference every iteration must reproduce byte for byte.
    let set_up = || {
        tr.begin_setup();
        let probe = probe_exchange(&tr, cfg);
        let (built, ms, root) = tr.op("op.setup", || {
            let sc = tr.span("portal.generate", || build(cfg));
            materialize(&tr, sc)
        });
        attach_exchange(&tr, root, "core.exchange", probe);
        (built.expect("the portal materializes"), ms)
    };
    let ((tagged, reference), ms) = set_up();
    let mut setup = Samples::new(p.setups);
    setup.push(ms, tr.last_op(), false, 0);
    let why_empty = why_empty_pct(&tagged, &mut StdRng::seed_from_u64(run.seed));
    let plain = instance_to_xml(tagged.target(), WriteOptions::plain()).len();
    let overhead_pct = 100.0 * (reference.len() as f64 - plain as f64) / plain as f64;
    drop(tagged);
    for _ in 1..p.setups.min(EARLY_SETUPS) {
        setup.push(set_up().1, tr.last_op(), false, 0);
    }

    let mut rng = StdRng::seed_from_u64(run.seed);
    let mut ops = Samples::new(p.min_iterations);
    let mut reads = Samples::new(p.min_iterations * PROVENANCE_PER_ITERATION);
    let (mut slowest, mut merge, mut suppressed) = (Vec::new(), 0.0, 0.0);
    let mut iterations = 0;
    while iterations < run.work(p.min_iterations, ITERATIONS_PER_SECOND, 1) {
        iterations += 1;
        tr.begin_step();
        let probe = probe_exchange(&tr, cfg);
        let sc = tr.span("portal.generate", || build(cfg));
        report.attempted += 1;
        let (result, ms, root) = tr.op("op.materialize", || materialize(&tr, sc));
        attach_exchange(&tr, root, "core.exchange", probe);
        let (tagged, doc) = match result {
            Ok(x) => x,
            Err(e) => {
                eprintln!("materialization failed: {e}");
                report.failed += 1;
                continue;
            }
        };
        ops.push(ms, tr.last_op(), root.is_some(), 0);
        report.check("identical document bytes every iteration", doc == reference);
        let (s, m, a) = exchange_counters(tagged.report());
        slowest.push(s);
        (merge, suppressed) = (m, a);

        // Every (path, kind) pair in turn, so the mix is the same each run.
        for k in 0..PROVENANCE_PER_ITERATION {
            let path = PROVENANCE_PATHS[k % PROVENANCE_PATHS.len()];
            let kind = KINDS[(k / PROVENANCE_PATHS.len()) % KINDS.len()];
            let values = tagged.target_values(path);
            if values.is_empty() {
                continue;
            }
            let node = values[rng.gen_range(0..values.len())].0;
            let maps = tagged.mappings_of(node);
            if maps.is_empty() {
                continue;
            }
            let mapping = maps[rng.gen_range(0..maps.len())].clone();
            report.attempted += 1;
            let (result, ms, root) = tr.op("op.provenance", || {
                tr.span("core.provenance", || {
                    provenance_of(&tagged, kind, &mapping, node)
                })
            });
            match result {
                Ok(prov) => {
                    reads.push(ms, tr.last_op(), root.is_some(), k);
                    report.check("provenance is non-empty", !prov.facts.rows.is_empty());
                }
                Err(e) => {
                    eprintln!("provenance failed: {e}");
                    report.failed += 1;
                }
            }
        }
        tr.span("model.drop", || drop(tagged));
    }

    for _ in EARLY_SETUPS..p.setups {
        setup.push(set_up().1, tr.last_op(), false, 0);
    }
    tr.host.finish();
    for s in [&mut setup, &mut ops, &mut reads] {
        s.scale(&tr.host);
    }
    let materialize_s: f64 = ops.ms.iter().sum::<f64>() / 1e3;
    report.set_end_to_end(
        gate(
            &setup,
            &ops,
            &reads,
            ratio(ops.ms.len() as f64, materialize_s),
        ),
        [
            Metric::median("materialize_p50_ms", "ms", &ops.ms),
            Metric::median("provenance_p50_ms", "ms", &reads.ms),
            Metric::new("annotation_overhead_pct", "%", overhead_pct, 1)
                .note("PNF-annotated XML bytes over plain"),
            Metric::new("why_empty_pct", "%", why_empty.0, why_empty.1)
                .note("known defect: why-provenance without facts; outside the timed mix"),
        ]
        .into_iter()
        .chain(host_metrics(&tr.host, &ops))
        .collect(),
    );
    if run.traced {
        let extra = vec![
            Metric::median("mapping.slowest_mapping_ms", "ms", &slowest),
            Metric::new("mapping.merge_ratio", "ratio", merge, 1),
            Metric::new(
                "mapping.annotation_suppressed_ratio",
                "ratio",
                suppressed,
                1,
            ),
            Metric::new("xml.annotated_bytes", "bytes", reference.len() as f64, 1),
        ];
        report.layers = layers(&tr, extra, ops.overhead_pct());
    }
    report.timeline = timeline(&tr.host, &ops);
    crate::save_spans(&tr, run, report.workload);
    report
}
