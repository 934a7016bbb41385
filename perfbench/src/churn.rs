//! `portal-churn`: the write path, with reads beside the writes.
//!
//! A `DurableSession` with default options (auto-checkpoint every 64
//! batches) commits one ≈1 % churn batch per step over a counting
//! in-memory store; each step then runs a few template queries on the
//! freshly pinned head epoch. The stream ends with a crash: the session
//! is reopened several times from the synced bytes alone.

use crate::exchange::{attach_exchange, probe_exchange};
use crate::query::{multiset, planned};
use crate::report::{gate, host_metrics, layers, timeline, Metric, Report, Samples};
use crate::requests::RequestStream;
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::vfs::CountingVfs;
use crate::{Run, EARLY_SETUPS};
use dtr_core::store::{DurableOptions, DurableSession};
use dtr_core::tagged::{MappingSetting, TaggedInstance};
use dtr_mapping::delta::SourceDelta;
use dtr_mapping::durable::{Vfs, Wal};
use dtr_model::instance::{Instance, Value};
use dtr_model::value::AtomicValue;
use dtr_portal::scenario::{build, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

pub struct Params {
    pub scale: usize,
    /// Set-ups timed for `setup_s` (see `EARLY_SETUPS`).
    pub setups: usize,
    /// Batches committed at least: three checkpoint cycles and a quarter,
    /// so the stream holds three checkpoints and recovery replays a suffix.
    pub min_batches: usize,
}

pub const FULL: Params = Params {
    scale: 400,
    setups: 5,
    min_batches: 208,
};

/// Batches per second of `--seconds`, reads included, on the nominal host
/// (see `host`).
const BATCHES_PER_SECOND: f64 = 8.0;

/// Template queries on each freshly pinned head epoch.
const READS_PER_STEP: usize = 6;

/// Reopenings of the one crash image; `recovery_s` is their median.
const RECOVERIES: usize = 3;

/// The listing set of each source, in setting order.
const LISTING_SETS: [(&str, &str); 5] = [
    ("Yahoo", "listings"),
    ("NK", "properties"),
    ("WM", "homes"),
    ("WF", "inventory"),
    ("HS", "houses"),
];

/// Rewrites the first atomic field of a listing that `f` accepts.
fn rewrite_first(v: &mut Value, f: impl Fn(&AtomicValue) -> Option<AtomicValue>) {
    if let Value::Record(fields) = v {
        for (_, field) in fields.iter_mut() {
            if let Value::Atomic(a) = field {
                if let Some(new) = f(a) {
                    *a = new;
                    return;
                }
            }
        }
    }
}

/// One churn batch of about 1 % of the listings: 70 % modifies (the price
/// moves), 15 % inserts (a copy of a listing under a fresh id) and 15 %
/// deletes, spread over all five sources.
fn churn_delta(rng: &mut StdRng, sources: &[Instance], edits: usize, tag: &str) -> SourceDelta {
    #[derive(Clone, Copy, PartialEq)]
    enum Op {
        Modify,
        Insert,
        Delete,
    }
    let mut per_source = vec![Vec::new(); LISTING_SETS.len()];
    for _ in 0..edits {
        let s = rng.gen_range(0..LISTING_SETS.len());
        let op = match rng.gen_range(0..100) {
            0..=69 => Op::Modify,
            70..=84 => Op::Insert,
            _ => Op::Delete,
        };
        per_source[s].push(op);
    }
    let mut delta = SourceDelta::new();
    for (s, ops) in per_source.iter().enumerate() {
        let (root, set) = LISTING_SETS[s];
        let inst = &sources[s];
        let members = inst
            .root(root)
            .and_then(|r| inst.child_by_label(r, set))
            .and_then(|set| inst.set_members(set))
            .expect("every source has its listing set")
            .to_vec();
        let path = format!("{root}.{set}");
        // Modifies and deletes on distinct members, highest index first,
        // so no edit shifts a later edit's index.
        let mut idx: Vec<usize> = Vec::new();
        for _ in ops.iter().filter(|o| **o != Op::Insert) {
            let mut i = rng.gen_range(0..members.len());
            while idx.contains(&i) {
                i = (i + 1) % members.len();
            }
            idx.push(i);
        }
        let mut edits: Vec<(usize, Op)> = idx
            .into_iter()
            .zip(ops.iter().copied().filter(|o| *o != Op::Insert))
            .collect();
        edits.sort_by_key(|e| std::cmp::Reverse(e.0));
        for (i, op) in edits {
            delta = match op {
                Op::Delete => delta.delete(&path, i),
                _ => {
                    let mut v = inst.to_value(members[i]);
                    let bump = rng.gen_range(-50_000i64..50_000);
                    rewrite_first(&mut v, |a| match a {
                        AtomicValue::Int(p) => Some(AtomicValue::Int((p + bump).max(10_000))),
                        _ => None,
                    });
                    delta.modify(&path, i, v)
                }
            };
        }
        for (k, _) in ops.iter().filter(|o| **o == Op::Insert).enumerate() {
            let mut v = inst.to_value(members[rng.gen_range(0..members.len())]);
            let id = format!("C{tag}-{s}-{k}");
            rewrite_first(&mut v, |a| match a {
                AtomicValue::Str(_) => Some(AtomicValue::Str(id.clone())),
                _ => None,
            });
            delta = delta.insert(&path, v);
        }
    }
    delta
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
    let mut report = Report::new("portal-churn");
    let set_up = || {
        tr.begin_setup();
        let vfs = Arc::new(CountingVfs::new());
        let probe = probe_exchange(&tr, cfg);
        let (session, ms, root) = tr.op("op.setup", || {
            let sc = tr.span("portal.generate", || build(cfg));
            tr.span("core.create", || {
                DurableSession::create(
                    sc.setting,
                    sc.sources,
                    None,
                    vfs.clone(),
                    "wal",
                    DurableOptions::default(),
                )
            })
        });
        attach_exchange(&tr, root, "core.create", probe);
        let session = session.expect("the durable session creates");
        ((session, vfs), ms)
    };
    let mut setup = Samples::new(p.setups);
    let mut state = None;
    for _ in 0..p.setups.min(EARLY_SETUPS) {
        drop(state.take());
        let (built, ms) = set_up();
        setup.push(ms, tr.last_op(), false, 0);
        state = Some(built);
    }
    let (mut durable, vfs) = state.expect("at least one set-up");

    let mut rng = StdRng::seed_from_u64(run.seed);
    let mut stream = RequestStream::new(StdRng::seed_from_u64(run.seed ^ 0x5eed), false);
    let edits_per_batch = (LISTING_SETS.len() * p.scale).div_ceil(100);
    let mut applies = Samples::new(p.min_batches);
    let mut reads = Samples::new(p.min_batches * READS_PER_STEP);
    let (mut edits, mut payload_bytes) = (0u64, 0u64);
    let (mut syncs, mut reevaluated, mut pruned, mut rows_touched) = (0u64, 0u64, 0u64, 0u64);
    let (mut wal_bytes, mut checkpoint_bytes) = (Vec::new(), Vec::new());
    let (mut plan_hits, mut plan_misses) = (0u64, 0u64);
    let stream_bytes_before = vfs.counts().bytes;
    let every = DurableOptions::default().checkpoint_every;
    // Past the minimum, whole checkpoint cycles.
    let batches = run.work(p.min_batches, BATCHES_PER_SECOND, every as usize);
    for batch in 1..=batches {
        // Trace every apply that will rotate the segment, so checkpoints
        // are measured in a traced run.
        tr.begin_step_forced((durable.batch() + 1) % every == 0);
        let delta = churn_delta(
            &mut rng,
            durable.session().sources(),
            edits_per_batch,
            &format!("{}-{batch}", run.seed),
        );
        let payload = delta.to_json().to_string().len() as u64;
        let segment = durable.wal_segment();
        let io = vfs.counts();
        let (commit0, publish0) = (durable.wal_commit_nanos(), durable.publish_nanos());
        report.attempted += 1;
        let (result, ms, root) = tr.op("op.apply", || {
            tr.span("core.apply", || durable.apply(&delta))
        });
        let td = match result {
            Ok(td) => td,
            Err(e) => {
                eprintln!("apply failed: {e}");
                report.failed += 1;
                continue;
            }
        };
        let rotated = durable.wal_segment() != segment;
        if let Some(id) = root.and(tr.latest("core.apply")) {
            if rotated {
                tr.rename(id, "core.apply_checkpoint");
            }
            tr.attach(
                id,
                "mapping.wal_commit",
                durable.wal_commit_nanos() - commit0,
                false,
            );
            tr.attach(id, "core.publish", durable.publish_nanos() - publish0, true);
        }
        applies.push(ms, tr.last_op(), root.is_some(), usize::from(rotated));
        edits += delta.edits.len() as u64;
        payload_bytes += payload;
        let after = vfs.counts();
        syncs += after.syncs - io.syncs;
        let appended = (after.bytes - io.bytes) as f64;
        if rotated {
            checkpoint_bytes.push(appended);
        } else {
            wal_bytes.push(appended);
        }
        reevaluated += td.mappings_reevaluated as u64;
        pruned += td.mappings_pruned as u64;
        rows_touched += (td.rows_added + td.rows_removed) as u64;

        // Reads on the freshly pinned head: the first one materializes it.
        let epoch = durable.pin();
        for k in 0..READS_PER_STEP {
            let req = stream.next_request();
            report.attempted += 1;
            let hits = if tr.on() && k > 0 {
                epoch.tagged().plan_cache_stats().hits
            } else {
                0
            };
            let (result, ms, root) = tr.op("op.read", || {
                let tagged = if k == 0 {
                    tr.span("core.first_read", || epoch.tagged())
                } else {
                    tr.span("core.tagged", || epoch.tagged())
                };
                planned(&tr, &tagged, &req.text, hits)
            });
            match result {
                Ok(r) => {
                    reads.push(ms, tr.last_op(), root.is_some(), req.kind());
                    if k == 0 {
                        let ok = tr
                            .span("query.legacy", || epoch.tagged().query(&req.text))
                            .map(|l| multiset(&l) == multiset(&r))
                            .unwrap_or(false);
                        report.check(
                            "planned = TaggedInstance::query on the head (as multisets)",
                            ok,
                        );
                    }
                }
                Err(e) => {
                    eprintln!("read failed: {e}: {}", req.text);
                    report.failed += 1;
                }
            }
        }
        let cache = epoch.tagged().plan_cache_stats();
        plan_hits += cache.hits;
        plan_misses += cache.misses;
    }
    let stream_bytes = vfs.counts().bytes - stream_bytes_before;

    // What the checks need from the head: its canonical bytes, its
    // order-free form and the mutated sources.
    let head = durable.pin();
    let head_bytes = head.canonical().to_string();
    let head_canon = dtr_check::laws::canon(head.tagged().target());
    let live = durable.session();
    let setting = MappingSetting::new(
        live.setting().source_schemas().to_vec(),
        live.setting().target_schema().clone(),
        live.setting().mappings().to_vec(),
    );
    let sources = live.sources().to_vec();

    // Crash: only the synced bytes survive; the live session goes with
    // the process. Reopen from them several times.
    let image = vfs.crash_image("wal").expect("the crash image reads");
    drop((head, durable, vfs));
    let mut recovery = Samples::new(RECOVERIES);
    let mut replayed = Vec::new();
    for _ in 0..RECOVERIES {
        tr.begin_step();
        let scan_ns = tr.on().then(|| {
            let t = Instant::now();
            let _ = Wal::recover(Arc::new(image.clone_files()), "wal");
            t.elapsed().as_nanos() as u64
        });
        let copy: Arc<dyn Vfs> = Arc::new(image.clone_files());
        report.attempted += 1;
        let (result, ms, root) = tr.op("op.recover", || {
            tr.span("core.recover", || {
                DurableSession::open(copy, "wal", DurableOptions::default())
            })
        });
        match result {
            Ok((reopened, rep)) => {
                recovery.push(ms, tr.last_op(), false, 0);
                replayed.push(rep.replayed as f64);
                if let (Some(id), Some(ns)) = (root.and(tr.latest("core.recover")), scan_ns) {
                    tr.attach(id, "mapping.wal_scan", ns, false);
                }
                report.check(
                    "recovered state = head epoch (canonical bytes)",
                    reopened.pin().canonical() == head_bytes,
                );
            }
            Err(e) => {
                eprintln!("recovery failed: {e}");
                report.failed += 1;
            }
        }
    }
    drop(image);
    for _ in EARLY_SETUPS..p.setups {
        setup.push(set_up().1, tr.last_op(), false, 0);
    }
    tr.host.finish();
    for s in [&mut setup, &mut applies, &mut reads, &mut recovery] {
        s.scale(&tr.host);
    }

    let apply_s: f64 = applies.ms.iter().sum::<f64>() / 1e3;
    let edits_per_s = ratio(edits as f64, apply_s);
    // Gate first: it reads the peak memory, which the full re-exchange
    // below must not set.
    let gated = gate(&setup, &applies, &reads, edits_per_s);
    let full = setting.and_then(|s| TaggedInstance::exchange(s, sources));
    report.check(
        "head epoch = full re-exchange of the mutated sources",
        full.is_ok_and(|f| dtr_check::laws::canon(f.target()) == head_canon),
    );
    report.set_end_to_end(
        gated,
        [
            Metric::median("query_p50_ms", "ms", &reads.ms),
            Metric::pct("query_p99_ms", &reads.ms, 99.0),
            Metric::median("apply_p50_ms", "ms", &applies.ms),
            Metric::pct("apply_p90_ms", &applies.ms, 90.0),
            Metric::new("edits_per_s", "1/s", edits_per_s, applies.ms.len()).note(format!(
                "{edits} edits, {} checkpoints",
                checkpoint_bytes.len()
            )),
            Metric::new(
                "recovery_s",
                "s",
                median(&recovery.ms) / 1e3,
                recovery.ms.len(),
            ),
            Metric::new(
                "write_amp",
                "ratio",
                ratio(stream_bytes as f64, payload_bytes as f64),
                applies.ms.len(),
            )
            .note("bytes appended over delta-payload bytes"),
        ]
        .into_iter()
        .chain(host_metrics(&tr.host, &applies))
        .collect(),
    );
    if run.traced {
        let n = applies.ms.len();
        let extra = vec![
            Metric::new(
                "query.plan_cache_hit_ratio",
                "ratio",
                ratio(plan_hits as f64, (plan_hits + plan_misses) as f64),
                (plan_hits + plan_misses) as usize,
            ),
            Metric::median("core.replayed_deltas", "count", &replayed),
            Metric::new(
                "mapping.syncs_per_batch",
                "count",
                ratio(syncs as f64, n as f64),
                n,
            ),
            Metric::median("mapping.wal_bytes_per_batch", "bytes", &wal_bytes),
            Metric::median("mapping.checkpoint_bytes", "bytes", &checkpoint_bytes),
            Metric::new(
                "mapping.reevaluated_ratio",
                "ratio",
                ratio(reevaluated as f64, (reevaluated + pruned) as f64),
                n,
            ),
            Metric::new(
                "mapping.rows_touched_per_edit",
                "count",
                ratio(rows_touched as f64, edits as f64),
                n,
            ),
        ];
        report.layers = layers(&tr, extra, applies.overhead_pct());
    }
    report.timeline = timeline(&tr.host, &applies);
    crate::save_spans(&tr, run, report.workload);
    report
}
