//! Metric names, units, and the printed and saved result of one run.

use crate::host::{HostSpeed, NOMINAL_KERNEL_MS};
use crate::stats::{median, percentile, ratio, tail_pct};
use crate::trace::{Agg, Tracer};
use serde_json::{json, Value};

/// The end-to-end metrics `BENCHMARK.json` gates on, printed by an
/// untraced run of every workload. `op` is the workload's primary
/// operation and `read` its read request (see `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics a traced run prints, on every workload; a layer
/// a workload never calls reads 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("portal.generate_ms", "ms"),
    ("metastore.encode_ms", "ms"),
    ("query.parse_ms", "ms"),
    ("query.plan_hit_ms", "ms"),
    ("query.plan_miss_ms", "ms"),
    ("query.plan_cache_hit_ratio", "ratio"),
    ("query.eval_ms", "ms"),
    ("query.legacy_ms", "ms"),
    ("query.scanned_per_row", "count"),
    ("query.probes_per_row", "count"),
    ("query.triples_tested_per_row", "count"),
    ("core.exchange_ms", "ms"),
    ("core.predicate_triples_ms", "ms"),
    ("core.translate_ms", "ms"),
    ("core.translated_branches", "count"),
    ("core.translated_eval_ms", "ms"),
    ("core.engine_apply_ms", "ms"),
    ("core.publish_ms", "ms"),
    ("core.first_read_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("core.recovery_rebuild_ms", "ms"),
    ("core.replayed_deltas", "count"),
    ("core.tag_ms", "ms"),
    ("core.provenance_ms", "ms"),
    ("mapping.wal_commit_ms", "ms"),
    ("mapping.syncs_per_batch", "count"),
    ("mapping.wal_bytes_per_batch", "bytes"),
    ("mapping.checkpoint_bytes", "bytes"),
    ("mapping.reevaluated_ratio", "ratio"),
    ("mapping.rows_touched_per_edit", "count"),
    ("mapping.wal_scan_ms", "ms"),
    ("mapping.exchange_ms", "ms"),
    ("mapping.slowest_mapping_ms", "ms"),
    ("mapping.merge_ratio", "ratio"),
    ("mapping.annotation_suppressed_ratio", "ratio"),
    ("model.drop_ms", "ms"),
    ("xml.write_ms", "ms"),
    ("xml.annotated_bytes", "bytes"),
    ("unattributed_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// Per-layer metrics read straight off the spans: the median per span.
const SPAN_LAYERS: &[(&str, &str, Agg)] = &[
    ("portal.generate_ms", "portal.generate", Agg::Total),
    ("metastore.encode_ms", "metastore.encode", Agg::Total),
    ("query.parse_ms", "query.parse", Agg::Total),
    ("query.plan_hit_ms", "query.plan_hit", Agg::Total),
    ("query.plan_miss_ms", "query.plan_miss", Agg::Total),
    ("query.eval_ms", "query.eval", Agg::Total),
    ("query.legacy_ms", "query.legacy", Agg::Total),
    ("core.exchange_ms", "core.exchange", Agg::Total),
    ("core.tag_ms", "core.exchange", Agg::SelfTime),
    (
        "core.predicate_triples_ms",
        "core.predicate_triples",
        Agg::Total,
    ),
    ("core.translate_ms", "core.translate", Agg::Total),
    (
        "core.translated_eval_ms",
        "core.translated_run",
        Agg::SelfTime,
    ),
    ("core.engine_apply_ms", "core.apply", Agg::SelfTime),
    ("core.checkpoint_ms", "core.apply_checkpoint", Agg::SelfTime),
    ("core.publish_ms", "core.publish", Agg::Total),
    ("core.first_read_ms", "core.first_read", Agg::Total),
    ("core.recovery_rebuild_ms", "core.recover", Agg::SelfTime),
    ("core.provenance_ms", "core.provenance", Agg::Total),
    ("mapping.wal_commit_ms", "mapping.wal_commit", Agg::Total),
    ("mapping.wal_scan_ms", "mapping.wal_scan", Agg::Total),
    ("mapping.exchange_ms", "mapping.exchange", Agg::Total),
    ("model.drop_ms", "model.drop", Agg::Total),
    ("xml.write_ms", "xml.write", Agg::Total),
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    /// Median of `values`, in `unit`.
    pub fn median(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        Metric::new(name, unit, median(values), values.len())
    }

    /// Fixed percentile `p` of `values`, noting how many samples lie beyond.
    pub fn pct(name: &str, values: &[f64], p: f64) -> Metric {
        let beyond = (values.len() as f64 * (1.0 - p / 100.0)).floor() as usize;
        Metric::new(name, "ms", percentile(values, p), values.len())
            .note(format!("p{p}, {beyond} beyond"))
    }

    /// The highest percentile with ten samples beyond it in every run,
    /// that is among the samples' guaranteed count (the maximum, noted,
    /// below twenty).
    pub fn tail(name: &str, s: &Samples) -> Metric {
        let n = s.ms.len();
        match tail_pct(s.guaranteed) {
            Some(p) => Metric::new(name, "ms", percentile(&s.ms, p), n).note(format!("p{p}")),
            None => Metric::new(name, "ms", percentile(&s.ms, 100.0), n)
                .note("max: fewer than 20 samples"),
        }
    }
}

/// The outcome of one run of one workload.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks, run outside timed operations.
    pub checks: Vec<(String, bool)>,
    /// `END_TO_END`, in order.
    pub gate: Vec<Metric>,
    /// The workload's end-to-end metrics by their own names.
    pub detail: Vec<Metric>,
    /// `PER_LAYER`, in order (traced runs only).
    pub layers: Vec<Metric>,
    /// Kernel samples and the primary operation's unscaled times, for the
    /// results file (see [`timeline`]).
    pub timeline: Value,
}

/// A workload's operation latencies, each flagged traced or not and keyed
/// by the kind of operation (e.g. its query template).
pub struct Samples {
    /// Latencies in ms; scaled to the nominal host once [`Samples::scale`]
    /// has run.
    pub ms: Vec<f64>,
    /// Unscaled latencies, kept by [`Samples::scale`].
    pub raw_ms: Vec<f64>,
    /// Each operation's interval, in [`HostSpeed`] seconds.
    at: Vec<(f64, f64)>,
    traced: Vec<bool>,
    kind: Vec<usize>,
    /// The fewest samples any run takes; it fixes the tail percentile, so
    /// every run of a workload reports the same one.
    guaranteed: usize,
}

impl Samples {
    pub fn new(guaranteed: usize) -> Samples {
        Samples {
            ms: Vec::new(),
            raw_ms: Vec::new(),
            at: Vec::new(),
            traced: Vec::new(),
            kind: Vec::new(),
            guaranteed,
        }
    }

    /// Adds an operation's latency; `at` is its interval (see
    /// [`Tracer::last_op`]).
    pub fn push(&mut self, ms: f64, at: (f64, f64), traced: bool, kind: usize) {
        self.ms.push(ms);
        self.at.push(at);
        self.traced.push(traced);
        self.kind.push(kind);
    }

    /// Divides every latency by the host's slowness around it, keeping
    /// the unscaled ones in `raw_ms`.
    pub fn scale(&mut self, host: &HostSpeed) {
        self.raw_ms = self.ms.clone();
        for (ms, &(t0, t1)) in self.ms.iter_mut().zip(&self.at) {
            *ms /= host.slowness(t0, t1);
        }
    }

    /// Extra time traced operations took over untraced ones of the same
    /// kind, in % of the untraced median; the median over kinds.
    pub fn overhead_pct(&self) -> f64 {
        let mut kinds = self.kind.clone();
        kinds.sort_unstable();
        kinds.dedup();
        let pick = |kind: usize, want: bool| -> Vec<f64> {
            (0..self.ms.len())
                .filter(|&i| self.kind[i] == kind && self.traced[i] == want)
                .map(|i| self.ms[i])
                .collect()
        };
        let per_kind: Vec<f64> = kinds
            .into_iter()
            .filter_map(|k| {
                let (on, off) = (median(&pick(k, true)), median(&pick(k, false)));
                (on > 0.0 && off > 0.0).then(|| 100.0 * (on / off - 1.0))
            })
            .collect();
        median(&per_kind)
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `END_TO_END` metrics from a workload's scaled samples (`setup` in
/// ms); `peak_rss_mb` is read here, so a workload calls this before checks
/// that allocate.
pub fn gate(setup: &Samples, op: &Samples, read: &Samples, ops_per_s: f64) -> Vec<Metric> {
    let out = vec![
        Metric::new("setup_s", "s", median(&setup.ms) / 1e3, setup.ms.len()),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb(), 1),
        Metric::median("op_p50_ms", "ms", &op.ms),
        Metric::tail("op_tail_ms", op),
        Metric::median("read_p50_ms", "ms", &read.ms),
        Metric::tail("read_tail_ms", read),
        Metric::new("ops_per_s", "1/s", ops_per_s, op.ms.len()),
    ];
    debug_assert!(out
        .iter()
        .map(|m| m.name.as_str())
        .eq(END_TO_END.iter().map(|e| e.0)));
    out
}

/// How the end-to-end times were scaled: the run's median kernel time and
/// the primary operation's unscaled median.
pub fn host_metrics(host: &HostSpeed, op: &Samples) -> Vec<Metric> {
    let (kernel_ms, n) = host.kernel_ms();
    vec![
        Metric::new("host_kernel_ms", "ms", kernel_ms, n).note(format!(
            "reference kernel; end-to-end times are scaled to {NOMINAL_KERNEL_MS} ms"
        )),
        Metric::median("op_p50_raw_ms", "ms", &op.raw_ms).note("op_p50_ms unscaled"),
    ]
}

/// The run's kernel samples as `[seconds, ms]` and the primary
/// operation's intervals and unscaled times as `[start, end, ms]`, so the
/// scaling can be checked from the results file.
pub fn timeline(host: &HostSpeed, op: &Samples) -> Value {
    let kernel: Vec<Value> = host
        .samples()
        .into_iter()
        .map(|(t, ms)| json!([t, ms]))
        .collect();
    let ops: Vec<Value> = op
        .at
        .iter()
        .zip(&op.raw_ms)
        .map(|(&(t0, t1), &ms)| json!([t0, t1, ms]))
        .collect();
    json!({"kernel": kernel, "op": ops})
}

/// The `PER_LAYER` metrics: span medians, the workload's own counters
/// (`extra`), the unattributed share and the tracing overhead.
pub fn layers(tr: &Tracer, extra: Vec<Metric>, overhead_pct: f64) -> Vec<Metric> {
    let mut found: Vec<Metric> = SPAN_LAYERS
        .iter()
        .map(|(metric, span, agg)| {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| n == metric)
                .map_or("ms", |u| u.1);
            Metric::median(metric, unit, &tr.durations_ms(span, *agg))
        })
        .filter(|m| m.samples > 0)
        .collect();
    found.extend(extra);
    found.push(Metric::new(
        "unattributed_pct",
        "%",
        tr.unattributed_pct(),
        tr.span_count(),
    ));
    found.push(
        Metric::new("trace_overhead_pct", "%", overhead_pct, 0)
            .note("primary op, traced vs untraced steps"),
    );
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            found
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, unit, 0.0, 0).note("not on this workload"))
        })
        .collect()
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            gate: Vec::new(),
            detail: Vec::new(),
            layers: Vec::new(),
            timeline: Value::Null,
        }
    }

    /// Sets the gated metrics (from [`gate`]) and the workload's own
    /// end-to-end metrics, which follow `setup_s`, `peak_rss_mb` and
    /// `error_rate`.
    pub fn set_end_to_end(&mut self, gate: Vec<Metric>, own: Vec<Metric>) {
        let error_rate = ratio(self.failed as f64, self.attempted as f64);
        self.detail = vec![
            gate[0].clone(),
            gate[1].clone(),
            Metric::new("error_rate", "ratio", error_rate, self.attempted as usize),
        ];
        self.detail.extend(own);
        self.gate = gate;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Marks a check; a failed check counts as a failed operation.
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 &= ok,
            None => self.checks.push((name.to_string(), ok)),
        }
    }

    fn metric_json(m: &Metric) -> Value {
        json!({"value": finite(m.value), "unit": m.unit})
    }

    /// The machine-readable last line: gate metrics untraced, per-layer
    /// metrics traced.
    pub fn summary_line(&self, traced: bool) -> String {
        let mut metrics = serde_json::Map::new();
        for m in if traced { &self.layers } else { &self.gate } {
            metrics.insert(m.name.clone(), Report::metric_json(m));
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
        .to_string()
    }

    /// The human-readable table, one metric per line.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "error_rate {error_rate} ({} failed of {} attempted)\n",
            self.failed, self.attempted
        ));
        for (name, ok) in &self.checks {
            out.push_str(&format!(
                "check {name}: {}\n",
                if *ok { "ok" } else { "FAILED" }
            ));
        }
        let sections: Vec<(&str, &Vec<Metric>)> = if traced {
            vec![("per-layer", &self.layers), ("end-to-end", &self.detail)]
        } else {
            vec![
                ("end-to-end (gate)", &self.gate),
                ("end-to-end", &self.detail),
            ]
        };
        for (title, ms) in sections {
            out.push_str(&format!("-- {title}\n"));
            for m in ms {
                out.push_str(&format!(
                    "{:<38} {:>14.4} {:<6} n={}{}\n",
                    m.name,
                    m.value,
                    m.unit,
                    m.samples,
                    if m.note.is_empty() {
                        String::new()
                    } else {
                        format!("  ({})", m.note)
                    }
                ));
            }
        }
        out
    }

    /// Everything this run measured, for the results file.
    pub fn to_json(&self, meta: Value) -> Value {
        let list = |ms: &[Metric]| -> Value {
            Value::Array(
                ms.iter()
                    .map(|m| {
                        json!({"name": m.name.as_str(), "value": finite(m.value), "unit": m.unit,
                               "samples": m.samples, "note": m.note.as_str()})
                    })
                    .collect(),
            )
        };
        let checks: Vec<Value> = self
            .checks
            .iter()
            .map(|(n, ok)| json!({"name": n.as_str(), "ok": *ok}))
            .collect();
        json!({
            "meta": meta,
            "workload": self.workload,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": Value::Array(checks),
            "gate": list(&self.gate),
            "detail": list(&self.detail),
            "layers": list(&self.layers),
            "timeline": self.timeline.clone(),
        })
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
