//! Portal benchmark: end-to-end and per-layer numbers for three workloads.
//!
//! ```text
//! perfbench --workload <portal-query|portal-churn|portal-exchange>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload with one closed-loop client: each
//! request waits for its reply. Inputs come from `--seed`. `--trace 0`
//! measures end to end with tracing off; `--trace 1` records spans
//! around the benchmark's calls into each layer on every other step and
//! reports per-layer numbers, plus the tracing overhead against the
//! untraced steps. Outputs are checked outside the timed operations. The
//! last line of standard output is a JSON summary; the full result (and,
//! when traced, the spans) is written under `out/` in this package.
//!
//! Run from the repository root:
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload portal-query --seed 1 --seconds 15 --trace 0`

mod churn;
mod exchange;
mod host;
mod query;
mod report;
mod requests;
mod stats;
mod trace;
mod vfs;

use report::Report;
use serde_json::json;
use std::path::PathBuf;
use std::process::{exit, Command};
use trace::{Inject, Tracer};

const USAGE: &str = "usage: perfbench --workload <portal-query|portal-churn|portal-exchange> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Observability tiers of the dtr crates; each must stay off.
const OBS_VARS: &[&str] = &[
    "DTR_PROFILE",
    "DTR_JOURNAL",
    "DTR_STATS",
    "DTR_FLIGHT",
    "DTR_AUDIT",
];

/// Set-ups done before the measured stream; the last one is the one
/// measured, and a workload's remaining set-ups run after the stream,
/// once its state is dropped. Set-up samples taken half a minute apart
/// see different moments of a shared host, which steadies `setup_s`.
pub const EARLY_SETUPS: usize = 2;

/// Settings shared by every workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub inject: Option<Inject>,
}

impl Run {
    /// Operations a run does: `--seconds` at the workload's rate on the
    /// nominal host, at least `min`, and beyond it in whole `unit`s. The
    /// count does not depend on the clock, so every run of a seed does the
    /// same work on a fast host and a slow one.
    pub fn work(&self, min: usize, per_second: f64, unit: usize) -> usize {
        let wanted = (self.seconds * per_second).ceil() as usize;
        min + wanted.saturating_sub(min).div_ceil(unit) * unit
    }
}

#[derive(Clone, Copy)]
enum Workload {
    Query,
    Churn,
    Exchange,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "portal-query" => Some(Workload::Query),
            "portal-churn" => Some(Workload::Churn),
            "portal-exchange" => Some(Workload::Exchange),
            _ => None,
        }
    }

    fn run(self, run: &Run) -> Report {
        match self {
            Workload::Query => query::run(&query::FULL, run),
            Workload::Churn => churn::run(&churn::FULL, run),
            Workload::Exchange => exchange::run(&exchange::FULL, run),
        }
    }
}

fn parse_args() -> Result<(Workload, Run), String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let run = Run {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        inject: None,
    };
    Ok((workload.ok_or("--workload is required")?, run))
}

/// Output of a command, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans as JSON lines.
pub fn save_spans(tr: &Tracer, run: &Run, workload: &str) {
    if !run.traced || run.inject.is_some() {
        return;
    }
    let path = out_dir().join(format!("{workload}-seed{}.spans.jsonl", run.seed));
    if let Err(e) =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, tr.to_jsonl()))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() {
    let (workload, run) = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2);
    });
    if let Some(var) = OBS_VARS.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: {var} is set; every dtr observability tier must be off");
        exit(2);
    }
    let manifest = env!("CARGO_MANIFEST_DIR");
    let meta = json!({
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.traced,
        "commit": command_line("git", &["-C", manifest, "rev-parse", "HEAD"]),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "rustc": command_line("rustc", &["--version"]),
    });
    let report = workload.run(&run);
    println!("perfbench {} {meta}", report.workload);
    print!("{}", report.table(run.traced));
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        report.workload,
        run.seed,
        u8::from(run.traced)
    ));
    let saved = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, report.to_json(meta).to_string()));
    if let Err(e) = saved {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{}", report.summary_line(run.traced));
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{Metric, END_TO_END, PER_LAYER};
    use std::sync::Mutex;
    use std::time::Duration;

    /// The plan cache's cardinality version is process-global, and a churn
    /// run bumps it; workload tests run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    const TINY_QUERY: query::Params = query::Params {
        scale: 20,
        setups: 1,
        min_requests: 144,
    };
    const TINY_EXCHANGE: exchange::Params = exchange::Params {
        scale: 20,
        setups: 1,
        min_iterations: 20,
    };
    const TINY_CHURN: churn::Params = churn::Params {
        scale: 20,
        setups: 1,
        min_batches: 70,
    };

    fn traced(inject: Option<Inject>) -> Run {
        Run {
            seed: 3,
            seconds: 0.0,
            traced: true,
            inject,
        }
    }

    fn value(ms: &[Metric], name: &str) -> f64 {
        ms.iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .value
    }

    /// A delay added around one layer's calls must show in that layer's
    /// metric and in the end-to-end metric predicted for it, and nowhere
    /// else.
    fn assert_attributed(
        base: &Report,
        slow: &Report,
        delay_ms: f64,
        layer: &str,
        e2e: &str,
        untouched_e2e: &[&str],
    ) {
        let d = |ms: fn(&Report) -> &Vec<Metric>, name: &str| {
            value(ms(slow), name) - value(ms(base), name)
        };
        let moved = d(|r| &r.layers, layer);
        assert!(
            moved > 0.8 * delay_ms && moved < 1.5 * delay_ms,
            "{layer} moved {moved} ms for a {delay_ms} ms delay"
        );
        // End-to-end times are scaled by the host's slowness (see `host`),
        // which a sleep does not share.
        let slowness = value(&slow.detail, "host_kernel_ms") / host::NOMINAL_KERNEL_MS;
        let e2e_moved = d(|r| &r.detail, e2e);
        assert!(
            e2e_moved > 0.5 * delay_ms / slowness,
            "{e2e} moved {e2e_moved} ms for a {delay_ms} ms delay in {layer}"
        );
        for name in untouched_e2e {
            let m = d(|r| &r.detail, name);
            assert!(
                m.abs() < 0.25 * delay_ms,
                "{name} moved {m} ms with the delay in {layer}"
            );
        }
        for (name, unit) in PER_LAYER {
            // Layers timed only once or twice (set-up) carry their own noise
            // and cannot see a per-request delay.
            let few = |r: &Report| r.layers.iter().any(|m| m.name == *name && m.samples < 5);
            if *name == layer || *unit != "ms" || few(base) || few(slow) {
                continue;
            }
            let m = d(|r| &r.layers, name);
            assert!(
                m.abs() < 0.25 * delay_ms,
                "{name} moved {m} ms with the delay in {layer}"
            );
        }
        let u = d(|r| &r.layers, "unattributed_pct");
        assert!(u < 5.0, "unattributed share rose by {u} points");
    }

    #[test]
    fn query_delay_lands_in_its_layer_only() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let delay = Duration::from_millis(10);
        let base = query::run(&TINY_QUERY, &traced(None));
        let slow = query::run(
            &TINY_QUERY,
            &traced(Some(Inject {
                span: "query.eval",
                delay,
            })),
        );
        assert!(base.correct() && slow.correct());
        assert_attributed(
            &base,
            &slow,
            10.0,
            "query.eval_ms",
            "plain_p50_ms",
            &["translated_p50_ms"],
        );
    }

    #[test]
    fn exchange_delay_lands_in_its_layer_only() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let delay = Duration::from_millis(10);
        let base = exchange::run(&TINY_EXCHANGE, &traced(None));
        let slow = exchange::run(
            &TINY_EXCHANGE,
            &traced(Some(Inject {
                span: "xml.write",
                delay,
            })),
        );
        assert!(base.correct() && slow.correct());
        assert_attributed(
            &base,
            &slow,
            10.0,
            "xml.write_ms",
            "materialize_p50_ms",
            &["provenance_p50_ms"],
        );
    }

    #[test]
    fn churn_runs_clean_and_reports_every_metric() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let r = churn::run(&TINY_CHURN, &traced(None));
        assert!(r.correct(), "{}", r.table(true));
        assert_eq!(r.layers.len(), PER_LAYER.len());
        assert_eq!(r.gate.len(), END_TO_END.len());
        assert!(value(&r.layers, "core.checkpoint_ms") > 0.0);
        assert!(value(&r.layers, "core.replayed_deltas") > 0.0);
        assert!(value(&r.detail, "write_amp") > 1.0);
    }

    #[test]
    fn benchmark_json_names_the_metrics_this_program_prints() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("string")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }
}
