//! Every dtr-check law (oracle, MXQL, analyze, plan, metastore, flight,
//! incremental, epoch refresh, ...) on every seed of the committed
//! regression corpus, so the plain `cargo test` run covers the whole law
//! suite and not only the crate tests. One test in its own file: the laws
//! toggle process-global observability gates.

use dtr_check::{repro_command, run_case, GenConfig};

#[test]
fn every_law_holds_on_corpus_seeds() {
    let seeds: Vec<u64> = include_str!("../crates/check/corpus/seeds.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("corpus lines are seeds"))
        .collect();
    assert!(seeds.len() >= 16, "corpus unexpectedly small");
    let cfg = GenConfig::default();
    for seed in seeds {
        if let Err(e) = run_case(seed, &cfg) {
            panic!("seed {seed}: {e}\nreproduce with: {}", repro_command(seed));
        }
    }
}
