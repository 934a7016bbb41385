//! # dtr-check — conformance harness
//!
//! Differential and metamorphic testing for the whole pipeline: random
//! *nested* scenarios (schemas mixing Rcd/Set/Choice per Definition 4.1,
//! conforming instances, well-formed queries, GLAV mappings) are pushed
//! through every subsystem and checked against
//!
//! * a [naive reference oracle](oracle) for query evaluation (differential
//!   testing, including the pushdown ablation and the §7.3 translation);
//! * [metamorphic laws](laws) lifted from the paper's theorems: PNF
//!   idempotence/commutativity/absorption, mapping satisfaction of the
//!   exchange output, the `q_where ⊑ q_what ⊑ q_why` provenance chain and
//!   Theorems 6.1/6.4, metastore encode→view round-trips, and
//!   `Display`→parse round-trips for queries, MXQL and XML.
//!
//! Everything is keyed by a `u64` seed: `run_case(seed, &cfg)` is fully
//! deterministic, so any failure reported by the test suite or the
//! `dtr-check` soak binary is reproducible with
//! `cargo run -p dtr-check -- --cases 1 --seed <seed>`.

pub mod faults;
pub mod generators;
pub mod laws;
pub mod oracle;

pub use dtr_mapping::exchange::ExchangeOptions;
pub use generators::{GenConfig, Scenario};

/// Runs every conformance law over the scenario drawn from `seed`.
/// Returns a description of the first violated law, if any.
pub fn run_case(seed: u64, cfg: &GenConfig) -> Result<(), String> {
    run_case_with(seed, cfg, &ExchangeOptions::default())
}

/// [`run_case`] with explicit exchange options for the primary exchange:
/// the soak binary uses this to run the whole law suite on top of a
/// parallel (or nested-loop) exchange as well as the default one.
pub fn run_case_with(seed: u64, cfg: &GenConfig, exchange: &ExchangeOptions) -> Result<(), String> {
    let mut rng = proptest::test_runner::TestRng::from_seed(seed);
    let scen = generators::gen_scenario(&mut rng, cfg);
    let tagged = scen
        .tagged_with(exchange)
        .map_err(|e| format!("exchange failed on generated scenario: {e}"))?;
    laws::law_source_queries(&mut rng, &scen, cfg)?;
    laws::law_mxql_queries(&mut rng, &scen, &tagged, cfg)?;
    laws::law_analyze(&mut rng, &scen, &tagged, cfg)?;
    laws::law_plan(&mut rng, &scen, &tagged, cfg)?;
    laws::law_pnf(&mut rng, cfg)?;
    laws::law_mappings(&scen, &tagged)?;
    laws::law_provenance(&tagged)?;
    laws::law_metastore(&tagged)?;
    laws::law_xml_roundtrip(&scen, &tagged)?;
    laws::law_parallel_exchange(&scen)?;
    laws::law_flight(&mut rng, &scen, cfg)?;
    laws::law_incremental(&mut rng, &scen, cfg, exchange)?;
    laws::law_epoch_refresh(&mut rng, &scen, cfg)?;
    Ok(())
}

/// Runs the crash-recovery law over the scenario drawn from `seed`: a
/// seeded update stream committed through the durable session, with
/// storage faults (torn writes, bit flips, fsync failures, a torn
/// checkpoint rotation) injected at every crash point and recovery
/// asserted byte-identical to one of the two adjacent epochs. The soak
/// binary's `--storage-faults` mode drives this.
pub fn run_case_storage_faults(seed: u64, cfg: &GenConfig) -> Result<(), String> {
    let mut rng = proptest::test_runner::TestRng::from_seed(seed);
    let scen = generators::gen_scenario(&mut rng, cfg);
    laws::law_recovery(&mut rng, &scen, cfg)
}

/// The repro command for a failing case — printed by both the soak binary
/// and the proptest suites so any failure is one copy-paste away from a
/// deterministic rerun.
pub fn repro_command(seed: u64) -> String {
    format!("cargo run --release -p dtr-check -- --cases 1 --seed {seed}")
}

/// The repro command for a failing fault-injection case.
pub fn repro_command_faults(seed: u64) -> String {
    format!("cargo run --release -p dtr-check -- --faults --cases 1 --seed {seed}")
}

/// The repro command for a failing storage-fault (crash-recovery) case.
pub fn repro_command_storage_faults(seed: u64) -> String {
    format!("cargo run --release -p dtr-check -- --storage-faults --cases 1 --seed {seed}")
}
