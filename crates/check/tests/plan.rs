//! Planner-specific properties, beyond the in-soak `law_plan`:
//!
//! * plan-cache **hits are byte-identical to cold plans** — same compiled
//!   plan object, therefore same rows in the same order, annotations
//!   included;
//! * **join reordering never changes result multiplicity** — plans
//!   compiled against adversarial synthetic statistics (random
//!   per-binding cardinalities drive arbitrary binding permutations)
//!   produce the same row multiset as the legacy evaluator.

use dtr_check::generators::{self, GenConfig};
use dtr_check::oracle;
use dtr_query::eval::canonical_expr;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn scenario_and_queries(
    seed: u64,
    queries: usize,
) -> (dtr_core::tagged::TaggedInstance, Vec<dtr_query::ast::Query>) {
    let cfg = GenConfig::default();
    let mut rng = TestRng::from_seed(seed);
    let scen = generators::gen_scenario(&mut rng, &cfg);
    let tagged = scen.tagged().expect("generated scenario exchanges");
    let qs = (0..queries)
        .map(|_| generators::gen_mxql_query(&mut rng, &scen, &cfg))
        .collect();
    (tagged, qs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A plan-cache hit returns the identical result bytes of the cold
    /// plan that populated the cache, and the hit counter moves.
    #[test]
    fn cache_hits_are_byte_identical_to_cold_plans(seed in 0u64..1_000_000_000) {
        let (tagged, qs) = scenario_and_queries(seed, 3);
        for q in qs {
            let text = q.to_string();
            tagged.clear_plan_cache();
            let cold = tagged.plan_for(&text).and_then(|p| tagged.run_plan(&p))
                .unwrap_or_else(|e| panic!("seed {seed}: cold plan failed on `{text}`: {e}"));
            let before = tagged.plan_cache_stats();
            let warm = tagged.plan_for(&text).and_then(|p| tagged.run_plan(&p))
                .unwrap_or_else(|e| panic!("seed {seed}: warm plan failed on `{text}`: {e}"));
            let after = tagged.plan_cache_stats();
            prop_assert!(after.hits > before.hits, "seed {seed}: no cache hit on `{text}`");
            prop_assert_eq!(after.collisions, before.collisions);
            let bytes = |r: &dtr_query::eval::QueryResult| format!("{:?}|{:?}", r.columns, r.rows);
            prop_assert_eq!(bytes(&cold), bytes(&warm), "seed {seed}: hit differs on `{text}`");
        }
    }

    /// Whatever binding order synthetic statistics push the planner into,
    /// the result multiset (and the legacy evaluator's) is unchanged.
    #[test]
    fn join_reordering_preserves_result_multiplicity(seed in 0u64..1_000_000_000) {
        let (tagged, qs) = scenario_and_queries(seed, 3);
        let mut rng = TestRng::from_seed(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for q in qs {
            let text = q.to_string();
            let legacy = tagged.run(&q)
                .unwrap_or_else(|e| panic!("seed {seed}: legacy run failed on `{text}`: {e}"));
            let expected = oracle::canonical_multiset(&legacy.tuples());
            // Several adversarial catalogs per query: random estimated
            // cardinalities, including the all-equal degenerate case.
            for round in 0..3 {
                let mut synth = dtr_obs::stats::StatsCatalog::new();
                for b in &q.from {
                    let card = if round == 0 { 7 } else { 1 + rng.below(2048) };
                    synth.record_set(&canonical_expr(&b.source, &q), card);
                }
                let plan = tagged.plan_with_stats(&text, &synth)
                    .unwrap_or_else(|e| panic!("seed {seed}: planning failed on `{text}`: {e}"));
                let got = tagged.run_plan(&plan)
                    .unwrap_or_else(|e| panic!("seed {seed}: plan exec failed on `{text}`: {e}"));
                prop_assert_eq!(
                    oracle::canonical_multiset(&got.tuples()),
                    expected.clone(),
                    "seed {seed}: order {:?} changed the multiset of `{text}`",
                    plan.physical.order
                );
            }
        }
    }
}
