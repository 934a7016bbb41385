//! Epoch publish by dirty-block refresh, checked by dtr-check's
//! `law_epoch_refresh` on the first seeds of the committed regression
//! corpus, so the plain `cargo test` run covers the durable publish path.

use dtr_check::generators::gen_scenario;
use dtr_check::laws::law_epoch_refresh;
use dtr_check::GenConfig;
use proptest::test_runner::TestRng;

#[test]
fn law_epoch_refresh_holds_on_corpus_seeds() {
    let seeds: Vec<u64> = include_str!("../crates/check/corpus/seeds.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("corpus lines are seeds"))
        .take(8)
        .collect();
    assert_eq!(seeds.len(), 8);
    let cfg = GenConfig::default();
    for seed in seeds {
        let mut rng = TestRng::from_seed(seed);
        let scen = gen_scenario(&mut rng, &cfg);
        if let Err(e) = law_epoch_refresh(&mut rng, &scen, &cfg) {
            panic!("seed {seed}: {e}");
        }
    }
}
