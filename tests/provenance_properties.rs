//! Property-based tests over randomly generated mapping scenarios.
//!
//! For arbitrary relational sources, mappings and instances the following
//! must hold:
//!
//! * the exchange produces a target satisfying every mapping (Section 4.3);
//! * Theorems 6.1 and 6.4: the mapping predicates coincide with schema-level
//!   where/what-provenance;
//! * the provenance queries are ordered `q_where ⊑ q_what ⊑ q_why`
//!   (Section 6);
//! * the direct MXQL evaluation and the Section 7.3 translation agree.

use dtr::core::inclusion::element_included;
use dtr::core::provenance::{check_theorem_6_1, check_theorem_6_4, provenance_of, ProvenanceKind};
use dtr::core::runner::{canonical_rows, MetaRunner};
use dtr::core::tagged::{MappingSetting, TaggedInstance};
use dtr::core::virtualize::answer_virtually;
use dtr::mapping::glav::Mapping;
use dtr::mapping::satisfy::is_satisfied;
use dtr::model::instance::{Instance, Value};
use dtr::model::schema::Schema;
use dtr::model::types::{AtomicType, Type};
use dtr::model::value::MappingName;
use dtr::query::eval::Source;
use dtr::query::functions::FunctionRegistry;
use dtr_check::generators::{gen_nested_source, GenConfig};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A randomly drawn scenario description.
#[derive(Debug, Clone)]
struct Scen {
    /// Rows of R(a0..a3): each row is 4 small values.
    r_rows: Vec<[u8; 4]>,
    /// Rows of T(b0..b2).
    t_rows: Vec<[u8; 3]>,
    /// m1 copies R fields `copy1[i]` into Q position i (3 positions).
    copy1: [usize; 3],
    /// m2 joins R and T on `R.a<join_r> = T.b<join_t>` and copies
    /// (R.a<c0>, T.b<c1>) into Q positions 0 and 1.
    join_r: usize,
    join_t: usize,
    c0: usize,
    c1: usize,
    /// Seed for a third, *nested* source `N` (sets below set members,
    /// choices, records) drawn with the `dtr-check` generators; `m3` maps
    /// it into `Q` so Theorems 6.1/6.4 run beyond flat relations.
    nested_seed: u64,
}

fn scen_strategy() -> impl Strategy<Value = Scen> {
    let val = 0u8..3;
    let r_row = [val.clone(), val.clone(), val.clone(), val.clone()];
    let t_row = [val.clone(), val.clone(), val];
    (
        prop::collection::vec(r_row, 0..6),
        prop::collection::vec(t_row, 0..5),
        [0usize..4, 0usize..4, 0usize..4],
        0usize..4,
        0usize..3,
        0usize..4,
        0usize..3,
        0u64..1_000_000_000,
    )
        .prop_map(
            |(r_rows, t_rows, copy1, join_r, join_t, c0, c1, nested_seed)| Scen {
                r_rows,
                t_rows,
                copy1,
                join_r,
                join_t,
                c0,
                c1,
                nested_seed,
            },
        )
}

fn build_scenario(s: &Scen) -> TaggedInstance {
    let src_schema = Schema::build(
        "S",
        vec![
            (
                "R",
                Type::relation(vec![
                    ("a0", AtomicType::String),
                    ("a1", AtomicType::String),
                    ("a2", AtomicType::String),
                    ("a3", AtomicType::String),
                ]),
            ),
            (
                "T",
                Type::relation(vec![
                    ("b0", AtomicType::String),
                    ("b1", AtomicType::String),
                    ("b2", AtomicType::String),
                ]),
            ),
        ],
    )
    .unwrap();
    let tgt_schema = Schema::build(
        "D",
        vec![(
            "Q",
            Type::relation(vec![
                ("q0", AtomicType::String),
                ("q1", AtomicType::String),
                ("q2", AtomicType::String),
            ]),
        )],
    )
    .unwrap();

    let m1 = Mapping::parse(
        "m1",
        &format!(
            "foreach select r.a{}, r.a{}, r.a{} from R r
             exists select q.q0, q.q1, q.q2 from Q q",
            s.copy1[0], s.copy1[1], s.copy1[2]
        ),
    )
    .unwrap();
    let m2 = Mapping::parse(
        "m2",
        &format!(
            "foreach select r.a{}, t.b{} from R r, T t where r.a{} = t.b{}
             exists select q.q0, q.q1 from Q q",
            s.c0, s.c1, s.join_r, s.join_t
        ),
    )
    .unwrap();

    let mut inst = Instance::new("S");
    inst.install_root(
        "R",
        Value::set(
            s.r_rows
                .iter()
                .map(|row| {
                    Value::record(vec![
                        ("a0", Value::str(format!("v{}", row[0]))),
                        ("a1", Value::str(format!("v{}", row[1]))),
                        ("a2", Value::str(format!("v{}", row[2]))),
                        ("a3", Value::str(format!("v{}", row[3]))),
                    ])
                })
                .collect(),
        ),
    );
    inst.install_root(
        "T",
        Value::set(
            s.t_rows
                .iter()
                .map(|row| {
                    Value::record(vec![
                        ("b0", Value::str(format!("v{}", row[0]))),
                        ("b1", Value::str(format!("v{}", row[1]))),
                        ("b2", Value::str(format!("v{}", row[2]))),
                    ])
                })
                .collect(),
        ),
    );

    // A nested third source: arbitrary Rcd/Set/Choice shapes from the
    // dtr-check generators, mapped into Q by m3.
    let mut rng = TestRng::from_seed(s.nested_seed);
    let (n_schema, n_inst, m3) =
        gen_nested_source(&mut rng, "N", &tgt_schema, "m3", &GenConfig::default());

    let setting = MappingSetting::new(vec![src_schema, n_schema], tgt_schema, vec![m1, m2, m3])
        .expect("random setting validates");
    TaggedInstance::exchange(setting, vec![inst, n_inst]).expect("random exchange succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exchange_satisfies_all_mappings(s in scen_strategy()) {
        let tagged = build_scenario(&s);
        let funcs = FunctionRegistry::with_builtins();
        let sources: Vec<Source<'_>> = tagged
            .setting()
            .source_schemas()
            .iter()
            .zip(tagged.source_instances())
            .map(|(schema, instance)| Source { schema, instance })
            .collect();
        let target = Source {
            schema: tagged.setting().target_schema(),
            instance: tagged.target(),
        };
        for m in tagged.setting().mappings() {
            prop_assert!(
                is_satisfied(m, &sources, target, &funcs).unwrap(),
                "{} unsatisfied", m.name
            );
        }
    }

    #[test]
    fn theorems_6_1_and_6_4_hold(s in scen_strategy()) {
        let tagged = build_scenario(&s);
        for m in ["m1", "m2", "m3"] {
            prop_assert_eq!(
                check_theorem_6_1(&tagged, &MappingName::new(m)).unwrap(),
                None,
                "theorem 6.1 violated for {}", m
            );
            prop_assert_eq!(
                check_theorem_6_4(&tagged, &MappingName::new(m)).unwrap(),
                None,
                "theorem 6.4 violated for {}", m
            );
        }
    }

    #[test]
    fn provenance_inclusion_chain(s in scen_strategy()) {
        let tagged = build_scenario(&s);
        // For every generated q0 value of every mapping.
        let schema = tagged.setting().target_schema();
        let q0 = schema.resolve_path("/Q/q0").unwrap();
        for m in ["m1", "m2", "m3"] {
            let name = MappingName::new(m);
            for node in tagged.target().interpretation_by(q0, &name) {
                let w = provenance_of(&tagged, ProvenanceKind::Where, &name, node).unwrap();
                let wh = provenance_of(&tagged, ProvenanceKind::What, &name, node).unwrap();
                let wy = provenance_of(&tagged, ProvenanceKind::Why, &name, node).unwrap();
                prop_assert!(element_included(&w.query, &wh.query));
                prop_assert!(element_included(&wh.query, &wy.query));
                // The fact sets grow along the chain.
                let fw = w.fact_elements(&tagged);
                let fwh = wh.fact_elements(&tagged);
                let fwy = wy.fact_elements(&tagged);
                prop_assert!(fw.is_subset(&fwh));
                prop_assert!(fwh.is_subset(&fwy));
                // A value that exists has nonempty where-provenance.
                prop_assert!(!w.facts.is_empty());
            }
        }
    }

    #[test]
    fn direct_and_translated_engines_agree(s in scen_strategy()) {
        let tagged = build_scenario(&s);
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        for text in [
            "select x.q0, m from Q x, x.q0@map m",
            "select e, m from where <db:e -> m -> 'D':e2>",
            "select e from where <db:e => m => 'D':'/Q/q0'>",
            "select x.q0, x.q1 from Q x where x.q0 = 'v1'",
            "select x.q1, m from Q x, x.q1@map m where e = x.q1@elem \
               and <'S':es -> m -> 'D':e>",
        ] {
            let direct = tagged.query(text).unwrap();
            let q = dtr::query::parser::parse_query(text).unwrap();
            let translated = runner.run(&tagged, &q).unwrap();
            prop_assert_eq!(
                canonical_rows(&direct),
                canonical_rows(&translated),
                "disagreement on {}", text
            );
        }
    }

    #[test]
    fn virtual_answers_match_materialized_on_single_relation(s in scen_strategy()) {
        // The target has one relation, so every query stays inside single
        // mapping outputs: virtual answering must coincide exactly with
        // querying the materialized instance.
        let tagged = build_scenario(&s);
        let funcs = FunctionRegistry::with_builtins();
        for text in [
            "select x.q0, x.q1, x.q2 from Q x",
            "select x.q0 from Q x where x.q1 = 'v1'",
            "select x.q2, x.q0 from Q x where x.q0 = x.q1",
        ] {
            let q = dtr::query::parser::parse_query(text).unwrap();
            let virt = answer_virtually(
                tagged.setting(),
                tagged.source_instances(),
                &q,
                &funcs,
            )
            .unwrap();
            let mat = tagged.run(&q).unwrap();
            prop_assert_eq!(
                canonical_rows(&virt),
                canonical_rows(&mat),
                "virtual/materialized disagreement on {}", text
            );
        }
    }

    #[test]
    fn xml_round_trip_preserves_tagged_instance(s in scen_strategy()) {
        let tagged = build_scenario(&s);
        let xml = dtr::xml::writer::instance_to_xml(
            tagged.target(),
            dtr::xml::writer::WriteOptions::annotated(),
        );
        let back = dtr::xml::parser::instance_from_xml(
            &xml,
            tagged.setting().target_schema(),
        )
        .unwrap();
        prop_assert_eq!(back.len(), tagged.target().len());
        for (a, b) in tagged.target().walk().into_iter().zip(back.walk()) {
            prop_assert_eq!(
                tagged.target().annotation(a),
                back.annotation(b)
            );
        }
    }
}
