//! Property-based tests on the data-model and language substrates:
//! PNF idempotence and annotation preservation, schema/XML round-trips,
//! parser round-trips through the pretty-printer, and dirty-block refresh
//! against a plain clone.

use dtr::model::instance::{Instance, Value};
use dtr::model::pnf::{is_pnf, to_pnf};
use dtr::model::schema::Schema;
use dtr::model::types::Type;
use dtr::model::value::MappingName;
use dtr::query::parser::parse_query;
use dtr::xml::parser::instance_from_xml;
use dtr::xml::schema_xml::{schema_from_xml, schema_to_xml};
use dtr::xml::writer::{instance_to_xml, WriteOptions};
use proptest::prelude::*;

/// A random value tree of bounded depth: records of atomic fields and one
/// optional nested set.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf_rec = (0u8..4, 0u8..4).prop_map(|(a, b)| {
        Value::record(vec![
            ("f0", Value::str(format!("x{a}"))),
            ("f1", Value::str(format!("y{b}"))),
        ])
    });
    prop::collection::vec(
        (leaf_rec.clone(), prop::collection::vec(leaf_rec, 0..4)).prop_map(|(base, inner)| {
            let Value::Record(mut fields) = base else {
                unreachable!()
            };
            fields.push(("kids".into(), Value::set(inner)));
            Value::Record(fields)
        }),
        0..8,
    )
    .prop_map(Value::set)
}

/// A wider root set than [`value_strategy`] (up to a few hundred nodes,
/// so several 64-node dirty blocks).
fn wide_value_strategy() -> impl Strategy<Value = Value> {
    prop::collection::vec((0u8..4, 0u8..4, 0usize..4), 0..48).prop_map(|members| {
        Value::set(
            members
                .into_iter()
                .map(|(a, b, kids)| {
                    Value::record(vec![
                        ("f0", Value::str(format!("x{a}"))),
                        ("f1", Value::str(format!("y{b}"))),
                        (
                            "kids",
                            Value::set(
                                (0..kids)
                                    .map(|k| {
                                        Value::record(vec![
                                            ("f0", Value::str(format!("k{k}"))),
                                            ("f1", Value::str(format!("y{a}"))),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    })
}

/// Applies one generated edit to `inst`: `code` picks the mutator, `a`
/// and `b` pick its targets among the current nodes.
fn mutate(inst: &mut Instance, schema: &Schema, code: u8, a: usize, b: usize) {
    let walk = inst.walk();
    if walk.is_empty() {
        return;
    }
    let sets: Vec<_> = walk
        .iter()
        .copied()
        .filter(|&n| inst.set_members(n).is_some())
        .collect();
    let node = walk[a % walk.len()];
    let set = sets[a % sets.len()];
    let members = inst.set_members(set).unwrap().to_vec();
    let leaf = Value::record(vec![
        ("f0", Value::str(format!("n{b}"))),
        ("f1", Value::str("y")),
    ]);
    let m = MappingName::new(format!("m{}", b % 3));
    match code {
        0 => {
            // Members of the root set take a `kids` set, nested ones do not.
            let v = if inst.parent(set).is_none() {
                let Value::Record(mut fields) = leaf else {
                    unreachable!()
                };
                fields.push(("kids".into(), Value::set(vec![])));
                Value::Record(fields)
            } else {
                leaf
            };
            inst.push_set_member(set, v);
        }
        1 if !members.is_empty() => {
            inst.detach_set_member(set, members[b % members.len()]);
        }
        2 => {
            let mut kids = members;
            kids.reverse();
            kids.truncate(b % (kids.len() + 1));
            inst.replace_children(set, kids);
        }
        3 => inst.truncate(inst.len().saturating_sub(b % 40)),
        4 => {
            inst.add_mapping(node, m);
        }
        5 => {
            inst.remove_mapping(node, &m);
        }
        6 => inst.strip_annotations(node),
        _ => {
            let _ = inst.annotate_elements(schema);
        }
    }
}

/// The schema the random values conform to.
fn value_schema() -> Schema {
    let leaf = Type::record(vec![("f0", Type::string()), ("f1", Type::string())]);
    let member = Type::record(vec![
        ("f0", Type::string()),
        ("f1", Type::string()),
        ("kids", Type::set(leaf)),
    ]);
    Schema::build("P", vec![("root", Type::set(member))]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pnf_is_idempotent_and_normalizing(v in value_strategy(), seed in 0u64..1000) {
        let mut inst = Instance::new("P");
        let root = inst.install_root("root", v);
        // Scatter some mapping annotations.
        let walk = inst.walk();
        for (i, n) in walk.iter().enumerate() {
            if (i as u64 + seed).is_multiple_of(3) {
                inst.add_mapping(*n, MappingName::new(format!("m{}", (i as u64 + seed) % 2)));
            }
        }
        let once = to_pnf(&inst);
        prop_assert!(is_pnf(&once));
        let twice = to_pnf(&once);
        prop_assert!(is_pnf(&twice));
        prop_assert_eq!(once.len(), twice.len());
        // Idempotence up to structure: the value trees coincide.
        let r1 = once.root("root").unwrap();
        let r2 = twice.root("root").unwrap();
        prop_assert!(once.to_value(r1) == twice.to_value(r2));
        // PNF never invents values: every atomic survives as a subset.
        prop_assert!(once.len() <= inst.len());
        // Union of annotations is preserved: every mapping name that was
        // present is still present somewhere.
        let names = |i: &Instance| {
            let mut out: Vec<String> = i
                .walk()
                .into_iter()
                .flat_map(|n| i.annotation(n).mappings.iter().map(|m| m.to_string()).collect::<Vec<_>>())
                .collect();
            out.sort();
            out.dedup();
            out
        };
        prop_assert_eq!(names(&inst), names(&once));
        let _ = root;
    }

    #[test]
    fn refresh_from_equals_clone(
        v in wide_value_strategy(),
        rounds in prop::collection::vec(
            prop::collection::vec((0u8..9, 0usize..1000, 0usize..1000, 0u8..4), 0..10),
            1..5,
        ),
    ) {
        let schema = value_schema();
        let mut live = Instance::new("P");
        live.install_root("root", v);
        live.annotate_elements(&schema).unwrap();
        let mut replica = live.clone();
        replica.clear_dirty();
        live.clear_dirty();
        for round in rounds {
            for (code, a, b, on_replica) in round {
                // One edit in four lands on the replica, as a reader's
                // first-access annotation pass would.
                if on_replica == 0 {
                    mutate(&mut replica, &schema, code, a, b);
                } else {
                    mutate(&mut live, &schema, code, a, b);
                }
            }
            replica.refresh_from(&live);
            prop_assert!(replica == live.clone(), "refresh diverged from a clone");
            prop_assert_eq!(replica.dirty_blocks(), 0);
            live.clear_dirty();
        }
    }

    #[test]
    fn xml_round_trip_random_instances(v in value_strategy()) {
        let schema = value_schema();
        let mut inst = Instance::new("P");
        let root = inst.install_root("root", v);
        inst.annotate_elements(&schema).unwrap();
        let xml = instance_to_xml(&inst, WriteOptions::annotated());
        let back = instance_from_xml(&xml, &schema).unwrap();
        prop_assert_eq!(back.len(), inst.len());
        let back_root = back.root("root").unwrap();
        prop_assert!(back.to_value(back_root) == inst.to_value(root));
    }

    #[test]
    fn schema_xml_round_trip(n_fields in 1usize..8, with_choice in any::<bool>()) {
        let mut fields: Vec<(String, Type)> = (0..n_fields)
            .map(|i| (format!("f{i}"), Type::string()))
            .collect();
        if with_choice {
            fields.push((
                "alt".to_string(),
                Type::choice(vec![("l", Type::string()), ("r", Type::integer())]),
            ));
        }
        let schema = Schema::build(
            "DB",
            vec![("R", Type::set(Type::Record(
                fields.into_iter().map(|(l, t)| (l.as_str().into(), t)).collect(),
            )))],
        )
        .unwrap();
        let back = schema_from_xml(&schema_to_xml(&schema)).unwrap();
        prop_assert_eq!(back.len(), schema.len());
        for (id, el) in schema.elements() {
            let b = back.element(id);
            prop_assert_eq!(&b.label, &el.label);
            prop_assert_eq!(b.kind, el.kind);
            prop_assert_eq!(b.parent, el.parent);
        }
    }

    #[test]
    fn parser_display_round_trip(
        n_select in 1usize..4,
        n_from in 1usize..3,
        with_pred in any::<bool>(),
        double in any::<bool>(),
    ) {
        // Build a query text from generated pieces, parse, print, reparse.
        let from: Vec<String> = (0..n_from)
            .map(|i| if i == 0 {
                format!("Root{i}.items x{i}")
            } else {
                format!("x{}.kids x{i}", i - 1)
            })
            .collect();
        let select: Vec<String> = (0..n_select)
            .map(|i| format!("x{}.f{i}", i % n_from))
            .collect();
        let mut text = format!("select {} from {}", select.join(", "), from.join(", "));
        if with_pred {
            let arrow = if double { "=>" } else { "->" };
            text.push_str(&format!(
                " where x0.f0 = 'c' and <db:e {arrow} m {arrow} 'D':'/Q/q0'>"
            ));
        }
        let q1 = parse_query(&text).unwrap();
        let q2 = parse_query(&q1.to_string()).unwrap();
        prop_assert_eq!(q1, q2);
    }
}
