//! Every worked MXQL example of the paper, executed through both engines:
//! the direct Section 5 semantics and the Section 7.3 translation over the
//! metastore. The two must agree.

use dtr::core::runner::{canonical_rows, MetaRunner};
use dtr::core::tagged::TaggedInstance;
use dtr::core::testkit;
use dtr::query::parser::parse_query;

fn both(tagged: &TaggedInstance, runner: &MetaRunner, text: &str) -> Vec<String> {
    let direct = tagged.query(text).expect("direct evaluation");
    let q = parse_query(text).expect("query parses");
    let translated = runner.run(tagged, &q).expect("translated evaluation");
    assert_eq!(
        canonical_rows(&direct),
        canonical_rows(&translated),
        "engines disagree on: {text}"
    );
    canonical_rows(&direct)
}

#[test]
fn example_5_4() {
    let tagged = testkit::figure1();
    let runner = MetaRunner::new(tagged.setting()).unwrap();
    let rows = both(
        &tagged,
        &runner,
        "select x.hid, x.value, m from Portal.estates x, x.value@map m",
    );
    assert_eq!(rows.len(), 3);
    assert!(rows.contains(&"H522 | 500K | m2".to_string()));
    assert!(rows.contains(&"H2525 | 300K | m3".to_string()));
    assert!(rows.contains(&"H7 | 250K | m1".to_string()));
}

#[test]
fn example_5_5() {
    let tagged = testkit::figure1();
    let runner = MetaRunner::new(tagged.setting()).unwrap();
    let rows = both(
        &tagged,
        &runner,
        "select s.hid, m
         from Portal.estates s, Portal.contacts c, c.title@map m
         where s.contact = c.title and e = c.title@elem
           and <'USdb':'US/agents/title/firm' -> m -> 'Pdb':e>",
    );
    // The paper reports ('H522','m2'); by the formal semantics the merged
    // HomeGain contact also joins H2525 (see DESIGN.md).
    assert!(rows.contains(&"H522 | m2".to_string()));
    assert!(!rows.iter().any(|r| r.contains("m1") || r.contains("m3")));
}

#[test]
fn example_5_6() {
    let tagged = testkit::figure1();
    let runner = MetaRunner::new(tagged.setting()).unwrap();
    let rows = both(
        &tagged,
        &runner,
        "select e from where <db:e -> m -> 'Pdb':'/Portal/estates/estate/stories'>",
    );
    // "The query returns Element type values floors and levels."
    assert!(rows.contains(&"USdb:/US/houses/floors".to_string()));
    assert!(rows.contains(&"EUdb:/EU/postings/levels".to_string()));
    assert_eq!(rows.len(), 2);
}

#[test]
fn example_5_7() {
    let tagged = testkit::figure1();
    let runner = MetaRunner::new(tagged.setting()).unwrap();
    let rows = both(
        &tagged,
        &runner,
        "select c.title, es
         from Portal.estates s, Portal.contacts c, c.title@map m
         where s.contact = c.title and e = c.title@elem
           and <'USdb':es => m => 'Pdb':e>",
    );
    // "element aid will be in the answer set" — via both relations' aid.
    assert!(rows.iter().any(|r| r.ends_with("/US/houses/aid")));
    assert!(rows.iter().any(|r| r.ends_with("/US/agents/aid")));
}

#[test]
fn section_8_houses_in_neighborhood_query_shape() {
    // The Section 8 query `select db, e from where <db:e => m => ...>`
    // (adapted to the running example's value element).
    let tagged = testkit::figure1();
    let runner = MetaRunner::new(tagged.setting()).unwrap();
    let rows = both(
        &tagged,
        &runner,
        "select db, e from where <db:e => m => 'Pdb':'/Portal/estates/value'>",
    );
    // Sources of value: price (m1, m2) and totalVal (m3), plus every other
    // select/where element of those mappings.
    assert!(rows.iter().any(|r| r.ends_with("/US/houses/price")));
    assert!(rows.iter().any(|r| r.ends_with("/EU/postings/totalVal")));
    // db column equals the element's database.
    for r in &rows {
        let (db, elem) = r.split_once(" | ").unwrap();
        assert!(elem.starts_with(&format!("{db}:")), "{r}");
    }
}

#[test]
fn queries_on_source_instances_too() {
    // The catalog spans target and sources; plain queries can hit either.
    let tagged = testkit::figure1();
    let r = tagged
        .query("select h.hid, h.price from US.houses h where h.price = '500K'")
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.tuples()[0][0].to_string(), "H522");
}

#[test]
fn elem_operator_on_source_values() {
    // @elem works on source instances as well (their elements are
    // annotated at exchange time).
    let tagged = testkit::figure1();
    let r = tagged
        .query("select h.price@elem from US.houses h where h.hid = 'H522'")
        .unwrap();
    assert_eq!(r.tuples()[0][0].to_string(), "USdb:/US/houses/price");
}

#[test]
fn mixed_data_and_metadata_filters() {
    // Combine an ordinary data predicate with a provenance predicate.
    let tagged = testkit::figure1();
    let runner = MetaRunner::new(tagged.setting()).unwrap();
    let rows = both(
        &tagged,
        &runner,
        "select x.hid
         from Portal.estates x, x.value@map m
         where x.value = '300K' and e = x.value@elem
           and <'EUdb':'/EU/postings/totalVal' -> m -> 'Pdb':e>",
    );
    assert_eq!(rows, vec!["H2525".to_string()]);
}
