//! Section 7 end to end: the meta-data storage schema and the MXQL
//! translation pipeline.
//!
//! Encodes the Figure 1 schemas and mappings into the seven storage
//! relations (reproducing Figure 5), shows the Example 7.3→7.5 translation
//! chain, and demonstrates that the direct (Section 5) and translated
//! (Section 7) execution paths agree.
//!
//! ```text
//! cargo run --example metadata_explorer
//! ```

use dtr::core::runner::{canonical_rows, MetaRunner};
use dtr::core::testkit;
use dtr::core::translate::translate;
use dtr::query::parser::parse_query;

fn main() {
    let tagged = testkit::figure1();
    let runner = MetaRunner::new(tagged.setting()).expect("metastore builds");

    // Figure 5: the storage relations for the Figure 1 scenario.
    println!("=== The meta-data storage (Figures 4-5) ===\n");
    println!("{}", runner.store().render());

    // The Example 5.5 query through the translation chain.
    let text = "select s.hid, m
from Portal.estates s, Portal.contacts c, c.title@map m
where s.contact = c.title and e = c.title@elem
  and <'USdb':'US/agents/title/firm' -> m -> 'Pdb':e>";
    println!("=== MXQL query (Example 5.5) ===\n\n{text}\n");
    let q = parse_query(text).expect("parses");
    let branches = translate(&q, "Pdb").expect("translates");
    println!("=== Translated form (Examples 7.3-7.5) ===\n");
    for (i, b) in branches.iter().enumerate() {
        if branches.len() > 1 {
            println!("-- union branch {} --", i + 1);
        }
        println!("{b}\n");
    }

    // Both execution paths agree.
    let direct = tagged.query(text).expect("direct evaluation");
    let translated = runner.run(&tagged, &q).expect("translated evaluation");
    println!("=== Results ===\n");
    println!(
        "direct (Section 5 semantics):    {:?}",
        canonical_rows(&direct)
    );
    println!(
        "translated (Section 7 pipeline): {:?}",
        canonical_rows(&translated)
    );
    assert_eq!(canonical_rows(&direct), canonical_rows(&translated));

    // A double-arrow query translates to a union of conjunctive queries.
    let dtext = "select es from where <'USdb':es => m => 'Pdb':'/Portal/estates/value'>";
    let dq = parse_query(dtext).expect("parses");
    let dbranches = translate(&dq, "Pdb").expect("translates");
    println!(
        "\n=== Double-arrow translation: {} union branches ===",
        dbranches.len()
    );
    println!("(the select-or-where disjunction of the what-provenance predicate");
    println!(" cannot be expressed in one conjunctive query)\n");
    let r = tagged.query(dtext).expect("runs");
    println!("elements affecting /Portal/estates/value:");
    for row in r.distinct_tuples() {
        println!("  {}", row[0]);
    }

    // Pure meta-data querying: no instance data touched at all.
    println!("\n=== Pure meta-data query over the storage relations ===\n");
    let q = parse_query(
        "select m.mid, e.path
         from Mapping m, Correspondence o, Element e
         where o.mid = m.mid and o.forEid = e.eid and e.db = 'EUdb'",
    )
    .expect("parses");
    let mut catalog = tagged.catalog();
    catalog.push(runner.meta_source());
    let r = dtr::query::eval::Evaluator::new(&catalog, tagged.functions())
        .run(&q)
        .expect("runs");
    println!("EUdb elements used by mapping select clauses:");
    print!("{}", r.to_table());
}
