//! Executing translated MXQL queries over the metastore (the full
//! Section 7 pipeline).
//!
//! [`MetaRunner`] encodes a mapping setting's schemas and mappings into the
//! metastore once, materializes the nested-relational view, and then runs
//! translated queries against *data instance + meta instance* with the
//! ordinary evaluator — exactly the execution strategy the paper describes:
//! "the user does not need to be aware of the details of the meta-data
//! storage schema".

use crate::tagged::{MappingSetting, MxqlError, TaggedInstance};
use crate::translate::{translate_explained_budgeted, TranslateError};
use dtr_metastore::store::{MetaStore, StoreError};
use dtr_metastore::view::{meta_instance, meta_schema};
use dtr_model::instance::Instance;
use dtr_model::schema::Schema;
use dtr_obs::guard::Budget;
use dtr_query::ast::Query;
use dtr_query::eval::{EvalOptions, Evaluator, QueryResult, Source};

impl From<TranslateError> for MxqlError {
    fn from(e: TranslateError) -> Self {
        match e {
            TranslateError::Guard(g) => MxqlError::Guard(g),
            other => MxqlError::Other(other.to_string()),
        }
    }
}

fn store_err(e: StoreError) -> MxqlError {
    match e {
        StoreError::Guard(g) => MxqlError::Guard(g),
        other => MxqlError::Other(other.to_string()),
    }
}

/// A prepared metastore for one mapping setting.
pub struct MetaRunner {
    store: MetaStore,
    meta_schema: Schema,
    meta_inst: Instance,
}

impl MetaRunner {
    /// Encodes the setting's schemas and mappings (Section 7.1) and builds
    /// the queryable view.
    pub fn new(setting: &MappingSetting) -> Result<Self, MxqlError> {
        Self::new_budgeted(setting, &Budget::unlimited())
    }

    /// [`MetaRunner::new`] under a resource budget: the metastore encoding
    /// charges each stored row against `max_rows` and polls the deadline
    /// and cancellation flag. On a guard trip the partially built store is
    /// dropped — no half-encoded runner escapes.
    pub fn new_budgeted(setting: &MappingSetting, budget: &Budget) -> Result<Self, MxqlError> {
        let _span = dtr_obs::span("mxql.metastore_build")
            .field("schemas", setting.source_schemas().len() + 1)
            .field("mappings", setting.mappings().len());
        let mut meter = budget.meter("metastore.encode");
        let mut store = MetaStore::new();
        for s in setting.source_schemas() {
            store
                .add_schema_budgeted(s, &mut meter)
                .map_err(store_err)?;
        }
        store
            .add_schema_budgeted(setting.target_schema(), &mut meter)
            .map_err(store_err)?;
        let refs: Vec<&Schema> = setting.source_schemas().iter().collect();
        for m in setting.mappings() {
            store
                .add_mapping_budgeted(m, &refs, setting.target_schema(), &mut meter)
                .map_err(store_err)?;
        }
        let schema = meta_schema();
        let inst = meta_instance(&store, &schema);
        Ok(MetaRunner {
            store,
            meta_schema: schema,
            meta_inst: inst,
        })
    }

    /// The underlying relational store (for inspection / Figure 5 dumps).
    pub fn store(&self) -> &MetaStore {
        &self.store
    }

    /// The metastore as a queryable source.
    pub fn meta_source(&self) -> Source<'_> {
        Source {
            schema: &self.meta_schema,
            instance: &self.meta_inst,
        }
    }

    /// Translates an MXQL query (Section 7.3) and runs every branch of the
    /// resulting union over the tagged instance plus the metastore,
    /// concatenating and de-duplicating rows.
    pub fn run(&self, tagged: &TaggedInstance, q: &Query) -> Result<QueryResult, MxqlError> {
        self.run_budgeted(tagged, q, &Budget::unlimited())
    }

    /// [`MetaRunner::run`] under a resource budget: translation, every
    /// branch evaluation, and the union/de-duplication loop all observe the
    /// same budget, so `max_rows`, a deadline, or cancellation aborts the
    /// translated pipeline with a structured guard error.
    pub fn run_budgeted(
        &self,
        tagged: &TaggedInstance,
        q: &Query,
        budget: &Budget,
    ) -> Result<QueryResult, MxqlError> {
        if !dtr_obs::audit::enabled() {
            return self.run_translated(tagged, q, budget);
        }
        let request = q.to_string();
        let started = std::time::Instant::now();
        let result = self.run_translated(tagged, q, budget);
        crate::tagged::audit_query("translate", request, started, result.as_ref());
        result
    }

    fn run_translated(
        &self,
        tagged: &TaggedInstance,
        q: &Query,
        budget: &Budget,
    ) -> Result<QueryResult, MxqlError> {
        let q = tagged.setting().normalize_query(q);
        // Order/limit (the extension tail) apply to the whole union; each
        // order key must be one of the select expressions so the sort can
        // run on the projected columns.
        let mut key_columns: Vec<(usize, bool)> = Vec::new();
        for k in &q.order_by {
            let Some(col) = q.select.iter().position(|e| *e == k.expr) else {
                return Err(MxqlError::Other(format!(
                    "translated execution requires order-by keys to appear in the \
                     select clause; `{}` does not",
                    k.expr
                )));
            };
            key_columns.push((col, k.descending));
        }
        let (branches, _) = translate_explained_budgeted(&q, tagged.target().db(), budget)?;
        let span = dtr_obs::span("mxql.run_translated").field("branches", branches.len());
        let mut meter = budget.meter("mxql.run_translated");
        let mut catalog = tagged.catalog();
        catalog.push(self.meta_source());
        let mut out = QueryResult::default();
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (i, branch) in branches.iter().enumerate() {
            meter.poll()?;
            let r = Evaluator::new(&catalog, tagged.functions())
                .with_options(EvalOptions {
                    budget: budget.clone(),
                    ..Default::default()
                })
                .run(branch)?;
            if i == 0 {
                out.columns = r.columns.clone();
            }
            out.stats.tuples_scanned += r.stats.tuples_scanned;
            out.stats.bindings_enumerated += r.stats.bindings_enumerated;
            out.stats.predicate_triples_tested += r.stats.predicate_triples_tested;
            out.stats.eval_ns += r.stats.eval_ns;
            for row in r.rows {
                let key = row
                    .iter()
                    .map(|v| v.value.to_string())
                    .collect::<Vec<_>>()
                    .join("\u{1}");
                if seen.insert(key) {
                    // Charge only rows surviving de-duplication: the union
                    // result is what `max_rows` bounds on this path.
                    meter.charge_rows(1)?;
                    out.rows.push(row);
                }
            }
        }
        if !key_columns.is_empty() {
            out.rows.sort_by(|a, b| {
                for &(col, desc) in &key_columns {
                    let ord = dtr_query::eval::coerced_compare(&a[col].value, &b[col].value)
                        .unwrap_or(std::cmp::Ordering::Equal);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = q.limit {
            out.rows.truncate(n);
        }
        span.record("rows_out", out.rows.len());
        Ok(out)
    }
}

/// Renders result rows as sorted strings — the canonical form used to
/// compare the direct (Section 5) and translated (Section 7) execution
/// paths, which agree modulo value *types* (`Mapping` values come back as
/// `mid` strings from the metastore).
pub fn canonical_rows(r: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| v.value.to_string())
                .collect::<Vec<_>>()
                .join(" | ")
        })
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagged::Request;
    use crate::testkit::{figure1, figure1_setting};
    use dtr_query::parser::parse_query;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that switch the process-global audit gate: each
    /// restores the gate when done, which would silence a concurrently
    /// running one before its records land.
    static AUDIT_GATE: Mutex<()> = Mutex::new(());

    /// Takes the audit lock and switches auditing on; the returned guard
    /// restores the previous gate state when dropped (also on panic).
    fn audit_on() -> impl Drop {
        struct Restore {
            was_on: bool,
            _lock: MutexGuard<'static, ()>,
        }
        impl Drop for Restore {
            fn drop(&mut self) {
                dtr_obs::audit::set_enabled(self.was_on);
            }
        }
        let lock = AUDIT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was_on = dtr_obs::audit::enabled();
        dtr_obs::audit::set_enabled(true);
        Restore {
            was_on,
            _lock: lock,
        }
    }

    /// The audit records whose request text contains `marker`. The log is
    /// global and other tests (or a soak with `DTR_AUDIT=1`) may interleave
    /// records, so every test filters by its own request text.
    fn audited(marker: &str) -> Vec<dtr_obs::AuditRecord> {
        dtr_obs::audit::records()
            .into_iter()
            .filter(|r| r.request.contains(marker))
            .collect()
    }

    fn agree(text: &str) {
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let direct = tagged.query(text).unwrap();
        let translated = runner.run(&tagged, &parse_query(text).unwrap()).unwrap();
        assert_eq!(
            canonical_rows(&direct),
            canonical_rows(&translated),
            "direct and translated execution disagree for: {text}"
        );
    }

    #[test]
    fn example_5_5_agrees() {
        agree(
            "select s.hid, m
             from Portal.estates s, Portal.contacts c, c.title@map m
             where s.contact = c.title and e = c.title@elem
               and <'USdb':'US/agents/title/firm' -> m -> 'Pdb':e>",
        );
    }

    #[test]
    fn example_5_6_agrees() {
        agree("select e from where <db:e -> m -> 'Pdb':'/Portal/estates/estate/stories'>");
    }

    #[test]
    fn example_5_7_agrees() {
        agree(
            "select c.title, es
             from Portal.estates s, Portal.contacts c, c.title@map m
             where s.contact = c.title and e = c.title@elem
               and <'USdb':es => m => 'Pdb':e>",
        );
    }

    #[test]
    fn example_5_4_agrees() {
        agree("select x.hid, x.value, m from Portal.estates x, x.value@map m");
    }

    #[test]
    fn plain_queries_agree() {
        agree("select e.hid, e.value from Portal.estates e where e.contact = 'HomeGain'");
    }

    #[test]
    fn ordered_mxql_agrees_across_engines() {
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let text = "select x.hid, x.value, m from Portal.estates x, x.value@map m \
                    order by x.hid desc limit 2";
        let q = dtr_query::parser::parse_query(text).unwrap();
        let direct = tagged.run(&q).unwrap();
        let translated = runner.run(&tagged, &q).unwrap();
        // Ordered results compare positionally, not as sorted sets.
        let rows = |r: &dtr_query::eval::QueryResult| {
            r.tuples()
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("|")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&direct), rows(&translated));
        assert_eq!(direct.len(), 2);
        assert_eq!(direct.tuples()[0][0].to_string(), "H7");
        // An order key outside the select clause is rejected on the
        // translated path (documented restriction).
        let q2 =
            dtr_query::parser::parse_query("select x.hid from Portal.estates x order by x.value")
                .unwrap();
        assert!(runner.run(&tagged, &q2).is_err());
        assert!(tagged.run(&q2).is_ok());
    }

    #[test]
    fn figure_5_dump_available() {
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let dump = runner.store().render();
        assert!(dump.contains("Correspondence"));
        assert!(dump.contains("m1 | q0 | q1"));
    }

    #[test]
    fn pure_metadata_query_over_view() {
        // Query the meta instance directly (no annotations involved):
        // the mappings populating /Portal/estates/value.
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let mut catalog = tagged.catalog();
        catalog.push(runner.meta_source());
        let q = dtr_query::parser::parse_query(
            "select o.mid
             from Correspondence o, Element e
             where o.conEid = e.eid and e.path = '/Portal/estates/value'",
        )
        .unwrap();
        let r = dtr_query::eval::Evaluator::new(&catalog, tagged.functions())
            .run(&q)
            .unwrap();
        let mut mids: Vec<String> = r.tuples().into_iter().map(|t| t[0].to_string()).collect();
        mids.sort();
        assert_eq!(mids, ["m1", "m2", "m3"]);
    }

    #[test]
    fn audit_records_exchange_query_and_translate() {
        let _audit = audit_on();
        // figure1() performs the exchange while auditing is on, so all
        // three request kinds land in the log.
        let tagged = figure1();
        let marker = "select e.hid, e.value from Portal.estates e where e.contact = 'HomeGain'";
        let direct = tagged.query(marker).unwrap();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let translated = runner.run(&tagged, &parse_query(marker).unwrap()).unwrap();
        let records = dtr_obs::audit::records();
        let queries: Vec<_> = records
            .iter()
            .filter(|r| r.kind == "query" && r.request.contains("HomeGain"))
            .collect();
        let translates: Vec<_> = records
            .iter()
            .filter(|r| r.kind == "translate" && r.request.contains("HomeGain"))
            .collect();
        let exchanges: Vec<_> = records
            .iter()
            .filter(|r| r.kind == "exchange" && r.request == "m1,m2,m3")
            .collect();
        assert!(!queries.is_empty() && !translates.is_empty() && !exchanges.is_empty());
        let q = queries.last().unwrap();
        assert_eq!(q.rows, direct.rows.len() as u64);
        assert_eq!(q.outcome, "ok");
        assert!(q.wall_ns > 0);
        assert!(q.tuples_scanned > 0);
        assert_eq!(q.fingerprint.len(), 16);
        let t = translates.last().unwrap();
        assert_eq!(t.rows, translated.rows.len() as u64);
        // Direct and translated runs of the same text share a fingerprint,
        // so the two paths join on it in the audit view.
        assert_eq!(q.fingerprint, t.fingerprint);
        let x = exchanges.last().unwrap();
        assert!(x.rows > 0);
    }

    #[test]
    fn audit_records_guard_outcome() {
        let _audit = audit_on();
        let tagged = figure1();
        let marker = "select a.hid, b.hid from Portal.estates a, Portal.estates b";
        let q = parse_query(marker).unwrap();
        let budget = Budget {
            max_rows: Some(1),
            ..Budget::default()
        };
        let err = tagged
            .execute(Request::Query(&q), &budget, false)
            .unwrap_err();
        assert!(err.guard().is_some());
        let mine = audited("Portal.estates b");
        assert!(!mine.is_empty());
        assert!(
            mine.last().unwrap().outcome.starts_with("guard:"),
            "expected guard outcome, got {:?}",
            mine.last().unwrap().outcome
        );
    }

    #[test]
    fn each_request_writes_exactly_one_audit_record() {
        let _audit = audit_on();
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        // One distinct marker (a string constant no other test uses) per
        // request, so each request's records are told apart in the log.
        let text = |marker: &str| {
            format!("select e.hid from Portal.estates e where e.contact != '{marker}'")
        };
        let unlimited = Budget::unlimited();
        let tripping = Budget {
            max_rows: Some(1),
            ..Budget::default()
        };
        tagged.query(&text("one-audit-query")).unwrap();
        tagged
            .run(&parse_query(&text("one-audit-run")).unwrap())
            .unwrap();
        let plan = tagged.plan_for(&text("one-audit-run-plan")).unwrap();
        tagged.run_plan(&plan).unwrap();
        let q = parse_query(&text("one-audit-analyze")).unwrap();
        let (_, node) = tagged
            .execute(Request::Query(&q), &unlimited, true)
            .unwrap();
        assert!(node.is_some(), "analyze returns the operator tree");
        let q = parse_query(&text("one-audit-guard")).unwrap();
        let err = tagged
            .execute(Request::Query(&q), &tripping, false)
            .unwrap_err();
        assert!(err.guard().is_some());
        let q = parse_query(&text("one-audit-translate")).unwrap();
        runner.run(&tagged, &q).unwrap();
        for (marker, kind, outcome) in [
            ("one-audit-query", "query", "ok"),
            ("one-audit-run", "query", "ok"),
            ("one-audit-run-plan", "query.planned", "ok"),
            ("one-audit-analyze", "query", "ok"),
            ("one-audit-guard", "query", "guard:rows"),
            ("one-audit-translate", "translate", "ok"),
        ] {
            let quoted = format!("'{marker}'");
            let mine = audited(&quoted);
            assert_eq!(mine.len(), 1, "{marker}: {mine:?}");
            assert_eq!(mine[0].kind, kind, "{marker}");
            assert_eq!(mine[0].outcome, outcome, "{marker}");
        }
    }

    #[test]
    fn translated_order_key_outside_select_is_rejected_verbatim() {
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let q = parse_query("select x.hid from Portal.estates x order by x.value").unwrap();
        let err = runner.run(&tagged, &q).unwrap_err();
        assert_eq!(
            err.to_string(),
            "translated execution requires order-by keys to appear in the select \
             clause; `x.value` does not"
        );
    }

    #[test]
    fn setting_reusable_across_runners() {
        let setting = figure1_setting();
        let r1 = MetaRunner::new(&setting).unwrap();
        let r2 = MetaRunner::new(&setting).unwrap();
        assert_eq!(r1.store().elements.len(), r2.store().elements.len());
    }
}
