//! Mapping settings and tagged instances (Definitions 5.1 and 5.2).
//!
//! A *mapping setting* is a triple `<Ss, St, M>`: source schemas, a target
//! schema, and mappings from sources to target. A *tagged instance* pairs a
//! target instance generated through the mappings with the functions
//! `f_el` (value → schema element) and `f_mp` (value → generating mappings),
//! carried here as per-node annotations, and makes databases, schema
//! elements and mappings first-class queryable values.

use dtr_mapping::exchange::{
    execute_mappings_with, ExchangeError, ExchangeOptions, ExchangeReport,
};
use dtr_mapping::glav::{Mapping, MappingError};
use dtr_mapping::triple::{extract_triple, MappingTriple};
use dtr_model::instance::{Instance, NodeId};
use dtr_model::schema::Schema;
use dtr_model::value::{AtomicValue, ElementRef, MappingName};
use dtr_obs::guard::{Budget, GuardError};
use dtr_query::ast::Query;
use dtr_query::check::CheckError;
use dtr_query::eval::{
    Catalog, EvalError, EvalOptions, Evaluator, MetaEnv, PredTriple, QueryResult, Source,
};
use dtr_query::functions::FunctionRegistry;
use dtr_query::parser::{parse_query, ParseError};
use dtr_query::plan::{CompiledPlan, PlanCache, PlanCacheStats};
use std::fmt;
use std::sync::Arc;

/// Errors from the MXQL surface: parsing, checking, evaluation, exchange.
#[derive(Debug)]
pub enum MxqlError {
    /// Query text failed to parse.
    Parse(ParseError),
    /// A query failed static checking.
    Check(CheckError),
    /// A mapping is malformed.
    Mapping(MappingError),
    /// Evaluation failed.
    Eval(EvalError),
    /// The exchange failed.
    Exchange(ExchangeError),
    /// A resource budget was exhausted outside evaluation/exchange (e.g.
    /// during translation or metastore encoding).
    Guard(GuardError),
    /// A file/storage operation failed. Structured: the path and the
    /// operation are data, so callers (REPL, experiments, CI) can report
    /// *which* file broke without string-parsing — and never panic.
    Io {
        /// Path the operation targeted.
        path: String,
        /// Operation name (`read`, `append`, `sync`, `write`, ...).
        op: String,
        /// Underlying error message.
        msg: String,
    },
    /// Miscellaneous (e.g. unknown mapping name).
    Other(String),
}

impl MxqlError {
    /// The structured [`GuardError`] behind this error, if a resource
    /// budget was the cause — regardless of which pipeline stage tripped
    /// (evaluation, exchange, translation, or encoding).
    pub fn guard(&self) -> Option<&GuardError> {
        match self {
            MxqlError::Guard(g) | MxqlError::Eval(EvalError::Guard(g)) => Some(g),
            MxqlError::Exchange(ExchangeError::Guard { error, .. }) => Some(error),
            MxqlError::Exchange(ExchangeError::Eval(EvalError::Guard(g))) => Some(g),
            _ => None,
        }
    }
}

impl fmt::Display for MxqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MxqlError::Parse(e) => write!(f, "{e}"),
            MxqlError::Check(e) => write!(f, "{e}"),
            MxqlError::Mapping(e) => write!(f, "{e}"),
            MxqlError::Eval(e) => write!(f, "{e}"),
            MxqlError::Exchange(e) => write!(f, "{e}"),
            MxqlError::Guard(g) => write!(f, "{g}"),
            MxqlError::Io { path, op, msg } => write!(f, "io error: {op} {path}: {msg}"),
            MxqlError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for MxqlError {}

impl From<ParseError> for MxqlError {
    fn from(e: ParseError) -> Self {
        MxqlError::Parse(e)
    }
}
impl From<CheckError> for MxqlError {
    fn from(e: CheckError) -> Self {
        MxqlError::Check(e)
    }
}
impl From<MappingError> for MxqlError {
    fn from(e: MappingError) -> Self {
        MxqlError::Mapping(e)
    }
}
impl From<EvalError> for MxqlError {
    fn from(e: EvalError) -> Self {
        MxqlError::Eval(e)
    }
}
impl From<ExchangeError> for MxqlError {
    fn from(e: ExchangeError) -> Self {
        MxqlError::Exchange(e)
    }
}
impl From<GuardError> for MxqlError {
    fn from(g: GuardError) -> Self {
        MxqlError::Guard(g)
    }
}

/// A mapping setting `<Ss, St, M>` (Definition 5.1), with the `⟨Es,Et,Wc⟩`
/// triple of every mapping pre-extracted.
pub struct MappingSetting {
    source_schemas: Vec<Schema>,
    target_schema: Schema,
    mappings: Vec<Mapping>,
    triples: Vec<MappingTriple>,
}

impl MappingSetting {
    /// Builds and validates a mapping setting.
    pub fn new(
        source_schemas: Vec<Schema>,
        target_schema: Schema,
        mappings: Vec<Mapping>,
    ) -> Result<Self, MxqlError> {
        let refs: Vec<&Schema> = source_schemas.iter().collect();
        let mut triples = Vec::with_capacity(mappings.len());
        for m in &mappings {
            m.validate(&refs, &target_schema)?;
            triples.push(extract_triple(m, &refs, &target_schema)?);
        }
        Ok(MappingSetting {
            source_schemas,
            target_schema,
            mappings,
            triples,
        })
    }

    /// The source schemas `Ss`.
    pub fn source_schemas(&self) -> &[Schema] {
        &self.source_schemas
    }

    /// The target schema `St`.
    pub fn target_schema(&self) -> &Schema {
        &self.target_schema
    }

    /// The mappings `M`.
    pub fn mappings(&self) -> &[Mapping] {
        &self.mappings
    }

    /// A mapping by name.
    pub fn mapping(&self, name: &MappingName) -> Option<&Mapping> {
        self.mappings.iter().find(|m| m.name == *name)
    }

    /// The `⟨Es,Et,Wc⟩` triple of a mapping.
    pub fn triple(&self, name: &MappingName) -> Option<&MappingTriple> {
        self.mappings
            .iter()
            .position(|m| m.name == *name)
            .map(|i| &self.triples[i])
    }

    /// A source schema by database name.
    pub fn source_schema(&self, db: &str) -> Option<&Schema> {
        self.source_schemas.iter().find(|s| s.name() == db)
    }

    /// Normalizes element-path constants in mapping predicates and in
    /// comparisons against element-typed variables, resolving them against
    /// the setting's schemas. This erases the "documentation segments" the
    /// paper's examples use (`/Portal/estates/estate/stories` for the
    /// canonical `/Portal/estates/stories`) so that predicate matching is
    /// purely syntactic afterwards.
    pub fn normalize_query(&self, q: &Query) -> Query {
        use dtr_query::ast::{Condition, Expr, Term};
        let mut out = q.clone();
        // Variables standing for elements (implicitly typed by their
        // predicate positions).
        let mut elem_vars: Vec<String> = Vec::new();
        for c in &q.conditions {
            if let Condition::MapPred(p) = c {
                for t in [&p.src_elem, &p.tgt_elem] {
                    if let Term::Var(v) = t {
                        if !elem_vars.contains(v) {
                            elem_vars.push(v.clone());
                        }
                    }
                }
            }
        }
        let normalize = |text: &str, db: Option<&str>| -> Option<String> {
            let schemas: Vec<&Schema> = std::iter::once(&self.target_schema)
                .chain(self.source_schemas.iter())
                .filter(|s| db.is_none_or(|d| s.name() == d))
                .collect();
            for s in schemas {
                if let Some(e) = s.resolve_path(text) {
                    return Some(s.path(e));
                }
            }
            None
        };
        for c in &mut out.conditions {
            match c {
                Condition::MapPred(p) => {
                    let src_db = match &p.src_db {
                        Term::Const(d) => Some(d.to_string()),
                        _ => None,
                    };
                    let tgt_db = match &p.tgt_db {
                        Term::Const(d) => Some(d.to_string()),
                        _ => None,
                    };
                    for (term, db) in [(&mut p.src_elem, src_db), (&mut p.tgt_elem, tgt_db)] {
                        if let Term::Const(cst) = term {
                            if let Some(canon) = normalize(&cst.to_string(), db.as_deref()) {
                                *term = Term::Const(AtomicValue::Str(canon));
                            }
                        }
                    }
                }
                Condition::Cmp(cmp) => {
                    let elemish = |e: &Expr| match e {
                        Expr::ElemOf(_) => true,
                        Expr::Path(p) => {
                            p.steps.is_empty()
                                && p.start_var()
                                    .is_some_and(|v| elem_vars.iter().any(|x| x == v))
                        }
                        _ => false,
                    };
                    let left_is_elem = elemish(&cmp.left);
                    let right_is_elem = elemish(&cmp.right);
                    let target = if left_is_elem {
                        &mut cmp.right
                    } else if right_is_elem {
                        &mut cmp.left
                    } else {
                        continue;
                    };
                    if let Expr::Const(AtomicValue::Str(s)) = target {
                        if let Some(canon) = normalize(s, None) {
                            *target = Expr::Const(AtomicValue::Str(canon));
                        }
                    }
                }
            }
        }
        out
    }

    /// All `(source element, mapping, target element)` triples satisfying
    /// the mapping predicate — the [`MetaEnv`] feed.
    ///
    /// * single arrow (`double == false`): the select-position
    ///   correspondences, i.e. the pairs `(es = et) ∈ Wc` across schemas;
    /// * double arrow (`double == true`): every pair of a foreach
    ///   select-or-where element with a populated target element
    ///   (the Theorem 6.4 semantics; see DESIGN.md on why the select side
    ///   is included).
    pub fn predicate_triples(&self, double: bool) -> Vec<PredTriple> {
        let mut out = Vec::new();
        for (m, t) in self.mappings.iter().zip(&self.triples) {
            if !double {
                for (src, tgt) in &t.correspondences {
                    out.push(PredTriple {
                        src: src.clone(),
                        mapping: m.name.clone(),
                        tgt: tgt.clone(),
                    });
                }
            } else {
                let what = t.what_elements();
                for tgt in t.populated_elements() {
                    for src in &what {
                        out.push(PredTriple {
                            src: src.clone(),
                            mapping: m.name.clone(),
                            tgt: tgt.clone(),
                        });
                    }
                }
            }
        }
        out.dedup();
        out
    }
}

impl MetaEnv for MappingSetting {
    fn triples(&self, double: bool) -> Vec<PredTriple> {
        self.predicate_triples(double)
    }
}

/// Audit-log outcome string for a failed request: `"guard:<resource>"`
/// when a resource budget tripped, `"error"` otherwise.
fn audit_outcome(err: &MxqlError) -> String {
    match err.guard() {
        Some(g) => format!("guard:{}", g.resource.name()),
        None => "error".to_string(),
    }
}

/// Records a completed query-shaped request in the audit log, filling the
/// `EvalStats` columns from the result. Called only when auditing is on.
pub(crate) fn audit_query(
    kind: &str,
    request: String,
    started: std::time::Instant,
    out: Result<&QueryResult, &MxqlError>,
) {
    let mut rec = dtr_obs::AuditRecord::new(kind, request);
    rec.wall_ns = started.elapsed().as_nanos() as u64;
    match out {
        Ok(result) => {
            rec.rows = result.rows.len() as u64;
            rec.tuples_scanned = result.stats.tuples_scanned;
            rec.bindings_enumerated = result.stats.bindings_enumerated;
            rec.predicate_triples_tested = result.stats.predicate_triples_tested;
            rec.hash_probes = result.stats.hash_probes;
        }
        Err(e) => rec.outcome = audit_outcome(e),
    }
    dtr_obs::audit::record(rec);
}

/// One request for [`TaggedInstance::execute`].
#[derive(Clone, Copy)]
pub enum Request<'a> {
    /// A parsed query as written: normalized, then evaluated unplanned in
    /// its own binding order (the reference the planner is checked
    /// against).
    Query(&'a Query),
    /// A compiled plan from [`TaggedInstance::plan_for`] or
    /// [`TaggedInstance::plan_with_stats`]: executed as planned, with no
    /// re-parse or re-normalization.
    Plan(&'a CompiledPlan),
}

/// A tagged instance (Definition 5.2): the annotated target instance plus
/// its mapping setting and source instances, ready for MXQL querying.
pub struct TaggedInstance {
    setting: MappingSetting,
    source_instances: Vec<Instance>,
    target: Instance,
    functions: FunctionRegistry,
    report: ExchangeReport,
    /// Compiled plans keyed by query-text fingerprint (structurally
    /// confirmed on hit), so repeated traffic skips parse + check + plan.
    plans: PlanCache,
}

impl TaggedInstance {
    /// Materializes the target by executing every mapping of the setting
    /// over the source instances (which must be given in the same order as
    /// the setting's source schemas), annotating values with `f_el`/`f_mp`.
    pub fn exchange(
        setting: MappingSetting,
        source_instances: Vec<Instance>,
    ) -> Result<Self, MxqlError> {
        Self::exchange_with_options(setting, source_instances, &ExchangeOptions::default())
    }

    /// [`TaggedInstance::exchange`] with explicit exchange options
    /// (evaluator engine selection and parallel foreach evaluation).
    pub fn exchange_with_options(
        setting: MappingSetting,
        source_instances: Vec<Instance>,
        opts: &ExchangeOptions,
    ) -> Result<Self, MxqlError> {
        if !dtr_obs::audit::enabled() {
            return Self::exchange_inner(setting, source_instances, opts);
        }
        let request = {
            let mut names: Vec<&str> = setting.mappings.iter().map(|m| m.name.as_str()).collect();
            names.sort_unstable();
            names.join(",")
        };
        let started = std::time::Instant::now();
        let result = Self::exchange_inner(setting, source_instances, opts);
        let mut rec = dtr_obs::AuditRecord::new("exchange", request);
        rec.wall_ns = started.elapsed().as_nanos() as u64;
        match &result {
            Ok(tagged) => {
                rec.rows = tagged
                    .report
                    .per_mapping
                    .iter()
                    .map(|s| s.rows_inserted as u64)
                    .sum();
            }
            Err(e) => rec.outcome = audit_outcome(e),
        }
        dtr_obs::audit::record(rec);
        result
    }

    fn exchange_inner(
        setting: MappingSetting,
        mut source_instances: Vec<Instance>,
        opts: &ExchangeOptions,
    ) -> Result<Self, MxqlError> {
        let span = dtr_obs::span("exchange.tagged_instance")
            .field("sources", source_instances.len())
            .field("mappings", setting.mappings.len());
        if source_instances.len() != setting.source_schemas.len() {
            return Err(MxqlError::Other(format!(
                "{} source instances for {} source schemas",
                source_instances.len(),
                setting.source_schemas.len()
            )));
        }
        // Element-annotate the sources so @elem works on them too.
        for (inst, schema) in source_instances.iter_mut().zip(&setting.source_schemas) {
            inst.annotate_elements(schema)
                .map_err(|e| MxqlError::Other(e.to_string()))?;
        }
        let functions = FunctionRegistry::with_builtins();
        let sources: Vec<Source<'_>> = setting
            .source_schemas
            .iter()
            .zip(&source_instances)
            .map(|(schema, instance)| Source { schema, instance })
            .collect();
        let (target, report) = execute_mappings_with(
            &sources,
            &setting.target_schema,
            &setting.mappings,
            &functions,
            opts,
        )?;
        span.record("target_nodes", target.len());
        Ok(TaggedInstance {
            setting,
            source_instances,
            target,
            functions,
            report,
            plans: PlanCache::new(),
        })
    }

    /// Wraps an already-materialized annotated target instance (e.g. one
    /// read back from XML).
    pub fn from_parts(
        setting: MappingSetting,
        mut source_instances: Vec<Instance>,
        mut target: Instance,
    ) -> Result<Self, MxqlError> {
        for (inst, schema) in source_instances.iter_mut().zip(&setting.source_schemas) {
            inst.annotate_elements(schema)
                .map_err(|e| MxqlError::Other(e.to_string()))?;
        }
        target
            .annotate_elements(&setting.target_schema)
            .map_err(|e| MxqlError::Other(e.to_string()))?;
        Ok(TaggedInstance {
            setting,
            source_instances,
            target,
            functions: FunctionRegistry::with_builtins(),
            report: ExchangeReport::default(),
            plans: PlanCache::new(),
        })
    }

    /// Takes the setting, source instances and target back out, dropping
    /// the query state (function registry, report, plan cache).
    pub fn into_parts(self) -> (MappingSetting, Vec<Instance>, Instance) {
        (self.setting, self.source_instances, self.target)
    }

    /// The mapping setting.
    pub fn setting(&self) -> &MappingSetting {
        &self.setting
    }

    /// The annotated target instance `It`.
    pub fn target(&self) -> &Instance {
        &self.target
    }

    /// The source instances, in setting order.
    pub fn source_instances(&self) -> &[Instance] {
        &self.source_instances
    }

    /// The exchange report (tuple counts per mapping).
    pub fn report(&self) -> &ExchangeReport {
        &self.report
    }

    /// The function registry used by queries over this tagged instance.
    pub fn functions(&self) -> &FunctionRegistry {
        &self.functions
    }

    /// Mutable access to the function registry (to register custom
    /// functions).
    pub fn functions_mut(&mut self) -> &mut FunctionRegistry {
        &mut self.functions
    }

    /// A query catalog spanning the target and all source instances.
    pub fn catalog(&self) -> Catalog<'_> {
        let mut sources = vec![Source {
            schema: &self.setting.target_schema,
            instance: &self.target,
        }];
        for (schema, instance) in self
            .setting
            .source_schemas
            .iter()
            .zip(&self.source_instances)
        {
            sources.push(Source { schema, instance });
        }
        Catalog::new(sources)
    }

    /// A catalog over the sources only (used by provenance queries).
    pub fn source_catalog(&self) -> Catalog<'_> {
        Catalog::new(
            self.setting
                .source_schemas
                .iter()
                .zip(&self.source_instances)
                .map(|(schema, instance)| Source { schema, instance })
                .collect(),
        )
    }

    /// Evaluates a parsed (MXQL or plain) query directly — the native
    /// implementation of the Section 5 semantics, in the query's own
    /// binding order.
    pub fn run(&self, q: &Query) -> Result<QueryResult, MxqlError> {
        self.execute(Request::Query(q), &Budget::unlimited(), false)
            .map(|(r, _)| r)
    }

    /// Parses and evaluates MXQL text (unplanned, like [`TaggedInstance::run`]).
    pub fn query(&self, text: &str) -> Result<QueryResult, MxqlError> {
        self.run(&parse_query(text)?)
    }

    /// Executes a compiled plan (no parsing, checking or planning).
    pub fn run_plan(&self, plan: &CompiledPlan) -> Result<QueryResult, MxqlError> {
        self.execute(Request::Plan(plan), &Budget::unlimited(), false)
            .map(|(r, _)| r)
    }

    /// The one MXQL evaluation entry point: every other query call on this
    /// type funnels through it, and it writes the request's single audit
    /// record (kind `query` or `query.planned`).
    ///
    /// * `req` is a query as written ([`Request::Query`], normalized and
    ///   evaluated in its own binding order) or a compiled plan
    ///   ([`Request::Plan`], executed in the planned order with the plan's
    ///   engine options).
    /// * `budget` bounds this execution only (deadline, cancellation, row,
    ///   binding and byte caps; never baked into a cached plan). A tripped
    ///   budget returns a structured guard error, reachable via
    ///   [`MxqlError::guard`].
    /// * `analyze` runs in EXPLAIN ANALYZE mode and returns the operator
    ///   tree (actual rows in/out, wall time and guard charges per
    ///   operator, see `dtr_obs::analyze`) beside a result byte-identical
    ///   to the plain run; without it the tree is `None`.
    pub fn execute(
        &self,
        req: Request<'_>,
        budget: &Budget,
        analyze: bool,
    ) -> Result<(QueryResult, Option<dtr_obs::OpNode>), MxqlError> {
        let audit = dtr_obs::audit::enabled().then(|| {
            let request = match req {
                Request::Query(q) => q.to_string(),
                Request::Plan(plan) => plan.text.clone(),
            };
            (request, std::time::Instant::now())
        });
        let normalized;
        let (kind, q, base) = match req {
            Request::Query(q) => {
                normalized = self.setting.normalize_query(q);
                ("query", &normalized, EvalOptions::default())
            }
            Request::Plan(plan) => ("query.planned", &plan.query, plan.opts.clone()),
        };
        let catalog = self.catalog();
        let eval = Evaluator::new(&catalog, &self.functions)
            .with_meta(&self.setting)
            .with_options(EvalOptions {
                budget: budget.clone(),
                ..base
            });
        let result = if analyze {
            eval.run_analyzed(q).map(|(r, node)| (r, Some(node)))
        } else {
            eval.run(q).map(|r| (r, None))
        }
        .map_err(MxqlError::from);
        if let Some((request, started)) = audit {
            audit_query(kind, request, started, result.as_ref().map(|(r, _)| r));
        }
        result
    }

    /// The cached (or freshly compiled and cached) plan for `text`: a
    /// plan-cache hit (fingerprint keyed, structurally confirmed against
    /// the stored text) skips parse + check + plan entirely; a miss
    /// compiles the query (resolve, logical rewrites, cost-based physical
    /// planning from the current statistics snapshot) and caches it.
    /// Planned execution runs through the same evaluator kernels as
    /// [`TaggedInstance::run`], so guards, journal, stats and analyze all
    /// behave identically; bindings may execute in a planned order, so the
    /// result *multiset* matches `run` while row order may differ (never
    /// under `limit`, which pins the original order).
    pub fn plan_for(&self, text: &str) -> Result<Arc<CompiledPlan>, MxqlError> {
        if let Some(plan) = self.plans.lookup(text) {
            return Ok(plan);
        }
        let plan = Arc::new(self.compile_plan(text, &dtr_obs::stats::snapshot())?);
        self.plans.insert(Arc::clone(&plan));
        Ok(plan)
    }

    /// Compiles `text` against an explicit statistics catalog, bypassing
    /// the cache — deterministic planning for tests and `.explain`.
    pub fn plan_with_stats(
        &self,
        text: &str,
        stats: &dtr_obs::stats::StatsCatalog,
    ) -> Result<CompiledPlan, MxqlError> {
        self.compile_plan(text, stats)
    }

    fn compile_plan(
        &self,
        text: &str,
        stats: &dtr_obs::stats::StatsCatalog,
    ) -> Result<CompiledPlan, MxqlError> {
        let q = parse_query(text)?;
        let q = self.setting.normalize_query(&q);
        let mut schemas: Vec<&Schema> = vec![&self.setting.target_schema];
        schemas.extend(self.setting.source_schemas.iter());
        dtr_query::plan::compile(&q, schemas, stats, text, EvalOptions::default())
            .map_err(MxqlError::Check)
    }

    /// Plan-cache counters (hits, misses, structural-confirmation
    /// collisions) and entry count.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Drops every cached plan (benchmarks use this to measure cold-plan
    /// compilation cost).
    pub fn clear_plan_cache(&self) {
        self.plans.clear()
    }

    /// The `f_el` annotation of a target value, as an [`ElementRef`].
    pub fn element_of(&self, node: NodeId) -> Option<ElementRef> {
        let e = self.target.annotation(node).element?;
        Some(ElementRef::new(
            self.target.db(),
            self.setting.target_schema.path(e),
        ))
    }

    /// The `f_mp` annotation of a target value.
    pub fn mappings_of(&self, node: NodeId) -> &[MappingName] {
        &self.target.annotation(node).mappings
    }

    /// Convenience: the values of a target element (by canonical path) as
    /// `(node, atomic value)` pairs.
    pub fn target_values(&self, path: &str) -> Vec<(NodeId, AtomicValue)> {
        let Some(e) = self.setting.target_schema.resolve_path(path) else {
            return Vec::new();
        };
        self.target
            .interpretation(e)
            .into_iter()
            .filter_map(|n| self.target.atomic(n).map(|v| (n, v.clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::figure1;

    #[test]
    fn exchange_builds_tagged_instance() {
        let t = figure1();
        assert_eq!(t.report().tuples.len(), 3);
        assert_eq!(t.target().db(), "Pdb");
        // Figure 3: two estates, two contacts (HomeGain merged).
        assert_eq!(t.target_values("/Portal/estates/hid").len(), 3);
        assert_eq!(t.target_values("/Portal/contacts/title").len(), 2);
    }

    #[test]
    fn example_5_4_map_operator() {
        // Example 5.4: prices with the mappings that generated them.
        let t = figure1();
        let r = t
            .query("select x.hid, x.value, m from Portal.estates x, x.value@map m")
            .unwrap();
        // Three estates, each with exactly one generating mapping.
        assert_eq!(r.len(), 3);
        let pairs: Vec<(String, String)> = r
            .tuples()
            .into_iter()
            .map(|t| (t[0].to_string(), t[2].to_string()))
            .collect();
        assert!(pairs.contains(&("H522".into(), "m2".into())));
        assert!(pairs.contains(&("H7".into(), "m1".into())));
        assert!(pairs.contains(&("H2525".into(), "m3".into())));
    }

    #[test]
    fn example_5_5_firm_contacts() {
        // Example 5.5: estates whose contact is a USdb firm, with the
        // mapping that generated the title. Expected: ('H522', 'm2').
        let t = figure1();
        let r = t
            .query(
                "select s.hid, m
                 from Portal.estates s, Portal.contacts c, c.title@map m
                 where s.contact = c.title and e = c.title@elem
                   and <'USdb':'US/agents/title/firm' -> m -> 'Pdb':e>",
            )
            .unwrap();
        let mut tuples: Vec<(String, String)> = r
            .distinct_tuples()
            .into_iter()
            .map(|t| (t[0].to_string(), t[1].to_string()))
            .collect();
        tuples.sort();
        // The paper reports only ('H522','m2'), but by the formal semantics
        // the merged HomeGain contact (Figure 3's {m2,m3} union) joins
        // estate H2525 as well, so (H2525,'m2') also satisfies the query.
        assert_eq!(
            tuples,
            vec![
                ("H2525".to_string(), "m2".to_string()),
                ("H522".to_string(), "m2".to_string())
            ]
        );
        // Constraining the estate itself to the same mapping recovers the
        // paper's intended single answer.
        let r2 = t
            .query(
                "select s.hid, m
                 from Portal.estates s, Portal.contacts c, c.title@map m, s.value@map ms
                 where s.contact = c.title and ms = m and e = c.title@elem
                   and <'USdb':'US/agents/title/firm' -> m -> 'Pdb':e>",
            )
            .unwrap();
        let tuples2: Vec<(String, String)> = r2
            .distinct_tuples()
            .into_iter()
            .map(|t| (t[0].to_string(), t[1].to_string()))
            .collect();
        assert_eq!(tuples2, vec![("H522".to_string(), "m2".to_string())]);
    }

    #[test]
    fn example_5_6_stories_origin() {
        // Example 5.6: where do the values of `stories` originate?
        let t = figure1();
        let r = t
            .query("select e from where <db:e -> m -> 'Pdb':'/Portal/estates/estate/stories'>")
            .unwrap();
        let mut elems: Vec<String> = r
            .distinct_tuples()
            .into_iter()
            .map(|t| t[0].to_string())
            .collect();
        elems.sort();
        // The paper: "returns Element type values floors and levels".
        assert_eq!(
            elems,
            vec![
                "EUdb:/EU/postings/levels".to_string(),
                "USdb:/US/houses/floors".to_string()
            ]
        );
    }

    #[test]
    fn example_5_7_double_arrow_includes_aid() {
        // Example 5.7: elements whose values affect the title element.
        let t = figure1();
        let r = t
            .query(
                "select c.title, es
                 from Portal.estates s, Portal.contacts c, c.title@map m
                 where s.contact = c.title and e = c.title@elem
                   and <'USdb':es => m => 'Pdb':e>",
            )
            .unwrap();
        let elems: Vec<String> = r
            .distinct_tuples()
            .into_iter()
            .map(|t| t[1].to_string())
            .collect();
        // aid participates via the join although it populates nothing.
        assert!(elems.contains(&"USdb:/US/houses/aid".to_string()));
        assert!(elems.contains(&"USdb:/US/agents/aid".to_string()));
        // where-provenance elements are included too.
        assert!(elems.contains(&"USdb:/US/agents/title/firm".to_string()));
    }

    #[test]
    fn triples_shape() {
        let t = figure1();
        let single = t.setting().predicate_triples(false);
        let double = t.setting().predicate_triples(true);
        // Each of the three mappings contributes five correspondences.
        assert_eq!(single.len(), 15);
        // The double-arrow set is a superset of the single-arrow set.
        for pt in &single {
            assert!(
                double.contains(pt),
                "single-arrow triple {pt:?} missing from double-arrow set"
            );
        }
    }

    #[test]
    fn from_parts_round_trip() {
        let t = figure1();
        let xml = dtr_xml::writer::instance_to_xml(
            t.target(),
            dtr_xml::writer::WriteOptions::annotated(),
        );
        let target2 =
            dtr_xml::parser::instance_from_xml(&xml, t.setting().target_schema()).unwrap();
        let setting2 = crate::testkit::figure1_setting();
        let sources2 = crate::testkit::figure1_sources();
        let t2 = TaggedInstance::from_parts(setting2, sources2, target2).unwrap();
        let q = "select x.hid, m from Portal.estates x, x.value@map m";
        assert_eq!(
            t.query(q).unwrap().distinct_tuples(),
            t2.query(q).unwrap().distinct_tuples()
        );
    }

    #[test]
    fn naive_and_pushdown_evaluation_agree_on_mxql() {
        use dtr_query::eval::EvalOptions;
        use dtr_query::parser::parse_query;
        let t = figure1();
        for text in [
            "select x.hid, x.value, m from Portal.estates x, x.value@map m",
            "select e from where <db:e -> m -> 'Pdb':'/Portal/estates/stories'>",
            "select c.title, es
             from Portal.estates s, Portal.contacts c, c.title@map m
             where s.contact = c.title and e = c.title@elem
               and <'USdb':es => m => 'Pdb':e>",
        ] {
            let q = parse_query(text).unwrap();
            let fast = t.run(&q).unwrap();
            // Engine modes are an evaluator-layer choice.
            let naive = Evaluator::new(&t.catalog(), t.functions())
                .with_meta(t.setting())
                .with_options(EvalOptions {
                    pushdown: false,
                    hash_join: false,
                    ..Default::default()
                })
                .run(&t.setting().normalize_query(&q))
                .unwrap();
            let s = |r: &dtr_query::eval::QueryResult| {
                let mut v: Vec<String> = r.tuples().iter().map(|row| format!("{row:?}")).collect();
                v.sort();
                v
            };
            assert_eq!(s(&fast), s(&naive), "disagreement on {text}");
        }
    }

    #[test]
    fn normalize_query_resolves_documentation_segments() {
        use dtr_query::ast::{Condition, Term};
        use dtr_query::parser::parse_query;
        let setting = crate::testkit::figure1_setting();
        let q = parse_query(
            "select e from where <db:e -> m -> 'Pdb':'/Portal/estates/estate/stories'>",
        )
        .unwrap();
        let n = setting.normalize_query(&q);
        match &n.conditions[0] {
            Condition::MapPred(p) => {
                assert_eq!(
                    p.tgt_elem,
                    Term::Const(AtomicValue::Str("/Portal/estates/stories".into()))
                );
            }
            other => panic!("{other:?}"),
        }
        // Unresolvable constants are left untouched.
        let q2 = parse_query("select e from where <db:e -> m -> 'Pdb':'/Nope/nothing'>").unwrap();
        let n2 = setting.normalize_query(&q2);
        match &n2.conditions[0] {
            Condition::MapPred(p) => {
                assert_eq!(
                    p.tgt_elem,
                    Term::Const(AtomicValue::Str("/Nope/nothing".into()))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn normalize_query_rewrites_elem_comparison_constants() {
        use dtr_query::ast::{Condition, Expr};
        use dtr_query::parser::parse_query;
        let setting = crate::testkit::figure1_setting();
        let q = parse_query(
            "select s.hid from Portal.estates s
             where e = '/Portal/estates/estate/value'
               and <db:e2 -> m -> 'Pdb':e>",
        )
        .unwrap();
        let n = setting.normalize_query(&q);
        let found = n.conditions.iter().any(|c| {
            matches!(c, Condition::Cmp(cmp)
                if matches!(&cmp.right, Expr::Const(AtomicValue::Str(s))
                    if s == "/Portal/estates/value"))
        });
        assert!(found, "{n}");
    }

    #[test]
    fn error_displays_are_informative() {
        let e = MxqlError::Other("boom".into());
        assert_eq!(e.to_string(), "boom");
        let t = figure1();
        let err = t.query("select nope from").unwrap_err();
        assert!(err.to_string().contains("unknown root") || !err.to_string().is_empty());
    }

    #[test]
    fn unknown_mapping_lookup() {
        let t = figure1();
        assert!(t.setting().mapping(&MappingName::new("m9")).is_none());
        assert!(t.setting().triple(&MappingName::new("m1")).is_some());
    }
}
