//! Incremental data exchange: delta-driven re-evaluation of GLAV mappings.
//!
//! A full exchange re-derives the whole target from scratch on every source
//! change. This engine instead applies a [`SourceDelta`] in four stages:
//!
//! 1. **Mapping pruning** — a mapping is *affected* only when one of its
//!    foreach from-items is a root-rooted path equal to a changed set path
//!    (the same root-rooted path keys the PR 6 statistics catalog uses).
//!    Unaffected mappings are skipped entirely.
//! 2. **Semi-naive re-enumeration** — when exactly one from-item of an
//!    affected mapping touches the changed set, the foreach query is run
//!    twice with that item's member domain restricted (deleted members over
//!    the old sources, inserted members over the new), layered on the PR 4
//!    hash-join via [`dtr_query::eval::EvalOptions::domains`]. Self-joins
//!    and exotic from sources conservatively fall back to a full foreach
//!    re-evaluation plus a multiset diff of the row bags.
//! 3. **Retraction by journal replay** — target rows are organized into
//!    *member classes* (one top-level PNF member plus its subtree). The
//!    engine keeps, per class, the multiset of foreach rows each mapping
//!    contributed — the same `f_mp` binding fingerprints the provenance
//!    journal records. A class touched by removed/added rows is detached
//!    (annotations stripped, merge-index entries pruned) and rebuilt by
//!    replaying only its surviving rows, in mapping order, with the insert
//!    mask restricted to the class's binding chains. PNF re-merge and
//!    collision splits replay naturally through the exchange merge index,
//!    confined to the affected sets.
//! 4. **Skeleton sync** — mappings whose row bag transitions to/from empty
//!    have their `f_mp` names added/removed along the skeleton chains, and
//!    chain nodes left with no annotations and no children are detached,
//!    so the target matches what a from-scratch exchange would build.
//!
//! Correctness rests on the annotation closed form: the final `f_mp` set of
//! any node depends only on *which* rows each mapping contributed, never on
//! the order rows were inserted, so replaying a class's surviving rows in
//! mapping order reproduces the exact annotated subtree a full re-exchange
//! would produce (canonically — arena node ids differ). The conformance law
//! `law_incremental` in dtr-check holds this identity over generated update
//! streams, including the synthesized [`ExchangeReport`].

use crate::delta::{DeltaError, EditOp, SourceDelta, TargetChange, TargetDelta};
use crate::exchange::{
    build_member_reference, effective_eval, eval_foreach, plan_exists, value_fingerprint,
    BindingTouch, Exchange, ExchangeError, ExchangeOptions, ExchangeReport, MappingStats,
    MemberShape, Parent, Plan,
};
use crate::glav::Mapping;
use dtr_model::instance::{Instance, NodeId, Value};
use dtr_model::schema::Schema;
use dtr_model::value::AtomicValue;
use dtr_query::ast::{Expr, PathStart};
use dtr_query::eval::Source;
use dtr_query::functions::FunctionRegistry;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hasher;
use std::sync::Arc;

/// A foreach tuple.
type Row = Vec<AtomicValue>;
/// A multiset of foreach tuples.
type Bag = HashMap<Row, usize>;

/// Total-order key over rows, used wherever `HashMap` iteration order
/// would otherwise leak into the target's member order (atomic values
/// carry floats, so `Row` has no `Ord`). The `Debug` rendering
/// distinguishes variants — `Str("1")` never collides with `Int(1)` — so
/// the order is collision-free and identical across processes, which is
/// what makes crash recovery replay byte-identical.
fn row_order_key(row: &Row) -> String {
    format!("{row:?}")
}

/// The retraction index entry for one top-level member class: the member's
/// set, its fingerprint, and — per contributing mapping — the multiset of
/// foreach rows routed into this class (with the bitmask of root bindings
/// that routed them) plus the insert/merge event counts confined to the
/// class's chains. Keyed by the member's current node id.
#[derive(Clone, Debug)]
struct ClassState {
    set: NodeId,
    fp: u64,
    /// mapping index → row → (multiplicity, root-binding bitmask).
    rows: BTreeMap<usize, HashMap<Row, (usize, u64)>>,
    /// mapping index → (member-binding insert events, merge events).
    stats: BTreeMap<usize, (usize, usize)>,
}

impl Default for ClassState {
    fn default() -> Self {
        ClassState {
            set: NodeId(u32::MAX),
            fp: 0,
            rows: BTreeMap::new(),
            stats: BTreeMap::new(),
        }
    }
}

impl ClassState {
    fn is_drained(&self) -> bool {
        self.rows.values().all(HashMap::is_empty)
    }

    fn remaining_rows(&self) -> usize {
        self.rows
            .values()
            .flat_map(|per| per.values().map(|&(n, _)| n))
            .sum()
    }
}

/// How one apply re-enumerates a mapping's foreach rows.
enum Reeval {
    /// No from-item can touch a changed path: skip.
    Pruned,
    /// Exactly one from-item (at this index, with this path key) touches:
    /// two restricted evaluations (deleted domain over old sources,
    /// inserted domain over new).
    Restricted(String),
    /// Conservative full re-evaluation plus multiset bag diff.
    Full,
}

/// One resolved edit batch against one source set.
struct SetChange {
    source: usize,
    set: NodeId,
    path: String,
    /// Member list before the batch (for rollback).
    original: Vec<NodeId>,
    /// Pre-existing members the batch removes.
    deleted: Vec<NodeId>,
    /// Values the batch appends (insert-then-delete already cancelled).
    inserted_values: Vec<Value>,
    /// Node ids of the appended members (filled at mutation time).
    inserted: Vec<NodeId>,
}

/// The incremental exchange engine. Owns its sources, target and retraction
/// index; constructed by a full build, advanced by [`IncrementalExchange::apply`],
/// reset by [`IncrementalExchange::rebase`].
pub struct IncrementalExchange {
    source_schemas: Vec<Schema>,
    sources: Vec<Instance>,
    target_schema: Schema,
    mappings: Vec<Mapping>,
    functions: FunctionRegistry,
    opts: ExchangeOptions,
    member_fp: Option<fn(&Value) -> u64>,
    plans: Vec<Plan>,
    root_of: Vec<Vec<usize>>,
    bags: Vec<Bag>,
    target: Instance,
    merge_index: HashMap<(NodeId, u64), Vec<(Value, NodeId)>>,
    classes: HashMap<NodeId, ClassState>,
    report: ExchangeReport,
    batch: u64,
}

impl IncrementalExchange {
    /// Builds the initial target with a full exchange and the retraction
    /// index alongside it. `source_schemas` and `sources` are aligned.
    pub fn new(
        source_schemas: Vec<Schema>,
        sources: Vec<Instance>,
        target_schema: Schema,
        mappings: Vec<Mapping>,
        functions: FunctionRegistry,
        opts: ExchangeOptions,
    ) -> Result<Self, DeltaError> {
        let mut me = IncrementalExchange {
            source_schemas,
            sources,
            target: Instance::new(target_schema.name().to_string()),
            target_schema,
            mappings,
            functions,
            opts,
            member_fp: None,
            plans: Vec::new(),
            root_of: Vec::new(),
            bags: Vec::new(),
            merge_index: HashMap::new(),
            classes: HashMap::new(),
            report: ExchangeReport::default(),
            batch: 0,
        };
        me.rebase()?;
        Ok(me)
    }

    /// Overrides the member fingerprint used for PNF-merge bucketing (see
    /// [`Exchange::set_member_fingerprinter`] for the contract) and rebases
    /// so the whole index is built under the override. Conformance-testing
    /// hook for forcing collision splits under retraction.
    pub fn set_member_fingerprinter(&mut self, f: fn(&Value) -> u64) -> Result<(), DeltaError> {
        self.member_fp = Some(f);
        self.rebase()
    }

    /// Drops every increment and rebuilds target, bags, merge index and
    /// retraction index from the current sources with a full exchange.
    pub fn rebase(&mut self) -> Result<(), DeltaError> {
        let span = dtr_obs::span("exchange.incremental.rebase");
        let mut ex = Exchange::new(Vec::new(), &self.target_schema, &self.functions);
        if let Some(f) = self.member_fp {
            ex.set_member_fingerprinter(f);
        }
        ex.set_budget(&self.opts.budget);
        let eval = effective_eval(&self.opts);
        let views = source_views(&self.source_schemas, &self.sources);
        let mut plans = Vec::new();
        let mut roots = Vec::new();
        let mut bags = Vec::new();
        let mut classes: HashMap<NodeId, ClassState> = HashMap::new();
        for (mi, m) in self.mappings.iter().enumerate() {
            let plan = plan_exists(m, &self.target_schema)?;
            if plan.bindings.len() > 64 {
                return Err(DeltaError::Exchange(ExchangeError::Unsupported(format!(
                    "mapping {}: more than 64 exists bindings in incremental mode",
                    m.name
                ))));
            }
            let root_of = plan.root_of();
            let rows = eval_foreach(&views, &self.functions, m, eval.clone())?;
            let mut stats = MappingStats::default();
            let mut shapes: Vec<Option<MemberShape>> = Vec::new();
            shapes.resize_with(plan.bindings.len(), || None);
            let mut bag: Bag = HashMap::new();
            for row in rows {
                ex.meter.charge_rows(1).map_err(|g| ExchangeError::Guard {
                    error: g,
                    mappings_completed: mi,
                })?;
                let touches = ex.insert_row(
                    m,
                    &plan,
                    &row,
                    self.opts.member_templates,
                    &mut shapes,
                    &mut stats,
                    None,
                )?;
                record_row(&mut classes, &root_of, &touches, mi, &row);
                *bag.entry(row).or_insert(0) += 1;
            }
            plans.push(plan);
            roots.push(root_of);
            bags.push(bag);
        }
        ex.target
            .annotate_elements(&self.target_schema)
            .map_err(|e| ExchangeError::Conformance(e.to_string()))?;
        self.plans = plans;
        self.root_of = roots;
        self.bags = bags;
        self.target = ex.target;
        self.merge_index = ex.merge_index;
        self.classes = classes;
        self.batch = 0;
        self.synthesize_report();
        // Rebase rebuilds every set from scratch: merge fresh path counts
        // and invalidate plans compiled against the pre-rebase catalog.
        if dtr_obs::stats::enabled() {
            let mut local = dtr_obs::StatsCatalog::new();
            for s in &self.sources {
                crate::exchange::collect_instance_stats(&mut local, s);
            }
            crate::exchange::collect_instance_stats(&mut local, &self.target);
            dtr_obs::stats::merge(&local);
        }
        dtr_obs::stats::bump_cardinality_version();
        span.record("classes", self.classes.len());
        Ok(())
    }

    /// Applies one edit batch: mutates the sources and brings the target —
    /// instance, annotations, merge index and report — to exactly what a
    /// full re-exchange over the mutated sources would produce
    /// (canonically). On error nothing is changed: resolution errors abort
    /// before any mutation, and mid-batch failures (budget trips included)
    /// roll both sides back.
    pub fn apply(&mut self, delta: &SourceDelta) -> Result<TargetDelta, DeltaError> {
        let started = std::time::Instant::now();
        let span = dtr_obs::span("exchange.incremental.apply").field("edits", delta.edits.len());
        // Deep target-side snapshot only when a budget can trip mid-replay;
        // source sets are always restorable from the per-set originals.
        let snapshot = self.opts.budget.is_limited().then(|| {
            (
                self.bags.clone(),
                self.target.clone(),
                self.merge_index.clone(),
                self.classes.clone(),
            )
        });
        let mut changes = self.resolve(delta)?;
        let result = self.apply_resolved(&mut changes);
        match result {
            Ok(mut td) => {
                self.batch += 1;
                td.batch = self.batch;
                td.edits = delta.edits.len();
                self.synthesize_report();
                // Keep the statistics catalog's set cardinalities — the
                // same root-rooted path keys the pruning index uses —
                // current for the mutated sets.
                if dtr_obs::stats::enabled() {
                    for c in &changes {
                        let n = self.sources[c.source]
                            .set_members(c.set)
                            .map_or(0, <[NodeId]>::len);
                        dtr_obs::stats::record_set(&c.path, n as u64);
                    }
                }
                // Cardinalities moved: cached plans compiled against the
                // pre-delta catalog must not be reused as-is.
                dtr_obs::stats::bump_cardinality_version();
                let counters = dtr_obs::counters();
                counters.delta_batches.incr();
                counters.delta_edits.add(delta.edits.len() as u64);
                counters.delta_rows_added.add(td.rows_added as u64);
                counters.delta_rows_removed.add(td.rows_removed as u64);
                counters
                    .delta_classes_rebuilt
                    .add(td.classes_rebuilt as u64);
                counters
                    .delta_mappings_pruned
                    .add(td.mappings_pruned as u64);
                counters
                    .delta_mappings_reevaluated
                    .add(td.mappings_reevaluated as u64);
                let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if dtr_obs::journal::enabled() {
                    dtr_obs::journal::record(dtr_obs::journal::event(
                        "exchange.apply_delta",
                        dtr_obs::journal::Outcome::DeltaApplied {
                            edits: td.edits as u64,
                            rebuilt: td.classes_rebuilt as u64,
                        },
                    ));
                }
                if dtr_obs::recorder::enabled() {
                    dtr_obs::recorder::record_delta_window(
                        self.batch,
                        td.edits as u64,
                        td.classes_rebuilt as u64,
                        td.retracted.len() as u64,
                        wall,
                    );
                    dtr_obs::recorder::sample_counters();
                }
                span.record("rebuilt", td.classes_rebuilt);
                Ok(td)
            }
            Err(e) => {
                // Roll the source sets back and re-derive their element
                // annotations, then restore the target-side state.
                for c in &changes {
                    self.sources[c.source].replace_children(c.set, c.original.clone());
                    for &d in &c.inserted {
                        self.sources[c.source].strip_annotations(d);
                    }
                    let _ =
                        self.sources[c.source].annotate_elements(&self.source_schemas[c.source]);
                }
                if let Some((bags, target, merge_index, classes)) = snapshot {
                    self.bags = bags;
                    self.target = target;
                    self.merge_index = merge_index;
                    self.classes = classes;
                }
                Err(e)
            }
        }
    }

    /// The annotated target instance as of the last apply.
    pub fn target(&self) -> &Instance {
        &self.target
    }

    /// The (mutated) source instances, aligned with [`IncrementalExchange::source_schemas`].
    pub fn sources(&self) -> &[Instance] {
        &self.sources
    }

    /// Starts a new dirty-tracking interval on the sources and the target
    /// (see [`Instance::refresh_from`]): called once their state has been
    /// copied out, so the next copy only needs the blocks written after.
    pub fn clear_dirty(&mut self) {
        for s in &mut self.sources {
            s.clear_dirty();
        }
        self.target.clear_dirty();
    }

    /// The source schemas.
    pub fn source_schemas(&self) -> &[Schema] {
        &self.source_schemas
    }

    /// The target schema.
    pub fn target_schema(&self) -> &Schema {
        &self.target_schema
    }

    /// The mappings this engine executes.
    pub fn mappings(&self) -> &[Mapping] {
        &self.mappings
    }

    /// The synthesized exchange report: per-mapping `tuples`, `bindings`,
    /// `rows_inserted` and `rows_merged` match what a full re-exchange over
    /// the current sources would report (annotation and wall-time fields
    /// are not maintained incrementally and stay zero).
    pub fn report(&self) -> &ExchangeReport {
        &self.report
    }

    /// Batches applied since the last rebase.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Resolves an edit batch against the sources *without mutating them*:
    /// sequential index resolution over a simulated member list, with
    /// insert-then-delete cancellation.
    fn resolve(&self, delta: &SourceDelta) -> Result<Vec<SetChange>, DeltaError> {
        enum Slot {
            Old(NodeId),
            New(usize),
        }
        let mut changes: Vec<SetChange> = Vec::new();
        let mut slots: Vec<Vec<Slot>> = Vec::new();
        let mut pending: Vec<Vec<Option<Value>>> = Vec::new();
        for edit in &delta.edits {
            let ci = match changes.iter().position(|c| c.path == edit.path) {
                Some(i) => i,
                None => {
                    let (source, set) = self.resolve_set_path(&edit.path)?;
                    let original = self.sources[source]
                        .set_members(set)
                        .expect("resolved to a set")
                        .to_vec();
                    slots.push(original.iter().map(|&n| Slot::Old(n)).collect());
                    pending.push(Vec::new());
                    changes.push(SetChange {
                        source,
                        set,
                        path: edit.path.clone(),
                        original,
                        deleted: Vec::new(),
                        inserted_values: Vec::new(),
                        inserted: Vec::new(),
                    });
                    changes.len() - 1
                }
            };
            let c = &mut changes[ci];
            let list = &mut slots[ci];
            let news = &mut pending[ci];
            let delete = |idx: usize,
                          list: &mut Vec<Slot>,
                          news: &mut [Option<Value>],
                          c: &mut SetChange|
             -> Result<(), DeltaError> {
                if idx >= list.len() {
                    return Err(DeltaError::Index(format!(
                        "{}[{}]: set has {} member(s)",
                        c.path,
                        idx,
                        list.len()
                    )));
                }
                match list.remove(idx) {
                    Slot::Old(n) => c.deleted.push(n),
                    Slot::New(k) => news[k] = None,
                }
                Ok(())
            };
            match &edit.op {
                EditOp::Insert(v) => {
                    list.push(Slot::New(news.len()));
                    news.push(Some(v.clone()));
                }
                EditOp::Delete(idx) => delete(*idx, list, news, c)?,
                EditOp::Modify(idx, v) => {
                    delete(*idx, list, news, c)?;
                    list.push(Slot::New(news.len()));
                    news.push(Some(v.clone()));
                }
            }
        }
        for (ci, news) in pending.into_iter().enumerate() {
            changes[ci].inserted_values = news.into_iter().flatten().collect();
        }
        changes.retain(|c| !c.deleted.is_empty() || !c.inserted_values.is_empty());
        Ok(changes)
    }

    /// Resolves a root-rooted dot path to `(source index, set node)`.
    fn resolve_set_path(&self, path: &str) -> Result<(usize, NodeId), DeltaError> {
        let mut parts = path.split('.');
        let root = parts.next().unwrap_or_default();
        let (si, mut node) = self
            .sources
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.root(root).map(|n| (i, n)))
            .ok_or_else(|| DeltaError::Path(format!("no source has a root `{root}`")))?;
        for label in parts {
            node = self.sources[si]
                .child_by_label(node, label)
                .ok_or_else(|| DeltaError::Path(format!("`{path}`: no field `{label}`")))?;
        }
        if self.sources[si].set_members(node).is_none() {
            return Err(DeltaError::Path(format!("`{path}` is not a set")));
        }
        Ok((si, node))
    }

    /// Classifies how a mapping must be re-enumerated for the changed set
    /// paths.
    fn classify(&self, mi: usize, changed: &HashSet<String>) -> Reeval {
        let m = &self.mappings[mi];
        let mut touching: Vec<String> = Vec::new();
        let mut wildcard = false;
        for b in &m.foreach.from {
            match &b.source {
                Expr::Path(p) => {
                    if matches!(p.start, PathStart::Root(_)) {
                        let key = p.to_string();
                        if changed.contains(&key) {
                            touching.push(key);
                        }
                    }
                }
                // Function- or annotation-sourced bindings can depend on
                // arbitrary source state; re-evaluate in full.
                _ => wildcard = true,
            }
        }
        if touching.is_empty() && !wildcard {
            return Reeval::Pruned;
        }
        if touching.len() == 1 && !wildcard {
            return Reeval::Restricted(touching.pop().expect("one touching item"));
        }
        Reeval::Full
    }

    /// The post-resolution pipeline: restricted/full re-enumeration, bag
    /// diffing, dirty-class rebuild, skeleton sync, element re-annotation.
    fn apply_resolved(&mut self, changes: &mut [SetChange]) -> Result<TargetDelta, DeltaError> {
        let mut td = TargetDelta::default();
        if changes.is_empty() {
            td.mappings_pruned = self.mappings.len();
            return Ok(td);
        }
        let changed: HashSet<String> = changes.iter().map(|c| c.path.clone()).collect();
        let modes: Vec<Reeval> = (0..self.mappings.len())
            .map(|mi| self.classify(mi, &changed))
            .collect();
        let eval = effective_eval(&self.opts);

        // Phase 1 (pure): removed rows of restricted mappings, evaluated
        // over the *old* sources with the touching item's domain limited to
        // the deleted members.
        let deleted_domain: HashMap<String, HashSet<NodeId>> = changes
            .iter()
            .filter(|c| !c.deleted.is_empty())
            .map(|c| (c.path.clone(), c.deleted.iter().copied().collect()))
            .collect();
        let mut removed: Vec<Bag> = vec![Bag::new(); self.mappings.len()];
        let mut added: Vec<Bag> = vec![Bag::new(); self.mappings.len()];
        {
            let views = source_views(&self.source_schemas, &self.sources);
            for (mi, mode) in modes.iter().enumerate() {
                if let Reeval::Restricted(key) = mode {
                    if deleted_domain.contains_key(key) {
                        let mut opts = eval.clone();
                        opts.domains = Some(Arc::new(
                            deleted_domain
                                .iter()
                                .filter(|(p, _)| *p == key)
                                .map(|(p, d)| (p.clone(), d.clone()))
                                .collect(),
                        ));
                        let rows = eval_foreach(&views, &self.functions, &self.mappings[mi], opts)?;
                        for row in rows {
                            *removed[mi].entry(row).or_insert(0) += 1;
                        }
                    }
                }
            }
        }

        // Phase 2: mutate the sources and refresh their element
        // annotations (inserted members arrive un-annotated).
        for c in changes.iter_mut() {
            for &d in &c.deleted {
                self.sources[c.source].detach_set_member(c.set, d);
                self.sources[c.source].strip_annotations(d);
            }
            for v in &c.inserted_values {
                let n = self.sources[c.source].push_set_member(c.set, v.clone());
                c.inserted.push(n);
            }
            self.sources[c.source]
                .annotate_elements(&self.source_schemas[c.source])
                .map_err(|e| {
                    ExchangeError::Conformance(format!(
                        "inserted member does not conform at `{}`: {e}",
                        c.path
                    ))
                })?;
        }

        // Phase 3: added rows (restricted over the new sources) and full
        // re-evaluations, then bag updates.
        let inserted_domain: HashMap<String, HashSet<NodeId>> = changes
            .iter()
            .filter(|c| !c.inserted.is_empty())
            .map(|c| (c.path.clone(), c.inserted.iter().copied().collect()))
            .collect();
        {
            let views = source_views(&self.source_schemas, &self.sources);
            for (mi, mode) in modes.iter().enumerate() {
                match mode {
                    Reeval::Pruned => td.mappings_pruned += 1,
                    Reeval::Restricted(key) => {
                        td.mappings_reevaluated += 1;
                        if inserted_domain.contains_key(key) {
                            let mut opts = eval.clone();
                            opts.domains = Some(Arc::new(
                                inserted_domain
                                    .iter()
                                    .filter(|(p, _)| *p == key)
                                    .map(|(p, d)| (p.clone(), d.clone()))
                                    .collect(),
                            ));
                            let rows =
                                eval_foreach(&views, &self.functions, &self.mappings[mi], opts)?;
                            for row in rows {
                                *added[mi].entry(row).or_insert(0) += 1;
                            }
                        }
                    }
                    Reeval::Full => {
                        td.mappings_reevaluated += 1;
                        let rows = eval_foreach(
                            &views,
                            &self.functions,
                            &self.mappings[mi],
                            eval.clone(),
                        )?;
                        let mut new_bag: Bag = HashMap::new();
                        for row in rows {
                            *new_bag.entry(row).or_insert(0) += 1;
                        }
                        let (rem, add) = bag_diff(&self.bags[mi], &new_bag);
                        removed[mi] = rem;
                        added[mi] = add;
                    }
                }
            }
        }
        for mi in 0..self.mappings.len() {
            for (row, &k) in &removed[mi] {
                td.rows_removed += k;
                match self.bags[mi].get_mut(row) {
                    Some(n) if *n >= k => {
                        *n -= k;
                        if *n == 0 {
                            self.bags[mi].remove(row);
                        }
                    }
                    _ => {
                        return Err(DeltaError::Exchange(ExchangeError::Conformance(format!(
                            "mapping {}: retracted row not in bag",
                            self.mappings[mi].name
                        ))))
                    }
                }
            }
            for (row, &k) in &added[mi] {
                td.rows_added += k;
                *self.bags[mi].entry(row.clone()).or_insert(0) += k;
            }
        }

        // Phase 4 (pure): route removed/added rows to their member classes.
        let mut dirty: HashSet<NodeId> = HashSet::new();
        let mut fresh: Vec<(usize, Row, usize, u64)> = Vec::new();
        for mi in 0..self.mappings.len() {
            if removed[mi].is_empty() && added[mi].is_empty() {
                continue;
            }
            let plan = &self.plans[mi];
            for (row, &k) in &removed[mi] {
                for (bi, value) in self.root_member_values(mi, row)? {
                    let member = self.find_member(plan, bi, &value).ok_or_else(|| {
                        ExchangeError::Conformance(format!(
                            "mapping {}: retracted member missing from merge index",
                            self.mappings[mi].name
                        ))
                    })?;
                    dirty.insert(member);
                    let cls = self.classes.get_mut(&member).ok_or_else(|| {
                        ExchangeError::Conformance(
                            "retracted member missing from retraction index".to_string(),
                        )
                    })?;
                    let per = cls.rows.entry(mi).or_default();
                    match per.get_mut(row) {
                        Some(e) if e.0 >= k => {
                            e.0 -= k;
                            if e.0 == 0 {
                                per.remove(row);
                            }
                        }
                        _ => {
                            return Err(DeltaError::Exchange(ExchangeError::Conformance(
                                "retraction index out of step with row bags".to_string(),
                            )))
                        }
                    }
                }
            }
            // HashMap order must not leak into the target: fresh members
            // are appended in this iteration order, so replaying the same
            // delta (crash recovery) has to walk the same sequence.
            let mut additions: Vec<(&Row, usize)> =
                added[mi].iter().map(|(row, &k)| (row, k)).collect();
            additions.sort_unstable_by_key(|(row, _)| row_order_key(row));
            for (row, k) in additions {
                let mut fresh_mask = 0u64;
                for (bi, value) in self.root_member_values(mi, row)? {
                    match self.find_member(plan, bi, &value) {
                        Some(member) => {
                            dirty.insert(member);
                            let cls = self.classes.entry(member).or_default();
                            let e = cls
                                .rows
                                .entry(mi)
                                .or_default()
                                .entry(row.clone())
                                .or_insert((0, 0));
                            e.0 += k;
                            e.1 |= 1 << bi;
                        }
                        None => fresh_mask |= 1 << bi,
                    }
                }
                if fresh_mask != 0 {
                    fresh.push((mi, row.clone(), k, fresh_mask));
                }
            }
        }

        // Phase 5: rebuild dirty classes and insert fresh members via a
        // transient exchange over the live target state.
        let mut ex = Exchange::new(Vec::new(), &self.target_schema, &self.functions);
        ex.target = std::mem::replace(&mut self.target, Instance::new("swap"));
        ex.merge_index = std::mem::take(&mut self.merge_index);
        ex.set_budget(&self.opts.budget);
        if let Some(f) = self.member_fp {
            ex.set_member_fingerprinter(f);
        }
        let mut shapes: Vec<Vec<Option<MemberShape>>> = self
            .plans
            .iter()
            .map(|p| {
                let mut v: Vec<Option<MemberShape>> = Vec::new();
                v.resize_with(p.bindings.len(), || None);
                v
            })
            .collect();
        let mut result = rebuild_classes(
            &mut ex,
            &mut shapes,
            &dirty,
            fresh,
            &mut td,
            &self.mappings,
            &self.plans,
            &self.root_of,
            &mut self.classes,
            self.opts.member_templates,
        );
        if result.is_ok() {
            // Phase 6: skeleton annotation sync for mappings whose bag
            // emptied, then element re-annotation of the whole target.
            sync_skeletons(&mut ex, &self.mappings, &self.plans, &self.bags);
            result = ex
                .target
                .annotate_elements(&self.target_schema)
                .map_err(|e| DeltaError::Exchange(ExchangeError::Conformance(e.to_string())));
        }
        self.target = ex.target;
        self.merge_index = ex.merge_index;
        result.map(|()| td)
    }

    /// The member values each `Parent::Root` binding of `plan` produces for
    /// one foreach row — pure (no insertion), mirroring
    /// [`Exchange::insert_row`]'s slot-class assignment and member
    /// construction exactly, including its conflict error.
    fn root_member_values(
        &self,
        mi: usize,
        row: &Row,
    ) -> Result<Vec<(usize, Value)>, ExchangeError> {
        let plan = &self.plans[mi];
        let m = &self.mappings[mi];
        let mut class_values: Vec<Option<AtomicValue>> = vec![None; plan.n_classes];
        for (i, &c) in plan.select_classes.iter().enumerate() {
            match &class_values[c] {
                None => class_values[c] = Some(row[i].clone()),
                Some(prev) if *prev == row[i] => {}
                Some(prev) => {
                    return Err(ExchangeError::Conflict(format!(
                        "mapping {}: positions assign `{prev}` and `{}` to one slot",
                        m.name, row[i]
                    )))
                }
            }
        }
        let mut out = Vec::new();
        for (bi, b) in plan.bindings.iter().enumerate() {
            if !matches!(b.parent, Parent::Root(..)) {
                continue;
            }
            let fields: Vec<(&[dtr_query::ast::Step], AtomicValue)> = b
                .fields
                .iter()
                .filter_map(|(steps, c)| {
                    class_values[*c]
                        .as_ref()
                        .map(|v| (steps.as_slice(), v.clone()))
                })
                .collect();
            out.push((
                bi,
                build_member_reference(&self.target_schema, b.member_elem, &fields)?,
            ));
        }
        Ok(out)
    }

    /// Looks a member value up in the live merge index under the skeleton
    /// set of root binding `bi`. `None` when the set or the member does not
    /// exist yet.
    fn find_member(&self, plan: &Plan, bi: usize, value: &Value) -> Option<NodeId> {
        let Parent::Root(root, steps) = &plan.bindings[bi].parent else {
            return None;
        };
        let mut node = self.target.root(root.as_str())?;
        for label in steps {
            node = self.target.child_by_label(node, label)?;
        }
        let fp = match self.member_fp {
            Some(f) => f(value),
            None => {
                let mut h = DefaultHasher::new();
                value_fingerprint(value, &mut h);
                h.finish()
            }
        };
        self.merge_index
            .get(&(node, fp))?
            .iter()
            .find(|(v, _)| v == value)
            .map(|&(_, n)| n)
    }

    /// Regenerates the report from bags, plans and per-class statistics:
    /// `tuples` is the bag size, `bindings = tuples × |plan|`, and
    /// `rows_inserted` sums the min-mapping insert events over all classes
    /// — the same attribution a full exchange's execution order produces.
    fn synthesize_report(&mut self) {
        let n = self.mappings.len();
        let mut inserted = vec![0usize; n];
        for cls in self.classes.values() {
            for (&mi, &(ins, _)) in &cls.stats {
                inserted[mi] += ins;
            }
        }
        let mut report = ExchangeReport::default();
        for (mi, m) in self.mappings.iter().enumerate() {
            let tuples: usize = self.bags[mi].values().sum();
            let bindings = tuples * self.plans[mi].bindings.len();
            report.tuples.push((m.name.clone(), tuples));
            report.per_mapping.push(MappingStats {
                mapping: m.name.clone(),
                tuples,
                bindings,
                rows_inserted: inserted[mi],
                rows_merged: bindings.saturating_sub(inserted[mi]),
                ..MappingStats::default()
            });
        }
        self.report = report;
    }
}

/// Detaches and replays every dirty class, then inserts the fresh rows
/// (members that did not exist before this batch), all in mapping order
/// within each class.
#[allow(clippy::too_many_arguments)]
fn rebuild_classes(
    ex: &mut Exchange<'_>,
    shapes: &mut [Vec<Option<MemberShape>>],
    dirty: &HashSet<NodeId>,
    fresh: Vec<(usize, Row, usize, u64)>,
    td: &mut TargetDelta,
    mappings: &[Mapping],
    plans: &[Plan],
    roots: &[Vec<usize>],
    classes: &mut HashMap<NodeId, ClassState>,
    member_templates: bool,
) -> Result<(), DeltaError> {
    let mut order: Vec<NodeId> = dirty.iter().copied().collect();
    order.sort_unstable();
    for member in order {
        let cls = match classes.remove(&member) {
            Some(c) => c,
            None => continue,
        };
        let set_path = ex.target.node_path(cls.set);
        // Detach: unlink the member, strip its annotations, and prune
        // every merge-index entry rooted in its subtree (plus its own
        // bucket slot) so the replay starts from a clean slate.
        ex.target.detach_set_member(cls.set, member);
        let subtree: HashSet<NodeId> = subtree_nodes(&ex.target, member);
        ex.target.strip_annotations(member);
        if let Some(bucket) = ex.merge_index.get_mut(&(cls.set, cls.fp)) {
            bucket.retain(|&(_, n)| n != member);
            if bucket.is_empty() {
                ex.merge_index.remove(&(cls.set, cls.fp));
            }
        }
        ex.merge_index
            .retain(|&(set, _), _| !subtree.contains(&set));
        td.retracted.push(TargetChange {
            set_path: set_path.clone(),
            member: member.0,
        });
        if dtr_obs::journal::enabled() {
            dtr_obs::journal::record(
                dtr_obs::journal::event(
                    "exchange.retract",
                    dtr_obs::journal::Outcome::Retracted {
                        remaining: cls.remaining_rows() as u64,
                    },
                )
                .binding(cls.fp)
                .target(u64::from(member.0)),
            );
        }
        if cls.is_drained() {
            continue;
        }
        td.classes_rebuilt += 1;
        let mut replayed: HashMap<NodeId, ClassState> = HashMap::new();
        for (&mi, per) in &cls.rows {
            let plan = &plans[mi];
            let root_of = &roots[mi];
            let mut stats = MappingStats::default();
            // Deterministic replay order: nested sets inside the rebuilt
            // member are populated row by row, so recovery must insert in
            // the same sequence the live engine did.
            let mut rows: Vec<(&Row, (usize, u64))> =
                per.iter().map(|(row, &e)| (row, e)).collect();
            rows.sort_unstable_by_key(|(row, _)| row_order_key(row));
            for (row, (count, bits)) in rows {
                let mask: Vec<bool> = root_of.iter().map(|&r| bits & (1 << r) != 0).collect();
                for _ in 0..count {
                    ex.meter.charge_rows(1).map_err(|g| ExchangeError::Guard {
                        error: g,
                        mappings_completed: 0,
                    })?;
                    let touches = ex.insert_row(
                        &mappings[mi],
                        plan,
                        row,
                        member_templates,
                        &mut shapes[mi],
                        &mut stats,
                        Some(&mask),
                    )?;
                    record_row(&mut replayed, root_of, &touches, mi, row);
                }
            }
        }
        // The replay converges on exactly one new top-level member (the
        // class identity is one member value); adopt its node id.
        debug_assert_eq!(replayed.len(), 1, "class replay must rebuild one member");
        for (new_member, new_cls) in replayed {
            td.inserted.push(TargetChange {
                set_path: set_path.clone(),
                member: new_member.0,
            });
            classes.insert(new_member, new_cls);
        }
    }
    // Fresh members: rows whose class did not exist before this batch.
    let mut by_mapping: BTreeMap<usize, Vec<(Row, usize, u64)>> = BTreeMap::new();
    for (mi, row, count, bits) in fresh {
        by_mapping.entry(mi).or_default().push((row, count, bits));
    }
    let mut fresh_members: Vec<(NodeId, NodeId)> = Vec::new();
    for (mi, rows) in by_mapping {
        let plan = &plans[mi];
        let root_of = &roots[mi];
        let mut stats = MappingStats::default();
        for (row, count, bits) in rows {
            let mask: Vec<bool> = root_of.iter().map(|&r| bits & (1 << r) != 0).collect();
            for _ in 0..count {
                ex.meter.charge_rows(1).map_err(|g| ExchangeError::Guard {
                    error: g,
                    mappings_completed: 0,
                })?;
                let touches = ex.insert_row(
                    &mappings[mi],
                    plan,
                    &row,
                    member_templates,
                    &mut shapes[mi],
                    &mut stats,
                    Some(&mask),
                )?;
                for (bi, t) in touches.iter().enumerate() {
                    if t.member.0 != u32::MAX && root_of[bi] == bi && t.created {
                        fresh_members.push((t.set, t.member));
                    }
                }
                record_row(classes, root_of, &touches, mi, &row);
            }
        }
    }
    fresh_members.sort_unstable_by_key(|&(_, m)| m.0);
    fresh_members.dedup();
    for (set, member) in fresh_members {
        td.inserted.push(TargetChange {
            set_path: ex.target.node_path(set),
            member: member.0,
        });
    }
    Ok(())
}

/// Removes the `f_mp` names of mappings whose row bag emptied from their
/// skeleton chains, then detaches chain nodes left with no annotations and
/// no children (schema roots always stay) — matching what a from-scratch
/// exchange over the current sources would build.
fn sync_skeletons(ex: &mut Exchange<'_>, mappings: &[Mapping], plans: &[Plan], bags: &[Bag]) {
    let mut candidates: Vec<NodeId> = Vec::new();
    for (mi, m) in mappings.iter().enumerate() {
        if !bags[mi].is_empty() {
            continue;
        }
        for b in &plans[mi].bindings {
            let Parent::Root(root, steps) = &b.parent else {
                continue;
            };
            let Some(mut node) = ex.target.root(root.as_str()) else {
                continue;
            };
            ex.target.remove_mapping(node, &m.name);
            for label in steps {
                match ex.target.child_by_label(node, label) {
                    Some(c) => {
                        node = c;
                        ex.target.remove_mapping(node, &m.name);
                        candidates.push(node);
                    }
                    None => break,
                }
            }
        }
    }
    // Deepest nodes first so a drained set detaches before its (then
    // childless) record parent is considered.
    candidates.sort_unstable_by_key(|n| std::cmp::Reverse(n.0));
    candidates.dedup();
    for node in candidates {
        let unreferenced =
            ex.target.children(node).is_empty() && ex.target.annotation(node).mappings.is_empty();
        if !unreferenced {
            continue;
        }
        if let Some(parent) = ex.target.parent(node) {
            let kids: Vec<NodeId> = ex
                .target
                .children(parent)
                .iter()
                .copied()
                .filter(|&k| k != node)
                .collect();
            ex.target.replace_children(parent, kids);
            ex.target.strip_annotations(node);
        }
    }
}

/// Borrowed evaluator views over owned source instances.
fn source_views<'a>(schemas: &'a [Schema], instances: &'a [Instance]) -> Vec<Source<'a>> {
    schemas
        .iter()
        .zip(instances)
        .map(|(schema, instance)| Source { schema, instance })
        .collect()
}

/// All nodes of the subtree rooted at `id` (the root included).
fn subtree_nodes(inst: &Instance, id: NodeId) -> HashSet<NodeId> {
    let mut out = HashSet::new();
    let mut stack = vec![id];
    while let Some(n) = stack.pop() {
        if out.insert(n) {
            stack.extend_from_slice(inst.children(n));
        }
    }
    out
}

/// Folds one row's binding touches into the class index: registers the row
/// under each touched root binding's class (bitmask-tagged) and attributes
/// every member-binding insert/merge event to its root class.
fn record_row(
    classes: &mut HashMap<NodeId, ClassState>,
    root_of: &[usize],
    touches: &[BindingTouch],
    mi: usize,
    row: &Row,
) {
    let mut class_masks: Vec<(NodeId, u64)> = Vec::new();
    for (bi, t) in touches.iter().enumerate() {
        if t.member.0 == u32::MAX || root_of[bi] != bi {
            continue;
        }
        let cls = classes.entry(t.member).or_default();
        cls.set = t.set;
        cls.fp = t.fp;
        match class_masks.iter_mut().find(|(ck, _)| *ck == t.member) {
            Some((_, m)) => *m |= 1 << bi,
            None => class_masks.push((t.member, 1 << bi)),
        }
    }
    for &(ck, mask) in &class_masks {
        let cls = classes.get_mut(&ck).expect("class registered above");
        let e = cls
            .rows
            .entry(mi)
            .or_default()
            .entry(row.clone())
            .or_insert((0, 0));
        e.0 += 1;
        e.1 |= mask;
    }
    for (bi, t) in touches.iter().enumerate() {
        if t.member.0 == u32::MAX {
            continue;
        }
        let ck = touches[root_of[bi]].member;
        if let Some(cls) = classes.get_mut(&ck) {
            let s = cls.stats.entry(mi).or_insert((0, 0));
            if t.created {
                s.0 += 1;
            } else {
                s.1 += 1;
            }
        }
    }
}

/// `(old − new, new − old)` as multisets.
fn bag_diff(old: &Bag, new: &Bag) -> (Bag, Bag) {
    let mut removed = Bag::new();
    let mut added = Bag::new();
    for (row, &n) in old {
        let m = new.get(row).copied().unwrap_or(0);
        if n > m {
            removed.insert(row.clone(), n - m);
        }
    }
    for (row, &n) in new {
        let m = old.get(row).copied().unwrap_or(0);
        if n > m {
            added.insert(row.clone(), n - m);
        }
    }
    (removed, added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::execute_mappings_with;
    use dtr_model::instance::NodeData;
    use dtr_model::types::{AtomicType, Type};

    fn us_schema() -> Schema {
        Schema::build(
            "USdb",
            vec![(
                "US",
                Type::record(vec![
                    (
                        "houses",
                        Type::relation(vec![
                            ("hid", AtomicType::String),
                            ("floors", AtomicType::String),
                            ("price", AtomicType::String),
                            ("aid", AtomicType::String),
                        ]),
                    ),
                    (
                        "agents",
                        Type::set(Type::record(vec![
                            ("aid", Type::string()),
                            (
                                "title",
                                Type::choice(vec![
                                    ("name", Type::string()),
                                    ("firm", Type::string()),
                                ]),
                            ),
                            ("phone", Type::string()),
                        ])),
                    ),
                ]),
            )],
        )
        .unwrap()
    }

    fn eu_schema() -> Schema {
        Schema::build(
            "EUdb",
            vec![(
                "EU",
                Type::record(vec![(
                    "postings",
                    Type::set(Type::record(vec![
                        ("hid", Type::string()),
                        ("levels", Type::string()),
                        ("totalVal", Type::string()),
                        (
                            "agents",
                            Type::set(Type::record(vec![
                                ("agentName", Type::string()),
                                ("agentPhone", Type::string()),
                            ])),
                        ),
                    ])),
                )]),
            )],
        )
        .unwrap()
    }

    fn portal_schema() -> Schema {
        Schema::build(
            "Pdb",
            vec![(
                "Portal",
                Type::record(vec![
                    (
                        "estates",
                        Type::relation(vec![
                            ("hid", AtomicType::String),
                            ("stories", AtomicType::String),
                            ("value", AtomicType::String),
                            ("contact", AtomicType::String),
                        ]),
                    ),
                    (
                        "contacts",
                        Type::relation(vec![
                            ("title", AtomicType::String),
                            ("phone", AtomicType::String),
                        ]),
                    ),
                ]),
            )],
        )
        .unwrap()
    }

    fn house(hid: &str, floors: &str, price: &str, aid: &str) -> Value {
        Value::record(vec![
            ("hid", Value::str(hid)),
            ("floors", Value::str(floors)),
            ("price", Value::str(price)),
            ("aid", Value::str(aid)),
        ])
    }

    fn agent(aid: &str, alt: &str, title: &str, phone: &str) -> Value {
        Value::record(vec![
            ("aid", Value::str(aid)),
            ("title", Value::choice(alt, Value::str(title))),
            ("phone", Value::str(phone)),
        ])
    }

    fn posting(hid: &str, levels: &str, total: &str, agents: Vec<(&str, &str)>) -> Value {
        Value::record(vec![
            ("hid", Value::str(hid)),
            ("levels", Value::str(levels)),
            ("totalVal", Value::str(total)),
            (
                "agents",
                Value::set(
                    agents
                        .into_iter()
                        .map(|(n, p)| {
                            Value::record(vec![
                                ("agentName", Value::str(n)),
                                ("agentPhone", Value::str(p)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn us_instance() -> Instance {
        let mut inst = Instance::new("USdb");
        inst.install_root(
            "US",
            Value::record(vec![
                (
                    "houses",
                    Value::set(vec![
                        house("H522", "2", "500K", "a2"),
                        house("H7", "1", "250K", "a1"),
                    ]),
                ),
                (
                    "agents",
                    Value::set(vec![
                        agent("a1", "name", "Smith", "555-1111"),
                        agent("a2", "firm", "HomeGain", "18009468501"),
                    ]),
                ),
            ]),
        );
        inst.annotate_elements(&us_schema()).unwrap();
        inst
    }

    fn eu_instance() -> Instance {
        let mut inst = Instance::new("EUdb");
        inst.install_root(
            "EU",
            Value::record(vec![(
                "postings",
                Value::set(vec![posting(
                    "H2525",
                    "1",
                    "300K",
                    vec![("HomeGain", "18009468501")],
                )]),
            )]),
        );
        inst.annotate_elements(&eu_schema()).unwrap();
        inst
    }

    fn figure1_mappings() -> Vec<Mapping> {
        vec![
            Mapping::parse(
                "m1",
                "foreach
                   select h.hid, h.floors, h.price, n, a.phone
                   from US.houses h, US.agents a, a.title->name n
                   where h.aid = a.aid
                 exists
                   select e.hid, e.stories, e.value, c.title, c.phone
                   from Portal.estates e, Portal.contacts c
                   where e.contact = c.title",
            )
            .unwrap(),
            Mapping::parse(
                "m2",
                "foreach
                   select h.hid, h.floors, h.price, f, a.phone
                   from US.houses h, US.agents a, a.title->firm f
                   where h.aid = a.aid
                 exists
                   select e.hid, e.stories, e.value, c.title, c.phone
                   from Portal.estates e, Portal.contacts c
                   where e.contact = c.title",
            )
            .unwrap(),
            Mapping::parse(
                "m3",
                "foreach
                   select p.hid, p.levels, p.totalVal, a.agentName, a.agentPhone
                   from EU.postings p, p.agents a
                 exists
                   select e.hid, e.stories, e.value, c.title, c.phone
                   from Portal.estates e, Portal.contacts c
                   where e.contact = c.title",
            )
            .unwrap(),
        ]
    }

    /// Order-insensitive canonical rendering of an annotated instance: set
    /// members are sorted by their rendering, annotations ride along.
    fn canon_node(inst: &Instance, id: NodeId) -> String {
        let ann = inst.annotation(id);
        let el = ann.element.map(|e| format!("e{}", e.0)).unwrap_or_default();
        let maps: Vec<String> = ann.mappings.iter().map(|m| m.to_string()).collect();
        let body = match &inst.node(id).data {
            NodeData::Atomic(a) => format!("={a}"),
            NodeData::Record(kids) => {
                let inner: Vec<String> = kids.iter().map(|&k| canon_node(inst, k)).collect();
                format!("{{{}}}", inner.join(","))
            }
            NodeData::Choice(kid) => match kid {
                Some(k) => format!("<{}>", canon_node(inst, *k)),
                None => "<>".to_string(),
            },
            NodeData::Set(kids) => {
                let mut inner: Vec<String> = kids.iter().map(|&k| canon_node(inst, k)).collect();
                inner.sort();
                format!("[{}]", inner.join(","))
            }
        };
        format!("{}⟨{};{}⟩{}", inst.label(id), el, maps.join("+"), body)
    }

    fn canon(inst: &Instance) -> String {
        let mut roots: Vec<String> = inst.roots().iter().map(|&r| canon_node(inst, r)).collect();
        roots.sort();
        roots.join("\n")
    }

    fn build() -> IncrementalExchange {
        IncrementalExchange::new(
            vec![us_schema(), eu_schema()],
            vec![us_instance(), eu_instance()],
            portal_schema(),
            figure1_mappings(),
            FunctionRegistry::with_builtins(),
            ExchangeOptions::default(),
        )
        .unwrap()
    }

    /// Comparable per-mapping report row: (mapping, tuples, bindings,
    /// rows_inserted, rows_merged).
    type DecisionRow = (String, usize, usize, usize, usize);

    /// Full re-exchange over the engine's current sources; returns the
    /// canonical target plus the comparable report rows.
    fn full_reference(inc: &IncrementalExchange) -> (String, Vec<DecisionRow>) {
        let views = source_views(inc.source_schemas(), inc.sources());
        let (inst, report) = execute_mappings_with(
            &views,
            inc.target_schema(),
            inc.mappings(),
            &FunctionRegistry::with_builtins(),
            &ExchangeOptions::default(),
        )
        .unwrap();
        let rows = report
            .per_mapping
            .iter()
            .map(|s| {
                (
                    s.mapping.to_string(),
                    s.tuples,
                    s.bindings,
                    s.rows_inserted,
                    s.rows_merged,
                )
            })
            .collect();
        (canon(&inst), rows)
    }

    fn assert_matches_full(inc: &IncrementalExchange) {
        let (want, want_rows) = full_reference(inc);
        assert_eq!(canon(inc.target()), want, "incremental target diverged");
        let got_rows: Vec<(String, usize, usize, usize, usize)> = inc
            .report()
            .per_mapping
            .iter()
            .map(|s| {
                (
                    s.mapping.to_string(),
                    s.tuples,
                    s.bindings,
                    s.rows_inserted,
                    s.rows_merged,
                )
            })
            .collect();
        assert_eq!(got_rows, want_rows, "synthesized report diverged");
    }

    #[test]
    fn initial_build_matches_full_exchange() {
        let inc = build();
        assert_matches_full(&inc);
    }

    #[test]
    fn insert_delete_modify_stream_tracks_full_reexchange() {
        let mut inc = build();
        let steps: Vec<SourceDelta> = vec![
            // New house handled by the existing named agent: m1 gains a row.
            SourceDelta::new().insert("US.houses", house("H9", "3", "900K", "a1")),
            // New agent plus a posting churn on the other source.
            SourceDelta::new()
                .insert("US.agents", agent("a3", "name", "Jones", "555-2222"))
                .insert(
                    "EU.postings",
                    posting("H77", "2", "410K", vec![("Ads", "555-0000")]),
                ),
            // Delete the firm agent: m2's only row retracts.
            SourceDelta::new().delete("US.agents", 1),
            // Modify flips a choice alternative: Smith becomes a firm, so
            // every m1 row retracts and m2 gains rows.
            SourceDelta::new().modify("US.agents", 0, agent("a1", "firm", "SmithCo", "555-1111")),
            // Churn a posting's nested agents (PNF re-merge path).
            SourceDelta::new().modify(
                "EU.postings",
                0,
                posting(
                    "H2525",
                    "1",
                    "300K",
                    vec![("Ads", "555-0000"), ("More", "555-9999")],
                ),
            ),
            // Drain a whole set.
            SourceDelta::new()
                .delete("US.houses", 0)
                .delete("US.houses", 0)
                .delete("US.houses", 0),
        ];
        for (i, delta) in steps.iter().enumerate() {
            inc.apply(delta).unwrap_or_else(|e| panic!("step {i}: {e}"));
            assert_matches_full(&inc);
        }
    }

    #[test]
    fn untouched_mappings_are_pruned() {
        let mut inc = build();
        let td = inc
            .apply(
                &SourceDelta::new()
                    .insert("EU.postings", posting("H1", "1", "100K", vec![("A", "1")])),
            )
            .unwrap();
        // m1 and m2 read only USdb; m3 is the single re-evaluated mapping.
        assert_eq!(td.mappings_pruned, 2);
        assert_eq!(td.mappings_reevaluated, 1);
        assert_matches_full(&inc);
    }

    #[test]
    fn insert_then_delete_in_one_batch_is_a_noop() {
        let mut inc = build();
        let before = canon(inc.target());
        let td = inc
            .apply(
                &SourceDelta::new()
                    .insert("US.houses", house("HX", "9", "1", "a1"))
                    .delete("US.houses", 2),
            )
            .unwrap();
        assert!(td.is_noop(), "expected no-op, got {td:?}");
        assert_eq!(canon(inc.target()), before);
        assert_matches_full(&inc);
    }

    #[test]
    fn bad_edits_leave_engine_untouched() {
        let mut inc = build();
        let before = canon(inc.target());
        let before_src = canon(&inc.sources()[0]);
        let err = inc
            .apply(&SourceDelta::new().delete("US.nosuch", 0))
            .unwrap_err();
        assert!(matches!(err, DeltaError::Path(_)));
        let err = inc
            .apply(&SourceDelta::new().delete("US.houses", 99))
            .unwrap_err();
        assert!(matches!(err, DeltaError::Index(_)));
        assert_eq!(canon(inc.target()), before);
        assert_eq!(canon(&inc.sources()[0]), before_src);
        assert_matches_full(&inc);
    }

    #[test]
    fn rebase_resets_and_reproduces() {
        let mut inc = build();
        inc.apply(&SourceDelta::new().insert("US.houses", house("H9", "3", "900K", "a1")))
            .unwrap();
        assert_eq!(inc.batch(), 1);
        inc.rebase().unwrap();
        assert_eq!(inc.batch(), 0);
        assert_matches_full(&inc);
    }

    #[test]
    fn batch_equals_singletons_applied_in_order() {
        let mut batched = build();
        let mut single = build();
        let delta = SourceDelta::new()
            .insert("US.houses", house("H9", "3", "900K", "a1"))
            .delete("US.agents", 1)
            .insert(
                "EU.postings",
                posting("H77", "2", "410K", vec![("Ads", "0")]),
            );
        batched.apply(&delta).unwrap();
        for e in &delta.edits {
            single
                .apply(&SourceDelta {
                    edits: vec![e.clone()],
                })
                .unwrap();
        }
        assert_eq!(canon(batched.target()), canon(single.target()));
    }
}
