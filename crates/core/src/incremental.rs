//! Continuous-ingest sessions: a [`MappingSetting`] paired with the
//! delta-driven exchange engine of [`dtr_mapping::incremental`], so source
//! updates flow into the annotated target without a full re-exchange, and
//! the metastore rows for touched subtrees are re-encoded alongside.
//!
//! ```
//! use dtr_core::incremental::IncrementalSession;
//! use dtr_core::testkit::{figure1_setting, figure1_sources};
//! use dtr_mapping::delta::SourceDelta;
//! use dtr_model::instance::Value;
//!
//! let mut session =
//!     IncrementalSession::new(figure1_setting(), figure1_sources()).unwrap();
//! let td = session
//!     .apply(&SourceDelta::new().delete("US.houses", 0))
//!     .unwrap();
//! assert!(!td.retracted.is_empty());
//! // The tagged view answers MXQL over the incrementally maintained target.
//! let tagged = session.tagged().unwrap();
//! let rows = tagged
//!     .query("select x.hid, m from Portal.estates x, x.hid@map m")
//!     .unwrap();
//! assert!(rows.len() < 3);
//! ```

use crate::tagged::{MappingSetting, MxqlError, TaggedInstance};
use dtr_mapping::delta::{DeltaError, SourceDelta, TargetDelta};
use dtr_mapping::exchange::{ExchangeOptions, ExchangeReport};
use dtr_mapping::incremental::IncrementalExchange;
use dtr_metastore::store::MetaStore;
use dtr_model::instance::{Instance, Value};
use dtr_model::schema::Schema;
use dtr_query::functions::FunctionRegistry;

/// A live incremental-exchange session over a mapping setting.
pub struct IncrementalSession {
    setting: MappingSetting,
    engine: IncrementalExchange,
    store: Option<MetaStore>,
}

impl From<DeltaError> for MxqlError {
    fn from(e: DeltaError) -> Self {
        match e {
            DeltaError::Exchange(x) => MxqlError::Exchange(x),
            other => MxqlError::Other(other.to_string()),
        }
    }
}

impl IncrementalSession {
    /// Builds the initial target with a full exchange. `sources` align
    /// with the setting's source schemas.
    pub fn new(setting: MappingSetting, sources: Vec<Instance>) -> Result<Self, MxqlError> {
        Self::with_options(setting, sources, ExchangeOptions::default())
    }

    /// [`IncrementalSession::new`] with explicit exchange options (budgets
    /// apply per batch; a tripped budget rolls the batch back).
    pub fn with_options(
        setting: MappingSetting,
        mut sources: Vec<Instance>,
        opts: ExchangeOptions,
    ) -> Result<Self, MxqlError> {
        for (inst, schema) in sources.iter_mut().zip(setting.source_schemas()) {
            inst.annotate_elements(schema)
                .map_err(|e| MxqlError::Other(e.to_string()))?;
        }
        let engine = IncrementalExchange::new(
            setting.source_schemas().to_vec(),
            sources,
            setting.target_schema().clone(),
            setting.mappings().to_vec(),
            FunctionRegistry::with_builtins(),
            opts,
        )?;
        Ok(IncrementalSession {
            setting,
            engine,
            store: None,
        })
    }

    /// Attaches a metastore: each applied batch re-encodes the `Element`
    /// rows under the touched source paths via
    /// [`MetaStore::reencode_affected`].
    pub fn attach_store(&mut self, store: MetaStore) {
        self.store = Some(store);
    }

    /// The attached metastore, if any.
    pub fn store(&self) -> Option<&MetaStore> {
        self.store.as_ref()
    }

    /// Applies one edit batch to the sources and incrementally maintains
    /// the target (see [`IncrementalExchange::apply`]). Re-encodes the
    /// metastore rows for the touched schema subtrees when a store is
    /// attached.
    pub fn apply(&mut self, delta: &SourceDelta) -> Result<TargetDelta, MxqlError> {
        let td = self.engine.apply(delta)?;
        if let Some(store) = &mut self.store {
            let mut by_schema: Vec<(&Schema, Vec<String>)> = Vec::new();
            for edit in &delta.edits {
                let root = edit.path.split('.').next().unwrap_or_default();
                let Some(schema) = self.setting.source_schemas().iter().find(|s| {
                    s.roots()
                        .iter()
                        .any(|&r| s.element(r).label.as_str() == root)
                }) else {
                    continue;
                };
                match by_schema
                    .iter_mut()
                    .find(|(s, _)| s.name() == schema.name())
                {
                    Some((_, paths)) => {
                        if !paths.contains(&edit.path) {
                            paths.push(edit.path.clone());
                        }
                    }
                    None => by_schema.push((schema, vec![edit.path.clone()])),
                }
            }
            for (schema, paths) in by_schema {
                store.reencode_affected(schema, &paths);
            }
        }
        Ok(td)
    }

    /// Drops all incremental state and rebuilds from the current sources.
    pub fn rebase(&mut self) -> Result<(), MxqlError> {
        self.engine.rebase().map_err(MxqlError::from)
    }

    /// Test hook: override the PNF bucketing fingerprint (forces collision
    /// splits; merges stay structurally confirmed) and rebase.
    pub fn set_member_fingerprinter(&mut self, f: fn(&Value) -> u64) -> Result<(), MxqlError> {
        self.engine
            .set_member_fingerprinter(f)
            .map_err(MxqlError::from)
    }

    /// The mapping setting.
    pub fn setting(&self) -> &MappingSetting {
        &self.setting
    }

    /// The annotated target as of the last batch.
    pub fn target(&self) -> &Instance {
        self.engine.target()
    }

    /// The mutated source instances.
    pub fn sources(&self) -> &[Instance] {
        self.engine.sources()
    }

    /// Starts a new dirty-tracking interval on the sources and target (see
    /// [`IncrementalExchange::clear_dirty`]).
    pub fn clear_dirty(&mut self) {
        self.engine.clear_dirty();
    }

    /// The synthesized exchange report (see
    /// [`IncrementalExchange::report`]).
    pub fn report(&self) -> &ExchangeReport {
        self.engine.report()
    }

    /// Batches applied since the last rebase.
    pub fn batch(&self) -> u64 {
        self.engine.batch()
    }

    /// A [`TaggedInstance`] over the current sources and target, for MXQL.
    /// Snapshots the current state — later applies do not flow into it.
    pub fn tagged(&self) -> Result<TaggedInstance, MxqlError> {
        let setting = MappingSetting::new(
            self.setting.source_schemas().to_vec(),
            self.setting.target_schema().clone(),
            self.setting.mappings().to_vec(),
        )?;
        TaggedInstance::from_parts(
            setting,
            self.engine.sources().to_vec(),
            self.engine.target().clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{figure1_setting, figure1_sources};
    use dtr_mapping::delta::SourceDelta;

    fn house(hid: &str) -> Value {
        Value::record(vec![
            ("hid", Value::str(hid)),
            ("floors", Value::str("4")),
            ("price", Value::str("777K")),
            ("aid", Value::str("a1")),
        ])
    }

    #[test]
    fn session_applies_and_answers_mxql() {
        let mut s = IncrementalSession::new(figure1_setting(), figure1_sources()).unwrap();
        let td = s
            .apply(&SourceDelta::new().insert("US.houses", house("H900")))
            .unwrap();
        assert!(!td.inserted.is_empty());
        let tagged = s.tagged().unwrap();
        let rows = tagged
            .query("select x.hid, m from Portal.estates x, x.hid@map m")
            .unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn attached_store_reencodes_touched_paths() {
        let mut s = IncrementalSession::new(figure1_setting(), figure1_sources()).unwrap();
        let mut store = MetaStore::new();
        for schema in s.setting().source_schemas() {
            store.add_schema(schema).unwrap();
        }
        store.add_schema(s.setting().target_schema()).unwrap();
        s.attach_store(store);
        s.apply(&SourceDelta::new().delete("US.houses", 0)).unwrap();
        // The affected subtree's rows are still present and coherent.
        let row = s
            .store()
            .unwrap()
            .element_by_path("USdb", "/US/houses")
            .unwrap();
        assert_eq!(row.ty, "Set");
    }

    #[test]
    fn rebase_preserves_query_answers() {
        let mut s = IncrementalSession::new(figure1_setting(), figure1_sources()).unwrap();
        s.apply(&SourceDelta::new().insert("US.houses", house("H900")))
            .unwrap();
        let answers = |s: &IncrementalSession| {
            let mut rows: Vec<String> = s
                .tagged()
                .unwrap()
                .query("select x.hid from Portal.estates x")
                .unwrap()
                .distinct_tuples()
                .iter()
                .map(|t| format!("{t:?}"))
                .collect();
            rows.sort();
            rows
        };
        let before = answers(&s);
        s.rebase().unwrap();
        assert_eq!(before, answers(&s));
    }
}
