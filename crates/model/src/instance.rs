//! Instances as trees of labelled values (Definition 4.2), with the
//! annotation slots of the *tagged instance* model (Definition 5.2).
//!
//! An instance is a set of label-value pairs conforming to a schema. As in
//! the paper we represent an instance as a tree: one node per value, edges
//! from complex values to their attributes, set members labelled `*`.
//!
//! Every node carries an [`Annotation`] — the element annotation `f_el(v)`
//! and the mapping annotation `f_mp(v)` of Definition 5.2 (the angle-bracket
//! and curly-bracket annotations of Figure 3). Nodes that were not produced
//! by a mapping simply have an empty mapping set, and element annotations
//! can be recomputed from a schema at any time with
//! [`Instance::annotate_elements`].

use crate::label::Label;
use crate::schema::{ElementId, ElementKind, Schema};
use crate::value::{AtomicValue, MappingName};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Index of a node inside an [`Instance`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The payload of an instance node.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeData {
    /// An atomic leaf value.
    Atomic(AtomicValue),
    /// A record value; children are its fields in declaration order.
    Record(Vec<NodeId>),
    /// A choice value; exactly one alternative is present once built.
    Choice(Option<NodeId>),
    /// A set value; children are its `*`-labelled members.
    Set(Vec<NodeId>),
}

/// One node of the instance tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// The label of the label-value pair (attribute name, root name, or `*`).
    pub label: Label,
    /// Parent node, if any.
    pub parent: Option<NodeId>,
    /// Payload.
    pub data: NodeData,
}

/// The per-value annotations of a tagged instance (Definition 5.2):
/// `element` is `f_el(v)` and `mappings` is `f_mp(v)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Annotation {
    /// The schema element whose interpretation this value belongs to.
    pub element: Option<ElementId>,
    /// The mappings that generated this value, kept sorted and deduplicated.
    pub mappings: Vec<MappingName>,
}

impl Annotation {
    /// Adds a mapping to the annotation set, preserving order/uniqueness.
    /// Returns `true` if the name was newly written, `false` if it was
    /// already present (a *suppressed* annotation in profiling terms).
    pub fn add_mapping(&mut self, m: MappingName) -> bool {
        match self.mappings.binary_search(&m) {
            Err(pos) => {
                self.mappings.insert(pos, m);
                true
            }
            Ok(_) => false,
        }
    }

    /// True if this value was generated (also) by mapping `m`.
    pub fn has_mapping(&self, m: &MappingName) -> bool {
        self.mappings.binary_search(m).is_ok()
    }

    /// Removes a mapping from the annotation set. Returns `true` if the
    /// name was present (used when rolling back an aborted mapping).
    pub fn remove_mapping(&mut self, m: &MappingName) -> bool {
        match self.mappings.binary_search(m) {
            Ok(pos) => {
                self.mappings.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

/// An owned value tree, convenient for construction and deep comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Atomic leaf.
    Atomic(AtomicValue),
    /// Record with labelled fields.
    Record(Vec<(Label, Value)>),
    /// Choice with the selected alternative.
    Choice(Label, Box<Value>),
    /// Set of members.
    Set(Vec<Value>),
}

impl Value {
    /// Shorthand for an atomic string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Atomic(AtomicValue::Str(s.into()))
    }

    /// Shorthand for an atomic integer value.
    pub fn int(i: i64) -> Value {
        Value::Atomic(AtomicValue::Int(i))
    }

    /// Builds a record value.
    pub fn record<L: Into<Label>>(fields: Vec<(L, Value)>) -> Value {
        Value::Record(fields.into_iter().map(|(l, v)| (l.into(), v)).collect())
    }

    /// Builds a choice value.
    pub fn choice<L: Into<Label>>(label: L, v: Value) -> Value {
        Value::Choice(label.into(), Box::new(v))
    }

    /// Builds a set value.
    pub fn set(members: Vec<Value>) -> Value {
        Value::Set(members)
    }
}

impl From<AtomicValue> for Value {
    fn from(v: AtomicValue) -> Value {
        Value::Atomic(v)
    }
}

/// log2 of the number of arena slots per dirty-tracking block.
const BLOCK_SHIFT: u32 = 6;

/// Marks the block holding arena slot `slot` in a dirty bitset.
#[inline]
fn mark_dirty(dirty: &mut Vec<u64>, slot: usize) {
    let block = slot >> BLOCK_SHIFT;
    let word = block / 64;
    if word >= dirty.len() {
        dirty.resize(word + 1, 0);
    }
    dirty[word] |= 1 << (block % 64);
}

/// An instance: a named arena of value nodes plus per-node annotations.
///
/// The arena also keeps one dirty bit per block of 64 slots, set by every
/// mutator that writes a slot in the block since the last
/// [`Instance::clear_dirty`]. [`Instance::refresh_from`] uses the bits to
/// bring a replica up to date by copying only the blocks that changed.
/// The bits are bookkeeping, not part of the value: equality ignores them.
#[derive(Clone, Debug)]
pub struct Instance {
    db: String,
    nodes: Vec<Node>,
    annots: Vec<Annotation>,
    roots: Vec<NodeId>,
    dirty: Vec<u64>,
}

/// Arena identity: same database name, roots, and node and annotation in
/// every slot (unreachable slots included).
impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.db == other.db
            && self.roots == other.roots
            && self.nodes == other.nodes
            && self.annots == other.annots
    }
}

impl Instance {
    /// Creates an empty instance for database `db`.
    pub fn new(db: impl Into<String>) -> Instance {
        Instance {
            db: db.into(),
            nodes: Vec::new(),
            annots: Vec::new(),
            roots: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Number of 64-slot blocks written since the last
    /// [`Instance::clear_dirty`].
    pub fn dirty_blocks(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Starts a new dirty-tracking interval: forgets which blocks were
    /// written so far.
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Makes `self` an exact copy of `src` while copying only the blocks
    /// either side wrote, plus the slots `src` appended.
    ///
    /// The caller guarantees that when `src` last ran
    /// [`Instance::clear_dirty`], `self` was an exact copy of it (a
    /// `clone` or an earlier refresh), and that since then `self` has been
    /// written only through its own mutators. Leaves `self` clean.
    pub fn refresh_from(&mut self, src: &Instance) {
        self.nodes.truncate(src.nodes.len());
        self.annots.truncate(src.nodes.len());
        let shared = self.nodes.len();
        let words = self.dirty.len().max(src.dirty.len());
        for w in 0..words {
            let word = |d: &[u64]| d.get(w).copied().unwrap_or(0);
            let mut bits = word(&self.dirty) | word(&src.dirty);
            while bits != 0 {
                let start = (w * 64 + bits.trailing_zeros() as usize) << BLOCK_SHIFT;
                bits &= bits - 1;
                if start >= shared {
                    break;
                }
                let end = (start + (1 << BLOCK_SHIFT)).min(shared);
                self.nodes[start..end].clone_from_slice(&src.nodes[start..end]);
                self.annots[start..end].clone_from_slice(&src.annots[start..end]);
            }
        }
        self.nodes.extend_from_slice(&src.nodes[shared..]);
        self.annots.extend_from_slice(&src.annots[shared..]);
        self.roots.clone_from(&src.roots);
        self.db.clone_from(&src.db);
        self.dirty.clear();
    }

    /// The database name this instance belongs to.
    pub fn db(&self) -> &str {
        &self.db
    }

    /// Number of nodes (values) in the instance.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the instance holds no values.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root node ids.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Finds a root by label.
    pub fn root(&self, label: &str) -> Option<NodeId> {
        self.roots
            .iter()
            .copied()
            .find(|&r| self.node(r).label == label)
    }

    fn push_node(&mut self, label: Label, parent: Option<NodeId>, data: NodeData) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            label,
            parent,
            data,
        });
        self.annots.push(Annotation::default());
        mark_dirty(&mut self.dirty, id.index());
        id
    }

    /// Low-level node insertion for incremental builders (the PNF
    /// normalizer and the data exchange engine). Most callers should prefer
    /// [`Instance::install_root`] / [`Instance::push_set_member`].
    pub fn push_raw(
        &mut self,
        label: Label,
        parent: Option<NodeId>,
        data: NodeData,
        is_root: bool,
    ) -> NodeId {
        let id = self.push_node(label, parent, data);
        if is_root {
            self.roots.push(id);
        }
        id
    }

    /// Replaces the children of a complex node, re-parenting them. Used by
    /// incremental builders together with [`Instance::push_raw`].
    ///
    /// # Panics
    /// Panics if `id` is atomic, or if a choice node is given more than one
    /// child.
    pub fn replace_children(&mut self, id: NodeId, kids: Vec<NodeId>) {
        for &k in &kids {
            let parent = &mut self.nodes[k.index()].parent;
            if *parent != Some(id) {
                *parent = Some(id);
                mark_dirty(&mut self.dirty, k.index());
            }
        }
        mark_dirty(&mut self.dirty, id.index());
        match &mut self.nodes[id.index()].data {
            NodeData::Record(c) | NodeData::Set(c) => *c = kids,
            NodeData::Choice(c) => {
                assert!(kids.len() <= 1, "choice node takes at most one child");
                *c = kids.into_iter().next();
            }
            NodeData::Atomic(_) => panic!("cannot set children of an atomic node"),
        }
    }

    /// Access a node. Panics on an out-of-range id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The label of a node.
    pub fn label(&self, id: NodeId) -> &Label {
        &self.nodes[id.index()].label
    }

    /// The parent of a node.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The annotation of a node.
    pub fn annotation(&self, id: NodeId) -> &Annotation {
        &self.annots[id.index()]
    }

    /// Mutable annotation access. Marks the node's block dirty whether or
    /// not the caller writes.
    pub fn annotation_mut(&mut self, id: NodeId) -> &mut Annotation {
        mark_dirty(&mut self.dirty, id.index());
        &mut self.annots[id.index()]
    }

    /// Sets the element annotation (`f_el`).
    pub fn set_element(&mut self, id: NodeId, e: ElementId) {
        let element = &mut self.annots[id.index()].element;
        if *element != Some(e) {
            *element = Some(e);
            mark_dirty(&mut self.dirty, id.index());
        }
    }

    /// Adds `m` to the mapping annotation (`f_mp`). Returns `true` if the
    /// name was newly written, `false` if already present.
    pub fn add_mapping(&mut self, id: NodeId, m: MappingName) -> bool {
        let added = self.annots[id.index()].add_mapping(m);
        if added {
            mark_dirty(&mut self.dirty, id.index());
        }
        added
    }

    /// Removes `m` from the mapping annotation (`f_mp`). Returns `true` if
    /// the name was present. Used when rolling back an aborted mapping.
    pub fn remove_mapping(&mut self, id: NodeId, m: &MappingName) -> bool {
        let removed = self.annots[id.index()].remove_mapping(m);
        if removed {
            mark_dirty(&mut self.dirty, id.index());
        }
        removed
    }

    /// Rolls the arena back to its first `len` nodes, discarding every node
    /// (and its annotation) created at position `len` or later: surviving
    /// complex nodes drop pruned children, pruned roots are forgotten, and
    /// a choice whose selection was pruned becomes unselected.
    ///
    /// Because the arena is append-only, a prefix of it is exactly "the
    /// instance as it was" when `len == instance.len()` was captured —
    /// this is the data-exchange abort path: a mapping either completes
    /// atomically or its inserts are truncated away.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.nodes.len() {
            return;
        }
        self.nodes.truncate(len);
        self.annots.truncate(len);
        self.roots.retain(|r| r.index() < len);
        for (slot, node) in self.nodes.iter_mut().enumerate() {
            let pruned = match &mut node.data {
                NodeData::Record(kids) | NodeData::Set(kids) => {
                    let before = kids.len();
                    kids.retain(|k| k.index() < len);
                    kids.len() != before
                }
                NodeData::Choice(kid) => {
                    let pruned = matches!(kid, Some(k) if k.index() >= len);
                    if pruned {
                        *kid = None;
                    }
                    pruned
                }
                NodeData::Atomic(_) => false,
            };
            if pruned {
                mark_dirty(&mut self.dirty, slot);
            }
        }
    }

    /// Children of a node: record fields, set members, or the selected
    /// choice alternative. Atomic nodes have no children.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        match &self.nodes[id.index()].data {
            NodeData::Atomic(_) => &[],
            NodeData::Record(c) | NodeData::Set(c) => c,
            NodeData::Choice(c) => c.as_slice(),
        }
    }

    /// The field of a record (or the alternative of a choice) with the given
    /// label.
    pub fn child_by_label(&self, id: NodeId, label: &str) -> Option<NodeId> {
        self.children(id)
            .iter()
            .copied()
            .find(|&c| self.node(c).label == label)
    }

    /// The members of a set node; `None` if the node is not a set.
    pub fn set_members(&self, id: NodeId) -> Option<&[NodeId]> {
        match &self.nodes[id.index()].data {
            NodeData::Set(c) => Some(c),
            _ => None,
        }
    }

    /// The atomic value of a leaf node; `None` for complex nodes.
    pub fn atomic(&self, id: NodeId) -> Option<&AtomicValue> {
        match &self.nodes[id.index()].data {
            NodeData::Atomic(v) => Some(v),
            _ => None,
        }
    }

    /// The selected alternative of a choice node, with its label.
    pub fn choice_selection(&self, id: NodeId) -> Option<(Label, NodeId)> {
        match &self.nodes[id.index()].data {
            NodeData::Choice(Some(c)) => Some((self.node(*c).label.clone(), *c)),
            _ => None,
        }
    }

    /// Installs an owned [`Value`] tree as a new root.
    pub fn install_root(&mut self, label: impl Into<Label>, v: Value) -> NodeId {
        let id = self.install(label.into(), v, None);
        self.roots.push(id);
        id
    }

    fn install(&mut self, label: Label, v: Value, parent: Option<NodeId>) -> NodeId {
        match v {
            Value::Atomic(a) => self.push_node(label, parent, NodeData::Atomic(a)),
            Value::Record(fields) => {
                let id = self.push_node(label, parent, NodeData::Record(Vec::new()));
                let kids: Vec<NodeId> = fields
                    .into_iter()
                    .map(|(l, v)| self.install(l, v, Some(id)))
                    .collect();
                if let NodeData::Record(c) = &mut self.nodes[id.index()].data {
                    *c = kids;
                }
                id
            }
            Value::Choice(alt, inner) => {
                let id = self.push_node(label, parent, NodeData::Choice(None));
                let kid = self.install(alt, *inner, Some(id));
                if let NodeData::Choice(c) = &mut self.nodes[id.index()].data {
                    *c = Some(kid);
                }
                id
            }
            Value::Set(members) => {
                let id = self.push_node(label, parent, NodeData::Set(Vec::new()));
                let kids: Vec<NodeId> = members
                    .into_iter()
                    .map(|v| self.install(Label::star(), v, Some(id)))
                    .collect();
                if let NodeData::Set(c) = &mut self.nodes[id.index()].data {
                    *c = kids;
                }
                id
            }
        }
    }

    /// Appends a new member to a set node and returns its id.
    ///
    /// # Panics
    /// Panics if `set` is not a set node.
    pub fn push_set_member(&mut self, set: NodeId, v: Value) -> NodeId {
        assert!(
            matches!(self.nodes[set.index()].data, NodeData::Set(_)),
            "push_set_member target must be a set node"
        );
        let kid = self.install(Label::star(), v, Some(set));
        if let NodeData::Set(c) = &mut self.nodes[set.index()].data {
            c.push(kid);
        }
        mark_dirty(&mut self.dirty, set.index());
        kid
    }

    /// Removes `member` from the member list of `set` without reclaiming
    /// arena storage (the arena is append-only; the subtree becomes
    /// unreachable garbage). Returns `true` if the member was present.
    ///
    /// Detached subtrees keep their annotations — callers that care about
    /// [`Instance::interpretation`] (which scans every arena slot) should
    /// follow up with [`Instance::strip_annotations`]. Used by the
    /// incremental exchange to retract target rows.
    ///
    /// # Panics
    /// Panics if `set` is not a set node.
    pub fn detach_set_member(&mut self, set: NodeId, member: NodeId) -> bool {
        match &mut self.nodes[set.index()].data {
            NodeData::Set(c) => {
                let before = c.len();
                c.retain(|&k| k != member);
                let removed = before != c.len();
                if removed {
                    mark_dirty(&mut self.dirty, set.index());
                }
                removed
            }
            _ => panic!("detach_set_member target must be a set node"),
        }
    }

    /// Clears every annotation (`f_el` and `f_mp`) in the subtree rooted at
    /// `id`. Used after [`Instance::detach_set_member`] so unreachable
    /// garbage never surfaces through element interpretations.
    pub fn strip_annotations(&mut self, id: NodeId) {
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let a = &mut self.annots[n.index()];
            if a.element.is_some() || !a.mappings.is_empty() {
                *a = Annotation::default();
                mark_dirty(&mut self.dirty, n.index());
            }
            stack.extend_from_slice(self.children(n));
        }
    }

    /// Extracts the owned [`Value`] tree rooted at `id`.
    pub fn to_value(&self, id: NodeId) -> Value {
        match &self.nodes[id.index()].data {
            NodeData::Atomic(a) => Value::Atomic(a.clone()),
            NodeData::Record(kids) => Value::Record(
                kids.iter()
                    .map(|&k| (self.node(k).label.clone(), self.to_value(k)))
                    .collect(),
            ),
            NodeData::Choice(kid) => {
                let k = kid.expect("choice node must have a selection");
                Value::Choice(self.node(k).label.clone(), Box::new(self.to_value(k)))
            }
            NodeData::Set(kids) => Value::Set(kids.iter().map(|&k| self.to_value(k)).collect()),
        }
    }

    /// Pre-order traversal of all nodes reachable from the roots.
    pub fn walk(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<NodeId> = self.roots.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in self.children(id).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// A structural hash of the value rooted at `id`. Set members contribute
    /// order-insensitively, so two sets with the same members in different
    /// orders hash equal — the identity used by PNF merging.
    pub fn deep_hash(&self, id: NodeId) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash_into(id, &mut h);
        h.finish()
    }

    fn hash_into(&self, id: NodeId, h: &mut DefaultHasher) {
        let node = &self.nodes[id.index()];
        node.label.hash(h);
        match &node.data {
            NodeData::Atomic(a) => {
                0u8.hash(h);
                a.hash(h);
            }
            NodeData::Record(kids) => {
                1u8.hash(h);
                for &k in kids {
                    self.hash_into(k, h);
                }
            }
            NodeData::Choice(kid) => {
                2u8.hash(h);
                if let Some(k) = kid {
                    self.hash_into(*k, h);
                }
            }
            NodeData::Set(kids) => {
                3u8.hash(h);
                let mut hashes: Vec<u64> = kids.iter().map(|&k| self.deep_hash(k)).collect();
                hashes.sort_unstable();
                hashes.hash(h);
            }
        }
    }

    /// Structural equality of the values rooted at `a` and `b`, with sets
    /// compared as multisets (order-insensitive).
    pub fn deep_eq(&self, a: NodeId, b: NodeId) -> bool {
        let (na, nb) = (&self.nodes[a.index()], &self.nodes[b.index()]);
        if na.label != nb.label {
            return false;
        }
        match (&na.data, &nb.data) {
            (NodeData::Atomic(x), NodeData::Atomic(y)) => x == y,
            (NodeData::Record(xs), NodeData::Record(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(&x, &y)| self.deep_eq(x, y))
            }
            (NodeData::Choice(x), NodeData::Choice(y)) => match (x, y) {
                (Some(x), Some(y)) => self.deep_eq(*x, *y),
                (None, None) => true,
                _ => false,
            },
            (NodeData::Set(xs), NodeData::Set(ys)) => {
                if xs.len() != ys.len() {
                    return false;
                }
                let mut used = vec![false; ys.len()];
                'outer: for &x in xs {
                    for (i, &y) in ys.iter().enumerate() {
                        if !used[i] && self.deep_eq(x, y) {
                            used[i] = true;
                            continue 'outer;
                        }
                    }
                    return false;
                }
                true
            }
            _ => false,
        }
    }

    /// Checks conformance against `schema` (Definition 4.2) and fills in the
    /// element annotation (`f_el`) of every node: the total injective
    /// `elementOf` function exists exactly when this returns `Ok`. Only
    /// annotations that change are written (and marked dirty).
    pub fn annotate_elements(&mut self, schema: &Schema) -> Result<(), ConformanceError> {
        let roots = self.roots.clone();
        for root in roots {
            let label = self.node(root).label.clone();
            let se = schema.root(&label).ok_or_else(|| ConformanceError {
                node: root,
                reason: format!("no schema root named `{label}` in `{}`", schema.name()),
            })?;
            self.annotate_rec(root, se, schema)?;
        }
        Ok(())
    }

    fn annotate_rec(
        &mut self,
        id: NodeId,
        se: ElementId,
        schema: &Schema,
    ) -> Result<(), ConformanceError> {
        let kind = schema.element(se).kind;
        let ok = match (&self.nodes[id.index()].data, kind) {
            (NodeData::Atomic(v), ElementKind::Atomic(t)) => v.conforms_to(t),
            (NodeData::Record(_), ElementKind::Record) => true,
            (NodeData::Choice(_), ElementKind::Choice) => true,
            (NodeData::Set(_), ElementKind::Set) => true,
            _ => false,
        };
        if !ok {
            return Err(ConformanceError {
                node: id,
                reason: format!(
                    "value labelled `{}` does not conform to schema element {} ({}:{})",
                    self.nodes[id.index()].label,
                    se,
                    schema.element(se).label,
                    kind
                ),
            });
        }
        self.set_element(id, se);
        let kids: Vec<NodeId> = self.children(id).to_vec();
        match kind {
            ElementKind::Atomic(_) => {}
            ElementKind::Set => {
                let member = schema.set_member(se).expect("set element has a member");
                for k in kids {
                    self.annotate_rec(k, member, schema)?;
                }
            }
            ElementKind::Record | ElementKind::Choice => {
                for k in kids {
                    let kl = self.node(k).label.clone();
                    let ke = schema.child(se, &kl).ok_or_else(|| ConformanceError {
                        node: k,
                        reason: format!(
                            "schema element {se} ({}) has no child labelled `{kl}`",
                            schema.element(se).label
                        ),
                    })?;
                    self.annotate_rec(k, ke, schema)?;
                }
            }
        }
        Ok(())
    }

    /// The interpretation `I[e]` of a schema element (Definition 4.2): all
    /// nodes annotated with element `e`. Requires element annotations (see
    /// [`Instance::annotate_elements`]).
    pub fn interpretation(&self, e: ElementId) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|id| self.annots[id.index()].element == Some(e))
            .collect()
    }

    /// The subset `I[e]_m` of the interpretation generated by mapping `m`
    /// (Section 5).
    pub fn interpretation_by(&self, e: ElementId, m: &MappingName) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|id| {
                let a = &self.annots[id.index()];
                a.element == Some(e) && a.has_mapping(m)
            })
            .collect()
    }

    /// A human-readable location of a node, e.g. `/Portal/estates[1]/value`.
    pub fn node_path(&self, id: NodeId) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut cur = id;
        loop {
            let node = &self.nodes[cur.index()];
            if node.label.is_star() {
                // Position of this member within the parent set.
                let parent = node.parent.expect("set member has a parent");
                let pos = self
                    .children(parent)
                    .iter()
                    .position(|&c| c == cur)
                    .unwrap_or(0);
                parts.push(format!("[{pos}]"));
            } else {
                parts.push(node.label.to_string());
            }
            match node.parent {
                Some(p) => cur = p,
                None => break,
            }
        }
        parts.reverse();
        let mut out = String::new();
        for p in parts {
            if p.starts_with('[') {
                out.push_str(&p);
            } else {
                out.push('/');
                out.push_str(&p);
            }
        }
        out
    }
}

/// A conformance failure (Definition 4.2): the instance does not conform to
/// the schema.
#[derive(Clone, Debug)]
pub struct ConformanceError {
    /// The offending node.
    pub node: NodeId,
    /// Human-readable description.
    pub reason: String,
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conformance error at {:?}: {}", self.node, self.reason)
    }
}

impl std::error::Error for ConformanceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AtomicType, Type};

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

    fn estate(hid: &str, stories: &str, value: &str, contact: &str) -> Value {
        Value::record(vec![
            ("hid", Value::str(hid)),
            ("stories", Value::str(stories)),
            ("value", Value::str(value)),
            ("contact", Value::str(contact)),
        ])
    }

    /// Builds the Figure 3 instance (two estates, one contact).
    fn figure3_instance() -> Instance {
        let mut inst = Instance::new("Pdb");
        inst.install_root(
            "Portal",
            Value::record(vec![
                (
                    "estates",
                    Value::set(vec![
                        estate("H522", "2", "500K", "HomeGain"),
                        estate("H2525", "1", "300K", "HomeGain"),
                    ]),
                ),
                (
                    "contacts",
                    Value::set(vec![Value::record(vec![
                        ("title", Value::str("HomeGain")),
                        ("phone", Value::str("18009468501")),
                    ])]),
                ),
            ]),
        );
        inst
    }

    #[test]
    fn build_and_navigate() {
        let inst = figure3_instance();
        let portal = inst.root("Portal").unwrap();
        let estates = inst.child_by_label(portal, "estates").unwrap();
        let members = inst.set_members(estates).unwrap();
        assert_eq!(members.len(), 2);
        let hid = inst.child_by_label(members[0], "hid").unwrap();
        assert_eq!(inst.atomic(hid).unwrap().as_str(), Some("H522"));
        assert_eq!(inst.parent(hid), Some(members[0]));
    }

    #[test]
    fn conformance_and_interpretation() {
        let schema = portal_schema();
        let mut inst = figure3_instance();
        inst.annotate_elements(&schema).unwrap();
        let value_elem = schema.resolve_path("/Portal/estates/value").unwrap();
        let interp = inst.interpretation(value_elem);
        assert_eq!(interp.len(), 2);
        let texts: Vec<&str> = interp
            .iter()
            .map(|&n| inst.atomic(n).unwrap().as_str().unwrap())
            .collect();
        assert!(texts.contains(&"500K") && texts.contains(&"300K"));
    }

    #[test]
    fn conformance_rejects_bad_label() {
        let schema = portal_schema();
        let mut inst = Instance::new("Pdb");
        inst.install_root("Portal", Value::record(vec![("bogus", Value::str("x"))]));
        assert!(inst.annotate_elements(&schema).is_err());
    }

    #[test]
    fn conformance_rejects_bad_root() {
        let schema = portal_schema();
        let mut inst = Instance::new("Pdb");
        inst.install_root("Elsewhere", Value::str("x"));
        assert!(inst.annotate_elements(&schema).is_err());
    }

    #[test]
    fn mapping_annotations_union() {
        let mut inst = figure3_instance();
        let portal = inst.root("Portal").unwrap();
        inst.add_mapping(portal, MappingName::new("m3"));
        inst.add_mapping(portal, MappingName::new("m2"));
        inst.add_mapping(portal, MappingName::new("m2"));
        let names: Vec<&str> = inst
            .annotation(portal)
            .mappings
            .iter()
            .map(|m| m.as_str())
            .collect();
        assert_eq!(names, ["m2", "m3"]);
        assert!(inst.annotation(portal).has_mapping(&MappingName::new("m3")));
        assert!(!inst.annotation(portal).has_mapping(&MappingName::new("m1")));
    }

    #[test]
    fn interpretation_by_mapping() {
        let schema = portal_schema();
        let mut inst = figure3_instance();
        inst.annotate_elements(&schema).unwrap();
        let value_elem = schema.resolve_path("/Portal/estates/value").unwrap();
        let interp = inst.interpretation(value_elem);
        inst.add_mapping(interp[0], MappingName::new("m2"));
        inst.add_mapping(interp[1], MappingName::new("m3"));
        assert_eq!(
            inst.interpretation_by(value_elem, &MappingName::new("m2")),
            vec![interp[0]]
        );
    }

    #[test]
    fn deep_eq_is_set_order_insensitive() {
        let mut inst = Instance::new("X");
        let a = inst.install_root(
            "A",
            Value::set(vec![estate("1", "a", "b", "c"), estate("2", "d", "e", "f")]),
        );
        let b = inst.install_root(
            "A",
            Value::set(vec![estate("2", "d", "e", "f"), estate("1", "a", "b", "c")]),
        );
        assert!(inst.deep_eq(a, b));
        assert_eq!(inst.deep_hash(a), inst.deep_hash(b));
    }

    #[test]
    fn deep_eq_detects_difference() {
        let mut inst = Instance::new("X");
        let a = inst.install_root("A", estate("1", "a", "b", "c"));
        let b = inst.install_root("A", estate("1", "a", "b", "d"));
        assert!(!inst.deep_eq(a, b));
    }

    #[test]
    fn to_value_round_trip() {
        let inst = figure3_instance();
        let portal = inst.root("Portal").unwrap();
        let v = inst.to_value(portal);
        let mut inst2 = Instance::new("Pdb");
        let r2 = inst2.install_root("Portal", v);
        // Compare by re-extracting.
        assert_eq!(inst.to_value(portal), inst2.to_value(r2));
    }

    #[test]
    fn push_set_member_appends() {
        let mut inst = figure3_instance();
        let portal = inst.root("Portal").unwrap();
        let estates = inst.child_by_label(portal, "estates").unwrap();
        inst.push_set_member(estates, estate("H9", "3", "700K", "Acme"));
        assert_eq!(inst.set_members(estates).unwrap().len(), 3);
    }

    #[test]
    fn walk_visits_everything_once() {
        let inst = figure3_instance();
        let order = inst.walk();
        assert_eq!(order.len(), inst.len());
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), inst.len());
    }

    #[test]
    fn node_path_rendering() {
        let inst = figure3_instance();
        let portal = inst.root("Portal").unwrap();
        let estates = inst.child_by_label(portal, "estates").unwrap();
        let m1 = inst.set_members(estates).unwrap()[1];
        let hid = inst.child_by_label(m1, "hid").unwrap();
        assert_eq!(inst.node_path(hid), "/Portal/estates[1]/hid");
    }

    #[test]
    fn truncate_rolls_back_to_a_prefix() {
        let mut inst = figure3_instance();
        let snapshot_len = inst.len();
        let snapshot = inst.to_value(inst.root("Portal").unwrap());
        // Simulate a partially-applied mapping: new member, new root, and a
        // mapping annotation on a surviving node.
        let portal = inst.root("Portal").unwrap();
        let estates = inst.child_by_label(portal, "estates").unwrap();
        inst.push_set_member(estates, estate("H9", "3", "700K", "Acme"));
        inst.install_root("Stray", Value::str("x"));
        inst.add_mapping(estates, MappingName::new("m9"));
        inst.truncate(snapshot_len);
        inst.remove_mapping(estates, &MappingName::new("m9"));
        assert_eq!(inst.len(), snapshot_len);
        assert_eq!(inst.roots().len(), 1);
        assert_eq!(inst.set_members(estates).unwrap().len(), 2);
        assert!(!inst
            .annotation(estates)
            .has_mapping(&MappingName::new("m9")));
        assert_eq!(inst.to_value(inst.root("Portal").unwrap()), snapshot);
    }

    #[test]
    fn truncate_unselects_pruned_choice() {
        let mut inst = Instance::new("X");
        let root = inst.push_raw("title".into(), None, NodeData::Choice(None), true);
        let len_before = inst.len();
        let kid = inst.push_raw(
            "firm".into(),
            Some(root),
            NodeData::Atomic(AtomicValue::Str("HomeGain".into())),
            false,
        );
        inst.replace_children(root, vec![kid]);
        inst.truncate(len_before);
        assert!(inst.choice_selection(root).is_none());
        assert!(inst.children(root).is_empty());
    }

    #[test]
    fn truncate_past_end_is_a_no_op() {
        let mut inst = figure3_instance();
        let len = inst.len();
        inst.truncate(len + 100);
        inst.truncate(len);
        assert_eq!(inst.len(), len);
    }

    #[test]
    fn refresh_copies_only_dirty_blocks_and_matches_clone() {
        let schema = portal_schema();
        let mut live = Instance::new("Pdb");
        let estates: Vec<Value> = (0..200)
            .map(|i| estate(&format!("H{i}"), "1", "100K", "HomeGain"))
            .collect();
        live.install_root(
            "Portal",
            Value::record(vec![
                ("estates", Value::set(estates)),
                ("contacts", Value::set(vec![])),
            ]),
        );
        live.annotate_elements(&schema).unwrap();
        let mut replica = live.clone();
        live.clear_dirty();
        replica.clear_dirty();
        // Re-annotating an annotated instance writes nothing.
        live.annotate_elements(&schema).unwrap();
        assert_eq!(live.dirty_blocks(), 0);

        let portal = live.root("Portal").unwrap();
        let set = live.child_by_label(portal, "estates").unwrap();
        let gone = live.set_members(set).unwrap()[150];
        live.detach_set_member(set, gone);
        live.strip_annotations(gone);
        live.push_set_member(set, estate("H999", "2", "900K", "Acme"));
        live.annotate_elements(&schema).unwrap();
        let total = live.len().div_ceil(64);
        assert!(
            live.dirty_blocks() <= 4,
            "{} of {total}",
            live.dirty_blocks()
        );

        // A replica-side write is undone by the refresh too.
        let stray = replica.set_members(set).unwrap()[3];
        replica.add_mapping(stray, MappingName::new("m9"));
        replica.refresh_from(&live);
        assert!(replica == live.clone());
        assert_eq!(replica.dirty_blocks(), 0);

        // Truncation below the replica's length shrinks it.
        live.clear_dirty();
        live.truncate(live.len() - 10);
        replica.refresh_from(&live);
        assert!(replica == live);
    }

    #[test]
    fn choice_nodes() {
        let mut inst = Instance::new("USdb");
        let root = inst.install_root("title", Value::choice("firm", Value::str("HomeGain")));
        let (label, kid) = inst.choice_selection(root).unwrap();
        assert_eq!(label, "firm");
        assert_eq!(inst.atomic(kid).unwrap().as_str(), Some("HomeGain"));
        assert_eq!(inst.children(root), &[kid]);
    }
}
