//! # rsky-altree
//!
//! In-memory **AL-Tree** — the attribute-level prefix tree (trie) that powers
//! the paper's main contribution, group-level reasoning with early pruning
//! (Section 4.3). The structure is the in-memory variant of the AL-Tree of
//! Deshpande et al. (EDBT 2008): the prefix tree of the dataset under a
//! chosen attribute ordering, where
//!
//! * a node at depth `l` fixes the values of the first `l` attributes (in
//!   *tree order* — callers apply their attribute permutation before
//!   inserting);
//! * every node knows how many record instances live in its subtree
//!   (`desc_count`), which the TRS search uses to visit promising subtrees
//!   first;
//! * leaves (depth `m`) carry the **record ids** of the objects with exactly
//!   that value combination. The paper stores a duplicate count; we keep the
//!   ids themselves so an object scanned from disk can be prevented from
//!   pruning *itself* while still pruning its exact duplicates — a
//!   distinction a bare count cannot make.
//!
//! ## Packed layout
//!
//! A tree holds one batch. It is built in one pass over the batch's rows
//! ([`AlTree::insert`] per row, then [`AlTree::seal`]) with no allocation
//! per node: every node is a 28-byte record in one flat array indexed by
//! [`NodeIdx`] in creation order. Sealing packs every internal node's
//! children into one contiguous range of a shared array, with the children's
//! values in the same range of a second one
//! ([`AlTree::children_and_values`]), and every leaf's record ids into one
//! contiguous range of a third, in arrival order. The walks of Algorithms 4
//! and 5 therefore read a node's child values from one contiguous range. A
//! sealed tree only shrinks ([`AlTree::remove_leaf_except`],
//! [`AlTree::remove`]); the next batch starts with [`AlTree::clear`], which
//! keeps every array's capacity.
//!
//! Sealing lays every child range out in **search order**: ascending
//! descendant count, value order among ties. It sums the descendant counts
//! first, so the packing pass sorts each range as it writes it, and only
//! the ranges whose counts are not already ascending. The `IsPrunable` walk
//! (Algorithm 4) pushes children in range order and the LIFO stack pops the
//! most promising subtree first, with no sorting per node visit and no
//! second pass over the tree. A tree made with [`AlTree::in_value_order`]
//! keeps every range in value order instead (TRS's child-ordering
//! ablation).
//!
//! The tree tracks a modeled memory footprint ([`AlTree::estimated_bytes`]):
//! TRS sizes its batches by this estimate, and because a prefix tree shares
//! prefixes, dense datasets pack far more objects into the same memory
//! budget than flat buffers — one of the IO advantages the paper reports for
//! TRS.
//!
//! Traversal itself (the `IsPrunable` / `Prune` walks of Algorithms 4 and 5)
//! lives in `rsky-algos::trs`; this crate provides the structure, mutation
//! and accessors.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rsky_core::record::{RecordId, ValueId};

/// Index of a node: its position in creation order.
pub type NodeIdx = u32;

/// The index of the root node.
pub const ROOT: NodeIdx = 0;

/// Modeled fixed cost of one node, in bytes, charged against the memory
/// budget: value + subtree count + child-range offset/length — the lean
/// pointerless layout the paper's in-memory AL-Tree implies. The physical
/// footprint differs by a constant factor; the budget models the
/// *algorithm's* memory need, the same way BRS/SRS batches are budgeted by
/// `records × record_bytes` rather than by allocator-measured buffer sizes.
const NODE_BASE_BYTES: u64 = 16;
/// Modeled incremental cost of one child pointer / one leaf id.
const SLOT_BYTES: u64 = 4;
/// End of a build-time child list.
const NIL: u32 = u32::MAX;

/// One node's fields.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Value this node fixes for attribute `level - 1` (tree order).
    value: ValueId,
    parent: NodeIdx,
    /// Record instances in this subtree.
    desc: u32,
    /// Slot range `start..end`: into `kids`/`kid_vals` for an internal
    /// node, into `ids` for a leaf. Until [`AlTree::seal`] lays the ranges
    /// out, an internal node's are the head and tail of its value-sorted
    /// child list (linked by `next`; the tail holds the largest value).
    start: u32,
    end: u32,
    /// Next sibling in the build-time child list.
    next: u32,
    /// Depth; root is 0, leaves are `m`.
    level: u16,
}

impl Node {
    fn new(value: ValueId, parent: NodeIdx, level: usize) -> Self {
        Node { value, parent, desc: 0, start: NIL, end: NIL, next: NIL, level: level as u16 }
    }
}

/// Prefix tree over records of `m` attributes (in a caller-chosen order).
///
/// ```
/// use rsky_altree::{AlTree, ROOT};
///
/// let mut t = AlTree::new(3);
/// t.insert(&[0, 0, 1], 1); // O1 [MSW, AMD, DB2]
/// t.insert(&[0, 0, 1], 4); // O4 — exact duplicate shares the whole path
/// t.insert(&[0, 1, 1], 6); // O6 — shares the [MSW] prefix
/// t.seal();
/// assert_eq!(t.num_records(), 3);
/// assert_eq!(t.num_nodes(), 6); // root + MSW + 2×(CPU, DB) chains
/// assert_eq!(t.desc_count(t.children(ROOT)[0]), 3);
/// assert!(t.remove(&[0, 0, 1], 4));
/// // Sealed in search order: the smaller [MSW, Intel] subtree comes first.
/// assert_eq!(t.collect_ids(), vec![6, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct AlTree {
    m: usize,
    nodes: Vec<Node>,
    /// Child links, each parent's contiguous.
    kids: Vec<NodeIdx>,
    /// `kid_vals[i]` is the value of `kids[i]`.
    kid_vals: Vec<ValueId>,
    /// Record ids in arrival order while building; after sealing, each
    /// leaf's contiguous (leaves in creation order), in arrival order.
    ids: Vec<RecordId>,
    /// Whether every record so far went to its predecessor's leaf or to a
    /// new one, so `ids` is already grouped by leaf. Sorted and tiled
    /// batches stay grouped; otherwise `row_leaf` holds each record's leaf
    /// and sealing regroups `ids` through `scratch`.
    grouped: bool,
    row_leaf: Vec<NodeIdx>,
    scratch: Vec<RecordId>,
    /// The previously inserted record's values and path: an insert starts
    /// below their longest common prefix, which for a sorted batch skips
    /// almost every child lookup.
    prev_vals: Vec<ValueId>,
    prev_path: Vec<NodeIdx>,
    live_nodes: usize,
    estimated_bytes: u64,
    num_records: u64,
    sealed: bool,
    /// Whether sealing lays child ranges out in search order; unset, they
    /// stay in value order ([`AlTree::in_value_order`]).
    search_order: bool,
    /// Whether every child range is sorted by value (binary-search
    /// lookups): cleared when sealing re-orders one for search.
    value_sorted: bool,
}

impl AlTree {
    /// Creates an empty tree for records of `m` attributes, whose sealed
    /// child ranges are in search order (see the crate docs).
    pub fn new(m: usize) -> Self {
        Self::with_child_order(m, true)
    }

    /// Creates an empty tree for records of `m` attributes, whose sealed
    /// child ranges stay in value order: the order a walk takes without the
    /// paper's promising-subtree-first heuristic.
    pub fn in_value_order(m: usize) -> Self {
        Self::with_child_order(m, false)
    }

    fn with_child_order(m: usize, search_order: bool) -> Self {
        assert!(m >= 1, "AL-Tree needs at least one attribute");
        assert!(m <= u16::MAX as usize, "attribute count exceeds tree depth limit");
        let mut t = Self {
            m,
            nodes: Vec::new(),
            kids: Vec::new(),
            kid_vals: Vec::new(),
            ids: Vec::new(),
            grouped: true,
            row_leaf: Vec::new(),
            scratch: Vec::new(),
            prev_vals: vec![0; m],
            prev_path: vec![ROOT; m],
            live_nodes: 0,
            estimated_bytes: 0,
            num_records: 0,
            sealed: false,
            search_order,
            value_sorted: true,
        };
        t.clear();
        t
    }

    /// Number of attributes / tree depth.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.m
    }

    /// Record instances currently stored.
    #[inline]
    pub fn num_records(&self) -> u64 {
        self.num_records
    }

    /// Whether no records are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_records() == 0
    }

    /// Modeled heap footprint in bytes: 16 per node plus 4 per child link
    /// and per leaf id. Deterministic (based on element counts, not
    /// allocator capacities) so batch sizing is reproducible; exact after
    /// every insert, so a loader can stop between pages.
    #[inline]
    pub fn estimated_bytes(&self) -> u64 {
        self.estimated_bytes
    }

    /// Live (not detached) nodes, including the root.
    pub fn num_nodes(&self) -> usize {
        self.live_nodes
    }

    /// Value fixed by `node` (meaningless for the root).
    #[inline]
    pub fn value(&self, node: NodeIdx) -> ValueId {
        self.nodes[node as usize].value
    }

    /// Depth of `node`; the node fixes attribute `level(node) - 1`.
    #[inline]
    pub fn level(&self, node: NodeIdx) -> u16 {
        self.nodes[node as usize].level
    }

    /// Whether `node` is a leaf (depth `m`).
    #[inline]
    pub fn is_leaf(&self, node: NodeIdx) -> bool {
        self.nodes[node as usize].level as usize == self.m
    }

    /// The slot range of `node` in `kids`/`kid_vals` or `ids`.
    #[inline]
    fn slots(&self, node: NodeIdx) -> std::ops::Range<usize> {
        debug_assert!(self.sealed, "read of an unsealed AL-Tree");
        let n = &self.nodes[node as usize];
        n.start as usize..n.end as usize
    }

    /// Children of `node`, in search order as sealed (ascending descendant
    /// count, value order among ties), or in value order in a tree made with
    /// [`AlTree::in_value_order`].
    ///
    /// Must not be called on leaves (their slots hold record ids).
    #[inline]
    pub fn children(&self, node: NodeIdx) -> &[NodeIdx] {
        debug_assert!(!self.is_leaf(node));
        &self.kids[self.slots(node)]
    }

    /// Children of `node` and, position for position, their values: the
    /// contiguous ranges the tree walks read.
    #[inline]
    pub fn children_and_values(&self, node: NodeIdx) -> (&[NodeIdx], &[ValueId]) {
        debug_assert!(!self.is_leaf(node));
        let r = self.slots(node);
        (&self.kids[r.clone()], &self.kid_vals[r])
    }

    /// Record instances below `node`.
    #[inline]
    pub fn desc_count(&self, node: NodeIdx) -> u32 {
        self.nodes[node as usize].desc
    }

    /// Record ids stored at leaf `node`, in arrival order.
    ///
    /// Must not be called on internal nodes (their slots hold child links).
    #[inline]
    pub fn leaf_ids(&self, node: NodeIdx) -> &[RecordId] {
        debug_assert!(self.is_leaf(node));
        &self.ids[self.slots(node)]
    }

    /// Parent of `node` (the root is its own parent).
    #[inline]
    pub fn parent(&self, node: NodeIdx) -> NodeIdx {
        self.nodes[node as usize].parent
    }

    /// Appends a node with no children or records yet.
    fn new_node(&mut self, value: ValueId, parent: NodeIdx, level: usize) -> NodeIdx {
        let idx = self.nodes.len() as NodeIdx;
        self.nodes.push(Node::new(value, parent, level));
        self.live_nodes += 1;
        self.estimated_bytes += NODE_BASE_BYTES + SLOT_BYTES;
        idx
    }

    /// The child of `parent` with `value`, created in value order if
    /// absent. A value above the largest child so far (every new value of a
    /// sorted batch) is appended without a search.
    fn child_for(&mut self, parent: NodeIdx, value: ValueId, level: usize) -> NodeIdx {
        let p = parent as usize;
        let (head, tail) = (self.nodes[p].start, self.nodes[p].end);
        if tail != NIL && self.nodes[tail as usize].value >= value {
            if self.nodes[tail as usize].value == value {
                return tail;
            }
            // The list holds a larger value, so the walk stops inside it.
            let (mut prev, mut c) = (NIL, head);
            while self.nodes[c as usize].value < value {
                prev = c;
                c = self.nodes[c as usize].next;
            }
            if self.nodes[c as usize].value == value {
                return c;
            }
            let n = self.new_node(value, parent, level);
            self.nodes[n as usize].next = c;
            if prev == NIL {
                self.nodes[p].start = n;
            } else {
                self.nodes[prev as usize].next = n;
            }
            return n;
        }
        let n = self.new_node(value, parent, level);
        if tail == NIL {
            self.nodes[p].start = n;
        } else {
            self.nodes[tail as usize].next = n;
        }
        self.nodes[p].end = n;
        n
    }

    /// Adds a record with `values` (already in tree attribute order) to the
    /// batch being built. Correct for any input order; a sorted batch (or a
    /// tiled one, sorted within tiles) reuses its predecessor's path along
    /// their common prefix and appends new children without searching.
    ///
    /// # Panics
    /// Panics if `values.len() != m` or if the tree is sealed.
    pub fn insert(&mut self, values: &[ValueId], id: RecordId) {
        assert!(!self.sealed, "insert into a sealed AL-Tree (clear it first)");
        assert_eq!(values.len(), self.m, "record arity mismatch");
        let mut l = 0;
        if self.num_records > 0 {
            while l < self.m && self.prev_vals[l] == values[l] {
                l += 1;
            }
        }
        let mut cur = if l == 0 { ROOT } else { self.prev_path[l - 1] };
        for (j, &v) in values.iter().enumerate().skip(l) {
            cur = self.child_for(cur, v, j + 1);
            self.prev_path[j] = cur;
            self.prev_vals[j] = v;
        }
        if self.grouped && l < self.m && self.nodes[cur as usize].desc > 0 {
            // Back to a leaf an earlier record left: `ids` stops being
            // grouped. Every record so far sits at the leaves in creation
            // order, as many at each as it counts.
            self.grouped = false;
            self.row_leaf.clear();
            for (i, n) in self.nodes.iter().enumerate() {
                if n.level as usize == self.m {
                    self.row_leaf.resize(self.row_leaf.len() + n.desc as usize, i as NodeIdx);
                }
            }
        }
        self.nodes[cur as usize].desc += 1;
        if !self.grouped {
            self.row_leaf.push(cur);
        }
        self.ids.push(id);
        self.num_records += 1;
        self.estimated_bytes += SLOT_BYTES;
    }

    /// Ends the build: sums descendant counts bottom-up, packs every
    /// internal node's children (values beside them) into a contiguous
    /// range in search order — ascending descendant count, value order among
    /// ties; value order alone in a tree made with [`AlTree::in_value_order`]
    /// — and gives every leaf the contiguous range of its ids (arrival
    /// order). `O(nodes + records)`, plus a sort of each range whose counts
    /// do not already ascend. Reads and removals need a sealed tree; sealing
    /// twice is a no-op.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        // A node is created after its parent, so one reverse pass sums
        // every subtree.
        for c in (1..self.nodes.len()).rev() {
            let (p, d) = (self.nodes[c].parent as usize, self.nodes[c].desc);
            self.nodes[p].desc += d;
        }
        self.kids.clear();
        self.kid_vals.clear();
        let mut next_id = 0u32;
        for node in 0..self.nodes.len() {
            let n = self.nodes[node];
            if n.level as usize == self.m {
                // Leaves take their ids in creation order. Ungrouped ids
                // are scattered below, with `end` as each leaf's cursor.
                let first = next_id;
                next_id += n.desc;
                self.nodes[node].start = first;
                self.nodes[node].end = if self.grouped { next_id } else { first };
            } else {
                // Children come after their parent: the list head is read
                // before the range overwrites it. The list is in value
                // order, so a range whose counts ascend is in search order.
                let first = self.kids.len();
                let (mut c, mut ascending, mut last) = (n.start, true, 0);
                while c != NIL {
                    let child = &self.nodes[c as usize];
                    ascending &= child.desc >= last;
                    last = child.desc;
                    self.kids.push(c);
                    self.kid_vals.push(child.value);
                    c = child.next;
                }
                if self.search_order && !ascending {
                    let nodes = &self.nodes;
                    let range = &mut self.kids[first..];
                    range.sort_unstable_by_key(|&c| (nodes[c as usize].desc, nodes[c as usize].value));
                    for (v, &c) in self.kid_vals[first..].iter_mut().zip(range.iter()) {
                        *v = nodes[c as usize].value;
                    }
                    self.value_sorted = false;
                }
                self.nodes[node].start = first as u32;
                self.nodes[node].end = self.kids.len() as u32;
            }
        }
        if !self.grouped {
            // Stable scatter by leaf; each leaf's `end` is its fill cursor.
            self.scratch.clear();
            self.scratch.resize(self.ids.len(), 0);
            for (&leaf, &id) in self.row_leaf.iter().zip(&self.ids) {
                let n = &mut self.nodes[leaf as usize];
                self.scratch[n.end as usize] = id;
                n.end += 1;
            }
            std::mem::swap(&mut self.ids, &mut self.scratch);
        }
        self.sealed = true;
    }

    /// The child of `node` with `value`, in a sealed tree.
    fn child_by_value(&self, node: NodeIdx, value: ValueId) -> Option<NodeIdx> {
        let r = self.slots(node);
        let vals = &self.kid_vals[r.clone()];
        let pos = if self.value_sorted {
            vals.binary_search(&value).ok()
        } else {
            vals.iter().position(|&v| v == value)
        };
        pos.map(|i| self.kids[r.start + i])
    }

    /// Removes the record instance `id` stored under `values` (tree order).
    /// Returns `true` if it was present. The leaf's other ids keep their
    /// order; empty nodes are detached.
    ///
    /// # Panics
    /// Panics if `values.len() != m` or if the tree is not sealed.
    pub fn remove(&mut self, values: &[ValueId], id: RecordId) -> bool {
        assert!(self.sealed, "remove from an unsealed AL-Tree");
        assert_eq!(values.len(), self.m, "record arity mismatch");
        let mut cur = ROOT;
        for &v in values {
            match self.child_by_value(cur, v) {
                Some(c) => cur = c,
                None => return false,
            }
        }
        let r = self.slots(cur);
        match self.ids[r.clone()].iter().position(|&x| x == id) {
            Some(pos) => {
                self.ids.copy_within(r.start + pos + 1..r.end, r.start + pos);
                self.nodes[cur as usize].end -= 1;
                self.estimated_bytes -= SLOT_BYTES;
                self.after_leaf_removal(cur, 1);
                true
            }
            None => false,
        }
    }

    /// Removes every id at leaf `node` except `keep` (if given and present).
    /// Returns how many instances were removed. Used by the TRS `Prune`
    /// operation: an object scanned from disk removes all objects its values
    /// dominate, *sparing itself*.
    ///
    /// # Panics
    /// Panics if `node` is not a leaf or the tree is not sealed.
    pub fn remove_leaf_except(&mut self, node: NodeIdx, keep: Option<RecordId>) -> u32 {
        assert!(self.sealed, "remove from an unsealed AL-Tree");
        assert!(self.is_leaf(node), "remove_leaf_except on internal node");
        let r = self.slots(node);
        let kept = match keep {
            Some(k) if self.ids[r.clone()].contains(&k) => {
                self.ids[r.start] = k;
                1
            }
            _ => 0,
        };
        let removed = (r.len() - kept) as u32;
        if removed > 0 {
            self.nodes[node as usize].end = (r.start + kept) as u32;
            self.estimated_bytes -= SLOT_BYTES * removed as u64;
            self.after_leaf_removal(node, removed);
        }
        removed
    }

    /// Propagates a removal of `count` instances from leaf `node` upward:
    /// decrements descendant counts and detaches nodes that became empty,
    /// keeping their siblings in order.
    fn after_leaf_removal(&mut self, node: NodeIdx, count: u32) {
        self.num_records -= count as u64;
        let mut cur = node;
        loop {
            self.nodes[cur as usize].desc -= count;
            if cur == ROOT {
                break;
            }
            let parent = self.nodes[cur as usize].parent;
            if self.nodes[cur as usize].desc == 0 {
                let r = self.slots(parent);
                if let Some(pos) = self.kids[r.clone()].iter().position(|&c| c == cur) {
                    let at = r.start + pos;
                    self.kids.copy_within(at + 1..r.end, at);
                    self.kid_vals.copy_within(at + 1..r.end, at);
                    self.nodes[parent as usize].end -= 1;
                    self.estimated_bytes -= SLOT_BYTES;
                }
                self.live_nodes -= 1;
                self.estimated_bytes -= NODE_BASE_BYTES;
            }
            cur = parent;
        }
    }

    /// All record ids currently stored, in depth-first order.
    pub fn collect_ids(&self) -> Vec<RecordId> {
        assert!(self.sealed, "collect_ids on an unsealed AL-Tree");
        let mut out = Vec::with_capacity(self.num_records as usize);
        let mut stack = vec![ROOT];
        while let Some(n) = stack.pop() {
            if self.is_leaf(n) {
                out.extend_from_slice(self.leaf_ids(n));
            } else {
                // Push in reverse so the first child is processed first.
                stack.extend(self.children(n).iter().rev());
            }
        }
        out
    }

    /// Resets the tree to an empty, unsealed root, keeping every array's
    /// capacity for the next batch (the workhorse-collection pattern).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.ids.clear();
        self.row_leaf.clear();
        self.grouped = true;
        self.nodes.push(Node::new(0, ROOT, 0));
        self.live_nodes = 1;
        self.estimated_bytes = NODE_BASE_BYTES;
        self.num_records = 0;
        self.sealed = false;
        self.value_sorted = true;
    }

    /// Invariant check of a sealed tree: descendant counts equal the number
    /// of leaf instances below every node, child ranges are value-sorted
    /// (unless sealing re-ordered one for search) with each stored value
    /// equal to its child's, levels and parents are consistent, no empty
    /// non-root node remains attached, and the memory estimate matches the
    /// live node and record counts. `O(nodes)`.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.sealed {
            return Err("tree is not sealed".into());
        }
        let counted = self.check_node(ROOT, 0)?;
        if counted != self.nodes[ROOT as usize].desc {
            return Err("root desc_count mismatch".into());
        }
        if counted as u64 != self.num_records {
            return Err(format!(
                "num_records {} != counted instances {counted}",
                self.num_records
            ));
        }
        // Count reachable nodes to detect leaks.
        let mut visited = 0usize;
        let mut stack = vec![ROOT];
        while let Some(n) = stack.pop() {
            visited += 1;
            if !self.is_leaf(n) {
                stack.extend_from_slice(self.children(n));
            }
        }
        if visited != self.live_nodes {
            return Err(format!("{} live nodes but {visited} reachable", self.live_nodes));
        }
        let live = self.live_nodes as u64;
        let modeled = NODE_BASE_BYTES * live + SLOT_BYTES * (live - 1 + self.num_records);
        if modeled != self.estimated_bytes {
            return Err(format!("estimated_bytes {} expected {modeled}", self.estimated_bytes));
        }
        Ok(())
    }

    fn check_node(&self, node: NodeIdx, level: u16) -> Result<u32, String> {
        let n = &self.nodes[node as usize];
        if n.level != level {
            return Err(format!("node {node} level {} expected {level}", n.level));
        }
        if level as usize == self.m {
            let ids = self.leaf_ids(node);
            if ids.is_empty() {
                return Err(format!("leaf {node} holds no ids"));
            }
            if n.desc as usize != ids.len() {
                return Err(format!("leaf {node} desc_count != id count"));
            }
            return Ok(n.desc);
        }
        let (kids, vals) = self.children_and_values(node);
        if node != ROOT && kids.is_empty() {
            return Err(format!("empty internal node {node} not detached"));
        }
        if self.value_sorted && vals.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("children of {node} not strictly sorted"));
        }
        let mut sum = 0;
        for (&c, &v) in kids.iter().zip(vals) {
            let child = &self.nodes[c as usize];
            if child.value != v {
                return Err(format!("child {c} stored beside value {v}"));
            }
            if child.parent != node {
                return Err(format!("child {c} has wrong parent"));
            }
            sum += self.check_node(c, level + 1)?;
        }
        if sum != n.desc {
            return Err(format!("node {node} desc_count {} expected {sum}", n.desc));
        }
        Ok(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(m: usize, rows: &[(&[u32], u32)]) -> AlTree {
        build_into(AlTree::new(m), rows)
    }

    fn build_into(mut t: AlTree, rows: &[(&[u32], u32)]) -> AlTree {
        for &(vals, id) in rows {
            t.insert(vals, id);
        }
        t.seal();
        t
    }

    /// The separate pass that sealing in search order replaced, kept as the
    /// reference the sealed order is checked against: sorts every child
    /// range of a value-ordered tree by ascending descendant count, value
    /// order among ties, skipping ranges whose counts already ascend.
    fn order_children_for_search(t: &mut AlTree) {
        t.value_sorted = false;
        let mut keyed: Vec<(u64, NodeIdx)> = Vec::new();
        for node in 0..t.nodes.len() {
            if t.nodes[node].level as usize == t.m {
                continue;
            }
            let r = t.slots(node as NodeIdx);
            let desc = |c: NodeIdx| t.nodes[c as usize].desc;
            if t.kids[r.clone()].windows(2).all(|w| desc(w[0]) <= desc(w[1])) {
                continue;
            }
            keyed.clear();
            keyed.extend(r.clone().map(|i| ((desc(t.kids[i]) as u64) << 32 | t.kid_vals[i] as u64, t.kids[i])));
            keyed.sort_unstable();
            for (i, &(key, c)) in r.zip(&keyed) {
                t.kids[i] = c;
                t.kid_vals[i] = key as u32;
            }
        }
    }

    /// First-phase batch 1 of the paper's running example, sorted order:
    /// O1 [MSW, AMD, DB2], O2 [RHL, AMD, Informix], O3 [SL, Intel, Oracle].
    fn batch1() -> AlTree {
        build(3, &[(&[0, 0, 1], 1), (&[1, 0, 0], 2), (&[2, 1, 2], 3)])
    }

    #[test]
    fn insert_builds_shared_prefixes() {
        let t = build(3, &[(&[0, 0, 1], 1), (&[0, 0, 1], 4), (&[0, 1, 1], 6)]);
        // root + MSW + (AMD + DB2-leaf) + (Intel + DB2-leaf) = 6 nodes.
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.num_records(), 3);
        assert_eq!(t.desc_count(ROOT), 3);
        let msw = t.children(ROOT)[0];
        assert_eq!(t.desc_count(msw), 3);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_ids_accumulate_at_leaf() {
        let t = build(2, &[(&[1, 1], 10), (&[1, 1], 20)]);
        let l1 = t.children(ROOT)[0];
        let leaf = t.children(l1)[0];
        assert!(t.is_leaf(leaf));
        assert_eq!(t.leaf_ids(leaf), &[10, 20]);
        assert_eq!(t.desc_count(leaf), 2);
    }

    #[test]
    fn children_sorted_by_value() {
        let mut t = AlTree::new(1);
        for (i, v) in [5u32, 1, 3, 2, 4].into_iter().enumerate() {
            t.insert(&[v], i as u32);
        }
        t.seal();
        let (kids, vals) = t.children_and_values(ROOT);
        assert_eq!(vals, &[1, 2, 3, 4, 5]);
        // Nodes are numbered in creation order: value 5 came first.
        assert_eq!(kids, &[2, 4, 3, 5, 1]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn leaf_ids_keep_arrival_order_across_interleaved_inserts() {
        let t = build(1, &[(&[1], 7), (&[0], 3), (&[1], 5), (&[0], 9), (&[1], 1)]);
        let (kids, _) = t.children_and_values(ROOT);
        assert_eq!(t.leaf_ids(kids[0]), &[3, 9]);
        assert_eq!(t.leaf_ids(kids[1]), &[7, 5, 1]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_prunes_empty_chains() {
        let mut t = batch1();
        assert!(t.remove(&[1, 0, 0], 2));
        assert_eq!(t.num_records(), 2);
        // The whole RHL path disappears.
        assert_eq!(t.children(ROOT).len(), 2);
        t.check_invariants().unwrap();
        // Removing again fails.
        assert!(!t.remove(&[1, 0, 0], 2));
        // Wrong id at an existing leaf fails.
        assert!(!t.remove(&[0, 0, 1], 99));
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_keeps_shared_prefix_alive() {
        let mut t = build(2, &[(&[0, 0], 1), (&[0, 1], 2)]);
        assert!(t.remove(&[0, 0], 1));
        // Prefix node for value 0 must survive (still has the [0,1] child).
        assert_eq!(t.children(ROOT).len(), 1);
        assert_eq!(t.collect_ids(), vec![2]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_keeps_remaining_ids_and_children_in_order() {
        let rows: &[(&[u32], u32)] = &[(&[0], 1), (&[0], 2), (&[0], 3), (&[1], 4), (&[2], 5)];
        let mut t = build_into(AlTree::in_value_order(1), rows);
        assert!(t.remove(&[0], 2));
        assert_eq!(t.leaf_ids(t.children(ROOT)[0]), &[1, 3]);
        assert!(t.remove(&[1], 4));
        assert_eq!(t.children_and_values(ROOT).1, &[0, 2]);
        assert_eq!(t.collect_ids(), vec![1, 3, 5]);
        t.check_invariants().unwrap();
        // In search order the value-0 subtree (3 instances) comes last, and
        // removals keep that order too.
        let mut t = build(1, rows);
        assert_eq!(t.children_and_values(ROOT).1, &[1, 2, 0]);
        assert!(t.remove(&[0], 2));
        assert!(t.remove(&[1], 4));
        assert_eq!(t.children_and_values(ROOT).1, &[2, 0]);
        assert_eq!(t.collect_ids(), vec![5, 1, 3]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_leaf_except_spares_kept_id() {
        let mut t = build(2, &[(&[3, 3], 1), (&[3, 3], 2), (&[3, 3], 3)]);
        let l1 = t.children(ROOT)[0];
        let leaf = t.children(l1)[0];
        assert_eq!(t.remove_leaf_except(leaf, Some(2)), 2);
        assert_eq!(t.leaf_ids(leaf), &[2]);
        assert_eq!(t.num_records(), 1);
        t.check_invariants().unwrap();
        // Removing the rest detaches the path entirely.
        assert_eq!(t.remove_leaf_except(leaf, None), 1);
        assert!(t.is_empty());
        assert_eq!(t.children(ROOT).len(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_leaf_except_with_absent_keep_removes_all() {
        let mut t = build(1, &[(&[0], 1), (&[0], 2)]);
        let leaf = t.children(ROOT)[0];
        assert_eq!(t.remove_leaf_except(leaf, Some(42)), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn estimated_bytes_tracks_growth_and_shrink() {
        let mut t = AlTree::new(3);
        let empty = t.estimated_bytes();
        t.insert(&[0, 0, 1], 1);
        let one = t.estimated_bytes();
        assert!(one > empty);
        t.insert(&[0, 0, 1], 4); // duplicate: only one id slot added
        let two = t.estimated_bytes();
        assert!(two > one && two - one < one - empty);
        t.seal();
        assert_eq!(t.estimated_bytes(), two, "sealing moves no modeled byte");
        t.remove(&[0, 0, 1], 4);
        assert_eq!(t.estimated_bytes(), one);
        t.remove(&[0, 0, 1], 1);
        assert_eq!(t.estimated_bytes(), empty);
    }

    #[test]
    fn duplicates_cost_four_bytes_each() {
        let mut t = AlTree::new(3);
        for i in 0..100 {
            t.insert(&[7, i % 4, i % 2], i);
        }
        assert!(t.num_nodes() < 20);
        let before = t.estimated_bytes();
        t.insert(&[7, 0, 0], 1000);
        assert_eq!(t.estimated_bytes() - before, 4);
    }

    #[test]
    fn collect_ids_in_dfs_order() {
        let t = batch1();
        assert_eq!(t.collect_ids(), vec![1, 2, 3]);
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut t = batch1();
        let cap = t.kids.capacity();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.num_nodes(), 1);
        t.insert(&[1, 1, 1], 9);
        t.seal();
        assert_eq!(t.collect_ids(), vec![9]);
        assert_eq!(t.kids.capacity(), cap);
        t.check_invariants().unwrap();
    }

    #[test]
    fn invariant_checker_catches_corruption() {
        let mut t = batch1();
        t.nodes[ROOT as usize].desc = 99;
        assert!(t.check_invariants().is_err());
        let mut t = batch1();
        t.kid_vals[0] = 42;
        assert!(t.check_invariants().is_err());
        let mut unsealed = AlTree::new(1);
        unsealed.insert(&[0], 1);
        assert!(unsealed.check_invariants().is_err());
    }

    #[test]
    #[should_panic(expected = "sealed")]
    fn insert_after_seal_panics() {
        let mut t = batch1();
        t.insert(&[0, 0, 0], 4);
    }

    #[test]
    fn order_children_for_search_sorts_by_count() {
        let rows: &[(&[u32], u32)] = &[
            (&[0, 0], 1), // subtree of value 0: 1 instance
            (&[1, 0], 2), // subtree of value 1: 3 instances
            (&[1, 1], 3),
            (&[1, 2], 4),
            (&[2, 0], 5), // subtree of value 2: 2 instances
            (&[2, 0], 6),
            (&[3, 0], 7), // subtree of value 3: 2 instances (tie)
            (&[3, 1], 8),
        ];
        let t = build(2, rows);
        let (kids, vals) = t.children_and_values(ROOT);
        let counts: Vec<u32> = kids.iter().map(|&c| t.desc_count(c)).collect();
        assert_eq!(counts, vec![1, 2, 2, 3]);
        assert_eq!(vals, &[0, 2, 3, 1], "value order among ties");
        t.check_invariants().unwrap();
        let v = build_into(AlTree::in_value_order(2), rows);
        assert_eq!(v.children_and_values(ROOT).1, &[0, 1, 2, 3]);
        v.check_invariants().unwrap();
    }

    #[test]
    fn sealing_in_search_order_matches_the_separate_pass() {
        // Sorted and pseudo-random batches of 1 to 4 attributes: a tree
        // sealed in search order equals a value-ordered tree re-ordered by
        // the old pass, range for range.
        let mut state = 99u64;
        let mut next = move |k: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % k) as u32
        };
        for m in 1..=4 {
            for sorted in [true, false] {
                let mut rows: Vec<Vec<u32>> = (0..300).map(|_| (0..m).map(|_| next(5)).collect()).collect();
                if sorted {
                    rows.sort_unstable();
                }
                let (mut search, mut value) = (AlTree::new(m), AlTree::in_value_order(m));
                for (i, r) in rows.iter().enumerate() {
                    search.insert(r, i as u32);
                    value.insert(r, i as u32);
                }
                search.seal();
                value.seal();
                order_children_for_search(&mut value);
                assert_eq!((&search.kids, &search.kid_vals), (&value.kids, &value.kid_vals), "m = {m}");
                for n in 0..search.nodes.len() as NodeIdx {
                    if search.is_leaf(n) {
                        assert_eq!(search.leaf_ids(n), value.leaf_ids(n));
                    } else {
                        assert_eq!(search.children_and_values(n), value.children_and_values(n));
                    }
                }
                search.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn remove_still_works_after_reordering() {
        let mut t = build(2, &[(&[3, 0], 1), (&[1, 0], 2), (&[1, 0], 3), (&[2, 2], 5)]);
        assert_eq!(t.children_and_values(ROOT).1, &[2, 3, 1], "sealed in search order");
        assert!(t.remove(&[1, 0], 2));
        assert!(t.remove(&[2, 2], 5));
        assert!(!t.remove(&[2, 2], 5));
        t.check_invariants().unwrap();
        let mut ids = t.collect_ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn insert_order_keeps_paths_and_ids() {
        // Sorted input (the TRS case), reversed input (the previous path
        // never helps past the root) and pseudo-random input must describe
        // the same trie: the same paths with the same id multisets, the
        // same node count and the same modeled bytes.
        let mut state = 12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 4) as u32
        };
        let random: Vec<[u32; 4]> = (0..500).map(|_| [next(), next(), next(), next()]).collect();
        let mut sorted = random.clone();
        sorted.sort_unstable();
        let mut reversed = sorted.clone();
        reversed.reverse();
        let describe = |rows: &[[u32; 4]]| {
            let mut t = AlTree::new(4);
            for (i, r) in rows.iter().enumerate() {
                t.insert(r, i as u32);
            }
            t.seal();
            t.check_invariants().unwrap();
            let mut paths = Vec::new();
            for &a in t.children(ROOT) {
                for &b in t.children(a) {
                    for &c in t.children(b) {
                        for &d in t.children(c) {
                            let path = [a, b, c, d].map(|n| t.value(n));
                            let ids: Vec<u32> = t.leaf_ids(d).iter().map(|&i| rows[i as usize][0]).collect();
                            paths.push((path, ids.len(), ids.iter().all(|&v| v == path[0])));
                        }
                    }
                }
            }
            (t.num_nodes(), t.estimated_bytes(), paths)
        };
        let want = describe(&sorted);
        assert_eq!(describe(&reversed), want);
        assert_eq!(describe(&random), want);
    }

    /// Inserts `values` walking down from the root, as if the previous
    /// record shared no prefix with it: the plain insertion that
    /// [`AlTree::insert`]'s reuse of the previous path must match.
    fn insert_from_root(t: &mut AlTree, values: &[u32], id: u32) {
        if t.num_records > 0 {
            t.prev_vals[0] = !values[0];
        }
        t.insert(values, id);
    }

    /// Builds `rows` twice, once reusing the previous record's path and
    /// once from the root, and checks the sealed trees node for node.
    fn assert_hint_matches_plain<const M: usize>(rows: &[[u32; M]]) {
        let mut plain = AlTree::new(M);
        let mut hinted = AlTree::new(M);
        for (i, r) in rows.iter().enumerate() {
            insert_from_root(&mut plain, r, i as u32);
            hinted.insert(r, i as u32);
        }
        assert_eq!(plain.estimated_bytes(), hinted.estimated_bytes());
        plain.seal();
        hinted.seal();
        plain.check_invariants().unwrap();
        hinted.check_invariants().unwrap();
        assert_eq!(plain.num_nodes(), hinted.num_nodes());
        assert_eq!(plain.nodes.len(), hinted.nodes.len());
        for n in 0..plain.nodes.len() as NodeIdx {
            assert_eq!(plain.value(n), hinted.value(n), "value of node {n}");
            assert_eq!(plain.parent(n), hinted.parent(n), "parent of node {n}");
            assert_eq!(plain.level(n), hinted.level(n), "level of node {n}");
            assert_eq!(plain.desc_count(n), hinted.desc_count(n), "count of node {n}");
            if plain.is_leaf(n) {
                assert_eq!(plain.leaf_ids(n), hinted.leaf_ids(n), "ids of leaf {n}");
            } else {
                assert_eq!(plain.children_and_values(n), hinted.children_and_values(n), "children of node {n}");
            }
        }
        assert_eq!(plain.collect_ids(), hinted.collect_ids());
        assert_eq!(plain.estimated_bytes(), hinted.estimated_bytes());
    }

    #[test]
    fn insert_with_hint_matches_plain_insert() {
        // Sorted input (the TRS case) and reversed input must both produce
        // trees identical to plain insertion from the root.
        let rows: Vec<[u32; 3]> = vec![
            [0, 0, 1],
            [0, 0, 1],
            [0, 1, 0],
            [0, 1, 2],
            [1, 0, 0],
            [1, 2, 2],
            [1, 2, 2],
        ];
        assert_hint_matches_plain(&rows);
        let mut reversed = rows;
        reversed.reverse(); // strictly decreasing: the hint never matches fully
        assert_hint_matches_plain(&reversed);
    }

    #[test]
    fn insert_with_hint_random_equivalence() {
        // Pseudo-random input exercises partial prefix matches and leaves
        // revisited after other records (the regrouped id layout).
        let mut state = 12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 4) as u32
        };
        let rows: Vec<[u32; 4]> = (0..500).map(|_| [next(), next(), next(), next()]).collect();
        assert_hint_matches_plain(&rows);
    }

    #[test]
    fn node_struct_stays_slim() {
        // The memory estimate (and TRS batch sizing fidelity) depends on a
        // node costing a few scalars and no allocation of its own: its
        // record plus one child slot (link + value) in its parent stays
        // within the 40 bytes the old arena spent before its per-node
        // child vector.
        let per_node = std::mem::size_of::<Node>() + std::mem::size_of::<NodeIdx>() + std::mem::size_of::<ValueId>();
        assert!(per_node <= 40, "per-node footprint grew: {per_node}");
    }
}
