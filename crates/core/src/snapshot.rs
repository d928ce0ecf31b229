//! Snapshot codec for the PASS synopsis (see `pass_common::snapshot`).
//!
//! The state sections carry only what the spec cannot rebuild:
//!
//! * the SoA [`PartitionTree`] arena, field-for-field — **including** the
//!   cached `has_empty` flag — so a loaded tree is layout-identical, not
//!   just logically equivalent, and every traversal takes the exact same
//!   path. The loose-extrema node list trails the arena only when a
//!   deletion has set one, so a never-deleted tree keeps its original
//!   bytes;
//! * the per-leaf stratified [`Sample`]s with their `sorted_1d` flags (a
//!   1-D stratum stays sorted through updates; a flag stored `false` stays
//!   `false`);
//! * the mutation epoch.
//!
//! A workload-shift tree is stored as it is queried — lifted into the full
//! arity. Snapshots written before the tree was lifted at build time hold
//! the narrow tree plus its dimension mapping; [`load_pass`] lifts those
//! with the same [`PartitionTree::lifted`] the build uses.
//!
//! Everything else (λ, zero-variance rule, delta flag, seed, name) derives
//! from the embedded [`PassSpec`]; the flat `SampleArena` is rebuilt from
//! the decoded samples exactly as the build does (updates patch it in
//! place, to the same bytes).
//!
//! Decoding validates every rectangle (no NaN bound, `lo <= hi`), every
//! leaf index, and the shape: one walk from the root must reach every node
//! exactly once, each through the link its `parent` entry names, and in a
//! 1-D tree every internal node has two children in key order whose hull
//! is its interval — the shape the 1-D frontier descent walks and 1-D
//! updates keep. So a
//! drifted but checksum-valid payload fails with
//! `SnapshotError::SpecMismatch` at load time instead of panicking — or
//! looping forever — at query time.

use pass_common::snapshot::{write_section, Codec, Cursor, SnapshotReader};
use pass_common::{Aggregates, PassSpec, Result};
use pass_sampling::Sample;

use crate::synopsis::Pass;
use crate::tree::{NodeId, PartitionTree};

/// The SoA arena field for field, then — only if a deletion set one —
/// the loose-extrema node list.
impl Codec for PartitionTree {
    const MIN_BYTES: usize = 3 * 8 + 1 + 6 * 8;

    fn encode(&self, out: &mut Vec<u8>) {
        self.dims.encode(out);
        self.root.encode(out);
        self.n_leaves.encode(out);
        self.has_empty.encode(out);
        self.aggs.encode(out);
        self.rect.encode(out);
        self.child_span.encode(out);
        self.child_flat.encode(out);
        self.parent.encode(out);
        self.leaf_index.encode(out);
        let loose: Vec<NodeId> = (0..self.n_nodes())
            .filter(|&id| self.has_loose_extrema(id))
            .collect();
        if !loose.is_empty() {
            loose.encode(out);
        }
    }

    /// Decode, then re-validate every structural index and rectangle so
    /// traversals can trust the arena again.
    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        let dims = c.count(1)?;
        let root: NodeId = c.read()?;
        let n_leaves = c.read()?;
        let has_empty = c.read()?;
        let aggs: Vec<Aggregates> = c.read()?;
        let rect: Vec<(f64, f64)> = c.read()?;
        let child_span: Vec<(u32, u32)> = c.read()?;
        let child_flat: Vec<NodeId> = c.read()?;
        let parent: Vec<Option<NodeId>> = c.read()?;
        let leaf_index: Vec<Option<usize>> = c.read()?;
        let loose: Vec<NodeId> = match c.remaining() {
            0 => Vec::new(),
            _ => c.read()?,
        };

        let n_nodes = aggs.len();
        if dims == 0 || n_nodes == 0 {
            return Err(c.drift("tree has no nodes or no dimensions"));
        }
        if n_nodes.checked_mul(dims) != Some(rect.len())
            || child_span.len() != n_nodes
            || parent.len() != n_nodes
            || leaf_index.len() != n_nodes
        {
            return Err(c.drift("tree arrays disagree on the node count"));
        }
        // Every constructor goes through `Rect::new`; traversals and updates
        // rely on ordered, comparable bounds.
        if let Some(at) = rect
            .iter()
            .position(|&(lo, hi)| lo.is_nan() || hi.is_nan() || lo > hi)
        {
            return Err(c.drift(format_args!(
                "node {} has a NaN or inverted bound in dimension {}",
                at / dims,
                at % dims
            )));
        }
        // One walk from the root that marks each node as a link reaches
        // it: a node reached twice (a cycle, or two parents), a `parent`
        // entry that names another node than the link followed, or a node
        // never reached means the arena is not one tree — and a traversal
        // of it might never end.
        let mut seen = vec![false; n_nodes];
        let mut arrive = |id: NodeId, from: Option<NodeId>| match seen.get_mut(id) {
            Some(seen) if !*seen && parent.get(id) == Some(&from) => {
                *seen = true;
                true
            }
            _ => false,
        };
        if !arrive(root, None) {
            return Err(c.drift(format_args!("root {root} is out of range or has a parent")));
        }
        let (mut stack, mut reached) = (vec![root], 1);
        while let Some(id) = stack.pop() {
            let kids = child_span
                .get(id)
                .and_then(|&(start, n)| child_flat.get(start as usize..start as usize + n as usize))
                .ok_or_else(|| c.drift(format_args!("node {id}'s children overrun the arena")))?;
            for &kid in kids {
                if !arrive(kid, Some(id)) {
                    return Err(c.drift(format_args!(
                        "child {kid} of node {id} is out of range, reached twice or has another parent"
                    )));
                }
                stack.push(kid);
            }
            if dims == 1 {
                ordered_halves(id, kids, &rect).map_err(|why| c.drift(why))?;
            }
            reached += kids.len();
        }
        if reached != n_nodes {
            return Err(c.drift(format_args!(
                "{} of {n_nodes} nodes are unreachable from the root",
                n_nodes - reached
            )));
        }
        let mut loose_extrema = vec![false; n_nodes];
        for id in loose {
            match loose_extrema.get_mut(id) {
                Some(bit) => *bit = true,
                None => {
                    return Err(c.drift(format_args!("loose-extrema node {id} is out of range")))
                }
            }
        }
        Ok(PartitionTree {
            dims,
            root,
            n_leaves,
            aggs,
            rect,
            child_span,
            child_flat,
            parent,
            leaf_index,
            has_empty,
            loose_extrema,
        })
    }
}

/// What the 1-D frontier descent (`McfScratch::run`) relies on at node
/// `id` of a 1-D tree: no children, or exactly two whose intervals are in
/// key order — the left one ends where the right one starts or before —
/// and whose hull is `id`'s own interval. Every constructor's 1-D tree has
/// this shape, and updates keep it (docs/ARCHITECTURE.md, "MCF
/// traversal"); a parent wider than its children would let an update grow
/// it past its sibling.
fn ordered_halves(
    id: NodeId,
    kids: &[NodeId],
    rect: &[(f64, f64)],
) -> std::result::Result<(), String> {
    let &[left, right] = kids else {
        return match kids.len() {
            0 => Ok(()),
            n => Err(format!("1-D node {id} has {n} children, not two")),
        };
    };
    let bounds = |n: NodeId| {
        rect.get(n)
            .copied()
            .ok_or(format!("node {n} has no interval"))
    };
    let ((lo, hi), (ll, lh), (rl, rh)) = (bounds(id)?, bounds(left)?, bounds(right)?);
    if lh > rl {
        return Err(format!(
            "children of node {id} are out of key order or overlap: \
             [{ll}, {lh}] then [{rl}, {rh}]"
        ));
    }
    // In key order, the outer two bounds are the hull.
    if (ll, rh) != (lo, hi) {
        return Err(format!(
            "node {id}'s interval [{lo}, {hi}] is not the hull of its children: \
             [{ll}, {lh}] then [{rl}, {rh}]"
        ));
    }
    Ok(())
}

/// Append a PASS synopsis' state sections: the tree, then the per-leaf
/// samples plus the spec-underivable scalars.
pub fn save_pass(pass: &Pass, out: &mut Vec<u8>) -> Result<()> {
    let mut tree = Vec::new();
    pass.tree.encode(&mut tree);
    write_section(out, &tree);

    let mut state = Vec::new();
    pass.mutation_epoch.encode(&mut state);
    pass.tree.dims.encode(&mut state);
    // Format v1's "narrow tree's dimension mapping" slot: never set, the
    // tree above is already in the query's arity.
    None::<Vec<usize>>.encode(&mut state);
    pass.samples.encode(&mut state);
    write_section(out, &state);
    Ok(())
}

/// Rebuild a PASS synopsis from its spec header plus the state sections
/// written by [`save_pass`]. Spec-derivable fields come from `spec`; the
/// `SampleArena` is rebuilt from the decoded samples.
pub fn load_pass(spec: &PassSpec, r: &mut SnapshotReader<'_>) -> Result<Pass> {
    let mut c = Cursor::new(r.section()?, "PASS tree");
    let tree: PartitionTree = c.read()?;
    c.done()?;

    let mut c = Cursor::new(r.section()?, "PASS state");
    let mutation_epoch = c.read()?;
    let arity: usize = c.read()?;
    // Snapshots written before trees were lifted at build time carry the
    // narrow tree's dimension mapping here.
    let narrow_dims: Option<Vec<usize>> = c.read()?;
    let samples: Vec<Sample> = c.read()?;
    c.done()?;

    // The decoded samples vouch for the arity before anything is sized
    // by it.
    if samples.is_empty() || samples.iter().any(|s| s.rows().dims() != arity) {
        return Err(c.drift(format_args!("samples disagree with the {arity} query dims")));
    }
    let tree = match narrow_dims {
        Some(dims) => tree.lifted(&dims, arity).map_err(|err| c.drift(err))?,
        None => tree,
    };
    if tree.dims != arity {
        return Err(c.drift(format_args!(
            "tree covers {} dims but queries expect {arity}",
            tree.dims
        )));
    }
    if tree
        .leaf_index
        .iter()
        .any(|li| li.is_some_and(|li| li >= samples.len()))
    {
        return Err(c.drift("a leaf's sample index exceeds the sample set"));
    }

    Ok(Pass::from_parts(spec, tree, samples, mutation_epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::snapshot::write_header;
    use pass_common::snapshot::SnapshotError;
    use pass_common::{AggKind, EngineSpec, PassError, Query, Synopsis};
    use pass_table::datasets::uniform;

    fn roundtrip(pass: &Pass) -> Pass {
        let mut bytes = Vec::new();
        write_header(&mut bytes, &pass.spec());
        save_pass(pass, &mut bytes).unwrap();
        let (spec, mut r) = SnapshotReader::open(&bytes).unwrap();
        let spec = match spec {
            EngineSpec::Pass(p) => p,
            other => panic!("unexpected spec {other:?}"),
        };
        let back = load_pass(&spec, &mut r).unwrap();
        r.finish().unwrap();
        back
    }

    #[test]
    fn pass_round_trips_bit_identically() {
        let t = uniform(5_000, 11);
        let spec = PassSpec {
            partitions: 16,
            total_samples: Some(256),
            seed: 3,
            ..PassSpec::default()
        };
        let pass = Pass::from_spec(&t, &spec).unwrap();
        let back = roundtrip(&pass);
        assert_eq!(back.spec(), pass.spec());
        assert_eq!(back.name(), pass.name());
        assert_eq!(back.storage_bytes(), pass.storage_bytes());
        assert_eq!(back.update_epoch(), pass.update_epoch());
        for agg in AggKind::ALL {
            for (lo, hi) in [(0.0, 1.0), (0.2, 0.31), (0.9, 2.0)] {
                let q = Query::interval(agg, lo, hi);
                assert_eq!(back.estimate(&q), pass.estimate(&q), "{agg} [{lo},{hi}]");
            }
        }
    }

    /// Save `drifted` (checksums and all) and load it back: the drift
    /// must surface as a typed error at load time. Returns its message.
    fn assert_load_rejects(drifted: &Pass) -> String {
        let mut bytes = Vec::new();
        write_header(&mut bytes, &drifted.spec());
        save_pass(drifted, &mut bytes).unwrap();
        let (spec, mut r) = SnapshotReader::open(&bytes).unwrap();
        let spec = match spec {
            EngineSpec::Pass(p) => p,
            other => panic!("unexpected spec {other:?}"),
        };
        match load_pass(&spec, &mut r).err() {
            Some(PassError::Snapshot(SnapshotError::SpecMismatch(why))) => why,
            other => panic!("expected a spec mismatch, got {other:?}"),
        }
    }

    fn small_pass() -> Pass {
        let spec = PassSpec {
            partitions: 8,
            sample_rate: 0.05,
            ..PassSpec::default()
        };
        Pass::from_spec(&uniform(1_000, 13), &spec).unwrap()
    }

    #[test]
    fn corrupt_leaf_indices_fail_at_load_not_query() {
        let mut drifted = small_pass();
        drifted.tree.leaf_index[0] = Some(10_000);
        assert_load_rejects(&drifted);
    }

    #[test]
    fn flipped_and_nan_rectangle_bounds_fail_at_load_not_query() {
        let pass = small_pass();
        let leaf = pass.tree.leaves()[3];
        let (lo, hi) = pass.tree.rect[leaf];
        assert!(lo < hi, "a leaf of distinct keys has a proper interval");
        for planted in [(hi, lo), (f64::NAN, hi), (lo, f64::NAN)] {
            let mut drifted = pass.clone();
            drifted.tree.rect[leaf] = planted;
            assert_load_rejects(&drifted);
        }
    }

    /// The small PASS's root, its two children, and the first child
    /// slot of each of those children.
    fn shape(pass: &Pass) -> (NodeId, [NodeId; 2], [usize; 2]) {
        let t = &pass.tree;
        let kids = [t.children(t.root)[0], t.children(t.root)[1]];
        (t.root, kids, kids.map(|k| t.child_span[k].0 as usize))
    }

    #[test]
    fn a_child_link_back_to_an_ancestor_fails_at_load() {
        // The root lists itself as its last child: before the load-time
        // walk this loaded `Ok` and the first estimate never returned.
        let mut drifted = small_pass();
        let (root, _, _) = shape(&drifted);
        let (start, n) = drifted.tree.child_span[root];
        drifted.tree.child_flat[(start + n - 1) as usize] = root;
        assert!(assert_load_rejects(&drifted).contains("reached twice"));
    }

    #[test]
    fn a_node_listed_by_two_parents_fails_at_load() {
        let mut drifted = small_pass();
        let (_, _, [a_kids, b_kids]) = shape(&drifted);
        drifted.tree.child_flat[b_kids] = drifted.tree.child_flat[a_kids];
        assert!(assert_load_rejects(&drifted).contains("reached twice"));
    }

    #[test]
    fn a_parent_entry_that_disagrees_with_the_links_fails_at_load() {
        let mut drifted = small_pass();
        let (root, _, _) = shape(&drifted);
        let leaf = drifted.tree.leaves()[0];
        drifted.tree.parent[leaf] = Some(root);
        assert!(assert_load_rejects(&drifted).contains("another parent"));
    }

    #[test]
    fn a_root_with_a_parent_fails_at_load() {
        let mut drifted = small_pass();
        let (root, [a, _], _) = shape(&drifted);
        drifted.tree.parent[root] = Some(a);
        assert!(assert_load_rejects(&drifted).contains("has a parent"));
    }

    #[test]
    fn a_node_unreachable_from_the_root_fails_at_load() {
        let mut drifted = small_pass();
        let (_, [a, _], _) = shape(&drifted);
        drifted.tree.child_span[a].1 = 0;
        assert!(assert_load_rejects(&drifted).contains("unreachable"));
    }

    #[test]
    fn a_1d_internal_node_without_two_children_fails_at_load() {
        // The root keeps its left child only; the right subtree would be
        // unreachable, but the root's own shape is refused first.
        let mut drifted = small_pass();
        let (root, _, _) = shape(&drifted);
        drifted.tree.child_span[root].1 = 1;
        assert!(assert_load_rejects(&drifted).contains("has 1 children, not two"));
    }

    #[test]
    fn one_dimensional_siblings_out_of_key_order_fail_at_load() {
        // The root lists its right half first: links and parents agree.
        let mut drifted = small_pass();
        let (root, [a, b], _) = shape(&drifted);
        let start = drifted.tree.child_span[root].0 as usize;
        drifted.tree.child_flat[start..start + 2].copy_from_slice(&[b, a]);
        assert!(assert_load_rejects(&drifted).contains("out of key order"));
    }

    #[test]
    fn one_dimensional_siblings_overlapping_beyond_a_shared_endpoint_fail_at_load() {
        // Two sibling leaves: the left one's end is inside its parent's
        // hull either way.
        let pass = small_pass();
        let leaf = pass.tree.leaves()[0];
        let parent = pass.tree.parent(leaf).unwrap();
        let [a, b] = [0, 1].map(|i| pass.tree.children(parent)[i]);
        let (b_lo, b_hi) = pass.tree.rect[b];
        // Touching the sibling is legal (equal keys straddle a cut) ...
        let mut touching = pass.clone();
        touching.tree.rect[a].1 = b_lo;
        assert_eq!(roundtrip(&touching).tree.rect, touching.tree.rect);
        // ... reaching past its start is not.
        let mut drifted = pass;
        drifted.tree.rect[a].1 = (b_lo + b_hi) / 2.0;
        assert!(assert_load_rejects(&drifted).contains("overlap"));
    }

    #[test]
    fn a_1d_child_outside_its_parents_interval_fails_at_load() {
        let mut drifted = small_pass();
        let (root, [a, _], _) = shape(&drifted);
        let (lo, _) = drifted.tree.rect[root];
        drifted.tree.rect[a].0 = lo - 1.0;
        assert!(assert_load_rejects(&drifted).contains("not the hull"));
    }

    #[test]
    fn a_1d_parent_wider_than_its_children_fails_at_load() {
        // A node wider than its children could be overtaken by a
        // neighbour that an update grows into the slack: only the exact
        // hull loads.
        let mut drifted = small_pass();
        let (root, _, _) = shape(&drifted);
        drifted.tree.rect[root].1 += 1.0;
        assert!(assert_load_rejects(&drifted).contains("not the hull"));
    }
}
