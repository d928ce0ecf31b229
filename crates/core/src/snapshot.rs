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
//! * the per-leaf stratified [`Sample`]s (with their conservatively-cleared
//!   `sorted_1d` flags);
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
//! Decoding validates every structural index (children, parents, leaf
//! indices) and every rectangle (no NaN bound, `lo <= hi`) before the tree
//! is handed to traversal code, so a drifted but checksum-valid payload
//! fails with `SnapshotError::SpecMismatch` at load time instead of
//! panicking at query time.

use pass_common::snapshot::{
    put_bool, put_f64, put_u32, put_u64, put_u64_seq, put_usize, write_section, Cursor,
    SnapshotError, SnapshotReader,
};
use pass_common::{Aggregates, PassSpec, Result};
use pass_sampling::snapshot::{decode_sample, encode_sample};
use pass_sampling::Sample;

use crate::synopsis::Pass;
use crate::tree::PartitionTree;

/// Append `tree` to a section payload, field for field.
pub fn encode_tree(out: &mut Vec<u8>, tree: &PartitionTree) {
    put_usize(out, tree.dims);
    put_usize(out, tree.root);
    put_usize(out, tree.n_leaves);
    put_bool(out, tree.has_empty);
    put_usize(out, tree.aggs.len());
    for agg in &tree.aggs {
        put_f64(out, agg.sum);
        put_f64(out, agg.sum_sq);
        put_u64(out, agg.count);
        put_f64(out, agg.min);
        put_f64(out, agg.max);
    }
    put_usize(out, tree.rect.len());
    for &(lo, hi) in &tree.rect {
        put_f64(out, lo);
        put_f64(out, hi);
    }
    put_usize(out, tree.child_span.len());
    for &(start, count) in &tree.child_span {
        put_u32(out, start);
        put_u32(out, count);
    }
    let child_flat: Vec<u64> = tree.child_flat.iter().map(|&id| id as u64).collect();
    put_u64_seq(out, &child_flat);
    put_usize(out, tree.parent.len());
    for &parent in &tree.parent {
        pass_common::snapshot::put_opt_u64(out, parent.map(|p| p as u64));
    }
    put_usize(out, tree.leaf_index.len());
    for &leaf in &tree.leaf_index {
        pass_common::snapshot::put_opt_u64(out, leaf.map(|l| l as u64));
    }
    let loose: Vec<u64> = (0..tree.n_nodes())
        .filter(|&id| tree.has_loose_extrema(id))
        .map(|id| id as u64)
        .collect();
    if !loose.is_empty() {
        put_u64_seq(out, &loose);
    }
}

fn drift(why: String) -> pass_common::PassError {
    SnapshotError::SpecMismatch(why).into()
}

/// Decode one tree written by [`encode_tree`], re-validating every
/// structural index so traversals can trust the arena again.
pub fn decode_tree(c: &mut Cursor<'_>) -> Result<PartitionTree> {
    let dims = c.len(1, "tree dims")?;
    let root = c.u64("tree root")? as usize;
    let n_leaves = c.u64("tree leaf count")? as usize;
    let has_empty = c.bool("tree has-empty flag")?;
    let n_nodes = c.len(40, "tree aggregates")?;
    let mut aggs = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        aggs.push(Aggregates {
            sum: c.f64("aggregate sum")?,
            sum_sq: c.f64("aggregate sum of squares")?,
            count: c.u64("aggregate count")?,
            min: c.f64("aggregate min")?,
            max: c.f64("aggregate max")?,
        });
    }
    let n_rect = c.len(16, "tree rectangles")?;
    let mut rect = Vec::with_capacity(n_rect);
    for _ in 0..n_rect {
        rect.push((c.f64("rect lo")?, c.f64("rect hi")?));
    }
    let n_span = c.len(8, "tree child spans")?;
    let mut child_span = Vec::with_capacity(n_span);
    for _ in 0..n_span {
        child_span.push((c.u32("span start")?, c.u32("span count")?));
    }
    let child_flat: Vec<usize> = c
        .u64_seq("tree child ids")?
        .into_iter()
        .map(|id| id as usize)
        .collect();
    let n_parent = c.len(1, "tree parents")?;
    let mut parent = Vec::with_capacity(n_parent);
    for _ in 0..n_parent {
        parent.push(c.opt_u64("parent id")?.map(|p| p as usize));
    }
    let n_leaf = c.len(1, "tree leaf indices")?;
    let mut leaf_index = Vec::with_capacity(n_leaf);
    for _ in 0..n_leaf {
        leaf_index.push(c.opt_u64("leaf index")?.map(|l| l as usize));
    }
    let loose = match c.remaining() {
        0 => Vec::new(),
        _ => c.u64_seq("loose-extrema nodes")?,
    };

    if dims == 0 || n_nodes == 0 {
        return Err(drift("tree has no nodes or no dimensions".into()));
    }
    if rect.len() != n_nodes * dims
        || child_span.len() != n_nodes
        || parent.len() != n_nodes
        || leaf_index.len() != n_nodes
    {
        return Err(drift("tree arrays disagree on the node count".into()));
    }
    if root >= n_nodes {
        return Err(drift(format!("tree root {root} out of {n_nodes} nodes")));
    }
    // Every constructor goes through `Rect::new`; traversals and updates
    // rely on ordered, comparable bounds.
    if let Some(at) = rect
        .iter()
        .position(|&(lo, hi)| lo.is_nan() || hi.is_nan() || lo > hi)
    {
        return Err(drift(format!(
            "node {} has a NaN or inverted bound in dimension {}",
            at / dims,
            at % dims
        )));
    }
    for (id, &(start, count)) in child_span.iter().enumerate() {
        let end = start as usize + count as usize;
        if end > child_flat.len() {
            return Err(drift(format!(
                "node {id} child span exceeds the child arena"
            )));
        }
        // bounds: the span was validated against child_flat.len() above.
        if child_flat[start as usize..end]
            .iter()
            .any(|&ch| ch >= n_nodes)
        {
            return Err(drift(format!("node {id} has an out-of-range child")));
        }
    }
    if parent.iter().any(|p| p.is_some_and(|p| p >= n_nodes)) {
        return Err(drift("a node's parent id is out of range".into()));
    }
    let mut loose_extrema = vec![false; n_nodes];
    for id in loose {
        match loose_extrema.get_mut(id as usize) {
            Some(bit) => *bit = true,
            None => return Err(drift(format!("loose-extrema node {id} is out of range"))),
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

/// Append a PASS synopsis' state sections: the tree, then the per-leaf
/// samples plus the spec-underivable scalars.
pub fn save_pass(pass: &Pass, out: &mut Vec<u8>) -> Result<()> {
    let mut tree = Vec::new();
    encode_tree(&mut tree, &pass.tree);
    write_section(out, &tree);

    let mut state = Vec::new();
    put_u64(&mut state, pass.mutation_epoch);
    put_usize(&mut state, pass.tree.dims);
    // Format v1's "narrow tree + mapping follows" tag: never set, the
    // tree above is already in the query's arity.
    put_bool(&mut state, false);
    put_usize(&mut state, pass.samples.len());
    for sample in &pass.samples {
        encode_sample(&mut state, sample);
    }
    write_section(out, &state);
    Ok(())
}

/// Rebuild a PASS synopsis from its spec header plus the state sections
/// written by [`save_pass`]. Spec-derivable fields come from `spec`; the
/// `SampleArena` is rebuilt from the decoded samples.
pub fn load_pass(spec: &PassSpec, r: &mut SnapshotReader<'_>) -> Result<Pass> {
    let tree_payload = r.section()?;
    let mut c = Cursor::new(tree_payload);
    let tree = decode_tree(&mut c)?;
    c.done("tree")?;

    let state_payload = r.section()?;
    let mut c = Cursor::new(state_payload);
    let mutation_epoch = c.u64("mutation epoch")?;
    let arity = c.u64("query dims")? as usize;
    // Snapshots written before trees were lifted at build time carry the
    // narrow tree and its mapping here.
    let narrow_dims = if c.bool("tree-dims tag")? {
        Some(c.u64_seq("tree dims mapping")?)
    } else {
        None
    };
    let n_samples = c.len(1, "sample count")?;
    let mut samples: Vec<Sample> = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        samples.push(decode_sample(&mut c)?);
    }
    c.done("PASS state")?;

    // The decoded samples vouch for the arity before anything is sized
    // by it.
    if samples.is_empty() || samples.iter().any(|s| s.rows().dims() != arity) {
        return Err(drift(format!(
            "samples disagree with the {arity} query dims"
        )));
    }
    let tree = match narrow_dims {
        Some(dims) => {
            let dims: Vec<usize> = dims.into_iter().map(|d| d as usize).collect();
            tree.lifted(&dims, arity)
                .map_err(|err| drift(err.to_string()))?
        }
        None => tree,
    };
    if tree.dims != arity {
        return Err(drift(format!(
            "tree covers {} dims but queries expect {arity}",
            tree.dims
        )));
    }
    if tree
        .leaf_index
        .iter()
        .any(|li| li.is_some_and(|li| li >= samples.len()))
    {
        return Err(drift("a leaf's sample index exceeds the sample set".into()));
    }

    Ok(Pass::from_parts(spec, tree, samples, mutation_epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::snapshot::write_header;
    use pass_common::{AggKind, EngineSpec, Query, Synopsis};
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
    /// must surface as a typed error at load time.
    fn assert_load_rejects(drifted: &Pass) {
        let mut bytes = Vec::new();
        write_header(&mut bytes, &drifted.spec());
        save_pass(drifted, &mut bytes).unwrap();
        let (spec, mut r) = SnapshotReader::open(&bytes).unwrap();
        let spec = match spec {
            EngineSpec::Pass(p) => p,
            other => panic!("unexpected spec {other:?}"),
        };
        assert!(matches!(
            load_pass(&spec, &mut r).err(),
            Some(pass_common::PassError::Snapshot(
                SnapshotError::SpecMismatch(_)
            ))
        ));
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
}
