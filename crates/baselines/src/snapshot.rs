//! Snapshot codecs for the baseline engines and the spec-driven load
//! dispatch (see `pass_common::snapshot` for the container format).
//!
//! Each engine serializes only what its [`EngineSpec`] cannot rebuild —
//! the drawn samples, learned structures, and λ overrides — and derives
//! the rest (names, requested parameters, seeds) from the spec embedded
//! in the snapshot header, exactly as the build path would.
//! [`ShardedSynopsis`] recurses: its state is one section naming the
//! shard count and arity, followed by every shard's own state sections
//! in shard order, each decoded against the spec
//! [`ShardedSynopsis::shard_spec`] derives for that index.
//!
//! Decoders re-validate every invariant the estimators rely on (sample
//! arities, group assignments, SPN child ordering) so a checksum-valid
//! but drifted payload fails at load time with
//! [`SnapshotError::SpecMismatch`] instead of panicking at query time.

use std::sync::Arc;

use pass_common::snapshot::{
    put_f64, put_f64_seq, put_u32_seq, put_u64, put_u64_seq, put_u8, put_usize, write_section,
    Cursor, SnapshotError, SnapshotReader,
};
use pass_common::{EngineSpec, JoinSpec, PassError, Result, Synopsis};
use pass_core::snapshot::{decode_tree, encode_tree, load_pass};
use pass_sampling::snapshot::{decode_sample, encode_sample};
use pass_table::snapshot::{decode_table, encode_table};

use crate::spn::{Node, SpnSynopsis};
use crate::st::Stratum;
use crate::{
    AqpPlusPlus, JoinSynopsis, ShardedSynopsis, StratifiedSynopsis, UniformSynopsis,
    VerdictSynopsis,
};

fn drift(why: String) -> PassError {
    SnapshotError::SpecMismatch(why).into()
}

/// Decode the engine `spec` describes from `r`'s state sections — the
/// load-side mirror of `Engine::build`'s dispatch. The caller owns the
/// reader and calls `finish()` after, so recursive (sharded) decodes
/// compose.
pub(crate) fn load_state(
    spec: &EngineSpec,
    r: &mut SnapshotReader<'_>,
) -> Result<Arc<dyn Synopsis>> {
    Ok(match spec {
        EngineSpec::Pass(pass_spec) => Arc::new(load_pass(pass_spec, r)?),
        EngineSpec::Uniform { k, seed } => Arc::new(load_us(*k, *seed, r)?),
        EngineSpec::Stratified { strata, k, seed } => Arc::new(load_st(*strata, *k, *seed, r)?),
        EngineSpec::AqpPlusPlus {
            partitions,
            k,
            seed,
            tree_dims,
        } => Arc::new(load_aqppp(*partitions, *k, *seed, tree_dims.as_deref(), r)?),
        EngineSpec::Verdict { ratio, seed } => Arc::new(load_verdict(*ratio, *seed, r)?),
        EngineSpec::Spn { ratio, seed } => Arc::new(load_spn(*ratio, *seed, r)?),
        EngineSpec::Join(join_spec) => Arc::new(load_join(join_spec, r)?),
        EngineSpec::Sharded { inner, plan } => Arc::new(load_sharded(inner, plan, r)?),
        EngineSpec::Opaque { name } => {
            return Err(PassError::InvalidParameter(
                "spec",
                format!("opaque spec `{name}` does not describe a loadable engine"),
            ))
        }
    })
}

// --- US ---

pub(crate) fn save_us(us: &UniformSynopsis, out: &mut Vec<u8>) {
    let mut state = Vec::new();
    put_f64(&mut state, us.lambda);
    put_usize(&mut state, us.dims);
    put_u64(&mut state, us.total_rows);
    encode_sample(&mut state, &us.sample);
    write_section(out, &state);
}

fn load_us(requested_k: usize, seed: u64, r: &mut SnapshotReader<'_>) -> Result<UniformSynopsis> {
    let mut c = Cursor::new(r.section()?);
    let lambda = c.f64("US lambda")?;
    let dims = c.u64("US dims")? as usize;
    let total_rows = c.u64("US total rows")?;
    let sample = decode_sample(&mut c)?;
    c.done("US state")?;
    if dims == 0 || sample.rows().dims() != dims {
        return Err(drift("US sample arity disagrees with its dims".into()));
    }
    if total_rows < sample.k() as u64 {
        return Err(drift("US total rows below its sample size".into()));
    }
    Ok(UniformSynopsis {
        sample,
        lambda,
        dims,
        total_rows,
        requested_k,
        seed,
    })
}

// --- ST ---

pub(crate) fn save_st(st: &StratifiedSynopsis, out: &mut Vec<u8>) {
    let mut state = Vec::new();
    put_f64(&mut state, st.lambda);
    put_u64(&mut state, st.total_rows);
    put_usize(&mut state, st.strata.len());
    for s in &st.strata {
        put_f64(&mut state, s.key_lo);
        put_f64(&mut state, s.key_hi);
        encode_sample(&mut state, &s.sample);
    }
    write_section(out, &state);
}

fn load_st(
    strata: usize,
    k: usize,
    seed: u64,
    r: &mut SnapshotReader<'_>,
) -> Result<StratifiedSynopsis> {
    let mut c = Cursor::new(r.section()?);
    let lambda = c.f64("ST lambda")?;
    let total_rows = c.u64("ST total rows")?;
    let n = c.len(17, "ST strata")?;
    let mut decoded = Vec::with_capacity(n);
    for _ in 0..n {
        let key_lo = c.f64("stratum key lo")?;
        let key_hi = c.f64("stratum key hi")?;
        let sample = decode_sample(&mut c)?;
        if sample.rows().dims() != 1 {
            return Err(drift("ST stratum sample is not 1-D".into()));
        }
        decoded.push(Stratum {
            key_lo,
            key_hi,
            sample,
        });
    }
    c.done("ST state")?;
    if decoded.is_empty() {
        return Err(drift("ST snapshot has no strata".into()));
    }
    let sampled: u64 = decoded.iter().map(|s| s.sample.k() as u64).sum();
    if total_rows < sampled {
        return Err(drift("ST total rows below its sampled rows".into()));
    }
    Ok(StratifiedSynopsis {
        strata: decoded,
        lambda,
        total_rows,
        requested: (strata, k, seed),
    })
}

// --- AQP++ / KD-US ---

pub(crate) fn save_aqppp(aqp: &AqpPlusPlus, out: &mut Vec<u8>) {
    let mut tree = Vec::new();
    encode_tree(&mut tree, &aqp.tree);
    write_section(out, &tree);

    let mut state = Vec::new();
    put_f64(&mut state, aqp.lambda);
    put_u8(&mut state, u8::from(aqp.name == "KD-US"));
    put_usize(&mut state, aqp.tree.dims());
    encode_sample(&mut state, &aqp.sample);
    write_section(out, &state);
}

fn load_aqppp(
    partitions: usize,
    k: usize,
    seed: u64,
    tree_dims: Option<&[usize]>,
    r: &mut SnapshotReader<'_>,
) -> Result<AqpPlusPlus> {
    let mut c = Cursor::new(r.section()?);
    let tree = decode_tree(&mut c)?;
    c.done("AQP++ tree")?;

    let mut c = Cursor::new(r.section()?);
    let lambda = c.f64("AQP++ lambda")?;
    let name = match c.u8("AQP++ variant")? {
        0 => "AQP++",
        1 => "KD-US",
        other => return Err(drift(format!("unknown AQP++ variant tag {other}"))),
    };
    let arity = c.u64("AQP++ query dims")? as usize;
    let sample = decode_sample(&mut c)?;
    c.done("AQP++ state")?;

    if arity == 0 || sample.rows().dims() != arity {
        return Err(drift("AQP++ sample arity disagrees with its dims".into()));
    }
    // Snapshots written before workload-shift trees were lifted at build
    // time hold the narrow tree. (A mapping that names every dimension
    // leaves nothing to tell the two apart: that tree is taken as lifted.)
    let tree = match tree_dims {
        Some(dims) if tree.dims() != arity => tree
            .lifted(dims, arity)
            .map_err(|err| drift(err.to_string()))?,
        _ => tree,
    };
    if tree.dims() != arity {
        return Err(drift(format!(
            "AQP++ tree covers {} dims but queries expect {arity}",
            tree.dims()
        )));
    }
    Ok(AqpPlusPlus {
        tree,
        sample,
        lambda,
        name,
        requested: (partitions, k, seed, tree_dims.map(<[usize]>::to_vec)),
    })
}

// --- JOIN ---

pub(crate) fn save_join(j: &JoinSynopsis, out: &mut Vec<u8>) {
    // Spec-derivation rule: the dimension hash index is rebuilt from the
    // header spec at load time, so only the randomized joined sample
    // (plus λ and the population accounting) is state.
    let mut state = Vec::new();
    put_f64(&mut state, j.lambda);
    put_usize(&mut state, j.dims);
    put_u64(&mut state, j.total_rows);
    encode_sample(&mut state, &j.sample);
    write_section(out, &state);
}

fn load_join(spec: &JoinSpec, r: &mut SnapshotReader<'_>) -> Result<JoinSynopsis> {
    // A header spec the build path would reject cannot describe a real
    // engine — and the index rebuild below relies on its invariants.
    if let Err(err) = spec.validate() {
        return Err(drift(format!("JOIN header spec is invalid: {err}")));
    }
    let mut c = Cursor::new(r.section()?);
    let lambda = c.f64("JOIN lambda")?;
    let dims = c.u64("JOIN dims")? as usize;
    let total_rows = c.u64("JOIN total rows")?;
    let sample = decode_sample(&mut c)?;
    c.done("JOIN state")?;
    if dims == 0 || sample.rows().dims() != dims {
        return Err(drift("JOIN sample arity disagrees with its dims".into()));
    }
    if dims <= spec.attr_dims() {
        return Err(drift(
            "JOIN dims leave no fact-side predicate dimensions".into(),
        ));
    }
    if spec.fk_dim >= dims - spec.attr_dims() {
        return Err(drift("JOIN FK dimension is outside the fact side".into()));
    }
    if total_rows < sample.k() as u64 {
        return Err(drift("JOIN total rows below its sample size".into()));
    }
    JoinSynopsis::from_snapshot_parts(spec.clone(), sample, lambda, total_rows)
}

// --- VerdictDB-style scramble ---

pub(crate) fn save_verdict(v: &VerdictSynopsis, out: &mut Vec<u8>) {
    let mut state = Vec::new();
    put_f64(&mut state, v.lambda);
    put_u64(&mut state, v.population);
    put_usize(&mut state, v.n_groups);
    put_u32_seq(&mut state, &v.group);
    encode_table(&mut state, &v.rows);
    write_section(out, &state);
}

fn load_verdict(ratio: f64, seed: u64, r: &mut SnapshotReader<'_>) -> Result<VerdictSynopsis> {
    let mut c = Cursor::new(r.section()?);
    let lambda = c.f64("scramble lambda")?;
    let population = c.u64("scramble population")?;
    let n_groups = c.u64("scramble group count")? as usize;
    let group = c.u32_seq("scramble group assignments")?;
    let rows = decode_table(&mut c)?;
    c.done("scramble state")?;
    if n_groups == 0 {
        return Err(drift("scramble has zero subsample groups".into()));
    }
    if group.len() != rows.n_rows() {
        return Err(drift(
            "scramble group assignments disagree with its rows".into(),
        ));
    }
    if group.iter().any(|&g| g as usize >= n_groups) {
        return Err(drift("scramble group assignment out of range".into()));
    }
    if population < rows.n_rows() as u64 {
        return Err(drift("scramble population below its row count".into()));
    }
    Ok(VerdictSynopsis {
        rows,
        group,
        n_groups,
        population,
        lambda,
        name: format!("VerdictDB-{}%", (ratio * 100.0).round()),
        requested: (ratio, seed),
    })
}

// --- DeepDB-style SPN ---

const SPN_SUM: u8 = 0;
const SPN_PRODUCT: u8 = 1;
const SPN_LEAF: u8 = 2;

pub(crate) fn save_spn(spn: &SpnSynopsis, out: &mut Vec<u8>) {
    let mut state = Vec::new();
    put_usize(&mut state, spn.dims);
    put_u64(&mut state, spn.population);
    put_usize(&mut state, spn.root);
    put_usize(&mut state, spn.nodes.len());
    for node in &spn.nodes {
        match node {
            Node::Sum(children) => {
                put_u8(&mut state, SPN_SUM);
                put_usize(&mut state, children.len());
                for &(w, child) in children {
                    put_f64(&mut state, w);
                    put_usize(&mut state, child);
                }
            }
            Node::Product(children) => {
                put_u8(&mut state, SPN_PRODUCT);
                put_usize(&mut state, children.len());
                for (cols, child) in children {
                    let cols: Vec<u64> = cols.iter().map(|&col| col as u64).collect();
                    put_u64_seq(&mut state, &cols);
                    put_usize(&mut state, *child);
                }
            }
            Node::Leaf { col, hist } => {
                put_u8(&mut state, SPN_LEAF);
                put_usize(&mut state, *col);
                put_f64_seq(&mut state, &hist.edges);
                put_f64_seq(&mut state, &hist.mass);
                put_f64_seq(&mut state, &hist.mean);
            }
        }
    }
    write_section(out, &state);
}

fn load_spn(ratio: f64, seed: u64, r: &mut SnapshotReader<'_>) -> Result<SpnSynopsis> {
    let mut c = Cursor::new(r.section()?);
    let dims = c.u64("SPN dims")? as usize;
    let population = c.u64("SPN population")?;
    let root = c.u64("SPN root")? as usize;
    let n_nodes = c.len(1, "SPN nodes")?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for id in 0..n_nodes {
        // `learn` pushes children before their parent, so every edge in a
        // well-formed arena points backwards; enforcing that on decode
        // makes the recursive evaluators' termination a load-time fact.
        let backward = |child: usize| -> Result<usize> {
            if child >= id {
                return Err(drift(format!(
                    "SPN node {id} has a non-backward child {child}"
                )));
            }
            Ok(child)
        };
        let node = match c.u8("SPN node tag")? {
            SPN_SUM => {
                let n = c.len(16, "sum children")?;
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    let w = c.f64("sum weight")?;
                    let child = backward(c.u64("sum child")? as usize)?;
                    children.push((w, child));
                }
                Node::Sum(children)
            }
            SPN_PRODUCT => {
                let n = c.len(16, "product children")?;
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    let cols: Vec<usize> = c
                        .u64_seq("product scope")?
                        .into_iter()
                        .map(|col| col as usize)
                        .collect();
                    if cols.iter().any(|&col| col > dims) {
                        return Err(drift(format!(
                            "SPN node {id} scopes a column beyond {dims}"
                        )));
                    }
                    let child = backward(c.u64("product child")? as usize)?;
                    children.push((cols, child));
                }
                Node::Product(children)
            }
            SPN_LEAF => {
                let col = c.u64("leaf column")? as usize;
                let edges = c.f64_seq("leaf edges")?;
                let mass = c.f64_seq("leaf mass")?;
                let mean = c.f64_seq("leaf means")?;
                if col > dims {
                    return Err(drift(format!("SPN leaf column {col} beyond {dims}")));
                }
                if mass.is_empty() || edges.len() != mass.len() + 1 || mean.len() != mass.len() {
                    return Err(drift("SPN leaf histogram arrays disagree".into()));
                }
                Node::Leaf {
                    col,
                    hist: crate::spn::Histogram { edges, mass, mean },
                }
            }
            other => return Err(drift(format!("unknown SPN node tag {other}"))),
        };
        nodes.push(node);
    }
    c.done("SPN state")?;
    if dims == 0 || population == 0 {
        return Err(drift("SPN has no dimensions or no population".into()));
    }
    if nodes.is_empty() || root >= nodes.len() {
        return Err(drift("SPN root is out of range".into()));
    }
    Ok(SpnSynopsis {
        nodes,
        root,
        dims,
        population,
        name: format!("DeepDB-{}%", (ratio * 100.0).round()),
        requested: (ratio, seed),
    })
}

// --- Sharded (recursive) ---

pub(crate) fn save_sharded(sharded: &ShardedSynopsis, out: &mut Vec<u8>) -> Result<()> {
    let mut state = Vec::new();
    put_usize(&mut state, sharded.shards.len());
    put_usize(&mut state, sharded.dims);
    write_section(out, &state);
    for shard in &sharded.shards {
        shard.save_state(out)?;
    }
    Ok(())
}

fn load_sharded(
    inner: &EngineSpec,
    plan: &pass_common::ShardPlan,
    r: &mut SnapshotReader<'_>,
) -> Result<ShardedSynopsis> {
    let mut c = Cursor::new(r.section()?);
    let n_shards = c.u64("shard count")? as usize;
    let dims = c.u64("sharded dims")? as usize;
    c.done("sharded state")?;
    if n_shards == 0 {
        return Err(drift("sharded snapshot has no shards".into()));
    }
    let mut shards: Vec<Arc<dyn Synopsis>> = Vec::with_capacity(n_shards);
    for i in 0..n_shards {
        let shard = load_state(&ShardedSynopsis::shard_spec(inner, i), r)?;
        if shard.dims() != dims {
            return Err(drift(format!(
                "shard {i} answers {} dims but the plan expects {dims}",
                shard.dims()
            )));
        }
        shards.push(shard);
    }
    // bounds: n_shards >= 1 was validated above, so shard 0 exists.
    let name = format!("Sharded[{}]-{}", shards.len(), shards[0].name());
    Ok(ShardedSynopsis {
        shards,
        plan: plan.clone(),
        inner_spec: inner.clone(),
        name,
        dims,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use pass_common::{AggKind, Query, ShardPlan};
    use pass_table::datasets::uniform;

    #[test]
    fn every_standard_engine_round_trips_bit_identically() {
        let t = uniform(4_000, 9);
        for spec in Engine::standard_suite(8, 300, 5) {
            let engine = Engine::build(&t, &spec).unwrap();
            let mut bytes = Vec::new();
            engine.save(&mut bytes).unwrap();
            let back = Engine::load(&bytes).unwrap();
            assert_eq!(back.spec(), engine.spec());
            assert_eq!(back.name(), engine.name());
            assert_eq!(back.storage_bytes(), engine.storage_bytes());
            for agg in AggKind::ALL {
                let q = Query::interval(agg, 0.15, 0.8);
                assert_eq!(back.estimate(&q), engine.estimate(&q), "{}", engine.name());
            }
        }
    }

    #[test]
    fn sharded_snapshots_recurse_per_shard() {
        let t = uniform(6_000, 10);
        let spec = EngineSpec::sharded(
            EngineSpec::uniform(200).with_seed(4),
            ShardPlan::row_range(3),
        );
        let engine = Engine::build(&t, &spec).unwrap();
        let mut bytes = Vec::new();
        engine.save(&mut bytes).unwrap();
        let back = Engine::load(&bytes).unwrap();
        assert_eq!(back.spec(), spec);
        assert_eq!(back.name(), "Sharded[3]-US");
        let q = Query::interval(AggKind::Sum, 0.2, 0.9);
        assert_eq!(back.estimate(&q), engine.estimate(&q));
    }

    #[test]
    fn shard_count_lies_are_spec_mismatches() {
        let t = uniform(1_000, 11);
        let spec = EngineSpec::sharded(EngineSpec::uniform(50), ShardPlan::row_range(2));
        let engine = Engine::build(&t, &spec).unwrap();
        let mut bytes = Vec::new();
        engine.save(&mut bytes).unwrap();
        // Truncating the trailing shard's sections starves the recursion.
        let cut = bytes.len() - 20;
        assert!(matches!(
            Engine::load(&bytes[..cut]).err(),
            Some(PassError::Snapshot(
                SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
            ))
        ));
    }
}
