//! Snapshot codecs for the baseline engines and the spec-driven load
//! dispatch (see `pass_common::snapshot` for the container format).
//!
//! Each engine serializes only what its [`EngineSpec`] cannot rebuild —
//! the drawn samples and learned structures — and derives the rest
//! (names, requested parameters, seeds) from the spec embedded in the
//! snapshot header, exactly as the build path would. The sampled
//! engines' state sections open with format v1's λ slot ([`V1Lambda`]).
//! [`ShardedSynopsis`] recurses: its state is one section naming the
//! shard count and arity, followed by every shard's own state sections
//! in shard order, each decoded against the spec
//! [`ShardedSynopsis::shard_spec`] derives for that index.
//!
//! Every field goes through `pass_common::snapshot::Codec`; the two
//! composite types only baselines have — an ST [`Stratum`] and an SPN
//! [`Node`] — implement it here. JOIN writes its US's state section. Decoders re-validate every invariant the
//! estimators rely on (sample arities, group assignments, SPN child
//! ordering) so a checksum-valid but drifted payload fails at load time
//! with `SnapshotError::SpecMismatch` instead of panicking at query time.

use std::sync::Arc;

use pass_common::snapshot::{write_section, Codec, Cursor, SnapshotReader};
use pass_common::{EngineSpec, JoinSpec, PassError, Result, Synopsis, LAMBDA_99};
use pass_core::snapshot::load_pass;
use pass_core::PartitionTree;
use pass_sampling::Sample;
use pass_table::Table;

use crate::spn::{Histogram, Node, SpnSynopsis};
use crate::st::Stratum;
use crate::{
    AqpPlusPlus, JoinSynopsis, ShardedSynopsis, StratifiedSynopsis, UniformSynopsis,
    VerdictSynopsis,
};

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

/// The 8-byte slot that opens every sampled baseline's state section in
/// format v1, where it held the engine's CI scale λ. λ is no longer engine
/// state — [`PointVariance::evaluate`](pass_sampling::PointVariance::evaluate)
/// applies the paper's 2.576 — so the writer stores that constant and the
/// reader refuses a section whose slot holds anything else.
struct V1Lambda;

impl Codec for V1Lambda {
    const MIN_BYTES: usize = 8;

    fn encode(&self, out: &mut Vec<u8>) {
        LAMBDA_99.encode(out);
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        let lambda: f64 = c.read()?;
        if lambda.to_bits() != LAMBDA_99.to_bits() {
            return Err(c.drift(format_args!(
                "λ slot holds {lambda}, not format v1's {LAMBDA_99}"
            )));
        }
        Ok(V1Lambda)
    }
}

// --- US and JOIN: one sampled-state section ---

/// The state section US writes, and JOIN through its US: the λ slot,
/// query arity, the population the sample scales to, and the sample.
/// The spec-derived rest of a JOIN — its dimension hash index — is
/// rebuilt from the header spec at load time.
pub(crate) fn save_us(us: &UniformSynopsis, out: &mut Vec<u8>) {
    let mut state = Vec::new();
    V1Lambda.encode(&mut state);
    us.dims.encode(&mut state);
    us.total_rows.encode(&mut state);
    us.sample.encode(&mut state);
    write_section(out, &state);
}

/// Read a section written by [`save_us`], checking the sample against
/// the arity and the population.
fn read_sampled(c: &mut Cursor<'_>) -> Result<(usize, u64, Sample)> {
    c.read::<V1Lambda>()?;
    let dims: usize = c.read()?;
    let total_rows: u64 = c.read()?;
    let sample: Sample = c.read()?;
    c.done()?;
    if dims == 0 || sample.rows().dims() != dims {
        return Err(c.drift("sample arity disagrees with its dims"));
    }
    if total_rows < sample.k() as u64 {
        return Err(c.drift("total rows below its sample size"));
    }
    Ok((dims, total_rows, sample))
}

fn load_us(requested_k: usize, seed: u64, r: &mut SnapshotReader<'_>) -> Result<UniformSynopsis> {
    let (dims, total_rows, sample) = read_sampled(&mut Cursor::new(r.section()?, "US state"))?;
    Ok(UniformSynopsis {
        sample,
        dims,
        total_rows,
        requested_k,
        seed,
    })
}

fn load_join(spec: &JoinSpec, r: &mut SnapshotReader<'_>) -> Result<JoinSynopsis> {
    let mut c = Cursor::new(r.section()?, "JOIN state");
    let (dims, total_rows, sample) = read_sampled(&mut c)?;
    if dims <= spec.attr_dims() {
        return Err(c.drift("dims leave no fact-side predicate dimensions"));
    }
    if spec.fk_dim >= dims - spec.attr_dims() {
        return Err(c.drift("FK dimension is outside the fact side"));
    }
    Ok(JoinSynopsis::over(sample, total_rows, spec.clone()))
}

// --- ST ---

/// Key range, then the stratum's (1-D) sample.
impl Codec for Stratum {
    const MIN_BYTES: usize = 16 + Sample::MIN_BYTES;

    fn encode(&self, out: &mut Vec<u8>) {
        self.key_lo.encode(out);
        self.key_hi.encode(out);
        self.sample.encode(out);
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        let stratum = Stratum {
            key_lo: c.read()?,
            key_hi: c.read()?,
            sample: c.read()?,
        };
        if stratum.sample.rows().dims() != 1 {
            return Err(c.drift("ST stratum sample is not 1-D"));
        }
        Ok(stratum)
    }
}

pub(crate) fn save_st(st: &StratifiedSynopsis, out: &mut Vec<u8>) {
    let mut state = Vec::new();
    V1Lambda.encode(&mut state);
    st.total_rows.encode(&mut state);
    st.strata.encode(&mut state);
    write_section(out, &state);
}

fn load_st(
    strata: usize,
    k: usize,
    seed: u64,
    r: &mut SnapshotReader<'_>,
) -> Result<StratifiedSynopsis> {
    let mut c = Cursor::new(r.section()?, "ST state");
    c.read::<V1Lambda>()?;
    let total_rows: u64 = c.read()?;
    let decoded: Vec<Stratum> = c.read()?;
    c.done()?;
    if decoded.is_empty() {
        return Err(c.drift("ST snapshot has no strata"));
    }
    let sampled: u64 = decoded.iter().map(|s| s.sample.k() as u64).sum();
    if total_rows < sampled {
        return Err(c.drift("ST total rows below its sampled rows"));
    }
    Ok(StratifiedSynopsis {
        strata: decoded,
        total_rows,
        requested: (strata, k, seed),
    })
}

// --- AQP++ / KD-US ---

pub(crate) fn save_aqppp(aqp: &AqpPlusPlus, out: &mut Vec<u8>) {
    let mut tree = Vec::new();
    aqp.tree.encode(&mut tree);
    write_section(out, &tree);

    let mut state = Vec::new();
    V1Lambda.encode(&mut state);
    u8::from(aqp.name == "KD-US").encode(&mut state);
    aqp.tree.dims().encode(&mut state);
    aqp.sample.encode(&mut state);
    write_section(out, &state);
}

fn load_aqppp(
    partitions: usize,
    k: usize,
    seed: u64,
    tree_dims: Option<&[usize]>,
    r: &mut SnapshotReader<'_>,
) -> Result<AqpPlusPlus> {
    let mut c = Cursor::new(r.section()?, "AQP++ tree");
    let tree: PartitionTree = c.read()?;
    c.done()?;

    let mut c = Cursor::new(r.section()?, "AQP++ state");
    c.read::<V1Lambda>()?;
    let name = match c.read::<u8>()? {
        0 => "AQP++",
        1 => "KD-US",
        other => return Err(c.drift(format_args!("unknown AQP++ variant tag {other}"))),
    };
    let arity: usize = c.read()?;
    let sample: Sample = c.read()?;
    c.done()?;

    if arity == 0 || sample.rows().dims() != arity {
        return Err(c.drift("AQP++ sample arity disagrees with its dims"));
    }
    // Snapshots written before workload-shift trees were lifted at build
    // time hold the narrow tree. (A mapping that names every dimension
    // leaves nothing to tell the two apart: that tree is taken as lifted.)
    let tree = match tree_dims {
        Some(dims) if tree.dims() != arity => {
            tree.lifted(dims, arity).map_err(|err| c.drift(err))?
        }
        _ => tree,
    };
    if tree.dims() != arity {
        return Err(c.drift(format_args!(
            "AQP++ tree covers {} dims but queries expect {arity}",
            tree.dims()
        )));
    }
    Ok(AqpPlusPlus {
        tree,
        sample,
        name,
        requested: (partitions, k, seed, tree_dims.map(<[usize]>::to_vec)),
    })
}

// --- VerdictDB-style scramble ---

pub(crate) fn save_verdict(v: &VerdictSynopsis, out: &mut Vec<u8>) {
    let mut state = Vec::new();
    V1Lambda.encode(&mut state);
    v.population.encode(&mut state);
    v.n_groups.encode(&mut state);
    v.group.encode(&mut state);
    v.rows.encode(&mut state);
    write_section(out, &state);
}

fn load_verdict(ratio: f64, seed: u64, r: &mut SnapshotReader<'_>) -> Result<VerdictSynopsis> {
    let mut c = Cursor::new(r.section()?, "scramble state");
    c.read::<V1Lambda>()?;
    let population: u64 = c.read()?;
    let n_groups: usize = c.read()?;
    let group: Vec<u32> = c.read()?;
    let rows: Table = c.read()?;
    c.done()?;
    if n_groups == 0 {
        return Err(c.drift("scramble has zero subsample groups"));
    }
    if group.len() != rows.n_rows() {
        return Err(c.drift("scramble group assignments disagree with its rows"));
    }
    if group.iter().any(|&g| g as usize >= n_groups) {
        return Err(c.drift("scramble group assignment out of range"));
    }
    if population < rows.n_rows() as u64 {
        return Err(c.drift("scramble population below its row count"));
    }
    Ok(VerdictSynopsis {
        rows,
        group,
        n_groups,
        population,
        name: format!("VerdictDB-{}%", (ratio * 100.0).round()),
        requested: (ratio, seed),
    })
}

// --- DeepDB-style SPN ---

const SPN_SUM: u8 = 0;
const SPN_PRODUCT: u8 = 1;
const SPN_LEAF: u8 = 2;

/// A tag byte, then the node's children or its column and histogram.
impl Codec for Node {
    const MIN_BYTES: usize = 9;

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Node::Sum(children) => {
                SPN_SUM.encode(out);
                children.encode(out);
            }
            Node::Product(children) => {
                SPN_PRODUCT.encode(out);
                children.encode(out);
            }
            Node::Leaf { col, hist } => {
                SPN_LEAF.encode(out);
                col.encode(out);
                hist.edges.encode(out);
                hist.mass.encode(out);
                hist.mean.encode(out);
            }
        }
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        Ok(match c.read()? {
            SPN_SUM => Node::Sum(c.read()?),
            SPN_PRODUCT => Node::Product(c.read()?),
            SPN_LEAF => {
                let col = c.read()?;
                let hist = Histogram {
                    edges: c.read()?,
                    mass: c.read()?,
                    mean: c.read()?,
                };
                let bins = hist.mass.len();
                if bins == 0 || hist.edges.len() != bins + 1 || hist.mean.len() != bins {
                    return Err(c.drift("SPN leaf histogram arrays disagree"));
                }
                Node::Leaf { col, hist }
            }
            other => return Err(c.drift(format_args!("unknown SPN node tag {other}"))),
        })
    }
}

pub(crate) fn save_spn(spn: &SpnSynopsis, out: &mut Vec<u8>) {
    let mut state = Vec::new();
    spn.dims.encode(&mut state);
    spn.population.encode(&mut state);
    spn.root.encode(&mut state);
    spn.nodes.encode(&mut state);
    write_section(out, &state);
}

fn load_spn(ratio: f64, seed: u64, r: &mut SnapshotReader<'_>) -> Result<SpnSynopsis> {
    let mut c = Cursor::new(r.section()?, "SPN state");
    let dims: usize = c.read()?;
    let population: u64 = c.read()?;
    let root: usize = c.read()?;
    let nodes: Vec<Node> = c.read()?;
    c.done()?;
    // `learn` pushes children before their parent, so every edge in a
    // well-formed arena points backwards; enforcing that on decode makes
    // the recursive evaluators' termination a load-time fact.
    for (id, node) in nodes.iter().enumerate() {
        let well_formed = match node {
            Node::Sum(children) => children.iter().all(|&(_, child)| child < id),
            Node::Product(children) => children
                .iter()
                .all(|(cols, child)| *child < id && cols.iter().all(|&col| col <= dims)),
            Node::Leaf { col, .. } => *col <= dims,
        };
        if !well_formed {
            return Err(c.drift(format_args!(
                "SPN node {id} has a non-backward child or a column beyond {dims}"
            )));
        }
    }
    if dims == 0 || population == 0 {
        return Err(c.drift("SPN has no dimensions or no population"));
    }
    if nodes.is_empty() || root >= nodes.len() {
        return Err(c.drift("SPN root is out of range"));
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
    sharded.shards.len().encode(&mut state);
    sharded.dims.encode(&mut state);
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
    let mut c = Cursor::new(r.section()?, "sharded state");
    let n_shards: usize = c.read()?;
    let dims: usize = c.read()?;
    c.done()?;
    if n_shards == 0 {
        return Err(c.drift("sharded snapshot has no shards"));
    }
    let mut shards: Vec<Arc<dyn Synopsis>> = Vec::new();
    for i in 0..n_shards {
        let shard = load_state(&ShardedSynopsis::shard_spec(inner, i), r)?;
        if shard.dims() != dims {
            return Err(c.drift(format_args!(
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
    use pass_common::snapshot::SnapshotError;
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
