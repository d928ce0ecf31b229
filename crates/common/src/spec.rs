//! Declarative engine specifications — the single way call sites describe
//! an AQP engine.
//!
//! Every engine of the paper's Section 5 evaluation (PASS plus the six
//! baselines) is described by one [`EngineSpec`] variant. A spec is plain
//! data: it can be compared, cloned, serialized to JSON and parsed back,
//! and handed to the engine registry (`pass_baselines::Engine::build`) or
//! a `pass::Session` to construct the live synopsis. Built engines report
//! the spec they were constructed from via
//! [`Synopsis::spec`](crate::Synopsis::spec), so `build(table, spec).spec()
//! == spec` round-trips.

use crate::agg::AggKind;
use crate::error::{PassError, Result};
use crate::json::Json;
use crate::stats::LAMBDA_99;

/// The `"lambda"` key of a v1 PASS spec: the CI scale, fixed at
/// [`LAMBDA_99`]. The key stays in the JSON so v1 snapshot headers keep
/// their bytes, and the reader refuses any other value.
const V1_LAMBDA: f64 = LAMBDA_99;

/// Which partitioning optimizer drives PASS leaf selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// The paper's ADP (sampled + discretized DP) tuned for an aggregate
    /// kind; in d > 1 this becomes the KD-PASS max-variance expansion.
    Adp(AggKind),
    /// Equal-depth strata (EQ); in d > 1 the KD-US breadth-first expansion.
    EqualDepth,
    /// The AQP++ hill-climbing comparator (1-D only; d > 1 falls back to
    /// breadth-first).
    HillClimb,
    /// Equal key-width buckets (1-D only; d > 1 falls back to
    /// breadth-first).
    EqualWidth,
}

/// Full parameterization of a PASS synopsis as plain data.
/// `..PassSpec::default()` gives the paper's Section 5.1.3 defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct PassSpec {
    /// Number of leaf partitions `k` (the precomputation budget).
    pub partitions: usize,
    /// Per-stratum sampling rate (fraction of each leaf's rows).
    pub sample_rate: f64,
    /// Hard cap on total stored samples (the BSS storage-bounded mode).
    pub total_samples: Option<usize>,
    /// Partitioning optimizer.
    pub strategy: PartitionStrategy,
    /// Store sample values as f32 deltas from the partition mean
    /// (Section 3.4 compression).
    pub delta_encode: bool,
    /// The AVG 0-variance rule (default on).
    pub zero_variance_rule: bool,
    /// ADP optimization sample size `m`.
    pub opt_samples: usize,
    /// ADP meaningful-overlap fraction δ.
    pub adp_delta: f64,
    /// KD-PASS leaf-depth balance limit.
    pub kd_balance: usize,
    /// Master seed for all randomized build steps.
    pub seed: u64,
    /// Workload-shift mode: index only these predicate dimensions in the
    /// partition tree while samples keep every predicate column.
    pub tree_dims: Option<Vec<usize>>,
}

impl Default for PassSpec {
    fn default() -> Self {
        PassSpec {
            partitions: 64,
            sample_rate: 0.005,
            total_samples: None,
            strategy: PartitionStrategy::Adp(AggKind::Sum),
            delta_encode: false,
            zero_variance_rule: true,
            opt_samples: 4096,
            adp_delta: 0.01,
            kd_balance: 2,
            seed: 0x9A55,
            tree_dims: None,
        }
    }
}

/// A fact ⋈ dimension foreign-key join scenario, as plain data.
///
/// The *fact* side is the table handed to the engine registry
/// (`pass_baselines::Engine::build`), exactly as for every single-table
/// engine; the *dimension* side travels **inside the spec** — a unique
/// key column plus zero or more attribute columns — so the spec stays
/// self-contained: it JSON round-trips, reseeds shard-by-shard, and a
/// snapshot header alone is enough to rebuild the dimension hash index
/// at load time. Queries against the built `JoinSynopsis` span both
/// sides: predicate dimensions `0..fact_dims` constrain the fact
/// columns (the FK column included) and dimensions `fact_dims..` the
/// dimension attributes, in `dim_attrs` order.
///
/// Keys and attributes must be finite: the JSON writer emits non-finite
/// floats as `null` (and `-0.0` as `0`, losing the sign bit), so only
/// finite values survive a spec round trip — [`validate`](Self::validate)
/// rejects the rest up front, and key handling canonicalizes `-0.0` to
/// `0.0` wherever keys are hashed or compared (matching
/// [`ShardPlan::key_shard`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Fact-table predicate dimension holding the foreign key.
    pub fk_dim: usize,
    /// Dimension-side primary keys (finite, unique up to `-0.0 == 0.0`).
    pub dim_keys: Vec<f64>,
    /// Dimension-side attribute columns, column-major:
    /// `dim_attrs[col][row]` (every column as long as `dim_keys`).
    pub dim_attrs: Vec<Vec<f64>>,
    /// Fact-side sample size in rows.
    pub k: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl JoinSpec {
    /// A join spec with seed 0 (use [`EngineSpec::with_seed`] to reseed).
    pub fn new(fk_dim: usize, dim_keys: Vec<f64>, dim_attrs: Vec<Vec<f64>>, k: usize) -> Self {
        JoinSpec {
            fk_dim,
            dim_keys,
            dim_attrs,
            k,
            seed: 0,
        }
    }

    /// Predicate dimensions the join adds on top of the fact table's
    /// (one per dimension attribute column).
    pub fn attr_dims(&self) -> usize {
        self.dim_attrs.len()
    }

    /// Reject specs that cannot build or cannot round-trip: a zero
    /// sample budget, ragged attribute columns, non-finite keys or
    /// attributes, and duplicate keys (after `-0.0` canonicalization).
    /// An **empty** dimension side is valid — every fact row dangles and
    /// the join is empty, which the estimator answers honestly.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(PassError::InvalidParameter(
                "k",
                "a join synopsis needs at least one fact-side sample row".into(),
            ));
        }
        for (i, col) in self.dim_attrs.iter().enumerate() {
            if col.len() != self.dim_keys.len() {
                return Err(PassError::InvalidParameter(
                    "dim_attrs",
                    format!(
                        "attribute column {i} has {} rows but the key column has {}",
                        col.len(),
                        self.dim_keys.len()
                    ),
                ));
            }
            if col.iter().any(|v| !v.is_finite()) {
                return Err(PassError::InvalidParameter(
                    "dim_attrs",
                    format!("attribute column {i} holds a non-finite value"),
                ));
            }
        }
        let mut seen = std::collections::HashSet::with_capacity(self.dim_keys.len());
        for &key in &self.dim_keys {
            if !key.is_finite() {
                return Err(PassError::InvalidParameter(
                    "dim_keys",
                    "dimension keys must be finite".into(),
                ));
            }
            // Canonicalize -0.0 so the two equal-comparing zeros cannot
            // smuggle in a duplicate key.
            let canonical = if key == 0.0 { 0.0f64 } else { key };
            if !seen.insert(canonical.to_bits()) {
                return Err(PassError::InvalidParameter(
                    "dim_keys",
                    format!("duplicate dimension key {key}"),
                ));
            }
        }
        Ok(())
    }

    fn f64_arr(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
    }
}

/// How one logical table is cut into K disjoint shards, each served by
/// its own synopsis (`pass_baselines::ShardedSynopsis`).
///
/// A plan is plain data, like [`EngineSpec`]: it travels inside
/// [`EngineSpec::Sharded`], round-trips through JSON, and is interpreted
/// against a concrete table by `pass_table::Table::split`. Both
/// partitioners produce *disjoint, exhaustive* shards — every row lands
/// in exactly one shard — which is what makes per-shard COUNT/SUM
/// estimates add up exactly and their variances add as independent
/// strata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPlan {
    /// `shards` contiguous row ranges of near-equal size (the parallel
    /// bulk-build layout: shard i gets rows `[i·n/K, (i+1)·n/K)`).
    RowRange {
        /// Number of shards K (≥ 1).
        shards: usize,
    },
    /// Rows are routed by a deterministic hash of predicate column
    /// `dim`'s bit pattern — co-locating equal predicate keys, the layout
    /// for hash-distributed storage.
    HashDim {
        /// Predicate dimension whose value is hashed.
        dim: usize,
        /// Number of shards K (≥ 1).
        shards: usize,
    },
}

impl ShardPlan {
    /// A row-range plan with `shards` shards.
    pub fn row_range(shards: usize) -> Self {
        ShardPlan::RowRange { shards }
    }

    /// A hash plan over predicate dimension `dim` with `shards` shards.
    pub fn hash_dim(dim: usize, shards: usize) -> Self {
        ShardPlan::HashDim { dim, shards }
    }

    /// Number of shards the plan requests.
    pub fn shards(&self) -> usize {
        match *self {
            ShardPlan::RowRange { shards } | ShardPlan::HashDim { shards, .. } => shards,
        }
    }

    /// Reject degenerate plans (zero shards).
    pub fn validate(&self) -> Result<()> {
        if self.shards() == 0 {
            return Err(PassError::InvalidParameter(
                "shards",
                "a shard plan needs at least one shard".into(),
            ));
        }
        Ok(())
    }

    /// Deterministic shard index of a predicate key under a `shards`-way
    /// hash plan (the workspace's canonical SplitMix64 mixer,
    /// [`crate::rng::derive_seed`], over the key's bit pattern under a
    /// dedicated stream label; `-0.0` canonicalizes to `0.0` so
    /// equal-comparing keys co-locate).
    pub fn key_shard(key: f64, shards: usize) -> usize {
        // Stream label separating key hashing from every seeded RNG.
        const KEY_STREAM: u64 = 0x5AAD_C0DE;
        let canonical = if key == 0.0 { 0.0f64 } else { key };
        let mixed = crate::rng::derive_seed(canonical.to_bits(), KEY_STREAM);
        (mixed % shards.max(1) as u64) as usize
    }

    /// Short kind label, also the JSON tag.
    pub fn kind(&self) -> &'static str {
        match self {
            ShardPlan::RowRange { .. } => "row_range",
            ShardPlan::HashDim { .. } => "hash_dim",
        }
    }

    fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("kind", Json::from(self.kind())),
            ("shards", Json::from(self.shards())),
        ];
        if let ShardPlan::HashDim { dim, .. } = self {
            fields.push(("dim", Json::from(*dim)));
        }
        Json::obj(fields)
    }

    fn from_json_value(doc: &Json) -> Result<ShardPlan> {
        let field_err =
            |name: &str| PassError::Load(format!("ShardPlan JSON: missing or invalid `{name}`"));
        let shards = doc
            .get("shards")
            .and_then(Json::as_usize)
            .ok_or(field_err("shards"))?;
        match doc.get("kind").and_then(Json::as_str) {
            Some("row_range") => Ok(ShardPlan::RowRange { shards }),
            Some("hash_dim") => Ok(ShardPlan::HashDim {
                dim: doc
                    .get("dim")
                    .and_then(Json::as_usize)
                    .ok_or(field_err("dim"))?,
                shards,
            }),
            _ => Err(field_err("kind")),
        }
    }
}

/// One engine of the Section 5 evaluation, as declarative configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineSpec {
    /// PASS (the paper's contribution).
    Pass(PassSpec),
    /// US — one uniform sample of `k` rows.
    Uniform {
        /// Sample size in rows.
        k: usize,
        /// Sampling seed.
        seed: u64,
    },
    /// ST — `strata` equal-depth strata sharing a budget of `k` samples.
    Stratified {
        /// Number of equal-depth strata.
        strata: usize,
        /// Total sample budget across strata.
        k: usize,
        /// Sampling seed.
        seed: u64,
    },
    /// AQP++ (1-D) / KD-US (d > 1): `partitions` precomputed aggregates +
    /// a uniform sample of `k` rows; `tree_dims` selects the
    /// workload-shift build.
    AqpPlusPlus {
        /// Number of precomputed partitions.
        partitions: usize,
        /// Uniform sample size in rows.
        k: usize,
        /// Sampling seed.
        seed: u64,
        /// Workload-shift mode: predicate dimensions the tree indexes.
        tree_dims: Option<Vec<usize>>,
    },
    /// VerdictDB-style scramble of `ratio` of the table.
    Verdict {
        /// Fraction of the table kept in the scramble.
        ratio: f64,
        /// Scramble seed.
        seed: u64,
    },
    /// DeepDB-style SPN trained on a `ratio` row sample.
    Spn {
        /// Fraction of the table the SPN is trained on.
        ratio: f64,
        /// Training-sample seed.
        seed: u64,
    },
    /// Fact ⋈ dimension FK join: the fact side (the build table) is
    /// uniformly sampled, the dimension side (carried inside the spec)
    /// is hash-indexed, and SUM/COUNT/AVG over a predicate rectangle
    /// spanning both sides is answered with Horvitz–Thompson-style
    /// unbiased estimates (`pass_baselines::JoinSynopsis`).
    Join(JoinSpec),
    /// One logical table partitioned across K per-shard engines (each
    /// built from `inner` over its shard) whose partial estimates are
    /// merged at query time (`pass_baselines::ShardedSynopsis`).
    Sharded {
        /// The engine built over every shard.
        inner: Box<EngineSpec>,
        /// How the table is cut into shards.
        plan: ShardPlan,
    },
    /// Escape hatch for hand-built synopses that live outside the
    /// registry; carries only the display name. Cannot be built.
    Opaque {
        /// Display name of the hand-built synopsis.
        name: String,
    },
}

impl EngineSpec {
    /// PASS with the paper's defaults.
    pub fn pass() -> Self {
        EngineSpec::Pass(PassSpec::default())
    }

    /// US with `k` sampled rows.
    pub fn uniform(k: usize) -> Self {
        EngineSpec::Uniform { k, seed: 0 }
    }

    /// ST with `strata` strata and `k` total samples.
    pub fn stratified(strata: usize, k: usize) -> Self {
        EngineSpec::Stratified { strata, k, seed: 0 }
    }

    /// AQP++/KD-US with `partitions` aggregates and `k` sampled rows.
    pub fn aqppp(partitions: usize, k: usize) -> Self {
        EngineSpec::AqpPlusPlus {
            partitions,
            k,
            seed: 0,
            tree_dims: None,
        }
    }

    /// VerdictDB-style scramble of `ratio` of the table.
    pub fn verdict(ratio: f64) -> Self {
        EngineSpec::Verdict { ratio, seed: 0 }
    }

    /// DeepDB-style SPN trained on `ratio` of the table.
    pub fn spn(ratio: f64) -> Self {
        EngineSpec::Spn { ratio, seed: 0 }
    }

    /// A fact ⋈ dimension FK join over `spec`'s dimension side.
    pub fn join(spec: JoinSpec) -> Self {
        EngineSpec::Join(spec)
    }

    /// `inner` sharded across the table according to `plan`.
    pub fn sharded(inner: EngineSpec, plan: ShardPlan) -> Self {
        EngineSpec::Sharded {
            inner: Box::new(inner),
            plan,
        }
    }

    /// Return the spec with its seed replaced (whichever variant; a
    /// sharded spec reseeds its inner engine).
    pub fn with_seed(mut self, new_seed: u64) -> Self {
        match &mut self {
            EngineSpec::Pass(p) => p.seed = new_seed,
            EngineSpec::Uniform { seed, .. }
            | EngineSpec::Stratified { seed, .. }
            | EngineSpec::AqpPlusPlus { seed, .. }
            | EngineSpec::Verdict { seed, .. }
            | EngineSpec::Spn { seed, .. } => *seed = new_seed,
            EngineSpec::Join(j) => j.seed = new_seed,
            EngineSpec::Sharded { inner, .. } => {
                let reseeded = std::mem::replace(inner.as_mut(), EngineSpec::uniform(0));
                **inner = reseeded.with_seed(new_seed);
            }
            EngineSpec::Opaque { .. } => {}
        }
        self
    }

    /// The randomization seed the spec's builds draw from (the innermost
    /// engine's seed for sharded specs); `None` for opaque specs.
    pub fn seed(&self) -> Option<u64> {
        match self {
            EngineSpec::Pass(p) => Some(p.seed),
            EngineSpec::Uniform { seed, .. }
            | EngineSpec::Stratified { seed, .. }
            | EngineSpec::AqpPlusPlus { seed, .. }
            | EngineSpec::Verdict { seed, .. }
            | EngineSpec::Spn { seed, .. } => Some(*seed),
            EngineSpec::Join(j) => Some(j.seed),
            EngineSpec::Sharded { inner, .. } => inner.seed(),
            EngineSpec::Opaque { .. } => None,
        }
    }

    /// Short kind label (`"pass"`, `"uniform"`, ...), also the JSON tag.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineSpec::Pass(_) => "pass",
            EngineSpec::Uniform { .. } => "uniform",
            EngineSpec::Stratified { .. } => "stratified",
            EngineSpec::AqpPlusPlus { .. } => "aqppp",
            EngineSpec::Verdict { .. } => "verdict",
            EngineSpec::Spn { .. } => "spn",
            EngineSpec::Join(_) => "join",
            EngineSpec::Sharded { .. } => "sharded",
            EngineSpec::Opaque { .. } => "opaque",
        }
    }

    /// Serialize to a canonical single-line JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    fn to_json_value(&self) -> Json {
        // Seeds are full-range u64 but JSON numbers are f64 (53-bit
        // integer precision), so large seeds are emitted as decimal
        // strings; the parser accepts both forms.
        let seed_json = |seed: u64| {
            if seed <= (1u64 << 53) {
                Json::from(seed)
            } else {
                Json::from(seed.to_string())
            }
        };
        let mut fields: Vec<(&'static str, Json)> = vec![("engine", Json::from(self.kind()))];
        match self {
            EngineSpec::Pass(p) => {
                fields.push(("partitions", Json::from(p.partitions)));
                fields.push(("sample_rate", Json::from(p.sample_rate)));
                if let Some(total) = p.total_samples {
                    fields.push(("total_samples", Json::from(total)));
                }
                let (strategy, strategy_agg) = match p.strategy {
                    PartitionStrategy::Adp(kind) => ("adp", Some(kind)),
                    PartitionStrategy::EqualDepth => ("equal_depth", None),
                    PartitionStrategy::HillClimb => ("hill_climb", None),
                    PartitionStrategy::EqualWidth => ("equal_width", None),
                };
                fields.push(("strategy", Json::from(strategy)));
                if let Some(kind) = strategy_agg {
                    fields.push(("strategy_agg", Json::from(kind.to_string())));
                }
                fields.push(("lambda", Json::from(V1_LAMBDA)));
                fields.push(("delta_encode", Json::from(p.delta_encode)));
                fields.push(("zero_variance_rule", Json::from(p.zero_variance_rule)));
                fields.push(("opt_samples", Json::from(p.opt_samples)));
                fields.push(("adp_delta", Json::from(p.adp_delta)));
                fields.push(("kd_balance", Json::from(p.kd_balance)));
                fields.push(("seed", seed_json(p.seed)));
                if let Some(dims) = &p.tree_dims {
                    fields.push((
                        "tree_dims",
                        Json::Arr(dims.iter().map(|&d| Json::from(d)).collect()),
                    ));
                }
            }
            EngineSpec::Uniform { k, seed } => {
                fields.push(("k", Json::from(*k)));
                fields.push(("seed", seed_json(*seed)));
            }
            EngineSpec::Stratified { strata, k, seed } => {
                fields.push(("strata", Json::from(*strata)));
                fields.push(("k", Json::from(*k)));
                fields.push(("seed", seed_json(*seed)));
            }
            EngineSpec::AqpPlusPlus {
                partitions,
                k,
                seed,
                tree_dims,
            } => {
                fields.push(("partitions", Json::from(*partitions)));
                fields.push(("k", Json::from(*k)));
                fields.push(("seed", seed_json(*seed)));
                if let Some(dims) = tree_dims {
                    fields.push((
                        "tree_dims",
                        Json::Arr(dims.iter().map(|&d| Json::from(d)).collect()),
                    ));
                }
            }
            EngineSpec::Verdict { ratio, seed } | EngineSpec::Spn { ratio, seed } => {
                fields.push(("ratio", Json::from(*ratio)));
                fields.push(("seed", seed_json(*seed)));
            }
            EngineSpec::Join(j) => {
                fields.push(("fk_dim", Json::from(j.fk_dim)));
                fields.push(("k", Json::from(j.k)));
                fields.push(("seed", seed_json(j.seed)));
                fields.push(("dim_keys", JoinSpec::f64_arr(&j.dim_keys)));
                fields.push((
                    "dim_attrs",
                    Json::Arr(
                        j.dim_attrs
                            .iter()
                            .map(|col| JoinSpec::f64_arr(col))
                            .collect(),
                    ),
                ));
            }
            EngineSpec::Sharded { inner, plan } => {
                fields.push(("plan", plan.to_json_value()));
                fields.push(("inner", inner.to_json_value()));
            }
            EngineSpec::Opaque { name } => {
                fields.push(("name", Json::from(name.clone())));
            }
        }
        Json::obj(fields)
    }

    /// Parse a spec previously produced by [`to_json`](Self::to_json).
    pub fn from_json(text: &str) -> Result<EngineSpec> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Parse a spec from an already-parsed JSON value (recursion point
    /// for the nested `inner` spec of [`EngineSpec::Sharded`]).
    fn from_json_value(doc: &Json) -> Result<EngineSpec> {
        let field_err =
            |name: &str| PassError::Load(format!("EngineSpec JSON: missing or invalid `{name}`"));
        let usize_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_usize)
                .ok_or(field_err(name))
        };
        // Seeds arrive as a JSON number or, above 2^53, a decimal string.
        let u64_field = |name: &str| {
            doc.get(name)
                .and_then(|v| {
                    v.as_u64()
                        .or_else(|| v.as_str().and_then(|s| s.parse::<u64>().ok()))
                })
                .ok_or(field_err(name))
        };
        let f64_field = |name: &str| doc.get(name).and_then(Json::as_f64).ok_or(field_err(name));
        let tree_dims = match doc.get("tree_dims") {
            None => None,
            Some(value) => Some(
                value
                    .as_arr()
                    .ok_or(field_err("tree_dims"))?
                    .iter()
                    .map(|d| d.as_usize().ok_or(field_err("tree_dims")))
                    .collect::<Result<Vec<usize>>>()?,
            ),
        };
        match doc.get("engine").and_then(Json::as_str) {
            Some("pass") => {
                let strategy = match doc.get("strategy").and_then(Json::as_str) {
                    Some("adp") => {
                        let agg = doc
                            .get("strategy_agg")
                            .and_then(Json::as_str)
                            .ok_or(field_err("strategy_agg"))?;
                        PartitionStrategy::Adp(parse_agg(agg)?)
                    }
                    Some("equal_depth") => PartitionStrategy::EqualDepth,
                    Some("hill_climb") => PartitionStrategy::HillClimb,
                    Some("equal_width") => PartitionStrategy::EqualWidth,
                    _ => return Err(field_err("strategy")),
                };
                if f64_field("lambda")? != V1_LAMBDA {
                    return Err(PassError::Load(format!(
                        "EngineSpec JSON: `lambda` must be {V1_LAMBDA}, the CI scale of format v1"
                    )));
                }
                Ok(EngineSpec::Pass(PassSpec {
                    partitions: usize_field("partitions")?,
                    sample_rate: f64_field("sample_rate")?,
                    total_samples: match doc.get("total_samples") {
                        None => None,
                        Some(v) => Some(v.as_usize().ok_or(field_err("total_samples"))?),
                    },
                    strategy,
                    delta_encode: doc
                        .get("delta_encode")
                        .and_then(Json::as_bool)
                        .ok_or(field_err("delta_encode"))?,
                    zero_variance_rule: doc
                        .get("zero_variance_rule")
                        .and_then(Json::as_bool)
                        .ok_or(field_err("zero_variance_rule"))?,
                    opt_samples: usize_field("opt_samples")?,
                    adp_delta: f64_field("adp_delta")?,
                    kd_balance: usize_field("kd_balance")?,
                    seed: u64_field("seed")?,
                    tree_dims,
                }))
            }
            Some("uniform") => Ok(EngineSpec::Uniform {
                k: usize_field("k")?,
                seed: u64_field("seed")?,
            }),
            Some("stratified") => Ok(EngineSpec::Stratified {
                strata: usize_field("strata")?,
                k: usize_field("k")?,
                seed: u64_field("seed")?,
            }),
            Some("aqppp") => Ok(EngineSpec::AqpPlusPlus {
                partitions: usize_field("partitions")?,
                k: usize_field("k")?,
                seed: u64_field("seed")?,
                tree_dims,
            }),
            Some("verdict") => Ok(EngineSpec::Verdict {
                ratio: f64_field("ratio")?,
                seed: u64_field("seed")?,
            }),
            Some("spn") => Ok(EngineSpec::Spn {
                ratio: f64_field("ratio")?,
                seed: u64_field("seed")?,
            }),
            Some("join") => {
                let f64_column = |value: &Json, name: &'static str| -> Result<Vec<f64>> {
                    value
                        .as_arr()
                        .ok_or(field_err(name))?
                        .iter()
                        .map(|v| v.as_f64().ok_or(field_err(name)))
                        .collect()
                };
                Ok(EngineSpec::Join(JoinSpec {
                    fk_dim: usize_field("fk_dim")?,
                    dim_keys: f64_column(
                        doc.get("dim_keys").ok_or(field_err("dim_keys"))?,
                        "dim_keys",
                    )?,
                    dim_attrs: doc
                        .get("dim_attrs")
                        .and_then(Json::as_arr)
                        .ok_or(field_err("dim_attrs"))?
                        .iter()
                        .map(|col| f64_column(col, "dim_attrs"))
                        .collect::<Result<Vec<Vec<f64>>>>()?,
                    k: usize_field("k")?,
                    seed: u64_field("seed")?,
                }))
            }
            Some("sharded") => Ok(EngineSpec::Sharded {
                plan: ShardPlan::from_json_value(doc.get("plan").ok_or(field_err("plan"))?)?,
                inner: Box::new(Self::from_json_value(
                    doc.get("inner").ok_or(field_err("inner"))?,
                )?),
            }),
            Some("opaque") => Ok(EngineSpec::Opaque {
                name: doc
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(field_err("name"))?
                    .to_owned(),
            }),
            _ => Err(field_err("engine")),
        }
    }
}

fn parse_agg(text: &str) -> Result<AggKind> {
    AggKind::ALL
        .into_iter()
        .find(|kind| kind.to_string() == text)
        .ok_or_else(|| PassError::Load(format!("unknown aggregate kind `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specimens() -> Vec<EngineSpec> {
        vec![
            EngineSpec::pass(),
            EngineSpec::Pass(PassSpec {
                partitions: 16,
                sample_rate: 0.05,
                total_samples: Some(1_000),
                strategy: PartitionStrategy::EqualDepth,
                delta_encode: true,
                tree_dims: Some(vec![0, 2]),
                seed: 7,
                ..PassSpec::default()
            }),
            EngineSpec::uniform(500).with_seed(3),
            EngineSpec::stratified(16, 500),
            EngineSpec::aqppp(32, 400),
            EngineSpec::AqpPlusPlus {
                partitions: 64,
                k: 256,
                seed: 9,
                tree_dims: Some(vec![1]),
            },
            EngineSpec::verdict(0.1).with_seed(5),
            EngineSpec::spn(0.5),
            EngineSpec::join(JoinSpec::new(
                0,
                vec![1.0, 2.0, 3.5],
                vec![vec![10.0, 20.5, 30.0], vec![-1.0, 0.0, 1.0]],
                128,
            ))
            .with_seed(11),
            // Attribute-free and empty-dimension joins are valid specs.
            EngineSpec::join(JoinSpec::new(1, vec![7.25], vec![], 64)),
            EngineSpec::join(JoinSpec::new(0, vec![], vec![], 32)),
            EngineSpec::sharded(EngineSpec::uniform(256), ShardPlan::row_range(4)),
            EngineSpec::sharded(
                EngineSpec::sharded(EngineSpec::pass(), ShardPlan::row_range(2)),
                ShardPlan::hash_dim(1, 8),
            ),
            EngineSpec::Opaque {
                name: "CUSTOM".into(),
            },
        ]
    }

    #[test]
    fn json_round_trips_every_variant() {
        for spec in specimens() {
            let text = spec.to_json();
            let back = EngineSpec::from_json(&text).unwrap();
            assert_eq!(back, spec, "{text}");
        }
    }

    #[test]
    fn a_pass_header_that_names_its_engine_still_loads() {
        // Older writers emitted a display-name override as `name`; the
        // reader ignores the key.
        let spec = EngineSpec::pass();
        let named = spec.to_json().replacen('{', r#"{"name":"PASS-BSS2x","#, 1);
        assert!(named.contains("PASS-BSS2x"));
        assert_eq!(EngineSpec::from_json(&named).unwrap(), spec);
    }

    #[test]
    fn json_round_trips_full_range_seeds() {
        // Seeds above 2^53 exceed f64 integer precision; they travel as
        // decimal strings and must survive exactly.
        for seed in [0u64, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            for spec in [
                EngineSpec::uniform(10).with_seed(seed),
                EngineSpec::pass().with_seed(seed),
            ] {
                let text = spec.to_json();
                assert_eq!(
                    EngineSpec::from_json(&text).unwrap(),
                    spec,
                    "seed {seed}: {text}"
                );
            }
        }
    }

    #[test]
    fn adp_strategy_keeps_its_aggregate() {
        let spec = EngineSpec::Pass(PassSpec {
            strategy: PartitionStrategy::Adp(AggKind::Avg),
            ..PassSpec::default()
        });
        let back = EngineSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn with_seed_touches_every_variant() {
        for spec in specimens() {
            let seeded = spec.clone().with_seed(999);
            // `seed()` reads the innermost seed `with_seed` wrote
            // (None only for opaque specs, which have no seed).
            if let Some(seed) = seeded.seed() {
                assert_eq!(seed, 999, "{spec:?}");
            } else {
                assert!(matches!(seeded, EngineSpec::Opaque { .. }));
            }
            // Reseeding must not change the plan of a sharded spec.
            if let (EngineSpec::Sharded { plan, .. }, EngineSpec::Sharded { plan: seeded, .. }) =
                (&spec, &seeded)
            {
                assert_eq!(plan, seeded);
            }
        }
    }

    #[test]
    fn shard_plans_validate_and_hash_deterministically() {
        assert!(ShardPlan::row_range(0).validate().is_err());
        assert!(ShardPlan::hash_dim(0, 0).validate().is_err());
        assert!(ShardPlan::row_range(1).validate().is_ok());
        assert_eq!(ShardPlan::hash_dim(2, 8).shards(), 8);
        assert_eq!(ShardPlan::hash_dim(2, 8).kind(), "hash_dim");
        // Deterministic, in range, and -0.0 co-locates with 0.0.
        for key in [0.0, -0.0, 1.5, -1.5, 1e300, f64::MIN_POSITIVE] {
            let s = ShardPlan::key_shard(key, 7);
            assert!(s < 7);
            assert_eq!(s, ShardPlan::key_shard(key, 7));
        }
        assert_eq!(
            ShardPlan::key_shard(0.0, 16),
            ShardPlan::key_shard(-0.0, 16)
        );
    }

    #[test]
    fn malformed_sharded_json_is_rejected() {
        assert!(EngineSpec::from_json(r#"{"engine": "sharded"}"#).is_err());
        assert!(EngineSpec::from_json(
            r#"{"engine": "sharded", "plan": {"kind": "row_range", "shards": 2}}"#
        )
        .is_err());
        assert!(EngineSpec::from_json(
            r#"{"engine": "sharded", "plan": {"kind": "warp", "shards": 2},
                "inner": {"engine": "uniform", "k": 5, "seed": 0}}"#
        )
        .is_err());
        assert!(EngineSpec::from_json(
            r#"{"engine": "sharded", "plan": {"kind": "hash_dim", "shards": 2},
                "inner": {"engine": "uniform", "k": 5, "seed": 0}}"#
        )
        .is_err());
    }

    #[test]
    fn join_specs_validate() {
        // Well-formed specimens validate, including degenerate-but-legal
        // shapes (no attributes, empty dimension side).
        for spec in specimens() {
            if let EngineSpec::Join(j) = spec {
                assert!(j.validate().is_ok(), "{j:?}");
            }
        }
        let good = JoinSpec::new(0, vec![1.0, 2.0], vec![vec![5.0, 6.0]], 16);
        assert!(good.validate().is_ok());
        assert_eq!(good.attr_dims(), 1);
        // Zero sample budget.
        assert!(JoinSpec::new(0, vec![1.0], vec![], 0).validate().is_err());
        // Ragged attribute column.
        assert!(JoinSpec::new(0, vec![1.0, 2.0], vec![vec![5.0]], 4)
            .validate()
            .is_err());
        // Non-finite keys and attributes cannot survive JSON.
        assert!(JoinSpec::new(0, vec![f64::NAN], vec![], 4)
            .validate()
            .is_err());
        assert!(JoinSpec::new(0, vec![1.0], vec![vec![f64::INFINITY]], 4)
            .validate()
            .is_err());
        // Duplicate keys, including the -0.0/0.0 collision.
        assert!(JoinSpec::new(0, vec![1.0, 1.0], vec![], 4)
            .validate()
            .is_err());
        assert!(JoinSpec::new(0, vec![0.0, -0.0], vec![], 4)
            .validate()
            .is_err());
        // Every validation failure is the typed parameter error.
        for bad in [
            JoinSpec::new(0, vec![1.0], vec![], 0),
            JoinSpec::new(0, vec![1.0, 1.0], vec![], 4),
        ] {
            assert!(matches!(
                bad.validate(),
                Err(PassError::InvalidParameter(_, _))
            ));
        }
    }

    #[test]
    fn malformed_join_json_is_rejected() {
        assert!(EngineSpec::from_json(r#"{"engine": "join"}"#).is_err());
        assert!(EngineSpec::from_json(
            r#"{"engine": "join", "fk_dim": 0, "k": 8, "seed": 0, "dim_keys": "oops",
                "dim_attrs": []}"#
        )
        .is_err());
        assert!(EngineSpec::from_json(
            r#"{"engine": "join", "fk_dim": 0, "k": 8, "seed": 0, "dim_keys": [1, null],
                "dim_attrs": []}"#
        )
        .is_err());
        assert!(EngineSpec::from_json(
            r#"{"engine": "join", "fk_dim": 0, "k": 8, "seed": 0, "dim_keys": [1, 2],
                "dim_attrs": [[1, "x"]]}"#
        )
        .is_err());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(EngineSpec::from_json("{}").is_err());
        assert!(EngineSpec::from_json(r#"{"engine": "warp"}"#).is_err());
        assert!(EngineSpec::from_json(r#"{"engine": "uniform"}"#).is_err());
        assert!(EngineSpec::from_json(r#"{"engine": "uniform", "k": -1, "seed": 0}"#).is_err());
    }

    #[test]
    fn defaults_match_the_paper() {
        let spec = PassSpec::default();
        assert_eq!(spec.partitions, 64);
        assert_eq!(spec.sample_rate, 0.005);
        assert!(spec.zero_variance_rule);
        assert!(EngineSpec::Pass(spec)
            .to_json()
            .contains(r#""lambda":2.576"#));
    }

    /// λ is a format-v1 constant: a PASS spec naming any other CI scale
    /// is refused where it enters, with the field named.
    #[test]
    fn a_lambda_other_than_the_v1_constant_is_refused() {
        let json = EngineSpec::pass().to_json();
        assert!(EngineSpec::from_json(&json).is_ok());
        for other in ["1.96", "-1", "2.5760001"] {
            let text = json.replace(r#""lambda":2.576"#, &format!(r#""lambda":{other}"#));
            assert_ne!(text, json);
            match EngineSpec::from_json(&text) {
                Err(PassError::Load(why)) => assert!(why.contains("`lambda`"), "{why}"),
                other => panic!("{text}: {other:?}"),
            }
        }
        let missing = json.replace(r#""lambda":2.576,"#, "");
        assert!(matches!(
            EngineSpec::from_json(&missing),
            Err(PassError::Load(_))
        ));
    }
}
