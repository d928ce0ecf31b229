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
//! == spec` round-trips. One private field table per variant names every
//! JSON key once; the writer, the reader, `with_seed` and
//! [`EngineSpec::validate`] all walk it.

use std::collections::BTreeMap;

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

impl PartitionStrategy {
    /// Every strategy, ADP tuned for SUM: the reader's candidates.
    const ALL: [PartitionStrategy; 4] = [
        PartitionStrategy::Adp(AggKind::Sum),
        PartitionStrategy::EqualDepth,
        PartitionStrategy::HillClimb,
        PartitionStrategy::EqualWidth,
    ];

    /// The strategy's JSON name.
    fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Adp(_) => "adp",
            PartitionStrategy::EqualDepth => "equal_depth",
            PartitionStrategy::HillClimb => "hill_climb",
            PartitionStrategy::EqualWidth => "equal_width",
        }
    }
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

    /// Reject specs that cannot build or cannot round-trip, by the JOIN
    /// rules of [`EngineSpec::validate`]. An **empty** dimension side is
    /// valid: every fact row dangles, and the estimator answers the empty
    /// join honestly.
    pub fn validate(&self) -> Result<()> {
        EngineSpec::Join(self.clone()).validate()
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
        self.clone().fields(&mut Slot::check)
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
        self.walk_seed(&mut |seed| *seed = new_seed);
        self
    }

    /// The randomization seed the spec's builds draw from (the innermost
    /// engine's seed for sharded specs); `None` for opaque specs.
    pub fn seed(&self) -> Option<u64> {
        let mut found = None;
        self.clone().walk_seed(&mut |seed| found = Some(*seed));
        found
    }

    /// Hand `f` the seed slot of the field table, the innermost spec's
    /// for a sharded spec.
    fn walk_seed(&mut self, f: &mut dyn FnMut(&mut u64)) {
        let _ = self.fields(&mut |_, slot| {
            match slot {
                Slot::Seed(seed) => f(seed),
                Slot::Spec(inner) => inner.walk_seed(f),
                _ => {}
            }
            Ok(())
        });
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

    /// Reject a spec that cannot build or cannot round-trip, naming the
    /// field: the one home of the rules a spec's values obey. Every real
    /// is finite (JSON has no NaN or infinity), nested specs included; a
    /// PASS `sample_rate` and a Verdict or SPN `ratio` lie in (0, 1]; PASS
    /// `partitions`, a JOIN's `k` and a plan's `shards` are at least 1;
    /// a JOIN's attribute columns are as long as its key column, and its
    /// keys are unique after `-0.0` canonicalization.
    pub fn validate(&self) -> Result<()> {
        self.clone().fields(&mut Slot::check)?;
        let EngineSpec::Join(j) = self else {
            return Ok(());
        };
        if let Some(i) = j
            .dim_attrs
            .iter()
            .position(|col| col.len() != j.dim_keys.len())
        {
            return Err(PassError::InvalidParameter(
                "dim_attrs",
                format!("attribute column {i} is not as long as the key column"),
            ));
        }
        let mut seen = std::collections::HashSet::with_capacity(j.dim_keys.len());
        // Canonicalize -0.0 so the two equal-comparing zeros cannot
        // smuggle in a duplicate key.
        let canonical = |key: f64| if key == 0.0 { 0.0f64 } else { key };
        match (j.dim_keys.iter()).find(|&&key| !seen.insert(canonical(key).to_bits())) {
            Some(key) => Err(PassError::InvalidParameter(
                "dim_keys",
                format!("duplicate dimension key {key}"),
            )),
            None => Ok(()),
        }
    }

    /// Serialize to a canonical single-line JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Parse a spec previously produced by [`to_json`](Self::to_json).
    pub fn from_json(text: &str) -> Result<EngineSpec> {
        Self::from_json_value(&Json::parse(text)?)
    }
}

/// One field of a spec as the field table hands it out: a typed place
/// that the JSON writer reads, the reader fills, `with_seed` sets and
/// `validate` checks.
enum Slot<'a> {
    Count(&'a mut usize),
    /// A count of at least 1.
    Positive(&'a mut usize),
    /// A count whose key is left out when `None`.
    OptCount(&'a mut Option<usize>),
    /// Predicate dimensions, left out when `None`.
    Dims(&'a mut Option<Vec<usize>>),
    /// A full-range seed. JSON numbers hold 53 integer bits, so larger
    /// seeds travel as decimal strings.
    Seed(&'a mut u64),
    /// A finite real.
    Real(&'a mut f64),
    /// A real in (0, 1].
    Fraction(&'a mut f64),
    Flag(&'a mut bool),
    Text(&'a mut String),
    /// Finite reals.
    Reals(&'a mut Vec<f64>),
    /// Columns of finite reals.
    Columns(&'a mut Vec<Vec<f64>>),
    /// A partitioning optimizer's name.
    Strategy(&'a mut PartitionStrategy),
    /// The aggregate an ADP strategy is tuned for; absent for the others.
    StrategyAgg(&'a mut PartitionStrategy),
    /// A constant of the format (v1's λ, v1's `delta_encode: false`):
    /// written as is, any other value refused.
    Fixed(Json),
    Plan(&'a mut ShardPlan),
    Spec(&'a mut EngineSpec),
}

impl Slot<'_> {
    /// The slot's JSON value; `None` leaves its key out.
    fn write(self) -> Option<Json> {
        let reals = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::from(x)).collect());
        Some(match self {
            Slot::Count(n) | Slot::Positive(n) => Json::from(*n),
            // An absent optional key reads as `None`; a malformed one fails.
            Slot::OptCount(n) => Json::from((*n)?),
            Slot::Dims(dims) => Json::Arr(dims.as_ref()?.iter().map(|&d| Json::from(d)).collect()),
            Slot::Seed(seed) if *seed > 1 << 53 => Json::from(seed.to_string()),
            Slot::Seed(seed) => Json::from(*seed),
            Slot::Real(x) | Slot::Fraction(x) => Json::from(*x),
            Slot::Flag(flag) => Json::from(*flag),
            Slot::Text(text) => Json::from(text.as_str()),
            Slot::Reals(xs) => reals(xs),
            Slot::Columns(cols) => Json::Arr(cols.iter().map(|col| reals(col)).collect()),
            Slot::Strategy(strategy) => Json::from(strategy.name()),
            Slot::StrategyAgg(PartitionStrategy::Adp(agg)) => Json::from(agg.to_string()),
            Slot::StrategyAgg(_) => return None,
            Slot::Fixed(value) => value,
            Slot::Plan(plan) => plan.to_json_value(),
            Slot::Spec(spec) => spec.to_json_value(),
        })
    }

    /// Fill the slot from its key's value (`None` when the key is
    /// absent); `None` back means the value is missing or malformed.
    fn read(self, value: Option<&Json>) -> Option<()> {
        let reals =
            |v: &Json| -> Option<Vec<f64>> { v.as_arr()?.iter().map(Json::as_f64).collect() };
        let counts =
            |v: &Json| -> Option<Vec<usize>> { v.as_arr()?.iter().map(Json::as_usize).collect() };
        match self {
            Slot::Count(n) | Slot::Positive(n) => *n = value?.as_usize()?,
            // An absent optional key reads as `None`; a malformed one fails.
            Slot::OptCount(n) => *n = value.map(|v| v.as_usize().ok_or(())).transpose().ok()?,
            Slot::Dims(dims) => *dims = value.map(|v| counts(v).ok_or(())).transpose().ok()?,
            Slot::Seed(seed) => {
                *seed = value?.as_u64().or_else(|| value?.as_str()?.parse().ok())?
            }
            Slot::Real(x) | Slot::Fraction(x) => *x = value?.as_f64()?,
            Slot::Flag(flag) => *flag = value?.as_bool()?,
            Slot::Text(text) => *text = value?.as_str()?.to_owned(),
            Slot::Reals(xs) => *xs = reals(value?)?,
            Slot::Columns(cols) => {
                *cols = value?.as_arr()?.iter().map(reals).collect::<Option<_>>()?
            }
            Slot::Strategy(strategy) => {
                let name = value?.as_str()?;
                *strategy = PartitionStrategy::ALL
                    .into_iter()
                    .find(|s| s.name() == name)?;
            }
            Slot::StrategyAgg(PartitionStrategy::Adp(agg)) => {
                let text = value?.as_str()?;
                *agg = AggKind::ALL
                    .into_iter()
                    .find(|kind| kind.to_string() == text)?;
            }
            Slot::StrategyAgg(_) => {}
            Slot::Fixed(fixed) => return (value? == &fixed).then_some(()),
            Slot::Plan(plan) => *plan = ShardPlan::from_json_value(value?).ok()?,
            Slot::Spec(spec) => *spec = EngineSpec::from_json_value(value?).ok()?,
        }
        Some(())
    }

    /// The rules the slot's type carries, with `key` named in the error:
    /// reals are finite, fractions lie in (0, 1], positive counts are at
    /// least 1, and nested plans and specs pass their own rules.
    fn check(key: &'static str, slot: Slot<'_>) -> Result<()> {
        let finite = |xs: &[f64]| xs.iter().all(|x| x.is_finite());
        let why = match slot {
            Slot::Positive(n) if *n == 0 => "must be at least 1".to_owned(),
            Slot::Real(x) | Slot::Fraction(x) if !x.is_finite() => format!("{x} is not finite"),
            Slot::Fraction(x) if *x <= 0.0 || *x > 1.0 => format!("{x} is not in (0, 1]"),
            Slot::Reals(xs) if !finite(xs) => "holds a non-finite value".to_owned(),
            Slot::Columns(cols) if !cols.iter().all(|col| finite(col)) => {
                "holds a non-finite value".to_owned()
            }
            Slot::Plan(plan) => return plan.validate(),
            Slot::Spec(spec) => return spec.validate(),
            _ => return Ok(()),
        };
        Err(PassError::InvalidParameter(key, why))
    }
}

/// A tagged JSON object whose keys one field table lists: an
/// [`EngineSpec`] (tagged by `engine`) or a [`ShardPlan`] (by `kind`).
trait Fields: Clone {
    /// The key that names the variant.
    const TAG: &'static str;

    /// One value of every variant, for the reader to fill in.
    fn blanks() -> Vec<Self>;

    /// The variant's name under [`TAG`](Self::TAG).
    fn variant(&self) -> &'static str;

    /// The field table: hand `f` every field of the variant, under its
    /// JSON key, in a typed slot.
    fn fields(&mut self, f: &mut dyn FnMut(&'static str, Slot<'_>) -> Result<()>) -> Result<()>;

    fn to_json_value(&self) -> Json {
        let mut doc = BTreeMap::from([(Self::TAG.to_owned(), Json::from(self.variant()))]);
        let _ = self.clone().fields(&mut |key, slot| {
            doc.extend(slot.write().map(|value| (key.to_owned(), value)));
            Ok(())
        });
        Json::Obj(doc)
    }

    fn from_json_value(doc: &Json) -> Result<Self> {
        let err =
            |key: &str| PassError::Load(format!("EngineSpec JSON: missing or invalid `{key}`"));
        let tag = doc.get(Self::TAG).and_then(Json::as_str);
        let mut value = (Self::blanks().into_iter())
            .find(|blank| Some(blank.variant()) == tag)
            .ok_or_else(|| err(Self::TAG))?;
        value.fields(&mut |key, slot| slot.read(doc.get(key)).ok_or_else(|| err(key)))?;
        Ok(value)
    }
}

impl Fields for EngineSpec {
    const TAG: &'static str = "engine";

    fn blanks() -> Vec<Self> {
        vec![
            EngineSpec::pass(),
            EngineSpec::uniform(0),
            EngineSpec::stratified(0, 0),
            EngineSpec::aqppp(0, 0),
            EngineSpec::verdict(0.0),
            EngineSpec::spn(0.0),
            EngineSpec::join(JoinSpec::new(0, vec![], vec![], 0)),
            EngineSpec::sharded(EngineSpec::uniform(0), ShardPlan::row_range(0)),
            EngineSpec::Opaque {
                name: String::new(),
            },
        ]
    }

    fn variant(&self) -> &'static str {
        self.kind()
    }

    fn fields(&mut self, f: &mut dyn FnMut(&'static str, Slot<'_>) -> Result<()>) -> Result<()> {
        match self {
            EngineSpec::Pass(p) => {
                f("partitions", Slot::Positive(&mut p.partitions))?;
                f("sample_rate", Slot::Fraction(&mut p.sample_rate))?;
                f("total_samples", Slot::OptCount(&mut p.total_samples))?;
                f("strategy", Slot::Strategy(&mut p.strategy))?;
                f("strategy_agg", Slot::StrategyAgg(&mut p.strategy))?;
                f("lambda", Slot::Fixed(Json::from(V1_LAMBDA)))?;
                f("delta_encode", Slot::Fixed(Json::from(false)))?;
                f("zero_variance_rule", Slot::Flag(&mut p.zero_variance_rule))?;
                f("opt_samples", Slot::Count(&mut p.opt_samples))?;
                f("adp_delta", Slot::Real(&mut p.adp_delta))?;
                f("kd_balance", Slot::Count(&mut p.kd_balance))?;
                f("seed", Slot::Seed(&mut p.seed))?;
                f("tree_dims", Slot::Dims(&mut p.tree_dims))
            }
            EngineSpec::Uniform { k, seed } => {
                f("k", Slot::Count(k))?;
                f("seed", Slot::Seed(seed))
            }
            EngineSpec::Stratified { strata, k, seed } => {
                f("strata", Slot::Count(strata))?;
                f("k", Slot::Count(k))?;
                f("seed", Slot::Seed(seed))
            }
            EngineSpec::AqpPlusPlus {
                partitions,
                k,
                seed,
                tree_dims,
            } => {
                f("partitions", Slot::Count(partitions))?;
                f("k", Slot::Count(k))?;
                f("seed", Slot::Seed(seed))?;
                f("tree_dims", Slot::Dims(tree_dims))
            }
            EngineSpec::Verdict { ratio, seed } | EngineSpec::Spn { ratio, seed } => {
                f("ratio", Slot::Fraction(ratio))?;
                f("seed", Slot::Seed(seed))
            }
            EngineSpec::Join(j) => {
                f("fk_dim", Slot::Count(&mut j.fk_dim))?;
                f("dim_keys", Slot::Reals(&mut j.dim_keys))?;
                f("dim_attrs", Slot::Columns(&mut j.dim_attrs))?;
                f("k", Slot::Positive(&mut j.k))?;
                f("seed", Slot::Seed(&mut j.seed))
            }
            EngineSpec::Sharded { inner, plan } => {
                f("plan", Slot::Plan(plan))?;
                f("inner", Slot::Spec(inner))
            }
            EngineSpec::Opaque { name } => f("name", Slot::Text(name)),
        }
    }
}

impl Fields for ShardPlan {
    const TAG: &'static str = "kind";

    fn blanks() -> Vec<Self> {
        vec![ShardPlan::row_range(0), ShardPlan::hash_dim(0, 0)]
    }

    fn variant(&self) -> &'static str {
        self.kind()
    }

    fn fields(&mut self, f: &mut dyn FnMut(&'static str, Slot<'_>) -> Result<()>) -> Result<()> {
        match self {
            ShardPlan::RowRange { shards } => f("shards", Slot::Positive(shards)),
            ShardPlan::HashDim { dim, shards } => {
                f("dim", Slot::Count(dim))?;
                f("shards", Slot::Positive(shards))
            }
        }
    }
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
    /// is refused where it enters, with the field named. So is a spec
    /// whose `delta_encode` key, always `false` in v1, reads `true`.
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
        let delta = json.replace(r#""delta_encode":false"#, r#""delta_encode":true"#);
        assert_ne!(delta, json);
        match EngineSpec::from_json(&delta) {
            Err(PassError::Load(why)) => assert!(why.contains("`delta_encode`"), "{why}"),
            other => panic!("{delta}: {other:?}"),
        }
    }
}
