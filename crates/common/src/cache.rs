//! A bounded per-engine query cache for the serving layer.
//!
//! AQP engines in this workspace are deterministic once built (sampling
//! happens offline, seeded), so a repeated query returns a bit-identical
//! [`Estimate`] — which makes query results safely cacheable. [`QueryCache`]
//! maps a [`QueryKey`] (aggregate kind + exact predicate-interval bounds)
//! to the engine's answer, holds at most a fixed number of entries
//! (SIEVE eviction), and counts hits and misses so the serving layer can
//! report cache effectiveness per workload.
//!
//! Each entry (hash, key, answer) is stored once, in a `Vec` indexed by
//! an open-addressing table of `u32` entry positions: linear probing, at
//! most half full, backward-shift deletion, grown by doubling to at most
//! `2 × capacity` slots. A query is hashed once — a folded multiply
//! seeded at random per cache, since keys come from clients — for its
//! lookup, the in-batch dedup of misses, its insert and, stored in the
//! entry, its eviction.
//!
//! Eviction is SIEVE (Zhang et al., "SIEVE is Simpler than LRU",
//! NSDI '24). The entries form a queue from oldest (the tail) to newest
//! (the head), linked through each entry's `newer` position. A hit sets
//! the entry's `visited` bit and moves nothing. An insert into a full
//! cache sweeps a hand from where it last stopped toward the head,
//! wrapping there to the tail, clearing visited bits; the first
//! unvisited entry is evicted and its slot takes the new entry at the
//! head. On skewed traffic this keeps the popular keys that FIFO would
//! cycle out: at 4 096 entries under Zipf(1) over 16 384 keys it misses
//! about 14 % of lookups where FIFO missed 23 %.
//!
//! [`CachedSynopsis`] layers the cache over any [`Synopsis`] as a
//! decorator: single, batched, and parallel query paths all consult the
//! cache first and only hand the *misses* to the inner engine (keeping the
//! engine's batched traversal win on the miss subset). `pass::Session`
//! wraps every registered engine this way, and `Session::handle` hands
//! out clones of that cached engine, which share one cache per engine
//! across threads.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use crate::chaos::{AtomicU64, Mutex, Ordering};

use crate::estimate::Estimate;
use crate::pool::ThreadPool;
use crate::query::Query;
use crate::spec::EngineSpec;
use crate::synopsis::Synopsis;
use crate::{PassError, Result};

/// The cache identity of a query: its aggregate kind plus the exact bit
/// pattern of every predicate-interval bound. Bit-exact keying means no
/// false sharing between queries that differ by any representable amount
/// (`0.0` and `-0.0` are different keys), and `NaN`-free rectangles
/// (enforced by [`crate::Rect::new`]) make the bit patterns canonical.
///
/// A key holds the query itself — the same inline-or-spilled coordinates
/// — so building or cloning one allocates only when the query does.
/// Equality and hash read the **live** dimensions as bits: the arity is
/// part of the identity, the inline padding is not.
#[derive(Debug, Clone)]
pub struct QueryKey(Query);

impl QueryKey {
    /// The cache key of `query`.
    pub fn new(query: &Query) -> Self {
        Self(query.clone())
    }
}

/// Bound pairs of a query as bits.
fn bound_bits(query: &Query) -> impl Iterator<Item = (u64, u64)> + '_ {
    let bounds = query.rect.bounds().iter();
    bounds.map(|&(lo, hi)| (lo.to_bits(), hi.to_bits()))
}

/// Whether two queries have the same cache identity: aggregate, arity
/// and every bound bit.
fn same_key(a: &Query, b: &Query) -> bool {
    a.agg == b.agg && bound_bits(a).eq(bound_bits(b))
}

impl PartialEq for QueryKey {
    fn eq(&self, other: &Self) -> bool {
        same_key(&self.0, &other.0)
    }
}

impl Eq for QueryKey {}

impl Hash for QueryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.agg.hash(state);
        state.write_usize(self.0.dims());
        for (lo, hi) in bound_bits(&self.0) {
            state.write_u64(lo);
            state.write_u64(hi);
        }
    }
}

/// A point-in-time snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries currently stored.
    pub len: usize,
    /// Maximum entries the cache will hold: the requested capacity,
    /// clamped to the most any cache holds.
    pub capacity: usize,
}

impl CacheStats {
    /// Counter deltas between two snapshots (`self` taken after `earlier`),
    /// e.g. the hits/misses attributable to one workload run. Snapshots
    /// passed in the wrong order give zero deltas.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            len: self.len,
            capacity: self.capacity,
        }
    }
}

/// A bounded, thread-safe query-result cache (SIEVE eviction; see the
/// [module docs](self)).
///
/// Errors are cached alongside successful estimates: a deterministic
/// engine rejects a repeated malformed query identically, so there is no
/// reason to re-run the engine to rediscover the error. Re-inserting a
/// stored key replaces its answer and keeps its place in the queue; an
/// insert does not count as an access.
///
/// Entries belong to an **epoch** — the generation of the synopsis state
/// they were computed against. [`bump_epoch`](Self::bump_epoch) (or
/// [`sync_epoch`](Self::sync_epoch) observing a new
/// [`Synopsis::update_epoch`]) advances the generation and drops every
/// entry, which is how cached answers stay coherent with streaming
/// updates without manual `clear_cache` calls.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    /// The per-cache hash seed.
    seed: [u64; 2],
    /// Test-only: hash every key into this many home slots at the end of
    /// the table, so probe chains are long and wrap past its end.
    #[cfg(test)]
    buckets: Option<u64>,
    inner: Mutex<CacheInner>,
    /// The synopsis generation the stored entries were computed against.
    /// Kept outside the mutex so the hot lookup path can check it with
    /// one atomic load; the entries are only locked (and dropped) when
    /// the epoch actually changes.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// An index slot or a queue link naming no entry.
const EMPTY: u32 = u32::MAX;
/// Entries held at most, whatever the capacity: positions fit a `u32`
/// below [`EMPTY`], and twice the count fits a `usize`.
const MAX_ENTRIES: usize = 1 << 30;
/// Slots of the first table an insert allocates.
const MIN_SLOTS: usize = 8;

#[derive(Debug)]
struct Entry {
    hash: u64,
    key: QueryKey,
    result: Result<Estimate>,
    /// The next newer entry of the queue, or [`EMPTY`] at the head.
    newer: u32,
    /// Looked up since it was stored or the hand last passed it.
    visited: bool,
}

/// The entries, their index and the SIEVE queue over them.
///
/// Entries leave the queue only where the hand stands, so one link per
/// entry is enough: the sweep remembers the entry it stepped from, which
/// is the older neighbour an eviction relinks.
#[derive(Debug)]
struct CacheInner {
    /// At most `limit` entries; once full, an insert overwrites the one
    /// the hand evicts.
    entries: Vec<Entry>,
    limit: usize,
    /// The oldest and newest entries of the queue.
    tail: u32,
    head: u32,
    /// The next entry the sweep inspects ([`EMPTY`]: start at the tail)
    /// and the entry whose `newer` link names it ([`EMPTY`] at the tail).
    hand: u32,
    behind_hand: u32,
    /// The index: [`EMPTY`] or a position in `entries`. Its length is
    /// zero or a power of two, and at most half its slots are taken.
    slots: Vec<u32>,
}

/// Linear probe from `hash`'s home slot: `Ok(slot)` of the first entry
/// `is_key` accepts, else `Err(slot)` of the first empty slot. A table at
/// most half full has one, so a probe ends within one lap.
fn probe(
    slots: &[u32],
    hash: u64,
    mut is_key: impl FnMut(u32) -> bool,
) -> std::result::Result<usize, usize> {
    let mask = slots.len().wrapping_sub(1);
    let mut i = hash as usize & mask;
    for _ in 0..slots.len() {
        match slots[i] {
            EMPTY => return Err(i),
            e if is_key(e) => return Ok(i),
            _ => i = (i + 1) & mask,
        }
    }
    Err(i)
}

impl CacheInner {
    fn new(limit: usize) -> Self {
        Self {
            entries: Vec::new(),
            limit,
            tail: EMPTY,
            head: EMPTY,
            hand: EMPTY,
            behind_hand: EMPTY,
            slots: Vec::new(),
        }
    }

    /// Where `query` is stored, if it is.
    fn find(&self, hash: u64, query: &Query) -> Option<usize> {
        let found = probe(&self.slots, hash, |e| {
            let entry = &self.entries[e as usize];
            entry.hash == hash && same_key(&entry.key.0, query)
        });
        found.ok().map(|slot| self.slots[slot] as usize)
    }

    /// The stored answer for `query`, marking its entry visited.
    fn get(&mut self, hash: u64, query: &Query) -> Option<Result<Estimate>> {
        let at = self.find(hash, query)?;
        let entry = &mut self.entries[at];
        entry.visited = true;
        Some(entry.result.clone())
    }

    fn insert(&mut self, hash: u64, key: QueryKey, result: Result<Estimate>) {
        if let Some(at) = self.find(hash, &key.0) {
            self.entries[at].result = result;
            return;
        }
        let entry = Entry {
            hash,
            key,
            result,
            newer: EMPTY,
            visited: false,
        };
        let at = if self.entries.len() < self.limit {
            if 2 * (self.entries.len() + 1) > self.slots.len() {
                self.grow();
            }
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            // Full: the new entry takes the evicted one's place.
            let at = self.evict();
            self.entries[at] = entry;
            at
        };
        match self.head {
            EMPTY => self.tail = at as u32,
            head => self.entries[head as usize].newer = at as u32,
        }
        self.head = at as u32;
        self.link(at);
    }

    /// Sweep the hand toward the head, wrapping there to the tail and
    /// clearing visited bits, up to the first unvisited entry. Take that
    /// entry out of the queue and the index and return its position; the
    /// hand rests on its newer neighbour. The cache must be full.
    fn evict(&mut self) -> usize {
        loop {
            if self.hand == EMPTY {
                (self.hand, self.behind_hand) = (self.tail, EMPTY);
            }
            let entry = &mut self.entries[self.hand as usize];
            if !entry.visited {
                break;
            }
            entry.visited = false;
            (self.hand, self.behind_hand) = (entry.newer, self.hand);
        }
        let victim = self.hand;
        let newer = self.entries[victim as usize].newer;
        match self.behind_hand {
            EMPTY => self.tail = newer,
            older => self.entries[older as usize].newer = newer,
        }
        if self.head == victim {
            self.head = self.behind_hand;
        }
        self.hand = newer;
        self.unlink(victim as usize);
        victim as usize
    }

    /// Index entry `at` in the first empty slot of its probe chain.
    fn link(&mut self, at: usize) {
        if let Err(slot) = probe(&self.slots, self.entries[at].hash, |_| false) {
            self.slots[slot] = at as u32;
        }
    }

    /// Remove entry `at` from the index, shifting each later entry of its
    /// probe chain back into the hole when the hole is on that entry's
    /// own probe path, so every chain stays unbroken.
    fn unlink(&mut self, at: usize) {
        let Ok(mut hole) = probe(&self.slots, self.entries[at].hash, |e| e as usize == at) else {
            return;
        };
        let mask = self.slots.len() - 1;
        let mut i = hole;
        for _ in 0..self.slots.len() {
            i = (i + 1) & mask;
            let e = self.slots[i];
            if e == EMPTY {
                break;
            }
            let home = self.entries[e as usize].hash as usize & mask;
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = e;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
    }

    /// Double the index, to at most the power of two at or above twice
    /// the limit, and re-index every entry.
    fn grow(&mut self) {
        let most = (2 * self.limit).next_power_of_two();
        self.slots = vec![EMPTY; (2 * self.slots.len()).max(MIN_SLOTS).min(most)];
        (0..self.entries.len()).for_each(|at| self.link(at));
    }

    fn clear(&mut self) {
        self.entries.clear();
        (self.tail, self.head, self.hand) = (EMPTY, EMPTY, EMPTY);
        self.slots.fill(EMPTY);
    }
}

/// The high and low halves of a 128-bit product, folded together.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl QueryCache {
    /// A cache holding at most `capacity` entries (and never more than
    /// 2³⁰). `capacity == 0` disables caching entirely: every lookup is a
    /// miss and inserts are dropped (no storage, no locking on the lookup
    /// path).
    pub fn new(capacity: usize) -> Self {
        let state = RandomState::new();
        let capacity = capacity.min(MAX_ENTRIES);
        Self {
            capacity,
            seed: [state.hash_one(0_u8), state.hash_one(1_u8)],
            #[cfg(test)]
            buckets: None,
            inner: Mutex::new(CacheInner::new(capacity)),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The one hash of `query`: a seeded folded multiply over the
    /// aggregate kind, the arity and every bound's bits.
    #[inline]
    fn hash(&self, query: &Query) -> u64 {
        let [s0, s1] = self.seed;
        let bounds = query.rect.bounds();
        let mut h = fold(s0 ^ query.agg as u64, s1 ^ bounds.len() as u64);
        for &(lo, hi) in bounds {
            h = fold(h ^ lo.to_bits(), s1 ^ hi.to_bits());
        }
        #[cfg(test)]
        if let Some(n) = self.buckets {
            return !(h % n);
        }
        h
    }

    /// Look `query` up, counting a hit or a miss.
    pub fn get(&self, query: &Query) -> Option<Result<Estimate>> {
        self.get_hashed(self.hash(query), query)
    }

    /// [`get`](Self::get) with a precomputed key.
    pub fn get_keyed(&self, key: &QueryKey) -> Option<Result<Estimate>> {
        self.get(&key.0)
    }

    fn get_hashed(&self, hash: u64, query: &Query) -> Option<Result<Estimate>> {
        if self.capacity == 0 {
            self.count(0, 1);
            return None;
        }
        let found = self.inner.lock().get(hash, query);
        self.count(u64::from(found.is_some()), u64::from(found.is_none()));
        found
    }

    /// Look every query up under **one** lock acquisition.
    fn get_many(&self, queries: &[Query], hashes: &[u64]) -> Vec<Option<Result<Estimate>>> {
        if self.capacity == 0 {
            self.count(0, queries.len() as u64);
            return vec![None; queries.len()];
        }
        let found: Vec<Option<Result<Estimate>>> = {
            let mut inner = self.inner.lock();
            let hashed = queries.iter().zip(hashes);
            hashed.map(|(q, &h)| inner.get(h, q)).collect()
        };
        let hits = found.iter().filter(|f| f.is_some()).count() as u64;
        self.count(hits, queries.len() as u64 - hits);
        found
    }

    /// Count lookups answered (`hits`) and fallen through (`misses`).
    fn count(&self, hits: u64, misses: u64) {
        // relaxed: monotonic effectiveness counters; stats() tolerates a
        // momentarily inconsistent hit/miss pair, no ordering is needed.
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Store the engine's answer for `query`, evicting the entry the
    /// SIEVE hand stops on when full. Does not touch the hit/miss
    /// counters.
    pub fn insert(&self, query: &Query, result: Result<Estimate>) {
        self.insert_keyed(QueryKey::new(query), result);
    }

    /// [`insert`](Self::insert) with a precomputed key.
    pub fn insert_keyed(&self, key: QueryKey, result: Result<Estimate>) {
        let hash = self.hash(&key.0);
        self.insert_many(std::iter::once((hash, key, result)));
    }

    /// Store hashed answers under **one** lock acquisition (eviction
    /// applies as each entry lands).
    fn insert_many(&self, entries: impl IntoIterator<Item = (u64, QueryKey, Result<Estimate>)>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        for (hash, key, result) in entries {
            inner.insert(hash, key, result);
        }
    }

    /// Current effectiveness counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // relaxed: advisory snapshot of monotonic counters.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len: self.inner.lock().entries.len(),
            capacity: self.capacity,
        }
    }

    /// Drop every entry (counters are kept; they are cumulative).
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// The epoch the stored entries belong to.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advance to the next epoch, dropping every entry — the
    /// invalidation hook for code that mutates the synopsis directly
    /// (counters are kept; they are cumulative).
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
        if self.capacity > 0 {
            self.inner.lock().clear();
        }
    }

    /// Adopt the epoch `observed` on the underlying synopsis
    /// ([`Synopsis::update_epoch`]), dropping every entry if it differs
    /// from the entries' epoch. [`CachedSynopsis`] calls this on every
    /// lookup, which is what makes streaming updates cache-coherent
    /// automatically; the unchanged-epoch fast path (every immutable
    /// engine, forever) is a single atomic load — no locking.
    pub fn sync_epoch(&self, observed: u64) {
        if self.capacity == 0 || self.epoch.load(Ordering::Acquire) == observed {
            return;
        }
        // Re-check under the lock so a racing sync clears exactly once.
        let mut inner = self.inner.lock();
        if self.epoch.swap(observed, Ordering::AcqRel) != observed {
            inner.clear();
        }
    }
}

/// A [`Synopsis`] decorator that answers repeated queries from a shared
/// [`QueryCache`] and forwards only cache misses to the inner engine.
///
/// The inner engine stays authoritative: batched misses go through the
/// inner [`estimate_many`](Synopsis::estimate_many) (or the parallel
/// variant), so engine-side batching optimizations still apply to the
/// uncached remainder, and — engines being deterministic — cached and
/// freshly computed answers are bit-identical.
///
/// Group-bys need nothing of their own here: [`crate::estimate_group_by`]
/// over this decorator is a batch of per-category selection queries, so a
/// group row and a plain query over the same rectangle share one entry —
/// the raw estimate is stored and the group availability rule is applied
/// on read.
///
/// [`storage_bytes`](Synopsis::storage_bytes) reports the *inner* synopsis
/// only: the cache is serving-layer working state, not synopsis storage.
#[derive(Debug)]
pub struct CachedSynopsis<S> {
    inner: S,
    cache: Arc<QueryCache>,
}

impl<S: Clone> Clone for CachedSynopsis<S> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            cache: Arc::clone(&self.cache),
        }
    }
}

impl<S: Synopsis> CachedSynopsis<S> {
    /// Wrap `inner` with a fresh cache of at most `capacity` entries.
    pub fn new(inner: S, capacity: usize) -> Self {
        Self::with_cache(inner, Arc::new(QueryCache::new(capacity)))
    }

    /// Wrap `inner` with an existing (possibly shared) cache.
    pub fn with_cache(inner: S, cache: Arc<QueryCache>) -> Self {
        Self { inner, cache }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped engine — the streaming-update path
    /// (`Pass::insert`/`delete` need `&mut`). Updates bump the engine's
    /// [`Synopsis::update_epoch`], which this decorator observes on the
    /// next lookup and drops stale entries automatically, so no manual
    /// cache clearing is needed around mutations.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// The shared cache (hand out clones of the `Arc` to share it).
    pub fn cache(&self) -> &Arc<QueryCache> {
        &self.cache
    }

    /// [`estimate_many`](Synopsis::estimate_many) with the cache misses
    /// sharded across `pool`'s workers: the cache is probed once for the
    /// whole batch, and only the distinct missed queries fan out through
    /// [`estimate_many_parallel`](crate::estimate_many_parallel).
    pub fn estimate_many_parallel(
        &self,
        queries: &[Query],
        pool: &ThreadPool,
    ) -> Vec<Result<Estimate>> {
        self.answer_batch(queries, |missed| {
            crate::estimate_many_parallel(&self.inner, missed, pool)
        })
    }

    /// Answer a batch, filling cache misses via `compute` (which receives
    /// only the **distinct** missed queries, in first-occurrence order —
    /// duplicates within one batch are computed once and fanned out).
    /// The cache is locked once for every lookup and once for every
    /// insert, and each query is hashed once for both and for the dedup.
    fn answer_batch(
        &self,
        queries: &[Query],
        compute: impl FnOnce(&[Query]) -> Vec<Result<Estimate>>,
    ) -> Vec<Result<Estimate>> {
        let cache = &*self.cache;
        cache.sync_epoch(self.inner.update_epoch());
        let hashes: Vec<u64> = queries.iter().map(|q| cache.hash(q)).collect();
        let mut results = cache.get_many(queries, &hashes);
        let misses = results.iter().filter(|r| r.is_none()).count();
        if misses > 0 {
            // Distinct misses by (hash, bits), through a probe table over
            // the miss list: `firsts` holds each one's first batch
            // position, `waiting` every missed position and its distinct
            // miss.
            let mut seen = vec![EMPTY; (2 * misses).next_power_of_two()];
            let mut firsts: Vec<usize> = Vec::with_capacity(misses);
            let mut waiting: Vec<(usize, usize)> = Vec::with_capacity(misses);
            for i in (0..queries.len()).filter(|&i| results[i].is_none()) {
                let (hash, query) = (hashes[i], &queries[i]);
                let found = probe(&seen, hash, |m| {
                    let first = firsts[m as usize];
                    hashes[first] == hash && same_key(&queries[first], query)
                });
                let m = match found {
                    Ok(slot) => seen[slot] as usize,
                    Err(slot) => {
                        seen[slot] = firsts.len() as u32;
                        firsts.push(i);
                        firsts.len() - 1
                    }
                };
                waiting.push((i, m));
            }
            let missed: Vec<Query> = firsts.iter().map(|&i| queries[i].clone()).collect();
            let computed = compute(&missed);
            debug_assert_eq!(computed.len(), missed.len());
            for &(i, m) in &waiting {
                results[i] = computed.get(m).cloned();
            }
            let keyed = firsts.iter().zip(missed).zip(computed);
            cache.insert_many(keyed.map(|((&i, q), r)| (hashes[i], QueryKey(q), r)));
        }
        // Every `None` slot was filled from `computed` above; an
        // unfilled slot would be a logic bug, surfaced as an error
        // rather than a panic in the serving path.
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| Err(PassError::Load("batch slot left uncomputed".to_string())))
            })
            .collect()
    }
}

impl<S: Synopsis> Synopsis for CachedSynopsis<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn estimate(&self, query: &Query) -> Result<Estimate> {
        if self.cache.capacity == 0 {
            // Nothing to look up or store, so nothing is hashed either.
            self.cache.count(0, 1);
            return self.inner.estimate(query);
        }
        self.cache.sync_epoch(self.inner.update_epoch());
        let hash = self.cache.hash(query);
        if let Some(cached) = self.cache.get_hashed(hash, query) {
            return cached;
        }
        let result = self.inner.estimate(query);
        let entry = (hash, QueryKey::new(query), result.clone());
        self.cache.insert_many(std::iter::once(entry));
        result
    }

    fn estimate_many(&self, queries: &[Query]) -> Vec<Result<Estimate>> {
        self.answer_batch(queries, |missed| self.inner.estimate_many(missed))
    }

    fn update_epoch(&self) -> u64 {
        self.inner.update_epoch()
    }

    fn spec(&self) -> EngineSpec {
        self.inner.spec()
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    fn dims(&self) -> usize {
        self.inner.dims()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, VecDeque};

    use super::*;
    use crate::AggKind;

    /// Counts how many queries actually reach the engine.
    struct Counting {
        calls: AtomicU64,
    }

    impl Counting {
        fn new() -> Self {
            Self {
                calls: AtomicU64::new(0),
            }
        }
        fn calls(&self) -> u64 {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl Synopsis for Counting {
        fn name(&self) -> &str {
            "COUNTING"
        }
        fn estimate(&self, q: &Query) -> Result<Estimate> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if q.rect.lo(0) < 0.0 {
                return Err(PassError::EmptyInput("negative"));
            }
            if q.rect.hi(0) == 0.0 {
                // The silent zero a sampling engine answers SUM/COUNT
                // with over a region it holds no sampled row of.
                return Ok(Estimate::approximate(0.0, 0.0));
            }
            Ok(Estimate::exact(q.rect.lo(0) + q.rect.hi(0)))
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn dims(&self) -> usize {
            1
        }
    }

    fn q(lo: f64, hi: f64) -> Query {
        Query::interval(AggKind::Sum, lo, hi)
    }

    #[test]
    fn repeated_queries_hit_without_reaching_the_engine() {
        let cached = CachedSynopsis::new(Counting::new(), 16);
        let a = cached.estimate(&q(0.0, 1.0)).unwrap();
        let b = cached.estimate(&q(0.0, 1.0)).unwrap();
        assert_eq!(a, b);
        assert_eq!(cached.inner().calls(), 1);
        let stats = cached.cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn bitwise_keying_distinguishes_nearby_queries() {
        let cached = CachedSynopsis::new(Counting::new(), 16);
        cached.estimate(&q(0.0, 1.0)).unwrap();
        cached.estimate(&q(0.0, 1.0 + f64::EPSILON)).unwrap();
        assert_eq!(cached.inner().calls(), 2);
        // Same bounds but different aggregate: also distinct.
        cached
            .estimate(&Query::interval(AggKind::Count, 0.0, 1.0))
            .unwrap();
        assert_eq!(cached.inner().calls(), 3);
    }

    #[test]
    fn errors_are_cached_too() {
        let cached = CachedSynopsis::new(Counting::new(), 16);
        assert!(cached.estimate(&q(-1.0, 1.0)).is_err());
        assert!(cached.estimate(&q(-1.0, 1.0)).is_err());
        assert_eq!(cached.inner().calls(), 1);
    }

    #[test]
    fn batch_path_computes_only_misses_in_order() {
        let cached = CachedSynopsis::new(Counting::new(), 16);
        cached.estimate(&q(0.0, 1.0)).unwrap();
        let queries = vec![q(0.0, 1.0), q(2.0, 3.0), q(0.0, 1.0), q(4.0, 5.0)];
        let results = cached.estimate_many(&queries);
        // Only the two unseen queries reached the engine (1 from warmup).
        assert_eq!(cached.inner().calls(), 3);
        let values: Vec<f64> = results.iter().map(|r| r.as_ref().unwrap().value).collect();
        assert_eq!(values, vec![1.0, 5.0, 1.0, 9.0]);
        // A second pass is all hits.
        let before = cached.cache().stats();
        cached.estimate_many(&queries);
        let delta = cached.cache().stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (4, 0));
        assert_eq!(cached.inner().calls(), 3);
    }

    #[test]
    fn duplicate_misses_within_one_batch_are_computed_once() {
        let cached = CachedSynopsis::new(Counting::new(), 16);
        let queries = vec![q(0.0, 1.0), q(2.0, 3.0), q(0.0, 1.0), q(0.0, 1.0)];
        let results = cached.estimate_many(&queries);
        assert_eq!(cached.inner().calls(), 2, "two distinct cold queries");
        let values: Vec<f64> = results.iter().map(|r| r.as_ref().unwrap().value).collect();
        assert_eq!(values, vec![1.0, 5.0, 1.0, 1.0]);
    }

    #[test]
    fn parallel_batch_path_uses_the_cache() {
        let cached = CachedSynopsis::new(Counting::new(), 128);
        let pool = ThreadPool::new(2);
        let queries: Vec<Query> = (0..100).map(|i| q(i as f64, i as f64 + 1.0)).collect();
        let first = cached.estimate_many_parallel(&queries, &pool);
        assert_eq!(cached.inner().calls(), 100);
        let second = cached.estimate_many_parallel(&queries, &pool);
        assert_eq!(cached.inner().calls(), 100, "second pass fully cached");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap().value, b.as_ref().unwrap().value);
        }
    }

    #[test]
    fn capacity_bounds_the_cache_and_a_hit_spares_its_entry() {
        let cached = CachedSynopsis::new(Counting::new(), 2);
        cached.estimate(&q(0.0, 1.0)).unwrap();
        cached.estimate(&q(1.0, 2.0)).unwrap();
        cached.estimate(&q(0.0, 1.0)).unwrap(); // a hit: (0,1) is visited
        cached.estimate(&q(2.0, 3.0)).unwrap(); // spares (0,1), evicts (1,2)
        assert_eq!(cached.cache().stats().len, 2);
        assert_eq!(cached.inner().calls(), 3);
        cached.estimate(&q(0.0, 1.0)).unwrap(); // still cached, visited again
        assert_eq!(cached.inner().calls(), 3, "FIFO would have evicted (0,1)");
        cached.estimate(&q(1.0, 2.0)).unwrap(); // recomputed, evicts (2,3)
        assert_eq!(cached.inner().calls(), 4);
        cached.estimate(&q(0.0, 1.0)).unwrap();
        assert_eq!(cached.inner().calls(), 4, "still cached");
        cached.estimate(&q(2.0, 3.0)).unwrap();
        assert_eq!(cached.inner().calls(), 5, "(2,3) was the unvisited one");
    }

    #[test]
    fn reinserting_the_same_key_does_not_grow_the_order_queue() {
        let cache = QueryCache::new(2);
        for _ in 0..10 {
            cache.insert(&q(0.0, 1.0), Ok(Estimate::exact(1.0)));
        }
        assert_eq!(cache.stats().len, 1);
    }

    #[test]
    fn sieve_eviction_follows_the_hand_exactly() {
        let cache = QueryCache::new(3);
        let key = |i: usize| q(i as f64, i as f64 + 1.0);
        let insert = |i: usize| cache.insert(&key(i), Ok(Estimate::exact(i as f64)));
        let stored = |i: usize| cache.get(&key(i)).is_some();
        (0..3).for_each(insert);
        assert!(stored(1), "queue 0 1* 2");
        // The hand starts at the tail: 0 is unvisited and goes; the hand
        // rests on 1.
        insert(3);
        assert!(!stored(0), "queue 1* 2 3");
        // The hand clears 1 and evicts 2, resting on 3.
        insert(4);
        assert!(!stored(2), "queue 1 3 4");
        assert!(stored(1) && stored(3) && stored(4), "queue 1* 3* 4*");
        // A full lap: 3 and 4 cleared, the hand wraps at the head, clears
        // 1, and evicts 3, the first entry it cleared.
        insert(5);
        assert!(!stored(3), "queue 1 4 5");
        assert!(stored(1) && stored(4) && stored(5));
        // A re-insert replaces the answer in place and is no access.
        cache.insert(&key(1), Ok(Estimate::exact(10.0)));
        assert_eq!(cache.get(&key(1)), Some(Ok(Estimate::exact(10.0))));
        assert_eq!(cache.stats().len, 3);
    }

    #[test]
    fn reinsert_after_eviction_counts_as_a_miss_and_recomputes() {
        let cached = CachedSynopsis::new(Counting::new(), 1);
        cached.estimate(&q(0.0, 1.0)).unwrap();
        cached.estimate(&q(1.0, 2.0)).unwrap(); // evicts (0,1)
        let before = cached.cache().stats();
        cached.estimate(&q(0.0, 1.0)).unwrap(); // must be a miss again
        let delta = cached.cache().stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (0, 1));
        assert_eq!(cached.inner().calls(), 3);
        // ...and the re-inserted entry is servable again.
        cached.estimate(&q(0.0, 1.0)).unwrap();
        assert_eq!(cached.inner().calls(), 3);
    }

    #[test]
    fn zero_capacity_disables_caching_without_panicking() {
        let cached = CachedSynopsis::new(Counting::new(), 0);
        let pool = ThreadPool::new(2);
        let queries: Vec<Query> = (0..4).map(|i| q(i as f64, i as f64 + 1.0)).collect();
        cached.estimate(&queries[0]).unwrap();
        cached.estimate(&queries[0]).unwrap();
        cached.estimate_many(&queries);
        cached.estimate_many_parallel(&queries, &pool);
        // Every lookup missed; every query reached the engine.
        let stats = cached.cache().stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 10);
        assert_eq!(stats.len, 0);
        assert_eq!(stats.capacity, 0);
        assert_eq!(cached.inner().calls(), 10);
        // Direct QueryCache use is equally inert.
        let cache = QueryCache::new(0);
        cache.insert(&q(0.0, 1.0), Ok(Estimate::exact(1.0)));
        assert!(cache.get(&q(0.0, 1.0)).is_none());
        cache.clear();
        cache.bump_epoch();
    }

    #[test]
    fn zero_capacity_estimate_counts_a_miss_stores_nothing_and_answers_as_the_engine() {
        let cached = CachedSynopsis::new(Counting::new(), 0);
        let engine = Counting::new();
        let queries = [q(0.25, 1.5), q(0.25, 1.5), q(0.0, 0.0), q(-1.0, 1.0)];
        for (i, query) in queries.iter().enumerate() {
            let bits = |r: Result<Estimate>| r.map(|e| (e.value.to_bits(), e.ci_half.to_bits()));
            assert_eq!(bits(cached.estimate(query)), bits(engine.estimate(query)));
            let stats = cached.cache().stats();
            assert_eq!((stats.hits, stats.misses, stats.len), (0, i as u64 + 1, 0));
            assert_eq!(cached.inner().calls(), i as u64 + 1);
        }
    }

    #[test]
    fn bumping_the_epoch_invalidates_entries() {
        let cache = QueryCache::new(8);
        assert_eq!(cache.epoch(), 0);
        cache.insert(&q(0.0, 1.0), Ok(Estimate::exact(1.0)));
        cache.bump_epoch();
        assert_eq!(cache.epoch(), 1);
        assert!(cache.get(&q(0.0, 1.0)).is_none());
        // sync_epoch adopts the observed epoch and clears on change only.
        cache.insert(&q(0.0, 1.0), Ok(Estimate::exact(1.0)));
        cache.sync_epoch(1);
        assert!(cache.get(&q(0.0, 1.0)).is_some(), "same epoch: kept");
        cache.sync_epoch(5);
        assert!(cache.get(&q(0.0, 1.0)).is_none(), "new epoch: dropped");
        assert_eq!(cache.epoch(), 5);
    }

    #[test]
    fn cached_synopsis_tracks_a_mutating_engine_automatically() {
        /// An engine whose answers depend on a mutation counter.
        struct Mutable {
            state: u64,
        }
        impl Synopsis for Mutable {
            fn name(&self) -> &str {
                "MUTABLE"
            }
            fn estimate(&self, _q: &Query) -> Result<Estimate> {
                Ok(Estimate::exact(self.state as f64))
            }
            fn update_epoch(&self) -> u64 {
                self.state
            }
            fn storage_bytes(&self) -> usize {
                0
            }
            fn dims(&self) -> usize {
                1
            }
        }
        let mut cached = CachedSynopsis::new(Mutable { state: 0 }, 16);
        assert_eq!(cached.estimate(&q(0.0, 1.0)).unwrap().value, 0.0);
        assert_eq!(cached.estimate(&q(0.0, 1.0)).unwrap().value, 0.0);
        assert_eq!(cached.cache().stats().hits, 1);
        // Mutate the engine through the decorator: the stale answer must
        // NOT be served afterwards, with no manual clear.
        cached.inner_mut().state = 3;
        assert_eq!(cached.estimate(&q(0.0, 1.0)).unwrap().value, 3.0);
        assert_eq!(cached.cache().epoch(), 3);
        // The fresh answer is cached under the new epoch.
        assert_eq!(cached.estimate(&q(0.0, 1.0)).unwrap().value, 3.0);
        assert_eq!(cached.cache().stats().hits, 2);
    }

    #[test]
    fn group_by_rows_cache_per_category_without_poisoning_plain_keys() {
        use crate::estimate_group_by;
        use crate::query::GroupByQuery;
        // Category 0 is the engine's silent zero, category 2 a real answer.
        let gq = GroupByQuery::over(AggKind::Sum, 0, &[0.0, 2.0], 1);
        let silent = gq.query_for(0.0).unwrap();
        for group_first in [true, false] {
            let cached = CachedSynopsis::new(Counting::new(), 16);
            let (rows, plain) = if group_first {
                let rows = estimate_group_by(&cached, &gq).unwrap();
                (rows, cached.estimate(&silent))
            } else {
                let plain = cached.estimate(&silent);
                (estimate_group_by(&cached, &gq).unwrap(), plain)
            };
            // One entry per rectangle, shared by both result kinds: the
            // second lookup of category 0 is a hit, not an engine call.
            assert_eq!(cached.inner().calls(), 2, "group_first {group_first}");
            let stats = cached.cache().stats();
            assert_eq!((stats.hits, stats.misses, stats.len), (1, 2, 2));
            // The raw estimate is what is stored; the availability rule
            // is applied to group rows on read, never to plain lookups.
            assert_eq!(plain, Ok(Estimate::approximate(0.0, 0.0)));
            assert!(matches!(rows[0].estimate, Err(PassError::EmptyInput(_))));
            assert_eq!(rows[1].estimate, Ok(Estimate::exact(4.0)));
            assert_eq!(estimate_group_by(&cached, &gq).unwrap(), rows);
            assert_eq!(cached.inner().calls(), 2, "second pass fully cached");
        }
        // Overlapping categories compute only the unseen one; duplicates
        // within one query compute once.
        let cached = CachedSynopsis::new(Counting::new(), 16);
        estimate_group_by(&cached, &gq).unwrap();
        let wider = GroupByQuery::over(AggKind::Sum, 0, &[0.0, 3.0, 2.0, 3.0], 1);
        let rows = estimate_group_by(&cached, &wider).unwrap();
        assert_eq!(cached.inner().calls(), 3);
        assert_eq!(rows[1], rows[3]);
        // Malformed queries are rejected even when every row is cached.
        let bad = GroupByQuery::over(AggKind::Sum, 7, &[0.0], 1);
        assert!(estimate_group_by(&cached, &bad).is_err());
        assert_eq!(cached.inner().calls(), 3);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = QueryCache::new(4);
        cache.insert(&q(0.0, 1.0), Ok(Estimate::exact(1.0)));
        assert!(cache.get(&q(0.0, 1.0)).is_some());
        cache.clear();
        assert!(cache.get(&q(0.0, 1.0)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 0));
    }

    /// SIEVE without the entry table, its index or its links: a `HashMap`
    /// of answers and visited bits beside a `VecDeque` of keys, oldest
    /// first, with the hand as a position in it; and a batch path that
    /// dedups misses through a `HashMap` of per-miss slot lists. The
    /// differential test holds [`QueryCache`] and [`CachedSynopsis`] to
    /// it.
    struct Reference {
        capacity: usize,
        map: HashMap<QueryKey, (Result<Estimate>, bool)>,
        order: VecDeque<QueryKey>,
        hand: Option<usize>,
        epoch: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Reference {
        fn new(capacity: usize) -> Self {
            Self {
                capacity,
                map: HashMap::new(),
                order: VecDeque::new(),
                hand: None,
                epoch: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn get(&mut self, key: &QueryKey) -> Option<Result<Estimate>> {
            let Some((result, visited)) = self.map.get_mut(key) else {
                self.misses += 1;
                return None;
            };
            *visited = true;
            self.hits += 1;
            Some(result.clone())
        }

        fn insert(&mut self, key: QueryKey, result: Result<Estimate>) {
            if self.capacity == 0 {
                return;
            }
            if let Some(stored) = self.map.get_mut(&key) {
                stored.0 = result;
                return;
            }
            if self.order.len() == self.capacity {
                self.evict();
            }
            self.map.insert(key.clone(), (result, false));
            self.order.push_back(key);
        }

        /// From the hand (or the oldest key), clear visited bits up to
        /// the first unvisited key, wrapping past the newest; remove it.
        /// Its newer neighbour slides into its position, where the hand
        /// rests.
        fn evict(&mut self) {
            let mut i = self.hand.unwrap_or(0);
            loop {
                let visited = &mut self.map.get_mut(&self.order[i]).unwrap().1;
                if !*visited {
                    break;
                }
                *visited = false;
                i = (i + 1) % self.order.len();
            }
            let victim = self.order.remove(i).unwrap();
            self.map.remove(&victim);
            self.hand = (i < self.order.len()).then_some(i);
            self.evictions += 1;
        }

        fn clear(&mut self) {
            self.map.clear();
            self.order.clear();
            self.hand = None;
        }

        fn bump_epoch(&mut self) {
            self.epoch += 1;
            self.clear();
        }

        fn sync_epoch(&mut self, observed: u64) {
            if self.capacity > 0 && self.epoch != observed {
                self.epoch = observed;
                self.clear();
            }
        }

        fn estimate(&mut self, engine: &Counting, query: &Query) -> Result<Estimate> {
            self.sync_epoch(engine.update_epoch());
            let key = QueryKey::new(query);
            if let Some(cached) = self.get(&key) {
                return cached;
            }
            let result = engine.estimate(query);
            self.insert(key, result.clone());
            result
        }

        fn estimate_many(&mut self, engine: &Counting, queries: &[Query]) -> Vec<Result<Estimate>> {
            self.sync_epoch(engine.update_epoch());
            let keys: Vec<QueryKey> = queries.iter().map(QueryKey::new).collect();
            let mut results: Vec<_> = keys.iter().map(|k| self.get(k)).collect();
            let mut miss_of: HashMap<QueryKey, usize> = HashMap::new();
            let mut missed: Vec<Query> = Vec::new();
            let mut slots: Vec<Vec<usize>> = Vec::new();
            for i in (0..queries.len()).filter(|&i| results[i].is_none()) {
                let m = *miss_of.entry(keys[i].clone()).or_insert_with(|| {
                    missed.push(queries[i].clone());
                    slots.push(Vec::new());
                    missed.len() - 1
                });
                slots[m].push(i);
            }
            let computed = engine.estimate_many(&missed);
            for (waiting, result) in slots.iter().zip(&computed) {
                self.insert(keys[waiting[0]].clone(), result.clone());
            }
            for (waiting, result) in slots.iter().zip(computed) {
                for &i in waiting {
                    results[i] = Some(result.clone());
                }
            }
            results.into_iter().map(Option::unwrap).collect()
        }
    }

    /// SplitMix64: the op sequence's seeded source.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` distinct queries: other aggregates over the same bounds, `0.0`
    /// beside `-0.0`, 1-, 2- and (spilled) 4-D rectangles, and queries
    /// the engine answers with an error or a silent zero.
    fn query_pool(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                let x = (i / 7) as f64;
                match i % 7 {
                    0 => Query::interval(AggKind::Sum, x, x + 1.0),
                    1 => Query::interval(AggKind::Count, x, x + 1.0),
                    2 => Query::interval(AggKind::Sum, -x - 1.0, x),
                    3 => Query::interval(AggKind::Sum, -0.0, x),
                    4 => Query::interval(AggKind::Sum, 0.0, x),
                    5 => Query::new(AggKind::Avg, crate::Rect::new(&[(x, x + 1.0), (0.0, x)])),
                    _ => Query::new(AggKind::Max, crate::Rect::new(&[(x, x + 2.0); 4])),
                }
            })
            .collect()
    }

    /// Drive `cache` (behind a [`CachedSynopsis`] over a counting engine)
    /// and the [`Reference`] through the same seeded sequence of `get`,
    /// `insert`, re-`insert`, `estimate`, `estimate_many` (with in-batch
    /// duplicates and cached errors), `clear`, `bump_epoch` and
    /// `sync_epoch`, comparing answers, counters, occupancy, epoch and
    /// engine calls after every one. Returns the reference's evictions.
    fn differential(cache: QueryCache, seed: u64, ops: usize) -> u64 {
        let capacity = cache.stats().capacity;
        let cached = CachedSynopsis::with_cache(Counting::new(), Arc::new(cache));
        let (engine, mut model) = (Counting::new(), Reference::new(capacity));
        let pool = query_pool(2 * capacity + 5);
        let mut rng = seed;
        let mut last = pool[0].clone();
        for step in 0..ops {
            let r = splitmix(&mut rng);
            let pick = |r: u64| &pool[(r % pool.len() as u64) as usize];
            let what = match r % 1_000 {
                0 => {
                    cached.cache().clear();
                    model.clear();
                    "clear"
                }
                1 => {
                    cached.cache().bump_epoch();
                    model.bump_epoch();
                    "bump_epoch"
                }
                2 => {
                    let observed = (r >> 32) % 3;
                    cached.cache().sync_epoch(observed);
                    model.sync_epoch(observed);
                    "sync_epoch"
                }
                3..=249 => {
                    let q = pick(r >> 16);
                    let got = cached.cache().get(q);
                    assert_eq!(got, model.get(&QueryKey::new(q)), "step {step}: get {q:?}");
                    "get"
                }
                250..=399 => {
                    // A fresh pick, or the last inserted key again.
                    let q = if r & 1 == 0 {
                        pick(r >> 16).clone()
                    } else {
                        last.clone()
                    };
                    let result = if r & 2 == 0 {
                        Ok(Estimate::exact(step as f64))
                    } else {
                        Err(PassError::EmptyInput("inserted"))
                    };
                    cached.cache().insert(&q, result.clone());
                    model.insert(QueryKey::new(&q), result);
                    last = q;
                    "insert"
                }
                400..=649 => {
                    let q = pick(r >> 16);
                    let got = cached.estimate(q);
                    assert_eq!(
                        got,
                        model.estimate(&engine, q),
                        "step {step}: estimate {q:?}"
                    );
                    "estimate"
                }
                _ => {
                    // A narrow window of the pool, so batches repeat keys.
                    let len = 1 + (r >> 8) as usize % 12;
                    let start = (r >> 16) as usize % pool.len();
                    let batch: Vec<Query> = (0..len)
                        .map(|j| {
                            let offset = (splitmix(&mut rng) % (len as u64 / 2 + 1)) as usize;
                            pool[(start + offset + j % 2) % pool.len()].clone()
                        })
                        .collect();
                    let got = cached.estimate_many(&batch);
                    assert_eq!(got, model.estimate_many(&engine, &batch), "step {step}");
                    "estimate_many"
                }
            };
            let stats = cached.cache().stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.len, cached.cache().epoch()),
                (model.hits, model.misses, model.map.len(), model.epoch),
                "step {step}: after {what}"
            );
            assert_eq!(cached.inner().calls(), engine.calls(), "step {step}");
        }
        model.evictions
    }

    #[test]
    fn the_sieve_queue_and_index_match_the_reference_model() {
        for capacity in [0, 1, 2, 3, 5, 64] {
            for seed in 0..4 {
                let evictions = differential(QueryCache::new(capacity), seed, 20_000);
                assert!(
                    capacity == 0 || evictions >= 10 * capacity as u64,
                    "capacity {capacity}: {evictions} evictions do not lap the queue"
                );
            }
        }
    }

    /// A cache whose hash sends every key to one of `buckets` home slots
    /// at the end of the table.
    fn with_buckets(capacity: usize, buckets: u64) -> QueryCache {
        QueryCache {
            buckets: Some(buckets),
            ..QueryCache::new(capacity)
        }
    }

    #[test]
    fn colliding_hashes_wrap_past_the_table_end_and_still_match() {
        for capacity in [1, 2, 3, 5, 64] {
            for (seed, buckets) in [(10, 1), (11, 2), (12, 3)] {
                let cache = with_buckets(capacity, buckets);
                let evictions = differential(cache, seed, 20_000);
                assert!(evictions >= 10 * capacity as u64, "capacity {capacity}");
            }
        }
        // Every home slot is one of the last `buckets` of the table.
        let cache = with_buckets(64, 3);
        for q in query_pool(40) {
            cache.insert(&q, Ok(Estimate::exact(1.0)));
        }
        let inner = cache.inner.lock();
        let mask = inner.slots.len() - 1;
        assert!(inner
            .entries
            .iter()
            .all(|e| e.hash as usize & mask >= mask - 2));
        assert_eq!(
            inner.slots[0..20].iter().filter(|&&s| s != EMPTY).count(),
            20
        );
    }

    #[test]
    fn the_index_stays_within_twice_the_capacity() {
        for capacity in [1, 3, 5, 64] {
            let cache = QueryCache::new(capacity);
            assert_eq!(
                cache.inner.lock().slots.len(),
                0,
                "an idle cache holds no table"
            );
            for q in query_pool(4 * capacity) {
                cache.insert(&q, Ok(Estimate::exact(1.0)));
            }
            let slots = cache.inner.lock().slots.len();
            assert_eq!(
                slots,
                (2 * capacity).next_power_of_two(),
                "capacity {capacity}"
            );
            cache.bump_epoch();
            assert_eq!(
                cache.inner.lock().slots.len(),
                slots,
                "clearing keeps the table"
            );
        }
    }

    #[test]
    fn an_entry_costs_at_most_eight_bytes_beyond_its_hash_key_and_answer() {
        let contents = std::mem::size_of::<(u64, QueryKey, Result<Estimate>)>();
        assert!(std::mem::size_of::<Entry>() <= contents + 8);
    }

    #[test]
    fn stats_report_the_capacity_the_cache_enforces() {
        assert_eq!(QueryCache::new(5).stats().capacity, 5);
        assert_eq!(QueryCache::new(usize::MAX).stats().capacity, MAX_ENTRIES);
        assert_eq!(
            QueryCache::new(MAX_ENTRIES + 1).stats().capacity,
            MAX_ENTRIES
        );
    }

    #[test]
    fn since_gives_zero_deltas_for_snapshots_in_the_wrong_order() {
        let cache = QueryCache::new(4);
        let before = cache.stats();
        cache.insert(&q(0.0, 1.0), Ok(Estimate::exact(1.0)));
        cache.get(&q(0.0, 1.0));
        cache.get(&q(1.0, 2.0));
        let after = cache.stats();
        let delta = before.since(&after);
        assert_eq!((delta.hits, delta.misses), (0, 0));
        let delta = after.since(&before);
        assert_eq!((delta.hits, delta.misses, delta.len), (1, 1, 1));
    }

    /// `len` Zipf(1) ranks over `n` keys: rank `r` (0-based) is drawn with
    /// weight `1 / (r + 1)`, by inverting the cumulative weights.
    fn zipf_ranks(n: usize, len: usize, seed: u64) -> Vec<usize> {
        let cumulative: Vec<f64> = (1..=n)
            .scan(0.0, |total, rank| {
                *total += 1.0 / rank as f64;
                Some(*total)
            })
            .collect();
        let total = cumulative[n - 1];
        let mut rng = seed;
        (0..len)
            .map(|_| {
                let u = (splitmix(&mut rng) >> 11) as f64 / (1_u64 << 53) as f64 * total;
                cumulative.partition_point(|&c| c <= u).min(n - 1)
            })
            .collect()
    }

    /// FIFO, the policy SIEVE replaced: the hit rate of `trace` after its
    /// first `warm` lookups, each miss inserted.
    fn fifo_hit_rate(trace: &[usize], capacity: usize, warm: usize) -> f64 {
        let mut stored = std::collections::HashSet::new();
        let mut order = VecDeque::new();
        let mut hits = 0;
        for (i, &key) in trace.iter().enumerate() {
            if stored.contains(&key) {
                hits += usize::from(i >= warm);
                continue;
            }
            if order.len() == capacity {
                stored.remove(&order.pop_front().unwrap());
            }
            stored.insert(key);
            order.push_back(key);
        }
        hits as f64 / (trace.len() - warm) as f64
    }

    /// Dashboard traffic: Zipf(1) over 16 384 distinct queries into a
    /// 4 096-entry cache. The top 4 096 keys draw H(4096)/H(16384) ≈ 0.865
    /// of lookups, the most any policy can hit; SIEVE comes within about
    /// a point of it, FIFO about 9 points further down. SIEVE settles
    /// slowly (0.829 over lookups 20 000–100 000 of this trace, 0.853
    /// over 2–4 million), so the rate is read over the second half.
    #[test]
    fn sieve_holds_a_zipf_hit_rate_floor_and_beats_fifo() {
        let (keys, capacity) = (16_384, 4_096);
        let lookups = if cfg!(debug_assertions) {
            400_000
        } else {
            4_000_000
        };
        let warm = lookups / 2;
        let trace = zipf_ranks(keys, lookups, 7);
        let queries: Vec<Query> = (0..keys).map(|i| q(i as f64, i as f64 + 1.0)).collect();
        let cache = QueryCache::new(capacity);
        let mut warmed = cache.stats();
        for (i, &rank) in trace.iter().enumerate() {
            if i == warm {
                warmed = cache.stats();
            }
            if cache.get(&queries[rank]).is_none() {
                cache.insert(&queries[rank], Ok(Estimate::exact(rank as f64)));
            }
        }
        let since = cache.stats().since(&warmed);
        let sieve = since.hits as f64 / (since.hits + since.misses) as f64;
        let fifo = fifo_hit_rate(&trace, capacity, warm);
        assert!(sieve >= 0.84, "SIEVE hit rate {sieve:.4}");
        assert!(
            sieve - fifo >= 0.06,
            "SIEVE {sieve:.4} against FIFO {fifo:.4}"
        );
    }
}
