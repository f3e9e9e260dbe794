//! The memoized counter-graph cache.
//!
//! Materializing an abstract structure is the expensive step of every
//! verification — everything after it is graph traversal. The cache maps
//! `(template, spec, n, width)` to the materialized graph bundle
//! ([`CounterGraph`] / [`RepGraph`]: the Kripke structure *plus* its
//! compiled fairness conditions, which are a per-state artifact of the
//! same exploration) behind an [`Arc`], so concurrent jobs over the same
//! family share one copy and repeated queries are near-free. Counter
//! graphs carry width 0; representative structures carry their number of
//! tracked copies, so a depth-1 and a depth-2 structure of the same
//! family never collide. Fairness declarations are part of the workload
//! encoding, so a fair template and its unconstrained twin never share
//! an entry either.
//!
//! Identity is the workload's **canonical encoding**
//! ([`icstar_sym::workload_bytes`]): an entry is keyed by the exact
//! bytes plus `n` and `width`, and the encoding is injective, so two
//! workloads share an entry only when they are equal. A digest of the
//! bytes, computed once per workload, only picks the shard and the
//! hash-table slot; a digest collision costs a byte comparison, never a
//! wrong structure. (A
//! verification service must not return confidently wrong verdicts
//! because two workloads happened to share a hash.)
//!
//! Growth is **bounded, by weight**: an optional budget caps the total
//! abstract-state count across materialized entries
//! ([`GraphCache::with_budget`]). When an insertion pushes the cache
//! over budget, least-recently-used entries are evicted until it fits.
//! The structure just built is exempt from its *own* builder's
//! enforcement pass (evicting it immediately would thrash the hot
//! entry); a concurrent insertion elsewhere may still pick it as the
//! LRU victim, which costs a rebuild later but never a wrong answer —
//! outstanding [`Arc`] handles keep an evicted structure alive until
//! their holders drop it; eviction only forgets the cache's copy.
//! Weight is states, not entries — one `n = 10⁶` counter graph
//! outweighs thousands of small ones, which is exactly how the memory
//! footprint behaves. Recency is stamped by a global logical clock on
//! every hit, and the precise LRU scan runs under the shard locks one
//! shard at a time — approximate under concurrency, exact when
//! quiescent — gated behind a lock-free resident-weight estimate so
//! requests far under budget pay one atomic load, not a scan.
//!
//! Concurrency is two-layered:
//!
//! * the key space is split across `shards` independent
//!   [`Mutex`]-protected maps (hash-picked), so unrelated lookups never
//!   contend;
//! * each entry holds an [`OnceLock`] slot inserted *before* building.
//!   The map lock is held only for the lookup; the build itself runs
//!   outside it. A second worker requesting a structure mid-build finds
//!   the slot and blocks on the `OnceLock` until the first build lands —
//!   every structure is built **exactly once**, and builds of different
//!   structures proceed in parallel.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use icstar_sym::{workload_bytes, CounterGraph, CountingSpec, GuardedTemplate, RepGraph, SymError};
use icstar_telemetry::{Counter, Registry};

use crate::spill::SpillStore;

/// A workload's identity: its canonical bytes
/// ([`icstar_sym::workload_bytes`]), shared, and a digest of them.
/// Equality compares the bytes; the digest, computed once, is only the
/// hash. Cheap to clone, so a job encodes its workload once and keys
/// every lookup on it.
#[derive(Clone, Debug)]
pub(crate) struct Workload {
    bytes: Arc<[u8]>,
    digest: u64,
}

impl Workload {
    pub(crate) fn of(template: &GuardedTemplate, spec: &CountingSpec) -> Self {
        let bytes: Arc<[u8]> = workload_bytes(template, spec).into();
        let mut h = DefaultHasher::new();
        bytes.hash(&mut h);
        Workload {
            digest: h.finish(),
            bytes,
        }
    }
}

impl PartialEq for Workload {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Workload {}

impl Hash for Workload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// A structure's key: the workload, the family size, and the
/// representative width (0 = the counter graph).
type Key = (Workload, u32, u32);

/// A build-once slot: filled exactly once, then shared.
type Slot<T> = Arc<OnceLock<Result<Arc<T>, SymError>>>;

/// One entry: its slot, and when it was last returned (logical clock;
/// drives LRU eviction).
struct Entry<T> {
    slot: Slot<T>,
    last_used: u64,
}

/// One sharded key→entry map.
struct Memo<T> {
    shards: Vec<Mutex<HashMap<Key, Entry<T>>>>,
}

fn shard_index(key: &Key, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

impl<T> Memo<T> {
    fn new(shards: usize) -> Self {
        Memo {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// The slot for `key`, and whether this call created it. Stamps the
    /// entry's recency with `now`.
    fn slot(&self, key: &Key, now: u64) -> (Slot<T>, bool) {
        let shard = shard_index(key, self.shards.len());
        let mut map = self.shards[shard].lock().expect("cache shard poisoned");
        if let Some(entry) = map.get_mut(key) {
            entry.last_used = now;
            return (Arc::clone(&entry.slot), false);
        }
        let slot: Slot<T> = Arc::new(OnceLock::new());
        map.insert(
            key.clone(),
            Entry {
                slot: Arc::clone(&slot),
                last_used: now,
            },
        );
        (slot, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn get_or_build(
        &self,
        key: &Key,
        now: u64,
        hits: &Counter,
        misses: &Counter,
        resident: &AtomicI64,
        pinned: &AtomicBool,
        size: impl Fn(&T) -> usize,
        build: impl FnOnce() -> Result<T, SymError>,
    ) -> Result<Arc<T>, SymError> {
        let (slot, created) = self.slot(key, now);
        if created {
            misses.inc();
        } else {
            // Either already materialized or being materialized by a peer
            // right now — both share the work, both are hits.
            hits.inc();
        }
        let out = slot.get_or_init(|| build().map(Arc::new)).clone();
        if created {
            // Exactly one accounting add per entry: the inserter's (the
            // slot may have been *filled* by a peer, but only one caller
            // saw created == true). Estimate only — the eviction loop
            // re-reads the precise total under the locks.
            if let Ok(t) = &out {
                resident.fetch_add(size(t) as i64, Ordering::Relaxed);
            }
            // The entry set changed: a pinned over-budget verdict may
            // have new victims now.
            pinned.store(false, Ordering::Relaxed);
        }
        out
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Sums `size` over every *materialized* entry (slots still building,
    /// or filled with a build error, count zero).
    fn total_size(&self, size: impl Fn(&T) -> usize) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .values()
                    .filter_map(|e| e.slot.get())
                    .filter_map(|r| r.as_ref().ok())
                    .map(|t| size(t) as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// The least-recently-used *materialized* entry other than `keep`:
    /// its stamp, key, and weight. In-flight and errored slots are never
    /// candidates (they weigh nothing, and evicting an in-flight build
    /// would lose the build-once guarantee).
    fn lru_candidate(&self, keep: &Key, size: &impl Fn(&T) -> usize) -> Option<(u64, Key, u64)> {
        let mut best: Option<(u64, Key, u64)> = None;
        for shard in &self.shards {
            let map = shard.lock().expect("cache shard poisoned");
            for (key, entry) in map.iter() {
                if key == keep {
                    continue;
                }
                let Some(Ok(t)) = entry.slot.get() else {
                    continue;
                };
                if best
                    .as_ref()
                    .is_none_or(|(stamp, ..)| entry.last_used < *stamp)
                {
                    best = Some((entry.last_used, key.clone(), size(t) as u64));
                }
            }
        }
        best
    }

    /// Removes the materialized entry under `key` if it is still stamped
    /// `stamp`, returning its weight. `None` if a racing lookup
    /// re-stamped or a racing eviction already removed it.
    fn remove_stamped(&self, key: &Key, stamp: u64, size: &impl Fn(&T) -> usize) -> Option<u64> {
        let shard = shard_index(key, self.shards.len());
        let mut map = self.shards[shard].lock().expect("cache shard poisoned");
        let entry = map.get(key)?;
        let Some(Ok(t)) = entry.slot.get() else {
            return None;
        };
        if entry.last_used != stamp {
            return None;
        }
        let weight = size(t) as u64;
        map.remove(key);
        Some(weight)
    }
}

/// A bundle's eviction weight: abstract states of its Kripke structure
/// (the fairness conditions are per-state bit sets, proportional to it).
fn counter_weight(g: &CounterGraph) -> usize {
    g.kripke.num_states()
}

/// See [`counter_weight`].
fn rep_weight(g: &RepGraph) -> usize {
    g.kripke.kripke().num_states()
}

/// The service-wide structure cache: counter graphs and representative
/// structures, identified by workload (template + spec + size + width),
/// optionally bounded by an abstract-state budget with LRU eviction.
pub struct GraphCache {
    counter: Memo<CounterGraph>,
    rep: Memo<RepGraph>,
    hits: Counter,
    misses: Counter,
    /// Maximum total abstract states across materialized entries;
    /// `u64::MAX` means unbounded.
    budget_states: u64,
    /// Logical clock stamping entry recency.
    clock: AtomicU64,
    /// Lock-free estimate of the resident materialized weight (abstract
    /// states): incremented once per materialized entry, decremented on
    /// eviction. May drift transiently negative under races (an entry
    /// evicted before its inserter's add lands), which is why the
    /// eviction loop re-reads the precise total under the shard locks —
    /// the estimate only gates whether that scan runs at all.
    resident: AtomicI64,
    /// Set when an enforcement pass found the cache over budget with
    /// nothing evictable (a single oversized resident entry): further
    /// accesses skip the precise scan entirely until the entry set
    /// changes (the next materialization clears it). Best-effort — a
    /// racing set/clear costs at most a deferred scan, never a wrong
    /// answer.
    over_budget_pinned: AtomicBool,
    evictions: Counter,
    evicted_states: Counter,
    /// Optional disk persistence: probed before building on a memory
    /// miss, written after every successful build. `None` (the default)
    /// keeps the cache purely in-memory.
    store: Option<SpillStore>,
}

impl GraphCache {
    /// An unbounded cache with `shards` independent lock domains
    /// (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        Self::with_budget(shards, u64::MAX)
    }

    /// A cache evicting least-recently-used structures once the total
    /// abstract-state count of materialized entries exceeds
    /// `budget_states` (a budget of 0 caches nothing durably: every
    /// insertion immediately becomes evictable). Pass `u64::MAX` for
    /// unbounded.
    pub fn with_budget(shards: usize, budget_states: u64) -> Self {
        Self::with_store(shards, budget_states, None)
    }

    /// A budgeted cache backed by an optional [`SpillStore`]: memory
    /// misses probe the store before building (a verified restore skips
    /// the exploration entirely — this is how restarts and replicas
    /// warm-start), and every successful build is spilled back. Memory
    /// hit/miss accounting is unchanged: a disk restore still counts as
    /// a cache miss, with the `serve.cache.restores` counter recording
    /// that the rebuild was answered from disk. Spilled files survive
    /// LRU eviction, so an evicted structure's next request restores
    /// instead of re-exploring.
    pub fn with_store(shards: usize, budget_states: u64, store: Option<SpillStore>) -> Self {
        GraphCache {
            counter: Memo::new(shards),
            rep: Memo::new(shards),
            hits: Counter::detached(),
            misses: Counter::detached(),
            budget_states,
            clock: AtomicU64::new(0),
            resident: AtomicI64::new(0),
            over_budget_pinned: AtomicBool::new(false),
            evictions: Counter::detached(),
            evicted_states: Counter::detached(),
            store,
        }
    }

    /// Publishes the cache's counters into `registry` under the
    /// `serve.cache.*` names — the same handles the cache updates, so
    /// the registry view and the [`GraphCache::hits`]-style accessors
    /// can never disagree. [`VerifyService`](crate::VerifyService) calls
    /// this on its own cache at start.
    pub fn publish_metrics(&self, registry: &Registry) {
        registry.adopt_counter("serve.cache.hits", &self.hits);
        registry.adopt_counter("serve.cache.misses", &self.misses);
        registry.adopt_counter("serve.cache.evictions", &self.evictions);
        registry.adopt_counter("serve.cache.evicted_states", &self.evicted_states);
        if let Some(store) = &self.store {
            let (spills, restores, rejects) = store.counters();
            registry.adopt_counter("serve.cache.spills", spills);
            registry.adopt_counter("serve.cache.restores", restores);
            registry.adopt_counter("serve.cache.restore_rejects", rejects);
            registry
                .gauge("serve.cache.spill_files_warm")
                .set(store.warm_files().min(i64::MAX as u64) as i64);
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The counter graph bundle (structure + compiled fairness) of
    /// `template`/`spec` at size `n`, building it with `build` on the
    /// first request and sharing the result afterwards. With a
    /// [`SpillStore`] attached, a memory miss probes the disk first (a
    /// verified restore skips `build`) and a fresh build is spilled back.
    pub fn counter(
        &self,
        template: &GuardedTemplate,
        spec: &CountingSpec,
        n: u32,
        build: impl FnOnce() -> CounterGraph,
    ) -> Arc<CounterGraph> {
        self.counter_for(&Workload::of(template, spec), template, spec, n, build)
    }

    /// [`GraphCache::counter`] for a caller that already encoded the
    /// workload (`workload` must be `Workload::of(template, spec)`).
    pub(crate) fn counter_for(
        &self,
        workload: &Workload,
        template: &GuardedTemplate,
        spec: &CountingSpec,
        n: u32,
        build: impl FnOnce() -> CounterGraph,
    ) -> Arc<CounterGraph> {
        let key = (workload.clone(), n, 0);
        let out = self
            .counter
            .get_or_build(
                &key,
                self.tick(),
                &self.hits,
                &self.misses,
                &self.resident,
                &self.over_budget_pinned,
                counter_weight,
                || {
                    if let Some(store) = &self.store {
                        if let Some(g) = store.restore_counter(template, spec, n) {
                            return Ok(g);
                        }
                        let g = build();
                        store.spill_counter(template, spec, n, &g);
                        return Ok(g);
                    }
                    Ok(build())
                },
            )
            .expect("counter builds are infallible");
        self.enforce_budget(&key);
        out
    }

    /// The width-`width` representative graph bundle (structure +
    /// compiled fairness) of `template`/`spec` at size `n`; build
    /// failures (e.g. [`SymError::EmptyFamily`]) are cached and replayed
    /// like successes.
    ///
    /// The key carries `width` verbatim — a nonsensical width-0 request
    /// caches its own error under its own key and can never poison the
    /// width-1 entry (representative and counter structures live in
    /// separate maps, so width 0 cannot collide with a counter graph
    /// either).
    ///
    /// # Errors
    ///
    /// Whatever `build` returned when the slot was first filled.
    pub fn representative(
        &self,
        template: &GuardedTemplate,
        spec: &CountingSpec,
        n: u32,
        width: u32,
        build: impl FnOnce() -> Result<RepGraph, SymError>,
    ) -> Result<Arc<RepGraph>, SymError> {
        let workload = Workload::of(template, spec);
        self.representative_for(&workload, template, spec, n, width, build)
    }

    /// [`GraphCache::representative`] for a caller that already encoded
    /// the workload (`workload` must be `Workload::of(template, spec)`).
    pub(crate) fn representative_for(
        &self,
        workload: &Workload,
        template: &GuardedTemplate,
        spec: &CountingSpec,
        n: u32,
        width: u32,
        build: impl FnOnce() -> Result<RepGraph, SymError>,
    ) -> Result<Arc<RepGraph>, SymError> {
        let key = (workload.clone(), n, width);
        let out = self.rep.get_or_build(
            &key,
            self.tick(),
            &self.hits,
            &self.misses,
            &self.resident,
            &self.over_budget_pinned,
            rep_weight,
            || {
                if let Some(store) = &self.store {
                    if let Some(g) = store.restore_rep(template, spec, n, width) {
                        return Ok(g);
                    }
                    let g = build()?;
                    store.spill_rep(template, spec, n, width, &g);
                    return Ok(g);
                }
                build()
            },
        );
        self.enforce_budget(&key);
        out
    }

    /// Evicts LRU entries until the materialized weight fits the budget.
    /// The enforcement pass never evicts `just_used` — the entry *this
    /// caller* just built or fetched (evicting it would thrash the hot
    /// structure); a concurrent caller's pass exempts its own entry
    /// instead, so under contention a just-built structure can still be
    /// chosen as someone else's LRU victim (costing a later rebuild,
    /// never a wrong answer — the holder's `Arc` stays valid).
    fn enforce_budget(&self, just_used: &Key) {
        if self.budget_states == u64::MAX {
            return;
        }
        // Cheap gates: far under budget (the common case), or pinned
        // over budget by a single unevictable entry — either way one
        // atomic load decides and no shard is locked, no entry scanned.
        if self.resident.load(Ordering::Relaxed).max(0) as u64 <= self.budget_states {
            return;
        }
        if self.over_budget_pinned.load(Ordering::Relaxed) {
            return;
        }
        while self.abstract_states() > self.budget_states {
            let counter_victim = self.counter.lru_candidate(just_used, &counter_weight);
            let rep_victim = self.rep.lru_candidate(just_used, &rep_weight);
            let removed = match (counter_victim, rep_victim) {
                (Some((cs, ck, _)), Some((rs, ..))) if cs <= rs => {
                    self.counter.remove_stamped(&ck, cs, &counter_weight)
                }
                (_, Some((rs, rk, _))) => self.rep.remove_stamped(&rk, rs, &rep_weight),
                (Some((cs, ck, _)), None) => self.counter.remove_stamped(&ck, cs, &counter_weight),
                (None, None) => {
                    // Nothing evictable besides the entry in use: stop
                    // scanning until the entry set changes.
                    self.over_budget_pinned.store(true, Ordering::Relaxed);
                    break;
                }
            };
            match removed {
                Some(weight) => {
                    self.resident.fetch_sub(weight as i64, Ordering::Relaxed);
                    self.evictions.inc();
                    self.evicted_states.add(weight);
                }
                None => continue, // raced with a lookup; rescan
            }
        }
    }

    /// Requests answered from an existing (or in-flight) slot.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Requests that had to build.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries evicted to fit the abstract-state budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Total abstract states carried by evicted entries — together with
    /// [`GraphCache::evictions`], the pressure signal an operator tunes
    /// the budget by.
    pub fn evicted_states(&self) -> u64 {
        self.evicted_states.get()
    }

    /// Number of cached structures (counter + representative).
    pub fn len(&self) -> usize {
        self.counter.len() + self.rep.len()
    }

    /// Total abstract states held by the cache, across all materialized
    /// counter graphs and representative structures. Slots whose build is
    /// still in flight (or failed) contribute nothing.
    ///
    /// Together with [`GraphCache::len`] this is the occupancy signal an
    /// operator needs to size an eviction budget: `len` says how many
    /// families are resident, `abstract_states` how much memory-shaped
    /// weight they carry (states dominate the footprint).
    pub fn abstract_states(&self) -> u64 {
        self.counter.total_size(counter_weight) + self.rep.total_size(rep_weight)
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The disk persistence layer, when one is attached
    /// ([`GraphCache::with_store`]) — its spill/restore/reject counters
    /// are the warm-start observability surface.
    pub fn spill_store(&self) -> Option<&SpillStore> {
        self.store.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_sym::{mutex_template, SymEngine};

    fn std_spec() -> CountingSpec {
        CountingSpec::standard(&mutex_template())
    }

    #[test]
    fn second_request_is_a_hit_and_shares_the_arc() {
        let cache = GraphCache::new(4);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let a = cache.counter(&t, &s, 5, || engine.counter_graph(5));
        let b = cache.counter(&t, &s, 5, || unreachable!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_sizes_are_distinct_entries() {
        let cache = GraphCache::new(4);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let a = cache.counter(&t, &s, 3, || engine.counter_graph(3));
        let b = cache.counter(&t, &s, 4, || engine.counter_graph(4));
        assert_ne!(a.kripke.num_states(), b.kripke.num_states());
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn distinct_widths_are_distinct_entries() {
        // The regression the width key exists for: depth-1 and depth-2
        // representative structures of the *same* (template, spec, n)
        // must never collide — a collision would answer nested queries
        // on a structure that tracks too few copies.
        let cache = GraphCache::new(4);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let r1 = cache
            .representative(&t, &s, 6, 1, || engine.representative_graph(6, 1))
            .unwrap();
        let r2 = cache
            .representative(&t, &s, 6, 2, || engine.representative_graph(6, 2))
            .unwrap();
        assert!(!Arc::ptr_eq(&r1, &r2));
        assert_eq!(r1.kripke.indices(), &[1]);
        assert_eq!(r2.kripke.indices(), &[1, 2]);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // And each width hits its own entry afterwards.
        let r1b = cache
            .representative(&t, &s, 6, 1, || unreachable!("cached"))
            .unwrap();
        assert!(Arc::ptr_eq(&r1, &r1b));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn width_zero_error_cannot_poison_the_width_one_entry() {
        // Regression: a nonsensical width-0 request caches its
        // BadRepWidth error under its *own* key; the legitimate width-1
        // structure must still build and be served.
        let cache = GraphCache::new(4);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let err = cache
            .representative(&t, &s, 6, 0, || engine.representative_graph(6, 0))
            .unwrap_err();
        assert!(matches!(err, icstar_sym::SymError::BadRepWidth { .. }));
        let r1 = cache
            .representative(&t, &s, 6, 1, || engine.representative_graph(6, 1))
            .unwrap();
        assert_eq!(r1.kripke.indices(), &[1]);
        assert_eq!(cache.misses(), 2, "separate entries, no poisoning");
    }

    #[test]
    fn pinned_over_budget_state_unpins_on_the_next_insertion() {
        // A lone oversized entry pins the cache over budget (nothing
        // evictable); the next insertion must clear the pin so eviction
        // resumes.
        let cache = GraphCache::with_budget(2, 10);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let _a = cache.counter(&t, &s, 30, || engine.counter_graph(30));
        // Hits while pinned stay cheap and evict nothing.
        for _ in 0..3 {
            let _ = cache.counter(&t, &s, 30, || unreachable!("cached"));
        }
        assert_eq!(cache.evictions(), 0);
        // A new entry supersedes the pinned one: the old entry goes.
        let _b = cache.counter(&t, &s, 40, || engine.counter_graph(40));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn structurally_different_workloads_never_share_a_slot() {
        // A differing template or spec must build its own structure.
        let cache = GraphCache::new(4);
        let t = mutex_template();
        let s1 = std_spec();
        let s2 = CountingSpec::new().with_zero("crit");
        let e1 = SymEngine::with_spec(t.clone(), s1.clone());
        let e2 = SymEngine::with_spec(t.clone(), s2.clone());
        let a = cache.counter(&t, &s1, 4, || e1.counter_graph(4));
        let b = cache.counter(&t, &s2, 4, || e2.counter_graph(4));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn fairness_declarations_are_part_of_the_workload_identity() {
        // A fair template and its unconstrained twin are different
        // workloads: their bundles carry different compiled fairness, so
        // sharing an entry would answer fair liveness queries against
        // unconstrained paths (or vice versa).
        use icstar_sym::GuardedBuilder;
        let stutter = |fair: bool| {
            let mut b = GuardedBuilder::new();
            let idle = b.state("idle", ["idle"]);
            let done = b.state("done", ["done"]);
            b.edge(idle, idle);
            b.edge(idle, done);
            b.edge(done, done);
            if fair {
                b.fair("exit", [(idle, done)]);
            }
            b.build(idle)
        };
        let plain = stutter(false);
        let fair = stutter(true);
        let spec = CountingSpec::standard(&plain);
        assert_ne!(
            workload_bytes(&plain, &spec),
            workload_bytes(&fair, &spec),
            "fairness must be encoded"
        );
        let cache = GraphCache::new(2);
        let ep = SymEngine::with_spec(plain.clone(), spec.clone());
        let ef = SymEngine::with_spec(fair.clone(), spec.clone());
        let a = cache.counter(&plain, &spec, 4, || ep.counter_graph(4));
        let b = cache.counter(&fair, &spec, 4, || ef.counter_graph(4));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(a.fairness.is_empty());
        assert!(!b.fairness.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn broadcast_response_maps_never_collide_in_the_cache() {
        // Regression: the workload encoding must incorporate broadcast
        // moves. Two templates differing *only* in a broadcast response
        // map are different workloads — they must encode differently
        // and each must build its own structure (two misses, no hit).
        use icstar_sym::GuardedBuilder;
        let with_response = |resp: u32| {
            let mut b = GuardedBuilder::new();
            let a = b.state("a", ["a"]);
            let c = b.state("c", ["c"]);
            let d = b.state("d", ["d"]);
            b.edge(a, c);
            b.edge(c, a);
            b.edge(d, d);
            b.broadcast(a, d, [(c, resp)]);
            b.build(a)
        };
        let t1 = with_response(0);
        let t2 = with_response(2);
        let spec = CountingSpec::standard(&t1);
        assert_ne!(
            workload_bytes(&t1, &spec),
            workload_bytes(&t2, &spec),
            "response maps must be encoded"
        );
        let cache = GraphCache::new(2);
        let e1 = SymEngine::with_spec(t1.clone(), spec.clone());
        let e2 = SymEngine::with_spec(t2.clone(), spec.clone());
        let a = cache.counter(&t1, &spec, 4, || e1.counter_graph(4));
        let b = cache.counter(&t2, &spec, 4, || e2.counter_graph(4));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // And asking again for each is a hit on its own entry.
        let a2 = cache.counter(&t1, &spec, 4, || unreachable!("cached"));
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn abstract_states_sum_over_materialized_entries() {
        let cache = GraphCache::new(4);
        assert_eq!(cache.abstract_states(), 0);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let a = cache.counter(&t, &s, 5, || engine.counter_graph(5));
        let b = cache.counter(&t, &s, 9, || engine.counter_graph(9));
        assert_eq!(
            cache.abstract_states(),
            (a.kripke.num_states() + b.kripke.num_states()) as u64
        );
        // A cached build *error* occupies an entry but weighs nothing.
        let _ = cache.representative(&t, &s, 0, 1, || engine.representative_graph(0, 1));
        assert_eq!(cache.len(), 3);
        assert_eq!(
            cache.abstract_states(),
            (a.kripke.num_states() + b.kripke.num_states()) as u64
        );
    }

    #[test]
    fn representative_errors_are_cached() {
        let cache = GraphCache::new(2);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let e1 = cache
            .representative(&t, &s, 0, 1, || engine.representative_graph(0, 1))
            .unwrap_err();
        let e2 = cache
            .representative(&t, &s, 0, 1, || unreachable!("cached error"))
            .unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        // mutex counter graphs have 2n + 1 states. Budget 100: n = 20
        // (41) + n = 22 (45) fit; adding n = 24 (49) must evict — and the
        // victim is the stalest entry, not the newcomer.
        let cache = GraphCache::with_budget(4, 100);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let a = cache.counter(&t, &s, 20, || engine.counter_graph(20));
        let _b = cache.counter(&t, &s, 22, || engine.counter_graph(22));
        // Touch n = 20 so n = 22 is now the LRU entry.
        let a2 = cache.counter(&t, &s, 20, || unreachable!("cached"));
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = cache.counter(&t, &s, 24, || engine.counter_graph(24));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.evicted_states(), 45, "n = 22 was evicted");
        assert!(cache.abstract_states() <= 100);
        // n = 20 survived (a hit), n = 22 must rebuild (a miss).
        let misses_before = cache.misses();
        let _ = cache.counter(&t, &s, 20, || unreachable!("still cached"));
        let _ = cache.counter(&t, &s, 22, || engine.counter_graph(22));
        assert_eq!(cache.misses(), misses_before + 1);
    }

    #[test]
    fn budget_never_evicts_the_structure_just_built() {
        // A single structure larger than the whole budget stays resident
        // (evicting it would return an Arc the cache just forgot, and the
        // next request would rebuild — thrashing); it is evicted as soon
        // as another insertion supersedes it.
        let cache = GraphCache::with_budget(2, 10);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let _a = cache.counter(&t, &s, 30, || engine.counter_graph(30));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 1);
        let _b = cache.counter(&t, &s, 40, || engine.counter_graph(40));
        assert_eq!(cache.evictions(), 1, "the older oversized entry goes");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_spans_counter_and_representative_entries() {
        let cache = GraphCache::with_budget(4, 60);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        // Rep at n = 10 (width 1): mutex rep has ~4n states; counter at
        // n = 20 has 41. Together they exceed 60, so the rep (older) is
        // evicted when the counter lands.
        let rep = cache
            .representative(&t, &s, 10, 1, || engine.representative_graph(10, 1))
            .unwrap();
        let rep_states = rep.kripke.kripke().num_states() as u64;
        let _c = cache.counter(&t, &s, 20, || engine.counter_graph(20));
        assert!(cache.evictions() >= 1);
        assert_eq!(cache.evicted_states(), rep_states);
        // The evicted Arc is still alive for its holder.
        assert!(rep.kripke.kripke().num_states() > 0);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = GraphCache::new(2);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        for n in 1..=30u32 {
            let _ = cache.counter(&t, &s, n, || engine.counter_graph(n));
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 30);
    }

    #[test]
    fn concurrent_requests_build_once() {
        let cache = Arc::new(GraphCache::new(4));
        let engine = Arc::new(SymEngine::new(mutex_template()));
        let builds = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let engine = Arc::clone(&engine);
                let builds = Arc::clone(&builds);
                scope.spawn(move || {
                    cache.counter(&mutex_template(), &std_spec(), 50, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        engine.counter_graph(50)
                    })
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one build");
        assert_eq!(cache.hits() + cache.misses(), 8);
        assert_eq!(cache.misses(), 1);
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, SpillStore) {
        let dir = std::env::temp_dir().join(format!(
            "icstar-cache-{}-{}-{tag}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let store = SpillStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn spilled_structures_restore_across_cache_instances() {
        let (dir, store) = temp_store("across");
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let built = {
            let cache = GraphCache::with_store(2, u64::MAX, Some(store));
            let g = cache.counter(&t, &s, 8, || engine.counter_graph(8));
            assert_eq!(cache.spill_store().unwrap().spills(), 1);
            g.kripke.num_states()
        };
        // A fresh cache over the same directory — the restart/replica
        // case — restores from disk: the build closure must never run.
        let cache = GraphCache::with_store(2, u64::MAX, Some(SpillStore::open(&dir).unwrap()));
        let g = cache.counter(&t, &s, 8, || unreachable!("must restore from disk"));
        assert_eq!(g.kripke.num_states(), built);
        assert_eq!(cache.spill_store().unwrap().restores(), 1);
        // Still a memory miss — restore is a faster rebuild, not a hit.
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evicted_entries_restore_from_disk_not_rebuild() {
        let (dir, store) = temp_store("evict");
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        // Budget fits one mutex counter graph at a time (2n + 1 states).
        let cache = GraphCache::with_store(2, 50, Some(store));
        let _a = cache.counter(&t, &s, 20, || engine.counter_graph(20));
        let _b = cache.counter(&t, &s, 22, || engine.counter_graph(22));
        assert!(cache.evictions() >= 1, "n = 20 was evicted");
        // Re-requesting the evicted entry restores the spilled file
        // instead of re-exploring.
        let _a2 = cache.counter(&t, &s, 20, || unreachable!("must restore from disk"));
        assert_eq!(cache.spill_store().unwrap().restores(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rep_errors_are_not_spilled() {
        let (dir, store) = temp_store("errs");
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let cache = GraphCache::with_store(2, u64::MAX, Some(store));
        let _ = cache
            .representative(&t, &s, 0, 1, || engine.representative_graph(0, 1))
            .unwrap_err();
        assert_eq!(cache.spill_store().unwrap().spills(), 0);
        let ok = cache
            .representative(&t, &s, 6, 1, || engine.representative_graph(6, 1))
            .unwrap();
        assert_eq!(cache.spill_store().unwrap().spills(), 1);
        assert_eq!(ok.kripke.indices(), &[1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_budgeted_requests_stay_bounded() {
        // Hammer a small budget from several threads: no deadlock, no
        // panic, and the resident weight ends within budget + the
        // largest single entry (the just-built exemption).
        let cache = Arc::new(GraphCache::with_budget(4, 120));
        let engine = Arc::new(SymEngine::new(mutex_template()));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    for i in 0..10u32 {
                        let n = 5 + (t * 10 + i) % 25;
                        let _ = cache.counter(&mutex_template(), &std_spec(), n, || {
                            engine.counter_graph(n)
                        });
                    }
                });
            }
        });
        assert!(cache.evictions() > 0);
        assert!(
            cache.abstract_states() <= 120 + (2 * 29 + 1),
            "resident weight {} exceeds budget plus one entry",
            cache.abstract_states()
        );
    }
}
