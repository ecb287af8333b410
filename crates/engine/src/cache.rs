//! Content-keyed artifact cache for layout bundles: an in-memory tier
//! with an optional disk tier underneath.
//!
//! Building an [`IscasRun`]/[`SuperblueRun`] (protect → place → route →
//! split) dominates campaign cost; every table that consumes the same
//! benchmark+seed shares one bundle. The cache is keyed by the exact
//! build inputs ([`BundleKey`]: profile name, scale, seed) and
//! guarantees **exactly one build per key** even when many worker
//! threads request the same bundle concurrently: late arrivals block on
//! the first builder's `OnceLock` instead of duplicating the work.
//!
//! Lookup is tiered: memory hit → disk hit (via the
//! [`ArtifactStore`]) → build (and persist). A warm store therefore
//! turns a fresh process's first request into a decode instead of a
//! rebuild — the "zero bundle builds on the second run" guarantee the
//! CI determinism gate enforces.
//!
//! Memory is bounded two ways: campaign-scoped caches die with their
//! campaign, and campaigns *release* bundles once their last consuming
//! job finishes — per-key job counts are known at expansion time and
//! registered with [`ArtifactCache::reserve`]; [`ArtifactCache::release`]
//! drops the cache's reference when the count reaches zero, so peak
//! memory tracks the working set instead of the whole sweep.
//!
//! Derived per-bundle artifacts ride along: split views (persisted as
//! their own store stage) and flow-attack cores (memory only, see
//! [`ArtifactCache::attack_core`]) drop with their bundle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use sm_attacks::proximity::AttackCore;
use sm_benchgen::iscas::IscasProfile;
use sm_benchgen::superblue::SuperblueProfile;
use sm_codec::{Decode, Encode};
use sm_exec::fault::FaultInject;
use sm_layout::SplitLayout;

use crate::bundle::{IscasRun, StageSource, SuperblueRun};
use crate::journal::{Event, Journal};
use crate::store::{ArtifactStore, Stage};

/// The content key a bundle is cached (and persisted) under: exactly
/// the build inputs of [`IscasRun::build`]/[`SuperblueRun::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BundleKey {
    /// An ISCAS-85-class bundle.
    Iscas {
        /// Benchmark name.
        name: &'static str,
        /// Bundle build seed (see `Job::bundle_seed`).
        seed: u64,
    },
    /// A superblue-class bundle.
    Superblue {
        /// Benchmark name.
        name: &'static str,
        /// Down-scaling factor.
        scale: usize,
        /// Bundle build seed.
        seed: u64,
    },
}

impl BundleKey {
    /// The key's stable string identity — the store's file stem for the
    /// persisted bundle, and the `key` journal `bundle-built` /
    /// `job-started` events carry.
    pub fn id(&self) -> String {
        match self {
            BundleKey::Iscas { name, seed } => format!("iscas-{name}-s{seed:016x}"),
            BundleKey::Superblue { name, scale, seed } => {
                format!("superblue-{name}-x{scale}-s{seed:016x}")
            }
        }
    }
}

/// Which arm of a bundle a split view belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitArm {
    /// The protected layout's FEOL (erroneous netlist + FEOL routing).
    Protected,
    /// The unprotected baseline's FEOL.
    Original,
}

impl SplitArm {
    /// Stable identifier used in split-stage store keys.
    pub fn id(&self) -> &'static str {
        match self {
            SplitArm::Protected => "prot",
            SplitArm::Original => "orig",
        }
    }
}

/// Per-stage build/decode counters, indexed by [`Stage::index`].
/// Separate from [`CacheStats`], whose bundle-level semantics (and the
/// reports built on them) stay unchanged by stage-keyed persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Stage artifacts built, per stage.
    pub builds: [u64; Stage::ALL.len()],
    /// Stage artifacts decoded from the store, per stage.
    pub decodes: [u64; Stage::ALL.len()],
}

impl StageStats {
    /// Builds of one stage.
    pub fn builds_of(&self, stage: Stage) -> u64 {
        self.builds[stage.index()]
    }
}

/// Hit/build counters, reported by campaigns ("cache hit count").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from an already-built (or concurrently building)
    /// in-memory bundle.
    pub hits: u64,
    /// Requests served by decoding a persisted bundle from the disk
    /// store (no build ran).
    pub disk_hits: u64,
    /// Requests that built the bundle.
    pub builds: u64,
    /// In-memory bundles dropped after their last consuming job
    /// finished.
    pub released: u64,
}

impl CacheStats {
    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.hits + self.disk_hits + self.builds
    }
}

/// How a cache miss was satisfied.
enum Origin {
    Built,
    Disk,
}

/// Flow-attack core counters (see [`ArtifactCache::attack_core`]) —
/// side-band diagnostics, kept out of [`CacheStats`] and so out of
/// reports and the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Cores built.
    pub built: u64,
    /// Requests served by an already-built core.
    pub reused: u64,
}

type Slot<T> = Arc<OnceLock<Arc<T>>>;
type BundleMap<K, T> = Mutex<HashMap<K, Slot<T>>>;
/// A core slot: unlike [`Slot`], an empty slot can be filled again, so
/// a cancelled (or panicked) build is retried by the next request.
type CoreSlot = Arc<Mutex<Option<Arc<AttackCore>>>>;

/// The engine's bundle cache. Cheap to share: wrap in an [`Arc`].
#[derive(Debug, Default)]
pub struct ArtifactCache {
    iscas: BundleMap<(&'static str, u64), IscasRun>,
    superblue: BundleMap<(&'static str, usize, u64), SuperblueRun>,
    splits: BundleMap<(BundleKey, SplitArm, u8), SplitLayout>,
    cores: Mutex<HashMap<(BundleKey, SplitArm, u8), CoreSlot>>,
    store: Option<Arc<ArtifactStore>>,
    journal: Option<Arc<Journal>>,
    faults: Option<Arc<dyn FaultInject>>,
    expected: Mutex<HashMap<BundleKey, usize>>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    builds: AtomicU64,
    released: AtomicU64,
    stage_builds: [AtomicU64; Stage::ALL.len()],
    stage_decodes: [AtomicU64; Stage::ALL.len()],
    core_builds: AtomicU64,
    core_reuses: AtomicU64,
}

impl ArtifactCache {
    /// An empty, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache layered over a disk store: memory hit → disk hit
    /// → build (persisting what it builds).
    pub fn with_store(store: Arc<ArtifactStore>) -> Self {
        ArtifactCache {
            store: Some(store),
            ..Self::default()
        }
    }

    /// The disk store underneath, if any.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// Attaches a campaign journal: the cache emits `bundle-built`
    /// events (and campaigns running over it emit the job/campaign
    /// lifecycle) into `journal`. The disk store underneath, when one
    /// is attached, gets the same journal so store maintenance
    /// incidents land in the campaign's log.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        if let Some(store) = &self.store {
            store.set_journal(Arc::clone(&journal));
        }
        self.journal = Some(journal);
        self
    }

    /// The attached campaign journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Attaches a fault injector: campaigns running over this cache
    /// consult it at job pickup (`job-run` faults become isolated
    /// panics). Store and journal injection points are attached to
    /// those objects directly — see [`ArtifactStore::with_faults`] and
    /// [`Journal::with_faults`](crate::journal::Journal::with_faults).
    pub fn with_faults(mut self, faults: Arc<dyn FaultInject>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The attached fault injector, if any.
    pub fn faults(&self) -> Option<&Arc<dyn FaultInject>> {
        self.faults.as_ref()
    }

    /// Records a `bundle-built` journal event for a cache miss satisfied
    /// since `start` (stage `"build"` or `"decode"`).
    fn note_bundle(&self, key: &BundleKey, stage: &str, start: std::time::Instant) {
        if let Some(journal) = &self.journal {
            journal.record(&Event::BundleBuilt {
                key: key.id(),
                stage: stage.to_string(),
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            });
        }
    }

    /// Records a stage-level `bundle-built` journal event (stage
    /// `"<label>-build"`/`"<label>-decode"`, e.g. `"place+route-decode"`)
    /// — distinct from the bundle-level `"build"`/`"decode"` strings so
    /// existing consumers keep counting whole bundles.
    fn note_stage(&self, stage: Stage, id: &str, what: &str, start: std::time::Instant) {
        if let Some(journal) = &self.journal {
            journal.record(&Event::BundleBuilt {
                key: id.to_string(),
                stage: format!("{}-{what}", stage.label()),
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            });
        }
    }

    fn fetch<T>(&self, slot: Slot<T>, obtain: impl FnOnce() -> (T, Origin)) -> Arc<T> {
        let mut origin = None;
        let value = slot.get_or_init(|| {
            let (value, o) = obtain();
            origin = Some(o);
            Arc::new(value)
        });
        match origin {
            None => self.hits.fetch_add(1, Ordering::Relaxed),
            Some(Origin::Disk) => self.disk_hits.fetch_add(1, Ordering::Relaxed),
            Some(Origin::Built) => self.builds.fetch_add(1, Ordering::Relaxed),
        };
        Arc::clone(value)
    }

    /// The bundle for `profile` at `seed`, building it on first request
    /// inside `exec` — the requesting consumer's thread budget, so a
    /// cache miss never occupies more workers than its owner was
    /// allotted (late arrivals block on the first builder either way).
    ///
    /// The building stages' placement phase spans are recorded into
    /// `rec`. Only the consumer that actually builds the bundle (first
    /// requester on a cold slot) records spans; cache hits record
    /// nothing — no placement ran on their behalf.
    pub fn iscas(
        &self,
        profile: &IscasProfile,
        seed: u64,
        exec: &sm_exec::Budget,
        rec: &mut sm_exec::phase::Recorder,
    ) -> Arc<IscasRun> {
        let slot = {
            let mut map = self.iscas.lock().expect("iscas cache poisoned");
            Arc::clone(map.entry((profile.name, seed)).or_default())
        };
        let key = BundleKey::Iscas {
            name: profile.name,
            seed,
        };
        self.fetch(slot, || {
            let start = std::time::Instant::now();
            let (run, built) = IscasRun::assemble_with(profile, seed, exec, self, rec);
            if built {
                self.note_bundle(&key, "build", start);
                (run, Origin::Built)
            } else {
                self.note_bundle(&key, "decode", start);
                (run, Origin::Disk)
            }
        })
    }

    /// The bundle for `profile` at `scale`/`seed`, building on first
    /// request inside `exec` and recording the building stages'
    /// placement phase spans into `rec` (see [`ArtifactCache::iscas`]).
    pub fn superblue(
        &self,
        profile: &SuperblueProfile,
        scale: usize,
        seed: u64,
        exec: &sm_exec::Budget,
        rec: &mut sm_exec::phase::Recorder,
    ) -> Arc<SuperblueRun> {
        let slot = {
            let mut map = self.superblue.lock().expect("superblue cache poisoned");
            Arc::clone(map.entry((profile.name, scale, seed)).or_default())
        };
        let key = BundleKey::Superblue {
            name: profile.name,
            scale,
            seed,
        };
        self.fetch(slot, || {
            let start = std::time::Instant::now();
            let (run, built) = SuperblueRun::assemble_with(profile, scale, seed, exec, self, rec);
            if built {
                self.note_bundle(&key, "build", start);
                (run, Origin::Built)
            } else {
                self.note_bundle(&key, "decode", start);
                (run, Origin::Disk)
            }
        })
    }

    /// The split view of one arm of a bundle at `layer`, cached in
    /// memory per (bundle, arm, layer) and persisted as its own
    /// split-stage artifact — so the two attacks of one sweep point
    /// share each split, and a new attack variant over a warm store
    /// decodes splits instead of recomputing them.
    ///
    /// Splits are derived views: they count in the per-stage counters
    /// only, never in the bundle-level [`CacheStats`], and their
    /// in-memory entries drop with their bundle on
    /// [`ArtifactCache::release`].
    pub fn split(
        &self,
        key: &BundleKey,
        arm: SplitArm,
        layer: u8,
        build: impl FnOnce() -> SplitLayout,
    ) -> Arc<SplitLayout> {
        let slot = {
            let mut map = self.splits.lock().expect("split cache poisoned");
            Arc::clone(map.entry((*key, arm, layer)).or_default())
        };
        let value = slot.get_or_init(|| {
            let id = format!("{}-{}-l{layer}", key.id(), arm.id());
            let (split, _built) = self.fetch_stage(Stage::Split, &id, build);
            Arc::new(split)
        });
        Arc::clone(value)
    }

    /// The flow-attack core of one arm of a bundle at `layer`, built by
    /// `build` on first request and shared in memory per (bundle, arm,
    /// layer) — so the jobs of a pinned-layout seed sweep run candidate
    /// scoring, min-cost flow and reconstruction once per arm instead
    /// of once per seed. Campaigns attack with one fixed scoring config,
    /// so the key needs no config component.
    ///
    /// Late arrivals block on the builder. A build that returns `None`
    /// (its budget was cancelled) is not kept, and neither is one that
    /// panicked: the next request builds again. Cores are not persisted;
    /// their entries drop with their bundle on [`ArtifactCache::release`].
    pub fn attack_core(
        &self,
        key: &BundleKey,
        arm: SplitArm,
        layer: u8,
        build: impl FnOnce() -> Option<AttackCore>,
    ) -> Option<Arc<AttackCore>> {
        let slot = {
            let mut cores = self.cores.lock().expect("core cache poisoned");
            Arc::clone(cores.entry((*key, arm, layer)).or_default())
        };
        let mut held = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(core) = held.as_ref() {
            self.core_reuses.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(core));
        }
        let core = Arc::new(build()?);
        *held = Some(Arc::clone(&core));
        self.core_builds.fetch_add(1, Ordering::Relaxed);
        Some(core)
    }

    /// The arm whose core a flow job of (`key`, `layer`) should fetch
    /// first: the protected one, unless another job has already claimed
    /// it while the original is still unclaimed. The answer is claimed
    /// in the same step, so two jobs that start together build the two
    /// arms concurrently instead of queueing on one.
    pub fn first_core_arm(&self, key: &BundleKey, layer: u8) -> SplitArm {
        let mut cores = self.cores.lock().expect("core cache poisoned");
        let claimed = |arm| cores.contains_key(&(*key, arm, layer));
        let arm = if claimed(SplitArm::Protected) && !claimed(SplitArm::Original) {
            SplitArm::Original
        } else {
            SplitArm::Protected
        };
        cores.entry((*key, arm, layer)).or_default();
        arm
    }

    /// Flow-attack core counters accumulated so far.
    pub fn core_stats(&self) -> CoreStats {
        CoreStats {
            built: self.core_builds.load(Ordering::Relaxed),
            reused: self.core_reuses.load(Ordering::Relaxed),
        }
    }

    /// Registers `uses` upcoming consumers of `key` (called once per key
    /// at campaign expansion, before any job runs). Counts accumulate,
    /// so resumed/filtered runs over the same cache compose.
    pub fn reserve(&self, key: BundleKey, uses: usize) {
        if uses == 0 {
            return;
        }
        *self
            .expected
            .lock()
            .expect("reserve table poisoned")
            .entry(key)
            .or_insert(0) += uses;
    }

    /// Signals that one consumer of `key` finished. When the last
    /// reserved consumer releases, the in-memory bundle is dropped (the
    /// disk store, if any, still holds it). Unreserved keys — e.g.
    /// session-driven artifact runs — are unaffected.
    pub fn release(&self, key: &BundleKey) {
        let drop_now = {
            let mut expected = self.expected.lock().expect("reserve table poisoned");
            match expected.get_mut(key) {
                Some(count) => {
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        expected.remove(key);
                        true
                    } else {
                        false
                    }
                }
                None => false,
            }
        };
        if !drop_now {
            return;
        }
        // Split views and attack cores belong to their bundle: drop them
        // together so the working set shrinks with the sweep frontier.
        self.splits
            .lock()
            .expect("split cache poisoned")
            .retain(|(k, _, _), _| k != key);
        self.cores
            .lock()
            .expect("core cache poisoned")
            .retain(|(k, _, _), _| k != key);
        let removed = match key {
            BundleKey::Iscas { name, seed } => self
                .iscas
                .lock()
                .expect("iscas cache poisoned")
                .remove(&(*name, *seed))
                .is_some(),
            BundleKey::Superblue { name, scale, seed } => self
                .superblue
                .lock()
                .expect("superblue cache poisoned")
                .remove(&(*name, *scale, *seed))
                .is_some(),
        };
        if removed {
            self.released.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of bundles currently held in memory.
    pub fn resident(&self) -> usize {
        self.iscas.lock().expect("iscas cache poisoned").len()
            + self
                .superblue
                .lock()
                .expect("superblue cache poisoned")
                .len()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
        }
    }

    /// Per-stage build/decode counters accumulated so far.
    pub fn stage_stats(&self) -> StageStats {
        let mut stats = StageStats::default();
        for stage in Stage::ALL {
            let i = stage.index();
            stats.builds[i] = self.stage_builds[i].load(Ordering::Relaxed);
            stats.decodes[i] = self.stage_decodes[i].load(Ordering::Relaxed);
        }
        stats
    }
}

impl StageSource for ArtifactCache {
    /// Tiered stage fetch: store decode → build (persisting the result
    /// when a store is attached). Every stage touch lands in the
    /// per-stage counters and, when a journal is attached, as a
    /// stage-level progress event.
    fn fetch_stage<T: Encode + Decode>(
        &self,
        stage: Stage,
        id: &str,
        build: impl FnOnce() -> T,
    ) -> (T, bool) {
        let start = std::time::Instant::now();
        if let Some(store) = &self.store {
            if let Some(value) = store.load_stage::<T>(stage, id) {
                self.stage_decodes[stage.index()].fetch_add(1, Ordering::Relaxed);
                self.note_stage(stage, id, "decode", start);
                return (value, false);
            }
        }
        let value = build();
        if let Some(store) = &self.store {
            store.save_stage(stage, id, &value);
        }
        self.stage_builds[stage.index()].fetch_add(1, Ordering::Relaxed);
        self.note_stage(stage, id, "build", start);
        (value, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_exec::phase::Recorder;
    use sm_exec::Budget;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn each_key_builds_exactly_once_under_contention() {
        let cache = Arc::new(ArtifactCache::new());
        let profile = IscasProfile::c432();
        let ptrs: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let profile = profile.clone();
                    s.spawn(move || {
                        Arc::as_ptr(&cache.iscas(
                            &profile,
                            7,
                            &Budget::default(),
                            &mut Recorder::new(),
                        )) as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]), "all shared one Arc");
        let stats = cache.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.disk_hits, 0);
    }

    #[test]
    fn distinct_seeds_are_distinct_entries() {
        let cache = ArtifactCache::new();
        let profile = IscasProfile::c432();
        let a = cache.iscas(&profile, 1, &Budget::default(), &mut Recorder::new());
        let b = cache.iscas(&profile, 2, &Budget::default(), &mut Recorder::new());
        let a2 = cache.iscas(&profile, 1, &Budget::default(), &mut Recorder::new());
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &a2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.builds), (1, 2));
    }

    #[test]
    fn fetch_counts_via_shared_slot() {
        // Guard against double-building through a shared OnceLock.
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let cache = ArtifactCache::new();
        let slot: Slot<u32> = Arc::default();
        let obtain = || {
            BUILDS.fetch_add(1, Ordering::SeqCst);
            (9u32, Origin::Built)
        };
        assert_eq!(*cache.fetch(Arc::clone(&slot), obtain), 9);
        assert_eq!(*cache.fetch(slot, obtain), 9);
        assert_eq!(BUILDS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn release_drops_bundle_after_last_reserved_use() {
        let cache = ArtifactCache::new();
        let profile = IscasProfile::c432();
        let key = BundleKey::Iscas {
            name: profile.name,
            seed: 4,
        };
        cache.reserve(key, 2);
        let run = cache.iscas(&profile, 4, &Budget::default(), &mut Recorder::new());
        assert_eq!(cache.resident(), 1);

        cache.release(&key);
        assert_eq!(cache.resident(), 1, "one consumer still outstanding");
        cache.release(&key);
        assert_eq!(cache.resident(), 0, "last release drops the bundle");
        assert_eq!(cache.stats().released, 1);
        // Our own Arc keeps the data alive; the cache no longer pins it.
        assert_eq!(Arc::strong_count(&run), 1);

        // A fresh request rebuilds.
        let _again = cache.iscas(&profile, 4, &Budget::default(), &mut Recorder::new());
        assert_eq!(cache.stats().builds, 2);
    }

    fn c17_core() -> AttackCore {
        use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
        let recovered =
            parse_bench("c17", C17_BENCH, &sm_netlist::Library::nangate45()).expect("c17 parses");
        AttackCore {
            pairs: vec![(0, 1)],
            recovered,
        }
    }

    const KEY: BundleKey = BundleKey::Iscas {
        name: "c17",
        seed: 1,
    };

    #[test]
    fn attack_core_builds_once_under_contention() {
        let cache = ArtifactCache::new();
        let builds = AtomicUsize::new(0);
        let ptrs: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let core = cache.attack_core(&KEY, SplitArm::Protected, 4, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Some(c17_core())
                        });
                        Arc::as_ptr(&core.expect("live build")) as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]), "all shared one Arc");
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(
            cache.core_stats(),
            CoreStats {
                built: 1,
                reused: 3
            }
        );
        // Cores are side-band: the bundle counters never move.
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn attack_cores_are_keyed_by_arm_and_layer() {
        let cache = ArtifactCache::new();
        let get = |arm, layer| {
            cache
                .attack_core(&KEY, arm, layer, || Some(c17_core()))
                .expect("live build")
        };
        let prot4 = get(SplitArm::Protected, 4);
        let orig4 = get(SplitArm::Original, 4);
        let prot5 = get(SplitArm::Protected, 5);
        assert!(!Arc::ptr_eq(&prot4, &orig4));
        assert!(!Arc::ptr_eq(&prot4, &prot5));
        assert!(Arc::ptr_eq(&prot4, &get(SplitArm::Protected, 4)));
        assert_eq!(cache.core_stats().built, 3);
        assert_eq!(cache.core_stats().reused, 1);
    }

    #[test]
    fn first_core_arm_hands_out_the_unclaimed_arm() {
        let cache = ArtifactCache::new();
        assert_eq!(cache.first_core_arm(&KEY, 4), SplitArm::Protected);
        assert_eq!(cache.first_core_arm(&KEY, 4), SplitArm::Original);
        // Both claimed: back to the protected default.
        assert_eq!(cache.first_core_arm(&KEY, 4), SplitArm::Protected);
        // Another layer is its own pair of slots.
        assert_eq!(cache.first_core_arm(&KEY, 5), SplitArm::Protected);
    }

    #[test]
    fn release_drops_attack_cores_with_their_bundle() {
        let cache = ArtifactCache::new();
        cache.reserve(KEY, 1);
        let other = BundleKey::Iscas {
            name: "c17",
            seed: 2,
        };
        let core = cache
            .attack_core(&KEY, SplitArm::Protected, 4, || Some(c17_core()))
            .expect("live build");
        let _kept = cache.attack_core(&other, SplitArm::Protected, 4, || Some(c17_core()));
        assert_eq!(Arc::strong_count(&core), 2, "the cache holds the core");
        cache.release(&KEY);
        assert_eq!(Arc::strong_count(&core), 1, "released with its bundle");
        // A fresh request rebuilds; the unreleased bundle's core stays.
        let _again = cache.attack_core(&KEY, SplitArm::Protected, 4, || Some(c17_core()));
        let _hit = cache.attack_core(&other, SplitArm::Protected, 4, || Some(c17_core()));
        assert_eq!(
            cache.core_stats(),
            CoreStats {
                built: 3,
                reused: 1
            }
        );
    }

    #[test]
    fn cancelled_or_panicked_core_builds_are_not_kept() {
        let cache = ArtifactCache::new();
        let cancelled = cache.attack_core(&KEY, SplitArm::Original, 3, || None);
        assert!(cancelled.is_none());
        // A build that panics poisons the slot with no value in it.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.attack_core(&KEY, SplitArm::Original, 3, || panic!("build failed"))
        }));
        assert!(panicked.is_err());
        assert_eq!(cache.core_stats(), CoreStats::default());
        // The next live request builds and returns the core.
        let live = cache.attack_core(&KEY, SplitArm::Original, 3, || Some(c17_core()));
        assert_eq!(live.expect("live build").pairs, vec![(0, 1)]);
        assert_eq!(cache.core_stats().built, 1);
    }

    #[test]
    fn release_without_reserve_is_a_no_op() {
        let cache = ArtifactCache::new();
        let profile = IscasProfile::c432();
        let key = BundleKey::Iscas {
            name: profile.name,
            seed: 9,
        };
        let _run = cache.iscas(&profile, 9, &Budget::default(), &mut Recorder::new());
        cache.release(&key);
        assert_eq!(cache.resident(), 1);
        assert_eq!(cache.stats().released, 0);
    }
}
