//! The traced run: one untraced reference campaign, then a replay of the
//! same work through each layer's public functions with spans around
//! them, then probes that time the layers an entry point hides.
//!
//! The replay follows the engine's own sequence — store lookups, staged
//! bundle assembly, splits, both attack arms, outcome persistence and
//! journal events — so its results must equal the reference campaign's
//! exactly; the fingerprint checks prove that the per-layer numbers time
//! the same work.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sm_attacks::crouting::{crouting_attack_traced, CroutingConfig};
use sm_attacks::proximity::{ccr_over_connections, network_flow_attack_budgeted, ProximityConfig};
use sm_benchgen::{iscas, superblue};
use sm_codec::{encode_to_vec, lz, Decode, Encode};
use sm_core::baselines::{naive_lifting_traced, original_layout_traced};
use sm_core::correction::{correction_cells_legal, embed_correction_cells};
use sm_core::flow::{protect_traced, BaselineLayout, FlowConfig, ProtectedDesign};
use sm_core::ppa::evaluate;
use sm_core::randomize::randomize;
use sm_engine::campaign::Bundle;
use sm_engine::journal::{EventJob, MetricsSource, Provenance};
use sm_engine::{
    run_sweep_budgeted, ArtifactCache, ArtifactStore, AttackKind, Benchmark, Budget, BundleKey,
    Campaign, CancelToken, Event, IscasRun, Job, JobMetrics, JobOutcome, Journal, SplitArm, Stage,
    SuperblueRun, SweepSpec,
};
use sm_layout::{split_layout, RouteOptions, Router, SplitLayout, Technology, VpinSide};
use sm_netlist::Netlist;
use sm_sim::equiv::{check, Equivalence};

use crate::checks::{connectivity_mismatch, Quality, EQUIV_CONFLICTS};
use crate::measure::{self, setup, teardown, timed, THREADS};
use crate::trace::{Adoption, Totals, Tracer, PROBE};
use crate::workload::Workload;
use crate::{Metric, Outcome};

const PROTECT_PLACE: &[Adoption] = &[
    ("protect-place", "layout.place", None),
    ("protect-place-fm", "layout.place.fm", Some("protect-place")),
];
const ORIGINAL_PLACE: &[Adoption] = &[
    ("original-place", "layout.place", None),
    (
        "original-place-fm",
        "layout.place.fm",
        Some("original-place"),
    ),
];
const LIFT_PLACE: &[Adoption] = &[
    ("lift-place", "layout.place", None),
    ("lift-place-fm", "layout.place.fm", Some("lift-place")),
];
const FLOW_PHASES: &[Adoption] = &[
    ("attack-candidates", "attacks.flow.candidates", None),
    ("attack-mcmf", "attacks.flow.mcmf", None),
    ("attack-assign", "attacks.flow.assign", None),
    ("attack-eval", "attacks.flow.eval", None),
];
const CROUTING_PHASES: &[Adoption] = &[("crouting-grid", "attacks.crouting.grid", None)];

/// Per-layer metrics reported on the result line: the span times every
/// workload exercises, plus counts and ratios. The remaining span names
/// are printed in the report table only.
const REPORTED_MS: &[&str] = &[
    "engine.campaign.job",
    "engine.bundle",
    "engine.store.load",
    "engine.store.save",
    "engine.journal.record",
    "benchgen.generate",
    "core.protect",
    "core.baseline",
    "layout.place",
    "layout.place.fm",
    "layout.split",
    "core.randomize",
    "core.correction",
    "core.ppa",
    "layout.route",
    "codec.encode",
    "codec.lz.compress",
    "codec.lz.decompress",
];

/// Deterministic counts, compared exactly between runs.
#[derive(Debug, Default)]
struct Counts {
    demand: AtomicU64,
    pairs: AtomicU64,
    vpins: AtomicU64,
    builds: AtomicU64,
    events: AtomicU64,
}

/// A value computed once and shared by every job that needs it.
type Memo<T> = Arc<OnceLock<T>>;

/// A split view is memoized per (bundle, arm, split layer).
type SplitKey = (BundleKey, SplitArm, u8);

/// The replay's state: its own store, bundle and split memo, counters.
struct Replayer<'a> {
    tracer: &'a Tracer,
    store: ArtifactStore,
    bundles: Mutex<HashMap<BundleKey, Memo<Bundle>>>,
    splits: Mutex<HashMap<SplitKey, Memo<Arc<SplitLayout>>>>,
    counts: Counts,
}

impl Replayer<'_> {
    fn record(&self, journal: &Journal, event: Event, parent: Option<usize>, tid: usize) {
        self.counts.events.fetch_add(1, Ordering::Relaxed);
        self.tracer.span("engine.journal.record", parent, tid, |_| {
            journal.record(&event)
        });
    }

    /// Replays `spec` as `run_sweep_budgeted` runs it; trace ids start at
    /// `base`. Returns the outcomes in job order.
    fn campaign(
        &self,
        spec: &SweepSpec,
        budget: &Budget,
        base: usize,
    ) -> Result<Vec<JobOutcome>, String> {
        let jobs = spec.jobs()?;
        // Each campaign starts on an empty cache, as a fresh process or
        // service does: bundles come from the store or get built.
        self.bundles.lock().expect("bundles").clear();
        self.splits.lock().expect("splits").clear();
        let journal = Journal::for_spec(self.store.root(), spec);
        let tid = base + jobs.len();
        let start = Instant::now();
        let started = Event::CampaignStarted {
            spec: spec.clone(),
            threads: budget.threads() as u64,
        };
        self.record(&journal, started, None, tid);
        let per_job = budget.split(jobs.len().min(budget.threads()));
        let outcomes = budget.map(&jobs, |_, job| {
            let t = Instant::now();
            let metrics = self.job(job, &per_job, &journal, base + job.index);
            JobOutcome {
                job: job.clone(),
                metrics,
                wall: t.elapsed(),
                phases: Vec::new(),
            }
        });
        let campaign = Campaign {
            spec: spec.clone(),
            outcomes,
            cache: Default::default(),
            stages: Default::default(),
            threads: budget.threads(),
            total_wall: start.elapsed(),
            pool: budget.pool().stats(),
        };
        self.record(&journal, Event::campaign_finished(&campaign), None, tid);
        Ok(campaign.outcomes)
    }

    /// Replays `run_job`: outcome lookup, bundle, attack, persistence.
    fn job(&self, job: &Job, exec: &Budget, journal: &Journal, tid: usize) -> JobMetrics {
        let tr = self.tracer;
        tr.span("engine.campaign.job", None, tid, |root| {
            let started = Event::JobStarted {
                job: EventJob::of(job),
                store_keys: vec![job.bundle_key().id(), job.outcome_key()],
            };
            self.record(journal, started, Some(root), tid);
            let stored = tr.span("engine.store.load", Some(root), tid, |_| {
                self.store.load_outcome(job)
            });
            let metrics = stored.unwrap_or_else(|| {
                let bundle = tr.span("engine.bundle", Some(root), tid, |b| {
                    self.bundle(job, exec, journal, b, tid)
                });
                let metrics = match job.attack {
                    AttackKind::NetworkFlow => self.flow(job, &bundle, exec, journal, root, tid),
                    AttackKind::Crouting => self.crouting(job, &bundle, journal, root, tid),
                };
                tr.span("engine.store.save", Some(root), tid, |_| {
                    self.store.save_outcome(job, &metrics)
                });
                metrics
            });
            let finished = Event::JobFinished {
                job: EventJob::of(job),
                metrics: metrics.clone(),
                provenance: Provenance {
                    source: MetricsSource::Computed,
                    bundle_key: job.bundle_key().id(),
                    derived_seed: job.derived_seed(),
                    threads: exec.threads() as u64,
                    wall_ms: 0.0,
                    phases: Vec::new(),
                },
            };
            self.record(journal, finished, Some(root), tid);
            metrics
        })
    }

    /// One stage fetch as the cache makes it: store decode, else build
    /// and persist.
    fn stage<T: Encode + Decode>(
        &self,
        stage: Stage,
        id: &str,
        journal: &Journal,
        parent: usize,
        tid: usize,
        build: impl FnOnce() -> T,
    ) -> (T, bool) {
        let tr = self.tracer;
        let start = Instant::now();
        let loaded = tr.span("engine.store.load", Some(parent), tid, |_| {
            self.store.load_stage::<T>(stage, id)
        });
        let (value, built) = match loaded {
            Some(value) => (value, false),
            None => {
                let value = build();
                tr.span("engine.store.save", Some(parent), tid, |_| {
                    self.store.save_stage(stage, id, &value)
                });
                (value, true)
            }
        };
        let what = if built { "build" } else { "decode" };
        let event = Event::BundleBuilt {
            key: id.to_string(),
            stage: format!("{}-{what}", stage.label()),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        };
        self.record(journal, event, Some(parent), tid);
        (value, built)
    }

    /// The job's bundle, assembled once per key (later jobs wait on the
    /// first, as they do on the cache's slot).
    fn bundle(
        &self,
        job: &Job,
        exec: &Budget,
        journal: &Journal,
        parent: usize,
        tid: usize,
    ) -> Bundle {
        let key = job.bundle_key();
        let slot = Arc::clone(
            self.bundles
                .lock()
                .expect("bundles")
                .entry(key)
                .or_default(),
        );
        slot.get_or_init(|| {
            let start = Instant::now();
            let (bundle, built) = self.assemble(job, exec, journal, parent, tid);
            if built {
                self.counts.builds.fetch_add(1, Ordering::Relaxed);
            }
            let event = Event::BundleBuilt {
                key: key.id(),
                stage: if built { "build" } else { "decode" }.to_string(),
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            };
            self.record(journal, event, Some(parent), tid);
            bundle
        })
        .clone()
    }

    fn assemble(
        &self,
        job: &Job,
        exec: &Budget,
        journal: &Journal,
        parent: usize,
        tid: usize,
    ) -> (Bundle, bool) {
        let tr = self.tracer;
        let seed = job.bundle_seed();
        let id = job.bundle_key().id();
        let (netlist, n_built) = self.stage(Stage::Netlist, &id, journal, parent, tid, || {
            tr.span("benchgen.generate", Some(parent), tid, |_| {
                match &job.benchmark {
                    Benchmark::Iscas(p) => iscas::generate(p, seed),
                    Benchmark::Superblue(p, scale) => superblue::generate(p, *scale, seed),
                }
            })
        });
        let config = flow_config(&job.benchmark, seed);
        let arm = exec.split(2);
        let ((protected, p_built), (original, o_built)) = exec.join(
            || {
                self.stage(Stage::Protect, &id, journal, parent, tid, || {
                    tr.entry("core.protect", Some(parent), tid, PROTECT_PLACE, |rec| {
                        protect_traced(&netlist, &config, &arm, rec)
                    })
                })
            },
            || {
                self.stage(Stage::Layout, &id, journal, parent, tid, || {
                    tr.entry("core.baseline", Some(parent), tid, ORIGINAL_PLACE, |rec| {
                        original_layout_traced(&netlist, config.utilization, seed, &arm, rec)
                    })
                })
            },
        );
        match &job.benchmark {
            Benchmark::Iscas(p) => {
                let run = IscasRun {
                    name: p.name,
                    netlist,
                    original,
                    protected,
                };
                (Bundle::Iscas(Arc::new(run)), n_built || p_built || o_built)
            }
            Benchmark::Superblue(p, _) => {
                let protected_nets = protected.protected_nets();
                let (lifted, l_built) = self.stage(Stage::Lift, &id, journal, parent, tid, || {
                    tr.entry("core.lift", Some(parent), tid, LIFT_PLACE, |rec| {
                        naive_lifting_traced(
                            &netlist,
                            &protected_nets,
                            config.lift_layer,
                            config.utilization,
                            seed,
                            exec,
                            rec,
                        )
                    })
                });
                let run = SuperblueRun {
                    name: p.name,
                    netlist,
                    original,
                    lifted,
                    protected,
                    protected_nets,
                };
                let built = n_built || p_built || o_built || l_built;
                (Bundle::Superblue(Arc::new(run)), built)
            }
        }
    }

    /// The split view of one arm, memoized per (bundle, arm, layer) and
    /// persisted as a split-stage artifact, as the cache does.
    fn split(
        &self,
        job: &Job,
        arm: SplitArm,
        journal: &Journal,
        parent: usize,
        tid: usize,
        build: impl FnOnce() -> SplitLayout,
    ) -> Arc<SplitLayout> {
        let key = job.bundle_key();
        let layer = job.split_layer;
        self.tracer.span("layout.split", Some(parent), tid, |s| {
            let slot = {
                let mut splits = self.splits.lock().expect("splits");
                Arc::clone(splits.entry((key, arm, layer)).or_default())
            };
            let split = slot.get_or_init(|| {
                let id = format!("{}-{}-l{layer}", key.id(), arm.id());
                let split = self.stage(Stage::Split, &id, journal, s, tid, build).0;
                self.counts
                    .vpins
                    .fetch_add(split.feol.vpins.len() as u64, Ordering::Relaxed);
                Arc::new(split)
            });
            Arc::clone(split)
        })
    }

    fn flow(
        &self,
        job: &Job,
        bundle: &Bundle,
        exec: &Budget,
        journal: &Journal,
        root: usize,
        tid: usize,
    ) -> JobMetrics {
        let tr = self.tracer;
        let cfg = ProximityConfig {
            eval_seed: Some(job.derived_seed()),
            ..ProximityConfig::default()
        };
        let layer = job.split_layer;
        let netlist = bundle.netlist();
        let protected = bundle.protected();
        let erroneous = &protected.randomization.erroneous;
        let split_prot = self.split(job, SplitArm::Protected, journal, root, tid, || {
            split_layout(
                erroneous,
                &protected.placement,
                &protected.feol_routing,
                layer,
            )
        });
        let out = tr
            .entry("attacks.flow", Some(root), tid, FLOW_PHASES, |rec| {
                network_flow_attack_budgeted(
                    netlist,
                    erroneous,
                    &protected.placement,
                    &split_prot,
                    &cfg,
                    exec,
                    rec,
                )
            })
            .expect("an uncancelled budget completes the attack");
        let demand = split_prot
            .feol
            .vpins
            .iter()
            .filter(|v| matches!(v.side, VpinSide::Sink(_)))
            .count();
        self.counts
            .demand
            .fetch_add(demand as u64, Ordering::Relaxed);
        self.counts
            .pairs
            .fetch_add(out.pairs.len() as u64, Ordering::Relaxed);
        let ccr = tr.span("attacks.flow.ccr", Some(root), tid, |_| {
            ccr_over_connections(&split_prot, &out.pairs, &bundle.swapped())
        });
        let original = bundle.original();
        let split_orig = self.split(job, SplitArm::Original, journal, root, tid, || {
            split_layout(netlist, &original.placement, &original.routing, layer)
        });
        let out_orig = tr
            .span("attacks.flow.original", Some(root), tid, |_| {
                network_flow_attack_budgeted(
                    netlist,
                    netlist,
                    &original.placement,
                    &split_orig,
                    &cfg,
                    exec,
                    &mut sm_exec::phase::Recorder::new(),
                )
            })
            .expect("an uncancelled budget completes the attack");
        JobMetrics::Flow {
            ccr_protected_pct: ccr * 100.0,
            oer_pct: out.metrics.oer * 100.0,
            hd_pct: out.metrics.hd * 100.0,
            ccr_original_pct: out_orig.ccr * 100.0,
        }
    }

    fn crouting(
        &self,
        job: &Job,
        bundle: &Bundle,
        journal: &Journal,
        root: usize,
        tid: usize,
    ) -> JobMetrics {
        let tr = self.tracer;
        let cfg = CroutingConfig::default();
        let layer = job.split_layer;
        let netlist = bundle.netlist();
        let protected = bundle.protected();
        let erroneous = &protected.randomization.erroneous;
        let split_prot = self.split(job, SplitArm::Protected, journal, root, tid, || {
            split_layout(
                erroneous,
                &protected.placement,
                &protected.feol_routing,
                layer,
            )
        });
        let rep_prot = tr.entry(
            "attacks.crouting",
            Some(root),
            tid,
            CROUTING_PHASES,
            |rec| crouting_attack_traced(erroneous, &split_prot, &cfg, rec),
        );
        let original = bundle.original();
        let split_orig = self.split(job, SplitArm::Original, journal, root, tid, || {
            split_layout(netlist, &original.placement, &original.routing, layer)
        });
        let rep_orig = tr.entry(
            "attacks.crouting",
            Some(root),
            tid,
            CROUTING_PHASES,
            |rec| crouting_attack_traced(netlist, &split_orig, &cfg, rec),
        );
        let boxes = rep_prot
            .boxes
            .iter()
            .zip(&rep_orig.boxes)
            .map(|(p, o)| {
                (
                    p.bbox_tracks,
                    p.expected_list_size,
                    p.match_in_list,
                    o.expected_list_size,
                    o.match_in_list,
                )
            })
            .collect();
        JobMetrics::Crouting {
            vpins_protected: rep_prot.num_vpins,
            vpins_original: rep_orig.num_vpins,
            boxes,
        }
    }
}

/// The flow configuration the bundle builders use.
fn flow_config(benchmark: &Benchmark, seed: u64) -> FlowConfig {
    match benchmark {
        Benchmark::Iscas(_) => FlowConfig::iscas_default(seed),
        Benchmark::Superblue(p, _) => FlowConfig {
            utilization: p.utilization(),
            ..FlowConfig::superblue_default(seed)
        },
    }
}

/// Layout fingerprint of one bundle: placement HPWL, via and overflow
/// totals over every routing, kept swaps and worst PPA overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fingerprint {
    hpwl: i64,
    vias: u64,
    overflow: u64,
    swaps: u64,
    ppa: f64,
}

impl Fingerprint {
    fn of(netlist: &Netlist, protected: &ProtectedDesign, original: &BaselineLayout) -> Self {
        let erroneous = &protected.randomization.erroneous;
        let routings = [
            &protected.feol_routing,
            &protected.restored_routing,
            &original.routing,
        ];
        Fingerprint {
            hpwl: protected.placement.total_hpwl(erroneous)
                + original.placement.total_hpwl(netlist),
            vias: routings.iter().map(|r| r.via_counts().total()).sum(),
            overflow: routings.iter().map(|r| r.overflow_edges() as u64).sum(),
            swaps: protected.randomization.swaps.len() as u64,
            ppa: protected.ppa_overhead.worst_pct(),
        }
    }
}

/// Probe counters (deterministic).
#[derive(Debug, Default)]
struct ProbeCounts {
    swaps_attempted: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// Times the layers `protect_traced` hides, one call each on the
/// bundle's own inputs, checking each output against the bundle's.
fn probe_bundle(tr: &Tracer, job: &Job, bundle: &Bundle, q: &mut Quality, pc: &mut ProbeCounts) {
    let name = job.benchmark.name();
    let netlist = bundle.netlist();
    let p = bundle.protected();
    let config = flow_config(&job.benchmark, job.bundle_seed());
    let tech = Technology::nangate45_10lm();
    let mismatch = connectivity_mismatch(netlist, &p.restored);
    q.expect(mismatch.is_none(), || {
        format!("{name}: restored netlist differs from golden: {mismatch:?}")
    });
    let full = tr.span("core.randomize", None, PROBE, |_| {
        randomize(netlist, &config.randomize)
    });
    pc.swaps_attempted += full.swaps.len() as u64;
    let kept = &p.randomization.swaps;
    q.expect(full.swaps.starts_with(kept), || {
        format!("{name}: kept swaps are not a prefix of the randomization")
    });
    let pitch = tech.layer(config.lift_layer).pitch_dbu;
    let erroneous = &p.randomization.erroneous;
    let cells = tr.span("core.correction", None, PROBE, |_| {
        embed_correction_cells(erroneous, &p.placement, kept, config.lift_layer, pitch)
    });
    q.expect(cells == p.correction_cells, || {
        format!("{name}: correction cells differ")
    });
    q.expect(correction_cells_legal(&cells), || {
        format!("{name}: correction cells overlap")
    });
    let mut opts = RouteOptions::default();
    for net in p.protected_nets() {
        opts.lift.insert(net, config.lift_layer);
    }
    let routing = tr.span("layout.route", None, PROBE, |_| {
        Router::new(&tech).try_route(
            &p.restored,
            &p.placement,
            &p.floorplan,
            &opts,
            &CancelToken::new(),
        )
    });
    let same_vias = routing
        .as_ref()
        .is_some_and(|r| r.via_counts() == p.restored_routing.via_counts());
    q.expect(same_vias, || format!("{name}: restored routing differs"));
    let ppa = tr.span("core.ppa", None, PROBE, |_| {
        evaluate(
            &p.restored,
            &p.restored_routing,
            &p.floorplan,
            &tech,
            config.seed,
        )
    });
    q.expect(ppa == p.ppa, || format!("{name}: PPA differs"));
    if matches!(job.benchmark, Benchmark::Iscas(_)) {
        let verdict = tr.span("sim.equiv", None, PROBE, |_| {
            check(netlist, &p.restored, EQUIV_CONFLICTS)
        });
        q.expect(matches!(verdict, Ok(Equivalence::Equivalent)), || {
            format!("{name}: equivalence check returned {verdict:?}")
        });
    }
    codec_probe(tr, netlist, q, pc);
    codec_probe(tr, p, q, pc);
    codec_probe(tr, bundle.original(), q, pc);
}

/// Times encode, compress and decompress of one artifact the store
/// persists, checking the round trip.
fn codec_probe<T: Encode>(tr: &Tracer, value: &T, q: &mut Quality, pc: &mut ProbeCounts) {
    let raw = tr.span("codec.encode", None, PROBE, |_| encode_to_vec(value));
    let packed = tr.span("codec.lz.compress", None, PROBE, |_| lz::compress(&raw));
    let back = tr.span("codec.lz.decompress", None, PROBE, |_| {
        lz::decompress(&packed, raw.len())
    });
    q.expect(back.as_deref() == Ok(&raw[..]), || {
        "LZ round trip differs".into()
    });
    pc.bytes_in += raw.len() as u64;
    pc.bytes_out += packed.len() as u64;
}

/// The traced run of workload `w`.
pub fn run(w: Workload, seed: u64, work: &Path) -> Result<Outcome, String> {
    // Untraced reference.
    let (p, setup_s) = setup(w, seed, &work.join("reference"))?;
    let reference = timed(&p);
    let ref_dir: PathBuf = teardown(p)?;
    let reference = reference?;
    let ref_store = ref_dir.join("store");
    let spec = w.spec(seed);
    let walls = measure::job_walls_ms(&ref_store, &spec)?;
    let ref_events = measure::journal_events(&ref_store, &spec)?;
    let capacity_ms = reference.campaign_s * 1e3 * THREADS as f64;
    let idle_pct = 100.0 * (1.0 - walls.iter().sum::<f64>() / capacity_ms);
    let job_max_s = walls.iter().copied().fold(0.0, f64::max) / 1e3;

    // Traced replay into a store of its own.
    let tracer = Tracer::new();
    let replay_root = work.join("replay");
    let replayer = Replayer {
        tracer: &tracer,
        store: ArtifactStore::open(&replay_root, None),
        bundles: Mutex::default(),
        splits: Mutex::default(),
        counts: Counts::default(),
    };
    let budget = Budget::with_threads(Some(THREADS));
    let mut q = Quality::default();
    let mut phases: Vec<(&str, f64, f64)> = Vec::new();
    let mut replayed = Vec::new();
    let mut base = 0;
    let warm = w.warmup(seed);
    if w.warmup_shares_store() {
        // Part of the workload: its bundle is what the campaign reads.
        let t = Instant::now();
        let outcomes = replayer.campaign(&warm, &budget, base)?;
        // The untraced set-up also starts the service.
        phases.push(("set-up", t.elapsed().as_secs_f64(), setup_s));
        base += outcomes.len() + 1;
        replayed.extend(outcomes);
    } else {
        // Warms the process only, as in the untraced set-up.
        run_sweep_budgeted(&warm, &budget, &ArtifactCache::new(), None)?;
    }
    let t = Instant::now();
    let outcomes = replayer.campaign(&spec, &budget, base)?;
    phases.push(("campaign", t.elapsed().as_secs_f64(), reference.campaign_s));
    let pool = budget.pool().stats();

    // Fingerprints: results, then layouts, against the reference.
    for (mine, theirs) in outcomes.iter().zip(&reference.campaign.outcomes) {
        q.expect(mine.metrics == theirs.metrics, || {
            format!(
                "job {} ({}): replayed {:?} != campaign {:?}",
                mine.job.index,
                mine.job.benchmark.name(),
                mine.metrics,
                theirs.metrics
            )
        });
    }
    q.expect(outcomes.len() == reference.campaign.outcomes.len(), || {
        "replayed job count differs".into()
    });
    let ref_reader = ArtifactStore::open(&ref_store, None);
    let mut fp_total = Fingerprint {
        hpwl: 0,
        vias: 0,
        overflow: 0,
        swaps: 0,
        ppa: 0.0,
    };
    let mut probes = ProbeCounts::default();
    replayed.extend(outcomes);
    let mut seen = BTreeSet::new();
    for o in &replayed {
        let key = o.job.bundle_key();
        if !seen.insert(key.id()) {
            continue;
        }
        let slot = replayer.bundles.lock().expect("bundles").get(&key).cloned();
        let Some(bundle) = slot.and_then(|s| s.get().cloned()) else {
            continue;
        };
        let fp = Fingerprint::of(bundle.netlist(), bundle.protected(), bundle.original());
        let id = key.id();
        let theirs = (
            ref_reader.load_stage::<Netlist>(Stage::Netlist, &id),
            ref_reader.load_stage::<ProtectedDesign>(Stage::Protect, &id),
            ref_reader.load_stage::<BaselineLayout>(Stage::Layout, &id),
        );
        let same = match &theirs {
            (Some(n), Some(p), Some(b)) => Fingerprint::of(n, p, b) == fp,
            _ => false,
        };
        q.expect(same, || {
            format!("{id}: layout fingerprint differs from the campaign's")
        });
        fp_total.hpwl += fp.hpwl;
        fp_total.vias += fp.vias;
        fp_total.overflow += fp.overflow;
        fp_total.swaps += fp.swaps;
        fp_total.ppa = fp_total.ppa.max(fp.ppa);
        probe_bundle(&tracer, &o.job, &bundle, &mut q, &mut probes);
    }
    let replay_events = {
        let path = Journal::for_spec(&replay_root, &spec);
        sm_engine::journal::read_events(path.path())?.len()
    };
    q.expect(replay_events == ref_events, || {
        format!("replay journaled {replay_events} events, campaign {ref_events}")
    });
    let store_stats = replayer.store.stats();
    let peak_live = pool.peak_live.max(reference.pool.peak_live);
    q.expect(peak_live <= THREADS, || {
        format!("pool peak {peak_live} exceeds {} threads", THREADS)
    });

    // Self times.
    let spans = tracer.spans();
    let timeline = Totals::of(&spans, |s| s.trace != PROBE);
    let probe = Totals::of(&spans, |s| s.trace == PROBE);
    let job_ms: f64 = spans
        .iter()
        .filter(|s| s.name == "engine.campaign.job")
        .map(|s| s.ms())
        .sum();
    let job_self = Totals::of(&spans, |s| s.name == "engine.campaign.job").self_total();

    println!(
        "traced replay of {} (seed {seed}, {} threads)",
        w.name(),
        THREADS
    );
    for (phase, traced, untraced) in &phases {
        println!(
            "  {phase}: traced {traced:.3} s vs untraced {untraced:.3} s (tracing overhead {:+.1}%)",
            100.0 * (traced / untraced - 1.0)
        );
    }
    let replay_wall: f64 = phases.iter().map(|p| p.1).sum::<f64>() * 1e3;
    let self_sum = timeline.self_total();
    println!(
        "  jobs: {job_ms:.1} thread-ms in jobs; layer spans cover all but {job_self:.1} ms (residual {:.2}% of job time)",
        100.0 * job_self / job_ms
    );
    println!(
        "  capacity: {:.1} thread-ms ({} threads x traced wall); spans {self_sum:.1} ms; idle/unattributed {:.1}%",
        replay_wall * THREADS as f64,
        THREADS,
        100.0 * (1.0 - self_sum / (replay_wall * THREADS as f64))
    );
    println!("  self time per module (thread-ms):");
    for (module, ms) in timeline.modules() {
        println!("    {module:<10} {ms:>12.2}");
    }
    println!(
        "  {:<32} {:>12} {:>12} {:>7}",
        "span", "incl ms", "self ms", "count"
    );
    for (name, (incl, own, n)) in &timeline.by_name {
        println!("  {name:<32} {incl:>12.2} {own:>12.2} {n:>7}");
    }
    println!("  probes (one call each on the bundle's own inputs, off the timeline):");
    for (name, (incl, _, n)) in &probe.by_name {
        println!("  {name:<32} {incl:>12.2} {:>12} {n:>7}", "");
    }
    if let (Some(a), Some(r)) = (reference.admit_s, reference.report_tail_s) {
        println!(
            "  serve (untraced reference): engine.serve.admit_ms {:.3}  engine.serve.report_ms {:.3}  engine.serve.steals {}",
            a * 1e3,
            r * 1e3,
            reference.steals
        );
    }
    let c = &replayer.counts;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    let counts = [
        Metric::new("attacks.flow.demand", load(&c.demand), "count"),
        Metric::new("attacks.flow.pairs", load(&c.pairs), "count"),
        Metric::new("layout.place.hpwl_dbu", fp_total.hpwl as f64, "dbu"),
        Metric::new("layout.route.vias", fp_total.vias as f64, "count"),
        Metric::new(
            "layout.route.overflow_edges",
            fp_total.overflow as f64,
            "count",
        ),
        Metric::new("layout.split.vpins", load(&c.vpins), "count"),
        Metric::new(
            "core.randomize.swaps",
            probes.swaps_attempted as f64,
            "count",
        ),
        Metric::new("core.protect.swaps_kept", fp_total.swaps as f64, "count"),
        Metric::new("codec.lz.bytes_in", probes.bytes_in as f64, "bytes"),
        Metric::new("codec.lz.bytes_out", probes.bytes_out as f64, "bytes"),
        Metric::new("engine.store.writes", store_stats.writes as f64, "count"),
        Metric::new(
            "engine.store.disk_hits",
            store_stats.disk_hits as f64,
            "count",
        ),
        Metric::new("engine.cache.builds", load(&c.builds), "count"),
        Metric::new("engine.journal.events", load(&c.events), "count"),
    ];
    for f in &q.failures {
        println!("FAILED CHECK: {f}");
    }
    let digest_text: String = counts
        .iter()
        .map(|c| format!("{}={};", c.name, c.value))
        .collect();
    println!(
        "  deterministic counts (digest {:016x}):",
        sm_engine::job::fnv1a(&digest_text)
    );
    for c in &counts {
        println!("    {:<30} {:>16} {}", c.name, c.value, c.unit);
    }

    let mut metrics: Vec<Metric> = REPORTED_MS
        .iter()
        .map(|&name| {
            Metric::new(
                leak(format!("{name}_ms")),
                timeline.ms(name) + probe.ms(name),
                "ms",
            )
        })
        .collect();
    for (module, ms) in timeline.modules() {
        if ["engine", "layout", "core", "attacks"].contains(&module) {
            metrics.push(Metric::new(leak(format!("{module}.self_ms")), ms, "ms"));
        }
    }
    metrics.extend(counts);
    let keep_ratio = fp_total.swaps as f64 / probes.swaps_attempted.max(1) as f64;
    let panics = pool.panics_caught + reference.pool.panics_caught;
    metrics.extend([
        Metric::new("core.protect.keep_ratio", keep_ratio, "ratio"),
        Metric::new("engine.campaign.idle_pct", idle_pct, "%"),
        Metric::new("engine.campaign.job_max_s", job_max_s, "s"),
        Metric::new("engine.serve.steals", reference.steals as f64, "count"),
        Metric::new("exec.pool.peak_live", peak_live as f64, "count"),
        Metric::new("exec.pool.panics_caught", panics as f64, "count"),
        Metric::new("trace.wall_s", replay_wall / 1e3, "s"),
        Metric::new(
            "trace.untraced_wall_s",
            phases.iter().map(|p| p.2).sum(),
            "s",
        ),
    ]);
    std::fs::remove_dir_all(&ref_dir)
        .map_err(|e| format!("removing {}: {e}", ref_dir.display()))?;
    Ok(Outcome {
        attempted: replayed.len() as u64 + q.checks,
        failed: q.failures.len() as u64,
        metrics,
    })
}

/// Metric names built at run time live for the whole (short) process.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}
