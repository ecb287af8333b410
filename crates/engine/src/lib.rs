//! `sm-engine` — the parallel experiment-campaign engine.
//!
//! The DAC'18 reproduction originally regenerated every table and figure
//! through one-shot binaries that each rebuilt the same
//! protect→place→route→split→attack bundles serially. This crate turns
//! experiments into *data* and owns the machinery around them:
//!
//! * [`job`] — the [`Job`](job::Job) type (benchmark × seed × split layer
//!   × attack) with deterministic per-job seed derivation;
//! * [`bundle`] — the heavyweight layout bundles
//!   ([`IscasRun`](bundle::IscasRun), [`SuperblueRun`](bundle::SuperblueRun))
//!   every table consumes;
//! * [`cache`] — a content-keyed artifact cache guaranteeing each
//!   bundle is built exactly once per campaign, with refcounted release
//!   once a bundle's last consuming job finishes;
//! * [`store`] — the disk-backed tier under the cache: bundles and
//!   finished job results persist across processes under `.sm-store/`,
//!   so repeated runs decode instead of rebuilding;
//! * [`journal`] — the append-only, checksummed campaign event log
//!   under `.sm-store/journal/`: per-job provenance, live progress
//!   (`smctl tail`/`events`) and crash-safe resume, with the canonical
//!   report as a deterministic materialization of the log;
//! * [`campaign`] — sweep expansion, the one execution envelope that
//!   sweeps, resumes and served campaigns share, budgeted job execution
//!   with deadline/cancellation (timed-out jobs are a distinct outcome
//!   that `smctl resume` re-runs), seed-sweep aggregation
//!   (mean/σ/min/max) and report assembly, including resuming a stored
//!   campaign and merging sharded reports (`smctl merge`);
//! * [`report`] — deterministic JSON/CSV emission (timings opt-in, so
//!   canonical reports are byte-identical across runs);
//! * [`serve`] — the long-running campaign service behind `smctl
//!   serve`: a socket-facing coordinator with a bounded campaign queue
//!   and admission control, whose reports are byte-identical to a solo
//!   sweep.
//!
//! Scheduling and resource ownership come from `sm_exec`, whose
//! persistent work-stealing [`Pool`], splittable [`Budget`] and
//! [`CancelToken`] are re-exported at this crate's root: the campaign's
//! thread allotment is divided among jobs, so nested parallel work
//! shares one pool and output order stays independent of scheduling.
//!
//! The `smctl` CLI (in `sm-bench`, next to the experiment definitions)
//! sits on top of these primitives; `smctl run <artifact>` regenerates
//! each table and figure.
//!
//! # Example
//!
//! ```no_run
//! use sm_engine::campaign::{run_sweep, SweepSpec};
//! use sm_engine::report::ReportOptions;
//! use sm_engine::Budget;
//!
//! let spec = SweepSpec {
//!     benchmarks: vec!["c432".into(), "c880".into()],
//!     seeds: vec![1, 2, 3, 4],
//!     split_layers: vec![3, 4, 6],
//!     ..SweepSpec::default()
//! };
//! let campaign = run_sweep(&spec, &Budget::default()).unwrap();
//! println!("{}", campaign.to_json(ReportOptions::default()).render());
//! eprintln!("{}", campaign.summary());
//! ```

#![warn(missing_docs)]

pub mod bundle;
pub mod cache;
pub mod campaign;
pub mod job;
pub mod journal;
pub mod report;
pub mod serve;
pub mod store;

pub use bundle::{iscas_selection, superblue_selection, IscasRun, StageSource, SuperblueRun};
pub use cache::{ArtifactCache, BundleKey, CacheStats, CoreStats, SplitArm, StageStats};
pub use campaign::{
    merge_reports, resume_campaign, run_job, run_sweep, run_sweep_budgeted, Campaign, JobMetrics,
    JobOutcome, SweepSpec,
};
pub use job::{AttackKind, Benchmark, Job};
pub use journal::{Event, Journal, JournalFollower};
pub use report::{Json, ReportOptions};
pub use serve::{client_shutdown, client_status, client_submit, serve, ServeConfig, ServiceStatus};
pub use sm_exec::{Budget, CancelToken, Pool, PoolStats};
pub use store::{
    ArtifactStore, Stage, StageHealth, StageUsage, StoreHealth, StoreLock, StoreStats, StoreUsage,
};

#[cfg(test)]
mod tests {
    use super::cache::{ArtifactCache, CoreStats};
    use super::campaign::{merge_outcomes, run_sweep, run_sweep_budgeted, Campaign, SweepSpec};
    use super::job::AttackKind;
    use super::report::ReportOptions;
    use super::Budget;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            benchmarks: vec!["c432".into()],
            seeds: vec![1, 2],
            split_layers: vec![4],
            // Both attacks, so the CSV emitters' flow *and* crouting row
            // shapes are covered by the byte-identity + round-trip checks.
            attacks: vec![AttackKind::NetworkFlow, AttackKind::Crouting],
            scale: 100,
            master_seed: 1,
            layout_seed: None,
        }
    }

    /// The headline engine guarantee: identical specs produce
    /// byte-identical canonical reports despite parallel, work-stealing
    /// execution — and bundles are built exactly once per (bench, seed).
    #[test]
    fn reports_are_byte_identical_across_runs() {
        let spec = tiny_spec();
        let a = run_sweep(&spec, &Budget::with_threads(Some(4))).unwrap();
        let b = run_sweep(&spec, &Budget::with_threads(Some(2))).unwrap();
        let ja = a.to_json(ReportOptions::default()).render();
        let jb = b.to_json(ReportOptions::default()).render();
        assert_eq!(ja, jb);
        let ca = a.to_csv(ReportOptions::default());
        let cb = b.to_csv(ReportOptions::default());
        assert_eq!(ca, cb);
        // Two (bench, seed) points, one bundle build each.
        assert_eq!(a.cache.builds, 2);
        assert_eq!(a.cache.hits as usize, a.outcomes.len() - 2);
        // A stored report parses back to the same CSV as direct emission.
        let parsed = crate::report::Json::parse(&ja).unwrap();
        let reparsed = Campaign::from_json(&parsed).unwrap();
        assert_eq!(reparsed.to_csv(ReportOptions::default()), ca);
    }

    /// A pinned-layout seed sweep builds one attack core per arm and
    /// shares it across seeds, invisibly in the bytes: the 4-seed report
    /// equals the four single-seed sweeps, each on its own cache, merged.
    #[test]
    fn pinned_seed_sweep_shares_cores_and_matches_single_seed_sweeps() {
        let spec = SweepSpec {
            seeds: vec![1, 2, 3, 4],
            attacks: vec![AttackKind::NetworkFlow],
            layout_seed: Some(7),
            ..tiny_spec()
        };
        let cache = ArtifactCache::new();
        // Four threads, two lanes: each job holds two threads, so the
        // two arms' cores are fetched concurrently.
        let pinned =
            run_sweep_budgeted(&spec, &Budget::with_threads(Some(4)), &cache, None).unwrap();
        assert_eq!(
            cache.core_stats(),
            CoreStats {
                built: 2,
                reused: 6
            }
        );
        let mut singles = Vec::new();
        for &seed in &spec.seeds {
            let one = SweepSpec {
                seeds: vec![seed],
                ..spec.clone()
            };
            let cache = ArtifactCache::new();
            let c = run_sweep_budgeted(&one, &Budget::with_threads(Some(1)), &cache, None).unwrap();
            assert_eq!(cache.core_stats().built, 2);
            singles.extend(c.outcomes);
        }
        let expected = pinned.to_json(ReportOptions::default()).render();
        let merged = Campaign {
            outcomes: merge_outcomes(&spec.jobs().unwrap(), Vec::new(), singles),
            ..pinned
        };
        assert_eq!(merged.to_json(ReportOptions::default()).render(), expected);
    }

    /// Timing-inclusive reports carry the same job payloads plus
    /// wall-clock fields.
    #[test]
    fn timed_reports_add_wall_clock_fields() {
        let spec = SweepSpec {
            seeds: vec![1],
            ..tiny_spec()
        };
        let c = run_sweep(&spec, &Budget::with_threads(Some(2))).unwrap();
        let plain = c.to_json(ReportOptions::default()).render();
        let timed = c
            .to_json(ReportOptions {
                include_timings: true,
            })
            .render();
        assert!(!plain.contains("wall_ms"));
        // Canonical output is pinned: the journal/metrics layer must not
        // leak phase spans or pool counters into it.
        assert!(!plain.contains("phases"));
        assert!(!plain.contains("pool"));
        assert!(timed.contains("wall_ms"));
        assert!(timed.contains("threads"));
        assert!(timed.contains("phases"));
        assert!(timed.contains("pool"));
        assert!(timed.contains("peak_live"));
    }
}
