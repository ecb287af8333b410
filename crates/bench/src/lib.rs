//! Experiment definitions regenerating every table and figure of the
//! paper, plus the unified `smctl` CLI.
//!
//! The heavy machinery — job scheduling, the bundle cache, parallel
//! execution, report emission — lives in [`sm_engine`]; this crate holds
//! what is specific to the paper: the printed artifacts with their
//! measurements ([`artifacts`]), the published numbers ([`quotes`]) and
//! the CLI wiring ([`session`], [`cli`], `src/bin/smctl.rs`).
//!
//! | artifact | `smctl run` name | runner |
//! |----------|--------|--------|
//! | Table 1  | `table1` | `artifacts::run_table1` |
//! | Table 2  | `table2` | `artifacts::run_table2` |
//! | Table 3  | `table3` | `artifacts::run_table3` |
//! | Table 4  | `table4` | `artifacts::run_table4` (rows from `artifacts::security_row`) |
//! | Table 5  | `table5` | `artifacts::run_table5` (rows from `artifacts::security_row`) |
//! | Table 6  | `table6` | `artifacts::run_table6` |
//! | Fig. 4   | `fig4` | `artifacts::run_fig4` |
//! | Fig. 5   | `fig5` | `artifacts::run_fig5` |
//! | Fig. 6   | `fig6` | `artifacts::run_fig6` |
//!
//! `smctl run <artifact>` accepts `--seed N`, `--scale N` (superblue
//! down-scaling), `--threads N` and `--quick` (smaller benchmark
//! selection); `=`-forms (`--seed=N`) work too. `smctl run all`
//! regenerates everything through one shared bundle cache.

#![warn(missing_docs)]

pub mod artifacts;
pub mod cli;
pub mod quotes;
pub mod session;

use std::sync::Arc;

use sm_engine::store::ArtifactStore;
use sm_engine::ArtifactCache;
use sm_exec::fault::FaultInject;

/// Where the disk-backed artifact store lives, if anywhere.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StoreMode {
    /// No preference given: the caller decides (`smctl run`/`sweep`
    /// default to `.sm-store/`, a bare [`session::Session`] to no
    /// store).
    #[default]
    Auto,
    /// `--no-store`: run without persistence.
    Off,
    /// `--store DIR`: persist bundles and job outcomes under `DIR`.
    At(String),
}

/// Command-line options shared by the `smctl` subcommands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Master seed.
    pub seed: u64,
    /// Superblue down-scaling factor (100 ⇒ 1/100 of the real design).
    pub scale: usize,
    /// Quick mode: fewer/smaller benchmarks.
    pub quick: bool,
    /// Worker threads (`None` = machine parallelism).
    pub threads: Option<usize>,
    /// Campaign deadline in seconds (`--timeout-secs`): jobs picked up
    /// after it are recorded timed-out and left for `smctl resume`.
    pub timeout_secs: Option<u64>,
    /// Disk-backed artifact store selection.
    pub store: StoreMode,
    /// Store size budget in bytes (`--store-cap`, e.g. `512M`).
    pub store_cap: Option<u64>,
    /// Fault-injection seed (`--fault-seed`): derives a deterministic
    /// [`sm_exec::fault::FaultPlan`] threaded into store I/O, journal
    /// appends and job execution.
    pub fault_seed: Option<u64>,
    /// Fault-injection profile (`--fault-profile off|light|aggressive`).
    pub fault_profile: Option<sm_exec::fault::FaultProfile>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 1,
            scale: 100,
            quick: false,
            threads: None,
            timeout_secs: None,
            store: StoreMode::Auto,
            store_cap: None,
            fault_seed: None,
            fault_profile: None,
        }
    }
}

impl RunOptions {
    /// Parses `--seed N`, `--scale N`, `--threads N`, `--quick` and the
    /// store/fault flags from an argument slice.
    ///
    /// Both `--seed 7` and `--seed=7` are accepted. Malformed or missing
    /// values are **rejected**, not silently defaulted. Unknown flags are
    /// ignored so every `smctl` subcommand can share one argument list
    /// with its own flags.
    pub fn from_slice(args: &[String]) -> Result<Self, String> {
        let mut opts = RunOptions::default();
        let mut i = 0;
        while i < args.len() {
            let (flag, inline) = cli::split_flag(args[i].as_str());
            match flag {
                "--seed" => {
                    let v = cli::flag_value("--seed", inline, args, &mut i)?;
                    opts.seed = v
                        .parse()
                        .map_err(|e| format!("invalid --seed `{v}`: {e}"))?;
                }
                "--scale" => {
                    let v = cli::flag_value("--scale", inline, args, &mut i)?;
                    opts.scale = v
                        .parse()
                        .map_err(|e| format!("invalid --scale `{v}`: {e}"))?;
                    if opts.scale == 0 {
                        return Err("invalid --scale `0`: must be ≥ 1".into());
                    }
                }
                "--threads" => {
                    let v = cli::flag_value("--threads", inline, args, &mut i)?;
                    let t: usize = v
                        .parse()
                        .map_err(|e| format!("invalid --threads `{v}`: {e}"))?;
                    opts.threads = (t > 0).then_some(t);
                }
                "--timeout-secs" => {
                    let v = cli::flag_value("--timeout-secs", inline, args, &mut i)?;
                    let secs: u64 = v
                        .parse()
                        .map_err(|e| format!("invalid --timeout-secs `{v}`: {e}"))?;
                    if secs == 0 {
                        return Err("invalid --timeout-secs `0`: must be ≥ 1".into());
                    }
                    opts.timeout_secs = Some(secs);
                }
                "--quick" => {
                    cli::no_value("--quick", inline)?;
                    opts.quick = true;
                }
                "--store" => {
                    let v = cli::flag_value("--store", inline, args, &mut i)?;
                    opts.store = StoreMode::At(v);
                }
                "--no-store" => {
                    cli::no_value("--no-store", inline)?;
                    opts.store = StoreMode::Off;
                }
                "--store-cap" => {
                    let v = cli::flag_value("--store-cap", inline, args, &mut i)?;
                    opts.store_cap = Some(cli::parse_size(&v)?);
                }
                "--fault-seed" => {
                    let v = cli::flag_value("--fault-seed", inline, args, &mut i)?;
                    opts.fault_seed = Some(
                        v.parse()
                            .map_err(|e| format!("invalid --fault-seed `{v}`: {e}"))?,
                    );
                }
                "--fault-profile" => {
                    let v = cli::flag_value("--fault-profile", inline, args, &mut i)?;
                    opts.fault_profile = Some(
                        sm_exec::fault::FaultProfile::parse(&v)
                            .map_err(|e| format!("invalid --fault-profile: {e}"))?,
                    );
                }
                _ => {}
            }
            i += 1;
        }
        Ok(opts)
    }

    /// Resolves [`StoreMode::Auto`] against the caller's default
    /// (`Some(path)` to enable the store by default, `None` to leave it
    /// off), yielding the effective store directory.
    pub fn store_dir(&self, auto_default: Option<&str>) -> Option<String> {
        match &self.store {
            StoreMode::At(path) => Some(path.clone()),
            StoreMode::Off => None,
            StoreMode::Auto => auto_default.map(str::to_string),
        }
    }

    /// The fault-injection plan these options describe, if any.
    ///
    /// `--fault-seed` alone injects the `aggressive` profile under that
    /// seed; `--fault-profile` alone uses seed 0. Neither flag means no
    /// plan at all: the injection hooks stay detached and cost nothing.
    pub fn fault_plan(&self) -> Option<sm_exec::fault::FaultPlan> {
        if self.fault_seed.is_none() && self.fault_profile.is_none() {
            return None;
        }
        let profile = self
            .fault_profile
            .unwrap_or_else(sm_exec::fault::FaultProfile::aggressive);
        Some(sm_exec::fault::FaultPlan::new(
            self.fault_seed.unwrap_or(0),
            profile,
        ))
    }

    /// The bundle cache these options describe: layered over the
    /// `--store` directory when one is set (resolve [`StoreMode::Auto`]
    /// first; here it means no store), memory-only otherwise. A
    /// `--fault-seed`/`--fault-profile` plan attaches to both the cache
    /// (job faults) and the store underneath (I/O faults).
    pub fn cache(&self) -> ArtifactCache {
        let faults = self
            .fault_plan()
            .map(|plan| Arc::new(plan) as Arc<dyn FaultInject>);
        let cache = match self.store_dir(None) {
            Some(dir) => {
                let mut store = ArtifactStore::open(dir, self.store_cap);
                if let Some(faults) = &faults {
                    store = store.with_faults(Arc::clone(faults));
                }
                ArtifactCache::with_store(Arc::new(store))
            }
            None => ArtifactCache::new(),
        };
        match faults {
            Some(faults) => cache.with_faults(faults),
            None => cache,
        }
    }

    /// The resource budget these options describe: `--threads` becomes
    /// the thread allotment (a dedicated pool when explicit, the
    /// process-global pool otherwise) and `--timeout-secs` attaches the
    /// deadline. This is the single [`sm_exec::Budget`] every `smctl`
    /// command hands down to the engine.
    pub fn budget(&self) -> sm_exec::Budget {
        let budget = sm_exec::Budget::with_threads(self.threads);
        match self.timeout_secs {
            Some(secs) => budget.with_deadline_in(std::time::Duration::from_secs(secs)),
            None => budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let o = RunOptions::from_slice(&args(&["--seed", "9", "--scale", "250", "--quick"]))
            .expect("valid");
        assert_eq!(o.seed, 9);
        assert_eq!(o.scale, 250);
        assert!(o.quick);
    }

    #[test]
    fn parses_equals_forms() {
        let o = RunOptions::from_slice(&args(&["--seed=9", "--scale=250", "--threads=4"]))
            .expect("valid");
        assert_eq!(o.seed, 9);
        assert_eq!(o.scale, 250);
        assert_eq!(o.threads, Some(4));
        assert!(!o.quick);
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(RunOptions::from_slice(&args(&["--seed", "banana"])).is_err());
        assert!(RunOptions::from_slice(&args(&["--seed=banana"])).is_err());
        assert!(RunOptions::from_slice(&args(&["--scale=-3"])).is_err());
        assert!(RunOptions::from_slice(&args(&["--scale", "0"])).is_err());
        assert!(RunOptions::from_slice(&args(&["--seed="])).is_err());
        assert!(RunOptions::from_slice(&args(&["--quick=yes"])).is_err());
    }

    #[test]
    fn missing_values_are_rejected() {
        assert!(RunOptions::from_slice(&args(&["--seed"])).is_err());
        assert!(RunOptions::from_slice(&args(&["--seed", "--quick"])).is_err());
    }

    #[test]
    fn unknown_flags_ignored() {
        let o = RunOptions::from_slice(&args(&["--wat", "--quick"])).expect("valid");
        assert!(o.quick);
    }

    #[test]
    fn defaults_are_sane() {
        let o = RunOptions::default();
        assert_eq!(o.scale, 100);
        assert!(!o.quick);
        assert_eq!(o.threads, None);
    }

    #[test]
    fn zero_threads_means_auto() {
        let o = RunOptions::from_slice(&args(&["--threads", "0"])).expect("valid");
        assert_eq!(o.threads, None);
    }

    #[test]
    fn timeout_parses_into_a_deadline_budget() {
        let o = RunOptions::from_slice(&args(&["--threads", "2", "--timeout-secs", "3600"]))
            .expect("valid");
        assert_eq!(o.timeout_secs, Some(3600));
        let budget = o.budget();
        assert_eq!(budget.threads(), 2);
        assert!(budget.cancel_token().deadline().is_some());
        assert!(!budget.is_cancelled(), "an hour away is not expired");

        let plain = RunOptions::default().budget();
        assert!(plain.cancel_token().deadline().is_none());

        assert!(RunOptions::from_slice(&args(&["--timeout-secs", "0"])).is_err());
        assert!(RunOptions::from_slice(&args(&["--timeout-secs", "soon"])).is_err());
        assert!(RunOptions::from_slice(&args(&["--timeout-secs"])).is_err());
    }

    #[test]
    fn fault_flags_resolve_to_a_plan() {
        use sm_exec::fault::{FaultPlan, FaultProfile};

        assert_eq!(RunOptions::default().fault_plan(), None);

        let seeded = RunOptions::from_slice(&args(&["--fault-seed", "7"])).expect("valid");
        assert_eq!(
            seeded.fault_plan(),
            Some(FaultPlan::new(7, FaultProfile::aggressive())),
            "--fault-seed alone injects the aggressive profile"
        );

        let profiled = RunOptions::from_slice(&args(&["--fault-profile=light"])).expect("valid");
        assert_eq!(
            profiled.fault_plan(),
            Some(FaultPlan::new(0, FaultProfile::light())),
            "--fault-profile alone uses seed 0"
        );

        let both = RunOptions::from_slice(&args(&["--fault-seed=3", "--fault-profile", "off"]))
            .expect("valid");
        assert_eq!(
            both.fault_plan(),
            Some(FaultPlan::new(3, FaultProfile::off()))
        );

        assert!(RunOptions::from_slice(&args(&["--fault-seed", "soon"])).is_err());
        assert!(RunOptions::from_slice(&args(&["--fault-profile", "wild"])).is_err());
        assert!(RunOptions::from_slice(&args(&["--fault-seed"])).is_err());
    }

    #[test]
    fn store_flags_resolve_modes() {
        let o = RunOptions::from_slice(&args(&["--store", "my-store", "--store-cap", "4M"]))
            .expect("valid");
        assert_eq!(o.store, StoreMode::At("my-store".into()));
        assert_eq!(o.store_cap, Some(4 << 20));
        assert_eq!(o.store_dir(Some(".sm-store")), Some("my-store".into()));

        let off = RunOptions::from_slice(&args(&["--no-store"])).expect("valid");
        assert_eq!(off.store, StoreMode::Off);
        assert_eq!(off.store_dir(Some(".sm-store")), None);

        let auto = RunOptions::default();
        assert_eq!(auto.store_dir(Some(".sm-store")), Some(".sm-store".into()));
        assert_eq!(auto.store_dir(None), None);

        assert!(RunOptions::from_slice(&args(&["--store-cap", "soon"])).is_err());
        assert!(RunOptions::from_slice(&args(&["--store"])).is_err());
        assert!(RunOptions::from_slice(&args(&["--no-store=yes"])).is_err());
    }
}
