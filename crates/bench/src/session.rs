//! One experiment session: options + thread budget + shared bundle
//! cache.
//!
//! Every artifact run (`smctl run`) builds a [`Session`] and pulls
//! layout bundles through its [`ArtifactCache`], so the engine
//! parallelizes bundle construction across benchmarks and a
//! multi-artifact run (`smctl run all`) builds each benchmark's bundle
//! exactly once.

use std::sync::{Arc, OnceLock};

use sm_benchgen::superblue::SuperblueProfile;
use sm_engine::bundle::{iscas_selection, superblue_selection, IscasRun, SuperblueRun};
use sm_engine::cache::ArtifactCache;
use sm_engine::Budget;
use sm_exec::phase::Recorder;

use crate::artifacts::{security_row, SecurityRow};
use crate::RunOptions;

/// Shared state for a batch of artifact runs.
#[derive(Debug)]
pub struct Session {
    opts: RunOptions,
    cache: ArtifactCache,
    budget: Budget,
    // Tables 4 and 5 consume the identical attack measurements; computed
    // once per session (they dominate post-bundle cost).
    security_rows: OnceLock<Vec<SecurityRow>>,
}

impl Session {
    /// Builds a session for `opts`: the bundle cache from
    /// [`RunOptions::cache`] (an explicit `--store` only;
    /// [`StoreMode::Auto`] means no store here — `smctl` resolves its
    /// own default before calling this) and the single [`Budget`] `opts`
    /// describes (`--threads`), so every artifact in the batch shares
    /// one worker pool. Artifact runs honor the thread allotment only —
    /// deadlines are a campaign concept (artifact runners never check
    /// the cancel token, which is why `smctl run` rejects
    /// `--timeout-secs`).
    ///
    /// [`StoreMode::Auto`]: crate::StoreMode::Auto
    pub fn new(opts: RunOptions) -> Session {
        Session {
            cache: opts.cache(),
            budget: opts.budget(),
            opts,
            security_rows: OnceLock::new(),
        }
    }

    /// The options this session runs with.
    pub fn opts(&self) -> &RunOptions {
        &self.opts
    }

    /// The session's bundle cache: its counters and, when one is
    /// attached, its disk store.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The session's thread budget (for parallel per-row measurement
    /// work).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The per-bundle share of the session budget when `n` bundles
    /// build concurrently.
    fn per_bundle(&self, n: usize) -> Budget {
        self.budget.split(n.min(self.budget.threads()))
    }

    /// All selected superblue bundles, built in parallel through the
    /// cache (selection honors `--quick`).
    pub fn superblue_runs(&self) -> Vec<Arc<SuperblueRun>> {
        let profiles = superblue_selection(self.opts.quick);
        let share = self.per_bundle(profiles.len());
        self.budget.map(&profiles, |_, p| {
            let (scale, seed) = (self.opts.scale, self.opts.seed);
            self.cache
                .superblue(p, scale, seed, &share, &mut Recorder::new())
        })
    }

    /// All selected ISCAS-85 bundles, built in parallel through the
    /// cache.
    pub fn iscas_runs(&self) -> Vec<Arc<IscasRun>> {
        let profiles = iscas_selection(self.opts.quick);
        let share = self.per_bundle(profiles.len());
        self.budget.map(&profiles, |_, p| {
            self.cache
                .iscas(p, self.opts.seed, &share, &mut Recorder::new())
        })
    }

    /// The Table 4/5 attack measurements for the selected ISCAS runs,
    /// computed in parallel once per session and shared between both
    /// tables (the attack sweep, not the bundle build, dominates their
    /// cost).
    pub fn security_rows(&self) -> &[SecurityRow] {
        self.security_rows.get_or_init(|| {
            let runs = self.iscas_runs();
            let share = self.per_bundle(runs.len());
            self.budget
                .map(&runs, |_, run| security_row(run, self.opts.seed, &share))
        })
    }

    /// The superblue18 bundle (Fig. 4 uses only this one).
    pub fn superblue18(&self) -> Arc<SuperblueRun> {
        self.cache.superblue(
            &SuperblueProfile::superblue18(),
            self.opts.scale,
            self.opts.seed,
            &self.budget,
            &mut Recorder::new(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_session_shares_bundles_across_requests() {
        let session = Session::new(RunOptions {
            quick: true,
            threads: Some(2),
            ..RunOptions::default()
        });
        let a = session.iscas_runs();
        let b = session.iscas_runs();
        assert_eq!(a.len(), 2); // c432 + c880 in quick mode
        assert!(Arc::ptr_eq(&a[0], &b[0]));
        let stats = session.cache().stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.hits, 2);
        assert!(session.cache().store().is_none(), "no store by default");
    }

    /// The `smctl run` warm-path guarantee at the session level: a
    /// second session over the same store directory rebuilds nothing.
    #[test]
    fn store_backed_sessions_share_bundles_across_processes() {
        let dir =
            std::env::temp_dir().join(format!("sm-session-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions {
            quick: true,
            threads: Some(2),
            store: crate::StoreMode::At(dir.to_string_lossy().into_owned()),
            ..RunOptions::default()
        };

        let cold = Session::new(opts.clone());
        let a = cold.iscas_runs();
        assert_eq!(cold.cache().stats().builds, 2);
        // Stage-keyed persistence: each ISCAS bundle writes its
        // netlist, place+route layout and protected design separately.
        assert_eq!(cold.cache().store().unwrap().stats().writes, 6);

        // A fresh session (new process, in effect) over the same store.
        let warm = Session::new(opts);
        let b = warm.iscas_runs();
        let stats = warm.cache().stats();
        assert_eq!(stats.builds, 0, "warm session must not rebuild");
        assert_eq!(stats.disk_hits, 2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.netlist.num_nets(), y.netlist.num_nets());
            assert_eq!(
                x.protected.randomization.swaps,
                y.protected.randomization.swaps
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
