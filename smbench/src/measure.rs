//! Untraced runs: set up a fresh store (and, for the served workload, a
//! warmed store plus a live service), time one campaign through the
//! public entry points, and tear everything down again.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sm_engine::journal::read_events;
use sm_engine::{
    client_shutdown, client_status, client_submit, run_sweep_budgeted, ArtifactCache,
    ArtifactStore, Budget, Campaign, Event, Journal, JournalFollower, Json, PoolStats,
    ReportOptions, ServeConfig, SweepSpec,
};

use crate::workload::Workload;

/// Campaign thread budget of every run.
pub const THREADS: usize = 2;
/// Fleet workers of the in-process service.
pub const WORKERS: usize = 2;

/// Everything the timed call needs, built by [`setup`].
pub struct Prepared {
    /// The run's private directory (store, socket).
    dir: PathBuf,
    /// The store root.
    store: PathBuf,
    /// The timed campaign's spec.
    spec: SweepSpec,
    budget: Budget,
    target: Target,
}

enum Target {
    Solo(Box<ArtifactCache>),
    Served {
        socket: PathBuf,
        service: JoinHandle<Result<(), String>>,
    },
}

/// What one timed campaign produced.
#[derive(Debug)]
pub struct Timed {
    /// Wall time of the timed call (submit → report when served).
    pub campaign_s: f64,
    /// Start/submit → first `job-finished` event.
    pub first_result_s: f64,
    /// Submit → admission echo (served only).
    pub admit_s: Option<f64>,
    /// Last `job-finished` event → report (served only).
    pub report_tail_s: Option<f64>,
    /// The campaign's canonical report bytes.
    pub report: String,
    /// The campaign, parsed back from the canonical report when served.
    pub campaign: Campaign,
    /// Ranges stolen by the service's fleet (0 for solo sweeps).
    pub steals: u64,
    /// Pool counters after the campaign.
    pub pool: PoolStats,
}

fn store_for(root: &Path, spec: &SweepSpec) -> ArtifactCache {
    let store = Arc::new(ArtifactStore::open(root, None));
    let journal = Arc::new(Journal::for_spec(root, spec));
    ArtifactCache::with_store(store).with_journal(journal)
}

/// Builds a fresh store and journal in `dir`, runs the warm-up campaign
/// and, for the served workload, starts a live service, returning the
/// prepared run and the seconds it took.
pub fn setup(w: Workload, seed: u64, dir: &Path) -> Result<(Prepared, f64), String> {
    let t = Instant::now();
    let store = dir.join("store");
    std::fs::create_dir_all(&store).map_err(|e| format!("creating {}: {e}", store.display()))?;
    let spec = w.spec(seed);
    spec.jobs()?;
    let budget = Budget::with_threads(Some(THREADS));
    let warm = w.warmup(seed);
    let warm_store = if w.warmup_shares_store() {
        store.clone()
    } else {
        dir.join("warm")
    };
    let campaign = run_sweep_budgeted(&warm, &budget, &store_for(&warm_store, &warm), None)?;
    let bad = campaign.failed() + campaign.timed_out();
    if bad > 0 {
        return Err(format!("warm-up campaign left {bad} jobs without a result"));
    }
    let target = if w.served() {
        let socket = dir.join("sm.sock");
        let config = ServeConfig {
            socket: socket.clone(),
            workers: WORKERS,
            max_queued: 1,
            store: store.clone(),
            store_cap: None,
        };
        let service_budget = budget.clone();
        let service = std::thread::spawn(move || sm_engine::serve(&config, &service_budget));
        let ready = Instant::now();
        while client_status(&socket).is_err() {
            if service.is_finished() {
                return Err(match service.join() {
                    Ok(Err(e)) => format!("service failed to start: {e}"),
                    _ => "service exited during start-up".into(),
                });
            }
            if ready.elapsed() > Duration::from_secs(30) {
                return Err("service did not come up within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Target::Served { socket, service }
    } else {
        Target::Solo(Box::new(store_for(&store, &spec)))
    };
    let prepared = Prepared {
        dir: dir.to_path_buf(),
        store,
        spec,
        budget,
        target,
    };
    Ok((prepared, t.elapsed().as_secs_f64()))
}

/// Times the campaign of a prepared run.
pub fn timed(p: &Prepared) -> Result<Timed, String> {
    match &p.target {
        Target::Solo(cache) => {
            let journal = Journal::for_spec(&p.store, &p.spec).path().to_path_buf();
            let stop = AtomicBool::new(false);
            let t = Instant::now();
            let (campaign, first) = std::thread::scope(|s| {
                let watcher = s.spawn(|| first_finish(&journal, t, &stop));
                let campaign = run_sweep_budgeted(&p.spec, &p.budget, cache, None);
                stop.store(true, Ordering::Relaxed);
                (campaign, watcher.join().expect("journal watcher panicked"))
            });
            let campaign_s = t.elapsed().as_secs_f64();
            let campaign = campaign?;
            let report = campaign.to_json(ReportOptions::default()).render();
            Ok(Timed {
                campaign_s,
                first_result_s: first.ok_or("no job-finished event reached the journal")?,
                admit_s: None,
                report_tail_s: None,
                report,
                pool: p.budget.pool().stats(),
                campaign,
                steals: 0,
            })
        }
        Target::Served { socket, .. } => {
            let mut admit = None;
            let mut first = None;
            let mut last = None;
            let t = Instant::now();
            let report = client_submit(
                socket,
                &p.spec,
                true,
                |_, _, _| admit = Some(t.elapsed().as_secs_f64()),
                |event| {
                    if matches!(event, Event::JobFinished { .. }) {
                        let at = t.elapsed().as_secs_f64();
                        first.get_or_insert(at);
                        last = Some(at);
                    }
                },
            )?;
            let campaign_s = t.elapsed().as_secs_f64();
            let campaign = Campaign::from_json(&Json::parse(&report)?)?;
            let steals = client_status(socket)?.steals;
            Ok(Timed {
                campaign_s,
                first_result_s: first.ok_or("the follow stream carried no job-finished event")?,
                admit_s: admit,
                report_tail_s: last.map(|l| campaign_s - l),
                report,
                campaign,
                steals,
                pool: p.budget.pool().stats(),
            })
        }
    }
}

/// Polls the journal at `path` until the first `job-finished` event,
/// returning its arrival in seconds since `t`; `None` when `stop` fires
/// first and a last poll finds none.
fn first_finish(path: &Path, t: Instant, stop: &AtomicBool) -> Option<f64> {
    let mut follower = JournalFollower::new(path);
    loop {
        let stopping = stop.load(Ordering::Relaxed);
        if let Ok(events) = follower.poll() {
            if events
                .iter()
                .any(|e| matches!(e, Event::JobFinished { .. }))
            {
                return Some(t.elapsed().as_secs_f64());
            }
        }
        if stopping {
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Stops the service of a served run and waits for it to exit.
pub fn teardown(p: Prepared) -> Result<PathBuf, String> {
    if let Target::Served { socket, service } = p.target {
        client_shutdown(&socket)?;
        match service.join() {
            Ok(result) => result?,
            Err(_) => return Err("service thread panicked".into()),
        }
    }
    Ok(p.dir)
}

/// Per-job wall times (ms) from the campaign's journal, which both solo
/// and served campaigns write.
pub fn job_walls_ms(store: &Path, spec: &SweepSpec) -> Result<Vec<f64>, String> {
    let path = Journal::for_spec(store, spec).path().to_path_buf();
    Ok(read_events(&path)?
        .iter()
        .filter_map(|e| match e {
            Event::JobFinished { provenance, .. } => Some(provenance.wall_ms),
            _ => None,
        })
        .collect())
}

/// Events in the campaign's journal.
pub fn journal_events(store: &Path, spec: &SweepSpec) -> Result<usize, String> {
    Ok(read_events(Journal::for_spec(store, spec).path())?.len())
}
