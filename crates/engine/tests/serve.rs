//! Campaign-service integration tests: the `smctl serve` guarantees.
//!
//! * a served campaign's report — and its journal, materialized — is
//!   **byte-identical** to a solo sweep, whatever the worker count or
//!   thread budget; it stays under both ceilings and decodes each
//!   bundle once, like a solo sweep;
//! * the live service round-trips submit/status/shutdown over its Unix
//!   socket, streams journal events to a following client, and returns
//!   the same canonical bytes as a solo sweep;
//! * admission control bounces submissions past `max_queued` and
//!   invalid specs, a zero worker count is refused, and a second
//!   service refuses a live socket.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use sm_engine::campaign::{run_sweep_budgeted, SweepSpec};
use sm_engine::job::AttackKind;
use sm_engine::journal::{materialize, read_events, Event, Journal};
use sm_engine::report::ReportOptions;
use sm_engine::serve::{client_shutdown, client_status, client_submit, serve, ServeConfig};
use sm_engine::store::ArtifactStore;
use sm_engine::{ArtifactCache, Budget, CacheStats};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sm-serve-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Eight jobs (4 seeds × 2 layers) of one small benchmark.
fn sim_spec() -> SweepSpec {
    SweepSpec {
        benchmarks: vec!["c432".into()],
        seeds: vec![1, 2, 3, 4],
        split_layers: vec![3, 4],
        attacks: vec![AttackKind::NetworkFlow],
        scale: 100,
        master_seed: 1,
        layout_seed: None,
    }
}

fn solo_bytes(spec: &SweepSpec) -> String {
    run_sweep_budgeted(
        spec,
        &Budget::with_threads(Some(2)),
        &ArtifactCache::new(),
        None,
    )
    .unwrap()
    .to_json(ReportOptions::default())
    .render()
}

/// Starts a service over a fresh store under `scratch` and waits for
/// its socket.
fn start_service(
    scratch: &Scratch,
    workers: usize,
    max_queued: usize,
    threads: usize,
) -> (ServeConfig, JoinHandle<Result<(), String>>) {
    let config = ServeConfig {
        socket: scratch.path().join("sm.sock"),
        workers,
        max_queued,
        store: scratch.path().join("store"),
        store_cap: None,
    };
    let service = {
        let config = config.clone();
        std::thread::spawn(move || serve(&config, &Budget::with_threads(Some(threads))))
    };
    for _ in 0..500 {
        if config.socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    (config, service)
}

/// Drains and stops a service started by [`start_service`].
fn stop_service(config: &ServeConfig, service: JoinHandle<Result<(), String>>) {
    client_shutdown(&config.socket).expect("drain + shutdown");
    service
        .join()
        .expect("service thread")
        .expect("service exits cleanly");
    assert!(!config.socket.exists(), "shutdown removes the socket");
}

/// Serves `spec` once on a fresh service; returns the report and the
/// events of the campaign's journal.
fn serve_once(spec: &SweepSpec, workers: usize, threads: usize) -> (String, Vec<Event>) {
    let scratch = Scratch::new("once");
    let (config, service) = start_service(&scratch, workers, 1, threads);
    let json =
        client_submit(&config.socket, spec, false, |_, _, _| {}, |_| {}).expect("served campaign");
    stop_service(&config, service);
    let events = read_events(Journal::for_spec(&config.store, spec).path()).unwrap();
    (json, events)
}

/// The cache counters a campaign's journal closes with.
fn finished_cache(events: &[Event]) -> CacheStats {
    match events.last() {
        Some(Event::CampaignFinished { cache, .. }) => *cache,
        other => panic!("journal ends on {other:?}, not campaign-finished"),
    }
}

/// `true` when the journal's job-started and job-finished events
/// alternate strictly — one job in flight at a time.
fn one_job_at_a_time(events: &[Event]) -> bool {
    let lifecycle: Vec<bool> = events
        .iter()
        .filter_map(|event| match event {
            Event::JobStarted { .. } => Some(true),
            Event::JobFinished { .. } => Some(false),
            _ => None,
        })
        .collect();
    assert_eq!(lifecycle.len(), 2 * 8, "every job starts and finishes");
    lifecycle
        .iter()
        .enumerate()
        .all(|(i, &started)| started == (i % 2 == 0))
}

/// The headline service guarantee: a served report is byte-identical
/// to a solo sweep, whatever the worker count or thread budget.
#[test]
fn served_reports_are_byte_identical_to_solo() {
    let spec = sim_spec();
    let want = solo_bytes(&spec);
    for (workers, threads) in [(3, 4), (3, 1), (1, 2)] {
        let (json, _) = serve_once(&spec, workers, threads);
        assert_eq!(
            json, want,
            "served bytes diverge (workers={workers} threads={threads})"
        );
    }
}

/// A served campaign journals like any campaign: the log, materialized,
/// renders the solo bytes.
#[test]
fn served_journal_materializes_to_solo_bytes() {
    let spec = sim_spec();
    let (_, events) = serve_once(&spec, 3, 2);
    let replayed = materialize(&events).unwrap();
    assert_eq!(
        replayed.to_json(ReportOptions::default()).render(),
        solo_bytes(&spec)
    );
}

/// `--threads` is a ceiling for a served campaign: under one thread,
/// three workers run one job at a time.
#[test]
fn one_thread_service_runs_one_job_at_a_time() {
    let (_, events) = serve_once(&sim_spec(), 3, 1);
    assert!(one_job_at_a_time(&events), "jobs overlap under --threads 1");
}

/// `--workers` is a ceiling too: one worker on four threads runs one
/// job at a time (with the whole budget for its nested work).
#[test]
fn one_worker_service_runs_one_job_at_a_time() {
    let (_, events) = serve_once(&sim_spec(), 1, 4);
    assert!(one_job_at_a_time(&events), "jobs overlap under --workers 1");
}

/// A served campaign decodes each bundle once, like a solo sweep: one
/// worker over four seeds of one pinned layout builds the bundle once
/// and hits it three times.
#[test]
fn served_campaign_builds_a_pinned_bundle_once() {
    let spec = SweepSpec {
        seeds: vec![1, 2, 3, 4],
        split_layers: vec![3],
        layout_seed: Some(1),
        ..sim_spec()
    };
    let scratch = Scratch::new("pinned-solo");
    let store = Arc::new(ArtifactStore::open(scratch.path().join("store"), None));
    let solo = run_sweep_budgeted(
        &spec,
        &Budget::with_threads(Some(1)),
        &ArtifactCache::with_store(store),
        None,
    )
    .unwrap();
    let served = finished_cache(&serve_once(&spec, 1, 1).1);
    assert_eq!((served.builds, served.hits), (1, 3));
    assert_eq!(
        (served.builds, served.hits, served.disk_hits),
        (solo.cache.builds, solo.cache.hits, solo.cache.disk_hits)
    );
}

/// A zero worker count is refused at start-up; any positive count is
/// only a ceiling, so even an absurd one serves the solo bytes.
#[test]
fn worker_count_is_a_ceiling_not_an_allocation() {
    let scratch = Scratch::new("zero-workers");
    let config = ServeConfig {
        socket: scratch.path().join("sm.sock"),
        workers: 0,
        max_queued: 1,
        store: scratch.path().join("store"),
        store_cap: None,
    };
    let err = serve(&config, &Budget::with_threads(Some(1))).unwrap_err();
    assert!(err.contains("workers"), "{err}");
    assert!(!config.socket.exists(), "refused before binding");

    // Off the test thread, so a service that dies on the count fails
    // the test instead of leaving the submission waiting forever.
    let spec = sim_spec();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn({
        let spec = spec.clone();
        move || tx.send(serve_once(&spec, usize::MAX, 2).0)
    });
    let json = rx
        .recv_timeout(Duration::from_secs(300))
        .expect("a service with a huge worker count answers");
    assert_eq!(json, solo_bytes(&spec));
}

/// Full socket lifecycle: status on an idle service, a followed submit
/// whose event stream starts with campaign-started and ends with
/// campaign-finished, a byte-identical report, an attach for the
/// duplicate spec, updated counters, and a drain-then-exit shutdown
/// that removes the socket. A second service meanwhile refuses the
/// live socket.
#[test]
fn service_round_trips_submit_status_shutdown() {
    let scratch = Scratch::new("round-trip");
    let (config, service) = start_service(&scratch, 3, 4, 2);
    let socket = config.socket.clone();

    let status = client_status(&socket).expect("status on an idle service");
    assert_eq!(status.workers, 3);
    assert_eq!(status.completed, 0);
    assert_eq!(status.running, None);

    // A second service must refuse the live socket outright.
    let usurper = ServeConfig {
        store: scratch.path().join("other-store"),
        ..config.clone()
    };
    let err = serve(&usurper, &Budget::with_threads(Some(1))).unwrap_err();
    assert!(err.contains("already listening"), "{err}");

    let spec = sim_spec();
    let mut events = Vec::new();
    let json = client_submit(
        &socket,
        &spec,
        true,
        |_, jobs, queued| {
            assert_eq!(jobs, 8);
            assert_eq!(queued, 0);
        },
        |event| events.push(event.clone()),
    )
    .expect("followed submission");
    assert_eq!(json, solo_bytes(&spec), "service bytes diverge from solo");
    assert!(
        matches!(events.first(), Some(Event::CampaignStarted { .. })),
        "stream opens with campaign-started"
    );
    assert!(
        matches!(events.last(), Some(Event::CampaignFinished { .. })),
        "stream ends on campaign-finished"
    );

    // Duplicate spec: attaches to the finished campaign, same bytes.
    let again =
        client_submit(&socket, &spec, false, |_, _, _| {}, |_| {}).expect("duplicate attaches");
    assert_eq!(again, json);

    let status = client_status(&socket).unwrap();
    assert_eq!(status.completed, 1, "one campaign ran (duplicate attached)");
    assert_eq!(status.jobs_done, 8);

    stop_service(&config, service);
}

/// Admission control: a zero-capacity queue bounces every submission
/// with "queue full", and an unexpandable spec is rejected before it
/// can occupy a slot.
#[test]
fn admission_rejects_full_queues_and_invalid_specs() {
    let scratch = Scratch::new("admission");
    let (config, service) = start_service(&scratch, 2, 0, 1);
    let socket = config.socket.clone();

    let err = client_submit(&socket, &sim_spec(), false, |_, _, _| {}, |_| {})
        .expect_err("a zero-capacity queue admits nothing");
    assert!(err.contains("queue full"), "{err}");

    let bogus = SweepSpec {
        benchmarks: vec!["no-such-benchmark".into()],
        ..sim_spec()
    };
    let err = client_submit(&socket, &bogus, false, |_, _, _| {}, |_| {})
        .expect_err("an unexpandable spec is rejected");
    assert!(!err.is_empty());

    stop_service(&config, service);
}
