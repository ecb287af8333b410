//! `smbench` — the outside-in campaign benchmark.
//!
//! Drives whole campaigns (randomize → place/route → BEOL restore →
//! attack) through the public `sm-engine` entry points and reports what
//! a user sees; with `--trace 1` it replays the same work layer by layer
//! under in-memory spans and reports per-layer metrics instead. See
//! `CATALOGUE.md` for every metric.
//!
//! ```text
//! cargo run --release --manifest-path smbench/Cargo.toml -- \
//!     --workload iscas-flow|superblue-protect|superblue-seeds|all \
//!     --seed N --seconds N --trace 0|1
//! ```
//!
//! Run it from the repository root: per-run stores go under
//! `.bench_work/` there and are removed before exit. The last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); everything before it is the human-readable report.

mod checks;
mod measure;
mod replay;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sm_engine::job::fnv1a;
use sm_engine::Json;

use checks::{check_campaign, Quality};
use measure::{setup, teardown, timed, THREADS, WORKERS};
use workload::Workload;

/// Timed campaigns per run, at least (the digest check needs two).
const MIN_CAMPAIGNS: usize = 2;
/// Set-ups per run, at least; those beyond the timed campaigns' own are
/// made and torn down without a campaign.
const MIN_SETUPS: usize = 5;
/// Offset of the held-out validation seed from the workload seed.
const HELD_OUT_OFFSET: u64 = 1000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One named metric value.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric value with its unit.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The working directory of this process, removed on drop.
struct Workdir(PathBuf);

impl Workdir {
    fn new() -> Result<Workdir, String> {
        let dir = Path::new(".bench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Workdir(dir))
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when this was the only run.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The commit being measured: read from `.git` when the checkout has
/// one, else `unknown`.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.chars().take(12).collect()
    }
}

/// FNV-1a digest of every source file under `crates/` (path and bytes),
/// which identifies the measured code where no commit is available.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut text = String::new();
    for f in files {
        text.push_str(&f.display().to_string());
        text.push_str(&String::from_utf8_lossy(
            &std::fs::read(&f).unwrap_or_default(),
        ));
    }
    format!("{:016x}", fnv1a(&text))
}

fn context_line(w: Workload, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "context: workload {} seed {} held-out seed {} nproc {nproc} threads {THREADS} workers {WORKERS} commit {} source {}",
        w.name(),
        args.seed,
        args.seed + HELD_OUT_OFFSET,
        commit(),
        source_digest()
    )
}

/// The benchmark's result for one workload.
pub struct Outcome {
    /// Jobs and checks attempted.
    pub attempted: u64,
    /// Jobs without a result plus failed checks.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
}

/// Untraced run: repeated set-up + timed campaign until `seconds` pass,
/// then the end-to-end metrics.
fn run_untraced(w: Workload, args: &Args, work: &Path) -> Result<Outcome, String> {
    let deadline = args.seconds as f64;
    let start = Instant::now();
    let (mut setups, mut campaigns, mut firsts) = (Vec::new(), Vec::new(), Vec::new());
    let (mut jobs, mut unfinished) = (0u64, 0u64);
    let mut digests: Vec<u64> = Vec::new();
    let mut quality = Quality::default();
    // Stop once the next campaign would likely overrun the run length.
    let next_fits = |done: &[f64]| start.elapsed().as_secs_f64() + median(done) <= deadline;
    while campaigns.len() < MIN_CAMPAIGNS || next_fits(&campaigns) {
        let (p, setup_s) = setup(w, args.seed, &work.join(format!("r{}", setups.len())))?;
        setups.push(setup_s);
        let t = timed(&p);
        let dir = teardown(p)?;
        let t = t?;
        if campaigns.is_empty() {
            quality = check_campaign(&t.campaign, &dir.join("store"), w.iscas());
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        jobs += t.campaign.outcomes.len() as u64;
        unfinished += t
            .campaign
            .outcomes
            .iter()
            .filter(|o| o.metrics.is_placeholder())
            .count() as u64;
        digests.push(fnv1a(&t.report));
        campaigns.push(t.campaign_s);
        firsts.push(t.first_result_s);
    }
    while setups.len() < MIN_SETUPS {
        let (p, setup_s) = setup(w, args.seed, &work.join(format!("r{}", setups.len())))?;
        setups.push(setup_s);
        let dir = teardown(p)?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    for (i, d) in digests.iter().enumerate().skip(1) {
        quality.expect(*d == digests[0], || {
            format!("campaign {i} report digest {d:016x} != {:016x}", digests[0])
        });
    }
    for f in &quality.failures {
        println!("FAILED CHECK: {f}");
    }
    let attempted = jobs + quality.checks;
    let failed = unfinished + quality.failures.len() as u64;
    let (nc, ns) = (campaigns.len(), setups.len());
    println!("{}", context_line(w, args));
    println!("report digest {:016x} over {nc} campaigns", digests[0]);
    let each: Vec<String> = campaigns.iter().map(|c| format!("{c:.3}")).collect();
    println!("campaign_s each: {}", each.join(" "));
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("campaign_s", median(&campaigns), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let overs = [
        format!("median of {ns} set-ups"),
        format!("median of {nc} campaigns"),
        "process peak".to_string(),
    ];
    let ccr = quality.ccr_protected_pct;
    let report_only = [
        (
            "first_result_s",
            Some(median(&firsts)),
            "s",
            format!("median of {nc} campaigns"),
        ),
        (
            "ccr_protected_pct",
            ccr,
            "%",
            "max over flow jobs".to_string(),
        ),
        (
            "ppa_overhead_pct",
            Some(quality.ppa_overhead_pct),
            "%",
            "max over protected designs".to_string(),
        ),
        (
            "fail_rate",
            Some(failed as f64 / attempted as f64),
            "ratio",
            format!("{failed} of {attempted} jobs and checks"),
        ),
    ];
    println!("{:<20} {:>12}  {:<6} over", "metric", "value", "unit");
    for (m, over) in metrics.iter().zip(overs) {
        println!("{:<20} {:>12.4}  {:<6} {over}", m.name, m.value, m.unit);
    }
    for (name, value, unit, over) in report_only {
        let value = value.map_or("-".to_string(), |v| format!("{v:.4}"));
        println!("{name:<20} {value:>12}  {unit:<6} {over} (report only)");
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::UInt(o.attempted)),
        ("failed", Json::UInt(o.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render_compact()
}

/// Runs every workload in a child process of its own, so each reports
/// its own peak memory, and passes their reports through.
fn run_all() -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args = raw.clone();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed before");
        child_args[at + 1] = w.name().to_string();
        println!("== {} ==", w.name());
        let out = std::process::Command::new(&exe)
            .args(&child_args)
            .output()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let last = stdout.lines().last().unwrap_or_default();
        let correct = Json::parse(last)
            .ok()
            .and_then(|j| j.get("correct")?.as_bool());
        ok &= out.status.success() && correct == Some(true);
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.workload == "all" {
        return run_all();
    }
    let w = Workload::parse(&args.workload)?;
    let work = Workdir::new()?;
    let outcome = if args.trace {
        let t = replay::run(w, args.seed, &work.0)?;
        println!("{}", context_line(w, &args));
        t
    } else {
        run_untraced(w, &args, &work.0)?
    };
    drop(work);
    println!("{}", result_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
