//! In-memory span recording around the benchmark's calls into each
//! layer, and the self-time arithmetic over the recorded spans.
//!
//! A span is (name, parent, trace, start, end); spans of one job share a
//! trace id. Entry points that hide their children return
//! `sm_exec::phase::Recorder` durations instead of intervals; those are
//! laid end to end from their parent's start ([`Tracer::adopt`]), which
//! is exact for self-time arithmetic because the hidden children run
//! sequentially inside their parent.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use sm_exec::phase::Recorder;

/// One recorded span. Times are milliseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Metric name (`<module>.<layer>`).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Trace id: the job index, or [`PROBE`] for off-timeline probes.
    pub trace: usize,
    /// Start, ms since the tracer started.
    pub start: f64,
    /// End, ms since the tracer started.
    pub end: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end - self.start
    }
}

/// Trace id of the probes: calls made after the replay, off the
/// campaign's timeline, to time layers an entry point hides.
pub const PROBE: usize = usize::MAX;

/// Maps a hidden child's recorder name to its metric name and to the
/// recorder name of its parent (`None`: the entry point's own span).
pub type Adoption = (&'static str, &'static str, Option<&'static str>);

/// Collects spans until the run ends.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's
    /// index so it can parent its own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        trace: usize,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let start = self.now();
        let id = self.push(Span {
            name,
            parent,
            trace,
            start,
            end: start,
        });
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("tracer poisoned")[id].end = end;
        out
    }

    /// Runs an entry point that reports its hidden children through a
    /// [`Recorder`], inside a span named `name`, and adopts the recorded
    /// children listed in `map` as child spans (unlisted recordings stay
    /// part of the entry point's own time).
    pub fn entry<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        trace: usize,
        map: &[Adoption],
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let mut rec = Recorder::new();
        let (out, id) = self.span(name, parent, trace, |id| (f(&mut rec), id));
        self.adopt(id, trace, map, &rec);
        out
    }

    /// Lays the mapped recorder spans end to end from their parent's
    /// start.
    fn adopt(&self, id: usize, trace: usize, map: &[Adoption], rec: &Recorder) {
        let mut spans = self.spans.lock().expect("tracer poisoned");
        let mut placed: Vec<(&'static str, usize)> = Vec::new();
        for &(recorded, ms) in rec.spans() {
            let Some(&(_, metric, under)) = map.iter().find(|(r, _, _)| *r == recorded) else {
                continue;
            };
            let parent = under
                .and_then(|u| placed.iter().rev().find(|(r, _)| *r == u).map(|&(_, i)| i))
                .unwrap_or(id);
            // Place after the parent's last child so siblings never overlap.
            let start = spans
                .iter()
                .filter(|s| s.parent == Some(parent))
                .map(|s| s.end)
                .fold(spans[parent].start, f64::max);
            spans.push(Span {
                name: metric,
                parent: Some(parent),
                trace,
                start,
                end: start + ms,
            });
            placed.push((recorded, spans.len() - 1));
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer poisoned").clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children of parallel arms may overlap).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.ms() - covered).max(0.0)
        })
        .collect()
}

/// Inclusive and self milliseconds per span name.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// name → (inclusive ms, self ms, span count).
    pub by_name: BTreeMap<&'static str, (f64, f64, u64)>,
}

impl Totals {
    /// Sums the spans accepted by `keep`.
    pub fn of(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Totals {
        let selfs = self_times(spans);
        let mut by_name = BTreeMap::new();
        for (s, own) in spans.iter().zip(selfs) {
            if keep(s) {
                let e = by_name.entry(s.name).or_insert((0.0, 0.0, 0));
                e.0 += s.ms();
                e.1 += own;
                e.2 += 1;
            }
        }
        Totals { by_name }
    }

    /// Inclusive milliseconds of `name` (0 when it never ran).
    pub fn ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0)
    }

    /// Self milliseconds per module (the name's first segment).
    pub fn modules(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, &(_, own, _)) in &self.by_name {
            let module = name.split('.').next().unwrap_or(name);
            *out.entry(module).or_insert(0.0) += own;
        }
        out
    }

    /// Sum of every span's self time.
    pub fn self_total(&self) -> f64 {
        self.by_name.values().map(|e| e.1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            trace: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 3.0, 6.0),
            span("c", Some(1), 1.0, 2.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![5.0, 2.0, 3.0, 1.0]);
        let totals = Totals::of(&spans, |_| true);
        assert_eq!(totals.self_total(), 11.0);
        assert_eq!(totals.ms("a"), 3.0);
    }

    #[test]
    fn adopted_children_nest_and_never_overlap() {
        let tracer = Tracer::new();
        let map: [Adoption; 3] = [
            ("place", "layout.place", None),
            ("fm", "layout.place.fm", Some("place")),
            ("route", "layout.route", None),
        ];
        tracer.entry("core.protect", None, 0, &map, |rec| {
            rec.add("place", 2.0);
            rec.add("fm", 1.0);
            rec.add("route", 0.5);
            rec.add("ignored", 9.0);
        });
        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "core.protect",
                "layout.place",
                "layout.place.fm",
                "layout.route"
            ]
        );
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[3].start >= spans[1].end);
    }
}
