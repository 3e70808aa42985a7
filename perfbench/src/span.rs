//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into each layer's public API: name (`<layer>.<operation>`), start,
//! end, parent span, thread and pass id. Recording is off unless
//! [`enable`] was called, so untraced runs pay one relaxed load per
//! boundary. Spans stay in memory until [`dump`] writes them out when
//! the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static PASS: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<u64>,
    pub thread: u64,
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Start (`true`) or pause (`false`) recording.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag every span started from now on with pass `id`.
pub fn set_pass(id: u32) {
    PASS.store(id, Ordering::Relaxed);
}

/// The innermost open span on this thread, if any — hand it to
/// [`adopt`] on a worker thread so that thread's spans nest under it.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Run `f` on this thread with `parent` as the enclosing span.
pub fn adopt<R>(parent: Option<u64>, f: impl FnOnce() -> R) -> R {
    let Some(parent) = parent.filter(|_| enabled()) else { return f() };
    STACK.with(|s| s.borrow_mut().push(parent));
    let r = f();
    STACK.with(|s| s.borrow_mut().pop());
    r
}

/// Run `f` inside a span called `name`; returns `f`'s result and the
/// span's duration in seconds (measured whether or not recording is on).
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    if !enabled() {
        let t = Instant::now();
        let r = f();
        return (r, t.elapsed().as_secs_f64());
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    STACK.with(|s| s.borrow_mut().push(id));
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    STACK.with(|s| s.borrow_mut().pop());
    let base = epoch();
    let span = Span {
        id,
        name,
        parent,
        thread: THREAD.with(|t| *t),
        pass: PASS.load(Ordering::Relaxed),
        start_ns: start.duration_since(base).as_nanos() as u64,
        end_ns: end.duration_since(base).as_nanos() as u64,
    };
    SPANS.lock().expect("span log poisoned").push(span);
    (r, end.duration_since(start).as_secs_f64())
}

/// [`timed`] without the duration.
pub fn record<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    timed(name, f).0
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span log poisoned").clone()
}

/// Self time of every span: its duration minus the part of it covered
/// by the union of its children's intervals (children on other threads
/// may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<(usize, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (i, (s.end_ns - s.start_ns - covered) as f64 * 1e-9)
        })
        .collect()
}

/// Total self time per layer.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (i, t) in self_times(spans) {
        *out.entry(spans[i].layer()).or_insert(0.0) += t;
    }
    out
}

/// The per-layer profile, one row per span name, in the summary-table
/// shape of `strace -c`: share of all self time, self seconds, mean
/// microseconds per call, calls, and the span name.
pub fn profile_table(spans: &[Span]) -> String {
    let mut rows: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (i, t) in self_times(spans) {
        let row = rows.entry(spans[i].name).or_insert((0.0, 0));
        row.0 += t;
        row.1 += 1;
    }
    let total: f64 = rows.values().map(|r| r.0).sum::<f64>().max(f64::MIN_POSITIVE);
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
    let mut out = String::from(
        "% time     seconds  usecs/call     calls layer.span\n\
         ------ ----------- ----------- --------- --------------------------\n",
    );
    for (name, (secs, calls)) in rows {
        let _ = writeln!(
            out,
            "{:>6.2} {:>11.6} {:>11.0} {:>9} {name}",
            100.0 * secs / total,
            secs,
            secs * 1e6 / calls as f64,
            calls
        );
    }
    out
}

/// Write the span log as JSON lines.
pub fn dump(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"name\": \"{}\", \"parent\": {}, \"thread\": {}, \"pass\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.name,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.thread,
            s.pass,
            s.start_ns,
            s.end_ns
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, name: "grid.x", parent, thread: 0, pass: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; two overlapping children 10..50 and 30..70 cover
        // 10..70, so the parent keeps 40 ns of self time.
        let spans = [span(1, None, 0, 100), span(2, Some(1), 10, 50), span(3, Some(1), 30, 70)];
        let t = self_times(&spans);
        assert!((t[0].1 - 40e-9).abs() < 1e-15, "{t:?}");
        assert!((t[1].1 - 40e-9).abs() < 1e-15);
        assert!((t[2].1 - 40e-9).abs() < 1e-15);
        assert_eq!(spans[0].layer(), "grid");
    }
}
