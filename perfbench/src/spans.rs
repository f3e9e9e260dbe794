//! The traced run's own spans: the benchmark wraps each call into a
//! layer in a span (name, start, end, parent, job). Spans are kept in
//! memory and written out as Chrome trace JSON when the run ends; the
//! per-layer metrics are totals over them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub job: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

pub struct Spans {
    origin: Instant,
    next_id: AtomicU64,
    events: Mutex<Vec<Span>>,
}

/// An open span; [`Spans::close`] records it.
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    pub name: &'static str,
    job: Option<usize>,
    start: Duration,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            events: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>, job: Option<usize>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            job,
            start: self.origin.elapsed(),
        }
    }

    pub fn close(&self, open: Open) -> Duration {
        let end = self.origin.elapsed();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            job: open.job,
            start: open.start,
            end,
        };
        self.events.lock().expect("span store poisoned").push(span);
        end - open.start
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(name, parent, job);
        let out = std::hint::black_box(f());
        (out, self.close(open))
    }

    /// Total duration and call count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (Duration, usize)> {
        let mut out: BTreeMap<&'static str, (Duration, usize)> = BTreeMap::new();
        for s in self.events.lock().expect("span store poisoned").iter() {
            let e = out.entry(s.name).or_default();
            e.0 += s.end - s.start;
            e.1 += 1;
        }
        out
    }

    /// Every span as Chrome trace event JSON (load it in Perfetto).
    pub fn chrome_json(&self) -> String {
        let events = self.events.lock().expect("span store poisoned");
        let mut s = String::from("[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"job\":{}}}}}",
                e.name,
                e.job.map_or(0, |j| j + 1),
                e.start.as_secs_f64() * 1e6,
                (e.end - e.start).as_secs_f64() * 1e6,
                e.id,
                e.parent.map_or("null".into(), |p| p.to_string()),
                e.job.map_or("null".into(), |j| j.to_string()),
            );
        }
        s.push(']');
        s
    }
}
