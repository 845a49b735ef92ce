//! The harness's in-memory span recorder. Spans are recorded around the
//! calls the harness makes into each layer's public functions (nothing
//! inside the program is instrumented), kept in memory, and written as
//! Chrome-trace JSON when the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use zskip::json::Json;

/// Which timeline a span lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// Host wall time, measured by the harness.
    Host,
    /// Simulated accelerator time: cycles at the configured clock. Not
    /// part of any self-time figure.
    Accel,
}

/// One recorded span. Times are microseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Free-form detail (network layer name, workload phase).
    pub label: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request / image share this identifier.
    pub request: Option<u64>,
    pub track: Track,
    /// Counts recorded at the same boundary.
    pub args: Vec<(String, f64)>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Per-name totals of a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    pub total_us: f64,
    /// Total minus the part of each span its children cover.
    pub self_us: f64,
}

/// Span recorder; see the module docs.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last; a new span's parent is the top.
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Recorder {
    /// Microseconds from the recorder's start to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    pub fn now_us(&self) -> f64 {
        self.at(Instant::now())
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &str, label: &str, request: Option<u64>) -> usize {
        let start = self.now_us();
        let id = self.add(
            name,
            label,
            start,
            start,
            self.stack.last().copied(),
            request,
        );
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    /// When spans are closed out of order (a harness bug).
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_us = self.now_us();
    }

    /// Times `f` as a span. Returns `f`'s value and the span's duration
    /// in µs.
    pub fn time<R>(
        &mut self,
        name: &str,
        label: &str,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.enter(name, label, request);
        let value = f();
        self.exit(id);
        (value, self.spans[id].dur_us())
    }

    /// Adds a finished span with explicit times (replies whose stages the
    /// daemon reported, spans imported from a child process).
    pub fn add(
        &mut self,
        name: &str,
        label: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            label: label.to_string(),
            start_us,
            end_us,
            parent,
            request,
            track: Track::Host,
            args: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn span_mut(&mut self, id: usize) -> &mut Span {
        &mut self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of that
    /// interval its direct children cover (overlapping children are
    /// merged first, and clipped to the parent).
    pub fn self_us(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id) && c.track == span.track)
            .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
            .filter(|(s, e)| e > s)
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (s, e) in kids {
            if e > reach {
                covered += e - s.max(reach);
                reach = e;
            }
        }
        span.dur_us() - covered
    }

    /// Count, total and self time of the host spans, by name.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if span.track != Track::Host {
                continue;
            }
            let t = out.entry(span.name.clone()).or_default();
            t.count += 1;
            t.total_us += span.dur_us();
            t.self_us += self.self_us(id);
        }
        out
    }

    /// The per-layer table: one row per span name.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:<34} {:>6} {:>14} {:>14}\n",
            "span", "count", "total ms", "self ms"
        );
        for (name, t) in self.totals() {
            out.push_str(&format!(
                "{:<34} {:>6} {:>14.3} {:>14.3}\n",
                name,
                t.count,
                t.total_us / 1e3,
                t.self_us / 1e3
            ));
        }
        out
    }

    /// The recording as Chrome-trace JSON (`chrome://tracing`, Perfetto):
    /// complete events, host spans on tid 1, simulated accelerator time on
    /// tid 2; `args` carry the span id, parent id, request id and counts.
    pub fn to_chrome_json(&self) -> String {
        let num = |v: usize| Json::Num(v as f64);
        let event = |name: &str, ph: &str, tid: usize, rest: Vec<(String, Json)>| {
            let mut fields = vec![
                ("name".to_string(), Json::Str(name.into())),
                ("ph".to_string(), Json::Str(ph.into())),
                ("pid".to_string(), num(1)),
                ("tid".to_string(), num(tid)),
            ];
            fields.extend(rest);
            Json::Obj(fields)
        };
        let mut events = Vec::with_capacity(self.spans.len() + 2);
        for (tid, name) in [
            (1, "host wall time"),
            (2, "accelerator (simulated cycles at the configured clock)"),
        ] {
            let args = Json::obj([("name", Json::Str(name.into()))]);
            events.push(event("thread_name", "M", tid, vec![("args".into(), args)]));
        }
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![("id".to_string(), num(id))];
            args.extend(s.parent.map(|p| ("parent".to_string(), num(p))));
            args.extend(
                s.request
                    .map(|r| ("request".to_string(), Json::Num(r as f64))),
            );
            if !s.label.is_empty() {
                args.push(("label".into(), Json::Str(s.label.clone())));
            }
            args.extend(s.args.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
            let tid = if s.track == Track::Host { 1 } else { 2 };
            let rest = vec![
                ("ts".to_string(), Json::Num(s.start_us)),
                ("dur".to_string(), Json::Num(s.dur_us())),
                ("args".to_string(), Json::Obj(args)),
            ];
            events.push(event(&s.name, "X", tid, rest));
        }
        Json::obj([
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(events)),
        ])
        .to_string_compact()
    }
}
