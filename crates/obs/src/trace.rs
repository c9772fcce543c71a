//! Request-scoped tracing: per-request span trees with typed events.
//!
//! The metrics registry ([`crate::metrics`]) answers "how much, over the
//! whole process"; this module answers "what happened, in *this*
//! request, in what order". A [`Trace`] is installed
//! for the dynamic extent of one request (or one CLI command) and every
//! [`crate::span`] opened while it is installed additionally records a
//! start/end pair into the trace; instrumentation sites attach typed
//! events ([`trace_event!`]) — a view pruned, an MCD rejected, a cover
//! verified, a cache hit — to whatever span is open.
//!
//! **Threading.** The installed trace is part of the thread's
//! [request context](crate::ctx), so it records that thread only, and a
//! [`Trace`] is a single-thread value (`Rc`, `Cell`, `RefCell`):
//!
//! ```compile_fail,E0277
//! let trace = viewplan_obs::Trace::new();
//! std::thread::spawn(move || drop(trace));
//! ```
//!
//! Each [`install`] tags its records with a trace-local `tid` of its
//! own. Spans carry trace-unique ids and a parent id, from which
//! [`Trace::tree`] builds the span tree.
//!
//! **Exports.** [`Trace::chrome_json`] renders the records as a Chrome
//! trace-event JSON array (load in `chrome://tracing` or Perfetto);
//! [`Trace::render_tree`] renders a human-readable tree with durations
//! and inline events (`viewplan ... --trace`).
//!
//! Tracing obeys the global [`crate::enabled`] switch: with collection
//! off, an installed trace records nothing.

use crate::ctx::{self, CtxGuard, Frame, Part};
use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

/// One typed attribute value on a trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// An unsigned measurement (counts, sizes, indices).
    U64(u64),
    /// A label (view name, rejection reason).
    Str(String),
    /// A yes/no outcome.
    Bool(bool),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(n) => write!(f, "{n}"),
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> AttrValue {
        AttrValue::U64(n)
    }
}

impl From<usize> for AttrValue {
    fn from(n: usize) -> AttrValue {
        AttrValue::U64(n as u64)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> AttrValue {
        AttrValue::Bool(b)
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> AttrValue {
        AttrValue::Str(s)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> AttrValue {
        AttrValue::Str(s.to_string())
    }
}

/// Event attributes: name/value pairs with typed values.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// One record of a trace. Span ids are unique within a trace; `parent`
/// 0 means "root of the trace".
enum Record {
    Start {
        id: u64,
        parent: u64,
        name: &'static str,
        t_ns: u64,
    },
    End {
        id: u64,
        t_ns: u64,
    },
    Event {
        span: u64,
        name: &'static str,
        t_ns: u64,
        attrs: Attrs,
    },
}

struct Inner {
    epoch: Instant,
    next_span: Cell<u64>,
    next_tid: Cell<u64>,
    /// Every record in append order, each tagged with the `tid` of the
    /// install that wrote it.
    records: RefCell<Vec<(u64, Record)>>,
}

/// A request-scoped trace. Cheap to clone (an `Rc`); install it on the
/// request thread with [`install`].
#[derive(Clone)]
pub struct Trace {
    inner: Rc<Inner>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace; timestamps are relative to this call.
    pub fn new() -> Trace {
        Trace {
            inner: Rc::new(Inner {
                epoch: Instant::now(),
                next_span: Cell::new(1),
                next_tid: Cell::new(0),
                records: RefCell::new(Vec::new()),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, tid: u64, record: Record) {
        self.inner.records.borrow_mut().push((tid, record));
    }

    /// Number of spans recorded so far (started, whether or not ended).
    pub fn span_count(&self) -> usize {
        self.count(|r| matches!(r, Record::Start { .. }))
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        self.count(|r| matches!(r, Record::Event { .. }))
    }

    fn count(&self, kind: impl Fn(&Record) -> bool) -> usize {
        let records = self.inner.records.borrow();
        records.iter().filter(|(_, r)| kind(r)).count()
    }

    /// Builds the span tree by span id. Children are ordered by start
    /// time (ties by id, i.e. allocation order); a span whose `End` was
    /// never recorded (trace exported while it was still open) reports a
    /// zero duration.
    pub fn tree(&self) -> Vec<TraceNode> {
        // Each span with its parent's id.
        let mut spans: BTreeMap<u64, (u64, TraceNode)> = BTreeMap::new();
        for (tid, record) in self.inner.records.borrow().iter() {
            match record {
                Record::Start {
                    id,
                    parent,
                    name,
                    t_ns,
                } => {
                    let node = TraceNode {
                        id: *id,
                        name,
                        tid: *tid,
                        start_ns: *t_ns,
                        end_ns: *t_ns,
                        events: Vec::new(),
                        children: Vec::new(),
                    };
                    spans.insert(*id, (*parent, node));
                }
                Record::End { id, t_ns } => {
                    if let Some((_, node)) = spans.get_mut(id) {
                        node.end_ns = *t_ns;
                    }
                }
                Record::Event {
                    span,
                    name,
                    t_ns,
                    attrs,
                } => {
                    if let Some((_, node)) = spans.get_mut(span) {
                        node.events.push(TraceEvent {
                            name,
                            t_ns: *t_ns,
                            attrs: attrs.clone(),
                        });
                    }
                }
            }
        }
        // Attach children to parents, deepest ids first so that a child
        // is fully built (its own children attached) before it moves
        // into its parent.
        let mut roots: Vec<TraceNode> = Vec::new();
        while let Some((_, (parent, node))) = spans.pop_last() {
            match spans.get_mut(&parent) {
                Some((_, p)) => p.children.push(node),
                None => roots.push(node),
            }
        }
        roots.sort_by_key(|n| (n.start_ns, n.id));
        for root in &mut roots {
            sort_children(root);
        }
        roots
    }

    /// The trace as a Chrome trace-event JSON array (the `chrome://
    /// tracing` / Perfetto interchange format): `B`/`E` duration pairs
    /// per span and `i` instant events, timestamps in microseconds,
    /// one `tid` per install.
    pub fn chrome_json(&self) -> String {
        let mut entries: Vec<Json> = Vec::new();
        for (tid, record) in self.inner.records.borrow().iter() {
            let mut obj: BTreeMap<String, Json> = BTreeMap::new();
            obj.insert("pid".into(), Json::num(1));
            obj.insert("tid".into(), Json::num(*tid));
            match record {
                Record::Start { id, name, t_ns, .. } => {
                    obj.insert("ph".into(), Json::str("B"));
                    obj.insert("name".into(), Json::str(*name));
                    obj.insert("ts".into(), Json::Number(*t_ns as f64 / 1e3));
                    let mut args = BTreeMap::new();
                    args.insert("span".to_string(), Json::num(*id));
                    obj.insert("args".into(), Json::Object(args));
                }
                Record::End { t_ns, .. } => {
                    obj.insert("ph".into(), Json::str("E"));
                    obj.insert("ts".into(), Json::Number(*t_ns as f64 / 1e3));
                }
                Record::Event {
                    span,
                    name,
                    t_ns,
                    attrs,
                } => {
                    obj.insert("ph".into(), Json::str("i"));
                    obj.insert("s".into(), Json::str("t"));
                    obj.insert("name".into(), Json::str(*name));
                    obj.insert("ts".into(), Json::Number(*t_ns as f64 / 1e3));
                    let mut args = BTreeMap::new();
                    args.insert("span".to_string(), Json::num(*span));
                    for (key, value) in attrs {
                        args.insert(
                            (*key).to_string(),
                            match value {
                                AttrValue::U64(n) => Json::num(*n),
                                AttrValue::Str(s) => Json::str(s.clone()),
                                AttrValue::Bool(b) => Json::Bool(*b),
                            },
                        );
                    }
                    obj.insert("args".into(), Json::Object(args));
                }
            }
            entries.push(Json::Object(obj));
        }
        Json::Array(entries).render()
    }

    /// A human-readable rendering of [`Trace::tree`]: one line per span
    /// with duration and thread, events indented beneath the span they
    /// belong to.
    pub fn render_tree(&self) -> String {
        let roots = self.tree();
        let mut out = format!(
            "trace: {} span(s), {} event(s)\n",
            self.span_count(),
            self.event_count()
        );
        for root in &roots {
            render_node(&mut out, root, 0);
        }
        out
    }
}

/// Checks that `doc` is a structurally well-formed Chrome trace-event
/// array as [`Trace::chrome_json`] emits it: every entry carries
/// `pid`/`tid`/`ts` and a phase in {`B`, `E`, `i`}, `B`/`E` pairs
/// balance per thread (never dipping below zero), and `B`/`i` entries
/// are named. Used by the CLI integration tests and `benchmark/` to keep
/// the export loadable by `chrome://tracing` / Perfetto.
pub fn validate_chrome_trace(doc: &Json) -> Result<(), String> {
    let entries = doc
        .as_array()
        .ok_or_else(|| "top level must be a JSON array".to_string())?;
    let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
    for (i, entry) in entries.iter().enumerate() {
        let field = |name: &str| {
            entry
                .get(name)
                .ok_or_else(|| format!("entry {i}: missing {name:?}"))
        };
        field("pid")?
            .as_u64()
            .ok_or_else(|| format!("entry {i}: pid must be an integer"))?;
        let tid = field("tid")?
            .as_u64()
            .ok_or_else(|| format!("entry {i}: tid must be an integer"))?;
        field("ts")?
            .as_f64()
            .ok_or_else(|| format!("entry {i}: ts must be a number"))?;
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("entry {i}: ph must be a string"))?;
        match ph {
            "B" | "i" => {
                let name = field("name")?
                    .as_str()
                    .ok_or_else(|| format!("entry {i}: name must be a string"))?;
                if name.is_empty() {
                    return Err(format!("entry {i}: empty event name"));
                }
                if ph == "B" {
                    *depth.entry(tid).or_insert(0) += 1;
                }
            }
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    return Err(format!("entry {i}: E without a matching B on tid {tid}"));
                }
            }
            other => return Err(format!("entry {i}: unknown phase {other:?}")),
        }
    }
    for (tid, d) in depth {
        if d != 0 {
            return Err(format!("tid {tid}: {d} span(s) left open (unbalanced B/E)"));
        }
    }
    Ok(())
}

fn sort_children(node: &mut TraceNode) {
    node.children.sort_by_key(|n| (n.start_ns, n.id));
    for child in &mut node.children {
        sort_children(child);
    }
}

fn render_node(out: &mut String, node: &TraceNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let duration = std::time::Duration::from_nanos(node.end_ns.saturating_sub(node.start_ns));
    out.push_str(&format!(
        "{indent}{} {} [t{}]\n",
        node.name,
        crate::report::format_duration(duration),
        node.tid
    ));
    for event in &node.events {
        let attrs: Vec<String> = event
            .attrs
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push_str(&format!(
            "{indent}  · {}{}{}\n",
            event.name,
            if attrs.is_empty() { "" } else { " " },
            attrs.join(" ")
        ));
    }
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

/// One stitched span of a [`Trace::tree`].
#[derive(Clone, Debug)]
pub struct TraceNode {
    /// Process-unique span id within the trace.
    pub id: u64,
    /// Span name (same names as the aggregate phase tree).
    pub name: &'static str,
    /// The trace-local id of the [`install`] the span opened under.
    pub tid: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch (= `start_ns` if the span
    /// never closed before export).
    pub end_ns: u64,
    /// Events recorded while this span was the innermost open one, in
    /// time order.
    pub events: Vec<TraceEvent>,
    /// Spans opened inside this one, in start order.
    pub children: Vec<TraceNode>,
}

/// One typed event attached to a span.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name (registered at exactly one site; see the xtask lint).
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Typed attributes.
    pub attrs: Attrs,
}

// ---------------------------------------------------------------------
// Installation into the request context.

/// A trace as one install records into it — the `trace` part of the
/// thread's request context.
pub(crate) struct TraceSlot {
    trace: Trace,
    /// The trace-local id of this install, tagging its records.
    tid: u64,
    /// How many span frames were already open on the thread when the
    /// trace was installed. Those are not this trace's spans: one opened
    /// at that depth is a root, and closing one of them records nothing.
    floor: usize,
}

impl TraceSlot {
    /// The id of the innermost open span of this trace (0 = its root).
    fn innermost(&self, frames: &[Frame]) -> u64 {
        frames
            .get(self.floor..)
            .and_then(<[Frame]>::last)
            .map_or(0, |frame| frame.id)
    }

    /// Records the start of a span opening under `frames`; returns its
    /// id.
    pub(crate) fn start(&self, name: &'static str, frames: &[Frame]) -> u64 {
        let next = &self.trace.inner.next_span;
        let id = next.replace(next.get() + 1);
        let start = Record::Start {
            id,
            parent: self.innermost(frames),
            name,
            t_ns: self.trace.now_ns(),
        };
        self.trace.push(self.tid, start);
        id
    }

    /// Records the end of `frame`, just popped from `depth`, if it is
    /// one of this trace's spans.
    pub(crate) fn end(&self, frame: &Frame, depth: usize) {
        if frame.id != 0 && depth >= self.floor {
            let end = Record::End {
                id: frame.id,
                t_ns: self.trace.now_ns(),
            };
            self.trace.push(self.tid, end);
        }
    }
}

/// Installs `trace` on this thread for the guard's lifetime: every
/// subsequent [`crate::span`] and [`trace_event!`] on this thread
/// records into it (while collection is [enabled](crate::enabled)),
/// under a `tid` of its own.
pub fn install(trace: &Trace) -> CtxGuard {
    let next = &trace.inner.next_tid;
    let slot = TraceSlot {
        trace: trace.clone(),
        tid: next.replace(next.get() + 1),
        floor: ctx::with_frames(|_, frames| frames.len()),
    };
    ctx::scoped(Part::Trace(Some(slot)))
}

/// Whether a trace is installed on this thread (regardless of the
/// global enabled switch).
pub fn active() -> bool {
    ctx::with(|ctx| ctx.trace.is_some())
}

/// Records a typed event on the innermost open span of this thread's
/// installed trace. `attrs` is only evaluated when a trace is installed
/// and collection is enabled, so call sites stay allocation-free in the
/// untraced hot path. Use [`trace_event!`] rather than calling directly:
/// the macro is what the repo lint ratchets for single-site names.
pub fn record_event(name: &'static str, attrs: impl FnOnce() -> Attrs) {
    if !crate::enabled() {
        return;
    }
    ctx::with_frames(|ctx, frames| {
        if let Some(slot) = &ctx.trace {
            let event = Record::Event {
                span: slot.innermost(frames),
                name,
                t_ns: slot.trace.now_ns(),
                attrs: attrs(),
            };
            slot.trace.push(slot.tid, event);
        }
    });
}

/// Records a typed event on the current trace span:
/// `obs::trace_event!("analyze.view_pruned", ("view", name))`.
/// Attribute values take anything `Into<AttrValue>` (u64, usize, bool,
/// &str, String) and are evaluated lazily — only when a trace is
/// installed. Each event name must appear at exactly one non-test call
/// site (enforced by `cargo run -p xtask`).
#[macro_export]
macro_rules! trace_event {
    ($name:expr) => {
        $crate::trace::record_event($name, std::vec::Vec::new)
    };
    ($name:expr, $(($key:expr, $value:expr)),+ $(,)?) => {
        $crate::trace::record_event($name, || {
            vec![$(($key, $crate::trace::AttrValue::from($value))),+]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Collection is process-global; tests here only toggle it on and
    // rely on thread-local trace installation for isolation.

    #[test]
    fn spans_and_events_stitch_into_a_tree() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        let trace = Trace::new();
        {
            let _g = install(&trace);
            let _outer = crate::span("trace_test.outer");
            crate::trace_event!("trace_test.marker", ("n", AttrValue::U64(3)));
            {
                let _inner = crate::span("trace_test.inner");
            }
        }
        let roots = trace.tree();
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(outer.name, "trace_test.outer");
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "trace_test.inner");
        assert_eq!(outer.events.len(), 1);
        assert_eq!(outer.events[0].attrs, vec![("n", AttrValue::U64(3))]);
        assert!(outer.end_ns >= outer.children[0].end_ns);
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_collection_records_nothing() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(false);
        let trace = Trace::new();
        {
            let _g = install(&trace);
            let _s = crate::span("trace_test.disabled");
            crate::trace_event!("trace_test.disabled_event");
        }
        assert_eq!(trace.span_count(), 0);
        assert_eq!(trace.event_count(), 0);
    }

    #[test]
    fn without_a_trace_nothing_is_recorded_anywhere() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        {
            let _s = crate::span("trace_test.untraced");
            crate::trace_event!("trace_test.untraced_event");
        }
        // No trace installed: the only assertion is "no panic"; the
        // aggregate phase tree still sees the span.
        crate::set_enabled(false);
    }

    #[test]
    fn chrome_json_is_valid_and_balanced() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        let trace = Trace::new();
        {
            let _g = install(&trace);
            let _a = crate::span("trace_test.chrome_a");
            crate::trace_event!(
                "trace_test.chrome_marker",
                ("why", AttrValue::Str("demo".into())),
                ("ok", AttrValue::Bool(true)),
            );
        }
        let doc = trace.chrome_json();
        let parsed = crate::json::parse(&doc).expect("chrome trace is valid JSON");
        validate_chrome_trace(&parsed).expect("chrome trace passes its own validator");
        let entries = parsed.as_array().expect("top level is an array");
        let phase = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_string();
        let begins = entries.iter().filter(|e| phase(e) == "B").count();
        let ends = entries.iter().filter(|e| phase(e) == "E").count();
        let instants = entries.iter().filter(|e| phase(e) == "i").count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1);
        assert_eq!(instants, 1);
        let marker = entries.iter().find(|e| phase(e) == "i").unwrap();
        assert_eq!(
            marker
                .get("args")
                .and_then(|a| a.get("why"))
                .and_then(Json::as_str),
            Some("demo")
        );
        crate::set_enabled(false);
    }

    #[test]
    fn each_install_of_one_trace_exports_its_own_tid() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        let trace = Trace::new();
        for _ in 0..2 {
            let _g = install(&trace);
            let _outer = crate::span("trace_test.install_outer");
            let _inner = crate::span("trace_test.install_inner");
        }
        let parsed = crate::json::parse(&trace.chrome_json()).expect("chrome trace is valid JSON");
        validate_chrome_trace(&parsed).expect("each install's spans balance under its own tid");
        let tids: Vec<u64> = trace.tree().iter().map(|root| root.tid).collect();
        assert_eq!(tids, [0, 1], "each install's outer span is a root");
        assert!(trace.tree().iter().all(|r| r.children.len() == 1));
        crate::set_enabled(false);
    }

    #[test]
    fn chrome_validator_rejects_malformed_traces() {
        let check = |text: &str| validate_chrome_trace(&crate::json::parse(text).expect("json"));
        assert!(check("{}").unwrap_err().contains("array"));
        // E before any B on its thread.
        assert!(check(r#"[{"pid": 1, "tid": 0, "ts": 1.0, "ph": "E"}]"#)
            .unwrap_err()
            .contains("without a matching B"));
        // B left open at the end.
        assert!(
            check(r#"[{"pid": 1, "tid": 0, "ts": 1.0, "ph": "B", "name": "s"}]"#)
                .unwrap_err()
                .contains("left open")
        );
        // Unknown phase letter.
        assert!(
            check(r#"[{"pid": 1, "tid": 0, "ts": 1.0, "ph": "X", "name": "s"}]"#)
                .unwrap_err()
                .contains("unknown phase")
        );
        // Balanced pair with a named instant passes.
        assert!(check(
            r#"[{"pid": 1, "tid": 0, "ts": 1.0, "ph": "B", "name": "s"},
                {"pid": 1, "tid": 0, "ts": 2.0, "ph": "i", "name": "e", "s": "t"},
                {"pid": 1, "tid": 0, "ts": 3.0, "ph": "E"}]"#
        )
        .is_ok());
    }

    #[test]
    fn render_tree_shows_spans_and_events() {
        let _serial = crate::testlock::serial();
        crate::set_enabled(true);
        let trace = Trace::new();
        {
            let _g = install(&trace);
            let _a = crate::span("trace_test.render_root");
            crate::trace_event!("trace_test.render_event", ("k", AttrValue::U64(7)));
        }
        let text = trace.render_tree();
        assert!(text.contains("trace_test.render_root"));
        assert!(text.contains("· trace_test.render_event k=7"));
        crate::set_enabled(false);
    }
}
