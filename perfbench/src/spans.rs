//! The traced run's in-memory span recorder: one record per call into a
//! layer (name, start, end, the span that caused it, the request it
//! belongs to), kept in memory and written as JSON lines when the
//! benchmark ends. Spans inside the crates are a later issue; these sit
//! in perfbench's own code, around the calls.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request (one job, one read, one probe) share this.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The recorder. Disabled (the untraced run, and the untraced rounds of
/// a traced run) it records nothing and `span` only runs its closure.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub enabled: bool,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    request: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { epoch: Instant::now(), enabled, spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    /// Starts a new request; spans recorded until the next call share it.
    pub fn next_request(&mut self) -> u32 {
        self.request += 1;
        self.request
    }

    /// Runs `f` inside a span named `name`, nested under the span that
    /// is open on this recorder (if any).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        // Reserve the slot so ids are in start order and children can
        // name their parent before it ends.
        self.spans.push(SpanRec { id, parent, request: self.request, name, start_ns, end_ns: 0 });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Records a span measured elsewhere (a request whose reply another
    /// thread stamped). Returns its id so children can be attached.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(SpanRec {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(id)
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// One row of the stage table: all spans of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    /// Total minus the part of each span's interval its children cover.
    pub self_ns: u64,
    /// Whether spans of this name have no parent.
    pub root: bool,
}

/// The stage table plus the closure of the decomposed roots.
#[derive(Debug, Clone)]
pub struct StageTable {
    pub rows: Vec<StageRow>,
    /// Wall time of the root spans that have children (a root without
    /// children is a single measurement, attributed to itself).
    pub root_ns: u64,
    /// Time of those roots no child span covers — its own line.
    pub unattributed_ns: u64,
}

impl StageTable {
    /// Share of root time that child spans account for.
    pub fn closure(&self) -> f64 {
        if self.root_ns == 0 {
            return 1.0;
        }
        1.0 - self.unattributed_ns as f64 / self.root_ns as f64
    }

    pub fn print(&self, title: &str) {
        println!("stage table — {title}");
        println!("  {:<32} {:>8} {:>14} {:>14}", "span", "count", "total_ms", "self_ms");
        for r in &self.rows {
            println!(
                "  {:<32} {:>8} {:>14.3} {:>14.3}{}",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                if r.root { "  (root)" } else { "" }
            );
        }
        println!(
            "  {:<32} {:>8} {:>14} {:>14.3}",
            "unattributed",
            "",
            "",
            self.unattributed_ns as f64 / 1e6
        );
        println!(
            "  closure = {:.4} of {:.3} ms in roots with children",
            self.closure(),
            self.root_ns as f64 / 1e6
        );
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Builds the stage table: a span's self time is its duration minus the
/// part of that interval its child spans cover.
pub fn stage_table(spans: &[SpanRec]) -> StageTable {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: Vec<StageRow> = Vec::new();
    let (mut root_ns, mut unattributed_ns) = (0u64, 0u64);
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let cover = children.get_mut(&s.id).map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        let self_ns = dur - cover;
        if s.parent.is_none() && children.contains_key(&s.id) {
            root_ns += dur;
            unattributed_ns += self_ns;
        }
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.count += 1;
                r.total_ns += dur;
                r.self_ns += self_ns;
                r.root &= s.parent.is_none();
            }
            None => rows.push(StageRow {
                name: s.name,
                count: 1,
                total_ns: dur,
                self_ns,
                root: s.parent.is_none(),
            }),
        }
    }
    StageTable { rows, root_ns, unattributed_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, name: &'static str, s: u64, e: u64) -> SpanRec {
        SpanRec { id, parent, request: 1, name, start_ns: s, end_ns: e }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // root [0,100]; children [10,40] and [30,60] overlap; [90,120]
        // sticks out past the parent and is clipped.
        let spans: Vec<SpanRec> = vec![
            rec(0, None, "root", 0, 100),
            rec(1, Some(0), "a", 10, 40),
            rec(2, Some(0), "a", 30, 60),
            rec(3, Some(0), "b", 90, 120),
            rec(4, Some(1), "leaf", 15, 20),
        ];
        let mut spans = spans;
        // A childless root is a plain measurement, outside the closure.
        spans.push(rec(5, None, "probe", 200, 1000));
        let t = stage_table(&spans);
        assert_eq!(t.root_ns, 100);
        // covered = [10,60] ∪ [90,100] = 60
        assert_eq!(t.unattributed_ns, 40);
        assert!((t.closure() - 0.6).abs() < 1e-12);
        let row = |name: &str| t.rows.iter().find(|r| r.name == name).unwrap();
        let a = row("a");
        assert_eq!((a.count, a.total_ns, a.self_ns), (2, 60, 55));
        assert!(row("root").root);
        assert!(!a.root);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_runs_the_closure() {
        let mut r = Recorder::new(false);
        let v = r.span("x", |r| r.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn nesting_and_request_ids_are_recorded() {
        let mut r = Recorder::new(true);
        let q = r.next_request();
        r.span("outer", |r| {
            r.span("inner", |_| ());
        });
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(s[0].id));
        assert!(s.iter().all(|x| x.request == q));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
