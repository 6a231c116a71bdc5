//! In-memory span recorder for the traced run.
//!
//! A span records one call into a layer: its name, start and end, the
//! span that was open when it began (its parent) and the run it belongs
//! to. Loops too fine-grained for one span per call (the per-element
//! kernel stages) are folded into one *aggregate* span per sweep, which
//! carries the summed busy time and the number of calls it stands for.
//! Spans stay in memory and are written out once, when the run ends.
//!
//! A span's self time is its busy time minus the busy time of its direct
//! children, so the self times of a tree add up to the busy time of its
//! root exactly (the sums telescope).

use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded layer call (or aggregate of calls).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, `layer.operation`.
    pub name: &'static str,
    /// The span open when this one began.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Time spent in the layer: `end − start` for a plain span, the summed
    /// call durations for an aggregate.
    pub busy_ns: u64,
    /// Calls the span stands for (1 for a plain span).
    pub calls: u64,
}

/// Records spans against one clock origin.
#[derive(Debug)]
pub struct Tracer {
    run: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer for the run named `run`.
    pub fn new(run: String) -> Tracer {
        Tracer {
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    /// Records `calls` calls of `name` that together took `busy`, as a
    /// child of the innermost open span.
    pub fn aggregate(&mut self, name: &'static str, busy: std::time::Duration, calls: u64) {
        let parent = *self.open.last().expect("an aggregate needs an open parent");
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns: self.now_ns(),
            busy_ns: busy.as_nanos() as u64,
            calls,
        });
    }

    /// Every span recorded so far, parents before children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
                self.run, s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its busy time minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.busy_ns as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.busy_ns as i64;
        }
    }
    out
}

/// The root ancestor of every span (itself for a root).
pub fn roots(spans: &[Span]) -> Vec<SpanId> {
    let mut out = Vec::with_capacity(spans.len());
    for (id, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        out.push(s.parent.map_or(id, |p| out[p]));
    }
    out
}

/// Busy microseconds of every span named `name`, in record order.
pub fn busy_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.busy_ns as f64 / 1e3)
        .collect()
}

/// Self microseconds of every span named `name`, in record order.
pub fn self_us(spans: &[Span], selfs: &[i64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t as f64 / 1e3)
        .collect()
}

/// Self time summed per layer over the trees rooted at spans named
/// `root`, with the summed busy time of those roots — the ledger whose
/// layer rows must add up to the root total.
pub fn ledger(spans: &[Span], root: &str) -> (Vec<(&'static str, i64)>, i64) {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, i64)> = Vec::new();
    let mut total = 0i64;
    for ((s, &t), &r) in spans.iter().zip(&selfs).zip(&roots(spans)) {
        if spans[r].name != root {
            continue;
        }
        if s.parent.is_none() {
            total += s.busy_ns as i64;
        }
        match rows.iter_mut().find(|(n, _)| *n == s.name) {
            Some(row) => row.1 += t,
            None => rows.push((s.name, t)),
        }
    }
    (rows, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            calls: 1,
        }
    }

    /// One step with two RHS evaluations, each with an RKU call and an
    /// assembly whose kernel stages are folded into aggregates.
    fn step_tree() -> Vec<Span> {
        let mut v = vec![
            span("driver.step", None, 0, 1000),
            span("driver.rhs", Some(0), 10, 410),
            span("state.rku", Some(1), 20, 70),
            span("engine.assemble", Some(1), 80, 380),
        ];
        v.push(Span {
            name: "kernels.flux",
            parent: Some(3),
            start_ns: 80,
            end_ns: 380,
            busy_ns: 250,
            calls: 64,
        });
        v.push(span("driver.rhs", Some(0), 500, 900));
        v.push(span("state.rku", Some(5), 510, 560));
        v.push(span("engine.assemble", Some(5), 570, 870));
        v.push(span("diagnostics", None, 1000, 1100));
        v
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = step_tree();
        let selfs = self_times(&spans);
        // step: 1000 − 2 × 400
        assert_eq!(selfs[0], 200);
        // rhs: 400 − 50 − 300
        assert_eq!(selfs[1], 50);
        // assemble: 300 − 250 (the aggregate's busy time, not its interval)
        assert_eq!(selfs[3], 50);
        assert_eq!(selfs[4], 250);
        assert_eq!(selfs[7], 300);
        assert_eq!(selfs[8], 100);
    }

    #[test]
    fn ledger_rows_add_up_to_the_root() {
        let spans = step_tree();
        let (rows, total) = ledger(&spans, "driver.step");
        assert_eq!(total, 1000);
        assert_eq!(rows.iter().map(|r| r.1).sum::<i64>(), total);
        // The diagnostics tree is not part of the step ledger.
        assert!(rows.iter().all(|r| r.0 != "diagnostics"));
        let row = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().1;
        assert_eq!(row("state.rku"), 100);
        assert_eq!(row("kernels.flux"), 250);
        assert_eq!(row("engine.assemble"), 50 + 300);
    }

    #[test]
    fn derived_driver_rows_are_differences() {
        // driver.mass_bc is the RHS self time (rhs − rku − assemble) and
        // driver.rk_update the step self time (step − Σ rhs).
        let spans = step_tree();
        let selfs = self_times(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        let rhs = busy_us(&spans, "driver.rhs");
        let rku = busy_us(&spans, "state.rku");
        let asm = busy_us(&spans, "engine.assemble");
        let mass_bc = self_us(&spans, &selfs, "driver.rhs");
        assert_eq!(mass_bc.len(), 2);
        for i in 0..2 {
            assert!(close(mass_bc[i], rhs[i] - rku[i] - asm[i]));
        }
        let step = busy_us(&spans, "driver.step")[0];
        let rk_update = self_us(&spans, &selfs, "driver.step")[0];
        assert!(close(rk_update, step - rhs.iter().sum::<f64>()));
        assert!(close(rk_update, 0.2));
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::new("test".into());
        let a = t.open("driver.step");
        let b = t.open("driver.rhs");
        t.aggregate("kernels.gather", std::time::Duration::from_nanos(5), 3);
        t.close(b);
        t.close(a);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(a));
        assert_eq!(s[2].parent, Some(b));
        assert_eq!((s[2].busy_ns, s[2].calls), (5, 3));
        assert!(s[0].busy_ns >= s[1].busy_ns);
        assert_eq!(roots(s), vec![0, 0, 0]);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().contains("\"parent\":1"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new("test".into());
        let a = t.open("a");
        let _b = t.open("b");
        t.close(a);
    }
}
