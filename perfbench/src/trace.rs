//! The benchmark's own spans around its calls into each layer. Spans are
//! kept in memory and written out when the run ends; nothing inside the
//! program is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    /// The unit of work (pass or round index) the span belongs to.
    unit: usize,
    parent: Option<SpanId>,
    start: Instant,
    end: Instant,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span from timestamps the caller took anyway.
    pub fn record(
        &mut self,
        name: &'static str,
        unit: usize,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            unit,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// One line per span: id, parent, name, unit, start and end in
    /// microseconds since the trace began.
    pub fn render(&self) -> String {
        let mut out = String::from("id\tparent\tname\tunit\tstart_us\tend_us\n");
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{:.1}\t{:.1}",
                s.name,
                s.unit,
                us(s.start),
                us(s.end)
            );
        }
        out
    }
}
