//! Spans the benchmark records around its calls into the library, kept
//! in memory and written out as JSON lines when the run ends.

use activedr_sim::SimResult;
use std::fmt::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_us: f64,
    end_us: Option<f64>,
}

/// One trigger's four phases, attached to the replay span that ran it.
/// The engine reports their durations, not their start times.
struct Phases {
    replay: usize,
    day: i64,
    micros: [u64; 4],
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    phases: Vec<Phases>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            phases: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Start a span; its id is the argument to [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            start_us,
            end_us: None,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_us();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_us = Some(end);
        }
    }

    /// Attach every fired trigger's evaluate / catalog / decide / apply
    /// durations to the replay span `replay`.
    pub fn phases(&mut self, replay: usize, result: &SimResult) {
        self.phases.extend(result.retentions.iter().map(|r| Phases {
            replay,
            day: r.day,
            micros: [
                r.eval_micros,
                r.scan_micros,
                r.decision_micros,
                r.apply_micros,
            ],
        }));
    }

    /// One JSON object per line: spans first (with id, parent, start and
    /// end in µs since the log began), then trigger phases.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end_us.unwrap_or(s.start_us);
            let _ = writeln!(
                out,
                "{{\"span\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {end:.1}}}",
                s.name, s.start_us
            );
        }
        for p in &self.phases {
            let [eval, catalog, decide, apply] = p.micros;
            let _ = writeln!(
                out,
                "{{\"trigger_of\": {}, \"day\": {}, \"evaluate_us\": {eval}, \"catalog_us\": {catalog}, \"decide_us\": {decide}, \"apply_us\": {apply}}}",
                p.replay, p.day
            );
        }
        out
    }
}
