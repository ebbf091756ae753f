//! Exporters: human-readable tree, machine JSON, and Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` / Perfetto).

use crate::json::push_quoted;
use crate::record::{Histogram, Record, SpanNode};
use std::fmt::Write as _;

fn span_json(node: &SpanNode, out: &mut String) {
    out.push_str("{\"name\":");
    push_quoted(out, node.name);
    let _ = write!(
        out,
        ",\"count\":{},\"total_ns\":{},\"children\":[",
        node.count, node.total_ns
    );
    for (i, c) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        span_json(c, out);
    }
    out.push_str("]}");
}

fn histogram_json(h: &Histogram, out: &mut String) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.6},\"buckets\":[",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        h.mean()
    );
    for (i, (lo, hi, c)) in h.nonzero_buckets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"lo\":{lo},\"hi\":{hi},\"count\":{c}}}");
    }
    out.push_str("]}");
}

fn span_tree(node: &SpanNode, depth: usize, parent_ns: Option<u64>, out: &mut String) {
    let pct = parent_ns
        .filter(|&p| p > 0)
        .map(|p| format!(" ({:.0}%)", 100.0 * node.total_ns as f64 / p as f64))
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "{:indent$}{:<30} {:>8}x {:>12.3} ms {:>12.3} ms self{}",
        "",
        node.name,
        node.count,
        node.total_ms(),
        node.self_ns() as f64 / 1e6,
        pct,
        indent = 2 * depth
    );
    for c in &node.children {
        span_tree(c, depth + 1, Some(node.total_ns), out);
    }
}

impl Record {
    /// Renders the record as an indented human-readable report: the
    /// span tree with per-node counts, total and self times and share of
    /// the parent, then counters, then histogram summaries.
    pub fn to_tree_string(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                span_tree(s, 1, None, &mut out);
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<40} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<40} count={} mean={:.1} min={} max={}",
                    h.count(),
                    h.mean(),
                    h.min(),
                    h.max()
                );
            }
        }
        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "(trace events dropped at cap: {})",
                self.dropped_events
            );
        }
        out
    }

    /// Serializes the record as machine-readable JSON: span tree,
    /// counters, histograms (non-empty buckets only) and the trace
    /// event count.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"openserdes-telemetry-record/1\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            span_json(s, &mut out);
        }
        out.push_str("],\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_quoted(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_quoted(&mut out, k);
            out.push(':');
            histogram_json(h, &mut out);
        }
        let _ = write!(
            out,
            "}},\"events\":{},\"dropped_events\":{}}}",
            self.events.len(),
            self.dropped_events
        );
        out
    }

    /// Serializes the record's concrete span occurrences in Chrome
    /// `trace_event` format — load the output in `chrome://tracing` or
    /// <https://ui.perfetto.dev>. Each event is a complete (`"X"`) slice
    /// with microsecond timestamps on the shared process timeline; the
    /// recording thread's ordinal becomes the trace `tid`.
    ///
    /// Requires trace events to have been enabled during recording
    /// ([`crate::set_trace_events`]); with none recorded the trace is
    /// valid but empty.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"openserdes\"}}",
        );
        for e in &self.events {
            out.push_str(",{\"name\":");
            push_quoted(&mut out, e.name);
            let _ = write!(
                out,
                ",\"cat\":\"openserdes\",\"ph\":\"X\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                e.tid
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceEvent;

    fn sample() -> Record {
        let mut rec = Record::new();
        rec.spans = vec![SpanNode {
            name: "run",
            count: 1,
            total_ns: 2_000_000,
            children: vec![SpanNode {
                name: "stage",
                count: 4,
                total_ns: 1_000_000,
                children: vec![],
            }],
        }];
        rec.counters.insert("bits", 256);
        let mut h = Histogram::default();
        h.record(3);
        h.record(300);
        rec.histograms.insert("cost", h);
        rec.events.push(TraceEvent {
            name: "stage",
            start_ns: 1500,
            dur_ns: 250_000,
            tid: 2,
        });
        rec
    }

    #[test]
    fn tree_report_shows_all_sections() {
        let s = sample().to_tree_string();
        assert!(s.contains("spans:"));
        assert!(s.contains("run"));
        assert!(s.contains("stage"));
        assert!(s.contains("(50%)"), "child share of parent: {s}");
        assert!(s.contains("counters:"));
        assert!(s.contains("bits"));
        assert!(s.contains("histograms:"));
    }

    #[test]
    fn tree_report_shows_self_time() {
        let mut rec = sample();
        rec.spans[0].total_ns = 3_000_000;
        let s = rec.to_tree_string();
        let line = |name: &str| {
            s.lines()
                .find(|l| l.trim_start().starts_with(name))
                .unwrap_or_else(|| panic!("no {name} line in {s}"))
                .to_string()
        };
        // The parent's self time excludes its child; a leaf's is its total.
        assert!(line("run").contains("3.000 ms        2.000 ms self"), "{s}");
        assert!(
            line("stage").contains("1.000 ms        1.000 ms self"),
            "{s}"
        );
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"schema\":\"openserdes-telemetry-record/1\""));
        assert!(j.contains("\"name\":\"run\""));
        assert!(j.contains("\"counters\":{\"bits\":256}"));
        assert!(j.contains("\"lo\":2,\"hi\":3,\"count\":1"));
        assert!(j.contains("\"events\":1"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let t = sample().to_chrome_trace();
        assert!(t.contains("\"traceEvents\":["));
        assert!(t.contains("\"ph\":\"M\""));
        assert!(t.contains("\"ph\":\"X\""));
        assert!(t.contains("\"ts\":1.500"));
        assert!(t.contains("\"dur\":250.000"));
        assert!(t.contains("\"tid\":2"));
        assert_eq!(t.matches('{').count(), t.matches('}').count());
    }

    #[test]
    fn empty_record_exports_are_valid() {
        let r = Record::new();
        assert_eq!(r.to_tree_string(), "");
        assert!(r.to_json().contains("\"spans\":[]"));
        assert!(r.to_chrome_trace().ends_with("]}"));
    }
}
