//! Golden-byte tests for every JSON document the workspace writes with
//! the shared codec: the `openserdes-serve/1` envelope and reply
//! frames, canonical job responses, the telemetry record and Chrome
//! trace, and `LINT.json` reports. Each document is built from
//! hand-made values (no engine runs), so a failure here means the
//! encoding itself changed — field order, number formatting or string
//! escaping — not a simulation result.

use openserdes::core::job::{DesignSpec, FindingSummary, LintSummary, Request, Response};
use openserdes::core::link::{LinkReport, LinkStats};
use openserdes::core::sweep::BathtubPoint;
use openserdes::lint::{EntityKind, Finding, LintConfig, LintReport, Rule};
use openserdes::serve::wire::{self, Envelope};
use openserdes::telemetry::{Histogram, Record, SpanNode, TraceEvent};

/// Every character class the escaper treats specially: a quote, a
/// backslash, the three named control escapes, a bare control code and
/// a non-ASCII scalar that must pass through verbatim.
const NASTY: &str = "q\"b\\n\nr\rt\tu\u{1}π";
const NASTY_QUOTED: &str = r#""q\"b\\n\nr\rt\tu\u0001π""#;

#[test]
fn envelope_and_reply_frames_are_pinned() {
    let envelope = Envelope {
        tenant: NASTY.to_string(),
        priority: 3,
        seed: u64::MAX,
        deadline_ms: Some(250),
        request: Request::Lint {
            design: DesignSpec::Cdr { oversampling: 5 },
        },
    };
    assert_eq!(
        envelope.to_json(),
        format!(
            "{{\"schema\":\"openserdes-serve/1\",\"tenant\":{NASTY_QUOTED},\"priority\":3,\
             \"seed\":18446744073709551615,\"deadline_ms\":250,\
             \"request\":{{\"kind\":\"lint\",\"design\":{{\"name\":\"cdr\",\"oversampling\":5}}}}}}"
        )
    );
    let no_deadline = Envelope {
        deadline_ms: None,
        tenant: "acme".to_string(),
        ..envelope
    };
    assert_eq!(
        no_deadline.to_json(),
        "{\"schema\":\"openserdes-serve/1\",\"tenant\":\"acme\",\"priority\":3,\
         \"seed\":18446744073709551615,\
         \"request\":{\"kind\":\"lint\",\"design\":{\"name\":\"cdr\",\"oversampling\":5}}}"
    );
    assert_eq!(
        wire::ok_frame("{\"kind\":\"max_loss\",\"max_loss_db\":34.0}"),
        "{\"schema\":\"openserdes-serve/1\",\"response\":{\"kind\":\"max_loss\",\"max_loss_db\":34.0}}"
    );
    assert_eq!(
        wire::err_frame(NASTY),
        format!("{{\"schema\":\"openserdes-serve/1\",\"error\":{NASTY_QUOTED}}}")
    );
}

#[test]
fn canonical_responses_are_pinned() {
    let link = Response::Link(LinkReport {
        frames_sent: 4,
        frames_correct: 3,
        bits: 1024,
        bit_errors: 2,
        cdr_locked: true,
        cdr_phase_updates: 17,
        alignment_lag: 5,
        stats: LinkStats::default(),
    });
    assert_eq!(
        link.to_canonical_json(),
        "{\"kind\":\"link\",\"report\":{\"frames_sent\":4,\"frames_correct\":3,\"bits\":1024,\
         \"bit_errors\":2,\"cdr_locked\":true,\"cdr_phase_updates\":17,\"alignment_lag\":5}}"
    );

    let bathtub = Response::Bathtub(vec![
        BathtubPoint {
            phase_ui: 0.0,
            ber: 0.5,
        },
        BathtubPoint {
            phase_ui: 0.1 + 0.2,
            ber: 1e-12,
        },
        BathtubPoint {
            phase_ui: 0.75,
            ber: f64::NAN,
        },
    ]);
    assert_eq!(
        bathtub.to_canonical_json(),
        "{\"kind\":\"bathtub\",\"points\":[{\"phase_ui\":0.0,\"ber\":0.5},\
         {\"phase_ui\":0.30000000000000004,\"ber\":1e-12},{\"phase_ui\":0.75,\"ber\":\"nan\"}]}"
    );

    let lint = Response::Lint(LintSummary {
        errors: 1,
        warnings: 0,
        infos: 1,
        suppressed: 2,
        findings: vec![
            FindingSummary {
                rule: "IR001".to_string(),
                severity: "error".to_string(),
                message: NASTY.to_string(),
            },
            FindingSummary {
                rule: "IR004".to_string(),
                severity: "info".to_string(),
                message: "plain".to_string(),
            },
        ],
    });
    assert_eq!(
        lint.to_canonical_json(),
        format!(
            "{{\"kind\":\"lint\",\"summary\":{{\"errors\":1,\"warnings\":0,\"infos\":1,\"suppressed\":2,\
             \"findings\":[{{\"rule\":\"IR001\",\"severity\":\"error\",\"message\":{NASTY_QUOTED}}},\
             {{\"rule\":\"IR004\",\"severity\":\"info\",\"message\":\"plain\"}}]}}}}"
        )
    );
    // The pinned bytes are also what the parser reads back.
    for response in [link, bathtub, lint] {
        let json = response.to_canonical_json();
        let back = Response::from_json(&json).expect("canonical bytes parse");
        assert_eq!(back.to_canonical_json(), json);
    }
}

/// A record with one escaped span name in the tree, the counters, the
/// histograms and the trace events.
fn hand_built_record() -> Record {
    let mut rec = Record::new();
    rec.spans = vec![SpanNode {
        name: "run",
        count: 1,
        total_ns: 2_000_000,
        children: vec![SpanNode {
            name: "stage \"a\"\\b\n\u{1}",
            count: 4,
            total_ns: 1_000_000,
            children: vec![],
        }],
    }];
    rec.counters.insert("bits", 256);
    rec.counters.insert("odd\tkey", 1);
    let mut h = Histogram::default();
    h.record(3);
    h.record(300);
    rec.histograms.insert("cost", h);
    rec.events.push(TraceEvent {
        name: "stage \"a\"\\b\n\u{1}",
        start_ns: 1500,
        dur_ns: 250_000,
        tid: 2,
    });
    rec.dropped_events = 7;
    rec
}

#[test]
fn telemetry_record_and_chrome_trace_are_pinned() {
    let rec = hand_built_record();
    assert_eq!(
        rec.to_json(),
        "{\"schema\":\"openserdes-telemetry-record/1\",\"spans\":[{\"name\":\"run\",\"count\":1,\
         \"total_ns\":2000000,\"children\":[{\"name\":\"stage \\\"a\\\"\\\\b\\n\\u0001\",\"count\":4,\
         \"total_ns\":1000000,\"children\":[]}]}],\"counters\":{\"bits\":256,\"odd\\tkey\":1},\
         \"histograms\":{\"cost\":{\"count\":2,\"sum\":303,\"min\":3,\"max\":300,\"mean\":151.500000,\
         \"buckets\":[{\"lo\":2,\"hi\":3,\"count\":1},{\"lo\":256,\"hi\":511,\"count\":1}]}},\
         \"events\":1,\"dropped_events\":7}"
    );
    assert_eq!(
        rec.to_chrome_trace(),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\
         \"pid\":1,\"tid\":0,\"args\":{\"name\":\"openserdes\"}},\
         {\"name\":\"stage \\\"a\\\"\\\\b\\n\\u0001\",\"cat\":\"openserdes\",\"ph\":\"X\",\
         \"ts\":1.500,\"dur\":250.000,\"pid\":1,\"tid\":2}]}"
    );
}

#[test]
fn lint_report_json_is_pinned() {
    let cfg = LintConfig::default();
    let mut report = LintReport::new("dut \"x\"", "netlist");
    report.add(
        &cfg,
        Finding::new(Rule::UndrivenNet, "net \"a\\b\"\nnever driven\u{1}")
            .at_net("a\\b", 3)
            .with_related(EntityKind::Cell, "u\n1", 0),
    );
    report.add(
        &cfg.clone().allow(Rule::DanglingOutput),
        Finding::new(Rule::DanglingOutput, "dropped"),
    );
    assert_eq!(
        report.to_json(),
        "{\"design\":\"dut \\\"x\\\"\",\"domain\":\"netlist\",\"errors\":1,\"warnings\":0,\
         \"infos\":0,\"suppressed\":1,\"findings\":[{\"rule\":\"NL002\",\
         \"title\":\"undriven-net\",\"severity\":\"error\",\
         \"message\":\"net \\\"a\\\\b\\\"\\nnever driven\\u0001\",\
         \"location\":{\"kind\":\"net\",\"name\":\"a\\\\b\",\"id\":3},\
         \"related\":[{\"kind\":\"cell\",\"name\":\"u\\n1\",\"id\":0}]}]}"
    );
}
