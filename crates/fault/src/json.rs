//! JSON round-trip for [`FaultSchedule`] through the workspace's one
//! codec (`openserdes_telemetry::json`). Writing formats `f64` as the
//! shortest exact round-trip and `u64` in full, so
//! `from_json(to_json(s)) == s` bit-for-bit.
//!
//! Two layouts share one event writer and one event reader: the
//! self-describing document of [`FaultSchedule::to_json`], and the
//! compact `{"seed":…,"events":[…]}` body the job API embeds in its
//! canonical request encoding ([`FaultSchedule::push_compact_json`],
//! [`FaultSchedule::from_json_body`]).

use crate::{FaultError, FaultEvent, FaultKind, FaultSchedule};
use openserdes_telemetry::json::{self, get, Json};
use std::fmt::Write as _;

/// Schema tag stamped on every serialized schedule.
pub const SCHEMA: &str = "openserdes-fault-schedule/1";

impl FaultSchedule {
    /// Serializes the schedule as a self-describing JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"seed\": {},\n  \"events\": [",
            self.seed()
        );
        for (k, e) in self.events().iter().enumerate() {
            out.push_str(if k == 0 { "\n    " } else { ",\n    " });
            push_event(&mut out, e, Layout::PRETTY);
        }
        if self.events().is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    /// Parses a schedule previously written by [`FaultSchedule::to_json`]
    /// (or hand-authored to the same schema).
    ///
    /// # Errors
    ///
    /// [`FaultError::Parse`] on malformed JSON, a wrong/missing schema
    /// tag, unknown fault kinds, missing fields, or a flip probability
    /// that is not a finite value in `[0, 1]`.
    pub fn from_json(text: &str) -> Result<Self, FaultError> {
        parse_schedule(text).map_err(FaultError::Parse)
    }

    /// Appends the compact body `{"seed":…,"events":[…]}` (no schema
    /// tag, no whitespace): the layout the job API embeds in its
    /// canonical request encoding.
    pub fn push_compact_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"seed\":{},\"events\":[", self.seed());
        for (k, e) in self.events().iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            push_event(out, e, Layout::COMPACT);
        }
        out.push_str("]}");
    }

    /// Reads a `{"seed":…,"events":[…]}` body (as written by
    /// [`FaultSchedule::push_compact_json`]) from a parsed value, with
    /// the same checks as [`FaultSchedule::from_json`].
    ///
    /// # Errors
    ///
    /// A message naming the offending field on missing fields, unknown
    /// fault kinds, out-of-range integers or a flip probability that is
    /// not a finite value in `[0, 1]`.
    pub fn from_json_body(v: &Json) -> Result<Self, String> {
        parse_body(v.as_obj("faults")?)
    }
}

fn parse_schedule(text: &str) -> Result<FaultSchedule, String> {
    let value = json::parse(text)?;
    let obj = value.as_obj("document")?;
    let schema = get(obj, "schema")?.as_str("schema")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema `{schema}` (want `{SCHEMA}`)"));
    }
    parse_body(obj)
}

fn parse_body(obj: &[(String, Json)]) -> Result<FaultSchedule, String> {
    let mut schedule = FaultSchedule::new(get(obj, "seed")?.as_u64("seed")?);
    for (i, ev) in get(obj, "events")?.as_arr("events")?.iter().enumerate() {
        schedule.push(parse_event(ev).map_err(|msg| format!("events[{i}]: {msg}"))?);
    }
    Ok(schedule)
}

/// The punctuation of one event object.
#[derive(Clone, Copy)]
struct Layout {
    open: &'static str,
    /// Between a key and its value.
    colon: &'static str,
    /// Between two fields.
    comma: &'static str,
    close: &'static str,
}

impl Layout {
    /// `{ "at_ui": 100, "kind": "dropout" }` — the schedule document.
    const PRETTY: Self = Self {
        open: "{ ",
        colon: ": ",
        comma: ", ",
        close: " }",
    };
    /// `{"at_ui":100,"kind":"dropout"}` — the job encoding.
    const COMPACT: Self = Self {
        open: "{",
        colon: ":",
        comma: ",",
        close: "}",
    };
}

fn push_event(out: &mut String, e: &FaultEvent, l: Layout) {
    let Layout {
        open,
        colon: c,
        comma: s,
        close,
    } = l;
    let _ = write!(
        out,
        "{open}\"at_ui\"{c}{}{s}\"kind\"{c}\"{}\"",
        e.at_ui,
        e.kind.tag()
    );
    match &e.kind {
        FaultKind::BurstNoise {
            duration_ui,
            flip_prob,
        } => {
            let _ = write!(out, "{s}\"duration_ui\"{c}{duration_ui}{s}\"flip_prob\"{c}");
            json::push_f64(out, *flip_prob);
        }
        FaultKind::Dropout { duration_ui, level } => {
            let _ = write!(
                out,
                "{s}\"duration_ui\"{c}{duration_ui}{s}\"level\"{c}{level}"
            );
        }
        FaultKind::SupplyDroop {
            duration_ui,
            peak_flip_prob,
        } => {
            let _ = write!(
                out,
                "{s}\"duration_ui\"{c}{duration_ui}{s}\"peak_flip_prob\"{c}"
            );
            json::push_f64(out, *peak_flip_prob);
        }
        FaultKind::PhaseGlitch { offset_samples } => {
            let _ = write!(out, "{s}\"offset_samples\"{c}{offset_samples}");
        }
        FaultKind::ClockDrift {
            duration_ui,
            slip_period_ui,
            late,
        } => {
            let _ = write!(
                out,
                "{s}\"duration_ui\"{c}{duration_ui}{s}\"slip_period_ui\"{c}{slip_period_ui}{s}\"late\"{c}{late}"
            );
        }
        FaultKind::SeuCdrPhase { bit } => {
            let _ = write!(out, "{s}\"bit\"{c}{bit}");
        }
        FaultKind::SeuDeserializer { lane, bit } => {
            let _ = write!(out, "{s}\"lane\"{c}{lane}{s}\"bit\"{c}{bit}");
        }
        FaultKind::StuckAtNet { net, value } => {
            let _ = write!(out, "{s}\"net\"{c}");
            json::push_quoted(out, net);
            let _ = write!(out, "{s}\"value\"{c}{value}");
        }
    }
    out.push_str(close);
}

/// Reads a flip probability, refusing anything that is not a finite
/// value in `[0, 1]` (the codec also accepts the `"nan"`/`"inf"`
/// spellings, which are never a probability).
fn probability(obj: &[(String, Json)], field: &str) -> Result<f64, String> {
    let p = get(obj, field)?.as_f64(field)?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("{field}: {p} is not a probability in [0, 1]"))
    }
}

fn parse_event(v: &Json) -> Result<FaultEvent, String> {
    let obj = v.as_obj("event")?;
    let at_ui = get(obj, "at_ui")?.as_u64("at_ui")?;
    let duration_ui = || get(obj, "duration_ui")?.as_u64("duration_ui");
    let kind = match get(obj, "kind")?.as_str("kind")? {
        "burst_noise" => FaultKind::BurstNoise {
            duration_ui: duration_ui()?,
            flip_prob: probability(obj, "flip_prob")?,
        },
        "dropout" => FaultKind::Dropout {
            duration_ui: duration_ui()?,
            level: get(obj, "level")?.as_bool("level")?,
        },
        "supply_droop" => FaultKind::SupplyDroop {
            duration_ui: duration_ui()?,
            peak_flip_prob: probability(obj, "peak_flip_prob")?,
        },
        "phase_glitch" => FaultKind::PhaseGlitch {
            offset_samples: get(obj, "offset_samples")?.as_i32("offset_samples")?,
        },
        "clock_drift" => FaultKind::ClockDrift {
            duration_ui: duration_ui()?,
            slip_period_ui: get(obj, "slip_period_ui")?.as_u64("slip_period_ui")?,
            late: get(obj, "late")?.as_bool("late")?,
        },
        "seu_cdr_phase" => FaultKind::SeuCdrPhase {
            bit: get(obj, "bit")?.as_u32("bit")?,
        },
        "seu_deserializer" => FaultKind::SeuDeserializer {
            lane: get(obj, "lane")?.as_u32("lane")?,
            bit: get(obj, "bit")?.as_u32("bit")?,
        },
        "stuck_at_net" => FaultKind::StuckAtNet {
            net: get(obj, "net")?.as_str("net")?.to_string(),
            value: get(obj, "value")?.as_bool("value")?,
        },
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    Ok(FaultEvent { at_ui, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{campaign, CampaignKind};

    fn sample_schedule() -> FaultSchedule {
        FaultSchedule::new(u64::MAX - 3)
            .with_event(FaultEvent {
                at_ui: 100,
                kind: FaultKind::BurstNoise {
                    duration_ui: 16,
                    flip_prob: 0.123_456_789_012_345_6,
                },
            })
            .with_event(FaultEvent {
                at_ui: 200,
                kind: FaultKind::Dropout {
                    duration_ui: 4,
                    level: true,
                },
            })
            .with_event(FaultEvent {
                at_ui: 300,
                kind: FaultKind::SupplyDroop {
                    duration_ui: 32,
                    peak_flip_prob: 0.5,
                },
            })
            .with_event(FaultEvent {
                at_ui: 400,
                kind: FaultKind::PhaseGlitch { offset_samples: -2 },
            })
            .with_event(FaultEvent {
                at_ui: 500,
                kind: FaultKind::ClockDrift {
                    duration_ui: 64,
                    slip_period_ui: 8,
                    late: false,
                },
            })
            .with_event(FaultEvent {
                at_ui: 600,
                kind: FaultKind::SeuCdrPhase { bit: 2 },
            })
            .with_event(FaultEvent {
                at_ui: 700,
                kind: FaultKind::SeuDeserializer { lane: 7, bit: 31 },
            })
            .with_event(FaultEvent {
                at_ui: 800,
                kind: FaultKind::StuckAtNet {
                    net: "weird \"net\"\\π\n".into(),
                    value: true,
                },
            })
    }

    #[test]
    fn round_trip_every_kind() {
        let s = sample_schedule();
        let json = s.to_json();
        let back = FaultSchedule::from_json(&json).expect("parse");
        assert_eq!(back, s);
        // And the re-serialization is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    /// Pins the exact bytes of the every-kind schedule: field order,
    /// layout, full-width seed, shortest round-trip floats and string
    /// escaping.
    #[test]
    fn to_json_bytes_are_pinned() {
        assert_eq!(
            sample_schedule().to_json(),
            r#"{
  "schema": "openserdes-fault-schedule/1",
  "seed": 18446744073709551612,
  "events": [
    { "at_ui": 100, "kind": "burst_noise", "duration_ui": 16, "flip_prob": 0.1234567890123456 },
    { "at_ui": 200, "kind": "dropout", "duration_ui": 4, "level": true },
    { "at_ui": 300, "kind": "supply_droop", "duration_ui": 32, "peak_flip_prob": 0.5 },
    { "at_ui": 400, "kind": "phase_glitch", "offset_samples": -2 },
    { "at_ui": 500, "kind": "clock_drift", "duration_ui": 64, "slip_period_ui": 8, "late": false },
    { "at_ui": 600, "kind": "seu_cdr_phase", "bit": 2 },
    { "at_ui": 700, "kind": "seu_deserializer", "lane": 7, "bit": 31 },
    { "at_ui": 800, "kind": "stuck_at_net", "net": "weird \"net\"\\π\n", "value": true }
  ]
}
"#
        );
    }

    #[test]
    fn round_trip_empty_and_campaigns() {
        let empty = FaultSchedule::new(0);
        assert_eq!(
            FaultSchedule::from_json(&empty.to_json()).expect("parse"),
            empty
        );
        for kind in CampaignKind::ALL {
            let c = campaign(kind, 77, 10_000);
            assert_eq!(FaultSchedule::from_json(&c.to_json()).expect("parse"), c);
        }
    }

    #[test]
    fn u64_seed_survives_exactly() {
        let s = FaultSchedule::new(u64::MAX);
        let back = FaultSchedule::from_json(&s.to_json()).expect("parse");
        assert_eq!(back.seed(), u64::MAX);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[]",
            "{\"schema\": \"nope/9\", \"seed\": 0, \"events\": []}",
            "{\"schema\": \"openserdes-fault-schedule/1\", \"events\": []}",
            "{\"schema\": \"openserdes-fault-schedule/1\", \"seed\": 0, \"events\": [{\"at_ui\": 1, \"kind\": \"warp_core_breach\"}]}",
            "{\"schema\": \"openserdes-fault-schedule/1\", \"seed\": 0, \"events\": []} trailing",
        ] {
            assert!(
                FaultSchedule::from_json(bad).is_err(),
                "must reject: {bad:?}"
            );
        }
    }

    fn one_event(event: &str) -> String {
        format!("{{\"schema\": \"{SCHEMA}\", \"seed\": 0, \"events\": [{event}]}}")
    }

    #[test]
    fn parse_rejects_out_of_range_bits_instead_of_wrapping() {
        // 2^32 + 3 used to wrap to bit 3 through an `as u32` cast.
        for event in [
            "{\"at_ui\": 1, \"kind\": \"seu_cdr_phase\", \"bit\": 4294967299}",
            "{\"at_ui\": 1, \"kind\": \"seu_deserializer\", \"lane\": 4294967296, \"bit\": 0}",
        ] {
            match FaultSchedule::from_json(&one_event(event)) {
                Err(FaultError::Parse(msg)) => assert!(msg.contains("is not a u32"), "{msg}"),
                other => panic!("must reject {event}: {other:?}"),
            }
        }
    }

    #[test]
    fn parse_rejects_flip_probabilities_outside_unit_interval() {
        for (field, kind, value) in [
            ("flip_prob", "burst_noise", "\"nan\""),
            ("flip_prob", "burst_noise", "\"inf\""),
            ("flip_prob", "burst_noise", "1e400"),
            ("flip_prob", "burst_noise", "-0.25"),
            ("peak_flip_prob", "supply_droop", "\"-inf\""),
            ("peak_flip_prob", "supply_droop", "1.5"),
        ] {
            let event = format!(
                "{{\"at_ui\": 1, \"kind\": \"{kind}\", \"duration_ui\": 4, \"{field}\": {value}}}"
            );
            match FaultSchedule::from_json(&one_event(&event)) {
                Err(FaultError::Parse(msg)) => {
                    assert!(msg.starts_with(&format!("events[0]: {field}:")), "{msg}")
                }
                other => panic!("must reject {event}: {other:?}"),
            }
        }
        for p in ["0", "0.0", "1", "1.0", "0.5"] {
            let event = format!(
                "{{\"at_ui\": 1, \"kind\": \"burst_noise\", \"duration_ui\": 4, \"flip_prob\": {p}}}"
            );
            assert!(FaultSchedule::from_json(&one_event(&event)).is_ok(), "{p}");
        }
    }

    #[test]
    fn parse_accepts_hand_authored_whitespace() {
        let text = "\n{ \"schema\":\"openserdes-fault-schedule/1\" ,\n\t\"seed\" : 9,\n  \"events\":[ {\"at_ui\":5,\"kind\":\"seu_cdr_phase\",\"bit\":1} ] }";
        let s = FaultSchedule::from_json(text).expect("parse");
        assert_eq!(s.seed(), 9);
        assert_eq!(s.len(), 1);
    }
}
