//! JSON-lines export and import for [`Event`] streams.
//!
//! One event per line, flat objects only, read and written through the
//! workspace's one JSON codec ([`approxrank_store::json`]). Floats are
//! written with Rust's shortest round-trip `{:?}` text, so
//! `parse(&emit(events))` reproduces the input bit-for-bit; non-finite
//! floats emit as `NaN` / `inf` / `-inf` (a deviation from strict JSON
//! that only the codec's lossless float reader accepts).

use approxrank_store::json::{Reader, Writer};

use crate::Event;

/// Serializes events, one JSON object per line (trailing newline
/// included when non-empty).
pub fn emit(events: &[Event]) -> String {
    let mut out = Writer::default();
    for event in events {
        write_event(&mut out, event);
        out.raw("\n");
    }
    out.finish()
}

fn write_event(out: &mut Writer, event: &Event) {
    let (kind, name_key) = match event {
        Event::SpanStart { .. } => ("span_start", "name"),
        Event::SpanEnd { .. } => ("span_end", "name"),
        Event::Counter { .. } => ("counter", "name"),
        Event::Gauge { .. } => ("gauge", "name"),
        Event::Iteration { .. } => ("iteration", "solver"),
    };
    out.raw("{\"type\":");
    out.str(kind);
    key(out, name_key).str(event.name());
    match *event {
        Event::SpanStart { .. } => {}
        Event::SpanEnd { elapsed_ns, .. } => key(out, "elapsed_ns").uint(elapsed_ns),
        Event::Counter { value, .. } => key(out, "value").uint(value),
        Event::Gauge { value, .. } => key(out, "value").lossless_f64(value),
        Event::Iteration {
            iteration,
            residual,
            dangling_mass,
            elapsed_ns,
            ..
        } => {
            key(out, "iteration").uint(iteration as u64);
            key(out, "residual").lossless_f64(residual);
            key(out, "dangling_mass").lossless_f64(dangling_mass);
            key(out, "elapsed_ns").uint(elapsed_ns);
        }
    }
    out.raw("}");
}

/// Writes `,"name":` — the separator and key of every member after an
/// object's first — and returns the writer for the value.
pub(crate) fn key<'w>(out: &'w mut Writer, name: &str) -> &'w mut Writer {
    out.raw(",");
    out.str(name);
    out.raw(":");
    out
}

/// Parses the output of [`emit`] (blank lines ignored). Returns the
/// first malformed line's number and problem on error.
pub fn parse(input: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event =
            parse_line(line).map_err(|e| format!("line {}: {} (in {:?})", idx + 1, e, line))?;
        events.push(event);
    }
    Ok(events)
}

/// A `value` member, read before `type` may be known: an integer when
/// its text is one.
enum Value {
    Int(u64),
    Float(f64),
}

fn read_value(r: &mut Reader) -> Result<Value, String> {
    let mut integer = r.clone();
    if let Ok(v) = integer.u64() {
        *r = integer;
        return Ok(Value::Int(v));
    }
    r.lossless_f64().map(Value::Float)
}

/// Parses one flat event object; members may come in any order (a
/// repeated one keeps the last), unknown ones are skipped.
fn parse_line(line: &str) -> Result<Event, String> {
    let mut r = Reader::new(line);
    object(&mut r)?;
    let (mut kind, mut name, mut solver, mut value) = (None, None, None, None);
    let (mut iteration, mut residual, mut dangling_mass, mut elapsed_ns) = (None, None, None, None);
    while let Some(member) = r.next_key()? {
        match member.as_str() {
            "type" => kind = Some(r.str()?),
            "name" => name = Some(r.str()?),
            "solver" => solver = Some(r.str()?),
            "value" => value = Some(read_value(&mut r)?),
            "iteration" => iteration = Some(r.u64()?),
            "residual" => residual = Some(r.lossless_f64()?),
            "dangling_mass" => dangling_mass = Some(r.lossless_f64()?),
            "elapsed_ns" => elapsed_ns = Some(r.u64()?),
            _ => {
                r.value()?;
            }
        }
    }
    r.finish()?;
    match required(kind, "type")?.as_str() {
        "span_start" => Ok(Event::SpanStart {
            name: required(name, "name")?,
        }),
        "span_end" => Ok(Event::SpanEnd {
            name: required(name, "name")?,
            elapsed_ns: required(elapsed_ns, "elapsed_ns")?,
        }),
        "counter" => Ok(Event::Counter {
            name: required(name, "name")?,
            value: match required(value, "value")? {
                Value::Int(v) => v,
                Value::Float(x) => return Err(format!("expected an integer value, got {x:?}")),
            },
        }),
        "gauge" => Ok(Event::Gauge {
            name: required(name, "name")?,
            value: match required(value, "value")? {
                Value::Int(v) => v as f64,
                Value::Float(x) => x,
            },
        }),
        "iteration" => Ok(Event::Iteration {
            solver: required(solver, "solver")?,
            iteration: required(iteration, "iteration")? as usize,
            residual: required(residual, "residual")?,
            dangling_mass: required(dangling_mass, "dangling_mass")?,
            elapsed_ns: required(elapsed_ns, "elapsed_ns")?,
        }),
        other => Err(format!("unknown event type {other:?}")),
    }
}

/// Enters the object at the reader.
pub(crate) fn object(r: &mut Reader) -> Result<(), String> {
    if r.begin_object() {
        Ok(())
    } else {
        Err("expected an object".into())
    }
}

/// A member that must be present.
pub(crate) fn required<T>(value: Option<T>, key: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("missing field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::SpanStart {
                name: "solve".into(),
            },
            Event::Iteration {
                solver: "power".into(),
                iteration: 0,
                residual: 0.123456789,
                dangling_mass: 1e-7,
                elapsed_ns: 42_000,
            },
            Event::Counter {
                name: "boundary_nodes".into(),
                value: 17,
            },
            Event::Gauge {
                name: "skipped_fraction".into(),
                value: 0.1,
            },
            Event::SpanEnd {
                name: "solve".into(),
                elapsed_ns: 1_234_567,
            },
        ]
    }

    #[test]
    fn round_trip() {
        let events = sample_events();
        let text = emit(&events);
        assert_eq!(parse(&text).unwrap(), events);
    }

    #[test]
    fn escapes_round_trip() {
        let events = vec![Event::SpanStart {
            name: "odd \"name\"\\with\nstuff\u{1}".into(),
        }];
        assert_eq!(parse(&emit(&events)).unwrap(), events);
    }

    #[test]
    fn blank_lines_ignored() {
        let events = sample_events();
        let text = format!("\n{}\n\n", emit(&events));
        assert_eq!(parse(&text).unwrap(), events);
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = parse("{\"type\":\"counter\",\"name\":\"x\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("value"), "{err}");
    }

    #[test]
    fn unknown_type_rejected() {
        assert!(parse("{\"type\":\"mystery\"}").is_err());
    }

    #[test]
    fn non_finite_gauges_round_trip() {
        let events = vec![
            Event::Gauge {
                name: "a".into(),
                value: f64::INFINITY,
            },
            Event::Gauge {
                name: "b".into(),
                value: f64::NEG_INFINITY,
            },
        ];
        assert_eq!(parse(&emit(&events)).unwrap(), events);
    }
}
