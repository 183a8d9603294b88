//! Cross-writer round trip through the workspace's one JSON codec.
//!
//! Every JSON writer in the workspace — telemetry events (which `--prof-out`
//! profiles and the `rack_series` events health is read from are made of
//! too), soc-lint's JSON report and SARIF log — is fed seeded strings built from hostile
//! characters (quote, backslash, every C0 control, DEL, non-ASCII and
//! astral-plane characters). Each output must
//! parse with `soc_telemetry::json::parse`, and every string must come back
//! exactly. Every reader must also turn over-deep nesting into an error
//! rather than exhausting the stack.

use simcore::rng::Pcg32;
use simcore::time::SimTime;
use soc_analyze::Trace;
use soc_lint::sarif::render_sarif;
use soc_lint::{AllowEntry, Allowlist, CheckReport, Diagnostic};
use soc_telemetry::json::{event_to_json, parse, Value};
use soc_telemetry::{Component, Event, Severity};
use std::collections::BTreeSet;

/// `n` distinct hostile strings: the whole alphabet first, then seeded
/// draws of up to 12 characters, each tagged with its index so that map
/// keys stay distinct.
fn hostile(seed: u64, n: usize) -> Vec<String> {
    let mut chars: Vec<char> = (0u32..0x20).filter_map(char::from_u32).collect();
    chars.extend("\"\\/\u{7f} a{=}é€\u{2028}\u{fffd}😀\u{10ffff}".chars());
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut out = vec![chars.iter().collect::<String>()];
    while out.len() < n {
        let len = rng.gen_index(13);
        let s: String = (0..len)
            .map(|_| chars[rng.gen_index(chars.len())])
            .collect();
        out.push(format!("{s}#{}", out.len()));
    }
    out
}

/// Every object key and string value in `v`.
fn collect_strings(v: &Value, out: &mut BTreeSet<String>) {
    match v {
        Value::Str(s) => {
            out.insert(s.clone());
        }
        Value::Arr(items) => items.iter().for_each(|item| collect_strings(item, out)),
        Value::Obj(members) => {
            for (k, v) in members.members() {
                out.insert(k.clone());
                collect_strings(v, out);
            }
        }
        _ => {}
    }
}

/// `text` parses, and each of `strings` comes back as a key or a value.
fn assert_strings_survive(writer: &str, text: &str, strings: &[String]) {
    let value = parse(text).unwrap_or_else(|e| panic!("{writer} output: {e}"));
    let mut found = BTreeSet::new();
    collect_strings(&value, &mut found);
    for s in strings {
        assert!(found.contains(s), "{writer} lost {s:?}");
    }
}

#[test]
fn every_writer_round_trips_hostile_strings() {
    for seed in 0..8 {
        let strings = hostile(seed, 12);

        let leak = |s: &String| -> &'static str { Box::leak(s.clone().into_boxed_str()) };
        let lines: Vec<String> = strings
            .iter()
            .map(|s| {
                let at = SimTime::from_micros(1);
                let e = Event::new(at, Component::Soa, Severity::Info, leak(s));
                event_to_json(&e.field(leak(s), s.clone()))
            })
            .collect();
        for (line, s) in lines.iter().zip(&strings) {
            assert_strings_survive("event_to_json", line, std::slice::from_ref(s));
        }
        let trace = Trace::parse(&lines.join("\n")).expect("trace parses");
        for event in trace.events() {
            assert_eq!(event.field_str(&event.name), Some(event.name.as_str()));
        }

        // One event carrying every hostile string and a float array, as a
        // rack run's series event carries its draws: both come back through
        // the trace reader exactly, the floats bit for bit.
        let draws = vec![
            0.1,
            -0.0,
            5e-324,
            f64::MAX,
            -1.5e-300,
            3953.125,
            1e21,
            (seed as f64 + 1.0) / 3.0,
        ];
        let mut event = Event::new(
            SimTime::from_micros(seed),
            Component::Sim,
            Severity::Debug,
            "rack_series",
        )
        .field("draws_w", draws.clone());
        for s in &strings {
            event = event.field(leak(s), s.clone());
        }
        let line = event_to_json(&event);
        assert_strings_survive("event_to_json with an array", &line, &strings);
        let trace = Trace::parse(&line).expect("series event parses");
        let fields = &trace.events()[0].fields;
        let Some(Value::Arr(back)) = fields.get("draws_w") else {
            panic!("draws_w is not an array: {line}");
        };
        let back: Vec<u64> = back.iter().map(|v| v.as_num().unwrap().to_bits()).collect();
        let want: Vec<u64> = draws.iter().map(|x| x.to_bits()).collect();
        assert_eq!(back, want, "draws_w did not round-trip bit for bit");
        for s in &strings {
            assert_eq!(fields.get(s).and_then(Value::as_str), Some(s.as_str()));
        }

        let diags: Vec<Diagnostic> = strings
            .iter()
            .map(|s| Diagnostic {
                lint: "R001",
                path: s.clone(),
                line: 3,
                message: s.clone(),
            })
            .collect();
        let allow = Allowlist {
            entries: strings
                .iter()
                .map(|s| AllowEntry {
                    lint: "R001".to_string(),
                    path: s.clone(),
                    line: Some(3),
                    justification: format!("{s}!"),
                })
                .collect(),
        };
        let lint = CheckReport {
            blocking: diags.clone(),
            waived: diags,
            stale: allow.entries.clone(),
            files: 1,
            callers: 1,
        };
        assert_strings_survive("CheckReport::render_json", &lint.render_json(), &strings);
        let justifications: Vec<String> = strings.iter().map(|s| format!("{s}!")).collect();
        let sarif = render_sarif(&lint, &allow);
        assert_strings_survive("render_sarif", &sarif, &strings);
        assert_strings_survive("render_sarif", &sarif, &justifications);
    }
}

#[test]
fn every_reader_rejects_deep_nesting_with_an_error() {
    for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        assert!(parse(&deep).is_err());
        assert!(Trace::parse(&deep).is_err());
        // Over-deep nesting inside a series event's array field too.
        let line = format!(
            r#"{{"t_us":1,"component":"sim","severity":"debug","name":"rack_series","fields":{{"draws_w":{deep}}}}}"#
        );
        assert!(Trace::parse(&line).is_err());
    }
}
