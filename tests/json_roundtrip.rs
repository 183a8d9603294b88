//! Cross-writer round trip through the workspace's one JSON codec.
//!
//! Every JSON writer in the workspace — telemetry events, soc-prof
//! snapshots, soc-analyze health reports, soc-lint's JSON report and SARIF log — is
//! fed seeded strings built from hostile characters (quote, backslash, every
//! C0 control, DEL, non-ASCII and astral-plane characters). Each output must
//! parse with `soc_telemetry::json::parse`, and every string must come back
//! exactly. Every reader must also turn over-deep nesting into an error
//! rather than exhausting the stack.

use simcore::rng::Pcg32;
use simcore::time::SimTime;
use soc_analyze::Trace;
use soc_analyze::{Alert, HealthReport, Incident, SeriesStore};
use soc_lint::sarif::render_sarif;
use soc_lint::{AllowEntry, Allowlist, CheckReport, Diagnostic};
use soc_prof::{PhaseSnap, Snapshot, SCHEMA};
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

        let mut snap = Snapshot {
            schema: SCHEMA,
            name: strings[0].clone(),
            ..Snapshot::default()
        };
        for (i, s) in strings.iter().enumerate() {
            let phase = PhaseSnap {
                count: 1,
                total_ms: 0.1,
                ..PhaseSnap::default()
            };
            snap.meta
                .insert(s.clone(), strings[(i + 1) % strings.len()].clone());
            snap.counters.insert(s.clone(), i as u64);
            snap.rates.insert(s.clone(), i as f64 / 3.0);
            snap.phases.insert(s.clone(), phase);
        }
        assert_strings_survive("Snapshot::to_json", &snap.to_json(), &strings);
        assert_eq!(Snapshot::from_json(&snap.to_json()), Ok(snap));

        let mut store = SeriesStore::new(4);
        let mut alerts = Vec::new();
        for (i, s) in strings.iter().enumerate() {
            store.record(s, i as u64, 0, 1.5);
            alerts.push(Alert {
                rule: s.clone(),
                entity: i as u64,
                start_us: 10,
                end_us: None,
                peak: 0.5,
                decision_id: 1 << 44,
            });
        }
        let incidents = vec![Incident {
            id: 1,
            start_us: 10,
            end_us: Some(20),
            alerts: alerts.clone(),
            root_decision: 3,
            cause: strings.concat(),
        }];
        let report = HealthReport {
            name: strings[0].clone(),
            store,
            alerts,
            incidents,
        };
        let text = soc_analyze::json::to_json(&report);
        assert_strings_survive("health::json::to_json", &text, &strings);
        let back = soc_analyze::json::from_json(&text).expect("report reads back");
        assert_eq!(
            (&back.alerts, &back.incidents),
            (&report.alerts, &report.incidents)
        );
        assert_eq!(soc_analyze::json::to_json(&back), text);

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
        assert!(Snapshot::from_json(&deep).is_err());
        assert!(soc_analyze::json::from_json(&deep).is_err());
        assert!(Trace::parse(&deep).is_err());
    }
}
