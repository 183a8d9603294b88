//! Pluggable event sinks.
//!
//! A [`Sink`] receives every emitted [`Event`]. Three implementations cover
//! the intended uses: [`NullSink`] (discard; the default when telemetry is
//! disabled), [`MemorySink`] (buffer in memory; used by tests to assert on
//! decisions), and [`JsonlSink`] (append one JSON object per line to a file;
//! used by the figure binaries via `--trace-out`).

use crate::event::Event;
use crate::json::event_to_json;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Destination for telemetry events. Implementations must be thread-safe:
/// sharded simulations emit from one worker thread per shard.
pub trait Sink: Send + Sync {
    /// Record one event. It is handed over by value so sinks that keep
    /// events ([`MemorySink`]) store it without a copy.
    fn record(&self, event: Event);

    /// Flush any buffered output. The default is a no-op.
    ///
    /// # Errors
    /// The sink's first write or flush error, if it has had one.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: Event) {}
}

/// Buffers events in memory for later inspection (tests, assertions).
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Create an empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Copy out all events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Move out all events recorded so far, leaving the sink empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("memory sink poisoned"))
    }

    /// Drop all recorded events.
    pub fn clear(&self) {
        self.events.lock().expect("memory sink poisoned").clear();
    }

    /// Events with the given name.
    pub fn named(&self, name: &str) -> Vec<Event> {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .iter()
            .filter(|e| e.name == name)
            .cloned()
            .collect()
    }
}

impl Sink for MemorySink {
    fn record(&self, event: Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event);
    }
}

/// Appends one JSON object per event to a file (JSON Lines).
///
/// A failed write never aborts the run that emits: the sink latches its
/// first I/O error, drops every later event, and reports the error from
/// each [`Sink::flush`] on.
pub struct JsonlSink {
    out: Mutex<JsonlOut>,
}

struct JsonlOut {
    writer: BufWriter<File>,
    error: Option<io::Error>,
}

impl JsonlOut {
    fn latch(&mut self, result: io::Result<()>) {
        if let Err(e) = result {
            self.error.get_or_insert(e);
        }
    }
}

impl JsonlSink {
    /// Create (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            out: Mutex::new(JsonlOut {
                writer: BufWriter::new(file),
                error: None,
            }),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: Event) {
        let mut line = event_to_json(&event);
        line.push('\n');
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        if out.error.is_none() {
            let written = out.writer.write_all(line.as_bytes());
            out.latch(written);
        }
    }

    fn flush(&self) -> io::Result<()> {
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        if out.error.is_none() {
            let flushed = out.writer.flush();
            out.latch(flushed);
        }
        match &out.error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        // Best effort: whoever owns the trace reports errors via `flush`.
        let _ = Sink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Component, Severity};
    use simcore::time::SimTime;

    fn ev(name: &'static str) -> Event {
        Event::new(SimTime::ZERO, Component::Harness, Severity::Info, name)
    }

    #[test]
    fn memory_sink_collects_and_filters() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(ev("a"));
        sink.record(ev("b"));
        sink.record(ev("a"));
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.named("a").len(), 2);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("soc-telemetry-test-{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(ev("x").field("k", 1u64));
            sink.record(ev("y").field("s", "v\"w"));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[1].contains(r#""s":"v\"w""#));
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn jsonl_sink_latches_its_first_write_error() {
        let sink = JsonlSink::create("/dev/full").unwrap();
        sink.record(ev("x"));
        let err = sink.flush().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Latched: later events are dropped and every flush still fails.
        sink.record(ev("y"));
        assert_eq!(sink.flush().unwrap_err().kind(), io::ErrorKind::StorageFull);
    }
}
