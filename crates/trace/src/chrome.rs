//! Chrome trace-event JSON output.
//!
//! Builds documents in the [Trace Event Format] that `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev) load directly: open the UI,
//! drag the exported `.json` file in, and every bank and command bus
//! appears as its own named track with commands as duration slices.
//!
//! Timestamps (`ts`) and durations (`dur`) are in microseconds; the
//! builder converts from cycles using the command-clock period supplied
//! at construction.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::JsonValue;

/// Builds one Chrome trace-event document.
#[derive(Debug, Clone)]
pub struct ChromeTraceBuilder {
    events: Vec<JsonValue>,
    tck_ns: f64,
}

impl ChromeTraceBuilder {
    /// A builder converting cycles to wall-clock with `tck_ns`
    /// nanoseconds per cycle.
    #[must_use]
    pub fn new(tck_ns: f64) -> ChromeTraceBuilder {
        ChromeTraceBuilder {
            events: Vec::new(),
            tck_ns,
        }
    }

    fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 * self.tck_ns / 1000.0
    }

    /// Names the process `pid` (one metadata event).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(JsonValue::Object(vec![
            ("ph".into(), JsonValue::from("M")),
            ("name".into(), JsonValue::from("process_name")),
            ("pid".into(), JsonValue::from(pid)),
            ("tid".into(), JsonValue::from(0u64)),
            (
                "args".into(),
                JsonValue::Object(vec![("name".into(), JsonValue::from(name))]),
            ),
        ]));
    }

    /// Names the track `(pid, tid)` (one metadata event).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(JsonValue::Object(vec![
            ("ph".into(), JsonValue::from("M")),
            ("name".into(), JsonValue::from("thread_name")),
            ("pid".into(), JsonValue::from(pid)),
            ("tid".into(), JsonValue::from(tid)),
            (
                "args".into(),
                JsonValue::Object(vec![("name".into(), JsonValue::from(name))]),
            ),
        ]));
    }

    /// Adds a complete ("X") slice on track `(pid, tid)` spanning
    /// `start_cycle .. start_cycle + dur_cycles`, with optional `args`
    /// key/values shown in the UI's detail pane. Zero-duration slices are
    /// widened to one cycle so they stay visible.
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        start_cycle: u64,
        dur_cycles: u64,
        args: &[(&str, JsonValue)],
    ) {
        let mut obj = vec![
            ("ph".into(), JsonValue::from("X")),
            ("name".into(), JsonValue::from(name)),
            ("pid".into(), JsonValue::from(pid)),
            ("tid".into(), JsonValue::from(tid)),
            ("ts".into(), JsonValue::from(self.cycles_to_us(start_cycle))),
            (
                "dur".into(),
                JsonValue::from(self.cycles_to_us(dur_cycles.max(1))),
            ),
        ];
        if !args.is_empty() {
            obj.push((
                "args".into(),
                JsonValue::Object(
                    args.iter()
                        .map(|(k, v)| ((*k).to_string(), v.clone()))
                        .collect(),
                ),
            ));
        }
        self.events.push(JsonValue::Object(obj));
    }

    /// Finishes the document:
    /// `{"traceEvents": [...], "displayTimeUnit": "ns"}`.
    #[must_use]
    pub fn build(self) -> JsonValue {
        JsonValue::Object(vec![
            ("traceEvents".into(), JsonValue::Array(self.events)),
            ("displayTimeUnit".into(), JsonValue::from("ns")),
        ])
    }

    /// [`ChromeTraceBuilder::build`] rendered as a compact JSON string.
    #[must_use]
    pub fn render(self) -> String {
        self.build().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_shape_is_chrome_compatible() {
        let mut b = ChromeTraceBuilder::new(1.0);
        b.process_name(1, "channel 0");
        b.thread_name(1, 2, "bank 2");
        b.complete(1, 2, "ACT", 100, 14, &[("row", JsonValue::from(7u64))]);
        let text = b.render();
        let doc = JsonValue::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ns"));
        let slice = &events[2];
        assert_eq!(slice.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(slice.get("ts").unwrap().as_f64(), Some(0.1));
        assert_eq!(slice.get("dur").unwrap().as_f64(), Some(0.014));
        assert_eq!(
            slice.get("args").unwrap().get("row").unwrap().as_f64(),
            Some(7.0)
        );
    }

    #[test]
    fn zero_duration_slices_are_widened() {
        let mut b = ChromeTraceBuilder::new(2.0);
        b.complete(0, 0, "PRE", 10, 0, &[]);
        let doc = b.build();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(0.002));
    }

    #[test]
    fn cycle_conversion_uses_tck() {
        let mut b = ChromeTraceBuilder::new(0.5);
        b.complete(0, 0, "slice", 2000, 4000, &[]);
        let doc = b.build();
        let ev = &doc.get("traceEvents").unwrap().as_array().unwrap()[0];
        assert_eq!(ev.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(ev.get("dur").unwrap().as_f64(), Some(2.0));
    }
}
