//! Spans taken from outside the program, around calls into its layers.
//!
//! A span is a name, a start and an end (seconds since the tracer's
//! first span) and the span that was open around it. Spans stay in
//! memory and are written out once, when the run ends. While a pass is
//! traced the tracer also sums each layer's host seconds and counts, and
//! [`Tracer::fold_pass`] turns those sums into one sample per pass.
//! When `on` is false every method returns at once.

use crate::Metrics;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

#[derive(Default)]
pub struct Tracer {
    pub on: bool,
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: BTreeMap<String, (&'static str, f64)>,
}

impl Tracer {
    fn now(&mut self) -> f64 {
        self.origin
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_secs_f64()
    }

    /// Open a span; `None` when tracing is off.
    pub fn open(&mut self, name: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_s = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Self::open`], returning its duration.
    pub fn close(&mut self, id: Option<usize>) -> f64 {
        let Some(id) = id else { return 0.0 };
        let end_s = self.now();
        self.open.retain(|&o| o != id);
        let span = &mut self.spans[id];
        span.end_s = end_s;
        end_s - span.start_s
    }

    /// Run `f` inside a span named `name` and add its duration to the
    /// pass sum `layer` (host seconds).
    pub fn call<T>(&mut self, name: &str, layer: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        let dt = self.close(id);
        self.count(layer, "s", dt);
        out
    }

    /// Add `value` to the pass sum `name`.
    pub fn count(&mut self, name: &str, unit: &'static str, value: f64) {
        if self.on {
            self.pass.entry(name.to_string()).or_insert((unit, 0.0)).1 += value;
        }
    }

    /// Move this pass's sums into `m`, one sample each.
    pub fn fold_pass(&mut self, m: &mut Metrics) {
        for (name, (unit, value)) in std::mem::take(&mut self.pass) {
            m.add(&name, unit, value);
        }
    }

    /// Write every span as a JSON array.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"id\": {id}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                    s.name, s.start_s, s.end_s
                )
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
            .map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}
