//! Spans recorded by the traced run, around the benchmark's own calls into
//! each layer. Held in memory and written out once, at the end of the run.

use gcr_cli::report::Json;
use std::time::Instant;

/// One timed call into a layer.
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the workload item (file, job or request) this belongs to.
    pub item: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span collector; nesting follows the call structure.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    item: usize,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), item: 0 }
    }

    /// Sets the item id stamped on the spans recorded from now on.
    pub fn set_item(&mut self, item: usize) {
        self.item = item;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            item: self.item,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        // `fold`, not `sum`: an empty float sum is -0.0, which prints as such.
        self.spans.iter().filter(|s| s.name == name).fold(0.0, |total, s| total + s.seconds())
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::O(vec![
            ("schema", Json::S("gcr-benchmark-trace/v1".into())),
            ("workload", Json::S(workload.into())),
            (
                "spans",
                Json::A(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Json::O(vec![
                                ("id", Json::U(id as u64)),
                                ("name", Json::S(s.name.into())),
                                ("parent", s.parent.map_or(Json::Null, |p| Json::U(p as u64))),
                                ("item", Json::U(s.item as u64)),
                                ("start_ns", Json::U(s.start_ns)),
                                ("end_ns", Json::U(s.end_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut sp = Spans::new();
        sp.set_item(3);
        sp.span("outer", |sp| {
            sp.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            sp.span("inner", |_| ());
        });
        assert_eq!(sp.spans.len(), 3);
        assert_eq!(sp.spans[0].parent, None);
        assert_eq!(sp.spans[1].parent, Some(0));
        assert_eq!(sp.spans[2].parent, Some(0));
        assert!(sp.spans.iter().all(|s| s.item == 3));
        assert!(sp.total("inner") >= 0.002);
        assert!(sp.total("outer") >= sp.total("inner"));
        assert_eq!(sp.durations("inner").len(), 2);
    }
}
