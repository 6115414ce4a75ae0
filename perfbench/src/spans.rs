//! In-memory spans around the benchmark's calls into each layer. A span
//! records its name, start, end, parent and trace id; spans are kept in
//! memory and written out once, when the run ends.

use serde::Serialize;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Serialize)]
pub struct Span {
    pub id: u64,
    pub name: String,
    pub trace: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration minus the part of it covered by child spans; filled in
    /// when the spans are written out.
    pub self_ns: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, trace: u64, parent: Option<u64>) -> u64 {
        let id = self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name: name.to_string(),
            trace,
            parent,
            start_ns,
            end_ns: start_ns,
            self_ns: 0,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        trace: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, trace, parent);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Durations of the spans named `name` whose trace id is in `traces`.
    pub fn durations_us_of(&self, name: &str, traces: &[u64]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && traces.contains(&s.trace))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Fill in self times and write every span as one JSON array.
    pub fn write(mut self, path: &Path) -> std::io::Result<()> {
        self.fill_self_times();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let text = serde_json::to_string(&self.spans).expect("spans serialise");
        std::fs::write(path, text)
    }

    /// Self time: a span's duration minus the union of its children's
    /// intervals (clipped to the span).
    fn fill_self_times(&mut self) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        for (s, kids) in self.spans.iter_mut().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_overlapping_children_once() {
        let mut spans = Spans::new();
        let root = spans.open("root", 1, None);
        let a = spans.open("a", 1, Some(root));
        let b = spans.open("b", 1, Some(root));
        spans.spans[root as usize].start_ns = 0;
        spans.spans[root as usize].end_ns = 100;
        spans.spans[a as usize].start_ns = 10;
        spans.spans[a as usize].end_ns = 40;
        spans.spans[b as usize].start_ns = 30;
        spans.spans[b as usize].end_ns = 120;
        spans.fill_self_times();
        // Children cover 10..100 once: 90 of the root's 100.
        assert_eq!(spans.spans[root as usize].self_ns, 10);
        assert_eq!(spans.spans[a as usize].self_ns, 30);
    }
}
