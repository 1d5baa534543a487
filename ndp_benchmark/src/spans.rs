//! In-memory span recorder around the benchmark's calls into the simulator.
//!
//! Spans are recorded from the benchmark's own code only: each one wraps a
//! call into a public entry point (`Workload::try_build`, `compile`,
//! `System::run`, ...), so no instrumentation lives inside the simulator.
//! Recording costs one `Instant::now` and one `Vec` push per call, a few
//! hundred per pass, so the untraced run records spans too and derives its
//! timings from them.

use std::time::Instant;

use serde::Serialize;

/// One timed call. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which pass (run id) the span belongs to.
    pub pass: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one benchmark process, nested by an open-span stack.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to pass `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Open a span nested in the innermost open span; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span and return its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit matches an enter");
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.dur_ns() as f64 / 1e9
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close open spans until `depth` remain (after a call that unwound
    /// out of its spans).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every closed span named `name` in `pass`.
    pub fn durations(&self, name: &str, pass: u32) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.pass == pass)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children of one parent never overlap here, but
/// the union is taken anyway so a misuse cannot produce negative time).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// For every span named `root`: its duration and the self times summed
/// over it and all its descendants. The two are equal when every child
/// lies inside its parent, which is what makes self times a partition.
pub fn subtree_sums(spans: &[Span], root: &str) -> Vec<(usize, u64, u64)> {
    let own = self_times_ns(spans);
    // Parents precede children, so one forward sweep finds each span's
    // enclosing `root`.
    let mut owner: Vec<Option<usize>> = Vec::with_capacity(spans.len());
    let mut sums: Vec<u64> = vec![0; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let o = if s.name == root {
            Some(i)
        } else {
            s.parent.and_then(|p| owner[p])
        };
        if let Some(o) = o {
            sums[o] += own[i];
        }
        owner.push(o);
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root)
        .map(|(i, s)| (i, s.dur_ns(), sums[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("build", 10, 20, Some(0)),
            span("run", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
            span("inner", 60, 65, Some(2)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st, vec![30, 10, 45, 10, 5]);
        // A parent's own self time plus all descendants' self times is its
        // outer span.
        assert_eq!(subtree_sums(&spans, "cell"), vec![(0, 100, 100)]);
        assert_eq!(subtree_sums(&spans, "run"), vec![(2, 60, 60)]);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span("p", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_and_times() {
        let mut s = Spans::new();
        s.set_pass(3);
        s.enter("outer");
        s.time("leaf", || std::hint::black_box(1 + 1));
        s.exit();
        let all = s.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert!(all.iter().all(|x| x.pass == 3 && x.end_ns >= x.start_ns));
        assert_eq!(s.durations("leaf", 3).len(), 1);
        assert!(s.durations("leaf", 0).is_empty());
    }
}
