//! In-memory spans around every harness → layer call.
//!
//! Spans are recorded by the harness only (spans inside the program are a
//! later change, ROADMAP item A): one span per call into a layer's public
//! function, children for the parts the harness can see (client-side
//! send/recv, the `SearchStats` split of a search). All spans of one
//! request or decision share its `id`. Nothing is written until the run
//! ends; with tracing off no clock is read and nothing is stored.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// At most this many spans of one phase are written to the span file (the
/// per-layer table is computed from all spans in memory; a saturating wire
/// phase records ~10^5 requests and the file is for reading, not replay).
const MAX_WRITTEN_PER_PHASE: usize = 20_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Request / decision id shared by a root span and its children.
    pub id: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<u32>,
    /// The workload phase that issued the call (`wire_hot`, `search_wide`, …).
    pub phase: &'static str,
    /// Crate the call went into.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One `(layer, name)` row of the per-layer table.
#[derive(Clone, Debug, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts or stops recording (the traced run alternates rounds).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// An empty tracer on the same clock, for a load-generator thread;
    /// merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Nanoseconds since the tracer's epoch (0 when off: no clock read).
    pub fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records a finished span and returns its index (for children).
    pub fn push(&mut self, span: Span) -> Option<u32> {
        if !self.on {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    /// Runs `f` inside a span.
    pub fn timed<R>(
        &mut self,
        phase: &'static str,
        layer: &'static str,
        name: &'static str,
        id: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, Option<u32>) {
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        let idx = self.push(Span {
            id,
            parent,
            phase,
            layer,
            name,
            start_ns,
            end_ns,
        });
        (r, idx)
    }

    /// Adds back-to-back children of `parent` starting at `start_ns`, one
    /// per `(layer, name, duration)`: how a search call's `SearchStats`
    /// split (measured inside the program, reported as totals) becomes
    /// spans. Their order inside the parent is not meaningful.
    pub fn children_from_totals(
        &mut self,
        phase: &'static str,
        id: u64,
        parent: Option<u32>,
        mut start_ns: u64,
        parts: &[(&'static str, &'static str, u64)],
    ) {
        for &(layer, name, dur) in parts {
            self.push(Span {
                id,
                parent,
                phase,
                layer,
                name,
                start_ns,
                end_ns: start_ns + dur,
            });
            start_ns += dur;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per `(phase, layer, name)`: count, total and self time.
    pub fn self_times(&self) -> BTreeMap<(&'static str, &'static str, &'static str), SelfTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p as usize] += hi.saturating_sub(lo);
            }
        }
        let mut rows: BTreeMap<_, SelfTime> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(covered) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let row = rows.entry((s.phase, s.layer, s.name)).or_default();
            row.count += 1;
            row.total_ns += dur;
            row.self_ns += dur.saturating_sub(cov);
        }
        rows
    }

    /// Writes the spans as one JSON document.
    pub fn write(&self, path: &std::path::Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"recorded\":{},\"spans\":[",
            self.spans.len()
        )?;
        let mut per_phase: BTreeMap<&str, usize> = BTreeMap::new();
        let mut first = true;
        // A child is written only when its parent was; indices in the file
        // are the in-memory ones, so `parent` stays meaningful.
        let mut written = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let keep = match s.parent {
                Some(p) => written[p as usize],
                None => {
                    let n = per_phase.entry(s.phase).or_default();
                    *n += 1;
                    *n <= MAX_WRITTEN_PER_PHASE
                }
            };
            if !keep {
                continue;
            }
            written[i] = true;
            if !first {
                w.write_all(b",")?;
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "\n{{\"index\":{i},\"id\":{},\"parent\":{parent},\"workload\":\"{}\",\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.phase, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        let kept = written.iter().filter(|&&k| k).count();
        write!(w, "\n],\"written\":{kept}}}")?;
        w.flush()
    }
}
