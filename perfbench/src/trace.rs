//! In-memory spans around the benchmark's calls into each stgcheck layer.
//!
//! A span is named `module.call`, belongs to one row (one net run) and
//! may have a parent; a call made with a BDD manager at hand also records
//! the manager's statistics delta across the call (GC runs and pause,
//! reclaimed nodes, sifting) and the manager's peak afterwards. Spans are
//! kept in memory and written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use stgcheck_bdd::ManagerStats;
use stgcheck_core::SymbolicStg;

#[derive(Copy, Clone, Debug, Default)]
pub struct BddDelta {
    pub gc_runs: usize,
    pub gc_full_runs: usize,
    pub gc_reclaimed: usize,
    pub gc_pause_ns: u64,
    pub sift_runs: usize,
    pub sift_swaps: usize,
    /// The manager's peak live nodes right after the call.
    pub peak_after: usize,
}

impl BddDelta {
    fn between(before: &ManagerStats, after: &ManagerStats) -> BddDelta {
        BddDelta {
            gc_runs: after.gc_runs - before.gc_runs,
            gc_full_runs: after.gc_full_runs - before.gc_full_runs,
            gc_reclaimed: after.gc_reclaimed - before.gc_reclaimed,
            gc_pause_ns: after.gc_pause_ns - before.gc_pause_ns,
            sift_runs: after.sift_runs - before.sift_runs,
            sift_swaps: after.sift_swaps - before.sift_swaps,
            peak_after: after.peak_live_nodes,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub row: usize,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub bdd: Option<BddDelta>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, row: usize, parent: Option<usize>, name: &'static str) -> usize {
        let t = self.epoch.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span { id, parent, row, name, start_s: t, end_s: t, bdd: None });
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
    }

    /// Times a call that needs no manager.
    pub fn call<T>(
        &mut self,
        row: usize,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(row, Some(parent), name);
        let out = f();
        self.close(id);
        out
    }

    /// Times a call into the symbolic layer and records the manager delta.
    pub fn sym<'a, T>(
        &mut self,
        row: usize,
        parent: usize,
        name: &'static str,
        sym: &mut SymbolicStg<'a>,
        f: impl FnOnce(&mut SymbolicStg<'a>) -> T,
    ) -> T {
        let before = sym.manager().stats();
        let id = self.open(row, Some(parent), name);
        let out = f(sym);
        self.close(id);
        self.spans[id].bdd = Some(BddDelta::between(&before, &sym.manager().stats()));
        out
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one parent never overlap here).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Summed self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_secs();
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                f,
                "{{\"id\":{},\"parent\":{parent},\"row\":{},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9}",
                s.id, s.row, s.name, s.start_s, s.end_s
            )?;
            if let Some(b) = &s.bdd {
                write!(
                    f,
                    ",\"gc_runs\":{},\"gc_full_runs\":{},\"gc_reclaimed\":{},\"gc_pause_ns\":{},\"sift_runs\":{},\"sift_swaps\":{},\"peak_after\":{}",
                    b.gc_runs, b.gc_full_runs, b.gc_reclaimed, b.gc_pause_ns, b.sift_runs, b.sift_swaps, b.peak_after
                )?;
            }
            writeln!(f, "}}")?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let row = t.open(0, None, "row");
        let child = t.open(0, Some(row), "child");
        t.close(child);
        t.close(row);
        t.spans[row].start_s = 0.0;
        t.spans[row].end_s = 1.0;
        t.spans[child].start_s = 0.25;
        t.spans[child].end_s = 0.75;
        assert_eq!(t.self_secs(), vec![0.5, 0.5]);
        let by_name = t.self_by_name();
        assert_eq!(by_name["row"], 0.5);
        assert_eq!(by_name["child"], 0.5);
    }
}
