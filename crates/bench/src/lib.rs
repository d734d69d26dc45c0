//! Shared workload definitions for the `table1` binary, which
//! regenerates the paper's Table 1: the generator families
//! ([`table1_workloads`]), a quick subset ([`quick_workloads`]) and a
//! directory of `.g` files ([`workloads_from_dir`]).

use std::path::Path;

use stgcheck_stg::{gen, parse_g, Stg};

/// A named benchmark workload with the scaling parameter used to build it.
pub struct Workload {
    /// Display name (matches the generator and parameter).
    pub name: String,
    /// The STG under measurement.
    pub stg: Stg,
    /// `true` when the explicit baseline can enumerate it in reasonable
    /// time (used to cap the explicit side of the comparison).
    pub explicit_feasible: bool,
    /// `true` when the workload needs the arbitration persistency policy
    /// (mutual-exclusion style nets).
    pub arbitration: bool,
}

impl Workload {
    fn new(stg: Stg, explicit_feasible: bool, arbitration: bool) -> Workload {
        Workload { name: stg.name().to_string(), stg, explicit_feasible, arbitration }
    }
}

/// The workload set regenerating the paper's Table 1 (`table1` with no
/// `--small` or `--from-dir`): the Fig. 1 mutual exclusion element,
/// scaled Muller pipelines, scaled master-read fork/joins, scaled
/// independent handshakes, scaled mutex arbiters, rings and the VME-bus
/// read cycle.
pub fn table1_workloads() -> Vec<Workload> {
    let mut w = Vec::new();
    w.push(Workload::new(gen::mutex_element(), true, true));
    for n in [4, 8, 12, 16, 20] {
        w.push(Workload::new(gen::muller_pipeline(n), n <= 12, false));
    }
    for n in [2, 4, 8, 16] {
        w.push(Workload::new(gen::master_read(n), n <= 8, false));
    }
    for n in [4, 8, 12, 16] {
        w.push(Workload::new(gen::par_handshakes(n), n <= 8, false));
    }
    for n in [3, 4, 5] {
        w.push(Workload::new(gen::mutex(n), n <= 4, true));
    }
    for n in [8, 16] {
        w.push(Workload::new(gen::ring(n), true, false));
    }
    w.push(Workload::new(gen::vme_read(), true, false));
    w
}

/// Workloads parsed from every `.g` file in `dir` (sorted by file name),
/// e.g. the checked-in `benchmarks/` fixture corpus — or from exactly
/// one net when `dir` is a single `.g` file (the CI smoke runs
/// `--from-dir benchmarks/par_join.g` to pin one imported corpus net).
///
/// The arbitration persistency policy is enabled for nets whose name
/// contains `mutex` — mirroring the generator-based workload table; the
/// explicit baseline is skipped (feasibility is unknown for foreign
/// nets).
///
/// # Errors
///
/// An explanation string when the directory cannot be read or a file
/// fails to parse.
pub fn workloads_from_dir(dir: &Path) -> Result<Vec<Workload>, String> {
    let mut paths: Vec<_> = if dir.is_file() {
        vec![dir.to_path_buf()]
    } else {
        std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "g"))
            .collect()
    };
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no .g files found", dir.display()));
    }
    let mut out = Vec::new();
    for path in paths {
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let stg = parse_g(&source).map_err(|e| format!("{}: {e}", path.display()))?;
        let arbitration = stg.name().contains("mutex");
        out.push(Workload::new(stg, false, arbitration));
    }
    Ok(out)
}

/// The quick subset behind `table1 --small`, small enough for a CI smoke
/// run across every engine.
pub fn quick_workloads() -> Vec<Workload> {
    vec![
        Workload::new(gen::mutex_element(), true, true),
        Workload::new(gen::muller_pipeline(8), true, false),
        Workload::new(gen::master_read(4), true, false),
        Workload::new(gen::par_handshakes(6), true, false),
        Workload::new(gen::vme_read(), true, false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        let all = table1_workloads();
        assert!(all.len() >= 15);
        for w in &all {
            assert!(!w.name.is_empty());
            assert!(w.stg.net().num_places() > 0);
        }
    }

    #[test]
    fn quick_set_is_subsetish() {
        assert!(quick_workloads().len() <= table1_workloads().len());
    }
}
