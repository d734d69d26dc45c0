//! The two ways a net is verified: untraced through `verify`, the way the
//! CLI does it, and traced, by composing the public per-phase calls in
//! `verify`'s own order with one span around each call.

use stgcheck_core::{
    verify, Budget, EngineOptions, ReorderMode, SymbolicReport, SymbolicStg, VerifyOptions,
};
use stgcheck_stg::{parse_g, Implementability};

/// What the correctness gate and the traced/untraced comparison look at.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Summary {
    pub verdict: Implementability,
    pub states: u128,
    /// Peak live BDD nodes from the start of the main traversal.
    pub peak: usize,
    pub iterations: usize,
    /// Nodes of the final reached-set BDD.
    pub reached_nodes: usize,
}

impl From<&SymbolicReport> for Summary {
    fn from(r: &SymbolicReport) -> Summary {
        Summary {
            verdict: r.verdict,
            states: r.num_states,
            peak: r.bdd_peak,
            iterations: r.traversal.iterations,
            reached_nodes: r.bdd_final,
        }
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `.g` text → `parse_g` → `verify`.
pub fn verify_text(text: &str, opts: VerifyOptions) -> Result<SymbolicReport, String> {
    let stg = parse_g(text).map_err(|e| e.to_string())?;
    verify(&stg, opts).map_err(|e| e.to_string())
}

/// The engine options `verify` runs: `VerifyOptions::reorder` overrides the
/// engine's own reorder mode when set.
fn effective_engine(opts: &VerifyOptions) -> EngineOptions {
    let mut engine = opts.engine;
    if opts.reorder != ReorderMode::None {
        engine.reorder = opts.reorder;
    }
    engine
}

/// `verify_text` decomposed into its public calls, each under a span of
/// `tracer` parented to one `row` span. The calls and their order follow
/// `verify`: parse, encode, initial-code inference, the Fig. 5 traversal,
/// consistency, safeness, deadlock, marking projection, both persistency
/// checks, fake freedom, the non-determinism set, CSC and, for signals
/// that fail CSC, the complementary-input-sequence check.
pub fn verify_traced(
    text: &str,
    opts: VerifyOptions,
    tr: &mut crate::trace::Tracer,
    row: usize,
) -> Result<Summary, String> {
    let root = tr.open(row, None, "row");
    let stg = tr.call(row, root, "stg.parse", || parse_g(text)).map_err(|e| e.to_string())?;
    let engine = effective_engine(&opts);
    let mut sym = tr.call(row, root, "encode.new", || {
        let mut sym = SymbolicStg::new(&stg, opts.order);
        sym.set_engine(engine);
        sym.manager_mut().set_budget(Budget::new(None, 0, 0, None));
        sym
    });
    let code = tr
        .sym(row, root, "traverse.infer", &mut sym, |s| s.effective_initial_code())
        .map_err(|e| e.to_string())?;
    let traversal =
        tr.sym(row, root, "engine.traverse", &mut sym, |s| s.traverse_with_engine(code, &engine));
    let reached = traversal.reached;
    let consistent = tr
        .sym(row, root, "consistency.check", &mut sym, |s| s.check_consistency(reached))
        .is_empty();
    let safe =
        tr.sym(row, root, "safety.check", &mut sym, |s| s.check_safeness(reached)).is_empty();
    tr.sym(row, root, "deadlock.check", &mut sym, |s| s.check_deadlock(reached));
    let r_n = tr.sym(row, root, "traverse.project", &mut sym, |s| s.project_markings(reached));
    let persistent = tr
        .sym(row, root, "persistency.check", &mut sym, |s| {
            s.check_signal_persistency(reached, opts.policy)
        })
        .is_empty();
    tr.sym(row, root, "persistency.transition", &mut sym, |s| {
        s.check_transition_persistency(reached)
    });
    let fake_free =
        tr.sym(row, root, "fake.check", &mut sym, |s| s.check_fake_freedom(r_n)).is_empty();
    let deterministic = tr.sym(row, root, "csc.nondeterminism", &mut sym, |s| {
        s.nondeterminism_set(reached).is_false()
    });
    let csc = tr.sym(row, root, "csc.check", &mut sym, |s| s.check_csc(reached));
    let irreducible = tr.sym(row, root, "csc.reducible", &mut sym, |s| {
        csc.iter()
            .filter(|a| !a.holds)
            .filter(|a| s.has_complementary_input_sequences(reached, a.signal, a.contradictory))
            .count()
    });
    let verdict = if !safe || !consistent || !persistent || !fake_free {
        Implementability::NotImplementable
    } else if csc.iter().all(|a| a.holds) {
        Implementability::Gate
    } else if deterministic && irreducible == 0 {
        Implementability::InputOutput
    } else {
        Implementability::SpeedIndependent
    };
    let out = Summary {
        verdict,
        states: traversal.stats.num_states,
        peak: sym.manager().peak_live_nodes(),
        iterations: traversal.stats.iterations,
        reached_nodes: traversal.stats.final_nodes,
    };
    tr.close(root);
    Ok(out)
}
