//! `stgcheck` command-line interface: verify `.g` files from the shell,
//! or serve a stream of verification requests as a daemon.
//!
//! ```text
//! stgcheck [options] file.g [file2.g …]
//! stgcheck serve [serve options] [verification option defaults]
//!
//!   --arbitration        allow non-input/non-input disabling (arbiters)
//!   --order <o>          interleaved|places|signals|declaration
//!   --engine <e>         per-transition|parallel|saturation (default:
//!                        per-transition; `clustered` is accepted as a
//!                        spelling of saturation; see
//!                        docs/traversal-engines.md)
//!   --jobs <n>           worker threads for --engine parallel (default:
//!                        available parallelism); the workers race on one
//!                        concurrent BDD manager (see
//!                        docs/concurrent-table.md)
//!   --reorder <m>        none|sift|auto — dynamic variable reordering
//!                        (in-place sifting; see docs/reordering.md)
//!   --quiet              only print the verdict line per file
//!   --timeout <secs>     wall-clock deadline for the whole verification;
//!                        on expiry the run stops at the next poll point,
//!                        writes a final checkpoint (with --checkpoint)
//!                        and exits 4 (see docs/robustness.md)
//!   --max-nodes <n>      live-BDD-node budget; exceeding it stops the run
//!                        like --timeout
//!   --max-steps <n>      budget on BDD node allocations (a deterministic
//!                        proxy for work); exceeding it stops the run
//!   --fallback           on node/arena exhaustion, checkpoint and retry
//!                        the remaining fixpoint with the saturation
//!                        engine plus forced sifting before giving up
//!   --failpoints <spec>  arm deterministic fault injection for this
//!                        invocation, e.g. `store-rename` or
//!                        `arena-alloc=3;store-write` (testing hook)
//!   --cache-dir <dir>    content-addressed result cache: a rerun of an
//!                        unchanged net (same options) returns the stored
//!                        verdict without any fixpoint (see
//!                        docs/persistent-store.md)
//!   --cache-max-mb <n>   bound --cache-dir to n megabytes, evicting the
//!                        oldest entries past the cap (n must be > 0)
//!   --checkpoint <file>  snapshot the traversal state to <file> so an
//!                        interrupted run can be resumed
//!   --checkpoint-every <n>  snapshot cadence in iterations (default 16
//!                        when --checkpoint is set)
//!   --resume             seed the traversal from --checkpoint if present
//!   --incremental        with --cache-dir: seed from the reached set of a
//!                        monotone predecessor of this net, if cached
//!   --abort-after <n>    stop the traversal after n iterations, writing a
//!                        final checkpoint (testing/interrupt hook)
//! ```
//!
//! `stgcheck serve` reads JSON-lines verification requests from stdin
//! (or a unix socket with `--listen`) and answers one JSON response per
//! request — see `docs/serve.md` for the protocol:
//!
//! ```text
//!   --workers <n>        worker threads in the verification pool
//!                        (default 2)
//!   --queue-cap <n>      admission bound: beyond it requests are
//!                        answered `queue_full` instead of buffered
//!                        (default 64)
//!   --journal <dir>      crash-safe request journal: accepted requests
//!                        are journaled before running, marked answered
//!                        after responding
//!   --recover            replay accepted-but-unanswered journal records
//!                        before serving new traffic
//!   --listen <socket>    serve a unix socket instead of stdin/stdout
//! ```
//!
//! plus `--cache-dir`, `--cache-max-mb`, `--failpoints` and every
//! verification option above (which become the per-request defaults).
//!
//! Exit status (see `docs/robustness.md` and [`ProcessExit`]): 0 when
//! every file is I/O-implementable or better, 1 when any file fails, 2 on
//! usage or parse errors, 3 when a traversal was interrupted cooperatively
//! (`--abort-after`, SIGINT/SIGTERM; a checkpoint was written when
//! `--checkpoint` is set), 4 when a resource budget (`--timeout`,
//! `--max-nodes`, `--max-steps`, or the node arena) was exhausted, 5 on
//! internal errors. `stgcheck serve` exits 0 after a clean stdin-EOF
//! drain and 3 after a SIGTERM/SIGINT drain.

use std::process::ExitCode;

use stgcheck::core::{
    outcome_exit, run_daemon, verify_persistent, FaultPlan, Outcome, PersistOptions, ProcessExit,
    ServeOptions, SymbolicReport, VerifyOptions,
};
use stgcheck::stg::{parse_g, PersistencyPolicy};

/// SIGINT/SIGTERM handling. The handler itself only flips a static
/// atomic (the only thing that is async-signal-safe here); a watcher
/// thread forwards the flip to an `Arc` latch that the verification
/// budget (one-shot mode) or the serve drain loop polls cooperatively.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the handlers and returns a latch that flips shortly
    /// after SIGINT or SIGTERM arrives. The one-shot CLI feeds it to
    /// the run's cancellation slot (stop at the next poll point, write
    /// the checkpoint, exit 3); serve mode drains on it.
    pub fn term_latch() -> Arc<AtomicBool> {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
        let latch = Arc::new(AtomicBool::new(false));
        let forwarded = Arc::clone(&latch);
        let _ =
            std::thread::Builder::new().name("stgcheck-signals".to_string()).spawn(move || loop {
                if TERM.load(Ordering::SeqCst) {
                    forwarded.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
        latch
    }
}

#[cfg(not(unix))]
mod signals {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// No signal plumbing off unix: an inert latch.
    pub fn term_latch() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }
}

/// `println!`, minus the abort on a closed pipe: `stgcheck big.g | head`
/// must not panic when the reader stops early (std's `println!` panics
/// on `EPIPE`). Write errors are ignored — nobody is listening — and
/// the exit code stays verdict-driven.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// [`out!`] for stderr.
macro_rules! err {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

struct Cli {
    files: Vec<String>,
    options: VerifyOptions,
    persist: PersistOptions,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: stgcheck [--arbitration] [--order interleaved|places|signals|declaration] \
     [--engine per-transition|parallel|saturation] [--jobs N] \
     [--reorder none|sift|auto] [--quiet] \
     [--timeout SECS] [--max-nodes N] [--max-steps N] [--fallback] \
     [--failpoints SPEC] \
     [--cache-dir DIR] [--cache-max-mb N] [--incremental] \
     [--checkpoint FILE] [--checkpoint-every N] [--resume] [--abort-after N] \
     file.g [file2.g ...]\n\
     \n\
     stgcheck serve [--workers N] [--queue-cap N] [--cache-dir DIR] \
     [--cache-max-mb N] [--journal DIR] [--recover] [--listen SOCKET] \
     [--failpoints SPEC] [verification option defaults]  (see docs/serve.md)"
}

fn parse_serve(args: Vec<String>) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if parse_verify_flag(&arg, &mut it, &mut opts.defaults)?
            || parse_persist_flag(&arg, &mut it, &mut opts.persist)?
        {
            continue;
        }
        match arg.as_str() {
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                opts.workers =
                    v.parse().map_err(|_| format!("--workers needs a number, got `{v}`"))?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                opts.queue_cap =
                    v.parse().map_err(|_| format!("--queue-cap needs a number, got `{v}`"))?;
                if opts.queue_cap == 0 {
                    return Err("--queue-cap must be at least 1".to_string());
                }
            }
            "--journal" => {
                let v = it.next().ok_or("--journal needs a directory")?;
                opts.journal_dir = Some(v.into());
            }
            "--recover" => opts.recover = true,
            "--listen" => {
                let v = it.next().ok_or("--listen needs a socket path")?;
                opts.listen = Some(v.into());
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("serve: unexpected argument `{other}`\n{}", usage())),
        }
    }
    if opts.recover && opts.journal_dir.is_none() {
        return Err("--recover needs --journal DIR".to_string());
    }
    Ok(opts)
}

/// Parses one verification-option flag shared between one-shot mode and
/// the serve defaults. Returns `Ok(false)` when `arg` is not one of
/// them (the caller's own flags come next).
fn parse_verify_flag(
    arg: &str,
    it: &mut std::vec::IntoIter<String>,
    options: &mut VerifyOptions,
) -> Result<bool, String> {
    match arg {
        "--arbitration" => {
            options.policy = PersistencyPolicy { allow_arbitration: true };
        }
        "--order" => {
            let v = it.next().ok_or("--order needs a value")?;
            options.order = v.parse()?;
        }
        "--engine" => {
            let v = it.next().ok_or("--engine needs a value")?;
            options.engine.kind = v.parse()?;
        }
        "--reorder" => {
            let v = it.next().ok_or("--reorder needs a value")?;
            options.reorder = v.parse()?;
        }
        "--jobs" => {
            let v = it.next().ok_or("--jobs needs a value")?;
            options.engine.jobs =
                v.parse().map_err(|_| format!("--jobs needs a number, got `{v}`"))?;
        }
        "--timeout" | "--max-nodes" | "--max-steps" => {
            let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            options.budget.set_flag(arg, &v)?;
        }
        "--fallback" => options.budget.fallback = true,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses one persistence flag shared between one-shot mode and the
/// serve template: `--cache-dir`, `--cache-max-mb` and `--failpoints`.
/// Returns `Ok(false)` when `arg` is not one of them. A repeated
/// `--failpoints` replaces the earlier plan.
fn parse_persist_flag(
    arg: &str,
    it: &mut std::vec::IntoIter<String>,
    persist: &mut PersistOptions,
) -> Result<bool, String> {
    match arg {
        "--cache-dir" => {
            let v = it.next().ok_or("--cache-dir needs a directory")?;
            persist.cache_dir = Some(v.into());
        }
        "--cache-max-mb" => {
            // Megabytes, strictly positive: a zero-byte cache is a
            // misconfiguration, not a request to evict everything.
            let v = it.next().ok_or("--cache-max-mb needs a value in megabytes")?;
            let mb: u64 =
                v.parse().map_err(|_| format!("--cache-max-mb needs a number, got `{v}`"))?;
            if mb == 0 {
                return Err("--cache-max-mb must be > 0 (0 would evict every result)".to_string());
            }
            persist.cache_max_bytes = Some(mb.saturating_mul(1024 * 1024));
        }
        "--failpoints" => {
            let v = it.next().ok_or("--failpoints needs a spec")?;
            persist.faults = FaultPlan::parse(&v)?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_cli(args: Vec<String>) -> Result<Cli, String> {
    let mut cli = Cli {
        files: Vec::new(),
        options: VerifyOptions::default(),
        persist: PersistOptions::default(),
        quiet: false,
    };
    let mut every_given = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if parse_verify_flag(&arg, &mut it, &mut cli.options)?
            || parse_persist_flag(&arg, &mut it, &mut cli.persist)?
        {
            continue;
        }
        match arg.as_str() {
            "--quiet" => cli.quiet = true,
            "--checkpoint" => {
                let v = it.next().ok_or("--checkpoint needs a file")?;
                cli.persist.checkpoint = Some(v.into());
            }
            "--checkpoint-every" => {
                let v = it.next().ok_or("--checkpoint-every needs a value")?;
                cli.persist.checkpoint_every = v
                    .parse()
                    .map_err(|_| format!("--checkpoint-every needs a number, got `{v}`"))?;
                every_given = true;
            }
            "--resume" => cli.persist.resume = true,
            "--incremental" => cli.persist.incremental = true,
            "--abort-after" => {
                let v = it.next().ok_or("--abort-after needs a value")?;
                cli.persist.abort_after =
                    v.parse().map_err(|_| format!("--abort-after needs a number, got `{v}`"))?;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n{}", usage()));
            }
            file => cli.files.push(file.to_string()),
        }
    }
    if cli.persist.checkpoint.is_some() && !every_given {
        cli.persist.checkpoint_every = 16;
    }
    if cli.files.is_empty() {
        return Err(usage().to_string());
    }
    Ok(cli)
}

fn print_full(report: &SymbolicReport, stg: &stgcheck::stg::Stg) {
    out!("{}", SymbolicReport::table1_header());
    out!("{}", report.table1_row());
    out!("  safe:        {}", report.safe());
    for v in &report.safety {
        out!("    unsafe firing of `{}` at {}", stg.net().trans_name(v.transition), v.witness);
    }
    out!("  consistent:  {}", report.consistent());
    for v in &report.consistency {
        out!(
            "    `{}{}` enabled at the wrong value: {}",
            stg.signal_name(v.signal),
            v.polarity,
            v.witness
        );
    }
    out!("  persistent:  {}", report.persistent());
    for v in &report.persistency {
        out!(
            "    `{}` disabled by `{}` at {}",
            stg.signal_name(v.disabled),
            stg.net().trans_name(v.fired),
            v.witness
        );
    }
    out!("  fake-free:   {}", report.fake_free());
    for fc in &report.fake_violations {
        out!(
            "    fake conflict between `{}` and `{}`",
            stg.net().trans_name(fc.t1),
            stg.net().trans_name(fc.t2)
        );
    }
    if let Some(dead) = &report.deadlock {
        out!("  deadlock:    reachable dead state at {dead}");
    }
    if report.gc_collections > 0 {
        out!(
            "  gc:          {} collections, {:.3} ms paused",
            report.gc_collections,
            report.gc_pause_ms
        );
    }
    out!("  CSC:         {}", report.csc_holds());
    for a in report.csc.iter().filter(|a| !a.holds) {
        let kind = if report.irreducible_signals.contains(&a.signal) {
            "irreducible"
        } else {
            "reducible"
        };
        out!("    conflict on `{}` ({kind})", stg.signal_name(a.signal));
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        args.remove(0);
        let mut opts = match parse_serve(args) {
            Ok(opts) => opts,
            Err(msg) => {
                err!("{msg}");
                return ExitCode::from(ProcessExit::Usage.code() as u8);
            }
        };
        opts.term = Some(signals::term_latch());
        return ExitCode::from(run_daemon(opts).code() as u8);
    }
    let mut cli = match parse_cli(args) {
        Ok(cli) => cli,
        Err(msg) => {
            err!("{msg}");
            return ExitCode::from(ProcessExit::Usage.code() as u8);
        }
    };
    // SIGINT/SIGTERM stop the run cooperatively: the latch feeds the
    // budget's cancellation slot, so the traversal halts at its next
    // poll point, writes its checkpoint (with --checkpoint) and the
    // process exits 3 — instead of dying mid-write.
    if cli.persist.cancel.is_none() {
        cli.persist.cancel = Some(signals::term_latch());
    }
    let mut exit = ProcessExit::Success;
    for file in &cli.files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                err!("{file}: {e}");
                return ExitCode::from(ProcessExit::Usage.code() as u8);
            }
        };
        let stg = match parse_g(&source) {
            Ok(stg) => stg,
            Err(e) => {
                err!("{file}: {e}");
                return ExitCode::from(ProcessExit::Usage.code() as u8);
            }
        };
        let run = match verify_persistent(&stg, cli.options, &cli.persist) {
            Ok(r) => r,
            Err(e) => {
                err!("{file}: {e}");
                exit = exit.worst(ProcessExit::Violation);
                continue;
            }
        };
        if !cli.quiet {
            for note in &run.notes {
                out!("{file}: note: {note}");
            }
        }
        exit = exit.worst(outcome_exit(&run.outcome));
        match run.outcome {
            Outcome::Interrupted { checkpoint: Some(path) } => out!(
                "{file}: interrupted (checkpoint written to {}; rerun with --resume)",
                path.display()
            ),
            Outcome::Interrupted { checkpoint: None } => {
                out!("{file}: interrupted (no checkpoint written)")
            }
            Outcome::Exhausted { reason, checkpoint: Some(path) } => out!(
                "{file}: budget exhausted: {reason} (checkpoint written to {}; \
                 rerun with --resume and a larger budget)",
                path.display()
            ),
            Outcome::Exhausted { reason, checkpoint: None } if cli.persist.checkpoint.is_some() => {
                out!(
                    "{file}: budget exhausted: {reason} (no checkpoint written: \
                     the budget tripped before any state was committed)"
                )
            }
            Outcome::Exhausted { reason, checkpoint: None } => out!(
                "{file}: budget exhausted: {reason} (no checkpoint written; \
                 run with --checkpoint to make such runs resumable)"
            ),
            Outcome::Completed(report) => {
                if cli.quiet {
                    out!("{file}: {}", report.verdict);
                } else {
                    out!("== {file} ==");
                    if cli.persist.cache_dir.is_some() {
                        out!("  cache:       {}", run.cache);
                    }
                    if run.fell_back {
                        out!("  fallback:    saturation + sift (node budget was exhausted)");
                    }
                    print_full(&report, &stg);
                    out!("  verdict:     {}\n", report.verdict);
                }
            }
        }
    }
    ExitCode::from(exit.code() as u8)
}
