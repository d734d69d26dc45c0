//! The `serve-mixed` workload: an open-loop, seeded stream of JSON-lines
//! `verify` requests with inline `.g` text, admitted the way the daemon
//! admits them (`protocol::parse_request` → `parse_g` →
//! `Scheduler::submit`) onto a one-worker scheduler with a result store.
//!
//! Requests arrive as a Poisson process at a fixed offered rate and are
//! timed from when they were due, so a stalled generator or a
//! head-of-line wait shows in the latency. The mix is stratified in
//! blocks of [`BLOCK`] requests so its composition does not depend on the
//! seed: fresh small nets (a full, cheap verification), repeats of nets
//! pre-filled into the store during set-up (a store read), fresh mid-size
//! nets (about ten milliseconds; head-of-line waits) and an in-flight
//! duplicate of each mid-size request (coalesced).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use stgcheck_core::protocol::{json_escape, parse_request, Request};
use stgcheck_core::{
    CacheStatus, JobResult, JobSpec, Outcome, PersistOptions, Scheduler, Shed, VerifyOptions,
};
use stgcheck_stg::{gen, parse_g, write_g, Stg};

use crate::compose::{timed, verify_text, verify_traced, Summary};
use crate::host::Host;
use crate::refs::{as_received, explicit_expected, family_expected, Expected, Family};
use crate::rng::Rng;
use crate::stats::{geomean, median, tail};
use crate::trace::Tracer;
use crate::{Args, Report};

/// Scheduler workers. One: with two, which worker's allocator arena
/// held which net changed from run to run, and peak RSS with it.
const WORKERS: usize = 1;
/// Offered rate of the measured phase, requests per second.
const RATE: f64 = 80.0;
/// Latency limit on the tail percentile; a request over it counts as
/// failed in the measured phase.
const LIMIT_MS: f64 = 250.0;
/// Share of a traced run spent in the measured phase; the rest decomposes
/// its fresh requests. An untraced run is all measured phase.
const TRACED_SHARE: f64 = 0.6;
/// The stream runs in segments of this many seconds of arrivals, each
/// after a calibration gap: the worker goes idle and the host-speed kernel
/// runs (see `host`), so every request's times are scaled by the kernel
/// times measured at the two ends of its segment.
const SEGMENT_S: f64 = 2.0;
/// Calibration gap before each segment, seconds.
const GAP_S: f64 = 0.1;
/// Kernel runs per calibration; their median is taken.
const KERNEL_RUNS: usize = 3;
/// Set-up repetitions; the median is reported.
const SETUPS: usize = 9;
/// Requests per stratified block: fresh small, repeats, and one fresh
/// mid-size net followed by an in-flight duplicate (coalesced). The
/// mid-size requests are the slowest 2 % of the stream, so the p99 latency
/// falls in the middle of their latencies, not at the edge between two
/// classes of request.
const BLOCK: usize = 100;
const FRESH_SMALL: usize = 54;
const REPEATS: usize = 44;

/// Small family members: about a millisecond each.
const SMALL: [(Family, usize); 8] = [
    (Family::Muller, 3),
    (Family::Muller, 4),
    (Family::Muller, 5),
    (Family::ParHs, 2),
    (Family::ParHs, 3),
    (Family::MasterRead, 2),
    (Family::MasterRead, 3),
    (Family::Mutex, 3),
];

/// Mid-size family members: about ten milliseconds each. One family, so
/// every mid-size request costs the same: the latency tail, which they
/// set, and the memory peak do not depend on which ones the seed draws.
const MID: [(Family, usize); 1] = [(Family::ParHs, 9)];

/// Random safe STGs in the catalogue. Their sizes vary with the seed;
/// drawing fresh small requests from this many keeps the stream's average
/// cost, and so its median latency, nearly the same for every seed.
const RANDOM_NETS: usize = 256;

/// Engines a request may name instead of the default.
const OVERRIDES: [&str; 2] = ["clustered", "saturation"];

/// A net the stream can carry, with its independent reference.
#[derive(Clone)]
struct Net {
    text: String,
    arbitration: bool,
    expected: Expected,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Kind {
    Fresh,
    Repeat,
    Duplicate,
}

/// Where a request's net comes from in the catalogue.
#[derive(Copy, Clone)]
enum Source {
    Random(usize),
    Small(usize),
    Mid(usize),
    Prefill(usize),
}

/// One request as the generator sends it. Its JSON line is built from the
/// catalogue when it is sent ([`Catalogue::line`]), so the stream held in
/// memory is small and the same size whatever nets the seed draws.
struct Req {
    /// The id is `r<number>`.
    number: usize,
    source: Source,
    /// A fresh net has its signals prefixed `f<rename>_`.
    rename: Option<usize>,
    engine: Option<&'static str>,
    expected: Expected,
    kind: Kind,
    mid: bool,
    /// Seconds after the phase start at which the request is due.
    due: f64,
    /// The calibration segment the request arrives in.
    segment: usize,
}

/// Prefixes every signal name in `.g` text, which makes a structurally
/// identical net with a new content hash (so it misses the store).
pub fn rename_signals(text: &str, prefix: &str) -> String {
    let mut signals = HashSet::new();
    for line in text.lines() {
        let mut words = line.split_whitespace();
        if let Some(".inputs" | ".outputs" | ".internal") = words.next() {
            signals.extend(words.map(str::to_string));
        }
    }
    let mut out = String::with_capacity(text.len() + 64);
    for line in text.lines() {
        let directive = line.split_whitespace().next().unwrap_or("");
        if directive == ".model" {
            out.push_str(line);
        } else {
            let declares = matches!(directive, ".inputs" | ".outputs" | ".internal");
            let mut word = String::new();
            for c in line.chars().chain(std::iter::once('\n')) {
                if c.is_whitespace() || "<>,{}".contains(c) {
                    let label = word.split('/').next().unwrap_or("");
                    let name = label.strip_suffix('+').or_else(|| label.strip_suffix('-'));
                    let is_signal = match name {
                        Some(name) => signals.contains(name),
                        None => declares && signals.contains(&word),
                    };
                    if is_signal {
                        out.push_str(prefix);
                    }
                    out.push_str(&word);
                    word.clear();
                    if c != '\n' {
                        out.push(c);
                    }
                } else {
                    word.push(c);
                }
            }
        }
        out.push('\n');
    }
    out
}

fn request_line(id: &str, net: &Net, engine: Option<&str>) -> String {
    let mut line =
        format!("{{\"op\":\"verify\",\"id\":\"{id}\",\"net\":\"{}\"", json_escape(&net.text));
    if net.arbitration {
        line.push_str(",\"arbitration\":true");
    }
    if let Some(engine) = engine {
        line.push_str(&format!(",\"engine\":\"{engine}\""));
    }
    line.push('}');
    line
}

fn family_net(family: Family, n: usize) -> Net {
    Net {
        text: write_g(&family.build(n)),
        arbitration: family.arbitration(),
        expected: family_expected(family, n),
    }
}

/// The nets the stream draws from, all drawn from the seed.
struct Catalogue {
    /// Random safe STGs inside the explicit reference's fragment.
    random: Vec<Net>,
    small: Vec<Net>,
    mid: Vec<Net>,
    /// Pre-filled into the store during set-up; repeats re-send them.
    prefill: Vec<(Net, Option<&'static str>)>,
}

impl Catalogue {
    fn new(rng: &mut Rng) -> Catalogue {
        let mut random = Vec::new();
        while random.len() < RANDOM_NETS {
            let stg: Stg = as_received(&gen::random_safe_stg(rng.next_u64() >> 16));
            if let Some(expected) = explicit_expected(&stg, false) {
                random.push(Net { text: write_g(&stg), arbitration: false, expected });
            }
        }
        let small: Vec<Net> = SMALL.iter().map(|&(f, n)| family_net(f, n)).collect();
        let mid: Vec<Net> = MID.iter().map(|&(f, n)| family_net(f, n)).collect();
        let mut cat = Catalogue { random, small, mid, prefill: Vec::new() };
        for k in 0..16 {
            let source = cat.small_source(rng);
            let net = cat.renamed(cat.net(source), &format!("w{k}_"));
            let engine = cat.engine(rng);
            cat.prefill.push((net, engine));
        }
        for k in 0..2 {
            let net = cat.renamed(&cat.mid[k % cat.mid.len()], &format!("wm{k}_"));
            cat.prefill.push((net, None));
        }
        cat
    }

    fn renamed(&self, net: &Net, prefix: &str) -> Net {
        Net { text: rename_signals(&net.text, prefix), ..net.clone() }
    }

    /// A small net: a random STG three times in five, else a small family
    /// member.
    fn small_source(&self, rng: &mut Rng) -> Source {
        if rng.below(5) < 3 {
            Source::Random(rng.below(self.random.len()))
        } else {
            Source::Small(rng.below(self.small.len()))
        }
    }

    fn net(&self, source: Source) -> &Net {
        match source {
            Source::Random(i) => &self.random[i],
            Source::Small(i) => &self.small[i],
            Source::Mid(i) => &self.mid[i],
            Source::Prefill(i) => &self.prefill[i].0,
        }
    }

    /// The JSON line the generator sends for `req`.
    fn line(&self, req: &Req) -> String {
        let net = self.net(req.source);
        let id = format!("r{}", req.number);
        match req.rename {
            Some(n) => request_line(&id, &self.renamed(net, &format!("f{n}_")), req.engine),
            None => request_line(&id, net, req.engine),
        }
    }

    fn engine(&self, rng: &mut Rng) -> Option<&'static str> {
        (rng.below(4) == 0).then(|| OVERRIDES[rng.below(OVERRIDES.len())])
    }

    /// `count` requests arriving at `rate`, stratified in blocks; `first`
    /// numbers them so every id and every fresh net is unique in the run.
    fn stream(&self, rng: &mut Rng, first: usize, count: usize, rate: f64) -> Vec<Req> {
        let mut out: Vec<Req> = Vec::with_capacity(count + BLOCK);
        // Arrival time without the calibration gaps.
        let mut clock = 0.0;
        while out.len() < count {
            let mut kinds: Vec<(Kind, bool)> = Vec::with_capacity(BLOCK);
            kinds.extend(std::iter::repeat_n((Kind::Fresh, false), FRESH_SMALL));
            kinds.extend(std::iter::repeat_n((Kind::Repeat, false), REPEATS));
            kinds.push((Kind::Fresh, true));
            rng.shuffle(&mut kinds);
            for (kind, mid) in kinds {
                clock += rng.exp(1.0 / rate);
                let segment = (clock / SEGMENT_S) as usize;
                let due = clock + (segment + 1) as f64 * GAP_S;
                let first_of_slot = first + out.len();
                let mut push = |source, rename, engine, kind| {
                    let expected = self.net(source).expected;
                    let number = first + out.len();
                    out.push(Req {
                        number,
                        source,
                        rename,
                        engine,
                        expected,
                        kind,
                        mid,
                        due,
                        segment,
                    });
                };
                match (kind, mid) {
                    (Kind::Repeat, _) => {
                        let i = rng.below(self.prefill.len());
                        push(Source::Prefill(i), None, self.prefill[i].1, kind);
                    }
                    (_, true) => {
                        let source = Source::Mid(rng.below(self.mid.len()));
                        push(source, Some(first_of_slot), None, Kind::Fresh);
                        // Sent right behind its original: coalesces with it.
                        push(source, Some(first_of_slot), None, Kind::Duplicate);
                    }
                    _ => {
                        let source = self.small_source(rng);
                        let engine = self.engine(rng);
                        push(source, Some(first_of_slot), engine, kind);
                    }
                }
            }
        }
        out.truncate(count);
        out
    }
}

/// The parts of a [`JobResult`] the benchmark uses, taken on the worker as
/// the job finishes: full results (reports, notes) held until the
/// generator drains them grew the process by megabytes, by different
/// amounts from run to run.
struct Answer {
    /// [`judge`]'s finding.
    judged: Result<bool, String>,
    coalesced: bool,
    wall: f64,
    queue_wait: f64,
    warm: Option<bool>,
}

impl Answer {
    fn new(expected: Expected, r: &JobResult) -> Answer {
        Answer {
            judged: judge(expected, r),
            coalesced: r.coalesced,
            wall: r.wall.as_secs_f64(),
            queue_wait: r.queue_wait.as_secs_f64(),
            warm: r.run.as_ref().ok().map(|run| run.cache == CacheStatus::Warm),
        }
    }
}

/// What came back for one request.
struct Done {
    /// `None` for a request that was shed.
    result: Option<Answer>,
    /// Factor from measured seconds to seconds at the reference host
    /// speed, from the kernel runs at the two ends of the segment.
    scale: f64,
    /// Seconds from due to completion.
    latency: f64,
    late: f64,
    protocol_s: f64,
    parse_s: f64,
}

/// Admits one request line the way the daemon does: `parse_request`, then
/// `parse_g` of the inline net, then `Scheduler::submit`. Returns the
/// submit outcome and the seconds spent in the two parsers.
fn admit(
    sched: &Scheduler,
    cache_dir: Option<&Path>,
    line: &str,
    callback: Box<dyn FnOnce(JobResult) + Send>,
) -> (Result<u64, Shed>, f64, f64) {
    let t = Instant::now();
    let parsed = parse_request(line, &VerifyOptions::default());
    let protocol_s = t.elapsed().as_secs_f64();
    let Ok(Request::Verify(vr)) = parsed else {
        panic!("generated request does not parse as verify: {:?}", parsed.err());
    };
    let t = Instant::now();
    let stg = parse_g(vr.net.as_deref().unwrap_or("")).expect("generated net parses");
    let parse_s = t.elapsed().as_secs_f64();
    let persist =
        PersistOptions { cache_dir: cache_dir.map(Path::to_path_buf), ..PersistOptions::default() };
    let spec = JobSpec { stg, options: vr.options, persist };
    (sched.submit(spec, callback), protocol_s, parse_s)
}

/// Sends `reqs` open-loop (each at its due time, however late the
/// previous one was) and waits for every answer. Before each segment the
/// worker drains and the host-speed kernel runs.
fn drive(
    sched: &Scheduler,
    cache_dir: &Path,
    cat: &Catalogue,
    reqs: &[Req],
    host: &mut Host,
) -> Vec<Done> {
    let (tx, rx) = mpsc::channel::<(usize, Answer, Instant)>();
    let mut done: Vec<Done> = Vec::with_capacity(reqs.len());
    let start = Instant::now();
    let (mut pending, mut answered) = (0, 0);
    let drain = |done: &mut Vec<Done>, answered: &mut usize, pending: usize| {
        while *answered < pending {
            let (i, r, at) = rx.recv().expect("every admitted job answers");
            let due = start + Duration::from_secs_f64(reqs[i].due);
            done[i].latency = at.saturating_duration_since(due).as_secs_f64();
            done[i].result = Some(r);
            *answered += 1;
        }
    };
    // Kernel time at the start of each segment, and one at the end.
    let mut kernel: Vec<f64> = Vec::new();
    let mut segment_of: Vec<usize> = Vec::with_capacity(reqs.len());
    let mut segment = usize::MAX;
    for (i, req) in reqs.iter().enumerate() {
        if req.segment != segment {
            drain(&mut done, &mut answered, pending);
            kernel.push(calibrate(host));
            segment = req.segment;
        }
        let line = cat.line(req);
        let due = start + Duration::from_secs_f64(req.due);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let late = due.elapsed().as_secs_f64();
        let tx = tx.clone();
        let expected = req.expected;
        let callback = Box::new(move |r: JobResult| {
            let _ = tx.send((i, Answer::new(expected, &r), Instant::now()));
        });
        // Fresh requests run without the store: their writes would time the
        // disk of a shared machine, which varied fourfold between runs.
        let store = (req.kind == Kind::Repeat).then_some(cache_dir);
        let (submitted, protocol_s, parse_s) = admit(sched, store, &line, callback);
        pending += usize::from(submitted.is_ok());
        segment_of.push(kernel.len() - 1);
        let d =
            Done { result: None, scale: 1.0, latency: f64::INFINITY, late, protocol_s, parse_s };
        done.push(d);
    }
    drain(&mut done, &mut answered, pending);
    kernel.push(calibrate(host));
    for (d, k) in done.iter_mut().zip(segment_of) {
        d.scale = crate::host::scale(1.0, kernel[k], kernel[k + 1]);
    }
    done
}

/// Untimed warm-up: every mid-size family and every small family once,
/// through the scheduler, so the worker's allocator has grown to its
/// working size and the caches are warm before timing starts.
fn warm_up(sched: &Scheduler) {
    let (tx, rx) = mpsc::channel::<JobResult>();
    let nets = MID.iter().chain(&SMALL).map(|&(f, n)| family_net(f, n));
    let mut sent = 0;
    for (k, net) in nets.enumerate() {
        let net = Net { text: rename_signals(&net.text, &format!("u{k}_")), ..net };
        let tx = tx.clone();
        let callback = Box::new(move |r| {
            let _ = tx.send(r);
        });
        let (submitted, _, _) =
            admit(sched, None, &request_line(&format!("u{k}"), &net, None), callback);
        sent += usize::from(submitted.is_ok());
    }
    for _ in 0..sent {
        rx.recv().expect("every admitted job answers");
    }
}

/// The median of a few kernel runs on an idle worker, after one untimed
/// run: the first run after the worker's requests finds the kernel's table
/// evicted from the caches and the CPU idle.
fn calibrate(host: &mut Host) -> f64 {
    host.kernel();
    median(&(0..KERNEL_RUNS).map(|_| host.kernel()).collect::<Vec<_>>())
}

/// Checks one answer against its reference; `Err` for an error, shed or
/// non-completed run, `Ok(false)` for a wrong verdict or state count.
fn judge(expected: Expected, r: &JobResult) -> Result<bool, String> {
    let run = r.run.as_ref().map_err(|e| format!("{e:?}"))?;
    match &run.outcome {
        Outcome::Completed(rep) => {
            let got = Summary::from(rep);
            Ok((got.verdict, got.states) == (expected.verdict, expected.states))
        }
        other => Err(format!("{other:?}")),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

struct Setup {
    cat: Catalogue,
    reqs: Vec<Req>,
    sched: Scheduler,
    cache_dir: PathBuf,
    /// Seconds spent on the catalogue, the request stream and the pre-fill.
    parts: [f64; 3],
}

/// Input generation, store pre-fill and scheduler spawn.
fn set_up(args: &Args, dir: &Path, attempt: usize, count: usize) -> Setup {
    let t = Instant::now();
    let mut rng = Rng::new(args.seed);
    let cat = Catalogue::new(&mut rng);
    let catalogue_s = t.elapsed().as_secs_f64();
    let reqs = cat.stream(&mut rng, 0, count, RATE);
    let stream_s = t.elapsed().as_secs_f64() - catalogue_s;
    let cache_dir = dir.join(format!("store{attempt}"));
    let defaults = VerifyOptions::default();
    let persist =
        PersistOptions { cache_dir: Some(cache_dir.clone()), ..PersistOptions::default() };
    for (k, (net, engine)) in cat.prefill.iter().enumerate() {
        let line = request_line(&format!("w{k}"), net, *engine);
        let Ok(Request::Verify(vr)) = parse_request(&line, &defaults) else {
            panic!("pre-fill request does not parse");
        };
        let stg = parse_g(vr.net.as_deref().unwrap_or("")).expect("pre-fill net parses");
        stgcheck_core::verify_persistent(&stg, vr.options, &persist).expect("pre-fill verifies");
    }
    let prefill_s = t.elapsed().as_secs_f64() - catalogue_s - stream_s;
    let sched = Scheduler::new(WORKERS, 1 << 20);
    Setup { cat, reqs, sched, cache_dir, parts: [catalogue_s, stream_s, prefill_s] }
}

pub fn run(args: &Args, dir: &Path) -> Report {
    let mut report = Report::default();
    let share = if args.trace { TRACED_SHARE } else { 1.0 };
    let main_count = (RATE * args.seconds * share).round() as usize;
    // The worker, the load generator and the calibration kernel share one
    // CPU, so the kernel measures the CPU the requests run on.
    if !crate::host::pin_to_one_cpu() {
        report.note("not pinned to one CPU: the kernel may time another CPU".to_string());
    }
    let mut host = Host::new();
    // Set up several times, each with a fresh store, and keep the last: the
    // reported set-up time is the median. Earlier stores stay on disk until
    // the work directory is removed at exit, so deleting them cannot stall
    // the measured phase.
    let mut setup_times = Vec::new();
    let mut setup = None;
    for attempt in 0..SETUPS {
        if let Some(old) = setup.take() {
            let Setup { sched, .. } = old;
            sched.drain();
        }
        // Each set-up starts from a committed file system, so write-back
        // left by the previous one does not land in its time.
        crate::sync_disks();
        let (made, scaled, _) = host.timed(|| set_up(args, dir, attempt, main_count));
        setup = Some(made);
        setup_times.push(scaled);
    }
    let Setup { cat, reqs, sched, cache_dir, parts } = setup.expect("set up at least once");
    report.set("setup_s", median(&setup_times));
    report.note(format!(
        "set-up: catalogue {:.4} s, stream {:.4} s, store pre-fill {:.4} s",
        parts[0], parts[1], parts[2]
    ));

    // The measured phase at the fixed offered rate.
    warm_up(&sched);
    let done = drive(&sched, &cache_dir, &cat, &reqs, &mut host);
    let mut latencies = Vec::new();
    let mut measured_latencies = Vec::new();
    let (mut warm, mut cold) = (Vec::new(), Vec::new());
    let (mut queue, mut runs, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut coalesced = 0;
    let mut shed = 0;
    // Worker seconds at the reference host speed.
    let mut busy_s = 0.0;
    let mut by_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (req, d) in reqs.iter().zip(&done) {
        report.attempted += 1;
        let judged = d.result.as_ref().map_or(Err("shed".to_string()), |a| a.judged.clone());
        match judged {
            Ok(true) => {}
            Ok(false) => {
                report.wrong += 1;
                report.note(format!("wrong answer to request r{}", req.number));
            }
            Err(e) => {
                report.failed += 1;
                shed += usize::from(d.result.is_none());
                report.note(format!("request failed: {e}"));
                continue;
            }
        }
        if d.latency * 1e3 > LIMIT_MS {
            report.failed += 1;
        }
        latencies.push(d.latency * d.scale * 1e3);
        measured_latencies.push(d.latency * 1e3);
        let r = d.result.as_ref().expect("judged above");
        queue.push(r.queue_wait * 1e3);
        if r.coalesced {
            coalesced += 1;
            continue;
        }
        let wall = r.wall;
        let class = match (req.kind, req.mid) {
            (Kind::Repeat, _) => "repeat",
            (_, true) => "fresh mid",
            _ => "fresh small",
        };
        by_class.entry(class).or_default().push(wall * 1e3);
        runs.push(wall * 1e3);
        busy_s += wall * d.scale;
        walls.push((d.parse_s + wall) * d.scale);
        match r.warm {
            Some(true) => warm.push(wall * 1e3),
            Some(false) => cold.push(wall * 1e3),
            None => {}
        }
    }
    for (class, walls) in &by_class {
        report.note(format!("{class}: {} runs, median {:.3} ms", walls.len(), median(walls)));
    }
    report.note(format!(
        "measured latency (not scaled to the reference host): p50 {:.3} ms",
        median(&measured_latencies)
    ));
    let p99 = tail(&latencies);
    report.set("verify_s", walls.iter().sum());
    report.set("verify_geomean_s", geomean(&walls));
    report.set("serve_p50_ms", median(&latencies));
    report.set("serve_p99_ms", p99.map_or(f64::NAN, |t| t.value));
    if let Some(t) = p99 {
        report.note(format!(
            "latency tail: p{} = {:.3} ms over {} requests ({} beyond)",
            t.pct, t.value, t.n, t.beyond
        ));
    }
    let late: Vec<f64> = done.iter().map(|d| d.late * 1e3).collect();
    report.set("loadgen.late_ms_p99", tail(&late).map_or(f64::NAN, |t| t.value));
    report.set(
        "protocol.parse_us_p50",
        median(&done.iter().map(|d| d.protocol_s * 1e6).collect::<Vec<_>>()),
    );
    report.set("store.hit_ratio", warm.len() as f64 / (warm.len() + cold.len()).max(1) as f64);
    report.set("store.warm_ms_p50", if warm.is_empty() { 0.0 } else { median(&warm) });
    report.set("store.cold_ms_p50", if cold.is_empty() { 0.0 } else { median(&cold) });
    report.set("store.bytes", dir_bytes(&cache_dir) as f64);
    report.set("serve.queue_wait_ms_p50", median(&queue));
    report.set("serve.queue_wait_ms_p99", tail(&queue).map_or(f64::NAN, |t| t.value));
    report.set("serve.run_ms_p50", median(&runs));
    report.set("serve.run_ms_p99", tail(&runs).map_or(f64::NAN, |t| t.value));
    // The utilization law: above this offered rate the measured service
    // time of this mix exceeds what the worker can give, so the backlog
    // grows. Measuring it directly (a rate ladder, or a closed loop at a
    // fixed depth) did not repeat: under sustained store writes the file
    // system stalled for seconds, and the result varied by a factor of two
    // from run to run on a shared two-vCPU machine.
    report.set("serve_max_rps", WORKERS as f64 * latencies.len() as f64 / busy_s);
    report.set("serve.coalesced", coalesced as f64);
    report.set("serve.shed", shed as f64);
    report.note(format!(
        "measured phase: {} requests at {RATE}/s, {} warm, {} cold, {coalesced} coalesced",
        reqs.len(),
        warm.len(),
        cold.len()
    ));

    if args.trace {
        decompose(&cat, &reqs, args.seconds * (1.0 - TRACED_SHARE), &mut report);
    }
    // Parsing as the admission path does it in the measured phase.
    report.set("stg.parse_s", done.iter().map(|d| d.parse_s).sum());
    sched.drain();
    report
}

/// The traced part of `serve-mixed`: the fresh nets of the measured phase,
/// in order and for up to `secs` seconds, each verified once untraced and
/// once traced in the same process, so the per-layer split of an uncached
/// request can be read off the spans.
fn decompose(cat: &Catalogue, reqs: &[Req], secs: f64, report: &mut Report) {
    let defaults = VerifyOptions::default();
    let start = Instant::now();
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (0.0, 0.0);
    let mut small_rows = HashSet::new();
    let mut summaries = Vec::new();
    for (row, req) in reqs.iter().enumerate().filter(|(_, r)| r.kind == Kind::Fresh) {
        if start.elapsed().as_secs_f64() > secs {
            break;
        }
        let Ok(Request::Verify(vr)) = parse_request(&cat.line(req), &defaults) else { continue };
        let text = vr.net.as_deref().unwrap_or("");
        let untraced = || timed(|| verify_text(text, vr.options).map(|r| Summary::from(&r)));
        // Alternate which side runs first, as the batch workloads do.
        let early = (row % 2 == 1).then(untraced);
        let (got, traced_s) = timed(|| verify_traced(text, vr.options, &mut tracer, row));
        let (untraced, plain_s) = early.unwrap_or_else(untraced);
        plain += plain_s;
        traced += traced_s;
        report.attempted += 1;
        match (untraced, got) {
            (Ok(a), Ok(b))
                if a == b
                    && (a.verdict, a.states) == (req.expected.verdict, req.expected.states) =>
            {
                summaries.push(b);
            }
            (Ok(a), Ok(b)) => {
                report.wrong += 1;
                report.note(format!(
                    "request {row}: verify {a:?}, traced {b:?}, expected {:?}",
                    req.expected
                ));
            }
            (a, b) => {
                report.failed += 1;
                report.note(format!("request {row}: {:?} / {:?}", a.err(), b.err()));
            }
        }
        if !req.mid {
            small_rows.insert(row);
        }
    }
    report.set("trace.overhead_frac", traced / plain - 1.0);
    // Per-layer sums over the decomposed requests, taken as one pass.
    crate::layers::from_spans(&tracer, 1, plain, report);
    report.set("engine.iterations", summaries.iter().map(|s| s.iterations as f64).sum());
    report.set("engine.reached_nodes", summaries.iter().map(|s| s.reached_nodes as f64).sum());
    // Which call dominates an uncached small request.
    let own = tracer.self_secs();
    let mut by_name: std::collections::BTreeMap<&str, f64> = Default::default();
    let mut small_wall = 0.0;
    for (s, t) in tracer.spans.iter().zip(own) {
        if small_rows.contains(&s.row) {
            *by_name.entry(s.name).or_insert(0.0) += t;
            if s.name == "row" {
                small_wall += s.secs();
            }
        }
    }
    let encode = by_name.get("encode.new").copied().unwrap_or(0.0);
    report.set("encode.new_share_small", encode / small_wall.max(1e-12));
    let mut ranked: Vec<_> = by_name.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = ranked
        .iter()
        .take(4)
        .map(|(n, t)| format!("{n} {:.1}%", 100.0 * t / small_wall.max(1e-12)))
        .collect();
    report.note(format!(
        "uncached small requests ({}): self time {}",
        small_rows.len(),
        top.join(", ")
    ));
    report.tracer = Some(tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_keeps_structure_and_changes_the_hash() {
        for stg in [gen::master_read(2), gen::mutex(3), gen::random_safe_stg(7)] {
            let text = write_g(&as_received(&stg));
            let renamed = rename_signals(&text, "f9_");
            let a = parse_g(&text).unwrap();
            let b = parse_g(&renamed).unwrap();
            assert_ne!(a.content_hash(), b.content_hash());
            assert_eq!(a.num_signals(), b.num_signals());
            assert_eq!(a.net().num_places(), b.net().num_places());
            assert_eq!(explicit_expected(&a, true), explicit_expected(&b, true));
            assert!(b.signals().all(|s| b.signal_name(s).starts_with("f9_")));
        }
    }
}
