//! `perfbench` — the locapd request benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --locapd PATH [--profile NAME]
//! ```
//!
//! Starts a real `locapd` and drives it with a seeded closed-loop request
//! stream from this one process, checks every response, and prints a
//! human-readable report followed by one JSON line. With `--trace 0` the
//! JSON holds the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics: the daemon's own phase histograms and counters
//! (read through the `stats` op, as a delta over the measured window)
//! and the self time of each layer in an in-process traced replay of the
//! same requests. Exits 1 when a response is wrong, 2 when the run could
//! not be made.

mod check;
mod daemon;
mod gen;
mod load;
mod replay;
mod stats;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::time::Duration;

use locap_obs::json::Json;
use locap_obs::telemetry::TelemetryState;

use crate::daemon::{Daemon, Dirs};
use crate::gen::{key, Stream, Workload};
use crate::stats::{counter, counter_sum, phase_mean_ms, ratio};

/// Daemon starts per untraced run; `setup_s` is their median.
const SETUP_RUNS: usize = 9;
/// Load before the measured window (lazy set-up, store hot set).
const WARMUP: Duration = Duration::from_secs(1);
/// Probe sizes for `serve.connect_ms` and `serve.ping_us`.
const CONNECT_PROBES: usize = 20;
const PING_PROBES: usize = 400;
/// p99 is resolved only with at least ten samples beyond it.
const P99_MIN_SAMPLES: usize = 1000;
/// The end-to-end figures are medians over the calmest quarter of at most this
/// many time slices of the window, each with at least `P99_MIN_SAMPLES`
/// replies on average.
const MAX_SLICES: usize = 30;
/// A traced replay this much faster than the untraced one it is
/// interleaved with likely no longer does the program's work: the layer
/// calls in `replay` have drifted from the code they mirror.
const DRIFT_OVERHEAD_SHARE: f64 = -0.15;
/// Longest window. locapd measures every request's deadline from daemon
/// start, so a daemon older than its deadline truncates each request that
/// checks its budget; `daemon::DEADLINE_MS` keeps the daemon's deadline
/// well above warm-up plus this window.
const MAX_SECONDS: u64 = 120;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    locapd: PathBuf,
    profile: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut locapd) = (None, 1, 10, false, None);
    let mut profile = "release".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = || value.parse::<u64>().map_err(|_| format!("{flag} expects an integer"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = int()?,
            "--seconds" => {
                seconds = int()?.max(1);
                if seconds > MAX_SECONDS {
                    return Err(format!(
                        "--seconds {seconds} exceeds {MAX_SECONDS}: locapd measures request \
                         deadlines from daemon start, and the run must end within 180 s"
                    ));
                }
            }
            "--trace" => trace = int()? != 0,
            "--locapd" => locapd = Some(PathBuf::from(value)),
            "--profile" => profile = value,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        locapd: locapd.ok_or("--locapd is required")?,
        profile,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = match std::env::current_dir() {
        Ok(d) => d.join(".bench_work").join(format!(
            "{}-s{}-p{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        )),
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args, &work);
    std::fs::remove_dir_all(&work).ok();
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// One metric line of the report and the JSON.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0
            .push((name.to_string(), if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    let m = vec![
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::Str((*u).into())),
                    ];
                    (n.clone(), Json::Obj(m))
                })
                .collect(),
        )
    }
}

/// What the load phase against the daemon measured.
struct DaemonRun {
    setup_ns: Vec<f64>,
    argv: Vec<String>,
    window: load::Phase,
    delta: TelemetryState,
    registry_series: usize,
    cpu_ns: u64,
    cpu_ticks: u64,
    peak_rss_kb: u64,
    connect_ns: f64,
    ping_ns: f64,
    store_bytes: u64,
    next_idx: u64,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during the window.
    steal_share: f64,
    /// Responses outside the window (warm-up), checked like the rest.
    warmup: load::Phase,
}

fn machine_steal() -> Option<(u64, u64)> {
    stats::parse_proc_stat_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

fn drive_daemon(
    args: &Args,
    stream: &Stream,
    work: &Path,
    workers: usize,
) -> Result<DaemonRun, String> {
    let w = args.workload;
    let store = w.uses_store(args.trace);
    let io = |e: std::io::Error| e.to_string();
    let mut setup_ns = Vec::new();
    let extra_starts = if args.trace { 0 } else { SETUP_RUNS - 1 };
    for i in 0..extra_starts {
        let dirs = Dirs::create(&work.join(format!("setup-{i}")), store).map_err(io)?;
        let (d, setup) = Daemon::start(&args.locapd, &dirs, workers)?;
        setup_ns.push(setup.as_nanos() as f64);
        d.stop()?;
    }
    let dirs = Dirs::create(&work.join("run"), store).map_err(io)?;
    let (d, setup) = Daemon::start(&args.locapd, &dirs, workers)?;
    setup_ns.push(setup.as_nanos() as f64);

    let next = AtomicU64::new(0);
    let fresh = w.fresh_connections();
    let pid = d.pid();
    let counters = move || {
        let (steal, total) = machine_steal()?;
        Some((steal, total, daemon::process_cpu_ns(pid)?))
    };
    let warmup = load::run(d.addr, stream, fresh, workers, &next, WARMUP, &counters);
    let window_time = if args.trace {
        Duration::from_secs(args.seconds) / 2
    } else {
        Duration::from_secs(args.seconds)
    };
    let reg0 = d.registry()?;
    let cpu0 = (d.cpu_ns(), d.cpu_ticks());
    let window = load::run(d.addr, stream, fresh, workers, &next, window_time, &counters);
    let (Some(first), Some(last)) = (window.ticks.first(), window.ticks.last()) else {
        return Err("cannot read /proc/stat and the CPU clock of locapd".into());
    };
    let steal_share =
        ratio(last.steal.saturating_sub(first.steal), last.total.saturating_sub(first.total));
    let cpu1 = (d.cpu_ns(), d.cpu_ticks());
    let reg1 = d.registry()?;
    let peak_rss_kb = d.peak_rss_kb().ok_or("cannot read VmHWM of locapd")?;
    let (connect_ns, ping_ns) = if args.trace {
        (
            load::probe_ping_ns(d.addr, true, CONNECT_PROBES)?,
            load::probe_ping_ns(d.addr, false, PING_PROBES)?,
        )
    } else {
        (0.0, 0.0)
    };
    let argv = d.argv.clone();
    d.stop()?;
    let cpu = |a: Option<u64>, b: Option<u64>| b.zip(a).map(|(b, a)| b.saturating_sub(a));
    Ok(DaemonRun {
        setup_ns,
        argv,
        delta: reg1.delta_since(&reg0),
        registry_series: stats::series(&reg1),
        cpu_ns: cpu(cpu0.0, cpu1.0).ok_or("cannot read locapd CPU time")?,
        cpu_ticks: cpu(cpu0.1, cpu1.1).unwrap_or(0),
        peak_rss_kb,
        connect_ns,
        ping_ns,
        store_bytes: dirs.store.as_deref().map_or(0, dir_bytes),
        next_idx: next.into_inner(),
        steal_share,
        window,
        warmup,
    })
}

/// Counts of the checked responses of the measured window.
#[derive(Debug, Default)]
struct Outcome {
    ok: u64,
    errors: u64,
    transport: u64,
    wrong: u64,
    /// Wrong answers during warm-up: not attempts of the window, but
    /// they still mark the run wrong.
    wrong_in_warmup: u64,
    /// Per sample of the window: whether it was answered correctly.
    window_ok: Vec<bool>,
    first_problem: Option<String>,
}

fn check_all(
    args: &Args,
    stream: &Stream,
    run: &DaemonRun,
    checker: &mut check::Checker,
) -> Outcome {
    let mut o = Outcome::default();
    let store = args.workload.uses_store(args.trace);
    for (in_window, phase) in [(false, &run.warmup), (true, &run.window)] {
        for s in &phase.samples {
            let verdict = match &s.reply {
                Err(e) => Err((false, format!("request {}: {e}", s.idx))),
                Ok(line) if line.contains("\"ok\":false") => {
                    Err((false, format!("request {}: {line}", s.idx)))
                }
                Ok(line) => checker
                    .check(args.seed, s.idx, stream.get(s.idx), line, store)
                    .map_err(|e| (true, format!("request {}: {e}", s.idx))),
            };
            if in_window {
                o.window_ok.push(verdict.is_ok());
            }
            let (wrong, msg) = match verdict {
                Ok(()) => {
                    o.ok += u64::from(in_window);
                    continue;
                }
                Err(e) => e,
            };
            o.first_problem.get_or_insert(msg);
            match (in_window, wrong) {
                (false, true) => o.wrong_in_warmup += 1,
                (false, false) => {}
                (true, true) => o.wrong += 1,
                (true, false) if s.reply.is_err() => o.transport += 1,
                (true, false) => o.errors += 1,
            }
        }
    }
    o
}

fn run(args: &Args, work: &Path) -> Result<bool, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = nproc.min(2);
    let stream = Stream::new(w, args.seed);
    std::fs::create_dir_all(work).map_err(|e| e.to_string())?;

    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("  nproc {nproc}, {workers} closed-loop clients, locapd --workers {workers}, build profile {}", args.profile);
    println!("  parameters: {}", w.ranges());

    let run = drive_daemon(args, &stream, work, workers)?;
    println!(
        "  locapd: {} (cwd {}, environment cleared)",
        run.argv.join(" "),
        work.join("run").join("cwd").display()
    );

    let mut checker = check::Checker::default();
    let o = check_all(args, &stream, &run, &mut checker);
    let attempted = run.window.samples.len() as u64;
    let failed = o.errors + o.transport + o.wrong;
    let mut correct = o.wrong + o.wrong_in_warmup == 0;
    println!(
        "  checks: {attempted} attempted in the window, {} ok, {} error responses, {} transport failures or timeouts, {} wrong answers; {} recomputed in-process, {} store repeats byte-identical",
        o.ok, o.errors, o.transport, o.wrong, checker.recomputed, checker.identical_repeats
    );
    if let Some(p) = &o.first_problem {
        println!("  first problem: {p}");
    }

    let mut m = Metrics(Vec::new());
    let window_s = run.window.wall.as_secs_f64();
    // latencies and throughput count correct replies only: an error storm
    // must not read as a speed-up
    let ok_replies: Vec<(u64, f64)> = run
        .window
        .samples
        .iter()
        .zip(&o.window_ok)
        .filter(|(_, &ok)| ok)
        .map(|(s, _)| (s.done_ns, s.latency_ns as f64 / 1e6))
        .collect();
    if !args.trace {
        let n = stats::slice_count(ok_replies.len(), P99_MIN_SAMPLES, MAX_SLICES);
        let wall_ns = run.window.wall.as_nanos() as u64;
        let slices = stats::slices(&ok_replies, &run.window.ticks, wall_ns, n, &[50.0, 90.0, 99.0]);
        let calm = stats::calmest_quarter(&slices);
        let over_calm = |f: fn(&stats::Slice) -> f64| stats::median_over(&slices, &calm, f);
        m.put("setup_s", stats::median(&run.setup_ns) / 1e9, "s");
        m.put("throughput_rps", over_calm(|s| s.rate), "1/s");
        m.put("latency_p50_ms", over_calm(|s| s.latency[0]), "ms");
        m.put("latency_p90_ms", over_calm(|s| s.latency[1]), "ms");
        m.put("latency_p99_ms", over_calm(|s| s.latency[2]), "ms");
        m.put("daemon_cpu_ms_per_req", over_calm(|s| s.cpu_ms_per_reply), "ms");
        m.put("daemon_peak_rss_mb", run.peak_rss_kb as f64 / 1024.0, "MB");
        println!(
            "  machine: {:.1}% of all CPU time during the window was stolen by the hypervisor for other guests; every wall-clock figure slows with it",
            100.0 * run.steal_share
        );
        println!(
            "  slices (replies/s, stolen %; * = in the calmest quarter): {}",
            slices
                .iter()
                .enumerate()
                .map(|(i, s)| format!(
                    "{:.0}/{:.1}{}",
                    s.rate,
                    100.0 * s.steal,
                    if calm.contains(&i) { "*" } else { "" }
                ))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let per_slice = ok_replies.len() / n;
        let resolved = stats::highest_resolved_percentile(per_slice);
        println!(
            "  throughput, latency and daemon CPU: medians over the {} calmest of {n} time slices of the {window_s:.3} s window, of {} correct replies ({} overall {:.3} 1/s); highest percentile with >= 10 samples beyond it in a slice of {per_slice}: {}{}",
            calm.len(),
            ok_replies.len(),
            o.ok,
            o.ok as f64 / window_s,
            resolved.map_or("none".to_string(), |p| format!("p{p}")),
            if per_slice < P99_MIN_SAMPLES { " (p99 below is NOT resolved)" } else { "" }
        );
        println!(
            "  failed_share {:.6} share ({failed} of {attempted}); setup samples (ms) {:.3?}; daemon CPU {:.1} ms ({} ticks from /proc)",
            ratio(failed, attempted),
            run.setup_ns.iter().map(|ns| ns / 1e6).collect::<Vec<_>>(),
            run.cpu_ns as f64 / 1e6,
            run.cpu_ticks
        );
    } else {
        correct &= layer_metrics(args, &stream, &run, &o.window_ok, work, &mut m)?;
    }

    for (name, value, unit) in &m.0 {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), m.to_json()),
    ]);
    println!("{doc}");
    Ok(correct)
}

/// The per-layer metrics: daemon phases and counters over the window,
/// probes, and the traced in-process replay. Returns false when the
/// traced replay's results or counters differ from the untraced ones, or
/// when the daemon's fresh store saw a failed write or a corrupt entry.
fn layer_metrics(
    args: &Args,
    stream: &Stream,
    run: &DaemonRun,
    window_ok: &[bool],
    work: &Path,
    m: &mut Metrics,
) -> Result<bool, String> {
    let d = &run.delta;
    let w = args.workload;
    m.put("serve.connect_ms", run.connect_ns / 1e6, "ms");
    m.put("serve.ping_us", run.ping_ns / 1e3, "us");
    let mut phase_sum = 0.0;
    for (phase, name) in [
        ("queue_wait", "serve.queue_wait_ms"),
        ("parse", "serve.parse_ms"),
        ("run", "serve.run_ms"),
        ("serialize", "serve.serialize_ms"),
    ] {
        let (_, mean) = phase_mean_ms(d, phase);
        phase_sum += mean;
        m.put(name, mean, "ms/req");
    }
    let pipeline_lat: Vec<f64> = run
        .window
        .samples
        .iter()
        .zip(window_ok)
        .filter(|(s, &ok)| ok && stream.get(s.idx).is_some())
        .map(|(s, _)| s.latency_ns as f64 / 1e6)
        .collect();
    let client_mean = pipeline_lat.iter().sum::<f64>() / pipeline_lat.len().max(1) as f64;
    m.put("serve.unattributed_ms", client_mean - phase_sum, "ms/req");
    println!(
        "  serve phases over {} pipeline requests ({} requests incl. pings, client mean {:.4} ms of {} correct replies)",
        phase_mean_ms(d, "run").0,
        window_ok.len(),
        client_mean,
        pipeline_lat.len()
    );

    // the traced replay, from a fresh working directory like the daemon's
    let cwd = work.join("replay").join("cwd");
    std::fs::create_dir_all(&cwd).map_err(|e| e.to_string())?;
    let back = std::env::current_dir().map_err(|e| e.to_string())?;
    std::env::set_current_dir(&cwd).map_err(|e| e.to_string())?;
    let pass = Duration::from_secs(args.seconds) / 4;
    let rep = replay::replay(stream, w.uses_store(true), run.next_idx, pass, &work.join("replay"));
    std::env::set_current_dir(back).map_err(|e| e.to_string())?;
    let rep = rep?;
    let n = rep.requests.max(1) as f64;
    let per_req = |layer: &str, scale: f64| {
        rep.layers.get(layer).map_or(0.0, |l| l.self_ns as f64 / n / scale)
    };
    for (layer, metric, scale, unit) in [
        ("protocol.parse_request", "protocol.parse_request_us", 1e3, "us/req"),
        ("core.request_parse", "core.request_parse_us", 1e3, "us/req"),
        ("protocol.encode_response", "protocol.encode_response_us", 1e3, "us/req"),
        ("provenance.write_artifact", "provenance.write_artifact_us", 1e3, "us/req"),
        ("obs.snapshot", "obs.snapshot_us", 1e3, "us/req"),
        ("store.get", "store.get_us", 1e3, "us/req"),
        ("store.put", "store.put_us", 1e3, "us/req"),
        ("core.homogeneous", "core.homogeneous_ms", 1e6, "ms/req"),
        ("core.hom_lift", "core.hom_lift_ms", 1e6, "ms/req"),
        ("core.oi_to_po", "core.oi_to_po_ms", 1e6, "ms/req"),
        ("core.transfer", "core.transfer_ms", 1e6, "ms/req"),
        ("core.ramsey", "core.ramsey_ms", 1e6, "ms/req"),
        ("core.eds_lower", "core.eds_lower_ms", 1e6, "ms/req"),
        ("models.run_vertex", "models.run_vertex_ms", 1e6, "ms/req"),
        ("problems.opt_value", "problems.opt_value_ms", 1e6, "ms/req"),
        ("problems.feasible", "problems.feasible_us", 1e3, "us/req"),
        ("lifts.census", "lifts.census_ms", 1e6, "ms/req"),
        ("graph.build", "graph.build_ms", 1e6, "ms/req"),
    ] {
        m.put(metric, per_req(layer, scale), unit);
    }
    let core_run = rep.layers.get("core.run").copied().unwrap_or_default();
    m.put("core.run_ms", core_run.total_ns as f64 / n / 1e6, "ms/req");
    m.put("core.unattributed_share", ratio(core_run.self_ns, core_run.total_ns), "share");
    let unattributed = rep.unattributed_ns() as f64;
    m.put("trace.unattributed_ms", unattributed / n / 1e6, "ms/req");
    m.put("trace.wall_ms", rep.traced.as_nanos() as f64 / n / 1e6, "ms/req");
    m.put("trace.untraced_wall_ms", rep.untraced.as_nanos() as f64 / n / 1e6, "ms/req");
    let untraced = rep.untraced.as_nanos() as f64;
    let overhead = (rep.traced.as_nanos() as f64 - untraced) / untraced.max(1.0);
    m.put("trace.overhead_share", overhead, "share");
    m.put("trace.requests", rep.requests as f64, "count");

    let self_sum: u64 = rep.layers.values().map(|l| l.self_ns).sum();
    println!("  traced replay: {} requests, wall {:.3} ms = layer self times {:.3} ms + unattributed {:.3} ms; untraced {:.3} ms",
        rep.requests,
        rep.traced.as_nanos() as f64 / 1e6,
        self_sum as f64 / 1e6,
        unattributed / 1e6,
        untraced / 1e6);
    for (layer, t) in &rep.layers {
        println!(
            "    {layer:<28} calls {:>8}  self {:>12.3} ms ({:>5.1}%)  inclusive {:>12.3} ms",
            t.calls,
            t.self_ns as f64 / 1e6,
            100.0 * ratio(t.self_ns, rep.traced.as_nanos() as u64),
            t.total_ns as f64 / 1e6
        );
    }
    for mismatch in rep.mismatches.iter().take(3) {
        println!("  replay mismatch: {mismatch}");
    }
    if overhead < DRIFT_OVERHEAD_SHARE {
        let warning = format!(
            "WARNING: the traced replay ran {:.0}% faster than the untraced one; the layer calls \
             in perfbench/src/replay.rs may no longer do the work of the code they mirror \
             (crates/core/src/request.rs), so the per-layer figures may describe old code",
            -100.0 * overhead
        );
        println!("  {warning}");
        eprintln!("perfbench: {warning}");
    }

    // counters from the daemon's registry delta over the window, each
    // ratio with its base
    let tree_hits = counter(d, "view_cache/tree_hits");
    let tree_lookups = tree_hits + counter(d, "view_cache/tree_misses");
    let intern_miss = counter(d, "intern/misses");
    let intern_lookups = intern_miss + counter(d, "intern/hits");
    let engine_vertices = counter_sum(d, "engine/", "/vertices");
    let warm = counter(d, "store/warm_hit");
    let store_lookups = warm + counter(d, "store/cold_miss");
    for (name, value, unit) in [
        ("lifts.view_cache_states", counter(d, "view_cache/states") as f64, "count"),
        ("lifts.tree_lookups", tree_lookups as f64, "count"),
        ("lifts.tree_hit_ratio", ratio(tree_hits, tree_lookups), "share"),
        ("graph.intern_lookups", intern_lookups as f64, "count"),
        ("graph.intern_miss_ratio", ratio(intern_miss, intern_lookups), "share"),
        ("models.engine_vertices", engine_vertices as f64, "count"),
        ("models.engine_evals", counter_sum(d, "engine/", "/evals") as f64, "count"),
        (
            "models.engine_hit_ratio",
            ratio(counter_sum(d, "engine/", "/hits"), engine_vertices),
            "share",
        ),
        ("store.lookups", store_lookups as f64, "count"),
        ("store.warm_hit_ratio", ratio(warm, store_lookups), "share"),
        ("store.writes", counter(d, "store/write") as f64, "count"),
        ("store.disk_bytes", run.store_bytes as f64, "bytes"),
        ("provenance.artifacts", counter(d, "serve/provenance_sidecars") as f64, "count"),
        ("obs.registry_series", run.registry_series as f64, "count"),
        ("workload.fresh_conn_share", if w.fresh_connections() { 1.0 } else { 0.0 }, "share"),
        ("workload.repeat_share", repeat_share(stream, &run.window), "share"),
    ] {
        m.put(name, value, unit);
    }
    println!(
        "  interner counts are published by per_vertex_keys, which double-counts on multi-core machines; they are counts only and support no speed-up claim"
    );
    // a fresh store on a healthy disk never fails a write or reads a
    // corrupt entry: these are checks, not metrics
    let (write_failed, corrupt) = (counter(d, "store/write_failed"), counter(d, "store/corrupt"));
    println!(
        "  store checks: {write_failed} failed writes, {corrupt} corrupt entries (both must be 0)"
    );
    Ok(rep.mismatches.is_empty() && write_failed == 0 && corrupt == 0)
}

/// Share of the window's requests whose exact request appeared earlier
/// in the stream (warm-up included).
fn repeat_share(stream: &Stream, window: &load::Phase) -> f64 {
    let Some(last) = window.samples.last() else { return 0.0 };
    let first = window.samples.first().map_or(0, |s| s.idx);
    let mut seen = HashSet::new();
    let mut repeats = 0u64;
    for idx in 0..=last.idx {
        let new = seen.insert(key(stream.get(idx)));
        if idx >= first && !new {
            repeats += 1;
        }
    }
    ratio(repeats, last.idx - first + 1)
}
