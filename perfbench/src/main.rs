//! `perfbench` — the repository benchmark: a single-process load
//! generator that keeps agents in flight through two real `taxd`
//! daemons (`alpha`, `beta`) and an in-process home listener.
//!
//! ```text
//! perfbench --workload relay|durable-door|webbot-tour --seed N --seconds S \
//!           --trace 0|1 --taxd PATH [--repo DIR] [--out DIR]
//! ```
//!
//! A *pass* starts the system several times; each of its last starts
//! runs one closed-loop window of about [`WINDOW_SECONDS`] on freshly
//! spawned daemons, and the windows are pooled. Short windows on fresh
//! daemons keep one slow stretch of a shared machine from setting a
//! whole run's figures, and let a run grow longer without the daemons
//! growing older, while each window still shows their cost growing
//! with uptime.
//!
//! With `--trace 0` one pass of `--seconds` (with at least [`SETUPS`]
//! starts, for the median set-up time) gives the end-to-end metrics.
//! With `--trace 1` an untraced and a traced pass of `--seconds / 2`
//! each run back to back; the traced pass's first agents are
//! then replayed through each layer in-process, the spans are written
//! as JSON lines under `--out`, and the per-layer metrics are printed.
//! A completed run ends its standard output with the JSON result line
//! and exits 0 only if every agent came home exactly once and correct;
//! a run that cannot complete (a daemon dies, a build is stale) prints
//! no result and exits 2.
//! Normally run through `perfbench/run.py`, which builds `taxd` first.

mod daemon;
mod live;
mod replay;
mod report;
mod trace;
mod workload;

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use daemon::{Cluster, RunDir};
use live::{run_window, Window};
use report::{median, metric, quantile, ratio, result_line, stats_counters, tail, Metric};
use trace::Tracer;
use workload::{AgentGen, Workload};

/// Least number of set-ups per untraced run; the median is reported.
const SETUPS: u64 = 7;

/// Target length of one timed window; a pass of S seconds runs
/// `round(S / WINDOW_SECONDS)` windows (at least one) of equal length.
const WINDOW_SECONDS: f64 = 3.0;

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    taxd: PathBuf,
    repo: PathBuf,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut taxd = None;
    let mut repo = PathBuf::from(".");
    let mut out = PathBuf::from(".bench_run");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed wants a whole number")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds wants a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds wants a number in (0, 60]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".to_owned()),
                });
            }
            "--taxd" => taxd = Some(PathBuf::from(value)),
            "--repo" => repo = PathBuf::from(value),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        taxd: taxd.ok_or("--taxd is required")?,
        repo,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|opts| run(&opts)) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness check failed (see failed count above)");
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; returns whether every check passed and the
/// result line.
fn run(opts: &Options) -> Result<(bool, String), String> {
    daemon::check_taxd(&opts.taxd, &opts.repo)?;
    fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let (correct, attempted, failed, metrics) = if opts.trace {
        traced(opts)?
    } else {
        untraced(opts)?
    };
    for m in &metrics {
        println!("{:<32} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    Ok((correct, result_line(correct, attempted, failed, &metrics)))
}

/// A fresh per-set-up directory under `--out`.
fn setup_dir(opts: &Options, tag: &str) -> PathBuf {
    opts.out.join(format!(
        "{}-{}-{tag}",
        opts.workload.name(),
        std::process::id()
    ))
}

/// Brings the system up once; returns it with its set-up time.
///
/// `alpha`'s port is reserved by a `:0` binding that is released just
/// before `alpha` binds it, so another socket can take it in between;
/// such a set-up is retried with a fresh port and is not timed.
fn start(opts: &Options, tag: &str, warmup_stream: u64) -> Result<(Cluster, f64), String> {
    let warmup = AgentGen::new(opts.workload, opts.seed, warmup_stream).next_agent();
    let mut attempts = 0;
    loop {
        let t0 = Instant::now();
        match Cluster::start(&opts.taxd, opts.workload, setup_dir(opts, tag), &warmup) {
            Ok(cluster) => return Ok((cluster, t0.elapsed().as_secs_f64())),
            Err(e) if e.contains("Address already in use") && attempts < 3 => attempts += 1,
            Err(e) => return Err(e),
        }
    }
}

/// The timed windows of one pass, each on freshly started daemons,
/// pooled.
#[derive(Default)]
struct Pass {
    windows: Vec<Window>,
    /// Set-up time of every start in the pass, seconds.
    setups: Vec<f64>,
    /// The daemons' stats replies, read before each window's daemons
    /// stop (traced passes only).
    replies: Vec<String>,
    /// The most events one `alpha` logged (traced passes only).
    events: u64,
}

impl Pass {
    fn hops(&self) -> u64 {
        self.windows.iter().map(|w| w.hops).sum()
    }

    fn seconds(&self) -> f64 {
        self.windows.iter().map(|w| w.seconds).sum()
    }

    fn attempted(&self) -> u64 {
        self.windows.iter().map(|w| w.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.windows.iter().map(|w| w.failures.len() as u64).sum()
    }

    fn itinerary_ms(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.itinerary_ms.iter().copied())
            .collect()
    }
}

/// Runs windows adding up to `seconds`, each on a fresh start; starts
/// the system at least `min_starts` times in all, the extra starts
/// first.
fn pass(
    opts: &Options,
    tag: &str,
    seconds: f64,
    min_starts: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let windows = (seconds / WINDOW_SECONDS).round().max(1.0) as u64;
    let extra_setups = min_starts.saturating_sub(windows);
    let mut pass = Pass::default();
    for i in 0..extra_setups + windows {
        let (mut cluster, setup_s) = start(opts, &format!("{tag}{i}"), 100 + i)?;
        pass.setups.push(setup_s);
        let Some(w) = i.checked_sub(extra_setups) else {
            continue;
        };
        let mut gen = AgentGen::new(opts.workload, opts.seed, w);
        let win = run_window(
            &mut cluster,
            opts.workload,
            &mut gen,
            seconds / windows as f64,
            tracer.as_deref_mut(),
        )?;
        if tracer.is_some() {
            pass.replies.push(cluster.alpha.query_stats()?);
            pass.replies.push(cluster.beta.query_stats()?);
            pass.events = pass.events.max(cluster.alpha.events());
        }
        pass.windows.push(win);
    }
    Ok(pass)
}

type Outcome = (bool, u64, u64, Vec<Metric>);

/// The end-to-end run: several set-ups, the last of which host the
/// timed windows.
fn untraced(opts: &Options) -> Result<Outcome, String> {
    let run = pass(opts, "setup", opts.seconds, SETUPS, None)?;
    let itinerary_ms = run.itinerary_ms();
    let (attempted, failed) = (run.attempted(), run.failed());
    let n = itinerary_ms.len();
    let (p, tail_ms) = tail(&itinerary_ms);
    let rss_mb: Vec<f64> = run
        .windows
        .iter()
        .map(|w| w.peak_rss_kb as f64 / 1024.0)
        .collect();
    let metrics = vec![
        metric(
            "hops_per_s",
            run.hops() as f64 / run.seconds(),
            "1/s",
            format!("{} hops in {} s", run.hops(), run.seconds()),
        ),
        metric(
            "itinerary_p50_ms",
            median(&itinerary_ms),
            "ms",
            format!("p50 of {n} itineraries"),
        ),
        metric(
            "itinerary_p99_ms",
            tail_ms,
            "ms",
            format!("p{p} of {n} itineraries (highest with >= 10 beyond)"),
        ),
        metric(
            "completed_frac",
            ratio((attempted - failed) as f64, attempted as f64),
            "frac",
            format!("{failed} of {attempted} agents failed"),
        ),
        metric(
            "setup_s",
            median(&run.setups),
            "s",
            format!(
                "median of {} set-ups: {}",
                run.setups.len(),
                join(&run.setups)
            ),
        ),
        metric(
            "daemon_rss_mb",
            median(&rss_mb),
            "MB",
            format!(
                "VmHWM of both daemons summed, median of windows: {}",
                join(&rss_mb)
            ),
        ),
    ];
    Ok((failed == 0, attempted, failed, metrics))
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The per-layer run: an untraced and a traced pass on fresh daemons,
/// then the replay.
fn traced(opts: &Options) -> Result<Outcome, String> {
    let workload = opts.workload;
    let base = pass(opts, "base", opts.seconds / 2.0, 0, None)?;
    let mut tracer = Tracer::default();
    let run = pass(opts, "traced", opts.seconds / 2.0, 0, Some(&mut tracer))?;
    let events = run.events;

    let replay_dir = RunDir::create(setup_dir(opts, "replay"))?;
    let replayed = replay::replay(
        workload,
        &run.windows[0].agents,
        &replay_dir,
        events,
        &mut tracer,
    )?;
    drop(replay_dir);
    let trace_file = opts
        .out
        .join(format!("trace-{}-{}.jsonl", workload.name(), opts.seed));
    fs::write(&trace_file, tracer.to_json_lines())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let mut metrics = Vec::new();
    metrics.extend(taxd_metrics(&run.windows));
    let stats = stats_counters(run.replies.iter().map(String::as_str));
    let get = |key: &str| stats.get(key).copied().unwrap_or(0.0);
    // Hops the daemons handled over their lifetimes: each window's
    // warm-up agent and every agent of the window.
    let daemon_hops = ((run.attempted() + run.windows.len() as u64)
        * workload.hops_per_itinerary() as u64) as f64;
    let acks = tracer.durations("transport.send_payload");
    let (p, ack_tail) = tail(&acks);
    metrics.extend([
        metric(
            "transport.door_ack_us.p50",
            median(&acks),
            "us",
            format!("p50 of {} injects", acks.len()),
        ),
        metric(
            "transport.door_ack_us.p99",
            ack_tail,
            "us",
            format!("p{p} of {} injects (highest with >= 10 beyond)", acks.len()),
        ),
        metric(
            "transport.frames_per_ack",
            ratio(get("tx-frames"), get("acks")),
            "ratio",
            format!("{} frames / {} acks", get("tx-frames"), get("acks")),
        ),
        metric(
            "transport.retransmits_per_hop",
            ratio(get("retransmits"), daemon_hops),
            "count/hop",
            format!("{} retransmits / {daemon_hops} hops", get("retransmits")),
        ),
        metric(
            "transport.reconnects",
            get("reconnects"),
            "count",
            "both daemons",
        ),
        metric(
            "transport.q_high",
            get("q-high"),
            "count",
            "both daemons, summed",
        ),
    ]);

    let admissions = get("cache-hits") + get("cache-misses");
    metrics.extend([
        span_metric(
            &tracer,
            "firewall.route_inbound_us",
            "firewall.route_inbound",
        ),
        metric(
            "firewall.admission_hit_ratio",
            ratio(get("cache-hits"), admissions),
            "ratio",
            if admissions > 0.0 {
                format!("{} hits of {admissions} admissions", get("cache-hits"))
            } else {
                "0 admissions analyzed: the default admission policy skips source agents".to_owned()
            },
        ),
        metric(
            "firewall.parked_per_hop",
            ratio(get("queued"), daemon_hops),
            "count/hop",
            format!("{} parked / {daemon_hops} hops", get("queued")),
        ),
        span_metric(&tracer, "briefcase.decode_us", "briefcase.decode"),
        span_metric(&tracer, "briefcase.reencode_us", "briefcase.reencode"),
        metric(
            "briefcase.wire_bytes",
            median(&replayed.wire_bytes),
            "bytes",
            format!("median of {} replayed frames", replayed.wire_bytes.len()),
        ),
        span_metric(&tracer, "security.hop_key_us", "security.hop_key"),
        span_metric(
            &tracer,
            "taxscript.analyze_miss_us",
            "taxscript.analyze_miss",
        ),
        span_metric(&tracer, "taxscript.analyze_hit_us", "taxscript.analyze_hit"),
        metric(
            "taxscript.analysis_hit_ratio",
            ratio(
                replayed.analysis_hits as f64,
                replayed.analysis_lookups as f64,
            ),
            "ratio",
            format!(
                "{} hits of {} launch-time lookups, per-host caches in the replay",
                replayed.analysis_hits, replayed.analysis_lookups
            ),
        ),
        span_metric(&tracer, "taxscript.run_us", "taxscript.run"),
        metric(
            "taxscript.fuel_per_hop",
            median(&replayed.fuel),
            "count",
            format!("instructions, median of {} stops", replayed.fuel.len()),
        ),
    ]);

    let progs = get("prog-hits") + get("prog-misses");
    let pools = get("pool-hits") + get("pool-misses");
    metrics.extend([
        metric(
            "vm.prog_hit_ratio",
            ratio(get("prog-hits"), progs),
            "ratio",
            format!("{} hits of {progs} program lookups", get("prog-hits")),
        ),
        metric(
            "vm.pool_hit_ratio",
            ratio(get("pool-hits"), pools),
            "ratio",
            format!("{} hits of {pools} VM checkouts", get("pool-hits")),
        ),
        span_metric(&tracer, "journal.door_us", "journal.door"),
        span_metric(&tracer, "journal.hop_begin_us", "journal.hop_begin"),
        span_metric(&tracer, "journal.hop_commit_us", "journal.hop_commit"),
        metric(
            "journal.fsyncs_per_hop",
            ratio(get("journal.fsyncs"), daemon_hops),
            "count/hop",
            format!("{} fsyncs / {daemon_hops} hops", get("journal.fsyncs")),
        ),
        metric(
            "journal.bytes_per_hop",
            ratio(get("journal.bytes"), daemon_hops),
            "bytes/hop",
            format!("{} bytes / {daemon_hops} hops", get("journal.bytes")),
        ),
        span_metric(&tracer, "core.hop_inproc_us", "core.hop_inproc"),
    ]);
    let mut snapshot = span_metric(&tracer, "core.events_snapshot_us", "core.events_snapshot");
    snapshot.note = format!(
        "{}; log of {} events (daemon logged {events})",
        snapshot.note, replayed.events_reached
    );
    metrics.push(snapshot);

    // Per-hop latency against the replayed layers' self time per hop.
    let hop_latency_us = median(&run.itinerary_ms()) * 1e3 / workload.hops_per_itinerary() as f64;
    let selfs = tracer.self_times();
    let spans = tracer.spans();
    let mut per_hop: Vec<f64> = Vec::new();
    let mut hop_of = std::collections::HashMap::new();
    for (id, span) in spans.iter().enumerate() {
        if span.name == "hop" {
            hop_of.insert(id, per_hop.len());
            per_hop.push(0.0);
        }
    }
    for (span, self_us) in spans.iter().zip(&selfs) {
        if let Some(slot) = span.parent.and_then(|p| hop_of.get(&p)) {
            per_hop[*slot] += self_us;
        }
    }
    let layer_us = median(&per_hop);
    metrics.extend([
        metric(
            "hop.latency_us",
            hop_latency_us,
            "us",
            format!(
                "itinerary p50 / {} hops",
                workload.hops_per_itinerary()
            ),
        ),
        metric(
            "hop.unattributed_frac",
            1.0 - ratio(layer_us, hop_latency_us),
            "frac",
            format!(
                "1 - {layer_us:.1} us replayed layer self time per hop (median of {}) / hop latency",
                per_hop.len()
            ),
        ),
        metric(
            "trace.overhead_frac",
            ratio(run.hops() as f64, base.hops() as f64) - 1.0,
            "frac",
            format!("traced {} / untraced {} hops", run.hops(), base.hops()),
        ),
    ]);

    let mut failed = base.failed() + run.failed();
    if let Some(why) = &replayed.mismatch {
        eprintln!("perfbench: {why}");
        failed += 1;
    }
    let attempted = base.attempted() + run.attempted();
    Ok((failed == 0, attempted, failed, metrics))
}

/// The `taxd` metrics from the windows' `/proc` samples, quarter by
/// quarter summed across windows.
fn taxd_metrics(windows: &[Window]) -> Vec<Metric> {
    let tick_s = 1.0 / clock_ticks_per_second();
    // (CPU seconds, hops) per quarter.
    let mut quarters = [(0.0, 0u64); 4];
    for win in windows {
        for (q, pair) in win.samples.windows(2).enumerate().take(4) {
            quarters[q].0 += (pair[1].cpu_ticks - pair[0].cpu_ticks) as f64 * tick_s;
            quarters[q].1 += pair[1].hops - pair[0].hops;
        }
    }
    let us_per_hop = |(cpu, hops): (f64, u64)| ratio(cpu * 1e6, hops as f64);
    let cpu_s: f64 = quarters.iter().map(|q| q.0).sum();
    let hops: u64 = quarters.iter().map(|q| q.1).sum();
    let (q1, q4) = (us_per_hop(quarters[0]), us_per_hop(quarters[3]));
    let wall: f64 = windows.iter().map(|w| w.seconds).sum();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vec![
        metric(
            "taxd.cpu_us_per_hop",
            us_per_hop((cpu_s, hops)),
            "us",
            format!("{cpu_s:.2} CPU s / {hops} hops, both daemons"),
        ),
        metric(
            "taxd.cpu_growth",
            ratio(q4, q1),
            "ratio",
            format!("last quarter {q4:.1} us/hop / first quarter {q1:.1} us/hop"),
        ),
        metric(
            "taxd.busy_frac",
            ratio(cpu_s, wall * cores as f64),
            "frac",
            format!("{cpu_s:.2} CPU s / ({wall} s x {cores} cores)"),
        ),
    ]
}

/// The median duration of the spans named `span`.
fn span_metric(tracer: &Tracer, name: &'static str, span: &str) -> Metric {
    let d = tracer.durations(span);
    metric(
        name,
        median(&d),
        "us",
        format!("median of {} calls (p90 {:.1})", d.len(), quantile(&d, 0.9)),
    )
}

/// The kernel's clock tick (`getconf CLK_TCK`), 100 if unknown.
fn clock_ticks_per_second() -> f64 {
    std::process::Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100.0)
}
