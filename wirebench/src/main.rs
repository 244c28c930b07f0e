//! `wirebench` — the end-to-end benchmark of the `bh-net` front door.
//!
//! ```text
//! wirebench --workload <wire_hot|compile_churn|bulk_kernels> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over several server
//! child processes at builder defaults: each is set up (timed), then
//! runs its share of alternating closed-loop (saturation) and open-loop
//! (fixed offered rate) windows.
//! `--trace 1` measures the per-layer metrics: an untraced and a traced
//! closed-loop phase, then an in-process replay of the same seeded
//! stream through each layer's public calls. Every response is checked
//! against values computed independently of the system under test.
//!
//! Report lines go to stdout; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Spans and the full
//! report are written under `out/` beside this package. NOTES.md gives
//! the reasoning behind each workload and the layer → end-to-end
//! predictions.

mod replay;
mod stats;
mod wire;
mod workload;

use replay::{family_counts, replay, replay_requests, Replay};
use stats::{mean, median, quantile};
use std::fmt::Write as _;
use std::io;
use std::time::{Duration, Instant};
use wire::{Lane, LaneResult, Mode, ServerProc, ServerStats, Source, SERVE_ARG};
use workload::{Kind, Workload};

/// Client connections, one thread each.
const LANES: u64 = 2;

/// Server processes per `--trace 0` run. `setup_s` is the median of
/// their set-up times; `server_peak_rss_mb` is the highest of their
/// peaks, since a peak moves in whole 8 MiB arrays on `bulk_kernels`
/// and a median or mean of such levels flips from run to run.
const SERVERS: usize = 8;

/// Shortest closed- or open-loop window in a `--trace 0` run; windows
/// are stretched until each open-loop window expects this many
/// responses, so its percentiles rest on enough samples. Short windows
/// let the summaries over windows step over the host's multi-millisecond
/// stalls: a stall spoils the windows it lands in, not the run.
const WINDOW_S: f64 = 0.25;
const WINDOW_SAMPLES: f64 = 50.0;

/// The open-loop latency percentiles summarise the windows' own
/// percentiles. Where a window holds many sub-millisecond requests
/// (at least `QUIET_SAMPLES`), a host stall of 10–20 ms decides its
/// p90, and on a shared 2-vCPU host such stalls can spoil most windows
/// of a run for seconds at a time (up to three in four were measured):
/// there the summary is the lower quartile over windows, which reads
/// the windows the stalls missed, while a slowdown of the server itself
/// still raises every window. Windows of a few dozen multi-millisecond
/// requests shrug off such stalls but have noisy percentiles of their
/// own: there the summary is the median. The pooled percentiles are
/// printed beside it.
const QUIET_SAMPLES: f64 = 500.0;

/// Fixed load per workload: the closed-loop in-flight window of each
/// connection, and the open-loop offered rate over both connections.
/// The rates were set once, a little under half the closed-loop
/// `throughput_rps` measured on the commit that introduced this
/// benchmark (2 vCPUs; NOTES.md gives the figures and why not exactly
/// half), and are never re-derived per run.
#[derive(Debug, Clone, Copy)]
struct Load {
    window: usize,
    rate_rps: f64,
}

fn load(kind: Kind) -> Load {
    match kind {
        Kind::WireHot => Load {
            window: 8,
            rate_rps: 8000.0,
        },
        Kind::CompileChurn => Load {
            window: 8,
            rate_rps: 6000.0,
        },
        Kind::BulkKernels => Load {
            window: 2,
            rate_rps: 20.0,
        },
    }
}

const USAGE: &str =
    "usage: wirebench --workload <wire_hot|compile_churn|bulk_kernels> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(SERVE_ARG) {
        wire::serve_child();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wirebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("provenance {}", report.provenance);
            print!("{}", report.text);
            if let Err(e) = report.save(&args) {
                eprintln!("wirebench: could not write the report: {e}");
            }
            println!("{}", report.result_json());
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(1);
        }
    }
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

#[derive(Default)]
struct Report {
    /// Human-readable lines printed before the result.
    text: String,
    provenance: String,
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<Metric>,
    spans_csv: String,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    fn tally(&mut self, what: &str, r: &LaneResult) {
        self.attempted += r.attempted;
        self.failed += r.failed();
        if r.wrong > 0 {
            self.correct = false;
        }
        self.line(format!(
            "{what}: attempted {} completed {} errors {} wrong {} missing {}{}",
            r.attempted,
            r.completed,
            r.errors,
            r.wrong,
            r.missing,
            if r.error_codes.is_empty() {
                String::new()
            } else {
                format!(" codes {:?}", r.error_codes)
            }
        ));
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }

    fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// Write the full report (and the traced run's spans) under `out/`.
    fn save(&self, args: &Args) -> io::Result<()> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let stem = format!(
            "{}-seed{}-trace{}",
            args.kind.name(),
            args.seed,
            u8::from(args.trace)
        );
        std::fs::write(
            dir.join(format!("{stem}.json")),
            format!(
                "{{\"provenance\": {}, \"result\": {}, \"log\": {}}}\n",
                self.provenance,
                self.result_json(),
                json_string(&self.text)
            ),
        )?;
        if !self.spans_csv.is_empty() {
            std::fs::write(dir.join(format!("{stem}-spans.csv")), &self.spans_csv)?;
        }
        Ok(())
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit id when run from a git work tree, read from `.git`
/// directly (no process, nothing outside the checkout).
fn commit_id() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l[..l.find(' ').unwrap_or(0)].to_owned())
                    })
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        id.to_owned()
    }
}

fn provenance(args: &Args, server_config: &str) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let l = load(args.kind);
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpus\": {cpus}, \
         \"rustc\": {}, \"commit\": {}, \"server\": {}, \"client\": {}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace,
        json_string(env!("WIREBENCH_RUSTC")),
        json_string(&commit_id()),
        json_string(server_config),
        json_string(&format!(
            "connections={LANES} threads={LANES} window_per_connection={} open_rate_rps={} \
             open_inflight_cap_per_connection={} servers={SERVERS}",
            l.window,
            l.rate_rps,
            wire::OPEN_INFLIGHT_CAP
        )),
    )
}

/// Run one phase on every lane at once, each lane on its own thread.
fn phase<'w>(
    w: &'w Workload,
    lanes: &mut [Lane],
    sources: Vec<Source<'w>>,
    mode: impl Fn(u64) -> Mode + Sync,
    duration: Option<Duration>,
    trace: bool,
) -> LaneResult {
    let start = Instant::now();
    let until = duration.map(|d| start + d);
    let mut total = LaneResult::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(sources)
            .map(|(lane, source)| {
                let mode = mode(lane.index);
                s.spawn(move || {
                    wire::tighten_timer_slack();
                    lane.run(w, source, mode, start, until, trace)
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("lane thread"));
        }
    });
    total.started = Some(start);
    total
}

/// Completed requests per second, from the phase start to the last
/// completion inside the phase (so the rate is not quantised by the
/// count of requests).
fn throughput(r: &LaneResult) -> f64 {
    match (r.started, r.last_in_time) {
        (Some(start), Some(last)) if last > start => {
            r.completed_in_time as f64 / last.duration_since(start).as_secs_f64()
        }
        _ => 0.0,
    }
}

/// Stream sources for one phase: lanes `base..base + LANES`.
fn streams(w: &Workload, base: u64) -> Vec<Source<'_>> {
    (0..LANES)
        .map(|lane| Source::Stream(w.stream(base + lane)))
        .collect()
}

/// Spawn a server, connect, and send the warm-up; time it all.
fn setup(w: &Workload) -> io::Result<(ServerProc, Vec<Lane>, LaneResult, f64)> {
    let t = Instant::now();
    let server = ServerProc::spawn()?;
    let mut lanes = (0..LANES)
        .map(|i| Lane::connect(server.addr, i))
        .collect::<io::Result<Vec<_>>>()?;
    let sources = (0..LANES)
        .map(|lane| {
            let mine: Vec<_> = w
                .warmup
                .iter()
                .skip(lane as usize)
                .step_by(LANES as usize)
                .copied()
                .collect();
            Source::List(mine.into_iter())
        })
        .collect();
    let window = load(w.kind).window;
    let warm = phase(
        w,
        &mut lanes,
        sources,
        |_| Mode::Closed { window },
        None,
        false,
    );
    Ok((server, lanes, warm, t.elapsed().as_secs_f64()))
}

fn stat(s: &ServerStats, key: &str) -> f64 {
    s.get(key).copied().unwrap_or(0.0)
}

fn run(args: &Args) -> io::Result<Report> {
    let w = Workload::build(args.kind, args.seed);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    if args.trace {
        traced(args, &w, &mut report)?;
    } else {
        end_to_end(args, &w, &mut report)?;
    }
    Ok(report)
}

fn end_to_end(args: &Args, w: &Workload, report: &mut Report) -> io::Result<()> {
    let l = load(w.kind);
    let window = l.window;
    let interval = Duration::from_secs_f64(LANES as f64 / l.rate_rps);
    let window_s = WINDOW_S.max(WINDOW_SAMPLES / l.rate_rps);
    let pairs = ((args.seconds / (2.0 * window_s)).round() as usize).max(SERVERS);
    let win = Duration::from_secs_f64(args.seconds / (2 * pairs) as f64);

    // Each server process gets a share of the closed/open window pairs.
    // Alternating the two phases makes both sample the same stretches of
    // host noise, and spreading them over fresh processes keeps one
    // process's allocator state from deciding the whole run. Throughput,
    // CPU and set-up are medians over windows or processes; the peak RSS
    // is explained at `SERVERS`, the latency percentiles at
    // `QUIET_SAMPLES`.
    let mut setup_s = Vec::new();
    let mut rss = Vec::new();
    let mut closed_rps = Vec::new();
    let mut cpu_per_req = Vec::new();
    let (mut p50s, mut p90s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut open = LaneResult::default();
    let mut pair = 0u64;
    for i in 0..SERVERS {
        let (mut server, mut lanes, warm, secs) = setup(w)?;
        report.tally(&format!("server {}: warm-up", i + 1), &warm);
        if i == 0 {
            report.provenance = provenance(args, &server.config);
        }
        setup_s.push(secs);
        let share = (pairs * (i + 1)) / SERVERS - (pairs * i) / SERVERS;
        let (mut cpu_spent, mut served) = (0.0, 0u64);
        for _ in 0..share {
            let base = 2 * LANES * pair;
            pair += 1;
            let closed = phase(
                w,
                &mut lanes,
                streams(w, base),
                |_| Mode::Closed { window },
                Some(win),
                false,
            );
            report.tally(&format!("server {}: closed window {pair}", i + 1), &closed);
            closed_rps.push(throughput(&closed));

            let cpu0 = server.cpu_seconds()?;
            let opened = phase(
                w,
                &mut lanes,
                streams(w, base + LANES),
                |lane| Mode::Open {
                    interval,
                    offset: Duration::from_secs_f64(lane as f64 / l.rate_rps),
                },
                Some(win),
                false,
            );
            cpu_spent += server.cpu_seconds()? - cpu0;
            served += opened.completed;
            report.tally(&format!("server {}: open window {pair}", i + 1), &opened);
            p50s.push(median(&opened.latency_us) / 1e3);
            p90s.push(quantile(&opened.latency_us, 0.9) / 1e3);
            p99s.push(quantile(&opened.latency_us, 0.99) / 1e3);
            open.merge(opened);
        }
        // Per process, not per window: a window's CPU time is only a few
        // dozen 10 ms ticks.
        cpu_per_req.push(cpu_spent * 1e6 / served.max(1) as f64);
        rss.push(server.peak_rss_mb()?);
        let stats = server.stats()?;
        drop(lanes);
        server.stop()?;
        report.line(format!(
            "server {}: set-up {secs:.4} s, peak RSS {:.2} MiB, frames {} results / {} errors sent, \
             scheduler rejected {} expired {}",
            i + 1,
            rss[i],
            stat(&stats, "net.results_sent"),
            stat(&stats, "net.errors_sent"),
            stat(&stats, "serve.rejected"),
            stat(&stats, "serve.expired"),
        ));
    }

    let rounded = |v: &[f64], scale: f64| {
        v.iter()
            .map(|x| (x * scale).round() / scale)
            .collect::<Vec<_>>()
    };
    report.line(format!(
        "{pairs} window pairs of {:.2} s over {SERVERS} server processes; {LANES} connections, \
         closed-loop window {} per connection, open loop at {} req/s",
        win.as_secs_f64(),
        l.window,
        l.rate_rps
    ));
    report.line(format!(
        "closed loop req/s per window: {:?}",
        rounded(&closed_rps, 1.0)
    ));
    report.line(format!(
        "open loop p50 ms per window: {:?}",
        rounded(&p50s, 1e4)
    ));
    report.line(format!(
        "open loop p90 ms per window: {:?}",
        rounded(&p90s, 1e4)
    ));
    report.line(format!(
        "open loop p99 ms per window (diagnostic, not gated): {:?}",
        rounded(&p99s, 1e4)
    ));
    report.line(format!(
        "open loop: {} latency samples, pooled over all windows p50 {:.4} ms p90 {:.4} ms \
         p99 {:.4} ms (diagnostic); generator lateness p50 {:.1} us p90 {:.1} us p99 {:.1} us \
         max {:.1} us",
        open.latency_us.len(),
        median(&open.latency_us) / 1e3,
        quantile(&open.latency_us, 0.9) / 1e3,
        quantile(&open.latency_us, 0.99) / 1e3,
        median(&open.lateness_us),
        quantile(&open.lateness_us, 0.9),
        quantile(&open.lateness_us, 0.99),
        quantile(&open.lateness_us, 1.0),
    ));
    report.line(format!(
        "server CPU us/req in open windows, per server process: {:?}",
        rounded(&cpu_per_req, 10.0)
    ));

    report.metric("throughput_rps", "req/s", median(&closed_rps));
    let per_window = l.rate_rps * win.as_secs_f64();
    let summary = if per_window >= QUIET_SAMPLES {
        0.25
    } else {
        0.5
    };
    report.metric("latency_p50_ms", "ms", quantile(&p50s, summary));
    report.metric("latency_p90_ms", "ms", quantile(&p90s, summary));
    report.metric("server_cpu_us_per_req", "us", median(&cpu_per_req));
    report.metric("server_peak_rss_mb", "MiB", quantile(&rss, 1.0));
    report.metric("setup_s", "s", median(&setup_s));
    Ok(())
}

fn traced(args: &Args, w: &Workload, report: &mut Report) -> io::Result<()> {
    let l = load(w.kind);
    let (mut server, mut lanes, warm, _) = setup(w)?;
    report.tally("warm-up", &warm);
    report.provenance = provenance(args, &server.config);
    let third = Duration::from_secs_f64(args.seconds / 3.0);
    let window = l.window;
    let warmed = server.stats()?;

    let plain = phase(
        w,
        &mut lanes,
        streams(w, 0),
        |_| Mode::Closed { window },
        Some(third),
        false,
    );
    report.tally("closed loop, untraced", &plain);
    let traced = phase(
        w,
        &mut lanes,
        streams(w, 0),
        |_| Mode::Closed { window },
        Some(third),
        true,
    );
    report.tally("closed loop, traced", &traced);
    let end = server.stats()?;
    drop(lanes);
    server.stop()?;

    let rps_plain = throughput(&plain);
    let rps_traced = throughput(&traced);
    let spans = &traced.spans;
    let col = |f: fn(&wire::Span) -> f64| spans.iter().map(f).collect::<Vec<f64>>();

    let r = replay(w, replay_requests(w.kind));
    report.attempted += r.requests as u64;
    report.failed += r.wrong as u64;
    if r.wrong > 0 {
        report.correct = false;
    }
    report.line(format!(
        "replay: {} requests ({} warm-up), {} wrong",
        r.requests,
        w.warmup.len(),
        r.wrong
    ));

    let bulk_owned;
    let bulk = if w.kind == Kind::BulkKernels {
        w
    } else {
        bulk_owned = Workload::build(Kind::BulkKernels, args.seed);
        &bulk_owned
    };
    let families = family_counts(bulk);
    let repeat = family_counts(bulk);
    if families != repeat {
        report.correct = false;
        report.line(format!(
            "per-family counts did not repeat: {families:?} vs {repeat:?}"
        ));
    }

    let d = |key: &str| stat(&end, key) - stat(&warmed, key);
    let hits = d("rt.cache_hits");
    let attempts = hits + d("rt.cache_misses");
    let latency = col(|s| s.latency_us);

    report.metric(
        "net.outside_serve_us_p50",
        "us",
        median(&col(|s| s.latency_us - s.turnaround_us)),
    );
    report.metric(
        "net.submit_bytes_mean",
        "B",
        mean(&col(|s| s.submit_bytes as f64)),
    );
    report.metric(
        "net.result_bytes_mean",
        "B",
        mean(&col(|s| s.result_bytes as f64)),
    );
    report.metric("net.errors_sent", "count", stat(&end, "net.errors_sent"));
    report.metric("net.frame_write_us_p50", "us", median(&r.frame_write_us));
    report.metric(
        "container.encode_us_p50",
        "us",
        median(&col(|s| s.encode_us)),
    );
    report.metric("container.decode_us_p50", "us", median(&r.decode_us));
    report.metric("ir.verify_us_p50", "us", median(&r.verify_us));
    report.metric("ir.digest_us_p50", "us", median(&r.digest_us));
    report.metric(
        "serve.queue_wait_us_p50",
        "us",
        median(&col(|s| s.queue_wait_us)),
    );
    report.metric(
        "serve.queue_wait_us_p90",
        "us",
        quantile(&col(|s| s.queue_wait_us), 0.9),
    );
    report.metric(
        "serve.service_us_p50",
        "us",
        median(&col(|s| s.turnaround_us - s.queue_wait_us)),
    );
    report.metric(
        "serve.batch_size_mean",
        "count",
        mean(&col(|s| f64::from(s.batch_size))),
    );
    report.metric("serve.rejected", "count", stat(&end, "serve.rejected"));
    report.metric("serve.expired", "count", stat(&end, "serve.expired"));
    report.metric(
        "runtime.cache_hit_ratio",
        "ratio",
        if attempts > 0.0 { hits / attempts } else { 0.0 },
    );
    report.metric(
        "runtime.prepare_hit_us_p50",
        "us",
        median(&r.prepare_hit_us),
    );
    report.metric(
        "runtime.prepare_miss_us_p50",
        "us",
        median(&r.prepare_miss_us),
    );
    report.metric("runtime.eval_us_p50", "us", median(&r.eval_us));
    report.metric(
        "runtime.verifications",
        "count",
        stat(&end, "rt.verifications"),
    );
    report.metric("opt.optimize_us_p50", "us", median(&r.optimize_us));
    report.metric("opt.rules_fired_per_compile", "count", mean(&r.rules_fired));
    report.metric("opt.iterations_per_compile", "count", mean(&r.iterations));
    report.metric(
        "opt.bytecodes_removed_per_compile",
        "count",
        mean(&r.bytecodes_removed),
    );
    report.metric("vm.execute_us_p50", "us", median(&r.execute_us));
    report.metric("vm.readback_us_p50", "us", median(&r.readback_us));
    report.metric("vm.kernels_per_req", "count", r.per_req(r.kernels));
    report.metric(
        "vm.fused_groups_per_req",
        "count",
        r.per_req(r.fused_groups),
    );
    report.metric("vm.par_shards_per_req", "count", r.per_req(r.par_shards));
    report.metric("vm.bytes_per_req", "B", r.per_req(r.bytes));
    report.metric("vm.flops_per_req", "flop", r.per_req(r.flops));
    report.metric("vm.gbytes_per_s", "GB/s", r.gbytes_per_s());
    for (family, c) in &families {
        report.metric(
            format!("opt.bytecodes_out.{family}"),
            "count",
            c.bytecodes_out as f64,
        );
        report.metric(format!("vm.kernels.{family}"), "count", c.kernels as f64);
        report.metric(
            format!("vm.fused_groups.{family}"),
            "count",
            c.fused_groups as f64,
        );
        report.metric(format!("vm.flops.{family}"), "flop", c.flops as f64);
    }
    let residual = median(&latency) - r.stage_sum_us();
    report.metric("trace.residual_us_p50", "us", residual);
    report.metric(
        "trace.overhead_pct",
        "%",
        (rps_plain - rps_traced) / rps_plain * 100.0,
    );

    report.line(format!(
        "closed loop: {rps_plain:.0} req/s untraced, {rps_traced:.0} req/s traced; \
         traced latency p50 {:.1} us over {} spans",
        median(&latency),
        spans.len()
    ));
    describe_replay(report, &r, residual);
    for (family, c) in &families {
        report.line(format!(
            "family {family}: byte-codes {} -> {}, kernels {}, fused groups {}, flops {}",
            c.bytecodes_in, c.bytecodes_out, c.kernels, c.fused_groups, c.flops
        ));
    }
    report.line(
        "vm.bytes_per_req and vm.flops_per_req are the VM's analytic counters, computed from \
         tensor sizes (bytes read + written by every view; per-element op costs and linalg \
         flop models), not hardware measurements",
    );

    let mut csv = String::from(
        "lane,request_id,prog,encode_us,write_us,wait_us,read_us,latency_us,queue_wait_us,\
         turnaround_us,batch_size,submit_bytes,result_bytes\n",
    );
    for s in spans {
        let _ = writeln!(
            csv,
            "{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{}",
            s.lane,
            s.request_id,
            s.prog,
            s.encode_us,
            s.write_us,
            s.wait_us,
            s.read_us,
            s.latency_us,
            s.queue_wait_us,
            s.turnaround_us,
            s.batch_size,
            s.submit_bytes,
            s.result_bytes
        );
    }
    report.spans_csv = csv;
    Ok(())
}

fn describe_replay(report: &mut Report, r: &Replay, residual: f64) {
    report.line(format!(
        "replay stage p50 (us): decode {:.2} verify {:.2} digest {:.2} prepare hit {:.2} ({}) \
         miss {:.2} ({}) execute {:.2} read {:.2} frame write {:.2}; stage sum {:.2}, \
         residual {:.2} (socket I/O, hand-offs and queueing)",
        median(&r.decode_us),
        median(&r.verify_us),
        median(&r.digest_us),
        median(&r.prepare_hit_us),
        r.prepare_hit_us.len(),
        median(&r.prepare_miss_us),
        r.prepare_miss_us.len(),
        median(&r.execute_us),
        median(&r.readback_us),
        median(&r.frame_write_us),
        r.stage_sum_us(),
        residual
    ));
}
