//! Host-clock benchmark of the FPGA functional-unit framework.
//!
//! ```text
//! hostbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload repeats a fixed, seed-determined episode of work for
//! `--seconds`, checks every output, and prints its metrics; the last line
//! of standard output is one JSON object. With `--trace 0` it reports the
//! end-to-end metrics, measured untraced. With `--trace 1` it reports the
//! per-layer metrics from a traced run, alongside an untraced run (for the
//! tracing overhead) and, where there is a farm, a serial run (for the
//! parallel speed-up). A human-readable report goes to standard error.
//!
//! The exact simulated outcome of an episode must be identical across every
//! repetition, traced or not, serial or parallel; any difference, wrong
//! result or lost job makes the run incorrect and its exit code 1.

mod farm_batch;
mod gen;
mod harness;
mod host;
mod link_slow;
mod serving;
mod spans;

use std::process::ExitCode;
use std::time::Duration;

use harness::{Episode, Fast, Phase, Threads, Workload, FAST_Q};
use host::{median, quantile, tail_percentile};

/// The modelled FPGA clock.
const FPGA_HZ: f64 = 50e6;
/// Fewest timed episodes a phase runs, however short its budget.
const MIN_EPISODES: usize = 3;
/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["serve_light", "serve_overload", "farm_batch", "link_slow"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit: unit.to_string(),
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "all" => run_all(&args),
        "serve_light" => bench(&serving::Serving::new(serving::LIGHT, args.seed), &args),
        "serve_overload" => bench(&serving::Serving::new(serving::OVERLOAD, args.seed), &args),
        "farm_batch" => bench(&farm_batch::FarmBatch::new(args.seed), &args),
        "link_slow" => bench(&link_slow::LinkSlow::new(args.seed), &args),
        other => unreachable!("workload {other} passed validation"),
    };
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in its own process (so peak memory stays per
/// workload) and merge their results, prefixing metric names.
fn run_all(args: &Args) -> Outcome {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("the benchmark can run itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        println!("{w}: {last}");
        all.correct &= out.status.success() && last.contains("\"correct\": true");
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
        };
        all.attempted += field("attempted");
        all.failed += field("failed");
        let body = last.split("\"metrics\": {").nth(1).unwrap_or("");
        for entry in body.split("}, ") {
            let Some((name, rest)) = entry.split_once("\": {\"value\": ") else {
                continue;
            };
            let (value, unit) = rest.split_once(", \"unit\": \"").unwrap_or((rest, ""));
            all.metrics.push(metric(
                format!("{w}/{}", name.trim_start_matches('"')),
                value.parse().unwrap_or(0.0),
                unit.trim_end_matches(['}', '"']),
            ));
        }
    }
    all
}

fn bench<W: Workload>(w: &W, args: &Args) -> Outcome {
    let ticks_before = host::cpu_ticks();
    let budget = Duration::from_secs(args.seconds);
    // Warm caches and any lazy set-up before anything is timed; the warm-up
    // episode's digest is the reference every repetition must match.
    let warm = w.run(w.build(Threads::Parallel));
    let mut metrics;
    let phases: Vec<(&str, Vec<Episode>)>;
    let untraced = Phase {
        threads: Threads::Parallel,
        traced: false,
    };
    if args.trace {
        let mut run = vec![
            ("untraced", untraced),
            ("traced", Phase { traced: true, ..untraced }),
        ];
        if w.has_farm() {
            run.push((
                "serial",
                Phase {
                    threads: Threads::Serial,
                    traced: false,
                },
            ));
        }
        let kinds: Vec<Phase> = run.iter().map(|&(_, p)| p).collect();
        let eps = harness::repeat(w, &kinds, budget, MIN_EPISODES);
        phases = run.iter().map(|&(name, _)| name).zip(eps).collect();
        let spans = spans::take();
        metrics = per_layer(&phases, &spans, w.has_farm());
        write_spans(&args.workload, &spans);
    } else {
        let eps = harness::repeat(w, &[untraced], budget, MIN_EPISODES);
        phases = vec![("timed", eps.into_iter().next().unwrap_or_default())];
        metrics = end_to_end(&phases[0].1);
    }
    let ticks_after = host::cpu_ticks();

    // Correctness: every check of every episode, and the determinism guard.
    let mut correct = true;
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let mut problems: Vec<String> = warm.errors.clone();
    for (phase, eps) in &phases {
        for (i, e) in eps.iter().enumerate() {
            attempted += e.attempted;
            failed += e.failed;
            problems.extend(e.errors.iter().cloned());
            if e.digest != warm.digest {
                correct = false;
                problems.push(format!(
                    "determinism: {phase} episode {i} differs from the warm-up episode"
                ));
            }
        }
    }
    correct &= failed == 0 && attempted > 0;

    let steal = ticks_after.0.saturating_sub(ticks_before.0);
    let ticks = ticks_after.1.saturating_sub(ticks_before.1).max(1);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    if args.trace {
        metrics.push(metric(
            "failed_fraction",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ));
        metrics.push(metric(
            "noise.available_parallelism",
            parallelism as f64,
            "count",
        ));
        metrics.push(metric("noise.steal_ticks", steal as f64, "count"));
        metrics.push(metric(
            "noise.steal_fraction",
            steal as f64 / ticks as f64,
            "ratio",
        ));
    }

    eprintln!(
        "hostbench {} seed {} trace {}: commit {}, {}, available_parallelism {parallelism}, \
         steal {steal} of {ticks} ticks ({:.1}%)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host::git_commit(),
        host::rustc_version(),
        100.0 * steal as f64 / ticks as f64,
    );
    for (phase, eps) in &phases {
        let walls: Vec<f64> = eps.iter().map(|e| e.wall.as_secs_f64()).collect();
        let calls = eps.first().map_or(0, |e| e.calls.n);
        eprintln!(
            "  {phase}: {} episodes, wall min {:.4} s / median {:.4} s / max {:.4} s, \
             {calls} calls per episode, tail at p{}",
            eps.len(),
            quantile(&walls, 0.0),
            median(&walls),
            quantile(&walls, 1.0),
            100.0 * tail_percentile(calls),
        );
        let walls: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        eprintln!("    episode walls (s): {}", walls.join(" "));
        let stolen: Vec<String> = eps
            .iter()
            .map(|e| format!("{:.3}", e.stolen.as_secs_f64()))
            .collect();
        eprintln!("    episode stolen (s): {}", stolen.join(" "));
        let cpu: Vec<String> = eps
            .iter()
            .map(|e| format!("{:.3}", e.cpu.as_secs_f64()))
            .collect();
        eprintln!("    episode cpu (s): {}", cpu.join(" "));
        let p50: Vec<String> = eps
            .iter()
            .map(|e| format!("{:.1}", e.calls.p50_us))
            .collect();
        eprintln!("    episode call p50 (us): {}", p50.join(" "));
        let fast = Fast::of(eps);
        eprintln!(
            "    fast episode (slices at p{:.0} over episodes): wall {:.4} s, cpu {:.4} s",
            100.0 * FAST_Q,
            fast.wall_s,
            fast.cpu_s,
        );
    }
    for m in &metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!("  failed {failed} of {attempted} attempted");
    for p in problems.iter().take(10) {
        eprintln!("  FAIL {p}");
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// The [`FAST_Q`]-quantile over episodes of `f`.
fn fast_episode(eps: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    quantile(&eps.iter().map(f).collect::<Vec<_>>(), FAST_Q)
}

fn end_to_end(eps: &[Episode]) -> Vec<Metric> {
    let d = &eps[0].digest;
    let fast = Fast::of(eps);
    let jobs = d.completed.max(1) as f64;
    vec![
        metric("host_jobs_per_s", jobs / fast.wall_s, "jobs/s"),
        metric(
            "sim_mcycles_per_host_s",
            d.sim.cycles_simulated as f64 / fast.wall_s / 1e6,
            "Mcycles/s",
        ),
        metric("host_cpu_us_per_job", fast.cpu_s * 1e6 / jobs, "us"),
        // Each episode's median call, taken like the slices.
        metric(
            "host_call_p50_us",
            fast_episode(eps, |e| e.calls.p50_us),
            "us",
        ),
        metric("setup_s", fast_episode(eps, |e| e.setup_s), "s"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        metric(
            "sim_ops_per_s",
            d.ops as f64 / (d.elapsed_cycles.max(1) as f64 / FPGA_HZ),
            "ops/s",
        ),
        metric("sim_p99_latency_cycles", d.latency_p99 as f64, "cycles"),
        metric(
            "admitted_fraction",
            d.admitted as f64 / d.offered.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Count and total duration (ns) of the spans named `name`.
fn span_total(spans: &[spans::Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(n, t), s| (n + 1, t + s.ns()))
}

fn span_mean_ns(spans: &[spans::Span], name: &str) -> f64 {
    let (n, t) = span_total(spans, name);
    if n == 0 {
        0.0
    } else {
        t as f64 / n as f64
    }
}

fn per_layer(phases: &[(&str, Vec<Episode>)], spans: &[spans::Span], farm: bool) -> Vec<Metric> {
    let plain = &phases[0].1;
    let traced = &phases[1].1;
    let (plain_fast, traced_fast) = (Fast::of(plain), Fast::of(traced));
    let d = &plain[0].digest;
    let sim = &d.sim;
    let serve = spans.iter().any(|s| s.name == "serve.advance_to");
    let link = spans.iter().any(|s| s.name == "driver.roundtrip");
    let traced_rounds = d.rounds * traced.len() as u64;
    let (builds, build_ns) = span_total(spans, "farm.shard_build");
    let round_ns: u64 = ["serve.advance_to", "serve.drain", "farm.run_parallel"]
        .iter()
        .map(|n| span_total(spans, n).1)
        .sum();
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(spans::Span::ns)
        .sum();
    let traced_ns: f64 = traced.iter().map(|e| e.wall.as_secs_f64() * 1e9).sum();
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    let evals: u64 = sim.stage_evals.iter().map(|&(_, n)| n).sum();
    let work = &d.shard_work;
    let mean_work = work.iter().sum::<u64>() as f64 / work.len().max(1) as f64;
    let roundtrips: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "driver.roundtrip")
        .map(|s| s.ns() as f64 / 1e3)
        .collect();

    let mut m = vec![
        metric(
            "host_call_tail_us",
            fast_episode(plain, |e| e.calls.tail_us),
            "us",
        ),
        metric("serve.admit_ns", span_mean_ns(spans, "serve.submit"), "ns"),
        metric(
            "serve.round_us_p50",
            only(serve, fast_episode(traced, |e| e.calls.p50_us)),
            "us",
        ),
        metric(
            "serve.round_us_tail",
            only(serve, fast_episode(traced, |e| e.calls.tail_us)),
            "us",
        ),
        metric(
            "serve.jobs_per_round",
            only(serve, ratio(d.admitted as f64, d.rounds as f64)),
            "jobs",
        ),
        metric("serve.poll_ns", span_mean_ns(spans, "serve.poll"), "ns"),
        metric(
            "farm.shard_build_us",
            span_mean_ns(spans, "farm.shard_build") / 1e3,
            "us",
        ),
        metric(
            "farm.builds_per_round",
            ratio(builds as f64, traced_rounds as f64),
            "count",
        ),
        metric(
            "farm.shard_build_share",
            ratio(build_ns as f64, round_ns as f64),
            "ratio",
        ),
        metric("farm.plan_us", span_mean_ns(spans, "farm.plan") / 1e3, "us"),
        metric(
            "farm.parallel_speedup",
            match phases.get(2) {
                Some((_, serial)) => ratio(Fast::of(serial).wall_s, plain_fast.wall_s),
                None => 0.0,
            },
            "ratio",
        ),
        metric(
            "farm.shard_imbalance",
            only(
                farm,
                ratio(work.iter().copied().max().unwrap_or(0) as f64, mean_work),
            ),
            "ratio",
        ),
        metric(
            "farm.jobs_failed_over",
            sim.recovery.jobs_failed_over as f64,
            "count",
        ),
        metric("system.cycles_stepped", sim.cycles_stepped as f64, "cycles"),
        metric("system.cycles_skipped", sim.cycles_skipped as f64, "cycles"),
        metric(
            "system.skip_fraction",
            ratio(sim.cycles_skipped as f64, sim.cycles_simulated as f64),
            "ratio",
        ),
        metric(
            "system.host_ns_per_stepped_cycle",
            ratio(plain_fast.wall_s * 1e9, sim.cycles_stepped as f64),
            "ns",
        ),
        metric("driver.roundtrip_us_p50", median(&roundtrips), "us"),
    ];
    for (stage, n) in &sim.stage_evals {
        m.push(metric(
            format!("rtm.stage_evals.{stage}"),
            *n as f64,
            "count",
        ));
    }
    m.extend([
        metric(
            "rtm.evals_per_cycle",
            ratio(evals as f64, sim.cycles_stepped as f64),
            "ratio",
        ),
        metric("wheel.wakes_fired", sim.wheel.wakes_fired as f64, "count"),
        metric(
            "wheel.slots_skipped",
            sim.wheel.slots_skipped as f64,
            "count",
        ),
        metric("link.frames_to_dev", only(link, d.frames.0 as f64), "count"),
        metric(
            "link.frames_to_host",
            only(link, d.frames.1 as f64),
            "count",
        ),
        metric(
            "units.issue_retire_p99_cycles",
            sim.lat_issue_retire.percentile(0.99) as f64,
            "cycles",
        ),
        metric(
            "xi.rounds_per_sort",
            ratio(d.xi_rounds as f64, d.xi_sorts as f64),
            "rounds",
        ),
        metric(
            "trace.span_coverage",
            ratio(root_ns as f64, traced_ns),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(traced_fast.wall_s, plain_fast.wall_s),
            "ratio",
        ),
        metric(
            "host_call.tail_percentile",
            100.0 * traced[0].calls.tail_pct,
            "percent",
        ),
        metric("host_call.samples", traced[0].calls.n as f64, "count"),
    ]);
    m
}

/// Spans written to the trace file; the rest are only summarised.
const SPANS_WRITTEN: usize = 50_000;

/// Write the traced run's first spans as a Chrome-trace document next to the
/// benchmark executable (inside the build directory).
fn write_spans(workload: &str, spans: &[spans::Span]) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
    else {
        return;
    };
    let path = dir.join(format!("spans-{workload}.json"));
    let written = &spans[..spans.len().min(SPANS_WRITTEN)];
    match spans::write_chrome_trace(&path, written) {
        Ok(()) => eprintln!(
            "  first {} of {} spans written to {}",
            written.len(),
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
    }
}
