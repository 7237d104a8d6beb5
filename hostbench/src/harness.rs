//! What every workload hands back, and the loop that repeats episodes for a
//! time budget.

use std::time::{Duration, Instant};

use fu_host::{Farm, FarmConfig, LinkModel, System};
use fu_rtm::{CoprocConfig, FunctionalUnit};
use fu_units::standard_units;
use rtl_sim::SimStats;

use crate::host::{process_cpu, quantile, tail_percentile};
use crate::spans::{self, span};

/// The exact simulated outcome of one episode. An episode is a fixed,
/// seed-determined amount of work, so every repetition — traced or not,
/// serial or parallel — must produce the same digest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimDigest {
    /// Jobs offered to the program.
    pub offered: u64,
    /// Jobs the program admitted (all of them where nothing sheds).
    pub admitted: u64,
    /// Admitted jobs that completed with a verified result.
    pub completed: u64,
    /// Simulated operations the completed jobs performed.
    pub ops: u64,
    /// Simulated cycles the operations took end to end.
    pub elapsed_cycles: u64,
    /// Simulated p99 job latency, in cycles (exact, nearest rank).
    pub latency_p99: u64,
    /// Scheduling rounds (serving) or calls (farm, driver).
    pub rounds: u64,
    /// Scheduler statistics summed over every shard and round.
    pub sim: SimStats,
    /// Link frames carried `(to device, to host)`, where the program
    /// exposes them.
    pub frames: (u64, u64),
    /// χ-sorts run and refinement rounds they took.
    pub xi_sorts: u64,
    /// Refinement rounds summed over `xi_sorts`.
    pub xi_rounds: u64,
    /// Simulated cycles of work per shard.
    pub shard_work: Vec<u64>,
}

/// One episode: its digest, what it cost the host, and what failed.
#[derive(Debug)]
pub struct Episode {
    /// The exact simulated outcome.
    pub digest: SimDigest,
    /// Host wall time of the timed window.
    pub wall: Duration,
    /// Process CPU time (all threads) of the timed window.
    pub cpu: Duration,
    /// CPU time the hypervisor stole from the machine's CPUs during the
    /// timed window, summed over CPUs (from `/proc/stat`). Reported only.
    pub stolen: Duration,
    /// Set-up time per construction of the system under test, measured
    /// just before the episode.
    pub setup_s: f64,
    /// Host latency of each call, in microseconds, while the episode runs;
    /// summarised into `calls` when it ends.
    pub calls_us: Vec<f64>,
    /// The episode's call latencies.
    pub calls: Calls,
    /// The timed window cut into consecutive slices of equal work.
    pub slices: Vec<Slice>,
    /// Steps per slice.
    slice_units: usize,
    /// Steps done since the open slice began, and the clocks when it began.
    open: (usize, Instant, Duration),
    /// Jobs whose result was checked.
    pub attempted: u64,
    /// Jobs that erred, returned a wrong payload, or went missing.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

/// A stretch of an episode: the same work in every repetition, so its cost
/// can be compared across repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Wall time.
    pub wall: Duration,
    /// Process CPU time, all threads.
    pub cpu: Duration,
}

/// Slices per episode.
const SLICES: usize = 32;

impl Episode {
    /// An episode of `units` steps of work, where a step is whatever the
    /// workload reports through [`Episode::step`].
    pub fn new(units: usize) -> Episode {
        Episode {
            digest: SimDigest::default(),
            wall: Duration::ZERO,
            cpu: Duration::ZERO,
            stolen: Duration::ZERO,
            setup_s: 0.0,
            calls_us: Vec::new(),
            calls: Calls::default(),
            slices: Vec::with_capacity(SLICES + 1),
            slice_units: units.div_ceil(SLICES).max(1),
            open: (0, Instant::now(), Duration::ZERO),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// One step of work is done; close the open slice when it holds its
    /// share of steps.
    pub fn step(&mut self) {
        self.open.0 += 1;
        if self.open.0 == self.slice_units {
            self.close_slice();
        }
    }

    fn open_slice(&mut self) {
        self.open = (0, Instant::now(), process_cpu());
    }

    fn close_slice(&mut self) {
        self.slices.push(Slice {
            wall: self.open.1.elapsed(),
            cpu: process_cpu().saturating_sub(self.open.2),
        });
        self.open_slice();
    }

    /// Record a failed check.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what());
        }
    }
}

/// Host cost of one episode, robust to other tenants of the machine.
///
/// Every episode repeats the same work, slice by slice. Load from outside
/// the program only ever slows a slice down, and on a shared host it comes
/// and goes within seconds, so each slice is taken at its
/// [`FAST_Q`]-quantile over the repetitions and the slices are summed.
#[derive(Debug, Clone, Copy)]
pub struct Fast {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

/// The quantile of repetitions each slice's cost is taken at.
pub const FAST_Q: f64 = 0.1;

impl Fast {
    /// The fast cost of `eps`, which all ran the same work.
    pub fn of(eps: &[Episode]) -> Fast {
        let n = eps.iter().map(|e| e.slices.len()).min().unwrap_or(0);
        let at = |k: usize, f: fn(&Slice) -> f64| {
            quantile(
                &eps.iter().map(|e| f(&e.slices[k])).collect::<Vec<_>>(),
                FAST_Q,
            )
        };
        Fast {
            wall_s: (0..n).map(|k| at(k, |s| s.wall.as_secs_f64())).sum(),
            cpu_s: (0..n).map(|k| at(k, |s| s.cpu.as_secs_f64())).sum(),
        }
    }
}

/// Summary of one episode's call latencies (wall time, microseconds).
#[derive(Debug, Default, Clone, Copy)]
pub struct Calls {
    /// Calls timed.
    pub n: usize,
    /// Median latency.
    pub p50_us: f64,
    /// Latency at `tail_pct`.
    pub tail_us: f64,
    /// The highest percentile with at least ten calls beyond it.
    pub tail_pct: f64,
}

impl Calls {
    fn of(samples: &[f64]) -> Calls {
        let tail_pct = tail_percentile(samples.len());
        Calls {
            n: samples.len(),
            p50_us: quantile(samples, 0.5),
            tail_us: quantile(samples, tail_pct),
            tail_pct,
        }
    }
}

/// Whether a farm runs its shards on worker threads or inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// The default: one worker thread per shard.
    Parallel,
    /// The reference path on the calling thread.
    Serial,
}

/// A workload: a system under test and a fixed episode of work on it.
pub trait Workload {
    /// The system under test.
    type Sut;
    /// Construct the system under test (timed as set-up).
    fn build(&self, threads: Threads) -> Self::Sut;
    /// Run one episode on a freshly built system.
    fn run(&self, sut: Self::Sut) -> Episode;
    /// Whether the workload has a farm, and so a serial twin.
    fn has_farm(&self) -> bool;
}

/// Times `f` as the episode's timed window, in wall and CPU time, slice by
/// slice.
pub fn timed<T>(ep: &mut Episode, f: impl FnOnce(&mut Episode) -> T) -> T {
    let steal = crate::host::cpu_ticks().0;
    let cpu = process_cpu();
    let t = Instant::now();
    ep.open_slice();
    let out = f(ep);
    if ep.open.0 > 0 || ep.slices.is_empty() {
        ep.close_slice();
    }
    ep.wall = t.elapsed();
    ep.cpu = process_cpu().saturating_sub(cpu);
    ep.stolen = crate::host::ticks(crate::host::cpu_ticks().0.saturating_sub(steal));
    ep.calls = Calls::of(&std::mem::take(&mut ep.calls_us));
    out
}

/// How the episodes of one phase of a run execute.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Worker threads or inline.
    pub threads: Threads,
    /// Whether spans are recorded while the episode runs.
    pub traced: bool,
}

/// Repeat fresh episodes of every phase in turn until `budget` has passed
/// and each phase ran at least `min`. Taking the phases in turn lets them
/// all see the same load from outside the program, so ratios between
/// phases hold when that load changes. Before each episode a set-up trial
/// times [`SETUP_TRIAL`] constructions of the system under test, so set-up
/// is sampled across the whole run.
pub fn repeat<W: Workload>(
    w: &W,
    phases: &[Phase],
    budget: Duration,
    min: usize,
) -> Vec<Vec<Episode>> {
    let start = Instant::now();
    let mut eps: Vec<Vec<Episode>> = phases.iter().map(|_| Vec::new()).collect();
    while eps[0].len() < min || start.elapsed() < budget {
        for (phase, out) in phases.iter().zip(&mut eps) {
            let t = Instant::now();
            for _ in 0..SETUP_TRIAL {
                drop(std::hint::black_box(w.build(phase.threads)));
            }
            let setup_s = t.elapsed().as_secs_f64() / SETUP_TRIAL as f64;
            spans::enable(phase.traced);
            let mut ep = w.run(w.build(phase.threads));
            spans::enable(false);
            ep.setup_s = setup_s;
            out.push(ep);
        }
    }
    eps
}

/// Constructions (each dropped again) per set-up trial.
pub const SETUP_TRIAL: usize = 256;

/// Shards of every farm: `nproc` on the reference box, so at most two
/// worker threads plus the mostly blocked caller.
pub const SHARDS: usize = 2;

/// The benchmark's own shard builder for a 2-shard farm of standard units
/// on `link`, with each shard build inside a `farm.shard_build` span.
pub fn farm(link: LinkModel, extra_units: fn() -> Vec<Box<dyn FunctionalUnit>>) -> Farm {
    Farm::new(
        FarmConfig {
            shards: SHARDS,
            ..FarmConfig::default()
        },
        move |ctx| {
            span("farm.shard_build", ctx.index as u64, || {
                let coproc = CoprocConfig::default();
                let mut units = standard_units(coproc.word_bits);
                units.extend(extra_units());
                System::new(coproc, units, link)
            })
        },
    )
}
