//! `farm_batch`: repeated `Farm` calls over one fixed mixed batch of
//! 64-instruction arithmetic programs and 64-element χ-sorts, on 2 shards
//! of standard units plus χ-sort over the pcie-like link.
//!
//! Host time goes to the cycle kernel: the coprocessor stages, the unit
//! datapaths and the χ-sort tree. There is little orchestration per call
//! and no idle time to skip.

use fu_host::{Farm, Job, JobOutput, JobResult, LinkModel};
use fu_isa::DevMsg;
use fu_rtm::FunctionalUnit;
use xi_sort::{XiConfig, XiSortAdapter};

use crate::gen::Rng;
use crate::harness::{farm, timed, Episode, SimDigest, Threads, Workload, SHARDS};
use crate::host::quantile_u64;
use crate::spans::span;

/// Instructions per arithmetic program.
const PROGRAM_LEN: usize = 64;
/// Elements per χ-sort (and cells in each shard's sorter).
const SORT_LEN: usize = PROGRAM_LEN;
/// Arithmetic programs in the batch, and χ-sorts in the batch.
const EACH: usize = 8;
/// Farm calls per episode.
const CALLS: usize = 100;

/// What a job must return.
enum Expect {
    /// Readbacks of r0..r3, in order.
    Regs([u32; 4]),
    /// The sorted input.
    Sorted(Vec<u32>),
}

/// The batch, generated once from the seed.
pub struct FarmBatch {
    jobs: Vec<Job>,
    expect: Vec<Expect>,
}

/// A self-contained program: load r4..r7 with random immediates, then run
/// two-source ALU ops into r0..r3 (rotating) from registers this program
/// has already written. The returned values are r0..r3 at the end, computed
/// by the benchmark's own model.
fn program(rng: &mut Rng) -> (Job, Expect) {
    let mut regs = [0u32; 8];
    let mut lines = Vec::with_capacity(PROGRAM_LEN);
    for (r, reg) in regs.iter_mut().enumerate().skip(4) {
        *reg = rng.next_u32();
        lines.push(format!("LOADI r{r}, {reg}"));
    }
    for i in 0..PROGRAM_LEN - 4 {
        let dst = i % 4;
        // Sources: r4..r7 at first, then any register written so far.
        let pool = if i < 4 { 4 } else { 8 };
        let a = (8 - pool) + rng.below(pool as u64) as usize;
        let b = (8 - pool) + rng.below(pool as u64) as usize;
        let (op, v) = match rng.below(5) {
            0 => ("ADD", regs[a].wrapping_add(regs[b])),
            1 => ("SUB", regs[a].wrapping_sub(regs[b])),
            2 => ("XOR", regs[a] ^ regs[b]),
            3 => ("OR", regs[a] | regs[b]),
            _ => ("AND", regs[a] & regs[b]),
        };
        regs[dst] = v;
        lines.push(format!("{op} r{dst}, r{a}, r{b}, f{dst}"));
    }
    let job = Job::Program {
        source: lines.join("\n"),
        reads: vec![0, 1, 2, 3],
    };
    (job, Expect::Regs([regs[0], regs[1], regs[2], regs[3]]))
}

fn sort(rng: &mut Rng) -> (Job, Expect) {
    let values: Vec<u32> = (0..SORT_LEN).map(|_| rng.next_u32()).collect();
    let mut sorted = values.clone();
    sorted.sort_unstable();
    (Job::XiSort(values), Expect::Sorted(sorted))
}

fn xi_unit() -> Vec<Box<dyn FunctionalUnit>> {
    vec![Box::new(XiSortAdapter::new(
        XiConfig::new(SORT_LEN as u32),
        32,
    ))]
}

impl FarmBatch {
    /// Generate the batch for `seed`. Programs and sorts alternate in pairs
    /// so round-robin placement gives each shard both kinds.
    pub fn new(seed: u64) -> FarmBatch {
        let mut rng = Rng::new(seed, 0xFA_0000);
        let (mut jobs, mut expect) = (Vec::new(), Vec::new());
        for i in 0..2 * EACH {
            let (job, e) = if (i / 2) % 2 == 0 {
                program(&mut rng)
            } else {
                sort(&mut rng)
            };
            jobs.push(job);
            expect.push(e);
        }
        FarmBatch { jobs, expect }
    }

    fn check(&self, ep: &mut Episode, call: usize, results: &[JobResult]) -> u64 {
        let mut ok = 0;
        if results.len() != self.jobs.len() {
            ep.fail(|| format!("call {call}: {} results", results.len()));
        }
        for (r, e) in results.iter().zip(&self.expect) {
            let good = match (&r.output, e) {
                (Ok(JobOutput::Msgs(m)), Expect::Regs(want)) => {
                    m.len() == 4
                        && m.iter().zip(want).all(|(msg, &w)| {
                            matches!(msg, DevMsg::Data { value, .. } if value.as_u64() == u64::from(w))
                        })
                }
                (Ok(JobOutput::Sorted { values, .. }), Expect::Sorted(want)) => values == want,
                _ => false,
            };
            if good {
                ok += 1;
            } else {
                ep.fail(|| format!("call {call} job {}: wrong result {:?}", r.job, r.output));
            }
        }
        ok
    }
}

impl Workload for FarmBatch {
    type Sut = (Farm, Threads);

    fn build(&self, threads: Threads) -> (Farm, Threads) {
        (farm(LinkModel::pcie_like(), xi_unit), threads)
    }

    fn run(&self, (mut farm, threads): (Farm, Threads)) -> Episode {
        let mut ep = Episode::new(CALLS);
        let mut calls: Vec<Vec<JobResult>> = Vec::with_capacity(CALLS);
        let mut digest = SimDigest {
            shard_work: vec![0; SHARDS],
            ..SimDigest::default()
        };
        let mut latencies = Vec::new();
        timed(&mut ep, |ep| {
            for call in 0..CALLS {
                span("farm.plan", call as u64, || farm.plan(&self.jobs));
                let t = std::time::Instant::now();
                let out = match threads {
                    Threads::Parallel => span("farm.run_parallel", call as u64, || {
                        farm.run_parallel(&self.jobs)
                    }),
                    Threads::Serial => span("farm.run_serial", call as u64, || {
                        farm.run_serial(&self.jobs)
                    }),
                };
                ep.calls_us.push(t.elapsed().as_secs_f64() * 1e6);
                ep.step();
                match out {
                    Ok(results) => calls.push(results),
                    Err(e) => ep.fail(|| format!("call {call}: {e}")),
                }
                digest.rounds += 1;
                digest.sim += farm.sim_stats();
                digest.elapsed_cycles += farm.makespan_cycles();
                for (w, r) in digest.shard_work.iter_mut().zip(farm.shard_reports()) {
                    *w += r.cycles;
                }
            }
        });
        ep.attempted = (CALLS * self.jobs.len()) as u64;
        digest.offered = ep.attempted;
        digest.admitted = ep.attempted;
        for (call, results) in calls.iter().enumerate() {
            digest.completed += self.check(&mut ep, call, results);
            // A job completes after everything before it on its shard.
            let mut busy = [0u64; SHARDS];
            for r in results {
                busy[r.shard] += r.cycles;
                latencies.push(busy[r.shard]);
                if let Ok(JobOutput::Sorted { rounds, .. }) = &r.output {
                    digest.xi_sorts += 1;
                    digest.xi_rounds += rounds;
                }
            }
            if results != &calls[0] {
                ep.fail(|| format!("call {call} differs from call 0"));
            }
        }
        // Each job is 64 operations: instructions or elements sorted.
        digest.ops = digest.completed * PROGRAM_LEN as u64;
        digest.latency_p99 = quantile_u64(&mut latencies, 0.99);
        ep.digest = digest;
        ep
    }

    fn has_farm(&self) -> bool {
        true
    }
}
