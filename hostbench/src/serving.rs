//! `serve_light` and `serve_overload`: a multi-tenant `Service` over a
//! 2-shard parallel `Farm` on the ideal link.
//!
//! Simulated load is open loop: arrivals carry virtual ticks drawn from the
//! benchmark's generator. Host load is closed loop: the benchmark submits
//! the next arrival as soon as the previous call returns.

use fu_host::serve::{Admission, ServeConfig, Service, TenantSpec};
use fu_host::{Job, JobOutput, LinkModel};
use fu_isa::{funit_codes, ArithOp, DevMsg, HostMsg, InstrWord, UserInstr, Word};

use crate::gen::Rng;
use crate::harness::{farm, timed, Episode, SimDigest, Threads, Workload, SHARDS};
use crate::host::quantile_u64;
use crate::spans::span;

/// Tenants, in Zipf rank order.
const TENANTS: u32 = 16;
/// Deficit-round-robin weights of the gold, silver and bronze tiers; tenant
/// rank `r` is in tier `r % 3`, so every tier has heavy and light tenants.
const TIER_WEIGHTS: [u32; 3] = [4, 2, 1];
/// Arrivals between two `poll` calls.
const POLL_EVERY: usize = 32;

/// The shape of one episode's open-loop traffic.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// Simulated clients.
    pub clients: u64,
    /// Jobs each client submits over the episode.
    pub jobs_per_client: u64,
    /// Mean gap between a client's arrivals, in cycles.
    pub mean_gap: u64,
}

/// About 40% of simulated capacity: rounds carry one or two jobs.
pub const LIGHT: Traffic = Traffic {
    clients: 300,
    jobs_per_client: 20,
    mean_gap: 6_000,
};

/// About twice simulated capacity, sustained: every client keeps
/// submitting for the whole episode.
pub const OVERLOAD: Traffic = Traffic {
    clients: 2000,
    jobs_per_client: 30,
    mean_gap: 8_000,
};

struct Arrival {
    tick: u64,
    tenant: u32,
    job: Job,
    tag: u16,
    expect: u64,
}

/// A serving workload: its traffic, generated once from the seed.
pub struct Serving {
    arrivals: Vec<Arrival>,
}

/// The self-checking job: write `x` and `y`, add them into r3, read r3
/// back under `tag`.
fn add_job(x: u32, y: u32, tag: u16) -> Job {
    Job::Requests(vec![
        HostMsg::WriteReg {
            reg: 1,
            value: Word::from_u64(u64::from(x), 32),
        },
        HostMsg::WriteReg {
            reg: 2,
            value: Word::from_u64(u64::from(y), 32),
        },
        HostMsg::Instr(InstrWord::user(UserInstr {
            func: funit_codes::ARITH,
            variety: ArithOp::Add.variety().0,
            dst_flag: 1,
            dst_reg: 3,
            aux_reg: 0,
            src1: 1,
            src2: 2,
            src3: 0,
        })),
        HostMsg::ReadReg { reg: 3, tag },
    ])
}

impl Serving {
    /// Generate the episode's arrivals for `seed`.
    pub fn new(traffic: Traffic, seed: u64) -> Serving {
        // Zipf(1) over tenant ranks: rank r draws clients ∝ 1/(r+1).
        let zipf: Vec<u64> = (0..u64::from(TENANTS)).map(|r| 720_720 / (r + 1)).collect();
        let total: u64 = zipf.iter().sum();
        let mut keyed = Vec::new();
        for client in 0..traffic.clients {
            let mut rng = Rng::new(seed, 0x5E_0000 + client);
            let tenant = pick(&zipf, rng.below(total));
            let mut tick = 0;
            for k in 0..traffic.jobs_per_client {
                tick += 1 + rng.below(2 * traffic.mean_gap);
                let (x, y) = (rng.next_u32(), rng.next_u32());
                let tag = rng.next_u64() as u16;
                let arrival = Arrival {
                    tick,
                    tenant,
                    job: add_job(x, y, tag),
                    tag,
                    expect: u64::from(x.wrapping_add(y)),
                };
                keyed.push(((tick, client, k), arrival));
            }
        }
        // Submission order: by tick, ties by client and job.
        keyed.sort_by_key(|(key, _)| *key);
        let arrivals = keyed.into_iter().map(|(_, a)| a).collect();
        Serving { arrivals }
    }
}

/// The rank a uniform draw `u` (below the sum of `weights`) lands on.
fn pick(weights: &[u64], mut u: u64) -> u32 {
    for (rank, &w) in weights.iter().enumerate() {
        if u < w {
            return rank as u32;
        }
        u -= w;
    }
    weights.len() as u32 - 1
}

impl Workload for Serving {
    type Sut = Service;

    fn build(&self, threads: Threads) -> Service {
        let tenants = (0..TENANTS)
            .map(|r| {
                let tier = (r % 3) as usize;
                let name = ["gold", "silver", "bronze"][tier];
                TenantSpec::new(format!("{name}-{r}"), TIER_WEIGHTS[tier])
            })
            .collect();
        let cfg = ServeConfig {
            parallel: threads == Threads::Parallel,
            ..ServeConfig::default()
        };
        Service::new(cfg, tenants, farm(LinkModel::ideal(), Vec::new))
            .expect("a 2-shard farm is a valid service")
    }

    fn run(&self, mut svc: Service) -> Episode {
        let mut ep = Episode::new(self.arrivals.len());
        let mut jobs: Vec<Job> = self.arrivals.iter().map(|a| a.job.clone()).collect();
        let mut seq_to_arrival: Vec<usize> = Vec::with_capacity(jobs.len());
        let mut completions = Vec::with_capacity(jobs.len());
        let mut shed = 0u64;
        let result = timed(&mut ep, |ep| -> Result<(), fu_host::FarmError> {
            for (i, (a, job)) in self.arrivals.iter().zip(jobs.drain(..)).enumerate() {
                let rounds = svc.stats().rounds;
                let t = std::time::Instant::now();
                span("serve.advance_to", i as u64, || svc.advance_to(a.tick))?;
                round_samples(ep, t, svc.stats().rounds - rounds);
                match span("serve.submit", i as u64, || {
                    svc.submit(a.tenant, a.tick, job)
                })? {
                    Admission::Admitted { seq } => {
                        if seq != seq_to_arrival.len() as u64 {
                            ep.fail(|| format!("admission seq {seq} out of order"));
                        }
                        seq_to_arrival.push(i);
                    }
                    Admission::Overloaded { .. } => shed += 1,
                }
                if i % POLL_EVERY == POLL_EVERY - 1 {
                    completions.extend(span("serve.poll", i as u64, || svc.poll()));
                }
                ep.step();
            }
            let rounds = svc.stats().rounds;
            let t = std::time::Instant::now();
            completions.extend(span("serve.drain", self.arrivals.len() as u64, || {
                svc.drain()
            })?);
            round_samples(ep, t, svc.stats().rounds - rounds);
            Ok(())
        });
        if let Err(e) = result {
            ep.fail(|| format!("service error: {e}"));
        }

        // Check every completion against the generator, and conservation:
        // each admitted seq completes exactly once, and completed + shed
        // accounts for every offered job.
        let offered = self.arrivals.len() as u64;
        let admitted = seq_to_arrival.len() as u64;
        ep.attempted = offered;
        let mut seen = vec![false; seq_to_arrival.len()];
        let mut latencies = Vec::with_capacity(completions.len());
        let mut shard_work = vec![0u64; SHARDS];
        let mut completed = 0u64;
        for c in &completions {
            let Some(&i) = seq_to_arrival.get(c.seq as usize) else {
                ep.fail(|| format!("completion for unknown seq {}", c.seq));
                continue;
            };
            if std::mem::replace(&mut seen[c.seq as usize], true) {
                ep.fail(|| format!("seq {} completed twice", c.seq));
                continue;
            }
            let a = &self.arrivals[i];
            latencies.push(c.completed_at - c.submitted_at);
            if let Some(w) = shard_work.get_mut(c.shard) {
                *w += c.cycles;
            }
            match &c.output {
                Ok(JobOutput::Msgs(m))
                    if matches!(&m[..], [DevMsg::Data { tag, value }]
                        if *tag == a.tag && value.as_u64() == a.expect) =>
                {
                    completed += 1;
                }
                other => ep.fail(|| format!("arrival {i}: wrong result {other:?}")),
            }
        }
        let missing = seen.iter().filter(|&&s| !s).count();
        for _ in 0..missing {
            ep.fail(|| "an admitted job never completed".into());
        }
        if admitted + shed != offered {
            ep.fail(|| format!("admitted {admitted} + shed {shed} != offered {offered}"));
        }
        ep.digest = SimDigest {
            offered,
            admitted,
            completed,
            ops: completed,
            elapsed_cycles: svc.clock(),
            latency_p99: quantile_u64(&mut latencies, 0.99),
            rounds: svc.stats().rounds,
            sim: svc.sim_stats().clone(),
            frames: (0, 0),
            xi_sorts: 0,
            xi_rounds: 0,
            shard_work,
        };
        ep
    }

    fn has_farm(&self) -> bool {
        true
    }
}

/// One host-latency sample per round a call ran: the call's time divided
/// over its rounds.
fn round_samples(ep: &mut Episode, start: std::time::Instant, rounds: u64) {
    if rounds > 0 {
        let per_round = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
        ep.calls_us
            .extend(std::iter::repeat_n(per_round, rounds as usize));
    }
}
