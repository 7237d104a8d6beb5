//! `link_slow`: one `Driver` over one `System` on the prototyping link, no
//! farm and no threads, doing synchronous `exec_asm` + `read_reg` round
//! trips.
//!
//! Almost every simulated cycle is link latency, which `System::run_until`
//! may skip rather than step; `serve` and `farm` are bypassed entirely.

use fu_host::{Driver, LinkModel, System};
use fu_rtm::CoprocConfig;
use fu_units::standard_units;

use crate::gen::Rng;
use crate::harness::{timed, Episode, SimDigest, Threads, Workload};
use crate::host::quantile_u64;
use crate::spans::span;

/// Round trips per episode.
const ROUND_TRIPS: usize = 8_000;
/// Per-call cycle budget of the driver.
const TIMEOUT: u64 = 1_000_000;

struct RoundTrip {
    x: u32,
    y: u32,
    line: String,
    expect: u64,
}

/// The round trips, generated once from the seed.
pub struct LinkSlow {
    trips: Vec<RoundTrip>,
}

impl LinkSlow {
    /// Generate the round trips for `seed`: two operands, one ALU op on
    /// them, one readback.
    pub fn new(seed: u64) -> LinkSlow {
        let mut rng = Rng::new(seed, 0x11_0000);
        let trips = (0..ROUND_TRIPS)
            .map(|_| {
                let (x, y) = (rng.next_u32(), rng.next_u32());
                let (op, v) = match rng.below(5) {
                    0 => ("ADD", x.wrapping_add(y)),
                    1 => ("SUB", x.wrapping_sub(y)),
                    2 => ("XOR", x ^ y),
                    3 => ("OR", x | y),
                    _ => ("AND", x & y),
                };
                RoundTrip {
                    x,
                    y,
                    line: format!("{op} r3, r1, r2, f1"),
                    expect: u64::from(v),
                }
            })
            .collect();
        LinkSlow { trips }
    }
}

impl Workload for LinkSlow {
    type Sut = Driver;

    fn build(&self, _threads: Threads) -> Driver {
        let coproc = CoprocConfig::default();
        let units = standard_units(coproc.word_bits);
        let sys = System::new(coproc, units, LinkModel::prototyping())
            .expect("the standard configuration is valid");
        Driver::new(sys, TIMEOUT)
    }

    fn run(&self, mut drv: Driver) -> Episode {
        let mut ep = Episode::new(self.trips.len());
        let mut cycles = Vec::with_capacity(self.trips.len());
        let mut completed = 0u64;
        timed(&mut ep, |ep| {
            for (i, trip) in self.trips.iter().enumerate() {
                let before = drv.cycles();
                let t = std::time::Instant::now();
                let got = span("driver.roundtrip", i as u64, || {
                    drv.write_reg(1, u64::from(trip.x));
                    drv.write_reg(2, u64::from(trip.y));
                    span("driver.exec_asm", i as u64, || drv.exec_asm(&trip.line))?;
                    span("driver.read_reg", i as u64, || drv.read_reg(3))
                });
                ep.calls_us.push(t.elapsed().as_secs_f64() * 1e6);
                ep.step();
                cycles.push(drv.cycles() - before);
                match got {
                    Ok(v) if v.as_u64() == trip.expect => completed += 1,
                    other => ep.fail(|| format!("round trip {i}: got {other:?}")),
                }
            }
        });
        let sys = drv.system();
        ep.attempted = self.trips.len() as u64;
        ep.digest = SimDigest {
            offered: ep.attempted,
            admitted: ep.attempted,
            completed,
            ops: completed,
            elapsed_cycles: sys.cycle(),
            latency_p99: quantile_u64(&mut cycles, 0.99),
            rounds: ep.attempted,
            sim: sys.sim_stats(),
            frames: sys.frames_carried(),
            xi_sorts: 0,
            xi_rounds: 0,
            shard_work: Vec::new(),
        };
        ep
    }

    fn has_farm(&self) -> bool {
        false
    }
}
