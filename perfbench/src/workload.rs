//! The three workloads: their inputs (derived from the seed alone),
//! their set-up, one pass of their fixed work, and the output checks.

use crate::trace::Tracer;
use crate::{derive_seed, nproc};
use anc_channel::ImpairmentSpec;
use anc_netcode::Scheme;
use anc_sim::metrics::gain;
use anc_sim::monte_carlo::{aggregate, monte_carlo_trials};
use anc_sim::{
    CityConfig, CityOutcome, CityProfile, CityRun, Engine, MonteCarloConfig, Program, RunConfig,
    RunCtx, RunMetrics, ScenarioSpec, SchedulerSpec,
};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Alice-Bob, ANC and traditional on the same seeds, one thread.
    PaperPair,
    /// Monte Carlo over the impaired "X" topology on a worker pool.
    McXImpaired,
    /// The 100k-node city rung on the work-stealing executor.
    City100k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperPair,
        Workload::McXImpaired,
        Workload::City100k,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPair => "paper_pair",
            Workload::McXImpaired => "mc_x_impaired",
            Workload::City100k => "city_100k",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// Input scale: `Full` is what the benchmark measures, `Tiny` keeps
/// every code path but shrinks the work so smoke tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// How a pass executes where the workload has a choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The measured configuration: the Monte Carlo pool or the
    /// work-stealing city executor with one thread per core.
    Parallel,
    /// One call at a time on the calling thread (Monte Carlo trials
    /// through `Engine::try_run_ctx`, the city on the deterministic
    /// executor) — the shape the traced run times.
    Serial,
}

/// The paper's Alice-Bob throughput gain (§11.4: +70 %) and the band
/// the `paper_claims` tests accept around it.
pub const PAPER_GAIN: f64 = 1.70;
/// Half-width of the accepted band around [`PAPER_GAIN`].
pub const PAPER_GAIN_TOLERANCE: f64 = 0.15;

/// Everything one workload runs, derived from the benchmark seed.
// Built once per run: the size difference between variants costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Inputs {
    /// One run configuration per paired seed.
    PaperPair {
        /// The paired runs (each executed under ANC and traditional).
        runs: Vec<RunConfig>,
    },
    /// One Monte Carlo sweep.
    McX {
        /// The impaired "X" scenario.
        spec: ScenarioSpec,
        /// Trials, per-trial run configuration and pool size.
        cfg: MonteCarloConfig,
    },
    /// One city run.
    City {
        /// The city.
        cfg: CityConfig,
        /// Work-stealing executor threads.
        workers: usize,
    },
}

impl Inputs {
    /// Derives the inputs of `workload` at `scale` from `seed`.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Inputs {
        let tiny = scale == Scale::Tiny;
        match workload {
            Workload::PaperPair => {
                let (seeds, packets) = if tiny { (1, 6) } else { (3, 100) };
                Inputs::PaperPair {
                    runs: (0..seeds)
                        .map(|i| RunConfig {
                            seed: derive_seed(seed, i),
                            packets_per_flow: packets,
                            payload_bits: 8192,
                            ..RunConfig::default()
                        })
                        .collect(),
                }
            }
            Workload::McXImpaired => {
                let (trials, packets, bits) = if tiny { (4, 4, 256) } else { (128, 24, 1024) };
                let mut spec = ScenarioSpec::x();
                spec.impairments = Some(ImpairmentSpec {
                    phase_redraw: true,
                    rayleigh: true,
                    cfo_max: 1e-4,
                    jitter_max: 8.0,
                });
                Inputs::McX {
                    spec,
                    cfg: MonteCarloConfig {
                        trials,
                        base: RunConfig {
                            seed: derive_seed(seed, 0),
                            packets_per_flow: packets,
                            payload_bits: bits,
                            ..RunConfig::default()
                        },
                        threads: nproc(),
                    },
                }
            }
            Workload::City100k => {
                let (cells_x, rows, rounds, offered) = if tiny {
                    (12, 4, 2, 0.3)
                } else {
                    (167, 200, 4, 0.1)
                };
                Inputs::City {
                    cfg: CityConfig {
                        cells_x,
                        rows,
                        seed: derive_seed(seed, 0),
                        rounds,
                        offered,
                        payload_bits: 128,
                        ..CityConfig::default()
                    },
                    workers: nproc(),
                }
            }
        }
    }

    /// Payload bits per packet.
    pub fn payload_bits(&self) -> usize {
        match self {
            Inputs::PaperPair { runs } => runs[0].payload_bits,
            Inputs::McX { cfg, .. } => cfg.base.payload_bits,
            Inputs::City { cfg, .. } => cfg.payload_bits,
        }
    }

    /// Receiver noise power.
    pub fn noise_power(&self) -> f64 {
        match self {
            Inputs::PaperPair { runs } => runs[0].noise_power,
            Inputs::McX { cfg, .. } => cfg.base.noise_power,
            Inputs::City { cfg, .. } => cfg.noise_power,
        }
    }

    /// The city executor for `exec`.
    fn city_sched(workers: usize, exec: Exec) -> SchedulerSpec {
        match exec {
            Exec::Parallel => SchedulerSpec::work_stealing(workers),
            Exec::Serial => SchedulerSpec::deterministic(),
        }
    }

    /// The calls a run makes before its first packet: scenario
    /// compilation per scheme, run-context creation and one zero-packet
    /// run per program (engine construction, block graph, scheduler)
    /// for the engine workloads; `build()` plus a zero-round execute
    /// for the city.
    pub fn setup(&self, exec: Exec, tracer: &mut Option<&mut Tracer>) -> Result<Prepared, String> {
        match self {
            Inputs::PaperPair { runs } => {
                let spec = ScenarioSpec::alice_bob();
                let programs = vec![
                    compile(&spec, Scheme::Anc, tracer)?,
                    compile(&spec, Scheme::Traditional, tracer)?,
                ];
                let mut ctxs = vec![RunCtx::default()];
                zero_packet_runs(&programs, &runs[0], &mut ctxs[0])?;
                Ok(Prepared::Engine { programs, ctxs })
            }
            Inputs::McX { spec, cfg } => {
                let programs = vec![compile(spec, Scheme::Anc, tracer)?];
                let workers = match exec {
                    Exec::Parallel => cfg.threads.max(1),
                    Exec::Serial => 1,
                };
                let mut ctxs: Vec<RunCtx> = (0..workers).map(|_| RunCtx::default()).collect();
                zero_packet_runs(&programs, &cfg.base, &mut ctxs[0])?;
                Ok(Prepared::Engine { programs, ctxs })
            }
            Inputs::City { cfg, workers } => {
                let sched = Inputs::city_sched(*workers, exec);
                let build = |cfg: CityConfig| {
                    CityConfig::builder(Scheme::Anc)
                        .config(cfg)
                        .scheduler(sched)
                        .build()
                        .map_err(|e| format!("city build: {e}"))
                };
                let run = Tracer::time_opt(tracer, "sim.compile", || build(cfg.clone()))?;
                let empty = build(CityConfig {
                    rounds: 0,
                    ..cfg.clone()
                })?
                .execute()
                .map_err(|e| format!("zero-round city run: {e}"))?;
                if empty.offered != 0 || empty.delivered != 0 {
                    return Err("a zero-round city carried traffic".into());
                }
                Ok(Prepared::City(Box::new(run)))
            }
        }
    }

    /// Executes one pass of the workload's fixed work and checks its
    /// outputs. With a tracer, each call into `anc-sim` is a
    /// `sim.run` span. `between` runs after each engine run of a
    /// `paper_pair` pass; its time is the caller's to exclude.
    pub fn pass(
        &self,
        prepared: &mut Prepared,
        exec: Exec,
        tracer: &mut Option<&mut Tracer>,
        between: &mut dyn FnMut(),
    ) -> Result<PassOutcome, String> {
        match (self, prepared) {
            (Inputs::PaperPair { runs }, Prepared::Engine { programs, ctxs }) => {
                paper_pair_pass(runs, programs, &mut ctxs[0], tracer, between)
            }
            (Inputs::McX { spec, cfg }, Prepared::Engine { programs, ctxs }) => match exec {
                Exec::Parallel => {
                    let trials = Tracer::time_opt(tracer, "sim.run", || {
                        monte_carlo_trials(spec, Scheme::Anc, cfg)
                    })
                    .map_err(|e| format!("monte carlo: {e}"))?;
                    mc_outcome(spec, cfg, &trials)
                }
                Exec::Serial => {
                    let sched = SchedulerSpec::deterministic();
                    let mut trials = Vec::with_capacity(cfg.trials);
                    for idx in 0..cfg.trials {
                        let mut rc = cfg.base.clone();
                        rc.seed = trial_seed(cfg.base.seed, idx);
                        let m = Tracer::time_opt(tracer, "sim.run", || {
                            Engine::try_run_ctx(&programs[0], &rc, &sched, &mut ctxs[0])
                        })
                        .map_err(|e| format!("trial {idx}: {e}"))?;
                        trials.push(m);
                    }
                    mc_outcome(spec, cfg, &trials)
                }
            },
            (Inputs::City { .. }, Prepared::City(run)) => {
                let (out, profile) = Tracer::time_opt(tracer, "sim.run", || run.execute_profiled())
                    .map_err(|e| format!("city run: {e}"))?;
                city_outcome(out, profile)
            }
            _ => Err("set-up does not match the workload".into()),
        }
    }

    /// ANC goodput over traditional goodput for the workloads whose
    /// pass runs ANC only: the same inputs under the traditional
    /// scheme, executed once outside the timed passes.
    pub fn reference_gain(&self, anc: &PassOutcome) -> Result<f64, String> {
        match self {
            Inputs::PaperPair { .. } => anc
                .anc_gain
                .ok_or_else(|| "paper_pair pass carries its own gain".to_string()),
            Inputs::McX { spec, cfg } => {
                let trad = monte_carlo_trials(spec, Scheme::Traditional, cfg)
                    .map_err(|e| format!("traditional monte carlo: {e}"))?;
                let t = aggregate(&spec.name, &trad).throughput.mean;
                Ok(anc.throughput / t)
            }
            Inputs::City { cfg, workers } => {
                let trad = CityConfig::builder(Scheme::Traditional)
                    .config(cfg.clone())
                    .scheduler(Inputs::city_sched(*workers, Exec::Parallel))
                    .build()
                    .and_then(|r| r.execute())
                    .map_err(|e| format!("traditional city: {e}"))?;
                Ok(anc.throughput / city_throughput(&trad))
            }
        }
    }
}

/// The seed of Monte Carlo trial `idx`, derived exactly as
/// `anc_sim::monte_carlo` derives it (the traced run checks that its
/// serial trials reproduce the pool's results bit for bit).
pub fn trial_seed(base: u64, idx: usize) -> u64 {
    base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx as u64 + 1))
}

fn compile(
    spec: &ScenarioSpec,
    scheme: Scheme,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Program, String> {
    Tracer::time_opt(tracer, "sim.compile", || spec.compile(scheme))
        .map_err(|e| format!("compile {} under {scheme:?}: {e}", spec.name))
}

/// Runs every program once with no packets: everything a run builds
/// before its first packet, and nothing after.
fn zero_packet_runs(programs: &[Program], rc: &RunConfig, ctx: &mut RunCtx) -> Result<(), String> {
    let rc = RunConfig {
        packets_per_flow: 0,
        ..rc.clone()
    };
    for program in programs {
        let m = Engine::try_run_ctx(program, &rc, &SchedulerSpec::deterministic(), ctx)
            .map_err(|e| format!("zero-packet run of {}: {e}", program.name))?;
        if m.account.delivered + m.account.lost != 0 {
            return Err(format!(
                "a zero-packet run of {} carried traffic",
                program.name
            ));
        }
    }
    Ok(())
}

/// What [`Inputs::setup`] leaves ready for the passes.
pub enum Prepared {
    /// Compiled programs (ANC first) and one run context per worker.
    Engine {
        /// Compiled programs, ANC first.
        programs: Vec<Program>,
        /// Reusable run contexts.
        ctxs: Vec<RunCtx>,
    },
    /// A built city run.
    City(Box<CityRun>),
}

/// What one pass produced, reduced to what the metrics and checks
/// need.
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// Packets delivered end to end, over every run of the pass.
    pub delivered: u64,
    /// ANC delivered over ANC attempted.
    pub delivery_rate: f64,
    /// ANC throughput (goodput per sample, or delivered packets per
    /// slot in the city).
    pub throughput: f64,
    /// ANC gain over traditional, when the pass ran both schemes.
    pub anc_gain: Option<f64>,
    /// Mean BER of delivered ANC packets.
    pub ber_mean: f64,
    /// Hash of every deterministic output; equal on every pass.
    pub fingerprint: u64,
    /// ANC packet exchanges (two packets each) the pass attempted.
    pub exchanges: u64,
    /// Single-packet hops of the traditional runs.
    pub clean_hops: u64,
    /// Set when an output check failed.
    pub check: Result<(), String>,
    /// The city's stage profile and work counters.
    pub city: Option<(CityProfile, u64, u64)>,
}

fn fnv(h: &mut u64, w: u64) {
    *h ^= w;
    *h = h.wrapping_mul(0x1000_0000_01b3);
}

fn hash_metrics(h: &mut u64, m: &RunMetrics) {
    fnv(h, m.account.goodput_bits.to_bits());
    fnv(h, m.account.time_samples.to_bits());
    fnv(h, m.account.delivered as u64);
    fnv(h, m.account.lost as u64);
    for b in &m.packet_bers {
        fnv(h, b.to_bits());
    }
}

fn paper_pair_pass(
    runs: &[RunConfig],
    programs: &[Program],
    ctx: &mut RunCtx,
    tracer: &mut Option<&mut Tracer>,
    between: &mut dyn FnMut(),
) -> Result<PassOutcome, String> {
    let sched = SchedulerSpec::deterministic();
    let mut gains = Vec::with_capacity(runs.len());
    let mut bers = Vec::new();
    let (mut delivered, mut anc_delivered, mut anc_attempted) = (0u64, 0u64, 0u64);
    let (mut goodput, mut time) = (0.0, 0.0);
    let mut clean_hops = 0u64;
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    let mut problems = Vec::new();
    for rc in runs {
        let mut run = |program: &Program| {
            let m = Tracer::time_opt(tracer, "sim.run", || {
                Engine::try_run_ctx(program, rc, &sched, ctx)
            })
            .map_err(|e| format!("seed {}: {e}", rc.seed));
            between();
            m
        };
        let anc = run(&programs[0])?;
        let trad = run(&programs[1])?;
        hash_metrics(&mut fp, &anc);
        hash_metrics(&mut fp, &trad);
        gains.push(gain(&anc, &trad));
        bers.extend_from_slice(&anc.packet_bers);
        delivered += (anc.account.delivered + trad.account.delivered) as u64;
        anc_delivered += anc.account.delivered as u64;
        anc_attempted += (anc.account.delivered + anc.account.lost) as u64;
        goodput += anc.account.goodput_bits;
        time += anc.account.time_samples;
        // Alice-Bob without coding: every packet crosses two hops.
        clean_hops += 2 * (trad.account.delivered + trad.account.lost) as u64;
        if trad.account.delivery_rate() != 1.0 {
            problems.push(format!(
                "seed {}: traditional delivery {} != 1",
                rc.seed,
                trad.account.delivery_rate()
            ));
        }
    }
    let anc_gain = gains.iter().sum::<f64>() / gains.len() as f64;
    if (anc_gain - PAPER_GAIN).abs() > PAPER_GAIN_TOLERANCE || !anc_gain.is_finite() {
        problems.push(format!(
            "ANC gain {anc_gain:.4} outside {PAPER_GAIN} ± {PAPER_GAIN_TOLERANCE}"
        ));
    }
    Ok(PassOutcome {
        delivered,
        delivery_rate: anc_delivered as f64 / anc_attempted.max(1) as f64,
        throughput: goodput / time,
        anc_gain: Some(anc_gain),
        ber_mean: bers.iter().sum::<f64>() / bers.len().max(1) as f64,
        fingerprint: fp,
        exchanges: anc_attempted / 2,
        clean_hops,
        check: verdict(problems),
        city: None,
    })
}

fn mc_outcome(
    spec: &ScenarioSpec,
    cfg: &MonteCarloConfig,
    trials: &[RunMetrics],
) -> Result<PassOutcome, String> {
    let result = aggregate(&spec.name, trials);
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    trials.iter().for_each(|m| hash_metrics(&mut fp, m));
    let mut problems = Vec::new();
    if result.trials != cfg.trials || trials.len() != cfg.trials {
        problems.push(format!(
            "{} trials ran, {} requested",
            result.trials, cfg.trials
        ));
    }
    for (name, ci) in [
        ("ber", result.ber),
        ("throughput", result.throughput),
        ("delivery_rate", result.delivery_rate),
    ] {
        if !(ci.mean.is_finite() && ci.half_width.is_finite()) {
            problems.push(format!("{name} CI is not finite: {ci:?}"));
        }
    }
    let delivered: usize = trials.iter().map(|m| m.account.delivered).sum();
    let attempted: usize = trials
        .iter()
        .map(|m| m.account.delivered + m.account.lost)
        .sum();
    Ok(PassOutcome {
        delivered: delivered as u64,
        delivery_rate: result.delivery_rate.mean,
        throughput: result.throughput.mean,
        anc_gain: None,
        ber_mean: result.ber.mean,
        fingerprint: fp,
        exchanges: attempted as u64 / 2,
        clean_hops: 0,
        check: verdict(problems),
        city: None,
    })
}

/// Delivered packets per slot of the horizon.
fn city_throughput(out: &CityOutcome) -> f64 {
    out.delivered as f64 / (out.rounds * out.slots_per_round) as f64
}

fn city_outcome(out: CityOutcome, profile: CityProfile) -> Result<PassOutcome, String> {
    let mut problems = Vec::new();
    if out.delivered + out.lost != 2 * out.offered {
        problems.push(format!(
            "conservation broken: delivered {} + lost {} != 2 x offered {}",
            out.delivered, out.lost, out.offered
        ));
    }
    Ok(PassOutcome {
        delivered: out.delivered,
        delivery_rate: out.delivery_rate(),
        throughput: city_throughput(&out),
        anc_gain: None,
        ber_mean: out.ber.mean(),
        fingerprint: out.fingerprint(),
        exchanges: out.offered,
        clean_hops: 0,
        check: verdict(problems),
        city: Some((profile, out.advance_ops, out.polls)),
    })
}

fn verdict(problems: Vec<String>) -> Result<(), String> {
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}
