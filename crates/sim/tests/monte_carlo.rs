//! Integration tests for the Monte Carlo impairment layer.
//!
//! The two load-bearing properties:
//!
//! 1. **parallel == serial, bit for bit** — trial seeds derive from
//!    indices and results aggregate in index order, so worker count
//!    and completion order can never change a pooled statistic;
//! 2. **passive impairments change nothing** — a scenario with
//!    `impairments: Some(passive)` produces metrics bit-identical to
//!    `impairments: None` (the golden suite separately pins that
//!    `None` matches the pre-impairment engine).

use anc_channel::ImpairmentSpec;
use anc_netcode::Scheme;
use anc_sim::monte_carlo::{monte_carlo, MonteCarloConfig};
use anc_sim::runs::{run_spec, RunConfig};
use anc_sim::ScenarioSpec;

fn quick_base(seed: u64) -> RunConfig {
    RunConfig {
        packets_per_flow: 6,
        payload_bits: 2048,
        ..RunConfig::quick(seed)
    }
}

fn faded_alice_bob() -> ScenarioSpec {
    ScenarioSpec::alice_bob().with_impairments(
        ImpairmentSpec::rayleigh_fading()
            .with_cfo(0.01)
            .with_jitter(4.0),
    )
}

#[test]
fn parallel_trials_are_bit_identical_to_serial() {
    let spec = faded_alice_bob();
    let base = MonteCarloConfig {
        trials: 5,
        base: quick_base(31),
        threads: 1,
    };
    let serial = monte_carlo(&spec, Scheme::Anc, &base).unwrap();
    let parallel =
        monte_carlo(&spec, Scheme::Anc, &MonteCarloConfig { threads: 3, ..base }).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&serial.per_trial_throughput),
        bits(&parallel.per_trial_throughput)
    );
    assert_eq!(bits(&serial.per_trial_ber), bits(&parallel.per_trial_ber));
    assert_eq!(
        bits(&serial.pooled_packet_bers),
        bits(&parallel.pooled_packet_bers)
    );
    assert_eq!(serial.ber.mean.to_bits(), parallel.ber.mean.to_bits());
    assert_eq!(
        serial.throughput.half_width.to_bits(),
        parallel.throughput.half_width.to_bits()
    );
}

#[test]
fn shared_ctx_runs_are_bit_identical_to_fresh_engines() {
    // One RunCtx carried across several runs — different seeds, both
    // schemes — must reproduce a throwaway-context run exactly: the
    // loaned scratch is capacity-only state.
    use anc_sim::{Engine, RunCtx, SchedulerSpec};
    let spec = faded_alice_bob();
    let mut ctx = RunCtx::default();
    for (seed, scheme) in [
        (31u64, Scheme::Anc),
        (32, Scheme::Anc),
        (33, Scheme::Traditional),
    ] {
        let program = spec.compile(scheme).unwrap();
        let cfg = quick_base(seed);
        let sched = SchedulerSpec::default();
        let fresh = Engine::try_run_ctx(&program, &cfg, &sched, &mut RunCtx::default()).unwrap();
        let warmed = Engine::try_run_ctx(&program, &cfg, &sched, &mut ctx).unwrap();
        assert_eq!(
            fresh.account.goodput_bits.to_bits(),
            warmed.account.goodput_bits.to_bits(),
            "seed {seed}"
        );
        assert_eq!(fresh.account.time_samples, warmed.account.time_samples);
        assert_eq!(fresh.packet_bers, warmed.packet_bers);
        assert_eq!(fresh.overlaps, warmed.overlaps);
    }
}

#[test]
fn passive_impairments_are_bit_identical_to_none() {
    let cfg = quick_base(7);
    let plain = run_spec(&ScenarioSpec::alice_bob(), Scheme::Anc, &cfg).unwrap();
    let passive = run_spec(
        &ScenarioSpec::alice_bob().with_impairments(ImpairmentSpec::passive()),
        Scheme::Anc,
        &cfg,
    )
    .unwrap();
    assert_eq!(
        plain.account.goodput_bits.to_bits(),
        passive.account.goodput_bits.to_bits()
    );
    assert_eq!(plain.account.time_samples, passive.account.time_samples);
    assert_eq!(plain.packet_bers, passive.packet_bers);
    assert_eq!(plain.overlaps, passive.overlaps);
}

#[test]
fn active_impairments_change_the_channel_but_not_the_shared_streams() {
    let cfg = quick_base(11);
    let plain = run_spec(&ScenarioSpec::alice_bob(), Scheme::Anc, &cfg).unwrap();
    let faded = run_spec(&faded_alice_bob(), Scheme::Anc, &cfg).unwrap();
    // The time-varying channel must actually vary something…
    assert!(
        plain.account.goodput_bits.to_bits() != faded.account.goodput_bits.to_bits()
            || plain.packet_bers != faded.packet_bers,
        "active impairments had no observable effect"
    );
    // …while the medium clock stays driven by the same slot structure
    // (jitter can stretch slots, but the schedule shape is unchanged:
    // the engine still runs one exchange per packet).
    assert_eq!(
        plain.account.delivered + plain.account.lost,
        faded.account.delivered + faded.account.lost
    );
}

#[test]
fn monte_carlo_under_fading_still_delivers() {
    let r = monte_carlo(
        &faded_alice_bob(),
        Scheme::Anc,
        &MonteCarloConfig {
            trials: 4,
            base: quick_base(3),
            threads: 2,
        },
    )
    .unwrap();
    assert_eq!(r.trials, 4);
    assert_eq!(r.scheme, "anc");
    // Rayleigh fades cost packets, but the sweep must not collapse.
    assert!(
        r.delivery_rate.mean > 0.3,
        "delivery under fading {}",
        r.delivery_rate.mean
    );
    assert!(r.throughput.mean > 0.0);
    assert!(r.ber.n > 0, "no trial decoded anything");
    assert!(r.ber.mean >= 0.0 && r.ber.mean <= 0.5);
    // CI bookkeeping is coherent.
    assert!(r.throughput.half_width >= 0.0);
    assert_eq!(r.per_trial_throughput.len(), 4);
}

#[test]
fn monte_carlo_is_deterministic_across_invocations() {
    let spec = faded_alice_bob();
    let cfg = MonteCarloConfig {
        trials: 3,
        base: quick_base(19),
        threads: 0,
    };
    let a = monte_carlo(&spec, Scheme::Anc, &cfg).unwrap();
    let b = monte_carlo(&spec, Scheme::Anc, &cfg).unwrap();
    assert_eq!(a.ber.mean.to_bits(), b.ber.mean.to_bits());
    assert_eq!(a.pooled_packet_bers, b.pooled_packet_bers);
}

#[test]
fn monte_carlo_surfaces_compile_errors() {
    let r = monte_carlo(
        &ScenarioSpec::chain(),
        Scheme::Cope,
        &MonteCarloConfig::quick(1),
    );
    assert!(r.is_err(), "COPE cannot schedule the unidirectional chain");
}

#[test]
fn traditional_under_fading_degrades_gracefully_too() {
    // The Fig.-14 qualitative envelope needs both arms of the
    // comparison alive under impairments.
    let r = monte_carlo(
        &faded_alice_bob(),
        Scheme::Traditional,
        &MonteCarloConfig {
            trials: 3,
            base: quick_base(23),
            threads: 2,
        },
    )
    .unwrap();
    assert!(r.delivery_rate.mean > 0.3);
}
