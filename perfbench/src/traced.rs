//! The traced run: per-layer metrics.
//!
//! 1. Set-up, repeated, with a `sim.compile` span around each compile.
//! 2. An untraced warm-up pass, the same pass with a `sim.run` span
//!    around every call into `anc-sim` and allocation counting on, then
//!    an untraced reference pass; traced against reference time is the
//!    tracing overhead. All three run one call at a time (Monte Carlo
//!    trials through `Engine::try_run_ctx`, the city on the
//!    deterministic executor) and must produce the same outputs.
//! 3. For the Monte Carlo and city workloads, the measured parallel
//!    configuration once more, untraced: its outputs must equal the
//!    serial ones, and for the city the ratio of the two wall times is
//!    the work-stealing speed-up.
//! 4. The PHY replay, sized to the exchanges and hops of the traced
//!    pass, then the spatial grid and the runtime rings.

use crate::alloc::set_counting;
use crate::layers::{city_positions, grid, replay_phy, ring_hops, PhyPlan, GRID_QUERY_BATCH};
use crate::metrics::{per_layer, ALLOC_SPANS};
use crate::report::{numbers, Report};
use crate::trace::{SpanStats, Tracer};
use crate::workload::{Exec, Inputs, PassOutcome, Prepared, Workload};
use crate::{derive_seed, median, nproc, Args, Scale};
use anc_sim::CityConfig;
use serde::Value;
use std::time::Instant;

/// Traced set-up repetitions.
const SETUPS: usize = 21;
/// Pass-through stages and ring capacity of the runtime measurement
/// (the capacity is the engine's default ring depth).
const RING_STAGES: usize = 3;
const RING_CAPACITY: usize = 8;
/// Grid builds timed.
const GRID_BUILDS: usize = 5;

/// Runs the workload traced and reports every per-layer metric.
pub fn run(args: &Args) -> Report {
    let inputs = Inputs::new(args.workload, args.scale, args.seed);
    let tiny = args.scale == Scale::Tiny;
    let mut rep = Report::new();
    rep.detail("workload", Value::String(args.workload.name().into()));
    rep.detail("seed", Value::Number(args.seed as f64));
    let mut tr = Tracer::new();
    set_counting(true);

    // 1. Set-up.
    let mut compile_ns = Vec::new();
    let mut prepared: Result<Option<Prepared>, String> = Ok(None);
    for _ in 0..if tiny { 3 } else { SETUPS } {
        let first = tr.spans().len();
        prepared = tr
            .op("setup", |t| inputs.setup(Exec::Serial, &mut Some(t)))
            .map(Some);
        let ns: u64 = tr.spans()[first..]
            .iter()
            .filter(|s| s.name == "sim.compile")
            .map(|s| s.ns())
            .sum();
        compile_ns.push(ns as f64);
        if prepared.is_err() {
            break;
        }
    }
    let Some(Some(mut prepared)) = rep.op(prepared) else {
        set_counting(false);
        return rep;
    };

    // 2. A warm-up pass, the traced pass, then the untraced reference.
    set_counting(false);
    let t = Instant::now();
    let warm = inputs.pass(&mut prepared, Exec::Serial, &mut None, &mut || ());
    rep.detail("warmup_pass_s", Value::Number(t.elapsed().as_secs_f64()));
    let warm = rep.op(warm.and_then(checked));
    set_counting(true);
    let first_run = tr.spans().len();
    let t = Instant::now();
    let traced = tr.op("pass", |t| {
        inputs.pass(&mut prepared, Exec::Serial, &mut Some(t), &mut || ())
    });
    let w_traced = t.elapsed().as_secs_f64();
    set_counting(false);
    let t = Instant::now();
    let reference = inputs.pass(&mut prepared, Exec::Serial, &mut None, &mut || ());
    let w_ref = t.elapsed().as_secs_f64();
    let reference = rep.op(reference.and_then(checked));
    let run_ns: Vec<f64> = tr.spans()[first_run..]
        .iter()
        .filter(|s| s.name == "sim.run")
        .map(|s| s.ns() as f64)
        .collect();
    let Some(traced) = rep.op(traced.and_then(checked)) else {
        return rep;
    };
    for (what, other) in [("warm-up pass", &warm), ("reference pass", &reference)] {
        if let Some(o) = other {
            rep.op(same_outputs(what, o, &traced));
        }
    }

    // 3. The parallel configuration, untraced.
    let mut ws_speedup = 0.0;
    if args.workload != Workload::PaperPair {
        if let Some(mut par) = rep.op(inputs.setup(Exec::Parallel, &mut None)) {
            let t = Instant::now();
            let out = inputs.pass(&mut par, Exec::Parallel, &mut None, &mut || ());
            let w_par = t.elapsed().as_secs_f64();
            if let Some(out) = rep.op(out.and_then(checked)) {
                rep.op(same_outputs("parallel pass", &traced, &out));
                rep.detail("parallel_wall_s", Value::Number(w_par));
                if args.workload == Workload::City100k {
                    ws_speedup = w_ref / w_par;
                }
            }
        }
    }

    // 4. Layer replays.
    set_counting(true);
    let plan = PhyPlan {
        exchanges: traced.exchanges,
        clean_hops: traced.clean_hops,
        payload_bits: inputs.payload_bits(),
        noise_power: inputs.noise_power(),
        seed: derive_seed(args.seed, 1000),
    };
    let t = Instant::now();
    let phy = replay_phy(&plan, &mut tr);
    rep.detail("replay_wall_s", Value::Number(t.elapsed().as_secs_f64()));
    rep.op(if 2 * phy.rx_ok >= phy.rx_calls && phy.rx_calls > 0 {
        Ok(())
    } else {
        Err(format!(
            "PHY replay decoded {} of {} receptions",
            phy.rx_ok, phy.rx_calls
        ))
    });
    let cells = if tiny { 400 } else { 33_400 };
    let positions = city_positions(cells, derive_seed(args.seed, 1001));
    let found = grid(
        &positions,
        CityConfig::default().gate_radius(),
        GRID_BUILDS,
        &mut tr,
    );
    set_counting(false);
    let items = if tiny { 5_000 } else { 100_000 };
    let det = rep.op(ring_hops(items, RING_STAGES, RING_CAPACITY, 0));
    let ws = rep.op(ring_hops(items, RING_STAGES, RING_CAPACITY, nproc()));

    // Metrics.
    let stats = tr.stats();
    let s = |name: &str| stats.get(name).copied().unwrap_or_default();
    let units = per_layer();
    let mut put = |name: &str, v: f64| {
        let unit = units
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("unregistered metric {name}"));
        rep.metric(name, unit, v);
    };
    let decode = s("core.decode");
    put("core.decode.calls", decode.calls as f64);
    put("core.decode.busy_ns", decode.busy_ns as f64);
    put("core.decode.ns_per_sample", decode.ns_per_sample());
    put(
        "core.decode.ok_ratio",
        phy.decode_ok as f64 / phy.decode_calls.max(1) as f64,
    );
    put("core.classify.busy_ns", s("core.classify").busy_ns as f64);
    let mix = s("channel.mix");
    put("channel.mix.calls", mix.calls as f64);
    put("channel.mix.busy_ns", mix.busy_ns as f64);
    put("channel.mix.ns_per_sample", mix.ns_per_sample());
    put(
        "channel.amplify.busy_ns",
        s("channel.amplify").busy_ns as f64,
    );
    put(
        "channel.grid.build_ns",
        median(&tr.durations("channel.grid.build")),
    );
    let query = s("channel.grid.query");
    put(
        "channel.grid.query_ns",
        query.busy_ns as f64 / query.samples.max(1) as f64,
    );
    let synth = s("node.synthesize");
    put("node.synthesize.calls", synth.calls as f64);
    put("node.synthesize.busy_ns", synth.busy_ns as f64);
    put("node.synthesize.ns_per_sample", synth.ns_per_sample());
    put("node.rx.self_ns", phy.rx_self_ns as f64);
    let parse = s("frame.parse");
    put("frame.parse.calls", parse.calls as f64);
    put("frame.parse.busy_ns", parse.busy_ns as f64);
    put("frame.parse.failed", phy.parse_failed as f64);
    let hop = |h: &Option<crate::layers::Hops>| h.map_or(f64::NAN, |h| h.ns_per_hop);
    put("runtime.ring.hop_ns", hop(&det));
    put("runtime.ws.hop_ns", hop(&ws));
    put(
        "runtime.ws.idle_poll_ratio",
        ws.map_or(f64::NAN, |h| h.idle_poll_ratio),
    );
    put("sim.compile_ns", median(&compile_ns));
    let busy: f64 = run_ns.iter().sum();
    put("sim.run.busy_ns", busy);
    // The city decodes with `AncDecoder` directly; the engine receives
    // through `RxChain::process`.
    let attributed = if args.workload == Workload::City100k {
        phy.layer_ns - phy.rx_ns + phy.decode_parse_ns
    } else {
        phy.layer_ns
    };
    put("sim.run.unattributed_ns", busy - attributed as f64);
    put("sim.trial.ns_p50", median(&run_ns));
    put(
        "sim.trial.ns_max",
        run_ns.iter().copied().fold(f64::NAN, f64::max),
    );
    let (profile, advance_ops, polls) = traced.city.unwrap_or_default();
    put("sim.city.window_ns", profile.window_assembly_ns as f64);
    put("sim.city.decode_ns", profile.decode_ns as f64);
    put("sim.city.advance_ops", advance_ops as f64);
    put("sim.city.polls", polls as f64);
    put("sim.city.ws_speedup", ws_speedup);
    put("trace.overhead_frac", (w_traced - w_ref) / w_ref);
    for span in ALLOC_SPANS {
        let st: SpanStats = s(span);
        // A query span batches many queries: report per query.
        let calls = if span == "channel.grid.query" {
            st.samples
        } else {
            st.calls
        };
        put(
            &format!("alloc.{span}.count_per_call"),
            st.allocs as f64 / calls.max(1) as f64,
        );
        put(
            &format!("alloc.{span}.bytes_per_call"),
            st.bytes as f64 / calls.max(1) as f64,
        );
    }

    rep.detail("reference_pass_s", Value::Number(w_ref));
    rep.detail("traced_pass_s", Value::Number(w_traced));
    rep.detail("run_ns", numbers(&run_ns));
    rep.detail("replay_exchanges", Value::Number(plan.exchanges as f64));
    rep.detail("replay_clean_hops", Value::Number(plan.clean_hops as f64));
    rep.detail(
        "replay_rx_ok",
        Value::String(format!("{}/{}", phy.rx_ok, phy.rx_calls)),
    );
    rep.detail("grid_candidates", Value::Number(found as f64));
    rep.detail("grid_query_batch", Value::Number(GRID_QUERY_BATCH as f64));
    rep.detail("spans", Value::Number(tr.spans().len() as f64));
    if let Some(path) = &args.spans {
        if let Err(e) = tr.write_jsonl(path) {
            rep.problem(format!("writing {}: {e}", path.display()));
        }
    }
    rep
}

fn checked(o: PassOutcome) -> Result<PassOutcome, String> {
    o.check.clone()?;
    Ok(o)
}

fn same_outputs(what: &str, a: &PassOutcome, b: &PassOutcome) -> Result<(), String> {
    if a.fingerprint == b.fingerprint {
        Ok(())
    } else {
        Err(format!(
            "{what} outputs differ: {:#x} vs {:#x}",
            a.fingerprint, b.fingerprint
        ))
    }
}
