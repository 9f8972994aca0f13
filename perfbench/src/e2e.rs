//! The untraced run: passes of the workload's fixed work until the
//! time budget is spent, with short batches of set-up repetitions
//! before, between and (for `paper_pair`) inside them; reported as
//! medians.

use crate::metrics::end_to_end_unit;
use crate::report::{numbers, Report};
use crate::workload::{Exec, Inputs, PassOutcome, Prepared};
use crate::{median, peak_rss_mb, Args};
use serde::Value;
use std::time::Instant;

/// Length of one set-up batch (seconds). The host switches between a
/// fast and a slow speed within fractions of a second, and a µs-scale
/// set-up feels the switch far more than a pass does: one batch reads
/// one speed. Many small batches spread over the run, pooled into
/// [`SETUP_SLICES`] consecutive slices, give per-slice means that each
/// span seconds like a pass; `setup_s` is their median.
const SETUP_BATCH_S: f64 = 0.02;
/// Slices of the run whose mean set-up times `setup_s` takes the median
/// of.
const SETUP_SLICES: usize = 5;
/// Passes measured even when the time budget is smaller.
const MIN_PASSES: usize = 3;

/// Repeats the set-up for [`SETUP_BATCH_S`] (at least once), appending
/// the batch's summed time and repetition count; returns the last
/// repetition's result.
fn setup_batch(inputs: &Inputs, batches: &mut Vec<(f64, usize)>) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let (mut sum, mut n) = (0.0, 0);
    loop {
        let t = Instant::now();
        let p = inputs.setup(Exec::Parallel, &mut None);
        sum += t.elapsed().as_secs_f64();
        n += 1;
        if p.is_err() || t0.elapsed().as_secs_f64() >= SETUP_BATCH_S {
            batches.push((sum, n));
            return p;
        }
    }
}

/// Median over [`SETUP_SLICES`] consecutive slices of the batches of
/// each slice's mean set-up time.
fn slice_median(batches: &[(f64, usize)]) -> f64 {
    let per = batches.len().div_ceil(SETUP_SLICES).max(1);
    let means: Vec<f64> = batches
        .chunks(per)
        .map(|c| {
            let (sum, n) = c
                .iter()
                .fold((0.0, 0), |(s, n), &(bs, bn)| (s + bs, n + bn));
            sum / n as f64
        })
        .collect();
    median(&means)
}

/// Runs the workload untraced and reports every end-to-end metric.
pub fn run(args: &Args) -> Report {
    let inputs = Inputs::new(args.workload, args.scale, args.seed);
    let mut rep = Report::new();
    rep.detail("workload", Value::String(args.workload.name().into()));
    rep.detail("seed", Value::Number(args.seed as f64));
    rep.detail("inputs", Value::String(format!("{inputs:?}")));

    // All set-up batches together are one operation, so that the share
    // of failed operations weighs a failed pass as much as a failed
    // set-up.
    let mut batches = Vec::new();
    let mut prepared = match setup_batch(&inputs, &mut batches) {
        Ok(p) => p,
        Err(e) => {
            rep.op::<()>(Err(e));
            return rep;
        }
    };
    let mut setup: Result<(), String> = Ok(());

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<PassOutcome> = None;
    let start = Instant::now();
    loop {
        // Set-up batches also run between the engine runs of a
        // `paper_pair` pass, whose few long passes would otherwise leave
        // few batches; their time is taken out of the pass time.
        let mut batches_s = 0.0;
        let mut between = || {
            if setup.is_ok() {
                let t = Instant::now();
                setup = setup_batch(&inputs, &mut batches).map(drop);
                batches_s += t.elapsed().as_secs_f64();
            }
        };
        let t = Instant::now();
        let out = inputs.pass(&mut prepared, Exec::Parallel, &mut None, &mut between);
        let wall = t.elapsed().as_secs_f64() - batches_s;
        let checked = out.and_then(|o| {
            o.check.clone()?;
            match &first {
                Some(f) if f.fingerprint != o.fingerprint => Err(format!(
                    "pass outputs changed between passes ({:#x} then {:#x})",
                    f.fingerprint, o.fingerprint
                )),
                _ => Ok(o),
            }
        });
        if let Some(o) = rep.op(checked) {
            walls.push(wall);
            rates.push(o.delivered as f64 / wall);
            first.get_or_insert(o);
        }
        if setup.is_ok() {
            setup = setup_batch(&inputs, &mut batches).map(drop);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= MIN_PASSES && elapsed + 0.5 * wall >= args.seconds {
            break;
        }
        if rep.failed > 0 && elapsed >= args.seconds {
            break;
        }
    }
    rep.op(setup);
    // Read before the traditional reference run, which is not part of
    // the workload.
    let rss = peak_rss_mb();
    let Some(first) = first else {
        return rep;
    };
    let gain = rep.op(inputs.reference_gain(&first));

    let put = |rep: &mut Report, name: &'static str, v: f64| {
        rep.metric(name, end_to_end_unit(name).expect("registered"), v);
    };
    put(&mut rep, "setup_s", slice_median(&batches));
    put(&mut rep, "wall_s", median(&walls));
    put(&mut rep, "pkts_per_s", median(&rates));
    put(&mut rep, "peak_rss_mb", rss);
    put(&mut rep, "delivery_rate", first.delivery_rate);
    put(&mut rep, "anc_gain", gain.unwrap_or(f64::NAN));
    rep.detail("ber_mean", Value::Number(first.ber_mean));
    let ok = 1.0 - rep.failed as f64 / rep.attempted as f64;
    put(&mut rep, "ok_frac", ok);
    rep.detail("fail_frac", Value::Number(1.0 - ok));
    let batch_means: Vec<f64> = batches.iter().map(|&(s, n)| s / n as f64).collect();
    rep.detail("setup_batch_mean_s", numbers(&batch_means));
    rep.detail(
        "setup_reps",
        Value::Number(batches.iter().map(|&(_, n)| n).sum::<usize>() as f64),
    );
    rep.detail("pass_wall_s", numbers(&walls));
    rep.detail("pkts_per_s", numbers(&rates));
    rep.detail("delivered_per_pass", Value::Number(first.delivered as f64));
    rep.detail(
        "fingerprint",
        Value::String(format!("{:#018x}", first.fingerprint)),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_time_is_the_median_of_slice_means() {
        // Ten batches, five slices of two: means 1, 2, 3, 4 and 100.
        let batches = [
            (1.0, 1),
            (1.0, 1),
            (4.0, 2),
            (2.0, 1),
            (3.0, 1),
            (3.0, 1),
            (8.0, 2),
            (4.0, 1),
            (100.0, 1),
            (100.0, 1),
        ];
        assert_eq!(slice_median(&batches), 3.0);
        assert_eq!(slice_median(&[(2.0, 4)]), 0.5);
    }
}
