//! Benchmark of the ANC reproduction.
//!
//! Two binaries share this library:
//!
//! * `perfbench` runs one workload untraced for a fixed time and prints
//!   the end-to-end metrics (set-up time, pass wall time, packets per
//!   second, peak RSS, the share of operations that succeeded, and the
//!   physics guards: delivery rate and ANC gain).
//! * `perfbench_traced` installs a counting allocator, executes the
//!   same workload once with spans around every call into `anc-sim`,
//!   then replays the PHY layers (`anc-node` → `anc-channel` →
//!   `anc-core` → `anc-frame`) and the `anc-runtime` rings on inputs
//!   sized to the workload, and prints the per-layer metrics.
//!
//! Both print, as the last line of standard output, one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.
//! `README.md` next to this crate maps every metric to the layer it
//! measures and the workload it should move on.

#![forbid(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod e2e;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod trace;
pub mod traced;
pub mod workload;

pub use workload::{Scale, Workload};

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every workload input is derived from.
    pub seed: u64,
    /// Measurement budget of an untraced run, in seconds.
    pub seconds: f64,
    /// Input scale: `Full` from the command line, `Tiny` in smoke tests.
    pub scale: Scale,
    /// Where the traced run writes its spans (JSON lines), if anywhere.
    pub spans: Option<std::path::PathBuf>,
}

/// Parses `--workload NAME --seed N --seconds S [--spans PATH]`.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut spans = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value()?)?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                seconds = Some(s);
            }
            "--spans" => spans = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        scale: Scale::Full,
        spans,
    })
}

/// Parses the process arguments or exits with status 2.
pub fn args_or_exit() -> Args {
    parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!(
            "error: {e}\nusage: --workload <{}> --seed N --seconds S [--spans PATH]",
            Workload::ALL.map(Workload::name).join("|")
        );
        std::process::exit(2);
    })
}

/// Worker threads the multi-threaded workloads use: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Derives an independent 64-bit value from `seed` and a stream index
/// (SplitMix64 finalizer), so each workload input has its own seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of a sample (mean of the middle two for even counts); NaN
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_launcher_command_line() {
        let a = parse_args(strings(&[
            "--workload",
            "city_100k",
            "--seed",
            "7",
            "--seconds",
            "20",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::City100k);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert_eq!(a.scale, Scale::Full);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(strings(&["--workload", "paper_pair"])).is_err());
        assert!(parse_args(strings(&["--workload", "paper_pair", "--seed", "x"])).is_err());
        assert!(parse_args(strings(&[
            "--workload",
            "paper_pair",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
        assert!(parse_args(strings(&["--workload", "paper_pair", "--seed", "1"])).is_err());
        assert!(parse_args(strings(&["--bogus"])).is_err());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
