//! Regenerates the **§11.3 summary of results** — the paper's headline
//! bullet list — by running all three topology experiments plus the
//! SIR floor check.
//!
//! Paper values: Alice-Bob +70 % vs traditional / +30 % vs COPE;
//! "X" +65 % / +28 %; chain +36 %; mean overlap ≈ 80 %; decoding works
//! at −3 dB SIR.
//!
//! ```text
//! cargo run --release -p anc-bench --bin summary_table -- --quick
//! ```

use anc_bench::{emit, experiment_config, from_env};
use anc_sim::experiments::{alice_bob, chain, sir_sweep, x_topology, SirSweepConfig};
use anc_sim::report::{ExperimentReport, FigureSeries};
use anc_sim::runs::RunConfig;

fn main() {
    let args = from_env();
    let cfg = experiment_config(&args);

    eprintln!("[1/4] Alice-Bob ...");
    let ab = alice_bob(&cfg);
    eprintln!("[2/4] X topology ...");
    let x = x_topology(&cfg);
    eprintln!("[3/4] chain ...");
    let ch = chain(&cfg);
    eprintln!("[4/4] SIR floor ...");
    let sir = sir_sweep(&SirSweepConfig {
        base: RunConfig {
            seed: args.seed,
            packets_per_flow: (args.packets / 10).max(10),
            payload_bits: args.payload_bits,
            ..RunConfig::default()
        },
        sir_db: vec![-3.0, 0.0, 4.0],
        runs_per_point: 2,
        threads: args.threads,
    });

    let mut report = ExperimentReport::new("summary_table_sec11_3");
    report
        .param("runs", args.runs as f64)
        .param("packets_per_flow", args.packets as f64)
        .param("payload_bits", args.payload_bits as f64)
        .param("seed", args.seed as f64);
    report
        .stat(
            "alice_bob_gain_over_traditional",
            ab.mean_gain_traditional(),
        )
        .stat("alice_bob_gain_over_cope", ab.mean_gain_cope())
        .stat("alice_bob_mean_ber", ab.mean_ber())
        .stat("x_gain_over_traditional", x.mean_gain_traditional())
        .stat("x_gain_over_cope", x.mean_gain_cope())
        .stat("x_mean_ber", x.mean_ber())
        .stat("chain_gain_over_traditional", ch.mean_gain_traditional())
        .stat("chain_mean_ber", ch.mean_ber())
        .stat("mean_overlap_fraction", ab.mean_overlap);
    for p in &sir {
        let key = format!("ber_at_sir_{:+.0}db", p.sir_db);
        report.stat(&key, p.mean_ber);
    }
    report.push_series(FigureSeries::sweep(
        "sir_floor",
        "sir_db",
        &["mean_ber", "decode_rate"],
        sir.iter()
            .map(|p| vec![p.sir_db, p.mean_ber, p.decode_rate])
            .collect(),
    ));

    println!("# §11.3 Summary of Results (paper value in parentheses)");
    println!(
        "ANC gain over traditional, Alice-Bob: {:.2} (paper ≈ 1.70)",
        ab.mean_gain_traditional()
    );
    println!(
        "ANC gain over COPE,        Alice-Bob: {:.2} (paper ≈ 1.30)",
        ab.mean_gain_cope()
    );
    println!(
        "ANC gain over traditional, X:         {:.2} (paper ≈ 1.65)",
        x.mean_gain_traditional()
    );
    println!(
        "ANC gain over COPE,        X:         {:.2} (paper ≈ 1.28)",
        x.mean_gain_cope()
    );
    println!(
        "ANC gain over traditional, chain:     {:.2} (paper ≈ 1.36)",
        ch.mean_gain_traditional()
    );
    println!(
        "Mean interfered-packet overlap:       {:.2} (paper ≈ 0.80)",
        ab.mean_overlap
    );
    println!(
        "Mean ANC BER (Alice-Bob / X / chain): {:.3} / {:.3} / {:.3} (paper ≈ 0.02-0.04 / tail / 0.01-0.015)",
        ab.mean_ber(),
        x.mean_ber(),
        ch.mean_ber()
    );
    for p in &sir {
        println!(
            "BER at SIR {:+.0} dB:                    {:.3}",
            p.sir_db, p.mean_ber
        );
    }
    println!();
    emit(&report, &args);
}
