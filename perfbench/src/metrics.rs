//! Names and units of every metric the benchmark prints. The tests
//! check these against `BENCHMARK.json`.

/// End-to-end metrics (untraced run), `(name, unit)`. The mean BER of
/// delivered packets is reported on the `report` line only: a few
/// deep-faded packets dominate it, so it varies too much from seed to
/// seed to carry a regression bound (README.md).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("pkts_per_s", "pkt/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
    ("delivery_rate", "frac"),
    ("anc_gain", "x"),
];

/// Spans whose allocations the traced run reports per call, as
/// `alloc.<span>.count_per_call` and `alloc.<span>.bytes_per_call`.
pub const ALLOC_SPANS: [&str; 11] = [
    "core.classify",
    "core.decode",
    "channel.mix",
    "channel.amplify",
    "channel.grid.build",
    "channel.grid.query",
    "node.synthesize",
    "node.rx",
    "frame.parse",
    "sim.compile",
    "sim.run",
];

/// Per-layer metrics other than the allocation ones, `(name, unit)`.
pub const LAYER: [(&str, &str); 32] = [
    ("core.decode.calls", "count"),
    ("core.decode.busy_ns", "ns"),
    ("core.decode.ns_per_sample", "ns/sample"),
    ("core.decode.ok_ratio", "frac"),
    ("core.classify.busy_ns", "ns"),
    ("channel.mix.calls", "count"),
    ("channel.mix.busy_ns", "ns"),
    ("channel.mix.ns_per_sample", "ns/sample"),
    ("channel.amplify.busy_ns", "ns"),
    ("channel.grid.build_ns", "ns"),
    ("channel.grid.query_ns", "ns"),
    ("node.synthesize.calls", "count"),
    ("node.synthesize.busy_ns", "ns"),
    ("node.synthesize.ns_per_sample", "ns/sample"),
    ("node.rx.self_ns", "ns"),
    ("frame.parse.calls", "count"),
    ("frame.parse.busy_ns", "ns"),
    ("frame.parse.failed", "count"),
    ("runtime.ring.hop_ns", "ns"),
    ("runtime.ws.hop_ns", "ns"),
    ("runtime.ws.idle_poll_ratio", "frac"),
    ("sim.compile_ns", "ns"),
    ("sim.run.busy_ns", "ns"),
    ("sim.run.unattributed_ns", "ns"),
    ("sim.trial.ns_p50", "ns"),
    ("sim.trial.ns_max", "ns"),
    ("sim.city.window_ns", "ns"),
    ("sim.city.decode_ns", "ns"),
    ("sim.city.advance_ops", "count"),
    ("sim.city.polls", "count"),
    ("sim.city.ws_speedup", "x"),
    ("trace.overhead_frac", "frac"),
];

/// Every per-layer metric, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for span in ALLOC_SPANS {
        v.push((format!("alloc.{span}.count_per_call"), "count/call"));
        v.push((format!("alloc.{span}.bytes_per_call"), "B/call"));
    }
    v
}

/// The unit of an end-to-end metric.
pub fn end_to_end_unit(name: &str) -> Option<&'static str> {
    END_TO_END.iter().find(|(n, _)| *n == name).map(|&(_, u)| u)
}
