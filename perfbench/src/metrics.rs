//! Metric names and units, and the statistics the benchmark reports.

use sv_sim::stats::Log2Histogram;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 15] = [
    ("sim_us_per_s", "sim-us/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_us", "sim-us"),
    ("fig4_a1_mb_s", "sim-MB/s"),
    ("fig4_a2_mb_s", "sim-MB/s"),
    ("fig4_a3_mb_s", "sim-MB/s"),
    ("fig4_a4_mb_s", "sim-MB/s"),
    ("fig4_a5_mb_s", "sim-MB/s"),
    ("tenant_p99_ns", "sim-ns"),
    ("msg_p50_ns", "sim-ns"),
    ("msg_p99_ns", "sim-ns"),
    ("ckpt_save_ms", "ms"),
    ("ckpt_restore_ms", "ms"),
    ("chain_restore_ms", "ms"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("core.machine.build_ms", "ms"),
    ("core.machine.load_ms", "ms"),
    ("core.runloop.run_ms", "ms"),
    ("core.runloop.node_ticks", "count"),
    ("core.runloop.skipped_node_ticks", "count"),
    ("core.runloop.wake_republishes", "count"),
    ("core.runloop.host_ns_per_tick", "ns"),
    ("arctic.replay_ns_per_packet", "ns"),
    ("arctic.replay_packets", "count"),
    ("arctic.packets_injected", "count"),
    ("arctic.link_busy_ns_max", "sim-ns"),
    ("arctic.max_link_queue", "count"),
    ("arctic.credit_stalls", "count"),
    ("arctic.credit_stall_ns", "sim-ns"),
    ("arctic.latency_hi_mean_ns", "sim-ns"),
    ("arctic.latency_lo_mean_ns", "sim-ns"),
    ("membus.bus_tenures", "count"),
    ("membus.bus_data_bytes", "bytes"),
    ("membus.bus_retries", "count"),
    ("membus.ap_mem_stall_ns", "sim-ns"),
    ("niu.ibus_busy_cycles", "count"),
    ("niu.dma_chain_steps", "count"),
    ("niu.tagon_bytes", "bytes"),
    ("niu.abiu_retries", "count"),
    ("niu.rq_cache_hits", "count"),
    ("niu.rq_cache_misses", "count"),
    ("niu.rq_lookups", "count"),
    ("niu.rq_hit_ratio", "ratio"),
    ("niu.msgs_diverted", "count"),
    ("niu.rxu_high_water", "count"),
    ("firmware.sp_busy_ns", "sim-ns"),
    ("firmware.rebinds", "count"),
    ("firmware.proto_errors", "count"),
    ("core.tenancy.slices", "count"),
    ("core.tenancy.active_ns", "sim-ns"),
    ("sim.ckpt.full_bytes", "bytes"),
    ("sim.ckpt.delta_bytes", "bytes"),
    ("sim.ckpt.save_mb_s", "MB/s"),
    ("sim.ckpt.restore_mb_s", "MB/s"),
    ("sim.ckpt.delta_save_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact nearest-rank percentile of sorted samples: the smallest sample
/// with at least `q` of all samples at or below it.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The `q`-quantile of a power-of-two histogram, interpolated linearly
/// inside the bucket that holds it and clamped to the largest sample.
/// The program's own [`Log2Histogram::quantile`] reports the bucket's
/// upper bound, which moves only when a change crosses a power of two;
/// interpolation moves with the distribution inside the bucket.
pub fn log2_quantile(h: &Log2Histogram, q: f64) -> Option<f64> {
    let count = h.summary.count;
    if count == 0 {
        return None;
    }
    let target = (count as f64 * q).ceil().max(1.0);
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n as f64 >= target {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = if i >= 63 {
                u64::MAX as f64
            } else {
                ((1u64 << (i + 1)) - 1) as f64
            };
            let frac = (target - seen) / n as f64;
            return Some((lo + frac * (hi - lo)).min(h.summary.max as f64));
        }
        seen += n as f64;
    }
    Some(h.summary.max as f64)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
    }

    #[test]
    fn log2_quantile_stays_inside_the_bucket() {
        let mut h = Log2Histogram::new();
        for v in [1000, 1100, 1200, 1300, 5000] {
            h.record(v);
        }
        // The P50 (third of five samples) sits in the [1024, 2047]
        // bucket, strictly below the bucket's upper bound.
        let p50 = log2_quantile(&h, 0.5).unwrap();
        assert!((1024.0..2047.0).contains(&p50), "{p50}");
        assert!(log2_quantile(&h, 0.99).unwrap() <= 5000.0);
        assert!(log2_quantile(&Log2Histogram::new(), 0.5).is_none());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, 3 + END_TO_END.len() + PER_LAYER.len());
    }
}
