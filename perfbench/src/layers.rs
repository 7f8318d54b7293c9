//! Per-layer counters read from the program's own deterministic
//! statistics ([`voyager::Machine::stats`] and the Arctic network's
//! per-priority latency summaries), summed over the final machines of
//! one workload iteration.

use std::collections::BTreeMap;
use voyager::{Machine, MachineStats};

/// Deterministic per-layer counts of one iteration.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    node_ticks: u64,
    skipped_node_ticks: u64,
    wake_republishes: u64,
    packets_injected: u64,
    link_busy_ns_max: u64,
    max_link_queue: u64,
    credit_stalls: u64,
    credit_stall_ns: u64,
    hi_sum_ns: u64,
    hi_count: u64,
    lo_sum_ns: u64,
    lo_count: u64,
    bus_tenures: u64,
    bus_data_bytes: u64,
    bus_retries: u64,
    ap_mem_stall_ns: u64,
    ibus_busy_cycles: u64,
    dma_chain_steps: u64,
    tagon_bytes: u64,
    abiu_retries: u64,
    rq_cache_hits: u64,
    rq_cache_misses: u64,
    msgs_diverted: u64,
    rxu_high_water: u64,
    sp_busy_ns: u64,
    rebinds: u64,
    proto_errors: u64,
    tenancy_slices: u64,
    tenancy_active_ns: u64,
}

impl LayerCounts {
    /// Add one final machine (`st` is its `stats()`).
    pub fn add(&mut self, m: &Machine, st: &MachineStats) {
        self.node_ticks += st.run.node_ticks;
        self.skipped_node_ticks += st.run.skipped_node_ticks;
        self.wake_republishes += st.run.wake_republishes;
        let net = &st.network;
        self.packets_injected += net.injected;
        let busiest = net.links.iter().map(|l| l.busy_ns).max().unwrap_or(0);
        self.link_busy_ns_max = self.link_busy_ns_max.max(busiest);
        self.max_link_queue = self.max_link_queue.max(net.max_link_queue);
        if let Some(q) = &net.qos {
            self.credit_stalls += q.credit_stalls;
            self.credit_stall_ns += q.credit_stall_ns;
        }
        let ns = &m.network.stats;
        self.hi_sum_ns += ns.latency_hi.sum;
        self.hi_count += ns.latency_hi.count;
        self.lo_sum_ns += ns.latency_lo.sum;
        self.lo_count += ns.latency_lo.count;
        for n in &st.nodes {
            self.bus_tenures += n.bus.tenures;
            self.bus_data_bytes += n.bus.data_bytes;
            self.bus_retries += n.bus.retries;
            self.ap_mem_stall_ns += n.cpu.mem_stall_ns;
            self.ibus_busy_cycles += n.niu.ibus_busy_cycles;
            self.dma_chain_steps += n.niu.dma_chain_steps;
            self.tagon_bytes += n.niu.tagon_bytes;
            self.abiu_retries += n.niu.abiu_retries;
            self.rq_cache_hits += n.niu.rq_cache_hits;
            self.rq_cache_misses += n.niu.rq_cache_misses;
            self.msgs_diverted += n.niu.msgs_diverted;
            self.rxu_high_water = self.rxu_high_water.max(n.niu.rxu_high_water);
            self.sp_busy_ns += n.fw.busy_ns;
            self.proto_errors += n.fw.proto_errors;
            if let Some(t) = &n.tenants {
                self.rebinds += t.rebinds;
                for row in &t.tenants {
                    self.tenancy_slices += row.slices;
                    self.tenancy_active_ns += row.active_ns;
                }
            }
        }
    }

    /// Write the counters under their per-layer metric names.
    pub fn write(&self, out: &mut BTreeMap<&'static str, f64>) {
        let mean = |sum: u64, count: u64| {
            if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            }
        };
        let lookups = self.rq_cache_hits + self.rq_cache_misses;
        for (k, v) in [
            ("core.runloop.node_ticks", self.node_ticks as f64),
            (
                "core.runloop.skipped_node_ticks",
                self.skipped_node_ticks as f64,
            ),
            (
                "core.runloop.wake_republishes",
                self.wake_republishes as f64,
            ),
            ("arctic.packets_injected", self.packets_injected as f64),
            ("arctic.link_busy_ns_max", self.link_busy_ns_max as f64),
            ("arctic.max_link_queue", self.max_link_queue as f64),
            ("arctic.credit_stalls", self.credit_stalls as f64),
            ("arctic.credit_stall_ns", self.credit_stall_ns as f64),
            (
                "arctic.latency_hi_mean_ns",
                mean(self.hi_sum_ns, self.hi_count),
            ),
            (
                "arctic.latency_lo_mean_ns",
                mean(self.lo_sum_ns, self.lo_count),
            ),
            ("membus.bus_tenures", self.bus_tenures as f64),
            ("membus.bus_data_bytes", self.bus_data_bytes as f64),
            ("membus.bus_retries", self.bus_retries as f64),
            ("membus.ap_mem_stall_ns", self.ap_mem_stall_ns as f64),
            ("niu.ibus_busy_cycles", self.ibus_busy_cycles as f64),
            ("niu.dma_chain_steps", self.dma_chain_steps as f64),
            ("niu.tagon_bytes", self.tagon_bytes as f64),
            ("niu.abiu_retries", self.abiu_retries as f64),
            ("niu.rq_cache_hits", self.rq_cache_hits as f64),
            ("niu.rq_cache_misses", self.rq_cache_misses as f64),
            ("niu.rq_lookups", lookups as f64),
            ("niu.rq_hit_ratio", mean(self.rq_cache_hits, lookups)),
            ("niu.msgs_diverted", self.msgs_diverted as f64),
            ("niu.rxu_high_water", self.rxu_high_water as f64),
            ("firmware.sp_busy_ns", self.sp_busy_ns as f64),
            ("firmware.rebinds", self.rebinds as f64),
            ("firmware.proto_errors", self.proto_errors as f64),
            ("core.tenancy.slices", self.tenancy_slices as f64),
            ("core.tenancy.active_ns", self.tenancy_active_ns as f64),
        ] {
            out.insert(k, v);
        }
    }
}
