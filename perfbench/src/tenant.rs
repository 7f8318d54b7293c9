//! `tenant_serving`: the S10 job mix. 16 nodes host 64 tenants each
//! under `WeightedTimeSlice`, with one confined misbehaving tenant per
//! node. 64 tenants is far past the 12 firmware-managed hardware rx
//! slots, so the rx-queue cache thrashes and the firmware rebinds on
//! every miss.

use crate::checks;
use crate::layers::LayerCounts;
use crate::metrics::log2_quantile;
use crate::trace::Recorder;
use crate::{fold_digest, seeded_bytes, Outcome};
use std::collections::VecDeque;
use sv_sim::stats::Log2Histogram;
use sv_sim::DetRng;
use voyager::api::BasicMsg;
use voyager::{
    JobBody, Machine, Parallelism, SchedPolicy, StreamItem, TenancyParams, TenantClass,
    TenantScheduler,
};

/// Workload name.
pub const NAME: &str = "tenant_serving";

/// Nodes in the machine.
pub const NODES: u16 = 16;

/// Tenants per node.
pub const TENANTS: u16 = 64;

/// Weighted-time-slice base quantum, ns (the S10 setting).
const QUANTUM_NS: u64 = 20_000;

/// Messages per well-behaved tenant: `BASE_MSGS` plus a seeded
/// `0..SPREAD_MSGS`.
const BASE_MSGS: u64 = 40;
const SPREAD_MSGS: u64 = 10;

/// Pacing, ns: a Bulk tenant waits `BULK_GAP_NS` before each message, a
/// Bursty tenant `BURST_GAP_NS` before each burst of four, and every
/// tenant starts at a seeded offset in `0..STAGGER_NS`. The S10 mix
/// sends back to back; at 64 tenants per node that overruns the
/// 16-entry miss queue, whose Drop policy then loses tenant messages
/// (see CHANGES.md). Paced at this rate no message is lost on any seed
/// tried, while misses still outnumber hits about three to one.
const BULK_GAP_NS: u64 = 300_000;
const BURST_GAP_NS: u64 = 600_000;
const STAGGER_NS: u64 = 300_000;

/// The confined tenant sends at most this many messages, fewer than the
/// 32-entry queue holds, so the shared mux never waits on the queue its
/// own violation shut down.
const CONFINED_MSGS: u64 = 24;

/// Simulated-time cap; the paced mix finishes in about 15 ms.
const CAP_NS: u64 = 10_000_000_000;

/// One node's jobs and what the benchmark scheduled.
struct NodeJobs {
    /// One stream per tenant.
    jobs: Vec<VecDeque<StreamItem>>,
    /// Messages scheduled per tenant.
    scheduled: Vec<u64>,
    /// Messages the confined tenant sends before its faulting one.
    confined_ok: u64,
}

/// Seeded inputs: per-node job lists.
pub struct Inputs {
    tenancy: TenancyParams,
    nodes: Vec<NodeJobs>,
}

impl Inputs {
    /// Make the inputs for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0x7E4A_4175);
        // Tenant 0 is the Latency class; any other tenant may be the
        // confined one.
        let confined = 1 + rng.below(TENANTS as u64 - 1) as u16;
        let tenancy = TenancyParams {
            tenants_per_node: TENANTS,
            policy: SchedPolicy::WeightedTimeSlice {
                quantum_ns: QUANTUM_NS,
            },
            confined: Some(confined),
        };
        let reg = voyager::TenantRegistry::try_new(NODES, &tenancy).expect("S10 carving fits");
        let nodes = (0..NODES)
            .map(|node| {
                let mut scheduled = Vec::new();
                let mut confined_ok = 0;
                let jobs = (0..TENANTS)
                    .map(|t| {
                        let class = tenancy.tenant_class(t);
                        let msgs = match class {
                            TenantClass::Misbehaving => CONFINED_MSGS,
                            _ => BASE_MSGS + rng.below(SPREAD_MSGS),
                        };
                        // Destinations: the other nodes, from a seeded
                        // start, so the aggregate is not a permutation.
                        let first = rng.below(NODES as u64 - 1) as u16;
                        let dest_of =
                            |k: u64| (node + 1 + (first + k as u16) % (NODES - 1)) % NODES;
                        let bad_at = CONFINED_MSGS / 4 + rng.below(CONFINED_MSGS / 2);
                        let mut items = VecDeque::new();
                        items.push_back(StreamItem::Delay(rng.below(STAGGER_NS)));
                        for k in 0..msgs {
                            let (dest, len) = match class {
                                TenantClass::Latency => {
                                    items.push_back(StreamItem::Delay(2_000));
                                    (reg.tenant_dest(t, dest_of(k)), 16)
                                }
                                TenantClass::Bulk => {
                                    items.push_back(StreamItem::Delay(BULK_GAP_NS));
                                    (reg.tenant_dest(t, dest_of(k)), 88)
                                }
                                TenantClass::Bursty => {
                                    if k % 4 == 0 {
                                        items.push_back(StreamItem::Delay(BURST_GAP_NS));
                                    }
                                    (reg.tenant_dest(t, dest_of(k)), 32)
                                }
                                // Raw in-slice destinations through the
                                // masked queue; `slice - 1` is never
                                // installed, so that send faults and shuts
                                // the queue, stranding the rest.
                                TenantClass::Misbehaving if k == bad_at => (reg.slice - 1, 8),
                                TenantClass::Misbehaving => (dest_of(k), 8),
                            };
                            let payload = seeded_bytes(&mut rng, len);
                            items.push_back(StreamItem::Msg(BasicMsg::new(dest, payload)));
                        }
                        if class == TenantClass::Misbehaving {
                            confined_ok = bad_at;
                        }
                        scheduled.push(msgs);
                        items
                    })
                    .collect();
                NodeJobs {
                    jobs,
                    scheduled,
                    confined_ok,
                }
            })
            .collect();
        Inputs { tenancy, nodes }
    }

    /// Messages scheduled per iteration.
    pub fn ops(&self) -> u64 {
        self.nodes.iter().flat_map(|n| &n.scheduled).sum()
    }
}

/// Build the machine and load one scheduler per node (timed into
/// `out.build_s` and `out.load_s`).
pub fn load(inputs: &Inputs, rec: &mut Recorder, out: &mut Outcome) -> Machine {
    let s = rec.begin("build");
    let mut m = Machine::builder(NODES as usize)
        .tenants(inputs.tenancy)
        .parallelism(Parallelism::Sequential)
        .build();
    out.build_s += rec.end(s);
    // Loading consumes the jobs, so each load takes a copy; copying is
    // input making, not program work, and stays out of the timing.
    let jobs: Vec<Vec<JobBody>> = inputs
        .nodes
        .iter()
        .map(|n| n.jobs.iter().cloned().map(JobBody::Stream).collect())
        .collect();
    let s = rec.begin("load_program");
    for (i, jobs) in jobs.into_iter().enumerate() {
        let lib = m.lib(i as u16);
        m.load_program(i as u16, TenantScheduler::new(lib, &inputs.tenancy, jobs));
    }
    out.load_s += rec.end(s);
    m
}

fn merge(into: &mut Log2Histogram, h: &Log2Histogram) {
    for (a, b) in into.buckets.iter_mut().zip(&h.buckets) {
        *a += b;
    }
    into.summary.merge(&h.summary);
}

/// Run one iteration: build, load the job mix, run to quiescence, check.
pub fn run(inputs: &Inputs, rec: &mut Recorder) -> Result<Outcome, String> {
    rec.set_workload(NAME);
    let iteration = rec.begin(NAME);
    let mut out = Outcome {
        ops: inputs.ops(),
        ..Outcome::default()
    };
    let tp = inputs.tenancy;
    let confined = tp.confined.expect("the mix confines one tenant");

    let mut m = load(inputs, rec, &mut out);
    let s = rec.begin("run_to_quiescence");
    let end = m.run_to_quiescence_capped(CAP_NS);
    out.run_s += rec.end(s);
    let end = end.map_err(|t| format!("tenant mix hung at {t}"))?;
    out.sim_ns += end.ns();

    let s = rec.begin("stats");
    let st = m.stats();
    let json = st.to_json();
    rec.end(s);
    out.digest = fold_digest(out.digest, &json);
    out.node_ticks += st.run.node_ticks;
    rec.end(iteration);

    // Checks against what the benchmark scheduled.
    let (mut reached, mut expected) = (0u64, 0u64);
    for (i, (node, want)) in st.nodes.iter().zip(&inputs.nodes).enumerate() {
        let rows = &node
            .tenants
            .as_ref()
            .ok_or("tenancy stats missing")?
            .tenants;
        for (t, row) in rows.iter().enumerate() {
            if t as u16 != confined {
                checks::equal(
                    &format!("node {i} tenant {t} sent"),
                    row.sent_msgs,
                    want.scheduled[t],
                )?;
                expected += want.scheduled[t];
            } else {
                expected += want.confined_ok;
            }
            reached += row.rq_hits + row.rq_misses;
        }
        // The confined tenant's out-of-slice send is the one contained
        // violation; the messages stranded behind it are the protection
        // working, checked here rather than counted as failures.
        checks::equal(&format!("node {i} violations"), node.niu.violations, 1)?;
    }
    checks::equal(
        "rx-queue cache hits + misses vs deliveries",
        reached,
        expected,
    )?;

    let mut all = Log2Histogram::new();
    let mut latency_class = Log2Histogram::new();
    let mut others = Log2Histogram::new();
    for node in &m.nodes {
        let attr = node
            .niu
            .tenant
            .as_ref()
            .ok_or("tenant attribution missing")?;
        for t in 0..attr.count {
            for h in [
                &attr.hit_latency[t as usize],
                &attr.miss_latency[t as usize],
            ] {
                merge(&mut all, h);
                if tp.tenant_class(t) == TenantClass::Latency {
                    merge(&mut latency_class, h);
                } else {
                    merge(&mut others, h);
                }
            }
        }
    }
    let p99 = |h: &Log2Histogram| h.quantile(0.99).unwrap_or(0) as f64;
    checks::at_most(
        "Latency-class P99 vs other classes' P99",
        p99(&latency_class),
        p99(&others),
    )?;
    checks::equal("latency samples vs deliveries", all.summary.count, expected)?;

    out.makespan_us = crate::programs_done_ns(&m).ok_or("a scheduler never finished")? as f64 / 1e3;
    out.e2e.insert(
        "tenant_p99_ns",
        log2_quantile(&all, 0.99).ok_or("no tenant deliveries")?,
    );
    let mut counts = LayerCounts::default();
    counts.add(&m, &st);
    counts.write(&mut out.layers);
    Ok(out)
}
