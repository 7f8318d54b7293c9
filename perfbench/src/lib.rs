//! The StarT-Voyager benchmark: three seeded workloads that measure both
//! kinds of performance the simulator has — host speed (simulated time
//! per wall-second, snapshot save and restore) and what the modelled
//! machine achieves (paper §6 Figure 3/4 block transfer, tail latency
//! under tenancy and under fabric congestion).
//!
//! Everything is measured from outside the program: the benchmark calls
//! only the public API of `voyager`, `sv_sim` and `sv_arctic`, times
//! those calls, and reads the program's own deterministic counters
//! ([`voyager::Machine::stats`]). See `README.md` for the metric table.

pub mod checks;
pub mod fabric;
pub mod fig34;
pub mod layers;
pub mod metrics;
pub mod replay;
pub mod tenant;
pub mod trace;

use std::collections::BTreeMap;

/// What one iteration of a workload measured.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations the iteration attempted (transfers or messages).
    pub ops: u64,
    /// Simulated ns advanced by the timed run calls.
    pub sim_ns: u64,
    /// Wall seconds spent inside run calls (`run_for`,
    /// `run_to_quiescence*`).
    pub run_s: f64,
    /// Wall seconds spent building machines.
    pub build_s: f64,
    /// Wall seconds spent loading programs and writing inputs.
    pub load_s: f64,
    /// Node ticks the run calls executed.
    pub node_ticks: u64,
    /// Simulated time until every program finished, µs.
    pub makespan_us: f64,
    /// Workload-specific end-to-end metrics (simulated ones are
    /// deterministic for a seed; host ones are this iteration's medians).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics: deterministic counters plus host timings.
    pub layers: BTreeMap<&'static str, f64>,
    /// `fnv1a64` over `MachineStats::to_json` of every final machine.
    pub digest: u64,
}

impl Outcome {
    /// Setup wall time: build machines, load programs, write inputs.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.load_s
    }

    /// Host speed of this iteration: simulated µs per wall second of
    /// run calls.
    pub fn sim_us_per_s(&self) -> f64 {
        self.sim_ns as f64 / 1e3 / self.run_s
    }
}

/// Fold `json` into a running FNV-1a-64 digest (order-sensitive).
pub fn fold_digest(digest: u64, json: &str) -> u64 {
    let mut bytes = digest.to_le_bytes().to_vec();
    bytes.extend_from_slice(json.as_bytes());
    sv_sim::ckpt::fnv1a64(&bytes)
}

/// Seeded source bytes: the benchmark's inputs, never the program's.
pub fn seeded_bytes(rng: &mut sv_sim::DetRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Simulated time at which the last program on any node finished, ns.
pub fn programs_done_ns(m: &voyager::Machine) -> Option<u64> {
    (0..m.nodes.len() as u16)
        .map(|i| {
            m.event_time(i, |k| matches!(k, voyager::AppEventKind::ProgramDone))
                .map(|t| t.ns())
        })
        .collect::<Option<Vec<_>>>()?
        .into_iter()
        .max()
}
