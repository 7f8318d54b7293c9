//! `fig34_blockxfer`: the paper's §6 experiment. Approaches 1–5 move a
//! size ladder up to 1 MiB from node 0 to node 1 of a fresh 2-node
//! machine. The benchmark writes its own seeded source bytes with
//! `Machine::mem_write` and reads the destination back with `mem_read`.

use crate::checks;
use crate::layers::LayerCounts;
use crate::trace::Recorder;
use crate::{fold_digest, seeded_bytes, Outcome};
use sv_sim::DetRng;
use voyager::api::{request_transfer, ReadRegion, RecvBasic};
use voyager::app::{AppEventKind, Seq};
use voyager::blockxfer::{dst_addr_for, A1Recv, A1Send, SRC_ADDR};
use voyager::firmware::proto::{Approach, XferReq};
use voyager::{Machine, Parallelism, SystemParams};

/// Workload name.
pub const NAME: &str = "fig34_blockxfer";

/// The five approaches of paper §6, in order.
pub const APPROACHES: [Approach; 5] = [
    Approach::ApDirect,
    Approach::SpManaged,
    Approach::BlockHw,
    Approach::OptimisticSp,
    Approach::OptimisticHw,
];

/// Nominal ladder sizes, bytes. Each point is shortened by a seeded
/// number of 64-byte lines (at most 15, so the top point stays within
/// 0.1 % of 1 MiB), so that different seeds exercise different sizes and
/// the Figure 4 metrics are measured, not fixed by the inputs.
pub const LADDER: [u32; 5] = [512, 4096, 8192, 65536, 1 << 20];

/// The A4/A5-before-A3 notification check applies from this size up.
const OPTIMISTIC_FROM: u32 = 8192;

/// Simulated-time cap per transfer; real transfers end in milliseconds.
const CAP_NS: u64 = 10_000_000_000;

/// Seeded inputs: the ladder's actual sizes and source bytes.
pub struct Inputs {
    /// Actual transfer sizes, one per [`LADDER`] point.
    pub sizes: Vec<u32>,
    /// Source bytes, one buffer per size.
    pub data: Vec<Vec<u8>>,
}

impl Inputs {
    /// Make the inputs for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0xF134_B10C);
        let sizes: Vec<u32> = LADDER
            .iter()
            .map(|&n| n - 64 * rng.below((n / 256).min(16) as u64) as u32)
            .collect();
        let data = sizes
            .iter()
            .map(|&n| seeded_bytes(&mut rng, n as usize))
            .collect();
        Inputs { sizes, data }
    }

    /// Transfers per iteration.
    pub fn ops(&self) -> u64 {
        (self.sizes.len() * APPROACHES.len()) as u64
    }
}

/// Times of one transfer, simulated ns from the start of the run.
struct Point {
    notify_ns: u64,
    used_ns: u64,
    done_ns: u64,
}

/// Build a fresh 2-node machine, write the source bytes and load the
/// programs for one `(approach, size)` point (timed into `out.build_s`
/// and `out.load_s`).
fn load_point(rec: &mut Recorder, out: &mut Outcome, approach: Approach, data: &[u8]) -> Machine {
    let len = data.len() as u32;
    let params = SystemParams::default();
    let dst = dst_addr_for(&params, approach);

    let s = rec.begin("build");
    let mut m = Machine::builder(2)
        .params(params)
        .parallelism(Parallelism::Sequential)
        .build();
    out.build_s += rec.end(s);

    let s = rec.begin("load_program");
    m.mem_write(0, SRC_ADDR, data);
    let (lib0, lib1) = (m.lib(0), m.lib(1));
    if approach == Approach::ApDirect {
        m.load_program(0, A1Send::new(&lib0, 1, SRC_ADDR, dst, len));
        m.load_program(
            1,
            Seq::new(vec![
                Box::new(A1Recv::new(&lib1, len)),
                Box::new(ReadRegion::new(dst, len)),
            ]),
        );
    } else {
        let req = XferReq {
            approach,
            xfer_id: 1,
            src_addr: SRC_ADDR,
            dst_addr: dst,
            len,
            dst_node: 1,
            notify_lq: 1,
        };
        m.load_program(0, request_transfer(&lib0, &req));
        m.load_program(
            1,
            Seq::new(vec![
                Box::new(RecvBasic::expecting(&lib1, 1)),
                Box::new(ReadRegion::new(dst, len)),
            ]),
        );
    }
    out.load_s += rec.end(s);

    m
}

/// Build and load every point of one iteration, without running them:
/// the set-up the iteration pays.
pub fn load(inputs: &Inputs, rec: &mut Recorder, out: &mut Outcome) {
    for data in &inputs.data {
        for &approach in &APPROACHES {
            drop(load_point(rec, out, approach, data));
        }
    }
}

fn run_point(
    rec: &mut Recorder,
    out: &mut Outcome,
    counts: &mut LayerCounts,
    approach: Approach,
    data: &[u8],
) -> Result<Point, String> {
    let len = data.len() as u32;
    let dst = dst_addr_for(&SystemParams::default(), approach);
    let mut m = load_point(rec, out, approach, data);

    let s = rec.begin("run_to_quiescence");
    let end = m.run_to_quiescence_capped(CAP_NS);
    out.run_s += rec.end(s);
    let end = end.map_err(|t| format!("approach {approach:?} size {len} hung at {t}"))?;
    out.sim_ns += end.ns();

    let s = rec.begin("mem_read");
    let got = m.mem_read(1, dst, len as usize);
    rec.end(s);
    checks::bytes_equal(
        &format!("approach {} size {len} destination", approach as u8),
        data,
        &got,
    )?;

    let s = rec.begin("stats");
    let st = m.stats();
    let json = st.to_json();
    rec.end(s);
    out.digest = fold_digest(out.digest, &json);
    out.node_ticks += st.run.node_ticks;
    counts.add(&m, &st);

    let at = |i: u16, f: &dyn Fn(&AppEventKind) -> bool| m.event_time(i, f).map(|t| t.ns());
    let notify_ns = at(1, &|k| matches!(k, AppEventKind::NotifyReceived { .. }))
        .ok_or_else(|| format!("approach {approach:?} size {len}: no notification"))?;
    let used_ns = at(
        1,
        &|k| matches!(k, AppEventKind::RegionDone { addr, .. } if *addr == dst),
    )
    .ok_or_else(|| format!("approach {approach:?} size {len}: region never read"))?;
    let done_ns = crate::programs_done_ns(&m)
        .ok_or_else(|| format!("approach {approach:?} size {len}: a program never finished"))?;
    Ok(Point {
        notify_ns,
        used_ns,
        done_ns,
    })
}

/// Run one iteration: every approach over the whole ladder.
pub fn run(inputs: &Inputs, rec: &mut Recorder) -> Result<Outcome, String> {
    rec.set_workload(NAME);
    let iteration = rec.begin(NAME);
    let mut out = Outcome {
        ops: inputs.ops(),
        ..Outcome::default()
    };
    let mut counts = LayerCounts::default();
    let mut bw = vec![[0.0f64; 5]; inputs.sizes.len()];
    let mut notify = vec![[0u64; 5]; inputs.sizes.len()];
    let mut makespan_ns = 0;
    for (si, data) in inputs.data.iter().enumerate() {
        for (ai, &approach) in APPROACHES.iter().enumerate() {
            let p = run_point(rec, &mut out, &mut counts, approach, data)?;
            // Figure 4: approaches 1–3 notify once all data has arrived;
            // the optimistic approaches notify early on purpose, so
            // their bandwidth is taken over time-to-use.
            let window = if ai >= 3 { p.used_ns } else { p.notify_ns };
            bw[si][ai] = sv_sim::stats::mb_per_s(data.len() as u64, window.max(1));
            notify[si][ai] = p.notify_ns;
            makespan_ns += p.done_ns;
        }
    }
    rec.end(iteration);

    checks::bandwidth_order(&inputs.sizes, &bw)?;
    let params = SystemParams::default();
    let top = bw.last().expect("ladder is not empty");
    checks::near_ceiling(
        top[2],
        params.link.bandwidth_mb_s(),
        params.niu.block_tx_chunk_bytes,
        0.05,
    )?;
    checks::optimistic_first(&LADDER, &notify, OPTIMISTIC_FROM)?;

    out.makespan_us = makespan_ns as f64 / 1e3;
    for (i, name) in [
        "fig4_a1_mb_s",
        "fig4_a2_mb_s",
        "fig4_a3_mb_s",
        "fig4_a4_mb_s",
        "fig4_a5_mb_s",
    ]
    .into_iter()
    .enumerate()
    {
        out.e2e.insert(name, top[i]);
    }
    counts.write(&mut out.layers);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_fail_on_mutated_real_outputs() {
        let data = seeded_bytes(&mut DetRng::new(7), 4096);
        let mut out = Outcome::default();
        let mut m = load_point(
            &mut Recorder::new(false),
            &mut out,
            Approach::BlockHw,
            &data,
        );
        m.run_to_quiescence_capped(CAP_NS).expect("transfer ends");
        let dst = dst_addr_for(&SystemParams::default(), Approach::BlockHw);
        let mut got = m.mem_read(1, dst, data.len());
        assert!(checks::bytes_equal("dst", &data, &got).is_ok());
        got[1234] ^= 0x10;
        assert!(checks::bytes_equal("dst", &data, &got).is_err());

        let json = m.stats().to_json();
        assert!(checks::stats_identical("restore", &json, &json).is_ok());
        let at = json.rfind(|c: char| c.is_ascii_digit()).expect("a number");
        let mut perturbed = json.clone().into_bytes();
        perturbed[at] = if perturbed[at] == b'9' {
            b'8'
        } else {
            perturbed[at] + 1
        };
        let perturbed = String::from_utf8(perturbed).expect("still ASCII");
        assert!(checks::stats_identical("restore", &json, &perturbed).is_err());
    }
}
