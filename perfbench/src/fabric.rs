//! `fabric_ckpt`: 64 nodes with two virtual channels armed. Each round
//! is a bulk-synchronous transpose: every node sends one 88-byte
//! Low-class Basic message to every other node, in a seeded order, plus
//! one 16-byte High-class probe, and receives the round's 64 messages
//! before it starts the next round. Each payload carries a message id the
//! benchmark matches. Receivers drain as messages arrive (a two-job
//! scheduler interleaves each node's sender and receiver), so latency is
//! message latency, not program order.
//!
//! Mid-run the benchmark cuts a full snapshot and then a cadence of
//! deltas, restores both the full snapshot and the base+delta chain, and
//! runs each to the end; all three final machines must agree byte for
//! byte on their stats.

use crate::checks::{self, Delivery, ReceivedEvent, ScheduledMsg, SentEvent};
use crate::layers::LayerCounts;
use crate::metrics::{median, nearest_rank};
use crate::replay::{self, Send};
use crate::trace::Recorder;
use crate::{fold_digest, seeded_bytes, Outcome};
use sv_arctic::QosParams;
use sv_sim::DetRng;
use voyager::api::{BasicMsg, RecvBasic, SendBasic};
use voyager::app::Seq;
use voyager::{
    AppEventKind, JobBody, Machine, MachineBuilder, Parallelism, Program, SchedPolicy,
    SystemParams, TenancyParams, TenantScheduler,
};

/// Workload name.
pub const NAME: &str = "fabric_ckpt";

/// Nodes in the machine (a snapshot of about 20 MB).
pub const NODES: u16 = 64;

/// Transpose rounds per run.
pub const ROUNDS: u32 = 6;

/// Messages each node sends (and receives) per round.
const PER_ROUND: u32 = NODES as u32;

/// Payload bytes: a full Basic message for the bulk class, a small probe
/// for the latency-critical class.
const LOW_BYTES: usize = 88;
const HIGH_BYTES: usize = 16;

/// Simulated time of the full snapshot cut, ns (about half way through the
/// run), and the cadence of the delta cuts after it.
const CUT_NS: u64 = 800_000;
const CADENCE_NS: u64 = 40_000;
const DELTAS: usize = 4;

/// Snapshot samples ([`Cut::sample`]) and Arctic replays per iteration;
/// their medians are reported.
const CKPT_REPS: usize = 4;
const REPLAY_REPS: usize = 3;

/// Simulated-time cap; the run ends in about a millisecond.
const CAP_NS: u64 = 10_000_000_000;

/// Seeded inputs: every message, and each node's send order.
pub struct Inputs {
    msgs: Vec<ScheduledMsg>,
    /// Per node, per round, message ids in send order.
    rounds: Vec<Vec<Vec<u32>>>,
}

impl Inputs {
    /// Make the inputs for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0xFAB2_1C4E);
        let n = NODES as u32;
        let stride = voyager::machine::dest::stride(NODES);
        let mut msgs = Vec::new();
        let mut rounds = vec![Vec::new(); NODES as usize];
        for _ in 0..ROUNDS {
            // Every node sends to every other node once per round, in its
            // own seeded order, plus one probe; the probes form a seeded
            // shift, so each node also receives exactly one.
            let probe_shift = 1 + rng.below(n as u64 - 1) as u32;
            for src in 0..n {
                let mut dsts: Vec<(u32, bool)> = (1..n).map(|k| ((src + k) % n, false)).collect();
                dsts.push(((src + probe_shift) % n, true));
                rng.shuffle(&mut dsts);
                let mut ids = Vec::with_capacity(PER_ROUND as usize);
                for (dst, high) in dsts {
                    let id = msgs.len() as u32;
                    let len = if high { HIGH_BYTES } else { LOW_BYTES };
                    let mut payload = id.to_le_bytes().to_vec();
                    payload.extend_from_slice(&seeded_bytes(&mut rng, len - 4));
                    msgs.push(ScheduledMsg {
                        src: src as u16,
                        dst: dst as u16,
                        high,
                        dest_word: if high {
                            3 * stride + dst as u16
                        } else {
                            dst as u16
                        },
                        payload,
                    });
                    ids.push(id);
                }
                rounds[src as usize].push(ids);
            }
        }
        Inputs { msgs, rounds }
    }

    /// Messages per iteration.
    pub fn ops(&self) -> u64 {
        self.msgs.len() as u64
    }

    /// Node `i`'s program: one two-job scheduler per round, sender and
    /// receiver interleaved, each resuming its queue where the previous
    /// round left it.
    fn program(&self, m: &Machine, i: u16) -> impl Program {
        let lib = m.lib(i);
        let pair = TenancyParams {
            tenants_per_node: 2,
            policy: SchedPolicy::RoundRobin,
            confined: None,
        };
        let rounds = self.rounds[i as usize]
            .iter()
            .enumerate()
            .map(|(r, ids)| {
                let cursor = (r as u32 * PER_ROUND) as u16;
                let items = ids
                    .iter()
                    .map(|&id| {
                        let msg = &self.msgs[id as usize];
                        BasicMsg::new(msg.dest_word, msg.payload.clone())
                    })
                    .collect();
                let jobs = vec![
                    JobBody::Child(Box::new(SendBasic::resuming(&lib, items, cursor))),
                    JobBody::Child(Box::new(RecvBasic::resuming(
                        &lib,
                        PER_ROUND as usize,
                        cursor,
                    ))),
                ];
                Box::new(TenantScheduler::new(lib, &pair, jobs)) as Box<dyn Program>
            })
            .collect();
        Seq::new(rounds)
    }

    /// Check one final machine's messages; returns their latencies.
    fn deliveries(&self, m: &Machine) -> Result<Vec<Delivery>, String> {
        let mut sent = Vec::with_capacity(NODES as usize);
        let mut received = Vec::with_capacity(NODES as usize);
        for i in 0..NODES {
            let (mut s, mut r) = (Vec::new(), Vec::new());
            for e in m.events(i) {
                match &e.kind {
                    AppEventKind::Sent { dest, bytes, .. } => s.push(SentEvent {
                        at_ns: e.at.ns(),
                        dest: *dest,
                        bytes: *bytes,
                    }),
                    AppEventKind::Received { src, data, .. } => r.push(ReceivedEvent {
                        at_ns: e.at.ns(),
                        src: *src,
                        data: data.to_vec(),
                    }),
                    _ => {}
                }
            }
            sent.push(s);
            received.push(r);
        }
        let order: Vec<Vec<u32>> = self.rounds.iter().map(|r| r.concat()).collect();
        checks::match_messages(&self.msgs, &order, &sent, &received)
    }

    /// The packet schedule of a finished run, from its `Sent` events.
    fn schedule(&self, m: &Machine) -> Vec<Send> {
        let mut out = Vec::with_capacity(self.msgs.len());
        for i in 0..NODES {
            let ids = self.rounds[i as usize].iter().flatten();
            let sends = m
                .events(i)
                .iter()
                .filter(|e| matches!(e.kind, AppEventKind::Sent { .. }));
            for (&id, e) in ids.zip(sends) {
                let msg = &self.msgs[id as usize];
                out.push(Send {
                    at_ns: e.at.ns(),
                    src: msg.src,
                    dst: msg.dst,
                    high: msg.high,
                    payload_bytes: msg.payload.len() as u32,
                });
            }
        }
        out.sort();
        out
    }
}

/// Two virtual channels (High probes on VC 0) with two credits each, so
/// the bulk class fills downstream buffers and credits bind.
const QOS: QosParams = QosParams {
    vcs: 2,
    credits_per_vc: 2,
    arbitration: sv_arctic::VcArbitration::Priority,
};

fn builder() -> MachineBuilder {
    Machine::builder(NODES as usize)
        .network_qos(QOS)
        .parallelism(Parallelism::Sequential)
}

/// Per-message checks common to all three final machines, plus the
/// conservation properties at quiescence.
fn check_final(inputs: &Inputs, m: &Machine, what: &str) -> Result<Vec<Delivery>, String> {
    let d = inputs.deliveries(m).map_err(|e| format!("{what}: {e}"))?;
    checks::equal(
        &format!("{what}: outstanding credits"),
        m.network.outstanding_credits(),
        0,
    )?;
    let st = m.stats();
    for c in 0..st.nodes[0].niu.classes.len() {
        let sent: u64 = st.nodes.iter().map(|n| n.niu.classes[c].sent).sum();
        let delivered: u64 = st.nodes.iter().map(|n| n.niu.classes[c].delivered).sum();
        checks::equal(&format!("{what}: class {c} delivered"), delivered, sent)?;
    }
    Ok(d)
}

/// Build the machine and load every node's program (timed into
/// `out.build_s` and `out.load_s`).
pub fn load(inputs: &Inputs, rec: &mut Recorder, out: &mut Outcome) -> Machine {
    let s = rec.begin("build");
    let mut m = builder().build();
    out.build_s += rec.end(s);
    let programs: Vec<_> = (0..NODES).map(|i| inputs.program(&m, i)).collect();
    let s = rec.begin("load_program");
    for (i, p) in programs.into_iter().enumerate() {
        m.load_program(i as u16, p);
    }
    out.load_s += rec.end(s);
    m
}

/// Run `m` to quiescence as one timed run call.
fn run_to_end(rec: &mut Recorder, out: &mut Outcome, m: &mut Machine) -> Result<(), String> {
    let (t0, ticks0) = (m.now.ns(), m.stats().run.node_ticks);
    let s = rec.begin("run_to_quiescence");
    let end = m.run_to_quiescence_capped(CAP_NS);
    out.run_s += rec.end(s);
    let end = end.map_err(|t| format!("fabric run hung at {t}"))?;
    out.sim_ns += end.ns() - t0;
    out.node_ticks += m.stats().run.node_ticks - ticks0;
    Ok(())
}

/// A fabric run stopped at its snapshot cut: the donor machine, its
/// full snapshot and delta chain, and the timed snapshot samples taken so
/// far. [`Cut::sample`] may be called any number of times (other work
/// may run in between); [`Cut::finish`] runs everything to the end and
/// checks it.
pub struct Cut {
    out: Outcome,
    m: Machine,
    full: Vec<u8>,
    base: Vec<u8>,
    deltas: Vec<Vec<u8>>,
    delta_s: Vec<f64>,
    save_s: Vec<f64>,
    restore_s: Vec<f64>,
    chain_s: Vec<f64>,
    restored: Option<Machine>,
    chained: Option<Machine>,
}

/// Build, load and run up to the cut; cut the full snapshot and the
/// delta chain (a base, then [`DELTAS`] deltas [`CADENCE_NS`] apart).
pub fn cut(inputs: &Inputs, rec: &mut Recorder) -> Result<Cut, String> {
    rec.set_workload(NAME);
    let mut out = Outcome {
        ops: inputs.ops(),
        ..Outcome::default()
    };
    let mut m = load(inputs, rec, &mut out);
    let s = rec.begin("run_for");
    m.run_for(CUT_NS);
    out.run_s += rec.end(s);
    out.sim_ns += m.now.ns();
    if crate::programs_done_ns(&m).is_some() {
        return Err(format!("the run ended before the {CUT_NS} ns cut"));
    }
    let s = rec.begin("checkpoint");
    let full = m.checkpoint();
    let save_s = vec![rec.end(s)];
    let s = rec.begin("checkpoint_delta");
    let base = m.checkpoint_delta();
    rec.end(s);
    if !base.is_base() {
        return Err("the first delta cut is not a base".into());
    }
    let mut deltas = Vec::with_capacity(DELTAS);
    let mut delta_s = Vec::with_capacity(DELTAS);
    for _ in 0..DELTAS {
        let t0 = m.now.ns();
        let s = rec.begin("run_for");
        m.run_for(CADENCE_NS);
        out.run_s += rec.end(s);
        out.sim_ns += m.now.ns() - t0;
        let s = rec.begin("checkpoint_delta");
        let d = m.checkpoint_delta();
        delta_s.push(rec.end(s));
        deltas.push(d.into_bytes());
    }
    Ok(Cut {
        out,
        m,
        full,
        base: base.into_bytes(),
        deltas,
        delta_s,
        save_s,
        restore_s: Vec::new(),
        chain_s: Vec::new(),
        restored: None,
        chained: None,
    })
}

impl Cut {
    /// Time one full restore, one full save of the restored cut state
    /// and one chain restore. Each restore frees the previous copy first,
    /// as a caller cutting on a cadence would; the last restored machines
    /// are the ones [`Cut::finish`] runs to the end.
    ///
    /// A save's cost depends on the allocator's state (the snapshot
    /// buffer grows by doubling) and on the host's load at that moment,
    /// so samples are best spread over a run rather than taken in one
    /// burst.
    pub fn sample(&mut self, rec: &mut Recorder) -> Result<(), String> {
        rec.set_workload(NAME);
        drop(self.restored.take());
        let s = rec.begin("restore");
        let r = builder().restore(&self.full);
        self.restore_s.push(rec.end(s));
        let r = r.map_err(|e| format!("full restore: {e}"))?;
        // The donor has run on past the cut; the restored machine holds
        // the cut state, and saving it must give the same bytes.
        let s = rec.begin("checkpoint");
        let bytes = r.checkpoint();
        self.save_s.push(rec.end(s));
        if bytes != self.full {
            return Err("saving the restored cut state gave different bytes".into());
        }
        drop(bytes);
        self.restored = Some(r);
        drop(self.chained.take());
        let s = rec.begin("restore_chain");
        let c = builder().restore_chain(&self.base, &self.deltas);
        self.chain_s.push(rec.end(s));
        self.chained = Some(c.map_err(|e| format!("chain restore: {e}"))?);
        Ok(())
    }

    /// Run the donor and both restored machines to the end, check all
    /// three, replay the packet schedule, and report.
    pub fn finish(mut self, inputs: &Inputs, rec: &mut Recorder) -> Result<Outcome, String> {
        rec.set_workload(NAME);
        let iteration = rec.begin(NAME);
        if self.restored.is_none() {
            self.sample(rec)?;
        }
        let mut out = self.out;
        let mut m = self.m;
        // Ticks of the segments before the final one (`run_to_end`
        // counts its own).
        out.node_ticks += m.stats().run.node_ticks;
        run_to_end(rec, &mut out, &mut m)?;
        out.makespan_us = crate::programs_done_ns(&m).ok_or("a node never finished")? as f64 / 1e3;
        let s = rec.begin("stats");
        let st = m.stats();
        let reference = st.to_json();
        rec.end(s);
        let delivered = check_final(inputs, &m, "uninterrupted run")?;

        let mut finals = vec![reference.clone()];
        for (what, r) in [
            ("full restore", self.restored.take()),
            ("chain restore", self.chained.take()),
        ] {
            let mut r = r.expect("sampled at least once");
            run_to_end(rec, &mut out, &mut r)?;
            let s = rec.begin("stats");
            let json = r.stats().to_json();
            rec.end(s);
            checks::stats_identical(what, &reference, &json)?;
            check_final(inputs, &r, what)?;
            finals.push(json);
        }
        // Three final machines, one statistic set each.
        for json in &finals {
            out.digest = fold_digest(out.digest, json);
        }

        // Arctic replay of the uninterrupted run's packet schedule.
        let schedule = inputs.schedule(&m);
        let params = SystemParams::default();
        let mut replay_s = Vec::with_capacity(REPLAY_REPS);
        for _ in 0..REPLAY_REPS {
            let s = rec.begin("arctic_replay");
            let n = replay::replay(
                NODES as usize,
                params.link,
                params.routing,
                Some(QOS),
                &schedule,
            );
            replay_s.push(rec.end(s));
            checks::equal(
                "replayed packets delivered",
                n as u64,
                schedule.len() as u64,
            )?;
        }
        rec.end(iteration);

        let mut all: Vec<u64> = delivered.iter().map(|d| d.latency_ns).collect();
        all.sort_unstable();
        let class_p99 = |high: bool| {
            let mut v: Vec<u64> = delivered
                .iter()
                .filter(|d| d.high == high)
                .map(|d| d.latency_ns)
                .collect();
            v.sort_unstable();
            nearest_rank(&v, 0.99)
        };
        checks::at_most(
            "High-class P99 vs Low-class P99",
            class_p99(true) as f64,
            class_p99(false) as f64,
        )?;

        let ms = |v: &[f64]| median(v) * 1e3;
        let full_mb = self.full.len() as f64 / 1e6;
        out.e2e.insert("msg_p50_ns", nearest_rank(&all, 0.5) as f64);
        out.e2e
            .insert("msg_p99_ns", nearest_rank(&all, 0.99) as f64);
        out.e2e.insert("ckpt_save_ms", ms(&self.save_s));
        out.e2e.insert("ckpt_restore_ms", ms(&self.restore_s));
        out.e2e.insert("chain_restore_ms", ms(&self.chain_s));
        let mut counts = LayerCounts::default();
        counts.add(&m, &st);
        counts.write(&mut out.layers);
        for (k, v) in [
            ("sim.ckpt.full_bytes", self.full.len() as f64),
            (
                "sim.ckpt.delta_bytes",
                self.deltas.iter().map(Vec::len).sum::<usize>() as f64,
            ),
            ("sim.ckpt.save_mb_s", full_mb / median(&self.save_s)),
            ("sim.ckpt.restore_mb_s", full_mb / median(&self.restore_s)),
            ("sim.ckpt.delta_save_ms", ms(&self.delta_s)),
            (
                "arctic.replay_ns_per_packet",
                median(&replay_s) * 1e9 / schedule.len() as f64,
            ),
            ("arctic.replay_packets", schedule.len() as f64),
        ] {
            out.layers.insert(k, v);
        }
        Ok(out)
    }
}

/// Run one iteration: cut, [`CKPT_REPS`] snapshot samples, finish.
pub fn run(inputs: &Inputs, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut c = cut(inputs, rec)?;
    for _ in 0..CKPT_REPS {
        c.sample(rec)?;
    }
    c.finish(inputs, rec)
}
