//! Benchmark command. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fabric_ckpt --seed 1 --seconds 30 --trace 0 [--trace-out PATH]
//! ```
//!
//! It repeats whole iterations of the named workload for `--seconds`
//! seconds, checks every iteration's outputs, and prints a report
//! followed, as the last line, by one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! iterations and reports the per-layer metrics plus the tracing
//! overhead, and writes the spans as Chrome trace-event JSON to
//! `--trace-out` when given. Every run reports every end-to-end metric;
//! README.md says where a run takes the metrics another workload owns.

use std::collections::BTreeMap;
use std::time::Instant;
use sv_perfbench::metrics::{self, median, END_TO_END, PER_LAYER};
use sv_perfbench::trace::Recorder;
use sv_perfbench::{fabric, fig34, tenant, Outcome};

/// Iterations the timed loop makes at least, whatever `--seconds` says,
/// so every median has several samples.
const MIN_ITERATIONS: usize = 3;

/// Set-ups (build every machine, load every program, write every input,
/// then drop them) timed before the loop; one more follows every timed
/// iteration, and `setup_s` is the median of them all.
const SETUP_REPS: usize = 11;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// A workload's seeded inputs.
enum Workload {
    Fig34(fig34::Inputs),
    Tenant(tenant::Inputs),
    Fabric(fabric::Inputs),
}

impl Workload {
    const NAMES: [&'static str; 3] = [fig34::NAME, tenant::NAME, fabric::NAME];

    fn new(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            fig34::NAME => Workload::Fig34(fig34::Inputs::new(seed)),
            tenant::NAME => Workload::Tenant(tenant::Inputs::new(seed)),
            fabric::NAME => Workload::Fabric(fabric::Inputs::new(seed)),
            _ => return None,
        })
    }

    /// Set up one iteration's machines without running them; returns
    /// the wall seconds it took.
    fn setup(&self, rec: &mut Recorder) -> f64 {
        let mut o = Outcome::default();
        match self {
            Workload::Fig34(i) => fig34::load(i, rec, &mut o),
            Workload::Tenant(i) => drop(tenant::load(i, rec, &mut o)),
            Workload::Fabric(i) => drop(fabric::load(i, rec, &mut o)),
        }
        o.setup_s()
    }

    fn run(&self, rec: &mut Recorder) -> Result<Outcome, String> {
        match self {
            Workload::Fig34(i) => fig34::run(i, rec),
            Workload::Tenant(i) => tenant::run(i, rec),
            Workload::Fabric(i) => fabric::run(i, rec),
        }
    }
}

/// Median of `f` over `outs`.
fn median_of(outs: &[&Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    median(&outs.iter().map(|o| f(o)).collect::<Vec<_>>())
}

/// Median of every key of `pick` over `outs`.
fn medians(
    outs: &[&Outcome],
    pick: impl Fn(&Outcome) -> &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    pick(outs[0])
        .keys()
        .map(|&k| (k, median_of(outs, |o| pick(o)[k])))
        .collect()
}

/// The simulated results of an iteration, which must repeat exactly.
fn fingerprint(o: &Outcome) -> String {
    let sim: Vec<String> = o
        .e2e
        .iter()
        .filter(|(k, _)| !k.ends_with("_ms"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!(
        "digest={:#018x} makespan={} ticks={} {}",
        o.digest,
        o.makespan_us,
        o.node_ticks,
        sim.join(" ")
    )
}

fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric value {v} is not a finite number"))
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)?
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let own = Workload::new(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload {} (one of {})",
            args.workload,
            Workload::NAMES.join(", ")
        )
    })?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cores={cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut rec = Recorder::new(false);
    let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| own.setup(&mut rec)).collect();
    // One checked but untimed iteration first, so the allocator has
    // grown to the workload's footprint before anything is timed.
    let warmup = own.run(&mut rec)?;
    // One iteration's footprint, before the snapshot probe below adds
    // its machines.
    let peak_rss_mb = metrics::peak_rss_mb().ok_or("VmHWM unavailable")?;

    // Workloads other than `fabric_ckpt` report its snapshot metrics
    // from a fabric run held at its cut: one save/restore sample after
    // each timed iteration spreads the samples over the run, as
    // `fabric_ckpt` itself does with its iterations.
    let fabric_inputs = fabric::Inputs::new(args.seed);
    let mut probe = match own {
        Workload::Fabric(_) => None,
        _ => Some(fabric::cut(&fabric_inputs, &mut rec)?),
    };

    // The timed loop. Under tracing, untraced and traced iterations
    // alternate, so the overhead is measured on the same inputs.
    let mut outs: Vec<(bool, Outcome)> = Vec::new();
    let start = Instant::now();
    while outs.len() < MIN_ITERATIONS * (1 + args.trace as usize)
        || start.elapsed().as_secs_f64() < args.seconds
    {
        let traced = args.trace && outs.len() % 2 == 1;
        rec.set_enabled(traced);
        let o = own.run(&mut rec)?;
        let (a, b) = (fingerprint(&warmup), fingerprint(&o));
        if a != b {
            return Err(format!(
                "simulated results differ between iterations:\n  {a}\n  {b}"
            ));
        }
        outs.push((traced, o));
        if let Some(p) = probe.as_mut() {
            p.sample(&mut rec)?;
        }
        setups.push(own.setup(&mut rec));
    }

    let untraced: Vec<&Outcome> = outs.iter().filter(|o| !o.0).map(|o| &o.1).collect();
    let traced: Vec<&Outcome> = outs.iter().filter(|o| o.0).map(|o| &o.1).collect();
    let timed = if args.trace { &traced } else { &untraced };
    let mut attempted: u64 = warmup.ops + outs.iter().map(|o| o.1.ops).sum::<u64>();
    println!(
        "{} iterations in {:.2} s; digest {} {:#018x}",
        outs.len(),
        start.elapsed().as_secs_f64(),
        args.workload,
        warmup.digest
    );
    let speeds: Vec<String> = outs
        .iter()
        .map(|o| format!("{:.0}", o.1.sim_us_per_s()))
        .collect();
    println!("sim-us/s per iteration: {}", speeds.join(" "));

    let mut e2e = medians(&untraced, |o| &o.e2e);
    let mut layers = medians(timed, |o| &o.layers);

    // The other workloads supply the metrics they own: the held fabric
    // run, finished now, and one pass of the remaining workload.
    rec.set_enabled(args.trace);
    for name in Workload::NAMES.into_iter().filter(|n| *n != args.workload) {
        let o = if name == fabric::NAME {
            let p = probe.take().expect("every other workload holds a probe");
            p.finish(&fabric_inputs, &mut rec)?
        } else {
            let other = Workload::new(name, args.seed).expect("known workload");
            other.run(&mut rec)?
        };
        attempted += o.ops;
        println!("digest {name} {:#018x}", o.digest);
        for (k, v) in o.e2e {
            e2e.entry(k).or_insert(v);
        }
        for (k, v) in o.layers {
            layers.entry(k).or_insert(v);
        }
    }

    let untraced_speed = median_of(&untraced, Outcome::sim_us_per_s);
    e2e.insert("sim_us_per_s", untraced_speed);
    e2e.insert("setup_s", median(&setups));
    e2e.insert("peak_rss_mb", peak_rss_mb);
    e2e.insert("sim_makespan_us", warmup.makespan_us);

    layers.insert(
        "core.machine.build_ms",
        median_of(timed, |o| o.build_s * 1e3),
    );
    layers.insert("core.machine.load_ms", median_of(timed, |o| o.load_s * 1e3));
    layers.insert("core.runloop.run_ms", median_of(timed, |o| o.run_s * 1e3));
    layers.insert(
        "core.runloop.host_ns_per_tick",
        median_of(timed, |o| o.run_s * 1e9 / o.node_ticks as f64),
    );
    if args.trace {
        let traced_speed = median_of(&traced, Outcome::sim_us_per_s);
        layers.insert(
            "bench.trace_overhead_pct",
            (untraced_speed - traced_speed) / untraced_speed * 100.0,
        );
    }

    let (table, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &layers)
    } else {
        (&END_TO_END, &e2e)
    };
    for (name, unit) in table {
        if let Some(v) = values.get(name) {
            println!("  {name:<34} {v:>18.4} {unit}");
        }
    }
    if args.trace {
        println!("  spans recorded: {}", rec.spans().len());
        if let Some(path) = &args.trace_out {
            std::fs::write(path, rec.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
            println!("  trace written to {path}");
        }
    }
    result_line(true, attempted, table, values)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            // A failed check fails the run: no metrics are reported.
            eprintln!("error: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
    }
}
