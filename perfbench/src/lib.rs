//! End-to-end and per-layer benchmark of Hang Doctor's hang-report path.
//!
//! One command runs one seeded workload for a fixed time, checks that the
//! program's outputs are correct, and prints every metric by name with
//! its unit, direction and sample count; the last line of standard
//! output is a one-line JSON summary. `--trace 1` runs the same workload
//! with spans recorded from this harness around each call into a layer's
//! public functions and reports per-layer metrics instead.
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `fleet-study` — closed batch of `run_fleet` (simrt, perfmon,
//!   hangdoctor, fleet); see [`fleet`];
//! * `ingest-durable` — uploads at a fixed rate against a WAL-enabled
//!   server; see [`ingest`];
//! * `ops-mixed` — open-loop uploads, queries and control requests
//!   against an in-memory server; see [`ops`];
//! * `sast-corpus` — batch corpus scans with a fresh summary cache; see
//!   [`sast`].
//!
//! Every workload reports the same end-to-end metrics: `setup_s`,
//! `peak_rss_mb` and `cpu_us_per_op`, the program's CPU time per
//! operation (a device job, an ACKed upload, an answered request, a
//! scanned app). CPU time, unlike wall time, does not count the periods
//! a shared host takes the CPUs away; the load generator's threads
//! measure their own CPU time and it is taken out. Wall-clock figures —
//! fleet and scan throughput, request latencies — drift by a fifth to
//! twice between runs on such a host, more than any bound allows, so
//! they are printed beside the end-to-end metrics and are per-layer
//! metrics of the traced run.
//!
//! Every size, rate and window is a constant of this crate, never a
//! function of measured capacity; the program receives only the inputs
//! generated from `--seed`.

pub mod env;
pub mod fleet;
pub mod ingest;
pub mod loadgen;
pub mod ops;
pub mod report;
pub mod sast;
pub mod stats;
pub mod trace;

use report::RunReport;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["fleet-study", "ingest-durable", "ops-mixed", "sast-corpus"];

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measurement time, s.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the timed one.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`; a repeated
/// flag takes its last value, so a default recorded in the command line
/// can be overridden by appending the flag again.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs the selected workload and returns its report.
pub fn run(args: &Args) -> RunReport {
    let mut report = RunReport {
        traced: args.trace,
        ..RunReport::default()
    };
    let root = std::path::Path::new(".");
    report.note("workload", &args.workload);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note(
        "mode",
        if args.trace {
            "traced (per-layer)"
        } else {
            "timed (end-to-end)"
        },
    );
    report.note("host_cpus", env::host_cpus());
    report.note("commit", env::commit(root));
    report.note("source_digest", env::source_digest(root));
    match args.workload.as_str() {
        "fleet-study" => fleet::run(args, &mut report),
        "ingest-durable" => ingest::run(args, &mut report),
        "ops-mixed" => ops::run(args, &mut report),
        "sast-corpus" => sast::run(args, &mut report),
        other => unreachable!("parse_args rejects workload {other}"),
    }
    report.seal();
    report
}

/// Set-up cost, one sample per set-up repetition. `setup_s` is the
/// median CPU time of the whole process over a repetition, every thread
/// included (the server's in the telemetry workloads), so work moved
/// into set-up shows in it even when spread over threads, and a shared
/// host taking the CPUs away does not. Wall time goes in the readable
/// report beside it.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
}

impl SetupTimes {
    /// Runs one set-up repetition and records its cost.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let (wall, cpu) = (std::time::Instant::now(), env::process_cpu_s());
        let out = setup();
        self.cpu_s.push(env::process_cpu_s() - cpu);
        self.wall_s.push(wall.elapsed().as_secs_f64());
        out
    }

    /// Adds `setup_s` and the wall-time median to `report`.
    pub fn report(&self, report: &mut RunReport) {
        let lower = report::Better::Lower;
        report.median_metric("setup_s", "s", lower, &self.cpu_s);
        report.text_median("setup_wall_s", "s", lower, &self.wall_s);
    }
}

/// FNV-1a 64 digest, hex — printed beside checked outputs so two runs
/// can be compared by eye.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", hd_telemetry::fnv1a(bytes))
}

/// Compares two serialized outputs that must be byte-identical: `Ok`
/// carries the digest of the agreed bytes, `Err` where they first
/// differ.
pub fn check_identical(what: &str, got: &str, want: &str) -> Result<String, String> {
    if got == want {
        return Ok(format!(
            "{} bytes, digest {}",
            got.len(),
            digest(got.as_bytes())
        ));
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what} differs at byte {at} ({} bytes vs {} expected)",
        got.len(),
        want.len()
    ))
}

/// Writes the traced run's spans under the work directory and notes
/// where.
pub fn write_trace(args: &Args, tracer: &trace::Tracer, report: &mut RunReport) {
    let path = env::work_dir()
        .join("traces")
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note("spans_file", path.display()),
        Err(e) => report.check("trace written", Err(format!("{}: {e}", path.display()))),
    }
}

/// Reports the tracing overhead of a traced run: the median cost, s, of
/// the same unit of work untraced and traced — wall time of a replay or
/// scan, process CPU time of a request — and their difference as a share
/// of the untraced cost.
pub fn trace_overhead(report: &mut RunReport, untraced_s: &[f64], traced_s: &[f64]) {
    let (u, t) = (stats::median(untraced_s), stats::median(traced_s));
    let better = report::Better::Lower;
    report.metric(
        "trace.untraced_ms",
        "ms",
        better,
        u * 1e3,
        untraced_s.len() as u64,
    );
    report.metric(
        "trace.traced_ms",
        "ms",
        better,
        t * 1e3,
        traced_s.len() as u64,
    );
    report.metric(
        "trace.overhead_pct",
        "%",
        better,
        100.0 * (t - u) / u,
        traced_s.len() as u64,
    );
}
