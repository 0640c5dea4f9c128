//! Command-line driver regenerating every table and figure of the
//! Hang Doctor evaluation, plus the differentials, telemetry and control
//! commands around it.
//!
//! ```text
//! repro [options] <command>...
//! repro all
//! ```
//!
//! Every command is one row of [`COMMANDS`] and every option one row of
//! [`FLAGS`]; `repro --help` prints the usage generated from both, and
//! options may appear anywhere on the line. A differential command
//! emits one `hang-doctor/differential/v1` artifact and exits nonzero
//! when any of its invariants fails. Performance is measured by the
//! separate `perfbench` workspace, not by `repro`.

use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use hd_bench::differential::DifferentialReport;
use hd_bench::*;
use hd_sast::RuleProfile;
use serde::Serialize;

/// Every option, one per line: flag, placeholder, default (`-` for
/// none), help. The placeholder is also the validation rule: `N` is a
/// positive integer, `SEED`/`ID` a non-negative one, `RATE` a number in
/// `[0, 1]`, `[PATH]` an optional operand, `-` a switch, anything else
/// free text.
const FLAGS: &str = "\
--seed       SEED       42              root seed
--quick      -          -               shrink trace lengths: seconds instead of minutes
--full       -          -               table5 over the whole 114-app corpus
--chaos      RATE       -               inject deterministic faults at RATE: observation faults
                                        into fleet, transport faults with --telemetry/upload/
                                        cluster (plus node crashes), control-frame faults into
                                        control/push-thresholds/control-diff; the chaos
                                        differential's rate (0.05)
--json       [PATH]     -               print results as JSON, or write them to PATH
--devices    N          8               devices per app in the fleet commands
--threads    N          1               fleet workers; sast scan shards (same bytes at any N)
--telemetry  -          -               fleet through a loopback server: the differential
--addr       HOST:PORT  127.0.0.1:7077  server address
--shards     N          4               serve: ingest shards
--top        N          25              hang groups per exported report
--shutdown   -          -               upload/control: stop the server afterwards
--nodes      N          3               cluster: nodes
--wal        DIR        -               serve: durable WAL + snapshots; replay: the WALs to fold
--node-id    ID         0               serve: node id
--crash      -          -               cluster: kill and WAL-restart one node mid-upload
--device     N          1               control: the device to probe
--heavy      -          -               push-thresholds: the exhaustive adaptation pass";

/// The `(flag, placeholder, default)` rows of [`FLAGS`].
fn flags() -> impl Iterator<Item = (&'static str, &'static str, Option<&'static str>)> {
    // Continuation lines of a long help start with blanks.
    FLAGS.lines().filter(|l| l.starts_with("--")).map(|line| {
        let mut cols = line.split_whitespace();
        let mut col = || cols.next().expect("flag rows have three columns");
        let (flag, meta, default) = (col(), col(), col());
        (flag, meta, Some(default).filter(|d| *d != "-"))
    })
}

/// The parsed options: every given flag's validated raw value.
struct Opts(Vec<(&'static str, String)>);

impl Opts {
    /// The flag's raw value if given (`""` for a switch).
    ///
    /// # Panics
    ///
    /// If `name` is no row of [`FLAGS`], so a misspelled lookup fails
    /// the first time it runs instead of reading as "not given".
    fn raw(&self, name: &str) -> Option<&str> {
        assert!(
            flags().any(|f| &f.0[2..] == name),
            "--{name} is not a row of FLAGS"
        );
        let given = self.0.iter().rev().find(|(flag, _)| &flag[2..] == name);
        given.map(|(_, v)| v.as_str())
    }

    fn on(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// The flag's value, if given.
    fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.raw(name).and_then(|v| v.parse().ok())
    }

    /// The flag's value, or its default.
    fn get<T: FromStr>(&self, name: &str) -> T {
        let default = flags().find(|f| &f.0[2..] == name).and_then(|f| f.2);
        let value = self.raw(name).or(default);
        value
            .and_then(|v| v.parse().ok())
            .expect("flag has a valid value")
    }

    fn seed(&self) -> u64 {
        self.get("seed")
    }

    fn chaos(&self) -> Option<f64> {
        self.opt("chaos")
    }

    /// Executions per action of the small, mid and big experiments.
    fn sizes(&self) -> (usize, usize, usize) {
        if self.on("quick") {
            (4, 4, 6)
        } else {
            (6, 8, 12)
        }
    }

    fn addr(&self) -> Result<SocketAddr, String> {
        let addr: String = self.get("addr");
        let mut resolved = addr.to_socket_addrs().map_err(|e| e.to_string());
        let first = resolved.as_mut().ok().and_then(|a| a.next());
        first.ok_or_else(|| format!("cannot resolve {addr}"))
    }
}

/// One command: name, part of `repro all`, help, driver.
type Command = (&'static str, bool, &'static str, Driver);
type Driver = fn(&Opts) -> Result<(), String>;

/// Runs an experiment and emits its result.
macro_rules! show {
    ($o:expr, $result:expr) => {{
        let r = $result;
        emit($o, &r, r.render())
    }};
}

/// Every command, in usage and `repro all` order; one row per command
/// (left unformatted so the table reads as one).
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("fig1", true, "A Better Camera buggy/fixed trace", |o| show!(o, fig1::run(o.seed()))),
    ("table1", true, "motivation apps and their bugs", |o| show!(o, table1::run(o.seed()))),
    ("fig2b", true, "the AndStatus fleet report", |o| show!(o, fig2b::run(o.seed(), 6))),
    ("table2", true, "timeout sweep of TI", |o| show!(o, table2::run(o.seed(), o.sizes().2.max(6)))),
    ("table3", true, "counter correlation ranking", |o| show!(o, table3::run(o.seed(), o.sizes().0))),
    ("table4", true, "training-set sensitivity", |o| show!(o, table4::run(o.seed(), o.sizes().0))),
    ("fig4", true, "symptom thresholds", |o| show!(o, fig4::run(o.seed(), o.sizes().0))),
    ("fig5", true, "context-switch time series", |o| show!(o, fig5::run(o.seed()))),
    ("table5", true, "field study (--full: all 114 apps)", table5),
    ("fig6", true, "K9-mail walk-through", |o| show!(o, fig6::run(o.seed()))),
    ("fig7", true, "state transitions", |o| show!(o, fig7::run(o.seed()))),
    ("table6", true, "per-counter recognition", |o| show!(o, table6::run(o.seed(), o.sizes().1))),
    ("fig8", true, "detection and overhead", |o| show!(o, fig8::run(o.seed(), o.sizes().2))),
    ("generality", false, "the filter on three device profiles", |o| {
        show!(o, generality::run(o.seed(), o.sizes().1))
    }),
    ("ablations", true, "design-choice ablations", ablations),
    ("chaos", true, "differential: clean vs each fault category", |o| {
        let r = chaos::differential(o.seed(), o.chaos().unwrap_or(0.05), o.sizes().0).run();
        finish(o, &r, chaos::render(&r), None)
    }),
    ("sast", true, "contextual static scan", |o| scan(o, RuleProfile::Contextual)),
    ("sast-full", false, "context-insensitive scan", |o| scan(o, RuleProfile::Full)),
    ("sast-compat", false, "perfchecker-compat scan", |o| scan(o, RuleProfile::PerfCheckerCompat)),
    ("sast-diff", false, "differential: static vs runtime per bug class", |o| {
        let r = sast::static_runtime_differential(o.seed(), o.sizes().0, 2017).run();
        finish(o, &r, sast::render_differential(&r), None)
    }),
    ("sast-prec-diff", false, "differential: the three rule profiles", |o| {
        let r = sast::precision_differential(o.seed(), o.sizes().0, 2017).run();
        finish(o, &r, sast::render_precision(&r), None)
    }),
    ("async-diff", false, "differential: causal vs join-site blame", |o| {
        let r = async_diff::differential(o.seed(), o.sizes().0, 2017).run();
        finish(o, &r, async_diff::render(&r), None)
    }),
    ("fleet", false, "study fleet (--telemetry: loopback differential)", fleet),
    ("serve", false, "ingestion server, until a shutdown frame", serve),
    ("upload", false, "upload the fleet to --addr, query the top N", upload),
    ("cluster", false, "differential: N-node fold vs one store", cluster),
    ("replay", false, "fold the WALs under --wal DIR offline", replay),
    ("control", false, "probe a live server's control plane", probe),
    ("push-thresholds", false, "retrain and push a canaried rollout", push_thresholds),
    ("control-diff", false, "differential: pushed vs local thresholds", |o| {
        let r = control::differential(o.seed(), o.chaos().unwrap_or(0.0)).run();
        finish(o, &r, control::render(&r), Some("CONTROL_differential.json"))
    }),
];

fn usage() -> ! {
    let mut out = String::from("usage: repro [options] <command>...\n\n");
    out.push_str("commands (* = part of `repro all`):\n");
    for (name, all, help, _) in COMMANDS {
        let mark = if *all { '*' } else { ' ' };
        out.push_str(&format!("  {name:<16}{mark} {help}\n"));
    }
    eprintln!("{out}\noptions (flag, value, default, meaning):\n{FLAGS}");
    std::process::exit(2);
}

fn is_command(name: &str) -> bool {
    name == "all" || COMMANDS.iter().any(|c| c.0 == name)
}

/// Splits the command line into validated options and command names;
/// `None` on any malformed option.
fn parse(args: impl Iterator<Item = String>) -> Option<(Opts, Vec<String>)> {
    let (mut opts, mut commands) = (Vec::new(), Vec::new());
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            commands.push(arg);
            continue;
        }
        let (flag, meta, _) = flags().find(|f| f.0 == arg)?;
        let value = match meta {
            "-" => String::new(),
            // A following command name or flag means stdout.
            "[PATH]" => match args.peek() {
                Some(next) if !next.starts_with('-') && !is_command(next) => args.next()?,
                _ => String::new(),
            },
            "N" => args
                .next()
                .filter(|v| v.parse::<u32>().is_ok_and(|v| v > 0))?,
            "SEED" | "ID" => args.next().filter(|v| v.parse::<u64>().is_ok())?,
            "RATE" => args
                .next()
                .filter(|v| v.parse::<f64>().is_ok_and(|v| (0.0..=1.0).contains(&v)))?,
            _ => args.next()?,
        };
        opts.push((flag, value));
    }
    Some((Opts(opts), commands))
}

/// Prints `text`, or with `--json` the value as JSON — to stdout, or
/// to the `--json` path.
fn emit<T: Serialize>(o: &Opts, value: &T, text: String) -> Result<(), String> {
    match o.raw("json") {
        None => println!("{text}"),
        Some("") => println!("{}", to_json(value)),
        Some(path) => {
            std::fs::write(path, to_json(value) + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
    }
    Ok(())
}

/// Every differential command's ending: its text closed by the verdict
/// line, its artifact (emitted like any result, or written to the
/// `--json` path, else `file`), then its invariants as the exit status.
fn finish(
    o: &Opts,
    r: &DifferentialReport,
    text: String,
    file: Option<&str>,
) -> Result<(), String> {
    let text = format!("{text}\n{}", r.verdict());
    match file {
        Some(default) => {
            let path = o.raw("json").filter(|p| !p.is_empty()).unwrap_or(default);
            std::fs::write(path, to_json(&r.artifact()) + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}: {text}");
        }
        None => emit(o, &r.artifact(), text)?,
    }
    r.gate()
}

fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializable result")
}

/// The fleet study spec (honouring `--quick/--devices/--threads/--chaos`).
fn study_spec(o: &Opts) -> hd_fleet::FleetSpec {
    let mut spec = hd_fleet::FleetSpec::study(o.get("devices"), o.get("threads"), o.seed());
    if o.on("quick") {
        spec.executions_per_action = 2;
    }
    if let Some(rate) = o.chaos() {
        spec.faults = hangdoctor::FaultConfig::chaos(rate);
    }
    spec
}

/// Transport faults: `--chaos RATE` also shakes the telemetry path.
fn net_config(o: &Opts) -> hangdoctor::NetFaultConfig {
    o.chaos().map_or_else(
        hangdoctor::NetFaultConfig::none,
        hangdoctor::NetFaultConfig::chaos,
    )
}

fn scan(o: &Opts, profile: RuleProfile) -> Result<(), String> {
    show!(o, sast::run_scan(profile, 2017, o.get("threads")))
}

fn table5(o: &Opts) -> Result<(), String> {
    let (seed, mid) = (o.seed(), o.sizes().1);
    if o.on("full") {
        show!(o, table5::run(seed, mid))
    } else {
        show!(o, table5::run_study_apps(seed, mid.max(8)))
    }
}

fn ablations(o: &Opts) -> Result<(), String> {
    let ((small, mid, _), seed) = (o.sizes(), o.seed());
    show!(o, ablation::phase2_only(seed, mid))?;
    show!(o, ablation::single_counter(seed, mid))?;
    show!(o, ablation::early_sampling(seed, mid.max(8)))?;
    show!(o, ablation::occurrence_sweep(seed, small))?;
    show!(o, ablation::period_sweep(seed, small))
}

fn fleet(o: &Opts) -> Result<(), String> {
    let spec = study_spec(o);
    if !o.on("telemetry") {
        return show!(o, hd_fleet::run_fleet(&spec));
    }
    let (mut fleet, jobs) = hd_fleet::run_fleet_with_reports(&spec);
    let (net, seed, top) = (net_config(o), spec.root_seed, o.get("top"));
    let r = telemetry::loopback_differential(&fleet, &jobs, spec.threads, net, seed, top).run();
    let text = telemetry::render_loopback(&r, &mut fleet);
    finish(o, &r, text, None)
}

fn cluster(o: &Opts) -> Result<(), String> {
    let (spec, nodes) = (study_spec(o), o.get("nodes"));
    // --crash kills one node after the middle wave and restarts it from
    // its WAL; --chaos RATE draws random crash waves (plus transport
    // faults) at that rate.
    let crash = match o.chaos() {
        Some(rate) => hd_faults::NodeCrashPlan::for_cluster(rate, nodes, 4, spec.root_seed),
        None if o.on("crash") => hd_faults::NodeCrashPlan::pinned(3, 1, 1 % nodes),
        None => hd_faults::NodeCrashPlan::none(1),
    };
    let (_, jobs) = hd_fleet::run_fleet_with_reports(&spec);
    let (net, seed, top) = (net_config(o), spec.root_seed, o.get("top"));
    let r = telemetry::cluster_differential(&jobs, nodes, net, seed, top, &crash).run();
    finish(o, &r, telemetry::render_cluster(&r), None)
}

fn serve(o: &Opts) -> Result<(), String> {
    let addr: String = o.get("addr");
    let (shards, node): (usize, u64) = (o.get("shards"), o.get("node-id"));
    let wal: Option<String> = o.opt("wal");
    let mut builder = hd_telemetry::TelemetryServer::builder()
        .addr(&addr)
        .shards(shards)
        .node_id(node);
    if let Some(dir) = &wal {
        builder = builder.wal_dir(dir.clone());
    }
    let server = builder
        .start()
        .map_err(|e| format!("cannot start server on {addr}: {e}"))?;
    let durability = wal.map_or("in-memory".to_string(), |d| {
        format!("WAL under {d} as node {node}")
    });
    println!(
        "hd-telemetry server listening on {} ({shards} shards, {durability}); \
         stop it with `repro upload --shutdown` or any shutdown frame",
        server.local_addr(),
    );
    let recovered = server.stats().batches_recovered;
    if recovered > 0 {
        println!("recovered {recovered} batches from WAL replay");
    }
    let s = server.join();
    let text = format!(
        "server stopped: {} connections, {} batches applied ({} duplicates absorbed), \
         {} recovered from WAL",
        s.connections, s.ingest.batches_applied, s.ingest.duplicates_absorbed, s.batches_recovered
    );
    emit(o, &s, text)
}

fn upload(o: &Opts) -> Result<(), String> {
    let addr = o.addr()?;
    let (_, jobs) = hd_fleet::run_fleet_with_reports(&study_spec(o));
    let mut t = hangdoctor::NetFaultTally::default();
    for job in &jobs {
        let device = telemetry::upload_job(addr, job, net_config(o), o.seed())
            .map_err(|e| format!("device {} upload failed: {e}", job.device))?;
        t.merge(&device);
    }
    let mut client = hd_telemetry::Uploader::plain(addr);
    let report = client.query(o.get("top")).map_err(|e| e.to_string())?;
    let mut text = format!(
        "uploaded {} device reports to {addr}\n\n{}",
        jobs.len(),
        report.render()
    );
    if t.injected() > 0 {
        text.push_str(&format!(
            "\ntransport faults injected: {} connection drops, {} delayed deliveries, \
             {} duplicate frames ({} absorbed by idempotent ingest)\n",
            t.connections_dropped, t.deliveries_delayed, t.frames_duplicated, t.duplicates_absorbed
        ));
    }
    if o.on("shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
        text.push_str("\nserver shutdown requested\n");
    }
    emit(o, &report, text)
}

fn replay(o: &Opts) -> Result<(), String> {
    use hd_telemetry::wal;
    let root = PathBuf::from(o.opt::<String>("wal").ok_or("replay needs --wal DIR")?);
    // Accept either one node's directory (shard-*.wal inside) or a
    // cluster root (node-*/ subdirectories).
    let node = |p: &PathBuf| {
        p.is_dir()
            && p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("node-"))
    };
    let mut dirs = vec![root.clone()];
    if let Ok(entries) = std::fs::read_dir(&root) {
        dirs.extend(entries.flatten().map(|e| e.path()).filter(node));
    }
    dirs.sort();
    // Each shard is recovered read-only: the files are read, never
    // opened for append, so a torn tail stays on disk as it was.
    let (mut stores, mut batches) = (Vec::new(), 0usize);
    for dir in &dirs {
        for shard in 0.. {
            let (wal_file, snap_file) = (wal::wal_path(dir, shard), wal::snapshot_path(dir, shard));
            if !wal_file.exists() && !snap_file.exists() {
                break;
            }
            let at = |file: &PathBuf, e: &dyn std::fmt::Display| format!("{}: {e}", file.display());
            let snap = wal::read_snapshot(&snap_file).map_err(|e| at(&snap_file, &e))?;
            let mut records = Vec::new();
            if wal_file.exists() {
                let bytes = std::fs::read(&wal_file).map_err(|e| at(&wal_file, &e))?;
                records = wal::scan_wal(&bytes)
                    .map_err(|e| at(&wal_file, &e))?
                    .batches;
            }
            batches += records.len();
            stores.push(wal::restore(snap.as_ref(), &records));
        }
    }
    if stores.is_empty() {
        return Err(format!(
            "no shard-*.wal or shard-*.snap files under {}",
            root.display()
        ));
    }
    let parts: Vec<&hd_telemetry::AggregationStore> = stores.iter().collect();
    let report = hd_telemetry::AggregationStore::fold_report(&parts, o.get("top"));
    let text = format!(
        "replayed {batches} batches from {} shard log(s) under {}\n\n{}",
        stores.len(),
        root.display(),
        report.render()
    );
    emit(o, &report, text)
}

fn probe(o: &Opts) -> Result<(), String> {
    let addr = o.addr()?;
    let executions = if o.on("quick") { 2 } else { 4 };
    let probe = control::run_control_probe(addr, o.seed(), executions, o.chaos(), o.get("device"))
        .map_err(|e| format!("control probe against {addr} failed: {e}"))?;
    let mut text = probe.render();
    if o.on("shutdown") {
        let mut client = hd_telemetry::ControlClient::connect(addr);
        client.shutdown().map_err(|e| e.to_string())?;
        text.push_str("server shutdown requested\n");
    }
    emit(o, &probe, text)
}

fn push_thresholds(o: &Opts) -> Result<(), String> {
    let addr = o.addr()?;
    let executions = if o.on("quick") { 2 } else { 3 };
    let push = control::run_push_thresholds(addr, o.seed(), executions, o.on("heavy"), o.chaos())
        .map_err(|e| format!("threshold push to {addr} failed: {e}"))?;
    show!(o, &push)?;
    if push.statuses.iter().any(|s| s.rolled_back) {
        return Err(
            "threshold rollout rolled back: the canary cohort regressed \
                    against the rest of the fleet"
                .to_string(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let Some((opts, mut commands)) = parse(std::env::args().skip(1)) else {
        usage()
    };
    if commands.is_empty() {
        usage();
    }
    if commands.iter().any(|c| c == "all") {
        commands = COMMANDS
            .iter()
            .filter(|c| c.1)
            .map(|c| c.0.to_string())
            .collect();
    }
    for (i, name) in commands.iter().enumerate() {
        if i > 0 && !opts.on("json") {
            println!("\n{}\n", "=".repeat(72));
        }
        let result = match COMMANDS.iter().find(|c| c.0 == name) {
            Some(command) => (command.3)(&opts),
            None => Err(format!("unknown experiment '{name}'")),
        };
        if let Err(e) = result {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_anywhere_and_fall_back_to_defaults() {
        let args = ["--quick", "fleet", "--devices", "2", "--json"];
        let (o, commands) = parse(args.iter().map(|a| a.to_string())).expect("valid line");
        assert_eq!(commands, ["fleet"]);
        assert!(o.on("quick") && !o.on("telemetry"));
        assert_eq!(o.get::<u32>("devices"), 2);
        assert_eq!(o.get::<u32>("threads"), 1);
        assert_eq!(o.raw("json"), Some(""));
        assert!(parse(["--devices", "0"].iter().map(|a| a.to_string())).is_none());
    }

    #[test]
    fn replay_folds_a_torn_log_without_touching_it() {
        use hangdoctor::{HangBugReport, RootCause, RootKind};
        use hd_telemetry::wal::{self, WalBatch, WalHeader, WalRecord};
        use hd_telemetry::{AggregationStore, TelemetryItem, TelemetryReport, UploadBatch};

        let dir = std::env::temp_dir().join(format!("hd-repro-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let batch = |device| {
            let mut report = HangBugReport::new("k9mail");
            let uid = hd_simrt::ActionUid(1);
            report.note_execution(device, uid, "onOpen");
            let root = RootCause {
                symbol: "java.io.File.read".to_string(),
                file: "Open.java".to_string(),
                line: 31,
                occurrence_factor: 1.0,
                kind: RootKind::BlockingApi,
            };
            report.record_bug(device, uid, &root, 150_000_000);
            UploadBatch {
                app: "k9mail".to_string(),
                device,
                seq: 0,
                items: vec![TelemetryItem::Report(report)],
            }
        };
        let record = |b: &UploadBatch| {
            wal::encode_record(&WalRecord::Batch(WalBatch {
                fingerprint: hd_telemetry::batch_fingerprint(b),
                batch: b.clone(),
            }))
        };
        let (kept, torn) = (batch(1), batch(2));
        let mut log = wal::encode_record(&WalRecord::Header(WalHeader {
            schema: wal::WAL_SCHEMA.to_string(),
            node: 0,
            shard: 0,
        }));
        log.extend(record(&kept));
        let tail = record(&torn);
        log.extend(&tail[..tail.len() - 7]);
        let log_file = wal::wal_path(&dir, 0);
        std::fs::write(&log_file, &log).unwrap();

        let out = dir.join("replayed.json");
        let args = [
            "replay",
            "--wal",
            dir.to_str().unwrap(),
            "--top",
            "5",
            "--json",
        ];
        let args = args
            .iter()
            .map(|a| a.to_string())
            .chain([out.display().to_string()]);
        let (o, _) = parse(args).expect("valid line");
        replay(&o).expect("replay succeeds");

        assert_eq!(
            std::fs::read(&log_file).unwrap(),
            log,
            "the log is untouched"
        );
        let mut want = AggregationStore::new();
        want.ingest(&kept);
        let got: TelemetryReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            got,
            want.report(5),
            "the complete record folds, the torn one does not"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "--quikc is not a row of FLAGS")]
    fn a_misspelled_flag_lookup_panics() {
        Opts(Vec::new()).on("quikc");
    }
}
