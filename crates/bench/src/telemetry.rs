//! The networked differentials: a fleet's reports routed through the
//! real uploader → TCP server → aggregation path must reproduce the
//! in-process merge byte-for-byte.
//!
//! * **Loopback** (`repro fleet --telemetry`): the `networked` arm
//!   uploads every job's report to one loopback server from concurrent
//!   workers and queries the top-N; the `in-process` arm projects the
//!   fleet merge straight to the same report. Under chaos the uploaders
//!   drop connections, delay deliveries and duplicate frames, and the
//!   idempotent ingest must absorb every duplicate rather than merge it.
//! * **Cluster** (`repro cluster`): the `cluster` arm uploads into an
//!   N-node cluster wave by wave, killing and WAL-restarting nodes per a
//!   deterministic [`NodeCrashPlan`], then folds every node's export
//!   through the coordinator ([`Cluster::export_fold`]); the
//!   `single-store` arm ingests the same batches into one in-process
//!   store. Reports and raw states must match.
//!
//! Determinism of the chaos tallies: each device uploads through its
//! own deterministic `NetFaultPlan` (seeded by `(root_seed, device)`),
//! and the loopback server's queue is at least as deep as the upload
//! worker count, so backpressure NACKs — whose counts would depend on
//! scheduling — cannot occur.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use hd_faults::{NetFaultConfig, NetFaultTally, NodeCrashPlan};
use hd_fleet::{FleetReport, JobReport, MergedFleet};
use hd_simrt::strided_map;
use hd_telemetry::{
    AggregationStore, Cluster, ClusterConfig, TelemetryError, TelemetryItem, TelemetryReport,
    TelemetryServer, UploadBatch, Uploader, UploaderConfig,
};

use crate::differential::{Arm, Differential, DifferentialReport};

/// One job's report as its device's single upload batch.
pub fn batch_of(job: &JobReport) -> UploadBatch {
    UploadBatch {
        app: job.app.clone(),
        device: job.device,
        seq: 0,
        items: vec![TelemetryItem::Report(job.report.clone())],
    }
}

/// Uploads one job's report through its device's seeded uploader and
/// returns the device's transport tally.
pub fn upload_job(
    addr: SocketAddr,
    job: &JobReport,
    net: NetFaultConfig,
    root_seed: u64,
) -> Result<NetFaultTally, TelemetryError> {
    let cfg = UploaderConfig {
        net_faults: net,
        ..UploaderConfig::default()
    };
    let mut uploader = Uploader::new(addr, job.device as u64, root_seed, cfg);
    uploader.upload(&batch_of(job))?;
    Ok(uploader.tally())
}

/// [`upload_job`] for the arms, where a failed upload is a harness
/// failure.
fn upload_or_panic(
    addr: SocketAddr,
    job: &JobReport,
    net: NetFaultConfig,
    seed: u64,
) -> NetFaultTally {
    upload_job(addr, job, net, seed)
        .unwrap_or_else(|e| panic!("device {} upload to {addr} failed: {e}", job.device))
}

/// The networked arm: `jobs` uploaded over loopback TCP by `threads`
/// workers, then queried like any operator client would. Outputs the
/// `report` and the merged transport tally `net`.
pub fn networked_arm(
    jobs: &[JobReport],
    threads: usize,
    net: NetFaultConfig,
    root_seed: u64,
    top_n: usize,
) -> Arm {
    let threads = threads.max(1);
    let server = TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(threads)
        .start()
        .expect("bind loopback server");
    let addr = server.local_addr();
    // Tallies come back in job order, so the merge is deterministic.
    let mut merged = NetFaultTally::default();
    for tally in strided_map(jobs, threads, |job| {
        upload_or_panic(addr, job, net, root_seed)
    }) {
        merged.merge(&tally);
    }
    let mut client = Uploader::plain(addr);
    let report = client.query(top_n).expect("loopback query");
    client.shutdown().expect("loopback shutdown");
    let stats = server.join();
    Arm::default()
        .output("report", &report)
        .output("net", &merged)
        .tally("batches-applied", stats.ingest.batches_applied)
        .tally("duplicates-absorbed", stats.ingest.duplicates_absorbed)
        .tally("nacks", stats.nacks_sent)
}

/// The in-process arm: the fleet merge projected straight to a report.
/// One job is one device, so `merged.jobs` is the distinct device count.
fn in_process_arm(merged: &MergedFleet, top_n: usize) -> Arm {
    let per_app = merged.apps.iter().map(|a| (a.app.as_str(), &a.report));
    Arm::default()
        .output(
            "report",
            &TelemetryReport::build(per_app, merged.jobs, top_n),
        )
        .tally("jobs", merged.jobs as u64)
}

/// The loopback differential over one fleet run's merge and jobs.
pub fn loopback_differential<'a>(
    fleet: &'a FleetReport,
    jobs: &'a [JobReport],
    threads: usize,
    net: NetFaultConfig,
    root_seed: u64,
    top_n: usize,
) -> Differential<'a> {
    Differential::new("telemetry", root_seed)
        .param("threads", threads as f64)
        .param("top_n", top_n as f64)
        .arm("networked", move || {
            networked_arm(jobs, threads, net, root_seed, top_n)
        })
        .arm("in-process", move || in_process_arm(&fleet.merged, top_n))
        .invariant("networked-matches-in-process", |r| {
            r.arm("networked").out("report") == r.arm("in-process").out("report")
        })
        .invariant("every-job-applied-once", |r| {
            r.arm("networked").count("batches-applied") == r.arm("in-process").count("jobs")
        })
        .invariant("duplicates-absorbed-not-merged", |r| {
            let networked = r.arm("networked");
            let net: NetFaultTally = networked.decode("net");
            networked.count("duplicates-absorbed") == net.duplicates_absorbed
        })
}

/// Renders the loopback differential after the fleet summary, whose
/// chaos accounting (chaos runs only) gains the uploaders' transport
/// tally.
pub fn render_loopback(r: &DifferentialReport, fleet: &mut FleetReport) -> String {
    let networked = r.arm("networked");
    if let Some(chaos) = fleet.chaos.as_mut() {
        chaos.net = networked.decode("net");
    }
    format!(
        "{}\ntelemetry differential: networked report {} the in-process merge \
         ({} batches, {} duplicates absorbed, {} NACKs)\n\n{}",
        fleet.render(),
        if r.holds("networked-matches-in-process") {
            "is byte-identical to"
        } else {
            "DIVERGED from"
        },
        networked.count("batches-applied"),
        networked.count("duplicates-absorbed"),
        networked.count("nacks"),
        networked.decode::<TelemetryReport>("report").render(),
    )
}

static CLUSTER_RUN: AtomicU64 = AtomicU64::new(0);

/// A loopback cluster after every upload wave, ready to be folded.
pub struct ClusterIngest {
    cluster: Cluster,
    root: PathBuf,
    waves: usize,
    crashes: Vec<(usize, usize)>,
}

/// Uploads `jobs` into an N-node loopback cluster with WALs under a
/// fresh scratch directory (routing by `node_for`), wave by wave and
/// single-threaded so the interleaving with the crash schedule is
/// deterministic; a scheduled victim is killed and WAL-restarted after
/// its wave. Each device uploads through its own seeded uploader, so
/// the chaos fault streams match the loopback differential's.
pub fn ingest_cluster(
    jobs: &[JobReport],
    nodes: usize,
    net: NetFaultConfig,
    root_seed: u64,
    crash: &NodeCrashPlan,
) -> ClusterIngest {
    let run = CLUSTER_RUN.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!(
        "hd-bench-cluster-{}-{root_seed}-{run}",
        std::process::id()
    ));
    let mut cluster = Cluster::launch(ClusterConfig {
        nodes,
        wal_root: Some(root.clone()),
        ..ClusterConfig::default()
    })
    .expect("launch loopback cluster");
    let waves = crash.waves().max(1);
    let mut crashes = Vec::new();
    for (wave, wave_jobs) in jobs.chunks(jobs.len().div_ceil(waves).max(1)).enumerate() {
        for job in wave_jobs {
            let node = cluster.route(&job.app, job.device);
            upload_or_panic(cluster.addr(node), job, net, root_seed);
        }
        if let Some(victim) = crash.crash_after(wave) {
            let victim = victim % nodes;
            cluster.kill_node(victim).expect("kill scheduled node");
            cluster.restart_node(victim).expect("restart killed node");
            crashes.push((wave, victim));
        }
    }
    ClusterIngest {
        cluster,
        root,
        waves,
        crashes,
    }
}

/// A store's identity (apps, devices, fingerprints) with the ingest
/// counters zeroed: chaos duplicates exist only on the networked path.
fn identity(store: &AggregationStore) -> hd_telemetry::StoreSnapshot {
    let mut snapshot = store.snapshot();
    snapshot.stats = Default::default();
    snapshot
}

impl ClusterIngest {
    /// The running cluster, for folds over its node exports.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The `cluster` arm over `folded`, a fold of this cluster's node
    /// exports; shuts the cluster down and removes its WALs.
    pub fn arm(self, folded: &AggregationStore, top_n: usize) -> Arm {
        let recovered = self.cluster.batches_recovered();
        let stats = self.cluster.shutdown().expect("cluster shutdown");
        let _ = std::fs::remove_dir_all(&self.root);
        let busy = stats
            .iter()
            .filter(|s| s.ingest.batches_applied > 0)
            .count();
        let duplicates: u64 = stats.iter().map(|s| s.ingest.duplicates_absorbed).sum();
        Arm::default()
            .output("report", &folded.report(top_n))
            .output("state", &identity(folded))
            .output("crashes", &self.crashes)
            .tally("waves", self.waves as u64)
            .tally("kill-restarts", self.crashes.len() as u64)
            .tally("batches-recovered", recovered)
            .tally("busy-nodes", busy as u64)
            .tally("duplicates-absorbed", duplicates)
    }
}

/// The single-store arm: every batch ingested once into one in-process
/// store.
fn single_store_arm(jobs: &[JobReport], top_n: usize) -> Arm {
    let mut store = AggregationStore::new();
    for job in jobs {
        store.ingest(&batch_of(job));
    }
    Arm::default()
        .output("report", &store.report(top_n))
        .output("state", &identity(&store))
}

/// The cluster differential over one fleet run's jobs.
pub fn cluster_differential<'a>(
    jobs: &'a [JobReport],
    nodes: usize,
    net: NetFaultConfig,
    root_seed: u64,
    top_n: usize,
    crash: &'a NodeCrashPlan,
) -> Differential<'a> {
    Differential::new("cluster", root_seed)
        .param("nodes", nodes as f64)
        .param("top_n", top_n as f64)
        .arm("cluster", move || {
            let ingest = ingest_cluster(jobs, nodes, net, root_seed, crash);
            let folded = ingest.cluster().export_fold().expect("coordinator fold");
            ingest.arm(&folded, top_n)
        })
        .arm("single-store", move || single_store_arm(jobs, top_n))
        .invariant("fold-report-matches-single-store", |r| {
            r.arm("cluster").out("report") == r.arm("single-store").out("report")
        })
        .invariant("fold-state-matches-single-store", |r| {
            r.arm("cluster").out("state") == r.arm("single-store").out("state")
        })
}

/// Renders the cluster differential.
pub fn render_cluster(r: &DifferentialReport) -> String {
    let cluster = r.arm("cluster");
    format!(
        "cluster differential: {} nodes, {} waves, {} kill-and-restart events, \
         {} batches replayed from WALs\nreport byte-identical: {}  \
         raw state identical: {}\n\n{}",
        r.param("nodes"),
        cluster.count("waves"),
        cluster.count("kill-restarts"),
        cluster.count("batches-recovered"),
        r.holds("fold-report-matches-single-store"),
        r.holds("fold-state-matches-single-store"),
        cluster.decode::<TelemetryReport>("report").render(),
    )
}
