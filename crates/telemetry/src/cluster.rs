//! Multi-node ingestion: the cluster routing table, the coordinator
//! fold, and the kill-and-restart harness.
//!
//! A cluster is N independent [`TelemetryServer`] nodes; the routing
//! table sends every `(app, device)` pair to one node
//! ([`node_for`] — the per-node shard hash generalized up one level),
//! so a device's batches stay ordered without any cross-node
//! coordination. The coordinator holds no state of its own: to answer
//! a query it asks every node to `Export` its raw aggregation state
//! (the semilattice elements, not the lossy top-N projection) and folds
//! the snapshots through [`AggregationStore::absorb`] — the exact merge
//! the single-node store applies internally, which is why the
//! cluster-folded report is **byte-identical** to a single-node run
//! over the same batches (the `hd-bench` cluster differential pins this
//! clean, under chaos, and across kill-and-restart).
//!
//! Crashes are first-class: [`Cluster::kill_node`] stops a node
//! abruptly (no flush, no snapshot — in-memory state is gone) and
//! [`Cluster::restart_node`] brings it back over the same WAL
//! directory, replaying to the pre-crash aggregate. `hd-faults`'
//! `NodeCrashPlan` drives *when* and *whom* deterministically, drawing
//! every decision up front.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use crate::client::Uploader;
use crate::error::TelemetryError;
use crate::fingerprint::node_for;
use crate::server::{ServerStats, TelemetryServer};
use crate::store::{AggregationStore, StoreSnapshot};

/// Cluster shape. Every node runs the same per-node layout.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of server nodes.
    pub nodes: usize,
    /// Shards (store partitions) per node.
    pub shards: usize,
    /// I/O workers per node.
    pub io_workers: usize,
    /// Durability root: node `i` logs under `<root>/node-<i>/`.
    /// `None` runs in-memory (and [`Cluster::restart_node`] refuses).
    pub wal_root: Option<PathBuf>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            nodes: 3,
            shards: 2,
            io_workers: 1,
            wal_root: None,
        }
    }
}

struct ClusterNode {
    server: Option<TelemetryServer>,
    addr: SocketAddr,
    wal_dir: Option<PathBuf>,
}

/// A running loopback cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<ClusterNode>,
    /// Batches recovered from WAL replay, summed over every restart.
    recovered: u64,
}

impl Cluster {
    /// Launches every node on an ephemeral loopback port.
    pub fn launch(cfg: ClusterConfig) -> Result<Cluster, TelemetryError> {
        if cfg.nodes == 0 {
            return Err(TelemetryError::Config {
                field: "nodes",
                reason: "must be at least 1".to_string(),
            });
        }
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for id in 0..cfg.nodes {
            let wal_dir = cfg
                .wal_root
                .as_ref()
                .map(|root| root.join(format!("node-{id}")));
            let server = Cluster::start_node(&cfg, id, wal_dir.as_deref())?;
            nodes.push(ClusterNode {
                addr: server.local_addr(),
                server: Some(server),
                wal_dir,
            });
        }
        Ok(Cluster {
            cfg,
            nodes,
            recovered: 0,
        })
    }

    fn start_node(
        cfg: &ClusterConfig,
        id: usize,
        wal_dir: Option<&Path>,
    ) -> Result<TelemetryServer, TelemetryError> {
        let mut builder = TelemetryServer::builder()
            .addr("127.0.0.1:0")
            .shards(cfg.shards)
            .io_workers(cfg.io_workers)
            .node_id(id as u64);
        if let Some(dir) = wal_dir {
            builder = builder.wal_dir(dir.to_string_lossy().to_string());
        }
        builder.start()
    }

    /// Number of nodes (routing table size).
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node an `(app, device)` pair routes to.
    pub fn route(&self, app: &str, device: u32) -> usize {
        node_for(app, device, self.nodes.len())
    }

    /// The current address of `node` (changes across a restart —
    /// ephemeral ports are not stable identities; the routing table
    /// index is).
    pub fn addr(&self, node: usize) -> SocketAddr {
        self.nodes[node].addr
    }

    /// Batches recovered from WAL replay, summed over every restart.
    pub fn batches_recovered(&self) -> u64 {
        self.recovered
    }

    /// Crash-stops `node`: threads die without flushing, snapshotting,
    /// or notifying clients; its in-memory aggregate is lost. Only the
    /// WAL survives.
    pub fn kill_node(&mut self, node: usize) -> Result<(), TelemetryError> {
        match self.nodes[node].server.take() {
            Some(server) => {
                server.kill();
                Ok(())
            }
            None => Err(TelemetryError::Protocol(format!(
                "node {node} is already down"
            ))),
        }
    }

    /// Restarts a killed node over its WAL directory, replaying back to
    /// the pre-crash aggregate.
    pub fn restart_node(&mut self, node: usize) -> Result<(), TelemetryError> {
        if self.nodes[node].server.is_some() {
            return Err(TelemetryError::Protocol(format!(
                "node {node} is still running"
            )));
        }
        let Some(wal_dir) = self.nodes[node].wal_dir.clone() else {
            return Err(TelemetryError::Config {
                field: "wal_root",
                reason: "cannot restart an in-memory node (no WAL to replay)".to_string(),
            });
        };
        let server = Cluster::start_node(&self.cfg, node, Some(&wal_dir))?;
        self.recovered += server.stats().batches_recovered;
        self.nodes[node].addr = server.local_addr();
        self.nodes[node].server = Some(server);
        Ok(())
    }

    /// Asks `node` to export its raw aggregation state over the wire.
    pub fn export(&self, node: usize) -> Result<StoreSnapshot, TelemetryError> {
        let ClusterNode { server, addr, .. } = &self.nodes[node];
        if server.is_none() {
            return Err(TelemetryError::Protocol(format!(
                "node {node} is down; restart it before aggregating"
            )));
        }
        Uploader::plain(*addr).export()
    }

    /// The coordinator fold: every node's export absorbed into one
    /// store.
    pub fn export_fold(&self) -> Result<AggregationStore, TelemetryError> {
        let mut folded = AggregationStore::new();
        for node in 0..self.nodes.len() {
            folded.absorb(&self.export(node)?);
        }
        Ok(folded)
    }

    /// Gracefully shuts every node down and returns the final per-node
    /// stats (index = node id).
    pub fn shutdown(mut self) -> Result<Vec<ServerStats>, TelemetryError> {
        let mut stats = Vec::with_capacity(self.nodes.len());
        for node in &mut self.nodes {
            match node.server.take() {
                Some(server) => {
                    Uploader::plain(node.addr).shutdown()?;
                    stats.push(server.join());
                }
                None => stats.push(ServerStats::default()),
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{TelemetryItem, UploadBatch};
    use hangdoctor::HangBugReport;

    #[test]
    fn launch_route_and_fold_an_empty_cluster() {
        let cluster = Cluster::launch(ClusterConfig {
            nodes: 3,
            ..ClusterConfig::default()
        })
        .unwrap();
        assert_eq!(cluster.nodes(), 3);
        // Routing is deterministic and total.
        for device in 0..20u32 {
            let n = cluster.route("app", device);
            assert!(n < 3);
            assert_eq!(n, cluster.route("app", device));
        }
        let report = cluster.export_fold().unwrap().report(5);
        assert_eq!(report.devices, 0);
        let stats = cluster.shutdown().unwrap();
        assert_eq!(stats.len(), 3);
    }

    #[test]
    fn zero_nodes_is_a_typed_config_error() {
        match Cluster::launch(ClusterConfig {
            nodes: 0,
            ..ClusterConfig::default()
        }) {
            Err(TelemetryError::Config { field, .. }) => assert_eq!(field, "nodes"),
            other => panic!("expected Config error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn control_dialect_reaches_individual_cluster_nodes() {
        use crate::client::ControlClient;
        use hangdoctor::ActionState;
        use hd_control::{CohortHealth, SyncReport};

        let cluster = Cluster::launch(ClusterConfig {
            nodes: 2,
            ..ClusterConfig::default()
        })
        .unwrap();

        // Each node runs its own controller; a device syncs with the
        // node its telemetry routes to, and state stays queryable there.
        let mut ctl = ControlClient::connect(cluster.addr(0));
        let directives = ctl
            .sync(SyncReport {
                device: 7,
                app: "k9mail".to_string(),
                states: vec![(0, ActionState::Suspicious, 3)],
                stack: None,
                health: CohortHealth::default(),
            })
            .unwrap();
        assert!(directives.diagnosis_enabled);
        assert!(directives.thresholds.is_none());
        let states = ctl.query_state(7).unwrap();
        assert_eq!(states, vec![(0, ActionState::Suspicious, 3)]);
        // Close the control connection (not the node — the cluster
        // shutdown below owns that) so the io workers can drain.
        drop(ctl);

        // The other node never heard of the device.
        let mut other = ControlClient::connect(cluster.addr(1));
        assert!(other.query_state(7).is_err());
        drop(other);

        cluster.shutdown().unwrap();
    }

    #[test]
    fn restarting_an_in_memory_node_is_refused() {
        let mut cluster = Cluster::launch(ClusterConfig {
            nodes: 1,
            ..ClusterConfig::default()
        })
        .unwrap();
        // Seed one batch so the kill demonstrably loses state.
        let batch = UploadBatch {
            app: "app".to_string(),
            device: 1,
            seq: 0,
            items: vec![TelemetryItem::Report(HangBugReport::new("app"))],
        };
        Uploader::plain(cluster.addr(0)).upload(&batch).unwrap();
        cluster.kill_node(0).unwrap();
        match cluster.restart_node(0) {
            Err(TelemetryError::Config { field, .. }) => assert_eq!(field, "wal_root"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }
}
