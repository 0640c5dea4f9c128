//! The `hang-doctor/control/v1` message vocabulary.
//!
//! Control messages ride the telemetry connection (the transport layer
//! wraps them in its own framed envelope and negotiates the dialect via
//! the existing Hello/Welcome handshake); this module only defines what
//! the two ends can say to each other:
//!
//! * a device **syncs** its live state ([`SyncReport`]) and receives the
//!   server's current [`Directives`] for it in one round trip;
//! * an operator **queries** any synced device's state table, **pulls**
//!   its last on-demand stack dump, **toggles** diagnosis per app, and
//!   **pushes** retrained thresholds with staged canary semantics
//!   ([`super::rollout`]).
//!
//! Every message is designed to be **idempotent**: a duplicated or
//! replayed frame must never change the outcome (`Sync` replaces the
//! device's record, `AdvanceRollout` names its target stage explicitly),
//! which is what lets the control client survive the frame loss /
//! delay / duplication faults `hd-faults` injects.

use hangdoctor::{ActionState, SymptomThresholds};
use serde::{Deserialize, Serialize};

use crate::rollout::RolloutStage;

/// Schema tag of the control dialect, offered alongside the telemetry
/// dialects during Hello/Welcome negotiation.
pub const CONTROL_SCHEMA: &str = "hang-doctor/control/v1";

/// A stack dump pulled from a hung (or recently hung) action: the
/// diagnosis-side view of *why* the action stalled, synthesized from the
/// Trace Analyzer's root cause.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StackDump {
    /// Device the dump came from.
    pub device: u32,
    /// Name of the hung action.
    pub action: String,
    /// Uid of the hung action.
    pub uid: u64,
    /// Main-thread frames, outermost first.
    pub frames: Vec<String>,
    /// Response time of the hang the dump belongs to, ns.
    pub response_ns: u64,
}

/// Health counters a device reports with every sync; the rollout
/// regression check compares the canary cohort's tally against the rest
/// of the fleet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortHealth {
    /// Upload batches the device delivered.
    pub uploads: u64,
    /// NACKs its uploader received. Protocol: the hd-telemetry server
    /// sends none, so a device's bad count is its aborts there.
    pub nacks: u64,
    /// Diagnosis sessions aborted on-device.
    pub aborts: u64,
}

impl CohortHealth {
    /// The regression signal: recoverable failures per device.
    pub fn bad(&self) -> u64 {
        self.nacks + self.aborts
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &CohortHealth) {
        self.uploads += other.uploads;
        self.nacks += other.nacks;
        self.aborts += other.aborts;
    }
}

/// What a device tells the server on every sync.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SyncReport {
    /// Device id (stable across syncs).
    pub device: u32,
    /// App the device runs.
    pub app: String,
    /// Live per-action S-Checker states: `(uid, state, normal-count)`.
    pub states: Vec<(u64, ActionState, u32)>,
    /// The most recent on-demand stack dump, if diagnosis captured one.
    pub stack: Option<StackDump>,
    /// Health counters since the device started.
    pub health: CohortHealth,
}

/// What the server tells a device in response to a sync: the full
/// desired state, not a delta, so replaying the response is harmless.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Directives {
    /// Thresholds this device should run, when the rollout covers it
    /// (`None` = keep the locally-configured thresholds).
    pub thresholds: Option<SymptomThresholds>,
    /// Whether phase-2 diagnosis is enabled for this device's app.
    pub diagnosis_enabled: bool,
}

/// A staged threshold push: the retrained values plus the baseline to
/// restore on rollback.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RolloutSpec {
    /// The retrained thresholds to roll out.
    pub thresholds: SymptomThresholds,
    /// The thresholds every device falls back to if the canary cohort
    /// regresses.
    pub baseline: SymptomThresholds,
}

/// Operator/device → server control messages.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ControlRequest {
    /// Device: report live state, receive directives.
    Sync(SyncReport),
    /// Operator: read a synced device's live state table.
    QueryState {
        /// Device to query.
        device: u32,
    },
    /// Operator: pull a device's most recent stack dump.
    PullStack {
        /// Device to pull from.
        device: u32,
    },
    /// Operator: enable/disable phase-2 diagnosis for one app.
    ToggleDiagnosis {
        /// App package the toggle applies to.
        app: String,
        /// Desired diagnosis state.
        enabled: bool,
    },
    /// Operator: start a staged rollout of retrained thresholds
    /// (begins at the canary stage).
    PushThresholds(RolloutSpec),
    /// Operator: advance the rollout **to** `stage` (idempotent: naming
    /// the current or an earlier stage is a no-op).
    AdvanceRollout {
        /// Target stage.
        stage: RolloutStage,
    },
    /// Operator: read the rollout's current status.
    RolloutStatus,
}

/// Server → operator/device control responses.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ControlResponse {
    /// Answer to `Sync`: the device's full desired state.
    Directives(Directives),
    /// Answer to `QueryState`.
    StateTable {
        /// Device the table belongs to.
        device: u32,
        /// Live `(uid, state, normal-count)` triples.
        states: Vec<(u64, ActionState, u32)>,
    },
    /// Answer to `PullStack` (`None` = the device has not captured one).
    Stack {
        /// Device the dump belongs to.
        device: u32,
        /// The dump, if any.
        stack: Option<StackDump>,
    },
    /// Generic acknowledgement (toggles).
    Ok,
    /// Answer to `PushThresholds`/`AdvanceRollout`/`RolloutStatus`.
    Rollout(RolloutStatusInfo),
    /// Typed failure (unknown device, invalid thresholds, no rollout).
    Err(String),
}

/// Serializable snapshot of a rollout's state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RolloutStatusInfo {
    /// Current stage name (`canary`/`expanded`/`full`), or `rolled-back`.
    pub stage: String,
    /// Whether the rollout was rolled back.
    pub rolled_back: bool,
    /// Devices in the rollout cohort (bucket below the stage cutoff).
    pub cohort_devices: u64,
    /// Regression signal (NACKs + aborts) tallied across the cohort.
    pub cohort_bad: u64,
    /// Devices outside the cohort.
    pub rest_devices: u64,
    /// Regression signal tallied across the rest of the fleet.
    pub rest_bad: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_health_merge_and_bad_signal() {
        let mut a = CohortHealth {
            uploads: 3,
            nacks: 1,
            aborts: 2,
        };
        let b = CohortHealth {
            uploads: 1,
            nacks: 4,
            aborts: 0,
        };
        a.merge(&b);
        assert_eq!(a.uploads, 4);
        assert_eq!(a.bad(), 7);
        assert_eq!(CohortHealth::default().bad(), 0);
    }

    #[test]
    fn control_schema_tag_is_pinned() {
        assert_eq!(CONTROL_SCHEMA, "hang-doctor/control/v1");
    }

    #[test]
    fn messages_round_trip_through_json() {
        let req = ControlRequest::Sync(SyncReport {
            device: 3,
            app: "k9mail".to_string(),
            states: vec![(1, ActionState::Suspicious, 0), (2, ActionState::Normal, 7)],
            stack: Some(StackDump {
                device: 3,
                action: "open inbox".to_string(),
                uid: 1,
                frames: vec!["a".to_string(), "b".to_string()],
                response_ns: 150_000_000,
            }),
            health: CohortHealth {
                uploads: 2,
                nacks: 0,
                aborts: 1,
            },
        });
        let json = serde_json::to_string(&req).unwrap();
        let back: ControlRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        let resp = ControlResponse::Rollout(RolloutStatusInfo {
            stage: "canary".to_string(),
            rolled_back: false,
            cohort_devices: 1,
            cohort_bad: 0,
            rest_devices: 9,
            rest_bad: 2,
        });
        let json = serde_json::to_string(&resp).unwrap();
        let back: ControlResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
