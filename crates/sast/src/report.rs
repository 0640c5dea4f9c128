//! Machine-readable findings (SARIF-like JSON).
//!
//! A [`SastReport`] is one analyzer run over one app: the schema tag,
//! the configuration that produced it (profile, database year), the
//! rule table, and the findings. The schema string is versioned like the
//! fleet golden fixtures (`hang-doctor/fleet-golden/v3`) so downstream
//! tooling can fail loudly on drift instead of misparsing.

use std::collections::BTreeSet;

use hangdoctor::BlockingApiDb;
use hd_simrt::ActionUid;
use serde::{Deserialize, Serialize};

use crate::rules::{RuleMeta, Severity};

/// Version tag of the findings JSON. Bump on any shape change.
///
/// v2 adds per-finding call-site ordinals and k=1 context, and
/// per-report contextual metadata (`context_pairs`, `app_fingerprint`).
pub const SAST_SCHEMA: &str = "hang-doctor/sast/v2";

/// One static finding: a blocking API reachable from a main-thread
/// input handler.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SastFinding {
    /// Rule that fired (e.g. `"HD-S001"`).
    pub rule: String,
    /// Severity under the perceivable-delay threshold.
    pub severity: Severity,
    /// Action whose handler reaches the call.
    pub action: ActionUid,
    /// Action name.
    pub action_name: String,
    /// Handler symbol the reachability starts from.
    pub handler: String,
    /// Call-site ordinal within the action (flat across its events,
    /// counting every call site including gated ones) — the finding's
    /// stable anchor, part of the dedupe key.
    pub site: u32,
    /// First frame the handler enters (a wrapper for nested calls, the
    /// working API itself for direct ones).
    pub entry_symbol: String,
    /// k=1 calling context of the flagged API on the minimal
    /// derivation: the symbol of the frame invoking it (empty for a
    /// depth-0 direct call, and always empty in the `full` profile,
    /// which has no context to report).
    pub context: String,
    /// The blocking API flagged.
    pub api_symbol: String,
    /// Source file of the flagged API.
    pub file: String,
    /// Line in `file`.
    pub line: u32,
    /// Call edges between the entry frame and the flagged API (0 for a
    /// direct call).
    pub depth: u32,
    /// Modeled worst-case main-thread occupancy of the flagged API, ns.
    pub est_blocking_ns: u64,
    /// Ground-truth bug id when the flagged call site is a real bug.
    pub bug_id: Option<String>,
    /// Human-readable message.
    pub message: String,
}

/// One analyzer run over one app.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SastReport {
    /// Always [`SAST_SCHEMA`].
    pub schema: String,
    /// App analyzed.
    pub app: String,
    /// App package.
    pub package: String,
    /// Rule profile name (`"full"`, `"contextual"`, or
    /// `"perfchecker-compat"`).
    pub profile: String,
    /// Vintage of the blocking-API database used.
    pub db_year: u16,
    /// `(node, caller)` summary keys built by the contextual analysis
    /// (0 for the other profiles).
    pub context_pairs: usize,
    /// Structural fingerprint of the app model (stable across runs;
    /// equal for structurally identical apps).
    pub app_fingerprint: u64,
    /// Rule table of the profile.
    pub rules: Vec<RuleMeta>,
    /// Findings, deduplicated on `(action, site, api_symbol)`.
    pub findings: Vec<SastFinding>,
}

impl SastReport {
    /// Distinct ground-truth bugs covered by the findings.
    pub fn bug_ids(&self) -> BTreeSet<String> {
        self.findings
            .iter()
            .filter_map(|f| f.bug_id.clone())
            .collect()
    }

    /// Feeds confirmed findings back into the shared database — the
    /// paper's "warn other developers" loop (Section 3.2), driven from
    /// the static side.
    ///
    /// A confirmed nested finding proves that calling the *entry
    /// wrapper* blocks the main thread, which is new information: the
    /// working API behind it is in the database already (that is how the
    /// finding fired), but the wrapper's own symbol is not. Adding it
    /// lets a direct-call-site scanner flag `wrapper()` calls in other
    /// apps without interprocedural analysis. Returns how many symbols
    /// were new.
    pub fn feed_confirmed(&self, db: &mut BlockingApiDb) -> usize {
        let mut added = 0;
        for f in &self.findings {
            if f.bug_id.is_some() && f.depth >= 1 && db.add_from_static(&f.entry_symbol, &self.app)
            {
                added += 1;
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{rule_table, RuleProfile, RULE_VIA_WRAPPER};

    fn finding(api: &str, entry: &str, depth: u32, bug: Option<&str>) -> SastFinding {
        SastFinding {
            rule: RULE_VIA_WRAPPER.to_string(),
            severity: Severity::Error,
            action: ActionUid(0),
            action_name: "open".to_string(),
            handler: "org.x.Main.onOpen".to_string(),
            site: 0,
            entry_symbol: entry.to_string(),
            context: entry.to_string(),
            api_symbol: api.to_string(),
            file: "X.java".to_string(),
            line: 10,
            depth,
            est_blocking_ns: 200_000_000,
            bug_id: bug.map(str::to_string),
            message: "m".to_string(),
        }
    }

    fn report(findings: Vec<SastFinding>) -> SastReport {
        SastReport {
            schema: SAST_SCHEMA.to_string(),
            app: "X".to_string(),
            package: "org.x".to_string(),
            profile: RuleProfile::Full.as_str().to_string(),
            db_year: 2017,
            context_pairs: 0,
            app_fingerprint: 0,
            rules: rule_table(RuleProfile::Full),
            findings,
        }
    }

    #[test]
    fn bug_ids_collects_distinct_tags() {
        let r = report(vec![
            finding("a.A.x", "w.W.f", 1, Some("b1")),
            finding("b.B.y", "w.W.f", 1, None),
            finding("c.C.z", "v.V.g", 2, Some("b1")),
        ]);
        assert_eq!(r.bug_ids(), BTreeSet::from(["b1".to_string()]));
    }

    #[test]
    fn feed_confirmed_adds_entry_wrappers_once() {
        let r = report(vec![
            finding("a.A.x", "w.W.f", 1, Some("b1")),
            finding("b.B.y", "w.W.f", 1, Some("b2")),
            finding("c.C.z", "c.C.z", 0, Some("b3")),
            finding("d.D.q", "v.V.g", 2, None),
        ]);
        let mut db = BlockingApiDb::new();
        // Only confirmed nested findings contribute, and the shared
        // wrapper is added once; direct findings add nothing new.
        assert_eq!(r.feed_confirmed(&mut db), 1);
        assert!(db.contains("w.W.f"));
        assert!(!db.contains("c.C.z"));
        assert!(!db.contains("v.V.g"));
        assert_eq!(r.feed_confirmed(&mut db), 0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(vec![finding("a.A.x", "w.W.f", 1, Some("b1"))]);
        let json = serde_json::to_string(&r).unwrap();
        let back: SastReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.schema, SAST_SCHEMA);
    }
}
