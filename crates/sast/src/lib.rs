//! # hd-sast — summary-based interprocedural static soft-hang analysis
//!
//! The offline arm of the evaluation: a static analyzer over
//! [`hd_appmodel`] apps that finds known blocking APIs reachable from
//! main-thread input handlers, the way PerfChecker-style tools do in the
//! paper's related work (Section 1).
//!
//! The pipeline is classic summary-based analysis:
//!
//! 1. [`CallGraph`] — per-app call graph aggregating every observed
//!    `handler → wrapper* → API` chain;
//! 2. [`summary`] — bottom-up [`BlockingSummary`] per node (reachable
//!    blocking work, worst-case cost), fixed-pointed over wrapper
//!    cycles, truncated at `closed_source` boundaries;
//! 3. [`context`] — k=1 call-string summaries keyed `(node, caller)`
//!    ([`ContextIndex`]), so a shared wrapper's blocking callees are
//!    attributed only to the call sites that actually forward to them;
//! 4. [`engine`] — rule profiles ([`RuleProfile::PerfCheckerCompat`],
//!    [`RuleProfile::Full`], [`RuleProfile::Contextual`]) gate which
//!    reachable calls become findings;
//! 5. [`report`] — versioned SARIF-like JSON ([`SAST_SCHEMA`]), with
//!    [`SastReport::feed_confirmed`] closing the paper's shared-database
//!    loop from the static side.
//!
//! Around that core, the v2 engine scales to corpus studies:
//!
//! * [`cache`] — a content-hashed cross-app [`SummaryCache`]: the
//!   contextual summaries of call sites with a first hop, keyed by a
//!   structural fingerprint of the reachable subgraph, are computed once
//!   and reused across every app that shares the shape (a direct call
//!   resolves inline, with no lookup);
//! * [`incremental`] — [`AnalysisSession`] re-filters only the call
//!   sites whose resolved targets intersect newly discovered database
//!   symbols (the paper's feedback loop without full re-scans);
//! * [`scan`] — a strided-shard parallel corpus scanner
//!   ([`scan_corpus`]) whose merged output is byte-identical at any
//!   thread count.
//!
//! The three offline failure modes the paper motivates Hang Doctor with
//! (Section 1) are *structural* consequences of this design, not special
//! cases: unknown APIs never match the database, closed-source frames
//! stop propagation, and self-developed operations have no database name
//! at all. [`classify_bug`] names those classes per ground-truth bug so
//! the static↔runtime differential in `hd-metrics` can score them.

pub mod cache;
pub mod context;
pub mod engine;
pub mod graph;
pub mod incremental;
pub mod report;
pub mod rules;
pub mod scan;
pub mod summary;

pub use cache::{CacheStats, CachedReach, CachedTarget, SummaryCache};
pub use context::{app_fingerprint, ContextIndex, SiteReach, SiteTarget};
pub use engine::{
    analyze, analyze_with_db, analyze_with_db_cached, classify_bug, BugClass, SastConfig,
    PERCEIVABLE_NS,
};
pub use graph::CallGraph;
pub use incremental::AnalysisSession;
pub use report::{SastFinding, SastReport, SAST_SCHEMA};
pub use rules::{rule_table, RuleMeta, RuleProfile, Severity, RULE_DIRECT, RULE_VIA_WRAPPER};
pub use scan::{scan_corpus, scan_corpus_cached, CorpusScan};
pub use summary::{compute_summaries, worst_busy_ns, BlockingSummary};
