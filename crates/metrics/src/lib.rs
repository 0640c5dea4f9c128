//! # hd-metrics — evaluation metrology
//!
//! Scoring machinery shared by every experiment: ground-truth
//! classification of action executions and confusion counting
//! ([`confusion`]), monitoring-overhead accounting per the paper's
//! with/without methodology ([`overhead`]), descriptive statistics
//! ([`stats`]), and the one arm scorer every differential shares
//! ([`arm`]): precision, recall and per-class rollups of a detection
//! arm against ground truth.

pub mod arm;
pub mod confusion;
pub mod overhead;
pub mod stats;

pub use arm::{ArmScore, ClassRecall, Truth};
pub use confusion::{
    bugs_flagged, bugs_manifested, classify, classify_all, score, ui_actions_flagged, Confusion,
    ExecClass, PERCEIVABLE_NS,
};
pub use overhead::OverheadReport;
pub use stats::{frac_above, mean, percentile, std_dev};
