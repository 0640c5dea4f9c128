//! # hd-bench — experiment harness for every table and figure
//!
//! One module per experiment in the paper's evaluation, each with a
//! `run(...)` driver returning a serializable result and a `render()`
//! text table matching the paper's presentation:
//!
//! | module   | reproduces |
//! |----------|------------|
//! | [`table1`] | the motivation apps and their bug inventory |
//! | [`fig1`]   | A Better Camera buggy/fixed trace |
//! | [`fig2b`]  | the AndStatus fleet report |
//! | [`table2`] | timeout sweep of TI |
//! | [`table3`] | correlation ranking (main−render vs main-only) |
//! | [`table4`] | training-set sensitivity |
//! | [`fig4`]   | symptom thresholds over the training set |
//! | [`fig5`]   | context-switch time series |
//! | [`table5`] | 114-app field study |
//! | [`fig6`]   | K9-mail walk-through |
//! | [`fig7`]   | state transitions minimizing trace collection |
//! | [`table6`] | per-counter recognition of the 23 validation bugs |
//! | [`fig8`]   | detection performance and overhead comparison |
//! | [`generality`] | the unchanged filter on three device profiles |
//!
//! [`ablation`] adds studies of the design choices (phase-2-only,
//! single-counter filters, begin-of-action sampling, threshold and
//! sampling-period sweeps). [`sast`] runs the interprocedural static
//! analyzer over the corpus.
//!
//! Every arm-vs-arm comparison runs on one [`differential`] runner —
//! arms are closures yielding scored outcomes, invariants are named
//! predicates, the artifact is `hang-doctor/differential/v1`, and a
//! failed invariant is a nonzero exit:
//!
//! * [`chaos`] — clean vs one arm per fault category vs all: the clean
//!   baseline detects bugs, and timer jitter needs no recovery;
//! * [`sast`] `sast-diff` — static vs runtime: known bugs are all found
//!   statically, the three offline failure modes only at runtime;
//! * [`sast`] `sast-prec-diff` — full vs contextual vs perfchecker-compat:
//!   contextual removes false positives, loses no true positive, and
//!   covers compat;
//! * [`async_diff`] — causal vs baseline vs static: causal blame names
//!   every worker culprit, the baseline lands on the join site, static
//!   finds nothing, the negative control stays silent;
//! * [`control`] — local vs pushed vs default thresholds: pushed equals
//!   local byte-for-byte and differs from the defaults;
//! * [`telemetry`] loopback and cluster — networked vs in-process
//!   aggregation, and the N-node fold vs one store across
//!   kill-and-restart: byte-identical.
//!
//! The `repro` binary drives everything from one command table.
//! Performance is measured elsewhere: the `perfbench` workspace times
//! the fleet, ingest, query and scan paths end to end and layer by
//! layer (DESIGN §7.3).

pub mod ablation;
pub mod async_diff;
pub mod chaos;
pub mod common;
pub mod control;
pub mod differential;
pub mod fig1;
pub mod fig2b;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod generality;
pub mod sast;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod telemetry;

pub use common::{render_table, run_detector, run_detector_compiled, DetectorKind, RunOutcome};
