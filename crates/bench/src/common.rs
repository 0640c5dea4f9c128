//! Shared experiment machinery: run one app trace under one detector,
//! the small fleet matrix the chaos and control differentials share,
//! and the text-table renderer.

use std::collections::HashSet;

use hangdoctor::{FaultConfig, HangDoctor, HangDoctorConfig, HdOutput, SharedApiDb};
use hd_appmodel::corpus::table5;
use hd_appmodel::{build_run, App, CompiledApp, ExecTruth, Schedule};
use hd_baselines::{
    install, DetectionLog, Detector, DetectorOutput, TimeoutDetector, UtilizationDetector,
};
use hd_fleet::{DeviceProfile, FleetSpec};
use hd_metrics::OverheadReport;
use hd_perfmon::CostModel;
use hd_simrt::{ActionRecord, ExecId, MonitorCost, SimConfig, MILLIS};

/// Which detector to install.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorKind {
    /// No detector (baseline resource usage).
    None,
    /// Timeout-based with the given timeout.
    Ti(u64),
    /// Utilization, low thresholds.
    UtLow,
    /// Utilization, high thresholds.
    UtHigh,
    /// Utilization low + timeout.
    UtLowTi,
    /// Utilization high + timeout.
    UtHighTi,
    /// Hang Doctor.
    HangDoctor,
}

impl DetectorKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            DetectorKind::None => "none".into(),
            DetectorKind::Ti(t) => {
                if *t >= 1_000 * MILLIS {
                    format!("TI({}s)", t / (1_000 * MILLIS))
                } else {
                    format!("TI({}ms)", t / MILLIS)
                }
            }
            DetectorKind::UtLow => "UTL".into(),
            DetectorKind::UtHigh => "UTH".into(),
            DetectorKind::UtLowTi => "UTL+TI".into(),
            DetectorKind::UtHighTi => "UTH+TI".into(),
            DetectorKind::HangDoctor => "HD".into(),
        }
    }

    /// The six runtime detectors of Figure 8, in presentation order.
    pub fn figure8_set() -> Vec<DetectorKind> {
        vec![
            DetectorKind::Ti(100 * MILLIS),
            DetectorKind::UtLow,
            DetectorKind::UtHigh,
            DetectorKind::UtLowTi,
            DetectorKind::UtHighTi,
            DetectorKind::HangDoctor,
        ]
    }

    /// Constructs the detector behind this kind (`None` for
    /// [`DetectorKind::None`]).
    ///
    /// Everything downstream drives the result exclusively through the
    /// [`Detector`] trait.
    pub fn build(
        &self,
        app: &App,
        costs: CostModel,
        apidb: Option<SharedApiDb>,
    ) -> Option<Box<dyn Detector>> {
        match self {
            DetectorKind::None => None,
            DetectorKind::Ti(timeout) => Some(Box::new(
                TimeoutDetector::new(*timeout, 10 * MILLIS, costs).0,
            )),
            DetectorKind::UtLow => Some(Box::new(UtilizationDetector::low(costs).0)),
            DetectorKind::UtHigh => Some(Box::new(UtilizationDetector::high(costs).0)),
            DetectorKind::UtLowTi => Some(Box::new(UtilizationDetector::low_ti(costs).0)),
            DetectorKind::UtHighTi => Some(Box::new(UtilizationDetector::high_ti(costs).0)),
            DetectorKind::HangDoctor => Some(Box::new(
                HangDoctor::new(
                    HangDoctorConfig::default(),
                    &app.name,
                    &app.package,
                    1,
                    apidb,
                )
                .0,
            )),
        }
    }
}

/// Everything one instrumented run produced.
pub struct RunOutcome {
    /// Completed action records.
    pub records: Vec<ActionRecord>,
    /// Ground truth per execution.
    pub truths: Vec<ExecTruth>,
    /// Executions the detector flagged/traced.
    pub flagged: HashSet<ExecId>,
    /// Raw baseline log (None for Hang Doctor / None).
    pub log: Option<DetectionLog>,
    /// Hang Doctor output (None for baselines).
    pub hd: Option<HdOutput>,
    /// Charged monitoring cost.
    pub monitor: MonitorCost,
    /// Overhead relative to app resource use.
    pub overhead: OverheadReport,
}

/// Runs `app` over `schedule` with the chosen detector installed.
pub fn run_detector(
    app: &App,
    schedule: &Schedule,
    seed: u64,
    kind: DetectorKind,
    apidb: Option<SharedApiDb>,
) -> RunOutcome {
    let compiled = CompiledApp::new(app.clone());
    run_detector_compiled(&compiled, schedule, seed, kind, apidb)
}

/// As [`run_detector`], reusing an already compiled app.
pub fn run_detector_compiled(
    compiled: &CompiledApp,
    schedule: &Schedule,
    seed: u64,
    kind: DetectorKind,
    apidb: Option<SharedApiDb>,
) -> RunOutcome {
    let mut run = build_run(compiled, schedule, SimConfig::default(), seed);
    let costs = CostModel::default();
    let installed = kind
        .build(compiled.app(), costs, apidb)
        .map(|det| install(det, &mut run.sim));
    run.sim.run();
    let output = match installed {
        Some(handle) => handle.finish(),
        None => DetectorOutput::None,
    };
    let flagged = output.flagged_execs();
    let (log, hd): (Option<DetectionLog>, Option<HdOutput>) = match output {
        DetectorOutput::Log(log) => (Some(log), None),
        DetectorOutput::HangDoctor(hd) => (None, Some(*hd)),
        DetectorOutput::None | DetectorOutput::Offline(_) | DetectorOutput::Sast(_) => (None, None),
    };
    RunOutcome {
        records: run.sim.records().to_vec(),
        truths: run.truths,
        flagged,
        log,
        hd,
        monitor: run.sim.monitor_cost(),
        overhead: OverheadReport::from_sim(&run.sim),
    }
}

/// The three study apps of the small fleet matrix: K9-mail,
/// Omni-Notes, CycleStreets.
pub fn trio() -> Vec<App> {
    vec![
        table5::k9mail(),
        table5::omninotes(),
        table5::cyclestreets(),
    ]
}

/// The small fleet matrix: [`trio`] on two devices each, two workers,
/// paper-default configuration.
pub fn trio_fleet(seed: u64, executions: usize, faults: FaultConfig) -> FleetSpec {
    FleetSpec {
        apps: trio(),
        profiles: DeviceProfile::default_set(),
        devices_per_app: 2,
        executions_per_action: executions,
        root_seed: seed,
        threads: 2,
        config: HangDoctorConfig::default(),
        apidb_year: 2017,
        faults,
    }
}

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_appmodel::corpus::table5;
    use hd_appmodel::round_robin_schedule;

    #[test]
    fn detector_names() {
        assert_eq!(DetectorKind::Ti(5_000 * MILLIS).name(), "TI(5s)");
        assert_eq!(DetectorKind::Ti(100 * MILLIS).name(), "TI(100ms)");
        assert_eq!(DetectorKind::HangDoctor.name(), "HD");
        assert_eq!(DetectorKind::figure8_set().len(), 6);
    }

    #[test]
    fn kind_names_match_trait_names() {
        let app = table5::merchant();
        for kind in DetectorKind::figure8_set() {
            let det = kind.build(&app, CostModel::default(), None).unwrap();
            assert_eq!(det.name(), kind.name(), "{kind:?}");
        }
        assert!(DetectorKind::None
            .build(&app, CostModel::default(), None)
            .is_none());
    }

    #[test]
    fn run_outcomes_are_consistent() {
        let app = table5::merchant();
        let sched = round_robin_schedule(&app, 2, 2_500);
        let ti = run_detector(&app, &sched, 5, DetectorKind::Ti(100 * MILLIS), None);
        assert_eq!(ti.records.len(), sched.len());
        assert!(ti.log.is_some());
        assert!(ti.hd.is_none());
        assert!(!ti.flagged.is_empty());
        assert!(ti.overhead.avg_pct() > 0.0);

        let none = run_detector(&app, &sched, 5, DetectorKind::None, None);
        assert_eq!(none.monitor.cpu_ns, 0);
        assert!(none.flagged.is_empty());

        let hd = run_detector(&app, &sched, 5, DetectorKind::HangDoctor, None);
        assert!(hd.hd.is_some());
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["app", "tp"],
            &[
                vec!["K9-mail".into(), "2".into()],
                vec!["X".into(), "10".into()],
            ],
        );
        assert!(t.contains("K9-mail"));
        assert!(t.lines().count() == 4);
    }
}
