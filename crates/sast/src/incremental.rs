//! Dirty-set incremental re-analysis.
//!
//! The paper's feedback loop grows the blocking-API database while the
//! study runs: every runtime-confirmed hang adds a symbol, and every
//! addition used to mean re-scanning the whole corpus from scratch.
//! But the expensive half of a scan — resolving each call site to its
//! reachable target set — is *database-independent* (see
//! [`crate::engine`]): membership is a per-target filter applied at the
//! end. So when the database grows, only call sites whose resolved
//! target set intersects the newly added symbols can change their
//! findings; every other site's findings are bit-for-bit reusable.
//!
//! [`AnalysisSession`] owns that split. It resolves an app's sites once,
//! keeps the per-site findings, and on [`AnalysisSession::add_symbols`]
//! re-filters exactly the dirty sites. Soundness rests on two facts:
//! the database only grows (discoveries are never retracted), and a
//! site's findings are a pure function of `(targets, db ∩ targets)` —
//! so an unchanged intersection means unchanged findings. The
//! equivalence test at the bottom checks the session against a full
//! recompute after every growth step.

use hangdoctor::BlockingApiDb;
use hd_appmodel::App;

use crate::cache::SummaryCache;
use crate::engine::{assemble_report, resolve_sites, SastConfig, SiteAnalysis};
use crate::report::{SastFinding, SastReport};

/// A resumable analysis of one app whose database may grow.
#[derive(Debug)]
pub struct AnalysisSession<'a> {
    app: &'a App,
    config: SastConfig,
    db: BlockingApiDb,
    analysis: SiteAnalysis<'a>,
    /// Per-site findings, parallel to `analysis.records`.
    findings: Vec<Vec<SastFinding>>,
    last_recomputed: usize,
}

impl<'a> AnalysisSession<'a> {
    /// Resolves the app's call sites and computes initial findings
    /// against `db`.
    pub fn new(app: &'a App, db: BlockingApiDb, config: SastConfig) -> AnalysisSession<'a> {
        AnalysisSession::new_cached(app, db, config, None)
    }

    /// Like [`AnalysisSession::new`], sharing a cross-app summary cache
    /// for the contextual profile.
    pub fn new_cached(
        app: &'a App,
        db: BlockingApiDb,
        config: SastConfig,
        cache: Option<&SummaryCache>,
    ) -> AnalysisSession<'a> {
        let analysis = resolve_sites(app, &config, cache);
        let findings = analysis
            .records
            .iter()
            .map(|r| r.findings(&db, config.profile))
            .collect();
        AnalysisSession {
            last_recomputed: analysis.records.len(),
            app,
            config,
            db,
            analysis,
            findings,
        }
    }

    /// Grows the database with newly discovered blocking symbols and
    /// re-filters only the call sites that can reach one of them.
    ///
    /// Returns the number of sites recomputed (the dirty set); sites
    /// whose resolved targets miss every added symbol keep their
    /// findings untouched.
    pub fn add_symbols(&mut self, symbols: &[&str], origin: &str) -> usize {
        for symbol in symbols {
            self.db.add_discovered(symbol, origin);
        }
        let mut dirty = 0;
        for (record, findings) in self.analysis.records.iter().zip(&mut self.findings) {
            if record.reaches_any(symbols) {
                *findings = record.findings(&self.db, self.config.profile);
                dirty += 1;
            }
        }
        self.last_recomputed = dirty;
        dirty
    }

    /// Assembles the current findings into a report — identical to a
    /// fresh [`crate::analyze_with_db`] against the grown database.
    pub fn report(&self) -> SastReport {
        assemble_report(
            self.app,
            &self.config,
            &self.analysis,
            self.findings.concat(),
        )
    }

    /// The session's current database (base + additions).
    pub fn db(&self) -> &BlockingApiDb {
        &self.db
    }

    /// Sites recomputed by the most recent operation (all of them at
    /// construction).
    pub fn last_recomputed(&self) -> usize {
        self.last_recomputed
    }

    /// Total analyzable call sites in the session.
    pub fn sites(&self) -> usize {
        self.analysis.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_with_db;
    use crate::rules::RuleProfile;
    use hd_appmodel::corpus::{table1, table5};

    const CLEAN: &str = "org.htmlcleaner.HtmlCleaner.clean";

    fn configs() -> [SastConfig; 3] {
        [
            RuleProfile::Full,
            RuleProfile::Contextual,
            RuleProfile::PerfCheckerCompat,
        ]
        .map(|profile| SastConfig {
            profile,
            db_year: 2017,
        })
    }

    #[test]
    fn session_report_matches_fresh_analysis_before_any_growth() {
        for cfg in configs() {
            for app in table1::apps().iter().chain(table5::apps().iter()) {
                let db = BlockingApiDb::documented(2017);
                let session = AnalysisSession::new(app, db.clone(), cfg);
                assert_eq!(session.report(), analyze_with_db(app, &db, &cfg), "{cfg:?}");
            }
        }
    }

    #[test]
    fn growth_recomputes_only_reaching_sites_and_matches_full_recompute() {
        // The Section 3.2 loop on K-9: runtime diagnosis discovers
        // HtmlCleaner.clean; the incremental session must converge to
        // exactly what a from-scratch scan of the grown database finds,
        // touching only the sites that reach the new symbol.
        let app = table5::k9mail();
        for cfg in configs() {
            let mut session = AnalysisSession::new(&app, BlockingApiDb::documented(2017), cfg);
            assert!(
                !session
                    .report()
                    .bug_ids()
                    .iter()
                    .any(|b| b.contains("clean")),
                "{cfg:?}: clean is unknown to the 2017 db"
            );
            let dirty = session.add_symbols(&[CLEAN], "K9-mail");
            assert!(dirty >= 1, "{cfg:?}: at least one site reaches clean");
            assert!(
                dirty < session.sites(),
                "{cfg:?}: growth must not recompute every site ({dirty}/{})",
                session.sites()
            );
            let fresh = analyze_with_db(&app, session.db(), &cfg);
            assert_eq!(session.report(), fresh, "{cfg:?}");
            assert!(session
                .report()
                .bug_ids()
                .iter()
                .any(|b| b.contains("clean")));
        }
    }

    #[test]
    fn irrelevant_symbols_recompute_nothing() {
        let app = table1::a_better_camera();
        for cfg in configs() {
            let mut session = AnalysisSession::new(&app, BlockingApiDb::documented(2017), cfg);
            let before = session.report();
            let dirty = session.add_symbols(&["com.nowhere.Phantom.spin"], "nobody");
            assert_eq!(dirty, 0, "{cfg:?}");
            assert_eq!(session.report(), before, "{cfg:?}");
        }
    }

    #[test]
    fn repeated_growth_steps_stay_equivalent() {
        let app = table5::k9mail();
        let cfg = SastConfig {
            profile: RuleProfile::Contextual,
            db_year: 2017,
        };
        let mut session = AnalysisSession::new(&app, BlockingApiDb::documented(2017), cfg);
        for batch in [
            vec!["com.nowhere.Phantom.spin"],
            vec![CLEAN],
            vec![CLEAN, "com.nowhere.Other.spin"],
        ] {
            session.add_symbols(&batch, "fleet");
            assert_eq!(session.report(), analyze_with_db(&app, session.db(), &cfg));
        }
    }
}
