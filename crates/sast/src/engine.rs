//! The analyzer: profiles × call graph × summaries × database → report.
//!
//! All rule profiles walk the same call sites and apply the same gates
//! — offload-awareness (an offloaded call sterilizes its subtree),
//! async-awareness (a submitted task body runs on an executor thread,
//! so the scanner sees only the submit and the zero-cost join),
//! closed-source opacity, and database membership — they differ only in
//! *how far they can see*:
//!
//! * **perfchecker-compat** judges each concrete call chain in
//!   isolation, exactly like the legacy `scan_app`;
//! * **full** judges summary-based reachability from the handler's
//!   entry frame over the aggregated call graph, so anything a shared
//!   wrapper was ever observed forwarding to is flagged at every site
//!   that enters the wrapper (a deliberate over-approximation);
//! * **contextual** judges k=1 call-string reachability
//!   ([`crate::context`]): summaries are keyed `(node, caller)` and the
//!   entry is resolved through the site's own first hop, so a shared
//!   wrapper no longer contaminates its benign callers. Its findings
//!   are a subset of `full`'s and a superset of `perfchecker-compat`'s
//!   on open chains.
//!
//! The analysis itself is database-independent: each call site resolves
//! to a target list first ([`SiteRecord`]), and membership in the
//! [`BlockingApiDb`] is applied per target when findings are assembled.
//! That split is what the cross-app cache ([`crate::cache`]) and the
//! incremental session ([`crate::incremental`]) build on.
//!
//! The paper's three offline failure modes are structural here: an API
//! absent from the database never matches ([`BugClass::UnknownApi`]), a
//! closed frame stops every profile ([`BugClass::ClosedSource`]), and a
//! self-developed operation has no database name at all
//! ([`BugClass::SelfDeveloped`]), and a hang carried across a wait edge
//! never appears in any main-thread call chain
//! ([`BugClass::AsyncHang`]).

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use hangdoctor::BlockingApiDb;
use hd_appmodel::{ApiKind, App, BugSpec};
use hd_simrt::{ActionUid, MILLIS};
use serde::{Deserialize, Serialize};

use crate::cache::{CachedReach, CachedTarget, SummaryCache};
use crate::context::{app_fingerprint, entry_frame, first_hop, ContextIndex};
use crate::graph::CallGraph;
use crate::report::{SastFinding, SastReport, SAST_SCHEMA};
use crate::rules::{rule_table, RuleProfile, Severity, RULE_DIRECT, RULE_VIA_WRAPPER};
use crate::summary::{compute_summaries, worst_busy_ns};

/// Perceivable-delay threshold used for severity grading (mirrors
/// `hd_metrics::PERCEIVABLE_NS`; duplicated so the analyzer does not
/// depend on the evaluation crate).
pub const PERCEIVABLE_NS: u64 = 100 * MILLIS;

/// Analyzer configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SastConfig {
    /// Which rule profile to run.
    pub profile: RuleProfile,
    /// Vintage of the blocking-API database ([`BlockingApiDb::documented`]).
    pub db_year: u16,
}

impl Default for SastConfig {
    fn default() -> SastConfig {
        SastConfig {
            profile: RuleProfile::Full,
            db_year: 2017,
        }
    }
}

/// Analyzes one app against the documented database of the configured
/// year.
pub fn analyze(app: &App, config: &SastConfig) -> SastReport {
    analyze_with_db(app, &BlockingApiDb::documented(config.db_year), config)
}

/// Analyzes one app against an explicit database (e.g. one augmented
/// with runtime discoveries — the paper's feedback loop).
///
/// `config.db_year` is recorded in the report as metadata only; the
/// membership test uses `db` as given.
pub fn analyze_with_db(app: &App, db: &BlockingApiDb, config: &SastConfig) -> SastReport {
    analyze_with_db_cached(app, db, config, None)
}

/// Like [`analyze_with_db`], memoizing the contextual summaries of call
/// sites with a first hop in the given cross-app cache (a direct call
/// resolves inline). Passing the same cache to many apps (or many
/// threads) reuses summaries across structurally identical call sites;
/// the report bytes are identical with or without a cache.
pub fn analyze_with_db_cached(
    app: &App,
    db: &BlockingApiDb,
    config: &SastConfig,
    cache: Option<&SummaryCache>,
) -> SastReport {
    let analysis = resolve_sites(app, config, cache);
    let findings = analysis
        .records
        .iter()
        .flat_map(|record| record.findings(db, config.profile))
        .collect();
    assemble_report(app, config, &analysis, findings)
}

/// A site's resolved targets: an entry shared with the cache, or the
/// site's own list (no allocation when it is empty).
#[derive(Debug)]
pub(crate) enum Targets {
    Shared(Arc<CachedReach>),
    Own(CachedReach),
}

impl Deref for Targets {
    type Target = CachedReach;

    fn deref(&self) -> &CachedReach {
        match self {
            Targets::Shared(reach) => reach,
            Targets::Own(reach) => reach,
        }
    }
}

/// One analyzable call site, resolved to its database-independent
/// target list. Its names are borrowed from the app and copied only
/// into a finding.
#[derive(Debug)]
pub(crate) struct SiteRecord<'a> {
    pub action: ActionUid,
    pub action_name: &'a str,
    pub handler: &'a str,
    /// Call-site ordinal within the action (flat across events,
    /// counting every call so the identity is stable under gating).
    pub site: u32,
    /// Symbol of the site's own working API (bug attachment point).
    pub call_api_symbol: &'a str,
    /// Ground-truth tag of the call site, if any.
    pub bug_id: Option<&'a str>,
    /// First frame the handler enters.
    pub entry_symbol: &'a str,
    /// Reachable targets (db membership not yet applied).
    pub targets: Targets,
}

impl SiteRecord<'_> {
    /// Assembles the site's findings under a database.
    pub fn findings(&self, db: &BlockingApiDb, profile: RuleProfile) -> Vec<SastFinding> {
        let mut findings = Vec::new();
        for target in &self.targets.targets {
            if !db.contains(&target.symbol) {
                continue;
            }
            // The legacy scanner has a single name-match rule
            // regardless of chain shape.
            let rule = if profile == RuleProfile::PerfCheckerCompat || target.depth == 0 {
                RULE_DIRECT
            } else {
                RULE_VIA_WRAPPER
            };
            let severity = if target.est_blocking_ns >= PERCEIVABLE_NS {
                Severity::Error
            } else {
                Severity::Warning
            };
            let bug_id = if target.symbol == self.call_api_symbol {
                self.bug_id.map(str::to_string)
            } else {
                None
            };
            findings.push(SastFinding {
                rule: rule.to_string(),
                severity,
                action: self.action,
                action_name: self.action_name.to_string(),
                handler: self.handler.to_string(),
                site: self.site,
                entry_symbol: self.entry_symbol.to_string(),
                context: target.context.clone(),
                api_symbol: target.symbol.clone(),
                file: target.file.clone(),
                line: target.line,
                depth: target.depth,
                est_blocking_ns: target.est_blocking_ns,
                message: format!(
                    "{} blocks the main thread (reached {} frame(s) deep from {}; est. worst case {} ms)",
                    target.symbol,
                    target.depth,
                    self.handler,
                    target.est_blocking_ns / MILLIS
                ),
                bug_id,
            });
        }
        findings
    }

    /// Whether any resolved target carries one of `symbols` — the
    /// dirty-set test for incremental re-analysis.
    pub fn reaches_any(&self, symbols: &[&str]) -> bool {
        self.targets
            .targets
            .iter()
            .any(|t| symbols.iter().any(|s| *s == t.symbol))
    }
}

/// The database-independent analysis of one app.
#[derive(Debug)]
pub(crate) struct SiteAnalysis<'a> {
    pub records: Vec<SiteRecord<'a>>,
    /// `(node, caller)` summary keys (0 for non-contextual profiles).
    pub context_pairs: usize,
    /// Structural fingerprint of the app model.
    pub fingerprint: u64,
}

/// Resolves every analyzable call site to its target list.
pub(crate) fn resolve_sites<'a>(
    app: &'a App,
    config: &SastConfig,
    cache: Option<&SummaryCache>,
) -> SiteAnalysis<'a> {
    enum Engine {
        Compat,
        Full {
            graph: CallGraph,
            summaries: Vec<crate::summary::BlockingSummary>,
        },
        Contextual {
            index: ContextIndex,
        },
    }
    let engine = match config.profile {
        RuleProfile::PerfCheckerCompat => Engine::Compat,
        RuleProfile::Full => {
            let graph = CallGraph::build(app);
            let summaries = compute_summaries(app, &graph);
            Engine::Full { graph, summaries }
        }
        RuleProfile::Contextual => Engine::Contextual {
            index: ContextIndex::build(app),
        },
    };
    // `site_fingerprint` depends only on the site's (entry, first-hop)
    // pair, so sites sharing a first hop reuse the hash — without this
    // memo the per-site canonical-subgraph walk costs more than the
    // summary computation the cross-app cache saves. An app has a
    // handful of such pairs, so a list beats a hash map.
    let mut fp_memo: Vec<((usize, usize), u64)> = Vec::new();
    let mut records = Vec::new();
    for action in &app.actions {
        let mut site = 0u32;
        for event in &action.events {
            for call in &event.calls {
                let ordinal = site;
                site += 1;
                if call.offloaded {
                    continue;
                }
                if call.async_op.is_some() {
                    // The body runs as an executor task: on the main
                    // thread the scanner sees a submission and, at
                    // most, a zero-cost `Future.get`. Convoys, pool
                    // starvation, and slow joined workers all hide
                    // behind that edge.
                    continue;
                }
                let entry = entry_frame(call);
                let targets = match &engine {
                    Engine::Compat => {
                        if !app.call_visible(call) {
                            continue;
                        }
                        let api = app.api(call.api);
                        Targets::Own(CachedReach {
                            targets: vec![CachedTarget {
                                symbol: api.symbol.clone(),
                                file: api.file.clone(),
                                line: api.line,
                                est_blocking_ns: worst_busy_ns(api),
                                depth: call.via.len() as u32,
                                context: call
                                    .via
                                    .last()
                                    .map(|w| app.api(*w).symbol.clone())
                                    .unwrap_or_default(),
                            }],
                            truncated: false,
                        })
                    }
                    Engine::Full { graph, summaries } => {
                        if app.apis[entry].closed_source {
                            continue;
                        }
                        let mut targets: Vec<CachedTarget> = summaries[entry]
                            .reachable
                            .iter()
                            .map(|&target| {
                                let api = &app.apis[target];
                                let depth = graph
                                    .scannable_depth(app, entry, target)
                                    .expect("reachable target must have a scannable path");
                                CachedTarget {
                                    symbol: api.symbol.clone(),
                                    file: api.file.clone(),
                                    line: api.line,
                                    est_blocking_ns: worst_busy_ns(api),
                                    depth,
                                    // The aggregated view has no calling
                                    // context to report.
                                    context: String::new(),
                                }
                            })
                            .collect();
                        targets.sort_by(|a, b| a.symbol.cmp(&b.symbol));
                        Targets::Own(CachedReach {
                            targets,
                            truncated: summaries[entry].truncated,
                        })
                    }
                    Engine::Contextual { index } => {
                        let compute = || {
                            let reach = index
                                .site_reach(app, call)
                                .expect("closed entries are gated before resolution");
                            let mut targets: Vec<CachedTarget> = reach
                                .targets
                                .iter()
                                .map(|t| {
                                    let api = &app.apis[t.node];
                                    CachedTarget {
                                        symbol: api.symbol.clone(),
                                        file: api.file.clone(),
                                        line: api.line,
                                        est_blocking_ns: worst_busy_ns(api),
                                        depth: t.depth,
                                        context: t
                                            .caller
                                            .map(|c| app.apis[c].symbol.clone())
                                            .unwrap_or_default(),
                                    }
                                })
                                .collect();
                            targets.sort_by(|a, b| a.symbol.cmp(&b.symbol));
                            CachedReach {
                                targets,
                                truncated: reach.truncated,
                            }
                        };
                        if app.apis[entry].closed_source {
                            continue;
                        }
                        match (cache, first_hop(call)) {
                            (Some(cache), Some(hop)) => {
                                let fingerprint =
                                    match fp_memo.iter().find(|(pair, _)| *pair == (entry, hop)) {
                                        Some(&(_, fingerprint)) => fingerprint,
                                        None => {
                                            let fingerprint = index.site_fingerprint(app, call);
                                            fp_memo.push(((entry, hop), fingerprint));
                                            fingerprint
                                        }
                                    };
                                Targets::Shared(cache.lookup_or_insert(fingerprint, compute))
                            }
                            // Uncached, or a direct call: that reaches only
                            // its own API, so resolving it is one `working`
                            // check, less than a fingerprint and a lock.
                            _ => Targets::Own(compute()),
                        }
                    }
                };
                records.push(SiteRecord {
                    action: action.uid,
                    action_name: &action.name,
                    handler: &event.handler,
                    site: ordinal,
                    call_api_symbol: &app.api(call.api).symbol,
                    bug_id: call.bug_id.as_deref(),
                    entry_symbol: &app.apis[entry].symbol,
                    targets,
                });
            }
        }
    }
    let context_pairs = match &engine {
        Engine::Contextual { index } => index.context_pairs(),
        _ => 0,
    };
    SiteAnalysis {
        records,
        context_pairs,
        fingerprint: app_fingerprint(app),
    }
}

/// Assembles the sites' findings into the final report.
pub(crate) fn assemble_report(
    app: &App,
    config: &SastConfig,
    analysis: &SiteAnalysis,
    findings: Vec<SastFinding>,
) -> SastReport {
    SastReport {
        schema: SAST_SCHEMA.to_string(),
        app: app.name.clone(),
        package: app.package.clone(),
        profile: config.profile.as_str().to_string(),
        db_year: config.db_year,
        context_pairs: analysis.context_pairs,
        app_fingerprint: analysis.fingerprint,
        rules: rule_table(config.profile),
        findings: dedupe(findings),
    }
}

/// Deduplicates findings on `(action, site, api_symbol)`.
///
/// The key includes the entry call-site ordinal: two distinct sites
/// reaching the same API through one wrapper are *distinct* findings (a
/// developer fixes call sites, not symbols), where the previous
/// `(action, api_symbol)` key collapsed them and undercounted. Within
/// one site each target resolves once, so surviving duplicates are a
/// safety net only; the first occurrence is kept and its `bug_id` is
/// backfilled so dropping a repeat can never drop ground-truth
/// coverage.
fn dedupe(findings: Vec<SastFinding>) -> Vec<SastFinding> {
    let mut kept: Vec<SastFinding> = Vec::with_capacity(findings.len());
    let mut index: HashMap<(ActionUid, u32, String), usize> = HashMap::new();
    for f in findings {
        match index.entry((f.action, f.site, f.api_symbol.clone())) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(kept.len());
                kept.push(f);
            }
            std::collections::hash_map::Entry::Occupied(slot) => {
                let prior = &mut kept[*slot.get()];
                if prior.bug_id.is_none() {
                    prior.bug_id = f.bug_id;
                }
            }
        }
    }
    kept
}

/// The paper's taxonomy of why offline detection misses a bug — plus
/// `Known` for the bugs it catches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BugClass {
    /// Rooted in an API documented as blocking by the database year.
    Known,
    /// Rooted in an API not (yet) in the database.
    UnknownApi,
    /// Every call site is hidden behind a closed-source frame.
    ClosedSource,
    /// Rooted in a self-developed lengthy operation (no database name).
    SelfDeveloped,
    /// Every call site is submitted to an executor: the hang reaches the
    /// main thread through a wait edge (future join), never through an
    /// inline call chain a scanner could walk.
    AsyncHang,
}

impl BugClass {
    /// All classes, in reporting order.
    pub const ALL: [BugClass; 5] = [
        BugClass::Known,
        BugClass::UnknownApi,
        BugClass::ClosedSource,
        BugClass::SelfDeveloped,
        BugClass::AsyncHang,
    ];

    /// Stable name used in reports (decouples downstream artifacts from
    /// this enum).
    pub fn as_str(self) -> &'static str {
        match self {
            BugClass::Known => "known",
            BugClass::UnknownApi => "unknown-api",
            BugClass::ClosedSource => "closed-source",
            BugClass::SelfDeveloped => "self-developed",
            BugClass::AsyncHang => "async-hang",
        }
    }
}

/// Classifies a ground-truth bug by which offline failure mode (if any)
/// hides it from a scanner with a database of the given year.
///
/// The structural classes win over the API-kind classes: if every call
/// site of the bug is submitted to an executor, or none is scannable,
/// the API's name never enters the picture. Async wins over
/// closed-source — a wait-edge hang stays invisible regardless of how
/// open the worker-side code is.
pub fn classify_bug(app: &App, bug: &BugSpec, db_year: u16) -> BugClass {
    let sites: Vec<_> = app
        .actions
        .iter()
        .flat_map(|a| a.calls())
        .filter(|c| c.bug_id.as_deref() == Some(bug.id.as_str()))
        .collect();
    let any = !sites.is_empty();
    if any && sites.iter().all(|c| c.async_op.is_some()) {
        return BugClass::AsyncHang;
    }
    if any && sites.iter().all(|c| !app.call_visible(c)) {
        return BugClass::ClosedSource;
    }
    match app.api(bug.api).kind {
        ApiKind::SelfDeveloped => BugClass::SelfDeveloped,
        ApiKind::Blocking {
            known_since: Some(y),
        } if y <= db_year => BugClass::Known,
        // Undocumented (or documented only after the database vintage):
        // offline name-matching cannot see it. UI/wrapper-rooted bugs are
        // rejected by `App::validate`, so the fallthrough is unreachable
        // on valid models; classify them as unknown rather than panic.
        _ => BugClass::UnknownApi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_appmodel::corpus::{table1, table5};

    fn full() -> SastConfig {
        SastConfig::default()
    }

    fn compat() -> SastConfig {
        SastConfig {
            profile: RuleProfile::PerfCheckerCompat,
            db_year: 2017,
        }
    }

    fn contextual() -> SastConfig {
        SastConfig {
            profile: RuleProfile::Contextual,
            db_year: 2017,
        }
    }

    fn all_profiles() -> [SastConfig; 3] {
        [full(), contextual(), compat()]
    }

    #[test]
    fn direct_known_bug_is_flagged_by_every_profile() {
        let app = table1::a_better_camera();
        for cfg in all_profiles() {
            let report = analyze(&app, &cfg);
            assert!(
                report.bug_ids().contains("abc-open"),
                "{} missed abc-open",
                report.profile
            );
        }
    }

    #[test]
    fn nested_known_bug_carries_the_wrapper_rule() {
        let app = table5::sagemath();
        for cfg in [full(), contextual()] {
            let report = analyze(&app, &cfg);
            let f = report
                .findings
                .iter()
                .find(|f| f.bug_id.as_deref() == Some("sagemath-84-cupboard"))
                .expect("cupboard bug flagged");
            assert_eq!(f.rule, RULE_VIA_WRAPPER, "{}", report.profile);
            assert!(f.depth >= 1);
            assert_ne!(f.entry_symbol, f.api_symbol);
        }
    }

    #[test]
    fn contextual_findings_carry_the_caller_context() {
        let app = table5::sagemath();
        let report = analyze(&app, &contextual());
        let f = report
            .findings
            .iter()
            .find(|f| f.bug_id.as_deref() == Some("sagemath-84-cupboard"))
            .expect("cupboard bug flagged");
        assert!(
            !f.context.is_empty() && f.context != f.api_symbol,
            "nested finding must name its k=1 caller: {f:?}"
        );
        for f in &report.findings {
            if f.depth == 0 {
                assert!(f.context.is_empty(), "direct call has no caller: {f:?}");
            }
        }
    }

    #[test]
    fn unknown_api_bugs_stay_invisible_to_every_profile() {
        let app = table5::k9mail();
        for cfg in all_profiles() {
            let report = analyze(&app, &cfg);
            assert!(
                !report.bug_ids().iter().any(|b| b.contains("clean")),
                "HtmlCleaner.clean is not in the 2017 database"
            );
        }
    }

    #[test]
    fn severity_tracks_the_perceivable_threshold() {
        for app in table1::apps() {
            for f in analyze(&app, &full()).findings {
                let expected = if f.est_blocking_ns >= PERCEIVABLE_NS {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                assert_eq!(f.severity, expected, "{}", f.api_symbol);
            }
        }
    }

    #[test]
    fn db_year_is_honored() {
        let app = table1::a_better_camera();
        let old = SastConfig {
            profile: RuleProfile::Full,
            db_year: 2010,
        };
        assert!(!analyze(&app, &old).bug_ids().contains("abc-open"));
        assert!(analyze(&app, &full()).bug_ids().contains("abc-open"));
    }

    #[test]
    fn runtime_discoveries_reach_the_next_scan() {
        // The Section 3.2 loop: Hang Doctor diagnoses HtmlCleaner.clean
        // at runtime, adds it to the shared database, and the *next*
        // static scan of the same app starts catching the bug.
        let app = table5::k9mail();
        let mut db = BlockingApiDb::documented(2017);
        assert!(!analyze_with_db(&app, &db, &full())
            .bug_ids()
            .iter()
            .any(|b| b.contains("clean")));
        db.add_discovered("org.htmlcleaner.HtmlCleaner.clean", "K9-mail");
        for cfg in [full(), contextual()] {
            assert!(
                analyze_with_db(&app, &db, &cfg)
                    .bug_ids()
                    .iter()
                    .any(|b| b.contains("clean")),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn classify_bug_covers_the_three_failure_modes() {
        let k9 = table5::k9mail();
        let clean = k9.bug("k9mail-1007-clean").unwrap();
        assert_eq!(classify_bug(&k9, clean, 2017), BugClass::UnknownApi);

        let abc = table1::a_better_camera();
        let open = abc.bug("abc-open").unwrap();
        assert_eq!(classify_bug(&abc, open, 2017), BugClass::Known);
        // A 2010 database predates camera.open's documentation.
        assert_eq!(classify_bug(&abc, open, 2010), BugClass::UnknownApi);

        // Closing every frame of the cupboard chain reclassifies the
        // sagemath bug as closed-source.
        let mut sage = table5::sagemath();
        let idx = sage
            .apis
            .iter()
            .position(|a| a.symbol.contains("cupboard"))
            .unwrap();
        sage.apis[idx].closed_source = true;
        let bug = sage.bug("sagemath-84-cupboard").unwrap();
        assert_eq!(classify_bug(&sage, bug, 2017), BugClass::ClosedSource);
    }

    #[test]
    fn async_hangs_are_invisible_to_every_profile() {
        use hd_appmodel::corpus::async_hangs;
        for app in async_hangs::apps() {
            for cfg in all_profiles() {
                let report = analyze(&app, &cfg);
                assert!(
                    report.bug_ids().is_empty(),
                    "{} ({}): wait-edge hangs must not be flagged offline, got {:?}",
                    app.name,
                    report.profile,
                    report.bug_ids()
                );
                // Nothing about the submitted bodies leaks into findings
                // either — only genuine main-thread sites may appear.
                for bug in &app.bugs {
                    let culprit = &app.api(bug.api).symbol;
                    assert!(
                        report.findings.iter().all(|f| &f.api_symbol != culprit),
                        "{}: worker-side culprit {} surfaced offline",
                        app.name,
                        culprit
                    );
                }
            }
        }
    }

    #[test]
    fn classify_bug_marks_wait_edge_bugs_async() {
        use hd_appmodel::corpus::async_hangs;
        for app in [
            async_hangs::chatrelay(),
            async_hangs::pixelpress(),
            async_hangs::newsflash(),
        ] {
            let bug = &app.bugs[0];
            assert_eq!(
                classify_bug(&app, bug, 2017),
                BugClass::AsyncHang,
                "{}",
                app.name
            );
            // The class is structural: database vintage is irrelevant.
            assert_eq!(classify_bug(&app, bug, 2030), BugClass::AsyncHang);
        }
    }

    /// Builds the async × closed-source interaction app: a bug whose
    /// submitted body runs behind a closed-source wrapper.
    fn async_closed_app(second_site_async: bool) -> (App, ActionUid) {
        use hd_appmodel::corpus::AppBuilder;
        use hd_appmodel::registry as reg;
        use hd_appmodel::Call;
        let mut b = AppBuilder::new("AsyncVault", "com.asyncvault", "Tools", 1_000, "ab5trac");
        b.executor("SerialExecutor", 1);
        let ui = b.ui_pack();
        let sdk = b.api(reg::closed_wrapper("com.vendor.vault.Engine.persist", 33));
        let write = b.api(reg::file_write());
        let second = if second_site_async {
            Call::via(vec![sdk], write)
                .bug("vault-1-persist")
                .submit_to(0)
        } else {
            Call::via(vec![sdk], write).bug("vault-1-persist")
        };
        let act = b.action(
            "persist vault",
            1.0,
            "VaultActivity.onSave",
            41,
            vec![
                Call::direct(ui.set_text),
                Call::via(vec![sdk], write)
                    .bug("vault-1-persist")
                    .submit_to(0),
                second,
            ],
        );
        b.bug(
            "vault-1-persist",
            1,
            write,
            act,
            "closed SDK persists on an executor; the join hangs the UI",
        );
        let app = b.build();
        assert!(app.validate().is_empty(), "{:?}", app.validate());
        (app, act)
    }

    #[test]
    fn async_submission_into_a_closed_wrapper_classifies_as_async_hang() {
        // PR 8's async gate and the closed-source opacity gate both
        // apply to every site of this bug; the async class wins (the
        // wait edge hides the hang no matter how opaque the code is).
        let (app, _) = async_closed_app(true);
        let bug = app.bug("vault-1-persist").unwrap();
        assert_eq!(classify_bug(&app, bug, 2017), BugClass::AsyncHang);
        for cfg in all_profiles() {
            let report = analyze(&app, &cfg);
            assert!(
                report.findings.is_empty(),
                "{}: an async body behind a closed wrapper must yield no \
                 findings, got {:?}",
                report.profile,
                report.findings
            );
        }
    }

    #[test]
    fn mixed_async_and_closed_sync_sites_fall_back_to_closed_source() {
        // One site submits, the other calls the closed wrapper inline:
        // not *every* site is async, but every site is invisible, so the
        // closed-source class applies — and every profile still reports
        // nothing (the sync site's entry frame is closed).
        let (app, _) = async_closed_app(false);
        let bug = app.bug("vault-1-persist").unwrap();
        assert_eq!(classify_bug(&app, bug, 2017), BugClass::ClosedSource);
        for cfg in all_profiles() {
            let report = analyze(&app, &cfg);
            assert!(report.findings.is_empty(), "{}", report.profile);
        }
    }

    #[test]
    fn fully_closed_source_app_yields_zero_findings_not_an_error() {
        use hd_appmodel::corpus::AppBuilder;
        use hd_appmodel::registry as reg;
        use hd_appmodel::Call;
        let mut b = AppBuilder::new("ClosedBox", "com.closedbox", "Tools", 1_000, "deadbee");
        let ui = b.ui_pack();
        let sdk = b.api(reg::closed_wrapper("com.vendor.sdk.Engine.run", 10));
        let write = b.api(reg::file_write());
        let act = b.action(
            "run engine",
            1.0,
            "MainActivity.onRun",
            20,
            vec![
                Call::direct(ui.set_text),
                Call::via(vec![sdk], write).bug("closedbox-1-run"),
            ],
        );
        b.bug(
            "closedbox-1-run",
            1,
            write,
            act,
            "closed SDK blocks internally",
        );
        let app = b.build();
        assert!(app.validate().is_empty(), "{:?}", app.validate());
        for cfg in all_profiles() {
            let report = analyze(&app, &cfg);
            assert!(
                report.findings.is_empty(),
                "{}: a scanner with nothing to scan must report nothing, got {:?}",
                report.profile,
                report.findings
            );
            assert_eq!(report.schema, SAST_SCHEMA);
            assert!(!report.rules.is_empty(), "rule table still present");
        }
    }

    #[test]
    fn offloaded_call_sterilizes_only_its_own_site() {
        use hd_appmodel::corpus::AppBuilder;
        use hd_appmodel::registry as reg;
        use hd_appmodel::Call;
        // The developer offloads one prefs.commit call site to a worker,
        // but a second site still runs on the main thread: the action
        // stays flagged, exactly once. An action whose only blocking
        // call is offloaded comes back clean.
        let mut b = AppBuilder::new("Offloader", "com.offloader", "Tools", 1_000, "f00dfee");
        let ui = b.ui_pack();
        let commit = b.api(reg::prefs_commit());
        let mixed = b.action(
            "save settings",
            1.0,
            "SettingsActivity.onSave",
            30,
            vec![
                Call::direct(commit).offload(),
                Call::direct(ui.set_text),
                Call::direct(commit).bug("off-1-commit"),
            ],
        );
        b.bug(
            "off-1-commit",
            1,
            commit,
            mixed,
            "second call site still on main",
        );
        let clean = b.action(
            "export settings",
            1.0,
            "SettingsActivity.onExport",
            44,
            vec![Call::direct(ui.set_text), Call::direct(commit).offload()],
        );
        let app = b.build();
        assert!(app.validate().is_empty(), "{:?}", app.validate());
        for cfg in all_profiles() {
            let report = analyze(&app, &cfg);
            let on_mixed: Vec<&SastFinding> = report
                .findings
                .iter()
                .filter(|f| f.action == mixed)
                .collect();
            assert_eq!(on_mixed.len(), 1, "{}: {on_mixed:?}", report.profile);
            assert_eq!(on_mixed[0].bug_id.as_deref(), Some("off-1-commit"));
            assert_eq!(on_mixed[0].site, 2, "the surviving main-thread site");
            assert!(
                report.findings.iter().all(|f| f.action != clean),
                "{}: an offloaded-only action must be clean",
                report.profile
            );
        }
    }

    /// The shared-wrapper app: one helper forwards to a blocking query
    /// in one action and to pure UI work in another.
    fn shared_wrapper_app() -> (App, ActionUid, ActionUid) {
        use hd_appmodel::corpus::AppBuilder;
        use hd_appmodel::registry as reg;
        use hd_appmodel::Call;
        let mut b = AppBuilder::new("SharedLib", "com.sharedlib", "Tools", 1_000, "0ddba11");
        let ui = b.ui_pack();
        let helper = b.api(reg::wrapper("com.sharedlib.util.Helper.refresh", 12));
        let query = b.api(reg::sqlite_query());
        let blocking_act = b.action(
            "open list",
            1.0,
            "ListActivity.onCreate",
            18,
            vec![
                Call::direct(ui.inflate),
                Call::via(vec![helper], query).bug("shared-1-query"),
            ],
        );
        b.bug(
            "shared-1-query",
            1,
            query,
            blocking_act,
            "helper queries the db synchronously",
        );
        let ui_act = b.action(
            "toggle view",
            1.0,
            "ListActivity.onToggle",
            27,
            vec![Call::via(vec![helper], ui.notify_dataset)],
        );
        let app = b.build();
        assert!(app.validate().is_empty(), "{:?}", app.validate());
        (app, blocking_act, ui_act)
    }

    #[test]
    fn shared_wrapper_flags_every_entering_action_in_the_full_profile() {
        // The aggregated call graph is context-insensitive, so the full
        // profile flags *both* entering actions (the deliberate
        // over-approximation); the compat profile stays per-call-site
        // and flags only the blocking one.
        let (app, blocking_act, ui_act) = shared_wrapper_app();
        let full_report = analyze(&app, &full());
        let flagged: Vec<ActionUid> = full_report.findings.iter().map(|f| f.action).collect();
        assert!(flagged.contains(&blocking_act), "{flagged:?}");
        assert!(
            flagged.contains(&ui_act),
            "the shared wrapper must drag the UI-only caller in: {flagged:?}"
        );
        let ui_finding = full_report
            .findings
            .iter()
            .find(|f| f.action == ui_act)
            .unwrap();
        assert_eq!(ui_finding.rule, RULE_VIA_WRAPPER);
        assert!(
            ui_finding.bug_id.is_none(),
            "the over-approximated site is not a ground-truth bug"
        );

        let compat_report = analyze(&app, &compat());
        assert!(compat_report
            .findings
            .iter()
            .all(|f| f.action == blocking_act));
        assert!(compat_report.bug_ids().contains("shared-1-query"));
    }

    #[test]
    fn contextual_profile_keeps_the_benign_caller_clean() {
        // The tentpole property: the contextual arm removes the shared-
        // wrapper false positive while keeping the true positive.
        let (app, blocking_act, ui_act) = shared_wrapper_app();
        let report = analyze(&app, &contextual());
        assert!(report.bug_ids().contains("shared-1-query"));
        assert!(
            report.findings.iter().all(|f| f.action != ui_act),
            "the benign caller must stay clean: {:?}",
            report.findings
        );
        assert!(report.findings.iter().any(|f| f.action == blocking_act));
        assert!(report.context_pairs > 0, "contextual metadata recorded");
        // And the lattice holds on this app: Compat ⊆ Contextual ⊆ Full.
        let full_report = analyze(&app, &full());
        assert!(full_report.findings.len() > report.findings.len());
    }

    #[test]
    fn distinct_sites_through_one_wrapper_are_distinct_findings() {
        // Regression for the dedupe undercount: two call sites reaching
        // the same API through the same wrapper used to collapse into
        // one finding under the `(action, api_symbol)` key.
        use hd_appmodel::corpus::AppBuilder;
        use hd_appmodel::registry as reg;
        use hd_appmodel::Call;
        let mut b = AppBuilder::new("TwoSites", "com.twosites", "Tools", 1_000, "2517e5");
        let ui = b.ui_pack();
        let helper = b.api(reg::wrapper("com.twosites.util.Io.flush", 9));
        let commit = b.api(reg::prefs_commit());
        let act = b.action(
            "save twice",
            1.0,
            "MainActivity.onSave",
            15,
            vec![
                Call::via(vec![helper], commit),
                Call::direct(ui.set_text),
                Call::via(vec![helper], commit).bug("two-1-commit"),
            ],
        );
        b.bug("two-1-commit", 1, commit, act, "both sites block");
        let app = b.build();
        assert!(app.validate().is_empty(), "{:?}", app.validate());
        for cfg in all_profiles() {
            let report = analyze(&app, &cfg);
            let commits: Vec<&SastFinding> = report
                .findings
                .iter()
                .filter(|f| f.api_symbol.contains("commit"))
                .collect();
            assert_eq!(
                commits.len(),
                2,
                "{}: two sites, two findings: {commits:?}",
                report.profile
            );
            assert_eq!(commits[0].site, 0);
            assert_eq!(commits[1].site, 2);
            assert_eq!(commits[0].bug_id, None);
            assert_eq!(commits[1].bug_id.as_deref(), Some("two-1-commit"));
        }
    }

    #[test]
    fn cached_and_uncached_contextual_reports_are_identical() {
        let db = BlockingApiDb::documented(2017);
        let cache = SummaryCache::new();
        for app in table1::apps().iter().chain(table5::apps().iter()) {
            let plain = analyze_with_db(app, &db, &contextual());
            let cached = analyze_with_db_cached(app, &db, &contextual(), Some(&cache));
            assert_eq!(plain, cached, "{}", app.name);
        }
        // Cross-app reuse: a twin that differs only in name and package
        // is served both of its hop sites from the first app's entries,
        // and its direct site never reaches the cache.
        let (app, _, _) = shared_wrapper_app();
        let mut twin = app.clone();
        twin.name = "SharedTwin".into();
        twin.package = "com.sharedtwin".into();
        let cache = SummaryCache::new();
        for app in [&app, &twin] {
            let plain = analyze_with_db(app, &db, &contextual());
            let cached = analyze_with_db_cached(app, &db, &contextual(), Some(&cache));
            assert_eq!(plain, cached, "{}", app.name);
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (2, 2, 2),
            "each hop site's summary is computed once and reused: {stats:?}"
        );
    }
}
