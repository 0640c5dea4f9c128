//! Strided-shard parallel corpus scanner.
//!
//! The 114-app study is embarrassingly parallel — apps share nothing
//! but the read-only database and the summary cache — so the scanner
//! maps it with [`hd_simrt::strided_map`]: worker `w` of `T` owns corpus
//! indices `{w, w+T, w+2T, …}` and the results come back in corpus
//! order. Every report is
//! a pure function of `(app, db, config)` — the shared cache memoizes
//! *values*, never decisions — so the merged output is byte-identical
//! at any thread count; only the wall-clock and the cache hit/miss
//! tallies vary, and those stay in [`CorpusScan::cache`], never in a
//! report.

use hangdoctor::BlockingApiDb;
use hd_appmodel::App;
use hd_simrt::strided_map;

use crate::cache::{CacheStats, SummaryCache};
use crate::engine::{analyze_with_db_cached, SastConfig};
use crate::report::SastReport;

/// The result of scanning a corpus: per-app reports in corpus order.
#[derive(Debug)]
pub struct CorpusScan {
    /// One report per app, in input order regardless of `threads`.
    pub reports: Vec<SastReport>,
    /// Worker count actually used (clamped to the corpus size).
    pub threads: usize,
    /// Summary-cache telemetry for this scan (scheduling-dependent;
    /// never part of the reports).
    pub cache: CacheStats,
}

/// Scans `apps` with `threads` workers and a fresh summary cache.
pub fn scan_corpus(
    apps: &[App],
    db: &BlockingApiDb,
    config: &SastConfig,
    threads: usize,
) -> CorpusScan {
    scan_corpus_cached(apps, db, config, threads, &SummaryCache::new())
}

/// Scans `apps` with `threads` workers, memoizing contextual summaries
/// in (and reusing them from) the given cross-app cache.
pub fn scan_corpus_cached(
    apps: &[App],
    db: &BlockingApiDb,
    config: &SastConfig,
    threads: usize,
    cache: &SummaryCache,
) -> CorpusScan {
    let before = cache.stats();
    let threads = threads.clamp(1, apps.len().max(1));
    let reports = strided_map(apps, threads, |app| {
        analyze_with_db_cached(app, db, config, Some(cache))
    });
    let after = cache.stats();
    CorpusScan {
        reports,
        threads,
        cache: CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            entries: after.entries,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze_with_db;
    use crate::rules::RuleProfile;
    use hd_appmodel::corpus::{synth, table1, table5};

    fn corpus() -> Vec<App> {
        let mut apps = table1::apps();
        apps.extend(table5::apps());
        apps
    }

    fn configs() -> [SastConfig; 3] {
        [
            RuleProfile::Contextual,
            RuleProfile::Full,
            RuleProfile::PerfCheckerCompat,
        ]
        .map(|profile| SastConfig {
            profile,
            db_year: 2017,
        })
    }

    #[test]
    fn reports_are_byte_identical_at_every_thread_count() {
        let apps = corpus();
        let db = BlockingApiDb::documented(2017);
        for cfg in configs() {
            let baseline =
                serde_json::to_string(&scan_corpus(&apps, &db, &cfg, 1).reports).unwrap();
            for threads in [8, 16, 32] {
                let scan = scan_corpus(&apps, &db, &cfg, threads);
                assert_eq!(
                    serde_json::to_string(&scan.reports).unwrap(),
                    baseline,
                    "{cfg:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn shared_and_fresh_caches_produce_identical_reports() {
        let apps = corpus();
        let db = BlockingApiDb::documented(2017);
        let cfg = SastConfig {
            profile: RuleProfile::Contextual,
            db_year: 2017,
        };
        let fresh = scan_corpus(&apps, &db, &cfg, 4);
        let shared = SummaryCache::new();
        // Warm the shared cache with a full pass, then scan again: the
        // second pass is served almost entirely from memory yet must not
        // change a byte.
        scan_corpus_cached(&apps, &db, &cfg, 4, &shared);
        let warm = scan_corpus_cached(&apps, &db, &cfg, 4, &shared);
        assert_eq!(
            serde_json::to_string(&warm.reports).unwrap(),
            serde_json::to_string(&fresh.reports).unwrap()
        );
        assert_eq!(warm.cache.misses, 0, "warm pass must not recompute");
        assert!(warm.cache.hits > 0);
    }

    #[test]
    fn direct_only_apps_never_touch_the_cache() {
        // Generated apps make only direct calls, which resolve inline:
        // the scan looks nothing up and stores nothing, and its reports
        // are the uncached ones.
        let apps = synth::apps(64, 42);
        assert!(apps
            .iter()
            .flat_map(|app| &app.actions)
            .flat_map(|action| action.calls())
            .all(|call| call.via.is_empty()));
        let db = BlockingApiDb::documented(2017);
        let cfg = configs()[0];
        let scan = scan_corpus(&apps, &db, &cfg, 2);
        assert_eq!(scan.cache, CacheStats::default());
        let uncached: Vec<SastReport> = apps
            .iter()
            .map(|app| analyze_with_db(app, &db, &cfg))
            .collect();
        assert_eq!(scan.reports, uncached);
    }

    #[test]
    fn corpus_order_is_preserved() {
        let apps = corpus();
        let db = BlockingApiDb::documented(2017);
        let scan = scan_corpus(&apps, &db, &configs()[0], 8);
        let scanned: Vec<&str> = scan.reports.iter().map(|r| r.app.as_str()).collect();
        let expected: Vec<&str> = apps.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(scanned, expected);
    }

    #[test]
    fn more_threads_than_apps_is_clamped() {
        let apps = vec![table1::a_better_camera()];
        let db = BlockingApiDb::documented(2017);
        let scan = scan_corpus(&apps, &db, &configs()[0], 64);
        assert_eq!(scan.threads, 1);
        assert_eq!(scan.reports.len(), 1);
    }
}
