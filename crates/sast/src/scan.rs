//! Strided-shard parallel corpus scanner and its bench artifact.
//!
//! The 114-app study is embarrassingly parallel — apps share nothing
//! but the read-only database and the summary cache — so the scanner
//! maps it with [`hd_simrt::strided_map`]: worker `w` of `T` owns corpus
//! indices `{w, w+T, w+2T, …}` and the results come back in corpus
//! order. Every report is
//! a pure function of `(app, db, config)` — the shared cache memoizes
//! *values*, never decisions — so the merged output is byte-identical
//! at any thread count; only the wall-clock and the cache hit/miss
//! tallies vary, and those are quarantined in the bench artifact.

use std::time::Instant;

use hangdoctor::BlockingApiDb;
use hd_appmodel::App;
use hd_simrt::strided_map;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, SummaryCache};
use crate::engine::{analyze_with_db_cached, SastConfig};
use crate::report::SastReport;

/// Schema tag of the [`SastBench`] artifact.
pub const SAST_BENCH_SCHEMA: &str = "hang-doctor/sast-bench/v1";

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

/// One measured configuration of the threaded scan sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SastBenchRow {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock for the whole scan, milliseconds.
    pub elapsed_ms: f64,
    /// Apps analyzed per second (replicated corpus size / elapsed).
    pub apps_per_second: f64,
    /// Throughput relative to the sweep's single-thread row.
    pub speedup_vs_serial: f64,
    /// Total findings across the corpus (identical in every row).
    pub findings: usize,
    /// Cross-app cache lookups served from memory.
    pub cache_hits: u64,
    /// Cache lookups that computed a summary.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`.
    pub cache_hit_rate: f64,
    /// Summaries the cache saved recomputing.
    pub summaries_deduped: u64,
    /// Distinct fingerprints resident after the scan.
    pub cache_entries: usize,
}

/// The committed `BENCH_sast.json` artifact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SastBench {
    /// Always [`SAST_BENCH_SCHEMA`].
    pub schema: String,
    /// Rule profile the sweep ran under.
    pub profile: String,
    /// Database vintage.
    pub db_year: u16,
    /// Distinct corpus apps.
    pub corpus_apps: usize,
    /// Corpus replication factor (workload = apps × replicas).
    pub replicas: usize,
    /// Hardware parallelism of the measuring host. Thread-sweep rows
    /// only show speedup when this exceeds 1 — on a single-core runner
    /// the multi-thread rows measure pure scheduling overhead.
    pub host_cpus: usize,
    /// Best throughput across the sweep — the CI regression-guard
    /// scalar (compare fresh vs committed, mirroring the fleet bench).
    pub best_apps_per_second: f64,
    /// One row per thread count, ascending.
    pub rows: Vec<SastBenchRow>,
}

/// Runs the threaded scan sweep over `apps × replicas` with a fresh
/// cache per run, so every row measures the same cold-start workload.
///
/// Measurement hygiene: one untimed warm-up scan first (so no row pays
/// the process's heap growth and first-touch page faults), then each
/// thread count is run three times and the best wall-clock kept —
/// minimums, not means, estimate the noise floor on shared runners.
pub fn bench_sweep(
    apps: &[App],
    db: &BlockingApiDb,
    config: &SastConfig,
    thread_sweep: &[usize],
    replicas: usize,
) -> SastBench {
    const TRIALS: usize = 3;
    let replicas = replicas.max(1);
    let workload: Vec<App> = std::iter::repeat_with(|| apps.iter().cloned())
        .take(replicas)
        .flatten()
        .collect();
    let warmup = scan_corpus(&workload, db, config, 1);
    std::hint::black_box(&warmup);
    drop(warmup);
    let mut rows: Vec<SastBenchRow> = Vec::with_capacity(thread_sweep.len());
    for &threads in thread_sweep {
        let (mut best, mut scan) = (None::<std::time::Duration>, None);
        for _ in 0..TRIALS {
            let start = Instant::now();
            let trial = scan_corpus(&workload, db, config, threads);
            let elapsed = start.elapsed();
            if best.is_none_or(|b| elapsed < b) {
                best = Some(elapsed);
                scan = Some(trial);
            }
        }
        let (elapsed, scan) = (best.expect("TRIALS > 0"), scan.expect("TRIALS > 0"));
        let elapsed_ms = elapsed.as_secs_f64() * 1e3;
        let apps_per_second = workload.len() as f64 / elapsed.as_secs_f64().max(1e-9);
        let serial = rows
            .first()
            .map(|r: &SastBenchRow| r.apps_per_second)
            .unwrap_or(apps_per_second);
        rows.push(SastBenchRow {
            threads: scan.threads,
            elapsed_ms,
            apps_per_second,
            speedup_vs_serial: apps_per_second / serial.max(1e-9),
            findings: scan.reports.iter().map(|r| r.findings.len()).sum(),
            cache_hits: scan.cache.hits,
            cache_misses: scan.cache.misses,
            cache_hit_rate: scan.cache.hit_rate(),
            summaries_deduped: scan.cache.deduped(),
            cache_entries: scan.cache.entries,
        });
    }
    SastBench {
        schema: SAST_BENCH_SCHEMA.to_string(),
        profile: config.profile.as_str().to_string(),
        db_year: config.db_year,
        corpus_apps: apps.len(),
        replicas,
        host_cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        best_apps_per_second: rows.iter().fold(0.0f64, |m, r| m.max(r.apps_per_second)),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleProfile;
    use hd_appmodel::corpus::{table1, table5};

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

    #[test]
    fn bench_sweep_reports_cross_app_reuse() {
        let apps = corpus();
        let db = BlockingApiDb::documented(2017);
        let bench = bench_sweep(&apps, &db, &configs()[0], &[1, 2], 2);
        assert_eq!(bench.schema, SAST_BENCH_SCHEMA);
        assert_eq!(bench.rows.len(), 2);
        assert_eq!(bench.corpus_apps, apps.len());
        assert!((bench.rows[0].speedup_vs_serial - 1.0).abs() < 1e-9);
        assert!(bench.best_apps_per_second > 0.0);
        for row in &bench.rows {
            // Replicated corpus ⇒ every replica after the first is pure
            // cache hits, so reuse is guaranteed nonzero.
            assert!(row.cache_hits > 0, "{row:?}");
            assert!(row.cache_hit_rate > 0.0);
            assert_eq!(row.findings, bench.rows[0].findings);
        }
    }
}
