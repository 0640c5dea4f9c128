//! `sast-corpus`: batch scans of a corpus of distinct apps with
//! `hd_sast::scan_corpus` (contextual profile, a fresh `SummaryCache`
//! per scan, 2 threads).
//!
//! The corpus is the static↔runtime differential corpus plus seeded
//! generated apps — all distinct, none replicated. Each scan is one
//! sample of the program's CPU time per app and of apps per second; the
//! run reports their medians.

use std::time::Instant;

use hangdoctor::BlockingApiDb;
use hd_appmodel::corpus::{differential_corpus, synth};
use hd_appmodel::App;
use hd_sast::{
    analyze_with_db_cached, scan_corpus, RuleProfile, SastConfig, SastReport, SummaryCache,
};

use crate::report::{Better, RunReport};
use crate::trace::Tracer;
use crate::Args;

/// Generated apps added to the differential corpus.
pub const GENERATED_APPS: usize = 4_000;
/// Scanner threads.
pub const THREADS: usize = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 9;
/// Paired traced/untraced scans in the traced run.
const TRACE_PAIRS: usize = 10;

/// The workload's corpus for `seed`.
pub fn corpus(seed: u64) -> Vec<App> {
    let mut apps = differential_corpus();
    apps.extend(synth::apps(GENERATED_APPS, seed));
    apps
}

/// Analyzer configuration: the contextual profile against the 2017
/// documented database.
pub fn config() -> SastConfig {
    SastConfig {
        profile: RuleProfile::Contextual,
        db_year: 2017,
    }
}

/// Every report serialized, one per line, in corpus order.
pub fn reports_bytes(reports: &[SastReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&serde_json::to_string(r).expect("report serializes"));
        out.push('\n');
    }
    out
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut RunReport) {
    let mut setup = crate::SetupTimes::default();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        inputs = Some(setup.time(|| {
            (
                corpus(args.seed),
                BlockingApiDb::documented(config().db_year),
            )
        }));
    }
    let (apps, db) = inputs.expect("SETUP_REPS > 0");
    let cfg = config();
    report.note("sast", format!(
        "{} distinct apps ({} differential + {GENERATED_APPS} generated), contextual, threads {THREADS}, fresh cache per scan",
        apps.len(),
        apps.len() - GENERATED_APPS
    ));

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (mut rates, mut threaded) = (Vec::new(), None::<String>);
    let mut cpu_us = Vec::new();
    let t0 = Instant::now();
    while rates.is_empty() || t0.elapsed().as_secs_f64() < budget {
        let (t, cpu) = (Instant::now(), crate::env::process_cpu_s());
        let scan = scan_corpus(&apps, &db, &cfg, THREADS);
        rates.push(apps.len() as f64 / t.elapsed().as_secs_f64());
        cpu_us.push((crate::env::process_cpu_s() - cpu) * 1e6 / apps.len() as f64);
        report.attempted += scan.reports.len() as u64;
        if threaded.is_none() {
            threaded = Some(reports_bytes(&scan.reports));
        }
    }
    let peak_rss = crate::env::peak_rss_mb();
    let serial = scan_corpus(&apps, &db, &cfg, 1);
    report.attempted += serial.reports.len() as u64;
    report.check(
        "sast-corpus: 2-thread reports equal a 1-thread scan byte for byte",
        crate::check_identical(
            "2-thread reports",
            &threaded.expect("one scan ran"),
            &reports_bytes(&serial.reports),
        ),
    );

    if !args.trace {
        setup.report(report);
        report.median_metric("cpu_us_per_op", "us", Better::Lower, &cpu_us);
        report.metric("peak_rss_mb", "MB", Better::Lower, peak_rss, 1);
        report.text_median("sast_apps_per_s", "apps/s", Better::Higher, &rates);
        return;
    }
    report.median_metric("sast.apps_per_s", "apps/s", Better::Higher, &rates);

    // Traced: the same strided 2-worker scan the library runs, with a
    // span around every `analyze_with_db_cached` call, alternated with
    // untraced `scan_corpus` calls for the overhead comparison.
    let epoch = Instant::now();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..TRACE_PAIRS {
        let t = Instant::now();
        std::hint::black_box(scan_corpus(&apps, &db, &cfg, THREADS));
        untraced_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let traced = traced_scan(&apps, &db, &cfg, epoch);
        traced_s.push(t.elapsed().as_secs_f64());
        last = Some(traced);
    }
    let (tracer, reports, cache, busy) = last.expect("TRACE_PAIRS > 0");
    report.attempted += (apps.len() * TRACE_PAIRS * 2) as u64;
    report.check(
        "sast-corpus: traced scan reports equal the 1-thread scan byte for byte",
        crate::check_identical(
            "traced reports",
            &reports_bytes(&reports),
            &reports_bytes(&serial.reports),
        ),
    );
    let per_app = crate::stats::Tail::of(&tracer.durations("sast.analyze")).expect("apps analyzed");
    report.metric(
        "sast.analyze_us",
        "us",
        Better::Lower,
        per_app.p50 / 1e3,
        per_app.n as u64,
    );
    report.metric(
        "sast.analyze_p99_us",
        "us",
        Better::Lower,
        per_app.p99 / 1e3,
        per_app.n as u64,
    );
    report.metric(
        "sast.cache_hit_rate",
        "ratio",
        Better::Higher,
        cache.hit_rate(),
        cache.hits + cache.misses,
    );
    report.metric(
        "sast.cache_entries",
        "count",
        Better::Lower,
        cache.entries as f64,
        1,
    );
    report.metric(
        "sast.findings",
        "count",
        Better::Higher,
        reports.iter().map(|r| r.findings.len()).sum::<usize>() as f64,
        reports.len() as u64,
    );
    let max = busy.iter().copied().fold(0.0, f64::max);
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    report.metric(
        "sast.worker_imbalance",
        "ratio",
        Better::Lower,
        max / mean,
        busy.len() as u64,
    );
    crate::trace_overhead(report, &untraced_s, &traced_s);
    crate::write_trace(args, &tracer, report);
}

/// `scan_corpus`'s strided two-worker loop with a span per app. Returns
/// the merged spans, the reports in corpus order, the cache telemetry
/// and each worker's busy time, ms.
fn traced_scan(
    apps: &[App],
    db: &BlockingApiDb,
    cfg: &SastConfig,
    epoch: Instant,
) -> (Tracer, Vec<SastReport>, hd_sast::CacheStats, Vec<f64>) {
    let cache = SummaryCache::new();
    let mut indexed: Vec<(usize, SastReport)> = Vec::with_capacity(apps.len());
    let mut tracer = Tracer::new(epoch);
    let mut busy = Vec::with_capacity(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|worker| {
                let cache = &cache;
                scope.spawn(move || {
                    let mut t = Tracer::new(epoch);
                    let mut partial = Vec::new();
                    let mut index = worker;
                    while index < apps.len() {
                        let span = t.open("sast.analyze", None, index as u64);
                        partial.push((
                            index,
                            analyze_with_db_cached(&apps[index], db, cfg, Some(cache)),
                        ));
                        t.close(span);
                        index += THREADS;
                    }
                    (t, partial)
                })
            })
            .collect();
        for h in handles {
            let (t, partial) = h.join().expect("scan worker panicked");
            busy.push(t.spans().iter().map(|s| s.dur_ns() as f64 / 1e6).sum());
            tracer.absorb(t);
            indexed.extend(partial);
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    let reports = indexed.into_iter().map(|(_, r)| r).collect();
    (tracer, reports, cache.stats(), busy)
}
