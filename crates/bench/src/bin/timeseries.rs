//! Timeseries agreement gate — proves `/timeseries` tells the truth.
//!
//! Two phases, both with the sampler ticking at 100 ms:
//!
//! 1. **Agreement.** A sustained 4-thread estimation run (each thread
//!    drives the same warm per-query loop `estimate_batch` runs per
//!    chunk, timing every call into its own local log₂ histogram). The
//!    windows the sampler derives must agree with the bench's own
//!    ground truth: windowed qps aggregated over the busy windows
//!    within 15% of the bench's measured rate, the window query totals
//!    exactly equal to the number of estimates issued while both
//!    bracketing samples existed, and warm p50/p99 within one log₂
//!    bucket of the bench's self-timed quantiles (cumulative-bucket
//!    subtraction is exact, so disagreement beyond a bucket boundary
//!    would mean the ring tore a snapshot).
//! 2. **Drift alarm.** A failpoint forces every exact rung to fail so
//!    the degradation ladder answers from the uniform floor; the
//!    resulting q-error spike must raise a critical watchdog alert and
//!    flip the live `/health` endpoint to 503 — and recovery (disarm +
//!    healthy traffic) must clear it again, proving alerts are sticky
//!    but not latched.
//!
//! Run: `cargo run --release -p prmsel-bench --bin timeseries [-- --quick]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use obs::json::Json;
use obs::registry::Histogram;
use prmsel::{PrmEstimator, PrmLearnConfig, SelectivityEstimator};
use prmsel_bench::{cap_suite, emit_bench_json, FigRow, HarnessOpts};
use workloads::census::census_database;

/// Maximum tolerated qps disagreement between `/timeseries` and the
/// bench's own measurement.
const MAX_QPS_ERROR: f64 = 0.15;

fn get(addr: &str, path: &str) -> (u16, String) {
    httpd::get(addr, path).unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

fn main() -> reldb::Result<()> {
    let opts = HarnessOpts::from_args();
    let rows = if opts.quick { 5_000 } else { 20_000 };
    let sustain = Duration::from_millis(if opts.quick { 1_500 } else { 4_000 });

    let db = census_database(rows, 1);
    let est = PrmEstimator::build(&db, &PrmLearnConfig::default())?;
    let suite = workloads::single_table_eq_suite(&db, "census", &["age", "income"])?;
    let queries = cap_suite(suite.queries.clone(), 64, 17);
    for q in &queries {
        est.estimate(q)?; // prime the plan cache
    }

    let server = httpd::Server::bind("127.0.0.1:0", cli::monitor::router())
        .expect("bind ephemeral monitor");
    let addr = server.addr().to_string();

    obs::timeseries::series().clear();
    obs::watchdog::reset_for_tests();
    let sampler = obs::timeseries::Sampler::start_with(Duration::from_millis(100));
    // Anchor a baseline sample before the first worker issues a query:
    // the sampler thread's own first tick races with the workers, and
    // the exact-count assertion below needs every estimate bracketed.
    obs::timeseries::sample_now();

    // --- phase 1: sustained 4-thread estimation ----------------------
    let issued = AtomicU64::new(0);
    let bench_hist = Histogram::default();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let issued = &issued;
                let bench_hist = &bench_hist;
                let queries = &queries;
                let est = &est;
                scope.spawn(move || {
                    while start.elapsed() < sustain {
                        for q in queries {
                            let t = Instant::now();
                            est.estimate(q).expect("warm estimate");
                            bench_hist.record_duration(t.elapsed());
                            issued.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let issued = issued.load(Ordering::Relaxed);
    let bench_qps = issued as f64 / elapsed;
    let bench = bench_hist.snapshot();

    // One final tick so the last partial window is closed before we read.
    obs::timeseries::sample_now();

    // Ground truth vs the same windows /timeseries serves.
    let windows = obs::timeseries::series().windows(usize::MAX);
    let busy: Vec<_> = windows.iter().filter(|w| w.queries > 0).collect();
    assert!(busy.len() >= 3, "sampler closed only {} busy windows", busy.len());
    let win_queries: u64 = busy.iter().map(|w| w.queries).sum();
    let win_ms: u64 = busy.iter().map(|w| w.dt_ms()).sum();
    let ts_qps = win_queries as f64 * 1000.0 / win_ms as f64;
    let qps_err = (ts_qps / bench_qps - 1.0).abs();

    // Merge the busy windows' exact interval histograms back into one
    // run-wide distribution and compare quantiles with the bench's own.
    let merged = Histogram::default();
    for w in &busy {
        for &(bound, n) in &w.latency.buckets {
            for _ in 0..n {
                merged.record(bound);
            }
        }
    }
    let merged = merged.snapshot();
    // Within one log₂ bucket: equal bounds or adjacent (ratio ≤ 2 + 1).
    let within_a_bucket = |a: u64, b: u64| {
        let (lo, hi) = (a.min(b).max(1), a.max(b));
        hi <= lo * 2 + 1
    };

    // The served document must carry the same story end to end.
    let (status, doc) = get(&addr, "/timeseries");
    assert_eq!(status, 200);
    let doc = obs::json::parse(&doc).expect("/timeseries JSON parses");
    let served: f64 = doc
        .get("windows")
        .and_then(Json::as_array)
        .expect("windows")
        .iter()
        .filter_map(|w| w.get("queries")?.as_u64())
        .sum::<u64>() as f64;

    println!("sustained 4-thread run:    {issued} estimates in {elapsed:.2}s");
    println!("bench qps:                 {bench_qps:>10.0}");
    println!(
        "windowed qps (aggregated): {ts_qps:>10.0}  ({:+.1}%)",
        (ts_qps / bench_qps - 1.0) * 100.0
    );
    println!("bench    p50/p99 ns:       {:>10} / {}", bench.p50(), bench.p99());
    println!("windowed p50/p99 ns:       {:>10} / {}", merged.p50(), merged.p99());
    println!("window query total:        {win_queries} (served doc: {served})");

    assert_eq!(
        win_queries, issued,
        "window query totals must account for every estimate issued"
    );
    assert!(
        qps_err < MAX_QPS_ERROR,
        "windowed qps {ts_qps:.0} disagrees with bench {bench_qps:.0} by {:.1}% (limit {:.0}%)",
        qps_err * 100.0,
        MAX_QPS_ERROR * 100.0
    );
    assert!(
        within_a_bucket(merged.p50(), bench.p50()),
        "windowed p50 {} vs bench {} beyond one bucket",
        merged.p50(),
        bench.p50()
    );
    assert!(
        within_a_bucket(merged.p99(), bench.p99()),
        "windowed p99 {} vs bench {} beyond one bucket",
        merged.p99(),
        bench.p99()
    );

    // --- phase 2: fault-injected q-error spike ------------------------
    // The spike suite probes every `income` value on its own: the
    // marginal has a thin upper tail (several values occur once), so the
    // uniform floor guesses rows/42 for all of them — a ~30x
    // overestimate on the rarest — while the healthy PRM models the
    // marginal and stays under ~10x. 20x sits between the two with
    // better than 2x margin on each side.
    obs::watchdog::set_slo_qerror(Some(20.0));
    let spike_suite = workloads::single_table_eq_suite(&db, "census", &["income"])?;
    let spike_queries = spike_suite.queries;
    // The warm estimator from phase 1 serves the spike too: an armed
    // `infer.eliminate` fires on every estimate, memo hits included.
    let resilient = prmsel::ResilientEstimator::new(est);
    prmsel::evaluate_suite(&db, &resilient, &spike_queries)?; // healthy window(s)
    std::thread::sleep(Duration::from_millis(250));
    assert!(
        obs::watchdog::firing_critical().is_empty(),
        "healthy traffic fired: {:?}",
        obs::watchdog::firing_critical()
    );

    failpoint::arm("infer.eliminate", failpoint::Action::Err);
    let spike_deadline = Instant::now() + Duration::from_secs(5);
    let mut alert_after = None;
    let spiked_at = Instant::now();
    while Instant::now() < spike_deadline {
        prmsel::evaluate_suite(&db, &resilient, &spike_queries)?;
        if obs::watchdog::firing_critical()
            .iter()
            .any(|a| a.metric == "quality.qerror.p99")
        {
            alert_after = Some(spiked_at.elapsed());
            break;
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    failpoint::disarm("infer.eliminate");
    let alert_after = alert_after.expect("q-error spike never raised a critical alert");
    println!(
        "critical q-error alert after {:.0} ms of faulty traffic",
        alert_after.as_secs_f64() * 1000.0
    );
    // Two 100 ms windows of grace plus one sampler tick of slack.
    assert!(
        alert_after <= Duration::from_millis(2_000),
        "alert took {alert_after:?}, wanted within 2 windows"
    );
    let (status, health) = get(&addr, "/health");
    assert_eq!(status, 503, "{health}");
    assert!(health.contains("quality.qerror.p99"), "{health}");

    // Recovery: healthy traffic must clear the (sticky) alert again.
    let recover_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        prmsel::evaluate_suite(&db, &resilient, &spike_queries)?;
        if obs::watchdog::firing_critical().is_empty() {
            break;
        }
        assert!(Instant::now() < recover_deadline, "alert never cleared after recovery");
        std::thread::sleep(Duration::from_millis(30));
    }
    let (status, health) = get(&addr, "/health");
    assert_eq!(status, 200, "{health}");

    sampler.stop();
    server.shutdown();

    emit_bench_json(
        &opts,
        "timeseries",
        &[(
            "timeseries agreement (census, 4 threads, 100ms sampler)".to_owned(),
            vec![
                FigRow { method: "bench_qps".into(), x: 0.0, y: bench_qps },
                FigRow { method: "windowed_qps".into(), x: 0.0, y: ts_qps },
                FigRow { method: "qps_err_pct".into(), x: 0.0, y: qps_err * 100.0 },
                FigRow { method: "bench_p50_ns".into(), x: 0.0, y: bench.p50() as f64 },
                FigRow { method: "win_p50_ns".into(), x: 0.0, y: merged.p50() as f64 },
                FigRow { method: "bench_p99_ns".into(), x: 0.0, y: bench.p99() as f64 },
                FigRow { method: "win_p99_ns".into(), x: 0.0, y: merged.p99() as f64 },
                FigRow {
                    method: "alert_latency_ms".into(),
                    x: 0.0,
                    y: alert_after.as_secs_f64() * 1000.0,
                },
            ],
        )],
    );
    println!("OK: /timeseries agrees with the bench and the drift alarm fires");
    Ok(())
}
