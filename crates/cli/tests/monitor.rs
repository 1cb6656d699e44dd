//! End-to-end tests of the HTTP observability plane: the concurrent-
//! scrape gate (every `/metrics` body must stay lint-valid while a
//! multi-threaded `estimate_batch` is mutating the registry), the
//! `prmsel monitor` command served over a real socket, and the
//! `stats --from-url` / `--templates` reports.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use prmsel::{estimate_batch, PrmEstimator, PrmLearnConfig};
use prmsel_cli::commands::{run, write_csv_dir};
use workloads::tb::tb_database_sized;

/// Flight recording and template telemetry are process-global; tests
/// that toggle them serialize here.
fn with_telemetry_lock(f: impl FnOnce()) {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    f();
    obs::flight::set_recording(false);
    prmsel::set_template_telemetry(false);
}

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

fn dump_db(tag: &str) -> PathBuf {
    let db = tb_database_sized(40, 60, 400, 11);
    let dir = std::env::temp_dir().join(format!("prmsel_monitor_test_{tag}"));
    write_csv_dir(&db, &dir).unwrap();
    dir
}

/// The acceptance gate: 8 scrapers hammering `/metrics` while a
/// 4-thread `estimate_batch` runs — every single scrape must be a
/// well-formed exposition (torn or interleaved output would fail the
/// lint), and `/health` + `/traces` must answer throughout.
#[test]
fn concurrent_scrapes_stay_lint_valid_during_estimation() {
    with_telemetry_lock(|| {
        let db = tb_database_sized(30, 40, 300, 5);
        let est = PrmEstimator::build(&db, &PrmLearnConfig::default()).unwrap();
        let suite = workloads::single_table_eq_suite(&db, "patient", &["age"]).unwrap();
        obs::flight::set_recording(true);
        prmsel::set_template_telemetry(true);

        let server =
            httpd::Server::bind("127.0.0.1:0", prmsel_cli::monitor::router()).unwrap();
        let addr = server.addr().to_string();

        par::set_threads(Some(4));
        std::thread::scope(|scope| {
            let estimator = scope.spawn(|| {
                for _ in 0..20 {
                    estimate_batch(&est, &suite.queries).unwrap();
                }
            });
            let scrapers: Vec<_> = (0..8)
                .map(|_| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        for _ in 0..10 {
                            let (status, body) = httpd::get(&addr, "/metrics").unwrap();
                            assert_eq!(status, 200);
                            obs::openmetrics::lint(&body)
                                .unwrap_or_else(|e| panic!("scrape failed lint: {e}"));
                        }
                        let (status, health) = httpd::get(&addr, "/health").unwrap();
                        assert_eq!(status, 200, "{health}");
                        assert!(health.contains("\"status\":\"ok\""), "{health}");
                        let (status, traces) = httpd::get(&addr, "/traces").unwrap();
                        assert_eq!(status, 200);
                        assert!(traces.starts_with('['), "{traces}");
                    })
                })
                .collect();
            estimator.join().unwrap();
            for h in scrapers {
                h.join().unwrap();
            }
        });
        par::set_threads(None);

        // The batch ran with telemetry on: per-template warm-latency
        // series must be present and labeled.
        let doc = obs::openmetrics::render(&obs::registry().snapshot());
        assert!(doc.contains("prm_estimate_warm_ns_bucket{template=\""), "{doc}");
        server.shutdown();
    });
}

/// The `prm_estimate_ns` histogram's observation count in an OpenMetrics
/// body (0 before the first estimate registers the series).
fn estimate_count(metrics: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix("prm_estimate_ns_count "))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or(0)
}

/// `prmsel monitor` end to end: ephemeral port via `--port-file`, live
/// endpoints while the workload replays, and a served-request summary.
#[test]
fn monitor_command_serves_all_endpoints() {
    with_telemetry_lock(|| {
        let dir = dump_db("cmd");
        let port_file = dir.join("port.txt");
        // The dump dir is reused across runs: a stale port file from a
        // previous process would point at a dead server.
        let _ = std::fs::remove_file(&port_file);
        let args = s(&[
            "monitor",
            "--addr",
            "127.0.0.1:0",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--duration-secs",
            "3",
            "--port-file",
            port_file.to_str().unwrap(),
        ]);
        let handle = std::thread::spawn(move || run(&args));

        // The port file appears as soon as the socket is bound.
        let addr = {
            let mut tries = 0;
            loop {
                match std::fs::read_to_string(&port_file) {
                    Ok(a) if !a.is_empty() => break a,
                    _ => {
                        tries += 1;
                        assert!(tries < 200, "port file never appeared");
                        std::thread::sleep(Duration::from_millis(25));
                    }
                }
            }
        };

        // The socket is bound before the model is built, so wait until the
        // workload has recorded an estimate; the server stays up until
        // `--duration-secs` has passed, so the scrapes below still see it.
        let metrics = {
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                let (status, metrics) = httpd::get(&addr, "/metrics").unwrap();
                assert_eq!(status, 200);
                if estimate_count(&metrics) > 0 {
                    break metrics;
                }
                assert!(Instant::now() < deadline, "no estimate recorded in 2 s");
                std::thread::sleep(Duration::from_millis(25));
            }
        };
        obs::openmetrics::lint(&metrics).unwrap();
        let (status, build) = httpd::get(&addr, "/buildinfo").unwrap();
        assert_eq!(status, 200);
        assert!(build.contains("\"name\":\"prmsel\""), "{build}");
        let (status, worst) = httpd::get(&addr, "/traces/worst").unwrap();
        assert_eq!(status, 200);
        assert!(worst.contains("\"worst_latency\""), "{worst}");
        let (status, chrome) = httpd::get(&addr, "/traces/chrome").unwrap();
        assert_eq!(status, 200);
        assert!(chrome.contains("\"traceEvents\""), "{chrome}");
        assert_eq!(httpd::get(&addr, "/nope").unwrap().0, 404);

        // `stats --from-url` scrapes + lints + re-renders the same plane.
        let stats = run(&s(&["stats", "--from-url", &addr, "--pretty"])).unwrap();
        assert!(stats.contains("lint-clean"), "{stats}");
        assert!(
            stats.contains("prm.estimate.ns") || stats.contains("prm_estimate_ns"),
            "{stats}"
        );

        let out = handle.join().unwrap().unwrap();
        assert!(out.contains("monitor: served"), "{out}");
        assert!(out.contains("workload pass(es)"), "{out}");
    });
}

/// `stats --templates` joins the labeled histograms back into a
/// per-template quality table, and `--monitor` serves during the run.
#[test]
fn stats_templates_reports_per_template_quality() {
    with_telemetry_lock(|| {
        let dir = dump_db("templates");
        let out = run(&s(&[
            "stats",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--templates",
            "--monitor",
            "127.0.0.1:0",
            "--pretty",
        ]))
        .unwrap();
        assert!(out.contains("per-template quality:"), "{out}");
        assert!(out.contains("monitor: served http://"), "{out}");
        // At least one row with a 16-hex template hash and a query label.
        let has_row = out.lines().any(|l| {
            let l = l.trim_start();
            l.len() > 16
                && l.as_bytes()[..16].iter().all(u8::is_ascii_hexdigit)
                && l.contains("WHERE")
        });
        assert!(has_row, "{out}");
    });
}

/// The drift-watchdog acceptance gate: a healthy window establishes
/// normal q-error, then a failpoint forces every exact rung to fail so
/// the ladder answers from the uniform floor — the resulting q-error
/// spike must raise a `critical` watchdog alert and flip `/health` to
/// 503 (with the alert in the body) within two windows of the fault.
#[test]
fn qerror_spike_fires_critical_alert_and_degrades_health() {
    with_telemetry_lock(|| {
        obs::timeseries::series().clear();
        obs::watchdog::reset_for_tests();
        obs::watchdog::set_slo_qerror(Some(5.0));

        let db = workloads::census::census_database(2_000, 11);
        let est = PrmEstimator::build(&db, &PrmLearnConfig::default()).unwrap();
        // No AVI rung: once the exact rungs fail, the ladder lands on
        // the uniform floor, the worst (and always-available) answer.
        let est = prmsel::ResilientEstimator::new(est);
        let suite =
            workloads::single_table_eq_suite(&db, "census", &["age", "income"]).unwrap();

        let server =
            httpd::Server::bind("127.0.0.1:0", prmsel_cli::monitor::router()).unwrap();
        let addr = server.addr().to_string();

        // Window 1: healthy. Exact estimates keep q-error ≈ 1.
        obs::timeseries::sample_now();
        prmsel::evaluate_suite(&db, &est, &suite.queries).unwrap();
        obs::timeseries::sample_now();
        assert!(
            obs::watchdog::firing_critical().is_empty(),
            "healthy window must not fire: {:?}",
            obs::watchdog::firing_critical()
        );
        let (status, body) = httpd::get(&addr, "/health").unwrap();
        assert_eq!(status, 200, "{body}");

        // Fault: every elimination fails, so both exact rungs degrade
        // and every query is answered by the uniform guess.
        failpoint::arm("infer.eliminate", failpoint::Action::Err);
        prmsel::evaluate_suite(&db, &est, &suite.queries).unwrap();
        failpoint::disarm("infer.eliminate");
        // Window 2 closes on the next sample: the spike must be caught
        // here — within two windows of the fault.
        obs::timeseries::sample_now();

        let crit = obs::watchdog::firing_critical();
        assert!(
            crit.iter().any(|a| a.metric == "quality.qerror.p99"),
            "expected a critical q-error alert, got {crit:?}"
        );
        let (status, body) = httpd::get(&addr, "/health").unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert!(body.contains("quality.qerror.p99"), "{body}");
        let (status, alerts) = httpd::get(&addr, "/alerts").unwrap();
        assert_eq!(status, 200);
        assert!(alerts.contains("\"firing_critical\":true"), "{alerts}");
        assert!(alerts.contains("quality.qerror.p99"), "{alerts}");
        let (status, ts) = httpd::get(&addr, "/timeseries").unwrap();
        assert_eq!(status, 200);
        assert!(ts.contains("\"windows\":["), "{ts}");

        server.shutdown();
        obs::timeseries::series().clear();
        obs::watchdog::reset_for_tests();
    });
}
