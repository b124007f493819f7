//! End-to-end tests of the serving plane: a real `crellvm serve` daemon
//! process, spoken to over loopback HTTP, cross-checked against the
//! offline `crellvm opt` path byte for byte.

use crellvm::serve::http::call;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_crellvm")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crellvm_serve_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A daemon child process whose port was scraped from its stdout.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(bin())
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("daemon announces its address");
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Generate a deterministic test module file, returning its path.
fn gen_module(dir: &std::path::Path, seed: u64) -> PathBuf {
    let path = dir.join(format!("m{seed}.cll"));
    let out = Command::new(bin())
        .args([
            "gen",
            "--seed",
            &seed.to_string(),
            "--functions",
            "3",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    path
}

#[test]
fn served_verdicts_are_byte_identical_to_offline_opt_warm_and_cold() {
    let dir = tmpdir("identity");
    let module = gen_module(&dir, 42);
    let ir = std::fs::read(&module).unwrap();

    // The offline reference: `crellvm opt` at two thread counts.
    let offline = Command::new(bin())
        .args(["opt", module.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(offline.status.success());
    let offline_j1 = Command::new(bin())
        .args(["opt", module.to_str().unwrap(), "--jobs", "1"])
        .output()
        .unwrap();
    assert_eq!(
        offline.stdout, offline_j1.stdout,
        "offline output must already be jobs-stable"
    );

    let daemon = Daemon::start(&["--jobs", "3"]);
    let post = || {
        let (status, _, body) = call(
            &daemon.addr,
            "POST",
            "/v1/validate",
            &[("Accept", "text/plain")],
            &ir,
        )
        .unwrap();
        assert_eq!(status, 200);
        body
    };
    let cold = post();
    assert_eq!(
        cold, offline.stdout,
        "cold served verdicts differ from offline opt"
    );
    // Second request replays from the content-addressed cache; the bytes
    // must not change.
    let warm = post();
    assert_eq!(warm, offline.stdout, "warm served verdicts differ");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn daemon_probes_metrics_and_access_log_work_end_to_end() {
    let dir = tmpdir("plane");
    let module = gen_module(&dir, 7);
    let ir = std::fs::read(&module).unwrap();
    let access_log = dir.join("access.jsonl");
    let daemon = Daemon::start(&["--access-log", access_log.to_str().unwrap()]);

    let (h, _, _) = call(&daemon.addr, "GET", "/healthz", &[], &[]).unwrap();
    assert_eq!(h, 200);
    let (r, _, body) = call(&daemon.addr, "GET", "/readyz", &[], &[]).unwrap();
    assert_eq!(r, 200);
    assert_eq!(body, b"ready\n");

    let (status, headers, _) = call(
        &daemon.addr,
        "POST",
        "/v1/validate",
        &[("X-Crellvm-Tenant", "acme")],
        &ir,
    )
    .unwrap();
    assert_eq!(status, 200);
    let trace_id = headers.get("x-crellvm-trace-id").unwrap().clone();

    // /metrics parses as OpenMetrics and shows the request.
    let (status, _, body) = call(&daemon.addr, "GET", "/metrics", &[], &[]).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    let view = crellvm::serve::top::parse_openmetrics(&text).unwrap();
    assert_eq!(view.counter("serve_requests"), 1);
    assert_eq!(view.counter("serve_tenant_acme_requests"), 1);
    assert!(view.histograms.contains_key("serve_latency_us"));
    assert_eq!(view.gauge("serve_ready"), 1);

    // The access log carries the same trace id, structured.
    let log = std::fs::read_to_string(&access_log).unwrap();
    let line = log.lines().next().expect("one access line");
    let doc = crellvm::telemetry::json::parse(line).unwrap();
    assert_eq!(
        doc.get("trace_id").and_then(|v| v.as_str()),
        Some(trace_id.as_str())
    );
    assert_eq!(doc.get("tenant").and_then(|v| v.as_str()), Some("acme"));
    assert_eq!(doc.get("status").and_then(|v| v.as_u64()), Some(200));
    assert!(doc.get("latency_us").and_then(|v| v.as_u64()).is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn top_once_renders_a_fleet_view_from_a_live_daemon() {
    let dir = tmpdir("top");
    let module = gen_module(&dir, 9);
    let ir = std::fs::read(&module).unwrap();
    let daemon = Daemon::start(&[]);
    let (status, _, _) = call(&daemon.addr, "POST", "/v1/validate", &[], &ir).unwrap();
    assert_eq!(status, 200);

    let out = Command::new(bin())
        .args(["top", "--addr", &daemon.addr, "--once"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let screen = String::from_utf8_lossy(&out.stdout);
    assert!(screen.contains("fleet view"), "{screen}");
    assert!(screen.contains("requests"), "{screen}");
    assert!(screen.contains("verdicts:"), "{screen}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn queue_capacity_zero_turns_requests_away_with_retry_after() {
    let dir = tmpdir("backpressure");
    let module = gen_module(&dir, 3);
    let ir = std::fs::read(&module).unwrap();
    let daemon = Daemon::start(&["--queue", "0"]);
    let (status, headers, _) = call(&daemon.addr, "POST", "/v1/validate", &[], &ir).unwrap();
    assert_eq!(status, 429);
    assert!(headers.contains_key("retry-after"));
    let (r, _, _) = call(&daemon.addr, "GET", "/readyz", &[], &[]).unwrap();
    assert_eq!(r, 503, "a saturated daemon must not report ready");
    std::fs::remove_dir_all(&dir).unwrap();
}
