//! Warm-cache byte-identity, end to end: replaying verdicts from a
//! populated `--cache-dir` must produce *exactly* the bytes of a cold
//! uncached run — at every worker count — both for offline `crellvm opt`
//! stdout and for served `Accept: text/plain` responses.

use crellvm::serve::http::call;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_crellvm")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crellvm_warmid_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "crellvm {:?} failed:\n{}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Generate a deterministic test module file, returning its path.
fn gen_module(dir: &std::path::Path, seed: u64) -> PathBuf {
    let path = dir.join(format!("m{seed}.cll"));
    run(&[
        "gen",
        "--seed",
        &seed.to_string(),
        "--functions",
        "3",
        "--out",
        path.to_str().unwrap(),
    ]);
    path
}

#[test]
fn warm_opt_stdout_is_byte_identical_across_jobs() {
    let dir = tmpdir("opt");
    let module = gen_module(&dir, 97);
    let module = module.to_str().unwrap();

    // The uncached single-worker run is the reference output.
    let reference = run(&["opt", module, "--jobs", "1"]).stdout;

    let cache_dir = dir.join("cache");
    let base = ["opt", module, "--cache-dir", cache_dir.to_str().unwrap()];

    // Cold run fills the cache; its stdout must already match.
    let cold = run(&[&base[..], &["--jobs", "2"]].concat()).stdout;
    assert_eq!(cold, reference, "cold cached run diverges");

    // Warm runs replay every verdict from disk and must not change a
    // byte at any jobs count.
    for jobs in ["1", "2", "8"] {
        let warm = run(&[&base[..], &["--jobs", jobs]].concat()).stdout;
        assert_eq!(warm, reference, "warm stdout diverges at jobs={jobs}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
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

#[test]
fn warm_served_text_responses_are_byte_identical_to_cold() {
    let dir = tmpdir("serve");
    let module = gen_module(&dir, 98);
    let ir = std::fs::read(&module).unwrap();
    let reference = run(&["opt", module.to_str().unwrap(), "--jobs", "1"]).stdout;

    let cache_dir = dir.join("srv_cache");
    let daemon = Daemon::start(&["--jobs", "2", "--cache-dir", cache_dir.to_str().unwrap()]);
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
    assert_eq!(cold, reference, "cold served bytes diverge");
    // The replay reads cached verdicts back and must reproduce the cold
    // bytes exactly.
    let warm = post();
    assert_eq!(warm, reference, "warm served bytes diverge");
    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}
