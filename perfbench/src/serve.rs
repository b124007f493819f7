//! `serve`: the validation daemon, started in-process, driven by one
//! closed-loop client that POSTs corpus modules as IR text, one
//! connection per request.
//!
//! Requests come in rounds; each round visits every distinct module once,
//! in a seeded order. Module `m` is sent under a tenant (a cache
//! namespace) that changes every `VISITS` rounds, staggered by `m`, so
//! exactly 1 / `VISITS` of each round's requests are cold first visits
//! and the rest hit the warm cache. Every block starts a fresh daemon and
//! sends round 0, which fills its cache (untimed); the block is rounds 1
//! to `VISITS`, so every block starts from the same server state.
//!
//! Within a round, every cold visit comes right after a warm one. Once
//! idle, the daemon's accept loop sleeps 5 ms, so a request waits to be
//! accepted for 5 ms less however long the previous request took, modulo
//! 5 ms. After a warm request that wait is nearly the full 5 ms every
//! time; after a cold one it would hinge on the cold request's duration,
//! and the cold latencies (the p95) on their neighbours.

use crate::metrics::{end_to_end, measure, per_layer, Outcome};
use crate::opt::{self, live_telemetry};
use crate::replay::{bump, replay_pipeline, CacheCtx, Counts};
use crate::stats::shuffled;
use crate::trace::Tracer;
use crate::{pinned, RunArgs};
use crellvm_core::ValidationCache;
use crellvm_ir::{parse_module, verify_module};
use crellvm_serve::http::call;
use crellvm_serve::{start, ServeConfig, ServerHandle};
use crellvm_telemetry::json::{self, Value};
use std::time::{Duration, Instant};

/// Distinct modules per run.
const DISTINCT: usize = 24;
/// Visits per module per tenant: one in `VISITS` requests is cold.
const VISITS: usize = 8;

/// The `i`-th request of a block (rounds 1 to `VISITS`): module index
/// and tenant.
fn request(i: usize, seed: u64) -> (usize, String) {
    let round = 1 + i / DISTINCT;
    let m = round_order(round, seed)[i % DISTINCT];
    (m, tenant(m, round))
}

/// The modules of round `round` (from 1) in request order: the warm
/// visits in a seeded order, and each cold one right after a seeded
/// choice of a distinct warm one.
fn round_order(round: usize, seed: u64) -> Vec<usize> {
    let (cold, warm): (Vec<usize>, Vec<usize>) = shuffled(DISTINCT, seed ^ round as u64)
        .into_iter()
        .partition(|&m| tenant(m, round) != tenant(m, round - 1));
    let slots = shuffled(warm.len(), !(seed ^ round as u64));
    let mut order = Vec::with_capacity(DISTINCT);
    for (k, &w) in warm.iter().enumerate() {
        order.push(w);
        if let Some(c) = slots.iter().position(|&s| s == k).and_then(|p| cold.get(p)) {
            order.push(*c);
        }
    }
    order
}

fn tenant(m: usize, round: usize) -> String {
    format!("e{}", (round + m % VISITS) / VISITS)
}

/// What the client saw of one request.
struct Reply {
    status: u16,
    latency: Duration,
    lines: Vec<String>,
    hits: u64,
    misses: u64,
    run_us: u64,
    queue_wait_us: u64,
}

fn num(v: Option<&Value>) -> u64 {
    v.and_then(Value::as_u64).unwrap_or(0)
}

/// One request on its own connection, timed from connect to the last
/// response byte.
fn post(addr: &str, body: &str, tenant: &str) -> Result<Reply, String> {
    let headers = [
        ("Content-Type", "text/plain"),
        ("Accept", "application/json"),
        ("X-Crellvm-Tenant", tenant),
    ];
    let t = Instant::now();
    let (status, _, body) = call(addr, "POST", "/v1/validate", &headers, body.as_bytes())
        .map_err(|e| format!("request: {e}"))?;
    let latency = t.elapsed();
    let mut reply = Reply {
        status,
        latency,
        lines: Vec::new(),
        hits: 0,
        misses: 0,
        run_us: 0,
        queue_wait_us: 0,
    };
    if status == 200 {
        let body = String::from_utf8(body).map_err(|e| format!("response body: {e}"))?;
        let doc = json::parse(&body).map_err(|e| format!("response body: {e}"))?;
        reply.lines = doc
            .get("lines")
            .and_then(Value::as_arr)
            .ok_or("response without lines")?
            .iter()
            .filter_map(|l| l.as_str().map(str::to_string))
            .collect();
        let cache = doc.get("cache");
        reply.hits = num(cache.and_then(|c| c.get("hits")));
        reply.misses = num(cache.and_then(|c| c.get("misses")));
        reply.run_us = num(doc.get("run_us"));
        reply.queue_wait_us = num(doc.get("queue_wait_us"));
    }
    Ok(reply)
}

/// Judge a reply against the offline step lines of its module.
fn judge(reply: &Reply, expected: &[String]) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("HTTP {}", reply.status));
    }
    if reply.lines != expected {
        return Err("served lines differ from the offline step lines".into());
    }
    Ok(())
}

/// A daemon started in-process, shut down when dropped.
struct Daemon {
    handle: Option<ServerHandle>,
    addr: String,
}

impl Daemon {
    /// Start a daemon and send it round 0 under tenants prefixed by
    /// `prefix`, which fills its cache.
    fn warm(
        bodies: &[String],
        expected: &[Vec<String>],
        prefix: &str,
        out: &mut Outcome,
    ) -> Result<Daemon, String> {
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: 1,
            ..ServeConfig::default()
        })?;
        let d = Daemon {
            addr: handle.addr().to_string(),
            handle: Some(handle),
        };
        for (m, body) in bodies.iter().enumerate() {
            let tenant = format!("{prefix}{}", tenant(m, 0));
            if let Err(e) = post(&d.addr, body, &tenant).and_then(|r| judge(&r, &expected[m])) {
                out.fail(format!("round-0 request: {e}"));
            }
        }
        Ok(d)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

struct Setup {
    bodies: Vec<String>,
    expected: Vec<Vec<String>>,
    daemon: Daemon,
}

fn setup(out: &mut Outcome) -> Result<Setup, String> {
    let texts = opt::corpus_texts();
    let digests = pinned::opt_table();
    if digests.len() != texts.len() || texts.len() < DISTINCT {
        return Err("the pinned opt table does not match the corpus".into());
    }
    let mut bodies = Vec::new();
    let mut expected = Vec::new();
    // Evenly spaced through the corpus, so every benchmark contributes.
    for k in 0..DISTINCT {
        let idx = k * texts.len() / DISTINCT;
        // Known answer: the offline engine's lines, themselves checked
        // against the pinned digest.
        let (lines, failed) = opt::validate_module(&texts[idx])?;
        if let Err(e) = opt::judge(&lines, failed, Some(digests[idx])) {
            out.fail(format!("offline lines of module {idx}: {e}"));
        }
        bodies.push(texts[idx].clone());
        expected.push(lines);
    }
    let daemon = Daemon::warm(&bodies, &expected, "", out)?;
    Ok(Setup {
        bodies,
        expected,
        daemon,
    })
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    out.facts.insert("distinct_modules", DISTINCT.to_string());
    out.facts.insert("visits_per_module", VISITS.to_string());
    if args.trace {
        let s = setup(&mut out)?;
        traced(&s, args.seed, &mut out)?;
        return Ok(out);
    }
    // One block is `VISITS` rounds: every module visited that many times,
    // and cold exactly once.
    let m = measure(
        args.seconds,
        DISTINCT * VISITS,
        &mut out,
        setup,
        |s, out| match Daemon::warm(&s.bodies, &s.expected, "", out) {
            Ok(d) => s.daemon = d,
            Err(e) => out.fail(format!("daemon restart: {e}")),
        },
        |s, j| {
            let (m, tenant) = request(j, args.seed);
            let reply = post(&s.daemon.addr, &s.bodies[m], &tenant)?;
            judge(&reply, &s.expected[m])?;
            Ok((reply.latency.as_secs_f64() * 1e3, 1))
        },
    )?;
    end_to_end(&mut out, &m, "request");
    Ok(out)
}

/// Rounds 1 to `VISITS` of the request sequence. Each request goes once
/// to the set-up daemon (untraced), once to a second daemon inside a
/// `serve.request` span whose children are the queue wait and run time
/// the response reports, and is then replayed in-process — parse and the
/// cached per-item protocol against a cache of the replay's own — inside
/// a `serve.replay` span.
fn traced(s: &Setup, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let traced_daemon = Daemon::warm(&s.bodies, &s.expected, "t", out)?;
    let replay_cache = ValidationCache::new();
    let units = DISTINCT * VISITS;
    let mut tr = Tracer::default();
    let mut counts = Counts::new();
    let mut untraced = Duration::ZERO;
    let mut requests_ns = 0;
    // Round 0 warms the replay cache as it warmed the daemons; it is
    // neither timed nor traced.
    for (m, body) in s.bodies.iter().enumerate() {
        let ns = format!("t{}", tenant(m, 0));
        let module = parse_module(body).expect("corpus module parses");
        let ctx = CacheCtx {
            cache: &replay_cache,
            namespace: &ns,
        };
        replay_pipeline(
            &module,
            &live_telemetry(),
            Some(&ctx),
            &mut Tracer::default(),
            &mut Counts::new(),
        );
    }
    for i in 0..units {
        let (m, tenant) = request(i, seed);
        let traced_tenant = format!("t{tenant}");
        out.attempted += 1;
        let mut result = post(&s.daemon.addr, &s.bodies[m], &tenant).and_then(|r| {
            untraced += r.latency;
            judge(&r, &s.expected[m])
        });

        let req = tr.enter("serve.request");
        let reply = post(&traced_daemon.addr, &s.bodies[m], &traced_tenant);
        tr.exit(req);
        let (start, end) = tr.bounds(req);
        requests_ns += end - start;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.fail(format!("request {i}: {e}"));
                continue;
            }
        };
        result = result.and(judge(&reply, &s.expected[m]));
        if reply.status == 429 {
            bump(&mut counts, "serve.refused", 1);
        }
        let warm = reply.misses == 0;
        let run = if warm {
            "serve.run.warm"
        } else {
            "serve.run.cold"
        };
        let run_start = tr.record(run, req, end, reply.run_us * 1000);
        tr.record(
            "serve.queue_wait",
            req,
            run_start,
            reply.queue_wait_us * 1000,
        );
        bump(&mut counts, "cache.lookups", reply.hits + reply.misses);
        bump(&mut counts, "cache.hits", reply.hits);
        bump(
            &mut counts,
            if warm {
                "serve.requests.warm"
            } else {
                "serve.requests.cold"
            },
            1,
        );

        let tel = live_telemetry();
        let mut own = Counts::new();
        let root = tr.enter("serve.replay");
        let module = tr.time("ir.parse", || {
            let module = parse_module(&s.bodies[m]).expect("corpus module parses");
            verify_module(&module).expect("corpus module verifies");
            module
        });
        let ctx = CacheCtx {
            cache: &replay_cache,
            namespace: &traced_tenant,
        };
        let (lines, _) = replay_pipeline(&module, &tel, Some(&ctx), &mut tr, &mut own);
        tr.exit(root);
        // The replay must reproduce the served lines and cache outcomes.
        if lines != s.expected[m] {
            result = result.and(Err("replayed lines differ".into()));
        }
        let (hits, lookups) = (own.remove("cache.hits"), own.remove("cache.lookups"));
        if (hits.unwrap_or(0), lookups.unwrap_or(0)) != (reply.hits, reply.hits + reply.misses) {
            result = result.and(Err(
                "replayed cache outcomes differ from the daemon's".into()
            ));
        }
        for (k, v) in own {
            bump(&mut counts, k, v);
        }
        if let Err(e) = result {
            out.failed += 1;
            out.fail(format!("request {i}: {e}"));
        }
    }
    drop(traced_daemon);
    per_layer(out, &tr, &counts, units as u64, untraced, requests_ns);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cold_visit_follows_a_warm_one() {
        let mut cold_visits = [0; DISTINCT];
        for seed in [0, 7, 1003] {
            cold_visits.fill(0);
            for round in 1..=VISITS {
                let order = round_order(round, seed);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..DISTINCT).collect::<Vec<_>>());
                let cold: Vec<bool> = order
                    .iter()
                    .map(|&m| tenant(m, round) != tenant(m, round - 1))
                    .collect();
                assert!(!cold[0], "a round starts warm");
                assert!(cold.windows(2).all(|w| !(w[0] && w[1])));
                assert_eq!(cold.iter().filter(|&&c| c).count(), DISTINCT / VISITS);
                for (&m, &c) in order.iter().zip(&cold) {
                    cold_visits[m] += usize::from(c);
                }
            }
            assert!(cold_visits.iter().all(|&n| n == 1), "each module cold once");
        }
    }
}
