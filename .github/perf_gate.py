#!/usr/bin/env python3
"""The perf gate: a short interleaved perfbench A/B of this checkout (the
head) against a base revision, judged with BENCHMARK.json's bounds.

    python3 .github/perf_gate.py BASE_REV

It builds perfbench in this checkout and in a detached git worktree of
BASE_REV (removed on exit), each with
`cargo build --release --locked --manifest-path <tree>/perfbench/Cargo.toml`.
Then, for each workload in BENCHMARK.json:

* PAIRS pairs of untraced runs (`--seconds RUN_SECONDS --trace 0`). Pair p
  runs seed p on both sides, the pairs alternate which side goes first, and
  each run starts from its own tree's root. Every run must exit 0 with
  `"correct": true`. Each `end_to_end` metric fails if the head's median is
  worse than the base's by more than the metric's `bound`, in its `better`
  direction.
* One traced run per side (`--seed TRACE_SEED --trace 1`). Every `per_layer`
  metric whose unit is `count` or `bytes` must be equal on both sides.

If perfbench/ or BENCHMARK.json differ between the base and this checkout,
there is no like-for-like A/B: only the head's traced runs are made, and
they must be correct.

The runs are much shorter than BENCHMARK.json's `run_seconds`, so the gate
catches regressions past the bounds, not small ones. Exits 0 when every
check holds, 1 when one fails, 2 on bad usage.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

PAIRS = 3
RUN_SECONDS = 5
TRACE_SEED = 1
# A run that hangs (a daemon that never answers) fails instead of stalling CI.
RUN_TIMEOUT_S = 600
COUNT_UNITS = ("count", "bytes")
BENCHMARK_PATHS = ("perfbench", "BENCHMARK.json")

HEAD_TREE = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=HEAD_TREE, check=True, capture_output=True, text=True
    ).stdout.strip()


# One perfbench run: its metric values, its facts and, if it failed, why.
Run = namedtuple("Run", "metrics facts problem")


class Side:
    def __init__(self, name, tree):
        self.name = name
        self.tree = tree
        self.exe = tree / "perfbench" / "target" / "release" / "perfbench"

    def build(self):
        print(f"building perfbench for the {self.name} in {self.tree}", flush=True)
        # Each tree builds into its own perfbench/target.
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("CARGO_TARGET_DIR", "CARGO_BUILD_TARGET_DIR")
        }
        manifest = self.tree / "perfbench" / "Cargo.toml"
        subprocess.run(
            ["cargo", "build", "--release", "--locked", "--manifest-path", str(manifest)],
            cwd=self.tree,
            env=env,
            check=True,
        )

    def run(self, workload, seed, traced):
        args = ["--workload", workload, "--seed", str(seed)]
        args += ["--trace", "1"] if traced else ["--seconds", str(RUN_SECONDS), "--trace", "0"]
        try:
            p = subprocess.run(
                [str(self.exe), *args],
                cwd=self.tree,
                capture_output=True,
                text=True,
                timeout=RUN_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return Run({}, {}, f"timed out after {RUN_TIMEOUT_S} s")
        lines = p.stdout.splitlines()
        result, facts = {}, {}
        for line in lines[-2:]:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if "facts" in doc:
                facts = doc["facts"]
            else:
                result = doc
        metrics = {k: v.get("value") for k, v in result.get("metrics", {}).items()}
        problem = None
        if p.returncode != 0:
            problem = f"exit {p.returncode}"
        elif result.get("correct") is not True:
            problem = f"correct: {json.dumps(result.get('correct'))}"
        if problem:
            tail = p.stderr.strip().splitlines()[-5:]
            problem += "".join(f"\n      {line}" for line in tail)
        return Run(metrics, facts, problem)


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def listing(values):
    return " ".join("-" if v is None else f"{v:.4g}" for v in values)


def judge_end_to_end(metric, base_runs, head_runs):
    """Print one end-to-end metric's line; returns a failure or None."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    base_values = [r.metrics.get(name) for r in base_runs]
    head_values = [r.metrics.get(name) for r in head_runs]
    b, h = median(base_values), median(head_values)
    if b is None or h is None:
        if b is None and h is None:
            print(f"  {name:<16} no value on either side")
            return None
        values = f"base {listing([b])}, head {listing([h])}"
        print(f"  {name:<16} {values}  MISSING")
        return f"{name}: no value on one side ({values})"
    if b:
        change = h / b - 1
    else:
        change = 0.0 if h == b else float("inf") if h > b else float("-inf")
    worse = change if better == "lower" else -change
    ok = worse <= bound
    print(
        f"  {name:<16} base {b:>12.4f}  head {h:>12.4f}  change {change:>+7.1%}"
        f"  bound {bound:>4.0%} ({better} is better)  {'ok' if ok else 'WORSE'}"
    )
    print(f"      runs: base {listing(base_values)} | head {listing(head_values)}")
    return None if ok else f"{name}: {b:.4f} -> {h:.4f} ({change:+.1%}, bound {bound:.0%})"


def describe(side, label, run):
    f = run.facts
    status = f"FAILED: {run.problem}" if run.problem else "correct"
    cores = f"nproc {f.get('nproc', '?')}, effective_cores {f.get('effective_cores', '?')}"
    print(f"  {label} {side.name}: {status} ({cores})", flush=True)


def traced_runs(sides, workload, failures):
    runs = {}
    for side in sides:
        run = side.run(workload, TRACE_SEED, traced=True)
        describe(side, f"{workload} traced seed {TRACE_SEED}", run)
        print(f"    facts: {json.dumps(run.facts, sort_keys=True)}")
        if run.problem:
            failures.append(f"{workload} traced {side.name}: {run.problem}")
        runs[side.name] = run
    return runs


def ab(base, head, bench, failures):
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in COUNT_UNITS]
    for workload in (w["name"] for w in bench["workloads"]):
        print(f"\n{workload}: {PAIRS} pairs of {RUN_SECONDS} s untraced runs", flush=True)
        samples = {"base": [], "head": []}
        for p in range(1, PAIRS + 1):
            for side in (base, head) if p % 2 else (head, base):
                run = side.run(workload, p, traced=False)
                describe(side, f"{workload} seed {p}", run)
                if run.problem:
                    failures.append(f"{workload} seed {p} {side.name}: {run.problem}")
                samples[side.name].append(run)
        for metric in bench["end_to_end"]:
            failure = judge_end_to_end(metric, samples["base"], samples["head"])
            if failure:
                failures.append(f"{workload} {failure}")

        print(f"{workload}: one traced run per side, {len(counts)} counts must be equal")
        runs = traced_runs((base, head), workload, failures)
        mismatched = 0
        for name in counts:
            b, h = runs["base"].metrics.get(name), runs["head"].metrics.get(name)
            if b != h:
                mismatched += 1
                print(f"  {name:<26} base {b}  head {h}  MISMATCH")
                failures.append(f"{workload} {name}: base {b}, head {h}")
        if not mismatched:
            print(f"  all {len(counts)} counts equal")


def benchmark_changed(base_sha):
    diff = ["git", "diff", "--quiet", base_sha, "--", *BENCHMARK_PATHS]
    return subprocess.run(diff, cwd=HEAD_TREE).returncode != 0


def main(argv):
    if len(argv) != 2 or argv[1].startswith("-"):
        print("usage: python3 .github/perf_gate.py BASE_REV", file=sys.stderr)
        return 2
    try:
        base_sha = git("rev-parse", "--verify", "--quiet", f"{argv[1]}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"perf gate: {argv[1]} is not a commit", file=sys.stderr)
        return 2
    bench = json.loads((HEAD_TREE / "BENCHMARK.json").read_text())
    dirty = git("status", "--porcelain", "--untracked-files=no")
    print(f"base: {base_sha}")
    print(f"head: {git('rev-parse', 'HEAD')}{' with uncommitted changes' if dirty else ''}")
    failures = []
    head = Side("head", HEAD_TREE)

    if benchmark_changed(base_sha):
        print(
            "perfbench/ or BENCHMARK.json differ from the base, so there is no"
            " like-for-like A/B; a benchmark change is measured after it lands."
            " Checking that the head's traced runs are correct."
        )
        head.build()
        for w in bench["workloads"]:
            traced_runs((head,), w["name"], failures)
    else:
        tmp = Path(tempfile.mkdtemp(prefix="perf-gate-"))
        base = Side("base", tmp / "base")
        try:
            git("worktree", "add", "--detach", str(base.tree), base_sha)
            base.build()
            head.build()
            ab(base, head, bench, failures)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(base.tree)],
                cwd=HEAD_TREE,
                capture_output=True,
            )
            shutil.rmtree(tmp, ignore_errors=True)

    if failures:
        print(f"\nperf gate: FAIL ({len(failures)})")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nperf gate: pass")
    return 0


if __name__ == "__main__":
    # Turn a cancelled job's SIGTERM into an exit that removes the worktree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main(sys.argv))
    except subprocess.CalledProcessError as e:
        print(f"perf gate: FAIL: {' '.join(map(str, e.cmd))} exited {e.returncode}")
        if e.stderr:
            print(e.stderr.strip())
        sys.exit(1)
