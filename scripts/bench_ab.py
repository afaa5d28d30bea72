#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark: the working tree against a
base revision.

    python3 scripts/bench_ab.py BASE

BASE is any git revision (a commit, `HEAD`, `origin/main`). The script
checks BASE out into a temporary `git worktree`, builds perfbench there
and in the working tree, each from its own root (so each side reads its
own `.cargo/config.toml`) into its own target directory, and then runs
PAIRS pairs of every workload in BENCHMARK.json, RUN_SECONDS each, at
seeds 1..PAIRS with `--trace 0`, alternating which side runs first. For
each workload it prints every end-to-end metric's two medians, the
change, the pairs the working tree read worse and the metric's bound.

It exits 1 when
  * any run exits non-zero or reports `correct: false`, or
  * a metric's working-tree median is worse than BASE's by more than its
    bound, and the working tree read worse in at least PAIRS_WORSE of the
    PAIRS pairs.
The pair count is what absorbs the host: one slow spell can halve one
run's req/s or stretch one run's set-up time past the bound, and a drift
of a few per cent can flip most pairs, but neither does both.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 5
RUN_SECONDS = 10
PAIRS_WORSE = math.ceil(0.8 * PAIRS)


class Side:
    """One tree: where it is built and run from, and its build environment."""

    def __init__(self, name, root):
        self.name = name
        self.root = root
        # Each side gets its own target directory, even when the caller's
        # environment points cargo at a shared one.
        self.env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, "perfbench", "target"))

    def build(self):
        print(f"building perfbench in {self.root}", flush=True)
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                        "--manifest-path", "perfbench/Cargo.toml"],
                       cwd=self.root, env=self.env, check=True)

    def run(self, command, workload, seed):
        """The run's metric values, or None when it failed."""
        args = ["--workload", workload, "--seed", str(seed),
                "--seconds", str(RUN_SECONDS), "--trace", "0"]
        out = subprocess.run(command + args, cwd=self.root, env=self.env,
                             capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {}
        if out.returncode != 0 or result.get("correct") is not True:
            print(f"  {self.name} seed {seed}: exit {out.returncode}, "
                  f"correct {result.get('correct')}")
            for line in (out.stdout + out.stderr).splitlines():
                if line.startswith("error"):
                    print(f"    {line}")
            return None
        return {name: m["value"] for name, m in result["metrics"].items()}


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def change(base, head):
    """head's change from base, as a share of base."""
    if base == head:
        return 0.0
    return (head - base) / abs(base) if base else math.inf


def worse_by(metric, base, head):
    """How much worse head is than base, as a share of base (negative when
    better)."""
    return change(base, head) * (1 if metric["better"] == "lower" else -1)


def compare(workload, metrics, runs):
    """Prints the workload's verdict table; returns the failing metrics."""
    print(f"\n{workload}: {PAIRS} pairs of {RUN_SECONDS} s")
    print(f"  {'metric':16} {'base':>12} {'head':>12} {'change':>8} "
          f"{'worse':>6} {'bound':>6}")
    failed = []
    # A pair with a failed run is left out; the failed run fails the gate.
    pairs = [(b, h) for b, h in zip(runs["base"], runs["head"]) if b and h]
    for m in metrics if pairs else []:
        name = m["name"]
        base = statistics.median(b[name] for b, _ in pairs)
        head = statistics.median(h[name] for _, h in pairs)
        n_worse = sum(worse_by(m, b[name], h[name]) > 0 for b, h in pairs)
        fail = worse_by(m, base, head) > m["bound"] and n_worse >= PAIRS_WORSE
        print(f"  {name:16} {base:12.6g} {head:12.6g} {change(base, head):+8.1%} "
              f"{n_worse:>3}/{len(pairs)} {m['bound']:6.0%}{'  FAIL' if fail else ''}")
        if fail:
            failed.append(name)
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision to compare the working tree against")
    rev = ap.parse_args().base
    started = time.monotonic()
    root = git("rev-parse", "--show-toplevel")
    os.chdir(root)
    base_commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    print(f"base {rev} = {base_commit}; head = working tree of {git('rev-parse', 'HEAD')}")

    scratch = tempfile.mkdtemp(prefix="bench_ab-")
    worktree = os.path.join(scratch, "base")
    try:
        git("worktree", "add", "--detach", worktree, base_commit)
        sides = {"base": Side("base", worktree), "head": Side("head", root)}
        for side in sides.values():
            side.build()
        failures = []
        for w in bench["workloads"]:
            workload = w["name"]
            runs = {"base": [], "head": []}
            for seed in range(1, PAIRS + 1):
                order = ["base", "head"] if seed % 2 else ["head", "base"]
                for name in order:
                    values = sides[name].run(bench["command"], workload, seed)
                    runs[name].append(values)
                    if values is None:
                        failures.append(f"{workload} seed {seed} {name}: run failed")
                    else:
                        print(f"  {workload} seed {seed} {name}: " + ", ".join(
                            f"{k}={v:.6g}" for k, v in values.items()), flush=True)
            for metric in compare(workload, bench["end_to_end"], runs):
                failures.append(f"{workload} {metric}")
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree],
                       capture_output=True, check=False)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], check=False)

    print(f"\nwall time {time.monotonic() - started:.0f} s")
    if failures:
        print("FAIL: " + "; ".join(failures))
        sys.exit(1)
    print(f"PASS: no end-to-end metric worse than its bound in {PAIRS_WORSE} of {PAIRS} pairs")


if __name__ == "__main__":
    main()
