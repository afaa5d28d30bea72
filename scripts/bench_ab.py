#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark: the working tree against a
base revision.

    python3 scripts/bench_ab.py BASE [--claim WORKLOAD/METRIC]

BASE is any git revision (a commit, `HEAD`, `origin/main`). The script
checks BASE out into a temporary `git worktree`, builds perfbench there
and in the working tree, each from its own root (so each side reads its
own `.cargo/config.toml`) into its own target directory, and then runs
PAIRS pairs of every workload in BENCHMARK.json, RUN_SECONDS each, at
seeds 1..PAIRS with `--trace 0`, alternating which side runs first. For
each workload it prints every end-to-end metric's two medians, each
side's quartiles as shares of its median, the change, the pairs the
working tree read worse and the metric's bound. A metric is marked
`unresolved` when BASE's quartiles lie further apart than the bound, unless
every working-tree run read better than every BASE run: the runs cannot
then tell a change the size of the bound from the host's spread.

It exits 1 when
  * any run exits non-zero or reports `correct: false`, or
  * a metric's working-tree median is worse than BASE's by more than its
    bound, and the working tree read worse in at least PAIRS_WORSE of the
    PAIRS pairs.
The pair count is what absorbs the host: one slow spell can halve one
run's req/s or stretch one run's set-up time past the bound, and a drift
of a few per cent can flip most pairs, but neither does both.

With --claim WORKLOAD/METRIC (an end-to-end metric), the gate is followed
by the check of a claimed gain: CLAIM_PAIRS more alternating pairs of that
workload, at BENCHMARK.json's `run_seconds`, on seeds CLAIM_SEEDS (held
out from the gate's). It prints each side's median and quartiles and the
pairs the working tree won, and also exits 1 unless the working tree won
at least CLAIM_WINS of the pairs and the median of the per-pair changes
beats zero by more than the interquartile range of those changes. Each
change is taken within its pair, so a drift of the host's speed across
the set, which moves both runs of a pair alike, cancels out of it instead
of widening BASE's spread. The rule this replaced (the gap between the
two medians against BASE's interquartile range) is printed beside it.
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
CLAIM_PAIRS = 10
CLAIM_SEEDS = range(11, 11 + CLAIM_PAIRS)
CLAIM_WINS = 9


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

    def run(self, command, workload, seed, seconds=RUN_SECONDS):
        """The run's metric values, or None when it failed."""
        args = ["--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
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


def quartiles(values):
    """The median of `values` and its quartiles as shares of it."""
    if len(values) < 2:
        return values[0], 0.0, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, change(med, q1), change(med, q3)


def compare(workload, metrics, runs):
    """Prints the workload's verdict table; returns the failing metrics."""
    print(f"\n{workload}: {PAIRS} pairs of {RUN_SECONDS} s")
    print(f"  {'metric':16} {'base':>12} {'quartiles':>14} {'head':>12} "
          f"{'quartiles':>14} {'change':>8} {'worse':>6} {'bound':>6}")
    failed = []
    # A pair with a failed run is left out; the failed run fails the gate.
    pairs = [(b, h) for b, h in zip(runs["base"], runs["head"]) if b and h]
    for m in metrics if pairs else []:
        name = m["name"]
        base, b_q1, b_q3 = quartiles([b[name] for b, _ in pairs])
        head, h_q1, h_q3 = quartiles([h[name] for _, h in pairs])
        n_worse = sum(worse_by(m, b[name], h[name]) > 0 for b, h in pairs)
        fail = worse_by(m, base, head) > m["bound"] and n_worse >= PAIRS_WORSE
        all_better = all(worse_by(m, b[name], h[name]) < 0
                         for b, _ in pairs for _, h in pairs)
        unresolved = b_q3 - b_q1 > m["bound"] and not all_better
        print(f"  {name:16} {base:12.6g} {b_q1:+7.1%}/{b_q3:+6.1%} {head:12.6g} "
              f"{h_q1:+7.1%}/{h_q3:+6.1%} {change(base, head):+8.1%} "
              f"{n_worse:>3}/{len(pairs)} {m['bound']:6.0%}"
              f"{'  FAIL' if fail else ''}{'  unresolved' if unresolved else ''}")
        if fail:
            failed.append(name)
    return failed


def alternate(sides, command, workload, seeds, seconds, failures):
    """Runs one pair per seed, alternating which side runs first; returns
    each side's runs (None for a failed one) and records the failures."""
    runs = {"base": [], "head": []}
    for i, seed in enumerate(seeds):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for name in order:
            values = sides[name].run(command, workload, seed, seconds)
            runs[name].append(values)
            if values is None:
                failures.append(f"{workload} seed {seed} {name}: run failed")
            else:
                print(f"  {workload} seed {seed} {name}: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    return runs


def check_claim(workload, metric, runs, seconds):
    """Prints the claim's verdict; returns whether the gain is shown."""
    name = metric["name"]
    pairs = [(b[name], h[name]) for b, h in zip(runs["base"], runs["head"]) if b and h]
    print(f"\nclaim {workload}/{name}: {len(pairs)} pairs of {seconds} s, "
          f"seeds {CLAIM_SEEDS.start}-{CLAIM_SEEDS.stop - 1}")
    if len(pairs) < CLAIM_WINS:
        print("  too few complete pairs")
        return False
    quartiles = {}
    for i, side in enumerate(["base", "head"]):
        q1, med, q3 = statistics.quantiles([p[i] for p in pairs], n=4, method="inclusive")
        quartiles[side] = (q1, med, q3)
        print(f"  {side}: median {med:.6g}, quartiles {q1:.6g}-{q3:.6g}")
    changes = [worse_by(metric, b, h) for b, h in pairs]
    wins = sum(c < 0 for c in changes)
    c_q1, c_med, c_q3 = statistics.quantiles(changes, n=4, method="inclusive")
    paired = -c_med > c_q3 - c_q1
    (b_q1, base, b_q3), head = quartiles["base"], quartiles["head"][1]
    gain = -worse_by(metric, base, head) * abs(base)
    unpaired = gain > b_q3 - b_q1
    shown = wins >= CLAIM_WINS and paired
    print(f"  head won {wins}/{len(pairs)} pairs (needs {CLAIM_WINS}); the per-pair "
          f"changes have median {-c_med:+.1%} in head's favour against their IQR "
          f"{c_q3 - c_q1:.1%}{'' if paired else ' (not shown)'}")
    print(f"  unpaired rule, not applied: the medians differ by {gain:.6g} in head's "
          f"favour against base's IQR {b_q3 - b_q1:.6g}{'' if unpaired else ' (not shown)'}")
    if not shown:
        print("  FAIL")
    return shown


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision to compare the working tree against")
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC",
                    help="also check a claimed gain on one end-to-end metric")
    args = ap.parse_args()
    rev = args.base
    started = time.monotonic()
    root = git("rev-parse", "--show-toplevel")
    os.chdir(root)
    base_commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    claim = None
    if args.claim:
        workload, _, name = args.claim.partition("/")
        metric = next((m for m in bench["end_to_end"] if m["name"] == name), None)
        if workload not in {w["name"] for w in bench["workloads"]} or metric is None:
            ap.error(f"--claim {args.claim}: not a BENCHMARK.json workload/end-to-end metric")
        claim = (workload, metric)
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
            runs = alternate(sides, bench["command"], workload, range(1, PAIRS + 1),
                             RUN_SECONDS, failures)
            for metric in compare(workload, bench["end_to_end"], runs):
                failures.append(f"{workload} {metric}")
        if claim:
            workload, metric = claim
            seconds = bench["run_seconds"]
            runs = alternate(sides, bench["command"], workload, CLAIM_SEEDS, seconds, failures)
            if not check_claim(workload, metric, runs, seconds):
                failures.append(f"claim {workload}/{metric['name']} not shown")
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
