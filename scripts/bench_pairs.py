"""Alternated parent/change benchmark pairs, written as BENCH_<pr>.json.

Usage, from the root of a git checkout:

    python3 scripts/bench_pairs.py PARENT CHANGE PR WORKLOADS SEEDS
    python3 scripts/bench_pairs.py 79f66a5 HEAD 32 flow,solitary,probes 7,11

Both commits are exported with `git archive` into temporary directories,
removed on exit.  For each workload and seed, PAIRS pairs of runs of the
unchanged `bench/run.py --workload W --seed S --seconds 10`, untraced, one
run per commit, the parent first in odd pairs and the change first in even
ones; then the Tier-1 suite twice per commit, alternated, with per-test
durations.  The file holds every run's result, digest lines and samples,
both machine records, and per workload, seed and metric each side's median
and quartiles over its runs, the pairs the change wins and the verdict of
summarize.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SECONDS = 10
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")  # every one lower-is-better
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=0", "-p", "no:cacheprovider"]


def summarize(parent: list[float], change: list[float]) -> dict:
    """Compare one lower-is-better metric over pairs, parent[i] and change[i]
    being pair i's two runs: each side's median and quartiles, the pairs
    the change wins (ties count for neither) and whether it improves: it
    wins at least nine tenths of the pairs and the medians differ by more
    than the parent's interquartile range."""

    def spread(values):
        q1, _, q3 = statistics.quantiles(values, n=4)
        return {"median": statistics.median(values), "q1": q1, "q3": q3,
                "min": min(values), "max": max(values)}

    p, c = spread(parent), spread(change)
    wins = sum(b < a for a, b in zip(parent, change, strict=True))
    improves = wins >= 0.9 * len(parent) and p["median"] - c["median"] > p["q3"] - p["q1"]
    return {"parent": p, "change": c, "pairs": len(parent), "wins": wins, "improves": improves}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(commit: str, into: str) -> None:
    """The committed tree of commit, unpacked into the directory into."""
    archive = os.path.join(into, "tree.tar")
    _git("archive", "--output", archive, commit)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    os.remove(archive)


def _bench(checkout: str, workload: str, seed: int) -> dict:
    """One run of the checkout's bench/run.py: its result, digest lines,
    machine record and samples."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS)]
    out = subprocess.run(cmd, cwd=checkout, env=env, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    run = {"result": json.loads(out[-1]), "digest": [], "samples": {}}
    for line in out:
        head, _, rest = line.partition(" ")
        if head == "machine":
            run["machine"] = json.loads(rest)
        elif head == "digest":
            run["digest"].append(rest)
        elif head in METRICS and " samples " in line:
            run["samples"][head] = [float(v) for v in line.split(" samples ")[1].split()]
    return run


def _tier1(checkout: str) -> dict:
    """One Tier-1 run: wall time, pytest's own time, criterion 06's time
    (setup, call and teardown), counts and the failed tests."""
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", lines[-1])}
    crit06 = sum(float(line.split("s", 1)[0]) for line in lines
                 if re.match(r"[\d.]+s (setup|call|teardown) .*test_criterion_06", line))
    return {
        "wall_s": round(wall, 2),
        "pytest_s": float(re.search(r" in ([\d.]+)s", lines[-1]).group(1)),
        "criterion_06_s": round(crit06, 2),
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
        "failed_tests": sorted(line.split()[1] for line in lines if line.startswith("FAILED ")),
    }


def _rounded(summary: dict) -> dict:
    return {k: ({s: round(v, 4) for s, v in summary[k].items()} if k in ("parent", "change")
                else summary[k]) for k in summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("pr", type=int)
    parser.add_argument("workloads", type=lambda s: s.split(","))
    parser.add_argument("seeds", type=lambda s: [int(v) for v in s.split(",")])
    args = parser.parse_args(argv)
    commits = {side: _git("rev-parse", "--verify", getattr(args, side) + "^{commit}")
               for side in ("parent", "change")}
    # SIGTERM exits through the finally below, which removes the checkouts
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        checkouts = {}
        for side, commit in commits.items():
            checkouts[side] = os.path.join(work, side)
            os.mkdir(checkouts[side])
            _export(commit, checkouts[side])
        runs, machine, summary = [], {}, {}
        for workload in args.workloads:
            for seed in args.seeds:
                for pair in range(1, PAIRS + 1):
                    order = ("parent", "change") if pair % 2 else ("change", "parent")
                    for side in order:
                        run = _bench(checkouts[side], workload, seed)
                        machine.setdefault(side, run.pop("machine"))
                        runs.append({"workload": workload, "seed": seed, "commit": side,
                                     "pair": pair, "first_in_pair": side == order[0], **run})
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"wall_s {run['result']['metrics']['wall_s']['value']:.4f}",
                              file=sys.stderr)
                mine = [r for r in runs if r["workload"] == workload and r["seed"] == seed]
                value = {side: {m: [r["result"]["metrics"][m]["value"] for r in mine
                                    if r["commit"] == side] for m in METRICS}
                         for side in commits}
                entry = {m: _rounded(summarize(value["parent"][m], value["change"][m]))
                         for m in METRICS}
                entry["all_correct"] = all(r["result"]["correct"] for r in mine)
                entry["digests_equal"] = len({tuple(r["digest"]) for r in mine}) == 1
                summary.setdefault(workload, {})[f"seed {seed}"] = entry
        tier1 = {"command": "PYTHONPATH=src " + " ".join(["python3", *TIER1[1:]]),
                 "order": "parent, change, parent, change"}
        for side in ("parent", "change", "parent", "change"):
            t = _tier1(checkouts[side])
            times = tier1.setdefault(side, {"wall_s": [], "pytest_s": [], "criterion_06_s": []})
            for k in ("wall_s", "pytest_s", "criterion_06_s"):
                times[k].append(t[k])
            times.update(passed=t["passed"], failed=t["failed"],
                         collected=t["passed"] + t["failed"], failed_tests=t["failed_tests"])
        tier1["failed"] = sorted(set(tier1["parent"]["failed_tests"])
                                 | set(tier1["change"]["failed_tests"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    improved = [f"{workload} {seed}: {m}" for workload, seeds in summary.items()
                for seed, entry in seeds.items() for m in METRICS if entry[m]["improves"]]
    doc = {
        "pr": args.pr,
        "claim": improved or None,
        "what": (f"{PAIRS} alternated parent/change pairs per workload and seed of the "
                 "unchanged harness, untraced; claim lists each metric whose change wins at "
                 "least nine tenths of the pairs with a median gap wider than the parent's "
                 "interquartile range."),
        "command": (f"python3 bench/run.py --workload {{{','.join(args.workloads)}}} "
                    f"--seed {{{','.join(map(str, args.seeds))}}} --seconds {SECONDS}"),
        "commits": commits,
        "machine": machine,
        "pairs": "odd pairs run the parent first, even pairs the change first",
        "summary": summary,
        "tier1": tier1,
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
