"""fbbmlab benchmark: one closed-loop client that runs a workload's scenario
configs in fresh child interpreters and reports end-to-end or per-layer
metrics.

Usage (from the root of a checkout; the program is imported from src/):

    python3 bench/run.py --workload flow --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload flow --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload probes --seed 1 --seconds 1 --trace 0 --smoke

Each repetition is a new interpreter (bench/child.py) that imports
fbbmlab.cli, loads the configs and runs them in-process through
`fbbmlab.cli.main(["run", cfg, "--out", dir])` with the default
`--threads 1`.  Repetitions run one after another until --seconds have
passed, and at least MIN_REPS times.  Every scenario run is gated: exit
code 0, no FAIL check in its manifest, summary.json valid against its
schema, and outputs byte-identical to the first repetition's.

--trace 0 reports the end-to-end metrics, medians over the run.
--trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics of the fastest traced one
plus the tracing overhead.  Lines before the last one are for people:
machine record, output digests, failures and every sample.  The last
line is one JSON object: correct, attempted, failed and metrics.
README.md has the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")

MIN_REPS = 2  # the least that can show two runs disagree
SETUP_REPS = 5  # setup-only interpreters per run, on top of the repetitions
DEADLINE_S = 170.0  # the whole benchmark ends within this
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(ROOT, ".git", ref))
    if loose:
        return loose
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_sha256() -> str:
    """Digest of the program's source tree; identifies the code without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _machine(probe: dict, seed: int) -> dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, index)
        level, kind = _read(os.path.join(d, "level")), _read(os.path.join(d, "type"))
        if level and kind:
            caches[f"L{level} {kind}"] = _read(os.path.join(d, "size"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "jsonschema": probe["jsonschema"],
        "blas": probe["blas"],
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


class Runner:
    """Starts child interpreters one at a time inside a scratch directory."""

    def __init__(self, work: str, configs: list[str], deadline: float):
        self.work = work
        self.configs = configs
        self.deadline = deadline
        self.count = 0
        src = os.path.join(ROOT, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def child(self, mode: str, trace: bool = False, names: list[str] | None = None) -> dict:
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        outs = [os.path.join(self.work, tag, n) for n in names or []]
        spec = {
            "root": ROOT,
            "mode": mode,
            "trace": trace,
            "configs": self.configs,
            "outs": outs,
            "report": os.path.join(self.work, tag + ".report.json"),
        }
        spec_path = os.path.join(self.work, tag + ".spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, spec_path],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {tag} ran past the benchmark deadline") from None
        if proc.returncode != 0:
            raise BenchError(
                f"child {tag} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        with open(spec["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        if trace:
            with open(spec["report"] + ".spans.json", encoding="utf-8") as fh:
                report["layers"] = tracing.layer_metrics(json.load(fh))
        shutil.rmtree(os.path.join(self.work, tag), ignore_errors=True)
        return report


def _describe(name: str, values: list, unit: str) -> str:
    line = f"{name} [{unit}] n={len(values)} min {min(values):.6g} median {statistics.median(values):.6g}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f" quartiles {q1:.6g} {q3:.6g}"
    return line + " samples " + " ".join(f"{v:.6g}" for v in values)


def _gate_all(names: list[str], reps: list[dict]) -> tuple[int, int]:
    """Print digests and failures; return (attempted, failed) scenario runs."""
    reference: dict[str, dict] = {}
    attempted = failed = 0
    for i, rep in enumerate(reps):
        for name, gate in zip(names, rep["gates"]):
            attempted += 1
            bad = list(gate["problems"])
            bad += [f"check {c} FAIL" for c in gate["failed_checks"]]
            ref = reference.setdefault(name, gate["digests"])
            if gate["digests"] != ref:
                files = sorted(
                    f for f in set(ref) | set(gate["digests"])
                    if ref.get(f) != gate["digests"].get(f)
                )
                bad.append(f"outputs differ from repetition 0: {', '.join(files)}")
            if bad:
                failed += 1
                print(f"fail {name} repetition {i}: {'; '.join(bad)}")
    for name, digests in reference.items():
        for f, h in digests.items():
            print(f"digest {name}/{f} {h}")
    return attempted, failed


def _exact_counts_agree(traced: list[dict]) -> bool:
    ok = True
    for name, unit in tracing.METRICS:
        if unit != "count":
            continue
        values = [rep["layers"][name] for rep in traced]
        if len(set(values)) > 1:
            print(f"error: {name} differs across repetitions: {values}")
            ok = False
    return ok


def bench(args) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    cfgs = workloads.configs(args.workload, args.seed, smoke=args.smoke)
    names = list(cfgs)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        paths = []
        for name, cfg in cfgs.items():
            paths.append(os.path.join(work, f"{name}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=1)
        runner = Runner(work, paths, deadline)

        # the probe also compiles the program's bytecode before any timing
        probe = runner.child("probe")
        print("machine " + json.dumps(_machine(probe, args.seed), sort_keys=True))
        setup = [] if args.trace else [
            runner.child("setup")["setup_s"] for _ in range(SETUP_REPS)
        ]

        plain: list[dict] = []
        traced: list[dict] = []
        longest = 0.0
        t0 = time.monotonic()
        while True:
            short = len(plain) < MIN_REPS or (args.trace and len(traced) < MIN_REPS)
            if not short and time.monotonic() - t0 >= args.seconds:
                break
            if time.monotonic() + 1.5 * longest > deadline:
                if short:
                    raise BenchError("too slow to finish the least repetitions in time")
                break
            trace_next = bool(args.trace) and len(traced) < len(plain)
            r0 = time.monotonic()
            rep = runner.child("run", trace=trace_next, names=names)
            longest = max(longest, time.monotonic() - r0)
            (traced if trace_next else plain).append(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it, or it is gone

    reps = plain + traced
    print(
        f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
        f"{len(traced)} traced repetitions of {len(names)} scenario runs ({', '.join(names)})"
    )
    attempted, failed = _gate_all(names, reps)
    correct = failed == 0

    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": setup + [r["setup_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    for name, unit in END_TO_END:
        print(_describe(name, samples[name], unit))
    print(f"fail_rate [frac] {failed / attempted:.6g} ({failed} of {attempted} scenario runs failed)")

    if not args.trace:
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END
        }
    else:
        correct = _exact_counts_agree(traced) and correct
        # one repetition's layers, so that its self times add up
        best = min(traced, key=lambda r: r["wall_s"])
        layer = dict(best["layers"])
        layer["trace.overhead_frac"] = best["wall_s"] / min(samples["wall_s"]) - 1.0
        units = dict(tracing.METRICS, **{"trace.overhead_frac": "frac"})
        for name, unit in units.items():
            print(f"{name} [{unit}] {layer[name]:.6g}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _terminate(signum, frame):
    # turns SIGTERM into SystemExit so the running child is killed and reaped
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = bench(args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
