"""Benchmark workloads: the scenario configs each workload runs, drawn from
the benchmark seed.

The program sees only the generated config files.  Python's own `random`
draws the seeded values, so the benchmark parent needs no numpy.  Why
each workload exists, and which layers it enters and never enters, is in
README.md beside this file.
"""

from __future__ import annotations

import random

WORKLOADS = ("flow", "solitary", "probes")


def _flow(rng: random.Random, seed: int, smoke: bool) -> dict:
    # grid and step count stay fixed; only the data moves with the seed
    return {
        "evolve": {
            "scenario": "evolve",
            "alpha": 0.5,
            "n": 256 if smoke else 4096,
            "L": 100.0,
            "dt": 0.01,
            "T": 0.5 if smoke else 20.0,  # 2000 RK4 steps
            "amplitude": rng.uniform(0.5, 1.5),
            "width": 5.0,
            "center": rng.uniform(-20.0, 20.0),
            "seed": seed,
        },
        "ucp": {
            "scenario": "ucp",
            "alpha": 0.5,
            "n": 128 if smoke else 1024,
            "L": 50.0,
            "dt": 0.01,
            "T": 0.5 if smoke else 5.0,
            "k": 2,
            "mean": rng.uniform(0.25, 1.0),
            "snapshot_stride": 1,  # store every state: the write-heavy use
            "seed": seed,
        },
    }


def _solitary(seed: int, smoke: bool) -> dict:
    # no random input: the seed only lands in the config and its hash
    if smoke:
        return {
            "tail": {
                "scenario": "groundstate",
                "alpha": 0.75,
                "n": 4096,
                "L": 200.0,
                "tol": 1e-10,
                "c": 2.0,
                "seed": seed,
            },
            "wide": {
                "scenario": "groundstate",
                "alpha": 0.25,
                "n": 8192,
                "L": 2048.0,
                "tol": 1e-9,
                "seed": seed,
            },
        }
    return {
        "tail": {
            "scenario": "groundstate",
            "alpha": 0.75,
            "n": 2**15,
            "L": 1600.0,
            "tol": 1e-10,
            "window": [30.0, 120.0],
            "assert_tail": True,
            "c": 2.0,
            "seed": seed,
        },
        "wide": {
            "scenario": "groundstate",
            "alpha": 0.25,
            "n": 2**20,
            "L": 262144.0,
            "tol": 1e-9,
            "window": [2000.0, 8000.0],
            "assert_tail": True,
            "seed": seed,
        },
    }


def _probes(seed: int, smoke: bool) -> dict:
    # commutators draws its corpus from the seed; the other two are fixed
    return {
        "commutators": {
            "scenario": "commutators",
            "n": 256 if smoke else 2048,
            "L": 50.0,
            "size": 4 if smoke else 50,
            "seed": seed,
        },
        "growth": {
            "scenario": "weighted-growth",
            "n": 16384,
            "L": 1500.0,
            "t_max": 40.0,
            "t_count": 4 if smoke else 40,
            "pairs": [[0.5, 0.7], [0.5, 1.2], [0.75, 1.8]],
            "seed": seed,
        },
        "stein": {
            "scenario": "stein",
            "pairs": [[0.25, 0.5]] if smoke else [[0.25, 0.5], [0.5, 0.75], [0.25, 0.75]],
            "seed": seed,
        },
    }


def configs(workload: str, seed: int, smoke: bool = False) -> dict[str, dict]:
    """Config objects of one workload, keyed by a short run name, in run order."""
    if workload == "flow":
        return _flow(random.Random(seed), seed, smoke)
    if workload == "solitary":
        return _solitary(seed, smoke)
    if workload == "probes":
        return _probes(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}; know {', '.join(WORKLOADS)}")
