"""Span tracing from outside the program, and the per-layer metrics made
from the spans.

`Tracer.install` replaces each traced public function, in every fbbmlab
module namespace that holds it, with a wrapper that records a span: its
group, start, end, parent span, whether an exception escaped, and a few
sizes taken from the arguments and the result.  Calls made while a span
of the same group is open fold into that span, so `calls` counts entries
into a group, not its internal calls.  Spans stay in memory until `dump`.

`layer_metrics` turns one dumped trace into the per-layer metrics.  A
span's self time is its duration minus the durations of its direct
children; spans nest strictly because the program runs on one thread.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

# group -> (module that defines the functions, function names)
GROUPS = {
    "spectral.transform": ("fbbmlab.spectral", ("forward", "inverse")),
    "spectral.operator": (
        "fbbmlab.spectral",
        ("apply_multiplier", "op_a", "deriv", "hilbert", "frac_deriv",
         "group_propagate", "translate"),
    ),
    "evolution.evolve": ("fbbmlab.evolution", ("evolve",)),
    "evolution.diagnostics": ("fbbmlab.evolution", ("diagnostics_series",)),
    "ground_state.petviashvili": ("fbbmlab.ground_state", ("petviashvili",)),
    "ground_state.post": (
        "fbbmlab.ground_state",
        ("normalized_residual", "traveling_wave_residual", "scale_to_speed",
         "fit_tail_exponent"),
    ),
    "weighted.stein": ("fbbmlab.weighted", ("stein_asymptotics", "stein_pointwise")),
    "weighted.norm": ("fbbmlab.weighted", ("weighted_norm",)),
    "estimates.ratio": (
        "fbbmlab.estimates",
        ("commutator_a_ratio", "hilbert_commutator_ratio", "frac_commutator_ratio"),
    ),
    "estimates.corpus": (
        "fbbmlab.estimates",
        ("make_corpus", "resample_corpus", "corpus_ratios", "ratio_report"),
    ),
    "estimates.growth": ("fbbmlab.estimates", ("group_weighted_growth",)),
    "estimates.ucp": ("fbbmlab.estimates", ("ucp_residual",)),
    "config.load": ("fbbmlab.config", ("load_config",)),
    "scenarios.runner": ("fbbmlab.scenarios", ("run_scenario",)),
    "cli.write": (
        "fbbmlab.cli",
        ("write_csv", "write_summary", "write_plotdata", "write_manifest"),
    ),
    # the schema checks fbbmlab.cli makes through `jsonschema.validate`
    "cli.validate": ("jsonschema", ("validate",)),
}

LAYERS = tuple(dict.fromkeys(group.split(".")[0] for group in GROUPS))

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("spectral.transform.calls", "count"),
    ("spectral.transform.self_s", "s"),
    ("spectral.transform.ns_per_point", "ns"),
    ("spectral.fft_flops", "flop"),
    ("spectral.bytes_computed", "B"),
    ("spectral.operator.calls", "count"),
    ("spectral.operator.self_s", "s"),
    ("evolution.evolve.self_s", "s"),
    ("evolution.rk4_steps", "count"),
    ("evolution.step_us", "us"),
    ("evolution.diagnostics.self_s", "s"),
    ("evolution.snapshot_bytes", "B"),
    ("ground_state.petviashvili.self_s", "s"),
    ("ground_state.iterations", "count"),
    ("ground_state.iter_ms", "ms"),
    ("ground_state.post.self_s", "s"),
    ("weighted.stein.calls", "count"),
    ("weighted.stein.self_s", "s"),
    ("weighted.norm.calls", "count"),
    ("weighted.norm.self_s", "s"),
    ("estimates.ratio.instances", "count"),
    ("estimates.ratio.self_s", "s"),
    ("estimates.corpus.self_s", "s"),
    ("estimates.growth.self_s", "s"),
    ("estimates.ucp.self_s", "s"),
    ("config.load.self_s", "s"),
    ("scenarios.runner.self_s", "s"),
    ("cli.write.self_s", "s"),
    ("cli.write.bytes", "B"),
    ("cli.validate.self_s", "s"),
    *((f"{layer}.errors", "count") for layer in LAYERS),
)


# ------------------------------------------------------ sizes per span


def _fft_sizes(n: int, nbytes: int) -> dict:
    # 5 n log2 n is the usual operation count of a radix-2 complex FFT
    return {"points": n, "flops": 5 * n * int(math.log2(n)), "bytes": nbytes}


def _forward_sizes(args, result):
    return _fft_sizes(args[0].grid.n, args[0].values.nbytes + result.coeffs.nbytes)


def _inverse_sizes(args, result):
    return _fft_sizes(args[0].grid.n, args[0].coeffs.nbytes + result.values.nbytes)


def _evolve_sizes(args, result):
    return {"steps": args[1].steps, "snapshot_bytes": result.states.nbytes}


def _petviashvili_sizes(args, result):
    return {"iterations": result.iterations}


def _written_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


SIZES = {
    "forward": _forward_sizes,
    "inverse": _inverse_sizes,
    "evolve": _evolve_sizes,
    "petviashvili": _petviashvili_sizes,
    "write_csv": _written_bytes,
    "write_summary": _written_bytes,
    "write_plotdata": _written_bytes,
    "write_manifest": _written_bytes,
}


# ------------------------------------------------------------ recording


class Tracer:
    """Records spans of the traced functions of one process."""

    def __init__(self):
        self.groups = list(GROUPS)
        # span: [group index, start ns, end ns, parent index or -1, error, sizes]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, gi: int, sizes):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == gi:
                return fn(*args, **kwargs)
            span = [gi, clock(), 0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if sizes is not None:
                span[5] = sizes(args, result)
            return result

        return traced

    def install(self) -> None:
        """Swap every traced function for its wrapper in all loaded
        fbbmlab modules and in the modules that define them."""
        wrappers = {}
        for gi, (modname, names) in enumerate(GROUPS.values()):
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, gi, SIZES.get(name)))
        targets = [m for k, m in sys.modules.items()
                   if k == "fbbmlab" or k.startswith("fbbmlab.")]
        targets.append(sys.modules["jsonschema"])
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"groups": self.groups, "spans": self.spans}, fh)


# ----------------------------------------------------------- aggregation


def self_times(spans: list) -> list[int]:
    """Self time of each span in ns: duration minus direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metric values (METRICS order) from one dumped trace."""
    groups, spans = trace["groups"], trace["spans"]
    own = self_times(spans)
    calls = dict.fromkeys(groups, 0)
    self_ns = dict.fromkeys(groups, 0)
    incl_ns = dict.fromkeys(groups, 0)
    sizes: dict[str, dict[str, int]] = {g: {} for g in groups}
    errors = dict.fromkeys(LAYERS, 0)
    for s, t in zip(spans, own):
        g = groups[s[0]]
        calls[g] += 1
        self_ns[g] += t
        incl_ns[g] += s[2] - s[1]
        for k, v in (s[5] or {}).items():
            sizes[g][k] = sizes[g].get(k, 0) + v
        layer = g.split(".")[0]
        parent_layer = groups[spans[s[3]][0]].split(".")[0] if s[3] >= 0 else None
        if s[4] and parent_layer != layer:
            errors[layer] += 1

    def sec(g):
        return self_ns[g] / 1e9

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    tr = sizes["spectral.transform"]
    ev = sizes["evolution.evolve"]
    pv = sizes["ground_state.petviashvili"]
    m = {
        "spectral.transform.calls": calls["spectral.transform"],
        "spectral.transform.self_s": sec("spectral.transform"),
        "spectral.transform.ns_per_point": per(
            self_ns["spectral.transform"], tr.get("points", 0), 1.0),
        "spectral.fft_flops": tr.get("flops", 0),
        "spectral.bytes_computed": tr.get("bytes", 0),
        "spectral.operator.calls": calls["spectral.operator"],
        "spectral.operator.self_s": sec("spectral.operator"),
        "evolution.evolve.self_s": sec("evolution.evolve"),
        "evolution.rk4_steps": ev.get("steps", 0),
        "evolution.step_us": per(incl_ns["evolution.evolve"], ev.get("steps", 0), 1e-3),
        "evolution.diagnostics.self_s": sec("evolution.diagnostics"),
        "evolution.snapshot_bytes": ev.get("snapshot_bytes", 0),
        "ground_state.petviashvili.self_s": sec("ground_state.petviashvili"),
        "ground_state.iterations": pv.get("iterations", 0),
        "ground_state.iter_ms": per(
            incl_ns["ground_state.petviashvili"], pv.get("iterations", 0), 1e-6),
        "ground_state.post.self_s": sec("ground_state.post"),
        "weighted.stein.calls": calls["weighted.stein"],
        "weighted.stein.self_s": sec("weighted.stein"),
        "weighted.norm.calls": calls["weighted.norm"],
        "weighted.norm.self_s": sec("weighted.norm"),
        "estimates.ratio.instances": calls["estimates.ratio"],
        "estimates.ratio.self_s": sec("estimates.ratio"),
        "estimates.corpus.self_s": sec("estimates.corpus"),
        "estimates.growth.self_s": sec("estimates.growth"),
        "estimates.ucp.self_s": sec("estimates.ucp"),
        "config.load.self_s": sec("config.load"),
        "scenarios.runner.self_s": sec("scenarios.runner"),
        "cli.write.self_s": sec("cli.write"),
        "cli.write.bytes": sizes["cli.write"].get("bytes", 0),
        "cli.validate.self_s": sec("cli.validate"),
    }
    m.update({f"{layer}.errors": n for layer, n in errors.items()})
    return {name: m[name] for name, _ in METRICS}
