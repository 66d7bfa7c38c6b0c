"""One benchmark repetition in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

The spec names the checkout root, the config files, one output directory
per config, the mode and the report path.  Modes:

* probe: import the program and report where it was imported from and
  the library versions (the benchmark's machine record);
* setup: time importing fbbmlab.cli and loading every config;
* run: setup, then run every config through `fbbmlab.cli.main` as
  `fbbmlab run CONFIG --out DIR` would, then gate the outputs.  With
  "trace" set, the layers are traced (see tracing.py) and the spans are
  written beside the report.

The report is JSON.  Exit status is 0 when the report was written, even
if scenario runs failed: the gate results are in the report.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _gate(out: str, code, load_schema, validate) -> dict:
    """Check one scenario run: exit code, manifest checks, summary schema,
    and the digests of its deterministic outputs."""
    gate = {"code": code, "failed_checks": [], "problems": [], "digests": {}}
    if code != 0:
        gate["problems"].append(f"exit code {code}")
    try:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as e:
        gate["problems"].append(f"no readable manifest: {e}")
        return gate
    if manifest.get("error") is not None:
        gate["problems"].append(f"runner error: {manifest['error']}")
    gate["failed_checks"] = [c["name"] for c in manifest["checks"] if not c["passed"]]
    for name in sorted(manifest["outputs"]):
        path = os.path.join(out, name)
        if not os.path.isfile(path):
            gate["problems"].append(f"listed output {name} is missing")
            continue
        gate["digests"][name] = _sha256(path)
        if name == "summary.json":
            try:
                with open(path, encoding="utf-8") as fh:
                    validate(json.load(fh), load_schema(manifest["scenario"]))
            except Exception as e:  # any schema or decode failure fails the gate
                gate["problems"].append(f"summary.json fails its schema: {e}")
    if "summary.json" not in gate["digests"]:
        gate["problems"].append("no summary.json written")
    return gate


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    report: dict = {}

    t0 = time.perf_counter()
    import fbbmlab.cli
    import fbbmlab.config
    import jsonschema

    src = os.path.realpath(os.path.join(spec["root"], "src"))
    where = os.path.realpath(fbbmlab.__file__)
    if os.path.commonpath([src, where]) != src:
        print(f"fbbmlab imported from {where}, not from {src}", file=sys.stderr)
        return 2
    if spec["mode"] == "probe":
        import numpy
        from importlib import metadata

        blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
        report = {
            "fbbmlab": where,
            "numpy": numpy.__version__,
            "jsonschema": metadata.version("jsonschema"),
            "blas": {k: blas.get(k) for k in ("name", "version")},
        }
    else:
        validate = jsonschema.validate  # unwrapped: the gate is not traced
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        for path in spec["configs"]:
            fbbmlab.config.load_config(path)
        report["setup_s"] = time.perf_counter() - t0

        if spec["mode"] == "run":
            codes = []
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            w0 = time.perf_counter()
            for path, out in zip(spec["configs"], spec["outs"]):
                try:
                    codes.append(fbbmlab.cli.main(["run", path, "--out", out]))
                except SystemExit as e:
                    codes.append(e.code)
                except Exception as e:  # an escaped error fails that run's gate
                    codes.append(f"{type(e).__name__}: {e}")
            w1 = time.perf_counter()
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            report["wall_s"] = w1 - w0
            report["cpu_s"] = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
            report["peak_rss_mb"] = ru1.ru_maxrss / 1024.0  # Linux reports KiB
            if tracer is not None:
                tracer.dump(spec["report"] + ".spans.json")
            report["gates"] = [
                _gate(out, code, fbbmlab.cli.load_schema, validate)
                for out, code in zip(spec["outs"], codes)
            ]

    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
