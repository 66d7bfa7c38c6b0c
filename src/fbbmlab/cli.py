"""Command line front end: run scenarios, validate configs, print schemas.

Output contract: for a fixed config the CSV, JSON and plot-data files are
byte-identical across reruns; the manifest is the only file allowed to
differ (it records wall-clock time).  The manifest is written atomically
and the exit status is nonzero exactly when an asserted check failed.

Tables are written a column at a time: floats as repr, each distinct
float64 value of a column formatted once into a fixed-width bytes table,
and rows assembled and written CHUNK_ROWS at a time, so while rows are
written the memory held beyond the columns is that table, one index per
row and one chunk.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time
from importlib import resources

import jsonschema
import numpy as np

from . import __version__
from .config import _KINDS, _TABLES, SCENARIOS, ConfigError, ScenarioConfig, load_config, with_seed
from .scenarios import Check, ScenarioResult, Table, run_scenario

SCHEMA_NAMES = SCENARIOS + ("manifest",)

EXIT_OK = 0
EXIT_ERROR = 1  # a runner raised; manifest records the error
EXIT_CONFIG = 2
EXIT_CHECK_FAILED = 3


# The keys every summary opens with are declared here once; each shipped
# schema file holds only its own keys, and load_schema adds these.
_HASH = {"type": "string", "pattern": "^[0-9a-f]{64}$"}
_SEED = {"type": "integer"}
_GRID = {
    "type": "object",
    "required": ["n", "L", "dx"],
    "additionalProperties": False,
    "properties": {"n": {"type": "integer"}, "L": {"type": "number"}, "dx": {"type": "number"}},
}


def _envelope(scenario: str) -> dict:
    """Schemas of the keys a scenario's summary opens with.  params holds
    every key of the scenario's config table, of its kind (a kind ending in
    "?" also allows null); a scenario on a grid has an n in its table."""
    table = _TABLES[scenario]
    params = {}
    for key, (kind, _, _) in table.items():
        t = _KINDS[kind.rstrip("?")][2]
        params[key] = {"type": [t, "null"] if kind.endswith("?") else t}
    env = {
        "scenario": {"const": scenario},
        "config_hash": _HASH,
        "seed": _SEED,
        "params": {"type": "object", "required": list(table),
                   "additionalProperties": False, "properties": params},
    }
    if "n" in table:
        env["grid"] = _GRID
    return env


def _with(schema: dict, props: dict) -> dict:
    """schema with props added as required properties."""
    return {**schema, "required": [*props, *schema["required"]],
            "properties": {**props, **schema["properties"]}}


def load_schema(name: str) -> dict:
    """The self-contained schema of a scenario's summary or of the manifest:
    the shipped file's own keys plus the envelope declared above."""
    if name not in SCHEMA_NAMES:
        raise ValueError(f"no schema named {name!r}; know {', '.join(SCHEMA_NAMES)}")
    path = resources.files("fbbmlab").joinpath(f"schemas/{name}.schema.json")
    schema = json.loads(path.read_text(encoding="utf-8"))
    if name != "manifest":
        return _with(schema, _envelope(name))
    # the config echo's params are the summary's, typed there: a copy typed
    # per scenario here made the manifest schema 3.5 times larger and its
    # metaschema check, made once per process, about 50 ms slower
    scenario = {"enum": list(SCENARIOS)}
    config = schema["properties"]["config"]
    schema["properties"]["config"] = _with(
        config, {"scenario": scenario, "seed": _SEED, "params": {"type": "object"}})
    grid = {"oneOf": [{"type": "null"}, _GRID]}
    return _with(schema, {"scenario": scenario, "config_hash": _HASH, "grid": grid})


@functools.lru_cache(maxsize=None)
def _validator(name: str):
    """Validator of one shipped schema, checked against its metaschema once
    per process instead of on every write."""
    schema = load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _fmt(value) -> str:
    # repr of a float is the shortest round-trip form; strings pass through
    if isinstance(value, str):
        return value
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return repr(float(value))


CHUNK_ROWS = 1 << 16  # table rows formatted and written per write call


def _column(col):
    """cells(a, b): the UTF-8 cells of rows a..b-1 of one column.

    A float64 column's distinct values, told apart by bit pattern so that
    0.0 and -0.0 and NaN payloads stay apart, are formatted once, CHUNK_ROWS
    at a time, into a fixed-width bytes table that the rows gather from: a
    mirrored profile holds most values twice.  A column without repeats
    maps repr over each chunk instead; tolist gives Python floats, so that
    is _fmt run in C.  A strictly increasing column skips the search for
    repeats; it cannot hold both 0.0 and -0.0.
    """
    if not (isinstance(col, np.ndarray) and col.dtype == np.float64):
        return lambda a, b: map(str.encode, map(_fmt, col[a:b]))
    if not np.all(col[1:] > col[:-1]):
        distinct, inverse = np.unique(col.view(np.uint64), return_inverse=True)
        if distinct.size < col.size:
            values = distinct.view(np.float64)
            # the longest float64 repr has 24 characters.  Strings and bytes
            # items are made one at a time, not listed: lists of them raised
            # the solitary benchmark's peak RSS by about 1 MB, the allocator
            # holding on to memory
            table = np.empty(values.size, "S24")
            for a in range(0, values.size, CHUNK_ROWS):
                chunk = values[a : a + CHUNK_ROWS].tolist()
                table[a : a + CHUNK_ROWS] = np.fromiter(map(repr, chunk), "S24", len(chunk))
            # rows iterate the gathered chunk; its items drop the NUL
            # padding, which no repr contains
            return lambda a, b: table[inverse[a:b]]
    return lambda a, b: map(str.encode, map(repr, col[a:b].tolist()))


def _write_table(path: str, config_hash: str, header: str, cols, sep: str) -> None:
    """Write the comment and header lines, then the rows of equal-length
    columns, CHUNK_ROWS rows at a time so the formatted bytes held at once
    stay bounded."""
    columns = [_column(c) for c in cols]
    sep = sep.encode()
    with open(path, "wb") as fh:
        fh.write(f"# config-hash: {config_hash}\n{header}\n".encode())
        for start in range(0, len(cols[0]), CHUNK_ROWS):
            cells = [cells_of(start, start + CHUNK_ROWS) for cells_of in columns]
            fh.write(b"\n".join(map(sep.join, zip(*cells))) + b"\n")


def write_csv(path: str, table: Table, config_hash: str) -> None:
    _write_table(path, config_hash, ",".join(table.columns), table.data, ",")


def write_plotdata(path: str, table: Table, config_hash: str) -> None:
    xi, yi = table.plot
    header = f"# {table.columns[xi]} vs {table.columns[yi]}"
    _write_table(path, config_hash, header, (table.data[xi], table.data[yi]), " ")


def write_summary(path: str, summary: dict, scenario: str) -> None:
    _validator(scenario).validate(summary)
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_manifest(path: str, manifest: dict) -> None:
    _validator("manifest").validate(manifest)
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".manifest-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out_dir(cfg: ScenarioConfig, cli_out: str | None) -> str:
    if cli_out:
        return cli_out
    if cfg.out:
        return cfg.out
    base = os.environ.get("FBBMLAB_OUT", "runs")
    return os.path.join(base, f"{cfg.scenario}-{cfg.config_hash()[:12]}")


def _checks_to_json(checks: list[Check]) -> list[dict]:
    """Manifest form of the checks.  Strict JSON has no NaN, so a
    non-finite value is written as null and fails its check."""
    out = []
    for c in checks:
        value = None if c.value is None else float(c.value)
        finite = value is None or math.isfinite(value)
        out.append(
            {
                "name": c.name,
                "passed": bool(c.passed) and finite,
                "value": value if finite else None,
                "threshold": c.threshold,
            }
        )
    return out


def _write_outputs(
    cfg: ScenarioConfig,
    result: ScenarioResult,
    out_dir: str,
    config_hash: str,
    outputs: list[str],
) -> None:
    """Write the emitted tables, summary and plot data.  Each file name
    joins outputs before its writer starts, so a failure leaves the list
    of files this run wrote."""
    if cfg.emit["csv"]:
        for table in result.tables:
            name = f"{table.name}.csv"
            outputs.append(name)
            write_csv(os.path.join(out_dir, name), table, config_hash)
    if cfg.emit["json"]:
        name = "summary.json"
        outputs.append(name)
        write_summary(os.path.join(out_dir, name), result.summary, cfg.scenario)
    if cfg.emit["plotdata"]:
        for table in result.tables:
            if table.plot is None:
                continue
            name = f"{table.name}.dat"
            outputs.append(name)
            write_plotdata(os.path.join(out_dir, name), table, config_hash)


def _load(args) -> ScenarioConfig | None:
    """The config named on the command line, with any --seed override; on
    a missing file or an invalid config, say why on stderr and return None."""
    try:
        cfg = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            cfg = with_seed(cfg, args.seed)
    except FileNotFoundError:
        print(f"no such config file: {args.config}", file=sys.stderr)
        return None
    except ConfigError as e:
        print("config invalid:", file=sys.stderr)
        for v in e.violations:
            print(f"  - {v}", file=sys.stderr)
        return None
    return cfg


def _run(args) -> int:
    cfg = _load(args)
    if cfg is None:
        return EXIT_CONFIG

    out_dir = _out_dir(cfg, args.out)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        print(f"cannot create output directory {out_dir}: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    config_hash = cfg.config_hash()

    t0 = time.perf_counter()
    error = None
    result = ScenarioResult()
    try:
        result = run_scenario(cfg)
    except Exception as e:  # runner failures land in the manifest
        error = f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - t0

    outputs = []
    if error is None:
        try:
            _write_outputs(cfg, result, out_dir, config_hash, outputs)
        except Exception as e:  # so do writer failures, schema violations included
            error = f"{type(e).__name__}: {e}"
            # the manifest vouches for none of them: remove what this run wrote
            for name in outputs:
                path = os.path.join(out_dir, name)
                if os.path.exists(path):
                    os.unlink(path)
            outputs = []

    checks = _checks_to_json(result.checks)
    manifest = {
        "tool": "fbbmlab",
        "version": __version__,
        "scenario": cfg.scenario,
        "config_hash": config_hash,
        "config": {
            "scenario": cfg.scenario,
            "params": cfg.params,
            "seed": cfg.seed,
            "emit": cfg.emit,
        },
        "grid": result.grid,
        "checks": checks,
        "outputs": outputs,
        "wall_clock_s": wall,
        "error": error,
    }
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)

    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        val = "n/a" if c["value"] is None else f"{c['value']:.6g}"
        print(f"check {c['name']}: {status} ({val} {c['threshold']})")
    print(f"manifest: {os.path.join(out_dir, 'manifest.json')}")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    if not all(c["passed"] for c in checks):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _validate(args) -> int:
    cfg = _load(args)
    if cfg is None:
        return EXIT_CONFIG
    print(f"config valid: scenario {cfg.scenario!r}, hash {cfg.config_hash()[:12]}")
    return EXIT_OK


def _schema(args) -> int:
    if args.name is None:
        print("\n".join(SCHEMA_NAMES))
        return EXIT_OK
    try:
        schema = load_schema(args.name)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(schema, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbbmlab",
        description="Spectral laboratory for a fractional BBM equation.",
    )
    parser.add_argument("--version", action="version", version=f"fbbmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a JSON config")
    p_run.add_argument("config", help="path to the JSON config file")
    p_run.add_argument("--out", default=None, help="output directory (overrides config and FBBMLAB_OUT)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--threads", type=int, default=1, help="ignored; accepted for old command lines")
    p_run.set_defaults(func=_run)

    p_val = sub.add_parser("validate", help="validate a config and exit")
    p_val.add_argument("config", help="path to the JSON config file")
    p_val.set_defaults(func=_validate)

    p_sch = sub.add_parser("schema", help="print a shipped output schema")
    p_sch.add_argument("name", nargs="?", default=None, help="schema name (omit to list)")
    p_sch.set_defaults(func=_schema)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
