"""Command line front end: run scenarios, validate configs, print schemas.

Output contract: for a fixed config the CSV, JSON and plot-data files are
byte-identical across reruns; the manifest is the only file allowed to
differ (it records wall-clock time).  The manifest is written atomically
and the exit status is nonzero exactly when an asserted check failed.

Tables are written a column and CHUNK_ROWS rows at a time.  Each column
chunk becomes a NUL-padded (rows, width) uint8 matrix with a mask of the
bytes to keep; one hstack puts a chunk's matrices between separator and
newline columns, and one boolean compress makes the bytes of one write.
Floats are written as repr: a strictly increasing column of values k/2^s
with at most 15 significant digits (a dyadic grid) from int64 digit
arithmetic, since that exact decimal is the only string as short that
reads back as the value (_dyadic), and any other float64 column from the
repr of each distinct value, formatted once into a fixed-width bytes
table.  While rows are written, the memory held beyond the columns is
that table, one index per row and one chunk's matrices.
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
from .scenarios import Check, ScenarioResult, Table, envelope, run_scenario

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
    # the scenario is named once, at the top level; the config echo's params
    # are the summary's, typed there: a copy typed per scenario here made the
    # manifest schema 3.5 times larger
    config = schema["properties"]["config"]
    schema["properties"]["config"] = _with(config, {"seed": _SEED, "params": {"type": "object"}})
    scenario = {"enum": list(SCENARIOS)}
    grid = {"oneOf": [{"type": "null"}, _GRID]}
    return _with(schema, {"scenario": scenario, "config_hash": _HASH, "grid": grid})


@functools.lru_cache(maxsize=None)
def _validator(name: str):
    """Validator of one shipped schema, built once per process.  The test
    suite checks the schemas against their metaschema; here that check
    cost 13-26 ms per schema in every process."""
    schema = load_schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


def _fmt(value) -> str:
    # repr of a float is the shortest round-trip form; strings pass through
    if isinstance(value, str):
        return value
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return repr(float(value))


CHUNK_ROWS = 1 << 16  # table rows formatted and written per write call


def _padded(cells):
    """A fixed-width bytes array as a (rows, width) uint8 matrix and the
    mask of its bytes that are not NUL padding (repr writes no NUL)."""
    m = cells.view(np.uint8).reshape(cells.size, cells.itemsize)
    return m, m != 0


def _reprs(values):
    """The repr of each value of a float64 chunk, as S24 (the longest float64
    repr); tolist gives Python floats, so this is _fmt run in C.  The bytes
    are made one at a time: listing them first raised the solitary
    benchmark's peak RSS by about 1 MB, the allocator holding on to it."""
    return np.fromiter(map(repr, values.tolist()), "S24", values.size)


def _dyadic(part):
    """The cells of a float64 chunk written from its digits, or None where
    that might not be repr.

    Every value must be k/2^s with W + s <= 15 (W the digit count of the
    largest integer part), and none nonzero under 1e-4 in magnitude.  Such
    a value is exactly the decimal of its integer part and the s fraction
    digits j 5^s, j its fraction times 2^s: at most 15 significant digits.
    Two decimals of at most 15 significant digits never round to the same
    double, so no other string as short lies within half an ulp: this is
    repr's shortest round trip, written positionally as repr does for
    1e-4 <= |v| < 1e16.  The sign comes from signbit, so -0.0 keeps it.
    """
    size = np.abs(part)
    if not size.max() < 1e15:
        return None  # also inf and nan
    whole = np.trunc(size)
    frac = (size - whole) * 2.0**14  # exact; W >= 1 digit, so s <= 14
    if not np.array_equal(frac, np.trunc(frac)):
        return None
    k = frac.astype(np.int64)
    low = int(np.bitwise_or.reduce(k))
    s = 15 - (low & -low).bit_length() if low else 0  # 14 less k's trailing zeros
    whole = whole.astype(np.int64)
    width = len(str(int(whole.max())))
    if width + s > 15 or np.any((size > 0) & (size < 1e-4)):
        return None
    m = np.zeros((part.size, width + max(s, 1) + 2), np.uint8)
    m[:, 0] = np.where(np.signbit(part), ord("-"), 0)
    m[:, width + 1] = ord(".")
    # right to left, NUL for a blank: integer digit j is blank where
    # |v| < 10^(width - j), fraction digit i where it and every digit after
    # it are 0; the units and the first fraction digit always stay
    rest = whole
    for j in range(width, 0, -1):
        rest, digit = rest // 10, rest % 10 + 48
        m[:, j] = digit if j == width else np.where(whole >= 10 ** (width - j), digit, 0)
    rest, seen = (k >> 14 - s) * 5**s, False
    for i in range(max(s, 1), 0, -1):
        rest, digit = rest // 10, rest % 10
        seen = seen | (digit > 0)
        m[:, width + 1 + i] = digit + 48 if i == 1 else np.where(seen, digit + 48, 0)
    return m, m != 0


def _column(col):
    """cells(a, b): rows a..b-1 of one column as a (rows, width) uint8
    matrix and the mask of its bytes to write.

    A strictly increasing float64 column cannot repeat a value (nor hold
    both 0.0 and -0.0).  Its chunks are written by _dyadic where it can, as
    on a grid with a dyadic step, unless its first 64 values fail, and by
    repr where it cannot.  Another float64 column's distinct values, told
    apart by bit pattern so that 0.0 and -0.0 and NaN payloads stay apart,
    are formatted once, CHUNK_ROWS at a time, into a table that the rows
    gather from: a mirrored profile holds most values twice.  Any other
    column is _fmt per cell, masked by length: a label may hold a NUL.
    """
    if not (isinstance(col, np.ndarray) and col.dtype == np.float64):
        def cells(a, b):
            text = [_fmt(v).encode() for v in col[a:b]]
            m = _padded(np.array(text, "S"))[0]
            size = np.fromiter(map(len, text), np.intp, len(text))
            return m, np.arange(m.shape[1]) < size[:, None]
        return cells
    if np.all(col[1:] > col[:-1]):
        if col.size and _dyadic(col[:64]) is not None:
            def cells(a, b):
                dyadic = _dyadic(col[a:b])
                return dyadic if dyadic is not None else _padded(_reprs(col[a:b]))
            return cells
    else:
        distinct, inverse = np.unique(col.view(np.uint64), return_inverse=True)
        if distinct.size < col.size:
            values = distinct.view(np.float64)
            table = np.empty(values.size, "S24")
            for a in range(0, values.size, CHUNK_ROWS):
                table[a : a + CHUNK_ROWS] = _reprs(values[a : a + CHUNK_ROWS])
            return lambda a, b: _padded(table[inverse[a:b]])
    return lambda a, b: _padded(_reprs(col[a:b]))


def _write_table(path: str, config_hash: str, header: str, cols, sep: str) -> None:
    """Write the comment and header lines, then the rows of equal-length
    columns, CHUNK_ROWS rows at a time: a chunk's rows are one hstack of
    its column matrices between separator and newline columns, and one
    boolean mask drops the padding before a single write."""
    columns = [_column(c) for c in cols]
    rows = len(cols[0])
    with open(path, "wb") as fh:
        fh.write(f"# config-hash: {config_hash}\n{header}\n".encode())
        for start in range(0, rows, CHUNK_ROWS):
            count = min(CHUNK_ROWS, rows - start)
            between = (np.full((count, 1), ord(sep), np.uint8), np.ones((count, 1), bool))
            parts = []
            for cells_of in columns:
                parts += [cells_of(start, start + count), between]
            parts[-1] = (np.full((count, 1), ord("\n"), np.uint8), between[1])
            matrix, keep = (np.hstack(p) for p in zip(*parts))
            fh.write(matrix[keep])


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
    env = envelope(cfg)
    config_hash = env["config_hash"]

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
            "params": cfg.params,
            "seed": cfg.seed,
            "emit": cfg.emit,
        },
        "grid": env.get("grid"),
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
