"""Command line front end: run scenarios, validate configs, print schemas.

Output contract: for a fixed config the CSV, JSON and plot-data files are
byte-identical across reruns; the manifest is the only file allowed to
differ (it records wall-clock time).  The manifest is written atomically
and the exit status is nonzero exactly when an asserted check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from importlib import resources

# OpenBLAS sizes its thread pool once, when numpy first loads (through
# .config below), and by default starts a worker for each further CPU.
# The library's only BLAS calls are two-column least-squares fits, yet on
# 2 vCPUs that worker slowed every run's start: a cold `import numpy` took
# 0.110-0.173 s with it and 0.052-0.098 s without (9 runs each).  Set
# here, so it holds for every CLI process and for no library user; a
# value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import jsonschema

from . import __version__
from .config import _KINDS, _TABLES, SCENARIOS, ConfigError, ScenarioConfig, load_config, with_seed
from .scenarios import ScenarioResult, envelope, run_scenario
from .tables import write_csv, write_plotdata

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


def write_summary(path: str, summary: dict, scenario: str) -> None:
    _validator(scenario).validate(summary)
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_manifest(path: str, manifest: dict) -> None:
    _validator("manifest").validate(manifest)
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    # per process, beside the target; its mode follows the umask, as outputs' do
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".manifest-{os.getpid()}.json")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
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


def _listed_outputs(manifest_path: str) -> list:
    """The outputs a manifest lists; none if it cannot be read as one."""
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            outputs = json.load(fh)["outputs"]
    except (OSError, ValueError, KeyError, TypeError):
        return []
    return outputs if isinstance(outputs, list) else []


def _remove_outputs(out_dir: str, names: list) -> None:
    """Remove the named files of out_dir: only plain file names, so a name
    with a directory part, or one that is not a file, is left alone."""
    for name in names:
        if not isinstance(name, str) or name != os.path.basename(name):
            continue
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            os.unlink(path)


def _load(args) -> ScenarioConfig | None:
    """The config named on the command line, with any --seed override; on
    a file that cannot be read (missing, a directory, not UTF-8) or an
    invalid config, say why on stderr and return None."""
    try:
        cfg = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            cfg = with_seed(cfg, args.seed)
    except OSError as e:
        print(f"cannot read config file {args.config}: {e.strerror}", file=sys.stderr)
        return None
    except UnicodeDecodeError as e:
        print(f"config file {args.config} is not UTF-8: {e.reason} at byte {e.start}",
              file=sys.stderr)
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

    # a rerun replaces an earlier run: the files its manifest lists go
    # first, then that manifest, so no file of it outlives the list
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        _remove_outputs(out_dir, [*_listed_outputs(manifest_path), "manifest.json"])
    outputs = []
    if error is None:
        try:
            _write_outputs(cfg, result, out_dir, config_hash, outputs)
        except Exception as e:  # so do writer failures, schema violations included
            error = f"{type(e).__name__}: {e}"
            # the manifest vouches for none of them: remove what this run wrote
            _remove_outputs(out_dir, outputs)
            outputs = []

    checks = [dataclasses.asdict(c) for c in result.checks]
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
    write_manifest(manifest_path, manifest)

    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        val = "n/a" if c["value"] is None else f"{c['value']:.6g}"
        print(f"check {c['name']}: {status} ({val} {c['threshold']})")
    print(f"manifest: {manifest_path}")
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
