#!/bin/sh
# The benchmark smoke test, shipped-config and source-size steps of the CI
# workflow, runnable offline.  FBBMLAB is the command that runs the CLI:
#
#   FBBMLAB=fbbmlab scripts/ci.sh                                    # installed
#   PYTHONPATH=src FBBMLAB="python3 -m fbbmlab.cli" scripts/ci.sh    # from source
#
# Each section runs whatever the sections before it returned; the script
# exits 1 if any section failed.
set -u
: "${FBBMLAB:?set FBBMLAB to the command that runs fbbmlab}"
cd "$(dirname "$0")/.." || exit 1
status=0
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# every workload in smoke mode, untraced and traced; the traced runs guard
# the function names bench/tracing.py patches
echo "== benchmark smoke"
python3 -m pytest bench/test_bench.py || status=1

echo "== validate shipped configs"
for cfg in scripts/configs/*.json; do $FBBMLAB validate "$cfg" || status=1; done

# every shipped config must run to exit 0, twice, and the rerun must write
# byte-identical tables, plot data and summary; each runs as a copy with
# emit.plotdata on, so every table with a plot also goes through the .dat
# writer
echo "== run shipped configs"
mkdir -p "$work/configs"
# runs a command as a child and appends "<name>: peak RSS <MB>" to a file;
# the exit code is the command's
peak_rss='import resource, subprocess, sys
code = subprocess.call(sys.argv[3:])
kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
with open(sys.argv[1], "a", encoding="utf-8") as fh:
    print(f"{sys.argv[2]}: peak RSS {kb / 1024:.1f} MB", file=fh)
sys.exit(code)'
for shipped in scripts/configs/*.json; do
  name=$(basename "$shipped" .json)
  cfg="$work/configs/$name.json"
  python3 -c 'import json, sys; c = json.load(open(sys.argv[1])); c.setdefault("emit", {})["plotdata"] = True; json.dump(c, open(sys.argv[2], "w"))' "$shipped" "$cfg"
  a="$work/runs-a/$name" b="$work/runs-b/$name"
  python3 -c "$peak_rss" "$work/rss" "$name" $FBBMLAB run "$cfg" --out "$a" || status=1
  $FBBMLAB run "$cfg" --out "$b" || status=1
  for f in "$a"/*.csv "$a"/*.dat "$a"/summary.json; do
    [ -e "$f" ] || continue
    cmp "$f" "$b/$(basename "$f")" || status=1
  done
done

# a rerun into a used directory replaces the earlier run: the tail config,
# which has no speed c, runs over a copy of the oracle's directory, which
# holds the speed-c wave's table and plot data
echo "== rerun into a used directory"
mkdir -p "$work/rerun"
cp -R "$work/runs-a/groundstate_oracle" "$work/rerun/groundstate_oracle" || status=1
$FBBMLAB run "$work/configs/groundstate_tail.json" --out "$work/rerun/groundstate_oracle" \
  || status=1

# every run directory of both passes and of the rerun holds its manifest
# and exactly the outputs that manifest lists, each one present, and no
# temporary
echo "== run directories match their manifests"
python3 - "$work/runs-a" "$work/runs-b" "$work/rerun" <<'EOF' || status=1
import json, os, sys
bad = 0
for base in sys.argv[1:]:
    for name in sorted(os.listdir(base)):
        run = os.path.join(base, name)
        files = set(os.listdir(run))
        outputs = set()
        if "manifest.json" in files:
            with open(os.path.join(run, "manifest.json"), encoding="utf-8") as fh:
                outputs = set(json.load(fh)["outputs"])
        problems = [f"{what}: {', '.join(sorted(names))}" for what, names in (
            ("missing", (outputs | {"manifest.json"}) - files),
            ("unlisted", files - outputs - {"manifest.json"}),
            ("temporaries", {f for f in files if f.startswith(".")}),
        ) if names]
        bad += bool(problems)
        label = f"{os.path.basename(base)}/{name}"
        print(f"{label}: {'; '.join(problems) or f'manifest and {len(outputs)} outputs'}")
sys.exit(1 if bad else 0)
EOF

# one sha256 line per table, plot data and summary those runs wrote,
# compared with the golden digests in scripts/digests.sha256.  Its first
# line names the numpy and machine it was made with; FFT roundoff may
# differ on another, so there a difference is printed but not a failure.
# A change that moves an output rewrites the file in the same commit.
echo "== output digests"
(cd "$work/runs-a" && find . -type f \( -name '*.csv' -o -name '*.dat' -o -name summary.json \) \
  | LC_ALL=C sort | xargs sha256sum) > "$work/digests" || status=1
cat "$work/digests"
golden=scripts/digests.sha256
made=$(sed -n 1p "$golden")
here=$(python3 -c 'import platform, numpy; print(f"# numpy {numpy.__version__} on {platform.machine()}")')
differ=$(grep -v '^#' "$golden" | diff - "$work/digests" | sed -n 's/^[<>] [0-9a-f]*  //p' | LC_ALL=C sort -u)
if [ -z "$differ" ]; then
  echo "all $(wc -l < "$work/digests") digests match $golden"
elif [ "$made" = "$here" ]; then
  printf 'digests differ from %s:\n%s\n' "$golden" "$differ"
  status=1
else
  printf 'digests differ from %s; comparison skipped: it was made with %s, this is %s:\n%s\n' \
    "$golden" "${made#\# }" "${here#\# }" "$differ"
fi

# every float cell those runs wrote must be repr's spelling of its value:
# the writer checked against repr on real outputs, apart from its tests
echo "== float cells are repr"
python3 - "$work/runs-a" <<'EOF' || status=1
import glob, os, sys
checked, wrong = 0, []
for path in sorted(glob.glob(os.path.join(sys.argv[1], "*", "*.csv"))
                   + glob.glob(os.path.join(sys.argv[1], "*", "*.dat"))):
    sep = "," if path.endswith(".csv") else " "
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue  # the config-hash and .dat header lines
            for cell in line.rstrip("\n").split(sep):
                if not any(mark in cell for mark in (".", "e", "inf", "nan")):
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a header or label
                checked += 1
                if cell != repr(value):
                    wrong.append(f"{path}: {cell!r} is not {repr(value)!r}")
print(f"{checked} float cells, {len(wrong)} not repr")
for line in wrong[:20]:
    print(line)
sys.exit(1 if wrong or not checked else 0)
EOF

# every plot data file of both passes must hold, row for row, the two
# columns of its table that its "# X vs Y" header names, spelled as the
# table spells them, under the table's config-hash line
echo "== plot data matches its table"
python3 - "$work/runs-a" "$work/runs-b" <<'EOF' || status=1
import glob, os, sys
files, rows, wrong = 0, 0, []
for base in sys.argv[1:]:
    for dat in sorted(glob.glob(os.path.join(base, "*", "*.dat"))):
        files += 1
        csv = dat[:-4] + ".csv"
        if not os.path.exists(csv):
            wrong.append(f"{dat}: no {os.path.basename(csv)} beside it")
            continue
        with open(dat, encoding="utf-8") as fh:
            plot = fh.read().split("\n")
        with open(csv, encoding="utf-8") as fh:
            table = fh.read().split("\n")
        header = table[1].split(",")
        names = plot[1].removeprefix("# ").split(" vs ")
        if (plot[0] != table[0] or len(names) != 2 or not set(names) <= set(header)
                or len(plot) != len(table)):
            wrong.append(f"{dat}: its hash line, header or length is not its table's")
            continue
        xi, yi = (header.index(name) for name in names)
        for number, (line, row) in enumerate(zip(plot[2:], table[2:]), 3):
            cells = row.split(",")
            want = f"{cells[xi]} {cells[yi]}" if row else ""
            if line != want:
                wrong.append(f"{dat}:{number}: {line!r} is not {want!r}")
                break
        rows += len(plot) - 3
print(f"{files} plot data files, {rows} rows, {len(wrong)} not their table's")
for line in wrong[:20]:
    print(line)
sys.exit(1 if wrong or not files else 0)
EOF

# every groundstate run's returned residual, re-checked at full length:
# the wave is rebuilt from its profile.csv, whose cells are repr and so
# exact, and normalized_residual takes numpy's rfft of all n samples; it
# may exceed the config's tol, or differ from the summary's residual, by
# at most 0.25 eps s, s = 1 + (pi n / 2L)^alpha (the Tier-1 test
# test_returned_residual_agrees_with_full_length_check measured 0.12)
echo "== groundstate residuals at full length"
python3 - "$work/runs-a" <<'EOF' || status=1
import glob, json, os, sys
import numpy as np
from fbbmlab.ground_state import normalized_residual
from fbbmlab.spectral import Field, make_grid
runs, wrong = 0, []
for manifest in sorted(glob.glob(os.path.join(sys.argv[1], "*", "manifest.json"))):
    run = os.path.dirname(manifest)
    with open(manifest, encoding="utf-8") as fh:
        params = json.load(fh)["config"]["params"]
    with open(os.path.join(run, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if summary["scenario"] != "groundstate":
        continue
    runs += 1
    alpha, n, L, tol = params["alpha"], params["n"], params["L"], params["tol"]
    psi = np.loadtxt(os.path.join(run, "profile.csv"), delimiter=",", skiprows=2, usecols=1)
    full = normalized_residual(Field(make_grid(n, L), psi), alpha)
    eps_s = np.finfo(float).eps * (1.0 + (np.pi * n / (2.0 * L)) ** alpha)
    diff = abs(full - summary["residual"])
    print(f"{os.path.basename(run)}: full length {full:.6g}, returned {summary['residual']:.6g}, "
          f"tol {tol:g}, apart by {diff / eps_s:.3g} eps s")
    if full > tol + 0.25 * eps_s or diff > 0.25 * eps_s:
        wrong.append(os.path.basename(run))
print(f"{runs} groundstate runs, {len(wrong)} off: {', '.join(wrong) or 'none'}")
sys.exit(1 if wrong or not runs else 0)
EOF

# configs that validate but whose run fails a named check: a flow that
# blows up (evolve, ucp), a ucp integral int u^2 dx that overflows, mass at
# the box edge and a weighted norm whose squared samples overflow
# (weighted-growth), nonpositive tail samples, a solve that stalls above
# tol and one that returns the constant psi = 2 (groundstate).  Each once
# made a run exit 1 with a runner or writer error, or exit 0 (the
# constant); each must validate, then run to exit 3 with a manifest
# that records no error and lists a summary.json that is there, and print
# nothing to stderr: the overflows are expected, so numpy warns of none
echo "== validated configs that fail a check exit 3"
mkdir -p "$work/fails"
for entry in \
  'evolve_blow_up|{"scenario":"evolve","alpha":1.0,"n":64,"L":1.0,"dt":0.01,"T":0.1,"k":4,"amplitude":10.0,"width":10000.0}' \
  'ucp_blow_up|{"scenario":"ucp","alpha":1.0,"n":64,"L":1.0,"dt":0.01,"T":0.1,"k":4,"mean":10.0}' \
  'ucp_integral_overflow|{"scenario":"ucp","alpha":1.0,"n":16,"L":1e304,"dt":1.0,"T":1.0,"mean":1000.0,"width":1.0}' \
  'growth_edge_mass|{"scenario":"weighted-growth","n":1024,"L":50.0,"t_max":5.0,"t_count":2,"pairs":[[0.5,0.5]]}' \
  'growth_norm_overflow|{"scenario":"weighted-growth","n":16,"L":1e77,"t_max":2.0,"t_count":2,"pairs":[[2.0,3.4]]}' \
  'groundstate_nonpositive_tail|{"scenario":"groundstate","alpha":1.6047496432423727,"n":64,"L":146.28553447080662,"tol":1e-10}' \
  'groundstate_unconverged|{"scenario":"groundstate","alpha":0.1,"n":64,"L":1.0}' \
  'groundstate_constant|{"scenario":"groundstate","alpha":0.125,"n":64,"L":1.0,"tol":1e-10}'
do
  name=${entry%%|*}
  cfg="$work/fails/$name.json"
  printf '%s\n' "${entry#*|}" > "$cfg"
  $FBBMLAB validate "$cfg" || status=1
  $FBBMLAB run "$cfg" --out "$work/fails/$name" 2> "$work/fails/$name.stderr"
  code=$?
  python3 - "$work/fails/$name" "$code" <<'EOF' || status=1
import json, os, sys
run, code = sys.argv[1], int(sys.argv[2])
with open(os.path.join(run, "manifest.json"), encoding="utf-8") as fh:
    manifest = json.load(fh)
with open(f"{run}.stderr", encoding="utf-8") as fh:
    stderr = fh.read()
problems = [what for what, bad in (
    (f"exit {code}, not 3", code != 3),
    (f"stderr not empty: {stderr.splitlines()[0] if stderr else ''}", stderr != ""),
    (f"error {manifest['error']!r}", manifest["error"] is not None),
    ("summary.json not listed", "summary.json" not in manifest["outputs"]),
    ("summary.json missing", not os.path.isfile(os.path.join(run, "summary.json"))),
) if bad]
print(f"{os.path.basename(run)}: {'; '.join(problems) or 'exit 3, summary.json listed'}")
sys.exit(1 if problems else 0)
EOF
done

# configs whose run once exited 1 on a NaN in its summary or a non-finite
# symbol, and which the config rules now refuse: a stein theta below the
# smallest normal double, a weighted-growth weight that overflows at the
# box edge, a growth phase t a(xi) that overflows, a groundstate default
# tail window with fewer than 8 samples; and a growth t_count one past
# MAX_SAMPLE_TIMES, whose sample times validation would otherwise build.
# Each must exit 2 from validate and from run, never 1
echo "== configs the rules refuse exit 2"
for entry in \
  'stein_subnormal_theta|{"scenario":"stein","pairs":[[0.5,5e-324]]}' \
  'growth_weight_overflow|{"scenario":"weighted-growth","n":16,"L":1e155,"t_max":10.0,"t_count":2,"pairs":[[0.5,1.0]]}' \
  'growth_phase_overflow|{"scenario":"weighted-growth","n":256,"L":50.0,"t_max":1e308,"t_count":2,"pairs":[[0.5,0.5]]}' \
  'groundstate_default_window|{"scenario":"groundstate","alpha":0.75,"n":16,"L":200.0}' \
  'growth_t_count_cap|{"scenario":"weighted-growth","t_count":10001}'
do
  name=${entry%%|*}
  cfg="$work/fails/$name.json"
  printf '%s\n' "${entry#*|}" > "$cfg"
  $FBBMLAB validate "$cfg"
  validated=$?
  $FBBMLAB run "$cfg" --out "$work/fails/$name"
  ran=$?
  echo "$name: validate exit $validated, run exit $ran"
  [ "$validated" = 2 ] && [ "$ran" = 2 ] || status=1
done

# the line counts the ROADMAP tracks: the Python and the declared output
# formats, next to the collected test count; the test modules' counts show
# code that moves between src and the test helpers
echo "== source size"
wc -l src/fbbmlab/*.py || status=1
wc -l tests/*.py || status=1
wc -l src/fbbmlab/schemas/*.json || status=1
python3 -m pytest --collect-only -q > "$work/collected" || status=1
tail -n 1 "$work/collected"

# the peak resident set of each shipped config's first run, so a memory
# regression shows in the log; printed only, not a gate
echo "== peak RSS of shipped config runs"
cat "$work/rss" || status=1

exit $status
