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

# one sha256 line per table, plot data and summary those runs wrote: byte
# identity between two checkouts is then a diff of their ci.sh logs
echo "== output digests"
(cd "$work/runs-a" && find . -type f \( -name '*.csv' -o -name '*.dat' -o -name summary.json \) \
  | LC_ALL=C sort | xargs sha256sum) || status=1

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

# the line counts the ROADMAP tracks: the Python and the declared output
# formats, next to the collected test count
echo "== source size"
wc -l src/fbbmlab/*.py || status=1
wc -l src/fbbmlab/schemas/*.json || status=1
python3 -m pytest --collect-only -q > "$work/collected" || status=1
tail -n 1 "$work/collected"

# the peak resident set of each shipped config's first run, so a memory
# regression shows in the log; printed only, not a gate
echo "== peak RSS of shipped config runs"
cat "$work/rss" || status=1

exit $status
