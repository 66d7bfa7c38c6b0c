#!/bin/sh
# The shipped-config and source-size steps of the CI workflow, runnable
# offline.  FBBMLAB is the command that runs the CLI:
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

echo "== validate shipped configs"
for cfg in scripts/configs/*.json; do $FBBMLAB validate "$cfg" || status=1; done

# every shipped config must run to exit 0, twice, and the rerun must write
# byte-identical tables, plot data and summary; each runs as a copy with
# emit.plotdata on, so every table with a plot also goes through the .dat
# writer
echo "== run shipped configs"
mkdir -p "$work/configs"
for shipped in scripts/configs/*.json; do
  name=$(basename "$shipped" .json)
  cfg="$work/configs/$name.json"
  python3 -c 'import json, sys; c = json.load(open(sys.argv[1])); c.setdefault("emit", {})["plotdata"] = True; json.dump(c, open(sys.argv[2], "w"))' "$shipped" "$cfg"
  a="$work/runs-a/$name" b="$work/runs-b/$name"
  $FBBMLAB run "$cfg" --out "$a" || status=1
  $FBBMLAB run "$cfg" --out "$b" || status=1
  for f in "$a"/*.csv "$a"/*.dat "$a"/summary.json; do
    [ -e "$f" ] || continue
    cmp "$f" "$b/$(basename "$f")" || status=1
  done
done

# the line counts the ROADMAP tracks: the Python and the declared output
# formats, next to the collected test count
echo "== source size"
wc -l src/fbbmlab/*.py || status=1
wc -l src/fbbmlab/schemas/*.json || status=1
python3 -m pytest --collect-only -q > "$work/collected" || status=1
tail -n 1 "$work/collected"

exit $status
