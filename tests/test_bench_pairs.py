"""The pair summary of scripts/bench_pairs.py on synthetic samples; no
benchmark runs."""

import os
import types

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_pairs():
    """scripts/bench_pairs.py as a fresh module, compiled from its text;
    nothing is written beside it."""
    path = os.path.join(REPO, "scripts", "bench_pairs.py")
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("bench_pairs")
    module.__file__ = path
    exec(compile(source, path, "exec"), module.__dict__)
    return module


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_summary_quartiles_and_wins():
    got = _bench_pairs().summarize(PARENT, [v - 6.0 for v in PARENT])
    # exclusive quartiles, as bench/run.py reports them
    assert got["parent"] == {"median": 14.5, "q1": 11.75, "q3": 17.25, "min": 10.0, "max": 19.0}
    assert got["change"] == {"median": 8.5, "q1": 5.75, "q3": 11.25, "min": 4.0, "max": 13.0}
    assert (got["pairs"], got["wins"], got["improves"]) == (10, 10, True)


@pytest.mark.parametrize("change, wins, improves", [
    # every pair won, but the median gap 5 is inside the parent's IQR 5.5
    ([v - 5.0 for v in PARENT], 10, False),
    # a tie counts for neither side: 9 of 10 wins still improves
    ([v - 6.0 for v in PARENT[:9]] + [19.0], 9, True),
    # two ties leave 8 of 10
    ([v - 6.0 for v in PARENT[:8]] + [18.0, 19.0], 8, False),
    # a lost pair counts against the change as a tie does
    ([v - 6.0 for v in PARENT[:9]] + [25.0], 9, True),
    ([v - 6.0 for v in PARENT[:8]] + [25.0, 25.0], 8, False),
])
def test_summary_verdict(change, wins, improves):
    got = _bench_pairs().summarize(PARENT, change)
    assert (got["wins"], got["improves"]) == (wins, improves)


def test_summary_needs_paired_samples():
    with pytest.raises(ValueError):
        _bench_pairs().summarize(PARENT, PARENT[:9])
