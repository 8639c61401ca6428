"""Exact gh, dis and cdis of the hard pairs, proved by the uncapped searches.

    python tests/answer_key.py           # write tests/data/answer_key.json
    python tests/answer_key.py --check   # recompute it and compare, to 1e-12

The pairs are the flat tori k = 5 v 6, 5 v 7, 5 v 8, 6 v 7, 6 v 8 and 7 v 8,
the square grids k = 4 v 6, and the two-arm interval k = 8 against its
reversal.  gh is the threshold search over correspondences with no node
cap.  In the tori every point reaches every other, so every
correspondence is a d-correspondence and every map a d-map: dis and cdis
equal gh.  On the other two pairs dis is the threshold search over role
pairs with no node cap, and cdis the library's cdis with no node cap
(inf on both, by propagation).  Values are distances (half the least
distortion); inf is written as the string "inf".  The whole key takes
about a minute, so this is no pytest module: test_distances.py reads the
file and checks that every report at the default budget brackets it.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from dirmetric import (
    INFINITY,
    DirectedMetricSpace,
    GridSpec,
    SearchBudget,
    directed_square_grid,
    flat_torus_grid,
    reverse,
    source_sink_interval,
)
from dirmetric.distances import _correspondences, _map_pairs, _plain_cdis, _threshold_report

KEY = Path(__file__).parent / "data" / "answer_key.json"
TORI = ((5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8))


def pairs():
    """(name, X, Y) of each pair of the key, as analyzed spaces."""
    out = []
    for a, b in TORI:
        X, Y = (DirectedMetricSpace.from_space(flat_torus_grid(GridSpec(k=k))) for k in (a, b))
        out.append((f"torus-{a}-{b}", X, Y))
    X, Y = (DirectedMetricSpace.from_space(directed_square_grid(GridSpec(k=k))) for k in (4, 6))
    out.append(("square-4-6", X, Y))
    arm = source_sink_interval(8)
    out.append(("two-arm-8-reversed", DirectedMetricSpace.from_space(arm), DirectedMetricSpace.from_space(reverse(arm))))
    return out


def exact_values(X, Y) -> dict:
    """{kind: value} of one pair, each from a search with no node cap."""
    dX, dY = X.zz, Y.zz
    every = _correspondences(dX, dY, None, np.ones((X.n, Y.n), dtype=bool))
    gh = _threshold_report("gh", dX, dY, every, INFINITY, "branch-and-bound")
    if X.reach.all() and Y.reach.all():
        dis = cdis = gh
    else:
        dis = _threshold_report("dis", dX, dY, _map_pairs(X, Y), INFINITY, "exhaustive")
        cdis = _plain_cdis(X, Y, SearchBudget(exhaustive_cdis=X.n * Y.n))
    assert gh.exact and dis.exact and cdis.exact
    return {"gh": gh.value, "dis": dis.value, "cdis": cdis.value}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the file instead of writing it")
    args = parser.parse_args(argv)
    key = {}
    for name, X, Y in pairs():
        start = time.perf_counter()
        key[name] = exact_values(X, Y)
        print(f"{name}: {key[name]} in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if not args.check:
        doc = {name: {kind: v if math.isfinite(v) else "inf" for kind, v in values.items()} for name, values in key.items()}
        KEY.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return 0
    stored = {name: {kind: float(v) for kind, v in values.items()} for name, values in load().items()}
    same = stored.keys() == key.keys() and all(
        stored[name].keys() == values.keys() and all(agree(stored[name][kind], v) for kind, v in values.items())
        for name, values in key.items()
    )
    print(f"{KEY.name} {'reproduced' if same else 'differs from the searches'}", file=sys.stderr)
    return 0 if same else 1


def load() -> dict:
    """The key as written: {pair name: {kind: value, inf as "inf"}}."""
    return json.loads(KEY.read_text(encoding="utf-8"))


def agree(a: float, b: float) -> bool:
    """Equal to 1e-12, inf only to inf."""
    return a == b or abs(a - b) <= 1e-12


if __name__ == "__main__":
    sys.exit(main())
