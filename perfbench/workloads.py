"""Inputs, operations and output checks of the four benchmark workloads.

Every workload is a closed loop run by one process, one operation at a
time.  A workload's *pass* is a fixed operation sequence built from the
seed and, for the searches, from a fixed stream (see FIXED_STREAM); its
size does not depend on machine speed, so the result-quality metrics of a
pass are the same on every run with the same seed.

  grid-io      CLI subcommands on big gallery grids, one subprocess each
  pairs-local  `dist gh|dis|cdis` above the exhaustive caps (local search)
  pairs-exact  `dist` on small pairs with raised caps (exact search)
  verify       `verify --seed S`, all suites, twice (as the CI gate does)

Random spaces come from the benchmark's own numpy generator, never from
dirmetric.verify, so the program under test does not choose its inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import zlib
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Sizes of one pass.  They fix the work, so changing them changes the benchmark.
TORUS_K = 32
SQUARE_K = 24
BOOK_N, BOOK_M = 10, 8
NEAR_COPY_SIZES = (8, 9, 10, 11, 12, 13, 14, 15, 16)
#: pairs-exact: seeded small pairs, plus a core of pairs at the cap |X|*|Y| = 20.
EXACT_PAIRS = 160
EXACT_CORE = 24
#: Search time varies more between random pairs than any regression bound
#: allows: exact gh at 4x5 takes 0.004 s to 2.4 s, and seeded near-copies
#: moved pairs-local's median operation by 30%.  So pairs-local's
#: near-copies and pairs-exact's core come from this fixed stream, not the
#: seed, and weigh the same in every run.
FIXED_STREAM = 0
EXACT_BUDGET = ["--budget-exhaustive-gh", "20", "--budget-exhaustive-cdis", "20"]
ORACLE_SAMPLES = 400
TOL = 1e-9
KINDS = ("gh", "dis", "cdis")


# ---------------------------------------------------------------------------
# random spaces (the benchmark's own generator)


def _euclidean(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def random_arrays(rng: np.random.Generator, n: int):
    """Points in the unit square, Euclidean base, a connecting chain of
    edges plus up to n extra ones, lengths stretched by 1 to 1.5 times the
    base distance (so every edge is valid)."""
    pts = rng.random((n, 2))
    base = _euclidean(pts)
    while n > 1 and base[~np.eye(n, dtype=bool)].min() < 1e-3:
        pts = rng.random((n, 2))
        base = _euclidean(pts)
    chain = rng.permutation(n)
    pairs = [(int(chain[i]), int(chain[i + 1])) for i in range(n - 1)]
    for _ in range(int(rng.integers(0, n + 1))):
        i, j = (int(v) for v in rng.integers(n, size=2))
        if i != j:
            pairs.append((i, j))
    edges = [(i, j, float(base[i, j] * rng.uniform(1.0, 1.5))) for i, j in pairs]
    return base, edges


def near_copy(rng: np.random.Generator, base: np.ndarray, edges):
    """Y = X relabelled by a random permutation, edge lengths stretched by
    up to 20%.  Returns Y's base, edges and the permutation (x -> perm[x])."""
    n = base.shape[0]
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    y_edges = [(int(perm[s]), int(perm[d]), float(l * rng.uniform(1.0, 1.2))) for s, d, l in edges]
    return base[np.ix_(inv, inv)], y_edges, perm


def zigzag(n: int, edges) -> np.ndarray:
    """Zigzag matrix computed here, independently of the program."""
    w = np.full((n, n), np.inf)
    for s, d, length in edges:  # parallel edges: the shortest counts
        w[s, d] = w[d, s] = min(w[s, d], length)
    return dijkstra(csr_matrix(np.where(np.isfinite(w), w, 0.0)), directed=False)


def planted_bound(zx: np.ndarray, zy: np.ndarray, perm: np.ndarray) -> float:
    """Half the distortion of the planted relabelling.

    The relabelling is a d-correspondence and, with its inverse, a pair of
    direction-respecting maps, so this bounds gh, dis and cdis from above.
    """
    return 0.5 * float(np.max(np.abs(zx - zy[np.ix_(perm, perm)])))


# ---------------------------------------------------------------------------
# inputs


def _save(space, path: Path, digest) -> str:
    from dirmetric.fileio import save_space

    save_space(space, str(path))
    digest.update(path.read_bytes())
    return path.name


def _gallery_pairs():
    from dirmetric import (
        GridSpec,
        directed_interval,
        directed_square_grid,
        hollow_square,
        open_book,
        reverse,
        source_sink_interval,
    )

    arm = source_sink_interval(8)
    return [
        ("interval-8-12", directed_interval(8), directed_interval(12)),
        ("square-4-6", directed_square_grid(GridSpec(k=4)), directed_square_grid(GridSpec(k=6))),
        ("two-arm-8-reversed", arm, reverse(arm)),
        ("open-book-3-4", open_book(3, 3), open_book(4, 3)),
        ("hollow-square-2-3", hollow_square(2), hollow_square(3)),
    ]


def _exact_shapes():
    """(near_copy, nX, nY) of the seeded small pairs: half near-copies with
    n = 2, 3, 4 points, half independent pairs with nX*nY <= 16."""
    independent = [(a, b) for a in range(2, 6) for b in range(2, 6) if a * b <= 16]
    shapes = []
    for i in range(EXACT_PAIRS):
        if i % 2 == 0:
            n = 2 + (i // 2) % 3
            shapes.append((True, n, n))
        else:
            shapes.append((False, *independent[(i // 2) % len(independent)]))
    return shapes


def _pair_ops(name, x_path, y_path, meta, extra):
    return [{"argv": ["dist", kind, x_path, y_path, *extra], "pair": name, "kind": kind, **meta} for kind in KINDS]


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Build the workload's inputs under `work`; return the pass manifest.

    The manifest lists the pass's operations, with file names relative to
    `work` (operations run there), and a sha256 digest of every input
    byte, so equal seeds can be shown to give equal inputs.
    """
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    digest = hashlib.sha256()
    ops: list[dict] = []
    if workload == "grid-io":
        ops = _grid_ops(rng)
    elif workload == "verify":
        ops = [{"argv": ["verify", "--seed", str(seed)]} for _ in range(2)]
    elif workload == "pairs-local":
        for name, a, b in _gallery_pairs():
            x, y = _save(a, work / f"{name}.X.json", digest), _save(b, work / f"{name}.Y.json", digest)
            ops += _pair_ops(name, x, y, {}, [])
        fixed = np.random.default_rng(FIXED_STREAM)
        for i, n in enumerate(NEAR_COPY_SIZES):
            ops += _near_copy_ops(fixed, f"near-{i}-n{n}", n, work, digest, [])
    elif workload == "pairs-exact":
        core = np.random.default_rng(FIXED_STREAM)
        for i in range(EXACT_CORE):
            ops += _independent_ops(core, f"core-{i}", (4, 5) if i % 2 == 0 else (5, 4), work, digest)
        for i, (copy, nx, ny) in enumerate(_exact_shapes()):
            if copy:
                ops += _near_copy_ops(rng, f"near-{i}-n{nx}", nx, work, digest, EXACT_BUDGET)
            else:
                ops += _independent_ops(rng, f"indep-{i}", (nx, ny), work, digest)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    digest.update(json.dumps(ops, sort_keys=True).encode())
    return {"workload": workload, "seed": seed, "ops": ops, "input_sha256": digest.hexdigest()}


def _near_copy_ops(rng, name, n, work, digest, extra):
    from dirmetric import FiniteDSpace

    bx, ex = random_arrays(rng, n)
    by, ey, perm = near_copy(rng, bx, ex)
    x = _save(FiniteDSpace(base=bx, edges=tuple(ex)), work / f"{name}.X.json", digest)
    y = _save(FiniteDSpace(base=by, edges=tuple(ey)), work / f"{name}.Y.json", digest)
    zx, zy = zigzag(n, ex), zigzag(n, ey)
    meta = {"planted": planted_bound(zx, zy, perm), "naive": _naive_gh(zx, zy) if n * n <= 9 else None}
    return _pair_ops(name, x, y, meta, extra)


def _independent_ops(rng, name, shape, work, digest):
    from dirmetric import FiniteDSpace

    (nx, ny), paths, zz = shape, [], []
    for side, n in (("X", shape[0]), ("Y", shape[1])):
        base, edges = random_arrays(rng, n)
        paths.append(_save(FiniteDSpace(base=base, edges=tuple(edges)), work / f"{name}.{side}.json", digest))
        zz.append(zigzag(n, edges))
    meta = {"naive": _naive_gh(*zz) if nx * ny <= 9 else None}
    return _pair_ops(f"{name}-{nx}x{ny}", *paths, meta, EXACT_BUDGET)


def _naive_gh(zx, zy) -> float:
    from dirmetric.verify import naive_min_correspondence_distortion

    return 0.5 * naive_min_correspondence_distortion(zx, zy)


def _grid_label(i: int, j: int, k: int) -> str:
    return f"({i / k:.10g},{j / k:.10g})"


def _grid_ops(rng: np.random.Generator) -> list[dict]:
    """Shell use of the CLI; the seed picks ball centres and radii and the
    square-grid entries checked against the continuum oracle."""
    ops = []
    for grid, k, span in (("torus", TORUS_K, TORUS_K), ("square", SQUARE_K, SQUARE_K + 1)):
        i, j = (int(v) for v in rng.integers(span, size=2))
        radius = f"{rng.uniform(0.2, 0.4):.3f}"
        ops += [
            {"argv": ["gen", grid, "--k", str(k), "--out", f"{grid}.json"], "sub": "gen",
             "files": [f"{grid}.json"], "points": k * k if grid == "torus" else (k + 1) ** 2},
            {"argv": ["zigzag", f"{grid}.json", "--out", f"{grid}_zz.csv"], "sub": "zigzag",
             "files": [f"{grid}_zz.csv", f"{grid}_zz.reach.csv"], "space": f"{grid}.json"},
            {"argv": ["ball", f"{grid}.json", "--center", _grid_label(i, j, k), "--radius", radius,
                      "--out", f"{grid}_ball.csv"], "sub": "ball",
             "files": [f"{grid}_ball.csv", f"{grid}_ball.svg"], "zz": f"{grid}_zz.csv"},
        ]
    ops[4]["oracle_pairs"] = rng.integers((SQUARE_K + 1) ** 2, size=(ORACLE_SAMPLES, 2)).tolist()
    book = ["open-book", "--n", str(BOOK_N), "--m", str(BOOK_M)]
    ops += [
        {"argv": ["gen", *book], "sub": "gen", "files": [], "stdout_to": "book.json"},
        {"argv": ["zigzag", "book.json"], "sub": "zigzag", "files": [], "spine": 1.0 / BOOK_N},
    ]
    return ops


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems (empty when the output is right)


def check_dist(op: dict, doc: dict) -> list[str]:
    bad = []
    value, lower = float(doc["value"]), float(doc["lower"])  # float("inf") reads "inf"
    if not lower <= value + TOL:
        bad.append(f"lower {lower} above value {value}")
    check = doc.get("certificate_check")
    if check is False or (math.isfinite(value) and check is not True):
        bad.append(f"certificate_check {check} for value {value}")
    planted = op.get("planted")
    if planted is not None:
        if lower > planted + TOL:
            bad.append(f"lower {lower} above the planted witness {planted}")
        if doc["exact"] and value > planted + TOL:
            bad.append(f"exact value {value} above the planted witness {planted}")
    if op["kind"] == "gh" and op.get("naive") is not None:
        if not (doc["exact"] and abs(value - op["naive"]) <= TOL):
            bad.append(f"gh {value} (exact={doc['exact']}) differs from naive enumeration {op['naive']}")
    return bad


def read_csv_matrix(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    labels = next(csv.reader(lines[:1]))
    body = np.array([row.split(",") for row in lines[1:]]).astype(float)
    return labels, body


def _load_base(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["labels"], np.array(doc["base"], dtype=object).astype(float)


def check_grid(op: dict, doc: dict, work: Path, cache: dict) -> list[str]:
    """Checks of one grid-io command; `cache` carries parsed files forward."""
    from dirmetric.gallery import label_coords, square_zigzag_oracle, step_ratio

    bad = []
    sub = op["sub"]
    if sub == "gen" and "points" in op and doc.get("points") != op["points"]:
        bad.append(f"gen wrote {doc.get('points')} points, expected {op['points']}")
    if sub == "gen" and "stdout_to" in op and len(doc.get("labels", [])) != 2 + BOOK_N * (BOOK_M - 1):
        bad.append("open-book document has the wrong point count")
    if sub == "zigzag" and "space" in op:
        labels, base = _load_base(work / op["space"])
        head, zz = read_csv_matrix(work / op["files"][0])
        _, reach = read_csv_matrix(work / op["files"][1])
        cache[op["files"][0]] = (labels, zz)
        if head != labels:
            bad.append("zigzag CSV header differs from the space labels")
        if zz.shape != base.shape or reach.shape != base.shape:
            bad.append("zigzag CSV has the wrong shape")
            return bad
        bad += _metric_problems(zz)
        if (zz < base - TOL).any():
            bad.append("zigzag below base")
        if not (np.isin(reach, (0.0, 1.0)).all() and np.diag(reach).all() and np.isfinite(zz[reach > 0]).all()):
            bad.append("reachability CSV is not a reflexive 0/1 matrix inside the finite zigzag pattern")
        if "oracle_pairs" in op:
            k = SQUARE_K
            pts = np.array([label_coords(lbl) for lbl in labels])
            pairs = np.array(op["oracle_pairs"])
            grid = zz[pairs[:, 0], pairs[:, 1]]
            oracle = square_zigzag_oracle(pts[pairs[:, 0]], pts[pairs[:, 1]])
            if not ((grid >= oracle - TOL) & (grid <= step_ratio() * oracle + 3.0 / k + TOL)).all():
                bad.append("square grid zigzag outside the continuum-oracle envelope")
    if sub == "zigzag" and "spine" in op:
        zz = np.array(doc["zigzag"], dtype=object).astype(float)
        bad += _metric_problems(zz)
        a, b = doc["labels"].index("a"), doc["labels"].index("b")
        if abs(zz[a, b] - op["spine"]) > TOL:
            bad.append(f"open-book spine distance {zz[a, b]}, expected {op['spine']}")
    if sub == "ball":
        labels, zz = cache[op["zz"]]
        center = labels.index(op["argv"][op["argv"].index("--center") + 1])
        radius = float(op["argv"][op["argv"].index("--radius") + 1])
        expected = int((zz[center] <= radius).sum())
        members = sum(line.endswith(",1") for line in (work / op["files"][0]).read_text().splitlines()[1:])
        if not doc.get("count") == members == expected:
            bad.append(f"ball count {doc.get('count')}, CSV members {members}, zigzag row says {expected}")
        if not (work / op["files"][1]).read_text().startswith("<svg"):
            bad.append("ball SVG missing")
    return bad


def _metric_problems(zz: np.ndarray) -> list[str]:
    bad = []
    if (np.diag(zz) != 0).any():
        bad.append("zigzag diagonal not zero")
    if not np.array_equal(zz, zz.T):
        bad.append("zigzag not symmetric")
    return bad


def chain_holds(values: dict) -> bool:
    """gh <= dis <= cdis within TOL (inf compares as a value)."""
    return values["gh"] <= values["dis"] + TOL and values["dis"] <= values["cdis"] + TOL
