"""Slow reference implementations the tests compare the library against.

Everything here is written in the most obvious way possible (label
relaxation over explicit neighbour lists, recursive reachability, file
formats one value at a time) and shares no code with the shortest-path,
search or serialization machinery under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, is_dataclass
from typing import Optional

import numpy as np

from dirmetric import INFINITY, SpaceFormatError, ext_abs_diff
from dirmetric.distances import DEFAULT_BUDGET, SearchBudget, distortion_relation
from dirmetric.verify import CHECKS, SUITES, CheckResult

INF = float("inf")


def relax_zigzag(n: int, edges) -> np.ndarray:
    """All-pairs least walk length ignoring edge direction.

    Plain Bellman-Ford style relaxation until a fixed point; quadratic
    and proud of it.
    """
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    und = [(s, t, l) for (s, t, l) in edges] + [(t, s, l) for (s, t, l) in edges]
    changed = True
    while changed:
        changed = False
        for (s, t, l) in und:
            for src in range(n):
                cand = d[src, s] + l
                if cand < d[src, t] - 1e-15:
                    d[src, t] = cand
                    changed = True
    return d


def symmetrized_min(dist) -> np.ndarray:
    """min(d, d.T) with a zero diagonal, as one full-size array."""
    out = np.minimum(dist, dist.T)
    np.fill_diagonal(out, 0.0)
    return out


def recursive_reachability(n: int, edges) -> np.ndarray:
    """Directed reachability by depth-first search from every point."""
    nbrs = [[] for _ in range(n)]
    for (s, t, _) in edges:
        nbrs[s].append(t)
    out = np.zeros((n, n), dtype=bool)
    for src in range(n):
        stack = [src]
        seen = {src}
        while stack:
            u = stack.pop()
            out[src, u] = True
            for v in nbrs[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return out


def all_maps(n_from: int, n_to: int):
    """Every function [n_from] -> [n_to] as a tuple of images."""
    if n_from == 0:
        yield ()
        return
    for rest in all_maps(n_from - 1, n_to):
        for v in range(n_to):
            yield rest + (v,)


def slow_map_distortion(images, dA, dB) -> float:
    worst = 0.0
    for i in range(len(images)):
        for j in range(len(images)):
            a = dA[i, j]
            b = dB[images[i], images[j]]
            if a == INF and b == INF:
                continue
            worst = max(worst, abs(a - b))
    return worst


def slow_pair_objective(f, g, dX, dY) -> float:
    """Map-pair objective: both distortions and the codistortion, by loops."""
    codis = 0.0
    for x in range(len(f)):
        for y in range(len(g)):
            a = dX[x, g[y]]
            b = dY[f[x], y]
            if a == INF and b == INF:
                continue
            codis = max(codis, abs(a - b))
    return max(slow_map_distortion(f, dX, dY), slow_map_distortion(g, dY, dX), codis)


def slow_min_map_pair(X, Y) -> float:
    """Least map-pair objective over every pair of d-maps, by enumerating maps.

    X and Y are analyzed spaces.  f runs over all_maps(|X|, |Y|) and g over
    all_maps(|Y|, |X|), each kept when it sends every edge of its source
    into the target's reach, and each pair is scored by slow_pair_objective.
    inf when every pair scores inf.  Keep |Y|^|X| * |X|^|Y| to a few thousand.
    """

    def dmaps(S, T):
        edges = list(zip(S.space.src.tolist(), S.space.dst.tolist()))
        return [m for m in all_maps(S.n, T.n) if all(T.reach[m[a], m[b]] for a, b in edges)]

    G = dmaps(Y, X)
    return min((slow_pair_objective(f, g, X.zz, Y.zz) for f in dmaps(X, Y) for g in G), default=INF)


def slow_descend(f, g, dX, dY, edgesX, edgesY, reachX, reachY):
    """Pointwise map-pair descent re-scoring the whole objective per candidate.

    Sweeps f's points then g's; each point tries every other image in index
    order, skips images that send an edge at the point outside reach, and
    keeps one only when it scores lower by more than 1e-15.  Returns
    (objective, f, g) with the maps as lists.
    """
    f, g = [int(v) for v in f], [int(v) for v in g]
    val = slow_pair_objective(f, g, dX, dY)
    for _ in range(60):
        improved = False
        for images, n_opts, edges, reach in ((f, len(g), edgesX, reachY), (g, len(f), edgesY, reachX)):
            for u in range(len(images)):
                cur = images[u]
                best_y, best_v = cur, val
                for y in range(n_opts):
                    if y == cur:
                        continue
                    images[u] = y
                    if not all(reach[images[s], images[d]] for (s, d, _) in edges if u in (s, d)):
                        continue
                    v = slow_pair_objective(f, g, dX, dY)
                    if v < best_v - 1e-15:
                        best_y, best_v = y, v
                images[u] = best_y
                if best_v < val - 1e-15:
                    val = best_v
                    improved = True
        if not improved:
            break
    return val, f, g


def slow_random_greedy_map(dS, dT, neighbours, reachT, rng):
    """Random-order greedy d-map, rescoring each placement against every placed point.

    The same rng draws, in the same order, as the library's incremental
    version: a permutation of the roots, a shuffle of each BFS frontier,
    then per placed point an integer (the first point) or a uniform noise
    vector over its legal images.  Legality and cost are recomputed from
    the placed points each time.  Returns the images, or None on a dead end.
    """
    nS = dS.shape[0]
    out_e, in_e, adj = neighbours
    order = []
    seen = np.zeros(nS, dtype=bool)
    for r in rng.permutation(nS):
        if seen[r]:
            continue
        seen[r] = True
        queue = [int(r)]
        while queue:
            u = queue.pop(0)
            order.append(u)
            nbrs = [w for w in adj[u] if not seen[w]]
            rng.shuffle(nbrs)
            for w in nbrs:
                seen[w] = True
                queue.append(w)

    images = np.full(nS, -1, dtype=int)
    for u in order:
        heads, tails = images[out_e[u]], images[in_e[u]]
        legal = reachT[:, heads[heads >= 0]].all(axis=1) & reachT[tails[tails >= 0], :].all(axis=0)
        cand = np.flatnonzero(legal)
        if cand.size == 0:
            return None
        placed = np.flatnonzero(images >= 0)
        if placed.size == 0:
            y = int(cand[rng.integers(cand.size)])
        else:
            cost = ext_abs_diff(dS[u, placed][None, :], dT[np.ix_(cand, images[placed])]).max(axis=1)
            finite = cost[np.isfinite(cost)]
            spread = float(finite.min()) if finite.size else 1.0
            noisy = cost + rng.uniform(0.0, 1e-9 + 0.05 * (spread + 1e-3), cand.size)
            y = int(cand[np.argmin(noisy)])
        images[u] = y
    return images


def slow_is_dcorrespondence(pairs, reach_source, reach_target) -> bool:
    """Every two related pairs (x, y), (x2, y2) agree: x reaches x2 iff y reaches y2.

    Only the reachability condition; covering both sides is checked apart.
    """
    for x, y in pairs:
        for x2, y2 in pairs:
            if reach_source[x, x2] != reach_target[y, y2]:
                return False
    return True


def slow_min_dcorrespondence(dX, dY, reach_source, reach_target) -> float:
    """Least distortion over all d-correspondences, by enumerating relations.

    Walks every subset of the pair grid, keeps those covering both sides
    that pass slow_is_dcorrespondence, and scores each with a double loop
    (|inf - inf| = 0).  inf when none exists.  |X|*|Y| <= 12 only.
    """
    nX, nY = len(dX), len(dY)
    grid = [(x, y) for x in range(nX) for y in range(nY)]
    assert len(grid) <= 12, "2^(|X||Y|) relations; keep |X|*|Y| <= 12"
    best = INF
    for mask in range(1, 1 << len(grid)):
        pairs = [grid[i] for i in range(len(grid)) if mask >> i & 1]
        if {x for x, _ in pairs} != set(range(nX)) or {y for _, y in pairs} != set(range(nY)):
            continue
        if not slow_is_dcorrespondence(pairs, reach_source, reach_target):
            continue
        worst = 0.0
        for x, y in pairs:
            for x2, y2 in pairs:
                a, b = dX[x, x2], dY[y, y2]
                if not (a == INF and b == INF):
                    worst = max(worst, abs(a - b))
        best = min(best, worst)
    return best


def subset_cover_distortions(dX, dY, compat=None) -> np.ndarray:
    """The distortion of every relation that covers both sides, by brute force.

    Walks all 2^(|X|*|Y|) subsets of the pair grid at once, as rows of a
    bool matrix (pair p = x * |Y| + y), and keeps those meeting every row
    and column; with compat, the (|X|*|Y|)^2 table of reach_compat_matrix,
    only those whose every two pairs it allows.  A cover under threshold t
    exists iff some returned distortion is at most t.  |X|*|Y| <= 16 only.
    """
    nX, nY = len(dX), len(dY)
    mn = nX * nY
    assert mn <= 16, "2^(|X||Y|) relations; keep |X|*|Y| <= 16"
    S = (np.arange(1 << mn)[:, None] >> np.arange(mn) & 1).astype(bool)
    grid = S.reshape(-1, nX, nY)
    keep = grid.any(axis=2).all(axis=1) & grid.any(axis=1).all(axis=1)
    worst = np.zeros(S.shape[0])
    for p in range(mn):
        for q in range(mn):
            both = S[:, p] & S[:, q]
            a, b = dX[p // nY, q // nY], dY[p % nY, q % nY]
            worst[both] = np.maximum(worst[both], 0.0 if a == b == INF else abs(a - b))
            if compat is not None and not compat[p, q]:
                keep &= ~both
    return worst[keep]


def loop_min_correspondence_distortion(dX: np.ndarray, dY: np.ndarray) -> float:
    """verify.naive_min_correspondence_distortion as it was: one Python
    pass and one distortion_relation call per covering relation."""
    nX, nY = dX.shape[0], dY.shape[0]
    pairs = [(x, y) for x in range(nX) for y in range(nY)]
    best = INFINITY
    for mask in range(1, 1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if len({x for x, _ in chosen}) < nX or len({y for _, y in chosen}) < nY:
            continue
        best = min(best, distortion_relation(chosen, dX, dY))
    return best


def table_bnb_correspondence(dX: np.ndarray, dY: np.ndarray):
    """Exact minimum-distortion correspondence via branch and bound.

    Coverability is read from (m + 1) x |X| and (m + 1) x |Y| tables of
    how many pairs of each row and column sit at or after each position:
    the reference for the library's search, which reads it off the
    position and must return the same value and pairs.
    """
    nX, nY = dX.shape[0], dY.shape[0]
    m = nX * nY
    C = ext_abs_diff(dX[:, None, :, None], dY[None, :, None, :]).reshape(m, m)

    # how many pairs of each row/column sit at or after position i
    row_of = np.arange(m) // nY
    col_of = np.arange(m) % nY
    row_suffix = np.zeros((m + 1, nX), dtype=int)
    col_suffix = np.zeros((m + 1, nY), dtype=int)
    for i in range(m - 1, -1, -1):
        row_suffix[i] = row_suffix[i + 1]
        col_suffix[i] = col_suffix[i + 1]
        row_suffix[i, row_of[i]] += 1
        col_suffix[i, col_of[i]] += 1

    # incumbents: the identity when nX == nY, and every x to 0 with 0 to every y
    incumbents = [[x * nY for x in range(nX)] + list(range(1, nY))]
    if nX == nY:
        incumbents.insert(0, [x * nY + x for x in range(nX)])
    best_val = INFINITY
    best: Optional[list[int]] = None
    for ps in incumbents:
        val = float(np.max(C[np.ix_(ps, ps)]))
        if val < best_val:
            best_val, best = val, ps

    chosen: list[int] = []

    def covered_ok(i: int, rows_missing, cols_missing) -> bool:
        return not (rows_missing & (row_suffix[i] == 0)).any() and not (cols_missing & (col_suffix[i] == 0)).any()

    rows_have = np.zeros(nX, dtype=int)
    cols_have = np.zeros(nY, dtype=int)

    def rec(i: int, partial: float):
        nonlocal best_val, best
        if partial >= best_val:
            return
        if i == m:
            if (rows_have > 0).all() and (cols_have > 0).all():
                best_val, best = partial, list(chosen)
            return
        if not covered_ok(i, rows_have == 0, cols_have == 0):
            return
        # include pair i
        add = float(np.max(C[i, chosen])) if chosen else 0.0
        new_partial = max(partial, add)
        if new_partial < best_val:
            chosen.append(i)
            rows_have[row_of[i]] += 1
            cols_have[col_of[i]] += 1
            rec(i + 1, new_partial)
            chosen.pop()
            rows_have[row_of[i]] -= 1
            cols_have[col_of[i]] -= 1
        # exclude pair i
        rec(i + 1, partial)

    rec(0, 0.0)
    if best is None:
        return INFINITY, None
    return best_val, sorted((int(p // nY), int(p % nY)) for p in best)


def reach_compat_matrix(reach_source, reach_target) -> np.ndarray:
    """The (|X|*|Y|)^2 bool table of pairs of pairs that fit in one d-correspondence.

    Entry [x * |Y| + y, x2 * |Y| + y2] holds when x reaches x2 iff y
    reaches y2, and x2 reaches x iff y2 reaches y.
    """
    nX, nY = reach_source.shape[0], reach_target.shape[0]
    fwd = (reach_source[:, None, :, None] == reach_target[None, :, None, :]).reshape(nX * nY, nX * nY)
    return fwd & fwd.T


def table_arc_consistent_candidates(compat, nX, nY) -> np.ndarray:
    """Arc consistency on the whole compatibility table, as a flat pair mask.

    Every round sweeps compat as an (|X|*|Y|) x |X| x |Y| tensor of live
    partners: a pair survives when each row and each column holds one.
    """
    mn = nX * nY
    cand = np.ones(mn, dtype=bool)
    compat3r = compat.reshape(mn, nX, nY)
    while True:
        live = compat3r & cand.reshape(1, nX, nY)
        new = cand & live.any(axis=2).all(axis=1) & live.any(axis=1).all(axis=1)
        if (new == cand).all():
            return new
        cand = new


def full_table_threshold_correspondence(dX, dY, compat, cand, T, floor, node_limit):
    """The threshold search with its whole pair tables built up front.

    The search the library ran before it built pair rows on demand: the
    (|X|*|Y|)^2 float table of pair costs and the compatibility table
    restricted to cand are held whole, and threshold t's constraint table
    is compat & (costs <= t).  compat must be a table here; pass an
    all-true one for gh.  T is the sorted threshold list, ending in inf,
    that the bisection walks, until its bracket meets to 2e-12, as in the
    library.  Recursive, so for small inputs only.  Returns (lower, value,
    pairs) like the library.
    """
    nY = dY.shape[0]
    P = np.flatnonzero(cand)
    xs, ys = P // nY, P % nY
    C = ext_abs_diff(dX[np.ix_(xs, xs)], dY[np.ix_(ys, ys)])
    compat = compat[np.ix_(P, P)]
    nodes_left = node_limit
    chosen = []

    def cover(A, live, rows, cols):
        nonlocal nodes_left
        if rows.all() and cols.all():
            return True
        nodes_left -= 1
        if nodes_left < 0:
            return False
        row_live = np.where(rows, P.size + 1, np.bincount(xs[live], minlength=rows.size))
        col_live = np.where(cols, P.size + 1, np.bincount(ys[live], minlength=cols.size))
        if row_live.min() <= col_live.min():
            line = live & (xs == row_live.argmin())
        else:
            line = live & (ys == col_live.argmin())
        for p in np.flatnonzero(line).tolist():
            chosen.append(p)
            r, c = rows.copy(), cols.copy()
            r[xs[p]] = c[ys[p]] = True
            if cover(A, live & A[p], r, c):
                return True
            chosen.pop()
            live[p] = False
        return False

    lo, hi, best = int(np.searchsorted(T, floor)), T.size - 1, None
    while T[hi] > T[lo] + 2e-12:  # the library's stop: a bracket met to rounding
        mid = (lo + hi) // 2 if best is not None else hi - 1
        A = compat & (C <= T[mid])
        chosen.clear()
        if cover(A, np.diagonal(A).copy(), np.zeros(dX.shape[0], dtype=bool), np.zeros(nY, dtype=bool)):
            best = list(chosen)
            hi = int(np.searchsorted(T, C[np.ix_(best, best)].max()))
        elif nodes_left < 0:
            break
        else:
            lo = mid + 1
    pairs = None if best is None else sorted((int(xs[p]), int(ys[p])) for p in best)
    return float(T[lo]), float(T[hi]), pairs


def full_identity_distortion(space) -> float:
    """max |base - Z| over every row of Dijkstra's unsymmetrized zigzag,
    one row block at a time: the reduction the pruned row search replaced."""
    from dirmetric.spaces import _row_blocks, _zigzag, _zigzag_graph

    graph = _zigzag_graph(space.n, space.src, space.dst, space.length)
    worst = 0.0
    for r in _row_blocks(space.n):
        Z = _zigzag(graph, np.arange(r.start, r.stop))
        worst = max(worst, float(np.max(ext_abs_diff(space.base[r], Z))))
    return worst


def diameter_value_gap_lower(dX, dY) -> float:
    """The value-gap lower bound as it was with its diameter-difference
    term: the worst one-sided gap between the two value multisets, or the
    difference of the largest entries, whichever is larger."""
    gaps = [ext_abs_diff(float(np.max(dX)), float(np.max(dY)))] if dX.size and dY.size else [0.0]
    for A, B in ((dX, dY), (dY, dX)):
        av = A.ravel()
        bv = B.ravel()
        b_fin = np.sort(bv[np.isfinite(bv)])
        b_inf = bool(np.isinf(bv).any())
        a_fin = av[np.isfinite(av)]
        worst = 0.0
        if a_fin.size:
            if b_fin.size:
                pos = np.searchsorted(b_fin, a_fin)
                left = np.where(pos > 0, np.abs(a_fin - b_fin[np.maximum(pos - 1, 0)]), INF)
                right = np.where(pos < b_fin.size, np.abs(b_fin[np.minimum(pos, b_fin.size - 1)] - a_fin), INF)
                worst = float(np.max(np.minimum(left, right)))
            else:
                worst = INF
        if np.isinf(av).any() and not b_inf:
            worst = INF
        gaps.append(worst)
    return float(max(gaps))


def cdis_first_dis(X, Y, budget: SearchBudget = DEFAULT_BUDGET) -> tuple[float, float]:
    """(value, lower) of dis between the exhaustive and the pair limit, in
    the order it had before gh's certificate was tried: the choice maps of
    the cdis certificate (each point to its least partner), then, while
    they stay above gh's lower bound, the seeded local search run to its
    end.  It calls the library's three plain searches, not the chain that
    shares their witnesses; only the order is its own.
    """
    from dirmetric.distances import MapPair, _local_search_map_pair, _plain_cdis, _plain_gh

    gh, cdis = _plain_gh(X, Y, budget), _plain_cdis(X, Y, budget)
    val, c = INF, cdis.certificate
    if c is not None:
        f = tuple(min(y for x2, y in c.pairs if x2 == x) for x in range(c.n_source))
        g = tuple(min(x for x, y2 in c.pairs if y2 == y) for y in range(c.n_target))
        val = MapPair(f, g).objective(X.zz, Y.zz)
    if 0.5 * val > gh.lower + 1e-12:
        val = min(val, _local_search_map_pair(X, Y, True, 0.0)[0])
    return 0.5 * val, gh.lower


# ---------------------------------------------------------------------------
# file formats, one value at a time


def slow_jsonable(obj):
    """Plain JSON values by recursion on every entry; non-finite floats
    become "inf" / "-inf" / "nan", numpy scalars and arrays are unwrapped."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return slow_jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): slow_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [slow_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [slow_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def slow_dump_report(obj) -> str:
    """The report bytes: the standard library's indenting encoder."""
    return json.dumps(slow_jsonable(obj), sort_keys=True, indent=2) + "\n"


def slow_base_cells(base_doc) -> np.ndarray:
    """A space file's "base" rows read cell by cell, with the cell's message."""
    n = len(base_doc)
    base = np.empty((n, n))
    for i, row in enumerate(base_doc):
        if not (isinstance(row, list) and len(row) == n):
            raise SpaceFormatError(f"base row {i}: expected {n} entries")
        for j, v in enumerate(row):
            if v == "inf":
                base[i, j] = INF
            elif isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SpaceFormatError(f"base[{i}][{j}]: expected a number or \"inf\", got {v!r}")
            else:
                base[i, j] = float(v)
    return base


def json_load_space(path: str):
    """load_space with the standard library's json parser in place of orjson."""
    from dirmetric.fileio import doc_to_space

    with open(path, encoding="utf-8") as fh:
        return doc_to_space(json.load(fh))


def slow_matrix_to_csv(matrix, labels) -> str:
    """CSV through csv.writer cell by cell; floats as repr (inf, -inf, nan)."""
    matrix = np.asarray(matrix)
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(labels)
    integral = matrix.dtype.kind in "biu"
    for row in matrix:
        if integral:
            w.writerow([int(v) for v in row])
        else:
            w.writerow([repr(float(v)) for v in row])
    return out.getvalue()


def loop_max_triangle_defect(d) -> float:
    """max_triangle_defect as it was: one masked n x n defect per middle
    point k, reduced to a Python float each time."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    worst = -INFINITY
    for k in range(n):
        rhs = np.add.outer(d[:, k], d[k, :])
        with np.errstate(invalid="ignore"):
            defect = np.where(np.isinf(rhs), -INFINITY, d - rhs)
        worst = max(worst, float(np.max(defect))) if defect.size else worst
    return worst


def serial_run_checks(suite: str, seed: int = 0, budget: SearchBudget = DEFAULT_BUDGET) -> list[CheckResult]:
    """verify.run_checks as it was: every chosen check in this process, in
    CHECKS order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {', '.join(SUITES)}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    results = []
    for group, name, fn in CHECKS:
        if suite != "all" and group != suite:
            continue
        t0 = time.perf_counter()
        passed, details = fn(seed, budget)
        results.append(CheckResult(group, name, bool(passed), details, time.perf_counter() - t0))
    return results
