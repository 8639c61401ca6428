"""Self-verification suites: seeded ensembles checking the advertised laws.

Each check builds its own deterministic ensemble (seeded per check name,
so reordering checks never changes their data), exercises one advertised
property, and returns a pass flag plus a small numeric summary.  The
command line front end groups them into suites (core / distances /
examples); the test suite runs the same functions, so the shipped
verifier and the development tests cannot drift apart.

run_checks runs the chosen checks in forked worker processes, one per
CPU the process may use, and returns their results in CHECKS order, so
verify's stdout is byte for byte what one process running them in turn
wrote.  When an examples check is chosen, scipy is imported once before
the fork instead of once per worker, and the grid checks' arrays live in
the workers, not in the calling process.
"""

from __future__ import annotations

import math
import os
import time
import zlib
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable

import numpy as np

from .distances import (
    DEFAULT_BUDGET,
    SearchBudget,
    VertexMap,
    codistortion,
    dcorrespondence_distance,
    directed_hausdorff,
    distortion_distance,
    gh_distance,
    hausdorff,
    is_disometry,
    verify_chain,
)
from .extended import INFINITY, ext_abs_diff
from .gallery import (
    DEFAULT_STEPS,
    GridSpec,
    _grid_coords,
    _plane_rows,
    _step_edges,
    _torus_rows,
    directed_interval,
    open_book,
    source_sink_interval,
    square_zigzag_oracle,
    step_ratio,
)
from .spaces import (
    DEFAULT_TOL,
    DirectedMetricSpace,
    FiniteDSpace,
    _zigzag,
    _zigzag_graph,
    compute_zigzag,
    max_triangle_defect,
    quotient,
    reverse,
)


# ---------------------------------------------------------------------------
# seeded ensembles


def random_space(rng: np.random.Generator, n: int, *, connected: bool = True) -> FiniteDSpace:
    """Random valid space: points in a box, Euclidean base, random edges.

    Edge lengths are the base distance stretched by a factor in [1, 1.7],
    so validity holds by construction.  With connected=True a random
    chain through all points keeps the space weakly connected (finite
    zigzag distances everywhere).
    """
    pts = rng.random((n, 3))
    for _ in range(32):
        diff = pts[:, None, :] - pts[None, :, :]
        base = np.sqrt((diff * diff).sum(axis=2))
        off = base[~np.eye(n, dtype=bool)]
        if n == 1 or off.min() > 1e-3:
            break
        pts = rng.random((n, 3))
    edges = []
    if connected and n > 1:
        chain = rng.permutation(n)
        edges.extend((int(chain[i]), int(chain[i + 1])) for i in range(n - 1))
    m_extra = int(rng.integers(0, 2 * n + 1))
    for _ in range(m_extra):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i != j:
            edges.append((i, j))
    stretched = tuple((i, j, float(base[i, j] * rng.uniform(1.0, 1.7))) for (i, j) in edges)
    return FiniteDSpace(base=base, edges=stretched)


def random_pair(rng: np.random.Generator, max_n: int):
    nx = int(rng.integers(1, max_n + 1))
    ny = int(rng.integers(1, max_n + 1))
    return (
        DirectedMetricSpace.from_space(random_space(rng, nx, connected=bool(rng.random() < 0.8))),
        DirectedMetricSpace.from_space(random_space(rng, ny, connected=bool(rng.random() < 0.8))),
    )


def _rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# ---------------------------------------------------------------------------
# independent oracles (deliberately naive; no shared search code)


def naive_min_correspondence_distortion(dX: np.ndarray, dY: np.ndarray) -> float:
    """Minimum distortion over all correspondences by full enumeration.

    Scores every subset of the pair grid at once, pair (x, y) as bit
    p = x*|Y| + y of a mask.  The arrays over masks double once per p:
    a mask holding p scores as the one without it, raised by p's largest
    cost against the bits below p.  That is 2^(|X||Y|) masks at about 32
    bytes each, so keep |X|*|Y| at 20 or less.
    """
    nX, nY = dX.shape[0], dY.shape[0]
    P = nX * nY
    xs, ys = np.divmod(np.arange(P), nY)
    C = ext_abs_diff(dX[np.ix_(xs, xs)], dY[np.ix_(ys, ys)])
    C = np.maximum(C, C.T)  # a relation scores (p, q) and (q, p) alike
    dis, row, cover = np.zeros(1 << P), np.empty(1 << P), np.zeros((2, 1 << P), np.int64)
    for p in range(P):
        row[0] = C[p, p]
        for q in range(p):
            np.maximum(row[: 1 << q], C[p, q], out=row[1 << q : 2 << q])
        np.maximum(dis[: 1 << p], row[: 1 << p], out=dis[1 << p : 2 << p])
        cover[:, 1 << p : 2 << p] = cover[:, : 1 << p] | [[1 << xs[p]], [1 << ys[p]]]
    covers = (cover == [[(1 << nX) - 1], [(1 << nY) - 1]]).all(axis=0)
    return float(dis[covers].min(initial=INFINITY))


# ---------------------------------------------------------------------------
# checks: core


def check_zigzag_metric_axioms(seed: int, budget: SearchBudget):
    """Zigzag matrices of 50 random graphs are extended metrics."""
    rng = _rng_for("zigzag_metric_axioms", seed)
    worst_defect = -INFINITY
    worst_asym = 0.0
    worst_diag = 0.0
    count = 0
    for _ in range(50):
        n = int(rng.integers(2, 41))
        s = random_space(rng, n, connected=bool(rng.random() < 0.7))
        zz = compute_zigzag(s)
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(zz)))))
        worst_asym = max(worst_asym, float(np.max(ext_abs_diff(zz, zz.T))))
        worst_defect = max(worst_defect, max_triangle_defect(zz))
        if (np.isfinite(zz) != np.isfinite(zz).T).any():
            return False, {"error": "asymmetric finiteness pattern"}
        count += 1
    passed = worst_diag <= DEFAULT_TOL and worst_asym <= DEFAULT_TOL and worst_defect <= DEFAULT_TOL
    return passed, {
        "spaces": count,
        "worst_diagonal": worst_diag,
        "worst_asymmetry": worst_asym,
        "worst_triangle_defect": worst_defect,
    }


def check_zigzag_dominates_base(seed: int, budget: SearchBudget):
    """zz >= base entrywise on the same kind of ensemble."""
    rng = _rng_for("zigzag_dominates_base", seed)
    worst = -INFINITY
    for _ in range(50):
        n = int(rng.integers(2, 41))
        s = random_space(rng, n, connected=bool(rng.random() < 0.7))
        zz = compute_zigzag(s)
        with np.errstate(invalid="ignore"):
            below = np.where(np.isinf(zz), -INFINITY, s.base - zz)
        worst = max(worst, float(np.max(below)))
    return worst <= DEFAULT_TOL, {"worst_base_minus_zz": worst}


def check_reversal_invariance(seed: int, budget: SearchBudget):
    """Reversing all edges leaves the zigzag matrix unchanged."""
    rng = _rng_for("reversal_invariance", seed)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 41))
        s = random_space(rng, n, connected=bool(rng.random() < 0.7))
        worst = max(worst, float(np.max(ext_abs_diff(compute_zigzag(s), compute_zigzag(reverse(s))))))
    return worst <= 1e-12, {"worst_entry_difference": worst}


def check_reversal_gh_zero(seed: int, budget: SearchBudget):
    """Exhaustive comparison distance between a space and its reversal is 0."""
    rng = _rng_for("reversal_gh_zero", seed)
    values = []
    for _ in range(12):
        n = int(rng.integers(2, 5))
        s = random_space(rng, n, connected=True)
        X = DirectedMetricSpace.from_space(s)
        Xr = DirectedMetricSpace.from_space(reverse(s))
        r = gh_distance(X, Xr, budget)
        if not r.exact:
            return False, {"error": "search not exhaustive", "n": n}
        values.append(r.value)
    return max(values) == 0.0, {"instances": len(values), "max_value": max(values)}


def check_construction_examples(seed: int, budget: SearchBudget):
    """Frozen spot values for quotient, product, union and interval."""
    from .spaces import disjoint_union, product

    k = 4
    iv = directed_interval(k)
    circle = quotient(iv, [[0, k]] + [[i] for i in range(1, k)])
    zc = compute_zigzag(circle)
    half = circle.index_of("0.5")
    ok = abs(zc[0, half] - 0.5) <= DEFAULT_TOL and circle.n == k

    pr = product(iv, iv)
    zp = compute_zigzag(pr)
    corner = abs(zp[pr.index_of("(1,0)"), pr.index_of("(0,1)")] - 2.0) <= DEFAULT_TOL

    un = disjoint_union(iv, iv)
    zu = compute_zigzag(un)
    cross_inf = bool(np.isinf(zu[: iv.n, iv.n :]).all())

    tri = FiniteDSpace(base=[[0, 1, 2], [1, 0, 1], [2, 1, 0]], edges=((0, 1, 1.0), (2, 1, 1.0)))
    zt = compute_zigzag(tri)
    shared_head = abs(zt[0, 2] - 2.0) <= DEFAULT_TOL

    passed = ok and corner and cross_inf and shared_head
    return passed, {
        "circle_half_way": float(zc[0, half]),
        "product_corner": float(zp[pr.index_of("(1,0)"), pr.index_of("(0,1)")]),
        "union_cross_infinite": cross_inf,
        "shared_head_two": float(zt[0, 2]),
    }


# ---------------------------------------------------------------------------
# checks: distances


def check_chain_inequalities(seed: int, budget: SearchBudget):
    """gh <= dis <= cdis on 30 pairs small enough for exhaustive search."""
    rng = _rng_for("chain_inequalities", seed)
    for _ in range(30):
        X, Y = random_pair(rng, 3)
        rep = verify_chain(X, Y, budget)
        if not rep.conclusive:
            return False, {"error": "inconclusive pair", "nx": X.n, "ny": Y.n}
        if not rep.chain_holds:
            return False, {
                "error": "chain violated",
                "gh": rep.gh.value,
                "dis": rep.dis.value,
                "cdis": rep.cdis.value,
            }
    return True, {"pairs": 30}


def check_gh_oracle_equivalence(seed: int, budget: SearchBudget):
    """Branch-and-bound equals naive enumeration on small pairs."""
    rng = _rng_for("gh_oracle_equivalence", seed)
    worst = 0.0
    for _ in range(12):
        X, Y = random_pair(rng, 3)
        r = gh_distance(X, Y, budget)
        if not r.exact:
            return False, {"error": "search not exhaustive"}
        naive = 0.5 * naive_min_correspondence_distortion(X.zz, Y.zz)
        worst = max(worst, abs(r.value - naive) if math.isfinite(naive) or math.isfinite(r.value) else 0.0)
        if not (r.value == naive or abs(r.value - naive) <= DEFAULT_TOL):
            return False, {"error": "mismatch", "bnb": r.value, "naive": naive}
    return worst <= DEFAULT_TOL, {"pairs": 12, "worst_difference": worst}


def check_disometry_detection(seed: int, budget: SearchBudget):
    """Relabelled copies are detected as d-isometric, inflated ones are not."""
    rng = _rng_for("disometry_detection", seed)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        s = random_space(rng, n, connected=True)
        sigma = rng.permutation(n)
        inv = np.empty(n, dtype=int)
        inv[sigma] = np.arange(n)
        relabelled = FiniteDSpace(
            base=s.base[np.ix_(sigma, sigma)],
            edges=np.column_stack((inv[s.src], inv[s.dst], s.length)),
            labels=tuple(s.labels[j] for j in sigma),
        )
        X = DirectedMetricSpace.from_space(s)
        Y = DirectedMetricSpace.from_space(relabelled)
        r = distortion_distance(X, Y, budget)
        if not (r.exact and r.value == 0.0):
            return False, {"error": "relabelled pair not at distance 0", "value": r.value, "n": n}
        f = np.asarray(r.certificate.forward)
        g = np.asarray(r.certificate.backward)
        if not ((g[f] == np.arange(n)).all() and (f[g] == np.arange(n)).all()):
            return False, {"error": "certificate maps not mutually inverse"}
        if not is_disometry(VertexMap(source=X, target=Y, images=tuple(int(v) for v in f))):
            return False, {"error": "certificate fails the d-isometry test"}
    for _ in range(20):
        n = int(rng.integers(2, 5))
        s = random_space(rng, n, connected=True)
        inflated = FiniteDSpace(base=s.base, edges=np.column_stack((s.src, s.dst, s.length + 0.1)), labels=s.labels)
        X = DirectedMetricSpace.from_space(s)
        Y = DirectedMetricSpace.from_space(inflated)
        r = distortion_distance(X, Y, budget)
        if not r.exact:
            return False, {"error": "search not exhaustive", "n": n}
        if r.value < 0.05 - 1e-12:
            return False, {"error": "inflated pair too close", "value": r.value, "n": n}
    return True, {"relabelled_pairs": 20, "inflated_pairs": 20}


def check_subset_distances(seed: int, budget: SearchBudget):
    """Hausdorff distances on a directed path match hand values."""
    iv = directed_interval(4)
    X = DirectedMetricSpace.from_space(iv)
    d_ends = hausdorff(X.zz, [0], [4])
    d_dir = directed_hausdorff(X, [0], [4])
    d_all = directed_hausdorff(X, list(range(5)), [0])
    ok = abs(d_ends - 1.0) <= DEFAULT_TOL and d_ends == d_dir and abs(d_all - 1.0) <= DEFAULT_TOL
    try:
        hausdorff(X.zz, [], [0])
        return False, {"error": "empty subset accepted"}
    except ValueError:
        pass
    return ok, {"end_to_end": d_ends, "all_to_origin": d_all}


# ---------------------------------------------------------------------------
# checks: examples


def check_source_sink(seed: int, budget: SearchBudget):
    """The two-arm interval against its reversal: all three distances."""
    k = 8
    s = source_sink_interval(k)
    X = DirectedMetricSpace.from_space(s)
    Xr = DirectedMetricSpace.from_space(reverse(s))

    dd = distortion_distance(X, Xr, budget)
    window = (0.5 - 2.0 / k, 0.5 + 2.0 / k)
    dis_ok = window[0] <= dd.value <= window[1]

    cd = dcorrespondence_distance(X, Xr, budget)
    cdis_ok = math.isinf(cd.value) and cd.exact

    s2 = source_sink_interval(2)
    X2 = DirectedMetricSpace.from_space(s2)
    X2r = DirectedMetricSpace.from_space(reverse(s2))
    g2 = gh_distance(X2, X2r, budget)
    gh_ok = g2.value == 0.0 and g2.exact

    # the fold maps: left arm to the far end, right arm shifted down one unit
    n = 2 * k + 1
    f = tuple([0] * k + [i - k for i in range(k, n)])
    gm = tuple([i + k for i in range(0, k + 1)] + [n - 1] * k)
    F = VertexMap(source=X, target=Xr, images=f)
    G = VertexMap(source=Xr, target=X, images=gm)
    fold_ok = (
        F.is_dmap
        and G.is_dmap
        and abs(F.distortion - 1.0) <= DEFAULT_TOL
        and abs(G.distortion - 1.0) <= DEFAULT_TOL
        and abs(codistortion(F, G) - 1.0) <= DEFAULT_TOL
    )
    passed = dis_ok and cdis_ok and gh_ok and fold_ok
    return passed, {
        "dis_value": dd.value,
        "dis_window": list(window),
        "cdis_value": "inf" if math.isinf(cd.value) else cd.value,
        "cdis_exact": cd.exact,
        "cdis_method": cd.method,
        "gh_k2": g2.value,
        "fold_distortions": [F.distortion, G.distortion, codistortion(F, G)],
    }


#: Evenly spaced rows _identity_distortion searches first, then rows per
#: Dijkstra call after them: small batches follow the bounds closely (on
#: the k = 64 square, 264 rows searched against 512 in batches of 64).
_IDENTITY_SEEDS = 64
_IDENTITY_BATCH = 8


def _identity_distortion(graph, base_rows: Callable[[np.ndarray], np.ndarray]) -> float:
    """max |base - Z| over all pairs, reading only the rows that can raise it.

    graph is the _zigzag_graph of the edges and base_rows(rows) returns
    base[rows]: one batch of rows is alive at a time, never an n x n matrix.
    No edge may be shorter than its endpoints' base distance, so Z >= base.
    Z's rows come straight from Dijkstra, unsymmetrized: the value is never
    below the one on compute_zigzag, and equals it where Dijkstra's output
    is symmetric, as on the square grid.  Rows are pruned as in exact
    diameter search (Takes and Kosters, 2011): Z >= base, Z is symmetric and
    both satisfy the triangle inequality, so a searched row r bounds the
    maximum of every row s by max_r + Z[r, s] + base[r, s].  After evenly
    spaced sources, the unsearched rows with the largest bounds are searched
    until every bound is below the maximum found, less DEFAULT_TOL for
    rounding.  An inf bound prunes nothing.
    """
    n = graph.n
    bound = np.full(n, INFINITY)
    searched = np.zeros(n, dtype=bool)
    worst = 0.0
    batch = np.linspace(0, n - 1, min(n, _IDENTITY_SEEDS)).astype(int)
    while batch.size and worst < INFINITY:
        Z = _zigzag(graph, batch)
        base = base_rows(batch)
        row_max = ext_abs_diff(base, Z).max(axis=1)
        worst = max(worst, float(row_max.max()))
        searched[batch] = True
        Z += base
        Z += row_max[:, None]
        np.minimum(bound, Z.min(axis=0), out=bound)
        open_rows = np.flatnonzero(~searched & (bound >= worst - DEFAULT_TOL))
        batch = open_rows[np.argsort(-bound[open_rows], kind="stable")[:_IDENTITY_BATCH]]
    return worst


def check_square_identity(seed: int, budget: SearchBudget):
    """k=64 grid: identity distortion between base and zigzag metrics, base rows from coordinates."""
    k = 64
    src, dst, length = _step_edges(GridSpec(k=k), k + 1)
    x, y = _grid_coords(k, k + 1)
    if (length < np.hypot(x[dst] - x[src], y[dst] - y[src]) - DEFAULT_TOL).any():
        return False, {"error": "edge shorter than its endpoints' base distance"}
    # with identity maps, map_distortion and pair_codistortion are both max |base - Z|
    dis_id = codis_id = _identity_distortion(_zigzag_graph(len(x), src, dst, length), lambda r: _plane_rows(x, y, r))
    target = 2.0 - math.sqrt(2.0)
    return abs(dis_id - target) <= 0.03, {
        "dis_identity": dis_id,
        "codis_identity": codis_id,
        "half_objective": 0.5 * dis_id,
        "target": target,
    }


def check_torus_balls(seed: int, budget: SearchBudget):
    """Zigzag balls on the k=32 torus sit between scaled Euclidean balls: 16 centres' rows only."""
    k = 32
    band = 1.0 / k
    x, y = _grid_coords(k, k)
    centers = np.array([k // 4 * (i * k + j) for i in range(4) for j in range(4)])
    zz = _zigzag(_zigzag_graph(k * k, *_step_edges(GridSpec(k=k), k)), centers)
    failures = 0
    for b, z in zip(_torus_rows(x, y, centers), zz):
        for r in (0.15, 0.30, 0.45):
            inner = b <= r * math.sqrt(2.0) / 2.0 - band
            mid = z <= r
            outer = b <= r + band
            if (inner & ~mid).any() or (mid & ~outer).any():
                failures += 1
    return failures == 0, {"centers": len(centers), "balls": 3 * len(centers), "violations": failures}


def check_open_book(seed: int, budget: SearchBudget):
    """Spine-to-spine zigzag distance is exactly the shortest page, 1/n."""
    values = []
    for n in range(1, 11):
        book = open_book(n, 3)
        zz = compute_zigzag(book)
        values.append(float(zz[book.index_of("a"), book.index_of("b")]))
    errs = [abs(v - 1.0 / (i + 1)) for i, v in enumerate(values)]
    decreasing = all(values[i] > values[i + 1] for i in range(len(values) - 1))
    return max(errs) <= DEFAULT_TOL and decreasing, {"values": values, "worst_error": max(errs)}


#: Sample for the grid convergence check: fixed generic points, snapped to
#: each resolution.  Also the agreement envelope; see step_ratio.
_CONVERGENCE_SEED = 3
_CONVERGENCE_POINTS = 40
_CONVERGENCE_C = 3.0


def check_grid_oracle_convergence(seed: int, budget: SearchBudget):
    """Grid zigzag values approach the analytic square oracle as k grows.

    Uses a frozen generic sample (snapping depends on k, so the sample
    must not): at each resolution the grid value must sit within
    [oracle, ratio * oracle + C/k] at the snapped points, and both the
    max and the mean absolute deviation from the oracle at the true
    points must decrease as k doubles.
    """
    rng = np.random.default_rng(_CONVERGENCE_SEED)
    pts = rng.random((_CONVERGENCE_POINTS, 2))
    ratio = step_ratio(DEFAULT_STEPS)
    O_true = square_zigzag_oracle(pts[:, None], pts[None, :])
    iu = np.triu_indices(len(pts), 1)
    maxes, means = [], []
    envelope_ok = True
    for k in (32, 64, 128):
        snap = np.round(pts * k).astype(int)
        idx = snap[:, 0] * (k + 1) + snap[:, 1]
        sp = snap / k
        sub = _zigzag(_zigzag_graph((k + 1) ** 2, *_step_edges(GridSpec(k=k), k + 1)), idx)[:, idx]
        O_snap = square_zigzag_oracle(sp[:, None], sp[None, :])
        if not ((sub >= O_snap - DEFAULT_TOL) & (sub <= ratio * O_snap + _CONVERGENCE_C / k + DEFAULT_TOL)).all():
            envelope_ok = False
        E = np.abs(sub - O_true)[iu]
        maxes.append(float(E.max()))
        means.append(float(E.mean()))
    decreasing = maxes[0] > maxes[1] > maxes[2] and means[0] > means[1] > means[2]
    return envelope_ok and decreasing, {
        "ratio_bound": ratio,
        "max_errors": maxes,
        "mean_errors": means,
        "envelope_ok": envelope_ok,
    }


def check_plane_examples(seed: int, budget: SearchBudget):
    """Hub-and-spoke and hollow square frozen values."""
    from .gallery import hollow_square, sncf_plane

    sn = sncf_plane([(1.0, 0.0), (2.0, 0.0), (0.0, 1.0), (-1.0, -1.0)])
    Z = compute_zigzag(sn)
    i10, i01, i20 = sn.index_of("(1,0)"), sn.index_of("(0,1)"), sn.index_of("(2,0)")
    cross = abs(Z[i10, i01] - 2.0) <= DEFAULT_TOL
    along = abs(Z[i10, i20] - 1.0) <= DEFAULT_TOL
    diag = sn.index_of("(-1,-1)")
    back = abs(Z[i20, diag] - (2.0 + math.sqrt(2.0))) <= DEFAULT_TOL

    hs = hollow_square()
    Zh = compute_zigzag(hs)
    far = abs(Zh[hs.index_of("(0,0)"), hs.index_of("(1,1)")] - 2.0) <= DEFAULT_TOL
    anti = abs(Zh[hs.index_of("(1,0)"), hs.index_of("(0,1)")] - 2.0) <= DEFAULT_TOL
    passed = cross and along and back and far and anti
    return passed, {
        "sncf_cross_ray": float(Z[i10, i01]),
        "sncf_same_ray": float(Z[i10, i20]),
        "sncf_through_hub": float(Z[i20, diag]),
        "hollow_corner": float(Zh[hs.index_of("(0,0)"), hs.index_of("(1,1)")]),
        "hollow_antichain": float(Zh[hs.index_of("(1,0)"), hs.index_of("(0,1)")]),
    }


# ---------------------------------------------------------------------------
# suite registry and runner


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    details: dict
    seconds: float


CHECKS: tuple[tuple[str, str, Callable], ...] = (
    ("core", "zigzag_metric_axioms", check_zigzag_metric_axioms),
    ("core", "zigzag_dominates_base", check_zigzag_dominates_base),
    ("core", "reversal_invariance", check_reversal_invariance),
    ("core", "construction_examples", check_construction_examples),
    ("distances", "reversal_gh_zero", check_reversal_gh_zero),
    ("distances", "chain_inequalities", check_chain_inequalities),
    ("distances", "gh_oracle_equivalence", check_gh_oracle_equivalence),
    ("distances", "disometry_detection", check_disometry_detection),
    ("distances", "subset_distances", check_subset_distances),
    ("examples", "source_sink", check_source_sink),
    ("examples", "square_identity", check_square_identity),
    ("examples", "torus_balls", check_torus_balls),
    ("examples", "open_book", check_open_book),
    ("examples", "grid_oracle_convergence", check_grid_oracle_convergence),
    ("examples", "plane_examples", check_plane_examples),
)

SUITES = ("core", "distances", "examples", "all")


def _run_check(i: int, seed: int, budget: SearchBudget) -> CheckResult:
    """Run and time CHECKS[i]; a forked worker reads its own copy of CHECKS."""
    group, name, fn = CHECKS[i]
    t0 = time.perf_counter()
    passed, details = fn(seed, budget)
    return CheckResult(group, name, bool(passed), details, time.perf_counter() - t0)


class CheckError(RuntimeError):
    """A check raised, or the worker running it died."""


def run_checks(suite: str, seed: int = 0, budget: SearchBudget = DEFAULT_BUDGET) -> list[CheckResult]:
    """Run one suite (or all) in forked workers and return results in CHECKS order.

    A fork copies only the calling thread: call it from a process that
    runs no other threads.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {', '.join(SUITES)}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    chosen = [i for i, (group, _, _) in enumerate(CHECKS) if suite in ("all", group)]
    if suite in ("all", "examples"):
        # the grid checks search in scipy: import it once, before the fork
        import scipy.sparse.csgraph
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(usable, len(chosen))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_run_check, i, seed, budget) for i in chosen]
        results = []
        for i, future in zip(chosen, futures):
            try:
                results.append(future.result())
            except Exception as exc:
                raise CheckError(f"check {CHECKS[i][1]} did not finish: {exc!r}") from exc
        return results
    finally:
        pool.shutdown(cancel_futures=True)
