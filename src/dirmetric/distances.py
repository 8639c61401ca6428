"""Comparison distances between directed metric spaces.

All comparisons reduce to distortion: how much a relation between two
point sets bends distances, measured in the sup norm with the extended
convention |inf - inf| = 0.  Three distances are computed, forming a
chain (each bounds the previous from above):

  gh_distance              half the least distortion of any correspondence
                           between the zigzag metrics; coincides with the
                           classical metric comparison of the zigzag spaces.
  distortion_distance      half the least joint distortion of a pair of
                           direction-respecting maps (one each way) plus
                           their codistortion coupling term.
  dcorrespondence_distance half the least distortion of a correspondence
                           whose pairs relate points with matching
                           reachability patterns; may be infinite, since
                           such correspondences need not exist.

A direction-respecting vertex map (d-map) sends every edge of the source
into the reachability relation of the target.  Constant maps always
qualify, but the map-pair distance is inf unless both spaces have equally
many weak components, e.g. for a disconnected space against a connected one.

Search strategy.  gh and the d-correspondence distance share one
threshold search over point pairs; cdis adds a reachability rule.  It
bisects a sorted threshold list, largest finite first, and asks
decide(t, budget) of each threshold t: a depth-first search for a
covering set of pairs, every two of cost at most t (and, for cdis,
compatible), branching on the uncovered row or column with the fewest
live pairs and forward-checking each choice.  It finds a cover (a
certificate), proves t infeasible (a lower bound) or, past its node
budget, leaves t undecided.  Sets of pairs are Python ints, bit
x * |Y| + y for pair (x, y): a node's live pairs, the pairs of each row
and column, and the pairs that fit with each pair tried under t, cached
until t changes; a node counts the live pairs of each uncovered line
with one AND and one popcount.  Only per-space matrices are read: the
thresholds are the distinct |a - b| over values a of dX and b of dY,
pair (x, y)'s row of costs is computed from row x of dX and row y of dY
when it is first tried under t, and two pairs are compatible when their
reachability types (reach + 2 * reach.T) agree.  For cdis,
constraint propagation first drops pairs that fit in no
d-correspondence, which proves infeasibility when a point is left
without partner.  gh runs branch and bound up to its exhaustive cap, the
threshold search up to PAIR_LIMIT pairs, and above that dis's map-pair
local search with the direction rule off.  The branch and bound takes pairs in row-major order and
cuts a branch that leaves a row or column uncovered once its position
shows that line has no pair left.  Above their exhaustive caps both
threshold searches stop after NODE_LIMIT nodes, one cap shared by all
the probes of a call, and then report the best certificate and the
proven lower bound, exact only if they meet.

The map-pair distance enumerates map pairs while that is small.  Above
that and up to PAIR_LIMIT pairs it is closed from the chain: gh's lower
bound bounds it from below, and the choice functions of the cdis
certificate bound it from above.  Only a bracket left open runs the
seeded local search.  Greedy starting maps update (point, image) arrays
of worst distortion and legality per placement; descent then moves one
point of one map at a time and scores all candidate images of that point
together in O(n*m).  One errstate covers the local search; its seed is a
private constant, so move order and tie-breaking are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .extended import INFINITY, ext_abs_diff
from .spaces import DEFAULT_TOL, DirectedMetricSpace, _point_indices


@dataclass(frozen=True)
class SearchBudget:
    """Caps deciding when searches are exhaustive.

    exhaustive_gh    : run exact correspondence search when |X|*|Y| is at most this
    exhaustive_cdis  : no node cap on the d-correspondence search up to this |X|*|Y|
    """

    exhaustive_gh: int = 16
    exhaustive_cdis: int = 12

    def __post_init__(self):
        for name, cap in vars(self).items():
            if cap < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {cap}")


DEFAULT_BUDGET = SearchBudget()

#: Exact map-pair search runs when |Y|^|X| * |X|^|Y| is at most this.
MAP_PAIR_LIMIT = 10_000_000
#: Search nodes of the threshold search (gh and cdis) above their exhaustive caps.
NODE_LIMIT = 20_000
#: Largest |X|*|Y| the threshold search takes; cdis refuses larger inputs.
#: It bounds the search's |X|*|Y|-bit sets of pairs and the |X| x |Y| row
#: of costs computed for each pair it tries.
PAIR_LIMIT = 4096

# The map-pair local search (gh above PAIR_LIMIT, dis where the chain
# leaves its bracket open): starting maps
# sampled per side, and the seed of its rng.  Fixed, so equal inputs give
# equal reports.
_RESTARTS = 32
_SEED = 0


# ---------------------------------------------------------------------------
# subset distances


def hausdorff(d: np.ndarray, a, b) -> float:
    """Hausdorff distance between two non-empty index subsets under d."""
    d = np.asarray(d, dtype=float)
    a, b = (np.atleast_1d(_point_indices(s, d.shape[0])) for s in (a, b))
    if a.size == 0 or b.size == 0:
        raise ValueError("hausdorff distance needs non-empty subsets")
    sub = d[np.ix_(a, b)]
    return float(max(sub.min(axis=1).max(), sub.min(axis=0).max()))


def directed_hausdorff(X: DirectedMetricSpace, a, b) -> float:
    """Hausdorff distance of two subsets under the zigzag metric."""
    return hausdorff(X.zz, a, b)


# ---------------------------------------------------------------------------
# maps, relations and their distortion


def map_distortion(images, dX: np.ndarray, dY: np.ndarray) -> float:
    """Sup-norm distortion of the vertex map x -> images[x]."""
    im = _point_indices(images, dY.shape[0], dX.shape[0])
    if im.size == 0:
        return 0.0
    return float(np.max(ext_abs_diff(dX, dY[np.ix_(im, im)])))


def pair_codistortion(f_images, g_images, dX: np.ndarray, dY: np.ndarray) -> float:
    """Coupling defect of maps f: X -> Y and g: Y -> X.

    sup over (x, y) of |dX(x, g y) - dY(f x, y)|; zero iff the two maps
    move each cross pair coherently.
    """
    f = _point_indices(f_images, dY.shape[0], dX.shape[0])
    g = _point_indices(g_images, dX.shape[0], dY.shape[0])
    if f.size == 0 or g.size == 0:
        return 0.0
    return float(np.max(ext_abs_diff(dX[:, g], dY[f, :])))


def distortion_relation(pairs, dX: np.ndarray, dY: np.ndarray) -> float:
    """Sup-norm distortion of a non-empty relation given as (x, y) pairs."""
    xs, ys = _pair_indices(list(pairs), dX.shape[0], dY.shape[0])
    if xs.size == 0:
        raise ValueError("distortion of an empty relation is undefined")
    return float(np.max(ext_abs_diff(dX[np.ix_(xs, xs)], dY[np.ix_(ys, ys)])))


def _pair_indices(pairs, nX: int, nY: int) -> tuple[np.ndarray, np.ndarray]:
    """The x and the y of each (x, y) in a sequence of pairs, as _point_indices checks them."""
    np.reshape(pairs, (len(pairs), 2))  # fails unless each entry is a pair
    xs, ys = zip(*pairs) if len(pairs) else ((), ())  # as given, so a bool is seen as one
    return _point_indices(xs, nX), _point_indices(ys, nY)


@dataclass(frozen=True)
class VertexMap:
    """A vertex map between analyzed spaces, f(x) = images[x]."""

    source: DirectedMetricSpace
    target: DirectedMetricSpace
    images: tuple[int, ...]

    def __post_init__(self):
        images = _point_indices(self.images, self.target.n, self.source.n)
        object.__setattr__(self, "images", tuple(images.tolist()))

    @cached_property
    def is_dmap(self) -> bool:
        """True when every source edge lands in target reachability."""
        space = self.source.space
        im = np.asarray(self.images, dtype=int)
        return bool(self.target.reach[im[space.src], im[space.dst]].all())

    @cached_property
    def distortion(self) -> float:
        """Distortion with respect to the zigzag metrics."""
        return map_distortion(self.images, self.source.zz, self.target.zz)


def codistortion(f: VertexMap, g: VertexMap) -> float:
    """Coupling defect of two opposite maps; rejects mismatched spaces."""
    if f.source is not g.target or f.target is not g.source:
        raise ValueError("codistortion needs maps between the same two spaces, in opposite directions")
    return pair_codistortion(f.images, g.images, f.source.zz, f.target.zz)


@dataclass(frozen=True)
class Correspondence:
    """A relation covering both point sets, as index pairs."""

    n_source: int
    n_target: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        xs, ys = _pair_indices(self.pairs, self.n_source, self.n_target)
        object.__setattr__(self, "pairs", tuple(zip(xs.tolist(), ys.tolist())))

    @cached_property
    def is_correspondence(self) -> bool:
        xs = {x for x, _ in self.pairs}
        ys = {y for _, y in self.pairs}
        return len(xs) == self.n_source and len(ys) == self.n_target

    def is_dcorrespondence(self, reach_source: np.ndarray, reach_target: np.ndarray) -> bool:
        """True when related points have matching reachability patterns."""
        if not self.is_correspondence:
            return False
        P = np.asarray(self.pairs, dtype=int).reshape(-1, 2)
        xs, ys = P[:, 0], P[:, 1]
        return bool((reach_source[np.ix_(xs, xs)] == reach_target[np.ix_(ys, ys)]).all())

    def distortion(self, dX: np.ndarray, dY: np.ndarray) -> float:
        return distortion_relation(self.pairs, dX, dY)


@dataclass(frozen=True)
class MapPair:
    """Certificate for the map-pair distance: images of f and of g."""

    forward: tuple[int, ...]
    backward: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "forward", tuple(int(i) for i in self.forward))
        object.__setattr__(self, "backward", tuple(int(i) for i in self.backward))

    def objective(self, dX: np.ndarray, dY: np.ndarray) -> float:
        return max(
            map_distortion(self.forward, dX, dY),
            map_distortion(self.backward, dY, dX),
            pair_codistortion(self.forward, self.backward, dX, dY),
        )


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of a distance computation.

    value       : the distance (upper bound unless exact)
    exact       : the search provably attained the optimum
    lower       : best proven lower bound (equals value when exact)
    certificate : Correspondence or MapPair attaining value, when one exists
    method      : how the value was obtained
    """

    kind: str
    value: float
    exact: bool
    lower: float
    certificate: object = None
    method: str = ""


# ---------------------------------------------------------------------------
# lower bounds


def _value_gap_lower(dX: np.ndarray, dY: np.ndarray) -> float:
    """Lower bound on the least correspondence distortion from value sets.

    Any correspondence matches every entry of dX with some entry of dY
    and vice versa, so the worst one-sided gap between the two value
    sets bounds every distortion from below.  It bounds the diameter
    difference too, since the largest entry is matched within it.  inf is
    an ordinary value here, the largest, at gap 0 from itself and inf
    from the rest.  In distortion units (twice the distance).
    """
    worst = 0.0
    for A, B in ((dX, dY), (dY, dX)):
        a, b = np.unique(A), np.unique(B)
        if a.size and not b.size:
            return INFINITY
        if a.size:
            pos = np.searchsorted(b, a)
            below, above = b[np.maximum(pos - 1, 0)], b[np.minimum(pos, b.size - 1)]
            worst = max(worst, float(np.minimum(ext_abs_diff(a, below), ext_abs_diff(a, above)).max()))
    return worst


# ---------------------------------------------------------------------------
# correspondence searches: exact branch and bound for gh, threshold search for gh and cdis


def _bnb_correspondence(dX: np.ndarray, dY: np.ndarray):
    """Exact minimum-distortion correspondence via branch and bound.

    Pair x * nY + y is decided at that depth, included before excluded.  From
    pair i on, the rows before i // nY and the last row's columns before
    i - (nX - 1) * nY have no pair left: leaving one uncovered cuts the branch.
    """
    nX, nY = dX.shape[0], dY.shape[0]
    m = nX * nY
    C = ext_abs_diff(dX[:, None, :, None], dY[None, :, None, :]).reshape(m, m)

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
    rows_have = [0] * nX
    cols_have = [0] * nY

    def rec(i: int, partial: float):
        nonlocal best_val, best
        if partial >= best_val:
            return
        if 0 in rows_have[: i // nY] or 0 in cols_have[: max(0, i - (nX - 1) * nY)]:
            return
        if i == m:
            best_val, best = partial, list(chosen)
            return
        x, y = divmod(i, nY)
        # include pair i
        add = float(np.max(C[i, chosen])) if chosen else 0.0
        new_partial = max(partial, add)
        if new_partial < best_val:
            chosen.append(i)
            rows_have[x] += 1
            cols_have[y] += 1
            rec(i + 1, new_partial)
            chosen.pop()
            rows_have[x] -= 1
            cols_have[y] -= 1
        # exclude pair i
        rec(i + 1, partial)

    rec(0, 0.0)
    if best is None:
        return INFINITY, None
    return best_val, sorted(divmod(p, nY) for p in best)


def _reach_types(reach: np.ndarray) -> np.ndarray:
    """Each ordered point pair's reachability both ways, as a type in 0..3.

    Pairs (x, y) and (x2, y2) fit in one d-correspondence exactly when
    typesX[x, x2] == typesY[y, y2].
    """
    return reach + np.int8(2) * reach.T


def _arc_consistent_candidates(typesX: np.ndarray, typesY: np.ndarray) -> np.ndarray:
    """Prune pairs that cannot sit in any d-correspondence; an |X| x |Y| mask.

    A pair needs, in every row and every column, at least one surviving
    compatible partner; iterate to a fixed point.  Sound: members of a
    d-correspondence always survive, so an emptied row or column proves
    there is no d-correspondence at all.  Partners are sought per type k,
    by bool products with the |X| x |X| and |Y| x |Y| masks of type k.
    """
    cand = np.ones((typesX.shape[0], typesY.shape[0]), dtype=bool)
    while True:
        new = cand.copy()
        for k in range(4):
            A, B = typesX == k, typesY == k
            new &= ~(A @ ~(cand @ B.T))  # a row of type k from x with no live partner of y
            new &= ~(~(A @ cand) @ B.T)  # a column of type k from y with no live partner of x
        if (new == cand).all():
            return new
        cand = new


def _greedy_map(dX: np.ndarray, dY: np.ndarray) -> np.ndarray:
    """A map X -> Y matching rows with similar distance profiles."""
    nX, nY = dX.shape[0], dY.shape[0]
    qs = np.linspace(0.0, 1.0, 8)
    with np.errstate(invalid="ignore"):
        px = np.nanquantile(np.where(np.isfinite(dX), dX, np.nan), qs, axis=1).T
        py = np.nanquantile(np.where(np.isfinite(dY), dY, np.nan), qs, axis=1).T
    px = np.nan_to_num(px, nan=0.0)
    py = np.nan_to_num(py, nan=0.0)
    cost = np.abs(px[:, None, :] - py[None, :, :]).max(axis=2)
    return cost.argmin(axis=1)


def _neighbours(n: int, edges):
    """Out- and in-neighbour index arrays of each point, and its sorted neighbours.

    edges are a space's (src, dst) arrays, empty under gh, which has no
    edges to respect; the sorted lists ignore direction.
    """
    src, dst = edges
    out = [dst[src == u] for u in range(n)]
    inn = [src[dst == u] for u in range(n)]
    adj = [sorted(set(o.tolist()) | set(i.tolist())) for o, i in zip(out, inn)]
    return out, inn, adj


def _abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ext_abs_diff, bit for bit, on non-negative nan-free arrays: fmax makes inf - inf 0."""
    return np.fmax(np.abs(a - b), 0.0)


def _legal_moves(u: int, images: np.ndarray, out, inn, reach: np.ndarray) -> np.ndarray:
    """Mask of the images y for point u that keep every edge at u inside reach.

    With no edges at u (always, under gh) every image is legal.
    """
    return reach[:, images[out[u]]].all(axis=1) & reach[images[inn[u]], :].all(axis=0)


def _move_scores(u: int, images: np.ndarray, other: np.ndarray, dS: np.ndarray, dT: np.ndarray, rest: float):
    """Map-pair objective after moving point u of one map, for every image y.

    The map sends S to T; its distortion matrix is D[a, b] =
    |dS[a, b] - dT[images a, images b]| and its codistortion rows are
    K[a, w] = |dS[a, other w] - dT[images a, w]|, other being the map back.
    Moving u to y rewrites only row u and column u of D and row u of K, so
    with rest the maximum of every other objective entry, the objective is
    the maximum of rest and of those three slabs.  Returns the scores and
    the (row, col, cross) slabs, one row per y.
    """
    diag = np.diagonal(dT)
    t_row = dT[:, images]
    t_row[:, u] = diag
    t_col = dT[images, :].T
    t_col[:, u] = diag
    row = _abs_diff(dS[u, :][None, :], t_row)
    col = _abs_diff(dS[:, u][None, :], t_col)
    cross = _abs_diff(dS[u, other][None, :], dT)
    scores = np.maximum(np.maximum(row.max(axis=1), col.max(axis=1)), np.maximum(cross.max(axis=1), rest))
    return scores, row, col, cross


def _random_greedy_map(dS, dT, neighbours, reachT, rng) -> Optional[np.ndarray]:
    """Random-order greedy assignment of a direction-respecting map.

    Points are placed one by one; each placement satisfies the reach
    constraints of edges whose other endpoint is already placed and
    minimizes (with a little seeded noise) the distortion against the
    points placed so far.  Both live in |S| x |T| arrays updated per
    placement: worst[a, y] = max over placed p of |dS[a, p] - dT[y, images p]|;
    legal[a] ANDs reachT[images p, :] over placed in-neighbours p of a and
    reachT[:, images p] over out-neighbours.  neighbours comes from
    _neighbours on the source.  Returns None on a dead end.
    """
    nS, nT = dS.shape[0], dT.shape[0]
    out_e, in_e, adj = neighbours

    # place points in randomized BFS order over the undirected edge graph:
    # every new point is then constrained only through placed neighbours,
    # which avoids most dead ends (all of them, on forests)
    order: list[int] = []
    seen = [False] * nS
    for r in rng.permutation(nS).tolist():
        if seen[r]:
            continue
        seen[r] = True
        queue = [r]
        while queue:
            u = queue.pop(0)
            order.append(u)
            nbrs = [w for w in adj[u] if not seen[w]]
            rng.shuffle(nbrs)
            for w in nbrs:
                seen[w] = True
                queue.append(w)

    images = np.full(nS, -1, dtype=int)
    worst = np.zeros((nS, nT))
    legal = np.ones((nS, nT), dtype=bool)
    for u in order:
        cand = legal[u].nonzero()[0]
        if cand.size == 0:
            return None
        if u == order[0]:
            y = int(cand[rng.integers(cand.size)])
        else:
            cost = worst[u, cand]
            finite = cost[np.isfinite(cost)]
            spread = float(finite.min()) if finite.size else 1.0
            noisy = cost + rng.uniform(0.0, 1e-9 + 0.05 * (spread + 1e-3), cand.size)
            y = int(cand[noisy.argmin()])
        images[u] = y
        # fmax skips the nan of inf - inf, where _abs_diff gives 0
        np.fmax(worst, np.abs(dS[:, u, None] - dT[:, y]), out=worst)
        if out_e[u].size:
            legal[out_e[u]] &= reachT[y, :]
        if in_e[u].size:
            legal[in_e[u]] &= reachT[:, y]
    return images


def _descend(f, g, dX, dY, nbX, nbY, reachX, reachY):
    """Alternating pointwise descent of a map pair from (f, g), in place.

    Sweeps the points of f, then those of g, moving each to the best image
    _move_scores finds among those _legal_moves allows.  nbX and nbY come
    from _neighbours.  Returns the final objective and the two maps.
    """
    # g: Y -> X is moved like f with both metrics transposed: its
    # distortion matrix is then stored transposed and its codistortion
    # column v is row v of K.T, a view that writes through to K
    dXt, dYt = dX.T, dY.T
    Df = _abs_diff(dX, dY[np.ix_(f, f)])
    Dg = _abs_diff(dYt, dXt[np.ix_(g, g)])
    K = _abs_diff(dX[:, g], dY[f, :])
    val = max(float(Df.max()), float(Dg.max()), float(K.max()))
    sides = (
        (f, g, dX, dY, Df, K, Dg, nbX, reachY),
        (g, f, dYt, dXt, Dg, K.T, Df, nbY, reachX),
    )
    for _ in range(60):
        improved = False
        for images, other, dS, dT, D, KS, D_other, (out, inn, _), reach in sides:
            rest_other = float(D_other.max())
            for u in range(images.size):
                cur = int(images[u])
                # entries are >= 0, so zeroed ones drop out of the max
                D[u, :] = 0.0
                D[:, u] = 0.0
                KS[u, :] = 0.0
                rest = max(rest_other, float(D.max()), float(KS.max()))
                v, row, col, cross = _move_scores(u, images, other, dS, dT, rest)
                ok = (v < val - 1e-15) & _legal_moves(u, images, out, inn, reach)
                ok[cur] = False
                best_y, best_v = cur, val
                for y in ok.nonzero()[0].tolist():
                    if v[y] < best_v - 1e-15:
                        best_y, best_v = y, float(v[y])
                images[u] = best_y
                D[u, :] = row[best_y]
                D[:, u] = col[best_y]
                KS[u, :] = cross[best_y]
                if best_v < val - 1e-15:
                    val = best_v
                    improved = True
        if not improved:
            break
    return val, f, g


@np.errstate(invalid="ignore")  # inf - inf in _abs_diff and the greedy step
def _local_search_map_pair(X: DirectedMetricSpace, Y: DirectedMetricSpace, dmaps: bool):
    """Best map pair (f, g) by alternating pointwise descent.

    Objective: max of the two distortions and the codistortion of the
    zigzag metrics.  With dmaps (dis) every move keeps each edge of the
    source inside the target's reach, which constant starting maps always
    do; without (gh) no edge is kept, so reach is never read.

    Each sweep visits the points of f, then those of g, and moves each to
    its best image.  Moving one point changes one row and one column of
    that map's distortion matrix and one row (or column) of the
    codistortion matrix, so all candidate images of the point are scored
    together in O(n*m) from slabs of those entries plus the maximum of
    the unchanged rest.  Candidates are tried in index order and replace
    the best so far only when they score lower by more than 1e-15; with
    the rng seeded by _SEED, the move order and tie-breaking are fixed.
    Greedy starting maps and descent run under one np.errstate, set here.
    """
    dX, dY, reachX, reachY = X.zz, Y.zz, X.reach, Y.reach
    nX, nY = X.n, Y.n
    kept = slice(None) if dmaps else slice(0)
    edgesX, edgesY = (X.space.src[kept], X.space.dst[kept]), (Y.space.src[kept], Y.space.dst[kept])
    rng = np.random.default_rng(_SEED)
    nbX = _neighbours(nX, edgesX)
    nbY = _neighbours(nY, edgesY)

    def add(pool: dict, images) -> None:
        # a pool is an insertion-ordered set of maps, each map a tuple
        if images is not None:
            pool[tuple(images.tolist())] = None

    # constant maps are always direction respecting; identity and greedy
    # profile maps join the pool when they are
    pool_f: dict = {}
    pool_g: dict = {}
    ecc_x = np.argsort(np.where(np.isfinite(dX), dX, 0.0).max(axis=1), kind="stable")
    ecc_y = np.argsort(np.where(np.isfinite(dY), dY, 0.0).max(axis=1), kind="stable")
    for cy in (ecc_y[0], ecc_y[-1]):
        add(pool_f, np.full(nX, cy, dtype=int))
    for cx in (ecc_x[0], ecc_x[-1]):
        add(pool_g, np.full(nY, cx, dtype=int))
    for pool, edges, reach, profile in (
        (pool_f, edgesX, reachY, _greedy_map(dX, dY)),
        (pool_g, edgesY, reachX, _greedy_map(dY, dX)),
    ):
        for im in ([np.arange(nX)] if nX == nY else []) + [profile]:
            if reach[im[edges[0]], im[edges[1]]].all():
                add(pool, im)
    tries = 0
    sample_f = nX * nX * nY <= 20_000_000  # n placements, each updating an n x m array
    sample_g = nY * nY * nX <= 20_000_000
    while (sample_f or sample_g) and (len(pool_f) < _RESTARTS or len(pool_g) < _RESTARTS) and tries < 4 * _RESTARTS:
        tries += 1
        if sample_f and len(pool_f) < _RESTARTS:
            add(pool_f, _random_greedy_map(dX, dY, nbX, reachY, rng))
        if sample_g and len(pool_g) < _RESTARTS:
            add(pool_g, _random_greedy_map(dY, dX, nbY, reachX, rng))

    # cross-pair the pools, keep the most promising pairs, polish those
    F, G = np.array(list(pool_f)), np.array(list(pool_g))
    cross = dX[:, G.T]
    obj = np.array([_codistortions(f, cross, dY) for f in F])
    obj = np.maximum(obj, np.maximum(_batch_map_distortion(dX, dY, F)[:, None], _batch_map_distortion(dY, dX, G)))
    scored = sorted((v, i // len(G), i % len(G)) for i, v in enumerate(obj.ravel().tolist()))
    polish = min(len(scored), max(6, _RESTARTS // 4))
    if (nX * nY) * max(nX, nY) ** 2 > 500_000_000:
        # pointwise descent would be too slow; report the best pool pair
        val0, fi, gi = scored[0]
        return val0, tuple(F[fi].tolist()), tuple(G[gi].tolist())

    best_val, best_f, best_g = INFINITY, None, None
    for val0, fi, gi in scored[:polish]:
        val, f, g = _descend(F[fi].copy(), G[gi].copy(), dX, dY, nbX, nbY, reachX, reachY)
        if val < best_val:
            best_val, best_f, best_g = val, tuple(f.tolist()), tuple(g.tolist())
    return best_val, best_f, best_g


# ---------------------------------------------------------------------------
# the three distances


def gh_distance(X: DirectedMetricSpace, Y: DirectedMetricSpace, budget: SearchBudget = DEFAULT_BUDGET) -> DistanceReport:
    """Half the least correspondence distortion between the zigzag metrics.

    Branch and bound (exact) when |X|*|Y| <= budget.exhaustive_gh; up to
    PAIR_LIMIT the threshold search with every two pairs compatible, capped
    at NODE_LIMIT nodes; above that dis's map-pair local search with the
    direction rule off.  Past the branch and bound, a report is exact only
    if its value meets its proven lower bound.
    """
    dX, dY = X.zz, Y.zz
    nX, nY = X.n, Y.n
    if nX == 0 or nY == 0:
        if nX == 0 and nY == 0:
            return DistanceReport("gh", 0.0, True, 0.0, Correspondence(0, 0, ()), "empty")
        return DistanceReport("gh", INFINITY, True, INFINITY, None, "empty")
    if nX * nY <= budget.exhaustive_gh:
        val, pairs = _bnb_correspondence(dX, dY)
        cert = Correspondence(nX, nY, tuple(pairs)) if pairs is not None else None
        return DistanceReport("gh", 0.5 * val, True, 0.5 * val, cert, "branch-and-bound")
    if nX * nY <= PAIR_LIMIT:
        return _threshold_report("gh", dX, dY, None, np.ones((nX, nY), dtype=bool), NODE_LIMIT)
    val, f, g = _local_search_map_pair(X, Y, dmaps=False)
    cert = _graph_correspondence(f, g) if f is not None else None  # None: no map pair of finite objective
    return _bracket("gh", 0.5 * val, 0.5 * _value_gap_lower(dX, dY), cert, "local-search")


def _graph_correspondence(f, g) -> Correspondence:
    """graph(f) and graph(g)^T: its distortion is the objective of (f, g), term for term."""
    pairs = {(x, y) for x, y in enumerate(f)} | {(x, y) for y, x in enumerate(g)}
    return Correspondence(len(f), len(g), tuple(sorted(pairs)))


def _bracket(kind: str, value: float, lower: float, cert, method: str) -> DistanceReport:
    """A report of value over the proven lower bound, exact once they meet (to 1e-12)."""
    exact = value <= lower + 1e-12
    return DistanceReport(kind, value, exact, value if exact else lower, cert, method)


def distortion_distance(
    X: DirectedMetricSpace, Y: DirectedMetricSpace, budget: SearchBudget = DEFAULT_BUDGET
) -> DistanceReport:
    """Half the best joint objective over direction-respecting map pairs.

    Exhaustive enumeration when |Y|^|X| * |X|^|Y| <= MAP_PAIR_LIMIT.
    Above it and up to PAIR_LIMIT, closed from the chain gh <= dis <= cdis:
    gh's proven lower bound bounds dis from below, and the choice
    functions of the cdis certificate are a pair of d-maps whose objective
    is at most its distortion (method "chain").  Seeded alternating local
    search over d-maps runs only when that bracket stays open, or above
    PAIR_LIMIT, and the better certificate is kept.  budget goes to gh and
    cdis only.
    """
    return _distortion_report(X, Y, lambda: (gh_distance(X, Y, budget), dcorrespondence_distance(X, Y, budget)))


def _distortion_report(X: DirectedMetricSpace, Y: DirectedMetricSpace, chain_reports) -> DistanceReport:
    """distortion_distance, with chain_reports() giving its gh and cdis reports.

    It is called only when the chain closure runs, so a caller that
    already holds both reports passes them in instead of searching again.
    """
    nX, nY = X.n, Y.n
    if nX == 0 or nY == 0:
        if nX == 0 and nY == 0:
            return DistanceReport("dis", 0.0, True, 0.0, MapPair((), ()), "empty")
        return DistanceReport("dis", INFINITY, True, INFINITY, None, "empty")
    if nY**nX * nX**nY <= MAP_PAIR_LIMIT:
        val, f, g = _exhaustive_map_pair(X, Y)
        if f is None:
            return DistanceReport("dis", INFINITY, True, INFINITY, None, "exhaustive")
        return DistanceReport("dis", 0.5 * val, True, 0.5 * val, MapPair(f, g), "exhaustive")
    val, f, g = INFINITY, None, None
    chained = nX * nY <= PAIR_LIMIT
    if chained:
        gh, cdis = chain_reports()
        lower = gh.lower  # gh's searches start from the value gap, so this is at least it
        if cdis.certificate is not None:
            f, g = _choice_functions(cdis.certificate)
            val = MapPair(f, g).objective(X.zz, Y.zz)
    else:
        lower = 0.5 * _value_gap_lower(X.zz, Y.zz)
    method = "chain"
    if not chained or 0.5 * val > lower + 1e-12:
        method = "local-search"
        val_ls, f_ls, g_ls = _local_search_map_pair(X, Y, dmaps=True)
        if val_ls < val:
            val, f, g = val_ls, f_ls, g_ls
    return _bracket("dis", 0.5 * val, lower, MapPair(f, g) if f is not None else None, method)


def _choice_functions(c: Correspondence) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Maps sending each point to its least partner in c, one each way.

    In a d-correspondence both are d-maps, and their map-pair objective is
    at most the distortion of c: every term compares two pairs of c.
    """
    f = {x: y for x, y in reversed(c.pairs)}
    g = {y: x for x, y in reversed(c.pairs)}
    return tuple(f[x] for x in range(c.n_source)), tuple(g[y] for y in range(c.n_target))


def _enumerate_dmaps(source: DirectedMetricSpace, target: DirectedMetricSpace) -> np.ndarray:
    """All direction-respecting maps source -> target, one row per map."""
    nS, nT = source.n, target.n
    count = nT**nS
    # mixed-radix decode of 0..nT^nS - 1, one digit per source point
    weights = nT ** np.arange(nS - 1, -1, -1, dtype=np.int64)
    maps = (np.arange(count, dtype=np.int64)[:, None] // weights) % nT
    return maps[target.reach[maps[:, source.space.src], maps[:, source.space.dst]].all(axis=1)]


def _batch_map_distortion(dS: np.ndarray, dT: np.ndarray, maps: np.ndarray) -> np.ndarray:
    n = dS.shape[0]
    out = np.empty(maps.shape[0])
    chunk = max(1, 1_000_000 // max(n * n, 1))  # ~1M entries: each temporary stays near 8 MB
    for i in range(0, maps.shape[0], chunk):
        M = maps[i : i + chunk]
        imaged = dT[M[:, :, None], M[:, None, :]]
        out[i : i + chunk] = ext_abs_diff(dS[None, :, :], imaged).max(axis=(1, 2))
    return out


def _codistortions(f: np.ndarray, cross: np.ndarray, dY: np.ndarray) -> np.ndarray:
    """pair_codistortion(f, g, dX, dY) for every map g, one entry per g.

    cross = dX[:, G.T] holds dX[x, g[y]] at [x, y, index of g], for the
    maps g that are the rows of G.
    """
    return ext_abs_diff(cross, dY[f, :][:, :, None]).max(axis=(0, 1))


def _exhaustive_map_pair(X: DirectedMetricSpace, Y: DirectedMetricSpace):
    F = _enumerate_dmaps(X, Y)
    G = _enumerate_dmaps(Y, X)  # never empty: constant maps are d-maps
    dX, dY = X.zz, Y.zz
    disF = _batch_map_distortion(dX, dY, F)
    disG = _batch_map_distortion(dY, dX, G)
    fo = np.argsort(disF, kind="stable")
    go = np.argsort(disG, kind="stable")
    F, disF = F[fo], disF[fo]
    G, disG = G[go], disG[go]
    best = INFINITY
    best_f = best_g = None
    cross = dX[:, G.T]
    for fi in range(F.shape[0]):
        if disF[fi] >= best:
            break
        f = F[fi]
        obj = np.maximum(np.maximum(_codistortions(f, cross, dY), disG), disF[fi])
        gi = int(np.argmin(obj))
        if obj[gi] < best:
            best = float(obj[gi])
            best_f, best_g = tuple(int(v) for v in f), tuple(int(v) for v in G[gi])
    return best, best_f, best_g


def dcorrespondence_distance(
    X: DirectedMetricSpace, Y: DirectedMetricSpace, budget: SearchBudget = DEFAULT_BUDGET
) -> DistanceReport:
    """Half the least distortion of a reachability-compatible correspondence.

    INFINITY with exact=True when constraint propagation or exhausted
    search proves that no d-correspondence of finite distortion exists.
    The threshold search has no node cap when |X|*|Y| <=
    budget.exhaustive_cdis; above it, NODE_LIMIT nodes, after which
    the best certificate and the proven lower bound are reported, exact
    only if the two meet.  Raises ValueError when |X|*|Y| > PAIR_LIMIT.
    """
    nX, nY = X.n, Y.n
    if nX == 0 or nY == 0:
        if nX == 0 and nY == 0:
            return DistanceReport("cdis", 0.0, True, 0.0, Correspondence(0, 0, ()), "empty")
        return DistanceReport("cdis", INFINITY, True, INFINITY, None, "empty")
    if nX * nY > PAIR_LIMIT:
        raise ValueError(f"cdis takes at most {PAIR_LIMIT} point pairs, got |X|*|Y| = {nX}*{nY} = {nX * nY}")
    types = (_reach_types(X.reach), _reach_types(Y.reach))
    cand = _arc_consistent_candidates(*types)
    if not (cand.any(axis=1).all() and cand.any(axis=0).all()):
        return DistanceReport("cdis", INFINITY, True, INFINITY, None, "propagation")
    limit = INFINITY if nX * nY <= budget.exhaustive_cdis else NODE_LIMIT
    return _threshold_report("cdis", X.zz, Y.zz, types, cand, limit)


def _threshold_report(kind: str, dX, dY, types, cand, node_limit: float) -> DistanceReport:
    """_threshold_correspondence from the value-gap bound, as a report."""
    lower, val, pairs = _threshold_correspondence(dX, dY, types, cand, _value_gap_lower(dX, dY), node_limit)
    cert = Correspondence(dX.shape[0], dY.shape[0], tuple(pairs)) if pairs is not None else None
    return DistanceReport(kind, 0.5 * val, lower == val, 0.5 * lower, cert, "branch-and-bound")


def _thresholds(dX: np.ndarray, dY: np.ndarray) -> np.ndarray:
    """Sorted distinct finite |a - b| over entries a of dX and b of dY, then inf.

    Every pair cost, and so every finite distortion, is one of these;
    |inf - inf| = 0 is one already, from the zero diagonals.
    """
    vX, vY = np.unique(dX), np.unique(dY)
    vX, vY = vX[np.isfinite(vX)], vY[np.isfinite(vY)]
    return np.append(np.unique(np.abs(vX[:, None] - vY[None, :])), INFINITY)


def _cover_search(dX, dY, types, cand):
    """The decision procedure of the threshold search, as decide(t, budget).

    Only pairs in cand (an |X| x |Y| mask, or its ravel) are used.  types
    None lets every two pairs sit together (gh); for cdis it is (typesX,
    typesY) from _reach_types, and (x, y), (x2, y2) sit together only when
    typesX[x, x2] == typesY[y, y2].  decide(t, budget) returns (pairs,
    spent): pairs the sorted (x, y) of a cover, every two of cost at most
    t and sitting together, or None; spent the search nodes used.  None
    with spent > budget leaves t undecided.  Bit x * |Y| + y of a set of
    pairs is pair (x, y); cand is the root's live set, and a chosen pair's
    row of costs and types is computed from row x of dX and row y of dY.
    """
    nX, nY, root = dX.shape[0], dY.shape[0], _bits(cand)
    # the pairs of each row, a run of nY bits, then of each column
    row, col = (1 << nY) - 1, sum(1 << x * nY for x in range(nX))
    lines = tuple(row << x * nY for x in range(nX)) + tuple(col << y for y in range(nY))

    @np.errstate(invalid="ignore")  # inf - inf in _abs_diff
    def decide(t, budget):
        # a frame: a node's live pairs (a bit cleared as each choice
        # fails), its uncovered lines and the pairs of its branching line
        # left to try, lowest first (none once the budget is spent)
        fits: dict[int, int] = {}  # pair -> the pairs that fit with it under t
        # every candidate is live at first: it costs 0 against itself (zero
        # diagonals) and has its own type (reach is reflexive)
        live, uncovered = root, lines
        frames, chosen, spent = [], [], 0
        while True:
            if not uncovered:
                return sorted(divmod(p, nY) for p in chosen), spent
            spent += 1
            todo = 0
            if spent <= budget:
                # fewest live pairs; min keeps the first, so rows win ties
                todo = min(map(live.__and__, uncovered), key=int.bit_count)
            frames.append([live, uncovered, todo])
            while not frames[-1][2]:
                frames.pop()
                if not frames:
                    return None, spent
                frames[-1][0] &= ~(1 << chosen.pop())  # every cover with that pair was just ruled out
            frame = frames[-1]
            live, uncovered, todo = frame
            frame[2] = todo & (todo - 1)
            p = (todo ^ frame[2]).bit_length() - 1
            chosen.append(p)
            x, y = divmod(p, nY)
            uncovered = list(uncovered)
            for m in (lines[x], lines[nX + y]):
                if m in uncovered:  # a line equal to m holds p: it is p's row or column
                    uncovered.remove(m)
            if p not in fits:
                ok = _abs_diff(dX[x][:, None], dY[y]) <= t
                if types is not None:
                    ok &= types[0][x][:, None] == types[1][y]
                fits[p] = _bits(ok)
            live &= fits[p]

    return decide


def _threshold_correspondence(dX, dY, types, cand, floor: float, node_limit: float):
    """Least-distortion correspondence by bisection on the threshold.

    _cover_search decides each threshold of _thresholds; floor is a proven
    lower bound.  Returns (lower, value, pairs) in distortion units; value
    is inf and pairs None when no certificate of finite distortion was
    found, and lower == value unless the probes together needed more than
    node_limit search nodes (inf: no cap).
    """
    decide, T = _cover_search(dX, dY, types, cand), _thresholds(dX, dY)
    # T[lo] <= optimum <= T[hi]; the largest finite value goes first, for
    # an early certificate or a proof that none of finite distortion exists
    lo, hi, best, left = int(np.searchsorted(T, floor)), T.size - 1, None, node_limit
    while lo < hi and left >= 0:
        mid = (lo + hi) // 2 if best is not None else hi - 1
        pairs, spent = decide(T[mid], left)
        left -= spent
        if pairs is not None:
            best, hi = pairs, int(np.searchsorted(T, distortion_relation(pairs, dX, dY)))
        elif left >= 0:
            lo = mid + 1
    return float(T[lo]), float(T[hi]), best


def _bits(mask: np.ndarray) -> int:
    """A bool array as an int whose bit i is mask[i]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def is_disometry(f: VertexMap) -> bool:
    """Bijective direction-respecting map preserving zigzag distances.

    Requires the inverse to respect direction as well, so the two spaces
    are indistinguishable as directed metric spaces.
    """
    n, images = f.source.n, np.asarray(f.images, dtype=int)
    if f.target.n != n or np.unique(images).size != n or not f.is_dmap:
        return False
    inv = np.empty(n, dtype=int)
    inv[images] = np.arange(n)
    return VertexMap(source=f.target, target=f.source, images=inv).is_dmap and f.distortion <= DEFAULT_TOL


@dataclass(frozen=True)
class ChainReport:
    """The paper's chain gh <= dis <= cdis on one pair of spaces.

    chain_holds checks both inequalities up to DEFAULT_TOL.  conclusive
    is False when any of the three reports came back inexact; nothing is
    judged then.
    """

    gh: DistanceReport
    dis: DistanceReport
    cdis: DistanceReport

    @property
    def conclusive(self) -> bool:
        return all(r.exact for r in (self.gh, self.dis, self.cdis))

    @property
    def chain_holds(self):
        if not self.conclusive:
            return None
        return bool(
            self.gh.value <= self.dis.value + DEFAULT_TOL
            and self.dis.value <= self.cdis.value + DEFAULT_TOL
        )


def verify_chain(X: DirectedMetricSpace, Y: DirectedMetricSpace, budget: SearchBudget = DEFAULT_BUDGET) -> ChainReport:
    """Compute gh, dis and cdis on one pair, searching for each once.

    Meant for sizes where every search is exhaustive; with budgets too
    small for that the report comes back inconclusive, never failed.
    dis reuses the gh and cdis reports instead of searching for them again.
    Inexact reports then share witnesses down the chain: gh takes the
    graphs of dis's map pair when they score lower (method "chain"), and
    cdis takes gh's lower bound when it is higher.
    """
    gh = gh_distance(X, Y, budget)
    cdis = dcorrespondence_distance(X, Y, budget)
    dis = _distortion_report(X, Y, lambda: (gh, cdis))
    if not gh.exact and dis.value < gh.value:
        witness = _graph_correspondence(dis.certificate.forward, dis.certificate.backward)
        gh = _bracket("gh", dis.value, gh.lower, witness, "chain")
    if not cdis.exact and gh.lower > cdis.lower:
        cdis = _bracket("cdis", cdis.value, gh.lower, cdis.certificate, cdis.method)
    return ChainReport(gh=gh, dis=dis, cdis=cdis)
