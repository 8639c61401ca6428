"""Comparison distances between directed metric spaces.

All comparisons reduce to distortion: how much a relation between two
point sets bends distances, measured in the sup norm with the extended
convention |inf - inf| = 0.  Three distances are computed, forming a
chain (each bounds the previous from above):

  gh_distance              half the least distortion of any correspondence
                           between the zigzag metrics; coincides with the
                           classical metric comparison of the zigzag spaces.
  distortion_distance      half the least distortion of graph(f) with
                           graph(g) transposed over pairs of
                           direction-respecting maps f and g, one each way.
  dcorrespondence_distance half the least distortion of a correspondence
                           whose pairs relate points with matching
                           reachability patterns; may be infinite, since
                           such correspondences need not exist.

A direction-respecting vertex map (d-map) sends every edge of the source
into the reachability relation of the target.  Constant maps always
qualify, but the map-pair distance is inf unless both spaces have equally
many weak components, e.g. for a disconnected space against a connected one.
MapPair, the one map type, tests d-map pairs and d-isometries.

Search strategy.  Each distance is the least distortion of a relation, so
one threshold search serves all three.  It bisects a sorted threshold
list, largest finite first, until the proven lower threshold and the
certificate's meet to 2e-12, and asks decide(t, budget) of each threshold
t: a depth-first search for pairs meeting every line, every two fitting
under t, branching on the uncovered line with the fewest live pairs and
forward-checking each choice.  It finds a cover (a certificate), proves t
infeasible (a lower bound) or, past its node budget, leaves t undecided:
it then tries only the siblings of frames with at most two uncovered
lines, as a pair meets at most two and so can finish no other frame.  For
gh, point pairs (x, y) cover rows and columns and fit when they cost at
most t; cdis also needs equal reachability types (reach + 2 * reach.T).
For dis, forward pair (x, y) is f(x) = y and covers row x, backward pair
(x, y) is g(y) = x and covers column y; two of one map must also send
each edge between their points into the target's reach.  A cover is then
a d-map pair, which scores as its relation, graph(f) with graph(g)
transposed, so distortion_relation scores every certificate and
_threshold_report builds every report of the search.  Sets of pairs are
Python ints, a bit a pair: a node's live pairs, each line's pairs, and
the pairs fitting each pair tried under t, cached until t changes.  A
node counts the live pairs of each uncovered line with one AND and one
popcount.  The thresholds are the distinct |a - b| over values a of dX
and b of dY, and a pair's row of costs comes from row x of dX and row y
of dY when it is first tried.  For cdis, constraint propagation first
drops pairs that fit in no d-correspondence, which proves infeasibility
when a point is left without partner.  gh runs branch and bound up to
BNB_PAIRS pairs within its exhaustive cap, the threshold search
(uncapped within the cap) up to PAIR_LIMIT pairs, and above that dis's
map-pair local search with the direction rule off.  Above their
exhaustive caps the gh and cdis searches stop after NODE_LIMIT nodes,
one cap shared by all the probes of a call, and report the best
certificate and the proven lower bound.  DistanceReport alone decides
what a report claims: exact when value and lower bound meet to 1e-12,
and no certificate for an infinite value.

ChainReport is the only route to a distance: each public function reads
one report of ChainReport(X, Y, budget).  It computes each report on
first read and shares witnesses down the chain, so the three keep its
order even when a search stops early.  An inexact gh_distance thus also
runs dis's search, and an inexact dcorrespondence_distance gh's and
dis's.  A pair with a one-point side runs no search: its one
correspondence relates all pairs and its d-map pairs are constant, so
gh = dis = half the other side's diameter, and cdis equals them when each
point of the other side reaches every other, inf otherwise.  dis runs
the threshold search uncapped while |Y|^|X| * |X|^|Y|, which bounds its
search tree's leaves, is at most MAP_PAIR_LIMIT.  Above that and up to
PAIR_LIMIT pairs it is closed from the chain: gh's lower bound bounds it
below, and the choice functions of gh's certificate, when both are
d-maps, then of cdis's bound it above.  cdis is searched only while that
bracket is open, and the local search (greedy starting maps, pointwise
descent, a private seed) only if it stays open, until the lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
            if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {cap!r}")


DEFAULT_BUDGET = SearchBudget()

#: dis's threshold search runs with no node cap when |Y|^|X| * |X|^|Y| is at most this.
MAP_PAIR_LIMIT = 10_000_000
#: Largest |X|*|Y| gh's branch and bound takes; it recurses once per pair.
BNB_PAIRS = 25
#: Search nodes of the threshold search (gh and cdis) above their exhaustive caps.
NODE_LIMIT = 20_000
#: Largest |X|*|Y| the threshold search takes; cdis refuses larger inputs.
#: It bounds the search's |X|*|Y|-bit sets of pairs and the |X| x |Y| row
#: of costs computed for each pair it tries.
PAIR_LIMIT = 4096

# The map-pair local search (gh above PAIR_LIMIT, dis where the chain
# leaves its bracket open): starting maps sampled per side, and the seed
# of its rng.  Fixed, so equal inputs give equal reports.
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


@dataclass(frozen=True)
class MapPair:
    """The one map type, the map-pair distance's certificate: images of f: X -> Y and of g: Y -> X.

    It scores as its relation, graph(f) with graph(g) transposed, whose
    distortion holds f's and g's distortions and the codistortion (both
    ways, which agree on symmetric zigzag matrices).  Its tests of X and Y
    check each map's length and range against them.
    """

    forward: tuple[int, ...]
    backward: tuple[int, ...]

    def __post_init__(self):
        f, g = tuple(self.forward), tuple(self.backward)
        object.__setattr__(self, "forward", tuple(_point_indices(f, len(g), len(f)).tolist()))
        object.__setattr__(self, "backward", tuple(_point_indices(g, len(f), len(g)).tolist()))

    @cached_property
    def relation(self) -> Correspondence:
        pairs = {(x, y) for x, y in enumerate(self.forward)} | {(x, y) for y, x in enumerate(self.backward)}
        return Correspondence(len(self.forward), len(self.backward), tuple(sorted(pairs)))

    def objective(self, dX: np.ndarray, dY: np.ndarray) -> float:
        """The distortion of relation; 0 for the pair of empty maps."""
        return distortion_relation(self.relation.pairs, dX, dY) if self.forward else 0.0

    def is_dmap_pair(self, X: DirectedMetricSpace, Y: DirectedMetricSpace) -> bool:
        """True when f and g send every edge of their source into the target's reach: both are d-maps."""
        f, g = _point_indices(self.forward, Y.n, X.n), _point_indices(self.backward, X.n, Y.n)
        return bool(Y.reach[f[X.space.src], f[X.space.dst]].all() and X.reach[g[Y.space.src], g[Y.space.dst]].all())

    def is_disometry(self, X: DirectedMetricSpace, Y: DirectedMetricSpace) -> bool:
        """True when f and g are mutually inverse d-maps preserving zigzag distances to DEFAULT_TOL.

        f is then a d-isometry and g its inverse: X and Y are indistinguishable as directed metric spaces.
        """
        inverse = X.n == Y.n and all(self.backward[y] == x for x, y in enumerate(self.forward))  # g f = id: g = f^-1
        return self.is_dmap_pair(X, Y) and inverse and map_distortion(self.forward, X.zz, Y.zz) <= DEFAULT_TOL


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of a distance computation, the one place that decides what it claims.

    value       : the distance, an upper bound
    exact       : not given but derived: value and lower meet to 1e-12
    lower       : proven lower bound, read as value when exact
    certificate : Correspondence or MapPair attaining a finite value; none is kept for inf
    method      : how the value was obtained
    """

    kind: str
    value: float
    exact: bool = field(init=False)
    lower: float
    certificate: object = None
    method: str = ""

    def __post_init__(self):
        object.__setattr__(self, "exact", self.value <= self.lower + 1e-12)
        if self.exact:
            object.__setattr__(self, "lower", self.value)
        if self.value == INFINITY:
            object.__setattr__(self, "certificate", None)


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
def _local_search_map_pair(X: DirectedMetricSpace, Y: DirectedMetricSpace, dmaps: bool, floor: float):
    """(objective, MapPair) of the best map pair by alternating pointwise descent.

    Objective: max of the two distortions and the codistortion of the
    zigzag metrics.  With dmaps (dis) every move keeps each edge of the
    source inside the target's reach, which constant starting maps always
    do; without (gh) no edge is kept, so reach is never read.

    Each sweep moves the points of f, then those of g, each to its best
    image, all candidates scored together by _move_scores.  A candidate
    replaces the best so far only when it scores lower by more than 1e-15,
    so with the rng seeded by _SEED the result is fixed.  Greedy starting
    maps and descent run under one np.errstate, set here.
    floor is a proven lower bound on every objective: polishing stops once
    one reaches it, as no later pair could score strictly lower.
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
    # a row's profile is 8 quantiles of its finite entries, computed once a
    # space; the profile map sends each row to the row of closest profile
    qs = np.linspace(0.0, 1.0, 8)
    pX, pY = (np.nan_to_num(np.nanquantile(np.where(np.isfinite(d), d, np.nan), qs, axis=1).T, nan=0.0) for d in (dX, dY))
    for pool, edges, reach, (p, q) in ((pool_f, edgesX, reachY, (pX, pY)), (pool_g, edgesY, reachX, (pY, pX))):
        profile = np.abs(p[:, None, :] - q[None, :, :]).max(axis=2).argmin(axis=1)
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
    cross = dX[:, G.T]  # dX[x, g[y]] at [x, y, index of g], so row f holds f's codistortion with each g
    obj = np.array([ext_abs_diff(cross, dY[f, :][:, :, None]).max(axis=(0, 1)) for f in F])
    obj = np.maximum(obj, np.maximum(_batch_map_distortion(dX, dY, F)[:, None], _batch_map_distortion(dY, dX, G)))
    scored = sorted((v, i // len(G), i % len(G)) for i, v in enumerate(obj.ravel().tolist()))
    polish = min(len(scored), max(6, _RESTARTS // 4))
    best_val, fi, gi = scored[0]
    best = MapPair(tuple(F[fi].tolist()), tuple(G[gi].tolist()))
    if (nX * nY) * max(nX, nY) ** 2 > 500_000_000:
        return best_val, best  # pointwise descent would be too slow: the best pool pair

    for _, fi, gi in scored[:polish]:
        if best_val <= floor:
            break
        val, f, g = _descend(F[fi].copy(), G[gi].copy(), dX, dY, nbX, nbY, reachX, reachY)
        if val < best_val:
            best_val, best = val, MapPair(tuple(f.tolist()), tuple(g.tolist()))
    return best_val, best


# ---------------------------------------------------------------------------
# the three distances


def gh_distance(X: DirectedMetricSpace, Y: DirectedMetricSpace, budget: SearchBudget = DEFAULT_BUDGET) -> DistanceReport:
    """Half the least correspondence distortion between the zigzag metrics: ChainReport(X, Y, budget).gh."""
    return ChainReport(X, Y, budget).gh


def _plain_gh(X: DirectedMetricSpace, Y: DirectedMetricSpace, budget: SearchBudget) -> DistanceReport:
    """gh's own search on a non-empty pair, as the module docstring says; ChainReport runs it."""
    dX, dY = X.zz, Y.zz
    nX, nY = X.n, Y.n
    exhaustive = nX * nY <= budget.exhaustive_gh
    if exhaustive and nX * nY <= BNB_PAIRS:
        val, pairs = _bnb_correspondence(dX, dY)
        cert = Correspondence(nX, nY, tuple(pairs)) if pairs is not None else None
        return DistanceReport("gh", 0.5 * val, 0.5 * val, cert, "branch-and-bound")
    if nX * nY <= PAIR_LIMIT:
        setting = _correspondences(dX, dY, None, np.ones((nX, nY), dtype=bool))
        return _threshold_report("gh", dX, dY, setting, INFINITY if exhaustive else NODE_LIMIT, "branch-and-bound")
    lower = _value_gap_lower(dX, dY)
    val, pair = _local_search_map_pair(X, Y, False, lower)
    return DistanceReport("gh", 0.5 * val, 0.5 * lower, pair.relation, "local-search")


def distortion_distance(
    X: DirectedMetricSpace, Y: DirectedMetricSpace, budget: SearchBudget = DEFAULT_BUDGET
) -> DistanceReport:
    """Half the best joint objective over direction-respecting map pairs: ChainReport(X, Y, budget).dis."""
    return ChainReport(X, Y, budget).dis


def _choice_map_pair(X: DirectedMetricSpace, Y: DirectedMetricSpace, c: Optional[Correspondence]):
    """(objective, MapPair) of the maps sending each point to its first partner in c.

    (inf, None) without c or unless both are d-maps, as always for a d-correspondence.
    The objective is at most the distortion of c, since the pair's relation is a subset of c.
    """
    if c is not None:
        f, g = dict(c.pairs[::-1]), {y: x for x, y in c.pairs[::-1]}  # the first pair wins
        pair = MapPair(tuple(f[x] for x in range(c.n_source)), tuple(g[y] for y in range(c.n_target)))
        if pair.is_dmap_pair(X, Y):
            return pair.objective(X.zz, Y.zz), pair
    return INFINITY, None


def _batch_map_distortion(dS: np.ndarray, dT: np.ndarray, maps: np.ndarray) -> np.ndarray:
    n = dS.shape[0]
    out = np.empty(maps.shape[0])
    chunk = max(1, 1_000_000 // max(n * n, 1))  # ~1M entries: each temporary stays near 8 MB
    for i in range(0, maps.shape[0], chunk):
        M = maps[i : i + chunk]
        imaged = dT[M[:, :, None], M[:, None, :]]
        out[i : i + chunk] = ext_abs_diff(dS[None, :, :], imaged).max(axis=(1, 2))
    return out


def dcorrespondence_distance(
    X: DirectedMetricSpace, Y: DirectedMetricSpace, budget: SearchBudget = DEFAULT_BUDGET
) -> DistanceReport:
    """Half the least distortion of a reachability-compatible correspondence: ChainReport(X, Y, budget).cdis."""
    return ChainReport(X, Y, budget).cdis


def _plain_cdis(X: DirectedMetricSpace, Y: DirectedMetricSpace, budget: SearchBudget) -> DistanceReport:
    """cdis's own search on a non-empty pair; ChainReport runs it.

    INFINITY over an infinite lower bound, so exact, when constraint propagation or
    exhausted search proves that no d-correspondence of finite distortion exists.
    No node cap up to budget.exhaustive_cdis pairs, NODE_LIMIT nodes above
    it.  Raises ValueError when |X|*|Y| > PAIR_LIMIT.
    """
    nX, nY = X.n, Y.n
    if nX * nY > PAIR_LIMIT:
        raise ValueError(f"cdis takes at most {PAIR_LIMIT} point pairs, got |X|*|Y| = {nX}*{nY} = {nX * nY}")
    types = (_reach_types(X.reach), _reach_types(Y.reach))
    cand = _arc_consistent_candidates(*types)
    if not (cand.any(axis=1).all() and cand.any(axis=0).all()):
        return DistanceReport("cdis", INFINITY, INFINITY, None, "propagation")
    limit = INFINITY if nX * nY <= budget.exhaustive_cdis else NODE_LIMIT
    return _threshold_report("cdis", X.zz, Y.zz, _correspondences(X.zz, Y.zz, types, cand), limit, "branch-and-bound")


def _threshold_report(kind: str, dX, dY, setting, node_limit: float, method: str) -> DistanceReport:
    """_threshold_search over a setting of _cover_search, from the value-gap bound, as a report."""
    lower, val, cert = _threshold_search(dX, dY, _cover_search(*setting), _value_gap_lower(dX, dY), node_limit)
    return DistanceReport(kind, 0.5 * val, 0.5 * lower, cert, method)


def _thresholds(dX: np.ndarray, dY: np.ndarray) -> np.ndarray:
    """Sorted distinct finite |a - b| over entries a of dX and b of dY, then inf.

    Every pair cost, and so every finite distortion, is one of these;
    |inf - inf| = 0 is one already, from the zero diagonals.
    """
    vX, vY = np.unique(dX), np.unique(dY)
    vX, vY = vX[np.isfinite(vX)], vY[np.isfinite(vY)]
    return np.append(np.unique(np.abs(vX[:, None] - vY[None, :])), INFINITY)


def _lines(nX: int, nY: int):
    """The pairs of each row of the |X| x |Y| grid (runs of nY bits), then of each column."""
    row, col = (1 << nY) - 1, sum(1 << x * nY for x in range(nX))
    return tuple(row << x * nY for x in range(nX)), tuple(col << y for y in range(nY))


def _correspondences(dX, dY, types, cand):
    """gh's (types None) and cdis's setting of _cover_search: (lines, root, rule, decode).

    Pair (x, y) is bit x * |Y| + y; cand, an |X| x |Y| mask or its ravel, is
    the root's live set.  types are (typesX, typesY) from _reach_types.
    """
    nX, nY = dX.shape[0], dY.shape[0]
    rows, cols = _lines(nX, nY)

    def rule(p, t):
        x, y = divmod(p, nY)
        ok = _abs_diff(dX[x][:, None], dY[y]) <= t
        if types is not None:
            ok &= types[0][x][:, None] == types[1][y]
        return (rows[x], cols[y]), _bits(ok)

    return rows + cols, _bits(cand), rule, lambda cover: Correspondence(nX, nY, tuple(divmod(p, nY) for p in cover))


def _map_pairs(X: DirectedMetricSpace, Y: DirectedMetricSpace):
    """dis's setting of _cover_search, as the module docstring says: (lines, root, rule, decode).

    Forward pair (x, y) is bit x * |Y| + y, backward pair (x, y) that plus |X| * |Y|.
    """
    nX, nY, N = X.n, Y.n, X.n * Y.n
    rows, cols = _lines(nX, nY)
    cols = tuple(c << N for c in cols)
    nbX, nbY = _neighbours(nX, (X.space.src, X.space.dst)), _neighbours(nY, (Y.space.src, Y.space.dst))
    sides = (nbX[:2] + (Y.reach,), nbY[:2] + (X.reach,))  # f's, then g's: out- and in-neighbours, target reach

    def rule(p, t):
        role, (x, y) = p // N, divmod(p % N, nY)
        ok = np.stack((_abs_diff(X.zz[x][:, None], Y.zz[y]) <= t,) * 2)
        # the pairs of p's own map, its source points first, must keep each edge at p's point in reach
        u, v, same = (x, y, ok[0]) if role == 0 else (y, x, ok[1].T)
        out, inn, reach = sides[role]
        same[out[u]] &= reach[v]
        same[inn[u]] &= reach[:, v]
        return (cols[y] if role else rows[x],), _bits(ok)

    def decode(cover):
        g = [0] * nY
        for p in cover[nX:]:  # sorted: the nX forward pairs, one a row, come first
            g[p % nY] = (p - N) // nY
        return MapPair(tuple(p % nY for p in cover[:nX]), tuple(g))

    return rows + cols, (1 << 2 * N) - 1, rule, decode


def _cover_search(lines, root, rule, decode):
    """The decision procedure of the threshold search, as decide(t, budget).

    A setting (_correspondences, _map_pairs) gives the lines a cover must
    meet, in tie-break order, the root's live pairs, rule(p, t), the lines
    holding pair p and the pairs that fit with p under t, and decode, from
    a cover's sorted bits to a certificate.  decide(t, budget) returns
    (cover, spent): the decoded cover, or None; spent the search nodes
    used.  None with spent > budget leaves t undecided.
    """

    @np.errstate(invalid="ignore")  # inf - inf in _abs_diff
    def decide(t, budget):
        # a frame: a node's live pairs (a bit cleared as each choice
        # fails), its uncovered lines and the pairs of its branching line
        # left to try, lowest first (none once the budget is spent)
        fits: dict[int, tuple] = {}  # pair -> rule(pair, t)
        # every live pair fits with itself: it costs 0 against itself (zero
        # diagonals), has its own type and keeps its edges (reach is reflexive)
        live, uncovered = root, lines
        frames, chosen, spent = [], [], 0
        while True:
            if not uncovered:
                return decode(sorted(chosen)), spent
            spent += 1
            todo = 0
            if spent <= budget:
                # fewest live pairs; min keeps the first, so rows win ties
                todo = min(map(live.__and__, uncovered), key=int.bit_count)
            frames.append([live, uncovered, todo])
            while not frames[-1][2]:
                frames.pop()
                # past the budget only the siblings' last pair can still finish
                # a cover, and a pair meets at most two lines
                if not frames or (spent > budget and len(frames[-1][1]) > 2):
                    return None, spent
                frames[-1][0] &= ~(1 << chosen.pop())  # every cover with that pair was just ruled out
            frame = frames[-1]
            live, uncovered, todo = frame
            frame[2] = todo & (todo - 1)
            p = (todo ^ frame[2]).bit_length() - 1
            chosen.append(p)
            if p not in fits:
                fits[p] = rule(p, t)
            held, ok = fits[p]
            uncovered = list(uncovered)
            for m in held:
                if m in uncovered:  # a line equal to m holds p
                    uncovered.remove(m)
            live &= ok

    return decide


def _threshold_search(dX, dY, decide, floor: float, node_limit: float):
    """Least-distortion certificate by bisection on _thresholds, decide from _cover_search.

    floor is a proven lower bound.  Returns (lower, value, certificate) in
    distortion units; value is inf and certificate None when none of finite
    distortion was found.  It bisects until value <= lower + 2e-12, exact to
    DistanceReport, or its probes need more than node_limit nodes (inf: no cap).
    """
    T = _thresholds(dX, dY)
    # T[lo] <= optimum <= T[hi]; the largest finite value goes first, for
    # an early certificate or a proof that none of finite distortion exists
    lo, hi, best, left = int(np.searchsorted(T, floor)), T.size - 1, None, node_limit
    while T[hi] > T[lo] + 2e-12 and left >= 0:
        mid = (lo + hi) // 2 if best is not None else hi - 1
        cover, spent = decide(T[mid], left)
        left -= spent
        if cover is not None:
            pairs = getattr(cover, "relation", cover).pairs  # a MapPair scores as its relation
            best, hi = cover, int(np.searchsorted(T, distortion_relation(pairs, dX, dY)))
        elif left >= 0:
            lo = mid + 1
    return float(T[lo]), float(T[hi]), best


def _bits(mask: np.ndarray) -> int:
    """A bool array as an int whose bit i is mask[i]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


@dataclass(frozen=True)
class ChainReport:
    """The paper's chain gh <= dis <= cdis on one pair, each report computed on first read.

    The only route to a distance: gh_distance, distortion_distance and
    dcorrespondence_distance read it.  The reports rest on at most one run
    each of the plain searches _plain_gh and _plain_cdis, and share
    witnesses down the chain.  gh and cdis read nothing else when their
    searches are exact.  An inexact gh reads dis and takes the relation of
    its map pair when that scores lower (method "chain"); an inexact cdis
    reads gh and takes its certificate when that is a d-correspondence and
    scores lower (method "chain"), and gh's search's lower bound when that
    is higher.  dis has already scored that certificate's choice maps, or
    gh took the relation of dis's, so the order holds.  A shared report is
    built by DistanceReport, as a search's is.  A pair with an empty or a
    one-point side is exact from the start and runs no search.
    Read order never changes a report.  Reading cdis raises ValueError when
    |X|*|Y| > PAIR_LIMIT, and conclusive and chain_holds read it first, so
    they raise before any search.  chain_holds checks both inequalities up
    to DEFAULT_TOL.  conclusive is False when any of the three reports
    came back inexact; chain_holds then judges nothing and returns None.
    """

    X: DirectedMetricSpace
    Y: DirectedMetricSpace
    budget: SearchBudget = DEFAULT_BUDGET

    def __post_init__(self):
        nX, nY = self.X.n, self.Y.n
        if nX == 0 or nY == 0:  # 0 between two empty spaces, inf against an empty one
            v = 0.0 if nX == nY else INFINITY
            for kind, cert in (("gh", Correspondence(0, 0, ())), ("dis", MapPair((), ())), ("cdis", Correspondence(0, 0, ()))):
                object.__setattr__(self, kind, DistanceReport(kind, v, v, cert, "empty"))
        elif 1 in (nX, nY):  # the one correspondence relates all pairs, and f and g are constant
            Z = self.Y if nX == 1 else self.X
            v = 0.5 * float(Z.zz.max())  # inf when Z is disconnected
            every = Correspondence(nX, nY, tuple(np.ndindex(nX, nY)))
            reports = (("gh", every, "branch-and-bound"), ("dis", MapPair((0,) * nX, (0,) * nY), "exhaustive"),
                       ("cdis", every, "branch-and-bound") if Z.reach.all() else ("cdis", None, "propagation"))
            for kind, cert, method in reports:
                w = v if cert is not None else INFINITY  # cdis is inf unless each point of Z reaches every other
                object.__setattr__(self, kind, DistanceReport(kind, w, w, cert, method))

    @cached_property
    def _gh_search(self) -> DistanceReport:
        return _plain_gh(self.X, self.Y, self.budget)

    @cached_property
    def _cdis_search(self) -> DistanceReport:
        return _plain_cdis(self.X, self.Y, self.budget)

    @cached_property
    def gh(self) -> DistanceReport:
        gh = self._gh_search
        if gh.exact or self.dis.value >= gh.value:
            return gh
        return DistanceReport("gh", self.dis.value, gh.lower, self.dis.certificate.relation, "chain")

    @cached_property
    def dis(self) -> DistanceReport:
        """The uncapped threshold search up to MAP_PAIR_LIMIT, then the chain, as the module docstring says."""
        X, Y = self.X, self.Y
        if Y.n**X.n * X.n**Y.n <= MAP_PAIR_LIMIT:
            return _threshold_report("dis", X.zz, Y.zz, _map_pairs(X, Y), INFINITY, "exhaustive")
        val, pair = INFINITY, None
        if X.n * Y.n <= PAIR_LIMIT:
            lower = self._gh_search.lower  # gh's searches start from the value gap, so this is at least it
            for search in ("_gh_search", "_cdis_search"):  # cdis is searched only if the bracket is open
                v, p = _choice_map_pair(X, Y, getattr(self, search).certificate)
                if v < val or pair is None:
                    val, pair = v, p
                if (chained := DistanceReport("dis", 0.5 * val, lower, pair, "chain")).exact:
                    return chained
        else:
            lower = 0.5 * _value_gap_lower(X.zz, Y.zz)
        v, p = _local_search_map_pair(X, Y, True, 2 * lower)
        if v < val:
            val, pair = v, p
        return DistanceReport("dis", 0.5 * val, lower, pair, "local-search")

    @cached_property
    def cdis(self) -> DistanceReport:
        cdis = self._cdis_search
        if cdis.exact:
            return cdis
        gh, lower = self.gh, self._gh_search.lower
        if gh.value < cdis.value and gh.certificate.is_dcorrespondence(self.X.reach, self.Y.reach):
            return DistanceReport("cdis", gh.value, max(cdis.lower, lower), gh.certificate, "chain")
        return DistanceReport("cdis", cdis.value, max(cdis.lower, lower), cdis.certificate, cdis.method)

    @property
    def conclusive(self) -> bool:
        return all(r.exact for r in (self.cdis, self.gh, self.dis))

    @property
    def chain_holds(self):
        if not self.conclusive:
            return None
        return bool(
            self.gh.value <= self.dis.value + DEFAULT_TOL
            and self.dis.value <= self.cdis.value + DEFAULT_TOL
        )
