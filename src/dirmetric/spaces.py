"""Finite directed metric spaces and the zigzag distance.

A finite directed space is a point set carrying two layers of data: a
symmetric base metric (possibly taking the value inf between different
weak components) and a set of directed, weighted edges.  Each edge
(src, dst, length) stands for a forward route of the given length, and
lengths are required to respect the base metric (length >= base[src][dst],
no self-loops).

The zigzag distance between two points is the least total length of a
walk that may traverse edges either forwards or backwards.  Combinatorially
that is just shortest paths in the symmetrized weighted graph, which makes
it an extended pseudo-metric; positivity of edge lengths and of the base
metric makes it an extended metric here.  Pairs joined by no zigzag walk
sit at distance inf.

Reachability is the reflexive-transitive closure of the edge relation
and is the order-theoretic shadow of the space: a directed map between
spaces must respect it (see the distances module).

A space parses its edges once, on construction, into the read-only
arrays src, dst and length; every computation here and in the other
modules reads those arrays.  zigzag_from_edges runs the same parse, with
the same checks, on the edge list it is given.  The tuple `edges` is
built from those arrays as the normalised constructor argument and
file-format view.

All matrices handed out by this module are read-only numpy arrays.
Operations never mutate their inputs; they build new spaces.  A quotient
has exactly one point per class it is given.

A space takes its base, and a DirectedMetricSpace its zz and reach,
without copying when that is already an array of the right dtype
(float64, bool for reach) that owns its data and is not writeable, as
the grid constructors and from_space hand over.  Anything else, a
read-only view of a writeable array included, is copied, so writes
through a caller's writeable array never reach a space's matrices.
Validation of dense matrices (base, zigzag), the symmetrizing step of
the zigzag and the reachability closure run over blocks of _BLOCK_ROWS
rows, so that on a large grid the only n x n arrays alive are the
matrices themselves.  Zigzag searches walk a two-way graph that lists
each edge in both directions, built once per edge set (_zigzag_graph);
reachability walks the forward graph, every edge at length 1.
Shortest-path searches run in a pure-Python Dijkstra when small and in
scipy's when large (see _PYTHON_SEARCH_MAX), with the same rows bit for
bit, so small searches never import scipy.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .extended import INFINITY, ext_abs_diff

DEFAULT_TOL = 1e-9

# Rows per block in the blocked passes over dense n x n matrices: about
# 8.6 MB of float64 per block at n = 4225 (the k = 64 square grid).
_BLOCK_ROWS = 256

# Full O(n^3) triangle-inequality validation is run automatically only below
# this size; larger spaces come out of constructions that guarantee it.
TRIANGLE_CHECK_MAX = 192

Edge = tuple[int, int, float]

# A search of R source rows over a graph of E stored entries runs in
# _python_dijkstra when R * E is at most _PYTHON_SEARCH_MAX and
# scipy.sparse.csgraph is not loaded yet, else in scipy's dijkstra, which
# is imported only then: importing it adds 0.36 s to the CLI's 0.28 s
# start-up (medians of 9, 2 cores).  A zigzag graph stores each edge both
# ways, so it holds up to twice as many entries as its space has edges.
# The bound keeps a one-row ball on the k = 32 torus (10112 entries) and
# the whole open book n = 10, m = 8 (72 rows x 160 entries) in Python, and
# the batches on the k = 64 square (40960 entries) in scipy.  Once scipy
# is loaded, as after a grid check in verify or in a caller that imports
# it, there is no import left to save, and the Python kernel is faster
# only below R * E of about 1200, _PYTHON_SEARCH_WARM_MAX: a full zigzag
# plus reachability takes 0.15 against 0.48 ms on 4 points (R * E = 40
# and 20) but 9.1 against 1.7 ms on 64 points (R * E = 15488 and 7872).
_PYTHON_SEARCH_MAX = 16384
_PYTHON_SEARCH_WARM_MAX = 1200


def _row_blocks(n: int):
    """Slices of at most _BLOCK_ROWS consecutive rows covering range(n)."""
    return (slice(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS))


def _any_row_block(n: int, fails) -> bool:
    """True if fails(rows) holds for some row block of an n x n matrix."""
    return any(fails(rows) for rows in _row_blocks(n))


def _off_diagonal_nonpositive(d: np.ndarray, rows: slice) -> bool:
    """Some entry of d[rows] off the main diagonal is <= 0."""
    bad = d[rows] <= 0.0
    bad[np.arange(bad.shape[0]), np.arange(rows.start, rows.stop)] = False
    return bool(bad.any())


def max_triangle_defect(d: np.ndarray) -> float:
    """Largest violation of d[i,j] <= d[i,k] + d[k,j] over all triples.

    <= 0 means the (extended) triangle inequality holds.  An inf right
    hand side never counts as violated, whatever the left side is; a nan
    anywhere in d gives nan.  Only the least right hand side over k is
    kept per (i, j): fl(d - r) never rises as r does, so its defect is
    the largest, bit for bit.
    """
    d = np.asarray(d, dtype=float)
    if not d.size:
        return -INFINITY
    rhs = np.full(d.shape, INFINITY)
    with np.errstate(over="ignore"):  # a sum past the largest float is an inf rhs
        for k in range(d.shape[0]):
            np.minimum(rhs, np.add.outer(d[:, k], d[k, :]), out=rhs)
    with np.errstate(invalid="ignore"):
        return float(np.max(np.where(np.isinf(rhs), -INFINITY, d - rhs)))


def assert_extended_metric(d: np.ndarray, *, check_triangle: bool = True) -> None:
    """Raise ValueError unless d is a symmetric extended metric matrix."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    # each check runs over all row blocks before the next one starts, so a
    # matrix with several faults reports the first kind in this order
    if _any_row_block(n, lambda r: np.isnan(d[r]).any()):
        raise ValueError("distance matrix contains nan")
    if d.size == 0:
        return
    if np.abs(np.diag(d)).max() > DEFAULT_TOL:
        raise ValueError("distance matrix has nonzero diagonal")
    if _any_row_block(n, lambda r: float(np.max(ext_abs_diff(d[r], d[:, r].T))) > DEFAULT_TOL):
        raise ValueError("distance matrix is not symmetric")
    if _any_row_block(n, lambda r: _off_diagonal_nonpositive(d, r)):
        raise ValueError("distinct points at non-positive distance")
    if check_triangle:
        defect = max_triangle_defect(d)
        if defect > DEFAULT_TOL:
            raise ValueError(f"triangle inequality violated by {defect:.3e}")


def _as_readonly(a, dtype=float) -> np.ndarray:
    """a itself if it is a read-only array of dtype owning its data, else a read-only copy."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.owndata and not a.flags.writeable:
        return a
    a = np.array(a, dtype=dtype, copy=True)
    a.setflags(write=False)
    return a


def _point_indices(values, n: int, count=None) -> np.ndarray:
    """values as an int array of indices into n points, count of them if given.

    Raises ValueError unless every entry is an integer (a bool is not) in
    range(n): numpy would truncate a float and read -1 as the last point.
    """
    a = np.asarray(values)
    if a.size and (a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= n or _holds_bool(values, a.ndim)):
        raise ValueError(f"point indices must be integers, none outside range({n})")
    if count is not None and a.shape != (count,):
        raise ValueError(f"one image per source point required: {count} points, images of shape {a.shape}")
    return a.astype(int, copy=False)


def _holds_bool(values, ndim: int) -> bool:
    """Whether values, ndim-dimensional to numpy, is a Python sequence holding a bool.

    numpy reads [True, 2] as ints, so only the entries themselves show it.
    """
    if isinstance(values, np.ndarray) or ndim == 0:
        return False
    entries = values if ndim == 1 else np.asarray(values, dtype=object).flat
    return not {bool, np.bool_}.isdisjoint(map(type, entries))


def _parse_edges(edges, n: int):
    """Read-only src, dst and length arrays of an edge list on n points.

    edges holds (src, dst, length) triples or is an (m, 3) array.  Raises
    ValueError unless every endpoint is a whole number in range(n), no
    edge is a self-loop and every length is finite and positive.
    """
    arr = np.array(edges, dtype=float).reshape(-1, 3)
    ends = arr[:, :2]
    whole = (np.isfinite(ends) & (ends == np.floor(ends))).all(axis=1)
    if not whole.all():
        raise ValueError(f"edge {tuple(arr[np.argmin(whole)].tolist())} has a non-integer endpoint")
    if ((ends < 0) | (ends >= n)).any():
        raise ValueError("edge endpoint out of range")
    src, dst, length = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2].copy()
    if (src == dst).any():
        raise ValueError("self-loop edges are not allowed")
    if not np.isfinite(length).all() or (length <= 0.0).any():
        raise ValueError("edge lengths must be finite and positive")
    for a in (src, dst, length):
        a.setflags(write=False)
    return src, dst, length


def _glued_edges(src, dst, length) -> np.ndarray:
    """Edges whose endpoints were glued, as (src, dst, length) rows: self-loops and repeats dropped, sorted."""
    kept = src != dst
    return np.unique(np.column_stack((src[kept], dst[kept], length[kept])), axis=0)


@dataclass(frozen=True, eq=False)
class FiniteDSpace:
    """Finite point set with a base metric and directed weighted edges.

    base   : (n, n) symmetric extended metric matrix
    edges  : directed edges (src, dst, length), length >= base[src][dst] > 0,
             as triples or an (m, 3) array, normalised to a tuple of
             (int, int, float)
    labels : one name per point, unique; defaults to "0", "1", ...

    Built on construction, read-only, edge i in position i:
    src, dst : int arrays of edge endpoints
    length   : float array of edge lengths
    These arrays are the form every computation reads; `edges` is the
    constructor argument and the view written to space files.  Spaces
    compare and hash by identity.
    """

    base: np.ndarray
    edges: tuple[Edge, ...] = ()
    labels: tuple[str, ...] = ()
    src: np.ndarray = field(init=False, repr=False, compare=False)
    dst: np.ndarray = field(init=False, repr=False, compare=False)
    length: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = _as_readonly(self.base)
        object.__setattr__(self, "base", base)
        n = base.shape[0] if base.ndim == 2 else -1
        assert_extended_metric(base, check_triangle=(n <= TRIANGLE_CHECK_MAX))

        src, dst, lens = _parse_edges(self.edges, n)
        for name, a in (("src", src), ("dst", dst), ("length", lens)):
            object.__setattr__(self, name, a)
        edges = tuple(zip(src.tolist(), dst.tolist(), lens.tolist()))
        object.__setattr__(self, "edges", edges)
        short = lens < base[src, dst] - DEFAULT_TOL
        if short.any():
            i = int(np.argmax(short))
            raise ValueError(
                f"edge {edges[i][:2]} shorter than base distance "
                f"({edges[i][2]:.6g} < {base[src[i], dst[i]]:.6g})"
            )

        labels = tuple(str(l) for l in self.labels) if self.labels else tuple(str(i) for i in range(n))
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise ValueError("labels must be unique")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.base.shape[0]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no point labelled {label!r}") from None


class _Graph(NamedTuple):
    """Directed weight graph as CSR arrays on n points.

    The edges leaving u go to indices[indptr[u]:indptr[u + 1]], with the
    lengths in the same slice of weights; parallel edges are reduced to
    their minimum length.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray


def _weight_csr(n: int, src: np.ndarray, dst: np.ndarray, length: np.ndarray) -> _Graph:
    """Weight graph of the edges, parallel edges reduced to their minimum length."""
    key = src * n + dst
    order = np.lexsort((length, key))
    key, length = key[order], length[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key, length = key[first], length[first]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return _Graph(n, indptr, key % n, length)


def _zigzag_graph(n: int, src: np.ndarray, dst: np.ndarray, length: np.ndarray) -> _Graph:
    """Two-way weight graph of the edges: each listed in both directions, then reduced."""
    return _weight_csr(n, np.r_[src, dst], np.r_[dst, src], np.r_[length, length])


def _python_dijkstra(graph: _Graph, sources: np.ndarray) -> np.ndarray:
    """Label-setting Dijkstra on a binary heap, one row per source.

    Every length is positive, so each label is final when it leaves the
    heap, at min over settled neighbours u of fl(d[u] + w(u, v)).  That
    fixed point does not depend on the order ties are settled in, so the
    rows are bit for bit those of scipy's dijkstra.
    """
    pairs = list(zip(graph.indices.tolist(), graph.weights.tolist()))
    ptr = graph.indptr.tolist()
    adj = [pairs[a:b] for a, b in zip(ptr, ptr[1:])]
    rows = np.empty((len(sources), graph.n))
    for i, s in enumerate(sources.tolist()):
        dist = [INFINITY] * graph.n
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue  # a stale entry: u was settled at a shorter distance
            for v, w in adj[u]:
                dv = d + w
                if dv < dist[v]:
                    dist[v] = dv
                    heapq.heappush(heap, (dv, v))
        rows[i] = dist
    return rows


def _search(graph: _Graph, sources: np.ndarray) -> np.ndarray:
    """Shortest-path rows from sources along the graph's stored arcs: the Python kernel when small, else scipy's."""
    limit = _PYTHON_SEARCH_WARM_MAX if "scipy.sparse.csgraph" in sys.modules else _PYTHON_SEARCH_MAX
    if len(sources) * len(graph.indices) <= limit:
        return _python_dijkstra(graph, sources)
    import scipy.sparse as sp
    from scipy.sparse.csgraph import dijkstra

    matrix = sp.csr_matrix((graph.weights, graph.indices, graph.indptr), shape=(graph.n, graph.n))
    return dijkstra(matrix, directed=True, indices=sources)


def zigzag_from_edges(n: int, edges, sources=None) -> np.ndarray:
    """Zigzag distances from an edge list, without building a space.

    Shortest paths in the symmetrized weighted graph.  With sources=None
    the full symmetric (n, n) matrix is returned; otherwise one row per
    requested source index.  Meant for large graphs (fine grids) where a
    dense base matrix would not fit.  The edges are checked as a space
    checks them (ValueError on a bad endpoint or length), and sources as
    point indices.
    """
    graph = _zigzag_graph(n, *_parse_edges(edges, n))
    return _zigzag(graph, None if sources is None else _point_indices(sources, n))


def _zigzag(graph: _Graph, sources=None) -> np.ndarray:
    """zigzag_from_edges on a graph from _zigzag_graph."""
    n = graph.n
    if n == 0:
        return np.zeros((0, 0))
    if sources is None:
        # Dijkstra computes each row on its own, so filling row blocks gives
        # its full matrix bit for bit, in an array that owns its data (scipy
        # returns a view, which a space would have to copy)
        dist = np.empty((n, n))
        for r in _row_blocks(n):
            dist[r] = _search(graph, np.arange(r.start, r.stop))
        # tie-break rounding can differ between rows, so symmetrize explicitly,
        # in place: min is idempotent, so a block that reads entries an earlier
        # block already lowered gets the same value
        for r in _row_blocks(n):
            np.minimum(dist[r], dist[:, r].T, out=dist[r])
        np.fill_diagonal(dist, 0.0)
        return dist
    return _search(graph, np.atleast_1d(np.asarray(sources, dtype=int)))


def compute_zigzag(space: FiniteDSpace) -> np.ndarray:
    """Full zigzag distance matrix of a space (extended metric, zz >= base)."""
    return _zigzag(_zigzag_graph(space.n, space.src, space.dst, space.length))


def compute_reachability(space: FiniteDSpace) -> np.ndarray:
    """Reflexive-transitive closure of the edge relation, as a bool matrix.

    The pairs joined by a directed path: the search gives every edge length 1,
    so it reads no edge length and no sum can overflow.  Filled one row
    block at a time, so no n x n float matrix is held next to it.
    """
    n = space.n
    reach = np.eye(n, dtype=bool)
    if space.edges:
        graph = _weight_csr(n, space.src, space.dst, np.ones(len(space.src)))
        for r in _row_blocks(n):
            reach[r] |= np.isfinite(_search(graph, np.arange(r.start, r.stop)))
    return reach


def _weak_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each point's least point of its weak component, by min-label propagation over the edges.

    A round lowers each edge end's label's label to the label across the edge, if smaller,
    then jumps labels to their own until none moves: a long path takes a few rounds.
    """
    ends, others, label = np.concatenate((src, dst)), np.concatenate((dst, src)), np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, label[ends], label[others])
        while (new[new] != new).any():
            new = new[new]  # a label's own label lies in the same component and is no larger
        if (new == label).all():
            return label
        label = new


@dataclass(frozen=True, eq=False)
class DirectedMetricSpace:
    """A space bundled with its derived zigzag metric and reachability.

    Invariants (checked on construction):
      * zz is an extended metric with zz >= base entrywise,
      * reachable pairs are at finite zigzag distance,
      * zz is finite exactly within the weak components of the edges.
    """

    space: FiniteDSpace
    zz: np.ndarray
    reach: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "zz", _as_readonly(self.zz))
        reach = _as_readonly(self.reach, bool)
        object.__setattr__(self, "reach", reach)
        n = self.space.n
        if self.zz.shape != (n, n) or reach.shape != (n, n):
            raise ValueError("zz/reach shape does not match the space")
        zz, base = self.zz, self.space.base

        def drops_below(r):
            with np.errstate(invalid="ignore"):
                return float(np.max(np.where(np.isinf(zz[r]), -INFINITY, base[r] - zz[r]))) > DEFAULT_TOL

        if _any_row_block(n, drops_below):
            raise ValueError("zigzag distances drop below the base metric")
        if _any_row_block(n, lambda r: (reach[r] & ~np.isfinite(zz[r])).any()):
            raise ValueError("reachable pair at infinite zigzag distance")
        comp = _weak_components(n, self.space.src, self.space.dst)
        if _any_row_block(n, lambda r: (np.isfinite(zz[r]) != (comp[r, None] == comp)).any()):
            raise ValueError("finiteness of zz is not that of the weak components")

    @classmethod
    def from_space(cls, space: FiniteDSpace) -> "DirectedMetricSpace":
        zz, reach = compute_zigzag(space), compute_reachability(space)
        # nothing else holds these fresh arrays, so the constructor adopts them
        zz.setflags(write=False)
        reach.setflags(write=False)
        return cls(space=space, zz=zz, reach=reach)

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels


def reverse(space: FiniteDSpace) -> FiniteDSpace:
    """Same points and base metric, every edge direction flipped."""
    edges = np.column_stack((space.dst, space.src, space.length))
    return FiniteDSpace(base=space.base, edges=edges, labels=space.labels)


def disjoint_union(a: FiniteDSpace, b: FiniteDSpace) -> FiniteDSpace:
    """Side-by-side union; cross distances are inf, no cross edges."""
    na, nb = a.n, b.n
    base = np.full((na + nb, na + nb), INFINITY)
    base[:na, :na] = a.base
    base[na:, na:] = b.base
    edges = np.column_stack((np.r_[a.src, b.src + na], np.r_[a.dst, b.dst + na], np.r_[a.length, b.length]))
    labels = tuple(f"0:{l}" for l in a.labels) + tuple(f"1:{l}" for l in b.labels)
    return FiniteDSpace(base=base, edges=edges, labels=labels)


def product(a: FiniteDSpace, b: FiniteDSpace) -> FiniteDSpace:
    """Product space with the sum (taxicab) metric.

    Point (i, j) gets index i * b.n + j.  An edge moves along a, along b,
    or along both at once; lengths add.  Staying put in both factors is
    not an edge (no self-loops).
    """
    na, nb = a.n, b.n
    base = (a.base[:, None, :, None] + b.base[None, :, None, :]).reshape(na * nb, na * nb)
    # along a (edge-major, then j), along b (i-major, then edge), both at once
    ia, jb = np.arange(na)[:, None] * nb, np.arange(nb)[None, :]
    src = np.r_[(a.src[:, None] * nb + jb).ravel(), (ia + b.src).ravel(), (a.src[:, None] * nb + b.src).ravel()]
    dst = np.r_[(a.dst[:, None] * nb + jb).ravel(), (ia + b.dst).ravel(), (a.dst[:, None] * nb + b.dst).ravel()]
    length = np.r_[np.repeat(a.length, nb), np.tile(b.length, na), (a.length[:, None] + b.length).ravel()]
    labels = tuple(f"({la},{lb})" for la in a.labels for lb in b.labels)
    return FiniteDSpace(base=base, edges=np.column_stack((src, dst, length)), labels=labels)


def quotient(space: FiniteDSpace, classes: Sequence[Iterable[int]]) -> FiniteDSpace:
    """Glue the points of each class together.

    The quotient base distance between classes A and B is the infimum of
    chain sums  d(a1, b1) + d(a2, b2) + ...  hopping freely inside classes
    between paid hops.  By the triangle inequality consecutive paid hops
    never help, so this equals shortest paths in the weighted class graph
    whose arc A -> B costs the least base distance between members; that
    graph problem is what gets solved here.  Nothing is merged: every arc
    between distinct classes costs at least the least base distance
    between distinct points, which is positive, so the result is a metric
    space with one point per class, named by and listed in the order of
    its first point.  Edges descend with their lengths; edges collapsing
    to a self-loop are dropped.
    """
    n = space.n
    members = [sorted(_point_indices(list(c), n).tolist()) for c in classes]
    if any(len(c) == 0 for c in members):
        raise ValueError("quotient classes must be non-empty")
    flat = [i for c in members for i in c]
    if sorted(flat) != list(range(n)):
        raise ValueError("classes must partition the point set")
    m = len(members)
    cls_of = np.empty(n, dtype=int)
    for ci, c in enumerate(members):
        cls_of[c] = ci

    # least base distance between classes, over all pairs of members
    cost = np.full((m, m), INFINITY)
    np.minimum.at(cost, (cls_of[:, None], cls_of[None, :]), space.base)
    np.fill_diagonal(cost, 0.0)

    # all-pairs shortest paths by plain relaxation; the class graph is
    # small and scipy's dense routines drop near-zero weights as non-edges
    dist = np.minimum(cost, cost.T)
    for k in range(m):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    np.fill_diagonal(dist, 0.0)

    # list classes by their first point
    by_first = np.argsort([c[0] for c in members])
    new_of = np.argsort(by_first)[cls_of]
    labels = tuple(space.labels[members[ci][0]] for ci in by_first)
    edges = _glued_edges(new_of[space.src], new_of[space.dst], space.length)
    return FiniteDSpace(base=dist[np.ix_(by_first, by_first)], edges=edges, labels=labels)

