"""Worked example spaces: intervals, grids, tori, books, rail networks.

Everything here is a plain FiniteDSpace built from explicit coordinates,
so the zigzag machinery can be exercised against geometry that is easy
to reason about by hand.  Points that live in the plane carry labels of
the form "(x,y)" which downstream tools (ball plots) parse back into
coordinates; label_coords does that parsing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extended import INFINITY
from .spaces import Edge, FiniteDSpace, _glued_edges, _point_indices, _row_blocks, zigzag_from_edges

#: Lattice steps used by the directed square grid unless overridden.  Each
#: step moves weakly up and to the right, so every edge increases both the
#: partial order and the flow the grid discretizes.  With these five steps
#: the worst-case ratio between the cheapest monotone lattice path and the
#: straight segment (see step_ratio) is sqrt(10 - 4*sqrt(5)) ~= 1.0275,
#: comfortably below 1.028; axis steps alone would give sqrt(2).
DEFAULT_STEPS: tuple[tuple[int, int], ...] = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _pt_label(x: float, y: float) -> str:
    return f"({_fmt(x)},{_fmt(y)})"


def label_coords(label: str):
    """Parse an "(x,y)" point label back into floats, or None."""
    if not (label.startswith("(") and label.endswith(")")):
        return None
    parts = label[1:-1].split(",")
    if len(parts) != 2:
        return None
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        return None


@dataclass(frozen=True)
class GridSpec:
    """Resolution and step set for the directed square grid.

    k      : grid resolution; points sit at (i/k, j/k), 0 <= i, j <= k
    steps  : monotone lattice steps (a, b), integers a, b >= 0, (a, b) != (0, 0);
             each raises at least one coordinate and lowers none
    """

    k: int
    steps: tuple[tuple[int, int], ...] = DEFAULT_STEPS

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("grid resolution k must be >= 1")
        steps = tuple((int(a), int(b)) for (a, b) in self.steps)
        if not steps:
            raise ValueError("need at least one step")
        for a, b in steps:
            if a < 0 or b < 0 or (a == 0 and b == 0):
                raise ValueError(f"step {(a, b)} is not monotone")
        if len(set(steps)) != len(steps):
            raise ValueError("duplicate steps")
        object.__setattr__(self, "steps", steps)


def step_ratio(steps=DEFAULT_STEPS) -> float:
    """Worst-case lattice-path overhead over straight-line distance.

    For a monotone direction lying between two adjacent step directions u
    and v, the cheapest nonnegative combination alpha*u + beta*v reaching
    it costs alpha*|u| + beta*|v|; the unit-cost frontier is the segment
    from u/|u| to v/|v|, so the overhead in that cone is 1 over the
    distance from the origin to that segment.  inf if the step directions
    do not span the full quadrant.
    """
    dirs = sorted({(a / math.hypot(a, b), b / math.hypot(a, b)) for a, b in steps}, key=lambda d: math.atan2(d[1], d[0]))
    if not dirs:
        return INFINITY
    if dirs[0][1] > 1e-12 or dirs[-1][0] > 1e-12:
        return INFINITY  # cone does not reach the x or the y axis
    worst = 1.0
    for (ux, uy), (vx, vy) in zip(dirs, dirs[1:]):
        # distance from origin to the segment [u, v] of unit vectors
        wx, wy = vx - ux, vy - uy
        ww = wx * wx + wy * wy
        t = 0.0 if ww == 0 else min(1.0, max(0.0, -(ux * wx + uy * wy) / ww))
        d = math.hypot(ux + t * wx, uy + t * wy)
        worst = max(worst, 1.0 / d)
    return worst


def directed_interval(k: int) -> FiniteDSpace:
    """Unit interval cut into k forward edges of length 1/k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    xs = np.arange(k + 1) / k
    base = np.abs(np.subtract.outer(xs, xs))
    edges = tuple((i, i + 1, 1.0 / k) for i in range(k))
    labels = tuple(_fmt(x) for x in xs)
    return FiniteDSpace(base=base, edges=edges, labels=labels)


def _step_edges(spec: GridSpec, m: int):
    """Step edges of the (k+1) x (k+1) lattice as (src, dst, length) arrays.

    One edge from lattice point (i, j) along each step (a, b) that stays
    inside the square, ordered by step, then i, then j; its length is the
    Euclidean displacement.  Point (i, j) gets index (i mod m) * m + (j mod m):
    m = k + 1 numbers the square grid, m = k glues opposite sides (torus).
    """
    k = spec.k
    src, dst, length = [], [], []
    for a, b in spec.steps:
        i, j = (x.ravel() for x in np.meshgrid(np.arange(k + 1 - a), np.arange(k + 1 - b), indexing="ij"))
        src.append(i % m * m + j % m)
        dst.append((i + a) % m * m + (j + b) % m)
        length.append(np.full(i.size, math.hypot(a, b) / k))
    return np.concatenate(src), np.concatenate(dst), np.concatenate(length)


def square_grid_graph(spec: GridSpec):
    """Coordinates and edges of the directed square grid, no base matrix.

    Edges are (src, dst, length) array rows from (i/k, j/k) along each
    step that stays inside the square, of the Euclidean step length.  For
    resolutions where the dense base matrix would be oversized.
    """
    return np.column_stack(_grid_coords(spec.k, spec.k + 1)), np.column_stack(_step_edges(spec, spec.k + 1))


def _grid_coords(k: int, m: int):
    """x and y of the points (i/k, j/k), 0 <= i, j < m, numbered i * m + j."""
    i, j = np.divmod(np.arange(m * m), m)
    return i / k, j / k


def _plane_rows(x, y, rows, out=None) -> np.ndarray:
    """Euclidean distances from the points `rows` to every point: sqrt(dx^2 + dy^2)."""
    d = np.subtract.outer(x[rows], x, out=out)
    np.square(d, out=d)
    d += np.square(np.subtract.outer(y[rows], y))
    return np.sqrt(d, out=d)


def _torus_rows(x, y, rows, out=None) -> np.ndarray:
    """Flat unit torus distances from the points `rows` to every point (per-axis wraparound)."""
    dx = np.abs(np.subtract.outer(x[rows], x))
    dy = np.abs(np.subtract.outer(y[rows], y))
    return np.hypot(np.minimum(dx, 1.0 - dx, out=dx), np.minimum(dy, 1.0 - dy, out=dy), out=out)


def _lattice_space(spec: GridSpec, m: int, rows_of, edges: np.ndarray) -> FiniteDSpace:
    """The m * m grid points, base filled by rows_of a row block at a time, read-only so the space adopts it."""
    x, y = _grid_coords(spec.k, m)
    base = np.empty((m * m, m * m))
    for r in _row_blocks(m * m):
        rows_of(x, y, r, out=base[r])
    base.setflags(write=False)
    labels = tuple(_pt_label(a, b) for a, b in zip(x, y))
    return FiniteDSpace(base=base, edges=edges, labels=labels)


def directed_square_grid(spec: GridSpec) -> FiniteDSpace:
    """Unit square sampled at (k+1)^2 points, Euclidean base, monotone edges."""
    return _lattice_space(spec, spec.k + 1, _plane_rows, np.column_stack(_step_edges(spec, spec.k + 1)))


def square_zigzag_oracle(p, q):
    """Continuum zigzag distance on the unit square with monotone flow.

    Comparable points (one dominates the other coordinatewise) are joined
    by a straight monotone segment, so the distance is Euclidean.  An
    incomparable pair is joined optimally by switching direction once, at
    either the coordinatewise meet or join; both detours are axis-aligned
    and cost |dx| + |dy|.  Scalar or broadcastable array input.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.min(p) < -1e-9 or np.max(p) > 1 + 1e-9 or np.min(q) < -1e-9 or np.max(q) > 1 + 1e-9:
        raise ValueError("oracle points must lie in the unit square")
    p, q = np.broadcast_arrays(p, q)
    dx = q[..., 0] - p[..., 0]
    dy = q[..., 1] - p[..., 1]
    comparable = (dx >= 0) & (dy >= 0) | (dx <= 0) & (dy <= 0)
    meet = np.minimum(p, q)
    join = np.maximum(p, q)
    via_meet = np.hypot((p - meet)[..., 0], (p - meet)[..., 1]) + np.hypot((q - meet)[..., 0], (q - meet)[..., 1])
    via_join = np.hypot((join - p)[..., 0], (join - p)[..., 1]) + np.hypot((join - q)[..., 0], (join - q)[..., 1])
    out = np.where(comparable, np.hypot(dx, dy), np.minimum(via_meet, via_join))
    return float(out) if out.ndim == 0 else out


def source_sink_interval(k: int) -> FiniteDSpace:
    """Interval [-1, 1] with all edges directed away from the origin.

    2k + 1 points at spacing 1/k; the origin is index k.  Edges of length
    1/k run towards -1 on the left arm and towards +1 on the right arm,
    so the origin is the only source and the endpoints are sinks.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    xs = np.arange(2 * k + 1) / k - 1.0
    base = np.abs(np.subtract.outer(xs, xs))
    left = tuple((i, i - 1, 1.0 / k) for i in range(k, 0, -1))
    right = tuple((i, i + 1, 1.0 / k) for i in range(k, 2 * k))
    labels = tuple(_fmt(x) for x in xs)
    return FiniteDSpace(base=base, edges=left + right, labels=labels)


def flat_torus_grid(spec: GridSpec) -> FiniteDSpace:
    """Unit flat torus sampled on a k x k grid.

    Obtained from the directed square grid by identifying both pairs of
    opposite boundary edges; the class of (i/k, j/k) is keyed by
    (i mod k, j mod k), giving k^2 points.  Edges are the grid edges taken
    mod k.  The base matrix is the exact flat-torus Euclidean metric
    (per-axis wraparound), not the coarser chain metric the gluing alone
    would induce on the sample points.
    """
    return _lattice_space(spec, spec.k, _torus_rows, _glued_edges(*_step_edges(spec, spec.k)))


def open_book(n: int, m: int) -> FiniteDSpace:
    """n one-way arcs from a to b, the j-th of total length 1/j in m edges.

    Arc j contributes m - 1 interior points and m edges of length 1/(j*m).
    The base metric is the induced shortest-path metric of the underlying
    undirected graph, which makes every edge a geodesic.  The zigzag
    distance from a to b is the length 1/n of the shortest arc.
    """
    if n < 1:
        raise ValueError("need at least one arc")
    if m < 2:
        raise ValueError("need at least two edges per arc")
    labels = ["a", "b"]
    edges: list[Edge] = []
    for j in range(1, n + 1):
        length = 1.0 / (j * m)
        first = len(labels)
        labels.extend(f"arc{j}.{t}" for t in range(1, m))
        chain = [0] + list(range(first, first + m - 1)) + [1]
        edges.extend((chain[t], chain[t + 1], length) for t in range(m))
    total = len(labels)
    base = zigzag_from_edges(total, edges)
    return FiniteDSpace(base=base, edges=tuple(edges), labels=tuple(labels))


def sncf_plane(points) -> FiniteDSpace:
    """Hub-and-spoke plane: every route passes through the origin.

    Takes planar points (the origin is added if absent), Euclidean base.
    Edges run from the origin out to every point, and between points on a
    common ray from the origin, always outward.  Between points on
    different rays the only zigzag routes double back through the origin,
    so zz(p, q) = |p| + |q| there.  Raises ValueError naming a point whose
    coordinates are not finite or exceed 1e150 in absolute value, where
    its distances and the products of the ray test would overflow.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    placeable = (np.abs(pts) <= 1e150).all(axis=1)  # False for nan
    if not placeable.all():
        x, y = pts[np.argmin(placeable)].tolist()
        raise ValueError(f"point ({x:g}, {y:g}) cannot be placed: coordinates must be finite, at most 1e150 in size")
    norms = np.hypot(pts[:, 0], pts[:, 1])
    if not (norms <= 1e-12).any():
        pts = np.vstack([[0.0, 0.0], pts])
        norms = np.hypot(pts[:, 0], pts[:, 1])
    diff = pts[:, None, :] - pts[None, :, :]
    base = np.hypot(diff[..., 0], diff[..., 1])
    n = len(pts)
    if (base[~np.eye(n, dtype=bool)] <= 1e-12).any():
        raise ValueError("duplicate points")
    origin = int(np.argmin(norms))
    edges: list[Edge] = []
    for i in range(n):
        if i != origin:
            edges.append((origin, i, float(norms[i])))
    for i in range(n):
        for j in range(n):
            if i == j or i == origin or j == origin:
                continue
            cross = pts[i, 0] * pts[j, 1] - pts[i, 1] * pts[j, 0]
            dot = pts[i] @ pts[j]
            if abs(cross) <= 1e-9 * norms[i] * norms[j] and dot > 0 and norms[j] > norms[i] + 1e-12:
                edges.append((i, j, float(base[i, j])))
    labels = tuple(_pt_label(x, y) for x, y in pts)
    return FiniteDSpace(base=base, edges=tuple(edges), labels=labels)


def hollow_square(subdivisions: int = 1) -> FiniteDSpace:
    """Boundary of the unit square with monotone flow, no interior.

    Bottom and top edges run left to right, left and right edges run
    bottom to top, each side cut into `subdivisions` pieces.  Opposite
    corners are at zigzag distance 2 (around either side), against a base
    distance of sqrt(2).
    """
    m = int(subdivisions)
    if m < 1:
        raise ValueError("subdivisions must be >= 1")
    coords: list[tuple[float, float]] = []
    index: dict[tuple[float, float], int] = {}

    def at(x: float, y: float) -> int:
        key = (round(x, 12), round(y, 12))
        if key not in index:
            index[key] = len(coords)
            coords.append(key)
        return index[key]

    edges: list[Edge] = []
    step = 1.0 / m
    for i in range(m):
        edges.append((at(i * step, 0.0), at((i + 1) * step, 0.0), step))
    for i in range(m):
        edges.append((at(i * step, 1.0), at((i + 1) * step, 1.0), step))
    for i in range(m):
        edges.append((at(0.0, i * step), at(0.0, (i + 1) * step), step))
    for i in range(m):
        edges.append((at(1.0, i * step), at(1.0, (i + 1) * step), step))
    arr = np.asarray(coords, dtype=float)
    diff = arr[:, None, :] - arr[None, :, :]
    base = np.hypot(diff[..., 0], diff[..., 1])
    labels = tuple(_pt_label(x, y) for x, y in arr)
    return FiniteDSpace(base=base, edges=tuple(edges), labels=labels)


@dataclass(frozen=True)
class BallGrid:
    """Membership mask of a closed metric ball over a space's points."""

    center: int
    radius: float
    members: np.ndarray

    def __post_init__(self):
        members = np.array(self.members, dtype=bool, copy=True)
        members.setflags(write=False)
        object.__setattr__(self, "members", members)

    @property
    def count(self) -> int:
        return int(self.members.sum())


def metric_ball(d: np.ndarray, center: int, radius: float) -> BallGrid:
    """Closed ball {x : d(center, x) <= radius} for any distance matrix."""
    d = np.asarray(d, dtype=float)
    center = int(_point_indices(center, d.shape[0]))
    if not radius >= 0:  # false for nan
        raise ValueError("radius must be >= 0")
    return BallGrid(center=center, radius=float(radius), members=d[center] <= radius)
