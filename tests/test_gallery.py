"""Example constructors and their advertised numbers.

Claims covered: worst-case overhead ratios of step sets in closed form,
unit-square oracle values against the grid graph, equality of the direct
torus construction with the quotient route, spine distances of the open
book family, hub-and-spoke and hollow-square frozen values, hub-and-spoke
points that cannot be placed rejected without a numpy warning, metric
ball behaviour, and the exact bytes of small gallery, reversed, union,
product and quotient space files.
"""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dirmetric import (
    DEFAULT_STEPS,
    FiniteDSpace,
    GridSpec,
    compute_reachability,
    compute_zigzag,
    directed_interval,
    directed_square_grid,
    disjoint_union,
    dump_report,
    flat_torus_grid,
    hollow_square,
    label_coords,
    metric_ball,
    open_book,
    product,
    quotient,
    random_space,
    reverse,
    sncf_plane,
    source_sink_interval,
    square_grid_graph,
    square_zigzag_oracle,
    step_ratio,
    zigzag_from_edges,
)
from dirmetric.fileio import space_to_doc


# ---------------------------------------------------------------------------
# step sets


def test_step_ratio_closed_forms():
    assert step_ratio(((1, 0), (0, 1))) == pytest.approx(math.sqrt(2.0))
    assert step_ratio(((1, 0), (0, 1), (1, 1))) == pytest.approx(math.sqrt(4.0 - 2.0 * math.sqrt(2.0)))
    assert step_ratio(DEFAULT_STEPS) == pytest.approx(math.sqrt(10.0 - 4.0 * math.sqrt(5.0)))


def test_default_step_ratio_below_documented_bound():
    assert step_ratio(DEFAULT_STEPS) < 1.028


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(k=0)
    with pytest.raises(ValueError):
        GridSpec(k=2, steps=((0, 0),))
    with pytest.raises(ValueError):
        GridSpec(k=2, steps=((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        GridSpec(k=2, steps=((1, -1),))


# ---------------------------------------------------------------------------
# unit square oracle


def test_oracle_comparable_pairs_use_straight_distance():
    assert square_zigzag_oracle((0.0, 0.0), (1.0, 1.0)) == pytest.approx(math.sqrt(2.0))
    assert square_zigzag_oracle((0.2, 0.1), (0.5, 0.5)) == pytest.approx(math.hypot(0.3, 0.4))
    assert square_zigzag_oracle((0.3, 0.3), (0.3, 0.3)) == 0.0


def test_oracle_incomparable_pairs_pay_the_detour():
    assert square_zigzag_oracle((1.0, 0.0), (0.0, 1.0)) == pytest.approx(2.0)
    assert square_zigzag_oracle((0.8, 0.1), (0.1, 0.8)) == pytest.approx(1.4)
    assert square_zigzag_oracle((0.6, 0.4), (0.4, 0.6)) == pytest.approx(0.4)


def test_oracle_is_symmetric_and_validates_inputs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p, q = rng.random(2), rng.random(2)
        assert square_zigzag_oracle(p, q) == pytest.approx(square_zigzag_oracle(q, p))
    with pytest.raises(ValueError):
        square_zigzag_oracle((1.2, 0.0), (0.0, 0.0))


def test_route_value_at_fine_grid():
    # frozen route check: both endpoints snapped to the 1/256 lattice,
    # where the best route is pure axis moves and the grid is exact
    k = 256
    p, q = (0.8, 0.1), (0.1, 0.8)
    _, edges = square_grid_graph(GridSpec(k=k))
    ip = round(p[0] * k) * (k + 1) + round(p[1] * k)
    iq = round(q[0] * k) * (k + 1) + round(q[1] * k)
    val = zigzag_from_edges((k + 1) ** 2, edges, sources=[ip])[0, iq]
    assert val == pytest.approx(1.3984375, abs=1e-12)
    sp = (round(p[0] * k) / k, round(p[1] * k) / k)
    sq = (round(q[0] * k) / k, round(q[1] * k) / k)
    assert val == pytest.approx(square_zigzag_oracle(sp, sq), abs=1e-12)
    assert abs(val - 1.4) <= 2.0 * math.sqrt(2.0) / k


def test_square_grid_graph_is_the_grid_as_arrays():
    # the graph form holds the grid's coordinates and its edges as one
    # (m, 3) array, row for row the space's (src, dst, length)
    spec = GridSpec(k=6)
    coords, edges = square_grid_graph(spec)
    g = directed_square_grid(spec)
    assert isinstance(edges, np.ndarray) and edges.shape == (len(g.edges), 3)
    assert (edges == np.column_stack((g.src, g.dst, g.length))).all()
    assert np.allclose(coords, [label_coords(lbl) for lbl in g.labels], rtol=0.0, atol=1e-10)
    assert (zigzag_from_edges(g.n, edges) == compute_zigzag(g)).all()


def test_grid_between_oracle_and_ratio_bound():
    k = 16
    spec = GridSpec(k=k)
    g = directed_square_grid(spec)
    zz = compute_zigzag(g)
    ratio = step_ratio(spec.steps)
    pts = np.array([label_coords(lbl) for lbl in g.labels])
    oracle = np.array([[square_zigzag_oracle(p, q) for q in pts] for p in pts])
    assert (zz >= oracle - 1e-9).all()
    assert (zz <= ratio * oracle + 1e-9).all()


# ---------------------------------------------------------------------------
# intervals


def test_directed_interval_structure():
    iv = directed_interval(2)
    assert iv.n == 3
    assert iv.labels == ("0", "0.5", "1")
    zz = compute_zigzag(iv)
    assert zz[0, 2] == 1.0
    reach = compute_reachability(iv)
    assert reach[0, 2] and not reach[2, 0]


def test_source_sink_interval_structure():
    k = 4
    s = source_sink_interval(k)
    assert s.n == 2 * k + 1
    zz = compute_zigzag(s)
    xs = np.linspace(-1.0, 1.0, 2 * k + 1)
    assert np.allclose(zz, np.abs(xs[:, None] - xs[None, :]))
    reach = compute_reachability(s)
    assert reach[k].all()
    assert reach[:, k].sum() == 1


# ---------------------------------------------------------------------------
# torus


def test_torus_direct_equals_quotient_route():
    k = 6
    steps = ((1, 0), (0, 1), (1, 1))
    g = directed_square_grid(GridSpec(k=k, steps=steps))
    classes: dict = {}
    for idx in range(g.n):
        i, j = divmod(idx, k + 1)
        classes.setdefault((i % k, j % k), []).append(idx)
    q = quotient(g, [classes[key] for key in sorted(classes)])
    t = flat_torus_grid(GridSpec(k=k, steps=steps))
    assert q.labels == t.labels
    assert sorted(q.edges) == sorted(t.edges)
    assert np.array_equal(compute_zigzag(q), compute_zigzag(t))
    # chaining through intermediate classes can only overshoot the flat metric
    assert float(np.min(q.base - t.base)) >= -1e-12


def test_torus_base_wraps_around():
    k = 8
    t = flat_torus_grid(GridSpec(k=k))
    i0 = t.index_of("(0,0)")
    far = t.index_of(f"({(k - 1) / k:.10g},0)")
    assert t.base[i0, far] == pytest.approx(1.0 / k)
    half = t.index_of("(0.5,0.5)")
    assert t.base[i0, half] == pytest.approx(math.sqrt(0.5))


def test_torus_base_is_built_one_row_block_at_a_time():
    # tracemalloc sees numpy's allocations: besides the base itself only a
    # block of rows is alive, not the five n x n temporaries of a whole-matrix
    # hypot of the wrapped differences (1024 points)
    tracemalloc.start()
    try:
        t = flat_torus_grid(GridSpec(k=32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * t.base.nbytes


def test_torus_zigzag_between_scaled_euclidean_bounds():
    t = flat_torus_grid(GridSpec(k=8))
    zz = compute_zigzag(t)
    assert (zz >= t.base - 1e-9).all()
    assert (zz <= math.sqrt(2.0) * t.base + 1e-9).all()


# ---------------------------------------------------------------------------
# open book


def test_open_book_spine_distance_is_shortest_sheet():
    for n in (1, 2, 5):
        book = open_book(n, 3)
        zz = compute_zigzag(book)
        assert zz[book.index_of("a"), book.index_of("b")] == pytest.approx(1.0 / n, abs=1e-9)


def test_open_book_spine_distance_ignores_subdivision():
    vals = []
    for m in (2, 3, 5):
        book = open_book(4, m)
        zz = compute_zigzag(book)
        vals.append(zz[book.index_of("a"), book.index_of("b")])
    assert max(vals) - min(vals) <= 1e-12


def test_open_book_point_count():
    book = open_book(3, 2)
    assert book.n == 2 + 3 * 1
    assert len(book.edges) == 3 * 2


def test_open_book_validates_arguments():
    with pytest.raises(ValueError):
        open_book(0, 3)
    with pytest.raises(ValueError):
        open_book(2, 1)


# ---------------------------------------------------------------------------
# plane examples


def test_sncf_cross_ray_goes_through_hub():
    s = sncf_plane([(1.0, 0.0), (0.0, 2.0)])
    zz = compute_zigzag(s)
    assert zz[s.index_of("(1,0)"), s.index_of("(0,2)")] == pytest.approx(3.0)


def test_sncf_same_ray_stays_on_it():
    s = sncf_plane([(1.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
    assert (s.index_of("(1,0)"), s.index_of("(2,0)"), 1.0) in [
        (a, b, pytest.approx(l)) for (a, b, l) in s.edges
    ]
    zz = compute_zigzag(s)
    assert zz[s.index_of("(1,0)"), s.index_of("(2,0)")] == pytest.approx(1.0)


def test_sncf_prepends_origin_and_rejects_duplicates():
    s = sncf_plane([(1.0, 0.0)])
    assert s.labels[0] == "(0,0)"
    with pytest.raises(ValueError):
        sncf_plane([(1.0, 0.0), (1.0, 0.0)])
    # inf and nan coordinates, and two points whose distance overflows
    # (each 1e308 from the origin), are named without a numpy warning
    for points in ([(math.inf, 0.0)], [(1.0, 1.0), (math.nan, 2.0)], [(1e308, 0.0), (-1e308, 0.0)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"cannot be placed: coordinates must be finite"):
                sncf_plane(points)


def test_hollow_square_boundary_only():
    hs = hollow_square(2)
    assert hs.n == 8
    assert "(0.5,0.5)" not in hs.labels
    zz = compute_zigzag(hs)
    assert zz[hs.index_of("(0,0)"), hs.index_of("(1,1)")] == pytest.approx(2.0)
    assert zz[hs.index_of("(1,0)"), hs.index_of("(0,1)")] == pytest.approx(2.0)
    assert zz[hs.index_of("(0,0)"), hs.index_of("(0.5,0)")] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# balls


def test_metric_ball_membership_and_validation():
    iv = directed_interval(4)
    zz = compute_zigzag(iv)
    b = metric_ball(zz, 0, 0.5)
    assert b.count == 3
    assert b.members[: 3].all() and not b.members[3:].any()
    assert metric_ball(zz, 0, 0.0).count == 1
    assert metric_ball(zz, 0, 10.0).count == 5
    with pytest.raises(ValueError):
        metric_ball(zz, 9, 0.5)
    with pytest.raises(ValueError):
        metric_ball(zz, 0, -0.1)
    with pytest.raises(ValueError):
        metric_ball(zz, 0, float("nan"))


def test_label_coords_round_trip():
    assert label_coords("(0.25,0.5)") == (0.25, 0.5)
    assert label_coords("(-1,-1)") == (-1.0, -1.0)
    assert label_coords("a") is None
    assert label_coords("(1,2,3)") is None


# ---------------------------------------------------------------------------
# frozen space files: point order, edge order and every float of the
# written file, recorded from the loop-built constructions


def _frozen_cases():
    rng = np.random.default_rng(5)
    r3, r4 = random_space(rng, 3), random_space(rng, 4)
    line = FiniteDSpace(
        base=np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0))),
        edges=((0, 2, 2.5), (1, 3, 2.5), (0, 3, 3.5), (1, 2, 1.2), (3, 2, 1.0)),
    )
    # points 0, 1, 2 sit 1e-12 apart yet stay apart: the singleton classes,
    # given out of order, come back as 5 points with the edges sorted
    eps = 1e-12
    x = np.array([0.0, eps, 2 * eps, 1.0, 2.0])
    touching = FiniteDSpace(
        base=np.abs(np.subtract.outer(x, x)),
        edges=((0, 3, 1.0), (2, 3, 1.0), (0, 1, 1.0), (3, 4, 1.0), (4, 2, 2.5), (4, 1, 2.0)),
    )
    return {
        "interval-3": directed_interval(3),
        "square-3": directed_square_grid(GridSpec(k=3)),
        "square-2-custom": directed_square_grid(GridSpec(k=2, steps=((0, 1), (1, 0), (3, 1), (1, 1)))),
        "source-sink-2": source_sink_interval(2),
        "torus-2": flat_torus_grid(GridSpec(k=2)),
        "torus-4": flat_torus_grid(GridSpec(k=4)),
        "torus-2-custom": flat_torus_grid(GridSpec(k=2, steps=((1, 0), (0, 2), (2, 1)))),
        "torus-4-custom": flat_torus_grid(GridSpec(k=4, steps=((0, 1), (1, 0), (3, 1), (1, 2), (4, 4)))),
        "open-book-3-2": open_book(3, 2),
        "sncf": sncf_plane([(1, 0), (2, 0), (0, 1), (-1, -1)]),
        "hollow-square-2": hollow_square(2),
        "reverse-square-2": reverse(directed_square_grid(GridSpec(k=2))),
        "reverse-random": reverse(r4),
        "union": disjoint_union(directed_interval(2), source_sink_interval(1)),
        "product": product(directed_interval(2), source_sink_interval(1)),
        "product-random": product(r3, r4),
        "quotient-square": quotient(directed_square_grid(GridSpec(k=2)), [[0, 6], [1, 7], [2, 8], [3], [4], [5]]),
        "quotient-parallel": quotient(line, [[0, 1], [2, 3]]),
        "quotient-random": quotient(product(r3, directed_interval(1)), [[0, 1], [2, 3], [4], [5]]),
        "quotient-merge": quotient(touching, [[3], [2], [0], [4], [1]]),
    }


FROZEN_SPACE_SHA256 = {
    "interval-3": "a3f83442290cf5042d60cfd332326d801567eccc9e50a6eca4abeda2cf8b5b82",
    "square-3": "506e47832345129cb75e700820cda3c2ce8670b8103364aa632e2145be2ad32a",
    "square-2-custom": "f08e1f328d4182c5fc0d07488c19b7d5d9ccf0f9162888165163a46717728156",
    "source-sink-2": "f9411f63b899f79f2f3157e6bba91a10f7ffff866f50b60e67d28e582efc06e5",
    "torus-2": "394501527a89a340f3b928363b3f6d744baa16cb92d7be4745e74da5eda19cc1",
    "torus-4": "6bc649237c1f47855b542d54974564842b1a7c9b8e4be469c3f15424e47ba33f",
    "torus-2-custom": "20b5a2cb01a23c91b04352cb34d7eb3d4a444f70ff389f3f6f953ca8cf1e9134",
    "torus-4-custom": "a5b5036980d308658c036a504ab8f4de082927b4a56496ed17345430634070b9",
    "open-book-3-2": "f49816830f6863ed39af4e4093a9067924b7d624d5e019bd40f2b413ae69d27a",
    "sncf": "4c54b45e9636b1d81dc0fb872288193f4c1bf86dac98f354c8ea6fb1d1920408",
    "hollow-square-2": "4349ce3c150162d52a6805bfc96c666354901d0863eab870e6fe72ff62c87433",
    "reverse-square-2": "5d5a317e5816969bdce0e9455d71d93c29c7eefc9eb498832b23172f80977aea",
    "reverse-random": "38d9af01746fa95af08d0152b00238ef3a8dff89e80314334bb2469d809f5f3b",
    "union": "428eaf54e5bb2da0133b3fd4bbe653c633830df93b602cc01be23f2cc8167197",
    "product": "807dd31d1c62cb211c63dd8988dd0af9111a9361bb037e10c4f0213c72d2b2ca",
    "product-random": "ec90f6c549f83e787fd83caa808b49bebf5a2b6fbf553333226a18e0bff460be",
    "quotient-square": "12db0a1c96792c5df12b38dcfcc3ee57f63a9985bf3c8cbb96582051eada1d3d",
    "quotient-parallel": "8cb3027c3845fe10ee50141b2d86a2e50a403896b187106504d03c9f4a469c9a",
    "quotient-random": "867c68aab1304d504cfa1b52e1f63992093f27dd3025d23f44c114abb5df1207",
    "quotient-merge": "14bbb164b64fe1763cd376a18b684bb971926653f4f9754fd890130aa8b082e9",
}


def test_space_files_are_frozen():
    got = {
        name: hashlib.sha256(dump_report(space_to_doc(s)).encode()).hexdigest()
        for name, s in _frozen_cases().items()
    }
    assert got == FROZEN_SPACE_SHA256
