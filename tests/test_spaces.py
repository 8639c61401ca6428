"""Core space containers and constructions.

Claims covered: builder validation, zigzag distances against a slow
relaxation oracle, reachability against recursive search, reversal
leaving zigzag values bitwise unchanged, the frozen values of the
union / product / quotient constructions, one quotient point per class,
and spaces comparing and hashing by identity.
"""

import sys
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from conftest import small_spaces
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loop_max_triangle_defect, recursive_reachability, relax_zigzag, symmetrized_min
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from dirmetric import (
    INFINITY,
    DirectedMetricSpace,
    FiniteDSpace,
    VertexMap,
    compute_reachability,
    compute_zigzag,
    disjoint_union,
    dump_report,
    ext_abs_diff,
    max_triangle_defect,
    product,
    quotient,
    reverse,
    zigzag_from_edges,
)
from dirmetric import spaces
from dirmetric.cli import main
from dirmetric.fileio import space_to_doc
from dirmetric.gallery import (
    GridSpec,
    directed_interval,
    directed_square_grid,
    flat_torus_grid,
    hollow_square,
    open_book,
    sncf_plane,
    source_sink_interval,
)
from dirmetric.spaces import _python_dijkstra, _weight_csr, _zigzag_graph

TWO = FiniteDSpace(base=[[0.0, 1.0], [1.0, 0.0]], edges=((0, 1, 1.0),))


def random_euclidean(rng, n, n_edges):
    pts = rng.random((n, 2))
    base = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    edges = []
    for _ in range(n_edges):
        i, j = rng.integers(n, size=2)
        if i != j:
            edges.append((int(i), int(j), float(base[i, j] * (1 + rng.random()))))
    return FiniteDSpace(base=base, edges=tuple(edges))


# ---------------------------------------------------------------------------
# validation


def test_builder_rejects_self_loop():
    with pytest.raises(ValueError):
        FiniteDSpace(base=[[0.0, 1.0], [1.0, 0.0]], edges=((0, 0, 1.0),))


def test_builder_rejects_out_of_range():
    with pytest.raises(ValueError):
        FiniteDSpace(base=[[0.0, 1.0], [1.0, 0.0]], edges=((0, 2, 1.0),))


def test_builder_rejects_non_integer_endpoint():
    with pytest.raises(ValueError, match="non-integer endpoint"):
        FiniteDSpace(base=[[0.0, 1.0], [1.0, 0.0]], edges=((0.7, 1, 1.0),))
    # integral values of any type are endpoints, normalised to int
    s = FiniteDSpace(base=[[0.0, 1.0], [1.0, 0.0]], edges=((np.int64(0), 1.0, 1),))
    assert s.edges == ((0, 1, 1.0),) and type(s.edges[0][1]) is int


def test_builder_takes_an_edge_array_as_it_takes_triples():
    triples = ((0, 1, 1.0), (2, 1, 1.5), (0, 2, 2.0))
    from_triples = FiniteDSpace(base=LINE3, edges=triples)
    from_array = FiniteDSpace(base=LINE3, edges=np.array(triples))
    assert from_array.edges == from_triples.edges == triples
    assert all(tuple(map(type, e)) == (int, int, float) for e in from_array.edges)
    assert np.array_equal(from_array.src, from_triples.src) and np.array_equal(from_array.length, from_triples.length)


def test_builder_rejects_short_edge():
    with pytest.raises(ValueError):
        FiniteDSpace(base=[[0.0, 1.0], [1.0, 0.0]], edges=((0, 1, 0.5),))


def test_builder_rejects_nonpositive_and_infinite_lengths():
    zero = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError):
        FiniteDSpace(base=zero, edges=((0, 1, 0.0),))
    with pytest.raises(ValueError):
        FiniteDSpace(base=[[0.0, 1.0], [1.0, 0.0]], edges=((0, 1, INFINITY),))


def test_builder_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        FiniteDSpace(base=[[0.0, 1.0], [1.0, 0.0]], edges=(), labels=("a", "a"))


def test_builder_rejects_asymmetric_base():
    with pytest.raises(ValueError):
        FiniteDSpace(base=[[0.0, 1.0], [2.0, 0.0]], edges=())


def test_builder_rejects_triangle_violation():
    bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    with pytest.raises(ValueError):
        FiniteDSpace(base=bad, edges=())


def test_base_may_contain_infinity():
    base = [[0.0, INFINITY], [INFINITY, 0.0]]
    s = FiniteDSpace(base=base, edges=())
    assert s.base[0, 1] == INFINITY


LINE3 = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]


def test_labels_default_and_lookup():
    s = FiniteDSpace(base=LINE3, edges=())
    assert s.labels == ("0", "1", "2")
    assert s.index_of("2") == 2
    with pytest.raises(KeyError):
        s.index_of("7")


def test_base_is_read_only():
    with pytest.raises(ValueError):
        TWO.base[0, 1] = 5.0


def test_base_is_copied_unless_read_only_and_owning_its_data():
    a = np.array(LINE3)
    s = FiniteDSpace(base=a)
    a[0, 1] = a[1, 0] = 5.0
    assert s.base[0, 1] == 1.0

    a = np.array(LINE3)
    view = a.view()
    view.setflags(write=False)
    s = FiniteDSpace(base=view)
    assert s.base is not view
    a[0, 1] = a[1, 0] = 5.0
    assert s.base[0, 1] == 1.0

    a = np.array(LINE3)
    a.setflags(write=False)
    assert FiniteDSpace(base=a).base is a
    zz, reach = compute_zigzag(TWO), compute_reachability(TWO)
    zz.setflags(write=False)
    assert DirectedMetricSpace(space=TWO, zz=zz, reach=reach).zz is zz


# Validation runs over blocks of 256 rows; 300 points span two blocks, and
# each single fault below sits next to, or mirrors across, row 256.
BLOCKED_N = 300


def line_base(n):
    x = np.arange(n, dtype=float)
    return np.abs(np.subtract.outer(x, x))


@pytest.mark.parametrize(
    "faults, message",
    [
        ([(256, 255, np.nan)], "contains nan"),
        ([(255, 256, 5.0)], "not symmetric"),
        ([(10, 280, 5.0)], "not symmetric"),
        ([(255, 256, 0.0), (256, 255, 0.0)], "non-positive distance"),
        # several faults: the first kind in the order nan, symmetry, positivity
        ([(0, 1, 5.0), (299, 298, np.nan)], "contains nan"),
        ([(0, 1, 0.0), (1, 0, 0.0), (299, 10, 5.0)], "not symmetric"),
        ([(260, 261, 0.0), (261, 260, 0.0), (255, 256, np.inf)], "not symmetric"),
    ],
)
def test_blocked_validation_reports_faults_across_a_block_boundary(faults, message):
    base = line_base(BLOCKED_N)
    for i, j, v in faults:
        base[i, j] = v
    with pytest.raises(ValueError, match=message):
        FiniteDSpace(base=base)


@pytest.mark.parametrize(
    "fault, message",
    [
        ("below", "drop below the base"),
        ("reach", "reachable pair at infinite"),
        ("finiteness", "finiteness of zz is not symmetric"),
    ],
)
def test_blocked_zigzag_checks_across_a_block_boundary(fault, message):
    space = FiniteDSpace(base=line_base(BLOCKED_N))
    zz, reach = compute_zigzag(space), compute_reachability(space)
    if fault == "below":
        zz = line_base(BLOCKED_N)
        zz[256, 255] = zz[255, 256] = 0.5
    elif fault == "reach":
        reach[256, 255] = True
    else:
        zz[255, 256] = 1.0
    with pytest.raises(ValueError, match=message):
        DirectedMetricSpace(space=space, zz=zz, reach=reach)


# ---------------------------------------------------------------------------
# zigzag and reachability against oracles


def test_zigzag_matches_relaxation_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        s = random_euclidean(rng, n, int(rng.integers(0, 2 * n)))
        zz = compute_zigzag(s)
        ref = relax_zigzag(n, s.edges)
        assert float(np.max(ext_abs_diff(zz, ref))) <= 1e-9


def test_reachability_matches_recursive_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        s = random_euclidean(rng, n, int(rng.integers(0, 2 * n)))
        assert np.array_equal(compute_reachability(s), recursive_reachability(n, s.edges))
    # past one block of rows, with a partial last block
    s = random_euclidean(rng, 300, 300)
    assert np.array_equal(compute_reachability(s), recursive_reachability(300, s.edges))


def test_zigzag_is_extended_metric_and_dominates_base():
    rng = np.random.default_rng(13)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        s = random_euclidean(rng, n, int(rng.integers(1, 3 * n)))
        zz = compute_zigzag(s)
        assert np.allclose(np.diag(zz), 0.0)
        assert np.array_equal(zz, zz.T)
        assert max_triangle_defect(zz) <= 1e-9
        with np.errstate(invalid="ignore"):
            gap = np.where(np.isinf(zz), 0.0, s.base - zz)
        assert gap.max() <= 1e-9


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["cells", "zigzag", "perturbed"]), st.data())
def test_triangle_defect_equals_the_per_k_loop_bit_for_bit(kind, data):
    # arbitrary cells with inf entries, zigzag matrices (inf across
    # components) and zigzag matrices scaled cell by cell, which break the
    # triangle inequality; repr tells -inf, -0.0 and 0.0 apart
    if kind == "cells":
        n = data.draw(st.integers(0, 7))
        d = data.draw(hnp.arrays(float, (n, n), elements=st.one_of(st.floats(0.0, 4.0), st.just(INFINITY))))
    else:
        d = data.draw(small_spaces(8)).zz
        if kind == "perturbed":
            d = d * data.draw(hnp.arrays(float, d.shape, elements=st.floats(0.5, 1.5)))
    assert repr(max_triangle_defect(d)) == repr(loop_max_triangle_defect(d))


def test_triangle_defect_of_a_matrix_with_a_nan_is_nan():
    # the loop dropped every k whose defects held a nan, so it read -inf here
    for cell in ((0, 1), (1, 1), (2, 0)):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d[cell] = np.nan
        assert np.isnan(max_triangle_defect(d))


def test_triangle_defect_ignores_sums_past_the_largest_float():
    # d[i, k] + d[k, j] overflows to inf, an rhs that never counts as violated
    d = np.array([[0.0, 1e308], [1e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(max_triangle_defect(d)) == "0.0"


def test_parallel_edges_take_the_minimum():
    s = FiniteDSpace(base=[[0.0, 1.0], [1.0, 0.0]], edges=((0, 1, 3.0), (0, 1, 1.5)))
    assert compute_zigzag(s)[0, 1] == 1.5


def test_shared_head_pair_connects_through_middle():
    tri = FiniteDSpace(
        base=[[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
        edges=((0, 1, 1.0), (2, 1, 1.0)),
    )
    zz = compute_zigzag(tri)
    assert zz[0, 2] == 2.0
    reach = compute_reachability(tri)
    assert not reach[0, 2] and not reach[2, 0] and reach[0, 1] and reach[2, 1]


def test_zigzag_from_edges_source_rows():
    edges = ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
    full = zigzag_from_edges(4, edges)
    rows = zigzag_from_edges(4, edges, sources=[1, 3])
    assert rows.shape == (2, 4)
    assert np.array_equal(rows, full[[1, 3]])


@pytest.mark.parametrize(
    "edge, message",
    [
        ((0, 1.5, 1.0), "non-integer endpoint"),
        ((0, 3, 1.0), "out of range"),
        ((-1, 1, 1.0), "out of range"),
        ((1, 1, 1.0), "self-loop"),
        ((0, 1, 0.0), "finite and positive"),
        ((0, 1, -1.0), "finite and positive"),
        ((0, 1, INFINITY), "finite and positive"),
        ((0, 1, float("nan")), "finite and positive"),
    ],
)
def test_zigzag_from_edges_checks_edges_as_a_space_does(edge, message):
    with pytest.raises(ValueError, match=message):
        zigzag_from_edges(3, [(1, 2, 1.0), edge])
    with pytest.raises(ValueError, match=message):
        FiniteDSpace(base=LINE3, edges=[(1, 2, 1.0), edge])


def test_blocked_symmetrizing_matches_the_full_size_reference():
    tor = flat_torus_grid(GridSpec(k=20))
    assert len(set(zip(tor.src.tolist(), tor.dst.tolist()))) == len(tor.src)  # no parallel edges to reduce
    raw = dijkstra(csr_matrix((tor.length, (tor.src, tor.dst)), shape=(tor.n, tor.n)), directed=False)
    assert (raw != raw.T).any()  # tie-break rounding gives the step work to do
    assert np.array_equal(compute_zigzag(tor).view(np.int64), symmetrized_min(raw).view(np.int64))


# lengths whose sums round onto each other along different routes
COLLIDING = np.array([1 / 3, 0.1, 0.2, 0.3, 0.1 * (1 + 1e-15), 0.2 * (1 + 1e-15), 0.3 * (1 + 1e-15), 2 / 3, 1.0])


def random_edge_arrays(rng, n):
    """Edges on n points: some repeated with other lengths, some reversed,
    sometimes confined to two halves so the graph falls apart, sometimes none."""
    m = int(rng.integers(0, 3 * n + 1)) if rng.random() >= 0.1 else 0
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    if rng.random() < 0.3:
        half = max(n // 2, 1)
        dst = np.where(src < half, dst % half, half + dst % max(n - half, 1))
    keep = src != dst
    src, dst = src[keep], dst[keep]
    rep = rng.random(len(src)) < 0.3
    rev = rng.random(len(src)) < 0.3
    src, dst = np.r_[src, src[rep], dst[rev]], np.r_[dst, dst[rep], src[rev]]
    if rng.random() < 0.5:
        length = rng.choice(COLLIDING, len(src))
    else:
        length = rng.random(len(src)) + 1e-3
    return src, dst, length


def scipy_rows(n, src, dst, length, sources, directed):
    """scipy's Dijkstra on a weight matrix holding each pair's shortest edge."""
    shortest = {}
    for u, v, w in zip(src.tolist(), dst.tolist(), length.tolist()):
        shortest[u, v] = min(w, shortest.get((u, v), w))
    rows, cols = [u for u, _ in shortest], [v for _, v in shortest]
    graph = csr_matrix((list(shortest.values()), (rows, cols)), shape=(n, n))
    return dijkstra(graph, directed=directed, indices=sources)


@pytest.mark.parametrize("directed", [False, True])
def test_python_dijkstra_rows_equal_scipy_bit_for_bit(directed):
    # the kernel walks the graph it is given: a forward graph against
    # scipy's directed search, a two-way graph against its undirected one
    build = _weight_csr if directed else _zigzag_graph
    rng = np.random.default_rng(20)
    for _ in range(400):
        n = int(rng.integers(1, 25))
        src, dst, length = random_edge_arrays(rng, n)
        sources = rng.integers(0, n, int(rng.integers(1, 2 * n + 1)))  # repeats included
        rows = _python_dijkstra(build(n, src, dst, length), sources)
        assert np.array_equal(rows, scipy_rows(n, src, dst, length, sources, directed))


def test_each_edge_set_is_reduced_once_per_direction(monkeypatch, tmp_path):
    s = open_book(2, 3)
    calls = []
    build = spaces._weight_csr
    monkeypatch.setattr(spaces, "_weight_csr", lambda *a: calls.append(1) or build(*a))
    DirectedMetricSpace.from_space(s)
    assert len(calls) == 2  # the two-way graph of the zigzag, the forward one of reachability
    graph = _zigzag_graph(s.n, s.src, s.dst, s.length)
    calls.clear()
    _python_dijkstra(graph, np.arange(s.n))
    assert calls == []
    torus = tmp_path / "t32.json"
    assert main(["gen", "torus", "--k", "32", "--out", str(torus)]) == 0
    calls.clear()
    assert main(["ball", str(torus), "--center", "(0.5,0.5)", "--radius", "0.3", "--out", str(tmp_path / "b.csv")]) == 0
    assert len(calls) == 1


def test_python_and_scipy_branches_agree_on_the_gallery(monkeypatch):
    calls = []
    kernel = spaces._python_dijkstra
    monkeypatch.setattr(spaces, "_python_dijkstra", lambda *a: calls.append(1) or kernel(*a))
    gallery = [
        directed_interval(6),
        directed_square_grid(GridSpec(k=6)),
        flat_torus_grid(GridSpec(k=6)),
        source_sink_interval(4),
        open_book(10, 8),
        hollow_square(2),
        sncf_plane([(1, 0), (2, 0), (0, 1)]),
        disjoint_union(open_book(2, 3), reverse(directed_interval(3))),
    ]
    for s in gallery:
        results = []
        for bound, python_runs in ((10**12, True), (-1, False)):
            monkeypatch.setattr(spaces, "_PYTHON_SEARCH_MAX", bound)
            monkeypatch.setattr(spaces, "_PYTHON_SEARCH_WARM_MAX", bound)
            calls.clear()
            results.append((compute_zigzag(s), compute_reachability(s)))
            assert bool(calls) == python_runs
        (zz_py, reach_py), (zz_sp, reach_sp) = results
        assert np.array_equal(zz_py, zz_sp) and np.array_equal(reach_py, reach_sp)


def test_search_bound_drops_once_scipy_is_loaded(monkeypatch):
    # scipy.sparse.csgraph is loaded here, so only searches of R * E up to
    # _PYTHON_SEARCH_WARM_MAX run in Python; with it unloaded, as in a cold
    # CLI run, every search up to _PYTHON_SEARCH_MAX does, with equal rows
    calls = []
    kernel = spaces._python_dijkstra
    monkeypatch.setattr(spaces, "_python_dijkstra", lambda *a: calls.append(len(a[1])) or kernel(*a))
    s = open_book(10, 8)
    graph = _zigzag_graph(s.n, s.src, s.dst, s.length)
    entries = len(graph.indices)
    warm_rows, cold_rows = spaces._PYTHON_SEARCH_WARM_MAX // entries, spaces._PYTHON_SEARCH_MAX // entries
    assert 0 < warm_rows < cold_rows
    small, large = np.arange(warm_rows) % s.n, np.arange(cold_rows) % s.n
    assert "scipy.sparse.csgraph" in sys.modules
    warm = spaces._search(graph, small), spaces._search(graph, large)
    assert calls == [small.size]
    monkeypatch.delitem(sys.modules, "scipy.sparse.csgraph")
    calls.clear()
    cold = spaces._search(graph, small), spaces._search(graph, large)
    assert calls == [small.size, large.size]
    assert all(np.array_equal(a, b) for a, b in zip(warm, cold))


def test_spaces_and_maps_compare_and_hash_by_identity():
    a, b = directed_interval(3), directed_interval(3)
    assert a == a and a != b and len({a, b, a}) == 2
    A, B = DirectedMetricSpace.from_space(a), DirectedMetricSpace.from_space(a)
    assert A == A and A != B and len({A, B, A}) == 2
    f = VertexMap(A, A, (0, 1, 2, 3))
    assert f == VertexMap(A, A, [0, 1, 2, 3]) and hash(f) == hash(VertexMap(A, A, (0, 1, 2, 3)))
    assert f != VertexMap(A, B, (0, 1, 2, 3)) and f != VertexMap(A, A, (0, 0, 2, 3))


def test_reversal_keeps_zigzag_bitwise():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        s = random_euclidean(rng, n, int(rng.integers(0, 3 * n)))
        assert np.array_equal(compute_zigzag(s), compute_zigzag(reverse(s)))


def test_reverse_flips_reachability():
    s = FiniteDSpace(base=LINE3, edges=((0, 1, 1.0), (1, 2, 2.0)))
    assert np.array_equal(compute_reachability(reverse(s)), compute_reachability(s).T)


# ---------------------------------------------------------------------------
# constructions


def test_disjoint_union_keeps_blocks_apart():
    u = disjoint_union(TWO, TWO)
    assert u.n == 4
    assert u.labels == ("0:0", "0:1", "1:0", "1:1")
    zz = compute_zigzag(u)
    assert np.isinf(zz[:2, 2:]).all()
    assert zz[0, 1] == 1.0 and zz[2, 3] == 1.0


def test_product_sum_metric_and_corner_distance():
    p = product(TWO, TWO)
    assert p.n == 4
    i = {lbl: k for k, lbl in enumerate(p.labels)}
    assert p.base[i["(0,0)"], i["(1,1)"]] == 2.0
    assert p.base[i["(0,0)"], i["(0,1)"]] == 1.0
    zz = compute_zigzag(p)
    assert zz[i["(1,0)"], i["(0,1)"]] == 2.0
    assert zz[i["(0,0)"], i["(1,1)"]] == 2.0


def test_product_diagonal_edge_present():
    p = product(TWO, TWO)
    i = {lbl: k for k, lbl in enumerate(p.labels)}
    assert (i["(0,0)"], i["(1,1)"], 2.0) in p.edges


def test_quotient_glues_interval_into_circle():
    line = FiniteDSpace(
        base=[[0.0, 1, 2, 3], [1, 0.0, 1, 2], [2, 1, 0.0, 1], [3, 2, 1, 0.0]],
        edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),
    )
    circle = quotient(line, [[0, 3], [1], [2]])
    assert circle.n == 3
    zz = compute_zigzag(circle)
    assert zz[0, 1] == 1.0 and zz[0, 2] == 1.0 and zz[1, 2] == 1.0


def test_quotient_of_the_discrete_partition_is_the_input():
    eps = 1e-12
    line = FiniteDSpace(
        base=[[0.0, 1.0, 1.0 + eps], [1.0, 0.0, eps], [1.0 + eps, eps, 0.0]],
        edges=((0, 1, 1.0),),
    )
    for classes in ([[0], [1], [2]], [[2], [0], [1]]):
        assert dump_report(space_to_doc(quotient(line, classes))) == dump_report(space_to_doc(line))


@settings(max_examples=150, deadline=None)
@given(small_spaces(), st.data())
def test_quotient_has_one_point_per_class_property(X, data):
    space = X.space
    ids = data.draw(st.lists(st.integers(0, space.n - 1), min_size=space.n, max_size=space.n))
    classes = data.draw(st.permutations([np.flatnonzero(np.array(ids) == c).tolist() for c in set(ids)]))
    q = quotient(space, classes)
    assert q.n == len(classes)
    assert q.labels == tuple(space.labels[min(c)] for c in sorted(classes, key=min))
    assert (q.length >= q.base[q.src, q.dst]).all()


def test_quotient_rejects_bad_partition():
    with pytest.raises(ValueError):
        quotient(TWO, [[0]])
    with pytest.raises(ValueError):
        quotient(TWO, [[0, 1], [1]])
    with pytest.raises(ValueError):
        quotient(TWO, [[0, 1], []])


# ---------------------------------------------------------------------------
# wrapper type and helpers


def test_directed_space_wrapper_checks_shapes():
    X = DirectedMetricSpace.from_space(TWO)
    assert X.n == 2
    assert X.zz[0, 1] == 1.0
    assert X.reach[0, 1] and not X.reach[1, 0]
    with pytest.raises(ValueError):
        DirectedMetricSpace(space=TWO, zz=np.zeros((3, 3)), reach=np.zeros((2, 2), dtype=bool))


def test_every_exported_name_resolves():
    import dirmetric

    assert [name for name in dirmetric.__all__ if not hasattr(dirmetric, name)] == []
