"""Self-check harness: suites run green and deterministically."""

import tracemalloc

import numpy as np
import pytest

from dirmetric import SUITES, compute_zigzag, run_checks, random_space
from dirmetric import verify
from dirmetric.gallery import (
    GridSpec,
    _grid_coords,
    _torus_rows,
    directed_square_grid,
    flat_torus_grid,
    open_book,
    source_sink_interval,
)
from dirmetric.distances import DEFAULT_BUDGET
from dirmetric.spaces import _zigzag_graph, compute_reachability, disjoint_union
from dirmetric.verify import _identity_distortion, naive_min_correspondence_distortion
from oracles import full_identity_distortion


def _space_identity_distortion(s):
    """The pruned row search on a space's edges and dense base."""
    return _identity_distortion(_zigzag_graph(s.n, s.src, s.dst, s.length), lambda rows: s.base[rows])


def test_core_suite_passes():
    results = run_checks("core", seed=0)
    assert results and all(r.passed for r in results)
    assert all(r.suite == "core" for r in results)


def test_distances_suite_passes():
    results = run_checks("distances", seed=0)
    assert results and all(r.passed for r in results)


def test_runs_are_deterministic():
    a = run_checks("core", seed=11)
    b = run_checks("core", seed=11)
    assert [(r.name, r.passed, r.details) for r in a] == [
        (r.name, r.passed, r.details) for r in b
    ]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_checks("everything")
    assert set(SUITES) == {"core", "distances", "examples", "all"}


def test_random_space_is_valid_and_connected():
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = random_space(rng, 8)
        assert s.n == 8
        zz = compute_zigzag(s)
        assert np.isfinite(zz).all()
        assert np.all(zz >= s.base - 1e-12)


def test_naive_oracle_on_identical_spaces():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert naive_min_correspondence_distortion(d, d) == 0.0


def test_square_identity_check_holds_no_dense_matrix():
    # tracemalloc sees numpy's allocations: the k = 64 check reads edge
    # arrays and one batch of base and Dijkstra rows at a time (64 evenly
    # spaced rows, then 8 per batch: 264 rows in all), never the
    # 4225 x 4225 base (136 MiB) the dense space held
    tracemalloc.start()
    try:
        passed, details = verify.check_square_identity(0, DEFAULT_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed and details["dis_identity"] == 0.5857864376269049
    assert peak < 4225**2 * 8 / 4


def test_square_identity_check_rejects_an_edge_below_the_base_distance(monkeypatch):
    # the row pruning needs Z >= base; the check tests it edge by edge,
    # as building the dense space did, instead of reporting a pruned value
    step_edges = verify._step_edges

    def halved_first_edge(spec, m):
        src, dst, length = step_edges(spec, m)
        length[0] *= 0.5
        return src, dst, length

    monkeypatch.setattr(verify, "_step_edges", halved_first_edge)
    passed, details = verify.check_square_identity(0, DEFAULT_BUDGET)
    assert not passed and "error" in details


def test_square_grid_reachability_holds_no_float_matrix():
    # the closure is filled from Dijkstra's hop counts one row block at a
    # time, so besides the bool result only a block of floats is alive
    g = directed_square_grid(GridSpec(k=40))
    tracemalloc.start()
    try:
        compute_reachability(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.base.nbytes / 2


@pytest.mark.parametrize("batch", [64, 4])
def test_pruned_identity_distortion_equals_the_full_reduction(monkeypatch, batch):
    # seeded spaces of 1-120 points, 30% not weakly connected (inf rows),
    # plus disjoint unions, whose cross pairs are inf in both metrics so
    # the value stays finite while inf bounds prune nothing.  Seeds and
    # batches of 4 rows let the bounds prune below 64 points too.
    monkeypatch.setattr(verify, "_IDENTITY_SEEDS", batch)
    monkeypatch.setattr(verify, "_IDENTITY_BATCH", batch)
    rng = np.random.default_rng(14)
    for _ in range(120):
        s = random_space(rng, int(rng.integers(1, 121)), connected=rng.random() >= 0.3)
        assert _space_identity_distortion(s) == full_identity_distortion(s)
    for _ in range(10):
        s = disjoint_union(random_space(rng, int(rng.integers(1, 40))), random_space(rng, int(rng.integers(1, 40))))
        assert _space_identity_distortion(s) == full_identity_distortion(s)


def test_pruned_identity_distortion_equals_the_full_reduction_on_the_gallery():
    gallery = [directed_square_grid(GridSpec(k=k)) for k in (8, 16, 33, 40)]
    gallery += [flat_torus_grid(GridSpec(k=k)) for k in (16, 32)]
    gallery += [open_book(10, 8), source_sink_interval(50)]
    for s in gallery:
        assert _space_identity_distortion(s) == full_identity_distortion(s)


def test_identity_distortion_searches_few_square_grid_rows(monkeypatch):
    # the count is deterministic: on the k = 40 square, 244 of 1681 rows
    rows = []
    zigzag = verify._zigzag
    monkeypatch.setattr(verify, "_zigzag", lambda graph, sources: rows.append(len(sources)) or zigzag(graph, sources))
    g = directed_square_grid(GridSpec(k=40))
    _space_identity_distortion(g)
    assert sum(rows) < g.n / 4


def test_torus_ball_masks_from_dijkstra_rows_equal_the_symmetrized_ones(monkeypatch):
    # the check reads 16 unsymmetrized Dijkstra rows; they differ from
    # compute_zigzag's rows by rounding only, and no ball mask moves
    calls = []
    zigzag = verify._zigzag
    monkeypatch.setattr(verify, "_zigzag", lambda graph, sources: calls.append((sources, zigzag(graph, sources))) or calls[-1][1])
    passed, details = verify.check_torus_balls(0, DEFAULT_BUDGET)
    assert passed and details == {"centers": 16, "balls": 48, "violations": 0}
    [(centers, rows)] = calls
    k = 32
    tor = flat_torus_grid(GridSpec(k=k))
    assert centers.tolist() == [tor.index_of(f"({i/4:.10g},{j/4:.10g})") for i in range(4) for j in range(4)]
    assert (_torus_rows(*_grid_coords(k, k), centers) == tor.base[centers]).all()
    zz = compute_zigzag(tor)[centers]
    assert np.abs(rows - zz).max() < 1e-12
    for r in (0.15, 0.30, 0.45):
        assert ((rows <= r) == (zz <= r)).all()


@pytest.mark.parametrize("seed", [7, 11])
def test_chain_check_serializes_no_space(seed):
    # these seeds draw pairs whose base metrics compare further apart than
    # their zigzag metrics; that is no law, so the check neither tallies
    # nor embeds them
    passed, details = verify.check_chain_inequalities(seed, DEFAULT_BUDGET)
    assert passed
    assert details == {"pairs": 30}
