"""Self-check harness: suites run green and deterministically."""

import tracemalloc

import numpy as np
import pytest

from dirmetric import SUITES, compute_zigzag, run_checks, random_space
from dirmetric.gallery import GridSpec, directed_square_grid
from dirmetric.spaces import compute_reachability
from dirmetric.verify import _identity_distortion, naive_min_correspondence_distortion


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


def test_square_grid_identity_holds_one_dense_matrix():
    # tracemalloc sees numpy's allocations: building the grid and reducing
    # its identity distortion keep the base and a few row blocks alive, not
    # several n x n arrays (1681 points, so seven blocks of 256 rows)
    tracemalloc.start()
    try:
        g = directed_square_grid(GridSpec(k=40))
        _identity_distortion(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * g.base.nbytes


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
