"""Extended arithmetic conventions.

Claims covered: absolute differences treat two infinities as equal,
broadcast like subtraction, and agree with plain abs on finite values.
"""

import numpy as np
import pytest

from dirmetric import INFINITY, ext_abs_diff


def test_abs_diff_scalars():
    assert ext_abs_diff(3.0, 1.0) == 2.0
    assert ext_abs_diff(INFINITY, INFINITY) == 0.0
    assert ext_abs_diff(INFINITY, 1.0) == INFINITY
    assert ext_abs_diff(1.0, INFINITY) == INFINITY


def test_abs_diff_arrays_no_warnings():
    a = np.array([0.0, INFINITY, 2.0, INFINITY])
    b = np.array([1.0, INFINITY, INFINITY, 0.5])
    with np.errstate(invalid="raise"):
        out = ext_abs_diff(a, b)
    assert out.tolist() == [1.0, 0.0, INFINITY, INFINITY]


def test_abs_diff_broadcasts():
    a = np.array([[0.0], [INFINITY]])
    b = np.array([1.0, INFINITY])
    out = ext_abs_diff(a, b)
    assert out.shape == (2, 2)
    assert out[1, 1] == 0.0 and out[0, 1] == INFINITY


def test_rng_ensemble_matches_plain_abs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.random(50)
        b = rng.random(50)
        assert ext_abs_diff(a, b) == pytest.approx(np.abs(a - b))
