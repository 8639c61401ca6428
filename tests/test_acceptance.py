"""Acceptance gate: the package's headline guarantees, end to end.

One test per guarantee.  Each test prints a single pass/fail line (visible
with -s, and echoed in the failure report otherwise); stated tolerances and
runtime budgets are asserted in the test body, not relaxed.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from dirmetric.cli import main
from dirmetric.distances import (
    DEFAULT_BUDGET,
    ChainReport,
    dcorrespondence_distance,
    distortion_distance,
    gh_distance,
)
from dirmetric.fileio import doc_to_space, load_space
from dirmetric.gallery import open_book
from dirmetric.spaces import DEFAULT_TOL, DirectedMetricSpace
from dirmetric.verify import (
    check_chain_inequalities,
    check_disometry_detection,
    check_gh_oracle_equivalence,
    check_grid_oracle_convergence,
    check_open_book,
    check_reversal_gh_zero,
    check_reversal_invariance,
    check_source_sink,
    check_square_identity,
    check_torus_balls,
    check_zigzag_dominates_base,
    check_zigzag_metric_axioms,
)

# The gates that draw seeded ensembles run on each of these seeds;
# `run_checks("all")` passes on every seed from 0 to 19.
SEEDS = (0, 1, 2)


def _timed(check, *, seed=SEEDS[0], **kwargs):
    t0 = time.perf_counter()
    passed, details = check(seed, DEFAULT_BUDGET, **kwargs)
    return passed, details, time.perf_counter() - t0


def _each_seed(check):
    """(seed, passed, details, seconds) of check on each of SEEDS."""
    return [(seed, *_timed(check, seed=seed)) for seed in SEEDS]


def _line(name, ok):
    print(f"[acceptance] {name}: {'pass' if ok else 'FAIL'}")


def test_zigzag_axioms_on_random_ensemble():
    # 50 random directed graphs, n <= 40: zero diagonal, symmetry,
    # extended triangle inequality, symmetric finiteness; under 10 s a seed.
    for seed, passed, details, secs in _each_seed(check_zigzag_metric_axioms):
        ok = passed and secs < 10.0
        _line(f"zigzag extended-metric axioms, seed {seed}", ok)
        assert passed, (seed, details)
        assert secs < 10.0, f"seed {seed} took {secs:.2f}s"


def test_zigzag_dominates_base_entrywise():
    for seed, passed, details, _ in _each_seed(check_zigzag_dominates_base):
        _line(f"zigzag >= base entrywise, seed {seed}", passed)
        assert passed, (seed, details)


def test_reversal_leaves_zigzag_and_gh_unchanged():
    # zz(reverse s) equals zz(s) entrywise and gh(s, reverse s) is 0 exactly.
    runs = zip(_each_seed(check_reversal_invariance), _each_seed(check_reversal_gh_zero))
    for (seed, p1, d1, _), (_, p2, d2, _) in runs:
        _line(f"reversal invariance, seed {seed}", p1 and p2)
        assert p1, (seed, d1)
        assert p2, (seed, d2)


def test_distance_chain_on_random_pairs():
    # 30 random pairs with |X|, |Y| <= 3, all values exhaustive:
    # gh <= dis <= cdis on every pair; under 60 s a seed.
    for seed, passed, details, secs in _each_seed(check_chain_inequalities):
        ok = passed and secs < 60.0
        _line(f"distance inequality chain, seed {seed}", ok)
        assert passed, (seed, details)
        assert secs < 60.0, f"seed {seed} took {secs:.2f}s"


def test_base_comparison_may_exceed_zigzag_on_a_sampled_pair():
    # A pair that check_chain_inequalities draws at seed 4: two-point
    # spaces whose edges are longer than the base gap.  The chain holds,
    # yet the classical comparison of the base metrics (gh of the same
    # points with the base as their zigzag metric) exceeds zigzag-gh, so
    # base-vs-zigzag is no law and the chain check does not assert it.
    X = DirectedMetricSpace.from_space(doc_to_space({
        "labels": ["0", "1"],
        "base": [[0.0, 0.8975425336848932], [0.8975425336848932, 0.0]],
        "edges": [[0, 1, 1.2285298450333118], [1, 0, 1.2601889899280196]],
    }))
    Y = DirectedMetricSpace.from_space(doc_to_space({
        "labels": ["0", "1"],
        "base": [[0.0, 0.8122001942731903], [0.8122001942731903, 0.0]],
        "edges": [[1, 0, 1.1616898162669858], [0, 1, 1.3514783502506924]],
    }))
    rep = ChainReport(X, Y, DEFAULT_BUDGET)
    base = gh_distance(
        *(DirectedMetricSpace(S.space, zz=S.space.base, reach=np.eye(S.n, dtype=bool)) for S in (X, Y)),
        DEFAULT_BUDGET,
    )
    ok = rep.conclusive and rep.chain_holds and base.exact and base.value > rep.gh.value + DEFAULT_TOL
    _line("base comparison is not bounded by zigzag", ok)
    assert rep.conclusive and rep.chain_holds
    assert base.exact and base.value > rep.gh.value + DEFAULT_TOL
    assert rep.gh.value == 0.033420014383163
    assert base.value == 0.04267116970585144


def test_the_directed_distances_are_not_equivalent():
    # The paper: "these directed distances are not equivalent".  Open book
    # with 3 v 4 sheets of 3 cells: gh is 1/12, while no d-correspondence
    # exists, so cdis is inf; both values are proven exact.
    X = DirectedMetricSpace.from_space(open_book(3, 3))
    Y = DirectedMetricSpace.from_space(open_book(4, 3))
    gh, cdis = gh_distance(X, Y, DEFAULT_BUDGET), dcorrespondence_distance(X, Y, DEFAULT_BUDGET)
    ok = gh.exact and cdis.exact and abs(gh.value - 1.0 / 12.0) <= 1e-12 and math.isinf(cdis.value)
    _line("gh finite where cdis is infinite", ok)
    assert gh.exact and abs(gh.value - 1.0 / 12.0) <= 1e-12
    assert cdis.exact and math.isinf(cdis.value)


def test_chain_closes_on_a_sixteen_point_near_copy():
    # A 16-point space against a relabelled copy with edges stretched by up
    # to 20% (tests/data).  Above every exhaustive cap, all three distances
    # are exact and equal: gh from the threshold search, cdis from the
    # same search under the reachability mask, and dis closed between them
    # by the choice functions of the cdis certificate.
    data = Path(__file__).parent / "data"
    X, Y = (DirectedMetricSpace.from_space(load_space(str(data / f"near-8-n16.{s}.json"))) for s in "XY")
    reports = [f(X, Y, DEFAULT_BUDGET) for f in (gh_distance, distortion_distance, dcorrespondence_distance)]
    ok = all(r.exact and r.value == 0.21191817518669986 for r in reports)
    _line("gh = dis = cdis, exact, on a 16-point near-copy", ok)
    assert [(r.value, r.exact) for r in reports] == [(0.21191817518669986, True)] * 3
    assert reports[1].method == "chain"


def test_two_arm_interval_distances():
    # k = 8 arms: dis within 2/k of 1/2, cdis infinite exactly;
    # k = 2: gh exactly 0.
    passed, details, _ = _timed(check_source_sink)
    _line("two-arm interval distances", passed)
    assert passed, details


def test_square_grid_identity_distortion():
    # k = 64 one-way square: identity distortion and codistortion equal
    # 2 - sqrt(2) within 0.03; half of that certifies the distance
    # between the base and zigzag forms within 0.015.
    passed, details, _ = _timed(check_square_identity)
    _line("square identity distortion 2 - sqrt(2)", passed)
    assert passed, details
    # the pruned row search gives the full matrix's value bit for bit
    assert details["dis_identity"] == 0.5857864376269049


def test_torus_ball_inclusions():
    # k = 32 torus, radii {0.15, 0.3, 0.45}, 4x4 centers:
    # base ball at r/sqrt(2) inside zigzag ball at r inside base ball at r,
    # with a one-cell boundary band; under 30 s.
    passed, details, secs = _timed(check_torus_balls)
    ok = passed and secs < 30.0
    _line("torus ball inclusions", ok)
    assert passed, details
    assert secs < 30.0, f"took {secs:.2f}s"


def test_open_book_spine_distance_vanishes():
    # n sheets glued along a spine: zz(a, b) = 1/n within 1e-9 for
    # n = 1..10, strictly decreasing.
    passed, details, _ = _timed(check_open_book)
    _line("open book spine distance 1/n", passed)
    assert passed, details


def test_relabeling_gives_distortion_zero_with_certificate():
    # 20 relabeled copies: dis = 0 with a mutually inverse certified pair;
    # 20 length-perturbed copies (>= 0.1): dis >= 0.05.
    for seed, passed, details, _ in _each_seed(check_disometry_detection):
        _line(f"relabeling detection, seed {seed}", passed)
        assert passed, (seed, details)


def test_search_agrees_with_independent_oracles():
    # Exhaustive gh equals naive correspondence enumeration to 1e-9 on
    # |X| * |Y| <= 9; grid routes track the closed-form planar oracle with
    # error strictly decreasing over k in {32, 64, 128}.
    # (the grid check draws no seeded ensemble)
    p2, d2, _ = _timed(check_grid_oracle_convergence)
    for seed, p1, d1, _ in _each_seed(check_gh_oracle_equivalence):
        _line(f"independent oracle agreement, seed {seed}", p1 and p2)
        assert p1, (seed, d1)
    assert p2, d2


def test_verify_cli_is_byte_deterministic(capsys):
    code1 = main(["verify", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "--seed", "7"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    _line("verify CLI byte-identical across runs", ok)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True and report["seed"] == 7
