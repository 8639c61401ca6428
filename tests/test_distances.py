"""Comparison distances, certificates, and search determinism.

Claims covered: subset distances on a path (indices outside the space
rejected), integer point indices in range(n) required by every helper
that takes them (a bool beside ints included), distortion helpers
against a slow oracle, the branch-and-bound correspondence search
against naive enumeration,
frozen two-point values for all three distances, the
INFINITY certificate for the two-arm interval against its reversal by
both proof routes, finite cdis certificates checked as
d-correspondences, the cdis threshold search against enumeration of
d-correspondences (seeded and as a property) and, with every pair
allowed, of correspondences, its bracket under a forced node cap, its
decide at every threshold and under node budgets against brute force
over pair subsets, its refusal above the pair limit, its exact value on
a 12-point copy above the exhaustive cap, reachability types against
the slow d-correspondence
rule, type-based propagation against the table form, the value-set
thresholds against the full pair-cost table, the value-gap lower bound
against its former form with a diameter term (seeded and as a property),
the traced memory of cdis at the pair limit, of the threshold search's
set-up and of batched map scoring, the threshold search on random
candidate masks against the full-table reference,
the chain gh <= dis <= cdis with re-scored certificates as a property on
exhaustive sizes, exact dis (the threshold search over role pairs, and
its decide at the optimum and just below) against brute force over
d-map pairs, d-isometry detection, the frozen instance where the
classical comparison of the base metrics (gh of spaces whose zigzag is
their base, through the public call) exceeds the zigzag one, an infinite
dis between spaces with different component counts, the map-pair local
search's all-moves scores, descent and greedy starting maps (with their
rng draws) against full re-scoring, its lean abs-diff against
ext_abs_diff bit for bit, no RuntimeWarning on disconnected pairs, the
starting maps that carry it above its size guards, its frozen results
on two pairs and on twelve random pairs above the exhaustive caps,
one ChainReport running the gh and cdis threshold searches once each,
refusing above the pair limit before any search when asked whether it
is conclusive, and sharing witnesses down the chain for inexact reports
only (on tori 5 v 6 and 5 v 8, where the public functions read the same
reports, and under a forced node cap), every report at the default
budget bracketing the answer key's exact values, a one-point side
answered without a search, a capped probe stopping within two lines of
pairs past its budget, exact gh above the branch and
bound's size through the uncapped threshold search, dis closed from
gh's choice maps with no local search and no cdis search, dis above the
map-pair limit never above the cdis-first order, as a property, and
gh <= dis <= cdis read from a fresh ChainReport per kind under forced
node and pair caps, equal to one ChainReport's read cdis first inside
the pair limit and to the three public functions' everywhere.
"""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from pathlib import Path

import answer_key
import numpy as np
import pytest
from conftest import small_spaces
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    cdis_first_dis,
    diameter_value_gap_lower,
    full_table_threshold_correspondence,
    reach_compat_matrix,
    slow_descend,
    slow_is_dcorrespondence,
    slow_map_distortion,
    slow_min_dcorrespondence,
    slow_min_map_pair,
    slow_pair_objective,
    slow_random_greedy_map,
    subset_cover_distortions,
    table_arc_consistent_candidates,
    table_bnb_correspondence,
)

from dirmetric import (
    INFINITY,
    ChainReport,
    Correspondence,
    DirectedMetricSpace,
    DistanceReport,
    FiniteDSpace,
    GridSpec,
    MapPair,
    SearchBudget,
    compute_zigzag,
    dcorrespondence_distance,
    directed_interval,
    directed_square_grid,
    disjoint_union,
    distortion_distance,
    distortion_relation,
    ext_abs_diff,
    flat_torus_grid,
    gh_distance,
    hausdorff,
    hollow_square,
    load_space,
    map_distortion,
    metric_ball,
    open_book,
    pair_codistortion,
    quotient,
    random_space,
    reverse,
    source_sink_interval,
    zigzag_from_edges,
)
from dirmetric import distances
from dirmetric.distances import (
    _abs_diff,
    _arc_consistent_candidates,
    _batch_map_distortion,
    _correspondences,
    _cover_search,
    _descend,
    _legal_moves,
    _map_pairs,
    _move_scores,
    _neighbours,
    _random_greedy_map,
    _reach_types,
    _threshold_search,
    _thresholds,
    _value_gap_lower,
)
from dirmetric.spaces import DEFAULT_TOL
from dirmetric.verify import naive_min_correspondence_distortion


def dspace(base, edges, labels=None) -> DirectedMetricSpace:
    return DirectedMetricSpace.from_space(FiniteDSpace(base=base, edges=edges, labels=labels))


def threshold_correspondence(dX, dY, types, cand, floor, node_limit):
    """_threshold_search over _correspondences as (lower, value, sorted (x, y) pairs or None)."""
    decide = _cover_search(*_correspondences(dX, dY, types, cand))
    lower, value, cert = _threshold_search(dX, dY, decide, floor, node_limit)
    return lower, value, None if cert is None else list(cert.pairs)


PATH = dspace(
    [[0.0, 1, 2, 3, 4], [1, 0.0, 1, 2, 3], [2, 1, 0.0, 1, 2], [3, 2, 1, 0.0, 1], [4, 3, 2, 1, 0.0]],
    tuple((i, i + 1, 1.0) for i in range(4)),
)


def base_gh(X: DirectedMetricSpace, Y: DirectedMetricSpace, search=gh_distance) -> DistanceReport:
    """The classical comparison of the two base metrics: gh of the same
    points with the base as their zigzag metric and no order to respect.
    Its edges join every two points at finite base distance, so its weak
    components are those on which the base is finite.  search(X, Y) is
    the gh to take, the public one by default."""
    def bare(S):
        d = S.space.base
        i, j = np.nonzero(np.triu(np.isfinite(d), 1))
        space = FiniteDSpace(base=d, edges=np.column_stack((i, j, d[i, j])))
        return DirectedMetricSpace(space, zz=d, reach=np.eye(S.n, dtype=bool))

    return search(bare(X), bare(Y))


# two-point spaces whose single edges differ in length by 2
SHORT = dspace([[0.0, 1.0], [1.0, 0.0]], ((0, 1, 1.0),))
LONG = dspace([[0.0, 1.0], [1.0, 0.0]], ((0, 1, 3.0),))


# ---------------------------------------------------------------------------
# subset distances


def test_hausdorff_on_path():
    assert hausdorff(PATH.zz, [0], [4]) == 4.0
    assert hausdorff(PATH.zz, [0, 4], [2]) == 2.0
    assert hausdorff(PATH.zz, [0, 2, 4], [0, 1, 2, 3, 4]) == 1.0
    assert hausdorff(PATH.zz, list(range(5)), [0]) == 4.0


def test_hausdorff_rejects_empty_subsets():
    with pytest.raises(ValueError):
        hausdorff(PATH.zz, [], [0])
    with pytest.raises(ValueError):
        hausdorff(PATH.zz, [0], [])


def test_hausdorff_rejects_indices_outside_the_space():
    # -1 would read the last point, and 5 fall outside the array, of the
    # five-point interval
    X = DirectedMetricSpace.from_space(directed_interval(4))
    for a, b in (([-1], [0]), ([0], [5]), ([0, 5], [1]), ([2], [1, -3])):
        with pytest.raises(ValueError, match=r"outside range\(5\)"):
            hausdorff(X.zz, a, b)
    assert hausdorff(X.zz, [4], [0]) == hausdorff(X.zz, [0], [4]) == 1.0


_INTERVAL = DirectedMetricSpace.from_space(directed_interval(4))
_ZZ5, _ZZ3 = _INTERVAL.zz, DirectedMetricSpace.from_space(directed_interval(2)).zz


@pytest.mark.parametrize(
    "call",
    [
        lambda: hausdorff(_ZZ5, [0.7], [4]),  # used to read point 0
        lambda: hausdorff(_ZZ5, [True], [4]),  # used to read point 1
        lambda: MapPair((0.9, 1, 2, 3, 4), (0, 1, 2, 3, 4)),  # a float image
        lambda: Correspondence(2, 2, ((0.5, 1), (1, 0))),  # used to store (0, 1)
        lambda: map_distortion([0], _ZZ5, _ZZ3),  # one image broadcast over five points
        lambda: map_distortion([0, 1, 2, 3, -1], _ZZ5, _ZZ5),  # -1 read the last point
        lambda: pair_codistortion([0, 1, 2, 3, 5], [0, 1, 2, 3, 4], _ZZ5, _ZZ5),
        lambda: distortion_relation([(-1, 0)], _ZZ5, _ZZ5),  # returned 0.0
        lambda: metric_ball(_ZZ5, 1.5, 0.3),  # numpy's IndexError
        lambda: hausdorff(_ZZ5, [True, 2], [0]),  # numpy read [1, 2] and returned 0.5
        lambda: distortion_relation([(0, 0), (True, 1)], _ZZ5, _ZZ5),  # read (1, 1)
        lambda: Correspondence(2, 2, ((0, 0), (1, False))),  # stored (1, 0)
        lambda: quotient(directed_interval(4), [[0, 4.7], [1], [2], [3]]),  # glued point 4
        lambda: quotient(directed_interval(4), [[0, 4], [True], [2], [3]]),  # read point 1
        lambda: quotient(directed_interval(4), [[0, "4"], [1], [2], [3]]),  # read point 4
        *(
            lambda s=s: zigzag_from_edges(3, ((0, 1, 1.0), (1, 2, 1.0)), sources=s)
            for s in ([0.7], [-1], [True], ["1"], [5])  # rows 0, 2, 1 and 1, and numpy's IndexError
        ),
        lambda: MapPair((0.7, True), (1.9,)),  # stored ((0, 1), (1,))
        lambda: MapPair((0, 1), (1, 2)),  # g's image 2 outside X's two points
        lambda: MapPair((0, -1), (0, 1)),  # -1 read Y's last point
        lambda: MapPair(((0, 1),), (0, 0)),  # raised TypeError
    ],
)
def test_point_indices_are_integers_in_range(call):
    # every helper taking point indices rejects floats, bools (also beside
    # ints in a Python sequence), strings and indices outside range(n) with
    # a ValueError, on the five-point interval or the three-point path
    with pytest.raises(ValueError, match=r"integers|outside range\(5\)|one image per source point"):
        call()


# ---------------------------------------------------------------------------
# distortion helpers


def test_map_distortion_against_slow_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        nA, nB = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        dA = rng.random((nA, nA))
        dB = rng.random((nB, nB))
        if rng.random() < 0.3:
            dA[rng.integers(nA), rng.integers(nA)] = INFINITY
        images = tuple(int(v) for v in rng.integers(nB, size=nA))
        assert map_distortion(images, dA, dB) == pytest.approx(slow_map_distortion(images, dA, dB))


def test_pair_codistortion_frozen_value():
    # f = g = identity between the base and a doubled copy of it
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    ident = (0, 1)
    assert pair_codistortion(ident, ident, d, 2.0 * d) == 1.0
    assert map_distortion(ident, d, 2.0 * d) == 1.0


def test_distortion_relation_rejects_empty():
    with pytest.raises(ValueError):
        distortion_relation([], PATH.zz, PATH.zz)


def test_correspondence_properties():
    c = Correspondence(2, 2, ((0, 0), (1, 1)))
    assert c.is_correspondence
    assert not Correspondence(2, 2, ((0, 0),)).is_correspondence
    with pytest.raises(ValueError):
        Correspondence(2, 2, ((0, 5),))
    assert distortion_relation(c.pairs, SHORT.zz, LONG.zz) == 2.0
    assert c.is_dcorrespondence(SHORT.reach, LONG.reach)
    flipped = Correspondence(2, 2, ((0, 1), (1, 0)))
    assert not flipped.is_dcorrespondence(SHORT.reach, LONG.reach)


# ---------------------------------------------------------------------------
# vertex maps


def test_constant_maps_are_always_dmaps():
    k = 3
    X = DirectedMetricSpace.from_space(source_sink_interval(k))
    Xr = DirectedMetricSpace.from_space(reverse(source_sink_interval(k)))
    for y in range(Xr.n):
        assert MapPair((y,) * X.n, (0,) * Xr.n).is_dmap_pair(X, Xr)


def test_identity_between_reversals_is_not_a_dmap():
    k = 3
    X = DirectedMetricSpace.from_space(source_sink_interval(k))
    Xr = DirectedMetricSpace.from_space(reverse(source_sink_interval(k)))
    ident = tuple(range(X.n))
    assert MapPair((0,) * X.n, (0,) * Xr.n).is_dmap_pair(X, Xr)  # only f changes below
    assert not MapPair(ident, (0,) * Xr.n).is_dmap_pair(X, Xr)


def test_fold_map_pair_distortions():
    k = 8
    n = 2 * k + 1
    X = DirectedMetricSpace.from_space(source_sink_interval(k))
    Xr = DirectedMetricSpace.from_space(reverse(source_sink_interval(k)))
    f = tuple([0] * k + [i - k for i in range(k, n)])
    g = tuple([i + k for i in range(0, k + 1)] + [n - 1] * k)
    assert MapPair(f, g).is_dmap_pair(X, Xr)
    assert map_distortion(f, X.zz, Xr.zz) == pytest.approx(1.0)
    assert map_distortion(g, Xr.zz, X.zz) == pytest.approx(1.0)
    assert pair_codistortion(f, g, X.zz, Xr.zz) == pytest.approx(1.0)


def test_dmap_pair_test_requires_one_image_per_point_of_each_space():
    # each pair is a valid MapPair whose images all lie in range of SHORT's
    # and PATH's points, so only the count of one map can be wrong
    assert MapPair((0, 1), (0,) * 5).is_dmap_pair(SHORT, PATH)
    for pair, (X, Y) in ((MapPair((0, 1, 0), (0, 0)), (SHORT, SHORT)), (MapPair((0, 0), (0, 1, 1)), (SHORT, SHORT)),
                         (MapPair((0,) * 5, (0, 1)), (SHORT, PATH)), (MapPair((0, 1), (0,) * 4), (SHORT, PATH))):
        with pytest.raises(ValueError, match="one image per source point"):
            pair.is_dmap_pair(X, Y)


# ---------------------------------------------------------------------------
# the three distances on frozen pairs


def test_two_point_pair_all_three_distances():
    gh = gh_distance(SHORT, LONG)
    dis = distortion_distance(SHORT, LONG)
    cdis = dcorrespondence_distance(SHORT, LONG)
    assert gh.value == pytest.approx(1.0) and gh.exact
    assert dis.value == pytest.approx(1.0) and dis.exact
    assert cdis.value == pytest.approx(1.0) and cdis.exact
    assert gh.method == "branch-and-bound"
    assert dis.method == "exhaustive"
    rep = ChainReport(SHORT, LONG)
    assert rep.conclusive and rep.chain_holds
    base = base_gh(SHORT, LONG)
    assert base.exact and base.value <= rep.gh.value + DEFAULT_TOL


def test_self_distance_is_zero_exact():
    r = gh_distance(PATH, PATH)
    assert r.value == 0.0 and r.exact
    d = distortion_distance(PATH, PATH)
    assert d.value == 0.0 and d.exact


def test_bnb_agrees_with_naive_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(10):
        X = dspace_random(rng, int(rng.integers(1, 4)))
        Y = dspace_random(rng, int(rng.integers(1, 4)))
        r = gh_distance(X, Y)
        assert r.exact
        naive = 0.5 * naive_min_correspondence_distortion(X.zz, Y.zz)
        assert r.value == pytest.approx(naive, abs=1e-9)


def test_positional_bnb_equals_the_suffix_table_reference():
    # the same value and certificate as the search that read per-position
    # suffix tables, on 1056 seeded zigzag pairs with |X|*|Y| <= 20, every
    # third one of two disconnected spaces: every 1 x n and n x 1 shape, where
    # one position rule does all the cutting, four times; independent spaces
    # of the other shapes, 60 times each up to 12 pairs and four times above;
    # and relabelled copies of a space and of its reversal, whose many optimal
    # correspondences make ties
    rng = np.random.default_rng(233)
    lines = [(1, n) for n in range(1, 21)] + [(n, 1) for n in range(2, 21)]
    grids = [(nx, ny) for nx in range(2, 11) for ny in range(2, 20 // nx + 1)]
    cases = [(nx, ny, "independent") for nx, ny in lines] * 4
    cases += [(nx, ny, "independent") for nx, ny in grids if nx * ny <= 12] * 60
    cases += [(nx, ny, "independent") for nx, ny in grids if nx * ny > 12] * 4
    cases += [(n, n, kind) for n in (2, 3, 4) for kind in ("relabelled", "reversed")] * 20
    for count, (nx, ny, kind) in enumerate(cases):
        connected = count % 3 != 0
        s = random_space(rng, nx, connected=connected)
        dX = DirectedMetricSpace.from_space(s).zz
        if kind == "independent":
            dY = DirectedMetricSpace.from_space(random_space(rng, ny, connected=connected)).zz
        else:
            sigma = rng.permutation(nx)
            dY = DirectedMetricSpace.from_space(s if kind == "relabelled" else reverse(s)).zz[np.ix_(sigma, sigma)]
        assert distances._bnb_correspondence(dX, dY) == table_bnb_correspondence(dX, dY), (nx, ny, kind)
    assert len(cases) == 1056


def dspace_random(rng, n) -> DirectedMetricSpace:
    return DirectedMetricSpace.from_space(random_space(rng, n, connected=bool(rng.random() < 0.7)))


def test_reversal_pair_distance_zero():
    rng = np.random.default_rng(32)
    for _ in range(8):
        s = random_space(rng, int(rng.integers(2, 5)))
        X = DirectedMetricSpace.from_space(s)
        Xr = DirectedMetricSpace.from_space(reverse(s))
        r = gh_distance(X, Xr)
        assert r.exact and r.value == 0.0


def stretched_copy(rng, s):
    """s relabelled by a random permutation, edges stretched by up to 30%.

    Same reachability up to the relabelling, so cdis is finite.  Returns
    the analyzed copy and the relabelling as (x, its copy) pairs.
    """
    sigma = rng.permutation(s.n)
    inv = np.argsort(sigma)
    stretched = s.length * rng.uniform(1.0, 1.3, s.length.size)
    Y = dspace(s.base[np.ix_(sigma, sigma)], tuple(zip(inv[s.src].tolist(), inv[s.dst].tolist(), stretched)))
    return Y, [(x, int(inv[x])) for x in range(s.n)]


def test_cdis_certificates_are_dcorrespondences():
    # every finite cdis certificate, below the exhaustive cap and above it
    # (under the node cap), covers both sides and relates points with
    # matching reachability; random covering relations agree with the
    # pairwise loop reference
    rng = np.random.default_rng(61)
    above_cap = 0
    for _ in range(40):
        s = random_space(rng, int(rng.integers(1, 6)))
        X = DirectedMetricSpace.from_space(s)
        if rng.random() < 0.5:
            Y = dspace_random(rng, int(rng.integers(1, 6)))
        else:
            Y, _ = stretched_copy(rng, s)
        r = dcorrespondence_distance(X, Y)
        assert r.exact and r.method in ("propagation", "branch-and-bound")
        if math.isfinite(r.value):
            above_cap += X.n * Y.n > SearchBudget().exhaustive_cdis
            assert r.certificate.is_correspondence
            assert r.certificate.is_dcorrespondence(X.reach, Y.reach)
            assert 0.5 * distortion_relation(r.certificate.pairs, X.zz, Y.zz) == r.value
        pairs = [(x, int(rng.integers(Y.n))) for x in range(X.n)] + [(int(rng.integers(X.n)), y) for y in range(Y.n)]
        c = Correspondence(X.n, Y.n, tuple(pairs))
        assert c.is_dcorrespondence(X.reach, Y.reach) == slow_is_dcorrespondence(pairs, X.reach, Y.reach)
    assert above_cap >= 5


def test_threshold_search_equals_enumeration():
    # 240 seeded pairs with |X|*|Y| <= 12, a third of them disconnected
    # and half of them stretched copies (finite cdis): the search equals
    # enumeration of d-correspondences, and with every pair compatible
    # it equals enumeration of all correspondences (the gh problem)
    rng = np.random.default_rng(71)
    finite = 0
    for i in range(240):
        nX = int(rng.integers(1, 5))
        s = random_space(rng, nX, connected=bool(rng.random() < 0.67))
        X = DirectedMetricSpace.from_space(s)
        if i % 2 and nX * nX <= 12:
            Y, _ = stretched_copy(rng, s)
        else:
            Y = dspace_random(rng, int(rng.integers(1, min(6, 12 // nX) + 1)))
        r = dcorrespondence_distance(X, Y)
        slow = slow_min_dcorrespondence(X.zz, Y.zz, X.reach, Y.reach)
        assert r.exact and r.value == 0.5 * slow, (i, r, slow)
        finite += math.isfinite(slow)
        mn = X.n * Y.n
        every = np.ones(mn, dtype=bool)
        lower, value, pairs = threshold_correspondence(X.zz, Y.zz, None, every, 0.0, INFINITY)
        assert lower == value == naive_min_correspondence_distortion(X.zz, Y.zz)
        if pairs is not None:
            assert distortion_relation(pairs, X.zz, Y.zz) == value
    assert finite >= 100


def test_exhaustive_dis_equals_brute_force_over_dmap_pairs():
    # 210 seeded pairs of at most 3 v 3, 2 v 4 or 4 v 2 points: reversals
    # (where most maps are not d-maps), stretched copies and independent
    # spaces, a quarter of the first sides and half of the independent
    # second sides disconnected, one-point sides among them.  The
    # role-pair cover search equals the least objective over every pair of
    # d-maps, and its certificate is a d-map pair that re-scores to it
    rng = np.random.default_rng(36)
    outcomes = {"finite": 0, "infinite": 0, "one point": 0, "four points": 0}
    for i in range(210):
        s = random_space(rng, int(rng.integers(1, 4 if i % 3 else 5)), connected=i % 4 != 3)
        X = DirectedMetricSpace.from_space(s)
        if i % 3 == 1:
            Y = DirectedMetricSpace.from_space(reverse(s))
        elif i % 3 == 2:
            Y = stretched_copy(rng, s)[0]
        else:
            m = int(rng.integers(1, {1: 5, 2: 5, 3: 4, 4: 3}[X.n]))
            Y = DirectedMetricSpace.from_space(random_space(rng, m, connected=i % 2 == 0))
        slow = slow_min_map_pair(X, Y)
        # decide finds a cover at the optimum and none just below it
        decide, T = _cover_search(*_map_pairs(X, Y)), _thresholds(X.zz, Y.zz)
        k = int(np.searchsorted(T, slow))
        for j in range(max(k - 1, 0), k + 1):
            cert = decide(T[j], INFINITY)[0]
            assert (cert is not None) == (j == k), (i, j, k)
            if cert is not None:
                assert cert.is_dmap_pair(X, Y)
                assert cert.objective(X.zz, Y.zz) <= T[j]
        r = ChainReport(X, Y).dis
        assert (r.value, r.lower, r.exact, r.method) == (0.5 * slow, 0.5 * slow, True, "exhaustive"), (i, r, slow)
        if r.certificate is None:
            assert math.isinf(slow)
        else:
            assert r.certificate.is_dmap_pair(X, Y)
            assert 0.5 * r.certificate.objective(X.zz, Y.zz) == r.value
        outcomes["finite" if math.isfinite(slow) else "infinite"] += 1
        outcomes["one point"] += 1 in (X.n, Y.n)
        outcomes["four points"] += 4 in (X.n, Y.n)
    assert min(outcomes.values()) >= 10, outcomes


@settings(max_examples=150, deadline=None)
@given(small_spaces(), small_spaces())
def test_threshold_search_equals_enumeration_property(X, Y):
    assume(X.n * Y.n <= 12)
    r = dcorrespondence_distance(X, Y)
    assert r.exact and r.value == 0.5 * slow_min_dcorrespondence(X.zz, Y.zz, X.reach, Y.reach)
    if r.certificate is not None:
        assert r.certificate.is_dcorrespondence(X.reach, Y.reach)


@settings(max_examples=150, deadline=None)
@given(small_spaces(max_n=3), small_spaces(max_n=3))
def test_chain_holds_and_certificates_rescore_property(X, Y):
    # at most 3 points a side: all three searches are exhaustive
    gh, dis, cdis = gh_distance(X, Y), distortion_distance(X, Y), dcorrespondence_distance(X, Y)
    assert gh.exact and dis.exact and cdis.exact
    assert gh.value <= dis.value + 1e-9 and dis.value <= cdis.value + 1e-9
    for r in (gh, dis, cdis):
        assert (r.certificate is None) == math.isinf(r.value)
    if gh.certificate is not None:
        assert 0.5 * distortion_relation(gh.certificate.pairs, X.zz, Y.zz) == gh.value
    if dis.certificate is not None:
        assert dis.certificate.is_dmap_pair(X, Y)
        assert 0.5 * dis.certificate.objective(X.zz, Y.zz) == dis.value
    if cdis.certificate is not None:
        assert cdis.certificate.is_dcorrespondence(X.reach, Y.reach)
        assert 0.5 * distortion_relation(cdis.certificate.pairs, X.zz, Y.zz) == cdis.value


def test_capped_cdis_search_reports_an_honest_bracket(monkeypatch):
    # a node cap far too small to finish: the search's report, and the
    # chain's, which is no higher, keep a proven lower bound below a
    # certificate that re-scores and is a d-correspondence
    monkeypatch.setattr(distances, "NODE_LIMIT", 25)
    rng = np.random.default_rng(83)
    capped = 0
    for n in (8, 9, 10, 11, 12):
        s = random_space(rng, n)
        X = DirectedMetricSpace.from_space(s)
        Y, _ = stretched_copy(rng, s)
        own = distances._plain_cdis(X, Y, SearchBudget())
        assert own.method == "branch-and-bound"
        capped += not own.exact
        chain = dcorrespondence_distance(X, Y)
        assert chain.value <= own.value and own.lower <= chain.lower
        for r in (own, chain):
            assert r.lower <= r.value
            assert r.certificate.is_dcorrespondence(X.reach, Y.reach)
            assert 0.5 * distortion_relation(r.certificate.pairs, X.zz, Y.zz) == r.value
    assert capped >= 3


def test_cdis_rejects_more_point_pairs_than_the_limit(monkeypatch):
    monkeypatch.setattr(distances, "PAIR_LIMIT", 24)
    rng = np.random.default_rng(3)
    X4, X5, X6 = (DirectedMetricSpace.from_space(random_space(rng, n)) for n in (4, 5, 6))
    with pytest.raises(ValueError, match=r"at most 24 point pairs, got \|X\|\*\|Y\| = 5\*5 = 25"):
        dcorrespondence_distance(X5, X5)
    assert dcorrespondence_distance(X4, X6).kind == "cdis"


def test_cdis_of_a_stretched_relabelled_copy_is_exact():
    # 12 points, above the exhaustive cap: exact, and at most half the
    # distortion of the relabelling, which is itself a d-correspondence
    rng = np.random.default_rng(5)
    s = random_space(rng, 12)
    X = DirectedMetricSpace.from_space(s)
    Y, relabelling = stretched_copy(rng, s)
    r = dcorrespondence_distance(X, Y)
    assert r.exact and r.method == "branch-and-bound"
    assert r.value <= 0.5 * distortion_relation(relabelling, X.zz, Y.zz)


def test_row_search_equals_the_full_table_reference():
    # 48 seeded pairs of 3 to 8 points, every third disconnected, half of
    # them stretched copies, and two open-book pairs, where propagation
    # leaves pairs of unequal reachability to the mask: the search that
    # builds pair rows on demand returns the (lower, value, pairs) of the
    # full-table reference with the reach mask and arc-consistent
    # candidates (cdis), with every pair allowed (gh, and gh on the
    # asymmetric base metrics), each without a node cap and under a cap of
    # 30 nodes; the reference walks the same threshold list, which capped
    # runs follow.  Each pair also runs on a seeded random candidate mask,
    # with the reach rule (as an |X| x |Y| mask) and with every pair allowed
    # (raveled); every fourth mask empties a row and every fourth a column
    rng, masks = np.random.default_rng(91), np.random.default_rng(92)
    pairs = [
        (DirectedMetricSpace.from_space(open_book(n, m)), DirectedMetricSpace.from_space(open_book(n + 1, m)))
        for n, m in ((2, 2), (3, 3))
    ]
    for i in range(48):
        s = random_space(rng, int(rng.integers(3, 9)), connected=i % 3 != 2)
        Y = stretched_copy(rng, s)[0] if i % 2 else dspace_random(rng, int(rng.integers(3, 9)))
        pairs.append((DirectedMetricSpace.from_space(s), Y))
    outcomes = {"exact": 0, "capped": 0, "infinite": 0}
    masked = dict.fromkeys(outcomes, 0)
    for i, (X, Y) in enumerate(pairs):
        mn = X.n * Y.n
        compat = reach_compat_matrix(X.reach, Y.reach)
        types = (_reach_types(X.reach), _reach_types(Y.reach))
        every = np.ones(mn, dtype=bool)
        some = masks.random((X.n, Y.n)) < 0.7
        if i % 4 == 1:
            some[masks.integers(X.n)] = False
        elif i % 4 == 3:
            some[:, masks.integers(Y.n)] = False
        cases = (
            (X.zz, Y.zz, types, compat, table_arc_consistent_candidates(compat, X.n, Y.n)),
            (X.zz, Y.zz, None, np.ones((mn, mn), dtype=bool), every),
            (X.space.base, Y.space.base, None, np.ones((mn, mn), dtype=bool), every),
            (X.zz, Y.zz, types, compat, some),
            (X.zz, Y.zz, None, np.ones((mn, mn), dtype=bool), some.ravel()),
        )
        for k, (dX, dY, mask, table, cand) in enumerate(cases):
            floor, T = _value_gap_lower(dX, dY), _thresholds(dX, dY)
            for limit in (INFINITY, 30):
                got = threshold_correspondence(dX, dY, mask, cand, floor, limit)
                assert got == full_table_threshold_correspondence(dX, dY, table, cand, T, floor, limit), (i, k, limit)
                outcome = "infinite" if math.isinf(got[0]) else "exact" if got[0] == got[1] else "capped"
                (masked if k >= 3 else outcomes)[outcome] += 1
    assert min(outcomes.values()) >= 10, outcomes
    assert min(masked.values()) >= 10, masked


def test_row_search_stops_where_the_full_table_reference_stops():
    # node caps of 1, 7, 30 and 200 on pairs of 9 to 12 points with more
    # than 64 point pairs each, so every set of pairs spans several machine
    # words: cdis and gh on stretched copies, gh on independent pairs and
    # on the square grids k = 2 v 3.  Each capped search spends its nodes
    # as the reference does, so it stops at the same threshold with the
    # same best certificate
    rng = np.random.default_rng(93)
    grids = tuple(DirectedMetricSpace.from_space(directed_square_grid(GridSpec(k=k))) for k in (2, 3))
    cases = [(*grids, "gh")]
    for i in range(16):
        s = random_space(rng, int(rng.integers(9, 13)), connected=i % 2 == 0)
        X = DirectedMetricSpace.from_space(s)
        cases.append((X, stretched_copy(rng, s)[0], "cdis"))
        cases.append((X, dspace_random(rng, int(rng.integers(9, 13))), "gh"))
    outcomes = dict.fromkeys([("cdis", "exact"), ("cdis", "capped"), ("gh", "exact"), ("gh", "capped")], 0)
    for X, Y, kind in cases:
        mn = X.n * Y.n
        if kind == "cdis":
            table = reach_compat_matrix(X.reach, Y.reach)
            types = (_reach_types(X.reach), _reach_types(Y.reach))
            cand = table_arc_consistent_candidates(table, X.n, Y.n)
        else:
            table, types, cand = np.ones((mn, mn), dtype=bool), None, np.ones(mn, dtype=bool)
        if cand.sum() <= 64:
            continue
        floor, T = _value_gap_lower(X.zz, Y.zz), _thresholds(X.zz, Y.zz)
        for limit in (1, 7, 30, 200):
            got = threshold_correspondence(X.zz, Y.zz, types, cand, floor, limit)
            ref = full_table_threshold_correspondence(X.zz, Y.zz, table, cand, T, floor, limit)
            assert got == ref, (X.n, Y.n, kind, limit)
            outcomes[kind, "exact" if got[0] == got[1] else "capped"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def test_decide_finds_a_cover_exactly_where_brute_force_does():
    # 36 seeded pairs of 1 to 4 points, every third disconnected, half of
    # them stretched copies; gh (every pair, any two together), cdis with
    # the reach rule on every pair and on the arc-consistent candidates.
    # At every threshold, decide without a cap finds a cover iff some
    # subset of the pair grid is one, and each cover it returns is a
    # (d-)correspondence of distortion at most t.  Under budgets of 0 to 8
    # nodes, a None within the budget is a proof, a budget of at least the
    # nodes the uncapped call spent gives its answer, and a cover found by
    # the walk over siblings left when the budget ran out is still checked
    rng = np.random.default_rng(101)
    outcomes = dict.fromkeys(["cover", "none", "cover past the budget", "undecided"], 0)
    for i in range(36):
        s = random_space(rng, int(rng.integers(1, 5)), connected=i % 3 != 2)
        Y = stretched_copy(rng, s)[0] if i % 2 else dspace_random(rng, int(rng.integers(1, 5)))
        X = DirectedMetricSpace.from_space(s)
        types = (_reach_types(X.reach), _reach_types(Y.reach))
        every = np.ones(X.n * Y.n, dtype=bool)
        compat = reach_compat_matrix(X.reach, Y.reach)
        for mask, table, cand in ((None, None, every), (types, compat, every), (types, compat, _arc_consistent_candidates(*types))):
            decide = _cover_search(*_correspondences(X.zz, Y.zz, mask, cand))
            distortions = subset_cover_distortions(X.zz, Y.zz, table)
            for t in _thresholds(X.zz, Y.zz):
                feasible = bool((distortions <= t).any())
                answer = decide(t, INFINITY)
                for budget in (INFINITY, 0, 1, 2, 3, 5, 8):
                    cert, spent = got = decide(t, budget)
                    pairs = None if cert is None else cert.pairs
                    if budget >= answer[1]:
                        assert got == answer and (pairs is not None) == feasible, (i, t, budget)
                    if pairs is None:
                        assert spent > budget or not feasible, (i, t, budget)
                    else:
                        c = Correspondence(X.n, Y.n, tuple(pairs))
                        assert list(pairs) == sorted(set(pairs)) and c.is_correspondence
                        assert mask is None or c.is_dcorrespondence(X.reach, Y.reach)
                        assert distortion_relation(pairs, X.zz, Y.zz) <= t
                    late = " past the budget" if spent > budget else ""
                    outcomes["undecided" if pairs is None and late else ("none" if pairs is None else "cover") + late] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_a_capped_probe_spends_at_most_two_lines_of_pairs_past_its_budget():
    # past its budget decide only tries the siblings that could still
    # finish a cover, in the frames with at most two lines uncovered, so a
    # probe spends at most budget + 2 * max(|X|, |Y|) + 1 nodes.  On the
    # tori at budget 100 and the first threshold from 0.30, the walk over
    # every open frame's siblings spent 281, 410 and 672, and each probe
    # is undecided.  Seeded pairs of 3 to 6 points run the gh, cdis and dis
    # settings at every threshold under small budgets; a probe within its
    # budget answers as uncapped
    for a, b in ((7, 8), (9, 8), (12, 11)):
        X, Y = (DirectedMetricSpace.from_space(flat_torus_grid(GridSpec(k=k))) for k in (a, b))
        T = _thresholds(X.zz, Y.zz)
        decide = _cover_search(*_correspondences(X.zz, Y.zz, None, np.ones((X.n, Y.n), dtype=bool)))
        cover, spent = decide(T[np.searchsorted(T, 0.30)], 100)
        assert cover is None and 100 < spent <= 100 + 2 * max(X.n, Y.n) + 1, (a, b, spent)
    rng = np.random.default_rng(37)
    cases = []
    for i in range(12):
        s = random_space(rng, int(rng.integers(3, 7)), connected=i % 3 != 2)
        X = DirectedMetricSpace.from_space(s)
        Y = stretched_copy(rng, s)[0] if i % 2 else dspace_random(rng, int(rng.integers(3, 7)))
        types = (_reach_types(X.reach), _reach_types(Y.reach))
        T = _thresholds(X.zz, Y.zz)
        for setting in (_correspondences(X.zz, Y.zz, None, np.ones((X.n, Y.n), dtype=bool)),
                        _correspondences(X.zz, Y.zz, types, _arc_consistent_candidates(*types)), _map_pairs(X, Y)):
            cases.append((X, Y, setting, T))
    past = 0
    for X, Y, setting, T in cases:
        decide = _cover_search(*setting)
        for t in T:
            answer = decide(t, INFINITY)
            for budget in (0, 1, 3, 10):
                cover, spent = decide(t, budget)
                assert spent <= budget + 2 * max(X.n, Y.n) + 1, (X.n, Y.n, t, budget, spent)
                if spent <= budget:
                    assert (cover, spent) == answer
                past += spent > budget
    assert past >= 100


def compatibility_spaces():
    """Seeded random spaces of 1 to 5 points, every third disconnected,
    stretched copies, open books and two-arm intervals with their
    reversals: pairs of them cover every reachability type."""
    rng = np.random.default_rng(97)
    out = []
    for i in range(9):
        s = random_space(rng, int(rng.integers(1, 6)), connected=i % 3 != 2)
        out += [DirectedMetricSpace.from_space(s), stretched_copy(rng, s)[0]]
    for s in (open_book(2, 2), open_book(3, 2), source_sink_interval(1), source_sink_interval(2)):
        out += [DirectedMetricSpace.from_space(s), DirectedMetricSpace.from_space(reverse(s))]
    return out


def test_reach_types_decide_compatibility_like_the_slow_rule():
    # on every pair of pairs of every two spaces: equal types exactly when
    # the two pairs form a relation passing slow_is_dcorrespondence
    spaces = compatibility_spaces()
    seen = set()
    for X in spaces:
        for Y in spaces[::3]:
            tX, tY = _reach_types(X.reach), _reach_types(Y.reach)
            assert tX.dtype == np.int8 and set(np.unique(tX)) <= {0, 1, 2, 3}
            for x in range(X.n):
                for x2 in range(X.n):
                    seen.add(int(tX[x, x2]))
                    for y in range(Y.n):
                        for y2 in range(Y.n):
                            slow = slow_is_dcorrespondence([(x, y), (x2, y2)], X.reach, Y.reach)
                            assert (tX[x, x2] == tY[y, y2]) == slow, (x, y, x2, y2)
    assert seen == {0, 1, 2, 3}


def test_type_arc_consistency_equals_the_table_form():
    spaces = compatibility_spaces()
    outcomes = {"all": 0, "pruned": 0, "emptied": 0}
    for X in spaces:
        for Y in spaces:
            got = _arc_consistent_candidates(_reach_types(X.reach), _reach_types(Y.reach))
            want = table_arc_consistent_candidates(reach_compat_matrix(X.reach, Y.reach), X.n, Y.n)
            assert got.shape == (X.n, Y.n) and (got.ravel() == want).all()
            covers = got.any(axis=1).all() and got.any(axis=0).all()
            outcomes["all" if got.all() else "pruned" if covers else "emptied"] += 1
    assert min(outcomes.values()) >= 4, outcomes


def test_value_set_thresholds_hold_every_pair_cost():
    # every pair a candidate: the thresholds are exactly the distinct
    # finite entries of the full pair-cost table, then inf; under an
    # arc-consistency mask they contain the masked table's entries
    spaces = compatibility_spaces()
    masked = 0
    for X in spaces:
        for Y in spaces[::2]:
            for dX, dY in ((X.space.base, Y.space.base), (X.zz, Y.zz)):
                T = _thresholds(dX, dY)
                C = ext_abs_diff(dX[:, None, :, None], dY[None, :, None, :]).reshape(X.n * Y.n, -1)
                assert T[-1] == INFINITY and (T[:-1] == np.unique(C[np.isfinite(C)])).all()
            P = np.flatnonzero(_arc_consistent_candidates(_reach_types(X.reach), _reach_types(Y.reach)))
            sub = C[np.ix_(P, P)]  # the zigzag costs among the surviving pairs
            assert np.isin(sub[np.isfinite(sub)], T).all()
            masked += 0 < P.size < X.n * Y.n
    assert masked >= 10


@settings(max_examples=100, deadline=None)
@given(small_spaces(max_n=3), small_spaces(max_n=3))
def test_gh_threshold_search_equals_enumeration_property(X, Y):
    # no exhaustive cap: gh goes straight to the threshold search
    r = gh_distance(X, Y, SearchBudget(exhaustive_gh=0))
    assert r.exact and r.method == "branch-and-bound"
    assert r.value == 0.5 * naive_min_correspondence_distortion(X.zz, Y.zz)


def test_chain_holds_above_the_caps():
    # 24 seeded pairs of 6 to 10 points, every fourth disconnected, half of
    # them stretched copies: every search runs past its exhaustive cap, yet
    # gh <= dis <= cdis wherever cdis is finite, and a dis certificate
    # closed from the chain (the choice functions of the cdis certificate)
    # is a pair of d-maps that re-scores to the reported value
    rng = np.random.default_rng(95)
    chained = 0
    for i in range(24):
        s = random_space(rng, int(rng.integers(6, 11)), connected=i % 4 != 3)
        X = DirectedMetricSpace.from_space(s)
        Y = stretched_copy(rng, s)[0] if i % 2 else dspace_random(rng, int(rng.integers(6, 11)))
        gh, dis, cdis = gh_distance(X, Y), distortion_distance(X, Y), dcorrespondence_distance(X, Y)
        assert dis.method in ("chain", "local-search")
        if math.isfinite(cdis.value):
            assert gh.value <= dis.value + DEFAULT_TOL and dis.value <= cdis.value + DEFAULT_TOL
        if dis.method == "chain" and dis.certificate is not None:
            chained += 1
            assert dis.certificate.is_dmap_pair(X, Y)
            assert 0.5 * dis.certificate.objective(X.zz, Y.zz) == dis.value
    assert chained >= 8


def test_gh_threshold_search_holds_no_pair_cost_table():
    # square 4 v 6 has 25 * 49 = 1225 point pairs, so one float table of
    # pair costs would take 12 MB
    X = DirectedMetricSpace.from_space(directed_square_grid(GridSpec(k=4)))
    Y = DirectedMetricSpace.from_space(directed_square_grid(GridSpec(k=6)))
    tracemalloc.start()
    try:
        r = gh_distance(X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.exact and r.method == "branch-and-bound"
    assert peak < 8_000_000, f"traced peak {peak / 1e6:.1f} MB"


def test_cover_search_setup_builds_nothing_per_pair():
    # torus k=8 v square k=7, 4096 pairs under the reach rule: the search
    # numbers pair (x, y) as bit x * |Y| + y, so its set-up holds the
    # |X| + |Y| line masks and the root's live set, not per-pair columns of
    # costs and types ((|X| + |Y|) * |X| * |Y| entries, 4.7 MiB here)
    X = DirectedMetricSpace.from_space(flat_torus_grid(GridSpec(k=8)))
    Y = DirectedMetricSpace.from_space(directed_square_grid(GridSpec(k=7)))
    types, cand = (_reach_types(X.reach), _reach_types(Y.reach)), np.ones((X.n, Y.n), dtype=bool)
    assert cand.size == distances.PAIR_LIMIT
    tracemalloc.start()
    try:
        _cover_search(*_correspondences(X.zz, Y.zz, types, cand))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_batch_map_scoring_memory_is_bounded():
    # 32 maps of 1024 points: 32 * 1024^2 imaged entries, scored in chunks
    # of about 1M entries (8 MiB per float temporary)
    d = DirectedMetricSpace.from_space(directed_interval(1023)).zz
    maps = np.random.default_rng(5).integers(0, 1024, size=(32, 1024))
    tracemalloc.start()
    try:
        scores = _batch_map_distortion(d, d, maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
    assert scores.tolist() == [map_distortion(m, d, d) for m in maps]


def test_value_gap_lower_needs_no_diameter_term():
    # the largest entry of each matrix is matched within the value gap,
    # so adding the diameter difference never raises the bound
    rng = np.random.default_rng(77)
    for _ in range(300):
        X, Y = (random_space(rng, int(rng.integers(1, 9)), connected=bool(rng.random() >= 0.4)) for _ in "XY")
        zX, zY = compute_zigzag(X), compute_zigzag(Y)
        for dX, dY in ((X.base, Y.base), (zX, zY), (zX, float(rng.uniform(0.5, 2.0)) * zX)):
            assert _value_gap_lower(dX, dY) == diameter_value_gap_lower(dX, dY)
            assert _value_gap_lower(dY, dX) == diameter_value_gap_lower(dY, dX)


@settings(max_examples=200, deadline=None)
@given(small_spaces(), small_spaces())
def test_value_gap_lower_equals_the_diameter_form(X, Y):
    for dX, dY in ((X.zz, Y.zz), (X.space.base, Y.space.base), (X.zz, 1.5 * X.zz)):
        assert _value_gap_lower(dX, dY) == diameter_value_gap_lower(dX, dY)


@pytest.mark.parametrize(
    "make, bound_mib",
    [
        (lambda: (flat_torus_grid(GridSpec(k=8)),) * 2, 8),
        (lambda: (directed_interval(63), reverse(directed_interval(63))), 8),
        (lambda: (directed_interval(1), directed_interval(2047)), 24),
        (lambda: (directed_interval(3), directed_interval(1023)), 24),
    ],
    ids=["torus-8-v-8", "interval-63-v-reversal", "interval-1-v-2047", "interval-3-v-1023"],
)
def test_cdis_at_the_pair_limit_holds_no_pair_by_pair_table(make, bound_mib):
    # 4096 point pairs each: one (|X|*|Y|)^2 bool table would take 16 MiB,
    # and a |Y| x |Y| x 4 int32 one-hot of the types 64 MiB on 1 v 2047
    X, Y = (DirectedMetricSpace.from_space(s) for s in make())
    assert X.n * Y.n == distances.PAIR_LIMIT
    tracemalloc.start()
    try:
        r = dcorrespondence_distance(X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.exact
    assert peak <= bound_mib * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# two-arm interval vs its reversal


def test_two_arm_interval_no_compatible_correspondence_both_routes():
    s = source_sink_interval(2)
    X = DirectedMetricSpace.from_space(s)
    Xr = DirectedMetricSpace.from_space(reverse(s))
    by_propagation = dcorrespondence_distance(X, Xr)
    assert math.isinf(by_propagation.value) and by_propagation.exact
    assert by_propagation.method == "propagation"
    # same conclusion from the threshold search, skipping the propagation step
    types = (_reach_types(X.reach), _reach_types(Xr.reach))
    every = np.ones(X.n * Xr.n, dtype=bool)
    assert threshold_correspondence(X.zz, Xr.zz, types, every, 0.0, INFINITY) == (INFINITY, INFINITY, None)


def test_two_arm_interval_map_distance_half():
    s = source_sink_interval(2)
    X = DirectedMetricSpace.from_space(s)
    Xr = DirectedMetricSpace.from_space(reverse(s))
    r = distortion_distance(X, Xr)
    assert r.method == "exhaustive"
    assert r.value == pytest.approx(0.5)
    assert r.certificate.is_dmap_pair(X, Xr)
    assert r.certificate.objective(X.zz, Xr.zz) == pytest.approx(2.0 * r.value)


def test_two_arm_interval_gh_zero():
    s = source_sink_interval(2)
    X = DirectedMetricSpace.from_space(s)
    Xr = DirectedMetricSpace.from_space(reverse(s))
    r = gh_distance(X, Xr)
    assert r.value == 0.0 and r.exact


# ---------------------------------------------------------------------------
# d-isometry detection


def test_relabelled_space_is_disometric():
    rng = np.random.default_rng(33)
    s = random_space(rng, 4)
    sigma = rng.permutation(4)
    inv = np.empty(4, dtype=int)
    inv[sigma] = np.arange(4)
    relabelled = FiniteDSpace(
        base=s.base[np.ix_(sigma, sigma)],
        edges=tuple((int(inv[a]), int(inv[b]), l) for (a, b, l) in s.edges),
        labels=tuple(s.labels[j] for j in sigma),
    )
    X = DirectedMetricSpace.from_space(s)
    Y = DirectedMetricSpace.from_space(relabelled)
    r = distortion_distance(X, Y)
    assert r.exact and r.value == 0.0
    assert r.certificate.is_disometry(X, Y)


def test_is_disometry_rejects_non_bijections_and_distorters():
    assert MapPair((0, 1), (0, 1)).is_disometry(SHORT, SHORT)
    assert not MapPair((0, 0), (0, 1)).is_disometry(SHORT, LONG)  # f is no bijection
    non_inverse = MapPair((0, 1), (0, 0))  # f is a d-isometry, g a d-map but not its inverse
    assert non_inverse.is_dmap_pair(SHORT, SHORT)
    assert not non_inverse.is_disometry(SHORT, SHORT)
    distorting = MapPair((0, 1), (0, 1))
    assert distorting.is_dmap_pair(SHORT, LONG)
    assert not distorting.is_disometry(SHORT, LONG)
    with pytest.raises(ValueError, match="one image per source point"):
        MapPair((0, 1), (0, 1)).is_disometry(SHORT, PATH)


def test_inflating_edges_moves_the_distance():
    rng = np.random.default_rng(34)
    s = random_space(rng, 3)
    inflated = FiniteDSpace(
        base=s.base, edges=tuple((a, b, l + 0.1) for (a, b, l) in s.edges), labels=s.labels
    )
    X = DirectedMetricSpace.from_space(s)
    Y = DirectedMetricSpace.from_space(inflated)
    r = distortion_distance(X, Y)
    assert r.exact
    assert r.value >= 0.05 - 1e-12


# ---------------------------------------------------------------------------
# base metric comparison is not bounded by the zigzag one


def test_frozen_pair_where_base_comparison_exceeds_zigzag():
    # the long edges push the zigzag values together (1.4 vs 1.3) while
    # the bases stay apart (1.0 vs 0.5), so neither comparison distance
    # bounds the other in general
    X = dspace([[0.0, 1.0], [1.0, 0.0]], ((0, 1, 1.4),))
    Y = dspace([[0.0, 0.5], [0.5, 0.0]], ((0, 1, 1.3),))
    rep = ChainReport(X, Y)
    assert rep.conclusive
    assert rep.chain_holds
    base = base_gh(X, Y)
    assert base.exact and base.value > rep.gh.value + DEFAULT_TOL
    assert rep.gh.value == pytest.approx(0.05)
    assert base.value == pytest.approx(0.25)


@settings(max_examples=300, deadline=None)
@given(small_spaces(max_n=6), small_spaces(max_n=6), st.data())
def test_map_pair_objective_is_the_distortion_of_its_graphs(X, Y, data):
    # the correspondence graph(f) with graph(g) transposed has the same
    # terms as the map-pair objective (f's and g's distortions and the
    # codistortion, both ways on symmetric zigzag matrices), so the
    # objective, the distortion of that relation, equals the loop oracle
    # of the three terms to the bit, one-point and disconnected sides
    # included, and gh's local-search certificate scores to the same float
    f = data.draw(st.lists(st.integers(0, Y.n - 1), min_size=X.n, max_size=X.n))
    g = data.draw(st.lists(st.integers(0, X.n - 1), min_size=Y.n, max_size=Y.n))
    pairs = {(x, f[x]) for x in range(X.n)} | {(g[y], y) for y in range(Y.n)}
    pair = MapPair(tuple(f), tuple(g))
    assert pair.relation.pairs == tuple(sorted(pairs))
    assert distortion_relation(sorted(pairs), X.zz, Y.zz) == pair.objective(X.zz, Y.zz) == slow_pair_objective(f, g, X.zz, Y.zz)


def test_local_search_without_a_finite_map_pair_reports_inf(monkeypatch):
    # a connected space against one with two components: every
    # correspondence and every map pair has infinite distortion, above the
    # exhaustive caps as below them.  The threshold search proves it for gh
    # and for the base metrics' comparison, and gh's bound closes dis from
    # the chain; with the pair limit at 0 the local search reports the same
    X = DirectedMetricSpace.from_space(directed_interval(4))
    Y = dspace([[0.0, 1.0, INFINITY, INFINITY], [1.0, 0.0, INFINITY, INFINITY],
                [INFINITY, INFINITY, 0.0, 1.0], [INFINITY, INFINITY, 1.0, 0.0]],
               ((0, 1, 1.0), (2, 3, 1.0)))
    # constant maps are d-maps, yet two components against one leave every
    # map pair an infinite objective
    two = dspace([[0.0, INFINITY], [INFINITY, 0.0]], ())
    interval = DirectedMetricSpace.from_space(directed_interval(20))
    for limit, gh_method, dis_method in ((distances.PAIR_LIMIT, "branch-and-bound", "chain"), (0, "local-search", "local-search")):
        monkeypatch.setattr(distances, "PAIR_LIMIT", limit)
        for r in (gh_distance(X, Y), base_gh(X, Y)):
            assert r.method == gh_method
            assert (r.value, r.lower, r.exact, r.certificate) == (INFINITY, INFINITY, True, None)
        r = distortion_distance(two, interval)
        assert (r.value, r.lower, r.exact, r.certificate, r.method) == (INFINITY, INFINITY, True, None, dis_method)


# ---------------------------------------------------------------------------
# determinism and budget handling


def test_search_reports_are_deterministic(monkeypatch):
    # the threshold search, and the local search above a pair limit of 0
    rng = np.random.default_rng(35)
    s1 = random_space(rng, 6)
    s2 = random_space(rng, 6)
    X = DirectedMetricSpace.from_space(s1)
    Y = DirectedMetricSpace.from_space(s2)
    budget = SearchBudget(exhaustive_gh=4)
    for limit, method in ((distances.PAIR_LIMIT, "branch-and-bound"), (0, "local-search")):
        monkeypatch.setattr(distances, "PAIR_LIMIT", limit)
        a = gh_distance(X, Y, budget)
        b = gh_distance(X, Y, budget)
        assert a == b
        assert a.method == method


@pytest.mark.parametrize("cap", [2.5, True, np.bool_(True), math.nan, "5", np.int64(-1)])
def test_budget_caps_must_be_non_negative_integers(cap):
    for name in ("exhaustive_gh", "exhaustive_cdis"):
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got "):
            SearchBudget(**{name: cap})


def test_budget_caps_take_python_and_numpy_integers():
    assert SearchBudget(exhaustive_gh=np.int64(3), exhaustive_cdis=0) == SearchBudget(3, 0)


def test_chain_report_raises_above_the_pair_limit(monkeypatch):
    # as dcorrespondence_distance does; a limit of 4 keeps the pair small.
    # conclusive and chain_holds read cdis first, so neither gh's search
    # nor a local search runs on a pair that cdis refuses
    monkeypatch.setattr(distances, "PAIR_LIMIT", 4)
    monkeypatch.setattr(distances, "_plain_gh", _refuse)
    monkeypatch.setattr(distances, "_local_search_map_pair", _refuse)
    X = DirectedMetricSpace.from_space(directed_interval(2))
    Y = DirectedMetricSpace.from_space(directed_interval(3))
    for read in (lambda c: c.conclusive, lambda c: c.chain_holds):
        with pytest.raises(ValueError, match="cdis takes at most 4 point pairs"):
            read(ChainReport(X, Y))


def test_a_one_point_side_is_answered_without_a_search(monkeypatch):
    # with |X| = 1 the one correspondence is {x} x Y and every d-map pair
    # is constant, so gh = dis = max(dY) / 2, and cdis is that when each
    # point of Y reaches every other, inf otherwise.  On seeded 1 x k and
    # k x 1 pairs, k <= 9, a third disconnected, and on the strongly
    # connected tori k = 2 and 3, ChainReport gives the reports of the
    # searches without running one, and with the pair limit at 0 cdis does
    # not refuse
    rng = np.random.default_rng(38)
    point = dspace([[0.0]], ())
    others = [DirectedMetricSpace.from_space(flat_torus_grid(GridSpec(k=k))) for k in (2, 3)]
    others += [DirectedMetricSpace.from_space(random_space(rng, int(rng.integers(1, 10)), connected=i % 3 != 2))
               for i in range(12)]
    pairs = [(point, Z) for Z in others] + [(Z, point) for Z in others]
    want = [(distances._plain_gh(X, Y, SearchBudget()),
             distances._threshold_report("dis", X.zz, Y.zz, _map_pairs(X, Y), INFINITY, "exhaustive"),
             distances._plain_cdis(X, Y, SearchBudget())) for X, Y in pairs]
    for name in ("_plain_gh", "_plain_cdis", "_cover_search", "_local_search_map_pair"):
        monkeypatch.setattr(distances, name, _refuse)
    monkeypatch.setattr(distances, "PAIR_LIMIT", 0)
    outcomes = {"finite cdis": 0, "infinite cdis": 0, "infinite gh": 0}
    for (X, Y), reports in zip(pairs, want):
        chain = ChainReport(X, Y)
        assert (chain.gh, chain.dis, chain.cdis) == reports, (X.n, Y.n, reports)
        outcomes["finite cdis" if chain.cdis.value < INFINITY else "infinite cdis"] += 1
        outcomes["infinite gh"] += chain.gh.value == INFINITY
    assert min(outcomes.values()) >= 4, outcomes


def test_exact_gh_above_the_branch_and_bound_size_runs_the_uncapped_threshold_search(monkeypatch):
    # 5 x 6 = 30 point pairs, within a cap of 30 but above BNB_PAIRS: the
    # threshold search, with no node cap even at NODE_LIMIT 0, proves the
    # branch and bound's value
    rng = np.random.default_rng(41)
    pairs = [tuple(DirectedMetricSpace.from_space(random_space(rng, n, connected=i % 3 != 2)) for n in (5, 6))
             for i in range(6)]
    want = [0.5 * distances._bnb_correspondence(X.zz, Y.zz)[0] for X, Y in pairs]
    monkeypatch.setattr(distances, "_bnb_correspondence", _refuse)
    monkeypatch.setattr(distances, "NODE_LIMIT", 0)
    assert distances.BNB_PAIRS < 30
    for (X, Y), value in zip(pairs, want):
        r = gh_distance(X, Y, SearchBudget(exhaustive_gh=30))
        assert (r.value, r.lower, r.exact, r.method) == (value, value, True, "branch-and-bound")
        assert 0.5 * distortion_relation(r.certificate.pairs, X.zz, Y.zz) == r.value


def test_larger_budget_never_worse():
    rng = np.random.default_rng(36)
    s1 = random_space(rng, 5)
    s2 = random_space(rng, 5)
    X = DirectedMetricSpace.from_space(s1)
    Y = DirectedMetricSpace.from_space(s2)
    loose = gh_distance(X, Y, SearchBudget(exhaustive_gh=4))
    tight = gh_distance(X, Y, SearchBudget(exhaustive_gh=25))
    assert tight.exact
    assert tight.value <= loose.value + 1e-12
    assert loose.value >= loose.lower - 1e-12


def test_map_pair_objective_matches_components():
    pair = MapPair(forward=(0, 1), backward=(0, 1))
    val = pair.objective(SHORT.zz, LONG.zz)
    assert val == max(
        map_distortion((0, 1), SHORT.zz, LONG.zz),
        map_distortion((0, 1), LONG.zz, SHORT.zz),
        pair_codistortion((0, 1), (0, 1), SHORT.zz, LONG.zz),
    )


# ---------------------------------------------------------------------------
# map-pair local search: scores of all moves at once, and frozen results


def _rest_without(u, images, other, dS, dT):
    """Largest objective entry not involving point u of the moved map."""
    keep = np.arange(images.size) != u
    moved = ext_abs_diff(dS, dT[np.ix_(images, images)])[np.ix_(keep, keep)]
    cross = ext_abs_diff(dS[:, other], dT[images, :])[keep]
    return max(map_distortion(other, dT, dS), float(moved.max()), float(cross.max()))


@pytest.mark.parametrize("constrained", [False, True])
def test_move_scores_equal_full_rescore(constrained):
    rng = np.random.default_rng(47)
    masked = 0
    for _ in range(10):
        X = dspace_random(rng, int(rng.integers(2, 8)))
        Y = dspace_random(rng, int(rng.integers(2, 8)))
        dX, dY = X.zz, Y.zz
        nbX = _neighbours(X.n, (X.space.src, X.space.dst))
        nbY = _neighbours(Y.n, (Y.space.src, Y.space.dst))
        if constrained:
            f = _random_greedy_map(dX, dY, nbX, Y.reach, rng)
            g = _random_greedy_map(dY, dX, nbY, X.reach, rng)
            if f is None or g is None:
                continue
        else:
            f = rng.integers(Y.n, size=X.n)
            g = rng.integers(X.n, size=Y.n)
        # g is scored like f with both metrics transposed
        for images, other, dS, dT, space, (out, inn, _), reach in (
            (f, g, dX, dY, X.space, nbX, Y.reach),
            (g, f, dY.T, dX.T, Y.space, nbY, X.reach),
        ):
            for u in range(images.size):
                rest = _rest_without(u, images, other, dS, dT)
                scores, _, _, _ = _move_scores(u, images, other, dS, dT, rest)
                legal = _legal_moves(u, images, out, inn, reach)
                for y in range(dT.shape[0]):
                    moved = images.copy()
                    moved[u] = y
                    pair = MapPair(moved, other) if images is f else MapPair(other, moved)
                    assert scores[y] == pair.objective(dX, dY)
                    brute = all(reach[moved[s], moved[d]] for (s, d, _) in space.edges if u in (s, d))
                    assert legal[y] == brute
                masked += int((~legal).sum())
    assert masked > 0  # the edge constraints were exercised


@pytest.mark.parametrize("constrained", [False, True])
def test_descend_matches_full_rescoring_reference(constrained):
    rng = np.random.default_rng(48)
    moved = 0
    for trial in range(8):
        X = dspace_random(rng, int(rng.integers(2, 7)))
        Y = dspace_random(rng, int(rng.integers(2, 7)))
        dX, dY = X.zz, Y.zz
        if trial % 2:
            # the descent takes any matrices; asymmetric ones tell rows from columns
            dX = dX + rng.uniform(0.0, 0.5, dX.shape)
        nbX = _neighbours(X.n, (X.space.src, X.space.dst))
        nbY = _neighbours(Y.n, (Y.space.src, Y.space.dst))
        reachX, reachY = (X.reach, Y.reach) if constrained else (np.ones((X.n, X.n), bool), np.ones((Y.n, Y.n), bool))
        f0 = _random_greedy_map(dX, dY, nbX, reachY, rng)
        g0 = _random_greedy_map(dY, dX, nbY, reachX, rng)
        if f0 is None or g0 is None:
            continue
        val, f, g = _descend(f0.copy(), g0.copy(), dX, dY, nbX, nbY, reachX, reachY)
        ref = slow_descend(f0, g0, dX, dY, X.space.edges, Y.space.edges, reachX, reachY)
        assert (val, f.tolist(), g.tolist()) == ref
        moved += int((f != f0).any() or (g != g0).any())
    assert moved > 0


def test_random_greedy_map_matches_rescoring_reference():
    # the incremental worst/legal arrays against rescoring every placement:
    # gh (no edges, every image legal) and dis (edges kept inside reach), on
    # spaces with several components and on asymmetric dS; equal rng states
    # afterwards show both drew the same numbers
    rng = np.random.default_rng(49)
    no_edges = (np.zeros(0, dtype=int),) * 2
    outcomes = {"map": 0, "dead end": 0}
    for trial in range(80):
        X = DirectedMetricSpace.from_space(random_space(rng, int(rng.integers(1, 10)), connected=trial % 3 != 2))
        Y = DirectedMetricSpace.from_space(random_space(rng, int(rng.integers(1, 10)), connected=trial % 4 != 3))
        dX = X.zz + rng.uniform(0.0, 0.5, X.zz.shape) if trial % 2 else X.zz
        for edges, reachY in (((X.space.src, X.space.dst), Y.reach), (no_edges, np.ones((Y.n, Y.n), bool))):
            nb = _neighbours(X.n, edges)
            seed = int(rng.integers(2**32))
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            with np.errstate(invalid="ignore"):
                got = _random_greedy_map(dX, Y.zz, nb, reachY, fast)
            want = slow_random_greedy_map(dX, Y.zz, nb, reachY, slow)
            assert (None if got is None else got.tolist()) == (None if want is None else want.tolist())
            assert fast.bit_generator.state == slow.bit_generator.state
            outcomes["map" if got is not None else "dead end"] += 1
    assert min(outcomes.values()) > 0


def test_lean_abs_diff_is_ext_abs_diff_bit_for_bit():
    rng = np.random.default_rng(51)
    values = np.array([0.0, 0.25, 1.5, INFINITY])
    a, b = rng.choice(values, (6, 1)), rng.choice(values, (6, 7))
    both_inf, one_inf, equal = np.isinf(a) & np.isinf(b), np.isinf(a) ^ np.isinf(b), (a == b) & np.isfinite(b)
    assert both_inf.any() and one_inf.any() and equal.any()
    with np.errstate(invalid="ignore"):
        for x, y in ((a, b), (b, a), (a.T, b[:, :1].T)):
            assert _abs_diff(x, y).tobytes() == ext_abs_diff(x, y).tobytes()


def test_local_search_on_disconnected_pairs_warns_nothing(monkeypatch):
    # both sides disconnected, so the searches meet inf - inf: the threshold
    # search and the chain, then the local search above a pair limit of 0
    rng = np.random.default_rng(52)
    pairs = []
    while len(pairs) < 3:
        X, Y = (DirectedMetricSpace.from_space(random_space(rng, n, connected=False)) for n in (6, 7))
        if np.isinf(X.zz).any() and np.isinf(Y.zz).any():
            pairs.append((X, Y))
    for limit, methods in ((distances.PAIR_LIMIT, {"branch-and-bound", "chain"}), (0, {"local-search"})):
        monkeypatch.setattr(distances, "PAIR_LIMIT", limit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for X, Y in pairs:
                for distance in (gh_distance, distortion_distance):
                    assert distance(X, Y).method in methods


def test_local_search_start_maps_above_the_size_guards():
    # at 300 and 324 points no random greedy maps are drawn and no descent
    # runs, so only the constant, identity and quantile-profile starting
    # maps compete: the profile map finds a relabelling, the identity a
    # torus against itself
    rng = np.random.default_rng(3)
    s = random_space(rng, 300)
    sigma = rng.permutation(s.n)
    inv = np.argsort(sigma)
    copy = dspace(s.base[np.ix_(sigma, sigma)], tuple(zip(inv[s.src].tolist(), inv[s.dst].tolist(), s.length)))
    torus = DirectedMetricSpace.from_space(flat_torus_grid(GridSpec(k=18)))
    for X, Y in ((DirectedMetricSpace.from_space(s), copy), (torus, torus)):
        assert X.n**3 > 20_000_000 and X.n**4 > 500_000_000
        for distance in (gh_distance, distortion_distance):
            r = distance(X, Y)
            assert (r.value, r.exact, r.method) == (0.0, True, "local-search")


# recorded before the local search scored moves in slabs; both pairs are
# above the exhaustive caps, so with the pair limit at 0 these come from
# _local_search_map_pair
SQUARE_GH_PAIRS = (
    (0, 48), (1, 46), (1, 47), (2, 45), (2, 46), (3, 44), (4, 42), (5, 33), (5, 34), (5, 41), (6, 32),
    (6, 39), (6, 40), (7, 38), (8, 36), (8, 37), (8, 44), (9, 36), (9, 42), (9, 43), (10, 19), (10, 26),
    (10, 27), (11, 24), (11, 25), (11, 26), (12, 23), (12, 24), (12, 31), (13, 22), (13, 23), (13, 29),
    (13, 30), (14, 21), (14, 28), (14, 35), (15, 12), (15, 13), (15, 20), (16, 10), (16, 18), (16, 19),
    (17, 16), (17, 17), (18, 15), (18, 16), (19, 14), (19, 21), (20, 5), (20, 6), (20, 13), (21, 3),
    (21, 4), (21, 5), (21, 11), (22, 2), (22, 3), (22, 9), (23, 0), (23, 1), (23, 2), (23, 8), (24, 0),
    (24, 7),
)
# the exact gh from the threshold search (recorded when gh moved to it)
SQUARE_GH_EXACT_PAIRS = (
    (0, 0), (0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 6), (5, 7), (5, 8), (5, 15), (6, 9), (6, 16), (7, 10),
    (7, 17), (7, 18), (8, 11), (8, 12), (8, 19), (9, 13), (9, 20), (10, 14), (10, 21), (10, 22), (11, 23),
    (11, 30), (12, 24), (12, 25), (12, 32), (13, 26), (13, 33), (14, 27), (15, 28), (15, 36), (16, 29),
    (16, 37), (17, 31), (17, 38), (17, 39), (18, 40), (19, 34), (19, 41), (20, 35), (20, 42), (20, 43),
    (21, 44), (22, 45), (22, 46), (23, 47), (24, 48),
)
SQUARE_DIS_MAPS = (
    (7, 8, 10, 11, 19, 21, 22, 24, 25, 26, 28, 29, 31, 32, 34, 42, 43, 45, 46, 48, 42, 43, 45, 46, 48),
    (0, 1, 1, 2, 3, 3, 4, 0, 1, 1, 2, 4, 4, 4, 5, 6, 7, 7, 9, 9, 9, 5, 6, 7, 7, 14, 14, 14, 10, 11, 12, 12,
     14, 14, 14, 15, 16, 17, 17, 19, 19, 19, 21, 21, 22, 23, 24, 24, 24),
)
ARM_DIS_MAPS = (
    (16, 16, 16, 16, 16, 16, 16, 16, 16, 15, 13, 12, 11, 10, 9, 8, 8),
    (16, 16, 16, 16, 16, 16, 16, 16, 16, 15, 14, 13, 12, 11, 10, 9, 8),
)


def test_local_search_results_frozen(monkeypatch):
    square4 = DirectedMetricSpace.from_space(directed_square_grid(GridSpec(k=4)))
    square6 = DirectedMetricSpace.from_space(directed_square_grid(GridSpec(k=6)))
    arm = DirectedMetricSpace.from_space(source_sink_interval(8))
    arm_r = DirectedMetricSpace.from_space(reverse(source_sink_interval(8)))
    identity = tuple((i, i) for i in range(arm.n))

    # gh is exact from the threshold search; no d-correspondence exists on
    # either pair, so dis runs the local search, from gh's lower bound
    r = gh_distance(square4, square6)
    assert (r.value, r.lower, r.exact, r.method) == (0.14467233145831582, 0.14467233145831582, True, "branch-and-bound")
    assert r.certificate.pairs == SQUARE_GH_EXACT_PAIRS
    r = distortion_distance(square4, square6)
    assert (r.value, r.lower, r.method) == (0.25000000000000006, 0.14467233145831582, "local-search")
    assert (r.certificate.forward, r.certificate.backward) == SQUARE_DIS_MAPS
    r = gh_distance(arm, arm_r)
    assert (r.value, r.lower, r.exact, r.method, r.certificate.pairs) == (0.0, 0.0, True, "branch-and-bound", identity)
    r = distortion_distance(arm, arm_r)
    assert (r.value, r.lower, r.method) == (0.5, 0.0, "local-search")
    assert (r.certificate.forward, r.certificate.backward) == ARM_DIS_MAPS

    # above a pair limit of 0 both take the local search, bounded by the value gap alone
    monkeypatch.setattr(distances, "PAIR_LIMIT", 0)
    r = gh_distance(square4, square6)
    assert (r.value, r.lower, r.method) == (0.20833333333333337, 0.04166666666666674, "local-search")
    assert r.certificate.pairs == SQUARE_GH_PAIRS
    r = distortion_distance(square4, square6)
    assert (r.value, r.lower, r.method) == (0.25000000000000006, 0.04166666666666674, "local-search")
    assert (r.certificate.forward, r.certificate.backward) == SQUARE_DIS_MAPS
    r = gh_distance(arm, arm_r)
    assert (r.value, r.lower, r.exact, r.method, r.certificate.pairs) == (0.0, 0.0, True, "local-search", identity)
    r = distortion_distance(arm, arm_r)
    assert (r.value, r.lower, r.method) == (0.5, 0.0, "local-search")
    assert (r.certificate.forward, r.certificate.backward) == ARM_DIS_MAPS


# sha256 of the gh, dis and gh-base reports (value, lower, exact, method
# and certificate, through repr) on random pairs above the exhaustive
# caps; every third pair has two disconnected spaces.  gh-base is gh of
# the base metrics (base_gh), its kind relabelled "gh-base" as it was
# when the hashes were recorded.  The first hashes were recorded with all
# three from the local search, as they still come above a pair limit of
# 0; the second on the default path: gh and gh-base from the threshold
# search, dis from the chain or the local search
FROZEN_REPORT_SIZES = ((5, 6), (6, 5), (6, 6), (7, 5), (5, 8), (7, 7), (8, 6), (6, 9), (8, 8), (9, 7), (9, 9), (7, 9))
FROZEN_REPORT_SHA256 = (
    "c8cbb6a798c3d251b8da7aa1498bf0f197d5977aa3b880bf15466b218004d55b",
    "f9d98ab6240bb19bc4f9e6c9ab368c447265dd31b1537b498999dea6538f6f8d",
    "77f0d554b43653d7a6496ba7c29bb71e799b792967bc84ac6a6f4aa511edd563",
    "2bc80ffb2545fca42bb9fb5928cdf6818cc1c548e2e7b4d29979fa5274251936",
    "70872a46cabd9b949732ca3cd35c4ea92cc28f63d3e853519b59502419cdd6f0",
    "6aba74a522be8c0c053444745dae9d1f1813f752375c47b375874d42534f017a",
    "02782338a598492d58c821603d797eabcaa6713563a2edee5f86e66ecd51627a",
    "77116f09cedb5ba67b71b0670ab700b0d151d2aea9f6e5d8e3406421f5b95f22",
    "cf9ccfc535f88b9939b1f8a6da36353e7c1f47b3aa81b324cf600b928013715d",
    "c692a4dc7c52754557a9f02962ed2117828871dbb780127d54c520fe382e9c6d",
    "2b998b31575b770ba47158dee9681bcd597203d10d76610b5ee7f4bddc1cc2ea",
    "2d023353346a7a5909a804e078de6b8addd5da5c7b7ef3e30b187b3fd1145fc6",
)
FROZEN_CHAIN_REPORT_SHA256 = (
    "6102c6e0c964ecafe1437fd185f6546d4c0ca504d8eed24ae89191af4ffd98b9",
    "aab2be266be9ec443279fc32719ff73567f5d8411eba1a0b1fad4a1624bdb711",
    "f46e3efb960ae08336bf6f4e91f6db07bffbbc83c3acedf347959402cee177d6",
    "41df536c5f7877e43897781fd734a074866e97b8f9c33c9b5b70658908c03e12",
    "679eec42089152cc42fde9f392bc36da476f293f3947e1dac1dbd4073af179ca",
    "65c3f64333742e6c114a099e6d6da135a4aea5c7c8e495f35cf9605f50329234",
    "072fae82c65111ffb3e7e344187a2ccf3cb1f09e6f5e72cd2421d95194dee46d",
    "dd32f3c4d418f8aabd1758c26dadc121f38d5f96aa4248bfcd4fc605f70a4987",
    "b64006afc6b54e35a7bf7bac0b15b1b9dc3a34fa8750fe3ae1ea81e300145b57",
    "ab8df8a723cf124851327e41a3ce782157397ed4d211b504281ecacfd26e2afa",
    "212a35ad496d1dbee3e9d77414de7882bd14822601fabc43c74af9872e7b5b85",
    "2c0b14997d74b4c9db7753b4df196412ab0f92f02755e8c5cbfb98a0e6e310cf",
)


def test_local_search_reports_frozen_on_random_pairs(monkeypatch):
    def digest(reports):
        return hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest()

    rng = np.random.default_rng(2024)
    pairs = []
    for i, (nx, ny) in enumerate(FROZEN_REPORT_SIZES):
        X = DirectedMetricSpace.from_space(random_space(rng, nx, connected=i % 3 != 2))
        Y = DirectedMetricSpace.from_space(random_space(rng, ny, connected=i % 3 != 2))
        pairs.append((X, Y))

    def gh_base(X, Y, search=gh_distance):
        return dataclasses.replace(base_gh(X, Y, search), kind="gh-base")

    chained = []
    for X, Y in pairs:
        chain = ChainReport(X, Y)
        reports = (chain.gh, chain.dis, gh_base(X, Y))
        assert chain.gh.method == reports[2].method == "branch-and-bound"
        chained.append(digest(reports))
    monkeypatch.setattr(distances, "PAIR_LIMIT", 0)
    # gh's own local search, hashed as it was before the public gh read
    # the chain: through gh_distance an inexact gh may take dis's map pair
    def plain_gh(X, Y):
        return distances._plain_gh(X, Y, SearchBudget())

    local = []
    for X, Y in pairs:
        reports = (plain_gh(X, Y), distortion_distance(X, Y), gh_base(X, Y, plain_gh))
        assert all(r.method == "local-search" for r in reports)
        local.append(digest(reports))
    assert tuple(local) == FROZEN_REPORT_SHA256
    assert tuple(chained) == FROZEN_CHAIN_REPORT_SHA256


def test_chain_report_searches_gh_and_cdis_once(monkeypatch):
    # near-8-n16 is above every exhaustive cap, so dis closes from the
    # chain; one ChainReport hands it its own gh and cdis reports, leaving
    # two threshold searches (gh, cdis).  Separate calls run three: gh's
    # choice maps are d-maps here and meet gh's lower bound, so dis on its
    # own never searches for cdis
    data = Path(__file__).parent / "data"
    X, Y = (DirectedMetricSpace.from_space(load_space(str(data / f"near-8-n16.{s}.json"))) for s in "XY")
    calls = []
    search = distances._threshold_report
    monkeypatch.setattr(distances, "_threshold_report", lambda *a: calls.append(1) or search(*a))
    chain = ChainReport(X, Y)
    chain.conclusive  # reads cdis, gh and dis
    assert len(calls) == 2
    separate = (gh_distance(X, Y), distortion_distance(X, Y), dcorrespondence_distance(X, Y))
    assert len(calls) == 2 + 3
    assert (chain.gh, chain.dis, chain.cdis) == separate
    assert chain.dis.method == "chain"


def _refuse(*args, **kwargs):
    raise AssertionError("this search must not run")


def test_dis_closes_from_gh_maps_without_the_local_search(monkeypatch):
    # the choice maps of gh's certificate are d-maps on these gallery pairs
    # and meet gh's lower bound, so dis is exact from the chain alone
    monkeypatch.setattr(distances, "_local_search_map_pair", _refuse)
    pairs = ((directed_interval(8), directed_interval(12), 0.041666666666666685),
             (hollow_square(2), hollow_square(3), 0.16666666666666674))
    for a, b, value in pairs:
        X, Y = DirectedMetricSpace.from_space(a), DirectedMetricSpace.from_space(b)
        r = distortion_distance(X, Y)
        assert (r.value, r.lower, r.exact, r.method) == (value, value, True, "chain")
        assert gh_distance(X, Y).lower == value
        assert r.certificate.is_dmap_pair(X, Y)
        assert 0.5 * r.certificate.objective(X.zz, Y.zz) == value


def test_dis_closes_from_gh_maps_without_searching_cdis(monkeypatch):
    # a near copy from the pairs-local benchmark: gh's choice maps close
    # the bracket, so dis draws no cdis report and runs no local search
    data = Path(__file__).parent / "data"
    X, Y = (DirectedMetricSpace.from_space(load_space(str(data / f"near-8-n16.{s}.json"))) for s in "XY")
    chain = ChainReport(X, Y)
    chain.cdis  # read first, so the dis below finds cdis's search run
    want = chain.dis
    monkeypatch.setattr(distances, "_plain_cdis", _refuse)
    monkeypatch.setattr(distances, "_local_search_map_pair", _refuse)
    r = distortion_distance(X, Y)
    assert r == want and (r.exact, r.method) == (True, "chain")


@settings(max_examples=40, deadline=None)
@given(small_spaces(max_n=9, min_n=7), small_spaces(max_n=9, min_n=7))
def test_dis_above_the_map_pair_limit_never_above_the_cdis_first_order(X, Y):
    # 7 to 9 points a side are above MAP_PAIR_LIMIT and below PAIR_LIMIT:
    # dis tries gh's certificate before cdis's and the local search, so it
    # can only end lower than the former order, and never below gh's bound
    assert X.n**Y.n * Y.n**X.n > distances.MAP_PAIR_LIMIT
    r = distortion_distance(X, Y)
    value, lower = cdis_first_dis(X, Y)
    assert lower <= r.lower <= r.value <= value
    assert r.method in ("chain", "local-search")
    if r.certificate is None:
        assert r.value == INFINITY
    else:
        assert r.certificate.is_dmap_pair(X, Y)
        assert 0.5 * r.certificate.objective(X.zz, Y.zz) == r.value


@pytest.fixture(scope="module")
def key_chains():
    """ChainReport at the default budget of each answer-key pair, by name, its reads shared by the tests."""
    return {name: ChainReport(X, Y) for name, X, Y in answer_key.pairs()}


def test_chain_report_shares_witnesses_on_tori(key_chains):
    # at the default budget gh's and cdis's threshold searches stop at
    # their first certificates on these pairs (0.3650 and 0.3679 on their
    # own); the graphs of dis's map pair are a better one, and on a torus
    # every correspondence is a d-correspondence, so cdis takes it from gh.
    # The public functions, each on a pair of its own, read the same reports
    for k, value in ((6, 0.1787), (8, 0.2679)):
        chain = key_chains[f"torus-5-{k}"]
        T5, Y = chain.X, chain.Y
        assert chain.gh.method == "chain" and chain.gh.value == pytest.approx(value, abs=5e-5)
        assert chain.gh.value == chain.dis.value == 0.5 * distortion_relation(chain.gh.certificate.pairs, T5.zz, Y.zz)
        assert (chain.cdis.method, chain.cdis.certificate) == ("chain", chain.gh.certificate)
        assert (chain.cdis.value, chain.cdis.lower) == (chain.gh.value, chain.gh.lower)
        assert chain.cdis.certificate.is_dcorrespondence(T5.reach, Y.reach)
        assert chain.gh.value <= chain.dis.value + DEFAULT_TOL and chain.dis.value <= chain.cdis.value + DEFAULT_TOL
        gh, dis, cdis = gh_distance(T5, Y), distortion_distance(T5, Y), dcorrespondence_distance(T5, Y)
        assert (gh, dis, cdis) == (chain.gh, chain.dis, chain.cdis)
        assert gh.value <= dis.value <= cdis.value


def test_every_report_brackets_the_answer_key(key_chains):
    # tests/data/answer_key.json holds the exact values of six tori, the
    # square grids 4 v 6 and the two-arm interval against its reversal,
    # proved by the uncapped searches of tests/answer_key.py.  At the
    # default budget every report's lower bound is at most the key and its
    # value at least the key, and an exact report equals it (to 1e-12)
    key = answer_key.load()
    assert key.keys() == key_chains.keys()
    exact = 0
    for name, chain in key_chains.items():
        for kind, want in key[name].items():
            r, want = getattr(chain, kind), float(want)
            assert r.lower <= want + 1e-12 and want <= r.value + 1e-12, (name, r, want)
            if r.exact:
                assert answer_key.agree(r.value, want), (name, r, want)
                exact += 1
    assert exact >= 4  # gh and cdis of the square grids and the two-arm interval


def test_chain_report_shares_witnesses_only_for_inexact_reports(monkeypatch):
    # NODE_LIMIT at 3 stops the threshold searches early.  At the default
    # budget an inexact gh takes dis's map pair where that scores lower;
    # an inexact cdis takes gh's certificate where that is a
    # d-correspondence scoring lower (26 pairs here, on each of which its
    # own search found none), and gh's search's lower bound where that is
    # higher (4 pairs); against a gh that proves nothing (inf over 0) cdis
    # keeps its own.  Always gh <= dis <= cdis, every certificate
    # re-scores to its value, a report its search left exact stays as it
    # is, and chain_holds judges nothing (None) once a report is inexact
    monkeypatch.setattr(distances, "NODE_LIMIT", 3)
    def blank(X, Y, budget):
        return DistanceReport("gh", INFINITY, 0.0)

    rng = np.random.default_rng(96)
    shared = {"gh": 0, "cdis lower": 0, "cdis certificate": 0, "inconclusive": 0}
    plain_gh = distances._plain_gh
    runs = ((SearchBudget(), plain_gh), (SearchBudget(exhaustive_gh=25), plain_gh), (SearchBudget(), blank))
    for budget, gh_search in runs:
        monkeypatch.setattr(distances, "_plain_gh", gh_search)
        for i in range(16):
            s = random_space(rng, int(rng.integers(4, 6)), connected=i % 4 != 3)
            X = DirectedMetricSpace.from_space(s)
            Y = stretched_copy(rng, s)[0] if i % 2 else dspace_random(rng, int(rng.integers(4, 6)))
            chain = ChainReport(X, Y, budget)
            gh, dis, cdis = chain.gh, chain.dis, chain.cdis
            assert gh.value <= dis.value + DEFAULT_TOL and dis.value <= cdis.value + DEFAULT_TOL
            assert chain.chain_holds is (True if chain.conclusive else None)
            shared["inconclusive"] += not chain.conclusive
            for r in (gh, cdis):
                if r.certificate is not None:
                    assert 0.5 * distortion_relation(r.certificate.pairs, X.zz, Y.zz) == r.value
            if dis.certificate is not None:
                assert 0.5 * dis.certificate.objective(X.zz, Y.zz) == dis.value
            own_gh, own_cdis = gh_search(X, Y, budget), distances._plain_cdis(X, Y, budget)
            if own_gh.exact or dis.value >= own_gh.value:
                assert gh == own_gh
            else:
                assert (gh.value, gh.lower, gh.method) == (dis.value, own_gh.lower, "chain")
                shared["gh"] += 1
            if cdis.certificate is not None:
                assert cdis.certificate.is_dcorrespondence(X.reach, Y.reach)
            lower = max(own_cdis.lower, own_gh.lower)
            if own_cdis.exact:
                assert cdis == own_cdis
            elif gh.value < own_cdis.value and gh.certificate.is_dcorrespondence(X.reach, Y.reach):
                assert (cdis.value, cdis.certificate, cdis.method) == (gh.value, gh.certificate, "chain")
                assert cdis.lower == (gh.value if cdis.exact else lower) and lower <= gh.value + 1e-12
                shared["cdis certificate"] += 1
            elif own_gh.lower <= own_cdis.lower:
                assert cdis == own_cdis
            else:
                assert (cdis.value, cdis.certificate) == (own_cdis.value, own_cdis.certificate)
                assert cdis.lower == own_gh.lower
            shared["cdis lower"] += not own_cdis.exact and own_gh.lower > own_cdis.lower
    assert min(shared.values()) >= 3


@pytest.mark.parametrize("limit", [("NODE_LIMIT", 3), ("NODE_LIMIT", 25), ("PAIR_LIMIT", 0)], ids="{0[0]}={0[1]}".format)
def test_separate_chain_reports_keep_the_order_when_searches_stop_early(monkeypatch, limit):
    # each kind is read from a fresh ChainReport, as `dist KIND` does, and
    # through its public function, which must give the same report: with
    # the searches capped, gh <= dis <= cdis still holds and every
    # certificate re-scores to its value; inside PAIR_LIMIT each report is
    # that of one ChainReport read cdis first, and above it only cdis refuses.  The plain searches,
    # called one by one, put 31, 17 and 2 of these 40 pairs out of order
    monkeypatch.setattr(distances, *limit)
    public = {"gh": gh_distance, "dis": distortion_distance, "cdis": dcorrespondence_distance}
    rng = np.random.default_rng(33)
    for i in range(40):
        X, Y = (random_space(rng, int(rng.integers(4, 8)), connected=i % 4 != 3) for _ in "XY")
        X, Y = DirectedMetricSpace.from_space(X), DirectedMetricSpace.from_space(Y)
        inside = X.n * Y.n <= distances.PAIR_LIMIT
        reports = {kind: getattr(ChainReport(X, Y), kind) for kind in ("gh", "dis") + ("cdis",) * inside}
        assert {kind: public[kind](X, Y) for kind in reports} == reports, i
        values = [r.value for r in reports.values()]
        assert all(a <= b + DEFAULT_TOL for a, b in zip(values, values[1:])), (i, reports)
        for kind, r in reports.items():
            if r.certificate is None:
                assert r.value == INFINITY
            elif kind == "dis":
                assert 0.5 * r.certificate.objective(X.zz, Y.zz) == r.value
            else:
                assert 0.5 * distortion_relation(r.certificate.pairs, X.zz, Y.zz) == r.value
        if inside:
            chain = ChainReport(X, Y)
            assert reports == {kind: getattr(chain, kind) for kind in ("cdis", "gh", "dis")}
        else:
            for read in (lambda: ChainReport(X, Y).cdis, lambda: dcorrespondence_distance(X, Y)):
                with pytest.raises(ValueError, match="point pairs"):
                    read()


@pytest.fixture(scope="module")
def two_intervals_v_one():
    """Two 75-point intervals side by side against the 150-point interval, and their gh and dis.

    22,500 point pairs, above PAIR_LIMIT, so gh runs the map-pair local
    search, whose descent is skipped at this size, and no node or pair cap
    below it changes these reports.  Every correspondence relates a pair at
    inf to one at a finite distance, so both distances are inf.
    """
    X = DirectedMetricSpace.from_space(disjoint_union(directed_interval(74), directed_interval(74)))
    Y = DirectedMetricSpace.from_space(directed_interval(149))
    chain = ChainReport(X, Y)
    return X, Y, chain.gh, chain.dis


def test_an_infinite_report_above_the_pair_limit_keeps_no_certificate(two_intervals_v_one):
    # gh's local search ends on its best pool pair, whose objective is inf:
    # the report keeps none of its relation, as dis keeps no map pair
    X, Y, gh, dis = two_intervals_v_one
    assert X.n * Y.n > distances.PAIR_LIMIT
    assert (gh.value, gh.exact, gh.certificate, gh.method) == (INFINITY, True, None, "local-search")
    assert (dis.value, dis.exact, dis.certificate) == (INFINITY, True, None)


@pytest.mark.parametrize("limit", [("NODE_LIMIT", 3), ("NODE_LIMIT", 25), ("PAIR_LIMIT", 0)], ids="{0[0]}={0[1]}".format)
def test_every_report_claims_exactly_its_bracket(monkeypatch, limit, two_intervals_v_one):
    # one rule decides what a report claims: exact when value and lower
    # bound meet to 1e-12, an exact report's lower bound reads as its
    # value, and an infinite value keeps no certificate.  Every gh, dis and
    # cdis report on the 150-point pair and on 24 seeded pairs of 3 to 7
    # points, every third disconnected, under forced node and pair caps
    monkeypatch.setattr(distances, *limit)
    reports = list(two_intervals_v_one[2:])
    rng = np.random.default_rng(97)
    for i in range(24):
        X, Y = (DirectedMetricSpace.from_space(random_space(rng, int(rng.integers(3, 8)), connected=i % 3 != 2)) for _ in "XY")
        chain = ChainReport(X, Y)
        reports += [chain.gh, chain.dis] + ([chain.cdis] if X.n * Y.n <= distances.PAIR_LIMIT else [])
    for r in reports:
        assert r.exact == (r.value <= r.lower + 1e-12), r
        assert r.lower == r.value or not r.exact, r
        assert r.certificate is None or r.value < INFINITY, r
    assert sum(r.value == INFINITY for r in reports) >= 10
    assert sum(not r.exact for r in reports) >= (0 if limit == ("PAIR_LIMIT", 0) else 5)


def test_capped_cdis_takes_only_the_gh_search_lower_bound(monkeypatch):
    # the 70th of these seeded pairs, 4 x 4: under a 3-node cap cdis's own
    # search finds no certificate over a lower bound of 0.1855, gh is exact
    # at 0.2198 with a certificate that is no d-correspondence, so cdis
    # keeps its own inf and takes gh's search's higher lower bound alone,
    # and the chain is inconclusive
    monkeypatch.setattr(distances, "NODE_LIMIT", 3)
    rng = np.random.default_rng(7)
    for _ in range(70):
        nx, ny = rng.integers(4, 8), rng.integers(4, 8)
        X, Y = (DirectedMetricSpace.from_space(random_space(rng, int(n), connected=rng.random() < 0.8)) for n in (nx, ny))
    assert (X.n, Y.n) == (4, 4)
    chain = ChainReport(X, Y)
    own, gh = distances._plain_cdis(X, Y, SearchBudget()), chain.gh
    assert (own.value, own.exact, round(own.lower, 4)) == (INFINITY, False, 0.1855)
    assert gh.exact and round(gh.value, 4) == 0.2198 and not gh.certificate.is_dcorrespondence(X.reach, Y.reach)
    assert chain.cdis == DistanceReport("cdis", INFINITY, gh.lower, None, own.method)
    assert not chain.cdis.exact and not chain.conclusive and chain.chain_holds is None
