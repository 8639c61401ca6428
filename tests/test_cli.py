"""Command line behaviours, exit codes, and output determinism.

Claims covered: every subcommand emits exactly one JSON object on
standard output, files appear only with --out, certificates re-evaluate
to the reported value, error paths exit 1 (a bad base-less edge and an
out-of-memory error and gen sncf points that cannot be placed, without
a numpy warning, among them), non-standard JSON numbers are invalid
JSON, gen, ball on the k = 32 torus and the open book's zigzag load no
scipy while an all-pairs zigzag past the Python search bound does, dist
on two empty spaces reports an exact 0,
one cached parser serves every call, importing the CLI loads no process
pool and verify core no scipy, verify's stdout is frozen on three seeds,
failed suites would exit 2,
gh and dis on a 1024-point interval finish without a traceback, ball's
one-row zigzag decides membership as the full matrix does, ball's
--center names a label before an index, and repeated seeded runs are
byte-identical.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import relax_zigzag

from dirmetric import (
    Correspondence,
    FiniteDSpace,
    GridSpec,
    MapPair,
    DirectedMetricSpace,
    DistanceReport,
    disjoint_union,
    distortion_relation,
    flat_torus_grid,
    load_space,
    random_space,
    reverse,
    save_space,
    source_sink_interval,
)
from dirmetric import cli, distances
from dirmetric.cli import RunConfig, _certificate_value, _zigzag_ball_row, build_parser, main
from dirmetric.distances import DEFAULT_BUDGET, SearchBudget
from dirmetric.spaces import compute_zigzag
from dirmetric.verify import check_source_sink, run_checks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_two_arm(tmp_path, k=2):
    s = source_sink_interval(k)
    p1 = tmp_path / "arms.json"
    p2 = tmp_path / "arms_rev.json"
    save_space(s, str(p1))
    save_space(reverse(s), str(p2))
    return str(p1), str(p2)


# ---------------------------------------------------------------------------
# gen


def test_gen_prints_space_without_out(capsys):
    code, out, err = run(capsys, "gen", "interval", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == ["0", "0.5", "1"]
    assert "points=3 edges=2" in err


def test_gen_writes_file_with_out(capsys, tmp_path):
    path = tmp_path / "iv.json"
    code, out, _ = run(capsys, "gen", "interval", "--k", "4", "--out", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["points"] == 5 and rep["out"] == str(path)
    assert load_space(str(path)).n == 5


def test_gen_open_book_reports_spine_distance(capsys):
    code, out, err = run(capsys, "gen", "open-book", "--n", "5", "--m", "2")
    assert code == 0
    assert "spine_distance=0.2" in err


def test_gen_rejects_bad_arguments(capsys):
    code, _, _ = run(capsys, "gen", "no-such-space")
    assert code == 1
    code, _, err = run(capsys, "gen", "sncf")
    assert code == 1 and "--points" in err
    # points that cannot be placed are named before any arithmetic warns
    for points, named in (("inf,0", "(inf, 0)"), ("1,1;nan,2", "(nan, 2)"), ("1e308,0;-1e308,0", "(1e+308, 0)")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "gen", "sncf", "--points", points)
        assert code == 1 and out == "" and err.startswith("error: ") and named in err, err
        assert "Warning" not in err and not caught, [str(w.message) for w in caught]
    for steps in ("1,0;oops", "1,0,5", "1"):
        code, _, err = run(capsys, "gen", "square", "--steps", steps)
        assert code == 1 and "--steps" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# zigzag


def test_zigzag_files_round_trip(capsys, tmp_path):
    space_path = tmp_path / "iv.json"
    run(capsys, "gen", "interval", "--k", "2", "--out", str(space_path))
    out_path = tmp_path / "zz.csv"
    code, out, _ = run(capsys, "zigzag", str(space_path), "--out", str(out_path))
    assert code == 0
    rep = json.loads(out)
    zz_lines = (tmp_path / "zz.csv").read_text().splitlines()
    assert zz_lines[1].split(",")[2] == "1.0"
    reach_lines = (tmp_path / "zz.reach.csv").read_text().splitlines()
    assert reach_lines[1] == "1,1,1"
    assert reach_lines[3] == "0,0,1"
    assert rep["points"] == 3


def test_zigzag_stdout_marks_disconnected_pairs(capsys, tmp_path):
    two = FiniteDSpace(base=[[0.0, 1.0], [1.0, 0.0]], edges=((0, 1, 1.0),))
    path = tmp_path / "union.json"
    save_space(disjoint_union(two, two), str(path))
    code, out, _ = run(capsys, "zigzag", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["zigzag"][0][2] == "inf"
    assert doc["reachability"][0][2] == 0


def test_zigzag_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "zigzag", str(tmp_path / "nope.json"))
    assert code == 1 and "error" in err


@pytest.mark.parametrize("length", [-1.0, 0.0])
def test_zigzag_base_less_file_with_a_bad_length_exits_one(tmp_path, length):
    # in a subprocess with a timeout, so that a hang inside Dijkstra fails
    # this test instead of stalling the suite
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"edges": [[0, 1, 1.0], [1, 2, length]]}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "dirmetric.cli", "zigzag", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and "finite and positive" in proc.stderr and str(path) in proc.stderr
    assert "Traceback" not in proc.stderr and "negative weights" not in proc.stderr


@pytest.mark.parametrize("message", ["Unable to allocate 116. TiB", ""])
def test_memory_error_exits_one_with_a_message(capsys, monkeypatch, message):
    def no_memory(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_build_space", no_memory)
    code, _, err = run(capsys, "gen", "torus", "--k", "2000")
    assert code == 1 and "error: out of memory" in err and message in err and "Traceback" not in err


def test_zigzag_malformed_file_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "zigzag", str(path))
    assert code == 1 and "line 1" in err


@pytest.mark.parametrize("number", ["NaN", "Infinity", "1e400"])
def test_non_standard_json_numbers_are_invalid_json(capsys, tmp_path, number):
    path = tmp_path / "odd.json"
    path.write_text('{"base": [[0, %s], [%s, 0]],\n "edges": []}' % (number, number))
    code, _, err = run(capsys, "zigzag", str(path))
    assert code == 1 and "invalid JSON at line 1" in err and "Traceback" not in err


def test_distances_near_the_largest_float_run_without_warnings(capsys, tmp_path):
    # the triangle check sums two 1e308 edges past the largest float
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"labels": ["a", "b"], "edges": [[0, 1, 1e308], [1, 0, 1e308]]}))
    code, out, err = run(capsys, "zigzag", str(path))
    assert (code, err) == (0, "") and json.loads(out)["zigzag"] == [[0.0, 1e308], [1e308, 0.0]]
    code, out, err = run(capsys, "dist", "gh", str(path), str(path))
    assert (code, err) == (0, "") and json.loads(out)["value"] == 0.0


def test_scipy_loads_only_for_searches_above_the_python_bound(tmp_path):
    # gen, a one-row ball on the k = 32 torus and the open book run their
    # searches in Python; an all-pairs zigzag of the k = 8 torus (64 rows
    # x 320 edges) is past spaces._PYTHON_SEARCH_MAX and loads scipy
    script = (
        "import sys\n"
        "from dirmetric.cli import main\n"
        "d = sys.argv[1]\n"
        "def step(*argv):\n"
        "    assert main(list(argv)) == 0\n"
        "    print('scipy loaded:', 'scipy' in sys.modules, file=sys.stderr)\n"
        "step('gen', 'torus', '--k', '32', '--out', d + '/t32.json')\n"
        "step('ball', d + '/t32.json', '--center', '(0.5,0.5)', '--radius', '0.3', '--out', d + '/ball.csv')\n"
        "step('gen', 'open-book', '--n', '10', '--m', '8', '--out', d + '/book.json')\n"
        "step('zigzag', d + '/book.json', '--out', d + '/book.csv')\n"
        "step('gen', 'torus', '--k', '8', '--out', d + '/t8.json')\n"
        "step('zigzag', d + '/t8.json', '--out', d + '/t8.csv')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [line.split()[-1] for line in proc.stderr.splitlines() if line.startswith("scipy loaded:")]
    assert loaded == ["False"] * 5 + ["True"]
    for name in ("book", "t8"):
        s = load_space(str(tmp_path / f"{name}.json"))
        rows = list(csv.reader((tmp_path / f"{name}.csv").read_text().splitlines()))
        assert rows[0] == list(s.labels)
        zz = np.array(rows[1:], dtype=float)
        assert np.allclose(zz, relax_zigzag(s.n, s.edges), rtol=0, atol=1e-12)


def test_cli_import_loads_no_process_pool_and_verify_loads_scipy_only_for_examples():
    # every grid-io command and benchmark set-up imports dirmetric.cli, so
    # run_checks imports its pool itself; the core checks search in Python
    # and the examples suite loads scipy once, before the fork
    script = (
        "import sys\n"
        "from dirmetric.cli import main\n"
        "print('pool loaded:', any(m in sys.modules for m in ('multiprocessing', 'concurrent.futures')), file=sys.stderr)\n"
        "for suite in ('core', 'examples'):\n"
        "    assert main(['verify', suite]) == 0\n"
        "    print('scipy loaded:', 'scipy' in sys.modules, file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stderr.splitlines() if line.endswith(("True", "False"))]
    assert loaded == ["pool loaded: False", "scipy loaded: False", "scipy loaded: True"]


# ---------------------------------------------------------------------------
# dist


@pytest.mark.parametrize("kind", ["gh", "dis", "cdis"])
def test_dist_of_two_empty_spaces_is_zero_exact(capsys, tmp_path, kind):
    fx, fy = tmp_path / "x.json", tmp_path / "y.json"
    fx.write_text('{"labels": [], "edges": []}')
    fy.write_text('{"base": [], "edges": []}')
    code, out, err = run(capsys, "dist", kind, str(fx), str(fy))
    assert code == 0, err
    rep = json.loads(out)
    assert rep["value"] == 0.0 and rep["exact"] is True and rep["certificate_check"] is True


def test_dist_gh_self_is_zero_exact(capsys, tmp_path):
    fx, _ = write_two_arm(tmp_path)
    code, out, _ = run(capsys, "dist", "gh", fx, fx)
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == 0.0 and rep["exact"] is True
    assert rep["certificate_check"] is True
    assert rep["certificate"]["pairs"]


def test_dist_cdis_two_arm_reversal_is_infinite(capsys, tmp_path):
    fx, fy = write_two_arm(tmp_path)
    code, out, _ = run(capsys, "dist", "cdis", fx, fy)
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == "inf" and rep["exact"] is True
    assert rep["method"] == "propagation"


def test_dist_cdis_open_book_3_v_4_is_proven_infinite(capsys, tmp_path):
    # no point pattern is ruled out by propagation; the threshold search
    # proves that no d-correspondence of finite distortion exists
    paths = []
    for n in (3, 4):
        paths.append(str(tmp_path / f"book{n}.json"))
        run(capsys, "gen", "open-book", "--n", str(n), "--m", "3", "--out", paths[-1])
    code, out, _ = run(capsys, "dist", "cdis", *paths)
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == "inf" and rep["exact"] is True
    assert rep["method"] == "branch-and-bound" and rep["certificate"] is None


def test_dist_cdis_above_the_pair_limit_exits_1_without_traceback(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(distances, "PAIR_LIMIT", 3)
    fx, fy = write_two_arm(tmp_path)
    code, out, err = run(capsys, "dist", "cdis", fx, fy)
    assert code == 1 and out == ""
    assert "at most 3 point pairs" in err and "Traceback" not in err


def test_dist_gh_and_dis_above_a_thousand_points_exit_0(capsys, tmp_path):
    # interval 3 v interval 1023 is 4 x 1024 = 4096 point pairs, at the
    # pair limit: a cover chooses at least 1024 pairs, one search depth
    # each, deeper than the interpreter's recursion limit
    paths = []
    for k in (3, 1023):
        paths.append(str(tmp_path / f"interval{k}.json"))
        run(capsys, "gen", "interval", "--k", str(k), "--out", paths[-1])
    for kind in ("gh", "dis"):
        code, out, err = run(capsys, "dist", kind, *paths)
        assert code == 0 and "Traceback" not in err, err
        rep = json.loads(out)
        assert rep["exact"] is True and rep["certificate_check"] is True
        assert rep["value"] == rep["lower"] == 0.16617790811339223

def test_dist_dis_two_arm_reversal_certificate_reevaluates(capsys, tmp_path):
    fx, fy = write_two_arm(tmp_path)
    code, out, _ = run(capsys, "dist", "dis", fx, fy)
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == pytest.approx(0.5)
    assert rep["certificate_check"] is True
    X = DirectedMetricSpace.from_space(load_space(fx))
    Y = DirectedMetricSpace.from_space(load_space(fy))
    pair = MapPair(
        forward=tuple(rep["certificate"]["forward"]),
        backward=tuple(rep["certificate"]["backward"]),
    )
    assert 0.5 * pair.objective(X.zz, Y.zz) == pytest.approx(rep["value"], abs=1e-9)


def test_certificate_of_the_wrong_shape_does_not_recheck():
    s = source_sink_interval(2)
    X = DirectedMetricSpace.from_space(s)
    Xr = DirectedMetricSpace.from_space(reverse(s))
    ident = tuple(range(X.n))
    same = Correspondence(X.n, X.n, tuple(zip(ident, ident)))
    # both spaces share their zigzag metric, so every shape scores 0
    dis = DistanceReport("dis", 0.0, True, 0.0, MapPair(ident, ident), "exhaustive")
    assert math.isnan(_certificate_value(dis, X, Xr))
    assert math.isnan(_certificate_value(DistanceReport("cdis", 0.0, True, 0.0, same), X, Xr))
    assert _certificate_value(DistanceReport("gh", 0.0, True, 0.0, same), X, Xr) == 0.0
    uncovered = Correspondence(X.n, X.n, same.pairs[1:])
    assert math.isnan(_certificate_value(DistanceReport("gh", 0.0, True, 0.0, uncovered), X, Xr))


def test_dist_gh_certificate_reevaluates_from_file(capsys, tmp_path):
    fx, fy = write_two_arm(tmp_path)
    code, out, _ = run(capsys, "dist", "gh", fx, fy)
    rep = json.loads(out)
    X = DirectedMetricSpace.from_space(load_space(fx))
    Y = DirectedMetricSpace.from_space(load_space(fy))
    pairs = [tuple(p) for p in rep["certificate"]["pairs"]]
    assert 0.5 * distortion_relation(pairs, X.zz, Y.zz) == pytest.approx(rep["value"], abs=1e-9)


@pytest.mark.parametrize("kind", ["gh", "dis", "cdis"])
def test_dist_without_a_finite_map_pair_reports_inf(capsys, tmp_path, kind):
    iv = tmp_path / "i4.json"
    run(capsys, "gen", "interval", "--k", "4", "--out", str(iv))
    halves = tmp_path / "halves.json"
    halves.write_text(json.dumps({"labels": ["a", "b", "c", "d"], "edges": [[0, 1, 1.0], [2, 3, 1.0]]}))
    code, out, err = run(capsys, "dist", kind, str(iv), str(halves))
    assert code == 0 and "Traceback" not in err
    rep = json.loads(out)
    assert rep["value"] == "inf" and rep["lower"] == "inf" and rep["exact"] is True
    assert rep["certificate"] is None


def test_dist_hausdorff_subsets_by_label_and_index(capsys, tmp_path):
    fx, _ = write_two_arm(tmp_path, k=2)
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps({"a": [0], "b": ["1"]}))
    code, out, _ = run(capsys, "dist", "hausdorff", fx, str(subs))
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == pytest.approx(2.0)
    bad = tmp_path / "bad_subs.json"
    bad.write_text(json.dumps({"a": [0]}))
    code, _, _ = run(capsys, "dist", "hausdorff", fx, str(bad))
    assert code == 1


@pytest.mark.parametrize("side", ["a", "b"])
def test_dist_hausdorff_names_the_file_of_an_empty_subset(capsys, tmp_path, side):
    fx, _ = write_two_arm(tmp_path, k=2)
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps({"a": [0], "b": [1], side: []}))
    code, out, err = run(capsys, "dist", "hausdorff", fx, str(subs))
    assert (code, out) == (1, "")
    assert err == f'error: {subs}: "{side}" must not be empty\n'


def test_dist_runs_are_byte_identical(capsys, tmp_path):
    fx, fy = write_two_arm(tmp_path, k=3)
    _, out1, _ = run(capsys, "dist", "dis", fx, fy)
    _, out2, _ = run(capsys, "dist", "dis", fx, fy)
    assert out1 == out2


@pytest.mark.parametrize("flag", [("--seed", "1"), ("--restarts", "3"), ("--tol", "1e-6")])
def test_dist_has_no_search_seed_restarts_or_tolerance(capsys, tmp_path, flag):
    fx, fy = write_two_arm(tmp_path)
    code, out, err = run(capsys, "dist", "gh", fx, fy, *flag)
    assert code == 1 and out == ""
    assert "usage:" in err and "unrecognized arguments" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# ball


def test_ball_torus_csv_and_svg(capsys, tmp_path):
    space_path = tmp_path / "torus.json"
    run(capsys, "gen", "torus", "--k", "4", "--out", str(space_path))
    out_path = tmp_path / "ball.csv"
    code, out, _ = run(
        capsys, "ball", str(space_path), "--center", "(0.5,0.5)", "--radius", "0.25",
        "--out", str(out_path),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == len(rep["members"])
    lines = out_path.read_text().splitlines()
    assert lines[0] == "point,member"
    assert len(lines) == 17
    svg = (tmp_path / "ball.svg").read_text()
    assert svg.startswith("<svg") and "#d62728" in svg and "#1f77b4" in svg


def test_ball_radius_zero_is_just_the_center(capsys, tmp_path):
    space_path = tmp_path / "torus.json"
    run(capsys, "gen", "torus", "--k", "4", "--out", str(space_path))
    code, out, _ = run(capsys, "ball", str(space_path), "--center", "0", "--radius", "0")
    rep = json.loads(out)
    assert rep["members"] == ["(0,0)"]
    assert "svg" not in rep


def test_ball_non_embeddable_skips_svg(capsys, tmp_path):
    fx, _ = write_two_arm(tmp_path)
    out_path = tmp_path / "arms.csv"
    code, out, err = run(capsys, "ball", fx, "--center", "0", "--radius", "1", "--out", str(out_path))
    assert code == 0
    assert "SVG skipped" in err
    assert out_path.exists() and not (tmp_path / "arms.svg").exists()


def test_ball_unknown_center_exits_one(capsys, tmp_path):
    fx, _ = write_two_arm(tmp_path)
    code, _, err = run(capsys, "ball", fx, "--center", "nowhere", "--radius", "1")
    assert code == 1 and "nowhere" in err


@pytest.mark.parametrize("flags", [
    ["--radius", "nan"],
    ["--radius", "0.1", "--tol", "-1"],
    ["--radius", "0.1", "--tol", "nan"],
])
def test_ball_rejects_nan_radius_and_negative_or_nan_tol(capsys, tmp_path, flags):
    space_path = tmp_path / "torus.json"
    run(capsys, "gen", "torus", "--k", "4", "--out", str(space_path))
    code, out, err = run(capsys, "ball", str(space_path), "--center", "0", *flags)
    assert code == 1 and out == ""
    assert "must be nonnegative numbers" in err


def test_ball_center_is_a_label_before_an_index(capsys, tmp_path):
    # labels that read as other points' indices, and one past the last index
    path = tmp_path / "labelled.json"
    save_space(FiniteDSpace(base=np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]]),
                            edges=((0, 1, 1.0), (1, 2, 1.0)), labels=("2", "0", "7")), str(path))
    for center, index in (("2", 0), ("0", 1), ("7", 2), ("1", 1)):
        code, out, err = run(capsys, "ball", str(path), "--center", center, "--radius", "0")
        rep = json.loads(out)
        assert code == 0 and err == "", (center, err)
        assert rep["center_index"] == index and rep["members"] == [rep["center"]]
    code, out, err = run(capsys, "ball", str(path), "--center", "3", "--radius", "0")
    assert code == 1 and out == "" and "center index 3 out of range for 3 points" in err


def test_ball_on_source_sink_centres_on_the_origin(capsys, tmp_path):
    fx, _ = write_two_arm(tmp_path)
    code, out, _ = run(capsys, "ball", fx, "--center", "0", "--radius", "0")
    rep = json.loads(out)
    assert code == 0 and rep["center"] == "0" and rep["center_index"] == 2


def test_ball_infinite_radius_holds_every_point(capsys, tmp_path):
    fx, _ = write_two_arm(tmp_path)
    code, out, _ = run(capsys, "ball", fx, "--center", "0", "--radius", "inf")
    rep = json.loads(out)
    assert code == 0 and rep["radius"] == "inf"
    assert rep["count"] == load_space(fx).n


def test_zigzag_ball_row_decides_membership_like_the_full_matrix(monkeypatch):
    # radii set exactly to a zigzag distance put points on the boundary,
    # where Dijkstra's rows from the two ends can round apart
    rows = []
    zigzag = cli._zigzag
    monkeypatch.setattr(cli, "_zigzag", lambda graph, sources: rows.append(np.size(sources)) or zigzag(graph, sources))
    rng = np.random.default_rng(6)
    spaces = [random_space(rng, int(rng.integers(1, 60)), connected=rng.random() >= 0.3) for _ in range(30)]
    spaces += [flat_torus_grid(GridSpec(k=k)) for k in (8, 16)]
    balls = 0
    for s in spaces:
        Z = compute_zigzag(s)
        for _ in range(10):
            c = int(rng.integers(s.n))
            d = float(Z[c, int(rng.integers(s.n))])
            radius = d if math.isfinite(d) and rng.random() < 0.5 else float(rng.random())
            assert np.array_equal(_zigzag_ball_row(s, c, radius) <= radius, Z[c] <= radius)
            balls += 1
    # one row from the centre per ball, and only a few boundary rows besides
    assert balls <= sum(rows) < 2 * balls


# ---------------------------------------------------------------------------
# frozen output bytes


FROZEN_OUTPUT_SHA256 = {
    "torus.json": "6bc649237c1f47855b542d54974564842b1a7c9b8e4be469c3f15424e47ba33f",
    "zz.csv": "170d72d4afd8e859ceeecde398de2bdb4b800bd120b5bfb3b310398ccf684a3c",
    "zz.reach.csv": "0cbdb97e0939a9de953bd12996ececd9c14deee0ca2aab9cdb9486f5802771bd",
    "open-book zigzag stdout": "699152bddeac8a6f6ddfb96d05b1bb99d0512e34d0f44d02ccaa55a1927cf3ea",
    "ball.csv": "283d632c1c6b03283b51e9ed321540c1db6efb1924296a3df383b9c877399090",
    "ball.svg": "cea46ada62a6caed3de49d0e8147a05b691585081a5df0e9997ca514fa55dbdb",
    "gh stdout": "0c4c6c09b2b4dbf89013dba3226b8969d3e0ad10158463b2aab43a8f252b7a51",
}

# sha256 of verify's stdout, which the forked workers must leave as the
# serial loop wrote it
FROZEN_VERIFY_SHA256 = {
    0: "135fa40e3f2a1763fef6d0fe952910599bc03cfbe466910fe9de82a21c610e03",
    3: "5dc8debf35036e0ac806278a9142e8bfa8a18175a8ecb01379626b844b4d9974",
    7: "0dee434a550d3179171761128ab05a89ff75f8fedd57b583f6c70820d7d55537",
}


def test_cli_output_bytes_are_frozen(capsys, tmp_path):
    def path(name):
        return str(tmp_path / name)

    run(capsys, "gen", "torus", "--k", "4", "--out", path("torus.json"))
    run(capsys, "zigzag", path("torus.json"), "--out", path("zz.csv"))
    run(capsys, "ball", path("torus.json"), "--center", "(0.5,0.5)", "--radius", "0.25", "--out", path("ball.csv"))
    run(capsys, "gen", "open-book", "--n", "3", "--m", "3", "--out", path("book.json"))
    stdout = {"open-book zigzag stdout": run(capsys, "zigzag", path("book.json"))[1]}
    run(capsys, "gen", "interval", "--k", "4", "--out", path("i4.json"))
    run(capsys, "gen", "source-sink", "--k", "2", "--out", path("ss2.json"))
    stdout["gh stdout"] = run(capsys, "dist", "gh", path("i4.json"), path("ss2.json"))[1]
    got = {
        name: hashlib.sha256(
            stdout[name].encode() if name in stdout else (tmp_path / name).read_bytes()
        ).hexdigest()
        for name in FROZEN_OUTPUT_SHA256
    }
    assert got == FROZEN_OUTPUT_SHA256


def test_verify_output_bytes_are_frozen(capsys):
    got = {}
    for seed in FROZEN_VERIFY_SHA256:
        code, out, _ = run(capsys, "verify", "--seed", str(seed))
        assert code == 0
        got[seed] = hashlib.sha256(out.encode()).hexdigest()
    assert got == FROZEN_VERIFY_SHA256


# sha256 of the lattice files the writers lay out from their value tables
FROZEN_GRID_SHA256 = {
    "torus.json": "a8cc5c580b2c8cd22e19a649a5429b9cead5838124edddf6fb820bbaa496ed21",
    "torus_zz.csv": "2e199024438e6676e64c4884e080778d00511d58658e2dd36cfbdb6dca37ec3e",
    "torus_zz.reach.csv": "a1fcd3358983d469770a240a596f6246f00f625f6b7cde476a69728214212165",
    "square.json": "ced55bd56b7396edacd9dec2b296fff5cf96aef04e67e98734ebe1647081120b",
    "square_zz.csv": "6154f3ad831e4035b33c7c4c74d8d11d3ddb55d8aa493a8fd3563c21357e5224",
    "square_zz.reach.csv": "6accc1434aebc3579f1efd1a03722e6373484181a6820c8ba62a7cf7620b9219",
}


def test_grid_files_are_frozen(capsys, tmp_path):
    for name, k in (("torus", "16"), ("square", "12")):
        space_path = str(tmp_path / f"{name}.json")
        assert run(capsys, "gen", name, "--k", k, "--out", space_path)[0] == 0
        assert run(capsys, "zigzag", space_path, "--out", str(tmp_path / f"{name}_zz.csv"))[0] == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FROZEN_GRID_SHA256}
    assert got == FROZEN_GRID_SHA256


# ---------------------------------------------------------------------------
# verify


def test_verify_distances_seed7_twice_byte_identical(capsys):
    code1, out1, err1 = run(capsys, "verify", "distances", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "distances", "--seed", "7")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert json.loads(out1)["passed"] is True
    assert "chain_inequalities" in err1


def test_verify_seed_picks_ensembles_not_the_search_budget():
    # the tests call the checks with the library's default budget, so the
    # command line must hand them the same one for every seed
    args = build_parser().parse_args(["verify", "--seed", "2"])
    assert check_source_sink(2, RunConfig.from_args(args).budget) == check_source_sink(2, DEFAULT_BUDGET)


def test_verify_writes_report_with_out(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "core", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


@pytest.mark.parametrize("suite", ["examples", "core", "distances", "all"])
def test_verify_rejects_a_negative_seed_in_every_suite(capsys, suite):
    # examples draws no random ensemble and core draws from numpy; both
    # kinds refuse the seed before any check runs, with the same message
    with pytest.raises(ValueError, match="got -3"):
        run_checks(suite, seed=-3)
    code, out, err = run(capsys, "verify", suite, "--seed", "-1")
    assert (code, out) == (1, "")
    assert err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("flag", ["--budget-exhaustive-gh", "--budget-exhaustive-cdis"])
def test_dist_and_verify_reject_a_negative_budget(capsys, tmp_path, flag):
    fx, fy = write_two_arm(tmp_path)
    name = flag.removeprefix("--budget-").replace("-", "_")
    for argv in (["dist", "gh", fx, fy], ["verify", "core"]):
        code, out, err = run(capsys, *argv, flag, "-5")
        assert (code, out) == (1, "")
        assert err == f"error: {name} must be a non-negative integer, got -5\n"
    with pytest.raises(ValueError, match="got -1"):
        SearchBudget(**{name: -1})


def test_verify_rejects_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "everything")
    assert code == 1


def test_usage_error_maps_to_exit_one(capsys):
    assert main(["dist"]) == 1
    assert main([]) == 1


def test_every_flag_the_readme_names_is_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = {
        flag
        for line in readme.splitlines()
        if not line.startswith("pip ")  # the install command's flags are pip's
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)
    }
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {opt for sub in subparsers.choices.values() for opt in sub._option_string_actions}
    assert named and named <= accepted


def test_one_parser_serves_every_call_without_leaking_arguments(capsys, monkeypatch, tmp_path):
    assert build_parser() is build_parser()
    seen = []
    build = cli._build_space
    monkeypatch.setattr(cli, "_build_space", lambda args: seen.append(vars(args).copy()) or build(args))
    fx, fy = write_two_arm(tmp_path)
    assert run(capsys, "gen", "square", "--k", "3", "--steps", "1,0;0,1", "--out", str(tmp_path / "sq.json"))[0] == 0
    assert run(capsys, "dist", "gh", fx, fy, "--budget-exhaustive-gh", "0")[0] == 0
    assert run(capsys, "gen", "interval")[0] == 0
    assert seen[1] == {"subcommand": "gen", "constructor": "interval", "k": 8, "steps": None, "n": 3, "m": 3,
                       "points": None, "subdivisions": 1, "out": None, "func": cli.cmd_gen}
    args = build_parser().parse_args(["dist", "gh", "a.json", "b.json"])
    assert RunConfig.from_args(args).budget == DEFAULT_BUDGET


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_budget_flags_default_to_the_search_budget(capsys):
    for sub in ("dist", "verify"):
        assert main([sub, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "exhaustive correspondence search up to |X|*|Y| = N (default 16)" in text
        assert "no node cap on the cdis search up to |X|*|Y| = N (default 12)" in text
    args = build_parser().parse_args(["dist", "gh", "a.json", "b.json"])
    assert RunConfig.from_args(args).budget == DEFAULT_BUDGET
