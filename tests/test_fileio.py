"""Space files, matrix CSV, and canonical report JSON.

Claims covered: JSON round trips with and without an explicit base,
"inf" handling in both formats, labels containing commas quoted in CSV,
defaulted base being the edge shortest-path metric, format errors with
useful messages, byte-stable report serialization, and the whole-array
readers and writers matching the cell-by-cell references in oracles.py,
also at sizes where the writers format from a table of distinct values.
"""

import json
import math
from dataclasses import dataclass

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import json_load_space, slow_base_cells, slow_dump_report, slow_jsonable, slow_matrix_to_csv

from dirmetric import (
    INFINITY,
    FiniteDSpace,
    GridSpec,
    SpaceFormatError,
    directed_square_grid,
    disjoint_union,
    dump_report,
    flat_torus_grid,
    load_space,
    matrix_to_csv,
    random_space,
    save_space,
)
from dirmetric import spaces
from dirmetric.fileio import _base_in, _cell_text, doc_to_space, space_to_doc

TWO = FiniteDSpace(base=[[0.0, 1.0], [1.0, 0.0]], edges=((0, 1, 1.5),))


# ---------------------------------------------------------------------------
# space files


def test_space_round_trip(tmp_path):
    path = tmp_path / "two.json"
    save_space(TWO, str(path))
    back = load_space(str(path))
    assert back.labels == TWO.labels
    assert np.array_equal(back.base, TWO.base)
    assert back.edges == TWO.edges


def test_space_round_trip_with_infinite_base(tmp_path):
    u = disjoint_union(TWO, TWO)
    path = tmp_path / "union.json"
    save_space(u, str(path))
    text = path.read_text()
    assert '"inf"' in text
    back = load_space(str(path))
    assert np.array_equal(back.base, u.base)
    assert math.isinf(back.base[0, 2])


def test_base_defaults_to_edge_shortest_paths():
    doc = {"edges": [[0, 1, 1.0], [1, 2, 2.0]]}
    s = doc_to_space(doc)
    assert s.n == 3
    assert s.base[0, 2] == 3.0
    assert s.base[2, 0] == 3.0


@pytest.mark.parametrize("doc", [
    {"base": [[0.0, 1.0, "inf"], [1.0, 0.0, "inf"], ["inf", "inf", 0.0]], "edges": [[0, 1, 1.0]]},
    {"base": [], "edges": []},
    {"edges": [[0, 1, 1.0], [1, 2, 2.0]]},
], ids=["parsed", "empty", "default"])
def test_loaded_base_is_adopted_not_copied(doc, monkeypatch):
    calls = []

    def spy(a, dtype=float):
        out = as_readonly(a, dtype)
        calls.append((a, out))
        return out

    as_readonly = spaces._as_readonly
    monkeypatch.setattr(spaces, "_as_readonly", spy)
    s = doc_to_space(doc)
    passed_in, kept = calls[0]  # the first call takes the base
    assert kept is passed_in and kept is s.base
    assert not s.base.flags.writeable


def test_point_count_from_labels_when_no_edges_touch_them():
    doc = {"labels": ["a", "b", "c"], "edges": [[0, 1, 1.0]]}
    s = doc_to_space(doc)
    assert s.n == 3
    assert math.isinf(s.base[0, 2])


def test_format_errors():
    with pytest.raises(SpaceFormatError):
        doc_to_space([1, 2])
    with pytest.raises(SpaceFormatError):
        doc_to_space({"labels": ["a"]})
    with pytest.raises(SpaceFormatError):
        doc_to_space({"edges": [[0, 1]]})
    with pytest.raises(SpaceFormatError):
        doc_to_space({"edges": [[0, True, 1.0]]})
    with pytest.raises(SpaceFormatError):
        doc_to_space({"edges": [[0, 1, "long"]]})
    with pytest.raises(SpaceFormatError):
        doc_to_space({"edges": [], "extra": 1})
    with pytest.raises(SpaceFormatError):
        doc_to_space({"edges": [], "base": [[0.0, 1.0]]})
    with pytest.raises(SpaceFormatError):
        doc_to_space({"edges": []})


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"edges": [[0, 1, ]]}')
    with pytest.raises(SpaceFormatError, match="line 1"):
        load_space(str(path))


def test_validation_errors_become_format_errors():
    with pytest.raises(SpaceFormatError):
        doc_to_space({"base": [[0.0, 1.0], [1.0, 0.0]], "edges": [[0, 1, 0.2]]})


BASE_CELLS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.just("inf"),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(st.lists(BASE_CELLS, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_base_parse_matches_cell_loop(base_doc):
    got, ref = _base_in(base_doc), slow_base_cells(base_doc)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("base_doc", [
    [[0.0, True], [1.0, 0.0]],
    [[0.0, 1.0], [None, 0.0]],
    [[0.0, [1.0]], [1.0, 0.0]],
    [[0.0, "Infinity"], [1.0, 0.0]],
    [[0.0, 1.0], [1.0]],
    [[0.0, 1.0], "ab"],
    [[0.0, "x"], [1.0]],
    [[0], [0]],
])
def test_malformed_base_messages_match_cell_loop(base_doc):
    with pytest.raises(SpaceFormatError) as ref:
        slow_base_cells(base_doc)
    with pytest.raises(SpaceFormatError) as got:
        doc_to_space({"base": base_doc, "edges": []})
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("make", [
    lambda: flat_torus_grid(GridSpec(k=8)),
    lambda: disjoint_union(TWO, TWO),  # "inf" cells
    lambda: random_space(np.random.default_rng(5), 40),  # nearly every cell distinct
])
def test_load_space_matches_the_json_module_reference(tmp_path, make):
    path = str(tmp_path / "space.json")
    save_space(make(), path)
    got, ref = load_space(path), json_load_space(path)
    assert got.base.tobytes() == ref.base.tobytes()
    assert got.edges == ref.edges and got.labels == ref.labels


def test_space_doc_uses_inf_strings():
    doc = json.loads(dump_report(space_to_doc(disjoint_union(TWO, TWO))))
    assert doc["base"][0][2] == "inf"
    assert doc["base"][0][1] == 1.0


# ---------------------------------------------------------------------------
# matrix CSV


def test_matrix_csv_writes_inf_and_quoted_commas():
    labels = ("(0,0)", "(0.5,1)", "plain")
    m = np.array([[0.0, 1.25, INFINITY], [1.25, 0.0, 2.0], [INFINITY, 2.0, 0.0]])
    assert matrix_to_csv(m, labels).splitlines() == [
        '"(0,0)","(0.5,1)",plain',
        "0.0,1.25,inf",
        "1.25,0.0,2.0",
        "inf,2.0,0.0",
    ]


def test_integer_matrix_written_as_ints():
    text = matrix_to_csv(np.eye(2, dtype=int), ("a", "b"))
    assert text.splitlines()[1] == "1,0"


def test_matrix_csv_keeps_the_sign_of_negative_infinity():
    m = np.array([[0.0, -INFINITY], [INFINITY, -0.0]])
    text = matrix_to_csv(m, ("a", "b"))
    assert text.splitlines()[1:] == ["0.0,-inf", "inf,-0.0"]


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
               elements=st.floats(allow_nan=False).filter(lambda v: v != -INFINITY)),
    hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
               elements=st.floats(width=32, allow_nan=False).filter(lambda v: v != -INFINITY)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5)),
))
def test_matrix_csv_matches_cell_writer(m):
    labels = tuple(f"({i},0)" for i in range(m.shape[1]))
    assert matrix_to_csv(m, labels) == slow_matrix_to_csv(m, labels)


def _big_matrices():
    """Matrices far past the hypothesis sizes: few distinct values (the
    writers' value table), all distinct (cell by cell), and empty sides."""
    rng = np.random.default_rng(17)
    specials = np.array([0.0, -0.0, INFINITY, -INFINITY, math.nan, 0.1, 1.0 / 3, 2.5, 1e30, -7.0])
    mixed = rng.choice(specials, size=(300, 300))
    return {
        "float64 mixed": mixed,
        "float32 mixed": mixed.astype(np.float32),
        "int64": rng.integers(-(2**40), 2**40, size=20)[rng.integers(20, size=(300, 300))],
        "bool": rng.random((300, 300)) < 0.3,
        "float64 all distinct": rng.standard_normal((256, 256)),
        "300x0": np.zeros((300, 0)),
        "0x300": np.zeros((0, 300)),
        "int 300x0": np.zeros((300, 0), dtype=np.int64),
    }


@pytest.mark.parametrize("name", list(_big_matrices()))
def test_big_matrices_match_cell_references(name):
    m = _big_matrices()[name]
    if name.startswith(("float64 mixed", "float32", "int64", "bool")):
        assert _cell_text(m, json_text=False) is not None  # written from the table
    if name == "float64 all distinct":
        assert _cell_text(m, json_text=False) is None
    labels = tuple(f"p{i}" for i in range(m.shape[1]))
    # line by line: pytest's diff of two whole texts this long takes minutes
    assert matrix_to_csv(m, labels).splitlines() == slow_matrix_to_csv(m, labels).splitlines()
    doc = {"m": m, "row": m[:1].ravel(), "t": m.T}  # a 1-D array and a strided view too
    assert dump_report(doc).splitlines() == slow_dump_report(doc).splitlines()


def test_space_text_matches_the_cell_reference():
    for s in (disjoint_union(TWO, TWO), flat_torus_grid(GridSpec(k=12)), directed_square_grid(GridSpec(k=5))):
        assert dump_report(space_to_doc(s)) == slow_dump_report(space_to_doc(s))


# ---------------------------------------------------------------------------
# report JSON


def test_jsonable_handles_numpy_and_infinities():
    doc = {
        "arr": np.array([1.0, INFINITY]),
        "neg": -INFINITY,
        "i": np.int64(3),
        "b": np.bool_(True),
        "nested": ({"v": np.float64(0.5)},),
    }
    want = {"arr": [1.0, "inf"], "neg": "-inf", "i": 3, "b": True, "nested": [{"v": 0.5}]}
    assert json.loads(dump_report(doc)) == slow_jsonable(doc) == want


def test_zero_dimensional_arrays_are_scalars():
    assert dump_report({"a": np.array(INFINITY), "b": np.array(np.nan), "c": np.array(1.5)}).split() == [
        "{", '"a":', '"inf",', '"b":', '"nan",', '"c":', "1.5", "}"]


def test_jsonable_rejects_unknown_types():
    for doc in ({"x": object()}, [1, object()], [np.complex128(1j)], np.array([1j]), {"x": [[1.0, INFINITY, {1}]]}):
        with pytest.raises(TypeError, match="cannot serialize"):
            dump_report(doc)
        with pytest.raises(TypeError, match="cannot serialize"):
            slow_jsonable(doc)


def test_dump_report_is_canonical():
    a = dump_report({"b": 1, "a": [INFINITY, 2.0]})
    b = dump_report({"a": [INFINITY, 2.0], "b": 1})
    assert a == b
    assert a.endswith("\n")
    parsed = json.loads(a)
    assert parsed["a"] == ["inf", 2.0]


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.sampled_from([0.0, -0.0, INFINITY, -INFINITY, math.nan]),
    st.text(),
    st.sampled_from(['quote " and \\ backslash', "tab\tnew\nline", "\u00e9t\u00e9 \u2192 \U0001f600", "\x00"]),
    st.floats(allow_nan=True).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
    hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
)


@dataclass
class Box:
    item: object


DOCS = st.recursive(
    st.one_of(SCALARS, ARRAYS),
    lambda inner: st.one_of(
        st.builds(Box, inner),
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=5), st.integers(-3, 3)), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(DOCS)
def test_dump_report_matches_indenting_encoder(doc):
    assert dump_report(doc) == slow_dump_report(doc)
    assert json.loads(dump_report(doc)) == slow_jsonable(doc)
