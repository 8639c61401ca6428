"""Serialization: space files (JSON), matrix files (CSV), report JSON.

Space file: a single JSON object
    {"labels": [str, ...],            optional, defaults to "0".."n-1"
     "base":   [[num | "inf", ...]],  optional, defaults to the
                                      symmetrized shortest-path metric
                                      of the edge lengths
     "edges":  [[src, dst, length], ...]}
Matrices are row-major and follow point index order.  "inf" encodes an
unreachable pair.  CSV matrix files carry a label header row and use the
same "inf" literal; reachability files hold 0/1 cells.

Input files (space files, dist's subset files) are read as bytes and
parsed by orjson, which takes standard JSON only: NaN, Infinity and
numbers that overflow a double are invalid JSON, so infinity is always
the string "inf".  Output is written with the standard library's json
module, which the byte contract below is defined by.

Report JSON is canonical: keys sorted, two-space indent, non-finite
floats replaced by the strings "inf" / "-inf" / "nan", numpy scalars
unwrapped.  Identical inputs therefore produce byte-identical reports.

Byte contract: ``dump_report(obj)`` equals ``json.dumps(plain,
sort_keys=True, indent=2) + "\n"``, plain being obj with dataclasses as
dicts, keys as strings, tuples and arrays as lists and scalars as above
(the test oracle ``slow_dump_report``); other types raise TypeError.
Space files are ``dump_report(space_to_doc(space))``.  CSV float cells are
``repr(float)`` (so "inf" and "-inf"), integer and 0/1 cells ``str(int)``.
The writers format each distinct value of an array once (cell by cell when
most are distinct), with the same bytes, and the base-matrix reader takes a
list at a time; slower per-entry paths run only for input they cannot take.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, is_dataclass
from itertools import chain
from typing import Any

import numpy as np
import orjson

from .extended import INFINITY
from .spaces import FiniteDSpace, zigzag_from_edges


class SpaceFormatError(ValueError):
    """Raised when an input file does not match the format."""


# ---------------------------------------------------------------------------
# space files


def _num_in(v, where: str) -> float:
    if v == "inf":
        return INFINITY
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpaceFormatError(f"{where}: expected a number or \"inf\", got {v!r}")
    return float(v)


def doc_to_space(doc: dict) -> FiniteDSpace:
    if not isinstance(doc, dict):
        raise SpaceFormatError("space file must hold a JSON object")
    unknown = set(doc) - {"labels", "base", "edges"}
    if unknown:
        raise SpaceFormatError(f"unknown space file keys: {sorted(unknown)}")
    if "edges" not in doc:
        raise SpaceFormatError("space file field \"edges\" is required")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise SpaceFormatError("\"edges\" must be a list of [src, dst, length]")
    edges = []
    for i, e in enumerate(raw_edges):
        if not (isinstance(e, list) and len(e) == 3):
            raise SpaceFormatError(f"edges[{i}]: expected [src, dst, length]")
        s, d, l = e
        if isinstance(s, bool) or isinstance(d, bool) or not isinstance(s, int) or not isinstance(d, int):
            raise SpaceFormatError(f"edges[{i}]: src and dst must be integer point indices")
        edges.append((s, d, _num_in(l, f"edges[{i}].length")))

    labels = doc.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise SpaceFormatError("\"labels\" must be a list of strings")
        labels = tuple(labels)

    base_doc = doc.get("base")
    if base_doc is None:
        if labels is not None:
            n = len(labels)
        elif edges:
            n = 1 + max(max(s, d) for (s, d, _) in edges)
        else:
            raise SpaceFormatError("cannot infer point count: give \"labels\" or \"base\"")
    elif not isinstance(base_doc, list):
        raise SpaceFormatError("\"base\" must be a list of rows")
    try:
        # the base-less base runs the space's own edge checks first
        base = zigzag_from_edges(n, edges) if base_doc is None else _base_in(base_doc)
        # the parsed base is a fresh array nothing else holds: read-only, the
        # space adopts it instead of copying it
        base.setflags(write=False)
        return FiniteDSpace(base=base, edges=edges, labels=labels)
    except ValueError as exc:
        raise SpaceFormatError(str(exc)) from exc


def _base_in(base_doc: list) -> np.ndarray:
    n = len(base_doc)
    if n and all(isinstance(row, list) and len(row) == n for row in base_doc):
        # one numpy conversion, straight into an (n, n) array that owns its
        # data, when every cell is a plain number or "inf" (numpy parses the
        # string "inf"); bool is its own type here
        kinds = set(map(type, chain.from_iterable(base_doc)))
        if kinds <= {int, float, str} and (
            str not in kinds or {v for v in chain.from_iterable(base_doc) if type(v) is str} == {"inf"}
        ):
            return np.array(base_doc, dtype=float)
    # anything else gets the cell-by-cell check and its exact message
    base = np.empty((n, n))
    for i, row in enumerate(base_doc):
        if not (isinstance(row, list) and len(row) == n):
            raise SpaceFormatError(f"base row {i}: expected {n} entries")
        for j, v in enumerate(row):
            base[i, j] = _num_in(v, f"base[{i}][{j}]")
    return base


def space_to_doc(space: FiniteDSpace) -> dict:
    """The space file's document; its base stays an array for dump_report."""
    return {
        "labels": list(space.labels),
        "base": space.base,
        "edges": [list(e) for e in space.edges],
    }


def _read_json(path: str) -> Any:
    """The JSON document in the file at path; standard JSON only."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:  # a json.JSONDecodeError
        raise SpaceFormatError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc


def load_space(path: str) -> FiniteDSpace:
    doc = _read_json(path)
    try:
        return doc_to_space(doc)
    except SpaceFormatError as exc:
        raise SpaceFormatError(f"{path}: {exc}") from exc


def save_space(space: FiniteDSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_report(space_to_doc(space)))


# ---------------------------------------------------------------------------
# matrix CSV


def _cell_text(a: np.ndarray, json_text: bool) -> np.ndarray | None:
    """Each cell's text in an object array shaped like ``a``, formatting each
    distinct value once (floats keyed by their bits, so -0.0 stays apart from
    0.0); None unless ``a`` is numeric with at most a quarter of it distinct."""
    if a.dtype.kind not in "biuf" or a.itemsize > 8:
        return None
    bits = a.view(f"u{a.itemsize}") if a.dtype.kind == "f" else a
    keys = np.sort(bits, axis=None)  # np.unique hashes ints: slow when most are distinct
    keys = np.append(keys[:1], keys[1:][keys[1:] != keys[:-1]])
    if 4 * keys.size > a.size:  # the table would cost more than it saves
        return None
    values = keys.view(a.dtype)
    fmt = (json.dumps if json_text else int.__repr__) if a.dtype.kind == "b" else repr
    text = np.array(list(map(fmt, values.tolist())), dtype=object)
    if json_text and a.dtype.kind == "f":
        odd = ~np.isfinite(values)
        text[odd] = '"' + text[odd] + '"'  # JSON writes inf, -inf and nan as strings
    return text[np.searchsorted(keys, bits)]


def matrix_to_csv(matrix: np.ndarray, labels) -> str:
    """Matrix as CSV text: label header row, "inf" for unreachable pairs."""
    matrix = np.asarray(matrix)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(labels)  # labels may hold commas
    cells = _cell_text(matrix, json_text=False)
    # int.__repr__ writes bools as 0/1; repr(inf) == "inf"
    cell = int.__repr__ if matrix.dtype.kind in "biu" else repr
    rows = cells.tolist() if cells is not None else (map(cell, row) for row in matrix.tolist())
    out.writelines(",".join(row) + "\n" for row in rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# canonical report JSON


_PLAIN = {str, int, float, bool, type(None)}


def _encode(obj: Any, pad: str) -> str:
    """The report text of ``obj`` at depth ``pad``, as the module docstring says.

    The indenting encoder is pure Python, so each list of scalars goes to
    the C encoder in one call, with the indent folded into its item
    separator; any other list is encoded one item at a time.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = asdict(obj)
    if isinstance(obj, np.ndarray):
        cells = _cell_text(obj, json_text=True)  # None for 0-d arrays: one value, one cell
        if cells is not None:
            def lay_out(rows: list, pad: str) -> str:  # the list layout below, over cell text
                if not rows:
                    return "[]"
                inner = pad + "  "
                body = rows if isinstance(rows[0], str) else [lay_out(r, inner) for r in rows]
                return "[\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "]"
            return lay_out(cells.tolist(), pad)
        obj = obj.tolist()  # a 0-d array's tolist() is a scalar
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted({str(k): v for k, v in obj.items()}.items())
        body = sep.join(f"{json.dumps(k)}: {_encode(v, inner)}" for k, v in items)
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:  # a list of scalars in one call, unless it holds a non-finite float or a numpy integer
            if not all(t in _PLAIN or issubclass(t, np.generic) for t in set(map(type, obj))):
                raise TypeError("not a list of scalars")
            body = json.dumps(obj, separators=(sep, ": "), allow_nan=False)[1:-1]
        except (TypeError, ValueError):
            body = sep.join(_encode(v, inner) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return '"nan"' if math.isnan(obj) else '"inf"' if obj > 0 else '"-inf"'
    if obj is None or isinstance(obj, (str, int, float)):  # bool is an int
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dump_report(obj: Any) -> str:
    return _encode(obj, "") + "\n"
