"""Command line front end.

Subcommands: gen (build a gallery space), zigzag (matrix + reachability),
dist (comparison distances with certificates), ball (metric ball CSV and
SVG scatter), verify (self-check suites).  One JSON object per
invocation on standard output; diagnostics and timings go to standard
error; files are written only when --out is given.  Exit codes: 0
success, 1 I/O or format error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .distances import ChainReport, SearchBudget, distortion_relation, hausdorff
from .fileio import (
    SpaceFormatError,
    _read_json,
    dump_report,
    load_space,
    matrix_to_csv,
    save_space,
    space_to_doc,
)
from .gallery import (
    GridSpec,
    directed_interval,
    directed_square_grid,
    flat_torus_grid,
    hollow_square,
    label_coords,
    open_book,
    sncf_plane,
    source_sink_interval,
)
from .spaces import (
    DEFAULT_TOL,
    DirectedMetricSpace,
    FiniteDSpace,
    _zigzag,
    _zigzag_graph,
)
from .verify import SUITES, CheckError, run_checks

GEN_IDS = ("interval", "square", "source-sink", "torus", "open-book", "sncf", "hollow-square")


@dataclass
class RunConfig:
    """What dist and verify need; built once from their parsed arguments.

    tol, the tolerance dist rechecks certificates at, is a constant.
    """

    budget: SearchBudget = field(default_factory=SearchBudget)
    tol: ClassVar[float] = DEFAULT_TOL

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        return cls(SearchBudget(exhaustive_gh=args.budget_exhaustive_gh, exhaustive_cdis=args.budget_exhaustive_cdis))


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-exhaustive-gh", type=int, default=SearchBudget.exhaustive_gh, metavar="N",
                   help="exhaustive correspondence search up to |X|*|Y| = N (default %(default)s)")
    p.add_argument("--budget-exhaustive-cdis", type=int, default=SearchBudget.exhaustive_cdis, metavar="N",
                   help="no node cap on the cdis search up to |X|*|Y| = N (default %(default)s)")


def _parse_pairs(text: str, flag: str, number, example: str, noun: str):
    """Semicolon-separated "a,b" pairs of number(...) values from a --steps or --points flag."""
    try:
        pairs = tuple(tuple(number(v) for v in part.split(",")) for part in text.split(";") if part)
    except ValueError:
        raise ValueError(f"bad {flag} value {text!r}; expected e.g. '{example}'") from None
    if any(len(p) != 2 for p in pairs):
        raise ValueError(f"each {flag} entry needs exactly two {noun}")
    return pairs


# ---------------------------------------------------------------------------
# gen


def _build_space(args) -> tuple[FiniteDSpace, dict]:
    name = args.constructor
    extras: dict = {}
    if name == "interval":
        return directed_interval(args.k), extras
    if name == "square" or name == "torus":
        steps = _parse_pairs(args.steps, "--steps", int, "1,0;0,1;1,1", "integers") if args.steps else None
        spec = GridSpec(k=args.k, steps=steps) if steps else GridSpec(k=args.k)
        return (directed_square_grid(spec) if name == "square" else flat_torus_grid(spec)), extras
    if name == "source-sink":
        return source_sink_interval(args.k), extras
    if name == "open-book":
        s = open_book(args.n, args.m)
        # the book's base is its zigzag metric (open_book builds it so)
        extras["spine_distance"] = float(s.base[s.index_of("a"), s.index_of("b")])
        return s, extras
    if name == "sncf":
        if not args.points:
            raise ValueError("sncf needs --points, e.g. --points '1,0;2,0;0,1'")
        return sncf_plane(_parse_pairs(args.points, "--points", float, "1,0;2,0;0,1", "coordinates")), extras
    if name == "hollow-square":
        return hollow_square(args.subdivisions), extras
    raise ValueError(f"unknown constructor {name!r}")


def cmd_gen(args) -> int:
    space, extras = _build_space(args)
    note = f"points={space.n} edges={len(space.edges)}"
    if "spine_distance" in extras:
        note += f" spine_distance={extras['spine_distance']:.10g}"
    print(note, file=sys.stderr)
    if args.out:
        save_space(space, args.out)
        sys.stdout.write(dump_report({
            "constructor": args.constructor,
            "points": space.n,
            "edges": len(space.edges),
            "out": args.out,
            **extras,
        }))
    else:
        sys.stdout.write(dump_report(space_to_doc(space)))
    return 0


# ---------------------------------------------------------------------------
# zigzag


def cmd_zigzag(args) -> int:
    X = DirectedMetricSpace.from_space(load_space(args.space))
    if args.out:
        zz_path = Path(args.out)
        reach_path = zz_path.with_name(zz_path.stem + ".reach" + (zz_path.suffix or ".csv"))
        zz_path.write_text(matrix_to_csv(X.zz, X.labels), encoding="utf-8")
        reach_path.write_text(matrix_to_csv(X.reach, X.labels), encoding="utf-8")
        sys.stdout.write(dump_report({
            "points": X.n,
            "zigzag_csv": str(zz_path),
            "reachability_csv": str(reach_path),
        }))
    else:
        sys.stdout.write(dump_report({
            "labels": list(X.labels),
            "zigzag": X.zz,
            "reachability": X.reach.view(np.uint8),  # 0/1, not true/false
        }))
    return 0


# ---------------------------------------------------------------------------
# dist


def _load_subsets(path: str, X: DirectedMetricSpace):
    doc = _read_json(path)
    if not (isinstance(doc, dict) and set(doc) == {"a", "b"}):
        raise SpaceFormatError(f"{path}: expected an object with exactly the keys \"a\" and \"b\"")

    def resolve(side):
        vals = doc[side]
        if not isinstance(vals, list):
            raise SpaceFormatError(f"{path}: \"{side}\" must be a list of indices or labels")
        if not vals:
            raise SpaceFormatError(f"{path}: \"{side}\" must not be empty")
        out = []
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, (int, str)):
                raise SpaceFormatError(f"{path}: bad entry {v!r} in \"{side}\"")
            i = v if isinstance(v, int) else X.space.index_of(v)
            if not 0 <= i < X.n:
                raise SpaceFormatError(f"{path}: index {i} out of range in \"{side}\"")
            out.append(int(i))
        return out

    return resolve("a"), resolve("b")


def _certificate_doc(report) -> dict | None:
    cert = report.certificate
    if cert is None:
        return None
    if hasattr(cert, "pairs"):
        return {"pairs": [[int(x), int(y)] for (x, y) in cert.pairs]}
    return {
        "forward": [int(v) for v in cert.forward],
        "backward": [int(v) for v in cert.backward],
    }


def _certificate_value(report, X: DirectedMetricSpace, Y: DirectedMetricSpace):
    """Re-evaluate the certificate through the library, a map pair as its
    relation; None when absent, nan when it is no correspondence (gh, cdis),
    no d-correspondence (cdis) or not a pair of d-maps (dis)."""
    cert = report.certificate
    if cert is None:
        return None
    if hasattr(cert, "pairs"):
        if not cert.is_correspondence or (report.kind == "cdis" and not cert.is_dcorrespondence(X.reach, Y.reach)):
            return math.nan
    elif not cert.is_dmap_pair(X, Y):
        return math.nan
    pairs = getattr(cert, "relation", cert).pairs  # empty only between two empty spaces
    return 0.5 * distortion_relation(list(pairs), X.zz, Y.zz) if pairs else 0.0


def cmd_dist(args) -> int:
    cfg = RunConfig.from_args(args)
    X = DirectedMetricSpace.from_space(load_space(args.fileX))
    if args.kind == "hausdorff":
        a, b = _load_subsets(args.fileY, X)
        value = hausdorff(X.zz, a, b)
        doc = {
            "kind": "hausdorff",
            "value": value,
            "exact": True,
            "lower": value,
            "method": "direct",
            "certificate": None,
            "subsets": {"a": a, "b": b},
        }
        sys.stdout.write(dump_report(doc))
        return 0
    Y = DirectedMetricSpace.from_space(load_space(args.fileY))
    report = getattr(ChainReport(X, Y, cfg.budget), args.kind)
    recheck = _certificate_value(report, X, Y)
    cert_ok = None if recheck is None else bool(abs(recheck - report.value) <= cfg.tol)
    doc = {
        "kind": args.kind,
        "value": report.value,
        "exact": report.exact,
        "lower": report.lower,
        "method": report.method,
        "certificate": _certificate_doc(report),
        "certificate_check": cert_ok,
    }
    sys.stdout.write(dump_report(doc))
    return 0


# ---------------------------------------------------------------------------
# ball


def scatter_svg(coords: np.ndarray, members: np.ndarray, center: int) -> str:
    """Static 420-pixel square scatter: members blue, non-members grey, center red."""
    size, margin = 420, 30.0
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scale = (size - 2 * margin) / span.max()

    def sx(x):
        return margin + (x - lo[0]) * scale

    def sy(y):
        return size - margin - (y - lo[1]) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    order = [i for i in range(len(coords)) if not members[i]]
    order += [i for i in range(len(coords)) if members[i] and i != center]
    for i in order:
        fill = "#1f77b4" if members[i] else "#c8c8c8"
        parts.append(
            f'<circle cx="{sx(coords[i, 0]):.2f}" cy="{sy(coords[i, 1]):.2f}" r="3" fill="{fill}"/>'
        )
    parts.append(
        f'<circle cx="{sx(coords[center, 0]):.2f}" cy="{sy(coords[center, 1]):.2f}" '
        f'r="5" fill="#d62728"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _zigzag_ball_row(space: FiniteDSpace, center: int, radius: float) -> np.ndarray:
    """Row center of compute_zigzag(space), exact wherever it decides d <= radius.

    compute_zigzag takes the minimum of Dijkstra's rows from both ends of
    a pair, and the two differ only by rounding.  So only points just
    outside the radius seen from the center can fall inside, and only
    they get a search of their own.
    """
    graph = _zigzag_graph(space.n, space.src, space.dst, space.length)
    row = _zigzag(graph, center)[0]
    near = np.flatnonzero((row > radius) & (row <= radius + 1e-9 * max(radius, 1.0)))
    if near.size:
        row[near] = np.minimum(row[near], _zigzag(graph, near)[:, center])
    return row


def cmd_ball(args) -> int:
    if not (args.radius >= 0 and args.tol >= 0):  # false for nan; an infinite radius is a value
        raise ValueError(f"radius and tol must be nonnegative numbers, got {args.radius} and {args.tol}")
    space = load_space(args.space)
    if args.center in space.labels:
        center = space.index_of(args.center)
    else:
        try:
            center = int(args.center)  # an index only when no point carries that label
        except ValueError:
            center = space.index_of(args.center)  # KeyError: no point labelled so
    if not 0 <= center < space.n:
        raise ValueError(f"center index {center} out of range for {space.n} points")
    radius = args.radius + args.tol
    row = space.base[center] if args.metric == "base" else _zigzag_ball_row(space, center, radius)
    members = row <= radius

    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["point", "member"])
    for lbl, m in zip(space.labels, members):
        w.writerow([lbl, int(m)])
    csv_text = out.getvalue()

    parsed = [label_coords(lbl) for lbl in space.labels]
    coords = np.array(parsed, dtype=float) if all(p is not None for p in parsed) else None

    doc = {
        "center": space.labels[center],
        "center_index": center,
        "radius": args.radius,
        "metric": args.metric,
        "count": int(members.sum()),
        "members": [space.labels[i] for i in np.flatnonzero(members)],
    }
    if args.out:
        csv_path = Path(args.out)
        csv_path.write_text(csv_text, encoding="utf-8")
        doc["csv"] = str(csv_path)
        if coords is None:
            print("notice: labels carry no plane coordinates; SVG skipped", file=sys.stderr)
        else:
            svg_path = csv_path.with_suffix(".svg")
            svg_path.write_text(scatter_svg(coords, members, center), encoding="utf-8")
            doc["svg"] = str(svg_path)
    sys.stdout.write(dump_report(doc))
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = RunConfig.from_args(args)
    results = run_checks(args.suite, seed=args.seed, budget=cfg.budget)
    for r in results:
        state = "pass" if r.passed else "FAIL"
        print(f"[{r.suite}] {r.name}: {state} ({r.seconds:.2f}s)", file=sys.stderr)
    doc = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": all(r.passed for r in results),
        "checks": [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
    }
    text = dump_report(doc)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0 if doc["passed"] else 2


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache  # parse_args leaves the parser as it was; building it costs about 1 ms
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dirmetric",
        description="Finite directed metric spaces: zigzag metrics, comparison "
                    "distances with certificates, and an example gallery.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen", help="build a gallery space and emit its JSON file")
    g.add_argument("constructor", choices=GEN_IDS)
    g.add_argument("--k", type=int, default=8, help="grid or interval resolution (default 8)")
    g.add_argument("--steps", help="integer step pairs for square/torus, e.g. '1,0;0,1;1,1'")
    g.add_argument("--n", type=int, default=3, help="open-book: number of sheets (default 3)")
    g.add_argument("--m", type=int, default=3, help="open-book: subdivisions per sheet (default 3)")
    g.add_argument("--points", help="sncf: semicolon-separated x,y pairs, e.g. '1,0;2,0;0,1'")
    g.add_argument("--subdivisions", type=int, default=1, help="hollow-square edge subdivisions")
    g.add_argument("--out", help="write the space file here instead of standard output")
    g.set_defaults(func=cmd_gen)

    z = sub.add_parser("zigzag", help="zigzag distance matrix and reachability matrix")
    z.add_argument("space", help="space JSON file")
    z.add_argument("--out", help="zigzag CSV path; reachability goes next to it as *.reach.csv")
    z.set_defaults(func=cmd_zigzag)

    d = sub.add_parser("dist", help="comparison distance between two spaces")
    d.add_argument("kind", choices=("gh", "dis", "cdis", "hausdorff"))
    d.add_argument("fileX", help="space JSON file")
    d.add_argument("fileY", help="space JSON file; for hausdorff, a JSON object "
                                 "{\"a\": [...], \"b\": [...]} naming subsets of FILEX")
    _add_budget_flags(d)
    d.set_defaults(func=cmd_dist)

    b = sub.add_parser("ball", help="metric ball membership as CSV plus SVG scatter")
    b.add_argument("space", help="space JSON file")
    b.add_argument("--center", required=True, help="point label or index")
    b.add_argument("--radius", type=float, required=True)
    b.add_argument("--metric", choices=("base", "zigzag"), default="zigzag")
    b.add_argument("--tol", type=float, default=0.0, help="membership slack added to the radius")
    b.add_argument("--out", help="CSV path; the SVG goes next to it with a .svg suffix")
    b.set_defaults(func=cmd_ball)

    v = sub.add_parser("verify", help="run the self-check suites")
    v.add_argument("suite", nargs="?", default="all", choices=SUITES)
    v.add_argument("--out", help="also write the JSON report here")
    v.add_argument("--seed", type=int, default=0, help="seed of the checks' random ensembles (default 0)")
    _add_budget_flags(v)
    v.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for verification
        # failures here, so usage problems map to the format-error code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (SpaceFormatError, OSError, CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the size it could not allocate; Python's own is empty
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
