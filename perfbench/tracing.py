"""Traced replays of the benchmark operations, and per-layer metrics.

The program has no tracing of its own yet.  A traced operation therefore
replays what the CLI subcommand does, step for step, and records a span
around every call it makes into a module of `dirmetric`: name, start,
end and parent, one root span ("op") per operation.  The replay's
standard output must be byte-identical to the real subcommand's, which
is how the benchmark notices a replay that no longer matches the CLI.

Layers are the modules: cli, fileio, gallery, spaces, distances, verify.
A layer's self time is the time of its spans minus their child spans;
the root span's self time is the CLI's own glue.  Validation inside
FiniteDSpace stays inside fileio.load and gallery.build spans.

Run as a script, it replays one CLI command in a fresh interpreter and
writes its spans to a JSON file:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json gen torus --k 32 --out t.json
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import time
from pathlib import Path

LAYERS = ("cli", "fileio", "gallery", "spaces", "distances", "verify")
KINDS = ("gh", "dis", "cdis")
#: The `method` strings each search can report; any other is counted as "other".
METHODS = {
    "gh": ("branch-and-bound", "local-search"),
    "dis": ("exhaustive", "local-search"),
    "cdis": ("propagation", "branch-and-bound", "greedy"),
}
SUBCOMMANDS = ("gen", "zigzag", "ball")
SPAN_TIMES = (
    "fileio.load", "fileio.save", "fileio.csv", "fileio.report",
    "gallery.build", "spaces.zigzag", "spaces.reach", "spaces.analyze",
    "distances.recheck", "distances.distortion",
)
COUNTS = (
    "gallery.points", "gallery.edges", "fileio.bytes_read", "fileio.bytes_written",
    "spaces.points", "spaces.edges",
)


def layer_metric_units(check_names) -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {"cli.import_s": "s", "cli.glue_s": "s"}
    units.update({f"cli.{sub}_s": "s" for sub in SUBCOMMANDS})
    units.update({f"{name}_s": "s" for name in SPAN_TIMES})
    units.update({name: "count" if name.endswith(("points", "edges")) else "B" for name in COUNTS})
    for kind in KINDS:
        units.update({f"distances.{kind}.s": "s", f"distances.{kind}.calls": "count",
                      f"distances.{kind}.exact": "count", f"distances.{kind}.gap_sum": "distance"})
        units.update({f"distances.{kind}.method.{m}": "count" for m in (*METHODS[kind], "other")})
    units["distances.chain_violations"] = "count"
    units.update({f"verify.{name}_s": "s" for name in check_names})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS[1:]})
    units.update({"trace.overhead_s": "s", "trace.coverage": "ratio"})
    return units


class Tracer:
    """Spans and counters of one pass, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.op = -1

    def begin_op(self) -> None:
        self.op += 1
        self._open("op")

    def end_op(self) -> None:
        self._close()

    def call(self, name: str, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"op": self.op, "name": name, "parent": parent, "start": time.perf_counter(), "end": None})
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        self.spans[self._stack.pop()]["end"] = time.perf_counter()

    def absorb(self, doc: dict, seconds: float) -> None:
        """Add one operation replayed in a child process (see main); its
        root span takes the child's wall time, measured by the parent."""
        self.op += 1
        offset = len(self.spans)
        for span in doc["spans"]:
            parent = span["parent"]
            self.spans.append({**span, "op": self.op, "parent": None if parent is None else parent + offset})
        self.spans[offset]["end"] = self.spans[offset]["start"] + seconds
        for name, value in doc["counts"].items():
            self.count(name, value)


def self_times(tracer: Tracer) -> dict[str, float]:
    """Seconds per span name, exclusive of child spans."""
    dur = [s["end"] - s["start"] for s in tracer.spans]
    own = list(dur)
    for s, d in zip(tracer.spans, dur):
        if s["parent"] is not None:
            own[s["parent"]] -= d
    out: dict[str, float] = {}
    for s, t in zip(tracer.spans, own):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the cli.* subprocess times,
    cli.import_s and trace.overhead_s are filled in by the caller)."""
    incl: dict[str, float] = {}
    for s in tracer.spans:
        incl[s["name"]] = incl.get(s["name"], 0.0) + s["end"] - s["start"]
    own = self_times(tracer)
    m = {f"{name}_s": incl.get(name, 0.0) for name in SPAN_TIMES}
    m.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    for kind in KINDS:
        m[f"distances.{kind}.s"] = incl.get(f"distances.{kind}", 0.0)
        for c in ("calls", "exact", "gap_sum"):
            m[f"distances.{kind}.{c}"] = tracer.counts.get(f"distances.{kind}.{c}", 0)
        for method in (*METHODS[kind], "other"):
            m[f"distances.{kind}.method.{method}"] = tracer.counts.get(f"distances.{kind}.method.{method}", 0)
    for name, t in incl.items():
        if name.startswith("verify."):
            m[f"{name}_s"] = t
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = sum(t for name, t in own.items() if name.split(".")[0] == layer)
    total = incl.get("op", 0.0)
    m["cli.glue_s"] = own.get("op", 0.0)
    m["trace.coverage"] = 1.0 - m["cli.glue_s"] / total if total > 0 else 0.0
    return m


# ---------------------------------------------------------------------------
# replays: each mirrors the CLI subcommand of the same name


def replay(argv: list[str], T: Tracer) -> str:
    """Run one CLI command as a traced replay; return its standard output."""
    from dirmetric import cli

    args = cli.build_parser().parse_args(argv)
    return {"gen": _gen, "zigzag": _zigzag, "ball": _ball, "dist": _dist, "verify": _verify}[args.subcommand](args, T)


def _space_counts(T: Tracer, prefix: str, space) -> None:
    T.count(f"{prefix}.points", space.n)
    T.count(f"{prefix}.edges", len(space.edges))


def _load(T: Tracer, path: str):
    from dirmetric.fileio import load_space

    T.count("fileio.bytes_read", os.path.getsize(path))
    return T.call("fileio.load", load_space, path)


def _report(T: Tracer, doc) -> str:
    from dirmetric.fileio import dump_report

    text = T.call("fileio.report", dump_report, doc)
    T.count("fileio.bytes_written", len(text.encode()))
    return text


def _gen(args, T: Tracer) -> str:
    from dirmetric import fileio, gallery
    from dirmetric.spaces import compute_zigzag

    extras: dict = {}
    if args.constructor == "torus":
        space = T.call("gallery.build", gallery.flat_torus_grid, gallery.GridSpec(k=args.k))
    elif args.constructor == "square":
        space = T.call("gallery.build", gallery.directed_square_grid, gallery.GridSpec(k=args.k))
    elif args.constructor == "open-book":
        space = T.call("gallery.build", gallery.open_book, args.n, args.m)
        _space_counts(T, "spaces", space)
        zz = T.call("spaces.zigzag", compute_zigzag, space)
        extras["spine_distance"] = float(zz[space.index_of("a"), space.index_of("b")])
    else:
        raise ValueError(f"no replay for gen {args.constructor}")
    _space_counts(T, "gallery", space)
    if not args.out:
        return _report(T, T.call("fileio.save", fileio.space_to_doc, space))
    T.call("fileio.save", fileio.save_space, space, args.out)
    T.count("fileio.bytes_written", os.path.getsize(args.out))
    return _report(T, {"constructor": args.constructor, "points": space.n, "edges": len(space.edges),
                       "out": args.out, **extras})


def _zigzag(args, T: Tracer) -> str:
    from dirmetric.fileio import matrix_to_csv
    from dirmetric.spaces import compute_reachability, compute_zigzag

    space = _load(T, args.space)
    _space_counts(T, "spaces", space)
    zz = T.call("spaces.zigzag", compute_zigzag, space)
    _space_counts(T, "spaces", space)
    reach = T.call("spaces.reach", compute_reachability, space).astype(int)
    if not args.out:
        return _report(T, {"labels": list(space.labels), "zigzag": zz, "reachability": reach})
    zz_path = Path(args.out)
    reach_path = zz_path.with_name(zz_path.stem + ".reach" + (zz_path.suffix or ".csv"))
    for path, matrix in ((zz_path, zz), (reach_path, reach)):
        text = T.call("fileio.csv", matrix_to_csv, matrix, space.labels)
        T.count("fileio.bytes_written", len(text.encode()))
        path.write_text(text, encoding="utf-8")
    return _report(T, {"points": space.n, "zigzag_csv": str(zz_path), "reachability_csv": str(reach_path)})


def _ball(args, T: Tracer) -> str:
    import numpy as np

    from dirmetric import cli
    from dirmetric.gallery import label_coords, metric_ball
    from dirmetric.spaces import compute_zigzag

    space = _load(T, args.space)
    try:
        center = int(args.center)
    except ValueError:
        center = space.index_of(args.center)
    if args.metric == "base":
        d = space.base
    else:
        _space_counts(T, "spaces", space)
        d = T.call("spaces.zigzag", compute_zigzag, space)
    ball = T.call("gallery.ball", metric_ball, d, center, args.radius + args.tol)
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["point", "member"])
    for lbl, m in zip(space.labels, ball.members):
        w.writerow([lbl, int(m)])
    parsed = T.call("gallery.coords", lambda: [label_coords(lbl) for lbl in space.labels])
    coords = np.array(parsed, dtype=float) if all(p is not None for p in parsed) else None
    doc = {"center": space.labels[center], "center_index": center, "radius": args.radius,
           "metric": args.metric, "count": ball.count,
           "members": [space.labels[i] for i in np.flatnonzero(ball.members)]}
    if args.out:
        csv_path = Path(args.out)
        csv_path.write_text(out.getvalue(), encoding="utf-8")
        doc["csv"] = str(csv_path)
        if coords is not None:
            svg_path = csv_path.with_suffix(".svg")
            svg_path.write_text(cli.scatter_svg(coords, ball.members, center), encoding="utf-8")
            doc["svg"] = str(svg_path)
    return _report(T, doc)


def _dist(args, T: Tracer) -> str:
    from dirmetric import cli, distances
    from dirmetric.spaces import DirectedMetricSpace

    cfg = cli.RunConfig.from_args(args)
    spaces = []
    for path in (args.fileX, args.fileY):
        space = _load(T, path)
        _space_counts(T, "spaces", space)
        spaces.append(T.call("spaces.analyze", DirectedMetricSpace.from_space, space))
    X, Y = spaces
    fn = {"gh": distances.gh_distance, "dis": distances.distortion_distance,
          "cdis": distances.dcorrespondence_distance}[args.kind]
    report = T.call(f"distances.{args.kind}", fn, X, Y, cfg.budget)
    recheck = T.call("distances.recheck", cli._certificate_value, report, X, Y)
    if recheck is None:
        cert_ok = None
    elif math.isinf(recheck) and math.isinf(report.value):
        cert_ok = True
    else:
        cert_ok = bool(abs(recheck - report.value) <= cfg.tol)
    prefix = f"distances.{args.kind}"
    T.count(f"{prefix}.calls")
    T.count(f"{prefix}.exact", int(report.exact))
    if math.isfinite(report.value):
        T.count(f"{prefix}.gap_sum", report.value - report.lower)
    method = report.method if report.method in METHODS[args.kind] else "other"
    T.count(f"{prefix}.method.{method}")
    return _report(T, {"kind": args.kind, "value": report.value, "exact": report.exact, "lower": report.lower,
                       "method": report.method, "certificate": cli._certificate_doc(report),
                       "certificate_check": cert_ok})


def _square_identity(seed, budget, T: Tracer):
    """verify.check_square_identity, split at its library calls."""
    import numpy as np

    from dirmetric.distances import map_distortion, pair_codistortion
    from dirmetric.gallery import GridSpec, directed_square_grid
    from dirmetric.spaces import compute_zigzag

    g = T.call("gallery.build", directed_square_grid, GridSpec(k=64))
    _space_counts(T, "gallery", g)
    _space_counts(T, "spaces", g)
    Z = T.call("spaces.zigzag", compute_zigzag, g)
    ident = np.arange(g.n)
    dis_id = T.call("distances.distortion", map_distortion, ident, g.base, Z)
    codis_id = T.call("distances.distortion", pair_codistortion, ident, ident, g.base, Z)
    half = 0.5 * max(dis_id, codis_id)
    target = 2.0 - math.sqrt(2.0)
    passed = abs(dis_id - target) <= 0.03 and abs(codis_id - target) <= 0.03 and abs(half - target / 2.0) <= 0.015
    return passed, {"dis_identity": dis_id, "codis_identity": codis_id, "half_objective": half, "target": target}


def _verify(args, T: Tracer) -> str:
    from dirmetric import cli, verify

    cfg = cli.RunConfig.from_args(args)
    checks = []
    for group, name, fn in verify.CHECKS:
        if args.suite != "all" and group != args.suite:
            continue
        if name == "square_identity":
            passed, details = T.call(f"verify.{name}", _square_identity, args.seed, cfg.budget, T)
        else:
            passed, details = T.call(f"verify.{name}", fn, args.seed, cfg.budget)
        checks.append({"suite": group, "name": name, "passed": bool(passed), "details": details})
    doc = {"suite": args.suite, "seed": args.seed, "passed": all(c["passed"] for c in checks), "checks": checks}
    return _report(T, doc)


def main(argv: list[str]) -> int:
    """Replay one command in this fresh process; write spans and stdout."""
    spans_path, command = argv[0], argv[1:]
    T = Tracer()
    T.begin_op()
    T.call("cli.import", __import__, "dirmetric.cli")
    text = replay(command, T)
    T.end_op()
    sys.stdout.write(text)
    doc = {"spans": T.spans, "counts": T.counts, "dirmetric_file": sys.modules["dirmetric"].__file__}
    Path(spans_path).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
