"""The dirmetric benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload pairs-local --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it measures the `dirmetric` in that
checkout's src/.  It builds the workload's inputs from --seed (three
times, each in a fresh interpreter, to time set-up), then repeats the
workload's fixed pass of operations for about --seconds, checking every
output.  The last line of standard output is one JSON object: whether
every output was right, how many operations were attempted and failed,
and the metrics (end to end with --trace 0, per layer with --trace 1).
A readable table goes to standard error, and a traced run writes its
spans to .bench_out/spans-<workload>-<seed>.jsonl.  Workloads, metrics
and the layer each metric should move are described in
perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

# Numerical libraries read these at import: one thread each, so the
# benchmark never asks for more threads than there are cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import traceback
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("grid-io", "pairs-local", "pairs-exact", "verify")
SETUPS = 3
SUBPROCESS_TIMEOUT = 170

#: End-to-end metrics: name -> unit.  See README.md for what each means.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "bytes_out_mb": "MB",
    "exact_frac": "ratio",
    "bound_tightness": "ratio",
    "chain_ok_frac": "ratio",
}
#: Value of a metric the workload has nothing to measure for: the quality
#: metrics where no distance is reported, bytes_out_mb where nothing is
#: written to files.
NOT_APPLICABLE = 1.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else str(SRC)
    return env


def import_dirmetric():
    """Import dirmetric from this checkout's src/, and prove that it did."""
    sys.path.insert(0, str(SRC))
    import dirmetric.cli

    check_origin(dirmetric.__file__)
    return dirmetric.cli


def check_origin(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"dirmetric imported from {path}, not from {SRC}")


# ---------------------------------------------------------------------------
# set-up


def setup_only(workload: str, seed: int, out: Path) -> None:
    """Import the program and build the inputs; the parent times this."""
    import_dirmetric()
    t = time.perf_counter()
    out.mkdir(parents=True)
    manifest = workloads.make_inputs(workload, seed, out)
    manifest.update(inputs_s=time.perf_counter() - t, dirmetric_file=sys.modules["dirmetric"].__file__)
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def setup(workload: str, seed: int, work: Path):
    """Set up SETUPS times in fresh interpreters; keep the first inputs.

    Returns the set-up times, the interpreter start and import times (set-up
    minus input generation), the manifest and the inputs directory.
    """
    times, import_times, manifests = [], [], []
    for i in range(SETUPS):
        out = work / f"setup{i}"
        t = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                        "--setup-only", str(out)], env=child_env(), check=True, timeout=SUBPROCESS_TIMEOUT)
        times.append(time.perf_counter() - t)
        manifests.append(json.loads((out / "manifest.json").read_text(encoding="utf-8")))
        import_times.append(times[-1] - manifests[-1]["inputs_s"])
        check_origin(manifests[-1]["dirmetric_file"])
        if i:
            shutil.rmtree(out)
    if len({m["input_sha256"] for m in manifests}) != 1:
        raise RuntimeError("the same seed gave different inputs")
    return times, import_times, manifests[0], work / "setup0"


# ---------------------------------------------------------------------------
# operations


class Runner:
    """Runs single operations in the inputs directory and checks them."""

    def __init__(self, cli, workload: str, inputs: Path):
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.in_process = workload != "grid-io"
        self.cache: dict = {}  # grid-io: parsed zigzag CSVs, for the ball checks

    def run(self, op: dict, tracer=None) -> dict:
        if self.in_process:
            rec = self._in_process(op, tracer)
        else:
            rec = self._subprocess(op, tracer)
        if rec["rc"] == 0 and rec["problems"] == []:
            try:
                doc = json.loads(rec["stdout"])
                rec["doc"] = doc
                rec["problems"] = self.check(op, doc)
            except (ValueError, KeyError, IndexError, OSError, TypeError) as exc:
                rec["problems"] = [f"output check raised {exc!r}"]
        elif rec["rc"] != 0:
            rec["problems"].append(f"exit code {rec['rc']}")
        files = b"".join((self.inputs / f).read_bytes() for f in op.get("files", ()) if (self.inputs / f).exists())
        rec["bytes"] = len(rec["stdout"].encode()) + len(files)
        rec["sha256"] = hashlib.sha256(rec["stdout"].encode() + files).hexdigest()
        return rec

    def _in_process(self, op: dict, tracer) -> dict:
        out, err = io.StringIO(), io.StringIO()
        problems: list[str] = []
        rc = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = self.cli.main(op["argv"])
                else:
                    tracer.begin_op()
                    try:
                        out.write(tracing.replay(op["argv"], tracer))
                    finally:
                        tracer.end_op()
                    rc = 0
        except Exception:  # an operation that raises counts as failed, the run goes on
            problems.append(traceback.format_exc(limit=3))
        seconds = time.perf_counter() - t
        return {"rc": rc, "stdout": out.getvalue(), "seconds": seconds, "problems": problems}

    def _subprocess(self, op: dict, tracer) -> dict:
        if tracer is None:
            cmd = [sys.executable, "-m", "dirmetric.cli", *op["argv"]]
        else:
            spans = self.inputs / "spans.json"
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans), *op["argv"]]
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.inputs, env=child_env(), capture_output=True,
                              timeout=SUBPROCESS_TIMEOUT)
        seconds = time.perf_counter() - t
        stdout = proc.stdout.decode("utf-8", "replace")
        problems = [] if proc.returncode == 0 else [proc.stderr.decode("utf-8", "replace")[-400:]]
        if tracer is not None and proc.returncode == 0:
            doc = json.loads(spans.read_text(encoding="utf-8"))
            check_origin(doc["dirmetric_file"])
            tracer.absorb(doc, seconds)
        if "stdout_to" in op:  # the shell redirect `> book.json`
            (self.inputs / op["stdout_to"]).write_bytes(proc.stdout)
        return {"rc": proc.returncode, "stdout": stdout, "seconds": seconds, "problems": problems}

    def check(self, op: dict, doc: dict) -> list[str]:
        if self.workload == "grid-io":
            return workloads.check_grid(op, doc, self.inputs, self.cache)
        if self.workload == "verify":
            return [] if doc.get("passed") is True else ["verify reported a failed check"]
        return workloads.check_dist(op, doc)

    def run_pass(self, ops: list[dict], tracer=None) -> list[dict]:
        self.cache.clear()
        recs = [self.run(op, tracer) for op in ops]
        if self.workload == "verify" and recs[1]["stdout"] != recs[0]["stdout"]:
            recs[1]["problems"].append("second verify output differs from the first")
        return recs


# ---------------------------------------------------------------------------
# metrics


def distance_reports(ops: list[dict], recs: list[dict]) -> list[tuple[dict, dict]]:
    return [(op, r["doc"]) for op, r in zip(ops, recs) if "kind" in op and "doc" in r]


def chains(reports) -> list[bool]:
    """For each pair with all three reports: does gh <= dis <= cdis hold?"""
    pairs: dict[str, dict] = {}
    for op, d in reports:
        pairs.setdefault(op["pair"], {})[op["kind"]] = float(d["value"])
    return [workloads.chain_holds(v) for v in pairs.values() if len(v) == 3]


def quality(ops: list[dict], recs: list[dict]) -> dict[str, float]:
    """exact_frac, bound_tightness and chain_ok_frac of one pass."""
    reports = distance_reports(ops, recs)
    if not reports:
        return {"exact_frac": NOT_APPLICABLE, "bound_tightness": NOT_APPLICABLE, "chain_ok_frac": NOT_APPLICABLE}
    finite = [(float(d["value"]), float(d["lower"])) for _, d in reports if math.isfinite(float(d["value"]))]
    total = sum(v for v, _ in finite)
    ok = chains(reports)
    return {
        "exact_frac": sum(bool(d["exact"]) for _, d in reports) / len(reports),
        "bound_tightness": sum(lo for _, lo in finite) / total if total > 0 else NOT_APPLICABLE,
        "chain_ok_frac": sum(ok) / len(ok) if ok else NOT_APPLICABLE,
    }


def e2e_metrics(workload, setup_times, ops, passes) -> dict[str, float]:
    seconds = [r["seconds"] for recs in passes for r in recs]
    walls = [sum(r["seconds"] for r in recs) for recs in passes]
    subprocesses = workload == "grid-io"
    who = resource.RUSAGE_CHILDREN if subprocesses else resource.RUSAGE_SELF
    m = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(seconds) / sum(walls),
        "ok_frac": sum(not r["problems"] for recs in passes for r in recs) / len(seconds),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "bytes_out_mb": sum(r["bytes"] for r in passes[0]) / 1e6 if subprocesses else NOT_APPLICABLE,
    }
    m.update(quality(ops, passes[0]))
    return m


def layer_metrics(import_times, manifest, plain, traced, units) -> dict[str, float]:
    per_pass = [tracing.pass_metrics(t) for t, _ in traced]
    m = {name: statistics.median(p.get(name, 0.0) for p in per_pass) for name in units}
    m["cli.import_s"] = statistics.median(import_times)
    for sub in tracing.SUBCOMMANDS:
        m[f"cli.{sub}_s"] = statistics.median(
            sum(r["seconds"] for op, r in zip(manifest["ops"], recs) if op.get("sub") == sub) for recs in plain)
    m["distances.chain_violations"] = statistics.median(
        sum(not ok for ok in chains(distance_reports(manifest["ops"], recs))) for _, recs in traced)
    plain_wall = statistics.median(sum(r["seconds"] for r in recs) for recs in plain)
    traced_wall = statistics.median(sum(r["seconds"] for r in recs) for _, recs in traced)
    m["trace.overhead_s"] = traced_wall - plain_wall
    return m


# ---------------------------------------------------------------------------
# the run


def measure(runner: Runner, ops: list[dict], seconds: float, trace: bool):
    """Repeat the pass (plain, or plain then traced) while the next
    repetition is expected to end within `seconds`; at least once."""
    plain, traced, lengths = [], [], []
    start = time.perf_counter()
    while not lengths or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        t = time.perf_counter()
        plain.append(runner.run_pass(ops))
        if trace:
            tracer = tracing.Tracer()
            traced.append((tracer, runner.run_pass(ops, tracer)))
        lengths.append(time.perf_counter() - t)
    return plain, traced


def write_spans(path: Path, traced) -> None:
    """One JSON line per span: pass, op, name, parent (an index within the
    pass), start and end (seconds, perf_counter)."""
    path.parent.mkdir(exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for n, (tracer, _) in enumerate(traced):
            for span in tracer.spans:
                fh.write(json.dumps({"pass": n, **span}) + "\n")


def problems_of(manifest, passes) -> list[str]:
    """Failed operations, plus outputs that differ from the first pass's
    (a later repetition, or a traced replay that no longer matches the CLI)."""
    out = []
    for recs in passes:
        for op, r in zip(manifest["ops"], recs):
            out += [f"{' '.join(op['argv'])}: {p.strip()}" for p in r["problems"]]
        for i, (a, b) in enumerate(zip(passes[0], recs)):
            if a["sha256"] != b["sha256"]:
                b["problems"].append("output bytes differ from the first pass")
                out.append(f"{' '.join(manifest['ops'][i]['argv'])}: output bytes differ from the first pass")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "dirmetric" / "__init__.py").is_file():
        print(f"error: no dirmetric package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_only(args.workload, args.seed, args.setup_only)
        return 0

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, import_times, manifest, inputs = setup(args.workload, args.seed, work)
        cli = import_dirmetric()
        runner = Runner(cli, args.workload, inputs)
        ops = manifest["ops"]
        os.chdir(inputs)
        try:
            plain, traced = measure(runner, ops, args.seconds, bool(args.trace))
        finally:
            os.chdir(ROOT)
        passes = plain + [recs for _, recs in traced]
        problems = problems_of(manifest, passes)
        if args.trace:
            from dirmetric.verify import CHECKS

            units = tracing.layer_metric_units([name for _, name, _ in CHECKS])
            values = layer_metrics(import_times, manifest, plain, traced, units)
            write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl", traced)
        else:
            units = E2E_UNITS
            values = e2e_metrics(args.workload, setup_times, ops, plain)
        attempted = sum(len(recs) for recs in passes)
        failed = sum(bool(r["problems"]) for recs in passes for r in recs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(args, manifest, passes, problems, units, values)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def report(args, manifest, passes, problems, units, values) -> None:
    err = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops/pass {len(manifest['ops'])}  input sha256 {manifest['input_sha256'][:16]}", file=err)
    outputs = hashlib.sha256("".join(r["sha256"] for r in passes[0]).encode()).hexdigest()
    print(f"output sha256 {outputs}", file=err)
    for name, unit in units.items():
        print(f"  {name:<44} {values[name]:>16.6g} {unit}", file=err)
    for line in problems[:20]:
        print(f"FAILED {line}", file=err)


if __name__ == "__main__":
    sys.exit(main())
