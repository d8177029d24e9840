"""Benchmark of the complexity-one CLI on three workloads.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from `src/`.
Every op is one in-process `complexity_one.cli.main([...])` call with
`--format json` on input files written for that op alone; its exit code,
verdict and check statuses are compared with what the input was built to
give, and some outputs are re-checked independently (see checks.py).

The op list is a fixed function of the workload, the seed and `--seconds`,
so a faster program finishes sooner but does the same work.  With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` it runs
one unit of the op list, each op untraced and traced (see spans.py), and
reports per-layer metrics.  The last line of stdout is the JSON result; a full
record (provenance, digests, per-op latencies, span table) is written to
`perfbench/results/`.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

# One unit of a workload is a fixed mix of op kinds, sized so that the
# median and the 90th percentile fall inside one cluster of similar ops
# rather than between two.  unit_s is the nominal time of a unit on the
# reference machine (2 vCPU, Python 3.11.7); a run does round(seconds /
# unit_s) units, and never fewer than MIN_OPS ops.  SETUPS set-ups are
# timed per run and their median reported.
MIN_OPS = 100
SETUPS = 7

WORKLOADS = {
    "compare": {
        "unit_s": 6.5,
        "kinds": {
            "compare/g42/flip": 1,
            "compare/f3/flip": 1,
            "compare/local-model-5/equiv": 1,
            "compare/g42/equiv": 1,
            "compare/f3/equiv": 2,
            "compare/local-model-4/flip": 20,
            "compare/cp3-reduction/flip": 10,
            "compare/local-model-4/equiv": 30,
            "compare/cp3-reduction/equiv": 34,
        },
        "warmup": ["compare/cp3-reduction/equiv", "compare/cp3-reduction/flip"],
    },
    "validate": {
        "unit_s": 3.1,
        "kinds": {
            "validate/cp3-reduction": 1,
            "validate/f3": 1,
            "validate/f3/flip": 1,
            "validate/local-model-4": 2,
            "validate/g42": 1,
            "validate/g42/flip": 1,
            "validate/local-model-5": 5,
            "validate/local-model-5/flip": 1,
            "validate/local-model-6": 3,
            "validate/local-model-7": 4,
        },
        "warmup": ["validate/cp3-reduction", "validate/local-model-4/flip"],
    },
    "reduce": {
        "unit_s": 2.8,
        "kinds": {
            "reduce/simplex/search": 1,
            "reduce/simplex/conj": 1,
            "reduce/prism/search": 1,
            "reduce/prism/conj": 1,
            "reduce/cube3/search": 3,
            "reduce/cube3/conj": 3,
            "reduce/cube4/search": 1,
            "reduce/cube4/conj": 1,
            "reduce/cube5/search": 1,
            "reduce/cube5/conj": 2,
        },
        "warmup": ["reduce/simplex/search", "reduce/cube3/conj"],
    },
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}


@dataclass
class Op:
    id: str
    tag: str
    argv: list[str]
    expect_code: int
    expect_verdict: str
    expect_failing: frozenset[str]
    check: object = None  # callable(report) -> reason or None, independent of the program
    record: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# set-up: import the program and write every op's input files

def import_program():
    """Import complexity_one from this checkout's src/ (never from elsewhere)."""
    if not (SRC / "complexity_one" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}; run from the root of a checkout")
    for name in [m for m in sys.modules if m == "complexity_one" or m.startswith("complexity_one.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import complexity_one.catalog
    import complexity_one.cli
    import complexity_one.io

    if Path(complexity_one.__file__).resolve().parent != SRC / "complexity_one":
        raise SystemExit(f"perfbench: imported complexity_one from {complexity_one.__file__}, not {SRC}")
    return complexity_one


def plan(workload: str, units: int, rng: random.Random) -> list[str]:
    tags = [tag for _ in range(units) for tag, k in WORKLOADS[workload]["kinds"].items() for _ in range(k)]
    rng.shuffle(tags)
    return tags


def units_for(workload: str, seconds: float) -> int:
    spec = WORKLOADS[workload]
    per_unit = sum(spec["kinds"].values())
    return max(round(seconds / spec["unit_s"]), -(-MIN_OPS // per_unit), 1)


class Builder:
    """Writes the input files of each op and states what its output must be."""

    def __init__(self, program, workdir: Path, rng: random.Random):
        self.program = program
        self.workdir = workdir
        self.rng = rng
        self._catalog: dict[str, dict] = {}

    def catalog_entry(self, name: str) -> dict:
        if name not in self._catalog:
            entry = self.program.catalog.load(name)
            self._catalog[name] = self.program.io.chardata_to_dict(entry.data)
        return self._catalog[name]

    def write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(inputs.dump(obj), encoding="ascii")
        return str(path)

    def copy(self, name: str) -> dict:
        """A relabelled copy of a catalog entry under a random unimodular transform."""
        cd = inputs.relabel(self.catalog_entry(name), self.rng)
        a, _ = inputs.unimodular(cd["n"] - 1, self.rng)
        return inputs.transform(cd, a)

    def op(self, op_id: str, tag: str) -> Op:
        command, subject, *variant = tag.split("/")
        return getattr(self, f"_{command}")(op_id, tag, subject, variant[0] if variant else "")

    def _compare(self, op_id: str, tag: str, name: str, variant: str) -> Op:
        first = inputs.relabel(self.catalog_entry(name), self.rng)
        second = self.copy(name)
        if variant == "flip":
            second = inputs.flip_sign(second, self.rng)
        argv = ["--format", "json", "compare", self.write(f"{op_id}-a.json", first), self.write(f"{op_id}-b.json", second)]
        if variant == "flip":
            return Op(op_id, tag, argv, 1, "Inequivalent", frozenset({"verdict", "detail"}))
        return Op(
            op_id, tag, argv, 0, "Equivalent", frozenset(),
            check=lambda report: checks.check_witness(first, second, report),
        )

    def _validate(self, op_id: str, tag: str, name: str, variant: str) -> Op:
        cd = self.copy(name)
        if variant == "flip":
            cd = inputs.flip_sign(cd, self.rng)
        entry = f"{op_id}-{name}"
        self.write(f"{entry}.json", cd)
        argv = ["--format", "json", "catalog", entry]
        if variant == "flip":
            return Op(op_id, tag, argv, 1, "fail", frozenset({"cocycle", "euler-cycle"}))
        return Op(op_id, tag, argv, 0, "pass", frozenset())

    def _reduce(self, op_id: str, tag: str, name: str, variant: str) -> Op:
        case = inputs.relabel_polytope(inputs.POLYTOPES[name](), self.rng)
        if variant == "conj":
            case = inputs.conjugate(case, self.rng)
        poly = {k: case[k] for k in ("n", "facets", "vertices")}
        out = str(self.workdir / f"{op_id}-out.json")
        argv = [
            "--format", "json", "reduce",
            "--polytope", self.write(f"{op_id}-polytope.json", poly),
            "--lambda", self.write(f"{op_id}-lambda.json", case["lambda"]),
            "-o", out,
        ]
        if variant == "conj":
            # a value starting with '-' must be attached with '=', or argparse takes it for an option
            argv.append("--alpha=" + ",".join(str(x) for x in case["alpha"]))
        return Op(
            op_id, tag, argv, 0, "pass", frozenset(),
            check=lambda report: checks.check_reduction(out, case),
        )


def set_up(workload: str, seed: int, units: int, workdir: Path):
    """Import the program and write every op's inputs into a new workdir.

    Returns (program, warm-up ops, timed ops).
    """
    program = import_program()
    workdir.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    builder = Builder(program, workdir, rng)
    warm = [builder.op(f"warm{i}", tag) for i, tag in enumerate(WORKLOADS[workload]["warmup"])]
    timed = [builder.op(f"op{i:04d}", tag) for i, tag in enumerate(plan(workload, units, rng))]
    return program, warm, timed


# ---------------------------------------------------------------------------
# running ops

def run_op(program, op: Op) -> float:
    """One timed CLI call; fills op.record and returns its latency in seconds."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    crashed = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = program.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception:
            code = None
            crashed = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    op.record = {"id": op.id, "tag": op.tag, "ms": elapsed * 1e3, "code": code, "stdout": out.getvalue()}
    op.record["error"] = crashed or diagnose(op, code, out.getvalue(), err.getvalue())
    return elapsed


def diagnose(op: Op, code, stdout: str, stderr: str) -> str | None:
    """Why the op's output is wrong, or None when it is right."""
    if "Traceback" in stdout or "Traceback" in stderr:
        return "printed a traceback"
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
        verdict, statuses = checks.report_summary(report)
    except (IndexError, ValueError, KeyError, StopIteration) as exc:
        return f"unreadable report: {exc!r}"
    op.record["verdict"] = verdict
    op.record["statuses"] = statuses
    if code != op.expect_code:
        return f"exit code {code}, expected {op.expect_code}"
    if verdict != op.expect_verdict:
        return f"verdict {verdict}, expected {op.expect_verdict}"
    failing = {check for check, status in statuses if status != "pass"}
    if failing != op.expect_failing:
        return f"failing checks {sorted(failing)}, expected {sorted(op.expect_failing)}"
    if op.check is None:
        return None
    try:
        return op.check(report)
    except (KeyError, ValueError, TypeError, StopIteration, OSError) as exc:
        return f"output could not be re-checked: {exc!r}"


def run_ops(program, ops: list[Op]) -> list[float]:
    return [run_op(program, op) for op in ops]


def settle() -> None:
    """Move the benchmark's own objects out of the collector's sight.

    The inputs, expectations and records of hundreds of ops are not the
    program's; left in the tracked heap they would make every collection
    during an op cost far more than in a fresh CLI process, and make op
    latencies bimodal.  main() unfreezes them at the end.
    """
    gc.collect()
    gc.freeze()


def digests(ops: list[Op], workdir: Path) -> dict:
    """verdict_digest over (op id, exit code, verdict, check statuses); output_digest over stdout."""
    verdicts = hashlib.sha256()
    outputs = hashlib.sha256()
    for op in ops:
        r = op.record
        verdicts.update(inputs.dump([r["id"], r["code"], r.get("verdict"), r.get("statuses")]).encode())
        outputs.update(r["id"].encode() + b"\0" + r["stdout"].replace(str(workdir), "WORK").encode())
    return {"verdict_digest": verdicts.hexdigest(), "output_digest": outputs.hexdigest()}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# provenance

def git_revision() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, ops: list[Op], units: int) -> dict:
    kinds: dict[str, int] = {}
    for op in ops:
        kinds[op.tag] = kinds.get(op.tag, 0) + 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "units": units,
        "ops": len(ops),
        "ops_per_kind": dict(sorted(kinds.items())),
    }


def per_kind(ops: list[Op]) -> dict:
    out: dict[str, list[float]] = {}
    for op in ops:
        out.setdefault(op.tag, []).append(op.record["ms"])
    return {tag: {"n": len(ms), "median_ms": statistics.median(ms)} for tag, ms in sorted(out.items())}


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end(args, workdir: Path) -> tuple[dict, list[Op], dict]:
    units = units_for(args.workload, args.seconds)
    setups = []
    for _ in range(SETUPS):
        # clearing the previous set-up's files and objects is not set-up work
        program = warm = ops = None
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        program, warm, ops = set_up(args.workload, args.seed, units, workdir)
        setups.append(time.perf_counter() - start)
    run_ops(program, warm)
    settle()
    latencies = run_ops(program, ops)
    failed = sum(1 for op in ops if op.record["error"])
    metrics = {
        "ops_per_s": len(ops) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "setup_s": statistics.median(setups),
        "ok_frac": (len(ops) - failed) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"setup_runs_s": setups, "units": units}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, ops, extra


LAYER_COUNTS = [
    "lattice.smith_normal_form", "lattice.rank", "lattice.solve_exact", "lattice.determinant",
    "lattice.integer_kernel", "lattice.hermite_normal_form", "lattice.is_unimodular_extension",
    "sponge.upper_set", "sponge.cells_of_dim", "chardata.validate_mu", "chardata.local_euler_from_weights",
    "weights.cramer_coefficients", "classify.verify_witness",
]
LAYER_SELF = [
    "lattice.smith_normal_form", "sponge.upper_set", "sponge.signed_incidence", "sponge.validate_sponge",
    "sponge.face_star", "sponge.homology", "chardata.validate_mu", "chardata.data_from_charts",
    "chardata.cocycle_check", "weights.induced_weights", "quasitoric.validate_star",
    "quasitoric.find_strict_subtorus", "quasitoric.polytope_sponge", "catalog.verify",
    "classify.compare", "classify.canonical_invariants",
]
GAUGES = re.compile(r"\((\d+) gauge assignments tried\)")


def traced(args, workdir: Path) -> tuple[dict, list[Op], dict]:
    from spans import LAYERS, Tracer

    program, warm, ops = set_up(args.workload, args.seed, 1, workdir)
    run_ops(program, warm)
    settle()
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    # each op runs untraced and traced back to back, alternating which goes
    # first, so a slow spell of the machine lands on both sides
    for i, op in enumerate(ops):
        records = {}
        for with_spans in (i % 2 == 1, i % 2 == 0):
            if with_spans:
                tracer.install()
            try:
                elapsed = run_op(program, op)
            finally:
                tracer.uninstall()
            records[with_spans] = op.record
            if with_spans:
                traced_s += elapsed
            else:
                untraced_s += elapsed
        op.record = records[True]
        op.record["untraced_ms"] = records[False]["ms"]
        op.record["error"] = records[True]["error"] or records[False]["error"]

    n = len(ops)
    gauges = 0
    for op in ops:
        match = GAUGES.search(op.record["stdout"])
        if match and op.record.get("verdict") == "Inequivalent":
            gauges += int(match.group(1))
    solves = tracer.binding_calls["classify.solve_exact"]
    values: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    for name in LAYER_COUNTS:
        values[f"{name}.calls"] = (tracer.calls(name), "count")
    for name in LAYER_SELF:
        values[f"{name}.self_s"] = (tracer.self_s(name), "s")
    values["lattice.smith_per_op"] = (tracer.calls("lattice.smith_normal_form") / n, "1/op")
    values["io.bytes_read"] = (tracer.counters["io.bytes_read"], "B")
    values["io.bytes_written"] = (tracer.counters["io.bytes_written"], "B")
    values["classify.solve_exact.calls"] = (solves, "count")
    values["classify.gauges_tried"] = (gauges, "count")
    values["classify.witness_yield"] = (tracer.calls("classify.verify_witness") / solves if solves else 0.0, "1")
    values["trace.spans"] = (tracer.spans, "count")
    values["trace.ops"] = (n, "count")
    values["trace.untraced_ops_per_s"] = (n / untraced_s, "1/s")
    values["trace.traced_ops_per_s"] = (n / traced_s, "1/s")
    values["trace.overhead_frac"] = (traced_s / untraced_s - 1, "1")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, ops, {"spans": tracer.table(), "units": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    saved_env = os.environ.get("COMPLEXITY_ONE_CATALOG")
    os.environ["COMPLEXITY_ONE_CATALOG"] = str(workdir)
    try:
        metrics, ops, extra = (traced if args.trace else end_to_end)(args, workdir)
        record = {
            "provenance": provenance(args, ops, extra.pop("units")),
            **digests(ops, workdir),
            "metrics": metrics,
            "per_kind": per_kind(ops),
            **extra,
            "ops": [{k: v for k, v in op.record.items() if k != "stdout"} for op in ops],
        }
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
        if saved_env is None:
            os.environ.pop("COMPLEXITY_ONE_CATALOG", None)
        else:
            os.environ["COMPLEXITY_ONE_CATALOG"] = saved_env
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    failed = [op.record for op in ops if op.record["error"]]
    for r in failed[:5]:
        print(f"FAILED {r['id']} {r['tag']}: {r['error']}")
    print(json.dumps({"provenance": record["provenance"], "verdict_digest": record["verdict_digest"],
                      "output_digest": record["output_digest"]}, sort_keys=True))
    for tag, s in record["per_kind"].items():
        print(f"{tag:32} n={s['n']:4d} median {s['median_ms']:10.2f} ms")
    print(f"record: {out}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
