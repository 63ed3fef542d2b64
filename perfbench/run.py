"""Benchmark of the aoidual package: exact tables, mean sweeps, simulation.

Run from the repository root::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``tables`` computes and writes the exact
pdf/cdf tables of Figs. 3a/3b plus the zero-wait table; ``sweep``
evaluates exact means across seed-drawn parameters and the
preemption-only limit, and runs the freeze-rate optimizer; ``simulate``
runs the event-driven simulator for each policy and tests it against the
exact laws. Each runs in this one process, one operation at a time, with
BLAS at one thread.

The runner repeats the workload's operation list in passes until
``--seconds`` would be exceeded (at least one pass), checks every output,
and prints a report followed, as the last line, by one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off. With ``--trace 1`` half the time runs untraced and half traced, and
the metrics are the per-layer ones of ``layers.py``. ``--smoke`` runs the
same operations, checks and metric names at tiny sizes.

The package is imported from ``src/`` next to this directory; without it
the runner exits with code 2 and prints no result.
"""

import os

# Pin BLAS to one thread before anything loads numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: End-to-end metrics, reported by every workload: name, unit.
END_TO_END = (
    ("setup_s", "s"),    # fresh-process import plus the workload's set-up, median of starts
    ("wall_s", "s"),     # one pass of the operation list, median of passes
)


@dataclass
class OpRecord:
    op: object
    op_id: int
    seconds: float | None   # None when the operation raised
    counts: dict
    error: str | None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables", "sweep", "simulate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every operation, check and metric in seconds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_pass(ops, next_id, tracer=None) -> list:
    records = []
    for op in ops:
        op_id = next_id()
        start = perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.operation(op_id, f"op.{op.kind}"):
                    result = op.run()
            seconds = perf_counter() - start
        except Exception:  # an operation that raises counts as failed
            records.append(OpRecord(op, op_id, None, {}, traceback.format_exc()))
            continue
        try:
            counts = op.check(result)
        except Exception as err:  # CheckFailed, or a check that could not run
            records.append(OpRecord(op, op_id, seconds, {}, f"{type(err).__name__}: {err}"))
            continue
        records.append(OpRecord(op, op_id, seconds, counts, None))
    return records


def run_passes(ops, seconds, next_id, tracer=None) -> list:
    """Repeat the operation list while another pass fits in ``seconds``."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(ops, next_id, tracer))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def pass_counts(records) -> dict:
    """Counts of one pass; optimizer evaluations add up over the searches."""
    out = {}
    for rec in records:
        for name, value in rec.counts.items():
            if name == "optimize.evals":
                out[name] = out.get(name, 0) + value
            elif out.setdefault(name, value) != value:
                raise ValueError(f"count {name} differs between operations of one pass")
    return out


def pass_wall(records) -> float:
    return sum(r.seconds for r in records if r.seconds is not None)


def op_times(passes, select) -> list:
    return [r.seconds for records in passes for r in records
            if r.seconds is not None and select(r.op)]


def named_metrics(workload: str, passes) -> list:
    """The per-operation figures of the workload: (name, value, unit)."""
    out = []
    if workload == "tables":
        for label in dict.fromkeys(r.op.label for r in passes[0]):
            times = op_times(passes, lambda op: op.label == label)
            if times:
                out.append((f"{label}_s", statistics.median(times), "s"))
    elif workload == "sweep":
        points = op_times(passes, lambda op: op.kind == "point")
        if points:
            out.append((f"mean_eval_p50_s (n={len(points)})", statistics.median(points), "s"))
            if len(points) >= 100:  # at least ten samples beyond the p90
                p90 = statistics.quantiles(points, n=10)[-1]
                out.append((f"mean_eval_p90_s (n={len(points)})", p90, "s"))
        opts = op_times(passes, lambda op: op.kind == "optimize")
        if opts:
            out.append((f"optimize_s (n={len(opts)})", statistics.median(opts), "s"))
    else:
        cycles = {r.op.label: r.counts["sim.cycles"]
                  for records in passes for r in records if "sim.cycles" in r.counts}
        for label, count in cycles.items():
            times = op_times(passes, lambda op: op.label == label)
            out.append((f"{label}_cps", count / statistics.median(times), "receptions/s"))
    return out


def setup_seconds(args) -> float:
    """Median, over fresh processes, of importing the package and preparing."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(sizes_for(args).setup_starts):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def sizes_for(args):
    import workloads

    return workloads.SMOKE if args.smoke else workloads.FULL


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    pkg = os.path.join(SRC, "aoidual")
    src_lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {"blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha, "src_lines": src_lines}


def checked_counts(passes, problems) -> dict:
    """The counts of the first pass; a count that differs between passes is a problem."""
    try:
        per_pass = [pass_counts(p) for p in passes]
    except ValueError as err:
        problems.append(str(err))
        return {}
    for other in per_pass[1:]:
        diff = sorted(k for k in per_pass[0].keys() | other.keys()
                      if per_pass[0].get(k) != other.get(k))
        if diff:
            problems.append(f"counts differ between passes: {diff}")
            break
    return per_pass[0]


def end_to_end(args, passes) -> dict:
    values = {
        "setup_s": setup_seconds(args),
        "wall_s": statistics.median(pass_wall(p) for p in passes),
    }
    for name, unit in END_TO_END:
        print(f"  {name:40s} {values[name]:<14.6g} {unit}")
    for name, value, unit in named_metrics(args.workload, passes):
        print(f"  {name:40s} {value:<14.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(args, untraced, traced, tracer, counts) -> dict:
    import layers

    untraced_wall = statistics.median(pass_wall(p) for p in untraced)
    traced_wall = statistics.median(pass_wall(p) for p in traced)
    overhead = traced_wall - untraced_wall
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(trace_path)
    print(f"  wall_s untraced {untraced_wall:.6g} s, traced {traced_wall:.6g} s, "
          f"overhead {overhead:.6g} s; {len(tracer.spans)} spans in {trace_path}")
    records = [r for p in traced for r in p if r.seconds is not None]
    values = layers.derive(records, tracer, counts, sizes_for(args).big_k, overhead)
    for name, unit, _better, how in layers.PER_LAYER:
        print(f"  {name:40s} {values[name]:<14.6g} {unit} ({how})")
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in layers.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "aoidual", "__init__.py")):
        print(f"error: no aoidual package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        start = perf_counter()
        import workloads

        workloads.prepare(args.workload, sizes_for(args), args.seed, OUT)
        print(perf_counter() - start)
        return 0

    import layers
    import workloads
    from spans import Tracer

    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    next_id = itertools.count().__next__
    tracer = Tracer(layers.patches()) if args.trace else None
    try:
        ops = workloads.prepare(args.workload, sizes_for(args), args.seed, outdir)
        if args.trace:
            untraced = run_passes(ops, args.seconds / 2, next_id)
            tracer.install()
            try:
                traced = run_passes(ops, args.seconds / 2, next_id, tracer)
            finally:
                tracer.uninstall()
        else:
            untraced, traced = run_passes(ops, args.seconds, next_id), []
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    passes = untraced + traced
    records = [r for p in passes for r in p]
    problems = [f"{r.op.label}: {r.error}" for r in records if r.error]
    failed = len(problems)
    counts = checked_counts(passes, problems)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    print(f"aoidual benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={args.smoke} "
          f"passes={len(untraced)} untraced, {len(traced)} traced")
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        metrics = per_layer(args, untraced, traced, tracer, counts)
    else:
        metrics = end_to_end(args, untraced)
    print(f"  {'fail_ratio':40s} {failed / len(records):<14.6g} 1 ({failed}/{len(records)})")
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
