"""Command-line front end.

Four subcommands: ``analyze`` evaluates the exact distributions,
``simulate`` runs the simulator, ``optimize`` searches the
freeze rate, and ``figure`` writes plot-ready CSV data for the standard
experiments. Every run writes a manifest sufficient to reproduce it.

Exit codes: 0 on success, 2 on a usage or parameter error, 1 on an
internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__, _io
from .fp import FpParams, build_fp_model, fp_means, preempt_only_params
from .metrics import GridSpec, summarize
from .optimize import optimize_freeze
from .sim import FP, POLICIES, ZW, SimConfig, simulate
from .zw import ZwParams, build_zw_amc, zw_closed_form_means

#: Freeze rates swept in the rate-dependence figures.
_RATE_GRID = np.logspace(np.log10(0.05), np.log10(100.0), 30)
#: Slow-server rates swept in the optimization figure.
_MU2_GRID = np.logspace(-2.0, 0.0, 21)


class UsageError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


def _out_dir(path, command: str) -> str:
    """``path``, or a new ``<command>-<stamp>-<suffix>`` directory under
    ``$AOIDUAL_OUT_ROOT`` (default ``out``) that no other run shares."""
    if path:
        os.makedirs(path, exist_ok=True)
        return path
    root = os.environ.get("AOIDUAL_OUT_ROOT", "out")
    os.makedirs(root, exist_ok=True)
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
    return tempfile.mkdtemp(prefix=f"{command}-{stamp}-", dir=root)


def _flag_values(args) -> dict:
    return {"policy": args.policy, "mu1": args.mu1, "mu2": args.mu2,
            "lambda": args.freeze_rate, "k": args.k}


def _number(value, name: str, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{where.format(name)} must be a number, got {value!r}")
    return value


def _model_params(raw: dict, where: str):
    """Model parameters from ``raw``'s policy, mu1, mu2, lambda and k.

    ``where`` formats a field name for messages: a flag (``"--{}"``) or a
    config field. A missing or non-numeric field is a usage error, and so
    is a freeze field (lambda, k) given for a policy without freezes.
    """
    policy = raw.get("policy")
    if policy not in POLICIES:
        raise UsageError(f"{where.format('policy')} must be one of "
                         f"{'/'.join(POLICIES)}")
    for name in ("lambda", "k") if policy != FP else ():
        if raw.get(name) is not None:
            raise UsageError(f"{where.format(name)} does not apply to policy {policy}")
    values = []
    for name in ("mu1", "mu2") + (("lambda", "k") if policy == FP else ()):
        value = raw.get(name)
        if value is None:
            raise UsageError(f"{where.format(name)} is required for policy {policy}")
        values.append(_number(value, name, where))
    if policy == ZW:
        return ZwParams(*values)
    if policy == FP:
        return FpParams(*values)
    return preempt_only_params(*values)


# Each command computes its results and returns what main writes: the
# manifest's parameters and seed, {file name: writer taking the path},
# and the report printed before the output directory.

def cmd_analyze(args):
    params = _model_params(_flag_values(args), "--{}")
    chain = build_zw_amc(params) if params.policy == ZW else build_fp_model(params)
    summary = summarize(chain, GridSpec(points=args.grid_points, max_mult=args.grid_max))
    fields = {k: v for k, v in params.meta().items() if k != "swapped"}
    files = {"summary.json": summary.to_json,
             "aoi_table.csv": summary.aoi_table.to_csv,
             "paoi_table.csv": summary.paoi_table.to_csv}
    return ({**fields, "grid_points": args.grid_points, "grid_max": args.grid_max}, None,
            files, f"mean_aoi={summary.mean_aoi:.12g} mean_paoi={summary.mean_paoi:.12g}")


#: ``simulate``'s run flags and config fields, and the SimConfig fields they set.
_RUN_FIELDS = {"cycles": "horizon", "warmup": "warmup", "seed": "seed", "reps": "replications"}


def _sim_config_from_args(args) -> SimConfig:
    flags = {**_flag_values(args), **{name: getattr(args, name) for name in _RUN_FIELDS}}
    given = {name: value for name, value in flags.items() if value is not None}
    if args.config:
        if given:
            raise UsageError(f"{', '.join('--' + name for name in given)} "
                             "cannot be combined with --config")
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as err:
            raise UsageError(f"cannot read config: {err}") from err
        if not isinstance(raw, dict):
            raise UsageError("config must be a JSON object")
        unknown = sorted(set(raw) - set(flags))
        if unknown:
            raise UsageError(f"unknown config field(s) {unknown}; expected {list(flags)}")
        where = "config field '{}'"
    else:
        raw, where = {"policy": ZW, **given}, "--{}"
    # a run field left out takes SimConfig's default, and so does a null warmup
    run = {attr: _number(raw[name], name, where) for name, attr in _RUN_FIELDS.items()
           if name in raw and not (name == "warmup" and raw[name] is None)}
    return SimConfig(_model_params(raw, where), raw["policy"], **run)


def cmd_simulate(args):
    cfg = _sim_config_from_args(args)
    result = simulate(cfg)
    files = {"result.json": result.to_json,
             "aoi_ecdf.csv": partial(result.cdf_to_csv, "aoi"),
             "paoi_ecdf.csv": partial(result.cdf_to_csv, "paoi")}
    return (dict(cfg.describe()), cfg.seed, files,
            f"mean_aoi={result.mean_aoi:.12g} +- {result.se_aoi:.3g} (se)\n"
            f"mean_paoi={result.mean_paoi:.12g} +- {result.se_paoi:.3g} (se)")


def cmd_optimize(args):
    result = optimize_freeze(args.mu1, args.mu2, args.k,
                             bracket=(args.bracket_lo, args.bracket_hi),
                             rtol=args.rtol)
    if result.boundary_hit:
        print("warning: optimum at bracket boundary", file=sys.stderr)
    model = FpParams(args.mu1, args.mu2, result.lambda_star, args.k).meta()  # as it ran
    params = {**{k: v for k, v in model.items() if k not in ("swapped", "freeze_rate")},
              "bracket": [args.bracket_lo, args.bracket_hi], "rtol": args.rtol}
    return (params, None, {"optimum.json": result.to_json},
            f"lambda_star={result.lambda_star:.12g} f_star={result.f_star:.12g} "
            f"reduction_pct={result.reduction_pct:.12g}")


def _figure_cdfs(args, kind: str) -> list:
    """Analytic and simulated cdf curves for Erlang orders 1, 10, 50."""
    mu1, mu2, rate = 0.5, 0.1, 1.0
    rows = []
    for k in (1, 10, 50):
        params = FpParams(mu1, mu2, rate, k)
        summary = summarize(build_fp_model(params))
        table = summary.aoi_table if kind == "aoi" else summary.paoi_table
        for x, c in zip(table.grid, table.cdf):
            rows.append((f"analytic_k{k}", x, c))
        cfg = SimConfig(params, FP, horizon=args.cycles, seed=args.seed,
                        replications=1)
        for x, c in zip(*simulate(cfg).ecdf(kind)):
            rows.append((f"simulated_k{k}", x, c))
    return rows


def _figure_rate_sweep(kind: str) -> list:
    """Mean age or peak age versus freeze rate, with zero-wait reference."""
    mu2, k = 0.1, 50
    rows = []
    for mu1 in (0.1, 0.5):
        zw = zw_closed_form_means(ZwParams(mu1, mu2))
        ref = zw.mean_aoi if kind == "aoi" else zw.mean_paoi
        for rate in _RATE_GRID:
            means = fp_means(FpParams(mu1, mu2, rate, k))
            rows.append((f"fp_mu1_{mu1:g}", rate, getattr(means, f"mean_{kind}")))
        for rate in _RATE_GRID:
            rows.append((f"zw_mu1_{mu1:g}", rate, ref))
        if kind == "aoi":
            opt = optimize_freeze(mu1, mu2, k)
            rows.append((f"lambda_star_mu1_{mu1:g}", opt.lambda_star,
                         opt.aoi_at_star))
    return rows


def _figure_optimum_sweep() -> list:
    """Optimal freeze time and reduction versus the slow server's rate."""
    rows = []
    for mu2 in _MU2_GRID:
        zw = zw_closed_form_means(ZwParams(1.0, mu2)).mean_aoi
        pre = fp_means(preempt_only_params(1.0, mu2)).mean_aoi
        rows.append(("preempt_only", mu2, 1, float("nan"), float("nan"),
                     pre, zw, 100.0 * (zw - pre) / zw))
        for k in (1, 10, 50):
            opt = optimize_freeze(1.0, mu2, k)
            rows.append((f"fp_k{k}", mu2, k, opt.lambda_star, opt.f_star,
                         opt.aoi_at_star, opt.zw_aoi, opt.reduction_pct))
    return rows


#: Figure id -> (CSV header, rows from the parsed arguments).
_FIGURES = {
    "3a": (["curve", "x", "cdf"], lambda args: _figure_cdfs(args, "paoi")),
    "3b": (["curve", "x", "cdf"], lambda args: _figure_cdfs(args, "aoi")),
    "4": (["curve", "lambda", "mean_paoi"], lambda args: _figure_rate_sweep("paoi")),
    "5": (["curve", "lambda", "mean_aoi"], lambda args: _figure_rate_sweep("aoi")),
    "6": (["policy", "mu2", "k", "lambda_star", "f_star", "aoi_star", "zw_aoi",
           "reduction_pct"], lambda args: _figure_optimum_sweep()),
}
FIGURE_IDS = tuple(_FIGURES)


def cmd_figure(args):
    header, rows_of = _FIGURES[args.id]
    columns = list(zip(*rows_of(args)))
    params, seed = {"figure": args.id}, None
    if args.id in ("3a", "3b"):
        params.update(cycles=args.cycles, seed=args.seed)
        seed = args.seed
    return (params, seed,
            {f"fig{args.id}.csv": partial(_io.write_csv, header=header, columns=columns)},
            "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoidual",
        description="Age-of-information analysis for dual-server "
                    "generate-at-will status update systems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, **policy):
        p.add_argument("--policy", choices=POLICIES, **policy)
        p.add_argument("--mu1", type=float, help="service rate of server 1")
        p.add_argument("--mu2", type=float, help="service rate of server 2")
        p.add_argument("--lambda", dest="freeze_rate", type=float,
                       help="freeze rate (freeze/preempt only)")
        p.add_argument("--k", type=float, help="Erlang order of the freeze time, or inf")

    pa = sub.add_parser("analyze", help="exact distributions and moments")
    add_model_flags(pa, required=True)
    pa.add_argument("--grid-points", type=int, default=2000)
    pa.add_argument("--grid-max", type=float, default=40.0,
                    help="grid end as a multiple of the mean")
    pa.add_argument("--out", help="output directory")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="simulation")
    ps.add_argument("--config", help="JSON run description")
    add_model_flags(ps, help=f"default {ZW}")
    ps.add_argument("--cycles", type=int, help="successful receptions per replication")
    ps.add_argument("--warmup", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--reps", type=int)
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_simulate)

    po = sub.add_parser("optimize", help="freeze-rate optimization")
    po.add_argument("--mu1", type=float, required=True)
    po.add_argument("--mu2", type=float, required=True)
    po.add_argument("--k", type=float, required=True, help="Erlang order, or inf")
    po.add_argument("--bracket-lo", type=float, default=0.05)
    po.add_argument("--bracket-hi", type=float, default=100.0)
    po.add_argument("--rtol", type=float, default=1e-4)
    po.add_argument("--out")
    po.set_defaults(func=cmd_optimize)

    pf = sub.add_parser("figure", help="plot-ready experiment data")
    pf.add_argument("id", choices=FIGURE_IDS,
                    metavar="id", help=f"one of {', '.join(FIGURE_IDS)}")
    pf.add_argument("--cycles", type=int, default=200_000,
                    help="simulated receptions for the cdf figures")
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_figure)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        params, seed, files, report = args.func(args)
        outdir = _out_dir(args.out, args.command)
        for name, write in files.items():
            write(os.path.join(outdir, name))
        _io.write_json(os.path.join(outdir, "manifest.json"), {
            "command": args.command, "argv": argv, "version": __version__,
            "parameters": params, "seed": seed, "outputs": list(files),
            "duration_s": time.time() - started,
            "created_utc": datetime.now(timezone.utc).isoformat()})
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    if report:
        print(report)
    print(f"wrote {outdir}")
    return 0

