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
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, _io
from .fp import FpParams, build_fp_model, preempt_only_params
from .metrics import GridSpec, summarize
from .optimize import optimize_freeze
from .sim import FP, POLICIES, ZW, SimConfig, simulate
from .zw import ZwParams, build_zw_amc, zw_closed_form_means

FIGURE_IDS = ("3a", "3b", "4", "5", "6")

#: Freeze rates swept in the rate-dependence figures.
_RATE_GRID = np.logspace(np.log10(0.05), np.log10(100.0), 30)
#: Slow-server rates swept in the optimization figure.
_MU2_GRID = np.logspace(-2.0, 0.0, 21)


class UsageError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


def _out_dir(args, command: str) -> str:
    if args.out:
        path = args.out
    else:
        root = os.environ.get("AOIDUAL_OUT_ROOT", "out")
        stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
        path = os.path.join(root, f"{command}-{stamp}")
    os.makedirs(path, exist_ok=True)
    return path


def _write_manifest(outdir: str, command: str, params: dict, outputs: list,
                    started: float, seed=None) -> None:
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "version": __version__,
        "parameters": params,
        "seed": seed,
        "outputs": [os.path.basename(p) for p in outputs],
        "duration_s": time.time() - started,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _io.write_json(os.path.join(outdir, "manifest.json"), manifest)


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
    config field. A missing or non-numeric field is a usage error.
    """
    policy = raw.get("policy")
    if policy not in POLICIES:
        raise UsageError(f"{where.format('policy')} must be one of "
                         f"{'/'.join(POLICIES)}")
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


def cmd_analyze(args) -> int:
    started = time.time()
    params = _model_params(_flag_values(args), "--{}")
    chain = build_zw_amc(params) if args.policy == ZW else build_fp_model(params)
    grid = GridSpec(points=args.grid_points, max_mult=args.grid_max)
    summary = summarize(chain, grid)
    outdir = _out_dir(args, "analyze")
    paths = [os.path.join(outdir, name) for name in
             ("summary.json", "aoi_table.csv", "paoi_table.csv")]
    summary.to_json(paths[0])
    summary.aoi_table.to_csv(paths[1])
    summary.paoi_table.to_csv(paths[2])
    fields = {**_flag_values(args), "grid_points": args.grid_points,
              "grid_max": args.grid_max}
    _write_manifest(outdir, "analyze",
                    {k: v for k, v in fields.items() if v is not None},
                    paths, started)
    print(f"mean_aoi={summary.mean_aoi:.12g} mean_paoi={summary.mean_paoi:.12g}")
    print(f"wrote {outdir}")
    return 0


def _sim_config_from_args(args) -> SimConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as err:
            raise UsageError(f"cannot read config: {err}") from err
        if not isinstance(raw, dict):
            raise UsageError("config must be a JSON object")
        where = "config field '{}'"
    else:
        raw = {**_flag_values(args), "cycles": args.cycles,
               "warmup": args.warmup, "seed": args.seed, "reps": args.reps}
        where = "--{}"

    def field(name, default):
        value = raw.get(name, default)
        if value is None and default is None:
            return None
        return _number(value, name, where)

    return SimConfig(_model_params(raw, where), raw["policy"],
                     horizon=field("cycles", 1_000_000),
                     warmup=field("warmup", None),
                     seed=field("seed", 0),
                     replications=field("reps", 2))


def cmd_simulate(args) -> int:
    started = time.time()
    cfg = _sim_config_from_args(args)
    result = simulate(cfg, keep_samples=False)
    outdir = _out_dir(args, "simulate")
    paths = [os.path.join(outdir, name) for name in
             ("result.json", "aoi_ecdf.csv", "paoi_ecdf.csv")]
    result.to_json(paths[0])
    result.write_cdf_csvs(paths[1], paths[2])
    _write_manifest(outdir, "simulate", dict(cfg.describe()), paths,
                    started, seed=cfg.seed)
    print(f"mean_aoi={result.mean_aoi:.12g} +- {result.se_aoi:.3g} (se)")
    print(f"mean_paoi={result.mean_paoi:.12g} +- {result.se_paoi:.3g} (se)")
    print(f"wrote {outdir}")
    return 0


def cmd_optimize(args) -> int:
    started = time.time()
    result = optimize_freeze(args.mu1, args.mu2, args.k,
                             bracket=(args.bracket_lo, args.bracket_hi),
                             rtol=args.rtol)
    outdir = _out_dir(args, "optimize")
    path = os.path.join(outdir, "optimum.json")
    result.to_json(path)
    params = {"mu1": args.mu1, "mu2": args.mu2, "k": args.k,
              "bracket": [args.bracket_lo, args.bracket_hi], "rtol": args.rtol}
    _write_manifest(outdir, "optimize", params, [path], started)
    print(f"lambda_star={result.lambda_star:.12g} f_star={result.f_star:.12g} "
          f"reduction_pct={result.reduction_pct:.12g}")
    if result.boundary_hit:
        print("warning: optimum at bracket boundary", file=sys.stderr)
    print(f"wrote {outdir}")
    return 0


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
        result = simulate(cfg, keep_samples=False)
        xs = result.aoi_cdf_x if kind == "aoi" else result.paoi_cdf_x
        ys = result.aoi_cdf_y if kind == "aoi" else result.paoi_cdf_y
        for x, c in zip(xs, ys):
            rows.append((f"simulated_k{k}", x, c))
    return rows


def _figure_rate_sweep(args, kind: str) -> list:
    """Mean age or peak age versus freeze rate, with zero-wait reference."""
    mu2, k = 0.1, 50
    rows = []
    for mu1 in (0.1, 0.5):
        zw = zw_closed_form_means(ZwParams(mu1, mu2))
        ref = zw.mean_aoi if kind == "aoi" else zw.mean_paoi
        for rate in _RATE_GRID:
            chain = build_fp_model(FpParams(mu1, mu2, rate, k))
            summary_val = _mean_of(chain, kind)
            rows.append((f"fp_mu1_{mu1:g}", rate, summary_val))
        for rate in _RATE_GRID:
            rows.append((f"zw_mu1_{mu1:g}", rate, ref))
        if kind == "aoi":
            opt = optimize_freeze(mu1, mu2, k)
            rows.append((f"lambda_star_mu1_{mu1:g}", opt.lambda_star,
                         opt.aoi_at_star))
    return rows


def _mean_of(chain, kind: str) -> float:
    from .metrics import aoi_mean, paoi_mean

    return aoi_mean(chain) if kind == "aoi" else paoi_mean(chain)


def _figure_optimum_sweep() -> list:
    """Optimal freeze time and reduction versus the slow server's rate."""
    from .metrics import aoi_mean

    rows = []
    for mu2 in _MU2_GRID:
        zw = zw_closed_form_means(ZwParams(1.0, mu2)).mean_aoi
        pre = aoi_mean(build_fp_model(preempt_only_params(1.0, mu2)))
        rows.append(("preempt_only", mu2, 1, float("nan"), float("nan"),
                     pre, zw, 100.0 * (zw - pre) / zw))
        for k in (1, 10, 50):
            opt = optimize_freeze(1.0, mu2, k)
            rows.append((f"fp_k{k}", mu2, k, opt.lambda_star, opt.f_star,
                         opt.aoi_at_star, opt.zw_aoi, opt.reduction_pct))
    return rows


def cmd_figure(args) -> int:
    started = time.time()
    fid = args.id
    outdir = _out_dir(args, "figure")
    path = os.path.join(outdir, f"fig{fid}.csv")
    if fid == "3a":
        header, rows = ["curve", "x", "cdf"], _figure_cdfs(args, "paoi")
    elif fid == "3b":
        header, rows = ["curve", "x", "cdf"], _figure_cdfs(args, "aoi")
    elif fid == "4":
        header = ["curve", "lambda", "mean_paoi"]
        rows = _figure_rate_sweep(args, "paoi")
    elif fid == "5":
        header = ["curve", "lambda", "mean_aoi"]
        rows = _figure_rate_sweep(args, "aoi")
    else:
        header = ["policy", "mu2", "k", "lambda_star", "f_star",
                  "aoi_star", "zw_aoi", "reduction_pct"]
        rows = _figure_optimum_sweep()
    _io.write_csv(path, header, zip(*rows))
    params = {"figure": fid}
    seed = None
    if fid in ("3a", "3b"):
        params.update(cycles=args.cycles, seed=args.seed)
        seed = args.seed
    _write_manifest(outdir, "figure", params, [path], started, seed=seed)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoidual",
        description="Age-of-information analysis for dual-server "
                    "generate-at-will status update systems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, policies):
        p.add_argument("--policy", choices=policies, required=True)
        p.add_argument("--mu1", type=float, help="service rate of server 1")
        p.add_argument("--mu2", type=float, help="service rate of server 2")
        p.add_argument("--lambda", dest="freeze_rate", type=float,
                       help="freeze rate (freeze/preempt only)")
        p.add_argument("--k", type=int, help="Erlang order of the freeze time")

    pa = sub.add_parser("analyze", help="exact distributions and moments")
    add_model_flags(pa, POLICIES)
    pa.add_argument("--grid-points", type=int, default=2000)
    pa.add_argument("--grid-max", type=float, default=40.0,
                    help="grid end as a multiple of the mean")
    pa.add_argument("--out", help="output directory")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="simulation")
    ps.add_argument("--config", help="JSON run description")
    ps.add_argument("--policy", choices=POLICIES, default=ZW)
    ps.add_argument("--mu1", type=float)
    ps.add_argument("--mu2", type=float)
    ps.add_argument("--lambda", dest="freeze_rate", type=float)
    ps.add_argument("--k", type=int)
    ps.add_argument("--cycles", type=int, default=1_000_000,
                    help="successful receptions per replication")
    ps.add_argument("--warmup", type=int, default=None)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--reps", type=int, default=2)
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_simulate)

    po = sub.add_parser("optimize", help="freeze-rate optimization")
    po.add_argument("--mu1", type=float, required=True)
    po.add_argument("--mu2", type=float, required=True)
    po.add_argument("--k", type=int, required=True)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1

