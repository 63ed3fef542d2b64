"""Event-driven simulation of the dual-server status update system.

Simulates the generate-at-will system under the zero-wait and
freeze/preempt policies at the level of individual events (service
completions, freeze expirations), recording the age sawtooth exactly:
per cycle the starting age ``u`` and length ``L`` give the time-average
age contribution ``u L + L^2 / 2`` with no time discretization, and the
pre-reception peaks are recorded per successful reception.

Replications draw from independent counter-based streams (Philox keyed
by seed and replication index), so results are bit-reproducible and
replications could run in any order. Exponential variates are drawn by
inversion and Erlang variates as sums of exponentials, in buffered
blocks to keep the event loop lean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import nan, sqrt
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _io
from .fp import FpParams
from .metrics import DistributionTable
from .zw import ZwParams

ZW = "zw"
FP = "fp"
FP_PREEMPT_ONLY = "fp_preempt_only"
POLICIES = (ZW, FP, FP_PREEMPT_ONLY)

_INF = float("inf")
_BLOCK = 1 << 15


class _ErlangSampler:
    """Buffered Erlang-``k`` variates as sums of ``k`` exponentials."""

    __slots__ = ("rng", "k", "rate", "buf", "pos")

    def __init__(self, rng, k: int, rate: float):
        self.rng = rng
        self.k = k
        self.rate = rate
        self.buf = []
        self.pos = 0

    def __call__(self) -> float:
        if self.pos == len(self.buf):
            rows = max(256, _BLOCK // self.k)
            u = self.rng.random((rows, self.k))
            self.buf = ((-np.log1p(-u)).sum(axis=1) / (self.k * self.rate)).tolist()
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v


@dataclass(frozen=True)
class SimConfig:
    """Simulation run description.

    ``horizon`` counts successful receptions per replication; the first
    ``warmup`` of them (default 1%) are discarded before statistics
    start. The seed and replication index fully determine every random
    draw.
    """

    params: object
    policy: str
    horizon: int = 1_000_000
    warmup: int | None = None
    seed: int = 0
    replications: int = 2

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.policy == ZW:
            if not isinstance(self.params, ZwParams):
                raise ValueError("zw policy requires ZwParams")
        elif self.policy == FP:
            if not isinstance(self.params, FpParams):
                raise ValueError("fp policy requires FpParams")
        elif not isinstance(self.params, (ZwParams, FpParams)):
            raise ValueError("preempt-only policy requires ZwParams or FpParams")
        if int(self.horizon) != self.horizon or self.horizon < 1000:
            raise ValueError("horizon must be an integer of at least 1000")
        object.__setattr__(self, "horizon", int(self.horizon))
        warmup = self.warmup
        if warmup is None:
            warmup = self.horizon // 100
        if int(warmup) != warmup or warmup < 0:
            raise ValueError("warmup must be a nonnegative integer")
        warmup = int(warmup)
        if warmup >= self.horizon - 1:
            raise ValueError("warmup must leave at least one measured cycle")
        object.__setattr__(self, "warmup", warmup)
        if int(self.replications) != self.replications or self.replications < 1:
            raise ValueError("replications must be a positive integer")
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "seed", int(self.seed))

    def describe(self) -> dict:
        out = {"policy": self.policy, "horizon": self.horizon,
               "warmup": self.warmup, "seed": self.seed,
               "replications": self.replications,
               "mu1": self.params.mu1, "mu2": self.params.mu2}
        if self.policy == FP:
            out["freeze_rate"] = self.params.freeze_rate
            out["k"] = self.params.k
        return out


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Pooled per-cycle records: starting age, cycle length, peak age."""

    u: np.ndarray
    length: np.ndarray
    peak: np.ndarray


@dataclass(frozen=True, eq=False)
class SimResult:
    """Replication-aggregated simulation output.

    Point estimates are unweighted means of the per-replication means;
    standard errors are computed across replications and are NaN for a
    single replication. The stored cdfs are downsampled to
    ``CDF_POINTS`` quantile-spaced points; exact per-cycle samples are
    kept in ``samples`` when requested.
    """

    mean_aoi: float
    mean_paoi: float
    se_aoi: float
    se_paoi: float
    rep_mean_aoi: np.ndarray
    rep_mean_paoi: np.ndarray
    aoi_cdf_x: np.ndarray
    aoi_cdf_y: np.ndarray
    paoi_cdf_x: np.ndarray
    paoi_cdf_y: np.ndarray
    cycle_count: int
    seed: int
    config: Mapping
    stats: Mapping
    samples: SampleSet | None = None

    def __post_init__(self):
        object.__setattr__(self, "config", MappingProxyType(dict(self.config)))
        object.__setattr__(self, "stats", MappingProxyType(dict(self.stats)))

    def payload(self) -> dict:
        return {
            "mean_aoi": self.mean_aoi, "mean_paoi": self.mean_paoi,
            "se_aoi": self.se_aoi, "se_paoi": self.se_paoi,
            "rep_mean_aoi": self.rep_mean_aoi,
            "rep_mean_paoi": self.rep_mean_paoi,
            "aoi_cdf_x": self.aoi_cdf_x, "aoi_cdf_y": self.aoi_cdf_y,
            "paoi_cdf_x": self.paoi_cdf_x, "paoi_cdf_y": self.paoi_cdf_y,
            "cycle_count": self.cycle_count, "seed": self.seed,
            "config": dict(self.config), "stats": dict(self.stats),
        }

    def to_json(self, path) -> None:
        _io.write_json(path, self.payload())

    def write_cdf_csvs(self, aoi_path, paoi_path) -> None:
        _io.write_csv(aoi_path, ["x", "cdf"],
                      zip(self.aoi_cdf_x, self.aoi_cdf_y))
        _io.write_csv(paoi_path, ["x", "cdf"],
                      zip(self.paoi_cdf_x, self.paoi_cdf_y))


#: Number of quantile points kept in serialized empirical cdfs.
CDF_POINTS = 2048


def _rep_rng(seed: int, rep: int):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.Philox(seq))


def _run_zw(mu1, mu2, horizon, warmup, rng):
    e1 = _ErlangSampler(rng, 1, mu1)
    e2 = _ErlangSampler(rng, 1, mu2)
    n_cycles = horizon - warmup - 1
    u_arr = np.empty(n_cycles)
    len_arr = np.empty(n_cycles)
    peak_arr = np.empty(n_cycles)
    # both servers start fresh packets at t = 0
    seq = 2
    g1 = g2 = 0.0
    s1, s2 = 1, 2
    c1 = e1()
    c2 = e2()
    last_seq = 0
    last_gen = 0.0
    accepted = 0
    discards = 0
    ci = 0
    prev_d = prev_u = 0.0
    while accepted < horizon:
        if c1 <= c2:
            t = c1
            g, s = g1, s1
            seq += 1
            g1, s1 = t, seq
            c1 = t + e1()
        else:
            t = c2
            g, s = g2, s2
            seq += 1
            g2, s2 = t, seq
            c2 = t + e2()
        if s > last_seq:
            accepted += 1
            if accepted > warmup + 1:
                u_arr[ci] = prev_u
                len_arr[ci] = t - prev_d
                peak_arr[ci] = t - last_gen
                ci += 1
            prev_d = t
            prev_u = t - g
            last_seq = s
            last_gen = g
        else:
            discards += 1
    stats = {"monitor_discards": discards, "preemptions": 0,
             "out_of_order_deliveries": 0, "entry_counts": (0, 0, 0),
             "elapsed": prev_d}
    return u_arr, len_arr, peak_arr, stats


def _run_fp(mu1, mu2, freeze_rate, k, horizon, warmup, rng, freezing):
    e1 = _ErlangSampler(rng, 1, mu1)
    e2 = _ErlangSampler(rng, 1, mu2)
    erl = _ErlangSampler(rng, k, freeze_rate) if freezing else None
    n_cycles = horizon - warmup - 1
    u_arr = np.empty(n_cycles)
    len_arr = np.empty(n_cycles)
    peak_arr = np.empty(n_cycles)
    # bootstrap: fresh packet on server 1 at t = 0; without freezing the
    # idle server 2 is filled immediately as well
    seq = 1
    g1, s1 = 0.0, 1
    c1 = e1()
    c2 = _INF
    g2, s2 = 0.0, 0
    ent1, ent2, ent3 = 1, 0, 0
    if freezing:
        fz = erl()
    else:
        fz = _INF
        seq += 1
        g2, s2 = 0.0, seq
        c2 = e2()
        ent2 += 1
    last_seq = 0
    last_gen = 0.0
    accepted = 0
    preempts = 0
    out_of_order = 0
    ci = 0
    prev_d = prev_u = 0.0
    while accepted < horizon:
        if c1 <= c2:
            cmin, which = c1, 1
        else:
            cmin, which = c2, 2
        if fz < cmin:
            # freeze expired; a free server gets a fresh packet and a new
            # freeze starts (server 1 preferred)
            t = fz
            fz = _INF
            if c1 == _INF:
                seq += 1
                g1, s1 = t, seq
                c1 = t + e1()
                fz = t + erl()
                if c2 == _INF:
                    ent1 += 1
                else:
                    ent3 += 1
            elif c2 == _INF:
                seq += 1
                g2, s2 = t, seq
                c2 = t + e2()
                fz = t + erl()
                ent2 += 1
            continue
        t = cmin
        if which == 1:
            g, s = g1, s1
            c1 = _INF
        else:
            g, s = g2, s2
            c2 = _INF
        if s <= last_seq:
            # cannot happen: stale packets are preempted before completing
            out_of_order += 1
        else:
            accepted += 1
            if accepted > warmup + 1:
                u_arr[ci] = prev_u
                len_arr[ci] = t - prev_d
                peak_arr[ci] = t - last_gen
                ci += 1
            prev_d = t
            prev_u = t - g
            last_seq = s
            last_gen = g
            # the delivery may have made the other in-service packet obsolete
            if which == 1:
                if c2 != _INF and s2 < last_seq:
                    c2 = _INF
                    preempts += 1
            elif c1 != _INF and s1 < last_seq:
                c1 = _INF
                preempts += 1
        if fz == _INF:
            # not frozen: transmit immediately on a free server
            if freezing:
                if c1 == _INF:
                    seq += 1
                    g1, s1 = t, seq
                    c1 = t + e1()
                    fz = t + erl()
                    if c2 == _INF:
                        ent1 += 1
                    else:
                        ent3 += 1
                elif c2 == _INF:
                    seq += 1
                    g2, s2 = t, seq
                    c2 = t + e2()
                    fz = t + erl()
                    ent2 += 1
            else:
                # preemption-only: zero-length freezes fill every free
                # server, fastest first
                if c1 == _INF:
                    seq += 1
                    g1, s1 = t, seq
                    c1 = t + e1()
                    if c2 == _INF:
                        ent1 += 1
                    else:
                        ent3 += 1
                if c2 == _INF:
                    seq += 1
                    g2, s2 = t, seq
                    c2 = t + e2()
                    ent2 += 1
    stats = {"monitor_discards": 0, "preemptions": preempts,
             "out_of_order_deliveries": out_of_order,
             "entry_counts": (ent1, ent2, ent3), "elapsed": prev_d}
    return u_arr, len_arr, peak_arr, stats


def empirical_aoi_cdf(u, length, xs) -> np.ndarray:
    """Fraction of time the age sawtooth stays at or below each ``x``.

    Uses the exact piecewise-linear cycle geometry: a cycle starting at
    age ``u`` with length ``L`` spends ``clip(x - u, 0, L)`` time units
    at or below ``x``.
    """
    u = np.asarray(u, dtype=float)
    length = np.asarray(length, dtype=float)
    xs = np.asarray(xs, dtype=float)
    peaks = u + length
    total = length.sum()
    us = np.sort(u)
    ps = np.sort(peaks)
    cum_u = np.concatenate(([0.0], np.cumsum(us)))
    cum_p = np.concatenate(([0.0], np.cumsum(ps)))
    below_u = np.searchsorted(us, xs, side="right")
    below_p = np.searchsorted(ps, xs, side="right")
    covered = xs * below_u - cum_u[below_u] - (xs * below_p - cum_p[below_p])
    return covered / total


def empirical_paoi_cdf(peaks_sorted, xs) -> np.ndarray:
    """Empirical cdf of the recorded peaks at each ``x``."""
    peaks_sorted = np.asarray(peaks_sorted, dtype=float)
    xs = np.asarray(xs, dtype=float)
    return np.searchsorted(peaks_sorted, xs, side="right") / peaks_sorted.shape[0]


def simulate(cfg: SimConfig, keep_samples: bool = True) -> SimResult:
    """Run all replications and aggregate.

    Identical configurations produce bit-identical results. With
    ``keep_samples`` the pooled per-cycle records stay attached for
    exact distribution comparisons.
    """
    rep_aoi = np.empty(cfg.replications)
    rep_paoi = np.empty(cfg.replications)
    all_u, all_len, all_peak = [], [], []
    totals: dict = {"monitor_discards": 0, "preemptions": 0,
                    "out_of_order_deliveries": 0, "entry_counts": (0, 0, 0),
                    "elapsed": 0.0}
    per_rep: dict = {"entry_counts": [], "elapsed": []}
    p = cfg.params
    for rep in range(cfg.replications):
        rng = _rep_rng(cfg.seed, rep)
        if cfg.policy == ZW:
            u, length, peak, stats = _run_zw(
                p.mu1, p.mu2, cfg.horizon, cfg.warmup, rng)
        else:
            freezing = cfg.policy == FP
            freeze_rate = p.freeze_rate if freezing else 1.0
            k = p.k if freezing else 1
            u, length, peak, stats = _run_fp(
                p.mu1, p.mu2, freeze_rate, k, cfg.horizon, cfg.warmup,
                rng, freezing)
        rep_aoi[rep] = (u * length + 0.5 * length * length).sum() / length.sum()
        rep_paoi[rep] = peak.mean()
        all_u.append(u)
        all_len.append(length)
        all_peak.append(peak)
        for key in ("monitor_discards", "preemptions", "out_of_order_deliveries",
                    "elapsed"):
            totals[key] += stats[key]
        totals["entry_counts"] = tuple(
            a + b for a, b in zip(totals["entry_counts"], stats["entry_counts"]))
        per_rep["entry_counts"].append(stats["entry_counts"])
        per_rep["elapsed"].append(stats["elapsed"])

    u = np.concatenate(all_u)
    length = np.concatenate(all_len)
    peak = np.concatenate(all_peak)
    if cfg.replications >= 2:
        se_aoi = float(rep_aoi.std(ddof=1) / sqrt(cfg.replications))
        se_paoi = float(rep_paoi.std(ddof=1) / sqrt(cfg.replications))
    else:
        se_aoi = se_paoi = nan

    peak_sorted = np.sort(peak)
    paoi_x = _quantile_grid(peak_sorted)
    paoi_y = empirical_paoi_cdf(peak_sorted, paoi_x)
    breaks = np.sort(np.concatenate([u, u + length]))
    aoi_x = _quantile_grid(breaks)
    aoi_y = empirical_aoi_cdf(u, length, aoi_x)

    totals["per_rep"] = per_rep
    samples = SampleSet(u, length, peak) if keep_samples else None
    return SimResult(
        mean_aoi=float(rep_aoi.mean()), mean_paoi=float(rep_paoi.mean()),
        se_aoi=se_aoi, se_paoi=se_paoi,
        rep_mean_aoi=rep_aoi, rep_mean_paoi=rep_paoi,
        aoi_cdf_x=aoi_x, aoi_cdf_y=aoi_y,
        paoi_cdf_x=paoi_x, paoi_cdf_y=paoi_y,
        cycle_count=int(u.shape[0]), seed=cfg.seed,
        config=cfg.describe(), stats=totals, samples=samples)


def _quantile_grid(sorted_values: np.ndarray) -> np.ndarray:
    n = sorted_values.shape[0]
    if n <= CDF_POINTS:
        return np.unique(sorted_values)
    idx = np.linspace(0, n - 1, CDF_POINTS).round().astype(int)
    return np.unique(sorted_values[idx])


def _interp_cdf(table: DistributionTable, xs: np.ndarray) -> np.ndarray:
    return np.interp(xs, table.grid, table.cdf,
                     left=0.0, right=float(table.cdf[-1]))


def ks_distance(x1, cdf1, x2, cdf2) -> float:
    """Sup distance between two tabulated cdfs on their merged grid."""
    xs = np.union1d(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    f1 = np.interp(xs, x1, cdf1, left=0.0, right=float(np.asarray(cdf1)[-1]))
    f2 = np.interp(xs, x2, cdf2, left=0.0, right=float(np.asarray(cdf2)[-1]))
    return float(np.max(np.abs(f1 - f2)))


def ks_against_table(result: SimResult, table: DistributionTable,
                     kind: str | None = None) -> float:
    """Exact sup distance between a simulated and an analytic cdf.

    For peaks, the empirical cdf is a step function and both sides of
    every jump are compared; for the age, the empirical time-fraction
    cdf is piecewise linear and both curves are compared on the union of
    their breakpoints. The analytic cdf is interpolated from its table.
    """
    if kind is None:
        kind = table.meta.get("kind")
    if kind not in ("aoi", "paoi"):
        raise ValueError("distribution kind must be 'aoi' or 'paoi'")
    if result.samples is None:
        raise ValueError("result carries no samples; rerun with keep_samples")
    if kind == "paoi":
        peaks = np.sort(result.samples.peak)
        n = peaks.shape[0]
        fa = _interp_cdf(table, peaks)
        hi = np.arange(1, n + 1) / n
        lo = np.arange(0, n) / n
        d_jump = max(float(np.max(hi - fa)), float(np.max(fa - lo)))
        fa_grid = _interp_cdf(table, table.grid)
        fe_grid = empirical_paoi_cdf(peaks, table.grid)
        d_grid = float(np.max(np.abs(fa_grid - fe_grid)))
        return max(d_jump, d_grid)
    u = result.samples.u
    length = result.samples.length
    xs = np.union1d(np.concatenate([u, u + length]), table.grid)
    fe = empirical_aoi_cdf(u, length, xs)
    fa = _interp_cdf(table, xs)
    return float(np.max(np.abs(fe - fa)))


def empirical_vs_analytic(cfg: SimConfig, table: DistributionTable,
                          kind: str | None = None) -> float:
    """Simulate ``cfg`` and measure the sup distance to an analytic cdf.

    When the table's metadata carries parameters they are checked
    against the configuration; mismatches are reported as warnings
    (the distance is still computed, and will be large).
    """
    meta = dict(table.meta)
    cfg_desc = cfg.describe()
    for key in ("mu1", "mu2", "freeze_rate", "k", "policy"):
        if key in meta and key in cfg_desc:
            a, b = meta[key], cfg_desc[key]
            same = a == b if key == "policy" else abs(a - b) <= 1e-12 * max(1.0, abs(a))
            if not same:
                warnings.warn(
                    f"configured {key}={cfg_desc[key]} does not match "
                    f"analytic table ({meta[key]})", stacklevel=2)
    result = simulate(cfg, keep_samples=True)
    return ks_against_table(result, table, kind)
