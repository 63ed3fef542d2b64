"""Simulation of the dual-server status update system.

Simulates the generate-at-will system under its three policies and
records the age sawtooth exactly: per cycle the starting age ``u`` and
length ``L`` give the time-average age contribution ``u L + L^2 / 2``
with no time discretization, and the pre-reception peaks are recorded
per fresh reception.

Under zero wait and preemption-only both servers are always busy, so by
memorylessness their completions merge into one Poisson stream of rate
``mu1 + mu2`` whose events belong to server 1 with probability
``mu1 / (mu1 + mu2)``, restarts included. These two policies are array
code over that stream: a delivered packet was generated at its server's
latest earlier restart, the monitor's discard rule is a running maximum,
and preemptions follow from which server holds the fresher packet.

Freeze/preempt is array code over the chain embedded at freeze starts.
Each freeze starts with one packet assignment, in one of three entry
states. A cycle draws its freeze length and both servers' service times
(by memorylessness, the older packet's residual service is drawn
afresh), and these map its entry state to the next one. The state
sequence is a prefix scan over the composition of those maps (Blelloch
1990); each cycle's deliveries, preemption and length then follow
elementwise. An infinite freeze rate is simulated as preemption-only.

Replications draw from independent counter-based streams (Philox keyed
by seed and replication index), so results are bit-reproducible and
replications could run in any order. The merged stream draws its gaps
and marks in blocks of ``horizon`` events, freeze/preempt its gamma freezes
(none at ``k = inf``) and exponential services in fixed blocks of cycles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import product
from math import inf, nan, sqrt
from operator import add
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _io
from .fp import FpParams, preempt_only_params
from .metrics import DistributionTable
from .phasetype import _whole
from .zw import ZwParams

ZW = "zw"
FP = "fp"
FP_PREEMPT_ONLY = "fp_preempt_only"
POLICIES = (ZW, FP, FP_PREEMPT_ONLY)
#: Parameter types each policy accepts.
_PARAM_TYPES = {ZW: (ZwParams,), FP: (FpParams,), FP_PREEMPT_ONLY: (ZwParams, FpParams)}

@dataclass(frozen=True)
class SimConfig:
    """Simulation run description.

    ``fp_preempt_only``, and ``fp`` with an infinite freeze rate,
    normalize the parameters to ``preempt_only_params(mu1, mu2)``; then
    ``policy`` is set to ``params.policy``. ``horizon`` counts successful
    receptions per replication; the first ``warmup`` of them (default 1%)
    are discarded before statistics start. The seed and replication index
    fully determine every random draw.
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
        if not isinstance(self.params, _PARAM_TYPES[self.policy]):
            raise ValueError(f"{self.policy} policy does not take {type(self.params).__name__}")
        p = self.params
        if FP_PREEMPT_ONLY in (self.policy, p.policy):
            object.__setattr__(self, "params", preempt_only_params(p.mu1, p.mu2))
        object.__setattr__(self, "policy", self.params.policy)
        horizon = _whole(self.horizon, "horizon", low=1000)
        warmup = horizon // 100 if self.warmup is None else _whole(self.warmup, "warmup", low=0)
        if warmup >= horizon - 1:
            raise ValueError("warmup must leave at least one measured cycle")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "warmup", warmup)
        object.__setattr__(self, "replications", _whole(self.replications, "replications"))
        object.__setattr__(self, "seed", _whole(self.seed, "seed", low=0))

    def describe(self) -> dict:
        """The model fields of ``params.meta()`` and the run fields."""
        out = {k: v for k, v in self.params.meta().items() if k != "swapped"}
        return {**out, "horizon": self.horizon, "warmup": self.warmup,
                "seed": self.seed, "replications": self.replications}


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
    single replication. The pooled per-cycle records are kept in
    ``samples`` when requested (not in JSON); :meth:`ecdf` computes an
    empirical cdf from them on demand and :meth:`cdf_to_csv` writes it.
    """

    mean_aoi: float
    mean_paoi: float
    se_aoi: float
    se_paoi: float
    rep_mean_aoi: np.ndarray
    rep_mean_paoi: np.ndarray
    cycle_count: int
    config: Mapping
    stats: Mapping
    samples: SampleSet | None = field(default=None, metadata=_io.NOT_JSON)

    def __post_init__(self):
        object.__setattr__(self, "config", MappingProxyType(dict(self.config)))
        object.__setattr__(self, "stats", MappingProxyType(dict(self.stats)))

    def to_json(self, path) -> None:
        _io.write_json(path, self)

    def ecdf(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Empirical cdf ``(x, cdf)`` of ``kind`` at ``CDF_POINTS`` quantiles."""
        s = _samples(self, kind)
        if kind == "paoi":
            peaks = np.sort(s.peak)
            x = _quantile_grid(peaks)
            return x, empirical_paoi_cdf(peaks, x)
        x = _quantile_grid(np.sort(np.concatenate([s.u, s.u + s.length])))
        return x, empirical_aoi_cdf(s.u, s.length, x)

    def cdf_to_csv(self, kind: str, path) -> None:
        """Write the empirical cdf of ``kind``, ``"aoi"`` or ``"paoi"``."""
        _io.write_csv(path, ["x", "cdf"], self.ecdf(kind))


def _samples(result: SimResult, kind) -> SampleSet:
    """The samples of ``result``, checking that they and ``kind`` exist."""
    if kind not in ("aoi", "paoi"):
        raise ValueError("distribution kind must be 'aoi' or 'paoi'")
    if result.samples is None:
        raise ValueError("result carries no samples; rerun with keep_samples")
    return result.samples


#: Number of quantile points kept in serialized empirical cdfs.
CDF_POINTS = 2048


def _rep_rng(seed: int, rep: int):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.Philox(seq))


def _block(rng, mu1, mu2, n):
    """``n`` completions of both servers merged: gaps and server-1 marks."""
    total = mu1 + mu2
    return rng.standard_exponential(n) / total, rng.random(n) < mu1 / total


def _latest(flags):
    """Index of the latest earlier event where ``flags`` holds, -1 if none."""
    idx = np.where(flags, np.arange(flags.shape[0]), -1)
    return np.concatenate(([-1], np.maximum.accumulate(idx)[:-1]))


def _started(t, m1, restart1, restart2):
    """Restart index (-1: t = 0) and generation time of each delivery."""
    start = np.where(m1, _latest(restart1), _latest(restart2))
    return start, np.concatenate(([0.0], t))[start + 1]


def _run_zw(mu1, mu2, horizon, rng):
    gaps, marks = [], []
    while True:
        gap, mark = _block(rng, mu1, mu2, horizon)
        gaps.append(gap)
        marks.append(mark)
        m1 = np.concatenate(marks)
        t = np.cumsum(np.concatenate(gaps))
        start, gen = _started(t, m1, m1, ~m1)
        # sequence order: by restart event, and server 2's t = 0 packet is
        # the fresher; a reception is fresh when it beats every earlier one
        seq = 2 * start + ~m1
        fresh = np.flatnonzero(seq == np.maximum.accumulate(seq))
        if fresh.shape[0] >= horizon:
            break
    fresh = fresh[:horizon]
    stats = {"monitor_discards": int(fresh[-1]) + 1 - horizon, "preemptions": 0,
             "elapsed": float(t[fresh[-1]])}
    return t[fresh], gen[fresh], stats


def _run_po(mu1, mu2, horizon, rng):
    gaps, m1 = _block(rng, mu1, mu2, horizon)
    t = np.cumsum(gaps)
    # Every delivery is fresh. Server 2 leads (holds the fresher packet) at
    # t = 0 and after each of its deliveries and each preemption (both
    # restart, server 2 second); r server-1 deliveries since then leave
    # server 1 leading exactly when r is odd. The leader's delivery
    # preempts the other server.
    run = np.arange(horizon) - _latest(~m1) - 1
    preempt = m1 == (run % 2 == 1)
    _, gen = _started(t, m1, m1 | preempt, ~m1 | preempt)
    n_pre = int(np.count_nonzero(preempt))
    # server 2 restarts at t = 0 and at every event but a lone server-1 restart
    alone1 = int(np.count_nonzero(m1 & ~preempt))
    stats = {"monitor_discards": 0, "preemptions": n_pre,
             "entry_counts": (1 + n_pre, 1 + horizon - alone1, alone1),
             "elapsed": float(t[-1])}
    return t, gen, stats


# Entry states of a freeze cycle: A, the new packet on server 1 with
# server 2 idle; B, the new packet on server 2 with server 1 busy; C, the
# new packet on server 1 with server 2 busy. A map {A,B,C} -> {A,B,C} is
# coded f(A) * 9 + f(B) * 3 + f(C); _MAPS[code] = (f(A), f(B), f(C)).
_MAPS = np.array(list(product(range(3), repeat=3)))
_COMPOSE = (_MAPS[np.arange(27)[:, None, None], _MAPS[None]] @ [9, 3, 1]).ravel()
_FP_CYCLES = 1 << 16  # freeze cycles drawn per block


def _resolve(codes, s0):
    """States ``s_0..s_n`` of ``s_{i+1} = f_i(s_i)`` for map codes ``f_i``.

    A prefix scan: compose neighbouring maps, resolve the even states
    recursively, then each odd state is one lookup from its predecessor.
    """
    s = np.empty(codes.shape[0] + 1, dtype=np.intp)
    s[0] = s0
    if codes.shape[0]:
        s[2::2] = _resolve(_COMPOSE[27 * codes[1::2] + codes[:-1:2]], s0)[1:]
        s[1::2] = _MAPS.ravel()[3 * codes[::2] + s[:-1:2]]
    return s


def _fp_block(rng, p):
    """Freeze length (1/freeze_rate at k = inf) and both service times of each next cycle."""
    f = (np.full(_FP_CYCLES, 1.0 / p.freeze_rate) if p.k == inf
         else rng.standard_gamma(p.k, _FP_CYCLES) / (p.k * p.freeze_rate))
    return (f, rng.standard_exponential(_FP_CYCLES) / p.mu1,
            rng.standard_exponential(_FP_CYCLES) / p.mu2)


def _run_fp(p, horizon, rng):
    # The chain embedded at freeze starts. Each cycle draws a freeze and a
    # service time per server; by memorylessness the older packet's
    # residual service is drawn afresh. A new packet finishing before the
    # older one preempts it; the cycle ends at the freeze's end or, if
    # later, at the first completion, when the freed server is refilled.
    state, t, t_prev = 0, 0.0, 0.0
    got = preempts = 0
    entry = np.zeros(3, dtype=np.int64)
    delivered, generated = [], []
    while got < horizon:
        f, x1, x2 = _fp_block(rng, p)
        first1 = x1 <= x2  # ties go to server 1
        in1, in2 = x1 <= f, x2 <= f  # completions at the freeze's end win
        # A -> B unless the new packet finishes within the freeze; B -> C
        # and C -> B unless it finishes first or within the freeze; else A
        codes = 9 * ~in1 + 6 * (first1 & ~in2) + (~first1 & ~in1)
        s = _resolve(codes, state)
        s, state = s[:-1], s[-1]
        a, b = s == 0, s == 1
        new, old = np.where(b, x2, x1), np.where(b, x1, x2)
        new_first = b != first1
        pre = new_first & ~a
        # per cycle: the old packet's delivery, then the new one's
        ok = np.stack([~a & ~new_first, pre | np.where(b, in2, in1)], axis=1)
        keep = np.flatnonzero(ok)[:horizon - got]
        cycle, newer = keep >> 1, keep & 1
        length = np.where(a, f, np.maximum(f, np.minimum(new, old)))
        # T_{i-1} and T_i for cycle i at [i] and [i + 1]
        times = np.concatenate(([t_prev], np.cumsum(np.concatenate(([t], length)))))
        t_prev, t = times[-2], times[-1]
        delivered.append(times[cycle + 1] + np.where(newer, new[cycle], old[cycle]))
        generated.append(times[cycle + newer])
        got += keep.shape[0]
        # cycles up to the one that holds the last wanted reception
        used = cycle[-1] + 1 if got == horizon else s.shape[0]
        entry += np.bincount(s[:used], minlength=3)
        preempts += int(np.count_nonzero(pre[:used]))
    d = np.concatenate(delivered)
    stats = {"monitor_discards": 0, "preemptions": preempts,
             "entry_counts": tuple(entry.tolist()), "elapsed": float(d[-1])}
    return d, np.concatenate(generated), stats


def _cycles(delivered, generated, warmup):
    """Per-cycle records after ``warmup`` fresh receptions.

    A cycle runs between consecutive fresh receptions: it starts at the
    age of the first and peaks just before the second.
    """
    d = delivered[warmup:]
    g = generated[warmup:]
    return d[:-1] - g[:-1], np.diff(d), d[1:] - g[:-1]


def empirical_aoi_cdf(u, length, xs) -> np.ndarray:
    """Fraction of time the age sawtooth stays at or below each ``x``.

    Uses the exact piecewise-linear cycle geometry: a cycle starting at
    age ``u`` with length ``L`` spends ``clip(x - u, 0, L)`` time units
    at or below ``x``. Lengths must be nonnegative.
    """
    u = np.asarray(u, dtype=float)
    length = np.asarray(length, dtype=float)
    if np.any(length < 0):
        raise ValueError("cycle lengths must be nonnegative")
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
    """Empirical cdf of the recorded peaks, sorted ascending, at each ``x``."""
    peaks_sorted = np.asarray(peaks_sorted, dtype=float)
    if np.any(peaks_sorted[1:] < peaks_sorted[:-1]):
        raise ValueError("peaks_sorted must be sorted ascending")
    xs = np.asarray(xs, dtype=float)
    return np.searchsorted(peaks_sorted, xs, side="right") / peaks_sorted.shape[0]


def simulate(cfg: SimConfig, keep_samples: bool = True) -> SimResult:
    """Run all replications and aggregate.

    Identical configurations produce bit-identical results. With
    ``keep_samples`` the pooled per-cycle records stay attached for
    empirical cdfs and exact distribution comparisons; without them the
    result holds the means, standard errors and counters only.
    """
    rep_aoi = np.empty(cfg.replications)
    rep_paoi = np.empty(cfg.replications)
    all_u, all_len, all_peak = [], [], []
    totals: dict = {}
    per_rep: dict = {}
    p = cfg.params
    for rep in range(cfg.replications):
        rng = _rep_rng(cfg.seed, rep)
        if cfg.policy == FP:
            d, g, stats = _run_fp(p, cfg.horizon, rng)
        else:  # both servers always busy: the merged completion stream
            run = _run_zw if cfg.policy == ZW else _run_po
            d, g, stats = run(p.mu1, p.mu2, cfg.horizon, rng)
        u, length, peak = _cycles(d, g, cfg.warmup)
        rep_aoi[rep] = (u * length + 0.5 * length * length).sum() / length.sum()
        rep_paoi[rep] = peak.mean()
        all_u.append(u)
        all_len.append(length)
        all_peak.append(peak)
        for key, value in stats.items():  # only the counters this runner reports
            if key in ("entry_counts", "elapsed"):
                per_rep.setdefault(key, []).append(value)
            if key in totals:
                value = (tuple(map(add, totals[key], value)) if key == "entry_counts"
                         else totals[key] + value)
            totals[key] = value

    u = np.concatenate(all_u)
    length = np.concatenate(all_len)
    peak = np.concatenate(all_peak)
    if cfg.replications >= 2:
        se_aoi = float(rep_aoi.std(ddof=1) / sqrt(cfg.replications))
        se_paoi = float(rep_paoi.std(ddof=1) / sqrt(cfg.replications))
    else:
        se_aoi = se_paoi = nan

    totals["per_rep"] = per_rep
    samples = SampleSet(u, length, peak) if keep_samples else None
    return SimResult(
        mean_aoi=float(rep_aoi.mean()), mean_paoi=float(rep_paoi.mean()),
        se_aoi=se_aoi, se_paoi=se_paoi,
        rep_mean_aoi=rep_aoi, rep_mean_paoi=rep_paoi,
        cycle_count=int(u.shape[0]), config=cfg.describe(), stats=totals,
        samples=samples)


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


def ks_against_table(result: SimResult, table: DistributionTable) -> float:
    """Exact sup distance between a simulated and an analytic cdf.

    For peaks, the empirical cdf is a step function and both sides of
    every jump are compared; for the age, the empirical time-fraction
    cdf is piecewise linear and both curves are compared on the union of
    their breakpoints. The analytic cdf is interpolated from its table.
    """
    kind = table.meta.get("kind")
    s = _samples(result, kind)
    if kind == "paoi":
        peaks = np.sort(s.peak)
        n = peaks.shape[0]
        fa = _interp_cdf(table, peaks)
        hi = np.arange(1, n + 1) / n
        lo = np.arange(0, n) / n
        d_jump = max(float(np.max(hi - fa)), float(np.max(fa - lo)))
        fa_grid = _interp_cdf(table, table.grid)
        fe_grid = empirical_paoi_cdf(peaks, table.grid)
        d_grid = float(np.max(np.abs(fa_grid - fe_grid)))
        return max(d_jump, d_grid)
    xs = np.union1d(np.concatenate([s.u, s.u + s.length]), table.grid)
    fe = empirical_aoi_cdf(s.u, s.length, xs)
    fa = _interp_cdf(table, xs)
    return float(np.max(np.abs(fe - fa)))


def empirical_vs_analytic(cfg: SimConfig, table: DistributionTable) -> float:
    """Simulate ``cfg`` and measure the sup distance to an analytic cdf.

    Every field of ``cfg.describe()`` that the table's metadata also
    carries is checked against it, numbers to a relative 1e-12;
    mismatches are reported as warnings (the distance is still computed,
    and will be large).
    """
    meta = table.meta
    for key, b in cfg.describe().items():
        a = meta.get(key, b)
        if a != b and (str in (type(a), type(b)) or abs(a - b) > 1e-12 * max(1.0, abs(a))):
            warnings.warn(f"configured {key}={b} does not match analytic table ({a})",
                          stacklevel=2)
    result = simulate(cfg, keep_samples=True)
    return ks_against_table(result, table)
