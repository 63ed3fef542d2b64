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
code over that stream, walked in chunks that carry its last two events:
a packet started one or two events before its delivery, a zero-wait one
is stale exactly when both events before it are the other server's, and
preemptions follow from which server holds the fresher packet.

Freeze/preempt is array code over the chain embedded at freeze starts.
Each freeze starts with one packet assignment, in one of three entry
states. A cycle draws its freeze length and both servers' service times
(by memorylessness, the older packet's residual service is drawn
afresh), and these map its entry state to the next one. The state
sequence is a prefix scan over the composition of those maps (Blelloch
1990); each cycle's deliveries, preemption and length then follow
elementwise. An infinite freeze rate is simulated as preemption-only.

Replications draw from independent PCG64DXSM streams keyed by seed and
replication index, so results are bit-reproducible and replications
could run in any order. Draws come in fixed-size blocks, so a shorter run
is a prefix of a longer one: per ``_CHUNK`` events the merged stream's gaps,
then marks; per ``_FP_CYCLES`` cycles, into reused buffers, the gamma
freezes (none at ``k = inf``), then each server's services. One checked sort
of a sample set's starts and ends, with their prefix sums, serves both cdfs
and both KS distances; these evaluate a coarse subset of the breakpoints,
and the rest only in gaps whose bound comes near the coarse maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import inf, isqrt, nan, sqrt
from operator import add
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _io
from .fp import FpParams, preempt_only_params
from .metrics import DistributionTable
from .phasetype import _array, _whole
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
    """Pooled per-cycle records: starting age, cycle length, peak age, sorted once on first use."""

    u: np.ndarray
    length: np.ndarray
    peak: np.ndarray

    @cached_property
    def _sorted(self):
        return _sorted_cycles(self.u, self.length)


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
        view = _samples(self, kind)
        us, ps, *_ = view
        if kind == "paoi":
            x = _quantile_grid(ps)
            return x, np.searchsorted(ps, x, side="right") / ps.shape[0]
        # a stable sort of two sorted runs is one merge (timsort)
        x = _quantile_grid(np.sort(np.concatenate((us, ps)), kind="stable"))
        return x, _time_below(view, x)

    def cdf_to_csv(self, kind: str, path) -> None:
        """Write the empirical cdf of ``kind``, ``"aoi"`` or ``"paoi"``."""
        _io.write_csv(path, ["x", "cdf"], self.ecdf(kind))


def _samples(result: SimResult, kind):
    """The sorted samples of ``result``, checking that they and ``kind`` exist."""
    if kind not in ("aoi", "paoi"):
        raise ValueError("distribution kind must be 'aoi' or 'paoi'")
    if result.samples is None:
        raise ValueError("result carries no samples; rerun with keep_samples")
    return result.samples._sorted


#: Number of quantile points kept in serialized empirical cdfs.
CDF_POINTS = 2048
_STRIDE = 256  # sorted samples per coarse gap of the age KS distance


def _rep_rng(seed: int, rep: int):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.PCG64DXSM(seq))


def _block(rng, mu1, mu2, n):
    """``n`` completions of both servers merged: gaps and server-1 marks."""
    total = mu1 + mu2
    return rng.standard_exponential(n) / total, rng.random(n) < mu1 / total


def _stream(rng, mu1, mu2):
    """Times and server-1 marks of the merged stream, drawn ``_CHUNK`` events at a time.

    Each chunk is led by the two events before it; the first by virtual
    restarts at t = 0 of server 1 and then server 2 (the fresher packet).
    """
    times, marks = np.zeros(2), np.array([True, False])
    while True:
        gap, mark = _block(rng, mu1, mu2, _CHUNK)
        times = np.concatenate((times[-2:], gap))
        np.cumsum(times[1:], out=times[1:])
        marks = np.concatenate((marks[-2:], mark))
        yield times, marks


def _run_zw(mu1, mu2, horizon, rng):
    # Every event restarts its server, so a delivery is stale exactly when
    # the two events before it are the other server's: the first restarted
    # that server after this one, the second delivered the fresher packet.
    # A fresh packet thus started one or two events before its delivery.
    delivered, generated = [], []
    got = used = 0
    for times, marks in _stream(rng, mu1, mu2):
        same = marks[2:] == marks[1:-1]
        fresh = np.flatnonzero(same | (marks[1:-1] != marks[:-2]))[:horizon - got]
        delivered.append(times[fresh + 2])
        generated.append(times[fresh + same[fresh]])
        got += fresh.shape[0]
        if got == horizon:
            break
        used += same.shape[0]
    stats = {"monitor_discards": used + int(fresh[-1]) + 1 - horizon, "preemptions": 0,
             "elapsed": float(delivered[-1][-1])}
    return np.concatenate(delivered), np.concatenate(generated), stats


def _run_po(mu1, mu2, horizon, rng):
    # Every delivery is fresh. Server 2 leads (holds the fresher packet) at
    # t = 0 and after each of its deliveries and each preemption (both
    # restart, server 2 second); r server-1 deliveries since then leave
    # server 1 leading exactly when r is odd. The leader's delivery
    # preempts the other server. A delivered packet started at the event
    # before, or the one before that past the other server's non-preempting one.
    run, pre = 0, False  # server-1 deliveries since server 2's last; last event preempted
    n_pre = alone1 = 0
    delivered, generated = [], []
    for lo, (times, marks) in zip(range(0, horizon, _CHUNK), _stream(rng, mu1, mu2)):
        times, marks = times[:horizon - lo + 2], marks[:horizon - lo + 2]  # last chunk: trimmed
        m1 = marks[2:]
        i = np.arange(m1.shape[0])
        runs = i - np.maximum.accumulate(np.where(m1, -1 - run, i))  # through each event
        preempt = m1 == (np.concatenate(([run], runs[:-1])) % 2 == 1)
        restarted = (m1 == marks[1:-1]) | np.concatenate(([pre], preempt[:-1]))
        delivered.append(times[2:])
        generated.append(np.where(restarted, times[1:-1], times[:-2]))
        run, pre = int(runs[-1]), bool(preempt[-1])
        n_pre += int(np.count_nonzero(preempt))
        alone1 += int(np.count_nonzero(m1 & ~preempt))
    # server 2 restarts at t = 0 and at every event but a lone server-1 restart
    stats = {"monitor_discards": 0, "preemptions": n_pre,
             "entry_counts": (1 + n_pre, 1 + horizon - alone1, alone1),
             "elapsed": float(delivered[-1][-1])}
    return np.concatenate(delivered), np.concatenate(generated), stats


# Entry states of a freeze cycle: A, the new packet on server 1 with
# server 2 idle; B, the new packet on server 2 with server 1 busy; C, the
# new packet on server 1 with server 2 busy. A map {A,B,C} -> {A,B,C} is
# coded f(A) * 9 + f(B) * 3 + f(C); _MAPS[code] = (f(A), f(B), f(C)).
_MAPS = np.array(list(product(range(3), repeat=3)))
_COMPOSE = (_MAPS[np.arange(27)[:, None, None], _MAPS[None]] @ [9, 3, 1]).ravel()
_FP_CYCLES = 1 << 16  # freeze cycles drawn per block
_CHUNK = 1 << 16  # merged-stream events walked at a time


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


def _fp_block(rng, p, out):
    """Freeze length (1/freeze_rate at k = inf) and both service times of each next
    cycle, drawn in that order into the rows of ``out``, a ``(3, _FP_CYCLES)`` array."""
    if p.k == inf:
        out[0] = 1.0
    else:
        rng.standard_gamma(p.k, out=out[0])
    rng.standard_exponential(out=out[1:])  # server 1's, then server 2's
    out /= [[p.freeze_rate if p.k == inf else p.k * p.freeze_rate], [p.mu1], [p.mu2]]
    return out


def _run_fp(p, horizon, rng):
    # The chain embedded at freeze starts. Each cycle draws a freeze and a
    # service time per server; by memorylessness the older packet's
    # residual service is drawn afresh. A new packet finishing before the
    # older one preempts it; the cycle ends at the freeze's end or, if
    # later, at the first completion, when the freed server is refilled.
    state, t, t_prev = 0, 0.0, 0.0
    got = preempts = 0
    entry = np.zeros(3, dtype=np.int64)
    draws = np.empty((3, _FP_CYCLES))
    times = np.empty(_FP_CYCLES + 2)  # T_{i-1} and T_i for cycle i at [i] and [i + 1]
    ok = np.empty((_FP_CYCLES, 2), dtype=bool)  # per cycle: old packet delivered, new one
    delivered, generated = np.empty(horizon), np.empty(horizon)
    while got < horizon:
        f, x1, x2 = _fp_block(rng, p, draws)
        first1 = x1 <= x2  # ties go to server 1
        in1, in2 = x1 <= f, x2 <= f  # completions at the freeze's end win
        # A -> B unless the new packet finishes within the freeze; B -> C
        # and C -> B unless it finishes first or within the freeze; else A
        codes = 9 * ~in1 + 6 * (first1 & ~in2) + (~first1 & ~in1)
        s = _resolve(codes, state)
        s, state = s[:-1], s[-1]
        a, b = s == 0, s == 1  # b: the new packet is on server 2
        new_first = b != first1
        pre = new_first & ~a
        np.logical_not(a | new_first, out=ok[:, 0])
        np.logical_or(pre, in1 ^ (b & (in1 ^ in2)), out=ok[:, 1])  # in2 if b else in1
        keep = np.flatnonzero(ok)[:horizon - got]
        cycle, newer = keep >> 1, keep & 1
        length = times[2:]  # the freeze, or the first completion if later (A: no race)
        np.maximum(f, np.multiply(np.minimum(x1, x2, out=length), ~a, out=length), out=length)
        times[:2] = t_prev, t
        np.cumsum(times[1:], out=times[1:])
        t_prev, t = times[-2], times[-1]
        server = 1 + (newer == b[cycle])  # the delivered packet's row of draws
        lo, got = got, got + keep.shape[0]
        np.add(times[cycle + 1], draws[server, cycle], out=delivered[lo:got])
        np.take(times, cycle + newer, out=generated[lo:got])
        # cycles up to the one that holds the last wanted reception
        used = cycle[-1] + 1 if got == horizon else s.shape[0]
        n_a, n_b = np.count_nonzero(a[:used]), np.count_nonzero(b[:used])
        entry += (n_a, n_b, used - n_a - n_b)
        preempts += int(np.count_nonzero(pre[:used]))
    stats = {"monitor_discards": 0, "preemptions": preempts,
             "entry_counts": tuple(entry.tolist()), "elapsed": float(delivered[-1])}
    return delivered, generated, stats


def _cycles(delivered, generated, warmup):
    """Per-cycle records after ``warmup`` fresh receptions.

    A cycle runs between consecutive fresh receptions: it starts at the
    age of the first and peaks just before the second.
    """
    d = delivered[warmup:]
    g = generated[warmup:]
    return d[:-1] - g[:-1], np.diff(d), d[1:] - g[:-1]


def _sorted_cycles(u, length):
    """Checked per-cycle starting ages and lengths: sorted starts and peaks,
    their prefix sums, each led by 0, and the total length."""
    u, length = _array(u, "u"), _array(length, "length")
    if u.shape != length.shape:
        raise ValueError(f"u and length differ in shape: {u.shape} and {length.shape}")
    if np.any(length < 0):
        raise ValueError("cycle lengths must be nonnegative")
    total = length.sum()
    if not total > 0:
        raise ValueError("length must hold cycles of positive total length")
    us, ps = np.sort(u), np.sort(u + length)
    return us, ps, *(np.concatenate(([0.0], np.cumsum(a))) for a in (us, ps)), total


def empirical_aoi_cdf(u, length, xs) -> np.ndarray:
    """Fraction of time the age sawtooth stays at or below each ``x``.

    Uses the exact piecewise-linear cycle geometry: a cycle starting at
    age ``u`` with length ``L`` spends ``clip(x - u, 0, L)`` time units
    at or below ``x``. The samples must be finite and one-dimensional, of one
    shape; lengths must be nonnegative, with a positive total. The points, of
    any shape, must hold no NaN; the cdf is 0 at ``-inf`` and 1 at ``inf``.
    """
    xs = _array(xs, "xs", None, finite=False)
    finite = np.isfinite(xs)
    cdf = _time_below(_sorted_cycles(u, length), np.where(finite, xs, 0.0))
    return np.where(finite, cdf, xs > 0)


def _time_below(view, xs):
    """Share of the total length spent at or below each ``x``, from a sorted view."""
    us, ps, cum_u, cum_p, total = view
    below_u = np.searchsorted(us, xs, side="right")
    below_p = np.searchsorted(ps, xs, side="right")
    covered = xs * below_u - cum_u[below_u] - (xs * below_p - cum_p[below_p])
    return covered / total


def empirical_paoi_cdf(peaks_sorted, xs) -> np.ndarray:
    """Empirical cdf of the recorded peaks, finite, at least one, sorted ascending, at
    non-NaN ``xs`` of any shape."""
    peaks_sorted = _array(peaks_sorted, "peaks_sorted", ascending=True)
    if peaks_sorted.size == 0:
        raise ValueError("peaks_sorted holds no peak")
    xs = _array(xs, "xs", None, finite=False)
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

    if cfg.replications >= 2:
        se_aoi = float(rep_aoi.std(ddof=1) / sqrt(cfg.replications))
        se_paoi = float(rep_paoi.std(ddof=1) / sqrt(cfg.replications))
    else:
        se_aoi = se_paoi = nan

    totals["per_rep"] = per_rep
    # pooled only when kept, one replication's uncopied: a copy is a sizeable share of a run
    samples = (SampleSet(*(a[0] if len(a) == 1 else np.concatenate(a)
                           for a in (all_u, all_len, all_peak))) if keep_samples else None)
    return SimResult(
        mean_aoi=float(rep_aoi.mean()), mean_paoi=float(rep_paoi.mean()),
        se_aoi=se_aoi, se_paoi=se_paoi,
        rep_mean_aoi=rep_aoi, rep_mean_paoi=rep_paoi,
        cycle_count=sum(map(len, all_u)), config=cfg.describe(), stats=totals,
        samples=samples)


def _quantile_grid(sorted_values: np.ndarray) -> np.ndarray:
    n = sorted_values.shape[0]
    idx = np.linspace(0, n - 1, min(n, CDF_POINTS)).round().astype(int)
    return np.unique(sorted_values[idx])


def _interp_cdf(table: DistributionTable, xs: np.ndarray) -> np.ndarray:
    return np.interp(xs, table.grid, table.cdf,
                     left=0.0, right=float(table.cdf[-1]))


def ks_distance(x1, cdf1, x2, cdf2) -> float:
    """Sup distance between two tabulated cdfs on their merged grid; each grid
    nonempty, finite and nondecreasing, with one finite cdf value per point."""
    curves = [(_array(x, f"x{i}", ascending=True), _array(cdf, f"cdf{i}"))
              for i, (x, cdf) in enumerate(((x1, cdf1), (x2, cdf2)), 1)]
    for i, (x, cdf) in enumerate(curves, 1):
        if not x.size:
            raise ValueError(f"x{i} must be nonempty")
        if cdf.shape != x.shape:
            raise ValueError(f"cdf{i} holds {cdf.size} values for the {x.size} points of x{i}")
    xs = np.union1d(curves[0][0], curves[1][0])
    f1, f2 = (np.interp(xs, x, cdf, left=0.0, right=float(cdf[-1])) for x, cdf in curves)
    return float(np.max(np.abs(f1 - f2)))


def _ranges(lo, hi):
    """The concatenated ``arange(lo[k], hi[k])`` over ``k``."""
    return np.arange((hi - lo).sum()) + np.repeat(hi - np.cumsum(hi - lo), hi - lo)


def ks_against_table(result: SimResult, table: DistributionTable) -> float:
    """Exact sup distance between a simulated and an analytic cdf.

    The analytic cdf is interpolated from its table, 0 below its grid. The
    step cdf of peaks is compared on both sides of every jump and at every
    grid point, the piecewise-linear age cdf at every breakpoint of either
    curve: first at the last sorted sample and every ``_STRIDE``-th, or of
    ``n`` peaks every ``isqrt(n) // 8``-th (so a gap's monotone bound adds
    about ``1 / (8 sqrt(n))`` to a distance near ``1 / sqrt(n)``), and for
    the age every grid point and the largest sample below the grid. Each
    gap between these is bounded, for the age by the slopes both curves can
    take there, for peaks by monotonicity widened by the table's largest
    cdf drawdown, and evaluated at every point if the bound comes within
    1e-12 of the coarse maximum. Empirical values round as in
    ``empirical_aoi_cdf`` and ``empirical_paoi_cdf``.
    """
    kind = table.meta.get("kind")
    view = _samples(result, kind)
    us, ps, *_, total = view
    if kind == "paoi":
        n = ps.shape[0]
        i = np.unique(np.append(np.arange(0, n, max(1, isqrt(n) // 8)), n - 1))
        fa = _interp_cdf(table, ps[i])  # at sorted peaks i; then both sides of each jump
        on_grid = np.abs(table.cdf - np.searchsorted(ps, table.grid, side="right") / n)
        best = float(max(np.max((i + 1) / n - fa), np.max(fa - i / n), np.max(on_grid)))
        drawdown = np.max(np.maximum.accumulate(table.cdf) - table.cdf)
        bound = np.maximum(i[1:] / n - fa[:-1], fa[1:] - (i[:-1] + 1) / n) + drawdown
        gaps = np.flatnonzero(bound > best - 1e-12)
        i = _ranges(i[gaps] + 1, i[gaps + 1])
        fa = _interp_cdf(table, ps[i])
        return max(best, float(np.max(np.maximum((i + 1) / n - fa, fa - i / n), initial=0.0)))
    # Every grid point is coarse, and so is the largest sample below the grid:
    # between coarse neighbours a < b with a sample between them the table cdf
    # is linear. The empirical one has slope C / total, C the cycles under way,
    # in [N_u(< a) - N_p(<= b), N_u(<= b) - N_p(< a)].
    last_below = [a[max(np.searchsorted(a, table.grid[0]) - 1, 0)] for a in (us, ps)]
    x = np.unique(np.concatenate((us[::_STRIDE], ps[::_STRIDE], us[-1:], ps[-1:],
                                  last_below, table.grid)))
    fa = _interp_cdf(table, x)
    d = np.abs(_time_below(view, x) - fa)
    best = float(np.max(d))
    (lu, ru), (lp, rp) = ([np.searchsorted(a, x, side=s) for s in ("left", "right")]
                          for a in (us, ps))
    dx, df = np.diff(x), np.diff(fa)
    rise = np.maximum(dx * (ru[1:] - lp[:-1]) / total - df, df - dx * (lu[:-1] - rp[1:]) / total)
    gaps = np.flatnonzero(np.maximum(d[:-1], d[1:]) + np.maximum(rise, 0.0) > best - 1e-12)
    x = np.concatenate((us[_ranges(ru[gaps], lu[gaps + 1])], ps[_ranges(rp[gaps], lp[gaps + 1])]))
    return max(best, float(np.max(np.abs(_time_below(view, x) - _interp_cdf(table, x)),
                                  initial=0.0)))

