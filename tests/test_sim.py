"""Simulator behavior: determinism, bookkeeping identities, and
agreement with the analytic models."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from aoidual import (
    FP,
    FP_PREEMPT_ONLY,
    FpParams,
    SimConfig,
    ZW,
    ZwParams,
    build_fp_model,
    empirical_aoi_cdf,
    empirical_paoi_cdf,
    empirical_vs_analytic,
    fp_means,
    ks_against_table,
    ks_distance,
    simulate,
    summarize,
    zw_closed_form_means,
)
from aoidual import sim


class TestConfigValidation:
    def test_policy_params_pairing(self):
        with pytest.raises(ValueError):
            SimConfig(ZwParams(1, 1), FP, horizon=1000)
        with pytest.raises(ValueError):
            SimConfig(FpParams(1, 1, 1, 1), ZW, horizon=1000)

    def test_preempt_only_accepts_either_params(self):
        SimConfig(ZwParams(1, 1), FP_PREEMPT_ONLY, horizon=1000)
        SimConfig(FpParams(1, 1, 1, 1), FP_PREEMPT_ONLY, horizon=1000)

    def test_params_name_the_policy(self):
        from aoidual import preempt_only_params

        po = SimConfig(ZwParams(1, .3), FP_PREEMPT_ONLY, horizon=1000)
        assert po.policy == FP_PREEMPT_ONLY
        for cfg in (SimConfig(preempt_only_params(1, .3), FP, horizon=1000),
                    SimConfig(FpParams(.3, 1, math.inf, 4), FP, horizon=1000),
                    SimConfig(FpParams(1, .3, 2.0, 3), FP_PREEMPT_ONLY, horizon=1000)):
            assert cfg == po
        for cfg in (po, SimConfig(ZwParams(1, .3), ZW, horizon=1000)):
            assert "freeze_rate" not in cfg.describe() and "k" not in cfg.describe()
        fp = SimConfig(FpParams(1, .3, 2.0, 3), FP, horizon=1000).describe()
        assert (fp["policy"], fp["freeze_rate"], fp["k"]) == (FP, 2.0, 3)

    def test_horizon_floor(self):
        with pytest.raises(ValueError):
            SimConfig(ZwParams(1, 1), ZW, horizon=999)

    def test_warmup_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(ZwParams(1, 1), ZW, horizon=1000, warmup=999)
        cfg = SimConfig(ZwParams(1, 1), ZW, horizon=1000)
        assert cfg.warmup == 10

    def test_replications_floor(self):
        with pytest.raises(ValueError):
            SimConfig(ZwParams(1, 1), ZW, horizon=1000, replications=0)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            SimConfig(ZwParams(1, 1), "lcfs", horizon=1000)

    def test_seed_must_be_a_nonnegative_integer(self):
        # neither truncated (1.5 is not seed 1) nor left to SeedSequence
        for seed in (1.5, -1):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(ZwParams(1, 1), ZW, horizon=1000, seed=seed)
        assert SimConfig(ZwParams(1, 1), ZW, horizon=1000, seed=7.0).seed == 7


class TestDeterminism:
    def test_bit_identical_reruns(self):
        cfg = SimConfig(ZwParams(1.0, 0.4), ZW, horizon=20_000, seed=5,
                        replications=3)
        a = simulate(cfg)
        b = simulate(cfg)
        assert a.mean_aoi == b.mean_aoi and a.mean_paoi == b.mean_paoi
        assert np.array_equal(a.samples.u, b.samples.u)
        assert np.array_equal(a.samples.peak, b.samples.peak)
        assert np.array_equal(a.ecdf("aoi")[1], b.ecdf("aoi")[1])
        assert dict(a.stats)["monitor_discards"] == dict(b.stats)["monitor_discards"]

    def test_seed_changes_draws(self):
        base = SimConfig(ZwParams(1.0, 0.4), ZW, horizon=20_000, seed=5)
        other = SimConfig(ZwParams(1.0, 0.4), ZW, horizon=20_000, seed=6)
        assert simulate(base).mean_aoi != simulate(other).mean_aoi

    @pytest.mark.parametrize("run", [
        lambda n, rng: sim._run_fp(FpParams(0.5, 0.1, 1.0, 3), n, rng),
        lambda n, rng: sim._run_zw(1.0, 0.4, n, rng),
        lambda n, rng: sim._run_po(1.0, 0.4, n, rng)], ids=[FP, ZW, FP_PREEMPT_ONLY])
    def test_shorter_run_is_a_prefix(self, run):
        # fixed-size draw blocks: the horizon decides where a run stops, not
        # what it draws; 50,000 receptions end inside the first 65,536-event
        # chunk or cycle block (preemption-only trims it), 150,000 run past it
        short, long = (run(n, sim._rep_rng(5, 0)) for n in (50_000, 150_000))
        assert np.array_equal(short[0], long[0][:50_000])
        assert np.array_equal(short[1], long[1][:50_000])

    @pytest.mark.parametrize("params, policy", [(ZwParams(1.0, 0.4), ZW),
                                                (FpParams(0.5, 0.1, 1.0, 3), FP),
                                                (ZwParams(1.0, 0.4), FP_PREEMPT_ONLY)])
    def test_first_replications_are_a_shorter_run(self, params, policy):
        # each replication has its own stream: more of them change none before
        few, more = (simulate(SimConfig(params, policy, horizon=5_000, seed=5, replications=r),
                              keep_samples=False) for r in (2, 4))
        assert np.array_equal(few.rep_mean_aoi, more.rep_mean_aoi[:2])
        assert np.array_equal(few.rep_mean_paoi, more.rep_mean_paoi[:2])


class TestZeroWait:
    def test_means_match_closed_forms(self):
        # 8 replications keep the standard-error estimate itself stable
        # enough for a 3-se band
        cfg = SimConfig(ZwParams(1.0, 1.0), ZW, horizon=100_000, seed=17,
                        replications=8)
        res = simulate(cfg)
        means = zw_closed_form_means(ZwParams(1.0, 1.0))
        assert abs(res.mean_aoi - means.mean_aoi) <= 3.0 * res.se_aoi
        assert abs(res.mean_paoi - means.mean_paoi) <= 3.0 * res.se_paoi

    def test_heterogeneous_peak_mean(self):
        cfg = SimConfig(ZwParams(0.5, 0.1), ZW, horizon=100_000, seed=23,
                        replications=8)
        res = simulate(cfg)
        assert abs(res.mean_paoi - 3.870968) <= 3.0 * res.se_paoi

    def test_slow_second_server_discards(self):
        cfg = SimConfig(ZwParams(1.0, 0.01), ZW, horizon=20_000, seed=2)
        res = simulate(cfg)
        assert res.stats["monitor_discards"] > 0

    def test_no_preemptions_under_zero_wait(self):
        cfg = SimConfig(ZwParams(1.0, 0.5), ZW, horizon=10_000, seed=2)
        assert simulate(cfg).stats["preemptions"] == 0


class TestFreezePreempt:
    def test_no_monitor_discards_or_out_of_order(self):
        cfg = SimConfig(FpParams(0.5, 0.1, 1.0, 3), FP, horizon=50_000, seed=4)
        res = simulate(cfg)
        assert res.stats["monitor_discards"] == 0
        assert res.stats["preemptions"] > 0

    def test_means_match_analytic_model(self):
        p = FpParams(0.5, 0.1, 1.0, 5)
        cfg = SimConfig(p, FP, horizon=100_000, seed=31, replications=8)
        res = simulate(cfg)
        model = build_fp_model(p)
        from aoidual import aoi_mean, paoi_mean

        assert abs(res.mean_aoi - aoi_mean(model)) <= 3.0 * res.se_aoi
        assert abs(res.mean_paoi - paoi_mean(model)) <= 3.0 * res.se_paoi

    def test_preempt_only_matches_limit_model(self):
        from aoidual import aoi_mean, preempt_only_params

        p = preempt_only_params(1.0, 0.4)
        cfg = SimConfig(p, FP_PREEMPT_ONLY, horizon=100_000, seed=37,
                        replications=8)
        res = simulate(cfg)
        assert abs(res.mean_aoi - aoi_mean(build_fp_model(p))) <= 3.0 * res.se_aoi

    def test_infinite_freeze_rate_is_preempt_only(self):
        from aoidual import preempt_only_params

        p = preempt_only_params(1.0, 0.3)
        fp, po = (simulate(SimConfig(p, policy, horizon=20_000, seed=7,
                                     replications=2))
                  for policy in (FP, FP_PREEMPT_ONLY))
        assert np.array_equal(fp.samples.u, po.samples.u)
        assert np.array_equal(fp.samples.length, po.samples.length)
        assert np.array_equal(fp.samples.peak, po.samples.peak)
        assert fp.mean_aoi == po.mean_aoi and fp.mean_paoi == po.mean_paoi
        assert dict(fp.stats) == dict(po.stats)

    @pytest.mark.parametrize("point", [(0.5, 0.1, 1.0, 10), (1.0, 0.001, 0.05, 5),
                                       (1.0, 1.0, 1000.0, 2)])
    def test_success_probability_matches_absorption(self, point):
        from aoidual import absorption_probability

        p = FpParams(*point)
        chain = build_fp_model(p)
        n = 200_000
        res = simulate(SimConfig(p, FP, horizon=n, seed=43, replications=1),
                       keep_samples=False)
        simulated = n / sum(res.stats["entry_counts"])
        exact = absorption_probability(chain, 0)
        assert abs(simulated - exact) <= 5.0 / math.sqrt(n)


    @pytest.mark.parametrize("point", [(0.5, 0.1, 1.0), (1.0, 1.0, 3.4), (1.0, 0.01, 0.2)])
    def test_deterministic_freeze_matches_the_freeze_level_means(self, point):
        # k = inf: every freeze lasts exactly 1/lambda, drawn from no stream
        p = FpParams(*point, math.inf)
        freezes = sim._fp_block(sim._rep_rng(0, 0), p, np.empty((3, sim._FP_CYCLES)))[0]
        assert np.all(freezes == 1.0 / p.freeze_rate)
        n = 200_000
        res = simulate(SimConfig(p, FP, horizon=n, seed=47, replications=1),
                       keep_samples=False)
        exact, tol = fp_means(p), 10.0 / math.sqrt(n)
        assert res.config["k"] == "inf"
        assert res.mean_aoi == pytest.approx(exact.mean_aoi, rel=tol)
        assert res.mean_paoi == pytest.approx(exact.mean_paoi, rel=tol)
        assert n / sum(res.stats["entry_counts"]) == pytest.approx(exact.p_success, abs=tol)


class _OldLoop:
    """The former per-event loops' rules for zero wait and preemption-only.

    Packets carry sequence numbers in order of generation (server 1's t = 0
    packet is 1, server 2's is 2); a delivery is fresh when its number
    exceeds the last fresh one. Each cycle is recorded as those loops did,
    one reception at a time.
    """

    def __init__(self, mu1, mu2, n, warmup, rng):
        self.n, self.warmup = n, warmup
        self.events = self._stream(mu1, mu2, rng)
        self.seq, self.last_seq = 2, 0
        self.gen, self.num = [0.0, 0.0], [1, 2]
        self.delivered, self.generated = [], []
        self.u, self.length, self.peak = [], [], []
        self.prev_d = self.prev_u = self.last_gen = 0.0

    @staticmethod
    def _stream(mu1, mu2, rng):
        t = 0.0
        while True:
            gaps, marks = sim._block(rng, mu1, mu2, sim._CHUNK)
            for gap, m1 in zip(gaps.tolist(), marks.tolist()):
                t += gap
                yield t, 0 if m1 else 1

    def _restart(self, server, t):
        self.seq += 1
        self.gen[server], self.num[server] = t, self.seq

    def _accept(self, t, g, s):
        self.delivered.append(t)
        self.generated.append(g)
        if len(self.delivered) > self.warmup + 1:
            self.u.append(self.prev_u)
            self.length.append(t - self.prev_d)
            self.peak.append(t - self.last_gen)
        self.prev_d, self.prev_u = t, t - g
        self.last_seq, self.last_gen = s, g

    def zero_wait(self):
        discards = 0
        while len(self.delivered) < self.n:
            t, server = next(self.events)
            g, s = self.gen[server], self.num[server]
            self._restart(server, t)
            if s > self.last_seq:
                self._accept(t, g, s)
            else:
                discards += 1
        return {"monitor_discards": discards, "preemptions": 0}

    def preempt_only(self):
        preempts, ent = 0, [1, 1, 0]
        while len(self.delivered) < self.n:
            t, server = next(self.events)
            g, s = self.gen[server], self.num[server]
            assert s > self.last_seq
            self._accept(t, g, s)
            free = [server == 0, server == 1]
            other = 1 - server
            if self.num[other] < self.last_seq:
                free[other] = True
                preempts += 1
            # fill server 1, then server 2
            if free[0]:
                self._restart(0, t)
                ent[0 if free[1] else 2] += 1
            if free[1]:
                self._restart(1, t)
                ent[1] += 1
        return {"monitor_discards": 0, "preemptions": preempts,
                "entry_counts": tuple(ent)}


class _OldFreezeLoop(_OldLoop):
    """The former freeze/preempt loop's rules, event by event.

    Server 1 starts with packet 1 and a freeze. When no freeze runs, a
    free server gets a fresh packet (server 1 first) and a new freeze
    starts; a delivery preempts the other server's older packet. Each
    freeze start takes the array runner's next per-cycle draws (F, X1, X2)
    and re-arms the freeze and both busy servers' clocks from them.
    """

    def __init__(self, p, n, warmup, rng):
        super().__init__(p.mu1, p.mu2, n, warmup, rng)
        self.draws = self._cycle_draws(p, rng)
        self.seq, self.num = 0, [0, 0]

    @staticmethod
    def _cycle_draws(p, rng):
        while True:
            yield from zip(*sim._fp_block(rng, p, np.empty((3, sim._FP_CYCLES))).tolist())

    def freeze_preempt(self):
        inf = math.inf
        clock = [inf, inf]
        preempts, ent = 0, [0, 0, 0]
        t, fz = 0.0, inf
        while True:
            if fz == inf:
                free = [c == inf for c in clock]
                if any(free):
                    server = 0 if free[0] else 1
                    ent[1 if server else 2 - 2 * free[1]] += 1
                    self._restart(server, t)
                    f, *x = next(self.draws)
                    fz = t + f
                    for s in (0, 1):
                        if s == server or not free[s]:
                            clock[s] = t + x[s]
            which = 0 if clock[0] <= clock[1] else 1
            if fz < clock[which]:
                t, fz = fz, inf
                continue
            t, clock[which] = clock[which], inf
            g, s = self.gen[which], self.num[which]
            assert s > self.last_seq  # stale packets are preempted first
            self._accept(t, g, s)
            other = 1 - which
            if clock[other] != inf and self.num[other] < s:
                clock[other] = inf
                preempts += 1
            if len(self.delivered) == self.n:
                return {"monitor_discards": 0, "preemptions": preempts,
                        "entry_counts": tuple(ent)}


class TestArrayPolicies:
    """The array runners against the per-event rules on the same stream.

    Reception times are distinct, so equal delivered-time lists mean equal
    fresh flags.
    """

    # small chunks put many chunk and block boundaries in every case
    @pytest.mark.parametrize("chunk", [sim._CHUNK, 7, 64])
    @pytest.mark.parametrize("policy", [ZW, FP_PREEMPT_ONLY])
    @given(mu1=st.floats(0.01, 10.0), log_ratio=st.floats(-3.0, 3.0),
           n=st.integers(2, 3000), warm=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(mu1=1.0, log_ratio=0.0, n=50, warm=0.0, seed=0)
    @example(mu1=1.0, log_ratio=-3.0, n=3000, warm=0.0, seed=1)
    @example(mu1=1.0, log_ratio=0.0, n=70_000, warm=0.0, seed=2)  # past one full chunk
    def test_match_the_event_rules_across_chunks(self, policy, chunk, mu1, log_ratio, n,
                                                 warm, seed):
        mu2 = mu1 * 10.0 ** log_ratio
        warmup = int(warm * (n - 2))
        with mock.patch.object(sim, "_CHUNK", chunk):
            old = _OldLoop(mu1, mu2, n, warmup, sim._rep_rng(seed, 0))
            if policy == ZW:
                ref = old.zero_wait()
                d, g, stats = sim._run_zw(mu1, mu2, n, sim._rep_rng(seed, 0))
            else:
                ref = old.preempt_only()
                d, g, stats = sim._run_po(mu1, mu2, n, sim._rep_rng(seed, 0))
        assert d.tolist() == old.delivered
        assert g.tolist() == old.generated
        assert stats["elapsed"] == old.delivered[-1]
        assert set(stats) == {*ref, "elapsed"}
        for key, value in ref.items():
            assert stats[key] == value, key
        u, length, peak = sim._cycles(d, g, warmup)
        assert u.tolist() == old.u
        assert length.tolist() == old.length
        assert peak.tolist() == old.peak

    # small draw blocks carry the state, t and t_prev across many block boundaries
    @pytest.mark.parametrize("cycles", [sim._FP_CYCLES, 7, 64])
    @given(mu1=st.floats(0.01, 10.0), log_ratio=st.floats(-3.0, 3.0),
           log_freeze=st.floats(-2.0, 3.0), k=st.integers(1, 50),
           n=st.integers(2, 3000), warm=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(mu1=1.0, log_ratio=0.0, log_freeze=0.0, k=1, n=50, warm=0.0, seed=0)
    @example(mu1=1.0, log_ratio=-3.0, log_freeze=-1.3, k=5, n=3000, warm=0.0,
             seed=1)
    @example(mu1=1.0, log_ratio=0.0, log_freeze=3.0, k=2, n=3000, warm=0.0,
             seed=2)
    def test_freeze_preempt_matches_the_event_rules(self, cycles, mu1, log_ratio,
                                                    log_freeze, k, n, warm, seed):
        p = FpParams(mu1, mu1 * 10.0 ** log_ratio, 10.0 ** log_freeze, k)
        warmup = int(warm * (n - 2))
        with mock.patch.object(sim, "_FP_CYCLES", cycles):
            old = _OldFreezeLoop(p, n, warmup, sim._rep_rng(seed, 0))
            ref = old.freeze_preempt()
            d, g, stats = sim._run_fp(p, n, sim._rep_rng(seed, 0))
        assert d.tolist() == old.delivered
        assert g.tolist() == old.generated
        assert stats["elapsed"] == old.delivered[-1]
        assert set(stats) == {*ref, "elapsed"}
        for key, value in ref.items():
            assert stats[key] == value, key
        u, length, peak = sim._cycles(d, g, warmup)
        assert u.tolist() == old.u
        assert length.tolist() == old.length
        assert peak.tolist() == old.peak


class TestBookkeeping:
    def test_single_rep_mean_is_exact_cycle_ratio(self):
        cfg = SimConfig(ZwParams(0.8, 0.3), ZW, horizon=20_000, seed=9,
                        replications=1)
        res = simulate(cfg)
        u, length = res.samples.u, res.samples.length
        recomputed = (u * length + 0.5 * length * length).sum() / length.sum()
        assert res.mean_aoi == recomputed
        assert res.mean_paoi == res.samples.peak.mean()
        assert math.isnan(res.se_aoi) and math.isnan(res.se_paoi)

    def test_standard_errors_need_two_reps(self):
        cfg = SimConfig(ZwParams(0.8, 0.3), ZW, horizon=10_000, seed=9,
                        replications=2)
        res = simulate(cfg)
        assert res.se_aoi > 0.0 and res.se_paoi > 0.0

    def test_cycle_count(self):
        cfg = SimConfig(ZwParams(0.8, 0.3), ZW, horizon=10_000, warmup=100,
                        seed=9, replications=3)
        res = simulate(cfg)
        assert res.cycle_count == 3 * (10_000 - 100 - 1)

    def test_peaks_exceed_start_ages(self):
        cfg = SimConfig(ZwParams(0.8, 0.3), ZW, horizon=10_000, seed=9)
        res = simulate(cfg)
        s = res.samples
        np.testing.assert_allclose(s.peak, s.u + s.length, rtol=1e-12)
        assert np.all(s.length > 0)


class TestEmpiricalCdfs:
    def test_aoi_cdf_matches_bruteforce(self, rng):
        u = rng.uniform(0.0, 2.0, size=200)
        length = rng.uniform(0.01, 3.0, size=200)
        xs = np.sort(rng.uniform(0.0, 6.0, size=50))
        got = empirical_aoi_cdf(u, length, xs)
        brute = np.array([
            np.sum(np.clip(x - u, 0.0, length)) / length.sum() for x in xs])
        np.testing.assert_allclose(got, brute, atol=1e-12)

    def test_paoi_cdf_refuses_unsorted_peaks(self):
        assert empirical_paoi_cdf([1.0, 2.0, 3.0], [1.5]) == pytest.approx([1.0 / 3.0])
        with pytest.raises(ValueError, match="sorted"):
            empirical_paoi_cdf([3.0, 1.0, 2.0], [1.5])

    def test_aoi_cdf_refuses_negative_lengths(self):
        with pytest.raises(ValueError, match="nonnegative"):
            empirical_aoi_cdf([0.0, 1.0], [1.0, -0.5], [0.5, 2.0])

    def test_cdfs_refuse_malformed_samples(self):
        with pytest.raises(ValueError, match="u and length"):
            empirical_aoi_cdf([0.0, 1.0, 5.0], [1.0], [0.5, 1.5, 3.0])
        with pytest.raises(ValueError, match="^u holds a non-finite entry"):
            empirical_aoi_cdf([0.0, np.nan], [1.0, 1.0], [0.5])
        with pytest.raises(ValueError, match="^length holds a non-finite entry"):
            empirical_aoi_cdf([0.0, 1.0], [1.0, np.nan], [0.5])
        with pytest.raises(ValueError, match="^peaks_sorted holds a non-finite entry"):
            empirical_paoi_cdf([1.0, np.nan, 2.0], [1.5])

    def test_cdfs_refuse_empty_samples(self):
        # no time covered, no peak: a ValueError naming the argument, not a NaN
        for u, length in (([0.0], [0.0]), ([], [])):
            with pytest.raises(ValueError, match="length"):
                empirical_aoi_cdf(u, length, [1.0])
        with pytest.raises(ValueError, match="peaks_sorted"):
            empirical_paoi_cdf([], [1.0])

    def test_cdfs_at_non_finite_points(self):
        # 0 at -inf and 1 at inf, finite points as without them; NaN refused
        u, length, peaks = [0.5, 1.0, 0.2], [1.0, 0.5, 2.0], [1.5, 1.5, 2.2]
        finite = [0.3, 1.0, 1.7]
        for cdf in (lambda xs: empirical_aoi_cdf(u, length, xs),
                    lambda xs: empirical_paoi_cdf(peaks, xs)):
            got = cdf([-math.inf, *finite, math.inf])
            assert got[0] == 0.0 and got[-1] == 1.0
            assert np.array_equal(got[1:-1], cdf(finite))
            with pytest.raises(ValueError, match="^xs holds a NaN"):
                cdf([math.nan, 1.0])

    @pytest.mark.parametrize("n", [600, 5_000])
    def test_aoi_ecdf_matches_the_pooled_sort(self, rng, n):
        # the grid from merging the sorted starts and peaks, the cdf from the
        # same sorted runs: bitwise the quantiles of the sorted pooled values
        # and the public cdf there, ties included (a quarter lattice)
        from aoidual.sim import SampleSet, SimResult

        u = np.concatenate((rng.integers(0, 24, n // 2) * 0.25, rng.exponential(size=n - n // 2)))
        length = np.concatenate((rng.integers(1, 24, n // 2) * 0.25,
                                 rng.exponential(size=n - n // 2)))
        res = SimResult(0.0, 0.0, math.nan, math.nan, np.zeros(1), np.zeros(1), n,
                        {}, {}, SampleSet(u, length, u + length))
        x, cdf = res.ecdf("aoi")
        pooled = sim._quantile_grid(np.sort(np.concatenate([u, u + length])))
        assert np.array_equal(x, pooled)
        assert np.array_equal(cdf, empirical_aoi_cdf(u, length, pooled))

    def test_both_laws_read_one_sort(self):
        # both ecdfs and both KS distances check and sort the cycles once per
        # sample set, and the peak law reads the sorted ends: with no `peak`
        # it is unchanged, and at the default warm-up it is the sorted peaks'
        from dataclasses import replace

        from aoidual.sim import SampleSet

        p = FpParams(0.5, 0.1, 1.0, 2)
        summary = summarize(build_fp_model(p))
        res = simulate(SimConfig(p, FP, horizon=5_000, seed=2))
        blind = replace(res, samples=SampleSet(res.samples.u, res.samples.length, None))

        def laws(r):
            return (*r.ecdf("aoi"), *r.ecdf("paoi"), ks_against_table(r, summary.aoi_table),
                    ks_against_table(r, summary.paoi_table))

        with mock.patch.object(sim, "_sorted_cycles", wraps=sim._sorted_cycles) as spy:
            seen, seen_blind = laws(res), laws(blind)
        assert spy.call_count == 2
        for a, b in zip(seen, seen_blind):
            assert np.array_equal(a, b)
        x, cdf = seen[2:4]
        assert np.array_equal(cdf, empirical_paoi_cdf(np.sort(res.samples.peak), x))

    def test_cdf_outputs_monotone_in_unit_interval(self):
        cfg = SimConfig(ZwParams(1.0, 0.2), ZW, horizon=20_000, seed=3)
        res = simulate(cfg)
        for ys in (res.ecdf("aoi")[1], res.ecdf("paoi")[1]):
            assert np.all(np.diff(ys) >= -1e-12)
            assert ys[0] >= 0.0 and ys[-1] <= 1.0 + 1e-12


class TestKsMachinery:
    def test_table_against_itself_is_zero(self):
        table = summarize(build_fp_model(FpParams(0.5, 0.1, 1.0, 2))).aoi_table
        assert ks_distance(table.grid, table.cdf, table.grid, table.cdf) == 0.0

    def test_refuses_grids_it_cannot_read(self):
        # a reversed grid of the same curve, a NaN grid point, a cdf of another length
        x, cdf = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 1.0])
        nan_x = np.array([0.0, np.nan, 2.0])
        for bad_x, bad_cdf in ((x[::-1], cdf[::-1]), (nan_x, cdf)):
            with pytest.raises(ValueError, match="^x1 (must be sorted|holds a non-finite)"):
                ks_distance(bad_x, bad_cdf, x, cdf)
            with pytest.raises(ValueError, match="^x2 (must be sorted|holds a non-finite)"):
                ks_distance(x, cdf, bad_x, bad_cdf)
        with pytest.raises(ValueError, match="^cdf2 holds 2 values"):
            ks_distance(x, cdf, x, cdf[:2])
        with pytest.raises(ValueError, match="^cdf1 holds 4 values"):
            ks_distance(x, np.append(cdf, 1.0), x, cdf)
        # a NaN would read as a distance of NaN, an infinity as one of inf
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^cdf2 holds a non-finite entry"):
                ks_distance(x, cdf, x, [0.0, 0.5, bad])

    def test_mismatched_parameters_separate(self):
        t1 = summarize(build_fp_model(FpParams(0.5, 0.1, 1.0, 10))).aoi_table
        t2 = summarize(build_fp_model(FpParams(0.5, 0.2, 1.0, 10))).aoi_table
        assert ks_distance(t1.grid, t1.cdf, t2.grid, t2.cdf) > 0.02

    def test_mismatch_warning(self):
        p_table = FpParams(0.5, 0.2, 1.0, 2)
        table = summarize(build_fp_model(p_table)).aoi_table
        cfg = SimConfig(FpParams(0.5, 0.1, 1.0, 2), FP, horizon=5_000, seed=1)
        with pytest.warns(UserWarning, match="mu2"):
            ks = empirical_vs_analytic(cfg, table)
        assert ks > 0.01
        # a deterministic freeze, "k": "inf", against a finite-k table
        cfg = SimConfig(FpParams(0.5, 0.2, 1.0, math.inf), FP, horizon=5_000, seed=1)
        with pytest.warns(UserWarning, match="k=inf"):
            empirical_vs_analytic(cfg, table)

    def test_preempt_only_table_matches_config(self):
        from aoidual import preempt_only_params

        p = preempt_only_params(1.0, 0.4)
        table = summarize(build_fp_model(p)).aoi_table
        for params in (p, FpParams(1.0, 0.4, 1.0, 3), ZwParams(1.0, 0.4)):
            cfg = SimConfig(params, FP_PREEMPT_ONLY, horizon=5_000, seed=1,
                            replications=1)
            assert "freeze_rate" not in cfg.describe()
            assert "k" not in cfg.describe()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert empirical_vs_analytic(cfg, table) < 0.05

    def test_preempt_only_params_under_fp_match_their_table(self):
        from aoidual import preempt_only_params

        p = preempt_only_params(1, 0.3)
        table = summarize(build_fp_model(p)).aoi_table
        cfg = SimConfig(p, FP, horizon=5_000, seed=1, replications=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert empirical_vs_analytic(cfg, table) < 0.05

    def test_simulated_agreement_smoke(self):
        p = FpParams(0.5, 0.1, 1.0, 1)
        summary = summarize(build_fp_model(p))
        cfg = SimConfig(p, FP, horizon=200_000, seed=41, replications=1)
        res = simulate(cfg)
        assert ks_against_table(res, summary.aoi_table) < 0.01
        assert ks_against_table(res, summary.paoi_table) < 0.01

    def test_distances_match_bruteforce(self):
        # Starts and lengths on a quarter lattice tie starts with starts,
        # peaks with starts and peaks with grid points; a third are off it.
        from aoidual import DistributionTable
        from aoidual.sim import SampleSet, SimResult

        rng = np.random.default_rng(24)
        u = rng.integers(0, 24, 300) * 0.25
        length = rng.integers(1, 24, 300) * 0.25
        u[:100] += rng.uniform(0.0, 0.25, 100)
        length[:100] += rng.uniform(0.0, 0.25, 100)
        peak = u + length
        res = SimResult(0.0, 0.0, math.nan, math.nan, np.zeros(1), np.zeros(1), 300,
                        {}, {}, SampleSet(u, length, peak))
        grid = np.union1d(np.arange(0.0, 12.5, 1.0), rng.uniform(0.0, 12.0, 60))

        def age(x):
            return np.clip(x - u, 0.0, length).sum() / length.sum()

        def peak_age(x, before=False):
            return np.count_nonzero(peak < x if before else peak <= x) / 300

        # Tables near the empirical cdf (between both sides of its jumps),
        # above and below it, so the sup falls at fine kinks on either side.
        for shift in (0.02, -0.02):
            for kind, xs, sides in (
                    ("aoi", np.union1d(np.concatenate([u, peak]), grid), [age]),
                    ("paoi", np.union1d(peak, grid),
                     [peak_age, lambda x: peak_age(x, before=True)])):
                near = np.mean([[side(x) for x in grid] for side in sides], axis=0)
                near += rng.uniform(-0.02, 0.02, grid.size) + shift
                cdf = np.maximum.accumulate(np.clip(near, 0.0, 1.0))
                table = DistributionTable(grid, np.zeros(grid.size), cdf, 1.0, 2.0, 1.0,
                                          meta={"kind": kind})
                analytic = np.interp(xs, grid, cdf, left=0.0, right=cdf[-1])
                # at every breakpoint, for the step cdf at both sides of every jump
                brute = max(np.max(np.abs([side(x) for x in xs] - analytic)) for side in sides)
                assert ks_against_table(res, table) == pytest.approx(brute, abs=1e-12), kind

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20_000),
           lattice=st.floats(0.0, 1.0), points=st.integers(1, 300), on_lattice=st.booleans(),
           start=st.floats(0.0, 1.0), end=st.floats(0.98, 1.2),
           stretch=st.sampled_from([1.0, 1.3]), noise=st.sampled_from([1e-6, 1e-3]),
           dips=st.booleans(), kind=st.sampled_from(["aoi", "paoi"]))
    @example(seed=1, n=20_000, lattice=0.5, points=300, on_lattice=True, start=1.0, end=0.99,
             stretch=1.0, noise=1e-6, dips=True, kind="aoi")
    @example(seed=2, n=20_000, lattice=0.5, points=300, on_lattice=True, start=1.0, end=0.99,
             stretch=1.0, noise=1e-6, dips=True, kind="paoi")
    def test_coarse_search_matches_the_merge(self, seed, n, lattice, points, on_lattice, start,
                                             end, stretch, noise, dips, kind):
        # The search against every breakpoint, on samples with quarter-lattice
        # ties; grids that start at 0 or above the smallest sample with a jump
        # there, and that end before or after the last peak; tables near the
        # empirical cdf or a stretched one, with and without 1e-12 dips.
        from aoidual import DistributionTable
        from aoidual.sim import SampleSet, SimResult

        rng = np.random.default_rng(seed)
        u, length = rng.exponential(size=n), rng.exponential(size=n)
        tied = int(lattice * n)
        u[:tied], length[:tied] = rng.integers(0, 16, (2, tied)) * 0.25 + [[0.0], [0.25]]
        peak = u + length
        g0 = np.quantile(np.concatenate((u, peak)), 0.02 * start)
        g_end = np.quantile(peak, min(end, 1.0)) * max(end, 1.0)
        ties = np.arange(0.0, 8.0, 0.25) if on_lattice else []
        grid = np.concatenate(([g0], g0 + (g_end - g0) * rng.random(points), ties))
        grid = np.unique(grid[(grid >= g0) & (grid <= g_end)])
        law = (empirical_aoi_cdf(u, length, grid / stretch) if kind == "aoi"
               else empirical_paoi_cdf(np.sort(peak), grid / stretch))
        cdf = np.maximum.accumulate(np.clip(law + rng.normal(0.0, noise, grid.size), noise, 1.0))
        if dips:
            cdf[1::2] -= 0.99e-12
        table = DistributionTable(grid, np.zeros(grid.size), cdf, 1.0, 2.0, 1.0,
                                  meta={"kind": kind})
        res = SimResult(0.0, 0.0, math.nan, math.nan, np.zeros(1), np.zeros(1), n,
                        {}, {}, SampleSet(u, length, peak))
        seen, time_below = [], sim._time_below

        def spy(view, xs):
            seen.append((xs, time_below(view, xs)))
            return seen[-1][1]

        with mock.patch.object(sim, "_time_below", spy):
            ks = ks_against_table(res, table)
        assert ks == pytest.approx(_merge_ks(u, length, table), abs=1e-12)
        # on its grid the public empirical cdf is off the table by no more,
        # its values there being the search's, bit for bit
        empirical = empirical_aoi_cdf if kind == "aoi" else (
            lambda u, length, xs: empirical_paoi_cdf(np.sort(u + length), xs))
        assert np.max(np.abs(empirical(u, length, grid) - table.cdf)) <= ks
        for xs, got in seen:
            on = np.isin(xs, grid)
            assert np.array_equal(got[on], empirical_aoi_cdf(u, length, xs[on]))

    def test_coarse_search_evaluates_few_points(self):
        # a fallback to every breakpoint would evaluate all 2n starts and ends
        p = FpParams(0.5, 0.1, 1.0, 10)
        summary = summarize(build_fp_model(p))
        res = simulate(SimConfig(p, FP, horizon=200_000, seed=1, replications=1))
        seen, time_below = [], sim._time_below
        with mock.patch.object(sim, "_time_below",
                               lambda view, xs: seen.append(xs.size) or time_below(view, xs)):
            ks = ks_against_table(res, summary.aoi_table)
        assert ks < 5.0 / math.sqrt(res.cycle_count)
        assert 0 < sum(seen) < 0.05 * 2 * res.cycle_count

    def test_peak_search_evaluates_few_points(self):
        # a coarse stride near sqrt(n) / 8 leaves few gaps to refine; a fixed
        # stride of 256 refined up to 78% of the peaks at this size
        p = FpParams(0.5, 0.1, 1.0, 10)
        summary = summarize(build_fp_model(p))
        res = simulate(SimConfig(p, FP, horizon=200_000, seed=1, replications=1))
        seen, interp_cdf = [], sim._interp_cdf
        with mock.patch.object(sim, "_interp_cdf",
                               lambda table, xs: seen.append(xs.size) or interp_cdf(table, xs)):
            ks = ks_against_table(res, summary.paoi_table)
        assert ks < 5.0 / math.sqrt(res.cycle_count)
        assert 0 < sum(seen) < 0.1 * res.cycle_count

    def test_requires_samples(self):
        p = FpParams(0.5, 0.1, 1.0, 1)
        table = summarize(build_fp_model(p)).aoi_table
        cfg = SimConfig(p, FP, horizon=5_000, seed=1)
        res = simulate(cfg, keep_samples=False)
        with pytest.raises(ValueError):
            ks_against_table(res, table)

    def test_ecdf_requires_samples_and_a_kind(self, tmp_path):
        cfg = SimConfig(ZwParams(1, 0.3), ZW, horizon=5_000, seed=1)
        res = simulate(cfg, keep_samples=False)
        with pytest.raises(ValueError, match="keep_samples"):
            res.ecdf("aoi")
        with pytest.raises(ValueError, match="keep_samples"):
            res.cdf_to_csv("paoi", tmp_path / "paoi.csv")
        assert not (tmp_path / "paoi.csv").exists()
        with pytest.raises(ValueError, match="kind"):
            simulate(cfg).ecdf("age")

    def test_kind_required_when_untagged(self):
        from aoidual import DistributionTable

        table = DistributionTable(np.array([0.0, 1.0, 2.0]),
                                  np.array([0.0, 0.5, 0.25]),
                                  np.array([0.0, 0.4, 0.8]),
                                  mean=1.0, second_moment=1.5, variance=0.5)
        cfg = SimConfig(ZwParams(1, 1), ZW, horizon=5_000, seed=1)
        res = simulate(cfg)
        with pytest.raises(ValueError):
            ks_against_table(res, table)


def _merge_ks(u, length, table):
    """The sup distance at every breakpoint, by one stable merge of starts,
    peaks and grid points (peaks: at both sides of every jump)."""
    us, ps = np.sort(u), np.sort(u + length)
    interp = lambda xs: np.interp(xs, table.grid, table.cdf, left=0.0, right=table.cdf[-1])
    if table.meta["kind"] == "paoi":
        steps = np.arange(ps.size + 1) / ps.size
        fa = interp(ps)
        fe_grid = steps[np.searchsorted(ps, table.grid, side="right")]
        return max(np.max(steps[1:] - fa), np.max(fa - steps[:-1]),
                   np.max(np.abs(table.cdf - fe_grid)))
    # time at or below z: z - u summed over starts u <= z, less over peaks
    z = np.concatenate((us, ps, table.grid))
    order = np.argsort(z, kind="stable")
    z = z[order]
    sign = np.repeat([1.0, -1.0, 0.0], [us.size, us.size, table.grid.size])[order]
    fe = (z * np.cumsum(sign) - np.cumsum(sign * z)) / np.sum(length)
    return np.max(np.abs(fe - interp(z)))


class TestSerialization:
    def test_json_and_csv_outputs(self, tmp_path):
        import json

        cfg = SimConfig(ZwParams(1.0, 0.2), ZW, horizon=5_000, seed=3)
        res = simulate(cfg)
        res.to_json(tmp_path / "result.json")
        res.cdf_to_csv("aoi", tmp_path / "aoi.csv")
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["config"]["policy"] == "zw"
        assert payload["cycle_count"] == res.cycle_count
        header = (tmp_path / "aoi.csv").read_text().splitlines()[0]
        assert header == "x,cdf"
