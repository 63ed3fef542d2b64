"""Simulator behavior: determinism, bookkeeping identities, and
agreement with the analytic models."""

import math
import warnings

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

    def test_freeze_preempt_shorter_run_is_a_prefix(self):
        # fixed-size draw blocks: the horizon decides where a run stops,
        # not what it draws
        p = FpParams(0.5, 0.1, 1.0, 3)
        short = sim._run_fp(p, 50_000, sim._rep_rng(5, 0))
        long = sim._run_fp(p, 150_000, sim._rep_rng(5, 0))
        assert np.array_equal(short[0], long[0][:50_000])
        assert np.array_equal(short[1], long[1][:50_000])


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
        freezes = sim._fp_block(sim._rep_rng(0, 0), p)[0]
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
        self.events = self._stream(mu1, mu2, n, rng)
        self.seq, self.last_seq = 2, 0
        self.gen, self.num = [0.0, 0.0], [1, 2]
        self.delivered, self.generated = [], []
        self.u, self.length, self.peak = [], [], []
        self.prev_d = self.prev_u = self.last_gen = 0.0

    @staticmethod
    def _stream(mu1, mu2, n, rng):
        t = 0.0
        while True:
            gaps, marks = sim._block(rng, mu1, mu2, n)
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
            yield from zip(*(b.tolist() for b in sim._fp_block(rng, p)))

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

    @pytest.mark.parametrize("policy", [ZW, FP_PREEMPT_ONLY])
    @given(mu1=st.floats(0.01, 10.0), log_ratio=st.floats(-3.0, 3.0),
           n=st.integers(2, 3000), warm=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(mu1=1.0, log_ratio=0.0, n=50, warm=0.0, seed=0)
    @example(mu1=1.0, log_ratio=-3.0, n=3000, warm=0.0, seed=1)
    def test_match_the_event_rules(self, policy, mu1, log_ratio, n, warm, seed):
        mu2 = mu1 * 10.0 ** log_ratio
        warmup = int(warm * (n - 2))
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

    @given(mu1=st.floats(0.01, 10.0), log_ratio=st.floats(-3.0, 3.0),
           log_freeze=st.floats(-2.0, 3.0), k=st.integers(1, 50),
           n=st.integers(2, 3000), warm=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(mu1=1.0, log_ratio=0.0, log_freeze=0.0, k=1, n=50, warm=0.0, seed=0)
    @example(mu1=1.0, log_ratio=-3.0, log_freeze=-1.3, k=5, n=3000, warm=0.0,
             seed=1)
    @example(mu1=1.0, log_ratio=0.0, log_freeze=3.0, k=2, n=3000, warm=0.0,
             seed=2)
    def test_freeze_preempt_matches_the_event_rules(self, mu1, log_ratio,
                                                    log_freeze, k, n, warm, seed):
        p = FpParams(mu1, mu1 * 10.0 ** log_ratio, 10.0 ** log_freeze, k)
        warmup = int(warm * (n - 2))
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
