"""Freeze/preempt chain constructions against structure checks and
simulation oracles."""

import json
import math

import numpy as np
import pytest

from aoidual import (
    FP,
    FpParams,
    FpStateIndex,
    RmcStateIndex,
    SimConfig,
    absorption_probability,
    aoi_mean,
    paoi_mean,
    build_fp_amc,
    build_fp_model,
    build_fp_rmc,
    fp_aoi_mask,
    fp_initial_vector,
    preempt_only_params,
    rmc_stationary,
    simulate,
)

PHASED = (1, 2, 4, 6, 8, 10, 11, 12, 13)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FpParams(1.0, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            FpParams(1.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            FpParams(-1.0, 1.0, 1.0, 1)

    def test_rate_ordering(self):
        p = FpParams(0.1, 0.5, 1.0, 3)
        assert (p.mu1, p.mu2, p.swapped) == (0.5, 0.1, True)

    def test_preempt_only_convenience(self):
        p = preempt_only_params(1.0, 0.3)
        assert p.k == 1 and math.isinf(p.freeze_rate)


class TestStateIndex:
    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_bijection(self, k):
        idx = FpStateIndex(k)
        assert idx.size == 9 * k + 5
        seen = set()
        for state in idx.states():
            i = idx.index(state)
            assert 0 <= i < idx.size
            assert i not in seen
            seen.add(i)
            assert idx.state(i) == state
        assert len(seen) == idx.size

    def test_rmc_index_size(self):
        assert RmcStateIndex(4).size == 5 * 4 + 2

    def test_json_export(self):
        d = FpStateIndex(2).as_dict()
        payload = json.loads(json.dumps(d))
        assert payload["1,1"] == 0
        assert payload["14"] == 9 * 2 + 4
        assert len(payload) == 9 * 2 + 5


class TestAmcStructure:
    def test_dimensions(self):
        amc1 = build_fp_amc(FpParams(0.5, 0.1, 1.0, 1))
        assert amc1.S.shape == (14, 14) and amc1.V.shape == (14, 2)
        amc50 = build_fp_amc(FpParams(0.5, 0.1, 1.0, 50))
        assert amc50.S.shape == (455, 455)

    def test_rows_sum_to_zero(self, rng):
        for _ in range(5):
            mu = rng.uniform(0.05, 4.0, size=2)
            lam = rng.uniform(0.05, 20.0)
            k = int(rng.integers(1, 12))
            amc = build_fp_amc(FpParams(*mu, lam, k))
            sums = amc.S.sum(axis=1) + amc.V.sum(axis=1)
            np.testing.assert_allclose(sums, 0.0, atol=1e-12)

    def test_waiting_pair_state_row(self):
        p = FpParams(0.7, 0.2, 1.3, 4)
        amc = build_fp_amc(p)
        idx = FpStateIndex(4)
        i = idx.index(14)
        row_s = amc.S[i].copy()
        row_s[i] = 0.0
        assert np.all(row_s == 0.0)
        assert amc.V[i, 0] == pytest.approx(0.9)
        assert amc.V[i, 1] == 0.0

    def test_phase_ladders(self):
        p = FpParams(0.5, 0.1, 2.0, 5)
        amc = build_fp_amc(p)
        idx = FpStateIndex(5)
        step = 5 * 2.0
        for fam in PHASED:
            for ell in range(1, 5):
                assert amc.S[idx.index((fam, ell)), idx.index((fam, ell + 1))] == step

    def test_freeze_end_targets(self):
        p = FpParams(0.5, 0.1, 2.0, 3)
        amc = build_fp_amc(p)
        idx = FpStateIndex(3)
        step = 3 * 2.0
        targets = {1: (4, 1), 2: (8, 1), 4: 3, 6: 5, 8: 7, 10: 9,
                   11: (12, 1), 12: 14, 13: 14}
        for fam, dst in targets.items():
            assert amc.S[idx.index((fam, 3)), idx.index(dst)] == step

    def test_absorption_sources(self):
        p = FpParams(0.8, 0.3, 1.0, 3)
        amc = build_fp_amc(p)
        idx = FpStateIndex(3)
        fail_states = {3, 7} | {(f, e) for f in (4, 8) for e in (1, 2, 3)}
        success_states = {14} | {(f, e) for f in (12, 13) for e in (1, 2, 3)}
        for state in idx.states():
            i = idx.index(state)
            if state in fail_states:
                assert amc.V[i, 1] > 0.0 and amc.V[i, 0] == 0.0
            elif state in success_states:
                assert amc.V[i, 0] > 0.0 and amc.V[i, 1] == 0.0
            else:
                assert np.all(amc.V[i] == 0.0)

    def test_mid_freeze_preemption_idles_both_servers(self):
        # delivering the tagged packet past a staler companion leaves both
        # servers idle in the same freeze phase, from either server
        p = FpParams(0.8, 0.3, 1.0, 3)
        amc = build_fp_amc(p)
        idx = FpStateIndex(3)
        for ell in (1, 2, 3):
            assert amc.S[idx.index((6, ell)), idx.index((11, ell))] == p.mu1
            assert amc.S[idx.index((10, ell)), idx.index((11, ell))] == p.mu2


class TestRmc:
    def test_dimension(self):
        assert build_fp_rmc(FpParams(0.5, 0.1, 1.0, 1)).shape == (7, 7)

    def test_rows_sum_to_zero(self):
        P = build_fp_rmc(FpParams(0.9, 0.2, 3.0, 6))
        np.testing.assert_allclose(P.sum(axis=1), 0.0, atol=1e-12)

    def test_unfrozen_fresher_on_two_state(self):
        p = FpParams(0.9, 0.2, 3.0, 4)
        P = build_fp_rmc(p)
        idx = RmcStateIndex(4)
        row = P[idx.index(6)].copy()
        assert row[idx.index((5, 1))] == p.mu1
        assert row[idx.index((2, 1))] == p.mu2
        row[idx.index((5, 1))] = row[idx.index((2, 1))] = 0.0
        row[idx.index(6)] = 0.0
        assert np.all(row == 0.0)

    def test_idle_family_has_single_exit(self):
        p = FpParams(0.9, 0.2, 3.0, 4)
        P = build_fp_rmc(p)
        idx = RmcStateIndex(4)
        for ell in range(1, 4):
            row = P[idx.index((1, ell))].copy()
            assert row[idx.index((1, ell + 1))] == 4 * 3.0
            row[idx.index((1, ell + 1))] = 0.0
            row[idx.index((1, ell))] = 0.0
            assert np.all(row == 0.0)

    def test_stationary_residual_and_positivity(self, rng):
        for _ in range(5):
            mu = rng.uniform(0.05, 4.0, size=2)
            p = FpParams(*mu, rng.uniform(0.1, 10.0), int(rng.integers(1, 10)))
            P = build_fp_rmc(p)
            st = rmc_stationary(P, p)
            assert np.max(np.abs(st.pi @ P)) <= 1e-10 * max(1.0, np.abs(np.diag(P)).max())
            assert st.pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(st.pi > 0.0)  # irreducible chain
            assert st.packet_rate > 0.0

    def test_malformed_generator_signalled(self):
        p = FpParams(1.0, 0.5, 1.0, 2)
        P = np.zeros((5 * 2 + 2, 5 * 2 + 2))  # all-absorbing, reducible
        with pytest.raises((RuntimeError, np.linalg.LinAlgError)):
            rmc_stationary(P, p)

    def test_nan_generator_signalled(self):
        p = FpParams(1.0, 0.5, 1.0, 2)
        P = build_fp_rmc(p)
        P[0, 1] = np.nan
        with pytest.raises(RuntimeError, match="residual"):
            rmc_stationary(P, p)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_freeze_rate_signalled(self):
        p = preempt_only_params(1.0, 0.3)
        with pytest.raises(RuntimeError, match="residual"):
            rmc_stationary(build_fp_rmc(p), p)

    def test_packet_rate_bounds(self):
        p = FpParams(0.5, 0.1, 1.0, 1)
        st = rmc_stationary(build_fp_rmc(p), p)
        assert 0.0 < st.packet_rate <= p.mu1 + p.mu2 + p.freeze_rate

    def test_occupancy_against_event_simulation(self):
        # long-run oracle: 1e7 jump events, batch-means standard errors
        p = FpParams(0.7, 0.3, 0.9, 2)
        P = build_fp_rmc(p)
        st = rmc_stationary(P, p)
        frac, se = _simulate_rmc_occupancy(P, n_events=10_000_000, seed=42)
        for i in range(P.shape[0]):
            assert abs(st.pi[i] - frac[i]) <= 3.0 * se[i]

    def test_packet_rate_against_simulation(self):
        p = FpParams(0.5, 0.1, 1.0, 1)
        st = rmc_stationary(build_fp_rmc(p), p)
        cfg = SimConfig(p, FP, horizon=250_000, seed=13, replications=4)
        res = simulate(cfg, keep_samples=False)
        # entries and elapsed time are both summed across replications
        rate_hat = sum(res.stats["entry_counts"]) / res.stats["elapsed"]
        assert rate_hat == pytest.approx(st.packet_rate, rel=0.01)


def _simulate_rmc_occupancy(P, n_events, seed, n_batches=100):
    rng = np.random.default_rng(seed)
    n = P.shape[0]
    rates = (-np.diag(P)).tolist()
    exits = []
    for i in range(n):
        row = P[i].copy()
        row[i] = 0.0
        nz = np.nonzero(row)[0]
        cum = np.cumsum(row[nz] / -P[i, i]).tolist()
        exits.append((cum, nz.tolist()))
    occupancy = np.zeros((n_batches, n))
    per_batch = n_events // n_batches
    state = 0
    ubuf = rng.random(1 << 16).tolist()
    upos = 0
    for b in range(n_batches):
        occ = occupancy[b]
        for _ in range(per_batch):
            if upos >= len(ubuf) - 1:
                ubuf = rng.random(1 << 16).tolist()
                upos = 0
            hold = -math.log1p(-ubuf[upos]) / rates[state]
            pick = ubuf[upos + 1]
            upos += 2
            occ[state] += hold
            cum, targets = exits[state]
            j = 0
            while pick > cum[j]:
                j += 1
            state = targets[j]
    fractions = occupancy / occupancy.sum(axis=1, keepdims=True)
    mean = fractions.mean(axis=0)
    se = fractions.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return mean, se


class TestInitialVector:
    def test_components_sum_to_one(self, rng):
        for _ in range(8):
            mu = rng.uniform(0.05, 4.0, size=2)
            p = FpParams(*mu, rng.uniform(0.05, 20.0), int(rng.integers(1, 15)))
            st = rmc_stationary(build_fp_rmc(p), p)
            init = fp_initial_vector(p, st)
            assert init.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_is_three_entry_states(self):
        p = FpParams(0.5, 0.1, 1.0, 7)
        st = rmc_stationary(build_fp_rmc(p), p)
        init = fp_initial_vector(p, st)
        idx = FpStateIndex(7)
        support = {idx.index((1, 1)), idx.index((10, 1)), idx.index((6, 1))}
        nonzero = set(np.nonzero(init)[0].tolist())
        assert nonzero == support

    def test_matches_entry_states_seen_in_simulation(self):
        p = FpParams(0.5, 0.1, 1.0, 10)
        st = rmc_stationary(build_fp_rmc(p), p)
        init = fp_initial_vector(p, st)
        idx = FpStateIndex(10)
        analytic = np.array([init[idx.index((1, 1))],
                             init[idx.index((10, 1))],
                             init[idx.index((6, 1))]])
        cfg = SimConfig(p, FP, horizon=250_000, seed=29, replications=4)
        res = simulate(cfg, keep_samples=False)
        per_rep = np.array(res.stats["per_rep"]["entry_counts"], dtype=float)
        fractions = per_rep / per_rep.sum(axis=1, keepdims=True)
        mean = fractions.mean(axis=0)
        se = fractions.std(axis=0, ddof=1) / math.sqrt(fractions.shape[0])
        for a, m, s in zip(analytic, mean, se):
            assert abs(a - m) <= 3.0 * s


class TestAoiMask:
    def test_cardinality(self):
        assert fp_aoi_mask(1).sum() == 4
        assert fp_aoi_mask(1).shape == (14,)
        assert fp_aoi_mask(10).sum() == 31
        assert fp_aoi_mask(10).shape == (95,)

    def test_pre_delivery_families_unmasked(self):
        k = 6
        mask = fp_aoi_mask(k)
        idx = FpStateIndex(k)
        for fam in (1, 2, 4, 6, 8, 10):
            for ell in range(1, k + 1):
                assert mask[idx.index((fam, ell))] == 0.0
        for singleton in (3, 5, 7, 9):
            assert mask[idx.index(singleton)] == 0.0
        assert mask[idx.index(14)] == 1.0


class TestModelPipeline:
    def test_absorption_probabilities_complete(self, rng):
        for _ in range(5):
            mu = rng.uniform(0.05, 3.0, size=2)
            p = FpParams(*mu, rng.uniform(0.1, 5.0), int(rng.integers(1, 8)))
            model = build_fp_model(p)
            total = sum(absorption_probability(model, m) for m in range(2))
            assert total == pytest.approx(1.0, abs=1e-10)
            assert absorption_probability(model, 0) > 0.0

    def test_preemption_only_limit_is_stable(self):
        # shrink-the-freeze limit: values settle to 6 significant digits
        values = [aoi_mean(build_fp_model(FpParams(1.0, 0.3, lam, 1)))
                  for lam in (1e6, 1e7, 1e8)]
        assert abs(values[1] - values[0]) / values[0] <= 1e-6
        assert abs(values[2] - values[1]) / values[1] <= 1e-6
        exact = aoi_mean(build_fp_model(preempt_only_params(1.0, 0.3)))
        assert abs(values[2] - exact) / exact <= 1e-7

    def test_homogeneous_preempt_only_closed_value(self):
        # equal service rates: preemption alone reduces mean age from
        # 1.25/mu (zero wait) to 1.125/mu, a 10% improvement
        model = build_fp_model(preempt_only_params(2.0, 2.0))
        assert aoi_mean(model) == pytest.approx(1.125 / 2.0, rel=1e-6)


class TestPreemptOnlyChain:
    """The exact limit chain against its closed forms."""

    PAIRS = [(1.0, 0.3), (1.0, 1.0), (0.5, 0.1), (2.0, 2.0), (1.0, 0.01),
             (3.0, 0.2), (0.3, 1.0), (0.1, 0.5)]

    @pytest.mark.parametrize("mu1,mu2", PAIRS)
    def test_closed_forms(self, mu1, mu2):
        model = build_fp_model(preempt_only_params(mu1, mu2))
        a, b = max(mu1, mu2), min(mu1, mu2)
        mean = (a + 2 * b) * (2 * a + b) / (a + b) ** 3
        success = (a + b) * (2 * a + b) / (3 * a * a + 4 * a * b + 2 * b * b)
        assert model.order == 5
        assert aoi_mean(model) == pytest.approx(mean, rel=1e-12)
        assert paoi_mean(model) == pytest.approx(mean, rel=1e-12)
        assert absorption_probability(model, 0) == pytest.approx(success, rel=1e-12)

    def test_metadata_names_the_limit(self):
        meta = build_fp_model(preempt_only_params(0.3, 1.0)).meta
        assert meta["policy"] == "fp_preempt_only" and meta["swapped"]
        assert (meta["mu1"], meta["mu2"]) == (1.0, 0.3)
        assert "freeze_rate" not in meta and "k" not in meta
