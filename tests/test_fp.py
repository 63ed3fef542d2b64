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
    erlang_ph,
    fp_aoi_mask,
    fp_initial_vector,
    fp_means,
    preempt_only_params,
    rmc_stationary,
    simulate,
)
from aoidual import zw
from aoidual.fp import _LOST, _OK, _RULES, _entry_chain, _settled
from conftest import rmc_entry_vector

PHASED = (1, 2, 4, 6, 8, 10, 11, 12, 13)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FpParams(1.0, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            FpParams(1.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            FpParams(-1.0, 1.0, 1.0, 1)
        for mu1, mu2 in ((math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                FpParams(mu1, mu2, 1.0, 1)
        # an infinite freeze rate stays legal: it is preemption-only
        assert math.isinf(FpParams(1.0, 1.0, math.inf, 1).freeze_rate)

    def test_rate_ordering(self):
        p = FpParams(0.1, 0.5, 1.0, 3)
        assert (p.mu1, p.mu2, p.swapped) == (0.5, 0.1, True)

    def test_preempt_only_convenience(self):
        p = preempt_only_params(1.0, 0.3)
        assert p.k == 1 and math.isinf(p.freeze_rate)

    @pytest.mark.parametrize("k", [math.nan, 2.5, -math.inf, "3"])
    def test_erlang_order_errors_name_k(self, k):
        with pytest.raises(ValueError, match="Erlang order k"):
            FpParams(1.0, 1.0, 1.0, k)

    def test_deterministic_freeze_is_accepted_by_the_parameters_only(self):
        p = FpParams(1.0, 0.5, 2.0, math.inf)
        assert p.k == math.inf and p.meta()["k"] == "inf"
        assert FpParams(1.0, 0.5, 2.0, 3.0).k == 3
        with pytest.raises(ValueError, match="Erlang order k"):
            erlang_ph(1.0, math.inf)
        with pytest.raises(ValueError, match="not phase-type"):
            FpStateIndex(math.inf)

    def test_deterministic_freeze_meta_is_not_null_in_json(self, tmp_path):
        from aoidual import _io

        path = tmp_path / "meta.json"
        _io.write_json(path, FpParams(1.0, 0.5, 2.0, math.inf).meta())
        assert json.loads(path.read_text())["k"] == "inf"


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
        assert payload["6,1"] == 0  # visiting order
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
        P = build_fp_rmc(p).toarray()
        idx = RmcStateIndex(4)
        row = P[idx.index(6)].copy()
        assert row[idx.index((5, 1))] == p.mu1
        assert row[idx.index((2, 1))] == p.mu2
        row[idx.index((5, 1))] = row[idx.index((2, 1))] = 0.0
        row[idx.index(6)] = 0.0
        assert np.all(row == 0.0)

    def test_idle_family_has_single_exit(self):
        p = FpParams(0.9, 0.2, 3.0, 4)
        P = build_fp_rmc(p).toarray()
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
            P = P.toarray()
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
        P = build_fp_rmc(p).toarray()
        P[0, 1] = np.nan
        with pytest.raises(RuntimeError, match="residual"):
            rmc_stationary(P, p)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_freeze_rate_signalled(self):
        p = preempt_only_params(1.0, 0.3)
        with pytest.raises(RuntimeError, match="residual"):
            rmc_stationary(build_fp_rmc(p), p)

    def test_vanishing_last_state(self):
        # fast servers, long near-deterministic freezes: the unfrozen
        # states are almost never reached (pi[-1] underflows to 0), so the
        # solve must not scale by them; compare with a dense bordered solve
        p = FpParams(1e5, 1e5, 0.01, 200)
        P = build_fp_rmc(p)
        A = P.toarray().T
        A[-1] = 1.0
        dense = np.linalg.solve(A, np.eye(A.shape[0])[-1])
        st = rmc_stationary(P, p)
        np.testing.assert_allclose(st.pi, dense, rtol=1e-10, atol=1e-16)
        assert st.pi[-1] < 1e-100
        chain = build_fp_model(p)
        assert aoi_mean(chain) == pytest.approx(50.250009999999946, rel=1e-12)
        assert paoi_mean(chain) == pytest.approx(100.00000999999999, rel=1e-12)

    def test_packet_rate_bounds(self):
        p = FpParams(0.5, 0.1, 1.0, 1)
        st = rmc_stationary(build_fp_rmc(p), p)
        assert 0.0 < st.packet_rate <= p.mu1 + p.mu2 + p.freeze_rate

    def test_occupancy_against_event_simulation(self):
        # long-run oracle: 1e7 jump events over independent chains
        p = FpParams(0.7, 0.3, 0.9, 2)
        P = build_fp_rmc(p).toarray()
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


def _simulate_rmc_occupancy(P, n_events, seed, n_chains=1000, burn_in=1000):
    """Time fractions per state of ``n_chains`` independent jump chains run
    in lockstep from state 0, ``burn_in`` jumps discarded and ``n_events``
    counted in all; the standard errors are taken across chains."""
    rng = np.random.default_rng(seed)
    n = P.shape[0]
    rates = -np.diag(P)
    cum = np.cumsum(np.where(np.eye(n, dtype=bool), 0.0, P), axis=1)
    cum /= cum[:, -1:]  # the last entry exactly 1
    state = np.zeros(n_chains, dtype=np.intp)
    chains = np.arange(n_chains)
    occupancy = np.zeros((n_chains, n))
    for step in range(burn_in + n_events // n_chains):
        if step >= burn_in:
            occupancy[chains, state] += rng.standard_exponential(n_chains) / rates[state]
        u = 1.0 - rng.random(n_chains)  # in (0, 1]: never a zero-rate target
        state = np.count_nonzero(u[:, None] > cum[state], axis=1)
    fractions = occupancy / occupancy.sum(axis=1, keepdims=True)
    return fractions.mean(axis=0), fractions.std(axis=0, ddof=1) / math.sqrt(n_chains)


class TestInitialVector:
    def test_components_sum_to_one(self, rng):
        for _ in range(8):
            mu = rng.uniform(0.05, 4.0, size=2)
            p = FpParams(*mu, rng.uniform(0.05, 20.0), int(rng.integers(1, 15)))
            init = fp_initial_vector(p)
            assert init.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_is_three_entry_states(self):
        p = FpParams(0.5, 0.1, 1.0, 7)
        init = fp_initial_vector(p)
        idx = FpStateIndex(7)
        support = {idx.index((1, 1)), idx.index((10, 1)), idx.index((6, 1))}
        nonzero = set(np.nonzero(init)[0].tolist())
        assert nonzero == support

    @pytest.mark.parametrize("k", [1, 10, 1000])
    def test_matches_the_recurrent_chain(self, k):
        # the closed form is the entry chain's stationary law, and the
        # recurrent chain weighted by its packet-generating events agrees
        p = FpParams(0.5, 0.1, 1.0, k)
        idx = FpStateIndex(k)
        entry = fp_initial_vector(p)[[idx.first[1], idx.first[10], idx.first[6]]]
        np.testing.assert_allclose(entry @ _entry_chain(p), entry, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(entry, rmc_entry_vector(p), rtol=0.0, atol=1e-13)

    @staticmethod
    def _hitting(S, src, dst):
        """Probability that the chain started in ``src`` reaches ``dst``
        before absorbing: one dense solve, with ``dst`` made absorbing."""
        keep = np.arange(S.shape[0]) != dst
        return np.linalg.solve(S[np.ix_(keep, keep)], -S[keep, dst])[src - (src > dst)]

    def _entry_hits(self, p):
        # the packet that starts next is the tagged packet's fresher neighbour:
        # from A the tagged packet reaches (4,1) (a fresh packet on server 2,
        # state B), from B (8,1) (on server 1, state C), from C (4,1)
        S, idx = build_fp_amc(p).S, FpStateIndex(p.k)
        return [self._hitting(S, idx.index(src), idx.index(dst))
                for src, dst in (((1, 1), (4, 1)), ((10, 1), (8, 1)), ((6, 1), (4, 1)))]

    @pytest.mark.parametrize("k", [1, 3, 7, 50])
    @pytest.mark.parametrize("mu1,mu2,lam", [(0.5, 0.1, 1.0), (1.0, 0.7, 3.0)])
    def test_entry_chain_is_hitting_probabilities_of_the_cycle_chain(self, mu1, mu2, lam, k):
        p = FpParams(mu1, mu2, lam, k)
        P = _entry_chain(p)
        np.testing.assert_allclose(self._entry_hits(p), [P[0, 1], P[1, 2], P[2, 1]],
                                   rtol=0.0, atol=2e-15)

    @pytest.mark.parametrize("k", [1, 3, 50, 200])
    @pytest.mark.parametrize("mu1,mu2,lam", [(0.5, 0.1, 1.0), (1.0, 0.7, 3.0)])
    def test_matches_the_stationary_law_of_the_hitting_probabilities(self, mu1, mu2, lam, k):
        p = FpParams(mu1, mu2, lam, k)
        ab, bc, cb = self._entry_hits(p)
        P = np.array([[1 - ab, ab, 0], [1 - bc, 0, bc], [1 - cb, cb, 0]])
        A = np.vstack(((P - np.eye(3)).T, np.ones(3)))
        pi = np.linalg.lstsq(A, [0.0, 0.0, 0.0, 1.0], rcond=None)[0]
        idx = FpStateIndex(k)
        entry = fp_initial_vector(p)[[idx.index((1, 1)), idx.index((10, 1)), idx.index((6, 1))]]
        np.testing.assert_allclose(entry, pi, rtol=0.0, atol=1e-13)

    def test_matches_entry_states_seen_in_simulation(self):
        # pooled entry fractions, with standard errors from the entry
        # chain's exact asymptotic variance pi_i (2 Z_ii - 1 - pi_i),
        # Z = (I - P + 1 pi)^-1 (Kemeny and Snell, Finite Markov Chains)
        p = FpParams(0.5, 0.1, 1.0, 10)
        idx = FpStateIndex(10)
        analytic = fp_initial_vector(p)[[idx.first[1], idx.first[10], idx.first[6]]]
        Z = np.linalg.inv(np.eye(3) - _entry_chain(p) + analytic)
        cfg = SimConfig(p, FP, horizon=250_000, seed=29, replications=4)
        res = simulate(cfg, keep_samples=False)
        counts = np.array(res.stats["entry_counts"], dtype=float)
        se = np.sqrt(analytic * (2.0 * np.diag(Z) - 1.0 - analytic) / counts.sum())
        assert np.all(np.abs(counts / counts.sum() - analytic) <= 3.0 * se)


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

    def test_build_factors_one_chain(self, monkeypatch):
        # the recurrent chain is a test reference only: a build solves no
        # stationary law and factors the cycle chain once
        import aoidual.fp as fp_module
        import aoidual.phasetype as phasetype_module

        def forbidden(*args, **kwargs):
            raise AssertionError("a build used the recurrent chain")

        factored = []

        def counted(A, **options):
            factored.append(A.shape)
            return real(A, **options)

        real = phasetype_module.splu
        monkeypatch.setattr(fp_module, "build_fp_rmc", forbidden)
        monkeypatch.setattr(fp_module, "rmc_stationary", forbidden)
        monkeypatch.setattr(fp_module, "splu", counted)
        monkeypatch.setattr(phasetype_module, "splu", counted)
        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, 10))
        assert factored == [(95, 95)]
        assert "stationary_residual" not in chain.meta

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

    @staticmethod
    def _hand_written(a, b):
        """The 5-state chain written out by hand, an oracle for the
        zero-freeze collapse of the rule table. States: 0/1 tagged on
        server 1 with a staler/fresher packet on server 2, 2/3 the mirror
        images, 4 tagged delivered; the initial vector weights the
        generating events by the odds a : a + b that server 1 : server 2
        holds the fresher packet."""
        S, V = np.zeros((5, 5)), np.zeros((5, 2))
        S[0, 4], S[0, 1] = a, b
        S[1, 4], V[1, 1] = a, b
        S[2, 4], S[2, 3] = b, a
        S[3, 4], V[3, 1] = b, a
        V[4, 0] = a + b
        np.fill_diagonal(S, -(S.sum(axis=1) + V.sum(axis=1)))
        init = np.array([a * (a + b), a * a + a * b + b * b, (a + b) ** 2, 0.0, 0.0])
        return S, V, init / init.sum(), np.eye(5)[4]

    @pytest.mark.parametrize("mu1,mu2", PAIRS)
    def test_collapse_matches_the_hand_written_chain(self, mu1, mu2):
        model = build_fp_model(preempt_only_params(mu1, mu2))
        S, V, init, mask = self._hand_written(max(mu1, mu2), min(mu1, mu2))
        np.testing.assert_array_equal(model.S, S)
        np.testing.assert_array_equal(model.V, V)
        np.testing.assert_array_equal(model.aoi_mask, mask)
        np.testing.assert_allclose(model.init, init, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_any_erlang_order_gives_the_limit(self, k):
        # analyze --policy fp --lambda inf passes any --k through
        for mu1, mu2 in self.PAIRS:
            want = build_fp_model(preempt_only_params(mu1, mu2))
            got = build_fp_model(FpParams(mu1, mu2, math.inf, k))
            for field in ("S", "V", "init", "aoi_mask"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
            assert got.meta == want.meta


class TestRuleTable:
    """The one freeze/preempt rule table that every chain reads."""

    FROZEN = {fam for fam, (exit_, _) in _RULES.items() if exit_ is not None}

    def test_destinations_are_families_or_absorbing_columns(self):
        for exit_, moves in _RULES.values():
            assert exit_ is None or exit_ in _RULES
            assert set(moves) <= {1, 2}
            assert all(dst in _RULES or dst in (_OK, _LOST) for dst in moves.values())

    def test_every_exit_chain_ends_at_a_singleton(self):
        for fam in self.FROZEN:
            chain = [fam]
            while _RULES[chain[-1]][0] is not None:
                chain.append(_RULES[chain[-1]][0])
                assert len(chain) <= len(_RULES), f"exits of {fam} cycle"
            assert chain[-1] not in self.FROZEN and _settled(fam) == chain[-1]
        assert {fam: _settled(fam) for fam in self.FROZEN} == {
            1: 3, 2: 7, 4: 3, 6: 5, 8: 7, 10: 9, 11: 14, 12: 14, 13: 14}

    def test_singletons_leave_at_both_service_rates(self):
        # no freeze runs in a singleton, so both servers are busy
        p = FpParams(0.7, 0.2, 1.3, 3)
        amc, idx = build_fp_amc(p), FpStateIndex(3)
        for fam in set(_RULES) - self.FROZEN:
            assert set(_RULES[fam][1]) == {1, 2}
            i = idx.index(fam)
            assert -amc.S[i, i] == p.mu1 + p.mu2

    @pytest.mark.parametrize("k", [1, 4, 50])
    def test_index_phases_the_frozen_families(self, k):
        assert FpStateIndex(k).phased == self.FROZEN == set(PHASED)

    def test_zero_wait_destinations_are_states_or_absorbing_columns(self):
        assert list(zw._RULES) == list(range(1, 8))
        for exit_, moves in zw._RULES.values():
            assert exit_ is None  # both servers always busy: no freeze, no phase
            assert set(moves) == {1, 2}
            assert all(dst in zw._RULES or dst in (_OK, _LOST) for dst in moves.values())

    @pytest.mark.parametrize("mu1,mu2", [(0.7, 0.2), (1.0, 1.0), (1e3, 1e-3)])
    def test_zero_wait_states_leave_at_both_service_rates(self, mu1, mu2):
        chain = zw.build_zw_amc(zw.ZwParams(mu1, mu2))
        np.testing.assert_array_equal(-np.diag(chain.S), np.full(7, mu1 + mu2))
        off = chain.S - np.diag(np.diag(chain.S))
        np.testing.assert_array_equal(off.sum(axis=1) + chain.V.sum(axis=1),
                                      np.full(7, mu1 + mu2))


def _dense_means(chain):
    """Mean age and mean peak age solved densely from ``chain.S``."""
    means = []
    for w in (chain.aoi_mask, chain.V[:, 0]):
        y = np.linalg.solve(chain.S, w)
        means.append(float(chain.init @ np.linalg.solve(chain.S, y))
                     / -float(chain.init @ y))
    return means


class TestSparseChain:
    """The sparse, once-factored chain against dense solves and its sizes."""

    #: Fig. 3 (mu1, mu2, freeze rate) = (0.5, 0.1, 1): pinned (mean age,
    #: mean peak age) by Erlang order.
    FIG3_MEANS = {1: (3.5681912650650345, 4.07380690639944),
                  10: (3.4148343489686597, 3.920047386542909),
                  50: (3.4046771897006667, 3.9031314715068115)}

    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_means_match_dense_solves(self, k):
        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, k))
        means = (aoi_mean(chain), paoi_mean(chain))
        for got, dense, pinned in zip(means, _dense_means(chain), self.FIG3_MEANS[k]):
            assert got == pytest.approx(dense, rel=1e-12, abs=0.0)
            assert got == pytest.approx(pinned, rel=1e-12, abs=0.0)

    def test_sizes_at_k50(self):
        p = FpParams(0.5, 0.1, 1.0, 50)
        chain = build_fp_model(p)
        assert chain.order == 455 and chain.S_csc.nnz == 1311
        assert np.count_nonzero(chain.S) == 1311
        assert build_fp_rmc(p).shape == (252, 252)

    def test_library_paths_never_densify(self):
        from aoidual import GridSpec, summarize

        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, 50))
        summarize(chain, GridSpec(points=200))
        aoi_mean(chain), paoi_mean(chain)
        assert "S" not in vars(chain)
        dense = chain.S  # built on first read, then kept
        assert "S" in vars(chain) and chain.S is dense
        np.testing.assert_array_equal(dense, chain.S_csc.toarray())
        assert not dense.flags.writeable

    def test_with_init_shares_the_factor(self):
        amc = build_fp_amc(FpParams(0.5, 0.1, 1.0, 4))
        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, 4))
        again = amc.with_init(chain.init)
        assert again._lu is amc._lu and again.S_csc is amc.S_csc
        assert amc.init is None and again.meta == amc.meta
        with pytest.raises(ValueError, match="sum to one"):
            amc.with_init(2.0 * chain.init)

    def test_order_1000_builds(self):
        # a dense S would take 650 MB here
        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, 1000))
        assert chain.order == 9005 and "S" not in vars(chain)
        assert 0.0 < aoi_mean(chain) < paoi_mean(chain) < math.inf

    def test_erlang_gaps_shrink_as_one_over_k(self):
        # the O(1/k) approach to the deterministic freeze: each doubling of
        # k halves the distance to the limit
        ages = [aoi_mean(build_fp_model(FpParams(0.5, 0.1, 1.0, k)))
                for k in (100, 200, 400, 800)]
        gaps = np.abs(np.diff(ages))
        assert np.all((1.95 <= gaps[:-1] / gaps[1:]) & (gaps[:-1] / gaps[1:] <= 2.05))


def _triangular_and_fill_free(chain):
    """Whether ``S`` is upper triangular and its LU factor has no fill."""
    S = chain.S_csc
    cols = np.repeat(np.arange(chain.order), np.diff(S.indptr))
    return (bool(np.all(S.indices <= cols)),
            chain._lu.L.nnz + chain._lu.U.nnz == S.nnz + chain.order)


class TestCachedStructure:
    """Chains weighed from a structure cached per table and order, in visiting order."""

    @pytest.mark.parametrize("k", [1, 2, 7, 50, 200])
    def test_fp_chain_is_upper_triangular_without_fill(self, k):
        assert _triangular_and_fill_free(build_fp_amc(FpParams(0.5, 0.1, 1.0, k))) == (True, True)

    def test_collapse_is_upper_triangular_without_fill(self):
        chain = build_fp_model(preempt_only_params(1.0, 0.3))
        assert _triangular_and_fill_free(chain) == (True, True)

    @pytest.mark.parametrize("build", ["fp1", "fp7", "fp50", "collapse", "zw"])
    def test_build_matches_triplets_state_by_state(self, build):
        from aoidual import fp
        from aoidual.phasetype import _triplets

        mu1, mu2 = 0.7, 0.2
        if build.startswith("fp"):
            p = FpParams(mu1, mu2, 3.0, int(build[2:]))
            chain, idx, rules, step = build_fp_amc(p), FpStateIndex(p.k), _RULES, 3.0 * p.k
        elif build == "collapse":
            chain, idx, rules, step = (build_fp_model(preempt_only_params(mu1, mu2)),
                                       fp._COLLAPSE, fp._COLLAPSED, 0.0)
        else:
            chain, idx, rules, step = (zw.build_zw_amc(zw.ZwParams(mu1, mu2)), zw._INDEX,
                                       zw._RULES, 0.0)
        rows, cols, vals = _triplets(idx, rules, {1: mu1, 2: mu2}, step)
        n = idx.size
        want = np.zeros((n, n + 2))
        np.add.at(want, (rows, cols), vals)
        off = ~np.eye(n, dtype=bool)
        np.testing.assert_array_equal(chain.S[off], want[:, :n][off])
        np.testing.assert_array_equal(chain.V, want[:, n:])
        np.testing.assert_array_max_ulp(np.diag(chain.S), np.diag(want), maxulp=2)

    def test_a_repeat_build_assembles_nothing(self, monkeypatch):
        import scipy.sparse
        import aoidual.phasetype as phasetype_module

        calls = []
        real = phasetype_module._triplets

        def counted(*args):
            calls.append(args)
            return real(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("a build read S through scipy")

        monkeypatch.setattr(phasetype_module, "_triplets", counted)
        phasetype_module._structure.cache_clear()
        build_fp_model(FpParams(0.5, 0.1, 1.0, 23))
        assert calls  # the first build at this order fills the cache
        calls.clear()
        for name in ("diagonal", "sum"):
            monkeypatch.setattr(scipy.sparse.csc_array, name, forbidden)
        chain = build_fp_model(FpParams(2.0, 0.3, 5.0, 23))
        assert calls == [] and chain.order == 9 * 23 + 5


class TestStationaryDiagnostics:
    def test_residual_and_clip_are_reported(self):
        p = FpParams(0.5, 0.1, 1.0, 3)
        P = build_fp_rmc(p)
        st = rmc_stationary(P, p)
        assert 0.0 <= st.residual <= 1e-14 and st.clip == 0.0
        assert np.max(np.abs(st.pi @ P.toarray())) <= 1e-14

    def test_clipped_mass_is_reported(self, monkeypatch):
        # a solver returning a slightly negative entry: the clip removes
        # it, and says by how much (the residual check is relaxed, as the
        # entry replaced is not small)
        import aoidual.fp as fp_module

        real = fp_module.splu

        class Perturbed:
            def __init__(self, A):
                self.lu = real(A)

            def solve(self, b):
                x = self.lu.solve(b)
                x[-1] = -1e-14
                return x

        monkeypatch.setattr(fp_module, "splu", Perturbed)
        monkeypatch.setattr(fp_module, "_RESIDUAL_TOL", 1.0)
        p = FpParams(0.5, 0.1, 1.0, 3)
        st = rmc_stationary(build_fp_rmc(p), p)
        assert st.pi[-1] == 0.0 and st.pi.sum() == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < st.clip <= 1e-14


#: (mu1, mu2, freeze rate) points at which the freeze-level means are
#: checked against the chain, each at k = 1, 7, 50 and 200.
MEANS_POINTS = [(0.5, 0.1, 1.0), (1.0, 1.0, 3.4), (1.0, 0.01, 0.2), (3.0, 0.7, 20.0),
                (1.0, 0.001, 100.0)]


def _chain_means(p):
    chain = build_fp_model(p)
    return aoi_mean(chain), paoi_mean(chain), absorption_probability(chain, 0)


def _mp_means(p, digits=50):
    """The formulas of :func:`fp_means` in ``digits``-digit arithmetic, on
    the unscaled block ``[[A, I, 0], [0, 0, I], [0, 0, 0]]`` with
    ``E[e^{BD}] = (I - B/(k lambda))^-k``, ``E[D e^{BD}] = E[e^{BD}] (I -
    B/(k lambda))^-1 / lambda``, or ``expm(B/lambda)`` at ``k = inf``."""
    mp = pytest.importorskip("mpmath")
    from aoidual.fp import _AGE_EPOCHS, _ENTRY, _EPOCHS, _EXITS, _MOVES, _PHASED

    with mp.workdps(digits):
        a, b, lam = mp.mpf(p.mu1), mp.mpf(p.mu2), mp.mpf(p.freeze_rate)
        if p.k == math.inf:
            def L(s):
                return mp.exp(-s / lam)
        else:
            def L(s):
                return (1 + s / (p.k * lam)) ** -p.k
        ab = L(a)
        bc, cb = L(b) - b / (a + b) * L(a + b), L(a) - a / (a + b) * L(a + b)
        m, n = _EPOCHS.size, len(_PHASED)
        entry = (1 - bc * cb, ab, ab * bc)
        pi0 = mp.zeros(1, m)
        for fam, w in zip(_ENTRY, entry):
            pi0[_EPOCHS.first[fam]] = w / sum(entry)
        Q = a * mp.matrix(_MOVES[0].tolist()) + b * mp.matrix(_MOVES[1].tolist())
        q = [sum(Q[i, j] for j in range(m + 2)) for i in range(m)]
        B = mp.zeros(3 * n, 3 * n)
        for i in range(n):
            for j in range(n):
                B[i, j] = Q[i, j] - (q[i] if i == j else 0)
            B[i, n + i] = B[n + i, 2 * n + i] = 1
        if p.k == math.inf:
            E = mp.expm(B / lam)
            ED = E / lam
        else:
            M = mp.inverse(mp.eye(3 * n) - B / (p.k * lam))
            E = M ** p.k
            ED = E * M / lam
        X = mp.matrix(_EXITS.tolist())
        K0, K1, W0, W1 = mp.zeros(m, m), mp.zeros(m, m), mp.zeros(m, 2), mp.zeros(m, 2)
        for i in range(m):
            for c, w in enumerate((lambda g: _AGE_EPOCHS[g], lambda g: Q[g, m])):
                if i < n:
                    W0[i, c] = sum(E[i, n + g] * w(g) for g in range(n))
                    W1[i, c] = sum((ED[i, n + g] - E[i, 2 * n + g]) * w(g) for g in range(n))
                else:
                    W0[i, c], W1[i, c] = w(i) / q[i], w(i) / q[i] ** 2
            for j in range(m):
                if i < n:
                    K0[i, j] = sum(E[i, g] * X[g, j] for g in range(n))
                    K1[i, j] = sum(ED[i, g] * X[g, j] for g in range(n))
                else:
                    K0[i, j], K1[i, j] = Q[i, j] / q[i], Q[i, j] / q[i] ** 2
        I_K0 = mp.eye(m) - K0
        visits = mp.lu_solve(I_K0.T, pi0.T).T
        tail = visits * K1
        (age0, ok0), once = visits * W0, visits * W1
        age1 = once[0] + (tail * mp.lu_solve(I_K0, W0[:, 0]))[0]
        ok1 = once[1] + (tail * mp.lu_solve(I_K0, W0[:, 1]))[0]
        return float(age1 / age0), float(ok1 / ok0), float(ok0)


class TestFpMeans:
    """Freeze-level means against the chain, a 50-digit evaluation and the
    Erlang limit."""

    @pytest.mark.parametrize("k", [1, 7, 50, 200])
    @pytest.mark.parametrize("point", MEANS_POINTS)
    def test_matches_the_chain(self, point, k):
        p = FpParams(*point, k)
        np.testing.assert_allclose(fp_means(p), _chain_means(p), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mu1,mu2", TestPreemptOnlyChain.PAIRS)
    def test_zero_length_freezes_are_the_preemption_only_chain(self, mu1, mu2):
        p = preempt_only_params(mu1, mu2)
        np.testing.assert_allclose(fp_means(p), _chain_means(p), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("k", [1, 50, 1000, math.inf])
    def test_matches_a_50_digit_evaluation(self, k):
        p = FpParams(0.5, 0.1, 1.0, k)
        np.testing.assert_allclose(fp_means(p), _mp_means(p), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("point", MEANS_POINTS[:3])
    def test_deterministic_freeze_is_the_erlang_limit(self, point):
        # second-order Richardson extrapolation of the chain's O(1/k) approach
        f = [np.array(_chain_means(FpParams(*point, k))) for k in (400, 800, 1600)]
        once = [2.0 * f[1] - f[0], 2.0 * f[2] - f[1]]
        limit = (4.0 * once[1] - once[0]) / 3.0
        np.testing.assert_allclose(fp_means(FpParams(*point, math.inf)), limit,
                                   rtol=1e-9, atol=0)

    def test_deterministic_freeze_values(self):
        got = fp_means(FpParams(0.5, 0.1, 1.0, math.inf))
        np.testing.assert_allclose(got, (3.4022728626, 3.8987944932, 0.7411198365),
                                   rtol=0, atol=1e-10)
        assert got._fields == ("mean_aoi", "mean_paoi", "p_success")

    def test_chain_builders_refuse_a_deterministic_freeze(self):
        p = FpParams(0.5, 0.1, 1.0, math.inf)
        for build in (build_fp_amc, build_fp_model, fp_initial_vector):
            with pytest.raises(ValueError, match="not phase-type.*fp_means"):
                build(p)
        # without freezes the order does not matter
        assert build_fp_model(FpParams(0.5, 0.1, math.inf, math.inf)).order == 5
