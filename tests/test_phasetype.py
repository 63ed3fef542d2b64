"""Phase-type numerics against closed forms and independent oracles."""

import math
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from aoidual import (
    AbsorbingChain,
    DistributionTable,
    FpParams,
    GridSpec,
    SimConfig,
    absorption_probability,
    aoi_cdf,
    aoi_moment,
    aoi_pdf,
    build_fp_model,
    build_zw_amc,
    erlang_ph,
    expm_action_grid,
    paoi_cdf,
    paoi_moment,
    paoi_pdf,
    ph_cdf,
    ph_moment,
    ph_pdf,
    phase_type,
    summarize,
    ZwParams,
    empirical_aoi_cdf,
    empirical_paoi_cdf,
    ks_distance,
)
from conftest import random_phase_type, random_subgenerator, sample_absorption


def exponential_ph(rate):
    return phase_type([1.0], [[-rate]])


class TestPdf:
    def test_exponential_at_zero_equals_rate(self):
        assert ph_pdf(exponential_ph(2.0), 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_exponential_density(self):
        assert ph_pdf(exponential_ph(2.0), 1.0) == pytest.approx(
            2.0 * math.exp(-2.0), rel=1e-12)

    def test_erlang2_closed_form(self):
        # k^2 lambda^2 x exp(-k lambda x) at lambda=1, k=2, x=0.5
        expected = 4.0 * 0.5 * math.exp(-1.0)
        assert ph_pdf(erlang_ph(1.0, 2), 0.5) == pytest.approx(expected, rel=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ph_pdf(exponential_ph(1.0), -0.1)

    def test_array_argument_matches_scalars(self):
        # unsorted, with a repeated point: the kernel sorts, evaluates and
        # puts the values back in the caller's order
        ph = erlang_ph(0.7, 3)
        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, 3))
        xs = np.array([0.0, 0.3, 2.0, 0.1, 0.3, 7.5])
        for law, model in ((ph_pdf, ph), (ph_cdf, ph),
                           (aoi_pdf, chain), (aoi_cdf, chain),
                           (paoi_pdf, chain), (paoi_cdf, chain)):
            vals = law(model, xs)
            assert vals.shape == xs.shape
            for x, v in zip(xs, vals):
                assert v == pytest.approx(law(model, float(x)), rel=1e-10)
            with pytest.raises(ValueError, match="^xs must be 1-dimensional"):
                law(model, xs.reshape(2, 3))


class TestCdf:
    def test_zero_at_origin(self, rng):
        ph = random_phase_type(rng, 5)
        assert ph_cdf(ph, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_cdf(self):
        assert ph_cdf(exponential_ph(2.0), 1.0) == pytest.approx(
            1.0 - math.exp(-2.0), rel=1e-12)

    def test_erlang10_poisson_tail_identity(self):
        # brute-force summation oracle: P(Erl10 <= 1) = 1 - sum_{j<10} e^-10 10^j/j!
        expected = 1.0 - sum(
            math.exp(-10.0) * 10.0 ** j / math.factorial(j) for j in range(10))
        got = ph_cdf(erlang_ph(1.0, 10), 1.0)
        assert 0.0 < got < 1.0
        assert got == pytest.approx(expected, abs=1e-10)


class TestMoments:
    def test_exponential_mean(self):
        assert ph_moment(exponential_ph(4.0), 1) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_erlang_mean_independent_of_order(self, k):
        assert ph_moment(erlang_ph(1.7, k), 1) == pytest.approx(1.0 / 1.7, rel=1e-11)

    def test_erlang_variance(self):
        ph = erlang_ph(2.0, 4)
        var = ph_moment(ph, 2) - ph_moment(ph, 1) ** 2
        assert var == pytest.approx(1.0 / (4 * 4), rel=1e-10)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            ph_moment(exponential_ph(1.0), 0)

    def test_mean_matches_trapezoid_integral(self, rng):
        for ph in (erlang_ph(1.3, 4), random_phase_type(rng, 5)):
            mean = ph_moment(ph, 1)
            xs = np.linspace(0.0, 60.0 * mean, 200_001)
            pdf = ph_pdf(ph, xs)
            integral = np.trapezoid(xs * pdf, xs)
            assert integral == pytest.approx(mean, rel=1e-6)


class TestExpmAction:
    def test_zero_time_is_identity(self, rng):
        S = random_subgenerator(rng, 6)
        v = rng.random(6)
        np.testing.assert_array_equal(expm_action_grid(S, [0.0], v)[0], v)

    def test_scalar_case(self):
        got = expm_action_grid(np.array([[-3.0]]), [2.0], np.array([1.0]))[0]
        assert got[0] == pytest.approx(math.exp(-6.0), rel=1e-12)

    def test_matches_taylor_series_oracle(self, rng):
        S = random_subgenerator(rng, 7)
        v = rng.random(7)
        x = 1.0
        term = v.copy()
        acc = v.copy()
        for j in range(1, 201):
            term = term @ (S * x) / j
            acc += term
        np.testing.assert_allclose(expm_action_grid(S, [x], v)[0], acc, atol=1e-9)

    @pytest.mark.parametrize("scale,x", [(1.0, 0.5), (5.0, 3.0), (40.0, 7.0)])
    def test_matches_scipy_expm(self, rng, scale, x):
        S = random_subgenerator(rng, 8, scale)
        v = rng.random(8)
        expected = v @ scipy.linalg.expm(S * x)
        np.testing.assert_allclose(expm_action_grid(S, [x], v)[0], expected,
                                   rtol=1e-10, atol=1e-13)

    def test_stiff_horizon_squares_a_step_matrix(self, monkeypatch):
        # one point at a mass of 3e4 takes the squaring branch
        from aoidual import phasetype

        S = np.array([[-1e4, 1e4, 0.0, 0.0],
                      [0.0, -0.4, 0.3, 0.0],
                      [0.5, 0.0, -2000.5, 2000.0],
                      [0.0, 1.0, 0.0, -1.2]])
        v = np.array([0.4, 0.3, 0.2, 0.1])
        x = 3.0
        assert phasetype._prefer_squaring(1e4 * x, 1, 4, np.count_nonzero(S))
        seen = []
        expm = phasetype.expm

        def spy(A):
            seen.append(A.shape)
            return expm(A)

        monkeypatch.setattr(phasetype, "expm", spy)
        got, info = expm_action_grid(S, [x], v, full_output=True)
        assert seen == [(4, 4)]  # one matrix step for the one point
        np.testing.assert_allclose(got[0], v @ scipy.linalg.expm(S * x),
                                   rtol=1e-10, atol=1e-15)
        assert info["kernel"] == "squaring" and info["unif_mass"] == 1e4 * x
        assert info["poisson_tail"] == 0.0

    def test_pointwise_far_tail_squares(self, monkeypatch):
        # one cdf value at 40 means of F/P(0.5, 0.1, 100, 10): a mass of
        # about 1.4e5 at a single point is cheaper to square than to walk
        from aoidual import metrics, phasetype

        chain = build_fp_model(FpParams(0.5, 0.1, 100.0, 10))
        kernels = []
        grid = phasetype.expm_action_grid

        def spy(*args, **kwargs):
            values, info = grid(*args, **kwargs, full_output=True)
            kernels.append(info["kernel"])
            return values

        monkeypatch.setattr(phasetype, "expm_action_grid", spy)
        cdf = aoi_cdf(chain, 40.0 * metrics.aoi_mean(chain))
        assert kernels == ["squaring"]
        assert 1.0 - 1e-9 <= cdf <= 1.0 + 1e-12

    @pytest.mark.parametrize("x", [1e17, 1e20, 1e100, 1e300])
    def test_mass_beyond_int64_evaluates(self, x):
        # a window bound above 2**63 cannot be cast to an integer count;
        # the kernel compares the costs in floating point and squares
        # (at 1e300 about a thousand squarings of one Padé step)
        assert aoi_cdf(build_zw_amc(ZwParams(1.0, 1.0)), x) == pytest.approx(1.0, abs=1e-12)

    def test_walk_beyond_int64_steps_raises(self):
        from aoidual import phasetype

        assert phasetype._length(2.0 ** 62) == 2 ** 62
        for bound in (2.0 ** 63, math.inf, math.nan):
            with pytest.raises(RuntimeError, match="more than an array can index"):
                phasetype._length(bound)

    @pytest.mark.parametrize("scale, xs, kernel", [
        (1.0, [0.0, 0.2, 0.2, 1.5, 6.0, 20.0, 0.0, 6.0], "single_pass"),
        (1e4, [0.0, 0.4, 0.4, 0.1, 0.4], "squaring"),
    ])
    def test_shuffled_points_match_sorted(self, rng, scale, xs, kernel):
        # the kernel sorts the points itself and returns each row in the
        # caller's order, repeats included
        S = scale * random_subgenerator(rng, 6)
        v = rng.random(6)
        xs = np.sort(xs)
        perm = rng.permutation(xs.size)
        for W in (None, rng.random((6, 4))):
            ordered, info = expm_action_grid(S, xs, v, W, full_output=True)
            assert info["kernel"] == kernel
            np.testing.assert_allclose(expm_action_grid(S, xs[perm], v, W),
                                       ordered[perm], rtol=1e-14, atol=0)

    def test_projection_matches_full_vector(self, rng):
        # W = I is the full action; any W is its projection
        S = random_subgenerator(rng, 7)
        v = rng.random(7)
        W = rng.random((7, 3))
        xs = np.array([0.0, 0.2, 0.2, 1.5, 6.0, 20.0])
        full, info = expm_action_grid(S, xs, v, full_output=True)
        assert info["kernel"] == "single_pass"
        np.testing.assert_allclose(expm_action_grid(S, xs, v, np.eye(7)), full,
                                   rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(expm_action_grid(S, xs, v, W), full @ W,
                                   rtol=1e-12, atol=1e-16)
        for x, row in zip(xs, full):
            np.testing.assert_allclose(row, v @ scipy.linalg.expm(S * x),
                                       rtol=1e-11, atol=1e-15)

    def test_private_csr_kernel_is_available(self):
        # the walk calls scipy's private CSR product, which adds A @ x into y;
        # a scipy that moves or changes it fails here by name
        try:
            from scipy.sparse._sparsetools import csr_matvec
        except ImportError as err:  # pragma: no cover - depends on scipy
            pytest.fail(f"scipy {scipy.__version__} lacks scipy.sparse._sparsetools"
                        f".csr_matvec, which phasetype._single_pass calls: {err}")
        A = scipy.sparse.csr_array(np.array([[1.0, 2.0], [0.0, 3.0]]))
        y = np.array([10.0, 20.0])
        csr_matvec(2, 2, A.indptr, A.indices, A.data, np.array([1.0, 1.0]), y)
        np.testing.assert_array_equal(y, [13.0, 23.0])

    @pytest.mark.parametrize("k", [50, 200])
    def test_walk_steps_equal_sparse_products(self, monkeypatch, k):
        # each in-place step, across a block boundary, is bitwise P.T @ u
        from aoidual import phasetype

        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, k))
        P, rate = phasetype._uniformized(chain.S_csc)
        steps, matvec = [], phasetype.csr_matvec

        def spy(*args):
            matvec(*args)
            steps.append((args[-2].copy(), args[-1].copy()))

        monkeypatch.setattr(phasetype, "csr_matvec", spy)
        expm_action_grid(chain.S_csc, [300.0 / rate], chain.init)
        assert len(steps) > 300 > phasetype._BLOCK
        PT, u = P.T.tocsr(), chain.init
        for x, y in steps[:300]:
            assert np.array_equal(x, u)
            u = PT @ u
            assert np.array_equal(y, u)

    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_chain_action_matches_dense_expm(self, k):
        # orders 14, 95 and 455 all take the one CSR walk
        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, k))
        xs = np.array([0.0, 0.35, 3.0, 12.0, 40.0])
        got, info = expm_action_grid(chain.S_csc, xs, chain.init, full_output=True)
        assert info["kernel"] == "single_pass"
        for x, row in zip(xs, got):
            np.testing.assert_allclose(row, chain.init @ scipy.linalg.expm(chain.S * x),
                                       rtol=1e-10, atol=1e-13)

    def test_poisson_window_bounds_the_exact_tail(self):
        # the reported tail bounds the exact Poisson mass outside each
        # window from above, within a few percent, and meets the target
        from scipy.special import pdtr, pdtrc

        from aoidual import phasetype

        mass = np.array([1e-3, 0.5, 3.0, 91.0, 7000.0, 1.4e5])
        for tail in (phasetype.EXPM_TAIL, phasetype.EXPM_TAIL / 2.0 ** 10):
            left, right = phasetype._poisson_window(mass, tail)
            assert np.all((left <= mass) & (mass < right))
            exact = (np.where(left > 0, pdtr(np.maximum(left - 1, 0), mass), 0.0)
                     + pdtrc(right, mass))
            bound = phasetype._poisson_tail(mass, left, right)
            assert np.all(exact <= bound) and np.all(bound <= 1.05 * exact)
            assert np.all(bound <= tail)

    def test_truncation_beyond_tail_raises(self, monkeypatch):
        # a window that drops more than EXPM_TAIL of the Poisson mass is
        # an error, not a silently truncated series
        from aoidual import phasetype

        def narrow(mass, tail):
            left, right = window(mass, tail)
            return left, right // 2

        window = phasetype._poisson_window
        monkeypatch.setattr(phasetype, "_poisson_window", narrow)
        S = np.array([[-2.0, 1.0], [0.5, -1.0]])
        with pytest.raises(RuntimeError, match="EXPM_TAIL"):
            expm_action_grid(S, [1.0, 5.0], np.array([1.0, 0.0]))

    def test_nonnegative_output_for_nonnegative_input(self, rng):
        S = random_subgenerator(rng, 6, 10.0)
        v = rng.random(6)
        assert np.all(expm_action_grid(S, [4.0], v) >= 0.0)

    def test_grid_matches_pointwise(self, rng):
        S = random_subgenerator(rng, 5)
        v = rng.random(5)
        xs = np.sort(rng.uniform(0.0, 8.0, size=40))
        grid_vals = expm_action_grid(S, xs, v)
        for x, row in zip(xs, grid_vals):
            np.testing.assert_allclose(row, expm_action_grid(S, [x], v)[0],
                                       rtol=1e-9, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        # at x = 0 no matrix product runs, so only the input checks see it
        for x in (0.0, 1.0):
            with pytest.raises(ValueError, match="v has shape"):
                expm_action_grid(np.eye(3) * -1.0, [x], np.ones(4))
            with pytest.raises(ValueError, match="S must be square"):
                expm_action_grid(-np.ones((2, 3)), [x], np.ones(2))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            expm_action_grid(np.array([[-1.0]]), [-0.5], np.array([1.0]))


class TestSquaringOracle:
    """The squaring kernel at stiff freeze rates against a 40-digit
    ``mpmath.expm`` and against the exact preemption-only law."""

    @pytest.mark.parametrize("x", [0.3, 17.9, 142.0])
    @pytest.mark.parametrize("lam", [1e4, 1e6, 1e9])
    def test_transient_mass_matches_a_40_digit_expm(self, lam, x):
        mp = pytest.importorskip("mpmath")
        chain = build_fp_model(FpParams(0.5, 0.1, lam, 1))
        got, info = expm_action_grid(chain.S_csc, [x], chain.init,
                                     np.ones((chain.order, 1)), full_output=True)
        assert info["kernel"] == "squaring" and info["poisson_tail"] == 0.0
        with mp.workdps(40):
            row = mp.matrix([chain.init.tolist()]) * mp.expm(mp.matrix(chain.S.tolist()) * x)
            expected = float(mp.fsum(row[0, j] for j in range(chain.order)))
        assert got[0, 0] == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [10, 50])
    def test_densities_at_a_huge_freeze_rate_are_the_preemption_only_law(self, k):
        chain = build_fp_model(FpParams(0.5, 0.1, 1e9, k))
        limit = build_fp_model(FpParams(0.5, 0.1, math.inf, 1))
        xs = np.array([0.5, 5.5, 30.5])
        for law in (aoi_pdf, paoi_pdf):
            np.testing.assert_allclose(law(chain, xs), law(limit, xs), rtol=1e-8, atol=0)


class TestFig3Kernel:
    """The k = 50 Fig. 3 chain (455 states) against a dense expm."""

    @pytest.fixture(scope="class")
    def model(self):
        chain = build_fp_model(FpParams(0.5, 0.1, 1.0, 50))
        return chain, summarize(chain, GridSpec())

    @pytest.mark.parametrize("kind", ["aoi", "paoi"])
    def test_laws_match_dense_expm(self, model, kind):
        from aoidual import metrics

        chain, summary = model
        w = chain.aoi_mask if kind == "aoi" else chain.V[:, 0]
        y = np.linalg.solve(chain.S, w)
        denom = -(chain.init @ y)
        table = getattr(summary, f"{kind}_table")
        # x = 0, a repeated point, and the table's last grid point
        xs = np.array([0.0, 0.35, 3.0, 3.0, 12.0, 40.0, table.grid[1000],
                       table.grid[-1]])
        pdf = getattr(metrics, f"{kind}_pdf")(chain, xs)
        cdf = getattr(metrics, f"{kind}_cdf")(chain, xs)
        for x, p, c in zip(xs, pdf, cdf):
            u = chain.init @ scipy.linalg.expm(chain.S * x)
            assert abs(p - u @ w / denom) <= 1e-12
            assert abs(c - (u - chain.init) @ y / denom) <= 1e-12
        assert cdf[0] == 0.0
        assert (pdf[2], cdf[2]) == (pdf[3], cdf[3])
        assert table.meta["kernel"] == "single_pass"
        assert table.pdf[-1] == pytest.approx(pdf[-1], abs=1e-12)
        assert table.cdf[-1] == pytest.approx(cdf[-1], abs=1e-12)


class TestTiling:
    """A table does not depend on how the walk blocks its steps and tiles its points."""

    @pytest.fixture(scope="class", params=["zw", "fp3"])
    def chain(self, request):
        if request.param == "zw":
            return build_zw_amc(ZwParams(0.5, 0.1))
        return build_fp_model(FpParams(0.5, 0.1, 1.0, 3))

    def test_tables_do_not_depend_on_the_tiling(self, monkeypatch, chain):
        from aoidual import phasetype

        # 700 points: windows straddle the edges of blocks and of tiles
        spec = GridSpec(points=700)
        default = summarize(chain, spec)
        dense = {}
        for kind, w in (("aoi", chain.aoi_mask), ("paoi", chain.V[:, 0])):
            y = np.linalg.solve(chain.S, w)
            denom = -(chain.init @ y)
            grid = getattr(default, f"{kind}_table").grid
            u = np.array([chain.init @ scipy.linalg.expm(chain.S * x) for x in grid])
            dense[kind] = (u @ w / denom, (u - chain.init) @ y / denom)
        for block, tile in [(256, 64), (7, 1), (7, 64), (7, 4096), (256, 1), (256, 4096)]:
            monkeypatch.setattr(phasetype, "_BLOCK", block)
            monkeypatch.setattr(phasetype, "_TILE", tile)
            summary = summarize(chain, spec)
            for kind in ("aoi", "paoi"):
                got, want = getattr(summary, f"{kind}_table"), getattr(default, f"{kind}_table")
                np.testing.assert_array_equal(got.grid, want.grid)
                assert np.max(np.abs(got.pdf - want.pdf)) <= 1e-14 * np.max(want.pdf)
                assert np.max(np.abs(got.cdf - want.cdf)) <= 1e-14
                pdf, cdf = dense[kind]
                assert np.max(np.abs(got.pdf - pdf)) <= 1e-12
                assert np.max(np.abs(got.cdf - cdf)) <= 1e-12


class TestErlangConstruction:
    def test_order_one_is_exponential(self):
        ph = erlang_ph(1.0, 1)
        np.testing.assert_array_equal(ph.init, [1.0])
        np.testing.assert_array_equal(ph.S, [[-1.0]])

    def test_bidiagonal_structure(self):
        ph = erlang_ph(2.0, 3)
        expected = np.array([[-6.0, 6.0, 0.0],
                             [0.0, -6.0, 6.0],
                             [0.0, 0.0, -6.0]])
        np.testing.assert_array_equal(ph.S, expected)
        np.testing.assert_array_equal(ph.init, [1.0, 0.0, 0.0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            erlang_ph(0.0, 3)
        with pytest.raises(ValueError):
            erlang_ph(1.0, 0)

    def test_erlangization_sharpens_the_step(self):
        # cdf below the mean decreases with k; above the mean it increases
        # from k = 10 on (the k = 1 exponential already has 0.667 > 0.659 of
        # the k = 10 value at 1.1x the mean, so strict monotonicity starts
        # one step later) and converges toward the unit step
        rate = 0.8
        lo = [ph_cdf(erlang_ph(rate, k), 0.9 / rate) for k in (1, 10, 50, 200)]
        hi = [ph_cdf(erlang_ph(rate, k), 1.1 / rate) for k in (1, 10, 50, 200)]
        assert all(a > b for a, b in zip(lo, lo[1:]))
        assert all(a < b for a, b in zip(hi[1:], hi[2:]))
        assert hi[-1] > hi[0]
        assert lo[-1] < 0.1 and hi[-1] > 0.9


class TestAbsorption:
    def test_single_absorbing_state_certain(self, rng):
        S = random_subgenerator(rng, 4)
        V = -S.sum(axis=1, keepdims=True)
        init = np.full(4, 0.25)
        chain = AbsorbingChain(S, V, init, np.array([1.0, 0, 0, 0]))
        assert absorption_probability(chain, 0) == pytest.approx(1.0, abs=1e-12)

    def test_zw_columns_are_complete(self):
        chain = build_zw_amc(ZwParams(1.0, 1.0))
        total = sum(absorption_probability(chain, m) for m in range(2))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range_column(self):
        chain = build_zw_amc(ZwParams(1.0, 1.0))
        with pytest.raises(ValueError):
            absorption_probability(chain, 2)

    def test_zw_success_probability_against_trajectories(self):
        chain = build_zw_amc(ZwParams(0.5, 0.1))
        p = absorption_probability(chain, 0)
        mc = np.random.default_rng(7)
        n = 1_000_000
        _, col = sample_absorption(chain, n, mc)
        p_hat = float(np.mean(col == 0))
        se = math.sqrt(p_hat * (1.0 - p_hat) / n)
        assert abs(p - p_hat) <= 3.0 * se


class TestStructuralInvariants:
    def test_cdf_monotone_and_saturates(self, rng):
        for ph in (erlang_ph(2.0, 5), random_phase_type(rng, 6)):
            mean = ph_moment(ph, 1)
            xs = np.linspace(0.0, 20.0 * mean, 1000)
            cdf = ph_cdf(ph, xs)
            assert np.all(np.diff(cdf) >= -1e-12)
            assert ph_cdf(ph, 50.0 * mean) >= 1.0 - 1e-6

    def test_pdf_is_cdf_derivative(self, rng):
        ph = random_phase_type(rng, 5)
        mean = ph_moment(ph, 1)
        h = 1e-5 * mean
        xs = rng.uniform(0.1 * mean, 5.0 * mean, size=100)
        for x in xs:
            num = (ph_cdf(ph, x + h) - ph_cdf(ph, x - h)) / (2.0 * h)
            assert num == pytest.approx(ph_pdf(ph, float(x)), abs=1e-6)

    def test_one_column_chain_matches_phase_type(self, rng):
        # a phase-type is the peak age of the chain that absorbs through
        # its exit rates alone
        chain = random_phase_type(rng, 6)
        assert chain.n_absorbing == 1
        xs = np.array([2.0, 0.0, 0.4, 2.0, 9.0])
        for got, want in ((paoi_pdf(chain, xs), ph_pdf(chain, xs)),
                          (paoi_cdf(chain, xs), ph_cdf(chain, xs))):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        for x in (0.0, 0.4, 9.0):
            assert paoi_pdf(chain, x) == pytest.approx(ph_pdf(chain, x), rel=1e-12)
            assert paoi_cdf(chain, x) == pytest.approx(ph_cdf(chain, x), rel=1e-12)
        for i in (1, 2, 3):
            assert paoi_moment(chain, i) == pytest.approx(ph_moment(chain, i),
                                                         rel=1e-12)

    def test_two_column_chain_gives_its_absorption_time(self):
        # ph_* weigh both absorbing columns of the zero-wait cycle chain,
        # so they give its absorption time, whichever column ends it
        chain = build_zw_amc(ZwParams(0.5, 0.1))
        assert chain.n_absorbing == 2
        mean = -(chain.init @ np.linalg.solve(chain.S, np.ones(chain.order)))
        assert abs(ph_moment(chain, 1) - mean) <= 1e-12
        n = 100_000
        times, _ = sample_absorption(chain, n, np.random.default_rng(11))
        times.sort()
        # both sides of every tenth jump of the empirical cdf, against the
        # DKW band that a correct cdf leaves with probability 1 - 1e-3
        rank = np.arange(0, n, 10)
        cdf = ph_cdf(chain, times[rank])
        gap = max(np.max(np.abs(cdf - rank / n)), np.max(np.abs(cdf - (rank + 1) / n)))
        assert gap <= math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))


def test_exports_resolve():
    # every exported name resolves; a phase-type is a chain, so the chain
    # is the one model class, and the grid is the one entry to the kernel
    import aoidual

    for name in aoidual.__all__:
        assert hasattr(aoidual, name), name
    public = {name: getattr(aoidual, name) for name in dir(aoidual)}
    assert [name for name, obj in public.items() if isinstance(obj, type)
            and obj.__module__ == "aoidual.phasetype"] == ["AbsorbingChain"]
    assert [name for name in public if name.startswith("expm_")] == ["expm_action_grid"]


class TestValidation:
    def test_negative_offdiagonal_rejected(self):
        with pytest.raises(ValueError):
            phase_type([1.0, 0.0], [[-1.0, -0.5], [0.2, -0.2]])

    def test_positive_row_sum_rejected(self):
        with pytest.raises(ValueError):
            phase_type([1.0, 0.0], [[-1.0, 2.0], [0.0, -1.0]])

    def test_singular_generator_rejected(self):
        with pytest.raises(ValueError):
            phase_type([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]])

    def test_sigma_sum_above_one_rejected(self):
        with pytest.raises(ValueError):
            phase_type([0.8, 0.8], [[-1.0, 0.0], [0.0, -1.0]])

    def test_chain_row_sum_mismatch_rejected(self):
        S = np.array([[-2.0, 1.0], [0.0, -1.0]])
        V = np.array([[0.5], [1.0]])  # first row short by 0.5
        with pytest.raises(ValueError):
            AbsorbingChain(S, V, np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_chain_init_must_normalize(self):
        S = np.array([[-1.0]])
        V = np.array([[1.0]])
        with pytest.raises(ValueError):
            AbsorbingChain(S, V, np.array([0.7]), np.array([1.0]))

    def test_chain_mask_values(self):
        S = np.array([[-1.0]])
        V = np.array([[1.0]])
        with pytest.raises(ValueError):
            AbsorbingChain(S, V, np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            AbsorbingChain(S, V, np.array([1.0]), np.array([0.0]))


def test_chain_csc_arrays_are_read_only():
    # the LU factor is taken once, so S must not change under it
    user = scipy.sparse.csc_array(np.array([[-2.0, 1.0], [0.0, -1.0]]))
    twice = scipy.sparse.csc_array(([-1.0, -1.0, 1.0, -1.0], [0, 0, 0, 1], [0, 2, 4]),
                                   shape=(2, 2))  # S[0, 0] given as two entries
    chains = [build_fp_model(FpParams(0.5, 0.1, 1.0, 3)), build_zw_amc(ZwParams(0.5, 0.1)),
              exponential_ph(2.0)]
    chains += [AbsorbingChain(S, [[1.0], [1.0]], [1.0, 0.0], [1.0, 1.0]) for S in (user, twice)]
    for chain in chains:
        for arr in (chain.S_csc.data, chain.S_csc.indices, chain.S_csc.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
    # a writeable block given by the caller is copied, not frozen, and summed in the copy
    assert user.data.flags.writeable and chains[-2].S_csc.data is not user.data
    np.testing.assert_array_equal(chains[-1].S, user.toarray())
    assert twice.nnz == 4 and twice.data.flags.writeable


def _refusals():
    """(input, call with the value, name the error must give, value below the
    minimum, is a count, takes inf) for every numeric input of the library."""
    ph = erlang_ph(1.0, 2)
    chain = build_zw_amc(ZwParams(1.0, 0.5))
    sim = partial(SimConfig, ZwParams(1.0, 1.0), "zw", horizon=1000)
    return [
        ("ZwParams.mu1", lambda v: ZwParams(v, 0.5), "mu1", 0.0, False, False),
        ("ZwParams.mu2", lambda v: ZwParams(1.0, v), "mu2", -1.0, False, False),
        ("FpParams.mu1", lambda v: FpParams(v, 0.5, 1.0, 2), "mu1", 0.0, False, False),
        ("FpParams.mu2", lambda v: FpParams(1.0, v, 1.0, 2), "mu2", 0.0, False, False),
        ("FpParams.freeze_rate", lambda v: FpParams(1.0, 0.5, v, 2), "freeze_rate", 0.0,
         False, True),
        ("FpParams.k", lambda v: FpParams(1.0, 0.5, 1.0, v), "Erlang order k", 0, True, True),
        ("erlang_ph.rate", lambda v: erlang_ph(v, 2), "rate", 0.0, False, False),
        ("erlang_ph.k", lambda v: erlang_ph(1.0, v), "Erlang order k", 0, True, False),
        ("ph_moment", lambda v: ph_moment(ph, v), "moment order", 0, True, False),
        ("aoi_moment", lambda v: aoi_moment(ph, v), "moment order", 0, True, False),
        ("absorption_probability.m", lambda v: absorption_probability(chain, v),
         "absorbing column", -1, True, False),
        ("SimConfig.horizon", lambda v: sim(horizon=v), "horizon", 999, True, False),
        ("SimConfig.warmup", lambda v: sim(warmup=v), "warmup", -1, True, False),
        ("SimConfig.replications", lambda v: sim(replications=v), "replications", 0, True,
         False),
        ("SimConfig.seed", lambda v: sim(seed=v), "seed", -1, True, False),
    ]


@pytest.mark.parametrize("case", _refusals(), ids=lambda case: case[0])
def test_every_numeric_input_refuses_with_a_value_error_naming_it(case):
    _, call, name, below, count, takes_inf = case
    bad = [math.nan, -math.inf, True, "1", below] + [math.inf] * (not takes_inf)
    bad += [2.5] if count else [10 ** 400] * (not takes_inf)  # an int beyond any float
    for value in bad:
        # a ValueError that names the input; an OverflowError or TypeError fails the test
        with pytest.raises(ValueError, match=name):
            call(value)


def _array_refusals():
    """(input, call with the array, name the error must give, a valid array, its
    dimensions (None: any, or not a dense array), whether it must be finite, whether
    sorted) for every array input of the library."""
    S, V, init, mask = [[-2.0, 1.0], [0.0, -1.0]], [[1.0], [1.0]], [1.0, 0.0], [1.0, 1.0]
    chain = AbsorbingChain(S, V, init, mask)
    grid, pdf, cdf = [0.0, 1.0, 2.0], [0.1, 0.3, 0.2], [0.0, 0.5, 1.0]
    u, length, peaks = [0.5, 1.0, 0.2], [1.0, 0.5, 2.0], [1.5, 1.5, 2.2]
    table = partial(DistributionTable, mean=1.0, second_moment=2.0, variance=1.0)
    sparse = scipy.sparse.csc_array
    return [
        ("AbsorbingChain.S", lambda a: AbsorbingChain(a, V, init, mask), "S", S, 2, True, False),
        ("AbsorbingChain.S sparse", lambda a: AbsorbingChain(sparse(a), V, init, mask), "S", S,
         None, True, False),
        ("AbsorbingChain.V", lambda a: AbsorbingChain(S, a, init, mask), "V", V, 2, True, False),
        ("AbsorbingChain.init", lambda a: AbsorbingChain(S, V, a, mask), "init", init, 1, True,
         False),
        ("AbsorbingChain.aoi_mask", lambda a: AbsorbingChain(S, V, init, a), "aoi_mask", mask, 1,
         True, False),
        ("with_init", chain.with_init, "init", init, 1, True, False),
        ("phase_type.sigma", lambda a: phase_type(a, S), "sigma", init, 1, True, False),
        ("phase_type.S", lambda a: phase_type(init, a), "S", S, 2, True, False),
        ("expm_action_grid.S", lambda a: expm_action_grid(a, [1.0], init), "S", S, 2, True,
         False),
        ("expm_action_grid.S sparse", lambda a: expm_action_grid(sparse(a), [1.0], init), "S", S,
         None, True, False),
        ("expm_action_grid.v", lambda a: expm_action_grid(S, [1.0], a), "v", init, 1, True,
         False),
        ("expm_action_grid.W", lambda a: expm_action_grid(S, [1.0], init, a), "W", V, 2, True,
         False),
        ("expm_action_grid.xs", lambda a: expm_action_grid(S, a, init), "xs", [0.5, 1.0], 1,
         True, False),
        ("DistributionTable.grid", lambda a: table(a, pdf, cdf), "grid", grid, 1, True, True),
        ("DistributionTable.pdf", lambda a: table(grid, a, cdf), "pdf", pdf, 1, True, False),
        ("DistributionTable.cdf", lambda a: table(grid, pdf, a), "cdf", cdf, 1, True, True),
        ("empirical_aoi_cdf.u", lambda a: empirical_aoi_cdf(a, length, [1.0]), "u", u, 1, True,
         False),
        ("empirical_aoi_cdf.length", lambda a: empirical_aoi_cdf(u, a, [1.0]), "length", length,
         1, True, False),
        ("empirical_aoi_cdf.xs", lambda a: empirical_aoi_cdf(u, length, a), "xs", [0.3, 1.0],
         None, False, False),
        ("empirical_paoi_cdf.peaks_sorted", lambda a: empirical_paoi_cdf(a, [1.0]),
         "peaks_sorted", peaks, 1, True, True),
        ("empirical_paoi_cdf.xs", lambda a: empirical_paoi_cdf(peaks, a), "xs", [0.3, 1.0],
         None, False, False),
        ("ks_distance.x1", lambda a: ks_distance(a, cdf, grid, cdf), "x1", grid, 1, True, True),
        ("ks_distance.cdf1", lambda a: ks_distance(grid, a, grid, cdf), "cdf1", cdf, 1, True,
         False),
        ("ks_distance.x2", lambda a: ks_distance(grid, cdf, a, cdf), "x2", grid, 1, True, True),
        ("ks_distance.cdf2", lambda a: ks_distance(grid, cdf, grid, a), "cdf2", cdf, 1, True,
         False),
    ]


@pytest.mark.parametrize("case", _array_refusals(), ids=lambda case: case[0])
def test_every_array_input_refuses_with_a_value_error_naming_it(case):
    _, call, name, good, ndim, finite, ascending = case
    good = np.array(good)
    call(good)  # the valid array passes
    bad = []
    for value in [math.nan] + [math.inf, -math.inf] * finite:
        bad.append(good.copy())
        bad[-1].flat[-1] = value
    if ndim is not None:  # one dimension too many, and a scalar
        bad += [good[None], good.flat[0]]
    if ascending:
        bad.append(good[::-1])
    for value in bad:
        # a ValueError whose message starts with the name; numpy's own errors fail the test
        with pytest.raises(ValueError, match=f"^{name} "):
            call(value)


def test_dump_csv_writes_audit_files(tmp_path):
    chain = build_zw_amc(ZwParams(0.5, 0.1))
    written = chain.dump_csv(tmp_path / "dump")
    assert len(written) == 4
    text = (tmp_path / "dump" / "S.csv").read_text().splitlines()
    assert text[0].startswith("c0,")
    assert len(text) == 8  # header + 7 rows
