import math

import numpy as np
import pytest

import _oracles as orc
from conftest import random_stream_lines
from m2dne.graph import MacroSeries, compute_macro_series, parse_edge_list
from m2dne import macro as macro_mod
from m2dne.macro import (MacroParams, SampledCoupling, edge_affinity,
                         fit_params, forecast_scale, linear_node_forecast,
                         macro_loss, macro_loss_and_grads, _predict_series)
from m2dne.util import Workspace, softplus, softplus_inv


def toy_edges(seed=0, V=12, M=30, d=3):
    rng = np.random.default_rng(seed)
    U = rng.normal(0, 0.5, (V, d))
    src = rng.integers(0, V, M)
    dst = (src + 1 + rng.integers(0, V - 1, M)) % V
    return U, src.astype(np.int64), dst.astype(np.int64)


def make_series(n, delta, start_e=5.0):
    n = np.asarray(n, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    e = np.concatenate([[start_e], start_e + np.cumsum(delta)])
    return MacroSeries(epochs=np.arange(1, len(n) + 1, dtype=np.int64),
                       n=n, e=e, delta_e=delta)


ZETA_RAW_ONE = math.log(math.e - 1.0)   # softplus(x) = 1


def predict_one(n, S, t, zeta, gamma, theta=1.0):
    """One epoch's predicted increment, n * (S / t^theta) * zeta *
    (n - 1)^gamma."""
    params = MacroParams(softplus_inv(zeta), gamma, theta)
    return float(_predict_series(S, np.array([float(n)]), np.array([t]),
                                 params)[0])


def linking_rate(U, src, dst, t, theta):
    """r(t) = S(U) / t^theta, read off the prediction at n = 2 and zeta = 1,
    where n * zeta * (n - 1)^gamma is 2."""
    return predict_one(2, edge_affinity(U, src, dst), t, 1.0, 1.0, theta) / 2


class TestLinkingRate:
    def test_identical_embeddings_unit_time(self):
        U = np.tile([0.3, -0.7], (5, 1))
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 3])
        assert linking_rate(U, src, dst, 1, theta=1.7) == pytest.approx(0.5)

    def test_theta_zero_constant_in_time(self):
        U, src, dst = toy_edges()
        vals = [linking_rate(U, src, dst, t, theta=0.0) for t in (1, 3, 10)]
        assert vals[0] == vals[1] == vals[2]

    def test_toy_matches_oracle(self):
        U, src, dst = toy_edges(seed=4)
        got = linking_rate(U, src, dst, 4, theta=1.5)
        want = orc.linking_rate_oracle(U.tolist(), list(zip(src, dst)), 4, 1.5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_non_increasing_in_time_for_nonneg_theta(self):
        U, src, dst = toy_edges(seed=5)
        for theta in (0.0, 0.5, 2.0):
            rates = [linking_rate(U, src, dst, t, theta) for t in range(1, 8)]
            assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_empty_edges_rejected(self):
        with pytest.raises(ValueError):
            edge_affinity(np.zeros((3, 2)), np.zeros(0, dtype=int),
                          np.zeros(0, dtype=int))


class TestPredictedNewEdges:
    def test_single_node_zero(self):
        assert predict_one(1, 0.4, 1, 2.0, 1.5) == 0.0

    def test_gamma_zero(self):
        assert predict_one(7, 0.3, 1, 2.0, 0.0) == pytest.approx(4.2)

    def test_direct_arithmetic(self):
        assert predict_one(2, 0.5, 1, 1.0, 1.0) == pytest.approx(1.0)

    def test_linear_in_zeta(self):
        base = predict_one(9, 0.4, 3, 1.0, 1.3)
        assert predict_one(9, 0.4, 3, 3.5, 1.3) == pytest.approx(3.5 * base)

    def test_depends_on_affinity_and_zeta_only_through_their_product(self):
        # the reason the growth fit is on kappa = S * zeta
        assert predict_one(9, 0.4, 3, 1.5, 1.3) == \
            pytest.approx(predict_one(9, 0.2, 3, 3.0, 1.3), rel=1e-15)


class TestMacroLoss:
    def test_perfect_fit_is_zero(self):
        U, src, dst = toy_edges(seed=7)
        params = MacroParams(0.3, 1.1, 0.9)
        n = np.array([3.0, 5.0, 8.0, 9.0])
        S = edge_affinity(U, src, dst)
        delta = _predict_series(S, n[:-1], np.arange(1, 4), params)
        series = make_series(n, delta)
        assert macro_loss(series, S, params) == pytest.approx(0.0, abs=1e-18)

    def test_single_epoch_squared_error(self):
        # predicted increment 1 against observed 3 -> (3 - 1)^2 = 4
        U = np.tile([0.1, 0.2], (4, 1))        # identical -> affinity 0.5
        src = np.array([0, 1])
        dst = np.array([1, 2])
        params = MacroParams(ZETA_RAW_ONE, 1.0, 1.0)
        series = make_series([2.0, 3.0], [3.0])
        S = edge_affinity(U, src, dst)
        assert macro_loss(series, S, params) == pytest.approx(4.0)

    def test_toy_matches_oracle(self):
        U, src, dst = toy_edges(seed=8)
        params = MacroParams(0.4, 1.3, 0.7)
        n = np.array([2.0, 4.0, 7.0, 11.0, 12.0])
        delta = np.array([3.0, 5.0, 4.0, 6.0])
        series = make_series(n, delta)
        got = macro_loss(series, edge_affinity(U, src, dst), params)
        want = orc.macro_loss_oracle(series.epochs.tolist(), n.tolist(),
                                     delta.tolist(), U.tolist(),
                                     list(zip(src, dst)), 0.4, 1.3, 0.7)
        assert got == pytest.approx(want, abs=1e-9)

    def test_gradients_match_finite_differences(self):
        U, src, dst = toy_edges(seed=9, V=6, M=12, d=2)
        params = MacroParams(0.2, 1.2, 0.8)
        n = np.array([2.0, 3.0, 5.0, 6.0])
        delta = np.array([2.0, 4.0, 3.0])
        series = make_series(n, delta)
        loss, dU = macro_loss_and_grads(series, U, src, dst, params)
        assert loss == pytest.approx(
            macro_loss(series, edge_affinity(U, src, dst), params))
        step = 1e-6

        def at(U_):
            return macro_loss(series, edge_affinity(U_, src, dst), params)

        for (r, c) in [(0, 0), (2, 1), (5, 0)]:
            Up = U.copy(); Up[r, c] += step
            Um = U.copy(); Um[r, c] -= step
            num = (at(U_=Up) - at(U_=Um)) / (2 * step)
            assert dU[r, c] == pytest.approx(num, rel=1e-4, abs=1e-10)


class TestSampledCoupling:
    """The per-step estimate of the coupling's embedding gradient, at a
    sample size below the edge count so the estimate is not the full sum."""

    M = 8

    @pytest.fixture
    def anchored(self, monkeypatch):
        """(series, edges, anchor embeddings U_ref, params fitted at S(U_ref),
        anchor factory) on 40 edges of 10 nodes."""
        monkeypatch.setattr(macro_mod, "COUPLING_SAMPLE", self.M)
        U_ref, src, dst = toy_edges(seed=0, V=10, M=40, d=3)
        series = make_series([2.0, 3.0, 5.0, 6.0, 8.0], [2.0, 4.0, 3.0, 5.0])
        sig_ref = np.empty(len(src))
        S_ref = edge_affinity(U_ref, src, dst, out=sig_ref)
        params = fit_params(series, S_ref)

        def anchor(seed):
            return SampledCoupling(series, sig_ref, S_ref, params,
                                   np.random.default_rng(seed))

        return series, src, dst, U_ref, params, anchor

    @staticmethod
    def draws(anchor, U, src, dst, count, scale=1.0):
        work = Workspace()
        out = np.zeros((count,) + U.shape)
        for k in range(count):
            anchor.add_grad(U, src, dst, scale, out[k], work)
        return out

    def test_mean_of_draws_is_exact_gradient(self, anchored):
        series, src, dst, U_ref, params, anchor = anchored
        U = U_ref + np.random.default_rng(1).normal(0, 0.3, U_ref.shape)
        _, exact = macro_loss_and_grads(series, U, src, dst, params)
        samples = self.draws(anchor(5), U, src, dst, 4000)
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
        # the second bound keeps a bias of half the largest entry at five
        # standard errors or more; one sample shared by S and dS/dU gives a
        # largest |z| of about 18 here
        assert np.max(np.abs(mean - exact) / stderr) < 4.5
        assert np.max(stderr) < 0.1 * np.max(np.abs(exact))

    def test_scale_multiplies_the_draw(self, anchored):
        _, src, dst, U_ref, _, anchor = anchored
        U = U_ref + np.random.default_rng(2).normal(0, 0.3, U_ref.shape)
        once = self.draws(anchor(3), U, src, dst, 5)
        scaled = self.draws(anchor(3), U, src, dst, 5, scale=0.3)
        assert np.allclose(scaled, 0.3 * once, rtol=1e-12, atol=0.0)

    def test_draws_at_the_refit_point_carry_no_affinity_noise(self, anchored):
        # at the refit's own embeddings every sampled sigma_e equals its
        # sig_ref, so each draw's estimate of S - S_ref, and with it
        # dL/dS = 2 a (S - S_ref), is exactly 0: so is every draw. A raw
        # sample mean of sigma_e would leave 2 a (mean - S_ref) times the
        # gradient sample in each draw.
        _, src, dst, U_ref, _, anchor = anchored
        U = U_ref + np.random.default_rng(1).normal(0, 0.3, U_ref.shape)
        away = self.draws(anchor(7), U, src, dst, 50)
        at_ref = self.draws(anchor(7), U_ref, src, dst, 50)
        assert np.max(np.abs(away)) > 0.0
        assert not np.any(at_ref)

    def test_rejects_a_strided_gradient(self, anchored):
        _, src, dst, U_ref, _, anchor = anchored
        out = np.zeros((U_ref.shape[1], U_ref.shape[0])).T
        with pytest.raises(ValueError, match="contiguous"):
            anchor(0).add_grad(U_ref, src, dst, 1.0, out, Workspace())

    def test_affinity_writes_the_per_edge_sigmoids(self):
        U, src, dst = toy_edges(seed=2)
        sig = np.empty(len(src))
        S = edge_affinity(U, src, dst, out=sig)
        assert S == edge_affinity(U, src, dst)
        assert float(np.mean(sig)) == S
        want = [orc._sigmoid(-sum((U[a, c] - U[b, c]) ** 2
                                  for c in range(U.shape[1])))
                for a, b in zip(src, dst)]
        assert np.allclose(sig, want, rtol=1e-12, atol=0.0)


class TestFitParams:
    def test_recovers_generator(self):
        U, src, dst = toy_edges(seed=10, V=20, M=60, d=4)
        true = MacroParams(zeta_raw=float(np.log(np.exp(0.9) - 1.0)),
                           gamma=1.1, theta=1.2)
        n = 4.0 + np.arange(1, 21)
        S = edge_affinity(U, src, dst)
        delta = _predict_series(S, n[:-1], np.arange(1, 20), true)
        series = make_series(n, delta)
        fitted = fit_params(series, S)
        assert fitted.zeta == pytest.approx(true.zeta, rel=0.02)
        assert fitted.gamma == pytest.approx(true.gamma, rel=0.02)
        assert fitted.theta == pytest.approx(true.theta, rel=0.02)

    def _noisy_series(self):
        U, src, dst = toy_edges(seed=12, V=20, M=60, d=4)
        true = MacroParams(zeta_raw=0.3, gamma=1.2, theta=0.9)
        n = 3.0 + 2.0 * np.arange(1, 31)
        S = edge_affinity(U, src, dst)
        delta = _predict_series(S, n[:-1], np.arange(1, 30), true)
        rng = np.random.default_rng(5)
        delta = delta * (1.0 + 0.1 * rng.standard_normal(delta.shape[0]))
        return U, src, dst, S, make_series(n, delta)

    def test_fitted_point_is_stationary(self):
        _, _, _, S, series = self._noisy_series()
        fitted = fit_params(series, S)
        loss = macro_loss(series, S, fitted)
        grad = orc.growth_gradient_oracle(
            series.epochs[:-1].tolist(), series.n[:-1].tolist(),
            series.delta_e.tolist(), S, fitted.zeta_raw, fitted.gamma,
            fitted.theta)
        assert loss > 1.0    # noisy: the optimum is not an exact fit
        assert math.hypot(*grad) <= macro_mod._GRAD_TOL * (1.0 + loss)

    def test_fitted_point_is_local_minimum(self):
        _, _, _, S, series = self._noisy_series()
        fitted = fit_params(series, S)
        best = macro_loss(series, S, fitted)
        x = np.array([fitted.zeta_raw, fitted.gamma, fitted.theta])
        for k in range(3):
            for h in (-1e-3, 1e-3):
                probe = x.copy()
                probe[k] += h
                assert macro_loss(series, S, MacroParams(*probe)) >= best

    def test_growth_gradient_oracle_matches_central_differences(self):
        _, _, _, S, series = self._noisy_series()
        x = np.array([0.2, 1.1, 0.8])
        grad = orc.growth_gradient_oracle(
            series.epochs[:-1].tolist(), series.n[:-1].tolist(),
            series.delta_e.tolist(), S, *x)
        step = 1e-6
        for k in range(3):
            xp, xm = x.copy(), x.copy()
            xp[k] += step
            xm[k] -= step
            num = (macro_loss(series, S, MacroParams(*xp))
                   - macro_loss(series, S, MacroParams(*xm))) / (2 * step)
            assert grad[k] == pytest.approx(num, rel=1e-6)

    def test_projected_derivatives_match_central_differences(self):
        # the fit's step uses half the gradient and half the Hessian of the
        # loss with kappa solved out; at these points the Hessian is
        # positive definite, so it is the exact one
        _, _, _, _, series = self._noisy_series()
        n, t = series.n[:-1], series.epochs[:-1].astype(np.float64)
        args = (n, t, series.delta_e, macro_mod._log_factors(n, t))
        step = 1e-6
        for x in ([1.0, 1.0], [0.5, 0.2], [1.3, 0.9]):
            x = np.array(x)
            _, g, A, _ = macro_mod._projected_loss(x, *args)
            for k in range(2):
                xp, xm = x.copy(), x.copy()
                xp[k] += step
                xm[k] -= step
                lp, gp, _, _ = macro_mod._projected_loss(xp, *args)
                lm, gm, _, _ = macro_mod._projected_loss(xm, *args)
                assert g[k] == pytest.approx((lp - lm) / (4 * step), rel=1e-6)
                assert np.allclose(A[:, k], (gp - gm) / (2 * step),
                                   rtol=1e-6, atol=0.0)

    def test_single_node_series_rejected(self):
        U, src, dst = toy_edges(seed=13)
        series = make_series(np.ones(6), np.arange(1.0, 6.0))
        with pytest.raises(ValueError, match="2 or more nodes"):
            fit_params(series, edge_affinity(U, src, dst))

    @pytest.mark.parametrize("S", [0.0, -0.25])
    def test_non_positive_affinity_rejected(self, S):
        _, _, _, _, series = self._noisy_series()
        with pytest.raises(ValueError, match="underflowed"):
            fit_params(series, S)

    def test_series_without_new_edges_rejected(self):
        series = make_series(3.0 + np.arange(6.0), np.zeros(5))
        with pytest.raises(ValueError, match="kappa"):
            fit_params(series, 0.5)

    def test_non_finite_start_rejected(self):
        # q is about 1e2 per epoch at (gamma, theta) = (1, 1), so the squared
        # residuals of 1e200 increments overflow
        _, _, _, S, series = self._noisy_series()
        huge = make_series(series.n, 1e200 * np.ones_like(series.delta_e))
        with pytest.raises(ValueError, match="not finite"):
            fit_params(huge, S)

    def test_fit_is_equivariant_in_the_affinity(self, tmp_edges):
        # on this stream the S-dependent fit of (zeta, gamma, theta) drove
        # softplus(zeta_raw) to 0 at S = 0.5 and 0.2 and divided by it
        net = parse_edge_list(tmp_edges(random_stream_lines()))
        series = compute_macro_series(net)
        fits = {S: fit_params(series, S) for S in (0.5, 0.4, 0.3, 0.2)}
        ref = fits[0.5]
        for S, fitted in fits.items():
            assert (fitted.gamma, fitted.theta) == (ref.gamma, ref.theta)
            assert S * fitted.zeta == pytest.approx(0.5 * ref.zeta, rel=1e-12)


class TestForecast:
    def _generator_setup(self, T=24, split=None):
        U, src, dst = toy_edges(seed=11, V=30, M=80, d=3)
        params = MacroParams(zeta_raw=0.4, gamma=1.15, theta=1.1)
        n = 6.0 + 1.5 * np.arange(1, T + 1)
        S = edge_affinity(U, src, dst)
        delta = _predict_series(S, n[:-1], np.arange(1, T), params)
        series = make_series(n, delta, start_e=12.0)
        return S, params, series

    def test_empty_horizon(self):
        S, params, series = self._generator_setup()
        out = forecast_scale(S, params, series, np.zeros(0, dtype=np.int64),
                             None)
        assert out.shape == (0,)

    def test_matches_generator_exactly(self):
        S, params, series = self._generator_setup(T=24)
        train = series.prefix(16)
        horizon = np.arange(17, 25, dtype=np.int64)
        got = forecast_scale(S, params, train, horizon, series.n[horizon - 1])
        assert np.allclose(got, series.e[horizon - 1], rtol=1e-6)

    def test_matches_oracle(self):
        U, src, dst = toy_edges(seed=14, V=20, M=50, d=3)
        params = MacroParams(0.3, 1.2, 0.8)
        train = make_series([3.0, 5.0, 8.0, 9.0], [2.0, 4.0, 3.0], start_e=4.0)
        horizon = np.arange(5, 10, dtype=np.int64)
        n_future = np.array([11.0, 11.0, 14.0, 18.0, 19.0])
        got = forecast_scale(edge_affinity(U, src, dst), params, train, horizon,
                             n_future)
        want = orc.forecast_oracle(U.tolist(), list(zip(src, dst)), 13.0, 9.0,
                                   4, n_future.tolist(), 0.3, 1.2, 0.8)
        assert np.max(np.abs(got - np.array(want))) <= 1e-10

    def test_more_training_reduces_suffix_error(self):
        S, params, series = self._generator_setup(T=24)
        rng = np.random.default_rng(3)
        noisy_delta = series.delta_e * (1.0 + 0.05 * rng.standard_normal(23))
        noisy = make_series(series.n, noisy_delta, start_e=12.0)

        def suffix_rmse(train_epochs):
            train = noisy.prefix(train_epochs)
            horizon = np.arange(train_epochs + 1, 25, dtype=np.int64)
            fitted = fit_params(train, S)
            pred = forecast_scale(S, fitted, train, horizon,
                                  noisy.n[horizon - 1])
            return float(np.sqrt(np.mean((pred - noisy.e[horizon - 1]) ** 2)))

        assert suffix_rmse(18) <= suffix_rmse(12)

    def test_requires_consecutive_horizon(self):
        S, params, series = self._generator_setup()
        train = series.prefix(10)
        with pytest.raises(ValueError):
            forecast_scale(S, params, train, np.array([12, 13]),
                           np.array([5.0, 6.0]))

    def test_requires_n_future(self):
        S, params, series = self._generator_setup()
        train = series.prefix(10)
        with pytest.raises(ValueError):
            forecast_scale(S, params, train, np.array([11]), None)

    def test_linear_node_forecast(self):
        series = make_series(np.array([2.0, 4.0, 6.0, 8.0, 10.0, 12.0]),
                             np.ones(5))
        pred = linear_node_forecast(series, np.array([7, 8]))
        assert pred == pytest.approx([14.0, 16.0])

    def test_linear_needs_enough_epochs(self):
        series = make_series(np.array([2.0, 3.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            linear_node_forecast(series, np.array([3]))


class TestMacroParams:
    def test_zeta_positive(self):
        for raw in (-30.0, -1.0, 0.0, 2.0, 30.0):
            assert MacroParams(zeta_raw=raw).zeta > 0.0

    def test_default_zeta_is_softplus_zero(self):
        assert MacroParams().zeta == pytest.approx(softplus(0.0))
