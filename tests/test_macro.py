import math

import numpy as np
import pytest

import _oracles as orc
from m2dne.graph import MacroSeries
from m2dne import macro as macro_mod
from m2dne.macro import (MacroParams, edge_affinity, fit_params, forecast_scale,
                         linear_node_forecast, linking_rate, macro_loss,
                         macro_loss_and_grads, predicted_new_edges,
                         _predict_series, _residual_jacobian)
from m2dne.util import softplus


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
            linking_rate(np.zeros((3, 2)), np.zeros(0, dtype=int),
                         np.zeros(0, dtype=int), 1, 1.0)

    def test_subsampled_affinity(self):
        U, src, dst = toy_edges(seed=6, M=200)
        rng = np.random.default_rng(0)
        approx = edge_affinity(U, src, dst, max_edges=150, rng=rng)
        exact = edge_affinity(U, src, dst)
        assert approx == pytest.approx(exact, abs=0.05)


class TestPredictedNewEdges:
    def test_single_node_zero(self):
        assert predicted_new_edges(1, 0.4, 2.0, 1.5) == 0.0

    def test_gamma_zero(self):
        assert predicted_new_edges(7, 0.3, 2.0, 0.0) == pytest.approx(4.2)

    def test_direct_arithmetic(self):
        assert predicted_new_edges(2, 0.5, 1.0, 1.0) == pytest.approx(1.0)

    def test_linear_in_zeta(self):
        base = predicted_new_edges(9, 0.4, 1.0, 1.3)
        assert predicted_new_edges(9, 0.4, 3.5, 1.3) == pytest.approx(3.5 * base)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            predicted_new_edges(0, 0.4, 1.0, 1.0)


class TestMacroLoss:
    def test_perfect_fit_is_zero(self):
        U, src, dst = toy_edges(seed=7)
        params = MacroParams(0.3, 1.1, 0.9)
        n = np.array([3.0, 5.0, 8.0, 9.0])
        S = edge_affinity(U, src, dst)
        delta = _predict_series(S, n[:-1], np.arange(1, 4), params)
        series = make_series(n, delta)
        assert macro_loss(series, U, src, dst, params) == pytest.approx(0.0,
                                                                        abs=1e-18)

    def test_single_epoch_squared_error(self):
        # predicted increment 1 against observed 3 -> (3 - 1)^2 = 4
        U = np.tile([0.1, 0.2], (4, 1))        # identical -> affinity 0.5
        src = np.array([0, 1])
        dst = np.array([1, 2])
        params = MacroParams(ZETA_RAW_ONE, 1.0, 1.0)
        series = make_series([2.0, 3.0], [3.0])
        assert macro_loss(series, U, src, dst, params) == pytest.approx(4.0)

    def test_toy_matches_oracle(self):
        U, src, dst = toy_edges(seed=8)
        params = MacroParams(0.4, 1.3, 0.7)
        n = np.array([2.0, 4.0, 7.0, 11.0, 12.0])
        delta = np.array([3.0, 5.0, 4.0, 6.0])
        series = make_series(n, delta)
        got = macro_loss(series, U, src, dst, params)
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
        loss, dU, dz, dg, dt = macro_loss_and_grads(series, U, src, dst, params)
        assert loss == pytest.approx(macro_loss(series, U, src, dst, params))
        step = 1e-6

        def at(zr=params.zeta_raw, ga=params.gamma, th=params.theta, U_=U):
            return macro_loss(series, U_, src, dst, MacroParams(zr, ga, th))

        num_z = (at(zr=params.zeta_raw + step) - at(zr=params.zeta_raw - step)) / (2 * step)
        num_g = (at(ga=params.gamma + step) - at(ga=params.gamma - step)) / (2 * step)
        num_t = (at(th=params.theta + step) - at(th=params.theta - step)) / (2 * step)
        assert dz == pytest.approx(num_z, rel=1e-5)
        assert dg == pytest.approx(num_g, rel=1e-5)
        assert dt == pytest.approx(num_t, rel=1e-5)
        for (r, c) in [(0, 0), (2, 1), (5, 0)]:
            Up = U.copy(); Up[r, c] += step
            Um = U.copy(); Um[r, c] -= step
            num = (at(U_=Up) - at(U_=Um)) / (2 * step)
            assert dU[r, c] == pytest.approx(num, rel=1e-4, abs=1e-10)


class TestFitParams:
    def test_recovers_generator(self):
        U, src, dst = toy_edges(seed=10, V=20, M=60, d=4)
        true = MacroParams(zeta_raw=float(np.log(np.exp(0.9) - 1.0)),
                           gamma=1.1, theta=1.2)
        n = 4.0 + np.arange(1, 21)
        S = edge_affinity(U, src, dst)
        delta = _predict_series(S, n[:-1], np.arange(1, 20), true)
        series = make_series(n, delta)
        fitted = fit_params(series, U, src, dst)
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
        return U, src, dst, make_series(n, delta)

    def test_fitted_point_is_stationary(self):
        U, src, dst, series = self._noisy_series()
        fitted = fit_params(series, U, src, dst)
        loss, _, dz, dg, dt = macro_loss_and_grads(series, U, src, dst, fitted)
        assert loss > 1.0    # noisy: the optimum is not an exact fit
        assert math.hypot(dz, dg, dt) <= macro_mod._GRAD_TOL * (1.0 + loss)

    def test_fitted_point_is_local_minimum(self):
        U, src, dst, series = self._noisy_series()
        fitted = fit_params(series, U, src, dst)
        best = macro_loss(series, U, src, dst, fitted)
        x = np.array([fitted.zeta_raw, fitted.gamma, fitted.theta])
        for k in range(3):
            for h in (-1e-3, 1e-3):
                probe = x.copy()
                probe[k] += h
                assert macro_loss(series, U, src, dst, MacroParams(*probe)) >= best

    def test_jacobian_matches_central_differences(self):
        U, src, dst, series = self._noisy_series()
        S = edge_affinity(U, src, dst)
        n, t = series.n[:-1], series.epochs[:-1].astype(np.float64)
        x = np.array([0.2, 1.1, 0.8])
        _, J = _residual_jacobian(S, n, t, series.delta_e, MacroParams(*x))
        step = 1e-6
        for k in range(3):
            xp, xm = x.copy(), x.copy()
            xp[k] += step
            xm[k] -= step
            rp, _ = _residual_jacobian(S, n, t, series.delta_e, MacroParams(*xp))
            rm, _ = _residual_jacobian(S, n, t, series.delta_e, MacroParams(*xm))
            assert np.allclose(J[:, k], (rp - rm) / (2 * step), rtol=1e-6,
                               atol=1e-8)

    def test_single_node_series_returns_start(self):
        U, src, dst = toy_edges(seed=13)
        series = make_series(np.ones(6), np.arange(1.0, 6.0))
        start = MacroParams(0.5, 1.3, 0.7)
        fitted = fit_params(series, U, src, dst, init=start)
        assert (fitted.zeta_raw, fitted.gamma, fitted.theta) == \
            (start.zeta_raw, start.gamma, start.theta)

    def test_far_start_ends_finite_and_no_worse(self):
        U, src, dst, series = self._noisy_series()
        start = MacroParams(0.0, 6.0, -3.0)
        fitted = fit_params(series, U, src, dst, init=start)
        x = [fitted.zeta_raw, fitted.gamma, fitted.theta]
        assert all(math.isfinite(v) for v in x)
        assert macro_loss(series, U, src, dst, fitted) <= \
            macro_loss(series, U, src, dst, start)

    def test_non_finite_start_rejected(self):
        U, src, dst, series = self._noisy_series()
        with pytest.raises(ValueError):
            fit_params(series, U, src, dst, init=MacroParams(0.0, 1e4, 1.0))


class TestForecast:
    def _generator_setup(self, T=24, split=None):
        U, src, dst = toy_edges(seed=11, V=30, M=80, d=3)
        params = MacroParams(zeta_raw=0.4, gamma=1.15, theta=1.1)
        n = 6.0 + 1.5 * np.arange(1, T + 1)
        S = edge_affinity(U, src, dst)
        delta = _predict_series(S, n[:-1], np.arange(1, T), params)
        series = make_series(n, delta, start_e=12.0)
        return U, src, dst, params, series

    def test_empty_horizon(self):
        U, src, dst, params, series = self._generator_setup()
        out = forecast_scale(U, params, series, src, dst,
                             np.zeros(0, dtype=np.int64), None)
        assert out.shape == (0,)

    def test_matches_generator_exactly(self):
        U, src, dst, params, series = self._generator_setup(T=24)
        train = series.prefix(16)
        horizon = np.arange(17, 25, dtype=np.int64)
        got = forecast_scale(U, params, train, src, dst, horizon,
                             series.n[horizon - 1])
        assert np.allclose(got, series.e[horizon - 1], rtol=1e-6)

    def test_more_training_reduces_suffix_error(self):
        U, src, dst, params, series = self._generator_setup(T=24)
        rng = np.random.default_rng(3)
        noisy_delta = series.delta_e * (1.0 + 0.05 * rng.standard_normal(23))
        noisy = make_series(series.n, noisy_delta, start_e=12.0)

        def suffix_rmse(train_epochs):
            train = noisy.prefix(train_epochs)
            horizon = np.arange(train_epochs + 1, 25, dtype=np.int64)
            fitted = fit_params(train, U, src, dst)
            pred = forecast_scale(U, fitted, train, src, dst, horizon,
                                  noisy.n[horizon - 1])
            return float(np.sqrt(np.mean((pred - noisy.e[horizon - 1]) ** 2)))

        assert suffix_rmse(18) <= suffix_rmse(12)

    def test_requires_consecutive_horizon(self):
        U, src, dst, params, series = self._generator_setup()
        train = series.prefix(10)
        with pytest.raises(ValueError):
            forecast_scale(U, params, train, src, dst,
                           np.array([12, 13]), np.array([5.0, 6.0]))

    def test_requires_n_future(self):
        U, src, dst, params, series = self._generator_setup()
        train = series.prefix(10)
        with pytest.raises(ValueError):
            forecast_scale(U, params, train, src, dst, np.array([11]), None)

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
