import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

from lpvsyn import (FrequencyGrid, ObfBasis, RationalTf, analysis, characteristic_data,
                    check_performance, check_stability, closed_loop_data,
                    compute_achieved_gamma, grid_winding, internally_stable)
from lpvsyn.analysis import _escalation_bases, _multiplier_lp, winding_trusted
from lpvsyn.exceptions import SolverFailureError
from lpvsyn.factorization import ClosedLoopFactorData
from lpvsyn.obf import eval_basis
from lpvsyn.rational import closed_loop_char_poly
from conftest import closed_loop_pole_moduli, lightly_damped_dp, random_proper_tf


@pytest.fixture(scope="module")
def grid512():
    return FrequencyGrid(np.linspace(1e-3, np.pi - 1e-9, 512))


class TestGridWinding:
    def test_reference_values(self, grid512):
        z = grid512.z
        assert grid_winding(np.ones(512, dtype=complex)) == 0
        assert grid_winding(z) == 1
        assert grid_winding(1.0 / z) == -1
        assert grid_winding(z - 0.5) == 1
        assert grid_winding((z + 2.0) / z) == -1


class TestWindingOnPartialGrid:
    @pytest.mark.parametrize("r", [0.9, 0.95])
    def test_stable_data_not_refuted_by_winding_short_of_nyquist(self, r):
        # stable, minimum-phase D_p on a grid that stops at 90 of 100 Hz: its
        # phase leaves the real axis before the last line, so the grid
        # winding (-1) differs from the dense one over [0, pi] (0)
        grid = FrequencyGrid.log_spaced(0.05, 90.0, 64, 200.0)
        theta = 2 * np.pi * 95 / 200

        def dp(z):
            return (1 - r * np.exp(1j * theta) / z) * (1 - r * np.exp(-1j * theta) / z)

        dense = np.exp(1j * np.linspace(0.0, np.pi, 20001))
        assert grid_winding(dp(dense)) == 0
        assert grid_winding(dp(grid.z)) == -1
        assert not winding_trusted(dp(grid.z), grid)
        cert = check_stability({40.0: dp(grid.z)}, grid)
        assert cert.status != "refuted"
        assert cert.detail["winding_not_trusted"] == [{"p": 40.0, "winding": -1}]
        assert all(m.delay == 0 for m in cert.multipliers.values())

    def test_real_end_lines_keep_the_winding_witness(self):
        # a grid short of both 0 and pi, with data real at both end lines
        grid = FrequencyGrid(np.linspace(0.5, 2.5, 64))
        om = grid.omegas
        data = np.exp(-1j * np.pi * (om - om[0]) / (om[-1] - om[0]))
        assert winding_trusted(data, grid)
        cert = check_stability({0.0: data}, grid)
        assert cert.status == "refuted"
        assert cert.detail["witness"]["winding"] == -1
        assert "winding_not_trusted" not in cert.detail


class TestCheckStability:
    def test_unit_characteristic_data(self, grid512):
        cert = check_stability({0.0: np.ones(512, dtype=complex)}, grid512)
        assert cert.certified
        assert cert.margins[0.0] == pytest.approx(1.0)
        assert cert.multipliers[0.0].beta.size == 0

    def test_shifted_pole_data_certified(self, grid512):
        cert = check_stability({0.0: grid512.z - 0.5}, grid512)
        assert cert.certified
        alpha = cert.multipliers[0.0].on_grid(grid512)
        assert np.min(((grid512.z - 0.5) * alpha).real) >= cert.eps * 0.99

    def test_gain_four_refuted_and_oracle_agrees(self, grid512):
        g = RationalTf([1.0], [1.0, -2.0])
        k = RationalTf.constant(4.0)
        cert = check_stability({0.0: characteristic_data(g, k, grid512)}, grid512)
        assert cert.status == "refuted"
        assert not internally_stable(g, k)

    def test_gain_two_certified_and_oracle_agrees(self, grid512):
        g = RationalTf([1.0], [1.0, -2.0])
        k = RationalTf.constant(2.0)
        cert = check_stability({0.0: characteristic_data(g, k, grid512)}, grid512)
        assert cert.certified
        assert internally_stable(g, k)

    def test_zero_data_refuted_with_location(self, grid512):
        data = np.ones(512, dtype=complex)
        data[100] = 0.0
        cert = check_stability({0.0: data}, grid512)
        assert cert.status == "refuted"
        assert cert.detail["witness"]["omega"] == pytest.approx(grid512.omegas[100])

    def test_pinned_basis_can_be_inconclusive(self, grid512):
        # real part dips negative, and the pinned trivial basis cannot tilt it
        cert = check_stability({0.0: lightly_damped_dp(grid512)}, grid512,
                               basis=ObfBasis(np.zeros(0, dtype=complex)))
        assert cert.status == "inconclusive"
        assert cert.detail["failed_at"] == 0.0

    def test_randomized_oracle_agreement(self, grid512):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            g = random_proper_tf(rng)
            k = random_proper_tf(rng)
            try:
                stable = internally_stable(g, k)
            except ValueError:
                continue
            mods = closed_loop_pole_moduli(g, k)
            if np.any(np.abs(mods - 1.0) < 1e-3):
                continue
            checked += 1
            cert = check_stability({0.0: characteristic_data(g, k, grid512)},
                                   grid512)
            assert (cert.status == "certified") == stable
        assert checked >= 25


class TestMultiplierLp:
    def test_matches_scipy_linprog_on_every_rung(self, grid512):
        # scipy's linprog wrapper (presolve on) as an independent oracle of
        # the max-margin LP, on every rung of the ladder with both signs
        dp = lightly_damped_dp(grid512)
        worst = float(grid512.omegas[np.argmin(dp.real)])
        rungs = 0
        for basis in _escalation_bases(worst):
            phi = eval_basis(basis, grid512)
            n_beta = phi.shape[0] - 1
            cost = np.zeros(n_beta + 1)
            cost[-1] = -1.0
            for sign in (1.0, -1.0):
                dtilde = sign * dp
                beta, t_star = _multiplier_lp(dtilde, phi)
                coef = (dtilde[None, :] * phi[1:]).real
                a_ub = np.hstack([-coef.T, np.ones((dp.size, 1))])
                ref = scipy_linprog(cost, A_ub=a_ub, b_ub=dtilde.real,
                                    bounds=[(-1e6, 1e6)] * n_beta + [(None, None)],
                                    method="highs")
                assert ref.status == 0
                assert t_star == pytest.approx(-ref.fun, rel=1e-9)
                assert np.max(np.abs(beta)) <= 1e6
                rungs += 1
        assert rungs == 12

    def test_unfinished_lp_raises_not_inconclusive(self, grid512, monkeypatch):
        # a multiplier LP stopped by its iteration limit has decided nothing
        solve = analysis.linprog

        def limited(model, *, A_ub):
            model.setOptionValue("simplex_iteration_limit", 0)
            return solve(model, A_ub=A_ub)

        monkeypatch.setattr(analysis, "linprog", limited)
        with pytest.raises(SolverFailureError, match="multiplier LP failed"):
            check_stability({0.0: lightly_damped_dp(grid512)}, grid512)


class TestCheckPerformance:
    def make_data(self, grid, g, k):
        from lpvsyn.rational import closed_loop_maps
        maps = closed_loop_maps(g, k)
        phi = closed_loop_char_poly(g, k)
        shift = np.exp(1j * grid.omegas * (g.degree + k.degree))
        dp = np.polyval(phi, grid.z) / shift
        return ClosedLoopFactorData(
            d_p=dp,
            n_s=maps["S"].on_grid(grid) * dp,
            n_gs=maps["GS"].on_grid(grid) * dp,
            n_ks=maps["KS"].on_grid(grid) * dp,
            n_t=maps["T"].on_grid(grid) * dp)

    def unit_weights(self, grid):
        return {c: np.ones(len(grid), dtype=complex) for c in ("S", "GS", "KS", "T")}

    def test_huge_gamma_reduces_to_stability(self, grid512):
        g = RationalTf([0.4], [1.0, -0.5])
        k = RationalTf.constant(1.0)
        data = {0.0: self.make_data(grid512, g, k)}
        w = self.unit_weights(grid512)
        perf = check_performance(data, w, 1e12, grid512)
        stab = check_stability({0.0: data[0.0].d_p}, grid512)
        assert perf.status == stab.status == "certified"

    def test_below_achieved_refuted(self, grid512):
        g = RationalTf([0.4], [1.0, -0.5])
        k = RationalTf.constant(1.0)
        data = {0.0: self.make_data(grid512, g, k)}
        w = self.unit_weights(grid512)
        achieved = compute_achieved_gamma(data, w)
        cert = check_performance(data, w, 0.99 * achieved, grid512)
        assert cert.status == "refuted"
        assert cert.detail["witness"]["reason"] == "disc contains the origin"

    def test_refutation_monotone(self, grid512):
        g = RationalTf([0.4], [1.0, -0.5])
        k = RationalTf.constant(1.0)
        data = {0.0: self.make_data(grid512, g, k)}
        w = self.unit_weights(grid512)
        achieved = compute_achieved_gamma(data, w)
        for factor in (0.9, 0.5, 0.1):
            assert check_performance(data, w, factor * achieved,
                                     grid512).status == "refuted"

    def test_synthesized_controller_certifies_with_trivial_alpha(
            self, small_problem, small_lpv_result):
        data = closed_loop_data(small_problem.pairs, small_lpv_result.theta)
        weights = small_problem.weights.on_grid(small_problem.grid)
        eps = small_lpv_result.telemetry["eps"]
        cert = check_performance(data, weights, small_lpv_result.gamma,
                                 small_problem.grid, eps=eps * 0.5,
                                 basis=ObfBasis(np.zeros(0, dtype=complex)))
        assert cert.certified
        for mp in cert.multipliers.values():
            assert mp.beta.size == 0 and mp.sign == 1.0 and mp.delay == 0

    def test_soundness_ordering(self, small_problem, small_lpv_result):
        data = closed_loop_data(small_problem.pairs, small_lpv_result.theta)
        weights = small_problem.weights.on_grid(small_problem.grid)
        cert = check_performance(data, weights, small_lpv_result.gamma,
                                 small_problem.grid, eps=1e-9)
        assert cert.certified
        achieved = compute_achieved_gamma(data, weights)
        assert achieved <= small_lpv_result.gamma * (1 + 1e-6)


class TestComputeAchievedGamma:
    def test_unit_sensitivity_floor(self):
        grid = FrequencyGrid(np.linspace(0.1, 3.0, 16))
        n = len(grid)
        data = {0.0: ClosedLoopFactorData(
            d_p=np.ones(n, dtype=complex), n_s=np.ones(n, dtype=complex),
            n_gs=np.zeros(n, dtype=complex), n_ks=np.zeros(n, dtype=complex),
            n_t=np.zeros(n, dtype=complex))}
        w = {c: np.ones(n, dtype=complex) for c in ("S", "GS", "KS", "T")}
        assert compute_achieved_gamma(data, w) == pytest.approx(1.0)

    def test_homogeneous_in_weights(self, small_problem, small_lpv_result):
        data = closed_loop_data(small_problem.pairs, small_lpv_result.theta)
        w = small_problem.weights.on_grid(small_problem.grid)
        doubled = {c: 2.0 * v for c, v in w.items()}
        assert compute_achieved_gamma(data, doubled) == pytest.approx(
            2.0 * compute_achieved_gamma(data, w), rel=1e-12)

    def test_zero_characteristic_reported(self):
        grid = FrequencyGrid(np.linspace(0.1, 3.0, 4))
        data = {0.0: ClosedLoopFactorData(
            d_p=np.array([1.0, 0.0, 1.0, 1.0], dtype=complex),
            n_s=np.ones(4, dtype=complex), n_gs=np.zeros(4, dtype=complex),
            n_ks=np.zeros(4, dtype=complex), n_t=np.zeros(4, dtype=complex))}
        w = {c: np.ones(4, dtype=complex) for c in ("S", "GS", "KS", "T")}
        with pytest.raises(ValueError, match="vanishes"):
            compute_achieved_gamma(data, w)


class TestAbsorption:
    def test_stability_absorption_preserves_margins(self, grid512):
        base = lightly_damped_dp(grid512)
        cert = check_stability({0.0: base}, grid512)
        assert cert.certified
        assert cert.multipliers[0.0].beta.size > 0
        alpha = cert.multipliers[0.0].on_grid(grid512)
        cert2 = check_stability({0.0: base * alpha}, grid512,
                                basis=ObfBasis(np.zeros(0, dtype=complex)))
        assert cert2.certified
        assert cert2.multipliers[0.0].beta.size == 0
        assert cert2.margins[0.0] == pytest.approx(cert.margins[0.0], abs=1e-6)


class TestOracle:
    def test_examples(self):
        g = RationalTf([1.0], [1.0, -2.0])
        assert internally_stable(g, RationalTf.constant(2.0))
        assert not internally_stable(g, RationalTf.constant(0.5))
        assert internally_stable(RationalTf([0.2], [1.0, -0.8]),
                                 RationalTf.constant(0.0))
