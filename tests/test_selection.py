import numpy as np
import pytest

from lpvsyn import (FrequencyGrid, ObfBasis, basis_selection_iterate, bisect_gamma,
                    factor_rationals, frozen_coprime_from_model, frozen_tf)
from lpvsyn import selection, synthesis
from lpvsyn.selection import (centers_to_basis, controller_root_samples,
                              project_into_disk)
from conftest import OPERATING_POINTS, make_problem


@pytest.fixture(scope="module")
def losing_round_problem(model, k0, weights, sched_grid):
    """The 16-line problem whose first selection round loses: its candidate
    bases reach gamma 3.18 against 1.65 for the initial ones."""
    grid = FrequencyGrid.log_spaced(0.05, 90.0, 16, model.sample_rate)
    pairs = {p: frozen_coprime_from_model(frozen_tf(model, p), k0, grid)[0]
             for p in OPERATING_POINTS}
    return make_problem(pairs, weights, grid, sched_grid)


class TestHelpers:
    def test_project_reflects_and_clips(self):
        samples = np.array([2.0 + 0j, 0.5 + 0j, 0.999 + 0j, 1.0 + 1.0j])
        out = project_into_disk(samples)
        assert np.all(np.abs(out) <= 0.98 + 1e-12)
        assert out[1] == 0.5  # already safe, untouched
        # reflection maps 2 -> 1/2
        assert out[0] == pytest.approx(0.5)

    def test_integral_root_on_circle_is_clipped_inside(self):
        out = project_into_disk(np.array([1.0 + 0j]))
        assert abs(out[0]) <= 0.98 + 1e-12

    def test_centers_to_basis_conjugate_closure(self):
        centers = np.array([0.4 + 0.3j, 0.6 + 0j])
        basis = centers_to_basis(centers, 3)
        assert basis.n == 3
        poles = sorted(basis.poles, key=lambda z: (z.real, z.imag))
        assert any(abs(z - (0.4 + 0.3j)) < 1e-12 for z in poles)
        assert any(abs(z - (0.4 - 0.3j)) < 1e-12 for z in poles)

    def test_centers_to_basis_single_slot_uses_real_part(self):
        basis = centers_to_basis(np.array([0.4 + 0.3j]), 1)
        assert basis.n == 1
        assert basis.poles[0] == pytest.approx(0.4 + 0j)

    def test_root_samples_match_factor_rationals(self, small_lpv_result):
        poles, zeros = controller_root_samples(small_lpv_result, (30.0, 50.0))
        expected_poles = []
        expected_zeros = []
        for p in (30.0, 50.0):
            nk, dk = factor_rationals(small_lpv_result.theta, p)
            expected_zeros.extend(np.roots(nk.num))
            expected_poles.extend(np.roots(dk.num))
        assert np.allclose(np.sort_complex(poles),
                           np.sort_complex(np.array(expected_poles)))
        assert np.allclose(np.sort_complex(zeros),
                           np.sort_complex(np.array(expected_zeros)))


class TestIteration:
    def test_zero_rounds_returns_initial(self, small_problem, small_lpv_result):
        pair, result = basis_selection_iterate(small_problem, 0)
        assert pair.n is small_problem.basis_n
        assert pair.d is small_problem.basis_d
        assert result.gamma == pytest.approx(small_lpv_result.gamma, rel=1e-9)

    def test_two_rounds_never_worse(self, small_problem, small_lpv_result):
        pair, result = basis_selection_iterate(small_problem, 2)
        assert result.gamma <= small_lpv_result.gamma * (1 + 1e-9)
        assert isinstance(pair.n, ObfBasis) and isinstance(pair.d, ObfBasis)

    def test_losing_round_costs_two_solves(self, monkeypatch, losing_round_problem):
        # the candidate is feasible at gamma_hi and infeasible at the best
        # gamma, so the round ends after two solves and the initial bases stay
        problem = losing_round_problem
        solve = synthesis.feasibility_solve
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(synthesis, "feasibility_solve", counting)
        plain = bisect_gamma(problem)
        plain_solves = len(calls)
        rounds = []

        def recording(candidate, **kwargs):
            result = bisect_gamma(candidate, **kwargs)
            rounds.append((candidate, kwargs, result))
            return result

        monkeypatch.setattr(selection, "bisect_gamma", recording)
        calls.clear()
        pair, result = basis_selection_iterate(problem, 1)
        assert pair.n is problem.basis_n and pair.d is problem.basis_d
        assert result.gamma == plain.gamma
        assert len(calls) <= plain_solves + 2
        (_, _, first), (candidate, kwargs, _) = rounds
        assert kwargs == {"incumbent": first.gamma}
        monkeypatch.undo()
        assert bisect_gamma(candidate).gamma > plain.gamma
