import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvsyn import (CHANNELS, ControllerParameters, FrequencyGrid, FrfResponse,
                    CoprimeFrfPair, ObfBasis, RationalTf, SchedulingBasis,
                    SchedulingGrid, SynthesisOptions, SynthesisProblem,
                    WeightSet, add_integral_action, assemble_constraints,
                    bisect_gamma, closed_loop_data, evaluate_factors,
                    factor_rationals, feasibility_solve, frozen_controller_tf,
                    frozen_coprime_from_model, laguerre_basis)
from lpvsyn import rational, synthesis
from lpvsyn._extension import load_extension
from lpvsyn.exceptions import (CutRoundsExhaustedError, SolverFailureError,
                               SynthesisInfeasibleError)
from lpvsyn.obf import scheduling_eval
from lpvsyn.synthesis import ParameterLayout
from conftest import make_problem, unstable_plant_problem


def unit_weightset():
    one = RationalTf.constant(1.0)
    tiny = RationalTf.constant(1e-3)
    return WeightSet(one, tiny, tiny, tiny)


def zero_plant_problem(n_freq=24, **options):
    grid = FrequencyGrid(np.linspace(0.05, 3.0, n_freq))
    sched_grid = SchedulingGrid(np.array([0.0]), (-1.0, 1.0))
    pair = CoprimeFrfPair(FrfResponse(np.zeros(n_freq, dtype=complex), grid),
                          FrfResponse(np.ones(n_freq, dtype=complex), grid))
    opts = SynthesisOptions(integral_action=False, eps=1e-6, **options)
    return SynthesisProblem({0.0: pair}, unit_weightset(), grid, sched_grid,
                            laguerre_basis(0.5, 2), laguerre_basis(0.5, 2),
                            SchedulingBasis.constant((-1.0, 1.0)), opts)


class TestControllerParameters:
    def test_normalization_enforced(self):
        basis = laguerre_basis(0.5, 2)
        sched = SchedulingBasis.affine((0.0, 1.0))
        bad = np.zeros((3, 2))
        with pytest.raises(ValueError, match="normalization"):
            ControllerParameters(np.zeros((3, 2)), bad, basis, basis, sched)

    def test_layout_round_trip(self):
        basis_n = laguerre_basis(0.5, 2)
        basis_d = laguerre_basis(0.5, 3)
        sched = SchedulingBasis.affine((0.0, 1.0))
        layout = ParameterLayout(basis_n, basis_d, sched)
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(layout.size)
        params = layout.unpack(theta)
        assert np.array_equal(layout.pack(params), theta)
        assert params.vbar[0].tolist() == [1.0, 0.0]


class TestEvaluateFactors:
    def test_zero_theta_gives_zero_controller(self):
        basis = laguerre_basis(0.5, 2)
        sched = SchedulingBasis.affine((0.0, 1.0))
        layout = ParameterLayout(basis, basis, sched)
        params = layout.unpack(np.zeros(layout.size))
        grid = FrequencyGrid(np.linspace(0.1, 3.0, 8))
        nk, dk = evaluate_factors(params, 0.5, grid)
        assert np.all(nk == 0)
        assert np.allclose(dk, 1.0)

    def test_lti_mode_independent_of_p(self):
        basis = laguerre_basis(0.5, 2)
        sched = SchedulingBasis.constant((0.0, 1.0))
        layout = ParameterLayout(basis, basis, sched)
        rng = np.random.default_rng(1)
        params = layout.unpack(rng.standard_normal(layout.size))
        grid = FrequencyGrid(np.linspace(0.1, 3.0, 8))
        a = evaluate_factors(params, 0.2, grid)
        b = evaluate_factors(params, 0.9, grid)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_matches_rational_convolution_oracle(self):
        a, n = 0.7, 4
        basis = laguerre_basis(a, n)
        sched = SchedulingBasis.affine((30.0, 50.0))
        layout = ParameterLayout(basis, basis, sched)
        rng = np.random.default_rng(2)
        params = layout.unpack(rng.standard_normal(layout.size))
        grid = FrequencyGrid(np.linspace(0.05, 3.0, 16))
        p = 37.0
        nk, dk = evaluate_factors(params, p, grid)
        # independent rational forms by convolution of the Laguerre closed form
        den = np.array([1.0])
        for _ in range(n):
            den = np.convolve(den, [1.0, -a])
        nums = [den]
        for k in range(1, n + 1):
            poly = np.array([math.sqrt(1 - a * a)])
            for _ in range(k - 1):
                poly = np.convolve(poly, [-a, 1.0])
            for _ in range(n - k):
                poly = np.convolve(poly, [1.0, -a])
            nums.append(poly)
        psi = scheduling_eval(sched, p)
        w = params.wbar @ psi
        v = params.vbar @ psi
        z = grid.z
        nk_ref = sum(wi * np.polyval(ni, z) for wi, ni in zip(w, nums)) / np.polyval(den, z)
        dk_ref = sum(vi * np.polyval(ni, z) for vi, ni in zip(v, nums)) / np.polyval(den, z)
        assert np.max(np.abs(nk - nk_ref)) < 1e-10
        assert np.max(np.abs(dk - dk_ref)) < 1e-10

    @pytest.mark.parametrize("basis", [
        laguerre_basis(0.6, 3),
        ObfBasis(np.array([0.5, 0.6 + 0.5j, 0.6 - 0.5j, -0.3])),
        ObfBasis([]),
    ], ids=["laguerre", "complex", "empty"])
    def test_factor_rationals_match_grid_evaluation(self, basis):
        sched = SchedulingBasis.affine((30.0, 50.0))
        layout = ParameterLayout(basis, basis, sched)
        rng = np.random.default_rng(3)
        params = layout.unpack(rng.standard_normal(layout.size))
        grid = FrequencyGrid(np.linspace(0.05, 3.0, 12))
        nk, dk = evaluate_factors(params, 42.0, grid)
        nk_tf, dk_tf = factor_rationals(params, 42.0)
        assert np.max(np.abs(nk_tf.on_grid(grid) - nk)) < 1e-10
        assert np.max(np.abs(dk_tf.on_grid(grid) - dk)) < 1e-10


class TestAssembleConstraints:
    def test_count(self, small_problem):
        cmap, _, _ = assemble_constraints(small_problem, 2.0)
        rows = len(small_problem.grid) * 3 * 4
        for arr in (cmap.D, cmap.d0, cmap.N, cmap.n0, cmap.p, cmap.channel):
            assert arr.shape[0] == rows
        assert cmap.D.shape[1] == cmap.N.shape[1] == small_problem.layout.size
        # rows are stacked by operating point, then channel, then frequency
        blocks = [(p, c) for p in (30.0, 40.0, 50.0) for c in CHANNELS]
        assert list(cmap.by_block(np.zeros(rows))) == blocks

    def test_gamma_inf_reduces_to_stability_only(self, small_problem):
        _, gamma_inv, _ = assemble_constraints(small_problem, math.inf)
        assert gamma_inv == 0.0

    def test_hand_assembled_single_frequency(self):
        # G = 1/(z-2) with K0 = 2 on one frequency; all weights one
        omega = np.pi / 3
        problem = unstable_plant_problem([omega])
        gamma = 2.0
        cmap, gamma_inv, eps = assemble_constraints(problem, gamma)
        layout = problem.layout
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(layout.size)
        # independent hand evaluation
        z = np.exp(1j * omega)
        phi1 = math.sqrt(1 - 0.25) / (z - 0.5)
        # wbar[i, 0] sits at i * m, vbar[1, 0] first after the n_w wbar entries
        w0, w1, v1 = theta[0], theta[layout.m], theta[layout.n_w]
        nk = w0 + w1 * phi1
        dk = 1.0 + v1 * phi1
        n_g = (1.0 / z)
        d_g = (z - 2.0) / z
        d_p = d_g * dk + n_g * nk
        numerators = {"S": d_g * dk, "GS": n_g * dk, "KS": d_g * nk, "T": n_g * nk}
        margins = cmap.evaluate(theta, gamma_inv, eps)[0]
        assert list(cmap.channel) == list(CHANNELS)
        for channel, got in zip(cmap.channel, margins):
            expected = d_p.real - gamma_inv * abs(numerators[channel]) - eps
            assert got == pytest.approx(expected, abs=1e-12)

    def test_linearity_against_finite_differences(self, small_problem):
        cmap, _, _ = assemble_constraints(small_problem, 2.0)
        layout = small_problem.layout
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(layout.size)
        for i in (0, layout.size - 1):
            e = np.zeros(layout.size)
            e[i] = 1.0
            fd_d = (cmap.D @ (theta + e) + cmap.d0) - (cmap.D @ theta + cmap.d0)
            assert np.max(np.abs(fd_d - cmap.D[:, i])) < 1e-9
            fd_n = (cmap.N @ (theta + e)) - (cmap.N @ theta)
            assert np.max(np.abs(fd_n - cmap.N[:, i])) < 1e-9

    def test_rows_agree_with_certified_closed_loop_data(self, small_problem):
        # the LP rows and the certificates read the same closed-loop data
        cmap, _, _ = assemble_constraints(small_problem, 2.0)
        layout = small_problem.layout
        theta = np.random.default_rng(6).standard_normal(layout.size)
        params = layout.unpack(theta)
        data = closed_loop_data(small_problem.pairs, params)
        weights = small_problem.weights.on_grid(small_problem.grid)
        d_p = cmap.by_block(cmap.D @ theta + cmap.d0)
        for (p, channel), numerator in cmap.by_block(cmap.N @ theta + cmap.n0).items():
            pairs = ((d_p[p, channel], data[p].d_p),
                     (numerator, weights[channel] * data[p].numerator(channel)))
            for got, ref in pairs:
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        a_eq, b_eq = add_integral_action(small_problem)
        for row, p in zip(a_eq @ theta - b_eq, small_problem.scheduling_grid.points):
            _, dk = factor_rationals(params, float(p))
            assert row == pytest.approx(dk.eval_at(np.array([1.0]))[0].real, rel=1e-12)


class TestFeasibility:
    def test_witness_coefficients_are_feasible(self):
        # stability-only constraints: the constant-controller witness theta
        # reproduces the unit characteristic data
        problem = unstable_plant_problem(np.linspace(0.05, 3.0, 16))
        constraints = assemble_constraints(problem, math.inf)
        cmap, gamma_inv, eps = constraints
        witness = np.zeros(problem.layout.size)
        witness[0] = 2.0   # wbar[0, 0]
        dp = cmap.D @ witness + cmap.d0
        assert np.max(np.abs(dp - 1.0)) < 1e-9
        assert cmap.evaluate(witness, gamma_inv, eps)[0].min() > 0
        out = feasibility_solve(constraints, options=problem.options)
        assert out.status == "feasible"
        assert out.margin >= 0

    def test_tiny_theta_bound_reports_infeasible(self):
        # theta = 0 leaves the unstable plant unstabilized, so the box
        # around it holds no feasible controller
        problem = unstable_plant_problem(np.linspace(0.05, 3.0, 16))
        constraints = assemble_constraints(problem, math.inf)
        assert feasibility_solve(constraints, options=problem.options).status \
            == "feasible"
        tiny = SynthesisOptions(eps=1e-6, integral_action=False, theta_bound=1e-3)
        outcome = feasibility_solve(constraints, options=tiny)
        assert outcome.status == "infeasible"
        assert outcome.theta is None

    def test_exhausted_cut_rounds_raise(self):
        # at gamma = 3 the outer relaxation needs cut rounds to decide
        problem = unstable_plant_problem(np.linspace(0.05, 3.0, 16))
        constraints = assemble_constraints(problem, 3.0)
        outcome = feasibility_solve(constraints, options=problem.options)
        assert outcome.telemetry["lp_solves"] > 1
        assert outcome.telemetry["cuts"] > 0
        with pytest.raises(SolverFailureError, match="did not converge") as err:
            feasibility_solve(constraints,
                              options=replace(problem.options, max_cut_rounds=1))
        assert isinstance(err.value, CutRoundsExhaustedError)
        assert err.value.lp_solves == 1

    def test_full_working_set_is_the_base_fan(self, monkeypatch):
        # with WORKING_ROWS >= n_freq the working set holds every (row, angle)
        # of the base fan once, ordered by block, then angle, then frequency
        problem = unstable_plant_problem(np.linspace(0.05, 3.0, 16))
        cmap = synthesis.constraint_map(problem)
        fan = [(block + k, angle)
               for block in range(0, cmap.d0.size, cmap.n_freq)
               for angle in synthesis._BASE_ANGLES for k in range(cmap.n_freq)]
        for working_rows in (cmap.n_freq, cmap.n_freq + 5):
            monkeypatch.setattr(synthesis, "WORKING_ROWS", working_rows)
            rows, cos, sin = synthesis._working_set(cmap, None)
            assert rows.tolist() == [r for r, _ in fan]
            assert np.array_equal(cos, np.cos([a for _, a in fan]))
            assert np.array_equal(sin, np.sin([a for _, a in fan]))

    def test_run_across_a_block_boundary_gives_two_cuts(self):
        # rows 2..5 are consecutive, but rows 4 and 5 open the second
        # 4-row (p, channel) block
        margins = np.array([0.0, 0.0, -1.0, -3.0, -2.0, -0.5, 0.0, 0.0])
        bad = np.array([2, 3, 4, 5])
        assert synthesis._run_minima(bad, margins, 4).tolist() == [3, 4]

    def test_single_violated_row_gives_one_cut(self):
        margins = np.array([0.0, 0.0, -1.0, 0.0])
        assert synthesis._run_minima(np.array([2]), margins, 4).tolist() == [2]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_one_cut_per_run_at_its_most_violated_row(self, n_freq, data):
        n_rows = 3 * n_freq
        bad = sorted(data.draw(st.sets(st.integers(0, n_rows - 1), min_size=1)))
        margins = np.array(data.draw(st.lists(
            st.floats(-10.0, 0.0), min_size=n_rows, max_size=n_rows)))
        runs = [[bad[0]]]
        for prev, row in zip(bad, bad[1:]):
            if row == prev + 1 and row // n_freq == prev // n_freq:
                runs[-1].append(row)
            else:
                runs.append([row])
        expected = [min(run, key=lambda r: (margins[r], r)) for run in runs]
        got = synthesis._run_minima(np.array(bad), margins, n_freq)
        assert got.tolist() == expected

    def test_cut_rounds_add_one_plane_per_run(self, monkeypatch):
        # the cut step cuts exactly at the rows _run_minima picks
        picked = []

        def spy(bad, margins, n_freq):
            rows = run_minima(bad, margins, n_freq)
            picked.append(rows.size)
            return rows

        run_minima = synthesis._run_minima
        monkeypatch.setattr(synthesis, "_run_minima", spy)
        problem = unstable_plant_problem(np.linspace(0.05, 3.0, 16))
        outcome = feasibility_solve(assemble_constraints(problem, 3.0),
                                    options=problem.options)
        assert picked and outcome.telemetry["cuts"] == sum(picked)

    def test_carried_labels_decide_as_the_full_fan(self, monkeypatch):
        # the active planes of a solve at gamma = 3 are rebuilt at gamma = 5
        # on top of the working set; the answer is the full fan's
        problem = unstable_plant_problem(np.linspace(0.05, 3.0, 16))
        warm = {}
        feasibility_solve(assemble_constraints(problem, 3.0),
                          options=problem.options, warm=warm)
        n_carried = warm["labels"][0].size
        assert n_carried > 0
        constraints = assemble_constraints(problem, 5.0)
        carried = feasibility_solve(constraints, options=problem.options, warm=warm)
        fresh = feasibility_solve(constraints, options=problem.options, warm={})
        monkeypatch.setattr(synthesis, "WORKING_ROWS", constraints[0].n_freq)
        full = feasibility_solve(constraints, options=problem.options)
        assert carried.telemetry["rows"] == fresh.telemetry["rows"] + n_carried
        assert fresh.telemetry["rows"] < full.telemetry["rows"]
        assert carried.status == fresh.status == full.status == "feasible"

    @pytest.mark.parametrize("gamma", [1.5, 2.9, 3.0])
    def test_working_set_infeasible_below_gamma_star(self, monkeypatch, gamma):
        # gamma* is about 3.0013; below it the working set certifies
        # infeasibility as the full fan does, with cuts where needed
        problem = unstable_plant_problem(np.linspace(0.05, 3.0, 16))
        constraints = assemble_constraints(problem, gamma)
        working = feasibility_solve(constraints, options=problem.options)
        monkeypatch.setattr(synthesis, "WORKING_ROWS", constraints[0].n_freq)
        full = feasibility_solve(constraints, options=problem.options)
        assert working.status == full.status == "infeasible"
        assert working.theta is None

    def test_unfinished_lp_raises_not_infeasible(self, monkeypatch):
        # a solve stopped by its iteration limit has decided nothing
        model = synthesis._hc._Highs()
        model.setOptionValue("output_flag", False)
        model.setOptionValue("presolve", "off")
        model.setOptionValue("simplex_iteration_limit", 0)
        model.addVars(2, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        model.changeColCost(0, -1.0)
        a_ub = np.array([[1.0, 1.0]])
        synthesis._add_rows(model, a_ub, np.array([-np.inf]), np.array([0.5]))
        res = synthesis.linprog(model, A_ub=a_ub)
        assert res.status not in (0, 2)

        solve = synthesis.linprog

        def limited(model, *, A_ub):
            model.setOptionValue("simplex_iteration_limit", 0)
            return solve(model, A_ub=A_ub)

        monkeypatch.setattr(synthesis, "linprog", limited)
        problem = zero_plant_problem()
        with pytest.raises(SolverFailureError, match="LP solver failure"):
            feasibility_solve(assemble_constraints(problem, 4.0),
                              options=problem.options)

    def test_stopped_interior_point_raises_not_infeasible(self, monkeypatch):
        # an interior-point run stopped early has decided nothing: HiGHS says
        # kIterationLimit, which is status 4 and fails the central solve
        solve = synthesis.linprog
        records = []

        def limited(model, *, A_ub):
            model.setOptionValue("ipm_iteration_limit", 1)
            res = solve(model, A_ub=A_ub)
            records.append((model.getOptionValue("solver")[1], res.status))
            return res

        monkeypatch.setattr(synthesis, "linprog", limited)
        problem = unstable_plant_problem(np.linspace(0.05, 3.0, 16), gamma_lo=1.0,
                                         gamma_hi=100.0, gamma_rtol=0.05)
        constraints = assemble_constraints(problem, 5.0)
        with pytest.raises(SolverFailureError, match="LP solver failure"):
            feasibility_solve(constraints, options=problem.options, _central=True)
        # the simplex phase (HiGHS's default solver choice) ignores the limit
        # and ends on a verified point; the first interior-point LP then stops
        *simplex, last = records
        assert simplex and simplex == [("choose", 0)] * len(simplex)
        assert last == ("ipm", 4)
        # the simplex solves of the bisection ignore the limit; its central
        # solve at gamma* fails the same way
        with pytest.raises(SolverFailureError, match="LP solver failure"):
            bisect_gamma(problem)
        assert records[-1] == ("ipm", 4)
        assert [status for _, status in records].count(4) == 2

    def test_add_rows_passes_exactly_the_nonzeros(self):
        # an equality row with zero columns, an all-zero row and a signed
        # zero: HiGHS gets the nonzeros a compressed sparse row matrix of the
        # block holds, in its order
        from scipy.sparse import csr_array
        a = np.array([[1.5, 0.0, -2.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0],
                      [0.0, 3.0, 0.0, -0.5],
                      [-0.0, 0.25, 7.0, 0.0]])
        model = synthesis._hc._Highs()
        model.setOptionValue("output_flag", False)
        model.addVars(4, np.full(4, -1.0), np.full(4, 1.0))
        synthesis._add_rows(model, a[:1], np.zeros(1), np.zeros(1))
        synthesis._add_rows(model, a[1:], np.full(3, -np.inf), np.ones(3))
        matrix = model.getLp().a_matrix_
        ref = csr_array(a)
        assert matrix.num_row_ == 4
        assert list(matrix.start_) == ref.indptr.tolist()
        assert list(matrix.index_) == ref.indices.tolist()
        assert list(matrix.value_) == ref.data.tolist()

    def test_contradictory_equalities_infeasible(self):
        problem = zero_plant_problem()
        constraints = assemble_constraints(problem, 100.0)
        layout = problem.layout
        a_eq = np.zeros((2, layout.size))
        i = layout.n_w   # vbar[1, 0], the first entry after wbar
        a_eq[0, i] = 1.0
        a_eq[1, i] = 1.0
        outcome = feasibility_solve(constraints, (a_eq, np.array([0.0, 1.0])),
                                    problem.options)
        assert outcome.status == "infeasible"

    def test_zero_plant_infeasible_below_unit_sensitivity(self):
        problem = zero_plant_problem()
        outcome = feasibility_solve(assemble_constraints(problem, 0.5),
                                    options=problem.options)
        assert outcome.status == "infeasible"
        outcome = feasibility_solve(assemble_constraints(problem, 4.0),
                                    options=problem.options)
        assert outcome.status == "feasible"


class TestBisection:
    def test_theta_independent_of_search_path(self, small_problem, small_lpv_result):
        # theta* is the central solve at gamma*, whatever working sets the
        # bisection went through
        constraints = assemble_constraints(small_problem, small_lpv_result.gamma)
        outs = [feasibility_solve(constraints, add_integral_action(small_problem),
                                  small_problem.options, _central=True)
                for _ in range(2)]
        assert small_lpv_result.telemetry["theta_source"] == "central"
        assert all(out.telemetry["ipm_lps"] >= 1 for out in outs)
        assert np.array_equal(outs[0].theta, outs[1].theta)
        assert np.array_equal(small_problem.layout.pack(small_lpv_result.theta),
                              outs[0].theta)

    def test_lp_solves_sum_over_every_solve(self, monkeypatch, small_problem,
                                            small_lpv_result):
        # the bisection's LP count is the sum of its solves' counts, the
        # interior-point LPs of the central solve among them
        solve = synthesis.feasibility_solve
        telemetry = []

        def recording(*args, **kwargs):
            out = solve(*args, **kwargs)
            telemetry.append(out.telemetry)
            return out

        monkeypatch.setattr(synthesis, "feasibility_solve", recording)
        result = bisect_gamma(small_problem)
        assert result.gamma == small_lpv_result.gamma
        assert result.telemetry["lp_solves"] == sum(t["lp_solves"] for t in telemetry)
        *bisection, central = telemetry
        assert all(t["ipm_lps"] == 0 for t in bisection)
        assert central["ipm_lps"] >= 1

    def test_gamma_equals_full_fan_bisection(self, monkeypatch, small_problem,
                                             small_lpv_result):
        # working sets only change how each step decides, not what
        monkeypatch.setattr(synthesis, "WORKING_ROWS", len(small_problem.grid))
        assert bisect_gamma(small_problem).gamma == small_lpv_result.gamma

    def test_skipped_levels_match_plain_bisection(self, monkeypatch, small_problem,
                                                  small_lpv_result):
        # a plain bisection with one solve at every level gives the same gamma
        # and bracket; every level bisect_gamma does not solve is held by the
        # theta of its last feasible solve, verified there
        options = small_problem.options
        equalities = add_integral_action(small_problem)
        warm = {}

        def feasible(gamma):
            out = feasibility_solve(assemble_constraints(small_problem, gamma),
                                    equalities, options, warm=warm)
            return out.status == "feasible"

        lo, hi = options.gamma_lo, options.gamma_hi
        assert feasible(hi) and not feasible(lo)
        levels = []
        while hi - lo > options.gamma_rtol * hi:
            mid = 0.5 * (lo + hi)
            levels.append(mid)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        assert small_lpv_result.gamma == hi
        assert small_lpv_result.telemetry["gamma_bracket"] == (lo, hi)
        assert small_lpv_result.telemetry["bisect_steps"] == len(levels)

        solve = synthesis.feasibility_solve
        solved = {}

        def recording(constraints, equalities, options, warm=None, _central=False):
            out = solve(constraints, equalities, options, warm=warm, _central=_central)
            if not _central:
                solved[constraints[1]] = out  # keyed by gamma^-1
            return out

        monkeypatch.setattr(synthesis, "feasibility_solve", recording)
        result = bisect_gamma(small_problem)
        assert result.gamma == small_lpv_result.gamma
        assert result.telemetry["gamma_bracket"] == small_lpv_result.telemetry["gamma_bracket"]
        cmap = synthesis.constraint_map(small_problem)
        held = solved[1.0 / options.gamma_hi].theta
        skipped = 0
        for mid in levels:
            out = solved.get(1.0 / mid)
            if out is not None:
                if out.status == "feasible":
                    held = out.theta
                continue
            skipped += 1
            margins, _ = cmap.evaluate(held, 1.0 / mid, small_problem.eps)
            assert margins.min() >= -1e-12
        assert skipped >= 1
        assert result.telemetry["skipped_steps"] == skipped
        assert len(solved) == 2 + len(levels) - skipped

    def test_feasible_gamma_lo_closes_the_bracket(self, small_problem, small_lpv_result):
        # the bisection ends before its first step, and the bracket it reports
        # is the level it returns
        gamma_lo = 1.5 * small_lpv_result.gamma
        problem = replace(small_problem,
                          options=replace(small_problem.options, gamma_lo=gamma_lo))
        result = bisect_gamma(problem)
        assert result.gamma == gamma_lo
        assert result.telemetry["gamma_bracket"] == (gamma_lo, gamma_lo)
        assert result.telemetry["bisect_steps"] == 0
        assert result.telemetry["theta_source"] == "central"
        assert result.margin_min() >= -1e-12

    def test_incumbent_above_gamma_star_keeps_gamma(self, small_problem,
                                                    small_lpv_result):
        result = bisect_gamma(small_problem, incumbent=1.5 * small_lpv_result.gamma)
        assert result.gamma == small_lpv_result.gamma
        assert result.telemetry["gamma_bracket"] \
            == small_lpv_result.telemetry["gamma_bracket"]
        assert result.telemetry["theta_source"] == "central"
        assert np.array_equal(small_problem.layout.pack(result.theta),
                              small_problem.layout.pack(small_lpv_result.theta))

    def test_infeasible_incumbent_returns_at_gamma_hi(self, monkeypatch, small_problem,
                                                      small_lpv_result):
        # below gamma* the incumbent solve is infeasible: no bisection and no
        # central solve, the gamma_hi solve's theta stands
        incumbent = 0.5 * small_lpv_result.gamma
        solve = synthesis.feasibility_solve
        record = []

        def recording(*args, **kwargs):
            out = solve(*args, **kwargs)
            record.append(out)
            return out

        monkeypatch.setattr(synthesis, "feasibility_solve", recording)
        result = bisect_gamma(small_problem, incumbent=incumbent)
        gamma_hi = small_problem.options.gamma_hi
        assert [out.status for out in record] == ["feasible", "infeasible"]
        assert result.gamma == gamma_hi
        assert np.array_equal(small_problem.layout.pack(result.theta), record[0].theta)
        assert result.telemetry["theta_source"] == "warm"
        assert result.telemetry["gamma_bracket"] == (incumbent, gamma_hi)
        assert result.telemetry["bisect_steps"] == 0
        assert result.telemetry["lp_solves"] == sum(out.telemetry["lp_solves"]
                                                    for out in record)
        assert result.margin_min() >= -1e-12

    def test_exhausted_central_solve_keeps_warm_theta(self, monkeypatch):
        # the central solve at gamma* needs 3 simplex LPs and 1 interior-point
        # LP here; with one cut round it runs out, and the bisection's
        # verified theta stands
        problem = unstable_plant_problem(np.linspace(0.05, 3.0, 16), gamma_lo=1.0,
                                         gamma_hi=100.0, gamma_rtol=0.05)
        reference = bisect_gamma(problem)
        solve = synthesis.feasibility_solve
        record = {"lps": [], "feasible": []}

        def exhausting(constraints, equalities, options, warm=None, _central=False):
            if _central:
                with pytest.raises(CutRoundsExhaustedError) as err:
                    solve(constraints, equalities, replace(options, max_cut_rounds=1),
                          _central=True)
                record["lps"].append(err.value.lp_solves)
                raise err.value
            out = solve(constraints, equalities, options, warm=warm)
            record["lps"].append(out.telemetry["lp_solves"])
            if out.status == "feasible":
                record["feasible"].append(out.theta)
            return out

        monkeypatch.setattr(synthesis, "feasibility_solve", exhausting)
        result = bisect_gamma(problem)
        assert result.gamma == reference.gamma
        assert reference.telemetry["theta_source"] == "central"
        assert result.telemetry["theta_source"] == "warm"
        assert record["lps"][-1] == 1
        assert np.array_equal(problem.layout.pack(result.theta), record["feasible"][-1])
        assert result.telemetry["lp_solves"] == sum(record["lps"])
        assert result.margin_min() >= -1e-9

    def test_iteration_count_bound(self):
        problem = zero_plant_problem(gamma_lo=1.0, gamma_hi=4.0, gamma_rtol=1 / 3)
        result = bisect_gamma(problem)
        assert result.telemetry["bisect_steps"] <= 3
        assert 1.0 < result.gamma <= 1.5

    def test_infeasible_at_upper_bound(self):
        problem = zero_plant_problem(gamma_lo=0.1, gamma_hi=0.9)
        with pytest.raises(SynthesisInfeasibleError) as err:
            bisect_gamma(problem)
        assert err.value.diagnostics["gamma"] == 0.9

    def test_margins_positive_and_certified(self, small_problem, small_lpv_result):
        res = small_lpv_result
        eps = res.telemetry["eps"]
        assert res.margin_min() >= -1e-9
        assert res.re_dp_min >= eps - 1e-9

    def test_lpv_no_worse_than_lti(self, small_lpv_result, small_lti_result):
        assert small_lpv_result.gamma <= small_lti_result.gamma


class TestHighsBinding:
    def test_private_highs_class_has_every_method_used(self):
        # synthesis drives scipy's private HiGHS binding directly, loaded from
        # its file; this pins the methods it calls, so a scipy upgrade that
        # moves them fails here
        for method in ("setOptionValue", "addVars", "addRows", "changeColCost",
                       "run", "getModelStatus", "modelStatusToString",
                       "getSolution", "getInfo", "clearSolver"):
            assert callable(getattr(synthesis._hc._Highs, method, None)), method
        for name in ("HighsStatus", "HighsModelStatus", "kHighsInf"):
            assert hasattr(synthesis._hc, name), name

    def test_flapack_has_the_banded_solve_used(self):
        # rational's banded triangular solve is LAPACK's dtbtrs, taken from
        # scipy's compiled _flapack module
        flapack = sys.modules["scipy.linalg._flapack"]
        assert callable(getattr(flapack, "dtbtrs", None))
        assert rational.dtbtrs is flapack.dtbtrs

    def test_missing_compiled_module_raises(self):
        with pytest.raises(ImportError, match="scipy.linalg._no_such_module"):
            load_extension("scipy.linalg._no_such_module")
        assert "scipy.linalg._no_such_module" not in sys.modules


class TestIntegralAction:
    def test_frozen_dk_has_root_at_one(self, small_lpv_result):
        for p in (30.0, 40.0, 50.0):
            _, dk = factor_rationals(small_lpv_result.theta, p)
            roots = np.roots(dk.num)
            assert np.min(np.abs(roots - 1.0)) < 1e-8

    def test_equalities_shape(self, small_problem):
        a_eq, b_eq = add_integral_action(small_problem)
        assert a_eq.shape == (3, small_problem.layout.size)
        assert np.allclose(b_eq, -1.0)

    def test_n_d_zero_is_infeasible(self, analytic_pairs, weights, small_grid,
                                    sched_grid):
        problem = make_problem(analytic_pairs, weights, small_grid, sched_grid,
                               order=0, integral=True)
        with pytest.raises(SynthesisInfeasibleError):
            bisect_gamma(problem)

    def test_omega_zero_must_be_excluded(self, analytic_pairs, weights, sched_grid,
                                         model, k0):
        from lpvsyn import frozen_coprime_from_model, frozen_tf
        grid = FrequencyGrid(np.concatenate([[0.0], np.linspace(0.1, 3.0, 7)]),
                             model.sample_rate)
        pairs = {p: frozen_coprime_from_model(frozen_tf(model, p), k0, grid)[0]
                 for p in (30.0, 40.0, 50.0)}
        with pytest.raises(ValueError, match="omega = 0"):
            make_problem(pairs, weights, grid, sched_grid, integral=True)


class TestOrderMonotonicity:
    def test_larger_basis_never_worse(self, analytic_pairs, weights, model, k0,
                                      sched_grid):
        # nested parameter spaces: raising the Laguerre order weakly decreases
        # the achieved performance level
        grid = FrequencyGrid.log_spaced(0.05, 90.0, 32, model.sample_rate)
        from lpvsyn import frozen_coprime_from_model, frozen_tf
        pairs = {p: frozen_coprime_from_model(frozen_tf(model, p), k0, grid)[0]
                 for p in (30.0, 40.0, 50.0)}
        gammas = []
        for order in (2, 4):
            problem = make_problem(pairs, weights, grid, sched_grid,
                                   order=order, integral=False)
            gammas.append(bisect_gamma(problem).gamma)
        assert gammas[1] <= gammas[0] * (1 + 1e-9)

    def test_denominator_order_must_dominate(self, analytic_pairs, weights,
                                             small_grid, sched_grid):
        sched = SchedulingBasis.affine(sched_grid.range)
        with pytest.raises(ValueError, match="order"):
            SynthesisProblem(analytic_pairs, weights, small_grid, sched_grid,
                             laguerre_basis(0.7, 5), laguerre_basis(0.7, 3),
                             sched, SynthesisOptions())


class TestSoundness:
    def test_achieved_gamma_below_returned(self, small_problem, small_lpv_result):
        from lpvsyn import compute_achieved_gamma
        data = closed_loop_data(small_problem.pairs, small_lpv_result.theta)
        achieved = compute_achieved_gamma(
            data, small_problem.weights.on_grid(small_problem.grid))
        assert achieved <= small_lpv_result.gamma * (1 + 1e-6)
        # the margin-maximizing subproblems return interior points, so the
        # directly evaluated level sits slightly below the bisection value
        assert achieved >= small_lpv_result.gamma * (1 - 0.05)

    def test_frozen_loops_oracle_stable(self, model, small_lpv_result):
        from lpvsyn import frozen_tf, internally_stable
        for p in (30.0, 40.0, 50.0):
            k = frozen_controller_tf(small_lpv_result.theta, p)
            assert internally_stable(frozen_tf(model, p), k)
