"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runs the full-scale workflow (512-frequency grids, operating points
{30, 40, 50}); the synthesis fixtures are shared across criteria.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""
import math
import time

import numpy as np
import pytest

from lpvsyn import (FrequencyGrid, ObfBasis, SchedulingGrid,
                    TimeRecord, absorb_multiplier, bisect_gamma, build_lfr,
                    characteristic_data, check_performance, check_stability,
                    closed_loop_data, closed_loop_to_plant,
                    compute_achieved_gamma, constant_scheduling,
                    default_experiment_controller, default_surrogate,
                    etfe_estimate, eval_basis_at, evaluate_factors,
                    filtered_square_reference, frozen_controller_frf,
                    frozen_controller_tf, frozen_coprime_from_model,
                    frozen_frf, frozen_tf, generate_experiment,
                    internally_stable, laguerre_basis, simulate_closed_loop,
                    square_scheduling, step_metrics)
from lpvsyn.defaults import default_weights
from lpvsyn.synthesis import assemble_constraints, feasibility_solve
from conftest import closed_loop_pole_moduli, make_problem, random_proper_tf

POINTS = (30.0, 40.0, 50.0)


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def model():
    return default_surrogate()


@pytest.fixture(scope="module")
def k0(model):
    return default_experiment_controller(model.sample_rate)


@pytest.fixture(scope="module")
def grid(model):
    return FrequencyGrid.log_spaced(0.05, 90.0, 512, model.sample_rate)


@pytest.fixture(scope="module")
def sched_grid():
    return SchedulingGrid(np.array(POINTS), (30.0, 50.0))


@pytest.fixture(scope="module")
def pairs(model, k0, grid):
    return {p: frozen_coprime_from_model(frozen_tf(model, p), k0, grid)[0]
            for p in POINTS}


@pytest.fixture(scope="module")
def weights(model):
    return default_weights(model.sample_rate)


@pytest.fixture(scope="module")
def problem_lpv(pairs, weights, grid, sched_grid):
    return make_problem(pairs, weights, grid, sched_grid, m=2)


@pytest.fixture(scope="module")
def problem_lti(pairs, weights, grid, sched_grid):
    return make_problem(pairs, weights, grid, sched_grid, m=1)


@pytest.fixture(scope="module")
def result_lpv(problem_lpv):
    return bisect_gamma(problem_lpv)


@pytest.fixture(scope="module")
def result_lti(problem_lti):
    return bisect_gamma(problem_lti)


def test_criterion_1_stability_oracle_equivalence():
    grid = FrequencyGrid(np.linspace(1e-3, math.pi - 1e-9, 512))
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    disagreements = 0
    false_certified = 0
    trials = 0
    while checked < 100 and trials < 500:
        trials += 1
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
        cert = check_stability({0.0: characteristic_data(g, k, grid)}, grid)
        certified = cert.status == "certified"
        if certified != stable:
            disagreements += 1
        if certified and not stable:
            false_certified += 1
    elapsed = time.perf_counter() - t0
    report(1, checked >= 100 and disagreements == 0 and false_certified == 0
           and elapsed < 60.0,
           f"{checked} instances, {disagreements} disagreements, "
           f"{false_certified} false certificates, {elapsed:.1f}s")


def test_criterion_2_synthesis_soundness(model, problem_lpv, result_lpv):
    eps = result_lpv.telemetry["eps"]
    wall = result_lpv.telemetry["wall_time_s"]
    re_dp_ok = result_lpv.re_dp_min >= eps - 1e-9
    data = closed_loop_data(problem_lpv.pairs, result_lpv.theta)
    achieved = compute_achieved_gamma(
        data, problem_lpv.weights.on_grid(problem_lpv.grid))
    bound_ok = achieved <= result_lpv.gamma * (1 + 1e-6)
    oracle_ok = all(
        internally_stable(frozen_tf(model, p),
                          frozen_controller_tf(result_lpv.theta, p))
        for p in POINTS)
    report(2, re_dp_ok and bound_ok and oracle_ok and wall < 300.0,
           f"gamma={result_lpv.gamma:.4f}, min Re D_p={result_lpv.re_dp_min:.3e} "
           f"(eps={eps:.3e}), achieved={achieved:.4f}, frozen loops stable: "
           f"{oracle_ok}, solve {wall:.0f}s")


def test_criterion_3_lpv_beats_lti(result_lpv, result_lti):
    wall = result_lpv.telemetry["wall_time_s"] + result_lti.telemetry["wall_time_s"]
    ok = result_lpv.gamma <= 0.95 * result_lti.gamma
    report(3, ok and wall < 600.0,
           f"gamma_LPV={result_lpv.gamma:.4f} vs gamma_LTI={result_lti.gamma:.4f} "
           f"(ratio {result_lti.gamma / result_lpv.gamma:.3f}), total {wall:.0f}s")


def test_criterion_4_bisection_monotonicity(model, k0, weights, sched_grid):
    grid = FrequencyGrid.log_spaced(0.05, 90.0, 96, model.sample_rate)
    pairs = {p: frozen_coprime_from_model(frozen_tf(model, p), k0, grid)[0]
             for p in POINTS}
    problem = make_problem(pairs, weights, grid, sched_grid, m=2)
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(20):
        g1, g2 = np.sort(np.exp(rng.uniform(np.log(0.8), np.log(20.0), 2)))
        feasible = {}
        for gamma in (g1, g2):
            out = feasibility_solve(assemble_constraints(problem, gamma),
                                    options=problem.options)
            feasible[gamma] = out.status == "feasible"
        if feasible[g1] and not feasible[g2]:
            violations += 1
    report(4, violations == 0, f"20 random gamma pairs, {violations} violations")


def test_criterion_5_lfr_equivalence(result_lpv, model):
    ctrl = build_lfr(result_lpv.theta)
    grid = FrequencyGrid.log_spaced(0.05, 90.0, 256, model.sample_rate)
    worst = 0.0
    for p in np.linspace(30.0, 50.0, 11):
        nk, dk = evaluate_factors(result_lpv.theta, p, grid)
        resp = frozen_controller_frf(ctrl, p, grid)
        worst = max(worst, float(np.max(np.abs(resp.values - nk / dk))))
    report(5, worst < 1e-8, f"max |LFR - N_K/D_K| = {worst:.2e} "
           "over 11 scheduling values x 256 frequencies")


def test_criterion_6_laguerre_orthonormality():
    z = np.exp(2j * np.pi * np.arange(2 ** 14) / 2 ** 14)
    worst = 0.0
    for pole in (0.0, 0.5, 0.7, 0.9):
        basis = laguerre_basis(pole, 8)
        phi = eval_basis_at(basis, z)
        gram = phi @ phi.conj().T / 2 ** 14
        worst = max(worst, float(np.max(np.abs(gram - np.eye(basis.size)))))
    report(6, worst < 1e-6,
           f"max Gram deviation {worst:.2e} for poles (0, 0.5, 0.7, 0.9), order 8")


def test_criterion_7_etfe_pipeline_fidelity(model, k0, grid):
    period = 65536
    band = (grid.omegas >= 0.01 * np.pi) & (grid.omegas <= 0.8 * np.pi)
    worst = 0.0
    for i, p in enumerate(POINTS):
        d, u_g, y = generate_experiment(model, k0, p, 2 * period, 0.0,
                                        seed=100 + i, periodic_period=period)
        keep = slice(period, 2 * period)
        d_r = TimeRecord(d.samples[keep])
        ug_r = TimeRecord(u_g.samples[keep])
        y_r = TimeRecord(y.samples[keep])
        sens = etfe_estimate(d_r, ug_r, grid, "rectangular", 1)
        proc = etfe_estimate(d_r, y_r, grid, "rectangular", 1)
        recovered = closed_loop_to_plant(sens, proc)
        truth = frozen_frf(model, p, grid)
        rel = np.abs(recovered.values - truth.values) / np.abs(truth.values)
        worst = max(worst, float(rel[band].max()))
    report(7, worst < 0.01,
           f"max relative error {worst:.2e} in [0.01 pi, 0.8 pi] (noiseless)")


def test_criterion_8_time_domain_behavior(model, result_lpv, result_lti):
    fs = model.sample_rate
    # frozen step responses with integral action
    n_step = int(30 * fs)
    r = np.zeros(n_step)
    r[100:] = 10.0
    zero = TimeRecord(np.zeros(n_step))
    ctrl_lpv = build_lfr(result_lpv.theta)
    sse = []
    for p in POINTS:
        tr = simulate_closed_loop(model, ctrl_lpv, TimeRecord(r),
                                  constant_scheduling(n_step, p), zero)
        sse.append(abs(tr.y[-1] - 10.0) / 10.0)
    sse_ok = max(sse) < 1e-3
    # time-varying scenario: filtered square reference with square scheduling
    n = int(24 * fs)
    ref = filtered_square_reference(n, fs, 15.0, 8.0, 0.7)
    sched = square_scheduling(n, fs, model.scheduling_range, 4.0)
    zero_n = TimeRecord(np.zeros(n))
    metrics = {}
    for name, res in (("lpv", result_lpv), ("lti", result_lti)):
        tr = simulate_closed_loop(model, build_lfr(res.theta), ref, sched,
                                  zero_n)
        metrics[name] = step_metrics(tr)
    l2_ok = metrics["lpv"]["l2_error"] < metrics["lti"]["l2_error"]
    linf_ok = metrics["lpv"]["linf_error"] < metrics["lti"]["linf_error"]
    report(8, sse_ok and l2_ok and linf_ok,
           f"max frozen step SSE {max(sse):.2e}; time-varying l2 "
           f"{metrics['lpv']['l2_error']:.1f} vs {metrics['lti']['l2_error']:.1f}, "
           f"linf {metrics['lpv']['linf_error']:.2f} vs "
           f"{metrics['lti']['linf_error']:.2f}")


def test_criterion_9_multiplier_absorption(problem_lpv, result_lpv):
    grid = problem_lpv.grid
    weights = problem_lpv.weights.on_grid(grid)
    eps = result_lpv.telemetry["eps"] * 0.5
    data = closed_loop_data(problem_lpv.pairs, result_lpv.theta)
    cert = check_performance(data, weights, result_lpv.gamma, grid, eps=eps)
    absorbed = {p: absorb_multiplier(block,
                                     cert.multipliers[p].on_grid(grid))
                for p, block in data.items()}
    recert = check_performance(absorbed, weights, result_lpv.gamma, grid,
                               eps=eps, basis=ObfBasis(np.zeros(0, dtype=complex)))
    perf_ok = (cert.certified and recert.certified
               and all(mp.beta.size == 0 for mp in recert.multipliers.values())
               and all(abs(recert.margins[p] - cert.margins[p]) < 1e-6
                       for p in data))
    # a characteristic that genuinely needs a nontrivial multiplier: its real
    # part dips negative near the lightly damped minimum-phase pair
    grid2 = FrequencyGrid(np.linspace(1e-3, math.pi - 1e-9, 512))
    pole = 0.95 * np.exp(1.0j)
    dp = (grid2.z - pole) * (grid2.z - np.conj(pole)) / grid2.z ** 2
    stab = check_stability({0.0: dp}, grid2)
    assert stab.certified, stab.detail
    alpha = stab.multipliers[0.0].on_grid(grid2)
    stab2 = check_stability({0.0: dp * alpha}, grid2,
                            basis=ObfBasis(np.zeros(0, dtype=complex)))
    stab_ok = (stab.certified and stab2.certified
               and stab.multipliers[0.0].beta.size > 0
               and stab2.multipliers[0.0].beta.size == 0
               and abs(stab2.margins[0.0] - stab.margins[0.0]) < 1e-6)
    report(9, perf_ok and stab_ok,
           f"synthesized-data margins match to "
           f"{max(abs(recert.margins[p] - cert.margins[p]) for p in data):.1e}; "
           f"rotated-data margins match to "
           f"{abs(stab2.margins[0.0] - stab.margins[0.0]):.1e}")
