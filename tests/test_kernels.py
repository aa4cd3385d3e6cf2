"""The simulation path must reproduce the scalar per-sample recursions in
``recursion_oracle``: the lifted LPV loops to a relative 1e-12, the filtered
LTI experiment to a relative 1e-7, and divergence at the same sample."""
import numpy as np
import pytest

from lpvsyn import (ControllerParameters, LpvSurrogateModel, SchedulingBasis,
                    TimeRecord, build_lfr, generate_experiment,
                    laguerre_basis, simulate_closed_loop, simulate_lpv)
from lpvsyn import _kernels
from lpvsyn.exceptions import SimulationDivergedError
from lpvsyn.lfr import OVERFLOW_LIMIT
from recursion_oracle import (closed_loop_recursion, controllable_canonical,
                              lpv_recursion, lti_experiment_recursion)

FS = 200.0
P_RANGE = (30.0, 50.0)


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def random_model(rng, growth=None):
    """A stable random plant; or, with ``growth``, A(p) = growth * I."""
    nx = 3
    if growth is None:
        a0 = np.diag([0.9, 0.85, 0.8]) + 0.01 * rng.standard_normal((nx, nx))
        a1 = 0.0002 * rng.standard_normal((nx, nx))
    else:
        a0, a1 = growth * np.eye(nx), np.zeros((nx, nx))
    return LpvSurrogateModel(a0, a1, rng.standard_normal(nx),
                             rng.standard_normal(nx), FS, P_RANGE)


def random_controller(rng, order_n=4, order_d=4, m=2):
    # small gains keep these loops bounded; the oracle checks diverged == -1
    wbar = 0.003 * rng.standard_normal((order_n + 1, m))
    vbar = np.zeros((order_d + 1, m))
    vbar[0, 0] = 1.0
    vbar[1:] = 0.02 * rng.standard_normal((order_d, m))
    params = ControllerParameters(wbar, vbar, laguerre_basis(0.5, order_n),
                                  laguerre_basis(0.6, order_d),
                                  SchedulingBasis(m, P_RANGE))
    return build_lfr(params)


def signals(rng, n):
    r = TimeRecord(rng.standard_normal(n))
    p = TimeRecord(40.0 + 10.0 * np.sin(np.arange(n) / 50.0))
    d = TimeRecord(0.1 * rng.standard_normal(n))
    return r, p, d


def oracle_loop(model, ctrl, r, p, d):
    params = ctrl.params
    return closed_loop_recursion(
        model.a0, model.a1, model.b, model.c, ctrl.a_n, ctrl.b_n, ctrl.a_d,
        ctrl.b_d, params.wbar, params.vbar, *params.sched.p_range,
        r.samples, p.samples, d.samples, OVERFLOW_LIMIT)


def assert_loop_matches_oracle(seed, n, **controller):
    rng = np.random.default_rng(seed)
    model, ctrl = random_model(rng), random_controller(rng, **controller)
    r, p, d = signals(rng, n)
    tr = simulate_closed_loop(model, ctrl, r, p, d)
    e, u, y, diverged = oracle_loop(model, ctrl, r, p, d)
    assert diverged == -1
    for got, want in ((tr.e, e), (tr.u, u), (tr.y, y)):
        assert rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_closed_loop_matches_oracle(m):
    # 2600 samples span three blocks of the lifted recursion
    assert_loop_matches_oracle(m, 2600, m=m)


def test_zero_order_controller_banks():
    assert_loop_matches_oracle(4, 600, order_n=0, order_d=0)


def test_overflow_detection():
    # |y| passes OVERFLOW_LIMIT near sample 70 (first block) or 1400 (second)
    for growth in (1.5, 1.02):
        rng = np.random.default_rng(5)
        model = random_model(rng, growth)
        ctrl = random_controller(rng)
        r, p, d = signals(rng, 3000)
        *_, want = oracle_loop(model, ctrl, r, p, d)
        assert (want >= _kernels.CHUNK) == (growth < 1.1)
        with pytest.raises(SimulationDivergedError) as err:
            simulate_closed_loop(model, ctrl, r, p, d)
        assert err.value.sample_index == want


def test_first_bad_index():
    y = np.array([0.0, -2.0, 1.0, np.inf, np.nan])
    assert _kernels.first_bad_index(y, 2.0) == 3
    assert _kernels.first_bad_index(y, 1.5) == 1
    assert _kernels.first_bad_index(y[:3], 2.0) == -1
    assert _kernels.first_bad_index(np.array([1.0, np.nan]), 2.0) == 1


@pytest.mark.parametrize("stable", [True, False], ids=["stable", "surrogate"])
def test_lpv_recursion_matches_oracle(model, stable):
    # the stable random model and the locally unstable surrogate, whose
    # output grows by orders of magnitude over the record
    rng = np.random.default_rng(1)
    m = random_model(rng) if stable else model
    n = 2500
    u = rng.standard_normal(n)
    p = np.where(np.arange(n) % 300 < 150, 30.0, 35.0 + 5.0 * np.cos(np.arange(n) / 30.0))
    out = simulate_lpv(m, TimeRecord(u), TimeRecord(p))
    want = lpv_recursion(m.a0, m.a1, m.b, m.c, u, p, np.zeros(m.state_dim))
    assert rel_err(out.samples, want) <= 1e-12


@pytest.mark.parametrize("noise_std,period", [(0.0, None), (0.05, None),
                                              (0.0, 1024)])
def test_lti_experiment_matches_oracle(model, k0, noise_std, period):
    n, seed = 4096, 11
    ak, bk, ck, dk = controllable_canonical(k0)
    for p in (30.0, 40.0, 50.0):
        d, u_g, y = generate_experiment(model, k0, p, n, noise_std, seed,
                                        periodic_period=period)
        rng = np.random.default_rng(seed)
        rng.standard_normal(period or n)
        noise = (noise_std * rng.standard_normal(n) if noise_std
                 else np.zeros(n))
        u_want, y_want, diverged = lti_experiment_recursion(
            model.a_at(p), model.b, model.c, ak, bk, ck, dk, d.samples, noise,
            1e12)
        assert diverged == -1
        assert rel_err(u_g.samples, u_want) <= 1e-7
        assert rel_err(y.samples, y_want) <= 1e-7


def test_experiment_overflow_reports_first_index(model, k0):
    n, p = 64, 40.0
    d_std = 1e16
    with pytest.raises(SimulationDivergedError) as err:
        generate_experiment(model, k0, p, n, 0.0, seed=2, d_std=d_std)
    d = d_std * np.random.default_rng(2).standard_normal(n)
    ak, bk, ck, dk = controllable_canonical(k0)
    *_, want = lti_experiment_recursion(model.a_at(p), model.b, model.c, ak,
                                        bk, ck, dk, d, np.zeros(n), 1e12)
    assert want > 0
    assert err.value.sample_index == want
