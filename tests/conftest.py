import numpy as np
import pytest

from lpvsyn import (FrequencyGrid, RationalTf, SchedulingBasis, SchedulingGrid,
                    SynthesisOptions, SynthesisProblem, WeightSet, bisect_gamma,
                    default_experiment_controller, default_surrogate,
                    frozen_coprime_from_model, frozen_tf, laguerre_basis)
from lpvsyn.defaults import default_weights
from lpvsyn.rational import closed_loop_char_poly, trim_poly

OPERATING_POINTS = (30.0, 40.0, 50.0)


def random_proper_tf(rng, max_order=4, pole_radius=1.3):
    """Random proper rational with poles of modulus up to ``pole_radius``."""
    n = int(rng.integers(1, max_order + 1))
    poles = []
    while len(poles) < n:
        if rng.random() < 0.5 and n - len(poles) >= 2:
            r = rng.uniform(0, pole_radius)
            th = rng.uniform(0, np.pi)
            poles += [r * np.exp(1j * th), r * np.exp(-1j * th)]
        else:
            poles.append(complex(rng.uniform(-pole_radius, pole_radius)))
    den = np.array([1.0])
    for q in poles:
        den = np.convolve(den, [1.0, -q])
    num = rng.standard_normal(int(rng.integers(0, n + 1)) + 1)
    return RationalTf(num, den.real)


def closed_loop_pole_moduli(g, k):
    """Moduli of the loop's characteristic roots; inf marks a degree drop."""
    phi = trim_poly(closed_loop_char_poly(g, k))
    mods = np.abs(np.roots(phi))
    if phi.size - 1 < g.degree + k.degree:
        mods = np.append(mods, np.inf)
    return mods


def lightly_damped_dp(grid):
    """Characteristic data whose real part dips negative near the lightly
    damped minimum-phase pair 0.95 e^{+-i}: only a nontrivial multiplier
    certifies it."""
    pole = 0.95 * np.exp(1.0j)
    return (grid.z - pole) * (grid.z - np.conj(pole)) / grid.z ** 2


@pytest.fixture(scope="session")
def model():
    return default_surrogate()


@pytest.fixture(scope="session")
def k0(model):
    return default_experiment_controller(model.sample_rate)


@pytest.fixture(scope="session")
def small_grid(model):
    return FrequencyGrid.log_spaced(0.05, 90.0, 64, model.sample_rate)


@pytest.fixture(scope="session")
def sched_grid():
    return SchedulingGrid(np.array(OPERATING_POINTS), (30.0, 50.0))


@pytest.fixture(scope="session")
def analytic_pairs(model, k0, small_grid):
    return {p: frozen_coprime_from_model(frozen_tf(model, p), k0, small_grid)[0]
            for p in OPERATING_POINTS}


@pytest.fixture(scope="session")
def weights(model):
    return default_weights(model.sample_rate)


def make_problem(pairs, weights, grid, sched_grid, m=2, order=5, pole=0.7,
                 integral=True, **options):
    sched = (SchedulingBasis.affine(sched_grid.range) if m == 2
             else SchedulingBasis(m, sched_grid.range))
    opts = SynthesisOptions(integral_action=integral,
                            gamma_lo=options.pop("gamma_lo", 0.01),
                            gamma_hi=options.pop("gamma_hi", 1000.0),
                            **options)
    return SynthesisProblem(pairs, weights, grid, sched_grid,
                            laguerre_basis(pole, order), laguerre_basis(pole, order),
                            sched, opts)


def unstable_plant_problem(omegas, **options):
    """G = 1/(z-2) with K0 = 2, one operating point, all weights one."""
    grid = FrequencyGrid(np.asarray(omegas))
    g = RationalTf([1.0], [1.0, -2.0])
    pair, _ = frozen_coprime_from_model(g, RationalTf.constant(2.0), grid)
    sched_grid = SchedulingGrid(np.array([0.0]), (-1.0, 1.0))
    one = RationalTf.constant(1.0)
    return SynthesisProblem({0.0: pair}, WeightSet(one, one, one, one),
                            grid, sched_grid, laguerre_basis(0.5, 1),
                            laguerre_basis(0.5, 1),
                            SchedulingBasis.constant((-1.0, 1.0)),
                            SynthesisOptions(eps=1e-6, integral_action=False,
                                             **options))


@pytest.fixture(scope="session")
def small_problem(analytic_pairs, weights, small_grid, sched_grid):
    return make_problem(analytic_pairs, weights, small_grid, sched_grid)


@pytest.fixture(scope="session")
def small_lpv_result(small_problem):
    return bisect_gamma(small_problem)


@pytest.fixture(scope="session")
def small_lti_problem(analytic_pairs, weights, small_grid, sched_grid):
    return make_problem(analytic_pairs, weights, small_grid, sched_grid, m=1)


@pytest.fixture(scope="session")
def small_lti_result(small_lti_problem):
    return bisect_gamma(small_lti_problem)
