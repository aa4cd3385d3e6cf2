"""Tuned default weights, grids and pipeline configuration.

The shaping targets mirror the surrogate design study: 0.75 Hz bandwidth with
at most 6 dB of sensitivity peaking, unit bound on the process sensitivity,
and high-frequency roll-off enforced through the control- and
complementary-sensitivity weights.
"""
from __future__ import annotations

import math

from .rational import RationalTf
from .synthesis import WeightSet

TWO_PI = 2.0 * math.pi


def default_weights(sample_rate: float) -> WeightSet:
    w_s = RationalTf.from_continuous(
        [0.5, TWO_PI * 0.75], [1.0, TWO_PI * 0.75 * 1e-4], sample_rate)
    w_gs = RationalTf.constant(1.0)
    w_ks = 0.02 * RationalTf.from_continuous(
        [1.0 / (TWO_PI * 8.0), 1.0], [1.0 / (TWO_PI * 60.0), 1.0], sample_rate)
    w_t = 0.4 * RationalTf.from_continuous(
        [1.0 / (TWO_PI * 1.2), 1.0], [1.0 / (TWO_PI * 40.0), 1.0], sample_rate)
    return WeightSet(w_s, w_gs, w_ks, w_t)


def default_config() -> dict:
    """Desk-scale pipeline configuration; --paper-scale swaps in the
    experiment sizes of the original study (240000 samples, 1000 lines)."""
    return {
        "out_dir": "out",
        "seed": 0,
        "plant": {"kind": "surrogate", "constants_path": None, "sample_rate": 1.0},
        "experiment": {
            "operating_points": [30.0, 40.0, 50.0],
            "n_samples": 65536,
            "noise_std": 0.0,
            "d_std": 1.0,
            "periodic": True,
            "periods": 2,
            "lead_in_periods": 1,
            "window": "rectangular",
            "segments": 1,
            "bezout_tol": 0.5,
            "controller0": None,
            "grid": {"n": 512, "f_min_hz": 0.05, "f_max_hz": 90.0},
        },
        "synthesis": {
            "obf.pole": 0.7,
            "obf.order_n": 5,
            "obf.order_d": 5,
            "scheduling.kind": "affine",
            "scheduling.degree": 1,
            "weights": None,
            "options": {
                "eps": None,
                "gamma_lo": 0.01,
                "gamma_hi": 1000.0,
                "gamma_rtol": 1e-3,
                "integral_action": True,
                "theta_bound": 1e4,
            },
        },
        "scenario": {
            "amplitude": 15.0,
            "ref_period_s": 8.0,
            "sched_period_s": 4.0,
            "cutoff_hz": 0.7,
            "duration_s": 24.0,
            "frozen_points": [30.0, 40.0, 50.0],
        },
    }


PAPER_SCALE = {"n_samples": 240000, "grid_n": 1000}
