import math

import numpy as np
import pytest
import scipy.signal

from lpvsyn import (FrequencyGrid, SchedulingBasis, TimeRecord, Trace,
                    build_lfr, constant_scheduling, evaluate_factors,
                    filtered_square_reference, frozen_controller_frf,
                    frozen_controller_tf, frozen_tf, internally_stable,
                    laguerre_basis, simulate_closed_loop, square_scheduling,
                    step_metrics)
from lpvsyn.exceptions import SimulationDivergedError
from lpvsyn.lfr import (OVERFLOW_LIMIT, REFERENCE_FILTER_ORDER,
                        SCHEDULING_SMOOTH_HZ, frozen_lfr_matrices, square_wave)
from lpvsyn.rational import RationalTf
from lpvsyn.synthesis import ParameterLayout
from recursion_oracle import closed_loop_recursion, controllable_canonical


def static_controller(c, p_range=(30.0, 50.0)):
    basis = laguerre_basis(0.5, 0)
    sched = SchedulingBasis.constant(p_range)
    layout = ParameterLayout(basis, basis, sched)
    theta = np.array([c])
    return layout.unpack(theta)


class TestBuildLfr:
    def test_static_controller(self, model):
        params = static_controller(2.5)
        ctrl = build_lfr(params)
        assert ctrl.state_dim == 0
        grid = FrequencyGrid(np.linspace(0.1, 3.0, 8), model.sample_rate)
        resp = frozen_controller_frf(ctrl, 40.0, grid)
        assert np.allclose(resp.values, 2.5)

    def test_frozen_matrices_on_array_equal_scalar_calls(self):
        rng = np.random.default_rng(3)
        sched = SchedulingBasis.polynomial(2, (30.0, 50.0))
        layout = ParameterLayout(laguerre_basis(0.5, 4), laguerre_basis(0.6, 3),
                                 sched)
        theta = rng.standard_normal(layout.size)
        ctrl = build_lfr(layout.unpack(theta))
        ps = rng.uniform(30.0, 50.0, 64)
        a, b, c, d = frozen_lfr_matrices(ctrl, ps)
        assert a.shape == (64, 7, 7) and c.shape == (64, 7) and d.shape == (64,)
        for k, p in enumerate(ps):
            ak, bk, ck, dk = frozen_lfr_matrices(ctrl, float(p))
            assert isinstance(dk, float)
            assert np.array_equal(a[k], ak) and np.array_equal(b, bk)
            assert np.array_equal(c[k], ck) and d[k] == dk

    def test_reference_configuration_state_count(self, small_lpv_result):
        ctrl = build_lfr(small_lpv_result.theta)
        assert ctrl.state_dim == 10

    def test_frozen_response_matches_factor_quotient(self, small_lpv_result, model):
        ctrl = build_lfr(small_lpv_result.theta)
        grid = FrequencyGrid.log_spaced(0.05, 90.0, 64, model.sample_rate)
        for p in (30.0, 40.0, 50.0):
            nk, dk = evaluate_factors(small_lpv_result.theta, p, grid)
            resp = frozen_controller_frf(ctrl, p, grid)
            assert np.max(np.abs(resp.values - nk / dk)) < 1e-8

    def test_frozen_equivalence_11_points_256_freqs(self, small_lpv_result, model):
        ctrl = build_lfr(small_lpv_result.theta)
        grid = FrequencyGrid.log_spaced(0.05, 90.0, 256, model.sample_rate)
        for p in np.linspace(30.0, 50.0, 11):
            nk, dk = evaluate_factors(small_lpv_result.theta, p, grid)
            resp = frozen_controller_frf(ctrl, p, grid)
            assert np.max(np.abs(resp.values - nk / dk)) < 1e-8

    def test_integral_action_low_frequency_gain(self, small_lpv_result, model):
        ctrl = build_lfr(small_lpv_result.theta)
        grid = FrequencyGrid.log_spaced(0.01, 90.0, 128, model.sample_rate)
        mag = np.abs(frozen_controller_frf(ctrl, 40.0, grid).values)
        mid = np.median(mag)
        assert mag[0] > 10.0 * mid


class TestSimulateClosedLoop:
    def test_zero_reference_zero_trace(self, model, small_lpv_result):
        ctrl = build_lfr(small_lpv_result.theta)
        n = 256
        zero = TimeRecord(np.zeros(n))
        tr = simulate_closed_loop(model, ctrl, zero,
                                  [constant_scheduling(n, 40.0)], zero)[0]
        assert np.all(tr.y == 0) and np.all(tr.u == 0) and np.all(tr.e == 0)

    def test_frozen_step_bounded_with_small_sse(self, model, small_lpv_result):
        ctrl = build_lfr(small_lpv_result.theta)
        fs = model.sample_rate
        n = int(30 * fs)
        r = np.zeros(n)
        r[100:] = 5.0
        zero = TimeRecord(np.zeros(n))
        for p in (30.0, 40.0, 50.0):
            tr = simulate_closed_loop(model, ctrl, TimeRecord(r),
                                      [constant_scheduling(n, p)], zero)[0]
            assert np.max(np.abs(tr.y)) < 50.0
            assert abs(tr.y[-1] - 5.0) / 5.0 < 1e-3

    def test_frozen_loop_matches_rational_lti_simulation(self, model,
                                                         small_lpv_result):
        # oracle: the frozen rational controller realized independently in
        # controllable canonical form and interconnected with the plant
        # (direct-form filtering of the degree-13 closed-loop rationals is too
        # ill-conditioned near |z| = 1 to serve as a 1e-8 reference)
        ctrl = build_lfr(small_lpv_result.theta)
        n = 10000
        rng = np.random.default_rng(0)
        r = rng.standard_normal(n) * 0.1
        zero = TimeRecord(np.zeros(n))
        p = 40.0
        tr = simulate_closed_loop(model, ctrl, TimeRecord(r),
                                  [constant_scheduling(n, p)], zero)[0]
        k_tf = frozen_controller_tf(small_lpv_result.theta, p)
        ak, bk, ck, dk = controllable_canonical(k_tf)
        a_p = model.a_at(p)
        xg = np.zeros(model.state_dim)
        xk = np.zeros(ak.shape[0])
        y_ref = np.zeros(n)
        e_ref = np.zeros(n)
        for k in range(n):
            y_ref[k] = model.c @ xg
            e_ref[k] = r[k] - y_ref[k]
            u = ck @ xk + dk * e_ref[k]
            xk = ak @ xk + bk * e_ref[k]
            xg = a_p @ xg + model.b * u
        assert np.max(np.abs(tr.y - y_ref)) < 1e-8
        assert np.max(np.abs(tr.e - e_ref)) < 1e-8

    def test_scheduling_locality(self, model, small_lpv_result):
        # constant scheduling: the LFR path equals a direct simulation of the
        # frozen controller matrices
        ctrl = build_lfr(small_lpv_result.theta)
        n = 2000
        rng = np.random.default_rng(1)
        r = rng.standard_normal(n) * 0.1
        p = 35.0
        zero = TimeRecord(np.zeros(n))
        tr = simulate_closed_loop(model, ctrl, TimeRecord(r),
                                  [constant_scheduling(n, p)], zero)[0]
        ak, bk, ck, dk = frozen_lfr_matrices(ctrl, p)
        a_p = model.a_at(p)
        xg = np.zeros(model.state_dim)
        xk = np.zeros(ak.shape[0])
        y = np.zeros(n)
        for k in range(n):
            y[k] = model.c @ xg
            e = r[k] - y[k]
            u = ck @ xk + dk * e
            xk = ak @ xk + bk * e
            xg = a_p @ xg + model.b * u
        assert np.max(np.abs(tr.y - y)) < 1e-10

    def test_time_varying_scenario_finite(self, model, small_lpv_result):
        ctrl = build_lfr(small_lpv_result.theta)
        fs = model.sample_rate
        n = int(16 * fs)
        ref = filtered_square_reference(n, fs, 15.0, 8.0, 0.7)
        sched = square_scheduling(n, fs, model.scheduling_range, 4.0)
        zero = TimeRecord(np.zeros(n))
        tr = simulate_closed_loop(model, ctrl, ref, [sched], zero)[0]
        metrics = step_metrics(tr)
        assert np.all(np.isfinite(tr.y))
        assert metrics["l2_error"] > 0

    def test_divergence_reports_sample_index(self, model):
        # a large positive static gain destabilizes every frozen plant
        params = static_controller(50.0)
        assert not internally_stable(frozen_tf(model, 40.0),
                                     frozen_controller_tf(params, 40.0))
        ctrl = build_lfr(params)
        n = 20000
        r = np.zeros(n)
        r[10:] = 1.0
        zero = TimeRecord(np.zeros(n))
        sched = constant_scheduling(n, 40.0)
        with pytest.raises(SimulationDivergedError) as err:
            simulate_closed_loop(model, ctrl, TimeRecord(r), [sched], zero)
        *_, first_bad = closed_loop_recursion(
            model.a0, model.a1, model.b, model.c, ctrl.a_n, ctrl.b_n,
            ctrl.a_d, ctrl.b_d, params.wbar, params.vbar,
            *params.sched.p_range, r, sched.samples, zero.samples,
            OVERFLOW_LIMIT)
        assert first_bad > 10
        assert err.value.sample_index == first_bad

    def test_length_mismatch(self, model, small_lpv_result):
        ctrl = build_lfr(small_lpv_result.theta)
        with pytest.raises(ValueError):
            simulate_closed_loop(model, ctrl, TimeRecord(np.zeros(8)),
                                 [constant_scheduling(9, 40.0)],
                                 TimeRecord(np.zeros(8)))


class TestStepMetrics:
    def make_trace(self, r, y, fs=1.0):
        n = r.size
        return Trace(r, r - y, np.zeros(n), np.zeros(n), y, np.full(n, 40.0),
                     fs, (30.0, 50.0))

    def test_zero_error_trace(self):
        n = 200
        r = np.zeros(n)
        r[50:] = 1.0
        m = step_metrics(self.make_trace(r, r.copy()))
        assert m["l2_error"] == 0.0
        assert m["linf_error"] == 0.0
        assert m["overshoot_pct"] == 0.0
        assert m["settling_s"] == 0.0

    def test_first_order_settling_closed_form(self):
        fs = 100.0
        tau = 0.25
        n = 500
        r = np.zeros(n)
        r[100:] = 1.0
        t = np.arange(n - 100) / fs
        y = np.zeros(n)
        y[100:] = 1.0 - np.exp(-t / tau)
        m = step_metrics(self.make_trace(r, y, fs))
        expected = tau * math.log(50.0)
        assert abs(m["settling_s"] - expected) <= 1.0 / fs
        assert m["overshoot_pct"] == 0.0

    def test_no_edges_raises(self):
        n = 50
        r = np.ones(n)
        with pytest.raises(ValueError, match="no step edges"):
            step_metrics(self.make_trace(r, r.copy()))

    def test_lpv_beats_lti_on_paired_runs(self, model, small_lpv_result,
                                          small_lti_result):
        fs = model.sample_rate
        n = int(24 * fs)
        ref = filtered_square_reference(n, fs, 15.0, 8.0, 0.7)
        sched = square_scheduling(n, fs, model.scheduling_range, 4.0)
        zero = TimeRecord(np.zeros(n))
        results = {}
        for name, res in (("lpv", small_lpv_result), ("lti", small_lti_result)):
            ctrl = build_lfr(res.theta)
            tr = simulate_closed_loop(model, ctrl, ref, [sched], zero)[0]
            results[name] = step_metrics(tr)
        assert results["lpv"]["l2_error"] < results["lti"]["l2_error"]
        assert results["lpv"]["linf_error"] < results["lti"]["linf_error"]


class TestScenarios:
    def test_square_scheduling_stays_in_range(self, model):
        fs = model.sample_rate
        sched = square_scheduling(int(10 * fs), fs, model.scheduling_range, 4.0)
        lo, hi = model.scheduling_range
        assert np.all(sched.samples >= lo) and np.all(sched.samples <= hi)
        assert sched.samples.max() > hi - 1.0
        assert sched.samples.min() < lo + 1.0

    @staticmethod
    def filters_used(monkeypatch, scenario):
        """Run the scenario generator and return each RationalTf it filters
        through, in call order."""
        seen = []
        original = RationalTf.filter

        def recording(tf, u):
            seen.append(tf)
            return original(tf, u)

        monkeypatch.setattr(RationalTf, "filter", recording)
        scenario()
        return seen

    @pytest.mark.parametrize("cutoff_hz", [0.7, 5.0, 40.0])
    def test_reference_filter_is_scipy_butterworth(self, monkeypatch, cutoff_hz):
        fs = 200.0
        (tf,) = self.filters_used(
            monkeypatch, lambda: filtered_square_reference(64, fs, 15.0, 8.0, cutoff_hz))
        b, a = scipy.signal.butter(REFERENCE_FILTER_ORDER, cutoff_hz / (0.5 * fs))
        num, den = tf.num / tf.den[0], tf.den / tf.den[0]
        assert num.size == b.size and den.size == a.size
        assert np.max(np.abs(num - b)) <= 1e-14 * np.max(np.abs(b))
        assert np.max(np.abs(den - a)) <= 1e-14 * np.max(np.abs(a))

    def test_reference_matches_lfilter(self):
        fs, n = 200.0, 6400
        ref = filtered_square_reference(n, fs, 15.0, 8.0, 0.7)
        b, a = scipy.signal.butter(REFERENCE_FILTER_ORDER, 0.7 / (0.5 * fs))
        want = scipy.signal.lfilter(b, a, square_wave(n, 1600, -15.0, 15.0))
        assert np.max(np.abs(ref.samples - want)) <= 1e-8 * np.max(np.abs(want))

    def test_scheduling_smoothing_matches_lfilter(self, model):
        fs = model.sample_rate
        lo, hi = model.scheduling_range
        n = int(10 * fs)
        sched = square_scheduling(n, fs, (lo, hi), 4.0)
        zd = math.exp(-2.0 * math.pi * SCHEDULING_SMOOTH_HZ / fs)
        raw = square_wave(n, int(round(4.0 * fs)), lo, hi)
        want = np.clip(scipy.signal.lfilter([1.0 - zd], [1.0, -zd], raw - lo) + lo, lo, hi)
        assert np.max(np.abs(sched.samples - want)) <= 1e-12

    def test_filtered_square_reference_shape(self):
        fs = 200.0
        ref = filtered_square_reference(int(16 * fs), fs, 15.0, 8.0, 0.7)
        assert np.max(np.abs(ref.samples)) < 20.0
        assert np.max(ref.samples) > 14.0
