import csv
import json
from importlib import resources

import numpy as np
import pytest

from lpvsyn import (FrequencyGrid, LpvSurrogateModel, TimeRecord, Trace,
                    closed_loop_to_plant, etfe_estimate, frozen_frf, frozen_tf,
                    generate_experiment, internally_stable, load_surrogate,
                    load_trace, save_trace, simulate_lpv)
from lpvsyn import _kernels
from lpvsyn.exceptions import SimulationDivergedError, StabilizationError
from lpvsyn.rational import RationalTf, statespace_response
from recursion_oracle import controllable_canonical, lpv_recursion

P_SCAN = np.linspace(30.0, 50.0, 21)


def dense_grid(fs, n=8192):
    return FrequencyGrid.log_spaced(0.5, 8.0, n, fs)


class TestFrozenViews:
    def test_nilpotent_chain_gives_fir(self):
        a0 = np.zeros((3, 3))
        a0[0, 1] = 1.0
        a0[1, 2] = 1.0
        m = LpvSurrogateModel(a0, np.zeros((3, 3)), np.array([0.0, 0.0, 1.0]),
                              np.array([1.0, 0.0, 0.0]), 1.0, (0.0, 1.0))
        tf = frozen_tf(m, 0.5)
        assert np.allclose(tf.den, [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(tf.num, [1.0])

    def test_resonance_calibration_near_1p7_hz(self, model):
        grid = dense_grid(model.sample_rate)
        mag = np.abs(frozen_tf(model, 30.0).on_grid(grid))
        assert abs(grid.hz[np.argmax(mag)] - 1.7) < 0.05

    def test_poles_equal_eigenvalues(self, model):
        for p in (30.0, 41.5, 50.0):
            tf = frozen_tf(model, p)
            eig = np.linalg.eigvals(model.a_at(p))
            assert np.allclose(np.sort_complex(tf.poles()),
                               np.sort_complex(eig), atol=1e-10)

    def test_out_of_range_rejected(self, model):
        with pytest.raises(ValueError):
            frozen_tf(model, 29.0)
        with pytest.raises(ValueError):
            frozen_frf(model, 51.0, dense_grid(model.sample_rate, 8))

    def test_frf_at_zero_equals_dc_gain(self, model):
        grid = FrequencyGrid(np.array([0.0, 0.1]), model.sample_rate)
        resp = frozen_frf(model, 40.0, grid)
        assert resp.values[0].real == pytest.approx(frozen_tf(model, 40.0).dc_gain())
        assert abs(resp.values[0].imag) < 1e-12

    def test_frf_matches_resolvent_21_point_scan(self, model):
        # independent oracle: eigendecomposition residue form of the resolvent
        grid = FrequencyGrid.log_spaced(0.05, 90.0, 48, model.sample_rate)
        for p in P_SCAN:
            lam, v = np.linalg.eig(model.a_at(p))
            bt = np.linalg.solve(v, model.b.astype(complex))
            ct = model.c.astype(complex) @ v
            direct = np.array([np.sum(ct * bt / (z - lam)) for z in grid.z])
            assert np.max(np.abs(frozen_frf(model, p, grid).values - direct)) < 1e-12

    def test_magnitude_peak_shifts_monotonically(self, model):
        grid = dense_grid(model.sample_rate)
        peaks = [grid.hz[np.argmax(np.abs(frozen_tf(model, p).on_grid(grid)))]
                 for p in (30.0, 40.0, 50.0)]
        assert peaks[0] < peaks[1] < peaks[2]


class TestSurrogateCalibration:
    def test_locally_unstable_everywhere(self, model):
        for p in P_SCAN:
            assert np.max(np.abs(frozen_tf(model, p).poles())) > 1.0

    def test_dc_gain_strictly_monotone(self, model):
        gains = [abs(frozen_tf(model, p).dc_gain()) for p in P_SCAN]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_resonance_strictly_monotone(self, model):
        grid = dense_grid(model.sample_rate, 16384)
        peaks = [grid.hz[np.argmax(np.abs(frozen_tf(model, p).on_grid(grid)))]
                 for p in P_SCAN]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))

    def test_reachable_and_observable_over_range(self, model):
        for p in P_SCAN:
            a = model.a_at(p)
            ctrb = np.column_stack([np.linalg.matrix_power(a, k) @ model.b
                                    for k in range(3)])
            obsv = np.vstack([model.c @ np.linalg.matrix_power(a, k)
                              for k in range(3)])
            assert np.linalg.matrix_rank(ctrb) == 3
            assert np.linalg.matrix_rank(obsv) == 3

    def test_constants_file_round_trip(self, model, tmp_path):
        src = resources.files("lpvsyn.data") / "surrogate_v1.json"
        raw = json.loads(src.read_text())
        assert raw["version"] == 1
        loaded = load_surrogate(src)
        assert np.array_equal(loaded.a0, model.a0)
        assert np.array_equal(loaded.a1, model.a1)
        assert loaded.sample_rate == 200.0
        assert loaded.scheduling_range == (30.0, 50.0)


class TestSimulateLpv:
    def test_zero_input_zero_output(self, model):
        n = 100
        fs = model.sample_rate
        out = simulate_lpv(model, TimeRecord(np.zeros(n), fs),
                           TimeRecord(np.full(n, 40.0), fs))
        assert np.all(out.samples == 0.0)

    def test_frozen_scheduling_matches_lti_filter(self):
        # a stable sibling of the surrogate keeps signals bounded so the
        # absolute comparison over 10^4 samples is meaningful
        a0 = np.array([[0.95, 0.0, 0.005],
                       [0.0, 0.9955782, -0.0108015],
                       [0.0, 0.0108015, 0.9955782]])
        a1 = np.array([[0.0, 0.0, 0.0],
                       [0.0, 0.0, -0.001414],
                       [0.0, 0.001414, 0.0]])
        m = LpvSurrogateModel(a0, a1, np.array([0.0, -0.0984, 0.0]),
                              np.array([1.0, 0.0, 0.0]), 200.0, (30.0, 50.0))
        n = 10000
        rng = np.random.default_rng(0)
        u = rng.standard_normal(n)
        for p in (30.0, 50.0):
            out = simulate_lpv(m, TimeRecord(u, 200.0), TimeRecord(np.full(n, p), 200.0))
            ref = frozen_tf(m, p).filter(u)
            assert np.max(np.abs(out.samples - ref)) < 1e-10

    def test_frozen_scheduling_matches_lti_filter_unstable_relative(self, model):
        # the locally unstable surrogate amplifies rounding differences, so
        # the agreement with the difference-equation filter is relative
        n = 10000
        fs = model.sample_rate
        rng = np.random.default_rng(0)
        u = rng.standard_normal(n)
        for p in (30.0, 50.0):
            out = simulate_lpv(model, TimeRecord(u, fs), TimeRecord(np.full(n, p), fs))
            ref = frozen_tf(model, p).filter(u)
            scale = np.maximum(np.abs(ref), 1.0)
            assert np.max(np.abs(out.samples - ref) / scale) < 1e-8

    def test_toggling_differs_from_frozen_and_matches_direct_recursion(self, model):
        n = 400
        fs = model.sample_rate
        rng = np.random.default_rng(1)
        u = rng.standard_normal(n)
        p = np.where(np.arange(n) % 100 < 50, 30.0, 50.0)
        out = simulate_lpv(model, TimeRecord(u, fs), TimeRecord(p, fs))
        y_ref = lpv_recursion(model.a0, model.a1, model.b, model.c, u, p,
                              np.zeros(3))
        assert np.max(np.abs(out.samples - y_ref)) < 1e-12
        for pc in (30.0, 50.0):
            frozen = frozen_tf(model, pc).filter(u)
            assert np.max(np.abs(out.samples - frozen)) > 1e-3

    def test_scheduling_out_of_range(self, model):
        n = 8
        fs = model.sample_rate
        with pytest.raises(ValueError):
            simulate_lpv(model, TimeRecord(np.zeros(n), fs),
                         TimeRecord(np.full(n, 60.0), fs))

    def test_divergence_reports_first_bad_sample(self, model):
        # a unit input on the locally unstable frozen model at p = 40 grows
        # until float64 overflows, near sample 71000
        n, p = 80000, 40.0
        fs = model.sample_rate
        u = np.ones(n)
        with np.errstate(over="ignore", invalid="ignore"):
            y = lpv_recursion(model.a0, model.a1, model.b, model.c, u,
                              np.full(n, p), np.zeros(3))
        want = _kernels.first_bad_index(y, np.inf)
        assert 0 < want < n and want % _kernels.CHUNK
        with pytest.raises(SimulationDivergedError) as err:
            simulate_lpv(model, TimeRecord(u, fs), TimeRecord(np.full(n, p), fs))
        assert err.value.sample_index == want


class TestGenerateExperiment:
    def test_all_zero_without_excitation(self, model, k0):
        d, u_g, y = generate_experiment(model, k0, 40.0, 256, 0.0, seed=0, d_std=0.0)
        assert np.all(d.samples == 0) and np.all(u_g.samples == 0)
        assert np.all(y.samples == 0)

    def test_deterministic_given_seed(self, model, k0):
        a = generate_experiment(model, k0, 30.0, 512, 0.1, seed=42)
        b = generate_experiment(model, k0, 30.0, 512, 0.1, seed=42)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.samples, rb.samples)

    def test_destabilizing_controller_rejected(self, model):
        bad = RationalTf.constant(10.0, model.sample_rate)
        assert not internally_stable(frozen_tf(model, 30.0), bad)
        with pytest.raises(StabilizationError):
            generate_experiment(model, bad, 30.0, 64, 0.0, seed=0)

    def test_pipeline_recovers_frf_within_5pct(self, model, k0):
        p = 30.0
        d, u_g, y = generate_experiment(model, k0, p, 65536, 0.0, seed=5)
        grid = FrequencyGrid.log_spaced(0.05, 75.0, 96, model.sample_rate)
        sens = etfe_estimate(d, u_g, grid, "hann", 4)
        proc = etfe_estimate(d, y, grid, "hann", 4)
        recovered = closed_loop_to_plant(sens, proc)
        truth = frozen_frf(model, p, grid)
        band = grid.omegas < 0.8 * np.pi
        rel = np.abs(recovered.values - truth.values) / np.abs(truth.values)
        assert rel[band].max() < 0.05

    def test_controllable_canonical_matches_transfer(self):
        tf = RationalTf([0.5, -0.2], [1.0, -1.1, 0.3], 1.0)
        a, b, c, d = controllable_canonical(tf)
        z = np.exp(1j * np.linspace(0.1, 3.0, 7))
        assert np.allclose(statespace_response(a, b, c, d, z), tf.eval_at(z),
                           atol=1e-12)


class TestTrace:
    def test_lengths_and_range_enforced(self):
        with pytest.raises(ValueError):
            Trace(np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4),
                  np.zeros(3), np.full(4, 40.0), 1.0, (30.0, 50.0))
        with pytest.raises(ValueError):
            Trace(np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4),
                  np.zeros(4), np.full(4, 60.0), 1.0, (30.0, 50.0))

    def test_save_load_round_trip(self, tmp_path):
        n = 16
        rng = np.random.default_rng(0)
        tr = Trace(rng.standard_normal(n), rng.standard_normal(n),
                   rng.standard_normal(n), rng.standard_normal(n),
                   rng.standard_normal(n), np.full(n, 35.0), 200.0, (30.0, 50.0))
        path = tmp_path / "trace.csv"
        save_trace(tr, path)
        back = load_trace(path, (30.0, 50.0))
        for name in ("r", "e", "u", "d", "y", "p"):
            assert np.array_equal(getattr(back, name), getattr(tr, name))

    @staticmethod
    def csv_module_bytes(trace, path):
        """The trace file as the standard csv module writes it."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "r", "e", "u", "d", "y", "p"])
            for row in zip(trace.t, trace.r, trace.e, trace.u, trace.d,
                           trace.y, trace.p):
                writer.writerow([repr(float(v)) for v in row])
        return path.read_bytes()

    @pytest.mark.parametrize("n", [1, 3000])
    def test_writer_matches_csv_module_and_reads_back_exactly(self, tmp_path, n):
        # 3000 rows span several write blocks; one row needs ndmin=2 to load
        rng = np.random.default_rng(n)
        signals = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-300, 300, (5, n))
        signals[:, 0] = [-0.0, 5e-324, 1e300, -1e300, 0.1]
        tr = Trace(*signals, 30.0 + 20.0 * rng.random(n), 200.0, (30.0, 50.0))
        path = tmp_path / "trace.csv"
        save_trace(tr, path)
        assert path.read_bytes() == self.csv_module_bytes(tr, tmp_path / "ref.csv")
        back = load_trace(path, (30.0, 50.0))
        assert len(back) == n
        for name in ("r", "e", "u", "d", "y", "p"):
            assert getattr(back, name).tobytes() == getattr(tr, name).tobytes()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,r,e,u,d,x,p\r\n0.0,0.0,0.0,0.0,0.0,0.0,40.0\r\n")
        with pytest.raises(ValueError, match="header"):
            load_trace(path, (30.0, 50.0))
