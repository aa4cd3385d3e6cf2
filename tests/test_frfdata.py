import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvsyn import (FrequencyGrid, FrfDataset, FrfResponse, SchedulingGrid,
                    TimeRecord, closed_loop_to_plant, etfe_estimate,
                    load_dataset, save_dataset)
from lpvsyn.exceptions import DataFormatError, EstimationError
from lpvsyn.rational import RationalTf, closed_loop_maps


def make_grid(n=16, fs=1.0):
    return FrequencyGrid(np.linspace(0.1, 3.0, n), fs)


def make_dataset(grid, points=(30.0, 40.0, 50.0), channels=("G",)):
    rng = np.random.default_rng(1)
    sched = SchedulingGrid(np.array(points), (min(points), max(points)))
    entries = {}
    for p in points:
        for ch in channels:
            vals = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
            entries[(p, ch)] = FrfResponse(vals, grid)
    return FrfDataset(entries, grid, sched)


class TestGridTypes:
    def test_monotone_required(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([0.1, 0.1, 0.2]))

    def test_range_required(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([0.1, 4.0]))
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frequencies_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FrequencyGrid(np.array([0.1, bad, 0.3]))

    @pytest.mark.parametrize("points, rng", [
        ([30.0, np.nan], (30.0, 50.0)),
        ([np.nan], (30.0, 50.0)),
        ([40.0], (30.0, np.inf)),
        ([40.0], (np.nan, 50.0)),
    ])
    def test_non_finite_scheduling_rejected(self, points, rng):
        with pytest.raises(ValueError, match="finite"):
            SchedulingGrid(np.array(points), rng)

    def test_hz_display(self):
        g = FrequencyGrid(np.array([math.pi / 2]), sample_rate=200.0)
        assert g.hz[0] == pytest.approx(50.0)

    def test_scheduling_points_distinct_and_in_range(self):
        with pytest.raises(ValueError):
            SchedulingGrid(np.array([30.0, 30.0]), (30.0, 50.0))
        with pytest.raises(ValueError):
            SchedulingGrid(np.array([20.0]), (30.0, 50.0))

    def test_response_length_checked(self):
        grid = make_grid()
        with pytest.raises(ValueError):
            FrfResponse(np.zeros(3), grid)
        with pytest.raises(ValueError):
            FrfResponse(np.full(len(grid), np.nan + 0j), grid)

    def test_dataset_channel_completeness(self):
        grid = make_grid()
        sched = SchedulingGrid(np.array([30.0, 40.0]), (30.0, 40.0))
        entries = {(30.0, "G"): FrfResponse(np.ones(len(grid)), grid),
                   (40.0, "G"): FrfResponse(np.ones(len(grid)), grid),
                   (30.0, "S"): FrfResponse(np.ones(len(grid)), grid)}
        with pytest.raises(ValueError, match="missing channel"):
            FrfDataset(entries, grid, sched)

    def test_timerecord_checks(self):
        with pytest.raises(ValueError):
            TimeRecord(np.array([1.0, np.inf]), 1.0)
        with pytest.raises(ValueError):
            TimeRecord(np.zeros(3), -1.0)


class TestDatasetIO:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        ds = make_dataset(make_grid(), channels=("G", "S"))
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path, sample_rate=ds.grid.sample_rate)
        assert np.array_equal(back.grid.omegas, ds.grid.omegas)
        assert back.channels == ds.channels
        for key, resp in ds.entries.items():
            assert np.array_equal(back.entries[key].values, resp.values)

    def test_json_round_trip(self, tmp_path):
        ds = make_dataset(make_grid())
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.grid.sample_rate == ds.grid.sample_rate
        for key, resp in ds.entries.items():
            assert np.array_equal(back.entries[key].values, resp.values)

    def test_three_point_file_has_three_scheduling_points(self, tmp_path):
        ds = make_dataset(make_grid())
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        assert len(load_dataset(path).scheduling_grid) == 3

    def test_row_count(self, tmp_path):
        grid = make_grid(n=100)
        ds = make_dataset(grid, channels=("G",))
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        with open(path) as fh:
            rows = sum(1 for _ in fh) - 1
        assert rows == 3 * 100  # one block of 100 rows per operating point

    def test_grid_mismatch_between_blocks(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["channel", "p", "omega", "re", "im"])
            w.writerow(["G", 30.0, 0.1, 1.0, 0.0])
            w.writerow(["G", 30.0, 0.2, 1.0, 0.0])
            w.writerow(["G", 40.0, 0.1, 1.0, 0.0])
            w.writerow(["G", 40.0, 0.3, 1.0, 0.0])
        with pytest.raises(DataFormatError, match="different frequency grid"):
            load_dataset(path)

    @pytest.mark.parametrize("p, omega, message", [
        (30.0, "nan", "frequencies must be finite"),
        ("nan", 0.2, "operating point nan is not finite"),
    ])
    def test_nan_grid_value_rejected(self, tmp_path, p, omega, message):
        # NaN passes every comparison, so only a finiteness check names it
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["channel", "p", "omega", "re", "im"])
            for point in (p, 40.0):
                w.writerow(["G", point, 0.1, 1.0, 0.0])
                w.writerow(["G", point, omega, 1.0, 0.0])
        with pytest.raises(DataFormatError, match=message):
            load_dataset(path)

    def test_non_monotone_frequencies(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["channel", "p", "omega", "re", "im"])
            w.writerow(["G", 30.0, 0.2, 1.0, 0.0])
            w.writerow(["G", 30.0, 0.1, 1.0, 0.0])
        with pytest.raises(DataFormatError):
            load_dataset(path)

    def test_bad_header_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataFormatError, match=":1"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="does not exist"):
            load_dataset(tmp_path / "nope.csv")

    def test_empty_dataset_cannot_exist(self):
        grid = make_grid()
        sched = SchedulingGrid(np.array([30.0]), (29.0, 31.0))
        with pytest.raises(ValueError):
            FrfDataset({}, grid, sched)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=4, max_size=4))
    def test_round_trip_random_values(self, tmp_path_factory, vals):
        grid = FrequencyGrid(np.array([0.1, 0.7, 1.3, 2.9]))
        sched = SchedulingGrid(np.array([1.0]), (0.0, 2.0))
        resp = FrfResponse(np.array(vals, dtype=float) * (1 + 0.5j), grid)
        ds = FrfDataset({(1.0, "G"): resp}, grid, sched)
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.entries[(1.0, "G")].values, resp.values)


class TestEtfe:
    def test_identity_system(self):
        fs = 1.0
        u = np.zeros(64)
        u[0] = 1.0
        rec = TimeRecord(u, fs)
        grid = FrequencyGrid(2 * np.pi * np.arange(1, 33) / 64, fs)
        est = etfe_estimate(rec, rec, grid, "rectangular", 1)
        assert np.allclose(est.values, 1.0, atol=1e-12)

    def test_one_sample_delay_closed_form(self):
        fs = 1.0
        u = np.zeros(128)
        u[0] = 1.0
        y = np.roll(u, 1)
        grid = FrequencyGrid(2 * np.pi * np.arange(1, 65) / 128, fs)
        est = etfe_estimate(TimeRecord(u, fs), TimeRecord(y, fs), grid,
                            "rectangular", 1)
        expected = np.exp(-1j * grid.omegas)
        assert np.max(np.abs(est.values - expected)) < 1e-10

    def test_known_second_order_filter(self):
        fs = 1.0
        tf = RationalTf([0.2, 0.1], [1.0, -1.2, 0.52])
        rng = np.random.default_rng(5)
        period = 1024
        u = np.tile(rng.standard_normal(period), 2)
        y = tf.filter(u)
        grid = FrequencyGrid(2 * np.pi * np.arange(3, period // 2 - 2) / period, fs)
        est = etfe_estimate(TimeRecord(u[period:], fs), TimeRecord(y[period:], fs),
                            grid, "rectangular", 1)
        truth = tf.on_grid(grid)
        assert np.max(np.abs(est.values - truth) / np.abs(truth)) < 1e-6

    def test_dft_ratio_definition_at_bins(self):
        # one segment, rectangular: the estimate is exactly fft(y)/fft(u)
        fs = 1.0
        rng = np.random.default_rng(2)
        u = rng.standard_normal(256)
        y = RationalTf([0.3], [1.0, -0.4]).filter(u)
        grid = FrequencyGrid(2 * np.pi * np.arange(1, 129) / 256, fs)
        est = etfe_estimate(TimeRecord(u, fs), TimeRecord(y, fs), grid,
                            "rectangular", 1)
        ratio = (np.fft.rfft(y) / np.fft.rfft(u))[1:]
        assert np.allclose(est.values, ratio, rtol=0, atol=1e-13)

    def test_welch_hann_segments_smoke(self):
        fs = 1.0
        rng = np.random.default_rng(4)
        u = rng.standard_normal(4096)
        y = RationalTf([0.3], [1.0, -0.4]).filter(u)
        grid = FrequencyGrid(np.linspace(0.1, 3.0, 32), fs)
        est = etfe_estimate(TimeRecord(u, fs), TimeRecord(y, fs), grid, "hann", 4)
        truth = RationalTf([0.3], [1.0, -0.4]).on_grid(grid)
        assert np.max(np.abs(est.values - truth) / np.abs(truth)) < 0.05

    def test_missing_excitation_reported_per_frequency(self):
        fs = 1.0
        n = 256
        k0 = 32
        u = np.cos(2 * np.pi * k0 * np.arange(n) / n)
        grid = FrequencyGrid(2 * np.pi * np.array([8, k0, 100]) / n, fs)
        with pytest.raises(EstimationError) as err:
            etfe_estimate(TimeRecord(u, fs), TimeRecord(u, fs), grid,
                          "rectangular", 1)
        assert len(err.value.frequencies) > 0
        assert not any(abs(f - 2 * np.pi * k0 / n) < 1e-12
                       for f in err.value.frequencies)

    def test_preconditions(self):
        fs = 1.0
        a = TimeRecord(np.zeros(10), fs)
        b = TimeRecord(np.zeros(12), fs)
        grid = FrequencyGrid(np.array([0.5]), fs)
        with pytest.raises(ValueError):
            etfe_estimate(a, b, grid)
        with pytest.raises(ValueError):
            etfe_estimate(a, TimeRecord(np.zeros(10), 2.0), grid)
        with pytest.raises(ValueError):
            etfe_estimate(a, a, grid, "rectangular", 3)
        with pytest.raises(ValueError):
            etfe_estimate(a, a, grid, "bogus", 1)


class TestClosedLoopToPlant:
    def test_constants(self):
        grid = make_grid()
        sens = FrfResponse(np.ones(len(grid)), grid)
        proc = FrfResponse(np.full(len(grid), 2.5 + 0j), grid)
        out = closed_loop_to_plant(sens, proc)
        assert np.allclose(out.values, 2.5)

    def test_rational_evaluation_oracle(self):
        # G = 0.5/(z-0.9) under K0 = 1: dividing the analytic GS by S
        # recovers G pointwise
        g = RationalTf([0.5], [1.0, -0.9])
        maps = closed_loop_maps(g, RationalTf.constant(1.0))
        grid = make_grid(n=64)
        sens = FrfResponse(maps["S"].on_grid(grid), grid)
        proc = FrfResponse(maps["GS"].on_grid(grid), grid)
        out = closed_loop_to_plant(sens, proc)
        truth = g.on_grid(grid)
        assert np.max(np.abs(out.values - truth)) < 1e-12

    def test_small_sensitivity_guard(self):
        grid = make_grid(n=4)
        vals = np.array([1.0, 1e-9, 1.0, 1.0], dtype=complex)
        sens = FrfResponse(vals, grid)
        proc = FrfResponse(np.ones(4, dtype=complex), grid)
        with pytest.raises(EstimationError) as err:
            closed_loop_to_plant(sens, proc)
        assert err.value.frequencies == [grid.omegas[1]]
