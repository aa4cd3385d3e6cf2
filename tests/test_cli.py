import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import lpvsyn
from lpvsyn.cli import main


def tiny_config(out_dir, seed=3):
    return {
        "out_dir": str(out_dir),
        "seed": seed,
        "experiment": {
            "n_samples": 4096,
            "grid": {"n": 48, "f_min_hz": 0.1, "f_max_hz": 90.0},
        },
        "synthesis": {
            "options": {"gamma_lo": 0.5, "gamma_hi": 50.0},
        },
        "scenario": {"duration_s": 6.0},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def run_fresh(code):
    """Stdout of ``code`` run in a fresh interpreter that imports this lpvsyn."""
    src = str(Path(lpvsyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_signal_and_stats_unloaded():
    # each CLI stage is its own process, so every module loaded at import
    # is paid once per stage; scipy.signal alone pulls in scipy.stats, and
    # the optimize and linalg packages pull in scipy.sparse and scipy.special
    out = run_fresh("import sys, lpvsyn.cli; print(sorted(m for m in ("
                    "'scipy.signal', 'scipy.stats', 'scipy.optimize', 'scipy.linalg', "
                    "'scipy.sparse', 'scipy.special', 'scipy.linalg._flapack', "
                    "'scipy.optimize._highspy._core') if m in sys.modules))")
    assert out.strip() == "['scipy.linalg._flapack', 'scipy.optimize._highspy._core']"


@pytest.mark.parametrize("lpvsyn_first", [True, False])
def test_scipy_packages_share_the_compiled_modules(lpvsyn_first):
    # lpvsyn loads HiGHS and _flapack from their files; scipy's packages,
    # imported before or after, must reuse those modules, not initialise
    # them again (the HiGHS binding fails with "type already registered");
    # a module loaded first is not an attribute of its package, but imports
    # from the package and scipy's LAPACK solves still find it
    scipy_imports = "import scipy.optimize, scipy.linalg, scipy.signal"
    lpvsyn_imports = "import lpvsyn.cli; from lpvsyn import rational, synthesis"
    first, then = ((lpvsyn_imports, scipy_imports) if lpvsyn_first
                   else (scipy_imports, lpvsyn_imports))
    out = run_fresh(f"""
import sys
{first}
{then}
print(synthesis._hc is sys.modules["scipy.optimize._highspy._core"])
print(rational.dtbtrs is scipy.linalg.lapack.dtbtrs)
res = scipy.optimize.linprog([1.0, 1.0], A_ub=[[-1.0, -2.0]], b_ub=[-2.0])
print(res.status, res.fun)
from scipy.linalg import _flapack
print(_flapack is sys.modules["scipy.linalg._flapack"])
print(*scipy.linalg.solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 2.0]))
""")
    assert out.split() == ["True", "True", "0", "1.0", "True", "1.0", "0.5"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    out = Path(tmp_path / "out")
    res = run("--config", cfg_path, "generate")
    assert res.exit_code == 0, res.output
    res = run("--config", cfg_path, "synthesize")
    assert res.exit_code == 0, res.output
    return cfg_path, out


class TestPipeline:
    def test_generate_outputs(self, pipeline):
        _, out = pipeline
        assert (out / "dataset.csv").exists()
        for p in (30, 40, 50):
            assert (out / f"records_p{p}.csv").exists()

    def test_dataset_shape(self, pipeline):
        from lpvsyn import load_dataset
        _, out = pipeline
        ds = load_dataset(out / "dataset.csv", sample_rate=200.0)
        assert len(ds.scheduling_grid) == 3
        assert len(ds.grid) == 48
        assert set(ds.channels) == {"S", "GS", "G", "N_G", "D_G"}

    def test_synthesis_result(self, pipeline):
        _, out = pipeline
        payload = json.loads((out / "synthesis_result.json").read_text())
        assert payload["gamma"] > 0
        assert (out / "controller.json").exists()
        assert "margins" in payload and "telemetry" in payload

    def test_synthesis_result_omits_run_counters(self, pipeline):
        # the LP count and the skipped levels depend on the search path, not
        # on gamma and theta
        _, out = pipeline
        telemetry = json.loads((out / "synthesis_result.json").read_text())["telemetry"]
        assert not {"lp_solves", "skipped_steps", "wall_time_s"} & telemetry.keys()

    @pytest.mark.parametrize("noise_std", [0.0, 0.01])
    def test_estimate_reproduces_dataset(self, pipeline, tmp_path, noise_std):
        # generate estimates from its records as estimate reads them back;
        # with measurement noise, u_G - d + d is not u_G bit for bit
        cfg_path, out = pipeline
        if noise_std:
            cfg = tiny_config(tmp_path / "out")
            cfg["experiment"]["noise_std"] = noise_std
            cfg_path, out = write_config(tmp_path, cfg), tmp_path / "out"
            assert run("--config", cfg_path, "generate").exit_code == 0
        before = (out / "dataset.csv").read_bytes()
        res = run("--config", cfg_path, "estimate")
        assert res.exit_code == 0, res.output
        assert (out / "dataset.csv").read_bytes() == before

    def test_analyze_certifies_at_achieved_gamma(self, pipeline):
        cfg_path, out = pipeline
        gamma = json.loads((out / "synthesis_result.json").read_text())["gamma"]
        res = run("--config", cfg_path, "analyze", str(out / "controller.json"),
                  "--gamma", str(gamma))
        assert res.exit_code == 0, res.output
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["stability"]["status"] == "certified"
        assert cert["performance"]["status"] == "certified"

    def test_analyze_refutes_at_half_gamma(self, pipeline):
        cfg_path, out = pipeline
        gamma = json.loads((out / "synthesis_result.json").read_text())["gamma"]
        res = run("--config", cfg_path, "analyze", str(out / "controller.json"),
                  "--gamma", str(gamma / 2))
        assert res.exit_code == 3
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["performance"]["status"] in ("refuted", "inconclusive")

    def test_simulate_and_report(self, pipeline):
        cfg_path, out = pipeline
        res = run("--config", cfg_path, "simulate", str(out / "controller.json"))
        assert res.exit_code == 0, res.output
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"frozen_p30", "frozen_p40", "frozen_p50",
                                "timevarying"}
        for m in metrics.values():
            for key in ("l2_error", "linf_error", "overshoot_pct", "settling_s"):
                assert key in m
        res = run("--config", cfg_path, "report")
        assert res.exit_code == 0, res.output
        # every numeric column parses as a plain float
        for name, cols in (("report_plant_frf.csv", (0, 1, 2, 3, 4)),
                           ("report_fourblock.csv", (0, 2, 3, 4, 5)),
                           ("report_controller_frf.csv", (0, 1, 2, 3, 4))):
            table = np.loadtxt(out / name, delimiter=",", skiprows=1,
                               usecols=cols, ndmin=2)
            assert table.shape[0] > 0 and np.all(np.isfinite(table))

    def test_analyze_and_report_ignore_synthesis_only_keys(self, pipeline, tmp_path):
        # the controller carries its own bases, so a config that could not
        # synthesize (order_n above order_d) still certifies and reports it
        _, out = pipeline
        copy = tmp_path / "out"
        copy.mkdir()
        for name in ("dataset.csv", "synthesis_result.json", "controller.json"):
            (copy / name).write_bytes((out / name).read_bytes())
        gamma = json.loads((out / "synthesis_result.json").read_text())["gamma"]
        odd = tiny_config(copy)
        odd["synthesis"]["obf.order_n"] = 6
        certificates = []
        for name, cfg in (("plain.json", tiny_config(copy)), ("odd.json", odd)):
            cfg_path = write_config(tmp_path, cfg, name=name)
            for args in (["analyze", str(copy / "controller.json"),
                          "--gamma", repr(gamma)], ["report"]):
                res = run("--config", cfg_path, *args)
                assert res.exit_code == 0, res.output
            certificates.append((copy / "certificate.json").read_bytes())
        assert certificates[0] == certificates[1]

    def test_lti_mode_flag(self, pipeline, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("lti")
        cfg = tiny_config(tmp_path / "out")
        cfg["synthesis"]["scheduling.kind"] = "constant"
        cfg_path = write_config(tmp_path, cfg)
        assert run("--config", cfg_path, "generate").exit_code == 0
        assert run("--config", cfg_path, "synthesize").exit_code == 0
        ctrl = json.loads((tmp_path / "out" / "controller.json").read_text())
        assert ctrl["scheduling"]["m"] == 1


class TestOnePoint:
    def test_pipeline_on_one_operating_point(self, tmp_path):
        # one point widens to the range (39.5, 40.5) when written and when read
        cfg = tiny_config(tmp_path / "out")
        cfg["experiment"]["operating_points"] = [40.0]
        cfg["synthesis"]["scheduling.kind"] = "constant"
        cfg_path = write_config(tmp_path, cfg)
        for args in (["generate"], ["synthesize"]):
            res = run("--config", cfg_path, *args)
            assert res.exit_code == 0, res.output
        out = tmp_path / "out"
        result = json.loads((out / "synthesis_result.json").read_text())
        assert result["controller"]["scheduling"]["range"] == [39.5, 40.5]
        # simulate schedules over the plant's range [30, 50], which the
        # constant controller does not depend on
        for args in (["analyze", str(out / "controller.json"),
                      "--gamma", repr(result["gamma"])],
                     ["simulate", str(out / "controller.json")], ["report"]):
            res = run("--config", cfg_path, *args)
            assert res.exit_code == 0, res.output


class TestExternalDataset:
    def test_synthesize_from_external_dataset(self, pipeline, tmp_path):
        # copy a dataset into a fresh out dir and synthesize without the plant
        _, out = pipeline
        ext_out = tmp_path / "out"
        ext_out.mkdir()
        (ext_out / "dataset.csv").write_bytes((out / "dataset.csv").read_bytes())
        cfg = tiny_config(ext_out)
        cfg["plant"] = {"kind": "dataset", "sample_rate": 200.0}
        cfg_path = write_config(tmp_path, cfg)
        res = run("--config", cfg_path, "synthesize")
        assert res.exit_code == 0, res.output
        res = run("--config", cfg_path, "generate")
        assert res.exit_code == 2  # simulation needs the surrogate


class TestConfigFiles:
    def test_default_config_file_matches_defaults(self):
        # configs/default.json restates defaults.default_config(); dumping
        # both compares the JSON types too (10000.0 is not 10000)
        from lpvsyn import defaults
        path = Path(__file__).resolve().parents[1] / "configs" / "default.json"
        assert (json.dumps(json.loads(path.read_text()), sort_keys=True)
                == json.dumps(defaults.default_config(), sort_keys=True))


class TestPaperScale:
    def test_flag_swaps_in_full_experiment_sizes(self, tmp_path):
        from lpvsyn.cli import load_config
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        cfg = load_config(cfg_path, None, True)
        assert cfg["experiment"]["n_samples"] == 240000
        assert cfg["experiment"]["grid"]["n"] == 1000


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            cfg_path = write_config(tmp_path, tiny_config(tmp_path / sub),
                                    name=f"cfg_{sub}.json")
            assert run("--config", cfg_path, "generate").exit_code == 0
            assert run("--config", cfg_path, "synthesize").exit_code == 0
            outputs.append((
                (tmp_path / sub / "dataset.csv").read_bytes(),
                (tmp_path / sub / "synthesis_result.json").read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]


class TestErrors:
    def test_missing_config_file(self):
        res = run("--config", "/nonexistent/cfg.json", "generate")
        assert res.exit_code == 2

    def test_synthesize_without_dataset(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        res = run("--config", cfg_path, "synthesize")
        assert res.exit_code == 2

    def test_estimate_without_records(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        res = run("--config", cfg_path, "estimate")
        assert res.exit_code == 2

    def test_missing_controller_file(self, pipeline, tmp_path):
        cfg_path, _ = pipeline
        res = run("--config", cfg_path, "analyze", str(tmp_path / "nope.json"),
                  "--gamma", "2.0")
        assert res.exit_code == 2

    @pytest.mark.parametrize("command", [("simulate",), ("analyze", "--gamma", "2.0")],
                             ids=["simulate", "analyze"])
    def test_nan_basis_pole_rejected(self, pipeline, tmp_path, command):
        cfg_path, out = pipeline
        ctrl = json.loads((out / "controller.json").read_text())
        ctrl["basis_n_poles"][0] = [float("nan"), 0.0]
        bad = tmp_path / "nan_pole.json"
        bad.write_text(json.dumps(ctrl))
        res = run("--config", cfg_path, command[0], str(bad), *command[1:])
        assert res.exit_code == 2
        assert "basis poles must be finite" in res.output

    def test_controller_at_other_sample_rate_rejected(self, pipeline, tmp_path):
        # a controller runs only at the rate of the data and plant it is used with
        _, out = pipeline
        bad_out = tmp_path / "out"
        bad_out.mkdir()
        (bad_out / "dataset.csv").write_bytes((out / "dataset.csv").read_bytes())
        result = json.loads((out / "synthesis_result.json").read_text())
        assert result["controller"]["sample_rate"] == 200.0
        result["controller"]["sample_rate"] = 100.0
        (bad_out / "synthesis_result.json").write_text(json.dumps(result))
        ctrl = bad_out / "controller.json"
        ctrl.write_text(json.dumps(result["controller"]))
        cfg_path = write_config(tmp_path, tiny_config(bad_out))
        for args in (["analyze", str(ctrl), "--gamma", "2.0"], ["simulate", str(ctrl)],
                     ["report"]):
            res = run("--config", cfg_path, *args)
            assert res.exit_code == 2, args
            assert "controller sample rate 100.0 differs" in res.output

    def test_lti_spelling_rejected(self, pipeline, tmp_path):
        # "constant" is the one name of the scheduling basis without p
        _, out = pipeline
        cfg = tiny_config(out)
        cfg["synthesis"]["scheduling.kind"] = "lti"
        res = run("--config", write_config(tmp_path, cfg), "synthesize")
        assert res.exit_code == 2
        assert "unknown scheduling kind 'lti'" in res.output

    def test_malformed_weights(self, pipeline, tmp_path):
        cfg_path, out = pipeline
        cfg = tiny_config(out)
        cfg["synthesis"]["weights"] = {"S": {"num": [1.0]}}
        bad_path = write_config(tmp_path, cfg, name="bad.json")
        res = run("--config", bad_path, "synthesize")
        assert res.exit_code == 2

    def test_missing_output_parent(self, tmp_path):
        cfg = tiny_config(tmp_path / "nodir" / "deeper" / "out")
        cfg_path = write_config(tmp_path, cfg)
        res = run("--config", cfg_path, "generate")
        assert res.exit_code == 2

    def test_report_without_inputs(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        res = run("--config", cfg_path, "report")
        assert res.exit_code == 2

    def test_nonpositive_eps_rejected(self, pipeline, tmp_path):
        cfg_path, out = pipeline
        cfg = tiny_config(out)
        cfg["synthesis"]["options"]["eps"] = 0.0
        bad = write_config(tmp_path, cfg, name="eps.json")
        res = run("--config", bad, "synthesize")
        assert res.exit_code == 2

    @pytest.mark.parametrize("command, override", [
        ("synthesize", {"synthesis": {"options": None}}),
        ("generate", {"experiment": None}),
        ("generate", {"experiment": {"grid": [48]}}),
        ("report", {"plant": "surrogate"}),
    ])
    def test_non_object_section_rejected(self, tmp_path, command, override):
        cfg = {"out_dir": str(tmp_path / "out"), **override}
        res = run("--config", write_config(tmp_path, cfg), command)
        assert res.exit_code == 2
        assert "must be a JSON object" in res.output

    @pytest.mark.parametrize("command, override, message", [
        ("generate", {"seed": None}, "seed must be integer, not null"),
        ("generate", {"experiment": {"operating_points": None}},
         "experiment.operating_points must be list, not null"),
        ("generate", {"experiment": {"operating_points": ["30"]}},
         "operating_points must be list"),
        ("generate", {"experiment": {"n_samples": 4096.5}}, "must be integer"),
        ("generate", {"experiment": {"periodic": 1}}, "must be boolean, not 1"),
        ("synthesize", {"synthesis": {"options": {"eps": "1e-6"}}},
         "eps must be null or number"),
        ("synthesize", {"plant": {"kind": "dataset", "sample_rate": None}},
         "plant.sample_rate must be number, not null"),
        ("generate", {"experiment": {"controller0": 5}},
         "experiment.controller0 must be null or object, not 5"),
        # well-typed values that the record path rejects, in both commands
        ("generate", {"experiment": {"periods": 0}},
         "experiment.periods must be from 1 to n_samples, not 0"),
        ("estimate", {"experiment": {"periods": 70000}},
         "experiment.periods must be from 1 to n_samples, not 70000"),
        ("generate", {"experiment": {"periods": 2, "lead_in_periods": 2}},
         "experiment.lead_in_periods must be from 0 to periods - 1, not 2"),
        ("estimate", {"experiment": {"lead_in_periods": -1}},
         "experiment.lead_in_periods must be from 0 to periods - 1, not -1"),
        ("generate", {"experiment": {"operating_points": [30, 30, 40]}},
         "experiment.operating_points must be distinct, not [30.0, 30.0, 40.0]"),
        ("estimate", {"experiment": {"operating_points": [40.0, 30.0, 40.0]}},
         "experiment.operating_points must be distinct"),
        ("generate", {"experiment": {"operating_points": []}},
         "experiment.operating_points must not be empty"),
        ("estimate", {"experiment": {"operating_points": []}},
         "experiment.operating_points must not be empty"),
        ("generate", {"experiment": {"periodic": False, "n_samples": 0}},
         "experiment.n_samples must be positive, not 0"),
        ("estimate", {"experiment": {"periodic": False, "n_samples": 0}},
         "experiment.n_samples must be positive, not 0"),
        # unchecked, f_min_hz <= 0 ends in "math domain error", and d_std = 0
        # in exit 4 ("input record carries no excitation") after an experiment
        ("generate", {"experiment": {"grid": {"f_min_hz": 0.0}}},
         "experiment.grid.f_min_hz must lie between 0 and f_max_hz, not 0.0"),
        ("generate", {"experiment": {"grid": {"f_min_hz": -1.0}}},
         "experiment.grid.f_min_hz must"),
        ("estimate", {"experiment": {"grid": {"f_min_hz": 0.0}}},
         "experiment.grid.f_min_hz must"),
        ("generate", {"experiment": {"grid": {"f_min_hz": 90.0}}},
         "experiment.grid.f_min_hz must"),
        ("generate", {"experiment": {"grid": {"f_max_hz": 100.5}}},
         "experiment.grid.f_max_hz must lie in (0, 100] Hz"),
        ("estimate", {"experiment": {"grid": {"f_max_hz": 0.0}}},
         "experiment.grid.f_max_hz must"),
        ("generate", {"experiment": {"d_std": 0.0}},
         "experiment.d_std must be positive, not 0.0"),
        ("generate", {"experiment": {"d_std": -1.0}},
         "experiment.d_std must be positive, not -1.0"),
    ])
    def test_mistyped_leaf_rejected(self, tmp_path, command, override, message):
        cfg = {"out_dir": str(tmp_path / "out"), **override}
        res = run("--config", write_config(tmp_path, cfg), command)
        assert res.exit_code == 2
        assert message in res.output
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("setting, value, message", [
        ("duration_s", -1.0, "scenario.duration_s must be positive, not -1.0"),
        ("duration_s", 0.0, "scenario.duration_s must be positive, not 0.0"),
        ("ref_period_s", 0.0, "scenario.ref_period_s must be positive, not 0.0"),
        ("sched_period_s", 0.0, "scenario.sched_period_s must be positive, not 0.0"),
        ("cutoff_hz", 150.0, "scenario.cutoff_hz must lie between 0 and the Nyquist "
                             "frequency 100 Hz, not 150.0"),
        ("cutoff_hz", 100.0, "scenario.cutoff_hz must lie between 0"),
        ("cutoff_hz", 0.0, "scenario.cutoff_hz must lie between 0"),
        ("duration_s", 0.001, "scenario.duration_s must give at least 2 samples at "
                              "200 Hz, not 0.001"),
        ("duration_s", 0.007, "scenario.duration_s must give at least 2 samples"),
        ("amplitude", 0.0, "scenario.amplitude must be nonzero"),
    ])
    def test_scenario_out_of_range_rejected(self, pipeline, tmp_path, setting, value,
                                            message):
        # unchecked, a zero period is clamped to a 2-sample square wave, a cutoff
        # at or above Nyquist makes the reference filter unstable, a negative
        # duration fails in numpy with a message that names no setting, and a
        # duration under 2 samples or a zero amplitude fails only after every
        # simulation has run
        _, out = pipeline
        cfg = tiny_config(tmp_path / "out")
        cfg["scenario"][setting] = value
        res = run("--config", write_config(tmp_path, cfg), "simulate",
                  str(out / "controller.json"))
        assert res.exit_code == 2
        assert message in res.output
        assert not list((tmp_path / "out").glob("*"))

    def test_record_of_other_length_rejected(self, pipeline, tmp_path):
        # a record of another length would be cut at another lead-in
        _, out = pipeline
        cfg = tiny_config(out)
        cfg["experiment"]["n_samples"] = 8192
        res = run("--config", write_config(tmp_path, cfg), "estimate")
        assert res.exit_code == 2
        assert "the record of p=30 has 4096 samples, not experiment.n_samples = 8192" \
            in res.output

    def test_nan_operating_point_rejected(self, tmp_path):
        # NaN passes a "p < lo or p > hi" test; the range check names it
        cfg = tiny_config(tmp_path / "out")
        cfg["experiment"]["operating_points"] = [30.0, 40.0, float("nan")]
        res = run("--config", write_config(tmp_path, cfg), "generate")
        assert res.exit_code == 2
        assert "scheduling value outside range [30.0, 50.0]: nan" in res.output

    @pytest.mark.parametrize("override, message", [
        ({"experiment": {"n_sampels": 4096}}, "unknown config key experiment.n_sampels"),
        ({"synthesis": {"options": {"gamma_rtl": 0.1}}},
         "unknown config key synthesis.options.gamma_rtl"),
        ({"sede": 3}, "unknown config key sede"),
    ])
    def test_unknown_key_rejected(self, tmp_path, override, message):
        # a misspelled key would otherwise leave its default in force
        cfg = {"out_dir": str(tmp_path / "out"), **override}
        res = run("--config", write_config(tmp_path, cfg), "generate")
        assert res.exit_code == 2
        assert message in res.output
