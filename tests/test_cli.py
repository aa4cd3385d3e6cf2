import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

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
        # the LP count depends on the search path, not on gamma and theta
        _, out = pipeline
        telemetry = json.loads((out / "synthesis_result.json").read_text())["telemetry"]
        assert "lp_solves" not in telemetry and "wall_time_s" not in telemetry

    def test_estimate_reproduces_dataset(self, pipeline):
        cfg_path, out = pipeline
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

    def test_lti_mode_flag(self, pipeline, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("lti")
        cfg = tiny_config(tmp_path / "out")
        cfg["synthesis"]["scheduling.kind"] = "constant"
        cfg_path = write_config(tmp_path, cfg)
        assert run("--config", cfg_path, "generate").exit_code == 0
        assert run("--config", cfg_path, "synthesize").exit_code == 0
        ctrl = json.loads((tmp_path / "out" / "controller.json").read_text())
        assert ctrl["scheduling"]["m"] == 1


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
    ])
    def test_mistyped_leaf_rejected(self, tmp_path, command, override, message):
        cfg = {"out_dir": str(tmp_path / "out"), **override}
        res = run("--config", write_config(tmp_path, cfg), command)
        assert res.exit_code == 2
        assert message in res.output

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
