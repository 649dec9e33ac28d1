import json

import jsonschema
import numpy as np
import pytest

from pathent import pipeline
from pathent.cli import main
from pathent.config import parse_experiment_config

from conftest import FIXTURES
from test_config import valid_config_dict


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = valid_config_dict()
    for path, value in (overrides or {}).items():
        node = raw
        *parents, leaf = path.split(".")
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    target = tmp_path / name
    target.write_text(json.dumps(raw))
    return target


def test_run_ideal_link_robustness_relation(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--config", str(fixtures_dir / "ideal_link.json"), "--out", str(out)])
    assert code == 0
    assert "verdict = entangled" in capsys.readouterr().out
    report = json.loads(out.read_text())
    wit = report["witness"]
    assert wit["entangled"] is True
    # lossless link: violation of the qubit bound is 8 a^2 e^{-2a^2} / 2
    alpha = 0.83
    expected = 8.0 * alpha**2 * np.exp(-2.0 * alpha**2) / 2.0
    assert abs((wit["w_exp"] - wit["w_ppt"]) - expected) < 1e-4


def test_run_report_validates_against_schema(fixtures_dir, tmp_path, schema_path):
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(fixtures_dir / "ideal_link.json"), "--out", str(out)]) == 0
    schema = json.loads(schema_path.read_text())
    jsonschema.validate(json.loads(out.read_text()), schema)


def test_certify_report_validates_against_schema(fixtures_dir, tmp_path, schema_path):
    out = tmp_path / "report.json"
    code = main([
        "certify",
        "--counts", str(fixtures_dir / "published_1p0km.counts.csv"),
        "--settings", str(fixtures_dir / "published_1p0km.settings.csv"),
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, json.loads(schema_path.read_text()))
    assert report["mode"] == "analysis"
    assert report["heralding"] is None


def test_run_deterministic_reports(tmp_path):
    config = write_config(tmp_path, {"monte_carlo": {"enabled": True, "seed": 7}})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2)]) == 0
    doc1 = json.loads(out1.read_text())
    doc2 = json.loads(out2.read_text())
    doc1.pop("timing")
    doc2.pop("timing")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_run_seed_changes_sampled_counts(tmp_path):
    config = write_config(tmp_path, {"monte_carlo": {"enabled": True, "seed": 7}})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--seed", "8", "--out", str(out2)]) == 0
    c1 = json.loads(out1.read_text())["counts"]["alpha_basis"]
    c2 = json.loads(out2.read_text())["counts"]["alpha_basis"]
    assert c1 != c2


def test_exit_code_config_error(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 2
    broken = write_config(tmp_path, {"duty_fraction": 2.0})
    assert main(["run", "--config", str(broken)]) == 2


def test_exit_code_numerical_error(tmp_path):
    dead = write_config(tmp_path, {"source": {
        "pair_probability": 0.0,
        "signal_transmission_a": 1.0, "signal_transmission_b": 1.0,
        "idler_transmission_a": 1.0, "idler_transmission_b": 1.0,
        "false_herald_probability": 0.0,
    }})
    assert main(["run", "--config", str(dead)]) == 3


def test_exit_code_pstar_domain(tmp_path, fixtures_dir):
    counts = tmp_path / "counts.csv"
    counts.write_text(
        "basis,n_total,n_a,n_b,n_d\n"
        "alpha,1000,250,250,250\n"
        "z,1000,10,10,1\n"
        "pstar1,1000,0,0,400\n"
        "pstar2,1000,0,0,300\n"
    )
    code = main(["certify", "--counts", str(counts), "--settings", str(fixtures_dir / "published_1p0km.settings.csv")])
    assert code == 4


def test_exit_code_pstar_domain_at_exactly_one_half(tmp_path, fixtures_dir):
    counts = tmp_path / "counts.csv"
    counts.write_text(
        "basis,n_total,n_a,n_b,n_d\n"
        "alpha,1000,250,250,250\n"
        "z,1000,10,10,1\n"
        "pstar1,1000,0,0,250\n"
        "pstar2,1000,0,0,250\n"
    )
    code = main(["certify", "--counts", str(counts), "--settings", str(fixtures_dir / "published_1p0km.settings.csv")])
    assert code == 4


def test_certify_counts_missing_basis_exit_2(tmp_path, fixtures_dir):
    counts = tmp_path / "counts.csv"
    counts.write_text("basis,n_total,n_a,n_b,n_d\nalpha,1000,250,250,250\n")
    code = main(["certify", "--counts", str(counts), "--settings", str(fixtures_dir / "published_1p0km.settings.csv")])
    assert code == 2


def test_certify_zero_pstar_collapses_bounds(tmp_path, fixtures_dir):
    # with p* = 0 the dimension-free bound equals the fluctuation bound
    counts = tmp_path / "counts.csv"
    counts.write_text(
        "basis,n_total,n_a,n_b,n_d\n"
        "alpha,100000,25000,25000,25000\n"
        "z,100000,1000,1000,10\n"
        "pstar1,100000,0,0,0\n"
        "pstar2,100000,0,0,0\n"
    )
    out = tmp_path / "report.json"
    code = main([
        "certify", "--counts", str(counts),
        "--settings", str(fixtures_dir / "published_1p0km.settings.csv"),
        "--out", str(out),
    ])
    assert code == 0
    wit = json.loads(out.read_text())["witness"]
    assert wit["w_tilde_ppt"] == wit["w_ppt_max"]


def test_certify_all_quiet_not_entangled(tmp_path):
    # never-clicking detectors at zero displacement saturate but cannot
    # beat the separable bound
    counts = tmp_path / "counts.csv"
    counts.write_text(
        "basis,n_total,n_a,n_b,n_d\n"
        "alpha,100000,0,0,0\n"
        "z,100000,0,0,0\n"
        "pstar1,100000,0,0,0\n"
        "pstar2,100000,0,0,0\n"
    )
    settings = tmp_path / "settings.csv"
    settings.write_text(
        "alpha1_min,alpha1_mean,alpha1_max,alpha2_min,alpha2_mean,alpha2_max,p1_star,p2_star\n"
        "0,0,0,0,0,0,,\n"
    )
    out = tmp_path / "report.json"
    assert main([
        "certify", "--counts", str(counts), "--settings", str(settings), "--out", str(out),
    ]) == 0
    wit = json.loads(out.read_text())["witness"]
    assert wit["entangled"] is False
    assert wit["w_exp"] == 1.0 and wit["w_ppt_max"] == 1.0
    assert wit["k"] == 0.0


def test_sweep_phase_csv_output(fixtures_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep-phase", "--config", str(fixtures_dir / "ideal_link.json"),
        "--phase-min", "-3.141592653589793", "--phase-max", "3.141592653589793",
        "--steps", "5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta_theta_rad,w_exp,w_ppt_max"
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    bounds = {row[2] for row in rows}
    assert len(bounds) == 1  # the bound is phase independent
    w_mid = float(rows[2][1])  # delta theta = 0
    w_edge = float(rows[0][1])
    assert w_mid > 0 > w_edge


def test_sweep_phase_json_output(fixtures_dir, tmp_path):
    out = tmp_path / "sweep.json"
    code = main([
        "sweep-phase", "--config", str(fixtures_dir / "ideal_link.json"),
        "--steps", "3", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3
    assert set(rows[0]) == {"delta_theta_rad", "w_exp", "w_ppt_max"}


def test_sweep_phase_rejects_single_step(fixtures_dir):
    assert main(["sweep-phase", "--config", str(fixtures_dir / "ideal_link.json"), "--steps", "1"]) == 2


def test_sweep_alpha_output_and_optima(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main([
        "sweep-alpha", "--config", str(fixtures_dir / "lossy_link.json"),
        "--alpha-min", "0.6", "--alpha-max", "1.0", "--steps", "3",
        "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "optimum robust" in stdout
    assert "optimum max_violation" in stdout
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha1,alpha2,violation"
    assert len(lines) == 10


def test_sweep_alpha_ideal_argmax_near_inverse_sqrt2(fixtures_dir):
    result = pipeline.sweep_alpha(str(fixtures_dir / "ideal_link.json"), 0.5, 0.9, 9)
    best = max(result["rows"], key=lambda row: row["violation"])
    assert abs(best["alpha1"] - 0.7071) <= 0.05
    assert abs(best["alpha2"] - 0.7071) <= 0.05
    opt = result["optima"]["max_violation"]
    assert abs(opt["alpha1"] - 0.7071) <= 0.005


def test_sweep_alpha_robust_optimum_on_lossy_link(fixtures_dir):
    result = pipeline.sweep_alpha(str(fixtures_dir / "lossy_link.json"), 0.7, 0.9, 2)
    robust = result["optima"]["robust"]
    assert abs(robust["alpha1"] - 0.83) <= 0.01
    assert robust["alpha1"] == robust["alpha2"]


def test_sweep_alpha_zero_amplitude_rejected(fixtures_dir):
    assert main([
        "sweep-alpha", "--config", str(fixtures_dir / "ideal_link.json"),
        "--alpha-min", "0.0", "--alpha-max", "1.0", "--steps", "3",
    ]) == 2


def test_simulation_and_sampled_analysis_agree(tmp_path):
    # N >= 1e7 samples reproduce the direct-probability report within 3 sigma
    raw = valid_config_dict()
    raw["monte_carlo"] = {"enabled": False, "seed": 0}
    direct = pipeline.run_experiment(parse_experiment_config(raw))
    raw["monte_carlo"] = {"enabled": True, "seed": 123}
    sampled = pipeline.run_experiment(parse_experiment_config(raw))
    assert sampled["counts"]["alpha_basis"]["n_total"] >= 1e7
    for key in ("w_exp", "w_ppt_max"):
        gap = abs(direct["witness"][key] - sampled["witness"][key])
        budget = 3.0 * (
            direct["witness"]["sigma_exp" if key == "w_exp" else "sigma_ppt_max"]
            + sampled["witness"]["sigma_exp" if key == "w_exp" else "sigma_ppt_max"]
        )
        assert gap <= budget


def test_float_formatting_nine_significant_digits():
    assert pipeline.format_float(np.pi) == "3.14159265"
    assert pipeline.format_float(0.0253) == "0.0253"
    text = pipeline.report_to_json({"value": 1.0 / 3.0})
    assert json.loads(text)["value"] == 0.333333333



COUNTS = "basis,n_total,n_a,n_b,n_d,n_none\nalpha,1000,250,250,250,\nz,1000,10,10,1,\n"
SETTINGS = "alpha1_min,alpha1_mean,alpha1_max,alpha2_min,alpha2_mean,alpha2_max,p1_star,p2_star\n"
UNWRITABLE = str(FIXTURES / "ideal_link.json" / "report.json")  # below a regular file
NAN, INF = float("nan"), float("inf")

MALFORMED_INPUTS = [
    pytest.param("run", {"monte_carlo": []}, [], id="monte_carlo is a list"),
    pytest.param("run", {"numerics": "fine"}, [], id="numerics is a string"),
    pytest.param("run", {"output": 3}, [], id="output is a number"),
    pytest.param("run", {"output.report_path": 1}, [], id="integer report_path"),
    pytest.param("run", {"output.report_path": UNWRITABLE}, [], id="unwritable report_path"),
    pytest.param("run", {}, ["--out", UNWRITABLE], id="unwritable --out"),
    pytest.param("run", {"pump_rep_rate_hz": NAN}, [], id="NaN pump_rep_rate_hz"),
    pytest.param("run", {"durations_s.z_basis": INF}, [], id="infinite duration"),
    pytest.param("run", {"monte_carlo": {"enabled": True, "seed": -1}}, [], id="negative seed"),
    pytest.param("run", {"monte_carlo": {"enabled": True}}, ["--seed", "-3"], id="negative --seed"),
    pytest.param("run", {"numerics.truncation_n_max": 2}, [], id="truncation below herald truncation"),
    pytest.param("run", {}, ["--truncation", "2"], id="--truncation below herald truncation"),
    pytest.param("run", {"monte_carlo": {"enabled": "false"}}, [], id="enabled is a string"),
    pytest.param("run", {"monte_carlo.seed": 1.7}, [], id="fractional seed"),
    pytest.param("run", {"numerics.truncation_n_max": 10.9}, [], id="fractional truncation"),
    pytest.param("run", {"duty_fraction": True}, [], id="true as a number"),
    pytest.param("run", {"source.pair_probability": "1e-4"}, [], id="number as a string"),
    pytest.param("run", {"monte_carlo.enabled": 1}, [], id="number as a flag"),
    pytest.param("sweep-phase", {}, ["--phase-min", "nan"], id="NaN --phase-min"),
    pytest.param("sweep-phase", {}, ["--phase-max", "inf"], id="infinite --phase-max"),
    pytest.param("sweep-phase", {}, ["--phase-min=-1e308", "--phase-max", "1e308", "--steps", "3"],
                 id="overflowing phase span"),
    pytest.param("sweep-phase", {"phases_rad.chi_b": 1e308}, ["--phase-min=-1e308", "--phase-max", "0"],
                 id="overflowing phase offset"),
    pytest.param("certify", {"counts": "basis,n_total,n_a,n_b,n_d\nalpha,1000,1,2\nz,1000,1,2,3\n"}, [],
                 id="counts row missing trailing fields"),
    pytest.param("certify", {"counts": COUNTS.replace("alpha,1000,250,250,250", "alpha,0,0,0,0")}, [],
                 id="zero n_total"),
    pytest.param("certify", {"counts": COUNTS + "pstar1,0,0,0,0,\npstar2,1000,0,0,3,\n"}, [],
                 id="zero n_total on a pstar row"),
    pytest.param("certify", {"counts": COUNTS.replace("250,\n", "250,-5\n")}, [], id="negative n_none"),
    pytest.param("certify", {"counts": COUNTS.replace("250,\n", "250,900\n")}, [], id="overfull n_none"),
    pytest.param("certify", {"settings": SETTINGS + "0.8,0.81,0.82,0.8,0.81,0.82,nan,0.01\n"}, [], id="NaN p1_star"),
    pytest.param("certify", {"settings": SETTINGS + "0.8,0.81,0.82,0.8,0.81,0.82,-0.01,0.01\n"}, [],
                 id="negative p1_star"),
    pytest.param("certify", {"settings": SETTINGS + "0.8,0.81,0.82,0.8,0.81,0.82,0.01,1.5\n"}, [],
                 id="p2_star above 1"),
]


def certify_argv(tmp_path, counts=COUNTS, settings=SETTINGS + "0.8,0.81,0.82,0.8,0.81,0.82,0.01,0.01\n"):
    counts_path, settings_path = tmp_path / "counts.csv", tmp_path / "settings.csv"
    counts_path.write_text(counts)
    settings_path.write_text(settings)
    return ["certify", "--counts", str(counts_path), "--settings", str(settings_path)]


@pytest.mark.parametrize("command, inputs, extra", MALFORMED_INPUTS)
def test_malformed_input_exits_2_with_one_line(command, inputs, extra, tmp_path, capsys):
    if command == "certify":
        argv = certify_argv(tmp_path, **inputs)
    else:
        argv = [command, "--config", str(write_config(tmp_path, inputs))]
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_certify_with_valid_sidecar_pstar(tmp_path):
    assert main(certify_argv(tmp_path)) == 0


def test_sidecar_pstar_sum_of_one_half_exits_4(tmp_path):
    assert main(certify_argv(tmp_path, settings=SETTINGS + "0.8,0.81,0.82,0.8,0.81,0.82,0.25,0.25\n")) == 4
