import csv
import json
from dataclasses import asdict, fields, is_dataclass

import pytest

from pathent.config import (
    ConfigError,
    ExperimentConfig,
    Numerics,
    load_counts_file,
    load_experiment_config,
    load_settings_file,
    parse_experiment_config,
)

from conftest import FIXTURES


def valid_config_dict() -> dict:
    return {
        "source": {
            "pair_probability": 1e-4,
            "signal_transmission_a": 0.9,
            "signal_transmission_b": 0.8,
            "idler_transmission_a": 0.5,
            "idler_transmission_b": 0.5,
            "false_herald_probability": 0.0,
        },
        "phases_rad": {name: 0.0 for name in (
            "phi_a", "phi_b", "zeta_a", "zeta_b", "chi_a", "chi_b",
            "xi_a_long", "xi_a_short", "xi_b_long", "xi_b_short",
        )},
        "displacement": {
            "alpha1_mean": 0.83, "alpha1_min": 0.82, "alpha1_max": 0.84,
            "alpha2_mean": 0.83, "alpha2_min": 0.82, "alpha2_max": 0.84,
        },
        "detectors": {"efficiency_a": 0.6, "efficiency_b": 0.6},
        "pump_rep_rate_hz": 76e6,
        "duty_fraction": 1.0,
        "durations_s": {"alpha_basis": 3600.0, "z_basis": 9000.0, "multiphoton": 3600.0},
    }


def test_load_fixture_config(fixtures_dir):
    config = load_experiment_config(fixtures_dir / "ideal_link.json")
    assert config.source.pair_probability == 1e-6
    assert config.numerics.truncation_n_max == 10
    assert config.displacement.alpha1_mean == 0.83
    assert config.monte_carlo.enabled is False


def test_parse_defaults_for_numerics_only():
    config = parse_experiment_config(valid_config_dict())
    assert config.numerics.truncation_n_max == 10
    assert config.numerics.herald_truncation_n_max == 3
    assert config.monte_carlo.seed == 0


def test_overrides():
    config = parse_experiment_config(valid_config_dict(), truncation_override=12, seed_override=99)
    assert config.numerics.truncation_n_max == 12
    assert config.monte_carlo.seed == 99


def test_missing_physics_field_rejected():
    raw = valid_config_dict()
    del raw["source"]["false_herald_probability"]
    with pytest.raises(ConfigError):
        parse_experiment_config(raw)
    raw = valid_config_dict()
    del raw["phases_rad"]["xi_b_short"]
    with pytest.raises(ConfigError):
        parse_experiment_config(raw)


def test_out_of_range_values_rejected():
    raw = valid_config_dict()
    raw["source"]["pair_probability"] = 0.7
    with pytest.raises(ConfigError):
        parse_experiment_config(raw)
    raw = valid_config_dict()
    raw["duty_fraction"] = 1.5
    with pytest.raises(ConfigError):
        parse_experiment_config(raw)


def test_phase_overflow_checked_at_the_final_truncation():
    raw = valid_config_dict()
    raw["phases_rad"]["xi_b_long"] = 1e307
    assert parse_experiment_config(raw).phases_rad.xi_b_long == 1e307
    with pytest.raises(ConfigError, match=r"phases_rad\.xi_b_long"):
        parse_experiment_config(raw, truncation_override=20)


def test_truncations_capped_before_anything_is_built():
    # parsing allocates nothing at the truncations, so a huge one is rejected without allocating
    raw = {**valid_config_dict(), "numerics": {"truncation_n_max": 1447, "herald_truncation_n_max": 15}}
    assert parse_experiment_config(raw).numerics == Numerics(1447, 15)
    with pytest.raises(ConfigError, match=r"^numerics\.truncation_n_max = 1000000 exceeds the cap of 1447$"):
        parse_experiment_config(raw, truncation_override=1_000_000)
    raw["numerics"]["herald_truncation_n_max"] = 16
    with pytest.raises(ConfigError, match=r"^numerics\.herald_truncation_n_max = 16 exceeds the cap of 15$"):
        parse_experiment_config(raw)


def test_unreadable_or_malformed_file(tmp_path):
    with pytest.raises(ConfigError):
        load_experiment_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_experiment_config(bad)


def test_config_echo_round_trip():
    config = parse_experiment_config(valid_config_dict())
    echo = asdict(config)
    assert echo["source"]["pair_probability"] == 1e-4
    assert json.dumps(echo)  # serializable


def test_load_counts_fixture(fixtures_dir):
    counts = load_counts_file(fixtures_dir / "published_1p0km.counts.csv")
    assert counts.alpha.counts.n_total == 5_760_000
    # n_none pins the joint no-click probability to the published value
    assert abs(counts.alpha.estimates[0].value - 0.2575) < 1e-12
    assert abs(counts.z.estimates[3].value - 85 / 14_400_000) < 1e-18
    assert counts.pstar1 is not None
    assert abs(counts.pstar1.value - 3.2e-6) < 1e-12


def test_counts_without_n_none_uses_complement(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "basis,n_total,n_a,n_b,n_d\n"
        "alpha,1000,100,200,50\n"
        "z,1000,10,20,1\n"
    )
    counts = load_counts_file(path)
    assert abs(counts.alpha.estimates[0].value - 0.65) < 1e-12
    assert counts.pstar1 is None


def test_counts_missing_basis(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("basis,n_total,n_a,n_b,n_d\nalpha,1000,1,2,3\n")
    with pytest.raises(ConfigError):
        load_counts_file(path)


def test_counts_duplicate_basis(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "basis,n_total,n_a,n_b,n_d\nalpha,1000,1,2,3\nalpha,1000,1,2,3\nz,1000,1,2,3\n"
    )
    with pytest.raises(ConfigError):
        load_counts_file(path)


def test_counts_bad_header(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("basis,n,a,b,d\nalpha,1000,1,2,3\n")
    with pytest.raises(ConfigError):
        load_counts_file(path)


def test_load_settings_csv(fixtures_dir):
    settings = load_settings_file(fixtures_dir / "published_1p0km.settings.csv")
    assert settings.alpha1_mean == 0.819
    assert settings.alpha2_max == 0.843
    assert settings.p1_star == 3.2e-6


def test_load_settings_json(tmp_path):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps({
        "alpha1_min": 0.8, "alpha1_mean": 0.81, "alpha1_max": 0.82,
        "alpha2_min": 0.8, "alpha2_mean": 0.81, "alpha2_max": 0.82,
    }))
    settings = load_settings_file(path)
    assert settings.alpha1_mean == 0.81
    assert settings.p1_star is None


def test_settings_missing_column(tmp_path):
    path = tmp_path / "settings.csv"
    path.write_text("alpha1_min,alpha1_mean\n0.8,0.81\n")
    with pytest.raises(ConfigError):
        load_settings_file(path)


def test_echo_parses_back_to_the_same_config():
    raw = valid_config_dict()
    raw["source"]["pair_probability_b"] = 2e-4
    raw["monte_carlo"] = {"enabled": True, "seed": 5, "n_alpha": 1000}
    raw["output"] = {"report_path": "report.json"}
    config = parse_experiment_config(raw)
    assert parse_experiment_config(asdict(config)) == config


def _leaves(node, path=()):
    """(key path, value) of every non-object value in a JSON-like tree."""
    if not isinstance(node, dict):
        yield path, node
        return
    for key, value in node.items():
        yield from _leaves(value, (*path, key))


def _default(cls, path):
    """The dataclass default at a key path of cls's field tree."""
    f = next(f for f in fields(cls) if f.name == path[0])
    return _default(f.type, path[1:]) if is_dataclass(f.type) else f.default


def _every_section_filled() -> dict:
    raw = valid_config_dict()
    raw["source"]["pair_probability_b"] = 2e-4
    raw["monte_carlo"] = {"enabled": True, "seed": 5, "n_alpha": 1000, "n_z": 2000, "n_multiphoton": 3000}
    raw["numerics"] = {"truncation_n_max": 12, "herald_truncation_n_max": 4}
    raw["output"] = {"report_path": "report.json"}
    return raw


@pytest.mark.parametrize("raw", [
    pytest.param(json.loads((FIXTURES / "ideal_link.json").read_text()), id="ideal_link"),
    pytest.param(json.loads((FIXTURES / "lossy_link.json").read_text()), id="lossy_link"),
    pytest.param(_every_section_filled(), id="every-section-filled"),
])
def test_parsed_config_is_the_file(raw):
    # the dataclass tree is the file layout: each key path of the file holds its value there,
    # and every other leaf is the default of its field
    given, parsed = dict(_leaves(raw)), dict(_leaves(asdict(parse_experiment_config(raw))))
    for path, value in given.items():
        assert parsed[path] == value, path
    for path in parsed.keys() - given.keys():
        assert parsed[path] == _default(ExperimentConfig, path), path


@pytest.mark.parametrize("stem", ["published_1p0km", "published_42m_set1", "published_42m_set2"])
def test_parsed_settings_are_the_file(stem):
    path = FIXTURES / f"{stem}.settings.csv"
    with open(path, newline="") as handle:
        row = {key: float(text) for key, text in next(csv.DictReader(handle)).items()}
    assert asdict(load_settings_file(path)) == row


def test_integral_numbers_and_nulls_accepted():
    raw = valid_config_dict()
    raw["source"]["pair_probability_b"] = None
    raw["monte_carlo"] = {"seed": 7.0, "n_z": None}
    raw["pump_rep_rate_hz"] = 76_000_000
    config = parse_experiment_config(raw)
    assert config.monte_carlo.seed == 7 and isinstance(config.monte_carlo.seed, int)
    assert config.source.pair_probability_b is None
    assert config.pump_rep_rate_hz == 76e6 and isinstance(config.pump_rep_rate_hz, float)


def test_settings_json_values_must_be_numbers(tmp_path):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps({
        "alpha1_min": 0.8, "alpha1_mean": "0.81", "alpha1_max": 0.82,
        "alpha2_min": 0.8, "alpha2_mean": 0.81, "alpha2_max": 0.82,
    }))
    with pytest.raises(ConfigError, match="alpha1_mean"):
        load_settings_file(path)
