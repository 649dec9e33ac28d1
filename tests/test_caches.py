"""The loss binomials depend only on a truncation and are built once per process: what that cache holds and keeps apart."""

import json
from dataclasses import replace

import numpy as np
import pytest

from pathent import cli, herald, measurement, pipeline
from pathent import fockcore as fc
from pathent.config import Detectors, load_experiment_config
from pathent.herald import simulate_heralded_state

from conftest import FIXTURES
from reference import loss_kraus_sum
from test_config import valid_config_dict

def _lossy_config():
    cfg = load_experiment_config(FIXTURES / "lossy_link.json")
    return replace(cfg, detectors=Detectors(0.6, 0.85))


@pytest.mark.parametrize("n_max", [3, 10])
def test_cached_arrays_are_read_only(n_max):
    for array in fc._loss_binomials(n_max + 1):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def test_mutating_returned_arrays_leaves_the_next_op_unchanged():
    cfg = _lossy_config()
    before = (pipeline.sweep_phase(cfg, -np.pi, np.pi, 5), pipeline.sweep_alpha(cfg, 0.2, 1.0, 3))
    d = cfg.numerics.herald_truncation_n_max + 1
    measurement.click_povm(np.array([0.0, 0.4, 0.7j]), d)[...] = np.nan
    herald._loss_superoperator(0.6, d)[...] = np.nan
    rho, _ = simulate_heralded_state(cfg.source, (0.6, 0.85), d)
    lossy = fc.DensityOperator(loss_kraus_sum(rho, 0, 0.6), rho.mode_dims)
    rho.matrix[...] = np.nan
    lossy.matrix[...] = np.nan
    after = (pipeline.sweep_phase(cfg, -np.pi, np.pi, 5), pipeline.sweep_alpha(cfg, 0.2, 1.0, 3))
    assert after == before


# (config changes, herald n_max, --truncation): three configs share both truncations
# and differ in detector and source transmissions, amplitudes and phases
CACHE_CASES = (
    ({}, 3, 10),
    ({"detectors": {"efficiency_a": 0.9, "efficiency_b": 0.3},
      "displacement": {f"alpha{side}_{part}": value for side in (1, 2)
                       for part, value in (("mean", 0.5), ("min", 0.45), ("max", 0.55))},
      "phases_rad": {"chi_a": 0.4, "xi_b_short": -1.1}}, 3, 10),
    ({"detectors": {"efficiency_a": 1.0, "efficiency_b": 0.75},
      "source": {"pair_probability": 3e-3, "signal_transmission_a": 0.35, "idler_transmission_b": 0.2},
      "phases_rad": {"phi_a": 2.0, "zeta_b": 0.3}}, 3, 10),
    ({}, 3, 8),
    ({"numerics": {"herald_truncation_n_max": 4}}, 4, 10),
)


def test_caches_hold_one_entry_per_truncation(tmp_path, capsys):
    # keyed by the herald truncation, where every loss acts
    fc._loss_binomials.cache_clear()
    herald_truncations = set()
    for k, (changes, herald_n_max, n_max) in enumerate(CACHE_CASES):
        raw = valid_config_dict()
        for section, values in changes.items():
            raw[section] = {**raw.get(section, {}), **values}
        path = tmp_path / f"config-{k}.json"
        path.write_text(json.dumps(raw))
        for command in (["run"], ["sweep-phase", "--steps", "5"], ["sweep-alpha", "--steps", "3"]):
            assert cli.main([*command, "--config", str(path), "--truncation", str(n_max)]) == 0
        herald_truncations.add(herald_n_max)
        info = fc._loss_binomials.cache_info()
        assert (info.currsize, info.misses) == (len(herald_truncations),) * 2
    capsys.readouterr()

