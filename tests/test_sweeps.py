"""Sweeps: the phase-covariance identity they rely on, per-point oracles, and CLI goldens."""

import math
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathent import fockcore as fc
from pathent import herald, measurement, pipeline, witness
from pathent.cli import main
from pathent.config import Detectors, load_experiment_config
from pathent.herald import PhaseConfig, SourceParams, simulate_heralded_state
from pathent.measurement import JointClickProbabilities, click_probability_grid

from conftest import FIXTURES
from reference import (
    displacement_phases,
    lossy_click_probabilities,
    point_setting,
    rotate_signals,
    rows_to_csv_per_cell,
    signal_phases,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
D4 = 4  # levels per mode at n_max 3
PHASES = PhaseConfig(
    phi_a=0.3, phi_b=-0.8, zeta_a=0.1, zeta_b=0.55, chi_a=1.2, chi_b=-0.4,
    xi_a_long=0.7, xi_a_short=0.2, xi_b_long=-0.3, xi_b_short=0.9,
)

angle = st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False)
transmission = st.floats(0.05, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    pair_a=st.floats(1e-4, 0.2),
    pair_b=st.none() | st.floats(1e-4, 0.2),
    signal_a=transmission,
    signal_b=transmission,
    idler_a=transmission,
    idler_b=transmission,
    false_herald=st.floats(0.0, 0.5),
    phases=st.lists(angle, min_size=10, max_size=10),
    delta=angle,
)
def test_chi_b_offset_is_phase_rotation_of_bob(
    pair_a, pair_b, signal_a, signal_b, idler_a, idler_b, false_herald, phases, delta
):
    # the reference state carries chi_B + delta and is measured at the displacement fields' phases;
    # sweep-phase measures the phase-free herald with Bob's base amplitude times e^{-i delta}
    src = SourceParams(pair_a, signal_a, signal_b, idler_a, idler_b, false_herald, pair_b)
    base = PhaseConfig(*phases)
    shifted = replace(base, chi_b=base.chi_b + delta)
    rho, _ = simulate_heralded_state(src, (1.0, 1.0), D4)
    phased = fc.DensityOperator(rotate_signals(rho.matrix, signal_phases(shifted)), rho.mode_dims)
    amplitudes = np.array([0.0, 0.83, 1.7])
    expected = click_probability_grid(phased, *(amplitudes * np.exp(1j * t) for t in displacement_phases(shifted)))
    delta_a, delta_b = base.deltas
    got = click_probability_grid(rho, amplitudes * np.exp(-1j * delta_a),
                                 amplitudes * np.exp(-1j * delta_b) * np.exp(-1j * delta))
    assert np.max(np.abs(got - expected)) <= 1e-12


def _config(fixture: str, variant: str):
    """A fixture as shipped, or with nonzero phases and either Monte Carlo sampling or lossy detectors."""
    config = load_experiment_config(FIXTURES / f"{fixture}.json")
    if variant == "phased-sampled":
        config = replace(config, phases_rad=PHASES, monte_carlo=replace(config.monte_carlo, enabled=True, seed=7))
    if variant == "phased-lossy":
        config = replace(config, phases_rad=PHASES, detectors=Detectors(0.6, 0.85))
    return config


CONFIGS = pytest.mark.parametrize(
    "fixture, variant",
    [(f, v) for f in ("ideal_link", "lossy_link") for v in ("as-shipped", "phased-sampled", "phased-lossy")],
)


def phased_state(config, phases: PhaseConfig) -> np.ndarray:
    """The heralded state before detector loss with every phase on it, as the reference builds it."""
    rho, _ = simulate_heralded_state(config.source, (1.0, 1.0), config.numerics.herald_truncation_n_max + 1)
    return rotate_signals(rho.matrix, signal_phases(phases))


def reference_probabilities(rho: np.ndarray, amplitudes, phases: PhaseConfig, config) -> JointClickProbabilities:
    """Click probabilities of a phased state at the set amplitudes and the displacement fields' phases, with
    the config's lossy detectors, in the Heisenberg picture."""
    t1, t2 = (a * np.exp(1j * theta) for a, theta in zip(amplitudes, displacement_phases(phases)))
    etas = (config.detectors.efficiency_a, config.detectors.efficiency_b)
    d = config.numerics.herald_truncation_n_max + 1
    return JointClickProbabilities(*lossy_click_probabilities(rho, [t1], [t2], *etas, d)[0, 0])


@CONFIGS
def test_sweep_phase_matches_per_point_resimulation(fixture, variant):
    config = _config(fixture, variant)
    phase_min, phase_max, steps = -2.5, 1.75, 4
    rows = pipeline.sweep_phase(config, phase_min, phase_max, steps)
    bound = pipeline.run_experiment(config)["witness"]["w_ppt_max"]
    offsets = np.linspace(phase_min, phase_max, steps) - config.phases_rad.measured_relative_phase
    assert len(rows) == steps
    for row, offset in zip(rows, offsets):
        phases = replace(config.phases_rad, chi_b=config.phases_rad.chi_b + offset)
        means = (config.displacement.alpha1_mean, config.displacement.alpha2_mean)
        jp = reference_probabilities(phased_state(config, phases), means, phases, config)
        assert row["delta_theta_rad"] == phases.measured_relative_phase
        assert abs(row["w_exp"] - witness.w_exp(jp)) <= 1e-12
        assert row["w_ppt_max"] == bound


@CONFIGS
def test_sweep_alpha_matches_per_point_box_bounds(fixture, variant):
    config = _config(fixture, variant)
    alpha_min, alpha_max, steps = 0.3, 1.4, 4
    result = pipeline.sweep_alpha(config, alpha_min, alpha_max, steps)
    report = pipeline.run_experiment(config)
    z = report["probabilities"]["z_basis"]
    jp_z = JointClickProbabilities(z["p_nc_nc"], z["p_nc_c"], z["p_c_nc"], z["p_c_c"])
    mb = witness.MultiphotonBounds(report["multiphoton"]["p1_star"], report["multiphoton"]["p2_star"])
    rho = phased_state(config, config.phases_rad)
    grid = np.linspace(alpha_min, alpha_max, steps)
    scales = (np.sqrt(config.detectors.efficiency_a), np.sqrt(config.detectors.efficiency_b))
    expected = []
    for a1 in grid:
        for a2 in grid:
            jp = reference_probabilities(rho, (a1, a2), config.phases_rad, config)
            # the bound at the amplitudes the detectors see
            i1, i2 = point_setting(a1 * scales[0]), point_setting(a2 * scales[1])
            w_tilde, _ = witness.w_ppt_fluctuation_bound(i1, i2, jp_z, mb)
            bound = witness.w_ppt_max(w_tilde, mb, witness.beta_bound(i1, i2))
            expected.append((a1, a2, witness.w_exp(jp) - bound))
    assert len(result["rows"]) == len(expected)
    for row, (a1, a2, violation) in zip(result["rows"], expected):
        assert (row["alpha1"], row["alpha2"]) == (a1, a2)
        assert abs(row["violation"] - violation) <= 1e-12


@pytest.mark.parametrize("fixture", ["ideal_link", "lossy_link"])
def test_csv_table_equals_per_cell_formatting(fixture):
    config = load_experiment_config(FIXTURES / f"{fixture}.json")
    edges = [0.0, -0.0, 5e-324, -1e-300, 1.0 / 3.0, 123456789.5, 2.0**53 + 2.0, 1e300, math.inf, -math.inf, math.nan]
    tables = (
        pipeline.sweep_alpha(config, 0.1, 1.2, 12)["rows"],
        pipeline.sweep_phase(config, -np.pi, np.pi, 25),
        [{"alpha1": x, "alpha2": -x, "violation": x * 1e-7} for x in edges],
    )
    for rows in tables:
        assert pipeline.rows_to_csv(rows) == rows_to_csv_per_cell(rows)


def test_sweep_phase_simulates_the_heralded_state_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return simulate_heralded_state(*args)

    monkeypatch.setattr(pipeline, "simulate_heralded_state", counting)
    rows = pipeline.sweep_phase(load_experiment_config(FIXTURES / "ideal_link.json"), -np.pi, np.pi, 9)
    assert len(rows) == 9
    assert len(calls) == 1


@pytest.mark.parametrize("sweep, span, steps", [
    (pipeline.sweep_phase, (-np.pi, np.pi), (3, 25)),
    (pipeline.sweep_alpha, (0.1, 1.2), (3, 12)),
])
def test_sweeps_build_records_per_grid_not_per_point(sweep, span, steps, monkeypatch):
    built = Counter()
    for cls in (JointClickProbabilities, PhaseConfig):
        def counting(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    config = load_experiment_config(FIXTURES / "ideal_link.json")
    per_steps = []
    for n in steps:
        built.clear()
        sweep(config, *span, n)
        per_steps.append(dict(built))
    assert per_steps[0] == per_steps[1]


def count_eigendecompositions(monkeypatch, sweep, span, steps) -> list[dict]:
    """click_povm and np.linalg.eigvalsh calls of one sweep of the lossy_link fixture at each step count."""
    calls = Counter()

    def counting(name, func):
        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return counted

    monkeypatch.setattr(measurement, "click_povm", counting("click_povm", measurement.click_povm))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    config = load_experiment_config(FIXTURES / "lossy_link.json")
    per_steps = []
    for n in steps:
        calls.clear()
        sweep(config, *span, n)
        per_steps.append(dict(calls))
    return per_steps


def test_sweep_alpha_eigendecompositions_do_not_grow_with_steps(monkeypatch):
    # one POVM stack for the run's two bases, one for the grid; one check of the heralded state
    per_steps = count_eigendecompositions(monkeypatch, pipeline.sweep_alpha, (0.1, 1.2), (3, 12))
    assert per_steps == [{"click_povm": 2, "eigvalsh": 1}] * 2


def test_sweep_phase_eigendecompositions_do_not_grow_with_steps(monkeypatch):
    per_steps = count_eigendecompositions(monkeypatch, pipeline.sweep_phase, (-np.pi, np.pi), (3, 25))
    assert per_steps == [{"click_povm": 2, "eigvalsh": 1}] * 2


@pytest.mark.parametrize("op, args", [
    (pipeline.run_experiment, ()),
    (pipeline.sweep_phase, (-np.pi, np.pi, 9)),
    (pipeline.sweep_alpha, (0.1, 1.2, 4)),
])
def test_detector_loss_applied_once_per_op(op, args, monkeypatch):
    # a signal and an idler loss superoperator per source, detector loss folded into the signal one, and one
    # checked state: the one the detectors see
    built = Counter()
    loss_superoperator, validate = herald._loss_superoperator, fc.DensityOperator.__post_init__

    def counting_loss(*loss_args):
        built["_loss_superoperator"] += 1
        return loss_superoperator(*loss_args)

    def counting_validate(self):
        built["DensityOperator"] += 1
        validate(self)

    monkeypatch.setattr(herald, "_loss_superoperator", counting_loss)
    monkeypatch.setattr(fc.DensityOperator, "__post_init__", counting_validate)
    config = load_experiment_config(FIXTURES / "lossy_link.json")
    op(replace(config, detectors=Detectors(0.6, 0.85)), *args)
    assert built == {"_loss_superoperator": 4, "DensityOperator": 1}


def _fields(text: str) -> list[list[str]]:
    return [re.split(r"[,\s=]+", line.strip()) for line in text.splitlines()]


def _same_field(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        x, y = float(got), float(want)
    except ValueError:
        return False
    # signed zeros such as "-0" must keep their sign
    return math.copysign(1.0, x) == math.copysign(1.0, y) and math.isclose(x, y, rel_tol=1e-9, abs_tol=0.0)


@pytest.mark.parametrize("fixture", ["ideal_link", "lossy_link"])
@pytest.mark.parametrize("command, golden", [("sweep-phase", "sweep_phase_{}.csv"), ("sweep-alpha", "sweep_alpha_{}.txt")])
def test_sweep_cli_output_matches_golden(command, golden, fixture, capsys):
    assert main([command, "--config", str(FIXTURES / f"{fixture}.json")]) == 0
    got = _fields(capsys.readouterr().out)
    want = _fields((GOLDEN / golden.format(fixture)).read_text())
    assert [len(line) for line in got] == [len(line) for line in want]
    for n, (got_line, want_line) in enumerate(zip(got, want)):
        for got_field, want_field in zip(got_line, want_line):
            assert _same_field(got_field, want_field), f"line {n + 1}: {got_field!r} != {want_field!r}"
