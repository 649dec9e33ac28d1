"""The pipeline measures the heralded state on its own support, against the zero-padded reference,
and a simulated run certifies exactly as the counts file it would log."""

import json
from dataclasses import replace
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathent import fockcore as fc
from pathent import pipeline
from pathent.config import Detectors, load_experiment_config, parse_experiment_config
from pathent.herald import HeraldedState, PhaseConfig, SourceParams, simulate_heralded_state

from conftest import FIXTURES
from reference import (
    displacement_phases,
    embed_state,
    loss_kraus_sum,
    lossy_click_probabilities,
    lossy_coincidence_probability,
    point_displacement,
    rotate_signals,
    signal_phases,
)

QUADRUPLE = ("p_nc_nc", "p_nc_c", "p_c_nc", "p_c_c")
transmission = st.floats(0.05, 1.0)


@st.composite
def truncations(draw):
    herald_n_max = draw(st.integers(3, 5))
    return herald_n_max, draw(st.integers(herald_n_max, 12))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    pair_a=st.floats(1e-4, 0.05),
    pair_b=st.none() | st.floats(1e-4, 0.05),
    signal=st.tuples(transmission, transmission),
    idler=st.tuples(transmission, transmission),
    false_herald=st.floats(0.0, 0.5),
    phases=st.lists(st.floats(-np.pi, np.pi), min_size=10, max_size=10),
    efficiencies=st.tuples(transmission, transmission),
    amplitudes=st.tuples(st.floats(0.05, 0.85), st.floats(0.05, 0.85)),
    n_max=truncations(),
)
def test_run_matches_padded_reference(pair_a, pair_b, signal, idler, false_herald, phases, efficiencies,
                                      amplitudes, n_max):
    src = SourceParams(pair_a, *signal, *idler, false_herald, pair_b)
    phase_config = PhaseConfig(*phases)
    herald_n_max, trunc_n_max = n_max
    config = load_experiment_config(FIXTURES / "lossy_link.json")
    config = replace(
        config,
        source=src,
        phases_rad=phase_config,
        displacement=point_displacement(*amplitudes),
        detectors=Detectors(*efficiencies),
        numerics=replace(config.numerics, herald_truncation_n_max=herald_n_max, truncation_n_max=trunc_n_max),
    )
    report = pipeline.run_experiment(config)

    # the reference puts every phase on the state and measures at the displacement fields' own phases
    trunc = fc.FockTruncation(trunc_n_max)
    phase_free = simulate_heralded_state(src, (1.0, 1.0), config.herald_truncation).rho
    phased = rotate_signals(phase_free.matrix, signal_phases(phase_config))
    padded = embed_state(fc.DensityOperator(phased, phase_free.mode_dims), trunc)
    s1, s2 = (a * np.exp(1j * theta) for a, theta in zip(amplitudes, displacement_phases(phase_config)))
    for basis, (t1, t2) in (("alpha_basis", (s1, s2)), ("z_basis", (0.0, 0.0))):
        expected = lossy_click_probabilities(padded.matrix, [t1], [t2], *efficiencies, trunc)[0, 0]
        got = [report["probabilities"][basis][key] for key in QUADRUPLE]
        assert np.max(np.abs(np.array(got) - expected)) <= 1e-13

    d = trunc.dim
    t = padded.matrix.reshape(d, d, d, d)
    for key, marginal, eta in (
        ("p1_star", np.trace(t, axis1=1, axis2=3), efficiencies[0]),
        ("p2_star", np.trace(t, axis1=0, axis2=2), efficiencies[1]),
    ):
        expected = lossy_coincidence_probability(marginal, eta)
        assert abs(report["multiphoton"][key] - expected) <= 1e-13


def test_run_builds_no_state_beyond_the_herald_support(monkeypatch):
    dims = []
    validate = fc.DensityOperator.__post_init__

    def recording(self):
        dims.append(len(self.matrix))
        validate(self)

    monkeypatch.setattr(fc.DensityOperator, "__post_init__", recording)
    config = load_experiment_config(FIXTURES / "lossy_link.json")
    pipeline.run_experiment(config)
    assert dims and max(dims) <= config.herald_truncation.dim ** 2


@pytest.mark.parametrize("fixture", ("ideal_link", "lossy_link"))
def test_pump_phases_leave_the_simulated_quadruples_bitwise_equal(fixture):
    # the displacement fields share the sources' pump, so no pump phase reaches a click
    config = load_experiment_config(FIXTURES / f"{fixture}.json")
    phases = PhaseConfig(0.3, -0.8, 0.1, 0.55, 1.2, -0.4, 0.7, 0.2, -0.3, 0.9)
    config = replace(config, phases_rad=phases, detectors=Detectors(0.6, 0.85))

    def quadruples(pump_a, pump_b):
        sim = pipeline._simulate_probabilities(replace(config, phases_rad=replace(phases, phi_a=pump_a, phi_b=pump_b)))
        return [sim[basis].probabilities.as_array().tobytes() for basis in ("alpha", "z")]

    base = quadruples(phases.phi_a, phases.phi_b)
    for pump_a, pump_b in ((1.9, -0.8), (0.3, 2.4), (-3.1, 7.7), (1e3, -1e3)):
        assert quadruples(pump_a, pump_b) == base


@pytest.mark.parametrize("herald_n_max", (3, 6, 10))
def test_detected_state_equals_loss_after_a_lossless_herald(herald_n_max):
    # signal and detector loss contracted into the sources equal the herald at unit signal transmission
    # followed by loss eta_signal * eta_detector on each mode
    config = load_experiment_config(FIXTURES / "lossy_link.json")
    config = replace(config, detectors=Detectors(0.6, 0.85),
                     numerics=replace(config.numerics, herald_truncation_n_max=herald_n_max))
    rng = np.random.default_rng(herald_n_max)
    drawn = SourceParams(rng.uniform(1e-3, 0.1), *rng.uniform(0.05, 1.0, size=4), rng.uniform(0.0, 0.5),
                         rng.uniform(1e-3, 0.1))
    for src in (config.source, drawn):
        got = pipeline._simulate_probabilities(replace(config, source=src))["rho"].matrix
        lossless = replace(src, signal_transmission_a=1.0, signal_transmission_b=1.0)
        expected = simulate_heralded_state(lossless, (1.0, 1.0), config.herald_truncation).rho
        for mode, eta in enumerate((src.signal_transmission_a * 0.6, src.signal_transmission_b * 0.85)):
            expected = fc.DensityOperator(loss_kraus_sum(expected, mode, eta), expected.mode_dims)
        assert np.max(np.abs(got - expected.matrix)) <= 1e-14


@pytest.mark.parametrize("fixture", ("ideal_link", "lossy_link"))
def test_sampled_run_certifies_as_its_counts_file(fixture, tmp_path):
    config = load_experiment_config(FIXTURES / f"{fixture}.json")
    n_pstar = 30_000_000
    config = replace(config, monte_carlo=replace(config.monte_carlo, enabled=True, n_multiphoton=n_pstar))
    run = pipeline.run_experiment(config)

    rows = ["basis,n_total,n_a,n_b,n_d"]
    for basis in ("alpha", "z"):
        c = run["counts"][f"{basis}_basis"]
        rows.append(f"{basis},{c['n_total']},{c['n_a']},{c['n_b']},{c['n_d']}")
    for i in (1, 2):
        rows.append(f"pstar{i},{n_pstar},0,0,{round(run['multiphoton'][f'p{i}_star'] * n_pstar)}")
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("\n".join(rows) + "\n")
    intervals = {
        f"alpha{side}_{bound}": getattr(setting, f"alpha_{bound}")
        for side, setting in enumerate(config.displacement.settings, start=1)
        for bound in ("min", "mean", "max")
    }
    settings_path = tmp_path / "settings.csv"
    settings_path.write_text(",".join(intervals) + "\n" + ",".join(map(repr, intervals.values())) + "\n")

    analysis = pipeline.certify_from_counts(counts_path, settings_path)
    assert run["multiphoton"]["p1_star"] > 0.0
    for block in ("witness", "probabilities", "counts", "multiphoton"):
        assert analysis[block] == run[block], block


def phase_averaged_product(side_a, side_b) -> np.ndarray:
    """Product of two states on the 0- and 1-photon levels, averaged over a global phase e^{i phi (n_1 + n_2)}.

    A side (p, c, phi) has one-photon population p and coherence c sqrt(p (1 - p)) e^{i phi}.
    """
    def qubit(p, c, phi):
        coherence = c * np.sqrt(p * (1.0 - p)) * np.exp(1j * phi)
        return np.array([[1.0 - p, coherence], [np.conj(coherence), p]])

    totals = np.add.outer([0, 1], [0, 1]).ravel()
    return np.kron(qubit(*side_a), qubit(*side_b)) * (totals[:, None] == totals[None, :])


qubit_side = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-np.pi, np.pi))
efficiencies_in = st.sampled_from((0.2, 0.5, 0.8))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    sides=st.tuples(qubit_side, qubit_side),
    amplitudes=st.tuples(st.floats(0.2, 1.2), st.floats(0.2, 1.2)),
    efficiencies=st.tuples(efficiencies_in, efficiencies_in),
)
def test_run_bound_holds_for_separable_states_behind_lossy_detectors(sides, amplitudes, efficiencies):
    # loss maps separable states to separable states, so the bound at alpha sqrt(eta) must hold;
    # the detector side is the Heisenberg-picture reference, the bound is the run's own
    rho = phase_averaged_product(*sides)
    config = load_experiment_config(FIXTURES / "ideal_link.json")
    config = replace(
        config,
        displacement=point_displacement(*amplitudes),
        detectors=Detectors(*efficiencies),
    )
    heralded = HeraldedState(embed_state(fc.DensityOperator(rho, (2, 2)), config.herald_truncation), 1e-6)

    def lossy_herald(src, efficiencies, trunc):
        # the herald folds each detector's efficiency into the signal transmissions of src
        lossy = heralded.rho
        for mode, eta in enumerate((src.signal_transmission_a * efficiencies[0],
                                    src.signal_transmission_b * efficiencies[1])):
            lossy = fc.DensityOperator(loss_kraus_sum(lossy, mode, eta), lossy.mode_dims)
        return HeraldedState(lossy, heralded.herald_probability)

    with mock.patch.object(pipeline, "simulate_heralded_state", lossy_herald):
        report = pipeline.run_experiment(config)
    p_nc_nc, p_nc_c, p_c_nc, p_c_c = lossy_click_probabilities(heralded.rho.matrix, *np.reshape(amplitudes, (2, 1)),
                                                                *efficiencies, config.herald_truncation)[0, 0]
    assert p_nc_nc + p_c_c - p_nc_c - p_c_nc <= report["witness"]["w_ppt_max"] + 1e-9


@pytest.mark.parametrize("fixture", ("ideal_link", "lossy_link"))
def test_pstar_at_lossy_detectors_to_rounding(fixture):
    # p* = sum_n P(n) (1 - 2 (1 - eta/2)^n + (1 - eta)^n) on the heralded populations, in 50-digit arithmetic
    mp.mp.dps = 50
    config = load_experiment_config(FIXTURES / f"{fixture}.json")
    d = config.herald_truncation.dim
    rho = simulate_heralded_state(config.source, (1.0, 1.0), config.herald_truncation).rho
    populations = [[mp.mpf(float(x)) for x in row] for row in np.diagonal(rho.matrix).real.reshape(d, d)]
    marginals = {"p1_star": [mp.fsum(row) for row in populations],
                 "p2_star": [mp.fsum(column) for column in zip(*populations)]}
    for eta in (0.1, 0.3, 0.6, 0.9):
        report = pipeline.run_experiment(replace(config, detectors=Detectors(eta, eta)))
        e = mp.mpf(eta)
        for key, marginal in marginals.items():
            exact = mp.fsum(p * (1 - 2 * (1 - e / 2) ** n + (1 - e) ** n) for n, p in enumerate(marginal))
            assert abs(report["multiphoton"][key] - exact) <= 1e-13 * exact, (eta, key)


def _mirror(text: str, x: str, y: str) -> str:
    """text with every x and y trading places."""
    return text.replace(x, "\0").replace(y, x).replace("\0", y)


@pytest.mark.parametrize("herald_n_max", (3, 6))
def test_run_is_symmetric_under_swapping_alice_and_bob(herald_n_max):
    # asymmetric sources, phases, boxes and detectors; the mirror swaps every one of them
    raw = json.loads((FIXTURES / "lossy_link.json").read_text())
    raw["source"].update(pair_probability=0.004, pair_probability_b=0.0025, idler_transmission_b=0.011,
                         false_herald_probability=0.1)
    raw["phases_rad"] = {key: 0.1 * i - 0.4 for i, key in enumerate(raw["phases_rad"])}
    raw["detectors"] = {"efficiency_a": 0.8, "efficiency_b": 0.65}
    raw["numerics"]["herald_truncation_n_max"] = herald_n_max
    source = raw["source"]
    mirror = {
        **raw,
        "source": {**{_mirror(key, "_a", "_b"): value for key, value in source.items() if not key.startswith("pair")},
                   "pair_probability": source["pair_probability_b"], "pair_probability_b": source["pair_probability"]},
        "phases_rad": {_mirror(key, "_a", "_b"): value for key, value in raw["phases_rad"].items()},
        "detectors": {_mirror(key, "_a", "_b"): value for key, value in raw["detectors"].items()},
        "displacement": {_mirror(key, "1", "2"): value for key, value in raw["displacement"].items()},
    }
    report, mirrored = (pipeline.run_experiment(parse_experiment_config(c)) for c in (raw, mirror))

    # the witness agrees, with the two single-click coefficients C4 and C5 trading places
    close = dict(rel=1e-12, abs=1e-15)
    swapped = dict(mirrored["witness"])
    c = swapped["coefficients"]
    swapped["coefficients"] = [*c[:3], c[4], c[3]]
    for key, value in report["witness"].items():
        assert swapped[key] == (value if isinstance(value, bool) else pytest.approx(value, **close)), key
    assert mirrored["heralding"] == pytest.approx(report["heralding"], **close)
    # single clicks, their counts and the per-mode p* trade places
    for basis in ("alpha_basis", "z_basis"):
        counts = report["counts"][basis]
        assert mirrored["counts"][basis] == {**counts, "n_a": counts["n_b"], "n_b": counts["n_a"]}
        probs = {}
        for key, value in report["probabilities"][basis].items():
            prefix, first, second = key.split("_")
            probs[f"{prefix}_{second}_{first}"] = value
        assert mirrored["probabilities"][basis] == pytest.approx(probs, **close)
    pstar = {_mirror(key, "p1", "p2"): value for key, value in report["multiphoton"].items()}
    assert mirrored["multiphoton"] == pytest.approx(pstar, **close)
