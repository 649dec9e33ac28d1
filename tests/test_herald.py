import json
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathent import fockcore as fc
from pathent import herald
from pathent import measurement as meas
from pathent import pipeline
from pathent.config import load_experiment_config, parse_experiment_config

from conftest import FIXTURES
from reference import (
    beam_splitter_unitary,
    deltas,
    displacement_phases,
    fock_ket,
    ideal_lossy_state,
    loss_channel_kraus,
    loss_kraus_sum,
    pair_ket,
    rotate_signals,
    signal_phases,
)

D4 = 4  # levels per mode at n_max 3

PHASE_FIELDS = dict(
    phi_a=0.3, phi_b=-0.8, zeta_a=0.1, zeta_b=0.55, chi_a=1.2, chi_b=-0.4,
    xi_a_long=0.7, xi_a_short=0.2, xi_b_long=-0.3, xi_b_short=0.9,
)
IDEAL = (1.0, 1.0)
AMPLITUDES = np.array([0.0, 0.83, 1.7])


def measured_as_configured(herald_rho: fc.DensityOperator, oracle_rho: np.ndarray, phases: herald.PhaseConfig):
    """Click grids over AMPLITUDES on each side: the phase-free herald at alpha e^{-i delta}, and the
    phased oracle state at alpha times its displacement field's phase e^{i (phi - zeta + xi_short)}."""
    oracle = fc.DensityOperator(oracle_rho, herald_rho.mode_dims)
    got = meas.click_probability_grid(herald_rho, *(AMPLITUDES * np.exp(-1j * delta) for delta in deltas(phases)))
    want = meas.click_probability_grid(oracle, *(AMPLITUDES * np.exp(1j * t) for t in displacement_phases(phases)))
    return got, want


def _embed(op: np.ndarray, modes: tuple[int, ...], d: int, n_modes: int = 4) -> np.ndarray:
    """op on the given modes of an n_modes register (Kronecker order), identity on the rest."""
    order = list(modes) + [m for m in range(n_modes) if m not in modes]
    full = np.kron(op, np.eye(d ** (n_modes - len(modes)))).reshape((d,) * (2 * n_modes))
    perm = list(np.argsort(order))
    return full.transpose(perm + [p + n_modes for p in perm]).reshape(d**n_modes, d**n_modes)


def four_mode_oracle(src: herald.SourceParams, phases: herald.PhaseConfig, d: int):
    """Dense four-mode density-matrix reference of the heralding model, with every phase on the state.

    Modes (signal_A, idler_A, signal_B, idler_B).  The pump phase multiplies
    each source's pair amplitude, lambda^n -> (lambda e^{i phi})^n; chi and
    xi_long propagate the idler and the signal.  All four losses act on
    the four-mode state before the station, signal loss included; the
    monitored port is mode 3 after the beam splitter on modes (1, 3).
    Returns the heralded two-mode matrix and the herald probability.
    """
    n = np.arange(d)
    ket = np.kron(pair_ket(src.pair_probability_a, d), pair_ket(src.effective_pair_probability_b, d))
    thetas = (phases.phi_a + phases.xi_a_long, phases.chi_a, phases.phi_b + phases.xi_b_long, phases.chi_b)
    ket = ket * reduce(np.kron, [np.exp(1j * theta * n) for theta in thetas])
    mat = np.outer(ket, ket.conj())
    etas = (src.signal_transmission_a, src.idler_transmission_a, src.signal_transmission_b, src.idler_transmission_b)
    for mode, eta in enumerate(etas):
        kraus = [_embed(k, (mode,), d) for k in loss_channel_kraus(eta, d)]
        mat = sum(k @ mat @ k.conj().T for k in kraus)
    bs = _embed(beam_splitter_unitary(0.5, d), (1, 3), d)
    t = (bs @ mat @ bs.conj().T).reshape((d,) * 8)
    # trace out both idler outputs; the herald keeps monitored-port photon numbers >= 1
    marginal = np.einsum("aibjcidj->abcd", t).reshape(d * d, d * d)
    conditioned = np.einsum("aibjcidj->abcd", t[:, :, :, 1:, :, :, :, 1:]).reshape(d * d, d * d)
    p_true = np.trace(conditioned).real
    f = src.false_herald_probability
    return (1.0 - f) * conditioned / p_true + f * marginal, min(1.0, p_true / (1.0 - f))


def _tail_weight(rho: np.ndarray, d: int) -> float:
    """Population of the basis states with n_max photons in either mode."""
    diag = np.diag(rho).real.reshape(d, d)
    return float(diag[-1, :].sum() + diag[:-1, -1].sum())


def test_heralded_state_ideal_limit():
    rho, herald_probability = herald.simulate_heralded_state(herald.SourceParams(pair_probability=1e-6), IDEAL, D4)
    psi = (fock_ket((1, 0), D4) + fock_ket((0, 1), D4)) / np.sqrt(2)
    fidelity = (psi.conj() @ rho.matrix @ psi).real
    assert fidelity >= 0.999
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-10
    assert 0.0 <= herald_probability <= 1.0


def test_heralded_state_double_pair_admixture():
    p = 3e-3
    rho, _ = herald.simulate_heralded_state(herald.SourceParams(pair_probability=p), IDEAL, D4)
    diag = np.diag(rho.matrix).real.reshape(D4, D4)
    ratio = diag[1, 1] / (diag[1, 0] + diag[0, 1])
    assert p / 4 <= ratio <= 4 * p


def test_heralded_state_false_heralds_only():
    rho, herald_probability = herald.simulate_heralded_state(
        herald.SourceParams(pair_probability=0.0, false_herald_probability=1.0),
        IDEAL,
        D4,
    )
    assert abs(rho.matrix[0, 0] - 1.0) < 1e-12
    assert herald_probability == 0.0


def test_heralded_state_no_heralds_raises():
    with pytest.raises(herald.HeraldingError):
        herald.simulate_heralded_state(herald.SourceParams(pair_probability=0.0), IDEAL, D4)
    # the only emitting source loses every idler photon
    src = herald.SourceParams(2e-3, idler_transmission_a=0.0, pair_probability_b=0.0, false_herald_probability=0.3)
    with pytest.raises(herald.HeraldingError):
        herald.simulate_heralded_state(src, IDEAL, D4)


def test_heralded_state_requires_three_photons():
    with pytest.raises(ValueError, match=r"needs n_max >= 3, got 2"):
        herald.simulate_heralded_state(herald.SourceParams(pair_probability=1e-3), IDEAL, 3)


@pytest.mark.parametrize("efficiencies", [(-0.1, 1.0), (1.0, 1.5), (0.5, np.nan)])
def test_heralded_state_rejects_efficiencies_outside_the_unit_interval(efficiencies):
    with pytest.raises(ValueError, match="detector efficiencies must lie in"):
        herald.simulate_heralded_state(herald.SourceParams(pair_probability=1e-3), efficiencies, D4)


@pytest.mark.parametrize("n_max", [3, 6, 10])
@pytest.mark.parametrize("efficiencies", [IDEAL, (0.6, 0.85)])
def test_heralded_state_is_real(n_max, efficiencies):
    src = herald.SourceParams(3e-3, 0.0395, 0.0376, 0.007, 0.007, 0.1667)
    rho, _ = herald.simulate_heralded_state(src, efficiencies, n_max + 1)
    assert rho.matrix.dtype == np.float64


def test_pump_phase_invariance():
    # joint click probabilities do not move when the pump phase shifts, provided the
    # displacement phases are derived from the same pump; the herald never sees it
    src = herald.SourceParams(pair_probability=1e-4)
    rng = np.random.default_rng(41)
    rho, _ = herald.simulate_heralded_state(src, IDEAL, D4)

    reference = None
    for delta in (0.0, *rng.uniform(-np.pi, np.pi, 20)):
        phases = herald.PhaseConfig(**{**PHASE_FIELDS, "phi_a": PHASE_FIELDS["phi_a"] + delta})
        got, want = measured_as_configured(rho, four_mode_oracle(src, phases, D4)[0], phases)
        assert np.max(np.abs(got - want)) < 1e-10
        reference = want if reference is None else reference
        assert np.max(np.abs(want - reference)) < 1e-10


def test_relative_phase_covariance():
    # chi_a -> chi_a + delta multiplies the oracle's <01|rho|10> coherence by e^{-i delta}, which
    # the herald's measurement gets as Alice's amplitude times e^{-i delta}
    src = herald.SourceParams(pair_probability=1e-4)
    rho, _ = herald.simulate_heralded_state(src, IDEAL, D4)
    base = four_mode_oracle(src, herald.PhaseConfig(**PHASE_FIELDS), D4)[0]
    for delta in (0.77, -1.3, 2.9):
        phases = herald.PhaseConfig(**{**PHASE_FIELDS, "chi_a": PHASE_FIELDS["chi_a"] + delta})
        shifted = four_mode_oracle(src, phases, D4)[0]
        assert abs(shifted[1, D4] / base[1, D4] - np.exp(-1j * delta)) < 1e-12  # <01| rho |10>
        got, want = measured_as_configured(rho, shifted, phases)
        assert np.max(np.abs(got - want)) < 1e-12


def test_signal_loss_commutes_with_heralding():
    # the four-mode oracle applies signal loss to the joint state, then the station's beam splitter;
    # the herald applies the click POVM first and signal loss last, detector efficiencies included
    src = herald.SourceParams(pair_probability=2e-3, signal_transmission_a=0.35, signal_transmission_b=0.62)
    phases = herald.PhaseConfig(**PHASE_FIELDS)
    for efficiencies in (IDEAL, (0.6, 0.85)):
        after, _ = herald.simulate_heralded_state(src, efficiencies, D4)
        detected = replace(src, signal_transmission_a=0.35 * efficiencies[0],
                           signal_transmission_b=0.62 * efficiencies[1])
        before, _ = four_mode_oracle(detected, phases, D4)

        assert np.max(np.abs(before - rotate_signals(after.matrix, signal_phases(phases)))) < 1e-10
        got, want = measured_as_configured(after, before, phases)
        assert np.max(np.abs(got - want)) < 1e-10


transmission = st.floats(0.05, 1.0)
PHASES = list(PHASE_FIELDS.values())


@settings(max_examples=30, deadline=None, derandomize=True)
# edges the strategies never reach: heralds from B's idler alone with B's signal lost, and A's source
# alone, lossless, with false heralds
@example(2e-3, None, 1.0, 0.0, 0.0, 1.0, 0.0, PHASES, IDEAL)
@example(2e-3, None, 1.0, 0.0, 0.0, 1.0, 0.0, PHASES, (0.6, 0.85))
@example(2e-3, 0.0, 1.0, 1.0, 1.0, 1.0, 0.3, PHASES, IDEAL)
@example(2e-3, 0.0, 1.0, 1.0, 1.0, 1.0, 0.3, PHASES, (0.6, 0.85))
@given(
    pair_a=st.floats(1e-4, 0.2),
    pair_b=st.none() | st.floats(1e-4, 0.2),
    signal_a=st.floats(0.0, 1.0),
    signal_b=st.floats(0.0, 1.0),
    idler_a=transmission,
    idler_b=transmission,
    false_herald=st.floats(0.0, 0.5),
    phases=st.lists(st.floats(-2.0 * np.pi, 2.0 * np.pi), min_size=10, max_size=10),
    efficiencies=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_ket_heralding_matches_four_mode_oracle(
    pair_a, pair_b, signal_a, signal_b, idler_a, idler_b, false_herald, phases, efficiencies
):
    # the phase-free herald, rotated by each source's phases, is the phased oracle's state, and
    # measured at alpha e^{-i delta} it gives the oracle's click probabilities
    src = herald.SourceParams(pair_a, signal_a, signal_b, idler_a, idler_b, false_herald, pair_b)
    config = herald.PhaseConfig(*phases)
    heralded, herald_probability = herald.simulate_heralded_state(src, efficiencies, D4)
    detected = replace(src, signal_transmission_a=signal_a * efficiencies[0],
                       signal_transmission_b=signal_b * efficiencies[1])
    rho, oracle_probability = four_mode_oracle(detected, config, D4)
    assert np.max(np.abs(rotate_signals(heralded.matrix, signal_phases(config)) - rho)) <= 1e-13
    assert abs(herald_probability - oracle_probability) <= 1e-13
    got, want = measured_as_configured(heralded, rho, config)
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("d", range(4, 17))
def test_loss_superoperator_equals_the_kraus_oracle(d):
    # each entry of S is one product of two Kraus entries, so S equals sum_k K_k (x) K_k bit for bit
    rng = np.random.default_rng(d)
    for eta in (0.0, 1.0, *rng.uniform(size=6)):
        expected = sum(np.kron(k, k) for k in loss_channel_kraus(eta, d))
        assert np.array_equal(herald._loss_superoperator(eta, d), expected), eta


def station_unitary_oracle(src: herald.SourceParams, phases: herald.PhaseConfig, d: int):
    """Heralded state before signal loss and false heralds, from the truncated 50/50 unitary on the idler kets.

    Each source is a purified ket (signal, idler, environment of idler
    loss) that carries its phases, the pump's on the pair amplitude; the
    unitary acts on both idlers and the click keeps the monitored-port
    photon numbers >= 1.  Cost d^8, against the herald's d^6.
    """
    n = np.arange(d)

    def source(pair_probability, pair_phase, xi_long, chi, idler_transmission):
        ket = pair_ket(pair_probability, d).reshape(d, d)
        ket = ket * np.exp(1j * (pair_phase + xi_long) * n)[:, None] * np.exp(1j * chi * n)[None, :]
        return np.einsum("kji,si->sjk", loss_channel_kraus(idler_transmission, d), ket)

    ket_a = source(src.pair_probability_a, phases.phi_a, phases.xi_a_long, phases.chi_a, src.idler_transmission_a)
    ket_b = source(
        src.effective_pair_probability_b, phases.phi_b, phases.xi_b_long, phases.chi_b, src.idler_transmission_b
    )
    bs = beam_splitter_unitary(0.5, d).reshape(d, d, d, d)
    clicked = np.einsum("aik,bjl,xyij->abklxy", ket_a, ket_b, bs)[..., 1:].reshape(d * d, -1)
    conditioned = clicked @ clicked.conj().T
    p_true = np.trace(conditioned).real
    return conditioned / p_true, p_true


@pytest.mark.parametrize("n_max", range(3, 9))
def test_station_click_povm_matches_truncated_beam_splitter(n_max):
    # above n_max 3 the closed-form POVM still equals the truncated unitary, including the
    # sectors J > n_max that cannot leave the monitored port empty; the oracle's signals then
    # lose photons at each side's transmission times its detector efficiency
    d = n_max + 1
    phases = herald.PhaseConfig(**PHASE_FIELDS)
    sources = (
        herald.SourceParams(0.2, pair_probability_b=0.05, idler_transmission_a=0.3, idler_transmission_b=0.8),
        herald.SourceParams(3e-3, idler_transmission_a=0.007, idler_transmission_b=0.007),
        herald.SourceParams(0.2, 0.35, 0.62, 0.3, 0.8, pair_probability_b=0.05),
        herald.SourceParams(3e-3, 0.0395, 0.0376, 0.007, 0.007),
    )
    for src in sources:
        heralded, oracle_probability = station_unitary_oracle(src, phases, d)
        for efficiencies in (IDEAL, (0.6, 0.85)):
            got, herald_probability = herald.simulate_heralded_state(src, efficiencies, d)
            rho = fc.DensityOperator(heralded, (d, d))
            for mode, t in enumerate((src.signal_transmission_a, src.signal_transmission_b)):
                rho = fc.DensityOperator(loss_kraus_sum(rho, mode, t * efficiencies[mode]), rho.mode_dims)
            assert np.max(np.abs(rotate_signals(got.matrix, signal_phases(phases)) - rho.matrix)) <= 1e-13
            assert abs(herald_probability - oracle_probability) <= 1e-13 * oracle_probability


FIXTURE_SOURCES = pytest.mark.parametrize("fixture", ["ideal_link", "lossy_link"])
HERALD_N_MAX = tuple(range(3, 11))


@FIXTURE_SOURCES
def test_heralded_state_converges_in_truncation(fixture):
    # Truncation cuts the pair number of each source.  Between consecutive
    # n_max the qubit block (at most one photon per mode) and the
    # multiphoton coincidences p1*, p2* (which read the populations with two
    # or more photons) move by no more than the truncation tail: the
    # heralded weight of n_max pairs, read off the state before signal loss
    # (photons per signal mode = pairs), plus a few ulps of rounding.
    config = load_experiment_config(FIXTURES / f"{fixture}.json")
    efficiencies = (config.detectors.efficiency_a, config.detectors.efficiency_b)
    lossless = replace(config.source, signal_transmission_a=1.0, signal_transmission_b=1.0)
    previous = None
    for n_max in HERALD_N_MAX:
        d = n_max + 1
        rho = herald.simulate_heralded_state(config.source, efficiencies, d)[0].matrix
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        block = rho.reshape(d, d, d, d)[:2, :2, :2, :2]
        populations = np.diagonal(rho).real.reshape(d, d)
        pstar = np.array([meas.multiphoton_coincidence_probability(populations.sum(axis=axis)) for axis in (1, 0)])
        if previous is not None:
            previous_block, previous_pstar, tail = previous
            assert np.max(np.abs(block - previous_block)) <= tail + 4 * np.finfo(float).eps
            assert np.max(np.abs(pstar - previous_pstar)) <= tail + 4 * np.finfo(float).eps
        pairs = herald.simulate_heralded_state(lossless, efficiencies, d)[0].matrix
        previous = (block, pstar, _tail_weight(pairs, d))


def test_fixture_herald_truncation_is_1e4_from_converged_on_lossy_link():
    # The fixtures pin herald n_max 3.  On lossy_link that leaves p1* and p2* about 1e-4 (relative) from their
    # n_max -> infinity limit, which n_max 12 stands for here; the consecutive-truncation test above cannot see
    # this.  This records the fixture as it is; the click POVM truncation must be at least the herald's.
    raw = json.loads((FIXTURES / "lossy_link.json").read_text())

    def pstar(n_max):
        numerics = {"truncation_n_max": max(n_max, raw["numerics"]["truncation_n_max"]), "herald_truncation_n_max": n_max}
        sim = pipeline._simulate_probabilities(parse_experiment_config({**raw, "numerics": numerics}))
        return np.array([sim["p1_star"].value, sim["p2_star"].value])

    limit = pstar(12)
    errors = {n_max: np.max(np.abs(pstar(n_max) / limit - 1.0)) for n_max in (3, 4, 8)}
    assert 0.9e-4 <= errors[3] <= 1.2e-4
    assert errors[4] <= 1e-6
    assert errors[8] <= 1e-14


@FIXTURE_SOURCES
def test_heralded_state_swap_symmetry(fixture):
    # symmetric sources and detectors: swapping Alice and Bob leaves the state unchanged
    src = load_experiment_config(FIXTURES / f"{fixture}.json").source
    src = replace(
        src,
        signal_transmission_b=src.signal_transmission_a,
        idler_transmission_b=src.idler_transmission_a,
        pair_probability_b=None,
    )
    for n_max in HERALD_N_MAX:
        d = n_max + 1
        rho = herald.simulate_heralded_state(src, (0.7, 0.7), d)[0].matrix
        swapped = rho.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
        assert np.max(np.abs(rho - swapped)) <= 1e-14


def test_ideal_lossy_state_examples():
    pure = ideal_lossy_state(1.0, 0.0, D4)
    psi = (fock_ket((1, 0), D4) + fock_ket((0, 1), D4)) / np.sqrt(2)
    assert abs((psi.conj() @ pure.matrix @ psi).real - 1.0) < 1e-12
    vac = ideal_lossy_state(0.0, 0.3, D4)
    assert abs(vac.matrix[0, 0] - 1.0) < 1e-12
    mixed = ideal_lossy_state(0.4, 1.1, D4)
    assert abs(np.trace(mixed.matrix) - 1.0) < 1e-12
    assert np.sum(np.linalg.eigvalsh(mixed.matrix) > 1e-12) <= 2
    with pytest.raises(ValueError):
        ideal_lossy_state(1.2, 0.0, D4)


def test_heralding_rate_examples():
    assert abs(herald.heralding_rate(2.1e-5, 76e6, 1.0) - 1.6e3) < 5e1
    assert herald.heralding_rate(0.0, 76e6, 0.5) == 0.0
    assert herald.heralding_rate(1.0, 76e6, 1.0) == 76e6
    with pytest.raises(ValueError):
        herald.heralding_rate(0.5, 76e6, 1.5)


def test_source_params_validation():
    with pytest.raises(ValueError):
        herald.SourceParams(pair_probability=-0.1)
    with pytest.raises(ValueError):
        herald.SourceParams(pair_probability=0.1, idler_transmission_a=1.3)
    src = herald.SourceParams(pair_probability=0.1, pair_probability_b=0.2)
    assert src.pair_probability_a == 0.1
    assert src.effective_pair_probability_b == 0.2


def test_phase_config_requires_finite():
    with pytest.raises(ValueError):
        herald.PhaseConfig(phi_a=np.inf)


def test_phase_config_array_field_checks_every_entry():
    chi_b = np.linspace(-1.0, 1.0, 5)
    grid = herald.PhaseConfig(**{**PHASE_FIELDS, "chi_b": chi_b})
    scalar = [herald.PhaseConfig(**{**PHASE_FIELDS, "chi_b": c}).measured_relative_phase for c in chi_b.tolist()]
    assert grid.measured_relative_phase.tolist() == scalar
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="phase chi_b must be finite"):
            herald.PhaseConfig(chi_b=np.where(np.arange(5) == 2, bad, chi_b))
