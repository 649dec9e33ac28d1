from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathent import fockcore as fc
from pathent import herald
from pathent import measurement as meas
from pathent.config import load_experiment_config

from conftest import FIXTURES

TR3 = fc.FockTruncation(3)
TR10 = fc.FockTruncation(10)

PHASE_FIELDS = dict(
    phi_a=0.3, phi_b=-0.8, zeta_a=0.1, zeta_b=0.55, chi_a=1.2, chi_b=-0.4,
    xi_a_long=0.7, xi_a_short=0.2, xi_b_long=-0.3, xi_b_short=0.9,
)


def _embed(op: np.ndarray, modes: tuple[int, ...], d: int, n_modes: int = 4) -> np.ndarray:
    """op on the given modes of an n_modes register (Kronecker order), identity on the rest."""
    order = list(modes) + [m for m in range(n_modes) if m not in modes]
    full = np.kron(op, np.eye(d ** (n_modes - len(modes)))).reshape((d,) * (2 * n_modes))
    perm = list(np.argsort(order))
    return full.transpose(perm + [p + n_modes for p in perm]).reshape(d**n_modes, d**n_modes)


def four_mode_oracle(src: herald.SourceParams, phases: herald.PhaseConfig, trunc: fc.FockTruncation):
    """Dense four-mode density-matrix reference of the heralding model.

    Modes (signal_A, idler_A, signal_B, idler_B).  All four losses act on
    the four-mode state before the station, signal loss included; the
    monitored port is mode 3 after the beam splitter on modes (1, 3).
    Returns the heralded two-mode matrix and the herald probability.
    """
    d = trunc.dim
    n = np.arange(d)
    ket = np.kron(
        fc.two_mode_squeezed_ket(src.pair_probability_a, trunc, pair_phase=phases.phi_a),
        fc.two_mode_squeezed_ket(src.effective_pair_probability_b, trunc, pair_phase=phases.phi_b),
    )
    thetas = (phases.xi_a_long, phases.chi_a, phases.xi_b_long, phases.chi_b)
    ket = ket * reduce(np.kron, [np.exp(1j * theta * n) for theta in thetas])
    mat = np.outer(ket, ket.conj())
    etas = (src.signal_transmission_a, src.idler_transmission_a, src.signal_transmission_b, src.idler_transmission_b)
    for mode, eta in enumerate(etas):
        kraus = [_embed(k, (mode,), d) for k in fc.loss_channel_kraus(eta, trunc)]
        mat = sum(k @ mat @ k.conj().T for k in kraus)
    bs = _embed(fc.beam_splitter_unitary(0.5, trunc).matrix, (1, 3), d)
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
    hs = herald.simulate_heralded_state(herald.SourceParams(pair_probability=1e-6), herald.PhaseConfig(), TR3)
    psi = (fc.fock_ket((1, 0), TR3) + fc.fock_ket((0, 1), TR3)) / np.sqrt(2)
    fidelity = (psi.conj() @ hs.rho.matrix @ psi).real
    assert fidelity >= 0.999
    assert abs(np.trace(hs.rho.matrix) - 1.0) < 1e-10
    assert 0.0 <= hs.herald_probability <= 1.0


def test_heralded_state_double_pair_admixture():
    p = 3e-3
    hs = herald.simulate_heralded_state(herald.SourceParams(pair_probability=p), herald.PhaseConfig(), TR3)
    diag = np.diag(hs.rho.matrix).real.reshape(TR3.dim, TR3.dim)
    ratio = diag[1, 1] / (diag[1, 0] + diag[0, 1])
    assert p / 4 <= ratio <= 4 * p


def test_heralded_state_false_heralds_only():
    hs = herald.simulate_heralded_state(
        herald.SourceParams(pair_probability=0.0, false_herald_probability=1.0),
        herald.PhaseConfig(),
        TR3,
    )
    assert abs(hs.rho.matrix[0, 0] - 1.0) < 1e-12
    assert hs.herald_probability == 0.0


def test_heralded_state_no_heralds_raises():
    with pytest.raises(herald.HeraldingError):
        herald.simulate_heralded_state(herald.SourceParams(pair_probability=0.0), herald.PhaseConfig(), TR3)


def test_heralded_state_requires_three_photons():
    with pytest.raises(ValueError):
        herald.simulate_heralded_state(
            herald.SourceParams(pair_probability=1e-3), herald.PhaseConfig(), fc.FockTruncation(2)
        )


def test_pump_phase_invariance():
    # joint click probabilities do not move when the pump phase shifts,
    # provided the displacement phases are derived from the same pump
    src = herald.SourceParams(pair_probability=1e-4)
    rng = np.random.default_rng(41)

    def click_probs(fields):
        phases = herald.PhaseConfig(**fields)
        hs = herald.simulate_heralded_state(src, phases, TR3)
        rho = fc.embed_state(hs.rho, TR10)
        s1, s2 = meas.displacement_settings_from_phases(0.83, 0.83, phases)
        return meas.joint_click_probabilities(rho, s1, s2).as_array()

    reference = click_probs(PHASE_FIELDS)
    for delta in rng.uniform(-np.pi, np.pi, 20):
        shifted = dict(PHASE_FIELDS)
        shifted["phi_a"] = shifted["phi_a"] + delta
        assert np.max(np.abs(click_probs(shifted) - reference)) < 1e-10


def test_relative_phase_covariance():
    # chi_a -> chi_a + delta multiplies the <01|rho|10> coherence by e^{-i delta}
    src = herald.SourceParams(pair_probability=1e-4)

    def coherence(fields) -> complex:
        hs = herald.simulate_heralded_state(src, herald.PhaseConfig(**fields), TR3)
        d = TR3.dim
        return hs.rho.matrix[1, d]  # <01| rho |10>

    base = coherence(PHASE_FIELDS)
    for delta in (0.77, -1.3, 2.9):
        shifted = dict(PHASE_FIELDS)
        shifted["chi_a"] = shifted["chi_a"] + delta
        ratio = coherence(shifted) / base
        assert abs(ratio - np.exp(-1j * delta)) < 1e-12


def test_signal_loss_commutes_with_heralding():
    # applying signal loss on the four-mode state before conditioning equals
    # the pipeline's loss-after-conditioning result
    src = herald.SourceParams(pair_probability=2e-3, signal_transmission_a=0.35, signal_transmission_b=0.62)
    phases = herald.PhaseConfig(**PHASE_FIELDS)
    after = herald.simulate_heralded_state(src, phases, TR3).rho.matrix
    before, _ = four_mode_oracle(src, phases, TR3)

    assert np.max(np.abs(before - after)) < 1e-10


transmission = st.floats(0.05, 1.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    pair_a=st.floats(1e-4, 0.2),
    pair_b=st.none() | st.floats(1e-4, 0.2),
    signal_a=st.floats(0.0, 1.0),
    signal_b=st.floats(0.0, 1.0),
    idler_a=transmission,
    idler_b=transmission,
    false_herald=st.floats(0.0, 0.5),
    phases=st.lists(st.floats(-2.0 * np.pi, 2.0 * np.pi), min_size=10, max_size=10),
)
def test_ket_heralding_matches_four_mode_oracle(
    pair_a, pair_b, signal_a, signal_b, idler_a, idler_b, false_herald, phases
):
    src = herald.SourceParams(pair_a, signal_a, signal_b, idler_a, idler_b, false_herald, pair_b)
    config = herald.PhaseConfig(*phases)
    hs = herald.simulate_heralded_state(src, config, TR3)
    rho, herald_probability = four_mode_oracle(src, config, TR3)
    assert np.max(np.abs(hs.rho.matrix - rho)) <= 1e-13
    assert abs(hs.herald_probability - herald_probability) <= 1e-13


FIXTURE_SOURCES = pytest.mark.parametrize("fixture", ["ideal_link", "lossy_link"])
HERALD_N_MAX = (3, 4, 5, 6)


@FIXTURE_SOURCES
def test_heralded_state_converges_in_truncation(fixture):
    # Truncation cuts the pair number of each source.  Between consecutive
    # n_max the qubit block (at most one photon per mode) moves by no more
    # than the truncation tail: the heralded weight of n_max pairs, read
    # off the state before signal loss (photons per signal mode = pairs),
    # plus a few ulps of rounding.
    config = load_experiment_config(FIXTURES / f"{fixture}.json")
    lossless = replace(config.source, signal_transmission_a=1.0, signal_transmission_b=1.0)
    previous = None
    for n_max in HERALD_N_MAX:
        trunc = fc.FockTruncation(n_max)
        d = trunc.dim
        rho = herald.simulate_heralded_state(config.source, config.phases, trunc).rho.matrix
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        block = rho.reshape(d, d, d, d)[:2, :2, :2, :2]
        if previous is not None:
            previous_block, tail = previous
            assert np.max(np.abs(block - previous_block)) <= tail + 4 * np.finfo(float).eps
        pairs = herald.simulate_heralded_state(lossless, config.phases, trunc).rho.matrix
        previous = (block, _tail_weight(pairs, d))


@FIXTURE_SOURCES
def test_heralded_state_swap_symmetry(fixture):
    # symmetric sources and phases: swapping Alice and Bob leaves the state unchanged
    src = load_experiment_config(FIXTURES / f"{fixture}.json").source
    src = replace(
        src,
        signal_transmission_b=src.signal_transmission_a,
        idler_transmission_b=src.idler_transmission_a,
        pair_probability_b=None,
    )
    mirrored = {key: PHASE_FIELDS[key.replace("_b", "_a")] for key in PHASE_FIELDS}
    phases = herald.PhaseConfig(**mirrored)
    for n_max in HERALD_N_MAX:
        d = n_max + 1
        rho = herald.simulate_heralded_state(src, phases, fc.FockTruncation(n_max)).rho.matrix
        swapped = rho.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
        assert np.max(np.abs(rho - swapped)) <= 1e-14


def test_ideal_lossy_state_examples():
    pure = herald.ideal_lossy_state(1.0, 0.0, TR3)
    psi = (fc.fock_ket((1, 0), TR3) + fc.fock_ket((0, 1), TR3)) / np.sqrt(2)
    assert abs((psi.conj() @ pure.matrix @ psi).real - 1.0) < 1e-12
    vac = herald.ideal_lossy_state(0.0, 0.3, TR3)
    assert abs(vac.matrix[0, 0] - 1.0) < 1e-12
    mixed = herald.ideal_lossy_state(0.4, 1.1, TR3)
    assert abs(np.trace(mixed.matrix) - 1.0) < 1e-12
    assert np.sum(np.linalg.eigvalsh(mixed.matrix) > 1e-12) <= 2
    with pytest.raises(ValueError):
        herald.ideal_lossy_state(1.2, 0.0, TR3)


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
