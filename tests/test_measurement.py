import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathent import fockcore as fc
from pathent import herald
from pathent import measurement as meas
from pathent.witness import b_max, bound_coefficients

from conftest import random_density_matrix
from reference import (
    displacement_phases,
    einsum_click_probability_grid,
    embed_state,
    expectation_value,
    ideal_lossy_state,
    loss_kraus_sum,
    lossy_click_povm,
    lossy_click_probabilities,
    lossy_coincidence_probability,
    p00_phase_model,
    relative_state_phase,
)

TR10 = fc.FockTruncation(10)


def test_displacement_setting_validation():
    with pytest.raises(ValueError):
        meas.DisplacementSetting(0.8, 0.81, 0.85)
    s = meas.DisplacementSetting(0.8, 0.79, 0.85).scaled(np.sqrt(0.6))
    assert (s.alpha_mean, s.alpha_min, s.alpha_max) == tuple(a * np.sqrt(0.6) for a in (0.8, 0.79, 0.85))


def test_click_povm_identity_cases():
    e_nc, e_c = meas.click_povm(0.0, TR10)
    expected = np.zeros((TR10.dim, TR10.dim))
    expected[0, 0] = 1.0
    assert np.max(np.abs(e_nc - expected)) < 1e-12
    assert np.max(np.abs(e_nc + e_c - np.eye(TR10.dim))) < 1e-12


def test_click_povm_vacuum_probability():
    vac = np.zeros((TR10.dim, TR10.dim), dtype=complex)
    vac[0, 0] = 1.0
    rho = fc.DensityOperator(vac, (TR10.dim,))
    for alpha in (0.3, 0.83, 1.2):
        e_nc, _ = meas.click_povm(alpha, TR10)
        p = expectation_value(rho, e_nc)
        assert abs(p - np.exp(-(alpha**2))) < 1e-9


def coherent_ket(gamma: complex, trunc: fc.FockTruncation) -> np.ndarray:
    n = np.arange(trunc.dim)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    return np.exp(-abs(gamma) ** 2 / 2) * gamma**n / np.sqrt(np.exp(log_fact))


COHERENT_CASES = ((0.4, 0.7, 0.55), (-0.3 + 0.2j, 0.83, 0.8), (0.5j, 0.4, 1.0))  # (gamma, alpha, eta)


def test_click_povm_coherent_state_closed_form():
    # independent oracle: an ideal displaced click detector on a coherent state has P_nc = exp(-|gamma + alpha|^2)
    trunc = fc.FockTruncation(14)
    for gamma, alpha, _ in COHERENT_CASES:
        amps = coherent_ket(gamma, trunc)
        e_nc, _ = meas.click_povm(alpha, trunc)
        p = (amps.conj() @ e_nc @ amps).real
        assert abs(p - np.exp(-abs(gamma + alpha) ** 2)) < 1e-8


def lossy(rho: fc.DensityOperator, eta_1: float, eta_2: float) -> fc.DensityOperator:
    """The state at two detectors of efficiencies eta_1 and eta_2."""
    rho = fc.DensityOperator(loss_kraus_sum(rho, 0, eta_1), rho.mode_dims)
    return fc.DensityOperator(loss_kraus_sum(rho, 1, eta_2), rho.mode_dims)


def test_click_probability_grid_coherent_states_closed_form():
    # independent oracle: a displaced click detector of efficiency eta has P_nc = exp(-eta |gamma + alpha|^2)
    trunc = fc.FockTruncation(14)
    for (g1, a1, eta1), (g2, a2, eta2) in zip(COHERENT_CASES, COHERENT_CASES[1:] + COHERENT_CASES[:1]):
        ket = np.kron(coherent_ket(g1, trunc), coherent_ket(g2, trunc))
        rho = lossy(fc.DensityOperator(np.outer(ket, ket.conj()), (trunc.dim, trunc.dim)), eta1, eta2)
        amp_1, amp_2 = a1 * np.sqrt(eta1), a2 * np.sqrt(eta2)
        p_nc_nc, p_nc_c, p_c_nc, _ = meas.click_probability_grid(rho, [amp_1], [amp_2])[0, 0]
        q1, q2 = np.exp(-eta1 * abs(g1 + a1) ** 2), np.exp(-eta2 * abs(g2 + a2) ** 2)
        assert abs(p_nc_nc - q1 * q2) < 1e-8
        assert abs(p_nc_c - q1 * (1.0 - q2)) < 1e-8
        assert abs(p_c_nc - (1.0 - q1) * q2) < 1e-8


def test_click_povm_completeness_and_positivity():
    for alpha in (0.0, 0.83, 1.2):
        e_nc, e_c = meas.click_povm(alpha, TR10)
        assert np.max(np.abs(e_nc + e_c - np.eye(TR10.dim))) == 0.0
        for element in (e_nc, e_c):
            eigs = np.linalg.eigvalsh(element)
            assert eigs[0] >= -1e-10
            assert eigs[-1] <= 1.0 + 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_max=st.integers(2, 14),
    radii=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=6),
    angles=st.lists(st.floats(-np.pi, np.pi), min_size=6, max_size=6),
)
def test_click_povm_stack_matches_per_amplitude_reference(n_max, radii, angles):
    trunc = fc.FockTruncation(n_max)
    # |alpha|^2 up to just below n_max / 4
    amps = np.array([r * np.sqrt(n_max / 4) * np.exp(1j * phi) for r, phi in zip(radii, angles)])
    stack = meas.click_povm(amps.reshape(-1, 1), trunc)
    assert stack.shape == (len(amps), 1, 2, trunc.dim, trunc.dim)
    for alpha, povm in zip(amps, stack[:, 0]):
        assert np.max(np.abs(povm - lossy_click_povm(alpha, 1.0, trunc))) <= 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(4, 16), radius=st.floats(0.0, 2.0), phase=st.floats(-np.pi, np.pi))
def test_click_povm_matches_padded_displacement_oracle(d, radius, phase):
    # the closed-form coherent-state projector against D(alpha) built far above the d levels and cut back
    trunc = fc.FockTruncation(d - 1)
    alpha = radius * np.exp(1j * phase)
    assert np.max(np.abs(meas.click_povm(alpha, trunc) - lossy_click_povm(alpha, 1.0, trunc))) <= 1e-14


def test_click_povm_at_zero_amplitude_is_exact():
    for n_max in (2, 5, 10):
        trunc = fc.FockTruncation(n_max)
        vacuum = np.zeros((trunc.dim, trunc.dim))
        vacuum[0, 0] = 1.0
        e_nc, _ = meas.click_povm(0.0, trunc)
        assert np.array_equal(e_nc, vacuum)
        e_nc, _ = meas.click_povm([0.0, 0.7], trunc)[0]
        assert np.array_equal(e_nc, vacuum)
        # so a z-basis measurement of a state without |00> or |11> population gives exact zeros
        rho = ideal_lossy_state(1.0, 0.4, trunc)
        p_nc_nc, _, _, p_c_c = meas.click_probability_grid(rho, [0.0], [0.0])[0, 0]
        assert p_nc_nc == 0.0 and p_c_c == 0.0


def test_click_povm_phase_covariance():
    rng = np.random.default_rng(41)
    n = np.arange(TR10.dim)
    radii = rng.uniform(0.0, 1.5, 8)
    phis = rng.uniform(-np.pi, np.pi, 8)
    rotated = meas.click_povm(radii * np.exp(1j * phis), TR10)
    plain = meas.click_povm(radii, TR10)
    for phi, got, povm in zip(phis, rotated, plain):
        r = np.exp(1j * phi * n)
        expected = r[:, None] * povm * r.conj()[None, :]  # R E R^dag, R = e^{i phi n}
        assert np.max(np.abs(got - expected)) <= 1e-14


efficiency = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
amplitude_stack = st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(-np.pi, np.pi)), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    state_n_max=st.integers(2, 4),
    headroom=st.integers(0, 5),
    etas=st.tuples(efficiency, efficiency),
    stacks=st.tuples(amplitude_stack, amplitude_stack),
    seed=st.integers(0, 2**32 - 1),
)
def test_click_probability_grid_matches_heisenberg_reference(state_n_max, headroom, etas, stacks, seed):
    # loss on the state and ideal detectors at alpha sqrt(eta) against Lambda^dag of each POVM
    trunc = fc.FockTruncation(state_n_max + headroom)
    d = state_n_max + 1
    rho = fc.DensityOperator(random_density_matrix(np.random.default_rng(seed), d * d), (d, d))
    # |alpha|^2 up to just below n_max / 4 of the reference's truncation
    amps_1, amps_2 = ([r * np.sqrt(trunc.n_max / 4) * np.exp(1j * phi) for r, phi in stack] for stack in stacks)
    seen = [np.multiply(amps, np.sqrt(eta)) for amps, eta in zip((amps_1, amps_2), etas)]
    grid = meas.click_probability_grid(lossy(rho, *etas), *seen)
    expected = lossy_click_probabilities(embed_state(rho, trunc).matrix, amps_1, amps_2, *etas, trunc)
    assert grid.shape == expected.shape == (len(amps_1), len(amps_2), 4)
    assert np.max(np.abs(grid - expected)) <= 1e-13


def test_efficiency_folding_on_random_states():
    # detector inefficiency equals loss on the state with alpha rescaled
    rng = np.random.default_rng(8)
    trunc = fc.FockTruncation(6)
    for eta in np.arange(0.1, 1.01, 0.1):
        for _ in range(10):
            alpha = rng.uniform(0.2, 1.2)
            rho = fc.DensityOperator(random_density_matrix(rng, trunc.dim**2), (trunc.dim, trunc.dim))
            jp_det = lossy_click_probabilities(rho.matrix, [alpha], [alpha], eta, eta, trunc)[0, 0]
            folded = alpha * np.sqrt(eta)
            jp_loss = meas.joint_click_probabilities(lossy(rho, eta, eta), folded, folded)
            assert np.max(np.abs(jp_det - jp_loss.as_array())) < 1e-10


def test_joint_click_probabilities_bell_state_z_basis():
    rho = ideal_lossy_state(1.0, 0.0, TR10)
    jp = meas.joint_click_probabilities(rho, 0.0, 0.0)
    assert np.max(np.abs(jp.as_array() - np.array([0.0, 0.5, 0.5, 0.0]))) < 1e-12


def test_joint_click_probabilities_vacuum():
    vac = np.zeros((TR10.dim**2, TR10.dim**2), dtype=complex)
    vac[0, 0] = 1.0
    rho = fc.DensityOperator(vac, (TR10.dim, TR10.dim))
    alpha = 0.6
    jp = meas.joint_click_probabilities(rho, alpha, alpha)
    assert abs(jp.p_nc_nc - np.exp(-2 * alpha**2)) < 1e-9
    assert abs(sum(jp.as_array()) - 1.0) < 1e-12


def test_click_probability_grid_matches_kron_traces():
    # references at the state's truncation, and with the state zero-padded to a larger one
    rng = np.random.default_rng(23)
    trunc = fc.FockTruncation(4)
    rho = fc.DensityOperator(random_density_matrix(rng, trunc.dim**2), (trunc.dim, trunc.dim))
    amps_1 = [0.3, 0.8 * np.exp(0.9j), 1.1 * np.exp(-2.2j)]
    amps_2 = [0.5 * np.exp(1.7j), 0.7]
    seen_1, seen_2 = np.multiply(amps_1, np.sqrt(0.8)), np.multiply(amps_2, np.sqrt(0.6))
    grid = meas.click_probability_grid(lossy(rho, 0.8, 0.6), seen_1, seen_2)
    assert grid.shape == (3, 2, 4)
    for ref_trunc in (trunc, fc.FockTruncation(9)):
        padded = embed_state(rho, ref_trunc).matrix
        assert np.max(np.abs(grid - lossy_click_probabilities(padded, amps_1, amps_2, 0.8, 0.6, ref_trunc))) < 1e-12


def test_joint_click_probabilities_scalar_messages():
    with pytest.raises(ValueError) as exc:
        meas.JointClickProbabilities(0.5, 0.5, 0.5, 0.5)
    assert str(exc.value) == "probabilities sum to 2.0, expected 1"
    with pytest.raises(ValueError) as exc:
        meas.JointClickProbabilities(1.5, 0.0, 0.0, 0.0)
    assert str(exc.value) == "probabilities out of range: [1.5 0.  0.  0. ]"


def test_joint_click_probabilities_grid_checks_every_entry():
    grid = np.full((4, 2, 3), 0.25)
    jp = meas.JointClickProbabilities(*grid)
    assert jp.as_array().shape == (4, 2, 3)
    out_of_range = grid.copy()
    out_of_range[:, 1, 2] = (1.2, -0.1, -0.05, -0.05)
    with pytest.raises(ValueError, match="out of range"):
        meas.JointClickProbabilities(*out_of_range)
    off_sum = grid.copy()
    off_sum[0, 0, 1] = 0.3
    with pytest.raises(ValueError, match="sum to"):
        meas.JointClickProbabilities(*off_sum)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_joint_click_probabilities_reject_non_finite(bad):
    with pytest.raises(ValueError, match="out of range"):
        meas.JointClickProbabilities(bad, 0.0, 0.0, 1.0)
    grid = np.full((4, 2, 3), 0.25)
    grid[2, 1, 0] = bad
    with pytest.raises(ValueError, match="out of range"):
        meas.JointClickProbabilities(*grid)


def test_joint_click_probabilities_match_p00_model_at_083():
    rho = ideal_lossy_state(1.0, 0.0, TR10)
    jp = meas.joint_click_probabilities(rho, 0.83, 0.83)
    assert abs(jp.p_nc_nc - 0.3474) < 2e-4
    assert abs(jp.p_nc_nc - p00_phase_model(0.83, herald.PhaseConfig())) < 1e-9


def test_model_agreement_random_phases():
    rng = np.random.default_rng(33)
    names = list(herald.PhaseConfig.__dataclass_fields__)
    for _ in range(50):
        phases = herald.PhaseConfig(**dict(zip(names, rng.uniform(-np.pi, np.pi, len(names)))))
        rho = ideal_lossy_state(1.0, relative_state_phase(phases), TR10)
        alpha = rng.uniform(0.3, 1.0)
        theta_1, theta_2 = displacement_phases(phases)
        jp = meas.joint_click_probabilities(rho, alpha * np.exp(1j * theta_1), alpha * np.exp(1j * theta_2))
        assert abs(jp.p_nc_nc - p00_phase_model(alpha, phases)) < 1e-9


def test_witness_operator_z_basis_is_sigma_z_pair():
    w = meas.phase_averaged_witness_operator(0.0, 0.0, TR10)
    sz = -np.eye(TR10.dim)
    sz[0, 0] = 1.0
    assert np.max(np.abs(w - np.kron(sz, sz))) < 1e-12


def test_witness_operator_qubit_block_coefficients():
    d = TR10.dim
    for a1, a2 in ((0.3, 0.5), (0.72, 0.71), (0.83, 0.83), (1.2, 0.9)):
        w = meas.phase_averaged_witness_operator(a1, a2, TR10)
        c1, c2, c3, c4, c5 = bound_coefficients(a1, a2)
        assert abs(w[0, 0] - c1) < 1e-10  # |00><00|
        assert abs(w[1, 1] - c5) < 1e-10  # |01><01|
        assert abs(w[d, d] - c4) < 1e-10  # |10><10|
        assert abs(w[d + 1, d + 1] - c3) < 1e-10  # |11><11|
        coherence = w[1, d] + w[d, 1]  # <01|W|10> + <10|W|01>
        assert abs(coherence - c2) < 1e-10


def test_witness_operator_block_structure():
    d = TR10.dim
    w = meas.phase_averaged_witness_operator(0.83, 0.83, TR10)
    n = np.arange(d)
    totals = (n[:, None] + n[None, :]).ravel()
    off_sector = totals[:, None] != totals[None, :]
    assert np.max(np.abs(w[off_sector])) == 0.0
    # within sectors, the only qubit <-> multiphoton couplings are |11> to |02>, |20>
    qubit = [0, 1, d, d + 1]
    other = [i for i in range(d * d) if i not in qubit]
    block = w[np.ix_(qubit, other)]
    nonzero = {(qubit[r], other[c]) for r, c in np.argwhere(np.abs(block) > 1e-12)}
    assert nonzero == {(d + 1, 2), (d + 1, 2 * d)}


def test_witness_operator_singular_value_matches_b_max():
    d = TR10.dim
    w = meas.phase_averaged_witness_operator(0.83, 0.83, TR10)
    qubit = [0, 1, d, d + 1]
    other = [i for i in range(d * d) if i not in qubit]
    top = np.linalg.svd(w[np.ix_(qubit, other)], compute_uv=False)[0]
    assert abs(top - 0.4786) < 1e-3
    assert abs(top - b_max(0.83, 0.83)) < 1e-9


def test_witness_operator_phase_averaging_idempotent():
    w = meas.phase_averaged_witness_operator(0.7, 0.9, TR10)
    n = np.arange(TR10.dim)
    totals = (n[:, None] + n[None, :]).ravel()
    mask = (totals[:, None] == totals[None, :]).astype(float)
    assert np.max(np.abs(w * mask - w)) == 0.0
    eigs = np.linalg.eigvalsh(w)
    assert eigs[0] >= -1.0 - 1e-10
    assert eigs[-1] <= 1.0 + 1e-10


def test_witness_operator_rejects_negative_amplitudes():
    with pytest.raises(ValueError):
        meas.phase_averaged_witness_operator(-0.1, 0.5, TR10)


def test_multiphoton_coincidence_examples():
    d = 6
    one = np.zeros(d)
    one[1] = 1.0
    assert meas.multiphoton_coincidence_probability(one) < 1e-12
    two = np.zeros(d)
    two[2] = 1.0
    p = meas.multiphoton_coincidence_probability(two)
    assert abs(p - 0.5) < 1e-12
    vac = np.zeros(d)
    vac[0] = 1.0
    assert meas.multiphoton_coincidence_probability(vac) < 1e-15


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(3, 11), eta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_multiphoton_closed_form_matches_dense_split(d, eta, seed):
    rho = random_density_matrix(np.random.default_rng(seed), d)
    detected = fc.DensityOperator(loss_kraus_sum(fc.DensityOperator(rho, (d,)), 0, eta), (d,))
    p = meas.multiphoton_coincidence_probability(np.diagonal(detected.matrix).real)
    assert abs(p - lossy_coincidence_probability(rho, eta)) <= 1e-13


def test_p00_phase_model_examples():
    fields = dict(zeta_a=0.2, chi_a=0.4, xi_a_long=0.1, xi_a_short=0.05)
    # delta = pi: destructive
    phases = herald.PhaseConfig(**fields, zeta_b=0.2 + 0.4 + 0.1 - 0.05 - np.pi)
    assert abs(p00_phase_model(0.7, phases)) < 1e-12
    # delta = 0 at |alpha| = 0.83
    assert abs(p00_phase_model(0.83, herald.PhaseConfig()) - 0.3474) < 1e-4
    # pump phase drops out
    a = p00_phase_model(0.6, herald.PhaseConfig(phi_a=0.0))
    b = p00_phase_model(0.6, herald.PhaseConfig(phi_a=2.345))
    assert abs(a - b) < 1e-15


@pytest.mark.parametrize("n_max", [3, 6, 10, 15])
@pytest.mark.parametrize("shape", [(2, 2), (1, 25), (12, 12), (25, 1)], ids=lambda shape: "x".join(map(str, shape)))
def test_click_probability_grid_is_bitwise_its_einsum(shape, n_max):
    # real states as the herald makes them, and complex ones; (25, 1) contracts the second stack first
    rng = np.random.default_rng(n_max)
    d = n_max + 1
    for matrix in (random_density_matrix(rng, d * d).real.copy(), random_density_matrix(rng, d * d)):
        rho = fc.DensityOperator(matrix, (d, d))
        amplitudes = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in shape]
        got = meas.click_probability_grid(rho, *amplitudes)
        assert np.array_equal(got, einsum_click_probability_grid(rho, *amplitudes))
