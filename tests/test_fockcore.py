from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathent import fockcore as fc
from pathent import measurement as meas
from pathent.herald import SourceParams, simulate_heralded_state

from conftest import random_density_matrix
from reference import (
    annihilation_matrix,
    beam_splitter_unitary,
    displaced_parity_observable,
    displacement_operator,
    embed_state,
    expectation_value,
    fock_ket,
    loss_channel_kraus,
    loss_kraus_sum,
    pair_ket,
)


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Series oracle: <n|alpha> = e^{-|alpha|^2/2} alpha^n / sqrt(n!)."""
    n = np.arange(dim)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    return np.exp(-abs(alpha) ** 2 / 2) * alpha**n / np.sqrt(np.exp(log_fact))


def test_displacement_zero_is_identity():
    dim = 11
    d = displacement_operator(0.0, dim)
    assert np.max(np.abs(d - np.eye(dim))) < 1e-14


def test_displacement_vacuum_column_matches_coherent_series():
    dim = 13
    d = displacement_operator(0.83, dim)
    # D(alpha)|0> is the coherent state |alpha>; elements near the cutoff
    # carry the truncation error, so compare the interior
    expected = coherent_amplitudes(0.83, dim)
    assert np.max(np.abs(d[:8, 0] - expected[:8])) < 1e-9
    assert abs(d[0, 0] - np.exp(-0.6889 / 2)) < 1e-9


def test_displacement_single_photon_amplitude():
    dim = 13
    d = displacement_operator(1.0, dim)
    assert abs(d[1, 0] - np.exp(-0.5)) < 1e-9


def test_unitarity_on_interior_subspace():
    dim = 11
    inner = np.arange(dim - 2)  # photon number <= n_max - 2
    for alpha in (0.3, 0.83, 1.5):
        d = displacement_operator(alpha, dim)
        dev = d.conj().T @ d - np.eye(dim)
        assert np.max(np.abs(dev[np.ix_(inner, inner)])) < 1e-8
    u = beam_splitter_unitary(0.37, dim)
    dev = u.conj().T @ u - np.eye(dim**2)
    n = np.arange(dim)
    totals = (n[:, None] + n[None, :]).ravel()
    low = np.flatnonzero(totals <= dim - 3)
    assert np.max(np.abs(dev[np.ix_(low, low)])) < 1e-8


def taylor_expm(generator: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring oracle: a 30-term Taylor series of exp(G / 2^s), squared s times."""
    squarings = max(0, int(np.ceil(np.log2(max(np.linalg.norm(generator, 1), 1e-300) / 0.25))))
    g = generator / 2**squarings
    out = term = np.eye(len(g), dtype=complex)
    for k in range(1, 30):
        term = term @ g / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def assert_unitary_and_matches_oracle(generator: np.ndarray):
    u = fc.expm(generator)
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-13
    assert np.max(np.abs(u - taylor_expm(generator))) <= 1e-13


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.sampled_from([4, 11, 15, 19]),
    magnitude=st.floats(0.0, 1.6),
    phase=st.floats(0.0, 2 * np.pi),
)
def test_expm_of_displacement_generators(d, magnitude, phase):
    a = annihilation_matrix(d)
    alpha = magnitude * np.exp(1j * phase)
    assert_unitary_and_matches_oracle(alpha * a.conj().T - np.conjugate(alpha) * a)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.sampled_from([4, 6, 11]), transmission=st.floats(0.0, 1.0))
def test_expm_of_beam_splitter_generators(d, transmission):
    a = annihilation_matrix(d)
    phi = np.arccos(np.sqrt(transmission))
    assert_unitary_and_matches_oracle(phi * (np.kron(a, a.conj().T) - np.kron(a.conj().T, a)))


def test_beam_splitter_sign_convention():
    d = 4
    u = beam_splitter_unitary(0.5, d)
    out = u @ fock_ket((1, 0), d)
    idx10 = d  # |1,0>
    idx01 = 1  # |0,1>
    assert abs(out[idx10] - 1 / np.sqrt(2)) < 1e-12
    assert abs(out[idx01] - 1 / np.sqrt(2)) < 1e-12
    out = u @ fock_ket((0, 1), d)
    assert abs(out[idx10] + 1 / np.sqrt(2)) < 1e-12
    assert abs(out[idx01] - 1 / np.sqrt(2)) < 1e-12


def test_beam_splitter_transmission_one_is_identity():
    d = 5
    u = beam_splitter_unitary(1.0, d)
    assert np.max(np.abs(u - np.eye(d**2))) < 1e-12


def test_beam_splitter_hong_ou_mandel():
    d = 4
    u = beam_splitter_unitary(0.5, d)
    v11 = fock_ket((1, 1), d)
    amp = v11.conj() @ u @ v11
    assert abs(amp) ** 2 < 1e-24


def test_beam_splitter_rejects_bad_transmission():
    with pytest.raises(ValueError):
        beam_splitter_unitary(1.2, 4)


def test_loss_identity_and_single_photon():
    d = 4
    one = np.zeros((d, d), dtype=complex)
    one[1, 1] = 1.0
    rho = fc.DensityOperator(one, (d,))
    out = loss_kraus_sum(rho, 0, 0.6)
    assert abs(out[1, 1] - 0.6) < 1e-12
    assert abs(out[0, 0] - 0.4) < 1e-12


def test_loss_channel_sanity_random_states():
    # trace preserved and positivity kept for 1000 random states
    rng = np.random.default_rng(11)
    d = 5
    for _ in range(1000):
        rho = fc.DensityOperator(random_density_matrix(rng, d), (d,))
        eta = rng.uniform()
        out = fc.DensityOperator(loss_kraus_sum(rho, 0, eta), rho.mode_dims)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10


@pytest.mark.parametrize("eta", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("mode", [0, 1, 2])
@settings(max_examples=10, deadline=None)
@given(dims=st.permutations([3, 4, 5]), seed=st.integers(0, 2**32 - 1))
def test_loss_channel_matches_kraus_sum_on_three_modes(mode, eta, dims, seed):
    # unequal mode dimensions, so a mixed-up row or column axis changes the shape or the values; the Kraus
    # stack contracted on the mode's row and column axes, as the herald contracts it, against Kronecker products
    dims = tuple(dims)
    rho = fc.DensityOperator(random_density_matrix(np.random.default_rng(seed), prod(dims)), dims)
    kraus = loss_channel_kraus(eta, dims[mode])
    t = np.moveaxis(rho.matrix.reshape(dims * 2), (mode, 3 + mode), (0, 1))
    t = np.einsum("kab,kcd,bd...->ac...", kraus, kraus.conj(), t)
    out = fc.DensityOperator(np.moveaxis(t, (0, 1), (mode, 3 + mode)).reshape(rho.matrix.shape), dims)
    assert out.mode_dims == dims
    assert np.max(np.abs(out.matrix - loss_kraus_sum(rho, mode, eta))) <= 1e-14
    assert abs(np.trace(out.matrix) - np.trace(rho.matrix)) <= 1e-14


def test_loss_channel_kraus_is_trace_preserving():
    # sum_k K_k^dag K_k = 1 on every truncation the herald may use
    rng = np.random.default_rng(17)
    for n_max in range(2, 16):
        d = n_max + 1
        for eta in (0.0, 0.37, 1.0, *rng.uniform(size=4)):
            kraus = loss_channel_kraus(eta, d)
            completeness = np.einsum("kji,kjl->il", kraus.conj(), kraus)
            assert np.max(np.abs(completeness - np.eye(d))) <= 1e-14, (n_max, eta)


def test_loss_binomials_equal_math_comb():
    for n_max in (2, 3, 10, 15):
        k, n, binom = fc._loss_binomials(n_max + 1)
        assert binom.tolist() == [float(comb(m, j)) for m, j in zip(n.tolist(), k.tolist())]


def test_loss_channel_composition():
    rng = np.random.default_rng(5)
    rho = fc.DensityOperator(random_density_matrix(rng, 6), (6,))
    a = fc.DensityOperator(loss_kraus_sum(fc.DensityOperator(loss_kraus_sum(rho, 0, 0.7), (6,)), 0, 0.45), (6,))
    b = fc.DensityOperator(loss_kraus_sum(rho, 0, 0.7 * 0.45), (6,))
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10


def test_loss_channel_matches_beam_splitter_ancilla():
    # independent construction: vacuum ancilla, beam splitter, trace ancilla
    rng = np.random.default_rng(3)
    d = 6
    eta = 0.62
    rho = fc.DensityOperator(random_density_matrix(rng, d), (d,))
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 1.0
    joint = np.kron(rho.matrix, vac)
    u = beam_splitter_unitary(eta, d)
    joint = u @ joint @ u.conj().T
    reduced = np.trace(joint.reshape(d, d, d, d), axis1=1, axis2=3)
    direct = loss_kraus_sum(rho, 0, eta)
    assert np.max(np.abs(reduced - direct)) < 1e-12


def test_two_mode_squeezed_state_examples():
    d = 4
    ket = pair_ket(0.0, d)
    vac = np.outer(ket, ket.conj())
    assert abs(vac[0, 0] - 1.0) < 1e-12
    ket = pair_ket(3e-3, d)
    rho = fc.DensityOperator(np.outer(ket, ket.conj()), (d, d))
    diag = np.diag(rho.matrix).real.reshape(4, 4)
    assert abs(diag[2, 2] / diag[1, 1] - 3e-3) < 1e-12
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-10
    with pytest.raises(ValueError):
        fc.pair_amplitudes(0.5, d)
    with pytest.raises(ValueError):
        fc.pair_amplitudes(-0.1, d)


def test_expectation_value_examples():
    d = 5
    rng = np.random.default_rng(2)
    rho = fc.DensityOperator(random_density_matrix(rng, d), (d,))
    assert abs(expectation_value(rho, np.eye(d)) - 1.0) < 1e-12

    sigma0 = displaced_parity_observable(0.0, d)
    vac = np.zeros(d, dtype=complex)
    vac[0] = 1.0
    assert abs(expectation_value(fc.DensityOperator(np.outer(vac, vac.conj()), (d,)), sigma0) - 1.0) < 1e-12
    one = np.zeros(d, dtype=complex)
    one[1] = 1.0
    assert abs(expectation_value(fc.DensityOperator(np.outer(one, one.conj()), (d,)), sigma0) + 1.0) < 1e-12

    with pytest.raises(ValueError):
        expectation_value(rho, np.eye(3))
    with pytest.raises(ValueError):
        expectation_value(rho, np.diag(np.arange(d)) * 1j)


def test_density_operator_validation():
    bad_trace = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        fc.DensityOperator(bad_trace, (3,))
    not_hermitian = np.diag([1.0, 0.0, 0.0]).astype(complex)
    not_hermitian[0, 1] = 1e-6
    with pytest.raises(ValueError):
        fc.DensityOperator(not_hermitian, (3,))
    not_positive = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        fc.DensityOperator(not_positive, (3,))


def test_truncation_convergence_of_downstream_probabilities():
    # joint click probabilities at the operating point move by < 1e-6
    # between n_max = 8 and n_max = 12
    heralded, _ = simulate_heralded_state(SourceParams(pair_probability=3e-3), (1.0, 1.0), 4)
    results = []
    for n_max in (8, 12):
        rho = embed_state(heralded, n_max + 1)
        jp = meas.joint_click_probabilities(rho, 0.85, 0.85)
        results.append(jp.as_array())
    assert np.max(np.abs(results[0] - results[1])) < 1e-6
