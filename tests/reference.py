"""Reference helpers the tests build states and oracles with; no CLI path needs them."""

from math import cos, exp, prod

import numpy as np

from pathent import fockcore as fc
from pathent.config import Displacement
from pathent.herald import PhaseConfig
from pathent.measurement import DisplacementSetting, click_povm
from pathent.pipeline import format_float

DENSE_GRID_POINTS = 101
DENSE_REFINEMENT_TOL = 1e-9


def fock_ket(occupations, trunc: fc.FockTruncation) -> np.ndarray:
    """Basis vector |n_0, n_1, ...> over len(occupations) modes."""
    d = trunc.dim
    idx = 0
    for n in occupations:
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} outside truncation (n_max={trunc.n_max})")
        idx = idx * d + int(n)
    vec = np.zeros(d ** len(tuple(occupations)), dtype=complex)
    vec[idx] = 1.0
    return vec


def expectation_value(rho: fc.DensityOperator, obs: np.ndarray) -> float:
    """tr(rho obs) for a Hermitian observable; the residual imaginary part is checked then dropped."""
    mat = np.asarray(obs)
    if mat.shape != rho.matrix.shape:
        raise ValueError(f"dimension mismatch: observable {mat.shape} vs state {rho.matrix.shape}")
    herm = np.max(np.abs(mat - mat.conj().T))
    if herm > 1e-10:
        raise ValueError(f"observable is not Hermitian (deviation {herm:.3e})")
    val = np.trace(rho.matrix @ mat)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation value has imaginary part {val.imag:.3e}")
    return float(val.real)


def embed_state(rho: fc.DensityOperator, trunc: fc.FockTruncation) -> fc.DensityOperator:
    """Zero-pad every mode of rho to the (larger or equal) target truncation.

    The pipeline measures the state on its own support; this padded copy
    with measurement.joint_click_probabilities is the reference the tests
    check it against.
    """
    new_dims = (trunc.dim,) * rho.n_modes
    if new_dims == rho.mode_dims:
        return rho
    if any(trunc.dim < d for d in rho.mode_dims):
        raise ValueError("target truncation is smaller than the state's support")
    t = rho.matrix.reshape(rho.mode_dims + rho.mode_dims)
    pad = [(0, trunc.dim - d) for d in rho.mode_dims] * 2
    t = np.pad(t, pad)
    dim = prod(new_dims)
    return fc.DensityOperator(t.reshape(dim, dim), new_dims)


def ideal_lossy_state(eta: float, relative_phase: float, trunc: fc.FockTruncation) -> fc.DensityOperator:
    """(1-eta)|00><00| + eta |psi><psi| with |psi> = (|10> + e^{i phi}|01>)/sqrt(2)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    psi = (fock_ket((1, 0), trunc) + np.exp(1j * relative_phase) * fock_ket((0, 1), trunc)) / np.sqrt(2.0)
    vac = fock_ket((0, 0), trunc)
    mat = (1.0 - eta) * np.outer(vac, vac.conj()) + eta * np.outer(psi, psi.conj())
    return fc.DensityOperator(mat, (trunc.dim, trunc.dim))


def signal_phases(phases: PhaseConfig) -> tuple[float, float]:
    """(Alice, Bob) rotation angles theta of e^{i theta n} on each heralded signal: pump, station arm, long arm.

    A pair source holds equal photon numbers in signal and idler, so the
    pump phase on its pair amplitude and the chi phase on its idler act as
    phases on its signal.
    """
    return phases.phi_a + phases.chi_a + phases.xi_a_long, phases.phi_b + phases.chi_b + phases.xi_b_long


def displacement_phases(phases: PhaseConfig) -> tuple[float, float]:
    """(Alice, Bob) phases of the displacement fields: pump, minus seed, plus short interferometer arm."""
    return phases.phi_a - phases.zeta_a + phases.xi_a_short, phases.phi_b - phases.zeta_b + phases.xi_b_short


def deltas(phases: PhaseConfig) -> tuple[float, float]:
    """(delta_A, delta_B): each side's signal phase minus its displacement phase; the pump drops out."""
    return tuple(s - t for s, t in zip(signal_phases(phases), displacement_phases(phases)))


def rotate_signals(rho: np.ndarray, thetas) -> np.ndarray:
    """U rho U^dag on a two-mode matrix, U = e^{i theta_A n} x e^{i theta_B n}."""
    d = round(np.sqrt(len(rho)))
    n = np.arange(d)
    u = np.kron(np.exp(1j * thetas[0] * n), np.exp(1j * thetas[1] * n))
    return u[:, None] * rho * u.conj()[None, :]


def relative_state_phase(phases: PhaseConfig) -> float:
    """Phase of the |01> component relative to |10> in the phased heralded state."""
    theta_a, theta_b = signal_phases(phases)
    return theta_b - theta_a


def p00_phase_model(alpha_abs: float, phases: PhaseConfig) -> float:
    """Closed-form joint no-click probability of the ideal heralded state.

    Valid for |alpha_1| = |alpha_2| = alpha_abs with the displacement
    phases derived from the same phase configuration as the state; the
    pump phases cancel, and the two single-photon paths interfere with
    the locking invariant delta_A - delta_B as their phase difference.
    """
    delta_a, delta_b = deltas(phases)
    return alpha_abs**2 * exp(-2.0 * alpha_abs**2) * (1.0 + cos(delta_a - delta_b))


def point_setting(alpha: float) -> DisplacementSetting:
    """A displacement setting without fluctuation: alpha_min = alpha_mean = alpha_max."""
    return DisplacementSetting(alpha, alpha, alpha)


def point_displacement(alpha1: float, alpha2: float) -> Displacement:
    """A config's displacement section made of two point settings."""
    return Displacement(alpha1, alpha1, alpha1, alpha2, alpha2, alpha2)


def displaced_parity_observable(alpha: float, trunc: fc.FockTruncation) -> np.ndarray:
    """Single-mode observable D^dag(alpha)(2|0><0| - 1)D(alpha) = 2 E_noclick - 1: +1 no-click, -1 click."""
    return 2.0 * click_povm(alpha, trunc)[0] - np.eye(trunc.dim)


# Photon-number headroom at which a truncated D(alpha) is converged on the
# levels below it: at n_max + 30 its vacuum row agrees with the closed-form
# coherent amplitudes to rounding, <= 2e-15 for |alpha| <= 2.
DISPLACEMENT_PADDING = 30


def annihilation_matrix(trunc: fc.FockTruncation) -> np.ndarray:
    """Single-mode annihilation operator a with a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, trunc.dim, dtype=float)), 1).astype(complex)


def displacement_operator(alpha: complex, trunc: fc.FockTruncation) -> np.ndarray:
    """Displacement D(alpha) = exp(alpha a^dag - alpha^* a) on the truncated space, from expm of its generator.

    The truncated generator is anti-Hermitian, so the result is unitary
    within the truncation.  Matrix elements near the cutoff deviate from
    their infinite-dimensional values; keep |alpha|^2 well below n_max.
    """
    a = annihilation_matrix(trunc)
    return fc.expm(alpha * a.conj().T - np.conjugate(alpha) * a)


def beam_splitter_unitary(transmission: float, trunc: fc.FockTruncation) -> np.ndarray:
    """Truncated two-mode beam splitter with intensity transmission eta = cos^2(phi), from expm of its generator.

    Sign convention (the herald's station POVM refers to it):
        U|1,0> = cos(phi)|1,0> + sin(phi)|0,1>
        U|0,1> = -sin(phi)|1,0> + cos(phi)|0,1>
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    phi = np.arccos(np.sqrt(transmission))
    a = annihilation_matrix(trunc)
    gen = phi * (np.kron(a, a.conj().T) - np.kron(a.conj().T, a))
    return fc.expm(gen)


def adjoint_loss(obs: np.ndarray, eta: float, trunc: fc.FockTruncation) -> np.ndarray:
    """Heisenberg-picture loss channel sum_k K_k^dag O K_k on one observable, one Kraus operator at a time."""
    out = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    for kraus in fc.loss_channel_kraus(eta, trunc):
        out += kraus.conj().T @ obs @ kraus
    return out


def pair_ket(pair_probability: float, trunc: fc.FockTruncation) -> np.ndarray:
    """A pair source's (signal, idler) state vector sum_n c_n |n,n>, from fc.pair_amplitudes."""
    return np.diag(fc.pair_amplitudes(pair_probability, trunc)).ravel()


def loss_kraus_sum(rho: fc.DensityOperator, mode: int, eta: float) -> np.ndarray:
    """Schroedinger-picture loss on one mode as sum_k (1 x K_k x 1) rho (1 x K_k x 1)^dag, from Kronecker products."""
    dims = rho.mode_dims
    before, after = np.eye(prod(dims[:mode])), np.eye(prod(dims[mode + 1:]))
    out = np.zeros_like(rho.matrix)
    for kraus in fc.loss_channel_kraus(eta, fc.FockTruncation(dims[mode] - 1)):
        op = np.kron(np.kron(before, kraus), after)
        out += op @ rho.matrix @ op.conj().T
    return out


def lossy_click_povm(alpha: complex, eta: float, trunc: fc.FockTruncation) -> np.ndarray:
    """(E_noclick, E_click) of a displaced click detector of efficiency eta, in the Heisenberg picture.

    E_noclick = Lambda_eta^dag(|w><w|) with w = D^dag(alpha sqrt(eta))|0>
    from the full displacement operator, built DISPLACEMENT_PADDING levels
    above trunc and cut back to it, and E_click = 1 - E_noclick.  Loss
    only lowers photon numbers, so the cut commutes with Lambda_eta^dag.
    """
    padded = fc.FockTruncation(trunc.n_max + DISPLACEMENT_PADDING)
    row = displacement_operator(alpha * np.sqrt(eta), padded)[0, : trunc.dim]
    e_nc = adjoint_loss(np.outer(row.conj(), row), eta, trunc)
    return np.array([e_nc, np.eye(trunc.dim) - e_nc])


def lossy_click_probabilities(rho: np.ndarray, amplitudes_1, amplitudes_2, eta_1: float, eta_2: float,
                              trunc: fc.FockTruncation) -> np.ndarray:
    """tr[rho (E_1 x E_2)] for lossy_click_povm pairs on a two-mode matrix at trunc, from Kronecker products.

    The result has shape (n_1, n_2, 4) in JointClickProbabilities order.
    """
    povms_2 = [lossy_click_povm(a, eta_2, trunc) for a in amplitudes_2]
    return np.array([
        [[np.trace(rho @ np.kron(e1, e2)).real for e1 in lossy_click_povm(a, eta_1, trunc) for e2 in pair_2]
         for pair_2 in povms_2]
        for a in amplitudes_1
    ])


def lossy_coincidence_probability(rho: np.ndarray, eta: float) -> float:
    """HBT coincidence of one mode: a vacuum ancilla, the truncated 50/50 beam splitter, two lossy_click_povm clicks."""
    d = len(rho)
    trunc = fc.FockTruncation(d - 1)
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 1.0
    bs = beam_splitter_unitary(0.5, trunc)
    joint = bs @ np.kron(rho, vac) @ bs.conj().T
    _, e_c = lossy_click_povm(0.0, eta, trunc)
    return float(np.trace(joint @ np.kron(e_c, e_c)).real)


def maximize_over_box_dense(objective, i1, i2):
    """Grid-search maximum and maximizer over the box, every axis sampled 101 times, zero-width ones included.

    A coarse 101x101 grid is refined one cell around the argmax per round
    until the maximum improves by less than 1e-9; ties resolve to the
    lowest grid index.  A heuristic: it can miss an interior maximum by
    ~5e-8, but at a corner maximum it evaluates the corner itself.
    """
    lo1, hi1 = i1.alpha_min, i1.alpha_max
    lo2, hi2 = i2.alpha_min, i2.alpha_max
    best = -np.inf
    best_point = (lo1, lo2)
    for _ in range(40):
        a1 = np.linspace(lo1, hi1, DENSE_GRID_POINTS)
        a2 = np.linspace(lo2, hi2, DENSE_GRID_POINTS)
        grid = objective(a1[:, None], a2[None, :])
        j1, j2 = np.unravel_index(int(np.argmax(grid)), grid.shape)
        value = float(grid[j1, j2])
        point = (float(a1[j1]), float(a2[j2]))
        improved = value > best + DENSE_REFINEMENT_TOL
        if value > best:
            best, best_point = value, point
        step1 = (hi1 - lo1) / (DENSE_GRID_POINTS - 1)
        step2 = (hi2 - lo2) / (DENSE_GRID_POINTS - 1)
        if not improved and max(step1, step2) < 1e-6:
            break
        lo1 = max(i1.alpha_min, point[0] - step1)
        hi1 = min(i1.alpha_max, point[0] + step1)
        lo2 = max(i2.alpha_min, point[1] - step2)
        hi2 = min(i2.alpha_max, point[1] + step2)
        if hi1 - lo1 <= 0 and hi2 - lo2 <= 0:
            break
    return best, best_point


def einsum_click_probability_grid(rho: fc.DensityOperator, amplitudes_1, amplitudes_2) -> np.ndarray:
    """click_probability_grid as one einsum on the path its matmuls follow: the state meets the smaller stack first."""
    amplitudes = [np.asarray(amps, dtype=complex) for amps in (amplitudes_1, amplitudes_2)]
    d, n_1 = rho.mode_dims[0], len(amplitudes[0])
    povms = click_povm(np.concatenate(amplitudes), fc.FockTruncation(d - 1))
    path = ["einsum_path", (0, 1) if n_1 <= len(amplitudes[1]) else (0, 2), (0, 1)]
    p = np.einsum("abcd,xica,yjdb->xyij", rho.matrix.reshape(d, d, d, d), povms[:n_1], povms[n_1:], optimize=path)
    return np.clip(p.real, 0.0, 1.0).reshape(n_1, -1, 4)


def rows_to_csv_per_cell(rows: list[dict]) -> str:
    """The oracle of pipeline.rows_to_csv: its header, then one format_float call per cell."""
    lines = [",".join(rows[0])] + [",".join(format_float(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"
