"""Truncated-Fock-space linear algebra for few-mode bosonic systems.

States and operators are dense numpy arrays over the occupation-number
basis of one or more modes, all truncated at the same maximum photon
number.  Multi-mode objects use the row-major Kronecker ordering, i.e.
the basis index of |n_0, n_1, ...> is n_0*d^(m-1) + ... + n_{m-1}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import prod

import numpy as np
from scipy.linalg import expm

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
NORM_TOL = 1e-12


@dataclass(frozen=True)
class FockTruncation:
    """Per-mode photon-number cutoff; the local dimension is n_max + 1."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(
                f"n_max must be at least 2 to keep two-photon coherences, got {self.n_max}"
            )

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """A dense operator over one or more modes sharing a truncation."""

    matrix: np.ndarray
    truncation: FockTruncation
    n_modes: int = 1

    def __post_init__(self):
        dim = self.truncation.dim**self.n_modes
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"operator shape {self.matrix.shape} does not match "
                f"{self.n_modes} mode(s) at dimension {self.truncation.dim}"
            )

    @property
    def mode_dims(self) -> tuple[int, ...]:
        return (self.truncation.dim,) * self.n_modes


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Trace-one positive operator on a tensor product of truncated modes."""

    matrix: np.ndarray
    mode_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mode_dims", tuple(int(d) for d in self.mode_dims))
        dim = prod(self.mode_dims)
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match modes {self.mode_dims}")
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix is not Hermitian (deviation {herm:.3e})")
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        eigmin = float(np.linalg.eigvalsh(self.matrix)[0])
        if eigmin < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigmin:.3e}")

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    @property
    def dim(self) -> int:
        return prod(self.mode_dims)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over truncated modes."""

    amplitudes: np.ndarray
    mode_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mode_dims", tuple(int(d) for d in self.mode_dims))
        dim = prod(self.mode_dims)
        if self.amplitudes.shape != (dim,):
            raise ValueError(f"amplitude shape {self.amplitudes.shape} does not match modes {self.mode_dims}")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm is {norm}, expected 1")

    def to_density(self) -> DensityOperator:
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.mode_dims)


def annihilation_matrix(trunc: FockTruncation) -> np.ndarray:
    """Single-mode annihilation operator a with a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, trunc.dim, dtype=float)), 1).astype(complex)


def fock_ket(occupations, trunc: FockTruncation) -> np.ndarray:
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


def displacement_operator(alpha: complex, trunc: FockTruncation) -> ModeOperator:
    """Displacement D(alpha) = exp(alpha a^dag - alpha^* a) on the truncated space.

    Computed as the matrix exponential of the truncated generator, so the
    result is exactly unitary within the truncation.  Matrix elements near
    the cutoff deviate from their infinite-dimensional values; keep
    |alpha|^2 well below n_max.
    """
    if abs(alpha) ** 2 > trunc.n_max / 4:
        warnings.warn(
            f"|alpha|^2 = {abs(alpha) ** 2:.3f} is large for n_max = {trunc.n_max}; "
            "displaced-state support may reach the truncation boundary",
            stacklevel=2,
        )
    a = annihilation_matrix(trunc)
    gen = alpha * a.conj().T - np.conjugate(alpha) * a
    return ModeOperator(expm(gen), trunc)


def beam_splitter_unitary(transmission: float, trunc: FockTruncation) -> ModeOperator:
    """Two-mode beam splitter with intensity transmission eta = cos^2(phi).

    Sign convention (fixed once, all downstream phases refer to it):
        U|1,0> = cos(phi)|1,0> + sin(phi)|0,1>
        U|0,1> = -sin(phi)|1,0> + cos(phi)|0,1>
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    phi = np.arccos(np.sqrt(transmission))
    a = annihilation_matrix(trunc)
    gen = phi * (np.kron(a, a.conj().T) - np.kron(a.conj().T, a))
    return ModeOperator(expm(gen), trunc, n_modes=2)


def loss_channel_kraus(eta: float, trunc: FockTruncation) -> list[np.ndarray]:
    """Kraus operators of the single-mode loss channel with transmission eta.

    Equivalent to a beam splitter of transmission eta with a vacuum ancilla
    that is traced out: K_k maps |n> -> sqrt(C(n,k) eta^(n-k) (1-eta)^k) |n-k>.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {eta}")
    d = trunc.dim
    n = np.arange(d)
    kraus = []
    for k in range(d):
        coeff = np.zeros(d)
        valid = n >= k
        nv = n[valid]
        # binomial via cumulative products to stay exact for small d
        binom = np.array([_binomial(int(m), k) for m in nv], dtype=float)
        coeff[valid] = np.sqrt(binom * eta ** (nv - k) * (1.0 - eta) ** k)
        K = np.zeros((d, d), dtype=complex)
        K[nv - k, nv] = coeff[valid]
        kraus.append(K)
    return kraus


def _binomial(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def loss_channel(rho: DensityOperator, mode: int, eta: float) -> DensityOperator:
    """Apply photon loss with transmission eta to one mode of rho."""
    if not 0 <= mode < rho.n_modes:
        raise ValueError(f"mode index {mode} out of range for {rho.n_modes} modes")
    if eta == 1.0:
        return rho
    m = rho.n_modes
    kraus = np.array(loss_channel_kraus(eta, FockTruncation(rho.mode_dims[mode] - 1)))
    # axes 0..m-1 index rows, m..2m-1 columns; k sums over the Kraus stack
    k, row, col = 2 * m, 2 * m + 1, 2 * m + 2
    axes = list(range(2 * m))
    out_axes = [row if a == mode else col if a == m + mode else a for a in axes]
    t = rho.matrix.reshape(rho.mode_dims * 2)
    out = np.einsum(kraus, [k, row, mode], t, axes, kraus.conj(), [k, col, m + mode], out_axes, optimize=True)
    return DensityOperator(_hermitize(out.reshape(rho.matrix.shape)), rho.mode_dims)


def adjoint_loss_channel(obs: np.ndarray, eta: float, trunc: FockTruncation) -> np.ndarray:
    """Heisenberg-picture (adjoint) loss channel on a single-mode observable."""
    if eta == 1.0:
        return obs
    out = np.zeros_like(obs, dtype=complex)
    for K in loss_channel_kraus(eta, trunc):
        out += K.conj().T @ obs @ K
    return out


def two_mode_squeezed_state(pair_probability: float, trunc: FockTruncation) -> DensityOperator:
    """Two-mode squeezed vacuum parameterized by the pair probability p = tanh^2 r."""
    ket = two_mode_squeezed_ket(pair_probability, trunc)
    return PureState(ket, (trunc.dim, trunc.dim)).to_density()


def two_mode_squeezed_ket(pair_probability: float, trunc: FockTruncation, pair_phase: float = 0.0) -> np.ndarray:
    """State vector sum_n lambda^n |n,n> with lambda = sqrt(p) e^{i pair_phase}, renormalized after truncation."""
    if not 0.0 <= pair_probability < 0.5:
        raise ValueError(f"pair probability must lie in [0, 0.5), got {pair_probability}")
    d = trunc.dim
    lam = np.sqrt(pair_probability) * np.exp(1j * pair_phase)
    amps = lam ** np.arange(d)
    ket = np.zeros(d * d, dtype=complex)
    ket[np.arange(d) * d + np.arange(d)] = amps
    return ket / np.linalg.norm(ket)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced state on the kept modes (returned in the order given by keep)."""
    keep = tuple(int(k) for k in keep)
    if not keep:
        raise ValueError("keep must name at least one mode")
    if len(set(keep)) != len(keep) or any(not 0 <= k < rho.n_modes for k in keep):
        raise ValueError(f"invalid mode set {keep} for {rho.n_modes} modes")
    mat = _partial_trace_matrix(rho.matrix, rho.mode_dims, keep)
    return DensityOperator(_hermitize(mat), tuple(rho.mode_dims[k] for k in keep))


def _partial_trace_matrix(mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    m = len(dims)
    drop = [i for i in range(m) if i not in keep]
    t = mat.reshape(dims + dims)
    remaining = list(range(m))
    for mode in sorted(drop, reverse=True):
        axis = remaining.index(mode)
        t = np.trace(t, axis1=axis, axis2=axis + len(remaining))
        remaining.pop(axis)
    # remaining modes are in ascending order; permute to requested order
    perm = [remaining.index(k) for k in keep]
    t = t.transpose(perm + [p + len(remaining) for p in perm])
    dim = prod([dims[k] for k in keep])
    return t.reshape(dim, dim)


def expectation_value(rho: DensityOperator, obs) -> float:
    """tr(rho obs) for a Hermitian observable; the residual imaginary part is checked then dropped."""
    mat = obs.matrix if isinstance(obs, ModeOperator) else np.asarray(obs)
    if mat.shape != rho.matrix.shape:
        raise ValueError(f"dimension mismatch: observable {mat.shape} vs state {rho.matrix.shape}")
    herm = np.max(np.abs(mat - mat.conj().T))
    if herm > 1e-10:
        raise ValueError(f"observable is not Hermitian (deviation {herm:.3e})")
    val = np.trace(rho.matrix @ mat)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation value has imaginary part {val.imag:.3e}")
    return float(val.real)


def embed_state(rho: DensityOperator, trunc: FockTruncation) -> DensityOperator:
    """Zero-pad every mode of rho to the (larger or equal) target truncation."""
    new_dims = (trunc.dim,) * rho.n_modes
    if new_dims == rho.mode_dims:
        return rho
    if any(trunc.dim < d for d in rho.mode_dims):
        raise ValueError("target truncation is smaller than the state's support")
    t = rho.matrix.reshape(rho.mode_dims + rho.mode_dims)
    pad = [(0, trunc.dim - d) for d in rho.mode_dims] * 2
    t = np.pad(t, pad)
    dim = prod(new_dims)
    return DensityOperator(t.reshape(dim, dim), new_dims)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)
