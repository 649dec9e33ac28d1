"""Truncated-Fock-space linear algebra for few-mode bosonic systems.

States and operators are dense numpy arrays over the occupation-number
basis of one or more modes, all truncated at the same maximum photon
number.  Multi-mode objects use the row-major Kronecker ordering, i.e.
the basis index of |n_0, n_1, ...> is n_0*d^(m-1) + ... + n_{m-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, prod

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10


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


def expm(generator: np.ndarray) -> np.ndarray:
    """exp(G) of an anti-Hermitian generator G = iH, as V diag(e^{i lambda}) V^dag.

    H = -iG = V diag(lambda) V^dag is Hermitian, so V is unitary and so is
    the result, to rounding.
    """
    eigenvalues, vectors = np.linalg.eigh(-1j * generator)
    return (vectors * np.exp(1j * eigenvalues)) @ vectors.conj().T


def loss_channel_kraus(eta: float, trunc: FockTruncation) -> np.ndarray:
    """Kraus operators of the single-mode loss channel with transmission eta, stacked as (k, row, col).

    Equivalent to a beam splitter of transmission eta with a vacuum ancilla
    that is traced out: K_k maps |n> -> sqrt(C(n,k) eta^(n-k) (1-eta)^k) |n-k>.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {eta}")
    d = trunc.dim
    k, n, binom = _loss_binomials(trunc)
    kraus = np.zeros((d, d, d))
    kraus[k, n - k, n] = np.sqrt(binom * eta ** (n - k) * (1.0 - eta) ** k)
    return kraus


@cache
def _loss_binomials(trunc: FockTruncation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every photon count k lost from a level n >= k, with C(n, k); built once per truncation, read-only."""
    k, n = np.triu_indices(trunc.dim)
    binom = np.array([comb(m, j) for m, j in zip(n, k)], dtype=float)
    for table in (k, n, binom):
        table.setflags(write=False)
    return k, n, binom


def pair_amplitudes(pair_probability: float, trunc: FockTruncation) -> np.ndarray:
    """Amplitudes c_n of a pair source sum_n c_n |n,n>: c_n = sqrt(p)^n, renormalized after truncation."""
    if not 0.0 <= pair_probability < 0.5:
        raise ValueError(f"pair probability must lie in [0, 0.5), got {pair_probability}")
    amplitudes = np.sqrt(pair_probability) ** np.arange(trunc.dim)
    return amplitudes / np.linalg.norm(amplitudes)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)
