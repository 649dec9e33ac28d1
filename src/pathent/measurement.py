"""Displacement-based click measurements and the phase-averaged witness operator.

A measurement on one mode is a non-photon-number-resolving detector
preceded by a displacement D(alpha): outcome "no click" projects onto the
displaced vacuum, "click" onto its complement.  Detector inefficiency is
folded into the POVM through the adjoint loss channel with the
displacement amplitude rescaled to alpha*sqrt(eta), which is equivalent
to loss acting on the measured state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

import numpy as np

from . import fockcore as fc
from .herald import PhaseConfig

# Extra photon-number headroom used only when assembling witness-operator
# matrix elements; keeps low-lying elements accurate to ~1e-12 for
# |alpha| <= 1.5 while the POVMs stay on the caller's truncation.
_WITNESS_PADDING = 8


@dataclass(frozen=True)
class DisplacementSetting:
    """Mean displacement amplitude, its fluctuation interval, and phase."""

    alpha_mean: float
    alpha_min: float
    alpha_max: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha_min <= self.alpha_mean <= self.alpha_max:
            raise ValueError(
                f"need 0 <= alpha_min <= alpha_mean <= alpha_max, got "
                f"({self.alpha_min}, {self.alpha_mean}, {self.alpha_max})"
            )

    @classmethod
    def point(cls, alpha: float, phase: float = 0.0) -> "DisplacementSetting":
        return cls(alpha, alpha, alpha, phase)

    @property
    def amplitude(self) -> complex:
        """Complex displacement parameter used in the measurement."""
        return self.alpha_mean * np.exp(1j * self.phase)


@dataclass(frozen=True)
class DetectorModel:
    efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")


# Published probability tables are rounded per entry, so measured
# quadruples can miss unit sum by up to ~2e-4; computed ones stay at 1e-12.
PROB_SUM_ATOL = 2e-4


@dataclass(frozen=True)
class JointClickProbabilities:
    """Joint outcome probabilities for one (alpha_1, alpha_2) setting.

    Ordering is (no-click, no-click), (no-click, click), (click, no-click),
    (click, click) with the first slot on mode 1 (Alice).
    """

    p_nc_nc: float
    p_nc_c: float
    p_c_nc: float
    p_c_c: float

    def __post_init__(self):
        probs = self.as_array()
        if np.any(probs < -1e-9) or np.any(probs > 1.0 + 1e-9):
            raise ValueError(f"probabilities out of range: {probs}")
        if abs(probs.sum() - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"probabilities sum to {probs.sum()}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_nc_nc, self.p_nc_c, self.p_c_nc, self.p_c_c])


def click_povm(alpha: complex, det: DetectorModel, trunc: fc.FockTruncation):
    """POVM (E_noclick, E_click) of a displaced click detector with efficiency eta.

    E_noclick = Lambda_eta^dag[ D^dag(alpha sqrt(eta)) |0><0| D(alpha sqrt(eta)) ]
    and E_click = 1 - E_noclick, exactly complete by construction.
    """
    eta = det.efficiency
    disp = fc.displacement_operator(alpha * np.sqrt(eta), trunc).matrix
    vac = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    vac[0, 0] = 1.0
    e_nc = disp.conj().T @ vac @ disp
    e_nc = fc.adjoint_loss_channel(e_nc, eta, trunc)
    e_nc = 0.5 * (e_nc + e_nc.conj().T)
    e_c = np.eye(trunc.dim, dtype=complex) - e_nc
    return e_nc, e_c


def joint_click_probabilities(
    rho: fc.DensityOperator,
    s1: DisplacementSetting,
    s2: DisplacementSetting,
    d1: DetectorModel = DetectorModel(),
    d2: DetectorModel = DetectorModel(),
) -> JointClickProbabilities:
    """The four joint click/no-click probabilities of the tensor POVM on a two-mode state."""
    if rho.n_modes != 2 or rho.mode_dims[0] != rho.mode_dims[1]:
        raise ValueError(f"expected a two-mode state with equal dimensions, got {rho.mode_dims}")
    trunc = fc.FockTruncation(rho.mode_dims[0] - 1)
    povms_1 = np.array([click_povm(s1.amplitude, d1, trunc)])
    povms_2 = np.array([click_povm(s2.amplitude, d2, trunc)])
    return JointClickProbabilities(*click_probability_grid(rho.matrix, povms_1, povms_2)[0, 0])


def click_probability_grid(rho_matrix: np.ndarray, povms_1: np.ndarray, povms_2: np.ndarray) -> np.ndarray:
    """Joint click probabilities of a two-mode state for every pair of stacked POVMs.

    povms_k has shape (n_k, 2, d, d), each entry a (no-click, click) pair
    on mode k.  One contraction of rho reshaped to (d, d, d, d) gives
    tr[rho (E1 x E2)] for all n_1 x n_2 pairs; the result has shape
    (n_1, n_2, 4) in JointClickProbabilities order, clipped to [0, 1].
    """
    d = povms_1.shape[-1]
    t = rho_matrix.reshape(d, d, d, d)
    p = np.einsum("abcd,xica,yjdb->xyij", t, povms_1, povms_2, optimize=True).real
    return np.clip(p, 0.0, 1.0).reshape(len(povms_1), len(povms_2), 4)


def displaced_parity_observable(alpha: float, trunc: fc.FockTruncation) -> np.ndarray:
    """Single-mode observable D^dag(alpha)(2|0><0| - 1)D(alpha): +1 no-click, -1 click.

    Built with photon-number headroom and compressed back to the requested
    truncation so the low-lying matrix elements are accurate.
    """
    padded = fc.FockTruncation(trunc.n_max + _WITNESS_PADDING)
    disp = fc.displacement_operator(alpha, padded).matrix
    flip = -np.eye(padded.dim, dtype=complex)
    flip[0, 0] = 1.0
    sigma = disp.conj().T @ flip @ disp
    sigma = 0.5 * (sigma + sigma.conj().T)
    return sigma[: trunc.dim, : trunc.dim]


def phase_averaged_witness_operator(alpha1: float, alpha2: float, trunc: fc.FockTruncation) -> np.ndarray:
    """Two-mode witness operator averaged over the global displacement phase.

    The average over exp(i phi (n_1 + n_2)) conjugations removes every
    matrix element connecting different total-photon-number sectors, so
    it is applied structurally: elements between sectors are zeroed.
    """
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("displacement amplitudes must be real and nonnegative")
    w = np.kron(
        displaced_parity_observable(alpha1, trunc),
        displaced_parity_observable(alpha2, trunc),
    )
    return w * total_number_sector_mask(trunc)


def total_number_sector_mask(trunc: fc.FockTruncation) -> np.ndarray:
    """1 where two two-mode basis states hold the same total photon number, else 0."""
    n = np.arange(trunc.dim)
    totals = (n[:, None] + n[None, :]).ravel()
    return (totals[:, None] == totals[None, :]).astype(float)


def multiphoton_coincidence_probability(rho_single_mode: fc.DensityOperator, det: DetectorModel = DetectorModel()) -> float:
    """Probability of a twofold coincidence after a 50/50 split of one mode.

    This mirrors the Hanbury Brown-Twiss estimate of the probability of
    more than one photon in the mode.
    """
    if rho_single_mode.n_modes != 1:
        raise ValueError("expected a single-mode state")
    trunc = fc.FockTruncation(rho_single_mode.mode_dims[0] - 1)
    d = trunc.dim
    # adjoin a vacuum ancilla and split
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 1.0
    joint = np.kron(rho_single_mode.matrix, vac)
    bs = fc.beam_splitter_unitary(0.5, trunc).matrix
    joint = bs @ joint @ bs.conj().T
    _, e_c = click_povm(0.0, det, trunc)
    p = np.trace(joint @ np.kron(e_c, e_c)).real
    return float(min(max(p, 0.0), 1.0))


def p00_phase_model(alpha_abs: float, phases: PhaseConfig) -> float:
    """Closed-form joint no-click probability of the ideal heralded state.

    Valid for |alpha_1| = |alpha_2| = alpha_abs with the displacement
    phases derived from the same phase configuration as the state; the
    pump phases cancel.
    """
    delta_a = phases.zeta_a + phases.chi_a + phases.xi_a_long - phases.xi_a_short
    delta_b = phases.zeta_b + phases.chi_b + phases.xi_b_long - phases.xi_b_short
    interference = abs(np.exp(1j * delta_a) + np.exp(1j * delta_b)) ** 2
    return 0.5 * alpha_abs**2 * exp(-2.0 * alpha_abs**2) * interference


def displacement_settings_from_phases(
    alpha1: float, alpha2: float, phases: PhaseConfig
) -> tuple[DisplacementSetting, DisplacementSetting]:
    """Displacement settings whose phases follow the experiment's composition.

    The coherent field on each side inherits exp(i(phi - zeta + xi_short))
    from the pump, seed, and short AMZI arm.
    """
    s1 = DisplacementSetting.point(alpha1, phases.phi_a - phases.zeta_a + phases.xi_a_short)
    s2 = DisplacementSetting.point(alpha2, phases.phi_b - phases.zeta_b + phases.xi_b_short)
    return s1, s2
