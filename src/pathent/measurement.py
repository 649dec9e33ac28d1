"""Displacement-based click measurements and the phase-averaged witness operator.

A measurement on one mode is a non-photon-number-resolving detector
preceded by a displacement D(alpha): outcome "no click" projects onto the
displaced vacuum, the coherent state |-alpha>, "click" onto its
complement.  Its amplitudes are closed form, so the projector is exact on
the levels of whatever state it measures.  The detectors are ideal:
one of efficiency eta is loss eta on the state in front of an ideal
detector displaced by alpha*sqrt(eta), and callers apply both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fockcore as fc

# exp(-64**2) is exactly 0.0 in double precision, so every no-click
# projector and every factor of the bounds has reached its limit there;
# larger amplitudes are clipped to it before a**2 or a**4 can overflow.
AMPLITUDE_CLIP = 64.0


@dataclass(frozen=True)
class DisplacementSetting:
    """Mean displacement amplitude and its fluctuation interval."""

    alpha_mean: float
    alpha_min: float
    alpha_max: float

    def __post_init__(self):
        if not 0.0 <= self.alpha_min <= self.alpha_mean <= self.alpha_max:
            raise ValueError(
                f"need 0 <= alpha_min <= alpha_mean <= alpha_max, got "
                f"({self.alpha_min}, {self.alpha_mean}, {self.alpha_max})"
            )

    def scaled(self, factor: float) -> "DisplacementSetting":
        """The interval times a nonnegative factor, such as sqrt(eta) for what a detector of efficiency eta sees."""
        return DisplacementSetting(self.alpha_mean * factor, self.alpha_min * factor, self.alpha_max * factor)


# Published probability tables are rounded per entry, so measured
# quadruples can miss unit sum by up to ~2e-4; computed ones stay at 1e-12.
PROB_SUM_ATOL = 2e-4


@dataclass(frozen=True)
class JointClickProbabilities:
    """Joint outcome probabilities for one (alpha_1, alpha_2) setting, or a grid of them.

    Ordering is (no-click, no-click), (no-click, click), (click, no-click),
    (click, click) with the first slot on mode 1 (Alice).  The fields may
    be arrays of one shape, one entry per setting; each entry is checked,
    and a non-finite one is out of range.
    """

    p_nc_nc: float
    p_nc_c: float
    p_c_nc: float
    p_c_c: float

    def __post_init__(self):
        probs = self.as_array()
        if not ((probs >= -1e-9) & (probs <= 1.0 + 1e-9)).all():
            raise ValueError(f"probabilities out of range: {probs}")
        sums = probs.sum(axis=0)
        if (np.abs(sums - 1.0) > PROB_SUM_ATOL).any():
            raise ValueError(f"probabilities sum to {sums}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_nc_nc, self.p_nc_c, self.p_c_nc, self.p_c_c])


def click_povm(alpha, d: int) -> np.ndarray:
    """POVM pairs (E_noclick, E_click) of an ideal displaced click detector.

    E_noclick = |w><w| with w = D^dag(alpha)|0> = |-alpha>, the coherent
    state with amplitudes w_n = e^{-|alpha|^2/2} (-alpha)^n / sqrt(n!), and
    E_click = 1 - E_noclick, on the d lowest levels.  alpha may be an
    array; the result has shape alpha.shape + (2, d, d).  |alpha| is
    clipped at AMPLITUDE_CLIP.  Each w_n is the running product
    w_{n-1} (-|alpha|) / sqrt(n), times the phase e^{i n arg alpha}, so no
    intermediate exceeds 1, and alpha = 0 gives |0><0| exactly.
    """
    amp = np.asarray(alpha, dtype=complex)
    r = np.minimum(np.abs(amp), AMPLITUDE_CLIP)[..., None]
    n = np.arange(d)
    ratios = np.concatenate([np.exp(-0.5 * r**2), -r / np.sqrt(n[1:])], axis=-1)
    w = np.cumprod(ratios, axis=-1) * np.exp(1j * np.angle(amp)[..., None] * n)
    e_nc = w[..., :, None] * w[..., None, :].conj()
    return np.stack([e_nc, np.eye(d) - e_nc], axis=-3)


def joint_click_probabilities(rho: fc.DensityOperator, alpha_1: complex, alpha_2: complex) -> JointClickProbabilities:
    """The four joint click/no-click probabilities at one amplitude pair: click_probability_grid at one point."""
    if rho.n_modes != 2 or rho.mode_dims[0] != rho.mode_dims[1]:
        raise ValueError(f"expected a two-mode state with equal dimensions, got {rho.mode_dims}")
    return JointClickProbabilities(*click_probability_grid(rho, [alpha_1], [alpha_2])[0, 0])


def click_probability_grid(rho: fc.DensityOperator, amplitudes_1, amplitudes_2) -> np.ndarray:
    """Joint click probabilities of a two-mode state for every pair of displacement amplitudes.

    The detectors are ideal.  Every POVM comes from one click_povm call on
    the state's own d levels per mode, which is exact: the state is zero
    outside them.  One contraction of rho reshaped to (d, d, d, d) gives
    tr[rho (E1 x E2)] for all n_1 x n_2 pairs; the result has shape
    (n_1, n_2, 4) in JointClickProbabilities order, clipped to [0, 1].
    """
    amplitudes = [np.asarray(amps, dtype=complex) for amps in (amplitudes_1, amplitudes_2)]
    d = rho.mode_dims[0]
    povms = click_povm(np.concatenate(amplitudes), d)
    n_1 = len(amplitudes[0])
    t, first, second = rho.matrix.reshape(d, d, d, d), povms[:n_1], povms[n_1:]
    # einsum("abcd,xica,yjdb->xyij", t, first, second) as the matmuls of the path optimize=True finds, bitwise:
    # the state meets the smaller stack first, so the modes swap roles when that is mode 2's
    swap = len(second) < n_1
    if swap:
        t, first, second = t.transpose(1, 0, 3, 2), second, first
    ixbd = (first.reshape(-1, d * d) @ t.transpose(2, 0, 1, 3).reshape(d * d, -1)).reshape(len(first), 2, -1)
    ixyj = ixbd.transpose(1, 0, 2).reshape(-1, d * d) @ second.transpose(3, 2, 0, 1).reshape(d * d, -1)
    p = ixyj.reshape(2, len(first), len(second), 2).transpose((2, 1, 3, 0) if swap else (1, 2, 0, 3)).real
    return np.clip(p, 0.0, 1.0).reshape(n_1, -1, 4)


def phase_averaged_witness_operator(alpha1: float, alpha2: float, d: int) -> np.ndarray:
    """Two-mode witness operator on d levels per mode, averaged over the global displacement phase.

    Each mode contributes its displaced parity 2 E_noclick - 1 (+1 no-click,
    -1 click).  The average over exp(i phi (n_1 + n_2)) conjugations removes
    every matrix element connecting different total-photon-number sectors,
    so it is applied structurally: elements between sectors are zeroed.
    """
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("displacement amplitudes must be real and nonnegative")
    parity_1, parity_2 = (2.0 * click_povm(a, d)[0] - np.eye(d) for a in (alpha1, alpha2))
    n = np.arange(d)
    totals = (n[:, None] + n[None, :]).ravel()
    return np.kron(parity_1, parity_2) * (totals[:, None] == totals[None, :])


def multiphoton_coincidence_probability(populations: np.ndarray) -> float:
    """Probability of a twofold coincidence after a 50/50 split of one mode, with ideal detectors.

    This mirrors the Hanbury Brown-Twiss estimate of the probability of
    more than one photon in the mode.  The second input port is vacuum,
    the split conserves photon number and the undisplaced click POVMs are
    diagonal, so only the mode's detected photon-number distribution
    enters: populations[n] is the probability of n photons, and n photons
    make both detectors click with probability 1 - 2 (1/2)^n + 0^n.
    This is exact in the truncation.
    """
    n = np.arange(len(populations))
    p = populations @ (1.0 - 2.0 * 0.5**n + 0.0**n)
    return float(min(max(p, 0.0), 1.0))


