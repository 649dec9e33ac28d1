"""Heralded preparation of the two-party path-entangled state.

Two squeezed-vacuum pair sources feed a central 50/50 beam splitter with
their idler modes; a click of a non-photon-number-resolving detector on
one output heralds the shared signal state.  Each source is pure before
loss; the station acts on the two idlers as a closed-form click POVM,
which photon-number conservation at the beam splitter gives, and idler
loss acts on that POVM.  The heralded state keeps (signal_A, signal_B).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fockcore as fc


class HeraldingError(RuntimeError):
    """No heralding event can occur for the given parameters."""


@dataclass(frozen=True)
class SourceParams:
    """Pair creation and transmission budget of the two sources.

    Idler transmissions cover everything between a crystal and the
    heralding detector (fiber, gating, filters, detector efficiency);
    signal transmissions cover the path to each measurement station.
    The false-herald probability is the chance that a registered herald
    was noise, 1/(1+SNR) for a measured signal-to-noise ratio.
    """

    pair_probability: float
    signal_transmission_a: float = 1.0
    signal_transmission_b: float = 1.0
    idler_transmission_a: float = 1.0
    idler_transmission_b: float = 1.0
    false_herald_probability: float = 0.0
    pair_probability_b: float | None = None

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @property
    def pair_probability_a(self) -> float:
        return self.pair_probability

    @property
    def effective_pair_probability_b(self) -> float:
        return self.pair_probability if self.pair_probability_b is None else self.pair_probability_b


@dataclass(frozen=True)
class PhaseConfig:
    """Optical phases of the setup, all in radians.

    phi: pump phase before each crystal; zeta: seed phase before each
    crystal; chi: crystal to central station; xi_long / xi_short: crystal
    to detector through the long / short arm of each measurement
    interferometer.  Phases act as propagation factors exp(i theta n).
    A side's displacement field shares the sources' pump, so its clicks see
    only delta = zeta + chi + xi_long - xi_short.  A field may be an array,
    one entry per setting; the derived phases then broadcast.
    """

    phi_a: float = 0.0
    phi_b: float = 0.0
    zeta_a: float = 0.0
    zeta_b: float = 0.0
    chi_a: float = 0.0
    chi_b: float = 0.0
    xi_a_long: float = 0.0
    xi_a_short: float = 0.0
    xi_b_long: float = 0.0
    xi_b_short: float = 0.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"phase {name} must be finite")

    @property
    def deltas(self) -> tuple[float, float]:
        """(delta_A, delta_B): each side's heralded-photon phase against its displacement field."""
        return (self.zeta_a + self.chi_a + self.xi_a_long - self.xi_a_short,
                self.zeta_b + self.chi_b + self.xi_b_long - self.xi_b_short)

    @property
    def measured_relative_phase(self) -> float:
        """The displacement-referenced relative phase whose cosine modulates the witness."""
        delta_a, delta_b = self.deltas
        return -(delta_a - delta_b)


@dataclass(frozen=True)
class HeraldedState:
    rho: fc.DensityOperator
    herald_probability: float

    def __post_init__(self):
        if not 0.0 <= self.herald_probability <= 1.0:
            raise ValueError(f"herald probability must lie in [0, 1], got {self.herald_probability}")


def simulate_heralded_state(src: SourceParams, efficiencies: tuple[float, float],
                            trunc: fc.FockTruncation) -> HeraldedState:
    """Heralded signal-pair state from the two pure sources and the station's click POVM; real and phase-free.

    Optical phases are left to the measurement: a pair source holds equal
    photon numbers in signal and idler, so its phases phi + chi + xi_long
    fold into one rotation U = e^{i theta n} of its signal.  U commutes with
    loss and with the idler-only station, and for a click POVM displaced by
    alpha, tr[U rho U^dag E(alpha)] = tr[rho E(alpha e^{-i theta})].  With the
    field's own phase phi - zeta + xi_short, a side measures the phase-free
    state at alpha e^{-i delta}, delta from PhaseConfig.deltas.  Before loss
    each source is pure, sum_n c_n |n, n>.  The station's 50/50 beam
    splitter conserves the idler number J = j_A + j_B and sends all J
    photons to the unmonitored port with amplitude
    u_J(j_A, j_B) = (-1)^j_B sqrt(C(J, j_A) / 2^J); a sector with J > n_max
    cannot leave the truncated port empty.  The click of the monitored port
    is therefore Pi = 1 - sum_{J <= n_max} u_J u_J^dag on the idlers, and
    the other port is traced out, not vetoed.  Idler loss L acts on Pi as
    its adjoint, tr[L(rho) Pi] = tr[rho L^dag(Pi)], so with c the amplitudes
    of both sources over (n_A, n_B), the conditioned signal pair is
    (c c^T) o L^dag(Pi), elementwise, and the unconditioned one, which
    false heralds mix in, is diag(c o c).  Signal loss commutes with the
    heralding and acts last, on the mixed state; the detector efficiencies
    (eta_A, eta_B) multiply the signal transmissions.
    Returns the normalized state and the herald probability per pump pulse.
    """
    if trunc.n_max < 3:
        raise ValueError(f"heralding simulation needs n_max >= 3, got {trunc.n_max}")
    if not all(0.0 <= eta <= 1.0 for eta in efficiencies):
        raise ValueError(f"detector efficiencies must lie in [0, 1], got {efficiencies}")
    eta_a, eta_b = efficiencies
    d = trunc.dim

    # Pi over (idler_A, idler_B): 1 minus u_J u_J^dag on every sector J <= n_max.  The
    # monitored port is the one both idler inputs reach with +1/sqrt(2) amplitude.
    j_a, total, binom = fc._loss_binomials(trunc)  # C(J, j_A) for every j_A <= J <= n_max
    u = (-1.0) ** (total - j_a) * np.sqrt(binom / 2.0**total)
    pair_index = j_a * d + total - j_a
    click = np.eye(d * d)
    click[np.ix_(pair_index, pair_index)] -= (total[:, None] == total[None, :]) * np.outer(u, u)
    amplitudes = np.outer(fc.pair_amplitudes(src.pair_probability_a, trunc),
                          fc.pair_amplitudes(src.effective_pair_probability_b, trunc)).ravel()
    idler_a, idler_b = (_loss_superoperator(t, trunc) for t in (src.idler_transmission_a, src.idler_transmission_b))
    conditioned = np.outer(amplitudes, amplitudes) * _apply_loss(idler_a.T, idler_b.T, click)
    p_true = float(np.trace(conditioned))

    f = src.false_herald_probability
    marginal = np.diag(amplitudes * amplitudes)
    if p_true <= 0.0:
        if f < 1.0:
            raise HeraldingError(
                f"herald probability is zero; no conditional state exists (pair probabilities {src.pair_probability_a} "
                f"and {src.effective_pair_probability_b}, idler transmissions {src.idler_transmission_a} and "
                f"{src.idler_transmission_b}, false-herald probability {f})"
            )
        cond = marginal  # pure noise heralds carry the unconditioned marginal
        herald_probability = 0.0  # noise rate is not derivable from the SNR model alone
    else:
        cond = (1.0 - f) * conditioned / p_true + f * marginal
        herald_probability = min(1.0, p_true / (1.0 - f)) if f < 1.0 else 1.0

    signal_a, signal_b = (_loss_superoperator(t, trunc)
                          for t in (src.signal_transmission_a * eta_a, src.signal_transmission_b * eta_b))
    rho = _apply_loss(signal_a, signal_b, cond)
    return HeraldedState(fc.DensityOperator(fc._hermitize(rho), (d, d)), herald_probability)


def _loss_superoperator(eta: float, trunc: fc.FockTruncation) -> np.ndarray:
    """S = sum_k K_k (x) K_k of one mode's loss: S vec(X) = vec(sum_k K_k X K_k^T) row-major; S^T is the adjoint."""
    d = trunc.dim
    kraus = fc.loss_channel_kraus(eta, trunc).reshape(d, d * d)
    return (kraus.T @ kraus).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, -1)


def _apply_loss(s_a: np.ndarray, s_b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Superoperators s_a, s_b on the two modes of a (d^2, d^2) operator X: s_a . X . s_b^T over (a, a') x (b, b')."""
    d = math.isqrt(len(s_a))
    y = x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, -1)
    return (s_a @ y @ s_b.T).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, -1)


def heralding_rate(herald_probability: float, pump_rep_rate_hz: float, duty_fraction: float = 1.0) -> float:
    """Heralds per second: herald probability per pulse times effective pulse rate."""
    if herald_probability < 0 or pump_rep_rate_hz < 0 or not 0.0 <= duty_fraction <= 1.0:
        raise ValueError("inputs must be nonnegative with duty_fraction <= 1")
    return herald_probability * pump_rep_rate_hz * duty_fraction
