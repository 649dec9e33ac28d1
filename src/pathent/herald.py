"""Heralded preparation of the two-party path-entangled state.

Two squeezed-vacuum pair sources feed a central 50/50 beam splitter with
their idler modes; a click of a non-photon-number-resolving detector on
one output heralds the shared signal state.  The simulation stays a pure
state throughout: one ket over both signal modes, one environment mode
per idler that holds the photons idler loss removed, and the two
station output ports.  The heralded state keeps (signal_A, signal_B).
"""

from __future__ import annotations

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
        probs = {
            "pair_probability": self.pair_probability,
            "signal_transmission_a": self.signal_transmission_a,
            "signal_transmission_b": self.signal_transmission_b,
            "idler_transmission_a": self.idler_transmission_a,
            "idler_transmission_b": self.idler_transmission_b,
            "false_herald_probability": self.false_herald_probability,
        }
        for name, value in probs.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.pair_probability_b is not None and not 0.0 <= self.pair_probability_b <= 1.0:
            raise ValueError(f"pair_probability_b must lie in [0, 1], got {self.pair_probability_b}")

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
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"phase {name} must be finite")

    @property
    def delta(self) -> float:
        """Locking invariant (zeta+chi+xi_l-xi_s)_A - (...)_B; pump phases drop out."""
        delta_a = self.zeta_a + self.chi_a + self.xi_a_long - self.xi_a_short
        delta_b = self.zeta_b + self.chi_b + self.xi_b_long - self.xi_b_short
        return delta_a - delta_b

    @property
    def relative_state_phase(self) -> float:
        """Phase of the |01> component relative to |10> in the heralded state."""
        theta_a = self.phi_a + self.chi_a + self.xi_a_long
        theta_b = self.phi_b + self.chi_b + self.xi_b_long
        return theta_b - theta_a

    @property
    def measured_relative_phase(self) -> float:
        """The displacement-referenced relative phase whose cosine modulates the witness."""
        return -self.delta


@dataclass(frozen=True)
class HeraldedState:
    rho: fc.DensityOperator
    herald_probability: float

    def __post_init__(self):
        if not 0.0 <= self.herald_probability <= 1.0:
            raise ValueError(f"herald probability must lie in [0, 1], got {self.herald_probability}")


def simulate_heralded_state(src: SourceParams, phases: PhaseConfig, trunc: fc.FockTruncation) -> HeraldedState:
    """Heralded signal-pair state from one purified ket of both sources.

    Each source ket (signal, idler) carries the configured phases; idler
    loss is a Kraus stack contracted into it, so the photons each idler
    loses land in an environment mode of their own.  The station's 50/50
    beam splitter acts on the two idler axes, giving amplitudes
    M[(signal_A, signal_B), (env_A, env_B, port_1, port_2)].  A click of
    the monitored port keeps its columns with port_2 >= 1: the
    conditioned state is Mc Mc^dag (the other port is traced out, not
    vetoed), and false heralds mix in the unconditioned marginal M M^dag.
    Signal loss, linear and acting on the kept modes, follows on the
    two-mode result.  Returns the normalized state and the herald
    probability per pump pulse.
    """
    if trunc.n_max < 3:
        raise ValueError(f"heralding simulation needs n_max >= 3, got {trunc.n_max}")
    d = trunc.dim
    n = np.arange(d)

    def source(pair_probability, pair_phase, xi_long, chi, idler_transmission):
        # (signal, idler) amplitudes -> (signal, idler, environment)
        ket = fc.two_mode_squeezed_ket(pair_probability, trunc, pair_phase=pair_phase).reshape(d, d)
        ket = ket * np.exp(1j * xi_long * n)[:, None] * np.exp(1j * chi * n)[None, :]
        kraus = np.array(fc.loss_channel_kraus(idler_transmission, trunc))
        return np.einsum("kji,si->sjk", kraus, ket)

    ket_a = source(src.pair_probability_a, phases.phi_a, phases.xi_a_long, phases.chi_a, src.idler_transmission_a)
    ket_b = source(
        src.effective_pair_probability_b, phases.phi_b, phases.xi_b_long, phases.chi_b, src.idler_transmission_b
    )
    bs = fc.beam_splitter_unitary(0.5, trunc).matrix.reshape(d, d, d, d)
    amps = np.einsum("aik,bjl,xyij->abklxy", ket_a, ket_b, bs, optimize=True)

    # monitored output: the port where both idler inputs arrive with +1/sqrt(2)
    # amplitude under the fixed beam-splitter convention (port_2)
    clicked = amps[..., 1:].reshape(d * d, -1)
    conditioned = clicked @ clicked.conj().T
    p_true = float(np.trace(conditioned).real)
    amps = amps.reshape(d * d, -1)
    marginal = amps @ amps.conj().T

    f = src.false_herald_probability
    if p_true <= 0.0:
        if f < 1.0:
            raise HeraldingError(
                "herald probability is zero; no conditional state exists "
                "(pair probability 0 and no false heralds)"
            )
        cond = marginal  # pure noise heralds carry the unconditioned marginal
        herald_probability = 0.0  # noise rate is not derivable from the SNR model alone
    else:
        cond = (1.0 - f) * conditioned / p_true + f * marginal
        herald_probability = min(1.0, p_true / (1.0 - f)) if f < 1.0 else 1.0

    rho = fc.DensityOperator(fc._hermitize(cond), (d, d))
    rho = fc.loss_channel(rho, 0, src.signal_transmission_a)
    rho = fc.loss_channel(rho, 1, src.signal_transmission_b)
    return HeraldedState(rho, herald_probability)


def ideal_lossy_state(eta: float, relative_phase: float, trunc: fc.FockTruncation) -> fc.DensityOperator:
    """(1-eta)|00><00| + eta |psi><psi| with |psi> = (|10> + e^{i phi}|01>)/sqrt(2)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    psi = (fc.fock_ket((1, 0), trunc) + np.exp(1j * relative_phase) * fc.fock_ket((0, 1), trunc)) / np.sqrt(2.0)
    vac = fc.fock_ket((0, 0), trunc)
    mat = (1.0 - eta) * np.outer(vac, vac.conj()) + eta * np.outer(psi, psi.conj())
    return fc.DensityOperator(mat, (trunc.dim, trunc.dim))


def heralding_rate(herald_probability: float, pump_rep_rate_hz: float, duty_fraction: float = 1.0) -> float:
    """Heralds per second: herald probability per pulse times effective pulse rate."""
    if herald_probability < 0 or pump_rep_rate_hz < 0 or not 0.0 <= duty_fraction <= 1.0:
        raise ValueError("inputs must be nonnegative with duty_fraction <= 1")
    return herald_probability * pump_rep_rate_hz * duty_fraction
