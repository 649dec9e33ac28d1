"""Separable bounds and the entanglement-certification verdict.

The qubit bound is the maximum witness expectation a positive-partial-
transpose two-qubit state can reach given its photon-number diagonal,
with the coherence relaxed to sqrt(P00 P11).  The fluctuation bound
maximizes it over the displacement-amplitude box observed in the
experiment, and the dimension-free bound adds multiphoton corrections.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import stats
from .measurement import PROB_SUM_ATOL, DisplacementSetting, JointClickProbabilities

BOX_GRID_POINTS = 101
BOX_REFINEMENT_TOL = 1e-9


class AlphaSearchError(RuntimeError):
    """The requested displacement-amplitude optimum does not exist in (0, 2]."""


@dataclass(frozen=True)
class QubitProbs:
    """Probabilities of i photons on mode 1 and j photons on mode 2."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        values = (self.p00, self.p01, self.p10, self.p11)
        if any(p < 0 for p in values):
            raise ValueError(f"probabilities must be nonnegative, got {values}")
        if sum(values) > 1.0 + PROB_SUM_ATOL:
            raise ValueError(f"probabilities sum to {sum(values)} > 1")

    @classmethod
    def from_joint_clicks(cls, jp: JointClickProbabilities) -> "QubitProbs":
        """Identify no-click/click without displacement with 0/1 photons."""
        return cls(p00=jp.p_nc_nc, p01=jp.p_nc_c, p10=jp.p_c_nc, p11=jp.p_c_c)


@dataclass(frozen=True)
class MultiphotonBounds:
    """Upper bounds on the probability of more than one photon per mode."""

    p1_star: float
    p2_star: float

    def __post_init__(self):
        if self.p1_star < 0 or self.p2_star < 0:
            raise ValueError("multiphoton bounds must be nonnegative")
        stats.check_pstar_domain(self.p1_star + self.p2_star)

    @property
    def total(self) -> float:
        return self.p1_star + self.p2_star


@dataclass(frozen=True)
class WitnessReport:
    w_exp: float
    w_ppt: float
    w_tilde_ppt: float
    w_ppt_max: float
    sigma_exp: float
    sigma_ppt_max: float
    k: float
    coefficients: tuple[float, float, float, float, float]
    beta: float
    entangled: bool

    def __post_init__(self):
        if not self.w_ppt <= self.w_tilde_ppt + 1e-12:
            raise ValueError("fluctuation bound below the qubit bound")
        if not self.w_tilde_ppt <= self.w_ppt_max + 1e-12:
            raise ValueError("dimension-free bound below the fluctuation bound")
        sig = self.sigma_exp + self.sigma_ppt_max
        if sig > 0.0 and abs(self.k * sig - (self.w_exp - self.w_ppt_max)) > 1e-9:
            raise ValueError("significance k inconsistent with its defining ratio")


def w_exp(jp: JointClickProbabilities) -> float:
    """Witness expectation from measured joint probabilities: +1 for agreement, -1 for disagreement."""
    return jp.p_nc_nc + jp.p_c_c - jp.p_c_nc - jp.p_nc_c


def bound_coefficients(alpha1, alpha2):
    """The five coefficients of the qubit separable bound at real amplitudes.

    Order: (C1, C2, C3, C4, C5) multiplying P00, sqrt(P00 P11), P11, P10, P01.
    Accepts scalars or broadcastable numpy arrays.
    """
    f1 = 2.0 * np.exp(-(alpha1**2)) - 1.0
    f2 = 2.0 * np.exp(-(alpha2**2)) - 1.0
    g1 = 2.0 * alpha1**2 * np.exp(-(alpha1**2)) - 1.0
    g2 = 2.0 * alpha2**2 * np.exp(-(alpha2**2)) - 1.0
    c2 = 8.0 * alpha1 * alpha2 * np.exp(-(alpha1**2) - alpha2**2)
    return (f1 * f2, c2, g1 * g2, g1 * f2, f1 * g2)


def w_ppt_qubit(alpha1: float, alpha2: float, qp: QubitProbs) -> float:
    """Maximum witness expectation of a PPT two-qubit state with the given diagonal."""
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("displacement amplitudes must be real and nonnegative")
    c1, c2, c3, c4, c5 = bound_coefficients(alpha1, alpha2)
    return c1 * qp.p00 + c2 * sqrt(qp.p00 * qp.p11) + c3 * qp.p11 + c4 * qp.p10 + c5 * qp.p01


def b_max(alpha1, alpha2):
    """Largest singular value of the qubit-to-multiphoton block of the witness."""
    return (
        2.0 * alpha1 * alpha2 * np.exp(-(alpha1**2) - alpha2**2) * np.sqrt(2.0 * (alpha1**4 + alpha2**4))
    )


def _maximize_over_box(objective, i1: DisplacementSetting, i2: DisplacementSetting):
    """Dense-grid maximization over [alpha1_min, alpha1_max] x [alpha2_min, alpha2_max].

    The objective must accept numpy arrays.  A coarse 101x101 grid is
    refined locally (one cell around the argmax per round) until the
    maximum improves by less than 1e-9; ties resolve to the lowest grid
    index, so the result is deterministic.  An axis of zero width is
    sampled once: its 101 samples would all be the same point.
    """
    lo1, hi1 = i1.alpha_min, i1.alpha_max
    lo2, hi2 = i2.alpha_min, i2.alpha_max
    best = -np.inf
    best_point = (lo1, lo2)
    for _ in range(40):
        a1 = np.linspace(lo1, hi1, BOX_GRID_POINTS if hi1 > lo1 else 1)
        a2 = np.linspace(lo2, hi2, BOX_GRID_POINTS if hi2 > lo2 else 1)
        grid = objective(a1[:, None], a2[None, :])
        flat = int(np.argmax(grid))
        j1, j2 = np.unravel_index(flat, grid.shape)
        value = float(grid[j1, j2])
        point = (float(a1[j1]), float(a2[j2]))
        improved = value > best + BOX_REFINEMENT_TOL
        if value > best:
            best, best_point = value, point
        step1 = (hi1 - lo1) / (BOX_GRID_POINTS - 1)
        step2 = (hi2 - lo2) / (BOX_GRID_POINTS - 1)
        if not improved and max(step1, step2) < 1e-6:
            break
        lo1 = max(i1.alpha_min, point[0] - step1)
        hi1 = min(i1.alpha_max, point[0] + step1)
        lo2 = max(i2.alpha_min, point[1] - step2)
        hi2 = min(i2.alpha_max, point[1] + step2)
        if hi1 - lo1 <= 0 and hi2 - lo2 <= 0:
            break
    return best, best_point


def w_tilde_point(a1, a2, jp_z: JointClickProbabilities, mb: MultiphotonBounds):
    """Fluctuation-bound objective at fixed amplitudes, i.e. the bound of a point box.

    Outside the qubit assumption the diagonal entries are replaced by the
    z-basis click probabilities; the single-click terms are additionally
    lowered by the multiphoton bounds whenever their coefficients are
    negative.  Accepts scalars or broadcastable numpy arrays.
    """
    c1, c2, c3, c4, c5 = bound_coefficients(a1, a2)
    return (
        c1 * jp_z.p_nc_nc
        + c2 * sqrt(jp_z.p_nc_nc * jp_z.p_c_c)
        + c3 * jp_z.p_c_c
        + np.maximum(c4 * (jp_z.p_c_nc - mb.p1_star), c4 * jp_z.p_c_nc)
        + np.maximum(c5 * (jp_z.p_nc_c - mb.p2_star), c5 * jp_z.p_nc_c)
    )


def w_ppt_fluctuation_bound(
    i1: DisplacementSetting,
    i2: DisplacementSetting,
    jp_z: JointClickProbabilities,
    mb: MultiphotonBounds,
):
    """Qubit bound maximized over the displacement-fluctuation box.

    Maximizes w_tilde_point over the box, so the multiphoton branch of
    each single-click term is decided per candidate amplitude pair.
    Returns the maximum and the coefficients at the maximizer.
    """
    value, (a1, a2) = _maximize_over_box(lambda x1, x2: w_tilde_point(x1, x2, jp_z, mb), i1, i2)
    return value, bound_coefficients(a1, a2)


def beta_bound(i1: DisplacementSetting, i2: DisplacementSetting) -> float:
    """Maximum of the multiphoton coupling singular value over the fluctuation box."""
    value, _ = _maximize_over_box(b_max, i1, i2)
    return value


def w_ppt_max(w_tilde: float, mb: MultiphotonBounds, beta: float) -> float:
    """Dimension-free separable bound with multiphoton corrections; w_tilde and beta may be arrays."""
    p = mb.total
    stats.check_pstar_domain(p)
    return w_tilde + p + 2.0 * beta * sqrt(p * (1.0 - p))


def optimal_alpha(qp: QubitProbs, mode: str = "robust"):
    """Displacement amplitudes optimizing the witness for a state with the given diagonal.

    "max_violation" returns alpha = 1/sqrt(2) on both sides: on the ideal
    lossy state matching qp, with diagonal (1 - eta, eta/2, eta/2, 0), the
    witness exceeds the qubit bound by 4 eta alpha^2 exp(-2 alpha^2), which
    peaks there for every eta > 0.  "robust" returns the amplitude at which
    the qubit bound is stationary along the symmetric diagonal
    alpha1 = alpha2, where the bound is first-order insensitive to
    amplitude fluctuations: the first sign change of the analytic slope on
    a 200-point grid over [0.05, 2], bisected to 1e-14.  The mixed second
    derivative of the bound has no zero in (0, 2] for physical diagonals,
    so the stationary point is the operational robustness criterion.
    """
    if mode == "max_violation":
        if qp.p01 + qp.p10 <= 0.0:
            raise AlphaSearchError("no single-photon population; violation is not positive anywhere")
        return sqrt(0.5), sqrt(0.5)
    if mode == "robust":
        return _robust_alpha(qp)
    raise ValueError(f"unknown mode {mode!r}")


def w_ppt_qubit_slope(alpha, qp: QubitProbs):
    """d/dalpha of w_ppt_qubit(alpha, alpha, qp); accepts scalars or numpy arrays.

    With e = exp(-alpha^2) the bound is f^2 P00 + c2 sqrt(P00 P11) + g^2 P11
    + f g (P10 + P01), where f = 2e - 1, g = 2 alpha^2 e - 1 and c2 = 8 alpha^2 e^2.
    """
    e = np.exp(-(alpha**2))
    f = 2.0 * e - 1.0
    g = 2.0 * alpha**2 * e - 1.0
    df = -4.0 * alpha * e
    dg = 4.0 * alpha * (1.0 - alpha**2) * e
    dc2 = 16.0 * alpha * (1.0 - 2.0 * alpha**2) * e**2
    return (
        2.0 * f * df * qp.p00
        + dc2 * sqrt(qp.p00 * qp.p11)
        + 2.0 * g * dg * qp.p11
        + (df * g + f * dg) * (qp.p10 + qp.p01)
    )


def _robust_alpha(qp: QubitProbs):
    alphas = np.linspace(0.05, 2.0, 200)
    slopes = w_ppt_qubit_slope(alphas, qp)
    a, b = slopes[:-1], slopes[1:]
    crossings = np.flatnonzero((((a <= 0.0) & (b >= 0.0)) | ((a >= 0.0) & (b <= 0.0))) & (a != b))
    if len(crossings) == 0:
        raise AlphaSearchError("the qubit bound has no stationary amplitude in (0, 2]")
    lo, hi = alphas[crossings[0]], alphas[crossings[0] + 1]
    flo = slopes[crossings[0]]
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        fmid = w_ppt_qubit_slope(mid, qp)
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    alpha = float(0.5 * (lo + hi))
    return alpha, alpha


def certify(
    alpha: stats.BasisMeasurement,
    z: stats.BasisMeasurement,
    i1: DisplacementSetting,
    i2: DisplacementSetting,
    p_star: tuple[stats.ProbEstimate, stats.ProbEstimate],
) -> WitnessReport:
    """Assemble the certification verdict from one measured record.

    alpha and z are the two measured bases, each with its probability
    estimates and their binomial standard deviations; p_star holds the
    estimates of p1* and p2* from the two HBT runs.  i1 and i2 are the
    amplitude intervals the detectors see: for a detector of efficiency
    eta, the set interval times sqrt(eta).  The estimates are
    used as given: the witness expectation and bounds take their values,
    the significance k takes their standard deviations.
    """
    mb = MultiphotonBounds(p_star[0].value, p_star[1].value)
    jp_z = z.probabilities
    value_w_exp = w_exp(alpha.probabilities)
    sigma_exp = stats.sigma_w_exp(alpha.estimates)
    qp = QubitProbs.from_joint_clicks(jp_z)
    value_w_ppt = w_ppt_qubit(i1.alpha_mean, i2.alpha_mean, qp)
    w_tilde, coeffs = w_ppt_fluctuation_bound(i1, i2, jp_z, mb)
    beta = beta_bound(i1, i2)
    value_w_ppt_max = w_ppt_max(w_tilde, mb, beta)
    sigma_ppt_max = stats.sigma_ppt_max(z.estimates, p_star, coeffs, beta)
    if sigma_exp + sigma_ppt_max > 0.0:
        k = stats.violation_k(value_w_exp, sigma_exp, value_w_ppt_max, sigma_ppt_max)
    else:
        # degenerate zero-variance record: no significance statement possible
        k = 0.0
    return WitnessReport(
        w_exp=float(value_w_exp),
        w_ppt=float(value_w_ppt),
        w_tilde_ppt=float(w_tilde),
        w_ppt_max=float(value_w_ppt_max),
        sigma_exp=float(sigma_exp),
        sigma_ppt_max=float(sigma_ppt_max),
        k=float(k),
        coefficients=tuple(float(c) for c in coeffs),
        beta=float(beta),
        entangled=bool(value_w_exp > value_w_ppt_max),
    )
