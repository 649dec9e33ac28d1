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

from . import fockcore as fc
from . import stats
from .herald import ideal_lossy_state
from .measurement import DisplacementSetting, JointClickProbabilities, displaced_parity_observable, total_number_sector_mask

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
        # rounded published tables can overshoot unit sum slightly
        if sum(values) > 1.0 + 2e-4:
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
    index, so the result is deterministic.
    """
    lo1, hi1 = i1.alpha_min, i1.alpha_max
    lo2, hi2 = i2.alpha_min, i2.alpha_max
    best = -np.inf
    best_point = (lo1, lo2)
    for _ in range(40):
        a1 = np.linspace(lo1, hi1, BOX_GRID_POINTS)
        a2 = np.linspace(lo2, hi2, BOX_GRID_POINTS)
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


def optimal_alpha(qp: QubitProbs, mode: str = "robust", trunc: fc.FockTruncation | None = None):
    """Displacement amplitudes optimizing the witness for a state with the given diagonal.

    "max_violation" maximizes the violation of the qubit bound for the
    ideal lossy state matching qp (largest gap, alpha = 1/sqrt(2) up to
    truncation effects).  "robust" returns the amplitude at which the
    qubit bound is stationary along the symmetric diagonal, where the
    bound is first-order insensitive to amplitude fluctuations; note the
    mixed second derivative of the bound has no zero in (0, 2] for
    physical diagonals, so the stationary point is the operational
    robustness criterion.  Both modes search the diagonal alpha1 = alpha2.
    """
    if mode == "max_violation":
        return _max_violation_alpha(qp, trunc or fc.FockTruncation(10))
    if mode == "robust":
        return _robust_alpha(qp)
    raise ValueError(f"unknown mode {mode!r}")


def _max_violation_alpha(qp: QubitProbs, trunc: fc.FockTruncation):
    eta = qp.p01 + qp.p10
    if eta <= 0.0:
        raise AlphaSearchError("no single-photon population; violation is not positive anywhere")
    rho = ideal_lossy_state(eta, 0.0, trunc)
    diag = QubitProbs(1.0 - eta, eta / 2.0, eta / 2.0, 0.0)
    mask = total_number_sector_mask(trunc)

    def violation(alpha: float) -> float:
        # the phase-averaged witness operator on the diagonal: both sides share one displaced parity
        sigma = displaced_parity_observable(alpha, trunc)
        w_op = np.kron(sigma, sigma) * mask
        # tr(rho W) as an elementwise contraction: W is Hermitian by construction
        return np.einsum("ij,ji->", rho.matrix, w_op).real - w_ppt_qubit(alpha, alpha, diag)

    alphas = np.linspace(0.05, 2.0, 79)
    values = [violation(a) for a in alphas]
    j = int(np.argmax(values))
    if values[j] <= 0.0:
        raise AlphaSearchError("no positive violation found in (0, 2]")
    lo = alphas[max(j - 1, 0)]
    hi = alphas[min(j + 1, len(alphas) - 1)]
    alpha = _golden_section_max(violation, lo, hi, tol=1e-6)
    return alpha, alpha


def _robust_alpha(qp: QubitProbs, step: float = 1e-4):
    def slope(alpha: float) -> float:
        # central finite difference of the qubit bound along the diagonal
        return (
            w_ppt_qubit(alpha + step, alpha + step, qp) - w_ppt_qubit(alpha - step, alpha - step, qp)
        ) / (2.0 * step)

    alphas = np.linspace(0.05, 2.0, 200)
    slopes = [slope(a) for a in alphas]
    bracket = None
    for i in range(len(alphas) - 1):
        if slopes[i] <= 0.0 <= slopes[i + 1] or slopes[i] >= 0.0 >= slopes[i + 1]:
            if slopes[i] != slopes[i + 1]:
                bracket = (alphas[i], alphas[i + 1])
                break
    if bracket is None:
        raise AlphaSearchError("the qubit bound has no stationary amplitude in (0, 2]")
    lo, hi = bracket
    flo = slope(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = slope(mid)
        if fmid == 0.0 or hi - lo < 1e-10:
            lo = hi = mid
            break
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    return alpha, alpha


def _golden_section_max(func, lo: float, hi: float, tol: float = 1e-6) -> float:
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = func(x1), func(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = func(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = func(x1)
    return 0.5 * (lo + hi)


def certify(
    jp_alpha: JointClickProbabilities,
    jp_z: JointClickProbabilities,
    i1: DisplacementSetting,
    i2: DisplacementSetting,
    mb: MultiphotonBounds,
    counts: tuple[stats.CountRecord, stats.CountRecord],
    p_star_estimates: tuple[stats.ProbEstimate, stats.ProbEstimate] | None = None,
) -> WitnessReport:
    """Assemble the full certification verdict from both measurement bases.

    counts carries the (alpha-basis, z-basis) records; only their totals
    enter, through the binomial standard deviations of the given
    probabilities.  Multiphoton uncertainties are zero unless estimates
    with standard deviations are supplied.
    """
    counts_alpha, counts_z = counts
    est_alpha = stats.estimates_from_probabilities(jp_alpha, counts_alpha.n_total)
    est_z = stats.estimates_from_probabilities(jp_z, counts_z.n_total)
    if p_star_estimates is None:
        p_star_estimates = (
            stats.ProbEstimate(mb.p1_star, 0.0),
            stats.ProbEstimate(mb.p2_star, 0.0),
        )

    value_w_exp = w_exp(jp_alpha)
    sigma_exp = stats.sigma_w_exp(est_alpha)
    qp = QubitProbs.from_joint_clicks(jp_z)
    value_w_ppt = w_ppt_qubit(i1.alpha_mean, i2.alpha_mean, qp)
    w_tilde, coeffs = w_ppt_fluctuation_bound(i1, i2, jp_z, mb)
    beta = beta_bound(i1, i2)
    value_w_ppt_max = w_ppt_max(w_tilde, mb, beta)
    sigma_ppt_max = stats.sigma_ppt_max(est_z, p_star_estimates, coeffs, beta)
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
