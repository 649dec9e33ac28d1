"""Separable bounds and the entanglement-certification verdict.

The qubit bound is the maximum witness expectation a positive-partial-
transpose two-qubit state can reach given its photon-number diagonal,
read from the z-basis quadruple (no-click/click at zero displacement
stands for 0/1 photons), with the coherence relaxed to sqrt(P00 P11).
The fluctuation bound maximizes it over the displacement-amplitude box
observed in the experiment, and the dimension-free bound adds
multiphoton corrections.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import stats
from .measurement import AMPLITUDE_CLIP, DisplacementSetting, JointClickProbabilities

BOX_GAP_TOL = 1e-13
BOX_HALVINGS = 4  # per round of the box search: a live box becomes 16
BOX_MAX_ROUNDS = 50
BOX_MAX_LIVE = 1024  # an objective flat over a region keeps every box there alive

# the per-axis factors of the qubit bound, in the order _factors returns them
_F, _G, _A, _DA, _DF, _DG = range(6)
# where A, A' and g, g' have their interior extrema (f is monotone)
_CRITICAL_AMPLITUDES = np.sqrt([0.5, 1.5, 1.0, (5.0 - sqrt(17.0)) / 4.0, (5.0 + sqrt(17.0)) / 4.0])[:, None, None]


class AlphaSearchError(RuntimeError):
    """The requested displacement-amplitude optimum does not exist in (0, 2]."""


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


def _clipped_gaussian(alpha):
    """The amplitude capped at AMPLITUDE_CLIP, a, and e = exp(-a^2), from which every per-axis factor is built.

    e comes from np.exp at a scalar too, so a scalar call gives the same
    bits as the same entry of an array call; math.exp differs from np.exp
    in the last bit on some inputs.  The robust optimum's refinement thus
    continues its grid's slopes, and w_ppt_qubit agrees with a sweep's grid.
    """
    a = np.minimum(alpha, AMPLITUDE_CLIP) if isinstance(alpha, np.ndarray) else min(alpha, AMPLITUDE_CLIP)
    return a, np.exp(-(a * a))


def _factors(alpha):
    """The qubit bound's per-axis factors (f, g, A, A', f', g') at a scalar or array amplitude.

    With e = exp(-a^2): f = 2e - 1, g = 2 a^2 e - 1, A = a e and their slopes.
    The bound coefficients, b_max, the diagonal slope and the box enclosures are built from them.
    """
    a, e = _clipped_gaussian(alpha)
    return 2.0 * e - 1.0, 2.0 * a * a * e - 1.0, a * e, (1.0 - 2.0 * a * a) * e, -4.0 * a * e, 4.0 * a * (1.0 - a * a) * e


def bound_coefficients(alpha1, alpha2):
    """The five coefficients of the qubit separable bound at real amplitudes.

    Order: (C1, C2, C3, C4, C5) multiplying P00, sqrt(P00 P11), P11, P10, P01.
    Accepts scalars or broadcastable numpy arrays.
    """
    (f1, g1, a1), (f2, g2, a2) = _factors(alpha1)[:3], _factors(alpha2)[:3]
    return (f1 * f2, 8.0 * a1 * a2, g1 * g2, g1 * f2, f1 * g2)


def w_ppt_qubit(alpha1: float, alpha2: float, jp_z: JointClickProbabilities) -> float:
    """Maximum witness expectation of a PPT two-qubit state whose diagonal is the z-basis quadruple.

    It is the fluctuation-bound objective at a point box without multiphoton events.
    """
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("displacement amplitudes must be real and nonnegative")
    return float(w_tilde_point(alpha1, alpha2, jp_z, MultiphotonBounds(0.0, 0.0)))


def b_max(alpha1, alpha2):
    """Largest singular value of the qubit-to-multiphoton block of the witness: 2 A1 A2 sqrt(2 (a1^4 + a2^4))."""
    (a1, e1), (a2, e2) = _clipped_gaussian(alpha1), _clipped_gaussian(alpha2)
    return 2.0 * (a1 * e1) * (a2 * e2) * np.sqrt(2.0 * (a1**4 + a2**4))


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


# Interval arithmetic on a batch of boxes: an interval is an array whose
# first axis holds the lower and upper end; the last axis runs over boxes.

def _imul(x, y):
    products = (x[:, None] * y[None]).reshape(4, *x.shape[1:])
    return np.array((products.min(axis=0), products.max(axis=0)))


def _axis_factors(lo, hi):
    """Ranges of the box-search factors over each box, shaped (end, factor, axis, box).

    lo and hi are (axis, box) arrays.  Each factor is smooth, so its range
    is spanned by its values at the ends and at the interior critical
    points of any of them.
    """
    a = np.concatenate((lo[None], hi[None], np.minimum(np.maximum(_CRITICAL_AMPLITUDES, lo), hi)))
    values = np.array(_factors(a))
    return np.array((values.min(axis=1), values.max(axis=1)))


def _w_tilde_slopes(lo, hi, jp_z: JointClickProbabilities, mb: MultiphotonBounds):
    """Enclosures of the partial derivatives of w_tilde_point over each box, shaped (end, axis, box).

    The objective is P00 f1 f2 + 8 S A1 A2 + P11 g1 g2
    + h(g1 f2, P10, p1*) + h(f1 g2, P01, p2*), with S = sqrt(P00 P11) and
    h(c, p, q) = max(c (p - q), c p), whose slope in c is p - q where
    c < 0, p where c > 0, and either at c = 0.  As g < 0, g1 f2 has the
    opposite sign of f2, and f1 g2 that of f1.
    """
    p00, p01, p10, p11 = jp_z.p_nc_nc, jp_z.p_nc_c, jp_z.p_c_nc, jp_z.p_c_c
    t = _axis_factors(lo, hi)
    # k5, k4, k4, k5 with k4 = dh/dc at c4 = g1 f2 and k5 at c5 = f1 g2, each on the branch its f decides
    f = t[:, _F, [0, 1, 1, 0]]
    stars = np.array([[mb.p2_star], [mb.p1_star], [mb.p1_star], [mb.p2_star]])
    k = np.array([[p01], [p10], [p10], [p01]]) - stars * np.array((f[1] >= 0.0, f[0] > 0.0))
    # k5 g2, k4 f2, k4 g1, k5 f1, A1 A2', A1' A2
    mixed = _imul(np.concatenate((k, t[:, [_A, _DA], 0]), axis=1), t[:, [_G, _F, _G, _F, _DA, _A], [1, 1, 0, 0, 1, 1]])
    # f1' (P00 f2 + k5 g2), g1' (P11 g2 + k4 f2), f2' (P00 f1 + k4 g1), g2' (P11 g1 + k5 f1)
    inner = np.array([[p00], [p11], [p00], [p11]]) * t[:, [_F, _G, _F, _G], [1, 1, 0, 0]] + mixed[:, :4]
    terms = _imul(t[:, [_DF, _DG, _DF, _DG], [0, 0, 1, 1]], inner)
    return terms[:, 0::2] + terms[:, 1::2] + 8.0 * sqrt(p00 * p11) * mixed[:, [5, 4]]


def _bisect(lo, hi):
    """Halve every box across its wider side."""
    width = hi - lo
    across = np.array((width[0] >= width[1], width[0] < width[1]))
    mid = 0.5 * (lo + hi)
    return (
        np.concatenate((lo, np.where(across, mid, lo)), axis=1),
        np.concatenate((np.where(across, mid, hi), hi), axis=1),
    )


def _maximize_over_box(objective, slopes, box):
    """Certified maximum of objective over an amplitude box, by branch and bound.

    box is (alpha1_min, alpha1_max, alpha2_min, alpha2_max).  objective
    evaluates arrays of amplitude pairs; slopes(lo, hi) encloses its
    partial derivatives over each box of a batch.  Each
    round first collapses every axis whose slope enclosure has one sign
    to its higher end (its lower end on a tie), then takes the value at
    each box's centre, which is its corner once both axes collapse, and
    bounds the box by that value plus sum_i max|dF/da_i| w_i / 2.  Boxes
    whose bound does not exceed the best value are dropped, the rest are
    halved BOX_HALVINGS times.  Returns the best value found plus the
    certified gap left above it, and the point where that value was found
    first.  The gap is at most BOX_GAP_TOL unless the search stops at
    BOX_MAX_ROUNDS or BOX_MAX_LIVE first.  A maximum at a corner, or on a
    point box, is the objective's own value there.
    """
    ends = np.array(box)[:, None]
    lo, hi = ends[0::2], ends[1::2]
    best, point, gap = -np.inf, None, 0.0
    for _ in range(BOX_MAX_ROUNDS):
        slack = 0.0
        if (hi > lo).any():
            d = slopes(lo, hi)
            hi = np.where(d[1] <= 0.0, lo, hi)
            lo = np.where(d[0] >= 0.0, hi, lo)
            slack = 0.5 * (np.abs(d).max(axis=0) * (hi - lo)).sum(axis=0)
        centre = 0.5 * (lo + hi)
        values = objective(centre[0], centre[1])
        k = int(np.argmax(values))
        if values[k] > best:
            best, point = float(values[k]), (float(centre[0, k]), float(centre[1, k]))
        upper = values + slack
        live = upper > best
        gap = float(upper[live].max()) - best if live.any() else 0.0
        if gap <= BOX_GAP_TOL or live.sum() > BOX_MAX_LIVE:
            break
        lo, hi = lo[:, live], hi[:, live]
        for _ in range(BOX_HALVINGS):
            lo, hi = _bisect(lo, hi)
    return best + gap, point


def _clipped_box(i1: DisplacementSetting, i2: DisplacementSetting):
    """The fluctuation box's ends, clipped where the objectives stop changing."""
    return tuple(min(a, AMPLITUDE_CLIP) for a in (i1.alpha_min, i1.alpha_max, i2.alpha_min, i2.alpha_max))


def w_ppt_fluctuation_bound(
    i1: DisplacementSetting,
    i2: DisplacementSetting,
    jp_z: JointClickProbabilities,
    mb: MultiphotonBounds,
):
    """Qubit bound maximized over the displacement-fluctuation box.

    Maximizes w_tilde_point over the box, so the multiphoton branch of
    each single-click term is decided per candidate amplitude pair.
    Returns the certified maximum and the coefficients at the best point.
    """
    value, (a1, a2) = _maximize_over_box(
        lambda x1, x2: w_tilde_point(x1, x2, jp_z, mb),
        lambda lo, hi: _w_tilde_slopes(lo, hi, jp_z, mb),
        _clipped_box(i1, i2),
    )
    return value, bound_coefficients(a1, a2)


def beta_bound(i1: DisplacementSetting, i2: DisplacementSetting) -> float:
    """Maximum of b_max over the fluctuation box, taken over the points that can hold it.

    With u = alpha1^2 and v = alpha2^2, log b_max = const + (log u + log v
    + log(u^2 + v^2)) / 2 - (u + v), whose only stationary point is
    u = v = 1.  Along an edge with u fixed its slope in v vanishes where
    2 v^3 - 3 v^2 + 2 u^2 v - u^2 = 0, so the maximum is at a corner, at
    a real root of one of the four edges' cubics, or at (1, 1).  b_max is
    symmetric, so an edge with v fixed has the same cubic in u, and each
    edge's points are evaluated as (fixed, free).  The roots are the
    eigenvalues of the cubics' companion matrices.  Every candidate is
    clipped into the box: a complex root's real part, a root off its edge
    and a (1, 1) outside the box become points of the box, which cannot
    exceed its maximum.
    """
    lo1, hi1, lo2, hi2 = _clipped_box(i1, i2)
    fixed, lo, hi = np.array([lo1, hi1, lo2, hi2]), np.array([lo2, lo2, lo1, lo1]), np.array([hi2, hi2, hi1, hi1])
    # companion matrices of v^3 - 3/2 v^2 + u^2 v - u^2 / 2, one per edge
    companion = np.zeros((4, 3, 3))
    companion[:, 0, 0], companion[:, 0, 1], companion[:, 0, 2] = 1.5, -(fixed**4), 0.5 * fixed**4
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.sqrt(np.maximum(np.linalg.eigvals(companion).real, 0.0))
    edges = np.minimum(np.maximum(roots, lo[:, None]), hi[:, None])
    x1 = np.concatenate((fixed, fixed, np.repeat(fixed, 3), [min(max(1.0, lo1), hi1)]))
    x2 = np.concatenate((lo, hi, edges.ravel(), [min(max(1.0, lo2), hi2)]))
    return float(b_max(x1, x2).max())


def w_ppt_max(w_tilde: float, mb: MultiphotonBounds, beta: float) -> float:
    """Dimension-free separable bound with multiphoton corrections; mb keeps p1* + p2* < 1/2, w_tilde and beta may be arrays."""
    p = mb.total
    return w_tilde + p + 2.0 * beta * sqrt(p * (1.0 - p))


def optimal_alpha(jp_z: JointClickProbabilities, mode: str = "robust"):
    """Displacement amplitudes optimizing the witness for a state with the given z-basis quadruple.

    "max_violation" returns alpha = 1/sqrt(2) on both sides: on the ideal
    lossy state matching jp_z, with diagonal (1 - eta, eta/2, eta/2, 0), the
    witness exceeds the qubit bound by 4 eta alpha^2 exp(-2 alpha^2), which
    peaks there for every eta > 0.  "robust" returns the amplitude at which
    the qubit bound is stationary along the symmetric diagonal
    alpha1 = alpha2, where the bound is first-order insensitive to
    amplitude fluctuations: the first sign change of the analytic slope on
    a 200-point grid over [0.05, 2], refined by Illinois false position
    until the bracket is at most 1e-14 wide.  The mixed second
    derivative of the bound has no zero in (0, 2] for physical diagonals,
    so the stationary point is the operational robustness criterion.
    """
    if mode == "max_violation":
        if jp_z.p_nc_c + jp_z.p_c_nc <= 0.0:
            raise AlphaSearchError("no single-photon population; violation is not positive anywhere")
        return sqrt(0.5), sqrt(0.5)
    if mode == "robust":
        return _robust_alpha(jp_z)
    raise ValueError(f"unknown mode {mode!r}")


def w_ppt_qubit_slope(alpha, jp_z: JointClickProbabilities):
    """d/dalpha of w_ppt_qubit(alpha, alpha, jp_z); accepts scalars or numpy arrays.

    Along the diagonal the bound is f^2 P00 + 8 A^2 sqrt(P00 P11) + g^2 P11
    + f g (P10 + P01), in the factors of _factors.
    """
    f, g, a, da, df, dg = _factors(alpha)
    return (
        2.0 * f * df * jp_z.p_nc_nc
        + 16.0 * a * da * sqrt(jp_z.p_nc_nc * jp_z.p_c_c)
        + 2.0 * g * dg * jp_z.p_c_c
        + (df * g + f * dg) * (jp_z.p_c_nc + jp_z.p_nc_c)
    )


def _robust_alpha(jp_z: JointClickProbabilities):
    """Illinois false position on the first sign change of the diagonal slope.

    Each step takes the secant root of the bracket's ends, or its midpoint
    where the secant root falls outside (lo, hi); an end kept twice in a
    row has its slope halved, so both ends close in.
    """
    alphas = np.linspace(0.05, 2.0, 200)
    slopes = w_ppt_qubit_slope(alphas, jp_z)
    a, b = slopes[:-1], slopes[1:]
    crossings = np.flatnonzero((((a <= 0.0) & (b >= 0.0)) | ((a >= 0.0) & (b <= 0.0))) & (a != b))
    if len(crossings) == 0:
        raise AlphaSearchError("the qubit bound has no stationary amplitude in (0, 2]")
    i = crossings[0]
    lo, hi, flo, fhi = alphas[i], alphas[i + 1], slopes[i], slopes[i + 1]
    kept = None  # the end the last step kept
    while hi - lo > 1e-14:
        mid = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        fmid = w_ppt_qubit_slope(mid, jp_z)
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
            fhi, kept = fhi * 0.5 if kept == "hi" else fhi, "hi"
        else:
            hi, fhi = mid, fmid
            flo, kept = flo * 0.5 if kept == "lo" else flo, "lo"
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
    value_w_ppt = w_ppt_qubit(i1.alpha_mean, i2.alpha_mean, jp_z)
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
