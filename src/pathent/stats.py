"""Finite-statistics estimators, standard deviations, and count sampling.

All measured quantities are frequencies under an i.i.d. assumption, so
every probability estimate carries a binomial standard deviation
sqrt(p(1-p)/N).  The square-root terms of the separable bound are
replaced by their linearized upper bounds, valid while p1* + p2* < 1/2.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .measurement import JointClickProbabilities


# Generator.binomial takes int64 totals: a sampled run counts fewer heralds than this
MAX_TOTAL = 2**63


class PStarDomainError(ValueError):
    """Multiphoton bounds left the domain of the linearized square-root bound."""


def check_pstar_domain(total: float) -> None:
    """Reject p1* + p2* >= 1/2, where the linearized square-root bound does not apply."""
    if total >= 0.5:
        raise PStarDomainError(
            f"p1* + p2* = {total} is not below 1/2; the linearized square-root bound does not apply"
        )


@dataclass(frozen=True)
class CountRecord:
    """Raw tallies: N heralds, Alice-only clicks, Bob-only clicks, double clicks."""

    n_total: int
    n_a: int
    n_b: int
    n_d: int

    def __post_init__(self):
        if min(self.n_total, self.n_a, self.n_b, self.n_d) < 0:
            raise ValueError("counts must be nonnegative")
        if self.n_a + self.n_b + self.n_d > self.n_total:
            raise ValueError("click counts exceed the number of heralds")


@dataclass(frozen=True)
class ProbEstimate:
    value: float
    sigma: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"estimate {self.value} outside [0, 1]")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class BasisMeasurement:
    """One measured basis: its probability quadruple and the record it was counted in."""

    probabilities: JointClickProbabilities
    counts: CountRecord

    def __post_init__(self):
        self.estimates  # raises unless every estimate lies in [0, 1]

    @property
    def estimates(self) -> tuple[ProbEstimate, ProbEstimate, ProbEstimate, ProbEstimate]:
        """Each probability with its binomial standard deviation at the record's N."""
        jp, n = self.probabilities, self.counts.n_total
        return tuple(ProbEstimate(p, binomial_sigma(p, n)) for p in (jp.p_nc_nc, jp.p_nc_c, jp.p_c_nc, jp.p_c_c))


def binomial_sigma(p: float, n_total: int) -> float:
    return sqrt(max(p * (1.0 - p), 0.0) / n_total)


def estimate_probabilities(c: CountRecord, n_none: int | None = None) -> BasisMeasurement:
    """The basis measured by a counting run: its frequencies (nc,nc / nc,c / c,nc / c,c).

    A given n_none pins the joint no-click count; otherwise it is the complement.
    """
    if c.n_total <= 0:
        raise ValueError("n_total must be positive")
    n = c.n_total
    p_nc_nc = 1.0 - (c.n_a + c.n_b + c.n_d) / n if n_none is None else n_none / n
    return BasisMeasurement(JointClickProbabilities(p_nc_nc, c.n_b / n, c.n_a / n, c.n_d / n), c)


def sigma_w_exp(estimates) -> float:
    """Standard deviation of the witness expectation: plain sum of the four sigmas."""
    return float(sum(e.sigma for e in estimates))


def sigma_ppt_max(estimates_z, p_star_estimates, coefficients, beta: float) -> float:
    """Upper bound on the standard deviation of the dimension-free separable bound.

    estimates_z are the z-basis estimates in (nc,nc / nc,c / c,nc / c,c)
    order; coefficients are (C1..C5) at the fluctuation-box maximizer.
    The square-root terms contribute through their linearized bounds.
    """
    e_nc_nc, e_nc_c, e_c_nc, e_c_c = estimates_z
    e_p1, e_p2 = p_star_estimates
    c1, c2, c3, c4, c5 = coefficients

    total = (
        c1 * e_nc_nc.sigma
        + c2 * _ratio(
            e_nc_nc.sigma * e_c_c.value + e_c_c.sigma * e_nc_nc.value,
            2.0 * sqrt(e_c_c.value * e_nc_nc.value),
        )
        + c3 * e_c_c.sigma
        + abs(c4) * (e_c_nc.sigma + e_p1.sigma)
        + abs(c5) * (e_nc_c.sigma + e_p2.sigma)
        + e_p1.sigma
        + e_p2.sigma
    )
    pbar = e_p1.value + e_p2.value
    sig = e_p1.sigma + e_p2.sigma
    check_pstar_domain(pbar)
    total += 2.0 * beta * _ratio(
        sig - 2.0 * sig * pbar + pbar,
        2.0 * sqrt(pbar * (1.0 - pbar)),
    )
    return float(total)


def _ratio(numerator: float, denominator: float) -> float:
    if denominator == 0.0:
        if numerator == 0.0:
            return 0.0
        raise ValueError("linearized bound undefined: zero estimate with nonzero spread")
    return numerator / denominator


def violation_k(w_exp: float, sigma_exp: float, w_ppt_max: float, sigma_ppt_max: float) -> float:
    """Number of summed standard deviations by which the witness beats the bound."""
    denom = sigma_exp + sigma_ppt_max
    if denom <= 0.0:
        raise ValueError("sum of standard deviations must be positive")
    return (w_exp - w_ppt_max) / denom


def sample_counts(jp: JointClickProbabilities, n_total: int, seed: int) -> CountRecord:
    """Multinomial draw of one counting run, deterministic for a fixed seed.

    Uses the PCG64 generator with sequential binomial conditioning in the
    fixed order (c,nc), (nc,c), (c,c); the remainder are joint no-clicks.
    """
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    remaining = n_total
    remaining_p = 1.0
    counts = []
    for p in (jp.p_c_nc, jp.p_nc_c, jp.p_c_c):
        cond = min(max(p / remaining_p, 0.0), 1.0) if remaining_p > 0 else 0.0
        draw = int(rng.binomial(remaining, cond)) if remaining > 0 else 0
        counts.append(draw)
        remaining -= draw
        remaining_p -= p
    n_a, n_b, n_d = counts
    return CountRecord(n_total=n_total, n_a=n_a, n_b=n_b, n_d=n_d)


def derive_seed(seed: int, stream_index: int) -> int:
    """Independent 64-bit child seed, one stream per counting run: (seed, index) -> child."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
