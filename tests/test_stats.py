import numpy as np
import pytest

from pathent import stats
from pathent.measurement import JointClickProbabilities
from pathent.witness import bound_coefficients

from reference import sample_counts_sequential


def test_count_record_validation():
    with pytest.raises(ValueError):
        stats.CountRecord(10, 5, 5, 5)
    with pytest.raises(ValueError):
        stats.CountRecord(10, -1, 0, 0)


def test_estimate_probabilities_small_example():
    est = stats.estimate_probabilities(stats.CountRecord(4, 1, 1, 1)).estimates
    p_nc_nc, p_nc_c, p_c_nc, p_c_c = est
    for e in (p_nc_c, p_c_nc, p_c_c, p_nc_nc):
        assert abs(e.value - 0.25) < 1e-12
        assert abs(e.sigma - np.sqrt(0.25 * 0.75 / 4)) < 1e-12


def test_estimate_probabilities_reconstructed_run():
    # one hour at 1.6 kHz with probabilities near 1/4
    n = 5_760_000
    est = stats.estimate_probabilities(stats.CountRecord(n, n // 4, n // 4, n // 4)).estimates
    for e in est:
        assert abs(e.sigma - 1.8e-4) < 1e-5
    assert abs(stats.sigma_w_exp(est) - 7.2e-4) < 4e-5


def test_estimate_probabilities_all_quiet():
    est = stats.estimate_probabilities(stats.CountRecord(100, 0, 0, 0)).estimates
    assert est[0].value == 1.0
    assert est[0].sigma == 0.0
    with pytest.raises(ValueError):
        stats.estimate_probabilities(stats.CountRecord(0, 0, 0, 0))


def test_estimate_probabilities_pinned_no_click_count():
    # n_none replaces the complement (here 6500, within the rounding a published table may carry);
    # the click estimates are unchanged
    record = stats.CountRecord(10_000, 1000, 2000, 500)
    pinned = stats.estimate_probabilities(record, n_none=6501).estimates
    assert pinned[0].value == 0.6501
    assert abs(pinned[0].sigma - np.sqrt(0.6501 * 0.3499 / 10_000)) < 1e-15
    assert pinned[1:] == stats.estimate_probabilities(record).estimates[1:]


def test_sigma_w_exp_plain_sum():
    est = tuple(stats.ProbEstimate(0.25, 1.8e-4) for _ in range(4))
    assert abs(stats.sigma_w_exp(est) - 7.2e-4) < 1e-12
    zeros = tuple(stats.ProbEstimate(0.25, 0.0) for _ in range(4))
    assert stats.sigma_w_exp(zeros) == 0.0


def _z_estimates(jp: JointClickProbabilities, n: int):
    return stats.BasisMeasurement(jp, stats.CountRecord(n, 0, 0, 0)).estimates


def test_sigma_ppt_max_zero_sigmas():
    jp = JointClickProbabilities(0.96, 0.02, 0.02, 0.0)
    est = tuple(stats.ProbEstimate(p, 0.0) for p in (0.96, 0.02, 0.02, 0.0))
    pstars = (stats.ProbEstimate(0.0, 0.0), stats.ProbEstimate(0.0, 0.0))
    coeffs = bound_coefficients(0.83, 0.83)
    assert stats.sigma_ppt_max(est, pstars, coeffs, 0.48) == 0.0


def test_sigma_ppt_max_published_rows():
    # 1.0 km row
    est = _z_estimates(JointClickProbabilities(0.96142, 0.01881, 0.01977, 0.0000059), 14_400_000)
    pstars = (
        stats.ProbEstimate(3.2e-6, stats.binomial_sigma(3.2e-6, 20_000_000)),
        stats.ProbEstimate(1.25e-5, stats.binomial_sigma(1.25e-5, 20_000_000)),
    )
    coeffs = bound_coefficients(0.812, 0.830)
    beta = 0.4815
    assert abs(stats.sigma_ppt_max(est, pstars, coeffs, beta) - 0.0022) < 8e-4
    # 42 m second setting
    est = _z_estimates(JointClickProbabilities(0.96935, 0.01515, 0.01550, 0.0000052), 12_600_000)
    pstars = (
        stats.ProbEstimate(2.5e-6, stats.binomial_sigma(2.5e-6, 30_000_000)),
        stats.ProbEstimate(5.1e-6, stats.binomial_sigma(5.1e-6, 30_000_000)),
    )
    coeffs = bound_coefficients(0.795, 0.815)
    beta = 0.4697
    assert abs(stats.sigma_ppt_max(est, pstars, coeffs, beta) - 0.0016) < 8e-4


def test_sigma_ppt_max_domain_violation():
    est = tuple(stats.ProbEstimate(0.25, 1e-4) for _ in range(4))
    pstars = (stats.ProbEstimate(0.3, 1e-4), stats.ProbEstimate(0.3, 1e-4))
    with pytest.raises(stats.PStarDomainError):
        stats.sigma_ppt_max(est, pstars, bound_coefficients(0.83, 0.83), 0.48)


def test_sigma_ppt_max_monotone_in_sigmas():
    base_jp = JointClickProbabilities(0.96142, 0.01881, 0.01977, 0.0000059)
    base = list(_z_estimates(base_jp, 14_400_000))
    pstars = (stats.ProbEstimate(3.2e-6, 4e-7), stats.ProbEstimate(1.25e-5, 8e-7))
    coeffs = bound_coefficients(0.812, 0.830)
    reference = stats.sigma_ppt_max(tuple(base), pstars, coeffs, 0.4815)
    for i in range(4):
        bumped = list(base)
        bumped[i] = stats.ProbEstimate(base[i].value, base[i].sigma * 1.5 + 1e-9)
        assert stats.sigma_ppt_max(tuple(bumped), pstars, coeffs, 0.4815) >= reference
    for j in range(2):
        bumped_p = list(pstars)
        bumped_p[j] = stats.ProbEstimate(pstars[j].value, pstars[j].sigma * 1.5)
        assert stats.sigma_ppt_max(tuple(base), tuple(bumped_p), coeffs, 0.4815) >= reference


def test_linearized_sqrt_bound_dominates():
    # sqrt(x y) <= (x ybar + y xbar) / (2 sqrt(xbar ybar)) for any estimates
    rng = np.random.default_rng(77)
    x, y = rng.uniform(1e-6, 1.0, (2, 10_000))
    xbar, ybar = rng.uniform(1e-6, 1.0, (2, 10_000))
    lhs = np.sqrt(x * y)
    rhs = (x * ybar + y * xbar) / (2.0 * np.sqrt(xbar * ybar))
    assert np.all(lhs <= rhs + 1e-12)
    equal = (x * y + y * x) / (2.0 * np.sqrt(x * y))
    assert np.max(np.abs(equal - lhs)) < 1e-9


def test_violation_k_examples():
    assert abs(stats.violation_k(0.0253, 0.0007, 0.0071, 0.0022) - 6.2759) < 1e-3
    assert abs(stats.violation_k(0.0206, 0.0008, 0.0071, 0.0016) - 5.625) < 1e-3
    assert stats.violation_k(0.0071, 0.001, 0.0071, 0.001) == 0.0
    with pytest.raises(ValueError):
        stats.violation_k(0.1, 0.0, 0.05, 0.0)


def test_violation_k_antisymmetric_numerator():
    a, b = 0.031, 0.012
    assert stats.violation_k(a, 0.001, b, 0.002) == -stats.violation_k(b, 0.001, a, 0.002)


def test_sample_counts_deterministic():
    jp = JointClickProbabilities(0.25, 0.25, 0.25, 0.25)
    first = stats.sample_counts(jp, 10_000, seed=42)
    second = stats.sample_counts(jp, 10_000, seed=42)
    assert first == second
    other = stats.sample_counts(jp, 10_000, seed=43)
    assert other != first


def _sampling_cases(rng):
    """(quadruple, n_total, seed) cases of the three kinds the pipeline samples and more."""
    cases = []
    # random quadruples with zero entries, totals from 1 to 2**40
    for _ in range(5_000):
        w = rng.uniform(size=4) * (rng.uniform(size=4) < 0.75)
        w[0] += not w.any()
        cases.append(((w / w.sum()).tolist(), int(2 ** rng.uniform(0, 40))))
    # no joint no-clicks, as in an ideal link's z basis: the last conditional ratio often rounds above 1
    for _ in range(20_000):
        w = rng.uniform(size=3)
        cases.append(([0.0, *(w / w.sum()).tolist()], int(2 ** rng.uniform(0, 40))))
    # pstar rows (1 - p, 0, 0, p)
    for p in (0.0, 1.0, *rng.uniform(0.0, 1e-3, size=50).tolist(), *rng.uniform(size=50).tolist()):
        cases.append(([1.0 - p, 0.0, 0.0, p], int(2 ** rng.uniform(0, 40))))
    return [(JointClickProbabilities(*p), n, int(rng.integers(2**63))) for p, n in cases]


def test_sample_counts_equals_the_sequential_binomial_oracle():
    rng = np.random.default_rng(31)
    for jp, n, seed in _sampling_cases(rng):
        assert stats.sample_counts(jp, n, seed) == sample_counts_sequential(jp, n, seed), (jp, n, seed)


def test_sample_counts_degenerate():
    jp = JointClickProbabilities(1.0, 0.0, 0.0, 0.0)
    record = stats.sample_counts(jp, 5_000, seed=0)
    assert (record.n_a, record.n_b, record.n_d) == (0, 0, 0)


def test_sample_counts_calibration_quick():
    # empirical estimator spread tracks the binomial formula
    # (probabilities must sum to 1 exactly, unlike the rounded published rows)
    jp = JointClickProbabilities(0.2575, 0.2504, 0.2370, 0.2551)
    n = 20_000
    trials = 300
    values = np.empty((trials, 4))
    for t in range(trials):
        rec = stats.sample_counts(jp, n, seed=stats.derive_seed(7, t))
        est = stats.estimate_probabilities(rec).estimates
        values[t] = [e.value for e in est]
    expected = [np.sqrt(p * (1 - p) / n) for p in jp.as_array()]
    ratios = values.std(axis=0, ddof=1) / expected
    assert np.all(ratios > 0.85) and np.all(ratios < 1.15)


def test_estimator_consistency_scaling():
    # |estimate - truth| <= 3 sigma on at least 95% of trials at several N
    jp = JointClickProbabilities(0.2575, 0.2504, 0.2370, 0.2551)
    for stream, n in enumerate((10_000, 1_000_000, 100_000_000)):
        hits = 0
        trials = 60
        for t in range(trials):
            rec = stats.sample_counts(jp, n, seed=stats.derive_seed(1000 + stream, t))
            est = stats.estimate_probabilities(rec).estimates
            if all(
                abs(e.value - p) <= 3.0 * np.sqrt(p * (1 - p) / n)
                for e, p in zip(est, jp.as_array())
            ):
                hits += 1
        assert hits >= 0.95 * trials
