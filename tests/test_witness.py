from math import sqrt

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathent import fockcore as fc
from pathent import measurement as meas
from pathent import pipeline, stats, witness
from pathent.config import load_experiment_config

from conftest import FIXTURES, random_qubit_pure_state
from reference import expectation_value, ideal_lossy_state, maximize_over_box_dense, point_setting

TR10 = fc.FockTruncation(10)

# published experimental runs: z-basis probabilities, alpha intervals, multiphoton bounds
ROW_42M_SET1 = dict(
    i1=meas.DisplacementSetting(0.720, 0.710, 0.734),
    i2=meas.DisplacementSetting(0.710, 0.702, 0.718),
    jp_z=meas.JointClickProbabilities(0.96834, 0.01431, 0.01735, 0.0000044),
    jp_alpha=meas.JointClickProbabilities(0.3604, 0.2305, 0.2407, 0.1684),
    mb=witness.MultiphotonBounds(2.5e-6, 5.1e-6),
    w_exp=0.0576, w_ppt=0.0391, w_tilde=0.0451, w_max=0.0472, k=4.8,
    n_alpha=5_040_000, n_z=12_600_000, n_pstar=30_000_000,
)
ROW_42M_SET2 = dict(
    i1=meas.DisplacementSetting(0.804, 0.795, 0.814),
    i2=meas.DisplacementSetting(0.819, 0.815, 0.822),
    jp_z=meas.JointClickProbabilities(0.96935, 0.01515, 0.01550, 0.0000052),
    jp_alpha=meas.JointClickProbabilities(0.2715, 0.2504, 0.2393, 0.2388),
    mb=witness.MultiphotonBounds(2.5e-6, 5.1e-6),
    w_exp=0.0206, w_ppt=0.0039, w_tilde=0.0045, w_max=0.0071, k=5.6,
    n_alpha=5_040_000, n_z=12_600_000, n_pstar=30_000_000,
)
ROW_1P0KM = dict(
    i1=meas.DisplacementSetting(0.819, 0.812, 0.824),
    i2=meas.DisplacementSetting(0.837, 0.830, 0.843),
    jp_z=meas.JointClickProbabilities(0.96142, 0.01881, 0.01977, 0.0000059),
    jp_alpha=meas.JointClickProbabilities(0.2575, 0.2504, 0.2370, 0.2552),
    mb=witness.MultiphotonBounds(3.2e-6, 1.25e-5),
    w_exp=0.0253, w_ppt=0.0031, w_tilde=0.0033, w_max=0.0071, k=6.2,
    n_alpha=5_760_000, n_z=14_400_000, n_pstar=20_000_000,
)
ROWS = (ROW_42M_SET1, ROW_42M_SET2, ROW_1P0KM)


def certify_row(row) -> witness.WitnessReport:
    pstars = (
        stats.ProbEstimate(row["mb"].p1_star, stats.binomial_sigma(row["mb"].p1_star, row["n_pstar"])),
        stats.ProbEstimate(row["mb"].p2_star, stats.binomial_sigma(row["mb"].p2_star, row["n_pstar"])),
    )
    return witness.certify(
        measured(row["jp_alpha"], row["n_alpha"]),
        measured(row["jp_z"], row["n_z"]),
        row["i1"],
        row["i2"],
        pstars,
    )


def measured(jp, n_total) -> stats.BasisMeasurement:
    return stats.BasisMeasurement(jp, stats.CountRecord(n_total, 0, 0, 0))


def test_w_exp_examples():
    assert abs(witness.w_exp(ROW_1P0KM["jp_alpha"]) - 0.0253) < 1e-12
    assert abs(witness.w_exp(ROW_42M_SET2["jp_alpha"]) - 0.0206) < 1e-12
    flat = meas.JointClickProbabilities(0.25, 0.25, 0.25, 0.25)
    assert witness.w_exp(flat) == 0.0


def test_w_ppt_qubit_z_basis_limit():
    jp_z = meas.JointClickProbabilities(0.7, 0.1, 0.15, 0.05)
    assert abs(witness.w_ppt_qubit(0.0, 0.0, jp_z) - (0.7 + 0.05 - 0.15 - 0.1)) < 1e-12


@pytest.mark.parametrize("row", ROWS, ids=("42m_set1", "42m_set2", "1p0km"))
def test_w_ppt_qubit_published_rows(row):
    value = witness.w_ppt_qubit(row["i1"].alpha_mean, row["i2"].alpha_mean, row["jp_z"])
    assert abs(value - row["w_ppt"]) < 2e-4


def test_fluctuation_bound_point_interval_matches_qubit_bound():
    jp_z = ROW_1P0KM["jp_z"]
    mb0 = witness.MultiphotonBounds(0.0, 0.0)
    i1 = point_setting(0.819)
    i2 = point_setting(0.837)
    w_tilde, coeffs = witness.w_ppt_fluctuation_bound(i1, i2, jp_z, mb0)
    assert abs(w_tilde - witness.w_ppt_qubit(0.819, 0.837, jp_z)) < 1e-12
    assert np.allclose(coeffs, witness.bound_coefficients(0.819, 0.837))


@pytest.mark.parametrize("row", ROWS, ids=("42m_set1", "42m_set2", "1p0km"))
def test_fluctuation_bound_published_rows(row):
    w_tilde, _ = witness.w_ppt_fluctuation_bound(row["i1"], row["i2"], row["jp_z"], row["mb"])
    assert abs(w_tilde - row["w_tilde"]) < 2e-4


def test_beta_bound_examples():
    point = point_setting(0.83)
    assert abs(witness.beta_bound(point, point) - 0.4786) < 1e-4
    zero = point_setting(0.0)
    assert witness.beta_bound(zero, zero) == 0.0
    i1 = meas.DisplacementSetting(0.819, 0.812, 0.824)
    i2 = meas.DisplacementSetting(0.837, 0.830, 0.843)
    center = witness.b_max(0.819, 0.837)
    assert witness.beta_bound(i1, i2) >= center


def test_w_ppt_max_examples():
    assert witness.w_ppt_max(0.0123, witness.MultiphotonBounds(0.0, 0.0), 0.4) == 0.0123
    row = ROW_1P0KM
    w_tilde, _ = witness.w_ppt_fluctuation_bound(row["i1"], row["i2"], row["jp_z"], row["mb"])
    beta = witness.beta_bound(row["i1"], row["i2"])
    assert abs(witness.w_ppt_max(w_tilde, row["mb"], beta) - 0.0071) < 3e-4
    row = ROW_42M_SET2
    w_tilde, _ = witness.w_ppt_fluctuation_bound(row["i1"], row["i2"], row["jp_z"], row["mb"])
    beta = witness.beta_bound(row["i1"], row["i2"])
    assert abs(witness.w_ppt_max(w_tilde, row["mb"], beta) - 0.0071) < 3e-4


def test_multiphoton_bounds_domain():
    with pytest.raises(stats.PStarDomainError):
        witness.MultiphotonBounds(0.3, 0.3)


def test_pstar_domain_edge_is_exactly_one_half():
    # MultiphotonBounds, which w_ppt_max takes, and sigma_ppt_max share one edge: 1/2 itself is outside
    with pytest.raises(stats.PStarDomainError):
        stats.check_pstar_domain(0.5)
    with pytest.raises(stats.PStarDomainError):
        witness.MultiphotonBounds(0.25, 0.25)
    estimates = tuple(stats.ProbEstimate(p, 0.01) for p in (0.97, 0.01, 0.01, 0.01))
    pstar = (stats.ProbEstimate(0.25, 0.01), stats.ProbEstimate(0.25, 0.01))
    with pytest.raises(stats.PStarDomainError):
        stats.sigma_ppt_max(estimates, pstar, (1.0, 1.0, 1.0, -1.0, -1.0), 0.4)
    below = witness.MultiphotonBounds(0.25, 0.25 - 1e-12)
    assert witness.w_ppt_max(0.0, below, 0.4) > 0.0


def test_bound_ordering_random_inputs():
    # each step of the bound chain only adds slack
    rng = np.random.default_rng(19)
    for _ in range(50):
        singles = rng.uniform(0.0, 0.05, 2)
        p_cc = rng.uniform(0.0, 1e-4)
        p_ncnc = 1.0 - singles.sum() - p_cc
        jp_z = meas.JointClickProbabilities(p_ncnc, singles[0], singles[1], p_cc)
        mean1, mean2 = rng.uniform(0.3, 1.1, 2)
        width1, width2 = rng.uniform(0.0, 0.02, 2)
        i1 = meas.DisplacementSetting(mean1, mean1 - width1, mean1 + width1)
        i2 = meas.DisplacementSetting(mean2, mean2 - width2, mean2 + width2)
        mb = witness.MultiphotonBounds(rng.uniform(0, 1e-4), rng.uniform(0, 1e-4))
        w_ppt = witness.w_ppt_qubit(mean1, mean2, jp_z)
        w_tilde, _ = witness.w_ppt_fluctuation_bound(i1, i2, jp_z, mb)
        w_max = witness.w_ppt_max(w_tilde, mb, witness.beta_bound(i1, i2))
        assert w_ppt <= w_tilde + 1e-12
        assert w_tilde <= w_max + 1e-12


amplitudes = st.floats(0.0, 1.5)
boxes = st.lists(amplitudes, min_size=3, max_size=3).map(sorted).map(lambda a: meas.DisplacementSetting(a[1], a[0], a[2]))
quadruples = st.lists(st.floats(1e-3, 1.0), min_size=4, max_size=4).map(lambda p: np.array(p) / sum(p))
pstars = st.floats(0.0, 0.24)


def swap_clicks(jp: meas.JointClickProbabilities) -> meas.JointClickProbabilities:
    return meas.JointClickProbabilities(jp.p_nc_nc, jp.p_c_nc, jp.p_nc_c, jp.p_c_c)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a1=amplitudes, a2=amplitudes, p=quadruples)
def test_w_ppt_qubit_swap_symmetry(a1, a2, p):
    jp_z = meas.JointClickProbabilities(*p)
    assert abs(witness.w_ppt_qubit(a1, a2, jp_z) - witness.w_ppt_qubit(a2, a1, swap_clicks(jp_z))) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(i1=boxes, i2=boxes, p=quadruples, p1=pstars, p2=pstars)
def test_box_bounds_swap_symmetry(i1, i2, p, p1, p2):
    jp_z = meas.JointClickProbabilities(*p)
    value, _ = witness.w_ppt_fluctuation_bound(i1, i2, jp_z, witness.MultiphotonBounds(p1, p2))
    swapped, _ = witness.w_ppt_fluctuation_bound(i2, i1, swap_clicks(jp_z), witness.MultiphotonBounds(p2, p1))
    assert abs(value - swapped) <= 1e-12
    assert abs(witness.beta_bound(i1, i2) - witness.beta_bound(i2, i1)) <= 1e-12


points = amplitudes.map(point_setting)


def box_maxima(box_pair, jp_z, mb):
    """(objective, (value, maximizer or None)) of both box bounds, as certify takes them."""
    def w_tilde(x1, x2):
        return witness.w_tilde_point(x1, x2, jp_z, mb)

    w_search = witness._maximize_over_box(w_tilde, lambda lo, hi: witness._w_tilde_slopes(lo, hi, jp_z, mb),
                                          witness._clipped_box(*box_pair))
    return [(witness.b_max, (witness.beta_bound(*box_pair), None)), (w_tilde, w_search)]


def falls_away_from(objective, corner, i1, i2, step=1e-6, slope=1e-3):
    """Whether objective drops by more than slope * step a step into the box along each axis of nonzero width."""
    at_corner = objective(*np.array([corner]).T)
    for axis, i in enumerate((i1, i2)):
        width = i.alpha_max - i.alpha_min
        if width > 0.0:
            inside = np.array([corner])
            inside[0, axis] += min(step, width) if corner[axis] == i.alpha_min else -min(step, width)
            if not at_corner - objective(*inside.T) > slope * min(step, width):
                return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(box_pair=st.tuples(points, points) | st.tuples(points, boxes) | st.tuples(boxes, points), p=quadruples,
       p1=pstars, p2=pstars)
def test_point_axes_match_the_dense_box_search_bitwise(box_pair, p, p1, p2):
    # At a corner the objective falls away from, the certified search collapses to that corner and returns the
    # grid search's value and point, and beta_bound's largest candidate is that corner.  Elsewhere the grid search
    # is a heuristic that finds no more than the true maximum: b_max's maxima at (1, 1) and inside an edge are
    # candidates of beta_bound, a corner with a vanishing slope (amplitudes ~1e-9) leaves a certified gap in the
    # w_tilde search, and an objective flat in exact arithmetic varies by rounding only.
    i1, i2 = box_pair
    corners = {(x1, x2) for x1 in (i1.alpha_min, i1.alpha_max) for x2 in (i2.alpha_min, i2.alpha_max)}
    for objective, (value, point) in box_maxima(box_pair, meas.JointClickProbabilities(*p),
                                                witness.MultiphotonBounds(p1, p2)):
        dense = maximize_over_box_dense(objective, i1, i2)
        if dense[1] in corners and falls_away_from(objective, dense[1], i1, i2):
            assert value == dense[0] and point in (None, dense[1])
        else:
            assert value >= dense[0] - 1e-15


def dense_grid_maxima(i1, i2, jp_z, mb, n=1201):
    """Maxima of w_tilde_point and b_max over an n x n grid of the box (one sample on a zero-width axis).

    Both are formed from one-amplitude factors, ~5x faster than evaluating
    the objectives on the grid.  With f = 2e - 1, g = 2 a^2 e - 1 < 0 and
    A = a e, w_tilde is the rank-5 sum (P00 f1 + P10 g1) f2 + (P11 g1 + P01 f1) g2
    + 8 S A1 A2 + p1* |g1| max(f2, 0) + p2* max(f1, 0) |g2|.
    """
    a1, a2 = (np.linspace(i.alpha_min, i.alpha_max, n if i.alpha_max > i.alpha_min else 1) for i in (i1, i2))
    e1, e2 = np.exp(-(a1**2)), np.exp(-(a2**2))
    f1, f2, g1, g2 = 2.0 * e1 - 1.0, 2.0 * e2 - 1.0, 2.0 * a1**2 * e1 - 1.0, 2.0 * a2**2 * e2 - 1.0
    p00, p01, p10, p11 = jp_z.p_nc_nc, jp_z.p_nc_c, jp_z.p_c_nc, jp_z.p_c_c
    left = np.array([p00 * f1 + p10 * g1, p11 * g1 + p01 * f1, 8.0 * sqrt(p00 * p11) * a1 * e1,
                     -mb.p1_star * g1, mb.p2_star * np.maximum(f1, 0.0)])
    right = np.array([f2, g2, a2 * e2, np.maximum(f2, 0.0), -g2])
    w_tilde = (left.T @ right).max()
    b = (np.outer(2.0 * sqrt(2.0) * a1 * e1, a2 * e2) * np.sqrt(np.add.outer(a1**4, a2**4))).max()
    return float(w_tilde), float(b)


sides = points | boxes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(box_pair=st.tuples(sides, sides), p=quadruples, p1=pstars, p2=pstars)
def test_box_bounds_are_sound_and_tight_against_a_fine_grid(box_pair, p, p1, p2):
    jp_z, mb = meas.JointClickProbabilities(*p), witness.MultiphotonBounds(p1, p2)
    w_grid, b_grid = dense_grid_maxima(*box_pair, jp_z, mb)
    w_tilde, _ = witness.w_ppt_fluctuation_bound(*box_pair, jp_z, mb)
    beta = witness.beta_bound(*box_pair)
    for value, grid in ((w_tilde, w_grid), (beta, b_grid)):
        assert grid - 1e-15 <= value <= grid + 1e-6


RIDGE_BOX = (meas.DisplacementSetting(0.9, 0.7737, 1.0425), meas.DisplacementSetting(0.85, 0.6982, 1.0024))


def test_axis_factors_enclose_every_factor_sampled_in_the_box():
    # random boxes over [0, 3], and boxes around each amplitude where A, A', g or g' has an interior extremum
    rng = np.random.default_rng(17)
    critical = np.sqrt([0.5, 1.5, 1.0, (5.0 - sqrt(17.0)) / 4.0, (5.0 + sqrt(17.0)) / 4.0])
    centres = np.concatenate((rng.uniform(0.0, 3.0, 400), np.repeat(critical, 80) + rng.uniform(-0.05, 0.05, 400)))
    widths = 10.0 ** rng.uniform(-3.0, 0.0, len(centres))
    share = rng.uniform(0.0, 1.0, len(centres))
    lo = np.maximum(centres - share * widths, 0.0)
    hi = lo + widths
    ends = witness._axis_factors(lo[None], hi[None])[:, :, 0]  # (end, factor, box)
    samples = lo + (hi - lo) * np.linspace(0.0, 1.0, 2001)[:, None]
    values = np.array(witness._factors(samples))  # (factor, sample, box)
    assert (values >= ends[0][:, None] - 1e-14).all()
    assert (values <= ends[1][:, None] + 1e-14).all()


def test_beta_bound_reaches_the_ridge_maximum():
    # the grid search refined one cell around the coarse argmax and returned 0.5413410853511611 here, and the
    # 1201 x 1201 grid maximum is 0.5413411329462864; the true maximum is 4 / e^2, at (1, 1)
    with mp.workdps(30):
        ridge = 4 * mp.exp(-2)
        assert abs(witness.beta_bound(*RIDGE_BOX) - ridge) <= 1e-15 * ridge


def b_max_mp(a1, a2):
    return 2 * a1 * mp.exp(-(a1**2)) * a2 * mp.exp(-(a2**2)) * mp.sqrt(2 * (a1**4 + a2**4))


def beta_mp(i1, i2, scan=400):
    """Maximum of b_max over the box at the working precision, from its corners, (1, 1) if inside, and along each
    edge the root of the numerical slope started from the argmax of a scan, where that argmax is not an end.

    The ends are clipped at 64 as in the bound, so that the scan resolves the peak; beyond 64, b_max < exp(-4096).
    """
    lo1, hi1, lo2, hi2 = (mp.mpf(min(a, 64.0)) for a in (i1.alpha_min, i1.alpha_max, i2.alpha_min, i2.alpha_max))
    points = [(x1, x2) for x1 in (lo1, hi1) for x2 in (lo2, hi2)]
    if lo1 <= 1 <= hi1 and lo2 <= 1 <= hi2:
        points.append((mp.mpf(1), mp.mpf(1)))
    for fixed, lo, hi in ((lo1, lo2, hi2), (hi1, lo2, hi2), (lo2, lo1, hi1), (hi2, lo1, hi1)):
        def along(a, fixed=fixed):
            return b_max_mp(fixed, a)

        start = max((lo + (hi - lo) * k / scan for k in range(scan + 1)), key=along)
        if lo < start < hi:
            root = mp.findroot(lambda a, along=along: mp.diff(along, a), start)
            assert lo <= root <= hi
            points.append((fixed, root))
    return max(b_max_mp(*point) for point in points)


def setting(alpha_min, alpha_mean, alpha_max):
    return meas.DisplacementSetting(alpha_mean, alpha_min, alpha_max)


BETA_BOXES = {
    **{name: (row["i1"], row["i2"]) for name, row in zip(("42m_set1", "42m_set2", "1p0km"), ROWS)},
    # the synthetic certify boxes of tools/identity.py: the first holds (1, 1), the others' maxima lie inside an edge
    "synthetic-0": (setting(0.325, 0.518, 1.357), setting(0.376, 0.514, 1.444)),
    "synthetic-1": (setting(0.416, 0.542, 0.673), setting(0.43, 0.519, 1.361)),
    "synthetic-2": (setting(0.343, 0.5, 0.705), setting(0.928, 1.1, 1.603)),
    "wide": (setting(0.3, 0.9, 1.5), setting(0.3, 0.9, 1.5)),
    "ridge": RIDGE_BOX,
    "point": (point_setting(0.83), point_setting(0.83)),
    "zero": (point_setting(0.0), point_setting(0.0)),
    "clipped-at-64": (setting(0.5, 2.0, 1e3), setting(0.7, 0.8, 0.9)),
}


@pytest.mark.parametrize("name", (*BETA_BOXES, "lossy_link"))
def test_beta_bound_matches_the_mpmath_maximum(name):
    if name == "lossy_link":
        row = lossy_link_box()
        box = row["i1"], row["i2"]
    else:
        box = BETA_BOXES[name]
    with mp.workdps(30):
        reference = beta_mp(*box)
        assert abs(witness.beta_bound(*box) - reference) <= 2e-15 * reference


def lossy_link_box():
    sim = pipeline._simulate_probabilities(load_experiment_config(FIXTURES / "lossy_link.json"))
    return dict(i1=sim["intervals"][0], i2=sim["intervals"][1], jp_z=sim["z"].probabilities,
                mb=witness.MultiphotonBounds(sim["p1_star"].value, sim["p2_star"].value))


@pytest.mark.parametrize("row", (*ROWS, "lossy_link"), ids=("42m_set1", "42m_set2", "1p0km", "lossy_link"))
def test_corner_maxima_equal_the_dense_box_search_bitwise(row):
    row = lossy_link_box() if row == "lossy_link" else row
    i1, i2, jp_z, mb = row["i1"], row["i2"], row["jp_z"], row["mb"]
    value, coeffs = witness.w_ppt_fluctuation_bound(i1, i2, jp_z, mb)
    dense, point = maximize_over_box_dense(lambda x1, x2: witness.w_tilde_point(x1, x2, jp_z, mb), i1, i2)
    assert (value, coeffs) == (dense, witness.bound_coefficients(*point))
    assert witness.beta_bound(i1, i2) == maximize_over_box_dense(witness.b_max, i1, i2)[0]


def test_zero_displacement_cannot_witness():
    # at alpha = 0 the z-basis value never exceeds the dimension-free bound
    rng = np.random.default_rng(63)
    zero = point_setting(0.0)
    for _ in range(25):
        singles = rng.uniform(0.0, 0.4, 2)
        p_cc = rng.uniform(0.0, 0.1)
        jp_z = meas.JointClickProbabilities(1.0 - singles.sum() - p_cc, singles[0], singles[1], p_cc)
        mb = witness.MultiphotonBounds(rng.uniform(0, 0.01), rng.uniform(0, 0.01))
        w_tilde, _ = witness.w_ppt_fluctuation_bound(zero, zero, jp_z, mb)
        bound = witness.w_ppt_max(w_tilde, mb, witness.beta_bound(zero, zero))
        assert witness.w_exp(jp_z) <= bound + 1e-12


def test_robustness_identity_quick():
    for eta in (0.1, 0.5, 1.0):
        for alpha in (0.3, 0.83):
            rho = ideal_lossy_state(eta, 0.0, TR10)
            w_op = meas.phase_averaged_witness_operator(alpha, alpha, TR10)
            diag = meas.JointClickProbabilities(1.0 - eta, eta / 2.0, eta / 2.0, 0.0)
            violation = expectation_value(rho, w_op) - witness.w_ppt_qubit(alpha, alpha, diag)
            expected = 8.0 * alpha**2 * np.exp(-2.0 * alpha**2) * eta / 2.0
            assert abs(violation - expected) < 1e-9


def test_detection_for_arbitrary_loss():
    # for every eta there is an amplitude with positive violation
    w_ops = {a: meas.phase_averaged_witness_operator(a, a, TR10) for a in (0.4, 0.7071, 1.0)}
    for eta in np.arange(0.01, 1.001, 0.0999):
        rho = ideal_lossy_state(eta, 0.0, TR10)
        diag = meas.JointClickProbabilities(1.0 - eta, eta / 2.0, eta / 2.0, 0.0)
        best = max(
            expectation_value(rho, w_op) - witness.w_ppt_qubit(a, a, diag)
            for a, w_op in w_ops.items()
        )
        assert best > 0.0


def test_separable_soundness_sample():
    # product-state mixtures never beat the PPT bound (relaxed cross term)
    rng = np.random.default_rng(101)
    settings = ((0.72, 0.71), (0.83, 0.83), (0.5, 1.0))
    for _ in range(500):
        components = rng.integers(1, 5)
        weights = rng.dirichlet(np.ones(components))
        rho = np.zeros((4, 4), dtype=complex)
        for w in weights:
            psi_a = random_qubit_pure_state(rng)
            psi_b = random_qubit_pure_state(rng)
            psi = np.kron(psi_a, psi_b)
            rho += w * np.outer(psi, psi.conj())
        diag = np.diag(rho).real
        jp_z = meas.JointClickProbabilities(*diag)
        for a1, a2 in settings:
            w_block = _qubit_block(a1, a2)
            value = np.trace(rho @ w_block).real
            assert value <= witness.w_ppt_qubit(a1, a2, jp_z) + 1e-9


def _qubit_block(a1: float, a2: float) -> np.ndarray:
    d = TR10.dim
    w = meas.phase_averaged_witness_operator(a1, a2, TR10)
    idx = [0, 1, d, d + 1]
    return w[np.ix_(idx, idx)]


def test_optimal_alpha_max_violation_ideal():
    a1, a2 = witness.optimal_alpha(meas.JointClickProbabilities(0.0, 0.5, 0.5, 0.0), "max_violation")
    assert abs(a1 - 1.0 / np.sqrt(2.0)) < 1e-15
    assert a1 == a2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    eta=st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
    n_max=st.integers(3, 10),
    h=st.sampled_from([1e-2, 1e-3, 1e-4]),
)
def test_max_violation_optimum_is_the_truncated_maximum(eta, n_max, h):
    # the truncated objective: witness on the ideal lossy state minus the qubit bound of its diagonal
    jp_z = meas.JointClickProbabilities(1.0 - eta, eta / 2.0, eta / 2.0, 0.0)
    assert witness.optimal_alpha(jp_z, "max_violation") == (sqrt(0.5), sqrt(0.5))
    trunc = fc.FockTruncation(n_max)
    rho = ideal_lossy_state(eta, 0.0, trunc).matrix

    def violation(a: float) -> float:
        w = meas.phase_averaged_witness_operator(a, a, trunc)
        return np.trace(rho @ w).real - witness.w_ppt_qubit(a, a, jp_z)

    best = violation(sqrt(0.5))
    # 4 eta alpha^2 exp(-2 alpha^2) at alpha^2 = 1/2, to rounding: the displaced parity is exact on its levels
    assert abs(best - 2.0 * eta / np.e) <= 1e-14
    # neighbours are lower by about 8 eta h^2 / e; allow rounding of the trace
    assert violation(sqrt(0.5) - h) <= best + 1e-15
    assert violation(sqrt(0.5) + h) <= best + 1e-15


def _w_diagonal_mp(alpha, jp_z: meas.JointClickProbabilities):
    """w_ppt_qubit(alpha, alpha, jp_z) in mpmath arithmetic, from the coefficient definitions."""
    e = mp.exp(-(alpha**2))
    f = 2 * e - 1
    g = 2 * alpha**2 * e - 1
    c2 = 8 * alpha**2 * e**2
    p00, p01, p10, p11 = (mp.mpf(p) for p in (jp_z.p_nc_nc, jp_z.p_nc_c, jp_z.p_c_nc, jp_z.p_c_c))
    return f * f * p00 + c2 * mp.sqrt(p00 * p11) + g * g * p11 + g * f * p10 + f * g * p01


def _slope_mp(alpha, jp_z: meas.JointClickProbabilities):
    return mp.diff(lambda x: _w_diagonal_mp(x, jp_z), alpha)


def _robust_root_mp(jp_z: meas.JointClickProbabilities):
    """First stationary amplitude of the bound on the optimizer's grid, found by mpmath; None if none."""
    grid = [mp.mpf(a) for a in np.linspace(0.05, 2.0, 200)]
    slopes = [_slope_mp(a, jp_z) for a in grid]
    for lo, hi, s_lo, s_hi in zip(grid, grid[1:], slopes, slopes[1:]):
        if s_lo * s_hi <= 0 and s_lo != s_hi:
            return mp.findroot(lambda x: _slope_mp(x, jp_z), (lo, hi), solver="anderson")
    return None


qubit_diagonals = st.one_of(
    quadruples,
    # near the published z-basis diagonals: mostly vacuum, few coincidences
    st.tuples(st.floats(0.0, 0.1), st.floats(0.0, 0.1), st.floats(0.0, 1e-3)).map(
        lambda p: np.array([1.0 - sum(p), *p])
    ),
).map(lambda p: meas.JointClickProbabilities(*p))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(jp_z=qubit_diagonals, alpha=st.floats(0.05, 2.0))
def test_bound_slope_matches_mpmath_derivative(jp_z, alpha):
    with mp.workdps(40):
        assert abs(witness.w_ppt_qubit(alpha, alpha, jp_z) - float(_w_diagonal_mp(mp.mpf(alpha), jp_z))) <= 1e-15
        assert abs(witness.w_ppt_qubit_slope(alpha, jp_z) - float(_slope_mp(mp.mpf(alpha), jp_z))) <= 1e-14


def _robust_optimum_counted(jp_z: meas.JointClickProbabilities):
    """optimal_alpha(jp_z, "robust") and the number of scalar slope evaluations it took."""
    slope, scalar_calls = witness.w_ppt_qubit_slope, []

    def counted(alpha, jp):
        scalar_calls.append(np.ndim(alpha) == 0)
        return slope(alpha, jp)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(witness, "w_ppt_qubit_slope", counted)
        optimum = witness.optimal_alpha(jp_z, "robust")
    return optimum, sum(scalar_calls)


def _check_robust_root(jp_z: meas.JointClickProbabilities):
    with mp.workdps(40):
        root = _robust_root_mp(jp_z)
    if root is None:
        with pytest.raises(witness.AlphaSearchError):
            witness.optimal_alpha(jp_z, "robust")
        return
    (a1, a2), evaluations = _robust_optimum_counted(jp_z)
    assert a1 == a2
    assert abs(a1 - float(root)) <= 1e-12
    # bisecting the grid's 0.0098-wide bracket to 1e-14 takes 40
    assert evaluations <= 40


@pytest.mark.parametrize("row", ROWS, ids=("42m_set1", "42m_set2", "1p0km"))
def test_robust_optimum_matches_mpmath_root_published(row):
    _check_robust_root(row["jp_z"])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(jp_z=qubit_diagonals)
def test_robust_optimum_matches_mpmath_root_random(jp_z):
    _check_robust_root(jp_z)


@pytest.mark.parametrize("row", ROWS, ids=("42m_set1", "42m_set2", "1p0km"))
def test_robust_optimum_takes_few_slope_evaluations_on_published_diagonals(row):
    _, evaluations = _robust_optimum_counted(row["jp_z"])
    assert evaluations <= 10


def test_optimal_alpha_robust_published_diagonals():
    a1, a2 = witness.optimal_alpha(ROW_1P0KM["jp_z"], "robust")
    assert abs(a1 - 0.83) < 0.01
    assert a1 == a2
    a1, _ = witness.optimal_alpha(ROW_42M_SET1["jp_z"], "robust")
    assert abs(a1 - 0.83) < 0.01


def test_optimal_alpha_symmetric_diagonal():
    a1, a2 = witness.optimal_alpha(meas.JointClickProbabilities(0.92, 0.04, 0.04, 0.0), "robust")
    assert a1 == a2


def test_optimal_alpha_failure_cases():
    with pytest.raises(witness.AlphaSearchError):
        witness.optimal_alpha(meas.JointClickProbabilities(1.0, 0.0, 0.0, 0.0), "max_violation")
    with pytest.raises(ValueError):
        witness.optimal_alpha(meas.JointClickProbabilities(1.0, 0.0, 0.0, 0.0), "nonsense")


@pytest.mark.parametrize("row", ROWS, ids=("42m_set1", "42m_set2", "1p0km"))
def test_certify_published_rows(row):
    report = certify_row(row)
    assert abs(report.w_exp - row["w_exp"]) < 1e-12
    assert abs(report.w_ppt - row["w_ppt"]) < 3e-4
    assert abs(report.w_tilde_ppt - row["w_tilde"]) < 3e-4
    assert abs(report.w_ppt_max - row["w_max"]) < 5e-4
    assert abs(report.k - row["k"]) <= 0.5
    assert report.entangled


def test_certify_self_consistency():
    report = certify_row(ROW_1P0KM)
    # the k definition holds exactly on the report's own numbers
    assert report.k == (report.w_exp - report.w_ppt_max) / (report.sigma_ppt_max + report.sigma_exp)
    assert report.w_ppt <= report.w_tilde_ppt <= report.w_ppt_max
    assert report.entangled == (report.w_exp > report.w_ppt_max)


def test_certify_not_entangled_reports_nonpositive_k():
    jp_alpha = meas.JointClickProbabilities(0.25, 0.25, 0.25, 0.25)
    row = ROW_1P0KM
    report = witness.certify(
        measured(jp_alpha, 10_000),
        measured(row["jp_z"], 10_000),
        row["i1"],
        row["i2"],
        (stats.ProbEstimate(row["mb"].p1_star, 0.0), stats.ProbEstimate(row["mb"].p2_star, 0.0)),
    )
    assert not report.entangled
    assert report.k <= 0.0
