"""End-to-end acceptance checks.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them all.  Expected values come from the published result tables
and closed forms; tolerances are fixed here, not tuned.
"""

import time

import numpy as np
import pytest

from pathent import fockcore as fc
from pathent import measurement as meas
from pathent import pipeline, stats, witness
from pathent.config import load_experiment_config
from pathent.herald import SourceParams, simulate_heralded_state
from pathent.measurement import JointClickProbabilities

from conftest import FIXTURES, random_density_matrix, random_qubit_pure_state
from reference import expectation_value, fock_ket, ideal_lossy_state, loss_kraus_sum, lossy_click_probabilities

D11 = 11  # levels per mode at n_max 10

GOLDEN = {
    "42m_set1": dict(w_exp=0.0576, w_ppt=0.0391, w_tilde=0.0451, w_max=0.0472, k=4.8),
    "42m_set2": dict(w_exp=0.0206, w_ppt=0.0039, w_tilde=0.0045, w_max=0.0071, k=5.6),
    "1p0km": dict(w_exp=0.0253, w_ppt=0.0031, w_tilde=0.0033, w_max=0.0071, k=6.2),
}
FIXTURE_STEMS = {
    "42m_set1": "published_42m_set1",
    "42m_set2": "published_42m_set2",
    "1p0km": "published_1p0km",
}

_golden_cache = None


def golden_reports():
    """Certify all published runs once; returns (reports, elapsed seconds)."""
    global _golden_cache
    if _golden_cache is None:
        start = time.monotonic()
        reports = {
            name: pipeline.certify_from_counts(
                FIXTURES / f"{stem}.counts.csv", FIXTURES / f"{stem}.settings.csv"
            )
            for name, stem in FIXTURE_STEMS.items()
        }
        _golden_cache = (reports, time.monotonic() - start)
    return _golden_cache


def _criterion(number: int, name: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_golden_witness_values():
    reports, elapsed = golden_reports()
    checks = []
    for name, expected in GOLDEN.items():
        wit = reports[name]["witness"]
        checks.append(abs(wit["w_exp"] - expected["w_exp"]) < 1e-12)
        checks.append(abs(wit["w_ppt"] - expected["w_ppt"]) <= 3e-4)
        checks.append(abs(wit["w_tilde_ppt"] - expected["w_tilde"]) <= 3e-4)
        checks.append(abs(wit["w_ppt_max"] - expected["w_max"]) <= 5e-4)
    checks.append(elapsed < 1.0)
    values = {n: round(reports[n]["witness"]["w_ppt_max"], 5) for n in GOLDEN}
    _criterion(1, "golden witness values", all(checks), f"w_ppt_max={values}, elapsed={elapsed:.2f}s")


def test_criterion_2_significance():
    reports, elapsed = golden_reports()
    ks = {name: reports[name]["witness"]["k"] for name in GOLDEN}
    ok = all(abs(ks[name] - GOLDEN[name]["k"]) <= 0.5 for name in GOLDEN) and elapsed < 1.0
    _criterion(2, "violation significance", ok, f"k={ {n: round(v, 2) for n, v in ks.items()} }")


def test_criterion_3_robustness_identity():
    start = time.monotonic()
    worst = 0.0
    for eta in (0.01, 0.1, 0.5, 1.0):
        rho = ideal_lossy_state(eta, 0.0, D11)
        diag = JointClickProbabilities(1.0 - eta, eta / 2.0, eta / 2.0, 0.0)
        for alpha in (0.3, 0.7, 0.83, 1.2):
            w_op = meas.phase_averaged_witness_operator(alpha, alpha, D11)
            violation = expectation_value(rho, w_op) - witness.w_ppt_qubit(alpha, alpha, diag)
            expected = 8.0 * alpha * alpha * np.exp(-2.0 * alpha * alpha) * eta / 2.0
            worst = max(worst, abs(violation - expected))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _criterion(3, "robustness identity", ok, f"worst deviation={worst:.2e}, elapsed={elapsed:.2f}s")


def test_criterion_4_efficiency_folding():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    d = 7
    etas = np.arange(0.1, 1.01, 0.1)
    worst = 0.0
    for i in range(100):
        rho = fc.DensityOperator(random_density_matrix(rng, d**2), (d, d))
        eta = float(etas[i % len(etas)])
        alpha = float(rng.uniform(0.2, 1.2))
        # the detector side in the Heisenberg picture, Lambda_eta^dag on each POVM
        jp_det = lossy_click_probabilities(rho.matrix, [alpha], [alpha], eta, eta, d)[0, 0]
        folded = alpha * np.sqrt(eta)
        lossy = fc.DensityOperator(loss_kraus_sum(rho, 0, eta), rho.mode_dims)
        lossy = fc.DensityOperator(loss_kraus_sum(lossy, 1, eta), rho.mode_dims)
        jp_loss = meas.joint_click_probabilities(lossy, folded, folded)
        worst = max(worst, float(np.max(np.abs(jp_det - jp_loss.as_array()))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 30.0
    _criterion(4, "efficiency folding", ok, f"worst deviation={worst:.2e}, elapsed={elapsed:.2f}s")


def test_criterion_5_separable_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(555)
    n_states = 10_000
    states = np.empty((n_states, 4, 4), dtype=complex)
    for i in range(n_states):
        k = rng.integers(1, 5)
        weights = rng.dirichlet(np.ones(k))
        rho = np.zeros((4, 4), dtype=complex)
        for w in weights:
            psi = np.kron(random_qubit_pure_state(rng), random_qubit_pure_state(rng))
            rho += w * np.outer(psi, psi.conj())
        states[i] = rho
    diags = np.einsum("nii->ni", states).real
    worst = -np.inf
    settings = ((0.72, 0.71), (0.83, 0.83), (0.5, 0.9), (1.0, 1.0), (0.3, 1.2))
    d = D11
    qubit_idx = [0, 1, d, d + 1]
    for a1, a2 in settings:
        w_full = meas.phase_averaged_witness_operator(a1, a2, D11)
        block = w_full[np.ix_(qubit_idx, qubit_idx)]
        values = np.einsum("nij,ji->n", states, block).real
        c1, c2, c3, c4, c5 = witness.bound_coefficients(a1, a2)
        bounds = (
            c1 * diags[:, 0]
            + c2 * np.sqrt(diags[:, 0] * diags[:, 3])
            + c3 * diags[:, 3]
            + c4 * diags[:, 2]
            + c5 * diags[:, 1]
        )
        worst = max(worst, float(np.max(values - bounds)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _criterion(5, "separable soundness", ok, f"max excess={worst:.2e} over {n_states} mixtures, elapsed={elapsed:.1f}s")


def test_criterion_6_optimal_amplitudes():
    start = time.monotonic()
    ideal = JointClickProbabilities(0.0, 0.5, 0.5, 0.0)
    a_max, _ = witness.optimal_alpha(ideal, "max_violation")
    jp_km = JointClickProbabilities(0.96142, 0.01881, 0.01977, 0.0000059)
    a_rob_km, _ = witness.optimal_alpha(jp_km, "robust")
    jp_42 = JointClickProbabilities(0.96834, 0.01431, 0.01735, 0.0000044)
    a_rob_42, _ = witness.optimal_alpha(jp_42, "robust")
    elapsed = time.monotonic() - start
    ok = (
        abs(a_max - 0.7071) <= 0.005
        and abs(a_rob_km - 0.83) <= 0.01
        and abs(a_rob_42 - 0.83) <= 0.01
        and elapsed < 10.0
    )
    _criterion(
        6,
        "optimal amplitudes",
        ok,
        f"max_violation={a_max:.4f}, robust={a_rob_km:.4f}/{a_rob_42:.4f}, elapsed={elapsed:.2f}s",
    )


def test_criterion_7_phase_sweep_cosine():
    start = time.monotonic()
    rows = pipeline.sweep_phase(load_experiment_config(FIXTURES / "ideal_link.json"), -np.pi, np.pi, 25)
    theta = np.array([row["delta_theta_rad"] for row in rows])
    w = np.array([row["w_exp"] for row in rows])
    bound = rows[0]["w_ppt_max"]
    design = np.column_stack([np.cos(theta), np.ones_like(theta)])
    coeff, *_ = np.linalg.lstsq(design, w, rcond=None)
    residual = float(np.max(np.abs(design @ coeff - w)))
    at_pi = w[np.argmin(np.abs(np.abs(theta) - np.pi))]
    elapsed = time.monotonic() - start
    ok = residual < 1e-6 and at_pi < bound and coeff[0] > 0.1 and elapsed < 30.0
    _criterion(
        7,
        "phase sweep",
        ok,
        f"cosine fit residual={residual:.2e}, w_exp(pi)={at_pi:.3f} < bound={bound:.4f}, elapsed={elapsed:.1f}s",
    )


def test_criterion_8_monte_carlo_calibration():
    start = time.monotonic()
    jp = JointClickProbabilities(0.2575, 0.2504, 0.2370, 0.2551)
    n = 100_000
    trials = 1000
    values = np.empty((trials, 4))
    for t in range(trials):
        record = stats.sample_counts(jp, n, seed=stats.derive_seed(99, t))
        values[t] = [e.value for e in stats.estimate_probabilities(record).estimates]
    empirical = values.std(axis=0, ddof=1)
    expected = np.sqrt(jp.as_array() * (1.0 - jp.as_array()) / n)
    ratios = empirical / expected
    elapsed = time.monotonic() - start
    ok = bool(np.all(np.abs(ratios - 1.0) <= 0.10)) and elapsed < 60.0
    _criterion(8, "Monte Carlo calibration", ok, f"sigma ratios={np.round(ratios, 3)}, elapsed={elapsed:.1f}s")


def test_criterion_9_heralded_state_limit():
    start = time.monotonic()
    d = 4
    low, _ = simulate_heralded_state(SourceParams(pair_probability=1e-6), (1.0, 1.0), d)
    psi = (fock_ket((1, 0), d) + fock_ket((0, 1), d)) / np.sqrt(2.0)
    fidelity = float((psi.conj() @ low.matrix @ psi).real)

    p = 3e-3
    operating, _ = simulate_heralded_state(SourceParams(pair_probability=p), (1.0, 1.0), d)
    diag = np.diag(operating.matrix).real.reshape(d, d)
    ratio = diag[1, 1] / (diag[1, 0] + diag[0, 1])
    elapsed = time.monotonic() - start
    ok = fidelity >= 0.999 and p / 4 <= ratio <= 4 * p and elapsed < 60.0
    _criterion(
        9,
        "heralded-state limit",
        ok,
        f"fidelity={fidelity:.6f}, P11/(P10+P01)={ratio:.2e} for p={p}, elapsed={elapsed:.1f}s",
    )
