"""End-to-end runs: simulation, parameter sweeps, and count-file analysis.

Every entry point returns a plain-dict report that serializes to the
schema shipped in schema/run_report.schema.json.  Reports are
deterministic for a fixed configuration and seed up to the "timing"
block; floating-point values are emitted with 9 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, replace
from datetime import datetime, timezone

import numpy as np

from . import fockcore as fc
from . import stats, witness
from .config import (
    AnalysisSettings,
    BasisMeasurement,
    ConfigError,
    CountsFile,
    ExperimentConfig,
    load_counts_file,
    load_experiment_config,
    load_settings_file,
)
from .herald import heralding_rate, simulate_heralded_state
from .measurement import (
    DisplacementSetting,
    JointClickProbabilities,
    click_povm,
    click_probability_grid,
    displacement_settings_from_phases,
    joint_click_probabilities,
    multiphoton_coincidence_probability,
)
from .stats import CountRecord, ProbEstimate

SCHEMA_VERSION = 1
REPORT_KIND = "pathent.run_report"

# derived-seed stream indices for the Monte Carlo draws
_STREAM_ALPHA, _STREAM_Z, _STREAM_P1, _STREAM_P2 = 0, 1, 2, 3


def run_experiment(config: ExperimentConfig | str, out_path=None) -> dict:
    """Simulate the configured experiment and certify the result."""
    started = time.monotonic()
    if not isinstance(config, ExperimentConfig):
        config = load_experiment_config(config)
    sim = _simulate_probabilities(config)
    report = _certification_report(
        mode="simulation",
        config_echo=config.echo(),
        alpha=sim["alpha"],
        z=sim["z"],
        pstar=(sim["p1_star"], sim["p2_star"]),
        settings=(config.setting_1, config.setting_2),
        heralding={
            "herald_probability": sim["herald_probability"],
            "herald_rate_hz": sim["herald_rate_hz"],
        },
        started=started,
    )
    if out_path is not None:
        write_report(report, out_path)
    return report


def _simulate_probabilities(config: ExperimentConfig) -> dict:
    """Heralded-state simulation and both measurement bases, optionally sampled."""
    heralded = simulate_heralded_state(config.source, config.phases, config.herald_truncation)
    rho = fc.embed_state(heralded.rho, config.truncation)

    s1, s2 = displacement_settings_from_phases(
        config.setting_1.alpha_mean, config.setting_2.alpha_mean, config.phases
    )
    jp_alpha = joint_click_probabilities(rho, s1, s2, config.detector_1, config.detector_2)
    z1 = DisplacementSetting.point(0.0)
    jp_z = joint_click_probabilities(rho, z1, z1, config.detector_1, config.detector_2)

    p1_value = multiphoton_coincidence_probability(fc.partial_trace(rho, (0,)), config.detector_1)
    p2_value = multiphoton_coincidence_probability(fc.partial_trace(rho, (1,)), config.detector_2)

    rate = heralding_rate(heralded.herald_probability, config.pump_rep_rate_hz, config.duty_fraction)
    mc = config.monte_carlo
    n_alpha = mc.n_alpha or max(1, round(rate * config.duration_alpha_s))
    n_z = mc.n_z or max(1, round(rate * config.duration_z_s))
    n_pstar = mc.n_multiphoton or max(1, round(rate * config.duration_multiphoton_s))

    if config.monte_carlo.enabled:
        seed = config.monte_carlo.seed
        counts_alpha = stats.sample_counts(jp_alpha, n_alpha, stats.derive_seed(seed, _STREAM_ALPHA))
        counts_z = stats.sample_counts(jp_z, n_z, stats.derive_seed(seed, _STREAM_Z))
        alpha = BasisMeasurement(stats.estimate_probabilities(counts_alpha), counts_alpha)
        z = BasisMeasurement(stats.estimate_probabilities(counts_z), counts_z)
        rng1 = np.random.Generator(np.random.PCG64(stats.derive_seed(seed, _STREAM_P1)))
        rng2 = np.random.Generator(np.random.PCG64(stats.derive_seed(seed, _STREAM_P2)))
        k1 = int(rng1.binomial(n_pstar, p1_value))
        k2 = int(rng2.binomial(n_pstar, p2_value))
        p1 = ProbEstimate(k1 / n_pstar, stats.binomial_sigma(k1 / n_pstar, n_pstar))
        p2 = ProbEstimate(k2 / n_pstar, stats.binomial_sigma(k2 / n_pstar, n_pstar))
    else:
        alpha = _ideal_basis(jp_alpha, n_alpha)
        z = _ideal_basis(jp_z, n_z)
        p1 = ProbEstimate(p1_value, stats.binomial_sigma(p1_value, n_pstar))
        p2 = ProbEstimate(p2_value, stats.binomial_sigma(p2_value, n_pstar))

    return {
        "alpha": alpha,
        "z": z,
        "p1_star": p1,
        "p2_star": p2,
        "herald_probability": heralded.herald_probability,
        "herald_rate_hz": rate,
        "rho": rho,
    }


def _ideal_basis(jp: JointClickProbabilities, n_total: int) -> BasisMeasurement:
    """Exact probabilities paired with the rounded counts a run of n_total would log."""
    n_a = round(jp.p_c_nc * n_total)
    n_b = min(round(jp.p_nc_c * n_total), n_total - n_a)
    n_d = min(round(jp.p_c_c * n_total), n_total - n_a - n_b)
    counts = CountRecord(n_total, n_a, n_b, n_d)
    return BasisMeasurement(stats.estimates_from_probabilities(jp, n_total), counts)


def certify_from_counts(counts_path, settings_path, out_path=None) -> dict:
    """Analysis path: certification from recorded counts, no simulation."""
    started = time.monotonic()
    counts = load_counts_file(counts_path)
    settings = load_settings_file(settings_path)
    p1, p2 = _resolve_pstar(counts, settings)
    report = _certification_report(
        mode="analysis",
        config_echo={"counts_file": str(counts_path), "settings_file": str(settings_path)},
        alpha=counts.alpha,
        z=counts.z,
        pstar=(p1, p2),
        settings=(settings.setting_1, settings.setting_2),
        heralding=None,
        started=started,
    )
    if out_path is not None:
        write_report(report, out_path)
    return report


def _resolve_pstar(counts: CountsFile, settings: AnalysisSettings) -> tuple[ProbEstimate, ProbEstimate]:
    """Multiphoton bounds: dedicated count rows win over sidecar point values."""
    p1 = counts.pstar1 if counts.pstar1 is not None else (
        ProbEstimate(settings.p1_star, 0.0) if settings.p1_star is not None else None
    )
    p2 = counts.pstar2 if counts.pstar2 is not None else (
        ProbEstimate(settings.p2_star, 0.0) if settings.p2_star is not None else None
    )
    if p1 is None or p2 is None:
        raise ConfigError(
            "multiphoton bounds unavailable: provide pstar1/pstar2 count rows "
            "or p1_star/p2_star in the settings file"
        )
    return p1, p2


def _certification_report(
    mode: str,
    config_echo: dict,
    alpha: BasisMeasurement,
    z: BasisMeasurement,
    pstar: tuple[ProbEstimate, ProbEstimate],
    settings: tuple[DisplacementSetting, DisplacementSetting],
    heralding: dict | None,
    started: float,
) -> dict:
    p1, p2 = pstar
    mb = witness.MultiphotonBounds(p1.value, p2.value)
    report = witness.certify(
        alpha.probabilities,
        z.probabilities,
        settings[0],
        settings[1],
        mb,
        (alpha.counts, z.counts),
        p_star_estimates=pstar,
    )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "mode": mode,
        "config": config_echo,
        "heralding": heralding,
        "probabilities": {
            "alpha_basis": _jp_dict(alpha),
            "z_basis": _jp_dict(z),
        },
        "counts": {
            "alpha_basis": asdict(alpha.counts),
            "z_basis": asdict(z.counts),
        },
        "multiphoton": {
            "p1_star": p1.value,
            "p2_star": p2.value,
            "sigma_p1_star": p1.sigma,
            "sigma_p2_star": p2.sigma,
        },
        "displacement_intervals": {
            "alpha1": [settings[0].alpha_min, settings[0].alpha_mean, settings[0].alpha_max],
            "alpha2": [settings[1].alpha_min, settings[1].alpha_mean, settings[1].alpha_max],
        },
        "witness": asdict(report),
        "timing": {
            "generated_at_utc": datetime.now(timezone.utc).isoformat(),
            "elapsed_s": time.monotonic() - started,
        },
    }
    _check_finite(doc)
    return doc


def _jp_dict(basis: BasisMeasurement) -> dict:
    e = basis.estimates
    return {
        "p_nc_nc": e[0].value,
        "p_nc_c": e[1].value,
        "p_c_nc": e[2].value,
        "p_c_c": e[3].value,
        "sigma_nc_nc": e[0].sigma,
        "sigma_nc_c": e[1].sigma,
        "sigma_c_nc": e[2].sigma,
        "sigma_c_c": e[3].sigma,
    }


def _check_finite(node, path="report"):
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{path}.{key}")
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _check_finite(value, f"{path}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ValueError(f"non-finite value at {path}")


def sweep_phase(config: ExperimentConfig | str, phase_min: float, phase_max: float, steps: int) -> list[dict]:
    """Witness expectation versus the relative measurement phase.

    The central-interferometer phase on Bob's side is offset so that the
    displacement-referenced relative phase spans [phase_min, phase_max].
    An offset delta of chi_B equals exp(i delta n) on Bob's signal mode:
    the pair source puts equal photon numbers in signal and idler, and
    idler loss, the station beam splitter, heralding and signal loss are
    all phase covariant.  So the heralded state is simulated once and
    rotated per point.  The displacement settings and the separable bound
    do not depend on chi_B and are computed once.
    """
    if steps < 2 or not np.isfinite([phase_min, phase_max]).all():
        raise ConfigError("sweep needs at least 2 steps and a finite phase range")
    if not isinstance(config, ExperimentConfig):
        config = load_experiment_config(config)
    # offsets and shifted chi_B between finite ends stay finite
    ends = [phase - config.phases.measured_relative_phase for phase in (phase_min, phase_max)]
    if not all(map(math.isfinite, [phase_max - phase_min, *ends, *(config.phases.chi_b + end for end in ends)])):
        raise ConfigError("phase range too wide: the sweep's phase offsets overflow")
    base = _simulate_probabilities(config)
    mb = witness.MultiphotonBounds(base["p1_star"].value, base["p2_star"].value)
    w_tilde, _ = witness.w_ppt_fluctuation_bound(
        config.setting_1, config.setting_2, base["z"].probabilities, mb
    )
    bound = witness.w_ppt_max(w_tilde, mb, witness.beta_bound(config.setting_1, config.setting_2))

    s1, s2 = displacement_settings_from_phases(
        config.setting_1.alpha_mean, config.setting_2.alpha_mean, config.phases
    )
    povms_1 = np.array([click_povm(s1.amplitude, config.detector_1, config.truncation)])
    povms_2 = np.array([click_povm(s2.amplitude, config.detector_2, config.truncation)])
    rho = base["rho"].matrix
    n_bob = np.arange(len(rho)) % config.truncation.dim  # Bob's photon number per basis index
    n_diff = np.subtract.outer(n_bob, n_bob)

    rows = []
    for offset in np.linspace(phase_min, phase_max, steps) - config.phases.measured_relative_phase:
        phases = replace(config.phases, chi_b=config.phases.chi_b + offset)
        rotated = rho * np.exp(1j * offset * n_diff)
        jp = JointClickProbabilities(*click_probability_grid(rotated, povms_1, povms_2)[0, 0])
        rows.append({
            "delta_theta_rad": phases.measured_relative_phase,
            "w_exp": witness.w_exp(jp),
            "w_ppt_max": bound,
        })
    return rows


def sweep_alpha(config: ExperimentConfig | str, alpha_min: float, alpha_max: float, steps: int) -> dict:
    """Violation w_exp - w_ppt_max over a displacement-amplitude grid.

    Each grid point is evaluated at a point interval (no fluctuation
    slack), where the fluctuation and beta bounds reduce to their
    objectives at the point.  One POVM pair is built per axis value and
    all steps x steps probability quadruples come from one contraction.
    The returned document also carries the two optima of the
    certification amplitudes.
    """
    if not 0.0 < alpha_min <= alpha_max <= 2.0:
        raise ConfigError("alpha grid must satisfy 0 < alpha_min <= alpha_max <= 2")
    if steps < 1:
        raise ConfigError("sweep needs at least 1 step")
    if not isinstance(config, ExperimentConfig):
        config = load_experiment_config(config)
    base = _simulate_probabilities(config)
    jp_z = base["z"].probabilities
    mb = witness.MultiphotonBounds(base["p1_star"].value, base["p2_star"].value)
    grid = np.linspace(alpha_min, alpha_max, steps)

    settings = [displacement_settings_from_phases(a, a, config.phases) for a in grid]
    povms_1 = np.array([click_povm(s1.amplitude, config.detector_1, config.truncation) for s1, _ in settings])
    povms_2 = np.array([click_povm(s2.amplitude, config.detector_2, config.truncation) for _, s2 in settings])
    probs = click_probability_grid(base["rho"].matrix, povms_1, povms_2)
    a1, a2 = grid[:, None], grid[None, :]
    bounds = witness.w_ppt_max(witness.w_tilde_point(a1, a2, jp_z, mb), mb, witness.b_max(a1, a2))

    rows = []
    for i, j in np.ndindex(steps, steps):
        jp = JointClickProbabilities(*probs[i, j])
        rows.append({
            "alpha1": float(grid[i]),
            "alpha2": float(grid[j]),
            "violation": witness.w_exp(jp) - bounds[i, j],
        })

    qp = witness.QubitProbs.from_joint_clicks(jp_z)
    optima = {}
    try:
        robust = witness.optimal_alpha(qp, "robust")
        optima["robust"] = {"alpha1": robust[0], "alpha2": robust[1]}
    except witness.AlphaSearchError as exc:
        optima["robust"] = {"error": str(exc)}
    try:
        best = witness.optimal_alpha(qp, "max_violation", trunc=config.truncation)
        optima["max_violation"] = {"alpha1": best[0], "alpha2": best[1]}
    except witness.AlphaSearchError as exc:
        optima["max_violation"] = {"error": str(exc)}
    return {"rows": rows, "optima": optima}


def format_float(value: float) -> str:
    return f"{value:.9g}"


def _round_floats(node):
    if isinstance(node, dict):
        return {key: _round_floats(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_round_floats(value) for value in node]
    if isinstance(node, (bool, np.bool_)):
        return bool(node)
    if node is None:
        return None
    if isinstance(node, (int, np.integer)):
        return int(node)
    if isinstance(node, (float, np.floating)):
        return float(format_float(float(node)))
    return node


def report_to_json(report: dict) -> str:
    """Canonical JSON text: sorted keys, floats at 9 significant digits."""
    return json.dumps(_round_floats(report), sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w") as handle:
        handle.write(report_to_json(report))


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_float(v) if isinstance(v, float) else v for v in (row[k] for k in header)])
    return buffer.getvalue()
