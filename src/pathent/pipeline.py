"""End-to-end runs: simulation, parameter sweeps, and count-file analysis.

Every entry point returns a plain-dict report that serializes to the
schema shipped in schema/run_report.schema.json.  Reports are
deterministic for a fixed configuration and seed up to the "timing"
block; floating-point values are emitted with 9 significant digits.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, replace
from datetime import datetime, timezone

import numpy as np

from . import stats, witness
from .config import (
    AnalysisSettings,
    ConfigError,
    CountsFile,
    ExperimentConfig,
    load_counts_file,
    load_settings_file,
)
from .herald import heralding_rate, simulate_heralded_state
from .measurement import (
    DisplacementSetting,
    JointClickProbabilities,
    click_probability_grid,
    multiphoton_coincidence_probability,
)
from .stats import BasisMeasurement, CountRecord, ProbEstimate

SCHEMA_VERSION = 1
REPORT_KIND = "pathent.run_report"

# derived-seed stream indices for the Monte Carlo draws
_STREAM_ALPHA, _STREAM_Z, _STREAM_P1, _STREAM_P2 = 0, 1, 2, 3


def run_experiment(config: ExperimentConfig) -> dict:
    """Simulate the configured experiment and certify the result."""
    started = time.monotonic()
    sim = _simulate_probabilities(config)
    return _certification_report(
        mode="simulation",
        config_echo=asdict(config),
        alpha=sim["alpha"],
        z=sim["z"],
        pstar=(sim["p1_star"], sim["p2_star"]),
        settings=sim["intervals"],
        heralding={
            "herald_probability": sim["herald_probability"],
            "herald_rate_hz": sim["herald_rate_hz"],
        },
        started=started,
    )


def _simulate_probabilities(config: ExperimentConfig) -> dict:
    """Heralded-state simulation and both measurement bases, optionally sampled.

    What the detectors see is formed once: a detector of efficiency eta is
    loss eta on its mode in front of an ideal detector that sees the set
    amplitudes times sqrt(eta); the herald folds the loss into its source.
    Every optical phase acts once, as e^{-i delta} on each side's amplitude
    (see simulate_heralded_state).  The run, both sweeps and the separable
    bound use that state, these intervals and their complex means as they
    are; the bound is sound there because loss keeps separable states
    separable.  rho stays at the herald truncation: click_probability_grid
    measures it on its own levels, and the multiphoton coincidences read
    each mode's detected photon-number distribution from its diagonal.
    """
    eta_1, eta_2 = config.detectors.efficiency_a, config.detectors.efficiency_b
    heralded = simulate_heralded_state(config.source, (eta_1, eta_2), config.herald_truncation)
    rho, scales = heralded.rho, [math.sqrt(eta_1), math.sqrt(eta_2)]
    intervals = tuple(s.scaled(f) for s, f in zip(config.displacement.settings, scales))
    amp_1, amp_2 = (s.alpha_mean * np.exp(-1j * delta) for s, delta in zip(intervals, config.phases_rad.deltas))
    # (alpha, z) amplitudes per mode; the diagonal of the 2 x 2 grid holds both bases
    grid = click_probability_grid(rho, [amp_1, 0.0], [amp_2, 0.0])
    jp_alpha, jp_z = JointClickProbabilities(*grid[0, 0]), JointClickProbabilities(*grid[1, 1])

    d = rho.mode_dims[0]
    populations = np.diagonal(rho.matrix).real.reshape(d, d)
    p1_value = multiphoton_coincidence_probability(populations.sum(axis=1))
    p2_value = multiphoton_coincidence_probability(populations.sum(axis=0))

    rate = heralding_rate(heralded.herald_probability, config.pump_rep_rate_hz, config.duty_fraction)
    mc = config.monte_carlo

    def measure(jp: JointClickProbabilities, n_total: int, stream: int) -> BasisMeasurement:
        """One counting run of n_total heralds, logged as a counts-file row would be."""
        if not mc.enabled:
            return _ideal_basis(jp, n_total)
        return stats.estimate_probabilities(stats.sample_counts(jp, n_total, stats.derive_seed(mc.seed, stream)))

    def n_heralds(explicit: int | None, key: str, duration: float) -> int:
        """The explicit total, else the heralds counted over the configured duration."""
        n = explicit or rate * duration
        too_many = not math.isfinite(n) or (mc.enabled and n >= stats.MAX_TOTAL)
        if too_many or round(n) == 0:
            raise ConfigError(f"durations_s.{key} = {duration!r} s gives {format_float(n)} heralds at "
                              f"{format_float(rate)} Hz: {'too many' if too_many else 'too few'}")
        return round(n)

    alpha = measure(jp_alpha, n_heralds(mc.n_alpha, "alpha_basis", config.durations_s.alpha_basis), _STREAM_ALPHA)
    z = measure(jp_z, n_heralds(mc.n_z, "z_basis", config.durations_s.z_basis), _STREAM_Z)
    # an HBT run is a pstar row: its coincidences sit in the (c,c) slot, as in a counts file
    n_pstar = n_heralds(mc.n_multiphoton, "multiphoton", config.durations_s.multiphoton)
    p1, p2 = (
        measure(JointClickProbabilities(1.0 - p, 0.0, 0.0, p), n_pstar, stream).estimates[3]
        for p, stream in ((p1_value, _STREAM_P1), (p2_value, _STREAM_P2))
    )

    return {
        "alpha": alpha,
        "z": z,
        "p1_star": p1,
        "p2_star": p2,
        "herald_probability": heralded.herald_probability,
        "herald_rate_hz": rate,
        "rho": rho,
        "amplitudes": (amp_1, amp_2),
        "amplitude_scales": scales,
        "intervals": intervals,
    }


def _ideal_basis(jp: JointClickProbabilities, n_total: int) -> BasisMeasurement:
    """Exact probabilities paired with the rounded counts a run of n_total would log."""
    n_a = round(jp.p_c_nc * n_total)
    n_b = min(round(jp.p_nc_c * n_total), n_total - n_a)
    n_d = min(round(jp.p_c_c * n_total), n_total - n_a - n_b)
    return BasisMeasurement(jp, CountRecord(n_total, n_a, n_b, n_d))


def certify_from_counts(counts_path, settings_path) -> dict:
    """Analysis path: certification from recorded counts, no simulation."""
    started = time.monotonic()
    counts = load_counts_file(counts_path)
    settings = load_settings_file(settings_path)
    return _certification_report(
        mode="analysis",
        config_echo={"counts_file": str(counts_path), "settings_file": str(settings_path)},
        alpha=counts.alpha,
        z=counts.z,
        pstar=_resolve_pstar(counts, settings),
        settings=settings.settings,
        heralding=None,
        started=started,
    )


def _resolve_pstar(counts: CountsFile, settings: AnalysisSettings) -> tuple[ProbEstimate, ProbEstimate]:
    """Multiphoton bounds: dedicated count rows win over sidecar point values."""
    pairs = ((counts.pstar1, settings.p1_star), (counts.pstar2, settings.p2_star))
    if any(row is None and point is None for row, point in pairs):
        raise ConfigError(
            "multiphoton bounds unavailable: provide pstar1/pstar2 count rows "
            "or p1_star/p2_star in the settings file"
        )
    return tuple(ProbEstimate(point, 0.0) if row is None else row for row, point in pairs)


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
    report = witness.certify(alpha, z, settings[0], settings[1], pstar)
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


def sweep_phase(config: ExperimentConfig, phase_min: float, phase_max: float, steps: int) -> list[dict]:
    """Witness expectation versus the relative measurement phase.

    Bob's central-interferometer phase chi_B is offset so that the
    displacement-referenced relative phase spans [phase_min, phase_max].
    The offset moves delta_B, a phase on Bob's amplitude alone, so one
    probability grid of the base run's amplitude for Alice against Bob's
    rotated ones gives every point.  The phases and probabilities of all
    points are one PhaseConfig and one JointClickProbabilities with arrays.
    The bound column is the run's own: witness.certify of the base record.
    """
    if steps < 2 or not np.isfinite([phase_min, phase_max]).all():
        raise ConfigError("sweep needs at least 2 steps and a finite phase range")
    # offsets and shifted chi_B between finite ends stay finite
    ends = [phase - config.phases_rad.measured_relative_phase for phase in (phase_min, phase_max)]
    if not all(map(math.isfinite, [phase_max - phase_min, *ends, *(config.phases_rad.chi_b + end for end in ends)])):
        raise ConfigError("phase range too wide: the sweep's phase offsets overflow")
    base = _simulate_probabilities(config)
    pstar = (base["p1_star"], base["p2_star"])
    bound = witness.certify(base["alpha"], base["z"], *base["intervals"], pstar).w_ppt_max

    offsets = np.linspace(phase_min, phase_max, steps) - config.phases_rad.measured_relative_phase
    amp_1, amp_2 = base["amplitudes"]
    probs = click_probability_grid(base["rho"], [amp_1], amp_2 * np.exp(-1j * offsets))[0]

    phases = replace(config.phases_rad, chi_b=config.phases_rad.chi_b + offsets)
    w_exp = witness.w_exp(JointClickProbabilities(*probs.T))
    return [
        {"delta_theta_rad": delta, "w_exp": w, "w_ppt_max": bound}
        for delta, w in zip(phases.measured_relative_phase.tolist(), w_exp.tolist())
    ]


def sweep_alpha(config: ExperimentConfig, alpha_min: float, alpha_max: float, steps: int) -> dict:
    """Violation w_exp - w_ppt_max over a displacement-amplitude grid.

    The rows carry the set amplitudes; the measurement and the bound are
    taken at what each side's detector sees, the set amplitude times
    sqrt(eta).  Each grid point is evaluated at a point interval (no
    fluctuation slack), where the fluctuation and beta bounds reduce to
    their objectives at the point.  All steps x steps probability
    quadruples come from one probability grid over each side's amplitudes,
    and the witness and its bound are evaluated once on the whole grid.
    The document also carries the two optimal amplitudes the detectors see.
    """
    if not 0.0 < alpha_min <= alpha_max <= 2.0:
        raise ConfigError("alpha grid must satisfy 0 < alpha_min <= alpha_max <= 2")
    if steps < 1:
        raise ConfigError("sweep needs at least 1 step")
    base = _simulate_probabilities(config)
    jp_z = base["z"].probabilities
    mb = witness.MultiphotonBounds(base["p1_star"].value, base["p2_star"].value)
    grid = np.linspace(alpha_min, alpha_max, steps)

    a1, a2 = (grid * f for f in base["amplitude_scales"])
    delta_1, delta_2 = config.phases_rad.deltas
    probs = click_probability_grid(base["rho"], a1 * np.exp(-1j * delta_1), a2 * np.exp(-1j * delta_2))
    a1, a2 = a1[:, None], a2[None, :]
    bounds = witness.w_ppt_max(witness.w_tilde_point(a1, a2, jp_z, mb), mb, witness.b_max(a1, a2))
    violation = witness.w_exp(JointClickProbabilities(*np.moveaxis(probs, -1, 0))) - bounds

    amplitudes = grid.tolist()
    rows = [
        {"alpha1": alpha1, "alpha2": alpha2, "violation": v}
        for alpha1, row in zip(amplitudes, violation.tolist())
        for alpha2, v in zip(amplitudes, row)
    ]

    optima = {}
    for mode in ("robust", "max_violation"):  # the CLI prints the optima in this order
        try:
            alpha1, alpha2 = witness.optimal_alpha(jp_z, mode)
            optima[mode] = {"alpha1": alpha1, "alpha2": alpha2}
        except witness.AlphaSearchError as exc:
            optima[mode] = {"error": str(exc)}
    return {"rows": rows, "optima": optima}


# every float a report, sweep table or summary line prints: 9 significant digits
FLOAT_FORMAT = "%.9g"


def format_float(value: float) -> str:
    return FLOAT_FORMAT % value


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
    write_text(report_to_json(report), path)


def write_text(text: str, path) -> None:
    """Write an output file; a path that open() rejects as a value is an input error."""
    try:
        handle = open(path, "w")
    except ValueError as exc:  # e.g. an embedded NUL byte
        raise ConfigError(f"invalid output path {path!r}: {exc}") from exc
    with handle:
        handle.write(text)


def rows_to_csv(rows: list[dict]) -> str:
    """CSV text of sweep rows, which share one key order and hold floats only, so no cell needs quoting."""
    if not rows:
        return ""
    line = ",".join([FLOAT_FORMAT] * len(rows[0])) + "\n"
    return ",".join(rows[0]) + "\n" + (line * len(rows)) % tuple([v for row in rows for v in row.values()])
