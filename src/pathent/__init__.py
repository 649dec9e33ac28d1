"""Heralded single-photon path entanglement: simulation and certification."""

from .config import Detectors
from .fockcore import DensityOperator, FockTruncation
from .herald import (
    HeraldedState,
    HeraldingError,
    PhaseConfig,
    SourceParams,
    heralding_rate,
    simulate_heralded_state,
)
from .measurement import (
    DisplacementSetting,
    JointClickProbabilities,
    click_povm,
    joint_click_probabilities,
    multiphoton_coincidence_probability,
    phase_averaged_witness_operator,
)
from .stats import (
    CountRecord,
    ProbEstimate,
    PStarDomainError,
    estimate_probabilities,
    sample_counts,
    sigma_ppt_max,
    sigma_w_exp,
    violation_k,
)
from .witness import (
    MultiphotonBounds,
    WitnessReport,
    beta_bound,
    certify,
    optimal_alpha,
    w_exp,
    w_ppt_fluctuation_bound,
    w_ppt_max,
    w_ppt_qubit,
)

__version__ = "0.1.0"

__all__ = [
    "DensityOperator",
    "FockTruncation",
    "HeraldedState",
    "HeraldingError",
    "PhaseConfig",
    "SourceParams",
    "heralding_rate",
    "simulate_heralded_state",
    "Detectors",
    "DisplacementSetting",
    "JointClickProbabilities",
    "click_povm",
    "joint_click_probabilities",
    "multiphoton_coincidence_probability",
    "phase_averaged_witness_operator",
    "CountRecord",
    "ProbEstimate",
    "PStarDomainError",
    "estimate_probabilities",
    "sample_counts",
    "sigma_ppt_max",
    "sigma_w_exp",
    "violation_k",
    "MultiphotonBounds",
    "WitnessReport",
    "beta_bound",
    "certify",
    "optimal_alpha",
    "w_exp",
    "w_ppt_fluctuation_bound",
    "w_ppt_max",
    "w_ppt_qubit",
]
