"""Report goldens: run and certify reports, byte for byte apart from timing."""

import json
from pathlib import Path

import pytest

from pathent import pipeline
from pathent.config import parse_experiment_config

from conftest import FIXTURES, REPO_ROOT

GOLDEN = Path(__file__).resolve().parent / "golden"

RUN_CASES = {
    "run_ideal_link": ("ideal_link", None),
    "run_lossy_link": ("lossy_link", None),
    "run_lossy_link_monte_carlo": ("lossy_link", {"enabled": True, "seed": 7}),
}
PUBLISHED = ("published_42m_set1", "published_42m_set2", "published_1p0km")


def report_text(case: str) -> str:
    """Canonical report JSON for one golden case, with timing dropped and input paths repo-relative."""
    if case in RUN_CASES:
        fixture, monte_carlo = RUN_CASES[case]
        raw = json.loads((FIXTURES / f"{fixture}.json").read_text())
        if monte_carlo is not None:
            raw["monte_carlo"] = monte_carlo
        report = pipeline.run_experiment(parse_experiment_config(raw))
    else:
        stem = case.removeprefix("certify_")
        report = pipeline.certify_from_counts(
            FIXTURES / f"{stem}.counts.csv", FIXTURES / f"{stem}.settings.csv"
        )
        report["config"] = {
            key: Path(value).relative_to(REPO_ROOT).as_posix() for key, value in report["config"].items()
        }
    report.pop("timing")
    return pipeline.report_to_json(report)


CASES = [*RUN_CASES, *(f"certify_{stem}" for stem in PUBLISHED)]


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case):
    assert report_text(case) == (GOLDEN / f"report_{case}.json").read_text()


if __name__ == "__main__":
    # re-record: PYTHONPATH=src python tests/test_reports.py
    for name in CASES:
        (GOLDEN / f"report_{name}.json").write_text(report_text(name))
