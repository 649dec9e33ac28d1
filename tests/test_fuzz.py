"""Fuzzed config, counts and settings files: cli.main exits 0, 2, 3 or 4 and never raises.

Mutations drop keys, cells or trailing fields, swap value types, and
insert NaN, Infinity and negative values.  The numerics section keeps
the fixture values, since a fuzzed truncation would allocate d^8-sized
arrays.  The output section is fuzzed on its own, with every report
path inside the test's temporary directory.  Probability records are
fuzzed directly: a JointClickProbabilities that constructs holds only
finite, in-range, normalized entries.
"""

import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathent.cli import main
from pathent.measurement import PROB_SUM_ATOL, JointClickProbabilities

from conftest import FIXTURES

DROP, NEGATE = "<drop>", "<negate>"
JSON_VALUES = [DROP, NEGATE, None, True, "0.5", [], {}, float("nan"), float("inf"), float("-inf"), 0, -1]
CELL_VALUES = [DROP, NEGATE, "", "abc", "nan", "inf", "-inf", "1.5", "0", "true", "1e400"]
EXIT_CODES = (0, 2, 3, 4)


def key_paths(node: dict, prefix=()) -> list[tuple]:
    """Paths to every key of a nested JSON object, outside numerics."""
    paths = []
    for key, value in node.items():
        if key != "numerics":
            paths.append((*prefix, key))
            if isinstance(value, dict):
                paths += key_paths(value, (*prefix, key))
    return paths


def mutate_json(doc: dict, mutations) -> dict:
    doc = copy.deepcopy(doc)
    for (*parents, leaf), value in mutations:
        node = doc
        for key in parents:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict) or leaf not in node:
            continue  # an earlier mutation removed or replaced the parent
        if value == DROP:
            del node[leaf]
        elif value == NEGATE:
            if isinstance(node[leaf], (int, float)) and not isinstance(node[leaf], bool):
                node[leaf] = -node[leaf]
        else:
            node[leaf] = copy.deepcopy(value)
    return doc


def mutate_csv(text: str, mutations) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    for (i, j), value in mutations:
        row = rows[i % len(rows)]
        if not row:
            continue
        j %= len(row)
        if value == DROP:
            del row[j:]  # missing trailing fields
        elif value == NEGATE:
            row[j] = row[j][1:] if row[j].startswith("-") else f"-{row[j]}"
        else:
            row[j] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


CONFIG = json.loads((FIXTURES / "lossy_link.json").read_text())
COUNTS = (FIXTURES / "published_1p0km.counts.csv").read_text()
SETTINGS = (FIXTURES / "published_1p0km.settings.csv").read_text()
SETTINGS_JSON = {key: float(value) for key, value in next(csv.DictReader(io.StringIO(SETTINGS))).items()}


def json_mutations(doc: dict):
    return st.lists(st.tuples(st.sampled_from(key_paths(doc)), st.sampled_from(JSON_VALUES)), min_size=1, max_size=3)


cell_mutations = st.lists(
    st.tuples(st.tuples(st.integers(0, 9), st.integers(0, 9)), st.sampled_from(CELL_VALUES)), max_size=3
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(json_mutations(CONFIG))
def test_fuzzed_config_never_raises(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(mutate_json(CONFIG, mutations)))
        assert main(["run", "--config", str(path)]) in EXIT_CODES


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cell_mutations, st.booleans(), cell_mutations, json_mutations(SETTINGS_JSON))
def test_fuzzed_counts_and_settings_never_raise(counts_mutations, settings_as_json, settings_cells, settings_keys):
    with tempfile.TemporaryDirectory() as tmp:
        counts = Path(tmp) / "counts.csv"
        settings_path = Path(tmp) / ("settings.json" if settings_as_json else "settings.csv")
        counts.write_text(mutate_csv(COUNTS, counts_mutations))
        if settings_as_json:
            settings_path.write_text(json.dumps(mutate_json(SETTINGS_JSON, settings_keys)))
        else:
            settings_path.write_text(mutate_csv(SETTINGS, settings_cells))
        assert main(["certify", "--counts", str(counts), "--settings", str(settings_path)]) in EXIT_CODES


# report paths, resolved inside the example's directory: a new file, a file in a missing
# directory, the directory itself, a name with a NUL byte, and an empty path
REPORT_PATHS = {
    "<file>": "report.json",
    "<missing>": "missing/report.json",
    "<dir>": ".",
    "<nul>": "report\0.json",
    "<empty>": None,
}
OUTPUT_VALUES = [*JSON_VALUES, *REPORT_PATHS]


def output_sections():
    report_path = st.sampled_from(OUTPUT_VALUES)
    section = st.fixed_dictionaries({}, optional={"report_path": report_path, "unknown_key": st.sampled_from(JSON_VALUES)})
    return st.one_of(st.sampled_from([DROP, None, True, "0.5", [], 0, -1]), section)


def resolve_report_path(node, directory: Path):
    """Replace the path placeholders; every other string becomes a file name inside directory."""
    if isinstance(node, dict):
        return {key: resolve_report_path(value, directory) for key, value in node.items() if value != DROP}
    if not isinstance(node, str):
        return node
    name = REPORT_PATHS.get(node, node)
    return "" if name is None else str(directory / name)


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(output_sections())
def test_fuzzed_output_section_never_raises(tmp_path, output):
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    config = copy.deepcopy(CONFIG)
    if output != DROP:
        config["output"] = resolve_report_path(output, directory) if isinstance(output, dict) else output
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    before = set(Path.cwd().iterdir())
    assert main(["run", "--config", str(path)]) in EXIT_CODES
    assert set(Path.cwd().iterdir()) == before


# a valid quadruple, or one whose entries hypothesis pushes anywhere, NaN and +-inf included
probability = st.sampled_from([0.25, float("nan"), float("inf"), float("-inf")]) | st.floats(-0.5, 1.5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(probability, probability, probability, probability), min_size=1, max_size=4))
def test_fuzzed_click_probabilities_accept_only_finite_normalized_entries(rows):
    grid = np.array(rows).T
    try:
        JointClickProbabilities(*grid)
    except ValueError:
        return
    assert all(math.isfinite(p) and -1e-9 <= p <= 1.0 + 1e-9 for p in grid.ravel())
    assert np.all(np.abs(grid.sum(axis=0) - 1.0) <= PROB_SUM_ATOL)
