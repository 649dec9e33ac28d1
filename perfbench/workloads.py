"""Seeded inputs and the operation sequence of each benchmark workload.

Every workload draws its inputs from a fixed pool of variants.  Pool
entry i of a workload is generated from (POOL_KEY, workload, i) alone,
so the reference outputs in references.json.gz cover every input the
benchmark can produce.  The run's --seed only chooses the order in which
pool entries are visited.  All inputs are written to files before timing
starts; the program reads nothing else.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("run", "sweep-phase", "sweep-alpha", "certify")
POOL_KEY = 20040946
POOL_SIZE = {"run": 512, "sweep-phase": 64, "sweep-alpha": 64, "certify": 512}

# Config classes visited in this order, one per op.  Monte Carlo sampling
# is on for every other op, and every pair of ops holds one ideal-based
# and one lossy-based variant, so a run that ends on an even op count has
# a fixed mix.
CONFIG_CLASSES = (("ideal", False), ("lossy", True), ("lossy", False), ("ideal", True))
OPS_PER_CYCLE = 2

PUBLISHED = ("published_42m_set1", "published_42m_set2", "published_1p0km")

# Parameter ranges of the generated configs.  Both stay inside the
# config domain (pair probabilities < 0.5, transmissions in (0, 1),
# 0 <= alpha_min <= alpha_mean <= alpha_max); transmissions stay below 1
# so every op runs the same loss channels.
CONFIG_RANGES = {
    "ideal": {
        "pair_probability": (3e-7, 3e-6),
        "signal_transmission": (0.9, 0.999),
        "idler_transmission": (0.5, 0.999),
        "false_herald_probability": (0.0, 0.02),
        "alpha_mean": (0.7, 0.9),
        "alpha_box_half_width": (0.0, 0.0),
    },
    "lossy": {
        "pair_probability": (0.001, 0.006),
        "signal_transmission": (0.02, 0.06),
        "idler_transmission": (0.004, 0.012),
        "false_herald_probability": (0.05, 0.3),
        "alpha_mean": (0.7, 0.9),
        "alpha_box_half_width": (0.003, 0.012),
    },
    "phase_jitter_rad": (-0.5, 0.5),
    "duty_fraction": (0.5, 1.0),
    "duration_alpha_s": (1800.0, 7200.0),
    "duration_z_s": (4500.0, 18000.0),
    "duration_multiphoton_s": (3600.0, 18000.0),
}
# Seeded count files resample the published frequencies binomially.
COUNTS_RANGES = {
    "total_scale": (0.5, 2.0),
    "box_half_width_scale": (0.5, 2.0),
}


@dataclass(frozen=True)
class Op:
    """One CLI call: the pool key its reference is stored under, and its argv."""

    key: str
    argv: tuple[str, ...]
    out: Path


def _round(value: float) -> float:
    return float(f"{value:.6g}")


def _uniform(rng, bounds) -> float:
    lo, hi = bounds
    return _round(rng.uniform(lo, hi)) if hi > lo else float(lo)


def _entry_rng(workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([POOL_KEY, WORKLOADS.index(workload), index])


def config_variant(base: dict, kind: str, monte_carlo: bool, rng: np.random.Generator) -> dict:
    """A copy of a fixture config with its physics and run parameters redrawn."""
    ranges = CONFIG_RANGES[kind]
    cfg = json.loads(json.dumps(base))
    lo, hi = ranges["pair_probability"]
    src = cfg["source"]
    src["pair_probability"] = _round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    for name in ("signal_transmission_a", "signal_transmission_b"):
        src[name] = _uniform(rng, ranges["signal_transmission"])
    for name in ("idler_transmission_a", "idler_transmission_b"):
        src[name] = _uniform(rng, ranges["idler_transmission"])
    src["false_herald_probability"] = _uniform(rng, ranges["false_herald_probability"])
    for name in cfg["phases_rad"]:
        cfg["phases_rad"][name] = _uniform(rng, CONFIG_RANGES["phase_jitter_rad"])
    disp = cfg["displacement"]
    for side in ("alpha1", "alpha2"):
        mean = _uniform(rng, ranges["alpha_mean"])
        disp[f"{side}_mean"] = mean
        disp[f"{side}_min"] = _round(mean - _uniform(rng, ranges["alpha_box_half_width"]))
        disp[f"{side}_max"] = _round(mean + _uniform(rng, ranges["alpha_box_half_width"]))
    cfg["duty_fraction"] = _uniform(rng, CONFIG_RANGES["duty_fraction"])
    cfg["durations_s"] = {
        "alpha_basis": _uniform(rng, CONFIG_RANGES["duration_alpha_s"]),
        "z_basis": _uniform(rng, CONFIG_RANGES["duration_z_s"]),
        "multiphoton": _uniform(rng, CONFIG_RANGES["duration_multiphoton_s"]),
    }
    cfg["monte_carlo"] = {"enabled": monte_carlo, "seed": int(rng.integers(0, 2**31))}
    return cfg


def counts_variant(counts_text: str, settings_text: str, rng: np.random.Generator) -> tuple[str, str]:
    """Binomial resample of a published counts file, with redrawn totals and box widths."""
    rows = {row["basis"]: row for row in csv.DictReader(io.StringIO(counts_text))}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["basis", "n_total", "n_a", "n_b", "n_d", "n_none"])
    for basis in ("alpha", "z"):
        row = rows[basis]
        tallies = np.array([int(row[k]) for k in ("n_a", "n_b", "n_d", "n_none")], dtype=float)
        n_total = int(round(int(row["n_total"]) * rng.uniform(*COUNTS_RANGES["total_scale"])))
        n_a, n_b, n_d, n_none = (int(v) for v in rng.multinomial(n_total, tallies / tallies.sum()))
        writer.writerow([basis, n_total, n_a, n_b, n_d, n_none])
    for basis in ("pstar1", "pstar2"):
        row = rows[basis]
        n_pub = int(row["n_total"])
        n_total = int(round(n_pub * rng.uniform(*COUNTS_RANGES["total_scale"])))
        writer.writerow([basis, n_total, 0, 0, int(rng.binomial(n_total, int(row["n_d"]) / n_pub)), ""])

    settings = next(csv.DictReader(io.StringIO(settings_text)))
    new = dict(settings)
    for side in ("alpha1", "alpha2"):
        mean = float(settings[f"{side}_mean"])
        below = (mean - float(settings[f"{side}_min"])) * rng.uniform(*COUNTS_RANGES["box_half_width_scale"])
        above = (float(settings[f"{side}_max"]) - mean) * rng.uniform(*COUNTS_RANGES["box_half_width_scale"])
        new[f"{side}_min"] = f"{_round(mean - below)}"
        new[f"{side}_max"] = f"{_round(mean + above)}"
    sout = io.StringIO()
    swriter = csv.DictWriter(sout, fieldnames=list(settings), lineterminator="\n")
    swriter.writeheader()
    swriter.writerow(new)
    return out.getvalue(), sout.getvalue()


def pool_entry_files(workload: str, index: int, fixtures: Path) -> dict[str, str]:
    """Text of the input files of one pool entry, keyed by file suffix."""
    rng = _entry_rng(workload, index)
    if workload == "certify":
        stem = PUBLISHED[index % len(PUBLISHED)]
        counts, settings = counts_variant(
            (fixtures / f"{stem}.counts.csv").read_text(),
            (fixtures / f"{stem}.settings.csv").read_text(),
            rng,
        )
        return {"counts.csv": counts, "settings.csv": settings}
    kind, monte_carlo = CONFIG_CLASSES[index % len(CONFIG_CLASSES)]
    base = json.loads((fixtures / f"{kind}_link.json").read_text())
    return {"config.json": json.dumps(config_variant(base, kind, monte_carlo, rng), indent=2) + "\n"}


def published_files(stem: str, fixtures: Path) -> dict[str, str]:
    return {
        "counts.csv": (fixtures / f"{stem}.counts.csv").read_text(),
        "settings.csv": (fixtures / f"{stem}.settings.csv").read_text(),
    }


def digest(files: dict[str, str]) -> str:
    sha = hashlib.sha256()
    for name in sorted(files):
        sha.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return sha.hexdigest()


def op_argv(workload: str, inputs: dict[str, Path], out: Path) -> tuple[str, ...]:
    """The CLI arguments of one op; every sweep runs at the CLI's default grid."""
    if workload == "certify":
        return ("certify", "--counts", str(inputs["counts.csv"]), "--settings", str(inputs["settings.csv"]), "--out", str(out))
    return (workload, "--config", str(inputs["config.json"]), "--out", str(out))


class OpSequence:
    """Writes a workload's inputs into workdir and yields its ops in seeded order."""

    def __init__(self, workload: str, seed: int, workdir: Path, fixtures: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.digests: dict[str, str] = {}
        self.ops: dict[str, Op] = {}
        out = workdir / ("report.json" if workload in ("run", "certify") else "table.csv")
        entries = {str(i): pool_entry_files(workload, i, fixtures) for i in range(POOL_SIZE[workload])}
        if workload == "certify":
            entries.update({stem: published_files(stem, fixtures) for stem in PUBLISHED})
        for key, files in entries.items():
            paths = {}
            for suffix, text in files.items():
                path = workdir / f"{key}.{suffix}"
                path.write_text(text)
                paths[suffix] = path
            self.digests[key] = digest(files)
            self.ops[key] = Op(key, op_argv(workload, paths, out), out)

        rng = np.random.default_rng(seed)
        size = POOL_SIZE[workload]
        if workload == "certify":
            # published fixtures in rotation, interleaved with seeded resamples
            first = int(rng.integers(len(PUBLISHED)))
            self._lanes = [
                [PUBLISHED[(first + j) % len(PUBLISHED)] for j in range(len(PUBLISHED))],
                [str(i) for i in rng.permutation(size)],
            ]
        else:
            n_classes = len(CONFIG_CLASSES)
            self._lanes = [
                [str(i) for i in rng.permutation(np.arange(c, size, n_classes))] for c in range(n_classes)
            ]

    def op(self, j: int) -> Op:
        lane = self._lanes[j % len(self._lanes)]
        return self.ops[lane[(j // len(self._lanes)) % len(lane)]]

    def parameter_ranges(self) -> dict:
        if self.workload == "certify":
            return {"published": list(PUBLISHED), **COUNTS_RANGES, "pool_size": POOL_SIZE["certify"]}
        return {**CONFIG_RANGES, "classes": CONFIG_CLASSES, "pool_size": POOL_SIZE[self.workload]}


def read_output(workload: str, out: Path, stdout: str):
    """The op's output in the form the references store, or None when it wrote none."""
    if not out.exists():
        return None
    text = out.read_text()
    if workload in ("run", "certify"):
        report = json.loads(text)
        report.pop("timing", None)
        if workload == "certify":
            # the echo holds the input paths, which differ per checkout
            report["config"] = sorted(report["config"])
        return report
    rows = list(csv.reader(io.StringIO(text)))
    table = {"header": rows[0], "rows": [[float(v) for v in row] for row in rows[1:]]}
    if workload == "sweep-alpha":
        table["optima"] = parse_optima(stdout)
    return table


def parse_optima(stdout: str) -> dict:
    """The '# optimum <mode>: alpha1=.. alpha2=..' lines sweep-alpha prints."""
    optima = {}
    for line in stdout.splitlines():
        if not line.startswith("# optimum "):
            continue
        mode, _, rest = line[len("# optimum "):].partition(": ")
        if rest.startswith("alpha1="):
            a1, a2 = rest.split(" ")
            optima[mode] = {"alpha1": float(a1.split("=")[1]), "alpha2": float(a2.split("=")[1])}
        else:
            optima[mode] = {"error": rest}
    return optima
