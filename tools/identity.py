"""Byte-identity check of the pathent CLI between two source trees.

    PYTHONPATH=<tree>/src python3 tools/identity.py dump OUT.json
    python3 tools/identity.py compare A.json B.json

`dump` runs every case in-process through pathent.cli.main, with BLAS
pinned to one thread, and records per case the exit code, stdout,
stderr and the output text with the report's "timing" block removed.
The cases are every run, certify, sweep-phase and sweep-alpha pool entry
of perfbench/workloads.py, the three published certify runs, and
variants of the two fixture configs, among them Monte Carlo runs with
explicit n_alpha/n_z/n_multiphoton totals (the pool entries only derive
the totals from durations) and runs and sweeps with detector efficiencies
below 1 (every pool entry and fixture uses 1), and runs and sweeps at herald
truncations 6 and 10 (the fixtures use 3), with ideal detectors and with
efficiencies (0.6, 0.85), runs at alpha1_mean 3 and 40 (the fixtures
use about 0.8), and runs and sweeps at phases of about 1, 7, 1e3 and 1e6
rad and with the pump phases alone shifted, with Monte Carlo on and off
and with efficiencies (0.6, 0.85) (the fixtures hold every phase at 0
and the pool entries jitter them by 0.5 rad at most), and certify runs
whose fluctuation-box maximum is not at a corner: three synthetic count
files with wide boxes, the published runs with both boxes widened to
[0.3, 1.5], and published_1p0km with 0 or 1 multiphoton coincidences
(the published runs' maxima are corners), and runs and phase sweeps of
lossy_link with edge sources at herald truncations 3 and 6: Alice's idler
transmission and Bob's signal transmission at 0, and Bob's pair
probability at 0 with every transmission at 1 and false heralds at 0.3
(the fixtures' transmissions lie strictly inside (0, 1)).  Further cases
each hold one input error, so that a rewrite of the readers is checked on
its messages:
a required config section missing, given as a list or missing a key, a
number given as a string, an unordered interval, an efficiency above 1, a
numeric report path, a pair probability and a herald truncation given as
400-digit integers, the --seed and --truncation overrides with their
sections absent or not objects, derived herald totals that round to 0,
a settings row without alpha2_max, a JSON sidecar with a bad p1_star, a
counts row with n_none above n_total, pstar rows whose n_none contradicts
their counts, a counts row of an unknown basis and a settings CSV with a
second data row.  The usage cases pin the argument parser: each usage
error (no command, an unknown one, a missing required flag, a flag no
command takes, before or after the command, a non-integer --steps and
an unknown --format) and the --help of pathent and of each command.
COLUMNS is pinned to 80 next to the BLAS threads, so that help text
wraps alike on every host.  `compare` lists
the cases that differ; stderr is compared after each tree's own path is
replaced, since a warning prints the path of the source line that raised
it.  For a stderr difference it also prints the first differing line of
each side.
"""

from __future__ import annotations

import os
import sys

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "COLUMNS": "80"})

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

WORK = "<work>"
TREE = "<tree>"
SWEEP_PHASE_RANGES = ((), ("--phase-min", "-3", "--phase-max", "9", "--steps", "41"),
                      ("--phase-min=-0.5", "--phase-max", "0.5", "--steps", "7"))
MC_TOTALS = ({"n_alpha": 1, "n_z": 1, "n_multiphoton": 1},
             {"n_alpha": 1000, "n_z": 2500, "n_multiphoton": 40_000},
             {"n_alpha": 5_040_000, "n_z": 12_600_000, "n_multiphoton": 30_000_000})
# (efficiency_a, efficiency_b), including a detector that never clicks and one that is ideal
DETECTOR_EFFICIENCIES = ((0.6, 0.85), (0.1, 0.3), (0.0, 0.5), (1.0, 0.7))
# herald truncations above the fixtures' 3, where the station projector has sectors the fixtures never reach
HERALD_N_MAX = (6, 10)
# Alice's amplitudes far above the fixtures' 0.8, where the no-click projector is small or exactly zero
LARGE_ALPHA1 = (3.0, 40.0)
# phases_rad sections far from the fixtures' zeros and the pools' 0.5 rad jitter
_PHASE_NAMES = ("phi_a", "phi_b", "zeta_a", "zeta_b", "chi_a", "chi_b",
                "xi_a_long", "xi_a_short", "xi_b_long", "xi_b_short")
_PHASE_PATTERN = (0.31, -0.83, 0.12, 0.57, 1.23, -0.41, 0.72, 0.19, -0.33, 0.94)
PHASES = {
    **{f"phases-{scale:g}": {name: scale * value for name, value in zip(_PHASE_NAMES, _PHASE_PATTERN)}
       for scale in (1.0, 7.0, 1e3, 1e6)},
    "phases-pump": {name: {"phi_a": 1.7, "phi_b": -2.9}.get(name, 0.0) for name in _PHASE_NAMES},
}

# synthetic certify inputs: z quadruple (nc,nc / nc,c / c,nc / c,c), (p1*, p2*), alpha1 and alpha2 (min, mean, max);
# the first two fluctuation-box maxima are interior, the third lies on an edge
SYNTHETIC = (
    ((0.4532, 0.1467, 0.1282, 0.2719), (0.043, 0.0124), (0.325, 0.518, 1.357), (0.376, 0.514, 1.444)),
    ((0.4622, 0.2696, 0.0542, 0.2140), (0.0489, 0.0295), (0.416, 0.542, 0.673), (0.43, 0.519, 1.361)),
    ((0.1667, 0.2615, 0.4678, 0.1040), (0.0438, 0.0029), (0.343, 0.5, 0.705), (0.928, 1.1, 1.603)),
)
SYNTHETIC_HERALDS = 10**6
# a box around b_max's diagonal maximum at (1, 1)
WIDE_BOX = (0.3, 1.5)
# (pstar1, pstar2) coincidences in place of published_1p0km's, where the Wald sigma of a row is 0
PSTAR_COINCIDENCES = ((0, 0), (1, 0), (1, 1))
_SETTINGS_HEADER = "alpha1_min,alpha1_mean,alpha1_max,alpha2_min,alpha2_mean,alpha2_max"
# source edits at the ends of [0, 1], which the herald meets as exact zeros and ones
EDGE_SOURCES = {
    "idler_a-0-signal_b-0": {"idler_transmission_a": 0.0, "signal_transmission_b": 0.0},
    "pair_b-0-lossless": {"pair_probability_b": 0.0, "signal_transmission_a": 1.0, "signal_transmission_b": 1.0,
                          "idler_transmission_a": 1.0, "idler_transmission_b": 1.0, "false_herald_probability": 0.3},
}
# the config sections without defaults; the error cases drop each and give each as a list
REQUIRED_SECTIONS = ("source", "phases_rad", "displacement", "detectors", "durations_s")


def _synthetic_files(z, pstar, box1, box2) -> dict[str, str]:
    n = SYNTHETIC_HERALDS
    nc_nc, nc_c, c_nc, c_c = (round(p * n) for p in z)
    p1, p2 = (round(p * n) for p in pstar)
    # a fixed alpha-basis row: it moves w_exp only, not the bounds
    counts = (f"basis,n_total,n_a,n_b,n_d,n_none\nalpha,{n},{n // 5},{n // 5},{3 * n // 10},{3 * n // 10}\n"
              f"z,{n},{c_nc},{nc_c},{c_c},{nc_nc}\npstar1,{n},0,0,{p1},\npstar2,{n},0,0,{p2},\n")
    return {"counts.csv": counts, "settings.csv": f"{_SETTINGS_HEADER}\n{','.join(map(str, (*box1, *box2)))}\n"}


def _widened(files: dict[str, str]) -> dict[str, str]:
    header, row = files["settings.csv"].splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    record.update({f"alpha{side}_{end}": str(a) for side in (1, 2) for end, a in zip(("min", "max"), WIDE_BOX)})
    return {**files, "settings.csv": f"{header}\n{','.join(record.values())}\n"}


def _with_pstar_coincidences(files: dict[str, str], coincidences) -> dict[str, str]:
    lines = files["counts.csv"].splitlines()
    for i, line in enumerate(lines):
        basis, n_total, n_a, n_b, _, n_none = line.split(",")
        if basis in ("pstar1", "pstar2"):
            lines[i] = ",".join((basis, n_total, n_a, n_b, str(coincidences[basis == "pstar2"]), n_none))
    return {**files, "counts.csv": "\n".join(lines) + "\n"}


def _config_error_docs(raw: dict) -> dict[str, tuple[dict, tuple[str, ...]]]:
    """Case name -> (config document, extra flags): one input error each, or an override of an absent section."""
    def edited(section, **values):
        return {**raw, section: {**raw.get(section, {}), **values}}

    docs = {}
    for section in REQUIRED_SECTIONS:
        key = next(iter(raw[section]))
        docs[f"missing-{section}"] = ({k: v for k, v in raw.items() if k != section}, ())
        docs[f"{section}-list"] = ({**raw, section: [raw[section]]}, ())
        docs[f"missing-{section}.{key}"] = ({**raw, section: {k: v for k, v in raw[section].items() if k != key}}, ())
    bare = {k: v for k, v in raw.items() if k not in ("monte_carlo", "numerics")}
    docs.update({
        "string-pair_probability": (edited("source", pair_probability="0.003"), ()),
        "alpha1_min-above-mean": (edited("displacement", alpha1_min=raw["displacement"]["alpha1_mean"] + 0.01), ()),
        "efficiency_a-1.5": (edited("detectors", efficiency_a=1.5), ()),
        "report_path-1": (edited("output", report_path=1), ()),
        "seed-7-without-monte_carlo": (bare, ("--seed", "7")),
        "truncation-8-without-numerics": (bare, ("--truncation", "8")),
        "seed-7-monte_carlo-list": ({**raw, "monte_carlo": [7]}, ("--seed", "7")),
        "truncation-8-numerics-string": ({**raw, "numerics": "8"}, ("--truncation", "8")),
        # no pair reaches an idler detector, so every herald is noise and the derived totals are 0
        "pure-noise-herald": (edited("source", false_herald_probability=1.0, idler_transmission_a=0.0,
                                     idler_transmission_b=0.0), ()),
        "alpha_basis-1e-9-s": (edited("durations_s", alpha_basis=1e-9), ()),
        # integers too large for a float, which math.isfinite cannot take
        "pair_probability-10**400": (edited("source", pair_probability=10**400), ()),
        "herald_truncation_n_max-10**400": (edited("numerics", herald_truncation_n_max=10**400), ()),
    })
    return docs


def _certify_error_files(files: dict[str, str]) -> dict[str, dict[str, str]]:
    """Case name -> certify input files with one error each; a .json settings key is a JSON sidecar."""
    header, row = files["settings.csv"].splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    short = {k: v for k, v in record.items() if k != "alpha2_max"}
    sidecar = {k: float(v) for k, v in record.items()}
    lines = files["counts.csv"].splitlines()
    alpha = next(i for i, line in enumerate(lines) if line.startswith("alpha,"))
    cells = lines[alpha].split(",")
    lines[alpha] = ",".join((*cells[:-1], str(int(cells[1]) + 1)))
    # n_none cells that contradict the counts of the pstar rows, whose n_none is empty
    n_none = {"pstar1": "5", "pstar2": "-7"}
    pstar = [line + n_none.get(line.split(",")[0], "") for line in files["counts.csv"].splitlines()]
    return {
        "settings-without-alpha2_max": {**files, "settings.csv": f"{','.join(short)}\n{','.join(short.values())}\n"},
        "sidecar-p1_star-string": {**files, "settings.json": json.dumps({**sidecar, "p1_star": "x"})},
        "sidecar-p1_star-1.5": {**files, "settings.json": json.dumps({**sidecar, "p1_star": 1.5})},
        "n_none-above-n_total": {**files, "counts.csv": "\n".join(lines) + "\n"},
        "pstar-n_none-contradicting": {**files, "counts.csv": "\n".join(pstar) + "\n"},
        "counts-basis-Z": {**files, "counts.csv": files["counts.csv"] + "Z,10,0,0,1,\n"},
        "settings-second-row": {**files, "settings.csv": files["settings.csv"] + row + "\n"},
    }


def cases(work: Path) -> dict[str, tuple[str, ...]]:
    """Case name -> CLI argv; input files are written under work."""
    out = {}
    for workload in workloads.WORKLOADS:
        target = work / f"{workload}.out"
        for i in range(workloads.POOL_SIZE[workload]):
            out[f"{workload}/{i}"] = _argv(workload, workloads.pool_entry_files(workload, i, FIXTURES), work, i, target)
    for stem in workloads.PUBLISHED:
        files = workloads.published_files(stem, FIXTURES)
        out[f"certify/{stem}"] = _argv("certify", files, work, stem, work / "certify.out")
        out[f"certify/{stem}/wide-box"] = _argv("certify", _widened(files), work, f"{stem}-wide", work / "certify.out")
    for k, inputs in enumerate(SYNTHETIC):
        out[f"certify/synthetic-{k}"] = _argv("certify", _synthetic_files(*inputs), work, f"synthetic-{k}",
                                              work / "certify.out")
    for n1, n2 in PSTAR_COINCIDENCES:
        files = _with_pstar_coincidences(workloads.published_files("published_1p0km", FIXTURES), (n1, n2))
        out[f"certify/published_1p0km/pstar-{n1}-{n2}"] = _argv("certify", files, work, f"pstar-{n1}-{n2}",
                                                                 work / "certify.out")
    for name, files in _certify_error_files(workloads.published_files("published_1p0km", FIXTURES)).items():
        paths = {}
        for suffix, text in files.items():
            paths[suffix] = work / f"error-{name}.{suffix}"
            paths[suffix].write_text(text)
        settings = paths.get("settings.json", paths["settings.csv"])
        out[f"certify/error/{name}"] = ("certify", "--counts", str(paths["counts.csv"]), "--settings", str(settings),
                                        "--out", str(work / "certify.out"))
    raw = json.loads((FIXTURES / "lossy_link.json").read_text())
    for name, (doc, extra) in _config_error_docs(raw).items():
        error_config = work / f"error-{name}.json"
        error_config.write_text(json.dumps(doc))
        out[f"run/lossy_link/error/{name}"] = ("run", "--config", str(error_config), "--out", str(work / "run.out"),
                                               *extra)
    for name, edits in EDGE_SOURCES.items():
        for n_max in (3, 6):
            edge_config = work / f"edge-{name}-{n_max}.json"
            edge_config.write_text(json.dumps({**raw, "source": {**raw["source"], **edits},
                                               "numerics": {**raw["numerics"], "herald_truncation_n_max": n_max}}))
            out[f"run/lossy_link/edge-{name}/herald-{n_max}"] = ("run", "--config", str(edge_config),
                                                                 "--out", str(work / "run.out"))
            out[f"sweep-phase/lossy_link/edge-{name}/herald-{n_max}"] = ("sweep-phase", "--config", str(edge_config))
    for fixture in ("ideal_link", "lossy_link"):
        config = str(FIXTURES / f"{fixture}.json")
        report = str(work / "run.out")
        for name, extra in (("plain", ()), ("truncation-8", ("--truncation", "8")),
                            ("truncation-3", ("--truncation", "3")), ("seed-7", ("--seed", "7"))):
            out[f"run/{fixture}/{name}"] = ("run", "--config", config, "--out", report, *extra)
        raw = json.loads(Path(config).read_text())
        for k, totals in enumerate(MC_TOTALS):
            mc_config = work / f"{fixture}-mc-totals-{k}.json"
            mc_config.write_text(json.dumps({**raw, "monte_carlo": {"enabled": True, "seed": 11, **totals}}))
            out[f"run/{fixture}/mc-totals-{k}"] = ("run", "--config", str(mc_config), "--out", report)
        for alpha in LARGE_ALPHA1:
            large = {**raw, "displacement": {**raw["displacement"], "alpha1_mean": alpha, "alpha1_max": alpha}}
            large_config = work / f"{fixture}-alpha1-{alpha:g}.json"
            large_config.write_text(json.dumps(large))
            out[f"run/{fixture}/alpha1-{alpha:g}"] = ("run", "--config", str(large_config), "--out", report)
        for k, (eta_a, eta_b) in enumerate(DETECTOR_EFFICIENCIES):
            lossy = {**raw, "detectors": {"efficiency_a": eta_a, "efficiency_b": eta_b}}
            det_config, mc_config = work / f"{fixture}-detectors-{k}.json", work / f"{fixture}-detectors-{k}-mc.json"
            det_config.write_text(json.dumps(lossy))
            mc_config.write_text(json.dumps({**lossy, "monte_carlo": {"enabled": True, "seed": 11}}))
            out[f"run/{fixture}/detectors-{k}"] = ("run", "--config", str(det_config), "--out", report)
            out[f"run/{fixture}/detectors-{k}/mc"] = ("run", "--config", str(mc_config), "--out", report)
            for command in ("sweep-phase", "sweep-alpha"):
                out[f"{command}/{fixture}/detectors-{k}"] = (command, "--config", str(det_config))
        for label, phases in PHASES.items():
            phased = {**raw, "phases_rad": phases}
            variants = (("", phased), ("/mc", {**phased, "monte_carlo": {"enabled": True, "seed": 11}}),
                        ("/detectors", {**phased, "detectors": {"efficiency_a": 0.6, "efficiency_b": 0.85}}))
            for suffix, doc in variants:
                phase_config = work / f"{fixture}-{label}{suffix.replace('/', '-')}.json"
                phase_config.write_text(json.dumps(doc))
                out[f"run/{fixture}/{label}{suffix}"] = ("run", "--config", str(phase_config), "--out", report)
                if suffix != "/mc":
                    for command in ("sweep-phase", "sweep-alpha"):
                        out[f"{command}/{fixture}/{label}{suffix}"] = (command, "--config", str(phase_config))
        for k, extra in enumerate(SWEEP_PHASE_RANGES):
            for fmt in ("csv", "json"):
                out[f"sweep-phase/{fixture}/range-{k}/{fmt}"] = ("sweep-phase", "--config", config, "--format", fmt, *extra)
        for trunc in ("10", "5"):
            for fmt in ("csv", "json"):
                out[f"sweep-alpha/{fixture}/truncation-{trunc}/{fmt}"] = (
                    "sweep-alpha", "--config", config, "--truncation", trunc, "--format", fmt)
        for n_max in HERALD_N_MAX:
            herald = {**raw, "numerics": {**raw["numerics"], "herald_truncation_n_max": n_max}}
            detectors = {**herald, "detectors": {"efficiency_a": 0.6, "efficiency_b": 0.85}}
            for suffix, doc in (("", herald), ("/detectors", detectors)):
                herald_config = work / f"{fixture}-herald-{n_max}{suffix.replace('/', '-')}.json"
                herald_config.write_text(json.dumps(doc))
                out[f"run/{fixture}/herald-{n_max}{suffix}"] = ("run", "--config", str(herald_config), "--out", report)
                for command in ("sweep-phase", "sweep-alpha"):
                    out[f"{command}/{fixture}/herald-{n_max}{suffix}"] = (command, "--config", str(herald_config))
    config = str(FIXTURES / "lossy_link.json")
    for name, argv in {
        "none": (),
        "unknown-command": ("bogus",),
        "run-without-config": ("run",),
        "certify-without-settings": ("certify", "--counts", config),
        "unrecognized-flag": ("run", "--config", config, "--bogus", "extra"),
        "flag-before-command": ("--bogus", "run", "--config", config),
        "steps-x": ("sweep-phase", "--config", config, "--steps", "x"),
        "format-xml": ("sweep-alpha", "--config", config, "--format", "xml"),
    }.items():
        out[f"usage/error/{name}"] = argv
    out["usage/help/pathent"] = ("--help",)
    for command in workloads.WORKLOADS:  # every pathent command
        out[f"usage/help/{command}"] = (command, "--help")
    return out


def _argv(workload, files, work, key, target) -> tuple[str, ...]:
    paths = {}
    for suffix, text in files.items():
        paths[suffix] = work / f"{workload}-{key}.{suffix}"
        paths[suffix].write_text(text)
    return workloads.op_argv(workload, paths, target)


def _output_text(path: Path) -> str | None:
    if not path.exists():
        return None
    text = path.read_text()
    path.unlink()
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    if isinstance(doc, dict) and "timing" in doc:
        doc.pop("timing")
        return json.dumps(doc, sort_keys=True, indent=2)
    return text


def run_case(main, argv: tuple[str, ...]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    # fresh filters clear the once-per-location registry, as in a new process
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error is a result to compare, not a failure of the check
            code = "traceback: " + traceback.format_exc().splitlines()[-1]
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "output": _output_text(out) if out else None,
    }


def dump(target: str) -> int:
    import pathent.cli

    tree = str(Path(pathent.cli.__file__).resolve().parents[2])
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, argv in cases(work).items():
            record = run_case(pathent.cli.main, argv)
            results[name] = {key: value.replace(tmp, WORK) if isinstance(value, str) else value
                             for key, value in record.items()}
    Path(target).write_text(json.dumps({"tree": tree, "cases": results}, indent=1, sort_keys=True) + "\n")
    print(f"{len(results)} cases from {tree} -> {target}")
    return 0


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    differ = []
    for name in sorted(set(a["cases"]) | set(b["cases"])):
        ra, rb = a["cases"].get(name), b["cases"].get(name)
        if ra is None or rb is None:
            differ.append(f"{name}: only in {path_a if rb is None else path_b}")
            continue
        for key in ("exit", "stdout", "output"):
            if ra[key] != rb[key]:
                differ.append(f"{name}: {key}")
        err_a, err_b = ra["stderr"].replace(a["tree"], TREE), rb["stderr"].replace(b["tree"], TREE)
        if err_a != err_b:
            differ.append(f"{name}: stderr\n{_first_differing_lines(err_a, err_b)}")
    for line in differ:
        print(line)
    print(f"{len(a['cases'])} vs {len(b['cases'])} cases, {len(differ)} differences")
    return 1 if differ else 0


def _first_differing_lines(text_a: str, text_b: str) -> str:
    """The first line where two texts differ, one per side, so a moved warning reads as one."""
    lines_a, lines_b = text_a.splitlines(keepends=True), text_b.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y), min(len(lines_a), len(lines_b)))
    return "\n".join(
        f"  {side} {lines[i] if i < len(lines) else '<end>'!r}" for side, lines in (("-", lines_a), ("+", lines_b))
    )


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        sys.exit(dump(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    sys.exit(__doc__)
