"""Self-tests of the benchmark; run from the repository root:

    python3 perfbench/selftest.py [workload ...]

For every workload this runs one cycle of ops untraced and traced
(a smoke run), and fails when
- an op misses its reference, or tracing changes an output;
- a per-layer call count differs from EXPECTED_CALLS;
- the checker accepts a deliberately corrupted output.
"""

import copy
import shutil
import sys

import harness  # first: pins the BLAS threads before numpy is imported
import check
import spans
from workloads import OPS_PER_CYCLE, WORKLOADS

# Exact calls per op, averaged over one cycle of the input mix.
EXPECTED_CALLS = {
    "run": {
        "fockcore.expm": 9, "fockcore.density_check": 6, "herald.simulate": 1,
        "measurement.click_povm": 6, "measurement.joint_click": 2,
        "measurement.witness_operator": 0, "witness.box_bound": 2, "stats.sample_counts": 1,
    },
    "sweep-phase": {
        "fockcore.expm": 84, "fockcore.density_check": 106, "herald.simulate": 26,
        "measurement.click_povm": 56, "measurement.joint_click": 27,
        "measurement.witness_operator": 0, "witness.box_bound": 2, "stats.sample_counts": 1,
    },
    "sweep-alpha": {
        "fockcore.expm": 505, "fockcore.density_check": 7, "herald.simulate": 1,
        "measurement.click_povm": 294, "measurement.joint_click": 146,
        "measurement.witness_operator": 104, "witness.box_bound": 288, "stats.sample_counts": 1,
    },
    "certify": {
        "fockcore.expm": 0, "fockcore.density_check": 0, "herald.simulate": 0,
        "measurement.click_povm": 0, "measurement.joint_click": 0,
        "measurement.witness_operator": 0, "witness.box_bound": 2, "stats.sample_counts": 0,
    },
}
EXPECTED_RATIOS = {
    "run": {"herald.simulate.repeat_source_ratio": 0.0},
    "sweep-phase": {"herald.simulate.repeat_source_ratio": 25 / 26},
    "sweep-alpha": {"herald.simulate.repeat_source_ratio": 0.0, "witness.box_bound.point_box_ratio": 1.0},
}


def corruptions(output):
    """(label, exit code, output) triples that a correct checker must reject."""
    yield "exit code", 3, output
    yield "missing output", 0, None
    bad = copy.deepcopy(output)
    if "witness" in output:
        bad["witness"]["entangled"] = not bad["witness"]["entangled"]
        yield "verdict", 0, bad
        bad = copy.deepcopy(output)
        bad["witness"]["w_ppt_max"] *= 1.0 + 1e-3
        yield "float", 0, bad
        bad = copy.deepcopy(output)
        bad["counts"]["alpha_basis"]["n_a"] += 1
        yield "count", 0, bad
    else:
        bad["rows"][len(bad["rows"]) // 2][-1] *= 1.0 + 1e-3
        yield "float", 0, bad
        bad = copy.deepcopy(output)
        bad["rows"].pop()
        yield "row count", 0, bad


def selftest(workload: str, cli) -> list[str]:
    workdir = harness.WORK / f"selftest-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = harness.Bench(workload, 1, workdir, cli)
        problems, outputs = [], []
        for j in range(OPS_PER_CYCLE):
            _, misses, plain = bench.run_op(j)
            _, traced_misses, traced = bench.run_op(j, traced=True)
            problems += misses + traced_misses
            if plain != traced:
                problems.append(f"op {j}: traced output differs from untraced output")
            outputs.append(plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = spans.layer_metrics(bench.tracer.spans, OPS_PER_CYCLE)
    for layer, expected in EXPECTED_CALLS[workload].items():
        if metrics[f"{layer}.calls"] != expected:
            problems.append(f"{layer}.calls = {metrics[f'{layer}.calls']}, expected {expected}")
    for name, expected in EXPECTED_RATIOS.get(workload, {}).items():
        if abs(metrics[name] - expected) > 1e-12:
            problems.append(f"{name} = {metrics[name]}, expected {expected}")

    key = bench.seq.op(0).key
    _, output = outputs[0]
    for label, code, bad in corruptions(output):
        if not check.check_op(bench.refs[key], key, code, bad):
            problems.append(f"checker accepted a corrupted {label}")
    if key in check.GOLDEN:
        bad = copy.deepcopy(output)
        bad["witness"]["k"] += 1.0
        if not check.golden_misses(key, bad):
            problems.append("golden check accepted a shifted significance")
    return problems


def main(argv) -> int:
    cli = harness.load_cli()
    failed = False
    for workload in argv or WORKLOADS:
        problems = selftest(workload, cli)
        failed |= bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for line in problems:
            print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
