"""Reference outputs of every pool entry, one gzip'd JSON file per workload.

The references were recorded from the program at the commit that added
the benchmark; the checker compares every op against them.  To record
them again (only when an output is meant to change), run from the
repository root:

    python3 perfbench/references.py [workload ...]
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

DIR = Path(__file__).resolve().parent / "references"


def load(workload: str) -> dict:
    with gzip.open(DIR / f"{workload}.json.gz", "rt") as handle:
        return json.load(handle)["entries"]


def record(workload: str) -> None:
    import shutil

    import harness

    workdir = harness.WORK / f"record-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        cli = harness.load_cli()
        seq = harness.OpSequence(workload, 0, workdir, harness.ROOT / "fixtures")
        entries = {}
        for key, op in seq.ops.items():
            op.out.unlink(missing_ok=True)
            code, stdout, _ = harness.call(cli, op.argv)
            if code != 0:
                raise SystemExit(f"{workload} entry {key} exits with {code!r}; choose inputs on which no op fails")
            output = harness.read_output(workload, op.out, stdout)
            entries[key] = {"input_sha256": seq.digests[key], "exit_code": code, "output": output}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIR.mkdir(exist_ok=True)
    doc = {"workload": workload, "environment": harness.environment(), "entries": entries}
    with gzip.GzipFile(DIR / f"{workload}.json.gz", "wb", mtime=0) as handle:
        handle.write(json.dumps(doc, sort_keys=True).encode())
    print(f"{workload}: recorded {len(entries)} entries")


if __name__ == "__main__":
    import harness  # noqa: F401  (pins BLAS threads before numpy loads)
    from workloads import WORKLOADS

    for name in sys.argv[1:] or WORKLOADS:
        record(name)
