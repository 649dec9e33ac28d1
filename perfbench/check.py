"""Output checker: every op against the reference recorded for its input.

Exit codes, strings, booleans (the verdict) and integers (counts, exact
and sampled alike) must match exactly.  Floats may differ by REL_TOL
relative to the reference, or by ABS_TOL for values near zero.  The
tolerance is loose enough for a change of optimizer or summation order
(the amplitude optima are searched to 1e-6) and far below every
statistical uncertainty the reports carry.
"""

from __future__ import annotations

import math

REL_TOL = 1e-5
ABS_TOL = 1e-10

# Published values and tolerances of acceptance criterion 1 and 2
# (tests/test_acceptance.py), keyed by fixture stem.
GOLDEN = {
    "published_42m_set1": dict(w_exp=0.0576, w_ppt=0.0391, w_tilde_ppt=0.0451, w_ppt_max=0.0472, k=4.8),
    "published_42m_set2": dict(w_exp=0.0206, w_ppt=0.0039, w_tilde_ppt=0.0045, w_ppt_max=0.0071, k=5.6),
    "published_1p0km": dict(w_exp=0.0253, w_ppt=0.0031, w_tilde_ppt=0.0033, w_ppt_max=0.0071, k=6.2),
}
GOLDEN_TOL = dict(w_exp=1e-12, w_ppt=3e-4, w_tilde_ppt=3e-4, w_ppt_max=5e-4, k=0.5)


def compare(ref, got, path: str = "output") -> list[str]:
    """Mismatches between a recorded output and a new one, as readable lines."""
    if ref is None or isinstance(ref, (bool, int, str)):
        return [] if type(got) is type(ref) and got == ref else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, float):
        ok = (
            isinstance(got, (int, float))
            and not isinstance(got, bool)
            and math.isfinite(got)
            and abs(got - ref) <= max(ABS_TOL, REL_TOL * abs(ref))
        )
        return [] if ok else [f"{path}: {got!r} differs from {ref!r}"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(ref)}"]
        return [m for key in ref for m in compare(ref[key], got[key], f"{path}.{key}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(ref)}"]
        return [m for i, (r, g) in enumerate(zip(ref, got)) for m in compare(r, g, f"{path}[{i}]")]
    raise TypeError(f"{path}: unsupported reference value {ref!r}")


def golden_misses(stem: str, report: dict) -> list[str]:
    """Deviations of a published run's certification from its golden values."""
    wit = report.get("witness")
    misses = []
    for name, value in GOLDEN[stem].items():
        got = wit.get(name) if isinstance(wit, dict) else None
        if not (isinstance(got, (int, float)) and abs(got - value) <= GOLDEN_TOL[name]):
            misses.append(f"golden {stem}.{name}: {got!r} vs {value} (tol {GOLDEN_TOL[name]})")
    return misses


def check_op(reference: dict, key: str, exit_code, output) -> list[str]:
    """All misses of one op: exit code, output against reference, golden values."""
    misses = compare(reference["exit_code"], exit_code, "exit_code")
    misses += compare(reference["output"], output)
    if key in GOLDEN:
        misses += golden_misses(key, output if isinstance(output, dict) else {})
    return misses
