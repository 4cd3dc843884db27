"""Correctness gate: an operation counts as passed only if every study report
passed its own checks and its named outputs match the recorded reference.

References live in ``reference.json`` next to this file, recorded from the
unmodified solver by ``record_reference.py``. The relative tolerance stored
there is loose enough for another time integrator of the same accuracy and
tight enough to catch a wrong flux.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# planar control of the decay study: the non-zero mode must vanish to round-off
PLANAR_CONTROL_MAX = 1e-12


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def outputs(reports) -> dict[str, float]:
    """Named outputs of one operation's study reports."""
    out: dict[str, float] = {}
    for rep in reports:
        if rep.kind == "decay":
            out["fit_rate_rho"] = rep.rows[0]["fit_rate_rho"]
            control = next(r for r in rep.rows if r["run"] == "planar-control")
            out["planar_control_max"] = control["dneq_rho"]
        elif rep.kind == "eps-sweep":
            for r in rep.rows:
                if "refinement_rel_change" in r:
                    out[f"distance@eps={r['eps']!r},n1={r['n1']}"] = r["distance"]
                elif r.get("eta", 0.0) == 0.0:
                    out[f"distance@eps={r['eps']!r}"] = r["distance"]
            out["fit_exponent"] = rep.rows[0]["fit_exponent"]
        elif rep.kind == "gn-check":
            for r in rep.rows:
                out[f"empirical_constant:{r['case']}"] = r["empirical_constant"]
        elif rep.kind == "profile-study":
            for r in rep.rows:
                if "L1" in r:
                    out[f"L1@t={r['t']!r}"] = r["L1"]
    return out


def problems(reports, expected: dict[str, float] | None, rel_tol: float) -> list[str]:
    """Why the operation fails the gate; empty when it passes.

    With ``expected=None`` (a seed without a recorded reference) only the
    studies' own checks and the planar control are applied.
    """
    found = []
    for rep in reports:
        if not rep.passed:
            failed = [k for k, ok in rep.checks.items() if not ok]
            found.append(f"{rep.kind}: failed checks {failed}")
    got = outputs(reports)
    if "planar_control_max" in got:
        ctrl = got.pop("planar_control_max")
        if not ctrl < PLANAR_CONTROL_MAX:
            found.append(f"planar control {ctrl!r} not below {PLANAR_CONTROL_MAX}")
    if expected is None:
        return found
    for name, ref in expected.items():
        val = got.get(name)
        if val is None or not math.isfinite(val):
            found.append(f"{name}: missing or not finite ({val!r})")
        elif abs(val - ref) > rel_tol * abs(ref):
            found.append(f"{name}: {val!r} differs from reference {ref!r} "
                         f"by more than {rel_tol:g} relative")
    for name in sorted(set(got) - set(expected)):
        found.append(f"{name}: no reference recorded")
    return found
