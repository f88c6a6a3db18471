"""Correctness checks on the CLI's outputs.

Each check returns a list of failure messages; an empty list means the
operation passed.  Tolerances are those of the tier-1 acceptance suite
(``tests/test_acceptance.py``).  The CLI prints values to 6 decimals, so a
printed value must lie within the tolerance minus half a unit of the last
printed digit: no check here is looser than the suite's.
"""

from __future__ import annotations

import re

TC_TOL = 1e-4          # criterion 1: TC of a circle against 2 pi
CUBE_TC_TOL = 8e-4     # criterion 2: 1e-4 per cube corner, 8 corners
DENSITY_TOL = 1e-4     # criterion 5: density against its closed form
AREA_TOL = 1e-4        # criterion 3: cone area against 2 pi (cosh 1 - 1)
RESIDUAL_TOL = 1e-3    # criterion 3: angle-balance residual
ROUNDING = 5e-7        # half a unit of the sixth printed decimal

_NUMBER = r"(-?[0-9.]+(?:e[-+]?[0-9]+)?)"


def _find(pattern: str, text: str) -> float | None:
    m = re.search(pattern + r"\s*" + _NUMBER, text)
    return float(m.group(1)) if m else None


def _close(what: str, got: float | None, want: float, tol: float) -> list[str]:
    if got is None:
        return [f"{what}: not found in the output"]
    if abs(got - want) > tol - ROUNDING:
        return [f"{what}: {got!r} differs from {want!r} by more than {tol:g}"]
    return []


def _below(what: str, got: float | None, limit: float) -> list[str]:
    if got is None:
        return [f"{what}: not found in the output"]
    if not got <= limit:
        return [f"{what}: {got!r} exceeds {limit:g}"]
    return []


def check_output(command: dict, stdout: str) -> list[str]:
    """Check one command's stdout against the manifest's expectations."""
    kind = command["kind"]
    expect = command["expect"]
    failures = []
    if kind == "tc" and "tc" in expect:
        tol = CUBE_TC_TOL if command["graph"].startswith("cube") else TC_TOL
        failures += _close("total cone curvature",
                           _find(r"total cone curvature:", stdout),
                           expect["tc"], tol)
    elif kind == "cone":
        if "density" in expect:
            failures += _close("ambient cone density",
                               _find(r"Theta\(C,p\)\s*=", stdout),
                               expect["density"], DENSITY_TOL)
            failures += _close("ambient cone area",
                               _find(r"Area\(C\)\s*=", stdout),
                               expect["area"], AREA_TOL)
        failures += _below("angle-balance residual",
                           _find(r"angle-balance residual\s*=", stdout),
                           RESIDUAL_TOL)
    elif kind == "gb_check":
        failures += _below("max residual",
                           _find(r"max residual over \d+ trials:", stdout),
                           RESIDUAL_TOL)
    elif kind.startswith("certify"):
        got = re.findall(r"^verdict: (\S+)$", stdout, flags=re.M)
        if got != expect["verdicts"]:
            failures.append(f"verdicts {got} differ from the recorded "
                            f"{expect['verdicts']}")
    elif kind == "density_map":
        m = re.search(r"density map written: .* \((\d+) apices\)", stdout)
        if m is None or int(m.group(1)) < 1:
            failures.append("density map has no usable apex")
    return failures
