"""Correctness checks that do not rely on the program under test.

Each check gets the parsed JSON report of one CLI call and what the
benchmark knows from how the op's input was built.  It returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from math import gcd

from inputs import determinant, mat_vec


def report_summary(report: dict) -> tuple[str, list[tuple[str, str]]]:
    """(verdict, sorted (check, status) pairs) of a CLI JSON report.

    The verdict of `compare` is the detail of its `verdict` check; for the
    other commands it is `pass` when no check failed and `fail` otherwise.
    """
    statuses = sorted((r["check"], r["status"]) for r in report["results"])
    if report["command"] == "compare":
        verdict = next(r["detail"] for r in report["results"] if r["check"] == "verdict")
    else:
        verdict = "pass" if all(s == "pass" for _, s in statuses) else "fail"
    return verdict, statuses


def _euler(cd: dict, facet: str) -> list[int]:
    return [cd["euler_sign"][facet] * x for x in cd["mu"][facet]]


def check_witness(cd1: dict, cd2: dict, report: dict) -> str | None:
    """Substitute the reported witness (mapping, gauge, matrix) into every condition."""
    detail = next(r["detail"] for r in report["results"] if r["check"] == "detail")
    w = json.loads(detail)
    mapping, gauge, a = w["mapping"], w["gauge"], w["matrix"]
    global_sign = w.get("global_sign", 1)
    cells1 = {c["id"]: c["dim"] for c in cd1["sponge"]["cells"]}
    cells2 = {c["id"]: c["dim"] for c in cd2["sponge"]["cells"]}
    if set(mapping) != set(cells1) or sorted(mapping.values()) != sorted(cells2):
        return "witness mapping is not a bijection of the cells"
    if any(cells2[mapping[c]] != d for c, d in cells1.items()):
        return "witness mapping changes a cell dimension"
    if any(gauge.get(c) not in (1, -1) for c in cells1):
        return "witness gauge is not a sign on every cell"
    inc1, inc2 = cd1["sponge"]["incidence"], cd2["sponge"]["incidence"]
    for c in cells1:
        b1 = dict((x, s) for x, s in inc1.get(c, ()))
        b2 = dict((x, s) for x, s in inc2.get(mapping[c], ()))
        if {mapping[x] for x in b1} != set(b2):
            return f"witness does not carry the boundary of {c}"
        if any(b2[mapping[x]] != gauge[c] * gauge[x] * s for x, s in b1.items()):
            return f"witness gauge does not match the incidence signs at {c}"
    k = cd1["n"] - 1
    if len(a) != k or any(len(row) != k for row in a) or determinant(a) not in (1, -1):
        return "witness matrix is not unimodular of the right size"
    for f in cd1["mu"]:
        lhs = [global_sign * x for x in mat_vec(a, _euler(cd1, f))]
        rhs = [gauge[f] * x for x in _euler(cd2, mapping[f])]
        if lhs != rhs:
            return f"witness matrix does not carry the Euler datum of facet {f}"
    return None


def check_reduction(path: str, case: dict) -> str | None:
    """Re-read a `reduce` output file and compare it with the polytope's face counts."""
    with open(path, "r", encoding="ascii") as fh:
        cd = json.load(fh)
    n = case["n"]
    got = [0] * (n - 1)
    for c in cd["sponge"]["cells"]:
        got[c["dim"]] += 1
    want = [case["faces"][n - d] for d in range(n - 1)]
    if cd["n"] != n or got != want:
        return f"reduction has cells per dim {got}, the polytope has faces {want}"
    facets = {c["id"] for c in cd["sponge"]["cells"] if c["dim"] == n - 2}
    if set(cd["mu"]) != facets or set(cd["euler_sign"]) != facets:
        return "reduction does not carry mu and a sign on exactly its facets"
    for f in facets:
        v = cd["mu"][f]
        if len(v) != n - 1 or gcd(*v) != 1 or cd["euler_sign"][f] not in (1, -1):
            return f"reduction facet {f} has a bad direction or sign"
    return None
