"""Command-line front end.

Subcommands ingest JSON files, run validators and pipelines, and emit
reports in text or canonical JSON.  Every subcommand yields pass/fail
checks; the exit code is 0 when all of them pass, 1 when some check fails
(a failed validation, or a comparison that is not an equivalence), and 2
for malformed input or bad arguments.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Iterator, Sequence

from . import catalog as catalog_mod
from .chardata import CharacteristicData, _checks
from .classify import compare
from .errors import ComplexityOneError, InputFormatError, UnknownEntryError
from .io import (
    _digit_limit,
    _excerpt,
    canonical_json,
    chardata_from_dict,
    chardata_to_dict,
    lambda_from_dict,
    parse_int,
    polytope_from_dict,
    read_json,
    sponge_from_dict,
    weight_system_from_dict,
)
from .lattice import IntVector
from .quasitoric import _require_star, find_strict_subtorus, reduce as quasitoric_reduce, validate_star
from .sponge import CheckResult, ValidationReport, homology, validate_sponge
from .weights import (
    SubtorusChoice,
    cramer_coefficients,
    is_general_position,
    is_strictly_appropriate,
)

_INPUT_ARGS = ("file", "first", "second", "polytope", "lam", "name")


def _cmd_validate_weights(args) -> Iterator[CheckResult]:
    ws = weight_system_from_dict(read_json(args.file), args.file)
    cc = cramer_coefficients(ws)
    yield CheckResult.of("well-formed", True, f"n={ws.n}")
    cramer = f"c_tilde={list(cc.c_tilde)} c={list(cc.c)} gcd={cc.c_gcd}"
    yield CheckResult.of("cramer", True, cramer)
    gp = is_general_position(ws)
    yield CheckResult.of("general-position", gp)
    if gp:
        yield CheckResult.of("strictly-appropriate", is_strictly_appropriate(ws), f"c={list(cc.c)}")
    else:
        yield CheckResult.of("strictly-appropriate", False, "not in general position")


def _cmd_validate_sponge(args) -> Iterator[CheckResult]:
    s = sponge_from_dict(read_json(args.file), args.file)
    yield from validate_sponge(s).entries


def _chardata_checks(cd: CharacteristicData) -> Iterator[CheckResult]:
    """The entries of the chardata check pipeline, euler-cycle last."""
    for stage, report in _checks(cd):
        if stage != "sponge":  # the mu report opens with the sponge's verdict
            yield from report.entries


def _cmd_validate_chardata(args) -> Iterator[CheckResult]:
    cd = chardata_from_dict(read_json(args.file), args.file)
    for entry in _chardata_checks(cd):
        yield entry
    if entry == CheckResult("euler-cycle", "pass"):
        pinned = "yes" if cd.ambient.determines_class else "not pinned by ambient"
        yield CheckResult.of("determines-class", True, pinned)


def _cmd_homology(args) -> Iterator[CheckResult]:
    s = sponge_from_dict(read_json(args.file), args.file)
    h = homology(s)
    yield CheckResult.of("betti", True, " ".join(str(b) for b in h.betti))
    tor = {d: list(t) for d, t in enumerate(h.torsion) if t}
    yield CheckResult.of("torsion", True, str(tor) if tor else "none")


def _parse_alpha(text: str, n: int) -> IntVector:
    entries = tuple(parse_int(x) for x in text.split(","))
    if None in entries:
        raise InputFormatError(f"--alpha must be comma-separated integers, got {_excerpt(text)}")
    alpha = IntVector(entries)
    if alpha.dim != n:
        raise InputFormatError(f"--alpha has {alpha.dim} entries, the polytope has n={n}")
    return alpha


def _alpha_bound(text: str) -> int:
    """--alpha-bound: a nonnegative integer; a rejected value is echoed short."""
    bound = parse_int(text)
    if bound is None or bound < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {_excerpt(text)}")
    return bound


def _cmd_reduce(args) -> Iterator[CheckResult]:
    p = polytope_from_dict(read_json(args.polytope), args.polytope)
    lam = lambda_from_dict(read_json(args.lam), args.lam)
    star = None
    if args.alpha:
        st = SubtorusChoice(_parse_alpha(args.alpha, p.n))
    else:
        star = validate_star(p, lam)
        _require_star(star)
        found = find_strict_subtorus(p, lam, args.alpha_bound)
        if not found:
            yield CheckResult.of(
                "subtorus", False, f"no strict subtorus with entries up to {args.alpha_bound}"
            )
            return
        st = found[0]
        yield CheckResult.of("subtorus", True, f"alpha={list(st.alpha)}")
    cd = quasitoric_reduce(p, lam, st, star)
    yield CheckResult.of("reduce", True, f"sponge cells={len(cd.sponge.cells)}")
    yield from _chardata_checks(cd)
    payload = canonical_json(chardata_to_dict(cd)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(payload)
        yield CheckResult.of("output", True, args.output)
    else:
        sys.stdout.write(payload)


def _cmd_compare(args) -> Iterator[CheckResult]:
    cd1 = chardata_from_dict(read_json(args.first), args.first)
    cd2 = chardata_from_dict(read_json(args.second), args.second)
    result = compare(cd1, cd2)
    detail = result.certificate
    if result.verdict == "equivalent" and result.witness is not None:
        detail = canonical_json(
            {
                "mapping": dict(sorted(result.witness.mapping.items())),
                "gauge": dict(sorted(result.witness.gauge.items())),
                "matrix": result.witness.matrix.row_list(),
            }
        )
    yield CheckResult.of("verdict", result.equivalent, result.verdict.capitalize())
    if detail:
        yield CheckResult.of("detail", result.equivalent, detail)


def _cmd_catalog(args) -> Iterator[CheckResult]:
    if args.list or not args.name:
        for name in catalog_mod.names():
            yield CheckResult.of(f"entry[{name}]", True, "available")
        return
    entry = catalog_mod.load(args.name)
    yield from catalog_mod.verify(entry).entries
    if args.export:
        with open(args.export, "w", encoding="ascii") as fh:
            fh.write(canonical_json(chardata_to_dict(entry.data)) + "\n")
        yield CheckResult.of("export", True, args.export)


@functools.cache  # parse_args leaves the parser as it was, so one tree serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="complexity-one",
        description="Validate and compare combinatorial invariants of complexity-one torus actions",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-weights", help="weight system JSON: Cramer data and strictness")
    p.add_argument("file")
    p.set_defaults(run=_cmd_validate_weights)
    p = sub.add_parser("validate-sponge", help="sponge JSON: incidence and counting axioms")
    p.add_argument("file")
    p.set_defaults(run=_cmd_validate_sponge)
    p = sub.add_parser("validate-chardata", help="characteristic data JSON: all validators")
    p.add_argument("file")
    p.set_defaults(run=_cmd_validate_chardata)
    p = sub.add_parser("homology", help="sponge JSON: cellular homology")
    p.add_argument("file")
    p.set_defaults(run=_cmd_homology)

    p = sub.add_parser("reduce", help="quasitoric reduction to a subtorus")
    p.add_argument("--polytope", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--alpha", default=None, help="comma-separated character, e.g. 1,1,-1")
    p.add_argument("--alpha-bound", type=_alpha_bound, default=3)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("compare", help="decide cellular equivalence of two chardata files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(run=_cmd_compare)

    p = sub.add_parser("catalog", help="verify or export built-in examples")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--export", default=None)
    p.set_defaults(run=_cmd_catalog)
    return parser


def _emit(args, report: ValidationReport, out) -> None:
    if args.format == "json":
        inputs = [v for k, v in sorted(vars(args).items()) if k in _INPUT_ARGS and v]
        payload = {"command": args.command, "inputs": inputs, "results": report.to_dict()}
        out.write(canonical_json(payload) + "\n")
        return
    for e in report.entries:
        out.write(f"{e.status.upper():4} {e.check}" + (f": {e.detail}" if e.detail else "") + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    entries: list[CheckResult] = []
    malformed = False
    # inputs stay bounded by INPUT_DIGITS, but what is computed from them (a
    # determinant, a product in a message) may be longer and must still print
    with _digit_limit(0):
        try:
            for entry in args.run(args):
                entries.append(entry)
        except (InputFormatError, UnknownEntryError) as exc:
            malformed = True
            entries.append(CheckResult.of("input", False, str(exc)))
        except ComplexityOneError as exc:
            entries.append(CheckResult.of("error", False, f"{type(exc).__name__}: {exc}"))
        report = ValidationReport(tuple(sorted(entries, key=lambda e: e.check)))
        code = 2 if malformed else 0 if report.ok else 1
        _emit(args, report, sys.stderr if malformed and args.format == "text" else sys.stdout)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
